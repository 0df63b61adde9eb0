//! Ablation: the deferral-escalation policy (§6.2).
//!
//! ```text
//! cargo run -p bench --release --bin exp_ablation_deferral
//! ```
//!
//! The paper defers by `2×(T−τ)+1` so that repeated isolation converges
//! "in a logarithmic number of executions". This ablation compares that
//! policy against a fixed small increment, counting repair rounds on the
//! same injected dangling fault.

use exterminator::iterative::{IterativeConfig, IterativeMode};
use exterminator::runner::{
    execute, find_manifesting_fault, probe_failed, ReusableStack, RunConfig,
};
use xt_alloc::SitePair;
use xt_faults::{FaultKind, FaultSpec, INJECTED_FREE_SITE};
use xt_patch::PatchTable;
use xt_workloads::{EspressoLike, WorkloadInput};

/// Repairs with the paper's policy; returns rounds used.
fn paper_policy(input: &WorkloadInput, fault: FaultSpec, seed: u64) -> Option<usize> {
    let mut mode = IterativeMode::new(IterativeConfig {
        base_seed: seed,
        ..IterativeConfig::default()
    });
    let outcome = mode.repair(&EspressoLike::new(), input, Some(fault));
    (outcome.fixed && outcome.patches.deferrals().count() > 0).then_some(outcome.rounds.len())
}

/// A naive policy: fixed +8-tick increments, re-testing until clean.
fn fixed_increment_policy(
    input: &WorkloadInput,
    fault: FaultSpec,
    pair: SitePair,
    max_rounds: usize,
) -> Option<usize> {
    let mut patches = PatchTable::new();
    let mut deferral = 0u64;
    let mut stack = ReusableStack::new();
    for round in 1..=max_rounds {
        // Probe: do a few randomized runs fail?
        let mut failed = false;
        for seed in 0..3u64 {
            let mut config = RunConfig::with_seed(0xF1 + seed + round as u64 * 17);
            config.fault = Some(fault);
            config.patches = patches.clone();
            config.halt_on_signal = true;
            if probe_failed(&EspressoLike::new(), input, config, &mut stack) {
                failed = true;
                break;
            }
        }
        if !failed {
            return Some(round);
        }
        deferral += 8;
        patches = PatchTable::new();
        patches.add_deferral(pair, deferral);
    }
    None
}

fn main() {
    let input = WorkloadInput::with_seed(21).intensity(3);
    println!("# Ablation: deferral policy (injected dangling free, lag 12)\n");
    println!("| fault | paper 2(T-t)+1 rounds | fixed +8/round rounds (cap 40) |");
    println!("| --- | --- | --- |");
    let mut shown = 0;
    let mut sel = 0u64;
    while shown < 5 && sel < 120 {
        sel += 1;
        let Some(fault) = find_manifesting_fault(
            &EspressoLike::new(),
            &input,
            FaultKind::DanglingFree { lag: 12 },
            100,
            450,
            6,
            4,
            sel,
        ) else {
            continue;
        };
        let Some(paper_rounds) = paper_policy(&input, fault, sel ^ 0xD1F) else {
            continue; // unisolatable fault (read-only dangling)
        };
        // Recover the alloc site so the naive policy can patch the same pair.
        let pair = {
            let mut config = RunConfig::with_seed(3);
            config.fault = Some(fault);
            config.diefast = xt_diefast::DieFastConfig::cumulative_with_seed(3);
            let rec = execute(&EspressoLike::new(), &input, config);
            let site = rec
                .history
                .unwrap()
                .get(xt_alloc::ObjectId::from_raw(fault.trigger.raw()))
                .map(|r| r.alloc_site);
            let Some(site) = site else { continue };
            SitePair::new(site, INJECTED_FREE_SITE)
        };
        let fixed = fixed_increment_policy(&input, fault, pair, 40);
        println!(
            "| trigger {} | {} | {} |",
            fault.trigger,
            paper_rounds,
            fixed.map_or("not converged".to_string(), |r| r.to_string())
        );
        shown += 1;
    }
    println!("\nexpected shape: geometric escalation converges in far fewer rounds");
}
