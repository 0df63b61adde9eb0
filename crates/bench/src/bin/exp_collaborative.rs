//! §6.4 collaborative correction: patch sizes and merge behaviour at
//! community scale.
//!
//! ```text
//! cargo run -p bench --release --bin exp_collaborative
//! ```
//!
//! Paper: "the size of the runtime patches that Exterminator generates for
//! injected errors in espresso was just 130K" (17K gzipped) — bounded by
//! the number of allocation sites. Here many simulated users each
//! contribute a patch file; the merged file stays tiny and corrects every
//! contributing user's error.

use exterminator::iterative::{IterativeConfig, IterativeMode};
use exterminator::runner::{find_manifesting_fault, probe_failed, ReusableStack, RunConfig};
use xt_faults::{FaultKind, FaultSpec};
use xt_patch::PatchTable;
use xt_workloads::{EspressoLike, WorkloadInput};

fn main() {
    let input = WorkloadInput::with_seed(77).intensity(3);
    println!("# §6.4 collaborative correction\n");

    // A community of users, each repairing whatever fault their seed
    // produces.
    let mut user_patches: Vec<(FaultSpec, PatchTable)> = Vec::new();
    let mut sel = 0u64;
    while user_patches.len() < 8 && sel < 200 {
        sel += 1;
        let kind = if sel.is_multiple_of(3) {
            FaultKind::DanglingFree { lag: 12 }
        } else {
            FaultKind::BufferOverflow {
                delta: 4 + (sel as u32 % 3) * 16,
                fill: 0xE0 + sel as u8 % 16,
            }
        };
        let Some(fault) =
            find_manifesting_fault(&EspressoLike::new(), &input, kind, 100, 450, 8, 4, sel)
        else {
            continue;
        };
        let mut mode = IterativeMode::new(IterativeConfig {
            base_seed: sel ^ 0xC0DE,
            ..IterativeConfig::default()
        });
        let outcome = mode.repair(&EspressoLike::new(), &input, Some(fault));
        if outcome.fixed && !outcome.patches.is_empty() {
            user_patches.push((fault, outcome.patches));
        }
    }
    println!("users contributing patches: {}", user_patches.len());
    for (i, (fault, patches)) in user_patches.iter().enumerate() {
        println!(
            "  user {i}: {:?} at {} -> {} entries, {} bytes",
            fault.kind,
            fault.trigger,
            patches.len(),
            patches.to_text().len()
        );
    }

    let merged = PatchTable::merged(user_patches.iter().map(|(_, p)| p));
    let text = merged.to_text();
    println!(
        "\nmerged: {} entries, {} bytes ({} pads, {} deferrals)",
        merged.len(),
        text.len(),
        merged.pads().count(),
        merged.deferrals().count()
    );
    println!("(paper: espresso patch file 130K raw / 17K gzipped)");

    // The merged file protects every contributing user.
    let mut all_clean = true;
    let mut stack = ReusableStack::new();
    for (i, (fault, _)) in user_patches.iter().enumerate() {
        let mut failures = 0;
        for seed in 0..3 {
            let mut config = RunConfig::with_seed(0xBEEF + seed + i as u64 * 101);
            config.fault = Some(*fault);
            config.patches = merged.clone();
            config.halt_on_signal = true;
            if probe_failed(&EspressoLike::new(), &input, config, &mut stack) {
                failures += 1;
            }
        }
        println!("merged vs user {i}'s bug: {failures}/3 failing runs");
        all_clean &= failures == 0;
    }
    println!(
        "\n=> merged patches correct every contributed error: {}",
        all_clean
    );
}
