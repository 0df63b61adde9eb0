//! Quickstart: inject a memory error, watch Exterminator isolate and
//! correct it.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! The flow mirrors the paper's iterative mode (§3.4): a buggy "program"
//! (an espresso-like workload with an injected buffer overflow) is run
//! until DieFast detects corruption, replayed under fresh heap
//! randomization to collect independent heap images, the images are
//! diffed to pin down the culprit allocation site, and a runtime patch is
//! generated that pads that site — after which the same buggy program runs
//! clean.

use exterminator::iterative::{IterativeConfig, IterativeMode};
use exterminator::runner::{find_manifesting_fault, probe_failed, ReusableStack, RunConfig};
use xt_faults::FaultKind;
use xt_workloads::{EspressoLike, WorkloadInput};

fn main() {
    let workload = EspressoLike::new();
    let input = WorkloadInput::with_seed(2024).intensity(3);

    // Step 1: create a buggy program. The injector plants a deterministic
    // 20-byte buffer overflow, like the DieHard fault injector the paper
    // uses (§7.2). Faults absorbed by size-class rounding trigger nothing,
    // so we search for one that actually manifests — the paper does the
    // same ("until it triggers an error or divergent output").
    let fault = find_manifesting_fault(
        &workload,
        &input,
        FaultKind::BufferOverflow {
            delta: 20,
            fill: 0xEE,
        },
        100,
        400,
        30,
        4,
        7,
    )
    .expect("could not construct a manifesting overflow");
    println!("injected fault: {fault:?}");

    // Step 2: demonstrate the symptom. Without patches, randomized runs
    // fail (DieFast signal or crash) with high probability.
    let mut unpatched_failures = 0;
    let mut stack = ReusableStack::new();
    for seed in 0..5 {
        let mut config = RunConfig::with_seed(seed);
        config.fault = Some(fault);
        config.halt_on_signal = true;
        if probe_failed(&workload, &input, config, &mut stack) {
            unpatched_failures += 1;
        }
    }
    println!("unpatched: {unpatched_failures}/5 randomized runs fail");

    // Step 3: let Exterminator repair it.
    let mut mode = IterativeMode::new(IterativeConfig::default());
    let outcome = mode.repair(&workload, &input, Some(fault));
    println!(
        "repair: fixed={} rounds={} heap images used={}",
        outcome.fixed,
        outcome.rounds.len(),
        outcome.images_used
    );
    for (i, round) in outcome.rounds.iter().enumerate() {
        println!(
            "  round {i}: detected via {:?} at {}",
            round.failure, round.breakpoint
        );
        print!("{}", round.report);
    }
    println!("runtime patches:\n{}", outcome.patches.to_text());

    // Step 4: verify — the same buggy binary, fresh randomization, patches
    // loaded: no failures.
    let mut patched_failures = 0;
    for seed in 100..105 {
        let mut config = RunConfig::with_seed(seed);
        config.fault = Some(fault);
        config.patches = outcome.patches.clone();
        config.halt_on_signal = true;
        if probe_failed(&workload, &input, config, &mut stack) {
            patched_failures += 1;
        }
    }
    println!("patched: {patched_failures}/5 randomized runs fail");
    assert!(outcome.fixed, "quickstart should end with a fix");
    assert_eq!(patched_failures, 0, "patched program must run clean");
}
