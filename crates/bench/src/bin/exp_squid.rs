//! §7.2 "Real Faults — Squid web cache": the 6-byte overflow.
//!
//! ```text
//! cargo run -p bench --release --bin exp_squid
//! ```
//!
//! Paper result: three runs under iterative mode; Exterminator keeps
//! executing correctly, identifies a single allocation site as the
//! culprit, and "generates a pad of exactly 6 bytes, fixing the error."

use exterminator::iterative::{IterativeConfig, IterativeMode};
use exterminator::runner::{probe_failed, ReusableStack, RunConfig};
use xt_workloads::{overflow_requests, SquidLike, Workload as _, WorkloadInput};

fn main() {
    let input = WorkloadInput::with_seed(1)
        .payload(overflow_requests(25))
        .intensity(3);
    println!("# §7.2 Squid buffer overflow (iterative mode)\n");

    // Baseline comparison: the same input corrupts the libc-style heap.
    let mut baseline = xt_baseline::BaselineHeap::with_seed(1);
    let result = SquidLike::new().run(&mut baseline, &input);
    println!(
        "baseline allocator: completed={}, metadata corruption detected={}",
        result.completed(),
        baseline.poisoned()
    );

    let mut mode = IterativeMode::new(IterativeConfig::default());
    let outcome = mode.repair(&SquidLike::new(), &input, None);
    let pads: Vec<(xt_alloc::SiteHash, u32)> = outcome.patches.pads().collect();
    println!("\n| metric | this reproduction | paper |");
    println!("| --- | --- | --- |");
    println!("| repaired | {} | yes |", outcome.fixed);
    println!("| culprit sites | {} | 1 |", pads.len());
    println!(
        "| pad | {} bytes | exactly 6 bytes |",
        pads.first().map_or(0, |&(_, p)| p)
    );
    println!("| heap images used | {} | 3 runs |", outcome.images_used);

    // Verify across fresh randomization.
    let mut failures = 0;
    let mut stack = ReusableStack::new();
    for seed in 0..5 {
        let mut config = RunConfig::with_seed(100 + seed);
        config.patches = outcome.patches.clone();
        config.halt_on_signal = true;
        if probe_failed(&SquidLike::new(), &input, config, &mut stack) {
            failures += 1;
        }
    }
    println!("| patched failures | {failures}/5 | 0 |");
}
