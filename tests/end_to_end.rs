//! End-to-end integration: the full detect → isolate → patch → verify
//! pipeline across all crates, on the paper's case studies.

use exterminator::iterative::{IterativeConfig, IterativeMode};
use exterminator::runner::{execute, find_manifesting_fault, RunConfig};
use xt_faults::FaultKind;
use xt_patch::PatchTable;
use xt_workloads::{benign_requests, overflow_requests, EspressoLike, SquidLike, WorkloadInput};

#[test]
fn squid_overflow_is_repaired_with_a_six_byte_pad() {
    let input = WorkloadInput::with_seed(1)
        .payload(overflow_requests(25))
        .intensity(3);
    let mut mode = IterativeMode::new(IterativeConfig::default());
    let outcome = mode.repair(&SquidLike::new(), &input, None);
    assert!(outcome.fixed, "squid not repaired");
    let pads: Vec<u32> = outcome.patches.pads().map(|(_, p)| p).collect();
    assert!(
        pads.contains(&6),
        "expected the paper's exact 6-byte pad, got {pads:?}"
    );
    // Exactly one culprit site (the paper: "identifies a single allocation
    // site as the culprit").
    assert_eq!(outcome.patches.pads().count(), 1);
}

#[test]
fn squid_on_benign_traffic_needs_no_patches() {
    let input = WorkloadInput::with_seed(2)
        .payload(benign_requests(40))
        .intensity(2);
    let mut mode = IterativeMode::new(IterativeConfig::default());
    let outcome = mode.repair(&SquidLike::new(), &input, None);
    assert!(outcome.fixed);
    assert!(outcome.patches.is_empty(), "patches on clean input");
    assert!(outcome.rounds.is_empty());
}

#[test]
fn patch_files_round_trip_through_disk_and_still_fix_the_bug() {
    let input = WorkloadInput::with_seed(9).intensity(3);
    let fault = find_manifesting_fault(
        &EspressoLike::new(),
        &input,
        FaultKind::BufferOverflow {
            delta: 36,
            fill: 0xCC,
        },
        100,
        300,
        20,
        4,
        31,
    )
    .expect("no manifesting fault");
    let mut mode = IterativeMode::new(IterativeConfig::default());
    let outcome = mode.repair(&EspressoLike::new(), &input, Some(fault));
    assert!(outcome.fixed);

    // Save → load → apply: the stored patch file fixes subsequent
    // executions, the paper's deployment story (§3.4).
    let dir = std::env::temp_dir().join("xt_end_to_end");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("patches.txt");
    outcome.patches.save(&path).unwrap();
    let loaded = PatchTable::load(&path).unwrap();
    assert_eq!(loaded, outcome.patches);
    std::fs::remove_file(&path).unwrap();

    let mut failures = 0;
    for seed in 0..5 {
        let mut config = RunConfig::with_seed(900 + seed);
        config.fault = Some(fault);
        config.patches = loaded.clone();
        config.halt_on_signal = true;
        if execute(&EspressoLike::new(), &input, config).failed() {
            failures += 1;
        }
    }
    assert_eq!(failures, 0, "loaded patches did not fix the bug");
}

#[test]
fn breakpoint_replays_reproduce_object_ids_across_seeds() {
    // The property iterative isolation rests on: the same input replayed
    // under different heap seeds, stopped at the same malloc breakpoint,
    // yields identical object-id populations.
    use xt_alloc::AllocTime;
    let input = WorkloadInput::with_seed(3).intensity(2);
    let breakpoint = AllocTime::from_raw(150);
    let mut id_sets = Vec::new();
    for seed in 0..3 {
        let mut config = RunConfig::with_seed(seed * 101 + 7);
        config.breakpoint = Some(breakpoint);
        let rec = execute(&EspressoLike::new(), &input, config);
        assert!(rec.hit_breakpoint());
        let mut ids: Vec<u64> = rec
            .image
            .live_objects()
            .map(|(_, s)| s.meta.object_id.raw())
            .collect();
        ids.sort_unstable();
        id_sets.push(ids);
    }
    assert_eq!(id_sets[0], id_sets[1], "live-object ids diverged");
    assert_eq!(id_sets[1], id_sets[2], "live-object ids diverged");
    assert!(!id_sets[0].is_empty());
}

/// Finds an injected overflow that both manifests *and* repairs — the
/// paper's per-seed methodology; not every manifesting fault is
/// isolatable in iterative mode.
fn repairable_overflow(
    input: &WorkloadInput,
    delta: u32,
    fill: u8,
    lo: u64,
    hi: u64,
    base_sel: u64,
) -> Option<(xt_faults::FaultSpec, PatchTable)> {
    for sel in base_sel..base_sel + 10 {
        let fault = find_manifesting_fault(
            &EspressoLike::new(),
            input,
            FaultKind::BufferOverflow { delta, fill },
            lo,
            hi,
            20,
            4,
            sel,
        )?;
        let mut mode = IterativeMode::new(IterativeConfig {
            base_seed: sel ^ 0xF00D,
            ..IterativeConfig::default()
        });
        let outcome = mode.repair(&EspressoLike::new(), input, Some(fault));
        if outcome.fixed && outcome.patches.pads().count() > 0 {
            return Some((fault, outcome.patches));
        }
    }
    None
}

#[test]
fn repair_survives_two_distinct_bugs_in_one_program() {
    // Two different overflows; each repaired independently, their patches
    // merged (§6.4) protect against both.
    let input = WorkloadInput::with_seed(61).intensity(3);
    let (fault_a, patches_a) =
        repairable_overflow(&input, 4, 0xA1, 100, 250, 41).expect("no repairable bug A");
    let (fault_b, patches_b) =
        repairable_overflow(&input, 20, 0xB2, 250, 450, 80).expect("no repairable bug B");
    let merged = PatchTable::merged([&patches_a, &patches_b]);
    for (fault, label) in [(fault_a, "A"), (fault_b, "B")] {
        let mut failures = 0;
        for seed in 0..4 {
            let mut config = RunConfig::with_seed(7000 + seed);
            config.fault = Some(fault);
            config.patches = merged.clone();
            config.halt_on_signal = true;
            if execute(&EspressoLike::new(), &input, config).failed() {
                failures += 1;
            }
        }
        assert_eq!(failures, 0, "merged patches fail against bug {label}");
    }
}
