//! Golden pins for the error path's capture-on-demand seam (PR 21).
//!
//! `IterativeMode::repair`, `find_manifesting_fault` and
//! `verified_corrected` decide "did this run fail?" without dumping a
//! heap image; only failed discovery runs and replays capture one. That
//! must change *nothing* a caller can see: same seeds drawn in the same
//! order, same images isolated over, same patches. The constants below
//! were printed by this very test in a clone of the parent commit
//! (42cff20, where every run still captured) and pinned, as PR 17 did for
//! the allocator transcripts in `tests/allocator_stack.rs`. A mismatch
//! means a probe and a captured run disagreed about failure, or the seed
//! order moved — a finding to stop on, not a constant to re-capture.
//! Since the loop runs in pairs on two threads, (e) pins its branch
//! points against the serial parent the same way.

use exterminator::iterative::{IterativeConfig, IterativeMode, IterativeOutcome};
use exterminator::runner::find_manifesting_fault;
use xt_alloc::AllocTime;
use xt_faults::{FaultKind, FaultSpec};
use xt_fleet::simulator::verified_corrected;
use xt_patch::PatchTable;
use xt_workloads::{EspressoLike, WorkloadInput};

/// The §7.2 overflow experiments' program input (`bench`'s
/// `injected_overflows` row, the benchmark's `repair` workload).
fn repair_input() -> WorkloadInput {
    WorkloadInput::with_seed(6).intensity(3)
}

/// The fleet demonstrations' input (`collaborative_patching`,
/// `bench`'s `fleet` row, the `fleet_reports` workload).
fn demo_input() -> WorkloadInput {
    WorkloadInput::with_seed(21).intensity(3)
}

fn overflow(delta: u32) -> FaultKind {
    FaultKind::BufferOverflow { delta, fill: 0xEE }
}

const DANGLING: FaultKind = FaultKind::DanglingFree { lag: 12 };

fn at(kind: FaultKind, trigger: u64) -> FaultSpec {
    FaultSpec {
        kind,
        trigger: AllocTime::from_raw(trigger),
    }
}

/// A fault on one line, e.g. `overflow+20@239` or `dangling~12@364`.
fn name(fault: Option<FaultSpec>) -> String {
    match fault {
        None => "clean".to_string(),
        Some(FaultSpec { kind, trigger }) => match kind {
            FaultKind::BufferOverflow { delta, .. } => {
                format!("overflow+{delta}@{}", trigger.raw())
            }
            FaultKind::DanglingFree { lag } => format!("dangling~{lag}@{}", trigger.raw()),
        },
    }
}

/// A patch table on one line: the patch-file text minus its header.
fn table(patches: &PatchTable) -> String {
    let text = patches.to_text();
    let entries: Vec<&str> = text.lines().skip(1).collect();
    format!("[{}]", entries.join("; "))
}

/// Everything the issue pins of an outcome: `fixed`, `images_used`, the
/// merged `patches`, and per round `breakpoint`/`failure`/`images`/
/// `new_patches`.
fn render(outcome: &IterativeOutcome) -> String {
    let rounds: Vec<String> = outcome
        .rounds
        .iter()
        .map(|r| {
            format!(
                "bp={} {:?} images={} new={}",
                r.breakpoint.raw(),
                r.failure,
                r.images,
                table(&r.new_patches)
            )
        })
        .collect();
    format!(
        "fixed={} images_used={} patches={} rounds=[{}]",
        outcome.fixed,
        outcome.images_used,
        table(&outcome.patches),
        rounds.join(" | ")
    )
}

fn with_base_seed(base_seed: u64) -> IterativeConfig {
    IterativeConfig {
        base_seed,
        ..IterativeConfig::default()
    }
}

fn repair(fault: Option<FaultSpec>, config: IterativeConfig) -> IterativeOutcome {
    IterativeMode::new(config).repair(&EspressoLike::new(), &repair_input(), fault)
}

/// Fails with every mismatching line, and the full rendered list in
/// paste-ready form.
fn assert_golden(what: &str, got: &[String], golden: &[&str]) {
    let mismatches: Vec<String> = got
        .iter()
        .zip(golden)
        .enumerate()
        .filter(|(_, (got, want))| got != *want)
        .map(|(i, (got, want))| format!("#{i}:\n     got {got}\n  golden {want}"))
        .collect();
    assert!(
        got.len() == golden.len() && mismatches.is_empty(),
        "{what} moved ({} rendered, {} pinned):\n{}\nall rendered:\n{}",
        got.len(),
        golden.len(),
        mismatches.join("\n"),
        got.iter()
            .map(|g| format!("        {g:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// (a) Thirteen (fault, `base_seed`) pairs: the four §7.2 kinds at two
/// manifesting triggers each (three for the dangling free: one that never
/// isolates, one fixed by a single deferral, one that takes four rounds of
/// pads and deferrals), a second `base_seed` on one overflow and one
/// dangling fault, a clean program, and an unisolatable case (the
/// isolator is given impossible requirements, so rounds come up empty and
/// the driver gives up). Between them: one-round fixes, multi-round
/// escalation, image escalation to `max_images`, three of the four failure kinds,
/// and sessions that exhaust `max_rounds` and end on the verification run.
#[test]
fn iterative_outcomes_match_the_parents() {
    const DEFAULT_SEED: u64 = 0x17E2_A71F;
    const OTHER_SEED: u64 = 0xBA5E_0021;
    let mut cases: Vec<(Option<FaultSpec>, IterativeConfig)> = Vec::new();
    for (kind, selectors, reseeded) in [
        (overflow(4), &[1, 2][..], None),
        (overflow(20), &[1, 2], Some(1)),
        (overflow(36), &[1, 2], None),
        (DANGLING, &[1, 13, 20], Some(20)),
    ] {
        for &selector in selectors {
            let fault = find_manifesting_fault(
                &EspressoLike::new(),
                &repair_input(),
                kind,
                100,
                450,
                6,
                4,
                selector,
            );
            assert!(fault.is_some(), "selector {selector} finds no {kind:?}");
            cases.push((fault, with_base_seed(DEFAULT_SEED)));
            if reseeded == Some(selector) {
                cases.push((fault, with_base_seed(OTHER_SEED)));
            }
        }
    }
    cases.push((None, with_base_seed(DEFAULT_SEED)));
    let mut impossible = IterativeConfig {
        images: 2,
        max_rounds: 4,
        ..with_base_seed(DEFAULT_SEED)
    };
    impossible.options.min_confirmations = usize::MAX;
    cases.push((Some(at(DANGLING, 100)), impossible));

    let got: Vec<String> = cases
        .into_iter()
        .map(|(fault, config)| {
            let base_seed = config.base_seed;
            let outcome = repair(fault, config);
            format!(
                "{} base_seed={base_seed:#x} -> {}",
                name(fault),
                render(&outcome)
            )
        })
        .collect();
    let golden = [
        "overflow+4@124 base_seed=0x17e2a71f -> fixed=true images_used=3 patches=[pad 1e48c907 4] rounds=[bp=124 Signal images=3 new=[pad 1e48c907 4]]",
        "overflow+4@102 base_seed=0x17e2a71f -> fixed=true images_used=3 patches=[pad 5b25d4a0 4] rounds=[bp=137 SelfAbort images=3 new=[pad 5b25d4a0 4]]",
        "overflow+20@124 base_seed=0x17e2a71f -> fixed=true images_used=3 patches=[pad 1e48c907 20] rounds=[bp=124 Signal images=3 new=[pad 1e48c907 20]]",
        "overflow+20@124 base_seed=0xba5e0021 -> fixed=false images_used=28 patches=[pad 1e48c907 16; pad 5b254c80 168] rounds=[bp=124 Signal images=3 new=[pad 1e48c907 16] | bp=124 SelfAbort images=3 new=[pad 1e48c907 4] | bp=124 Signal images=5 new=[pad 1e48c907 4] | bp=124 SelfAbort images=3 new=[pad 1e48c907 4] | bp=264 SelfAbort images=5 new=[pad 5b254c80 168] | bp=133 SelfAbort images=3 new=[pad 1e48c907 4] | bp=132 SelfAbort images=3 new=[pad 1e48c907 4] | bp=124 Signal images=3 new=[pad 1e48c907 4]]",
        "overflow+20@102 base_seed=0x17e2a71f -> fixed=false images_used=35 patches=[pad 5b25d4a0 16] rounds=[bp=137 SelfAbort images=3 new=[pad 5b25d4a0 16] | bp=124 SelfAbort images=3 new=[pad 5b25d4a0 4] | bp=137 Signal images=3 new=[pad 5b25d4a0 4] | bp=264 SelfAbort images=12 new=[] | bp=130 Signal images=3 new=[pad 5b25d4a0 4] | bp=111 SelfAbort images=3 new=[pad 5b25d4a0 4] | bp=105 SelfAbort images=5 new=[pad 5b25d4a0 4] | bp=150 SelfAbort images=3 new=[pad 5b25d4a0 4]]",
        "overflow+36@124 base_seed=0x17e2a71f -> fixed=true images_used=3 patches=[pad 1e48c907 32] rounds=[bp=124 Signal images=3 new=[pad 1e48c907 32]]",
        "overflow+36@102 base_seed=0x17e2a71f -> fixed=true images_used=6 patches=[pad 5b25d4a0 20] rounds=[bp=133 Signal images=3 new=[pad 5b25d4a0 16] | bp=113 SegFault images=3 new=[pad 5b25d4a0 20]]",
        "dangling~12@205 base_seed=0x17e2a71f -> fixed=false images_used=24 patches=[] rounds=[bp=219 SelfAbort images=12 new=[] | bp=219 SelfAbort images=12 new=[]]",
        "dangling~12@403 base_seed=0x17e2a71f -> fixed=true images_used=3 patches=[defer 5b277141 fa17feed 101] rounds=[bp=465 Signal images=3 new=[defer 5b277141 fa17feed 101]]",
        "dangling~12@185 base_seed=0x17e2a71f -> fixed=true images_used=21 patches=[pad 5b292ba9 664; defer 5b25e163 fa17feed 202] rounds=[bp=342 Signal images=12 new=[] | bp=264 Signal images=3 new=[defer 5b25e163 fa17feed 135] | bp=427 Signal images=3 new=[pad 5b292ba9 664] | bp=364 Signal images=3 new=[defer 5b25e163 fa17feed 67]]",
        "dangling~12@185 base_seed=0xba5e0021 -> fixed=true images_used=24 patches=[pad 1e7d6d67 808; pad 1e7f9eeb 1064; pad 5b253fbd 856; defer 5b25e163 fa17feed 307] rounds=[bp=280 Signal images=9 new=[pad 5b253fbd 856] | bp=365 Signal images=5 new=[pad 1e7d6d67 808] | bp=368 Signal images=7 new=[pad 1e7f9eeb 1064] | bp=350 Signal images=3 new=[defer 5b25e163 fa17feed 307]]",
        "clean base_seed=0x17e2a71f -> fixed=true images_used=0 patches=[] rounds=[]",
        "dangling~12@100 base_seed=0x17e2a71f -> fixed=false images_used=24 patches=[] rounds=[bp=113 SegFault images=12 new=[] | bp=113 SegFault images=12 new=[]]",
    ];
    assert_golden("iterative outcomes", &got, &golden);
}

/// (d) `find_manifesting_fault` returns what it returned on the parent:
/// the selectors `demo_faults` scans first (dangling, lag 12, on the demo
/// input — selector 7 is the one it keeps), its cold-site overflow probe,
/// and the selectors the `core` unit tests use.
#[test]
fn fault_selection_matches_the_parents() {
    let workload = EspressoLike::new();
    let mut got: Vec<String> = (1..=8)
        .map(|sel| {
            let found =
                find_manifesting_fault(&workload, &demo_input(), DANGLING, 100, 450, 6, 4, sel);
            format!("demo dangling sel={sel}: {}", name(found))
        })
        .collect();
    for t in [232, 239] {
        let found =
            find_manifesting_fault(&workload, &demo_input(), overflow(20), t, t + 1, 1, 6, 11);
        got.push(format!("demo cold overflow t={t}: {}", name(found)));
    }
    for (input_seed, delta, selector) in [(9, 20, 1), (13, 36, 2), (3, 20, 99)] {
        let input = WorkloadInput::with_seed(input_seed).intensity(3);
        let found = find_manifesting_fault(
            &workload,
            &input,
            overflow(delta),
            100,
            300,
            20,
            4,
            selector,
        );
        got.push(format!(
            "unit input={input_seed} delta={delta} sel={selector}: {}",
            name(found)
        ));
    }
    let golden = [
        "demo dangling sel=1: dangling~12@124",
        "demo dangling sel=2: dangling~12@102",
        "demo dangling sel=3: dangling~12@209",
        "demo dangling sel=4: dangling~12@315",
        "demo dangling sel=5: dangling~12@189",
        "demo dangling sel=6: dangling~12@254",
        "demo dangling sel=7: dangling~12@364",
        "demo dangling sel=8: dangling~12@196",
        "demo cold overflow t=232: overflow+20@232",
        "demo cold overflow t=239: overflow+20@239",
        "unit input=9 delta=20 sel=1: overflow+20@160",
        "unit input=13 delta=36 sel=2: overflow+36@230",
        "unit input=3 delta=20 sel=99: overflow+20@204",
    ];
    assert_golden("fault selection", &got, &golden);
}

/// (d) `verified_corrected` on the demonstration faults, with the probe
/// seeds `isolatable`, `frontend_loop` and `collaborative_patching` use:
/// under an empty table, and under the patches an iterative repair of
/// the same fault produces (a pad for the cold-site overflow, a deferral
/// for the dangling free).
#[test]
fn verification_probes_match_the_parents() {
    let workload = EspressoLike::new();
    let input = demo_input();
    let mut got = Vec::new();
    for fault in [at(overflow(20), 239), at(DANGLING, 102)] {
        let repaired = IterativeMode::new(IterativeConfig::default())
            .repair(&workload, &input, Some(fault))
            .patches;
        for (label, patches) in [("empty", PatchTable::new()), ("repaired", repaired)] {
            for seed in [0xF1EE7, 0xA5, 0xB6, 0xC0DE] {
                let ok = verified_corrected(&workload, &input, fault, &patches, 4, seed);
                got.push(format!(
                    "{} under {label} {} seed={seed:#x}: {ok}",
                    name(Some(fault)),
                    table(&patches)
                ));
            }
        }
    }
    let golden = [
        "overflow+20@239 under empty [] seed=0xf1ee7: false",
        "overflow+20@239 under empty [] seed=0xa5: false",
        "overflow+20@239 under empty [] seed=0xb6: false",
        "overflow+20@239 under empty [] seed=0xc0de: true",
        "overflow+20@239 under repaired [pad 512ddc49 20] seed=0xf1ee7: true",
        "overflow+20@239 under repaired [pad 512ddc49 20] seed=0xa5: true",
        "overflow+20@239 under repaired [pad 512ddc49 20] seed=0xb6: true",
        "overflow+20@239 under repaired [pad 512ddc49 20] seed=0xc0de: true",
        "dangling~12@102 under empty [] seed=0xf1ee7: false",
        "dangling~12@102 under empty [] seed=0xa5: false",
        "dangling~12@102 under empty [] seed=0xb6: false",
        "dangling~12@102 under empty [] seed=0xc0de: false",
        "dangling~12@102 under repaired [defer 5b2779c3 fa17feed 77] seed=0xf1ee7: true",
        "dangling~12@102 under repaired [defer 5b2779c3 fa17feed 77] seed=0xa5: true",
        "dangling~12@102 under repaired [defer 5b2779c3 fa17feed 77] seed=0xb6: true",
        "dangling~12@102 under repaired [defer 5b2779c3 fa17feed 77] seed=0xc0de: true",
    ];
    assert_golden("verification probes", &got, &golden);
}

/// (e) The branch points of running a repair's independent runs two at a
/// time (the helper lane takes the second run of each pair), each cell
/// labelled with its config: first failing discovery attempts at odd
/// indices (attempt 1 for `overflow+20@174`, attempt 3 for
/// `overflow+20@385`: the helper's run wins) and at an even index with a
/// discarded partner (attempt 4 for `dangling~12@185`, whose seed is given
/// back); rounds that escalate (`target += 2`) to the default
/// `max_images` (12: the last replay runs alone) and to 9 (all pairs); an
/// odd replay batch (`images: 4`: a pair and a single); odd and single
/// `discovery_attempts` (the last attempt runs alone). The attempt indices
/// were read off the serial loop on the parent; the constants were printed
/// there (71e8ba1) and pinned.
#[test]
fn paired_branch_points_match_the_parent() {
    let default = IterativeConfig::default;
    let mut impossible = IterativeConfig {
        max_images: 7,
        max_rounds: 2,
        ..default()
    };
    impossible.options.min_confirmations = usize::MAX;
    let cases: Vec<(Option<FaultSpec>, &str, IterativeConfig)> = vec![
        (Some(at(overflow(20), 174)), "default", default()),
        (Some(at(overflow(20), 385)), "default", default()),
        (Some(at(overflow(4), 315)), "default", default()),
        (
            Some(at(overflow(4), 315)),
            "max_images=9",
            IterativeConfig {
                max_images: 9,
                ..default()
            },
        ),
        (
            Some(at(overflow(36), 102)),
            "images=4",
            IterativeConfig {
                images: 4,
                ..default()
            },
        ),
        (
            Some(at(overflow(20), 124)),
            "images=4",
            IterativeConfig {
                images: 4,
                ..default()
            },
        ),
        (
            Some(at(DANGLING, 185)),
            "images=4",
            IterativeConfig {
                images: 4,
                ..default()
            },
        ),
        (
            None,
            "discovery_attempts=5",
            IterativeConfig {
                discovery_attempts: 5,
                ..default()
            },
        ),
        (
            Some(at(overflow(20), 385)),
            "discovery_attempts=5",
            IterativeConfig {
                discovery_attempts: 5,
                ..default()
            },
        ),
        (
            Some(at(overflow(36), 209)),
            "discovery_attempts=5",
            IterativeConfig {
                discovery_attempts: 5,
                ..default()
            },
        ),
        (
            Some(at(overflow(20), 385)),
            "discovery_attempts=1",
            IterativeConfig {
                discovery_attempts: 1,
                ..default()
            },
        ),
        (
            Some(at(DANGLING, 100)),
            "max_images=7 max_rounds=2 unisolatable",
            impossible,
        ),
    ];
    let got: Vec<String> = cases
        .into_iter()
        .map(|(fault, label, config)| {
            format!(
                "{} {label} -> {}",
                name(fault),
                render(&repair(fault, config))
            )
        })
        .collect();
    let golden = [
        "overflow+20@174 default -> fixed=true images_used=3 patches=[pad 5127e522 20] rounds=[bp=338 SelfAbort images=3 new=[pad 5127e522 20]]",
        "overflow+20@385 default -> fixed=true images_used=3 patches=[pad 51298a45 20] rounds=[bp=387 SelfAbort images=3 new=[pad 51298a45 20]]",
        "overflow+4@315 default -> fixed=true images_used=12 patches=[] rounds=[bp=343 SelfAbort images=12 new=[]]",
        "overflow+4@315 max_images=9 -> fixed=true images_used=9 patches=[] rounds=[bp=343 SelfAbort images=9 new=[]]",
        "overflow+36@102 images=4 -> fixed=true images_used=4 patches=[pad 5b25d4a0 36] rounds=[bp=133 Signal images=4 new=[pad 5b25d4a0 36]]",
        "overflow+20@124 images=4 -> fixed=false images_used=32 patches=[pad 1e48c907 16] rounds=[bp=124 Signal images=4 new=[pad 1e48c907 16] | bp=124 SelfAbort images=4 new=[pad 1e48c907 4] | bp=124 SelfAbort images=4 new=[pad 1e48c907 4] | bp=124 Signal images=4 new=[pad 1e48c907 4] | bp=124 Signal images=4 new=[pad 1e48c907 4] | bp=124 Signal images=4 new=[pad 1e48c907 4] | bp=124 Signal images=4 new=[pad 1e48c907 4] | bp=124 SelfAbort images=4 new=[pad 1e48c907 4]]",
        "dangling~12@185 images=4 -> fixed=true images_used=24 patches=[pad 5b292ba9 664; defer 5b25e163 fa17feed 202] rounds=[bp=342 Signal images=12 new=[] | bp=264 Signal images=4 new=[defer 5b25e163 fa17feed 135] | bp=427 Signal images=4 new=[pad 5b292ba9 664] | bp=364 Signal images=4 new=[defer 5b25e163 fa17feed 67]]",
        "clean discovery_attempts=5 -> fixed=true images_used=0 patches=[] rounds=[]",
        "overflow+20@385 discovery_attempts=5 -> fixed=true images_used=3 patches=[pad 51298a45 20] rounds=[bp=387 SelfAbort images=3 new=[pad 51298a45 20]]",
        "overflow+36@209 discovery_attempts=5 -> fixed=true images_used=16 patches=[pad 1e7d6d67 36; pad 5b24b79d 920] rounds=[bp=350 SelfAbort images=11 new=[pad 5b24b79d 920] | bp=209 Signal images=5 new=[pad 1e7d6d67 36]]",
        "overflow+20@385 discovery_attempts=1 -> fixed=true images_used=0 patches=[] rounds=[]",
        "dangling~12@100 max_images=7 max_rounds=2 unisolatable -> fixed=false images_used=14 patches=[] rounds=[bp=113 SegFault images=7 new=[] | bp=113 SegFault images=7 new=[]]",
    ];
    assert_golden("paired branch points", &got, &golden);
}
