//! Golden pins for cumulative mode (§5): what it isolates, after how many
//! runs, with which patches and which exact likelihood ratios — and the
//! bytes of the run reports a fleet client ships.
//!
//! PR 26 changed *how* cumulative mode computes, not what: the isolator
//! stores each site's evaluation and re-evaluates only the sites a run
//! touched, and a run is summarised from the live heap instead of from a
//! captured image. Neither may move a bit. The constants below were
//! printed by this very test in a clone of the parent commit (9a6d122,
//! which re-classified every site twice per run and summarised a full
//! heap image) and pinned, as `repair_golden` and `pool_golden` did.
//!
//! One field was re-captured on purpose since: the flagged verdicts'
//! `ratio=` bits, when the classifier started integrating the ratio
//! `L1/L0` directly instead of dividing two separately integrated
//! likelihoods (the `l1=`/`l0=` fields went with them). The oracle: each
//! new ratio is within 10⁻¹² relative of the old `l1/l0` (1.1 × 10⁻¹⁵,
//! 0 and 4.1 × 10⁻¹⁶), and `runs`, `failures`, `isolated`, `patches`
//! and `state=` did not move. A mismatch is a finding to stop on, not a
//! constant to re-capture.

use exterminator::cumulative::{
    summarized_run_reusable, CumulativeMode, CumulativeModeConfig, CumulativeOutcome,
};
use exterminator::runner::ReusableStack;
use xt_faults::{FaultKind, FaultSpec};
use xt_fleet::simulator::demo_faults;
use xt_fleet::{FleetConfig, RunReport};
use xt_patch::PatchTable;
use xt_workloads::{attack_browsing_session, EspressoLike, MozillaLike, Workload, WorkloadInput};

/// The fleet demonstrations' input (`collaborative_patching`,
/// `bench`'s `fleet` row, the `fleet_reports` workload).
fn demo_input() -> WorkloadInput {
    WorkloadInput::with_seed(21).intensity(3)
}

/// A fault on one line, e.g. `overflow+20@239` or `dangling~12@364`.
fn name(fault: FaultSpec) -> String {
    match fault.kind {
        FaultKind::BufferOverflow { delta, .. } => {
            format!("overflow+{delta}@{}", fault.trigger.raw())
        }
        FaultKind::DanglingFree { lag } => format!("dangling~{lag}@{}", fault.trigger.raw()),
    }
}

/// A patch table on one line: the patch-file text minus its header.
fn table(patches: &PatchTable) -> String {
    let text = patches.to_text();
    let entries: Vec<&str> = text.lines().skip(1).collect();
    format!("[{}]", entries.join("; "))
}

/// FNV-1a-64 over `bytes`, continuing from `state`.
fn fnv(state: u64, bytes: &[u8]) -> u64 {
    xt_arena::fnv1a_64(state, bytes)
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Runs cumulative mode to isolation and renders everything pinned of
/// it: runs, failures, patches, each flagged verdict's site, observation
/// count and likelihood-ratio bits, and a digest of the persisted state
/// text (every observation's `X` bits).
fn cumulative(
    workload: &dyn Workload,
    input: &WorkloadInput,
    fault: Option<FaultSpec>,
    config: CumulativeModeConfig,
    max_runs: usize,
) -> String {
    let mut mode = CumulativeMode::new(config);
    let CumulativeOutcome {
        runs,
        failures,
        isolated,
        patches,
        flagged,
    } = mode.run_until_isolated(workload, input, fault, max_runs);
    let verdicts: Vec<String> = flagged
        .iter()
        .map(|v| {
            format!(
                "{:08x} n={} ratio={:016x}",
                v.site.raw(),
                v.observations,
                v.ratio.to_bits()
            )
        })
        .collect();
    format!(
        "runs={runs} failures={failures} isolated={isolated} patches={} flagged=[{}] state={:016x}",
        table(&patches),
        verdicts.join(", "),
        fnv(FNV_OFFSET, mode.isolator().to_text().as_bytes())
    )
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
            .map(|g| format!("    {g:?},"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The screened demonstration faults, then cumulative mode driven to
/// isolation on each of them and on the Mozilla IDN attack.
#[test]
fn cumulative_outcomes_match_the_parent() {
    let workload = EspressoLike::new();
    let input = demo_input();
    let (overflow, dangling) =
        demo_faults(&workload, &input).expect("the demo input has isolatable faults");
    let mut got = vec![format!(
        "demo_faults: {} {}",
        name(overflow),
        name(dangling)
    )];
    for fault in [overflow, dangling] {
        got.push(format!(
            "{}: {}",
            name(fault),
            cumulative(
                &workload,
                &input,
                Some(fault),
                CumulativeModeConfig::default(),
                200
            )
        ));
    }
    got.push(format!(
        "mozilla: {}",
        cumulative(
            &MozillaLike::new(),
            &WorkloadInput::with_seed(50).payload(attack_browsing_session(4)),
            None,
            CumulativeModeConfig {
                vary_input_seed: true,
                ..CumulativeModeConfig::default()
            },
            120,
        )
    ));
    assert_golden("cumulative outcomes", &got, GOLDEN_OUTCOMES);
}

/// A `fleet_reports`-style corpus: 256 summarised runs of the demo
/// program alternating its two faults over one reused stack, each
/// encoded as the `RunReport` a client ships. The digest folds every
/// report's bytes and each run's failure bit and clock.
#[test]
fn fleet_report_corpus_matches_the_parent() {
    let workload = EspressoLike::new();
    let input = demo_input();
    // `demo_faults`' answer for this input, pinned by the test above.
    let faults = [
        FaultSpec {
            kind: FaultKind::BufferOverflow {
                delta: 20,
                fill: 0xEE,
            },
            trigger: xt_alloc::AllocTime::from_raw(239),
        },
        FaultSpec {
            kind: FaultKind::DanglingFree { lag: 12 },
            trigger: xt_alloc::AllocTime::from_raw(364),
        },
    ];
    let fill = FleetConfig::default().isolator.fill_probability;
    let mut stack = ReusableStack::new();
    let (mut digest, mut failed, mut observations) = (FNV_OFFSET, 0, 0);
    for i in 0..256u64 {
        let run = summarized_run_reusable(
            &workload,
            &input,
            Some(faults[(i % 2) as usize]),
            PatchTable::new(),
            xt_arena::splitmix_finalize(0x2600 + i),
            fill,
            2.0,
            &mut stack,
        );
        let report = RunReport::from_summary(i, 0, &run.summary);
        failed += usize::from(run.failed);
        observations += report.observations();
        digest = fnv(digest, &report.encode());
        digest = fnv(digest, &[u8::from(run.failed)]);
        digest = fnv(digest, &run.clock.raw().to_le_bytes());
    }
    let got = vec![format!(
        "reports=256 failed={failed} observations={observations} digest={digest:016x}"
    )];
    assert_golden("fleet report corpus", &got, GOLDEN_CORPUS);
}

const GOLDEN_OUTCOMES: &[&str] = &[
    "demo_faults: overflow+20@239 dangling~12@364",
    "overflow+20@239: runs=77 failures=25 isolated=true patches=[pad 512ddc49 20] flagged=[512ddc49 n=5 ratio=40b2fb8cfa99dd7b] state=0d2743507449175c",
    "dangling~12@364: runs=34 failures=16 isolated=true patches=[defer 5b25e163 fa17feed 46] flagged=[5b25e163 n=16 ratio=407e1d0f0e9f043c] state=e29ee7ae30b9f93e",
    "mozilla: runs=42 failures=7 isolated=true patches=[pad 0dcdfcfb 8] flagged=[0dcdfcfb n=5 ratio=408a3d73b30fcdd5] state=29ec496bf4264f1b",
];

const GOLDEN_CORPUS: &[&str] =
    &["reports=256 failed=112 observations=10939 digest=c2442521190a3b0e"];
