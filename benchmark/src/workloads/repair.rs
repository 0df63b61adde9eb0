//! `repair`: §7.2 iterative mode on injected faults — the error path
//! the four fault-free workloads never take: full image capture at the
//! malloc breakpoint, iterative isolation, patch generation, and
//! pad/deferral application.

use std::time::{Duration, Instant};

use exterminator::iterative::{IterativeConfig, IterativeMode, IterativeOutcome};
use exterminator::runner::find_manifesting_fault;
use xt_faults::{FaultKind, FaultSpec};
use xt_workloads::{EspressoLike, WorkloadInput};

use super::{base_slice, Bench, Scale, Spec, Verdict};
use crate::spans::Tracer;
use crate::stats::{latency_summary, some_median, SeedRng, Window};

pub fn spec() -> Spec {
    Spec {
        name: "repair",
        unit_op: "one IterativeMode::repair of an injected fault in EspressoLike (intensity 3)",
        base_op: "the same program and input, no fault, run bare on BaselineHeap once after \
                  every repair",
        cost_ratio: "heap images used / repairs that fixed their fault — §7.2 images-to-fix",
        tail_pct: 90.0,
        load: "closed loop, 1 thread, in-process; a fixed pool of (fault, base seed) pairs, \
               repaired in seed-derived order, whole passes over the pool per window",
        programs: || vec![Box::new(EspressoLike::new())],
        program_input: |_| program_input(),
        setup: |seed, scale| Box::new(Repair::setup(seed, scale)),
    }
}

/// The §7.2 experiments' program input (`exp_injected_overflows`). Fixed
/// as in the paper: one input, many injected faults.
pub fn program_input() -> WorkloadInput {
    WorkloadInput::with_seed(6).intensity(3)
}

/// §7.2's fault kinds: overflows of 4, 20 and 36 bytes, and a dangling
/// free with lag 12.
pub const KINDS: [FaultKind; 4] = [
    FaultKind::BufferOverflow {
        delta: 4,
        fill: 0xEE,
    },
    FaultKind::BufferOverflow {
        delta: 20,
        fill: 0xEE,
    },
    FaultKind::BufferOverflow {
        delta: 36,
        fill: 0xEE,
    },
    FaultKind::DanglingFree { lag: 12 },
];

/// `count` manifesting faults of one kind, found the way
/// `exp_injected_*` find them, with seed-derived selectors.
///
/// # Panics
///
/// If eight selectors per wanted fault find fewer than `count` (nearly
/// every selector finds one; running dry means fault injection broke).
pub fn manifesting_faults(
    input: &WorkloadInput,
    kind: FaultKind,
    seed: u64,
    count: usize,
) -> Vec<FaultSpec> {
    let workload = EspressoLike::new();
    let mut selectors = SeedRng::new(seed, 0x5E1E);
    let faults: Vec<FaultSpec> = (0..count * 8)
        .filter_map(|_| {
            let selector = selectors.next_u64() >> 8;
            find_manifesting_fault(&workload, input, kind, 100, 450, 6, 4, selector)
        })
        .take(count)
        .collect();
    assert_eq!(faults.len(), count, "too few manifesting {kind:?} faults");
    faults
}

/// Seed of the workload's pool of (fault, base seed) pairs. The pool is
/// the same for every `--seed`, like a bug corpus. Images-per-fix is
/// heavy-tailed over pairs: with a seed-derived pool of this size it
/// read 4.4–7.5 across ten seeds, a spread no amount of measuring
/// narrows, which would make `cost_ratio` a property of the seed rather
/// than of the tree. `--seed` picks the order the pool is worked in.
const FAULT_POOL: u64 = 0x7_2F17;

/// One repair, from a fresh driver.
pub fn repair_once(fault: FaultSpec, base_seed: u64) -> IterativeOutcome {
    IterativeMode::new(IterativeConfig {
        base_seed,
        ..IterativeConfig::default()
    })
    .repair(&EspressoLike::new(), &program_input(), Some(fault))
}

/// A repair counts as a fix only with patches to show for it.
pub fn fixed(outcome: &IterativeOutcome) -> bool {
    outcome.fixed && !outcome.patches.is_empty()
}

struct Repair {
    /// The pool's (fault, base seed) pairs that repaired during set-up,
    /// in seed-derived order. Repair is deterministic in the pair, so on
    /// an unchanged tree none of them fails later: the workload carries
    /// no baseline failure share.
    plan: Vec<(FaultSpec, u64)>,
    base_seeds: SeedRng,
    next: u64,
    scale: Scale,
    rounds: u64,
    fixes: u64,
    screened: usize,
    verdict: Verdict,
}

impl Repair {
    fn setup(seed: u64, scale: Scale) -> Self {
        let input = program_input();
        let faults: Vec<FaultSpec> = KINDS
            .iter()
            .flat_map(|&kind| manifesting_faults(&input, kind, FAULT_POOL, scale.pick(12, 2)))
            .collect();
        let mut base_seeds = SeedRng::new(FAULT_POOL, 0xBA5E);
        let candidates: Vec<(FaultSpec, u64)> = faults
            .iter()
            .flat_map(|&fault| {
                (0..scale.pick(4, 1))
                    .map(|_| (fault, base_seeds.next_u64()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let screened = candidates.len();
        // Screening doubles as the warm-up: every kept pair has run once.
        let mut plan: Vec<(FaultSpec, u64)> = candidates
            .into_iter()
            .filter(|&(fault, base_seed)| fixed(&repair_once(fault, base_seed)))
            .collect();
        assert!(
            !plan.is_empty(),
            "no injected fault repaired during set-up; nothing to measure"
        );
        // The seed's part: the order the pool is worked through.
        let mut order = SeedRng::new(seed, 0x5A0F);
        for i in (1..plan.len()).rev() {
            plan.swap(i, order.below(i as u64 + 1) as usize);
        }
        Repair {
            plan,
            base_seeds: SeedRng::new(seed, 0xBA5E),
            next: 0,
            scale,
            rounds: 0,
            fixes: 0,
            screened,
            verdict: Verdict::default(),
        }
    }
}

impl Bench for Repair {
    fn window(&mut self, index: usize, len: Duration, tracer: &mut Tracer) -> Window {
        let span = tracer.open("repair.window", None, index as u64);
        let deadline = Instant::now() + len;
        let (mut latencies_us, mut base_us) = (Vec::new(), Vec::new());
        let (mut images, mut fixes) = (0usize, 0usize);
        let program = EspressoLike::new();
        // Whole passes over the pool only, so every window does the same
        // mix of cheap and expensive repairs and `cost_ratio` — a count
        // over the pool — reads the same in each.
        while latencies_us.is_empty() || Instant::now() < deadline {
            for &(fault, base_seed) in &self.plan {
                self.next += 1;
                let begin = Instant::now();
                let outcome = repair_once(fault, base_seed);
                let end = Instant::now();
                tracer.record("iterative.repair", Some(span), self.next, begin, end);
                self.verdict.attempted += 1;
                latencies_us.push((end - begin).as_secs_f64() * 1e6);
                if fixed(&outcome) {
                    fixes += 1;
                    images += outcome.images_used;
                    self.rounds += outcome.rounds.len() as u64;
                } else {
                    self.verdict.failed += 1;
                }
                // One reference run (a twentieth of a repair) after each.
                base_slice(
                    &program,
                    |_| program_input(),
                    &mut self.base_seeds,
                    Duration::ZERO,
                    &mut base_us,
                    &mut self.verdict,
                );
                tracer.record("base.run", Some(span), self.next, end, Instant::now());
            }
        }
        tracer.close(span);
        self.fixes += fixes as u64;
        let samples = latencies_us.len();
        let work_s = latencies_us.iter().sum::<f64>() / 1e6;
        let (p50, tail) = latency_summary(&mut latencies_us, 90.0, self.scale.min_beyond());
        Window {
            ops_per_s: Some(samples as f64 / work_s),
            p50_us: p50,
            tail_us: tail,
            cost_ratio: (fixes > 0).then(|| images as f64 / fixes as f64),
            samples,
            ..Window::default()
        }
        .against_base(some_median(&base_us))
    }

    fn finish(self: Box<Self>) -> Verdict {
        let mut verdict = self.verdict;
        verdict.checks.push(format!(
            "repairs fixed with non-empty patches: {} of {} ({} of {} candidate pairs passed \
             set-up screening)",
            verdict.attempted - verdict.failed,
            verdict.attempted,
            self.plan.len(),
            self.screened
        ));
        verdict.details = vec![
            (
                "rounds_per_fix",
                self.rounds as f64 / self.fixes.max(1) as f64,
                "count",
            ),
            (
                "screened_fix_share",
                self.plan.len() as f64 / self.screened.max(1) as f64,
                "ratio",
            ),
        ];
        verdict
    }
}
