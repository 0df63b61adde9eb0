//! Differential mode-equivalence matrix (§3.4, §7.2): for a matrix of
//! (workload × fault kind) cells, the paper's three modes of operation —
//! iterative, replicated, and cumulative — must converge on patches
//! naming the *same* allocation site. That is the paper's core claim: the
//! modes differ in deployment shape (replay vs. live replicas vs.
//! statistics across runs), not in which bug they find.
//!
//! Each cell injects one deterministic fault and drives all three modes
//! to isolation. Injection parameters (trigger allocation ordinal per
//! cell) were discovered once by scanning manifesting candidates with the
//! paper's §7.2 methodology — "we run the injector using a random seed
//! until it triggers an error" — and are hardcoded so the matrix runs
//! deterministically and does not pay the screening search. Overflow
//! culprits come from *cold* allocation sites where needed, since
//! cumulative mode's evidence strength scales inversely with the culprit
//! site's allocation volume (the §7.3 Mozilla observation).
//!
//! **Rediscovering injection triggers.** If a workload or allocator
//! change invalidates a hardcoded trigger ordinal (a cell stops
//! manifesting, or manifests as a different fault), rerun the §7.2 scan
//! for that cell with
//! [`exterminator::runner::find_manifesting_fault`]: give it the cell's
//! workload, input, and fault kind, and sweep candidate trigger ordinals
//! (and overflow deltas) until it returns a spec whose run raises the
//! expected signal — `distinct_faults` in `crates/bench/src/lib.rs` drives
//! the same helper over selector ranges and is the template to crib.
//! Paste the ordinal it finds back into the matrix below.

use std::collections::BTreeSet;

use exterminator::cumulative::{CumulativeMode, CumulativeModeConfig};
use exterminator::iterative::{IterativeConfig, IterativeMode};
use exterminator::pool::{PoolConfig, ReplicaPool};
use xt_alloc::AllocTime;
use xt_faults::{FaultKind, FaultSpec};
use xt_patch::PatchTable;
use xt_workloads::{EspressoLike, ProfileWorkload, Workload, WorkloadInput};

/// Allocation sites a patch table names: pad sites plus deferral
/// allocation sites — the "which bug is this" identity of a patch.
fn sites_of(patches: &PatchTable) -> BTreeSet<u32> {
    patches
        .pads()
        .map(|(s, _)| s.raw())
        .chain(patches.deferrals().map(|(p, _)| p.alloc.raw()))
        .collect()
}

/// Iterative mode: replay-based repair (§3.4). Returns the sites its
/// patches name.
fn iterative_sites(
    w: &(dyn Workload + Sync),
    input: &WorkloadInput,
    fault: FaultSpec,
) -> BTreeSet<u32> {
    let mut mode = IterativeMode::new(IterativeConfig::default());
    let outcome = mode.repair(w, input, Some(fault));
    assert!(outcome.fixed, "iterative mode failed to repair");
    assert!(
        !outcome.patches.is_empty(),
        "iterative repair with no patches"
    );
    sites_of(&outcome.patches)
}

/// Replicated mode: a persistent six-replica pool re-serving the same
/// input until its self-isolated patches silence the fault.
fn replicated_sites(
    w: &(dyn Workload + Sync),
    input: &WorkloadInput,
    fault: FaultSpec,
) -> BTreeSet<u32> {
    std::thread::scope(|scope| {
        let mut pool = ReplicaPool::scoped(
            scope,
            w,
            PoolConfig {
                replicas: 6,
                ..PoolConfig::default()
            },
            PatchTable::new(),
        );
        let mut sites = BTreeSet::new();
        for _ in 0..6 {
            let out = pool.run_one(input, Some(fault));
            sites.extend(sites_of(&out.outcome.patches));
            if !out.outcome.error_observed() && !sites.is_empty() {
                break;
            }
        }
        pool.shutdown();
        assert!(!sites.is_empty(), "replicated mode isolated nothing");
        sites
    })
}

/// Cumulative mode: per-run summaries folded into the Bayesian classifier
/// until some site crosses the threshold (§5).
fn cumulative_sites(
    w: &(dyn Workload + Sync),
    input: &WorkloadInput,
    fault: FaultSpec,
) -> BTreeSet<u32> {
    let mut mode = CumulativeMode::new(CumulativeModeConfig::default());
    let outcome = mode.run_until_isolated(w, input, Some(fault), 160);
    assert!(
        outcome.isolated,
        "cumulative mode never isolated in {} runs",
        outcome.runs
    );
    let sites = sites_of(&outcome.patches);
    assert!(
        !sites.is_empty(),
        "cumulative isolation generated no patches"
    );
    sites
}

/// One matrix cell: workload, fault kind, and the discovered trigger.
struct Cell {
    workload: &'static str,
    kind: &'static str,
    make: fn() -> Box<dyn Workload + Sync>,
    fault: FaultSpec,
}

fn cell(
    workload: &'static str,
    kind: &'static str,
    make: fn() -> Box<dyn Workload + Sync>,
    fault_kind: FaultKind,
    trigger: u64,
) -> Cell {
    Cell {
        workload,
        kind,
        make,
        fault: FaultSpec {
            kind: fault_kind,
            trigger: AllocTime::from_raw(trigger),
        },
    }
}

/// The matrix: 3 workloads × 3 fault kinds (the paper's overflow deltas
/// 4/20/36, §7.2), plus a dangling-free cell on espresso — the one
/// workload whose unchecked write-after-free path makes the dangling
/// fault isolatable in *all three* modes (the paper itself isolated only
/// 4 of 10 injected dangling faults in iterative mode).
fn matrix() -> Vec<Cell> {
    const OV4: FaultKind = FaultKind::BufferOverflow {
        delta: 4,
        fill: 0xEE,
    };
    const OV20: FaultKind = FaultKind::BufferOverflow {
        delta: 20,
        fill: 0xEE,
    };
    const OV36: FaultKind = FaultKind::BufferOverflow {
        delta: 36,
        fill: 0x77,
    };
    const DANGLING: FaultKind = FaultKind::DanglingFree { lag: 12 };
    let espresso = || Box::new(EspressoLike::new()) as Box<dyn Workload + Sync>;
    let lindsay = || Box::new(ProfileWorkload::lindsay_like()) as Box<dyn Workload + Sync>;
    let p2c = || Box::new(ProfileWorkload::p2c_like()) as Box<dyn Workload + Sync>;
    vec![
        cell("espresso", "overflow-4", espresso, OV4, 131),
        cell("espresso", "overflow-20", espresso, OV20, 65),
        cell("espresso", "overflow-36", espresso, OV36, 65),
        cell("lindsay", "overflow-4", lindsay, OV4, 56),
        cell("lindsay", "overflow-20", lindsay, OV20, 56),
        cell("lindsay", "overflow-36", lindsay, OV36, 50),
        cell("p2c", "overflow-4", p2c, OV4, 50),
        cell("p2c", "overflow-20", p2c, OV20, 50),
        cell("p2c", "overflow-36", p2c, OV36, 50),
        cell("espresso", "dangling-12", espresso, DANGLING, 154),
    ]
}

#[test]
fn all_three_modes_converge_on_the_same_allocation_site() {
    let cells = matrix();
    // The acceptance floor: at least a 3×3 grid.
    let workloads: BTreeSet<&str> = cells.iter().map(|c| c.workload).collect();
    let kinds: BTreeSet<&str> = cells.iter().map(|c| c.kind).collect();
    assert!(workloads.len() >= 3, "matrix too narrow: {workloads:?}");
    assert!(kinds.len() >= 3, "matrix too shallow: {kinds:?}");

    let input = WorkloadInput::with_seed(6).intensity(3);
    for c in cells {
        let w = (c.make)();
        let it = iterative_sites(w.as_ref(), &input, c.fault);
        let re = replicated_sites(w.as_ref(), &input, c.fault);
        let cu = cumulative_sites(w.as_ref(), &input, c.fault);
        let common: Vec<u32> = it
            .intersection(&re)
            .copied()
            .collect::<BTreeSet<u32>>()
            .intersection(&cu)
            .copied()
            .collect();
        assert!(
            !common.is_empty(),
            "cell ({}, {}): modes disagree on the culprit site\n  iterative:  {it:x?}\n  replicated: {re:x?}\n  cumulative: {cu:x?}",
            c.workload,
            c.kind,
        );
    }
}

/// The dangling cell's agreement is specifically about the *deferral*
/// patch family: all three modes must name the same allocation site in a
/// deferral (not merely overlap on some pad).
#[test]
fn dangling_cell_agrees_on_the_deferred_allocation_site() {
    let input = WorkloadInput::with_seed(6).intensity(3);
    let fault = FaultSpec {
        kind: FaultKind::DanglingFree { lag: 12 },
        trigger: AllocTime::from_raw(154),
    };
    let w = EspressoLike::new();

    let defer_sites = |patches: &PatchTable| -> BTreeSet<u32> {
        patches.deferrals().map(|(p, _)| p.alloc.raw()).collect()
    };

    let mut it_mode = IterativeMode::new(IterativeConfig::default());
    let it = it_mode.repair(&w, &input, Some(fault));
    assert!(it.fixed);
    let it = defer_sites(&it.patches);

    let re = std::thread::scope(|scope| {
        let mut pool = ReplicaPool::scoped(
            scope,
            &w,
            PoolConfig {
                replicas: 6,
                ..PoolConfig::default()
            },
            PatchTable::new(),
        );
        let mut sites = BTreeSet::new();
        for _ in 0..6 {
            let out = pool.run_one(&input, Some(fault));
            sites.extend(defer_sites(&out.outcome.patches));
            if !out.outcome.error_observed() && !sites.is_empty() {
                break;
            }
        }
        pool.shutdown();
        sites
    });

    let mut cu_mode = CumulativeMode::new(CumulativeModeConfig::default());
    let cu_out = cu_mode.run_until_isolated(&w, &input, Some(fault), 160);
    assert!(cu_out.isolated);
    let cu = defer_sites(&cu_out.patches);

    let common: Vec<u32> = it
        .intersection(&re)
        .copied()
        .collect::<BTreeSet<u32>>()
        .intersection(&cu)
        .copied()
        .collect();
    assert!(
        !common.is_empty(),
        "deferral sites disagree:\n  iterative:  {it:x?}\n  replicated: {re:x?}\n  cumulative: {cu:x?}"
    );
}
