//! The in-process runtime↔fleet loop: a replicated front-end detects, the
//! fleet service accumulates, published epochs fan back out to the pools.
//!
//! §6.4's collaborative correction has two halves. The *fleet* half —
//! shards, evidence, epochs — is [`FleetService`]. The *runtime* half is a
//! replicated executor that notices something went wrong long before any
//! classifier could: a vote divergence or replica failure on a single
//! input ([`PoolFrontend`]). This
//! module closes the loop between them inside one process:
//!
//! 1. The front-end observes a failure (`outcome.error_observed()`).
//! 2. [`report_failure`] re-runs the failing input a handful of times
//!    under cumulative instrumentation, over one reused stack —
//!    [`exterminator::summarized_run_reusable`], the *exact* path
//!    deployed cumulative-mode clients use — and submits
//!    each run's summary over the same wire ingestion the fleet already
//!    speaks. No second evidence format, no privileged side door: the
//!    runtime's discovery is just more reports.
//! 3. The service publishes epochs as evidence crosses the §5 threshold;
//!    [`sync_frontend`] fans the newest epoch out to every pool of the
//!    front-end atomically.
//!
//! `xt-fleet/tests/frontend_loop.rs` drives the full circle: a front-end
//! with self-patching disabled is healed purely by epochs minted from the
//! evidence its own failures generated.

use exterminator::frontend::PoolFrontend;
use exterminator::runner::ReusableStack;
use exterminator::summarized_run_reusable;
use xt_faults::FaultSpec;
use xt_patch::PatchTable;
use xt_workloads::{Workload, WorkloadInput};

use crate::service::FleetService;
use crate::wire::RunReport;

/// Heap multiplier `M` for evidence probes (the paper's default).
const PROBE_MULTIPLIER: f64 = 2.0;

/// SplitMix-style probe seed derivation: distinct per `(base, seq)`.
fn probe_seed(base: u64, seq: u32) -> u64 {
    xt_arena::splitmix_finalize(
        base.wrapping_add(u64::from(seq).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
    )
}

/// Turns one observed runtime failure into fleet evidence: `probes`
/// differently-seeded cumulative runs of the failing `(input, fault)`
/// under `patches` (the table the runtime is currently serving with),
/// each reduced to a [`RunReport`] and ingested as `(client, seq_base +
/// i)`. Returns the number of reports the service accepted as fresh.
///
/// The fill probability comes from the service's own classifier
/// configuration, so the probes produce evidence in exactly the shape the
/// shards expect.
#[allow(clippy::too_many_arguments)]
pub fn report_failure(
    service: &FleetService,
    client: u64,
    seq_base: u32,
    workload: &dyn Workload,
    input: &WorkloadInput,
    fault: Option<FaultSpec>,
    patches: &PatchTable,
    probes: u32,
    base_seed: u64,
) -> u32 {
    let fill = service.config().isolator.fill_probability;
    let mut accepted = 0;
    let mut stack = ReusableStack::new();
    for probe in 0..probes {
        let seq = seq_base.wrapping_add(probe);
        let run = summarized_run_reusable(
            workload,
            input,
            fault,
            patches.clone(),
            probe_seed(base_seed, seq),
            fill,
            PROBE_MULTIPLIER,
            &mut stack,
        );
        let report = RunReport::from_summary(client, seq, &run.summary);
        let receipt = service
            .ingest(&report.encode())
            .expect("self-encoded report is well-formed");
        if !receipt.duplicate {
            accepted += 1;
        }
    }
    accepted
}

/// Fans the service's newest epoch out to all of `frontend`'s pools (one
/// epoch version for the whole front-end). Returns `true` if the
/// front-end's live table advanced.
pub fn sync_frontend(service: &FleetService, frontend: &PoolFrontend<'_>) -> bool {
    frontend.load_epoch(&service.latest())
}
