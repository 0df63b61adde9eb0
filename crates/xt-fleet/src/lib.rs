//! Fleet-scale collaborative correction: the §6.4 story as a service.
//!
//! The paper's deployment argument is not one machine. §5 closes with the
//! observation that cumulative mode reduces each execution to "relevant
//! statistics about each run" — a few hundred bytes — precisely so that a
//! *population* of users can pool them, and §6.4 sketches the utility that
//! merges every user's patches "computing the maximum buffer pad required
//! for any allocation site, and the maximal deferral amount". This crate
//! is that loop at Windows-Error-Reporting scale:
//!
//! 1. **Clients** run their workload under the correcting allocator,
//!    reduce the run to a [`RunSummary`](xt_isolate::cumulative::RunSummary)
//!    (via [`exterminator::summarized_run_reusable`], over a reusable
//!    allocator stack), and submit it as a compact binary [`RunReport`]
//!    (module [`wire`]).
//! 2. **The service** ([`FleetService`], module [`service`]) folds reports
//!    into one [`EvidenceTable`](xt_isolate::evidence::EvidenceTable) —
//!    the §5 Bayesian hypothesis test in running-product form — behind
//!    one lock. Folds are serialized upstream anyway: the durable server
//!    folds in WAL order under its write gate. Because the running-product
//!    fold and the patch-lattice join of `xt-patch` are commutative,
//!    associative, and (with delivery dedup) idempotent, any interleaving
//!    of the fleet's reports converges to the same state.
//! 3. **Publication**: the service periodically classifies the table and
//!    joins newly flagged patches into a versioned
//!    [`PatchEpoch`](xt_patch::PatchEpoch). Epochs are monotone — §6.4's
//!    max-merge guarantees epoch `n + 1` covers epoch `n` — so clients
//!    polling [`FleetService::latest`] (a lock-free-for-writers `Arc`
//!    snapshot) can adopt any newer epoch without coordination.
//! 4. **The simulator** ([`simulate`], module [`simulator`]) closes the
//!    loop: hundreds of seeded clients take turns, round-robin on one
//!    thread, at poll → run workload-with-injected-fault → report, and
//!    each newly published epoch is verified before the next report
//!    folds. That reproduces the paper's cumulative-mode convergence
//!    (Fig. 6's runs-to-isolation curves) at population scale — the fleet
//!    corrects an overflow and a dangling bug for everyone after enough
//!    reports arrive from anyone — as exact, seed-determined counts.
//! 5. **The bridge** (module [`bridge`]) closes the same loop *inside one
//!    process*: failures a replicated
//!    [`PoolFrontend`](exterminator::frontend::PoolFrontend) observes are
//!    re-run under cumulative instrumentation and submitted through the
//!    identical wire path, and published epochs fan back out to every
//!    pool of the front-end.
//!
//! # Durability
//!
//! The in-memory service forgets everything on restart. [`DurableFleet`]
//! (module [`wal`]) persists it through any [`Storage`] (module
//! [`storage`]):
//!
//! * **WAL format** — each record is `kind (u8) ∥ lsn (u64 LE) ∥
//!   payload-len (u32 LE) ∥ FNV-1a-64 checksum (u64 LE) ∥ payload`; kind
//!   0 carries the report's own `XTR1` encoding, kind 1 is an explicit
//!   publish. Every report is appended *before* it is folded.
//! * **Snapshot cadence** — after `snapshot_every` fresh reports (or on
//!   request) the full state is exported as a canonical [`FleetSnapshot`]
//!   (`XTS1`), atomically replaced on storage, and the WAL reset. The
//!   snapshot records the highest LSN it folded, so recovery skips any
//!   WAL overlap a crash between the two steps leaves behind.
//! * **Recovery invariant** — reopen = snapshot + truncate torn tail
//!   (checksums) + replay tail; restored
//!   [`ReplayWindow`]s make replay and client retries idempotent. The
//!   crash-injection property test (`tests/durability.rs`) sweeps a
//!   seeded fault across every storage operation and asserts the
//!   recovered [`FleetService::state_digest`] and all subsequent
//!   outcomes are byte-identical to a run that never crashed.
//!
//! # Observability
//!
//! The service carries an [`xt_obs::Registry`]
//! ([`FleetService::observability`]) with per-stage latency histograms
//! — `fleet/ingest` (decode + admit + fold, wire path), `fleet/fold`
//! (the evidence fold alone), `fleet/publish` (classification +
//! epoch mint), and `fleet/wal_append` (storage appends, populated by
//! [`DurableFleet`]). Buckets are powers of two in nanoseconds
//! ([`xt_obs::HISTOGRAM_BUCKETS`]); snapshots merge bucket-wise and
//! render deterministically. Counters come from [`FleetMetrics`],
//! whose [`counters_snapshot`](FleetMetrics::counters_snapshot) puts
//! them in the same registry-snapshot shape; every consumer (plain
//! service, durable wrapper, network backend) obtains metrics through
//! the single [`FleetService::metrics_with`] path.
//!
//! **Admission control**: [`FleetConfig::rate_limit`] arms per-client
//! deterministic token buckets (attempt-driven refill, phase seeded
//! from the client id — no wall clock) on the **wire** ingest path
//! only. A refused report is [`WireError::RateLimited`], counted in
//! [`FleetMetrics::rate_limited`], and touches no evidence, dedup, or
//! WAL state; in-process ingestion (`ingest_report` — the simulator,
//! WAL replay) is never limited. Latency histograms and admission
//! decisions are observability/policy only: nothing here feeds the
//! deterministic `state_digest`.

pub mod bridge;
pub mod delivery;
pub mod frame;
pub mod service;
pub mod simulator;
pub mod storage;
pub mod wal;
pub mod wire;

pub use delivery::{Delivery, ReplayWindow};
pub use frame::{Frame, FrameError, Reader};
pub use service::{
    DurabilityStats, FleetConfig, FleetMetrics, FleetService, IngestReceipt, RestoreError,
};
pub use simulator::{simulate, FaultConvergence, FleetOutcome, SimConfig};
pub use storage::{DirStorage, FaultMode, FaultyStorage, MemStorage, Storage};
pub use wal::{DurabilityConfig, DurabilityError, DurableFleet};
pub use wire::{EvidenceRecord, FleetSnapshot, RunReport, WireError};
