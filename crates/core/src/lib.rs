//! Exterminator: a runtime system that automatically detects, isolates,
//! and **corrects** heap memory errors, with high probability (Novark,
//! Berger & Zorn, PLDI 2007).
//!
//! This crate is the top of the reproduction: it wires the substrates —
//! the randomized [DieHard](xt_diehard) heap, the [DieFast](xt_diefast)
//! probabilistic debugging allocator, [heap images](xt_image), the
//! [error isolator](xt_isolate), [runtime patches](xt_patch), and the
//! [correcting allocator](xt_correct) — into the paper's three modes of
//! operation (§3.4):
//!
//! * [`iterative`] — re-run the same input under fresh heap randomization,
//!   stopping each replay at the *malloc breakpoint* recorded when the
//!   error was first detected; diff the heap images; generate patches;
//!   repeat until the program runs clean.
//! * [`replicated`] — run several differently-seeded replicas of one
//!   execution simultaneously, vote on their outputs, and on any signal,
//!   crash, or divergence isolate errors from the replicas' images and
//!   hot-patch the survivors. The one entry is the persistent [`pool`] —
//!   replicas that *stay up* across inputs, a streaming voter that
//!   answers before stragglers finish, and fleet patch epochs hot-reloaded
//!   between inputs ([`replicated`] holds its outcome types); the
//!   *server* shape — many concurrent submitters over several pools,
//!   bounded queues with backpressure, per-job completion tickets, and one
//!   atomically fanned-out epoch version — is the [`frontend`].
//! * [`cumulative`] — for deployed, nondeterministic programs: reduce each
//!   run to per-site summary statistics and let a Bayesian classifier
//!   accumulate evidence across runs until the buggy sites cross the
//!   decision threshold.
//!
//! # Quick start
//!
//! ```
//! use exterminator::iterative::{IterativeConfig, IterativeMode};
//! use xt_alloc::AllocTime;
//! use xt_faults::{FaultKind, FaultSpec};
//! use xt_workloads::{EspressoLike, WorkloadInput};
//!
//! // A deterministic 20-byte overflow injected into an espresso-like run:
//! let fault = FaultSpec {
//!     kind: FaultKind::BufferOverflow { delta: 20, fill: 0xEE },
//!     trigger: AllocTime::from_raw(120),
//! };
//! let mut mode = IterativeMode::new(IterativeConfig::default());
//! let outcome = mode.repair(&EspressoLike::new(), &WorkloadInput::with_seed(42), Some(fault));
//! assert!(outcome.fixed, "the overflow should be isolated and patched");
//! assert!(!outcome.patches.is_empty());
//! ```

pub mod cumulative;
pub mod frontend;
pub mod iterative;
pub mod pool;
pub mod replicated;
pub mod runner;
pub mod voter;

pub use cumulative::{
    summarized_run_reusable, CumulativeMode, CumulativeModeConfig, CumulativeOutcome, SummarizedRun,
};
pub use frontend::{FrontendConfig, FrontendStats, JobTicket, PoolFrontend};
pub use iterative::{FailureKind, IterativeConfig, IterativeMode, IterativeOutcome, RoundReport};
pub use pool::{EarlyVerdict, PoolConfig, PoolOutcome, ReplicaPool, Straggler, VoteTiming};
pub use replicated::{ReplicaSummary, ReplicatedOutcome};
pub use runner::{execute, find_manifesting_fault, ReusableStack, RunConfig, RunRecord};
pub use voter::{output_digest, vote, StreamVerdict, StreamingVoter, VoteResult};
