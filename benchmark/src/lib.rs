//! The repository's benchmark. See `README.md` for the workloads, the
//! metrics, and how the per-layer ledger relates to them.
//!
//! Everything here measures from outside: it calls public functions of
//! the crates under `../crates` and times them. It changes none of them.

pub mod aa;
pub mod heaps;
pub mod json;
pub mod ledger;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
