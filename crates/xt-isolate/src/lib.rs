//! Exterminator's probabilistic error isolation (paper §4 and §5).
//!
//! Two algorithm families share this crate:
//!
//! * [`iterative`] — for the iterative and replicated modes (§4): diff `k`
//!   independently randomized heap images of the *same logical execution*,
//!   identify overflow victims (corrupted canaries and live-object
//!   discrepancies), search for culprits at a constant offset `δ`, and
//!   classify identical overwrites of freed objects as dangling-pointer
//!   errors. Theorems 1–3 bound the false positive/negative rates;
//!   [`theory`] implements the formulas so experiments can compare
//!   measured rates against the analytical bounds.
//! * [`cumulative`] — for cumulative mode (§5): no two runs need be
//!   identical. Each run is reduced to per-allocation-site summary
//!   statistics (a few hundred bytes); a Bayesian hypothesis test flags
//!   sites whose objects sit "behind" observed corruption (overflows) or
//!   whose canarying correlates with failure (dangling pointers) more
//!   often than chance predicts. [`evidence`] holds the same test in
//!   incremental, order-insensitive running-product form — the shape a
//!   fleet-scale aggregation service (`xt-fleet`) needs, where evidence
//!   from thousands of clients is folded into one table in arbitrary
//!   order.
//!
//! Both families produce an [`IsolationReport`] which converts into the
//! runtime [`PatchTable`](xt_patch::PatchTable) consumed by the correcting
//! allocator.

pub mod cumulative;
pub mod evidence;
pub mod iterative;
mod report;
pub mod theory;

pub use evidence::{EvidenceTable, SiteEvidence};
pub use report::{DanglingReport, IsolationError, IsolationReport, OverflowReport};
