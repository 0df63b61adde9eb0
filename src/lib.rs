//! Umbrella package for the Exterminator reproduction.
//!
//! The implementation lives in the `crates/` workspace members; this package
//! hosts the runnable examples (`examples/`) and the cross-crate integration
//! tests (`tests/`). See `ROADMAP.md`'s "Current architecture" section
//! for a tour of the stack and the system inventory.

pub use exterminator;
pub use xt_alloc;
pub use xt_arena;
pub use xt_baseline;
pub use xt_correct;
pub use xt_diefast;
pub use xt_diehard;
pub use xt_faults;
pub use xt_image;
pub use xt_isolate;
pub use xt_patch;
pub use xt_workloads;
