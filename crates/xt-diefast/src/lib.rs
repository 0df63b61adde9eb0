//! DieFast: the probabilistic debugging allocator (paper §3.3, Fig. 4).
//!
//! DieFast keeps DieHard's randomized, over-provisioned layout and extends
//! the allocation paths to *detect* errors instead of merely tolerating
//! them:
//!
//! * **Implicit fence-posts.** No space is spent on padding: the freed slots
//!   that over-provisioning scatters between live objects act as
//!   fence-posts (`E(M−1)` freed slots separate consecutive live objects).
//! * **Random canaries.** Freed slots are filled with a random 32-bit value
//!   chosen at startup with the low bit set — dereferencing it faults on an
//!   alignment-checking machine, and a fixed data value collides with it
//!   with probability only `2^-31`.
//! * **Probabilistic fence-posts.** In cumulative mode, freed slots are
//!   canaried only with probability `p` (default 1/2), turning every run
//!   into a Bernoulli trial that cumulative isolation (§5.2) can correlate
//!   with failures. Outside cumulative mode `p = 1`.
//! * **Probabilistic error detection.** Every `malloc` verifies the canary
//!   of the slot it returns; every `free` checks the two physically
//!   adjacent slots. Corruption raises an [`ErrorSignal`] and triggers *bad
//!   object isolation*: the corrupt slot is retired (never reused) so its
//!   contents survive as evidence for the error isolator.
//!
//! # What a call costs
//!
//! Fig. 7 charges DieFast for randomisation, zero-fill and canaries, so
//! the bookkeeping around them is kept to one of each thing:
//!
//! * `free` resolves its pointer **once**: it calls
//!   [`DieHardHeap::free_slot`](xt_diehard::DieHardHeap::free_slot), which
//!   returns the slot it freed, and does the neighbour checks and the
//!   canary fill on that slot. There is no second lookup to fail.
//! * `malloc` gets the reserved slot's address, size and canary flag in one
//!   [`ReservedSlot`](xt_diehard::ReservedSlot), and verifies the canary
//!   and zero-fills in **one pass** over the slot
//!   ([`Arena::check_and_fill`](xt_arena::Arena::check_and_fill)); a
//!   corrupted slot is left byte-for-byte as the overflow left it.
//! * Everything `malloc`/`free` ask of `xt-diehard` is `#[inline]` there,
//!   so the layer boundary costs no call per accessor (see that crate's
//!   docs for the list and the measurement).
//!
//! Slot placement, the canary coin's draw order and signal order are
//! observable behaviour; `tests/allocator_stack.rs` pins them with golden
//! transcripts.
//!
//! # Example
//!
//! ```
//! use xt_alloc::{Heap, SiteHash};
//! use xt_diefast::{DieFastConfig, DieFastHeap};
//!
//! # fn main() -> Result<(), xt_alloc::HeapError> {
//! let mut heap = DieFastHeap::new(DieFastConfig::with_seed(7));
//! let site = SiteHash::from_raw(1);
//! let p = heap.malloc(32, site)?;
//! heap.free(p, site);
//! // The freed slot is now filled with the heap's random canary.
//! let canary = heap.canary();
//! assert_eq!(heap.arena().read_u32(p).unwrap(), canary);
//! assert!(heap.take_signals().is_empty());
//! # Ok(())
//! # }
//! ```

mod config;
mod heap;
mod signal;

pub use config::DieFastConfig;
pub use heap::DieFastHeap;
pub use signal::{ErrorSignal, SignalKind};
