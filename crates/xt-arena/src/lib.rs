//! Simulated sparse address space used by every allocator in the
//! Exterminator reproduction.
//!
//! The paper instruments the real process heap of C programs. Reproducing
//! that directly in Rust would make every injected memory error undefined
//! behaviour, so this crate provides the substitute substrate described in
//! `ROADMAP.md` ("Current architecture"): a 47-bit *simulated* address space ([`Arena`]) made of
//! sparsely mapped pages. Heap pointers are [`Addr`] values (plain offsets),
//! and all loads/stores are bounds-checked: an access to unmapped memory
//! returns a [`MemFault`], which the runtime treats exactly like a SIGSEGV.
//!
//! Because miniheaps are mapped at *random* page-aligned addresses (just as
//! DieHard mmaps its miniheaps), buffer overflows that run off the end of a
//! mapped region fault, while overflows within a miniheap silently corrupt
//! whatever the randomized layout placed there — the behaviour Exterminator's
//! probabilistic isolation depends on.
//!
//! # Translation: page table + TLB
//!
//! Every simulated access is translated the way hardware translates it:
//!
//! 1. a **256-entry direct-mapped TLB** indexed by page number resolves
//!    repeat accesses to recently touched pages with one array probe;
//! 2. on a miss, a **two-level page table** — a directory of fixed
//!    512-page leaf tables, each mapping page → region id — resolves the
//!    page in O(1) and refills the TLB.
//!
//! Unmapping a region performs a *precise* TLB shootdown: only the dead
//! region's entries are invalidated, so a `free` does not slow down
//! unrelated accesses. (An earlier design used a `BTreeMap` range query
//! softened by a single-entry cache flushed whole on any unmap; that
//! charged the simulation an O(log n) tree walk per miss — a cost real
//! hardware does not pay, which distorted exactly the overhead the paper
//! measures in Fig. 7.)
//!
//! ## Fidelity: what the simulation charges vs. real hardware
//!
//! | operation            | real hardware              | this arena                    |
//! |----------------------|----------------------------|-------------------------------|
//! | load/store, TLB hit  | ~1 cycle address check     | array probe + bounds check    |
//! | load/store, TLB miss | page-table walk (O(1))     | hash + leaf index (O(1))      |
//! | `mmap`/`munmap`      | kernel, O(pages)           | page-table edit, O(pages)     |
//! | canary fill/check    | word-wide loop             | bulk [`Arena::fill_pattern_u32`] / [`Arena::compare_pattern`] / [`Arena::check_and_fill`] |
//! | heap-image capture   | `memcpy` of mapped pages   | [`Arena::region_snapshot`] + slice copies |
//!
//! Nothing is charged per-access that scales with the number of live
//! regions, so measured allocator overheads reflect the algorithms under
//! study (randomized probing, canary work), not the substrate. A store
//! costs what a load costs plus the copy: no per-page bookkeeping rides
//! the store path, and a read-only observer such as heap-image capture
//! leaves the arena exactly as it found it.
//!
//! # Example
//!
//! ```
//! use xt_arena::{Arena, Rng};
//!
//! # fn main() -> Result<(), xt_arena::MemFault> {
//! let mut arena = Arena::new();
//! let mut rng = Rng::new(42);
//! let region = arena.map(4096, &mut rng);
//! arena.write_u64(region, 0xdead_beef)?;
//! assert_eq!(arena.read_u64(region)?, 0xdead_beef);
//! // One byte past the region faults, like a segfault would.
//! assert!(arena.read_u8(region + 4096).is_err());
//! # Ok(())
//! # }
//! ```

mod addr;
mod arena;
mod fault;
mod rng;

pub use addr::Addr;
pub use arena::{Arena, PAGE_SIZE};
pub use fault::MemFault;
pub use rng::{fnv1a_64, splitmix_finalize, Rng, FNV1A_64_BASIS};
