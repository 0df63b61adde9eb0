//! The DieHard substrate: a bitmap-based, fully randomized, over-provisioned
//! memory allocator (Berger & Zorn, PLDI 2006), in the adaptive variant that
//! Exterminator builds on (paper §3.1, Fig. 2).
//!
//! Key properties reproduced here:
//!
//! * **Size-class miniheaps.** Objects of one size class live in dedicated
//!   *miniheaps* mapped at random addresses; each new miniheap is twice as
//!   large as the previous largest in its class.
//! * **Over-provisioning.** A size class grows whenever an allocation would
//!   push it past `1/M` occupancy, so at least an `(M-1)/M` fraction of every
//!   class is free space — the fence-post reservoir DieFast's canaries use.
//! * **Random probing.** Allocation probes the class's slots uniformly at
//!   random (expected `O(1)` probes at `1/M` occupancy).
//! * **Benign double/invalid frees.** A bitmap bit can only be reset once,
//!   and range/alignment checks reject pointers the allocator never issued
//!   (Table 1).
//! * **Out-of-band metadata.** Object id, allocation/deallocation sites,
//!   deallocation time and the canary bit are kept per slot, "below the
//!   line" (Fig. 1), never inline where overflows could destroy them.
//! * **One slot lifecycle.** [`SlotState`] alone says where a slot is in
//!   its life; only [`SlotMeta`]'s four transitions write it, each
//!   asserting the state it leaves.
//!
//! # The hot path, and the wrapper protocol
//!
//! DieFast (`xt-diefast`) wraps this heap and needs to do work on the slot
//! a call touched, so the two allocation paths are split where it hooks in:
//!
//! * **`malloc` = reserve, then commit.**
//!   [`DieHardHeap::reserve_slot`] picks the random slot and returns a
//!   [`ReservedSlot`] — slot, address, slot size and whether the slot is
//!   `Canaried` in one value — leaving the previous occupant's metadata in
//!   place; the caller vets the slot and then either
//!   [`commit_slot`](DieHardHeap::commit_slot)s or, if its canary is
//!   corrupt, [`retire_reserved`](DieHardHeap::retire_reserved)s it.
//! * **`free` resolves the pointer once and says where.**
//!   [`DieHardHeap::free_slot`] is the heap's one free body; it returns the
//!   [`SlotRef`] it resolved, and [`Heap::free`](xt_alloc::Heap::free) is
//!   that call with the slot dropped. A wrapper continues from the returned
//!   slot instead of looking the pointer up again.
//! * **Resolution is a binary search plus a shift.** Miniheap extents live
//!   in a `Vec` sorted by base (miniheaps are never unmapped, so it only
//!   changes on the rare growth step) and object sizes are powers of two
//!   ([`MiniHeap::new`] asserts it), so address → slot needs no tree walk
//!   and no divide.
//!
//! The accessors and path functions a wrapper calls per `malloc`/`free` —
//! [`SlotRef`]'s and [`MiniHeap`]'s accessors, [`BitMap`]'s bit
//! operations, `location_of`, `miniheap`, `meta`, `slot_addr`, `neighbors`,
//! `canary_slot`, `reserve_slot`, `commit_slot`, `free_slot`,
//! [`size_class_of`], [`class_object_size`] — are marked `#[inline]`.
//! Without the attribute each is an out-of-line cross-crate call that
//! re-indexes `classes[..].miniheaps[..]` with bounds checks (this
//! workspace builds without LTO, and rustc only exports bodies of its own
//! accord for call-free leaf functions); with it, Fig. 7's
//! allocation-intensive overhead of the full stack drops from 1.21× to
//! 1.09× of the baseline allocator (`fig7_table`, same tree with and
//! without the attributes). Cold paths (`grow_class`, history, iteration)
//! are left alone.
//!
//! # Example
//!
//! ```
//! use xt_alloc::{Heap, FreeOutcome, SiteHash};
//! use xt_diehard::{DieHardConfig, DieHardHeap};
//!
//! # fn main() -> Result<(), xt_alloc::HeapError> {
//! let mut heap = DieHardHeap::new(DieHardConfig::with_seed(1));
//! let site = SiteHash::from_raw(0x100);
//! let p = heap.malloc(48, site)?;
//! heap.arena_mut().write_u64(p, 7).unwrap();
//! assert_eq!(heap.free(p, site), FreeOutcome::Freed);
//! // Double frees are tolerated, not fatal.
//! assert_eq!(heap.free(p, site), FreeOutcome::DoubleFreeIgnored);
//! # Ok(())
//! # }
//! ```

mod bitmap;
mod config;
mod heap;
mod history;
mod meta;
mod miniheap;

pub use bitmap::BitMap;
pub use config::DieHardConfig;
pub use heap::{DieHardHeap, ReservedSlot, SlotRef};
pub use history::{FreeRecord, ObjectLog, ObjectRecord};
pub use meta::{SlotMeta, SlotState};
pub use miniheap::{MiniHeap, MiniHeapId};

/// Log2 of the smallest object size (16 bytes).
pub const MIN_SIZE_LOG2: u32 = 4;

/// Returns the size-class index for a request of `size` bytes.
///
/// Classes are powers of two: class 0 holds 16-byte objects, class 1
/// 32-byte objects, and so on.
///
/// # Panics
///
/// Panics if `size` is zero (callers validate requests first).
#[inline]
#[must_use]
pub fn size_class_of(size: usize) -> usize {
    assert!(size > 0, "zero-size request has no size class");
    let bits = usize::BITS - (size - 1).leading_zeros();
    (bits.max(MIN_SIZE_LOG2) - MIN_SIZE_LOG2) as usize
}

/// Returns the object size (bytes) of size class `class`.
#[inline]
#[must_use]
pub fn class_object_size(class: usize) -> usize {
    1usize << (MIN_SIZE_LOG2 as usize + class)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_are_powers_of_two() {
        assert_eq!(size_class_of(1), 0);
        assert_eq!(size_class_of(16), 0);
        assert_eq!(size_class_of(17), 1);
        assert_eq!(size_class_of(32), 1);
        assert_eq!(size_class_of(33), 2);
        assert_eq!(size_class_of(4096), 8);
    }

    #[test]
    fn class_sizes_round_trip() {
        for class in 0..12 {
            let size = class_object_size(class);
            assert_eq!(size_class_of(size), class);
            assert_eq!(size_class_of(size - 1), if size == 16 { 0 } else { class });
        }
    }

    #[test]
    #[should_panic(expected = "zero-size")]
    fn zero_size_panics() {
        let _ = size_class_of(0);
    }
}
