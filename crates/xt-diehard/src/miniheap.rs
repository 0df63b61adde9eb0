//! Miniheaps: the per-size-class allocation chunks of adaptive DieHard.

use std::fmt;

use xt_alloc::AllocTime;
use xt_arena::Addr;

use crate::{BitMap, SlotMeta};

/// Identifies a miniheap: its size class and its ordinal within that class.
///
/// The cumulative-mode isolation formulas (§5.1) reason about "the corrupt
/// miniheap" and the set of miniheaps that existed when each object was
/// allocated; this id is how runs refer to them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MiniHeapId {
    /// Size-class index.
    pub class: u32,
    /// Ordinal within the class, in creation order.
    pub index: u32,
}

impl MiniHeapId {
    /// Creates an id from class and within-class ordinal.
    #[must_use]
    pub const fn new(class: u32, index: u32) -> Self {
        MiniHeapId { class, index }
    }
}

impl fmt::Display for MiniHeapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mh{}.{}", self.class, self.index)
    }
}

/// One contiguous chunk of same-sized object slots, mapped at a random
/// address (paper Fig. 2).
#[derive(Debug)]
pub struct MiniHeap {
    id: MiniHeapId,
    base: Addr,
    /// log2 of the object size: slot ↔ address conversions are a shift and
    /// a mask, never a divide.
    size_shift: u32,
    bitmap: BitMap,
    meta: Vec<SlotMeta>,
    created_at: AllocTime,
}

impl MiniHeap {
    /// Creates a miniheap whose region has already been mapped at `base`.
    ///
    /// # Panics
    ///
    /// Panics unless `object_size` is a power of two (every size class is:
    /// see [`class_object_size`](crate::class_object_size)).
    #[must_use]
    pub fn new(
        id: MiniHeapId,
        base: Addr,
        object_size: usize,
        n_slots: usize,
        created_at: AllocTime,
    ) -> Self {
        assert!(
            object_size.is_power_of_two(),
            "object size {object_size} is not a power of two"
        );
        MiniHeap {
            id,
            base,
            size_shift: object_size.trailing_zeros(),
            bitmap: BitMap::new(n_slots),
            meta: vec![SlotMeta::default(); n_slots],
            created_at,
        }
    }

    /// This miniheap's identity.
    #[inline]
    #[must_use]
    pub fn id(&self) -> MiniHeapId {
        self.id
    }

    /// Base address of slot 0.
    #[inline]
    #[must_use]
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Size of every object slot, in bytes.
    #[inline]
    #[must_use]
    pub fn object_size(&self) -> usize {
        1 << self.size_shift
    }

    /// Number of slots.
    #[inline]
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.bitmap.len()
    }

    /// Allocation time at which this miniheap was created — `τ(M_j)` in the
    /// cumulative-isolation formula (§5.1).
    #[inline]
    #[must_use]
    pub fn created_at(&self) -> AllocTime {
        self.created_at
    }

    /// Number of slots whose allocation bit is set (live + bad).
    #[inline]
    #[must_use]
    pub fn used_slots(&self) -> usize {
        self.bitmap.count_ones()
    }

    /// Address of slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    #[must_use]
    pub fn slot_addr(&self, idx: usize) -> Addr {
        assert!(idx < self.n_slots(), "slot {idx} out of range");
        self.base + ((idx as u64) << self.size_shift)
    }

    /// Maps an address to a slot index, requiring `addr` to be exactly a
    /// slot base — DieHard treats interior pointers as invalid frees.
    #[inline]
    #[must_use]
    pub fn slot_of(&self, addr: Addr) -> Option<usize> {
        if addr < self.base {
            return None;
        }
        let off = addr - self.base;
        let idx = (off >> self.size_shift) as usize;
        let exact = off & (self.object_size() as u64 - 1) == 0;
        (exact && idx < self.n_slots()).then_some(idx)
    }

    /// Maps an address to the slot *containing* it (interior pointers ok).
    #[inline]
    #[must_use]
    pub fn slot_containing(&self, addr: Addr) -> Option<usize> {
        if addr < self.base {
            return None;
        }
        let idx = ((addr - self.base) >> self.size_shift) as usize;
        (idx < self.n_slots()).then_some(idx)
    }

    /// End address (exclusive) of the slot area.
    #[inline]
    #[must_use]
    pub fn end(&self) -> Addr {
        self.base + ((self.n_slots() as u64) << self.size_shift)
    }

    /// The allocation bitmap.
    #[inline]
    #[must_use]
    pub fn bitmap(&self) -> &BitMap {
        &self.bitmap
    }

    /// Mutable access to the allocation bitmap (used by the heap).
    #[inline]
    pub(crate) fn bitmap_mut(&mut self) -> &mut BitMap {
        &mut self.bitmap
    }

    /// Metadata of slot `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    #[must_use]
    pub fn meta(&self, idx: usize) -> &SlotMeta {
        &self.meta[idx]
    }

    /// Mutable metadata of slot `idx` (used by the heap and DieFast).
    #[inline]
    pub(crate) fn meta_mut(&mut self, idx: usize) -> &mut SlotMeta {
        &mut self.meta[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mh() -> MiniHeap {
        MiniHeap::new(
            MiniHeapId::new(1, 0),
            Addr::new(0x10_000),
            32,
            8,
            AllocTime::from_raw(5),
        )
    }

    #[test]
    fn geometry() {
        let m = mh();
        assert_eq!(m.object_size(), 32);
        assert_eq!(m.n_slots(), 8);
        assert_eq!(m.slot_addr(0), Addr::new(0x10_000));
        assert_eq!(m.slot_addr(3), Addr::new(0x10_000 + 96));
        assert_eq!(m.end(), Addr::new(0x10_000 + 256));
        assert_eq!(m.created_at(), AllocTime::from_raw(5));
        assert_eq!(m.id().to_string(), "mh1.0");
    }

    #[test]
    fn slot_of_requires_exact_base() {
        let m = mh();
        assert_eq!(m.slot_of(Addr::new(0x10_000)), Some(0));
        assert_eq!(m.slot_of(Addr::new(0x10_000 + 32)), Some(1));
        assert_eq!(m.slot_of(Addr::new(0x10_000 + 33)), None, "interior");
        assert_eq!(m.slot_of(Addr::new(0x10_000 + 256)), None, "past end");
        assert_eq!(m.slot_of(Addr::new(0xf_fff)), None, "below base");
    }

    #[test]
    fn slot_containing_accepts_interior() {
        let m = mh();
        assert_eq!(m.slot_containing(Addr::new(0x10_000 + 33)), Some(1));
        assert_eq!(m.slot_containing(Addr::new(0x10_000 + 255)), Some(7));
        assert_eq!(m.slot_containing(Addr::new(0x10_000 + 256)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slot_addr_out_of_range_panics() {
        let _ = mh().slot_addr(8);
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_object_size_is_rejected() {
        let _ = MiniHeap::new(
            MiniHeapId::new(1, 0),
            Addr::new(0x10_000),
            48,
            8,
            AllocTime::ZERO,
        );
    }
}
