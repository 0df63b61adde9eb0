//! The adaptive DieHard heap (paper §3.1–3.2, Fig. 2).

use xt_alloc::{AllocTime, FreeOutcome, Heap, HeapError, ObjectId, SiteHash};
use xt_arena::{Addr, Arena, Rng};

use crate::{
    class_object_size, size_class_of, DieHardConfig, FreeRecord, MiniHeap, MiniHeapId, ObjectLog,
    ObjectRecord, SlotMeta, SlotState,
};

/// Random probes attempted before falling back to a deterministic scan.
/// At the `1/M ≤ 1/2` occupancy the growth policy maintains, each probe
/// succeeds with probability ≥ 1/2, so 64 misses in a row is unreachable in
/// practice.
const MAX_PROBES: usize = 64;

/// An opaque handle to one object slot: `(size class, miniheap, slot)`.
///
/// Produced by [`DieHardHeap::location_of`] and friends; consumed by the
/// metadata accessors. Handles stay valid for the life of the heap (miniheaps
/// are never unmapped).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SlotRef {
    class: u32,
    miniheap: u32,
    slot: u32,
}

impl SlotRef {
    /// Size-class index.
    #[inline]
    #[must_use]
    pub fn class(self) -> usize {
        self.class as usize
    }

    /// Miniheap ordinal within the class.
    #[inline]
    #[must_use]
    pub fn miniheap_index(self) -> usize {
        self.miniheap as usize
    }

    /// Slot index within the miniheap.
    #[inline]
    #[must_use]
    pub fn slot(self) -> usize {
        self.slot as usize
    }

    /// The owning miniheap's id.
    #[inline]
    #[must_use]
    pub fn miniheap_id(self) -> MiniHeapId {
        MiniHeapId::new(self.class, self.miniheap)
    }
}

/// What [`DieHardHeap::reserve_slot`] hands back: the reserved slot and
/// everything a caller needs to vet it before committing — in one value, so
/// DieFast's `malloc` does not come back for the address, the slot size and
/// the previous occupant's canary flag one accessor at a time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReservedSlot {
    /// The slot, for [`DieHardHeap::commit_slot`] or
    /// [`DieHardHeap::retire_reserved`].
    pub loc: SlotRef,
    /// Base address of the slot.
    pub addr: Addr,
    /// Size of the slot in bytes (the class's object size, not the request).
    pub size: usize,
    /// Whether the slot is `Canaried`: its previous occupant was canary-filled
    /// when freed, so the caller must verify the canary before committing.
    pub canaried: bool,
}

/// One miniheap's extent in the address index.
#[derive(Clone, Copy, Debug)]
struct Extent {
    base: u64,
    /// Exclusive end of the slot area.
    end: u64,
    class: u32,
    miniheap: u32,
}

#[derive(Debug, Default)]
struct ClassHeap {
    miniheaps: Vec<MiniHeap>,
    /// Slots whose allocation bit is set (live objects + retired bad slots).
    occupied: usize,
    /// Total slots across all miniheaps.
    capacity: usize,
}

/// The fully randomized, over-provisioned DieHard heap.
///
/// See the [crate docs](crate) for the properties reproduced. All loads and
/// stores happen through the embedded [`Arena`]; the heap assigns addresses
/// and maintains out-of-band metadata.
#[derive(Debug)]
pub struct DieHardHeap {
    arena: Arena,
    rng: Rng,
    config: DieHardConfig,
    classes: Vec<ClassHeap>,
    /// Every miniheap's extent, sorted by base. Miniheaps are never
    /// unmapped, so the only mutation is the rare sorted insert in
    /// `grow_class`; every `free` binary-searches it.
    addr_index: Vec<Extent>,
    clock: AllocTime,
    live_objects: usize,
    breakpoint: Option<AllocTime>,
    history: Option<ObjectLog>,
}

impl DieHardHeap {
    /// Creates an empty heap; miniheaps are mapped lazily per size class.
    #[must_use]
    pub fn new(config: DieHardConfig) -> Self {
        DieHardHeap::with_arena(config, Arena::new())
    }

    /// Creates an empty heap over a donated (typically recycled) address
    /// space. The arena is reset first, so a heap built this way behaves
    /// byte-for-byte like one built by [`DieHardHeap::new`] — but reuses
    /// the donor's page-table allocations. Long-lived replica workers pair
    /// this with [`DieHardHeap::into_arena`] to run many inputs over one
    /// arena instead of rebuilding translation structures per input.
    #[must_use]
    pub fn with_arena(config: DieHardConfig, mut arena: Arena) -> Self {
        arena.reset();
        let n_classes = (config.max_size_log2 - crate::MIN_SIZE_LOG2 + 1) as usize;
        let mut classes = Vec::with_capacity(n_classes);
        classes.resize_with(n_classes, ClassHeap::default);
        DieHardHeap {
            arena,
            rng: Rng::new(config.seed),
            history: config.track_history.then(ObjectLog::new),
            config,
            classes,
            addr_index: Vec::new(),
            clock: AllocTime::ZERO,
            live_objects: 0,
            breakpoint: None,
        }
    }

    /// Tears the heap down, releasing its arena (already reset) for reuse
    /// by the next heap built over it.
    #[must_use]
    pub fn into_arena(self) -> Arena {
        let mut arena = self.arena;
        arena.reset();
        arena
    }

    /// The heap's configuration.
    #[must_use]
    pub fn config(&self) -> &DieHardConfig {
        &self.config
    }

    /// Arms (or disarms) the *malloc breakpoint*: once the allocation clock
    /// reaches `at`, further `malloc` calls fail with
    /// [`HeapError::Breakpoint`] so iterative-mode replays stop at the same
    /// logical time as the original failing run (§3.4).
    pub fn set_breakpoint(&mut self, at: Option<AllocTime>) {
        self.breakpoint = at;
    }

    /// Currently armed breakpoint, if any.
    #[must_use]
    pub fn breakpoint(&self) -> Option<AllocTime> {
        self.breakpoint
    }

    /// Number of live application objects (excludes retired bad slots).
    #[inline]
    #[must_use]
    pub fn live_objects(&self) -> usize {
        self.live_objects
    }

    /// The allocation history, when enabled in the configuration.
    #[must_use]
    pub fn history(&self) -> Option<&ObjectLog> {
        self.history.as_ref()
    }

    /// Iterates over every miniheap in every size class.
    pub fn miniheaps(&self) -> impl Iterator<Item = &MiniHeap> {
        self.classes.iter().flat_map(|c| c.miniheaps.iter())
    }

    /// Iterates over the miniheaps of one size class.
    pub fn miniheaps_of_class(&self, class: usize) -> impl Iterator<Item = &MiniHeap> {
        self.classes
            .get(class)
            .into_iter()
            .flat_map(|c| c.miniheaps.iter())
    }

    /// Resolves an exact object base address to its slot.
    #[inline]
    #[must_use]
    pub fn location_of(&self, addr: Addr) -> Option<SlotRef> {
        let (extent, mh) = self.lookup(addr)?;
        mh.slot_of(addr).map(|slot| SlotRef {
            class: extent.class,
            miniheap: extent.miniheap,
            slot: slot as u32,
        })
    }

    /// Resolves any address inside a slot to that slot (interior pointers).
    #[inline]
    #[must_use]
    pub fn location_containing(&self, addr: Addr) -> Option<SlotRef> {
        let (extent, mh) = self.lookup(addr)?;
        mh.slot_containing(addr).map(|slot| SlotRef {
            class: extent.class,
            miniheap: extent.miniheap,
            slot: slot as u32,
        })
    }

    /// The miniheap whose slot area contains `addr`: the last extent based
    /// at or below it, if `addr` is short of that extent's end (guard gaps
    /// and everything outside the heap resolve to nothing).
    #[inline]
    fn lookup(&self, addr: Addr) -> Option<(Extent, &MiniHeap)> {
        let raw = addr.get();
        let after = self.addr_index.partition_point(|e| e.base <= raw);
        let extent = *self.addr_index[..after].last()?;
        if raw >= extent.end {
            return None;
        }
        let mh = &self.classes[extent.class as usize].miniheaps[extent.miniheap as usize];
        debug_assert_eq!((mh.base().get(), mh.end().get()), (extent.base, extent.end));
        Some((extent, mh))
    }

    /// The miniheap owning `loc`.
    #[inline]
    #[must_use]
    pub fn miniheap(&self, loc: SlotRef) -> &MiniHeap {
        &self.classes[loc.class()].miniheaps[loc.miniheap_index()]
    }

    /// Metadata of the slot at `loc`.
    #[inline]
    #[must_use]
    pub fn meta(&self, loc: SlotRef) -> &SlotMeta {
        self.miniheap(loc).meta(loc.slot())
    }

    /// Base address of the slot at `loc`.
    #[inline]
    #[must_use]
    pub fn slot_addr(&self, loc: SlotRef) -> Addr {
        self.miniheap(loc).slot_addr(loc.slot())
    }

    /// Physically adjacent slots (previous, next) within the same miniheap.
    /// Random placement means nothing else is ever adjacent (§3.3).
    #[inline]
    #[must_use]
    pub fn neighbors(&self, loc: SlotRef) -> (Option<SlotRef>, Option<SlotRef>) {
        let mh = self.miniheap(loc);
        let prev = (loc.slot() > 0).then(|| SlotRef {
            slot: loc.slot - 1,
            ..loc
        });
        let next = (loc.slot() + 1 < mh.n_slots()).then(|| SlotRef {
            slot: loc.slot + 1,
            ..loc
        });
        (prev, next)
    }

    /// Records that DieFast filled the freed slot at `loc` with canaries
    /// (`Freed` → `Canaried`, asserted), mirrored into the allocation
    /// history when tracking is on.
    #[inline]
    pub fn canary_slot(&mut self, loc: SlotRef) {
        let meta = self.classes[loc.class()].miniheaps[loc.miniheap_index()].meta_mut(loc.slot());
        meta.canary();
        let id = meta.object_id;
        if let Some(history) = self.history.as_mut() {
            history.record_canaried(id);
        }
    }

    /// Reserves a uniformly random free slot able to hold `size` bytes: the
    /// allocation bit is set, but the slot's metadata — still describing its
    /// *previous* occupant — is left untouched and the allocation clock does
    /// not tick. The caller must finish with [`DieHardHeap::commit_slot`]
    /// (hand the slot to the application) or
    /// [`DieHardHeap::retire_reserved`] (bad-object isolation).
    ///
    /// This two-phase protocol exists for DieFast: canaries must be verified
    /// *before* the previous occupant's identity and deallocation record are
    /// overwritten, because exactly that metadata is the evidence the error
    /// isolator needs when the canary turns out corrupted.
    ///
    /// # Errors
    ///
    /// Fails like `malloc`: breakpoint armed and reached, zero/oversized
    /// request, or the class cannot grow.
    #[inline]
    pub fn reserve_slot(&mut self, size: usize) -> Result<ReservedSlot, HeapError> {
        if let Some(bp) = self.breakpoint {
            if self.clock >= bp {
                return Err(HeapError::Breakpoint { at: self.clock });
            }
        }
        if size == 0 {
            return Err(HeapError::ZeroSize);
        }
        if size > self.config.max_request() {
            return Err(HeapError::RequestTooLarge {
                requested: size,
                max: self.config.max_request(),
            });
        }
        let class = size_class_of(size);
        self.ensure_capacity(class)?;
        let (mh_idx, slot) = self.take_random_slot(class);
        let mh = &self.classes[class].miniheaps[mh_idx];
        Ok(ReservedSlot {
            loc: SlotRef {
                class: class as u32,
                miniheap: mh_idx as u32,
                slot: slot as u32,
            },
            addr: mh.slot_addr(slot),
            size: mh.object_size(),
            canaried: mh.meta(slot).state == SlotState::Canaried,
        })
    }

    /// Commits a reserved slot to the application: ticks the allocation
    /// clock, assigns the next object id, and records the allocation.
    /// Returns the object's address.
    #[inline]
    pub fn commit_slot(&mut self, loc: SlotRef, size: usize, site: SiteHash) -> Addr {
        self.clock = self.clock.next();
        let id = ObjectId::from(self.clock);
        let alloc_time = self.clock;
        let mh = &mut self.classes[loc.class()].miniheaps[loc.miniheap_index()];
        let addr = mh.slot_addr(loc.slot());
        mh.meta_mut(loc.slot())
            .commit(id, site, alloc_time, size as u32);
        self.live_objects += 1;
        if let Some(history) = self.history.as_mut() {
            history.record_alloc(ObjectRecord {
                id,
                alloc_site: site,
                alloc_time,
                size_class: loc.class,
                requested: size as u32,
                miniheap: loc.miniheap_id(),
                slot: loc.slot,
                free: None,
            });
        }
        addr
    }

    /// Retires a reserved slot as *bad* (DieFast bad-object isolation,
    /// §3.3): the allocation bit stays set so the slot is never reused, and
    /// both its contents and its previous occupant's metadata are preserved
    /// as evidence for the error isolator.
    ///
    /// # Panics
    ///
    /// Panics unless the slot is `Canaried`: only a canary can be corrupt.
    pub fn retire_reserved(&mut self, loc: SlotRef) {
        self.classes[loc.class()].miniheaps[loc.miniheap_index()]
            .meta_mut(loc.slot())
            .retire();
    }

    /// Total slots mapped across all classes.
    #[must_use]
    pub fn total_capacity(&self) -> usize {
        self.classes.iter().map(|c| c.capacity).sum()
    }

    /// Occupied slots (live + bad) across all classes.
    #[must_use]
    pub fn total_occupied(&self) -> usize {
        self.classes.iter().map(|c| c.occupied).sum()
    }

    #[inline]
    fn ensure_capacity(&mut self, class: usize) -> Result<(), HeapError> {
        loop {
            let c = &self.classes[class];
            let needs_growth = (c.occupied + 1) as f64 * self.config.multiplier > c.capacity as f64;
            if !needs_growth {
                return Ok(());
            }
            self.grow_class(class)?;
        }
    }

    fn grow_class(&mut self, class: usize) -> Result<(), HeapError> {
        let object_size = class_object_size(class);
        let largest = self.classes[class]
            .miniheaps
            .iter()
            .map(MiniHeap::n_slots)
            .max();
        // "A new miniheap that is twice as large as the previous largest."
        let n_slots = largest.map_or(self.config.initial_slots, |n| n * 2);
        let len = n_slots * object_size;
        let base = self
            .arena
            .try_map(len, &mut self.rng)
            .map_err(|_| HeapError::OutOfMemory { requested: len })?;
        let mh_idx = self.classes[class].miniheaps.len() as u32;
        let id = MiniHeapId::new(class as u32, mh_idx);
        let mh = MiniHeap::new(id, base, object_size, n_slots, self.clock);
        let at = self.addr_index.partition_point(|e| e.base < base.get());
        self.addr_index.insert(
            at,
            Extent {
                base: base.get(),
                end: mh.end().get(),
                class: class as u32,
                miniheap: mh_idx,
            },
        );
        let c = &mut self.classes[class];
        c.capacity += n_slots;
        c.miniheaps.push(mh);
        Ok(())
    }

    /// Picks a uniformly random free slot in the class. The class is at most
    /// `1/M` occupied when called, so random probing terminates quickly; a
    /// deterministic fallback keeps the worst case bounded.
    #[inline]
    fn take_random_slot(&mut self, class: usize) -> (usize, usize) {
        let capacity = self.classes[class].capacity;
        debug_assert!(capacity > self.classes[class].occupied);
        for _ in 0..MAX_PROBES {
            let t = self.rng.below(capacity as u64) as usize;
            let (mh_idx, slot) = Self::nth_slot(&self.classes[class], t);
            let mh = &mut self.classes[class].miniheaps[mh_idx];
            if mh.bitmap_mut().set(slot) {
                self.classes[class].occupied += 1;
                return (mh_idx, slot);
            }
        }
        // Deterministic fallback: first miniheap with space.
        for (mh_idx, mh) in self.classes[class].miniheaps.iter_mut().enumerate() {
            if mh.used_slots() < mh.n_slots() {
                let mut rng = Rng::new(self.rng.next_u64());
                let slot = mh
                    .bitmap_mut()
                    .probe_clear(&mut rng, MAX_PROBES)
                    .expect("miniheap reported free space");
                assert!(mh.bitmap_mut().set(slot));
                self.classes[class].occupied += 1;
                return (mh_idx, slot);
            }
        }
        unreachable!("class occupancy accounting violated");
    }

    #[inline]
    fn nth_slot(class: &ClassHeap, mut t: usize) -> (usize, usize) {
        for (mh_idx, mh) in class.miniheaps.iter().enumerate() {
            if t < mh.n_slots() {
                return (mh_idx, t);
            }
            t -= mh.n_slots();
        }
        unreachable!("slot ordinal beyond class capacity");
    }
}

impl DieHardHeap {
    /// The heap's one `free`: releases the live object based at `ptr` and
    /// returns the slot it resolved, so a wrapper with work left to do on
    /// that slot (DieFast: neighbour checks, canary fill) continues from
    /// the resolution this call already paid for instead of looking the
    /// pointer up again. [`Heap::free`] is this call with the slot dropped.
    ///
    /// # Errors
    ///
    /// A pointer the heap never issued, or an interior pointer, is
    /// [`FreeOutcome::InvalidFreeIgnored`]; a slot that is not live (free
    /// or retired) is [`FreeOutcome::DoubleFreeIgnored`]. Nothing changes
    /// in either case.
    #[inline]
    pub fn free_slot(&mut self, ptr: Addr, site: SiteHash) -> Result<SlotRef, FreeOutcome> {
        let Some(loc) = self.location_of(ptr) else {
            return Err(FreeOutcome::InvalidFreeIgnored);
        };
        let clock = self.clock;
        let mh = &mut self.classes[loc.class()].miniheaps[loc.miniheap_index()];
        let meta = mh.meta_mut(loc.slot());
        if meta.state != SlotState::Live {
            return Err(FreeOutcome::DoubleFreeIgnored);
        }
        meta.free(site, clock);
        let id = meta.object_id;
        assert!(mh.bitmap_mut().clear(loc.slot()));
        self.classes[loc.class()].occupied -= 1;
        self.live_objects -= 1;
        if let Some(history) = self.history.as_mut() {
            history.record_free(
                id,
                FreeRecord {
                    free_site: site,
                    free_time: clock,
                    canaried: false,
                },
            );
        }
        Ok(loc)
    }
}

impl Heap for DieHardHeap {
    #[inline]
    fn malloc(&mut self, size: usize, site: SiteHash) -> Result<Addr, HeapError> {
        let reserved = self.reserve_slot(size)?;
        Ok(self.commit_slot(reserved.loc, size, site))
    }

    #[inline]
    fn free(&mut self, ptr: Addr, site: SiteHash) -> FreeOutcome {
        self.free_slot(ptr, site)
            .map_or_else(|ignored| ignored, |_| FreeOutcome::Freed)
    }

    fn arena(&self) -> &Arena {
        &self.arena
    }

    fn arena_mut(&mut self) -> &mut Arena {
        &mut self.arena
    }

    fn clock(&self) -> AllocTime {
        self.clock
    }

    #[inline]
    fn usable_size(&self, ptr: Addr) -> Option<usize> {
        let loc = self.location_of(ptr)?;
        (self.meta(loc).state == SlotState::Live).then(|| class_object_size(loc.class()))
    }

    #[inline]
    fn alloc_site_of(&self, ptr: Addr) -> Option<SiteHash> {
        let loc = self.location_of(ptr)?;
        let meta = self.meta(loc);
        (meta.state == SlotState::Live).then_some(meta.alloc_site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(seed: u64) -> DieHardHeap {
        DieHardHeap::new(DieHardConfig::with_seed(seed))
    }

    const SITE: SiteHash = SiteHash::from_raw(0xabc);

    #[test]
    fn malloc_returns_distinct_writable_objects() {
        let mut h = heap(1);
        let mut ptrs = Vec::new();
        for i in 0..100 {
            let p = h.malloc(24, SITE).unwrap();
            h.arena_mut().write_u64(p, i).unwrap();
            ptrs.push(p);
        }
        for (i, &p) in ptrs.iter().enumerate() {
            assert_eq!(h.arena().read_u64(p).unwrap(), i as u64);
        }
        let mut sorted = ptrs.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "all objects distinct");
    }

    #[test]
    fn object_ids_count_allocations() {
        let mut h = heap(2);
        for expected in 1..=10u64 {
            let p = h.malloc(16, SITE).unwrap();
            let loc = h.location_of(p).unwrap();
            assert_eq!(h.meta(loc).object_id, ObjectId::from_raw(expected));
            assert_eq!(h.clock(), AllocTime::from_raw(expected));
        }
    }

    #[test]
    fn occupancy_never_exceeds_one_over_m() {
        let mut h = heap(3);
        let mut live = Vec::new();
        for _ in 0..500 {
            live.push(h.malloc(16, SITE).unwrap());
        }
        let class = &h.classes[0];
        assert!(
            class.occupied as f64 * h.config.multiplier <= class.capacity as f64 + 1.0,
            "occupied {} capacity {}",
            class.occupied,
            class.capacity
        );
    }

    #[test]
    fn miniheaps_double_in_size() {
        let mut h = heap(4);
        for _ in 0..200 {
            h.malloc(16, SITE).unwrap();
        }
        let sizes: Vec<usize> = h.miniheaps_of_class(0).map(MiniHeap::n_slots).collect();
        assert!(sizes.len() >= 2, "growth expected");
        for w in sizes.windows(2) {
            assert_eq!(w[1], w[0] * 2, "sizes {sizes:?}");
        }
    }

    #[test]
    fn free_then_double_free_is_benign() {
        let mut h = heap(5);
        let p = h.malloc(32, SITE).unwrap();
        assert_eq!(h.free(p, SITE), FreeOutcome::Freed);
        assert_eq!(h.free(p, SITE), FreeOutcome::DoubleFreeIgnored);
        assert_eq!(h.live_objects(), 0);
    }

    #[test]
    fn invalid_frees_are_ignored() {
        let mut h = heap(6);
        let p = h.malloc(32, SITE).unwrap();
        // Interior pointer.
        assert_eq!(h.free(p + 1, SITE), FreeOutcome::InvalidFreeIgnored);
        // Wild pointer.
        assert_eq!(
            h.free(Addr::new(0x6666_0000), SITE),
            FreeOutcome::InvalidFreeIgnored
        );
        // The object is still live and intact.
        assert_eq!(h.usable_size(p), Some(32));
    }

    #[test]
    fn free_records_site_and_time() {
        let mut h = heap(7);
        let p = h.malloc(32, SITE).unwrap();
        h.malloc(32, SITE).unwrap();
        let free_site = SiteHash::from_raw(0xdef);
        h.free(p, free_site);
        let loc = h.location_of(p).unwrap();
        let meta = h.meta(loc);
        assert_eq!(meta.state, SlotState::Freed);
        assert_eq!(meta.free_site, free_site);
        assert_eq!(meta.free_time, AllocTime::from_raw(2));
    }

    #[test]
    fn zero_and_oversize_requests_fail() {
        let mut h = heap(8);
        assert_eq!(h.malloc(0, SITE), Err(HeapError::ZeroSize));
        assert!(matches!(
            h.malloc(1 << 20, SITE),
            Err(HeapError::RequestTooLarge { .. })
        ));
    }

    #[test]
    fn breakpoint_stops_allocation() {
        let mut h = heap(9);
        h.set_breakpoint(Some(AllocTime::from_raw(3)));
        for _ in 0..3 {
            h.malloc(16, SITE).unwrap();
        }
        assert!(matches!(
            h.malloc(16, SITE),
            Err(HeapError::Breakpoint { .. })
        ));
        assert_eq!(h.clock(), AllocTime::from_raw(3));
        h.set_breakpoint(None);
        h.malloc(16, SITE).unwrap();
    }

    #[test]
    fn layouts_differ_across_seeds() {
        let mut h1 = heap(100);
        let mut h2 = heap(200);
        let a: Vec<Addr> = (0..20).map(|_| h1.malloc(16, SITE).unwrap()).collect();
        let b: Vec<Addr> = (0..20).map(|_| h2.malloc(16, SITE).unwrap()).collect();
        assert_ne!(a, b, "two seeds gave identical layouts");
    }

    #[test]
    fn layouts_identical_for_same_seed() {
        let mut h1 = heap(42);
        let mut h2 = heap(42);
        for _ in 0..50 {
            assert_eq!(h1.malloc(16, SITE).unwrap(), h2.malloc(16, SITE).unwrap());
        }
    }

    #[test]
    fn placement_within_class_is_random() {
        // The same allocation sequence must not produce consecutive slots.
        let mut h = heap(11);
        let ptrs: Vec<u64> = (0..32).map(|_| h.malloc(16, SITE).unwrap().get()).collect();
        let consecutive = ptrs.windows(2).filter(|w| w[1] == w[0] + 16).count();
        assert!(consecutive < 8, "{consecutive} consecutive placements");
    }

    #[test]
    fn neighbors_are_adjacent_slots() {
        let mut h = heap(12);
        let p = h.malloc(16, SITE).unwrap();
        let loc = h.location_of(p).unwrap();
        let (prev, next) = h.neighbors(loc);
        if let Some(prev) = prev {
            assert_eq!(h.slot_addr(loc) - h.slot_addr(prev), 16);
        }
        if let Some(next) = next {
            assert_eq!(h.slot_addr(next) - h.slot_addr(loc), 16);
        }
        assert!(prev.is_some() || next.is_some());
    }

    #[test]
    fn retired_slot_is_never_reused_and_keeps_evidence() {
        let mut h = DieHardHeap::new(DieHardConfig::with_seed(13).initial_slots(4));
        // Create a freed, canaried object whose metadata should survive
        // retirement (only a canaried slot can be found corrupt).
        let p = h.malloc(16, SITE).unwrap();
        let free_site = SiteHash::from_raw(0xf5ee);
        h.free(p, free_site);
        let target = h.location_of(p).unwrap();
        h.canary_slot(target);
        // Reserve slots until we land on p's slot, then retire it.
        loop {
            let reserved = h.reserve_slot(16).unwrap().loc;
            if reserved == target {
                h.retire_reserved(reserved);
                break;
            }
            let q = h.commit_slot(reserved, 16, SITE);
            assert_ne!(q, p);
        }
        let meta = h.meta(target);
        assert_eq!(meta.state, SlotState::Bad);
        assert_eq!(meta.object_id, ObjectId::from_raw(1), "evidence destroyed");
        assert_eq!(meta.free_site, free_site, "free site destroyed");
        // The bad slot is never handed out again and frees of it are benign.
        for _ in 0..64 {
            let q = h.malloc(16, SITE).unwrap();
            assert_ne!(q, p, "bad slot was reused");
        }
        assert_eq!(h.free(p, SITE), FreeOutcome::DoubleFreeIgnored);
    }

    #[test]
    fn reserve_does_not_touch_previous_metadata() {
        let mut h = heap(20);
        let p = h.malloc(16, SITE).unwrap();
        let fsite = SiteHash::from_raw(0xfefe);
        h.free(p, fsite);
        let target = h.location_of(p).unwrap();
        h.canary_slot(target);
        // Reserve until the old slot comes up again.
        loop {
            let r = h.reserve_slot(16).unwrap();
            if r.loc == target {
                let meta = *h.meta(r.loc);
                assert_eq!(meta.state, SlotState::Canaried);
                assert_eq!(meta.free_site, fsite);
                assert!(r.canaried);
                assert_eq!(meta.object_id, ObjectId::from_raw(1));
                assert_eq!((r.addr, r.size), (p, 16));
                break;
            }
            assert!(!r.canaried, "only the freed slot was canaried");
            h.commit_slot(r.loc, 16, SITE);
        }
    }

    #[test]
    fn usable_size_rounds_to_class() {
        let mut h = heap(15);
        let p = h.malloc(33, SITE).unwrap();
        assert_eq!(h.usable_size(p), Some(64));
        h.free(p, SITE);
        assert_eq!(h.usable_size(p), None);
        assert_eq!(h.usable_size(Addr::new(1)), None);
    }

    #[test]
    fn history_records_allocs_and_frees() {
        let mut h = DieHardHeap::new(DieHardConfig::with_seed(16).track_history(true));
        let p = h.malloc(16, SITE).unwrap();
        let q = h.malloc(16, SiteHash::from_raw(2)).unwrap();
        h.free(p, SiteHash::from_raw(3));
        let _ = q;
        let log = h.history().unwrap();
        assert_eq!(log.len(), 2);
        let rec = log.get(ObjectId::from_raw(1)).unwrap();
        assert_eq!(rec.free.unwrap().free_site, SiteHash::from_raw(3));
        assert!(log.get(ObjectId::from_raw(2)).unwrap().free.is_none());
    }

    #[test]
    fn distinct_size_classes_use_distinct_miniheaps() {
        let mut h = heap(17);
        let small = h.malloc(16, SITE).unwrap();
        let large = h.malloc(1000, SITE).unwrap();
        let ls = h.location_of(small).unwrap();
        let ll = h.location_of(large).unwrap();
        assert_ne!(ls.class(), ll.class());
        assert_eq!(h.miniheap(ll).object_size(), 1024);
    }

    #[test]
    fn location_lookup_rejects_gaps() {
        let mut h = heap(18);
        let p = h.malloc(16, SITE).unwrap();
        let mh_end = h.miniheap(h.location_of(p).unwrap()).end();
        assert_eq!(h.location_containing(mh_end), None);
        assert_eq!(h.location_of(Addr::new(0x10)), None);
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let mut h = heap(19);
        let mut rng = Rng::new(77);
        let mut live: Vec<(Addr, u64)> = Vec::new();
        for round in 0..2000u64 {
            if !live.is_empty() && rng.chance(0.45) {
                let (p, tag) = live.swap_remove(rng.below_usize(live.len()));
                assert_eq!(h.arena().read_u64(p).unwrap(), tag, "corruption");
                assert_eq!(h.free(p, SITE), FreeOutcome::Freed);
            } else {
                let size = 16 + rng.below_usize(200);
                let p = h.malloc(size, SITE).unwrap();
                h.arena_mut().write_u64(p, round).unwrap();
                live.push((p, round));
            }
        }
        assert_eq!(h.live_objects(), live.len());
        for (p, tag) in live {
            assert_eq!(h.arena().read_u64(p).unwrap(), tag);
        }
    }
}
