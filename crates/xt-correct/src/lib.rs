//! The correcting memory allocator (paper §6.3, Fig. 6).
//!
//! [`CorrectingHeap`] wraps any [`Heap`] and applies the runtime patches
//! produced by error isolation:
//!
//! * **Pads.** On `malloc`, the allocation site is looked up in the pad
//!   table and the request is enlarged by the pad, containing any finite
//!   forward overflow from that site.
//! * **Deferrals.** On `free`, the (allocation site, deallocation site)
//!   pair is looked up in the deferral table; a hit pushes the pointer onto
//!   a priority queue instead of releasing it. Every subsequent `malloc`
//!   first drains all queue entries that have come due on the allocation
//!   clock — exactly Fig. 6's loop.
//! * **Hot reload.** [`CorrectingHeap::reload_patches`] swaps in a new
//!   patch table at any time, which is how Exterminator fixes errors in a
//!   *running* process without interrupting execution (§3.4).
//!
//! Corrections impose no extra execution-time work beyond the table lookups
//! — the cost is space (pad bytes, deferred *drag*), which
//! [`CorrectionStats`] accounts for and §7.3 measures.
//!
//! # Example
//!
//! ```
//! use xt_alloc::{FreeOutcome, Heap, SiteHash, SitePair};
//! use xt_correct::CorrectingHeap;
//! use xt_diehard::{DieHardConfig, DieHardHeap};
//! use xt_patch::PatchTable;
//!
//! # fn main() -> Result<(), xt_alloc::HeapError> {
//! let mut patches = PatchTable::new();
//! let site = SiteHash::from_raw(0xA110C);
//! patches.add_pad(site, 6); // the Squid patch: 6 extra bytes
//!
//! let inner = DieHardHeap::new(DieHardConfig::with_seed(1));
//! let mut heap = CorrectingHeap::new(inner, patches);
//! let p = heap.malloc(10, site)?;
//! // The object can safely take a 6-byte overflow now.
//! assert!(heap.usable_size(p).unwrap() >= 16);
//! assert_eq!(heap.stats().pads_applied, 1);
//! # Ok(())
//! # }
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use xt_alloc::{AllocTime, FreeOutcome, Heap, HeapError, SiteHash, SitePair};
use xt_arena::{Addr, Arena};
use xt_patch::PatchTable;

/// One queued deallocation: released when the clock reaches `due`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct DeferredFree {
    due: AllocTime,
    ptr: Addr,
    site: SiteHash,
    /// Usable bytes of the parked object, as accounted in `parked_bytes`.
    size: u64,
}

/// Space-overhead accounting for applied corrections (§7.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorrectionStats {
    /// Allocations that received a pad.
    pub pads_applied: u64,
    /// Total pad bytes added across all allocations.
    pub bytes_padded: u64,
    /// Maximum pad bytes attached to simultaneously-live objects.
    pub peak_padded_bytes: u64,
    /// Frees pushed through the deferral queue.
    pub frees_deferred: u64,
    /// Total *drag*: Σ (object bytes × ticks of deferral actually served).
    pub total_drag_bytes_ticks: u64,
    /// Maximum bytes parked in the deferral queue at once.
    pub peak_deferred_bytes: u64,
}

/// The correcting allocator: pads + deferrals over any inner [`Heap`].
///
/// The deferral queue is the one record of parked frees: a second free of
/// a parked pointer is found by scanning it (on the paper's workloads it
/// holds at most a few entries).
#[derive(Debug)]
pub struct CorrectingHeap<H> {
    inner: H,
    patches: PatchTable,
    /// Parked frees, earliest due first.
    queue: BinaryHeap<Reverse<DeferredFree>>,
    stats: CorrectionStats,
    live_padded_bytes: u64,
    parked_bytes: u64,
}

impl<H: Heap> CorrectingHeap<H> {
    /// Wraps `inner`, applying `patches`.
    #[must_use]
    pub fn new(inner: H, patches: PatchTable) -> Self {
        CorrectingHeap {
            inner,
            patches,
            queue: BinaryHeap::new(),
            stats: CorrectionStats::default(),
            live_padded_bytes: 0,
            parked_bytes: 0,
        }
    }

    /// Wraps `inner` with no patches (they can be hot-loaded later).
    #[must_use]
    pub fn unpatched(inner: H) -> Self {
        Self::new(inner, PatchTable::new())
    }

    /// The wrapped allocator.
    #[must_use]
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Mutable access to the wrapped allocator (e.g. to poll DieFast
    /// signals or arm breakpoints).
    pub fn inner_mut(&mut self) -> &mut H {
        &mut self.inner
    }

    /// Consumes the wrapper, returning the inner heap.
    #[must_use]
    pub fn into_inner(self) -> H {
        self.inner
    }

    /// The active patch table.
    #[must_use]
    pub fn patches(&self) -> &PatchTable {
        &self.patches
    }

    /// Hot-reloads the patch table (§3.4: "subsequent allocations in the
    /// same process will be patched on-the-fly without interrupting
    /// execution").
    pub fn reload_patches(&mut self, patches: PatchTable) {
        self.patches = patches;
    }

    /// Space-overhead statistics.
    #[must_use]
    pub fn stats(&self) -> CorrectionStats {
        self.stats
    }

    /// Number of frees currently parked in the deferral queue.
    #[must_use]
    pub fn deferred_len(&self) -> usize {
        self.queue.len()
    }

    /// Releases every queue entry due at or before `now`.
    fn drain_due(&mut self, now: AllocTime) {
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.due > now {
                break;
            }
            let Reverse(entry) = self.queue.pop().expect("peeked entry");
            self.parked_bytes = self.parked_bytes.saturating_sub(entry.size);
            self.inner.free(entry.ptr, entry.site);
        }
    }
}

impl<H: Heap> Heap for CorrectingHeap<H> {
    /// `correcting_malloc` (Fig. 6): free deferred objects that have come
    /// due, look up the pad for this allocation site, and forward the
    /// padded request.
    fn malloc(&mut self, size: usize, site: SiteHash) -> Result<Addr, HeapError> {
        // The inner malloc will advance the clock to `now + 1`; entries due
        // then are released first, exactly like Fig. 6's `clock++` followed
        // by the drain loop.
        self.drain_due(self.inner.clock() + 1);
        let pad = self.patches.pad_for(site) as usize;
        let ptr = self.inner.malloc(size + pad, site)?;
        if pad > 0 {
            self.stats.pads_applied += 1;
            self.stats.bytes_padded += pad as u64;
            self.live_padded_bytes += pad as u64;
            self.stats.peak_padded_bytes = self.stats.peak_padded_bytes.max(self.live_padded_bytes);
        }
        Ok(ptr)
    }

    /// `correcting_free` (Fig. 6): look up the (alloc site, free site)
    /// deferral; either free now or park the pointer until its due time.
    /// With no patches loaded and nothing parked there is nothing to look
    /// up, and the call is the inner heap's `free` — one pointer
    /// resolution, not one here to find the allocation site and another
    /// below.
    fn free(&mut self, ptr: Addr, site: SiteHash) -> FreeOutcome {
        if self.patches.is_empty() && self.queue.is_empty() {
            // Every path below would end in this same call.
            return self.inner.free(ptr, site);
        }
        if self.queue.iter().any(|Reverse(e)| e.ptr == ptr) {
            // The application freed an object whose release is already
            // scheduled; like any double free, this is benign.
            return FreeOutcome::DoubleFreeIgnored;
        }
        let Some(alloc_site) = self.inner.alloc_site_of(ptr) else {
            return self.inner.free(ptr, site);
        };
        let pad = self.patches.pad_for(alloc_site) as u64;
        if pad > 0 {
            self.live_padded_bytes = self.live_padded_bytes.saturating_sub(pad);
        }
        let defer = self.patches.deferral_for(SitePair::new(alloc_site, site));
        if defer == 0 {
            return self.inner.free(ptr, site);
        }
        let due = self.inner.clock() + defer;
        let size = self.inner.usable_size(ptr).unwrap_or(0) as u64;
        self.queue.push(Reverse(DeferredFree {
            due,
            ptr,
            site,
            size,
        }));
        self.stats.frees_deferred += 1;
        self.stats.total_drag_bytes_ticks += size * defer;
        self.parked_bytes += size;
        self.stats.peak_deferred_bytes = self.stats.peak_deferred_bytes.max(self.parked_bytes);
        FreeOutcome::Deferred { until: due }
    }

    fn arena(&self) -> &Arena {
        self.inner.arena()
    }

    fn arena_mut(&mut self) -> &mut Arena {
        self.inner.arena_mut()
    }

    fn clock(&self) -> AllocTime {
        self.inner.clock()
    }

    fn usable_size(&self, ptr: Addr) -> Option<usize> {
        self.inner.usable_size(ptr)
    }

    fn alloc_site_of(&self, ptr: Addr) -> Option<SiteHash> {
        self.inner.alloc_site_of(ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_diehard::{DieHardConfig, DieHardHeap};

    const ALLOC_SITE: SiteHash = SiteHash::from_raw(0xA1);
    const FREE_SITE: SiteHash = SiteHash::from_raw(0xF1);

    fn heap_with(patches: PatchTable) -> CorrectingHeap<DieHardHeap> {
        CorrectingHeap::new(DieHardHeap::new(DieHardConfig::with_seed(5)), patches)
    }

    #[test]
    fn pads_enlarge_only_patched_sites() {
        let mut patches = PatchTable::new();
        patches.add_pad(ALLOC_SITE, 20);
        let mut h = heap_with(patches);
        let padded = h.malloc(16, ALLOC_SITE).unwrap();
        let plain = h.malloc(16, FREE_SITE).unwrap();
        // 16 + 20 = 36 → 64-byte class; unpatched stays in the 16-byte class.
        assert_eq!(h.usable_size(padded), Some(64));
        assert_eq!(h.usable_size(plain), Some(16));
        assert_eq!(h.stats().pads_applied, 1);
        assert_eq!(h.stats().bytes_padded, 20);
    }

    #[test]
    fn overflow_into_pad_is_contained() {
        let mut patches = PatchTable::new();
        patches.add_pad(ALLOC_SITE, 6);
        let mut h = heap_with(patches);
        let p = h.malloc(10, ALLOC_SITE).unwrap();
        // The application overflows 6 bytes past its requested 10: all
        // writes stay inside the padded slot.
        h.arena_mut().write_bytes(p, &[7u8; 16]).unwrap();
        assert_eq!(h.free(p, FREE_SITE), FreeOutcome::Freed);
    }

    #[test]
    fn matching_frees_are_deferred_until_due() {
        let mut patches = PatchTable::new();
        patches.add_deferral(SitePair::new(ALLOC_SITE, FREE_SITE), 3);
        let mut h = heap_with(patches);
        let p = h.malloc(16, ALLOC_SITE).unwrap();
        h.arena_mut().write_u64(p, 42).unwrap();
        let outcome = h.free(p, FREE_SITE);
        assert_eq!(
            outcome,
            FreeOutcome::Deferred {
                until: AllocTime::from_raw(4)
            }
        );
        // The "dangling" pointer still reads valid data...
        assert_eq!(h.arena().read_u64(p).unwrap(), 42);
        assert_eq!(h.deferred_len(), 1);
        // ...until 3 more allocations pass.
        h.malloc(16, FREE_SITE).unwrap(); // t2
        h.malloc(16, FREE_SITE).unwrap(); // t3
        assert_eq!(h.deferred_len(), 1, "not due yet");
        h.malloc(16, FREE_SITE).unwrap(); // t4 → due
        assert_eq!(h.deferred_len(), 0);
        assert_eq!(h.inner().live_objects(), 3);
    }

    #[test]
    fn non_matching_site_pairs_free_immediately() {
        let mut patches = PatchTable::new();
        patches.add_deferral(SitePair::new(ALLOC_SITE, FREE_SITE), 10);
        let mut h = heap_with(patches);
        let p = h.malloc(16, ALLOC_SITE).unwrap();
        // Freed from a different site: no deferral.
        assert_eq!(h.free(p, SiteHash::from_raw(0x99)), FreeOutcome::Freed);
        assert_eq!(h.deferred_len(), 0);
    }

    #[test]
    fn double_free_of_parked_pointer_is_benign() {
        let mut patches = PatchTable::new();
        patches.add_deferral(SitePair::new(ALLOC_SITE, FREE_SITE), 5);
        let mut h = heap_with(patches);
        let p = h.malloc(16, ALLOC_SITE).unwrap();
        assert!(h.free(p, FREE_SITE).accepted());
        assert_eq!(h.free(p, FREE_SITE), FreeOutcome::DoubleFreeIgnored);
        assert_eq!(h.deferred_len(), 1, "still parked exactly once");
    }

    #[test]
    fn hot_reload_applies_to_subsequent_allocations() {
        let mut h = heap_with(PatchTable::new());
        let before = h.malloc(16, ALLOC_SITE).unwrap();
        assert_eq!(h.usable_size(before), Some(16));
        let mut patches = PatchTable::new();
        patches.add_pad(ALLOC_SITE, 17);
        h.reload_patches(patches);
        let after = h.malloc(16, ALLOC_SITE).unwrap();
        assert_eq!(h.usable_size(after), Some(64), "patched on the fly");
    }

    #[test]
    fn drag_accounting_matches_paper_example() {
        // §6.2's example: one 256-byte object deferred for 4 deallocations…
        // here we check the bytes × ticks bookkeeping directly.
        let mut patches = PatchTable::new();
        patches.add_deferral(SitePair::new(ALLOC_SITE, FREE_SITE), 4);
        let mut h = heap_with(patches);
        let p = h.malloc(256, ALLOC_SITE).unwrap();
        h.free(p, FREE_SITE);
        assert_eq!(h.stats().frees_deferred, 1);
        assert_eq!(h.stats().total_drag_bytes_ticks, 256 * 4);
        assert_eq!(h.stats().peak_deferred_bytes, 256);
    }

    #[test]
    fn works_with_multiple_queued_deadlines() {
        let mut patches = PatchTable::new();
        patches.add_deferral(SitePair::new(ALLOC_SITE, FREE_SITE), 2);
        patches.add_deferral(SitePair::new(ALLOC_SITE, SiteHash::from_raw(0xF2)), 6);
        let mut h = heap_with(patches);
        let a = h.malloc(16, ALLOC_SITE).unwrap();
        let b = h.malloc(16, ALLOC_SITE).unwrap();
        h.free(a, FREE_SITE); // due t4
        h.free(b, SiteHash::from_raw(0xF2)); // due t8
        h.malloc(16, FREE_SITE).unwrap(); // t3
        h.malloc(16, FREE_SITE).unwrap(); // t4 → a released
        assert_eq!(h.deferred_len(), 1);
        for _ in 0..4 {
            h.malloc(16, FREE_SITE).unwrap(); // t5..t8 → b released
        }
        assert_eq!(h.deferred_len(), 0);
    }

    /// Forwards to a `DieHardHeap`, counting the calls that make it resolve
    /// a pointer to its slot (each of the three does so exactly once).
    struct CountingHeap {
        inner: DieHardHeap,
        resolutions: std::cell::Cell<usize>,
    }

    impl CountingHeap {
        fn resolved(&self) {
            self.resolutions.set(self.resolutions.get() + 1);
        }
    }

    impl Heap for CountingHeap {
        fn malloc(&mut self, size: usize, site: SiteHash) -> Result<Addr, HeapError> {
            self.inner.malloc(size, site)
        }

        fn free(&mut self, ptr: Addr, site: SiteHash) -> FreeOutcome {
            self.resolved();
            self.inner.free(ptr, site)
        }

        fn arena(&self) -> &Arena {
            self.inner.arena()
        }

        fn arena_mut(&mut self) -> &mut Arena {
            self.inner.arena_mut()
        }

        fn clock(&self) -> AllocTime {
            self.inner.clock()
        }

        fn usable_size(&self, ptr: Addr) -> Option<usize> {
            self.resolved();
            self.inner.usable_size(ptr)
        }

        fn alloc_site_of(&self, ptr: Addr) -> Option<SiteHash> {
            self.resolved();
            self.inner.alloc_site_of(ptr)
        }
    }

    fn counting_heap_with(patches: PatchTable) -> CorrectingHeap<CountingHeap> {
        let inner = CountingHeap {
            inner: DieHardHeap::new(DieHardConfig::with_seed(9)),
            resolutions: std::cell::Cell::new(0),
        };
        CorrectingHeap::new(inner, patches)
    }

    /// Resolutions the inner heap performed while `f` ran.
    fn resolutions_during<R>(
        h: &mut CorrectingHeap<CountingHeap>,
        f: impl FnOnce(&mut CorrectingHeap<CountingHeap>) -> R,
    ) -> (R, usize) {
        let before = h.inner().resolutions.get();
        let out = f(h);
        (out, h.inner().resolutions.get() - before)
    }

    #[test]
    fn empty_table_frees_resolve_the_pointer_once() {
        let mut h = counting_heap_with(PatchTable::new());
        let p = h.malloc(32, ALLOC_SITE).unwrap();
        for want in [
            FreeOutcome::Freed,
            FreeOutcome::DoubleFreeIgnored, // same pointer again
        ] {
            assert_eq!(
                resolutions_during(&mut h, |h| h.free(p, FREE_SITE)),
                (want, 1)
            );
        }
        assert_eq!(
            resolutions_during(&mut h, |h| h.free(p + 1, FREE_SITE)),
            (FreeOutcome::InvalidFreeIgnored, 1)
        );
    }

    #[test]
    fn deferred_frees_resolve_twice_to_park_and_once_to_release() {
        let mut patches = PatchTable::new();
        patches.add_deferral(SitePair::new(ALLOC_SITE, FREE_SITE), 1);
        let mut h = counting_heap_with(patches);
        let p = h.malloc(32, ALLOC_SITE).unwrap();
        // Parking needs the allocation site and the object's size.
        let (outcome, parked) = resolutions_during(&mut h, |h| h.free(p, FREE_SITE));
        assert!(matches!(outcome, FreeOutcome::Deferred { .. }));
        assert_eq!(parked, 2);
        // A parked pointer is recognised without asking the inner heap.
        assert_eq!(
            resolutions_during(&mut h, |h| h.free(p, FREE_SITE)),
            (FreeOutcome::DoubleFreeIgnored, 0)
        );
        // The release is the inner free and nothing else: the size was
        // recorded when the object was parked.
        let (_, released) = resolutions_during(&mut h, |h| h.malloc(32, FREE_SITE).unwrap());
        assert_eq!((released, h.deferred_len()), (1, 0));
        assert_eq!(h.stats().peak_deferred_bytes, 32);
    }

    #[test]
    fn emptied_table_still_honours_parked_pointers() {
        // The fast path keys on the table *and* the deferral queue:
        // reloading an empty table must not let a double free of a
        // still-parked object through to the inner heap.
        let mut patches = PatchTable::new();
        patches.add_deferral(SitePair::new(ALLOC_SITE, FREE_SITE), 3);
        let mut h = heap_with(patches);
        let p = h.malloc(16, ALLOC_SITE).unwrap();
        assert!(h.free(p, FREE_SITE).accepted());
        h.reload_patches(PatchTable::new());
        assert_eq!(h.free(p, FREE_SITE), FreeOutcome::DoubleFreeIgnored);
        assert_eq!(h.usable_size(p), Some(16), "parked object was released");
        let q = h.malloc(16, ALLOC_SITE).unwrap();
        assert_eq!(
            h.free(q, FREE_SITE),
            FreeOutcome::Freed,
            "table is empty now"
        );
    }

    #[test]
    fn unpatched_wrapper_is_transparent() {
        let mut h = CorrectingHeap::unpatched(DieHardHeap::new(DieHardConfig::with_seed(6)));
        let p = h.malloc(32, ALLOC_SITE).unwrap();
        assert_eq!(h.alloc_site_of(p), Some(ALLOC_SITE));
        assert_eq!(h.free(p, FREE_SITE), FreeOutcome::Freed);
        assert_eq!(h.stats(), CorrectionStats::default());
        let _ = h.into_inner();
    }
}
