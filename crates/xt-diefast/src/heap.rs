//! The DieFast heap: DieHard plus canary-based error detection.

use xt_alloc::{AllocTime, FreeOutcome, Heap, HeapError, SiteHash};
use xt_arena::{Addr, Arena, Rng};
use xt_diehard::{DieHardHeap, MiniHeap, SlotRef, SlotState};

use crate::{DieFastConfig, ErrorSignal, SignalKind};

/// The probabilistic debugging allocator of paper Fig. 4.
///
/// Wraps a [`DieHardHeap`] and implements [`Heap`], so workloads cannot tell
/// it apart from any other allocator — except that memory errors now get
/// *noticed*: canary corruption discovered during `malloc`/`free` is
/// recorded as an [`ErrorSignal`] for the runtime to poll via
/// [`DieFastHeap::take_signals`].
#[derive(Debug)]
pub struct DieFastHeap {
    inner: DieHardHeap,
    /// Random canary, low bit set (§3.3 "Random Canaries").
    canary: u32,
    fill_probability: f64,
    zero_fill: bool,
    /// RNG for canary-fill coin flips, independent of placement randomness.
    coin: Rng,
    signals: Vec<ErrorSignal>,
    halt_on_signal: bool,
}

impl DieFastHeap {
    /// Creates a DieFast heap.
    #[must_use]
    pub fn new(config: DieFastConfig) -> Self {
        DieFastHeap::with_arena(config, Arena::new())
    }

    /// Creates a DieFast heap over a donated (typically recycled) address
    /// space — see [`DieHardHeap::with_arena`]. Identical behaviour to
    /// [`DieFastHeap::new`], minus the per-run translation-structure
    /// allocations.
    #[must_use]
    pub fn with_arena(config: DieFastConfig, arena: Arena) -> Self {
        // Independent streams for placement vs. canary decisions: both are
        // derived from the seed, so runs remain reproducible.
        let mut seeder = Rng::new(config.heap.seed ^ 0xD1EF_A57D_1EFA_57D1);
        let canary = seeder.next_u32() | 1;
        let coin = seeder.fork();
        DieFastHeap {
            inner: DieHardHeap::with_arena(config.heap.clone(), arena),
            canary,
            fill_probability: config.fill_probability,
            zero_fill: config.zero_fill,
            coin,
            signals: Vec::new(),
            halt_on_signal: false,
        }
    }

    /// Consumes the wrapper, returning the underlying DieHard heap (from
    /// which [`DieHardHeap::into_arena`] recovers the arena for reuse).
    #[must_use]
    pub fn into_inner(self) -> DieHardHeap {
        self.inner
    }

    /// When enabled, the first error signal stops the run: the next
    /// `malloc` fails with [`HeapError::Breakpoint`] so the runtime can
    /// dump a heap image at the detection point. This is how iterative
    /// mode is "initially invoked via a command-line option that directs
    /// it to stop as soon as it detects an error" (§3.4). Replays disable
    /// it and rely on the malloc breakpoint instead.
    pub fn set_halt_on_signal(&mut self, halt: bool) {
        self.halt_on_signal = halt;
    }

    /// This execution's canary value. Random per seed, low bit always set.
    #[must_use]
    pub fn canary(&self) -> u32 {
        self.canary
    }

    /// The canary fill probability `p`.
    #[must_use]
    pub fn fill_probability(&self) -> f64 {
        self.fill_probability
    }

    /// Drains and returns all pending error signals.
    pub fn take_signals(&mut self) -> Vec<ErrorSignal> {
        std::mem::take(&mut self.signals)
    }

    /// `true` if undelivered signals are pending.
    #[must_use]
    pub fn has_signals(&self) -> bool {
        !self.signals.is_empty()
    }

    /// The wrapped DieHard heap (metadata, miniheaps, history).
    #[must_use]
    pub fn inner(&self) -> &DieHardHeap {
        &self.inner
    }

    /// Arms or disarms the malloc breakpoint (see
    /// [`DieHardHeap::set_breakpoint`]).
    pub fn set_breakpoint(&mut self, at: Option<AllocTime>) {
        self.inner.set_breakpoint(at);
    }

    /// Checks whether the canary bytes of the slot at `loc` are intact.
    ///
    /// The whole slot is compared against the repeating canary pattern in
    /// one bulk word-at-a-time arena operation; any mismatching byte means
    /// an overflow or a dangling write landed here.
    #[must_use]
    pub fn canary_intact(&self, loc: SlotRef) -> bool {
        let mh: &MiniHeap = self.inner.miniheap(loc);
        let addr = mh.slot_addr(loc.slot());
        let size = mh.object_size();
        self.inner
            .arena()
            .compare_pattern(addr, size, self.canary)
            .expect("slot memory is always mapped")
            .is_none()
    }

    fn signal(&mut self, kind: SignalKind, loc: SlotRef) {
        let addr = self.inner.slot_addr(loc);
        let meta = self.inner.meta(loc);
        self.signals.push(ErrorSignal {
            kind,
            addr,
            object_id: meta.object_id,
            clock: self.inner.clock(),
        });
    }
}

impl Heap for DieFastHeap {
    /// `diefast_malloc` (Fig. 4): reserve a slot, verify its canary while
    /// the previous occupant's metadata is still intact, and on corruption
    /// retire the slot (*bad object isolation*) and take another — without
    /// consuming a new object id, so ids keep matching across replicas.
    fn malloc(&mut self, size: usize, site: SiteHash) -> Result<Addr, HeapError> {
        if self.halt_on_signal && !self.signals.is_empty() {
            return Err(HeapError::Breakpoint {
                at: self.inner.clock(),
            });
        }
        loop {
            let slot = self.inner.reserve_slot(size)?;
            // "Check if the object wasn't canary-filled or is uncorrupted" —
            // and zero it for the application in the same pass over the
            // slot, which leaves a corrupted slot untouched as evidence.
            let expect = slot.canaried.then_some(self.canary);
            let mismatch = if self.zero_fill {
                self.inner
                    .arena_mut()
                    .check_and_fill(slot.addr, slot.size, expect, 0)
            } else {
                expect.map_or(Ok(None), |canary| {
                    self.inner
                        .arena()
                        .compare_pattern(slot.addr, slot.size, canary)
                })
            };
            if mismatch.expect("slot memory is always mapped").is_none() {
                return Ok(self.inner.commit_slot(slot.loc, size, site));
            }
            // "If not: mark allocated; signal error."
            self.signal(SignalKind::CanaryCorruptedOnAlloc, slot.loc);
            self.inner.retire_reserved(slot.loc);
        }
    }

    /// `diefast_free` (Fig. 4): free, canary-check both physically adjacent
    /// slots, then probabilistically canary the freed object itself.
    fn free(&mut self, ptr: Addr, site: SiteHash) -> FreeOutcome {
        let loc = match self.inner.free_slot(ptr, site) {
            Ok(loc) => loc,
            Err(ignored) => return ignored,
        };
        // "After every deallocation, DieFast checks both the preceding and
        // following objects" — if they are canaried, their canaries must be
        // intact; corruption here is the signature of an overflow from a
        // neighbour, detected immediately upon deallocation.
        let (prev, next) = self.inner.neighbors(loc);
        for neighbor in [prev, next].into_iter().flatten() {
            if self.inner.meta(neighbor).state == SlotState::Canaried
                && !self.canary_intact(neighbor)
            {
                self.signal(SignalKind::CanaryCorruptedOnFree, neighbor);
            }
        }
        // "Probabilistically fill with canary." `free_slot` only resolves
        // exact slot bases, so `ptr` is the slot's address.
        if self.coin.chance(self.fill_probability) {
            let size = self.inner.miniheap(loc).object_size();
            let canary = self.canary;
            self.inner
                .arena_mut()
                .fill_pattern_u32(ptr, size, canary)
                .expect("slot memory is always mapped");
            self.inner.canary_slot(loc);
        }
        FreeOutcome::Freed
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
    use xt_alloc::ObjectId;

    const SITE: SiteHash = SiteHash::from_raw(0x51);

    fn heap(seed: u64) -> DieFastHeap {
        DieFastHeap::new(DieFastConfig::with_seed(seed))
    }

    #[test]
    fn canary_has_low_bit_set_and_varies_by_seed() {
        let canaries: Vec<u32> = (0..8).map(|s| heap(s).canary()).collect();
        assert!(canaries.iter().all(|c| c & 1 == 1));
        let mut unique = canaries.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(unique.len() >= 7, "canaries should differ across seeds");
    }

    #[test]
    fn allocations_are_zero_filled() {
        let mut h = heap(1);
        let p = h.malloc(64, SITE).unwrap();
        assert_eq!(h.arena().read_bytes(p, 64).unwrap(), &[0u8; 64][..]);
    }

    #[test]
    fn freed_objects_are_canaried_at_p_one() {
        let mut h = heap(2);
        let p = h.malloc(32, SITE).unwrap();
        h.free(p, SITE);
        let loc = h.inner().location_of(p).unwrap();
        assert_eq!(h.inner().meta(loc).state, SlotState::Canaried);
        assert!(h.canary_intact(loc));
        assert_eq!(h.arena().read_u32(p).unwrap(), h.canary());
    }

    #[test]
    fn fill_probability_zero_never_canaries() {
        let mut h = DieFastHeap::new(DieFastConfig::with_seed(3).fill_probability(0.0));
        for _ in 0..32 {
            let p = h.malloc(16, SITE).unwrap();
            h.free(p, SITE);
            let loc = h.inner().location_of(p).unwrap();
            assert_eq!(h.inner().meta(loc).state, SlotState::Freed);
        }
    }

    #[test]
    fn fill_probability_half_is_a_coin() {
        let mut h = DieFastHeap::new(DieFastConfig::with_seed(4).fill_probability(0.5));
        let mut canaried = 0;
        for _ in 0..400 {
            let p = h.malloc(16, SITE).unwrap();
            let loc = h.inner().location_of(p).unwrap();
            h.free(p, SITE);
            if h.inner().meta(loc).state == SlotState::Canaried {
                canaried += 1;
            }
        }
        assert!((140..260).contains(&canaried), "canaried {canaried}/400");
    }

    #[test]
    fn overflow_into_canary_detected_on_realloc() {
        // Free an object (canarying it), corrupt the canary directly, then
        // allocate until the slot is probed again: DieFast must signal and
        // retire the slot.
        let mut h = heap(5);
        let p = h.malloc(16, SITE).unwrap();
        h.free(p, SITE);
        h.arena_mut().write_u8(p + 3, 0xEE).unwrap();
        let mut signalled = false;
        for _ in 0..200 {
            let q = h.malloc(16, SITE).unwrap();
            assert_ne!(q, p, "corrupt slot must never be handed out");
            if h.has_signals() {
                signalled = true;
                break;
            }
        }
        assert!(signalled, "corruption went unnoticed for 200 allocations");
        let signals = h.take_signals();
        assert_eq!(signals[0].kind, SignalKind::CanaryCorruptedOnAlloc);
        assert_eq!(signals[0].addr, p);
        // Evidence is preserved: the corrupted byte is still there.
        assert_eq!(h.arena().read_u8(p + 3).unwrap(), 0xEE);
        let loc = h.inner().location_of(p).unwrap();
        assert_eq!(h.inner().meta(loc).state, SlotState::Bad);
    }

    #[test]
    fn bad_object_isolation_preserves_object_ids() {
        // Detection plus retry must not consume an object id: allocate two
        // heaps with the same workload, corrupt a canary in one of them, and
        // check ids still line up afterwards.
        let mut clean = heap(6);
        let mut dirty = heap(6);
        let p = dirty.malloc(16, SITE).unwrap();
        let pc = clean.malloc(16, SITE).unwrap();
        dirty.free(p, SITE);
        clean.free(pc, SITE);
        dirty.arena_mut().write_u8(p, 0x77).unwrap();
        for _ in 0..100 {
            let a = clean.malloc(16, SITE).unwrap();
            let b = dirty.malloc(16, SITE).unwrap();
            let ia = clean
                .inner()
                .meta(clean.inner().location_of(a).unwrap())
                .object_id;
            let ib = dirty
                .inner()
                .meta(dirty.inner().location_of(b).unwrap())
                .object_id;
            assert_eq!(ia, ib, "object ids diverged after bad-object isolation");
        }
    }

    #[test]
    fn neighbor_corruption_detected_on_free() {
        // Allocate three logically adjacent slots, free the middle one
        // (canary), overflow into it from the left neighbour, then free the
        // left neighbour: the free-time neighbour check must fire.
        let mut h = heap(7);
        // Allocate many objects, find three physically adjacent live ones.
        let ptrs: Vec<Addr> = (0..24).map(|_| h.malloc(16, SITE).unwrap()).collect();
        let mut sorted = ptrs.clone();
        sorted.sort();
        let triple = sorted
            .windows(3)
            .find(|w| w[1] - w[0] == 16 && w[2] - w[1] == 16)
            .map(|w| (w[0], w[1], w[2]));
        let Some((left, middle, _right)) = triple else {
            // Randomized layout produced no adjacent triple; extremely
            // unlikely at 50% occupancy of a 32+ slot miniheap.
            panic!("no physically adjacent triple found");
        };
        h.free(middle, SITE);
        // Overflow 4 bytes out of `left` into `middle`'s canary.
        h.arena_mut().write_u32(left + 16, 0x4242_4242).unwrap();
        h.free(left, SITE);
        let signals = h.take_signals();
        assert!(
            signals
                .iter()
                .any(|s| s.kind == SignalKind::CanaryCorruptedOnFree && s.addr == middle),
            "free-time neighbour check missed the overflow: {signals:?}"
        );
    }

    #[test]
    fn no_false_positives_on_clean_churn() {
        let mut h = heap(8);
        let mut rng = Rng::new(99);
        let mut live: Vec<(Addr, usize)> = Vec::new();
        for _ in 0..3000 {
            if !live.is_empty() && rng.chance(0.5) {
                let (p, size) = live.swap_remove(rng.below_usize(live.len()));
                // Write the object fully before freeing: canary collisions
                // with real data must not fire.
                h.arena_mut().fill(p, size, rng.next_u32() as u8).unwrap();
                h.free(p, SITE);
            } else {
                let size = 16 + rng.below_usize(100);
                let p = h.malloc(size, SITE).unwrap();
                live.push((p, size));
            }
        }
        assert!(
            !h.has_signals(),
            "clean workload raised signals: {:?}",
            h.take_signals()
        );
    }

    #[test]
    fn dangling_write_detected_when_slot_reused() {
        let mut h = heap(9);
        let p = h.malloc(48, SITE).unwrap();
        h.free(p, SITE);
        // Dangling write through the stale pointer corrupts the canary.
        h.arena_mut().write_u64(p + 8, 0x1bad_b002).unwrap();
        // Sooner or later the allocator probes that slot.
        let mut detected = false;
        for _ in 0..200 {
            h.malloc(48, SITE).unwrap();
            if h.has_signals() {
                detected = true;
                break;
            }
        }
        assert!(detected, "dangling overwrite never detected");
        let s = h.take_signals();
        assert_eq!(s[0].object_id, ObjectId::from_raw(1));
    }

    #[test]
    fn breakpoint_passthrough() {
        let mut h = heap(10);
        h.set_breakpoint(Some(AllocTime::from_raw(2)));
        h.malloc(16, SITE).unwrap();
        h.malloc(16, SITE).unwrap();
        assert!(matches!(
            h.malloc(16, SITE),
            Err(HeapError::Breakpoint { .. })
        ));
    }

    #[test]
    fn halt_on_signal_stops_at_detection() {
        let mut h = heap(20);
        // Corrupt the canaries of several freed slots (guaranteed byte
        // mismatch), so a random probe detects one quickly.
        let corrupt = h.canary().to_le_bytes()[0] ^ 0xFF;
        let slots: Vec<Addr> = (0..8).map(|_| h.malloc(16, SITE).unwrap()).collect();
        for p in slots {
            h.free(p, SITE);
            h.arena_mut().write_u8(p, corrupt).unwrap();
        }
        h.take_signals(); // discard detections from the setup itself
        h.set_halt_on_signal(true);
        // Allocate until detection; the malloc after it must halt.
        let mut halted = false;
        for _ in 0..500 {
            match h.malloc(16, SITE) {
                Ok(_) => {}
                Err(HeapError::Breakpoint { .. }) => {
                    halted = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(halted, "halt_on_signal never fired");
        assert!(h.has_signals());
        // Disabling it lets execution continue.
        h.set_halt_on_signal(false);
        h.malloc(16, SITE).unwrap();
    }

    #[test]
    fn same_seed_same_canary_and_layout() {
        let mut a = heap(11);
        let mut b = heap(11);
        assert_eq!(a.canary(), b.canary());
        for _ in 0..32 {
            assert_eq!(a.malloc(16, SITE).unwrap(), b.malloc(16, SITE).unwrap());
        }
    }
}
