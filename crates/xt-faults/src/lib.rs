//! Seed-deterministic memory-error injection (paper §7.2).
//!
//! The paper evaluates Exterminator by injecting faults with "the fault
//! injector that accompanies the DieHard distribution": buffer overflows
//! and dangling-pointer errors triggered deterministically from a random
//! seed, so that the same seed produces the same error in every (re-)run —
//! the property iterative mode's replay depends on.
//!
//! [`FaultyHeap`] wraps any [`Heap`] and injects:
//!
//! * **Buffer overflows** — when the trigger allocation completes, the
//!   injector performs the buggy application's write: `delta` bytes
//!   starting immediately past the object's *requested* size. Unpatched,
//!   this tramples whatever the randomized layout put there; once the
//!   correcting allocator pads the site, the same write lands inside the
//!   enlarged object and is contained (which is how experiments verify
//!   patches).
//! * **Dangling frees** — the trigger allocation's object is freed
//!   `lag` allocations later through [`INJECTED_FREE_SITE`], while the
//!   application continues to use it. The application's own eventual free
//!   becomes a benign double free.
//!
//! Injection happens *between* the application and the allocator stack, so
//! pads and deferrals below observe exactly what they would observe from a
//! genuinely buggy program.

use std::fmt;

use xt_alloc::{AllocTime, FreeOutcome, Heap, HeapError, SiteHash};
use xt_arena::{Addr, Arena, MemFault, Rng};

/// The synthetic deallocation site of injected premature frees.
pub const INJECTED_FREE_SITE: SiteHash = SiteHash::from_raw(0xFA17_FEED);

/// What kind of error to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Write `delta` bytes of `fill` starting at the end of the trigger
    /// object's requested extent.
    BufferOverflow {
        /// Overflow length in bytes (the paper uses 4, 20, and 36).
        delta: u32,
        /// Byte value written (a stand-in for application data).
        fill: u8,
    },
    /// Free the trigger object `lag` allocations after its creation.
    DanglingFree {
        /// Allocations between creation and the premature free.
        lag: u64,
    },
}

/// A fault to inject: a kind plus the allocation ordinal that triggers it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// The error to inject.
    pub kind: FaultKind,
    /// Fires when the allocation with this clock value completes.
    pub trigger: AllocTime,
}

impl FaultSpec {
    /// Chooses a random trigger in `[lo, hi)` from `seed` — the same seed
    /// always yields the same fault, as with the DieHard injector.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[must_use]
    pub fn random(kind: FaultKind, seed: u64, lo: u64, hi: u64) -> Self {
        assert!(lo < hi, "empty trigger range");
        let mut rng = Rng::new(seed ^ 0xFA_u64.rotate_left(32));
        FaultSpec {
            kind,
            trigger: AllocTime::from_raw(lo + rng.below(hi - lo)),
        }
    }
}

/// A record of what the injector actually did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedEvent {
    /// The overflow write landed.
    OverflowWritten {
        /// Clock at the write.
        at: AllocTime,
        /// The overflowing object.
        culprit: Addr,
        /// First byte written.
        start: Addr,
        /// Bytes written.
        len: u32,
    },
    /// The overflow write faulted (ran off the miniheap) and the simulated
    /// process would have crashed; the fault is recorded, not swallowed.
    OverflowFaulted {
        /// Clock at the attempted write.
        at: AllocTime,
        /// The fault the write produced.
        fault: MemFault,
    },
    /// The premature free was issued.
    PrematureFree {
        /// Clock at the free.
        at: AllocTime,
        /// The object freed early.
        ptr: Addr,
        /// What the underlying allocator did with it.
        outcome: FreeOutcome,
    },
    /// The application freed the target before the premature free came
    /// due, so the injection was cancelled (a benign injector seed — the
    /// paper discards these).
    DanglingCancelled {
        /// Clock at the application's own free.
        at: AllocTime,
        /// The object that was freed normally.
        ptr: Addr,
    },
    /// The application's own (original) free of the dangled object was
    /// suppressed: a dangling bug *moves* a free earlier, it does not add
    /// a second one.
    AppFreeSuppressed {
        /// Clock at the suppressed free.
        at: AllocTime,
        /// The dangled object.
        ptr: Addr,
    },
}

impl fmt::Display for InjectedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InjectedEvent::OverflowWritten {
                at,
                culprit,
                start,
                len,
            } => write!(f, "overflow of {len}B from {culprit} at {start} ({at})"),
            InjectedEvent::OverflowFaulted { at, fault } => {
                write!(f, "overflow faulted at {at}: {fault}")
            }
            InjectedEvent::PrematureFree { at, ptr, outcome } => {
                write!(f, "premature free of {ptr} at {at} ({outcome:?})")
            }
            InjectedEvent::DanglingCancelled { at, ptr } => {
                write!(
                    f,
                    "dangling injection cancelled at {at} ({ptr} freed normally)"
                )
            }
            InjectedEvent::AppFreeSuppressed { at, ptr } => {
                write!(f, "application free of dangled {ptr} suppressed at {at}")
            }
        }
    }
}

/// A heap wrapper that injects one memory error per run.
///
/// # Example
///
/// ```
/// use xt_alloc::{AllocTime, Heap, SiteHash};
/// use xt_diehard::{DieHardConfig, DieHardHeap};
/// use xt_faults::{FaultKind, FaultSpec, FaultyHeap};
///
/// # fn main() -> Result<(), xt_alloc::HeapError> {
/// let spec = FaultSpec {
///     kind: FaultKind::BufferOverflow { delta: 6, fill: 0xEE },
///     trigger: AllocTime::from_raw(2),
/// };
/// let mut heap = FaultyHeap::new(DieHardHeap::new(DieHardConfig::with_seed(1)), Some(spec));
/// let _a = heap.malloc(16, SiteHash::from_raw(1))?; // clock 1: nothing
/// let _b = heap.malloc(16, SiteHash::from_raw(2))?; // clock 2: overflow!
/// assert_eq!(heap.events().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FaultyHeap<H> {
    inner: H,
    spec: Option<FaultSpec>,
    pending_free: Option<(Addr, AllocTime)>,
    /// Once the premature free has fired, the application's own free of
    /// this pointer is suppressed (the bug *moved* the free, §7.2).
    dangled: Option<Addr>,
    events: Vec<InjectedEvent>,
}

impl<H: Heap> FaultyHeap<H> {
    /// Wraps `inner`, injecting `spec` (or nothing if `None`).
    #[must_use]
    pub fn new(inner: H, spec: Option<FaultSpec>) -> Self {
        FaultyHeap {
            inner,
            spec,
            pending_free: None,
            dangled: None,
            events: Vec::new(),
        }
    }

    /// The wrapped heap.
    #[must_use]
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Mutable access to the wrapped heap.
    pub fn inner_mut(&mut self) -> &mut H {
        &mut self.inner
    }

    /// Consumes the wrapper, returning the inner heap.
    #[must_use]
    pub fn into_inner(self) -> H {
        self.inner
    }

    /// Everything the injector has done so far.
    #[must_use]
    pub fn events(&self) -> &[InjectedEvent] {
        &self.events
    }

    /// The configured fault.
    #[must_use]
    pub fn spec(&self) -> Option<FaultSpec> {
        self.spec
    }

    fn fire_dangling_if_due(&mut self) {
        let now = self.inner.clock();
        if let Some((ptr, due)) = self.pending_free {
            if now >= due {
                let outcome = self.inner.free(ptr, INJECTED_FREE_SITE);
                self.events.push(InjectedEvent::PrematureFree {
                    at: now,
                    ptr,
                    outcome,
                });
                self.pending_free = None;
                self.dangled = Some(ptr);
            }
        }
    }
}

impl<H: Heap> Heap for FaultyHeap<H> {
    fn malloc(&mut self, size: usize, site: SiteHash) -> Result<Addr, HeapError> {
        let ptr = self.inner.malloc(size, site)?;
        let now = self.inner.clock();
        match self.spec {
            Some(FaultSpec {
                kind: FaultKind::BufferOverflow { delta, fill },
                trigger,
            }) if now == trigger => {
                // The buggy write: `delta` bytes past the requested end.
                let start = ptr + size as u64;
                let bytes = vec![fill; delta as usize];
                match self.inner.arena_mut().write_bytes(start, &bytes) {
                    Ok(()) => self.events.push(InjectedEvent::OverflowWritten {
                        at: now,
                        culprit: ptr,
                        start,
                        len: delta,
                    }),
                    Err(fault) => self
                        .events
                        .push(InjectedEvent::OverflowFaulted { at: now, fault }),
                }
            }
            Some(FaultSpec {
                kind: FaultKind::DanglingFree { lag },
                trigger,
            }) if now == trigger => {
                self.pending_free = Some((ptr, now + lag));
            }
            _ => {}
        }
        self.fire_dangling_if_due();
        Ok(ptr)
    }

    fn free(&mut self, ptr: Addr, site: SiteHash) -> FreeOutcome {
        let now = self.inner.clock();
        // The app freed the target before the injection came due: cancel
        // the injection (benign seed) and free normally.
        if self.pending_free.is_some_and(|(p, _)| p == ptr) {
            self.pending_free = None;
            self.events
                .push(InjectedEvent::DanglingCancelled { at: now, ptr });
            return self.inner.free(ptr, site);
        }
        // The app's original free of the dangled object: suppressed, since
        // the injected bug *moved* this free earlier.
        if self.dangled == Some(ptr) {
            self.dangled = None;
            self.events
                .push(InjectedEvent::AppFreeSuppressed { at: now, ptr });
            return FreeOutcome::Freed;
        }
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
        self.inner.usable_size(ptr)
    }

    fn alloc_site_of(&self, ptr: Addr) -> Option<SiteHash> {
        self.inner.alloc_site_of(ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_diehard::{DieHardConfig, DieHardHeap, SlotState};

    const SITE: SiteHash = SiteHash::from_raw(0x11);

    fn heap(spec: Option<FaultSpec>) -> FaultyHeap<DieHardHeap> {
        FaultyHeap::new(DieHardHeap::new(DieHardConfig::with_seed(7)), spec)
    }

    #[test]
    fn no_spec_is_transparent() {
        let mut h = heap(None);
        let p = h.malloc(16, SITE).unwrap();
        assert_eq!(h.free(p, SITE), FreeOutcome::Freed);
        assert!(h.events().is_empty());
    }

    #[test]
    fn overflow_fires_exactly_once_at_trigger() {
        let spec = FaultSpec {
            kind: FaultKind::BufferOverflow {
                delta: 4,
                fill: 0xEE,
            },
            trigger: AllocTime::from_raw(3),
        };
        let mut h = heap(Some(spec));
        let mut ptrs = Vec::new();
        for _ in 0..10 {
            ptrs.push(h.malloc(16, SITE).unwrap());
        }
        let events = h.events();
        assert_eq!(events.len(), 1);
        match events[0] {
            InjectedEvent::OverflowWritten {
                at, culprit, len, ..
            } => {
                assert_eq!(at, AllocTime::from_raw(3));
                assert_eq!(culprit, ptrs[2]);
                assert_eq!(len, 4);
                // The bytes really are in the next slot.
                assert_eq!(h.arena().read_bytes(ptrs[2] + 16, 4).unwrap(), &[0xEE; 4]);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn overflow_at_miniheap_edge_faults_without_corruption() {
        // A huge delta shoots past the miniheap's mapped region: the event
        // records the fault (the simulated app would crash).
        let spec = FaultSpec {
            kind: FaultKind::BufferOverflow {
                delta: 1 << 20,
                fill: 1,
            },
            trigger: AllocTime::from_raw(1),
        };
        let mut h = heap(Some(spec));
        h.malloc(16, SITE).unwrap();
        assert!(matches!(
            h.events()[0],
            InjectedEvent::OverflowFaulted { .. }
        ));
    }

    #[test]
    fn dangling_free_fires_after_lag() {
        let spec = FaultSpec {
            kind: FaultKind::DanglingFree { lag: 5 },
            trigger: AllocTime::from_raw(2),
        };
        let mut h = heap(Some(spec));
        let mut ptrs = Vec::new();
        for _ in 0..6 {
            ptrs.push(h.malloc(16, SITE).unwrap());
        }
        assert!(h.events().is_empty(), "not due until clock 7");
        let _ = h.malloc(16, SITE).unwrap(); // clock 7
        let events = h.events();
        assert_eq!(
            events[0],
            InjectedEvent::PrematureFree {
                at: AllocTime::from_raw(7),
                ptr: ptrs[1],
                outcome: FreeOutcome::Freed,
            }
        );
        // The victim slot really is free now.
        let loc = h.inner().location_of(ptrs[1]).unwrap();
        assert_eq!(h.inner().meta(loc).state, SlotState::Freed);
        assert_eq!(h.inner().meta(loc).free_site, INJECTED_FREE_SITE);
        // The app's own (original) free is suppressed — the bug moved it
        // earlier; it must never free a recycled slot out from under a new
        // owner.
        let before = h.inner().live_objects();
        assert_eq!(h.free(ptrs[1], SITE), FreeOutcome::Freed);
        assert_eq!(h.inner().live_objects(), before, "suppressed free acted");
        assert!(matches!(
            h.events().last(),
            Some(InjectedEvent::AppFreeSuppressed { .. })
        ));
    }

    #[test]
    fn app_free_before_due_cancels_injection() {
        let spec = FaultSpec {
            kind: FaultKind::DanglingFree { lag: 50 },
            trigger: AllocTime::from_raw(1),
        };
        let mut h = heap(Some(spec));
        let p = h.malloc(16, SITE).unwrap();
        // The app frees the target before the injection comes due.
        assert_eq!(h.free(p, SITE), FreeOutcome::Freed);
        assert!(matches!(
            h.events().last(),
            Some(InjectedEvent::DanglingCancelled { .. })
        ));
        // Time passes; the cancelled injection must never fire.
        for _ in 0..100 {
            h.malloc(16, SITE).unwrap();
        }
        assert!(!h
            .events()
            .iter()
            .any(|e| matches!(e, InjectedEvent::PrematureFree { .. })));
    }

    #[test]
    fn random_spec_is_deterministic_per_seed() {
        let kind = FaultKind::DanglingFree { lag: 10 };
        let a = FaultSpec::random(kind, 42, 100, 5000);
        let b = FaultSpec::random(kind, 42, 100, 5000);
        let c = FaultSpec::random(kind, 43, 100, 5000);
        assert_eq!(a, b);
        assert_ne!(a.trigger, c.trigger);
        assert!(a.trigger >= AllocTime::from_raw(100));
        assert!(a.trigger < AllocTime::from_raw(5000));
    }

    #[test]
    #[should_panic(expected = "empty trigger range")]
    fn random_spec_validates_range() {
        let _ = FaultSpec::random(FaultKind::DanglingFree { lag: 1 }, 1, 5, 5);
    }
}
