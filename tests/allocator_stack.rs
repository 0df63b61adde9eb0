//! Integration tests of the full allocator stack — fault injector over
//! correcting allocator over DieFast over DieHard over the arena —
//! exercising interactions no single crate's unit tests can reach.

use xt_alloc::{AllocTime, FreeOutcome, Heap, SiteHash, SitePair};
use xt_correct::CorrectingHeap;
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_faults::{FaultKind, FaultSpec, FaultyHeap, INJECTED_FREE_SITE};
use xt_patch::PatchTable;

const SITE: SiteHash = SiteHash::from_raw(0x57AC);

type FullStack = FaultyHeap<CorrectingHeap<DieFastHeap>>;

fn stack(seed: u64, patches: PatchTable, fault: Option<FaultSpec>) -> FullStack {
    let diefast = DieFastHeap::new(DieFastConfig::with_seed(seed));
    FaultyHeap::new(CorrectingHeap::new(diefast, patches), fault)
}

#[test]
fn padded_site_contains_injected_overflow_through_the_whole_stack() {
    // An overflow injected *above* the correcting allocator lands inside
    // the pad the correcting allocator added *below* — the full mitigation
    // path, end to end.
    let fault = FaultSpec {
        kind: FaultKind::BufferOverflow {
            delta: 16,
            fill: 0xAB,
        },
        trigger: AllocTime::from_raw(1),
    };
    let mut patches = PatchTable::new();
    patches.add_pad(SITE, 16);
    let mut s = stack(1, patches, Some(fault));
    let p = s.malloc(16, SITE).unwrap(); // 16 + 16 pad → 32-byte slot
                                         // The injector wrote [16, 32): inside the padded slot.
    assert_eq!(s.arena().read_bytes(p + 16, 16).unwrap(), &[0xAB; 16]);
    // No canary corruption anywhere: allocate a lot and expect no signals.
    for _ in 0..200 {
        let q = s.malloc(16, SITE).unwrap();
        s.free(q, SITE);
    }
    assert!(
        !s.inner_mut().inner_mut().has_signals(),
        "padded overflow still corrupted the heap"
    );
}

#[test]
fn unpadded_overflow_is_detected_through_the_whole_stack() {
    let fault = FaultSpec {
        kind: FaultKind::BufferOverflow {
            delta: 16,
            fill: 0xAB,
        },
        // Fire once the class has churned: Theorem 2's detection term
        // assumes freed (canaried) fence-posts exist, which takes ~100
        // allocations of alloc/free traffic to establish.
        trigger: AllocTime::from_raw(150),
    };
    // Across several seeds, the same stack WITHOUT the pad must detect the
    // corruption in a near-majority of runs.
    let mut detected = 0;
    for seed in 0..8 {
        let mut s = stack(seed, PatchTable::new(), Some(fault));
        // Three frees per surviving object: most free slots end up
        // canaried, giving the per-run detection probability the theorem
        // promises.
        let mut live = Vec::new();
        for i in 0..300u64 {
            let q = s.malloc(16, SITE).unwrap();
            if i % 4 == 0 {
                live.push(q);
            } else {
                s.free(q, SITE);
            }
        }
        for q in live {
            s.free(q, SITE);
        }
        if s.inner_mut().inner_mut().has_signals() {
            detected += 1;
        }
    }
    assert!(
        detected >= 4,
        "only {detected}/8 stacks detected the overflow"
    );
}

#[test]
fn deferral_neutralizes_injected_dangling_free_through_the_stack() {
    let fault = FaultSpec {
        kind: FaultKind::DanglingFree { lag: 3 },
        trigger: AllocTime::from_raw(2),
    };
    let mut patches = PatchTable::new();
    patches.add_deferral(SitePair::new(SITE, INJECTED_FREE_SITE), 1_000_000);
    let mut s = stack(3, patches, Some(fault));
    let _a = s.malloc(16, SITE).unwrap();
    let b = s.malloc(16, SITE).unwrap(); // trigger object (clock 2)
    s.arena_mut().write_u64(b, 0x5AFE).unwrap();
    for _ in 0..50 {
        let q = s.malloc(16, SITE).unwrap();
        s.free(q, SITE);
    }
    // The injected free fired but was deferred: the object's data is
    // still intact and no canary was written over it.
    assert_eq!(s.arena().read_u64(b).unwrap(), 0x5AFE);
    assert!(!s.inner_mut().inner_mut().has_signals());
}

#[test]
fn hot_reload_fixes_a_live_process() {
    // §3.4: "subsequent allocations in the same process will be patched
    // on-the-fly without interrupting execution."
    let mut s = stack(4, PatchTable::new(), None);
    let before = s.malloc(16, SITE).unwrap();
    assert_eq!(s.usable_size(before), Some(16));
    let mut patches = PatchTable::new();
    patches.add_pad(SITE, 20);
    s.inner_mut().reload_patches(patches);
    let after = s.malloc(16, SITE).unwrap();
    assert_eq!(
        s.usable_size(after),
        Some(64),
        "pad not applied after reload"
    );
    // Pre-reload objects still free cleanly.
    assert_eq!(s.free(before, SITE), FreeOutcome::Freed);
}

#[test]
fn breakpoint_propagates_through_all_layers() {
    let mut s = stack(5, PatchTable::new(), None);
    s.inner_mut()
        .inner_mut()
        .set_breakpoint(Some(AllocTime::from_raw(3)));
    for _ in 0..3 {
        s.malloc(16, SITE).unwrap();
    }
    assert!(matches!(
        s.malloc(16, SITE),
        Err(xt_alloc::HeapError::Breakpoint { .. })
    ));
}

#[test]
fn clocks_agree_across_layers() {
    // The allocation clock is the coordinate system for breakpoints,
    // deferrals, and injections; every layer must report the same one.
    let mut s = stack(6, PatchTable::new(), None);
    for _ in 0..17 {
        s.malloc(24, SITE).unwrap();
    }
    let top = s.clock();
    let mid = s.inner().clock();
    let bottom = s.inner().inner().clock();
    assert_eq!(top, AllocTime::from_raw(17));
    assert_eq!(top, mid);
    assert_eq!(mid, bottom);
}

#[test]
fn alloc_site_survives_all_wrappers() {
    let mut s = stack(7, PatchTable::new(), None);
    let p = s.malloc(48, SITE).unwrap();
    assert_eq!(s.alloc_site_of(p), Some(SITE));
    assert_eq!(s.inner().alloc_site_of(p), Some(SITE));
    s.free(p, SITE);
    assert_eq!(s.alloc_site_of(p), None, "freed object still has a site");
}

#[test]
fn deferred_objects_survive_heavy_pressure() {
    // Parked objects must never be handed out again while deferred, even
    // under allocation pressure in their size class.
    let mut patches = PatchTable::new();
    let free_site = SiteHash::from_raw(0xF2EE);
    patches.add_deferral(SitePair::new(SITE, free_site), 500);
    let mut s = stack(8, patches, None);
    let mut parked = Vec::new();
    for i in 0..20u64 {
        let p = s.malloc(16, SITE).unwrap();
        s.arena_mut().write_u64(p, 0xD00D_0000 + i).unwrap();
        assert!(matches!(s.free(p, free_site), FreeOutcome::Deferred { .. }));
        parked.push((p, 0xD00D_0000 + i));
    }
    // Pressure: hundreds of allocations in the same class.
    for _ in 0..300 {
        let q = s.malloc(16, SiteHash::from_raw(1)).unwrap();
        assert!(
            parked.iter().all(|&(p, _)| p != q),
            "parked object reallocated"
        );
        s.free(q, SiteHash::from_raw(1));
    }
    for (p, tag) in &parked {
        assert_eq!(s.arena().read_u64(*p).unwrap(), *tag, "drag data lost");
    }
}

// ---------------------------------------------------------------------
// Allocator-level determinism pin.
//
// Slot placement, the canary coin's draw order, signal order and the
// correcting allocator's bookkeeping are observable behaviour: replicas
// and replays only line up because the same seed and the same calls give
// the same heap. Everything above the allocator pins that indirectly
// (pool digests); this transcript pins it at the `Heap` boundary, so a
// refactor of the malloc/free path that reorders one RNG draw fails here
// with the stack's name instead of in a pool digest three layers up.
//
// The constants were captured by running this exact test against the
// parent of the PR that introduced it (one resolution per free, fused
// check-and-zero); they are equal before and after it, and after the
// arena's dirty-page tracking was deleted.
// ---------------------------------------------------------------------

/// What the transcript needs beyond [`Heap`] from each stack under test.
trait Transcribed: Heap {
    /// Error signals raised since the last call (none below DieFast).
    fn drain_signals(&mut self) -> Vec<xt_diefast::ErrorSignal> {
        Vec::new()
    }

    /// Folds the stack's end state: live-object count, then whatever the
    /// layers above DieHard can report (stats, history, the heap image).
    fn fold_end_state(&self, fold: &mut Fold);
}

/// A running FNV-1a 64 over little-endian words.
struct Fold(u64);

impl Fold {
    fn word(&mut self, v: u64) {
        self.0 = xt_arena::fnv1a_64(self.0, &v.to_le_bytes());
    }

    fn bytes(&mut self, v: &[u8]) {
        self.word(v.len() as u64);
        self.0 = xt_arena::fnv1a_64(self.0, v);
    }
}

impl Transcribed for xt_diehard::DieHardHeap {
    fn fold_end_state(&self, fold: &mut Fold) {
        fold.word(self.live_objects() as u64);
        fold.word(self.total_occupied() as u64);
        fold.word(self.total_capacity() as u64);
    }
}

impl Transcribed for DieFastHeap {
    fn drain_signals(&mut self) -> Vec<xt_diefast::ErrorSignal> {
        self.take_signals()
    }

    fn fold_end_state(&self, fold: &mut Fold) {
        self.inner().fold_end_state(fold);
        for rec in self.inner().history().into_iter().flat_map(|h| h.records()) {
            fold.word(rec.id.raw());
            fold.word((u64::from(rec.miniheap.class) << 32) | u64::from(rec.miniheap.index));
            fold.word(u64::from(rec.slot));
            match rec.free {
                None => fold.word(0),
                Some(free) => {
                    fold.word(1 + u64::from(free.canaried));
                    fold.word(u64::from(free.free_site.raw()));
                    fold.word(free.free_time.raw());
                }
            }
        }
        let image = xt_image::HeapImage::try_capture(self).expect("well-formed heap");
        fold.bytes(&image.to_bytes());
    }
}

impl Transcribed for CorrectingHeap<DieFastHeap> {
    fn drain_signals(&mut self) -> Vec<xt_diefast::ErrorSignal> {
        self.inner_mut().take_signals()
    }

    fn fold_end_state(&self, fold: &mut Fold) {
        let stats = self.stats();
        for v in [
            self.deferred_len() as u64,
            stats.pads_applied,
            stats.bytes_padded,
            stats.peak_padded_bytes,
            stats.frees_deferred,
            stats.total_drag_bytes_ticks,
            stats.peak_deferred_bytes,
        ] {
            fold.word(v);
        }
        self.inner().fold_end_state(fold);
    }
}

const TRANSCRIPT_ALLOC_SITES: u32 = 48;
const TRANSCRIPT_FREE_SITES: u32 = 8;

fn transcript_alloc_site(i: u32) -> SiteHash {
    SiteHash::from_raw(0xA000 + i)
}

fn transcript_free_site(i: u32) -> SiteHash {
    SiteHash::from_raw(0xF000 + i)
}

/// 32 pads and 32 deferrals over the script's own sites, so a good share
/// of its mallocs are padded and of its frees parked.
fn transcript_patch_table() -> PatchTable {
    let mut patches = PatchTable::new();
    for i in 0..32 {
        patches.add_pad(transcript_alloc_site(i), 1 + (i * 7) % 40);
        patches.add_deferral(
            SitePair::new(
                transcript_alloc_site(16 + i),
                transcript_free_site(i % TRANSCRIPT_FREE_SITES),
            ),
            1 + u64::from(i * 5 % 50),
        );
    }
    assert_eq!(patches.len(), 64);
    patches
}

/// Drives the fixed 5000-op churn script over `heap` and returns the fold
/// of everything the heap said back.
fn churn_transcript<H: Transcribed>(heap: &mut H) -> u64 {
    let mut rng = xt_arena::Rng::new(0x7A5C_21B7);
    let mut fold = Fold(xt_arena::FNV1A_64_BASIS);
    let mut live: Vec<xt_arena::Addr> = Vec::new();
    let mut freed: Vec<xt_arena::Addr> = Vec::new();
    for _ in 0..5000 {
        let roll = rng.below(1000);
        if roll < 450 && !live.is_empty() {
            // Plain free of a random live object; one in sixteen is then
            // written through the stale pointer (a guaranteed canary
            // mismatch wherever the slot was canaried), so retire-and-retry
            // and the free-time neighbour check both run.
            let ptr = live.swap_remove(rng.below_usize(live.len()));
            let site = transcript_free_site(rng.below(u64::from(TRANSCRIPT_FREE_SITES)) as u32);
            fold_outcome(&mut fold, heap.free(ptr, site));
            if rng.below(16) == 0 {
                let at = ptr + rng.below(16);
                let byte = heap.arena().read_u8(at).expect("freed slot stays mapped");
                heap.arena_mut().write_u8(at, !byte).expect("mapped");
            }
            freed.push(ptr);
        } else if roll < 460 && !freed.is_empty() {
            // Double free (the slot may have been reused since).
            let ptr = freed[rng.below_usize(freed.len())];
            let outcome = heap.free(ptr, transcript_free_site(0));
            fold_outcome(&mut fold, outcome);
            if outcome.accepted() {
                live.retain(|&p| p != ptr);
            }
        } else if roll < 470 && !live.is_empty() {
            // Interior pointer into a live object.
            let ptr = live[rng.below_usize(live.len())];
            fold_outcome(
                &mut fold,
                heap.free(ptr + 1 + rng.below(8), transcript_free_site(1)),
            );
        } else if roll < 480 {
            // Wild pointer: anywhere in the 47-bit space.
            let wild = xt_arena::Addr::new(rng.below(1 << 47));
            if !live.contains(&wild) {
                fold_outcome(&mut fold, heap.free(wild, transcript_free_site(2)));
            }
        } else {
            let size = 1 + rng.below_usize(2000);
            let site = transcript_alloc_site(rng.below(u64::from(TRANSCRIPT_ALLOC_SITES)) as u32);
            match heap.malloc(size, site) {
                Ok(ptr) => {
                    fold.word(ptr.get());
                    fold.word(heap.usable_size(ptr).expect("fresh object is live") as u64);
                    // Fresh memory is part of the contract too (zero-fill
                    // above DieFast, whatever was there below it).
                    let first = heap.arena().read_u8(ptr).expect("mapped");
                    fold.word(u64::from(first));
                    heap.arena_mut()
                        .fill(ptr, size, rng.next_u32() as u8)
                        .expect("object memory is mapped");
                    live.push(ptr);
                }
                Err(e) => panic!("churn script malloc failed: {e}"),
            }
        }
        for s in heap.drain_signals() {
            fold.word(match s.kind {
                xt_diefast::SignalKind::CanaryCorruptedOnAlloc => 1,
                xt_diefast::SignalKind::CanaryCorruptedOnFree => 2,
            });
            fold.word(s.addr.get());
            fold.word(s.object_id.raw());
            fold.word(s.clock.raw());
        }
    }
    fold.word(heap.clock().raw());
    heap.fold_end_state(&mut fold);
    fold.0
}

fn fold_outcome(fold: &mut Fold, outcome: FreeOutcome) {
    match outcome {
        FreeOutcome::Freed => fold.word(1),
        FreeOutcome::DoubleFreeIgnored => fold.word(2),
        FreeOutcome::InvalidFreeIgnored => fold.word(3),
        FreeOutcome::Deferred { until } => {
            fold.word(4);
            fold.word(until.raw());
        }
    }
}

#[test]
fn allocator_transcripts_match_golden_constants() {
    const SEED: u64 = 0x5EED_0017;
    let transcripts = [
        (
            "DieHardHeap",
            churn_transcript(&mut xt_diehard::DieHardHeap::new(
                xt_diehard::DieHardConfig::with_seed(SEED),
            )),
        ),
        (
            "DieFastHeap p=1",
            churn_transcript(&mut DieFastHeap::new(DieFastConfig::with_seed(SEED))),
        ),
        (
            "DieFastHeap p=0.5 (cumulative: history on)",
            churn_transcript(&mut DieFastHeap::new(DieFastConfig::cumulative_with_seed(
                SEED,
            ))),
        ),
        (
            "CorrectingHeap<DieFastHeap>, empty table",
            churn_transcript(&mut CorrectingHeap::new(
                DieFastHeap::new(DieFastConfig::with_seed(SEED)),
                PatchTable::new(),
            )),
        ),
        (
            "CorrectingHeap<DieFastHeap>, 64-entry pad+deferral table",
            churn_transcript(&mut CorrectingHeap::new(
                DieFastHeap::new(DieFastConfig::with_seed(SEED)),
                transcript_patch_table(),
            )),
        ),
    ];
    let golden: [u64; 5] = [
        0xaad8_2c14_fc01_b3eb,
        0xef90_234f_4fa0_9d5c,
        0xa409_a257_181f_9237,
        0x6c61_0907_4bb0_051c,
        0x9587_df6f_af2b_c114,
    ];
    let mismatches: Vec<String> = transcripts
        .iter()
        .zip(golden)
        .filter(|((_, got), want)| got != want)
        .map(|((name, got), want)| format!("{name}: got {got:#018x}, golden {want:#018x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "allocator transcripts moved:\n{}",
        mismatches.join("\n")
    );
}
