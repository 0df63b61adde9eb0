//! Property tests for heap images: capture fidelity and serialization.

use proptest::prelude::*;

use xt_alloc::{Heap, ObjectId, Rng, SiteHash};
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_diehard::SlotState;
use xt_image::{scan_live_canary_corruptions, HeapImage};

/// Capture cannot fail here: the heap was only ever touched through the
/// allocator, so every miniheap it records is backed by its own arena.
fn capture(heap: &DieFastHeap) -> HeapImage {
    HeapImage::try_capture(heap).expect("the allocator mapped every miniheap this heap records")
}

/// Builds a heap with a random (seed-driven) history of `steps`
/// malloc/free/store steps.
fn churned_heap(seed: u64, steps: usize, fill_probability: f64) -> DieFastHeap {
    let mut heap =
        DieFastHeap::new(DieFastConfig::with_seed(seed).fill_probability(fill_probability));
    let mut rng = Rng::new(seed ^ 0x5EED);
    let mut live = Vec::new();
    for i in 0..steps {
        if !live.is_empty() && rng.chance(0.4) {
            let victim: xt_arena::Addr = live.swap_remove(rng.below_usize(live.len()));
            heap.free(victim, SiteHash::from_raw(0xF));
        } else {
            let size = 16 + rng.below_usize(200);
            let p = heap
                .malloc(size, SiteHash::from_raw(i as u32 % 13))
                .unwrap();
            heap.arena_mut().write_u64(p, i as u64).unwrap();
            live.push(p);
        }
    }
    heap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Binary encoding round-trips arbitrary heap states exactly,
    /// including the rebuilt object index.
    #[test]
    fn binary_round_trip(seed in 0u64..5000, steps in 10usize..150, p in 0.0f64..=1.0) {
        let heap = churned_heap(seed, steps, p);
        let image = capture(&heap);
        let decoded = HeapImage::from_bytes(&image.to_bytes()).unwrap();
        prop_assert_eq!(&decoded, &image);
        for id in 1..=steps as u64 {
            prop_assert_eq!(decoded.find_object(ObjectId::from_raw(id)), image.find_object(ObjectId::from_raw(id)));
        }
    }

    /// Every *live* object is findable by id (freed ids may vanish when
    /// their slot is recycled), and the index is consistent for every slot
    /// that ever held an object.
    #[test]
    fn capture_indexes_every_live_object(seed in 0u64..5000, steps in 10usize..120) {
        let heap = churned_heap(seed, steps, 1.0);
        let image = capture(&heap);
        for (r, slot) in image.live_objects() {
            prop_assert_eq!(image.find_object(slot.meta.object_id), Some(r));
        }
        for (_, slot) in image.slots() {
            if slot.meta.state != SlotState::Unused {
                let found = image.find_object(slot.meta.object_id).unwrap();
                prop_assert_eq!(image.slot(found).meta.object_id, slot.meta.object_id);
            }
        }
        prop_assert!(image.clock.raw() >= 1);
        let _ = ObjectId::from_raw(1);
    }

    /// Address resolution agrees with slot geometry for every slot.
    #[test]
    fn resolution_matches_geometry(seed in 0u64..5000, steps in 10usize..100) {
        let heap = churned_heap(seed, steps, 1.0);
        let image = capture(&heap);
        for (r, slot) in image.slots() {
            let base = image.slot_addr(r);
            let hit = image.resolve_addr(base).unwrap();
            prop_assert_eq!(hit.slot, r);
            prop_assert_eq!(hit.offset, 0);
            prop_assert_eq!(hit.object_id, slot.meta.object_id);
        }
    }

    /// A clean heap never shows canary corruption, at any fill rate.
    #[test]
    fn clean_heaps_scan_clean(seed in 0u64..5000, steps in 10usize..150, p in 0.0f64..=1.0) {
        let heap = churned_heap(seed, steps, p);
        let image = capture(&heap);
        prop_assert!(image.scan_canary_corruptions().is_empty());
    }

    /// Any single corrupted byte in a canaried slot is found by the scan
    /// with its exact location.
    #[test]
    fn scan_finds_planted_corruption(seed in 0u64..5000, offset in 0usize..16, flip in 1u8..=255) {
        let mut heap = DieFastHeap::new(DieFastConfig::with_seed(seed));
        let p = heap.malloc(16, SiteHash::from_raw(1)).unwrap();
        heap.free(p, SiteHash::from_raw(2));
        let original = heap.arena().read_u8(p + offset as u64).unwrap();
        heap.arena_mut().write_u8(p + offset as u64, original ^ flip).unwrap();
        let image = capture(&heap);
        let corruptions = image.scan_canary_corruptions();
        prop_assert_eq!(corruptions.len(), 1);
        prop_assert_eq!(corruptions[0].first_bad, offset);
        prop_assert_eq!(corruptions[0].n_bad, 1);
    }

    /// The live scan reads the standing heap and finds exactly what the
    /// image scan finds — same slots, same extents, same order — over
    /// churned heaps with seeded bytes overwritten anywhere in their
    /// slots (freed or live, canaried or not, partial words included).
    #[test]
    fn live_scan_equals_image_scan(
        seed in 0u64..5000,
        steps in 10usize..150,
        p in 0.0f64..=1.0,
        writes in 0usize..24,
    ) {
        let mut heap = churned_heap(seed, steps, p);
        let slots: Vec<(xt_arena::Addr, u32)> = {
            let image = capture(&heap);
            image
                .slots()
                .map(|(r, _)| (image.slot_addr(r), image.miniheap_of(r).object_size))
                .collect()
        };
        let mut rng = Rng::new(seed ^ 0xB17E);
        for _ in 0..writes {
            let (base, size) = slots[rng.below_usize(slots.len())];
            let at = base + rng.below(u64::from(size));
            heap.arena_mut().write_u8(at, rng.below(256) as u8).unwrap();
        }
        let live = scan_live_canary_corruptions(&heap).unwrap();
        prop_assert_eq!(live, capture(&heap).scan_canary_corruptions());
    }
}
