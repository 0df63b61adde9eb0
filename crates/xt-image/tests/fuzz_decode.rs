//! Corruption fuzzing for the heap-image decoder. Images replace core
//! dumps (§3.4): they are written to disk and shipped, so
//! `HeapImage::from_bytes` reads bytes it cannot trust. Encodings of real
//! churned heaps are truncated at many lengths and byte-mutated at seeded
//! positions, and the counts in the header are set to their maximum.
//! Every result must be `Ok` or an `ImageDecodeError` — never a panic,
//! never an abort — and an end-of-input error must point inside the
//! buffer.

use proptest::prelude::*;

use xt_alloc::{Heap, Rng, SiteHash};
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_diehard::SlotState;
use xt_image::{HeapImage, ImageDecodeError};

/// Offset of the miniheap count: after magic, version, clock, canary,
/// `p` and `M`.
const N_MINIHEAPS_AT: usize = 4 + 4 + 8 + 4 + 8 + 8;

/// Offset of the first miniheap's slot count: after the 4-byte miniheap
/// count, its class, index, base, object size and creation time.
const FIRST_N_SLOTS_AT: usize = N_MINIHEAPS_AT + 4 + 4 + 4 + 8 + 4 + 8;

/// The encoding of a heap after `steps` seeded malloc/free/store steps.
fn churned_image_bytes(seed: u64, steps: usize) -> Vec<u8> {
    let mut heap = DieFastHeap::new(DieFastConfig::with_seed(seed));
    let mut rng = Rng::new(seed ^ 0xF022);
    let mut live = Vec::new();
    for i in 0..steps {
        if !live.is_empty() && rng.chance(0.4) {
            heap.free(
                live.swap_remove(rng.below_usize(live.len())),
                SiteHash::from_raw(0xF),
            );
        } else {
            let p = heap
                .malloc(16 + rng.below_usize(200), SiteHash::from_raw(i as u32 % 13))
                .unwrap();
            heap.arena_mut().write_u64(p, i as u64).unwrap();
            live.push(p);
        }
    }
    HeapImage::try_capture(&heap)
        .expect("the allocator mapped every miniheap this heap records")
        .to_bytes()
}

/// `bytes` with the little-endian `u32` at `at` replaced by `value`.
fn with_u32(bytes: &[u8], at: usize, value: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + 4].copy_from_slice(&value.to_le_bytes());
    out
}

/// SplitMix64, for seeded corruption positions.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    xt_arena::splitmix_finalize(*state)
}

/// Truncation points to try: the first 128 lengths (every header field)
/// plus seeded samples of the rest — an image runs to kilobytes, and
/// every prefix of every case would be quadratic.
fn truncation_points(len: usize, seed: u64) -> Vec<usize> {
    let mut points: Vec<usize> = (0..len.min(128)).collect();
    if len > 128 {
        let mut state = seed;
        points.extend((0..96).map(|_| 128 + (splitmix(&mut state) as usize) % (len - 128)));
        points.push(len - 1);
    }
    points
}

/// Regression: 44 bytes — a valid 40-byte header announcing `u32::MAX`
/// miniheaps, then the first record's class — used to reserve room for
/// four billion records and abort the process. The same for a miniheap
/// announcing `u32::MAX` slots.
#[test]
fn hostile_counts_are_errors_not_aborts() {
    let bytes = churned_image_bytes(1, 40);
    let header = with_u32(&bytes[..N_MINIHEAPS_AT + 8], N_MINIHEAPS_AT, u32::MAX);
    assert_eq!(header.len(), 44);
    assert_eq!(
        HeapImage::from_bytes(&header),
        Err(ImageDecodeError::UnexpectedEof { at: 44 })
    );
    let first = with_u32(&bytes[..FIRST_N_SLOTS_AT + 4], FIRST_N_SLOTS_AT, u32::MAX);
    assert_eq!(
        HeapImage::from_bytes(&first),
        Err(ImageDecodeError::UnexpectedEof {
            at: FIRST_N_SLOTS_AT + 4
        })
    );
    // Maximal counts in front of a whole, real image are errors too.
    for at in [N_MINIHEAPS_AT, FIRST_N_SLOTS_AT] {
        assert!(HeapImage::from_bytes(&with_u32(&bytes, at, u32::MAX)).is_err());
    }
}

/// A slot's three header bytes spell one of five states; the other seven
/// triples the three former fields (state code, canary bit, ever-used
/// bit) could spell, and any byte outside them, are refused.
#[test]
fn slot_header_triples_decode_to_the_five_states() {
    let bytes = churned_image_bytes(3, 40);
    let at = FIRST_N_SLOTS_AT + 4;
    let with_triple = |triple: [u8; 3]| {
        let mut b = bytes.clone();
        b[at..at + 3].copy_from_slice(&triple);
        b
    };
    let legal = [
        ([0, 0, 0], SlotState::Unused),
        ([1, 0, 1], SlotState::Live),
        ([0, 0, 1], SlotState::Freed),
        ([0, 1, 1], SlotState::Canaried),
        ([2, 1, 1], SlotState::Bad),
    ];
    for (triple, state) in legal {
        let encoded = with_triple(triple);
        let image = HeapImage::from_bytes(&encoded).unwrap();
        assert_eq!(image.miniheaps[0].slots[0].meta.state, state);
        assert_eq!(image.to_bytes(), encoded, "{state:?} round-trips");
    }
    let spelled = (0..3).flat_map(|code| (0..4).map(move |bits| [code, bits >> 1, bits & 1]));
    let illegal: Vec<[u8; 3]> = spelled
        .filter(|t| legal.iter().all(|(l, _)| l != t))
        .collect();
    assert_eq!(illegal.len(), 7);
    for triple in illegal
        .into_iter()
        .chain([[3, 0, 1], [0, 2, 1], [1, 0, 2], [0xFF; 3]])
    {
        assert_eq!(
            HeapImage::from_bytes(&with_triple(triple)),
            Err(ImageDecodeError::BadField { field: "state" }),
            "{triple:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn images_round_trip(seed in 0u64..5000, steps in 1usize..80) {
        let bytes = churned_image_bytes(seed, steps);
        prop_assert_eq!(HeapImage::from_bytes(&bytes).unwrap().to_bytes(), bytes);
    }

    /// Every strict prefix is missing bytes the header announced.
    #[test]
    fn truncated_images_reject_at_end_of_input(
        seed in 0u64..5000,
        steps in 1usize..80,
        cut_seed in any::<u64>(),
    ) {
        let bytes = churned_image_bytes(seed, steps);
        for len in truncation_points(bytes.len(), cut_seed) {
            let result = HeapImage::from_bytes(&bytes[..len]);
            prop_assert!(
                matches!(result, Err(ImageDecodeError::UnexpectedEof { at }) if at <= len),
                "{len}-byte prefix: {result:?}"
            );
        }
    }

    /// Byte mutations may be accepted (a flipped bit in a slot's data or
    /// a clock is another valid image) or rejected, but never panic.
    #[test]
    fn mutated_images_never_panic(
        seed in 0u64..5000,
        steps in 1usize..80,
        mutation_seed in any::<u64>(),
    ) {
        let bytes = churned_image_bytes(seed, steps);
        let mut state = mutation_seed;
        for _ in 0..64 {
            let mut corrupt = bytes.clone();
            let pos = (splitmix(&mut state) as usize) % corrupt.len();
            corrupt[pos] ^= (splitmix(&mut state) % 255) as u8 + 1;
            if let Err(ImageDecodeError::UnexpectedEof { at }) = HeapImage::from_bytes(&corrupt) {
                prop_assert!(at <= corrupt.len(), "offset {at} past the buffer");
            }
        }
    }
}
