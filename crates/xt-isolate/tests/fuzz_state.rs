//! Corruption fuzzing for the cumulative state file. §3.4 stores each
//! run's statistics "in its patch file", so `CumulativeIsolator::from_text`
//! reads a file on disk it cannot trust — the one persisted input with no
//! checksum. Texts of real accumulated state (summaries of churned,
//! overflowed heaps) are round-tripped, cut at every length and
//! byte-mutated at seeded positions. Every result must be `Ok` or `Err` —
//! never a panic, never a hang — and whatever parses must re-serialise to
//! a text that parses to the same state.

use proptest::prelude::*;

use xt_alloc::{Heap, Rng, SiteHash};
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_diehard::SlotState;
use xt_isolate::cumulative::{summarize_heap, CumulativeConfig, CumulativeIsolator, Verdict};

/// The state text after `runs` summarised runs: each a seeded churn of a
/// history-tracking heap at p = 1/2, most with a freed canary overwritten,
/// half of them counted as failures.
fn real_state_text(seed: u64, runs: usize) -> String {
    let mut iso = CumulativeIsolator::new(CumulativeConfig::default());
    let mut rng = Rng::new(seed ^ 0x57A7E);
    for run in 0..runs as u64 {
        let mut heap = DieFastHeap::new(DieFastConfig::cumulative_with_seed(seed ^ run));
        let mut live = Vec::new();
        for i in 0..60u32 {
            if !live.is_empty() && rng.chance(0.4) {
                let victim = live.swap_remove(rng.below_usize(live.len()));
                heap.free(victim, SiteHash::from_raw(0xF0 + i % 3));
            } else {
                let size = 8 + rng.below_usize(40);
                live.push(heap.malloc(size, SiteHash::from_raw(i % 7)).unwrap());
            }
        }
        // An overflow's footprint: bytes written into a freed, canaried
        // slot.
        let canaried: Vec<_> = heap
            .inner()
            .miniheaps()
            .flat_map(|mh| {
                (0..mh.n_slots())
                    .filter(|&i| mh.meta(i).state == SlotState::Canaried)
                    .map(|i| mh.slot_addr(i))
            })
            .collect();
        if !canaried.is_empty() && rng.chance(0.8) {
            let at = canaried[rng.below_usize(canaried.len())] + rng.below(8);
            heap.arena_mut().write_bytes(at, &[0xEE; 6]).unwrap();
        }
        let log = heap
            .inner()
            .history()
            .expect("cumulative config tracks history");
        let summary = summarize_heap(&heap, log, rng.chance(0.5), 0.5)
            .expect("the allocator mapped every miniheap this heap records");
        iso.record_run(&summary);
    }
    iso.to_text()
}

/// Every verdict, with its ratio as bits.
fn verdict_bits(iso: &CumulativeIsolator) -> Vec<(u32, u64, bool, usize)> {
    let bits = |v: Verdict| (v.site.raw(), v.ratio.to_bits(), v.flagged, v.observations);
    iso.overflow_verdicts()
        .into_iter()
        .chain(iso.dangling_verdicts())
        .map(bits)
        .collect()
}

/// Whatever parses is canonical after one `to_text`: it parses again, to
/// the same text.
fn assert_reparses(iso: &CumulativeIsolator) {
    let text = iso.to_text();
    let again = CumulativeIsolator::from_text(&text).expect("own output parses");
    assert_eq!(again.to_text(), text);
}

/// SplitMix64, for seeded corruption positions.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    xt_arena::splitmix_finalize(*state)
}

/// Regressions, both reproduced on the parent. A 2^62-step integration
/// grid in `meta` used to spin in the likelihood integral on the first
/// verdict query (and, now that loading evaluates, would spin inside the
/// load);
/// a NaN prior constant turned `(c·N − 1).max(1)` into a threshold of 1,
/// so a single chance observation was flagged and patched.
#[test]
fn hostile_meta_lines_are_errors_not_hangs_or_patches() {
    let hostile = [
        "meta 1 1 10 4 4611686018427387904 0.5\noobs 00000bad 3fe0000000000000 1\n",
        "meta 1 1 10 NaN 512 0.5\noobs 00000bad 3fe0000000000000 1\npadhint 00000bad 64\n",
    ];
    for text in hostile {
        let start = std::time::Instant::now();
        let err = CumulativeIsolator::from_text(text).expect_err(text);
        assert!(err.contains("line 1"), "{err}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "rejecting {text:?} took {:?}",
            start.elapsed()
        );
    }
    // The same observation under the default configuration is fine, and
    // one chance-level observation flags nothing.
    let sane = "meta 1 1 10 4 512 0.5\noobs 00000bad 3fe0000000000000 1\npadhint 00000bad 64\n";
    let iso = CumulativeIsolator::from_text(sane).unwrap();
    assert!(iso.generate_patches().is_empty());
}

/// Each configuration field is range-checked on its own, and an `X` that
/// is not a probability is rejected like any malformed value.
#[test]
fn out_of_range_values_are_rejected() {
    for meta in [
        "meta 0 0 1 4 1 0.5",
        "meta 0 0 1 4 65537 0.5",
        "meta 0 0 1 0 512 0.5",
        "meta 0 0 1 -4 512 0.5",
        "meta 0 0 1 inf 512 0.5",
        "meta 0 0 1 4 512 0",
        "meta 0 0 1 4 512 1.5",
        "meta 0 0 1 4 512 NaN",
        "oobs 00000bad 7ff8000000000000 1",
        "dobs 00000bad bff0000000000000 0",
        "dobs 00000bad 4000000000000000 0",
    ] {
        assert!(CumulativeIsolator::from_text(meta).is_err(), "{meta}");
    }
    for meta in ["meta 0 0 1 4 2 1", "meta 0 0 1 0.5 65536 0.001"] {
        assert!(CumulativeIsolator::from_text(meta).is_ok(), "{meta}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Real state round-trips to the same text and the same verdict bits.
    #[test]
    fn state_texts_round_trip(seed in 0u64..5000, runs in 1usize..5) {
        let text = real_state_text(seed, runs);
        let iso = CumulativeIsolator::from_text(&text).unwrap();
        prop_assert_eq!(iso.to_text(), text.clone());
        let again = CumulativeIsolator::from_text(&iso.to_text()).unwrap();
        prop_assert_eq!(verdict_bits(&again), verdict_bits(&iso));
        prop_assert_eq!(again.generate_patches(), iso.generate_patches());
    }

    /// Every strict prefix parses or is rejected; a prefix that parses is
    /// canonical after one round trip.
    #[test]
    fn every_truncation_parses_or_errs(seed in 0u64..5000, runs in 1usize..4) {
        let text = real_state_text(seed, runs);
        for len in 0..text.len() {
            if let Ok(iso) = CumulativeIsolator::from_text(&text[..len]) {
                assert_reparses(&iso);
            }
        }
    }

    /// Byte mutations may be accepted (a flipped digit in a count or a
    /// site hash is another valid state) or rejected, but never panic.
    #[test]
    fn mutated_state_never_panics(
        seed in 0u64..5000,
        runs in 1usize..5,
        mutation_seed in any::<u64>(),
    ) {
        let text = real_state_text(seed, runs).into_bytes();
        let mut state = mutation_seed;
        for _ in 0..64 {
            let mut corrupt = text.clone();
            let pos = (splitmix(&mut state) as usize) % corrupt.len();
            corrupt[pos] ^= (splitmix(&mut state) % 255) as u8 + 1;
            if let Ok(iso) = CumulativeIsolator::from_text(&String::from_utf8_lossy(&corrupt)) {
                assert_reparses(&iso);
            }
        }
    }
}
