//! Property tests for the DieHard allocator's invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;

use xt_alloc::{FreeOutcome, Heap, Rng, SiteHash};
use xt_arena::Addr;
use xt_diehard::{
    class_object_size, size_class_of, DieHardConfig, DieHardHeap, SlotRef, SlotState,
};

/// The address lookup's reference semantics, rebuilt from the heap's
/// public miniheap list: a `BTreeMap` from base to extent, a range query
/// for the last base at or below the address, and a divide for the slot.
struct LookupModel {
    /// base → (end, object size, class, miniheap ordinal).
    extents: BTreeMap<u64, (u64, u64, usize, usize)>,
}

impl LookupModel {
    fn of(heap: &DieHardHeap) -> Self {
        let extents = heap
            .miniheaps()
            .map(|mh| {
                let id = mh.id();
                (
                    mh.base().get(),
                    (
                        mh.end().get(),
                        mh.object_size() as u64,
                        id.class as usize,
                        id.index as usize,
                    ),
                )
            })
            .collect();
        LookupModel { extents }
    }

    /// `(class, miniheap, slot, offset within the slot)` of `addr`.
    fn containing(&self, addr: u64) -> Option<(usize, usize, usize, u64)> {
        let (&base, &(end, size, class, index)) = self.extents.range(..=addr).next_back()?;
        (addr < end).then(|| {
            (
                class,
                index,
                ((addr - base) / size) as usize,
                (addr - base) % size,
            )
        })
    }

    /// Addresses worth asking about: around every miniheap's first slot,
    /// a middle slot, its end and the guard gap beyond it, plus a few
    /// anywhere in the address space.
    fn probes(&self, rng: &mut Rng) -> Vec<u64> {
        let mut probes = vec![0, 1, u64::MAX / 2];
        if let Some((&first, _)) = self.extents.iter().next() {
            probes.extend([first - 1, first - 4096, first / 2]);
        }
        for (&base, &(end, size, _, _)) in &self.extents {
            let slots = (end - base) / size;
            let mid = base + rng.below(slots) * size;
            probes.extend([
                base,
                base + 1,
                base + size - 1,
                base + size,
                mid,
                mid + 1 + rng.below(size - 1),
                end - size,
                end - 1,
                end,
                end + 1,
                end + 4095,
                end + 4096,
            ]);
        }
        probes.extend((0..32).map(|_| rng.below(1 << 47)));
        probes
    }
}

fn as_tuple(loc: SlotRef) -> (usize, usize, usize) {
    (loc.class(), loc.miniheap_index(), loc.slot())
}

/// A randomized malloc/free script.
#[derive(Clone, Debug)]
enum Op {
    Malloc(usize),
    FreeNth(usize),
    DoubleFreeNth(usize),
    WildFree(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..512).prop_map(Op::Malloc),
        (0usize..64).prop_map(Op::FreeNth),
        (0usize..64).prop_map(Op::DoubleFreeNth),
        (0u64..u64::MAX / 2).prop_map(Op::WildFree),
    ]
}

/// A script over the whole slot lifecycle: the four transitions, driven
/// through the heap's public calls.
#[derive(Clone, Debug)]
enum LifeOp {
    Malloc(usize),
    FreeNth(usize),
    DoubleFreeNth(usize),
    /// Canary the nth `Freed` slot, as DieFast's free does.
    CanaryNth(usize),
    /// Reserve a slot; retire it if it is `Canaried` (as DieFast does on a
    /// corrupt canary), commit it otherwise.
    ReserveRetire(usize),
}

fn life_op_strategy() -> impl Strategy<Value = LifeOp> {
    prop_oneof![
        (1usize..64).prop_map(LifeOp::Malloc),
        (0usize..64).prop_map(LifeOp::FreeNth),
        (0usize..64).prop_map(LifeOp::DoubleFreeNth),
        (0usize..64).prop_map(LifeOp::CanaryNth),
        (1usize..64).prop_map(LifeOp::ReserveRetire),
    ]
}

/// Every slot's state, keyed by its base address.
fn slot_states(heap: &DieHardHeap) -> BTreeMap<u64, SlotState> {
    heap.miniheaps()
        .flat_map(|mh| (0..mh.n_slots()).map(move |i| (mh.slot_addr(i).get(), mh.meta(i).state)))
        .collect()
}

/// `from → to` is one of the four transitions (or no change).
fn is_transition(from: SlotState, to: SlotState) -> bool {
    use SlotState::{Bad, Canaried, Freed, Live, Unused};
    from == to
        || matches!(
            (from, to),
            (Unused | Freed | Canaried, Live) | (Live, Freed) | (Freed, Canaried) | (Canaried, Bad)
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under arbitrary scripts: live objects never alias, data written to
    /// one object is never visible in another, occupancy respects the 1/M
    /// bound, and invalid/double frees are always benign.
    #[test]
    fn allocator_invariants_hold(seed in 0u64..10_000, ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let site = SiteHash::from_raw(1);
        let mut live: Vec<(Addr, usize, u64)> = Vec::new();
        let mut freed: Vec<Addr> = Vec::new();
        let mut stamp = 0u64;

        for op in ops {
            match op {
                Op::Malloc(size) => {
                    let ptr = heap.malloc(size, site).unwrap();
                    // No overlap with any live object.
                    for &(other, other_size, _) in &live {
                        let sep = ptr >= other + class_object_size(size_class_of(other_size)) as u64
                            || other >= ptr + class_object_size(size_class_of(size)) as u64;
                        prop_assert!(sep, "objects alias: {ptr} vs {other}");
                    }
                    stamp += 1;
                    heap.arena_mut().write_u64(ptr, stamp).unwrap();
                    if size >= 16 {
                        heap.arena_mut().write_u64(ptr + (size - 8) as u64, stamp).unwrap();
                    }
                    live.push((ptr, size, stamp));
                }
                Op::FreeNth(n) => {
                    if live.is_empty() { continue; }
                    let (ptr, _, _) = live.swap_remove(n % live.len());
                    prop_assert_eq!(heap.free(ptr, site), FreeOutcome::Freed);
                    freed.push(ptr);
                }
                Op::DoubleFreeNth(n) => {
                    if freed.is_empty() { continue; }
                    let ptr = freed[n % freed.len()];
                    // Slot may have been reused; either way the heap
                    // survives and live data stays intact (checked below).
                    let _ = heap.free(ptr, site);
                    live.retain(|&(p, _, _)| p != ptr);
                }
                Op::WildFree(raw) => {
                    // Wild frees never free a live object out from under us
                    // unless they happen to hit an exact live base (the
                    // allocator cannot distinguish that from a real free).
                    let addr = Addr::new(raw);
                    if live.iter().all(|&(p, _, _)| p != addr) {
                        let out = heap.free(addr, site);
                        prop_assert!(
                            out == FreeOutcome::InvalidFreeIgnored
                                || out == FreeOutcome::DoubleFreeIgnored,
                            "wild free was honoured: {out:?}"
                        );
                    }
                }
            }
            // Occupancy bound: every class stays within 1/M (+1 slot).
            prop_assert!(
                heap.total_occupied() as f64 * 2.0 <= heap.total_capacity() as f64 + 2.0,
                "over-occupied: {}/{}", heap.total_occupied(), heap.total_capacity()
            );
        }
        // All live data still intact at the end.
        for &(ptr, size, stamp) in &live {
            prop_assert_eq!(heap.arena().read_u64(ptr).unwrap(), stamp);
            if size >= 16 {
                prop_assert_eq!(heap.arena().read_u64(ptr + (size - 8) as u64).unwrap(), stamp);
            }
        }
        prop_assert_eq!(heap.live_objects(), live.len());
    }

    /// The same seed and script always produce the same addresses
    /// (replay determinism — the foundation of iterative mode).
    #[test]
    fn identical_seeds_replay_identically(seed in 0u64..10_000, sizes in proptest::collection::vec(1usize..256, 1..60)) {
        let mut a = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let mut b = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let site = SiteHash::from_raw(2);
        for &size in &sizes {
            prop_assert_eq!(a.malloc(size, site).unwrap(), b.malloc(size, site).unwrap());
        }
    }

    /// Two different seeds rarely agree on placement (full randomization).
    #[test]
    fn different_seeds_place_differently(seed in 0u64..10_000) {
        let mut a = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let mut b = DieHardHeap::new(DieHardConfig::with_seed(seed ^ 0xFFFF_FFFF));
        let site = SiteHash::from_raw(3);
        let same = (0..32)
            .filter(|_| a.malloc(16, site).unwrap() == b.malloc(16, site).unwrap())
            .count();
        prop_assert!(same < 4, "{same}/32 identical placements across seeds");
    }

    /// `location_of` / `location_containing` agree with the `BTreeMap`
    /// model on every probe — below the first base, exact slot bases,
    /// interior pointers, exactly at a miniheap's `end()`, inside the guard
    /// gap after it, anywhere else — and keep agreeing as classes grow and
    /// new miniheaps land between, below and above the old ones.
    #[test]
    fn address_lookup_matches_btreemap_model(
        seed in 0u64..10_000,
        growth in proptest::collection::vec((1usize..3000, 1usize..120), 2..7),
    ) {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let mut rng = Rng::new(seed ^ 0xA11C);
        let site = SiteHash::from_raw(5);
        let mut miniheaps = 0;
        for (size, count) in growth {
            for _ in 0..count {
                heap.malloc(size, site).unwrap();
            }
            let model = LookupModel::of(&heap);
            prop_assert!(model.extents.len() >= miniheaps, "miniheaps are never removed");
            miniheaps = model.extents.len();
            for addr in model.probes(&mut rng) {
                let want = model.containing(addr);
                prop_assert_eq!(
                    heap.location_containing(Addr::new(addr)).map(as_tuple),
                    want.map(|(class, index, slot, _)| (class, index, slot)),
                    "location_containing({:#x})", addr
                );
                prop_assert_eq!(
                    heap.location_of(Addr::new(addr)).map(as_tuple),
                    want.filter(|w| w.3 == 0).map(|(class, index, slot, _)| (class, index, slot)),
                    "location_of({:#x})", addr
                );
            }
        }
        prop_assert!(miniheaps >= 2, "script grew nothing");
    }

    /// Object ids equal the allocation ordinal regardless of script.
    #[test]
    fn object_ids_are_ordinals(seed in 0u64..10_000, n in 1usize..80) {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let site = SiteHash::from_raw(4);
        let mut rng = Rng::new(seed);
        let mut ptrs = Vec::new();
        for i in 1..=n as u64 {
            let ptr = heap.malloc(16 + rng.below_usize(64), site).unwrap();
            let loc = heap.location_of(ptr).unwrap();
            prop_assert_eq!(heap.meta(loc).object_id.raw(), i);
            ptrs.push(ptr);
            if rng.chance(0.3) {
                let victim = ptrs.swap_remove(rng.below_usize(ptrs.len()));
                heap.free(victim, site);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under seeded scripts of malloc, free, double free, canary and
    /// reserve-then-retire over a small heap, each step moves every slot
    /// by one of the four transitions or leaves it alone: `Unused` is never
    /// re-entered and `Bad` is terminal.
    #[test]
    fn slot_states_change_only_by_the_four_transitions(
        seed in 0u64..10_000,
        ops in proptest::collection::vec(life_op_strategy(), 1..160),
    ) {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(seed).initial_slots(4));
        let site = SiteHash::from_raw(7);
        let mut live: Vec<Addr> = Vec::new();
        let mut freed: Vec<Addr> = Vec::new();
        let mut before = slot_states(&heap);
        let mut retired = 0;
        for op in ops {
            match op {
                LifeOp::Malloc(size) => live.push(heap.malloc(size, site).unwrap()),
                LifeOp::FreeNth(n) => {
                    if live.is_empty() { continue; }
                    let ptr = live.swap_remove(n % live.len());
                    prop_assert_eq!(heap.free(ptr, site), FreeOutcome::Freed);
                    freed.push(ptr);
                }
                LifeOp::DoubleFreeNth(n) => {
                    if freed.is_empty() { continue; }
                    let ptr = freed[n % freed.len()];
                    if heap.free(ptr, site) == FreeOutcome::Freed {
                        live.retain(|&p| p != ptr);
                    }
                }
                LifeOp::CanaryNth(n) => {
                    let candidates: Vec<u64> = before
                        .iter()
                        .filter(|&(_, &state)| state == SlotState::Freed)
                        .map(|(&addr, _)| addr)
                        .collect();
                    if candidates.is_empty() { continue; }
                    let loc = heap.location_of(Addr::new(candidates[n % candidates.len()])).unwrap();
                    heap.canary_slot(loc);
                }
                LifeOp::ReserveRetire(size) => {
                    let reserved = heap.reserve_slot(size).unwrap();
                    if reserved.canaried {
                        heap.retire_reserved(reserved.loc);
                        retired += 1;
                    } else {
                        live.push(heap.commit_slot(reserved.loc, size, site));
                    }
                }
            }
            let after = slot_states(&heap);
            prop_assert!(after.len() >= before.len(), "slots are never unmapped");
            for (addr, &to) in &after {
                let from = before.get(addr).copied().unwrap_or(SlotState::Unused);
                prop_assert!(is_transition(from, to), "slot {addr:#x}: {from:?} -> {to:?}");
            }
            before = after;
        }
        let bad = before.values().filter(|&&s| s == SlotState::Bad).count();
        prop_assert_eq!(bad, retired);
    }
}

/// DieHard's placement is uniform over a class's free slots — the premise
/// Theorems 1–3 stand on. (The golden allocator transcripts pin that
/// placement did not *move*; this pins that it is *uniform*.)
///
/// Each seed runs the same script: 48 16-byte mallocs grow class 0 to two
/// miniheaps (32 + 64 slots), then every third object is freed, leaving
/// 64 free slots spread over both. The next `reserve_slot`'s rank among
/// those free slots, in address order, must be uniform on 0..64. The
/// miniheaps sit at seed-dependent addresses, so address order mixes the
/// two. 3200 seeds give 50 expected hits per rank; the statistic over 64
/// ranks has 63 degrees of freedom, whose p = 0.001 critical value is
/// 103.44. Seeds are fixed, so the test is deterministic.
#[test]
fn placement_is_uniform_over_free_slots() {
    const SEEDS: u64 = 3200;
    const FREE: usize = 64;
    const CRITICAL: f64 = 103.44; // chi-square, 63 df, p = 0.001
    let site = SiteHash::from_raw(6);
    let mut hits = [0u32; FREE];
    for seed in 0..SEEDS {
        let mut heap = DieHardHeap::new(DieHardConfig::with_seed(seed));
        let ptrs: Vec<Addr> = (0..48).map(|_| heap.malloc(16, site).unwrap()).collect();
        for &p in ptrs.iter().step_by(3) {
            assert_eq!(heap.free(p, site), FreeOutcome::Freed);
        }
        assert_eq!(
            heap.miniheaps_of_class(0).count(),
            2,
            "script grew no second miniheap"
        );
        let mut free: Vec<Addr> = heap
            .miniheaps_of_class(0)
            .flat_map(|mh| {
                (0..mh.n_slots())
                    .filter(|&i| !mh.bitmap().get(i))
                    .map(|i| mh.slot_addr(i))
            })
            .collect();
        free.sort_unstable();
        assert_eq!(free.len(), FREE);
        let next = heap.reserve_slot(16).unwrap();
        assert_eq!(heap.location_of(next.addr), Some(next.loc));
        let rank = free
            .binary_search(&next.addr)
            .expect("reserve_slot handed out a slot that was not free");
        hits[rank] += 1;
    }
    let expected = SEEDS as f64 / FREE as f64;
    let chi2: f64 = hits
        .iter()
        .map(|&h| (f64::from(h) - expected).powi(2) / expected)
        .sum();
    assert!(
        chi2 < CRITICAL,
        "placement rank is not uniform: chi-square {chi2:.2} >= {CRITICAL} (hits {hits:?})"
    );
}
