//! Property tests for the simulated address space.
//!
//! Besides direct invariants, these tests pin the page-table/TLB arena to
//! the *observable semantics* of the original `BTreeMap` implementation:
//! a naive reference model (linear scan over `(base, bytes)` pairs) is
//! driven in lockstep through random map/unmap/access interleavings, and
//! every result — data read, fault classification (`Unmapped` vs
//! `OutOfBounds`), all-or-nothing writes, guard-page faults — must agree.
//! The scripts go out of their way to hit what could make a cached
//! translation stale: regions whose pages collide in the 256-entry TLB,
//! unmap followed by a remap of the same page, and `reset`.

use proptest::prelude::*;

use xt_arena::{Addr, Arena, MemFault, Rng, PAGE_SIZE};

/// The reference semantics: a flat list of regions, searched linearly.
#[derive(Default)]
struct ModelArena {
    regions: Vec<(u64, Vec<u8>)>,
}

/// What the model says an access should observe.
#[derive(Debug, PartialEq, Eq)]
enum ModelAccess {
    Ok,
    Unmapped,
    OutOfBounds,
}

impl ModelArena {
    fn map(&mut self, base: Addr, len: usize) {
        self.regions.push((base.get(), vec![0u8; len]));
    }

    fn unmap(&mut self, base: Addr) -> bool {
        let Some(pos) = self.regions.iter().position(|&(b, _)| b == base.get()) else {
            return false;
        };
        self.regions.swap_remove(pos);
        true
    }

    fn classify(&self, addr: Addr, len: usize) -> ModelAccess {
        let raw = addr.get();
        for &(base, ref data) in &self.regions {
            if raw >= base && raw < base + data.len() as u64 {
                return if raw + len as u64 <= base + data.len() as u64 {
                    ModelAccess::Ok
                } else {
                    ModelAccess::OutOfBounds
                };
            }
        }
        ModelAccess::Unmapped
    }

    fn write(&mut self, addr: Addr, bytes: &[u8]) -> ModelAccess {
        let verdict = self.classify(addr, bytes.len());
        if verdict == ModelAccess::Ok {
            let raw = addr.get();
            for &mut (base, ref mut data) in &mut self.regions {
                if raw >= base && raw < base + data.len() as u64 {
                    let off = (raw - base) as usize;
                    data[off..off + bytes.len()].copy_from_slice(bytes);
                }
            }
        }
        verdict
    }

    fn read(&self, addr: Addr, len: usize) -> Result<&[u8], ModelAccess> {
        match self.classify(addr, len) {
            ModelAccess::Ok => {
                let raw = addr.get();
                let (base, data) = self
                    .regions
                    .iter()
                    .find(|&&(base, ref data)| raw >= base && raw < base + data.len() as u64)
                    .expect("classified Ok");
                let off = (raw - base) as usize;
                Ok(&data[off..off + len])
            }
            verdict => Err(verdict),
        }
    }
}

fn classify_fault(result: Result<(), MemFault>) -> ModelAccess {
    match result {
        Ok(()) => ModelAccess::Ok,
        Err(MemFault::Unmapped { .. }) => ModelAccess::Unmapped,
        Err(MemFault::OutOfBounds { .. }) => ModelAccess::OutOfBounds,
        Err(MemFault::ExhaustedAddressSpace { .. }) => {
            panic!("access returned a mapping fault")
        }
    }
}

/// One step of a randomized arena script.
#[derive(Clone, Debug)]
enum ArenaOp {
    /// Map a fresh region of 1–3 pages.
    Map(usize),
    /// Unmap the nth live region (modulo count).
    UnmapNth(usize),
    /// Write a byte pattern at an offset relative to the nth region's
    /// base; offsets may run past the region end or into guard pages.
    Write(usize, usize, u8, usize),
    /// Read relative to the nth region's base.
    Read(usize, usize, usize),
    /// Read at an absolute (mostly unmapped) address.
    ReadAbs(u64, usize),
    /// Bulk-fill relative to the nth region's base.
    Fill(usize, usize, u8, usize),
    /// Map two pages at the kth of four fixed bases whose pages are 256
    /// apart — the same two slots of the direct-mapped TLB — unless it is
    /// already mapped. After an `UnmapNth` of the same base this is a
    /// remap of the same pages.
    MapColliding(usize),
    /// `Arena::reset`: everything unmapped.
    Reset,
    /// Lay a pattern over a range relative to the nth region's base,
    /// optionally corrupt one byte of it, then `check_and_fill` the range
    /// against that pattern (or against none).
    CheckAndFill {
        n: usize,
        off: usize,
        len: usize,
        pattern: u32,
        corrupt_at: Option<usize>,
        expect: bool,
        value: u8,
    },
}

/// Base of the kth TLB-colliding page (see [`ArenaOp::MapColliding`]).
fn colliding_base(k: usize) -> Addr {
    Addr::new(0x2000_0000 + (k as u64 % 4) * 256 * PAGE_SIZE as u64)
}

/// Offset of the first byte of `bytes` that breaks the repeating
/// little-endian `pattern`, one byte at a time.
fn naive_first_mismatch(bytes: &[u8], pattern: u32) -> Option<usize> {
    let pat = pattern.to_le_bytes();
    bytes.iter().enumerate().position(|(i, &b)| b != pat[i % 4])
}

fn pattern_bytes(pattern: u32, len: usize) -> Vec<u8> {
    let pat = pattern.to_le_bytes();
    (0..len).map(|i| pat[i % 4]).collect()
}

fn arena_op() -> impl Strategy<Value = ArenaOp> {
    prop_oneof![
        (1usize..3 * PAGE_SIZE).prop_map(ArenaOp::Map),
        (0usize..16).prop_map(ArenaOp::UnmapNth),
        (0usize..16, 0usize..PAGE_SIZE + 64, any::<u8>(), 1usize..96)
            .prop_map(|(n, off, fill, len)| ArenaOp::Write(n, off, fill, len)),
        (0usize..16, 0usize..PAGE_SIZE + 64, 1usize..96)
            .prop_map(|(n, off, len)| ArenaOp::Read(n, off, len)),
        (0u64..0x8000_0000_0000, 1usize..64).prop_map(|(a, l)| ArenaOp::ReadAbs(a, l)),
        (
            0usize..16,
            0usize..PAGE_SIZE + 64,
            any::<u8>(),
            1usize..2 * PAGE_SIZE
        )
            .prop_map(|(n, off, fill, len)| ArenaOp::Fill(n, off, fill, len)),
        (0usize..4).prop_map(ArenaOp::MapColliding),
        Just(ArenaOp::Reset),
        (
            (0usize..16, 0usize..PAGE_SIZE + 64, 1usize..300),
            any::<u32>(),
            (any::<bool>(), 0usize..300),
            (any::<bool>(), any::<u8>()),
        )
            .prop_map(|((n, off, len), pattern, (corrupt, at), (expect, value))| {
                ArenaOp::CheckAndFill {
                    n,
                    off,
                    len,
                    pattern,
                    corrupt_at: corrupt.then_some(at),
                    expect,
                    value,
                }
            }),
    ]
}

proptest! {
    /// Whatever bytes go in come back out, at any in-bounds offset.
    #[test]
    fn write_read_round_trip(
        seed in 0u64..1000,
        offset in 0usize..4000,
        data in proptest::collection::vec(any::<u8>(), 1..96),
    ) {
        let mut arena = Arena::new();
        let base = arena.map(PAGE_SIZE, &mut Rng::new(seed));
        prop_assume!(offset + data.len() <= PAGE_SIZE);
        arena.write_bytes(base + offset as u64, &data).unwrap();
        prop_assert_eq!(arena.read_bytes(base + offset as u64, data.len()).unwrap(), &data[..]);
    }

    /// Any access crossing the end of a mapping faults and leaves memory
    /// untouched.
    #[test]
    fn out_of_bounds_faults_cleanly(
        seed in 0u64..1000,
        overshoot in 1usize..64,
        len in 1usize..64,
    ) {
        let mut arena = Arena::new();
        let base = arena.map(PAGE_SIZE, &mut Rng::new(seed));
        let start = base + (PAGE_SIZE + overshoot - len.min(overshoot)) as u64;
        let result = arena.write_bytes(start, &vec![0xAB; len]);
        prop_assert!(result.is_err());
        // The mapped prefix (if any) must be unmodified (all-or-nothing).
        let mapped_prefix = PAGE_SIZE.saturating_sub((start - base) as usize);
        if mapped_prefix > 0 && mapped_prefix < len {
            let tail = arena.read_bytes(start, mapped_prefix).unwrap();
            prop_assert!(tail.iter().all(|&b| b == 0), "partial write leaked");
        }
    }

    /// Randomly placed regions never overlap, pairwise, including guard
    /// pages.
    #[test]
    fn mappings_never_overlap(seed in 0u64..500, sizes in proptest::collection::vec(1usize..40_000, 2..12)) {
        let mut arena = Arena::new();
        let mut rng = Rng::new(seed);
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for len in sizes {
            let base = arena.map(len, &mut rng);
            let (actual_base, actual_len) = arena.region_of(base).unwrap();
            prop_assert_eq!(actual_base, base);
            spans.push((base.get(), base.get() + actual_len as u64));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 + PAGE_SIZE as u64 <= w[1].0, "overlap or missing guard");
        }
    }

    /// `fill_pattern_u32` writes exactly the repeating pattern.
    #[test]
    fn fill_pattern_is_exact(seed in 0u64..500, pattern in any::<u32>(), len in 1usize..256) {
        let mut arena = Arena::new();
        let base = arena.map(PAGE_SIZE, &mut Rng::new(seed));
        arena.fill_pattern_u32(base, len, pattern).unwrap();
        let bytes = arena.read_bytes(base, len).unwrap();
        let expect = pattern.to_le_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            prop_assert_eq!(b, expect[i % 4]);
        }
    }

    /// Unmapped addresses always fault with `Unmapped`.
    #[test]
    fn unmapped_reads_fault(addr in 0u64..0x0000_1000_0000) {
        let arena = Arena::new();
        let faulted = matches!(
            arena.read_u8(xt_arena::Addr::new(addr)),
            Err(MemFault::Unmapped { .. })
        );
        prop_assert!(faulted);
    }

    /// The page-table arena is observably equivalent to the reference
    /// semantics under arbitrary map/unmap/access interleavings: identical
    /// data, identical `Unmapped` vs `OutOfBounds` classification, and
    /// all-or-nothing writes.
    #[test]
    fn equivalent_to_reference_model(
        seed in 0u64..10_000,
        ops in proptest::collection::vec(arena_op(), 1..120),
    ) {
        let mut arena = Arena::new();
        let mut model = ModelArena::default();
        let mut rng = Rng::new(seed);
        let mut bases: Vec<Addr> = Vec::new();
        for op in ops {
            match op {
                ArenaOp::Map(len) => {
                    let base = arena.map(len, &mut rng);
                    let (b, actual_len) = arena.region_of(base).expect("fresh mapping resolves");
                    prop_assert_eq!(b, base);
                    model.map(base, actual_len);
                    bases.push(base);
                }
                ArenaOp::UnmapNth(n) => {
                    if bases.is_empty() { continue; }
                    let base = bases.swap_remove(n % bases.len());
                    prop_assert!(arena.unmap(base).is_ok());
                    prop_assert!(model.unmap(base));
                    // Unmapped base faults identically in both.
                    prop_assert_eq!(
                        classify_fault(arena.read_bytes(base, 1).map(|_| ())),
                        ModelAccess::Unmapped
                    );
                }
                ArenaOp::Write(n, off, fill, len) => {
                    if bases.is_empty() { continue; }
                    let addr = bases[n % bases.len()] + off as u64;
                    let bytes = vec![fill; len];
                    let got = classify_fault(arena.write_bytes(addr, &bytes));
                    let want = model.write(addr, &bytes);
                    prop_assert_eq!(&got, &want, "write at +{} len {}: {:?} vs {:?}", off, len, got, want);
                    if got != ModelAccess::Ok {
                        // All-or-nothing: the mapped prefix, if any, must be
                        // untouched, which the full-region compare below
                        // (after the loop) also enforces continuously.
                        prop_assert!(got == ModelAccess::Unmapped || got == ModelAccess::OutOfBounds);
                    }
                }
                ArenaOp::Read(n, off, len) => {
                    if bases.is_empty() { continue; }
                    let addr = bases[n % bases.len()] + off as u64;
                    match (arena.read_bytes(addr, len), model.read(addr, len)) {
                        (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                        (Err(fault), Err(want)) => {
                            prop_assert_eq!(classify_fault(Err(fault)), want);
                        }
                        (got, want) => {
                            return Err(TestCaseError::Fail(format!(
                                "read at +{off} len {len} diverged: {got:?} vs {want:?}"
                            )));
                        }
                    }
                }
                ArenaOp::ReadAbs(raw, len) => {
                    let addr = Addr::new(raw);
                    let got = classify_fault(arena.read_bytes(addr, len).map(|_| ()));
                    let want = model.classify(addr, len);
                    prop_assert_eq!(got, want);
                }
                ArenaOp::Fill(n, off, fill, len) => {
                    if bases.is_empty() { continue; }
                    let addr = bases[n % bases.len()] + off as u64;
                    let got = classify_fault(arena.fill(addr, len, fill));
                    let want = model.write(addr, &vec![fill; len]);
                    prop_assert_eq!(got, want);
                }
                ArenaOp::MapColliding(k) => {
                    let base = colliding_base(k);
                    if bases.contains(&base) { continue; }
                    // Random placement may already sit on or beside the
                    // fixed page; then the arena must refuse and nothing
                    // changes.
                    if arena.map_at(base, 2 * PAGE_SIZE).is_ok() {
                        model.map(base, 2 * PAGE_SIZE);
                        bases.push(base);
                    }
                }
                ArenaOp::Reset => {
                    arena.reset();
                    model = ModelArena::default();
                    bases.clear();
                }
                ArenaOp::CheckAndFill { n, off, len, pattern, corrupt_at, expect, value } => {
                    if bases.is_empty() { continue; }
                    let addr = bases[n % bases.len()] + off as u64;
                    let laid = classify_fault(arena.fill_pattern_u32(addr, len, pattern));
                    prop_assert_eq!(&laid, &model.write(addr, &pattern_bytes(pattern, len)));
                    if laid == ModelAccess::Ok {
                        if let Some(at) = corrupt_at {
                            let at = addr + (at % len) as u64;
                            let byte = !arena.read_u8(at).unwrap();
                            arena.write_u8(at, byte).unwrap();
                            model.write(at, &[byte]);
                        }
                    }
                    let got = arena.check_and_fill(addr, len, expect.then_some(pattern), value);
                    match model.classify(addr, len) {
                        ModelAccess::Ok => {
                            let mismatch = expect
                                .then(|| naive_first_mismatch(model.read(addr, len).unwrap(), pattern))
                                .flatten();
                            prop_assert_eq!(got, Ok(mismatch));
                            if mismatch.is_none() {
                                model.write(addr, &vec![value; len]);
                            }
                        }
                        verdict => prop_assert_eq!(classify_fault(got.map(|_| ())), verdict),
                    }
                }
            }
            // Continuous full-state equivalence: every region's bytes match
            // the model byte-for-byte (this is what makes faulting writes
            // provably all-or-nothing across the whole interleaving).
            for &base in &bases {
                let (b, len) = arena.region_of(base).expect("live region resolves");
                prop_assert_eq!(b, base);
                prop_assert_eq!(
                    arena.read_bytes(base, len).unwrap(),
                    model.read(base, len).unwrap()
                );
            }
            prop_assert_eq!(arena.regions().count(), bases.len());
        }
    }

    /// `check_and_fill` is `compare_pattern` followed, on a match, by
    /// `fill`: same answer, same bytes. On a mismatch it changes nothing —
    /// the corrupted range is evidence — and a faulting call does neither
    /// half.
    #[test]
    fn check_and_fill_is_compare_then_fill(
        span in (0usize..3 * PAGE_SIZE, 0usize..2 * PAGE_SIZE),
        pattern in any::<u32>(),
        corrupt in (any::<bool>(), 0usize..2 * PAGE_SIZE),
        expect in any::<bool>(),
        value in any::<u8>(),
    ) {
        let (off, len) = span;
        let corrupt_at = corrupt.0.then_some(corrupt.1);
        let total = 4 * PAGE_SIZE;
        prop_assume!(off + len <= total);
        let base = Addr::new(0x1000_0000);
        let addr = base + off as u64;
        let mut fused = Arena::new();
        let mut split = Arena::new();
        for arena in [&mut fused, &mut split] {
            arena.map_at(base, total).unwrap();
            arena.fill_pattern_u32(addr, len, pattern).unwrap();
            if let Some(at) = corrupt_at.filter(|_| len > 0) {
                let at = addr + (at % len) as u64;
                let byte = !arena.read_u8(at).unwrap();
                arena.write_u8(at, byte).unwrap();
            }
        }
        let expect = expect.then_some(pattern);
        let got = fused.check_and_fill(addr, len, expect, value).unwrap();
        let want = expect.and_then(|p| split.compare_pattern(addr, len, p).unwrap());
        if want.is_none() {
            split.fill(addr, len, value).unwrap();
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(want.is_some(), expect.is_some() && corrupt_at.is_some() && len > 0);
        prop_assert_eq!(
            fused.read_bytes(base, total).unwrap(),
            split.read_bytes(base, total).unwrap()
        );
        // Faults are all-or-nothing: the same range stretched one byte past
        // the region's end changes no byte, whatever its mapped part holds;
        // nor does one that starts unmapped.
        let before = fused.read_bytes(base, total).unwrap().to_vec();
        prop_assert!(fused.check_and_fill(addr, total - off + 1, expect, value).is_err());
        prop_assert!(fused.check_and_fill(base + total as u64, 1, None, value).is_err());
        prop_assert_eq!(fused.read_bytes(base, total).unwrap(), &before[..]);
    }

    /// Guard pages: the page on either side of any mapping is unmapped, so
    /// one-past-the-end and one-before accesses fault as `Unmapped` (after
    /// an `OutOfBounds` for ranges straddling the boundary).
    #[test]
    fn guard_pages_fault(seed in 0u64..2000, lens in proptest::collection::vec(1usize..3 * PAGE_SIZE, 1..8)) {
        let mut arena = Arena::new();
        let mut rng = Rng::new(seed);
        for len in lens {
            let base = arena.map(len, &mut rng);
            let (_, actual_len) = arena.region_of(base).unwrap();
            let end = base + actual_len as u64;
            prop_assert!(matches!(
                arena.read_u8(end),
                Err(MemFault::Unmapped { .. })
            ));
            prop_assert!(matches!(
                arena.read_u8(base - 1),
                Err(MemFault::Unmapped { .. })
            ));
            // Straddling the end is OutOfBounds (start is mapped).
            prop_assert!(matches!(
                arena.read_bytes(end - 1, 2),
                Err(MemFault::OutOfBounds { .. })
            ));
        }
    }

    /// Bulk APIs agree with their scalar equivalents.
    #[test]
    fn bulk_apis_match_scalar_semantics(
        seed in 0u64..2000,
        pattern in any::<u32>(),
        len in 1usize..512,
        corrupt_at in 0usize..512,
    ) {
        let mut arena = Arena::new();
        let base = arena.map(PAGE_SIZE, &mut Rng::new(seed));
        arena.fill_pattern_u32(base, len, pattern).unwrap();
        prop_assert_eq!(arena.compare_pattern(base, len, pattern).unwrap(), None);
        // copy_out sees exactly what read_bytes sees.
        let mut buf = vec![0u8; len];
        arena.copy_out(base, &mut buf).unwrap();
        prop_assert_eq!(&buf[..], arena.read_bytes(base, len).unwrap());
        // region_snapshot exposes the same bytes.
        let (snap_base, snap) = arena.region_snapshot(base).unwrap();
        prop_assert_eq!(snap_base, base);
        prop_assert_eq!(&snap[..len], &buf[..]);
        // A single corrupted byte is located exactly.
        if corrupt_at < len {
            let original = arena.read_u8(base + corrupt_at as u64).unwrap();
            arena.write_u8(base + corrupt_at as u64, original ^ 0xFF).unwrap();
            prop_assert_eq!(
                arena.compare_pattern(base, len, pattern).unwrap(),
                Some(corrupt_at)
            );
        }
    }
}
