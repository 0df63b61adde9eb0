//! Arena access-path microbenchmarks: the page-table/TLB arena against a
//! faithful replica of the original `BTreeMap`-based arena, across
//! hit-heavy, miss-heavy, and many-region access patterns plus the bulk
//! canary fill/check operations.
//!
//! ```text
//! cargo bench -p bench --bench arena_access
//! ```
//!
//! Besides the usual criterion table, this bench writes `BENCH_arena.json`
//! at the workspace root with per-case ns/op for both implementations and
//! their speedups, so future PRs have a perf trajectory to compare
//! against.

use std::cell::Cell;
use std::collections::BTreeMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bench::{bench_artifact_path, write_bench_json, BenchRecord};
use xt_alloc::{Heap as _, SiteHash};
use xt_arena::{Addr, Arena, Rng, PAGE_SIZE};
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_image::HeapImage;

/// Accesses per benchmark iteration (so ns/op can be recovered from the
/// per-iteration medians).
const OPS: usize = 4096;

/// Live regions in the many-region cases — representative of a DieHard
/// heap's miniheap count, and far beyond the old arena's single-entry
/// translation cache.
const REGIONS: usize = 64;

/// The minimal memory interface both arenas expose, so every case runs
/// the identical script against each implementation.
trait Mem: Default {
    fn map(&mut self, len: usize, rng: &mut Rng) -> Addr;
    fn unmap(&mut self, base: Addr);
    fn read_u64(&self, addr: Addr) -> u64;
    fn write_u64(&mut self, addr: Addr, value: u64);
    fn fill_pattern(&mut self, addr: Addr, len: usize, pattern: u32);
    /// Offset of the first byte differing from the repeating pattern.
    fn check_pattern(&self, addr: Addr, len: usize, pattern: u32) -> Option<usize>;
}

impl Mem for Arena {
    fn map(&mut self, len: usize, rng: &mut Rng) -> Addr {
        Arena::map(self, len, rng)
    }

    fn unmap(&mut self, base: Addr) {
        Arena::unmap(self, base).expect("benchmark unmaps live regions");
    }

    fn read_u64(&self, addr: Addr) -> u64 {
        Arena::read_u64(self, addr).expect("benchmark reads mapped memory")
    }

    fn write_u64(&mut self, addr: Addr, value: u64) {
        Arena::write_u64(self, addr, value).expect("benchmark writes mapped memory")
    }

    fn fill_pattern(&mut self, addr: Addr, len: usize, pattern: u32) {
        self.fill_pattern_u32(addr, len, pattern)
            .expect("benchmark fills mapped memory");
    }

    fn check_pattern(&self, addr: Addr, len: usize, pattern: u32) -> Option<usize> {
        self.compare_pattern(addr, len, pattern)
            .expect("benchmark checks mapped memory")
    }
}

/// A faithful replica of the pre-page-table arena: regions in a
/// `BTreeMap`, every access a range query softened by a single-entry
/// cache that any `unmap` flushes whole, and byte-at-a-time pattern
/// fill/check (what DieFast canary work used to cost).
#[derive(Default)]
struct BtreeArena {
    regions: BTreeMap<u64, Vec<u8>>,
    last_region: Cell<(u64, u64)>,
}

impl BtreeArena {
    fn locate(&self, addr: Addr, len: usize) -> (u64, usize) {
        let raw = addr.get();
        let (cached_base, cached_end) = self.last_region.get();
        if raw >= cached_base && raw + len as u64 <= cached_end {
            return (cached_base, (raw - cached_base) as usize);
        }
        let (&start, data) = self
            .regions
            .range(..=raw)
            .next_back()
            .expect("benchmark accesses mapped memory");
        let off = (raw - start) as usize;
        assert!(off + len <= data.len(), "benchmark access in bounds");
        self.last_region.set((start, start + data.len() as u64));
        (start, off)
    }
}

impl Mem for BtreeArena {
    fn map(&mut self, len: usize, rng: &mut Rng) -> Addr {
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        loop {
            let base = 0x1000_0000 + rng.below(1 << 30) * PAGE_SIZE as u64;
            let lo = base - PAGE_SIZE as u64;
            let hi = base + len as u64 + PAGE_SIZE as u64;
            let free = match self.regions.range(..hi).next_back() {
                Some((&start, data)) => start + data.len() as u64 <= lo,
                None => true,
            };
            if free {
                self.regions.insert(base, vec![0u8; len]);
                return Addr::new(base);
            }
        }
    }

    fn unmap(&mut self, base: Addr) {
        // The original behaviour under test: any unmap poisons the cache.
        self.last_region.set((0, 0));
        self.regions.remove(&base.get());
    }

    fn read_u64(&self, addr: Addr) -> u64 {
        let (start, off) = self.locate(addr, 8);
        let b = &self.regions[&start][off..off + 8];
        u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    fn write_u64(&mut self, addr: Addr, value: u64) {
        let (start, off) = self.locate(addr, 8);
        let data = self.regions.get_mut(&start).expect("located region");
        data[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    fn fill_pattern(&mut self, addr: Addr, len: usize, pattern: u32) {
        let (start, off) = self.locate(addr, len);
        let data = self.regions.get_mut(&start).expect("located region");
        let bytes = pattern.to_le_bytes();
        for (i, slot) in data[off..off + len].iter_mut().enumerate() {
            *slot = bytes[i % 4];
        }
    }

    fn check_pattern(&self, addr: Addr, len: usize, pattern: u32) -> Option<usize> {
        let (start, off) = self.locate(addr, len);
        let bytes = &self.regions[&start][off..off + len];
        let pat = pattern.to_le_bytes();
        bytes
            .iter()
            .enumerate()
            .find_map(|(i, &b)| if b == pat[i % 4] { None } else { Some(i) })
    }
}

fn setup<M: Mem>(n_regions: usize, pages_each: usize) -> (M, Vec<Addr>) {
    let mut mem = M::default();
    let mut rng = Rng::new(0xA11E);
    let bases: Vec<Addr> = (0..n_regions)
        .map(|_| mem.map(pages_each * PAGE_SIZE, &mut rng))
        .collect();
    (mem, bases)
}

/// Hit-heavy: every access lands in one hot region, the case the old
/// single-entry cache already served well.
fn run_hit_heavy<M: Mem>(mem: &mut M, base: Addr) {
    let mut acc = 0u64;
    for i in 0..OPS as u64 {
        let addr = base + (i % 500) * 8;
        if i % 4 == 0 {
            mem.write_u64(addr, i ^ acc);
        } else {
            acc ^= mem.read_u64(addr);
        }
    }
    std::hint::black_box(acc);
}

/// Many-region mixed read/write: accesses cycle through all regions, the
/// pattern DieFast's cross-miniheap canary checks produce. The old cache
/// missed almost every access here.
fn run_many_region_mixed<M: Mem>(mem: &mut M, bases: &[Addr]) {
    let mut acc = 0u64;
    for i in 0..OPS as u64 {
        let addr = bases[i as usize % bases.len()] + (i % 256) * 8;
        if i % 3 == 0 {
            mem.write_u64(addr, i);
        } else {
            acc ^= mem.read_u64(addr);
        }
    }
    std::hint::black_box(acc);
}

/// Pages per region in the miss-heavy case: 64 regions × 8 pages = 512
/// distinct pages, twice the arena's 256-entry TLB, so the case measures
/// genuine capacity misses (page-table walks), not just conflict misses.
const MISS_PAGES: usize = 8;

/// Miss-heavy: strides across more distinct pages than the TLB holds, plus
/// periodic unmap/remap churn — the worst case for both translation
/// schemes, and the one where the old design also paid whole-cache
/// flushes.
fn run_miss_heavy<M: Mem>(mem: &mut M, bases: &mut [Addr], rng: &mut Rng) {
    let mut acc = 0u64;
    for i in 0..OPS as u64 {
        let r = i as usize % bases.len();
        // Walk every page of every region so the working set overflows
        // the TLB and most accesses pay a table walk.
        let addr = bases[r] + (i % MISS_PAGES as u64) * PAGE_SIZE as u64 + (i % 32) * 8;
        acc ^= mem.read_u64(addr);
        if i % 64 == 63 {
            mem.unmap(bases[r]);
            bases[r] = mem.map(MISS_PAGES * PAGE_SIZE, rng);
        }
    }
    std::hint::black_box(acc);
}

/// Bulk canary fill over whole pages (DieFast `free` at p = 1).
fn run_bulk_fill<M: Mem>(mem: &mut M, bases: &[Addr]) {
    for (i, &base) in bases.iter().enumerate() {
        mem.fill_pattern(base, PAGE_SIZE, 0x5A5A_0001 | i as u32);
    }
}

/// Bulk canary check over whole pages (DieFast `malloc`-time probes).
fn run_bulk_compare<M: Mem>(mem: &M, bases: &[Addr]) {
    for (i, &base) in bases.iter().enumerate() {
        assert_eq!(
            mem.check_pattern(base, PAGE_SIZE, 0x5A5A_0001 | i as u32),
            None
        );
    }
}

const CASES: [&str; 5] = [
    "hit_heavy",
    "many_region_mixed",
    "miss_heavy",
    "bulk_fill",
    "bulk_compare",
];

fn bench_impl<M: Mem>(c: &mut Criterion, imp: &str) {
    let mut group = c.benchmark_group("arena_access");
    {
        let (mut mem, bases) = setup::<M>(1, 2);
        group.bench_with_input(BenchmarkId::new("hit_heavy", imp), &(), |b, ()| {
            b.iter(|| run_hit_heavy(&mut mem, bases[0]));
        });
    }
    {
        let (mut mem, bases) = setup::<M>(REGIONS, 2);
        group.bench_with_input(BenchmarkId::new("many_region_mixed", imp), &(), |b, ()| {
            b.iter(|| run_many_region_mixed(&mut mem, &bases));
        });
    }
    {
        let (mut mem, mut bases) = setup::<M>(REGIONS, MISS_PAGES);
        let mut rng = Rng::new(0xBEEF);
        group.bench_with_input(BenchmarkId::new("miss_heavy", imp), &(), |b, ()| {
            b.iter(|| run_miss_heavy(&mut mem, &mut bases, &mut rng));
        });
    }
    {
        let (mut mem, bases) = setup::<M>(REGIONS, 1);
        group.bench_with_input(BenchmarkId::new("bulk_fill", imp), &(), |b, ()| {
            b.iter(|| run_bulk_fill(&mut mem, &bases));
        });
    }
    {
        let (mut mem, bases) = setup::<M>(REGIONS, 1);
        run_bulk_fill(&mut mem, &bases);
        group.bench_with_input(BenchmarkId::new("bulk_compare", imp), &(), |b, ()| {
            b.iter(|| run_bulk_compare(&mem, &bases));
        });
    }
    group.finish();
}

fn arena_access(c: &mut Criterion) {
    bench_impl::<BtreeArena>(c, "btree");
    bench_impl::<Arena>(c, "page_table");
}

/// Slots per region in the capture-gather case (64-byte objects in
/// 4-page miniheap-like regions).
const CAPTURE_SLOT: usize = 64;

/// Heap-image capture's data path, old idiom vs bulk API: one bounds-
/// checked `read_bytes` per slot versus one `region_snapshot` per region
/// sliced per slot. Both run against the page-table arena; the per-op
/// unit is one region captured.
fn capture_gather(c: &mut Criterion) {
    let (mut mem, bases) = setup::<Arena>(REGIONS, 4);
    for &base in &bases {
        Mem::fill_pattern(&mut mem, base, 4 * PAGE_SIZE, 0x1234_5678);
    }
    let mut group = c.benchmark_group("arena_access");
    group.bench_with_input(
        BenchmarkId::new("image_capture", "per_slot"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut total = 0usize;
                for &base in &bases {
                    for s in 0..4 * PAGE_SIZE / CAPTURE_SLOT {
                        let data = mem
                            .read_bytes(base + (s * CAPTURE_SLOT) as u64, CAPTURE_SLOT)
                            .unwrap()
                            .to_vec();
                        total += data.len();
                    }
                }
                std::hint::black_box(total)
            });
        },
    );
    group.bench_with_input(
        BenchmarkId::new("image_capture", "snapshot"),
        &(),
        |b, ()| {
            b.iter(|| {
                let mut total = 0usize;
                for &base in &bases {
                    let (_, region) = mem.region_snapshot(base).unwrap();
                    for chunk in region.chunks_exact(CAPTURE_SLOT) {
                        total += chunk.to_vec().len();
                    }
                }
                std::hint::black_box(total)
            });
        },
    );
    group.finish();
}

/// Live objects in the incremental-capture case. 1 KiB objects keep the
/// slot-data bytes (what dirty-page splicing avoids re-reading) dominant
/// over per-slot metadata, the regime real heap images live in.
const INC_OBJECTS: usize = 1024;

/// Objects stored to between captures in the sparse-touch workload — the
/// steady state of continuous capture, where an input touches a small
/// working set of a large heap.
const INC_TOUCHED: usize = 16;

/// Full vs incremental heap-image capture under a sparse-touch workload:
/// each iteration stores to [`INC_TOUCHED`] of [`INC_OBJECTS`] live
/// objects and captures the heap. The full series re-reads every slot;
/// the incremental series diffs against the previous capture via the
/// arena's dirty-page bits and splices untouched slots by `Arc` clone.
/// The per-op unit is one whole-heap capture.
fn capture_incremental(c: &mut Criterion) {
    let build = || {
        let mut heap = DieFastHeap::new(DieFastConfig::with_seed(0xCAFE));
        let objects: Vec<Addr> = (0..INC_OBJECTS)
            .map(|i| {
                let p = heap
                    .malloc(1024, SiteHash::from_raw(i as u32 % 17))
                    .expect("bench heap allocates");
                heap.arena_mut().write_u64(p, i as u64).unwrap();
                p
            })
            .collect();
        (heap, objects)
    };
    let touch = |heap: &mut DieFastHeap, objects: &[Addr], round: u64| {
        for k in 0..INC_TOUCHED as u64 {
            let p = objects[((round * 31 + k * 61) as usize) % objects.len()];
            heap.arena_mut().write_u64(p + 8 * k, round ^ k).unwrap();
        }
    };
    let mut group = c.benchmark_group("arena_access");
    {
        let (mut heap, objects) = build();
        let mut round = 0u64;
        group.bench_with_input(
            BenchmarkId::new("incremental_capture", "full"),
            &(),
            |b, ()| {
                b.iter(|| {
                    round += 1;
                    touch(&mut heap, &objects, round);
                    std::hint::black_box(
                        HeapImage::try_capture(&heap)
                            .expect("the allocator mapped every miniheap this heap records"),
                    )
                });
            },
        );
    }
    {
        let (mut heap, objects) = build();
        let mut round = 0u64;
        // Rolling base: each capture becomes the baseline the next one
        // diffs against.
        let mut base = HeapImage::try_capture(&heap)
            .expect("the allocator mapped every miniheap this heap records");
        group.bench_with_input(
            BenchmarkId::new("incremental_capture", "incremental"),
            &(),
            |b, ()| {
                b.iter(|| {
                    round += 1;
                    touch(&mut heap, &objects, round);
                    base = HeapImage::try_capture_incremental(&base, &heap)
                        .expect("the allocator mapped every miniheap this heap records");
                    std::hint::black_box(base.slots().count())
                });
            },
        );
    }
    group.finish();
}

/// Converts the recorded per-iteration minima (the least-noise statistic
/// under a loaded machine) into ns/op records plus speedups and writes
/// `BENCH_arena.json` at the workspace root.
fn emit_json(c: &mut Criterion) {
    // Each case is normalized by its simulated operations per iteration:
    // the scalar cases run OPS accesses, the bulk cases process REGIONS
    // page-sized fills/checks.
    let ns_per_op = |case: &str, imp: &str| -> Option<f64> {
        let per_iter = match case {
            "bulk_fill" | "bulk_compare" | "image_capture" => REGIONS as f64,
            // One whole-heap capture per iteration.
            "incremental_capture" => 1.0,
            _ => OPS as f64,
        };
        let id = format!("arena_access/{case}/{imp}");
        c.results()
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.min_ns / per_iter)
    };
    let mut records = Vec::new();
    let mut pairs: Vec<(&str, &str, &str)> =
        CASES.iter().map(|&c| (c, "btree", "page_table")).collect();
    pairs.push(("image_capture", "per_slot", "snapshot"));
    pairs.push(("incremental_capture", "full", "incremental"));
    for (case, old, new) in pairs {
        let (Some(before), Some(after)) = (ns_per_op(case, old), ns_per_op(case, new)) else {
            continue;
        };
        let speedup = before / after;
        records.push(BenchRecord::from_ns(format!("{case}/{old}"), before));
        records.push(BenchRecord::from_ns(format!("{case}/{new}"), after));
        // Schema-uniform speedup record: the ratio rides in ns_per_op.
        records.push(BenchRecord {
            name: format!("{case}/speedup"),
            ns_per_op: speedup,
            ops_per_sec: 0.0,
        });
        println!("{case}: {old} {before:.1} ns/op, {new} {after:.1} ns/op, speedup {speedup:.2}x");
    }
    let path = bench_artifact_path("BENCH_arena.json");
    write_bench_json(&path, "arena_access", &records).expect("write BENCH_arena.json");
    println!("wrote {}", path.display());
}

criterion_group!(
    benches,
    arena_access,
    capture_gather,
    capture_incremental,
    emit_json
);
criterion_main!(benches);
