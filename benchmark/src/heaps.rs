//! Allocator stacks as Fig. 7 builds them, a metering `Heap` wrapper,
//! and the fixed allocator script behind the `*.malloc_ns`/`*.free_ns`
//! ledger lines.

use std::time::Instant;

use xt_alloc::{Addr, AllocTime, Arena, FreeOutcome, Heap, HeapError, SiteHash, SitePair};
use xt_correct::CorrectingHeap;
use xt_diefast::{DieFastConfig, DieFastHeap};
use xt_patch::PatchTable;

use crate::stats::SeedRng;

/// Fig. 7's Exterminator configuration: DieFast (p = 1) under the
/// correcting allocator, no patches loaded.
#[must_use]
pub fn exterminator_stack(seed: u64) -> CorrectingHeap<DieFastHeap> {
    CorrectingHeap::new(
        DieFastHeap::new(DieFastConfig::with_seed(seed)),
        PatchTable::new(),
    )
}

/// What a [`MeteredHeap`] saw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapCounts {
    pub mallocs: u64,
    pub frees: u64,
    pub bytes: u64,
    /// Nanoseconds inside `malloc` and `free` (0 unless timing).
    pub alloc_ns: u64,
}

/// A `Heap` that counts (and optionally times) `malloc`/`free` and
/// forwards everything else untouched, so the workload's output is
/// byte-identical with and without it. Counting is exact; timing adds
/// two clock reads per call, which inflates the share it measures —
/// `workloads.alloc_time_share` is an upper bound for that reason.
#[derive(Debug)]
pub struct MeteredHeap<H> {
    inner: H,
    timed: bool,
    counts: HeapCounts,
}

impl<H: Heap> MeteredHeap<H> {
    pub fn counting(inner: H) -> Self {
        MeteredHeap {
            inner,
            timed: false,
            counts: HeapCounts::default(),
        }
    }

    pub fn timing(inner: H) -> Self {
        MeteredHeap {
            inner,
            timed: true,
            counts: HeapCounts::default(),
        }
    }

    pub fn counts(&self) -> HeapCounts {
        self.counts
    }
}

impl<H: Heap> Heap for MeteredHeap<H> {
    fn malloc(&mut self, size: usize, site: SiteHash) -> Result<Addr, HeapError> {
        self.counts.mallocs += 1;
        self.counts.bytes += size as u64;
        if !self.timed {
            return self.inner.malloc(size, site);
        }
        let start = Instant::now();
        let out = self.inner.malloc(size, site);
        self.counts.alloc_ns += start.elapsed().as_nanos() as u64;
        out
    }

    fn free(&mut self, ptr: Addr, site: SiteHash) -> FreeOutcome {
        self.counts.frees += 1;
        if !self.timed {
            return self.inner.free(ptr, site);
        }
        let start = Instant::now();
        let out = self.inner.free(ptr, site);
        self.counts.alloc_ns += start.elapsed().as_nanos() as u64;
        out
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

/// Call sites the script allocates and frees from.
pub const SCRIPT_SITES: u32 = 64;

fn script_site(index: u32) -> SiteHash {
    SiteHash::from_raw(0x5C21_0000 | index)
}

/// A pad for half the script's allocation sites and a deferral for the
/// other half — the 64-entry table behind `correct.patched_malloc_ns`.
#[must_use]
pub fn script_patch_table() -> PatchTable {
    let mut table = PatchTable::new();
    for i in 0..SCRIPT_SITES {
        if i % 2 == 0 {
            table.add_pad(script_site(i), 8);
        } else {
            table.add_deferral(SitePair::new(script_site(i), script_site(i)), 4);
        }
    }
    table
}

/// One burst of the script: allocate these, then free those victims
/// (indices into the live set at that moment).
#[derive(Clone, Debug)]
struct Burst {
    mallocs: Vec<(usize, u32)>,
    frees: Vec<usize>,
}

/// The fixed allocator script: sizes 16–136, 45 % of operations are
/// frees of a random live object. Operations come in bursts of eleven
/// allocations then nine frees, so each kind can be timed with one pair
/// of clock reads per burst instead of per call.
#[derive(Clone, Debug)]
pub struct AllocScript {
    bursts: Vec<Burst>,
}

/// Median cost per call over the script's bursts.
#[derive(Clone, Copy, Debug)]
pub struct ScriptCost {
    pub malloc_ns: f64,
    pub free_ns: f64,
}

impl AllocScript {
    /// `ops` operations derived from `seed`.
    #[must_use]
    pub fn generate(seed: u64, ops: usize) -> Self {
        let mut rng = SeedRng::new(seed, 0xA110C);
        let mut live = 0usize;
        let bursts = (0..ops / 20)
            .map(|_| {
                let mallocs: Vec<(usize, u32)> = (0..11)
                    .map(|_| {
                        (
                            16 + rng.below(121) as usize,
                            rng.below(u64::from(SCRIPT_SITES)) as u32,
                        )
                    })
                    .collect();
                live += mallocs.len();
                let frees = (0..9)
                    .map(|_| {
                        let victim = rng.below(live as u64) as usize;
                        live -= 1;
                        victim
                    })
                    .collect();
                Burst { mallocs, frees }
            })
            .collect();
        AllocScript { bursts }
    }

    /// Plays the script on `heap`. A failed `malloc` would make every
    /// later victim index meaningless, so it panics: the script is sized
    /// to fit every allocator it is played on.
    pub fn play(&self, heap: &mut dyn Heap) -> ScriptCost {
        let mut live: Vec<(Addr, u32)> = Vec::new();
        let mut malloc_ns = Vec::with_capacity(self.bursts.len());
        let mut free_ns = Vec::with_capacity(self.bursts.len());
        for burst in &self.bursts {
            let start = Instant::now();
            for &(size, site) in &burst.mallocs {
                let addr = heap
                    .malloc(size, script_site(site))
                    .expect("script allocation fits every measured heap");
                live.push((addr, site));
            }
            malloc_ns.push(start.elapsed().as_nanos() as f64 / burst.mallocs.len() as f64);
            let start = Instant::now();
            for &victim in &burst.frees {
                let (addr, site) = live.swap_remove(victim);
                std::hint::black_box(heap.free(addr, script_site(site)));
            }
            free_ns.push(start.elapsed().as_nanos() as f64 / burst.frees.len() as f64);
        }
        ScriptCost {
            malloc_ns: crate::stats::median(&malloc_ns),
            free_ns: crate::stats::median(&free_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_baseline::BaselineHeap;
    use xt_workloads::{EspressoLike, SquidLike, Workload, WorkloadInput};

    #[test]
    fn metering_leaves_workload_output_byte_identical() {
        let espresso = WorkloadInput::with_seed(9).intensity(2);
        let squid = crate::workloads::svc_jobs::job_input(&mut SeedRng::new(9, 1));
        for (workload, input) in [
            (&EspressoLike::new() as &dyn Workload, espresso),
            (&SquidLike::new(), squid),
        ] {
            let bare = workload.run(&mut exterminator_stack(5), &input);
            let mut counting = MeteredHeap::counting(exterminator_stack(5));
            let counted = workload.run(&mut counting, &input);
            let mut timing = MeteredHeap::timing(exterminator_stack(5));
            let timed = workload.run(&mut timing, &input);
            assert_eq!(bare, counted, "{}", workload.name());
            assert_eq!(bare, timed, "{}", workload.name());
            let (c, t) = (counting.counts(), timing.counts());
            assert!(c.mallocs > 0 && c.bytes >= c.mallocs);
            assert_eq!(c.alloc_ns, 0);
            assert!(t.alloc_ns > 0);
            assert_eq!((c.mallocs, c.frees, c.bytes), (t.mallocs, t.frees, t.bytes));
        }
    }

    #[test]
    fn script_is_seeded_and_keeps_its_victims_in_range() {
        let a = AllocScript::generate(3, 2000);
        let b = AllocScript::generate(3, 2000);
        assert_eq!(a.bursts.len(), 100);
        assert_eq!(
            format!("{:?}", a.bursts[7].mallocs),
            format!("{:?}", b.bursts[7].mallocs)
        );
        let mut counting = MeteredHeap::counting(BaselineHeap::with_seed(1));
        let cost = a.play(&mut counting);
        let counts = counting.counts();
        assert_eq!((counts.mallocs, counts.frees), (1100, 900));
        assert!(cost.malloc_ns > 0.0 && cost.free_ns > 0.0);
    }

    #[test]
    fn the_patch_table_has_sixty_four_entries_and_the_stack_accepts_it() {
        let table = script_patch_table();
        assert_eq!(table.len(), 64);
        let script = AllocScript::generate(1, 400);
        let mut heap = CorrectingHeap::new(DieFastHeap::new(DieFastConfig::with_seed(2)), table);
        script.play(&mut heap);
        assert!(heap.stats().pads_applied > 0);
    }
}
