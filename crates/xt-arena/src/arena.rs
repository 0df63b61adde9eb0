//! The simulated sparse address space.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::{Addr, MemFault, Rng};

/// Granularity of mappings, mirroring the paper's 4 KiB platform pages.
pub const PAGE_SIZE: usize = 4096;

/// log2 of [`PAGE_SIZE`].
const PAGE_SHIFT: u32 = 12;

/// Pages covered by one leaf table of the page-table directory (512 pages
/// = 2 MiB of address space). Leaves are 2 KiB each, so even a heap of
/// thousands of randomly placed miniheaps costs well under 0.1% extra
/// memory in translation structures.
const CHUNK_PAGES: usize = 512;

/// log2 of [`CHUNK_PAGES`].
const CHUNK_SHIFT: u32 = 9;

/// Entries in the direct-mapped translation lookaside buffer — sized like
/// a real second-level TLB (4 KiB of state) so the working set of a
/// many-miniheap heap stays resident with few conflict misses.
const TLB_ENTRIES: usize = 256;

/// Leaf-table marker for "this page is unmapped".
const NO_REGION: u32 = u32::MAX;

/// TLB tag marking an empty entry (no valid page number is this large in a
/// 47-bit space).
const INVALID_PAGE: u64 = u64::MAX;

/// Lowest address at which regions are placed (keeps null pointers and small
/// offsets from them unmapped, so `NULL + k` dereferences fault).
const LOW_ADDR: u64 = 0x0000_1000_0000;

/// Exclusive upper bound of the simulated 47-bit address space.
const HIGH_ADDR: u64 = 0x7fff_ffff_0000;

/// Attempts at random placement before giving up.
const PLACEMENT_ATTEMPTS: usize = 4096;

/// Retired leaf tables kept for reuse across `reset` cycles (2 KiB each,
/// so the pool tops out at 2 MiB — far more than any workload's working
/// set of simultaneously mapped chunks).
const SPARE_LEAF_CAP: usize = 1024;

/// One slot of the direct-mapped TLB.
#[derive(Clone, Copy, Debug)]
struct TlbEntry {
    /// Page number this entry translates, or [`INVALID_PAGE`].
    page: u64,
    /// Owning region's slab id.
    region: u32,
}

const INVALID_ENTRY: TlbEntry = TlbEntry {
    page: INVALID_PAGE,
    region: 0,
};

#[derive(Debug)]
struct Region {
    base: u64,
    data: Vec<u8>,
}

/// One leaf of the page table: maps 512 consecutive pages to region ids.
struct Leaf {
    entries: Box<[u32; CHUNK_PAGES]>,
    /// Count of mapped entries, so empty leaves can be reclaimed.
    mapped: usize,
}

impl std::fmt::Debug for Leaf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Leaf")
            .field("mapped", &self.mapped)
            .finish()
    }
}

/// Fibonacci-multiplicative hasher for directory chunk numbers. The keys
/// are page numbers the arena itself generated, so the DoS resistance of
/// `HashMap`'s default SipHash would charge every TLB miss ~4× the cost
/// of the table walk it protects — a tax real page-table hardware does
/// not pay.
#[derive(Default)]
struct ChunkHasher(u64);

impl Hasher for ChunkHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("directory keys hash through write_u64");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(17);
    }
}

type Directory = HashMap<u64, Leaf, BuildHasherDefault<ChunkHasher>>;

/// A sparse, bounds-checked simulated address space.
///
/// Regions (miniheaps, baseline heap segments) are mapped at random
/// page-aligned addresses with at least one unmapped guard page between any
/// two regions. Every access must fall entirely inside one region; anything
/// else returns a [`MemFault`], the reproduction's SIGSEGV.
///
/// Translation is a two-level page table (a directory of fixed 512-page
/// leaves keyed by chunk number, each leaf mapping page → region id)
/// fronted by a 256-entry direct-mapped TLB, so a load or store costs O(1)
/// regardless of how many regions are live. Unmapping invalidates only the
/// dead region's TLB entries; translations for other regions survive.
///
/// # Example
///
/// ```
/// use xt_arena::{Arena, Rng};
///
/// # fn main() -> Result<(), xt_arena::MemFault> {
/// let mut arena = Arena::new();
/// let mut rng = Rng::new(1);
/// let r = arena.map(8192, &mut rng);
/// arena.write_bytes(r + 100, b"hello")?;
/// assert_eq!(arena.read_bytes(r + 100, 5)?, b"hello");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Arena {
    /// Region storage, indexed by the ids the page table hands out. `None`
    /// slots are unmapped regions awaiting id reuse.
    slab: Vec<Option<Region>>,
    /// Reusable slab indices of unmapped regions.
    free_ids: Vec<u32>,
    /// Page-table directory: chunk number → leaf table.
    directory: Directory,
    /// Region bases in address order, for placement and iteration (the
    /// access fast path never touches this).
    by_base: BTreeMap<u64, u32>,
    /// Direct-mapped TLB: slot `page % 256` caches the page's region id.
    /// `Cell` so loads, which take `&self`, can refill it.
    tlb: [Cell<TlbEntry>; TLB_ENTRIES],
    /// Total mapped bytes, maintained incrementally.
    total_mapped: usize,
    /// Retired leaf tables (all entries `NO_REGION`) kept for reuse, so a
    /// long-lived executor that resets the arena between inputs does not
    /// pay a 2 KiB allocation per leaf per input. The boxes are the point:
    /// they are the exact heap allocations `Leaf` uses, moved between this
    /// pool and the directory without copying the 2 KiB table.
    #[allow(clippy::vec_box)]
    spare_leaves: Vec<Box<[u32; CHUNK_PAGES]>>,
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new()
    }
}

impl Arena {
    /// Creates an empty address space.
    #[must_use]
    pub fn new() -> Self {
        Arena {
            slab: Vec::new(),
            free_ids: Vec::new(),
            directory: Directory::default(),
            by_base: BTreeMap::new(),
            tlb: std::array::from_fn(|_| Cell::new(INVALID_ENTRY)),
            total_mapped: 0,
            spare_leaves: Vec::new(),
        }
    }

    /// Unmaps everything, returning the arena to its freshly-created state
    /// while *keeping* translation structures for reuse: leaf tables retire
    /// to a spare pool and the slab/free-list vectors keep their capacity.
    ///
    /// This is what makes a long-lived replica worker cheap: between
    /// inputs its address space is reset, not rebuilt, so the next input's
    /// mappings recycle the previous input's page-table allocations — the
    /// same way real hardware reuses page frames instead of re-fabricating
    /// them. A reset arena is observationally identical to `Arena::new()`:
    /// region ids restart at 0, every TLB entry is invalid, and no mapping
    /// survives (the reuse property tests pin this).
    pub fn reset(&mut self) {
        for (_, mut leaf) in self.directory.drain() {
            if self.spare_leaves.len() >= SPARE_LEAF_CAP {
                break;
            }
            leaf.entries.fill(NO_REGION);
            self.spare_leaves.push(leaf.entries);
        }
        self.directory.clear();
        self.slab.clear();
        self.free_ids.clear();
        self.by_base.clear();
        self.total_mapped = 0;
        for entry in &self.tlb {
            entry.set(INVALID_ENTRY);
        }
    }

    /// Maps a zero-filled region of at least `len` bytes at a random
    /// page-aligned address and returns its base.
    ///
    /// The length is rounded up to a whole number of pages. Placement leaves
    /// a guard page on either side so overflows that escape a region fault
    /// instead of corrupting a neighbouring one — the same assumption the
    /// paper makes for overflows that cross miniheap boundaries (§5.1).
    ///
    /// # Panics
    ///
    /// Panics if no free slot can be found, which only happens if the
    /// simulated 47-bit space has been exhausted.
    pub fn map(&mut self, len: usize, rng: &mut Rng) -> Addr {
        self.try_map(len, rng)
            .expect("simulated address space exhausted")
    }

    /// Fallible variant of [`Arena::map`].
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::ExhaustedAddressSpace`] if no non-overlapping
    /// placement is found.
    pub fn try_map(&mut self, len: usize, rng: &mut Rng) -> Result<Addr, MemFault> {
        let len = round_up_pages(len);
        let span = len as u64;
        let slots = (HIGH_ADDR - LOW_ADDR - span) / PAGE_SIZE as u64;
        for _ in 0..PLACEMENT_ATTEMPTS {
            let base = LOW_ADDR + rng.below(slots) * PAGE_SIZE as u64;
            if self.is_range_free(base, span) {
                self.insert_region(base, len);
                return Ok(Addr::new(base));
            }
        }
        Err(MemFault::ExhaustedAddressSpace { len })
    }

    /// Maps a zero-filled region at a caller-chosen page-aligned address.
    ///
    /// Used by the deterministic baseline allocator and by tests.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::ExhaustedAddressSpace`] if the range overlaps an
    /// existing region (including guard pages) or is not page-aligned.
    pub fn map_at(&mut self, base: Addr, len: usize) -> Result<(), MemFault> {
        let len = round_up_pages(len);
        if !base.get().is_multiple_of(PAGE_SIZE as u64)
            || base.get() < LOW_ADDR
            || base.get().saturating_add(len as u64) > HIGH_ADDR
            || !self.is_range_free(base.get(), len as u64)
        {
            return Err(MemFault::ExhaustedAddressSpace { len });
        }
        self.insert_region(base.get(), len);
        Ok(())
    }

    /// Unmaps the region based at `base`.
    ///
    /// Only this region's TLB entries are invalidated; cached translations
    /// for every other region stay hot.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::Unmapped`] if `base` is not the base of a mapping.
    pub fn unmap(&mut self, base: Addr) -> Result<(), MemFault> {
        let Some(idx) = self.by_base.remove(&base.get()) else {
            return Err(MemFault::Unmapped { addr: base });
        };
        let region = self.slab[idx as usize]
            .take()
            .expect("page table referenced a live region");
        self.total_mapped -= region.data.len();
        let first_page = region.base >> PAGE_SHIFT;
        for page in first_page..first_page + (region.data.len() / PAGE_SIZE) as u64 {
            let chunk = page >> CHUNK_SHIFT;
            let leaf = self
                .directory
                .get_mut(&chunk)
                .expect("mapped page has a leaf table");
            leaf.entries[page as usize & (CHUNK_PAGES - 1)] = NO_REGION;
            leaf.mapped -= 1;
            if leaf.mapped == 0 {
                // Every entry is NO_REGION again: retire the leaf's table
                // to the spare pool instead of freeing it.
                if let Some(leaf) = self.directory.remove(&chunk) {
                    if self.spare_leaves.len() < SPARE_LEAF_CAP {
                        self.spare_leaves.push(leaf.entries);
                    }
                }
            }
        }
        // Precise shootdown: drop only translations that named this region.
        for entry in &self.tlb {
            if entry.get().region == idx {
                entry.set(INVALID_ENTRY);
            }
        }
        self.free_ids.push(idx);
        Ok(())
    }

    fn insert_region(&mut self, base: u64, len: usize) {
        let idx = match self.free_ids.pop() {
            Some(idx) => idx,
            None => {
                assert!(
                    self.slab.len() < NO_REGION as usize,
                    "region id space exhausted"
                );
                self.slab.push(None);
                (self.slab.len() - 1) as u32
            }
        };
        self.slab[idx as usize] = Some(Region {
            base,
            data: vec![0u8; len],
        });
        self.by_base.insert(base, idx);
        self.total_mapped += len;
        let first_page = base >> PAGE_SHIFT;
        for page in first_page..first_page + (len / PAGE_SIZE) as u64 {
            let spare = &mut self.spare_leaves;
            let leaf = self
                .directory
                .entry(page >> CHUNK_SHIFT)
                .or_insert_with(|| Leaf {
                    entries: spare
                        .pop()
                        .unwrap_or_else(|| Box::new([NO_REGION; CHUNK_PAGES])),
                    mapped: 0,
                });
            debug_assert_eq!(
                leaf.entries[page as usize & (CHUNK_PAGES - 1)],
                NO_REGION,
                "double-mapped page"
            );
            leaf.entries[page as usize & (CHUNK_PAGES - 1)] = idx;
            leaf.mapped += 1;
        }
    }

    fn is_range_free(&self, base: u64, span: u64) -> bool {
        // Expand by one guard page on each side.
        let lo = base.saturating_sub(PAGE_SIZE as u64);
        let hi = base + span + PAGE_SIZE as u64;
        // Any region starting before `hi` whose end is after `lo` overlaps.
        if let Some((&start, &idx)) = self.by_base.range(..hi).next_back() {
            if start + self.region(idx).data.len() as u64 > lo {
                return false;
            }
        }
        true
    }

    #[inline]
    fn region(&self, idx: u32) -> &Region {
        self.slab[idx as usize]
            .as_ref()
            .expect("page table referenced a live region")
    }

    #[inline]
    fn region_mut(&mut self, idx: u32) -> &mut Region {
        self.slab[idx as usize]
            .as_mut()
            .expect("page table referenced a live region")
    }

    /// Walks the page table (no TLB) to the id of the region mapping `page`.
    #[inline]
    fn walk(&self, page: u64) -> Option<u32> {
        let leaf = self.directory.get(&(page >> CHUNK_SHIFT))?;
        match leaf.entries[page as usize & (CHUNK_PAGES - 1)] {
            NO_REGION => None,
            region => Some(region),
        }
    }

    /// Translates `addr`'s page to the id of its owning region.
    ///
    /// Fast path: one TLB probe (array index + compare). Miss path: one
    /// hash lookup and one leaf index, then the TLB is refilled. Both are
    /// O(1) in the number of live regions.
    #[inline]
    fn translate(&self, addr: Addr) -> Result<u32, MemFault> {
        let page = addr.get() >> PAGE_SHIFT;
        let slot = &self.tlb[page as usize & (TLB_ENTRIES - 1)];
        let cached = slot.get();
        if cached.page == page {
            return Ok(cached.region);
        }
        let region = self.walk(page).ok_or(MemFault::Unmapped { addr })?;
        slot.set(TlbEntry { page, region });
        Ok(region)
    }

    /// Bounds-checks an access of `len` bytes inside `region`.
    ///
    /// Regions are page-aligned and whole pages, so a mapped page implies
    /// `addr` is inside the region: only the end can overrun.
    #[inline]
    fn bounds_check(region: &Region, addr: Addr, len: usize) -> Result<usize, MemFault> {
        let off = (addr.get() - region.base) as usize;
        if off as u64 + len as u64 > region.data.len() as u64 {
            return Err(MemFault::OutOfBounds { addr, len });
        }
        Ok(off)
    }

    /// Translates `addr` and bounds-checks an access of `len` bytes,
    /// returning the owning region's id and the byte offset within it.
    #[inline]
    fn locate(&self, addr: Addr, len: usize) -> Result<(u32, usize), MemFault> {
        let idx = self.translate(addr)?;
        let off = Self::bounds_check(self.region(idx), addr, len)?;
        Ok((idx, off))
    }

    /// Translates and bounds-checks a read access, returning the owning
    /// region and the byte offset within it.
    #[inline]
    fn locate_ref(&self, addr: Addr, len: usize) -> Result<(&Region, usize), MemFault> {
        let region = self.region(self.translate(addr)?);
        let off = Self::bounds_check(region, addr, len)?;
        Ok((region, off))
    }

    /// Translates and bounds-checks a write access, returning the owning
    /// region mutably and the byte offset within it. A faulting store
    /// never gets this far, so it modifies nothing.
    #[inline]
    fn locate_mut(&mut self, addr: Addr, len: usize) -> Result<(&mut Region, usize), MemFault> {
        let (idx, off) = self.locate(addr, len)?;
        Ok((self.region_mut(idx), off))
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults if the range is not entirely inside one mapped region.
    #[inline]
    pub fn read_bytes(&self, addr: Addr, len: usize) -> Result<&[u8], MemFault> {
        let (region, off) = self.locate_ref(addr, len)?;
        Ok(&region.data[off..off + len])
    }

    /// Writes `bytes` starting at `addr`. All-or-nothing: a faulting write
    /// modifies no memory.
    ///
    /// # Errors
    ///
    /// Faults if the range is not entirely inside one mapped region.
    #[inline]
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), MemFault> {
        let (region, off) = self.locate_mut(addr, bytes.len())?;
        region.data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Faults if `addr` is unmapped.
    #[inline]
    pub fn read_u8(&self, addr: Addr) -> Result<u8, MemFault> {
        Ok(self.read_bytes(addr, 1)?[0])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Faults if `addr` is unmapped.
    #[inline]
    pub fn write_u8(&mut self, addr: Addr, value: u8) -> Result<(), MemFault> {
        self.write_bytes(addr, &[value])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Faults if the 4-byte range is not mapped.
    #[inline]
    pub fn read_u32(&self, addr: Addr) -> Result<u32, MemFault> {
        let b = self.read_bytes(addr, 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Writes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Faults if the 4-byte range is not mapped.
    #[inline]
    pub fn write_u32(&mut self, addr: Addr, value: u32) -> Result<(), MemFault> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Faults if the 8-byte range is not mapped.
    #[inline]
    pub fn read_u64(&self, addr: Addr) -> Result<u64, MemFault> {
        let b = self.read_bytes(addr, 8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Faults if the 8-byte range is not mapped.
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, value: u64) -> Result<(), MemFault> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Reads an [`Addr`]-sized pointer value.
    ///
    /// # Errors
    ///
    /// Faults if the 8-byte range is not mapped.
    #[inline]
    pub fn read_addr(&self, addr: Addr) -> Result<Addr, MemFault> {
        Ok(Addr::new(self.read_u64(addr)?))
    }

    /// Stores an [`Addr`]-sized pointer value.
    ///
    /// # Errors
    ///
    /// Faults if the 8-byte range is not mapped.
    #[inline]
    pub fn write_addr(&mut self, addr: Addr, value: Addr) -> Result<(), MemFault> {
        self.write_u64(addr, value.get())
    }

    /// Fills `len` bytes starting at `addr` with `value`.
    ///
    /// # Errors
    ///
    /// Faults if the range is not entirely inside one mapped region.
    #[inline]
    pub fn fill(&mut self, addr: Addr, len: usize, value: u8) -> Result<(), MemFault> {
        let (region, off) = self.locate_mut(addr, len)?;
        region.data[off..off + len].fill(value);
        Ok(())
    }

    /// Fills `len` bytes with a repeating little-endian `u32` pattern,
    /// truncating the final word if `len` is not a multiple of four. This is
    /// how DieFast writes canaries into freed objects.
    ///
    /// # Errors
    ///
    /// Faults if the range is not entirely inside one mapped region.
    pub fn fill_pattern_u32(
        &mut self,
        addr: Addr,
        len: usize,
        pattern: u32,
    ) -> Result<(), MemFault> {
        let (region, off) = self.locate_mut(addr, len)?;
        let pat = pattern.to_le_bytes();
        let dst = &mut region.data[off..off + len];
        let whole = len - len % 4;
        for chunk in dst[..whole].chunks_exact_mut(4) {
            chunk.copy_from_slice(&pat);
        }
        for (i, slot) in dst[whole..].iter_mut().enumerate() {
            *slot = pat[i];
        }
        Ok(())
    }

    /// Compares `len` bytes at `addr` against a repeating little-endian
    /// `u32` pattern (phase-aligned to `addr`, like
    /// [`Arena::fill_pattern_u32`]) and returns the offset of the first
    /// mismatching byte, or `None` if the whole range matches.
    ///
    /// This is DieFast's canary check as one bulk operation: word-at-a-time
    /// comparison instead of a bounds-checked simulated load per byte.
    ///
    /// # Errors
    ///
    /// Faults if the range is not entirely inside one mapped region.
    pub fn compare_pattern(
        &self,
        addr: Addr,
        len: usize,
        pattern: u32,
    ) -> Result<Option<usize>, MemFault> {
        let (region, off) = self.locate_ref(addr, len)?;
        Ok(first_mismatch(&region.data[off..off + len], pattern))
    }

    /// [`Arena::compare_pattern`] and [`Arena::fill`] over the same range as
    /// one operation — one translation, one bounds check: if `expect` names
    /// a pattern and the range does not hold it, returns the offset of the
    /// first mismatching byte and changes **nothing**; otherwise fills the
    /// range with `value` and returns `None`.
    ///
    /// This is DieFast's `malloc`: verify the reserved slot's canary and,
    /// only if it is intact, zero the slot for the application. A corrupted
    /// slot is evidence for the error isolator and must stay exactly as the
    /// overflow left it.
    ///
    /// # Errors
    ///
    /// Faults if the range is not entirely inside one mapped region; a
    /// faulting call neither compares nor fills.
    pub fn check_and_fill(
        &mut self,
        addr: Addr,
        len: usize,
        expect: Option<u32>,
        value: u8,
    ) -> Result<Option<usize>, MemFault> {
        let (idx, off) = self.locate(addr, len)?;
        if let Some(pattern) = expect {
            let held = &self.region(idx).data[off..off + len];
            let mismatch = first_mismatch(held, pattern);
            if mismatch.is_some() {
                return Ok(mismatch);
            }
        }
        self.region_mut(idx).data[off..off + len].fill(value);
        Ok(None)
    }

    /// Copies `out.len()` bytes starting at `addr` into `out`.
    ///
    /// # Errors
    ///
    /// Faults if the range is not entirely inside one mapped region.
    pub fn copy_out(&self, addr: Addr, out: &mut [u8]) -> Result<(), MemFault> {
        let (region, off) = self.locate_ref(addr, out.len())?;
        out.copy_from_slice(&region.data[off..off + out.len()]);
        Ok(())
    }

    /// Returns a zero-copy view of the entire region containing `addr`, as
    /// `(region base, region bytes)`. This is how heap-image capture reads
    /// a whole miniheap with one translation instead of one per slot.
    #[must_use]
    pub fn region_snapshot(&self, addr: Addr) -> Option<(Addr, &[u8])> {
        let region = self.region(self.walk(addr.get() >> PAGE_SHIFT)?);
        Some((Addr::new(region.base), &region.data))
    }

    /// Returns the base and length of the region containing `addr`.
    #[must_use]
    pub fn region_of(&self, addr: Addr) -> Option<(Addr, usize)> {
        let (base, data) = self.region_snapshot(addr)?;
        Some((base, data.len()))
    }

    /// Iterates over `(base, len)` for every mapped region, in address order.
    pub fn regions(&self) -> impl Iterator<Item = (Addr, usize)> + '_ {
        self.by_base
            .iter()
            .map(|(&base, &idx)| (Addr::new(base), self.region(idx).data.len()))
    }

    /// Total mapped bytes.
    #[must_use]
    pub fn mapped_bytes(&self) -> usize {
        self.total_mapped
    }
}

/// Offset of the first byte of `bytes` that differs from the repeating
/// little-endian `pattern` (phase-aligned to `bytes[0]`), if any — the one
/// scanner behind [`Arena::compare_pattern`] and [`Arena::check_and_fill`].
fn first_mismatch(bytes: &[u8], pattern: u32) -> Option<usize> {
    let pat = pattern.to_le_bytes();
    // Double the pattern up to 64 bits and compare 8 bytes per step (the
    // pattern's phase stays aligned because steps are multiples of four);
    // only a differing word gets a per-byte look.
    let pat64 = u64::from(pattern) | (u64::from(pattern) << 32);
    let whole = bytes.len() - bytes.len() % 8;
    let clean_until = bytes[..whole]
        .chunks_exact(8)
        .position(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")) != pat64)
        .map_or(whole, |c| c * 8);
    (clean_until..bytes.len()).find(|&i| bytes[i] != pat[i % 4])
}

fn round_up_pages(len: usize) -> usize {
    let len = len.max(1);
    len.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena_with_region(len: usize) -> (Arena, Addr) {
        let mut arena = Arena::new();
        let mut rng = Rng::new(1234);
        let base = arena.map(len, &mut rng);
        (arena, base)
    }

    #[test]
    fn map_rounds_to_pages_and_zero_fills() {
        let (arena, base) = arena_with_region(100);
        assert_eq!(arena.region_of(base), Some((base, PAGE_SIZE)));
        assert_eq!(arena.read_bytes(base, PAGE_SIZE).unwrap(), &[0u8; 4096][..]);
    }

    #[test]
    fn read_write_round_trip() {
        let (mut arena, base) = arena_with_region(4096);
        arena.write_u64(base + 8, 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(arena.read_u64(base + 8).unwrap(), 0x0123_4567_89ab_cdef);
        arena.write_u32(base + 16, 0xdead_beef).unwrap();
        assert_eq!(arena.read_u32(base + 16).unwrap(), 0xdead_beef);
        arena.write_u8(base + 20, 7).unwrap();
        assert_eq!(arena.read_u8(base + 20).unwrap(), 7);
        arena.write_addr(base + 24, base).unwrap();
        assert_eq!(arena.read_addr(base + 24).unwrap(), base);
    }

    #[test]
    fn unmapped_access_faults() {
        let arena = Arena::new();
        let err = arena.read_u8(Addr::new(0x5000_0000)).unwrap_err();
        assert!(matches!(err, MemFault::Unmapped { .. }));
    }

    #[test]
    fn null_dereference_faults() {
        let arena = Arena::new();
        assert!(arena.read_u8(Addr::NULL).is_err());
        assert!(arena.read_u8(Addr::NULL + 16).is_err());
    }

    #[test]
    fn access_past_region_end_faults() {
        let (arena, base) = arena_with_region(4096);
        let err = arena.read_bytes(base + 4090, 16).unwrap_err();
        assert!(matches!(err, MemFault::OutOfBounds { .. }));
        assert!(arena.read_u8(base + 4096).is_err());
    }

    #[test]
    fn faulting_write_is_all_or_nothing() {
        let (mut arena, base) = arena_with_region(4096);
        arena.fill(base, 4096, 0xaa).unwrap();
        let err = arena
            .write_bytes(base + 4092, &[1, 2, 3, 4, 5, 6])
            .unwrap_err();
        assert!(matches!(err, MemFault::OutOfBounds { .. }));
        // Nothing was modified.
        assert_eq!(arena.read_bytes(base + 4092, 4).unwrap(), &[0xaa; 4]);
    }

    #[test]
    fn regions_have_guard_gaps() {
        let mut arena = Arena::new();
        let mut rng = Rng::new(7);
        let bases: Vec<Addr> = (0..64).map(|_| arena.map(PAGE_SIZE, &mut rng)).collect();
        for (i, &a) in bases.iter().enumerate() {
            for &b in &bases[i + 1..] {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                assert!(
                    hi - lo >= 2 * PAGE_SIZE as u64,
                    "regions at {lo} and {hi} lack a guard gap"
                );
            }
        }
    }

    #[test]
    fn unmap_then_access_faults() {
        let (mut arena, base) = arena_with_region(4096);
        arena.unmap(base).unwrap();
        assert!(arena.read_u8(base).is_err());
        assert!(matches!(arena.unmap(base), Err(MemFault::Unmapped { .. })));
    }

    #[test]
    fn map_at_rejects_overlap() {
        let mut arena = Arena::new();
        arena.map_at(Addr::new(0x1000_0000), 4096).unwrap();
        // Same page.
        assert!(arena.map_at(Addr::new(0x1000_0000), 4096).is_err());
        // Guard page adjacency is also rejected.
        assert!(arena.map_at(Addr::new(0x1000_1000), 4096).is_err());
        // Two pages away is fine.
        arena.map_at(Addr::new(0x1000_2000), 4096).unwrap();
    }

    #[test]
    fn map_at_rejects_unaligned() {
        let mut arena = Arena::new();
        assert!(arena.map_at(Addr::new(0x1000_0010), 4096).is_err());
    }

    #[test]
    fn fill_pattern_repeats_and_truncates() {
        let (mut arena, base) = arena_with_region(4096);
        arena.fill_pattern_u32(base, 10, 0x0403_0201).unwrap();
        assert_eq!(
            arena.read_bytes(base, 10).unwrap(),
            &[1, 2, 3, 4, 1, 2, 3, 4, 1, 2]
        );
    }

    #[test]
    fn region_iteration_and_accounting() {
        let mut arena = Arena::new();
        let mut rng = Rng::new(2);
        arena.map(PAGE_SIZE, &mut rng);
        arena.map(3 * PAGE_SIZE, &mut rng);
        assert_eq!(arena.mapped_bytes(), 4 * PAGE_SIZE);
        assert_eq!(arena.regions().count(), 2);
        let bases: Vec<u64> = arena.regions().map(|(a, _)| a.get()).collect();
        assert!(bases.windows(2).all(|w| w[0] < w[1]), "regions not sorted");
    }

    #[test]
    fn placement_is_randomized_across_seeds() {
        let mut a1 = Arena::new();
        let mut a2 = Arena::new();
        let b1 = a1.map(4096, &mut Rng::new(1));
        let b2 = a2.map(4096, &mut Rng::new(2));
        assert_ne!(b1, b2, "two seeds produced identical placement");
    }

    #[test]
    fn compare_pattern_finds_first_mismatch() {
        let (mut arena, base) = arena_with_region(4096);
        arena.fill_pattern_u32(base, 100, 0xABCD_EF01).unwrap();
        assert_eq!(arena.compare_pattern(base, 100, 0xABCD_EF01).unwrap(), None);
        // Aligned word mismatch.
        arena.write_u8(base + 41, 0x5A).unwrap();
        assert_eq!(
            arena.compare_pattern(base, 100, 0xABCD_EF01).unwrap(),
            Some(41)
        );
        // Mismatch in the truncated tail word.
        arena.fill_pattern_u32(base, 100, 0xABCD_EF01).unwrap();
        arena.write_u8(base + 98, 0x5A).unwrap();
        assert_eq!(
            arena.compare_pattern(base, 99, 0xABCD_EF01).unwrap(),
            Some(98)
        );
        // Out-of-bounds compare faults like any other access.
        assert!(arena.compare_pattern(base + 4092, 8, 1).is_err());
    }

    #[test]
    fn copy_out_matches_read_bytes() {
        let (mut arena, base) = arena_with_region(4096);
        arena.write_bytes(base + 7, b"exterminate").unwrap();
        let mut buf = [0u8; 11];
        arena.copy_out(base + 7, &mut buf).unwrap();
        assert_eq!(&buf, b"exterminate");
        let mut big = [0u8; 16];
        assert!(arena.copy_out(base + 4090, &mut big).is_err());
    }

    #[test]
    fn region_snapshot_is_whole_region() {
        let (mut arena, base) = arena_with_region(2 * 4096);
        arena.write_u8(base + 5000, 9).unwrap();
        let (snap_base, bytes) = arena.region_snapshot(base + 6000).unwrap();
        assert_eq!(snap_base, base);
        assert_eq!(bytes.len(), 2 * 4096);
        assert_eq!(bytes[5000], 9);
        assert!(arena.region_snapshot(Addr::new(0x2000)).is_none());
    }

    /// Regression test: unmapping one region must not poison cached
    /// translations of *other* regions (the old single-entry cache was
    /// flushed whole on any unmap; worse, a stale entry must never
    /// resurrect the dead region).
    #[test]
    fn unmap_keeps_unrelated_translations_correct() {
        let mut arena = Arena::new();
        let mut rng = Rng::new(99);
        let a = arena.map(4096, &mut rng);
        let b = arena.map(4096, &mut rng);
        let c = arena.map(4096, &mut rng);
        arena.write_u64(a, 0xA).unwrap();
        arena.write_u64(b, 0xB).unwrap();
        arena.write_u64(c, 0xC).unwrap();
        // Warm translations for all three, then unmap B.
        assert_eq!(arena.read_u64(a).unwrap(), 0xA);
        assert_eq!(arena.read_u64(b).unwrap(), 0xB);
        assert_eq!(arena.read_u64(c).unwrap(), 0xC);
        arena.unmap(b).unwrap();
        // A and C still translate (and correctly); B faults.
        assert_eq!(arena.read_u64(a).unwrap(), 0xA);
        assert_eq!(arena.read_u64(c).unwrap(), 0xC);
        assert!(matches!(arena.read_u64(b), Err(MemFault::Unmapped { .. })));
        // A fresh region may reuse B's internal id; the old address must
        // still fault and the new one must read its own zeroed memory.
        let d = arena.map(4096, &mut rng);
        assert!(arena.read_u64(b).is_err() || b == d);
        assert_eq!(arena.read_u64(d).unwrap(), 0);
        assert_eq!(arena.read_u64(a).unwrap(), 0xA);
    }

    /// A reset arena must be observationally identical to a fresh one:
    /// identical placement under the same RNG, no surviving mappings, no
    /// stale TLB entries — the property pooled replica reuse stands on.
    #[test]
    fn reset_arena_replays_like_fresh() {
        let mut reused = Arena::new();
        // A first "input": map, write, unmap some, then reset.
        let mut rng = Rng::new(5);
        let bases: Vec<Addr> = (0..32)
            .map(|_| reused.map(2 * PAGE_SIZE, &mut rng))
            .collect();
        for (i, &b) in bases.iter().enumerate() {
            reused.write_u64(b, i as u64).unwrap();
        }
        for &b in bases.iter().step_by(2) {
            reused.unmap(b).unwrap();
        }
        reused.reset();
        assert_eq!(reused.mapped_bytes(), 0);
        assert_eq!(reused.regions().count(), 0);
        for &b in &bases {
            assert!(reused.read_u8(b).is_err(), "mapping survived reset");
        }
        // A second "input" must replay exactly like a fresh arena under the
        // same seed: same placements, same contents, zeroed memory.
        let mut fresh = Arena::new();
        let mut rng_a = Rng::new(77);
        let mut rng_b = Rng::new(77);
        for round in 0u64..64 {
            let a = reused.map(PAGE_SIZE, &mut rng_a);
            let b = fresh.map(PAGE_SIZE, &mut rng_b);
            assert_eq!(a, b, "placement diverged at round {round}");
            assert_eq!(reused.read_u64(a).unwrap(), 0, "stale bytes after reset");
            reused.write_u64(a, round).unwrap();
            fresh.write_u64(b, round).unwrap();
        }
        assert_eq!(reused.mapped_bytes(), fresh.mapped_bytes());
    }

    /// Repeated reset/map cycles recycle leaf tables rather than growing
    /// the spare pool without bound.
    #[test]
    fn reset_recycles_leaves_across_cycles() {
        let mut arena = Arena::new();
        for cycle in 0u64..10 {
            let mut rng = Rng::new(cycle + 1);
            let bases: Vec<Addr> = (0..16).map(|_| arena.map(PAGE_SIZE, &mut rng)).collect();
            for &b in &bases {
                arena.write_u64(b, cycle).unwrap();
                assert_eq!(arena.read_u64(b).unwrap(), cycle);
            }
            arena.reset();
            assert!(
                arena.spare_leaves.len() <= SPARE_LEAF_CAP,
                "spare pool exceeded its cap"
            );
            assert!(
                cycle == 0 || !arena.spare_leaves.is_empty(),
                "reset retired no leaves for reuse"
            );
        }
    }

    /// Two regions whose pages collide in the direct-mapped TLB must evict
    /// each other without ever returning the wrong region's bytes.
    #[test]
    fn tlb_conflict_misses_stay_correct() {
        let mut arena = Arena::new();
        // Pages 0x10000 and 0x10100 share TLB slot 0 (256-entry TLB).
        let a = Addr::new(0x1000_0000);
        let b = Addr::new(0x1010_0000);
        arena.map_at(a, 4096).unwrap();
        arena.map_at(b, 4096).unwrap();
        arena.write_u64(a, 1).unwrap();
        arena.write_u64(b, 2).unwrap();
        for _ in 0..100 {
            assert_eq!(arena.read_u64(a).unwrap(), 1);
            assert_eq!(arena.read_u64(b).unwrap(), 2);
        }
        arena.unmap(a).unwrap();
        assert!(arena.read_u64(a).is_err());
        assert_eq!(arena.read_u64(b).unwrap(), 2);
    }

    /// Interleaved map/unmap/access across many regions: every read sees
    /// the bytes its region was stamped with, never a stale translation.
    #[test]
    fn interleaved_map_unmap_read_sequence() {
        let mut arena = Arena::new();
        let mut rng = Rng::new(42);
        let mut live: Vec<(Addr, u64)> = Vec::new();
        for round in 0u64..200 {
            if live.len() >= 8 {
                let (victim, _) = live.swap_remove((round % 8) as usize);
                arena.unmap(victim).unwrap();
                assert!(arena.read_u8(victim).is_err());
            }
            let base = arena.map(4096, &mut rng);
            arena.write_u64(base, round).unwrap();
            live.push((base, round));
            for &(addr, stamp) in &live {
                assert_eq!(arena.read_u64(addr).unwrap(), stamp);
            }
        }
    }
}
