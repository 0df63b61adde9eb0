//! The heap image structure, capture, and (de)serialization.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use xt_alloc::{AllocTime, Heap, ObjectId, SiteHash};
use xt_arena::{Addr, Arena};
use xt_diefast::DieFastHeap;
use xt_diehard::{MiniHeap, MiniHeapId, SlotMeta, SlotState};

use crate::{ByteReader, ByteWriter, ImageDecodeError};

const MAGIC: u32 = 0x5849_4D47; // "XIMG"
const VERSION: u32 = 1;

/// Encoded bytes of a miniheap record before its slots (class, index,
/// base, object size, creation time, slot count).
const MINIHEAP_HEADER_LEN: usize = 4 + 4 + 8 + 4 + 8 + 4;

/// Encoded bytes of a slot record before its `object_size` data bytes
/// (the three state bytes, object id, two sites, two times, requested
/// size).
const SLOT_HEADER_LEN: usize = 3 + 8 + 4 + 4 + 8 + 8 + 4;

/// The three header bytes each [`SlotState`] encodes as, in declaration
/// order: a state code, a canary bit and an ever-used bit, the layout of
/// the format's first version. No other triple decodes.
const STATE_BYTES: [(SlotState, [u8; 3]); 5] = [
    (SlotState::Unused, [0, 0, 0]),
    (SlotState::Live, [1, 0, 1]),
    (SlotState::Freed, [0, 0, 1]),
    (SlotState::Canaried, [0, 1, 1]),
    (SlotState::Bad, [2, 1, 1]),
];

/// Everything recorded about one object slot: the allocator's own metadata
/// for it, and its contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlotImage {
    /// The slot's metadata at capture time (state, occupant, sites, times,
    /// requested size).
    pub meta: SlotMeta,
    /// The slot's full contents (object-size bytes).
    pub data: Box<[u8]>,
}

/// One miniheap's snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MiniHeapImage {
    /// The miniheap's identity (size class + ordinal).
    pub id: MiniHeapId,
    /// Base address of slot 0 in the source heap.
    pub base: Addr,
    /// Object size in bytes.
    pub object_size: u32,
    /// Allocation time at which the miniheap was created (`τ(M_j)`).
    pub created_at: AllocTime,
    /// All slots, in address order.
    pub slots: Vec<SlotImage>,
}

impl MiniHeapImage {
    /// Address of slot `idx` in the source heap.
    #[must_use]
    pub fn slot_addr(&self, idx: usize) -> Addr {
        self.base + (idx as u64) * u64::from(self.object_size)
    }

    /// End address (exclusive) of the slot area.
    #[must_use]
    pub fn end(&self) -> Addr {
        self.slot_addr(self.slots.len())
    }
}

/// Position of a slot within a heap image.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObjectRef {
    /// Index into [`HeapImage::miniheaps`] (from
    /// [`scan_live_canary_corruptions`]: into the heap's miniheaps, in the
    /// same order).
    pub miniheap: usize,
    /// Slot index within that miniheap.
    pub slot: usize,
}

/// The result of resolving a raw address against an image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedAddr {
    /// The slot containing the address.
    pub slot: ObjectRef,
    /// The occupant's object id.
    pub object_id: ObjectId,
    /// Byte offset of the address within the slot.
    pub offset: u64,
    /// The slot's state.
    pub state: SlotState,
}

/// A corrupted canary found by scanning an image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CanaryCorruption {
    /// The corrupted slot.
    pub slot: ObjectRef,
    /// Its base address in the source heap.
    pub addr: Addr,
    /// Identity of the slot's most recent occupant.
    pub object_id: ObjectId,
    /// Offset of the first corrupted byte within the slot.
    pub first_bad: usize,
    /// Offset one past the last corrupted byte.
    pub end_bad: usize,
    /// Number of mismatching bytes in `[first_bad, end_bad)`.
    pub n_bad: usize,
}

/// Why a heap could not be captured: the allocator's metadata named memory
/// the arena does not back. Either is the signature of corrupted heap
/// metadata (or a caller unmapping behind the allocator's back), so capture
/// reports it as a diagnosable error instead of panicking in the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaptureError {
    /// A miniheap's base address had no mapped region behind it.
    UnmappedMiniHeap {
        /// Identity of the miniheap.
        id: MiniHeapId,
        /// Its recorded base address.
        base: Addr,
    },
    /// A slot extended past the end of the region backing its miniheap.
    TruncatedRegion {
        /// Identity of the miniheap.
        id: MiniHeapId,
        /// Its recorded base address.
        base: Addr,
        /// Index of the slot that did not fit.
        slot: usize,
        /// Bytes of backing the slot needed, measured from the region base.
        needed: usize,
        /// Bytes the region actually has.
        region_len: usize,
    },
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::UnmappedMiniHeap { id, base } => {
                write!(f, "miniheap {id:?} at {base:?} has no mapped region")
            }
            CaptureError::TruncatedRegion {
                id,
                base,
                slot,
                needed,
                region_len,
            } => write!(
                f,
                "miniheap {id:?} at {base:?}: slot {slot} needs {needed} bytes \
                 but the backing region has {region_len}"
            ),
        }
    }
}

impl Error for CaptureError {}

/// A complete snapshot of a DieFast heap.
///
/// # Example
///
/// ```
/// use xt_alloc::{Heap, SiteHash};
/// use xt_diefast::{DieFastConfig, DieFastHeap};
/// use xt_image::HeapImage;
///
/// # fn main() -> Result<(), xt_alloc::HeapError> {
/// let mut heap = DieFastHeap::new(DieFastConfig::with_seed(3));
/// let p = heap.malloc(32, SiteHash::from_raw(0xC0DE))?;
/// heap.arena_mut().write_u64(p, 99).unwrap();
/// let image = HeapImage::try_capture(&heap).expect("a heap the allocator built is arena-backed");
/// let obj = image.find_object(xt_alloc::ObjectId::from_raw(1)).unwrap();
/// assert_eq!(&image.slot(obj).data[..8], &99u64.to_le_bytes());
/// // Images round-trip through their binary format.
/// let bytes = image.to_bytes();
/// assert_eq!(HeapImage::from_bytes(&bytes).unwrap(), image);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct HeapImage {
    /// Allocation clock at capture ("the current allocation time").
    pub clock: AllocTime,
    /// The execution's random canary value.
    pub canary: u32,
    /// DieFast's canary fill probability `p`.
    pub fill_probability: f64,
    /// The heap multiplier `M`.
    pub multiplier: f64,
    /// Every miniheap, in (class, ordinal) order.
    pub miniheaps: Vec<MiniHeapImage>,
    index: HashMap<ObjectId, ObjectRef>,
    by_base: Vec<(u64, usize)>,
}

impl PartialEq for HeapImage {
    fn eq(&self, other: &Self) -> bool {
        self.clock == other.clock
            && self.canary == other.canary
            && self.fill_probability == other.fill_probability
            && self.multiplier == other.multiplier
            && self.miniheaps == other.miniheaps
    }
}

impl HeapImage {
    /// Captures the complete state of a DieFast heap. Capture only reads:
    /// the heap is left exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns a [`CaptureError`] if a miniheap's recorded geometry names
    /// memory the arena does not back — corrupted allocator metadata
    /// surfaces here as a diagnosable error, not a panic.
    pub fn try_capture(heap: &DieFastHeap) -> Result<Self, CaptureError> {
        let inner = heap.inner();
        let mut miniheaps = Vec::new();
        for mh in inner.miniheaps() {
            let region = miniheap_region(heap.arena(), mh)?;
            let mut slots = Vec::with_capacity(mh.n_slots());
            for idx in 0..mh.n_slots() {
                slots.push(SlotImage {
                    meta: *mh.meta(idx),
                    data: slot_bytes(mh, region, idx)?.into(),
                });
            }
            miniheaps.push(MiniHeapImage {
                id: mh.id(),
                base: mh.base(),
                object_size: mh.object_size() as u32,
                created_at: mh.created_at(),
                slots,
            });
        }
        Ok(Self::assemble(
            heap.clock(),
            heap.canary(),
            heap.fill_probability(),
            inner.config().multiplier,
            miniheaps,
        ))
    }

    /// [`HeapImage::try_capture`] under its old incremental name; `_base`
    /// is ignored. Kept only because `benchmark/`'s frozen surface calls
    /// it (the `image.capture_incr_us` probe); nothing else should.
    ///
    /// # Errors
    ///
    /// As [`HeapImage::try_capture`].
    pub fn try_capture_incremental(
        _base: &HeapImage,
        heap: &DieFastHeap,
    ) -> Result<Self, CaptureError> {
        Self::try_capture(heap)
    }

    fn assemble(
        clock: AllocTime,
        canary: u32,
        fill_probability: f64,
        multiplier: f64,
        miniheaps: Vec<MiniHeapImage>,
    ) -> Self {
        let mut index = HashMap::new();
        let mut by_base: Vec<(u64, usize)> = Vec::with_capacity(miniheaps.len());
        for (mh_idx, mh) in miniheaps.iter().enumerate() {
            by_base.push((mh.base.get(), mh_idx));
            for (slot_idx, slot) in mh.slots.iter().enumerate() {
                if slot.meta.state == SlotState::Unused {
                    continue;
                }
                let r = ObjectRef {
                    miniheap: mh_idx,
                    slot: slot_idx,
                };
                // An object id can label two slots after bad-object
                // isolation (the retired slot and the live replacement);
                // prefer the live one.
                match index.entry(slot.meta.object_id) {
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(r);
                    }
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let existing: ObjectRef = *e.get();
                        let existing_state =
                            miniheaps[existing.miniheap].slots[existing.slot].meta.state;
                        if slot.meta.state == SlotState::Live && existing_state != SlotState::Live {
                            e.insert(r);
                        }
                    }
                }
            }
        }
        by_base.sort_unstable();
        HeapImage {
            clock,
            canary,
            fill_probability,
            multiplier,
            miniheaps,
            index,
            by_base,
        }
    }

    /// Finds the slot currently associated with `id` (the live slot, if the
    /// object was ever re-placed by bad-object isolation).
    #[must_use]
    pub fn find_object(&self, id: ObjectId) -> Option<ObjectRef> {
        self.index.get(&id).copied()
    }

    /// The slot at `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a slot of this image.
    #[must_use]
    pub fn slot(&self, r: ObjectRef) -> &SlotImage {
        &self.miniheaps[r.miniheap].slots[r.slot]
    }

    /// The miniheap containing `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a slot of this image.
    #[must_use]
    pub fn miniheap_of(&self, r: ObjectRef) -> &MiniHeapImage {
        &self.miniheaps[r.miniheap]
    }

    /// Base address of the slot at `r` in the source heap.
    ///
    /// # Panics
    ///
    /// Panics if `r` does not refer to a slot of this image.
    #[must_use]
    pub fn slot_addr(&self, r: ObjectRef) -> Addr {
        self.miniheaps[r.miniheap].slot_addr(r.slot)
    }

    /// Resolves a raw address (e.g. a value found inside another object) to
    /// the slot containing it. This is the basis of the isolator's
    /// pointer-equivalence test: two values are "the same logical pointer"
    /// if they resolve to the same object id and offset in their respective
    /// images (§4.1).
    #[must_use]
    pub fn resolve_addr(&self, addr: Addr) -> Option<ResolvedAddr> {
        let raw = addr.get();
        let pos = self.by_base.partition_point(|&(base, _)| base <= raw);
        let (base, mh_idx) = *self.by_base.get(pos.checked_sub(1)?)?;
        let mh = &self.miniheaps[mh_idx];
        if addr >= mh.end() {
            return None;
        }
        let off = raw - base;
        let slot_idx = (off / u64::from(mh.object_size)) as usize;
        let slot = &mh.slots[slot_idx];
        Some(ResolvedAddr {
            slot: ObjectRef {
                miniheap: mh_idx,
                slot: slot_idx,
            },
            object_id: slot.meta.object_id,
            offset: off % u64::from(mh.object_size),
            state: slot.meta.state,
        })
    }

    /// Iterates over all live objects as `(ref, slot)` pairs.
    pub fn live_objects(&self) -> impl Iterator<Item = (ObjectRef, &SlotImage)> {
        self.slots()
            .filter(|(_, s)| s.meta.state == SlotState::Live)
    }

    /// Iterates over every slot of every miniheap.
    pub fn slots(&self) -> impl Iterator<Item = (ObjectRef, &SlotImage)> {
        self.miniheaps.iter().enumerate().flat_map(|(mi, mh)| {
            mh.slots.iter().enumerate().map(move |(si, s)| {
                (
                    ObjectRef {
                        miniheap: mi,
                        slot: si,
                    },
                    s,
                )
            })
        })
    }

    /// Scans every canaried slot for bytes that differ from the canary
    /// pattern — the corruption evidence both isolation families start
    /// from. Bad slots are included: they were retired *because* their
    /// canary was corrupt.
    #[must_use]
    pub fn scan_canary_corruptions(&self) -> Vec<CanaryCorruption> {
        self.slots()
            .filter(|(_, slot)| matches!(slot.meta.state, SlotState::Canaried | SlotState::Bad))
            .filter_map(|(r, slot)| {
                canary_corruption(
                    r,
                    self.slot_addr(r),
                    slot.meta.object_id,
                    &slot.data,
                    self.canary,
                )
            })
            .collect()
    }

    /// Encodes the image into its binary format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(MAGIC);
        w.u32(VERSION);
        w.u64(self.clock.raw());
        w.u32(self.canary);
        w.f64(self.fill_probability);
        w.f64(self.multiplier);
        w.u32(self.miniheaps.len() as u32);
        for mh in &self.miniheaps {
            w.u32(mh.id.class);
            w.u32(mh.id.index);
            w.u64(mh.base.get());
            w.u32(mh.object_size);
            w.u64(mh.created_at.raw());
            w.u32(mh.slots.len() as u32);
            for s in &mh.slots {
                let m = &s.meta;
                w.bytes(&STATE_BYTES[m.state as usize].1);
                w.u64(m.object_id.raw());
                w.u32(m.alloc_site.raw());
                w.u32(m.free_site.raw());
                w.u64(m.alloc_time.raw());
                w.u64(m.free_time.raw());
                w.u32(m.requested);
                w.bytes(&s.data);
            }
        }
        w.into_bytes()
    }

    /// Decodes an image from its binary format.
    ///
    /// # Errors
    ///
    /// Returns an [`ImageDecodeError`] for truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ImageDecodeError> {
        let mut r = ByteReader::new(bytes);
        if r.u32()? != MAGIC {
            return Err(ImageDecodeError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(ImageDecodeError::BadVersion { found: version });
        }
        let clock = AllocTime::from_raw(r.u64()?);
        let canary = r.u32()?;
        let fill_probability = r.f64()?;
        let multiplier = r.f64()?;
        // Counts are untrusted: reserve no more records than the remaining
        // bytes could hold, so a hostile count fails at end of input
        // instead of aborting on a huge allocation.
        let n_miniheaps = r.u32()? as usize;
        let mut miniheaps =
            Vec::with_capacity(n_miniheaps.min(r.remaining() / MINIHEAP_HEADER_LEN));
        for _ in 0..n_miniheaps {
            let class = r.u32()?;
            let index = r.u32()?;
            let base = Addr::new(r.u64()?);
            let object_size = r.u32()?;
            if object_size == 0 {
                return Err(ImageDecodeError::BadField {
                    field: "object_size",
                });
            }
            let created_at = AllocTime::from_raw(r.u64()?);
            let n_slots = r.u32()? as usize;
            let slot_len = SLOT_HEADER_LEN + object_size as usize;
            let mut slots = Vec::with_capacity(n_slots.min(r.remaining() / slot_len));
            for _ in 0..n_slots {
                let header = r.take(3)?;
                let Some(&(state, _)) = STATE_BYTES.iter().find(|(_, b)| b[..] == *header) else {
                    return Err(ImageDecodeError::BadField { field: "state" });
                };
                let meta = SlotMeta {
                    state,
                    object_id: ObjectId::from_raw(r.u64()?),
                    alloc_site: SiteHash::from_raw(r.u32()?),
                    free_site: SiteHash::from_raw(r.u32()?),
                    alloc_time: AllocTime::from_raw(r.u64()?),
                    free_time: AllocTime::from_raw(r.u64()?),
                    requested: r.u32()?,
                };
                let data = r.take(object_size as usize)?.into();
                slots.push(SlotImage { meta, data });
            }
            miniheaps.push(MiniHeapImage {
                id: MiniHeapId::new(class, index),
                base,
                object_size,
                created_at,
                slots,
            });
        }
        Ok(Self::assemble(
            clock,
            canary,
            fill_probability,
            multiplier,
            miniheaps,
        ))
    }

    /// Writes the image to a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.to_bytes())
    }

    /// Reads an image previously written by [`HeapImage::save`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; decode failures surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let bytes = fs::read(path)?;
        Self::from_bytes(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// [`HeapImage::scan_canary_corruptions`] of the image
/// [`HeapImage::try_capture`] would take of `heap`, read from the standing
/// heap instead: the same corruptions in the same order, without copying
/// a slot. [`ObjectRef::miniheap`] indexes the heap's miniheaps in the
/// order capture records them.
///
/// # Errors
///
/// Returns a [`CaptureError`] if a miniheap, or a canaried slot, names
/// memory the arena does not back.
pub fn scan_live_canary_corruptions(
    heap: &DieFastHeap,
) -> Result<Vec<CanaryCorruption>, CaptureError> {
    let mut out = Vec::new();
    for (mi, mh) in heap.inner().miniheaps().enumerate() {
        let region = miniheap_region(heap.arena(), mh)?;
        for idx in 0..mh.n_slots() {
            let meta = mh.meta(idx);
            if !matches!(meta.state, SlotState::Canaried | SlotState::Bad) {
                continue;
            }
            let r = ObjectRef {
                miniheap: mi,
                slot: idx,
            };
            let data = slot_bytes(mh, region, idx)?;
            out.extend(canary_corruption(
                r,
                mh.slot_addr(idx),
                meta.object_id,
                data,
                heap.canary(),
            ));
        }
    }
    Ok(out)
}

/// The one canary word loop: where `data`, the bytes of the slot at `r`,
/// differ from the repeating `canary`. Whole intact words (the common
/// case) are skipped with one comparison; only corrupt words get a
/// per-byte look.
fn canary_corruption(
    r: ObjectRef,
    addr: Addr,
    object_id: ObjectId,
    data: &[u8],
    canary: u32,
) -> Option<CanaryCorruption> {
    let pattern = canary.to_le_bytes();
    let mut first_bad = None;
    let mut end_bad = 0;
    let mut n_bad = 0;
    let mut note = |i: usize| {
        first_bad.get_or_insert(i);
        end_bad = i + 1;
        n_bad += 1;
    };
    let whole = data.len() - data.len() % 4;
    for (w, chunk) in data[..whole].chunks_exact(4).enumerate() {
        if chunk != &pattern[..] {
            for (j, (&b, &p)) in chunk.iter().zip(&pattern).enumerate() {
                if b != p {
                    note(w * 4 + j);
                }
            }
        }
    }
    for (j, &b) in data[whole..].iter().enumerate() {
        if b != pattern[j] {
            note(whole + j);
        }
    }
    Some(CanaryCorruption {
        slot: r,
        addr,
        object_id,
        first_bad: first_bad?,
        end_bad,
        n_bad,
    })
}

/// One translation for a whole miniheap, instead of a bounds-checked
/// simulated load per slot: the offset of its slot 0 within the region
/// backing it, and that region's bytes.
fn miniheap_region<'a>(arena: &'a Arena, mh: &MiniHeap) -> Result<(usize, &'a [u8]), CaptureError> {
    let (region_base, region) =
        arena
            .region_snapshot(mh.base())
            .ok_or(CaptureError::UnmappedMiniHeap {
                id: mh.id(),
                base: mh.base(),
            })?;
    Ok(((mh.base() - region_base) as usize, region))
}

/// Slot `idx`'s bytes, sliced out of its miniheap's region.
fn slot_bytes<'a>(
    mh: &MiniHeap,
    (first, region): (usize, &'a [u8]),
    idx: usize,
) -> Result<&'a [u8], CaptureError> {
    let off = first + idx * mh.object_size();
    let end = off + mh.object_size();
    region.get(off..end).ok_or(CaptureError::TruncatedRegion {
        id: mh.id(),
        base: mh.base(),
        slot: idx,
        needed: end,
        region_len: region.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_diefast::DieFastConfig;

    const SITE: SiteHash = SiteHash::from_raw(0x717E);

    /// Capture cannot fail here: the heap was only ever touched through the
    /// allocator, so every miniheap it records is backed by its own arena.
    fn capture(heap: &DieFastHeap) -> HeapImage {
        HeapImage::try_capture(heap).expect("the allocator mapped every miniheap this heap records")
    }

    fn heap_with_activity(seed: u64) -> DieFastHeap {
        let mut h = DieFastHeap::new(DieFastConfig::with_seed(seed));
        let mut live = Vec::new();
        for i in 0..40u64 {
            let p = h.malloc(16 + (i % 4) as usize * 24, SITE).unwrap();
            h.arena_mut().write_u64(p, i).unwrap();
            live.push(p);
        }
        for p in live.iter().step_by(3) {
            h.free(*p, SiteHash::from_raw(0xF2EE));
        }
        h
    }

    #[test]
    fn capture_indexes_all_objects() {
        let h = heap_with_activity(1);
        let img = capture(&h);
        for id in 1..=40u64 {
            let r = img.find_object(ObjectId::from_raw(id)).unwrap();
            assert_eq!(img.slot(r).meta.object_id, ObjectId::from_raw(id));
        }
        assert_eq!(img.clock, AllocTime::from_raw(40));
        assert_eq!(img.canary, h.canary());
    }

    #[test]
    fn live_object_data_is_captured() {
        let h = heap_with_activity(2);
        let img = capture(&h);
        // Object #2 (index 1) was never freed: its first word is 1.
        let r = img.find_object(ObjectId::from_raw(2)).unwrap();
        assert_eq!(img.slot(r).meta.state, SlotState::Live);
        assert_eq!(&img.slot(r).data[..8], &1u64.to_le_bytes());
    }

    #[test]
    fn freed_slots_record_canary_state() {
        let h = heap_with_activity(3);
        let img = capture(&h);
        // Object #1 was freed (step_by(3) starts at index 0) and p=1.0, so
        // its slot must be canaried and intact.
        let r = img.find_object(ObjectId::from_raw(1)).unwrap();
        let slot = img.slot(r);
        assert_eq!(slot.meta.state, SlotState::Canaried);
        assert!(img.scan_canary_corruptions().is_empty());
    }

    #[test]
    fn resolve_addr_finds_interior_pointers() {
        let h = heap_with_activity(4);
        let img = capture(&h);
        let r = img.find_object(ObjectId::from_raw(5)).unwrap();
        let base = img.slot_addr(r);
        let hit = img.resolve_addr(base + 7).unwrap();
        assert_eq!(hit.slot, r);
        assert_eq!(hit.offset, 7);
        assert_eq!(hit.object_id, ObjectId::from_raw(5));
        // An address in no miniheap resolves to none.
        assert_eq!(img.resolve_addr(Addr::new(0x10)), None);
    }

    #[test]
    fn resolve_addr_rejects_gap_past_miniheap() {
        let h = heap_with_activity(5);
        let img = capture(&h);
        for mh in &img.miniheaps {
            assert_eq!(img.resolve_addr(mh.end()), None);
            assert!(img.resolve_addr(mh.base).is_some());
        }
    }

    #[test]
    fn corruption_scan_reports_extent() {
        let mut h = heap_with_activity(6);
        // Corrupt 5 bytes of a canaried freed slot.
        let img0 = capture(&h);
        let r = img0.find_object(ObjectId::from_raw(1)).unwrap();
        let addr = img0.slot_addr(r);
        h.arena_mut().write_bytes(addr + 2, b"OOPS!").unwrap();
        let img = capture(&h);
        let corruptions = img.scan_canary_corruptions();
        assert_eq!(corruptions.len(), 1);
        let c = corruptions[0];
        assert_eq!(c.addr, addr);
        assert_eq!(c.first_bad, 2);
        assert_eq!(c.end_bad, 7);
        assert!(c.n_bad >= 4, "at least 4 of 5 bytes differ from canary");
        assert_eq!(c.object_id, ObjectId::from_raw(1));
    }

    #[test]
    fn binary_round_trip_preserves_everything() {
        let h = heap_with_activity(7);
        let img = capture(&h);
        let decoded = HeapImage::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(decoded, img);
        assert_eq!(
            decoded.find_object(ObjectId::from_raw(9)),
            img.find_object(ObjectId::from_raw(9)),
            "index rebuilt identically"
        );
    }

    /// The record sizes `from_bytes` bounds its reservations by are the
    /// ones `to_bytes` writes: header, then per miniheap its header and
    /// per slot its fixed fields plus `object_size` data bytes.
    #[test]
    fn record_sizes_match_the_encoding() {
        let img = capture(&heap_with_activity(12));
        // Magic, version, clock, canary, p, M, miniheap count.
        let header = 4 + 4 + 8 + 4 + 8 + 8 + 4;
        let expected: usize = header
            + img
                .miniheaps
                .iter()
                .map(|mh| {
                    MINIHEAP_HEADER_LEN
                        + mh.slots.len() * (SLOT_HEADER_LEN + mh.object_size as usize)
                })
                .sum::<usize>();
        assert_eq!(img.to_bytes().len(), expected);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            HeapImage::from_bytes(&[0; 8]).unwrap_err(),
            ImageDecodeError::BadMagic
        );
        let mut good = capture(&heap_with_activity(8)).to_bytes();
        good.truncate(good.len() / 2);
        assert!(matches!(
            HeapImage::from_bytes(&good).unwrap_err(),
            ImageDecodeError::UnexpectedEof { .. }
        ));
        // Corrupt the version field.
        let mut bad_version = capture(&heap_with_activity(9)).to_bytes();
        bad_version[4] = 0xFF;
        assert!(matches!(
            HeapImage::from_bytes(&bad_version).unwrap_err(),
            ImageDecodeError::BadVersion { .. }
        ));
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("xt_image_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heap.ximg");
        let img = capture(&heap_with_activity(10));
        img.save(&path).unwrap();
        assert_eq!(HeapImage::load(&path).unwrap(), img);
        fs::remove_file(&path).unwrap();
    }

    /// The incremental name is an alias: whatever the base — the heap's
    /// own earlier image, another heap's — it returns what
    /// `try_capture` returns, errors included.
    #[test]
    fn try_capture_incremental_is_try_capture() {
        let mut h = heap_with_activity(22);
        let own = capture(&h);
        let foreign = capture(&heap_with_activity(23));
        let p = h.malloc(64, SITE).unwrap();
        h.arena_mut().write_u64(p, 42).unwrap();
        for base in [&own, &foreign] {
            assert_eq!(
                HeapImage::try_capture_incremental(base, &h),
                HeapImage::try_capture(&h)
            );
        }
        let victim = h.inner().miniheaps().next().unwrap();
        let (id, base) = (victim.id(), victim.base());
        h.arena_mut().unmap(base).unwrap();
        assert_eq!(
            HeapImage::try_capture_incremental(&own, &h).unwrap_err(),
            CaptureError::UnmappedMiniHeap { id, base }
        );
    }

    #[test]
    fn try_capture_reports_unmapped_miniheap() {
        let mut h = heap_with_activity(24);
        let victim = h.inner().miniheaps().next().unwrap();
        let (id, base) = (victim.id(), victim.base());
        h.arena_mut().unmap(base).unwrap();
        assert_eq!(
            HeapImage::try_capture(&h).unwrap_err(),
            CaptureError::UnmappedMiniHeap { id, base }
        );
        assert_eq!(
            scan_live_canary_corruptions(&h).unwrap_err(),
            CaptureError::UnmappedMiniHeap { id, base }
        );
    }

    #[test]
    fn try_capture_reports_truncated_region() {
        let mut h = DieFastHeap::new(DieFastConfig::with_seed(26));
        // A 1 KiB class miniheap spans multiple pages.
        let p = h.malloc(1000, SITE).unwrap();
        let _ = p;
        let mh = h
            .inner()
            .miniheaps()
            .find(|m| m.object_size() == 1024)
            .unwrap();
        let (id, base) = (mh.id(), mh.base());
        // Remap the miniheap's memory one page short of its slot area.
        h.arena_mut().unmap(base).unwrap();
        h.arena_mut().map_at(base, xt_arena::PAGE_SIZE).unwrap();
        let err = HeapImage::try_capture(&h).unwrap_err();
        match err {
            CaptureError::TruncatedRegion {
                id: got_id,
                base: got_base,
                region_len,
                ..
            } => {
                assert_eq!(got_id, id);
                assert_eq!(got_base, base);
                assert_eq!(region_len, xt_arena::PAGE_SIZE);
            }
            other => panic!("expected TruncatedRegion, got {other:?}"),
        }
        assert!(err.to_string().contains("bytes"));
    }
}
