//! Heap images (paper §3.4): the snapshot files Exterminator's error
//! isolator consumes.
//!
//! "If Exterminator discovers an error when executing a program, or if
//! DieFast signals an error, Exterminator forces the process to emit a heap
//! image file. This file is akin to a core dump, but contains less data
//! (e.g., no code), and is organized to simplify processing."
//!
//! A [`HeapImage`] captures, for every slot of every miniheap: its contents,
//! its life-cycle state, and the out-of-band metadata of Fig. 1 (object id,
//! allocation/deallocation sites, deallocation time, canary bit), plus the
//! global allocation clock and the execution's canary value. Images support:
//!
//! * object lookup by id — how the isolator matches "the same logical
//!   object" across independently randomized heaps;
//! * address resolution — how values stored in heap memory are classified
//!   as pointers to the same logical target across heaps;
//! * canary-corruption scanning — the first phase of both isolation
//!   algorithm families;
//! * a compact binary serialization (images replace core dumps, so they
//!   must be writable to disk and shippable).
//!
//! # Incremental capture
//!
//! Against a previous image of the *same* heap,
//! [`HeapImage::try_capture_incremental`] re-reads only slots on pages the
//! arena's dirty-page bits say were stored to since that base was taken,
//! and splices every other slot's bytes from the base by `Arc` reference —
//! no copy, byte-identical result (property-tested against full capture).
//! It pays on a heap captured repeatedly *while it lives*; the runtime
//! dumps a heap once, on error (§3.4), over an arena whose reset left
//! every page dirty, so no mode calls it today.
//!
//! The protocol between the two layers:
//!
//! * the **arena** sets a page's dirty bit on every successful store into
//!   it (bulk fills included) and on mapping it; `Arena::reset` and
//!   unmapping clear bits, so reused replica arenas never carry stale
//!   dirty state (see `xt-arena`'s crate docs for the full set/clear
//!   rules, TLB non-interaction, and spare-leaf recycling);
//! * **every capture** — [`HeapImage::try_capture`] and
//!   [`HeapImage::try_capture_incremental`] alike — clears the dirty bits on
//!   its way out, making the image it returns the baseline the next
//!   incremental capture diffs against;
//! * slot *metadata* is never spliced: allocator state can change without
//!   touching slot memory, so it is re-read from the allocator on every
//!   capture. Only the data bytes ride the dirty bits.
//!
//! Malformed heap state (metadata naming memory the arena does not back)
//! surfaces as a [`CaptureError`] instead of a panic in the capture path.

mod format;
mod image;

pub use format::{ByteReader, ByteWriter, ImageDecodeError};
pub use image::{
    CanaryCorruption, CaptureError, HeapImage, MiniHeapImage, ObjectRef, ResolvedAddr, SlotImage,
};
