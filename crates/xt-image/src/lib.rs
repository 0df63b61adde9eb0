//! Heap images (paper §3.4): the snapshot files Exterminator's error
//! isolator consumes.
//!
//! "If Exterminator discovers an error when executing a program, or if
//! DieFast signals an error, Exterminator forces the process to emit a heap
//! image file. This file is akin to a core dump, but contains less data
//! (e.g., no code), and is organized to simplify processing."
//!
//! A [`HeapImage`] captures, for every slot of every miniheap: its contents
//! and a copy of the allocator's own `SlotMeta` for it (life-cycle state,
//! canary bit included, and the out-of-band metadata of Fig. 1), plus the
//! global allocation clock and the execution's canary value. Images support:
//!
//! * object lookup by id — how the isolator matches "the same logical
//!   object" across independently randomized heaps;
//! * address resolution — how values stored in heap memory are classified
//!   as pointers to the same logical target across heaps;
//! * canary-corruption scanning — the first phase of both isolation
//!   algorithm families (also of a heap that is still standing:
//!   [`scan_live_canary_corruptions`] runs the same scan without an
//!   image, which is all cumulative mode reads of one);
//! * a compact binary serialization (images replace core dumps, so they
//!   must be writable to disk and shippable).
//!
//! [`HeapImage::try_capture`] reads the whole heap and changes nothing:
//! the runtime dumps a heap once, when it detects an error (§3.4), so
//! there is no earlier image to diff against. Malformed heap state
//! (metadata naming memory the arena does not back) surfaces as a
//! [`CaptureError`] instead of a panic in the capture path, and
//! [`HeapImage::from_bytes`] treats its input as untrusted: truncated or
//! hostile bytes are an [`ImageDecodeError`], never a panic or an abort.

mod format;
mod image;

pub use format::{ByteReader, ByteWriter, ImageDecodeError};
pub use image::{
    scan_live_canary_corruptions, CanaryCorruption, CaptureError, HeapImage, MiniHeapImage,
    ObjectRef, ResolvedAddr, SlotImage,
};
