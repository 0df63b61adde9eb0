//! Minimal little-endian binary encoding for heap images.
//!
//! The paper's heap image is a bespoke on-disk format; we keep ours
//! dependency-free and versioned. [`ByteWriter`]/[`ByteReader`] are public
//! because the cumulative-mode summary files reuse them.

use std::error::Error;
use std::fmt;

/// An append-only little-endian encoder.
///
/// # Example
///
/// ```
/// use xt_image::{ByteReader, ByteWriter};
///
/// let mut w = ByteWriter::new();
/// w.u32(7);
/// w.bytes(b"hi");
/// let buf = w.into_bytes();
/// let mut r = ByteReader::new(&buf);
/// assert_eq!(r.u32().unwrap(), 7);
/// assert_eq!(r.take(2).unwrap(), b"hi");
/// assert!(r.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes (length is *not* encoded).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes encoding, returning the buffer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ImageDecodeError {
    /// Input ended before the announced structure was complete.
    UnexpectedEof {
        /// Byte offset at which more data was needed.
        at: usize,
    },
    /// The magic number did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion {
        /// Version found in the input.
        found: u32,
    },
    /// A field held an impossible value.
    BadField {
        /// Which field.
        field: &'static str,
    },
}

impl fmt::Display for ImageDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageDecodeError::UnexpectedEof { at } => {
                write!(f, "unexpected end of image data at byte {at}")
            }
            ImageDecodeError::BadMagic => write!(f, "not a heap image (bad magic)"),
            ImageDecodeError::BadVersion { found } => {
                write!(f, "unsupported heap image version {found}")
            }
            ImageDecodeError::BadField { field } => write!(f, "invalid value for field {field}"),
        }
    }
}

impl Error for ImageDecodeError {}

/// A cursor-based little-endian decoder matching [`ByteWriter`].
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a byte buffer.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when fully consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`ImageDecodeError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ImageDecodeError> {
        if self.remaining() < n {
            return Err(ImageDecodeError::UnexpectedEof { at: self.pos });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`ImageDecodeError::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, ImageDecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`ImageDecodeError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, ImageDecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Consumes an `f64` stored as its bit pattern.
    ///
    /// # Errors
    ///
    /// [`ImageDecodeError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn f64(&mut self) -> Result<f64, ImageDecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_types() {
        let mut w = ByteWriter::new();
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(0.25);
        w.bytes(&[1, 2, 3]);
        assert_eq!(w.len(), 4 + 8 + 8 + 3);
        let buf = w.into_bytes();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), 0.25);
        assert_eq!(r.take(3).unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn eof_is_reported_with_position() {
        let mut r = ByteReader::new(&[1, 2]);
        assert_eq!(r.take(1).unwrap(), &[1]);
        let err = r.u32().unwrap_err();
        assert_eq!(err, ImageDecodeError::UnexpectedEof { at: 1 });
        assert!(err.to_string().contains("byte 1"));
    }

    #[test]
    fn empty_writer_is_empty() {
        assert!(ByteWriter::new().is_empty());
        assert!(ByteReader::new(&[]).is_empty());
    }
}
