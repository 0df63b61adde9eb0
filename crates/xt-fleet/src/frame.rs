//! The shared wire substrate: offset-reporting validation and a
//! length-prefixed frame layer.
//!
//! Two consumers speak binary formats built on this module:
//!
//! * [`wire`](crate::wire) — the `XTR1` run report, a bare payload format
//!   (both ends are this crate, no framing needed on disk or in tests);
//! * `xt-net` — the network front door, which multiplexes several message
//!   families over one TCP connection and therefore needs [`Frame`]s:
//!   `magic ∥ kind ∥ payload-length ∥ payload`.
//!
//! Everything validates **with byte offsets**: a [`WireError`] names the
//! exact offset of the first malformed byte. The rationale is the same as
//! the original `XTR1` decoder's — these bytes cross a trust boundary
//! (remote clients, at-least-once transports, disk), and "`bad report`"
//! is undebuggable while "`bad boolean byte 0x3 at offset 4`" pinpoints
//! the corruption, the truncation point, or the version skew. The
//! [`Reader`] cursor carries the offset bookkeeping so every format built
//! on it gets precise diagnostics for free.
//!
//! Length prefixes are validated against caller-supplied caps *before*
//! any allocation ([`Reader::count`], [`MAX_FRAME_PAYLOAD`]): a corrupt
//! or hostile length must not turn into a multi-gigabyte allocation.

use std::io::{self, Read, Write};

/// First bytes of every frame: `XTF` plus the format version.
pub const FRAME_MAGIC: [u8; 4] = *b"XTF1";

/// Hard cap on a frame's payload length. Generous for every message the
/// protocols carry (reports are hundreds of bytes, outcomes dominated by
/// replica output streams), but small enough that a hostile length prefix
/// cannot exhaust memory before validation rejects it.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 24;

/// A malformed wire buffer (report payload or frame).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer does not start with the expected magic/version bytes.
    BadMagic([u8; 4]),
    /// The buffer ends before a field at this offset is complete.
    Truncated {
        /// Byte offset where more data was needed.
        at: usize,
    },
    /// A boolean byte held something other than 0 or 1.
    BadBool {
        /// Byte offset of the offending value.
        at: usize,
        /// The value found.
        value: u8,
    },
    /// An observation probability was non-finite or outside `[0, 1]`.
    BadProbability {
        /// Byte offset of the offending value.
        at: usize,
        /// The raw `f64` bits found.
        bits: u64,
    },
    /// An array length or payload-length prefix exceeds its sanity cap.
    Oversized {
        /// Byte offset of the length prefix.
        at: usize,
        /// The claimed element count or byte length.
        count: u32,
    },
    /// The claimed distinct-site population is implausible: zero alongside
    /// non-empty observation or hint arrays, or above the entry cap. A
    /// hostile value here would skew the §5 Bayesian prior `N` for
    /// every site.
    BadSiteCount {
        /// Byte offset of the `n_sites` field.
        at: usize,
        /// The claimed site population.
        n_sites: u32,
        /// Site-naming entries (observations plus pad/defer hints) the
        /// same report carries.
        observations: u64,
    },
    /// An evidence grid's node count disagrees with the snapshot's
    /// declared integration grid — restoring it would corrupt every later
    /// evidence merge (Simpson states only combine on one grid).
    BadGrid {
        /// Byte offset of the node-count prefix.
        at: usize,
        /// The node count found.
        nodes: u32,
    },
    /// A message kind byte no decoder recognizes.
    BadKind {
        /// Byte offset of the kind byte.
        at: usize,
        /// The value found.
        kind: u8,
    },
    /// A string field holds bytes that are not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the first invalid byte.
        at: usize,
    },
    /// Bytes remain after the last field.
    Trailing {
        /// Offset where decoding finished.
        at: usize,
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A well-formed report refused by per-client admission control —
    /// the only variant that is a *policy* decision, not a decode
    /// failure, so it carries the throttled client id instead of a
    /// byte offset.
    RateLimited {
        /// The client whose token bucket ran dry.
        client: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::Truncated { at } => write!(f, "buffer truncated at byte {at}"),
            WireError::BadBool { at, value } => {
                write!(f, "bad boolean byte {value:#x} at offset {at}")
            }
            WireError::BadProbability { at, bits } => {
                write!(
                    f,
                    "observation probability {} (bits {bits:#x}) at offset {at} is not in [0, 1]",
                    f64::from_bits(*bits)
                )
            }
            WireError::Oversized { at, count } => {
                write!(f, "length prefix {count} at offset {at} exceeds cap")
            }
            WireError::BadSiteCount {
                at,
                n_sites,
                observations,
            } => {
                write!(
                    f,
                    "implausible site population {n_sites} at offset {at} \
                     (report carries {observations} observations)"
                )
            }
            WireError::BadGrid { at, nodes } => {
                write!(
                    f,
                    "evidence grid of {nodes} nodes at offset {at} does not \
                     match the snapshot's integration grid"
                )
            }
            WireError::BadKind { at, kind } => {
                write!(f, "unknown message kind {kind:#x} at offset {at}")
            }
            WireError::BadUtf8 { at } => {
                write!(f, "invalid UTF-8 in string field at offset {at}")
            }
            WireError::Trailing { at, extra } => {
                write!(f, "{extra} trailing bytes after end at offset {at}")
            }
            WireError::RateLimited { client } => {
                write!(f, "client {client} rate-limited at ingest admission")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Offset-tracking cursor over wire bytes. Every format built on this
/// module decodes through a `Reader`, so malformed input anywhere reports
/// the exact byte offset.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// The current byte offset (for error reporting by callers that
    /// validate semantic constraints the reader cannot know about).
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Reads `N` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `N` bytes remain.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let end = self.pos + N;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(WireError::Truncated { at: self.pos })?;
        self.pos = end;
        Ok(slice.try_into().expect("slice length is N"))
    }

    /// Reads `len` raw bytes as a borrowed slice.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than `len` bytes remain.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos + len;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(WireError::Truncated { at: self.pos })?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] if fewer than 16 bytes remain.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.array()?))
    }

    /// Reads a boolean byte, rejecting anything but 0 or 1.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] or [`WireError::BadBool`].
    pub fn bool(&mut self) -> Result<bool, WireError> {
        let at = self.pos;
        match self.array::<1>()?[0] {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(WireError::BadBool { at, value }),
        }
    }

    /// Reads a `u32` length prefix, rejecting values above `cap` before
    /// any allocation happens.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] or [`WireError::Oversized`].
    pub fn count(&mut self, cap: u32) -> Result<u32, WireError> {
        let at = self.pos;
        let count = self.u32()?;
        if count > cap {
            return Err(WireError::Oversized { at, count });
        }
        Ok(count)
    }

    /// Asserts the buffer is fully consumed.
    ///
    /// # Errors
    ///
    /// [`WireError::Trailing`] if bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.bytes.len() {
            return Err(WireError::Trailing {
                at: self.pos,
                extra: self.bytes.len() - self.pos,
            });
        }
        Ok(())
    }
}

/// One length-prefixed message on a multiplexed byte stream:
/// `FRAME_MAGIC ∥ kind ∥ payload-length (u32 LE) ∥ payload`.
///
/// The `kind` byte is protocol-defined (this layer carries it opaquely);
/// the payload is an arbitrary byte string whose internal format the
/// protocol decodes with its own [`Reader`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Protocol-defined message discriminator.
    pub kind: u8,
    /// The message body.
    pub payload: Vec<u8>,
}

/// Why a frame could not be read from a stream.
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed mid-frame (includes unexpected EOF).
    Io(io::Error),
    /// The bytes read do not form a valid frame.
    Malformed(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport error: {e}"),
            FrameError::Malformed(e) => write!(f, "malformed frame: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Malformed(e)
    }
}

impl Frame {
    /// Wraps a payload under a kind byte.
    #[must_use]
    pub fn new(kind: u8, payload: Vec<u8>) -> Self {
        Frame { kind, payload }
    }

    /// Serialized frame length for this payload size.
    #[must_use]
    pub fn encoded_len(payload_len: usize) -> usize {
        FRAME_MAGIC.len() + 1 + 4 + payload_len
    }

    /// Serializes the frame.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_FRAME_PAYLOAD`] — an encoder
    /// bug, not a remote condition.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.payload.len() <= MAX_FRAME_PAYLOAD as usize,
            "frame payload of {} bytes exceeds the wire cap",
            self.payload.len()
        );
        let mut out = Vec::with_capacity(Self::encoded_len(self.payload.len()));
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(self.kind);
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses exactly one frame from `bytes`, rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] naming the first malformed byte.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let mut r = Reader::new(bytes);
        let magic = r.array::<4>()?;
        if magic != FRAME_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let kind = r.array::<1>()?[0];
        let len = r.count(MAX_FRAME_PAYLOAD)?;
        let payload = r.bytes(len as usize)?.to_vec();
        r.finish()?;
        Ok(Frame { kind, payload })
    }

    /// Parses one frame from the *front* of a byte buffer, without
    /// requiring the buffer to end at a frame boundary. The incremental
    /// sibling of [`Frame::decode`] for non-blocking readers that
    /// accumulate whatever `read` returned: `Ok(Some((frame, consumed)))`
    /// when a whole frame is available (`consumed` bytes should be
    /// drained from the buffer), `Ok(None)` when more bytes are needed.
    ///
    /// Malformation is detected as early as the available prefix allows
    /// — a magic mismatch is reported even from a single wrong leading
    /// byte, and an oversized length the moment the length field is
    /// complete — so a hostile peer cannot stall the error behind a
    /// never-arriving payload.
    ///
    /// # Errors
    ///
    /// [`WireError::BadMagic`] (unknown bytes padded with zeros when
    /// fewer than four arrived) or [`WireError::Oversized`] at offset 5.
    pub fn parse_prefix(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
        let seen = buf.len().min(FRAME_MAGIC.len());
        if buf[..seen] != FRAME_MAGIC[..seen] {
            let mut magic = [0u8; 4];
            magic[..seen].copy_from_slice(&buf[..seen]);
            return Err(WireError::BadMagic(magic));
        }
        if buf.len() >= 9 {
            let len = u32::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]);
            if len > MAX_FRAME_PAYLOAD {
                return Err(WireError::Oversized { at: 5, count: len });
            }
            let total = Self::encoded_len(len as usize);
            if buf.len() >= total {
                return Ok(Some((
                    Frame {
                        kind: buf[4],
                        payload: buf[9..total].to_vec(),
                    },
                    total,
                )));
            }
        }
        Ok(None)
    }

    /// Writes the frame to a stream (one `write_all`, so concurrent
    /// writers serialized by a lock cannot interleave partial frames).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Reads one frame from a stream. Returns `Ok(None)` on a clean EOF
    /// at a frame boundary (the peer closed between messages); EOF inside
    /// a frame is an error.
    ///
    /// Interrupted reads (`EINTR`) are always retried. A stream *read
    /// timeout* (`WouldBlock`/`TimedOut`) is surfaced only when it fires
    /// at a frame boundary — no bytes consumed, so the caller can safely
    /// retry or check a shutdown flag and call again; once any frame
    /// byte has been read, timeouts are absorbed and the read continues,
    /// because returning mid-frame would desynchronize the stream.
    ///
    /// # Errors
    ///
    /// [`FrameError::Io`] on transport failure, mid-frame EOF, or an
    /// idle timeout at a frame boundary; [`FrameError::Malformed`] on
    /// bad magic or an oversized length.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Frame>, FrameError> {
        let mut header = [0u8; 9];
        // Hand-rolled reads so a clean EOF (zero bytes) is
        // distinguishable from a torn frame, and so retryable error
        // kinds never tear a healthy connection.
        let mut filled = 0;
        while filled < header.len() {
            match r.read(&mut header[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("EOF after {filled} header bytes"),
                    )));
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if filled > 0
                        && matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        let magic: [u8; 4] = header[..4].try_into().expect("fixed split");
        if magic != FRAME_MAGIC {
            return Err(WireError::BadMagic(magic).into());
        }
        let kind = header[4];
        let len = u32::from_le_bytes(header[5..9].try_into().expect("fixed split"));
        if len > MAX_FRAME_PAYLOAD {
            return Err(WireError::Oversized { at: 5, count: len }.into());
        }
        let mut payload = vec![0u8; len as usize];
        let mut filled = 0;
        while filled < payload.len() {
            match r.read(&mut payload[filled..]) {
                Ok(0) => {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("EOF inside a {len}-byte payload"),
                    )));
                }
                Ok(n) => filled += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted
                            | io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        Ok(Some(Frame { kind, payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(7, b"three message families, one stream".to_vec())
    }

    #[test]
    fn round_trips() {
        let frame = sample();
        let bytes = frame.encode();
        assert_eq!(bytes.len(), Frame::encoded_len(frame.payload.len()));
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn empty_payload_round_trips() {
        let frame = Frame::new(0, Vec::new());
        assert_eq!(Frame::decode(&frame.encode()).unwrap(), frame);
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let err = Frame::decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().encode();
        bytes.push(0xAA);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::Trailing { extra: 1, .. })
        ));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[0] = b'Y';
        assert!(matches!(Frame::decode(&bytes), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn rejects_oversized_payload_claim() {
        let mut bytes = sample().encode();
        bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::Oversized { at: 5, .. })
        ));
    }

    #[test]
    fn parse_prefix_needs_more_then_yields_frame_and_consumed() {
        let frame = sample();
        let bytes = frame.encode();
        for len in 0..bytes.len() {
            assert_eq!(
                Frame::parse_prefix(&bytes[..len]).unwrap(),
                None,
                "prefix of {len} bytes is incomplete"
            );
        }
        // A whole frame plus the start of the next: exactly one frame
        // out, and `consumed` points at the boundary.
        let mut two = bytes.clone();
        two.extend_from_slice(&bytes[..3]);
        let (parsed, consumed) = Frame::parse_prefix(&two).unwrap().expect("complete");
        assert_eq!(parsed, frame);
        assert_eq!(consumed, bytes.len());
    }

    #[test]
    fn parse_prefix_rejects_bad_magic_from_the_first_byte() {
        assert!(matches!(
            Frame::parse_prefix(b"Y"),
            Err(WireError::BadMagic(_))
        ));
        let mut bytes = sample().encode();
        bytes[2] = 0x7F;
        assert!(matches!(
            Frame::parse_prefix(&bytes),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn parse_prefix_rejects_oversized_before_the_payload_arrives() {
        let mut header = Vec::new();
        header.extend_from_slice(&FRAME_MAGIC);
        header.push(1);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::parse_prefix(&header),
            Err(WireError::Oversized { at: 5, .. })
        ));
    }

    #[test]
    fn stream_reads_frames_and_reports_clean_eof() {
        let a = Frame::new(1, b"first".to_vec());
        let b = Frame::new(2, Vec::new());
        let mut stream = Vec::new();
        a.write_to(&mut stream).unwrap();
        b.write_to(&mut stream).unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(a));
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(b));
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn stream_eof_inside_a_frame_is_an_error() {
        let bytes = sample().encode();
        for len in 1..bytes.len() {
            let mut cursor = std::io::Cursor::new(&bytes[..len]);
            let err = Frame::read_from(&mut cursor).expect_err("torn frame accepted");
            assert!(
                matches!(err, FrameError::Io(ref e) if e.kind() == io::ErrorKind::UnexpectedEof),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn reader_reports_offsets() {
        let mut r = Reader::new(&[1, 0, 0, 0, 2]);
        assert_eq!(r.count(10).unwrap(), 1);
        assert_eq!(r.pos(), 4);
        assert_eq!(
            r.bool().unwrap_err(),
            WireError::BadBool { at: 4, value: 2 }
        );
    }
}
