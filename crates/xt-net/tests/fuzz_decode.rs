//! Corruption fuzzing for the observability frame decoders — the same
//! regime `xt-fleet/tests/fuzz_decode.rs` applies to reports, frames,
//! and snapshots, here aimed at the two message decoders this crate
//! added on the trust boundary: [`Msg::Health`] and [`Msg::Metrics`].
//! Valid encodings are generated, truncated at every length, and
//! byte-mutated at seeded positions. Decoders must **never panic**, and
//! every rejection must carry a usable diagnostic: `BadMagic` by value,
//! or a byte offset within the buffer.
//!
//! The retired epoch pull/reply kinds (7 and 8) get the same treatment
//! from the other side: whatever payload rides under them — including
//! byte-exact frames an old client would send — is an unknown kind at
//! the kind byte's offset, and a live server answers, closes that one
//! connection, and keeps serving.

use std::io::{BufReader, Write};
use std::net::TcpStream;

use proptest::prelude::*;

use xt_fleet::{Frame, WireError};
use xt_net::proto::{Msg, WireHealth};
use xt_net::{NetClient, NetConfig, NetFrontend};
use xt_obs::{HistogramSnapshot, RegistrySnapshot, HISTOGRAM_BUCKETS};

/// The offset a `WireError` points at, if the variant carries one.
fn error_offset(e: &WireError) -> Option<usize> {
    match e {
        WireError::BadMagic(_) | WireError::BadVersion { .. } | WireError::RateLimited { .. } => {
            None
        }
        WireError::Truncated { at }
        | WireError::BadBool { at, .. }
        | WireError::BadProbability { at, .. }
        | WireError::Oversized { at, .. }
        | WireError::BadSiteCount { at, .. }
        | WireError::BadGrid { at, .. }
        | WireError::BadNode { at, .. }
        | WireError::SiteOrder { at, .. }
        | WireError::BadKind { at, .. }
        | WireError::BadUtf8 { at }
        | WireError::Trailing { at, .. } => Some(*at),
    }
}

fn assert_diagnosable(err: &WireError, len: usize) -> Result<(), TestCaseError> {
    if let Some(at) = error_offset(err) {
        prop_assert!(
            at <= len,
            "error offset {at} beyond the {len}-byte buffer: {err:?}"
        );
    }
    Ok(())
}

/// SplitMix64, for seeded corruption positions.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    xt_arena::splitmix_finalize(*state)
}

/// The full decode path a connection runs: frame layer, then message.
fn decode_msg(bytes: &[u8]) -> Result<Msg, WireError> {
    Msg::from_frame(&Frame::decode(bytes)?)
}

fn health_strategy() -> impl Strategy<Value = Msg> {
    (
        (any::<bool>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<bool>(), any::<u64>()),
    )
        .prop_map(
            |((healthy, epoch, uptime_ms), (recoveries, durable, connections))| {
                Msg::Health(WireHealth {
                    healthy,
                    epoch,
                    uptime_ms,
                    recoveries,
                    durable,
                    connections,
                })
            },
        )
}

/// Instrument names in the registry's style: `layer/stage`, lowercase.
fn name_strategy() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(0u8..27, 1..12),
        proptest::collection::vec(0u8..27, 0..8),
    )
        .prop_map(|(a, b)| {
            let part = |v: &[u8]| {
                v.iter()
                    .map(|&c| if c == 26 { '_' } else { (b'a' + c) as char })
                    .collect::<String>()
            };
            format!("{}/{}", part(&a), part(&b))
        })
}

fn histogram_strategy() -> impl Strategy<Value = HistogramSnapshot> {
    (
        proptest::collection::vec(any::<u64>(), HISTOGRAM_BUCKETS),
        any::<u64>(),
    )
        .prop_map(|(buckets, max)| HistogramSnapshot {
            buckets: buckets.try_into().expect("exact bucket count"),
            max,
        })
}

fn metrics_strategy() -> impl Strategy<Value = Msg> {
    (
        proptest::collection::vec((name_strategy(), any::<u64>()), 0..6),
        proptest::collection::vec((name_strategy(), any::<i64>()), 0..4),
        proptest::collection::vec((name_strategy(), histogram_strategy()), 0..4),
    )
        .prop_map(|(counters, gauges, histograms)| {
            Msg::Metrics(RegistrySnapshot {
                counters,
                gauges,
                histograms,
            })
        })
}

fn observability_msg_strategy() -> impl Strategy<Value = Msg> {
    prop_oneof![health_strategy(), metrics_strategy()]
}

/// The server-pushed epoch frame: both the real shape (a valid epoch
/// rendering, which is what `EpochPush` always carries in practice) and
/// arbitrary text (the codec carries the payload opaquely; parsing it
/// is the client's separate, advisory concern).
fn epoch_push_strategy() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (any::<u64>(), 0u32..4096).prop_map(|(number, pad)| Msg::EpochPush {
            epoch: format!(
                "# epoch {number}\n# exterminator runtime patches v1\npad 512ddc49 {pad}\n"
            ),
        }),
        proptest::collection::vec(any::<u8>(), 0..512).prop_map(|raw| Msg::EpochPush {
            epoch: String::from_utf8_lossy(&raw).into_owned(),
        }),
    ]
}

/// Truncation points: exhaustive for small buffers, seeded sampling for
/// large ones (a metrics frame with histograms runs to kilobytes).
fn truncation_points(len: usize, seed: u64) -> Vec<usize> {
    if len <= 256 {
        return (0..len).collect();
    }
    let mut points: Vec<usize> = (0..128).collect();
    let mut state = seed;
    points.extend((0..96).map(|_| 128 + (splitmix(&mut state) as usize) % (len - 128)));
    points.push(len - 1);
    points
}

/// What an old client's epoch pull request (kind 7, `have = 2`) and the
/// old "nothing newer" reply (kind 8) looked like on the wire.
fn retired_frames() -> [Frame; 2] {
    [
        Frame::new(7, 2u64.to_le_bytes().to_vec()),
        Frame::new(8, vec![0]),
    ]
}

/// A live server rejects both retired kinds with the offset-bearing
/// diagnosis, closes only the offending connection, and survives.
#[test]
fn retired_epoch_kinds_are_rejected_and_the_server_survives() {
    let server = NetFrontend::bind(
        xt_workloads::EspressoLike::new(),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .expect("bind localhost");
    for frame in retired_frames() {
        let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
        frame.write_to(&mut raw).expect("write");
        raw.flush().expect("flush");
        let mut reader = BufReader::new(raw);
        let reply = Frame::read_from(&mut reader)
            .expect("read reply")
            .expect("error frame before close");
        let expected = WireError::BadKind {
            at: 4,
            kind: frame.kind,
        };
        assert_eq!(
            Msg::from_frame(&reply).expect("error frame decodes"),
            Msg::Error {
                message: expected.to_string()
            }
        );
        assert!(
            Frame::read_from(&mut reader)
                .expect("clean close")
                .is_none(),
            "the connection stayed open after a retired kind"
        );
    }
    assert_eq!(server.stats().rejected, 2);
    let client = NetClient::connect(server.local_addr()).expect("connect");
    assert!(
        client
            .pull_health()
            .expect("health after rejections")
            .healthy
    );
    drop(client);
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kinds 7 and 8 are reserved, not recycled: any payload under them
    /// is an unknown kind at the kind byte — never a decoded message.
    #[test]
    fn retired_epoch_kinds_reject_with_the_kind_offset(
        retired in 7u8..9,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let bytes = Frame::new(retired, payload).encode();
        let err = decode_msg(&bytes).expect_err("a retired kind decoded");
        assert_diagnosable(&err, bytes.len())?;
        prop_assert_eq!(err, WireError::BadKind { at: 4, kind: retired });
    }

    #[test]
    fn observability_messages_round_trip(msg in observability_msg_strategy()) {
        let bytes = msg.to_frame().encode();
        prop_assert_eq!(decode_msg(&bytes).unwrap(), msg);
    }

    #[test]
    fn truncated_observability_frames_always_reject_with_offsets(
        msg in observability_msg_strategy(),
        seed in any::<u64>(),
    ) {
        let bytes = msg.to_frame().encode();
        for len in truncation_points(bytes.len(), seed) {
            let err = decode_msg(&bytes[..len])
                .expect_err("a strict prefix decoded as a whole message");
            assert_diagnosable(&err, len)?;
        }
    }

    /// Byte mutations: never panic, and rejections stay diagnosable.
    /// (Acceptance is legitimate — most positions hold counter/bucket
    /// values where any byte is a different valid value.)
    #[test]
    fn mutated_observability_frames_never_panic(
        msg in observability_msg_strategy(),
        seed in any::<u64>(),
    ) {
        let bytes = msg.to_frame().encode();
        let mut state = seed;
        for _ in 0..64 {
            let mut corrupt = bytes.clone();
            let pos = (splitmix(&mut state) as usize) % corrupt.len();
            let delta = (splitmix(&mut state) % 255) as u8 + 1;
            corrupt[pos] ^= delta;
            if let Err(err) = decode_msg(&corrupt) {
                assert_diagnosable(&err, corrupt.len())?;
            }
        }
    }

    #[test]
    fn epoch_push_round_trips(msg in epoch_push_strategy()) {
        let bytes = msg.to_frame().encode();
        prop_assert_eq!(decode_msg(&bytes).unwrap(), msg);
    }

    /// Every strict prefix of an `EpochPush` frame rejects with a
    /// usable diagnostic — this is the frame an event-loop connection
    /// holds *partially buffered* between readiness events, so the
    /// incremental parser must classify prefixes exactly like the
    /// whole-buffer decoder: a prefix is `Ok(None)` (need more), never
    /// a panic, and the only errors are offset-bearing.
    #[test]
    fn truncated_epoch_push_rejects_with_offsets(
        msg in epoch_push_strategy(),
        seed in any::<u64>(),
    ) {
        let bytes = msg.to_frame().encode();
        for len in truncation_points(bytes.len(), seed) {
            let err = decode_msg(&bytes[..len])
                .expect_err("a strict prefix decoded as a whole message");
            assert_diagnosable(&err, len)?;
            // The incremental parser the server feeds partial reads
            // through must agree: a strict prefix is "need more bytes",
            // not an error and not a frame.
            prop_assert!(matches!(Frame::parse_prefix(&bytes[..len]), Ok(None)));
        }
        // And the full buffer yields the frame plus its exact length.
        let (frame, used) = Frame::parse_prefix(&bytes).unwrap().expect("complete frame");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(Msg::from_frame(&frame).unwrap(), msg);
    }

    /// Mutated `EpochPush` frames never panic either decoder; every
    /// rejection stays diagnosable. (UTF-8 payload corruption surfaces
    /// as `BadUtf8` with an offset; header corruption as magic/kind
    /// errors.)
    #[test]
    fn mutated_epoch_push_never_panics(
        msg in epoch_push_strategy(),
        seed in any::<u64>(),
    ) {
        let bytes = msg.to_frame().encode();
        let mut state = seed;
        for _ in 0..64 {
            let mut corrupt = bytes.clone();
            let pos = (splitmix(&mut state) as usize) % corrupt.len();
            let delta = (splitmix(&mut state) % 255) as u8 + 1;
            corrupt[pos] ^= delta;
            if let Err(err) = decode_msg(&corrupt) {
                assert_diagnosable(&err, corrupt.len())?;
            }
            // The incremental parser sees the same hostile bytes off the
            // socket; it must never panic, and whatever frame it cuts
            // must match the whole-buffer decoder's on the same bytes.
            match Frame::parse_prefix(&corrupt) {
                Ok(Some((frame, used))) => {
                    prop_assert!(used <= corrupt.len());
                    prop_assert_eq!(
                        &frame,
                        &Frame::decode(&corrupt[..used]).expect("decoders agree")
                    );
                    if used < corrupt.len() {
                        // A shrunk length field cut a shorter frame; the
                        // whole-buffer decoder rejects the trailing bytes.
                        prop_assert!(Frame::decode(&corrupt).is_err());
                    }
                }
                Ok(None) => {
                    // A corrupted length field can claim more bytes than
                    // present; the blocking decoder calls that truncated.
                    prop_assert!(Frame::decode(&corrupt).is_err());
                }
                Err(err) => assert_diagnosable(&err, corrupt.len())?,
            }
        }
    }
}
