//! Corruption fuzzing for every decoder on the trust boundary: `XTF1`
//! frames (the network), `XTR1` reports (clients and the WAL), and
//! `XTS2` snapshots (recovery). Valid encodings are generated, then
//! truncated at every (or, for large buffers, many seeded) lengths and
//! byte-mutated at seeded positions. The decoders must **never panic**
//! — these bytes arrive from remote clients and crashed disks — and
//! every rejection must carry a usable diagnostic: either `BadMagic`
//! (the four leading bytes, by value) or a byte offset within the
//! buffer.

use proptest::prelude::*;

use xt_fleet::{FleetConfig, FleetService, FleetSnapshot, Frame, RunReport, WireError};

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

/// Asserts the decoder's rejection is diagnosable: offset-bearing and
/// in-bounds (`Trailing` points at the end of the valid data, so its
/// offset may equal the length; everything else must be inside).
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

const XS: [f64; 4] = [0.0, 0.25, 0.75, 1.0];

fn obs_strategy() -> impl Strategy<Value = (u32, f64, bool)> {
    (0u32..50, 0usize..XS.len(), any::<bool>()).prop_map(|(site, xi, y)| (site, XS[xi], y))
}

fn report_strategy() -> impl Strategy<Value = RunReport> {
    (
        (any::<u64>(), any::<u32>(), any::<bool>(), any::<u64>()),
        1u32..200,
        proptest::collection::vec(obs_strategy(), 0..6),
        proptest::collection::vec(obs_strategy(), 0..6),
        (
            proptest::collection::vec((0u32..50, 1u32..128), 0..4),
            proptest::collection::vec((0u32..50, 0u32..50, 1u64..100), 0..4),
        ),
    )
        .prop_map(
            |(
                (client, seq, failed, clock),
                n_sites,
                overflow_obs,
                dangling_obs,
                (pads, defers),
            )| {
                RunReport {
                    client,
                    seq,
                    failed,
                    clock,
                    n_sites,
                    overflow_obs,
                    dangling_obs,
                    pad_hints: pads,
                    defer_hints: defers,
                }
            },
        )
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..200))
        .prop_map(|(kind, payload)| Frame::new(kind, payload))
}

/// A real snapshot: reports folded through a real service, published,
/// exported — so the fuzzed bytes carry genuine ratio-grid floats,
/// epoch text, and replay windows, not synthetic approximations.
fn snapshot_strategy() -> impl Strategy<Value = FleetSnapshot> {
    proptest::collection::vec(report_strategy(), 1..10).prop_map(|mut reports| {
        let service = FleetService::new(FleetConfig {
            publish_every: 0,
            ..FleetConfig::default()
        });
        for (i, r) in reports.iter_mut().enumerate() {
            r.seq = i as u32;
            service.ingest_report(r);
        }
        service.publish();
        service.export_snapshot()
    })
}

/// Truncation points to try: exhaustive for small buffers, seeded
/// sampling plus the structurally interesting low offsets for large
/// ones (a snapshot can run to kilobytes; O(len²) over every prefix of
/// every case is fuzz time better spent on more cases).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn report_round_trips(report in report_strategy()) {
        let bytes = report.encode();
        prop_assert_eq!(RunReport::decode(&bytes).unwrap(), report);
    }

    #[test]
    fn snapshot_round_trips(snapshot in snapshot_strategy()) {
        let bytes = snapshot.encode();
        prop_assert_eq!(FleetSnapshot::decode(&bytes).unwrap(), snapshot);
    }

    #[test]
    fn truncated_reports_always_reject_with_offsets(report in report_strategy()) {
        let bytes = report.encode();
        for len in truncation_points(bytes.len(), 0) {
            let err = RunReport::decode(&bytes[..len])
                .expect_err("a strict prefix decoded as a whole report");
            assert_diagnosable(&err, len)?;
        }
    }

    #[test]
    fn truncated_frames_always_reject_with_offsets(frame in frame_strategy()) {
        let bytes = frame.encode();
        for len in truncation_points(bytes.len(), 0) {
            let err = Frame::decode(&bytes[..len])
                .expect_err("a strict prefix decoded as a whole frame");
            assert_diagnosable(&err, len)?;
        }
    }

    #[test]
    fn truncated_snapshots_always_reject_with_offsets(
        snapshot in snapshot_strategy(),
        seed in any::<u64>(),
    ) {
        let bytes = snapshot.encode();
        for len in truncation_points(bytes.len(), seed) {
            let err = FleetSnapshot::decode(&bytes[..len])
                .expect_err("a strict prefix decoded as a whole snapshot");
            assert_diagnosable(&err, len)?;
        }
    }

    /// Byte mutations: decoders must never panic, and any rejection must
    /// stay diagnosable. (Acceptance is legitimate — flipping bits
    /// inside an `f64` payload can yield another valid value.)
    #[test]
    fn mutated_reports_never_panic(report in report_strategy(), seed in any::<u64>()) {
        let bytes = report.encode();
        let mut state = seed;
        for _ in 0..64 {
            let mut corrupt = bytes.clone();
            let pos = (splitmix(&mut state) as usize) % corrupt.len();
            let delta = (splitmix(&mut state) % 255) as u8 + 1;
            corrupt[pos] ^= delta;
            if let Err(err) = RunReport::decode(&corrupt) {
                assert_diagnosable(&err, corrupt.len())?;
            }
        }
    }

    #[test]
    fn mutated_frames_never_panic(frame in frame_strategy(), seed in any::<u64>()) {
        let bytes = frame.encode();
        let mut state = seed;
        for _ in 0..64 {
            let mut corrupt = bytes.clone();
            let pos = (splitmix(&mut state) as usize) % corrupt.len();
            let delta = (splitmix(&mut state) % 255) as u8 + 1;
            corrupt[pos] ^= delta;
            if let Err(err) = Frame::decode(&corrupt) {
                assert_diagnosable(&err, corrupt.len())?;
            }
        }
    }

    #[test]
    fn mutated_snapshots_never_panic(snapshot in snapshot_strategy(), seed in any::<u64>()) {
        let bytes = snapshot.encode();
        let mut state = seed;
        for _ in 0..64 {
            let mut corrupt = bytes.clone();
            let pos = (splitmix(&mut state) as usize) % corrupt.len();
            let delta = (splitmix(&mut state) % 255) as u8 + 1;
            corrupt[pos] ^= delta;
            match FleetSnapshot::decode(&corrupt) {
                Err(err) => assert_diagnosable(&err, corrupt.len())?,
                // Whatever decodes restores or is refused, never panics.
                Ok(snap) => drop(FleetService::from_snapshot(FleetConfig::default(), &snap)),
            }
        }
    }
}
