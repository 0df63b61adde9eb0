//! Service-level convergence laws: interleaved, at-least-once
//! ingestion is observably equivalent to a sequential fold of the same
//! reports — the property that lets §6.4's collaborative correction run
//! behind any delivery topology. Extends the patch-lattice laws in
//! `xt-patch/tests/properties.rs` one level up the stack.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use xt_fleet::{EvidenceRecord, FleetConfig, FleetService, RunReport};
use xt_isolate::cumulative::CumulativeConfig;
use xt_isolate::evidence::{EvidenceTable, SiteEvidence};
use xt_patch::PatchTable;

/// Observation probabilities drawn from the values cumulative mode
/// actually produces (placement odds at M = 2, canary p = 1/2).
const XS: [f64; 3] = [0.25, 0.5, 0.75];

fn obs_strategy() -> impl Strategy<Value = (u32, f64, bool)> {
    (0u32..10, 0usize..XS.len(), any::<bool>()).prop_map(|(site, xi, y)| (site, XS[xi], y))
}

/// One synthetic run report. `seq` is reassigned by index downstream so
/// distinct reports never collide in the `(client, seq)` dedup key.
fn report_strategy() -> impl Strategy<Value = RunReport> {
    let overflow = proptest::collection::vec(obs_strategy(), 0..5);
    let dangling = proptest::collection::vec(obs_strategy(), 0..5);
    let pads = proptest::collection::vec((0u32..10, 1u32..64), 0..3);
    let defers = proptest::collection::vec((0u32..10, 0u32..10, 1u64..80), 0..3);
    (
        (0u64..5, any::<bool>(), 1u32..80),
        overflow,
        dangling,
        (pads, defers),
    )
        .prop_map(
            |((client, failed, n_sites), overflow_obs, dangling_obs, (pad_hints, defer_hints))| {
                RunReport {
                    client,
                    seq: 0,
                    failed,
                    clock: 1000,
                    n_sites,
                    overflow_obs,
                    dangling_obs,
                    pad_hints,
                    defer_hints,
                }
            },
        )
}

fn reports_strategy() -> impl Strategy<Value = Vec<RunReport>> {
    proptest::collection::vec(report_strategy(), 1..14).prop_map(|mut reports| {
        for (i, r) in reports.iter_mut().enumerate() {
            r.seq = i as u32;
        }
        reports
    })
}

fn service() -> FleetService {
    FleetService::new(FleetConfig {
        publish_every: 0,
        ..FleetConfig::default()
    })
}

/// The sequential reference: fold every summary into one evidence table
/// — no service, no locks, no interleaving.
fn sequential_table(reports: &[RunReport]) -> EvidenceTable {
    let mut table = EvidenceTable::new(CumulativeConfig::default());
    for report in reports {
        table.record_run(&report.to_summary());
    }
    table
}

/// [`sequential_table`], published once.
fn sequential_patches(reports: &[RunReport]) -> PatchTable {
    sequential_table(reports).generate_patches()
}

/// Whether a snapshot's evidence records are the table's sites, in the
/// same order, with the same `raw_parts` bits.
fn same_bits<'a>(
    records: &[EvidenceRecord],
    table: impl Iterator<Item = (xt_alloc::SiteHash, &'a SiteEvidence)>,
) -> bool {
    let table: Vec<_> = table.collect();
    records.len() == table.len()
        && records.iter().zip(table).all(|(rec, (site, e))| {
            let (obs, grid) = e.raw_parts();
            rec.site == site.raw()
                && rec.obs == obs as u64
                && rec.grid.len() == grid.len()
                && rec
                    .grid
                    .iter()
                    .zip(grid)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

/// Deterministic Fisher–Yates driven by a generated seed.
fn shuffled(reports: &[RunReport], seed: u64) -> Vec<RunReport> {
    let mut out = reports.to_vec();
    let mut state = seed | 1;
    for i in (1..out.len()).rev() {
        state = state
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        let j = (state >> 33) as usize % (i + 1);
        out.swap(i, j);
    }
    out
}

fn ingest_all(service: &FleetService, reports: &[RunReport]) {
    for report in reports {
        // Through the wire: the service sees exactly what clients send.
        service
            .ingest(&report.encode())
            .expect("self-encoded report decodes");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Service ingestion publishes exactly what a sequential fold of the
    /// same reports would, and holds the same evidence, bit for bit.
    #[test]
    fn service_matches_sequential(reports in reports_strategy()) {
        let svc = service();
        ingest_all(&svc, &reports);
        let table = sequential_table(&reports);
        let snapshot = svc.export_snapshot();
        prop_assert!(same_bits(&snapshot.overflow, table.overflow_evidence()));
        prop_assert!(same_bits(&snapshot.dangling, table.dangling_evidence()));
        let epoch = svc.publish();
        prop_assert_eq!(&epoch.patches, &table.generate_patches());
        prop_assert_eq!(svc.metrics().reports, reports.len() as u64);
    }

    /// Any two interleavings agree: ingestion is commutative at the
    /// service level.
    #[test]
    fn ingestion_is_order_insensitive(
        reports in reports_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let a = service();
        ingest_all(&a, &reports);
        let b = service();
        ingest_all(&b, &shuffled(&reports, seed));
        prop_assert_eq!(a.publish().patches, b.publish().patches);
    }

    /// At-least-once delivery: redelivering any prefix of the reports any
    /// number of times changes nothing (service-level idempotence).
    #[test]
    fn redelivery_is_idempotent(
        reports in reports_strategy(),
        dup_prefix in 1usize..14,
        copies in 1usize..4,
    ) {
        let once = service();
        ingest_all(&once, &reports);

        let redelivered = service();
        ingest_all(&redelivered, &reports);
        let prefix = dup_prefix.min(reports.len());
        for _ in 0..copies {
            ingest_all(&redelivered, &reports[..prefix]);
        }
        prop_assert_eq!(once.publish().patches, redelivered.publish().patches);
        let m = redelivered.metrics();
        prop_assert_eq!(m.reports, reports.len() as u64);
        prop_assert_eq!(m.duplicates, (prefix * copies) as u64);
    }

    /// Epochs are monotone: publishing mid-stream and again at the end
    /// yields a final epoch that covers the earlier one, and the final
    /// table still matches the sequential fold of everything.
    #[test]
    fn epochs_are_monotone(reports in reports_strategy(), split in 0usize..14) {
        let svc = service();
        let split = split.min(reports.len());
        ingest_all(&svc, &reports[..split]);
        let early = svc.publish();
        ingest_all(&svc, &reports[split..]);
        let late = svc.publish();
        prop_assert!(late.number >= early.number);
        prop_assert!(late.covers(&early.patches), "epochs may only grow");
        // Mid-stream publication must not change what ultimately converges
        // (up to entries the early epoch pinned: the join keeps them).
        let mut expected = sequential_patches(&reports);
        expected.merge(&early.patches);
        prop_assert_eq!(&late.patches, &expected);
    }
}

/// An export is a point in the report order: dedup, the run counters and
/// the evidence are read under one hold of the service's state lock, so
/// no export sees a report deduped and counted but not yet folded. Four
/// threads ingest one-observation reports from distinct clients while a
/// fifth exports, up to 200 times; every export must hold one window and
/// one observation per report.
#[test]
fn a_snapshot_is_a_point_in_time() {
    let svc = service();
    let start = std::sync::Barrier::new(5);
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let (svc, start, done) = (&svc, &start, &done);
            scope.spawn(move || {
                start.wait();
                for i in 0..1000u32 {
                    svc.ingest_report(&RunReport {
                        client: t << 32 | u64::from(i),
                        seq: 0,
                        failed: i % 3 == 0,
                        clock: 1000,
                        n_sites: 8,
                        overflow_obs: Vec::new(),
                        dangling_obs: vec![(i % 8, XS[i as usize % XS.len()], i % 2 == 0)],
                        pad_hints: Vec::new(),
                        defer_hints: Vec::new(),
                    });
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        start.wait();
        for _ in 0..200 {
            if done.load(Ordering::Relaxed) == 4 {
                break;
            }
            let snap = svc.export_snapshot();
            let obs: u64 = snap.dangling.iter().map(|r| r.obs).sum();
            assert_eq!(snap.reports, snap.windows.len() as u64);
            assert_eq!(obs, snap.reports);
            // The lock is not fair: without a pause, a looping exporter
            // can hold off the ingesters for seconds.
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    });
    assert_eq!(svc.metrics().reports, 4000);
}
