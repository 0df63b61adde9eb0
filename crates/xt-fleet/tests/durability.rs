//! The crash-injection recovery property: kill the durable fleet at an
//! **arbitrary storage operation** — clean fail, torn append, or
//! applied-then-failed — recover from whatever the "disk" holds, retry
//! the in-flight call, and the evidence state, epoch version, and every
//! subsequent outcome must be byte-identical to a run that never
//! crashed.
//!
//! The sweep is exhaustive over the crash *point*: a reference run over
//! counting storage learns how many mutating operations the workload
//! performs, then every operation index is killed once per seed (the
//! seed picks the fault mode per index deterministically). Extra seeds
//! come from `XT_CRASH_SEEDS` (comma-separated), which CI sets for a
//! wider sweep than the local default.

use xt_fleet::storage::{FaultMode, FaultyStorage, MemStorage};
use xt_fleet::wal::{DurabilityConfig, DurabilityError, DurableFleet};
use xt_fleet::{FleetConfig, FleetMetrics, IngestReceipt, RunReport, Storage};

/// One step of the deterministic workload.
#[derive(Clone, Debug)]
enum Action {
    Ingest(RunReport),
    Publish,
    Snapshot,
}

/// What one step produced (the "subsequent outcomes" the invariant
/// compares).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Outcome {
    Ingested(IngestReceipt),
    Published(u64),
    Snapshotted,
}

impl Outcome {
    /// The epoch the outcome observed — the part of a *retried* step's
    /// outcome that must still match the reference (a retry may
    /// legitimately flip `duplicate` when the crash ate an
    /// acknowledgment, but it must see the same epoch).
    fn epoch(&self) -> u64 {
        match self {
            Outcome::Ingested(r) => r.epoch,
            Outcome::Published(n) => *n,
            Outcome::Snapshotted => 0,
        }
    }
}

fn report(client: u64, seq: u32, i: u64) -> RunReport {
    // Deterministic variety: failed/clean runs, both observation
    // families, probabilities across the grid, occasional hints.
    let site = 0xB000 + (i % 7) as u32;
    let x = [0.25, 0.5, 0.75, 1.0 - 0.5f64.powi(9)][(i % 4) as usize];
    RunReport {
        client,
        seq,
        failed: !i.is_multiple_of(3),
        clock: 100 + i,
        n_sites: 50 + (i % 40) as u32,
        overflow_obs: if i.is_multiple_of(2) {
            vec![(site, x, !i.is_multiple_of(3))]
        } else {
            Vec::new()
        },
        dangling_obs: if i % 2 == 1 {
            vec![(site, x, true), (site + 1, x, i.is_multiple_of(5))]
        } else {
            Vec::new()
        },
        pad_hints: if i.is_multiple_of(4) {
            vec![(site, 8 + (i % 64) as u32)]
        } else {
            Vec::new()
        },
        defer_hints: if i % 3 == 1 {
            vec![(site, 0xF, 10 + i)]
        } else {
            Vec::new()
        },
    }
}

/// ~50 steps: 40 ingests from 6 clients (including deliberate
/// redeliveries — the at-least-once transport), explicit publishes, and
/// explicit snapshots, interleaved. Auto-publish (`publish_every`) and
/// auto-snapshot (`snapshot_every`) cadences fire on top of these.
fn script() -> Vec<Action> {
    let mut actions = Vec::new();
    for i in 0..40u64 {
        let client = i % 6;
        let seq = (i / 6) as u32;
        actions.push(Action::Ingest(report(client, seq, i)));
        if i % 9 == 4 {
            // Redeliver the report just sent: a duplicate in the WAL.
            actions.push(Action::Ingest(report(client, seq, i)));
        }
        if i == 13 || i == 31 {
            actions.push(Action::Publish);
        }
        if i == 21 {
            actions.push(Action::Snapshot);
        }
    }
    actions
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        publish_every: 10,
        ..FleetConfig::default()
    }
}

const DURABILITY: DurabilityConfig = DurabilityConfig { snapshot_every: 8 };

/// Applies one action, mapping results to comparable outcomes.
fn apply<S: xt_fleet::Storage>(
    fleet: &DurableFleet<S>,
    action: &Action,
) -> Result<Outcome, DurabilityError> {
    match action {
        Action::Ingest(r) => fleet.ingest_report(r).map(Outcome::Ingested),
        Action::Publish => fleet.publish().map(|e| Outcome::Published(e.number)),
        Action::Snapshot => fleet.snapshot().map(|()| Outcome::Snapshotted),
    }
}

/// The uncrashed reference: outcomes, final digest, final metrics, and
/// the number of mutating storage operations the workload performs.
fn reference() -> (Vec<Outcome>, u128, FleetMetrics, u64) {
    let counter = FaultyStorage::counting(MemStorage::new());
    let (outcomes, digest, metrics) = {
        let fleet = DurableFleet::open(&counter, fleet_config(), DURABILITY).expect("clean open");
        let outcomes: Vec<Outcome> = script()
            .iter()
            .map(|a| apply(&fleet, a).expect("uncrashed run"))
            .collect();
        (outcomes, fleet.state_digest(), fleet.metrics())
    };
    (outcomes, digest, metrics, counter.ops())
}

fn seeds() -> Vec<u64> {
    match std::env::var("XT_CRASH_SEEDS") {
        Ok(s) => s
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|t| t.trim().parse().expect("XT_CRASH_SEEDS: decimal seeds"))
            .collect(),
        Err(_) => vec![1, 7],
    }
}

/// The tentpole property. For every mutating storage operation the
/// workload performs, and every seed's fault mode at that operation:
/// crash there, recover, retry, finish — and converge byte-identically.
#[test]
fn recovery_from_any_crash_point_is_byte_identical() {
    let (ref_outcomes, ref_digest, ref_metrics, total_ops) = reference();
    assert!(
        total_ops > 40,
        "workload too small to be a meaningful sweep ({total_ops} ops)"
    );
    let script = script();
    let mut crashes = 0u64;
    let mut torn_seen = 0u64;
    let mut recoveries_seen = 0u64;
    for seed in seeds() {
        for fail_at in 0..total_ops {
            let disk = MemStorage::new();
            let faulty = FaultyStorage::with_seed(disk.clone(), seed, fail_at);
            let injected_mode = faulty.mode();
            let fleet =
                DurableFleet::open(faulty, fleet_config(), DURABILITY).expect("open only reads");
            let mut outcomes: Vec<Outcome> = Vec::with_capacity(script.len());
            let mut crash_idx = None;
            let mut steps = script.iter().enumerate();
            for (i, action) in steps.by_ref() {
                match apply(&fleet, action) {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(DurabilityError::Storage(_)) => {
                        crash_idx = Some(i);
                        break;
                    }
                    Err(e) => panic!("seed {seed} op {fail_at}: non-storage error {e}"),
                }
            }
            let Some(crash_idx) = crash_idx else {
                // The doomed op was never reached (it belonged to the
                // reference's extra ops) — the run is just the reference.
                assert_eq!(outcomes, ref_outcomes, "seed {seed} op {fail_at}");
                assert_eq!(fleet.state_digest(), ref_digest, "seed {seed} op {fail_at}");
                continue;
            };
            crashes += 1;
            // The process dies; only the disk survives. A crash at the
            // very first mutating op can fail *cleanly* — zero bytes ever
            // reached the disk — and reopening an empty store is a fresh
            // start, not a recovery; everywhere else the reopen must
            // count exactly one.
            drop(fleet);
            let disk_holds_state = disk.object_len(xt_fleet::wal::WAL_OBJECT) > 0
                || disk.object_len(xt_fleet::wal::SNAPSHOT_OBJECT) > 0;
            let fleet = DurableFleet::open(disk, fleet_config(), DURABILITY)
                .unwrap_or_else(|e| panic!("seed {seed} op {fail_at}: recovery failed: {e}"));
            let m = fleet.metrics();
            assert_eq!(
                m.recoveries,
                u64::from(disk_holds_state),
                "seed {seed} op {fail_at}: recovery count disagrees with on-disk state"
            );
            recoveries_seen += m.recoveries;
            torn_seen += m.torn_tail_truncated;
            if matches!(injected_mode, FaultMode::Tear { .. }) {
                assert!(
                    m.recoveries >= m.torn_tail_truncated,
                    "torn counter without a recovery"
                );
            }
            // The client retries the call the crash swallowed. Its
            // outcome must observe the reference's epoch; the duplicate
            // flag may differ (crash-after-apply turns the retry into a
            // dropped redelivery — exactly the idempotence under test).
            let retried = apply(&fleet, &script[crash_idx])
                .unwrap_or_else(|e| panic!("seed {seed} op {fail_at}: retry failed: {e}"));
            assert_eq!(
                retried.epoch(),
                ref_outcomes[crash_idx].epoch(),
                "seed {seed} op {fail_at}: retried step saw a different epoch"
            );
            // Everything after the crash point must be byte-identical.
            for (i, action) in script.iter().enumerate().skip(crash_idx + 1) {
                let outcome = apply(&fleet, action)
                    .unwrap_or_else(|e| panic!("seed {seed} op {fail_at} step {i}: {e}"));
                assert_eq!(
                    outcome, ref_outcomes[i],
                    "seed {seed} op {fail_at}: outcome {i} diverged after recovery"
                );
            }
            assert_eq!(
                fleet.state_digest(),
                ref_digest,
                "seed {seed} op {fail_at} ({injected_mode:?}): state diverged"
            );
            let m = fleet.metrics();
            for (name, got, want) in [
                ("reports", m.reports, ref_metrics.reports),
                (
                    "failed_reports",
                    m.failed_reports,
                    ref_metrics.failed_reports,
                ),
                ("epoch", m.epoch, ref_metrics.epoch),
                ("epoch_reports", m.epoch_reports, ref_metrics.epoch_reports),
                ("n_sites", m.n_sites as u64, ref_metrics.n_sites as u64),
                (
                    "sites_tracked",
                    m.sites_tracked as u64,
                    ref_metrics.sites_tracked as u64,
                ),
            ] {
                assert_eq!(
                    got, want,
                    "seed {seed} op {fail_at}: metric {name} diverged"
                );
            }
        }
    }
    // The sweep must actually have exercised the interesting machinery.
    // (Per-crash recovery counting is asserted exactly above, against the
    // disk's actual contents at reopen.)
    assert!(crashes > 0, "no operation index ever crashed");
    assert!(recoveries_seen > 0, "the sweep never recovered real state");
    assert!(
        torn_seen > 0,
        "the sweep never produced a torn tail — Tear mode untested"
    );
}

/// Group commit: a batch ingest covers all its records with **one**
/// storage append, receipts come back in input order, and the WAL
/// replays to the identical state a record-at-a-time run reaches.
#[test]
fn batch_ingest_is_one_append_and_replays_identically() {
    let serial_digest = {
        let fleet = DurableFleet::open(
            MemStorage::new(),
            fleet_config(),
            DurabilityConfig { snapshot_every: 0 },
        )
        .unwrap();
        for i in 0..24u64 {
            fleet
                .ingest_report(&report(i % 6, (i / 6) as u32, i))
                .unwrap();
        }
        fleet.state_digest()
    };
    let disk = MemStorage::new();
    let batch: Vec<RunReport> = (0..24u64)
        .map(|i| report(i % 6, (i / 6) as u32, i))
        .collect();
    {
        let fleet = DurableFleet::open(
            disk.clone(),
            fleet_config(),
            DurabilityConfig { snapshot_every: 0 },
        )
        .unwrap();
        let receipts = fleet.ingest_batch(&batch).unwrap();
        assert_eq!(receipts.len(), 24);
        assert!(receipts.iter().all(|r| !r.duplicate));
        let m = fleet.metrics();
        assert_eq!(m.wal_appends, 24, "every record hits the WAL");
        assert_eq!(m.wal_batches, 1, "…under a single group-commit append");
        assert_eq!(fleet.state_digest(), serial_digest, "batch fold diverged");
        assert!(fleet.ingest_batch(&[]).unwrap().is_empty());
    }
    let fleet =
        DurableFleet::open(disk, fleet_config(), DurabilityConfig { snapshot_every: 0 }).unwrap();
    assert_eq!(
        fleet.state_digest(),
        serial_digest,
        "replayed batch diverged"
    );
    assert_eq!(fleet.metrics().reports, 24);
}

/// The mid-batch crash property: kill the storage at every operation a
/// group-commit batch performs — including a *tear inside the
/// multi-record append* — recover, retry the whole batch, and the state
/// must converge to the uncrashed reference. A torn batch leaves a valid
/// record prefix that recovery replays; the retry's dedup drops exactly
/// that prefix and folds the rest.
#[test]
fn crash_mid_batch_recovers_and_batch_retry_is_idempotent() {
    let config = || FleetConfig {
        publish_every: 0,
        ..FleetConfig::default()
    };
    let durability = DurabilityConfig { snapshot_every: 16 };
    let batch: Vec<RunReport> = (0..48u64)
        .map(|i| report(i % 8, (i / 8) as u32, i))
        .collect();
    let (ref_digest, total_ops) = {
        let counter = FaultyStorage::counting(MemStorage::new());
        let fleet = DurableFleet::open(&counter, config(), durability).unwrap();
        fleet.ingest_batch(&batch).unwrap();
        (fleet.state_digest(), counter.ops())
    };
    assert!(total_ops >= 3, "batch + cadence snapshot expected");
    let mut torn_mid_batch = 0u64;
    for seed in seeds() {
        for fail_at in 0..total_ops {
            let disk = MemStorage::new();
            let faulty = FaultyStorage::with_seed(disk.clone(), seed, fail_at);
            let injected_mode = faulty.mode();
            let fleet = DurableFleet::open(faulty, config(), durability).unwrap();
            match fleet.ingest_batch(&batch) {
                Ok(receipts) => {
                    // ApplyThenFail on a snapshot op can still surface as
                    // the batch error; a fully clean pass must match.
                    assert_eq!(receipts.len(), batch.len());
                }
                Err(DurabilityError::Storage(_)) => {}
                Err(e) => panic!("seed {seed} op {fail_at}: non-storage error {e}"),
            }
            drop(fleet);
            let fleet = DurableFleet::open(disk, config(), durability)
                .unwrap_or_else(|e| panic!("seed {seed} op {fail_at}: recovery failed: {e}"));
            let replayed = fleet.metrics().reports;
            if fleet.metrics().torn_tail_truncated > 0 && replayed < 48 {
                // The tear landed inside the batch append: recovery
                // truncated it and replayed the valid record prefix.
                torn_mid_batch += 1;
            }
            // The client retries the whole batch (at-least-once): dedup
            // must drop what survived and fold the remainder.
            let receipts = fleet
                .ingest_batch(&batch)
                .unwrap_or_else(|e| panic!("seed {seed} op {fail_at}: retry failed: {e}"));
            assert_eq!(
                receipts.iter().filter(|r| r.duplicate).count() as u64,
                replayed,
                "seed {seed} op {fail_at} ({injected_mode:?}): dedup disagrees with replay"
            );
            assert_eq!(
                fleet.state_digest(),
                ref_digest,
                "seed {seed} op {fail_at} ({injected_mode:?}): state diverged"
            );
            assert_eq!(fleet.metrics().reports, 48, "seed {seed} op {fail_at}");
        }
    }
    assert!(
        torn_mid_batch > 0,
        "the sweep never tore inside a batch append — widen the tear window"
    );
    // The injected tear window sits in the first 64 bytes, which lands
    // inside record 1; finish with a deterministic tear deep in the
    // batch so a strict *non-empty* record prefix replays and the retry
    // dedups exactly that prefix.
    let disk = MemStorage::new();
    {
        let fleet = DurableFleet::open(
            disk.clone(),
            config(),
            DurabilityConfig { snapshot_every: 0 },
        )
        .unwrap();
        fleet.ingest_batch(&batch).unwrap();
    }
    let log = disk.read(xt_fleet::wal::WAL_OBJECT).unwrap().unwrap();
    disk.truncate(xt_fleet::wal::WAL_OBJECT, (log.len() * 2 / 5) as u64)
        .unwrap();
    let fleet = DurableFleet::open(disk, config(), DurabilityConfig { snapshot_every: 0 }).unwrap();
    assert_eq!(fleet.metrics().torn_tail_truncated, 1);
    let replayed = fleet.metrics().reports;
    assert!(
        replayed > 0 && replayed < 48,
        "a 40% tear should leave a strict non-empty prefix, got {replayed}"
    );
    let receipts = fleet.ingest_batch(&batch).unwrap();
    assert_eq!(
        receipts.iter().filter(|r| r.duplicate).count() as u64,
        replayed,
        "retry must dedup exactly the replayed prefix"
    );
    assert_eq!(fleet.state_digest(), ref_digest);
    assert_eq!(fleet.metrics().reports, 48);
}

/// Durable ingest throughput sanity: WAL-on over in-memory storage stays
/// within an order of magnitude of the plain service (the real numbers
/// are `BENCHMARK.json`'s `fleet.wal_ingest_ns` / `fleet.ingest_ns`;
/// this guards against the write gate accidentally serializing
/// something pathological).
#[test]
fn durable_ingest_completes_a_real_workload() {
    let disk = MemStorage::new();
    let fleet = DurableFleet::open(
        disk,
        fleet_config(),
        DurabilityConfig { snapshot_every: 64 },
    )
    .unwrap();
    for i in 0..512u64 {
        fleet
            .ingest_report(&report(i % 16, (i / 16) as u32, i))
            .unwrap();
    }
    let m = fleet.metrics();
    assert_eq!(m.reports, 512);
    assert_eq!(m.wal_appends, 512);
    assert!(m.snapshots_written >= 7);
    assert!(m.epoch >= 1, "cadence publish never fired");
}
