//! Durability for the fleet service: an evidence write-ahead log plus
//! compacted snapshots, over any [`Storage`].
//!
//! # The problem
//!
//! A [`FleetService`] holds the entire population's §5 evidence and §6.4
//! patch epochs in RAM. One restart forgets millions of users' runs and
//! every in-flight prior — fatal for a service whose whole value is
//! *long-horizon* accumulation. [`DurableFleet`] wraps the service so a
//! crash at **any** point loses nothing:
//!
//! * **WAL-first ingest** — every report is appended to an append-only
//!   log *before* it is folded into the evidence table. Records reuse
//!   the `XTR1` report encoding under a checksummed record header.
//! * **Group commit** — concurrent ingests (a network server's worker
//!   pool, or an explicit [`DurableFleet::ingest_batch`]) stage their
//!   records behind the write gate; one *flush leader* drains everything
//!   staged and appends the whole batch as **one** storage append — one
//!   sync covers N records — then folds each record in LSN order and
//!   completes every staller's receipt. A lone caller degenerates to the
//!   serial path exactly (batch of one, identical error contract), so
//!   group commit is free when there is no concurrency to amortize.
//! * **Compacted snapshots** — on a configurable cadence (and on
//!   explicit request) the service's whole durable state — evidence bit
//!   patterns, epoch, counters, per-client replay windows — is exported
//!   as a [`FleetSnapshot`], atomically replaced on storage, and the WAL
//!   is reset. The running-grid evidence form is tiny, so a snapshot
//!   is O(sites), not O(reports ever ingested).
//! * **Recovery** — load the snapshot (if any), truncate any torn WAL
//!   tail (per-record checksum), replay the tail, and resume. Restored
//!   [`ReplayWindow`](crate::delivery::ReplayWindow)s classify
//!   already-folded `(client, seq)` pairs as duplicates, so replaying an
//!   overlapping tail — or a client retrying a report the crash
//!   swallowed the acknowledgment of — is **idempotent**.
//!
//! # WAL format
//!
//! Each record is `kind (u8) ∥ lsn (u64 LE) ∥ payload-len (u32 LE) ∥
//! checksum (u64 LE) ∥ payload`, where the checksum is FNV-1a 64 over
//! everything else. Kind 0 carries an encoded [`RunReport`]; kind 1 is an
//! explicit [`DurableFleet::publish`] (empty payload — auto-publishes on
//! the report cadence are *not* logged, they re-derive deterministically
//! from the persisted `pending` counter during replay). LSNs increase
//! strictly; the snapshot records the highest LSN folded into it, and
//! replay skips records at or below it — that is what makes the
//! snapshot-then-truncate pair safe without atomicity across the two
//! operations.
//!
//! A record that is incomplete, fails its checksum, has an unknown kind,
//! or breaks LSN monotonicity marks a **torn tail**: the crash happened
//! mid-append. Recovery truncates the log back to the last valid record
//! (counted in [`FleetMetrics::torn_tail_truncated`]) rather than
//! skipping — appends are sequential, so nothing valid can follow a torn
//! record.
//!
//! # The recovery invariant
//!
//! The property test (`tests/durability.rs`) sweeps a seeded injected
//! fault across every storage operation a workload performs — clean
//! fail, torn append, or applied-then-failed — kills the fleet at that
//! point, recovers, retries the in-flight call, and requires the final
//! [`FleetService::state_digest`] and all subsequent outcomes to be
//! byte-identical to a run that never crashed.

use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use xt_arena::{fnv1a_64, FNV1A_64_BASIS};
use xt_obs::Histogram;
use xt_patch::PatchEpoch;

use crate::service::{FleetConfig, FleetMetrics, FleetService, IngestReceipt, RestoreError};
use crate::storage::Storage;
use crate::wire::{FleetSnapshot, RunReport, WireError};

/// Storage object holding the write-ahead log.
pub const WAL_OBJECT: &str = "wal";
/// Storage object holding the latest compacted snapshot.
pub const SNAPSHOT_OBJECT: &str = "snapshot";

/// WAL record kind: an encoded [`RunReport`].
const REC_REPORT: u8 = 0;
/// WAL record kind: an explicit publish (empty payload).
const REC_PUBLISH: u8 = 1;

/// `kind ∥ lsn ∥ len ∥ checksum` — the fixed record header.
const RECORD_HEADER: usize = 1 + 8 + 4 + 8;

/// Payload cap mirrored from the frame layer: a WAL corrupted into a
/// huge length claim must not allocate gigabytes during recovery.
const MAX_RECORD_PAYLOAD: u32 = crate::frame::MAX_FRAME_PAYLOAD;

/// FNV-1a 64 over the record's header fields and payload.
fn record_checksum(kind: u8, lsn: u64, payload: &[u8]) -> u64 {
    let mut h = fnv1a_64(FNV1A_64_BASIS, &[kind]);
    h = fnv1a_64(h, &lsn.to_le_bytes());
    h = fnv1a_64(h, &(payload.len() as u32).to_le_bytes());
    fnv1a_64(h, payload)
}

/// Serializes one WAL record.
fn encode_record(kind: u8, lsn: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    out.push(kind);
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_checksum(kind, lsn, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One validated WAL record.
struct WalRecord {
    lsn: u64,
    kind: u8,
    payload: Vec<u8>,
}

/// Walks the log, returning every valid record and the byte length of
/// the valid prefix. Anything after the valid prefix is a torn tail.
fn scan_wal(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0;
    let mut last_lsn = None;
    while bytes.len() - pos >= RECORD_HEADER {
        let kind = bytes[pos];
        let lsn = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().expect("fixed split"));
        let len = u32::from_le_bytes(bytes[pos + 9..pos + 13].try_into().expect("fixed split"));
        let checksum =
            u64::from_le_bytes(bytes[pos + 13..pos + 21].try_into().expect("fixed split"));
        if !matches!(kind, REC_REPORT | REC_PUBLISH)
            || len > MAX_RECORD_PAYLOAD
            || last_lsn.is_some_and(|last| lsn <= last)
        {
            break;
        }
        let body_end = pos + RECORD_HEADER + len as usize;
        if body_end > bytes.len() {
            break;
        }
        let payload = &bytes[pos + RECORD_HEADER..body_end];
        if record_checksum(kind, lsn, payload) != checksum {
            break;
        }
        records.push(WalRecord {
            lsn,
            kind,
            payload: payload.to_vec(),
        });
        last_lsn = Some(lsn);
        pos = body_end;
    }
    (records, pos)
}

/// Durability-layer configuration.
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// Write a compacted snapshot (and reset the WAL) after this many
    /// fresh reports since the last snapshot (0 = snapshot only when
    /// [`DurableFleet::snapshot`] is called). Bounds both WAL growth and
    /// recovery replay time.
    pub snapshot_every: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            snapshot_every: 1024,
        }
    }
}

/// Why a durable operation failed.
#[derive(Debug)]
pub enum DurabilityError {
    /// The backing storage failed; the in-memory service may be behind
    /// the caller's expectation — treat the instance as dead and reopen.
    Storage(io::Error),
    /// Bytes (an ingested report, or a persisted snapshot/record during
    /// recovery) failed wire validation.
    Wire(WireError),
    /// The persisted snapshot is incompatible with the opening
    /// configuration.
    Restore(RestoreError),
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Storage(e) => write!(f, "durable storage failed: {e}"),
            DurabilityError::Wire(e) => write!(f, "malformed durable bytes: {e}"),
            DurabilityError::Restore(e) => write!(f, "snapshot restore failed: {e}"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<io::Error> for DurabilityError {
    fn from(e: io::Error) -> Self {
        DurabilityError::Storage(e)
    }
}

impl From<WireError> for DurabilityError {
    fn from(e: WireError) -> Self {
        DurabilityError::Wire(e)
    }
}

impl From<RestoreError> for DurabilityError {
    fn from(e: RestoreError) -> Self {
        DurabilityError::Restore(e)
    }
}

/// State serialized by the write path: WAL order must equal fold order
/// (the auto-publish cadence depends on it), so ingest, publish, and
/// snapshot all run under this one lock.
struct WriteGate {
    /// Fresh (non-duplicate) reports since the last snapshot.
    fresh: u64,
    /// LSN the next WAL record will carry.
    next_lsn: u64,
    /// Reports staged (LSN already assigned, in order) for the flush
    /// leader's next group-commit append.
    staged: Vec<StagedRecord>,
    /// A flush leader is currently draining `staged`; stagers park on
    /// their slots, whole-state operations park on quiescence.
    flushing: bool,
}

/// One report staged for the next group-commit flush.
struct StagedRecord {
    lsn: u64,
    report: RunReport,
    slot: Arc<Slot>,
}

/// One staged record's completion slot: the flush leader fills it, the
/// staging caller collects from it. Errors travel as strings because
/// one storage failure must fan out to every caller in the batch.
struct Slot {
    state: Mutex<Option<Result<IngestReceipt, String>>>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Slot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn fill(&self, result: Result<IngestReceipt, String>) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.ready.notify_all();
    }

    fn collect(&self) -> Result<IngestReceipt, String> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = state.take() {
                return result;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A [`FleetService`] whose state survives crashes: WAL-first ingest,
/// periodic compacted snapshots, checksum-verified recovery. See the
/// module docs for the design and the recovery invariant.
///
/// Reads ([`DurableFleet::latest`], [`DurableFleet::metrics`], epoch
/// polling through [`DurableFleet::service`]) are exactly as concurrent
/// as the underlying service; writes are serialized by one lock, the
/// write gate, so the WAL totally orders them. This layer keeps no
/// counters of its own: WAL appends, group-commit batches, snapshots
/// and recoveries are counted in the service's state, bumped under the
/// gate (or in [`DurableFleet::open`]), so the lock order is always
/// gate → service state.
pub struct DurableFleet<S> {
    storage: S,
    service: Arc<FleetService>,
    config: DurabilityConfig,
    gate: Mutex<WriteGate>,
    /// Signalled by the flush leader when it retires with nothing
    /// staged; whole-state operations (publish, explicit snapshot) wait
    /// here so their WAL position never lands inside a report batch.
    quiesced: Condvar,
    /// Append latency, registered as `fleet/wal_append` in the wrapped
    /// service's observability registry.
    wal_append_hist: Arc<Histogram>,
    /// Wire-path ingest latency — the same `fleet/ingest` instrument the
    /// plain service records, so the histogram means "decode + admit +
    /// durable fold" whichever backend serves the wire.
    ingest_hist: Arc<Histogram>,
}

impl<S: Storage> DurableFleet<S> {
    /// Opens (or recovers) a durable fleet over `storage`: loads the
    /// snapshot if one exists, truncates any torn WAL tail, replays the
    /// valid tail, and resumes.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Storage`] if storage fails,
    /// [`DurabilityError::Wire`] /[`DurabilityError::Restore`] if the
    /// persisted state is malformed or incompatible with `fleet`.
    pub fn open(
        storage: S,
        fleet: FleetConfig,
        config: DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        let snapshot_bytes = storage.read(SNAPSHOT_OBJECT)?;
        let (service, snapshot_lsn) = match &snapshot_bytes {
            Some(bytes) => {
                // The snapshot envelope is an 8-byte applied-LSN prefix
                // over the canonical snapshot encoding.
                if bytes.len() < 8 {
                    return Err(WireError::Truncated { at: bytes.len() }.into());
                }
                let lsn = u64::from_le_bytes(bytes[..8].try_into().expect("fixed split"));
                let snap = FleetSnapshot::decode(&bytes[8..])?;
                (FleetService::from_snapshot(fleet, &snap)?, lsn)
            }
            None => (FleetService::new(fleet), 0),
        };
        let wal_bytes = storage.read(WAL_OBJECT)?.unwrap_or_default();
        let (records, valid_len) = scan_wal(&wal_bytes);
        let torn = valid_len < wal_bytes.len();
        if torn {
            storage.truncate(WAL_OBJECT, valid_len as u64)?;
        }
        if snapshot_bytes.is_some() || !wal_bytes.is_empty() {
            service.note_recovery(torn);
        }
        let mut fresh = 0;
        let mut next_lsn = snapshot_lsn + 1;
        for record in &records {
            next_lsn = record.lsn + 1;
            // Records the snapshot already folded (a crash landed between
            // the snapshot put and the WAL truncate): skipping them is
            // not even necessary for evidence — replay dedup would drop
            // them — but a replayed *publish* would re-reset the pending
            // cadence counter the snapshot preserved, so LSN fencing is
            // what keeps snapshot-then-truncate safe without atomicity.
            if record.lsn <= snapshot_lsn {
                continue;
            }
            match record.kind {
                REC_REPORT => {
                    let report = RunReport::decode(&record.payload)?;
                    if !service.ingest_report(&report).duplicate {
                        fresh += 1;
                    }
                }
                _ => {
                    service.publish();
                }
            }
        }
        let wal_append_hist = service.observability().histogram("fleet/wal_append");
        let ingest_hist = service.observability().histogram("fleet/ingest");
        let fleet = DurableFleet {
            storage,
            service: Arc::new(service),
            config,
            gate: Mutex::new(WriteGate {
                fresh,
                next_lsn,
                staged: Vec::new(),
                flushing: false,
            }),
            quiesced: Condvar::new(),
            wal_append_hist,
            ingest_hist,
        };
        Ok(fleet)
    }

    /// The wrapped service, for read paths (epoch polling, metrics,
    /// direct snapshot export). Mutating the service behind the WAL's
    /// back forfeits durability for those mutations.
    #[must_use]
    pub fn service(&self) -> &FleetService {
        &self.service
    }

    /// A shared handle to the wrapped service, for read-side consumers
    /// that outlive a borrow (e.g. a server exposing epoch polling while
    /// the durable fleet serves writes). Same caveat as
    /// [`DurableFleet::service`]: mutations must go through the WAL.
    #[must_use]
    pub fn service_handle(&self) -> Arc<FleetService> {
        Arc::clone(&self.service)
    }

    /// The current epoch snapshot (never blocked by writers).
    #[must_use]
    pub fn latest(&self) -> Arc<PatchEpoch> {
        self.service.latest()
    }

    /// Locks the write gate, recovering from a poisoned lock: every gate
    /// critical section leaves storage and service consistent at each
    /// step boundary (WAL-first ordering), so continuing is sound.
    fn gate(&self) -> MutexGuard<'_, WriteGate> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Decodes and durably ingests one wire report. Malformed bytes are
    /// rejected (and counted) before anything touches the WAL or the
    /// evidence.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Wire`] on malformed bytes (the service is
    /// unchanged), [`DurabilityError::Storage`] if the WAL append or a
    /// cadence snapshot failed (treat the instance as dead and reopen —
    /// recovery converges to the correct state either way).
    pub fn ingest(&self, bytes: &[u8]) -> Result<IngestReceipt, DurabilityError> {
        let started = Instant::now();
        // Validation and admission control before the WAL: a rejected or
        // rate-limited report must never be appended, or replay would
        // fold what ingest refused.
        let report = self.service.admit(bytes)?;
        let receipt = self.ingest_report(&report)?;
        self.ingest_hist.record_duration(started.elapsed());
        Ok(receipt)
    }

    /// Durably ingests one decoded report: WAL append first, then the
    /// evidence fold, then (for fresh reports) the snapshot cadence.
    ///
    /// Concurrent callers group-commit: their records share one storage
    /// append (see the module docs). A lone caller is a batch of one.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Storage`] as for [`DurableFleet::ingest`].
    pub fn ingest_report(&self, report: &RunReport) -> Result<IngestReceipt, DurabilityError> {
        let mut receipts = self.commit_reports(std::slice::from_ref(report))?;
        Ok(receipts.pop().expect("one report staged, one receipt"))
    }

    /// Durably ingests a batch of decoded reports under **one** WAL
    /// append — one storage sync covers the whole batch. Receipts come
    /// back in input order; an empty batch is a no-op.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Storage`] as for [`DurableFleet::ingest`]; a
    /// storage failure fails the whole batch (recovery replays whatever
    /// prefix landed, and retrying the batch is dedup-idempotent).
    pub fn ingest_batch(
        &self,
        reports: &[RunReport],
    ) -> Result<Vec<IngestReceipt>, DurabilityError> {
        if reports.is_empty() {
            return Ok(Vec::new());
        }
        self.commit_reports(reports)
    }

    /// Stages `reports` (assigning LSNs in order) and either leads the
    /// flush or waits for the running leader to carry them.
    fn commit_reports(&self, reports: &[RunReport]) -> Result<Vec<IngestReceipt>, DurabilityError> {
        let mut slots = Vec::with_capacity(reports.len());
        {
            let mut gate = self.gate();
            for report in reports {
                let lsn = gate.next_lsn;
                gate.next_lsn = lsn + 1;
                let slot = Slot::new();
                gate.staged.push(StagedRecord {
                    lsn,
                    report: report.clone(),
                    slot: Arc::clone(&slot),
                });
                slots.push(slot);
            }
            if !gate.flushing {
                gate.flushing = true;
                self.run_flush(gate);
            }
            // else: the leader re-checks `staged` before retiring, so it
            // is guaranteed to pick these records up.
        }
        let mut receipts = Vec::with_capacity(slots.len());
        for slot in slots {
            match slot.collect() {
                Ok(receipt) => receipts.push(receipt),
                Err(msg) => return Err(DurabilityError::Storage(io::Error::other(msg))),
            }
        }
        Ok(receipts)
    }

    /// The flush leader: drains everything staged, appends the whole
    /// batch as one storage append, folds each record in LSN order under
    /// the gate (WAL order == fold order, the cadence invariant), and
    /// completes every staller's slot. Loops until nothing new was
    /// staged while it worked, then retires and signals quiescence.
    fn run_flush<'a>(&'a self, mut gate: MutexGuard<'a, WriteGate>) {
        loop {
            let batch = std::mem::take(&mut gate.staged);
            if batch.is_empty() {
                gate.flushing = false;
                drop(gate);
                self.quiesced.notify_all();
                return;
            }
            // Encode and append outside the gate so stagers can pile the
            // next batch on while this one syncs.
            drop(gate);
            let mut bytes = Vec::new();
            for record in &batch {
                bytes.extend_from_slice(&encode_record(
                    REC_REPORT,
                    record.lsn,
                    &record.report.encode(),
                ));
            }
            let append_started = Instant::now();
            let appended = self.storage.append(WAL_OBJECT, &bytes);
            self.wal_append_hist
                .record_duration(append_started.elapsed());
            gate = self.gate();
            match appended {
                Ok(()) => {
                    self.service.note_wal(batch.len() as u64, 1);
                    let mut results = Vec::with_capacity(batch.len());
                    for record in &batch {
                        let receipt = self.service.ingest_report(&record.report);
                        if !receipt.duplicate {
                            gate.fresh += 1;
                        }
                        results.push(receipt);
                    }
                    let mut failure = None;
                    if self.config.snapshot_every > 0 && gate.fresh >= self.config.snapshot_every {
                        if let Err(e) = self.write_snapshot(&mut gate) {
                            failure = Some(e.to_string());
                        }
                    }
                    for (record, receipt) in batch.iter().zip(results) {
                        match &failure {
                            // The folds are WAL-covered and replay-dedup
                            // idempotent, but the instance must be
                            // treated as dead: the cadence-snapshot
                            // failure reaches every caller in the batch
                            // (for a batch of one this is exactly the
                            // serial contract).
                            Some(msg) => record.slot.fill(Err(msg.clone())),
                            None => record.slot.fill(Ok(receipt)),
                        }
                    }
                }
                Err(e) => {
                    // Nothing folded: the WAL may hold a torn prefix of
                    // this batch, which recovery truncates or replays —
                    // either converges once callers retry.
                    let msg = e.to_string();
                    for record in &batch {
                        record.slot.fill(Err(msg.clone()));
                    }
                }
            }
        }
    }

    /// Holds the gate until no flush leader runs and nothing is staged.
    fn wait_quiescent<'a>(
        &'a self,
        mut gate: MutexGuard<'a, WriteGate>,
    ) -> MutexGuard<'a, WriteGate> {
        while gate.flushing || !gate.staged.is_empty() {
            gate = self
                .quiesced
                .wait(gate)
                .unwrap_or_else(PoisonError::into_inner);
        }
        gate
    }

    /// Durably publishes: the publish intent is WAL-logged, then applied,
    /// so recovery replays it at the same point in the report order.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Storage`] if the WAL append failed (the epoch
    /// was not advanced).
    pub fn publish(&self) -> Result<Arc<PatchEpoch>, DurabilityError> {
        let mut gate = self.wait_quiescent(self.gate());
        let lsn = gate.next_lsn;
        // xt-analyze: allow(time-source) -- WAL append latency observation; never reaches the record bytes
        let append_started = Instant::now();
        self.storage
            .append(WAL_OBJECT, &encode_record(REC_PUBLISH, lsn, &[]))?;
        // xt-analyze: allow(obs-in-det) -- records append latency; the WAL record is already on disk
        self.wal_append_hist
            .record_duration(append_started.elapsed());
        gate.next_lsn = lsn + 1;
        self.service.note_wal(1, 0);
        Ok(self.service.publish())
    }

    /// Writes a compacted snapshot now and resets the WAL.
    ///
    /// # Errors
    ///
    /// [`DurabilityError::Storage`] if storage failed; if the failure
    /// landed between the snapshot put and the WAL reset, recovery
    /// LSN-fences the overlap (see the module docs).
    pub fn snapshot(&self) -> Result<(), DurabilityError> {
        let mut gate = self.wait_quiescent(self.gate());
        self.write_snapshot(&mut gate)
    }

    /// Snapshot under the held gate: export, atomically replace, reset
    /// the WAL.
    fn write_snapshot(&self, gate: &mut WriteGate) -> Result<(), DurabilityError> {
        // Everything up to (not including) next_lsn is folded into this
        // export — the gate is held, so no concurrent writer can slip a
        // record in between.
        let applied_lsn = gate.next_lsn - 1;
        let snap = self.service.export_snapshot();
        let mut bytes = applied_lsn.to_le_bytes().to_vec();
        bytes.extend_from_slice(&snap.encode());
        self.storage.put(SNAPSHOT_OBJECT, &bytes)?;
        self.storage.truncate(WAL_OBJECT, 0)?;
        self.service.note_snapshot_written();
        gate.fresh = 0;
        Ok(())
    }

    /// The service's counters ([`FleetService::metrics`]), this layer's
    /// durability counters included ([`FleetMetrics::wal_appends`],
    /// [`FleetMetrics::snapshots_written`], [`FleetMetrics::recoveries`],
    /// [`FleetMetrics::torn_tail_truncated`] — the latter two describe
    /// this instance's `open`).
    #[must_use]
    pub fn metrics(&self) -> FleetMetrics {
        self.service.metrics()
    }

    /// The service's canonical state digest
    /// ([`FleetService::state_digest`]).
    #[must_use]
    pub fn state_digest(&self) -> u128 {
        self.service.state_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    /// Pinned checksums: a WAL written before any refactor of the
    /// checksum (or of the FNV-1a fold under it) must still validate.
    #[test]
    fn record_checksum_is_pinned() {
        assert_eq!(
            record_checksum(REC_REPORT, 7, b"payload"),
            0x0df1_b32f_5ea8_2d3f
        );
        assert_eq!(
            record_checksum(REC_PUBLISH, 0x0102_0304_0506_0708, b""),
            0x3cfa_cd69_cb7b_4f54
        );
    }

    fn report(client: u64, seq: u32, site: u32) -> RunReport {
        RunReport {
            client,
            seq,
            failed: true,
            clock: 500,
            n_sites: 100,
            overflow_obs: Vec::new(),
            dangling_obs: vec![(site, 0.5, true)],
            pad_hints: Vec::new(),
            defer_hints: vec![(site, 0xF, 30)],
        }
    }

    fn config() -> FleetConfig {
        FleetConfig {
            publish_every: 0,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn state_survives_reopen_via_wal_replay() {
        let disk = MemStorage::new();
        let durability = DurabilityConfig { snapshot_every: 0 };
        let digest;
        {
            let fleet = DurableFleet::open(disk.clone(), config(), durability).unwrap();
            assert_eq!(
                fleet.metrics().recoveries,
                0,
                "fresh store is not a recovery"
            );
            for client in 0..20 {
                fleet.ingest_report(&report(client, 0, 0xBAD)).unwrap();
            }
            fleet.publish().unwrap();
            assert_eq!(fleet.latest().number, 1);
            let m = fleet.metrics();
            assert_eq!(m.wal_appends, 21);
            assert_eq!(m.snapshots_written, 0);
            digest = fleet.state_digest();
        }
        let fleet = DurableFleet::open(disk, config(), durability).unwrap();
        let m = fleet.metrics();
        assert_eq!(m.recoveries, 1);
        assert_eq!(m.reports, 20);
        assert_eq!(m.epoch, 1);
        assert_eq!(fleet.state_digest(), digest, "replayed state diverged");
        // Replayed dedup state still drops the clients' old sequences.
        assert!(fleet.ingest_report(&report(3, 0, 0xBAD)).unwrap().duplicate);
    }

    #[test]
    fn snapshot_compacts_and_restores_bit_identically() {
        let disk = MemStorage::new();
        let durability = DurabilityConfig { snapshot_every: 8 };
        let digest;
        {
            let fleet = DurableFleet::open(disk.clone(), config(), durability).unwrap();
            for client in 0..20 {
                fleet.ingest_report(&report(client, 0, 0xBAD)).unwrap();
            }
            let m = fleet.metrics();
            assert_eq!(m.snapshots_written, 2, "cadence of 8 over 20 reports");
            digest = fleet.state_digest();
            // The WAL holds only the post-snapshot tail (20 % 8 = 4).
            assert!(disk.object_len(WAL_OBJECT) < 21 * 100);
        }
        let fleet = DurableFleet::open(disk, config(), durability).unwrap();
        assert_eq!(fleet.state_digest(), digest);
        assert_eq!(fleet.metrics().reports, 20);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let disk = MemStorage::new();
        let durability = DurabilityConfig { snapshot_every: 0 };
        {
            let fleet = DurableFleet::open(disk.clone(), config(), durability).unwrap();
            for client in 0..5 {
                fleet.ingest_report(&report(client, 0, 0xBAD)).unwrap();
            }
        }
        // A crash mid-append: only half of a sixth record landed.
        let tail = encode_record(REC_REPORT, 6, &report(99, 0, 0xBAD).encode());
        disk.append(WAL_OBJECT, &tail[..tail.len() / 2]).unwrap();
        let torn_len = disk.object_len(WAL_OBJECT);
        let fleet = DurableFleet::open(disk.clone(), config(), durability).unwrap();
        let m = fleet.metrics();
        assert_eq!(m.torn_tail_truncated, 1);
        assert_eq!(m.reports, 5, "torn record must not be half-applied");
        assert!(
            disk.object_len(WAL_OBJECT) < torn_len,
            "torn tail left in place"
        );
        // The truncated log is valid: a further reopen is torn-free.
        drop(fleet);
        let fleet = DurableFleet::open(disk, config(), durability).unwrap();
        assert_eq!(fleet.metrics().torn_tail_truncated, 0);
        assert_eq!(fleet.metrics().reports, 5);
    }

    #[test]
    fn corrupted_record_checksum_fences_the_rest_of_the_log() {
        let disk = MemStorage::new();
        let durability = DurabilityConfig { snapshot_every: 0 };
        {
            let fleet = DurableFleet::open(disk.clone(), config(), durability).unwrap();
            for client in 0..5 {
                fleet.ingest_report(&report(client, 0, 0xBAD)).unwrap();
            }
        }
        // Flip one payload byte of the third record.
        let mut bytes = disk.read(WAL_OBJECT).unwrap().unwrap();
        let record_len = bytes.len() / 5;
        bytes[2 * record_len + RECORD_HEADER + 10] ^= 0xFF;
        disk.put(WAL_OBJECT, &bytes).unwrap();
        let fleet = DurableFleet::open(disk, config(), durability).unwrap();
        let m = fleet.metrics();
        assert_eq!(m.torn_tail_truncated, 1);
        assert_eq!(
            m.reports, 2,
            "records before the corruption replay, nothing after"
        );
    }

    #[test]
    fn rejected_bytes_never_reach_the_wal() {
        let disk = MemStorage::new();
        let fleet =
            DurableFleet::open(disk.clone(), config(), DurabilityConfig::default()).unwrap();
        assert!(matches!(
            fleet.ingest(b"not a report"),
            Err(DurabilityError::Wire(_))
        ));
        assert_eq!(fleet.metrics().rejected_reports, 1);
        assert_eq!(fleet.metrics().wal_appends, 0);
        assert_eq!(disk.object_len(WAL_OBJECT), 0);
    }
}
