//! The collaborative-correction service.
//!
//! Architecture (the Windows-Error-Reporting-scale loop of §5/§6.4):
//!
//! * **Ingestion** — a decoded [`RunReport`]'s observations and hints
//!   fold, in report order, into one [`EvidenceTable`] (the only owner
//!   of the run counters: reports, failures, the prior's `N`) behind
//!   **one** mutex, with the dedup windows, rate limiters and every other
//!   counter. An ingest takes it once for dedup, the fold and a cadence
//!   publish. One lock costs nothing because folds are serialized
//!   upstream anyway: the durable server
//!   ([`DurableFleet`](crate::wal::DurableFleet)) folds every record in
//!   LSN order under its one write gate, and the simulator, the
//!   scorecard and the benchmark ingest on one thread.
//! * **Classification** — the Bayesian test runs *incrementally*: the
//!   evidence is a running grid of each site's likelihood ratio, so
//!   folding a report costs O(observations × grid) and classification at
//!   publish time costs O(sites × grid), independent of how many reports
//!   ever arrived.
//! * **Publication** — [`FleetService::publish`] classifies the table
//!   under the global prior, joins the flagged patches into the previous
//!   epoch's table (the patch lattice of `xt-patch` makes this a
//!   convergent, monotone state), and installs a new
//!   [`PatchEpoch`] snapshot, all under the state lock, so publishers,
//!   ingests and snapshot exports serialize on it. A cadence publish
//!   runs before its ingest releases the lock, so it covers exactly the
//!   first `publish_every` reports. Clients poll
//!   [`FleetService::latest`], which hands out the current `Arc` snapshot
//!   from its own `RwLock` — readers never wait on a fold.
//! * **Delivery dedup** — reports are identified by `(client, seq)`;
//!   redelivery (at-least-once transports, client retries) is dropped, so
//!   ingestion is idempotent at the service level. Dedup state is a
//!   per-client [`ReplayWindow`] — a
//!   high-water mark plus a 128-bit out-of-order window — so memory is
//!   O(clients), not O(reports ever ingested). The property tests in
//!   `tests/properties.rs` verify order-insensitivity and idempotence
//!   against a sequential reference.
//! * **Long-haul survival** — a panicking ingest thread used to poison a
//!   lock and turn every later ingest into a panic, killing the service
//!   forever. Locks are now recovered: every state mutation is a
//!   sequence of self-contained steps (a window update, a counter bump,
//!   `observe_*`/`hint_*` calls) that each leave the state consistent,
//!   so `PoisonError::into_inner` is sound — at worst the interrupted
//!   report's remaining observations are lost (its seq was recorded by
//!   dedup first, so a redelivery is dropped, not re-folded). A bounded
//!   loss of one report's evidence is exactly what cumulative mode is
//!   built to absorb — §5 classifies over report *populations* — whereas
//!   the drop direction preserves idempotence. Each recovery (of the
//!   state lock or the epoch lock) is counted in
//!   [`FleetMetrics::lock_recoveries`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::{Duration, Instant};

use xt_alloc::{SiteHash, SitePair};
use xt_isolate::cumulative::CumulativeConfig;
use xt_isolate::evidence::{EvidenceTable, SiteEvidence};
use xt_obs::{Histogram, Registry, RegistrySnapshot, TokenBucket, TokenBucketConfig};
use xt_patch::{PatchEpoch, PatchParseError};

use crate::delivery::ReplayWindow;
use crate::wire::{EvidenceRecord, FleetSnapshot, RunReport, WireError};

/// Service configuration.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Classifier parameters of the evidence table.
    pub isolator: CumulativeConfig,
    /// Auto-publish a new epoch after this many ingested reports
    /// (0 = publish only when [`FleetService::publish`] is called).
    pub publish_every: u64,
    /// Per-client admission control on the **wire ingest path**
    /// ([`FleetService::ingest`]): each client gets a deterministic
    /// [`TokenBucket`] seeded from its id. `None` (the default) admits
    /// everything. In-process ingestion
    /// ([`FleetService::ingest_report`] — the simulator, WAL replay,
    /// restored snapshots) is never rate limited: replaying durable
    /// state must fold every record.
    pub rate_limit: Option<TokenBucketConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            isolator: CumulativeConfig::default(),
            publish_every: 256,
            rate_limit: None,
        }
    }
}

/// What ingesting one report did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestReceipt {
    /// The report was a redelivery and was dropped.
    pub duplicate: bool,
    /// Per-site observations folded in.
    pub observations: usize,
    /// Latest published epoch number — the client's cue to poll when it
    /// lags.
    pub epoch: u64,
}

/// Aggregate service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetMetrics {
    /// Unique reports ingested.
    pub reports: u64,
    /// Failed runs among them.
    pub failed_reports: u64,
    /// Redeliveries dropped by dedup.
    pub duplicates: u64,
    /// Malformed wire reports rejected by decode validation before any
    /// evidence was touched (bad framing, hostile counts, implausible
    /// site populations). A rejected report never reaches the evidence or
    /// the prior — it is counted, not folded.
    pub rejected_reports: u64,
    /// Well-formed wire reports refused by per-client admission control
    /// ([`FleetConfig::rate_limit`]) — the flooding-client counterpart
    /// of the hostile-report `rejected_reports` path. Like a rejection,
    /// a rate-limited report touches no evidence, prior, or dedup
    /// state.
    pub rate_limited: u64,
    /// Current epoch number.
    pub epoch: u64,
    /// Unique reports the service had ingested when the current epoch was
    /// published (0 for the genesis epoch) — the fleet's
    /// "reports-to-isolation" analogue of the paper's per-user run counts.
    pub epoch_reports: u64,
    /// Distinct sites with evidence.
    pub sites_tracked: usize,
    /// The global site-population maximum (prior `N`).
    pub n_sites: usize,
    /// Clients with live delivery-dedup state — the dedup memory bound is
    /// O(this), independent of how many reports each client ever sent.
    pub dedup_clients: usize,
    /// Poisoned locks recovered after a panicking thread (see the module
    /// docs); a nonzero value means the service survived a crash that
    /// would previously have been fatal forever.
    pub lock_recoveries: u64,
    /// WAL records appended. This and the four counters below are bumped
    /// only by [`DurableFleet`](crate::wal::DurableFleet), in the service
    /// state; a plain in-memory service reads 0.
    pub wal_appends: u64,
    /// Group-commit storage appends, each covering ≥ 1 WAL records;
    /// `wal_appends / wal_batches` is the realized batching factor.
    pub wal_batches: u64,
    /// Compacted snapshots written by the durability layer.
    pub snapshots_written: u64,
    /// Times this state was rebuilt from storage after a crash (1 after a
    /// recovery; a freshly created store opens with 0).
    pub recoveries: u64,
    /// Torn WAL tails detected by checksum and truncated during recovery.
    pub torn_tail_truncated: u64,
}

impl FleetMetrics {
    /// The counters as a name-sorted [`RegistrySnapshot`] under the
    /// `fleet/` namespace — the shape the metrics wire surface ships
    /// and the examples print. One conversion for every consumer, so
    /// durable and in-memory servers cannot drift on which counters
    /// they report.
    #[must_use]
    pub fn counters_snapshot(&self) -> RegistrySnapshot {
        let counters = vec![
            ("fleet/dedup_clients".to_string(), self.dedup_clients as u64),
            ("fleet/duplicates".to_string(), self.duplicates),
            ("fleet/epoch".to_string(), self.epoch),
            ("fleet/epoch_reports".to_string(), self.epoch_reports),
            ("fleet/failed_reports".to_string(), self.failed_reports),
            ("fleet/lock_recoveries".to_string(), self.lock_recoveries),
            ("fleet/n_sites".to_string(), self.n_sites as u64),
            ("fleet/rate_limited".to_string(), self.rate_limited),
            ("fleet/recoveries".to_string(), self.recoveries),
            ("fleet/rejected_reports".to_string(), self.rejected_reports),
            ("fleet/reports".to_string(), self.reports),
            ("fleet/sites_tracked".to_string(), self.sites_tracked as u64),
            (
                "fleet/snapshots_written".to_string(),
                self.snapshots_written,
            ),
            (
                "fleet/torn_tail_truncated".to_string(),
                self.torn_tail_truncated,
            ),
            ("fleet/wal_appends".to_string(), self.wal_appends),
            ("fleet/wal_batches".to_string(), self.wal_batches),
        ];
        RegistrySnapshot {
            counters,
            ..RegistrySnapshot::default()
        }
    }
}

/// Everything the service mutates, behind its one lock.
#[derive(Debug)]
struct State {
    /// The fleet's evidence, and its only run counters.
    evidence: EvidenceTable,
    /// Delivery-dedup state: one bounded [`ReplayWindow`] per client —
    /// O(clients) memory for the life of the service.
    seen: HashMap<u64, ReplayWindow>,
    /// Per-client admission buckets for the wire ingest path. Empty
    /// unless [`FleetConfig::rate_limit`] is set.
    limiters: HashMap<u64, TokenBucket>,
    duplicates: u64,
    rejected: u64,
    rate_limited: u64,
    /// Reports since the last publish (drives auto-publish).
    pending: u64,
    /// Number of the installed epoch (the condition behind
    /// [`FleetService::wait_epoch_newer`]), set with the epoch lock.
    newest_epoch: u64,
    /// [`DurableFleet`](crate::wal::DurableFleet)'s counters.
    wal_appends: u64,
    wal_batches: u64,
    snapshots_written: u64,
    recoveries: u64,
    torn_tail_truncated: u64,
}

/// The collaborative-correction service. All methods take `&self`;
/// share one instance across ingestion threads.
#[derive(Debug)]
pub struct FleetService {
    config: FleetConfig,
    /// Every fold, publish, snapshot export and metrics read holds this
    /// lock, so each sees one point in the report order.
    state: Mutex<State>,
    /// Signalled, under `state`, when a publish installs an epoch.
    epoch_wake: Condvar,
    /// Poisoned locks recovered (panicking ingest/publish threads). The
    /// one atomic: it is bumped while a lock is poisoned.
    lock_recoveries: AtomicU64,
    /// Latency instruments (observability only — never digested).
    registry: Arc<Registry>,
    ingest_hist: Arc<Histogram>,
    fold_hist: Arc<Histogram>,
    publish_hist: Arc<Histogram>,
    /// The current epoch snapshot, paired with the report count at its
    /// publication (one lock, so readers always see a consistent pair).
    /// Readers clone the `Arc` and go. Written only under `state`.
    epoch: RwLock<(Arc<PatchEpoch>, u64)>,
}

impl FleetService {
    /// Creates a service with empty evidence and the genesis epoch.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        let registry = Registry::new();
        let (ingest_hist, fold_hist, publish_hist) = (
            registry.histogram("fleet/ingest"),
            registry.histogram("fleet/fold"),
            registry.histogram("fleet/publish"),
        );
        FleetService {
            state: Mutex::new(State {
                evidence: EvidenceTable::new(config.isolator),
                seen: HashMap::new(),
                limiters: HashMap::new(),
                duplicates: 0,
                rejected: 0,
                rate_limited: 0,
                pending: 0,
                newest_epoch: 0,
                wal_appends: 0,
                wal_batches: 0,
                snapshots_written: 0,
                recoveries: 0,
                torn_tail_truncated: 0,
            }),
            epoch_wake: Condvar::new(),
            lock_recoveries: AtomicU64::new(0),
            epoch: RwLock::new((Arc::new(PatchEpoch::genesis()), 0)),
            registry,
            ingest_hist,
            fold_hist,
            publish_hist,
            config,
        }
    }

    /// The service's latency instruments (`fleet/ingest`, `fleet/fold`,
    /// `fleet/publish` — plus `fleet/wal_append` when wrapped by
    /// [`DurableFleet`](crate::wal::DurableFleet)). Observability only:
    /// nothing in here feeds [`FleetService::state_digest`].
    #[must_use]
    pub fn observability(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Counts one poisoned lock recovered.
    fn recovered<G>(&self, poisoned: PoisonError<G>) -> G {
        self.lock_recoveries.fetch_add(1, Ordering::Relaxed);
        poisoned.into_inner()
    }

    /// Locks the state, recovering (and counting) a poisoning left
    /// behind by a panicked thread instead of propagating it — the module
    /// docs argue why `into_inner` is sound.
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| self.recovered(p))
    }

    /// [`FleetService::lock_state`] for the epoch lock's read side.
    fn epoch_read(&self) -> RwLockReadGuard<'_, (Arc<PatchEpoch>, u64)> {
        self.epoch.read().unwrap_or_else(|p| self.recovered(p))
    }

    /// [`FleetService::lock_state`] for the epoch lock's write side.
    fn epoch_write(&self) -> RwLockWriteGuard<'_, (Arc<PatchEpoch>, u64)> {
        self.epoch.write().unwrap_or_else(|p| self.recovered(p))
    }

    /// Decodes and ingests one wire report.
    ///
    /// # Errors
    ///
    /// Returns the [`WireError`] if the bytes are malformed
    /// (counted in [`FleetMetrics::rejected_reports`]) or
    /// [`WireError::RateLimited`] if the sending client exhausted its
    /// admission budget (counted in [`FleetMetrics::rate_limited`]).
    /// Either way the evidence, prior, and dedup state are untouched.
    pub fn ingest(&self, bytes: &[u8]) -> Result<IngestReceipt, WireError> {
        let started = Instant::now();
        let report = self.admit(bytes)?;
        let receipt = self.ingest_report(&report);
        self.ingest_hist.record_duration(started.elapsed());
        Ok(receipt)
    }

    /// The wire path's checks, run before anything folds or reaches the
    /// durability layer's WAL: decode validation, then per-client
    /// admission control. Buckets are deterministic: refill is
    /// attempt-driven and the phase is seeded from the client id, so the
    /// same request sequence always gets the same admit/reject decisions.
    pub(crate) fn admit(&self, bytes: &[u8]) -> Result<RunReport, WireError> {
        let report = RunReport::decode(bytes).inspect_err(|_| self.lock_state().rejected += 1)?;
        let Some(rate) = self.config.rate_limit else {
            return Ok(report);
        };
        let client = report.client;
        let mut state = self.lock_state();
        let bucket = state
            .limiters
            .entry(client)
            .or_insert_with(|| TokenBucket::new(rate, client));
        if bucket.try_admit() {
            Ok(report)
        } else {
            state.rate_limited += 1;
            Err(WireError::RateLimited { client })
        }
    }

    /// Counts `records` WAL records landed in `appends` group-commit
    /// appends (a publish record is a record, not a group commit).
    pub(crate) fn note_wal(&self, records: u64, appends: u64) {
        let mut state = self.lock_state();
        state.wal_appends += records;
        state.wal_batches += appends;
    }

    /// Counts one compacted snapshot written.
    pub(crate) fn note_snapshot_written(&self) {
        self.lock_state().snapshots_written += 1;
    }

    /// Counts one rebuild from storage, and a torn WAL tail it truncated.
    pub(crate) fn note_recovery(&self, torn_tail: bool) {
        let mut state = self.lock_state();
        state.recoveries += 1;
        state.torn_tail_truncated += u64::from(torn_tail);
    }

    /// Ingests one decoded report: dedup, the fold and a cadence publish
    /// under one hold of the state lock.
    pub fn ingest_report(&self, report: &RunReport) -> IngestReceipt {
        // Converted before locking: the conversion allocates.
        let summary = report.to_summary();
        let mut state = self.lock_state();
        let delivery = state
            .seen
            .entry(report.client)
            .or_default()
            .observe(report.seq);
        if delivery.is_drop() {
            state.duplicates += 1;
            return IngestReceipt {
                duplicate: true,
                observations: 0,
                epoch: state.newest_epoch,
            };
        }
        let fold_started = Instant::now();
        state.evidence.record_run(&summary);
        self.fold_hist.record_duration(fold_started.elapsed());
        state.pending += 1;
        if self.config.publish_every > 0 && state.pending == self.config.publish_every {
            self.publish_locked(&mut state);
        }
        IngestReceipt {
            duplicate: false,
            observations: report.observations(),
            epoch: state.newest_epoch,
        }
    }

    /// The current epoch snapshot — an `Arc` clone, never blocked by
    /// ingestion or publication in progress.
    #[must_use]
    pub fn latest(&self) -> Arc<PatchEpoch> {
        self.epoch_read().0.clone()
    }

    /// The current epoch snapshot together with the number of unique
    /// reports the service had ingested when it was published (0 for the
    /// genesis epoch). The pair is read atomically, so the count always
    /// belongs to *this* epoch even while newer ones are being minted.
    #[must_use]
    pub fn latest_with_reports(&self) -> (Arc<PatchEpoch>, u64) {
        let guard = self.epoch_read();
        (guard.0.clone(), guard.1)
    }

    /// Classifies the evidence under the global prior and, if any new
    /// patches were isolated, installs the successor epoch. Returns the
    /// epoch current after the call (new or unchanged). Holds the state
    /// lock throughout, so publishers serialize with each other, with
    /// ingest and with snapshot exports.
    pub fn publish(&self) -> Arc<PatchEpoch> {
        self.publish_locked(&mut self.lock_state())
    }

    /// [`FleetService::publish`] under the held state lock.
    fn publish_locked(&self, state: &mut State) -> Arc<PatchEpoch> {
        // xt-analyze: allow(time-source) -- publish latency observation; feeds the histogram only, never the epoch bytes
        let started = Instant::now();
        state.pending = 0;
        let isolated = state.evidence.generate_patches();
        let current = self.latest();
        if current.covers(&isolated) {
            // xt-analyze: allow(obs-in-det) -- records how long publish took; the returned epoch is already decided
            self.publish_hist.record_duration(started.elapsed());
            return current;
        }
        let next = Arc::new(current.succeed(&isolated));
        *self.epoch_write() = (next.clone(), state.evidence.runs() as u64);
        state.newest_epoch = next.number;
        self.epoch_wake.notify_all();
        // xt-analyze: allow(obs-in-det) -- records how long publish took; the installed epoch is already decided
        self.publish_hist.record_duration(started.elapsed());
        next
    }

    /// Parks until an epoch *newer than* `have` is installed, or
    /// `timeout` elapses. Returns the newest epoch on success (which may
    /// be newer still than the one that woke the wait), `None` on
    /// timeout. This is the push primitive: an epoch watcher blocks
    /// here instead of polling [`FleetService::latest`] in a loop, and
    /// wakes the instant [`FleetService::publish`] installs a successor.
    pub fn wait_epoch_newer(&self, have: u64, timeout: Duration) -> Option<Arc<PatchEpoch>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock_state();
        while state.newest_epoch <= have {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            state = self
                .epoch_wake
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|p| self.recovered(p))
                .0;
        }
        drop(state);
        Some(self.latest())
    }

    /// Aggregate counters, read at one point in the report order.
    #[must_use]
    pub fn metrics(&self) -> FleetMetrics {
        let state = self.lock_state();
        let (epoch, epoch_reports) = self.latest_with_reports();
        FleetMetrics {
            reports: state.evidence.runs() as u64,
            failed_reports: state.evidence.failures() as u64,
            duplicates: state.duplicates,
            rejected_reports: state.rejected,
            rate_limited: state.rate_limited,
            epoch: epoch.number,
            epoch_reports,
            sites_tracked: state.evidence.sites_tracked(),
            n_sites: state.evidence.n_sites(),
            dedup_clients: state.seen.len(),
            lock_recoveries: self.lock_recoveries.load(Ordering::Relaxed),
            wal_appends: state.wal_appends,
            wal_batches: state.wal_batches,
            snapshots_written: state.snapshots_written,
            recoveries: state.recoveries,
            torn_tail_truncated: state.torn_tail_truncated,
        }
    }

    /// Exports the service's durable state as a compacted
    /// [`FleetSnapshot`] with canonically sorted collections (evidence
    /// and hints by site — the table's own order — windows by client),
    /// so the encoding, and therefore [`FleetService::state_digest`], is
    /// a function of the folded state alone.
    ///
    /// The export is a point in time: it holds the state lock
    /// throughout, so every report it counts is deduped and folded, and
    /// no epoch is minted mid-export.
    #[must_use]
    pub fn export_snapshot(&self) -> FleetSnapshot {
        let state = self.lock_state();
        let (epoch, epoch_reports) = self.latest_with_reports();
        let evidence = &state.evidence;
        let record = |(site, e): (SiteHash, &SiteEvidence)| {
            let (obs, grid) = e.raw_parts();
            EvidenceRecord {
                site: site.raw(),
                obs: obs as u64,
                grid: grid.to_vec(),
            }
        };
        let mut windows = Vec::new();
        // xt-analyze: allow(hash-iter) -- windows are sorted by client below, erasing the map's order before encoding
        windows.extend(state.seen.iter().map(|(&client, w)| {
            let (bits, high) = w.to_parts();
            (client, bits, high)
        }));
        windows.sort_unstable_by_key(|&(client, _, _)| client);
        FleetSnapshot {
            reports: evidence.runs() as u64,
            failed_reports: evidence.failures() as u64,
            duplicates: state.duplicates,
            rejected_reports: state.rejected,
            pending: state.pending,
            epoch_reports,
            n_sites: evidence.n_sites() as u64,
            integration_steps: u32::try_from(self.config.isolator.integration_steps)
                .unwrap_or(u32::MAX),
            epoch_text: epoch.to_text(),
            windows,
            overflow: evidence.overflow_evidence().map(record).collect(),
            dangling: evidence.dangling_evidence().map(record).collect(),
            pad_hints: evidence
                .pad_hint_entries()
                .map(|(s, p)| (s.raw(), p))
                .collect(),
            defer_hints: evidence
                .defer_hint_entries()
                .map(|(pair, t)| (pair.alloc.raw(), pair.free.raw(), t))
                .collect(),
        }
    }

    /// Rebuilds a service from a snapshot: counters, epoch, evidence and
    /// per-client replay windows. The restored windows are what make
    /// replaying an overlapping WAL tail after recovery idempotent —
    /// already-accepted `(client, seq)` pairs are classified as
    /// duplicates and dropped, not re-folded.
    ///
    /// # Errors
    ///
    /// [`RestoreError::GridMismatch`] if the snapshot's evidence grids
    /// were accumulated under a different `integration_steps` than
    /// `config` uses (a table folds every site on one grid),
    /// [`RestoreError::BadEpoch`] if the epoch text does not
    /// parse.
    pub fn from_snapshot(config: FleetConfig, snap: &FleetSnapshot) -> Result<Self, RestoreError> {
        let normalize = |steps: usize| steps.max(2) & !1;
        if normalize(snap.integration_steps as usize)
            != normalize(config.isolator.integration_steps)
        {
            return Err(RestoreError::GridMismatch {
                snapshot: snap.integration_steps,
                config: config.isolator.integration_steps,
            });
        }
        let epoch = PatchEpoch::from_text(&snap.epoch_text).map_err(RestoreError::BadEpoch)?;
        let service = FleetService::new(config);
        let mut state = service.lock_state();
        state.newest_epoch = epoch.number;
        *service.epoch_write() = (Arc::new(epoch), snap.epoch_reports);
        state.duplicates = snap.duplicates;
        state.rejected = snap.rejected_reports;
        state.pending = snap.pending;
        let count = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
        let evidence = &mut state.evidence;
        evidence.restore_run_counters(
            count(snap.reports),
            count(snap.failed_reports),
            count(snap.n_sites),
        );
        let restore = |rec: &EvidenceRecord| {
            let evidence = SiteEvidence::from_raw_parts(rec.obs as usize, rec.grid.clone());
            (SiteHash::from_raw(rec.site), evidence)
        };
        for (site, e) in snap.overflow.iter().map(restore) {
            evidence.insert_overflow_evidence(site, e);
        }
        for (site, e) in snap.dangling.iter().map(restore) {
            evidence.insert_dangling_evidence(site, e);
        }
        for &(site, pad) in &snap.pad_hints {
            evidence.hint_pad(SiteHash::from_raw(site), pad);
        }
        for &(alloc, free, ticks) in &snap.defer_hints {
            evidence.hint_deferral(
                SitePair::new(SiteHash::from_raw(alloc), SiteHash::from_raw(free)),
                ticks,
            );
        }
        state.seen.extend(
            snap.windows
                .iter()
                .map(|&(client, bits, high)| (client, ReplayWindow::from_parts(bits, high))),
        );
        drop(state);
        Ok(service)
    }

    /// FNV-1a 128 digest of the canonical snapshot encoding
    /// ([`FleetSnapshot::digest`]): two services with byte-identical
    /// durable state — evidence bit patterns, epoch, windows, counters —
    /// produce the same value. This is the equality the crash-injection
    /// property test asserts between a recovered service and one that
    /// never crashed.
    #[must_use]
    pub fn state_digest(&self) -> u128 {
        self.export_snapshot().digest()
    }
}

/// Why a snapshot could not be restored into a service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot's evidence grids use a different Simpson grid than
    /// the restoring configuration.
    GridMismatch {
        /// `integration_steps` recorded in the snapshot.
        snapshot: u32,
        /// `integration_steps` of the restoring config.
        config: usize,
    },
    /// The snapshot's epoch text does not parse.
    BadEpoch(PatchParseError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::GridMismatch { snapshot, config } => write!(
                f,
                "snapshot evidence uses {snapshot} integration steps, \
                 the restoring config uses {config}"
            ),
            RestoreError::BadEpoch(e) => write!(f, "snapshot epoch text does not parse: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn dangling_report(client: u64, seq: u32, site: u32) -> RunReport {
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

    #[test]
    fn evidence_accumulates_into_a_published_patch() {
        let service = FleetService::new(FleetConfig {
            publish_every: 0,
            ..FleetConfig::default()
        });
        // 20 clients each report the §7.2 dangling signature once.
        for client in 0..20 {
            let receipt = service.ingest_report(&dangling_report(client, 0, 0xBAD));
            assert!(!receipt.duplicate);
            assert_eq!(receipt.observations, 1);
        }
        assert_eq!(service.latest().number, 0, "nothing published yet");
        let epoch = service.publish();
        assert_eq!(epoch.number, 1);
        let pair = SitePair::new(SiteHash::from_raw(0xBAD), SiteHash::from_raw(0xF));
        assert_eq!(epoch.patches.deferral_for(pair), 30);
        // Republishing without new evidence does not mint an epoch.
        assert_eq!(service.publish().number, 1);
        let m = service.metrics();
        assert_eq!(m.reports, 20);
        assert_eq!(m.failed_reports, 20);
        assert_eq!(m.epoch, 1);
    }

    #[test]
    fn redelivery_is_dropped() {
        let service = FleetService::new(FleetConfig {
            publish_every: 0,
            ..FleetConfig::default()
        });
        let report = dangling_report(1, 0, 0xBAD);
        assert!(!service.ingest_report(&report).duplicate);
        assert!(service.ingest_report(&report).duplicate);
        let m = service.metrics();
        assert_eq!(m.reports, 1);
        assert_eq!(m.duplicates, 1);
    }

    #[test]
    fn auto_publish_fires_on_the_configured_cadence() {
        let service = FleetService::new(FleetConfig {
            publish_every: 10,
            ..FleetConfig::default()
        });
        for client in 0..30 {
            service.ingest_report(&dangling_report(client, 0, 0xBAD));
        }
        let epoch = service.latest();
        assert!(epoch.number >= 1, "auto-publish never fired");
        assert!(!epoch.patches.is_empty());
    }

    /// The dedup bugfix: state is one bounded window per client, not one
    /// entry per report — a long-lived client hammering the service keeps
    /// dedup memory constant while idempotence still holds for every
    /// redelivery an at-least-once transport would actually produce.
    #[test]
    fn dedup_memory_is_bounded_per_client() {
        let service = FleetService::new(FleetConfig {
            publish_every: 0,
            ..FleetConfig::default()
        });
        // One client, many reports: the old HashSet would now hold 4096
        // `(client, seq)` entries; the window holds exactly one record.
        for seq in 0..4096u32 {
            assert!(
                !service
                    .ingest_report(&dangling_report(7, seq, 0xBAD))
                    .duplicate
            );
        }
        let m = service.metrics();
        assert_eq!(m.reports, 4096);
        assert_eq!(m.dedup_clients, 1, "dedup state grew with report count");
        // Recent redeliveries are still dropped...
        assert!(
            service
                .ingest_report(&dangling_report(7, 4095, 0xBAD))
                .duplicate
        );
        assert!(
            service
                .ingest_report(&dangling_report(7, 4000, 0xBAD))
                .duplicate
        );
        // ...in-window out-of-order delivery is accepted exactly once...
        let late = dangling_report(7, 5000, 0xBAD);
        assert!(!service.ingest_report(&late).duplicate);
        assert!(
            !service
                .ingest_report(&dangling_report(7, 4999, 0xBAD))
                .duplicate
        );
        assert!(service.ingest_report(&late).duplicate);
        // ...and reports below the window floor are dropped, never
        // double-processed (the documented stale tradeoff).
        assert!(
            service
                .ingest_report(&dangling_report(7, 100, 0xBAD))
                .duplicate
        );
        // A second client costs one more window, nothing else.
        assert!(
            !service
                .ingest_report(&dangling_report(8, 0, 0xBAD))
                .duplicate
        );
        assert_eq!(service.metrics().dedup_clients, 2);
    }

    /// The poison bugfix: a thread that panics while holding a lock must
    /// not turn every later ingest, publish or epoch read into a panic.
    /// The service recovers both locks — the state mutex and either side
    /// of the epoch `RwLock` — keeps serving, and counts every recovery.
    #[test]
    fn poisoned_locks_recover_and_ingestion_continues() {
        let service = FleetService::new(FleetConfig {
            publish_every: 0,
            ..FleetConfig::default()
        });
        let recoveries = || service.lock_recoveries.load(Ordering::Relaxed);
        service.ingest_report(&dangling_report(1, 0, 0xBAD));
        // Poison the state lock, the way a panicking ingest thread would,
        // and the epoch lock by panicking on its write side (hook
        // silenced: these panics are the test fixture, not noise worth
        // printing).
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = service.state.lock().expect("not yet poisoned");
            panic!("simulated ingest panic while holding the state lock");
        }));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = service.epoch.write().expect("not yet poisoned");
            panic!("simulated publish panic while holding the epoch lock");
        }));
        std::panic::set_hook(hook);
        assert!(service.state.is_poisoned() && service.epoch.is_poisoned());
        assert_eq!(recoveries(), 0, "nothing has recovered a lock yet");
        // The epoch lock's read side: `latest` still answers, and its one
        // read of the poisoned lock is one counted recovery.
        assert_eq!(service.latest().number, 0);
        assert_eq!(recoveries(), 1, "an epoch read recovered uncounted");
        // Ingestion, dedup, publication, and metrics all keep working —
        // enough further clients report that the §5 classifier crosses
        // its threshold post-poison, as in the clean-path test above.
        let receipt = service.ingest_report(&dangling_report(2, 0, 0xBAD));
        assert!(
            !receipt.duplicate,
            "post-poison ingest rejected a fresh report"
        );
        assert!(receipt.observations > 0);
        assert_eq!(recoveries(), 2, "a state-lock recovery went uncounted");
        assert!(
            service
                .ingest_report(&dangling_report(2, 0, 0xBAD))
                .duplicate,
            "dedup state lost in recovery"
        );
        for client in 3..21 {
            service.ingest_report(&dangling_report(client, 0, 0xBAD));
        }
        // A publish that installs an epoch recovers the state lock, the
        // epoch read of the current epoch and the epoch write.
        let before = recoveries();
        let epoch = service.publish();
        assert_eq!(epoch.number, 1, "post-poison publish failed");
        assert_eq!(recoveries(), before + 3);
        let pair = SitePair::new(SiteHash::from_raw(0xBAD), SiteHash::from_raw(0xF));
        assert_eq!(epoch.patches.deferral_for(pair), 30);
        assert_eq!(service.latest().number, 1, "the epoch write was lost");
        // The push primitive: an installed epoch is found at once (state
        // lock, then one epoch read); a wait for a newer one times out.
        let before = recoveries();
        let pushed = service.wait_epoch_newer(0, Duration::from_secs(10));
        assert_eq!(pushed.map(|e| e.number), Some(1));
        assert_eq!(recoveries(), before + 2);
        let before = recoveries();
        assert!(service
            .wait_epoch_newer(1, Duration::from_millis(5))
            .is_none());
        assert!(recoveries() >= before + 2, "a poisoned wait went uncounted");
        let m = service.metrics();
        assert_eq!(m.reports, 20);
        assert!(
            m.lock_recoveries > 0,
            "recoveries happened but were not counted"
        );
    }

    #[test]
    fn wire_ingest_rejects_garbage_without_side_effects() {
        let service = FleetService::new(FleetConfig::default());
        assert!(service.ingest(b"not a report").is_err());
        assert_eq!(service.metrics().reports, 0);
        assert_eq!(service.metrics().rejected_reports, 1);
        let good = dangling_report(5, 1, 0xBAD).encode();
        assert!(service.ingest(&good).is_ok());
        assert_eq!(service.metrics().reports, 1);
    }

    /// The hostile-prior hardening end to end: a remote report claiming an
    /// absurd site population is rejected at decode, counted in the
    /// metrics, and leaves the Bayesian prior `N` exactly where honest
    /// reports put it — instead of silently out-maxing every site's prior.
    #[test]
    fn hostile_site_population_is_rejected_and_counted_not_folded() {
        let service = FleetService::new(FleetConfig {
            publish_every: 0,
            ..FleetConfig::default()
        });
        service.ingest_report(&dangling_report(1, 0, 0xBAD));
        let honest_n = service.metrics().n_sites;

        // `encode` does not validate, so a hostile client can produce
        // these bytes; `decode` must refuse them.
        let hostile = RunReport {
            n_sites: u32::MAX,
            ..dangling_report(2, 0, 0xBAD)
        }
        .encode();
        let err = service.ingest(&hostile).unwrap_err();
        assert!(
            matches!(err, WireError::BadSiteCount { n_sites, .. } if n_sites == u32::MAX),
            "{err:?}"
        );

        let m = service.metrics();
        assert_eq!(m.rejected_reports, 1, "rejection was not counted");
        assert_eq!(m.reports, 1, "rejected report was folded as evidence");
        assert_eq!(
            m.n_sites, honest_n,
            "a rejected report still skewed the prior"
        );
        // The hostile client's dedup window was never touched either: the
        // same (client, seq) later arriving in a valid report is fresh.
        assert!(
            !service
                .ingest_report(&dangling_report(2, 0, 0xBAD))
                .duplicate,
            "rejected report consumed the sender's dedup sequence"
        );
    }

    /// Admission control end to end: a flooding client is throttled on
    /// the wire path, a well-behaved client on the same service is not,
    /// refusals are counted, and neither dedup state nor evidence is
    /// touched by a refused report. The in-process path
    /// (`ingest_report` — simulator, WAL replay) is never limited.
    #[test]
    fn wire_ingest_rate_limits_flooding_clients_only() {
        let service = FleetService::new(FleetConfig {
            publish_every: 0,
            rate_limit: Some(TokenBucketConfig {
                burst: 4,
                refill_num: 1,
                refill_den: 8,
            }),
            ..FleetConfig::default()
        });
        let mut refused = 0u64;
        let mut refused_seqs = Vec::new();
        for seq in 0..64u32 {
            match service.ingest(&dangling_report(1, seq, 0xBAD).encode()) {
                Err(WireError::RateLimited { client }) => {
                    assert_eq!(client, 1);
                    refused += 1;
                    refused_seqs.push(seq);
                }
                Ok(receipt) => assert!(!receipt.duplicate),
                Err(e) => panic!("unexpected wire error: {e:?}"),
            }
        }
        assert!(refused > 40, "flood barely throttled: {refused}/64 refused");
        // A well-behaved client staying inside its burst is unaffected.
        for seq in 0..4u32 {
            assert!(
                service
                    .ingest(&dangling_report(2, seq, 0xBAD).encode())
                    .is_ok(),
                "in-burst client throttled at seq {seq}"
            );
        }
        let m = service.metrics();
        assert_eq!(m.rate_limited, refused);
        assert_eq!(
            m.rejected_reports, 0,
            "throttling is not a decode rejection"
        );
        // A refused report consumed nothing: its sequence is still
        // fresh when redelivered via the unlimited in-process path.
        let redelivered = refused_seqs[0];
        assert!(
            !service
                .ingest_report(&dangling_report(1, redelivered, 0xBAD))
                .duplicate,
            "rate-limited report consumed the sender's dedup sequence"
        );
    }

    #[test]
    fn latency_histograms_populate_on_the_service_paths() {
        let service = FleetService::new(FleetConfig {
            publish_every: 0,
            ..FleetConfig::default()
        });
        for client in 0..20 {
            service
                .ingest(&dangling_report(client, 0, 0xBAD).encode())
                .unwrap();
        }
        service.publish();
        let snap = service.observability().snapshot();
        assert_eq!(snap.histogram("fleet/ingest").unwrap().count(), 20);
        assert_eq!(snap.histogram("fleet/fold").unwrap().count(), 20);
        assert_eq!(snap.histogram("fleet/publish").unwrap().count(), 1);
    }

    #[test]
    fn concurrent_ingestion_matches_sequential_totals() {
        let config = FleetConfig {
            publish_every: 0,
            ..FleetConfig::default()
        };
        let service = FleetService::new(config);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let service = &service;
                scope.spawn(move || {
                    for i in 0..25u32 {
                        service.ingest_report(&dangling_report(t, i, 0xBAD + (i % 3)));
                    }
                });
            }
        });
        let m = service.metrics();
        assert_eq!(m.reports, 100);
        let epoch = service.publish();
        assert_eq!(epoch.number, 1);
        assert!(!epoch.patches.is_empty());
    }
}
