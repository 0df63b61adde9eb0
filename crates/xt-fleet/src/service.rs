//! The collaborative-correction service.
//!
//! Architecture (the Windows-Error-Reporting-scale loop of §5/§6.4):
//!
//! * **Ingestion** — a decoded [`RunReport`]'s observations and hints
//!   fold, in report order, into one [`EvidenceTable`] behind one mutex.
//!   One table suffices because folds are serialized upstream anyway:
//!   the durable server ([`DurableFleet`](crate::wal::DurableFleet))
//!   folds every record in LSN order under its one write gate, and the
//!   simulator, the scorecard and the benchmark ingest on one thread.
//!   Run-level metadata (report and failure counts, the site-population
//!   maximum `N` for the prior) lives in shared atomics, and dedup runs
//!   before the fold under its own lock.
//! * **Classification** — the Bayesian test runs *incrementally*: the
//!   evidence is a running grid of each site's likelihood ratio, so
//!   folding a report costs O(observations × grid) and classification at
//!   publish time costs O(sites × grid), independent of how many reports
//!   ever arrived.
//! * **Publication** — [`FleetService::publish`] classifies the table
//!   under the global prior, joins the flagged patches into the previous
//!   epoch's table (the patch lattice of `xt-patch` makes this a
//!   convergent, monotone state), and installs a new
//!   [`PatchEpoch`] snapshot, all under the table lock, so publishers and
//!   snapshot exports serialize on it. Clients poll
//!   [`FleetService::latest`], which hands out the current `Arc` snapshot
//!   without touching the table lock — readers never block ingestion.
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
//!   forever. Locks are now recovered: every table mutation is a
//!   sequence of self-contained `observe_*`/`hint_*` calls that each
//!   leave the evidence table consistent, so `PoisonError::into_inner`
//!   is sound — at worst the interrupted report's remaining observations
//!   are lost (its seq was recorded by dedup on the way in, so a
//!   redelivery is dropped, not re-folded). A bounded loss of one
//!   report's evidence is exactly what cumulative mode is built to
//!   absorb — §5 classifies over report *populations* — whereas the
//!   drop direction preserves idempotence. Each recovery is counted in
//!   [`FleetMetrics::lock_recoveries`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
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
    /// WAL records appended by the durability layer (0 for a plain
    /// in-memory service — these durability counters are populated by
    /// [`DurableFleet`](crate::wal::DurableFleet)).
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

/// The counters a durability layer overlays onto the base service
/// metrics. [`FleetService::metrics_with`] is the **single snapshot
/// path** every `FleetMetrics` consumer goes through: the plain
/// service passes [`DurabilityStats::default`], the durable wrapper
/// passes its live counters — neither hand-assembles the struct, so
/// they cannot drift on which counters they report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records appended.
    pub wal_appends: u64,
    /// Group-commit storage appends (each covering ≥ 1 records).
    pub wal_batches: u64,
    /// Compacted snapshots written.
    pub snapshots_written: u64,
    /// Times state was rebuilt from storage.
    pub recoveries: u64,
    /// Torn WAL tails truncated during recovery.
    pub torn_tail_truncated: u64,
}

/// The collaborative-correction service. All methods take `&self`;
/// share one instance across ingestion threads.
#[derive(Debug)]
pub struct FleetService {
    config: FleetConfig,
    /// The fleet's evidence. Every fold, publish and snapshot export
    /// holds this lock, so no epoch is minted mid-export.
    evidence: Mutex<EvidenceTable>,
    /// Delivery-dedup state: one bounded [`ReplayWindow`] per client —
    /// O(clients) memory for the life of the service.
    seen: Mutex<HashMap<u64, ReplayWindow>>,
    /// Global site-population maximum (`N` of the `cN − 1` threshold).
    n_sites: AtomicUsize,
    reports: AtomicU64,
    failed_reports: AtomicU64,
    duplicates: AtomicU64,
    rejected: AtomicU64,
    rate_limited: AtomicU64,
    /// Per-client admission buckets for the wire ingest path. Empty
    /// unless [`FleetConfig::rate_limit`] is set.
    limiters: Mutex<HashMap<u64, TokenBucket>>,
    /// Reports since the last publish (drives auto-publish).
    pending: AtomicU64,
    /// Poisoned locks recovered (panicking ingest/publish threads).
    lock_recoveries: AtomicU64,
    /// Latency instruments (observability only — never digested).
    registry: Arc<Registry>,
    ingest_hist: Arc<Histogram>,
    fold_hist: Arc<Histogram>,
    publish_hist: Arc<Histogram>,
    /// The current epoch snapshot, paired with the report count at its
    /// publication (one lock, so readers always see a consistent pair).
    /// Readers clone the `Arc` and go.
    epoch: RwLock<(Arc<PatchEpoch>, u64)>,
    /// Epoch-change signal for [`FleetService::wait_epoch_newer`]: the
    /// number of the newest installed epoch, updated (and its condvar
    /// notified) *after* the `epoch` write lock is released, so the
    /// two locks are never nested in this direction.
    epoch_signal: Mutex<u64>,
    epoch_wake: Condvar,
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
            evidence: Mutex::new(EvidenceTable::new(config.isolator)),
            seen: Mutex::new(HashMap::new()),
            n_sites: AtomicUsize::new(1),
            reports: AtomicU64::new(0),
            failed_reports: AtomicU64::new(0),
            duplicates: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            limiters: Mutex::new(HashMap::new()),
            pending: AtomicU64::new(0),
            lock_recoveries: AtomicU64::new(0),
            epoch: RwLock::new((Arc::new(PatchEpoch::genesis()), 0)),
            epoch_signal: Mutex::new(0),
            epoch_wake: Condvar::new(),
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

    /// Locks `mutex`, recovering (and counting) a poisoning left behind by
    /// a panicked thread instead of propagating it — the module docs argue
    /// why `into_inner` is sound for every lock in this service.
    fn lock_recovering<'a, T>(&self, mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
        mutex.lock().unwrap_or_else(|poisoned| {
            self.lock_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// [`FleetService::lock_recovering`] for the epoch lock's read side.
    fn epoch_read(&self) -> RwLockReadGuard<'_, (Arc<PatchEpoch>, u64)> {
        self.epoch.read().unwrap_or_else(|poisoned| {
            self.lock_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// [`FleetService::lock_recovering`] for the epoch lock's write side.
    fn epoch_write(&self) -> RwLockWriteGuard<'_, (Arc<PatchEpoch>, u64)> {
        self.epoch.write().unwrap_or_else(|poisoned| {
            self.lock_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
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
        let report = RunReport::decode(bytes).inspect_err(|_| self.note_rejected())?;
        self.admit(report.client)?;
        let receipt = self.ingest_report(&report);
        self.ingest_hist.record_duration(started.elapsed());
        Ok(receipt)
    }

    /// Per-client admission control for the wire path. Buckets are
    /// deterministic: refill is attempt-driven and the phase is seeded
    /// from the client id, so the same request sequence always gets
    /// the same admit/reject decisions.
    pub(crate) fn admit(&self, client: u64) -> Result<(), WireError> {
        let Some(rate) = self.config.rate_limit else {
            return Ok(());
        };
        let admitted = self
            .lock_recovering(&self.limiters)
            .entry(client)
            .or_insert_with(|| TokenBucket::new(rate, client))
            .try_admit();
        if admitted {
            Ok(())
        } else {
            self.rate_limited.fetch_add(1, Ordering::Relaxed);
            Err(WireError::RateLimited { client })
        }
    }

    /// Counts a malformed report rejected before decode reached the
    /// service — the durability layer validates bytes itself (a rejected
    /// report must never touch the WAL) but the rejection still belongs
    /// in these metrics.
    pub(crate) fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Ingests one decoded report.
    pub fn ingest_report(&self, report: &RunReport) -> IngestReceipt {
        let delivery = self
            .lock_recovering(&self.seen)
            .entry(report.client)
            .or_default()
            .observe(report.seq);
        if delivery.is_drop() {
            self.duplicates.fetch_add(1, Ordering::Relaxed);
            return IngestReceipt {
                duplicate: true,
                observations: 0,
                epoch: self.latest().number,
            };
        }
        self.reports.fetch_add(1, Ordering::Relaxed);
        if report.failed {
            self.failed_reports.fetch_add(1, Ordering::Relaxed);
        }
        self.n_sites
            .fetch_max(report.n_sites as usize, Ordering::Relaxed);

        let fold_started = Instant::now();
        {
            let mut evidence = self.lock_recovering(&self.evidence);
            for &(site, x, y) in &report.overflow_obs {
                evidence.observe_overflow(SiteHash::from_raw(site), x, y);
            }
            for &(site, x, y) in &report.dangling_obs {
                evidence.observe_dangling(SiteHash::from_raw(site), x, y);
            }
            for &(site, pad) in &report.pad_hints {
                evidence.hint_pad(SiteHash::from_raw(site), pad);
            }
            for &(alloc, free, ticks) in &report.defer_hints {
                evidence.hint_deferral(
                    SitePair::new(SiteHash::from_raw(alloc), SiteHash::from_raw(free)),
                    ticks,
                );
            }
        }
        self.fold_hist.record_duration(fold_started.elapsed());

        // Exactly-one trigger: `fetch_add` hands out consecutive values,
        // so precisely one ingesting thread observes the cadence boundary
        // — a `>=` check here would send every thread that crossed it
        // before the reset into a redundant full reclassification.
        let pending = self.pending.fetch_add(1, Ordering::Relaxed) + 1;
        if self.config.publish_every > 0 && pending == self.config.publish_every {
            self.publish();
        }
        IngestReceipt {
            duplicate: false,
            observations: report.observations(),
            epoch: self.latest().number,
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
    /// epoch current after the call (new or unchanged). Holds the table
    /// lock throughout, so publishers serialize with each other and with
    /// snapshot exports.
    pub fn publish(&self) -> Arc<PatchEpoch> {
        // xt-analyze: allow(time-source) -- publish latency observation; feeds the histogram only, never the epoch bytes
        let started = Instant::now();
        let evidence = self.lock_recovering(&self.evidence);
        self.pending.store(0, Ordering::Relaxed);
        let isolated = evidence.generate_patches_with(self.n_sites.load(Ordering::Relaxed));
        let current = self.latest();
        if current.covers(&isolated) {
            // xt-analyze: allow(obs-in-det) -- records how long publish took; the returned epoch is already decided
            self.publish_hist.record_duration(started.elapsed());
            return current;
        }
        let next = Arc::new(current.succeed(&isolated));
        let reports = self.reports.load(Ordering::Relaxed);
        *self.epoch_write() = (next.clone(), reports);
        *self.lock_recovering(&self.epoch_signal) = next.number;
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
        let mut newest = self.lock_recovering(&self.epoch_signal);
        while *newest <= have {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .epoch_wake
                .wait_timeout(newest, deadline - now)
                .unwrap_or_else(|poisoned| {
                    self.lock_recoveries.fetch_add(1, Ordering::Relaxed);
                    poisoned.into_inner()
                });
            newest = guard;
        }
        drop(newest);
        Some(self.latest())
    }

    /// Aggregate counters.
    #[must_use]
    pub fn metrics(&self) -> FleetMetrics {
        self.metrics_with(DurabilityStats::default())
    }

    /// Aggregate counters with a durability layer's overlay — the one
    /// snapshot path every `FleetMetrics` consumer (plain service,
    /// durable wrapper, network backend) routes through.
    #[must_use]
    pub fn metrics_with(&self, durability: DurabilityStats) -> FleetMetrics {
        let (epoch, epoch_reports) = self.latest_with_reports();
        FleetMetrics {
            reports: self.reports.load(Ordering::Relaxed),
            failed_reports: self.failed_reports.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            rejected_reports: self.rejected.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            epoch: epoch.number,
            epoch_reports,
            sites_tracked: self.lock_recovering(&self.evidence).sites_tracked(),
            n_sites: self.n_sites.load(Ordering::Relaxed),
            dedup_clients: self.lock_recovering(&self.seen).len(),
            lock_recoveries: self.lock_recoveries.load(Ordering::Relaxed),
            wal_appends: durability.wal_appends,
            wal_batches: durability.wal_batches,
            snapshots_written: durability.snapshots_written,
            recoveries: durability.recoveries,
            torn_tail_truncated: durability.torn_tail_truncated,
        }
    }

    /// Exports the service's durable state as a compacted
    /// [`FleetSnapshot`] with canonically sorted collections (evidence
    /// and hints by site — the table's own order — windows by client),
    /// so the encoding, and therefore [`FleetService::state_digest`], is
    /// a function of the folded state alone.
    ///
    /// Holds the table lock throughout (no epoch can be minted
    /// mid-export, and no fold lands half in). Dedup and the counters
    /// are updated outside that lock, so a caller that needs a
    /// point-in-time image (the durability layer) must quiesce ingest
    /// itself, which [`DurableFleet`](crate::wal::DurableFleet) does by
    /// serializing snapshots and ingest under one lock.
    #[must_use]
    pub fn export_snapshot(&self) -> FleetSnapshot {
        let evidence = self.lock_recovering(&self.evidence);
        let (epoch, epoch_reports) = self.latest_with_reports();
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
        windows.extend(self.lock_recovering(&self.seen).iter().map(|(&client, w)| {
            let (bits, high) = w.to_parts();
            (client, bits, high)
        }));
        windows.sort_unstable_by_key(|&(client, _, _)| client);
        FleetSnapshot {
            reports: self.reports.load(Ordering::Relaxed),
            failed_reports: self.failed_reports.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            rejected_reports: self.rejected.load(Ordering::Relaxed),
            pending: self.pending.load(Ordering::Relaxed),
            epoch_reports,
            n_sites: self.n_sites.load(Ordering::Relaxed) as u64,
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
        let epoch_number = epoch.number;
        *service.epoch_write() = (Arc::new(epoch), snap.epoch_reports);
        *service.lock_recovering(&service.epoch_signal) = epoch_number;
        service.reports.store(snap.reports, Ordering::Relaxed);
        service
            .failed_reports
            .store(snap.failed_reports, Ordering::Relaxed);
        service.duplicates.store(snap.duplicates, Ordering::Relaxed);
        service
            .rejected
            .store(snap.rejected_reports, Ordering::Relaxed);
        service.pending.store(snap.pending, Ordering::Relaxed);
        service.n_sites.store(
            usize::try_from(snap.n_sites).unwrap_or(usize::MAX).max(1),
            Ordering::Relaxed,
        );
        let restore = |rec: &EvidenceRecord| {
            let evidence = SiteEvidence::from_raw_parts(rec.obs as usize, rec.grid.clone());
            (SiteHash::from_raw(rec.site), evidence)
        };
        {
            let mut evidence = service.lock_recovering(&service.evidence);
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
        }
        service.lock_recovering(&service.seen).extend(
            snap.windows
                .iter()
                .map(|&(client, bits, high)| (client, ReplayWindow::from_parts(bits, high))),
        );
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

    /// The poison bugfix: a thread that panics while holding the table
    /// lock must not turn every later ingest into a panic. The service
    /// recovers the lock, keeps serving, and counts the event.
    #[test]
    fn poisoned_locks_recover_and_ingestion_continues() {
        let service = FleetService::new(FleetConfig {
            publish_every: 0,
            ..FleetConfig::default()
        });
        service.ingest_report(&dangling_report(1, 0, 0xBAD));
        // Poison the evidence lock and the dedup lock, the way a
        // panicking ingest thread would (hook silenced: these panics are
        // the test fixture, not noise worth printing).
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = service.evidence.lock().expect("not yet poisoned");
            panic!("simulated ingest panic while holding the evidence lock");
        }));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = service.seen.lock().expect("not yet poisoned");
            panic!("simulated ingest panic while holding the dedup lock");
        }));
        std::panic::set_hook(hook);
        // Ingestion, dedup, publication, and metrics all keep working —
        // enough further clients report that the §5 classifier crosses
        // its threshold post-poison, as in the clean-path test above.
        let receipt = service.ingest_report(&dangling_report(2, 0, 0xBAD));
        assert!(
            !receipt.duplicate,
            "post-poison ingest rejected a fresh report"
        );
        assert!(receipt.observations > 0);
        assert!(
            service
                .ingest_report(&dangling_report(2, 0, 0xBAD))
                .duplicate,
            "dedup state lost in recovery"
        );
        for client in 3..21 {
            service.ingest_report(&dangling_report(client, 0, 0xBAD));
        }
        let epoch = service.publish();
        assert_eq!(epoch.number, 1, "post-poison publish failed");
        let pair = SitePair::new(SiteHash::from_raw(0xBAD), SiteHash::from_raw(0xF));
        assert_eq!(epoch.patches.deferral_for(pair), 30);
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
