//! The client→service wire format: one run, a few hundred bytes.
//!
//! Cumulative mode's whole deployment argument (§5, §6.4) is that a run
//! reduces to "a few kilobytes per execution, compared to tens or hundreds
//! of megabytes for each heap image". [`RunReport`] is that reduction on
//! the wire: a [`RunSummary`] plus the
//! client identity and sequence number the service needs for at-least-once
//! delivery dedup.
//!
//! The encoding is a fixed little-endian binary layout (magic, flags,
//! identity, four counted arrays). No self-describing framing — both ends
//! are this crate, and `xt-net` wraps reports in a [`frame`](crate::frame)
//! when they cross a socket — but decode validates everything through the
//! shared offset-tracking [`Reader`]: magic,
//! version, boolean bytes, array bounds, the site-population claim, and
//! trailing garbage all fail loudly with a [`WireError`] naming the
//! offset.

use exterminator::voter::{digest_chunk, empty_digest};
use xt_alloc::{AllocTime, SiteHash};
use xt_isolate::cumulative::{RunSummary, SiteObservation};

use crate::frame::Reader;
pub use crate::frame::WireError;

/// First bytes of every report: `XTR` plus the format version.
const MAGIC: [u8; 4] = *b"XTR1";

/// First bytes of every durability snapshot: `XTS` plus the version.
const SNAPSHOT_MAGIC: [u8; 4] = *b"XTS1";

/// Cap on the epoch-text field of a snapshot. An epoch's text form is one
/// line per patched site; even a million-site fleet stays far below this.
const MAX_EPOCH_TEXT: u32 = 1 << 24;

/// Cap on a snapshot evidence grid's node count. Grids are
/// `integration_steps + 1` nodes and configs use dozens of steps; a
/// hostile count must not turn into a huge allocation per site record.
const MAX_GRID_NODES: u32 = 1 << 16;

/// Hard cap on any array count in a decoded report — a corrupt or hostile
/// length prefix must not turn into a multi-gigabyte allocation. The
/// site-population claim (`n_sites`) is held to the same cap: it feeds
/// the §5 Bayesian prior `N`, where one absurd value would out-max every
/// honest report in the fleet.
const MAX_ENTRIES: u32 = 1 << 20;

/// One client run, as submitted to the aggregation service.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Stable client identity (assigned out of band).
    pub client: u64,
    /// Client-local run sequence number; `(client, seq)` dedups redelivery.
    pub seq: u32,
    /// Whether the run failed (signal, crash, or divergence).
    pub failed: bool,
    /// Final allocation clock.
    pub clock: u64,
    /// Distinct allocation sites the run observed (`N` for the prior).
    pub n_sites: u32,
    /// §5.1 overflow-criteria observations: `(site, X, Y)`.
    pub overflow_obs: Vec<(u32, f64, bool)>,
    /// §5.2 canary observations: `(site, X, Y)`.
    pub dangling_obs: Vec<(u32, f64, bool)>,
    /// Pad hints: `(site, bytes)`.
    pub pad_hints: Vec<(u32, u32)>,
    /// Deferral hints: `(alloc site, free site, ticks)`.
    pub defer_hints: Vec<(u32, u32, u64)>,
}

impl RunReport {
    /// Wraps one run's [`RunSummary`] for submission by `client`.
    #[must_use]
    pub fn from_summary(client: u64, seq: u32, summary: &RunSummary) -> Self {
        RunReport {
            client,
            seq,
            failed: summary.failed,
            clock: summary.clock.raw(),
            // Clamped to the decode-side cap so a self-encoded report is
            // always well-formed on the wire.
            n_sites: u32::try_from(summary.n_sites)
                .unwrap_or(MAX_ENTRIES)
                .min(MAX_ENTRIES),
            overflow_obs: summary
                .overflow_obs
                .iter()
                .map(|o| (o.site.raw(), o.x, o.y))
                .collect(),
            dangling_obs: summary
                .dangling_obs
                .iter()
                .map(|o| (o.site.raw(), o.x, o.y))
                .collect(),
            pad_hints: summary
                .pad_hints
                .iter()
                .map(|&(site, pad)| (site.raw(), pad))
                .collect(),
            defer_hints: summary
                .defer_hints
                .iter()
                .map(|&(alloc, free, ticks)| (alloc.raw(), free.raw(), ticks))
                .collect(),
        }
    }

    /// Reconstructs the [`RunSummary`] (used by sequential reference
    /// implementations and tests; the service folds reports directly).
    #[must_use]
    pub fn to_summary(&self) -> RunSummary {
        RunSummary {
            failed: self.failed,
            clock: AllocTime::from_raw(self.clock),
            n_sites: self.n_sites as usize,
            overflow_obs: self
                .overflow_obs
                .iter()
                .map(|&(site, x, y)| SiteObservation {
                    site: SiteHash::from_raw(site),
                    x,
                    y,
                })
                .collect(),
            dangling_obs: self
                .dangling_obs
                .iter()
                .map(|&(site, x, y)| SiteObservation {
                    site: SiteHash::from_raw(site),
                    x,
                    y,
                })
                .collect(),
            pad_hints: self
                .pad_hints
                .iter()
                .map(|&(site, pad)| (SiteHash::from_raw(site), pad))
                .collect(),
            defer_hints: self
                .defer_hints
                .iter()
                .map(|&(alloc, free, ticks)| {
                    (SiteHash::from_raw(alloc), SiteHash::from_raw(free), ticks)
                })
                .collect(),
        }
    }

    /// Total per-site observations carried.
    #[must_use]
    pub fn observations(&self) -> usize {
        self.overflow_obs.len() + self.dangling_obs.len()
    }

    /// Serializes to the binary wire format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            44 + 13 * (self.overflow_obs.len() + self.dangling_obs.len())
                + 8 * self.pad_hints.len()
                + 16 * self.defer_hints.len(),
        );
        out.extend_from_slice(&MAGIC);
        out.push(u8::from(self.failed));
        out.extend_from_slice(&self.client.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.clock.to_le_bytes());
        out.extend_from_slice(&self.n_sites.to_le_bytes());
        out.extend_from_slice(&(self.overflow_obs.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.dangling_obs.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.pad_hints.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.defer_hints.len() as u32).to_le_bytes());
        for &(site, x, y) in self.overflow_obs.iter().chain(&self.dangling_obs) {
            out.extend_from_slice(&site.to_le_bytes());
            out.extend_from_slice(&x.to_bits().to_le_bytes());
            out.push(u8::from(y));
        }
        for &(site, pad) in &self.pad_hints {
            out.extend_from_slice(&site.to_le_bytes());
            out.extend_from_slice(&pad.to_le_bytes());
        }
        for &(alloc, free, ticks) in &self.defer_hints {
            out.extend_from_slice(&alloc.to_le_bytes());
            out.extend_from_slice(&free.to_le_bytes());
            out.extend_from_slice(&ticks.to_le_bytes());
        }
        out
    }

    /// Parses the binary wire format.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first malformed byte.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let magic = r.array::<4>()?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let failed = r.bool()?;
        let client = r.u64()?;
        let seq = r.u32()?;
        let clock = r.u64()?;
        let n_sites_at = r.pos();
        let n_sites = r.u32()?;
        let n_overflow = r.count(MAX_ENTRIES)?;
        let n_dangling = r.count(MAX_ENTRIES)?;
        let n_pads = r.count(MAX_ENTRIES)?;
        let n_defers = r.count(MAX_ENTRIES)?;
        // The site population is the report's claim about the prior `N`.
        // Reject absurd values (far above any population the entry cap
        // admits) and the internally inconsistent zero-sites shape:
        // every observation *and* every pad/defer hint names a site the
        // run observed, so any non-empty array implies `N >= 1`.
        let site_entries =
            u64::from(n_overflow) + u64::from(n_dangling) + u64::from(n_pads) + u64::from(n_defers);
        if n_sites > MAX_ENTRIES || (n_sites == 0 && site_entries > 0) {
            return Err(WireError::BadSiteCount {
                at: n_sites_at,
                n_sites,
                observations: site_entries,
            });
        }
        let mut obs = |n: u32| -> Result<Vec<(u32, f64, bool)>, WireError> {
            (0..n)
                .map(|_| {
                    let site = r.u32()?;
                    let at = r.pos();
                    let x = f64::from_bits(r.u64()?);
                    // A probability must be finite and in [0, 1]: one NaN
                    // folded into a site's running products would poison
                    // its evidence permanently (NaN ratios never flag).
                    if !x.is_finite() || !(0.0..=1.0).contains(&x) {
                        return Err(WireError::BadProbability {
                            at,
                            bits: x.to_bits(),
                        });
                    }
                    let y = r.bool()?;
                    Ok((site, x, y))
                })
                .collect()
        };
        let overflow_obs = obs(n_overflow)?;
        let dangling_obs = obs(n_dangling)?;
        let pad_hints = (0..n_pads)
            .map(|_| Ok((r.u32()?, r.u32()?)))
            .collect::<Result<Vec<_>, WireError>>()?;
        let defer_hints = (0..n_defers)
            .map(|_| Ok((r.u32()?, r.u32()?, r.u64()?)))
            .collect::<Result<Vec<_>, WireError>>()?;
        r.finish()?;
        Ok(RunReport {
            client,
            seq,
            failed,
            clock,
            n_sites,
            overflow_obs,
            dangling_obs,
            pad_hints,
            defer_hints,
        })
    }
}

/// One site's running-product evidence state, as carried in a snapshot.
/// The floats are bit patterns, not approximations: a restored record
/// reproduces classification byte-identically
/// ([`SiteEvidence::raw_parts`](xt_isolate::evidence::SiteEvidence::raw_parts)).
#[derive(Clone, Debug, PartialEq)]
pub struct EvidenceRecord {
    /// The allocation site (raw hash).
    pub site: u32,
    /// Observations folded in.
    pub obs: u64,
    /// Running `L0` product.
    pub l0: f64,
    /// Running integrand products at the Simpson nodes
    /// (`integration grid + 1` entries).
    pub grid: Vec<f64>,
}

/// A compacted image of a [`FleetService`](crate::FleetService)'s entire
/// durable state: counters, the published epoch, per-client delivery
/// windows, and all of its evidence and hints. This is what the
/// durability layer writes on its snapshot cadence and reloads on
/// recovery before replaying the WAL tail.
///
/// The encoding is canonical when the collections are sorted (evidence
/// and hints by site/key, windows by client) — the export path emits them
/// sorted, so the encoded bytes are a function of the durable state and a
/// digest over them compares two services' states.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetSnapshot {
    /// Unique reports ingested.
    pub reports: u64,
    /// Failed runs among them.
    pub failed_reports: u64,
    /// Redeliveries dropped by dedup.
    pub duplicates: u64,
    /// Malformed wire reports rejected.
    pub rejected_reports: u64,
    /// Reports since the last publish (the auto-publish cadence counter —
    /// persisted so a restored service publishes at the same report
    /// boundaries the original would have).
    pub pending: u64,
    /// Unique reports at the current epoch's publication.
    pub epoch_reports: u64,
    /// Global site-population maximum (prior `N`).
    pub n_sites: u64,
    /// Simpson intervals of every evidence grid (the table configuration
    /// the evidence states were accumulated under).
    pub integration_steps: u32,
    /// The published epoch, in its own text format
    /// ([`PatchEpoch::to_text`](xt_patch::PatchEpoch::to_text)).
    pub epoch_text: String,
    /// Per-client replay windows: `(client, bits, high)`.
    pub windows: Vec<(u64, u128, u32)>,
    /// §5.1 overflow evidence, one record per site.
    pub overflow: Vec<EvidenceRecord>,
    /// §5.2 dangling evidence, one record per site.
    pub dangling: Vec<EvidenceRecord>,
    /// Pad hints: `(site, bytes)`.
    pub pad_hints: Vec<(u32, u32)>,
    /// Deferral hints: `(alloc site, free site, ticks)`.
    pub defer_hints: Vec<(u32, u32, u64)>,
}

impl FleetSnapshot {
    /// Serializes to the binary snapshot format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            128 + self.epoch_text.len()
                + 28 * self.windows.len()
                + (self.overflow.len() + self.dangling.len())
                    * (24 + 8 * (self.integration_steps as usize + 1))
                + 8 * self.pad_hints.len()
                + 16 * self.defer_hints.len(),
        );
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&self.reports.to_le_bytes());
        out.extend_from_slice(&self.failed_reports.to_le_bytes());
        out.extend_from_slice(&self.duplicates.to_le_bytes());
        out.extend_from_slice(&self.rejected_reports.to_le_bytes());
        out.extend_from_slice(&self.pending.to_le_bytes());
        out.extend_from_slice(&self.epoch_reports.to_le_bytes());
        out.extend_from_slice(&self.n_sites.to_le_bytes());
        out.extend_from_slice(&self.integration_steps.to_le_bytes());
        out.extend_from_slice(&(self.epoch_text.len() as u32).to_le_bytes());
        out.extend_from_slice(self.epoch_text.as_bytes());
        out.extend_from_slice(&(self.windows.len() as u32).to_le_bytes());
        for &(client, bits, high) in &self.windows {
            out.extend_from_slice(&client.to_le_bytes());
            out.extend_from_slice(&bits.to_le_bytes());
            out.extend_from_slice(&high.to_le_bytes());
        }
        for family in [&self.overflow, &self.dangling] {
            out.extend_from_slice(&(family.len() as u32).to_le_bytes());
            for rec in family {
                out.extend_from_slice(&rec.site.to_le_bytes());
                out.extend_from_slice(&rec.obs.to_le_bytes());
                out.extend_from_slice(&rec.l0.to_bits().to_le_bytes());
                out.extend_from_slice(&(rec.grid.len() as u32).to_le_bytes());
                for &g in &rec.grid {
                    out.extend_from_slice(&g.to_bits().to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&(self.pad_hints.len() as u32).to_le_bytes());
        for &(site, pad) in &self.pad_hints {
            out.extend_from_slice(&site.to_le_bytes());
            out.extend_from_slice(&pad.to_le_bytes());
        }
        out.extend_from_slice(&(self.defer_hints.len() as u32).to_le_bytes());
        for &(alloc, free, ticks) in &self.defer_hints {
            out.extend_from_slice(&alloc.to_le_bytes());
            out.extend_from_slice(&free.to_le_bytes());
            out.extend_from_slice(&ticks.to_le_bytes());
        }
        out
    }

    /// Parses the binary snapshot format. Like the report decoder, every
    /// field validates with offsets and every length prefix is capped
    /// before allocation; running-product floats must be finite
    /// probabilities in `[0, 1]` (one smuggled NaN would poison a site's
    /// evidence permanently), and every grid must match the snapshot's
    /// declared integration grid (mismatched grids cannot be merged).
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] describing the first malformed byte.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let magic = r.array::<4>()?;
        if magic != SNAPSHOT_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let reports = r.u64()?;
        let failed_reports = r.u64()?;
        let duplicates = r.u64()?;
        let rejected_reports = r.u64()?;
        let pending = r.u64()?;
        let epoch_reports = r.u64()?;
        let n_sites = r.u64()?;
        let steps_at = r.pos();
        let integration_steps = r.u32()?;
        if integration_steps >= MAX_GRID_NODES {
            return Err(WireError::Oversized {
                at: steps_at,
                count: integration_steps,
            });
        }
        // The grid every evidence record must carry: `steps + 1` Simpson
        // nodes for the table's forced-even `steps >= 2`.
        let expected_nodes = (integration_steps.max(2) & !1) + 1;
        let text_len = r.count(MAX_EPOCH_TEXT)?;
        let text_at = r.pos();
        let text_bytes = r.bytes(text_len as usize)?;
        let epoch_text = std::str::from_utf8(text_bytes)
            .map_err(|e| WireError::BadUtf8 {
                at: text_at + e.valid_up_to(),
            })?
            .to_string();
        let n_windows = r.count(MAX_ENTRIES)?;
        let windows = (0..n_windows)
            .map(|_| Ok((r.u64()?, r.u128()?, r.u32()?)))
            .collect::<Result<Vec<_>, WireError>>()?;
        let mut family = || -> Result<Vec<EvidenceRecord>, WireError> {
            let n = r.count(MAX_ENTRIES)?;
            (0..n)
                .map(|_| {
                    let site = r.u32()?;
                    let obs = r.u64()?;
                    let probability = |r: &mut Reader| -> Result<f64, WireError> {
                        let at = r.pos();
                        let v = f64::from_bits(r.u64()?);
                        if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                            return Err(WireError::BadProbability {
                                at,
                                bits: v.to_bits(),
                            });
                        }
                        Ok(v)
                    };
                    let l0 = probability(&mut r)?;
                    let nodes_at = r.pos();
                    let nodes = r.count(MAX_GRID_NODES)?;
                    if nodes != expected_nodes {
                        return Err(WireError::BadGrid {
                            at: nodes_at,
                            nodes,
                        });
                    }
                    let grid = (0..nodes)
                        .map(|_| probability(&mut r))
                        .collect::<Result<Vec<_>, WireError>>()?;
                    Ok(EvidenceRecord {
                        site,
                        obs,
                        l0,
                        grid,
                    })
                })
                .collect()
        };
        let overflow = family()?;
        let dangling = family()?;
        let n_pads = r.count(MAX_ENTRIES)?;
        let pad_hints = (0..n_pads)
            .map(|_| Ok((r.u32()?, r.u32()?)))
            .collect::<Result<Vec<_>, WireError>>()?;
        let n_defers = r.count(MAX_ENTRIES)?;
        let defer_hints = (0..n_defers)
            .map(|_| Ok((r.u32()?, r.u32()?, r.u64()?)))
            .collect::<Result<Vec<_>, WireError>>()?;
        r.finish()?;
        Ok(FleetSnapshot {
            reports,
            failed_reports,
            duplicates,
            rejected_reports,
            pending,
            epoch_reports,
            n_sites,
            integration_steps,
            epoch_text,
            windows,
            overflow,
            dangling,
            pad_hints,
            defer_hints,
        })
    }

    /// FNV-1a 128 digest of the canonical encoding — the same fold as
    /// `core::voter`'s outcome digest, so "byte-identical state" means
    /// one `u128` comparison. Volatile delivery counters (`duplicates`,
    /// `rejected_reports`) are zeroed before hashing: a crash between a
    /// WAL append and its acknowledgment legitimately turns the retried
    /// report into a counted duplicate, which must not make otherwise
    /// identical evidence states compare unequal.
    #[must_use]
    pub fn digest(&self) -> u128 {
        let canonical = FleetSnapshot {
            duplicates: 0,
            rejected_reports: 0,
            ..self.clone()
        };
        digest_chunk(empty_digest(), &canonical.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pinned snapshot digest: recovery compares states by this
    /// value, so it must not move under a refactor of the fold or of the
    /// canonical encoding. Volatile counters are excluded by design.
    #[test]
    fn snapshot_digest_is_pinned() {
        let snap = FleetSnapshot {
            reports: 16,
            failed_reports: 3,
            duplicates: 2,
            rejected_reports: 1,
            pending: 4,
            epoch_reports: 12,
            n_sites: 77,
            integration_steps: 2,
            epoch_text: "# exterminator patch epoch v1\n".into(),
            windows: vec![(0xA11CE, 0b1011, 7)],
            overflow: vec![EvidenceRecord {
                site: 0xB06,
                obs: 5,
                l0: 0.25,
                grid: vec![0.5, 0.25, 0.125],
            }],
            dangling: vec![EvidenceRecord {
                site: 0xD00D,
                obs: 2,
                l0: 1.0,
                grid: vec![1.0, 0.5, 0.75],
            }],
            pad_hints: vec![(0xB06, 36)],
            defer_hints: vec![(0xD00D, 0xF, 42)],
        };
        assert_eq!(FleetSnapshot::decode(&snap.encode()).unwrap(), snap);
        let pinned = 0xbb9a_2623_071a_d428_a943_d3cc_a987_861e;
        assert_eq!(snap.digest(), pinned);
        let volatile = FleetSnapshot {
            duplicates: 9,
            rejected_reports: 9,
            ..snap
        };
        assert_eq!(volatile.digest(), pinned);
    }

    fn sample() -> RunReport {
        RunReport {
            client: 0xA11CE,
            seq: 7,
            failed: true,
            clock: 1234,
            n_sites: 77,
            overflow_obs: vec![(0xB06, 0.25, true), (0xC1EA, 0.5, false)],
            dangling_obs: vec![(0xD00D, 1.0 - 0.5f64.powi(9), true)],
            pad_hints: vec![(0xB06, 36)],
            defer_hints: vec![(0xD00D, 0xF, 42)],
        }
    }

    #[test]
    fn round_trips() {
        let report = sample();
        let bytes = report.encode();
        assert_eq!(RunReport::decode(&bytes).unwrap(), report);
        // Stays compact: well under a kilobyte for a typical run.
        assert!(bytes.len() < 200, "report is {} bytes", bytes.len());
    }

    #[test]
    fn summary_round_trips() {
        let report = sample();
        let back = RunReport::from_summary(report.client, report.seq, &report.to_summary());
        assert_eq!(back, report);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = sample().encode();
        bytes[3] = b'9';
        assert!(matches!(
            RunReport::decode(&bytes),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let err = RunReport::decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. } | WireError::BadBool { .. }),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(
            RunReport::decode(&bytes),
            Err(WireError::Trailing { extra: 1, .. })
        ));
    }

    #[test]
    fn rejects_hostile_counts() {
        let mut bytes = sample().encode();
        // Overflow-count field sits after magic(4)+flag(1)+client(8)+seq(4)
        // +clock(8)+n_sites(4) = 29.
        bytes[29..33].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = RunReport::decode(&bytes).unwrap_err();
        assert!(
            matches!(err, WireError::Oversized { at: 29, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_non_finite_probabilities() {
        // First overflow observation's x sits after the 45-byte header
        // plus the 4-byte site hash.
        let x_off = 45 + 4;
        for bad in [f64::NAN, f64::INFINITY, -0.25, 1.5] {
            let mut bytes = sample().encode();
            bytes[x_off..x_off + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
            let err = RunReport::decode(&bytes).unwrap_err();
            assert!(
                matches!(err, WireError::BadProbability { at, .. } if at == x_off),
                "x = {bad}: {err:?}"
            );
        }
        // The boundary values themselves stay legal.
        for ok in [0.0f64, 1.0] {
            let mut bytes = sample().encode();
            bytes[x_off..x_off + 8].copy_from_slice(&ok.to_bits().to_le_bytes());
            assert!(RunReport::decode(&bytes).is_ok(), "x = {ok} rejected");
        }
    }

    /// The §5-prior hardening: `n_sites` feeds the global `N` via a
    /// `fetch_max`, so one hostile report claiming an absurd population
    /// would skew classification for every site. The field sits after
    /// magic(4)+flag(1)+client(8)+seq(4)+clock(8) = offset 25.
    #[test]
    fn rejects_absurd_site_populations() {
        for absurd in [u32::MAX, (1 << 20) + 1] {
            let mut bytes = sample().encode();
            bytes[25..29].copy_from_slice(&absurd.to_le_bytes());
            let err = RunReport::decode(&bytes).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::BadSiteCount {
                        at: 25,
                        n_sites,
                        ..
                    } if n_sites == absurd
                ),
                "n_sites = {absurd}: {err:?}"
            );
        }
        // The cap itself stays legal.
        let mut bytes = sample().encode();
        bytes[25..29].copy_from_slice(&(1u32 << 20).to_le_bytes());
        assert!(RunReport::decode(&bytes).is_ok());
    }

    #[test]
    fn rejects_zero_sites_alongside_observations() {
        // The sample carries 3 observations + 1 pad hint + 1 defer hint,
        // each naming a site; claiming a zero site population alongside
        // them is internally inconsistent.
        let mut bytes = sample().encode();
        bytes[25..29].copy_from_slice(&0u32.to_le_bytes());
        let err = RunReport::decode(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::BadSiteCount {
                    at: 25,
                    n_sites: 0,
                    observations: 5,
                }
            ),
            "{err:?}"
        );
        // Hints alone (no observations) still name sites: also rejected.
        let hints_only = RunReport {
            n_sites: 0,
            overflow_obs: Vec::new(),
            dangling_obs: Vec::new(),
            pad_hints: vec![(0xB06, 36)],
            defer_hints: Vec::new(),
            ..sample()
        };
        assert!(
            matches!(
                RunReport::decode(&hints_only.encode()),
                Err(WireError::BadSiteCount {
                    n_sites: 0,
                    observations: 1,
                    ..
                })
            ),
            "a pad hint from a run claiming zero sites was accepted"
        );
        // Zero sites with nothing site-naming (an empty run) stays legal.
        let empty = RunReport {
            n_sites: 0,
            overflow_obs: Vec::new(),
            dangling_obs: Vec::new(),
            pad_hints: Vec::new(),
            defer_hints: Vec::new(),
            ..sample()
        };
        assert_eq!(RunReport::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn from_summary_clamps_site_population_to_the_wire_cap() {
        let summary = RunSummary {
            n_sites: usize::MAX,
            ..sample().to_summary()
        };
        let report = RunReport::from_summary(1, 0, &summary);
        assert_eq!(report.n_sites, 1 << 20);
        // And the clamped report survives its own wire format.
        assert!(RunReport::decode(&report.encode()).is_ok());
    }

    #[test]
    fn rejects_bad_bool() {
        let mut bytes = sample().encode();
        bytes[4] = 3; // the failed flag
        assert!(matches!(
            RunReport::decode(&bytes),
            Err(WireError::BadBool { at: 4, value: 3 })
        ));
    }
}
