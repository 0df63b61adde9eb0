//! The message families multiplexed over one framed connection.
//!
//! Every message is one [`Frame`]: the frame's `kind` byte names the
//! message, the payload is a fixed little-endian layout decoded through
//! the shared offset-tracking [`Reader`] — malformed bytes anywhere name
//! the exact offending offset, same argument as `xt_fleet::wire` (these
//! bytes cross a trust boundary; "bad message" is undebuggable).
//!
//! Four families share the stream:
//!
//! * **Job submission** — [`Msg::Submit`] carries a
//!   [`WorkloadInput`] plus an optional [`FaultSpec`]; the server answers
//!   [`Msg::Accepted`] with the front-end's global sequence number.
//! * **Streaming results** — the server *pushes* [`Msg::Verdict`] the
//!   moment the streaming voter declares for a job (stragglers still
//!   running), then [`Msg::Outcome`] once the job finalizes. Both carry
//!   the job's sequence number so clients with several jobs in flight can
//!   demultiplex.
//! * **Fleet path** — [`Msg::Report`] nests an `XTR1`-encoded
//!   [`RunReport`](xt_fleet::RunReport), acknowledged by
//!   [`Msg::ReportAck`] (whose `epoch` tells the reporter how far the
//!   fleet has published); the server *pushes* every published patch
//!   epoch as [`Msg::EpochPush`] — at publish to every live connection,
//!   on accept to late joiners, and again after a drop once a slow
//!   reader's queue drains. There is no epoch request: push is the only
//!   path, and it is complete.
//! * **Observability** — [`Msg::HealthPull`]/[`Msg::Health`] answer a
//!   liveness probe with the server's epoch, uptime, and recovery
//!   status; [`Msg::MetricsPull`]/[`Msg::Metrics`] ship the merged
//!   [`RegistrySnapshot`] of every service layer (front-end, fleet,
//!   wire) to remote operators.
//!
//! Replies are request-response in connection order; pushed messages
//! (`Verdict`, `Outcome`, `EpochPush`) may interleave anywhere, which is
//! why the client buffers them (by job id, and in a one-slot newest-wins
//! epoch cache).

use xt_faults::{FaultKind, FaultSpec};
use xt_fleet::frame::{Frame, Reader, WireError};
use xt_obs::{HistogramSnapshot, RegistrySnapshot, HISTOGRAM_BUCKETS};
use xt_workloads::WorkloadInput;

use exterminator::pool::{EarlyVerdict, PoolOutcome};

/// Cap for every variable-length field (input payloads, output streams,
/// patch text, error strings) — far above anything the protocols carry,
/// far below an allocation a hostile length prefix could hurt with.
pub const MAX_BLOB: u32 = 1 << 20;

/// Cap for per-replica and agreeing/dissenting index lists.
const MAX_INDICES: u32 = 1 << 10;

/// Cap for instrument counts in a metrics snapshot (counters, gauges,
/// and histograms each) — a service carries dozens of instruments, not
/// thousands, and a hostile count prefix must not size an allocation.
const MAX_INSTRUMENTS: u32 = 1 << 12;

/// Frame kind bytes, one per message family member. Kinds 7 and 8 (the
/// retired epoch pull request and its reply) stay reserved: they decode
/// as unknown kinds and are never reassigned, so an old client fails
/// loudly instead of being misread.
pub mod kind {
    /// Client → server: submit one job.
    pub const SUBMIT: u8 = 1;
    /// Server → client: submission accepted at this global sequence.
    pub const ACCEPTED: u8 = 2;
    /// Server → client (pushed): the streaming quorum verdict.
    pub const VERDICT: u8 = 3;
    /// Server → client (pushed): the finalized outcome.
    pub const OUTCOME: u8 = 4;
    /// Client → server: ingest a nested `XTR1` run report.
    pub const REPORT: u8 = 5;
    /// Server → client: report ingested.
    pub const REPORT_ACK: u8 = 6;
    /// Server → client: the request failed (message names why).
    pub const ERROR: u8 = 9;
    /// Client → server: liveness probe.
    pub const HEALTH_PULL: u8 = 10;
    /// Server → client: liveness + epoch + uptime + recovery status.
    pub const HEALTH: u8 = 11;
    /// Client → server: pull the full metrics registry snapshot.
    pub const METRICS_PULL: u8 = 12;
    /// Server → client: the merged registry snapshot.
    pub const METRICS: u8 = 13;
    /// Server → client (pushed, unsolicited): the newest published
    /// epoch — fanned down every live connection at publish, sent on
    /// accept to late joiners, and re-sent after a dropped push.
    pub const EPOCH_PUSH: u8 = 14;
}

/// One job submission: the input plus an optional injected fault (the
/// latter is how tests and demos carry attack traffic; production
/// clients send `None`).
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitJob {
    /// The workload input to execute on every replica.
    pub input: WorkloadInput,
    /// Optional fault injection.
    pub fault: Option<FaultSpec>,
}

/// The streaming quorum verdict, as pushed to the submitting client —
/// the wire form of [`EarlyVerdict`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireVerdict {
    /// The agreed output digest.
    pub digest: u128,
    /// Replicas in the quorum.
    pub agreeing: Vec<u32>,
    /// Replicas still running when the quorum formed — nonzero means the
    /// verdict genuinely beat the stragglers.
    pub outstanding: u32,
    /// The agreed output bytes.
    pub output: Vec<u8>,
}

impl WireVerdict {
    /// Reduces an [`EarlyVerdict`] to its wire form.
    #[must_use]
    pub fn from_early(v: &EarlyVerdict) -> Self {
        WireVerdict {
            digest: v.digest,
            agreeing: v.agreeing.iter().map(|&i| i as u32).collect(),
            outstanding: v.outstanding as u32,
            output: v.output.clone(),
        }
    }
}

/// One replica's summary inside a [`WireOutcome`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireReplica {
    /// The replica's heap seed.
    pub seed: u64,
    /// Whether its run completed.
    pub completed: bool,
    /// Whether it failed.
    pub failed: bool,
    /// DieFast signals raised.
    pub signals: u32,
    /// Output stream length.
    pub output_len: u32,
    /// 128-bit output digest.
    pub output_digest: u128,
}

/// The finalized outcome, as pushed to the submitting client. Not the
/// whole [`PoolOutcome`] — heap-image-sized state stays server-side — but
/// the full deterministic *identity* is carried by `digest`
/// ([`PoolOutcome::deterministic_digest`]), so clients can pin remote
/// outcomes byte-identical to in-process runs without shipping outcomes
/// whole.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireOutcome {
    /// The front-end's global sequence number for this job.
    pub job: u64,
    /// [`PoolOutcome::deterministic_digest`] of the server-side outcome.
    pub digest: u128,
    /// Any replica failed or diverged.
    pub error_observed: bool,
    /// Every replica agreed.
    pub unanimous: bool,
    /// The vote's plurality output.
    pub winner: Vec<u8>,
    /// Replicas that produced the winner.
    pub agreeing: Vec<u32>,
    /// Replicas that diverged.
    pub dissenting: Vec<u32>,
    /// Per-replica summaries, in replica order.
    pub replicas: Vec<WireReplica>,
    /// The job's patch table in `xt-patch` text form (parse with
    /// [`xt_patch::PatchTable::from_text`]).
    pub patches: String,
    /// Whether isolation ran (an isolation report exists server-side).
    pub isolated: bool,
}

impl WireOutcome {
    /// Reduces a finalized [`PoolOutcome`] to its wire form.
    #[must_use]
    pub fn from_pool(out: &PoolOutcome) -> Self {
        WireOutcome {
            job: out.job,
            digest: out.deterministic_digest(),
            error_observed: out.outcome.error_observed(),
            unanimous: out.outcome.vote.unanimous(),
            winner: out.outcome.vote.winner.clone(),
            agreeing: out
                .outcome
                .vote
                .agreeing
                .iter()
                .map(|&i| i as u32)
                .collect(),
            dissenting: out
                .outcome
                .vote
                .dissenting
                .iter()
                .map(|&i| i as u32)
                .collect(),
            replicas: out
                .outcome
                .replicas
                .iter()
                .map(|r| WireReplica {
                    seed: r.seed,
                    completed: r.completed,
                    failed: r.failed,
                    signals: r.signals as u32,
                    output_len: r.output_len as u32,
                    output_digest: r.output_digest,
                })
                .collect(),
            patches: out.outcome.patches.to_text(),
            isolated: out.outcome.report.is_some(),
        }
    }
}

/// The wire form of an [`IngestReceipt`](xt_fleet::IngestReceipt).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireReceipt {
    /// The report was a redelivery and was dropped.
    pub duplicate: bool,
    /// Shards the report touched.
    pub shards_touched: u32,
    /// Observations folded in.
    pub observations: u32,
    /// Latest published epoch number at the server.
    pub epoch: u64,
}

/// The server's answer to a liveness probe. Everything here is
/// operational status — none of it feeds deterministic digests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireHealth {
    /// The server accepted the probe and its backends are reachable.
    /// Always `true` in a reply — the signal of an unhealthy server is
    /// no reply at all — but carried explicitly so a degraded mode can
    /// be expressed without a protocol change.
    pub healthy: bool,
    /// Newest published patch epoch at the fleet backend.
    pub epoch: u64,
    /// Milliseconds since the server started listening.
    pub uptime_ms: u64,
    /// Durability recoveries the backend has performed (0 for an
    /// in-memory backend or a durable one that started fresh).
    pub recoveries: u64,
    /// Whether the fleet backend persists through a WAL.
    pub durable: bool,
    /// Connections currently open at the server (including the one
    /// carrying this reply).
    pub connections: u64,
}

/// One protocol message (a decoded frame).
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Submit a job.
    Submit(SubmitJob),
    /// Submission accepted at this global sequence number.
    Accepted {
        /// The front-end's global sequence number.
        job: u64,
    },
    /// The job's streaming vote resolved: `Some` quorum, or `None` when
    /// the job completed with every replica disagreeing.
    Verdict {
        /// The job this verdict belongs to.
        job: u64,
        /// The quorum, if one formed.
        verdict: Option<WireVerdict>,
    },
    /// The job finalized.
    Outcome(WireOutcome),
    /// Ingest a nested `XTR1`-encoded run report.
    Report(Vec<u8>),
    /// Report ingested.
    ReportAck(WireReceipt),
    /// The request failed.
    Error {
        /// Human-readable reason (e.g. a `WireError` rendering).
        message: String,
    },
    /// Liveness probe.
    HealthPull,
    /// The probe's answer.
    Health(WireHealth),
    /// Pull the merged metrics registry snapshot.
    MetricsPull,
    /// The snapshot: every layer's counters, gauges, and per-stage
    /// latency histograms, merged server-side and name-sorted.
    Metrics(RegistrySnapshot),
    /// Server → client, unsolicited: the newest published `PatchEpoch`.
    /// The server only pushes when there is an epoch to push (nothing
    /// is sent at epoch 0).
    EpochPush {
        /// `PatchEpoch::to_text` output.
        epoch: String,
    },
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    assert!(
        bytes.len() <= MAX_BLOB as usize,
        "blob of {} bytes exceeds the wire cap (encoder bug)",
        bytes.len()
    );
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_indices(out: &mut Vec<u8>, indices: &[u32]) {
    assert!(
        indices.len() <= MAX_INDICES as usize,
        "index list of {} exceeds the wire cap (encoder bug)",
        indices.len()
    );
    out.extend_from_slice(&(indices.len() as u32).to_le_bytes());
    for &i in indices {
        out.extend_from_slice(&i.to_le_bytes());
    }
}

fn read_blob(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
    let len = r.count(MAX_BLOB)?;
    Ok(r.bytes(len as usize)?.to_vec())
}

fn read_string(r: &mut Reader<'_>) -> Result<String, WireError> {
    let at = r.pos();
    let bytes = read_blob(r)?;
    String::from_utf8(bytes).map_err(|e| {
        // The offset of the first bad byte inside the blob (4 bytes of
        // length prefix, then the data).
        WireError::BadUtf8 {
            at: at + 4 + e.utf8_error().valid_up_to(),
        }
    })
}

fn read_indices(r: &mut Reader<'_>) -> Result<Vec<u32>, WireError> {
    let n = r.count(MAX_INDICES)?;
    (0..n).map(|_| r.u32()).collect()
}

fn encode_verdict(out: &mut Vec<u8>, verdict: &Option<WireVerdict>) {
    match verdict {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.digest.to_le_bytes());
            put_indices(out, &v.agreeing);
            out.extend_from_slice(&v.outstanding.to_le_bytes());
            put_bytes(out, &v.output);
        }
    }
}

fn decode_verdict(r: &mut Reader<'_>) -> Result<Option<WireVerdict>, WireError> {
    if !r.bool()? {
        return Ok(None);
    }
    Ok(Some(WireVerdict {
        digest: r.u128()?,
        agreeing: read_indices(r)?,
        outstanding: r.u32()?,
        output: read_blob(r)?,
    }))
}

/// Layout: three sections (counters, gauges, histograms), each a
/// `u32` count followed by `name-blob ∥ value` entries. Histogram
/// values are the exact `max` then all [`HISTOGRAM_BUCKETS`] bucket
/// counts — the bucket array is fixed-size by protocol (the bucket
/// scheme is a compile-time constant, so a length prefix could only
/// disagree with it).
// xt-analyze: allow(obs-in-det) -- this IS the metrics wire encoder: it serializes a snapshot for transport and feeds no outcome digest
fn encode_registry(out: &mut Vec<u8>, snap: &RegistrySnapshot) {
    let sections = [
        snap.counters.len(),
        snap.gauges.len(),
        snap.histograms.len(),
    ];
    assert!(
        sections.iter().all(|&n| n <= MAX_INSTRUMENTS as usize),
        "instrument count {sections:?} exceeds the wire cap (encoder bug)"
    );
    out.extend_from_slice(&(snap.counters.len() as u32).to_le_bytes());
    for (name, value) in &snap.counters {
        put_bytes(out, name.as_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
    out.extend_from_slice(&(snap.gauges.len() as u32).to_le_bytes());
    for (name, value) in &snap.gauges {
        put_bytes(out, name.as_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
    out.extend_from_slice(&(snap.histograms.len() as u32).to_le_bytes());
    for (name, hist) in &snap.histograms {
        put_bytes(out, name.as_bytes());
        out.extend_from_slice(&hist.max.to_le_bytes());
        for bucket in &hist.buckets {
            out.extend_from_slice(&bucket.to_le_bytes());
        }
    }
}

fn decode_registry(r: &mut Reader<'_>) -> Result<RegistrySnapshot, WireError> {
    let n_counters = r.count(MAX_INSTRUMENTS)?;
    let counters = (0..n_counters)
        .map(|_| Ok((read_string(r)?, r.u64()?)))
        .collect::<Result<Vec<_>, WireError>>()?;
    let n_gauges = r.count(MAX_INSTRUMENTS)?;
    // Gauges are signed; the wire carries their two's-complement bits.
    let gauges = (0..n_gauges)
        .map(|_| Ok((read_string(r)?, r.u64()? as i64)))
        .collect::<Result<Vec<_>, WireError>>()?;
    let n_histograms = r.count(MAX_INSTRUMENTS)?;
    let histograms = (0..n_histograms)
        .map(|_| {
            let name = read_string(r)?;
            let max = r.u64()?;
            let mut buckets = [0u64; HISTOGRAM_BUCKETS];
            for bucket in &mut buckets {
                *bucket = r.u64()?;
            }
            Ok((name, HistogramSnapshot { buckets, max }))
        })
        .collect::<Result<Vec<_>, WireError>>()?;
    Ok(RegistrySnapshot {
        counters,
        gauges,
        histograms,
    })
}

impl Msg {
    /// Serializes the message into its frame.
    #[must_use]
    pub fn to_frame(&self) -> Frame {
        let mut out = Vec::new();
        let kind = match self {
            Msg::Submit(job) => {
                out.extend_from_slice(&job.input.seed.to_le_bytes());
                out.extend_from_slice(&job.input.intensity.to_le_bytes());
                put_bytes(&mut out, &job.input.payload);
                match job.fault {
                    None => out.push(0),
                    Some(FaultSpec { kind, trigger }) => {
                        match kind {
                            FaultKind::BufferOverflow { delta, fill } => {
                                out.push(1);
                                out.extend_from_slice(&delta.to_le_bytes());
                                out.push(fill);
                            }
                            FaultKind::DanglingFree { lag } => {
                                out.push(2);
                                out.extend_from_slice(&lag.to_le_bytes());
                            }
                        }
                        out.extend_from_slice(&trigger.raw().to_le_bytes());
                    }
                }
                kind::SUBMIT
            }
            Msg::Accepted { job } => {
                out.extend_from_slice(&job.to_le_bytes());
                kind::ACCEPTED
            }
            Msg::Verdict { job, verdict } => {
                out.extend_from_slice(&job.to_le_bytes());
                encode_verdict(&mut out, verdict);
                kind::VERDICT
            }
            Msg::Outcome(o) => {
                out.extend_from_slice(&o.job.to_le_bytes());
                out.extend_from_slice(&o.digest.to_le_bytes());
                out.push(u8::from(o.error_observed));
                out.push(u8::from(o.unanimous));
                put_bytes(&mut out, &o.winner);
                put_indices(&mut out, &o.agreeing);
                put_indices(&mut out, &o.dissenting);
                assert!(
                    o.replicas.len() <= MAX_INDICES as usize,
                    "replica list exceeds the wire cap (encoder bug)"
                );
                out.extend_from_slice(&(o.replicas.len() as u32).to_le_bytes());
                for r in &o.replicas {
                    out.extend_from_slice(&r.seed.to_le_bytes());
                    out.push(u8::from(r.completed));
                    out.push(u8::from(r.failed));
                    out.extend_from_slice(&r.signals.to_le_bytes());
                    out.extend_from_slice(&r.output_len.to_le_bytes());
                    out.extend_from_slice(&r.output_digest.to_le_bytes());
                }
                put_bytes(&mut out, o.patches.as_bytes());
                out.push(u8::from(o.isolated));
                kind::OUTCOME
            }
            Msg::Report(bytes) => {
                put_bytes(&mut out, bytes);
                kind::REPORT
            }
            Msg::ReportAck(a) => {
                out.push(u8::from(a.duplicate));
                out.extend_from_slice(&a.shards_touched.to_le_bytes());
                out.extend_from_slice(&a.observations.to_le_bytes());
                out.extend_from_slice(&a.epoch.to_le_bytes());
                kind::REPORT_ACK
            }
            Msg::Error { message } => {
                put_bytes(&mut out, message.as_bytes());
                kind::ERROR
            }
            Msg::HealthPull => kind::HEALTH_PULL,
            Msg::Health(h) => {
                out.push(u8::from(h.healthy));
                out.extend_from_slice(&h.epoch.to_le_bytes());
                out.extend_from_slice(&h.uptime_ms.to_le_bytes());
                out.extend_from_slice(&h.recoveries.to_le_bytes());
                out.push(u8::from(h.durable));
                out.extend_from_slice(&h.connections.to_le_bytes());
                kind::HEALTH
            }
            Msg::MetricsPull => kind::METRICS_PULL,
            Msg::Metrics(snap) => {
                encode_registry(&mut out, snap);
                kind::METRICS
            }
            Msg::EpochPush { epoch } => {
                put_bytes(&mut out, epoch.as_bytes());
                kind::EPOCH_PUSH
            }
        };
        Frame::new(kind, out)
    }

    /// Parses a frame's payload by its kind byte.
    ///
    /// # Errors
    ///
    /// [`WireError::BadKind`] for an unknown kind (offset 4, the kind
    /// byte's position in the encoded frame); otherwise the payload
    /// decoder's error, offsets relative to the payload start.
    pub fn from_frame(frame: &Frame) -> Result<Msg, WireError> {
        let mut r = Reader::new(&frame.payload);
        let msg = match frame.kind {
            kind::SUBMIT => {
                let seed = r.u64()?;
                let intensity = r.u32()?;
                let payload = read_blob(&mut r)?;
                let fault_at = r.pos();
                let fault = match r.array::<1>()?[0] {
                    0 => None,
                    1 => {
                        let delta = r.u32()?;
                        let fill = r.array::<1>()?[0];
                        Some(FaultKind::BufferOverflow { delta, fill })
                    }
                    2 => Some(FaultKind::DanglingFree { lag: r.u64()? }),
                    kind => {
                        return Err(WireError::BadKind { at: fault_at, kind });
                    }
                }
                .map(|kind| -> Result<FaultSpec, WireError> {
                    Ok(FaultSpec {
                        kind,
                        trigger: xt_alloc::AllocTime::from_raw(r.u64()?),
                    })
                })
                .transpose()?;
                Msg::Submit(SubmitJob {
                    input: WorkloadInput {
                        seed,
                        payload,
                        intensity,
                    },
                    fault,
                })
            }
            kind::ACCEPTED => Msg::Accepted { job: r.u64()? },
            kind::VERDICT => Msg::Verdict {
                job: r.u64()?,
                verdict: decode_verdict(&mut r)?,
            },
            kind::OUTCOME => {
                let job = r.u64()?;
                let digest = r.u128()?;
                let error_observed = r.bool()?;
                let unanimous = r.bool()?;
                let winner = read_blob(&mut r)?;
                let agreeing = read_indices(&mut r)?;
                let dissenting = read_indices(&mut r)?;
                let n_replicas = r.count(MAX_INDICES)?;
                let replicas = (0..n_replicas)
                    .map(|_| {
                        Ok(WireReplica {
                            seed: r.u64()?,
                            completed: r.bool()?,
                            failed: r.bool()?,
                            signals: r.u32()?,
                            output_len: r.u32()?,
                            output_digest: r.u128()?,
                        })
                    })
                    .collect::<Result<Vec<_>, WireError>>()?;
                let patches = read_string(&mut r)?;
                let isolated = r.bool()?;
                Msg::Outcome(WireOutcome {
                    job,
                    digest,
                    error_observed,
                    unanimous,
                    winner,
                    agreeing,
                    dissenting,
                    replicas,
                    patches,
                    isolated,
                })
            }
            kind::REPORT => Msg::Report(read_blob(&mut r)?),
            kind::REPORT_ACK => Msg::ReportAck(WireReceipt {
                duplicate: r.bool()?,
                shards_touched: r.u32()?,
                observations: r.u32()?,
                epoch: r.u64()?,
            }),
            kind::ERROR => Msg::Error {
                message: read_string(&mut r)?,
            },
            kind::HEALTH_PULL => Msg::HealthPull,
            kind::HEALTH => Msg::Health(WireHealth {
                healthy: r.bool()?,
                epoch: r.u64()?,
                uptime_ms: r.u64()?,
                recoveries: r.u64()?,
                durable: r.bool()?,
                connections: r.u64()?,
            }),
            kind::METRICS_PULL => Msg::MetricsPull,
            kind::METRICS => Msg::Metrics(decode_registry(&mut r)?),
            kind::EPOCH_PUSH => Msg::EpochPush {
                epoch: read_string(&mut r)?,
            },
            kind => return Err(WireError::BadKind { at: 4, kind }),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt_alloc::AllocTime;

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Submit(SubmitJob {
                input: WorkloadInput::with_seed(7)
                    .payload(b"GET /cache".to_vec())
                    .intensity(3),
                fault: None,
            }),
            Msg::Submit(SubmitJob {
                input: WorkloadInput::with_seed(9),
                fault: Some(FaultSpec {
                    kind: FaultKind::BufferOverflow {
                        delta: 20,
                        fill: 0xEE,
                    },
                    trigger: AllocTime::from_raw(239),
                }),
            }),
            Msg::Submit(SubmitJob {
                input: WorkloadInput::with_seed(0),
                fault: Some(FaultSpec {
                    kind: FaultKind::DanglingFree { lag: 17 },
                    trigger: AllocTime::from_raw(90),
                }),
            }),
            Msg::Accepted { job: 42 },
            Msg::Verdict {
                job: 42,
                verdict: None,
            },
            Msg::Verdict {
                job: 43,
                verdict: Some(WireVerdict {
                    digest: 0xDEAD_BEEF_DEAD_BEEF_u128,
                    agreeing: vec![0, 2],
                    outstanding: 1,
                    output: b"agreed output".to_vec(),
                }),
            },
            Msg::Outcome(WireOutcome {
                job: 43,
                digest: 0x00D1_6E57,
                error_observed: true,
                unanimous: false,
                winner: b"winning".to_vec(),
                agreeing: vec![0, 1],
                dissenting: vec![2],
                replicas: vec![WireReplica {
                    seed: 5,
                    completed: true,
                    failed: false,
                    signals: 2,
                    output_len: 7,
                    output_digest: 0xAB,
                }],
                patches: "# exterminator runtime patches v1\npad 0000f00d 8\n".into(),
                isolated: true,
            }),
            Msg::Report(vec![1, 2, 3]),
            Msg::ReportAck(WireReceipt {
                duplicate: false,
                shards_touched: 2,
                observations: 5,
                epoch: 3,
            }),
            Msg::Error {
                message: "bad report".into(),
            },
            Msg::HealthPull,
            Msg::Health(WireHealth {
                healthy: true,
                epoch: 4,
                uptime_ms: 125_000,
                recoveries: 1,
                durable: true,
                connections: 3,
            }),
            Msg::EpochPush {
                epoch: "# exterminator patch epoch v1\n".into(),
            },
            Msg::MetricsPull,
            Msg::Metrics(RegistrySnapshot::default()),
            Msg::Metrics(RegistrySnapshot {
                counters: vec![("fleet/reports".into(), 12), ("net/frames_in".into(), 99)],
                gauges: vec![("net/connections".into(), -1)],
                histograms: vec![("frontend/exec".into(), {
                    let mut hist = HistogramSnapshot::default();
                    hist.buckets[9] = 4;
                    hist.buckets[12] = 1;
                    hist.max = 3_600;
                    hist
                })],
            }),
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in samples() {
            let frame = msg.to_frame();
            // Through bytes too, not just the in-memory frame.
            let decoded = Frame::decode(&frame.encode()).unwrap();
            assert_eq!(Msg::from_frame(&decoded).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn rejects_unknown_kinds() {
        // 7 and 8 are the retired epoch pull/reply kinds, reserved forever.
        for unknown in [0xEE, 7, 8] {
            let frame = Frame::new(unknown, 2u64.to_le_bytes().to_vec());
            assert_eq!(
                Msg::from_frame(&frame),
                Err(WireError::BadKind {
                    at: 4,
                    kind: unknown
                })
            );
        }
        // Unknown fault tag inside a submit payload.
        let mut frame = Msg::Submit(SubmitJob {
            input: WorkloadInput::with_seed(1),
            fault: None,
        })
        .to_frame();
        let last = frame.payload.len() - 1;
        frame.payload[last] = 9;
        assert!(matches!(
            Msg::from_frame(&frame),
            Err(WireError::BadKind { kind: 9, .. })
        ));
    }

    /// Truncation fuzz over every message payload: every prefix must fail
    /// loudly with an offset-bearing error, never panic, never succeed.
    #[test]
    fn rejects_truncation_at_every_payload_length() {
        for msg in samples() {
            let frame = msg.to_frame();
            for len in 0..frame.payload.len() {
                let trunc = Frame::new(frame.kind, frame.payload[..len].to_vec());
                assert!(
                    Msg::from_frame(&trunc).is_err(),
                    "{msg:?}: payload prefix of {len} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn rejects_trailing_payload_garbage() {
        for msg in samples() {
            let mut frame = msg.to_frame();
            frame.payload.push(0);
            assert!(
                matches!(Msg::from_frame(&frame), Err(WireError::Trailing { .. })),
                "{msg:?} accepted a trailing byte"
            );
        }
    }
}
