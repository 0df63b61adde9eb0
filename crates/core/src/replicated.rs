//! Replicated mode (§3.4, Fig. 5): on-the-fly correction with voting.
//!
//! "Like DieHard, Exterminator can run a number of differently-randomized
//! replicas simultaneously (as separate processes), broadcasting inputs to
//! all and voting on their outputs. However, Exterminator uses
//! DieFast-based heaps, each with a correcting allocator. This
//! organization lets Exterminator discover and fix errors."
//!
//! Replicated mode runs through [`ReplicaPool`](crate::pool::ReplicaPool)
//! — persistent workers, streaming vote verdicts, fleet patch-epoch hot
//! reloads; see [`crate::pool`]. This module holds the outcome types the
//! pool returns.

use xt_isolate::IsolationReport;
use xt_patch::PatchTable;

use crate::voter::VoteResult;

/// Per-replica digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaSummary {
    /// The replica's heap seed.
    pub seed: u64,
    /// Whether its run completed.
    pub completed: bool,
    /// Whether it failed (signal or crash).
    pub failed: bool,
    /// Number of DieFast signals it raised.
    pub signals: usize,
    /// Length of its output stream.
    pub output_len: usize,
    /// 128-bit digest of its output stream (the streaming voter's unit of
    /// comparison; byte-identical across runs with identical seeds).
    pub output_digest: u128,
}

/// The outcome of one replicated execution. Equality covers the full
/// deterministic surface — vote, patches, isolation report, replica
/// digests — so the pool's determinism tests can compare outcomes whole.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicatedOutcome {
    /// The voter's verdict over replica outputs.
    pub vote: VoteResult,
    /// Patches generated from this execution's images (empty if all
    /// replicas agreed and none failed).
    pub patches: PatchTable,
    /// The isolation report, when isolation ran.
    pub report: Option<IsolationReport>,
    /// Per-replica digests, in replica order.
    pub replicas: Vec<ReplicaSummary>,
}

impl ReplicatedOutcome {
    /// `true` if any replica failed or diverged.
    #[must_use]
    pub fn error_observed(&self) -> bool {
        !self.vote.unanimous() || self.replicas.iter().any(|r| r.failed)
    }

    /// A canonical 128-bit digest of the outcome's full deterministic
    /// surface — everything `PartialEq` compares: vote, patches,
    /// isolation report, and per-replica summaries. Equal outcomes always
    /// produce equal digests, and every field is folded behind its length
    /// or a presence tag so distinct outcomes cannot collide by field
    /// concatenation.
    ///
    /// This is the unit the network front door pins determinism with: a
    /// remote submission's digest must be byte-identical to the digest of
    /// the same input run in-process at the same global sequence number,
    /// without shipping whole heap-image-sized outcomes back for
    /// comparison.
    #[must_use]
    pub fn deterministic_digest(&self) -> u128 {
        fn fold(h: u128, bytes: &[u8]) -> u128 {
            crate::voter::digest_chunk(h, bytes)
        }
        fn fold_u64(h: u128, v: u64) -> u128 {
            fold(h, &v.to_le_bytes())
        }

        let mut h = crate::voter::empty_digest();
        h = fold_u64(h, self.vote.winner.len() as u64);
        h = fold(h, &self.vote.winner);
        h = fold_u64(h, self.vote.agreeing.len() as u64);
        for &i in &self.vote.agreeing {
            h = fold_u64(h, i as u64);
        }
        h = fold_u64(h, self.vote.dissenting.len() as u64);
        for &i in &self.vote.dissenting {
            h = fold_u64(h, i as u64);
        }

        // The patch lattice serializes deterministically (BTreeMap-backed
        // text form).
        let patches = self.patches.to_text();
        h = fold_u64(h, patches.len() as u64);
        h = fold(h, patches.as_bytes());

        match &self.report {
            None => h = fold(h, &[0]),
            Some(report) => {
                h = fold(h, &[1]);
                h = fold_u64(h, report.overflows.len() as u64);
                for o in &report.overflows {
                    h = fold_u64(h, o.culprit_id.raw());
                    h = fold_u64(h, u64::from(o.alloc_site.raw()));
                    h = fold_u64(h, u64::from(o.requested));
                    h = fold_u64(h, o.max_extent);
                    h = fold_u64(h, u64::from(o.pad));
                    h = fold_u64(h, o.score.to_bits());
                    h = fold_u64(h, o.evidence_bytes);
                }
                h = fold_u64(h, report.dangling.len() as u64);
                for d in &report.dangling {
                    h = fold_u64(h, d.object_id.raw());
                    h = fold_u64(h, u64::from(d.alloc_site.raw()));
                    h = fold_u64(h, u64::from(d.free_site.raw()));
                    h = fold_u64(h, d.free_time.raw());
                    h = fold_u64(h, d.last_alloc_time.raw());
                    h = fold_u64(h, d.deferral);
                }
            }
        }

        h = fold_u64(h, self.replicas.len() as u64);
        for r in &self.replicas {
            h = fold_u64(h, r.seed);
            h = fold(h, &[u8::from(r.completed), u8::from(r.failed)]);
            h = fold_u64(h, r.signals as u64);
            h = fold_u64(h, r.output_len as u64);
            h = fold(h, &r.output_digest.to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PoolConfig, ReplicaPool};
    use xt_alloc::AllocTime;
    use xt_faults::{FaultKind, FaultSpec};
    use xt_workloads::{EspressoLike, WorkloadInput};

    /// One input through a fresh pool (job 0).
    fn run_once(
        input: &WorkloadInput,
        fault: Option<FaultSpec>,
        patches: &PatchTable,
        config: PoolConfig,
    ) -> ReplicatedOutcome {
        let workload = EspressoLike::new();
        std::thread::scope(|scope| {
            let mut pool = ReplicaPool::scoped(scope, &workload, config, patches.clone());
            let outcome = pool.run_one(input, fault).outcome;
            pool.shutdown();
            outcome
        })
    }

    #[test]
    fn clean_replicas_agree_unanimously() {
        let outcome = run_once(
            &WorkloadInput::with_seed(3),
            None,
            &PatchTable::new(),
            PoolConfig::default(),
        );
        assert!(outcome.vote.unanimous(), "replicas diverged on clean run");
        assert!(!outcome.error_observed());
        assert!(outcome.report.is_none());
        assert!(outcome.patches.is_empty());
        assert_eq!(outcome.replicas.len(), 3);
        assert!(outcome.replicas.iter().all(|r| r.completed && !r.failed));
        // All replicas produced the same output digest as the winner.
        let digest = crate::voter::output_digest(&outcome.vote.winner);
        assert!(outcome.replicas.iter().all(|r| r.output_digest == digest));
    }

    /// The network determinism unit: equal outcomes digest equally, and
    /// every deterministic field is load-bearing — flipping any one of
    /// them moves the digest.
    #[test]
    fn deterministic_digest_tracks_every_field() {
        let base = ReplicatedOutcome {
            vote: crate::voter::VoteResult {
                winner: b"out".to_vec(),
                agreeing: vec![0, 2],
                dissenting: vec![1],
            },
            patches: PatchTable::new(),
            report: None,
            replicas: vec![ReplicaSummary {
                seed: 7,
                completed: true,
                failed: false,
                signals: 1,
                output_len: 3,
                output_digest: 0xAB,
            }],
        };
        assert_eq!(
            base.deterministic_digest(),
            base.clone().deterministic_digest(),
            "equal outcomes must digest equally"
        );

        let mut variants = Vec::new();
        let mut v = base.clone();
        v.vote.winner = b"out!".to_vec();
        variants.push(v);
        let mut v = base.clone();
        v.vote.agreeing = vec![0];
        variants.push(v);
        let mut v = base.clone();
        v.patches.add_pad(xt_alloc::SiteHash::from_raw(0xF00D), 8);
        variants.push(v);
        let mut v = base.clone();
        v.report = Some(IsolationReport {
            overflows: Vec::new(),
            dangling: Vec::new(),
        });
        variants.push(v);
        let mut v = base.clone();
        v.replicas[0].failed = true;
        variants.push(v);
        let mut v = base.clone();
        v.replicas[0].output_digest = 0xAC;
        variants.push(v);

        let digest = base.deterministic_digest();
        for (i, variant) in variants.iter().enumerate() {
            assert_ne!(
                variant.deterministic_digest(),
                digest,
                "variant {i} was invisible to the digest"
            );
        }
    }

    /// One pinned value for the unit the wire ships: the field order,
    /// the length/presence tags and the job fold are all part of it, so
    /// a refactor of the digest (or of the primitive under it) that
    /// moves remote-vs-local comparisons shows up here first.
    #[test]
    fn pool_outcome_digest_is_pinned() {
        let mut patches = PatchTable::new();
        patches.add_pad(xt_alloc::SiteHash::from_raw(0xF00D), 8);
        let outcome = crate::pool::PoolOutcome {
            job: 7,
            outcome: ReplicatedOutcome {
                vote: crate::voter::VoteResult {
                    winner: b"out".to_vec(),
                    agreeing: vec![0, 2],
                    dissenting: vec![1],
                },
                patches,
                report: None,
                replicas: vec![ReplicaSummary {
                    seed: 7,
                    completed: true,
                    failed: false,
                    signals: 1,
                    output_len: 3,
                    output_digest: 0xAB,
                }],
            },
            timing: crate::pool::VoteTiming {
                outstanding_at_verdict: 0,
                verdict_latency: std::time::Duration::ZERO,
                full_latency: std::time::Duration::ZERO,
            },
        };
        assert_eq!(
            outcome.deterministic_digest(),
            0x446c_1503_b90d_a357_045d_ba62_b353_2b45
        );
    }

    #[test]
    fn injected_overflow_is_observed_and_patched() {
        // Not every manifesting fault leaves canary evidence in replica
        // images (overflows onto live objects abort without corruption);
        // search candidates like the paper searches injector seeds.
        let input = WorkloadInput::with_seed(8).intensity(3);
        let mut success = false;
        'candidates: for sel in 0..8u64 {
            let Some(fault) = crate::runner::find_manifesting_fault(
                &EspressoLike::new(),
                &input,
                FaultKind::BufferOverflow {
                    delta: 20,
                    fill: 0xEE,
                },
                100,
                300,
                20,
                4,
                5 + sel,
            ) else {
                continue;
            };
            let outcome = run_once(
                &input,
                Some(fault),
                &PatchTable::new(),
                PoolConfig {
                    replicas: 6,
                    ..PoolConfig::default()
                },
            );
            if !outcome.error_observed() {
                continue;
            }
            let report = outcome.report.as_ref().expect("isolation ran");
            if report.overflows.is_empty() && report.dangling.is_empty() {
                continue;
            }
            // Deployment story: patches accumulate across executions until
            // the error stops manifesting.
            let mut patches = outcome.patches.clone();
            for round in 0..5u64 {
                let next = run_once(
                    &input,
                    Some(fault),
                    &patches,
                    PoolConfig {
                        replicas: 6,
                        base_seed: 0x5EED_0002 + round,
                        ..PoolConfig::default()
                    },
                );
                if !next.error_observed() {
                    success = true;
                    break 'candidates;
                }
                patches = next.patches;
            }
        }
        assert!(success, "no candidate fault was isolated and repaired");
    }

    #[test]
    fn voter_reports_clean_majority_output_on_divergence() {
        // Even when a fault only corrupts data (no crash), the voter's
        // plurality output must be the *correct* one: byte-identical to a
        // clean reference run of the same input. (The paper's §3.1 voter
        // only releases output agreed by a plurality — agreeing on wrong
        // output would defeat it.)
        let input = WorkloadInput::with_seed(14);
        let reference = crate::runner::execute(
            &EspressoLike::new(),
            &input,
            crate::runner::RunConfig::with_seed(0x000C_1EA0),
        );
        assert!(
            reference.result.completed() && !reference.failed(),
            "reference run must be clean"
        );
        let fault = FaultSpec {
            kind: FaultKind::BufferOverflow {
                delta: 8,
                fill: 0x44,
            },
            trigger: AllocTime::from_raw(90),
        };
        let outcome = run_once(
            &input,
            Some(fault),
            &PatchTable::new(),
            PoolConfig {
                replicas: 5,
                ..PoolConfig::default()
            },
        );
        assert_eq!(outcome.replicas.len(), 5);
        // A strict majority must agree, and the winner must be the clean
        // output — not merely *some* plurality.
        assert!(
            outcome.vote.agreeing.len() >= 3,
            "no majority among 5 replicas: {:?}",
            outcome.vote.agreeing
        );
        assert_eq!(
            outcome.vote.winner, reference.result.output,
            "plurality output differs from the clean reference run"
        );
    }
}
