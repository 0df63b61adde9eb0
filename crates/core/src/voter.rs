//! The replicated mode's output voter (§3.1, §3.4).
//!
//! "A voter intercepts and compares outputs across the replicas, and only
//! actually generates output agreed on by a plurality of the replicas."
//!
//! Two voting surfaces:
//!
//! * [`vote`] — the batch voter: all outputs in hand, one plurality pass.
//! * [`StreamingVoter`] — the incremental voter the
//!   [replica pool](crate::pool) uses: replica output arrives in chunks and
//!   is folded into a per-replica 128-bit digest; the moment a *quorum* of
//!   finished replicas share one digest the voter declares a
//!   [`StreamVerdict`], so the pool can release the agreed output while
//!   stragglers and crashed replicas are still finishing (their heap
//!   images are still wanted for isolation). Once every replica finishes,
//!   [`StreamingVoter::final_vote`] produces the same partition [`vote`]
//!   would — scheduling can make the verdict *earlier*, never different.

use std::collections::HashMap;

/// The result of voting over replica outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VoteResult {
    /// The plurality output.
    pub winner: Vec<u8>,
    /// Indices of replicas that produced the winner.
    pub agreeing: Vec<usize>,
    /// Indices of replicas that diverged.
    pub dissenting: Vec<usize>,
}

impl VoteResult {
    /// `true` if every replica agreed.
    #[must_use]
    pub fn unanimous(&self) -> bool {
        self.dissenting.is_empty()
    }

    /// `true` if a strict majority agreed on the winner.
    #[must_use]
    pub fn majority(&self) -> bool {
        2 * self.agreeing.len() > self.agreeing.len() + self.dissenting.len()
    }
}

/// Computes the plurality output across replicas. Ties are broken toward
/// the lowest replica index, deterministically.
///
/// # Panics
///
/// Panics if `outputs` is empty — a voter needs at least one replica.
#[must_use]
pub fn vote(outputs: &[Vec<u8>]) -> VoteResult {
    assert!(!outputs.is_empty(), "voting requires at least one replica");
    let mut counts: HashMap<&[u8], (usize, usize)> = HashMap::new();
    for (i, out) in outputs.iter().enumerate() {
        let entry = counts.entry(out.as_slice()).or_insert((0, i));
        entry.0 += 1;
    }
    let (&winner, _) = counts
        .iter()
        .max_by(|(_, (ca, ia)), (_, (cb, ib))| ca.cmp(cb).then(ib.cmp(ia)))
        .expect("non-empty outputs");
    let mut agreeing = Vec::new();
    let mut dissenting = Vec::new();
    for (i, out) in outputs.iter().enumerate() {
        if out.as_slice() == winner {
            agreeing.push(i);
        } else {
            dissenting.push(i);
        }
    }
    VoteResult {
        winner: winner.to_vec(),
        agreeing,
        dissenting,
    }
}

/// FNV-1a 128 offset basis: the empty-output digest.
const DIGEST_BASIS: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;

/// FNV-1a 128 prime.
const DIGEST_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Folds one output chunk into a running 128-bit FNV-1a digest. Start from
/// [`empty_digest`]; chunk boundaries do not affect the result.
#[must_use]
pub fn digest_chunk(state: u128, chunk: &[u8]) -> u128 {
    let mut h = state;
    for &b in chunk {
        h ^= u128::from(b);
        h = h.wrapping_mul(DIGEST_PRIME);
    }
    h
}

/// The digest of zero output bytes.
#[must_use]
pub fn empty_digest() -> u128 {
    DIGEST_BASIS
}

/// Digests a complete output in one call.
#[must_use]
pub fn output_digest(output: &[u8]) -> u128 {
    digest_chunk(DIGEST_BASIS, output)
}

/// The streaming voter's early verdict: a quorum of finished replicas
/// agree on one full-output digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamVerdict {
    /// The agreed digest.
    pub digest: u128,
    /// Replicas (by index) that had finished with this digest when the
    /// quorum formed.
    pub agreeing: Vec<usize>,
    /// Replicas not yet finished at that moment — the stragglers the
    /// verdict did not wait for.
    pub outstanding: usize,
}

/// Incremental plurality voting over replica output digests.
#[derive(Clone, Debug)]
pub struct StreamingVoter {
    quorum: usize,
    /// Running digest per replica.
    states: Vec<u128>,
    /// Finalized digest per replica (set by `finish_replica`).
    finished: Vec<Option<u128>>,
    verdict: Option<StreamVerdict>,
}

impl StreamingVoter {
    /// A voter over `replicas` replicas with a strict-majority quorum.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    #[must_use]
    pub fn new(replicas: usize) -> Self {
        StreamingVoter::with_quorum(replicas, replicas / 2 + 1)
    }

    /// A voter with an explicit quorum, clamped to
    /// `(replicas/2 + 1)..=replicas`. The strict-majority floor is what
    /// guarantees the early verdict can never name a different digest
    /// than [`StreamingVoter::final_vote`]'s plurality winner: two
    /// digests cannot both reach a majority, so the quorum digest is the
    /// final winner no matter how stragglers finish. A sub-majority
    /// quorum would let one fast corrupted replica publish its output —
    /// exactly what the voter exists to suppress — so it is not offered.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    #[must_use]
    fn with_quorum(replicas: usize, quorum: usize) -> Self {
        assert!(replicas > 0, "voting requires at least one replica");
        StreamingVoter {
            quorum: quorum.clamp(replicas / 2 + 1, replicas),
            states: vec![DIGEST_BASIS; replicas],
            finished: vec![None; replicas],
            verdict: None,
        }
    }

    /// Number of replicas under vote.
    #[must_use]
    pub fn replicas(&self) -> usize {
        self.states.len()
    }

    /// Folds an output chunk from `replica` into its running digest.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range or already finished.
    pub fn push_chunk(&mut self, replica: usize, chunk: &[u8]) {
        assert!(
            self.finished[replica].is_none(),
            "replica {replica} already finished"
        );
        self.states[replica] = digest_chunk(self.states[replica], chunk);
    }

    /// Marks `replica`'s output complete, finalizing its digest. Returns
    /// the verdict if this completion (first) forms a quorum.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range or already finished.
    pub fn finish_replica(&mut self, replica: usize) -> Option<&StreamVerdict> {
        assert!(
            self.finished[replica].is_none(),
            "replica {replica} finished twice"
        );
        let digest = self.states[replica];
        self.finished[replica] = Some(digest);
        if self.verdict.is_none() {
            let agreeing: Vec<usize> = self
                .finished
                .iter()
                .enumerate()
                .filter_map(|(i, d)| (*d == Some(digest)).then_some(i))
                .collect();
            if agreeing.len() >= self.quorum {
                self.verdict = Some(StreamVerdict {
                    digest,
                    agreeing,
                    outstanding: self.finished.iter().filter(|d| d.is_none()).count(),
                });
            }
        }
        self.verdict.as_ref()
    }

    /// The early verdict, if a quorum has formed.
    #[must_use]
    pub fn verdict(&self) -> Option<&StreamVerdict> {
        self.verdict.as_ref()
    }

    /// Finalized digest of `replica`, if it has finished.
    #[must_use]
    pub fn digest_of(&self, replica: usize) -> Option<u128> {
        self.finished[replica]
    }

    /// The full plurality partition over digests, with [`vote`]'s exact
    /// tie-break (lowest first-occurrence index wins). Winner bytes are
    /// not reconstructed here — the caller holds the outputs and indexes
    /// them with `agreeing[0]`.
    ///
    /// # Panics
    ///
    /// Panics unless every replica has finished.
    #[must_use]
    pub fn final_vote(&self) -> DigestVote {
        let digests: Vec<u128> = self
            .finished
            .iter()
            .map(|d| d.expect("final_vote requires all replicas finished"))
            .collect();
        let mut counts: HashMap<u128, (usize, usize)> = HashMap::new();
        for (i, &d) in digests.iter().enumerate() {
            counts.entry(d).or_insert((0, i)).0 += 1;
        }
        let (&winner, _) = counts
            // xt-analyze: allow(hash-iter) -- max_by comparator is a total order over (count, first-index), so the winner is unique regardless of iteration order
            .iter()
            .max_by(|(_, (ca, ia)), (_, (cb, ib))| ca.cmp(cb).then(ib.cmp(ia)))
            .expect("non-empty replica set");
        let mut agreeing = Vec::new();
        let mut dissenting = Vec::new();
        for (i, &d) in digests.iter().enumerate() {
            if d == winner {
                agreeing.push(i);
            } else {
                dissenting.push(i);
            }
        }
        DigestVote {
            winner,
            agreeing,
            dissenting,
        }
    }
}

/// [`StreamingVoter::final_vote`]'s result: [`VoteResult`] over digests
/// instead of output bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestVote {
    /// The plurality digest.
    pub winner: u128,
    /// Indices of replicas that produced the winner.
    pub agreeing: Vec<usize>,
    /// Indices of replicas that diverged.
    pub dissenting: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden vectors (the published FNV-1a 128 ones): outcome digests,
    /// streaming votes and fleet snapshot digests all fold through
    /// [`digest_chunk`], so these pin every 128-bit digest at once.
    #[test]
    fn digest_matches_the_fnv1a_128_golden_vectors() {
        assert_eq!(empty_digest(), 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
        assert_eq!(output_digest(b""), empty_digest());
        assert_eq!(
            output_digest(b"a"),
            0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964
        );
        assert_eq!(
            output_digest(b"foobar"),
            0x343e_1662_793c_64bf_6f0d_3597_ba44_6f18
        );
        assert_eq!(
            output_digest(b"exterminator"),
            0x98d5_4927_0895_480f_543b_1c55_b843_f31d
        );
    }

    #[test]
    fn unanimous_vote() {
        let outputs = vec![b"abc".to_vec(), b"abc".to_vec(), b"abc".to_vec()];
        let v = vote(&outputs);
        assert!(v.unanimous());
        assert!(v.majority());
        assert_eq!(v.winner, b"abc");
        assert_eq!(v.agreeing, vec![0, 1, 2]);
    }

    #[test]
    fn plurality_beats_dissent() {
        let outputs = vec![b"good".to_vec(), b"BAD!".to_vec(), b"good".to_vec()];
        let v = vote(&outputs);
        assert!(!v.unanimous());
        assert!(v.majority());
        assert_eq!(v.winner, b"good");
        assert_eq!(v.dissenting, vec![1]);
    }

    #[test]
    fn tie_breaks_to_lowest_index_deterministically() {
        let outputs = vec![b"a".to_vec(), b"b".to_vec()];
        let v = vote(&outputs);
        assert_eq!(v.winner, b"a");
        assert!(!v.majority());
        // Deterministic under repetition.
        for _ in 0..10 {
            assert_eq!(vote(&outputs).winner, b"a");
        }
    }

    #[test]
    fn single_replica_wins_trivially() {
        let v = vote(&[b"solo".to_vec()]);
        assert!(v.unanimous());
        assert_eq!(v.winner, b"solo");
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_vote_panics() {
        let _ = vote(&[]);
    }

    #[test]
    fn digest_is_chunking_invariant() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = output_digest(data);
        for chunk in [1usize, 3, 7, 16, data.len()] {
            let mut state = empty_digest();
            for piece in data.chunks(chunk) {
                state = digest_chunk(state, piece);
            }
            assert_eq!(state, whole, "chunk size {chunk} changed the digest");
        }
        assert_ne!(whole, output_digest(b"different"));
        assert_eq!(output_digest(b""), empty_digest());
    }

    #[test]
    fn quorum_verdict_fires_before_stragglers_finish() {
        let mut voter = StreamingVoter::new(5);
        voter.push_chunk(0, b"out");
        voter.push_chunk(1, b"o");
        voter.push_chunk(1, b"ut");
        voter.push_chunk(3, b"out");
        assert!(voter.finish_replica(0).is_none(), "1 of 5 is no quorum");
        assert!(voter.finish_replica(1).is_none(), "2 of 5 is no quorum");
        let verdict = voter.finish_replica(3).expect("3 of 5 is a quorum").clone();
        assert_eq!(verdict.digest, output_digest(b"out"));
        assert_eq!(verdict.agreeing, vec![0, 1, 3]);
        assert_eq!(verdict.outstanding, 2, "two replicas still running");
        // Stragglers finishing later (even diverging) don't alter the
        // verdict...
        voter.push_chunk(2, b"BAD");
        voter.finish_replica(2);
        voter.push_chunk(4, b"out");
        voter.finish_replica(4);
        assert_eq!(voter.verdict().unwrap(), &verdict);
        // ...and the final partition matches the batch voter's.
        let full = voter.final_vote();
        let batch = vote(&[
            b"out".to_vec(),
            b"out".to_vec(),
            b"BAD".to_vec(),
            b"out".to_vec(),
            b"out".to_vec(),
        ]);
        assert_eq!(full.winner, output_digest(&batch.winner));
        assert_eq!(full.agreeing, batch.agreeing);
        assert_eq!(full.dissenting, batch.dissenting);
    }

    /// Any arrival order of the same outputs yields the identical final
    /// partition, and ties break exactly like the batch voter's.
    #[test]
    fn streaming_final_vote_matches_batch_voter_in_any_order() {
        let outputs: Vec<Vec<u8>> =
            vec![b"a".to_vec(), b"b".to_vec(), b"a".to_vec(), b"b".to_vec()];
        let batch = vote(&outputs);
        for order in [[0usize, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
            let mut voter = StreamingVoter::new(4);
            for &i in &order {
                voter.push_chunk(i, &outputs[i]);
                voter.finish_replica(i);
            }
            let full = voter.final_vote();
            assert_eq!(full.winner, output_digest(&batch.winner));
            assert_eq!(full.agreeing, batch.agreeing);
            assert_eq!(full.dissenting, batch.dissenting);
        }
    }

    /// A sub-majority quorum request is clamped up to a strict majority:
    /// a single fast, corrupted replica must never win the early verdict.
    #[test]
    fn quorum_is_clamped_to_strict_majority() {
        let mut voter = StreamingVoter::with_quorum(3, 1);
        voter.push_chunk(2, b"BAD");
        assert!(
            voter.finish_replica(2).is_none(),
            "one replica of three must not form a quorum"
        );
        voter.push_chunk(0, b"good");
        voter.finish_replica(0);
        voter.push_chunk(1, b"good");
        let verdict = voter.finish_replica(1).expect("majority formed").clone();
        assert_eq!(verdict.digest, output_digest(b"good"));
        assert_eq!(
            voter.final_vote().winner,
            verdict.digest,
            "early verdict and final plurality must agree"
        );
    }

    #[test]
    #[should_panic(expected = "all replicas finished")]
    fn final_vote_requires_all_finished() {
        let mut voter = StreamingVoter::new(2);
        voter.finish_replica(0);
        let _ = voter.final_vote();
    }
}
