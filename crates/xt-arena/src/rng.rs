//! A small, deterministic pseudo-random number generator.
//!
//! Every randomized decision in the reproduction (miniheap placement, bitmap
//! probing, canary values, fault injection) flows through this generator so
//! that whole experiments are reproducible from a single seed, independent of
//! external crate versions. The algorithm is xoshiro256** seeded via
//! SplitMix64 — the standard construction recommended by its authors.
//!
//! The module is also the one home of the workspace's two 64-bit mixing
//! primitives — [`splitmix_finalize`] (seed derivation) and [`fnv1a_64`]
//! (checksums) — so every crate that derives a seed or folds a checksum
//! shares one definition, pinned by golden vectors below.

/// The SplitMix64 output finalizer: a bijective avalanche of `z`. Seed
/// derivations add their own stride/offset first, then finalize.
#[inline]
#[must_use]
pub fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 offset basis: the checksum of zero bytes.
pub const FNV1A_64_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64 state. Start from
/// [`FNV1A_64_BASIS`]; chunk boundaries do not affect the result.
#[inline]
#[must_use]
pub fn fnv1a_64(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Deterministic xoshiro256** generator.
///
/// # Example
///
/// ```
/// use xt_arena::Rng;
///
/// let mut a = Rng::new(7);
/// let mut b = Rng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rng {
    state: [u64; 4],
}

impl Rng {
    /// Creates a generator from a seed.
    ///
    /// Distinct seeds produce independent-looking streams; the all-zero
    /// internal state is unreachable because SplitMix64 never produces four
    /// consecutive zeros.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            splitmix_finalize(sm)
        };
        Rng {
            state: [next(), next(), next(), next()],
        }
    }

    /// Derives an independent generator, e.g. one per replica.
    #[must_use]
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// Returns the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Returns the next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the distribution is
    /// exactly uniform.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below requires a positive bound");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // 53 random bits give a uniform double in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden vectors: every seed derivation and checksum in the
    /// workspace folds through these two functions, so these values
    /// moving means every pinned digest downstream moved too. (The
    /// SplitMix64 and FNV-1a vectors are the published ones; the `Rng`
    /// pair pins the seeding construction built on them.)
    #[test]
    fn mixing_primitives_match_their_golden_vectors() {
        assert_eq!(splitmix_finalize(0), 0);
        assert_eq!(splitmix_finalize(1), 0x5692_161d_100b_05e5);
        assert_eq!(splitmix_finalize(42), 0xa759_ea27_d472_7622);
        // SplitMix64's first output from state 0.
        assert_eq!(
            splitmix_finalize(0x9e37_79b9_7f4a_7c15),
            0xe220_a839_7b1d_cdaf
        );
        let mut rng = Rng::new(0);
        assert_eq!(rng.next_u64(), 0x99ec_5f36_cb75_f2b4);
        assert_eq!(rng.next_u64(), 0xbf6e_1f78_4956_452a);

        let fnv = |bytes: &[u8]| fnv1a_64(FNV1A_64_BASIS, bytes);
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv(b"exterminator"), 0x7b48_091c_3d08_eba5);
        // Chunk boundaries are invisible.
        assert_eq!(fnv1a_64(fnv(b"foo"), b"bar"), fnv(b"foobar"));
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::new(123);
        let mut b = Rng::new(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Rng::new(99);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Rng::new(5);
        let mut counts = [0u32; 8];
        for _ in 0..8000 {
            counts[rng.below_usize(8)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn below_zero_panics() {
        Rng::new(0).below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(11);
        assert!(rng.chance(1.0));
        assert!(!rng.chance(0.0));
    }

    #[test]
    fn chance_half_is_balanced() {
        let mut rng = Rng::new(17);
        let heads = (0..10_000).filter(|_| rng.chance(0.5)).count();
        assert!((4500..5500).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn fork_produces_distinct_stream() {
        let mut a = Rng::new(42);
        let mut b = a.fork();
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
