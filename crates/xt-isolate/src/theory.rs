//! The analytical bounds of paper §4 (Theorems 1–3).
//!
//! These functions exist so tests and `bench`'s theorem rows can check
//! the implementation's *measured* false-positive/false-negative rates
//! against the paper's *proved* bounds.

/// Theorem 1: upper bound on the probability that a buffer overflow
/// overwrites the same `s` objects identically in all `k` heap images of a
/// heap with `h` objects:
///
/// `P ≤ (1/2)^k × (1/(h−s))^k`
///
/// This is what justifies classifying *identical* overwrites as dangling
/// pointer errors rather than overflows (§4.2).
///
/// # Panics
///
/// Panics if `h <= s` (the overflow string cannot exceed the heap).
#[must_use]
pub fn p_identical_overflow(k: u32, s: f64, h: f64) -> f64 {
    assert!(h > s, "heap must be larger than the overflow string");
    (0.5f64).powi(k as i32) * (1.0 / (h - s)).powi(k as i32)
}

/// Theorem 2: upper bound on the probability that an overflow of `b` bytes
/// escapes detection by canary comparison across `k` images of heaps with
/// multiplier `m`:
///
/// `P ≤ (1 − (m−1)/(2m))^k + (1/256)^b`
///
/// The first term is the chance the overflow never lands on a canary; the
/// second is the chance it matches the canary byte-for-byte.
///
/// # Panics
///
/// Panics if `m < 1`.
#[must_use]
pub fn p_missed_overflow(m: f64, k: u32, b: u32) -> f64 {
    assert!(m >= 1.0, "heap multiplier must be at least 1");
    let landing_miss = 1.0 - (m - 1.0) / (2.0 * m);
    landing_miss.powi(k as i32) + (1.0f64 / 256.0).powi(b as i32)
}

/// Theorem 3: expected number of *spurious* culprit candidates at a fixed
/// distance `δ` from a victim across `k` heap images of heaps with `h`
/// objects:
///
/// `E = 1/(h−1)^(k−2)`
///
/// One image leaves `h−1` candidates; each further image divides the
/// expectation by `h−1`. Three images make false culprits vanishingly rare.
///
/// # Panics
///
/// Panics if `h < 2`.
#[must_use]
pub fn expected_culprits(h: f64, k: u32) -> f64 {
    assert!(h >= 2.0, "need at least two objects");
    (h - 1.0).powi(2 - k as i32)
}

/// The culprit confidence score of §4.1: `1 − (1/256)^s` for a total
/// detected overflow-string length of `s` bytes.
#[must_use]
pub fn culprit_score(s: u64) -> f64 {
    1.0 - (1.0f64 / 256.0).powi(s.min(1000) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_overflow_shrinks_with_images() {
        let p1 = p_identical_overflow(1, 4.0, 100.0);
        let p2 = p_identical_overflow(2, 4.0, 100.0);
        let p3 = p_identical_overflow(3, 4.0, 100.0);
        assert!(p2 < p1 && p3 < p2);
        // k=2, h=100, s=4: (1/4) * (1/96)^2
        let expected = 0.25 * (1.0f64 / 96.0).powi(2);
        assert!((p2 - expected).abs() < 1e-12);
    }

    #[test]
    fn missed_overflow_matches_paper_figure() {
        // §7.2: for three images and M=2, the bound on missing an overflow
        // is about 42% (landing term (3/4)^3 ≈ 0.42).
        let p = p_missed_overflow(2.0, 3, 4);
        assert!((p - 0.75f64.powi(3)).abs() < 1e-6, "p = {p}");
        assert!(p < 0.43 && p > 0.42);
    }

    #[test]
    fn missed_overflow_decreases_with_m_and_k() {
        assert!(p_missed_overflow(4.0, 3, 8) < p_missed_overflow(2.0, 3, 8));
        assert!(p_missed_overflow(2.0, 6, 8) < p_missed_overflow(2.0, 3, 8));
    }

    #[test]
    fn culprit_counts_match_paper_narrative() {
        // "With only one heap image, all (H−1) objects are potential
        // culprits, but one additional image reduces the expected number of
        // culprits for any victim to just 1."
        assert_eq!(expected_culprits(101.0, 1), 100.0);
        assert_eq!(expected_culprits(101.0, 2), 1.0);
        assert!((expected_culprits(101.0, 3) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn score_grows_with_string_length() {
        assert!(culprit_score(0) == 0.0);
        assert!(culprit_score(1) > 0.99);
        assert!(culprit_score(4) > culprit_score(1));
        assert!(culprit_score(4) <= 1.0);
    }

    #[test]
    #[should_panic(expected = "larger than")]
    fn identical_overflow_validates() {
        let _ = p_identical_overflow(2, 10.0, 10.0);
    }
}
