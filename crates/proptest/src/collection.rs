//! Collection strategies (`proptest::collection::vec`).

use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A length distribution for generated collections.
#[derive(Clone, Debug)]
pub struct SizeRange {
    lo: usize,
    /// Exclusive upper bound.
    hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            lo: r.start,
            hi: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange {
            lo: *r.start(),
            hi: *r.end() + 1,
        }
    }
}

/// Generates `Vec`s whose elements come from `element` and whose length is
/// drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    /// One element source per position — so a mapped element strategy
    /// shrinks through its own source at every index.
    type Source = Vec<S::Source>;

    fn generate_source(&self, rng: &mut TestRng) -> Vec<S::Source> {
        let span = (self.size.hi - self.size.lo) as u64;
        let len = self.size.lo + rng.below(span.max(1)) as usize;
        (0..len)
            .map(|_| self.element.generate_source(rng))
            .collect()
    }

    fn realize(&self, source: &Vec<S::Source>) -> Vec<S::Value> {
        source.iter().map(|s| self.element.realize(s)).collect()
    }

    /// Length shrinking by halving search toward the minimum length
    /// (shortest allowed prefix, half-length prefix, drop-last), then
    /// element shrinking at every position — any element may be the one
    /// keeping the failure alive, so each gets candidates (the greedy
    /// runner's budget bounds the total work).
    fn shrink_source(&self, source: &Vec<S::Source>) -> Vec<Vec<S::Source>> {
        let mut out = Vec::new();
        let len = source.len();
        if len > self.size.lo {
            out.push(source[..self.size.lo].to_vec());
            let half = self.size.lo + (len - self.size.lo) / 2;
            if half > self.size.lo && half < len {
                out.push(source[..half].to_vec());
            }
            if len - 1 > self.size.lo && len - 1 != half {
                out.push(source[..len - 1].to_vec());
            }
        }
        for (i, s) in source.iter().enumerate() {
            for cand in self.element.shrink_source(s) {
                let mut next = source.clone();
                next[i] = cand;
                out.push(next);
            }
        }
        out
    }
}
