//! The allocation bitmap backing each miniheap.

use xt_arena::Rng;

/// A fixed-size bitmap with one bit per object slot.
///
/// DieHard's heap is *headerless*: whether a slot is in use is recorded
/// here, out of band, where overflowing application writes can never reach
/// it. Double frees are benign because a bit "can only be reset once"
/// (paper §2).
///
/// # Example
///
/// ```
/// use xt_diehard::BitMap;
///
/// let mut bm = BitMap::new(64);
/// assert!(bm.set(10), "first set succeeds");
/// assert!(!bm.set(10), "second set reports already-set");
/// assert!(bm.clear(10));
/// assert!(!bm.clear(10), "second clear reports already-clear");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl BitMap {
    /// Creates an all-clear bitmap with `len` bits.
    #[must_use]
    pub fn new(len: usize) -> Self {
        BitMap {
            words: vec![0u64; len.div_ceil(64)],
            len,
            ones: 0,
        }
    }

    /// Number of bits.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the bitmap has zero bits.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    #[inline]
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Returns bit `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Sets bit `idx`; returns `true` if it was previously clear.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn set(&mut self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        self.ones += 1;
        true
    }

    /// Clears bit `idx`; returns `true` if it was previously set.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn clear(&mut self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        if *word & mask == 0 {
            return false;
        }
        *word &= !mask;
        self.ones -= 1;
        true
    }

    /// Randomly probes for a clear bit, the core of DieHard's `O(1)`
    /// expected-time allocation. Falls back to a deterministic scan after
    /// `max_probes` misses so allocation never spins (the fallback is
    /// unreachable at the occupancies the growth policy maintains).
    ///
    /// Returns `None` only if every bit is set.
    pub fn probe_clear(&mut self, rng: &mut Rng, max_probes: usize) -> Option<usize> {
        if self.ones == self.len {
            return None;
        }
        for _ in 0..max_probes {
            let idx = rng.below_usize(self.len);
            if !self.get(idx) {
                return Some(idx);
            }
        }
        // Deterministic fallback: first clear bit.
        for (w, &word) in self.words.iter().enumerate() {
            if word != u64::MAX {
                let bit = (!word).trailing_zeros() as usize;
                let idx = w * 64 + bit;
                if idx < self.len {
                    return Some(idx);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_clear() {
        let bm = BitMap::new(100);
        assert_eq!(bm.len(), 100);
        assert_eq!(bm.count_ones(), 0);
        assert!((0..100).all(|i| !bm.get(i)));
        assert!(!bm.is_empty());
        assert!(BitMap::new(0).is_empty());
    }

    #[test]
    fn set_clear_track_counts() {
        let mut bm = BitMap::new(130);
        assert!(bm.set(0));
        assert!(bm.set(64));
        assert!(bm.set(129));
        assert_eq!(bm.count_ones(), 3);
        assert!(!bm.set(64), "setting a set bit is a no-op");
        assert_eq!(bm.count_ones(), 3);
        assert!(bm.clear(64));
        assert!(!bm.clear(64), "clearing a clear bit is a no-op");
        assert_eq!(bm.count_ones(), 2);
        assert!(bm.get(0) && !bm.get(64) && bm.get(129));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = BitMap::new(10).get(10);
    }

    #[test]
    fn probe_finds_clear_bits() {
        let mut bm = BitMap::new(64);
        let mut rng = Rng::new(3);
        for i in 0..63 {
            bm.set(i);
        }
        // Only bit 63 is clear; probing must find it (via fallback if the
        // random probes miss).
        assert_eq!(bm.probe_clear(&mut rng, 8), Some(63));
    }

    #[test]
    fn probe_on_full_bitmap_is_none() {
        let mut bm = BitMap::new(10);
        for i in 0..10 {
            bm.set(i);
        }
        assert_eq!(bm.probe_clear(&mut Rng::new(1), 100), None);
    }

    #[test]
    fn probe_is_uniform_over_clear_bits() {
        // With half the bitmap set, probes should land roughly uniformly on
        // the clear half.
        let mut bm = BitMap::new(64);
        for i in 0..32 {
            bm.set(i);
        }
        let mut rng = Rng::new(9);
        let mut counts = [0u32; 64];
        for _ in 0..6400 {
            let idx = bm.probe_clear(&mut rng, 1000).unwrap();
            counts[idx] += 1;
        }
        assert!(counts[..32].iter().all(|&c| c == 0));
        for &c in &counts[32..] {
            assert!((100..320).contains(&c), "probe count {c} is not uniform");
        }
    }

    #[test]
    fn fallback_scan_skips_padding_bits() {
        // 65 bits: the second word has 63 padding bits that must never be
        // returned.
        let mut bm = BitMap::new(65);
        for i in 0..65 {
            bm.set(i);
        }
        bm.clear(64);
        let got = bm.probe_clear(&mut Rng::new(4), 0);
        assert_eq!(got, Some(64));
    }
}
