//! Mergeable quantile sketch for candidate split proposal.
//!
//! The histogram-based algorithm proposes `q` candidate splits per feature
//! from an approximation of the feature's distribution (§2.1.2), built with
//! a *mergeable* sketch so that per-worker local sketches can be repartitioned
//! and merged into global ones (§4.2.1 step 1). This is a KLL-style compactor
//! hierarchy: level `h` stores items of weight `2^h`; when a level overflows
//! it is sorted and every other item is promoted to the next level.
//!
//! Compaction offsets alternate deterministically instead of randomly, so
//! that identical inputs always produce identical sketches — the property the
//! cross-quadrant equivalence tests rely on. The paper's sketches are
//! similarly "usually small in size" (§4.2.1); byte-exact wire encoding is
//! provided for the communication cost accounting.

use serde::{Deserialize, Serialize};

/// Default per-level compactor capacity, giving ≈1% rank error.
pub const DEFAULT_CAPACITY: usize = 256;

/// A mergeable streaming quantile sketch over `f32` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantileSketch {
    capacity: usize,
    /// `levels[h]` holds items of weight `2^h`, unsorted between compactions.
    levels: Vec<Vec<f32>>,
    n: u64,
    min: f32,
    max: f32,
    /// Deterministic compaction-offset alternator.
    flip: bool,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_CAPACITY)
    }
}

impl QuantileSketch {
    /// Creates an empty sketch with the given per-level capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 4, "capacity must be at least 4");
        QuantileSketch {
            capacity,
            levels: vec![Vec::new()],
            n: 0,
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
            flip: false,
        }
    }

    /// Number of values observed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// True when no values have been observed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Smallest observed value (exact).
    pub fn min(&self) -> Option<f32> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observed value (exact).
    pub fn max(&self) -> Option<f32> {
        (self.n > 0).then_some(self.max)
    }

    /// Inserts one value. NaN values are ignored (missing data).
    pub fn insert(&mut self, value: f32) {
        if value.is_nan() {
            return;
        }
        self.n += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.levels[0].push(value);
        // Every level is within capacity between calls (the cascade leaves
        // it so, and decoding rejects anything else), so only an overflow
        // of level 0 can give the cascade work.
        if self.levels[0].len() > self.capacity {
            self.compact_cascade();
        }
    }

    /// Merges another sketch into this one.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.n == 0 {
            return;
        }
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if other.levels.len() > self.levels.len() {
            self.levels.resize(other.levels.len(), Vec::new());
        }
        for (h, level) in other.levels.iter().enumerate() {
            self.levels[h].extend_from_slice(level);
        }
        self.compact_cascade();
    }

    fn compact_cascade(&mut self) {
        let mut h = 0;
        while h < self.levels.len() {
            if self.levels[h].len() > self.capacity {
                if h + 1 == self.levels.len() {
                    self.levels.push(Vec::new());
                }
                let mut level = std::mem::take(&mut self.levels[h]);
                level.sort_unstable_by(f32::total_cmp);
                let offset = usize::from(self.flip);
                self.flip = !self.flip;
                let promoted = level.iter().skip(offset).step_by(2).copied();
                self.levels[h + 1].extend(promoted);
                // Items at the other parity are discarded; their weight is
                // implicitly transferred to the promoted neighbours.
            }
            h += 1;
        }
    }

    /// Weighted items `(value, weight)` in ascending value order.
    fn weighted_items(&self) -> Vec<(f32, u64)> {
        let mut items: Vec<(f32, u64)> = Vec::new();
        for (h, level) in self.levels.iter().enumerate() {
            let w = 1u64 << h;
            items.extend(level.iter().map(|&v| (v, w)));
        }
        items.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        items
    }

    /// Approximate `phi`-quantile (`phi ∈ [0, 1]`); `None` when empty.
    pub fn quantile(&self, phi: f64) -> Option<f32> {
        if self.n == 0 {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        let items = self.weighted_items();
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        let target = (phi * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for &(v, w) in &items {
            cum += w;
            if cum >= target {
                return Some(v);
            }
        }
        Some(self.max)
    }

    /// `q` candidate split values at quantiles `1/q, 2/q, …, 1`, deduplicated
    /// and ending at the exact maximum so every value maps to some bin.
    ///
    /// Each cut is exactly [`Self::quantile`] at its φ, but the items are
    /// sorted once and the q targets, which never decrease, are met in one
    /// cumulative walk.
    pub fn candidate_splits(&self, q: usize) -> Vec<f32> {
        if self.n == 0 || q == 0 {
            return Vec::new();
        }
        let items = self.weighted_items();
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        let mut cuts = Vec::with_capacity(q);
        // `cum` is the weight of the first `k` items; the answer for a
        // target is the first item at which `cum` reaches it.
        let (mut k, mut cum) = (0usize, 0u64);
        for i in 1..=q {
            let phi = i as f64 / q as f64;
            let target = (phi * total as f64).ceil().max(1.0) as u64;
            while cum < target && k < items.len() {
                cum += items[k].1;
                k += 1;
            }
            let v = if cum >= target { items[k - 1].0 } else { self.max };
            if cuts.last().is_none_or(|&last| v > last) {
                cuts.push(v);
            }
        }
        // Guarantee the exact maximum is covered WITHOUT exceeding q cuts:
        // replace the top cut when the budget is already spent.
        match cuts.last_mut() {
            Some(last) if *last < self.max => {
                if cuts.len() < q {
                    cuts.push(self.max);
                } else {
                    *cuts.last_mut().expect("non-empty") = self.max;
                }
            }
            None => cuts.push(self.max),
            _ => {}
        }
        debug_assert!(cuts.len() <= q);
        cuts
    }

    /// Exact wire encoding (header + per-level f32 payloads).
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            29 + self.levels.iter().map(|l| 4 + l.len() * 4).sum::<usize>(),
        );
        out.extend_from_slice(&(self.capacity as u32).to_le_bytes());
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&self.min.to_le_bytes());
        out.extend_from_slice(&self.max.to_le_bytes());
        out.push(u8::from(self.flip));
        out.extend_from_slice(&(self.levels.len() as u32).to_le_bytes());
        for level in &self.levels {
            out.extend_from_slice(&(level.len() as u32).to_le_bytes());
            for v in level {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Decodes [`Self::encode_bytes`] output. Returns `None` on malformed input.
    pub fn decode_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let mut take = |n: usize| -> Option<&[u8]> {
            let slice = bytes.get(pos..pos + n)?;
            pos += n;
            Some(slice)
        };
        let capacity = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
        let n = u64::from_le_bytes(take(8)?.try_into().ok()?);
        let min = f32::from_le_bytes(take(4)?.try_into().ok()?);
        let max = f32::from_le_bytes(take(4)?.try_into().ok()?);
        let flip = take(1)?[0] != 0;
        let n_levels = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
        if capacity < 4 || n_levels > 64 {
            return None;
        }
        let mut levels = Vec::with_capacity(n_levels.max(1));
        for _ in 0..n_levels {
            let len = u32::from_le_bytes(take(4)?.try_into().ok()?) as usize;
            // No sketch holds a level past capacity (`insert` relies on
            // it), and `len` may not size an allocation before its bytes
            // are there.
            if len > capacity {
                return None;
            }
            let (values, _) = take(len.checked_mul(4)?)?.as_chunks::<4>();
            levels.push(values.iter().map(|v| f32::from_le_bytes(*v)).collect());
        }
        if levels.is_empty() {
            levels.push(Vec::new());
        }
        if pos != bytes.len() {
            return None;
        }
        Some(QuantileSketch { capacity, levels, n, min, max, flip })
    }

    /// Bytes the sketch occupies on the wire.
    pub fn wire_bytes(&self) -> usize {
        25 + self.levels.iter().map(|l| 4 + l.len() * 4).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: impl IntoIterator<Item = f32>) -> QuantileSketch {
        let mut s = QuantileSketch::new(64);
        for v in values {
            s.insert(v);
        }
        s
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::default();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert!(s.candidate_splits(10).is_empty());
    }

    #[test]
    fn small_stream_is_exact() {
        // Below capacity nothing is compacted, so quantiles are exact.
        let s = filled((1..=50).map(|i| i as f32));
        assert_eq!(s.count(), 50);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(50.0));
        assert_eq!(s.quantile(0.5), Some(25.0));
        assert_eq!(s.quantile(1.0), Some(50.0));
        assert_eq!(s.quantile(0.02), Some(1.0));
    }

    #[test]
    fn nan_values_are_ignored() {
        let mut s = QuantileSketch::new(16);
        s.insert(1.0);
        s.insert(f32::NAN);
        s.insert(2.0);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn large_stream_has_bounded_rank_error() {
        let n = 20_000;
        let s = {
            let mut s = QuantileSketch::new(256);
            // Deterministic pseudo-shuffled order.
            for i in 0..n {
                let v = ((i * 7919) % n) as f32;
                s.insert(v);
            }
            s
        };
        for phi in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let got = s.quantile(phi).unwrap() as f64;
            let want = phi * n as f64;
            let err = (got - want).abs() / n as f64;
            assert!(err < 0.05, "phi={phi}: got {got}, want {want}, err {err}");
        }
    }

    #[test]
    fn merge_equals_union_statistically() {
        let a = filled((0..5_000).map(|i| i as f32));
        let b = filled((5_000..10_000).map(|i| i as f32));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 10_000);
        assert_eq!(merged.min(), Some(0.0));
        assert_eq!(merged.max(), Some(9_999.0));
        let mid = merged.quantile(0.5).unwrap() as f64;
        assert!((mid - 5_000.0).abs() / 10_000.0 < 0.05, "median {mid}");
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = filled([3.0, 1.0, 2.0]);
        let mut b = a.clone();
        b.merge(&QuantileSketch::default());
        assert_eq!(a, b);
        let mut empty = QuantileSketch::new(64);
        empty.merge(&a);
        assert_eq!(empty.count(), 3);
        assert_eq!(empty.quantile(1.0), Some(3.0));
    }

    #[test]
    fn candidate_splits_are_sorted_distinct_and_end_at_max() {
        let s = filled((0..1000).map(|i| (i % 10) as f32));
        let cuts = s.candidate_splits(20);
        assert!(!cuts.is_empty());
        for w in cuts.windows(2) {
            assert!(w[0] < w[1], "cuts not strictly ascending: {cuts:?}");
        }
        assert_eq!(*cuts.last().unwrap(), 9.0);
        // Only 10 distinct values -> at most 10 cuts even with q=20.
        assert!(cuts.len() <= 10);
    }

    #[test]
    fn constant_feature_yields_single_cut() {
        let s = filled(std::iter::repeat_n(4.2, 100));
        let cuts = s.candidate_splits(20);
        assert_eq!(cuts, vec![4.2]);
    }

    #[test]
    fn wire_roundtrip_is_exact() {
        let s = filled((0..3_000).map(|i| (i as f32).sin()));
        let bytes = s.encode_bytes();
        assert_eq!(bytes.len(), s.wire_bytes());
        let back = QuantileSketch::decode_bytes(&bytes).unwrap();
        assert_eq!(s, back);
        // Truncated input is rejected.
        assert!(QuantileSketch::decode_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(QuantileSketch::decode_bytes(&[1, 2, 3]).is_none());
    }

    #[test]
    fn hostile_level_lengths_are_rejected_without_allocating() {
        let s = filled((0..100).map(|i| i as f32));
        let mut bytes = s.encode_bytes();
        // Level 0's u32 length sits after the 25-byte header: claim 2^32 − 1
        // values, 16 GiB, in a frame of a few hundred bytes.
        bytes[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(QuantileSketch::decode_bytes(&bytes).is_none());
        // A level over capacity is rejected too: no sketch can hold one.
        let mut big = QuantileSketch::new(4);
        big.levels[0] = vec![1.0; 5];
        assert!(QuantileSketch::decode_bytes(&big.encode_bytes()).is_none());
    }

    #[test]
    fn determinism_across_identical_streams() {
        let a = filled((0..10_000).map(|i| ((i * 31) % 997) as f32));
        let b = filled((0..10_000).map(|i| ((i * 31) % 997) as f32));
        assert_eq!(a, b);
    }

    #[test]
    fn sketch_stays_small() {
        let mut s = QuantileSketch::new(256);
        for i in 0..1_000_000 {
            s.insert((i % 100_000) as f32);
        }
        // Logarithmic level count, bounded per-level size.
        assert!(s.wire_bytes() < 64 * 1024, "sketch grew to {} bytes", s.wire_bytes());
    }
}
