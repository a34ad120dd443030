//! Split gain, leaf weights, and best-split search over histograms.
//!
//! Implements Equations 1 and 2 of the paper: the optimal leaf weight
//! `w* = −G / (H + λ)` and the split gain
//! `Gain = ½ [G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)] − γ`,
//! generalized to C-dimensional gradients for multi-class (per-class terms
//! are summed). Instances whose value for the split feature is missing are
//! routed through a learned **default direction**, chosen as whichever side
//! yields the higher gain.

use crate::histogram::NodeHistogram;
use gbdt_data::{BinId, FeatureId};
use serde::{Deserialize, Serialize};

/// Regularization parameters of the gain computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SplitParams {
    /// λ — L2 regularization on leaf weights.
    pub lambda: f64,
    /// γ — per-leaf complexity penalty.
    pub gamma: f64,
    /// Minimum total hessian on each child.
    pub min_child_weight: f64,
}

impl Default for SplitParams {
    fn default() -> Self {
        SplitParams { lambda: 1.0, gamma: 0.0, min_child_weight: 1e-3 }
    }
}

impl SplitParams {
    /// Extracts the split parameters from a training config.
    pub fn from_config(cfg: &crate::config::TrainConfig) -> Self {
        SplitParams {
            lambda: cfg.lambda,
            gamma: cfg.gamma,
            min_child_weight: cfg.min_child_weight,
        }
    }
}

/// Per-class gradient sums of a tree node (or one side of a split).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Per-class first-order sums G.
    pub grads: Vec<f64>,
    /// Per-class second-order sums H.
    pub hesses: Vec<f64>,
}

impl NodeStats {
    /// Zeroed stats for C classes.
    pub fn zero(n_outputs: usize) -> Self {
        NodeStats { grads: vec![0.0; n_outputs], hesses: vec![0.0; n_outputs] }
    }

    /// Number of classes C.
    pub fn n_outputs(&self) -> usize {
        self.grads.len()
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &NodeStats) {
        for (a, b) in self.grads.iter_mut().zip(&other.grads) {
            *a += b;
        }
        for (a, b) in self.hesses.iter_mut().zip(&other.hesses) {
            *a += b;
        }
    }

    /// Element-wise difference (`self − other`), e.g. missing = node − present.
    pub fn sub(&self, other: &NodeStats) -> NodeStats {
        NodeStats {
            grads: self.grads.iter().zip(&other.grads).map(|(a, b)| a - b).collect(),
            hesses: self.hesses.iter().zip(&other.hesses).map(|(a, b)| a - b).collect(),
        }
    }

    /// Total hessian across classes (used for `min_child_weight`).
    pub fn total_hess(&self) -> f64 {
        self.hesses.iter().sum()
    }

    /// The structure score `Σ_c G_c² / (H_c + λ)` (twice the negated loss
    /// contribution of Eq. 1).
    pub fn score(&self, lambda: f64) -> f64 {
        self.grads
            .iter()
            .zip(&self.hesses)
            .map(|(&g, &h)| g * g / (h + lambda))
            .sum()
    }

    /// Optimal leaf weights `w*_c = −G_c / (H_c + λ)` (Eq. 1).
    pub fn leaf_weights(&self, lambda: f64) -> Vec<f64> {
        self.grads
            .iter()
            .zip(&self.hesses)
            .map(|(&g, &h)| -g / (h + lambda))
            .collect()
    }

    /// Exact wire encoding (LE f64s after a class-count header).
    pub fn encode_bytes(&self) -> Vec<u8> {
        let c = self.grads.len();
        let mut out = Vec::with_capacity(4 + c * 16);
        out.extend_from_slice(&(c as u32).to_le_bytes());
        for v in self.grads.iter().chain(&self.hesses) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Decodes [`Self::encode_bytes`] output; `None` for any other bytes.
    pub fn decode_bytes(bytes: &[u8]) -> Option<Self> {
        let (head, payload) = bytes.split_first_chunk::<4>()?;
        let c = u32::from_le_bytes(*head) as usize;
        if payload.len() != c.checked_mul(16)? {
            return None;
        }
        let mut grads: Vec<f64> =
            payload.as_chunks::<8>().0.iter().map(|w| f64::from_le_bytes(*w)).collect();
        let hesses = grads.split_off(c);
        Some(NodeStats { grads, hesses })
    }
}

/// A candidate split of one tree node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Split {
    /// Split feature. Trainers working on vertical shards initially set the
    /// group-local id and translate to the global id before exchanging
    /// local bests (§4.2.2: "the master needs to recover the original
    /// feature afterwards").
    pub feature: FeatureId,
    /// Instances with bin ≤ this value go left.
    pub bin: BinId,
    /// Where instances missing the feature go.
    pub default_left: bool,
    /// Split gain (Eq. 2).
    pub gain: f64,
    /// Gradient sums of the left child (missing side included).
    pub left: NodeStats,
    /// Gradient sums of the right child (missing side included).
    pub right: NodeStats,
}

/// The scalar part of a split candidate — everything the preference order
/// looks at. The scan compares candidates by this key alone and builds a
/// [`Split`] only for the winner.
#[derive(Debug, Clone, Copy)]
struct SplitKey {
    gain: f64,
    feature: FeatureId,
    bin: BinId,
    default_left: bool,
}

impl SplitKey {
    /// Tolerance below which two gains are considered tied. Quadrants sum
    /// the same per-instance gradients in different orders (horizontal
    /// trainers reduce per-worker partials, vertical trainers sum whole
    /// columns), so mathematically equal gains — e.g. two correlated
    /// features inducing the identical partition — can differ by a few ulps
    /// (observed ≲1e-13 relative). Treating near-equal gains as ties and
    /// resolving them by the (feature, bin, default) key keeps every
    /// trainer's choice identical despite that rounding noise; genuinely
    /// distinct candidates differ by far more than this.
    const GAIN_TIE_REL: f64 = 1e-9;
    const GAIN_TIE_ABS: f64 = 1e-12;

    /// The preference order documented on [`Split::better_than`]. The
    /// tolerance makes it non-transitive, so every caller folds candidates
    /// in one fixed order.
    fn better_than(&self, other: &SplitKey) -> bool {
        let tol = Self::GAIN_TIE_ABS + Self::GAIN_TIE_REL * self.gain.abs().max(other.gain.abs());
        let ties = (self.gain - other.gain).abs() <= tol;
        if !ties {
            return self.gain > other.gain;
        }
        if self.feature != other.feature {
            return self.feature < other.feature;
        }
        if self.bin != other.bin {
            return self.bin < other.bin;
        }
        self.default_left && !other.default_left
    }
}

impl Split {
    fn key(&self) -> SplitKey {
        SplitKey {
            gain: self.gain,
            feature: self.feature,
            bin: self.bin,
            default_left: self.default_left,
        }
    }

    /// Deterministic preference order: larger gain wins; (near-)ties break
    /// toward the smaller feature id, then the smaller bin, then default
    /// left. Every trainer uses this single comparison, which is what makes
    /// all quadrants grow identical trees on equivalent histograms.
    pub fn better_than(&self, other: &Split) -> bool {
        self.key().better_than(&other.key())
    }

    /// Exact wire encoding for best-split exchange.
    pub fn encode_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(15 + 2 * (4 + self.left.grads.len() * 16));
        out.extend_from_slice(&self.feature.to_le_bytes());
        out.extend_from_slice(&self.bin.to_le_bytes());
        out.push(u8::from(self.default_left));
        out.extend_from_slice(&self.gain.to_le_bytes());
        let left = self.left.encode_bytes();
        let right = self.right.encode_bytes();
        out.extend_from_slice(&(left.len() as u32).to_le_bytes());
        out.extend_from_slice(&left);
        out.extend_from_slice(&right);
        out
    }

    /// Decodes [`Self::encode_bytes`] output; `None` for any other bytes,
    /// including a frame whose two sides disagree on the class count.
    pub fn decode_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 19 {
            return None;
        }
        let feature = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
        let bin = u16::from_le_bytes(bytes[4..6].try_into().ok()?);
        let default_left = bytes[6] != 0;
        let gain = f64::from_le_bytes(bytes[7..15].try_into().ok()?);
        let left_len = u32::from_le_bytes(bytes[15..19].try_into().ok()?) as usize;
        let left_end = 19usize.checked_add(left_len)?;
        let left = NodeStats::decode_bytes(bytes.get(19..left_end)?)?;
        let right = NodeStats::decode_bytes(bytes.get(left_end..)?)?;
        if left.n_outputs() != right.n_outputs() {
            return None;
        }
        Some(Split { feature, bin, default_left, gain, left, right })
    }
}

/// Finds the best split of one feature from its histogram slice.
///
/// `node` holds the full gradient sums of the node (including instances with
/// missing values for this feature); the missing mass is `node −
/// feature_totals` and is tried on both sides.
pub fn best_split_for_feature(
    hist: &NodeHistogram,
    feature: FeatureId,
    n_bins: usize,
    node: &NodeStats,
    params: &SplitParams,
) -> Option<Split> {
    let search = Search::new(hist, node, params);
    let mut scratch = Scratch::new(hist.n_outputs());
    let key = search.feature_best(&mut scratch, feature, n_bins)?;
    Some(search.split(&mut scratch, feature, key))
}

/// Running sums of one feature's scan, one `[g, h]` pair per class like a
/// histogram bin: the present totals, the missing mass and the left
/// prefix. One scratch serves every feature of a search (or of one
/// parallel chunk).
struct Scratch {
    present: Vec<[f64; 2]>,
    missing: Vec<[f64; 2]>,
    left: Vec<[f64; 2]>,
}

impl Scratch {
    fn new(n_outputs: usize) -> Self {
        let zeros = vec![[0.0; 2]; n_outputs];
        Scratch { present: zeros.clone(), missing: zeros.clone(), left: zeros }
    }

    /// Starts a feature: sums all of its histogram bins into `present` (as
    /// [`NodeHistogram::feature_totals`] does), sets `missing = node −
    /// present` and clears the left prefix.
    fn start(&mut self, bins: &[[f64; 2]], node: &NodeStats) {
        self.present.fill([0.0; 2]);
        for bin in bins.chunks_exact(self.present.len()) {
            for (p, v) in self.present.iter_mut().zip(bin) {
                p[0] += v[0];
                p[1] += v[1];
            }
        }
        let node_pairs = node.grads.iter().zip(&node.hesses);
        for ((m, p), (g, h)) in self.missing.iter_mut().zip(&self.present).zip(node_pairs) {
            *m = [g - p[0], h - p[1]];
        }
        self.left.fill([0.0; 2]);
    }

    /// Moves one bin into the left prefix.
    #[inline]
    fn push_bin(&mut self, bin: &[[f64; 2]]) {
        for (l, v) in self.left.iter_mut().zip(bin) {
            l[0] += v[0];
            l[1] += v[1];
        }
    }

    /// Per class, the child sums of a split after the current prefix, as
    /// `[direction][side]` `[g, h]` pairs: direction 0 sends the missing
    /// mass left (`left + missing | present − left`), direction 1 right
    /// (`left | (present − left) + missing`).
    #[inline]
    fn children(&self) -> impl Iterator<Item = [[[f64; 2]; 2]; 2]> + '_ {
        let triples = self.left.iter().zip(&self.present).zip(&self.missing);
        triples.map(|((l, p), m)| {
            let right = [p[0] - l[0], p[1] - l[1]];
            [[[l[0] + m[0], l[1] + m[1]], right], [*l, [right[0] + m[0], right[1] + m[1]]]]
        })
    }
}

/// One node's split search: the histogram, the node's sums and its score.
/// Shared read-only by every thread of a parallel search.
struct Search<'a> {
    hist: &'a NodeHistogram,
    node: &'a NodeStats,
    params: &'a SplitParams,
    node_score: f64,
}

impl<'a> Search<'a> {
    fn new(hist: &'a NodeHistogram, node: &'a NodeStats, params: &'a SplitParams) -> Self {
        debug_assert_eq!(node.n_outputs(), hist.n_outputs(), "node/histogram class mismatch");
        Search { hist, node, params, node_score: node.score(params.lambda) }
    }

    /// Feature `feature`'s `[bin][class]` pairs in the histogram.
    fn bins(&self, feature: FeatureId) -> &'a [[f64; 2]] {
        let stride = self.hist.feature_stride();
        let start = feature as usize * stride;
        self.hist.as_slice()[start..start + stride].as_chunks::<2>().0
    }

    /// The gains of splitting after the current prefix with missing values
    /// sent left and right (the directions of [`Scratch::children`]); `None`
    /// where a child is too light or the gain is not positive. Per-class
    /// terms fold in class order from `-0.0`, exactly as `Iterator::sum`
    /// in [`NodeStats::total_hess`] and [`NodeStats::score`] does.
    #[inline]
    fn gains(&self, scratch: &Scratch) -> [Option<f64>; 2] {
        let lambda = self.params.lambda;
        let mut hess = [[-0.0; 2]; 2];
        let mut score = [[-0.0; 2]; 2];
        for [[ll, lr], [rl, rr]] in scratch.children() {
            hess[0][0] += ll[1];
            hess[0][1] += lr[1];
            hess[1][0] += rl[1];
            hess[1][1] += rr[1];
            score[0][0] += ll[0] * ll[0] / (ll[1] + lambda);
            score[0][1] += lr[0] * lr[0] / (lr[1] + lambda);
            score[1][0] += rl[0] * rl[0] / (rl[1] + lambda);
            score[1][1] += rr[0] * rr[0] / (rr[1] + lambda);
        }
        [self.gain(hess[0], score[0]), self.gain(hess[1], score[1])]
    }

    /// The gain of one candidate from its children's hessian totals and
    /// scores, `None` if a child is too light or the gain is not positive.
    #[inline]
    fn gain(&self, hess: [f64; 2], score: [f64; 2]) -> Option<f64> {
        let min = self.params.min_child_weight;
        if hess[0] < min || hess[1] < min {
            return None;
        }
        let gain = 0.5 * (score[0] + score[1] - self.node_score) - self.params.gamma;
        if gain <= 0.0 {
            None
        } else {
            Some(gain)
        }
    }

    /// The first `n` bins of feature `feature`, ascending, as `(b, bin)`,
    /// leaving out every all-zero bin after the first. Such a bin leaves the
    /// left prefix as it is, so its two candidates would repeat the previous
    /// bin's gains bit for bit. A repeat loses to the candidate it repeats
    /// (equal gain, larger bin) and to whatever beat that one, so it never
    /// changes the running best; `tests/split_oracle.rs` checks this.
    fn prefix_bins(
        &self,
        feature: FeatureId,
        n: usize,
    ) -> impl Iterator<Item = (usize, &'a [[f64; 2]])> {
        let bins = self.bins(feature).chunks_exact(self.node.n_outputs()).take(n).enumerate();
        bins.filter(|(b, bin)| *b == 0 || bin.iter().any(|&[g, h]| g != 0.0 || h != 0.0))
    }

    /// The scan: the best candidate of one feature, visiting bins in
    /// ascending order and `default_left = true` before `false`. Split after
    /// bin b (bins 0..=b left); the last bin never splits.
    fn feature_best(
        &self,
        scratch: &mut Scratch,
        feature: FeatureId,
        n_bins: usize,
    ) -> Option<SplitKey> {
        if n_bins < 2 {
            return None;
        }
        debug_assert!(n_bins <= self.hist.n_bins(), "feature has more bins than the histogram");
        scratch.start(self.bins(feature), self.node);
        let mut best: Option<SplitKey> = None;
        for (b, bin) in self.prefix_bins(feature, n_bins - 1) {
            scratch.push_bin(bin);
            for (gain, default_left) in self.gains(scratch).into_iter().zip([true, false]) {
                if let Some(gain) = gain {
                    let candidate = SplitKey { gain, feature, bin: b as BinId, default_left };
                    if best.is_none_or(|cur| candidate.better_than(&cur)) {
                        best = Some(candidate);
                    }
                }
            }
        }
        best
    }

    /// Materializes the winning candidate `key` of local feature `feature`,
    /// redoing the winner's prefix so its child sums come out of the same
    /// additions the scan made.
    fn split(&self, scratch: &mut Scratch, feature: FeatureId, key: SplitKey) -> Split {
        scratch.start(self.bins(feature), self.node);
        for (_, bin) in self.prefix_bins(feature, key.bin as usize + 1) {
            scratch.push_bin(bin);
        }
        let c = self.node.n_outputs();
        let (mut left, mut right) = (NodeStats::zero(c), NodeStats::zero(c));
        let direction = usize::from(!key.default_left);
        for (k, children) in scratch.children().enumerate() {
            let [[lg, lh], [rg, rh]] = children[direction];
            (left.grads[k], left.hesses[k], right.grads[k], right.hesses[k]) = (lg, lh, rg, rh);
        }
        Split {
            feature: key.feature,
            bin: key.bin,
            default_left: key.default_left,
            gain: key.gain,
            left,
            right,
        }
    }
}

/// Folds one feature's best into the running best of a search, in the
/// order every search uses: features ascending.
fn fold_best(
    best: &mut Option<(FeatureId, SplitKey)>,
    local: FeatureId,
    key: Option<SplitKey>,
) {
    if let Some(key) = key {
        if best.is_none_or(|(_, cur)| key.better_than(&cur)) {
            *best = Some((local, key));
        }
    }
}

/// Finds the best split over all features of a histogram.
///
/// `n_bins_of` reports the true bin count of each (local) feature, which may
/// be smaller than the histogram stride; `feature_map` translates local ids
/// to global ids for the returned split.
pub fn best_split(
    hist: &NodeHistogram,
    node: &NodeStats,
    params: &SplitParams,
    n_bins_of: impl Fn(FeatureId) -> usize,
    feature_map: impl Fn(FeatureId) -> FeatureId,
) -> Option<Split> {
    best_split_in_range(hist, 0..hist.n_features() as FeatureId, node, params, n_bins_of, feature_map)
}

/// Finds the best split over a (local) feature subrange of a histogram —
/// the feature-sharded split finding of reduce-scatter / parameter-server
/// aggregation, where each worker only holds aggregated histograms for a
/// slice of the features (§4.1).
pub fn best_split_in_range(
    hist: &NodeHistogram,
    range: std::ops::Range<FeatureId>,
    node: &NodeStats,
    params: &SplitParams,
    n_bins_of: impl Fn(FeatureId) -> usize,
    feature_map: impl Fn(FeatureId) -> FeatureId,
) -> Option<Split> {
    debug_assert!(range.end as usize <= hist.n_features());
    let search = Search::new(hist, node, params);
    let mut scratch = Scratch::new(hist.n_outputs());
    let mut best = None;
    for f in range {
        let key = search.feature_best(&mut scratch, f, n_bins_of(f));
        fold_best(&mut best, f, key.map(|k| SplitKey { feature: feature_map(f), ..k }));
    }
    best.map(|(f, key)| search.split(&mut scratch, f, key))
}

/// Parallel [`best_split_in_range`]: the per-feature scans fan out across
/// `threads` (one scratch per chunk), each feature's best key lands in a
/// feature-indexed slot, and the slots are folded sequentially in
/// ascending feature order. The fold therefore sees the same candidates in
/// the same order as the sequential scan, making the chosen split
/// bit-identical for every thread count.
pub fn best_split_in_range_parallel(
    hist: &NodeHistogram,
    range: std::ops::Range<FeatureId>,
    node: &NodeStats,
    params: &SplitParams,
    n_bins_of: impl Fn(FeatureId) -> usize + Sync,
    feature_map: impl Fn(FeatureId) -> FeatureId + Sync,
    threads: usize,
) -> Option<Split> {
    let len = range.len();
    if threads <= 1 || len < crate::parallel::MIN_PARALLEL_FEATURES {
        return best_split_in_range(hist, range, node, params, n_bins_of, feature_map);
    }
    let start = range.start;
    let search = Search::new(hist, node, params);
    let mut slots: Vec<Option<SplitKey>> = vec![None; len];
    crate::parallel::par_map_slots_with(
        &mut slots,
        threads,
        || Scratch::new(hist.n_outputs()),
        |scratch, k, slot| {
            let f = start + k as FeatureId;
            *slot = search
                .feature_best(scratch, f, n_bins_of(f))
                .map(|key| SplitKey { feature: feature_map(f), ..key });
        },
    );
    let mut best = None;
    for (f, key) in (start..).zip(slots) {
        fold_best(&mut best, f, key);
    }
    best.map(|(f, key)| search.split(&mut Scratch::new(hist.n_outputs()), f, key))
}

/// Parallel [`best_split`] over all features of a histogram.
pub fn best_split_parallel(
    hist: &NodeHistogram,
    node: &NodeStats,
    params: &SplitParams,
    n_bins_of: impl Fn(FeatureId) -> usize + Sync,
    feature_map: impl Fn(FeatureId) -> FeatureId + Sync,
    threads: usize,
) -> Option<Split> {
    best_split_in_range_parallel(
        hist,
        0..hist.n_features() as FeatureId,
        node,
        params,
        n_bins_of,
        feature_map,
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SplitParams {
        SplitParams { lambda: 1.0, gamma: 0.0, min_child_weight: 0.0 }
    }

    /// Node with two clusters: bin 0 has grads +1 (x4), bin 1 has grads -1 (x4).
    fn two_cluster_hist() -> (NodeHistogram, NodeStats) {
        let mut hist = NodeHistogram::new(1, 2, 1);
        let mut node = NodeStats::zero(1);
        for _ in 0..4 {
            hist.add(0, 0, 0, 1.0, 1.0);
            node.grads[0] += 1.0;
            node.hesses[0] += 1.0;
        }
        for _ in 0..4 {
            hist.add(0, 1, 0, -1.0, 1.0);
            node.grads[0] += -1.0;
            node.hesses[0] += 1.0;
        }
        (hist, node)
    }

    #[test]
    fn leaf_weight_matches_equation_1() {
        let stats = NodeStats { grads: vec![4.0], hesses: vec![3.0] };
        assert_eq!(stats.leaf_weights(1.0), vec![-1.0]);
        assert_eq!(stats.score(1.0), 4.0);
    }

    #[test]
    fn gain_matches_equation_2() {
        let (hist, node) = two_cluster_hist();
        let s = best_split_for_feature(&hist, 0, 2, &node, &params()).unwrap();
        assert_eq!(s.bin, 0);
        // GL=4, HL=4; GR=-4, HR=4; G=0, H=8.
        // gain = 0.5*(16/5 + 16/5 - 0) = 3.2
        assert!((s.gain - 3.2).abs() < 1e-12, "gain {}", s.gain);
        assert_eq!(s.left.grads, vec![4.0]);
        assert_eq!(s.right.grads, vec![-4.0]);
    }

    #[test]
    fn gamma_subtracts_from_gain_and_can_veto() {
        let (hist, node) = two_cluster_hist();
        let p = SplitParams { gamma: 1.0, ..params() };
        let s = best_split_for_feature(&hist, 0, 2, &node, &p).unwrap();
        assert!((s.gain - 2.2).abs() < 1e-12);
        let p = SplitParams { gamma: 10.0, ..params() };
        assert!(best_split_for_feature(&hist, 0, 2, &node, &p).is_none());
    }

    #[test]
    fn min_child_weight_vetoes_thin_children() {
        let (hist, node) = two_cluster_hist();
        let p = SplitParams { min_child_weight: 5.0, ..params() };
        assert!(best_split_for_feature(&hist, 0, 2, &node, &p).is_none());
    }

    #[test]
    fn missing_values_choose_best_default_direction() {
        // Present: bin 0 has grad +2 (hess 2), bin 1 grad 0 (hess 1).
        // Missing mass: grad -3, hess 3. Best: split after bin 0 with
        // missing going right (so left is pure positive).
        let mut hist = NodeHistogram::new(1, 2, 1);
        hist.add(0, 0, 0, 2.0, 2.0);
        hist.add(0, 1, 0, 0.0, 1.0);
        let node = NodeStats { grads: vec![-1.0], hesses: vec![6.0] };
        let s = best_split_for_feature(&hist, 0, 2, &node, &params()).unwrap();
        assert!(!s.default_left);
        assert_eq!(s.left.grads, vec![2.0]);
        assert_eq!(s.right.grads, vec![-3.0]);
        assert_eq!(s.right.hesses, vec![4.0]);
    }

    #[test]
    fn no_split_on_uniform_gradients() {
        // All instances identical: any split gives zero gain.
        let mut hist = NodeHistogram::new(1, 2, 1);
        hist.add(0, 0, 0, 1.0, 1.0);
        hist.add(0, 1, 0, 1.0, 1.0);
        let node = NodeStats { grads: vec![2.0], hesses: vec![2.0] };
        assert!(best_split_for_feature(&hist, 0, 2, &node, &params()).is_none());
    }

    #[test]
    fn single_bin_feature_cannot_split() {
        let (hist, node) = two_cluster_hist();
        assert!(best_split_for_feature(&hist, 0, 1, &node, &params()).is_none());
    }

    #[test]
    fn best_split_prefers_highest_gain_feature() {
        // Feature 0 separates weakly, feature 1 perfectly.
        let mut hist = NodeHistogram::new(2, 2, 1);
        hist.add(0, 0, 0, 1.0, 2.0); // mixed
        hist.add(0, 1, 0, -1.0, 2.0);
        hist.add(1, 0, 0, 2.0, 2.0); // pure
        hist.add(1, 1, 0, -2.0, 2.0);
        let node = NodeStats { grads: vec![0.0], hesses: vec![4.0] };
        let s = best_split(&hist, &node, &params(), |_| 2, |f| f + 100).unwrap();
        assert_eq!(s.feature, 101); // remapped global id
    }

    #[test]
    fn tie_breaks_are_deterministic() {
        // Two identical features: the smaller id must win.
        let mut hist = NodeHistogram::new(2, 2, 1);
        for f in 0..2 {
            hist.add(f, 0, 0, 1.0, 1.0);
            hist.add(f, 1, 0, -1.0, 1.0);
        }
        let node = NodeStats { grads: vec![0.0], hesses: vec![2.0] };
        let s = best_split(&hist, &node, &params(), |_| 2, |f| f).unwrap();
        assert_eq!(s.feature, 0);
        let a = Split {
            feature: 1,
            bin: 0,
            default_left: true,
            gain: 1.0,
            left: NodeStats::zero(1),
            right: NodeStats::zero(1),
        };
        let mut b = a.clone();
        b.feature = 2;
        assert!(a.better_than(&b));
        b.feature = 1;
        b.bin = 1;
        assert!(a.better_than(&b));
        b.bin = 0;
        assert!(!a.better_than(&b)); // identical: the incumbent stays (is_none_or fold)
    }

    #[test]
    fn multiclass_gain_sums_classes() {
        let mut hist = NodeHistogram::new(1, 2, 2);
        hist.add_instance(0, 0, &[1.0, -1.0], &[1.0, 1.0]);
        hist.add_instance(0, 1, &[-1.0, 1.0], &[1.0, 1.0]);
        let node = NodeStats { grads: vec![0.0, 0.0], hesses: vec![2.0, 2.0] };
        let s = best_split_for_feature(&hist, 0, 2, &node, &params()).unwrap();
        // Per class: 0.5*(1/2 + 1/2) = 0.5; two classes -> 1.0.
        assert!((s.gain - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_split_matches_sequential_exactly() {
        // Enough features to clear MIN_PARALLEL_FEATURES so the fan-out
        // path actually engages.
        let d = crate::parallel::MIN_PARALLEL_FEATURES + 9;
        let q = 6;
        let mut hist = NodeHistogram::new(d, q, 1);
        let mut node = NodeStats::zero(1);
        for f in 0..d as u32 {
            for b in 0..q as u16 {
                let g = ((f as f64 * 31.0 + b as f64 * 7.0).sin()) * 0.5;
                hist.add(f, b, 0, g, 1.0);
            }
        }
        // Node totals = sums over feature 0 (every feature sees all mass).
        let t = hist.feature_totals(0);
        node.grads[0] = t.grads[0];
        node.hesses[0] = t.hesses[0];
        let p = params();
        let seq = best_split(&hist, &node, &p, |_| q, |f| f);
        for threads in [1usize, 2, 4, 8] {
            let par = best_split_parallel(&hist, &node, &p, |_| q, |f| f, threads);
            assert_eq!(par, seq, "threads={threads}");
        }
        // Subrange variant too.
        let lo = 10u32;
        let hi = d as u32 - 3;
        let seq = best_split_in_range(&hist, lo..hi, &node, &p, |_| q, |f| f + 1000);
        let par =
            best_split_in_range_parallel(&hist, lo..hi, &node, &p, |_| q, |f| f + 1000, 4);
        assert_eq!(par, seq);
    }

    #[test]
    fn stats_and_split_wire_roundtrip() {
        let stats = NodeStats { grads: vec![1.5, -2.5], hesses: vec![0.5, 3.0] };
        assert_eq!(NodeStats::decode_bytes(&stats.encode_bytes()).unwrap(), stats);
        assert!(NodeStats::decode_bytes(&stats.encode_bytes()[..7]).is_none());
        let split = Split {
            feature: 12,
            bin: 7,
            default_left: false,
            gain: 3.25,
            left: stats.clone(),
            right: NodeStats::zero(2),
        };
        assert_eq!(Split::decode_bytes(&split.encode_bytes()).unwrap(), split);
        assert!(Split::decode_bytes(&split.encode_bytes()[..20]).is_none());
    }

    #[test]
    fn hostile_stats_and_split_frames_decode_to_none() {
        let stats = NodeStats { grads: vec![1.5, -2.5], hesses: vec![0.5, 3.0] };
        // A class count of u32::MAX, and a trailing byte.
        let mut huge_c = stats.encode_bytes();
        huge_c[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(NodeStats::decode_bytes(&huge_c).is_none());
        let mut trailing = stats.encode_bytes();
        trailing.push(0);
        assert!(NodeStats::decode_bytes(&trailing).is_none());
        assert_eq!(NodeStats::decode_bytes(&0u32.to_le_bytes()), Some(NodeStats::zero(0)));

        let split = Split {
            feature: 3,
            bin: 1,
            default_left: true,
            gain: 0.5,
            left: stats.clone(),
            right: NodeStats::zero(2),
        };
        let good = split.encode_bytes();
        // Left and right sides over different class counts.
        let mixed = Split { right: NodeStats::zero(3), ..split.clone() };
        assert!(Split::decode_bytes(&mixed.encode_bytes()).is_none());
        // The left-side length at u32::MAX, then the left class count.
        let mut long_left = good.clone();
        long_left[15..19].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Split::decode_bytes(&long_left).is_none());
        let mut left_c = good.clone();
        left_c[19..23].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(Split::decode_bytes(&left_c).is_none());
        let mut trailing = good;
        trailing.push(0);
        assert!(Split::decode_bytes(&trailing).is_none());
    }
}
