//! Differential test of the split scan: the allocation-free scan over
//! borrowed histogram slices must return exactly what the clone-based scan
//! it replaced returned — every field equal and every f64 bit-identical —
//! including on the near-ties where the tolerance-based preference order
//! is not transitive and a different visit order would pick differently.

use gbdt_core::histogram::NodeHistogram;
use gbdt_core::parallel::MIN_PARALLEL_FEATURES;
use gbdt_core::split::{
    best_split_for_feature, best_split_in_range, best_split_in_range_parallel, NodeStats, Split,
    SplitParams,
};
use gbdt_data::{BinId, FeatureId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Adds the pairs of `(feature, bin)` into `stats` (the histogram accessor
/// the clone-based scan used).
fn accumulate_bin(hist: &NodeHistogram, feature: FeatureId, bin: usize, stats: &mut NodeStats) {
    for c in 0..hist.n_outputs() {
        let pair = hist.get(feature, bin as BinId, c);
        stats.grads[c] += pair.grad;
        stats.hesses[c] += pair.hess;
    }
}

/// The clone-based scan, as it was before the allocation-free rewrite.
fn reference_best_split_for_feature(
    hist: &NodeHistogram,
    feature: FeatureId,
    n_bins: usize,
    node: &NodeStats,
    params: &SplitParams,
) -> Option<Split> {
    if n_bins < 2 {
        return None;
    }
    let c = node.n_outputs();
    let present = hist.feature_totals(feature);
    let missing = node.sub(&present);
    let node_score = node.score(params.lambda);

    let mut left_present = NodeStats::zero(c);
    let mut best: Option<Split> = None;

    // Split after bin b (bins 0..=b left); the last bin never splits.
    for b in 0..n_bins - 1 {
        accumulate_bin(hist, feature, b, &mut left_present);
        let right_present = present.sub(&left_present);

        for default_left in [true, false] {
            let (left, right) = if default_left {
                let mut l = left_present.clone();
                l.add(&missing);
                (l, right_present.clone())
            } else {
                let mut r = right_present.clone();
                r.add(&missing);
                (left_present.clone(), r)
            };
            if left.total_hess() < params.min_child_weight
                || right.total_hess() < params.min_child_weight
            {
                continue;
            }
            let gain = 0.5 * (left.score(params.lambda) + right.score(params.lambda) - node_score)
                - params.gamma;
            if gain <= 0.0 {
                continue;
            }
            let candidate = Split { feature, bin: b as BinId, default_left, gain, left, right };
            if best.as_ref().is_none_or(|cur| candidate.better_than(cur)) {
                best = Some(candidate);
            }
        }
    }
    best
}

/// The range fold the clone-based scan used, sequential and parallel alike:
/// per-feature bests folded in ascending feature order.
fn reference_best_split_in_range(
    hist: &NodeHistogram,
    range: std::ops::Range<FeatureId>,
    node: &NodeStats,
    params: &SplitParams,
    n_bins_of: impl Fn(FeatureId) -> usize,
    feature_map: impl Fn(FeatureId) -> FeatureId,
) -> Option<Split> {
    let mut best: Option<Split> = None;
    for f in range {
        if let Some(mut s) = reference_best_split_for_feature(hist, f, n_bins_of(f), node, params) {
            s.feature = feature_map(f);
            if best.as_ref().is_none_or(|cur| s.better_than(cur)) {
                best = Some(s);
            }
        }
    }
    best
}

/// Every f64 of a split as raw bits, so `0.0` vs `-0.0` and NaN payloads
/// count as differences too.
fn bits(split: &Option<Split>) -> Option<(FeatureId, BinId, bool, u64, Vec<u64>)> {
    split.as_ref().map(|s| {
        let sides = [&s.left.grads, &s.left.hesses, &s.right.grads, &s.right.hesses];
        let stats = sides.iter().flat_map(|v| v.iter().map(|x| x.to_bits())).collect();
        (s.feature, s.bin, s.default_left, s.gain.to_bits(), stats)
    })
}

fn assert_identical(
    new: &Option<Split>,
    reference: &Option<Split>,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(new, reference, "{}", what);
    prop_assert_eq!(bits(new), bits(reference), "{} (bits)", what);
    Ok(())
}

/// A random histogram case. Values are drawn from small dyadic grids most
/// of the time, so sums are exact and equal gains (exact ties) are common;
/// many cells are empty, like the deep nodes of sparse data. A share
/// `copies` of the features copy an earlier one (usually the previous one)
/// scaled by `1 + ε`, with ε from 0 to 2× the tie tolerance, so chains of
/// copies hold near-ties that are not transitive: neighbours tie, the
/// ends of the chain do not. Some bins repeat their predecessor, and the
/// missing mass may be tiny, which nearly ties the two default directions.
struct Case {
    hist: NodeHistogram,
    node: NodeStats,
    n_bins: Vec<usize>,
    params: SplitParams,
}

fn make_case(seed: u64, c: usize, d: usize, stride: usize, copies: f64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let dyadic = rng.gen_bool(0.7);
    let empty = [0.0, 0.3, 0.7, 0.9][rng.gen_range(0..4usize)];
    let mut hist = NodeHistogram::new(d, stride, c);
    for f in 0..d as FeatureId {
        if f > 0 && rng.gen_bool(copies) {
            let src = if rng.gen_bool(0.7) { f - 1 } else { rng.gen_range(0..f) };
            let eps = [0.0, 1e-13, 4e-10, 7e-10, 1.5e-9][rng.gen_range(0..5usize)];
            let scale = 1.0 + eps;
            for b in 0..stride as BinId {
                for k in 0..c {
                    let p = hist.get(src, b, k);
                    hist.add(f, b, k, p.grad * scale, p.hess * scale);
                }
            }
            continue;
        }
        for b in 0..stride as BinId {
            if b > 0 && rng.gen_bool(0.1) {
                for k in 0..c {
                    let p = hist.get(f, b - 1, k);
                    hist.add(f, b, k, p.grad, p.hess);
                }
                continue;
            }
            if rng.gen_bool(empty) {
                continue;
            }
            if rng.gen_bool(0.1) {
                // Zero gradient, positive hessian: not an empty bin.
                for k in 0..c {
                    hist.add(f, b, k, 0.0, 0.5);
                }
                continue;
            }
            for k in 0..c {
                let (g, h) = if dyadic {
                    (rng.gen_range(-8i32..=8) as f64 * 0.25, rng.gen_range(0i32..=8) as f64 * 0.5)
                } else {
                    (rng.gen_range(-2.0..2.0), rng.gen_range(0.0..3.0))
                };
                hist.add(f, b, k, g, h);
            }
        }
    }
    // The node holds every feature's present mass plus a missing mass that
    // is zero for some feature only when `extra` is zero.
    let mut node = NodeStats::zero(c);
    for k in 0..c {
        let max_present =
            (0..d as FeatureId).map(|f| hist.feature_totals(f).hesses[k]).fold(0.0, f64::max);
        let extra = [0.0, 1e-9, 0.5, 4.0][rng.gen_range(0..4usize)];
        node.hesses[k] = max_present + extra;
        node.grads[k] = if dyadic {
            rng.gen_range(-16i32..=16) as f64 * 0.25
        } else {
            rng.gen_range(-5.0..5.0)
        };
    }
    // True bin counts: mostly the stride, sometimes fewer.
    let n_bins = (0..d)
        .map(|_| if rng.gen_bool(0.7) { stride } else { rng.gen_range(0..=stride) })
        .collect();
    let params = SplitParams {
        lambda: [0.5, 1.0, 3.0][rng.gen_range(0..3usize)],
        gamma: [0.0, 0.0, 0.0, 0.1, 1.0, 5.0][rng.gen_range(0..6usize)],
        min_child_weight: [0.0, 1e-3, 0.5, 2.0, 10.0][rng.gen_range(0..5usize)],
    };
    Case { hist, node, n_bins, params }
}

const CLASSES: [usize; 4] = [1, 2, 3, 5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Per feature, the scan returns exactly the clone-based scan's split.
    #[test]
    fn feature_scan_matches_reference(
        seed in any::<u64>(),
        class_idx in 0usize..4,
        d in 1usize..6,
        stride in 1usize..10,
    ) {
        let case = make_case(seed, CLASSES[class_idx], d, stride, 0.25);
        for f in 0..d as FeatureId {
            let n_bins = case.n_bins[f as usize];
            let new = best_split_for_feature(&case.hist, f, n_bins, &case.node, &case.params);
            let reference =
                reference_best_split_for_feature(&case.hist, f, n_bins, &case.node, &case.params);
            assert_identical(&new, &reference, &format!("feature {f}, n_bins {n_bins}"))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Over a feature range, sequential and parallel searches return exactly
    /// the clone-based fold's split, duplicated features included.
    #[test]
    fn range_scans_match_reference(
        seed in any::<u64>(),
        class_idx in 0usize..4,
        extra_features in 0usize..20,
        stride in 2usize..7,
        threads in 2usize..4,
    ) {
        let d = MIN_PARALLEL_FEATURES + extra_features;
        let case = make_case(seed, CLASSES[class_idx], d, stride, 0.8);
        let n_bins_of = |f: FeatureId| case.n_bins[f as usize];
        let (hist, node, params) = (&case.hist, &case.node, &case.params);
        // Ties break on the mapped id, which may order features either way.
        let shifted = |f: FeatureId| f + 100;
        let reversed = |f: FeatureId| 1000 - f;
        let maps: [&(dyn Fn(FeatureId) -> FeatureId + Sync); 2] = [&shifted, &reversed];
        for (range, map) in [0..d as FeatureId, 3..d as FeatureId].into_iter().zip(maps) {
            let reference =
                reference_best_split_in_range(hist, range.clone(), node, params, n_bins_of, map);
            let seq = best_split_in_range(hist, range.clone(), node, params, n_bins_of, map);
            assert_identical(&seq, &reference, &format!("sequential {range:?}"))?;
            let par = best_split_in_range_parallel(
                hist, range.clone(), node, params, n_bins_of, map, threads,
            );
            assert_identical(&par, &reference, &format!("{threads} threads {range:?}"))?;
        }
    }
}

/// Two features with bit-equal gains: the smaller (mapped) id wins through
/// every entry point, and a near-tie a few ulps apart resolves the same way.
#[test]
fn equal_gain_features_tie_break_identically() {
    let d = MIN_PARALLEL_FEATURES + 4;
    let mut hist = NodeHistogram::new(d, 4, 3);
    let mut node = NodeStats::zero(3);
    for f in [10u32, 40] {
        let scale = if f == 40 { 1.0 + 1e-14 } else { 1.0 };
        for (b, g) in [(0u16, 1.5), (1, -0.5), (2, -1.0), (3, 0.25)] {
            for k in 0..3 {
                hist.add(f, b, k, g * (k as f64 + 1.0) * scale, 1.0 * scale);
            }
        }
    }
    for k in 0..3 {
        node.grads[k] = 0.5;
        node.hesses[k] = 6.0;
    }
    let params = SplitParams { lambda: 1.0, gamma: 0.0, min_child_weight: 0.0 };
    let n_bins_of = |_| 4;
    let all = 0..d as FeatureId;
    let reference =
        reference_best_split_in_range(&hist, all.clone(), &node, &params, n_bins_of, |f| f);
    assert_eq!(reference.as_ref().map(|s| s.feature), Some(10));
    let seq = best_split_in_range(&hist, all.clone(), &node, &params, n_bins_of, |f| f);
    assert_eq!(bits(&seq), bits(&reference));
    for threads in [2, 3, 8] {
        let par = best_split_in_range_parallel(
            &hist,
            all.clone(),
            &node,
            &params,
            n_bins_of,
            |f| f,
            threads,
        );
        assert_eq!(bits(&par), bits(&reference), "threads={threads}");
    }
}
