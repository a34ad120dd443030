//! Differential test of the sketch's cut search: `candidate_splits`, which
//! sorts the weighted items once and meets all q targets in one walk, must
//! return exactly the cuts the per-φ search it replaced returned — one
//! `quantile` call (and one full sort) per cut — bit for bit.

use gbdt_core::sketch::QuantileSketch;
use proptest::prelude::*;

/// The per-φ search, as it was before the one-walk rewrite.
fn reference_candidate_splits(s: &QuantileSketch, q: usize) -> Vec<f32> {
    if s.is_empty() || q == 0 {
        return Vec::new();
    }
    let max = s.max().expect("non-empty sketch has a max");
    let mut cuts = Vec::with_capacity(q);
    for i in 1..=q {
        let phi = i as f64 / q as f64;
        if let Some(v) = s.quantile(phi) {
            if cuts.last().is_none_or(|&last| v > last) {
                cuts.push(v);
            }
        }
    }
    match cuts.last_mut() {
        Some(last) if *last < max => {
            if cuts.len() < q {
                cuts.push(max);
            } else {
                *cuts.last_mut().expect("non-empty") = max;
            }
        }
        None => cuts.push(max),
        _ => {}
    }
    cuts
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A stream of `n` values over `distinct` levels, with NaNs (ignored by
/// the sketch), signed zeros and repeats, so ties and compaction both
/// happen.
fn stream(state: &mut u64, n: usize, distinct: u64) -> Vec<f32> {
    (0..n)
        .map(|_| match splitmix(state) % 64 {
            0 => f32::NAN,
            1 => -0.0,
            2 => 0.0,
            _ => (splitmix(state) % distinct) as f32 * 0.37 - 3.0,
        })
        .collect()
}

fn bits(cuts: &[f32]) -> Vec<u32> {
    cuts.iter().map(|c| c.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cuts_match_per_phi_quantiles(
        seed in any::<u64>(),
        n in 0usize..4_000,
        capacity in 4usize..80,
        distinct in 1u64..500,
        parts in 1usize..4,
    ) {
        let mut state = seed;
        // Several local sketches merged into one, as workers do.
        let mut sketch = QuantileSketch::new(capacity);
        for _ in 0..parts {
            let mut local = QuantileSketch::new(capacity);
            for v in stream(&mut state, n / parts, distinct) {
                local.insert(v);
            }
            sketch.merge(&local);
        }
        // Inserting only cascades on a level-0 overflow; that is exact only
        // if no level is ever left over capacity, which decoding enforces.
        let decoded = QuantileSketch::decode_bytes(&sketch.encode_bytes());
        prop_assert_eq!(decoded.as_ref(), Some(&sketch));
        for q in [1usize, 2, 3, 7, 20, 64, 255] {
            prop_assert_eq!(
                bits(&sketch.candidate_splits(q)),
                bits(&reference_candidate_splits(&sketch, q)),
                "q = {}", q
            );
        }
    }
}
