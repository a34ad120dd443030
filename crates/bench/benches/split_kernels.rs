//! Micro-benchmark of best-split search (§2.1.2, Eq. 2): the O(D·q·C) scan
//! over a node histogram at the `train-wide` shape, D = 1 000 features ×
//! q = 20 bins, for C ∈ {1, 3}, with a missing mass on every feature so
//! both default directions are live.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbdt_core::histogram::NodeHistogram;
use gbdt_core::split::{best_split_in_range, NodeStats, SplitParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const D: usize = 1_000;
const Q: usize = 20;

/// A histogram of random per-bin sums and a node whose totals exceed every
/// feature's by a fixed missing mass.
fn node_histogram(c: usize, seed: u64) -> (NodeHistogram, NodeStats) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hist = NodeHistogram::new(D, Q, c);
    let mut node = NodeStats::zero(c);
    for k in 0..c {
        node.grads[k] = rng.gen_range(-50.0..50.0);
        node.hesses[k] = 400.0;
    }
    for f in 0..D as u32 {
        for b in 0..Q as u16 {
            for k in 0..c {
                hist.add(f, b, k, rng.gen_range(-2.0..2.0), rng.gen_range(0.0..15.0));
            }
        }
    }
    (hist, node)
}

fn bench_best_split(c: &mut Criterion) {
    let params = SplitParams { lambda: 1.0, gamma: 0.0, min_child_weight: 1.0 };
    let mut group = c.benchmark_group("best_split_in_range");
    for classes in [1usize, 3] {
        let (hist, node) = node_histogram(classes, 7);
        group.bench_function(BenchmarkId::new(format!("d{D}_q{Q}"), format!("c{classes}")), |b| {
            b.iter(|| {
                black_box(best_split_in_range(&hist, 0..D as u32, &node, &params, |_| Q, |f| f))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_best_split
}
criterion_main!(benches);
