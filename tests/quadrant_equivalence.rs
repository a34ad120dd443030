//! Cross-quadrant equivalence: the central invariant of the reproduction.
//!
//! All four quadrants (plus the Yggdrasil and feature-parallel variants)
//! implement the same GBDT mathematics over the same binned data — they must
//! grow the same ensembles, differing only in cost. These tests pin that
//! property across worker counts, objectives, and shapes.

use gbdt_cluster::Cluster;
use gbdt_core::{Objective, TrainConfig};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::Dataset;
use gbdt_quadrants::{featpar, qd1, qd2, qd3, qd4, single, yggdrasil, Aggregation, DistTrainResult};

fn dataset(n: usize, d: usize, classes: usize, density: f64, seed: u64) -> Dataset {
    SyntheticConfig {
        n_instances: n,
        n_features: d,
        n_classes: classes,
        density,
        label_noise: 0.02,
        seed,
        ..Default::default()
    }
    .generate()
}

fn config(classes: usize, trees: usize, layers: usize) -> TrainConfig {
    let objective =
        if classes > 2 { Objective::Softmax { n_classes: classes } } else { Objective::Logistic };
    TrainConfig::builder()
        .n_trees(trees)
        .n_layers(layers)
        .objective(objective)
        .build()
        .unwrap()
}

fn assert_same_predictions(ds: &Dataset, a: &gbdt_core::GbdtModel, b: &gbdt_core::GbdtModel, tag: &str) {
    let pa = a.predict_dataset_raw(ds);
    let pb = b.predict_dataset_raw(ds);
    for (i, (x, y)) in pa.iter().zip(&pb).enumerate() {
        assert!(
            (x - y).abs() < 1e-6,
            "{tag}: prediction {i} diverged: {x} vs {y}"
        );
    }
}

#[test]
fn all_quadrants_grow_identical_ensembles_binary() {
    let ds = dataset(1_000, 18, 2, 0.5, 1001);
    let cfg = config(2, 5, 5);
    let cluster = Cluster::new(3);
    let m1 = qd1::train(&cluster, &ds, &cfg).model;
    let m2 = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce).model;
    let m2rs = qd2::train(&cluster, &ds, &cfg, Aggregation::ReduceScatter).model;
    let m3 = qd3::train(&cluster, &ds, &cfg).model;
    let m4 = qd4::train(&cluster, &ds, &cfg).model;
    let mygg = yggdrasil::train(&cluster, &ds, &cfg).model;
    assert_same_predictions(&ds, &m1, &m2, "qd1-vs-qd2");
    assert_same_predictions(&ds, &m2, &m2rs, "qd2ar-vs-qd2rs");
    assert_same_predictions(&ds, &m2, &m3, "qd2-vs-qd3");
    assert_same_predictions(&ds, &m3, &m4, "qd3-vs-qd4");
    assert_same_predictions(&ds, &m4, &mygg, "qd4-vs-yggdrasil");
}

#[test]
fn all_quadrants_agree_multiclass() {
    let ds = dataset(900, 15, 4, 0.5, 1009);
    let cfg = config(4, 4, 4);
    let cluster = Cluster::new(2);
    let m1 = qd1::train(&cluster, &ds, &cfg).model;
    let m2 = qd2::train(&cluster, &ds, &cfg, Aggregation::ParameterServer).model;
    let m4 = qd4::train(&cluster, &ds, &cfg).model;
    assert_same_predictions(&ds, &m1, &m2, "qd1-vs-qd2ps");
    assert_same_predictions(&ds, &m2, &m4, "qd2ps-vs-qd4");
}

#[test]
fn agreement_holds_across_worker_counts() {
    // For each W, the trainers agree among themselves (cuts depend on the
    // sketch merge tree, so cross-W comparisons are not expected).
    let ds = dataset(700, 12, 2, 0.6, 1013);
    let cfg = config(2, 3, 5);
    for workers in [1usize, 2, 4, 5] {
        let cluster = Cluster::new(workers);
        let m2 = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce).model;
        let m4 = qd4::train(&cluster, &ds, &cfg).model;
        assert_same_predictions(&ds, &m2, &m4, &format!("W={workers}"));
    }
}

/// The world-1 oracle: with one worker, every trainer's sketch is the
/// single-node sketch, so it must grow exactly the reference ensemble —
/// bit for bit, not just matching predictions. QD1 is excluded: it builds
/// every histogram from scratch (no subtraction), so its float sums
/// legitimately differ in the last bits (`FP_QD1 != FP_SINGLE` in
/// `ensemble_pinned.rs`).
#[test]
fn one_worker_matches_the_single_node_oracle_exactly() {
    type Trainer = fn(&Cluster, &Dataset, &TrainConfig) -> DistTrainResult;
    let trainers: [(&str, Trainer); 7] = [
        ("qd2-all-reduce", |c, d, t| qd2::train(c, d, t, Aggregation::AllReduce)),
        ("qd2-reduce-scatter", |c, d, t| qd2::train(c, d, t, Aggregation::ReduceScatter)),
        ("qd2-parameter-server", |c, d, t| qd2::train(c, d, t, Aggregation::ParameterServer)),
        ("qd3", qd3::train),
        ("qd4", qd4::train),
        ("yggdrasil", yggdrasil::train),
        ("featpar", featpar::train),
    ];
    for classes in [2, 3] {
        let ds = dataset(700, 12, classes, 0.5, 1049 + classes as u64);
        let cfg = config(classes, 6, 5);
        let reference = single::train(&ds, &cfg);
        for (name, train) in trainers {
            let model = train(&Cluster::new(1), &ds, &cfg).model;
            assert!(model == reference, "{name}, {classes} classes: differs from single::train");
        }
    }
}

#[test]
fn feature_parallel_matches_single_node_exactly() {
    // The replica mode computes single-node cuts, so it is exact vs the
    // reference regardless of W.
    let ds = dataset(800, 14, 2, 0.5, 1019);
    let cfg = config(2, 4, 5);
    let reference = gbdt_quadrants::single::train(&ds, &cfg);
    for workers in [2usize, 3, 5] {
        let fp = featpar::train(&Cluster::new(workers), &ds, &cfg).model;
        assert_same_predictions(&ds, &reference, &fp, &format!("featpar W={workers}"));
    }
}

#[test]
fn dense_datasets_agree_too() {
    let ds = SyntheticConfig {
        n_instances: 600,
        n_features: 12,
        n_classes: 2,
        dense: true,
        seed: 1021,
        ..Default::default()
    }
    .generate();
    let cfg = config(2, 3, 4);
    let cluster = Cluster::new(2);
    let m2 = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce).model;
    let m4 = qd4::train(&cluster, &ds, &cfg).model;
    assert_same_predictions(&ds, &m2, &m4, "dense");
}

#[test]
fn deep_trees_agree() {
    let ds = dataset(1_500, 10, 2, 0.7, 1031);
    let cfg = config(2, 2, 9);
    let cluster = Cluster::new(3);
    let m2 = qd2::train(&cluster, &ds, &cfg, Aggregation::AllReduce).model;
    let m4 = qd4::train(&cluster, &ds, &cfg).model;
    assert_same_predictions(&ds, &m2, &m4, "deep");
}
