//! The two training workloads: `train-wide` (Vero, QD4) and `train-tall`
//! (LightGBM, QD2 with reduce-scatter).
//!
//! Each run generates the workload's LIBSVM bytes from the seed (untimed),
//! then fits the ensemble repeatedly until the run's time is spent. Before
//! every fit it ingests the bytes once more with `libsvm::read_from`; the
//! median ingest is the set-up time, and spreading the ingests over the run
//! exposes them to the same machine noise as the fits. Every
//! fit must produce the same model; the model must agree with a second
//! quadrant trained on the same data, and, for the pinned seeds, with the
//! pinned fingerprint and quality.

use crate::trace::Tracer;
use crate::util::{fnv1a, median, median_index, peak_rss_mb, quantile, reset_peak_rss, timed};
use crate::Report;
use bytes::Bytes;
use gbdt_cluster::stats::ClusterStats;
use gbdt_cluster::{Cluster, Phase, WireCodec};
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::split::{best_split, NodeStats, SplitParams};
use gbdt_core::{
    kernels, BinCuts, GbdtModel, GradBuffer, Kernel, NodeHistogram, Objective, Storage, TrainConfig,
};
use gbdt_data::synthetic::SyntheticConfig;
use gbdt_data::{libsvm, Dataset};
use gbdt_partition::transform::{horizontal_to_vertical, TransformConfig};
use gbdt_partition::{HorizontalPartition, PlacementBitmap};
use gbdt_quadrants::common::shard_dataset;
use gbdt_quadrants::{qd2, qd4, Aggregation, DistTrainResult};
use std::time::Instant;

/// Which trainer a workload measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trainer {
    /// `qd4::train`: vertical partitioning, row store (Vero).
    Vero,
    /// `qd2::train` with reduce-scatter: horizontal partitioning, row
    /// store (LightGBM).
    LightGbm,
}

/// Shape and settings of one training workload.
#[derive(Debug, Clone)]
pub struct TrainSpec {
    /// Workload name.
    pub name: &'static str,
    /// Instances N before the 80/20 train/validation split.
    pub n: usize,
    /// Features D.
    pub d: usize,
    /// Stored-value density (ignored when `dense`).
    pub density: f64,
    /// Every feature present in every row.
    pub dense: bool,
    /// Classes (2 = binary logistic, more = softmax).
    pub classes: usize,
    /// Trees T.
    pub trees: usize,
    /// Layers L.
    pub layers: usize,
    /// Candidate splits q.
    pub bins: usize,
    /// Simulated workers W.
    pub workers: usize,
    /// Trainer under measurement.
    pub trainer: Trainer,
    /// Fits made even when the time budget runs out first.
    pub min_fits: usize,
    /// Trees of the cross-quadrant reference fit.
    pub reference_trees: usize,
    /// Repetitions of each per-call probe (median reported).
    pub probe_reps: usize,
    /// Check the model against `pins.json` (which pins full-size inputs).
    pub pinned: bool,
}

impl TrainSpec {
    /// Sparse, high-dimensional, multi-class: the regime Vero wins.
    pub fn wide() -> Self {
        TrainSpec {
            name: "train-wide",
            n: 25_000,
            d: 2_000,
            density: 0.05,
            dense: false,
            classes: 3,
            trees: 6,
            layers: 8,
            bins: 20,
            workers: 2,
            trainer: Trainer::Vero,
            min_fits: 3,
            reference_trees: 2,
            probe_reps: 5,
            pinned: true,
        }
    }

    /// Dense, tall, low-dimensional, binary: the regime LightGBM wins.
    pub fn tall() -> Self {
        TrainSpec {
            name: "train-tall",
            n: 400_000,
            d: 16,
            density: 1.0,
            dense: true,
            classes: 2,
            trees: 30,
            layers: 8,
            bins: 20,
            workers: 2,
            trainer: Trainer::LightGbm,
            min_fits: 3,
            reference_trees: 2,
            probe_reps: 5,
            pinned: true,
        }
    }

    /// The same code path at a size that runs in well under a second.
    pub fn toy(mut self) -> Self {
        self.n = 1_200;
        self.d = self.d.min(60);
        self.trees = 3;
        self.layers = 4;
        self.min_fits = 2;
        self.probe_reps = 2;
        self.pinned = false;
        self
    }

    fn objective(&self) -> Objective {
        if self.classes > 2 {
            Objective::Softmax {
                n_classes: self.classes,
            }
        } else {
            Objective::Logistic
        }
    }

    fn config(&self, trees: usize) -> TrainConfig {
        TrainConfig::builder()
            .n_trees(trees)
            .n_layers(self.layers)
            .n_bins(self.bins)
            .objective(self.objective())
            .threads(1)
            .storage(Storage::Auto)
            .kernel(Kernel::Simd)
            .build()
            .expect("workload config is valid")
    }

    /// The seed-determined LIBSVM bytes the program ingests.
    pub fn libsvm_bytes(&self, seed: u64) -> Vec<u8> {
        let dataset = SyntheticConfig {
            n_instances: self.n,
            n_features: self.d,
            n_classes: self.classes,
            density: self.density,
            dense: self.dense,
            seed,
            name: self.name.into(),
            ..SyntheticConfig::default()
        }
        .generate();
        let mut bytes = Vec::new();
        libsvm::write_to(&mut bytes, &dataset).expect("writing to memory cannot fail");
        bytes
    }
}

fn train_once(
    trainer: Trainer,
    cluster: &Cluster,
    data: &Dataset,
    cfg: &TrainConfig,
) -> DistTrainResult {
    match trainer {
        Trainer::Vero => qd4::train(cluster, data, cfg),
        Trainer::LightGbm => qd2::train(cluster, data, cfg, Aggregation::ReduceScatter),
    }
}

fn trainer_span(trainer: Trainer) -> &'static str {
    match trainer {
        Trainer::Vero => "qd4::train",
        Trainer::LightGbm => "qd2::train",
    }
}

/// One measured fit.
struct Fit {
    wall_s: f64,
    fingerprint: u64,
    stats: ClusterStats,
    /// Per-tree compute seconds of the slowest worker.
    tree_s: Vec<f64>,
}

/// Pinned fingerprint and quality of one workload at one seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pin {
    /// FNV-1a of `GbdtModel::encode_bytes`.
    pub fingerprint: u64,
    /// Exact validation AUC or accuracy.
    pub quality: f64,
}

/// Looks up the pin of `workload` at `seed` in `pins.json`.
pub fn pin_for(workload: &str, seed: u64) -> Option<Pin> {
    let pins: serde_json::Value =
        serde_json::from_str(include_str!("../pins.json")).expect("pins.json is valid JSON");
    let entry = pins.get("pins")?.get(workload)?.get(&seed.to_string())?;
    let fingerprint = entry.get("fingerprint")?.as_str()?.strip_prefix("0x")?;
    Some(Pin {
        fingerprint: u64::from_str_radix(fingerprint, 16).ok()?,
        quality: entry.get("quality")?.as_f64()?,
    })
}

/// Internal nodes over all trees: the splits the ensemble made.
fn nodes_split(model: &GbdtModel) -> usize {
    model.trees.iter().map(|t| t.n_nodes() - t.n_leaves()).sum()
}

/// Runs one training workload for `seconds` and fills `report`.
pub fn run(spec: &TrainSpec, seed: u64, seconds: f64, tracer: &mut Tracer, report: &mut Report) {
    let bytes = tracer.span("libsvm::write_to", |_| spec.libsvm_bytes(seed));

    let mut ingest_s = Vec::new();
    let mut ingest = |tracer: &mut Tracer| {
        let (ds, s) = timed(|| {
            tracer.span("libsvm::read_from", |_| {
                libsvm::read_from(&bytes[..], spec.classes, Some(spec.d), spec.name)
            })
        });
        ingest_s.push(s);
        ds.expect("generated LIBSVM bytes parse")
    };
    let dataset = ingest(tracer);
    let (train, valid) = tracer.span("Dataset::split_validation", |_| {
        dataset.split_validation(0.2)
    });
    drop(dataset);

    let cfg = spec.config(spec.trees);
    let cluster = Cluster::new(spec.workers);
    let mut fits: Vec<Fit> = Vec::new();
    let mut model = None;
    let mut peak_mb = None;
    let rss_before = reset_peak_rss();
    let start = Instant::now();
    while fits.len() < spec.min_fits || start.elapsed().as_secs_f64() < seconds {
        if !fits.is_empty() {
            drop(ingest(tracer));
        }
        let (result, wall_s) = timed(|| {
            tracer.span(trainer_span(spec.trainer), |_| {
                train_once(spec.trainer, &cluster, &train, &cfg)
            })
        });
        let encoded = tracer.span("GbdtModel::encode_bytes", |_| result.model.encode_bytes());
        let tree_s = result.per_tree.iter().map(|t| t.comp_seconds).collect();
        fits.push(Fit {
            wall_s,
            fingerprint: fnv1a(&encoded),
            stats: result.stats,
            tree_s,
        });
        model.get_or_insert(result.model);
        // Memory of the first fit: later fits only add allocator
        // fragmentation from repeating the fit, which no user pays.
        peak_mb.get_or_insert_with(|| peak_rss_mb() - rss_before);
    }
    drop(bytes);
    let peak_mb = peak_mb.expect("at least one fit");
    let model = model.expect("at least one fit");

    // Correctness: every fit has the pinned fingerprint (the first fit's
    // when the seed is not pinned), and the model agrees with another
    // quadrant.
    let pin = pin_for(spec.name, seed).filter(|_| spec.pinned);
    let fingerprint = fits[0].fingerprint;
    let expected = pin.map_or(fingerprint, |p| p.fingerprint);
    let failed = fits.iter().filter(|f| f.fingerprint != expected).count();
    if failed > 0 {
        report.fail(format!(
            "{failed} of {} fits have a fingerprint other than {expected:#018x}",
            fits.len()
        ));
    }
    let quality = tracer.span("GbdtModel::evaluate", |_| model.evaluate(&valid).headline());
    if let Some(pin) = pin.filter(|p| p.quality.to_bits() != quality.to_bits()) {
        report.fail(format!("quality {quality} != pinned {}", pin.quality));
    }
    let reference_cfg = spec.config(spec.reference_trees);
    let reference = match spec.trainer {
        Trainer::Vero => tracer.span("qd2::train", |_| {
            qd2::train(&cluster, &train, &reference_cfg, Aggregation::AllReduce).model
        }),
        Trainer::LightGbm => tracer.span("qd4::train", |_| {
            qd4::train(&cluster, &train, &reference_cfg).model
        }),
    };
    let mut prefix = model.clone();
    prefix.trees.truncate(spec.reference_trees);
    let ours = prefix.predict_dataset_raw(&valid);
    let theirs = reference.predict_dataset_raw(&valid);
    if ours.len() != theirs.len() || ours.iter().zip(&theirs).any(|(a, b)| (a - b).abs() > 1e-6) {
        report.fail("model disagrees with the cross-quadrant reference".into());
    }
    report.note("fingerprint", format!("{fingerprint:#018x}"));
    report.note("quality", format!("{quality}"));
    report.attempted = fits.len() as u64;
    report.failed = failed as u64;

    let walls: Vec<f64> = fits.iter().map(|f| f.wall_s).collect();
    let wall = median(&walls);
    let n_train = train.n_instances() as f64;
    report.set("setup_s", median(&ingest_s));
    report.set("trees_per_s", spec.trees as f64 / wall);
    report.set("quality", quality);
    report.set("peak_rss_mb", peak_mb);
    // Latency of one boosting round: the median over every tree of every
    // fit, and the median over fits of each fit's 99th percentile (a burst
    // of machine noise then moves one fit, not the run).
    let tree_s: Vec<f64> = fits.iter().flat_map(|f| f.tree_s.iter().copied()).collect();
    let tree_p99: Vec<f64> = fits.iter().map(|f| quantile(&f.tree_s, 0.99)).collect();
    report.set("p50_ms", median(&tree_s) * 1e3);
    report.set("p99_ms", median(&tree_p99) * 1e3);
    report.set("rows_per_s", n_train * spec.trees as f64 / wall);
    report.set("success_rate", 1.0 - failed as f64 / fits.len() as f64);

    if tracer.enabled() {
        let fit = &fits[median_index(&walls)];
        layer_stats(fit, &model, report);
        report.set("trace.trees_per_s", spec.trees as f64 / wall);
        report.set("trace.p50_ms", median(&tree_s) * 1e3);
        probes(spec, &train, tracer, report);
    }
}

/// Per-layer numbers the program already returns: the slowest worker's
/// phase timers, byte and message counts, and memory gauges.
fn layer_stats(fit: &Fit, model: &GbdtModel, report: &mut Report) {
    let stats = &fit.stats;
    let slowest = stats
        .workers
        .iter()
        .max_by(|a, b| a.comp_total().total_cmp(&b.comp_total()))
        .expect("a cluster has workers");
    for (name, phase) in [
        ("core.sketch_s", Phase::Sketch),
        ("partition.transform_s", Phase::Transform),
        ("core.gradients_s", Phase::Gradients),
        ("core.hist_build_s", Phase::HistogramBuild),
        ("core.split_find_s", Phase::SplitFind),
        ("core.node_split_s", Phase::NodeSplit),
        ("core.predict_s", Phase::Predict),
        ("train.other_s", Phase::Other),
    ] {
        report.set(name, slowest.comp(phase));
    }
    let unattributed = fit.wall_s - slowest.comp_total();
    report.set("train.wall_s", fit.wall_s);
    report.set("train.unattributed_s", unattributed);
    report.set("train.unattributed_frac", unattributed / fit.wall_s);
    report.set("cluster.bytes_sent", stats.total_bytes_sent() as f64);
    report.set(
        "cluster.messages_sent",
        stats.workers.iter().map(|w| w.messages_sent).sum::<u64>() as f64,
    );
    report.set("cluster.wire_compression", stats.wire_compression());
    report.set("cluster.modelled_comm_s", stats.comm_seconds());
    report.set("core.hist_peak_bytes", stats.max_histogram_bytes() as f64);
    report.set("data.shard_bytes", stats.max_data_bytes() as f64);
    report.set(
        "core.index_bytes",
        stats
            .workers
            .iter()
            .map(|w| w.index_bytes)
            .max()
            .unwrap_or(0) as f64,
    );
    report.set("quadrants.nodes_split", nodes_split(model) as f64);
}

/// Median seconds of `reps` calls of `f`, each in its own span.
fn probe(tracer: &mut Tracer, name: &str, reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| tracer.span(name, |_| f())).collect();
    median(&samples)
}

/// Per-call probes on the workload's own training data, timed from here.
fn probes(spec: &TrainSpec, train: &Dataset, tracer: &mut Tracer, report: &mut Report) {
    let reps = spec.probe_reps;
    let q = spec.bins;
    let mut cuts = None;
    let sketch_s = probe(tracer, "BinCuts::from_dataset", reps, || {
        let (c, s) = timed(|| BinCuts::from_dataset(train, q));
        cuts = Some(c);
        s
    });
    let cuts = cuts.expect("probe ran");
    let mut store = None;
    let bin_s = probe(tracer, "BinCuts::apply_store", reps, || {
        let (b, s) = timed(|| cuts.apply_store(train, Storage::Auto));
        store = Some(b);
        s
    });
    let store = store.expect("probe ran");
    report.set("core.sketch_call_s", sketch_s);
    report.set("core.bin_call_s", bin_s);

    let objective = spec.objective();
    let c = objective.n_outputs();
    let n = train.n_instances();
    let mut grads = GradBuffer::new(n, c);
    let scores: Vec<f64> = (0..n).flat_map(|_| objective.init_scores()).collect();
    objective.compute_gradients(&scores, &train.labels, &mut grads);
    let rows: Vec<u32> = (0..n as u32).collect();
    let mut hist = NodeHistogram::new(train.n_features(), q, c);
    let fill_s = probe(tracer, "kernels::fill_rows_chunk", reps, || {
        hist.zero();
        timed(|| kernels::fill_rows_chunk(&mut hist, &rows, &store, &grads, Kernel::Simd)).1
    });
    report.set("core.hist_fill_root_s", fill_s);

    let mut root = NodeStats::zero(c);
    grads.sum_instances(&rows, &mut root.grads, &mut root.hesses);
    let params = SplitParams::from_config(&spec.config(spec.trees));
    let mut split = None;
    let find_s = probe(tracer, "split::best_split", reps, || {
        let (s, secs) = timed(|| best_split(&hist, &root, &params, |f| cuts.n_bins(f), |f| f));
        split = s;
        secs
    });
    report.set("core.split_find_root_s", find_s);
    let split = split.expect("the root of a workload has a valid split");
    let goes_left = |i: u32| match kernels::lookup(&store, i as usize, split.feature) {
        Some(bin) => bin <= split.bin,
        None => split.default_left,
    };
    let node_split_s = probe(tracer, "NodeToInstanceIndex::split", reps, || {
        let mut index = NodeToInstanceIndex::new(n);
        timed(|| index.split(0, goes_left)).1
    });
    report.set("core.node_split_root_s", node_split_s);

    let cluster = Cluster::new(spec.workers);
    let collective_s = match spec.trainer {
        Trainer::LightGbm => probe(tracer, "Comm::reduce_scatter_f64_codec", reps, || {
            let (times, _) = cluster.run(|ctx| {
                let mut buf = hist.as_slice().to_vec();
                let (out, s) = timed(|| {
                    ctx.comm
                        .reduce_scatter_f64_codec(WireCodec::Dense, &mut buf)
                });
                out.expect("fault-free collective succeeds");
                s
            });
            times.into_iter().fold(0.0, f64::max)
        }),
        Trainer::Vero => probe(tracer, "Comm::all_gather", reps, || {
            let bitmap = PlacementBitmap::from_predicate(n, |i| goes_left(i as u32));
            let payload = Bytes::from(bitmap.encode_bytes());
            let (times, _) = cluster.run(|ctx| {
                let (out, s) = timed(|| ctx.comm.all_gather(payload.clone()));
                out.expect("fault-free collective succeeds");
                s
            });
            times.into_iter().fold(0.0, f64::max)
        }),
    };
    report.set("cluster.collective_s", collective_s);

    if spec.trainer == Trainer::Vero {
        let partition = HorizontalPartition::new(n, spec.workers);
        let transform_cfg = TransformConfig {
            n_bins: q,
            ..TransformConfig::default()
        };
        let transform_s = probe(tracer, "horizontal_to_vertical", reps, || {
            let (times, _) = cluster.run(|ctx| {
                let shard = shard_dataset(train, partition, ctx.rank());
                let (out, s) =
                    timed(|| horizontal_to_vertical(ctx, &shard, partition, &transform_cfg));
                out.expect("fault-free transform succeeds");
                s
            });
            times.into_iter().fold(0.0, f64::max)
        });
        report.set("partition.transform_call_s", transform_s);
    }
}
