//! QD2 — horizontal partitioning + row-store (LightGBM / DimBoost, §4.1).
//!
//! Each worker holds a row shard in binned row-store form with a
//! node-to-instance index, builds *local* histograms for **all D features**
//! with the histogram subtraction technique, and the cluster aggregates them
//! into global histograms — the step whose traffic grows as
//! `Sizehist × W × (2^{L−1} − 1)` per tree and dominates on
//! high-dimensional / deep / multi-class workloads (§3.1.3).
//!
//! Three aggregation strategies mirror the real systems: ring all-reduce
//! (then every worker finds every split redundantly), feature-sharded
//! reduce-scatter (LightGBM: each worker finds splits for its feature slice,
//! then local bests are exchanged), and the parameter-server push of
//! DimBoost (mechanically the sharded reduction of `gbdt-cluster::ps` with
//! server-side split finding).

use crate::common::{
    all_reduce_counts, all_reduce_root, record_layer_wire_bytes, shard_dataset, worker_threads,
    Aggregation, DistTrainResult, Frontier,
};
use crate::driver::{
    self, add_leaf_scores, exchange_local_bests, subtraction_schedule, DataPolicy,
};
use gbdt_cluster::collectives::segment_bounds;
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::HistogramPool;
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::kernels;
use gbdt_core::parallel::{self, Meter};
use gbdt_core::split::{best_split_in_range_parallel, NodeStats, Split, SplitParams};
use gbdt_core::tree::Tree;
use gbdt_core::{BinCuts, GradBuffer, QuantileSketch, TrainConfig};
use gbdt_data::dataset::Dataset;
use gbdt_data::BinnedStore;
use gbdt_partition::transform::build_global_cuts;
use gbdt_partition::HorizontalPartition;

/// Trains with QD2 on `cluster.world` workers.
pub fn train(
    cluster: &Cluster,
    dataset: &Dataset,
    config: &TrainConfig,
    aggregation: Aggregation,
) -> DistTrainResult {
    let partition = HorizontalPartition::new(dataset.n_instances(), cluster.world);
    driver::train(cluster, config, |ctx| {
        Qd2::setup(ctx, shard_dataset(dataset, partition, ctx.rank()), config, aggregation)
    })
}

/// A worker's row shard, binned row-wise, with a node-to-instance index.
struct Qd2<'a> {
    config: &'a TrainConfig,
    aggregation: Aggregation,
    params: SplitParams,
    threads: usize,
    binned: BinnedStore,
    index: NodeToInstanceIndex,
    pool: HistogramPool,
    /// Per-worker histogram-element ranges of the feature shards that
    /// reduce-scatter / parameter-server aggregation reduces
    /// (feature-aligned).
    elem_ranges: Vec<(usize, usize)>,
    /// The features whose histograms are global on this worker: all of
    /// them after an all-reduce, its own shard after a sharded reduction.
    global_features: std::ops::Range<u32>,
}

impl<'a> Qd2<'a> {
    fn setup(
        ctx: &mut WorkerCtx,
        shard: Dataset,
        config: &'a TrainConfig,
        aggregation: Aggregation,
    ) -> Result<(Self, BinCuts, Vec<f32>), CommError> {
        let (d, q, c) = (shard.n_features(), config.n_bins, config.n_outputs());
        // Global candidate splits (local sketches merged across the cluster).
        let (cuts, _) = build_global_cuts(ctx, &shard, q, QuantileSketch::DEFAULT_CAP)?;
        let binned = ctx.time(Phase::Sketch, || cuts.apply_store(&shard, config.storage));
        ctx.stats.data_bytes = binned.heap_bytes() as u64;
        let index = NodeToInstanceIndex::new(binned.n_rows());
        ctx.stats.index_bytes = index.heap_bytes() as u64;
        let (world, rank) = (ctx.world(), ctx.rank());
        let (feat_lo, feat_hi) = match aggregation {
            Aggregation::AllReduce => (0, d),
            Aggregation::ReduceScatter | Aggregation::ParameterServer => {
                segment_bounds(d, world, rank)
            }
        };
        let elem_ranges = (0..world)
            .map(|w| {
                let (lo, hi) = segment_bounds(d, world, w);
                (lo * q * c * 2, hi * q * c * 2)
            })
            .collect();
        let policy = Qd2 {
            config,
            aggregation,
            params: SplitParams::from_config(config),
            threads: worker_threads(config, world),
            binned,
            index,
            pool: HistogramPool::new(d, q, c),
            elem_ranges,
            global_features: feat_lo as u32..feat_hi as u32,
        };
        Ok((policy, cuts, shard.labels))
    }
}

impl DataPolicy for Qd2<'_> {
    fn global_root(
        &mut self,
        ctx: &mut WorkerCtx,
        stats: &mut NodeStats,
        n_local: u64,
    ) -> Result<u64, CommError> {
        all_reduce_root(ctx, stats, n_local)
    }

    fn histograms(
        &mut self,
        ctx: &mut WorkerCtx,
        layer: usize,
        frontier: &Frontier,
        grads: &GradBuffer,
        meter: &Meter,
    ) -> Result<(), CommError> {
        // Local histograms for the build set only; siblings are derived by
        // subtraction AFTER aggregation, so pool histograms are always
        // global.
        let schedule = subtraction_schedule(layer, frontier);
        ctx.time(Phase::HistogramBuild, || {
            for &(node, _) in &schedule {
                parallel::build_histogram_chunked(
                    &mut self.pool,
                    node,
                    self.index.instances(node),
                    self.threads,
                    meter,
                    |hist, chunk| {
                        kernels::fill_rows_chunk(
                            hist,
                            chunk,
                            &self.binned,
                            grads,
                            self.config.kernel,
                        )
                    },
                );
            }
        });

        // Aggregate under the configured wire codec (control traffic stays
        // dense).
        let wire_before = ctx.comm.counters();
        for &(node, _) in &schedule {
            let hist = self.pool.get_mut(node).expect("just built");
            match self.aggregation {
                Aggregation::AllReduce => {
                    ctx.comm.all_reduce_f64_codec(self.config.wire, hist.as_mut_slice())?;
                }
                Aggregation::ReduceScatter | Aggregation::ParameterServer => {
                    let reduced = ctx.comm.ps_push_and_reduce_codec(
                        self.config.wire,
                        hist.as_slice(),
                        &self.elem_ranges,
                    )?;
                    let (lo, hi) = self.elem_ranges[ctx.rank()];
                    hist.as_mut_slice()[lo..hi].copy_from_slice(&reduced);
                }
            }
        }
        record_layer_wire_bytes(ctx, layer, wire_before);
        ctx.time(Phase::HistogramBuild, || {
            for &(built, derive) in &schedule {
                if let Some((parent, sibling)) = derive {
                    self.pool.subtract_sibling(parent, built, sibling);
                }
            }
        });
        ctx.stats.histogram_peak_bytes = self.pool.peak_bytes() as u64;
        Ok(())
    }

    fn best_split(&self, cuts: &BinCuts, node: u32, stats: &NodeStats) -> Option<Split> {
        best_split_in_range_parallel(
            self.pool.get(node).expect("histogram live"),
            self.global_features.clone(),
            stats,
            &self.params,
            |f| cuts.n_bins(f),
            |f| f,
            self.threads,
        )
    }

    fn resolve_splits(
        &mut self,
        ctx: &mut WorkerCtx,
        locals: Vec<Option<Split>>,
        n_outputs: usize,
    ) -> Result<Vec<Option<Split>>, CommError> {
        match self.aggregation {
            Aggregation::AllReduce => Ok(locals),
            Aggregation::ReduceScatter | Aggregation::ParameterServer => {
                exchange_local_bests(ctx, &locals, n_outputs)
            }
        }
    }

    fn release(&mut self, node: u32) {
        self.pool.release(node);
    }

    fn place(
        &mut self,
        ctx: &mut WorkerCtx,
        splits: &[(u32, Split)],
    ) -> Result<Vec<(u64, u64)>, CommError> {
        let local: Vec<(usize, usize)> = ctx.time(Phase::NodeSplit, || {
            splits
                .iter()
                .map(|(node, split)| {
                    self.index.split(*node, |i| match self.binned.get(i as usize, split.feature) {
                        Some(b) => b <= split.bin,
                        None => split.default_left,
                    })
                })
                .collect()
        });
        all_reduce_counts(ctx, &local)
    }

    fn add_leaf_scores(&self, tree: &Tree, leaves: &[u32], scores: &mut [f64]) {
        add_leaf_scores(&self.index, tree, leaves, scores);
    }

    fn end_tree(&mut self, _ctx: &mut WorkerCtx) {
        self.pool.release_all();
        self.index.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::Objective;
    use gbdt_data::synthetic::SyntheticConfig;

    fn dataset(n: usize, d: usize, classes: usize, seed: u64) -> Dataset {
        SyntheticConfig {
            n_instances: n,
            n_features: d,
            n_classes: classes,
            density: 0.5,
            label_noise: 0.02,
            seed,
            ..Default::default()
        }
        .generate()
    }

    fn config(classes: usize) -> TrainConfig {
        let objective = if classes > 2 {
            Objective::Softmax { n_classes: classes }
        } else {
            Objective::Logistic
        };
        TrainConfig::builder().n_trees(8).n_layers(5).objective(objective).build().unwrap()
    }

    #[test]
    fn learns_with_all_reduce() {
        let ds = dataset(1_200, 15, 2, 41);
        let result = train(&Cluster::new(3), &ds, &config(2), Aggregation::AllReduce);
        let eval = result.model.evaluate(&ds);
        assert!(eval.auc.unwrap() > 0.85, "AUC {:?}", eval.auc);
        assert_eq!(result.per_tree.len(), 8);
        assert!(result.stats.total_bytes_sent() > 0);
    }

    #[test]
    fn learns_with_reduce_scatter() {
        let ds = dataset(1_200, 15, 2, 43);
        let result = train(&Cluster::new(3), &ds, &config(2), Aggregation::ReduceScatter);
        assert!(result.model.evaluate(&ds).auc.unwrap() > 0.85);
    }

    #[test]
    fn aggregation_strategies_agree() {
        let ds = dataset(600, 10, 2, 47);
        let cfg = config(2);
        let cluster = Cluster::new(2);
        let a = train(&cluster, &ds, &cfg, Aggregation::AllReduce);
        let b = train(&cluster, &ds, &cfg, Aggregation::ReduceScatter);
        let c = train(&cluster, &ds, &cfg, Aggregation::ParameterServer);
        // Same global histograms (mod float summation order) -> same trees.
        let pa = a.model.predict_dataset_raw(&ds);
        let pb = b.model.predict_dataset_raw(&ds);
        let pc = c.model.predict_dataset_raw(&ds);
        for ((x, y), z) in pa.iter().zip(&pb).zip(&pc) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
            assert!((y - z).abs() < 1e-6, "{y} vs {z}");
        }
    }

    #[test]
    fn multiclass_runs() {
        let ds = dataset(900, 12, 4, 53);
        let result = train(&Cluster::new(2), &ds, &config(4), Aggregation::ReduceScatter);
        assert!(result.model.evaluate(&ds).accuracy.unwrap() > 0.4);
    }
}
