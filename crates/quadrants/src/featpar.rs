//! LightGBM's feature-parallel mode (Appendix D).
//!
//! The dataset is **never partitioned**: every worker loads a full copy.
//! Histogram construction and split finding proceed as in vertical
//! partitioning (each worker covers a feature subset and local bests are
//! exchanged), but node splitting needs no placement broadcast — every
//! worker owns every feature and computes placements locally. The paper's
//! verdict: fast on small data (no histogram aggregation, no bitmap
//! traffic) but "impractical for large-scale workloads" because per-worker
//! memory holds the entire dataset — which our `data_bytes` gauge reports.
//! With no histogram aggregation there is nothing for [`TrainConfig::wire`]
//! to encode: every codec (including the lossy f32) trains the identical
//! ensemble here.

use crate::common::{worker_threads, DistTrainResult, Frontier};
use crate::driver::{self, add_leaf_scores, subtraction_schedule, DataPolicy};
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::HistogramPool;
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::parallel::{self, Meter};
use gbdt_core::split::{best_split_parallel, NodeStats, Split, SplitParams};
use gbdt_core::tree::Tree;
use gbdt_core::{BinCuts, GradBuffer, TrainConfig};
use gbdt_data::dataset::Dataset;
use gbdt_data::BinnedStore;
use gbdt_partition::{ColumnGrouping, GroupingStrategy};

/// Trains feature-parallel on `cluster.world` workers (full replica each).
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    // With a full replica everywhere, cuts and grouping are computed
    // identically and locally on every worker — no sketch repartition.
    driver::train(cluster, config, |ctx| Ok(FeatPar::setup(ctx, dataset, config)))
}

/// A full binned replica plus this worker's feature-subset view of it.
struct FeatPar<'a> {
    config: &'a TrainConfig,
    params: SplitParams,
    threads: usize,
    rank: usize,
    grouping: ColumnGrouping,
    full: BinnedStore,
    local: BinnedStore,
    index: NodeToInstanceIndex,
    pool: HistogramPool,
}

impl<'a> FeatPar<'a> {
    fn setup(
        ctx: &mut WorkerCtx,
        dataset: &'a Dataset,
        config: &'a TrainConfig,
    ) -> (Self, BinCuts, Vec<f32>) {
        let (rank, world) = (ctx.rank(), ctx.world());
        let (d, n) = (dataset.n_features(), dataset.n_instances());
        // Full local copy: sketch, bin, and group features — all locally.
        let cuts = ctx.time(Phase::Sketch, || BinCuts::from_dataset(dataset, config.n_bins));
        let full = ctx.time(Phase::Sketch, || cuts.apply_store(dataset, config.storage));
        let grouping = ctx.time(Phase::Sketch, || {
            let mut weights = vec![0u64; d];
            for i in 0..n {
                full.for_each_in_row(i, |j, _| weights[j as usize] += 1);
            }
            ColumnGrouping::build(GroupingStrategy::GreedyBalanced, d, world, &weights)
        });
        // Per-worker feature-subset view (same layout) for histogram building.
        let local = ctx.time(Phase::Sketch, || full.select_cols(grouping.group_features(rank)));
        // The defining cost: the WHOLE dataset lives on this worker.
        ctx.stats.data_bytes = (full.heap_bytes() + local.heap_bytes() + n * 4) as u64;
        let index = NodeToInstanceIndex::new(n);
        ctx.stats.index_bytes = index.heap_bytes() as u64;
        let policy = FeatPar {
            config,
            params: SplitParams::from_config(config),
            threads: worker_threads(config, world),
            rank,
            pool: HistogramPool::new(grouping.group_len(rank), config.n_bins, config.n_outputs()),
            grouping,
            full,
            local,
            index,
        };
        (policy, cuts, dataset.labels.clone())
    }
}

impl DataPolicy for FeatPar<'_> {
    fn histograms(
        &mut self,
        ctx: &mut WorkerCtx,
        layer: usize,
        frontier: &Frontier,
        grads: &GradBuffer,
        meter: &Meter,
    ) -> Result<(), CommError> {
        let (local, kernel) = (&self.local, self.config.kernel);
        ctx.time(Phase::HistogramBuild, || {
            for (built, derive) in subtraction_schedule(layer, frontier) {
                let instances = self.index.instances(built);
                parallel::build_histogram_chunked(
                    &mut self.pool,
                    built,
                    instances,
                    self.threads,
                    meter,
                    |hist, chunk| {
                        gbdt_core::kernels::fill_rows_chunk(hist, chunk, local, grads, kernel);
                    },
                );
                if let Some((parent, sibling)) = derive {
                    self.pool.subtract_sibling(parent, built, sibling);
                }
            }
        });
        ctx.stats.histogram_peak_bytes = self.pool.peak_bytes() as u64;
        Ok(())
    }

    fn best_split(&self, cuts: &BinCuts, node: u32, stats: &NodeStats) -> Option<Split> {
        let to_global = |f| self.grouping.global_id(self.rank, f);
        let hist = self.pool.get(node).expect("histogram live");
        best_split_parallel(
            hist,
            stats,
            &self.params,
            |f| cuts.n_bins(to_global(f)),
            to_global,
            self.threads,
        )
    }

    fn release(&mut self, node: u32) {
        self.pool.release(node);
    }

    /// LOCAL: the full replica answers every feature lookup — no bitmap
    /// broadcast (Appendix D).
    fn place(
        &mut self,
        ctx: &mut WorkerCtx,
        splits: &[(u32, Split)],
    ) -> Result<Vec<(u64, u64)>, CommError> {
        let (full, index) = (&self.full, &mut self.index);
        Ok(ctx.time(Phase::NodeSplit, || {
            splits
                .iter()
                .map(|(node, split)| {
                    let (lc, rc) =
                        index.split(*node, |i| match full.get(i as usize, split.feature) {
                            Some(b) => b <= split.bin,
                            None => split.default_left,
                        });
                    (lc as u64, rc as u64)
                })
                .collect()
        }))
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
    use gbdt_data::synthetic::SyntheticConfig;

    fn dataset(n: usize, d: usize, seed: u64) -> Dataset {
        SyntheticConfig {
            n_instances: n,
            n_features: d,
            n_classes: 2,
            density: 0.5,
            label_noise: 0.02,
            seed,
            ..Default::default()
        }
        .generate()
    }

    fn config(trees: usize) -> TrainConfig {
        TrainConfig::builder().n_trees(trees).n_layers(5).build().unwrap()
    }

    #[test]
    fn learns_binary() {
        let ds = dataset(1_000, 12, 163);
        let result = train(&Cluster::new(3), &ds, &config(8));
        assert!(result.model.evaluate(&ds).auc.unwrap() > 0.85);
    }

    #[test]
    fn memory_holds_full_dataset_per_worker() {
        let ds = dataset(500, 10, 173);
        let result = train(&Cluster::new(4), &ds, &config(2));
        // Every worker's data_bytes covers the full dataset, unlike the
        // partitioned quadrants where shards shrink with W.
        let full_bytes = result.stats.workers[0].data_bytes;
        for w in &result.stats.workers {
            assert!(w.data_bytes >= full_bytes * 9 / 10);
        }
        let qd4 = crate::qd4::train(&Cluster::new(4), &ds, &config(2));
        assert!(
            result.stats.max_data_bytes() > qd4.stats.max_data_bytes(),
            "replica {} should exceed vertical shard {}",
            result.stats.max_data_bytes(),
            qd4.stats.max_data_bytes()
        );
    }

    #[test]
    fn no_placement_broadcast_traffic() {
        // Feature-parallel sends only sketches/splits; per-tree traffic
        // must be far below QD4's bitmap broadcasts for the same shape.
        let ds = dataset(2_000, 10, 179);
        let cfg = config(6);
        let fp = train(&Cluster::new(2), &ds, &cfg);
        let qd4 = crate::qd4::train(&Cluster::new(2), &ds, &cfg);
        assert!(
            fp.stats.total_bytes_sent() < qd4.stats.total_bytes_sent(),
            "FP {} vs QD4 {}",
            fp.stats.total_bytes_sent(),
            qd4.stats.total_bytes_sent()
        );
    }
}
