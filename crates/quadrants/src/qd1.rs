//! QD1 — horizontal partitioning + column-store (XGBoost, §4.1).
//!
//! Each worker stores its row shard as binned *columns* and maintains an
//! **instance-to-node** index. Histograms for a whole layer are built in one
//! linear pass over the columns — for every 〈instance, bin〉 pair the
//! instance's current node is looked up and the gradient lands in that
//! node's histogram. The index cannot enumerate a node's instances, so QD1
//! **cannot exploit histogram subtraction** (§3.2.3): every layer rescans
//! all local pairs, and both children of every split are built from
//! scratch. Aggregation is all-reduce, after which every worker finds every
//! split redundantly (the leader-based variant has identical traffic shape).

use crate::common::{
    all_reduce_counts, all_reduce_root, record_layer_wire_bytes, shard_dataset, worker_threads,
    DistTrainResult, Frontier,
};
use crate::driver::{self, DataPolicy};
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::{add_instance_to_feature_slice, histogram_size_bytes, NodeHistogram};
use gbdt_core::indexes::InstanceToNodeIndex;
use gbdt_core::parallel::Meter;
use gbdt_core::split::{best_split_parallel, NodeStats, Split, SplitParams};
use gbdt_core::tree::Tree;
use gbdt_core::{BinCuts, GradBuffer, QuantileSketch, TrainConfig};
use gbdt_data::dataset::Dataset;
use gbdt_data::{ColumnStore, InstanceId};
use gbdt_partition::transform::build_global_cuts;
use gbdt_partition::HorizontalPartition;

/// Trains with QD1 on `cluster.world` workers.
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    let partition = HorizontalPartition::new(dataset.n_instances(), cluster.world);
    driver::train(cluster, config, |ctx| {
        Qd1::setup(ctx, shard_dataset(dataset, partition, ctx.rank()), config)
    })
}

/// A worker's row shard, binned column-wise, with an instance-to-node index.
struct Qd1<'a> {
    config: &'a TrainConfig,
    params: SplitParams,
    threads: usize,
    columns: ColumnStore,
    index: InstanceToNodeIndex,
    /// The current layer's histograms, slot `node - layer_base`.
    hists: Vec<Option<NodeHistogram>>,
    layer_base: u32,
}

impl<'a> Qd1<'a> {
    fn setup(
        ctx: &mut WorkerCtx,
        shard: Dataset,
        config: &'a TrainConfig,
    ) -> Result<(Self, BinCuts, Vec<f32>), CommError> {
        let (cuts, _) = build_global_cuts(ctx, &shard, config.n_bins, QuantileSketch::DEFAULT_CAP)?;
        let columns: ColumnStore =
            ctx.time(Phase::Sketch, || cuts.apply_store(&shard, config.storage).to_columns());
        ctx.stats.data_bytes = columns.heap_bytes() as u64;
        let index = InstanceToNodeIndex::new(columns.n_rows());
        ctx.stats.index_bytes = index.heap_bytes() as u64;
        let policy = Qd1 {
            config,
            params: SplitParams::from_config(config),
            threads: worker_threads(config, ctx.world()),
            columns,
            index,
            hists: Vec::new(),
            layer_base: 0,
        };
        Ok((policy, cuts, shard.labels))
    }
}

impl DataPolicy for Qd1<'_> {
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
        // One column pass builds the histograms of the WHOLE layer — no
        // subtraction, every pair of the shard is touched.
        let (d, q, c) = (self.columns.n_features(), self.config.n_bins, self.config.n_outputs());
        self.layer_base = (1u32 << layer) - 1;
        self.hists.clear();
        self.hists.resize_with(1usize << layer, || None);
        for &node in &frontier.nodes {
            self.hists[(node - self.layer_base) as usize] = Some(NodeHistogram::new(d, q, c));
        }
        let live = (frontier.nodes.len() * histogram_size_bytes(d, q, c)) as u64;
        ctx.stats.histogram_peak_bytes = ctx.stats.histogram_peak_bytes.max(live);
        ctx.time(Phase::HistogramBuild, || {
            build_layer_histograms(
                &self.columns,
                grads,
                &self.index,
                &mut self.hists,
                self.layer_base,
                self.threads,
                meter,
            );
        });

        // All-reduce each node's histogram under the configured wire codec;
        // every worker then finds the same best split. Control traffic
        // (counts, root stats) stays dense — only histogram payloads are
        // codec-mediated.
        let wire_before = ctx.comm.counters();
        for &node in &frontier.nodes {
            let hist = self.hists[(node - self.layer_base) as usize].as_mut().expect("allocated");
            ctx.comm.all_reduce_f64_codec(self.config.wire, hist.as_mut_slice())?;
        }
        record_layer_wire_bytes(ctx, layer, wire_before);
        Ok(())
    }

    fn best_split(&self, cuts: &BinCuts, node: u32, stats: &NodeStats) -> Option<Split> {
        let hist = self.hists[(node - self.layer_base) as usize].as_ref().expect("allocated");
        best_split_parallel(hist, stats, &self.params, |f| cuts.n_bins(f), |f| f, self.threads)
    }

    fn resolve_splits(
        &mut self,
        _ctx: &mut WorkerCtx,
        locals: Vec<Option<Split>>,
        _n_outputs: usize,
    ) -> Result<Vec<Option<Split>>, CommError> {
        Ok(locals) // every worker searched the same global histograms
    }

    /// Placements are resolved by scanning the split feature's column and
    /// defaulting the absent instances.
    fn place(
        &mut self,
        ctx: &mut WorkerCtx,
        splits: &[(u32, Split)],
    ) -> Result<Vec<(u64, u64)>, CommError> {
        let (columns, index) = (&self.columns, &mut self.index);
        let local: Vec<(usize, usize)> = ctx.time(Phase::NodeSplit, || {
            let n = columns.n_rows();
            let mut went_left = vec![false; n];
            splits
                .iter()
                .map(|(node, split)| {
                    // Default placement, then overrides from the column.
                    for i in 0..n as InstanceId {
                        if index.node_of(i) == *node {
                            went_left[i as usize] = split.default_left;
                        }
                    }
                    columns.for_each_in_col(split.feature as usize, |i, b| {
                        if index.node_of(i) == *node {
                            went_left[i as usize] = b <= split.bin;
                        }
                    });
                    index.split(*node, |i| went_left[i as usize])
                })
                .collect()
        });
        all_reduce_counts(ctx, &local)
    }

    /// Every instance's final node is a leaf.
    fn add_leaf_scores(&self, tree: &Tree, _leaves: &[u32], scores: &mut [f64]) {
        let c = self.config.n_outputs();
        for (i, row) in scores.chunks_exact_mut(c).enumerate() {
            let values = tree.leaf_values(self.index.node_of(i as InstanceId));
            for (s, &v) in row.iter_mut().zip(values) {
                *s += v;
            }
        }
    }

    fn end_tree(&mut self, _ctx: &mut WorkerCtx) {
        self.index.reset();
    }
}

/// One linear pass over the columns builds the histograms of a WHOLE layer:
/// every 〈instance, bin〉 pair is routed to its instance's current node.
///
/// Threads fan out over disjoint **feature blocks**: thread `b` owns block
/// `b` of every live node histogram (features are the outermost axis of the
/// flat layout, so a feature block is one contiguous region per histogram).
/// Each f64 slot is written by exactly one thread, in the same per-column
/// pair order as the sequential pass — bit-identical for every thread count.
fn build_layer_histograms(
    columns: &ColumnStore,
    grads: &GradBuffer,
    index: &InstanceToNodeIndex,
    hists: &mut [Option<NodeHistogram>],
    layer_base: u32,
    threads: usize,
    meter: &Meter,
) {
    let d = columns.n_features();
    if threads <= 1 || d < 2 {
        for j in 0..d {
            columns.for_each_in_col(j, |i, b| {
                let node = index.node_of(i);
                if node < layer_base {
                    return; // instance settled on an earlier leaf
                }
                if let Some(hist) =
                    hists.get_mut((node - layer_base) as usize).and_then(Option::as_mut)
                {
                    let (g, h) = grads.instance(i as usize);
                    hist.add_instance(j as u32, b, g, h);
                }
            });
        }
        return;
    }

    let (stride, c) = match hists.iter().flatten().next() {
        Some(h) => (h.feature_stride(), h.n_outputs()),
        None => return,
    };
    let t = threads.min(d);
    let per = d.div_ceil(t);
    let n_blocks = d.div_ceil(per);
    // thread_blocks[b][slot] is feature block `b` of node slot `slot`.
    let mut thread_blocks: Vec<Vec<Option<&mut [f64]>>> =
        (0..n_blocks).map(|_| Vec::with_capacity(hists.len())).collect();
    for hist in hists.iter_mut() {
        match hist {
            Some(h) => {
                let mut chunks = h.as_mut_slice().chunks_mut(per * stride);
                for tb in thread_blocks.iter_mut() {
                    tb.push(chunks.next());
                }
            }
            None => {
                for tb in thread_blocks.iter_mut() {
                    tb.push(None);
                }
            }
        }
    }

    // lint: allow(wall-clock) — measures computation time for modelled stats only
    let start = std::time::Instant::now();
    let busy = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|s| {
        for (bi, mut blocks) in thread_blocks.into_iter().enumerate() {
            let busy = &busy;
            s.spawn(move || {
                // lint: allow(wall-clock) — measures computation time for modelled stats only
                let t0 = std::time::Instant::now();
                let lo = bi * per;
                let hi = (lo + per).min(d);
                for j in lo..hi {
                    let off = (j - lo) * stride;
                    columns.for_each_in_col(j, |i, b| {
                        let node = index.node_of(i);
                        if node < layer_base {
                            return;
                        }
                        let slot = (node - layer_base) as usize;
                        if let Some(block) = blocks.get_mut(slot).and_then(Option::as_mut) {
                            let (g, h) = grads.instance(i as usize);
                            add_instance_to_feature_slice(
                                &mut block[off..off + stride],
                                c,
                                b,
                                g,
                                h,
                            );
                        }
                    });
                }
                busy.fetch_add(
                    t0.elapsed().as_nanos() as u64,
                    std::sync::atomic::Ordering::Relaxed,
                );
            });
        }
    });
    meter.add(
        start.elapsed(),
        std::time::Duration::from_nanos(busy.load(std::sync::atomic::Ordering::Relaxed)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Aggregation;
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

    fn config(classes: usize, trees: usize) -> TrainConfig {
        let objective = if classes > 2 {
            Objective::Softmax { n_classes: classes }
        } else {
            Objective::Logistic
        };
        TrainConfig::builder().n_trees(trees).n_layers(5).objective(objective).build().unwrap()
    }

    #[test]
    fn learns_binary() {
        let ds = dataset(1_200, 15, 2, 101);
        let result = train(&Cluster::new(3), &ds, &config(2, 8));
        assert!(result.model.evaluate(&ds).auc.unwrap() > 0.85);
    }

    #[test]
    fn matches_qd2_across_workers() {
        // Same W implies identical merged sketches, hence identical cuts and
        // identical trees. (Comparing W > 1 against the single-node trainer
        // is NOT expected to be exact: sketch merging produces slightly
        // different — equally valid — candidate splits than single-pass
        // sketching; qd2's W = 1 test covers the single-node equivalence.)
        let ds = dataset(800, 14, 2, 103);
        let cfg = config(2, 5);
        let qd1 = train(&Cluster::new(2), &ds, &cfg);
        let qd2 = crate::qd2::train(&Cluster::new(2), &ds, &cfg, Aggregation::AllReduce);
        let p1 = qd1.model.predict_dataset_raw(&ds);
        let p2 = qd2.model.predict_dataset_raw(&ds);
        for (a, b) in p1.iter().zip(&p2) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn multiclass_runs() {
        let ds = dataset(900, 12, 4, 107);
        let result = train(&Cluster::new(2), &ds, &config(4, 6));
        assert!(result.model.evaluate(&ds).accuracy.unwrap() > 0.4);
    }

    #[test]
    fn no_subtraction_means_more_histogram_traffic_than_qd2() {
        // QD1 aggregates histograms for BOTH children of every split; QD2
        // aggregates only the built (smaller) child. Same all-reduce, so
        // QD1's traffic must exceed QD2's.
        let ds = dataset(800, 20, 2, 109);
        let cfg = config(2, 4);
        let qd1 = train(&Cluster::new(2), &ds, &cfg);
        let qd2 = crate::qd2::train(&Cluster::new(2), &ds, &cfg, Aggregation::AllReduce);
        assert!(
            qd1.stats.total_bytes_sent() > qd2.stats.total_bytes_sent(),
            "QD1 {} vs QD2 {}",
            qd1.stats.total_bytes_sent(),
            qd2.stats.total_bytes_sent()
        );
    }
}
