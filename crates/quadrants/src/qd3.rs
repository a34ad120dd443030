//! QD3 — vertical partitioning + column-store (the Yggdrasil quadrant,
//! implemented with the paper's §5.2.2 "index plan").
//!
//! Storage is per-feature columns of 〈instance, bin〉 pairs. Histogram
//! construction uses the hybrid the paper found fastest for this quadrant
//! (Appendix C): per (node, column) choose between
//!
//! * a **linear scan** of the whole column filtered by an instance-to-node
//!   lookup (cheap when the column is short), and
//! * **binary searches** of the column for each of the node's instances
//!   from the node-to-instance index (cheap when the node is small) — the
//!   `O(log N)` per-access cost and branch-misprediction churn the paper
//!   blames for QD3's 3–4× computation gap and its high per-tree variance.
//!
//! Communication is identical to QD4 (local best splits + placement
//! bitmaps): the two quadrants differ *only* in storage, which is exactly
//! the §5.2.2 controlled comparison. Neither ships histogram payloads, so
//! [`TrainConfig::wire`] is accepted but has nothing to encode here — all
//! wire codecs (including the lossy f32) train the identical ensemble.

use crate::common::{shard_dataset, DistTrainResult};
use crate::driver::{self, ColumnGroup, Vertical};
use gbdt_cluster::{Cluster, Phase, WorkerCtx};
use gbdt_core::histogram::{add_instance_to_feature_slice, HistogramPool};
use gbdt_core::indexes::{InstanceToNodeIndex, NodeToInstanceIndex};
use gbdt_core::parallel::{par_feature_fill, Meter};
use gbdt_core::split::Split;
use gbdt_core::{GradBuffer, TrainConfig};
use gbdt_data::dataset::Dataset;
use gbdt_data::{ColumnStore, FeatureId, InstanceId};
use gbdt_partition::transform::{horizontal_to_vertical, TransformConfig};
use gbdt_partition::{HorizontalPartition, PlacementBitmap};

/// Trains with QD3 on `cluster.world` workers (shard → transform → train).
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    let partition = HorizontalPartition::new(dataset.n_instances(), cluster.world);
    let transform_cfg = TransformConfig::default();
    driver::train(cluster, config, |ctx| {
        let shard = shard_dataset(dataset, partition, ctx.rank());
        let transformed = horizontal_to_vertical(ctx, &shard, partition, &transform_cfg)?;
        Ok(Vertical::new(ctx, config, transformed, true, |ctx, local_data| {
            // Column-store of the local feature group, in the configured layout.
            let columns: ColumnStore = ctx.time(Phase::Transform, || {
                config.storage.bin_store(local_data.to_binned_rows(), config.n_bins).to_columns()
            });
            Columns { inst_to_node: InstanceToNodeIndex::new(columns.n_rows()), columns }
        }))
    })
}

/// The local column group stored column-wise, with the instance-to-node
/// index the hybrid plan's linear scans filter by.
struct Columns {
    columns: ColumnStore,
    inst_to_node: InstanceToNodeIndex,
}

impl ColumnGroup for Columns {
    fn heap_bytes(&self) -> usize {
        self.columns.heap_bytes()
    }

    fn index_bytes(&self) -> usize {
        self.inst_to_node.heap_bytes()
    }

    /// Hybrid per-(node, column) construction: linear column scan with
    /// instance-to-node filtering vs per-instance binary search, whichever
    /// the cost model predicts cheaper.
    fn build_histogram(
        &self,
        pool: &mut HistogramPool,
        node: u32,
        index: &NodeToInstanceIndex,
        grads: &GradBuffer,
        threads: usize,
        meter: &Meter,
    ) {
        let node_count = index.count(node);
        let hist = pool.acquire(node);
        let c = hist.n_outputs();
        // Whole columns fan out across threads: each feature's histogram region
        // is disjoint and filled in the sequential per-column order, so the
        // result is bit-identical for every thread count. Both paths visit the
        // node's present values in ascending instance order (columns store
        // instances ascending; node instance lists stay ascending across
        // splits), so the cost-model choice never changes the accumulated bits
        // — on either storage layout.
        par_feature_fill(hist, threads, meter, |j, slice| {
            let (cost_linear, cost_binary) = if self.columns.is_dense() {
                // Dense: linear scan touches every cell; point lookups are O(1).
                (self.columns.n_rows(), node_count)
            } else {
                let len = self.columns.col_nnz(j);
                let log_len = usize::BITS - len.next_power_of_two().leading_zeros();
                (len, node_count * log_len as usize)
            };
            if cost_linear <= cost_binary {
                // Linear scan: touch every pair, keep only this node's.
                self.columns.for_each_in_col(j, |i, b| {
                    if self.inst_to_node.node_of(i) == node {
                        let (g, h) = grads.instance(i as usize);
                        add_instance_to_feature_slice(slice, c, b, g, h);
                    }
                });
            } else {
                // Point lookup per node instance — binary search on the sparse
                // layout (the log(N) access path), O(1) on the dense layout.
                for &i in index.instances(node) {
                    if let Some(b) = self.columns.get(i as usize, j as FeatureId) {
                        let (g, h) = grads.instance(i as usize);
                        add_instance_to_feature_slice(slice, c, b, g, h);
                    }
                }
            }
        });
    }

    /// Looks up the split feature's column for each of the node's
    /// instances (binary search on the sparse layout, O(1) on the dense
    /// layout).
    fn owner_bitmap(
        &self,
        index: &NodeToInstanceIndex,
        node: u32,
        local: FeatureId,
        split: &Split,
    ) -> PlacementBitmap {
        let instances = index.instances(node);
        PlacementBitmap::from_predicate(instances.len(), |k| {
            match self.columns.get(instances[k] as usize, local) {
                Some(b) => b <= split.bin,
                None => split.default_left,
            }
        })
    }

    fn mirror_split(&mut self, node: u32, left: impl Fn(InstanceId) -> bool) {
        self.inst_to_node.split(node, left);
    }

    fn end_tree(&mut self, _ctx: &mut WorkerCtx) {
        self.inst_to_node.reset();
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
        let ds = dataset(1_200, 15, 2, 131);
        let result = train(&Cluster::new(3), &ds, &config(2, 8));
        assert!(result.model.evaluate(&ds).auc.unwrap() > 0.85);
    }

    #[test]
    fn matches_qd4_exactly_in_structure() {
        // Same vertical partitioning, same histograms (column-store scans
        // add the same values in instance order) -> same ensembles.
        let ds = dataset(800, 14, 2, 137);
        let cfg = config(2, 5);
        let qd3 = train(&Cluster::new(3), &ds, &cfg);
        let qd4 = crate::qd4::train(&Cluster::new(3), &ds, &cfg);
        let p3 = qd3.model.predict_dataset_raw(&ds);
        let p4 = qd4.model.predict_dataset_raw(&ds);
        for (a, b) in p3.iter().zip(&p4) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn multiclass_runs() {
        let ds = dataset(900, 12, 4, 139);
        let result = train(&Cluster::new(2), &ds, &config(4, 6));
        assert!(result.model.evaluate(&ds).accuracy.unwrap() > 0.4);
    }
}
