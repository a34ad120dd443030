//! Yggdrasil-style trainer — vertical partitioning + column-store with a
//! **column-wise node-to-instance index** (§4.1, Appendix C).
//!
//! Each worker keeps its columns physically partitioned by tree node
//! (Figure 6), so locating a node's 〈instance, bin〉 pairs on every column is
//! free and histogram construction is a straight sequential read. The price
//! is node splitting: every split must repartition **all** local columns —
//! the `O(D)`-fold index-update cost that makes this design "only applicable
//! for low-dimensional datasets" (§3.2.3).
//!
//! Like every vertical trainer, no histogram ever crosses the wire, so
//! [`TrainConfig::wire`] is accepted but has nothing to encode — all wire
//! codecs (including the lossy f32) train the identical ensemble.

use crate::common::{shard_dataset, DistTrainResult};
use crate::driver::{self, ColumnGroup, Vertical};
use gbdt_cluster::{Cluster, Phase, WorkerCtx};
use gbdt_core::histogram::{add_instance_to_feature_slice, HistogramPool};
use gbdt_core::indexes::{ColumnWiseIndex, NodeToInstanceIndex};
use gbdt_core::parallel::{par_feature_fill, Meter};
use gbdt_core::split::Split;
use gbdt_core::{GradBuffer, TrainConfig};
use gbdt_data::dataset::Dataset;
use gbdt_data::{ColumnStore, FeatureId, InstanceId};
use gbdt_partition::transform::{horizontal_to_vertical, TransformConfig};
use gbdt_partition::{HorizontalPartition, PlacementBitmap};

/// Trains Yggdrasil-style on `cluster.world` workers.
pub fn train(cluster: &Cluster, dataset: &Dataset, config: &TrainConfig) -> DistTrainResult {
    let partition = HorizontalPartition::new(dataset.n_instances(), cluster.world);
    let transform_cfg = TransformConfig::default();
    driver::train(cluster, config, |ctx| {
        let shard = shard_dataset(dataset, partition, ctx.rank());
        let transformed = horizontal_to_vertical(ctx, &shard, partition, &transform_cfg)?;
        Ok(Vertical::new(ctx, config, transformed, true, |ctx, local_data| {
            let columns: ColumnStore = ctx.time(Phase::Transform, || {
                config.storage.bin_store(local_data.to_binned_rows(), config.n_bins).to_columns()
            });
            let cw_index = ctx.time(Phase::Transform, || ColumnWiseIndex::from_store(&columns));
            NodeColumns { columns, cw_index }
        }))
    })
}

/// The local column group, physically partitioned by tree node.
struct NodeColumns {
    columns: ColumnStore,
    cw_index: ColumnWiseIndex,
}

impl ColumnGroup for NodeColumns {
    fn heap_bytes(&self) -> usize {
        self.columns.heap_bytes()
    }

    fn index_bytes(&self) -> usize {
        self.cw_index.heap_bytes()
    }

    /// Direct sequential reads of each column's node slice — the part this
    /// index is good at.
    fn build_histogram(
        &self,
        pool: &mut HistogramPool,
        node: u32,
        _index: &NodeToInstanceIndex,
        grads: &GradBuffer,
        threads: usize,
        meter: &Meter,
    ) {
        let hist = pool.acquire(node);
        let c = hist.n_outputs();
        // Whole columns fan out across threads; each feature's region is
        // disjoint and read in the sequential node-slice order, so the
        // result is bit-identical for every thread count.
        par_feature_fill(hist, threads, meter, |j, slice| {
            let (insts, bins) = self.cw_index.node_column(node, j);
            for (&i, &b) in insts.iter().zip(bins) {
                let (g, h) = grads.instance(i as usize);
                add_instance_to_feature_slice(slice, c, b, g, h);
            }
        });
    }

    /// The split column's node slice is already contiguous; absent
    /// instances fall to the default side.
    fn owner_bitmap(
        &self,
        index: &NodeToInstanceIndex,
        node: u32,
        local: FeatureId,
        split: &Split,
    ) -> PlacementBitmap {
        let (insts, bins) = self.cw_index.node_column(node, local as usize);
        // Present instances, by id. BTreeMap so placement never depends on
        // hash order (only keyed lookups today, but the bitmap reaches the
        // wire).
        let present: std::collections::BTreeMap<u32, u16> =
            insts.iter().copied().zip(bins.iter().copied()).collect();
        let instances = index.instances(node);
        PlacementBitmap::from_predicate(instances.len(), |k| match present.get(&instances[k]) {
            Some(&b) => b <= split.bin,
            None => split.default_left,
        })
    }

    /// THE expensive step: repartition every column.
    fn mirror_split(&mut self, node: u32, left: impl Fn(InstanceId) -> bool) {
        self.cw_index.split(node, left);
    }

    fn end_tree(&mut self, ctx: &mut WorkerCtx) {
        ctx.time(Phase::NodeSplit, || self.cw_index.reset_from_store(&self.columns));
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
        let ds = dataset(1_000, 12, 149);
        let result = train(&Cluster::new(2), &ds, &config(8));
        assert!(result.model.evaluate(&ds).auc.unwrap() > 0.85);
    }

    #[test]
    fn matches_qd4_predictions() {
        let ds = dataset(700, 10, 151);
        let cfg = config(5);
        let ygg = train(&Cluster::new(2), &ds, &cfg);
        let qd4 = crate::qd4::train(&Cluster::new(2), &ds, &cfg);
        let py = ygg.model.predict_dataset_raw(&ds);
        let p4 = qd4.model.predict_dataset_raw(&ds);
        for (a, b) in py.iter().zip(&p4) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
