//! The one layer-wise boosting driver every distributed trainer runs.
//!
//! The paper's quadrants are one algorithm under different data management
//! (§5.2, Figure 1). [`grow`] is that algorithm: gradients and root
//! statistics, the per-tree and per-layer loops, the `min_node_instances`
//! gate, leaf/internal bookkeeping, checkpoints and per-tree timing. A
//! [`DataPolicy`] supplies only what the partitioning × storage choice
//! changes: how histograms are built and aggregated, how local best splits
//! become global ones, how instances are placed, and how leaf values reach
//! the scores. `grow` is generic, so every policy is monomorphized.
//!
//! Every hook is called by every rank at the same schedule point and
//! issues the same per-rank collective sequence; the driver itself has no
//! rank-dependent control flow, so the composed schedule stays symmetric
//! (DESIGN.md item 16). `gbdt-lint --model-check` verifies [`grow`] with
//! each protocol-bearing hook call as a rendezvous.

use crate::common::{
    choose_global_best, merge_tree_stats, subtraction_plan, worker_threads, DistTrainResult,
    Frontier, TreeStat,
};
use bytes::Bytes;
use gbdt_cluster::{Cluster, CommError, Phase, WorkerCtx};
use gbdt_core::histogram::HistogramPool;
use gbdt_core::indexes::NodeToInstanceIndex;
use gbdt_core::parallel::Meter;
use gbdt_core::split::{best_split_parallel, NodeStats, Split, SplitParams};
use gbdt_core::tree::{self, Tree};
use gbdt_core::{BinCuts, GbdtModel, GradBuffer, TrainConfig};
use gbdt_data::block::BlockedRows;
use gbdt_data::{FeatureId, InstanceId};
use gbdt_partition::transform::TransformOutput;
use gbdt_partition::{ColumnGrouping, PlacementBitmap};

/// One quadrant's data management, as hooks along the paper's axes.
pub(crate) trait DataPolicy {
    /// Turns this worker's root gradient sums into global ones and returns
    /// the global instance count. Workers holding every row (vertical
    /// partitioning, full replicas) already have both.
    fn global_root(
        &mut self,
        _ctx: &mut WorkerCtx,
        _stats: &mut NodeStats,
        n_local: u64,
    ) -> Result<u64, CommError> {
        Ok(n_local)
    }

    /// Builds, aggregates and subtracts the histograms of every node in
    /// `frontier`, so [`DataPolicy::best_split`] can read them.
    fn histograms(
        &mut self,
        ctx: &mut WorkerCtx,
        layer: usize,
        frontier: &Frontier,
        grads: &GradBuffer,
        meter: &Meter,
    ) -> Result<(), CommError>;

    /// This worker's best split of `node` (global feature id) among the
    /// candidate splits `cuts`, if any.
    fn best_split(&self, cuts: &BinCuts, node: u32, stats: &NodeStats) -> Option<Split>;

    /// Turns per-node local bests into the global decisions. Workers that
    /// searched a feature subset exchange them; workers that searched
    /// every feature of global histograms already hold the answer. A peer's
    /// split must carry sums for `n_outputs` classes, the trainer's C.
    fn resolve_splits(
        &mut self,
        ctx: &mut WorkerCtx,
        locals: Vec<Option<Split>>,
        n_outputs: usize,
    ) -> Result<Vec<Option<Split>>, CommError> {
        exchange_local_bests(ctx, &locals, n_outputs)
    }

    /// `node` became a leaf; its histogram is no longer needed.
    fn release(&mut self, _node: u32) {}

    /// Places the instances of every split node into its children and
    /// returns the global `(left, right)` counts, one pair per split.
    fn place(
        &mut self,
        ctx: &mut WorkerCtx,
        splits: &[(u32, Split)],
    ) -> Result<Vec<(u64, u64)>, CommError>;

    /// Adds each leaf's values to the scores of the instances it holds.
    fn add_leaf_scores(&self, tree: &Tree, leaves: &[u32], scores: &mut [f64]);

    /// Resets per-tree state (indexes, histogram pool) for the next tree.
    fn end_tree(&mut self, ctx: &mut WorkerCtx);
}

/// Runs [`grow`] on every worker of `cluster`, with crash recovery, and
/// assembles the result: rank 0's model plus straggler-gated per-tree
/// stats. `setup` builds the worker's policy and returns it with the global
/// candidate splits of all D features and the labels of the rows the
/// worker scores, in local row order.
pub(crate) fn train<P: DataPolicy>(
    cluster: &Cluster,
    config: &TrainConfig,
    setup: impl Fn(&mut WorkerCtx) -> Result<(P, BinCuts, Vec<f32>), CommError> + Sync,
) -> DistTrainResult {
    config.validate().expect("invalid training config");
    let (outputs, stats) = cluster.run_recoverable(|ctx| {
        let (mut policy, cuts, labels) = setup(ctx)?;
        grow(ctx, config, &cuts, &labels, &mut policy)
    });
    let (mut models, per_worker): (Vec<GbdtModel>, Vec<Vec<TreeStat>>) =
        outputs.into_iter().unzip();
    DistTrainResult { model: models.swap_remove(0), per_tree: merge_tree_stats(&per_worker), stats }
}

/// Per-tree recovery checkpoint saved at tree boundaries: the model so far,
/// this worker's raw prediction scores, and the per-tree timings. Replay
/// resumes at `model.trees.len()`; everything else (indexes, histogram
/// pools, gradients) is rebuilt per tree, so replay is deterministic.
type TreeCheckpoint = (GbdtModel, Vec<f64>, Vec<TreeStat>);

/// Grows `config.n_trees` trees layer by layer on this worker, whose rows
/// carry `labels`, splitting at the candidate splits `cuts`.
pub(crate) fn grow<P: DataPolicy>(
    ctx: &mut WorkerCtx,
    config: &TrainConfig,
    cuts: &BinCuts,
    labels: &[f32],
    policy: &mut P,
) -> Result<(GbdtModel, Vec<TreeStat>), CommError> {
    let c = config.n_outputs();
    let n = labels.len();
    let (objective, lambda, eta) = (config.objective, config.lambda, config.learning_rate);
    let meter = Meter::default();
    ctx.stats.threads = worker_threads(config, ctx.world()) as u64;

    let mut model = GbdtModel::new(objective, eta, cuts.n_features());
    let mut scores = model.init_scores.repeat(n);
    let mut grads = GradBuffer::new(n, c);
    // Per-tree (comp, comm) deltas start here: setup (sketch, binning,
    // transform) is not charged to the first tree.
    let lap = |ctx: &WorkerCtx| (ctx.stats.comp_total(), ctx.comm.counters().comm_seconds);
    let mut last = lap(ctx);
    let mut per_tree = Vec::with_capacity(config.n_trees);
    if let Some((m, s, p)) = ctx.load_checkpoint::<TreeCheckpoint>() {
        (model, scores, per_tree) = (m, s, p);
    }

    let start_tree = model.trees.len();
    for t in start_tree..config.n_trees {
        let mut root = NodeStats::zero(c);
        ctx.time(Phase::Gradients, || {
            objective.compute_gradients(&scores, labels, &mut grads);
            for i in 0..n {
                let (g, h) = grads.instance(i);
                for k in 0..c {
                    root.grads[k] += g[k];
                    root.hesses[k] += h[k];
                }
            }
        });
        let count = policy.global_root(ctx, &mut root, n as u64)?;
        let mut tree = Tree::new(config.n_layers, c);
        let mut frontier = Frontier::root(root, count);
        let mut leaves: Vec<u32> = Vec::new();

        for layer in 0..config.n_layers {
            ctx.fault_point(t, layer);
            if frontier.nodes.is_empty() {
                break;
            }
            if layer + 1 == config.n_layers {
                for &node in &frontier.nodes {
                    tree.set_leaf_from_stats(node, &frontier.stats[&node], lambda, eta);
                    leaves.push(node);
                }
                break;
            }

            policy.histograms(ctx, layer, &frontier, &grads, &meter)?;
            let locals = ctx.time(Phase::SplitFind, || {
                frontier
                    .nodes
                    .iter()
                    .map(|&node| {
                        if frontier.counts[&node] < config.min_node_instances as u64 {
                            return None;
                        }
                        policy.best_split(cuts, node, &frontier.stats[&node])
                    })
                    .collect()
            });
            let decisions = policy.resolve_splits(ctx, locals, c)?;

            let mut splits: Vec<(u32, Split)> = Vec::new();
            for (&node, decision) in frontier.nodes.iter().zip(decisions) {
                match decision {
                    Some(split) => {
                        let threshold = cuts.threshold(split.feature, split.bin);
                        tree.set_internal_with_gain(
                            node,
                            split.feature,
                            split.bin,
                            threshold,
                            split.default_left,
                            split.gain,
                        );
                        splits.push((node, split));
                    }
                    None => {
                        tree.set_leaf_from_stats(node, &frontier.stats[&node], lambda, eta);
                        leaves.push(node);
                        policy.release(node);
                    }
                }
            }
            let counts = policy.place(ctx, &splits)?;
            let mut next = Frontier::default();
            for ((node, split), (lc, rc)) in splits.iter().zip(counts) {
                Frontier::push_children(&mut next, *node, split, lc, rc);
            }
            frontier = next;
        }

        ctx.time(Phase::Predict, || policy.add_leaf_scores(&tree, &leaves, &mut scores));
        policy.end_tree(ctx);
        model.trees.push(tree);
        let now = lap(ctx);
        per_tree.push(TreeStat { comp_seconds: now.0 - last.0, comm_seconds: now.1 - last.1 });
        last = now;
        // Fault-free runs attach no store and so pay no clone.
        if ctx.has_checkpoint_store() {
            ctx.save_checkpoint(&(model.clone(), scores.clone(), per_tree.clone()));
        }
    }
    ctx.stats.parallel_wall_seconds = meter.wall_seconds();
    ctx.stats.parallel_busy_seconds = meter.busy_seconds();
    Ok((model, per_tree))
}

/// The layer's histogram schedule: on layer 0 the root alone; below it,
/// per sibling pair, the child to build (the one with fewer instances,
/// §2.1.2) and the `(parent, sibling)` to derive from it by subtraction.
pub(crate) fn subtraction_schedule(
    layer: usize,
    frontier: &Frontier,
) -> Vec<(u32, Option<(u32, u32)>)> {
    if layer == 0 {
        return vec![(0, None)];
    }
    frontier
        .nodes
        .chunks_exact(2)
        .map(|pair| {
            let (l, r) = (pair[0], pair[1]);
            let (build_left, _) = subtraction_plan(frontier.counts[&l], frontier.counts[&r]);
            let (b, s) = if build_left { (l, r) } else { (r, l) };
            (b, Some((tree::parent(l), s)))
        })
        .collect()
}

/// [`DataPolicy::add_leaf_scores`] for node-to-instance indexes.
pub(crate) fn add_leaf_scores(
    index: &NodeToInstanceIndex,
    tree: &Tree,
    leaves: &[u32],
    scores: &mut [f64],
) {
    for &leaf in leaves {
        let values = tree.leaf_values(leaf);
        for &i in index.instances(leaf) {
            let base = i as usize * values.len();
            for (k, &v) in values.iter().enumerate() {
                scores[base + k] += v;
            }
        }
    }
}

/// All-gathers per-node local best splits and resolves each node's global
/// best deterministically. Used by every policy that finds splits on a
/// feature subset (QD2-sharded, QD3, QD4, Yggdrasil, feature-parallel).
/// A peer split over other than `n_outputs` classes is malformed.
pub(crate) fn exchange_local_bests(
    ctx: &mut WorkerCtx,
    locals: &[Option<Split>],
    n_outputs: usize,
) -> Result<Vec<Option<Split>>, CommError> {
    let gathered = ctx.comm.all_gather(Bytes::from(encode_local_bests(locals)))?;
    let mut per_worker = Vec::with_capacity(gathered.len());
    for (from, buf) in gathered.iter().enumerate() {
        per_worker.push(decode_local_bests(from, buf, locals.len(), n_outputs)?);
    }
    Ok((0..locals.len())
        .map(|k| choose_global_best(per_worker.iter().map(|w| w[k].clone())))
        .collect())
}

/// The frame: a u32 node count, then per node a presence byte and, when
/// present, the length-prefixed split bytes.
fn encode_local_bests(locals: &[Option<Split>]) -> Vec<u8> {
    let mut out = (locals.len() as u32).to_le_bytes().to_vec();
    for s in locals {
        match s {
            Some(split) => {
                let bytes = split.encode_bytes();
                out.push(1);
                out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
                out.extend_from_slice(&bytes);
            }
            None => out.push(0),
        }
    }
    out
}

/// Decodes rank `from`'s frame of [`encode_local_bests`], which must
/// hold exactly `n` entries, each over `n_outputs` classes, and nothing
/// after them.
fn decode_local_bests(
    from: usize,
    buf: &[u8],
    n: usize,
    n_outputs: usize,
) -> Result<Vec<Option<Split>>, CommError> {
    let malformed = || CommError::Malformed { from };
    let mut rest = buf;
    if read_u32(&mut rest, from)? != n {
        return Err(malformed());
    }
    let mut list = Vec::with_capacity(n);
    for _ in 0..n {
        match take(&mut rest, 1, from)? {
            [0] => list.push(None),
            [1] => {
                let len = read_u32(&mut rest, from)?;
                let split = Split::decode_bytes(take(&mut rest, len, from)?)
                    .filter(|s| s.left.n_outputs() == n_outputs)
                    .ok_or_else(malformed)?;
                list.push(Some(split));
            }
            _ => return Err(malformed()),
        }
    }
    if rest.is_empty() {
        Ok(list)
    } else {
        Err(malformed())
    }
}

/// Splits the first `len` bytes off `rest`, or fails on a short frame.
fn take<'a>(rest: &mut &'a [u8], len: usize, from: usize) -> Result<&'a [u8], CommError> {
    if rest.len() < len {
        return Err(CommError::Malformed { from });
    }
    let (head, tail) = rest.split_at(len);
    *rest = tail;
    Ok(head)
}

fn read_u32(rest: &mut &[u8], from: usize) -> Result<usize, CommError> {
    let mut word = [0u8; 4];
    word.copy_from_slice(take(rest, 4, from)?);
    Ok(u32::from_le_bytes(word) as usize)
}

/// How a vertical column group is stored and indexed: the only axis QD3,
/// QD4 and Yggdrasil differ on (§5.2.2). Everything else — the shared
/// node-to-instance index, histogram subtraction, local best splits, the
/// bitmap broadcast — is [`Vertical`]'s.
pub(crate) trait ColumnGroup {
    /// Heap bytes of the stored column group.
    fn heap_bytes(&self) -> usize;

    /// Heap bytes of any index the store keeps beside the shared
    /// node-to-instance index.
    fn index_bytes(&self) -> usize {
        0
    }

    /// Builds `node`'s histogram over the local features into `pool`.
    fn build_histogram(
        &self,
        pool: &mut HistogramPool,
        node: u32,
        index: &NodeToInstanceIndex,
        grads: &GradBuffer,
        threads: usize,
        meter: &Meter,
    );

    /// On the owner of the split feature (group-local id `local`): bit `k`
    /// is set when the `k`-th instance of `node` (in index order) goes
    /// left.
    fn owner_bitmap(
        &self,
        index: &NodeToInstanceIndex,
        node: u32,
        local: FeatureId,
        split: &Split,
    ) -> PlacementBitmap;

    /// Mirrors a split of `node` (`left` gives each instance's side) into
    /// any index the store keeps beside the shared one.
    fn mirror_split(&mut self, _node: u32, _left: impl Fn(InstanceId) -> bool) {}

    /// Resets store-side indexes at the end of a tree.
    fn end_tree(&mut self, _ctx: &mut WorkerCtx) {}
}

/// Vertical partitioning (§4.2.2): each worker holds all N rows of its
/// column group. Histograms cover local features only and are never
/// aggregated; local best splits are exchanged; the split feature's owner
/// broadcasts the placement as a `⌈N/8⌉`-byte bitmap that every worker
/// applies to its identical index. Per layer that is `O(N/8 · W)` traffic
/// regardless of D, q, C or depth, and no histogram ever crosses the wire,
/// so every [`TrainConfig::wire`] codec trains the identical ensemble.
pub(crate) struct Vertical<S> {
    params: SplitParams,
    threads: usize,
    rank: usize,
    subtraction: bool,
    grouping: ColumnGrouping,
    index: NodeToInstanceIndex,
    pool: HistogramPool,
    store: S,
    /// Scratch: each instance's side in the split being applied.
    left: Vec<bool>,
}

impl<S: ColumnGroup> Vertical<S> {
    /// Stores the transformed column group with `store`; returns the
    /// policy with the global cuts and the labels of all N rows.
    /// `subtraction` off is QD4's ablation: both children are built
    /// directly.
    pub(crate) fn new(
        ctx: &mut WorkerCtx,
        config: &TrainConfig,
        transformed: TransformOutput,
        subtraction: bool,
        store: impl FnOnce(&mut WorkerCtx, BlockedRows) -> S,
    ) -> (Self, BinCuts, Vec<f32>) {
        let TransformOutput { cuts, grouping, local_data, labels, .. } = transformed;
        let rank = ctx.rank();
        let (n, p_local) = (local_data.n_rows(), grouping.group_len(rank));
        let store = store(ctx, local_data);
        let index = NodeToInstanceIndex::new(n);
        ctx.stats.data_bytes = (store.heap_bytes() + labels.len() * 4) as u64;
        ctx.stats.index_bytes = (index.heap_bytes() + store.index_bytes()) as u64;
        let policy = Vertical {
            params: SplitParams::from_config(config),
            threads: worker_threads(config, ctx.world()),
            rank,
            subtraction,
            grouping,
            index,
            pool: HistogramPool::new(p_local, config.n_bins, config.n_outputs()),
            store,
            left: vec![false; n],
        };
        (policy, cuts, labels)
    }
}

impl<S: ColumnGroup> DataPolicy for Vertical<S> {
    fn histograms(
        &mut self,
        ctx: &mut WorkerCtx,
        layer: usize,
        frontier: &Frontier,
        grads: &GradBuffer,
        meter: &Meter,
    ) -> Result<(), CommError> {
        let (store, pool, index, threads) =
            (&self.store, &mut self.pool, &self.index, self.threads);
        ctx.time(Phase::HistogramBuild, || {
            if layer == 0 || self.subtraction {
                for (built, derive) in subtraction_schedule(layer, frontier) {
                    store.build_histogram(pool, built, index, grads, threads, meter);
                    if let Some((parent, sibling)) = derive {
                        pool.subtract_sibling(parent, built, sibling);
                    }
                }
            } else {
                // Both children built from their instances; parent
                // histograms are dropped.
                for &node in &frontier.nodes {
                    store.build_histogram(pool, node, index, grads, threads, meter);
                    pool.release(tree::parent(node));
                }
            }
        });
        ctx.stats.histogram_peak_bytes = self.pool.peak_bytes() as u64;
        Ok(())
    }

    fn best_split(&self, cuts: &BinCuts, node: u32, stats: &NodeStats) -> Option<Split> {
        let (grouping, rank) = (&self.grouping, self.rank);
        let to_global = |f| grouping.global_id(rank, f);
        best_split_parallel(
            self.pool.get(node).expect("histogram live"),
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

    fn place(
        &mut self,
        ctx: &mut WorkerCtx,
        splits: &[(u32, Split)],
    ) -> Result<Vec<(u64, u64)>, CommError> {
        let mut counts = Vec::with_capacity(splits.len());
        for (node, split) in splits {
            let owner = self.grouping.group_of(split.feature);
            let payload = if ctx.rank() == owner {
                let local = self.grouping.local_id(split.feature);
                let bm = ctx.time(Phase::NodeSplit, || {
                    self.store.owner_bitmap(&self.index, *node, local, split)
                });
                Bytes::from(bm.encode_bytes())
            } else {
                Bytes::new()
            };
            let payload = ctx.comm.broadcast(owner, payload)?;
            let bitmap = decode_placement(owner, &payload, self.index.count(*node))?;
            let (lc, rc) = ctx.time(Phase::NodeSplit, || {
                // Bit k is the k-th instance of the node in index order.
                for (k, &inst) in self.index.instances(*node).iter().enumerate() {
                    self.left[inst as usize] = bitmap.goes_left(k);
                }
                let left = &self.left;
                self.store.mirror_split(*node, |i| left[i as usize]);
                self.index.split(*node, |i| left[i as usize])
            });
            counts.push((lc as u64, rc as u64));
        }
        Ok(counts)
    }

    /// Identical work on every worker, keeping their states in lockstep.
    fn add_leaf_scores(&self, tree: &Tree, leaves: &[u32], scores: &mut [f64]) {
        add_leaf_scores(&self.index, tree, leaves, scores);
    }

    fn end_tree(&mut self, ctx: &mut WorkerCtx) {
        self.pool.release_all();
        self.index.reset();
        self.store.end_tree(ctx);
    }
}

/// Decodes the owner's placement frame, which must cover exactly `n_bits`
/// instances.
fn decode_placement(
    owner: usize,
    payload: &[u8],
    n_bits: usize,
) -> Result<PlacementBitmap, CommError> {
    PlacementBitmap::decode_bytes(payload)
        .filter(|bm| bm.len() == n_bits)
        .ok_or(CommError::Malformed { from: owner })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(feature: u32) -> Split {
        Split {
            feature,
            bin: 3,
            default_left: true,
            gain: 1.5,
            left: NodeStats::zero(2),
            right: NodeStats::zero(2),
        }
    }

    #[test]
    fn local_bests_round_trip() {
        let locals = vec![Some(split(4)), None, Some(split(7))];
        assert_eq!(decode_local_bests(1, &encode_local_bests(&locals), 3, 2), Ok(locals));
    }

    #[test]
    fn malformed_local_best_frames_are_errors() {
        let good = encode_local_bests(&[Some(split(4)), None]);
        let bad = || Err(CommError::Malformed { from: 2 });
        // Truncated anywhere: header, presence byte, length prefix, body.
        for cut in 0..good.len() {
            assert_eq!(decode_local_bests(2, &good[..cut], 2, 2), bad(), "cut at {cut}");
        }
        // A split length inflated past the frame.
        let mut inflated = good.clone();
        inflated[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_local_bests(2, &inflated, 2, 2), bad());
        // Trailing bytes, a node count that disagrees, a bad presence byte.
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(decode_local_bests(2, &trailing, 2, 2), bad());
        assert_eq!(decode_local_bests(2, &good, 3, 2), bad());
        let mut presence = good;
        presence[4] = 7;
        assert_eq!(decode_local_bests(2, &presence, 2, 2), bad());
    }

    /// Re-frames one split's bytes as a one-node local-bests frame.
    fn framed(split_bytes: &[u8]) -> Vec<u8> {
        let mut frame = 1u32.to_le_bytes().to_vec();
        frame.push(1);
        frame.extend_from_slice(&(split_bytes.len() as u32).to_le_bytes());
        frame.extend_from_slice(split_bytes);
        frame
    }

    #[test]
    fn hostile_split_bodies_are_errors() {
        let bad = || Err(CommError::Malformed { from: 3 });
        let body = split(4).encode_bytes();
        assert!(decode_local_bests(3, &framed(&body), 1, 2).is_ok());
        // A well-formed split over a class count the trainer does not use.
        assert_eq!(decode_local_bests(3, &framed(&body), 1, 3), bad(), "peer C differs");
        // Left and right disagreeing on C.
        let mut mixed = split(4);
        mixed.right = NodeStats::zero(3);
        assert_eq!(decode_local_bests(3, &framed(&mixed.encode_bytes()), 1, 2), bad());
        // The left-side length prefix, then the left class count, at u32::MAX.
        let mut long_left = body.clone();
        long_left[15..19].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_local_bests(3, &framed(&long_left), 1, 2), bad(), "left_len");
        let mut huge_c = body.clone();
        huge_c[19..23].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_local_bests(3, &framed(&huge_c), 1, 2), bad(), "c = u32::MAX");
        // A trailing byte inside the split body.
        let mut trailing = body;
        trailing.push(0);
        assert_eq!(decode_local_bests(3, &framed(&trailing), 1, 2), bad(), "trailing byte");
    }

    #[test]
    fn placement_frames_must_match_the_node() {
        let bm = PlacementBitmap::from_predicate(20, |k| k % 3 == 0);
        let bytes = bm.encode_bytes();
        assert_eq!(decode_placement(1, &bytes, 20), Ok(bm));
        let bad = || Err(CommError::Malformed { from: 1 });
        assert_eq!(decode_placement(1, &bytes, 21), bad(), "wrong bit count");
        assert_eq!(decode_placement(1, &bytes[..bytes.len() - 1], 20), bad(), "truncated");
        let mut inflated = bytes.clone();
        inflated[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_placement(1, &inflated, 20), bad(), "length-inflated");
    }
}
