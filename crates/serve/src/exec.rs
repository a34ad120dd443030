//! Execution strategies over a [`CompiledEnsemble`].
//!
//! Two interchangeable strategies implement [`ExecStrategy`], mirroring
//! the query-execution comparison of the decision-forest inference paper:
//!
//! * [`PerRow`] — tuple-at-a-time: each row traverses all trees, with
//!   4 trees interleaved in lockstep so the independent node fetches
//!   overlap (the self-looping leaf encoding makes lockstep safe — a
//!   lane that finishes early just spins on its leaf).
//! * [`Blocked`] — block-at-a-time: rows are processed in tiles and
//!   trees in blocks sized to stay L1-resident, so a block's nodes are
//!   fetched once and reused across the whole tile instead of being
//!   evicted between rows.
//!
//! Both accumulate scores in ascending tree order starting from the
//! model's init scores, which makes every strategy bit-identical to
//! [`GbdtModel::predict_row_into`] — the determinism contract the rest
//! of the repo pins.
//!
//! Rows are dense `f32` slices of width `ens.n_features`; a `NaN` cell
//! means *missing* and routes by the split's default direction, matching
//! the sparse predictor's semantics (see [`nan_dense_rows`]).
//!
//! Each strategy also exists over the 8-byte quantized node layout
//! ([`QuantPerRow`], [`QuantBlocked`], selected via [`Layout`]): the
//! traversal loops are monomorphized over a [`NodeView`], so the flat
//! and quantized walkers are the *same code* over different node
//! decodings — and since the quantized tables hold the exact original
//! `f32` cuts, both layouts are bit-identical by construction.
//!
//! [`GbdtModel::predict_row_into`]: gbdt_core::model::GbdtModel::predict_row_into

use crate::compile::{
    CompiledEnsemble, FlatNode, QuantNode, QUANT_DEFAULT_LEFT_BIT, QUANT_LINK_MASK,
};
use gbdt_data::dataset::{Dataset, FeatureMatrix};
use std::str::FromStr;

/// A borrowed node array the traversal loops monomorphize over: one
/// branchless step plus leaf-payload decoding.
trait NodeView: Copy {
    /// One traversal step: returns the next tree-local slot.
    fn step(&self, base: u32, idx: u32, row: &[f32]) -> u32;
    /// Leaf-value pool offset of the (leaf) node at `base + idx`.
    fn payload(&self, base: u32, idx: u32) -> usize;
}

/// The 16-byte [`FlatNode`] array.
#[derive(Clone, Copy)]
struct FlatView<'a> {
    nodes: &'a [FlatNode],
}

impl NodeView for FlatView<'_> {
    /// `go_left = (v <= t) | (isnan(v) & default_left)`; the taken child
    /// is `left + (1 − go_left)` because siblings are adjacent. Leaves
    /// encode `threshold = +∞`, `default_left = 1`, `left = self`, so
    /// they always "go left" into themselves.
    #[inline(always)]
    fn step(&self, base: u32, idx: u32, row: &[f32]) -> u32 {
        let n = self.nodes[(base + idx) as usize];
        let v = row[n.feature() as usize];
        let go_left = u32::from(v <= n.threshold) | (u32::from(v.is_nan()) & n.default_left());
        n.left + 1 - go_left
    }

    #[inline(always)]
    fn payload(&self, base: u32, idx: u32) -> usize {
        self.nodes[(base + idx) as usize].payload as usize
    }
}

/// The 8-byte [`QuantNode`] array plus its per-feature cut tables.
#[derive(Clone, Copy)]
struct QuantView<'a> {
    nodes: &'a [QuantNode],
    cut_base: &'a [u32],
    cuts: &'a [f32],
}

impl NodeView for QuantView<'_> {
    /// Identical comparison to the flat step — `cuts[..]` holds the
    /// exact original `f32` — with one extra branchless select: leaves
    /// (`slot == 0`, threshold reads as the `+∞` sentinel) self-loop by
    /// keeping `idx` instead of following the link, because their `meta`
    /// link bits hold the payload, not a child slot.
    #[inline(always)]
    fn step(&self, base: u32, idx: u32, row: &[f32]) -> u32 {
        let n = self.nodes[(base + idx) as usize];
        let f = n.feat as usize;
        let v = row[f];
        let t = self.cuts[(self.cut_base[f] + n.slot as u32) as usize];
        let dl = u32::from(n.meta & QUANT_DEFAULT_LEFT_BIT != 0);
        let go_left = u32::from(v <= t) | (u32::from(v.is_nan()) & dl);
        let leaf = u32::from(n.slot == 0);
        leaf * idx + (1 - leaf) * ((n.meta & QUANT_LINK_MASK) + 1 - go_left)
    }

    #[inline(always)]
    fn payload(&self, base: u32, idx: u32) -> usize {
        (self.nodes[(base + idx) as usize].meta & QUANT_LINK_MASK) as usize
    }
}

/// Adds tree `t`'s reached-leaf outputs for `row` into `out`.
#[inline(always)]
fn accumulate_leaf<V: NodeView>(
    ens: &CompiledEnsemble,
    view: V,
    t: usize,
    idx: u32,
    out: &mut [f64],
) {
    let p = view.payload(ens.tree_off[t], idx);
    for (o, v) in out.iter_mut().zip(&ens.leaf_values[p..p + ens.n_outputs]) {
        *o += v;
    }
}

#[inline]
fn flat_view(ens: &CompiledEnsemble) -> FlatView<'_> {
    FlatView { nodes: &ens.nodes }
}

/// A batch-scoring strategy over a compiled ensemble.
pub trait ExecStrategy {
    /// Short name used in grids and reports.
    fn label(&self) -> String;

    /// Scores `rows` (row-major, `rows.len() / ens.n_features` rows of
    /// width `ens.n_features`) into `out` (row-major,
    /// `n_rows × ens.n_outputs`, fully overwritten).
    fn predict_into(&self, ens: &CompiledEnsemble, rows: &[f32], out: &mut [f64]) {
        self.predict_prefix_into(ens, rows, usize::MAX, out);
    }

    /// Like [`Self::predict_into`] but scores only the first
    /// `max_trees.min(n_trees)` trees — the degraded-mode prefix. Because
    /// every strategy accumulates in ascending tree order, a `k`-tree
    /// prefix is bit-identical to scoring a model truncated to its first
    /// `k` trees; `usize::MAX` (or anything ≥ `n_trees`) is a full score.
    fn predict_prefix_into(
        &self,
        ens: &CompiledEnsemble,
        rows: &[f32],
        max_trees: usize,
        out: &mut [f64],
    );
}

fn check_shapes(ens: &CompiledEnsemble, rows: &[f32], out: &[f64]) -> usize {
    assert_eq!(rows.len() % ens.n_features, 0, "ragged row buffer");
    let n_rows = rows.len() / ens.n_features;
    assert_eq!(out.len(), n_rows * ens.n_outputs, "output shape mismatch");
    n_rows
}

/// Tuple-at-a-time execution with 4-way tree interleaving.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerRow;

/// Trees interleaved per row: enough lanes to overlap dependent node
/// fetches, few enough that all lanes' paths stay cache-resident.
const LANES: usize = 4;

/// The per-row traversal, monomorphized over the node layout.
fn per_row_prefix<V: NodeView>(
    ens: &CompiledEnsemble,
    view: V,
    rows: &[f32],
    max_trees: usize,
    out: &mut [f64],
) {
    let n_rows = check_shapes(ens, rows, out);
    let n_trees = ens.n_trees().min(max_trees);
    for r in 0..n_rows {
        let row = &rows[r * ens.n_features..(r + 1) * ens.n_features];
        let o = &mut out[r * ens.n_outputs..(r + 1) * ens.n_outputs];
        o.copy_from_slice(&ens.init_scores);
        let mut t = 0usize;
        while t < n_trees {
            let lanes = LANES.min(n_trees - t);
            let mut idx = [0u32; LANES];
            // All lanes walk the deepest lane's step count; shallower
            // lanes reach their leaf early and self-loop.
            let steps = ens.tree_steps[t..t + lanes].iter().copied().max().unwrap_or(0);
            for _ in 0..steps {
                for (l, slot) in idx.iter_mut().enumerate().take(lanes) {
                    *slot = view.step(ens.tree_off[t + l], *slot, row);
                }
            }
            // Leaf sums applied in ascending tree order (bit-identity).
            for (l, slot) in idx.iter().enumerate().take(lanes) {
                accumulate_leaf(ens, view, t + l, *slot, o);
            }
            t += lanes;
        }
    }
}

impl ExecStrategy for PerRow {
    fn label(&self) -> String {
        "per-row".into()
    }

    fn predict_prefix_into(
        &self,
        ens: &CompiledEnsemble,
        rows: &[f32],
        max_trees: usize,
        out: &mut [f64],
    ) {
        per_row_prefix(ens, flat_view(ens), rows, max_trees, out);
    }
}

/// [`PerRow`] over the 8-byte quantized nodes (falls back to the flat
/// nodes when [`CompiledEnsemble::quant`] is absent — same bits, larger
/// footprint).
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantPerRow;

impl ExecStrategy for QuantPerRow {
    fn label(&self) -> String {
        "per-row@quant".into()
    }

    fn predict_prefix_into(
        &self,
        ens: &CompiledEnsemble,
        rows: &[f32],
        max_trees: usize,
        out: &mut [f64],
    ) {
        match &ens.quant {
            Some(q) => per_row_prefix(
                ens,
                QuantView { nodes: &q.nodes, cut_base: &q.cut_base, cuts: &q.cuts },
                rows,
                max_trees,
                out,
            ),
            None => per_row_prefix(ens, flat_view(ens), rows, max_trees, out),
        }
    }
}

/// Block-at-a-time execution: row tiles × L1-resident tree blocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Blocked {
    /// Trees per block; `0` sizes blocks by node count so each block's
    /// flat nodes fit comfortably in L1d.
    pub trees_per_block: usize,
}

/// Rows per tile: small enough that a tile's rows + partial outputs stay
/// cached while a tree block streams over them.
const ROW_TILE: usize = 64;

/// Auto block budget: 1024 nodes × 16 B = 16 KiB, half a typical L1d,
/// leaving room for the row tile.
const BLOCK_NODE_BUDGET: u32 = 1024;

/// Auto block budget over 8-byte quantized nodes: the same 16 KiB of
/// L1d holds twice the trees per block.
const QUANT_BLOCK_NODE_BUDGET: u32 = 2048;

/// Greedy block boundaries: consecutive trees packed until the node
/// budget (or fixed tree count) is reached. Every tree lands in exactly
/// one block, in ascending order.
fn tree_blocks(
    ens: &CompiledEnsemble,
    trees_per_block: usize,
    node_budget: u32,
) -> Vec<(usize, usize)> {
    let n_trees = ens.n_trees();
    let mut blocks = Vec::new();
    let mut start = 0usize;
    while start < n_trees {
        let mut end = start + 1;
        if trees_per_block > 0 {
            end = (start + trees_per_block).min(n_trees);
        } else {
            while end < n_trees && ens.tree_off[end + 1] - ens.tree_off[start] <= node_budget {
                end += 1;
            }
        }
        blocks.push((start, end));
        start = end;
    }
    blocks
}

impl Blocked {
    fn blocks(&self, ens: &CompiledEnsemble) -> Vec<(usize, usize)> {
        tree_blocks(ens, self.trees_per_block, BLOCK_NODE_BUDGET)
    }
}

/// The blocked traversal, monomorphized over the node layout.
fn blocked_prefix<V: NodeView>(
    ens: &CompiledEnsemble,
    view: V,
    blocks: &[(usize, usize)],
    rows: &[f32],
    max_trees: usize,
    out: &mut [f64],
) {
    let n_rows = check_shapes(ens, rows, out);
    let limit = ens.n_trees().min(max_trees);
    for o in out.chunks_exact_mut(ens.n_outputs) {
        o.copy_from_slice(&ens.init_scores);
    }
    let mut tile_start = 0usize;
    while tile_start < n_rows {
        let tile_end = (tile_start + ROW_TILE).min(n_rows);
        // Ascending blocks, ascending trees within a block, so each
        // row's accumulation order is ascending tree order — the same
        // f64 addition sequence as the per-row strategy.
        for &(bs, be) in blocks {
            if bs >= limit {
                break;
            }
            for r in tile_start..tile_end {
                let row = &rows[r * ens.n_features..(r + 1) * ens.n_features];
                let o = &mut out[r * ens.n_outputs..(r + 1) * ens.n_outputs];
                for t in bs..be.min(limit) {
                    let mut idx = 0u32;
                    for _ in 0..ens.tree_steps[t] {
                        idx = view.step(ens.tree_off[t], idx, row);
                    }
                    accumulate_leaf(ens, view, t, idx, o);
                }
            }
        }
        tile_start = tile_end;
    }
}

impl ExecStrategy for Blocked {
    fn label(&self) -> String {
        match self.trees_per_block {
            0 => "blocked".into(),
            n => format!("blocked:{n}"),
        }
    }

    fn predict_prefix_into(
        &self,
        ens: &CompiledEnsemble,
        rows: &[f32],
        max_trees: usize,
        out: &mut [f64],
    ) {
        blocked_prefix(ens, flat_view(ens), &self.blocks(ens), rows, max_trees, out);
    }
}

/// [`Blocked`] over the 8-byte quantized nodes; auto blocks pack twice
/// the trees into the same L1 budget (falls back to flat when
/// [`CompiledEnsemble::quant`] is absent).
#[derive(Debug, Clone, Copy, Default)]
pub struct QuantBlocked {
    /// Trees per block; `0` sizes blocks by the quantized node budget.
    pub trees_per_block: usize,
}

impl ExecStrategy for QuantBlocked {
    fn label(&self) -> String {
        match self.trees_per_block {
            0 => "blocked@quant".into(),
            n => format!("blocked:{n}@quant"),
        }
    }

    fn predict_prefix_into(
        &self,
        ens: &CompiledEnsemble,
        rows: &[f32],
        max_trees: usize,
        out: &mut [f64],
    ) {
        match &ens.quant {
            Some(q) => {
                let blocks = tree_blocks(ens, self.trees_per_block, QUANT_BLOCK_NODE_BUDGET);
                let view = QuantView { nodes: &q.nodes, cut_base: &q.cut_base, cuts: &q.cuts };
                blocked_prefix(ens, view, &blocks, rows, max_trees, out);
            }
            None => {
                let blocks = tree_blocks(ens, self.trees_per_block, BLOCK_NODE_BUDGET);
                blocked_prefix(ens, flat_view(ens), &blocks, rows, max_trees, out);
            }
        }
    }
}

/// A CLI-selectable strategy (grids, the serve bench, CI smokes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// [`PerRow`].
    PerRow,
    /// [`Blocked`] with its `trees_per_block` knob (0 = auto).
    Blocked(usize),
}

/// A CLI-selectable compiled-node layout (orthogonal to [`Strategy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Layout {
    /// 16-byte [`FlatNode`]s — the default.
    #[default]
    Flat,
    /// 8-byte [`QuantNode`]s with per-feature exact-cut tables; scoring
    /// is bit-identical to flat, the working set roughly halves.
    Quant,
}

impl Layout {
    /// Grid/report label (round-trips through [`FromStr`]).
    pub fn label(&self) -> &'static str {
        match self {
            Layout::Flat => "flat",
            Layout::Quant => "quant",
        }
    }
}

impl FromStr for Layout {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "flat" => Ok(Layout::Flat),
            "quant" => Ok(Layout::Quant),
            _ => Err(format!("unknown layout {s:?} (expected flat or quant)")),
        }
    }
}

impl Strategy {
    /// The executor this name selects, over the flat layout.
    pub fn executor(&self) -> Box<dyn ExecStrategy + Send + Sync> {
        self.executor_for(Layout::Flat)
    }

    /// The executor for this strategy over the given node layout.
    pub fn executor_for(&self, layout: Layout) -> Box<dyn ExecStrategy + Send + Sync> {
        match (*self, layout) {
            (Strategy::PerRow, Layout::Flat) => Box::new(PerRow),
            (Strategy::PerRow, Layout::Quant) => Box::new(QuantPerRow),
            (Strategy::Blocked(n), Layout::Flat) => Box::new(Blocked { trees_per_block: n }),
            (Strategy::Blocked(n), Layout::Quant) => {
                Box::new(QuantBlocked { trees_per_block: n })
            }
        }
    }

    /// Grid/report label (round-trips through [`FromStr`]).
    pub fn label(&self) -> String {
        self.executor().label()
    }
}

impl FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "per-row" => Ok(Strategy::PerRow),
            "blocked" => Ok(Strategy::Blocked(0)),
            _ => match s.strip_prefix("blocked:") {
                Some(n) => n
                    .parse::<usize>()
                    .map(Strategy::Blocked)
                    .map_err(|e| format!("bad trees_per_block in {s:?}: {e}")),
                None => Err(format!(
                    "unknown strategy {s:?} (expected per-row, blocked, or blocked:N)"
                )),
            },
        }
    }
}

/// Converts a dataset to the dense NaN-for-missing row buffer the
/// executors consume, `n_features` wide per row.
///
/// Sparse rows leave absent features as `NaN` so they route by default
/// direction — exactly the [`GbdtModel::predict_row_into`] semantics.
/// Dense datasets are copied verbatim (they carry no missing values).
///
/// [`GbdtModel::predict_row_into`]: gbdt_core::model::GbdtModel::predict_row_into
pub fn nan_dense_rows(dataset: &Dataset, n_features: usize) -> Vec<f32> {
    match &dataset.features {
        FeatureMatrix::Sparse(csr) => {
            let mut rows = vec![f32::NAN; dataset.n_instances() * n_features];
            for (i, feats, vals) in csr.iter_rows() {
                let row = &mut rows[i * n_features..(i + 1) * n_features];
                for (&f, &v) in feats.iter().zip(vals) {
                    if (f as usize) < n_features {
                        row[f as usize] = v;
                    }
                }
            }
            rows
        }
        FeatureMatrix::Dense(dense) => {
            let mut rows = Vec::with_capacity(dense.n_rows() * n_features);
            for i in 0..dense.n_rows() {
                let row = dense.row(i);
                rows.extend_from_slice(&row[..row.len().min(n_features)]);
                rows.extend(std::iter::repeat_n(f32::NAN, n_features.saturating_sub(row.len())));
            }
            rows
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use gbdt_core::model::GbdtModel;
    use gbdt_core::tree::Tree;
    use gbdt_core::Objective;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// Random complete-indexed tree over `n_features` features.
    fn random_tree(seed: &mut u64, n_layers: usize, n_outputs: usize, n_features: u32) -> Tree {
        let mut tree = Tree::new(n_layers, n_outputs);
        let mut frontier = vec![0u32];
        let max = gbdt_core::tree::max_nodes(n_layers) as u32;
        while let Some(id) = frontier.pop() {
            let can_split = gbdt_core::tree::children(id).1 < max;
            if can_split && splitmix(seed) % 10 < 7 {
                tree.set_internal(
                    id,
                    (splitmix(seed) % n_features as u64) as u32,
                    (splitmix(seed) % 32) as u16,
                    (unit(seed) * 2.0) as f32,
                    splitmix(seed).is_multiple_of(2),
                );
                let (l, r) = gbdt_core::tree::children(id);
                frontier.push(l);
                frontier.push(r);
            } else {
                tree.set_leaf(id, &(0..n_outputs).map(|_| unit(seed)).collect::<Vec<_>>());
            }
        }
        tree
    }

    fn random_model(seed: u64, n_trees: usize, n_features: usize, c: usize) -> GbdtModel {
        let objective = if c == 1 {
            Objective::SquaredError
        } else {
            Objective::Softmax { n_classes: c }
        };
        let mut m = GbdtModel::new(objective, 0.1, n_features);
        let mut state = seed;
        for _ in 0..n_trees {
            m.trees.push(random_tree(&mut state, 5, c, n_features as u32));
        }
        m
    }

    /// Random rows with ~20% missing (NaN) cells.
    fn random_rows(seed: u64, n_rows: usize, n_features: usize) -> Vec<f32> {
        let mut state = seed;
        (0..n_rows * n_features)
            .map(|_| {
                if splitmix(&mut state).is_multiple_of(5) {
                    f32::NAN
                } else {
                    (unit(&mut state) * 3.0) as f32
                }
            })
            .collect()
    }

    /// Reference scores via the tree-walk predictor (sparse row built
    /// from the non-NaN cells, so missing routes by default direction).
    fn reference(model: &GbdtModel, rows: &[f32], n_features: usize) -> Vec<f64> {
        let c = model.n_outputs();
        let mut out = vec![0.0; rows.len() / n_features * c];
        for (r, row) in rows.chunks_exact(n_features).enumerate() {
            let mut feats = Vec::new();
            let mut vals = Vec::new();
            for (f, &v) in row.iter().enumerate() {
                if !v.is_nan() {
                    feats.push(f as u32);
                    vals.push(v);
                }
            }
            model.predict_row_into(&feats, &vals, &mut out[r * c..(r + 1) * c]);
        }
        out
    }

    #[test]
    fn strategies_bit_identical_to_tree_walk() {
        for (seed, n_trees, c) in [(1u64, 1usize, 1usize), (2, 13, 1), (3, 40, 3), (4, 7, 2)] {
            let n_features = 9;
            let model = random_model(seed, n_trees, n_features, c);
            let ens = compile(&model, 0).unwrap();
            let rows = random_rows(seed ^ 0xabcd, 97, n_features);
            let expect = reference(&model, &rows, n_features);
            for strategy in [
                Strategy::PerRow,
                Strategy::Blocked(0),
                Strategy::Blocked(1),
                Strategy::Blocked(5),
            ] {
                for layout in [Layout::Flat, Layout::Quant] {
                    let exec = strategy.executor_for(layout);
                    let mut got = vec![0.0f64; expect.len()];
                    exec.predict_into(&ens, &rows, &mut got);
                    let same = expect
                        .iter()
                        .zip(&got)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "{} diverged (seed {seed}, T {n_trees}, C {c})",
                        exec.label()
                    );
                }
            }
        }
    }

    #[test]
    fn prefix_scoring_matches_truncated_model() {
        for (seed, n_trees, c) in [(11u64, 10usize, 1usize), (12, 25, 3)] {
            let n_features = 7;
            let model = random_model(seed, n_trees, n_features, c);
            let ens = compile(&model, 0).unwrap();
            let rows = random_rows(seed ^ 0x5150, 53, n_features);
            for k in [0usize, 1, 3, n_trees - 1, n_trees, n_trees + 5] {
                // Reference: a model truncated to its first k trees.
                let mut truncated = model.clone();
                truncated.trees.truncate(k);
                let expect = reference(&truncated, &rows, n_features);
                for strategy in [Strategy::PerRow, Strategy::Blocked(0), Strategy::Blocked(4)] {
                    for layout in [Layout::Flat, Layout::Quant] {
                        let exec = strategy.executor_for(layout);
                        let mut got = vec![0.0f64; expect.len()];
                        exec.predict_prefix_into(&ens, &rows, k, &mut got);
                        let same =
                            expect.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "{} prefix k={k} diverged (seed {seed})", exec.label());
                    }
                }
            }
        }
    }

    #[test]
    fn empty_batch_and_empty_model() {
        let model = random_model(5, 3, 4, 1);
        let ens = compile(&model, 0).unwrap();
        let mut out: [f64; 0] = [];
        PerRow.predict_into(&ens, &[], &mut out);
        let empty = GbdtModel::new(Objective::SquaredError, 0.1, 4);
        let ens = compile(&empty, 0).unwrap();
        let rows = vec![1.0f32; ens.n_features * 3];
        let mut out = vec![9.0f64; 3];
        Blocked::default().predict_into(&ens, &rows, &mut out);
        assert_eq!(out, vec![0.0; 3]); // init scores only
    }

    #[test]
    fn strategy_labels_round_trip() {
        for s in ["per-row", "blocked", "blocked:16"] {
            let parsed: Strategy = s.parse().unwrap();
            assert_eq!(parsed.label(), s);
        }
        assert!("walk".parse::<Strategy>().is_err());
        assert!("blocked:x".parse::<Strategy>().is_err());
        for l in ["flat", "quant"] {
            let parsed: Layout = l.parse().unwrap();
            assert_eq!(parsed.label(), l);
        }
        assert!("packed".parse::<Layout>().is_err());
        assert_eq!(Strategy::PerRow.executor_for(Layout::Quant).label(), "per-row@quant");
        assert_eq!(Strategy::Blocked(7).executor_for(Layout::Quant).label(), "blocked:7@quant");
    }

    #[test]
    fn quant_executors_fall_back_to_flat_when_quant_absent() {
        let model = random_model(21, 9, 6, 1);
        let mut ens = compile(&model, 0).unwrap();
        let rows = random_rows(0xfeed, 41, 6);
        let expect = reference(&model, &rows, 6);
        ens.quant = None; // simulate a model exceeding the quant widths
        for strategy in [Strategy::PerRow, Strategy::Blocked(0)] {
            let exec = strategy.executor_for(Layout::Quant);
            let mut got = vec![0.0f64; expect.len()];
            exec.predict_into(&ens, &rows, &mut got);
            let same = expect.iter().zip(&got).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{} fallback diverged", exec.label());
        }
    }

    #[test]
    fn quant_blocks_pack_twice_the_trees() {
        let model = random_model(9, 200, 6, 1);
        let ens = compile(&model, 0).unwrap();
        let flat_blocks = Blocked::default().blocks(&ens);
        let quant_blocks = tree_blocks(&ens, 0, QUANT_BLOCK_NODE_BUDGET);
        assert!(
            quant_blocks.len() < flat_blocks.len(),
            "same L1 bytes must hold more quantized trees: {} vs {}",
            quant_blocks.len(),
            flat_blocks.len()
        );
    }

    #[test]
    fn blocked_auto_packs_by_node_budget() {
        let model = random_model(9, 200, 6, 1);
        let ens = compile(&model, 0).unwrap();
        let blocks = Blocked::default().blocks(&ens);
        assert!(blocks.len() > 1, "200 trees should exceed one L1 block");
        // Blocks tile the tree range exactly, in order.
        let mut next = 0;
        for &(s, e) in &blocks {
            assert_eq!(s, next);
            assert!(e > s);
            next = e;
        }
        assert_eq!(next, ens.n_trees());
        // Every block beyond a single tree respects the node budget.
        for &(s, e) in &blocks {
            if e - s > 1 {
                assert!(ens.tree_off[e] - ens.tree_off[s] <= super::BLOCK_NODE_BUDGET);
            }
        }
    }
}
