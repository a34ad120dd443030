//! Lowering a trained ensemble into a flattened, cache-friendly layout.
//!
//! The pointer-chasing `Tree` representation is ideal for growth but
//! hostile to inference: every step dereferences an `Option<TreeNode>`,
//! matches an enum, and branches on leaf-ness. Compilation rewrites each
//! tree into a breadth-first contiguous array of 16-byte [`FlatNode`]s:
//!
//! * Children occupy adjacent slots (`right = left + 1`), so the taken
//!   child is `left + (1 - go_left)` — pure arithmetic, no branch.
//! * Leaves are *self-looping*: `feature = 0`, `threshold = +∞`,
//!   `default_left = 1`, `left = own slot`. Once a path reaches a leaf,
//!   further steps stay put, so every tree can be walked for a fixed
//!   `depth − 1` iterations with no `is_leaf` test — the property the
//!   branchless/interleaved executors in [`crate::exec`] rely on.
//! * Leaf output vectors live in one pooled `leaf_values` array; the
//!   node's `payload` field is the pool offset.
//!
//! Alongside the 16-byte layout, compilation also builds an 8-byte
//! [`QuantNode`] layout ([`QuantLayout`]) that indirects thresholds
//! through per-feature tables of the *exact* original `f32` cut values.
//! Traversal compares `row[feat] <= cuts[cut_base[feat] + slot]` — the
//! identical `f32` comparison the flat layout performs — so predictions
//! are bit-identical while node bytes halve, roughly doubling the
//! ensemble size that stays L2-resident (see DESIGN.md item 14).

use gbdt_core::model::GbdtModel;
use gbdt_core::tree::{children, NodeKind, Tree};
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// One flattened tree node: 16 bytes, so a 1024-node tree block is
/// 16 KiB — half a typical L1d.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatNode {
    /// Split feature in bits 0..31, default-left direction in bit 31.
    pub feat_dl: u32,
    /// Go left when `value <= threshold` (leaves store `+∞`).
    pub threshold: f32,
    /// Tree-local slot of the left child; right child is `left + 1`.
    /// Leaves store their own slot (self-loop).
    pub left: u32,
    /// Offset into the pooled leaf-value array (leaves only; 0 for
    /// internal nodes).
    pub payload: u32,
}

const DEFAULT_LEFT_BIT: u32 = 1 << 31;

impl FlatNode {
    /// Split feature id.
    #[inline]
    pub fn feature(self) -> u32 {
        self.feat_dl & !DEFAULT_LEFT_BIT
    }

    /// 1 when missing values route left.
    #[inline]
    pub fn default_left(self) -> u32 {
        self.feat_dl >> 31
    }
}

/// One quantized tree node: 8 bytes — half a [`FlatNode`] — so twice the
/// ensemble fits in the same cache footprint.
///
/// The `f32` threshold is replaced by a `u16` slot into the owning
/// feature's cut table ([`QuantLayout::cuts`]), which stores the *exact*
/// original `f32` bits, so the traversal comparison is unchanged.
/// Encoding:
///
/// * `feat` — split feature (leaves store 0).
/// * `slot` — threshold slot within the feature's table. Slot 0 of every
///   feature's table is a reserved `+∞` sentinel and real cuts start at
///   slot 1, so `slot == 0` uniquely identifies a leaf (whose `+∞`
///   threshold also makes it self-loop, exactly like the flat layout).
/// * `meta` — bit 31 is `default_left` (1 for leaves: missing routes
///   left into the self-loop); bits 0..31 hold the tree-local left-child
///   slot for internal nodes, or the leaf-value pool offset for leaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantNode {
    /// Split feature id (0 for leaves).
    pub feat: u16,
    /// Threshold slot in the feature's cut table; 0 ⇔ leaf.
    pub slot: u16,
    /// Bit 31 = default-left; bits 0..31 = left-child slot or payload.
    pub meta: u32,
}

/// `meta` bit flagging that missing values route left.
pub const QUANT_DEFAULT_LEFT_BIT: u32 = 1 << 31;
/// Mask extracting the left-child slot / leaf payload from `meta`.
pub const QUANT_LINK_MASK: u32 = !QUANT_DEFAULT_LEFT_BIT;

// The whole point of the layout: 8 bytes per node, enforced at compile
// time so a refactor can never silently fatten it.
const _: () = assert!(std::mem::size_of::<QuantNode>() == 8);

/// The quantized companion layout: 8-byte nodes plus per-feature tables
/// of the exact original cut values.
///
/// Built alongside the flat layout whenever the model fits the quantized
/// index widths (≤ 65536 features, ≤ 65535 distinct cuts per feature,
/// links within 31 bits); otherwise [`CompiledEnsemble::quant`] is
/// `None` and quant executors fall back to the flat nodes — harmless,
/// because both layouts score bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantLayout {
    /// All trees' nodes, tree-major, same slot order as the flat nodes.
    pub nodes: Vec<QuantNode>,
    /// `cuts` offset of each feature's table, plus a trailing total
    /// (len = `n_features + 1`).
    pub cut_base: Vec<u32>,
    /// Concatenated per-feature cut tables. Entry `cut_base[f]` is the
    /// `+∞` sentinel; entries `cut_base[f] + 1 ..` are the feature's
    /// distinct thresholds, each the exact `f32` the model trained.
    pub cuts: Vec<f32>,
}

impl QuantLayout {
    /// Resident size of the quantized hot arrays in bytes (nodes plus
    /// cut tables; leaf values are shared with the flat layout).
    pub fn hot_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<QuantNode>()
            + self.cuts.len() * 4
            + self.cut_base.len() * 4
    }
}

/// An ensemble compiled for inference: all trees' flat nodes in one
/// contiguous array, leaf values pooled, per-tree offsets and fixed step
/// counts precomputed.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledEnsemble {
    /// Monotonically increasing publish version (see
    /// [`crate::server::ModelSlot`]); 0 for a directly compiled model.
    pub version: u64,
    /// Row width every scoring call must supply.
    pub n_features: usize,
    /// Scores per row (C).
    pub n_outputs: usize,
    /// Constant scores added before any tree (bit-copied from the model).
    pub init_scores: Vec<f64>,
    /// All trees' nodes, tree-major, breadth-first within each tree.
    pub nodes: Vec<FlatNode>,
    /// `nodes` offset of each tree, plus a trailing total (len = T + 1).
    pub tree_off: Vec<u32>,
    /// Fixed traversal iterations per tree (`depth − 1`).
    pub tree_steps: Vec<u32>,
    /// Pooled leaf output vectors, `n_outputs` values each.
    pub leaf_values: Vec<f64>,
    /// The 8-byte quantized companion layout, when the model fits its
    /// index widths (see [`QuantLayout`]).
    pub quant: Option<QuantLayout>,
}

impl CompiledEnsemble {
    /// Number of trees.
    #[inline]
    pub fn n_trees(&self) -> usize {
        self.tree_steps.len()
    }

    /// The deepest tree's fixed step count.
    pub fn max_steps(&self) -> u32 {
        self.tree_steps.iter().copied().max().unwrap_or(0)
    }

    /// Approximate resident size of the hot arrays in bytes.
    pub fn hot_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<FlatNode>() + self.leaf_values.len() * 8
    }

    /// Approximate resident size when scoring through the quantized
    /// layout (falls back to the flat footprint when quant is absent).
    pub fn quant_hot_bytes(&self) -> usize {
        match &self.quant {
            Some(q) => q.hot_bytes() + self.leaf_values.len() * 8,
            None => self.hot_bytes(),
        }
    }
}

/// Builds the quantized companion layout from the freshly compiled flat
/// nodes, or `None` when the model exceeds the quantized index widths.
///
/// Every internal node's threshold is interned into its feature's cut
/// table by exact bit pattern (first-seen order, so the table is a pure
/// function of the node array — deterministic). Slot 0 of every table is
/// reserved for the `+∞` leaf sentinel; that keeps `slot == 0` an
/// unambiguous leaf test, since interned cuts start at slot 1.
///
/// One pass over the nodes with one interner lookup per internal node: a
/// node's slot is final the moment its cut is first seen, because slots
/// are feature-local; only the tables' concatenation waits for the end.
fn build_quant(nodes: &[FlatNode], tree_off: &[u32], n_features: usize) -> Option<QuantLayout> {
    if n_features > u16::MAX as usize + 1 {
        return None;
    }
    // A leaf is exactly a self-looping node. Tree-local slots make the
    // test unambiguous: an internal node's left child is always a later
    // slot, so `left == own slot` can never hold for one.
    let trees = || {
        tree_off.windows(2).flat_map(|w| {
            let base = w[0] as usize;
            (base..w[1] as usize).map(move |g| (g, nodes[g].left as usize == g - base))
        })
    };
    let n_internal = trees().filter(|&(_, leaf)| !leaf).count();
    let mut slot_of = CutInterner::with_capacity(n_internal);
    let mut n_cuts = vec![0u16; n_features];
    // Distinct cuts in first-seen order, as (feature, slot, cut).
    let mut distinct: Vec<(u16, u16, f32)> = Vec::new();
    let mut qnodes = Vec::with_capacity(nodes.len());
    for (g, leaf) in trees() {
        let n = nodes[g];
        let (feat, slot, link) = if leaf {
            (0u16, 0u16, n.payload) // leaves use the reserved slot-0 sentinel
        } else {
            let feat = n.feature() as u16;
            let key = u64::from(feat) << 32 | u64::from(n.threshold.to_bits());
            let slot = slot_of.intern(key, || {
                let count = &mut n_cuts[feat as usize];
                if *count == u16::MAX {
                    return None; // > 65535 distinct cuts on one feature
                }
                *count += 1;
                distinct.push((feat, *count, n.threshold));
                Some(*count)
            })?;
            (feat, slot, n.left)
        };
        if link & QUANT_DEFAULT_LEFT_BIT != 0 {
            return None; // child slot / payload overflows the 31-bit link
        }
        let dl = if n.default_left() == 1 { QUANT_DEFAULT_LEFT_BIT } else { 0 };
        qnodes.push(QuantNode { feat, slot, meta: dl | link });
    }
    // Concatenate the tables, sentinel-first.
    let mut cut_base = Vec::with_capacity(n_features + 1);
    let mut total = 0usize;
    for &k in &n_cuts {
        cut_base.push(total as u32);
        total += 1 + k as usize;
    }
    cut_base.push(total as u32);
    let mut cuts = vec![f32::INFINITY; total];
    for (feat, slot, cut) in distinct {
        cuts[cut_base[feat as usize] as usize + slot as usize] = cut;
    }
    Some(QuantLayout { nodes: qnodes, cut_base, cuts })
}

/// [`build_quant`]'s interner: an open-addressing table from a packed
/// `feature << 32 | threshold bits` key to its 1-based cut slot.
///
/// Each entry is one `u64`, `key << 16 | slot`; zero is empty, since
/// slots start at 1. The table is sized once to at least twice the keys it
/// can receive, so it never grows and linear probes stay short. The probe
/// start is a folded multiply seeded from [`RandomState`] per compile, as
/// std seeds SipHash, so a model cannot be built to collide in it. The
/// table is only probed, never iterated, so neither the seed nor the
/// probe order can reach the layout.
struct CutInterner {
    entries: Vec<u64>,
    seed: u64,
}

impl CutInterner {
    fn with_capacity(n_keys: usize) -> Self {
        let len = (2 * n_keys).next_power_of_two();
        CutInterner { entries: vec![0; len], seed: RandomState::new().build_hasher().finish() }
    }

    /// The slot of `key`; an unseen key gets the slot `new_slot` returns,
    /// and `None` from it aborts the intern.
    fn intern(&mut self, key: u64, new_slot: impl FnOnce() -> Option<u16>) -> Option<u16> {
        let mask = self.entries.len() - 1;
        let m = u128::from(key ^ self.seed) * 0x9e37_79b9_7f4a_7c15;
        let mut i = (m as u64 ^ (m >> 64) as u64) as usize & mask;
        loop {
            match self.entries[i] {
                0 => {
                    let slot = new_slot()?;
                    self.entries[i] = key << 16 | u64::from(slot);
                    return Some(slot);
                }
                e if e >> 16 == key => return Some(e as u16),
                _ => i = (i + 1) & mask,
            }
        }
    }
}

/// Compiles one tree, appending into the ensemble-wide pools. `order` is
/// scratch shared across trees.
fn compile_tree(
    tree: &Tree,
    t: usize,
    order: &mut Vec<u32>,
    nodes: &mut Vec<FlatNode>,
    leaf_values: &mut Vec<f64>,
    n_features: usize,
) -> Result<(), String> {
    let base = nodes.len();
    // BFS order doubles as the slot assignment: `order[slot]` is the
    // complete-tree id placed at that slot, and pushing both children
    // together makes them adjacent.
    order.clear();
    order.push(0);
    let mut slot = 0usize;
    while slot < order.len() {
        let id = order[slot];
        let node = tree
            .node(id)
            .ok_or_else(|| format!("tree {t}: node {id} reachable but not materialized"))?;
        match &node.kind {
            NodeKind::Internal { feature, threshold, default_left, .. } => {
                if *feature as usize >= n_features {
                    return Err(format!(
                        "tree {t}: split feature {feature} out of range (n_features {n_features})"
                    ));
                }
                if *feature & DEFAULT_LEFT_BIT != 0 {
                    return Err(format!("tree {t}: feature id {feature} overflows 31 bits"));
                }
                let (l, r) = children(id);
                let left_slot = order.len() as u32;
                order.push(l);
                order.push(r);
                nodes.push(FlatNode {
                    feat_dl: *feature | if *default_left { DEFAULT_LEFT_BIT } else { 0 },
                    threshold: *threshold,
                    left: left_slot,
                    payload: 0,
                });
            }
            NodeKind::Leaf { .. } => {
                let payload = leaf_values.len();
                if payload > u32::MAX as usize {
                    return Err(format!("tree {t}: leaf pool exceeds u32 offsets"));
                }
                leaf_values.extend_from_slice(tree.leaf_values(id));
                nodes.push(FlatNode {
                    feat_dl: DEFAULT_LEFT_BIT, // feature 0, missing → left
                    threshold: f32::INFINITY,
                    left: slot as u32, // self-loop
                    payload: payload as u32,
                });
            }
        }
        slot += 1;
    }
    debug_assert_eq!(nodes.len() - base, order.len());
    Ok(())
}

/// Compiles a trained model into the flattened inference layout.
///
/// Fails on structurally broken trees (an internal node whose child was
/// never materialized, split features outside the model's declared
/// width) rather than compiling something that would mis-route rows.
pub fn compile(model: &GbdtModel, version: u64) -> Result<CompiledEnsemble, String> {
    // Leaves probe `row[0]` in the branchless step, so a row must carry at
    // least one cell even for a zero-feature (constant) model.
    let n_features = model.n_features.max(1);
    let n_outputs = model.n_outputs();
    if model.init_scores.len() != n_outputs {
        return Err(format!(
            "init_scores len {} != n_outputs {n_outputs}",
            model.init_scores.len()
        ));
    }
    // Sized for every materialized node up front (reachable ones are at
    // most that), so the pools never regrow mid-compile.
    let mut nodes = Vec::with_capacity(model.trees.iter().map(Tree::n_nodes).sum());
    let mut leaf_values =
        Vec::with_capacity(model.trees.iter().map(|t| t.n_leaves() * t.n_outputs()).sum());
    let mut tree_off = Vec::with_capacity(model.trees.len() + 1);
    let mut tree_steps = Vec::with_capacity(model.trees.len());
    let mut order = Vec::new();
    for (t, tree) in model.trees.iter().enumerate() {
        if tree.n_outputs() != n_outputs {
            return Err(format!("tree {t}: arity {} != model C {n_outputs}", tree.n_outputs()));
        }
        tree_off.push(nodes.len() as u32);
        compile_tree(tree, t, &mut order, &mut nodes, &mut leaf_values, n_features)?;
        tree_steps.push(tree.depth().saturating_sub(1) as u32);
    }
    if nodes.len() > u32::MAX as usize {
        return Err("ensemble exceeds u32 node offsets".into());
    }
    tree_off.push(nodes.len() as u32);
    let quant = build_quant(&nodes, &tree_off, n_features);
    Ok(CompiledEnsemble {
        version,
        n_features,
        n_outputs,
        init_scores: model.init_scores.clone(),
        nodes,
        tree_off,
        tree_steps,
        leaf_values,
        quant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::Objective;

    fn two_layer_model() -> GbdtModel {
        let mut m = GbdtModel::new(Objective::SquaredError, 0.1, 3);
        let mut t = Tree::new(3, 1);
        t.set_internal(0, 2, 0, 0.5, true);
        t.set_internal(1, 0, 0, -1.0, false);
        t.set_leaf(2, &[3.0]);
        t.set_leaf(3, &[1.0]);
        t.set_leaf(4, &[2.0]);
        m.trees.push(t);
        m
    }

    #[test]
    fn bfs_layout_and_self_looping_leaves() {
        let c = compile(&two_layer_model(), 7).unwrap();
        assert_eq!(c.version, 7);
        assert_eq!(c.n_trees(), 1);
        assert_eq!(c.tree_off, vec![0, 5]);
        assert_eq!(c.tree_steps, vec![2]);
        // Slot 0 = root (internal on feature 2, default left).
        assert_eq!(c.nodes[0].feature(), 2);
        assert_eq!(c.nodes[0].default_left(), 1);
        assert_eq!(c.nodes[0].left, 1);
        // Slot 1 = left child (internal, default right), children at 3,4.
        assert_eq!(c.nodes[1].feature(), 0);
        assert_eq!(c.nodes[1].default_left(), 0);
        assert_eq!(c.nodes[1].left, 3);
        // Slot 2 = right child: a self-looping leaf.
        assert_eq!(c.nodes[2].left, 2);
        assert_eq!(c.nodes[2].threshold, f32::INFINITY);
        assert_eq!(c.nodes[2].default_left(), 1);
        assert_eq!(c.leaf_values[c.nodes[2].payload as usize], 3.0);
        // Leaves at slots 3 and 4 hold the deep values.
        assert_eq!(c.leaf_values[c.nodes[3].payload as usize], 1.0);
        assert_eq!(c.leaf_values[c.nodes[4].payload as usize], 2.0);
    }

    #[test]
    fn rejects_missing_children_and_bad_features() {
        let mut broken = GbdtModel::new(Objective::SquaredError, 0.1, 3);
        let mut t = Tree::new(2, 1);
        t.set_internal(0, 0, 0, 0.5, true);
        t.set_leaf(1, &[1.0]);
        // Node 2 never materialized.
        broken.trees.push(t);
        assert!(compile(&broken, 0).unwrap_err().contains("not materialized"));

        let mut wide = GbdtModel::new(Objective::SquaredError, 0.1, 1);
        let mut t = Tree::new(2, 1);
        t.set_internal(0, 5, 0, 0.5, true); // feature 5 > n_features 1
        t.set_leaf(1, &[1.0]);
        t.set_leaf(2, &[2.0]);
        wide.trees.push(t);
        assert!(compile(&wide, 0).unwrap_err().contains("out of range"));
    }

    #[test]
    fn quant_layout_mirrors_flat_with_exact_cuts() {
        let c = compile(&two_layer_model(), 7).unwrap();
        let q = c.quant.as_ref().expect("small model quantizes");
        assert_eq!(q.nodes.len(), c.nodes.len());
        assert_eq!(std::mem::size_of::<QuantNode>(), 8);
        // Feature tables: 3 features, each sentinel + its distinct cuts.
        // Feature 0 has cut -1.0, feature 2 has cut 0.5, feature 1 none.
        assert_eq!(q.cut_base, vec![0, 2, 3, 5]);
        assert_eq!(q.cuts[0], f32::INFINITY);
        assert_eq!(q.cuts[1].to_bits(), (-1.0f32).to_bits());
        assert_eq!(q.cuts[2], f32::INFINITY);
        assert_eq!(q.cuts[3], f32::INFINITY);
        assert_eq!(q.cuts[4].to_bits(), 0.5f32.to_bits());
        // Every node's threshold round-trips exactly through its table,
        // and links/default-left match the flat encoding bit for bit.
        for (g, (f, qn)) in c.nodes.iter().zip(&q.nodes).enumerate() {
            let thr = q.cuts[(q.cut_base[qn.feat as usize] + qn.slot as u32) as usize];
            assert_eq!(thr.to_bits(), f.threshold.to_bits(), "node {g}");
            assert_eq!(qn.meta >> 31, f.default_left(), "node {g}");
            if qn.slot == 0 {
                assert_eq!(qn.meta & QUANT_LINK_MASK, f.payload, "leaf {g}");
                assert_eq!(f.left as usize, g, "slot-0 node {g} must be a self-loop leaf");
            } else {
                assert_eq!(qn.meta & QUANT_LINK_MASK, f.left, "internal {g}");
            }
        }
        // Half the node bytes, plus small cut tables.
        assert!(q.hot_bytes() < c.nodes.len() * std::mem::size_of::<FlatNode>());
        assert!(c.quant_hot_bytes() < c.hot_bytes());
    }

    #[test]
    fn quant_interning_dedups_shared_cuts_across_trees() {
        let mut m = two_layer_model();
        let dup = m.trees[0].clone();
        m.trees.push(dup); // identical cuts — tables must not grow
        let c = compile(&m, 0).unwrap();
        let q = c.quant.unwrap();
        assert_eq!(q.cut_base, vec![0, 2, 3, 5]);
        assert_eq!(q.nodes.len(), 10);
    }

    #[test]
    fn quant_overflows_fall_back_to_none() {
        // 70 000 stump trees, each with a distinct threshold on feature 0:
        // exceeds the 65 535 cuts-per-feature budget of the u16 slot.
        let mut m = GbdtModel::new(Objective::SquaredError, 0.1, 1);
        for k in 0..70_000u32 {
            let mut t = Tree::new(2, 1);
            t.set_internal(0, 0, 0, 1e-3 * k as f32, true);
            t.set_leaf(1, &[1.0]);
            t.set_leaf(2, &[-1.0]);
            m.trees.push(t);
        }
        let c = compile(&m, 0).unwrap();
        assert!(c.quant.is_none(), "cut overflow must disable quant, not corrupt it");
        assert_eq!(c.quant_hot_bytes(), c.hot_bytes());
    }

    #[test]
    fn constant_model_compiles() {
        let m = GbdtModel::new(Objective::Logistic, 0.1, 0);
        let c = compile(&m, 0).unwrap();
        assert_eq!(c.n_features, 1); // padded so row[0] is readable
        assert_eq!(c.n_trees(), 0);
        assert!(c.hot_bytes() == 0);
        assert_eq!(c.max_steps(), 0);
    }
}
