//! Differential test of `compile`: the one-pass quantized-layout builder
//! (per-tree leaf ranges, one interner lookup per internal node) and the
//! scratch-reusing flat lowering must produce exactly the
//! `CompiledEnsemble` the previous compiler produced — every field equal,
//! every cut bit-identical — on random models with shared thresholds,
//! signed zeros, partial trees, leaves set in any order, and on the
//! models that overflow the quantized index widths.

use gbdt_core::model::GbdtModel;
use gbdt_core::tree::{children, NodeKind, Tree};
use gbdt_core::Objective;
use gbdt_serve::compile::{
    compile, CompiledEnsemble, FlatNode, QuantLayout, QuantNode, QUANT_DEFAULT_LEFT_BIT,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;

const DEFAULT_LEFT_BIT: u32 = 1 << 31;

/// The quantized-layout builder as it was: a binary search over the tree
/// offsets per leaf test and two SipHash lookups per internal node.
fn reference_build_quant(
    nodes: &[FlatNode],
    tree_off: &[u32],
    n_features: usize,
) -> Option<QuantLayout> {
    if n_features > u16::MAX as usize + 1 {
        return None;
    }
    let is_leaf = |global: usize| {
        let t = tree_off.partition_point(|&off| off as usize <= global) - 1;
        nodes[global].left as usize == global - tree_off[t] as usize
    };
    let mut per_feat_cuts: Vec<Vec<f32>> = vec![Vec::new(); n_features];
    let mut slot_of: HashMap<(u16, u32), u16> = HashMap::new();
    for (g, n) in nodes.iter().enumerate() {
        if is_leaf(g) {
            continue;
        }
        let feat = n.feature() as u16;
        let key = (feat, n.threshold.to_bits());
        if let std::collections::hash_map::Entry::Vacant(e) = slot_of.entry(key) {
            let table = &mut per_feat_cuts[feat as usize];
            if table.len() >= u16::MAX as usize {
                return None;
            }
            table.push(n.threshold);
            e.insert(table.len() as u16);
        }
    }
    let mut cut_base = Vec::with_capacity(n_features + 1);
    let mut cuts = Vec::new();
    for table in &per_feat_cuts {
        cut_base.push(cuts.len() as u32);
        cuts.push(f32::INFINITY);
        cuts.extend_from_slice(table);
    }
    cut_base.push(cuts.len() as u32);
    let mut qnodes = Vec::with_capacity(nodes.len());
    for (g, n) in nodes.iter().enumerate() {
        let (feat, slot, link) = if is_leaf(g) {
            (0u16, 0u16, n.payload)
        } else {
            let feat = n.feature() as u16;
            (feat, slot_of[&(feat, n.threshold.to_bits())], n.left)
        };
        if link & QUANT_DEFAULT_LEFT_BIT != 0 {
            return None;
        }
        let dl = if n.default_left() == 1 { QUANT_DEFAULT_LEFT_BIT } else { 0 };
        qnodes.push(QuantNode { feat, slot, meta: dl | link });
    }
    Some(QuantLayout { nodes: qnodes, cut_base, cuts })
}

/// The flat lowering as it was: a fresh BFS order per tree and pools grown
/// on demand.
fn reference_compile(model: &GbdtModel, version: u64) -> Result<CompiledEnsemble, String> {
    let n_features = model.n_features.max(1);
    let n_outputs = model.n_outputs();
    if model.init_scores.len() != n_outputs {
        return Err("init_scores".into());
    }
    let mut nodes = Vec::new();
    let mut leaf_values = Vec::new();
    let mut tree_off = Vec::new();
    let mut tree_steps = Vec::new();
    for (t, tree) in model.trees.iter().enumerate() {
        if tree.n_outputs() != n_outputs {
            return Err(format!("tree {t}: arity"));
        }
        tree_off.push(nodes.len() as u32);
        let mut order: Vec<u32> = vec![0];
        let mut slot = 0usize;
        while slot < order.len() {
            let id = order[slot];
            let node = tree.node(id).ok_or_else(|| format!("tree {t}: node {id}"))?;
            match &node.kind {
                NodeKind::Internal { feature, threshold, default_left, .. } => {
                    if *feature as usize >= n_features {
                        return Err(format!("tree {t}: feature {feature}"));
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
                    let payload = leaf_values.len() as u32;
                    leaf_values.extend_from_slice(tree.leaf_values(id));
                    nodes.push(FlatNode {
                        feat_dl: DEFAULT_LEFT_BIT,
                        threshold: f32::INFINITY,
                        left: slot as u32,
                        payload,
                    });
                }
            }
            slot += 1;
        }
        tree_steps.push(tree.depth().saturating_sub(1) as u32);
    }
    tree_off.push(nodes.len() as u32);
    let quant = reference_build_quant(&nodes, &tree_off, n_features);
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

/// `==` on the whole ensemble plus bit equality of every threshold and
/// cut, which `==` on `f32` cannot see for signed zeros.
fn assert_identical(got: &CompiledEnsemble, want: &CompiledEnsemble) -> Result<(), TestCaseError> {
    prop_assert_eq!(got, want);
    let thresholds = |c: &CompiledEnsemble| -> Vec<u32> {
        c.nodes.iter().map(|n| n.threshold.to_bits()).collect()
    };
    prop_assert_eq!(thresholds(got), thresholds(want));
    let cuts = |c: &CompiledEnsemble| -> Option<Vec<u32>> {
        c.quant.as_ref().map(|q| q.cuts.iter().map(|v| v.to_bits()).collect())
    };
    prop_assert_eq!(cuts(got), cuts(want));
    Ok(())
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random partial tree grown in frontier order, the way trainers grow
/// them: leaves land in the pool out of id order. Thresholds come from a
/// small shared palette (with both signed zeros) so cuts repeat within and
/// across trees and features.
fn random_tree(state: &mut u64, n_layers: usize, n_outputs: usize, n_features: usize) -> Tree {
    const PALETTE: [f32; 6] = [-1.5, -0.0, 0.0, 0.25, 0.25000003, 7.0];
    let mut tree = Tree::new(n_layers, n_outputs);
    let mut frontier = vec![0u32];
    while let Some(id) = frontier.pop() {
        let room = (children(id).1 as usize) < gbdt_core::tree::max_nodes(n_layers);
        if room && !splitmix(state).is_multiple_of(3) {
            let feature = (splitmix(state) % n_features as u64) as u32;
            let threshold = if splitmix(state).is_multiple_of(2) {
                PALETTE[(splitmix(state) % PALETTE.len() as u64) as usize]
            } else {
                (splitmix(state) % 1_000) as f32 * 0.01
            };
            tree.set_internal(id, feature, 0, threshold, splitmix(state).is_multiple_of(2));
            let (l, r) = children(id);
            // Either child may be visited first.
            if splitmix(state).is_multiple_of(2) {
                frontier.extend([l, r]);
            } else {
                frontier.extend([r, l]);
            }
        } else {
            let values: Vec<f64> = (0..n_outputs).map(|_| splitmix(state) as f64 * 1e-19).collect();
            tree.set_leaf(id, &values);
        }
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn compile_matches_the_reference_compiler(
        seed in any::<u64>(),
        n_trees in 0usize..12,
        n_layers in 1usize..9,
        n_features in 1usize..40,
        multiclass in any::<bool>(),
    ) {
        let objective =
            if multiclass { Objective::Softmax { n_classes: 3 } } else { Objective::Logistic };
        let mut m = GbdtModel::new(objective, 0.1, n_features);
        let mut state = seed;
        for _ in 0..n_trees {
            m.trees.push(random_tree(&mut state, n_layers, m.n_outputs(), n_features));
        }
        let got = compile(&m, 3).unwrap();
        prop_assert!(got.quant.is_some());
        assert_identical(&got, &reference_compile(&m, 3).unwrap())?;
        // The decoded model sets its leaves in id order; same output.
        let decoded = GbdtModel::decode_bytes(&m.encode_bytes()).unwrap();
        assert_identical(&compile(&decoded, 3).unwrap(), &got)?;
    }
}

#[test]
fn cut_overflow_falls_back_identically() {
    // 65 535 distinct cuts fit feature 0's u16 slots; one more does not.
    for n_cuts in [65_535u32, 65_536] {
        let mut m = GbdtModel::new(Objective::SquaredError, 0.1, 2);
        for k in 0..n_cuts {
            let mut t = Tree::new(2, 1);
            t.set_internal(0, 0, 0, f32::from_bits(0x3f80_0000 + k), true);
            t.set_leaf(1, &[1.0]);
            t.set_leaf(2, &[-1.0]);
            m.trees.push(t);
        }
        let got = compile(&m, 0).unwrap();
        assert_eq!(got.quant.is_some(), n_cuts == 65_535, "{n_cuts} cuts");
        assert_identical(&got, &reference_compile(&m, 0).unwrap()).unwrap();
    }
}

#[test]
fn feature_overflow_falls_back_identically() {
    // Feature ids past u16 disable the quantized layout.
    let mut m = GbdtModel::new(Objective::SquaredError, 0.1, 70_000);
    let mut t = Tree::new(2, 1);
    t.set_internal(0, 69_999, 0, 0.5, false);
    t.set_leaf(1, &[1.0]);
    t.set_leaf(2, &[-1.0]);
    m.trees.push(t);
    let got = compile(&m, 0).unwrap();
    assert!(got.quant.is_none());
    assert_identical(&got, &reference_compile(&m, 0).unwrap()).unwrap();
}
