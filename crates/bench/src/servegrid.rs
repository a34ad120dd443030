//! Serving-grid benchmark: compiled-inference throughput sweep + traffic
//! harness.
//!
//! The serving analogue of [`crate::grid`]: a spec (JSON, see
//! `benchgrids/serve.json`) names a synthetic ensemble shape and the axes
//! to sweep — execution strategy × node layout × score threads × request
//! batch size × tree count. Every cell scores the same deterministic row
//! set, asserts bit-identity against the naive tree-walk reference
//! (`GbdtModel::predict_row_into`), and records `rows_per_sec` plus the
//! machine-relative `wall_rel` twin (same interleaved
//! [`probe_once`] protocol as the training grid), so
//! [`crate::gate::compare_reports`] gates serving cells exactly like
//! training cells.
//!
//! The `walk` strategy is the baseline the compiled paths are measured
//! against: the model's own per-row `Option`-boxed tree walk. `per-row`
//! and `blocked` are the two `gbdt-serve` executors, each runnable over
//! the 16-byte flat or 8-byte quantized node layout (`layouts` axis) and
//! under a parallel scoring pool (`score_threads` axis); walk cells only
//! run at the default `(flat, 1)` point since neither axis applies to
//! the reference. The `speedups` section of the report records
//! every-engine-vs-walk and blocked-vs-per-row at every (trees, batch)
//! so the crossover — and how the quantized layout moves it — is visible
//! in the checked-in trajectory. Three spec gates turn trajectory claims
//! into loud failures at generation time:
//!
//! * `min_blocked_speedup` — blocked(flat, 1 thread) vs walk at the
//!   largest ensemble, batch ≥ 256.
//! * `require_blocked_crossover` — blocked must beat per-row (flat, 1
//!   thread) at the largest ensemble + largest batch: the L2-overflow
//!   regime where tiling pays for itself.
//! * `min_parallel_speedup` — best threads>1 vs threads=1 speedup of the
//!   same engine/layout at the largest ensemble. Only enforced when the
//!   machine actually has at least `max(score_threads)` cores
//!   ([`parallel_gate_enforced`]) — on a 1-core box the cells still run
//!   (bit-identity and overhead are still checked) but a wall-clock
//!   speedup is physically impossible, so the gate logs and skips
//!   instead of failing on machine shape.
//!
//! When the spec carries a `traffic` object the run closes with one
//! fixed-seed pass of the QPS harness ([`gbdt_serve::traffic`]): open-loop
//! clients, a mid-run hot-swap publish, p50/p99/p999 latency. Latency
//! percentiles are informational (no `*_rel` twin — queueing is not a
//! core-speed effect), so the regression gate ignores them.
//!
//! [`probe_once`]: crate::gate

use crate::gate::probe_once;
use gbdt_core::model::GbdtModel;
use gbdt_core::tree::Tree;
use gbdt_core::Objective;
use gbdt_serve::compile::{compile, CompiledEnsemble};
use gbdt_serve::exec::{ExecStrategy, Layout, Strategy};
use gbdt_serve::pool;
use gbdt_serve::traffic::{run_traffic, TrafficConfig};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One axis entry: the naive tree-walk baseline or a compiled executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `GbdtModel::predict_row_into` on the sparse row form — the
    /// reference every compiled strategy must match bit-for-bit, and the
    /// baseline the speedup gate divides by.
    Walk,
    /// A `gbdt-serve` execution strategy over the flattened ensemble.
    Compiled(Strategy),
}

impl Engine {
    /// Parses an axis entry (`"walk"`, `"per-row"`, `"blocked"`,
    /// `"blocked:N"`).
    pub fn parse(s: &str) -> Result<Engine, String> {
        if s == "walk" {
            Ok(Engine::Walk)
        } else {
            s.parse::<Strategy>().map(Engine::Compiled)
        }
    }

    /// Cell label (the serving strategy axis key).
    pub fn label(&self) -> String {
        match self {
            Engine::Walk => "walk".to_string(),
            Engine::Compiled(s) => s.label(),
        }
    }
}

/// Optional fixed-seed traffic pass appended to the grid report.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Client threads.
    pub n_clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Rows per request.
    pub batch: usize,
    /// Offered load, requests/s across all clients (0 = open throttle).
    pub qps: f64,
    /// Scoring threads inside the serving rank (1 = serial).
    pub score_threads: usize,
}

/// A parsed serving grid: ensemble shape plus the axes to sweep.
#[derive(Debug, Clone)]
pub struct ServeGridSpec {
    /// Report name (`"benchmark"` field of the trajectory).
    pub name: String,
    /// Row width of the synthetic ensemble and row set.
    pub n_features: usize,
    /// L — layers per tree (complete trees, so 2^(L−1) leaves).
    pub layers: usize,
    /// Rows in the scored eval set (every cell scores all of them).
    pub rows: usize,
    /// Seed for the deterministic ensemble + row generators.
    pub seed: u64,
    /// Tree-count axis.
    pub trees: Vec<usize>,
    /// Request-batch-size axis.
    pub batches: Vec<usize>,
    /// Strategy axis.
    pub strategies: Vec<Engine>,
    /// Node-layout axis (compiled engines only; walk ignores it).
    pub layouts: Vec<Layout>,
    /// Scoring-thread axis (compiled engines only; walk ignores it).
    pub score_threads: Vec<usize>,
    /// Scoring passes per cell; reported wall time is the best of them.
    pub reps: usize,
    /// When > 0: the largest-ensemble blocked-vs-walk speedup (flat
    /// layout, 1 thread) at some batch ≥ 256 must reach this factor or
    /// the run panics — enforced at report-generation time.
    pub min_blocked_speedup: f64,
    /// When > 0: the best threads>1 vs threads=1 speedup of any
    /// engine/layout at the largest ensemble must reach this factor —
    /// enforced only on machines with enough cores (see
    /// [`parallel_gate_enforced`]).
    pub min_parallel_speedup: f64,
    /// When set: blocked must out-score per-row (flat, 1 thread) at the
    /// largest ensemble and largest batch — the L2-overflow crossover
    /// the PR claims.
    pub require_blocked_crossover: bool,
    /// Optional traffic pass.
    pub traffic: Option<TrafficSpec>,
}

fn req_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Value::as_u64).ok_or(format!("serve grid spec needs integer '{key}'"))
}

fn usize_axis(v: &Value, key: &str) -> Result<Vec<usize>, String> {
    match v.get(key) {
        Some(Value::Array(items)) if !items.is_empty() => items
            .iter()
            .map(|it| {
                it.as_u64()
                    .map(|t| t as usize)
                    .ok_or(format!("'{key}' entries must be integers"))
            })
            .collect(),
        _ => Err(format!("serve grid spec needs non-empty array '{key}'")),
    }
}

impl ServeGridSpec {
    /// Parses a spec from its JSON value, rejecting unknown axis entries.
    pub fn from_value(v: &Value) -> Result<ServeGridSpec, String> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("serve grid spec needs string 'name'")?
            .to_string();
        let strategies = match v.get("strategies") {
            Some(Value::Array(items)) if !items.is_empty() => items
                .iter()
                .map(|it| {
                    Engine::parse(
                        it.as_str().ok_or("'strategies' entries must be strings")?,
                    )
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => vec![Engine::Walk, Engine::Compiled(Strategy::PerRow), Engine::Compiled(Strategy::Blocked(0))],
        };
        let layouts = match v.get("layouts") {
            None => vec![Layout::Flat],
            Some(Value::Array(items)) if !items.is_empty() => items
                .iter()
                .map(|it| {
                    it.as_str()
                        .ok_or("'layouts' entries must be strings".to_string())?
                        .parse::<Layout>()
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("'layouts' must be a non-empty array".into()),
        };
        let score_threads = match v.get("score_threads") {
            None => vec![1],
            Some(_) => usize_axis(v, "score_threads")?,
        };
        let traffic = match v.get("traffic") {
            None => None,
            Some(t) => Some(TrafficSpec {
                n_clients: req_u64(t, "n_clients")? as usize,
                requests_per_client: req_u64(t, "requests_per_client")? as usize,
                batch: req_u64(t, "batch")? as usize,
                qps: t.get("qps").and_then(Value::as_f64).unwrap_or(0.0),
                score_threads: t.get("score_threads").and_then(Value::as_u64).unwrap_or(1)
                    as usize,
            }),
        };
        let spec = ServeGridSpec {
            name,
            n_features: req_u64(v, "n_features")? as usize,
            layers: req_u64(v, "layers")? as usize,
            rows: req_u64(v, "rows")? as usize,
            seed: req_u64(v, "seed")?,
            trees: usize_axis(v, "trees")?,
            batches: usize_axis(v, "batches")?,
            strategies,
            layouts,
            score_threads,
            reps: v.get("reps").and_then(Value::as_u64).unwrap_or(3) as usize,
            min_blocked_speedup: v
                .get("min_blocked_speedup")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            min_parallel_speedup: v
                .get("min_parallel_speedup")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            require_blocked_crossover: v
                .get("require_blocked_crossover")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            traffic,
        };
        if spec.reps == 0 {
            return Err("'reps' must be at least 1".into());
        }
        if spec.rows == 0 || spec.n_features == 0 {
            return Err("'rows' and 'n_features' must be positive".into());
        }
        if spec.batches.contains(&0) {
            return Err("'batches' entries must be positive".into());
        }
        if spec.min_parallel_speedup > 0.0 && !spec.score_threads.iter().any(|&t| t != 1) {
            return Err(
                "'min_parallel_speedup' needs a 'score_threads' entry other than 1".into()
            );
        }
        if spec.require_blocked_crossover {
            let has = |want: fn(&Strategy) -> bool| {
                spec.strategies
                    .iter()
                    .any(|e| matches!(e, Engine::Compiled(s) if want(s)))
            };
            if !has(|s| matches!(s, Strategy::PerRow))
                || !has(|s| matches!(s, Strategy::Blocked(_)))
            {
                return Err(
                    "'require_blocked_crossover' needs both 'per-row' and a blocked strategy"
                        .into(),
                );
            }
        }
        Ok(spec)
    }

    /// Parses a spec from JSON text.
    pub fn from_json(text: &str) -> Result<ServeGridSpec, String> {
        ServeGridSpec::from_value(
            &serde_json::from_str::<Value>(text).map_err(|e| format!("{e:?}"))?,
        )
    }

    /// Number of cells the sweep will run: compiled engines span the
    /// layout × score_threads axes, walk runs only at `(flat, 1)`.
    pub fn n_cells(&self) -> usize {
        let walk = self.strategies.iter().filter(|e| **e == Engine::Walk).count();
        let compiled = self.strategies.len() - walk;
        let per_pair = walk + compiled * self.layouts.len() * self.score_threads.len();
        per_pair * self.batches.len() * self.trees.len()
    }
}

/// Whether the parallel-speedup gate is meaningful on this machine: a
/// box with fewer cores than the widest `score_threads` cell cannot
/// show a wall-clock speedup no matter how correct the code is, so the
/// gate (like the `*_rel` metrics) separates machine shape from code
/// quality and only enforces where the hardware can express the win.
pub fn parallel_gate_enforced(available_cores: usize, max_threads: usize) -> bool {
    available_cores >= max_threads
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic complete-tree ensemble: every non-bottom layer splits,
/// the bottom layer is leaves — the densest node layout per tree, which
/// is what makes the blocked executor's cache story measurable.
pub fn synthetic_model(seed: u64, n_trees: usize, n_layers: usize, n_features: usize) -> GbdtModel {
    let mut state = seed ^ 0x5e7e_ca57_0000_0001;
    let mut model = GbdtModel::new(Objective::SquaredError, 0.1, n_features);
    let internal = if n_layers > 1 { (1usize << (n_layers - 1)) - 1 } else { 0 };
    let total = (1usize << n_layers) - 1;
    for _ in 0..n_trees {
        let mut tree = Tree::new(n_layers, 1);
        for id in 0..internal {
            let feature = (splitmix(&mut state) % n_features as u64) as u32;
            let threshold = (unit(&mut state) * 4.0 - 2.0) as f32;
            let default_left = splitmix(&mut state) & 1 == 0;
            tree.set_internal(id as u32, feature, 0, threshold, default_left);
        }
        for id in internal..total {
            tree.set_leaf(id as u32, &[unit(&mut state) * 0.2 - 0.1]);
        }
        model.trees.push(tree);
    }
    model
}

/// Deterministic NaN-bearing dense rows (~10% missing) in the thresholds'
/// value range, so traversal exercises both children and the default
/// direction.
pub fn synthetic_rows(seed: u64, n_rows: usize, n_features: usize) -> Vec<f32> {
    let mut state = seed ^ 0x0b5e_55ed_7075;
    (0..n_rows * n_features)
        .map(|_| {
            if splitmix(&mut state).is_multiple_of(10) {
                f32::NAN
            } else {
                (unit(&mut state) * 5.0 - 2.5) as f32
            }
        })
        .collect()
}

/// Sparse (feats, vals) form of the dense rows — NaN cells dropped — for
/// the tree-walk baseline, precomputed outside the timed region.
fn sparse_rows(rows: &[f32], n_features: usize) -> Vec<(Vec<u32>, Vec<f32>)> {
    rows.chunks_exact(n_features)
        .map(|row| {
            let mut feats = Vec::new();
            let mut vals = Vec::new();
            for (j, &v) in row.iter().enumerate() {
                if !v.is_nan() {
                    feats.push(j as u32);
                    vals.push(v);
                }
            }
            (feats, vals)
        })
        .collect()
}

fn walk_pass(model: &GbdtModel, sparse: &[(Vec<u32>, Vec<f32>)], out: &mut [f64]) {
    for ((feats, vals), slot) in sparse.iter().zip(out.chunks_exact_mut(1)) {
        model.predict_row_into(feats, vals, slot);
    }
}

fn compiled_pass(
    executor: &dyn ExecStrategy,
    ens: &CompiledEnsemble,
    rows: &[f32],
    n_features: usize,
    batch: usize,
    out: &mut [f64],
) {
    for (row_chunk, out_chunk) in
        rows.chunks(batch * n_features).zip(out.chunks_mut(batch))
    {
        executor.predict_into(ens, row_chunk, out_chunk);
    }
}

/// One cell's identity within a report: engine label + layout label +
/// score threads + batch + trees.
type CellKey = (String, String, usize, usize, usize);

/// Display name for a cell in the `speedups` section: the engine label,
/// suffixed like the executor labels themselves when off the default
/// axes (`blocked@quant`, `per-row+t8`, `blocked@quant+t8`).
fn display(label: &str, layout: Layout, threads: usize) -> String {
    let mut s = label.to_string();
    if layout == Layout::Quant {
        s.push_str("@quant");
    }
    if threads != 1 {
        s.push_str(&format!("+t{threads}"));
    }
    s
}

/// Runs every cell of the serving grid and returns the trajectory report.
///
/// Panics when any compiled cell's scores differ bit-for-bit from the
/// tree-walk reference, when a `quant`-layout cell compiled without a
/// quantized layout (the cell would silently measure the flat fallback),
/// or when any of the spec's gates fail — a perf trajectory must never
/// be written from a run that broke the PR's own contract.
pub fn run_serve_grid(spec: &ServeGridSpec) -> Value {
    let dense = synthetic_rows(spec.seed, spec.rows, spec.n_features);
    let sparse = sparse_rows(&dense, spec.n_features);
    let mut cells: Vec<Value> = Vec::new();
    let mut throughput: BTreeMap<CellKey, f64> = BTreeMap::new();
    for &n_trees in &spec.trees {
        let model = synthetic_model(spec.seed, n_trees, spec.layers, spec.n_features);
        let ens = compile(&model, 1).unwrap_or_else(|e| panic!("compile failed: {e}"));
        let mut reference = vec![0.0f64; spec.rows];
        walk_pass(&model, &sparse, &mut reference);
        for &engine in &spec.strategies {
            // Walk has no layout or thread pool: one cell at the default
            // point. Compiled engines sweep both axes.
            let combos: Vec<(Layout, usize)> = match engine {
                Engine::Walk => vec![(Layout::Flat, 1)],
                Engine::Compiled(_) => spec
                    .layouts
                    .iter()
                    .flat_map(|&l| spec.score_threads.iter().map(move |&t| (l, t)))
                    .collect(),
            };
            for (layout, threads) in combos {
                let executor = match engine {
                    Engine::Walk => None,
                    Engine::Compiled(strategy) => {
                        if layout == Layout::Quant {
                            assert!(
                                ens.quant.is_some(),
                                "quant cell at T={n_trees} has no quantized layout — the \
                                 cell would silently measure the flat fallback",
                            );
                        }
                        Some(pool::parallel(strategy.executor_for(layout), threads))
                    }
                };
                for &batch in &spec.batches {
                    let mut out = vec![0.0f64; spec.rows];
                    let mut wall = f64::INFINITY;
                    let mut best_cal = f64::INFINITY;
                    for _ in 0..spec.reps {
                        best_cal = best_cal.min(probe_once());
                        let start = Instant::now();
                        match &executor {
                            None => walk_pass(&model, &sparse, &mut out),
                            Some(executor) => compiled_pass(
                                executor.as_ref(),
                                &ens,
                                &dense,
                                spec.n_features,
                                batch,
                                &mut out,
                            ),
                        }
                        wall = wall.min(start.elapsed().as_secs_f64());
                        std::hint::black_box(&out);
                    }
                    let bits =
                        |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&out),
                        bits(&reference),
                        "{} diverged from the tree walk at T={n_trees} batch={batch}",
                        display(&engine.label(), layout, threads),
                    );
                    let label = engine.label();
                    let rows_per_sec = spec.rows as f64 / wall;
                    throughput.insert(
                        (label.clone(), layout.label().to_string(), threads, batch, n_trees),
                        rows_per_sec,
                    );
                    cells.push(json!({
                        "strategy": label,
                        "layout": layout.label(),
                        "score_threads": threads,
                        "batch": batch,
                        "trees": n_trees,
                        "layers": spec.layers,
                        "rows": spec.rows,
                        "rows_per_sec": rows_per_sec,
                        "wall_s": wall,
                        "wall_rel": wall / best_cal,
                    }));
                }
            }
        }
    }

    // Speedup records per (trees, batch): every engine/layout/threads
    // combination vs walk, plus blocked-vs-per-row (the strategy
    // crossover) at matching layout/threads. The gates read the largest
    // ensemble.
    let mut speedups: Vec<Value> = Vec::new();
    let mut blocked_gate_best = 0.0f64;
    let mut parallel_gate_best = 0.0f64;
    let max_trees = spec.trees.iter().copied().max().unwrap_or(0);
    let max_batch = spec.batches.iter().copied().max().unwrap_or(0);
    let mut crossover_ok = false;
    for &n_trees in &spec.trees {
        for &batch in &spec.batches {
            let walk = throughput
                .get(&("walk".to_string(), Layout::Flat.label().to_string(), 1, batch, n_trees))
                .copied();
            let mut entry = serde_json::Map::new();
            entry.insert("trees".into(), json!(n_trees));
            entry.insert("batch".into(), json!(batch));
            for ((label, layout_label, threads, b, t), rps) in &throughput {
                if *b != batch || *t != n_trees || label == "walk" {
                    continue;
                }
                let layout =
                    if layout_label == "quant" { Layout::Quant } else { Layout::Flat };
                let name = display(label, layout, *threads);
                if let Some(walk) = walk.filter(|w| *w > 0.0) {
                    entry.insert(format!("{name}_vs_walk"), json!(rps / walk));
                }
                if label.starts_with("blocked") {
                    // Blocked-vs-walk gate: flat layout, serial scoring.
                    if layout == Layout::Flat
                        && *threads == 1
                        && n_trees == max_trees
                        && batch >= 256
                    {
                        if let Some(walk) = walk.filter(|w| *w > 0.0) {
                            blocked_gate_best = blocked_gate_best.max(rps / walk);
                        }
                    }
                    // Strategy crossover: blocked vs per-row at the same
                    // layout/threads/batch/trees.
                    if let Some(pr) = throughput.get(&(
                        "per-row".to_string(),
                        layout_label.clone(),
                        *threads,
                        batch,
                        n_trees,
                    )) {
                        let factor = rps / pr;
                        entry.insert(
                            format!("{name}_vs_{}", display("per-row", layout, *threads)),
                            json!(factor),
                        );
                        if layout == Layout::Flat
                            && *threads == 1
                            && n_trees == max_trees
                            && batch == max_batch
                            && factor > 1.0
                        {
                            crossover_ok = true;
                        }
                    }
                }
                // Parallel speedup: this cell vs the serial cell of the
                // same engine/layout/batch/trees.
                if *threads != 1 && n_trees == max_trees {
                    if let Some(serial) = throughput.get(&(
                        label.clone(),
                        layout_label.clone(),
                        1,
                        batch,
                        n_trees,
                    )) {
                        if *serial > 0.0 {
                            parallel_gate_best = parallel_gate_best.max(rps / serial);
                        }
                    }
                }
            }
            if entry.len() > 2 {
                speedups.push(Value::Object(entry));
            }
        }
    }
    if spec.min_blocked_speedup > 0.0 {
        assert!(
            blocked_gate_best >= spec.min_blocked_speedup,
            "blocked inference is only {blocked_gate_best:.2}x the tree walk at T={max_trees}, \
             batch >= 256 — the spec demands {:.2}x",
            spec.min_blocked_speedup,
        );
    }
    if spec.require_blocked_crossover {
        assert!(
            crossover_ok,
            "blocked did not overtake per-row (flat, 1 thread) at T={max_trees} \
             batch={max_batch} — the L2-overflow crossover the spec demands",
        );
    }
    if spec.min_parallel_speedup > 0.0 {
        let max_threads = spec.score_threads.iter().copied().max().unwrap_or(1);
        let cores =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if parallel_gate_enforced(cores, max_threads) {
            assert!(
                parallel_gate_best >= spec.min_parallel_speedup,
                "parallel scoring is only {parallel_gate_best:.2}x serial at T={max_trees} \
                 — the spec demands {:.2}x",
                spec.min_parallel_speedup,
            );
        } else {
            println!(
                "parallel-speedup gate skipped: {cores} core(s) < {max_threads} score \
                 threads (best observed {parallel_gate_best:.2}x)",
            );
        }
    }

    let mut report = json!({
        "benchmark": spec.name,
        "serve": {
            "n_features": spec.n_features,
            "layers": spec.layers,
            "rows": spec.rows,
            "seed": spec.seed,
            "reps": spec.reps,
            "trees": spec.trees,
            "layouts": spec.layouts.iter().map(|l| l.label()).collect::<Vec<_>>(),
            "score_threads": spec.score_threads,
        },
        "cells": cells,
        "speedups": speedups,
    });
    if let Some(traffic) = &spec.traffic {
        let run = traffic_pass(spec, traffic);
        if let Value::Object(map) = &mut report {
            map.insert("traffic".to_string(), run);
        }
    }
    report
}

/// One fixed-seed pass of the QPS harness: open-loop clients against the
/// blocked executor, with a second model published mid-run so every
/// trajectory also witnesses a verified hot-swap.
fn traffic_pass(spec: &ServeGridSpec, traffic: &TrafficSpec) -> Value {
    let n_trees = spec.trees.iter().copied().min().unwrap_or(1);
    let models = [
        synthetic_model(spec.seed, n_trees, spec.layers, spec.n_features),
        synthetic_model(spec.seed ^ 0x00de_ad00, n_trees, spec.layers, spec.n_features),
    ];
    let cfg = TrafficConfig {
        n_clients: traffic.n_clients,
        requests_per_client: traffic.requests_per_client,
        batch: traffic.batch,
        qps: traffic.qps,
        strategy: Strategy::Blocked(0),
        score_threads: traffic.score_threads,
        seed: spec.seed,
        ..TrafficConfig::default()
    };
    let run = run_traffic(&models, &cfg).unwrap_or_else(|e| panic!("traffic pass failed: {e}"));
    json!({
        "strategy": run.strategy,
        "batch": run.batch,
        "n_trees": run.n_trees,
        "n_clients": run.n_clients,
        "target_qps": run.target_qps,
        "requests": run.requests,
        "dropped": run.dropped,
        "rows": run.rows,
        "publishes": run.publishes,
        "versions_seen": run.versions_seen,
        "wall_s": run.wall_s,
        "throughput_rps": run.throughput_rps,
        "rows_per_sec": run.rows_per_sec,
        "p50_ms": run.p50_ms,
        "p99_ms": run.p99_ms,
        "p999_ms": run.p999_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::compare_reports;

    const SPEC: &str = r#"{
        "name": "serve-unit",
        "n_features": 8,
        "layers": 4,
        "rows": 256,
        "seed": 11,
        "trees": [3, 17],
        "batches": [1, 64],
        "strategies": ["walk", "per-row", "blocked", "blocked:2"],
        "reps": 2,
        "traffic": {"n_clients": 2, "requests_per_client": 20, "batch": 4, "qps": 0}
    }"#;

    /// SPEC plus the PR 9 axes: both layouts, serial + 3-thread scoring.
    const AXES_SPEC: &str = r#"{
        "name": "serve-axes",
        "n_features": 8,
        "layers": 4,
        "rows": 256,
        "seed": 11,
        "trees": [3, 17],
        "batches": [64, 256],
        "strategies": ["walk", "per-row", "blocked"],
        "layouts": ["flat", "quant"],
        "score_threads": [1, 3],
        "reps": 1
    }"#;

    #[test]
    fn spec_parses() {
        let spec = ServeGridSpec::from_json(SPEC).unwrap();
        assert_eq!(spec.name, "serve-unit");
        assert_eq!(spec.trees, vec![3, 17]);
        assert_eq!(spec.batches, vec![1, 64]);
        assert_eq!(spec.strategies.len(), 4);
        assert_eq!(spec.strategies[0], Engine::Walk);
        assert_eq!(spec.strategies[3], Engine::Compiled(Strategy::Blocked(2)));
        assert_eq!(spec.layouts, vec![Layout::Flat]); // defaulted axis
        assert_eq!(spec.score_threads, vec![1]); // defaulted axis
        assert_eq!(spec.n_cells(), 16);
        assert_eq!(spec.reps, 2);
        assert_eq!(spec.min_blocked_speedup, 0.0);
        assert_eq!(spec.min_parallel_speedup, 0.0);
        assert!(!spec.require_blocked_crossover);
        let t = spec.traffic.unwrap();
        assert_eq!((t.n_clients, t.requests_per_client, t.batch), (2, 20, 4));
        assert_eq!(t.qps, 0.0);
        assert_eq!(t.score_threads, 1);
    }

    #[test]
    fn axes_spec_parses_and_counts_cells() {
        let spec = ServeGridSpec::from_json(AXES_SPEC).unwrap();
        assert_eq!(spec.layouts, vec![Layout::Flat, Layout::Quant]);
        assert_eq!(spec.score_threads, vec![1, 3]);
        // Walk runs once per (trees, batch); per-row/blocked each span
        // 2 layouts × 2 thread budgets: (1 + 2*4) * 2 batches * 2 trees.
        assert_eq!(spec.n_cells(), (1 + 2 * 4) * 2 * 2);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(ServeGridSpec::from_json("{").is_err());
        assert!(ServeGridSpec::from_json(r#"{"name": "x"}"#).is_err());
        let bad = SPEC.replace("\"walk\"", "\"simd\"");
        assert!(ServeGridSpec::from_json(&bad).is_err());
        let zero_batch = SPEC.replace("[1, 64]", "[0]");
        assert!(ServeGridSpec::from_json(&zero_batch).unwrap_err().contains("batches"));
        let zero_reps = SPEC.replace("\"reps\": 2", "\"reps\": 0");
        assert!(ServeGridSpec::from_json(&zero_reps).unwrap_err().contains("reps"));
        let bad_layout = AXES_SPEC.replace("\"quant\"", "\"packed\"");
        assert!(ServeGridSpec::from_json(&bad_layout).is_err());
        // A parallel gate without a parallel cell can never pass: loud at
        // parse time, not silently green at run time.
        let no_threads = SPEC.replace(
            "\"reps\": 2",
            "\"reps\": 2, \"min_parallel_speedup\": 1.5",
        );
        assert!(ServeGridSpec::from_json(&no_threads)
            .unwrap_err()
            .contains("min_parallel_speedup"));
        // Crossover gate needs both strategies present.
        let no_perrow = AXES_SPEC.replace(
            "\"per-row\", ",
            "",
        );
        let crossover = no_perrow.replace(
            "\"reps\": 1",
            "\"reps\": 1, \"require_blocked_crossover\": true",
        );
        assert!(ServeGridSpec::from_json(&crossover)
            .unwrap_err()
            .contains("require_blocked_crossover"));
    }

    #[test]
    fn serve_grid_runs_bit_identical_and_self_compares() {
        let spec = ServeGridSpec::from_json(SPEC).unwrap();
        let report = run_serve_grid(&spec);
        let cells = report.get("cells").and_then(Value::as_array).unwrap();
        assert_eq!(cells.len(), spec.n_cells());
        for cell in cells {
            assert!(cell.get("rows_per_sec").and_then(Value::as_f64).unwrap() > 0.0);
            assert!(cell.get("wall_rel").and_then(Value::as_f64).unwrap() > 0.0);
            assert_eq!(cell.get("layout").and_then(Value::as_str), Some("flat"));
            assert_eq!(cell.get("score_threads").and_then(Value::as_u64), Some(1));
        }
        // Speedup entries exist for every (trees, batch) pair and carry
        // the compiled-vs-walk factors.
        let speedups = report.get("speedups").and_then(Value::as_array).unwrap();
        assert_eq!(speedups.len(), 4);
        for s in speedups {
            assert!(s.get("per-row_vs_walk").and_then(Value::as_f64).unwrap() > 0.0);
            assert!(s.get("blocked_vs_walk").and_then(Value::as_f64).unwrap() > 0.0);
            assert!(s.get("blocked_vs_per-row").and_then(Value::as_f64).unwrap() > 0.0);
        }
        // The traffic pass completed with a verified hot-swap and no drops.
        let traffic = report.get("traffic").and_then(Value::as_object).unwrap();
        assert_eq!(traffic.get("dropped").and_then(Value::as_u64), Some(0));
        assert_eq!(traffic.get("requests").and_then(Value::as_u64), Some(40));
        assert_eq!(traffic.get("versions_seen").unwrap(), &json!([1, 2]));
        assert!(traffic.get("throughput_rps").and_then(Value::as_f64).unwrap() > 0.0);
        // The regression gate indexes serving cells and passes against
        // itself.
        let cmp = compare_reports(&report, &report, 0.10).unwrap();
        assert!(cmp.compared >= spec.n_cells());
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
    }

    #[test]
    fn axes_grid_runs_quant_and_parallel_cells_bit_identical() {
        let spec = ServeGridSpec::from_json(AXES_SPEC).unwrap();
        let report = run_serve_grid(&spec);
        let cells = report.get("cells").and_then(Value::as_array).unwrap();
        assert_eq!(cells.len(), spec.n_cells());
        // Every (layout, threads) combination produced compiled cells —
        // run_serve_grid already asserted each one bit-matches the walk.
        for (layout, threads) in
            [("flat", 1), ("flat", 3), ("quant", 1), ("quant", 3)]
        {
            let n = cells
                .iter()
                .filter(|c| {
                    c.get("layout").and_then(Value::as_str) == Some(layout)
                        && c.get("score_threads").and_then(Value::as_u64)
                            == Some(threads)
                        && c.get("strategy").and_then(Value::as_str) != Some("walk")
                })
                .count();
            assert_eq!(n, 2 * 2 * 2, "strategies x batches x trees at {layout}/t{threads}");
        }
        // The speedup section names off-default combos like the executor
        // labels do.
        let speedups = report.get("speedups").and_then(Value::as_array).unwrap();
        assert!(speedups.iter().any(|s| s.get("blocked@quant_vs_walk").is_some()));
        assert!(speedups.iter().any(|s| s.get("blocked+t3_vs_walk").is_some()));
        assert!(speedups
            .iter()
            .any(|s| s.get("blocked@quant+t3_vs_per-row@quant+t3").is_some()));
        // Self-comparison covers the suffixed keys too.
        let cmp = compare_reports(&report, &report, 0.10).unwrap();
        assert!(cmp.compared >= spec.n_cells());
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
    }

    #[test]
    #[should_panic(expected = "the spec demands")]
    fn impossible_speedup_gate_fires() {
        let mut spec = ServeGridSpec::from_json(SPEC).unwrap();
        spec.traffic = None;
        spec.batches = vec![256];
        spec.min_blocked_speedup = 1e9;
        run_serve_grid(&spec);
    }

    #[test]
    fn parallel_gate_is_machine_aware() {
        // The gate only binds when the box can physically show a speedup.
        assert!(parallel_gate_enforced(8, 4));
        assert!(parallel_gate_enforced(4, 4));
        assert!(!parallel_gate_enforced(1, 4));
        assert!(!parallel_gate_enforced(2, 8));
    }

    #[test]
    fn synthetic_generators_are_deterministic() {
        let a = synthetic_model(7, 3, 4, 8);
        let b = synthetic_model(7, 3, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, synthetic_model(8, 3, 4, 8));
        let r1 = synthetic_rows(7, 16, 8);
        let r2 = synthetic_rows(7, 16, 8);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&r1), bits(&r2));
        assert!(r1.iter().any(|v| v.is_nan()), "rows must exercise missing values");
    }
}
