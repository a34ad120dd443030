//! The repository benchmark.
//!
//! Three workloads drive the program only through its public functions
//! and time those calls from outside:
//!
//! * `train-wide` — Vero (`qd4::train`) on sparse, high-dimensional,
//!   multi-class data, where split finding dominates;
//! * `train-tall` — LightGBM (`qd2::train`, reduce-scatter) on dense, tall,
//!   low-dimensional binary data, where histogram build, node split and
//!   sketching share the cost;
//! * `serve` — the replicated serving plane under open-loop load with
//!   hot-swap publishes, alternating with closed-loop load.
//!
//! An untraced run reports the [`END_TO_END`] metrics; a traced run
//! records spans around every call, reads the stats the program returns,
//! runs per-call probes, and reports the [`PER_LAYER`] metrics. A metric
//! a workload does not exercise reads 0 (for example `serve.score_ms` on a
//! training workload).

pub mod serve;
pub mod trace;
pub mod train;
pub mod util;

use serde_json::{json, Map, Value};
use std::collections::BTreeMap;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trees_per_s", "1/s"),
    ("quality", "ratio"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("rows_per_s", "1/s"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics of a traced run: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.sketch_s", "s"),
    ("partition.transform_s", "s"),
    ("core.gradients_s", "s"),
    ("core.hist_build_s", "s"),
    ("core.split_find_s", "s"),
    ("core.node_split_s", "s"),
    ("core.predict_s", "s"),
    ("train.other_s", "s"),
    ("train.wall_s", "s"),
    ("train.unattributed_s", "s"),
    ("train.unattributed_frac", "ratio"),
    ("cluster.bytes_sent", "bytes"),
    ("cluster.messages_sent", "count"),
    ("cluster.wire_compression", "ratio"),
    ("cluster.modelled_comm_s", "s"),
    ("core.hist_peak_bytes", "bytes"),
    ("data.shard_bytes", "bytes"),
    ("core.index_bytes", "bytes"),
    ("quadrants.nodes_split", "count"),
    ("core.sketch_call_s", "s"),
    ("core.bin_call_s", "s"),
    ("core.hist_fill_root_s", "s"),
    ("core.split_find_root_s", "s"),
    ("core.node_split_root_s", "s"),
    ("cluster.collective_s", "s"),
    ("partition.transform_call_s", "s"),
    ("serve.score_ms", "ms"),
    ("serve.wire_us", "us"),
    ("serve.unattributed_ms", "ms"),
    ("core.model_decode_ms", "ms"),
    ("serve.compile_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.served", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.hedges", "count"),
    ("serve.retries", "count"),
    ("serve.duplicates_suppressed", "count"),
    ("serve.publishes", "count"),
    ("serve.useful_ratio", "ratio"),
    ("serve.gen_overrun_ms", "ms"),
    ("trace.trees_per_s", "1/s"),
    ("trace.p50_ms", "ms"),
];

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["train-wide", "train-tall", "serve"];

/// What one run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations attempted: fits for training, requests for serving.
    pub attempted: u64,
    /// Operations that failed: fits with a changed model, requests not
    /// served and verified.
    pub failed: u64,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
    /// Facts recorded with the result (model fingerprint and the like).
    pub notes: Vec<(String, String)>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A recorded metric value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a correctness failure.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Records a fact to print with the result.
    pub fn note(&mut self, key: &str, value: String) {
        self.notes.push((key.to_string(), value));
    }

    /// Whether every output of the run was verified.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// for an untraced run, every per-layer metric for a traced one (0 for
    /// a layer this workload does not exercise). A recorded name outside
    /// both tables is an error, as is a missing end-to-end metric on a
    /// run whose outputs were all produced.
    pub fn metrics_json(&self, traced: bool) -> Result<Value, String> {
        if let Some(unknown) = self
            .values
            .keys()
            .find(|k| !END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == k))
        {
            return Err(format!("metric '{unknown}' is not declared"));
        }
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut out = Map::new();
        for &(name, unit) in table {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric '{name}' was not measured")),
            };
            out.insert(name.to_string(), json!({ "value": value, "unit": unit }));
        }
        Ok(Value::Object(out))
    }
}

/// Runs `workload` for `seconds` with inputs made from `seed`; `toy`
/// shrinks every input so the code path runs in well under a second.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    tracer: &mut trace::Tracer,
    toy: bool,
) -> Report {
    let mut report = Report::default();
    match workload {
        "train-wide" | "train-tall" => {
            let spec = if workload == "train-wide" {
                train::TrainSpec::wide()
            } else {
                train::TrainSpec::tall()
            };
            let spec = if toy { spec.toy() } else { spec };
            train::run(&spec, seed, seconds, tracer, &mut report);
        }
        "serve" => {
            let spec = serve::ServeSpec::standard();
            let spec = if toy { spec.toy() } else { spec };
            serve::run(&spec, seed, seconds, tracer, &mut report);
        }
        other => report.fail(format!("unknown workload '{other}'")),
    }
    report
}
