//! Self-tests of the benchmark: every workload's code path at a toy size,
//! stable metric names, and the traced run's time accounting.

use perfbench::trace::Tracer;
use perfbench::{run, Report, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn toy(workload: &str, traced: bool) -> Report {
    let mut tracer = Tracer::new(traced, workload, "selftest".into());
    let report = run(workload, 7, 0.0, &mut tracer, true);
    assert!(report.correct(), "{workload}: {:?}", report.failures);
    if traced {
        assert!(
            !tracer.spans().is_empty(),
            "{workload}: traced run recorded no spans"
        );
    }
    report
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in BENCHMARK.json.
fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Value::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn emitted(report: &Report, traced: bool) -> Vec<(String, String)> {
    let metrics = report.metrics_json(traced).expect("every metric measured");
    metrics
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_the_emitted_names() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_workload_runs_at_toy_size_and_emits_exactly_the_declared_metrics() {
    for &workload in WORKLOADS {
        let plain = toy(workload, false);
        assert_eq!(
            emitted(&plain, false),
            owned(END_TO_END),
            "{workload} untraced"
        );
        let traced = toy(workload, true);
        assert_eq!(
            emitted(&traced, true),
            owned(PER_LAYER),
            "{workload} traced"
        );
        for &(name, _) in END_TO_END {
            let v = plain.get(name).expect("measured");
            // At toy size a fit can reuse memory already resident, so the
            // RSS rise may be 0; every other metric must be positive.
            let floor_ok = if name == "peak_rss_mb" {
                v >= 0.0
            } else {
                v > 0.0
            };
            assert!(v.is_finite() && floor_ok, "{workload}: {name} = {v}");
        }
    }
}

#[test]
fn tracing_does_not_change_the_model() {
    for workload in ["train-wide", "train-tall"] {
        let fingerprint = |r: &Report| {
            r.notes
                .iter()
                .find(|(k, _)| k == "fingerprint")
                .map(|(_, v)| v.clone())
                .expect("fingerprint noted")
        };
        assert_eq!(
            fingerprint(&toy(workload, false)),
            fingerprint(&toy(workload, true)),
            "{workload}"
        );
    }
}

#[test]
fn phases_and_unattributed_time_add_up_to_the_wall_time() {
    let phases = [
        "core.sketch_s",
        "partition.transform_s",
        "core.gradients_s",
        "core.hist_build_s",
        "core.split_find_s",
        "core.node_split_s",
        "core.predict_s",
        "train.other_s",
    ];
    for workload in ["train-wide", "train-tall"] {
        let r = toy(workload, true);
        let get = |n: &str| {
            r.get(n)
                .unwrap_or_else(|| panic!("{workload}: {n} missing"))
        };
        let wall = get("train.wall_s");
        let unattributed = get("train.unattributed_s");
        let sum: f64 = phases.iter().map(|p| get(p)).sum();
        assert!(
            unattributed >= 0.0,
            "{workload}: unattributed {unattributed} < 0"
        );
        assert!(
            (sum + unattributed - wall).abs() <= 1e-9 * wall.max(1.0),
            "{workload}: {sum} + {unattributed} != {wall}"
        );
        assert!((get("train.unattributed_frac") - unattributed / wall).abs() < 1e-12);
    }
}

#[test]
fn pins_cover_the_primary_and_held_out_seeds() {
    let pins: Value = serde_json::from_str(include_str!("../pins.json")).expect("pins.json parses");
    for key in ["primary_seed", "held_out_seed"] {
        let seed = pins.get(key).and_then(Value::as_u64).expect("seed named");
        for workload in ["train-wide", "train-tall"] {
            assert!(
                perfbench::train::pin_for(workload, seed).is_some(),
                "{workload} seed {seed}"
            );
        }
    }
    assert!(perfbench::train::pin_for("train-tall", 1_000_000).is_none());
}
