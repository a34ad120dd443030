//! Command line of the repository benchmark.
//!
//! ```text
//! perfbench --workload <train-wide|train-tall|serve|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload: prints a provenance line, then, as the last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 1`
//! also writes the run's spans as Chrome trace-event JSON under
//! `perfbench/out/`. `--workload all` runs every workload untraced and
//! traced and prints every metric by name with its unit, plus the tracing
//! overhead. The exit code is non-zero when any output fails verification.

use perfbench::trace::Tracer;
use perfbench::{util, Report, END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::{json, Value};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (expected 0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

fn run_one(workload: &str, args: &Args, trace: bool) -> (Report, Value) {
    let provenance = util::provenance(workload, args.seed, args.seconds, trace);
    let run_id = format!("{workload}-seed{}-pid{}", args.seed, std::process::id());
    let mut tracer = Tracer::new(trace, workload, run_id);
    let report = perfbench::run(workload, args.seed, args.seconds as f64, &mut tracer, false);
    if trace {
        let path = format!("perfbench/out/trace-{workload}-seed{}.json", args.seed);
        let doc = tracer.chrome_json(provenance.clone());
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, doc.to_string()));
        match written {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    (report, provenance)
}

fn info_line(report: &Report, provenance: Value) -> Value {
    let notes: serde_json::Map = report
        .notes
        .iter()
        .map(|(k, v)| (k.clone(), json!(v.clone())))
        .collect();
    json!({ "provenance": provenance, "notes": Value::Object(notes), "failures": report.failures.clone() })
}

fn single(args: &Args) -> ExitCode {
    let (report, provenance) = run_one(&args.workload, args, args.trace);
    println!("{}", info_line(&report, provenance));
    let metrics = report.metrics_json(args.trace).unwrap_or_else(|e| {
        eprintln!("{e}");
        json!({})
    });
    let correct = report.correct() && metrics.as_object().is_some_and(|m| !m.is_empty());
    for why in &report.failures {
        eprintln!("FAILED: {why}");
    }
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": report.attempted,
            "failed": report.failed,
            "metrics": metrics,
        })
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    for &workload in WORKLOADS {
        let (plain, provenance) = run_one(workload, args, false);
        let (traced, _) = run_one(workload, args, true);
        println!("{}", info_line(&plain, provenance));
        println!("{workload}:");
        for (report, table) in [(&plain, END_TO_END), (&traced, PER_LAYER)] {
            for &(name, unit) in table {
                println!(
                    "  {name:<30} {:>16.6} {unit}",
                    report.get(name).unwrap_or(0.0)
                );
            }
        }
        for (traced_name, name) in [
            ("trace.trees_per_s", "trees_per_s"),
            ("trace.p50_ms", "p50_ms"),
        ] {
            if let (Some(t), Some(u)) = (traced.get(traced_name), plain.get(name)) {
                println!(
                    "  tracing overhead on {name:<17} {:>+15.2}%",
                    (t - u) / u * 100.0
                );
            }
        }
        for why in plain.failures.iter().chain(&traced.failures) {
            println!("  FAILED: {why}");
        }
        ok &= plain.correct() && traced.correct();
    }
    println!(
        "{}",
        if ok {
            "all outputs verified"
        } else {
            "VERIFICATION FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(args) if args.workload == "all" => all(&args),
        Ok(args) => single(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
