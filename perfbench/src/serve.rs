//! The `serve` workload: the replicated serving plane (`run_avail`) with one
//! replica and one client thread.
//!
//! The run repeats a cycle of two kinds of round until its time is spent:
//!
//! * an open-loop round at a fixed rate, about a quarter of the closed-loop
//!   capacity, with hot-swap publishes spread evenly through it, so writes
//!   sit beside reads: each publish stalls the single replica while it
//!   decodes and compiles, and that stall is what `p99_ms` sees while
//!   `p50_ms` sees only reads. There is one publish per 50 requests, so a
//!   round's p99 falls on its middle publish stall rather than on the
//!   tail of one or two;
//! * then a few closed-loop rounds with one waiting client and no
//!   publishes, which give `rows_per_s`.
//!
//! Latencies are medians over rounds, so a burst of machine noise moves one
//! round rather than the run, and repeating the cycle spreads both kinds
//! over the whole run. Set-up is repeated in every cycle for the same
//! reason. Every response is verified bit-exactly by `run_avail` against
//! its stamped model version.

use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb, reset_peak_rss, timed};
use crate::Report;
use gbdt_bench::servegrid::{synthetic_model, synthetic_rows};
use gbdt_core::GbdtModel;
use gbdt_serve::avail::AvailOutcome;
use gbdt_serve::compile::compile;
use gbdt_serve::wire::{PredictRequest, PredictResponse, ReplyStatus};
use gbdt_serve::{run_avail, AvailConfig, Layout, ServeConfig, Strategy};
use std::time::Instant;

/// Shape and settings of the serving workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Trees in every served ensemble.
    pub trees: usize,
    /// Layers of every (complete) tree.
    pub layers: usize,
    /// Row width.
    pub features: usize,
    /// Rows per request.
    pub batch: usize,
    /// Open-loop offered load, requests per second.
    pub qps: f64,
    /// Requests of one open-loop round.
    pub open_requests: usize,
    /// Hot-swap publishes spread through each open-loop round.
    pub publishes: usize,
    /// Requests of one closed-loop round.
    pub closed_requests: usize,
    /// Closed-loop rounds after each open-loop round.
    pub closed_rounds: usize,
    /// Cycles made even when the time budget runs out first.
    pub min_cycles: usize,
    /// Decode-plus-compile repetitions before every cycle; the median of
    /// all of them is `setup_s`.
    pub setup_reps: usize,
    /// Repetitions of each per-call probe (median reported).
    pub probe_reps: usize,
}

impl ServeSpec {
    /// The benchmark's serving workload.
    pub fn standard() -> Self {
        ServeSpec {
            trees: 256,
            layers: 8,
            features: 32,
            batch: 64,
            qps: 250.0,
            open_requests: 500,
            publishes: 10,
            closed_requests: 400,
            closed_rounds: 3,
            min_cycles: 3,
            setup_reps: 10,
            probe_reps: 201,
        }
    }

    /// The same code path at a size that runs in well under a second.
    pub fn toy(mut self) -> Self {
        self.trees = 16;
        self.open_requests = 60;
        self.closed_requests = 40;
        self.min_cycles = 2;
        self.setup_reps = 2;
        self.probe_reps = 5;
        self
    }

    /// Encoded models: the initial one, then one per publish.
    pub fn model_bytes(&self, seed: u64) -> Vec<Vec<u8>> {
        (0..=self.publishes as u64)
            .map(|k| {
                synthetic_model(seed ^ (k << 40), self.trees, self.layers, self.features)
                    .encode_bytes()
            })
            .collect()
    }

    fn avail_config(&self, seed: u64, qps: f64, requests: usize) -> AvailConfig {
        AvailConfig {
            label: if qps > 0.0 {
                "open-loop"
            } else {
                "closed-loop"
            }
            .into(),
            n_replicas: 1,
            n_clients: 1,
            requests_per_client: requests,
            batch: self.batch,
            qps,
            strategy: Strategy::PerRow,
            layout: Layout::Flat,
            score_threads: 1,
            seed,
            ..AvailConfig::default()
        }
    }
}

fn avail(
    tracer: &mut Tracer,
    models: &[GbdtModel],
    cfg: &AvailConfig,
) -> Result<AvailOutcome, String> {
    tracer.span("run_avail", |_| run_avail(models, cfg, None))
}

/// Decode-plus-compile seconds of the initial model, one entry per
/// repetition.
#[derive(Default)]
struct SetupTimes {
    decode_s: Vec<f64>,
    compile_s: Vec<f64>,
    total_s: Vec<f64>,
}

impl SetupTimes {
    fn measure(&mut self, reps: usize, bytes: &[u8], tracer: &mut Tracer) {
        for _ in 0..reps {
            let (model, d) = timed(|| {
                tracer.span("GbdtModel::decode_bytes", |_| GbdtModel::decode_bytes(bytes))
            });
            let model = model.expect("generated model bytes decode");
            let (ens, c) = timed(|| tracer.span("compile::compile", |_| compile(&model, 1)));
            ens.expect("generated model compiles");
            self.decode_s.push(d);
            self.compile_s.push(c);
            self.total_s.push(d + c);
        }
    }
}

/// Runs the serving workload for `seconds` and fills `report`.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, tracer: &mut Tracer, report: &mut Report) {
    let payloads = spec.model_bytes(seed);

    // Set-up: decode and compile the initial model, several times.
    let mut setup = SetupTimes::default();
    setup.measure(spec.setup_reps, &payloads[0], tracer);
    let models: Vec<GbdtModel> = payloads
        .iter()
        .map(|b| GbdtModel::decode_bytes(b).expect("generated model bytes decode"))
        .collect();

    let rss_before = reset_peak_rss();
    let start = Instant::now();
    let open_cfg = spec.avail_config(seed, spec.qps, spec.open_requests);
    let closed_cfg = spec.avail_config(seed, 0.0, spec.closed_requests);
    let (mut open, mut closed) = (Vec::new(), Vec::new());
    let mut peak_mb = None;
    while open.len() < spec.min_cycles || start.elapsed().as_secs_f64() < seconds {
        if !open.is_empty() {
            setup.measure(spec.setup_reps, &payloads[0], tracer);
        }
        match avail(tracer, &models, &open_cfg) {
            Ok(o) => open.push(o),
            Err(e) => return report.fail(format!("open-loop round failed: {e}")),
        }
        for _ in 0..spec.closed_rounds {
            match avail(tracer, &models[..1], &closed_cfg) {
                Ok(c) => closed.push(c),
                Err(e) => return report.fail(format!("closed-loop round failed: {e}")),
            }
        }
        // Memory of the first cycle: later cycles only add allocator
        // fragmentation from repeating the rounds.
        peak_mb.get_or_insert_with(|| peak_rss_mb() - rss_before);
    }
    let peak_mb = peak_mb.expect("at least one cycle");
    let outcomes: Vec<&AvailOutcome> = open.iter().chain(&closed).collect();

    // Correctness: every request answered and bit-verified, and every
    // published version seen.
    let requests: u64 = outcomes.iter().map(|o| o.run.requests).sum();
    let served: u64 = outcomes.iter().map(|o| o.run.served).sum();
    let incorrect: u64 = outcomes.iter().map(|o| o.run.incorrect).sum();
    if incorrect > 0 {
        report.fail(format!(
            "{incorrect} responses failed bit-exact verification"
        ));
    }
    if served != requests {
        report.fail(format!(
            "{} of {requests} requests were not served and verified",
            requests - served
        ));
    }
    let expected_versions: Vec<u64> = (1..=spec.publishes as u64 + 1).collect();
    for o in &open {
        if o.run.versions_seen != expected_versions {
            report.fail(format!(
                "open loop saw versions {:?}, expected {expected_versions:?}",
                o.run.versions_seen
            ));
        }
    }
    report.attempted = requests;
    report.failed = requests - served;

    // Throughput is rows over time summed across the closed-loop rounds.
    // Rounds of one run differ by up to 1.7x in speed, and a median over
    // them jumps between fast and slow rounds; the total weighs every
    // round by its time.
    let closed_rows: u64 = closed.iter().map(|c| c.run.served).sum::<u64>() * spec.batch as u64;
    let closed_s: f64 = closed.iter().map(|c| c.run.wall_s).sum();
    let rows = closed_rows as f64 / closed_s;
    let p50_ms = median(&open.iter().map(|o| o.run.p50_ms).collect::<Vec<_>>());
    let p99_ms = median(&open.iter().map(|o| o.run.p99_ms).collect::<Vec<_>>());
    let verified = served as f64 / requests as f64;
    report.set("setup_s", median(&setup.total_s));
    report.set("trees_per_s", rows * spec.trees as f64);
    report.set("quality", verified);
    report.set("peak_rss_mb", peak_mb);
    report.set("p50_ms", p50_ms);
    report.set("p99_ms", p99_ms);
    report.set("rows_per_s", rows);
    report.set("success_rate", verified);

    if tracer.enabled() {
        report.set("core.model_decode_ms", median(&setup.decode_s) * 1e3);
        report.set("serve.compile_ms", median(&setup.compile_s) * 1e3);
        report.set("trace.trees_per_s", rows * spec.trees as f64);
        report.set("trace.p50_ms", p50_ms);
        let sum = |f: fn(&AvailOutcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>() as f64;
        report.set("serve.requests", requests as f64);
        report.set("serve.served", served as f64);
        report.set("serve.shed", sum(|o| o.run.shed));
        report.set("serve.failed", sum(|o| o.run.failed));
        report.set("serve.hedges", sum(|o| o.router.hedges));
        report.set("serve.retries", sum(|o| o.router.retries));
        report.set(
            "serve.duplicates_suppressed",
            sum(|o| o.router.duplicates_suppressed),
        );
        report.set(
            "serve.publishes",
            sum(|o| o.replicas.iter().map(|r| r.publishes).sum()),
        );
        let attempts = served as f64 + sum(|o| o.router.hedges) + sum(|o| o.router.retries);
        report.set("serve.useful_ratio", served as f64 / attempts);
        // The last request is due at (requests - 1) / qps.
        let overrun_ms: Vec<f64> = open
            .iter()
            .map(|o| (o.run.wall_s - (o.run.requests - 1) as f64 / spec.qps) * 1e3)
            .collect();
        report.set("serve.gen_overrun_ms", median(&overrun_ms));
        probes(spec, seed, &models[0], p50_ms, tracer, report);
    }
}

/// Per-call probes on one workload batch: scoring and the wire codec.
fn probes(
    spec: &ServeSpec,
    seed: u64,
    model: &GbdtModel,
    p50_ms: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let ens = compile(model, 1).expect("generated model compiles");
    let executor = ServeConfig {
        strategy: Strategy::PerRow,
        layout: Layout::Flat,
        score_threads: 1,
    }
    .executor();
    let rows = synthetic_rows(seed, spec.batch, spec.features);
    let mut out = vec![0.0; spec.batch * model.n_outputs()];
    let score: Vec<f64> = (0..spec.probe_reps)
        .map(|_| {
            timed(|| {
                tracer.span("ExecStrategy::predict_into", |_| {
                    executor.predict_into(&ens, &rows, &mut out)
                })
            })
            .1
        })
        .collect();
    let request = PredictRequest {
        req_id: 1,
        n_features: spec.features as u32,
        max_trees: 0,
        rows,
    };
    let response = PredictResponse {
        req_id: 1,
        version: 1,
        status: ReplyStatus::Ok,
        trees_scored: 0,
        n_outputs: model.n_outputs() as u32,
        scores: out,
    };
    let round_trip = || {
        let req = PredictRequest::decode(&request.encode());
        let resp = PredictResponse::decode(&response.encode());
        (req, resp)
    };
    // Rows carry NaN cells, so compare re-encoded bytes rather than values.
    let (req, resp) = round_trip();
    if req.map(|r| r.encode()) != Ok(request.encode())
        || resp.map(|r| r.encode()) != Ok(response.encode())
    {
        report.fail("wire round trip changed a request or response".into());
    }
    let wire: Vec<f64> = (0..spec.probe_reps)
        .map(|_| timed(|| tracer.span("wire::encode_decode", |_| round_trip())).1)
        .collect();
    let score_ms = median(&score) * 1e3;
    let wire_us = median(&wire) * 1e6;
    report.set("serve.score_ms", score_ms);
    report.set("serve.wire_us", wire_us);
    report.set("serve.unattributed_ms", p50_ms - score_ms - wire_us / 1e3);
}
