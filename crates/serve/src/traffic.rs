//! Synthetic open-loop traffic generation against a serving mesh.
//!
//! [`run_traffic`] stands up a `gbdt-cluster` mesh — rank 0 serving, the
//! remaining ranks driving load — and measures latency the open-loop way:
//! each request has a *scheduled* start (`i / qps` into the run) and its
//! latency is `completion − scheduled_start`, so a slow server visibly
//! accumulates queueing delay instead of silently slowing the request
//! clock (the coordinated-omission trap).
//!
//! Every client scores a fixed per-client batch, which makes end-to-end
//! verification exact: the harness precomputes the expected scores of
//! every `(model version, client)` pair with the tree-walk predictor, and
//! any response that does not bit-match its stamped version's expectation
//! fails the run — the property that proves hot-swaps are never torn.

use crate::exec::{Layout, Strategy};
use crate::server::{serve, ModelSlot, ServeConfig};
use crate::stats::{Clock, ServeRun};
use crate::wire::{PredictRequest, PredictResponse, PublishAck};
use bytes::Bytes;
use gbdt_cluster::comm::protocol::{
    SERVE_PUBLISH_TAG, SERVE_REQUEST_TAG, SERVE_RESPONSE_TAG, SERVE_STOP_TAG,
};
use gbdt_cluster::{Comm, NetworkCostModel};
use gbdt_core::model::GbdtModel;

/// Knobs of one synthetic traffic run.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Client ranks driving load (the mesh is `n_clients + 1` wide).
    pub n_clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Rows per request.
    pub batch: usize,
    /// Aggregate offered load, requests/second; `0` = open throttle
    /// (each request scheduled at the previous one's completion).
    pub qps: f64,
    /// Execution strategy the server runs.
    pub strategy: Strategy,
    /// Compiled node layout the server scores through.
    pub layout: Layout,
    /// Scoring threads per request batch (1 = serial, 0 = auto).
    pub score_threads: usize,
    /// Seed for the synthetic feature rows.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            n_clients: 2,
            requests_per_client: 200,
            batch: 16,
            qps: 0.0,
            strategy: Strategy::Blocked(0),
            layout: Layout::Flat,
            score_threads: 1,
            seed: 42,
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic per-client batch: values in ±3 with ~12% missing cells.
fn client_rows(seed: u64, client: usize, batch: usize, n_features: usize) -> Vec<f32> {
    let mut state = seed ^ (client as u64).wrapping_mul(0x9e37_79b9);
    (0..batch * n_features)
        .map(|_| {
            if splitmix(&mut state).is_multiple_of(8) {
                f32::NAN
            } else {
                let unit = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                (unit * 6.0 - 3.0) as f32
            }
        })
        .collect()
}

/// Reference scores of a NaN-dense batch via the tree-walk predictor.
fn walk_scores(model: &GbdtModel, rows: &[f32], n_features: usize) -> Vec<f64> {
    let c = model.n_outputs();
    let mut out = vec![0.0; rows.len() / n_features * c];
    let mut feats = Vec::with_capacity(n_features);
    let mut vals = Vec::with_capacity(n_features);
    for (r, row) in rows.chunks_exact(n_features).enumerate() {
        feats.clear();
        vals.clear();
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

/// Open-loop pacing: sleeps until request `i`'s *scheduled* start and
/// returns that schedule — `i / qps`, a pure function of the pacing
/// plan. Crucially, when the client is running late (a backlogged
/// server pushed previous completions past the schedule) the scheduled
/// start is returned unchanged rather than "now": latency measured from
/// it then includes the queueing delay the backlog caused. This is the
/// coordinated-omission guard, and it is what keeps parallel chunked
/// scoring honest too — a request's completion is its *last* chunk's
/// completion (the server replies only after every chunk joins), so
/// neither pacing nor chunking can shrink the measured interval.
///
/// `qps == 0` degrades to closed-loop pacing: each request is scheduled
/// at the moment it is issued.
fn pace_to_schedule(i: usize, per_client_qps: f64, clock: Clock) -> f64 {
    if per_client_qps > 0.0 {
        let target = i as f64 / per_client_qps;
        let now = clock.elapsed_s();
        if now < target {
            std::thread::sleep(std::time::Duration::from_secs_f64(target - now));
        }
        target
    } else {
        clock.elapsed_s()
    }
}

struct ClientOutcome {
    latencies_s: Vec<f64>,
    versions: Vec<u64>,
    dropped: u64,
    rows: u64,
    error: Option<String>,
}

/// What one client thread does: paced request/verify loop, plus (client 1
/// only) publishing each follow-up model at an evenly spaced point.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    comm: &Comm,
    client: usize,
    cfg: &TrafficConfig,
    rows: &[f32],
    n_features: usize,
    expected_by_version: &[Vec<f64>],
    publish_payloads: &[(usize, Bytes)],
    clock: Clock,
) -> ClientOutcome {
    let mut out = ClientOutcome {
        latencies_s: Vec::with_capacity(cfg.requests_per_client),
        versions: Vec::new(),
        dropped: 0,
        rows: 0,
        error: None,
    };
    let per_client_qps = cfg.qps / cfg.n_clients.max(1) as f64;
    for i in 0..cfg.requests_per_client {
        // Publishes happen before the request slated for the same index.
        for &(at, ref payload) in publish_payloads {
            if at == i {
                if let Err(e) =
                    comm.send(0, SERVE_PUBLISH_TAG, payload.clone())
                {
                    out.error = Some(format!("publish send: {e}"));
                    return out;
                }
                match comm.recv(0, SERVE_RESPONSE_TAG).map(|b| PublishAck::decode(&b)) {
                    Ok(Ok(ack)) if ack.version > 0 => {}
                    other => {
                        out.error = Some(format!("publish not acked: {other:?}"));
                        return out;
                    }
                }
            }
        }
        let scheduled_s = pace_to_schedule(i, per_client_qps, clock);
        let req = PredictRequest {
            req_id: (client as u64) << 32 | i as u64,
            n_features: n_features as u32,
            max_trees: 0,
            rows: rows.to_vec(),
        };
        if let Err(e) = comm.send(0, SERVE_REQUEST_TAG, Bytes::from(req.encode())) {
            out.error = Some(format!("request send: {e}"));
            return out;
        }
        // Completion is stamped the instant the full response frame
        // arrives — under parallel scoring the server only replies after
        // its last row chunk joins, so this is last-chunk completion.
        // Stamping *before* decode keeps client-side parse cost out of
        // the served-latency ledger.
        let (resp, completed_s) = match comm.recv(0, SERVE_RESPONSE_TAG) {
            Ok(bytes) => {
                let completed_s = clock.elapsed_s();
                match PredictResponse::decode(&bytes) {
                    Ok(resp) => (resp, completed_s),
                    Err(e) => {
                        out.error = Some(format!("bad response frame: {e}"));
                        return out;
                    }
                }
            }
            Err(_) => {
                out.dropped += 1;
                continue;
            }
        };
        out.latencies_s.push(completed_s - scheduled_s);
        if resp.req_id != req.req_id {
            out.error = Some(format!("response id {} for request {}", resp.req_id, req.req_id));
            return out;
        }
        // Torn-swap detector: the scores must bit-match the expectation of
        // exactly the version stamped on the response.
        let expected = match expected_by_version.get(resp.version.wrapping_sub(1) as usize) {
            Some(e) => e,
            None => {
                out.error = Some(format!("unknown model version {}", resp.version));
                return out;
            }
        };
        let matches = expected.len() == resp.scores.len()
            && expected.iter().zip(&resp.scores).all(|(a, b)| a.to_bits() == b.to_bits());
        if !matches {
            out.error =
                Some(format!("scores do not match version {} expectation", resp.version));
            return out;
        }
        out.versions.push(resp.version);
        out.rows += (rows.len() / n_features) as u64;
    }
    out
}

/// Runs a full synthetic traffic session: serves `models[0]`, hot-swaps
/// to each subsequent model at evenly spaced points mid-run (published by
/// client 1), and verifies every response against its stamped version.
///
/// Returns the aggregated [`ServeRun`], or `Err` on any protocol or
/// verification failure (torn swap, dropped ack, wrong scores).
pub fn run_traffic(models: &[GbdtModel], cfg: &TrafficConfig) -> Result<ServeRun, String> {
    let first = models.first().ok_or("need at least one model")?;
    if cfg.n_clients == 0 || cfg.requests_per_client == 0 || cfg.batch == 0 {
        return Err("n_clients, requests_per_client, and batch must be positive".into());
    }
    let n_features = first.n_features.max(1);
    for (k, m) in models.iter().enumerate().skip(1) {
        if m.n_features.max(1) != n_features || m.n_outputs() != first.n_outputs() {
            return Err(format!("model {k} shape differs from the initial model"));
        }
    }
    let batches: Vec<Vec<f32>> = (1..=cfg.n_clients)
        .map(|c| client_rows(cfg.seed, c, cfg.batch, n_features))
        .collect();
    // expected[version - 1][client - 1] = exact scores for that pairing.
    let expected: Vec<Vec<Vec<f64>>> = models
        .iter()
        .map(|m| batches.iter().map(|rows| walk_scores(m, rows, n_features)).collect())
        .collect();
    // Client 1 publishes model k at an evenly spaced request index.
    let publish_payloads: Vec<(usize, Bytes)> = models
        .iter()
        .enumerate()
        .skip(1)
        .map(|(k, m)| {
            (k * cfg.requests_per_client / models.len(), Bytes::from(m.encode_bytes()))
        })
        .collect();

    let slot = ModelSlot::new(first)?;
    let executor = ServeConfig {
        strategy: cfg.strategy,
        layout: cfg.layout,
        score_threads: cfg.score_threads,
    }
    .executor();
    let mesh = Comm::mesh(
        cfg.n_clients + 1,
        NetworkCostModel { latency_s: 0.0, bandwidth_bytes_per_s: 1e9 },
    );
    let mut comms = mesh.into_iter();
    let server_comm = comms.next().ok_or("empty mesh")?;
    let clock = Clock::new();

    let mut outcomes: Vec<ClientOutcome> = Vec::new();
    let mut server_result = None;
    std::thread::scope(|scope| {
        let slot = &slot;
        let executor = &executor;
        let server =
            scope.spawn(move || serve(&server_comm, slot, executor.as_ref(), cfg.n_clients));
        let mut handles = Vec::new();
        for (idx, comm) in comms.enumerate() {
            let client = idx + 1;
            let rows = &batches[idx];
            let expected_by_version: Vec<Vec<f64>> =
                expected.iter().map(|per_client| per_client[idx].clone()).collect();
            let publishes: Vec<(usize, Bytes)> =
                if client == 1 { publish_payloads.clone() } else { Vec::new() };
            handles.push(scope.spawn(move || {
                let outcome = client_loop(
                    &comm,
                    client,
                    cfg,
                    rows,
                    n_features,
                    &expected_by_version,
                    &publishes,
                    clock,
                );
                let _ = comm.send(0, SERVE_STOP_TAG, Bytes::new());
                outcome
            }));
        }
        for h in handles {
            if let Ok(outcome) = h.join() {
                outcomes.push(outcome);
            }
        }
        server_result = Some(server.join());
    });
    let wall_s = clock.elapsed_s();

    let server_stats = match server_result {
        Some(Ok(Ok(stats))) => stats,
        other => return Err(format!("server failed: {other:?}")),
    };
    if outcomes.len() != cfg.n_clients {
        return Err(format!("{} of {} clients panicked", cfg.n_clients - outcomes.len(), cfg.n_clients));
    }
    let mut latencies = Vec::new();
    let mut versions = Vec::new();
    let mut dropped = 0u64;
    let mut rows = 0u64;
    for outcome in outcomes {
        if let Some(e) = outcome.error {
            return Err(e);
        }
        latencies.extend(outcome.latencies_s);
        versions.extend(outcome.versions);
        dropped += outcome.dropped;
        rows += outcome.rows;
    }
    if server_stats.malformed > 0 {
        return Err(format!("server saw {} malformed frames", server_stats.malformed));
    }
    // The executor label, not `cfg.strategy.label()`: it names the path
    // actually engaged, including layout and thread suffixes
    // (`blocked@quant+t4`), so a trajectory can't claim a configuration
    // it didn't run.
    Ok(ServeRun::from_latencies(
        executor.label(),
        cfg.batch,
        first.trees.len(),
        cfg.n_clients,
        cfg.qps,
        &latencies,
        dropped,
        rows,
        server_stats.publishes,
        versions,
        wall_s,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbdt_core::tree::Tree;
    use gbdt_core::Objective;

    fn model_with_leaves(l: f64, r: f64, n_trees: usize) -> GbdtModel {
        let mut m = GbdtModel::new(Objective::SquaredError, 0.1, 4);
        for k in 0..n_trees {
            let mut t = Tree::new(2, 1);
            t.set_internal(0, (k % 4) as u32, 0, 0.25, true);
            t.set_leaf(1, &[l]);
            t.set_leaf(2, &[r]);
            m.trees.push(t);
        }
        m
    }

    #[test]
    fn traffic_completes_with_verified_scores() {
        let cfg = TrafficConfig {
            n_clients: 2,
            requests_per_client: 40,
            batch: 8,
            qps: 0.0,
            strategy: Strategy::PerRow,
            seed: 7,
            ..TrafficConfig::default()
        };
        let run = run_traffic(&[model_with_leaves(1.0, -1.0, 10)], &cfg).unwrap();
        assert_eq!(run.requests, 80);
        assert_eq!(run.dropped, 0);
        assert_eq!(run.rows, 640);
        assert_eq!(run.publishes, 0);
        assert_eq!(run.versions_seen, vec![1]);
        assert!(run.throughput_rps > 0.0);
        assert!(run.p99_ms >= run.p50_ms);
    }

    #[test]
    fn hot_swap_mid_run_is_never_torn() {
        let cfg = TrafficConfig {
            n_clients: 3,
            requests_per_client: 60,
            batch: 4,
            qps: 0.0,
            strategy: Strategy::Blocked(0),
            seed: 11,
            ..TrafficConfig::default()
        };
        let models =
            [model_with_leaves(1.0, -1.0, 8), model_with_leaves(9.0, -9.0, 8)];
        let run = run_traffic(&models, &cfg).unwrap();
        assert_eq!(run.dropped, 0);
        assert_eq!(run.publishes, 1);
        assert_eq!(run.versions_seen, vec![1, 2]);
        assert_eq!(run.requests, 180);
    }

    #[test]
    fn paced_traffic_reports_latency() {
        let cfg = TrafficConfig {
            n_clients: 1,
            requests_per_client: 30,
            batch: 2,
            qps: 2000.0,
            strategy: Strategy::PerRow,
            seed: 3,
            ..TrafficConfig::default()
        };
        let run = run_traffic(&[model_with_leaves(0.5, -0.5, 4)], &cfg).unwrap();
        assert_eq!(run.requests, 30);
        assert!(run.wall_s > 0.0);
        assert!(run.p999_ms >= run.p99_ms && run.p99_ms >= run.p50_ms);
    }

    /// Regression (coordinated omission): a client running *late* must
    /// still get the original schedule back, so latency measured from it
    /// includes the backlog. If pacing ever "resets" to the current
    /// clock, a stalled server would erase its own queueing delay from
    /// the ledger.
    #[test]
    fn late_pacing_keeps_the_scheduled_start() {
        let clock = Clock::new();
        // Request 2 at 1000 qps is scheduled at 2 ms; by the time the
        // client gets to it the run is already ≥ 20 ms old (a backlog).
        std::thread::sleep(std::time::Duration::from_millis(20));
        let scheduled = pace_to_schedule(2, 1000.0, clock);
        assert_eq!(scheduled, 0.002, "late request must keep its scheduled start");
        let latency = clock.elapsed_s() - scheduled;
        assert!(latency >= 0.018, "backlog must surface as latency, got {latency}");
        // Closed loop (qps = 0): scheduled at issue time, so latency
        // excludes think time by construction.
        let scheduled = pace_to_schedule(2, 0.0, clock);
        assert!(scheduled >= 0.02);
    }

    /// Paced traffic with parallel chunked scoring: every response still
    /// bit-matches its stamped version (the snapshot is taken once per
    /// request) and the latency ledger stays whole — one sample per
    /// completed request, measured to last-chunk completion.
    #[test]
    fn parallel_scoring_keeps_paced_latency_whole() {
        let cfg = TrafficConfig {
            n_clients: 2,
            requests_per_client: 25,
            batch: 96, // > one 64-row chunk, so the pool actually fans out
            qps: 1500.0,
            strategy: Strategy::Blocked(0),
            layout: Layout::Quant,
            score_threads: 4,
            seed: 13,
        };
        let models = [model_with_leaves(1.0, -1.0, 6), model_with_leaves(4.0, -4.0, 6)];
        let run = run_traffic(&models, &cfg).unwrap();
        assert_eq!(run.requests, 50, "one latency sample per request");
        assert_eq!(run.dropped, 0);
        assert_eq!(run.versions_seen, vec![1, 2], "both versions served, none torn");
        assert_eq!(run.rows, 50 * 96);
        assert!(run.p999_ms >= run.p99_ms && run.p99_ms >= run.p50_ms);
    }
}
