//! Small measurement helpers: order statistics, the model fingerprint,
//! peak-RSS reset/read, the machine-speed probe and run provenance.

use serde_json::{json, Value};
use std::time::Instant;

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Index of the sample closest to the median (the representative run whose
/// per-layer breakdown is reported).
pub fn median_index(values: &[f64]) -> usize {
    let m = median(values);
    (0..values.len())
        .min_by(|&a, &b| (values[a] - m).abs().total_cmp(&(values[b] - m).abs()))
        .expect("median_index of an empty sample")
}

/// Runs `f` and returns its result with the elapsed wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// FNV-1a 64-bit hash: the fingerprint of `GbdtModel::encode_bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Resets this process's peak RSS (`VmHWM`) to its current RSS and returns
/// that RSS in MiB, so `peak_rss_mb() - reset_peak_rss()` is how far the
/// resident set rose in between. The rise is reported rather than the
/// absolute peak because the level at the reset includes heap the
/// allocator kept from the untimed input generation, which varies run to
/// run.
pub fn reset_peak_rss() -> f64 {
    // Without the reset (no `/proc`) the rise still bounds the phase from
    // above, and every run makes the same call.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    status_mb("VmRSS:")
}

/// Peak resident set size of this process since the last reset, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds one fixed integer loop takes: the machine-speed reading stored
/// with every result, so runs on differently loaded machines can be told
/// apart. Best of five bursts.
pub fn machine_probe_s() -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15_u64;
            let mut acc = 0u64;
            for _ in 0..2_000_000 {
                x = x
                    .wrapping_mul(0xd134_2543_de82_ef95)
                    .wrapping_add(0x2545_f491_4f6c_dd1d);
                acc = acc.wrapping_add(x >> 33);
            }
            std::hint::black_box(acc);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The commit of the checkout, read from `.git` in the working directory
/// (never from a parent directory); `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Provenance recorded with every result.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> Value {
    json!({
        "git_rev": git_rev(),
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "rustc": env!("PERFBENCH_RUSTC_VERSION"),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine_probe_s": machine_probe_s(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median_index(&[5.0, 1.0, 3.0]), 2);
    }

    #[test]
    fn fnv1a_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
