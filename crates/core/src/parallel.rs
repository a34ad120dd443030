//! Intra-worker multi-core execution.
//!
//! Every simulated worker may fan its own computation — histogram
//! construction and split finding, the two dominant Comp costs of §3.1 —
//! across OS threads via [`std::thread::scope`]. The layer is built around
//! one invariant: **results are bit-identical for every thread count**, so
//! the cross-quadrant equivalence guarantees (DESIGN.md §4.1) survive
//! parallel execution unchanged. The rules that buy determinism:
//!
//! * **Row-store histogram builds** partition a node's instance list into
//!   [`INSTANCE_CHUNK`]-sized chunks whose boundaries depend only on the
//!   list length — never on the thread count. Each chunk is accumulated
//!   into a private scratch [`NodeHistogram`] and the chunk partials are
//!   merged into the node histogram **in ascending chunk order**, giving
//!   one fixed f64 summation bracketing `((p₀+p₁)+p₂)+…` regardless of how
//!   many threads computed the partials (including one).
//! * **Column-store histogram builds** split the histogram buffer into
//!   disjoint contiguous per-feature regions; each thread fills whole
//!   features, so the per-column accumulation order is exactly the
//!   sequential one.
//! * **Split finding** stores each feature's best candidate in a
//!   feature-indexed slot and reduces the slots sequentially in ascending
//!   feature order — the same fold, in the same order, as the
//!   single-threaded scan.
//!
//! Thread budget: the default ([`Parallelism::AUTO`]) divides the machine's
//! cores by the simulated worker count, so a W-worker cluster running W
//! worker threads spawns at most `available_parallelism()` busy threads in
//! total and never oversubscribes the host.

use crate::histogram::{HistogramPool, NodeHistogram};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Instances per histogram-build chunk. Fixed (never derived from the
/// thread count) so the chunk structure — and therefore every f64 sum — is
/// identical no matter how many threads execute the build.
pub const INSTANCE_CHUNK: usize = 4096;

/// Feature count below which the parallel split scan falls back to the
/// sequential path (the fan-out overhead would exceed the scan).
pub const MIN_PARALLEL_FEATURES: usize = 64;

/// Intra-worker thread budget configuration.
///
/// `threads == 0` means *auto*: `available_parallelism() / workers`,
/// clamped to ≥ 1, so that `W` simulated workers sharing one host never
/// oversubscribe it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Threads per worker; 0 = auto.
    pub threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::AUTO
    }
}

impl Parallelism {
    /// Resolve the budget from the host's core count at run time.
    pub const AUTO: Parallelism = Parallelism { threads: 0 };

    /// A fixed thread count (1 = sequential).
    pub const fn fixed(threads: usize) -> Parallelism {
        Parallelism { threads }
    }

    /// The concrete thread count for one of `workers` simulated workers.
    pub fn resolve(&self, workers: usize) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        let cores = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        (cores / workers.max(1)).max(1)
    }
}

/// Accumulates wall-clock vs summed per-thread busy time over the parallel
/// sections a worker executes, so reports can state the realized speedup
/// (`busy / wall`) next to the modelled communication times — keeping the
/// honest-simulation boundary explicit.
#[derive(Debug, Default)]
pub struct Meter {
    wall_nanos: AtomicU64,
    busy_nanos: AtomicU64,
    sections: AtomicU64,
}

impl Meter {
    /// Records one parallel section.
    pub fn add(&self, wall: Duration, busy: Duration) {
        self.wall_nanos.fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
        self.busy_nanos.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        self.sections.fetch_add(1, Ordering::Relaxed);
    }

    /// Total wall-clock seconds spent inside parallel sections.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Total busy seconds summed over all participating threads.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Number of parallel sections recorded.
    pub fn sections(&self) -> u64 {
        self.sections.load(Ordering::Relaxed)
    }

    /// Realized speedup (`busy / wall`); 1.0 when nothing ran in parallel.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall_seconds();
        if wall <= 0.0 {
            1.0
        } else {
            self.busy_seconds() / wall
        }
    }
}

/// Builds the histogram of `node` from its instance list with the
/// deterministic chunked map-reduce described in the module docs.
///
/// `fill` accumulates one chunk of instances into a (zeroed or partially
/// filled) histogram; it must be pure over its arguments. Scratch
/// histograms are drawn from — and returned to — the pool's free list, so
/// steady-state training does not allocate.
pub fn build_histogram_chunked(
    pool: &mut HistogramPool,
    node: u32,
    instances: &[u32],
    threads: usize,
    meter: &Meter,
    fill: impl Fn(&mut NodeHistogram, &[u32]) + Sync,
) {
    let n_chunks = instances.len().div_ceil(INSTANCE_CHUNK).max(1);
    if n_chunks == 1 {
        // One chunk accumulated into the zeroed node histogram is exactly
        // the merged single partial — the direct path changes no bits.
        fill(pool.acquire(node), instances);
        return;
    }

    if threads <= 1 {
        // Sequential, but through the same chunk partials merged in the
        // same order as the parallel path, so the result is bit-identical
        // to every other thread count.
        let mut scratch = pool.take_scratch();
        let hist = pool.acquire(node);
        for chunk in instances.chunks(INSTANCE_CHUNK) {
            scratch.zero();
            fill(&mut scratch, chunk);
            hist.merge_from(&scratch);
        }
        pool.return_scratch(scratch);
        return;
    }

    let t = threads.min(n_chunks);
    let mut scratch: Vec<NodeHistogram> = (0..t).map(|_| pool.take_scratch()).collect();
    // lint: allow(wall-clock) — measures computation time for modelled stats only
    let start = Instant::now();
    let busy = AtomicU64::new(0);
    {
        let hist = pool.acquire(node);
        let chunks: Vec<&[u32]> = instances.chunks(INSTANCE_CHUNK).collect();
        let mut next = 0;
        while next < chunks.len() {
            // One wave: up to `t` chunks accumulate concurrently, each into
            // its own scratch buffer…
            let wave = (chunks.len() - next).min(t);
            std::thread::scope(|s| {
                for (j, sc) in scratch[..wave].iter_mut().enumerate() {
                    let chunk = chunks[next + j];
                    let fill = &fill;
                    let busy = &busy;
                    s.spawn(move || {
                        // lint: allow(wall-clock) — measures computation time for modelled stats only
                        let t0 = Instant::now();
                        sc.zero();
                        fill(sc, chunk);
                        busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    });
                }
            });
            // …then the partials merge in ascending chunk order. Across
            // waves this chains `hist += pᵢ` for i = 0, 1, 2, … exactly.
            // lint: allow(wall-clock) — measures computation time for modelled stats only
            let t0 = Instant::now();
            for sc in &scratch[..wave] {
                hist.merge_from(sc);
            }
            busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            next += wave;
        }
    }
    for sc in scratch {
        pool.return_scratch(sc);
    }
    meter.add(start.elapsed(), Duration::from_nanos(busy.load(Ordering::Relaxed)));
}

/// Fills a histogram feature-by-feature, fanning whole features across
/// threads. `fill(f, slice)` receives the (local) feature id and that
/// feature's contiguous `[bin][class][g,h]` region; because features are
/// disjoint and each is filled by exactly one thread in the sequential
/// per-column order, the result is bit-identical for every thread count.
pub fn par_feature_fill(
    hist: &mut NodeHistogram,
    threads: usize,
    meter: &Meter,
    fill: impl Fn(usize, &mut [f64]) + Sync,
) {
    let d = hist.n_features();
    let stride = hist.feature_stride();
    if d == 0 || stride == 0 {
        return;
    }
    if threads <= 1 || d < 2 {
        for (f, slice) in hist.as_mut_slice().chunks_mut(stride).enumerate() {
            fill(f, slice);
        }
        return;
    }
    let t = threads.min(d);
    let per = d.div_ceil(t);
    // lint: allow(wall-clock) — measures computation time for modelled stats only
    let start = Instant::now();
    let busy = AtomicU64::new(0);
    std::thread::scope(|s| {
        for (bi, block) in hist.as_mut_slice().chunks_mut(per * stride).enumerate() {
            let fill = &fill;
            let busy = &busy;
            s.spawn(move || {
                // lint: allow(wall-clock) — measures computation time for modelled stats only
                let t0 = Instant::now();
                for (k, slice) in block.chunks_mut(stride).enumerate() {
                    fill(bi * per + k, slice);
                }
                busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            });
        }
    });
    meter.add(start.elapsed(), Duration::from_nanos(busy.load(Ordering::Relaxed)));
}

/// Runs `f(i, &mut slots[i])` for every slot, fanning contiguous slot
/// blocks across threads. Each slot is written by exactly one thread, so
/// the outcome is independent of the schedule; callers reduce the slots
/// sequentially afterwards for a deterministic fold.
pub fn par_map_slots<T: Send>(
    slots: &mut [T],
    threads: usize,
    f: impl Fn(usize, &mut T) + Sync,
) {
    par_map_slots_with(slots, threads, || (), |(), i, slot| f(i, slot));
}

/// [`par_map_slots`] with per-block scratch state: each contiguous block
/// of slots (the whole slice when sequential) calls `init` once and passes
/// the state to `f` for every slot of the block.
pub fn par_map_slots_with<T: Send, S>(
    slots: &mut [T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut T) + Sync,
) {
    let n = slots.len();
    if threads <= 1 || n < 2 {
        let mut state = init();
        for (i, slot) in slots.iter_mut().enumerate() {
            f(&mut state, i, slot);
        }
        return;
    }
    let t = threads.min(n);
    let per = n.div_ceil(t);
    std::thread::scope(|s| {
        for (bi, block) in slots.chunks_mut(per).enumerate() {
            let (init, f) = (&init, &f);
            s.spawn(move || {
                let mut state = init();
                for (k, slot) in block.iter_mut().enumerate() {
                    f(&mut state, bi * per + k, slot);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_budget_divides_cores_by_workers() {
        let cores =
            std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        assert_eq!(Parallelism::AUTO.resolve(1), cores.max(1));
        assert_eq!(Parallelism::AUTO.resolve(cores * 2), 1);
        assert_eq!(Parallelism::fixed(3).resolve(8), 3);
    }

    #[test]
    fn meter_reports_speedup() {
        let m = Meter::default();
        assert_eq!(m.speedup(), 1.0);
        m.add(Duration::from_millis(10), Duration::from_millis(30));
        assert!((m.speedup() - 3.0).abs() < 0.2, "speedup {}", m.speedup());
        assert_eq!(m.sections(), 1);
    }

    fn reference_build(instances: &[u32], d: usize, q: usize, c: usize) -> NodeHistogram {
        // The canonical chunk-merge result, computed sequentially.
        let mut hist = NodeHistogram::new(d, q, c);
        let mut scratch = NodeHistogram::new(d, q, c);
        if instances.len() <= INSTANCE_CHUNK {
            fill_chunk(&mut hist, instances, d, q, c);
            return hist;
        }
        for chunk in instances.chunks(INSTANCE_CHUNK) {
            scratch.zero();
            fill_chunk(&mut scratch, chunk, d, q, c);
            hist.merge_from(&scratch);
        }
        hist
    }

    fn fill_chunk(hist: &mut NodeHistogram, chunk: &[u32], d: usize, q: usize, c: usize) {
        for &i in chunk {
            // Deterministic pseudo-data derived from the instance id, with
            // irrational-ish magnitudes so reorderings would change bits.
            let f = (i as usize * 7) % d;
            let b = ((i as usize * 13) % q) as u16;
            let g: Vec<f64> = (0..c).map(|k| ((i as f64) + k as f64) * 0.3183098123456789).collect();
            let h: Vec<f64> = (0..c).map(|k| ((i as f64) - k as f64) * 0.6366197987654321).collect();
            hist.add_instance(f as u32, b, &g, &h);
        }
    }

    #[test]
    fn chunked_build_is_bit_identical_across_thread_counts() {
        let d = 13;
        let q = 8;
        let c = 2;
        let instances: Vec<u32> = (0..3 * INSTANCE_CHUNK as u32 + 57).collect();
        let expected = reference_build(&instances, d, q, c);
        for threads in [1usize, 2, 3, 4, 8] {
            let mut pool = HistogramPool::new(d, q, c);
            let meter = Meter::default();
            build_histogram_chunked(&mut pool, 0, &instances, threads, &meter, |h, chunk| {
                fill_chunk(h, chunk, d, q, c)
            });
            assert_eq!(
                pool.get(0).unwrap().as_slice(),
                expected.as_slice(),
                "threads={threads} diverged"
            );
        }
    }

    #[test]
    fn chunked_build_small_node_takes_direct_path() {
        let instances: Vec<u32> = (0..100).collect();
        let mut pool = HistogramPool::new(5, 4, 1);
        let meter = Meter::default();
        build_histogram_chunked(&mut pool, 0, &instances, 8, &meter, |h, chunk| {
            fill_chunk(h, chunk, 5, 4, 1)
        });
        assert_eq!(meter.sections(), 0, "small nodes must not spawn threads");
        let expected = reference_build(&instances, 5, 4, 1);
        assert_eq!(pool.get(0).unwrap().as_slice(), expected.as_slice());
    }

    #[test]
    fn feature_fill_matches_sequential_for_all_thread_counts() {
        let d = 17;
        let q = 6;
        let c = 3;
        let fill = |f: usize, slice: &mut [f64]| {
            for (k, v) in slice.iter_mut().enumerate() {
                *v += (f * 1000 + k) as f64 * 0.1;
            }
        };
        let mut expected = NodeHistogram::new(d, q, c);
        let meter = Meter::default();
        par_feature_fill(&mut expected, 1, &meter, fill);
        for threads in [2usize, 3, 8, 32] {
            let mut hist = NodeHistogram::new(d, q, c);
            par_feature_fill(&mut hist, threads, &meter, fill);
            assert_eq!(hist.as_slice(), expected.as_slice(), "threads={threads}");
        }
    }

    #[test]
    fn map_slots_covers_every_slot_once() {
        for threads in [1usize, 2, 5, 16] {
            let mut slots = vec![0u64; 37];
            par_map_slots(&mut slots, threads, |i, s| *s += i as u64 + 1);
            for (i, s) in slots.iter().enumerate() {
                assert_eq!(*s, i as u64 + 1, "threads={threads} slot {i}");
            }
        }
    }
}
