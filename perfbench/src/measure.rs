//! Small measurement helpers shared by the timed and traced runs.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The `q`-quantile (0..=1) of `values` by nearest rank; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f` once and returns its result with the elapsed time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Median nanoseconds per operation of `sample`, which performs `ops`
/// operations per call. One untimed warm-up call precedes `samples` timed
/// ones, so caches and branch predictors of the host start warm.
pub fn ns_per_op(samples: usize, ops: usize, mut sample: impl FnMut()) -> f64 {
    sample();
    let per_op: Vec<f64> = (0..samples)
        .map(|_| timed(&mut sample).1.as_secs_f64() * 1e9 / ops.max(1) as f64)
        .collect();
    median(&per_op)
}

/// Nanoseconds per iteration of the [`host_factor`] loop on the reference
/// host: the 2-vCPU Xeon virtual machine the README baseline was measured
/// on, at a quiet time.
const REFERENCE_NS: f64 = 6.0;
/// Iterations per calibration, about 25 ms on the reference host.
const REFERENCE_ITERS: u64 = 4_000_000;

/// How much slower than the reference host this host runs right now
/// (above 1 when slower), from one run of a fixed loop of integer hashing
/// and lookups in a 256 KiB table. On a shared host the simulator's speed
/// drifted by up to 2x over minutes while steal time stayed near zero:
/// the virtual CPU itself ran slower, and this loop slows with it.
pub fn host_factor() -> f64 {
    let mut table = vec![1u64; 1 << 15];
    let mask = table.len() - 1;
    let (mut x, mut acc) = (0u64, 0u64);
    let ((), t) = timed(|| {
        for _ in 0..black_box(REFERENCE_ITERS) {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let i = z as usize & mask;
            if z & 3 == 0 {
                table[i] = table[i].wrapping_add(z);
            } else {
                acc = acc.wrapping_add(table[i]);
            }
        }
    });
    black_box(acc);
    t.as_secs_f64() * 1e9 / REFERENCE_ITERS as f64 / REFERENCE_NS
}

/// The process's peak resident set size in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of a run's `Stats::counters()` vector.
pub fn counters_digest(counters: &[u64]) -> u64 {
    let bytes: Vec<u8> = counters.iter().flat_map(|c| c.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// The available host parallelism (reported with every result that
/// depends on thread count).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
