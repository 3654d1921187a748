//! Seeded workload inputs. Every workload is a list of `POST /v1/run`
//! bodies: `fig-sweep` runs its bodies through the figure path directly,
//! the serve workloads send them over HTTP. The same seed always yields
//! the same bodies, and the program sees only these bodies.

use multipath_workload::{Benchmark, SplitMix64};
use std::collections::BTreeMap;

/// Feature-set spellings, in `Features::all_six()` order.
pub const FEATURES: [&str; 6] = ["smt", "tme", "rec", "rec-ru", "rec-rs", "rec-rs-ru"];
/// Machine spellings accepted by the serving API.
pub const MACHINES: [&str; 4] = ["big.2.16", "big.1.8", "small.2.8", "small.1.8"];
/// Committed instructions per `fig-sweep` program: five times
/// `Budget::quick()`, the per-program size of `Budget::full()`.
pub const SWEEP_COMMITS: u64 = 20_000;
/// The serving API's default interval width, used for the sweep bodies.
const DEFAULT_INTERVAL: u64 = 100;

/// One generated request and the properties the workload shares report.
#[derive(Debug, Clone)]
pub struct Body {
    /// The JSON request body.
    pub text: String,
    /// Kernels co-scheduled in the request.
    pub kernels: usize,
    /// Machine spelling.
    pub machine: &'static str,
    /// Feature-set spelling.
    pub features: &'static str,
}

fn body(
    benches: &[Benchmark],
    features: &'static str,
    machine: &'static str,
    commits: u64,
    seed: u64,
    interval: u64,
) -> Body {
    let names: Vec<String> = benches
        .iter()
        .map(|b| format!("\"{}\"", b.name()))
        .collect();
    Body {
        text: format!(
            "{{\"benches\": [{}], \"features\": \"{features}\", \"machine\": \"{machine}\", \
             \"commits\": {commits}, \"seed\": {seed}, \"interval\": {interval}}}",
            names.join(", ")
        ),
        kernels: benches.len(),
        machine,
        features,
    }
}

/// The 48 Figure-3 cells as bodies, in `figure3_cells` order (kernel
/// major, features minor), so index `i` names the same simulation on the
/// figure path and through the service.
pub fn sweep_bodies(seed: u64) -> Vec<Body> {
    Benchmark::ALL
        .into_iter()
        .flat_map(|b| {
            FEATURES.map(|f| body(&[b], f, "big.2.16", SWEEP_COMMITS, seed, DEFAULT_INTERVAL))
        })
        .collect()
}

/// A body seed unique to (`seed`, `index`), below 2^53 so JSON carries
/// it exactly.
fn body_seed(seed: u64, index: u64) -> u64 {
    (seed % 1_000_000) * 1_000_000_000 + index + 1
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// `len` cards cycling through `values`, shuffled: every value appears
/// equally often (to within one) in any batch.
fn deck<T: Copy>(rng: &mut SplitMix64, values: &[T], len: usize) -> Vec<T> {
    let mut cards: Vec<T> = (0..len).map(|i| values[i % values.len()]).collect();
    shuffle(rng, &mut cards);
    cards
}

/// The value ranges of one generated batch.
struct Mix {
    kernels: &'static [usize],
    commits: &'static [u64],
    intervals: &'static [u64],
}

/// Bodies per generated batch: every machine × feature-set pair twice.
pub const BATCH: usize = 48;

/// Batch `batch` of a request stream. The draws are stratified, so each
/// batch has the same property shares and seeds change only which
/// kernels, sizes and data meet: every machine × feature-set pair
/// appears twice, kernel counts, commit budgets and interval widths are
/// dealt from shuffled decks, and kernels are dealt from shuffled
/// permutations of all eight. Request order is shuffled. Every body
/// carries a seed unique to its position in the stream.
fn batch(seed: u64, batch: u64, mix: &Mix, salt: u64) -> Vec<Body> {
    let mut rng = SplitMix64::new(body_seed(seed, batch) ^ salt);
    let counts = deck(&mut rng, mix.kernels, BATCH);
    let commits = deck(&mut rng, mix.commits, BATCH);
    let intervals = deck(&mut rng, mix.intervals, BATCH);
    let mut kernel_deck: Vec<Benchmark> = Vec::new();
    let mut bodies: Vec<Body> = (0..BATCH)
        .map(|j| {
            let mut kernels: Vec<Benchmark> = Vec::new();
            while kernels.len() < counts[j] {
                match kernel_deck.iter().position(|k| !kernels.contains(k)) {
                    Some(at) => kernels.push(kernel_deck.remove(at)),
                    None => {
                        let mut fresh = Benchmark::ALL.to_vec();
                        shuffle(&mut rng, &mut fresh);
                        kernel_deck.extend(fresh);
                    }
                }
            }
            body(
                &kernels,
                FEATURES[(j / MACHINES.len()) % FEATURES.len()],
                MACHINES[j % MACHINES.len()],
                commits[j],
                body_seed(seed, batch * BATCH as u64 + j as u64),
                intervals[j],
            )
        })
        .collect();
    shuffle(&mut rng, &mut bodies);
    bodies
}

/// Batch `index` of the `serve-miss` stream: 1–4 kernels, 2–4k commits
/// per program. Bodies never repeat, so every request misses the cache.
pub fn miss_batch(seed: u64, index: u64) -> Vec<Body> {
    const MISS: Mix = Mix {
        kernels: &[1, 2, 3, 4],
        commits: &[2_000, 3_000, 4_000],
        intervals: &[100, 250, 500],
    };
    batch(seed, index, &MISS, 0x6d69_7373)
}

/// The `serve-hit` warm set: 1–2 kernels, with commit budgets and
/// interval widths chosen so response sizes span about two orders of
/// magnitude.
pub fn hit_bodies(seed: u64) -> Vec<Body> {
    const HIT: Mix = Mix {
        kernels: &[1, 2],
        commits: &[1_000, 2_000, 4_000],
        intervals: &[20, 50, 100, 1_000],
    };
    batch(seed, 0, &HIT, 0x0068_6974)
}

/// Property shares of the bodies actually sent: kernels per request,
/// machine and feature mix, response bytes and expected cache outcome.
pub fn shares(bodies: &[&Body], response_bytes: &[f64], outcome: &str) -> Vec<String> {
    let total = bodies.len().max(1) as f64;
    let mut kernels: BTreeMap<usize, usize> = BTreeMap::new();
    let mut machines: BTreeMap<&str, usize> = BTreeMap::new();
    let mut features: BTreeMap<&str, usize> = BTreeMap::new();
    for b in bodies {
        *kernels.entry(b.kernels).or_default() += 1;
        *machines.entry(b.machine).or_default() += 1;
        *features.entry(b.features).or_default() += 1;
    }
    let fmt = |pairs: Vec<(String, usize)>| -> String {
        pairs
            .into_iter()
            .map(|(k, n)| format!("{k}={:.3}", n as f64 / total))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut out = vec![
        format!("share.requests {}", bodies.len()),
        format!(
            "share.kernels {}",
            fmt(kernels
                .into_iter()
                .map(|(k, n)| (k.to_string(), n))
                .collect())
        ),
        format!(
            "share.machine {}",
            fmt(machines
                .into_iter()
                .map(|(k, n)| (k.to_owned(), n))
                .collect())
        ),
        format!(
            "share.features {}",
            fmt(features
                .into_iter()
                .map(|(k, n)| (k.to_owned(), n))
                .collect())
        ),
        format!("share.cache_outcome {outcome}=1.000"),
    ];
    if !response_bytes.is_empty() {
        out.push(format!(
            "share.response_bytes min={} p50={} p90={} max={}",
            crate::measure::quantile(response_bytes, 0.0),
            crate::measure::quantile(response_bytes, 0.5),
            crate::measure::quantile(response_bytes, 0.9),
            crate::measure::quantile(response_bytes, 1.0),
        ));
    }
    out
}
