//! The timed run: the end-to-end metrics, with nothing traced.
//!
//! Each workload repeats passes over a fixed operation set until
//! `--seconds` have elapsed (at least one pass): the 48 cells of the
//! sweep, or a batch of [`BATCH`] requests in a closed loop with one
//! client thread per core against an in-process server with one worker
//! per core. Rates and pass walls are medians over passes; latency
//! percentiles are over every operation of the run.

use crate::check::{doc_counters, DigestBook};
use crate::gen::{self, Body, BATCH};
use crate::measure::{
    cores, counters_digest, host_factor, median, ms, peak_rss_mb, quantile, timed,
};
use crate::{Args, Outcome, Workload};
use multipath_bench::{figure3_cells, Budget};
use multipath_core::Simulator;
use multipath_serve::{ServeConfig, Server, ServerHandle};
use multipath_testkit::http::{self, HttpResponse};
use multipath_testkit::Json;
use multipath_workload::mix;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// `serve-hit` warms a whole cache per set-up, so it repeats fewer times.
const HIT_SETUP_REPS: usize = 7;
/// Result-cache budget of the benchmark's server. Small enough that
/// `serve-miss` reaches steady-state eviction within a few seconds, so
/// peak memory does not depend on how many requests a run completes;
/// large enough to hold the whole `serve-hit` warm set.
const CACHE_BYTES: usize = 2 << 20;

pub fn run(args: &Args) -> Outcome {
    let mut out = match args.workload {
        Workload::FigSweep => fig_sweep(args),
        Workload::ServeMiss | Workload::ServeHit => serve(args),
    };
    // Printed, not gated: on identical runs the peak sits at one of two
    // levels about 1.4 MiB apart (heap placement differs between runs),
    // a spread wider than any bound the benchmark may set.
    if let Some(mb) = peak_rss_mb() {
        out.notes.push(format!("peak_rss_mb {mb} MiB (not gated)"));
    }
    out
}

/// Per-pass figures shared by every workload, in reference-host units
/// (see [`host_factor`]): times divided by the host factor, rates
/// multiplied by it.
#[derive(Default)]
struct Passes {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    cycles_per_s: Vec<f64>,
    insts_per_s: Vec<f64>,
    ops_per_s: Vec<f64>,
    latency_ms: Vec<f64>,
    ipc: Vec<f64>,
    /// Host factor and uncorrected wall of each pass.
    host: Vec<f64>,
    raw_wall_s: Vec<f64>,
}

impl Passes {
    /// Records one pass: operations with `latency_ms` each over `wall`
    /// seconds, simulating `cycles` and `committed` in `sim_s` seconds,
    /// on a host running `factor` times slower than the reference host.
    fn pass(
        &mut self,
        factor: f64,
        wall: f64,
        latency_ms: &[f64],
        cycles: u64,
        committed: u64,
        sim_s: f64,
    ) {
        self.host.push(factor);
        self.raw_wall_s.push(wall);
        self.wall_s.push(wall / factor);
        self.ops_per_s.push(latency_ms.len() as f64 * factor / wall);
        self.cycles_per_s.push(cycles as f64 * factor / sim_s);
        self.insts_per_s.push(committed as f64 * factor / sim_s);
        self.latency_ms
            .extend(latency_ms.iter().map(|l| l / factor));
    }

    fn report(self, out: &mut Outcome) {
        let n = self.latency_ms.len();
        out.notes.push(format!(
            "passes {} operations {n} (beyond p90: {}, beyond p99: {}) cores {}",
            self.wall_s.len(),
            n - (0.9 * n as f64).ceil() as usize,
            n - (0.99 * n as f64).ceil() as usize,
            cores()
        ));
        out.notes.push(format!(
            "host factor median {} (1 = reference host); uncorrected wall_s {} s",
            median(&self.host),
            median(&self.raw_wall_s)
        ));
        out.metric("setup_s", median(&self.setup_s), "s");
        out.metric("wall_s", median(&self.wall_s), "s");
        out.metric("sim_cycles_per_s", median(&self.cycles_per_s), "1/s");
        out.metric("sim_insts_per_s", median(&self.insts_per_s), "1/s");
        out.metric(
            "ipc_mean",
            self.ipc.iter().sum::<f64>() / self.ipc.len() as f64,
            "inst/cycle",
        );
        out.metric("req_per_s", median(&self.ops_per_s), "1/s");
        out.metric("p50_ms", quantile(&self.latency_ms, 0.5), "ms");
        out.metric("p90_ms", quantile(&self.latency_ms, 0.9), "ms");
        // Printed, not gated: on `serve-hit` the slowest 1% are requests
        // that missed a wake-up of the server's 5 ms accept-loop sleep, and
        // how many do depends on host scheduling jitter (6.5–15 ms across
        // ten runs of one build).
        out.notes.push(format!(
            "p99_ms {} ms (not gated)",
            quantile(&self.latency_ms, 0.99)
        ));
    }
}

/// The mean host factor over a stretch of work: calibrate before it,
/// calibrate after it.
fn bracketed<R>(calibrate: bool, work: impl FnOnce() -> R) -> (R, f64) {
    let factor = || if calibrate { host_factor() } else { 1.0 };
    let before = factor();
    let r = work();
    (r, (before + factor()) / 2.0)
}

/// The figure path: each cell is `mix::programs` + `Simulator::new` +
/// `Simulator::run`, serial, probes off. `sim_*_per_s` divide by the time
/// inside `Simulator::run` only; latency and pass wall include building.
fn fig_sweep(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let budget = Budget {
        committed_per_program: gen::SWEEP_COMMITS,
        seed: args.seed,
        mixes: 1,
        ..Budget::full()
    };
    let cells = figure3_cells(&budget);
    let bodies = gen::sweep_bodies(args.seed);
    let mut p = Passes::default();
    let (setups, factor) = bracketed(true, || {
        (0..SETUP_REPS)
            .map(|_| {
                timed(|| {
                    for c in &cells {
                        black_box(Simulator::new(
                            c.config.clone(),
                            mix::programs(&c.workload, c.seed),
                        ));
                    }
                })
                .1
                .as_secs_f64()
            })
            .collect::<Vec<_>>()
    });
    p.setup_s.extend(setups.iter().map(|s| s / factor));
    let mut book = DigestBook::open(args.workload.name(), args.seed);
    let start = Instant::now();
    while p.wall_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (mut cycles, mut committed, mut in_run) = (0u64, 0u64, Duration::ZERO);
        let mut latency = Vec::with_capacity(cells.len());
        let (wall, factor) = bracketed(true, || {
            timed(|| {
                for (cell, body) in cells.iter().zip(&bodies) {
                    let t0 = Instant::now();
                    let mut sim = Simulator::new(
                        cell.config.clone(),
                        mix::programs(&cell.workload, cell.seed),
                    );
                    let t1 = Instant::now();
                    let stats = sim.run(
                        budget.committed_per_program * cell.workload.len() as u64,
                        budget.max_cycles,
                    );
                    let t2 = Instant::now();
                    in_run += t2 - t1;
                    latency.push(ms(t2 - t0));
                    cycles += stats.cycles;
                    committed += stats.committed;
                    if p.wall_s.is_empty() {
                        p.ipc.push(stats.ipc());
                    }
                    out.op(book
                        .check(&body.text, counters_digest(&stats.counters()))
                        .err());
                }
            })
            .1
        });
        p.pass(
            factor,
            wall.as_secs_f64(),
            &latency,
            cycles,
            committed,
            in_run.as_secs_f64(),
        );
    }
    if let Err(e) = book.save() {
        out.error(e);
    }
    let sent: Vec<&Body> = bodies.iter().collect();
    out.notes.extend(gen::shares(&sent, &[], "none"));
    p.report(&mut out);
    out
}

/// Starts the benchmark's in-process server on an ephemeral loopback port.
pub fn start_server() -> Result<ServerHandle, String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: cores(),
        cache_bytes: CACHE_BYTES,
        ..ServeConfig::default()
    };
    Server::bind(&config)
        .map(Server::start)
        .map_err(|e| format!("bind {}: {e}", config.addr))
}

/// One closed-loop response.
pub struct Reply {
    /// Send to last byte received, at the client.
    pub latency: Duration,
    /// The response, or the client-side error.
    pub response: Result<HttpResponse, String>,
}

/// Sends `POST /v1/run` with bodies `body(0..count)` from `clients`
/// threads, each sending its next body only after its previous response
/// arrived. Replies come back in body order.
pub fn closed_loop<'a>(
    addr: SocketAddr,
    count: usize,
    clients: usize,
    body: impl Fn(usize) -> &'a str + Sync,
) -> Vec<Reply> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            return mine;
                        }
                        let (response, latency) =
                            timed(|| http::post_json(addr, "/v1/run", body(i)));
                        mine.push((i, Reply { latency, response }));
                    }
                })
            })
            .collect();
        let mut all: Vec<(usize, Reply)> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, r)| r).collect()
    })
}

/// Checks one reply's status and cache header and returns its body.
pub fn reply_doc<'r>(reply: &'r Reply, expect_cache: &str) -> Result<&'r str, String> {
    let response = reply.response.as_ref().map_err(Clone::clone)?;
    if response.status != 200 {
        return Err(format!(
            "status {}: {}",
            response.status,
            String::from_utf8_lossy(&response.body)
        ));
    }
    let cache = response.header("X-Multipath-Cache");
    if cache != Some(expect_cache) {
        return Err(format!(
            "X-Multipath-Cache {cache:?}, expected {expect_cache}"
        ));
    }
    std::str::from_utf8(&response.body).map_err(|_| "response body is not UTF-8".to_owned())
}

/// Checks `/metrics` against what the client sent: every run request
/// counted, hits + misses + coalesced = requests, nothing refused, and
/// the expected number of misses.
pub fn reconcile(addr: SocketAddr, sent: u64, misses: u64) -> Result<(), String> {
    let response = http::get(addr, "/metrics")?;
    let doc = Json::parse(&response.text()).map_err(|e| format!("/metrics: {e}"))?;
    let field = |section: &str, name: &str| -> Result<u64, String> {
        doc.get(section)
            .and_then(|s| s.get(name))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("/metrics lacks {section}.{name}"))
    };
    let run = field("requests", "run")?;
    let lookups =
        field("cache", "hits")? + field("cache", "misses")? + field("cache", "coalesced")?;
    let refused = field("rejected", "overloaded")?
        + field("rejected", "deadline_exceeded")?
        + field("rejected", "bad_request")?;
    let got_misses = field("cache", "misses")?;
    if run != sent || lookups != sent || refused != 0 || got_misses != misses {
        return Err(format!(
            "/metrics does not reconcile: sent {sent}, requests.run {run}, \
             hits+misses+coalesced {lookups}, rejected {refused}, misses {got_misses} \
             (expected {misses})"
        ));
    }
    Ok(())
}

/// The serve workloads. `serve-hit` set-up includes warming the cache
/// with the whole warm set; its timed requests cycle through that set.
fn serve(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let hit = args.workload == Workload::ServeHit;
    let clients = cores();
    let warm = if hit {
        gen::hit_bodies(args.seed)
    } else {
        Vec::new()
    };
    let mut book = DigestBook::open(args.workload.name(), args.seed);
    let mut p = Passes::default();

    // `serve-hit` is bound by the accept loop's sleep, not by the host's
    // speed, so it is not calibrated.
    let calibrate = !hit;
    let factor = || if calibrate { host_factor() } else { 1.0 };

    // Set up several times and keep the last server.
    let reps = if hit { HIT_SETUP_REPS } else { SETUP_REPS };
    let before = factor();
    let mut server = None;
    let mut warm_docs: Vec<String> = Vec::new();
    for rep in 0..reps {
        let t = Instant::now();
        let handle = match start_server() {
            Ok(h) => h,
            Err(e) => {
                out.error(e);
                return out;
            }
        };
        let health = http::get(handle.addr(), "/healthz");
        let warmed = closed_loop(handle.addr(), warm.len(), clients, |i| &warm[i].text);
        p.setup_s.push(t.elapsed().as_secs_f64());
        if !matches!(&health, Ok(r) if r.status == 200) {
            out.error(format!("/healthz failed: {health:?}"));
        }
        if rep + 1 < reps {
            handle.shutdown();
            continue;
        }
        for (body, reply) in warm.iter().zip(&warmed) {
            let checked = reply_doc(reply, "miss").and_then(|doc| {
                let c = doc_counters(doc)?;
                book.check(&body.text, counters_digest(&c.counters))?;
                p.ipc.push(c.committed as f64 / c.cycles as f64);
                Ok(doc.to_owned())
            });
            out.op(checked.as_ref().err().cloned());
            warm_docs.push(checked.unwrap_or_default());
        }
        server = Some(handle);
    }
    let setup_factor = (before + factor()) / 2.0;
    p.setup_s.iter_mut().for_each(|s| *s /= setup_factor);
    let server = server.expect("at least one set-up");
    let addr = server.addr();

    let mut sent_bodies: Vec<Body> = Vec::new();
    let mut bytes = Vec::new();
    let start = Instant::now();
    while p.wall_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let first = sent_bodies.len();
        let batch = if hit {
            warm.clone()
        } else {
            gen::miss_batch(args.seed, (first / BATCH) as u64)
        };
        let ((replies, wall), host) = bracketed(calibrate, || {
            timed(|| closed_loop(addr, BATCH, clients, |i| &batch[i].text))
        });
        let (mut cycles, mut committed) = (0u64, 0u64);
        let latency: Vec<f64> = replies.iter().map(|r| ms(r.latency)).collect();
        for (k, reply) in replies.iter().enumerate() {
            let checked = if hit {
                reply_doc(reply, "hit").and_then(|doc| {
                    let want = &warm_docs[k];
                    if doc != want {
                        return Err("hit body differs from the document served on warm-up".into());
                    }
                    doc_counters(doc)
                })
            } else {
                reply_doc(reply, "miss").and_then(|doc| {
                    let c = doc_counters(doc)?;
                    book.check(&batch[k].text, counters_digest(&c.counters))?;
                    Ok(c)
                })
            };
            match checked {
                Ok(c) => {
                    cycles += c.cycles;
                    committed += c.committed;
                    if !hit && p.wall_s.is_empty() {
                        p.ipc.push(c.committed as f64 / c.cycles as f64);
                    }
                    if let Ok(r) = &reply.response {
                        bytes.push(r.body.len() as f64);
                    }
                    out.op(None);
                }
                Err(e) => out.op(Some(e)),
            }
        }
        let wall = wall.as_secs_f64();
        p.pass(host, wall, &latency, cycles, committed, wall);
        sent_bodies.extend(batch);
    }
    let sent = (warm.len() + sent_bodies.len()) as u64;
    let misses = if hit { warm.len() as u64 } else { sent };
    if let Err(e) = reconcile(addr, sent, misses) {
        out.error(e);
    }
    server.shutdown();
    if let Err(e) = book.save() {
        out.error(e);
    }
    let refs: Vec<&Body> = sent_bodies.iter().collect();
    out.notes
        .extend(gen::shares(&refs, &bytes, if hit { "hit" } else { "miss" }));
    p.report(&mut out);
    out
}
