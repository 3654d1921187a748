//! The traced run: per-layer metrics, timed from this package around
//! calls into each crate's public functions. Stage times come from the
//! simulator's own host profiler (`Simulator::enable_host_profile`),
//! which costs about a third of the bare run, so nothing here is
//! comparable with the timed run's end-to-end figures.
//!
//! The run has four parts, all over the workload's own inputs:
//! 1. every body is replayed through the core API three times, back to
//!    back: bare, host-profiled, and with the service's exact probe
//!    configuration, rendering the document the service would send;
//!    passes repeat until `--seconds` have elapsed;
//! 2. the bodies are served once by an in-process server (`serve-hit`
//!    warms first and then repeats hits), and every served document must
//!    equal the replay's byte for byte;
//! 3. the request phases are timed outside the server;
//! 4. the substrates are microbenchmarked.

use crate::check::DigestBook;
use crate::gen::{self, Body};
use crate::layers;
use crate::measure::{cores, counters_digest, median, ms, timed};
use crate::timed::{closed_loop, reconcile, reply_doc, start_server, Reply};
use crate::{Args, Outcome, Workload};
use multipath_core::{stats_json, EventFilter, ProbeConfig, Simulator, StageProfile, Stats};
use multipath_serve::RunRequest;
use multipath_testkit::{http, Json};
use multipath_workload::mix;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Hit passes over the warm set in the `serve-hit` serve part.
const HIT_ROUNDS: usize = 8;

/// Aggregates of the core replays.
#[derive(Default)]
struct Core {
    /// Exact counters summed over the bare replays.
    cycles: u64,
    committed: u64,
    renamed: u64,
    recycled: u64,
    reused: u64,
    squashed: u64,
    forks: u64,
    branches: u64,
    mispredicts: u64,
    covered: u64,
    inst_accesses: u64,
    inst_misses: u64,
    data_accesses: u64,
    data_misses: u64,
    /// Host stage profile of the variant the workload itself runs, over
    /// every pass, and the instructions those passes committed.
    profile: StageProfile,
    profiled_committed: u64,
    bare: Duration,
    profiled: Duration,
    served: Duration,
    build_ms: Vec<f64>,
    new_ms: Vec<f64>,
    simulate_ms: Vec<f64>,
    render_us: Vec<f64>,
    /// The document the service would send for each body.
    docs: Vec<String>,
}

fn add_profile(total: &mut StageProfile, p: &StageProfile) {
    total.commit += p.commit;
    total.writeback += p.writeback;
    total.issue += p.issue;
    total.rename += p.rename;
    total.fetch += p.fetch;
    total.probes += p.probes;
    total.steps += p.steps;
}

/// Part 1: one pass of bare, profiled and service-configured replays of
/// every body. Times accumulate over passes; exact counts and documents
/// are taken from the `first` pass only, so they repeat bit for bit.
fn replay(
    workload: Workload,
    bodies: &[Body],
    book: &mut DigestBook,
    out: &mut Outcome,
    core: &mut Core,
    first: bool,
) {
    for body in bodies {
        let run = match RunRequest::parse(&body.text) {
            Ok(r) => r,
            Err(e) => {
                out.op(Some(format!("body rejected: {e}")));
                if first {
                    core.docs.push(String::new());
                }
                continue;
            }
        };
        // The service's run budget: commits per program, and its cycle cap.
        let total = run.commits * run.benches.len() as u64;
        let cap = total.saturating_mul(100).max(1_000_000);

        let (programs, build) = timed(|| mix::programs(&run.benches, run.seed));
        let (mut sim, new) = timed(|| Simulator::new(run.config.clone(), programs));
        let (bare_stats, bare) = timed(|| sim.run(total, cap).clone());
        let hier = sim.hierarchy_stats();

        let mut sim = Simulator::new(run.config.clone(), mix::programs(&run.benches, run.seed));
        sim.enable_host_profile();
        let (profiled_stats, profiled) = timed(|| sim.run(total, cap).clone());
        let profiled_profile = sim.host_profile().cloned().unwrap_or_default();

        let mut sim = Simulator::new(run.config.clone(), mix::programs(&run.benches, run.seed));
        sim.enable_probes(ProbeConfig {
            ring: None,
            interval: Some(run.interval.max(1)),
            spans: false,
            explain: false,
            filter: EventFilter::all(),
        });
        sim.enable_host_profile();
        let ((), served) = timed(|| {
            sim.run(total, cap);
            sim.finish_probes();
        });
        let served_profile = sim.host_profile().cloned().unwrap_or_default();
        let served_stats = sim.stats().clone();
        let probes = sim.take_probes().expect("probes were enabled");
        let (doc, render) = timed(|| {
            stats_json(
                &run.label(),
                run.features.label(),
                &served_stats,
                probes.interval.as_ref(),
            )
        });

        let digest = counters_digest(&bare_stats.counters());
        let problem = if [&profiled_stats, &served_stats]
            .iter()
            .any(|s| counters_digest(&s.counters()) != digest)
        {
            Some(format!(
                "profiled or probed replay changed the counters of {}",
                body.text
            ))
        } else {
            book.check(&body.text, digest).err()
        };
        out.op(problem);

        if first {
            add_stats(core, &bare_stats);
            core.inst_accesses += hier.inst_accesses;
            core.inst_misses += hier.inst_misses;
            core.data_accesses += hier.data_accesses;
            core.data_misses += hier.data_misses;
            core.docs.push(doc);
        }
        core.profiled_committed += bare_stats.committed;
        let own = if workload == Workload::FigSweep {
            &profiled_profile
        } else {
            &served_profile
        };
        add_profile(&mut core.profile, own);
        core.bare += bare;
        core.profiled += profiled;
        core.served += served;
        core.build_ms.push(ms(build));
        core.new_ms.push(ms(new));
        core.simulate_ms.push(ms(served));
        core.render_us.push(render.as_secs_f64() * 1e6);
    }
}

fn add_stats(core: &mut Core, s: &Stats) {
    core.cycles += s.cycles;
    core.committed += s.committed;
    core.renamed += s.renamed;
    core.recycled += s.recycled;
    core.reused += s.reused;
    core.squashed += s.squashed;
    core.forks += s.forks;
    core.branches += s.branches;
    core.mispredicts += s.mispredicts;
    core.covered += s.mispredicts_covered;
}

/// What the serve part measured.
struct Served {
    p50_ms: f64,
    hit_frac: f64,
    rejected: u64,
    busy_frac: f64,
}

/// Total host-profiled simulation seconds the server reports.
fn busy_seconds(addr: SocketAddr) -> Result<f64, String> {
    let doc = Json::parse(&http::get(addr, "/metrics")?.text()).map_err(|e| e.to_string())?;
    let profile = doc
        .get("host_profile")
        .ok_or("/metrics lacks host_profile")?;
    [
        "commit_s",
        "writeback_s",
        "issue_s",
        "rename_s",
        "fetch_s",
        "probes_s",
    ]
    .iter()
    .map(|k| {
        profile
            .get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("/metrics lacks host_profile.{k}"))
    })
    .sum()
}

/// Part 2: serve the bodies and compare every document with the replay.
fn serve(hit: bool, bodies: &[Body], docs: &[String], out: &mut Outcome) -> Result<Served, String> {
    let server = start_server()?;
    let served = serve_on(server.addr(), hit, bodies, docs, out);
    server.shutdown();
    served
}

fn serve_on(
    addr: SocketAddr,
    hit: bool,
    bodies: &[Body],
    docs: &[String],
    out: &mut Outcome,
) -> Result<Served, String> {
    let clients = cores();
    let n = bodies.len();
    let mut check = |expect: &str, replies: &[Reply]| {
        for (i, reply) in replies.iter().enumerate() {
            out.op(match reply_doc(reply, expect) {
                Ok(doc) if doc == docs[i % n] => None,
                Ok(_) => Some(format!(
                    "served document differs from the replay for {}",
                    bodies[i % n].text
                )),
                Err(e) => Some(e),
            });
        }
    };
    if hit {
        check("miss", &closed_loop(addr, n, clients, |i| &bodies[i].text));
    }
    let rounds = if hit { HIT_ROUNDS } else { 1 };
    let before = busy_seconds(addr)?;
    let (replies, wall) = timed(|| closed_loop(addr, n * rounds, clients, |i| &bodies[i % n].text));
    let busy = busy_seconds(addr)? - before;
    check(if hit { "hit" } else { "miss" }, &replies);
    let (mut hits, mut rejected) = (0u64, 0u64);
    for r in replies.iter().filter_map(|r| r.response.as_ref().ok()) {
        hits += u64::from(r.header("X-Multipath-Cache") == Some("hit"));
        rejected += u64::from(r.status != 200);
    }
    let sent = (n * rounds + if hit { n } else { 0 }) as u64;
    if let Err(e) = reconcile(addr, sent, n as u64) {
        out.error(e);
    }
    let latency: Vec<f64> = replies.iter().map(|r| ms(r.latency)).collect();
    Ok(Served {
        p50_ms: median(&latency),
        hit_frac: hits as f64 / replies.len() as f64,
        rejected,
        busy_frac: busy / (clients as f64 * wall.as_secs_f64()),
    })
}

/// The traced run of `args.workload`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let workload = args.workload;
    let bodies = match workload {
        Workload::FigSweep => gen::sweep_bodies(args.seed),
        Workload::ServeMiss => gen::miss_batch(args.seed, 0),
        Workload::ServeHit => gen::hit_bodies(args.seed),
    };
    let hit = workload == Workload::ServeHit;
    let mut book = DigestBook::open(workload.name(), args.seed);
    let mut core = Core::default();
    let start = Instant::now();
    for pass in 0.. {
        if pass > 0 && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        replay(workload, &bodies, &mut book, &mut out, &mut core, pass == 0);
    }
    if let Err(e) = book.save() {
        out.error(e);
    }
    let served = match serve(hit, &bodies, &core.docs, &mut out) {
        Ok(s) => s,
        Err(e) => {
            out.error(e);
            return out;
        }
    };
    let phases = match layers::serve_phases(&bodies, &core.docs, hit) {
        Ok(p) => p,
        Err(e) => {
            out.error(e);
            return out;
        }
    };
    let substrates = layers::substrates(args.seed);

    let steps = core.profile.steps.max(1) as f64;
    let per_cycle = |d: Duration| d.as_secs_f64() * 1e9 / steps;
    let frac = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let p = &core.profile;
    out.metric("core.commit_ns_per_cycle", per_cycle(p.commit), "ns");
    out.metric("core.writeback_ns_per_cycle", per_cycle(p.writeback), "ns");
    out.metric("core.issue_ns_per_cycle", per_cycle(p.issue), "ns");
    out.metric("core.rename_ns_per_cycle", per_cycle(p.rename), "ns");
    out.metric("core.fetch_ns_per_cycle", per_cycle(p.fetch), "ns");
    out.metric("core.probes_ns_per_cycle", per_cycle(p.probes), "ns");
    out.metric(
        "core.ns_per_committed",
        p.total().as_secs_f64() * 1e9 / core.profiled_committed.max(1) as f64,
        "ns",
    );
    let bare = core.bare.as_secs_f64();
    out.metric(
        "core.profile_overhead",
        core.profiled.as_secs_f64() / bare,
        "x",
    );
    out.metric("core.probe_overhead", core.served.as_secs_f64() / bare, "x");
    out.metric("core.new_ms", median(&core.new_ms), "ms");
    out.metric("workload.build_ms", median(&core.build_ms), "ms");
    for (name, value, unit) in substrates {
        out.metric(name, value, unit);
    }
    out.metric("core.cycles", core.cycles as f64, "count");
    out.metric("core.committed", core.committed as f64, "count");
    out.metric(
        "core.commit_frac",
        frac(core.committed, core.renamed),
        "frac",
    );
    out.metric(
        "core.recycle_frac",
        frac(core.recycled, core.renamed),
        "frac",
    );
    out.metric("core.reuse_frac", frac(core.reused, core.renamed), "frac");
    out.metric(
        "core.squash_frac",
        frac(core.squashed, core.renamed),
        "frac",
    );
    out.metric("core.forks", core.forks as f64, "count");
    out.metric(
        "branch.mispredict_rate",
        frac(core.mispredicts, core.branches),
        "frac",
    );
    out.metric(
        "branch.covered_frac",
        frac(core.covered, core.mispredicts),
        "frac",
    );
    out.metric(
        "mem.l1i_miss_rate",
        frac(core.inst_misses, core.inst_accesses),
        "frac",
    );
    out.metric(
        "mem.l1d_miss_rate",
        frac(core.data_misses, core.data_accesses),
        "frac",
    );
    out.metric("parallel.busy_frac", served.busy_frac, "frac");
    out.metric("serve.read_request_us", phases.read_us, "us");
    out.metric("serve.parse_us", phases.parse_us, "us");
    out.metric("serve.cache_lookup_us", phases.lookup_us, "us");
    let render_us = median(&core.render_us);
    out.metric("serve.render_us", render_us, "us");
    out.metric("serve.write_us", phases.write_us, "us");
    let simulate_ms = median(&core.simulate_ms);
    out.metric("serve.simulate_ms", simulate_ms, "ms");
    out.metric(
        "testkit.json_parse_ns_per_byte",
        phases.json_ns_per_byte,
        "ns/byte",
    );
    // The time a request spends outside every phase timed above: on the
    // hit path there is no simulation and no rendering.
    let mut phase_ms =
        (phases.read_us + phases.parse_us + phases.lookup_us + phases.write_us) / 1e3;
    if !hit {
        phase_ms += simulate_ms + render_us / 1e3;
    }
    out.metric("serve.residual_ms", served.p50_ms - phase_ms, "ms");
    out.metric("serve.hit_frac", served.hit_frac, "frac");
    out.metric("serve.rejected", served.rejected as f64, "count");
    out.notes.push(format!(
        "replayed {} bodies in {} passes; served p50 {:.3} ms; cores {}",
        bodies.len(),
        core.build_ms.len() / bodies.len().max(1),
        served.p50_ms,
        cores()
    ));
    out
}
