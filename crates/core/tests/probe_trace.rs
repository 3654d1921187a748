//! Integration tests for the observability layer: the Chrome-trace
//! (Perfetto) exporter, the bounded event ring, per-interval time series
//! on a real kernel, the zero-cost `NullSink` path, the event kinds each
//! sink consumes, and the sampled host profile.
//!
//! The exported JSON is validated by actually parsing it with the
//! workspace's own `multipath_testkit::Json` parser — the same guarantee
//! an external viewer gets, with no external crates involved.

use multipath_core::{
    stats_json, AttributionSink, Event, EventFilter, EventKind, Features, InstClass, NullSink,
    PathTreeSink, ProbeConfig, ProbeSink, Probes, RefuseReason, ReuseDeny, RingSink, SimConfig,
    Simulator, Stats,
};
use multipath_testkit::Json;
use multipath_workload::{kernels, Benchmark};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn traced_run(bench: Benchmark, commits: u64) -> Simulator {
    let program = kernels::build(bench, 1);
    let mut sim = Simulator::new(
        SimConfig::big_2_16().with_features(Features::rec_rs_ru()),
        vec![program],
    );
    sim.enable_probes(ProbeConfig {
        ring: Some(256),
        interval: Some(50),
        spans: true,
        explain: true,
        filter: EventFilter::all(),
    });
    sim.run(commits, commits * 200);
    sim.finish_probes();
    sim
}

#[test]
fn chrome_trace_parses_and_covers_every_context() {
    let mut sim = traced_run(Benchmark::Compress, 2_000);
    let contexts = sim.config().contexts;
    let probes = sim.take_probes().expect("probes enabled");
    let text = probes
        .spans
        .as_ref()
        .expect("span recorder on")
        .chrome_trace_json(contexts);

    let doc = Json::parse(&text).expect("exporter emits valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Track naming metadata: every context gets a role track and a
    // recycle-stream track, named up front.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .filter_map(|e| e.get("args").and_then(|a| a.get("name")))
        .filter_map(Json::as_str)
        .collect();
    for ctx in 0..contexts {
        assert!(names.iter().any(|n| *n == format!("ctx{ctx} role")));
        assert!(names.iter().any(|n| *n == format!("ctx{ctx} stream")));
    }

    // A busy recycling run exercises both span tracks and instants.
    let phases: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(Json::as_str))
        .collect();
    assert!(phases.contains(&"X"), "no complete spans emitted");
    assert!(phases.contains(&"i"), "no instant events emitted");
}

#[test]
fn chrome_trace_spans_are_monotone_and_disjoint_per_track() {
    let mut sim = traced_run(Benchmark::Go, 2_000);
    let contexts = sim.config().contexts;
    let probes = sim.take_probes().expect("probes enabled");
    let text = probes
        .spans
        .as_ref()
        .expect("span recorder on")
        .chrome_trace_json(contexts);
    let doc = Json::parse(&text).expect("valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();

    // Group complete spans by track id; each track is one context's role
    // (or stream) lane, so its spans must tile time without overlapping.
    let mut tracks: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        let ts = e.get("ts").and_then(Json::as_u64).expect("ts");
        let dur = e.get("dur").and_then(Json::as_u64).expect("dur");
        assert!(dur > 0, "zero-length span on track {tid} at {ts}");
        tracks.entry(tid).or_default().push((ts, ts + dur));
    }
    assert!(!tracks.is_empty());
    for (tid, spans) in &tracks {
        for w in spans.windows(2) {
            let ((s0, e0), (s1, _)) = (w[0], w[1]);
            assert!(
                s0 <= s1,
                "track {tid}: span starts go backwards ({s0} after {s1})"
            );
            assert!(
                e0 <= s1,
                "track {tid}: spans overlap ([{s0},{e0}) and [{s1},..))"
            );
        }
    }

    // Instants carry the scope marker Perfetto expects and sit inside the
    // traced window.
    let horizon = tracks
        .values()
        .flat_map(|s| s.iter().map(|&(_, e)| e))
        .max()
        .unwrap();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("i") {
            continue;
        }
        assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
        let ts = e.get("ts").and_then(Json::as_u64).expect("ts");
        assert!(
            ts <= horizon,
            "instant at {ts} beyond span horizon {horizon}"
        );
    }
}

#[test]
fn ring_sink_is_bounded_and_respects_the_filter() {
    // Only commit events pass the filter; the ring keeps the newest 32.
    let filter = EventFilter::parse("commit").expect("valid spec");
    let mut ring = RingSink::new(32, filter);
    let stats = Stats::default();
    for cycle in 0..500u64 {
        let kind = if cycle % 2 == 0 {
            EventKind::Commit {
                class: multipath_core::InstClass::IntAlu,
            }
        } else {
            EventKind::PregStall
        };
        ring.event(&Event {
            cycle,
            ctx: 0,
            pc: 0x1000 + cycle,
            kind,
        });
        ring.cycle_end(cycle, &stats, &[]);
    }
    assert_eq!(ring.len(), 32);
    assert_eq!(ring.dropped, 250 - 32);
    for ev in ring.events() {
        assert!(matches!(ev.kind, EventKind::Commit { .. }));
        // Newest-32 window of the 250 accepted events.
        assert!(ev.cycle >= 436 && ev.cycle % 2 == 0);
    }
}

#[test]
fn interval_series_matches_final_stats_on_a_kernel() {
    let mut sim = traced_run(Benchmark::Vortex, 3_000);
    let finals = sim.stats().counters();
    let probes = sim.take_probes().expect("probes enabled");
    let series = probes.interval.as_ref().expect("interval sink on");
    assert!(series.intervals().len() > 2, "run too short to test tiling");
    assert_eq!(series.counter_sums(), finals);

    // The class histograms agree with the aggregate counters they split.
    let stats = sim.stats();
    let sum = |f: fn(&multipath_core::Interval) -> &[u64; 7]| -> u64 {
        series.intervals().iter().flat_map(|iv| f(iv).iter()).sum()
    };
    assert_eq!(sum(|iv| &iv.renamed_by_class), stats.renamed);
    assert_eq!(sum(|iv| &iv.recycled_by_class), stats.recycled);
    assert_eq!(sum(|iv| &iv.reused_by_class), stats.reused);
    assert_eq!(sum(|iv| &iv.committed_by_class), stats.committed);
}

#[test]
fn disabled_probes_change_nothing_and_null_sink_is_inert() {
    // Two identical runs, one with probes on: simulated behaviour must be
    // bit-for-bit identical (probes observe, never perturb).
    let run = |probed: bool| {
        let program = kernels::build(Benchmark::Li, 1);
        let mut sim = Simulator::new(
            SimConfig::big_2_16().with_features(Features::rec_rs_ru()),
            vec![program],
        );
        if probed {
            sim.enable_probes(ProbeConfig::default());
        }
        sim.run(1_500, 150_000);
        sim.finish_probes();
        sim.stats().counters()
    };
    assert_eq!(run(false), run(true));

    // The NullSink accepts everything and records nothing, by type.
    let mut sink = NullSink;
    sink.event(&Event {
        cycle: 1,
        ctx: 0,
        pc: 0,
        kind: EventKind::PregStall,
    });
    sink.cycle_end(1, &Stats::default(), &[]);
}

/// One event of every kind, in tag order, on context 0 with alternates
/// in context 1.
fn one_of_each_kind() -> [EventKind; EventKind::COUNT] {
    let class = InstClass::Load;
    [
        EventKind::Fetch { count: 4 },
        EventKind::Rename { class },
        EventKind::Recycle { class },
        EventKind::Reuse { class },
        EventKind::Issue { class },
        EventKind::Commit { class },
        EventKind::Resolve {
            mispredicted: true,
            covered: true,
            cond: true,
            conf: 3,
        },
        EventKind::Fork { alt: 1 },
        EventKind::Respawn { alt: 1 },
        EventKind::Merge {
            source: 1,
            len: 6,
            reuse: true,
        },
        EventKind::BackMerge { len: 5 },
        EventKind::Squash { count: 7 },
        EventKind::PregStall,
        EventKind::ForkRefused {
            reason: RefuseReason::NoSpare,
        },
        EventKind::ReuseDenied {
            class,
            cause: ReuseDeny::SourceOverwritten,
        },
        EventKind::Promote { alt: 1 },
    ]
}

#[test]
fn no_sink_reads_a_kind_outside_what_it_consumes() {
    let some = EventFilter::parse("fetch,issue,fork,squash,reuse_denied").unwrap();
    for filter in [EventFilter::all(), some] {
        // No sink; the filter applies to the ring and the span instants.
        let none = ProbeConfig {
            ring: None,
            interval: None,
            spans: false,
            explain: false,
            filter,
        };
        check_masks(none);
    }
    // What lets an interval-only run (the service's) skip most dispatch.
    let interval = Probes::new(ProbeConfig {
        interval: Some(100),
        ring: None,
        spans: false,
        explain: false,
        filter: EventFilter::all(),
    })
    .consumes();
    assert_eq!(
        interval,
        EventFilter::parse("rename,recycle,reuse,commit").unwrap()
    );
    assert_eq!(NullSink.consumes(), EventFilter::none());
}

/// Feeds every kind, twice, to each sink `none` can be given alone, and
/// fails if a sink changes on a kind outside the mask `Probes::new`
/// computes for it. The two explain sinks come as a pair, so each is also
/// checked against its own mask.
fn check_masks(none: ProbeConfig) {
    let sinks = [
        (
            "ring",
            ProbeConfig {
                ring: Some(8),
                ..none
            },
        ),
        (
            "interval",
            ProbeConfig {
                interval: Some(10),
                ..none
            },
        ),
        (
            "spans",
            ProbeConfig {
                spans: true,
                ..none
            },
        ),
        (
            "attribution and path tree",
            ProbeConfig {
                explain: true,
                ..none
            },
        ),
    ];
    for (name, config) in sinks {
        reads_only_its_mask(name, Probes::new(config));
    }
    reads_only_its_mask("attribution", AttributionSink::default());
    reads_only_its_mask("path tree", PathTreeSink::new());
}

fn reads_only_its_mask<S: ProbeSink + std::fmt::Debug>(name: &str, mut sink: S) {
    let mask = sink.consumes();
    let mut read = 0;
    // Twice over, so the second round meets the state the first built
    // (paths forked, spans open).
    for round in 0..2u64 {
        for (i, kind) in one_of_each_kind().into_iter().enumerate() {
            let before = format!("{sink:?}");
            sink.event(&Event {
                cycle: 10 * round + i as u64,
                ctx: 0,
                pc: 0x1000 + 4 * i as u64,
                kind,
            });
            let changed = format!("{sink:?}") != before;
            assert!(
                changed <= mask.accepts(kind),
                "{name} changed on {} outside its mask {:#x}",
                kind.name(),
                mask.0
            );
            read += usize::from(changed);
        }
    }
    assert!(read > 0, "{name} read no event at all");
}

#[test]
fn interval_series_are_the_same_with_and_without_context_views() {
    // An interval-only run tallies contexts directly; adding spans makes
    // the simulator build per-context views instead. Both must agree.
    let series = |spans: bool| {
        let program = kernels::build(Benchmark::Go, 1);
        let mut sim = Simulator::new(
            SimConfig::big_2_16().with_features(Features::rec_rs_ru()),
            vec![program],
        );
        sim.enable_probes(ProbeConfig {
            interval: Some(37),
            spans,
            ..ProbeConfig::default()
        });
        sim.run(3_000, 300_000);
        sim.finish_probes();
        let probes = sim.take_probes().expect("probes enabled");
        stats_json("go", "REC/RS/RU", sim.stats(), probes.interval.as_ref())
    };
    assert_eq!(series(false), series(true));
}

#[test]
fn sampled_profile_counts_every_cycle_and_totals_the_run_time() {
    let program = kernels::build(Benchmark::Compress, 1);
    let mut sim = Simulator::new(
        SimConfig::big_2_16().with_features(Features::rec_rs_ru()),
        vec![program],
    );
    sim.enable_host_profile();
    let start = Instant::now();
    sim.run(20_000, 2_000_000);
    let outer = start.elapsed();
    let profile = sim.host_profile().expect("profiling enabled");
    assert_eq!(profile.steps, sim.cycle());
    // The six stages split the run's own wall time exactly, which the
    // caller's clock brackets from outside.
    let total = profile.total();
    assert!(total <= outer, "{total:?} exceeds the {outer:?} run");
    assert!(
        outer - total < Duration::from_millis(2).max(outer / 20),
        "{total:?} of a {outer:?} run"
    );
    for (stage, time) in profile.rows() {
        assert!(
            stage == "probes" || time > Duration::ZERO,
            "{stage} got no share"
        );
    }
}
