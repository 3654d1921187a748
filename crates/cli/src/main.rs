//! `multipath` — command-line driver for the instruction-recycling
//! simulator. The commands, their options and their defaults are listed
//! in [`USAGE`], which every parse error prints; the workload fields and
//! their defaults are defined once, by `multipath_serve::RunRequest`.
//! Output paths get their parent directories created on demand.

use multipath_cli::{parse_invocation, ExplainOptions, Invocation, TraceOptions, USAGE};
use multipath_core::{stats_json, Features, ProbeConfig, RunSpec, Stats};
use multipath_serve::{signal, RunRequest, ServeConfig, Server};
use multipath_workload::kernels;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// Writes `contents` to `path`, creating missing parent directories first
/// (so `--out reports/a/trace.json` works on a fresh checkout).
fn write_creating_dirs(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

fn print_stats(label: &str, s: &Stats) {
    println!(
        "{label:10} IPC {:5.2} | acc {:5.1}% | recycled {:5.1}% reused {:4.2}% | \
         forks {:6} cov {:5.1}% | merges {:5} (back {:4.1}%) respawns {:5}",
        s.ipc(),
        s.branch_accuracy(),
        s.pct_recycled(),
        s.pct_reused(),
        s.forks,
        s.pct_miss_covered(),
        s.merges,
        s.pct_back_merges(),
        s.respawns,
    );
}

fn cmd_run(req: &RunRequest) -> ExitCode {
    let stats = req.spec().run().stats;
    println!(
        "workload: {} | {} committed in {} cycles",
        req.label(),
        stats.committed,
        stats.cycles
    );
    print_stats(req.features.label(), &stats);
    ExitCode::SUCCESS
}

fn cmd_trace(topts: &TraceOptions, req: &RunRequest) -> ExitCode {
    let spec = RunSpec {
        probes: Some(ProbeConfig {
            ring: topts.print_events.map(|n| n.max(1)),
            interval: Some(req.interval),
            spans: true,
            explain: false,
            filter: topts.filter,
        }),
        profile: true,
        timeline: topts.timeline,
        ..req.spec()
    };
    let contexts = spec.config.contexts;
    let outcome = spec.run();
    let probes = outcome.probes.expect("probes were enabled");
    let stats = outcome.stats;
    let label = req.label();
    println!(
        "workload: {label} | {} committed in {} cycles",
        stats.committed, stats.cycles
    );
    print_stats(req.features.label(), &stats);
    if let Some(prof) = &outcome.profile {
        print!("{}", prof.report(stats.ipc()));
    }
    if let (Some(cycles), Some(timeline)) = (topts.timeline, &probes.timeline) {
        println!();
        print!("{}", timeline.render((cycles / 48).max(1) as usize));
    }

    if let Some(ring) = &probes.ring {
        println!();
        println!("last {} events ({} dropped):", ring.len(), ring.dropped);
        for ev in ring.events() {
            println!("{}", ev.render());
        }
    }
    let doc = if topts.csv {
        multipath_core::intervals_csv(probes.interval.as_ref().expect("interval sink on"))
    } else {
        stats_json(
            &label,
            req.features.label(),
            &stats,
            probes.interval.as_ref(),
        )
    };
    if let Err(e) = write_creating_dirs(&topts.stats_out, &doc) {
        eprintln!("error: writing {}: {e}", topts.stats_out);
        return ExitCode::FAILURE;
    }
    let trace = probes
        .spans
        .as_ref()
        .expect("spans were enabled")
        .chrome_trace_json(contexts);
    if let Err(e) = write_creating_dirs(&topts.out, &trace) {
        eprintln!("error: writing {}: {e}", topts.out);
        return ExitCode::FAILURE;
    }
    println!();
    println!(
        "wrote {} and {} (open the trace at https://ui.perfetto.dev)",
        topts.out, topts.stats_out
    );
    ExitCode::SUCCESS
}

fn cmd_explain(eopts: &ExplainOptions, req: &RunRequest) -> ExitCode {
    let outcome = RunSpec {
        probes: Some(ProbeConfig {
            interval: None,
            explain: true,
            ..ProbeConfig::default()
        }),
        ..req.spec()
    }
    .run();
    let stats = outcome.stats;
    let label = req.label();
    let probes = outcome.probes.expect("probes were enabled");
    let attr = probes.attribution.as_ref().expect("attribution sink on");
    let tree = probes.tree.as_ref().expect("path-tree sink on");

    let report = multipath_core::explain_markdown(
        &label,
        req.features.label(),
        &stats,
        attr,
        tree,
        eopts.top,
    );
    print!("{report}");
    if eopts.tree {
        println!();
        print!("{}", tree.ascii());
    }

    let doc =
        multipath_core::explain_json(&label, req.features.label(), &stats, attr, tree, eopts.top);
    if let Err(e) = write_creating_dirs(&eopts.json_out, &doc) {
        eprintln!("error: writing {}: {e}", eopts.json_out);
        return ExitCode::FAILURE;
    }
    let mut wrote = vec![eopts.json_out.clone()];
    if let Some(path) = &eopts.report_out {
        if let Err(e) = write_creating_dirs(path, &report) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        wrote.push(path.clone());
    }
    if let Some(path) = &eopts.dot_out {
        if let Err(e) = write_creating_dirs(path, &tree.dot()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        wrote.push(path.clone());
    }
    println!();
    println!("wrote {}", wrote.join(" and "));
    ExitCode::SUCCESS
}

fn cmd_compare(req: &RunRequest) -> ExitCode {
    println!("workload: {}", req.label());
    for features in Features::all_six() {
        let stats = RunSpec {
            config: req.config.clone().with_features(features),
            ..req.spec()
        }
        .run()
        .stats;
        print_stats(features.label(), &stats);
    }
    ExitCode::SUCCESS
}

fn cmd_list() -> ExitCode {
    println!("benchmarks:");
    for b in multipath_workload::Benchmark::ALL {
        println!(
            "  {:10} {}",
            b.name(),
            if b.is_fp() { "(floating point)" } else { "" }
        );
    }
    println!("machines:   big.2.16  big.1.8  small.2.8  small.1.8");
    println!("features:   smt  tme  rec  rec-ru  rec-rs  rec-rs-ru");
    println!("policies:   stop-N  fetch-N  nostop-N   (default stop-8)");
    ExitCode::SUCCESS
}

fn cmd_figures(requested: &[&str]) -> ExitCode {
    let budget = multipath_bench::Budget::from_env();
    eprintln!(
        "sweeping on {} worker thread(s); {} committed per program, {} mixes",
        multipath_bench::parallel::thread_count(),
        budget.committed_per_program,
        budget.mixes
    );
    for (i, fig) in requested.iter().enumerate() {
        if i > 0 {
            println!();
        }
        if requested.len() > 1 {
            println!("== {fig} ==");
        }
        multipath_bench::figure_table(fig, &budget).print();
    }
    ExitCode::SUCCESS
}

fn cmd_disasm(bench: multipath_workload::Benchmark) -> ExitCode {
    let program = kernels::build(bench, 1);
    print!("{}", program.listing());
    ExitCode::SUCCESS
}

fn cmd_serve(config: &ServeConfig) -> ExitCode {
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: binding {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "multipath serve listening on http://{} ({} workers, queue {}, cache {} MiB)",
        server.local_addr(),
        server.workers(),
        config.queue,
        config.cache_bytes >> 20,
    );
    eprintln!(
        "endpoints: POST /v1/run  POST /v1/sweep  GET /v1/explain/:kernel  /healthz  /metrics"
    );
    // SIGINT/ctrl-c and SIGTERM request a graceful drain: the accept loop
    // stops, in-flight simulations finish, workers join.
    server.run(signal::install());
    eprintln!("multipath serve: drained, shutting down");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_invocation(&args) {
        Ok(Invocation::Run(req)) => cmd_run(&req),
        Ok(Invocation::Trace(topts, req)) => cmd_trace(&topts, &req),
        Ok(Invocation::Explain(eopts, req)) => cmd_explain(&eopts, &req),
        Ok(Invocation::Compare(req)) => cmd_compare(&req),
        Ok(Invocation::Figures(figs)) => cmd_figures(&figs),
        Ok(Invocation::Serve(config)) => cmd_serve(&config),
        Ok(Invocation::List) => cmd_list(),
        Ok(Invocation::Disasm(bench)) => cmd_disasm(bench),
        Err(msg) => {
            eprintln!("error: {msg}");
            usage()
        }
    }
}
