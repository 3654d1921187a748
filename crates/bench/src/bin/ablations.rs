//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! These go beyond the paper's own sweeps: each ablation varies one
//! mechanism parameter and reports IPC plus the statistic the parameter
//! most directly controls. Budget via `MP_BENCH_COMMITS`.
//!
//! ```text
//! cargo run --release -p multipath-bench --bin ablations
//! ```

use multipath_bench::{run_cell, Budget, Cell};
use multipath_core::{Features, RecycledPrediction, RunSpec, SimConfig};
use multipath_workload::{mix, Benchmark};

fn budget() -> Budget {
    let mut b = Budget::from_env();
    b.mixes = b.mixes.min(4);
    b
}

fn cell(config: SimConfig, workload: Vec<Benchmark>) -> Cell {
    Cell {
        config,
        workload,
        seed: 1,
    }
}

/// Confidence threshold: how eagerly TME forks.
fn confidence_threshold() {
    println!("-- confidence threshold (go, TME): fork aggressiveness");
    println!(
        "{:>10} {:>8} {:>8} {:>10} {:>10}",
        "threshold", "IPC", "forks", "coverage%", "waste"
    );
    for threshold in [4u8, 8, 12, 15] {
        let mut config = SimConfig::big_2_16().with_features(Features::tme());
        config.predictor.conf_threshold = threshold;
        let s = run_cell(&cell(config, vec![Benchmark::Go]), &budget());
        println!(
            "{:>10} {:>8.2} {:>8} {:>10.1} {:>10.2}",
            threshold,
            s.ipc(),
            s.forks,
            s.pct_miss_covered(),
            (s.renamed - s.committed) as f64 / s.committed as f64,
        );
    }
}

/// Active-list capacity: the recycle trace length.
fn active_list_size() {
    println!("-- active-list slots (tomcatv, REC/RS/RU): trace capacity");
    println!(
        "{:>10} {:>8} {:>10} {:>8}",
        "slots", "IPC", "recycled%", "merges"
    );
    for slots in [32usize, 64, 128, 256] {
        let mut config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
        config.active_list = slots;
        let s = run_cell(&cell(config, vec![Benchmark::Tomcatv]), &budget());
        println!(
            "{:>10} {:>8.2} {:>10.1} {:>8}",
            slots,
            s.ipc(),
            s.pct_recycled(),
            s.merges
        );
    }
}

/// Physical register file size: renaming headroom under recycling.
fn physical_registers() {
    println!("-- physical registers per file (4-program mix, REC/RS/RU)");
    println!("{:>10} {:>8} {:>12}", "registers", "IPC", "preg stalls");
    for extra in [32usize, 100, 196] {
        let mut config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
        config.phys_int = 8 * 32 + extra;
        config.phys_fp = 8 * 32 + extra;
        let s = run_cell(&cell(config, mix::rotations(4)[0].clone()), &budget());
        println!(
            "{:>10} {:>8.2} {:>12}",
            256 + extra,
            s.ipc(),
            s.preg_stall_cycles
        );
    }
}

/// Forks per cycle: spawn bandwidth.
fn forks_per_cycle() {
    println!("-- forks per cycle (gcc, REC/RS/RU): spawn bandwidth");
    println!(
        "{:>10} {:>8} {:>8} {:>10}",
        "forks/cyc", "IPC", "forks", "refused"
    );
    for n in [1usize, 2, 4] {
        let mut config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
        config.forks_per_cycle = n;
        let s = run_cell(&cell(config, vec![Benchmark::Gcc]), &budget());
        println!(
            "{:>10} {:>8.2} {:>8} {:>10}",
            n,
            s.ipc(),
            s.forks,
            s.fork_refused_cap
        );
    }
}

/// Contexts: how many spares the single program gets.
fn context_count() {
    println!("-- hardware contexts (go, TME): spare availability");
    println!(
        "{:>10} {:>8} {:>8} {:>10}",
        "contexts", "IPC", "forks", "coverage%"
    );
    for contexts in [2usize, 4, 8] {
        let mut config = SimConfig::big_2_16().with_features(Features::tme());
        config.contexts = contexts;
        let s = run_cell(&cell(config, vec![Benchmark::Go]), &budget());
        println!(
            "{:>10} {:>8.2} {:>8} {:>10.1}",
            contexts,
            s.ipc(),
            s.forks,
            s.pct_miss_covered()
        );
    }
}

/// The paper's two recycled-branch prediction methods (Section 3.4).
fn recycled_prediction() {
    println!("-- recycled-branch prediction method (perl, REC/RS/RU)");
    println!(
        "{:>10} {:>8} {:>10} {:>8}",
        "method", "IPC", "recycled%", "acc%"
    );
    for (name, method) in [
        ("repredict", RecycledPrediction::Repredict),
        ("trace", RecycledPrediction::Trace),
    ] {
        let mut config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
        config.recycled_prediction = method;
        let s = run_cell(&cell(config, vec![Benchmark::Perl]), &budget());
        println!(
            "{:>10} {:>8.2} {:>10.1} {:>8.1}",
            name,
            s.ipc(),
            s.pct_recycled(),
            s.branch_accuracy()
        );
    }
}

/// MDB capacity: load-reuse tracking reach.
fn mdb_capacity() {
    println!("-- MDB entries (compress, REC/RS/RU): load reuse");
    println!("{:>10} {:>8} {:>8}", "entries", "IPC", "reused");
    for entries in [16usize, 64, 256] {
        let mut config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
        config.mdb_entries = entries;
        let s = run_cell(&cell(config, vec![Benchmark::Compress]), &budget());
        println!("{:>10} {:>8.2} {:>8}", entries, s.ipc(), s.reused);
    }
}

/// Loop size vs. backward-branch recycling: the paper's "only loops
/// smaller than the current active lists are able to benefit".
fn loop_size_vs_recycling() {
    println!("-- loop-body size vs recycling (microbenchmark, REC/RS/RU, 64-slot AL)");
    println!(
        "{:>10} {:>8} {:>10} {:>8}",
        "body", "IPC", "recycled%", "back"
    );
    for body in [16usize, 32, 48, 64, 96, 160] {
        let params = multipath_workload::micro::MicroParams {
            loop_body: body,
            ..Default::default()
        };
        let program = multipath_workload::micro::build(&params, 1);
        let config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
        let s = RunSpec::new(config, vec![program], budget().committed_per_program)
            .run()
            .stats;
        println!(
            "{:>10} {:>8.2} {:>10.1} {:>8}",
            body,
            s.ipc(),
            s.pct_recycled(),
            s.back_merges
        );
    }
}

/// Direction-prediction scheme: gshare vs bimodal vs McFarling combining.
fn predictor_scheme() {
    println!("-- predictor scheme (per kernel, REC/RS/RU): accuracy / IPC");
    println!(
        "{:>10} {:>16} {:>16} {:>16}",
        "bench", "gshare", "bimodal", "combining"
    );
    for bench in [
        Benchmark::Gcc,
        Benchmark::Go,
        Benchmark::Perl,
        Benchmark::Vortex,
    ] {
        let mut cells = Vec::new();
        for scheme in [
            multipath_branch::DirectionScheme::Gshare,
            multipath_branch::DirectionScheme::Bimodal,
            multipath_branch::DirectionScheme::Combining,
        ] {
            let mut config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
            config.predictor.scheme = scheme;
            let s = run_cell(&cell(config, vec![bench]), &budget());
            cells.push(format!("{:.1}% / {:.2}", s.branch_accuracy(), s.ipc()));
        }
        println!(
            "{:>10} {:>16} {:>16} {:>16}",
            bench.name(),
            cells[0],
            cells[1],
            cells[2]
        );
    }
}

/// Spawn latency: how fast the Mapping Synchronization Bus can duplicate
/// register state into a spare context.
fn spawn_latency() {
    println!("-- MSB spawn latency (go, TME): cost of slow state duplication");
    println!("{:>10} {:>8} {:>10}", "cycles", "IPC", "coverage%");
    for latency in [1u32, 4, 8, 16] {
        let mut config = SimConfig::big_2_16().with_features(Features::tme());
        config.spawn_latency = latency;
        let s = run_cell(&cell(config, vec![Benchmark::Go]), &budget());
        println!(
            "{:>10} {:>8.2} {:>10.1}",
            latency,
            s.ipc(),
            s.pct_miss_covered()
        );
    }
}

fn main() {
    spawn_latency();
    println!();
    predictor_scheme();
    println!();
    loop_size_vs_recycling();
    println!();
    confidence_threshold();
    println!();
    active_list_size();
    println!();
    physical_registers();
    println!();
    forks_per_cycle();
    println!();
    context_count();
    println!();
    recycled_prediction();
    println!();
    mdb_capacity();
}
