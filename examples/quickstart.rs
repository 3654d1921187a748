//! Quickstart: simulate one SPEC95-proxy benchmark on the paper's baseline
//! machine under the full recycling architecture, and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart -p multipath-core
//! ```

use multipath_core::{Features, RunSpec, SimConfig};
use multipath_workload::{kernels, Benchmark};

fn main() {
    // The paper's baseline: a 16-wide, 8-context SMT/TME processor
    // (big.2.16) with recycling, reuse, and re-spawning enabled.
    let config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());

    // `compress` is the suite's best recycling candidate: a tight
    // dictionary loop full of short, data-dependent hammocks.
    let program = kernels::build(Benchmark::Compress, 42);

    let stats = RunSpec::new(config, vec![program], 50_000).run().stats;

    println!(
        "simulated {} cycles, committed {} instructions",
        stats.cycles, stats.committed
    );
    println!("IPC:                  {:.2}", stats.ipc());
    println!("branch accuracy:      {:.1}%", stats.branch_accuracy());
    println!(
        "instructions recycled:{:.1}% of renamed",
        stats.pct_recycled()
    );
    println!(
        "instructions reused:  {:.2}% of renamed",
        stats.pct_reused()
    );
    println!("paths forked:         {}", stats.forks);
    println!("  covered mispredicts:{:.1}%", stats.pct_miss_covered());
    println!(
        "  recycled at least once: {:.1}%",
        stats.pct_forks_recycled()
    );
    println!(
        "  re-spawned at least once: {:.1}%",
        stats.pct_forks_respawned()
    );
    println!(
        "merges: {} ({:.1}% backward-branch)",
        stats.merges,
        stats.pct_back_merges()
    );
}
