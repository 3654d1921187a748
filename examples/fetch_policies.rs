//! Sweep the alternate-path fetch-limit policies of Section 5.2 on a
//! single hard-to-predict benchmark.
//!
//! `stop-N` freezes an alternate the moment its branch resolves; `fetch-N`
//! keeps building the recycle trace without executing; `nostop-N` keeps
//! executing. The paper (and this reproduction) finds the conservative
//! `stop-8` to perform very well: deep alternate execution floods the
//! machine with wrong-path work.
//!
//! ```text
//! cargo run --release --example fetch_policies -p multipath-core
//! ```

use multipath_core::{AltPolicy, Features, RunSpec, SimConfig};
use multipath_workload::{kernels, Benchmark};

fn main() {
    let bench = Benchmark::Go;
    println!(
        "{:12} {:>8} {:>10} {:>10} {:>8}",
        "policy", "IPC", "recycled%", "coverage%", "forks"
    );
    for policy in AltPolicy::figure5_sweep() {
        let config = SimConfig::big_2_16()
            .with_features(Features::rec_rs_ru())
            .with_alt_policy(policy);
        let stats = RunSpec::new(config, vec![kernels::build(bench, 7)], 30_000)
            .run()
            .stats;
        println!(
            "{:12} {:>8.2} {:>10.1} {:>10.1} {:>8}",
            policy.label(),
            stats.ipc(),
            stats.pct_recycled(),
            stats.pct_miss_covered(),
            stats.forks
        );
    }
}
