//! Watch the pipeline work: a per-cycle timeline of every hardware
//! context, showing forks appearing (`A`), branches resolving (`a`),
//! displaced primaries draining (`D`), inactive traces (`I`), and recycle
//! streams (`+sN`) feeding rename.
//!
//! ```text
//! cargo run --release --example trace_pipeline -p multipath-core
//! ```

use multipath_core::{Features, RunSpec, SimConfig};
use multipath_workload::{kernels, Benchmark};

fn main() {
    let config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
    // Run far enough to warm the predictors and caches, and keep the
    // last 400 cycles of the run.
    let outcome = RunSpec {
        timeline: Some(400),
        ..RunSpec::new(config, vec![kernels::build(Benchmark::Go, 7)], 5_000)
    }
    .run();
    let timeline = outcome.probes.and_then(|p| p.timeline);
    print!("{}", timeline.expect("timeline requested").render(10));
    println!(
        "\nlegend: P primary, A alternate, a resolved alternate, D draining, \
         I inactive trace, . idle; 'n+sM' = n live entries, stream of M remaining"
    );
}
