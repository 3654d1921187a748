//! The paper's headline scenario: with multiple programs sharing the
//! processor, fetch bandwidth becomes the scarce resource. TME's alternate
//! paths then starve — and recycling, which conserves fetch bandwidth,
//! restores the multipath benefit (Section 5.1: +12% over TME with four
//! programs).
//!
//! ```text
//! cargo run --release --example multiprogram -p multipath-core
//! ```

use multipath_core::{Features, RunSpec, SimConfig};
use multipath_workload::mix;

fn main() {
    println!(
        "{:10} {:>10} {:>10} {:>12}   (avg over {} permutations)",
        "programs", "SMT", "TME", "REC/RS/RU", 4
    );
    for n in [1usize, 2, 4] {
        let mut ipc = [0.0f64; 3];
        for (i, features) in [Features::smt(), Features::tme(), Features::rec_rs_ru()]
            .into_iter()
            .enumerate()
        {
            // Average the paper's evenly-weighted benchmark rotations
            // (use four of the eight to keep the example quick).
            let mixes: Vec<_> = mix::rotations(n).into_iter().take(4).collect();
            let count = mixes.len();
            for workload in mixes {
                let programs = mix::programs(&workload, 1);
                let config = SimConfig::big_2_16().with_features(features);
                let stats = RunSpec::new(config, programs, 15_000).run().stats;
                ipc[i] += stats.ipc() / count as f64;
            }
        }
        let rec_vs_tme = 100.0 * (ipc[2] / ipc[1] - 1.0);
        println!(
            "{:10} {:>10.2} {:>10.2} {:>12.2}   (REC/RS/RU vs TME: {:+.1}%)",
            n, ipc[0], ipc[1], ipc[2], rec_vs_tme
        );
    }
}
