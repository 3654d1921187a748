//! Timing golden over the configuration matrix: a digest of
//! `Stats::counters()` for every machine preset × feature set ×
//! alternate-path policy kind × program count, checked into
//! `tests/golden/counters_quick.txt`.
//!
//! `golden_trace.rs` pins *what* commits, which does not depend on
//! timing; `stats_drift.rs` pins the cycle-level numbers of one machine,
//! one feature set and one program. This suite pins the cycle-level
//! counters (cycles, fetch, rename, recycle, reuse, squash, fork and
//! stall counts) across the whole matrix, so a hot-path rewrite that
//! shifts timing under any preset, any mechanism, the `fetch-N` and
//! `nostop-N` policies (undispatch, fetched-only entries), or a
//! multi-program mix fails here with the cell named.
//!
//! Regenerate after an *intentional* timing change with:
//!
//! ```text
//! MP_UPDATE_GOLDEN=1 cargo test -p multipath-tests --test counters_golden
//! ```

use multipath_core::config::fnv1a;
use multipath_core::{AltPolicy, Features, RunSpec, SimConfig};
use multipath_workload::{kernels, Benchmark, Program};
use std::fmt::Write as _;

/// Committed instructions per program: small enough that a debug build
/// runs the whole matrix in seconds, large enough that every run forks,
/// merges, squashes and (under `fetch-N`/`nostop-N`) undispatches.
const COMMITS: u64 = 800;
const SEED: u64 = 1;

const MACHINES: [&str; 4] = ["big.2.16", "big.1.8", "small.2.8", "small.1.8"];

/// One policy of each kind, spanning the three limits Figure 5 sweeps.
fn policies() -> [AltPolicy; 3] {
    [
        AltPolicy::Stop(8),
        AltPolicy::FetchOnly(16),
        AltPolicy::NoStop(32),
    ]
}

const PROGRAM_COUNTS: [usize; 3] = [1, 2, 4];

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("counters_quick.txt")
}

/// One cell of the matrix.
#[derive(Clone, Copy)]
struct Cell {
    machine: &'static str,
    features: Features,
    policy: AltPolicy,
    programs: usize,
    /// Rotates which kernels run, so the matrix covers all eight.
    first_kernel: usize,
}

fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for machine in MACHINES {
        for features in Features::all_six() {
            for policy in policies() {
                for programs in PROGRAM_COUNTS {
                    let first_kernel = out.len() % Benchmark::ALL.len();
                    out.push(Cell {
                        machine,
                        features,
                        policy,
                        programs,
                        first_kernel,
                    });
                }
            }
        }
    }
    out
}

/// Runs one cell and renders its golden line.
fn run_cell(cell: Cell, kernels: &[Program]) -> String {
    let config = SimConfig::from_machine_name(cell.machine)
        .expect("preset name")
        .with_features(cell.features)
        .with_alt_policy(cell.policy);
    let programs = (0..cell.programs)
        .map(|i| kernels[(cell.first_kernel + i) % kernels.len()].clone())
        .collect();
    let stats = RunSpec::new(config, programs, COMMITS).run().stats;
    let counters = stats.counters();
    let bytes: Vec<u8> = counters.iter().flat_map(|c| c.to_le_bytes()).collect();
    format!(
        "{} {} {} p{} k{} cycles={} committed={} {:016x}",
        cell.machine,
        cell.features.label(),
        cell.policy.label(),
        cell.programs,
        cell.first_kernel,
        stats.cycles,
        stats.committed,
        fnv1a(&bytes)
    )
}

/// Every cell's line, in matrix order, computed on a few threads.
fn compute_all() -> Vec<String> {
    let kernels: Vec<Program> = Benchmark::ALL
        .iter()
        .map(|&b| kernels::build(b, SEED))
        .collect();
    let cells = cells();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4);
    let mut lines = vec![String::new(); cells.len()];
    std::thread::scope(|s| {
        for (t, chunk) in lines.chunks_mut(cells.len().div_ceil(threads)).enumerate() {
            let (cells, kernels) = (&cells, &kernels);
            s.spawn(move || {
                let base = t * cells.len().div_ceil(threads);
                for (i, line) in chunk.iter_mut().enumerate() {
                    *line = run_cell(cells[base + i], kernels);
                }
            });
        }
    });
    lines
}

fn render(lines: &[String]) -> String {
    let mut out = String::from(
        "# machine features policy programs first-kernel cycles committed counters-digest — \
         regenerate with MP_UPDATE_GOLDEN=1 (see counters_golden.rs)\n",
    );
    for line in lines {
        let _ = writeln!(out, "{line}");
    }
    out
}

#[test]
fn counters_match_golden_over_the_matrix() {
    let lines = compute_all();
    let path = golden_path();
    if std::env::var("MP_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, render(&lines)).expect("write golden file");
        eprintln!("counters golden regenerated at {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {} ({e}); regenerate with MP_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    let golden: Vec<&str> = golden
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let drifted: Vec<String> = golden
        .iter()
        .zip(&lines)
        .filter(|(g, n)| *g != n)
        .map(|(g, n)| format!("golden `{g}`\n     now `{n}`"))
        .collect();
    assert!(
        drifted.is_empty(),
        "counters drifted in {} of {} cells — if intentional, regenerate with \
         MP_UPDATE_GOLDEN=1:\n  {}",
        drifted.len(),
        lines.len(),
        drifted.join("\n  ")
    );
    assert_eq!(
        golden.len(),
        lines.len(),
        "golden file row count differs from the matrix"
    );
}

#[test]
fn matrix_covers_every_preset_feature_set_policy_kind_and_mix() {
    let cells = cells();
    assert_eq!(
        cells.len(),
        MACHINES.len() * 6 * policies().len() * PROGRAM_COUNTS.len()
    );
    for k in 0..Benchmark::ALL.len() {
        assert!(
            cells.iter().any(|c| c.first_kernel == k),
            "kernel {k} never leads a run"
        );
    }
}
