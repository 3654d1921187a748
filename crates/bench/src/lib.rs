//! Experiment harness for the HPCA'99 instruction-recycling reproduction.
//!
//! Every table and figure of the paper's evaluation has a runner here and a
//! binary that prints it (`cargo run --release -p multipath-bench --bin
//! fig3`, `fig4`, `fig5`, `fig6`, `table1`). Simulator throughput is
//! measured by the repository benchmark, `perfbench/` (see
//! `BENCHMARK.json`), whose `fig-sweep` workload runs [`figure3_cells`].
//!
//! Sweeps run on the [`parallel`] engine: each figure builds its full
//! cell list, shards it across `MULTIPATH_THREADS` workers (default: all
//! cores), and aggregates in cell-list order, so output is byte-identical
//! at any thread count. `MULTIPATH_BUDGET=quick` selects the smoke-sized
//! budget; `MP_BENCH_COMMITS`/`MP_BENCH_MIXES` fine-tune it.
//!
//! Absolute IPC is not expected to match the paper (its workloads were
//! SPEC95 Alpha binaries on the authors' simulator; ours are synthetic
//! proxies — see `DESIGN.md`). The *shape* is the reproduction target:
//! which configuration wins, how gains move with program count, and where
//! the recycling statistics land.

use multipath_core::{AltPolicy, Features, ProbeConfig, RunSpec, SimConfig, Stats};
use multipath_workload::{mix, Benchmark};

pub mod parallel;
mod table;

pub use table::Table;
use table::Value;

/// How big each simulation is.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Committed instructions per co-scheduled program.
    pub committed_per_program: u64,
    /// Hard cycle cap (guards against pathological configurations).
    pub max_cycles: u64,
    /// Workload seed.
    pub seed: u64,
    /// How many of the eight benchmark permutations to average for
    /// multi-program points (the paper uses all eight).
    pub mixes: usize,
}

impl Budget {
    /// The default experiment size: 20k committed instructions per program
    /// over all eight permutations.
    pub fn full() -> Budget {
        Budget {
            committed_per_program: 20_000,
            max_cycles: 2_000_000,
            seed: 1,
            mixes: 8,
        }
    }

    /// A fast smoke-sized budget for tests and Criterion timing.
    pub fn quick() -> Budget {
        Budget {
            committed_per_program: 4_000,
            max_cycles: 400_000,
            seed: 1,
            mixes: 2,
        }
    }

    /// Reads the budget from the environment: `MULTIPATH_BUDGET=quick`
    /// selects [`Budget::quick`] (anything else means [`Budget::full`]),
    /// then `MP_BENCH_COMMITS` / `MP_BENCH_MIXES` override individual
    /// knobs.
    pub fn from_env() -> Budget {
        let mut b = match std::env::var("MULTIPATH_BUDGET").as_deref() {
            Ok("quick") => Budget::quick(),
            _ => Budget::full(),
        };
        if let Some(n) = std::env::var("MP_BENCH_COMMITS")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            b.committed_per_program = n;
        }
        if let Some(n) = std::env::var("MP_BENCH_MIXES")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            b.mixes = n.clamp(1, 8);
        }
        b
    }
}

/// One experiment cell: machine + features + policy + workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Machine model.
    pub config: SimConfig,
    /// The benchmarks co-scheduled in this run.
    pub workload: Vec<Benchmark>,
    /// Workload seed.
    pub seed: u64,
}

impl Cell {
    /// The run behind this cell: the budget's commits per program and its
    /// cycle cap.
    pub fn spec(&self, budget: &Budget) -> RunSpec {
        RunSpec {
            max_cycles: Some(budget.max_cycles),
            ..RunSpec::new(
                self.config.clone(),
                mix::programs(&self.workload, self.seed),
                budget.committed_per_program,
            )
        }
    }
}

/// Runs one cell to the budget and returns the statistics.
pub fn run_cell(cell: &Cell, budget: &Budget) -> Stats {
    cell.spec(budget).run().stats
}

/// The cell for `bench` running alone under `features` on the baseline
/// machine.
fn single_cell(bench: Benchmark, features: Features, budget: &Budget) -> Cell {
    Cell {
        config: SimConfig::big_2_16().with_features(features),
        workload: vec![bench],
        seed: budget.seed,
    }
}

/// Convenience: run `bench` alone under `features` on the baseline machine.
pub fn run_single(bench: Benchmark, features: Features, budget: &Budget) -> Stats {
    run_cell(&single_cell(bench, features, budget), budget)
}

/// The cells behind one multi-program average: the paper's evenly-weighted
/// permutations of `n` programs, limited to `budget.mixes` rotations.
fn mix_cells(config: &SimConfig, n_programs: usize, budget: &Budget) -> Vec<Cell> {
    let mixes = mix::rotations(n_programs);
    let take = budget.mixes.min(mixes.len());
    mixes
        .into_iter()
        .take(take)
        .map(|m| Cell {
            config: config.clone(),
            workload: m,
            seed: budget.seed,
        })
        .collect()
}

/// Mean IPC over per-cell statistics, summed in cell order (the order
/// matters: floating-point addition is not associative, and the CI
/// determinism gate compares serial and parallel output byte-for-byte).
fn mean_ipc(stats: &[Stats]) -> f64 {
    stats.iter().map(Stats::ipc).sum::<f64>() / stats.len() as f64
}

/// Runs every group of cells in one parallel sweep and returns each
/// group's mean IPC, in group order.
fn group_mean_ipcs(groups: Vec<Vec<Cell>>, budget: &Budget) -> Vec<f64> {
    let lens: Vec<usize> = groups.iter().map(Vec::len).collect();
    let cells: Vec<Cell> = groups.into_iter().flatten().collect();
    let stats = parallel::run_cells(&cells, budget);
    let mut rest = &stats[..];
    lens.into_iter()
        .map(|n| {
            let (group, tail) = rest.split_at(n);
            rest = tail;
            mean_ipc(group)
        })
        .collect()
}

/// The program counts of the multi-program figures.
const PROGRAM_COUNTS: [usize; 3] = [1, 2, 4];

// ---------------------------------------------------------------------
// Figure 3: per-program IPC under the six configurations.
// ---------------------------------------------------------------------

/// One Figure 3 row: a benchmark and its IPC under each configuration.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// The benchmark.
    pub bench: Benchmark,
    /// IPC per configuration, in [`Features::all_six`] order.
    pub ipc: [f64; 6],
}

/// The full Figure 3 cell list (8 benchmarks × 6 configurations), in the
/// order `figure3` aggregates them. Exposed so the repository benchmark
/// times exactly the sweep the figure runs.
pub fn figure3_cells(budget: &Budget) -> Vec<Cell> {
    Benchmark::ALL
        .into_iter()
        .flat_map(|bench| {
            Features::all_six()
                .into_iter()
                .map(move |f| single_cell(bench, f, budget))
        })
        .collect()
}

/// Runs Figure 3 (single-program IPC for SMT/TME/REC/REC-RU/REC-RS/
/// REC-RS-RU on the baseline machine). All 48 cells run in parallel.
pub fn figure3(budget: &Budget) -> Vec<Fig3Row> {
    let cells = figure3_cells(budget);
    let stats = parallel::run_cells(&cells, budget);
    Benchmark::ALL
        .into_iter()
        .enumerate()
        .map(|(bi, bench)| {
            let mut ipc = [0.0; 6];
            for (fi, v) in ipc.iter_mut().enumerate() {
                *v = stats[bi * 6 + fi].ipc();
            }
            Fig3Row { bench, ipc }
        })
        .collect()
}

/// The six feature configurations as table columns (Figures 3 and 4).
fn feature_columns(mut table: Table) -> Table {
    for f in Features::all_six() {
        let csv = f.label().to_lowercase().replace('/', "_");
        table = table.column(f.label(), &csv, 9, Some((2, 4)));
    }
    table
}

impl Fig3Row {
    /// Figure 3 as a table, with an `average` row in the text form.
    pub fn table(rows: &[Fig3Row]) -> Table {
        let mut table = feature_columns(Table::default().column("bench", "bench", 10, None));
        let mut avg = [0.0; 6];
        for row in rows {
            for (a, v) in avg.iter_mut().zip(row.ipc) {
                *a += v / rows.len() as f64;
            }
            table.row(labelled(row.bench.name(), row.ipc));
        }
        table.summary_row(labelled("average", avg));
        table
    }
}

/// A row of a label followed by reals.
fn labelled<const N: usize>(label: &str, values: [f64; N]) -> Vec<Value> {
    std::iter::once(Value::Text(label.to_owned()))
        .chain(values.map(Value::Real))
        .collect()
}

// ---------------------------------------------------------------------
// Figure 4: average IPC for 1/2/4 programs under the six configurations.
// ---------------------------------------------------------------------

/// One Figure 4 row: program count and average IPC per configuration.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Number of co-scheduled programs.
    pub programs: usize,
    /// Average IPC per configuration, in [`Features::all_six`] order.
    pub ipc: [f64; 6],
}

/// Runs Figure 4. The whole grid (3 program counts × 6 configurations ×
/// up to 8 mixes) is flattened into one parallel sweep.
pub fn figure4(budget: &Budget) -> Vec<Fig4Row> {
    let groups = PROGRAM_COUNTS
        .into_iter()
        .flat_map(|n| {
            Features::all_six()
                .map(|f| mix_cells(&SimConfig::big_2_16().with_features(f), n, budget))
        })
        .collect();
    let means = group_mean_ipcs(groups, budget);
    PROGRAM_COUNTS
        .into_iter()
        .zip(means.chunks(6))
        .map(|(programs, ipc)| Fig4Row {
            programs,
            ipc: ipc.try_into().expect("six configurations"),
        })
        .collect()
}

impl Fig4Row {
    /// Figure 4 as a table.
    pub fn table(rows: &[Fig4Row]) -> Table {
        let mut table = feature_columns(Table::default().column("programs", "programs", 10, None));
        for row in rows {
            let mut values = vec![Value::Count(row.programs as u64)];
            values.extend(row.ipc.map(Value::Real));
            table.row(values);
        }
        table
    }
}

// ---------------------------------------------------------------------
// Figure 5: alternate-path fetch-limit policies.
// ---------------------------------------------------------------------

/// One Figure 5 row: a policy and its average IPC for 1/2/4 programs.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// The alternate-path policy.
    pub policy: AltPolicy,
    /// Average IPC at 1, 2, and 4 programs.
    pub ipc: [f64; 3],
}

/// Runs Figure 5 (nine policies under the full REC/RS/RU architecture),
/// flattened into one parallel sweep.
pub fn figure5(budget: &Budget) -> Vec<Fig5Row> {
    let policies = AltPolicy::figure5_sweep();
    let groups = policies
        .iter()
        .flat_map(|&policy| {
            let config = SimConfig::big_2_16()
                .with_features(Features::rec_rs_ru())
                .with_alt_policy(policy);
            PROGRAM_COUNTS.map(|n| mix_cells(&config, n, budget))
        })
        .collect();
    let means = group_mean_ipcs(groups, budget);
    policies
        .into_iter()
        .zip(means.chunks(3))
        .map(|(policy, ipc)| Fig5Row {
            policy,
            ipc: ipc.try_into().expect("three program counts"),
        })
        .collect()
}

/// The 1/2/4-program columns (Figures 5 and 6).
fn program_columns(table: Table) -> Table {
    table
        .column("1 prog", "p1", 10, Some((2, 4)))
        .column("2 progs", "p2", 10, Some((2, 4)))
        .column("4 progs", "p4", 10, Some((2, 4)))
}

impl Fig5Row {
    /// Figure 5 as a table.
    pub fn table(rows: &[Fig5Row]) -> Table {
        let mut table = program_columns(Table::default().column("policy", "policy", 12, None));
        for row in rows {
            table.row(labelled(&row.policy.label(), row.ipc));
        }
        table
    }
}

// ---------------------------------------------------------------------
// Figure 6: limited-resource machine models.
// ---------------------------------------------------------------------

/// The four machine models of Section 5.3.
pub fn figure6_machines() -> [(&'static str, SimConfig); 4] {
    [
        ("small.1.8", SimConfig::small_1_8()),
        ("small.2.8", SimConfig::small_2_8()),
        ("big.1.8", SimConfig::big_1_8()),
        ("big.2.16", SimConfig::big_2_16()),
    ]
}

/// One Figure 6 row: machine × configuration × program count.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Machine model name.
    pub machine: &'static str,
    /// Configuration label (`SMT`, `TME`, `REC/RS/RU`).
    pub features: Features,
    /// Average IPC at 1, 2, and 4 programs.
    pub ipc: [f64; 3],
}

/// Runs Figure 6 (SMT vs TME vs REC/RS/RU on each machine model),
/// flattened into one parallel sweep.
pub fn figure6(budget: &Budget) -> Vec<Fig6Row> {
    let keys: Vec<(&'static str, Features, SimConfig)> = figure6_machines()
        .into_iter()
        .flat_map(|(machine, base)| {
            [Features::smt(), Features::tme(), Features::rec_rs_ru()]
                .map(|f| (machine, f, base.clone().with_features(f)))
        })
        .collect();
    let groups = keys
        .iter()
        .flat_map(|(_, _, config)| PROGRAM_COUNTS.map(|n| mix_cells(config, n, budget)))
        .collect();
    let means = group_mean_ipcs(groups, budget);
    keys.into_iter()
        .zip(means.chunks(3))
        .map(|((machine, features, _), ipc)| Fig6Row {
            machine,
            features,
            ipc: ipc.try_into().expect("three program counts"),
        })
        .collect()
}

impl Fig6Row {
    /// Figure 6 as a table.
    pub fn table(rows: &[Fig6Row]) -> Table {
        let mut table = program_columns(
            Table::default()
                .column("machine", "machine", 10, None)
                .column("config", "config", 10, None),
        );
        for row in rows {
            let mut values = vec![Value::Text(row.machine.to_owned())];
            values.extend(labelled(row.features.label(), row.ipc));
            table.row(values);
        }
        table
    }
}

// ---------------------------------------------------------------------
// Table 1: recycling statistics.
// ---------------------------------------------------------------------

/// One Table 1 row (per benchmark or a multi-program average).
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Row label (benchmark name or `"N progs avg"`).
    pub label: String,
    /// % of renamed instructions recycled.
    pub pct_recycled: f64,
    /// % of renamed instructions reused.
    pub pct_reused: f64,
    /// % of mispredicted branches covered by a fork.
    pub pct_miss_cov: f64,
    /// % of forks used by TME.
    pub pct_forks_tme: f64,
    /// % of forks recycled at least once.
    pub pct_forks_recycled: f64,
    /// % of forks re-spawned at least once.
    pub pct_forks_respawned: f64,
    /// Average merges per recycled alternate path.
    pub merges_per_alt: f64,
    /// % of merges that were backward-branch merges.
    pub pct_back_merges: f64,
}

impl Table1Row {
    fn from_stats(label: String, s: &Stats) -> Table1Row {
        Table1Row {
            label,
            pct_recycled: s.pct_recycled(),
            pct_reused: s.pct_reused(),
            pct_miss_cov: s.pct_miss_covered(),
            pct_forks_tme: s.pct_forks_tme(),
            pct_forks_recycled: s.pct_forks_recycled(),
            pct_forks_respawned: s.pct_forks_respawned(),
            merges_per_alt: s.merges_per_alt_path(),
            pct_back_merges: s.pct_back_merges(),
        }
    }

    /// Table 1 as a table.
    pub fn table(rows: &[Table1Row]) -> Table {
        let mut table = Table::default()
            .column("program", "program", 12, None)
            .column("recyc%", "recycled_pct", 8, Some((1, 2)))
            .column("reuse%", "reused_pct", 7, Some((1, 2)))
            .column("misscov%", "misscov_pct", 9, Some((1, 2)))
            .column("tme%", "forks_tme_pct", 6, Some((1, 2)))
            .column("recyc%", "forks_recycled_pct", 6, Some((1, 2)))
            .column("respawn%", "forks_respawned_pct", 8, Some((1, 2)))
            .column("merges/alt", "merges_per_alt", 10, Some((1, 2)))
            .column("back%", "back_merges_pct", 7, Some((1, 2)));
        for r in rows {
            table.row(labelled(
                &r.label,
                [
                    r.pct_recycled,
                    r.pct_reused,
                    r.pct_miss_cov,
                    r.pct_forks_tme,
                    r.pct_forks_recycled,
                    r.pct_forks_respawned,
                    r.merges_per_alt,
                    r.pct_back_merges,
                ],
            ));
        }
        table
    }
}

/// Runs Table 1: per-benchmark recycling statistics under REC/RS/RU, plus
/// 2- and 4-program averages. Singles and mix cells share one parallel
/// sweep.
pub fn table1(budget: &Budget) -> Vec<Table1Row> {
    let singles = Benchmark::ALL.len();
    let mut cells: Vec<Cell> = Benchmark::ALL
        .into_iter()
        .map(|bench| single_cell(bench, Features::rec_rs_ru(), budget))
        .collect();
    let mut spans = Vec::new();
    for n in [2usize, 4] {
        let config = SimConfig::big_2_16().with_features(Features::rec_rs_ru());
        let start = cells.len();
        cells.extend(mix_cells(&config, n, budget));
        spans.push((n, start..cells.len()));
    }
    let stats = parallel::run_cells(&cells, budget);
    let mut rows = Vec::new();
    for (bench, s) in Benchmark::ALL.into_iter().zip(&stats) {
        rows.push(Table1Row::from_stats(bench.name().to_owned(), s));
    }
    rows.push(Table1Row::from_stats(
        "1 prog avg".to_owned(),
        &combine(&stats[..singles]),
    ));
    for (n, span) in spans {
        rows.push(Table1Row::from_stats(
            format!("{n} progs avg"),
            &combine(&stats[span]),
        ));
    }
    rows
}

/// Sums raw counters across runs so the averages are instruction-weighted,
/// as the paper's are.
fn combine(all: &[Stats]) -> Stats {
    let mut acc = Stats::new(1);
    for s in all {
        acc.add_counters(s);
    }
    acc
}

// ---------------------------------------------------------------------
// Explain: reuse/recycle attribution alongside the figures.
// ---------------------------------------------------------------------

/// One explain row: why recycled instructions were (not) reused for one
/// kernel under REC/RS/RU, plus the fork-refusal total — the harness-side
/// companion to `multipath explain`.
#[derive(Debug, Clone)]
pub struct ExplainRow {
    /// The benchmark.
    pub bench: Benchmark,
    /// Instructions renamed via the recycle datapath.
    pub recycled: u64,
    /// ... of which reused (no re-execution).
    pub reused: u64,
    /// Reuse denials by cause, in [`multipath_core::ReuseDeny::ALL`]
    /// order; sums to `recycled - reused`.
    pub denied: [u64; multipath_core::ReuseDeny::COUNT],
    /// Fork refusals across all causes.
    pub fork_refused: u64,
}

impl ExplainRow {
    /// Reuse yield: % of recycled instructions whose results were reused.
    pub fn yield_pct(&self) -> f64 {
        if self.recycled == 0 {
            0.0
        } else {
            100.0 * self.reused as f64 / self.recycled as f64
        }
    }

    /// The explain attribution as a table, cause columns in
    /// `ReuseDeny::ALL` order.
    pub fn table(rows: &[ExplainRow]) -> Table {
        let mut table = Table::default()
            .column("bench", "bench", 10, None)
            .column("recycled", "recycled", 9, Some((0, 0)))
            .column("reused", "reused", 8, Some((0, 0)))
            .column("yield%", "yield_pct", 7, Some((1, 2)));
        for cause in multipath_core::ReuseDeny::ALL {
            table = table.column(short_cause(cause.name()), cause.name(), 12, Some((0, 0)));
        }
        table = table.column("refused", "fork_refused", 8, Some((0, 0)));
        for r in rows {
            let mut values = vec![
                Value::Text(r.bench.name().to_owned()),
                Value::Count(r.recycled),
                Value::Count(r.reused),
                Value::Real(r.yield_pct()),
            ];
            values.extend(r.denied.map(Value::Count));
            values.push(Value::Count(r.fork_refused));
            table.row(values);
        }
        table
    }
}

/// Runs the explain attribution for every kernel under REC/RS/RU. Serial:
/// the sinks carry per-run state that the parallel engine's `Stats`-only
/// aggregation cannot transport. With the quick budget this is the cost
/// of one extra Table 1 column pass.
pub fn explain_rows(budget: &Budget) -> Vec<ExplainRow> {
    Benchmark::ALL
        .into_iter()
        .map(|bench| {
            let outcome = RunSpec {
                probes: Some(ProbeConfig {
                    interval: None,
                    explain: true,
                    ..ProbeConfig::default()
                }),
                ..single_cell(bench, Features::rec_rs_ru(), budget).spec(budget)
            }
            .run();
            let (stats, probes) = (outcome.stats, outcome.probes.expect("probes enabled"));
            let attr = probes.attribution.expect("attribution sink on");
            ExplainRow {
                bench,
                recycled: stats.recycled,
                reused: stats.reused,
                denied: attr.reuse_denied,
                fork_refused: stats.fork_refused(),
            }
        })
        .collect()
}

/// Abbreviates a `ReuseDeny` name so the text table stays narrow.
fn short_cause(name: &str) -> &str {
    match name {
        "reuse_disabled" => "disabled",
        "not_executed" => "not_exec",
        "chained_reuse" => "chained",
        "no_result" => "no_result",
        "regs_released" => "released",
        "source_overwritten" => "overwritten",
        "mem_invalidated" => "mem_inval",
        other => other,
    }
}

/// The figures [`figure_table`] knows, in render order.
pub const FIGURES: [&str; 6] = ["fig3", "fig4", "fig5", "fig6", "table1", "explain"];

/// Runs the named figure and returns its table; panics on a name not in
/// [`FIGURES`].
pub fn figure_table(name: &str, budget: &Budget) -> Table {
    match name {
        "fig3" => Fig3Row::table(&figure3(budget)),
        "fig4" => Fig4Row::table(&figure4(budget)),
        "fig5" => Fig5Row::table(&figure5(budget)),
        "fig6" => Fig6Row::table(&figure6(budget)),
        "table1" => Table1Row::table(&table1(budget)),
        "explain" => ExplainRow::table(&explain_rows(budget)),
        other => panic!("unknown figure {other:?} (expected one of {FIGURES:?})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_figure3_has_sane_shape() {
        let mut budget = Budget::quick();
        budget.committed_per_program = 2_000;
        let rows = figure3(&budget);
        assert_eq!(rows.len(), 8);
        for row in &rows {
            for v in row.ipc {
                assert!(v > 0.05, "{}: degenerate IPC {v}", row.bench);
            }
        }
        let text = Fig3Row::table(&rows).text();
        assert!(text.contains("compress"));
        assert!(text.contains("average"));
    }

    #[test]
    fn quick_explain_rows_reconcile() {
        let mut budget = Budget::quick();
        budget.committed_per_program = 2_000;
        let rows = explain_rows(&budget);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            let denied: u64 = r.denied.iter().sum();
            assert_eq!(
                denied,
                r.recycled - r.reused,
                "{}: denial taxonomy must cover every non-reused recycle",
                r.bench
            );
        }
        let table = ExplainRow::table(&rows);
        let text = table.text();
        assert!(text.contains("compress"));
        assert!(text.contains("yield%"));
        let csv = table.csv();
        assert!(csv.starts_with("bench,recycled,reused,yield_pct,reuse_disabled"));
    }

    #[test]
    fn quick_table1_reports_recycling() {
        let mut budget = Budget::quick();
        budget.committed_per_program = 2_000;
        let rows = table1(&budget);
        assert_eq!(rows.len(), 8 + 3);
        let avg = rows
            .iter()
            .find(|r| r.label == "1 prog avg")
            .expect("average row");
        assert!(
            avg.pct_recycled > 1.0,
            "recycling should be visible: {avg:?}"
        );
        let text = Table1Row::table(&rows).text();
        assert!(text.contains("4 progs avg"));
    }
}
