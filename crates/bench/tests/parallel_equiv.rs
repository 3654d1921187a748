//! Serial-vs-parallel equivalence: the sweep engine must be a pure
//! scheduling change. Every statistic of every cell, and therefore every
//! rendered table, must be bit-identical whether cells run on one worker
//! or many.

use multipath_bench::{parallel, run_cell, Budget, Cell, Fig3Row};
use multipath_core::{Features, SimConfig};
use multipath_workload::{mix, Benchmark};

fn tiny_budget() -> Budget {
    let mut b = Budget::quick();
    b.committed_per_program = 1_500;
    b
}

fn sweep_cells(budget: &Budget) -> Vec<Cell> {
    let mut cells = Vec::new();
    for bench in [Benchmark::Compress, Benchmark::Go, Benchmark::Tomcatv] {
        for features in [Features::smt(), Features::rec_rs_ru()] {
            cells.push(Cell {
                config: SimConfig::big_2_16().with_features(features),
                workload: vec![bench],
                seed: budget.seed,
            });
        }
    }
    cells.push(Cell {
        config: SimConfig::big_2_16().with_features(Features::rec_rs_ru()),
        workload: mix::rotations(4)[0].clone(),
        seed: budget.seed,
    });
    cells
}

#[test]
fn run_cell_results_are_identical_across_thread_counts() {
    let budget = tiny_budget();
    let cells = sweep_cells(&budget);
    let serial = parallel::map_with(1, &cells, |c| run_cell(c, &budget));
    for threads in [2usize, 4, 8] {
        let sharded = parallel::map_with(threads, &cells, |c| run_cell(c, &budget));
        // Stats is plain data with a derived Debug covering every counter;
        // equal Debug output means equal statistics.
        for (i, (a, b)) in serial.iter().zip(&sharded).enumerate() {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "cell {i} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn rendered_tables_are_byte_identical_across_thread_counts() {
    let budget = tiny_budget();
    let benches = [Benchmark::Compress, Benchmark::Li];
    let cells: Vec<Cell> = benches
        .iter()
        .flat_map(|&bench| {
            Features::all_six().into_iter().map(move |features| Cell {
                config: SimConfig::big_2_16().with_features(features),
                workload: vec![bench],
                seed: budget.seed,
            })
        })
        .collect();
    let render = |stats: &[multipath_core::Stats]| {
        let rows: Vec<Fig3Row> = benches
            .iter()
            .enumerate()
            .map(|(bi, &bench)| {
                let mut ipc = [0.0; 6];
                for (fi, v) in ipc.iter_mut().enumerate() {
                    *v = stats[bi * 6 + fi].ipc();
                }
                Fig3Row { bench, ipc }
            })
            .collect();
        Fig3Row::table(&rows).text()
    };
    let serial = render(&parallel::map_with(1, &cells, |c| run_cell(c, &budget)));
    let sharded = render(&parallel::map_with(6, &cells, |c| run_cell(c, &budget)));
    assert_eq!(
        serial, sharded,
        "rendered Figure 3 must not depend on thread count"
    );
}
