//! Probes observe, never perturb: every Figure-3 cell simulates exactly
//! the same with the full probe stack on — event ring, interval series,
//! span recorder, explain sinks, timeline and host profiling — as with
//! probes off.

use multipath_bench::{figure3_cells, parallel, Budget, Cell};
use multipath_core::{EventFilter, ProbeConfig, RunSpec};

fn fully_probed(cell: &Cell, budget: &Budget) -> RunSpec {
    RunSpec {
        probes: Some(ProbeConfig {
            ring: Some(1024),
            interval: Some(100),
            spans: true,
            explain: true,
            filter: EventFilter::all(),
        }),
        profile: true,
        timeline: Some(64),
        ..cell.spec(budget)
    }
}

#[test]
fn the_full_probe_stack_leaves_every_figure3_cell_unchanged() {
    let mut budget = Budget::quick();
    budget.committed_per_program = 1_000;
    let cells = figure3_cells(&budget);
    assert_eq!(cells.len(), 48);
    let plain = parallel::map_with(2, &cells, |c| c.spec(&budget).run().stats);
    let probed = parallel::map_with(2, &cells, |c| fully_probed(c, &budget).run().stats);
    for ((cell, a), b) in cells.iter().zip(&plain).zip(&probed) {
        assert_eq!(
            a.counters(),
            b.counters(),
            "{} under {}",
            cell.workload[0].name(),
            cell.config.features.label()
        );
    }
}
