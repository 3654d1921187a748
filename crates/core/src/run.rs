//! The one way to build and run a simulation. The figure harness, the
//! CLI, and the serving layer all describe their runs as a [`RunSpec`],
//! so they share one commit budget rule and one cycle cap — which is why
//! `multipath serve` answers byte-for-byte what
//! `multipath trace --stats-out` writes.

use crate::cancel::CancelToken;
use crate::config::SimConfig;
use crate::probe::{ProbeConfig, Probes, StageProfile};
use crate::sim::Simulator;
use crate::stats::Stats;
use crate::trace::TimelineSink;
use multipath_workload::Program;

/// One simulation to run: machine, workload, budget, and what to observe.
/// Build one with [`RunSpec::new`] and override fields with struct-update
/// syntax (the [crate-level example](crate) shows a plain run).
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The machine model.
    pub config: SimConfig,
    /// The co-scheduled programs, one context group each.
    pub programs: Vec<Program>,
    /// Committed instructions per program. The run stops once all
    /// programs together have committed [`RunSpec::total_commits`].
    pub commits: u64,
    /// Hard cycle cap; `None` means [`RunSpec::cycle_cap`]'s default.
    pub max_cycles: Option<u64>,
    /// Observability sinks to attach (`None`: the bare hot path).
    pub probes: Option<ProbeConfig>,
    /// Accumulate host wall time per pipeline stage.
    pub profile: bool,
    /// Cooperative cancellation (deadlines, shutdown).
    pub cancel: Option<CancelToken>,
    /// Keep a per-cycle timeline of the last N cycles of the run (in
    /// [`Probes::timeline`]).
    pub timeline: Option<u64>,
}

/// What a finished (or cancelled) run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Final statistics (path records flushed).
    pub stats: Stats,
    /// The attached sinks, closed, when the spec asked for probes or a
    /// timeline.
    pub probes: Option<Probes>,
    /// The host stage profile, when the spec asked for one.
    pub profile: Option<StageProfile>,
    /// Whether the cancel token stopped the run before its budget.
    pub cancelled: bool,
}

impl RunSpec {
    /// A run of `programs` on `config` to `commits` instructions per
    /// program, with the default cycle cap and nothing attached.
    pub fn new(config: SimConfig, programs: Vec<Program>, commits: u64) -> RunSpec {
        RunSpec {
            config,
            programs,
            commits,
            max_cycles: None,
            probes: None,
            profile: false,
            cancel: None,
            timeline: None,
        }
    }

    /// The commit target across all programs; saturates rather than
    /// wrapping for huge per-program budgets.
    pub fn total_commits(&self) -> u64 {
        self.commits.saturating_mul(self.programs.len() as u64)
    }

    /// The cycle cap: [`RunSpec::max_cycles`] if set, else 100 cycles per
    /// committed instruction with a floor of one million — a guard
    /// against runs that stop making progress, not a budget.
    pub fn cycle_cap(&self) -> u64 {
        self.max_cycles
            .unwrap_or_else(|| self.total_commits().saturating_mul(100).max(1_000_000))
    }

    /// Builds the simulator, runs it to the budget, and closes the sinks.
    /// Panics where [`Simulator::new`] does.
    pub fn run(self) -> RunOutcome {
        let (total, cap) = (self.total_commits(), self.cycle_cap());
        let mut sim = Simulator::new(self.config, self.programs);
        if self.probes.is_some() || self.timeline.is_some() {
            let mut probes = Probes::new(self.probes.unwrap_or_default());
            probes.timeline = self.timeline.map(TimelineSink::new);
            sim.attach_probes(probes);
        }
        sim.host_prof = self.profile.then(StageProfile::default);
        sim.cancel = self.cancel;
        sim.run(total, cap);
        let cancelled = sim.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        sim.finish_probes();
        RunOutcome {
            probes: sim.take_probes().map(|p| *p),
            profile: sim.host_prof.take(),
            stats: std::mem::take(&mut sim.stats),
            cancelled,
        }
    }
}
