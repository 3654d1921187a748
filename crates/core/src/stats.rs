//! Simulation statistics: everything needed for the paper's figures
//! (IPC) and Table 1 (recycling statistics).

/// Aggregate counters for one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Useful (committed) instructions, all programs.
    pub committed: u64,
    /// Committed instructions per program.
    pub committed_per_program: Vec<u64>,
    /// Instructions inserted into the rename stage (including ones later
    /// squashed) — the denominator of Table 1's first two columns.
    pub renamed: u64,
    /// Renamed instructions that arrived via the recycle datapath.
    pub recycled: u64,
    /// Renamed instructions whose results were reused (no execution).
    pub reused: u64,
    /// Instructions fetched from the instruction cache.
    pub fetched: u64,
    /// Instructions squashed after rename.
    pub squashed: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub mispredicts: u64,
    /// Mispredicted branches whose alternate path was live (covered by a
    /// speculative fork) — numerator of "Branch Miss Cov".
    pub mispredicts_covered: u64,
    /// Paths forked (TME spawns, including re-spawns of fresh paths but
    /// not re-activations).
    pub forks: u64,
    /// Forked paths that became the primary (used by TME).
    pub forks_used_tme: u64,
    /// Forked paths recycled from at least once.
    pub forks_recycled: u64,
    /// Forked paths re-spawned at least once.
    pub forks_respawned: u64,
    /// Re-spawn events.
    pub respawns: u64,
    /// Merge events (recycle streams started).
    pub merges: u64,
    /// Merge events that were backward-branch (primary-to-primary) merges.
    pub back_merges: u64,
    /// Sum over deleted alternate paths of (merges from that path); the
    /// denominator is `forks_recycled` ("Merges Per Alt Path" counts only
    /// paths that were recycled at least once, excluding back merges).
    pub alt_path_merge_sum: u64,
    /// Same-context (uncovered) misprediction recoveries.
    pub recoveries: u64,
    /// Cycles in which rename stalled for lack of physical registers.
    pub preg_stall_cycles: u64,
    /// Fork opportunities suppressed because a path with the same start
    /// address already existed (the REC design decision of Section 5.1).
    pub forks_suppressed: u64,
    /// Forked paths released before their branch resolved (pressure).
    pub forks_stolen: u64,
    /// Fork refusals: per-cycle fork limit reached.
    pub fork_refused_cap: u64,
    /// Fork refusals: no spare context available.
    pub fork_refused_nospare: u64,
    /// Low-confidence branches renamed (fork candidates).
    pub fork_candidates: u64,
    /// Conditional branches resolved that entered via recycling.
    pub branches_recycled: u64,
    /// ... of which mispredicted.
    pub mispredicts_recycled: u64,
}

/// Generates the fixed counter vector: `NUM_COUNTERS`, `COUNTER_NAMES`,
/// `counters()` and `add_counters()` stay in lockstep with the field list by construction,
/// so the stats.json schema and the interval time series can never drift
/// from the struct.
macro_rules! counter_vector {
    ($($field:ident),* $(,)?) => {
        impl Stats {
            /// Number of scalar counters in [`Stats::counters`].
            pub const NUM_COUNTERS: usize = [$(stringify!($field)),*].len();

            /// Counter names, index-aligned with [`Stats::counters`].
            pub const COUNTER_NAMES: [&'static str; Stats::NUM_COUNTERS] =
                [$(stringify!($field)),*];

            /// Every scalar counter as a fixed-order vector — the unit of
            /// the interval time series and the stats-drift gate.
            pub fn counters(&self) -> [u64; Stats::NUM_COUNTERS] {
                [$(self.$field),*]
            }

            /// Adds every scalar counter of `other` into `self` (sums
            /// across runs; the per-program vector is left alone).
            pub fn add_counters(&mut self, other: &Stats) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

counter_vector!(
    cycles,
    committed,
    renamed,
    recycled,
    reused,
    fetched,
    squashed,
    branches,
    mispredicts,
    mispredicts_covered,
    forks,
    forks_used_tme,
    forks_recycled,
    forks_respawned,
    respawns,
    merges,
    back_merges,
    alt_path_merge_sum,
    recoveries,
    preg_stall_cycles,
    forks_suppressed,
    forks_stolen,
    fork_refused_cap,
    fork_refused_nospare,
    fork_candidates,
    branches_recycled,
    mispredicts_recycled,
);

impl Stats {
    /// Creates zeroed statistics for `programs` programs.
    pub fn new(programs: usize) -> Stats {
        Stats {
            committed_per_program: vec![0; programs],
            ..Stats::default()
        }
    }

    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    fn pct(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    }

    /// Table 1 column: % of renamed instructions that were recycled.
    pub fn pct_recycled(&self) -> f64 {
        Stats::pct(self.recycled, self.renamed)
    }

    /// Table 1 column: % of renamed instructions that were reused.
    pub fn pct_reused(&self) -> f64 {
        Stats::pct(self.reused, self.renamed)
    }

    /// Table 1 column: % of mispredicted branches covered by a fork.
    pub fn pct_miss_covered(&self) -> f64 {
        Stats::pct(self.mispredicts_covered, self.mispredicts)
    }

    /// Table 1 column: % of forks used by TME (alternate became primary).
    pub fn pct_forks_tme(&self) -> f64 {
        Stats::pct(self.forks_used_tme, self.forks)
    }

    /// Table 1 column: % of forks recycled at least once.
    pub fn pct_forks_recycled(&self) -> f64 {
        Stats::pct(self.forks_recycled, self.forks)
    }

    /// Table 1 column: % of forks re-spawned at least once.
    pub fn pct_forks_respawned(&self) -> f64 {
        Stats::pct(self.forks_respawned, self.forks)
    }

    /// Table 1 column: average merges per recycled alternate path.
    pub fn merges_per_alt_path(&self) -> f64 {
        if self.forks_recycled == 0 {
            0.0
        } else {
            self.alt_path_merge_sum as f64 / self.forks_recycled as f64
        }
    }

    /// Table 1 column: % of all merges that were backward-branch merges.
    pub fn pct_back_merges(&self) -> f64 {
        Stats::pct(self.back_merges, self.merges)
    }

    /// Total fork refusals across all causes (per-cycle cap, no spare
    /// context, duplicate path) — the denominator the explain layer's
    /// refusal taxonomy reconciles against.
    pub fn fork_refused(&self) -> u64 {
        self.fork_refused_cap + self.fork_refused_nospare + self.forks_suppressed
    }

    /// Branch prediction accuracy (conditional branches).
    pub fn branch_accuracy(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            100.0 * (self.branches - self.mispredicts) as f64 / self.branches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(Stats::new(1).ipc(), 0.0);
    }

    #[test]
    fn percentages() {
        let s = Stats {
            cycles: 100,
            committed: 250,
            renamed: 1000,
            recycled: 268,
            reused: 60,
            branches: 200,
            mispredicts: 50,
            mispredicts_covered: 35,
            forks: 40,
            forks_used_tme: 6,
            forks_recycled: 13,
            forks_respawned: 4,
            merges: 100,
            back_merges: 44,
            alt_path_merge_sum: 22,
            ..Stats::new(1)
        };
        assert!((s.ipc() - 2.5).abs() < 1e-9);
        assert!((s.pct_recycled() - 26.8).abs() < 1e-9);
        assert!((s.pct_reused() - 6.0).abs() < 1e-9);
        assert!((s.pct_miss_covered() - 70.0).abs() < 1e-9);
        assert!((s.pct_forks_tme() - 15.0).abs() < 1e-9);
        assert!((s.pct_forks_recycled() - 32.5).abs() < 1e-9);
        assert!((s.pct_forks_respawned() - 10.0).abs() < 1e-9);
        assert!((s.merges_per_alt_path() - 22.0 / 13.0).abs() < 1e-9);
        assert!((s.pct_back_merges() - 44.0).abs() < 1e-9);
        assert!((s.branch_accuracy() - 75.0).abs() < 1e-9);
    }

    #[test]
    fn counter_vector_is_aligned_with_names() {
        let mut s = Stats::new(1);
        s.cycles = 7;
        s.mispredicts_recycled = 9;
        let v = s.counters();
        assert_eq!(v.len(), Stats::NUM_COUNTERS);
        assert_eq!(Stats::COUNTER_NAMES.len(), Stats::NUM_COUNTERS);
        assert_eq!(Stats::COUNTER_NAMES[0], "cycles");
        assert_eq!(v[0], 7);
        assert_eq!(
            *Stats::COUNTER_NAMES.last().unwrap(),
            "mispredicts_recycled"
        );
        assert_eq!(*v.last().unwrap(), 9);
    }

    #[test]
    fn fork_refused_sums_all_three_causes() {
        let s = Stats {
            fork_refused_cap: 3,
            fork_refused_nospare: 5,
            forks_suppressed: 7,
            ..Stats::new(1)
        };
        assert_eq!(s.fork_refused(), 15);
    }

    #[test]
    fn zero_denominators_do_not_divide() {
        let s = Stats::new(2);
        assert_eq!(s.pct_recycled(), 0.0);
        assert_eq!(s.pct_miss_covered(), 0.0);
        assert_eq!(s.merges_per_alt_path(), 0.0);
        assert_eq!(s.branch_accuracy(), 0.0);
        assert_eq!(s.committed_per_program.len(), 2);
    }
}
