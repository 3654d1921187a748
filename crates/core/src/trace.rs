//! Pipeline tracing: compact per-cycle occupancy timelines.
//!
//! A [`CycleSample`] records, for one cycle, what each hardware context is
//! doing and how much work moved through the major stages. A
//! [`TimelineSink`] is a probe sink that keeps the samples of the last N
//! cycles of a run (attach it with
//! [`RunSpec::timeline`](crate::RunSpec::timeline)), and
//! [`TimelineSink::render`] turns them into a text chart — the quickest
//! way to *see* forking, draining, recycling streams, and starvation:
//!
//! ```text
//! cycle    ctx: 0        1        2        ...   fet ren com
//! 1000     P 37+s12  A 8       I 22        ...    8   16   9
//! ```
//!
//! Legend: `P` primary, `A` alternate (`a` once resolved), `D` draining,
//! `I` inactive, `.` idle; the number is live active-list entries; `+sN`
//! marks an active recycle stream with `N` instructions remaining.

use crate::context::CtxState;
use crate::probe::{CtxView, EventFilter, ProbeSink};
use crate::stats::Stats;
use std::collections::VecDeque;

/// A compact mirror of [`CtxState`] for display.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxStateKind {
    /// No path.
    Idle,
    /// The architectural path.
    Primary,
    /// A speculative alternate path (branch unresolved).
    Alternate,
    /// An alternate whose branch resolved (finishing its policy tail).
    AlternateResolved,
    /// A displaced primary committing its remainder.
    Draining,
    /// A retained, recyclable trace.
    Inactive,
}

impl CtxStateKind {
    /// Number of roles (the width of role-occupancy histograms).
    pub const COUNT: usize = 6;

    /// All roles, index-aligned with [`CtxStateKind::index`].
    pub const ALL: [CtxStateKind; CtxStateKind::COUNT] = [
        CtxStateKind::Idle,
        CtxStateKind::Primary,
        CtxStateKind::Alternate,
        CtxStateKind::AlternateResolved,
        CtxStateKind::Draining,
        CtxStateKind::Inactive,
    ];

    /// Classifies a full [`CtxState`] into its display role.
    pub fn of(state: CtxState) -> CtxStateKind {
        match state {
            CtxState::Idle => CtxStateKind::Idle,
            CtxState::Primary => CtxStateKind::Primary,
            CtxState::Alternate {
                resolved: false, ..
            } => CtxStateKind::Alternate,
            CtxState::Alternate { resolved: true, .. } => CtxStateKind::AlternateResolved,
            CtxState::Draining => CtxStateKind::Draining,
            CtxState::Inactive => CtxStateKind::Inactive,
        }
    }

    /// Dense index into role-occupancy histograms.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Human-readable role name (stats.json / Perfetto track labels).
    pub fn name(self) -> &'static str {
        match self {
            CtxStateKind::Idle => "idle",
            CtxStateKind::Primary => "primary",
            CtxStateKind::Alternate => "alternate",
            CtxStateKind::AlternateResolved => "alternate_resolved",
            CtxStateKind::Draining => "draining",
            CtxStateKind::Inactive => "inactive",
        }
    }

    /// One-character display form.
    pub fn glyph(self) -> char {
        match self {
            CtxStateKind::Idle => '.',
            CtxStateKind::Primary => 'P',
            CtxStateKind::Alternate => 'A',
            CtxStateKind::AlternateResolved => 'a',
            CtxStateKind::Draining => 'D',
            CtxStateKind::Inactive => 'I',
        }
    }
}

/// One cycle of pipeline activity.
#[derive(Debug, Clone)]
pub struct CycleSample {
    /// The cycle this sample describes.
    pub cycle: u64,
    /// Per-context activity at the end of the cycle.
    pub contexts: Vec<CtxView>,
    /// Instructions fetched this cycle.
    pub fetched: u64,
    /// Instructions renamed this cycle (including recycled).
    pub renamed: u64,
    /// ... of which recycled.
    pub recycled: u64,
    /// Instructions committed this cycle.
    pub committed: u64,
}

/// A probe sink keeping one [`CycleSample`] for each of the last N
/// cycles. Observes only, like every sink: a run's statistics are the
/// same with or without it.
#[derive(Debug)]
pub struct TimelineSink {
    cap: usize,
    samples: VecDeque<CycleSample>,
    /// Cumulative `[fetched, renamed, recycled, committed]` at the end of
    /// the previous cycle.
    last: [u64; 4],
}

impl TimelineSink {
    /// A sink keeping the last `cycles` cycles.
    pub fn new(cycles: u64) -> TimelineSink {
        TimelineSink {
            cap: usize::try_from(cycles).unwrap_or(usize::MAX),
            samples: VecDeque::new(),
            last: [0; 4],
        }
    }

    /// Renders the samples as a text timeline (one row per `stride`
    /// cycles, starting with the oldest).
    pub fn render(&self, stride: usize) -> String {
        let mut out = String::new();
        let Some(first) = self.samples.front() else {
            return out;
        };
        out.push_str(&format!("{:>8}  ", "cycle"));
        for i in 0..first.contexts.len() {
            out.push_str(&format!("{:<9}", format!("ctx{i}")));
        }
        out.push_str(" fet ren rec com\n");
        for sample in self.samples.iter().step_by(stride.max(1)) {
            out.push_str(&format!("{:>8}  ", sample.cycle));
            for c in &sample.contexts {
                let cell = if c.stream > 0 {
                    format!("{} {}+s{}", c.role.glyph(), c.live, c.stream)
                } else {
                    format!("{} {}", c.role.glyph(), c.live)
                };
                out.push_str(&format!("{cell:<9}"));
            }
            out.push_str(&format!(
                "{:>4}{:>4}{:>4}{:>4}\n",
                sample.fetched, sample.renamed, sample.recycled, sample.committed
            ));
        }
        out
    }
}

impl ProbeSink for TimelineSink {
    fn consumes(&self) -> EventFilter {
        EventFilter::none()
    }

    fn cycle_end(&mut self, cycle: u64, stats: &Stats, ctxs: &[CtxView]) {
        let now = [
            stats.fetched,
            stats.renamed,
            stats.recycled,
            stats.committed,
        ];
        let [fetched, renamed, recycled, committed] =
            std::array::from_fn(|i| now[i] - self.last[i]);
        self.last = now;
        if self.cap == 0 {
            return;
        }
        // Once full, the oldest sample's buffer is reused: no allocation
        // per cycle in steady state.
        let oldest = (self.samples.len() == self.cap).then(|| self.samples.pop_front());
        let mut contexts = oldest.flatten().map_or_else(Vec::new, |s| s.contexts);
        contexts.clear();
        contexts.extend_from_slice(ctxs);
        self.samples.push_back(CycleSample {
            cycle,
            contexts,
            fetched,
            renamed,
            recycled,
            committed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Features, SimConfig};
    use crate::RunSpec;
    use multipath_workload::{kernels, Benchmark};

    fn timeline_run(timeline: Option<u64>) -> crate::RunOutcome {
        RunSpec {
            timeline,
            ..RunSpec::new(
                SimConfig::big_2_16().with_features(Features::rec_rs_ru()),
                vec![kernels::build(Benchmark::Compress, 1)],
                2_000,
            )
        }
        .run()
    }

    fn deltas(s: &CycleSample) -> [u64; 5] {
        [s.cycle, s.fetched, s.renamed, s.recycled, s.committed]
    }

    #[test]
    fn sampling_tracks_work() {
        let plain = timeline_run(None);
        let full = timeline_run(Some(u64::MAX));
        let traced = timeline_run(Some(200));
        for outcome in [&full, &traced] {
            assert_eq!(
                outcome.stats.counters(),
                plain.stats.counters(),
                "the timeline must observe without perturbing"
            );
        }

        // A window longer than the run sees every cycle, so the per-cycle
        // deltas add up exactly to the final counters.
        let all = full.probes.unwrap().timeline.unwrap().samples;
        assert_eq!(all.len() as u64, plain.stats.cycles);
        assert!(all.iter().zip(1..).all(|(s, c)| s.cycle == c));
        let sum = |f: fn(&CycleSample) -> u64| all.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.fetched), plain.stats.fetched);
        assert_eq!(sum(|s| s.renamed), plain.stats.renamed);
        assert_eq!(sum(|s| s.recycled), plain.stats.recycled);
        assert_eq!(sum(|s| s.committed), plain.stats.committed);

        // The 200-cycle window is exactly the tail of the full timeline.
        let samples = traced.probes.unwrap().timeline.unwrap().samples;
        assert_eq!(samples.len(), 200);
        assert_eq!(
            samples.iter().map(deltas).collect::<Vec<_>>(),
            all.iter()
                .skip(all.len() - 200)
                .map(deltas)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            samples[199].cycle, plain.stats.cycles,
            "ends at the last cycle"
        );
        let committed: u64 = samples.iter().map(|s| s.committed).sum();
        assert!(committed > 0 && committed <= plain.stats.committed);
        assert!(samples.iter().any(|s| s.fetched > 0));
        assert!(
            samples
                .iter()
                .any(|s| s.contexts.iter().any(|c| c.role != CtxStateKind::Idle)),
            "something must be running"
        );
        assert!(
            (samples.iter().zip(all.iter().skip(all.len() - 200)))
                .all(|(a, b)| a.contexts == b.contexts),
            "reused buffers hold the right cycle's contexts"
        );
    }

    #[test]
    fn timeline_renders() {
        let outcome = RunSpec {
            timeline: Some(64),
            ..RunSpec::new(
                SimConfig::big_2_16().with_features(Features::rec_rs_ru()),
                vec![kernels::build(Benchmark::Go, 1)],
                1_000,
            )
        }
        .run();
        let text = outcome.probes.unwrap().timeline.unwrap().render(8);
        assert!(text.contains("ctx0"));
        assert_eq!(text.lines().count(), 1 + 64 / 8);
    }

    #[test]
    fn role_indices_are_dense_and_aligned() {
        for (i, role) in CtxStateKind::ALL.iter().enumerate() {
            assert_eq!(role.index(), i);
        }
        let mut names: Vec<&str> = CtxStateKind::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CtxStateKind::COUNT);
    }

    #[test]
    fn glyphs_are_distinct() {
        let all = [
            CtxStateKind::Idle,
            CtxStateKind::Primary,
            CtxStateKind::Alternate,
            CtxStateKind::AlternateResolved,
            CtxStateKind::Draining,
            CtxStateKind::Inactive,
        ];
        let mut glyphs: Vec<char> = all.iter().map(|k| k.glyph()).collect();
        glyphs.sort_unstable();
        glyphs.dedup();
        assert_eq!(glyphs.len(), all.len());
    }
}
