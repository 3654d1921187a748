//! Cause attribution and path-lifecycle explainability (`multipath
//! explain`): turns the probe event stream into *why*-level tables.
//!
//! Three layers, all fed from the same [`Event`] stream the other sinks
//! see (so they cost nothing unless `ProbeConfig::explain` is set):
//!
//! * [`AttributionSink`] — exact aggregation of the reuse-denial taxonomy
//!   ([`ReuseDeny`]), fork-refusal causes ([`RefuseReason`]), per-class
//!   rename/recycle/reuse/commit histograms, a per-static-branch table
//!   (fork rate, coverage, confidence), and per-PC squash cost. Every
//!   bucket reconciles with the aggregate [`Stats`] counters: the deny
//!   buckets sum to `recycled − reused`, the refusal buckets to the three
//!   `fork_refused_*`/`forks_suppressed` counters, the class histograms
//!   to `renamed`/`recycled`/`reused`/`committed`, and the branch table
//!   to `branches`/`mispredicts`/`mispredicts_covered`/`forks`/`respawns`.
//! * [`PathTreeSink`] — reconstructs the TME path DAG (fork/respawn
//!   parentage plus merge edges with instruction counts and reuse-stream
//!   annotations) and exports it as Graphviz DOT or an ASCII tree.
//! * [`explain_json`] / [`explain_markdown`] — a versioned
//!   machine-readable document (`multipath-explain/v1`) and a human
//!   report, regenerated alongside the fig3–fig6/table1 harness.

use crate::probe::{json_str_array, json_u64_array};
use crate::probe::{Event, EventFilter, EventKind, InstClass, ProbeSink, RefuseReason, ReuseDeny};
use crate::stats::Stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-static-branch attribution: everything the explain layer knows
/// about one branch PC.
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchRow {
    /// Conditional-branch resolutions at this PC.
    pub resolves: u64,
    /// Mispredicted resolutions (conditional or jump).
    pub mispredicts: u64,
    /// ... of which were covered by a live alternate path.
    pub covered: u64,
    /// Alternate paths forked at this PC.
    pub forks: u64,
    /// Inactive traces re-spawned at this PC.
    pub respawns: u64,
    /// Fork opportunities declined, by [`RefuseReason::index`].
    pub refused: [u64; RefuseReason::COUNT],
    /// Sum of the JRS confidence counter over `resolves` (for the mean).
    pub conf_sum: u64,
}

impl BranchRow {
    /// Fork opportunities seen at this PC (taken + refused).
    pub fn fork_attempts(&self) -> u64 {
        self.forks + self.respawns + self.refused.iter().sum::<u64>()
    }

    /// Mean JRS confidence counter at resolution time.
    pub fn avg_confidence(&self) -> f64 {
        if self.resolves == 0 {
            0.0
        } else {
            self.conf_sum as f64 / self.resolves as f64
        }
    }

    /// Prediction accuracy at this PC (conditional resolves only).
    pub fn accuracy(&self) -> f64 {
        if self.resolves == 0 {
            0.0
        } else {
            100.0 * (self.resolves.saturating_sub(self.mispredicts)) as f64 / self.resolves as f64
        }
    }
}

/// Squash cost charged to the PC of the first squashed instruction.
#[derive(Debug, Clone, Copy, Default)]
pub struct SquashSite {
    /// Squash events starting at this PC.
    pub events: u64,
    /// Instructions squashed by those events.
    pub instructions: u64,
}

/// Aggregates the event stream into exact attribution tables.
#[derive(Debug, Default)]
pub struct AttributionSink {
    /// Reuse-denial taxonomy, by [`ReuseDeny::index`]; sums to
    /// `recycled − reused`.
    pub reuse_denied: [u64; ReuseDeny::COUNT],
    /// The same taxonomy split by instruction class (class-major).
    pub reuse_denied_by_class: [[u64; ReuseDeny::COUNT]; InstClass::COUNT],
    /// Renamed instructions per class; sums to `Stats::renamed`.
    pub renamed_by_class: [u64; InstClass::COUNT],
    /// ... of which recycled; sums to `Stats::recycled`.
    pub recycled_by_class: [u64; InstClass::COUNT],
    /// ... of which reused; sums to `Stats::reused`.
    pub reused_by_class: [u64; InstClass::COUNT],
    /// Committed instructions per class; sums to `Stats::committed`.
    pub committed_by_class: [u64; InstClass::COUNT],
    /// Fork refusals by [`RefuseReason::index`]; reconciles with
    /// `fork_refused_cap` / `fork_refused_nospare` / `forks_suppressed`.
    pub fork_refused: [u64; RefuseReason::COUNT],
    /// Rename stalls observed; equals `Stats::preg_stall_cycles`.
    pub preg_stalls: u64,
    /// Alternate-to-primary promotions; equals `mispredicts_covered`.
    pub promotes: u64,
    /// Per-static-branch table, keyed by PC.
    pub branches: BTreeMap<u64, BranchRow>,
    /// Per-PC squash cost; instruction sums equal `Stats::squashed`.
    pub squashes: BTreeMap<u64, SquashSite>,
}

impl AttributionSink {
    /// Total reuse denials across all causes.
    pub fn reuse_denied_total(&self) -> u64 {
        self.reuse_denied.iter().sum()
    }

    /// Total fork refusals across all reasons.
    pub fn fork_refused_total(&self) -> u64 {
        self.fork_refused.iter().sum()
    }

    /// The branch table's `n` most active rows (by fork attempts, then
    /// resolves, then PC) — "the branches that earn or waste recycling".
    pub fn top_branches(&self, n: usize) -> Vec<(u64, BranchRow)> {
        let mut rows: Vec<(u64, BranchRow)> =
            self.branches.iter().map(|(&pc, &r)| (pc, r)).collect();
        rows.sort_by(|a, b| {
            (b.1.fork_attempts(), b.1.resolves, a.0).cmp(&(a.1.fork_attempts(), a.1.resolves, b.0))
        });
        rows.truncate(n);
        rows
    }

    /// The `n` most expensive squash sites (by instructions, then PC).
    pub fn top_squashes(&self, n: usize) -> Vec<(u64, SquashSite)> {
        let mut rows: Vec<(u64, SquashSite)> =
            self.squashes.iter().map(|(&pc, &s)| (pc, s)).collect();
        rows.sort_by(|a, b| (b.1.instructions, a.0).cmp(&(a.1.instructions, b.0)));
        rows.truncate(n);
        rows
    }

    /// Total squashed instructions across all sites.
    pub fn squashed_total(&self) -> u64 {
        self.squashes.values().map(|s| s.instructions).sum()
    }
}

impl ProbeSink for AttributionSink {
    fn consumes(&self) -> EventFilter {
        EventFilter::of(&[
            EventKind::RENAME,
            EventKind::RECYCLE,
            EventKind::REUSE,
            EventKind::COMMIT,
            EventKind::REUSE_DENIED,
            EventKind::RESOLVE,
            EventKind::FORK,
            EventKind::RESPAWN,
            EventKind::FORK_REFUSED,
            EventKind::SQUASH,
            EventKind::PREG_STALL,
            EventKind::PROMOTE,
        ])
    }

    fn event(&mut self, ev: &Event) {
        match ev.kind {
            EventKind::Rename { class } => self.renamed_by_class[class.index()] += 1,
            EventKind::Recycle { class } => {
                self.renamed_by_class[class.index()] += 1;
                self.recycled_by_class[class.index()] += 1;
            }
            EventKind::Reuse { class } => {
                self.renamed_by_class[class.index()] += 1;
                self.recycled_by_class[class.index()] += 1;
                self.reused_by_class[class.index()] += 1;
            }
            EventKind::Commit { class } => self.committed_by_class[class.index()] += 1,
            EventKind::ReuseDenied { class, cause } => {
                self.reuse_denied[cause.index()] += 1;
                self.reuse_denied_by_class[class.index()][cause.index()] += 1;
            }
            EventKind::Resolve {
                mispredicted,
                covered,
                cond,
                conf,
            } => {
                let row = self.branches.entry(ev.pc).or_default();
                if cond {
                    row.resolves += 1;
                    row.conf_sum += conf as u64;
                }
                if mispredicted {
                    row.mispredicts += 1;
                    if covered {
                        row.covered += 1;
                    }
                }
            }
            EventKind::Fork { .. } => self.branches.entry(ev.pc).or_default().forks += 1,
            EventKind::Respawn { .. } => self.branches.entry(ev.pc).or_default().respawns += 1,
            EventKind::ForkRefused { reason } => {
                self.fork_refused[reason.index()] += 1;
                self.branches.entry(ev.pc).or_default().refused[reason.index()] += 1;
            }
            EventKind::Squash { count } => {
                let site = self.squashes.entry(ev.pc).or_default();
                site.events += 1;
                site.instructions += count;
            }
            EventKind::PregStall => self.preg_stalls += 1,
            EventKind::Promote { .. } => self.promotes += 1,
            EventKind::Fetch { .. }
            | EventKind::Issue { .. }
            | EventKind::Merge { .. }
            | EventKind::BackMerge { .. } => {}
        }
    }
}

/// How a path node came to exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathNodeKind {
    /// A primary path observed from the start of the trace (no fork seen).
    Root,
    /// Forked as a speculative alternate.
    Fork,
    /// Re-spawned from an inactive trace's replay buffer.
    Respawn,
}

impl PathNodeKind {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PathNodeKind::Root => "root",
            PathNodeKind::Fork => "fork",
            PathNodeKind::Respawn => "respawn",
        }
    }
}

/// One path (one occupancy of a hardware context) in the reconstructed
/// path DAG.
#[derive(Debug, Clone)]
pub struct PathNode {
    /// The hardware context the path lived in.
    pub ctx: u8,
    /// The node that forked this path (fork-tree parent), if known.
    pub parent: Option<usize>,
    /// How the path was created.
    pub kind: PathNodeKind,
    /// Fork/respawn point PC (0 for roots).
    pub fork_pc: u64,
    /// Cycle the path was created (0 for roots seen lazily).
    pub born_cycle: u64,
    /// Cycle the path's context was re-occupied, if that happened.
    pub end_cycle: Option<u64>,
    /// Instructions renamed on this path.
    pub renamed: u64,
    /// ... of which arrived via the recycle datapath.
    pub recycled: u64,
    /// ... of which were reused outright.
    pub reused: u64,
    /// Instructions squashed on this path.
    pub squashed: u64,
    /// Backward-branch self-merges taken on this path.
    pub back_merges: u64,
    /// Instructions covered by those back-merges.
    pub back_merge_insts: u64,
    /// Whether the path was promoted to primary (used by TME).
    pub promoted: bool,
    /// Fork-tree children (node indices), creation order.
    pub children: Vec<usize>,
}

/// One recycle-stream merge edge of the path DAG.
#[derive(Debug, Clone, Copy)]
pub struct MergeEdge {
    /// Source node (the path whose trace is consumed).
    pub from: usize,
    /// Target node (the path renaming from the stream).
    pub to: usize,
    /// Cycle the stream started.
    pub cycle: u64,
    /// Instructions covered by the stream.
    pub len: u64,
    /// Whether the stream was reuse-capable.
    pub reuse: bool,
}

/// Bound on recorded path nodes; beyond it the recorder saturates (keeps
/// counting on existing nodes, stops creating new ones) so pathological
/// runs stay bounded. Generous for any quick/full-budget kernel.
const NODE_CAP: usize = 65_536;

/// Reconstructs the fork/merge/squash path DAG from the event stream.
#[derive(Debug, Default)]
pub struct PathTreeSink {
    nodes: Vec<PathNode>,
    edges: Vec<MergeEdge>,
    /// Current node per hardware context.
    cur: Vec<Option<usize>>,
    saturated: bool,
    finished_at: u64,
}

impl PathTreeSink {
    /// An empty recorder.
    pub fn new() -> PathTreeSink {
        PathTreeSink::default()
    }

    /// The recorded nodes, creation order.
    pub fn nodes(&self) -> &[PathNode] {
        &self.nodes
    }

    /// The recorded merge edges, time order.
    pub fn edges(&self) -> &[MergeEdge] {
        &self.edges
    }

    /// Whether the node cap was hit (counts beyond it are partial).
    pub fn saturated(&self) -> bool {
        self.saturated
    }

    /// Closes the recording at `cycle` (call once, after the run).
    pub fn finish(&mut self, cycle: u64) {
        self.finished_at = cycle;
    }

    fn slot(&mut self, ctx: u8) -> &mut Option<usize> {
        let i = ctx as usize;
        if self.cur.len() <= i {
            self.cur.resize(i + 1, None);
        }
        &mut self.cur[i]
    }

    /// The current node for `ctx`, lazily creating a root.
    fn node_of(&mut self, ctx: u8, cycle: u64) -> Option<usize> {
        if let Some(id) = *self.slot(ctx) {
            return Some(id);
        }
        let id = self.push_node(PathNode {
            ctx,
            parent: None,
            kind: PathNodeKind::Root,
            fork_pc: 0,
            born_cycle: cycle,
            end_cycle: None,
            renamed: 0,
            recycled: 0,
            reused: 0,
            squashed: 0,
            back_merges: 0,
            back_merge_insts: 0,
            promoted: false,
            children: Vec::new(),
        })?;
        *self.slot(ctx) = Some(id);
        Some(id)
    }

    fn push_node(&mut self, node: PathNode) -> Option<usize> {
        if self.nodes.len() >= NODE_CAP {
            self.saturated = true;
            return None;
        }
        self.nodes.push(node);
        Some(self.nodes.len() - 1)
    }

    fn spawn(&mut self, kind: PathNodeKind, parent_ctx: u8, alt: u8, pc: u64, cycle: u64) {
        let parent = self.node_of(parent_ctx, cycle);
        // The alternate context's previous occupant (if any) is over.
        if let Some(old) = *self.slot(alt) {
            self.nodes[old].end_cycle = Some(cycle);
        }
        let id = self.push_node(PathNode {
            ctx: alt,
            parent,
            kind,
            fork_pc: pc,
            born_cycle: cycle,
            end_cycle: None,
            renamed: 0,
            recycled: 0,
            reused: 0,
            squashed: 0,
            back_merges: 0,
            back_merge_insts: 0,
            promoted: false,
            children: Vec::new(),
        });
        *self.slot(alt) = id;
        if let (Some(p), Some(c)) = (parent, id) {
            self.nodes[p].children.push(c);
        }
    }

    /// Aggregated merge edges: `(from, to, reuse) → (count, instructions)`.
    pub fn merge_summary(&self) -> BTreeMap<(usize, usize, bool), (u64, u64)> {
        let mut sum = BTreeMap::new();
        for e in &self.edges {
            let cell = sum.entry((e.from, e.to, e.reuse)).or_insert((0u64, 0u64));
            cell.0 += 1;
            cell.1 += e.len;
        }
        sum
    }

    /// Node counts by kind: `(roots, forks, respawns, promoted)`.
    pub fn kind_counts(&self) -> (u64, u64, u64, u64) {
        let mut c = (0u64, 0u64, 0u64, 0u64);
        for n in &self.nodes {
            match n.kind {
                PathNodeKind::Root => c.0 += 1,
                PathNodeKind::Fork => c.1 += 1,
                PathNodeKind::Respawn => c.2 += 1,
            }
            if n.promoted {
                c.3 += 1;
            }
        }
        c
    }

    fn label(&self, id: usize) -> String {
        let n = &self.nodes[id];
        let at = if n.kind == PathNodeKind::Root {
            String::new()
        } else {
            format!("@{:#x}", n.fork_pc)
        };
        format!("#{id} ctx{} {}{at}", n.ctx, n.kind.name())
    }

    /// Graphviz DOT export: solid edges are fork parentage, dashed edges
    /// are (aggregated) recycle-stream merges labelled with merge count,
    /// instruction total, and reuse capability. Promoted paths are drawn
    /// with a double border.
    pub fn dot(&self) -> String {
        let mut out = String::from("digraph multipath {\n  rankdir=LR;\n  node [shape=box];\n");
        for (id, n) in self.nodes.iter().enumerate() {
            let peripheries = if n.promoted { 2 } else { 1 };
            let _ = writeln!(
                out,
                "  n{id} [label=\"{}\\nrenamed {} (recycled {}, reused {})\\nsquashed {}\"\
                 , peripheries={peripheries}];",
                self.label(id),
                n.renamed,
                n.recycled,
                n.reused,
                n.squashed
            );
        }
        for (id, n) in self.nodes.iter().enumerate() {
            for &c in &n.children {
                let _ = writeln!(
                    out,
                    "  n{id} -> n{c} [label=\"{}@{:#x}\"];",
                    self.nodes[c].kind.name(),
                    self.nodes[c].fork_pc
                );
            }
        }
        for (&(from, to, reuse), &(count, insts)) in &self.merge_summary() {
            let tag = if reuse { ", reuse" } else { "" };
            let _ = writeln!(
                out,
                "  n{from} -> n{to} [style=dashed, label=\"{count} merge(s), {insts} insts{tag}\"];"
            );
        }
        out.push_str("}\n");
        out
    }

    /// ASCII rendering: the fork tree (one line per path, indented by
    /// parentage) followed by the aggregated merge edges.
    pub fn ascii(&self) -> String {
        let mut out = String::new();
        let roots: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent.is_none())
            .map(|(i, _)| i)
            .collect();
        // Explicit work stack: fork chains can be tens of thousands of
        // nodes deep (one per re-fork), far past the call-stack limit.
        let mut work: Vec<(usize, String, bool)> = roots
            .iter()
            .rev()
            .map(|&r| (r, String::new(), true))
            .collect();
        while let Some((id, prefix, last)) = work.pop() {
            self.ascii_node(&mut out, id, &prefix, last);
            let n = &self.nodes[id];
            let child_prefix = if prefix.is_empty() {
                "  ".to_owned()
            } else {
                format!("{prefix}{}", if last { "   " } else { "│  " })
            };
            for (i, &c) in n.children.iter().enumerate().rev() {
                work.push((c, child_prefix.clone(), i + 1 == n.children.len()));
            }
        }
        let merges = self.merge_summary();
        if !merges.is_empty() {
            out.push_str("merges:\n");
            for (&(from, to, reuse), &(count, insts)) in &merges {
                let tag = if reuse { " reuse" } else { "" };
                let _ = writeln!(
                    out,
                    "  {} -> {}: {count} merge(s), {insts} insts{tag}",
                    self.label(from),
                    self.label(to)
                );
            }
        }
        if self.saturated {
            out.push_str("(node cap reached; tree truncated)\n");
        }
        out
    }

    fn ascii_node(&self, out: &mut String, id: usize, prefix: &str, last: bool) {
        let n = &self.nodes[id];
        let connector = if prefix.is_empty() {
            ""
        } else if last {
            "└─ "
        } else {
            "├─ "
        };
        let promoted = if n.promoted { " [promoted]" } else { "" };
        let back = if n.back_merges > 0 {
            format!(
                " back_merges={} ({} insts)",
                n.back_merges, n.back_merge_insts
            )
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{prefix}{connector}{}  renamed={} recycled={} reused={} squashed={}{back}{promoted}",
            self.label(id),
            n.renamed,
            n.recycled,
            n.reused,
            n.squashed
        );
    }
}

impl ProbeSink for PathTreeSink {
    fn consumes(&self) -> EventFilter {
        EventFilter::of(&[
            EventKind::FORK,
            EventKind::RESPAWN,
            EventKind::PROMOTE,
            EventKind::MERGE,
            EventKind::BACK_MERGE,
            EventKind::RENAME,
            EventKind::RECYCLE,
            EventKind::REUSE,
            EventKind::SQUASH,
        ])
    }

    fn event(&mut self, ev: &Event) {
        match ev.kind {
            EventKind::Fork { alt } => self.spawn(PathNodeKind::Fork, ev.ctx, alt, ev.pc, ev.cycle),
            EventKind::Respawn { alt } => {
                self.spawn(PathNodeKind::Respawn, ev.ctx, alt, ev.pc, ev.cycle)
            }
            EventKind::Promote { alt } => {
                if let Some(id) = *self.slot(alt) {
                    self.nodes[id].promoted = true;
                }
            }
            EventKind::Merge { source, len, reuse } => {
                let from = self.node_of(source, ev.cycle);
                let to = self.node_of(ev.ctx, ev.cycle);
                if let (Some(from), Some(to)) = (from, to) {
                    self.edges.push(MergeEdge {
                        from,
                        to,
                        cycle: ev.cycle,
                        len,
                        reuse,
                    });
                }
            }
            EventKind::BackMerge { len } => {
                if let Some(id) = self.node_of(ev.ctx, ev.cycle) {
                    self.nodes[id].back_merges += 1;
                    self.nodes[id].back_merge_insts += len;
                }
            }
            EventKind::Rename { .. } => {
                if let Some(id) = self.node_of(ev.ctx, ev.cycle) {
                    self.nodes[id].renamed += 1;
                }
            }
            EventKind::Recycle { .. } => {
                if let Some(id) = self.node_of(ev.ctx, ev.cycle) {
                    self.nodes[id].renamed += 1;
                    self.nodes[id].recycled += 1;
                }
            }
            EventKind::Reuse { .. } => {
                if let Some(id) = self.node_of(ev.ctx, ev.cycle) {
                    self.nodes[id].renamed += 1;
                    self.nodes[id].recycled += 1;
                    self.nodes[id].reused += 1;
                }
            }
            EventKind::Squash { count } => {
                if let Some(id) = self.node_of(ev.ctx, ev.cycle) {
                    self.nodes[id].squashed += count;
                }
            }
            EventKind::Fetch { .. }
            | EventKind::Issue { .. }
            | EventKind::Commit { .. }
            | EventKind::Resolve { .. }
            | EventKind::PregStall
            | EventKind::ForkRefused { .. }
            | EventKind::ReuseDenied { .. } => {}
        }
    }
}

/// Renders the versioned explain document (`multipath-explain/v1`):
/// totals, the reuse-denial taxonomy (with per-class split), fork
/// refusals, per-class histograms, the top-N branch and squash tables,
/// the path-tree summary, and a reconciliation block stating the exact
/// identities the document satisfies against `stats`. Deterministic
/// byte-for-byte for a given run — the unit of the explain-drift gate.
pub fn explain_json(
    label: &str,
    features: &str,
    stats: &Stats,
    attr: &AttributionSink,
    tree: &PathTreeSink,
    top_n: usize,
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"schema\": \"multipath-explain/v1\",\n");
    let _ = writeln!(out, "  \"label\": \"{label}\",");
    let _ = writeln!(out, "  \"features\": \"{features}\",");
    out.push_str("  \"totals\": {");
    let totals: [(&str, u64); 12] = [
        ("renamed", stats.renamed),
        ("recycled", stats.recycled),
        ("reused", stats.reused),
        ("recycled_not_reused", stats.recycled - stats.reused),
        ("fork_candidates", stats.fork_candidates),
        ("forks", stats.forks),
        ("respawns", stats.respawns),
        ("fork_refused", stats.fork_refused()),
        ("mispredicts", stats.mispredicts),
        ("mispredicts_covered", stats.mispredicts_covered),
        ("squashed", stats.squashed),
        ("preg_stall_cycles", stats.preg_stall_cycles),
    ];
    for (i, (name, v)) in totals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{name}\": {v}");
    }
    out.push_str("\n  },\n  \"reuse_denied\": {\n    \"cause_names\": ");
    json_str_array(&mut out, ReuseDeny::ALL.iter().map(|d| d.name()));
    out.push_str(",\n    \"counts\": ");
    json_u64_array(&mut out, attr.reuse_denied.iter().copied());
    out.push_str(",\n    \"by_class\": [");
    for (i, row) in attr.reuse_denied_by_class.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_u64_array(&mut out, row.iter().copied());
    }
    out.push_str("]\n  },\n  \"fork_refused\": {\n    \"reason_names\": ");
    json_str_array(&mut out, RefuseReason::ALL.iter().map(|r| r.name()));
    out.push_str(",\n    \"counts\": ");
    json_u64_array(&mut out, attr.fork_refused.iter().copied());
    out.push_str("\n  },\n  \"per_class\": {\n    \"class_names\": ");
    json_str_array(&mut out, InstClass::ALL.iter().map(|c| c.name()));
    for (key, table) in [
        ("renamed", &attr.renamed_by_class),
        ("recycled", &attr.recycled_by_class),
        ("reused", &attr.reused_by_class),
        ("committed", &attr.committed_by_class),
    ] {
        let _ = write!(out, ",\n    \"{key}\": ");
        json_u64_array(&mut out, table.iter().copied());
    }
    let _ = write!(
        out,
        "\n  }},\n  \"branches\": {{\n    \"static_count\": {},\n    \"top\": [",
        attr.branches.len()
    );
    for (i, (pc, row)) in attr.top_branches(top_n).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n      {{ \"pc\": \"{pc:#x}\", \"resolves\": {}, \"mispredicts\": {}, \
             \"covered\": {}, \"forks\": {}, \"respawns\": {}, \"refused\": ",
            row.resolves, row.mispredicts, row.covered, row.forks, row.respawns
        );
        json_u64_array(&mut out, row.refused.iter().copied());
        let _ = write!(
            out,
            ", \"accuracy\": {:.2}, \"avg_confidence\": {:.2} }}",
            row.accuracy(),
            row.avg_confidence()
        );
    }
    let _ = write!(
        out,
        "\n    ]\n  }},\n  \"squashes\": {{\n    \"site_count\": {},\n    \
         \"total_instructions\": {},\n    \"top\": [",
        attr.squashes.len(),
        attr.squashed_total()
    );
    for (i, (pc, site)) in attr.top_squashes(top_n).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n      {{ \"pc\": \"{pc:#x}\", \"events\": {}, \"instructions\": {} }}",
            site.events, site.instructions
        );
    }
    let (roots, forks, respawns, promoted) = tree.kind_counts();
    let merged_insts: u64 = tree.edges().iter().map(|e| e.len).sum();
    let _ = write!(
        out,
        "\n    ]\n  }},\n  \"path_tree\": {{ \"nodes\": {}, \"roots\": {roots}, \
         \"forks\": {forks}, \"respawns\": {respawns}, \"promoted\": {promoted}, \
         \"merge_edges\": {}, \"merged_instructions\": {merged_insts}, \"saturated\": {} }},",
        tree.nodes().len(),
        tree.edges().len(),
        tree.saturated()
    );
    out.push_str("\n  \"reconciliation\": {");
    let recon: [(&str, u64, u64); 6] = [
        (
            "reuse_denied_total == recycled - reused",
            attr.reuse_denied_total(),
            stats.recycled - stats.reused,
        ),
        (
            "fork_refused_total == stats.fork_refused",
            attr.fork_refused_total(),
            stats.fork_refused(),
        ),
        (
            "branch_resolves == branches",
            attr.branches.values().map(|r| r.resolves).sum(),
            stats.branches,
        ),
        (
            "branch_mispredicts == mispredicts",
            attr.branches.values().map(|r| r.mispredicts).sum(),
            stats.mispredicts,
        ),
        (
            "branch_covered == mispredicts_covered",
            attr.branches.values().map(|r| r.covered).sum(),
            stats.mispredicts_covered,
        ),
        (
            "squashed_total == squashed",
            attr.squashed_total(),
            stats.squashed,
        ),
    ];
    for (i, (name, got, want)) in recon.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    \"{name}\": {{ \"observed\": {got}, \"expected\": {want}, \"exact\": {} }}",
            got == want
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

fn md_pct(num: u64, den: u64) -> String {
    if den == 0 {
        "-".to_owned()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

/// Renders the human-readable attribution report (markdown).
pub fn explain_markdown(
    label: &str,
    features: &str,
    stats: &Stats,
    attr: &AttributionSink,
    tree: &PathTreeSink,
    top_n: usize,
) -> String {
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "# `{label}` attribution ({features})\n");
    let _ = writeln!(
        out,
        "{} renamed, {} recycled ({}), {} reused ({} of recycled); \
         {} squashed; {} mispredicts, {} covered ({}).\n",
        stats.renamed,
        stats.recycled,
        md_pct(stats.recycled, stats.renamed),
        stats.reused,
        md_pct(stats.reused, stats.recycled),
        stats.squashed,
        stats.mispredicts,
        stats.mispredicts_covered,
        md_pct(stats.mispredicts_covered, stats.mispredicts)
    );
    let denied = stats.recycled - stats.reused;
    let _ = writeln!(out, "## Why recycled instructions were not reused\n");
    let _ = writeln!(out, "| cause | count | share |");
    let _ = writeln!(out, "|---|---:|---:|");
    for d in ReuseDeny::ALL {
        let n = attr.reuse_denied[d.index()];
        let _ = writeln!(out, "| {} | {} | {} |", d.name(), n, md_pct(n, denied));
    }
    let _ = writeln!(
        out,
        "| **total** | **{}** | recycled − reused = {} |\n",
        attr.reuse_denied_total(),
        denied
    );
    let _ = writeln!(out, "## Recycle/reuse yield by instruction class\n");
    let _ = writeln!(out, "| class | renamed | recycled | reused | reuse yield |");
    let _ = writeln!(out, "|---|---:|---:|---:|---:|");
    for c in InstClass::ALL {
        let i = c.index();
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            c.name(),
            attr.renamed_by_class[i],
            attr.recycled_by_class[i],
            attr.reused_by_class[i],
            md_pct(attr.reused_by_class[i], attr.recycled_by_class[i])
        );
    }
    let _ = writeln!(out, "\n## Fork refusals\n");
    let _ = writeln!(
        out,
        "{} candidates, {} forked, {} re-spawned, {} refused:\n",
        stats.fork_candidates,
        stats.forks - stats.respawns,
        stats.respawns,
        attr.fork_refused_total()
    );
    let _ = writeln!(out, "| reason | count |");
    let _ = writeln!(out, "|---|---:|");
    for r in RefuseReason::ALL {
        let _ = writeln!(out, "| {} | {} |", r.name(), attr.fork_refused[r.index()]);
    }
    let _ = writeln!(
        out,
        "\n## Top {top_n} branches by fork activity ({} static branch PCs)\n",
        attr.branches.len()
    );
    let _ = writeln!(
        out,
        "| pc | resolves | accuracy | mispred | covered | forks | respawns | refused | avg conf |"
    );
    let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---:|---:|");
    for (pc, row) in attr.top_branches(top_n) {
        let _ = writeln!(
            out,
            "| {pc:#x} | {} | {:.1}% | {} | {} | {} | {} | {} | {:.2} |",
            row.resolves,
            row.accuracy(),
            row.mispredicts,
            row.covered,
            row.forks,
            row.respawns,
            row.refused.iter().sum::<u64>(),
            row.avg_confidence()
        );
    }
    let _ = writeln!(
        out,
        "\n## Top {top_n} squash sites ({} sites, {} instructions)\n",
        attr.squashes.len(),
        attr.squashed_total()
    );
    let _ = writeln!(out, "| pc | events | instructions |");
    let _ = writeln!(out, "|---|---:|---:|");
    for (pc, site) in attr.top_squashes(top_n) {
        let _ = writeln!(out, "| {pc:#x} | {} | {} |", site.events, site.instructions);
    }
    let (roots, forks, respawns, promoted) = tree.kind_counts();
    let _ = writeln!(
        out,
        "\n## Path tree\n\n{} paths ({roots} roots, {forks} forks, {respawns} respawns), \
         {promoted} promoted to primary, {} merge edges covering {} instructions{}.",
        tree.nodes().len(),
        tree.edges().len(),
        tree.edges().iter().map(|e| e.len).sum::<u64>(),
        if tree.saturated() { " (saturated)" } else { "" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, ctx: u8, pc: u64, kind: EventKind) -> Event {
        Event {
            cycle,
            ctx,
            pc,
            kind,
        }
    }

    fn feed(sink: &mut dyn ProbeSink, events: &[Event]) {
        for e in events {
            sink.event(e);
        }
    }

    #[test]
    fn attribution_buckets_accumulate_and_reconcile() {
        let mut a = AttributionSink::default();
        let events = [
            ev(
                1,
                0,
                0x100,
                EventKind::Rename {
                    class: InstClass::IntAlu,
                },
            ),
            ev(
                2,
                0,
                0x104,
                EventKind::Recycle {
                    class: InstClass::Load,
                },
            ),
            ev(
                2,
                0,
                0x104,
                EventKind::ReuseDenied {
                    class: InstClass::Load,
                    cause: ReuseDeny::MemInvalidated,
                },
            ),
            ev(
                3,
                0,
                0x108,
                EventKind::Reuse {
                    class: InstClass::IntAlu,
                },
            ),
            ev(
                4,
                0,
                0x200,
                EventKind::Resolve {
                    mispredicted: true,
                    covered: true,
                    cond: true,
                    conf: 7,
                },
            ),
            ev(4, 0, 0x200, EventKind::Fork { alt: 1 }),
            ev(
                5,
                0,
                0x200,
                EventKind::ForkRefused {
                    reason: RefuseReason::NoSpare,
                },
            ),
            ev(6, 0, 0x300, EventKind::Squash { count: 9 }),
            ev(6, 0, 0, EventKind::PregStall),
            ev(7, 0, 0x200, EventKind::Promote { alt: 1 }),
        ];
        feed(&mut a, &events);
        assert_eq!(a.reuse_denied_total(), 1);
        assert_eq!(
            a.reuse_denied_by_class[InstClass::Load.index()][ReuseDeny::MemInvalidated.index()],
            1
        );
        assert_eq!(a.renamed_by_class.iter().sum::<u64>(), 3);
        assert_eq!(a.recycled_by_class.iter().sum::<u64>(), 2);
        assert_eq!(a.reused_by_class.iter().sum::<u64>(), 1);
        assert_eq!(a.fork_refused[RefuseReason::NoSpare.index()], 1);
        assert_eq!(a.preg_stalls, 1);
        assert_eq!(a.promotes, 1);
        let row = a.branches[&0x200];
        assert_eq!(row.resolves, 1);
        assert_eq!(row.mispredicts, 1);
        assert_eq!(row.covered, 1);
        assert_eq!(row.forks, 1);
        assert_eq!(row.refused[RefuseReason::NoSpare.index()], 1);
        assert_eq!(row.conf_sum, 7);
        assert!((row.avg_confidence() - 7.0).abs() < 1e-9);
        assert_eq!(a.squashes[&0x300].instructions, 9);
        assert_eq!(a.top_branches(5).first().unwrap().0, 0x200);
    }

    #[test]
    fn path_tree_reconstructs_forks_merges_and_promotion() {
        let mut t = PathTreeSink::new();
        let events = [
            ev(
                1,
                0,
                0x100,
                EventKind::Rename {
                    class: InstClass::IntAlu,
                },
            ),
            ev(5, 0, 0x200, EventKind::Fork { alt: 1 }),
            ev(
                6,
                1,
                0x204,
                EventKind::Recycle {
                    class: InstClass::IntAlu,
                },
            ),
            ev(
                8,
                0,
                0x240,
                EventKind::Merge {
                    source: 1,
                    len: 12,
                    reuse: true,
                },
            ),
            ev(9, 0, 0x200, EventKind::Promote { alt: 1 }),
            ev(10, 1, 0x260, EventKind::BackMerge { len: 4 }),
            ev(11, 1, 0x280, EventKind::Squash { count: 3 }),
        ];
        feed(&mut t, &events);
        t.finish(12);
        assert_eq!(t.nodes().len(), 2);
        let (roots, forks, respawns, promoted) = t.kind_counts();
        assert_eq!((roots, forks, respawns, promoted), (1, 1, 0, 1));
        let fork = &t.nodes()[1];
        assert_eq!(fork.parent, Some(0));
        assert_eq!(fork.fork_pc, 0x200);
        assert_eq!(fork.recycled, 1);
        assert!(fork.promoted);
        assert_eq!(fork.back_merges, 1);
        assert_eq!(fork.squashed, 3);
        assert_eq!(t.edges().len(), 1);
        let e = t.edges()[0];
        assert_eq!((e.from, e.to, e.len, e.reuse), (1, 0, 12, true));
        let dot = t.dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("style=dashed"));
        assert!(dot.contains("reuse"));
        let ascii = t.ascii();
        assert!(ascii.contains("ctx0 root"));
        assert!(ascii.contains("ctx1 fork@0x200"));
        assert!(ascii.contains("[promoted]"));
        assert!(ascii.contains("merges:"));
    }

    #[test]
    fn explain_documents_render_and_reconcile() {
        let mut a = AttributionSink::default();
        let mut t = PathTreeSink::new();
        let events = [
            ev(
                1,
                0,
                0x100,
                EventKind::Recycle {
                    class: InstClass::IntAlu,
                },
            ),
            ev(
                1,
                0,
                0x100,
                EventKind::ReuseDenied {
                    class: InstClass::IntAlu,
                    cause: ReuseDeny::SourceOverwritten,
                },
            ),
            ev(
                2,
                0,
                0x104,
                EventKind::Reuse {
                    class: InstClass::IntAlu,
                },
            ),
        ];
        feed(&mut a, &events);
        feed(&mut t, &events);
        let mut stats = Stats::new(1);
        stats.renamed = 2;
        stats.recycled = 2;
        stats.reused = 1;
        let json = explain_json("demo", "REC+RS+RU", &stats, &a, &t, 8);
        assert!(json.contains("\"schema\": \"multipath-explain/v1\""));
        assert!(json.contains("\"source_overwritten\""));
        assert!(json.contains("\"exact\": true"));
        assert!(!json.contains("\"exact\": false"));
        let md = explain_markdown("demo", "REC+RS+RU", &stats, &a, &t, 8);
        assert!(md.contains("# `demo` attribution"));
        assert!(md.contains("source_overwritten"));
    }

    #[test]
    fn path_tree_saturation_is_flagged_not_fatal() {
        let mut t = PathTreeSink::new();
        for i in 0..(NODE_CAP + 10) {
            // Alternate between two contexts so every fork creates a node.
            t.event(&ev(i as u64, 0, 0x100, EventKind::Fork { alt: 1 }));
            t.event(&ev(i as u64, 1, 0x104, EventKind::Fork { alt: 0 }));
        }
        assert!(t.saturated());
        assert!(t.nodes().len() <= NODE_CAP);
        // Still serviceable after saturation.
        t.event(&ev(999_999, 0, 0x108, EventKind::Squash { count: 1 }));
        let _ = t.ascii();
    }
}
