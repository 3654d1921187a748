//! The issue stage: event-driven wakeup and select over the instruction
//! queues, operand read, functional execution, and completion scheduling.
//!
//! A queued instruction counts its sources that are not yet written, and
//! each physical register lists the queued instructions waiting on it.
//! Writing a register (`Simulator::write_reg`) counts its waiters down;
//! an instruction whose count reaches zero joins its queue's ready list.
//! Select walks only the ready lists. The count only ever goes down: a
//! queued reader holds a reference to each source, and a register is
//! written only while it is held, so a source once written stays written
//! until the reader leaves the queue.

use crate::active_list::{EntryState, MemState};
use crate::exec;
use crate::ids::{CtxId, InstTag, PhysReg};
use crate::lsq::StoreEntry;
use crate::regfile::RegFiles;
use crate::sim::{CompletionEvent, Simulator};
use multipath_isa::{FuClass, OperandClass};

/// An instruction-queue entry (the wakeup/select window).
#[derive(Debug, Clone, Copy)]
pub(crate) struct IqEntry {
    pub ctx: CtxId,
    pub seq: u64,
    pub tag: InstTag,
    pub srcs: [Option<PhysReg>; 2],
    pub fu: FuClass,
    /// Sources not yet written; the entry is ready at zero.
    pub pending: u8,
}

/// One instruction queue, split by readiness. Waiting entries sit in
/// slots that their waiters name; ready entries are listed in tag order,
/// which is queue age order: tags are allocated at rename, in the order
/// entries are dispatched.
#[derive(Debug, Default)]
struct Queue {
    /// Entries with at least one unwritten source; `None` is a free slot.
    waiting: Vec<Option<IqEntry>>,
    free: Vec<u16>,
    waiting_len: usize,
    /// Entries whose sources are all written.
    ready: Vec<IqEntry>,
}

impl Queue {
    fn len(&self) -> usize {
        self.waiting_len + self.ready.len()
    }

    /// Stores a just-dispatched entry, returning the slot its waiters
    /// name, or `None` if it is ready (it is the youngest entry, so it
    /// goes to the end of the ready list).
    fn insert(&mut self, e: IqEntry) -> Option<u16> {
        if e.pending == 0 {
            self.ready.push(e);
            return None;
        }
        self.waiting_len += 1;
        Some(match self.free.pop() {
            Some(slot) => {
                self.waiting[slot as usize] = Some(e);
                slot
            }
            None => {
                self.waiting.push(Some(e));
                (self.waiting.len() - 1) as u16
            }
        })
    }

    /// Counts one written source off the entry `tag` waiting in `slot`;
    /// a waiter whose entry left the queue (squashed, undispatched) finds
    /// the slot free or reused, and is ignored.
    fn wake(&mut self, slot: u16, tag: InstTag) {
        let entry = &mut self.waiting[slot as usize];
        let Some(e) = entry.as_mut().filter(|e| e.tag == tag) else {
            return;
        };
        e.pending -= 1;
        if e.pending == 0 {
            let e = entry.take().expect("matched above");
            self.free.push(slot);
            self.waiting_len -= 1;
            let at = self.ready.partition_point(|r| r.tag < tag);
            self.ready.insert(at, e);
        }
    }

    /// Moves `ctx`'s entries with `seq >= from_seq` to `out`, in tag
    /// order; returns how many moved.
    fn take_ctx(&mut self, ctx: CtxId, from_seq: u64, out: &mut Vec<IqEntry>) -> usize {
        let start = out.len();
        let take = |e: &IqEntry| e.ctx == ctx && e.seq >= from_seq;
        for (slot, entry) in self.waiting.iter_mut().enumerate() {
            if entry.as_ref().is_some_and(take) {
                out.extend(entry.take());
                self.free.push(slot as u16);
                self.waiting_len -= 1;
            }
        }
        self.ready.retain(|e| {
            if take(e) {
                out.push(*e);
            }
            !take(e)
        });
        out[start..].sort_unstable_by_key(|e| e.tag);
        out.len() - start
    }

    /// Every entry, in age order (diagnostics and invariant checks).
    fn in_order(&self) -> Vec<IqEntry> {
        let mut all: Vec<IqEntry> = self
            .waiting
            .iter()
            .flatten()
            .chain(&self.ready)
            .copied()
            .collect();
        all.sort_unstable_by_key(|e| e.tag);
        all
    }
}

/// A queued instruction waiting on a register.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    tag: InstTag,
    slot: u16,
    fp_queue: bool,
}

/// The integer and floating-point instruction queues, the per-register
/// waiter lists that wake their entries, and per-context occupancy (the
/// ICOUNT queue term).
#[derive(Debug)]
pub(crate) struct IssueQueues {
    int: Queue,
    fp: Queue,
    /// Waiter lists indexed `[fp file][register index]`. A list may hold
    /// stale waiters (entries that left the queue); they are skipped at
    /// wakeup and discarded when the register is allocated again.
    waiters: [Vec<Vec<Waiter>>; 2],
    occupancy: Vec<u32>,
}

impl IssueQueues {
    /// Empty queues for `contexts` contexts and register files of the
    /// given sizes.
    pub(crate) fn new(contexts: usize, phys_int: usize, phys_fp: usize) -> IssueQueues {
        IssueQueues {
            int: Queue::default(),
            fp: Queue::default(),
            waiters: [vec![Vec::new(); phys_int], vec![Vec::new(); phys_fp]],
            occupancy: vec![0; contexts],
        }
    }

    fn queue(&self, fp_queue: bool) -> &Queue {
        if fp_queue {
            &self.fp
        } else {
            &self.int
        }
    }

    fn queue_mut(&mut self, fp_queue: bool) -> &mut Queue {
        if fp_queue {
            &mut self.fp
        } else {
            &mut self.int
        }
    }

    /// Entries in one queue.
    pub(crate) fn len(&self, fp_queue: bool) -> usize {
        self.queue(fp_queue).len()
    }

    /// Entries `ctx` holds across both queues.
    pub(crate) fn occupancy(&self, ctx: CtxId) -> u32 {
        self.occupancy[ctx.index()]
    }

    /// Enqueues a just-renamed instruction (its `pending` is computed
    /// here), registering it with each source not yet written.
    pub(crate) fn dispatch(&mut self, fp_queue: bool, mut e: IqEntry, regs: &RegFiles) {
        let unwritten = e.srcs.map(|p| p.filter(|&p| !regs.is_ready(p)));
        e.pending = unwritten.iter().flatten().count() as u8;
        self.occupancy[e.ctx.index()] += 1;
        let Some(slot) = self.queue_mut(fp_queue).insert(e) else {
            return;
        };
        for p in unwritten.into_iter().flatten() {
            self.waiters[p.fp as usize][p.index as usize].push(Waiter {
                tag: e.tag,
                slot,
                fp_queue,
            });
        }
    }

    /// `reg` has just been written: wakes its waiters.
    pub(crate) fn wake(&mut self, reg: PhysReg) {
        let [int, fp] = &mut self.waiters;
        let list = if reg.fp { fp } else { int };
        for w in list[reg.index as usize].drain(..) {
            if w.fp_queue {
                self.fp.wake(w.slot, w.tag);
            } else {
                self.int.wake(w.slot, w.tag);
            }
        }
    }

    /// `reg` has just been allocated: any waiters left on it are stale.
    pub(crate) fn forget_waiters(&mut self, reg: PhysReg) {
        self.waiters[reg.fp as usize][reg.index as usize].clear();
    }

    /// Removes `ctx`'s entries with `seq >= from_seq` from one queue,
    /// appending them to `out` in age order.
    pub(crate) fn take_ctx(
        &mut self,
        fp_queue: bool,
        ctx: CtxId,
        from_seq: u64,
        out: &mut Vec<IqEntry>,
    ) {
        if self.occupancy[ctx.index()] == 0 {
            return;
        }
        let n = self.queue_mut(fp_queue).take_ctx(ctx, from_seq, out);
        self.occupancy[ctx.index()] -= n as u32;
    }

    /// Every entry of one queue, in age order (diagnostics).
    pub(crate) fn in_order(&self, fp_queue: bool) -> Vec<IqEntry> {
        self.queue(fp_queue).in_order()
    }
}

impl Simulator {
    /// Runs one issue cycle.
    pub(crate) fn issue_stage(&mut self) {
        self.probe_store_addresses();
        let mut int_budget = self.config.int_units;
        let mut ls_budget = self.config.ls_units;
        let mut fp_budget = self.config.fp_units;
        self.select(false, &mut int_budget, &mut ls_budget);
        let mut unused = 0;
        self.select(true, &mut fp_budget, &mut unused);
    }

    /// Walks one queue's ready list oldest-first, issuing entries within
    /// the functional-unit budgets.
    fn select(&mut self, fp_queue: bool, primary_budget: &mut usize, ls_budget: &mut usize) {
        // Issuing wakes nobody (results are written at writeback), so the
        // list can be taken out while entries execute.
        let mut ready = std::mem::take(&mut self.iq.queue_mut(fp_queue).ready);
        ready.retain(|e| {
            if !self.can_issue(e, *primary_budget, *ls_budget) {
                return true;
            }
            *primary_budget -= 1;
            if e.fu == FuClass::LoadStore {
                *ls_budget -= 1;
            }
            self.iq.occupancy[e.ctx.index()] -= 1;
            self.execute_entry(e);
            false
        });
        self.iq.queue_mut(fp_queue).ready = ready;
    }

    /// Whether a ready entry may issue this cycle.
    fn can_issue(&self, e: &IqEntry, primary_budget: usize, ls_budget: usize) -> bool {
        if primary_budget == 0 || (e.fu == FuClass::LoadStore && ls_budget == 0) {
            return false;
        }
        // Conservative memory ordering: a load waits for older stores whose
        // addresses are unknown or overlap it.
        let entry = self.contexts[e.ctx.index()]
            .al
            .at_seq(e.seq)
            .expect("queued entries are live");
        if entry.inst.op.is_load() {
            let base = e.srcs[0].map(|p| self.regs.read(p)).unwrap_or(0);
            let addr = crate::exec::effective_address(&entry.inst, base);
            let width = entry.inst.op.mem_width().expect("load has width").bytes() as u8;
            return !self.older_store_blocks(e.ctx, e.tag, addr, width);
        }
        true
    }

    /// Writes a register and wakes the queued instructions waiting on it.
    pub(crate) fn write_reg(&mut self, reg: PhysReg, value: u64) {
        self.regs.write(reg, value);
        self.iq.wake(reg);
    }

    /// Allocates a register from the requested file (see
    /// [`RegFiles::alloc`]), discarding its stale waiters.
    pub(crate) fn alloc_reg(&mut self, fp: bool) -> Option<PhysReg> {
        let reg = self.regs.alloc(fp)?;
        self.iq.forget_waiters(reg);
        Some(reg)
    }

    /// Removes `ctx`'s queued entries with `seq >= from_seq` (a squash:
    /// the caller releases their reader references).
    pub(crate) fn dequeue_squashed(&mut self, ctx: CtxId, from_seq: u64) {
        let mut out = std::mem::take(&mut self.scratch.dequeued);
        for fp_queue in [false, true] {
            self.iq.take_ctx(fp_queue, ctx, from_seq, &mut out);
        }
        out.clear();
        self.scratch.dequeued = out;
    }

    /// Removes `ctx`'s pending instructions from the queues without
    /// squashing them: they stay in the trace as fetched-only entries.
    pub(crate) fn undispatch(&mut self, ctx: CtxId) {
        let mut out = std::mem::take(&mut self.scratch.dequeued);
        // Reader references go back integer queue first, each queue in age
        // order: the free-list order decides later register numbers.
        for fp_queue in [false, true] {
            self.iq.take_ctx(fp_queue, ctx, 0, &mut out);
            for e in out.drain(..) {
                for src in e.srcs.into_iter().flatten() {
                    self.regs.release(src);
                }
                let a = self.contexts[ctx.index()]
                    .al
                    .at_seq_mut(e.seq)
                    .expect("queued entries are live");
                a.fetched_only = true;
                a.srcs = [None; 2];
                if a.inst.op.is_store() {
                    self.contexts[ctx.index()].clear_pending_store(e.tag);
                }
            }
        }
        self.scratch.dequeued = out;
    }

    /// Checks the queue invariants: every queued entry is a live,
    /// pending instruction; each entry's count equals its unwritten
    /// sources; the ready lists hold exactly the entries whose count is
    /// zero, in tag order; and the occupancy counters match the queues.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn check_queues(&self) {
        let mut occupancy = vec![0u32; self.contexts.len()];
        for q in [&self.iq.int, &self.iq.fp] {
            assert!(
                q.ready.windows(2).all(|w| w[0].tag < w[1].tag),
                "ready list out of tag order"
            );
            let waiting: Vec<&IqEntry> = q.waiting.iter().flatten().collect();
            assert_eq!(waiting.len(), q.waiting_len, "waiting count drifted");
            for (e, ready) in waiting
                .into_iter()
                .map(|e| (e, false))
                .chain(q.ready.iter().map(|e| (e, true)))
            {
                let al = &self.contexts[e.ctx.index()].al;
                assert!(
                    al.is_live(e.seq)
                        && al.at_seq(e.seq).is_some_and(|a| a.tag == e.tag
                            && !a.fetched_only
                            && a.state == EntryState::Pending),
                    "queued {} (ctx{} seq{}) is not a live pending entry",
                    e.tag,
                    e.ctx.0,
                    e.seq
                );
                let unwritten = e
                    .srcs
                    .into_iter()
                    .flatten()
                    .filter(|&p| !self.regs.is_ready(p))
                    .count();
                assert_eq!(usize::from(e.pending), unwritten, "{}: stale count", e.tag);
                assert_eq!(e.pending == 0, ready, "{}: on the wrong list", e.tag);
                occupancy[e.ctx.index()] += 1;
            }
        }
        assert_eq!(occupancy, self.iq.occupancy, "occupancy counters drifted");
    }

    /// Reads operands, computes the result, and schedules completion.
    fn execute_entry(&mut self, iq: &IqEntry) {
        let ctx = iq.ctx;
        let a = iq.srcs[0].map(|p| self.regs.read(p)).unwrap_or(0);
        let b = iq.srcs[1].map(|p| self.regs.read(p)).unwrap_or(0);
        for src in iq.srcs.into_iter().flatten() {
            self.regs.release(src);
        }
        let (pc, inst) = {
            let e = self.contexts[ctx.index()]
                .al
                .at_seq(iq.seq)
                .expect("validated by caller");
            (e.pc, e.inst)
        };
        let op = inst.op;
        let regread = self.config.regread_latency as u64;
        let t0 = self.cycle + regread;
        let (complete_at, result) = match op.operand_class() {
            OperandClass::CondBr => {
                let taken = exec::branch_taken(&inst, a);
                let target = if taken {
                    inst.direct_target(pc)
                } else {
                    pc + multipath_isa::INST_BYTES
                };
                self.set_actual(ctx, iq.seq, taken, target);
                (t0 + 1, None)
            }
            OperandClass::Jump => {
                self.set_actual(ctx, iq.seq, true, a);
                (t0 + 1, None)
            }
            _ if op.is_load() => {
                let addr = exec::effective_address(&inst, a);
                let width = op.mem_width().expect("load has width").bytes() as u8;
                let value = self.read_visible(ctx, iq.tag, addr, width);
                let asid = self.asid_of(ctx);
                let access = self.hierarchy.data_access(asid, addr, false, t0);
                self.mdb.record_load(asid, pc, addr);
                if let Some(e) = self.contexts[ctx.index()].al.at_seq_mut(iq.seq) {
                    e.mem = Some(MemState {
                        addr: Some(addr),
                        store_value: 0,
                    });
                }
                (access.ready_at + 1, Some(value))
            }
            _ if op.is_store() => {
                let addr = exec::effective_address(&inst, a);
                let width = op.mem_width().expect("store has width").bytes() as u8;
                let asid = self.asid_of(ctx);
                self.contexts[ctx.index()].sq.insert(StoreEntry {
                    tag: iq.tag,
                    addr,
                    width,
                    value: b,
                });
                self.contexts[ctx.index()].clear_pending_store(iq.tag);
                self.mdb.store_invalidate(asid, addr, width);
                if let Some(e) = self.contexts[ctx.index()].al.at_seq_mut(iq.seq) {
                    e.mem = Some(MemState {
                        addr: Some(addr),
                        store_value: b,
                    });
                }
                (t0 + 1, None)
            }
            _ => {
                let value = exec::alu_result(&inst, a, b, pc);
                (t0 + op.latency() as u64, Some(value))
            }
        };
        if let Some(e) = self.contexts[ctx.index()].al.at_seq_mut(iq.seq) {
            e.state = EntryState::Issued;
        }
        if self.wants(crate::probe::EventKind::ISSUE) {
            let class = crate::probe::InstClass::of(op);
            self.probe(ctx, pc, crate::probe::EventKind::Issue { class });
        }
        self.contexts[ctx.index()].in_flight += 1;
        self.events.push(CompletionEvent {
            at: complete_at.max(self.cycle + 1),
            ctx,
            seq: iq.seq,
            tag: iq.tag,
            result,
        });
    }

    /// Computes addresses of pending stores whose base registers are ready
    /// (the address-generation half of a split store). Knowing addresses
    /// early lets independent loads bypass stores still waiting on data.
    fn probe_store_addresses(&mut self) {
        for i in 0..self.contexts.len() {
            // Probing never adds or removes pending stores, so index
            // through the list instead of cloning it.
            for k in 0..self.contexts[i].pending_stores.len() {
                let (tag, seq) = self.contexts[i].pending_stores[k];
                let Some(e) = self.contexts[i].al.at_seq(seq) else {
                    continue;
                };
                if e.tag != tag || e.mem.is_some_and(|m| m.addr.is_some()) {
                    continue;
                }
                let Some(base_preg) = e.srcs[0] else { continue };
                if !self.regs.is_ready(base_preg) {
                    continue;
                }
                let addr = crate::exec::effective_address(&e.inst, self.regs.read(base_preg));
                if let Some(e) = self.contexts[i].al.at_seq_mut(seq) {
                    e.mem = Some(MemState {
                        addr: Some(addr),
                        store_value: 0,
                    });
                }
            }
        }
    }

    /// Records a control instruction's actual outcome (resolution happens
    /// at completion).
    fn set_actual(&mut self, ctx: CtxId, seq: u64, taken: bool, target: u64) {
        if let Some(e) = self.contexts[ctx.index()].al.at_seq_mut(seq) {
            if let Some(b) = &mut e.branch {
                b.actual_taken = Some(taken);
                b.actual_target = Some(target);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AltPolicy, Features, SimConfig};
    use multipath_workload::{mix, Benchmark};

    fn entry(tag: u64, pending: u8) -> IqEntry {
        IqEntry {
            ctx: CtxId((tag % 2) as u8),
            seq: tag,
            tag: InstTag(tag),
            srcs: [None; 2],
            fu: FuClass::IntAlu,
            pending,
        }
    }

    fn ready_tags(q: &Queue) -> Vec<u64> {
        q.ready.iter().map(|e| e.tag.0).collect()
    }

    #[test]
    fn wakeup_keeps_the_ready_list_in_tag_order() {
        let mut q = Queue::default();
        let slots: Vec<Option<u16>> = [(1, 1), (2, 0), (3, 2), (4, 0), (5, 1)]
            .into_iter()
            .map(|(tag, pending)| q.insert(entry(tag, pending)))
            .collect();
        assert_eq!(ready_tags(&q), [2, 4]);
        let slot = |i: usize| slots[i].expect("waiting entry");
        q.wake(slot(4), InstTag(5));
        q.wake(slot(2), InstTag(3));
        q.wake(slot(0), InstTag(1));
        q.wake(slot(0), InstTag(9)); // stale waiter: the slot was freed
        assert_eq!(ready_tags(&q), [1, 2, 4, 5]);
        q.wake(slot(2), InstTag(3));
        assert_eq!(ready_tags(&q), [1, 2, 3, 4, 5]);
        assert_eq!((q.len(), q.waiting_len), (5, 0));
    }

    #[test]
    fn take_ctx_returns_entries_in_age_order() {
        let mut q = Queue::default();
        for (tag, pending) in [(0, 0), (1, 1), (2, 0), (3, 0), (4, 1), (6, 2)] {
            q.insert(entry(tag, pending));
        }
        let mut out = Vec::new();
        // Context 0 holds the even tags; squash from seq 2.
        assert_eq!(q.take_ctx(CtxId(0), 2, &mut out), 3);
        assert_eq!(out.iter().map(|e| e.tag.0).collect::<Vec<_>>(), [2, 4, 6]);
        assert_eq!(q.len(), 3);
        assert_eq!(ready_tags(&q), [0, 3]);
        // A freed slot is reused, so a stale waiter on it finds a new tag.
        let reused = q.insert(entry(8, 1)).expect("waiting entry");
        assert_eq!(q.waiting.len(), 3);
        q.wake(reused, InstTag(4));
        assert_eq!(q.waiting_len, 2);
    }

    /// Multi-program `fetch-N` and `nostop-N` runs (the policies that
    /// undispatch and rename fetched-only entries) hold the queue
    /// invariants at every check: each 4096-cycle chunk here, plus the
    /// simulator's own debug-build check at the same period.
    #[test]
    fn queue_invariants_hold_under_fetch_and_nostop_policies() {
        for (policy, benches) in [
            (
                AltPolicy::FetchOnly(16),
                &[Benchmark::Go, Benchmark::Compress][..],
            ),
            (
                AltPolicy::NoStop(16),
                &[Benchmark::Gcc, Benchmark::Li, Benchmark::Tomcatv][..],
            ),
        ] {
            let config = SimConfig::big_2_16()
                .with_features(Features::rec_rs_ru())
                .with_alt_policy(policy);
            let mut sim = Simulator::new(config, mix::programs(benches, 1));
            for chunk in 1..=3 {
                sim.run(u64::MAX, chunk * 4096 + 1);
                sim.check_queues();
                let dumped = sim.iq.len(false).min(12) + sim.iq.len(true).min(12);
                assert_eq!(sim.debug_iq().lines().count(), dumped);
            }
            assert!(sim.cycle() > 3 * 4096, "{policy:?}: the run stopped early");
            assert!(sim.stats().forks > 0, "{policy:?}: nothing forked");
        }
    }
}
