//! The commit stage: in-order retirement per context, store writeback to
//! memory, and the drain transition for displaced primaries.

use crate::active_list::EntryState;
use crate::context::CtxState;
use crate::ids::CtxId;
use crate::sim::Simulator;
use multipath_isa::Opcode;

impl Simulator {
    /// Runs one commit cycle.
    pub(crate) fn commit_stage(&mut self) {
        let mut budget = self.config.commit_width;
        for i in 0..self.contexts.len() {
            if budget == 0 {
                break;
            }
            let ctx = CtxId(i as u8);
            match self.contexts[i].state {
                CtxState::Primary | CtxState::Draining => {}
                _ => continue,
            }
            // Program order across contexts: after a swap the new primary
            // waits for the old one's (older) instructions to drain.
            if let Some(gate) = self.contexts[i].commit_gate {
                if self.contexts[gate.index()].al.live() > 0 {
                    continue;
                }
                self.contexts[i].commit_gate = None;
            }
            while budget > 0 {
                // Nothing commits after the program's halt.
                let finished = self.contexts[i]
                    .prog
                    .is_some_and(|p| self.programs[p.index()].finished);
                if finished {
                    break;
                }
                let ready = self.contexts[i].al.front().is_some_and(|e| {
                    e.state == EntryState::Done && e.branch.as_ref().is_none_or(|b| b.resolved)
                });
                if !ready {
                    break;
                }
                self.commit_one(ctx);
                budget -= 1;
            }
        }
        self.drain_transitions();
    }

    /// Retires the oldest entry of `ctx`.
    fn commit_one(&mut self, ctx: CtxId) {
        let seq = self.contexts[ctx.index()].al.commit_front();
        // One active-list access per retirement: mutate the retained entry,
        // then work from a copied snapshot.
        let snap = {
            let e = self.contexts[ctx.index()]
                .al
                .at_seq_mut(seq)
                .expect("just committed");
            e.regs_held = false;
            let snap = *e;
            e.old_preg = None;
            snap
        };
        let (op, tag, old_preg, mem) = (snap.inst.op, snap.tag, snap.old_preg, snap.mem);
        if self.commit_log.is_some() || self.reference.is_some() {
            let (pc, value, inst, reused, recycled) = (
                snap.pc,
                snap.new_preg.map(|p| self.regs.read(p)),
                snap.inst,
                snap.reused,
                snap.recycled,
            );
            if let Some(log) = self.commit_log.as_mut() {
                log.push((pc, value));
            }
            let mismatch = match self.reference.as_mut() {
                Some((rp, emu)) if self.contexts[ctx.index()].prog == Some(*rp) => {
                    let expected = emu.step();
                    let retired = emu.retired();
                    let bad = expected.pc != pc
                        || (expected.value.is_some() && value.is_some() && expected.value != value);
                    bad.then_some((expected, retired))
                }
                _ => None,
            };
            if let Some((expected, retired)) = mismatch {
                #[cfg(debug_assertions)]
                eprintln!(
                    "fe log of {ctx}:\n{}",
                    self.contexts[ctx.index()]
                        .fe_log
                        .iter()
                        .map(|s| format!("  {s}"))
                        .collect::<Vec<_>>()
                        .join("\n")
                );
                let trail: Vec<String> = {
                    let al = &self.contexts[ctx.index()].al;
                    (al.head_seq().saturating_sub(6)..al.next_seq())
                        .take(20)
                        .filter_map(|s| {
                            al.at_seq(s)
                                .map(|e| format!("seq{} {}@{:#x} tag{}", s, e.inst, e.pc, e.tag.0))
                        })
                        .collect()
                };
                eprintln!("commit trail of {ctx}: {trail:#?}");
                let state = self.debug_state();
                panic!(
                    "architectural divergence at cycle {} retire #{retired}: committed {inst} pc={pc:#x} value={value:?} reused={reused} recycled={recycled} ({ctx}) | reference pc={:#x} value={:?}\n{state}",
                    self.cycle, expected.pc, expected.value,
                );
            }
        }
        let prog = self.contexts[ctx.index()]
            .prog
            .expect("committing context bound");

        if op.is_store() {
            let m = mem.expect("executed store has an address");
            let addr = m.addr.expect("executed store has an address");
            let width = op.mem_width().expect("store has width").bytes();
            self.programs[prog.index()].store(addr, width, m.store_value);
            self.contexts[ctx.index()].sq.remove(tag);
            // Charge the cache for the write (write-allocate at commit).
            let asid = self.programs[prog.index()].asid;
            let cycle = self.cycle;
            self.hierarchy.data_access(asid, addr, true, cycle);
        }
        if let Some(old) = old_preg {
            self.regs.release(old);
        }
        if op == Opcode::Halt {
            self.programs[prog.index()].finished = true;
        }
        self.stats.committed += 1;
        self.stats.committed_per_program[prog.index()] += 1;
        if self.wants(crate::probe::EventKind::COMMIT) {
            let class = crate::probe::InstClass::of(op);
            self.probe(ctx, snap.pc, crate::probe::EventKind::Commit { class });
        }
        self.contexts[ctx.index()].last_used = self.cycle;
    }

    /// Old primaries that have finished committing become recyclable
    /// (inactive) sources — or return to the idle pool without recycling.
    fn drain_transitions(&mut self) {
        for i in 0..self.contexts.len() {
            if self.contexts[i].state != CtxState::Draining {
                continue;
            }
            if self.contexts[i].al.live() > 0 {
                continue;
            }
            debug_assert!(
                self.contexts[i].sq.is_empty(),
                "drained context still buffers stores"
            );
            let cycle = self.cycle;
            let c = &mut self.contexts[i];
            c.pending_stores.clear();
            if self.config.features.recycle {
                c.state = CtxState::Inactive;
                c.last_used = cycle;
            } else {
                c.state = CtxState::Idle;
                c.al.clear();
                c.squash_merge = None;
                c.back_merge = None;
            }
            // Everything older than the waiters has now committed.
            self.clear_gates_to(CtxId(i as u8));
        }
    }
}
