//! Preallocated, free-list-recycled storage for the simulator hot path.
//!
//! The paper's thesis is that recycling beats re-allocating; the simulator
//! holds itself to the same rule. Everything the per-cycle loop needs more
//! than once lives here and is reused instead of reallocated:
//!
//! - [`Slab`]: a pool of `T` slots addressed by generation-tagged
//!   [`Handle`]s. Freed slots go on a free list and are reissued with a
//!   bumped generation, so a stale handle can never read a recycled slot.
//!   The respawn replay path stores its drained trace entries here and
//!   passes 8-byte handles around instead of cloning ~200-byte payloads.
//! - `Scratch` (crate-internal): the per-cycle working buffers owned by `Simulator`
//!   (the due-completion batch, spare replay queues, dequeued entries).
//!   Stages take a buffer out, use it, and put it back; the capacity
//!   survives across cycles so steady-state simulation performs no heap
//!   allocation for them at all.
//! - `CompletionWheel` (crate-internal): scheduled completions in
//!   per-cycle buckets whose vectors circulate through the scratch batch.

use crate::sim::CompletionEvent;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A generation-tagged reference to a [`Slab`] slot.
///
/// Handles are 8 bytes and `Copy`; they are invalidated by freeing the
/// slot (the generation advances), after which every access returns
/// `None` rather than another entry's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle {
    index: u32,
    gen: u32,
}

/// A slab allocator: preallocated slots recycled through a free list.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: Vec<(u32, Option<T>)>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Stores `value`, recycling a freed slot when one exists.
    pub fn insert(&mut self, value: T) -> Handle {
        match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                debug_assert!(slot.1.is_none(), "free-listed slot still occupied");
                slot.1 = Some(value);
                Handle { index, gen: slot.0 }
            }
            None => {
                let index = self.slots.len() as u32;
                self.slots.push((0, Some(value)));
                Handle { index, gen: 0 }
            }
        }
    }

    /// The value behind `h`, unless the slot has been freed since.
    pub fn get(&self, h: Handle) -> Option<&T> {
        let (gen, value) = self.slots.get(h.index as usize)?;
        if *gen != h.gen {
            return None;
        }
        value.as_ref()
    }

    /// Frees the slot behind `h` and returns its value; the handle (and
    /// any copy of it) is dead afterwards. Freeing twice is a no-op.
    pub fn free(&mut self, h: Handle) -> Option<T> {
        let slot = self.slots.get_mut(h.index as usize)?;
        if slot.0 != h.gen || slot.1.is_none() {
            return None;
        }
        let value = slot.1.take();
        slot.0 = slot.0.wrapping_add(1);
        self.free.push(h.index);
        value
    }

    /// Number of live (occupied) slots.
    pub fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Total slots ever allocated (live + recycled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Reusable per-cycle working buffers owned by the simulator.
///
/// Each pipeline stage `std::mem::take`s the buffer it needs (so the
/// borrow checker sees it as a local), clears and refills it, and puts it
/// back when done — the allocation is made once and amortised over the
/// whole run.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The completions writeback handles this cycle.
    pub due: Vec<CompletionEvent>,
    /// Emptied replay queues waiting to be reused by the next respawn.
    pub spare_replay_queues: Vec<VecDeque<Handle>>,
    /// Entries leaving the instruction queues on a squash or undispatch.
    pub dequeued: Vec<crate::issue_stage::IqEntry>,
}

/// Cycles the wheel's buckets cover (a power of two). A full miss to
/// memory takes 80 cycles, so the overflow heap is rarely used.
const WHEEL_SLOTS: usize = 256;

/// The wheel bucket for events due at cycle `at`.
fn slot(at: u64) -> usize {
    (at % WHEEL_SLOTS as u64) as usize
}

/// Scheduled completions, bucketed by the cycle they are due.
///
/// A ring of [`WHEEL_SLOTS`] per-cycle buckets holds events due within
/// that many cycles of the next drain; a heap holds any due later. The
/// owner drains every cycle, in order, so the events due at `now` are
/// exactly bucket `now % WHEEL_SLOTS` plus the heap's events due by `now`;
/// sorted, they come out in the `(at, tag)` order a heap of all events
/// would pop them in.
#[derive(Debug)]
pub(crate) struct CompletionWheel {
    buckets: Vec<Vec<CompletionEvent>>,
    far: BinaryHeap<Reverse<CompletionEvent>>,
    /// The next cycle [`CompletionWheel::take_due`] drains.
    next: u64,
}

impl CompletionWheel {
    /// An empty wheel whose first drain is cycle 0.
    pub fn new() -> CompletionWheel {
        CompletionWheel {
            buckets: vec![Vec::new(); WHEEL_SLOTS],
            far: BinaryHeap::new(),
            next: 0,
        }
    }

    /// Schedules `ev`, which must not be due in a cycle already drained.
    pub fn push(&mut self, ev: CompletionEvent) {
        debug_assert!(ev.at >= self.next, "completion scheduled in the past");
        if ev.at - self.next < WHEEL_SLOTS as u64 {
            self.buckets[slot(ev.at)].push(ev);
        } else {
            self.far.push(Reverse(ev));
        }
    }

    /// Moves every event due at `now` into the empty `batch`, in `(at,
    /// tag)` order. Call once per cycle, for consecutive cycles from 0.
    pub fn take_due(&mut self, now: u64, batch: &mut Vec<CompletionEvent>) {
        debug_assert!(batch.is_empty());
        debug_assert_eq!(now, self.next, "wheel drained out of cycle order");
        std::mem::swap(batch, &mut self.buckets[slot(now)]);
        while self.far.peek().is_some_and(|ev| ev.0.at <= now) {
            batch.push(self.far.pop().expect("peeked").0);
        }
        batch.sort_unstable();
        self.next = now + 1;
    }

    /// Events scheduled and not yet drained (diagnostics).
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum::<usize>() + self.far.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get_round_trip() {
        let mut slab: Slab<u64> = Slab::new();
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_eq!(slab.get(a), Some(&10));
        assert_eq!(slab.get(b), Some(&20));
        assert_eq!(slab.live(), 2);
    }

    #[test]
    fn free_returns_value_and_invalidates_handle() {
        let mut slab: Slab<&str> = Slab::new();
        let h = slab.insert("x");
        assert_eq!(slab.free(h), Some("x"));
        assert_eq!(slab.get(h), None, "freed handle is dead");
        assert_eq!(slab.free(h), None, "double free is a no-op");
        assert_eq!(slab.live(), 0);
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut slab: Slab<u32> = Slab::new();
        let h = slab.insert(1);
        slab.free(h);
        let h2 = slab.insert(2);
        assert_eq!(slab.capacity(), 1, "freed slot reused, no new allocation");
        assert_eq!(slab.get(h2), Some(&2));
        assert_eq!(slab.get(h), None, "old generation cannot alias new value");
    }

    #[test]
    fn generations_distinguish_reincarnations() {
        let mut slab: Slab<u32> = Slab::new();
        let first = slab.insert(7);
        slab.free(first);
        let second = slab.insert(8);
        assert_ne!(first, second);
        assert_eq!(slab.free(first), None);
        assert_eq!(
            slab.get(second),
            Some(&8),
            "stale free must not kill the slot"
        );
    }

    #[test]
    fn live_tracks_many_inserts_and_frees() {
        let mut slab: Slab<usize> = Slab::new();
        let handles: Vec<Handle> = (0..100).map(|i| slab.insert(i)).collect();
        assert_eq!(slab.live(), 100);
        for h in &handles[..50] {
            slab.free(*h);
        }
        assert_eq!(slab.live(), 50);
        for i in 0..50 {
            slab.insert(i);
        }
        assert_eq!(slab.live(), 100);
        assert_eq!(slab.capacity(), 100, "all inserts after free reuse slots");
    }

    fn event(at: u64, tag: u64) -> CompletionEvent {
        CompletionEvent {
            at,
            ctx: crate::ids::CtxId(0),
            seq: 0,
            tag: crate::ids::InstTag(tag),
            result: None,
        }
    }

    multipath_testkit::prop_test! {
        /// Drained once per cycle, the wheel hands out the `(at, tag)`
        /// sequence a heap of the same pushes pops, latencies beyond the
        /// horizon included.
        fn wheel_drains_in_heap_order(pushes in |rng: &mut multipath_testkit::TestRng| {
            // (push cycle, latency, tag)
            rng.vec(0..200, |r| {
                let latency = if r.chance(0.2) {
                    r.in_range(WHEEL_SLOTS as u64 - 2..3 * WHEEL_SLOTS as u64)
                } else {
                    r.in_range(1..40)
                };
                (r.below(600), latency, r.below(1 << 20))
            })
        }) {
            let mut pushes = pushes;
            pushes.retain(|p| p.1 >= 1);
            pushes.sort_by_key(|p| p.0);
            let last = pushes.iter().map(|p| p.0 + p.1).max().unwrap_or(0);
            let mut wheel = CompletionWheel::new();
            let mut heap = BinaryHeap::new();
            let (mut batch, mut next) = (Vec::new(), 0);
            for now in 0..=last {
                wheel.take_due(now, &mut batch);
                let got: Vec<(u64, u64)> = batch.drain(..).map(|e| (e.at, e.tag.0)).collect();
                let mut want = Vec::new();
                while heap.peek().is_some_and(|e: &Reverse<CompletionEvent>| e.0.at <= now) {
                    let e = heap.pop().expect("peeked").0;
                    want.push((e.at, e.tag.0));
                }
                multipath_testkit::prop_assert_eq!(got, want);
                while next < pushes.len() && pushes[next].0 == now {
                    let (_, latency, tag) = pushes[next];
                    wheel.push(event(now + latency, tag));
                    heap.push(Reverse(event(now + latency, tag)));
                    next += 1;
                }
                multipath_testkit::prop_assert_eq!(wheel.len(), heap.len());
            }
            multipath_testkit::prop_assert_eq!(wheel.len(), 0);
        }
    }
}
