//! Deterministic event queue — the DES hot path.
//!
//! The whole reproduction is driven by one global event queue per simulated
//! worker server. Determinism matters: the paper's experiments must be
//! reproducible from a seed, so ties in simulated time are broken by insertion
//! order (FIFO), never by container internals.
//!
//! # Design: a slab-backed binary heap
//!
//! * **Slab arena.** Every payload lives in a slot of a free-listed slab and
//!   is addressed by a compact [`EventId`] (slot index + generation). The
//!   heap moves 24-byte `(time, seq, slot)` keys, never the payloads.
//! * **Binary heap.** A std [`BinaryHeap`] of reversed keys pops the total
//!   order `(time, seq)`: each schedule takes the next sequence number, so
//!   same-timestamp events pop FIFO.
//! * **Tombstone cancellation.** [`EventQueue::cancel`] frees the slab slot
//!   in O(1) and leaves the key behind as a tombstone; pops skip stale keys
//!   by comparing the key's `seq` against the slot's. Generation counters
//!   make a stale [`EventId`] a typed no-op.
//!
//! The heap this replaced, with payloads inside its entries and cancellation
//! by scan and rebuild, survives as
//! [`oracle::BaselineHeap`](crate::oracle::BaselineHeap): the baseline of
//! `jord-bench engine`'s cancel-storm gate and, behind
//! [`oracle::HeapOracle`](crate::oracle::HeapOracle), the differential
//! test's reference for pop order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A stable handle to a scheduled event, returned by
/// [`EventQueue::schedule`] and consumed by [`EventQueue::cancel`].
///
/// The generation counter makes handles single-use: once the event pops or
/// is cancelled, the handle goes stale and cancelling it again is a typed
/// no-op ([`CancelOutcome::Expired`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// What [`EventQueue::cancel`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The event was still pending; it is gone and will never pop.
    Cancelled,
    /// The handle was stale — its event already popped, was already
    /// cancelled, or never belonged to this queue. Nothing changed.
    Expired,
}

impl CancelOutcome {
    /// True if the cancel removed a pending event.
    pub fn is_cancelled(self) -> bool {
        matches!(self, CancelOutcome::Cancelled)
    }
}

/// Always-on operation counters — the op-count probe regression tests use
/// to prove cancellation pops and re-schedules nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueProbe {
    /// Events accepted by `push`/`schedule`.
    pub scheduled: u64,
    /// Events returned by `pop`.
    pub popped: u64,
    /// Events removed by `cancel`.
    pub cancelled: u64,
    /// Always 0: a heap key stays where it was pushed until it pops.
    /// perfbench still reads the field; it goes once perfbench stops.
    pub rebucketed: u64,
    /// Always 0, like [`rebucketed`](Self::rebucketed): the queue has no
    /// far-future overflow.
    pub overflowed: u64,
}

impl QueueProbe {
    /// Folds another probe's counters into this one. The parallel cluster
    /// engine runs one queue per shard; every counter is a per-event sum,
    /// so the merged probe is the same at any thread count, and op-count
    /// regressions (a cancel paying a drain-and-rebuild again, say) stay
    /// assertable on the cluster report.
    pub fn merge(&mut self, other: &QueueProbe) {
        self.scheduled += other.scheduled;
        self.popped += other.popped;
        self.cancelled += other.cancelled;
        self.rebucketed += other.rebucketed;
        self.overflowed += other.overflowed;
    }
}

/// One slab slot. `event == None` means the slot is free (or tombstoned —
/// the states are identical: cancellation frees immediately and the heap
/// key left behind is recognized as stale by its `seq`).
struct Slot<E> {
    time: SimTime,
    seq: u64,
    gen: u32,
    event: Option<E>,
}

/// A future-event list ordered by simulated time with FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use jord_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(10), 'b');
/// q.push(SimTime::from_ns(10), 'c'); // same time: FIFO order preserved
/// let cancel_me = q.schedule(SimTime::from_ns(5), 'x');
/// q.push(SimTime::from_ns(1), 'a');
/// assert!(q.cancel(cancel_me).is_cancelled());
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// `(time_ps, seq, slot)` keys, min-ordered; live events plus
    /// tombstones. Settled: empty, or its front is live.
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    live: usize,
    next_seq: u64,
    last_popped: SimTime,
    /// Exact count of tombstoned keys still in the heap. While zero — the
    /// overwhelmingly common case — settling is skipped, so uncancelled
    /// traffic pays nothing for the cancellation feature.
    stale_keys: usize,
    probe: QueueProbe,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            live: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
            stale_keys: 0,
            probe: QueueProbe::default(),
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event time: the
    /// simulation may never schedule into its own past.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.schedule(time, event);
    }

    /// [`push`](Self::push) returning a cancellation handle.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventId {
        assert!(
            time >= self.last_popped,
            "event scheduled in the past: {time} < {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc_slot(time, seq, event);
        self.live += 1;
        self.probe.scheduled += 1;
        // A live key never unsettles the front: it is either behind the
        // live front or becomes the front itself.
        self.heap.push(Reverse((time.as_ps(), seq, slot)));
        EventId {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(t, _, e)| (t, e))
    }

    /// [`pop`](Self::pop) exposing the tie-breaking sequence number — the
    /// differential test suite compares full `(time, seq, event)` triples.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        // Settled after every mutating call, so the front is live.
        let Reverse((_, seq, slot)) = self.heap.pop()?;
        let s = &mut self.slots[slot as usize];
        debug_assert_eq!(s.seq, seq, "settled front must be live");
        let event = s.event.take().expect("settled front must hold a payload");
        let time = s.time;
        self.retire_slot(slot);
        self.live -= 1;
        self.probe.popped += 1;
        self.last_popped = time;
        self.settle();
        Some((time, seq, event))
    }

    /// Cancels a pending event in O(1): the slab slot is freed immediately
    /// and the heap key it leaves behind is skipped as a tombstone when it
    /// reaches the front. A stale handle (already popped, already
    /// cancelled, or foreign) is a typed no-op.
    pub fn cancel(&mut self, id: EventId) -> CancelOutcome {
        let Some(slot) = self.slots.get_mut(id.slot as usize) else {
            return CancelOutcome::Expired;
        };
        if slot.gen != id.gen || slot.event.is_none() {
            return CancelOutcome::Expired;
        }
        slot.event = None;
        self.retire_slot(id.slot);
        self.live -= 1;
        self.stale_keys += 1;
        self.probe.cancelled += 1;
        // If the cancelled event was the front, re-settle so `peek_time`
        // never reports a tombstone.
        self.settle();
        CancelOutcome::Cancelled
    }

    /// The timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap
            .peek()
            .map(|&Reverse((t, _, _))| SimTime::from_ps(t))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The time of the most recently popped event (the simulation "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// The operation counters accumulated so far.
    pub fn probe(&self) -> QueueProbe {
        self.probe
    }

    /// Iterates over every pending event in arbitrary (slab) order.
    /// Inspection only — a cluster drain uses this to discover which
    /// requests are still undelivered without disturbing the schedule.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.slots
            .iter()
            .filter_map(|s| s.event.as_ref().map(|e| (s.time, e)))
    }

    /// Empties the queue, returning every pending event in pop order
    /// (time-ascending, FIFO ties). `now()` is left unchanged, so events
    /// re-pushed from the drained list keep their timestamps.
    ///
    /// A crash-recovery path uses this to rebuild the future-event list:
    /// events representing the outside world (client arrivals) survive a
    /// worker crash, events representing lost in-memory state do not.
    pub fn drain(&mut self) -> Vec<(SimTime, E)> {
        let mut entries: Vec<(SimTime, u64, E)> = Vec::with_capacity(self.live);
        for i in 0..self.slots.len() {
            if let Some(event) = self.slots[i].event.take() {
                entries.push((self.slots[i].time, self.slots[i].seq, event));
                // Retire rather than wipe: generations stay monotonic, so
                // an `EventId` issued before the drain can never alias an
                // event scheduled after it.
                self.retire_slot(i as u32);
            }
        }
        entries.sort_unstable_by_key(|&(t, seq, _)| (t, seq));
        self.live = 0;
        self.heap.clear();
        self.stale_keys = 0;
        entries.into_iter().map(|(t, _, e)| (t, e)).collect()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn alloc_slot(&mut self, time: SimTime, seq: u64, event: E) -> u32 {
        if let Some(i) = self.free.pop() {
            let s = &mut self.slots[i as usize];
            s.time = time;
            s.seq = seq;
            s.event = Some(event);
            i
        } else {
            self.slots.push(Slot {
                time,
                seq,
                gen: 0,
                event: Some(event),
            });
            (self.slots.len() - 1) as u32
        }
    }

    /// Returns a slot to the free list, bumping its generation so any
    /// outstanding [`EventId`] for it goes stale.
    fn retire_slot(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.event.is_none());
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
    }

    /// Restores the settle invariant — the heap is empty or its front is
    /// live — by dropping tombstones off the front. A key is stale once
    /// its slot is empty or holds a later event (the globally unique `seq`
    /// discriminates).
    fn settle(&mut self) {
        while self.stale_keys > 0 {
            let Some(&Reverse((_, seq, slot))) = self.heap.peek() else {
                return;
            };
            let s = &self.slots[slot as usize];
            if s.event.is_some() && s.seq == seq {
                return;
            }
            self.heap.pop();
            self.stale_keys -= 1;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The parallel cluster engine hands each shard's queue to whichever
/// thread claims the shard for a window; keep that statically legal for
/// any `Send` payload (the queue holds no shared or interior-mutable
/// state).
#[allow(dead_code)]
fn shard_handles_are_send<E: Send>() {
    fn check<T: Send>() {}
    check::<EventQueue<E>>();
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.live)
            .field("now", &self.last_popped)
            .field("tombstones", &self.stale_keys)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
    }

    #[test]
    #[should_panic(expected = "event scheduled in the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), ());
        q.pop();
        q.push(SimTime::from_ns(9), ());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(4), 'x');
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(4)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn drain_returns_pop_order_and_keeps_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), 'a');
        q.pop();
        q.push(SimTime::from_ns(30), 'c');
        q.push(SimTime::from_ns(20), 'b');
        q.push(SimTime::from_ns(20), 'x'); // FIFO tie after 'b'
        let drained = q.drain();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_ns(10), "drain leaves now unchanged");
        assert_eq!(
            drained.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            ['b', 'x', 'c']
        );
        // Re-pushing drained events at their original times is legal.
        for (t, e) in drained {
            q.push(t, e);
        }
        assert_eq!(q.pop().unwrap().1, 'b');
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        let mut t = SimTime::ZERO;
        q.push(SimTime::from_ns(1), 1u32);
        q.push(SimTime::from_ns(3), 3);
        let (t1, e1) = q.pop().unwrap();
        assert_eq!(e1, 1);
        t = t + (t1 - t); // advance
        let _ = t;
        // schedule a new event between now and the pending one
        q.push(t1 + SimDuration::from_ns(1), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn cancel_then_pop_skips_exactly_one_matching_event() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), 'a');
        let dup1 = q.schedule(SimTime::from_ns(2), 'd');
        q.push(SimTime::from_ns(2), 'd'); // identical payload, later seq
        q.push(SimTime::from_ns(3), 'z');
        assert_eq!(q.cancel(dup1), CancelOutcome::Cancelled);
        assert_eq!(q.len(), 3);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'd', 'z'], "exactly one copy is skipped");
    }

    #[test]
    fn cancel_of_a_popped_id_is_a_typed_noop() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_ns(1), 'a');
        q.push(SimTime::from_ns(2), 'b');
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.cancel(id), CancelOutcome::Expired);
        assert_eq!(q.len(), 1, "a stale cancel changes nothing");
        assert_eq!(q.pop().unwrap().1, 'b');
    }

    #[test]
    fn cancel_twice_is_a_typed_noop() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_ns(1), 'a');
        assert_eq!(q.cancel(id), CancelOutcome::Cancelled);
        assert_eq!(q.cancel(id), CancelOutcome::Expired);
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_of_front_updates_peek() {
        let mut q = EventQueue::new();
        let front = q.schedule(SimTime::from_ns(1), 'a');
        q.push(SimTime::from_ns(9), 'b');
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(1)));
        assert!(q.cancel(front).is_cancelled());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(9)));
    }

    #[test]
    fn a_reused_slot_does_not_honor_a_stale_handle() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_ns(1), 'a');
        q.pop();
        // The freed slot is reused by the next schedule.
        q.push(SimTime::from_ns(2), 'b');
        assert_eq!(q.cancel(id), CancelOutcome::Expired);
        assert_eq!(q.pop().unwrap().1, 'b');
    }

    #[test]
    fn far_future_events_survive_horizon_advances() {
        let mut q = EventQueue::new();
        // A dense near cluster, one far outlier, and the maximum instant.
        for i in 0..64u64 {
            q.push(SimTime::from_ns(i), i);
        }
        q.push(SimTime::from_us(10_000_000), 1_000);
        q.push(SimTime::MAX, 2_000);
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, 66);
        assert_eq!(last, SimTime::MAX);
    }

    #[test]
    fn push_below_a_jumped_horizon_reanchors() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(1), 1u32);
        q.push(SimTime::from_us(500_000), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        // A near push after the clock moved must still order before the
        // far event.
        q.push(SimTime::from_ns(2), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(2)));
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn probe_counts_schedule_pop_cancel() {
        let mut q = EventQueue::new();
        let id = q.schedule(SimTime::from_ns(5), 'a');
        q.push(SimTime::from_ns(6), 'b');
        q.cancel(id);
        q.pop();
        let p = q.probe();
        assert_eq!(p.scheduled, 2);
        assert_eq!(p.popped, 1);
        assert_eq!(p.cancelled, 1);
    }

    #[test]
    fn geometry_growth_preserves_total_order() {
        // Thousands of pushes with colliding timestamps throughout: the
        // pop order is `(time, seq)` however large the queue grows.
        let mut q = EventQueue::new();
        let mut rng = crate::rng::Rng::new(7);
        let mut expected: Vec<(u64, usize)> = Vec::new();
        for i in 0..4_000 {
            let t = rng.next_below(1_000); // dense: many FIFO ties
            q.push(SimTime::from_ns(t), i);
            expected.push((t, i));
        }
        expected.sort_by_key(|&(t, i)| (t, i));
        for &(t, i) in &expected {
            let (pt, pe) = q.pop().unwrap();
            assert_eq!((pt, pe), (SimTime::from_ns(t), i));
        }
    }
}
