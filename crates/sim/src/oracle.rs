//! Reference queue implementations kept for proof and measurement.
//!
//! [`EventQueue`](crate::EventQueue) keeps its payloads in a slab and
//! cancels by handle; everything downstream (crash replay, golden trace
//! hashes, ledger parity) leans on bit-for-bit determinism per seed, so the
//! heap it replaced stays in-tree in two roles:
//!
//! * [`BaselineHeap`] — the old comparison-based `BinaryHeap` queue,
//!   byte-for-byte the pre-refactor hot path, cancelling by scan and
//!   rebuild. The engine bench harness measures it side by side with
//!   [`EventQueue`](crate::EventQueue) and gates on the cancel-storm
//!   speedup; the golden-trace tests prove both produce identical
//!   schedules.
//! * [`HeapOracle`] — [`BaselineHeap`] plus id bookkeeping so the
//!   differential proptest can drive both queues through identical
//!   schedule/pop/cancel interleavings and assert the full
//!   `(time, seq, payload)` pop sequence matches. The bookkeeping
//!   (two `BTreeSet`s) is kept out of [`BaselineHeap`] so the measured
//!   baseline stays honest.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

use crate::time::SimTime;

/// A min-heap keyed entry; `seq` breaks ties FIFO.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The pre-refactor event queue: a comparison-based binary heap with FIFO
/// tie-breaking by insertion sequence. Baseline of `engine_bench`'s
/// microbenches (`BENCH_engine.json`); do not "optimize" it.
pub struct BaselineHeap<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> BaselineHeap<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BaselineHeap {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last popped event time.
    pub fn push(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.last_popped,
            "event scheduled in the past: {time} < {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(t, _, e)| (t, e))
    }

    /// [`pop`](Self::pop) exposing the tie-breaking sequence number.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        let entry = self.heap.pop()?;
        self.last_popped = entry.time;
        Some((entry.time, entry.seq, entry.event))
    }

    /// The timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Empties the queue, returning every pending event in pop order.
    pub fn drain(&mut self) -> Vec<(SimTime, E)> {
        let mut entries: Vec<Entry<E>> = std::mem::take(&mut self.heap).into_vec();
        entries.sort_by(|a, b| a.time.cmp(&b.time).then_with(|| a.seq.cmp(&b.seq)));
        entries.into_iter().map(|e| (e.time, e.event)).collect()
    }

    /// The pre-refactor cancellation path: a linear scan followed by a full
    /// drain-and-rebuild of the heap. Kept as the recorded baseline the O(1)
    /// tombstone cancel is measured against.
    pub fn remove_first(&mut self, pred: impl Fn(&E) -> bool) -> Option<(SimTime, E)> {
        if !self.heap.iter().any(|e| pred(&e.event)) {
            return None;
        }
        let mut removed = None;
        for (t, ev) in self.drain() {
            if removed.is_none() && pred(&ev) {
                removed = Some((t, ev));
            } else {
                self.push(t, ev);
            }
        }
        removed
    }
}

impl<E> Default for BaselineHeap<E> {
    fn default() -> Self {
        BaselineHeap::new()
    }
}

/// A handle to an event scheduled on a [`HeapOracle`] — the oracle-side
/// mirror of [`EventId`](crate::EventId). It is the event's globally unique
/// sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OracleId(u64);

/// [`BaselineHeap`] with id bookkeeping: supports the same
/// schedule/cancel surface as [`EventQueue`](crate::EventQueue) so the
/// differential proptest can drive both through identical op sequences.
/// Cancellation is modelled exactly like the queue's tombstones — the
/// entry stays in the heap and is skipped at pop, and surviving events
/// keep their original sequence numbers. The bookkeeping is `BTreeSet`s,
/// not a slab, so the proptest checks the queue's slot, generation and
/// tombstone logic against an independent implementation.
pub struct HeapOracle<E> {
    inner: BaselineHeap<E>,
    /// Seqs of still-pending (not popped, not cancelled) events.
    live: BTreeSet<u64>,
    /// Seqs cancelled but still physically in the heap.
    tombstones: BTreeSet<u64>,
}

impl<E> HeapOracle<E> {
    /// Creates an empty oracle queue.
    pub fn new() -> Self {
        HeapOracle {
            inner: BaselineHeap::new(),
            live: BTreeSet::new(),
            tombstones: BTreeSet::new(),
        }
    }

    /// Schedules `event`, returning its cancellation handle.
    pub fn schedule(&mut self, time: SimTime, event: E) -> OracleId {
        let seq = self.inner.next_seq;
        self.inner.push(time, event);
        self.live.insert(seq);
        OracleId(seq)
    }

    /// Cancels a pending event; a stale handle is a no-op returning `false`.
    pub fn cancel(&mut self, id: OracleId) -> bool {
        if self.live.remove(&id.0) {
            self.tombstones.insert(id.0);
            true
        } else {
            false
        }
    }

    /// Removes and returns the earliest live event.
    pub fn pop_entry(&mut self) -> Option<(SimTime, u64, E)> {
        // Physically popping a tombstone advances the inner clock; if no
        // live event follows, restore it — a fruitless pop must leave
        // `now` untouched, exactly like `EventQueue`.
        let prev_now = self.inner.last_popped;
        while let Some((t, seq, e)) = self.inner.pop_entry() {
            if self.tombstones.remove(&seq) {
                continue;
            }
            self.live.remove(&seq);
            return Some((t, seq, e));
        }
        self.inner.last_popped = prev_now;
        None
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_entry().map(|(t, _, e)| (t, e))
    }

    /// The timestamp of the earliest live event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.inner
            .heap
            .iter()
            .filter(|e| !self.tombstones.contains(&e.seq))
            .map(|e| (e.time, e.seq))
            .min()
            .map(|(t, _)| t)
    }

    /// Number of pending (live) events.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True if no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.inner.last_popped
    }

    /// Empties the queue, returning every live event in pop order.
    pub fn drain(&mut self) -> Vec<(SimTime, E)> {
        let mut entries: Vec<Entry<E>> = std::mem::take(&mut self.inner.heap).into_vec();
        entries.sort_by(|a, b| a.time.cmp(&b.time).then_with(|| a.seq.cmp(&b.seq)));
        self.live.clear();
        let tombs = std::mem::take(&mut self.tombstones);
        entries
            .into_iter()
            .filter(|e| !tombs.contains(&e.seq))
            .map(|e| (e.time, e.event))
            .collect()
    }
}

impl<E> Default for HeapOracle<E> {
    fn default() -> Self {
        HeapOracle::new()
    }
}
