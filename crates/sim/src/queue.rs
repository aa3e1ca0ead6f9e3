//! Deterministic event queue — the DES hot path.
//!
//! The whole reproduction is driven by one global event queue per simulated
//! worker server. Determinism matters: the paper's experiments must be
//! reproducible from a seed, so ties in simulated time are broken by insertion
//! order (FIFO), never by container internals.
//!
//! # Design: slab-backed calendar queue with a far-future overflow heap
//!
//! Serving the paper's millions-of-users scenarios means billions of
//! simulated events, so the queue is built for throughput rather than for
//! the comparison-based `BinaryHeap` it replaces:
//!
//! * **Slab arena.** Every payload lives in a slot of a free-listed slab and
//!   is addressed by a compact [`EventId`] (slot index + generation). The
//!   ordering structures move 24-byte `(time, seq, slot)` keys, never the
//!   payloads themselves.
//! * **Calendar buckets.** A power-of-two array of buckets, each a
//!   power-of-two number of picoseconds wide (so placement is a shift, not
//!   a division), covers the *horizon* — the near future starting at
//!   `horizon_start`. An event inside the horizon is appended to its bucket
//!   in O(1). A bucket is sorted by `(time, seq)` exactly once, lazily, when
//!   the pop cursor arms it; same-timestamp events therefore pop in exactly
//!   the FIFO order the old seq-numbered heap produced.
//! * **Overflow heap.** Events beyond the horizon go to a far-future min-heap.
//!   When the horizon's buckets are exhausted the clock advances: the horizon
//!   re-anchors at the overflow minimum and everything now inside it is
//!   re-bucketed lazily — far-future events pay the heap only while they stay
//!   far-future.
//! * **Tombstone cancellation.** [`EventQueue::cancel`] frees the slab slot
//!   in O(1) and leaves the ordering key behind as a tombstone; pops and
//!   re-bucketing skip stale keys by comparing the key's `seq` against the
//!   slot's. Generation counters make a stale [`EventId`] a typed no-op.
//! * **Geometry adaptation.** The bucket count grows with the live-event
//!   count and the bucket width tracks an EWMA of observed pop gaps, keeping
//!   mean bucket occupancy small. Geometry only decides *placement*; the pop
//!   order is always the total order `(time, seq)`, so schedules are
//!   bit-identical to the heap implementation regardless of tuning.
//!
//! The old binary-heap implementation survives as
//! [`oracle::BaselineHeap`](crate::oracle::BaselineHeap) — the recorded
//! baseline for `BENCH_engine.json` and the differential-test oracle proving
//! pop-order equivalence.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Smallest bucket-array size (kept tiny: a fleet boots many queues).
const MIN_BUCKETS: usize = 16;
/// Largest bucket-array size the geometry may grow to. A million-event
/// burst (campaign setup) fits its whole span in the horizon at ~2 events
/// per bucket; the empty-`Vec` headers cost ~24 MiB only at full growth.
const MAX_BUCKETS: usize = 1 << 20;
/// Grow the bucket array when live events exceed `buckets × GROW_OCCUPANCY`.
const GROW_OCCUPANCY: usize = 4;
/// Bucket width as a multiple of the observed mean pop gap.
const WIDTH_GAPS: u64 = 4;
/// EWMA clamp so `width = gap × WIDTH_GAPS` can never overflow.
const GAP_EWMA_MAX: u64 = 1 << 55;

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
/// to prove cancellation stopped paying a full drain-and-rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueProbe {
    /// Events accepted by `push`/`schedule`.
    pub scheduled: u64,
    /// Events returned by `pop`.
    pub popped: u64,
    /// Events removed by `cancel`.
    pub cancelled: u64,
    /// Keys moved between buckets and the overflow heap (horizon advances,
    /// geometry growth, re-anchors). A cancel must never add to this.
    pub rebucketed: u64,
    /// Keys sent to the far-future overflow heap at schedule time.
    pub overflowed: u64,
    /// Bucket arming sorts performed.
    pub sorts: u64,
}

impl QueueProbe {
    /// Folds another probe's counters into this one. The parallel cluster
    /// engine runs one queue per shard; merging the per-shard probes into
    /// the cluster report keeps op-count regressions (a cancel paying a
    /// drain-and-rebuild again, say) assertable regardless of thread
    /// count — the sums are partition-invariant even though each shard's
    /// own geometry counters are not.
    pub fn merge(&mut self, other: &QueueProbe) {
        self.scheduled += other.scheduled;
        self.popped += other.popped;
        self.cancelled += other.cancelled;
        self.rebucketed += other.rebucketed;
        self.overflowed += other.overflowed;
        self.sorts += other.sorts;
    }
}

/// One slab slot. `event == None` means the slot is free (or tombstoned —
/// the states are identical: cancellation frees immediately and the ordering
/// key left behind is recognized as stale by its `seq`).
struct Slot<E> {
    time: SimTime,
    seq: u64,
    gen: u32,
    event: Option<E>,
}

/// A 24-byte ordering key: everything a bucket sort needs without touching
/// the slab.
#[derive(Clone, Copy)]
struct Key {
    time_ps: u64,
    seq: u64,
    slot: u32,
}

/// Where a timestamp falls relative to the current horizon.
enum Placement {
    /// Before `horizon_start` — the horizon must re-anchor backward.
    Below,
    /// Inside the horizon, in this bucket.
    In(usize),
    /// Beyond the horizon — far-future overflow.
    Beyond,
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
    live: usize,
    next_seq: u64,
    last_popped: SimTime,
    /// Calendar buckets; length is a power of two.
    buckets: Vec<Vec<Key>>,
    /// log2 of the bucket width in picoseconds: widths are powers of two
    /// so placement is a shift, not a division.
    width_shift: u32,
    /// Absolute time of `buckets[0]`'s left edge.
    horizon_start: u64,
    /// The bucket the pop cursor is at (`== buckets.len()` when the horizon
    /// is exhausted).
    cursor: usize,
    /// Next un-popped entry of the armed cursor bucket.
    drain_pos: usize,
    /// True once the cursor bucket has been sorted for draining.
    armed: bool,
    /// Far-future events, min-ordered by `(time, seq)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// EWMA of pop-to-pop gaps, steering the bucket width.
    gap_ewma: u64,
    /// High-water mark of scheduled timestamps: lets a re-anchor size the
    /// width to cover the whole pending span even before any pop has
    /// taught the gap EWMA anything (a pure-push burst).
    max_pending: u64,
    /// Exact count of tombstoned keys still physically present in the
    /// buckets or the overflow heap. While zero — the overwhelmingly
    /// common case — every staleness check (one random slab access each)
    /// is skipped, so uncancelled traffic pays nothing for the
    /// cancellation feature.
    stale_keys: usize,
    probe: QueueProbe,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width_shift: 12, // 4096 ps ≈ 4 ns until pops teach us better
            horizon_start: 0,
            cursor: 0,
            drain_pos: 0,
            armed: false,
            overflow: BinaryHeap::new(),
            gap_ewma: 1_000,
            max_pending: 0,
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
        let id = self.schedule_unsettled(time, event);
        self.settle();
        id
    }

    fn schedule_unsettled(&mut self, time: SimTime, event: E) -> EventId {
        assert!(
            time >= self.last_popped,
            "event scheduled in the past: {time} < {}",
            self.last_popped
        );
        if self.live >= self.buckets.len() * GROW_OCCUPANCY && self.buckets.len() < MAX_BUCKETS {
            self.grow();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc_slot(time, seq, event);
        self.live += 1;
        self.probe.scheduled += 1;
        self.max_pending = self.max_pending.max(time.as_ps());
        self.place(Key {
            time_ps: time.as_ps(),
            seq,
            slot,
        });
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
        if self.live == 0 {
            return None;
        }
        // The settle invariant holds after every mutating call, so the
        // cursor points at the live front.
        let key = self.buckets[self.cursor][self.drain_pos];
        self.drain_pos += 1;
        let slot = &mut self.slots[key.slot as usize];
        debug_assert_eq!(slot.seq, key.seq, "settled front must be live");
        let event = slot
            .event
            .take()
            .expect("settled front must hold a payload");
        let time = slot.time;
        self.retire_slot(key.slot);
        self.live -= 1;
        self.probe.popped += 1;
        let gap = time.as_ps() - self.last_popped.as_ps();
        self.gap_ewma =
            (((self.gap_ewma as u128 * 7 + gap as u128) / 8) as u64).clamp(1, GAP_EWMA_MAX);
        self.last_popped = time;
        self.settle();
        Some((time, key.seq, event))
    }

    /// Cancels a pending event in O(1): the slab slot is freed immediately
    /// and the ordering key it leaves behind is skipped as a tombstone when
    /// the schedule reaches it. A stale handle (already popped, already
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
        // If the cancelled event was the settled front, re-settle so
        // `peek_time` never reports a tombstone.
        self.settle();
        CancelOutcome::Cancelled
    }

    /// The timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        let key = self.buckets[self.cursor][self.drain_pos];
        Some(SimTime::from_ps(key.time_ps))
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
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.cursor = 0;
        self.drain_pos = 0;
        self.armed = false;
        self.max_pending = 0;
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

    /// True if `key` no longer names a live event (cancelled, popped, or
    /// its slot was reused — the globally unique `seq` discriminates).
    fn is_stale(&self, key: &Key) -> bool {
        let s = &self.slots[key.slot as usize];
        s.event.is_none() || s.seq != key.seq
    }

    fn placement(&self, time_ps: u64) -> Placement {
        if time_ps < self.horizon_start {
            return Placement::Below;
        }
        let idx = ((time_ps - self.horizon_start) >> self.width_shift) as usize;
        if idx < self.buckets.len() {
            Placement::In(idx)
        } else {
            Placement::Beyond
        }
    }

    fn place(&mut self, key: Key) {
        match self.placement(key.time_ps) {
            Placement::Below => {
                // A push landed before the (forward-jumped) horizon: pull
                // the bucketed keys back into the overflow heap and
                // re-anchor the horizon at the newcomer.
                self.unbucket_all();
                self.anchor(key.time_ps);
                let idx = ((key.time_ps - self.horizon_start) >> self.width_shift) as usize;
                self.buckets[idx].push(key);
                self.refill();
            }
            Placement::In(idx) => {
                if idx < self.cursor {
                    // The drained prefix of the armed cursor bucket is
                    // necessarily all tombstone skips: a live pop from it
                    // would have pinned `last_popped` inside the bucket,
                    // forcing `idx >= cursor`. Those skips were already
                    // discounted from `stale_keys`, so drop them for real
                    // before the rewind — re-arming must not see (and
                    // re-discount) them.
                    debug_assert!(
                        self.drain_pos == 0
                            || self.buckets[self.cursor][..self.drain_pos]
                                .iter()
                                .all(|k| self.is_stale(k))
                    );
                    if self.drain_pos > 0 {
                        self.buckets[self.cursor].drain(..self.drain_pos);
                        self.drain_pos = 0;
                    }
                    self.cursor = idx;
                    self.armed = false;
                    self.buckets[idx].push(key);
                } else if idx == self.cursor && self.armed {
                    // The draining bucket stays sorted: binary-insert
                    // among the not-yet-popped keys.
                    let v = &mut self.buckets[idx];
                    let pos = v[self.drain_pos..]
                        .partition_point(|k| (k.time_ps, k.seq) < (key.time_ps, key.seq));
                    v.insert(self.drain_pos + pos, key);
                } else {
                    self.buckets[idx].push(key);
                }
            }
            Placement::Beyond => {
                self.overflow
                    .push(Reverse((key.time_ps, key.seq, key.slot)));
                self.probe.overflowed += 1;
            }
        }
    }

    /// Restores the settle invariant: either the queue is empty or
    /// `buckets[cursor][drain_pos]` is the live front. All lazy work —
    /// arming sorts, tombstone skipping, horizon advances — happens here.
    fn settle(&mut self) {
        loop {
            if self.live == 0 {
                return;
            }
            if self.cursor == self.buckets.len() {
                // Horizon exhausted but events remain: they are all in
                // the overflow heap. Advance the clock's horizon to the
                // overflow minimum and re-bucket lazily.
                debug_assert!(!self.overflow.is_empty());
                let &Reverse((min_t, _, _)) = self.overflow.peek().expect("live > 0");
                self.unarm();
                self.anchor(min_t);
                self.refill();
                continue;
            }
            if !self.armed {
                if self.buckets[self.cursor].is_empty() {
                    self.cursor += 1;
                    continue;
                }
                self.buckets[self.cursor].sort_unstable_by_key(|k| (k.time_ps, k.seq));
                self.probe.sorts += 1;
                self.armed = true;
                self.drain_pos = 0;
            }
            if self.drain_pos == self.buckets[self.cursor].len() {
                self.buckets[self.cursor].clear();
                self.armed = false;
                self.drain_pos = 0;
                self.cursor += 1;
                continue;
            }
            if self.stale_keys > 0 {
                let key = self.buckets[self.cursor][self.drain_pos];
                if self.is_stale(&key) {
                    self.drain_pos += 1;
                    self.stale_keys -= 1;
                    continue;
                }
            }
            return;
        }
    }

    /// Re-anchors the horizon so `buckets[0]` starts at `time_ps`'s bucket,
    /// with a power-of-two width covering whichever is larger: the pop-gap
    /// EWMA's occupancy target, or the whole pending span (so a pure-push
    /// burst — which has no pop gaps to learn from — never thrashes the
    /// overflow heap).
    fn anchor(&mut self, time_ps: u64) {
        let target = if self.probe.popped == 0 {
            // Pure-push burst: no pop gaps to learn from yet, so assume
            // the pending events are roughly uniform over their span.
            let span = self.max_pending.saturating_sub(time_ps);
            (span / self.live.max(1) as u64)
                .max(1)
                .saturating_mul(WIDTH_GAPS)
        } else {
            // Trained: target ~WIDTH_GAPS events per bucket and let true
            // outliers overflow rather than stretching every bucket.
            self.gap_ewma.saturating_mul(WIDTH_GAPS).max(1)
        };
        // Round up to the next power of two; the clamp keeps the shift
        // well below 64 (and `next_power_of_two` from overflowing) even
        // when a `SimTime::MAX` outlier stretches the span estimate.
        let target = target.clamp(1, GAP_EWMA_MAX);
        self.width_shift = 64 - target.next_power_of_two().leading_zeros() - 1;
        self.horizon_start = time_ps & (u64::MAX << self.width_shift);
        self.cursor = 0;
        self.drain_pos = 0;
        self.armed = false;
    }

    /// Drops armed-cursor state without touching bucket contents.
    fn unarm(&mut self) {
        self.armed = false;
        self.drain_pos = 0;
    }

    /// Moves every bucketed key back to the overflow heap (dropping
    /// tombstones on the way) so the horizon can re-anchor.
    fn unbucket_all(&mut self) {
        for b in 0..self.buckets.len() {
            // The portion before `drain_pos` of an armed cursor bucket was
            // already popped; everything else is pending or tombstoned.
            let start = if self.armed && b == self.cursor {
                self.drain_pos
            } else {
                0
            };
            let mut keys = std::mem::take(&mut self.buckets[b]);
            for key in keys.drain(..).skip(start) {
                if self.stale_keys > 0 && self.is_stale(&key) {
                    self.stale_keys -= 1;
                    continue;
                }
                self.overflow
                    .push(Reverse((key.time_ps, key.seq, key.slot)));
                self.probe.rebucketed += 1;
            }
            self.buckets[b] = keys; // keep the allocation
        }
        self.unarm();
    }

    /// Pulls every overflow event inside the current horizon into its
    /// bucket — the lazy re-bucketing step of a clock advance.
    fn refill(&mut self) {
        while let Some(&Reverse((t, seq, slot))) = self.overflow.peek() {
            let key = Key {
                time_ps: t,
                seq,
                slot,
            };
            if self.stale_keys > 0 && self.is_stale(&key) {
                self.overflow.pop();
                self.stale_keys -= 1;
                continue;
            }
            debug_assert!(t >= self.horizon_start, "heap min precedes horizon");
            let idx = ((t - self.horizon_start) >> self.width_shift) as usize;
            if idx >= self.buckets.len() {
                break;
            }
            self.overflow.pop();
            self.buckets[idx].push(key);
            self.probe.rebucketed += 1;
        }
    }

    /// Doubles-and-more the bucket array to track the live-event count,
    /// then re-anchors so occupancy stays near constant.
    fn grow(&mut self) {
        let target = (self.live / 2)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if target <= self.buckets.len() {
            return;
        }
        self.unbucket_all();
        self.buckets.resize_with(target, Vec::new);
        let anchor_at = self
            .overflow
            .peek()
            .map_or(self.last_popped.as_ps(), |&Reverse((t, _, _))| t);
        self.anchor(anchor_at);
        self.refill();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The parallel cluster engine hands each shard's queue to a worker
/// thread between barriers; keep that statically legal for any `Send`
/// payload (the queue holds no shared or interior-mutable state).
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
            .field("buckets", &self.buckets.len())
            .field("width_ps", &(1u64 << self.width_shift))
            .field("overflow", &self.overflow.len())
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
        // The horizon may now sit at the far event; a near push must still
        // order before it.
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
        // Push far more events than MIN_BUCKETS × GROW_OCCUPANCY so the
        // calendar grows mid-stream, with colliding timestamps throughout.
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
