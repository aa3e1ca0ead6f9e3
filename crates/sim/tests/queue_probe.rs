//! Op-count regression tests for cancellation cost.
//!
//! Hedged dispatch cancels losing request copies. The pre-refactor queue
//! did that with a linear scan plus a full drain-and-rebuild of the heap —
//! O(n log n) per cancel. The event queue tombstones in place, by
//! [`jord_sim::EventId`]. These tests pin that down with the
//! [`QueueProbe`] op counters rather than wall-clock timing: cancelling
//! out of a 100 000-event queue must not pop or re-schedule anything.

use jord_sim::{EventQueue, QueueProbe, SimTime};

/// A 100k-event queue with dense, colliding timestamps.
fn populated() -> (EventQueue<u32>, Vec<jord_sim::EventId>) {
    let mut q = EventQueue::new();
    let ids = (0..100_000u32)
        .map(|i| {
            // 97 is coprime to the range: every instant in 0..50_000ns
            // gets ~2 events, scheduled in shuffled order.
            let t = (i as u64 * 97) % 50_000;
            q.schedule(SimTime::from_ns(t), i)
        })
        .collect();
    (q, ids)
}

/// The delta between two probe snapshots.
fn delta(before: QueueProbe, after: QueueProbe) -> QueueProbe {
    QueueProbe {
        scheduled: after.scheduled - before.scheduled,
        popped: after.popped - before.popped,
        cancelled: after.cancelled - before.cancelled,
        ..QueueProbe::default()
    }
}

#[test]
fn cancel_in_a_100k_event_queue_is_o1() {
    let (mut q, ids) = populated();
    let before = q.probe();

    // Cancel 10k events scattered across the schedule.
    let mut cancelled = 0u64;
    for id in ids.iter().skip(3).step_by(10) {
        assert!(q.cancel(*id).is_cancelled());
        cancelled += 1;
    }

    let d = delta(before, q.probe());
    assert_eq!(d.cancelled, cancelled);
    // The old implementation drained and re-pushed the entire heap per
    // predicate removal; any such rebuild would show up in these counters.
    assert_eq!(d.scheduled, 0, "cancel must not re-schedule survivors");
    assert_eq!(d.popped, 0, "cancel must not pop survivors");
    assert_eq!(q.len(), 100_000 - cancelled as usize);
}

#[test]
fn cancelling_the_front_repeatedly_stays_scan_free() {
    let (mut q, ids) = populated();
    let before = q.probe();

    // Worst case for a tombstone design: the cancelled event is always the
    // settled front, forcing a re-settle each time. Still no rebuilds —
    // only tombstone skips. The schedule is known, so pop order is
    // (time, seq) = (time, i) ascending.
    let mut order: Vec<(u64, usize)> = (0..ids.len())
        .map(|i| (((i as u64 * 97) % 50_000), i))
        .collect();
    order.sort_unstable();
    for &(_, i) in order.iter().take(1_000) {
        assert!(q.cancel(ids[i]).is_cancelled());
    }

    let d = delta(before, q.probe());
    assert_eq!(d.cancelled, 1_000);
    assert_eq!(d.scheduled, 0);
    assert_eq!(d.popped, 0);
    assert_eq!(q.len(), 99_000);
    // The queue still pops correctly afterwards.
    let (t, e) = q.pop().unwrap();
    assert_eq!(
        (t, e),
        (SimTime::from_ns(order[1_000].0), {
            let (_, i) = order[1_000];
            i as u32
        })
    );
}

#[test]
fn a_handle_does_not_survive_a_drain() {
    let mut q = EventQueue::new();
    let id = q.schedule(SimTime::from_ns(5), 'a');
    let drained = q.drain();
    assert_eq!(drained, vec![(SimTime::from_ns(5), 'a')]);
    // The slot was retired, so the old handle is stale even though the
    // next schedule reuses the slot.
    let _b = q.schedule(SimTime::from_ns(6), 'b');
    assert!(
        !q.cancel(id).is_cancelled(),
        "pre-drain handle must be stale"
    );
    assert_eq!(q.len(), 1);
    assert_eq!(q.pop().unwrap().1, 'b');
}
