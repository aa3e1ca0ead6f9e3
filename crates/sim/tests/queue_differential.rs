//! Differential tests: the slab-backed [`EventQueue`] against the
//! pre-refactor binary-heap oracle.
//!
//! Both queues are driven through identical randomized interleavings of
//! schedule / pop / cancel / drain, and after every operation the
//! observable state must match exactly — full `(time, seq, payload)` pop
//! triples, `peek_time`, `len`, and `now`. The generators bias toward
//! inputs that stress the queue's own bookkeeping: same-timestamp
//! clusters (FIFO tie-breaking), cancels of popped, cancelled and
//! reused-slot handles, far-future outliers, and the [`SimTime::MAX`] edge
//! (saturating arithmetic at the end of time).
//!
//! The oracle is [`HeapOracle`]: the old `BinaryHeap` implementation plus
//! just enough id bookkeeping (two `BTreeSet`s, no slab) to honor
//! cancellation handles with the same tombstone semantics the queue uses
//! (survivors keep their sequence numbers). Any divergence is a bug in the
//! queue's slot, generation or tombstone logic — the heap's ordering is
//! the specification.

use proptest::prelude::*;

use jord_sim::oracle::HeapOracle;
use jord_sim::{EventQueue, SimTime};

/// One step of the differential script. Cancel targets index the list of
/// handles issued so far (modulo its length), so scripts routinely cancel
/// already-popped and already-cancelled events — the stale-handle paths
/// must agree too.
#[derive(Debug, Clone)]
enum Op {
    Schedule(u64),
    Pop,
    Cancel(usize),
    Drain,
}

/// Offsets (picoseconds ahead of `now`) biased toward ties and outliers.
/// `u64::MAX` saturates to [`SimTime::MAX`] when added to `now`.
fn offset() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..6,
        0u64..6,
        1u64..50_000,
        1u64..50_000,
        1u64..50_000,
        (1u64 << 40)..(1u64 << 50),
        Just(u64::MAX),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        offset().prop_map(Op::Schedule),
        offset().prop_map(Op::Schedule),
        offset().prop_map(Op::Schedule),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        any::<usize>().prop_map(Op::Cancel),
        any::<usize>().prop_map(Op::Cancel),
        Just(Op::Drain),
    ]
}

/// Runs one script against both queues, asserting observable equivalence
/// after every step. Payloads are unique `u32` counters so a swapped pair
/// of same-timestamp events cannot masquerade as equal.
fn run_script(ops: &[Op]) {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut oracle: HeapOracle<u32> = HeapOracle::new();
    let mut ids = Vec::new();
    let mut payload = 0u32;

    for op in ops {
        match op {
            Op::Schedule(off) => {
                let t = SimTime::from_ps(q.now().as_ps().saturating_add(*off));
                let qid = q.schedule(t, payload);
                let oid = oracle.schedule(t, payload);
                ids.push((qid, oid));
                payload += 1;
            }
            Op::Pop => {
                assert_eq!(
                    q.pop_entry(),
                    oracle.pop_entry(),
                    "pop triples (time, seq, payload) diverged"
                );
            }
            Op::Cancel(raw) => {
                if ids.is_empty() {
                    continue;
                }
                let (qid, oid) = ids[raw % ids.len()];
                assert_eq!(
                    q.cancel(qid).is_cancelled(),
                    oracle.cancel(oid),
                    "cancel outcome diverged (stale-handle path?)"
                );
            }
            Op::Drain => {
                assert_eq!(q.drain(), oracle.drain(), "drain order diverged");
            }
        }
        assert_eq!(q.len(), oracle.len());
        assert_eq!(q.is_empty(), oracle.is_empty());
        assert_eq!(q.now(), oracle.now());
        assert_eq!(q.peek_time(), oracle.peek_time());
    }

    // Flush: the full residual schedules must be identical too.
    loop {
        let (a, b) = (q.pop_entry(), oracle.pop_entry());
        assert_eq!(a, b, "residual pop triples diverged");
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline property: any interleaving of the queue's public
    /// operations is observationally identical between the event queue and
    /// the heap oracle.
    #[test]
    fn event_queue_matches_heap_oracle(ops in proptest::collection::vec(op(), 1..400)) {
        run_script(&ops);
    }

    /// Dense same-timestamp clusters: every event lands on one of a handful
    /// of instants, so ordering is decided almost entirely by the FIFO
    /// tie-break. Cancels and pops are interleaved throughout.
    #[test]
    fn tie_heavy_schedules_match(
        times in proptest::collection::vec(0u64..4, 1..300),
        cancels in proptest::collection::vec(any::<usize>(), 0..60),
    ) {
        let mut ops: Vec<Op> = times.iter().map(|&t| Op::Schedule(t)).collect();
        for (i, &c) in cancels.iter().enumerate() {
            ops.insert((c % ops.len()).max(1), if i % 3 == 0 { Op::Pop } else { Op::Cancel(c) });
        }
        run_script(&ops);
    }

    /// Far-future heavy: offsets spread across 2^40..2^55 picoseconds,
    /// popped as the clock jumps between them, finishing at the
    /// `SimTime::MAX` edge.
    #[test]
    fn far_future_heavy_schedules_match(
        offs in proptest::collection::vec((1u64 << 40)..(1u64 << 55), 1..100),
    ) {
        let mut ops: Vec<Op> = offs.iter().map(|&t| Op::Schedule(t)).collect();
        ops.push(Op::Schedule(u64::MAX));
        ops.push(Op::Schedule(0));
        for _ in 0..ops.len() {
            ops.push(Op::Pop);
        }
        run_script(&ops);
    }
}
