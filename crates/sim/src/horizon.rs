//! Conservative-parallel time plumbing: lookahead and the
//! lower-bound-on-timestamp (LBTS) horizon.
//!
//! A conservative parallel DES may only let a shard advance to the
//! earliest instant at which *someone else* could still affect it. With
//! one coordinator queue (timestamped cross-shard messages, always
//! processed at their own time) and a declared minimum cross-shard
//! latency `lookahead`, that bound is
//!
//! ```text
//! LBTS = min(coordinator_next, min_over_shards(shard_next) + lookahead)
//! ```
//!
//! Every event a shard pops at `t ≤ LBTS` is safe: any message another
//! shard could still originate is stamped at least `lookahead` after
//! that shard's own next event, and the coordinator acts only at its
//! queued times. The horizon is recomputed for every window; within a
//! window shards share nothing.

use crate::time::{SimDuration, SimTime};

/// The lower-bound-on-timestamp horizon for one window.
///
/// `coordinator_next` is the earliest pending coordinator event (`None`
/// when its queue is empty); `shard_next` is the minimum next-event time
/// across all runnable shards (`None` when every shard is idle);
/// `lookahead` is the declared minimum latency of any cross-shard
/// message measured from the *pop time* of the step that originates it.
///
/// Returns `None` only when both inputs are `None` — the simulation is
/// out of work. The returned bound is inclusive: events at exactly the
/// horizon are safe to pop, because a message originated at the horizon
/// is stamped strictly later (`lookahead > 0`) and a coordinator action
/// at the horizon is processed only after every shard has advanced
/// through it.
pub fn lbts(
    coordinator_next: Option<SimTime>,
    shard_next: Option<SimTime>,
    lookahead: SimDuration,
) -> Option<SimTime> {
    let shard_bound = shard_next.map(|t| t + lookahead);
    match (coordinator_next, shard_bound) {
        (Some(c), Some(s)) => Some(c.min(s)),
        (Some(c), None) => Some(c),
        (None, Some(s)) => Some(s),
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn coordinator_bounds_the_window() {
        let h = lbts(Some(ns(100)), Some(ns(90)), SimDuration::from_ns(50));
        assert_eq!(h, Some(ns(100))); // 90 + 50 = 140 > 100
    }

    #[test]
    fn lookahead_bounds_the_window() {
        let h = lbts(Some(ns(1000)), Some(ns(90)), SimDuration::from_ns(50));
        assert_eq!(h, Some(ns(140)));
    }

    #[test]
    fn idle_sides_drop_out() {
        assert_eq!(
            lbts(None, Some(ns(7)), SimDuration::from_ns(3)),
            Some(ns(10))
        );
        assert_eq!(
            lbts(Some(ns(5)), None, SimDuration::from_ns(3)),
            Some(ns(5))
        );
        assert_eq!(lbts(None, None, SimDuration::from_ns(3)), None);
    }
}
