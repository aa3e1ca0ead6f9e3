//! Executor thread state (§3.4).
//!
//! An executor is pinned to a core and multiplexes continuations: it pops
//! requests from its bounded JBSQ queue, runs each function inside a fresh
//! PD, switches away when a function suspends on a nested invocation, and
//! resumes continuations as their children finish. Resumable continuations
//! take priority over new requests (finishing work bounds memory and tail
//! latency).

use std::collections::VecDeque;

use jord_hw::types::CoreId;
use jord_sim::SimTime;

use crate::invocation::InvocationId;

/// Per-executor runtime state.
#[derive(Debug)]
pub struct Executor {
    /// The core this executor is pinned to.
    pub core: CoreId,
    /// The orchestrator managing this executor.
    pub orch: usize,
    /// Not-yet-started invocations (bounded by the JBSQ bound).
    pub queue: VecDeque<InvocationId>,
    /// Suspended continuations that became resumable.
    pub ready: VecDeque<InvocationId>,
    /// The cache line holding this executor's queue state; orchestrators
    /// read it during JBSQ scans, the executor updates it on pop.
    pub queue_line: u64,
    /// The executor is busy until this instant.
    pub next_free: SimTime,
    /// A wake event is already in the event queue.
    pub scheduled: bool,
    /// NightCore only: the next of this worker's pipe message buffers,
    /// which it recycles round-robin.
    pub msg_buf: u64,
}

impl Executor {
    /// Creates an idle executor.
    pub fn new(core: CoreId, orch: usize, queue_line: u64) -> Self {
        Executor {
            core,
            orch,
            queue: VecDeque::new(),
            ready: VecDeque::new(),
            queue_line,
            next_free: SimTime::ZERO,
            scheduled: false,
            msg_buf: 0,
        }
    }

    /// The queue depth an orchestrator's JBSQ scan observes at time `now`:
    /// waiting requests, resumable continuations, and the segment currently
    /// executing (the executor publishes all three in its queue line; JBSQ
    /// balances on total work in line, as in RPCValet).
    pub fn observed_depth(&self, now: SimTime) -> usize {
        self.queue.len() + self.ready.len() + usize::from(self.next_free > now)
    }

    /// True if any work is pending.
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.ready.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_executor_is_idle() {
        let e = Executor::new(CoreId(3), 0, 0x1000);
        assert!(!e.has_work());
        assert_eq!(e.observed_depth(SimTime::ZERO), 0);
        assert!(!e.scheduled);
        assert_eq!(e.core, CoreId(3));
    }

    #[test]
    fn depth_counts_all_work_in_line() {
        let mut e = Executor::new(CoreId(3), 0, 0x1000);
        e.queue.push_back(InvocationId(0));
        e.queue.push_back(InvocationId(1));
        e.ready.push_back(InvocationId(2));
        assert_eq!(e.observed_depth(SimTime::ZERO), 3);
        // A running segment counts too.
        e.next_free = SimTime::from_ns(100);
        assert_eq!(e.observed_depth(SimTime::ZERO), 4);
        assert_eq!(
            e.observed_depth(SimTime::from_ns(100)),
            3,
            "idle again at next_free"
        );
        assert!(e.has_work());
    }
}
