//! The conservative parallel engine: shards advance concurrently to a
//! lower-bound-on-timestamp horizon, then one serial phase replays the
//! dispatcher exactly as the sequential engine would.
//!
//! # How a window is shared
//!
//! The coordinating thread (the one that called `run`) computes each
//! window: its horizon and the shards with work at or before it. A
//! window with fewer than two runnable shards has nothing to share and
//! runs inline. Otherwise the coordinator posts the runnable shards to a
//! [`Deal`], and every thread, the coordinator included, claims the next
//! unclaimed shard until none are left. The coordinator then waits only
//! for the shards a helper has already claimed. A helper that is asleep,
//! descheduled or not yet started claims nothing, so it never stalls a
//! window: the coordinator simply advances every shard itself. A helper
//! with nothing to claim yields and looks again a bounded number of
//! times ([`SPINS`]), then sleeps on a condvar until the next post. With
//! one thread the loop is the same, with no helpers.
//!
//! # Why this is bit-identical to the sequential engine
//!
//! The sequential engine ([`ClusterDispatcher::advance_once`]) has one
//! scheduling rule: the globally earliest event wins, a worker beats the
//! dispatcher on ties, and among tied workers the lowest index steps
//! first. The parallel engine preserves that rule by construction:
//!
//! 1. **Horizon** ([`jord_sim::lbts`]): each window's bound is
//!    `H = min(dispatcher_next, min_shard_next + lookahead)`. No
//!    dispatcher event exists before `H`, and any cross-shard message a
//!    worker step could originate is stamped at least `lookahead` after
//!    the step's pop time — so every worker event at `t ≤ H` is
//!    independent of every other shard, and shards may pop them in any
//!    interleaving, on any thread (phase 1, concurrent).
//! 2. **Merge order**: phase 1 defers notice delivery into per-shard
//!    outboxes stamped with the producing pop time. Once every shard of
//!    the window is done they are pushed into the dispatcher queue sorted
//!    by `(time, worker_id, seq)` — pop time, then shard index, then
//!    outbox order. That is exactly the chronological push order of the
//!    sequential engine (it steps tied workers lowest-index first), and
//!    the dispatcher queue breaks timestamp ties FIFO by push order, so
//!    delivery order is identical whichever thread advanced which shard.
//! 3. **Serial phase**: dispatcher events at or before `H` are then
//!    processed by the *same* `advance_once` loop the sequential engine
//!    runs, bounded by `H`. Any worker events it injects (deliveries,
//!    failover re-routes) at times `≤ H` are caught up under the
//!    sequential tie rule before the next dispatcher action, and their
//!    notices are pushed immediately — again matching sequential push
//!    chronology, because those pops happen at the action time, after
//!    every earlier-stamped outbox notice is already queued.
//!
//! Worker state at any dispatcher action is also identical: an action at
//! time `t` always runs with every worker advanced through exactly the
//! events `≤ t` (`H ≤ dispatcher_next` guarantees the action sits at the
//! window edge). The one place a handler reaches *into* another shard
//! ahead of the window edge is a completion's `cancel_tagged` pullback:
//! sound only if no other shard advanced past the completion's
//! timestamp, i.e. if the completion landed at least `lookahead` after
//! its producing pop. The engine asserts that contract at merge time and
//! panics with a configuration diagnosis rather than silently diverging,
//! at any thread count: the coordinator's [`Dealer`] closes the deal as
//! it unwinds, so the helpers exit instead of leaving the thread scope
//! waiting on them.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use jord_sim::{lbts, SimDuration, SimTime};

use super::shard::WorkerShard;
use super::{us_dur, ClusterDispatcher, ClusterEvent};
use crate::events::{NoticeOutcome, WorkerNotice};

/// Conservative parallel engine tuning ([`super::ClusterConfig::engine`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Threads that may advance a window's shards, counting the
    /// coordinating thread itself. `1` runs the full windowed engine
    /// (horizons, outbox merge, serial phases) on one thread — the
    /// cheapest way to differential-test the machinery. Must be ≥ 1.
    pub threads: usize,
    /// Declared minimum latency (µs of simulated time) of any
    /// cross-shard effect, measured from the pop time of the worker step
    /// that originates it. Sound for this model because a completion
    /// notice always trails its final execution chunk by the teardown
    /// path (destroy-PD, notify, ArgBuf free — see `WorkerServer`
    /// `finish`), and no other worker-originated effect crosses shards
    /// at all. Larger values widen windows (more parallelism); a value
    /// above the true minimum is detected at run time and panics rather
    /// than diverging. Must be positive and at most the heartbeat
    /// interval.
    pub lookahead_us: f64,
}

/// Default [`EngineConfig::lookahead_us`]: 50 ns of simulated time,
/// comfortably below the completion teardown path of every workload in
/// the tree while still wide enough to batch a saturated worker's
/// back-to-back segment pops into one window.
pub const DEFAULT_LOOKAHEAD_US: f64 = 0.05;

impl EngineConfig {
    /// An engine with `threads` threads and the default lookahead.
    pub fn threads(threads: usize) -> Self {
        EngineConfig {
            threads,
            lookahead_us: DEFAULT_LOOKAHEAD_US,
        }
    }
}

/// How often a helper with nothing to claim yields and looks again
/// before it sleeps on the condvar. A helper still awake when the next
/// window is posted claims a shard without waiting to be woken: on a
/// 2-vCPU host this ran `fleet-crowd` faster in 10 of 10 pairs, and the
/// 2/4/8-thread `jord-bench engine` rows faster, than sleeping at once.
const SPINS: u32 = 100;

/// A unit of phase-1 work: one shard, advanced to one horizon.
///
/// Carries a raw pointer so the coordinating thread can post disjoint
/// `&mut`-equivalent loans out of its `slots` vector without the borrow
/// checker seeing one `&mut` per element (which a growing `Vec` cannot
/// hand out across threads). Soundness is the deal's discipline, not
/// the type: see the safety argument at the use sites.
#[derive(Clone, Copy)]
struct ShardTask {
    shard: *mut WorkerShard,
    horizon: SimTime,
}

// SAFETY: a ShardTask is only ever created from the coordinator's live
// `&mut` borrow of the slots vector, for the pairwise-distinct indices
// of one window. The deal hands each task to exactly one thread, under
// its lock, and the coordinator touches `slots` again only after every
// claimed task has reported done, so the shard it points to is touched
// by exactly one thread per window. `horizon` is plain data.
unsafe impl Send for ShardTask {}

/// One window's work, shared by claiming: the coordinator posts a
/// window's tasks, every thread takes the next unclaimed task until none
/// are left, and the coordinator then waits for the tasks helpers took.
struct Deal<T> {
    state: Mutex<DealState<T>>,
    /// Helpers sleep here until a window is posted or the deal closes.
    posted: Condvar,
    /// The coordinator sleeps here until every helper claim is done.
    settled: Condvar,
}

struct DealState<T> {
    /// The current window's tasks; `tasks[next..]` are unclaimed. Kept
    /// across windows, so posting a window allocates nothing.
    tasks: Vec<T>,
    next: usize,
    /// Tasks a helper has claimed and not yet reported done.
    in_flight: usize,
    /// The run is over, or the coordinator is unwinding: helpers exit.
    closed: bool,
    /// The first panic a helper caught in a task, re-raised on the
    /// coordinator once the window settles.
    panic: Option<Box<dyn Any + Send>>,
}

impl<T: Copy> DealState<T> {
    fn claim(&mut self) -> Option<T> {
        let task = *self.tasks.get(self.next)?;
        self.next += 1;
        Some(task)
    }
}

impl<T> Deal<T> {
    fn new() -> Self {
        Deal {
            state: Mutex::new(DealState {
                tasks: Vec::new(),
                next: 0,
                in_flight: 0,
                closed: false,
                panic: None,
            }),
            posted: Condvar::new(),
            settled: Condvar::new(),
        }
    }

    /// Poisoning is ignored: tasks run outside the lock, and each update
    /// made under it leaves the state consistent.
    fn lock(&self) -> MutexGuard<'_, DealState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The coordinating thread's side of the deal.
    fn dealer(&self) -> Dealer<'_, T> {
        Dealer(self)
    }
}

impl<T: Copy> Deal<T> {
    /// A helper's side of the deal: claims and runs tasks, sleeping when
    /// there are none, until the deal closes. A task that panics releases
    /// its claim and hands the panic to the coordinator, which re-raises
    /// it once the window settles; the helper carries on serving.
    fn serve(&self, work: impl Fn(T)) {
        let mut st = self.lock();
        let mut spins = 0;
        while !st.closed {
            let Some(task) = st.claim() else {
                if spins < SPINS {
                    spins += 1;
                    drop(st);
                    thread::yield_now();
                    st = self.lock();
                } else {
                    spins = 0;
                    st = self.posted.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                continue;
            };
            spins = 0;
            st.in_flight += 1;
            drop(st);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(task)));
            st = self.lock();
            st.in_flight -= 1;
            if let Err(payload) = outcome {
                st.panic.get_or_insert(payload);
            }
            if st.in_flight == 0 {
                self.settled.notify_one();
            }
        }
    }
}

/// The coordinating thread's handle on a [`Deal`]. Dropping it — at the
/// end of the run, or while unwinding from a panic — closes the deal and
/// wakes every helper, so each one exits instead of leaving
/// `thread::scope` waiting on it forever.
struct Dealer<'a, T>(&'a Deal<T>);

impl<T: Copy> Dealer<'_, T> {
    /// Runs one window's tasks with whichever helpers claim some, and
    /// returns once every task is done. Re-raises a helper's panic.
    fn share(&self, tasks: impl IntoIterator<Item = T>, work: impl Fn(T)) {
        let deal = self.0;
        let mut st = deal.lock();
        debug_assert!(st.next == st.tasks.len() && st.in_flight == 0);
        st.tasks.clear();
        st.tasks.extend(tasks);
        st.next = 0;
        deal.posted.notify_all();
        while let Some(task) = st.claim() {
            drop(st);
            work(task);
            st = deal.lock();
        }
        while st.in_flight > 0 {
            st = deal
                .settled
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = st.panic.take() {
            drop(st);
            panic::resume_unwind(payload);
        }
    }
}

impl<T> Drop for Dealer<'_, T> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.posted.notify_all();
    }
}

/// A window's merge buffer: `(pop time, worker, notice)`.
type Merged = Vec<(SimTime, usize, WorkerNotice)>;

impl ClusterDispatcher {
    /// Runs the windowed conservative engine to completion (the
    /// parallel counterpart of the sequential `advance_once` loop):
    /// `eng.threads - 1` helper threads for the whole run (spawning per
    /// window would dwarf the windows) and one shared deal per window.
    pub(super) fn run_conservative(&mut self, eng: EngineConfig) {
        let lookahead = us_dur(eng.lookahead_us);
        let deal = Deal::new();
        let advance = |task: ShardTask| {
            // SAFETY: the deal hands each posted task to exactly one
            // thread, and the coordinator neither reads `slots` nor posts
            // the next window until every claimed task has reported
            // done; the pointee outlives the window (`slots` cannot grow
            // while a window is being shared).
            unsafe { (*task.shard).advance_to(task.horizon) }
        };
        // Window buffers, kept across windows so that a window allocates
        // nothing once they have grown to the fleet's size.
        let mut runnable = Vec::new();
        let mut merged = Merged::new();
        thread::scope(|scope| {
            for _ in 1..eng.threads {
                scope.spawn(|| deal.serve(advance));
            }
            let dealer = deal.dealer();
            while let Some(h) = self.next_window(lookahead, &mut runnable) {
                if runnable.len() < 2 {
                    for &w in &runnable {
                        self.slots[w].advance_to(h);
                    }
                } else {
                    // One raw base pointer for the whole window: nothing
                    // may create a (safe) reference into `slots` until
                    // `share` returns.
                    let base = self.slots.as_mut_ptr();
                    dealer.share(
                        runnable.iter().map(|&w| ShardTask {
                            // SAFETY: `w` indexes `slots`, and `runnable`
                            // holds distinct indices.
                            shard: unsafe { base.add(w) },
                            horizon: h,
                        }),
                        advance,
                    );
                }
                self.merge_window(h, &runnable, &mut merged);
                while self.advance_once(Some(h)) {}
            }
        });
    }

    /// Computes the next window: returns the LBTS horizon and fills
    /// `runnable` with the shards that have work at or before it. `None`
    /// when the simulation is out of work (the sequential engine's
    /// termination condition, verbatim).
    fn next_window(&self, lookahead: SimDuration, runnable: &mut Vec<usize>) -> Option<SimTime> {
        let shard_next = self
            .slots
            .iter()
            .filter(|s| !s.crashed)
            .filter_map(|s| s.server.next_event_time())
            .min();
        let h = lbts(self.events.peek_time(), shard_next, lookahead)?;
        runnable.clear();
        runnable.extend(
            self.slots
                .iter()
                .enumerate()
                .filter(|(_, s)| !s.crashed)
                .filter(|(_, s)| s.server.next_event_time().is_some_and(|t| t <= h))
                .map(|(w, _)| w),
        );
        Some(h)
    }

    /// Phase 2: fold per-shard bookkeeping and push every outbox notice
    /// into the dispatcher queue in `(time, worker_id, seq)` order — the
    /// sequential engine's push chronology. Drains the outboxes and
    /// `merged` in place, so their capacity carries to the next window.
    fn merge_window(&mut self, h: SimTime, runnable: &[usize], merged: &mut Merged) {
        for &w in runnable {
            let slot = &mut self.slots[w];
            if let Some(t) = slot.advanced.take() {
                self.finished_at = self.finished_at.max(t);
            }
            merged.extend(slot.outbox.drain(..).map(|(tau, n)| (tau, w, n)));
        }
        // Stable: equal (pop time, worker) keys keep their outbox order.
        merged.sort_by_key(|&(tau, w, _)| (tau, w));
        for (tau, w, n) in merged.drain(..) {
            // The lookahead contract, checked where it matters: a
            // completion inside the window (n.at ≤ h is fine — every
            // shard stopped at h) may pull back copies from shards that
            // advanced past its timestamp only if no such copy exists.
            if n.at < h && matches!(n.outcome, NoticeOutcome::Completed { .. }) {
                let copies = self.requests[(n.tag - 1) as usize].copies.len();
                assert!(
                    copies <= 1,
                    "engine.lookahead_us exceeds this workload's minimum \
                     completion latency: request {} completed at {} (produced \
                     by a pop at {tau}), inside a window advanced to {h}, \
                     while {copies} copies are live — the cancel pullback \
                     would reach into a shard's past; lower the lookahead",
                    n.tag,
                    n.at,
                );
            }
            self.events.push(n.at, ClusterEvent::Notice(w, n));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::thread::ThreadId;

    /// Shares 60 windows, cycling through `sizes` for their task counts,
    /// among the coordinator and `helpers` helper threads, and checks
    /// after each window that every task ran exactly once.
    fn every_task_runs_once(helpers: usize, sizes: &[usize]) {
        let deal = Deal::new();
        let max = sizes.iter().copied().max().unwrap_or(0);
        let runs: Vec<AtomicUsize> = (0..max).map(|_| AtomicUsize::new(0)).collect();
        let work = |i: usize| {
            runs[i].fetch_add(1, Ordering::Relaxed);
        };
        thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(|| deal.serve(work));
            }
            let dealer = deal.dealer();
            for window in 0..60 {
                let n = sizes[window % sizes.len()];
                dealer.share(0..n, work);
                // `share` returned, so every claimed task reported done.
                for (i, r) in runs.iter().enumerate() {
                    let want = usize::from(i < n);
                    assert_eq!(
                        r.swap(0, Ordering::Relaxed),
                        want,
                        "task {i} of a {n}-task window, {helpers} helper(s)"
                    );
                }
            }
        });
    }

    #[test]
    fn every_task_of_a_window_runs_exactly_once_with_no_helpers() {
        every_task_runs_once(0, &[2, 5, 3, 8]);
    }

    #[test]
    fn every_task_of_a_window_runs_exactly_once_with_one_helper() {
        every_task_runs_once(1, &[2, 5, 3, 8, 64]);
    }

    #[test]
    fn every_task_of_a_window_runs_exactly_once_with_more_helpers_than_tasks() {
        every_task_runs_once(6, &[2, 3, 4]);
    }

    #[test]
    fn the_coordinator_finishes_a_window_alone_when_no_helper_claims() {
        let deal = Deal::new();
        let ran_on: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        let work = |_: usize| {
            ran_on
                .lock()
                .expect("no task panics")
                .push(thread::current().id())
        };
        let window_done = Barrier::new(2);
        thread::scope(|scope| {
            // A helper that has not started serving yet: it starts only
            // once the window is over.
            scope.spawn(|| {
                window_done.wait();
                deal.serve(work);
            });
            let dealer = deal.dealer();
            dealer.share(0..4, work);
            let me = thread::current().id();
            let ran_on = ran_on.lock().expect("no task panics");
            assert_eq!(ran_on.len(), 4, "every task ran");
            assert!(ran_on.iter().all(|&t| t == me), "all on the coordinator");
            window_done.wait();
        });
    }

    #[test]
    fn a_task_that_panics_on_a_helper_is_re_raised_by_the_coordinator() {
        let deal = Deal::new();
        let coordinator = thread::current().id();
        // The coordinator always claims a window's first task itself; it
        // holds that task until the helper has claimed the second.
        let both_claimed = Barrier::new(2);
        let work = |_: usize| {
            both_claimed.wait();
            if thread::current().id() != coordinator {
                panic!("helper task failed");
            }
        };
        thread::scope(|scope| {
            scope.spawn(|| deal.serve(work));
            let dealer = deal.dealer();
            let err = panic::catch_unwind(AssertUnwindSafe(|| dealer.share(0..2, work)))
                .expect_err("the helper's panic reaches the coordinator");
            assert_eq!(err.downcast_ref::<&str>(), Some(&"helper task failed"));
        });
    }
}
