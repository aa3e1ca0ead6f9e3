//! The typed per-request state machine (Figure 4, made explicit).
//!
//! [`transition`] is the **only** place a request may change state: given
//! the request's current [`InvocationState`] and a [`LifecycleEvent`], it
//! either returns the successor state or rejects the transition as
//! illegal. The server funnels every event through
//! [`LifecycleEngine::apply`] and then publishes it on the event bus, so a
//! bookkeeping path that used to be hand-threaded through dozens of call
//! sites is now a legality-checked table lookup.
//!
//! The state graph (terminal states retire the request row):
//!
//! ```text
//!             Offered ──Admitted──▶ Queued ──Dispatched──▶ InFlight
//!            ▲   │  │                 │  │                 │  │  │
//!  RetryFired│   │  └──Cancelled─┐    │  └──Cancelled─┐    │  │  └─Completed
//!            │  Shed             ▼    │               ▼    │  │
//!            │   │          [Cancelled]◀──────────────┘  Failed│
//!            │   ▼                    │                        │
//!         RetryWait◀──RetryScheduled──┴────RetryScheduled──────┘
//!            │    │
//!            │    └──RetryDropped──▶ [Failed]
//!            └─(unchanged journal row survives a worker crash)
//! ```
//!
//! The [`LifecycleEngine`] keeps one [`RequestRow`] per live request —
//! the table the cluster hooks (`queued_tags`, `cancel_tagged`,
//! `crash_for_cluster`) read instead of re-walking server internals, and
//! a fourth independent witness for the crash-recovery replay proof.

use std::collections::BTreeMap;
use std::fmt;

use jord_sim::SimTime;

use crate::events::LifecycleEvent;
use crate::function::FunctionId;
use crate::invocation::InvocationId;

/// Where a live external request currently is.
///
/// Terminal states ([`Completed`](Self::Completed), [`Failed`](Self::Failed),
/// [`Shed`](Self::Shed), [`Cancelled`](Self::Cancelled)) are returned by
/// [`transition`] but never stored: [`LifecycleEngine::apply`] removes the
/// request row instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvocationState {
    /// Scheduled in the future-event list, not yet at an orchestrator.
    Offered,
    /// In an orchestrator's external queue (admitted, not dispatched).
    Queued,
    /// Handed to an executor (queued there, running, or suspended).
    InFlight,
    /// Waiting out a retry backoff (or a crash re-admission delay).
    RetryWait,
    /// Terminal: completed successfully.
    Completed,
    /// Terminal: failed (retries exhausted, crash policy, or dropped
    /// retry).
    Failed,
    /// Terminal: shed at admission.
    Shed,
    /// Terminal: withdrawn by the tier above.
    Cancelled,
}

impl InvocationState {
    /// True for the states that retire the request row.
    pub(crate) fn is_terminal(self) -> bool {
        matches!(
            self,
            InvocationState::Completed
                | InvocationState::Failed
                | InvocationState::Shed
                | InvocationState::Cancelled
        )
    }
}

/// An illegal state transition: the event cannot be applied to the
/// request's current state. Reaching this is a runtime bug, not an input
/// error — the server panics on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleError {
    /// The state the request was in (`None`: no row existed).
    pub state: Option<InvocationState>,
    /// The rejected event's variant name.
    pub event: &'static str,
}

impl fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.state {
            Some(s) => write!(f, "event {} is illegal in state {s:?}", self.event),
            None => write!(f, "event {} requires a live request row", self.event),
        }
    }
}

impl std::error::Error for LifecycleError {}

/// The single legality check every request state change passes through.
///
/// `state` is the request's current state (`None` when no row exists:
/// required for [`LifecycleEvent::Offered`] and the stat-only events,
/// illegal for everything else). On success, returns the successor state
/// (`None` only for stat-only events).
///
/// # Errors
///
/// Returns a [`LifecycleError`] naming the state/event pair when the
/// transition is not in the table.
pub fn transition(
    state: Option<InvocationState>,
    event: &LifecycleEvent,
) -> Result<Option<InvocationState>, LifecycleError> {
    use InvocationState::*;
    let next = match (event, state) {
        (LifecycleEvent::Offered { .. }, None) => Some(Offered),
        (LifecycleEvent::Shed { .. }, Some(Offered)) => Some(Shed),
        (LifecycleEvent::Admitted { .. }, Some(Offered)) => Some(Queued),
        (LifecycleEvent::ArgBufGranted { .. }, Some(Queued)) => Some(Queued),
        (LifecycleEvent::Dispatched { .. }, Some(Queued)) => Some(InFlight),
        (LifecycleEvent::PdCreated { .. }, Some(InFlight)) => Some(InFlight),
        (LifecycleEvent::Completed { .. }, Some(InFlight)) => Some(Completed),
        // A request can fail out of the orchestrator queue too (a crash
        // killing queued work under at-most-once semantics).
        (LifecycleEvent::Failed { .. }, Some(Queued | InFlight)) => Some(Failed),
        (LifecycleEvent::RetryScheduled { .. }, Some(Queued | InFlight)) => Some(RetryWait),
        (LifecycleEvent::RetryFired { .. }, Some(RetryWait)) => Some(Offered),
        (LifecycleEvent::RetryDropped { .. }, Some(RetryWait)) => Some(Failed),
        (LifecycleEvent::Cancelled { .. }, Some(Offered | Queued)) => Some(Cancelled),
        // Stat-only events never touch a request row.
        (
            LifecycleEvent::Crashed { .. }
            | LifecycleEvent::BrownoutChanged { .. }
            | LifecycleEvent::Aborted { .. }
            | LifecycleEvent::Spilled
            | LifecycleEvent::Glitched { .. }
            | LifecycleEvent::InvocationFinished { .. }
            | LifecycleEvent::PdSetup { .. }
            | LifecycleEvent::PdSanitized { .. }
            | LifecycleEvent::CrashKilled { .. }
            | LifecycleEvent::Replayed { .. }
            | LifecycleEvent::PoolEvicted { .. }
            | LifecycleEvent::TableCompacted { .. }
            | LifecycleEvent::MemoryPressureChanged { .. }
            | LifecycleEvent::JournalScanned { .. }
            | LifecycleEvent::CheckpointSealChecked { .. }
            | LifecycleEvent::RecoveryRungTaken { .. }
            | LifecycleEvent::WorkDemoted { .. },
            None,
        ) => None,
        _ => {
            return Err(LifecycleError {
                state,
                event: event.name(),
            })
        }
    };
    Ok(next)
}

/// One live request as the lifecycle engine tracks it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRow {
    /// Worker-local request id.
    pub req: u64,
    /// Cluster tag (0 = untagged).
    pub tag: u64,
    /// The requested function.
    pub func: FunctionId,
    /// Payload size.
    pub bytes: u64,
    /// Arrival time (original receipt, preserved across retries).
    pub arrival: SimTime,
    /// Current dispatch attempt.
    pub attempt: u32,
    /// Where the request is.
    pub state: InvocationState,
    /// Slab id, while admitted ([`Queued`](InvocationState::Queued) /
    /// [`InFlight`](InvocationState::InFlight)).
    pub slab: Option<InvocationId>,
    /// Pending-retry token, while in
    /// [`RetryWait`](InvocationState::RetryWait).
    pub token: Option<u64>,
}

/// The request table plus the id/token allocators: every state change
/// enters through [`apply`](Self::apply), which delegates legality to
/// [`transition`] and keeps the rows in sync with the event stream.
#[derive(Debug)]
pub struct LifecycleEngine {
    rows: BTreeMap<u64, RequestRow>,
    next_req: u64,
    next_token: u64,
}

impl LifecycleEngine {
    /// An empty engine.
    pub fn new() -> Self {
        LifecycleEngine {
            rows: BTreeMap::new(),
            // Request ids start at 1 so 0 can mean "no request" in the
            // invocation record (internal invocations carry req 0).
            next_req: 1,
            next_token: 0,
        }
    }

    /// Allocates the next request id (monotonic, never reused).
    pub fn alloc_req(&mut self) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        req
    }

    /// Allocates the next pending-retry token (monotonic across the whole
    /// run, even when a cluster crash replaces the journal).
    pub fn alloc_token(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    /// Applies one event: legality-checks it with [`transition`] and
    /// updates the request row (insert on offer, retire on a terminal
    /// state).
    ///
    /// # Errors
    ///
    /// Returns the [`LifecycleError`] unchanged when the transition is
    /// illegal; the table is untouched in that case.
    pub fn apply(&mut self, ev: &LifecycleEvent) -> Result<(), LifecycleError> {
        let Some(req) = ev.req() else {
            let next = transition(None, ev)?;
            debug_assert!(next.is_none(), "stat-only events yield no state");
            return Ok(());
        };
        let state = self.rows.get(&req).map(|r| r.state);
        let next = transition(state, ev)?.expect("request events always yield a state");
        if next.is_terminal() {
            self.rows.remove(&req);
        } else {
            self.update_row(req, next, ev);
        }
        Ok(())
    }

    fn update_row(&mut self, req: u64, next: InvocationState, ev: &LifecycleEvent) {
        if let LifecycleEvent::Offered {
            func,
            bytes,
            tag,
            at,
            ..
        } = *ev
        {
            let prev = self.rows.insert(
                req,
                RequestRow {
                    req,
                    tag,
                    func,
                    bytes,
                    arrival: at,
                    attempt: 0,
                    state: next,
                    slab: None,
                    token: None,
                },
            );
            debug_assert!(prev.is_none(), "request {req} offered twice");
            return;
        }
        let row = self.rows.get_mut(&req).expect("transition checked the row");
        row.state = next;
        match *ev {
            LifecycleEvent::Admitted {
                id,
                func,
                bytes,
                arrival,
                attempt,
                ..
            } => {
                row.slab = Some(id);
                row.func = func;
                row.bytes = bytes;
                row.arrival = arrival;
                row.attempt = attempt;
            }
            LifecycleEvent::RetryScheduled { token, retry, .. } => {
                row.slab = None;
                row.token = Some(token);
                row.func = retry.func;
                row.bytes = retry.bytes;
                row.arrival = retry.arrival;
                row.attempt = retry.attempt;
            }
            LifecycleEvent::RetryFired { .. } => row.token = None,
            _ => {}
        }
    }

    /// Number of live request rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no requests are live.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Every live row, in request-id (offer) order.
    pub fn rows(&self) -> impl Iterator<Item = &RequestRow> {
        self.rows.values()
    }

    /// Tagged rows currently in one of `states`, in request-id order —
    /// the shared walk behind `queued_tags`, `cancel_tagged`, and
    /// `crash_for_cluster`.
    pub fn tagged_in<'a>(
        &'a self,
        states: &'a [InvocationState],
    ) -> impl Iterator<Item = &'a RequestRow> + 'a {
        self.rows
            .values()
            .filter(move |r| r.tag != 0 && states.contains(&r.state))
    }

    /// The first (oldest-offered) row carrying `tag` in one of `states`.
    pub fn find_tagged(&self, tag: u64, states: &[InvocationState]) -> Option<RequestRow> {
        self.rows
            .values()
            .find(|r| r.tag == tag && states.contains(&r.state))
            .copied()
    }

    /// The request holding slab id `id`, if any.
    pub fn req_of_slab(&self, id: InvocationId) -> Option<u64> {
        self.rows
            .values()
            .find(|r| r.slab == Some(id))
            .map(|r| r.req)
    }

    /// The request holding pending-retry `token`, if any.
    pub fn req_of_token(&self, token: u64) -> Option<u64> {
        self.rows
            .values()
            .find(|r| r.token == Some(token))
            .map(|r| r.req)
    }

    /// Slab ids of every admitted row, sorted — compared against the
    /// journal's in-flight table and the slab's external population in
    /// the crash-recovery proof.
    pub fn live_slab_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .rows
            .values()
            .filter_map(|r| r.slab)
            .map(|i| i.0)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Tokens of every retry-waiting row, sorted — compared against the
    /// journal's pending-retry table in the crash-recovery proof.
    pub fn live_tokens(&self) -> Vec<u64> {
        let mut toks: Vec<u64> = self.rows.values().filter_map(|r| r.token).collect();
        toks.sort_unstable();
        toks
    }

    /// Removes and returns every live row in request-id order (a cluster
    /// crash strands all of them to the dispatcher at once).
    pub fn drain_rows(&mut self) -> Vec<RequestRow> {
        std::mem::take(&mut self.rows).into_values().collect()
    }
}

impl Default for LifecycleEngine {
    fn default() -> Self {
        LifecycleEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RetryKind;
    use crate::journal::PendingRetry;

    fn offered(req: u64, tag: u64) -> LifecycleEvent {
        LifecycleEvent::Offered {
            req,
            func: FunctionId(0),
            bytes: 64,
            tag,
            at: SimTime::ZERO,
        }
    }

    fn admitted(req: u64, slab: usize) -> LifecycleEvent {
        LifecycleEvent::Admitted {
            req,
            id: InvocationId(slab),
            func: FunctionId(0),
            bytes: 64,
            arrival: SimTime::ZERO,
            attempt: 0,
            tag: 0,
            orch: 0,
        }
    }

    #[test]
    fn happy_path_walks_the_whole_chain() {
        let mut eng = LifecycleEngine::new();
        let req = eng.alloc_req();
        eng.apply(&offered(req, 0)).unwrap();
        assert_eq!(eng.rows().next().unwrap().state, InvocationState::Offered);
        eng.apply(&admitted(req, 3)).unwrap();
        assert_eq!(eng.live_slab_ids(), [3]);
        eng.apply(&LifecycleEvent::Dispatched {
            req,
            id: InvocationId(3),
            executor: 0,
        })
        .unwrap();
        assert_eq!(eng.rows().next().unwrap().state, InvocationState::InFlight);
        eng.apply(&LifecycleEvent::Completed {
            req,
            id: InvocationId(3),
            tag: 0,
            at: SimTime::ZERO,
            latency: jord_sim::SimDuration::ZERO,
            measured: true,
        })
        .unwrap();
        assert!(eng.is_empty(), "terminal outcome retires the row");
    }

    #[test]
    fn illegal_transitions_are_rejected_and_leave_the_table_intact() {
        let mut eng = LifecycleEngine::new();
        let req = eng.alloc_req();
        // Dispatch without admission: no row yet.
        let err = eng
            .apply(&LifecycleEvent::Dispatched {
                req,
                id: InvocationId(0),
                executor: 0,
            })
            .unwrap_err();
        assert_eq!(err.state, None);
        assert_eq!(err.event, "Dispatched");
        assert!(err.to_string().contains("Dispatched"));
        eng.apply(&offered(req, 0)).unwrap();
        // Completing an undispatched request is illegal.
        let err = eng
            .apply(&LifecycleEvent::Completed {
                req,
                id: InvocationId(0),
                tag: 0,
                at: SimTime::ZERO,
                latency: jord_sim::SimDuration::ZERO,
                measured: true,
            })
            .unwrap_err();
        assert_eq!(err.state, Some(InvocationState::Offered));
        assert_eq!(eng.len(), 1, "failed apply mutates nothing");
        assert_eq!(eng.rows().next().unwrap().state, InvocationState::Offered);
    }

    #[test]
    fn retry_round_trip_reuses_the_row() {
        let mut eng = LifecycleEngine::new();
        let req = eng.alloc_req();
        eng.apply(&offered(req, 7)).unwrap();
        eng.apply(&admitted(req, 0)).unwrap();
        let token = eng.alloc_token();
        eng.apply(&LifecycleEvent::RetryScheduled {
            req,
            id: InvocationId(0),
            token,
            retry: PendingRetry {
                func: FunctionId(0),
                bytes: 64,
                arrival: SimTime::ZERO,
                attempt: 1,
                tag: 7,
                due: SimTime::from_us(5),
            },
            kind: RetryKind::Backoff,
            measured: true,
        })
        .unwrap();
        assert_eq!(eng.live_tokens(), [token]);
        assert_eq!(eng.live_slab_ids(), [] as [usize; 0]);
        assert_eq!(eng.req_of_token(token), Some(req));
        let row = *eng.rows().next().unwrap();
        assert_eq!(row.attempt, 1);
        assert_eq!(row.state, InvocationState::RetryWait);
        eng.apply(&LifecycleEvent::RetryFired { req, token })
            .unwrap();
        let row = *eng.rows().next().unwrap();
        assert_eq!(row.state, InvocationState::Offered);
        assert_eq!(row.token, None, "token consumed");
        // Re-admission on a different slab id.
        eng.apply(&admitted(req, 9)).unwrap();
        assert_eq!(eng.req_of_slab(InvocationId(9)), Some(req));
    }

    #[test]
    fn tagged_walks_filter_by_state_and_tag() {
        let mut eng = LifecycleEngine::new();
        let a = eng.alloc_req();
        let b = eng.alloc_req();
        let c = eng.alloc_req();
        eng.apply(&offered(a, 1)).unwrap();
        eng.apply(&offered(b, 2)).unwrap();
        eng.apply(&offered(c, 0)).unwrap(); // untagged: invisible to walks
        eng.apply(&admitted(b, 0)).unwrap();
        let cancellable = [InvocationState::Offered, InvocationState::Queued];
        let tags: Vec<u64> = eng.tagged_in(&cancellable).map(|r| r.tag).collect();
        assert_eq!(tags, [1, 2], "request-id order, untagged skipped");
        assert_eq!(
            eng.find_tagged(2, &cancellable).unwrap().slab,
            Some(InvocationId(0))
        );
        assert!(eng.find_tagged(2, &[InvocationState::Offered]).is_none());
        let drained = eng.drain_rows();
        assert_eq!(drained.len(), 3);
        assert!(eng.is_empty());
    }

    #[test]
    fn allocators_are_monotonic() {
        let mut eng = LifecycleEngine::new();
        let r0 = eng.alloc_req();
        let r1 = eng.alloc_req();
        assert!(r0 >= 1, "req 0 is reserved for internal invocations");
        assert_eq!(r1, r0 + 1);
        let t0 = eng.alloc_token();
        let t1 = eng.alloc_token();
        assert_eq!(t1, t0 + 1);
    }
}
