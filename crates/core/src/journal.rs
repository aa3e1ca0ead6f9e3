//! The write-ahead invocation journal and worker checkpoints.
//!
//! Every lifecycle transition of an *external* request — admission,
//! dispatch, PD creation, ArgBuf grant, completion, failure, shed, retry
//! scheduling — is appended to the journal **before** the transition takes
//! effect. Periodically the server snapshots its hot state into a
//! [`WorkerCheckpoint`]. After a whole-worker crash, recovery restores the
//! latest checkpoint and [`replay`](InvocationJournal::replay)s the journal
//! suffix, reconstructing the exact request ledger — the
//! `(offered, completed, failed, sheds, warmed)` tuple — and the set of
//! requests that were in flight at the instant of the crash.
//!
//! Nested (internal) invocations are deliberately *not* part of the ledger:
//! they are re-created deterministically when their parent re-executes, so
//! journaling them would record derived state. Their transitions are
//! covered by their external ancestor's entries.
//!
//! Telemetry granularity: counters in the ledger are exact across a crash;
//! latency samples, per-function breakdowns, and hardware-fault counters
//! accumulated *since the last checkpoint* are lost with the crashed
//! process — the journal is a request ledger, not a metrics store.

use std::collections::BTreeMap;

use jord_hw::types::Va;
use jord_hw::FaultInjector;
use jord_sim::{Rng, SimTime};
use jord_vma::DurableFootprint;

use crate::admission::BrownoutLevel;
use crate::durability::{CheckpointSeal, DurableLog};
use crate::function::FunctionId;
use crate::invocation::InvocationId;
use crate::stats::RunReport;

/// One journaled lifecycle transition.
///
/// Terminal records ([`Complete`](JournalRecord::Complete),
/// [`Fail`](JournalRecord::Fail), [`Shed`](JournalRecord::Shed)) carry the
/// `measured` flag — whether the event landed inside the measurement window
/// — so replay reproduces the warmup bookkeeping exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JournalRecord {
    /// An external request entered an orchestrator's external queue.
    Admit {
        /// Slab id assigned at admission (unique among live invocations).
        id: InvocationId,
        /// The requested function.
        func: FunctionId,
        /// Argument payload size.
        bytes: u64,
        /// Original network receipt time (latency anchors here).
        arrival: SimTime,
        /// Dispatch attempt (0 = first).
        attempt: u32,
        /// Cluster request tag (0 = untagged).
        tag: u64,
    },
    /// The orchestrator pushed the request into an executor queue.
    Dispatch {
        /// The dispatched request.
        id: InvocationId,
        /// Target executor index.
        executor: usize,
    },
    /// The executor created the request's protection domain.
    PdCreate {
        /// The request.
        id: InvocationId,
        /// The PD id granted by `cget` (or recycled from the sanitized
        /// pool).
        pd: u16,
    },
    /// The orchestrator allocated and filled the request's ArgBuf.
    ArgBufGrant {
        /// The request.
        id: InvocationId,
        /// ArgBuf base address.
        va: Va,
        /// ArgBuf length.
        bytes: u64,
    },
    /// The request completed and its latency was (maybe) recorded.
    Complete {
        /// The request.
        id: InvocationId,
        /// Inside the measurement window?
        measured: bool,
    },
    /// The request terminally failed (retries exhausted, or at-most-once
    /// crash semantics).
    Fail {
        /// The request.
        id: InvocationId,
        /// Inside the measurement window?
        measured: bool,
    },
    /// An arriving request was shed at admission (queue over the bound).
    Shed {
        /// The shed function.
        func: FunctionId,
        /// Inside the measurement window?
        measured: bool,
    },
    /// A failed (or crash-killed) request was scheduled for re-dispatch
    /// after backoff; until the retry fires the request lives in the
    /// pending-retry table, not the in-flight table.
    RetryScheduled {
        /// Token naming this pending retry (monotonic per run).
        token: u64,
        /// The slab id the request held before this attempt concluded.
        id: InvocationId,
        /// The function.
        func: FunctionId,
        /// Payload size.
        bytes: u64,
        /// Original arrival (preserved across attempts).
        arrival: SimTime,
        /// The attempt the re-dispatch will carry.
        attempt: u32,
        /// When the retry fires.
        due: SimTime,
        /// Cluster request tag (0 = untagged).
        tag: u64,
        /// Counted in `faults.retries`? (Crash re-admissions are not —
        /// they show up in `crash.readmitted` instead.)
        measured: bool,
    },
    /// A scheduled retry fired (the following `Admit` re-enters it).
    RetryFired {
        /// The pending-retry token being consumed.
        token: u64,
    },
    /// A scheduled retry was discarded unfired (at-most-once semantics
    /// across a worker crash): the request terminally fails.
    RetryDropped {
        /// The pending-retry token being discarded.
        token: u64,
        /// Inside the measurement window?
        measured: bool,
    },
    /// An admitted-but-undispatched request was withdrawn by the tier
    /// above the worker (a cluster dispatcher cancelling the losing copy
    /// of a hedged request, or rebalancing a draining worker's queue).
    /// The request is not failed — it lives on elsewhere — so the ledger
    /// forgets it was ever offered here.
    Cancel {
        /// The withdrawn request.
        id: InvocationId,
    },
    /// A component crashed ("executor" / "orchestrator" / "worker").
    Crash {
        /// [`jord_hw::CrashScope::label`] of the crashed component.
        scope: &'static str,
    },
    /// A checkpoint was taken right after this record.
    Checkpoint,
    /// The worker's brownout level changed (autoscaler-imposed graceful
    /// degradation). Informational for the ledger — admission decisions
    /// taken under the level are journaled individually — but recorded so
    /// post-mortems can correlate sheds with the level in force.
    Brownout {
        /// The level now in force.
        level: BrownoutLevel,
    },
}

/// An external request currently in flight (admitted, not yet concluded),
/// as the journal tracks it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingInvocation {
    /// Current slab id.
    pub id: InvocationId,
    /// The function.
    pub func: FunctionId,
    /// Payload size.
    pub bytes: u64,
    /// Original arrival time.
    pub arrival: SimTime,
    /// Current attempt.
    pub attempt: u32,
    /// Cluster request tag (0 = untagged).
    pub tag: u64,
    /// Executor it was dispatched to, if any yet.
    pub executor: Option<usize>,
}

/// A failed request waiting out its backoff before re-dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingRetry {
    /// The function.
    pub func: FunctionId,
    /// Payload size.
    pub bytes: u64,
    /// Original arrival time.
    pub arrival: SimTime,
    /// The attempt the re-dispatch will carry.
    pub attempt: u32,
    /// Cluster request tag (0 = untagged).
    pub tag: u64,
    /// When the retry fires.
    pub due: SimTime,
}

/// A periodic snapshot of the worker's hot state, sufficient (with the
/// journal suffix) to rebuild the request ledger after a crash.
#[derive(Debug, Clone)]
pub struct WorkerCheckpoint {
    /// Simulated time of capture.
    pub taken_at: SimTime,
    /// Journal length at capture; replay starts here.
    pub at_record: usize,
    /// The measurement report as of capture.
    pub report: RunReport,
    /// Workload RNG state.
    pub rng: Rng,
    /// Fault-injector state (its own RNG stream).
    pub injector: Option<FaultInjector>,
    /// Warmup completions seen.
    pub warmed: u64,
    /// In-flight external requests.
    pub in_flight: Vec<PendingInvocation>,
    /// Scheduled-but-unfired retries, as `(token, retry)`.
    pub pending: Vec<(u64, PendingRetry)>,
    /// The VMA table's durable (privileged/global) mappings at capture;
    /// any correct restore must reproduce them bit-for-bit.
    pub footprint: DurableFootprint,
    /// Free VMA slots per size class at capture (availability ledger).
    pub free_slots: Vec<usize>,
    /// Integrity seal over the durable log as of capture: recovery
    /// verifies it before trusting this checkpoint's tables, and falls
    /// down the recovery ladder when it does not hold.
    pub seal: CheckpointSeal,
}

/// What replay reconstructs: the ledger-exact report plus the in-flight
/// and pending-retry sets at the crash instant.
#[derive(Debug)]
pub struct RecoveredState {
    /// Report with the request-ledger counters replayed forward.
    pub report: RunReport,
    /// Warmup completions seen.
    pub warmed: u64,
    /// External requests in flight at the crash, keyed by slab index.
    pub in_flight: BTreeMap<usize, PendingInvocation>,
    /// Unfired retries at the crash, keyed by token.
    pub pending: BTreeMap<u64, PendingRetry>,
    /// Records replayed past the checkpoint.
    pub replayed: u64,
}

/// The write-ahead journal: an append-only record list plus the live
/// in-flight and pending-retry tables it implies. The live tables exist so
/// crash handling is O(in-flight), and so recovery can *prove* its replay
/// correct by comparing the replayed tables against them.
#[derive(Debug, Default)]
pub struct InvocationJournal {
    records: Vec<JournalRecord>,
    /// The framed, checksummed byte image of `records` — what actually
    /// survives a crash. Record `i` is frame `i` (sequence number `i`).
    log: DurableLog,
    in_flight: BTreeMap<usize, PendingInvocation>,
    pending: BTreeMap<u64, PendingRetry>,
    since_checkpoint: usize,
    checkpoints: u64,
}

impl InvocationJournal {
    /// An empty journal.
    pub fn new() -> Self {
        InvocationJournal::default()
    }

    fn push(&mut self, r: JournalRecord) {
        self.log.append(&r);
        self.records.push(r);
        self.since_checkpoint += 1;
    }

    /// Records appended so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Checkpoints marked so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// The full record list.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// The framed durable byte image of the record list.
    pub fn durable_log(&self) -> &DurableLog {
        &self.log
    }

    /// Live in-flight table (externals only), keyed by slab index.
    pub fn in_flight(&self) -> &BTreeMap<usize, PendingInvocation> {
        &self.in_flight
    }

    /// Live pending-retry table, keyed by token.
    pub fn pending(&self) -> &BTreeMap<u64, PendingRetry> {
        &self.pending
    }

    /// True when `every` records have accumulated since the last
    /// checkpoint mark.
    pub fn due_checkpoint(&self, every: usize) -> bool {
        self.since_checkpoint >= every
    }

    /// Marks a checkpoint; returns the record index replay starts from.
    pub fn mark_checkpoint(&mut self) -> usize {
        self.push(JournalRecord::Checkpoint);
        self.since_checkpoint = 0;
        self.checkpoints += 1;
        self.records.len()
    }

    // ------------------------------------------------------------------
    // Append-before-effect API (one method per transition)
    // ------------------------------------------------------------------

    /// An external request enters the system (fresh arrival or fired
    /// retry).
    pub fn admit(
        &mut self,
        id: InvocationId,
        func: FunctionId,
        bytes: u64,
        arrival: SimTime,
        attempt: u32,
        tag: u64,
    ) {
        self.push(JournalRecord::Admit {
            id,
            func,
            bytes,
            arrival,
            attempt,
            tag,
        });
        let prev = self.in_flight.insert(
            id.0,
            PendingInvocation {
                id,
                func,
                bytes,
                arrival,
                attempt,
                tag,
                executor: None,
            },
        );
        debug_assert!(prev.is_none(), "slab id {id:?} admitted twice");
    }

    /// The request was pushed to an executor queue.
    pub fn dispatch(&mut self, id: InvocationId, executor: usize) {
        self.push(JournalRecord::Dispatch { id, executor });
        if let Some(p) = self.in_flight.get_mut(&id.0) {
            p.executor = Some(executor);
        }
    }

    /// The request's PD was created (or popped from the sanitized pool).
    pub fn pd_create(&mut self, id: InvocationId, pd: u16) {
        self.push(JournalRecord::PdCreate { id, pd });
    }

    /// The request's ArgBuf was allocated and filled.
    pub fn argbuf_grant(&mut self, id: InvocationId, va: Va, bytes: u64) {
        self.push(JournalRecord::ArgBufGrant { id, va, bytes });
    }

    /// The request completed.
    pub fn complete(&mut self, id: InvocationId, measured: bool) {
        self.push(JournalRecord::Complete { id, measured });
        let removed = self.in_flight.remove(&id.0);
        debug_assert!(removed.is_some(), "completed request {id:?} not in flight");
    }

    /// The request terminally failed.
    pub fn fail(&mut self, id: InvocationId, measured: bool) {
        self.push(JournalRecord::Fail { id, measured });
        let removed = self.in_flight.remove(&id.0);
        debug_assert!(removed.is_some(), "failed request {id:?} not in flight");
    }

    /// An arriving request was shed at admission.
    pub fn shed(&mut self, func: FunctionId, measured: bool) {
        self.push(JournalRecord::Shed { func, measured });
    }

    /// The request's current attempt ended and a re-dispatch was
    /// scheduled under `token` (allocated by the caller's lifecycle
    /// engine — tokens stay monotonic even when a cluster crash replaces
    /// the journal); the matching [`Self::retry_fired`] consumes it.
    pub fn retry_scheduled(
        &mut self,
        token: u64,
        id: InvocationId,
        retry: PendingRetry,
        measured: bool,
    ) {
        self.push(JournalRecord::RetryScheduled {
            token,
            id,
            func: retry.func,
            bytes: retry.bytes,
            arrival: retry.arrival,
            attempt: retry.attempt,
            due: retry.due,
            tag: retry.tag,
            measured,
        });
        let removed = self.in_flight.remove(&id.0);
        debug_assert!(removed.is_some(), "retried request {id:?} not in flight");
        let clashed = self.pending.insert(token, retry);
        debug_assert!(clashed.is_none(), "retry token {token} reused");
    }

    /// A scheduled retry fired (its `Admit` follows immediately).
    pub fn retry_fired(&mut self, token: u64) {
        self.push(JournalRecord::RetryFired { token });
        let removed = self.pending.remove(&token);
        debug_assert!(removed.is_some(), "retry token {token} not pending");
    }

    /// A scheduled retry was discarded unfired; the request fails.
    pub fn retry_dropped(&mut self, token: u64, measured: bool) {
        self.push(JournalRecord::RetryDropped { token, measured });
        let removed = self.pending.remove(&token);
        debug_assert!(removed.is_some(), "retry token {token} not pending");
    }

    /// An admitted-but-undispatched request was withdrawn by the tier
    /// above; the ledger un-offers it here (it lives on elsewhere).
    pub fn cancel(&mut self, id: InvocationId) {
        self.push(JournalRecord::Cancel { id });
        let removed = self.in_flight.remove(&id.0);
        debug_assert!(removed.is_some(), "cancelled request {id:?} not in flight");
    }

    /// A component crashed.
    pub fn crash(&mut self, scope: &'static str) {
        self.push(JournalRecord::Crash { scope });
    }

    /// The brownout level changed.
    pub fn brownout(&mut self, level: BrownoutLevel) {
        self.push(JournalRecord::Brownout { level });
    }

    // ------------------------------------------------------------------
    // Replay
    // ------------------------------------------------------------------

    /// Rebuilds the request ledger from `checkpoint` by replaying every
    /// record appended after it. The result's `in_flight`/`pending` tables
    /// must equal the journal's live tables — recovery asserts exactly
    /// that, which is the machine-checked proof that checkpoint + suffix
    /// loses no request.
    pub fn replay(&self, checkpoint: &WorkerCheckpoint) -> RecoveredState {
        Self::replay_records(&self.records, checkpoint)
    }

    /// [`replay`](Self::replay) over an explicit record image — the
    /// scanned (possibly truncated) contents of a struck durable log
    /// rather than the live in-memory list. A `records` shorter than
    /// `checkpoint.at_record` replays nothing: the checkpoint already
    /// covers more than the image can prove.
    pub fn replay_records(
        records: &[JournalRecord],
        checkpoint: &WorkerCheckpoint,
    ) -> RecoveredState {
        let mut report = checkpoint.report.clone();
        let mut warmed = checkpoint.warmed;
        let mut in_flight: BTreeMap<usize, PendingInvocation> =
            checkpoint.in_flight.iter().map(|p| (p.id.0, *p)).collect();
        let mut pending: BTreeMap<u64, PendingRetry> = checkpoint.pending.iter().copied().collect();
        let mut replayed = 0u64;
        for r in records.get(checkpoint.at_record..).unwrap_or(&[]) {
            replayed += 1;
            match *r {
                JournalRecord::Admit {
                    id,
                    func,
                    bytes,
                    arrival,
                    attempt,
                    tag,
                } => {
                    in_flight.insert(
                        id.0,
                        PendingInvocation {
                            id,
                            func,
                            bytes,
                            arrival,
                            attempt,
                            tag,
                            executor: None,
                        },
                    );
                }
                JournalRecord::Dispatch { id, executor } => {
                    if let Some(p) = in_flight.get_mut(&id.0) {
                        p.executor = Some(executor);
                    }
                }
                JournalRecord::PdCreate { .. } | JournalRecord::ArgBufGrant { .. } => {}
                JournalRecord::Complete { id, measured } => {
                    in_flight.remove(&id.0);
                    if measured {
                        // The latency sample died with the process; the
                        // counter is what the ledger guarantees.
                        report.completed += 1;
                    } else {
                        warmed += 1;
                        report.offered -= 1;
                    }
                }
                JournalRecord::Fail { id, measured } => {
                    in_flight.remove(&id.0);
                    if measured {
                        report.faults.failed += 1;
                    } else {
                        warmed += 1;
                        report.offered -= 1;
                    }
                }
                JournalRecord::Shed { measured, .. } => {
                    if measured {
                        report.faults.sheds += 1;
                    } else {
                        report.offered -= 1;
                    }
                }
                JournalRecord::RetryScheduled {
                    token,
                    id,
                    func,
                    bytes,
                    arrival,
                    attempt,
                    due,
                    tag,
                    measured,
                } => {
                    in_flight.remove(&id.0);
                    pending.insert(
                        token,
                        PendingRetry {
                            func,
                            bytes,
                            arrival,
                            attempt,
                            tag,
                            due,
                        },
                    );
                    if measured {
                        report.faults.retries += 1;
                    }
                }
                JournalRecord::RetryFired { token } => {
                    pending.remove(&token);
                }
                JournalRecord::RetryDropped { token, measured } => {
                    pending.remove(&token);
                    if measured {
                        report.faults.failed += 1;
                    } else {
                        warmed += 1;
                        report.offered -= 1;
                    }
                }
                JournalRecord::Cancel { id } => {
                    // Mirrors the live-side effect: the request was never
                    // served here, so it is not part of this worker's
                    // offered count.
                    in_flight.remove(&id.0);
                    report.offered -= 1;
                }
                JournalRecord::Crash { .. }
                | JournalRecord::Checkpoint
                | JournalRecord::Brownout { .. } => {}
            }
        }
        RecoveredState {
            report,
            warmed,
            in_flight,
            pending,
            replayed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ckpt(journal: &InvocationJournal, report: RunReport, warmed: u64) -> WorkerCheckpoint {
        WorkerCheckpoint {
            taken_at: SimTime::ZERO,
            at_record: journal.len(),
            report,
            rng: Rng::new(1),
            injector: None,
            warmed,
            in_flight: journal.in_flight().values().copied().collect(),
            pending: journal.pending().iter().map(|(&t, &p)| (t, p)).collect(),
            footprint: DurableFootprint {
                entries: Vec::new(),
            },
            free_slots: Vec::new(),
            seal: journal.durable_log().seal(),
        }
    }

    fn id(i: usize) -> InvocationId {
        InvocationId(i)
    }

    fn retry(f: FunctionId, arrival: SimTime, attempt: u32, due: SimTime) -> PendingRetry {
        PendingRetry {
            func: f,
            bytes: 64,
            arrival,
            attempt,
            tag: 0,
            due,
        }
    }

    #[test]
    fn replay_reconstructs_ledger_and_in_flight() {
        let mut j = InvocationJournal::new();
        let f = FunctionId(0);
        let mut report = RunReport::new();
        report.offered = 5;
        let base = ckpt(&j, report, 0);

        j.admit(id(0), f, 128, SimTime::ZERO, 0, 0);
        j.dispatch(id(0), 3);
        j.pd_create(id(0), 7);
        j.argbuf_grant(id(0), 0x1000, 128);
        j.complete(id(0), true);
        j.admit(id(1), f, 256, SimTime::from_us(1), 0, 0);
        j.shed(f, true);
        j.admit(id(2), f, 64, SimTime::from_us(2), 0, 0);
        j.dispatch(id(2), 5);
        let tok = 0;
        j.retry_scheduled(
            tok,
            id(2),
            retry(f, SimTime::from_us(2), 1, SimTime::from_us(9)),
            true,
        );
        j.admit(id(3), f, 64, SimTime::from_us(3), 0, 0);
        j.fail(id(3), true);

        let rec = j.replay(&base);
        assert_eq!(rec.report.completed, 1);
        assert_eq!(rec.report.faults.sheds, 1);
        assert_eq!(rec.report.faults.failed, 1);
        assert_eq!(rec.report.faults.retries, 1);
        assert_eq!(rec.report.offered, 5);
        assert_eq!(rec.replayed, j.len() as u64);
        // The replayed tables equal the journal's live ones — the proof
        // obligation recovery enforces.
        assert_eq!(
            rec.in_flight.keys().copied().collect::<Vec<_>>(),
            j.in_flight().keys().copied().collect::<Vec<_>>()
        );
        assert_eq!(rec.in_flight.len(), 1, "only id 1 is still in flight");
        assert_eq!(rec.pending.len(), 1);
        assert_eq!(rec.pending[&tok].attempt, 1);
    }

    #[test]
    fn replay_starts_at_the_checkpoint_not_the_origin() {
        let mut j = InvocationJournal::new();
        let f = FunctionId(1);
        j.admit(id(0), f, 128, SimTime::ZERO, 0, 0);
        j.complete(id(0), true);
        let mut report = RunReport::new();
        report.offered = 3;
        report.completed = 1; // the pre-checkpoint completion, already in
        let cp_at = j.mark_checkpoint();
        let cp = ckpt(&j, report, 0);
        assert_eq!(cp.at_record, cp_at);

        j.admit(id(0), f, 128, SimTime::from_us(5), 0, 0); // slab id reused
        j.complete(id(0), true);
        let rec = j.replay(&cp);
        assert_eq!(rec.report.completed, 2, "1 from checkpoint + 1 replayed");
        assert_eq!(rec.replayed, 2, "only the suffix replays");
        assert!(rec.in_flight.is_empty());
    }

    #[test]
    fn warmup_records_replay_symmetrically() {
        let mut j = InvocationJournal::new();
        let f = FunctionId(0);
        let mut report = RunReport::new();
        report.offered = 4;
        let cp = ckpt(&j, report, 0);
        j.admit(id(0), f, 64, SimTime::ZERO, 0, 0);
        j.complete(id(0), false); // unmeasured: slides the warmup window
        j.admit(id(1), f, 64, SimTime::ZERO, 0, 0);
        j.fail(id(1), false);
        j.shed(f, false);
        let rec = j.replay(&cp);
        assert_eq!(rec.warmed, 2, "completion and failure advance warmup");
        assert_eq!(rec.report.offered, 1, "all three discounted");
        assert_eq!(rec.report.completed, 0);
        assert_eq!(rec.report.faults.failed, 0);
        assert_eq!(rec.report.faults.sheds, 0);
    }

    #[test]
    fn retry_tokens_are_caller_allocated_and_fire_once() {
        let mut j = InvocationJournal::new();
        let f = FunctionId(0);
        j.admit(id(0), f, 64, SimTime::ZERO, 0, 0);
        let t0 = 0;
        j.retry_scheduled(
            t0,
            id(0),
            retry(f, SimTime::ZERO, 1, SimTime::from_us(1)),
            false,
        );
        j.admit(id(1), f, 64, SimTime::ZERO, 0, 0);
        let t1 = 1;
        j.retry_scheduled(
            t1,
            id(1),
            retry(f, SimTime::ZERO, 1, SimTime::from_us(2)),
            false,
        );
        assert_eq!(j.pending().len(), 2);
        j.retry_fired(t0);
        j.admit(id(0), f, 64, SimTime::ZERO, 1, 0);
        assert_eq!(j.pending().len(), 1);
        assert!(j.pending().contains_key(&t1));
        assert_eq!(j.in_flight().len(), 1);
    }

    #[test]
    fn dropped_retries_replay_as_failures() {
        let mut j = InvocationJournal::new();
        let f = FunctionId(0);
        let mut report = RunReport::new();
        report.offered = 2;
        let cp = ckpt(&j, report, 0);
        j.admit(id(0), f, 64, SimTime::ZERO, 0, 0);
        let t0 = 0;
        j.retry_scheduled(
            t0,
            id(0),
            retry(f, SimTime::ZERO, 1, SimTime::from_us(5)),
            true,
        );
        j.admit(id(1), f, 64, SimTime::ZERO, 0, 0);
        let t1 = 1;
        j.retry_scheduled(
            t1,
            id(1),
            retry(f, SimTime::ZERO, 1, SimTime::from_us(5)),
            false,
        );
        j.retry_dropped(t0, true);
        j.retry_dropped(t1, false);
        assert!(j.pending().is_empty());
        let rec = j.replay(&cp);
        assert!(rec.pending.is_empty());
        assert_eq!(rec.report.faults.failed, 1, "measured drop fails");
        assert_eq!(rec.warmed, 1, "unmeasured drop slides warmup");
        assert_eq!(rec.report.offered, 1);
    }

    #[test]
    fn replay_of_empty_suffix_is_the_checkpoint() {
        // A crash landing exactly on a checkpoint replays zero records:
        // the recovered state must be the checkpoint state, bit for bit.
        let mut j = InvocationJournal::new();
        let f = FunctionId(0);
        j.admit(id(0), f, 64, SimTime::ZERO, 0, 0);
        j.complete(id(0), true);
        j.admit(id(1), f, 64, SimTime::from_us(1), 0, 7);
        let mut report = RunReport::new();
        report.offered = 2;
        report.completed = 1;
        j.mark_checkpoint();
        let cp = ckpt(&j, report, 0);
        let rec = j.replay(&cp);
        assert_eq!(rec.replayed, 0, "nothing after the checkpoint");
        assert_eq!(rec.report.offered, 2);
        assert_eq!(rec.report.completed, 1);
        assert_eq!(rec.warmed, 0);
        assert_eq!(rec.in_flight.len(), 1);
        assert_eq!(rec.in_flight[&1].tag, 7, "tag survives the checkpoint");
        assert!(rec.pending.is_empty());
    }

    #[test]
    fn cancel_un_offers_and_replays_symmetrically() {
        let mut j = InvocationJournal::new();
        let f = FunctionId(0);
        let mut report = RunReport::new();
        report.offered = 3;
        let cp = ckpt(&j, report, 0);
        j.admit(id(0), f, 64, SimTime::ZERO, 0, 1);
        j.admit(id(1), f, 64, SimTime::ZERO, 0, 2);
        j.cancel(id(0));
        j.complete(id(1), true);
        assert!(j.in_flight().is_empty());
        let rec = j.replay(&cp);
        assert!(rec.in_flight.is_empty());
        assert_eq!(rec.report.offered, 2, "the cancelled copy is un-offered");
        assert_eq!(rec.report.completed, 1);
        assert_eq!(rec.warmed, 0, "cancel is not a warmup event");
    }

    #[test]
    fn tags_thread_through_retry_scheduling() {
        let mut j = InvocationJournal::new();
        let f = FunctionId(0);
        let cp = ckpt(&j, RunReport::new(), 0);
        j.admit(id(0), f, 64, SimTime::ZERO, 0, 9);
        let tok = 5; // caller-allocated: need not start at zero
        j.retry_scheduled(
            tok,
            id(0),
            PendingRetry {
                tag: 9,
                ..retry(f, SimTime::ZERO, 1, SimTime::from_us(4))
            },
            true,
        );
        assert_eq!(j.pending()[&tok].tag, 9);
        let rec = j.replay(&cp);
        assert_eq!(rec.pending[&tok].tag, 9, "tag survives replay");
    }

    #[test]
    fn checkpoint_cadence_counts_records() {
        let mut j = InvocationJournal::new();
        assert!(!j.due_checkpoint(3));
        let f = FunctionId(0);
        j.admit(id(0), f, 64, SimTime::ZERO, 0, 0);
        j.dispatch(id(0), 0);
        assert!(!j.due_checkpoint(3));
        j.complete(id(0), true);
        assert!(j.due_checkpoint(3));
        j.mark_checkpoint();
        assert!(!j.due_checkpoint(3));
        assert_eq!(j.checkpoints(), 1);
        assert_eq!(j.len(), 4, "the checkpoint mark itself is journaled");
    }

    #[test]
    fn checkpoint_cadence_of_one_marks_after_every_record() {
        let mut j = InvocationJournal::new();
        let f = FunctionId(0);
        assert!(!j.due_checkpoint(1), "an empty journal owes nothing");
        j.admit(id(0), f, 64, SimTime::ZERO, 0, 0);
        assert!(j.due_checkpoint(1));
        j.mark_checkpoint();
        assert!(!j.due_checkpoint(1), "the mark resets the cadence");
        j.complete(id(0), true);
        assert!(j.due_checkpoint(1));
        j.mark_checkpoint();
        assert_eq!(j.checkpoints(), 2);
    }
}
