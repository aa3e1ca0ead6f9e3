//! The write-ahead invocation journal and worker checkpoints.
//!
//! Every lifecycle transition of an *external* request — admission,
//! dispatch, PD creation, ArgBuf grant, completion, failure, shed, retry
//! scheduling — is appended to the journal **before** the transition takes
//! effect. The journal keeps only its framed [`DurableLog`]: the bytes
//! that survive a crash are its one record of what happened. Periodically
//! the server snapshots its hot state into a [`WorkerCheckpoint`], whose
//! in-flight and pending-retry tables come from the lifecycle engine's
//! request rows, the one live request table. After a whole-worker crash,
//! recovery decodes the log through [`durability::scan`](crate::durability::scan)
//! and [`replay`](WorkerCheckpoint::replay)s the records past the latest
//! checkpoint, reconstructing the exact request ledger — the
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
/// as a checkpoint records it and replay reconstructs it.
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
    /// In-flight external requests (the lifecycle engine's admitted
    /// rows), by slab index.
    pub in_flight: Vec<PendingInvocation>,
    /// Scheduled-but-unfired retries (the lifecycle engine's retry-wait
    /// rows), as `(token, retry)` by token.
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
#[derive(Debug, Default)]
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

/// The write-ahead journal: the framed durable log plus the checkpoint
/// cadence. It holds no decoded records and no live tables; replay
/// decodes the log, and the lifecycle engine owns the live requests.
#[derive(Debug, Default)]
pub struct InvocationJournal {
    /// The framed, checksummed record stream — what survives a crash.
    /// Record `i` is frame `i` (sequence number `i`).
    log: DurableLog,
    since_checkpoint: usize,
    checkpoints: u64,
}

impl InvocationJournal {
    /// An empty journal.
    pub fn new() -> Self {
        InvocationJournal::default()
    }

    /// Appends `r` as the next frame of the durable log: write-ahead, so
    /// before the transition it records takes effect.
    pub fn append(&mut self, r: &JournalRecord) {
        self.log.append(r);
        self.since_checkpoint += 1;
    }

    /// Records appended so far.
    pub fn len(&self) -> usize {
        self.log.frames() as usize
    }

    /// True when nothing has been journaled.
    pub fn is_empty(&self) -> bool {
        self.log.frames() == 0
    }

    /// Checkpoints marked so far.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints
    }

    /// The framed durable byte image of every record appended.
    pub fn durable_log(&self) -> &DurableLog {
        &self.log
    }

    /// True when `every` records have accumulated since the last
    /// checkpoint mark.
    pub fn due_checkpoint(&self, every: usize) -> bool {
        self.since_checkpoint >= every
    }

    /// Marks a checkpoint; returns the record index replay starts from.
    pub fn mark_checkpoint(&mut self) -> usize {
        self.append(&JournalRecord::Checkpoint);
        self.since_checkpoint = 0;
        self.checkpoints += 1;
        self.len()
    }
}

impl WorkerCheckpoint {
    /// Rebuilds the request ledger from this checkpoint by replaying
    /// every record of `records` past [`at_record`](Self::at_record).
    /// `records` is a log image decoded by
    /// [`durability::scan`](crate::durability::scan): the intact log on
    /// the exact rung and in the audit, the salvaged prefix of a struck
    /// log on the lossy rungs. An image shorter than `at_record` replays
    /// nothing: the checkpoint already covers more than the image can
    /// prove. On the exact rung the result's tables must equal the
    /// lifecycle engine's rows; recovery asserts exactly that, which is
    /// the machine-checked proof that checkpoint + suffix loses no
    /// request.
    pub fn replay(&self, records: &[JournalRecord]) -> RecoveredState {
        let mut report = self.report.clone();
        let mut warmed = self.warmed;
        let mut in_flight: BTreeMap<usize, PendingInvocation> =
            self.in_flight.iter().map(|p| (p.id.0, *p)).collect();
        let mut pending: BTreeMap<u64, PendingRetry> = self.pending.iter().copied().collect();
        let mut replayed = 0u64;
        for r in records.get(self.at_record..).unwrap_or(&[]) {
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
                        },
                    );
                }
                JournalRecord::Dispatch { .. }
                | JournalRecord::PdCreate { .. }
                | JournalRecord::ArgBufGrant { .. } => {}
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
    use crate::durability;

    fn ckpt(journal: &InvocationJournal, report: RunReport, warmed: u64) -> WorkerCheckpoint {
        WorkerCheckpoint {
            taken_at: SimTime::ZERO,
            at_record: journal.len(),
            report,
            rng: Rng::new(1),
            injector: None,
            warmed,
            in_flight: Vec::new(),
            pending: Vec::new(),
            footprint: DurableFootprint {
                entries: Vec::new(),
            },
            free_slots: Vec::new(),
            seal: journal.durable_log().seal(),
        }
    }

    /// Replays `j`'s durable log over `cp`, decoded as recovery decodes it.
    fn replay(j: &InvocationJournal, cp: &WorkerCheckpoint) -> RecoveredState {
        let scan = durability::scan(j.durable_log().bytes());
        assert_eq!(scan.anomaly, None, "an untouched log scans clean");
        cp.replay(&scan.records)
    }

    fn id(i: usize) -> InvocationId {
        InvocationId(i)
    }

    fn admit(
        i: usize,
        func: FunctionId,
        arrival: SimTime,
        attempt: u32,
        tag: u64,
    ) -> JournalRecord {
        JournalRecord::Admit {
            id: id(i),
            func,
            bytes: 64,
            arrival,
            attempt,
            tag,
        }
    }

    fn complete(i: usize, measured: bool) -> JournalRecord {
        JournalRecord::Complete {
            id: id(i),
            measured,
        }
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

    fn retry_scheduled(token: u64, i: usize, r: PendingRetry, measured: bool) -> JournalRecord {
        JournalRecord::RetryScheduled {
            token,
            id: id(i),
            func: r.func,
            bytes: r.bytes,
            arrival: r.arrival,
            attempt: r.attempt,
            due: r.due,
            tag: r.tag,
            measured,
        }
    }

    #[test]
    fn replay_reconstructs_ledger_and_in_flight() {
        let mut j = InvocationJournal::new();
        let f = FunctionId(0);
        let mut report = RunReport::new();
        report.offered = 5;
        let base = ckpt(&j, report, 0);

        let tok = 0;
        for r in [
            admit(0, f, SimTime::ZERO, 0, 0),
            JournalRecord::Dispatch {
                id: id(0),
                executor: 3,
            },
            JournalRecord::PdCreate { id: id(0), pd: 7 },
            JournalRecord::ArgBufGrant {
                id: id(0),
                va: 0x1000,
                bytes: 128,
            },
            complete(0, true),
            admit(1, f, SimTime::from_us(1), 0, 0),
            JournalRecord::Shed {
                func: f,
                measured: true,
            },
            admit(2, f, SimTime::from_us(2), 0, 0),
            JournalRecord::Dispatch {
                id: id(2),
                executor: 5,
            },
            retry_scheduled(
                tok,
                2,
                retry(f, SimTime::from_us(2), 1, SimTime::from_us(9)),
                true,
            ),
            admit(3, f, SimTime::from_us(3), 0, 0),
            JournalRecord::Fail {
                id: id(3),
                measured: true,
            },
        ] {
            j.append(&r);
        }

        let rec = replay(&j, &base);
        assert_eq!(rec.report.completed, 1);
        assert_eq!(rec.report.faults.sheds, 1);
        assert_eq!(rec.report.faults.failed, 1);
        assert_eq!(rec.report.faults.retries, 1);
        assert_eq!(rec.report.offered, 5);
        assert_eq!(rec.replayed, j.len() as u64);
        assert_eq!(
            rec.in_flight.keys().copied().collect::<Vec<_>>(),
            [1],
            "only id 1 is still in flight"
        );
        assert_eq!(rec.pending.len(), 1);
        assert_eq!(rec.pending[&tok].attempt, 1);
    }

    #[test]
    fn replay_starts_at_the_checkpoint_not_the_origin() {
        let mut j = InvocationJournal::new();
        let f = FunctionId(1);
        j.append(&admit(0, f, SimTime::ZERO, 0, 0));
        j.append(&complete(0, true));
        let mut report = RunReport::new();
        report.offered = 3;
        report.completed = 1; // the pre-checkpoint completion, already in
        let cp_at = j.mark_checkpoint();
        let cp = ckpt(&j, report, 0);
        assert_eq!(cp.at_record, cp_at);

        j.append(&admit(0, f, SimTime::from_us(5), 0, 0)); // slab id reused
        j.append(&complete(0, true));
        let rec = replay(&j, &cp);
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
        j.append(&admit(0, f, SimTime::ZERO, 0, 0));
        j.append(&complete(0, false)); // unmeasured: slides the warmup window
        j.append(&admit(1, f, SimTime::ZERO, 0, 0));
        j.append(&JournalRecord::Fail {
            id: id(1),
            measured: false,
        });
        j.append(&JournalRecord::Shed {
            func: f,
            measured: false,
        });
        let rec = replay(&j, &cp);
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
        let cp = ckpt(&j, RunReport::new(), 0);
        let (t0, t1) = (0, 1);
        for r in [
            admit(0, f, SimTime::ZERO, 0, 0),
            retry_scheduled(
                t0,
                0,
                retry(f, SimTime::ZERO, 1, SimTime::from_us(1)),
                false,
            ),
            admit(1, f, SimTime::ZERO, 0, 0),
            retry_scheduled(
                t1,
                1,
                retry(f, SimTime::ZERO, 1, SimTime::from_us(2)),
                false,
            ),
        ] {
            j.append(&r);
        }
        assert_eq!(replay(&j, &cp).pending.len(), 2);
        j.append(&JournalRecord::RetryFired { token: t0 });
        j.append(&admit(0, f, SimTime::ZERO, 1, 0));
        let rec = replay(&j, &cp);
        assert_eq!(rec.pending.keys().copied().collect::<Vec<_>>(), [t1]);
        assert_eq!(rec.in_flight.len(), 1);
        assert_eq!(rec.in_flight[&0].attempt, 1, "the fired retry re-entered");
    }

    #[test]
    fn dropped_retries_replay_as_failures() {
        let mut j = InvocationJournal::new();
        let f = FunctionId(0);
        let mut report = RunReport::new();
        report.offered = 2;
        let cp = ckpt(&j, report, 0);
        let (t0, t1) = (0, 1);
        let due = SimTime::from_us(5);
        for r in [
            admit(0, f, SimTime::ZERO, 0, 0),
            retry_scheduled(t0, 0, retry(f, SimTime::ZERO, 1, due), true),
            admit(1, f, SimTime::ZERO, 0, 0),
            retry_scheduled(t1, 1, retry(f, SimTime::ZERO, 1, due), false),
            JournalRecord::RetryDropped {
                token: t0,
                measured: true,
            },
            JournalRecord::RetryDropped {
                token: t1,
                measured: false,
            },
        ] {
            j.append(&r);
        }
        let rec = replay(&j, &cp);
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
        j.append(&admit(0, f, SimTime::ZERO, 0, 0));
        j.append(&complete(0, true));
        let still_in_flight = admit(1, f, SimTime::from_us(1), 0, 7);
        j.append(&still_in_flight);
        let mut report = RunReport::new();
        report.offered = 2;
        report.completed = 1;
        j.mark_checkpoint();
        let cp = WorkerCheckpoint {
            in_flight: vec![PendingInvocation {
                id: id(1),
                func: f,
                bytes: 64,
                arrival: SimTime::from_us(1),
                attempt: 0,
                tag: 7,
            }],
            ..ckpt(&j, report, 0)
        };
        let rec = replay(&j, &cp);
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
        j.append(&admit(0, f, SimTime::ZERO, 0, 1));
        j.append(&admit(1, f, SimTime::ZERO, 0, 2));
        j.append(&JournalRecord::Cancel { id: id(0) });
        j.append(&complete(1, true));
        let rec = replay(&j, &cp);
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
        j.append(&admit(0, f, SimTime::ZERO, 0, 9));
        let tok = 5; // caller-allocated: need not start at zero
        let tagged = PendingRetry {
            tag: 9,
            ..retry(f, SimTime::ZERO, 1, SimTime::from_us(4))
        };
        j.append(&retry_scheduled(tok, 0, tagged, true));
        let rec = replay(&j, &cp);
        assert_eq!(rec.pending[&tok], tagged, "tag and due survive replay");
    }

    #[test]
    fn checkpoint_cadence_counts_records() {
        let mut j = InvocationJournal::new();
        assert!(!j.due_checkpoint(3));
        let f = FunctionId(0);
        j.append(&admit(0, f, SimTime::ZERO, 0, 0));
        j.append(&JournalRecord::Dispatch {
            id: id(0),
            executor: 0,
        });
        assert!(!j.due_checkpoint(3));
        j.append(&complete(0, true));
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
        j.append(&admit(0, f, SimTime::ZERO, 0, 0));
        assert!(j.due_checkpoint(1));
        j.mark_checkpoint();
        assert!(!j.due_checkpoint(1), "the mark resets the cadence");
        j.append(&complete(0, true));
        assert!(j.due_checkpoint(1));
        j.mark_checkpoint();
        assert_eq!(j.checkpoints(), 2);
    }
}
