//! The lifecycle event bus: one ordered stream, four subscribers.
//!
//! Every externally visible state change of a request is described by a
//! [`LifecycleEvent`] and published exactly once on the [`EventBus`]. The
//! bus fans each event out to its sinks in a fixed order:
//!
//! 1. `JournalSink` — appends the event's write-ahead record to the
//!    journal's durable log *first* (append-before-effect, the
//!    crash-recovery contract),
//! 2. `StatsSink` — updates the [`RunReport`] counters, including the
//!    warmup-symmetry bookkeeping,
//! 3. `NoticeSink` — emits cluster [`WorkerNotice`]s for tagged requests,
//! 4. `TraceSink` — counts the event and folds it into a running
//!    order-sensitive hash: FNV-1a over the event's `Debug` text. A hand
//!    encoder folds exactly the bytes `format!("{ev:?}")` would write, as
//!    it produces them, without copying them anywhere; `core::fmt` is left
//!    only an `f64` or a string field. The fold stays byte-serial because
//!    it is the hash every pinned trace hash was computed with.
//!
//! Every sink sees every event and acts only on the variants it owns; the
//! `sink_routing_per_variant` test pins which those are. Legality is not a
//! sink's concern: [`lifecycle::transition`](crate::lifecycle::transition),
//! the single place a request may change state, checks each event before
//! the server publishes it. The server never touches the journal, the
//! report, or the notice queue directly — those ~35 formerly scattered
//! call sites are all subscribers now.

use jord_hw::types::Va;
use jord_hw::FaultKind;
use jord_sim::{OnlineStats, SimDuration, SimTime};

use crate::admission::BrownoutLevel;
use crate::durability::{fnv1a_fold, CheckpointSeal, FNV_OFFSET};
use crate::function::FunctionId;
use crate::invocation::{Breakdown, InvocationId};
use crate::journal::{InvocationJournal, JournalRecord, PendingRetry};
use crate::memory::{MemoryLedger, MemoryPressure};
use crate::recovery::RecoveryRung;
use crate::stats::{AutoscaleStats, CrashStats, DurabilityStats, RunReport, SanitizeStats};

/// Why an invocation was aborted mid-execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// An injected hardware fault the PD contained.
    Fault(FaultKind),
    /// The invocation blew past its deadline.
    Timeout,
    /// A nested child failed; the parent tree unwinds.
    ChildFailed,
    /// An injected component crash killed it (accounted by the crash
    /// counters, not the fault counters).
    Crash,
}

/// How a terminal request outcome is reported to the tier above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoticeOutcome {
    /// The request completed; `latency` is receipt → completion.
    Completed {
        /// End-to-end latency on the worker that served it.
        latency: SimDuration,
    },
    /// The request terminally failed (retries exhausted or crash policy).
    Failed,
    /// The request was shed at admission.
    Shed,
}

/// A terminal notice for a tagged request, consumed by a cluster
/// dispatcher via [`WorkerServer::drain_notices`](crate::WorkerServer::drain_notices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerNotice {
    /// The dispatcher-assigned request tag.
    pub tag: u64,
    /// When the outcome landed.
    pub at: SimTime,
    /// What happened.
    pub outcome: NoticeOutcome,
}

/// Which policy scheduled a retry — the stats sink files the two kinds
/// under different counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryKind {
    /// The fault-recovery policy: a failed attempt backs off and retries
    /// (counted in `faults.retries` when measured).
    Backoff,
    /// At-least-once crash recovery re-admitting interrupted work
    /// (counted in `crash.readmitted`, never in `faults.retries`).
    CrashReadmit,
}

/// One lifecycle transition of a request, or a request-less runtime
/// occurrence that shares the same ordered stream.
///
/// Events carrying a `req` drive the per-request state machine in
/// [`lifecycle`](crate::lifecycle); the rest (`req()` returns `None`) are
/// stat-only and never touch a request row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifecycleEvent {
    /// A request entered the worker's future-event list.
    Offered {
        /// Worker-local request id (allocated at offer, stable across
        /// worker-local retries).
        req: u64,
        /// The requested function.
        func: FunctionId,
        /// Argument payload size.
        bytes: u64,
        /// Cluster tag (0 = untagged).
        tag: u64,
        /// Network receipt time.
        at: SimTime,
    },
    /// The request was shed at admission (queue over the shed bound).
    Shed {
        /// The request.
        req: u64,
        /// The requested function.
        func: FunctionId,
        /// Cluster tag.
        tag: u64,
        /// When it was shed.
        at: SimTime,
        /// Inside the measurement window?
        measured: bool,
    },
    /// The request entered an orchestrator's external queue.
    Admitted {
        /// The request.
        req: u64,
        /// Slab id assigned at admission.
        id: InvocationId,
        /// The function.
        func: FunctionId,
        /// Payload size.
        bytes: u64,
        /// Original arrival (preserved across attempts).
        arrival: SimTime,
        /// Dispatch attempt (0 = first).
        attempt: u32,
        /// Cluster tag.
        tag: u64,
        /// Round-robin target orchestrator.
        orch: usize,
    },
    /// The orchestrator allocated and filled the request's ArgBuf.
    ArgBufGranted {
        /// The request.
        req: u64,
        /// Its slab id.
        id: InvocationId,
        /// ArgBuf base address.
        va: Va,
        /// ArgBuf length.
        bytes: u64,
    },
    /// The orchestrator pushed the request into an executor queue.
    Dispatched {
        /// The request.
        req: u64,
        /// Its slab id.
        id: InvocationId,
        /// Target executor index.
        executor: usize,
    },
    /// The executor created (or recycled) the request's protection domain.
    PdCreated {
        /// The request.
        req: u64,
        /// Its slab id.
        id: InvocationId,
        /// The PD id.
        pd: u16,
    },
    /// The request completed.
    Completed {
        /// The request.
        req: u64,
        /// Its slab id.
        id: InvocationId,
        /// Cluster tag.
        tag: u64,
        /// Completion time.
        at: SimTime,
        /// Receipt → completion latency.
        latency: SimDuration,
        /// Inside the measurement window?
        measured: bool,
    },
    /// The request terminally failed.
    Failed {
        /// The request.
        req: u64,
        /// Its slab id.
        id: InvocationId,
        /// Cluster tag.
        tag: u64,
        /// Failure time.
        at: SimTime,
        /// Inside the measurement window?
        measured: bool,
        /// Emit a [`WorkerNotice`]? Whole-worker crash recovery reports
        /// interrupted work through the stranded-request path instead.
        notify: bool,
    },
    /// The request's current attempt ended and a re-dispatch was scheduled.
    RetryScheduled {
        /// The request.
        req: u64,
        /// The slab id it held before this attempt concluded.
        id: InvocationId,
        /// Pending-retry token (monotonic per worker).
        token: u64,
        /// What will re-enter admission when the retry fires.
        retry: PendingRetry,
        /// Backoff retry or crash re-admission.
        kind: RetryKind,
        /// Counted in `faults.retries`? (Crash re-admissions never are.)
        measured: bool,
    },
    /// A scheduled retry fired; the following [`Admitted`](Self::Admitted)
    /// re-enters the request.
    RetryFired {
        /// The request.
        req: u64,
        /// The consumed token.
        token: u64,
    },
    /// A scheduled retry was discarded unfired (at-most-once crash
    /// semantics): the request terminally fails, without a notice.
    RetryDropped {
        /// The request.
        req: u64,
        /// The discarded token.
        token: u64,
        /// Inside the measurement window?
        measured: bool,
    },
    /// The tier above withdrew the request (hedge cancellation or drain
    /// rebalancing); the ledger forgets it was offered here.
    Cancelled {
        /// The request.
        req: u64,
        /// Its slab id, if it had been admitted ( `None` for an arrival
        /// withdrawn straight out of the future-event list).
        id: Option<InvocationId>,
        /// Cluster tag.
        tag: u64,
    },

    // --- stat-only events (no request row; `req()` returns `None`) -----
    /// A component crashed.
    Crashed {
        /// [`jord_hw::CrashScope::label`] of the crashed component.
        scope: &'static str,
    },
    /// An invocation was aborted mid-execution.
    Aborted {
        /// Why.
        cause: AbortCause,
        /// Inside the measurement window?
        measured: bool,
    },
    /// An internal request spilled to a peer worker server.
    Spilled,
    /// A spurious VLB glitch fired.
    Glitched {
        /// Inside the measurement window?
        measured: bool,
    },
    /// An invocation (external or nested) finished executing; feeds the
    /// per-function service-time breakdowns.
    InvocationFinished {
        /// The function.
        func: FunctionId,
        /// End-to-end service time.
        service: SimDuration,
        /// Exec/isolation/dispatch split.
        breakdown: Breakdown,
        /// Inside the measurement window?
        measured: bool,
    },
    /// A PD was set up for an invocation, via the sanitized pool or full
    /// construction.
    PdSetup {
        /// Popped from the sanitized pool (fast path)?
        pooled: bool,
        /// Simulated setup latency, ns.
        ns: f64,
    },
    /// A PD was sanitized back to its pristine snapshot at teardown.
    PdSanitized {
        /// Divergences repaired by this pass.
        repairs: u64,
    },
    /// A crash killed resident invocations.
    CrashKilled {
        /// How many died.
        count: u64,
    },
    /// Recovery replayed the journal suffix.
    Replayed {
        /// Records replayed past the checkpoint.
        records: u64,
    },
    /// The tier above imposed a new brownout level on this worker's
    /// admission policy. Journaled (and traced) so degraded-mode windows
    /// are visible in the event stream and survive replay audits.
    BrownoutChanged {
        /// The newly imposed level.
        level: BrownoutLevel,
        /// When the change landed.
        at: SimTime,
    },
    /// The memory governor evicted warm PDs from the pool (idle age, size
    /// cap, or pressure). Stat-only but traced, so the reclamation
    /// schedule is covered by the replay-identity hash without widening
    /// the journal format — replay re-derives the same evictions from the
    /// same deterministic governor hooks.
    PoolEvicted {
        /// Warm PDs released.
        pds: u64,
        /// Stack/heap bytes they returned.
        bytes: u64,
    },
    /// The governor swept dead bookkeeping out of the VMA table.
    TableCompacted {
        /// Dead entries released by the sweep.
        released: u64,
    },
    /// The worker crossed a memory-pressure threshold.
    MemoryPressureChanged {
        /// The new pressure level.
        level: MemoryPressure,
        /// Resident bytes that triggered the change.
        resident: u64,
    },
    /// Recovery scanned the durable journal image frame by frame,
    /// verifying checksums and sequence numbers.
    JournalScanned {
        /// Frames whose checksum and sequence verified.
        frames_verified: u64,
        /// Frames rejected as corrupt (checksum/decode failure or gap).
        frames_quarantined: u64,
        /// Bytes discarded off the end as a torn tail.
        truncated_bytes: u64,
        /// Duplicate frames (sequence regressions) dropped.
        duplicates_dropped: u64,
    },
    /// Recovery checked a checkpoint's integrity seal against the
    /// scanned log image.
    CheckpointSealChecked {
        /// Did the seal verify (self-consistent and prefix hash match)?
        ok: bool,
    },
    /// Recovery committed to a rung of the ladder.
    RecoveryRungTaken {
        /// The rung.
        rung: RecoveryRung,
    },
    /// A lossy recovery rung demoted an in-flight request whose journal
    /// suffix was lost: re-admitted (at-least-once) or terminally failed
    /// (at-most-once). Stat-only — the actual re-admission or failure is
    /// published as its own request-carrying event.
    WorkDemoted {
        /// The demoted request.
        req: u64,
        /// Re-admitted (`true`) or terminally failed (`false`).
        readmit: bool,
    },
}

impl LifecycleEvent {
    /// The request this event belongs to, or `None` for stat-only events.
    pub fn req(&self) -> Option<u64> {
        use LifecycleEvent::*;
        match *self {
            Offered { req, .. }
            | Shed { req, .. }
            | Admitted { req, .. }
            | ArgBufGranted { req, .. }
            | Dispatched { req, .. }
            | PdCreated { req, .. }
            | Completed { req, .. }
            | Failed { req, .. }
            | RetryScheduled { req, .. }
            | RetryFired { req, .. }
            | RetryDropped { req, .. }
            | Cancelled { req, .. } => Some(req),
            Crashed { .. }
            | Aborted { .. }
            | Spilled
            | Glitched { .. }
            | InvocationFinished { .. }
            | PdSetup { .. }
            | PdSanitized { .. }
            | CrashKilled { .. }
            | Replayed { .. }
            | BrownoutChanged { .. }
            | PoolEvicted { .. }
            | TableCompacted { .. }
            | MemoryPressureChanged { .. }
            | JournalScanned { .. }
            | CheckpointSealChecked { .. }
            | RecoveryRungTaken { .. }
            | WorkDemoted { .. } => None,
        }
    }

    /// Variant name, for diagnostics.
    pub fn name(&self) -> &'static str {
        use LifecycleEvent::*;
        match self {
            Offered { .. } => "Offered",
            Shed { .. } => "Shed",
            Admitted { .. } => "Admitted",
            ArgBufGranted { .. } => "ArgBufGranted",
            Dispatched { .. } => "Dispatched",
            PdCreated { .. } => "PdCreated",
            Completed { .. } => "Completed",
            Failed { .. } => "Failed",
            RetryScheduled { .. } => "RetryScheduled",
            RetryFired { .. } => "RetryFired",
            RetryDropped { .. } => "RetryDropped",
            Cancelled { .. } => "Cancelled",
            Crashed { .. } => "Crashed",
            Aborted { .. } => "Aborted",
            Spilled => "Spilled",
            Glitched { .. } => "Glitched",
            InvocationFinished { .. } => "InvocationFinished",
            PdSetup { .. } => "PdSetup",
            PdSanitized { .. } => "PdSanitized",
            CrashKilled { .. } => "CrashKilled",
            Replayed { .. } => "Replayed",
            BrownoutChanged { .. } => "BrownoutChanged",
            PoolEvicted { .. } => "PoolEvicted",
            TableCompacted { .. } => "TableCompacted",
            MemoryPressureChanged { .. } => "MemoryPressureChanged",
            JournalScanned { .. } => "JournalScanned",
            CheckpointSealChecked { .. } => "CheckpointSealChecked",
            RecoveryRungTaken { .. } => "RecoveryRungTaken",
            WorkDemoted { .. } => "WorkDemoted",
        }
    }
}

/// Sink 1: the write-ahead journal (present only on journaled runs). It
/// turns each journaled event into its [`JournalRecord`] and appends it
/// to the journal's durable log, the journal's only record; the live
/// request table is the lifecycle engine's.
#[derive(Debug, Default)]
struct JournalSink {
    journal: Option<InvocationJournal>,
    /// Records, bytes and checkpoints of journals retired by a
    /// cluster-level crash (the fresh journal restarts at zero; totals
    /// must not).
    retired_records: u64,
    retired_bytes: u64,
    retired_checkpoints: u64,
}

impl JournalSink {
    fn apply(&mut self, ev: &LifecycleEvent) {
        let Some(j) = self.journal.as_mut() else {
            return;
        };
        let record = match *ev {
            LifecycleEvent::Shed { func, measured, .. } => JournalRecord::Shed { func, measured },
            LifecycleEvent::Admitted {
                id,
                func,
                bytes,
                arrival,
                attempt,
                tag,
                ..
            } => JournalRecord::Admit {
                id,
                func,
                bytes,
                arrival,
                attempt,
                tag,
            },
            LifecycleEvent::Completed { id, measured, .. } => {
                JournalRecord::Complete { id, measured }
            }
            LifecycleEvent::Failed { id, measured, .. } => JournalRecord::Fail { id, measured },
            LifecycleEvent::RetryScheduled {
                id,
                token,
                retry,
                measured,
                ..
            } => JournalRecord::RetryScheduled {
                token,
                id,
                func: retry.func,
                bytes: retry.bytes,
                arrival: retry.arrival,
                attempt: retry.attempt,
                due: retry.due,
                tag: retry.tag,
                measured,
            },
            LifecycleEvent::RetryFired { token, .. } => JournalRecord::RetryFired { token },
            LifecycleEvent::RetryDropped {
                token, measured, ..
            } => JournalRecord::RetryDropped { token, measured },
            LifecycleEvent::Cancelled { id: Some(id), .. } => JournalRecord::Cancel { id },
            LifecycleEvent::Crashed { scope } => JournalRecord::Crash { scope },
            LifecycleEvent::BrownoutChanged { level, .. } => JournalRecord::Brownout { level },
            // Offers and arrivals withdrawn before admission are never
            // journaled, nor are the stat-only events, nor ArgBuf grants,
            // dispatches and PD creations: a re-run request redoes all
            // three, so replay reads none of them.
            _ => return,
        };
        j.append(&record);
    }
}

/// Sink 2: the run report and its warmup-symmetry bookkeeping.
#[derive(Debug, Default)]
struct StatsSink {
    report: RunReport,
    crash: CrashStats,
    sanitize: SanitizeStats,
    autoscale: AutoscaleStats,
    /// Event-derived memory-governor activity (evictions, compactions,
    /// pressure transitions). The byte truths come from the server at
    /// seal; these counters come from the event stream — the two views
    /// are folded together there.
    memory: MemoryLedger,
    /// Durable-storage integrity counters. Like `crash`, kept outside the
    /// report so [`EventBus::restore`] (which replaces the report with a
    /// replayed reconstruction) cannot erase them.
    durability: DurabilityStats,
    /// Current brownout level and when it was entered, for folding
    /// degraded-mode residency time into the report at seal.
    brownout: BrownoutLevel,
    brownout_since: SimTime,
    /// Terminal outcomes to discard before measurement starts.
    warmup: u64,
    /// Unmeasured terminal outcomes seen so far.
    warmed: u64,
}

impl StatsSink {
    fn measuring(&self) -> bool {
        self.warmed >= self.warmup
    }

    /// An unmeasured terminal outcome: advance the warmup window and
    /// un-offer the request, keeping the ledger balanced.
    fn warm(&mut self) {
        self.warmed += 1;
        self.report.offered -= 1;
    }

    /// Folds the residency time at the current brownout level up to
    /// `until` into the counters, then re-anchors the segment there.
    fn fold_brownout(&mut self, until: SimTime) {
        let ns = until.saturating_since(self.brownout_since).as_ns_f64();
        match self.brownout {
            BrownoutLevel::Normal => {}
            BrownoutLevel::Degraded => self.autoscale.degraded_ns += ns,
            BrownoutLevel::ShedHeavy => self.autoscale.shed_heavy_ns += ns,
        }
        self.brownout_since = until;
    }

    fn apply(&mut self, ev: &LifecycleEvent) {
        match *ev {
            LifecycleEvent::Offered { .. } => self.report.offered += 1,
            LifecycleEvent::Shed { measured, .. } => {
                if measured {
                    self.report.faults.sheds += 1;
                } else {
                    // Sheds never executed, so they do not advance warmup.
                    self.report.offered -= 1;
                }
            }
            LifecycleEvent::Completed {
                latency, measured, ..
            } => {
                if measured {
                    self.report.record_request(latency);
                } else {
                    self.warm();
                }
            }
            LifecycleEvent::Failed { measured, .. }
            | LifecycleEvent::RetryDropped { measured, .. } => {
                if measured {
                    self.report.faults.failed += 1;
                } else {
                    self.warm();
                }
            }
            LifecycleEvent::RetryScheduled { kind, measured, .. } => match kind {
                RetryKind::Backoff => {
                    if measured {
                        self.report.faults.retries += 1;
                    }
                }
                RetryKind::CrashReadmit => self.crash.readmitted += 1,
            },
            LifecycleEvent::Cancelled { .. } => self.report.offered -= 1,
            LifecycleEvent::Crashed { .. } => self.crash.crashes += 1,
            LifecycleEvent::Aborted { cause, measured } => {
                if measured && !matches!(cause, AbortCause::Crash) {
                    self.report.faults.aborted += 1;
                    match cause {
                        AbortCause::Fault(kind) => self.report.faults.count(kind),
                        AbortCause::Timeout => self.report.faults.timeouts += 1,
                        AbortCause::ChildFailed | AbortCause::Crash => {}
                    }
                }
            }
            LifecycleEvent::Spilled => self.report.spilled += 1,
            LifecycleEvent::Glitched { measured } => {
                if measured {
                    self.report.faults.glitches += 1;
                }
            }
            LifecycleEvent::InvocationFinished {
                func,
                service,
                breakdown,
                measured,
            } => {
                if measured {
                    self.report.record_invocation(func, service, breakdown);
                }
            }
            LifecycleEvent::PdSetup { pooled, ns } => {
                if pooled {
                    self.sanitize.pooled_setups += 1;
                    self.sanitize.pooled_setup_ns += ns;
                } else {
                    self.sanitize.full_setups += 1;
                    self.sanitize.full_setup_ns += ns;
                }
            }
            LifecycleEvent::PdSanitized { repairs } => {
                self.sanitize.sanitizations += 1;
                self.sanitize.repairs += repairs;
            }
            LifecycleEvent::CrashKilled { count } => self.crash.killed += count,
            LifecycleEvent::Replayed { records } => self.crash.replayed += records,
            LifecycleEvent::BrownoutChanged { level, at } => {
                self.fold_brownout(at);
                self.brownout = level;
                self.autoscale.brownout_transitions += 1;
            }
            LifecycleEvent::PoolEvicted { pds, bytes } => {
                self.memory.pool_evictions += pds;
                self.memory.evicted_bytes += bytes;
            }
            LifecycleEvent::TableCompacted { released } => {
                self.memory.compactions += 1;
                self.memory.compacted_slots += released;
            }
            LifecycleEvent::MemoryPressureChanged { .. } => {
                self.memory.pressure_transitions += 1;
            }
            LifecycleEvent::JournalScanned {
                frames_verified,
                frames_quarantined,
                truncated_bytes,
                duplicates_dropped,
            } => {
                self.durability.frames_verified += frames_verified;
                self.durability.frames_quarantined += frames_quarantined;
                self.durability.truncated_bytes += truncated_bytes;
                self.durability.duplicates_dropped += duplicates_dropped;
            }
            LifecycleEvent::CheckpointSealChecked { ok } => {
                if !ok {
                    self.durability.seal_failures += 1;
                }
            }
            LifecycleEvent::RecoveryRungTaken { rung } => match rung {
                RecoveryRung::ExactReplay => self.durability.exact_replays += 1,
                RecoveryRung::TornTail => self.durability.torn_tails += 1,
                RecoveryRung::Quarantine => self.durability.quarantines += 1,
                RecoveryRung::CheckpointFallback => self.durability.checkpoint_fallbacks += 1,
                RecoveryRung::PristineReboot => self.durability.pristine_reboots += 1,
            },
            LifecycleEvent::WorkDemoted { readmit, .. } => {
                if readmit {
                    self.durability.demoted_readmitted += 1;
                } else {
                    self.durability.demoted_failed += 1;
                }
            }
            LifecycleEvent::Admitted { .. }
            | LifecycleEvent::ArgBufGranted { .. }
            | LifecycleEvent::Dispatched { .. }
            | LifecycleEvent::PdCreated { .. }
            | LifecycleEvent::RetryFired { .. } => {}
        }
    }
}

/// Sink 3: terminal notices for the cluster dispatcher.
#[derive(Debug, Default)]
struct NoticeSink {
    notices: Vec<WorkerNotice>,
}

impl NoticeSink {
    fn apply(&mut self, ev: &LifecycleEvent) {
        match *ev {
            LifecycleEvent::Completed {
                tag, at, latency, ..
            } if tag != 0 => self.notices.push(WorkerNotice {
                tag,
                at,
                outcome: NoticeOutcome::Completed { latency },
            }),
            LifecycleEvent::Failed {
                tag, at, notify, ..
            } if tag != 0 && notify => self.notices.push(WorkerNotice {
                tag,
                at,
                outcome: NoticeOutcome::Failed,
            }),
            LifecycleEvent::Shed { tag, at, .. } if tag != 0 => self.notices.push(WorkerNotice {
                tag,
                at,
                outcome: NoticeOutcome::Shed,
            }),
            // A dropped retry fails without a notice: whole-worker crash
            // recovery reports interruptions through the stranded path.
            _ => {}
        }
    }
}

/// Sink 4: an event count plus an order-sensitive hash of the whole
/// stream.
#[derive(Debug)]
struct TraceSink {
    count: u64,
    hash: u64,
}

impl TraceSink {
    fn new() -> Self {
        TraceSink {
            count: 0,
            hash: FNV_OFFSET,
        }
    }

    fn apply(&mut self, ev: &LifecycleEvent) {
        // FNV-1a over the `Debug` encoding: stable for identical event
        // streams, and independent of in-memory layout. The encoder folds
        // exactly `format!("{ev:?}")`'s bytes as it produces them.
        let mut fnv = Fnv1a(self.hash);
        ev.debug_bytes(&mut fnv);
        // Record separator so concatenation ambiguities cannot collide.
        fnv.put(&[0x1e]);
        self.hash = fnv.0;
        self.count += 1;
    }
}

// --- the trace encoder --------------------------------------------------
//
// `core::fmt` spends most of a `{ev:?}` in dynamic dispatch and padding
// logic the derived `Debug` never uses. `DebugBytes` writes the same bytes
// by hand: literal field names and punctuation, decimal integers, and the
// derived layouts `Name { a: x, b: y }`, `Name(x)` and `Name`. Only an
// `f64` (shortest round-trip digits) and a string (escaping) still go
// through `{:?}`. Tests pin the bytes to `format!("{ev:?}")` for every
// variant and at edge values.

/// Where [`DebugBytes`] writes.
trait DebugOut {
    fn put(&mut self, bytes: &[u8]);
}

/// An FNV-1a state that folds every byte written to it. FNV-1a is a
/// byte-at-a-time fold, so folding the pieces as they come hashes the
/// same as folding the whole text, and nothing is copied.
struct Fnv1a(u64);

impl DebugOut for Fnv1a {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 = fnv1a_fold(self.0, bytes);
    }
}

/// Writes exactly the bytes of `format!("{self:?}")` (the derived
/// `Debug`) to `out`.
trait DebugBytes {
    fn debug_bytes(&self, out: &mut impl DebugOut);
}

/// Writes `value`'s `Debug` bytes through `core::fmt`.
fn fmt_debug(out: &mut impl DebugOut, value: &dyn std::fmt::Debug) {
    struct Adapter<'a, O>(&'a mut O);
    impl<O: DebugOut> std::fmt::Write for Adapter<'_, O> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.put(s.as_bytes());
            Ok(())
        }
    }
    let _ = std::fmt::write(&mut Adapter(out), format_args!("{value:?}"));
}

/// `n` in decimal, four digits per 64-bit division.
fn put_decimal(out: &mut impl DebugOut, mut n: u64) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let pair = |p: u32| {
        let i = p as usize * 2;
        [PAIRS[i], PAIRS[i + 1]]
    };
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while n >= 10_000 {
        let four = (n % 10_000) as u32;
        n /= 10_000;
        at -= 4;
        digits[at..at + 2].copy_from_slice(&pair(four / 100));
        digits[at + 2..at + 4].copy_from_slice(&pair(four % 100));
    }
    let mut n = n as u32;
    if n >= 100 {
        at -= 2;
        digits[at..at + 2].copy_from_slice(&pair(n % 100));
        n /= 100;
    }
    if n >= 10 {
        at -= 2;
        digits[at..at + 2].copy_from_slice(&pair(n));
    } else {
        at -= 1;
        digits[at] = b'0' + n as u8;
    }
    out.put(&digits[at..]);
}

macro_rules! debug_integers {
    ($($t:ty),+) => {$(
        impl DebugBytes for $t {
            fn debug_bytes(&self, out: &mut impl DebugOut) {
                put_decimal(out, *self as u64);
            }
        }
    )+};
}

debug_integers!(u16, u32, u64, usize);

impl DebugBytes for bool {
    fn debug_bytes(&self, out: &mut impl DebugOut) {
        out.put(if *self { "true" } else { "false" }.as_bytes());
    }
}

impl DebugBytes for f64 {
    fn debug_bytes(&self, out: &mut impl DebugOut) {
        fmt_debug(out, self);
    }
}

/// Only `Crashed` carries a string, and crashes are rare, so the escaping
/// rules stay with `core::fmt`.
impl DebugBytes for &str {
    fn debug_bytes(&self, out: &mut impl DebugOut) {
        fmt_debug(out, self);
    }
}

impl<T: DebugBytes> DebugBytes for Option<T> {
    fn debug_bytes(&self, out: &mut impl DebugOut) {
        match self {
            Some(v) => {
                out.put(b"Some(");
                v.debug_bytes(out);
                out.put(b")");
            }
            None => out.put(b"None"),
        }
    }
}

/// A tuple struct with one integer field: `Name(n)`, `open` being `Name(`.
fn put_newtype(out: &mut impl DebugOut, open: &[u8], n: u64) {
    out.put(open);
    put_decimal(out, n);
    out.put(b")");
}

impl DebugBytes for FunctionId {
    fn debug_bytes(&self, out: &mut impl DebugOut) {
        put_newtype(out, b"FunctionId(", u64::from(self.0));
    }
}

impl DebugBytes for InvocationId {
    fn debug_bytes(&self, out: &mut impl DebugOut) {
        put_newtype(out, b"InvocationId(", self.0 as u64);
    }
}

impl DebugBytes for SimTime {
    fn debug_bytes(&self, out: &mut impl DebugOut) {
        put_newtype(out, b"SimTime(", self.as_ps());
    }
}

impl DebugBytes for SimDuration {
    fn debug_bytes(&self, out: &mut impl DebugOut) {
        put_newtype(out, b"SimDuration(", self.as_ps());
    }
}

/// Fieldless enums: the variant's name.
macro_rules! debug_units {
    ($($t:ident { $($variant:ident),+ })+) => {$(
        impl DebugBytes for $t {
            fn debug_bytes(&self, out: &mut impl DebugOut) {
                out.put(match self { $($t::$variant => stringify!($variant)),+ }.as_bytes());
            }
        }
    )+};
}

debug_units! {
    FaultKind { Unmapped, Permission, Privilege, MissingGate, CsrAccess }
    RetryKind { Backoff, CrashReadmit }
    BrownoutLevel { Normal, Degraded, ShedHeavy }
    MemoryPressure { Normal, Elevated, Critical }
    RecoveryRung { ExactReplay, TornTail, Quarantine, CheckpointFallback, PristineReboot }
}

impl DebugBytes for AbortCause {
    fn debug_bytes(&self, out: &mut impl DebugOut) {
        match self {
            AbortCause::Fault(kind) => {
                out.put(b"Fault(");
                kind.debug_bytes(out);
                out.put(b")");
            }
            AbortCause::Timeout => out.put(b"Timeout"),
            AbortCause::ChildFailed => out.put(b"ChildFailed"),
            AbortCause::Crash => out.put(b"Crash"),
        }
    }
}

/// A struct with named fields, bound to locals of the same names:
/// `Name { a: x, b: y }`, one literal per field.
macro_rules! debug_fields {
    ($out:ident, $name:ident { $first:ident $(, $field:ident)* }) => {{
        $out.put(concat!(stringify!($name), " { ", stringify!($first), ": ").as_bytes());
        $first.debug_bytes($out);
        $(
            $out.put(concat!(", ", stringify!($field), ": ").as_bytes());
            $field.debug_bytes($out);
        )*
        $out.put(b" }");
    }};
}

impl DebugBytes for PendingRetry {
    fn debug_bytes(&self, out: &mut impl DebugOut) {
        let PendingRetry {
            func,
            bytes,
            arrival,
            attempt,
            tag,
            due,
        } = *self;
        debug_fields!(
            out,
            PendingRetry {
                func,
                bytes,
                arrival,
                attempt,
                tag,
                due
            }
        );
    }
}

impl DebugBytes for Breakdown {
    fn debug_bytes(&self, out: &mut impl DebugOut) {
        let Breakdown {
            exec,
            isolation,
            dispatch,
        } = *self;
        debug_fields!(
            out,
            Breakdown {
                exec,
                isolation,
                dispatch
            }
        );
    }
}

/// Every variant of [`LifecycleEvent`], each field in declaration order.
/// The patterns name every field, so adding one fails to compile here.
macro_rules! debug_events {
    ($ev:expr, $out:ident; $($name:ident { $($field:ident),+ })+ ; $($unit:ident)+) => {
        match $ev {
            $(LifecycleEvent::$name { $($field),+ } => debug_fields!($out, $name { $($field),+ }),)+
            $(LifecycleEvent::$unit => $out.put(stringify!($unit).as_bytes()),)+
        }
    };
}

impl DebugBytes for LifecycleEvent {
    fn debug_bytes(&self, out: &mut impl DebugOut) {
        debug_events!(*self, out;
            Offered { req, func, bytes, tag, at }
            Shed { req, func, tag, at, measured }
            Admitted { req, id, func, bytes, arrival, attempt, tag, orch }
            ArgBufGranted { req, id, va, bytes }
            Dispatched { req, id, executor }
            PdCreated { req, id, pd }
            Completed { req, id, tag, at, latency, measured }
            Failed { req, id, tag, at, measured, notify }
            RetryScheduled { req, id, token, retry, kind, measured }
            RetryFired { req, token }
            RetryDropped { req, token, measured }
            Cancelled { req, id, tag }
            Crashed { scope }
            Aborted { cause, measured }
            Glitched { measured }
            InvocationFinished { func, service, breakdown, measured }
            PdSetup { pooled, ns }
            PdSanitized { repairs }
            CrashKilled { count }
            Replayed { records }
            BrownoutChanged { level, at }
            PoolEvicted { pds, bytes }
            TableCompacted { released }
            MemoryPressureChanged { level, resident }
            JournalScanned { frames_verified, frames_quarantined, truncated_bytes, duplicates_dropped }
            CheckpointSealChecked { ok }
            RecoveryRungTaken { rung }
            WorkDemoted { req, readmit }
            ; Spilled
        )
    }
}

/// What the bus contributes to a [`WorkerCheckpoint`](crate::WorkerCheckpoint):
/// the journal mark plus the ledger state the sinks own. The in-flight
/// and pending-retry tables come from the lifecycle engine's rows.
#[derive(Debug)]
pub struct CheckpointImage {
    /// Journal record index replay starts from.
    pub at_record: usize,
    /// The report as of capture.
    pub report: RunReport,
    /// Warmup completions seen.
    pub warmed: u64,
    /// Integrity seal over the durable log up to the checkpoint mark
    /// (frame count, byte length, running hash).
    pub seal: CheckpointSeal,
}

/// The ordered event stream's fan-out point. Owns the four sinks and all
/// the mutable bookkeeping that used to live as loose `WorkerServer`
/// fields: the journal, the report, the crash/sanitize counters, the
/// warmup window, and the notice queue.
#[derive(Debug)]
pub struct EventBus {
    journal: JournalSink,
    stats: StatsSink,
    notices: NoticeSink,
    trace: TraceSink,
}

impl EventBus {
    /// A bus over an optional journal.
    pub fn new(journal: Option<InvocationJournal>) -> Self {
        EventBus {
            journal: JournalSink {
                journal,
                ..JournalSink::default()
            },
            stats: StatsSink::default(),
            notices: NoticeSink::default(),
            trace: TraceSink::new(),
        }
    }

    /// Publishes one event to every sink, in the fixed order
    /// journal → stats → notices → trace.
    pub fn publish(&mut self, ev: &LifecycleEvent) {
        self.journal.apply(ev);
        self.stats.apply(ev);
        self.notices.apply(ev);
        self.trace.apply(ev);
    }

    // --- measurement window -------------------------------------------

    /// Sets the number of terminal outcomes to discard before measuring.
    pub fn set_warmup(&mut self, warmup: u64) {
        self.stats.warmup = warmup;
    }

    /// True once the warmup window has been consumed.
    pub fn measuring(&self) -> bool {
        self.stats.measuring()
    }

    // --- notices -------------------------------------------------------

    /// Drains the accumulated terminal notices, keeping the buffer's
    /// capacity for the next ones.
    pub fn drain_notices(&mut self) -> std::vec::Drain<'_, WorkerNotice> {
        self.notices.notices.drain(..)
    }

    // --- journal -------------------------------------------------------

    /// True when this run journals (crash config present).
    pub fn journaling(&self) -> bool {
        self.journal.journal.is_some()
    }

    /// Read-only journal access, for replay and the recovery proofs.
    pub fn journal(&self) -> Option<&InvocationJournal> {
        self.journal.journal.as_ref()
    }

    /// True when `every` records accumulated since the last checkpoint.
    pub fn due_checkpoint(&self, every: usize) -> bool {
        self.journal
            .journal
            .as_ref()
            .is_some_and(|j| j.due_checkpoint(every))
    }

    /// Marks a checkpoint in the journal and snapshots the sink-owned
    /// ledger state; `None` when not journaling.
    pub fn checkpoint_image(&mut self) -> Option<CheckpointImage> {
        let j = self.journal.journal.as_mut()?;
        let at_record = j.mark_checkpoint();
        // Seal *after* the checkpoint mark so the Checkpoint frame itself
        // is covered by the sealed prefix.
        Some(CheckpointImage {
            at_record,
            report: self.stats.report.clone(),
            warmed: self.stats.warmed,
            seal: j.durable_log().seal(),
        })
    }

    /// Retires the current journal (its totals fold into the final
    /// report) and starts a fresh one — a cluster-level worker crash
    /// replaces the process wholesale.
    pub fn retire_journal(&mut self) {
        if let Some(j) = self.journal.journal.take() {
            self.journal.retired_records += j.len() as u64;
            self.journal.retired_bytes += j.durable_log().bytes().len() as u64;
            self.journal.retired_checkpoints += j.checkpoints();
        }
        self.journal.journal = Some(InvocationJournal::new());
    }

    // --- crash restore -------------------------------------------------

    /// Replaces the ledger with replay's reconstruction (whole-worker
    /// crash: the in-memory report died with the process).
    pub fn restore(&mut self, report: RunReport, warmed: u64) {
        self.stats.report = report;
        self.stats.warmed = warmed;
    }

    /// Like [`restore`](Self::restore), but re-bases `offered` onto the
    /// settled outcomes only: a cluster crash strands all unfinished work
    /// to the dispatcher, so nothing unfinished stays on this worker's
    /// books.
    pub fn restore_rebased(&mut self, report: RunReport, warmed: u64) {
        let mut report = report;
        report.offered = report.settled();
        self.restore(report, warmed);
    }

    // --- trace ---------------------------------------------------------

    /// Order-sensitive FNV-1a hash of every event published so far.
    pub fn trace_hash(&self) -> u64 {
        self.trace.hash
    }

    /// Total events published so far.
    pub fn trace_len(&self) -> u64 {
        self.trace.count
    }

    // --- seal ----------------------------------------------------------

    /// Finalizes the run: folds the crash/sanitize counters and journal
    /// totals into the report and returns it, leaving the sinks empty.
    ///
    /// `memory` is the server-assembled byte ledger (PrivLib chokepoint
    /// counters + pool + journal footprint); the event-derived governor
    /// activity folds in here. The server's audit checks both ledgers of
    /// the sealed report.
    pub fn seal<'a>(
        &mut self,
        finished_at: SimTime,
        shootdown_ns: OnlineStats,
        dispatch: impl Iterator<Item = &'a OnlineStats>,
        memory: MemoryLedger,
    ) -> RunReport {
        let mut memory = memory;
        memory.pool_evictions = self.stats.memory.pool_evictions;
        memory.evicted_bytes = self.stats.memory.evicted_bytes;
        memory.compactions = self.stats.memory.compactions;
        memory.compacted_slots = self.stats.memory.compacted_slots;
        memory.pressure_transitions = self.stats.memory.pressure_transitions;
        let mut report = std::mem::take(&mut self.stats.report);
        report.memory = memory;
        for d in dispatch {
            report.dispatch_ns.merge(d);
        }
        report.shootdown_ns = shootdown_ns;
        report.crash = self.stats.crash;
        report.durability = self.stats.durability;
        if let Some(j) = &self.journal.journal {
            report.crash.journal_records = j.len() as u64 + self.journal.retired_records;
            report.crash.checkpoints = j.checkpoints() + self.journal.retired_checkpoints;
            // Durable-log footprint rides the memory ledger too (it is not
            // part of the mapped/resident/reclaimed conservation — the log
            // lives outside the worker's address space).
            report.memory.journal_bytes =
                j.durable_log().bytes().len() as u64 + self.journal.retired_bytes;
        }
        report.memory.checkpoint_bytes =
            report.crash.checkpoints * crate::memory::CHECKPOINT_IMAGE_BYTES;
        report.sanitize = self.stats.sanitize;
        self.stats.fold_brownout(finished_at);
        report.autoscale = self.stats.autoscale;
        report.finished_at = finished_at;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{transition, InvocationState, LifecycleEngine};
    use jord_hw::CrashScope;

    fn offered(req: u64) -> LifecycleEvent {
        LifecycleEvent::Offered {
            req,
            func: FunctionId(0),
            bytes: 64,
            tag: 0,
            at: SimTime::ZERO,
        }
    }

    fn publish(bus: &mut EventBus, state: Option<InvocationState>, ev: LifecycleEvent) {
        transition(state, &ev).expect("legal transition");
        bus.publish(&ev);
    }

    #[test]
    fn offered_counts_and_traces() {
        let mut bus = EventBus::new(None);
        publish(&mut bus, None, offered(1));
        publish(&mut bus, None, offered(2));
        assert_eq!(bus.trace_len(), 2);
    }

    #[test]
    fn trace_hash_is_order_sensitive_and_deterministic() {
        let mut a = EventBus::new(None);
        let mut b = EventBus::new(None);
        for req in 1..=10 {
            publish(&mut a, None, offered(req));
            publish(&mut b, None, offered(11 - req));
        }
        assert_eq!(a.trace_len(), b.trace_len());
        assert_ne!(a.trace_hash(), b.trace_hash(), "order must matter");

        // Same stream on a fresh bus: identical hash.
        let mut c = EventBus::new(None);
        for req in 1..=10 {
            publish(&mut c, None, offered(req));
        }
        assert_eq!(c.trace_hash(), a.trace_hash());
    }

    #[test]
    fn warmup_symmetry_in_the_stats_sink() {
        let mut bus = EventBus::new(None);
        bus.set_warmup(1);
        assert!(!bus.measuring());
        publish(&mut bus, None, offered(1));
        // Unmeasured terminal: warms the window and un-offers.
        let ev = LifecycleEvent::Completed {
            req: 1,
            id: InvocationId(0),
            tag: 0,
            at: SimTime::ZERO,
            latency: SimDuration::from_ns(100),
            measured: bus.measuring(),
        };
        publish(&mut bus, Some(InvocationState::InFlight), ev);
        assert!(bus.measuring(), "one unmeasured terminal consumed warmup");
        assert_eq!(bus.stats.report.offered, 0, "warmup un-offers");
        assert_eq!(bus.stats.report.completed, 0);
    }

    #[test]
    fn notices_only_for_tagged_requests() {
        let mut bus = EventBus::new(None);
        bus.publish(&LifecycleEvent::Shed {
            req: 1,
            func: FunctionId(0),
            tag: 0,
            at: SimTime::ZERO,
            measured: true,
        });
        bus.publish(&LifecycleEvent::Shed {
            req: 2,
            func: FunctionId(0),
            tag: 9,
            at: SimTime::ZERO,
            measured: true,
        });
        let notices: Vec<_> = bus.drain_notices().collect();
        assert_eq!(notices.len(), 1, "untagged sheds emit no notice");
        assert_eq!(notices[0].tag, 9);
        assert_eq!(notices[0].outcome, NoticeOutcome::Shed);
    }

    /// Every variant, in a legal order with tagged, measured events, each
    /// with the sinks that act on it: (event, journal record appended,
    /// notice queued, stats sink untouched).
    fn routing_steps() -> Vec<(LifecycleEvent, bool, bool, bool)> {
        use LifecycleEvent::*;
        const T: SimTime = SimTime::ZERO;
        const NS: SimDuration = SimDuration::from_ns(9);
        let f = FunctionId(0);
        let id = InvocationId;
        let offer = |req: u64| Offered {
            req,
            func: f,
            bytes: 64,
            tag: 10 + req,
            at: T,
        };
        let admit = |req: u64, slab: usize| Admitted {
            req,
            id: id(slab),
            func: f,
            bytes: 64,
            arrival: T,
            attempt: 0,
            tag: 10 + req,
            orch: 0,
        };
        let retry = |req: u64, slab: usize, token: u64| RetryScheduled {
            req,
            id: id(slab),
            token,
            retry: PendingRetry {
                func: f,
                bytes: 64,
                arrival: T,
                attempt: 1,
                tag: 10 + req,
                due: T,
            },
            kind: RetryKind::Backoff,
            measured: true,
        };
        // (event, journal record appended, notice queued, stats sink untouched)
        #[rustfmt::skip]
        let steps = vec![
            (offer(1), false, false, false),
            (admit(1, 0), true, false, true),
            (ArgBufGranted { req: 1, id: id(0), va: 0x1000, bytes: 64 }, false, false, true),
            (Dispatched { req: 1, id: id(0), executor: 0 }, false, false, true),
            (PdCreated { req: 1, id: id(0), pd: 1 }, false, false, true),
            (Completed { req: 1, id: id(0), tag: 11, at: T, latency: NS, measured: true }, true, true, false),
            (offer(2), false, false, false),
            (Shed { req: 2, func: f, tag: 12, at: T, measured: true }, true, true, false),
            (offer(3), false, false, false),
            (admit(3, 1), true, false, true),
            (Failed { req: 3, id: id(1), tag: 13, at: T, measured: true, notify: true }, true, true, false),
            (offer(4), false, false, false),
            (admit(4, 2), true, false, true),
            (retry(4, 2, 0), true, false, false),
            (RetryFired { req: 4, token: 0 }, true, false, true),
            (admit(4, 3), true, false, true),
            (Cancelled { req: 4, id: Some(id(3)), tag: 14 }, true, false, false),
            (offer(5), false, false, false),
            (admit(5, 4), true, false, true),
            (retry(5, 4, 1), true, false, false),
            (RetryDropped { req: 5, token: 1, measured: true }, true, false, false),
            (offer(6), false, false, false),
            // Withdrawn before admission: never journaled.
            (Cancelled { req: 6, id: None, tag: 16 }, false, false, false),
            (Crashed { scope: "executor" }, true, false, false),
            (Aborted { cause: AbortCause::Timeout, measured: true }, false, false, false),
            (Spilled, false, false, false),
            (Glitched { measured: true }, false, false, false),
            (InvocationFinished { func: f, service: NS, breakdown: Breakdown::default(), measured: true },
                false, false, false),
            (PdSetup { pooled: true, ns: 5.0 }, false, false, false),
            (PdSanitized { repairs: 1 }, false, false, false),
            (CrashKilled { count: 1 }, false, false, false),
            (Replayed { records: 1 }, false, false, false),
            (BrownoutChanged { level: BrownoutLevel::Degraded, at: T }, true, false, false),
            (PoolEvicted { pds: 1, bytes: 4096 }, false, false, false),
            (TableCompacted { released: 1 }, false, false, false),
            (MemoryPressureChanged { level: MemoryPressure::Elevated, resident: 1 }, false, false, false),
            (JournalScanned { frames_verified: 1, frames_quarantined: 0, truncated_bytes: 0, duplicates_dropped: 0 },
                false, false, false),
            (CheckpointSealChecked { ok: false }, false, false, false),
            (RecoveryRungTaken { rung: RecoveryRung::TornTail }, false, false, false),
            (WorkDemoted { req: 7, readmit: true }, false, false, false),
        ];
        steps
    }

    /// Every variant, published in a legal order on a journaled bus with
    /// tagged, measured events: which sinks act on it.
    #[test]
    fn sink_routing_per_variant() {
        let steps = routing_steps();
        let names: std::collections::BTreeSet<_> = steps.iter().map(|s| s.0.name()).collect();
        assert_eq!(names.len(), 29, "every LifecycleEvent variant is covered");

        let mut bus = EventBus::new(Some(InvocationJournal::new()));
        let mut engine = LifecycleEngine::new();
        for (ev, journaled, notified, quiet) in steps {
            let records = bus.journal().expect("journaled").len();
            let traced = bus.trace_len();
            let stats = format!("{:?}", bus.stats);
            engine.apply(&ev).expect("legal sequence");
            bus.publish(&ev);
            let name = ev.name();
            let journal_grew = bus.journal().unwrap().len() > records;
            assert_eq!(journal_grew, journaled, "{name}: journal record");
            assert_eq!(bus.drain_notices().len() > 0, notified, "{name}: notice");
            assert_eq!(bus.trace_len(), traced + 1, "{name}: traced once");
            if quiet {
                assert_eq!(format!("{:?}", bus.stats), stats, "{name}: stats untouched");
            }
        }
        assert!(engine.is_empty(), "every request reached a terminal state");
    }

    impl DebugOut for Vec<u8> {
        fn put(&mut self, bytes: &[u8]) {
            self.extend_from_slice(bytes);
        }
    }

    fn encoded(ev: &LifecycleEvent) -> String {
        let mut bytes = Vec::new();
        ev.debug_bytes(&mut bytes);
        String::from_utf8(bytes).expect("Debug output is UTF-8")
    }

    #[test]
    fn decimals_match_display_at_every_digit_boundary() {
        let powers = (0..20).map(|k| 10u64.pow(k));
        let edges = powers.flat_map(|p| [p - 1, p, p + 1]);
        for n in (0..=10_001).chain(edges).chain([u64::MAX - 1, u64::MAX]) {
            let mut bytes = Vec::new();
            put_decimal(&mut bytes, n);
            assert_eq!(bytes, n.to_string().into_bytes());
        }
    }

    /// Every variant at 0 and at the maximum of each field, every
    /// crash-scope label, every variant of each enum field, both
    /// `Cancelled` forms and the awkward `f64`s.
    fn edge_events() -> Vec<LifecycleEvent> {
        use LifecycleEvent::*;
        let mut evs = Vec::new();
        for (n, u, w, t) in [
            (0, 0, 0, SimTime::ZERO),
            (u64::MAX, usize::MAX, u32::MAX, SimTime::MAX),
        ] {
            let (b, d, f, id) = (
                n > 0,
                SimDuration::from_ps(n),
                FunctionId(w),
                InvocationId(u),
            );
            let retry = PendingRetry {
                func: f,
                bytes: n,
                arrival: t,
                attempt: w,
                tag: n,
                due: t,
            };
            #[rustfmt::skip]
            evs.extend([
                Offered { req: n, func: f, bytes: n, tag: n, at: t },
                Shed { req: n, func: f, tag: n, at: t, measured: b },
                Admitted { req: n, id, func: f, bytes: n, arrival: t, attempt: w, tag: n, orch: u },
                ArgBufGranted { req: n, id, va: n, bytes: n },
                Dispatched { req: n, id, executor: u },
                PdCreated { req: n, id, pd: if b { u16::MAX } else { 0 } },
                Completed { req: n, id, tag: n, at: t, latency: d, measured: b },
                Failed { req: n, id, tag: n, at: t, measured: b, notify: !b },
                RetryScheduled { req: n, id, token: n, retry, kind: RetryKind::Backoff, measured: b },
                RetryScheduled { req: n, id, token: n, retry, kind: RetryKind::CrashReadmit, measured: !b },
                RetryFired { req: n, token: n },
                RetryDropped { req: n, token: n, measured: b },
                Cancelled { req: n, id: Some(id), tag: n },
                Cancelled { req: n, id: None, tag: n },
                Aborted { cause: AbortCause::Timeout, measured: b },
                Glitched { measured: b },
                InvocationFinished {
                    func: f,
                    service: d,
                    breakdown: Breakdown { exec: d, isolation: d, dispatch: d },
                    measured: b,
                },
                PdSanitized { repairs: n },
                CrashKilled { count: n },
                Replayed { records: n },
                PoolEvicted { pds: n, bytes: n },
                TableCompacted { released: n },
                MemoryPressureChanged { level: MemoryPressure::Critical, resident: n },
                JournalScanned {
                    frames_verified: n,
                    frames_quarantined: n,
                    truncated_bytes: n,
                    duplicates_dropped: n,
                },
                CheckpointSealChecked { ok: b },
                WorkDemoted { req: n, readmit: b },
                BrownoutChanged { level: BrownoutLevel::ShedHeavy, at: t },
                Spilled,
            ]);
        }
        let nans = [f64::NAN, -f64::NAN];
        for ns in [0.0, -0.0, 0.1, 1e-7, 1e16, f64::MAX, f64::INFINITY]
            .into_iter()
            .chain([f64::NEG_INFINITY, f64::MIN_POSITIVE, 5e-324, 123.456])
            .chain(nans)
        {
            evs.push(LifecycleEvent::PdSetup {
                pooled: ns > 1.0,
                ns,
            });
        }
        for scope in [
            CrashScope::Executor(0),
            CrashScope::Orchestrator(0),
            CrashScope::Worker,
        ] {
            evs.push(LifecycleEvent::Crashed {
                scope: scope.label(),
            });
        }
        let causes = FaultKind::ALL.map(AbortCause::Fault);
        for cause in causes.into_iter().chain([
            AbortCause::Timeout,
            AbortCause::ChildFailed,
            AbortCause::Crash,
        ]) {
            evs.push(LifecycleEvent::Aborted {
                cause,
                measured: true,
            });
        }
        for level in [
            BrownoutLevel::Normal,
            BrownoutLevel::Degraded,
            BrownoutLevel::ShedHeavy,
        ] {
            evs.push(LifecycleEvent::BrownoutChanged {
                level,
                at: SimTime::ZERO,
            });
        }
        for level in [
            MemoryPressure::Normal,
            MemoryPressure::Elevated,
            MemoryPressure::Critical,
        ] {
            evs.push(LifecycleEvent::MemoryPressureChanged { level, resident: 1 });
        }
        for rung in RecoveryRung::ALL {
            evs.push(LifecycleEvent::RecoveryRungTaken { rung });
        }
        evs
    }

    /// The hand encoder writes exactly `format!("{ev:?}")` for all 29
    /// variants and at the edges.
    #[test]
    fn encoder_matches_debug_for_every_variant_and_edge() {
        let routed: Vec<_> = routing_steps().into_iter().map(|s| s.0).collect();
        let names: std::collections::BTreeSet<_> = routed.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 29, "every LifecycleEvent variant is covered");
        for ev in routed.iter().chain(&edge_events()) {
            assert_eq!(encoded(ev), format!("{ev:?}"));
        }
    }

    /// The trace hash is FNV-1a over each event's `Debug` bytes and a
    /// `0x1e` separator, also for long labels and labels that need
    /// escaping.
    #[test]
    fn trace_hash_folds_debug_bytes_and_separators() {
        let long_ascii: &'static str = "shard-".repeat(100).leak();
        let long_escaped: &'static str = "exécuteur \"7\"\t\\ it's\n".repeat(40).leak();
        let mut evs: Vec<_> = routing_steps().into_iter().map(|s| s.0).collect();
        evs.extend(edge_events());
        for scope in [long_ascii, long_escaped, "", "quote\"d"] {
            evs.push(LifecycleEvent::Crashed { scope });
            assert_eq!(
                encoded(evs.last().unwrap()),
                format!("{:?}", evs.last().unwrap())
            );
        }
        let mut trace = TraceSink::new();
        let mut expected = FNV_OFFSET;
        for ev in &evs {
            trace.apply(ev);
            expected = fnv1a_fold(expected, format!("{ev:?}").as_bytes());
            expected = fnv1a_fold(expected, &[0x1e]);
            assert_eq!(trace.hash, expected, "{}", ev.name());
        }
        assert_eq!(trace.count, evs.len() as u64);
    }

    #[test]
    fn retired_journal_totals_fold_into_seal() {
        let mut bus = EventBus::new(Some(InvocationJournal::new()));
        assert!(bus.journaling());
        let img = bus.checkpoint_image().expect("journaled");
        assert_eq!(img.at_record, 1, "the checkpoint mark is record 0");
        bus.retire_journal();
        let img2 = bus.checkpoint_image().expect("fresh journal");
        assert_eq!(img2.at_record, 1, "fresh journal restarts at zero");
        let report = bus.seal(
            SimTime::ZERO,
            OnlineStats::new(),
            std::iter::empty(),
            MemoryLedger::default(),
        );
        // 1 retired record (the first checkpoint mark) + 1 in the fresh
        // journal; 2 checkpoints total.
        assert_eq!(report.crash.journal_records, 2);
        assert_eq!(report.crash.checkpoints, 2);
    }
}
