//! Crash injection, journal-replay recovery, and the cluster failover
//! hooks: the [`WorkerServer`] methods that kill components, prove the
//! replayed journal against its live witnesses, reboot the pristine
//! process image, and hand stranded work to the tier above. A child
//! module of `server`, so it shares the same privacy domain without
//! growing the hot-path module.

use jord_hw::types::{CoreId, PdId};
use jord_hw::CrashScope;
use jord_sim::{SimDuration, SimTime};

use std::collections::BTreeMap;

use crate::audit::{AuditError, JournalCheck, Violation};
use crate::durability::{self, FrameAnomaly, ScanReport};
use crate::events::{AbortCause, LifecycleEvent, RetryKind};
use crate::invocation::{Invocation, InvocationId, Origin, Phase};
use crate::journal::{InvocationJournal, PendingRetry, RecoveredState, WorkerCheckpoint};
use crate::lifecycle::InvocationState;
use crate::recovery::{CrashSemantics, RecoveryRung, RESTART_PENALTY};
use crate::stats::RunReport;

use super::{Event, StrandedRequest, WorkerServer};

impl WorkerServer {
    // ------------------------------------------------------------------
    // Crash injection + recovery (journal, checkpoints, reboot)
    // ------------------------------------------------------------------

    /// In-flight semantics across crashes (at-least-once when no crash
    /// config exists — the paths below only run when one does).
    fn crash_semantics(&self) -> CrashSemantics {
        self.cfg
            .crash
            .map(|c| c.semantics)
            .unwrap_or(CrashSemantics::AtLeastOnce)
    }

    /// Checkpoints after `checkpoint_every` journal records accumulate.
    pub(super) fn maybe_checkpoint(&mut self, t: SimTime) {
        let Some(cc) = self.cfg.crash else { return };
        if self.bus.due_checkpoint(cc.checkpoint_every) {
            self.take_checkpoint(t);
        }
    }

    /// Snapshots the worker's hot state: the report, RNG streams, warmup
    /// progress, the journal's live tables, and the VMA table's durable
    /// footprint and free slots, which a post-crash reboot must reproduce.
    /// Checkpointing is free in simulated time (a real implementation
    /// would write it off the critical path).
    pub(super) fn take_checkpoint(&mut self, t: SimTime) {
        let Some(img) = self.bus.checkpoint_image() else {
            return;
        };
        let cp = WorkerCheckpoint {
            taken_at: t,
            at_record: img.at_record,
            report: img.report,
            rng: self.rng.clone(),
            injector: self.injector.clone(),
            warmed: img.warmed,
            in_flight: img.in_flight,
            pending: img.pending,
            footprint: self.privlib.durable_footprint(),
            free_slots: self.privlib.free_slot_counts(),
            seal: img.seal,
        };
        // Keep one generation of history: the recovery ladder falls back
        // to the previous checkpoint when the newest seal fails.
        self.prev_checkpoint = self.checkpoint.take();
        self.checkpoint = Some(cp);
    }

    /// Fires the armed crash at `t` (an event boundary, so every live
    /// invocation is exactly Queued, Suspended, or Faulted).
    pub(super) fn crash_now(&mut self, t: SimTime, scope: CrashScope) {
        self.emit(LifecycleEvent::Crashed {
            scope: scope.label(),
        });
        match scope {
            CrashScope::Executor(e) => self.crash_executor(t, e),
            CrashScope::Orchestrator(o) => self.crash_orchestrator(t, o),
            CrashScope::Worker => self.crash_worker(t),
        }
    }

    /// Settles a crash-killed external request per the semantics knob
    /// (re-admit or fail); crash-killed internal work propagates failure
    /// to the parent like any faulted child. `inv` is already out of the
    /// slab.
    pub(super) fn conclude_crashed(
        &mut self,
        t: SimTime,
        core: CoreId,
        inv: Invocation,
        id: InvocationId,
    ) {
        match inv.origin {
            Origin::External { orch, arrival } => {
                // Never-dispatched requests (still in an orchestrator
                // deque) were not counted in flight.
                if inv.executor != usize::MAX {
                    self.orchs[orch].in_flight -= 1;
                }
                match self.crash_semantics() {
                    CrashSemantics::AtLeastOnce => {
                        // Re-admission is not the request's fault: it keeps
                        // its attempt count and shows up in
                        // `crash.readmitted`, not `faults.retries`.
                        let due = t + RESTART_PENALTY;
                        let token = self.lifecycle.alloc_token();
                        self.emit(LifecycleEvent::RetryScheduled {
                            req: inv.req,
                            id,
                            token,
                            retry: PendingRetry {
                                func: inv.func,
                                bytes: inv.argbuf.len(),
                                arrival,
                                attempt: inv.attempt,
                                tag: inv.tag,
                                due,
                            },
                            kind: RetryKind::CrashReadmit,
                            measured: false,
                        });
                        self.queue.push(
                            due,
                            Event::Retry {
                                req: inv.req,
                                func: inv.func,
                                bytes: inv.argbuf.len(),
                                arrival,
                                attempt: inv.attempt,
                                token,
                                tag: inv.tag,
                            },
                        );
                    }
                    CrashSemantics::AtMostOnce => {
                        let measured = self.measuring();
                        self.emit(LifecycleEvent::Failed {
                            req: inv.req,
                            id,
                            tag: inv.tag,
                            at: t,
                            measured,
                            notify: true,
                        });
                    }
                }
            }
            Origin::Internal { parent, .. } => {
                self.deliver_child_result(t, core, parent, id, inv.argbuf, true);
            }
        }
    }

    /// Kills executor `e`: every invocation resident on it dies. Queued
    /// work never started (reclaim its ArgBuf, settle per semantics);
    /// suspended continuations tear down through the abort path with the
    /// `crash_kill` flag steering their conclusion.
    fn crash_executor(&mut self, t: SimTime, e: usize) {
        let core = self.execs[e].core;
        let mut killed = 0u64;
        for id in self.slab.ids() {
            // An earlier kill in this sweep may have concluded this entry
            // (a queued child draining its crash-killed parent).
            if !self.slab.contains(id) {
                continue;
            }
            let (exec_idx, phase, pd_active) = {
                let inv = self.slab.get(id);
                (inv.executor, inv.phase, inv.pd_active)
            };
            if exec_idx != e || phase == Phase::Faulted {
                continue;
            }
            killed += 1;
            if pd_active {
                self.slab.get_mut(id).crash_kill = true;
                self.abort(t, SimDuration::ZERO, e, id, AbortCause::Crash);
            } else {
                let inv = self.slab.remove(id);
                // Externals own their ingested ArgBuf; internal buffers
                // travel back to the parent via conclude_crashed.
                if matches!(inv.origin, Origin::External { .. }) && inv.argbuf.va() != 0 {
                    self.privlib
                        .munmap(&mut self.machine, core, inv.argbuf.va(), PdId::RUNTIME)
                        .expect("crashed ArgBuf reclaim");
                }
                self.conclude_crashed(t, core, inv, id);
            }
        }
        self.emit(LifecycleEvent::CrashKilled { count: killed });
        self.execs[e].queue.clear();
        self.execs[e].ready.clear();
        self.execs[e].next_free = t + RESTART_PENALTY;
    }

    /// Kills orchestrator `o`: only its *queued* work dies — requests it
    /// already dispatched keep running on their executors. Externals settle
    /// per semantics; internals propagate failure to their parents.
    fn crash_orchestrator(&mut self, t: SimTime, o: usize) {
        let core = self.orchs[o].core;
        let externals: Vec<InvocationId> = self.orchs[o].external.drain(..).collect();
        let internals: Vec<InvocationId> = self.orchs[o].internal.drain(..).collect();
        self.emit(LifecycleEvent::CrashKilled {
            count: (externals.len() + internals.len()) as u64,
        });
        for id in externals {
            let inv = self.slab.remove(id);
            // A requeued request may already hold an ingested ArgBuf.
            if inv.argbuf.va() != 0 {
                self.privlib
                    .munmap(&mut self.machine, core, inv.argbuf.va(), PdId::RUNTIME)
                    .expect("crashed ArgBuf reclaim");
            }
            self.conclude_crashed(t, core, inv, id);
        }
        for id in internals {
            let inv = self.slab.remove(id);
            let Origin::Internal { parent, .. } = inv.origin else {
                unreachable!("internal deque holds only internal requests");
            };
            self.deliver_child_result(t, core, parent, id, inv.argbuf, true);
        }
        self.orchs[o].next_free = t + RESTART_PENALTY;
    }

    /// Replays the journal suffix over `checkpoint` and compares the
    /// replayed tables with three witnesses: the journal's live tables,
    /// the slab's external population, and the lifecycle engine's rows.
    /// The crash path panics on any disagreement; the audit reports them.
    pub(super) fn prove_replay(
        &self,
        checkpoint: &WorkerCheckpoint,
    ) -> (RecoveredState, Vec<Violation>) {
        let j = self.bus.journal().expect("replay requires the journal");
        let recovered = j.replay(checkpoint);
        let key = |&i: &usize| i as u64;
        let in_flight: Vec<u64> = j.in_flight().keys().map(key).collect();
        let pending: Vec<u64> = j.pending().keys().copied().collect();
        let mut externals: Vec<u64> = self
            .slab
            .iter()
            .filter(|(_, inv)| matches!(inv.origin, Origin::External { .. }))
            .map(|(id, _)| id.0 as u64)
            .collect();
        externals.sort_unstable();
        let replayed: Vec<u64> = recovered.in_flight.keys().map(key).collect();
        let replayed_pending: Vec<u64> = recovered.pending.keys().copied().collect();
        let admitted: Vec<u64> = self.lifecycle.live_slab_ids().iter().map(key).collect();
        let retries = self.lifecycle.live_tokens();
        let mut found = Vec::new();
        for (check, left, right) in [
            (JournalCheck::ReplayedInFlight, &replayed, &in_flight),
            (JournalCheck::ReplayedPending, &replayed_pending, &pending),
            (JournalCheck::SlabExternals, &in_flight, &externals),
            (JournalCheck::LifecycleAdmitted, &admitted, &in_flight),
            (JournalCheck::LifecycleRetries, &retries, &pending),
        ] {
            if left != right {
                let (left, right) = (left.clone(), right.clone());
                found.push(Violation::Journal { check, left, right });
            }
        }
        (recovered, found)
    }

    /// [`prove_replay`](Self::prove_replay) on the crash path: any
    /// disagreement is a recovery bug, so it panics.
    fn replay_and_prove(&mut self, checkpoint: &WorkerCheckpoint) -> RecoveredState {
        let (recovered, violations) = self.prove_replay(checkpoint);
        AuditError::check(violations)
            .unwrap_or_else(|e| panic!("journal replay proof failed: {e}"));
        self.emit(LifecycleEvent::Replayed {
            records: recovered.replayed,
        });
        recovered
    }

    /// Applies the armed storage fault (if any) to the durable log image,
    /// scans the result frame by frame, and chooses the recovery ladder
    /// rung: which checkpoint (if any) recovery may trust, and whether
    /// the replayable suffix is exact or lossy. Emits the integrity
    /// events ([`JournalScanned`](LifecycleEvent::JournalScanned),
    /// [`CheckpointSealChecked`](LifecycleEvent::CheckpointSealChecked),
    /// [`RecoveryRungTaken`](LifecycleEvent::RecoveryRungTaken)) along
    /// the way.
    fn storage_recovery_plan(&mut self) -> (ScanReport, RecoveryRung, Option<WorkerCheckpoint>) {
        let cc = self.cfg.crash.expect("recovery requires a crash config");
        let mut log: Vec<u8> = self
            .bus
            .journal()
            .expect("recovery requires the journal")
            .durable_log()
            .bytes()
            .to_vec();
        let mut current = self
            .checkpoint
            .clone()
            .expect("journaled runs checkpoint at start");
        if let Some(plan) = cc.storage {
            let strike = plan.strike(&mut self.rng);
            if !durability::apply_strike(&mut log, &strike) {
                // TruncatedCheckpoint: the log survived but the newest
                // checkpoint image did not — its seal no longer verifies.
                current.seal = current.seal.corrupted();
            }
        }
        let scan = durability::scan(&log);
        self.emit(LifecycleEvent::JournalScanned {
            frames_verified: scan.frames_verified,
            frames_quarantined: scan.frames_quarantined(),
            truncated_bytes: scan.truncated_bytes,
            duplicates_dropped: scan.duplicates_dropped,
        });
        let current_ok = current.seal.verifies(&log);
        self.emit(LifecycleEvent::CheckpointSealChecked { ok: current_ok });
        let (rung, base) = if current_ok {
            let rung = match scan.anomaly {
                None => RecoveryRung::ExactReplay,
                Some(FrameAnomaly::TornTail) => RecoveryRung::TornTail,
                Some(_) => RecoveryRung::Quarantine,
            };
            (rung, Some(current))
        } else {
            // The newest checkpoint is untrustworthy; try the previous
            // one, then give up and reboot empty.
            match self.prev_checkpoint.clone() {
                Some(prev) => {
                    let prev_ok = prev.seal.verifies(&log);
                    self.emit(LifecycleEvent::CheckpointSealChecked { ok: prev_ok });
                    if prev_ok {
                        (RecoveryRung::CheckpointFallback, Some(prev))
                    } else {
                        (RecoveryRung::PristineReboot, None)
                    }
                }
                None => (RecoveryRung::PristineReboot, None),
            }
        };
        self.emit(LifecycleEvent::RecoveryRungTaken { rung });
        (scan, rung, base)
    }

    /// Reconstructs the pre-crash ledger along the chosen rung.
    ///
    /// * Exact replay re-runs the existing proof-carrying path (and first
    ///   checks the scanned frames decode to the in-memory record list —
    ///   the codec's end-to-end witness).
    /// * Lossy rungs with a trusted base checkpoint replay whatever
    ///   verified suffix the scan salvaged over that base.
    /// * The pristine rung reconstructs nothing: empty ledger, empty
    ///   tables.
    fn recover_via(
        &mut self,
        scan: &ScanReport,
        rung: RecoveryRung,
        base: Option<&WorkerCheckpoint>,
    ) -> RecoveredState {
        match (rung, base) {
            (RecoveryRung::ExactReplay, Some(base)) => {
                {
                    let j = self.bus.journal().expect("recovery requires the journal");
                    assert_eq!(
                        scan.records.as_slice(),
                        j.records(),
                        "a clean scan must decode to the in-memory record list"
                    );
                }
                self.replay_and_prove(base)
            }
            (_, Some(base)) => {
                let recovered = InvocationJournal::replay_records(&scan.records, base);
                self.emit(LifecycleEvent::Replayed {
                    records: recovered.replayed,
                });
                recovered
            }
            (_, None) => RecoveredState {
                report: RunReport::new(),
                warmed: 0,
                in_flight: BTreeMap::new(),
                pending: BTreeMap::new(),
                replayed: 0,
            },
        }
    }

    /// Reboots the pristine process image and — when a trusted checkpoint
    /// survives — checks it reproduces the checkpoint's durable
    /// (privileged/global) mappings bit-for-bit. `None` is the pristine
    /// rung: nothing durable verified, so there is nothing to check
    /// against.
    fn reboot(&mut self, checkpoint: Option<&WorkerCheckpoint>) {
        let parts =
            Self::boot_parts(&self.cfg, &self.registry).expect("reboot of a validated config");
        self.machine = parts.machine;
        self.privlib = parts.privlib;
        self.code_vmas = parts.code_vmas;
        self.privlib_code = parts.privlib_code;
        self.orchs = parts.orchs;
        self.execs = parts.execs;
        self.admission.reset_routing();
        let Some(checkpoint) = checkpoint else { return };
        assert_eq!(
            self.privlib.durable_footprint(),
            checkpoint.footprint,
            "reboot must reproduce the checkpoint's durable mappings"
        );
        for (class, (&now_free, &cp_free)) in self
            .privlib
            .free_slot_counts()
            .iter()
            .zip(checkpoint.free_slots.iter())
            .enumerate()
        {
            assert!(
                now_free >= cp_free,
                "size class {class}: rebooted free slots {now_free} < checkpoint's {cp_free}"
            );
        }
    }

    /// Kills the whole worker process and recovers it: replay the journal
    /// suffix over the latest checkpoint (proving the replayed tables
    /// against the journal's live tables, the slab, and the lifecycle
    /// engine), reboot a pristine process image (validating its durable
    /// VMA footprint against the checkpoint's), restore the replayed
    /// ledger, and settle every interrupted request per the semantics
    /// knob.
    fn crash_worker(&mut self, t: SimTime) {
        let cc = self
            .cfg
            .crash
            .expect("worker crash requires a crash config");
        self.emit(LifecycleEvent::CrashKilled {
            count: self.slab.len() as u64,
        });

        // Scan the (possibly storage-struck) durable log, pick the
        // recovery rung, and reconstruct whatever ledger the surviving
        // bytes prove.
        let (scan, rung, base) = self.storage_recovery_plan();
        let recovered = self.recover_via(&scan, rung, base.as_ref());

        // Settlement drives off the journal's *live* tables — the full
        // truth of what was unfinished at the crash. On the exact rung
        // these provably equal the replayed tables (`replay_and_prove`);
        // on lossy rungs, entries the salvaged suffix cannot prove are
        // demoted below.
        let (live_in_flight, live_pending) = {
            let j = self.bus.journal().expect("recovery requires the journal");
            (
                j.in_flight().values().copied().collect::<Vec<_>>(),
                j.pending()
                    .iter()
                    .map(|(&token, &r)| (token, r))
                    .collect::<Vec<_>>(),
            )
        };

        // The process dies: every continuation, queue entry, and pooled PD
        // evaporates — claims included, since the claimants died too.
        // Undelivered network arrivals are the only survivors — they
        // exist outside the crashed process.
        self.slab.clear();
        self.pd_pool = crate::memory::PdPool::new(self.registry.len());
        let survivors: Vec<(SimTime, Event)> = self
            .queue
            .drain()
            .into_iter()
            .filter(|(_, ev)| matches!(ev, Event::Arrival { .. }))
            .collect();
        self.arrival_eids.clear();
        for (at, ev) in survivors {
            let eid = self.queue.schedule(at, ev);
            if let Event::Arrival { req, .. } = ev {
                self.arrival_eids.insert(req, eid);
            }
        }

        self.reboot(base.as_ref());

        // Restore the reconstructed ledger. A lossy rung's report may
        // miss tail records (offers never replay — they are not
        // journaled — and lost terminals cannot be resurrected), so
        // re-base `offered` on what the restored books can still settle:
        // the terminals they already count plus every live request row,
        // each of which terminalizes exactly once after the restart. On
        // the exact rung this is an identity.
        let mut report = recovered.report;
        let settled = report.settled();
        let live_rows = self.lifecycle.len() as u64;
        if rung.lossy() {
            report.offered = settled + live_rows;
        } else {
            debug_assert_eq!(
                report.offered,
                settled + live_rows,
                "exact replay reconstructs offered = settled + live rows"
            );
        }
        self.bus.restore(report, recovered.warmed);
        if let Some(base) = &base {
            self.rng = base.rng.clone();
            self.injector = base.injector.clone();
        }

        // Settle interrupted work.
        let restart = t + RESTART_PENALTY;
        match cc.semantics {
            CrashSemantics::AtLeastOnce => {
                // In-flight requests re-enter once the worker restarts;
                // already-pending retries keep their token (and journal
                // record) and fire no earlier than the restart.
                for p in &live_in_flight {
                    let req = self
                        .lifecycle
                        .req_of_slab(p.id)
                        .expect("every live in-flight entry has a request row");
                    if rung.lossy() && !recovered.in_flight.contains_key(&p.id.0) {
                        self.emit(LifecycleEvent::WorkDemoted { req, readmit: true });
                    }
                    let token = self.lifecycle.alloc_token();
                    self.emit(LifecycleEvent::RetryScheduled {
                        req,
                        id: p.id,
                        token,
                        retry: PendingRetry {
                            func: p.func,
                            bytes: p.bytes,
                            arrival: p.arrival,
                            attempt: p.attempt,
                            tag: p.tag,
                            due: restart,
                        },
                        kind: RetryKind::CrashReadmit,
                        measured: false,
                    });
                    self.queue.push(
                        restart,
                        Event::Retry {
                            req,
                            func: p.func,
                            bytes: p.bytes,
                            arrival: p.arrival,
                            attempt: p.attempt,
                            token,
                            tag: p.tag,
                        },
                    );
                }
                for &(token, r) in &live_pending {
                    // The row is already RetryWait (the RetryScheduled that
                    // created the token happened before the crash), so only
                    // the timer event is re-armed — no new transition.
                    let req = self
                        .lifecycle
                        .req_of_token(token)
                        .expect("every live pending entry has a request row");
                    if rung.lossy() && !recovered.pending.contains_key(&token) {
                        self.emit(LifecycleEvent::WorkDemoted { req, readmit: true });
                    }
                    self.queue.push(
                        r.due.max(restart),
                        Event::Retry {
                            req,
                            func: r.func,
                            bytes: r.bytes,
                            arrival: r.arrival,
                            attempt: r.attempt,
                            token,
                            tag: r.tag,
                        },
                    );
                }
            }
            CrashSemantics::AtMostOnce => {
                // Every interrupted request — in flight or awaiting a
                // retry — terminally fails. Interrupted work reports
                // through the ledger only (no notices): the tier above
                // learns about it from the stranded-request path.
                for p in &live_in_flight {
                    let measured = self.measuring();
                    let req = self
                        .lifecycle
                        .req_of_slab(p.id)
                        .expect("every live in-flight entry has a request row");
                    if rung.lossy() && !recovered.in_flight.contains_key(&p.id.0) {
                        self.emit(LifecycleEvent::WorkDemoted {
                            req,
                            readmit: false,
                        });
                    }
                    self.emit(LifecycleEvent::Failed {
                        req,
                        id: p.id,
                        tag: p.tag,
                        at: t,
                        measured,
                        notify: false,
                    });
                }
                for &(token, _) in &live_pending {
                    let measured = self.measuring();
                    let req = self
                        .lifecycle
                        .req_of_token(token)
                        .expect("every live pending entry has a request row");
                    if rung.lossy() && !recovered.pending.contains_key(&token) {
                        self.emit(LifecycleEvent::WorkDemoted {
                            req,
                            readmit: false,
                        });
                    }
                    self.emit(LifecycleEvent::RetryDropped {
                        req,
                        token,
                        measured,
                    });
                }
            }
        }
        // Re-checkpoint immediately: a second crash must replay against
        // the rebooted image, not pre-crash state.
        self.take_checkpoint(restart);
    }

    // ------------------------------------------------------------------
    // Cluster hooks: tagged cancellation, drain inspection, failover
    // ------------------------------------------------------------------

    /// Request states the tier above may still withdraw: an undelivered
    /// network arrival (`Offered`) or a copy queued in an orchestrator
    /// deque (`Queued`). Anything later is already running.
    const CANCELLABLE: [InvocationState; 2] = [InvocationState::Offered, InvocationState::Queued];

    /// Tags of every tagged external request that has not yet been
    /// dispatched to an executor: undelivered network arrivals plus
    /// requests still sitting in an orchestrator deque. A cluster drain
    /// pulls these to rebalance them onto other workers. Read straight
    /// off the lifecycle engine's request table — the same rows
    /// [`cancel_tagged`](Self::cancel_tagged) and
    /// [`crash_for_cluster`](Self::crash_for_cluster) operate on.
    pub fn queued_tags(&self) -> Vec<u64> {
        self.lifecycle
            .tagged_in(&Self::CANCELLABLE)
            .map(|row| row.tag)
            .collect()
    }

    /// Best-effort cancellation of the tagged request copy on this
    /// worker. Only a copy that has not been dispatched yet can be
    /// cancelled: an undelivered network arrival, or a request still
    /// queued in an orchestrator deque. A running copy is left to
    /// finish — the cluster counts its eventual notice as a duplicate.
    /// Cancellation un-offers the request so the worker-level
    /// conservation invariant (`offered == completed + failed + shed`)
    /// keeps holding without a terminal notice.
    pub fn cancel_tagged(&mut self, tag: u64) -> bool {
        debug_assert_ne!(tag, 0, "tag 0 means untagged");
        let Some(row) = self.lifecycle.find_tagged(tag, &Self::CANCELLABLE) else {
            return false;
        };
        match row.state {
            InvocationState::Offered => {
                // An undelivered arrival: no invocation exists yet, so the
                // withdrawal only unwinds the ledger (nothing was
                // journaled). The handle recorded at schedule time makes
                // this an O(1) tombstone cancel — no queue scan, no
                // rebuild.
                let eid = self
                    .arrival_eids
                    .remove(&row.req)
                    .expect("an Offered row always has its arrival handle");
                let outcome = self.queue.cancel(eid);
                debug_assert!(
                    outcome.is_cancelled(),
                    "an Offered row always has its arrival in the event queue"
                );
                self.emit(LifecycleEvent::Cancelled {
                    req: row.req,
                    id: None,
                    tag,
                });
            }
            InvocationState::Queued => {
                // A queued, never-dispatched copy in an orchestrator
                // deque: remove it, reclaim its ArgBuf, and journal the
                // cancellation so a later replay un-offers it the same
                // way.
                let id = row.slab.expect("a Queued row has a slab entry");
                let Origin::External { orch, .. } = self.slab.get(id).origin else {
                    unreachable!("request rows track external invocations only");
                };
                let pos = self.orchs[orch]
                    .external
                    .iter()
                    .position(|&qid| qid == id)
                    .expect("a Queued row sits in its orchestrator's deque");
                self.orchs[orch]
                    .external
                    .remove(pos)
                    .expect("position is in range");
                let inv = self.slab.remove(id);
                let core = self.orchs[orch].core;
                if inv.argbuf.va() != 0 {
                    self.privlib
                        .munmap(&mut self.machine, core, inv.argbuf.va(), PdId::RUNTIME)
                        .expect("cancelled ArgBuf reclaim");
                }
                self.emit(LifecycleEvent::Cancelled {
                    req: row.req,
                    id: Some(id),
                    tag,
                });
            }
            state => unreachable!("CANCELLABLE rows are Offered or Queued, not {state:?}"),
        }
        true
    }

    /// Kills and recovers this worker on behalf of a cluster dispatcher.
    ///
    /// Same recovery discipline as a standalone worker crash — replay
    /// the journal suffix over the latest checkpoint (proving the
    /// replayed tables against the live tables and the slab), reboot a
    /// pristine image, validate its durable VMA footprint — but instead
    /// of settling interrupted requests locally, every tagged request
    /// the crash stranded (in flight, awaiting a local retry, or still
    /// undelivered in the network queue) is returned to the caller so
    /// the dispatcher can re-route or fail it cluster-wide.
    ///
    /// The worker restarts empty: fresh journal (the old one's records
    /// are retired into the report counters), fresh checkpoint, and
    /// `offered` rebased to the terminal counters so the conservation
    /// invariant holds even though cluster arrivals are pushed
    /// dynamically rather than pre-loaded.
    pub fn crash_for_cluster(&mut self, t: SimTime) -> Vec<StrandedRequest> {
        self.emit(LifecycleEvent::Crashed {
            scope: "cluster-worker",
        });
        self.emit(LifecycleEvent::CrashKilled {
            count: self.slab.len() as u64,
        });

        // Scan, pick the rung, and reconstruct, exactly as in
        // `crash_worker`. A worker whose journal is unrecoverable
        // (pristine rung) restarts with empty books — like a phi-evicted
        // worker, its unfinished work re-derives through the stranding
        // below and the dispatcher's cross-worker retry.
        let (scan, rung, base) = self.storage_recovery_plan();
        let recovered = self.recover_via(&scan, rung, base.as_ref());

        // Everything in the process dies. Unlike a standalone crash,
        // undelivered arrivals do not survive in place: the outside
        // world is the dispatcher, which re-routes them.
        self.slab.clear();
        self.pd_pool = crate::memory::PdPool::new(self.registry.len());
        let _ = self.queue.drain();
        self.arrival_eids.clear();

        // Every unfinished request — undelivered arrival (`Offered`),
        // queued/in-flight (`Queued`/`InFlight`), or awaiting a local
        // retry (`RetryWait`) — reads straight out of the lifecycle
        // engine's request table; draining it leaves the rebooted worker
        // with an empty ledger. Undelivered arrivals re-anchor at the
        // crash instant (they had not been received by the dead process).
        let mut stranded: Vec<StrandedRequest> = Vec::new();
        for row in self.lifecycle.drain_rows() {
            if row.state != InvocationState::Offered {
                debug_assert_ne!(row.tag, 0, "cluster-mode requests are always tagged");
            }
            if row.tag == 0 {
                continue;
            }
            stranded.push(StrandedRequest {
                tag: row.tag,
                func: row.func,
                bytes: row.bytes,
                arrival: if row.state == InvocationState::Offered {
                    t
                } else {
                    row.arrival
                },
            });
        }

        self.reboot(base.as_ref());

        // Restore the replayed ledger. Cluster arrivals are pushed
        // dynamically (never pre-loaded), so the checkpointed `offered`
        // undercounts by whatever was in the network at checkpoint
        // time; the stranded requests leave this worker's books
        // entirely, so rebase `offered` on the terminal counters. (On a
        // lossy rung the terminals themselves may undercount — the
        // dispatcher's notice-driven ledger, not this worker's books, is
        // what the cluster conservation invariant audits.)
        self.bus.restore_rebased(recovered.report, recovered.warmed);
        if let Some(base) = &base {
            self.rng = base.rng.clone();
            self.injector = base.injector.clone();
        }

        // Retire the dead process's journal into the cumulative
        // counters and start a fresh one for the rebooted image: the
        // stranded requests are the dispatcher's problem now, so the
        // new journal's live tables are rightly empty.
        self.bus.retire_journal();
        self.checkpoint = None;
        self.take_checkpoint(t);
        stranded
    }
}
