//! The worker server: the discrete-event world tying orchestrators,
//! executors, PrivLib, and the hardware model together (Figures 3 & 4).

use jord_hw::types::{CoreId, PdId, Perm, Va};
use jord_hw::{CrashPlan, Csr, Fault, FaultInjector, FaultKind, InjectionPlan, Machine};
use jord_privlib::{os, PrivError, PrivLib};
use jord_sim::{EventId, EventQueue, Rng, SimDuration, SimTime};
use jord_vma::SizeClass;
use std::collections::BTreeMap;

use crate::admission::{AdmissionPolicy, BrownoutLevel, FailureDisposition};
use crate::argbuf::ArgBuf;
use crate::audit::{AuditError, LedgerCopy, Violation};
use crate::config::{ConfigError, RuntimeConfig};
use crate::durability;
use crate::events::{AbortCause, EventBus, LifecycleEvent, RetryKind, WorkerNotice};
use crate::executor::Executor;
use crate::function::{FuncOp, FunctionId, FunctionRegistry};
use crate::invocation::{Invocation, InvocationId, InvocationSlab, Origin, Phase};
use crate::journal::{InvocationJournal, PendingRetry, WorkerCheckpoint};
use crate::lifecycle::LifecycleEngine;
use crate::memory::{MemoryLedger, MemoryPressure, PdPool, PooledPd};
use crate::orchestrator::Orchestrator;
use crate::stats::RunReport;

mod crash;

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// An external request arrives from the network.
    Arrival {
        /// The lifecycle-engine request id minted at [`WorkerServer::push_tagged_request`].
        req: u64,
        func: FunctionId,
        bytes: u64,
        /// Cluster request tag (0 = untagged / single-worker mode).
        tag: u64,
    },
    /// An orchestrator is ready for its next dispatch action.
    OrchWake(usize),
    /// An executor is ready for its next continuation action.
    ExecWake(usize),
    /// A spilled internal request finished on a peer worker server (§3.3).
    RemoteComplete(InvocationId),
    /// A failed external request is re-dispatched after backoff, keeping
    /// its original arrival time so measured latency stays honest.
    Retry {
        /// The lifecycle-engine request id (stable across retries).
        req: u64,
        /// The function to re-dispatch.
        func: FunctionId,
        /// Argument payload size.
        bytes: u64,
        /// The original network receipt time.
        arrival: SimTime,
        /// Which attempt this dispatch is (first retry = 1).
        attempt: u32,
        /// The pending-retry token the lifecycle engine minted for it.
        token: u64,
        /// Cluster request tag (0 = untagged).
        tag: u64,
    },
}

/// A request stranded on a worker the cluster declared dead: recovered
/// from the journal (or the undelivered arrival queue) and handed to the
/// dispatcher for cross-worker failover instead of local re-admission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrandedRequest {
    /// The cluster request tag (0 if an untagged request was stranded).
    pub tag: u64,
    /// The function.
    pub func: FunctionId,
    /// Payload size.
    pub bytes: u64,
    /// Original arrival time (latency anchors survive failover).
    pub arrival: SimTime,
}

/// Base of the runtime's shared-memory region (queue lines, inbox lines).
const RT_BASE: u64 = 0x80_0000_0000;
/// Orchestrator backoff before re-scanning when all executor queues are
/// full (a dedicated spinning core in reality).
const FULL_RETRY: SimDuration = SimDuration::from_ns(100);
/// Orchestrator work to ingest one external request from the network
/// stack, ns (the measurement clock starts at receipt, as in §5).
pub const INGEST_WORK_NS: f64 = 60.0;
/// Orchestrator work per executor during a JBSQ scan, ns (compare and
/// track the minimum).
pub(crate) const SCAN_WORK_NS: f64 = 1.0;
/// Executor work to pop a request and set up the continuation, ns.
pub const PICKUP_WORK_NS: f64 = 15.0;
/// Executor work to push one internal request into an orchestrator inbox.
const INTERNAL_PUSH_NS: f64 = 8.0;
/// Executor work to assemble a completion notice.
const NOTIFY_NS: f64 = 10.0;
/// A VA no VMA can cover (its codec tag bits are wrong), so a read of it
/// is guaranteed to walk the table and raise [`Fault::Unmapped`] — the
/// injector's "wild access".
const WILD_VA: Va = 0x10;

/// A simulated Jord worker server.
///
/// See the crate docs for an end-to-end example.
pub struct WorkerServer {
    cfg: RuntimeConfig,
    machine: Machine,
    privlib: PrivLib,
    registry: FunctionRegistry,
    /// Per-function code VMA (granted/revoked per invocation, Figure 4).
    code_vmas: Vec<Va>,
    /// PrivLib's own code VMA (G+P bits; fetched on every gated entry).
    privlib_code: Va,
    orchs: Vec<Orchestrator>,
    execs: Vec<Executor>,
    slab: InvocationSlab,
    queue: EventQueue<Event>,
    /// Cancellation handle of every still-undelivered `Event::Arrival`,
    /// keyed by lifecycle request id: [`cancel_tagged`](Self::cancel_tagged)
    /// withdraws an Offered request in O(1) instead of scanning the queue.
    arrival_eids: BTreeMap<u64, EventId>,
    rng: Rng,
    /// Deterministic misbehavior planner (its own forked RNG stream, so
    /// fault schedules do not perturb workload sampling).
    injector: Option<FaultInjector>,
    /// Admission/retry policy: routing, shedding, deadlines, backoff.
    admission: AdmissionPolicy,
    /// The per-request state machine: the only authority on whether a
    /// request may change state, and the table every cluster hook reads.
    lifecycle: LifecycleEngine,
    /// The ordered event stream and its sinks: journal, stats, notices,
    /// trace. All bookkeeping mutation happens inside the bus.
    bus: EventBus,
    /// Latest checkpoint (recovery restores from here).
    checkpoint: Option<WorkerCheckpoint>,
    /// The checkpoint before the latest one, kept as the recovery
    /// ladder's fallback when the latest checkpoint's seal no longer
    /// verifies against the (possibly corrupted) durable log.
    prev_checkpoint: Option<WorkerCheckpoint>,
    /// The injected crash that has not fired yet.
    crash_pending: Option<CrashPlan>,
    /// Warm sanitized PDs (code grant + stack/heap intact) with
    /// working-set tracking and a claim registry — the memory governor's
    /// reclamation target.
    pd_pool: PdPool,
    /// The memory-pressure level currently in force (governor-published).
    pressure: MemoryPressure,
    /// Highest resident-byte watermark seen at a governor tick.
    peak_resident: u64,
    /// Live VMAs and PDs of the pristine image, which every reboot
    /// rebuilds: the audit's leak baseline.
    boot_vmas: usize,
    boot_pds: usize,
}

/// Everything a pristine process image contains: the booted machine and
/// PrivLib, the deployed code VMAs, and the orchestrator/executor layout.
/// Built once at [`WorkerServer::new`] and again on every whole-worker
/// crash — recovery is restore-to-pristine-image plus journal replay.
struct BootParts {
    machine: Machine,
    privlib: PrivLib,
    code_vmas: Vec<Va>,
    privlib_code: Va,
    orchs: Vec<Orchestrator>,
    execs: Vec<Executor>,
}

impl WorkerServer {
    /// Builds a worker server for `cfg` with `registry` deployed.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] describing any configuration problem.
    pub fn new(cfg: RuntimeConfig, registry: FunctionRegistry) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if registry.is_empty() {
            return Err(ConfigError::NoFunctions);
        }
        let parts = Self::boot_parts(&cfg, &registry)?;
        let (boot_vmas, boot_pds) = (parts.privlib.live_vmas(), parts.privlib.live_pds());
        let admission = AdmissionPolicy::new(cfg.recovery, cfg.orchestrators, cfg.executors());
        let seed = cfg.seed;
        let mut rng = Rng::new(seed);
        // The injector gets its own stream: the same seed yields the same
        // fault schedule no matter how workload sampling evolves.
        let injector = cfg
            .inject
            .map(|ic| FaultInjector::new(ic, rng.fork(0xFA_17)));
        let bus = EventBus::new(cfg.crash.map(|_| InvocationJournal::new()));
        let crash_pending = cfg.crash.and_then(|c| c.plan);
        let pd_pool = PdPool::new(registry.len());
        Ok(WorkerServer {
            cfg,
            machine: parts.machine,
            privlib: parts.privlib,
            registry,
            code_vmas: parts.code_vmas,
            privlib_code: parts.privlib_code,
            orchs: parts.orchs,
            execs: parts.execs,
            slab: InvocationSlab::new(),
            queue: EventQueue::new(),
            arrival_eids: BTreeMap::new(),
            rng,
            injector,
            admission,
            lifecycle: LifecycleEngine::new(),
            bus,
            checkpoint: None,
            prev_checkpoint: None,
            crash_pending,
            pd_pool,
            pressure: MemoryPressure::Normal,
            peak_resident: 0,
            boot_vmas,
            boot_pds,
        })
    }

    /// Boots a pristine process image for `cfg`: fresh machine, fresh
    /// PrivLib (bootstrap VMAs reinstalled), per-function code VMAs, and
    /// the core-affine orchestrator/executor layout.
    fn boot_parts(
        cfg: &RuntimeConfig,
        registry: &FunctionRegistry,
    ) -> Result<BootParts, ConfigError> {
        let mut machine = Machine::new(cfg.machine.clone());
        let (mut privlib, boot_vmas) =
            os::boot_full(&mut machine, cfg.variant.table(), cfg.variant.isolation())?;

        // One code VMA per deployed function.
        let mut code_vmas = Vec::with_capacity(registry.len());
        for (_, _spec) in registry.iter() {
            let (va, _) =
                privlib.mmap(&mut machine, CoreId(0), 256 << 10, Perm::RX, PdId::RUNTIME)?;
            code_vmas.push(va);
        }

        // Core assignment with affinity (§3.3/6.3): orchestrator cores are
        // spread evenly across the machine (and thus across sockets), and
        // each orchestrator manages the contiguous run of executor cores
        // following its own — "a group of executors in proximity".
        let n_orch = cfg.orchestrators;
        let n_exec = cfg.executors();
        let cores = cfg.machine.cores;
        let stride = cores as f64 / n_orch as f64;
        let orch_cores: Vec<usize> = (0..n_orch).map(|i| (i as f64 * stride) as usize).collect();
        let exec_cores: Vec<usize> = (0..cores).filter(|c| !orch_cores.contains(c)).collect();
        debug_assert_eq!(exec_cores.len(), n_exec);
        let mut orchs: Vec<Orchestrator> = Vec::with_capacity(n_orch);
        for i in 0..n_orch {
            let start = exec_cores.partition_point(|&c| c < orch_cores[i]);
            let end = if i + 1 < n_orch {
                exec_cores.partition_point(|&c| c < orch_cores[i + 1])
            } else {
                n_exec
            };
            orchs.push(Orchestrator::new(
                CoreId(orch_cores[i]),
                start..end,
                RT_BASE + (i as u64) * 256,
                RT_BASE + (i as u64) * 256 + 64,
            ));
        }
        let execs = (0..n_exec)
            .map(|e| {
                let orch = orchs
                    .iter()
                    .position(|o| o.group.contains(&e))
                    .expect("every executor has an orchestrator");
                Executor::new(
                    CoreId(exec_cores[e]),
                    orch,
                    RT_BASE + 0x10_0000 + (e as u64) * 64,
                )
            })
            .collect();

        Ok(BootParts {
            machine,
            privlib,
            code_vmas,
            privlib_code: boot_vmas.privlib_code,
            orchs,
            execs,
        })
    }

    /// Discards the first `n` completed external requests (and the
    /// invocation records of everything finishing before them) from the
    /// measurement, so cold-cache effects do not pollute tail latencies.
    pub fn set_warmup(&mut self, n: u64) {
        self.bus.set_warmup(n);
    }

    fn measuring(&self) -> bool {
        self.bus.measuring()
    }

    /// Routes a lifecycle event through the engine (the single legality
    /// authority) and publishes it on the bus, which fans it out to the
    /// journal, stats, notice, and trace sinks — the only place in the
    /// server where bookkeeping state changes.
    fn emit(&mut self, ev: LifecycleEvent) {
        self.lifecycle
            .apply(&ev)
            .unwrap_or_else(|e| panic!("illegal lifecycle transition: {e} ({ev:?})"));
        self.bus.publish(&ev);
    }

    /// Schedules an external request for `func` carrying `bytes` of
    /// arguments to arrive at `time`. Call before [`run`](Self::run).
    pub fn push_request(&mut self, time: SimTime, func: FunctionId, bytes: u64) {
        self.push_tagged_request(time, func, bytes, 0);
    }

    /// [`push_request`](Self::push_request) with a cluster tag: a non-zero
    /// `tag` makes the request's terminal event surface as a
    /// [`WorkerNotice`]. A cluster dispatcher may also push tagged
    /// requests mid-run (between [`step`](Self::step)s), as long as `time`
    /// is not in this worker's past.
    pub fn push_tagged_request(&mut self, time: SimTime, func: FunctionId, bytes: u64, tag: u64) {
        let req = self.lifecycle.alloc_req();
        self.emit(LifecycleEvent::Offered {
            req,
            func,
            bytes,
            tag,
            at: time,
        });
        let eid = self.queue.schedule(
            time,
            Event::Arrival {
                req,
                func,
                bytes,
                tag,
            },
        );
        self.arrival_eids.insert(req, eid);
    }

    /// Runs the simulation to completion (all injected requests finished)
    /// and returns the measurement report.
    pub fn run(&mut self) -> RunReport {
        self.begin();
        while self.step() {}
        self.seal()
    }

    /// Prepares the worker for stepping: journaled runs start from a
    /// checkpoint so recovery always has a base image to replay from.
    /// [`run`](Self::run) calls this itself; a cluster dispatcher driving
    /// the worker via [`step`](Self::step) calls it once up front.
    pub fn begin(&mut self) {
        if self.bus.journaling() && self.checkpoint.is_none() {
            self.take_checkpoint(self.queue.now());
        }
    }

    /// The time of this worker's next pending event, if any — what a
    /// cluster dispatcher interleaving several workers under one clock
    /// uses to pick the globally earliest event.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Processes one event (or fires the armed crash); returns `false`
    /// when the event queue is empty and the worker is quiescent.
    pub fn step(&mut self) -> bool {
        // An armed crash fires the moment the next event would run at
        // or past its instant — i.e. between events, where the DES
        // guarantees no invocation is mid-segment.
        if let Some(plan) = self.crash_pending {
            let due = SimTime::ZERO + SimDuration::from_ns_f64(plan.at_us * 1_000.0);
            if self.queue.peek_time().is_some_and(|next| next >= due) {
                self.crash_pending = None;
                self.crash_now(due.max(self.queue.now()), plan.scope);
                return true;
            }
        }
        let Some((t, ev)) = self.queue.pop() else {
            return false;
        };
        match ev {
            Event::Arrival {
                req,
                func,
                bytes,
                tag,
            } => {
                self.arrival_eids.remove(&req);
                self.on_arrival(t, req, func, bytes, tag)
            }
            Event::OrchWake(i) => self.on_orch_wake(t, i),
            Event::ExecWake(e) => self.on_exec_wake(t, e),
            Event::RemoteComplete(id) => self.on_remote_complete(t, id),
            Event::Retry {
                req,
                func,
                bytes,
                arrival,
                attempt,
                token,
                tag,
            } => {
                self.emit(LifecycleEvent::RetryFired { req, token });
                self.admit(t, req, func, bytes, arrival, attempt, tag);
            }
        }
        self.maybe_checkpoint(t);
        true
    }

    /// Finalizes a drained run: drains PD pools and assembles the
    /// measurement report. Debug builds then [`audit`](Self::audit) it.
    pub fn seal(&mut self) -> RunReport {
        // Snapshot the byte-side ledger before the final pool drain: the
        // report records what the run held; the drain just hands it back.
        let memory = self.memory_ledger();
        self.drain_pd_pools();
        let finished_at = self.queue.now();
        let shootdown_ns = self.machine.stats().shootdown_ns;
        let report = self.bus.seal(
            finished_at,
            shootdown_ns,
            self.orchs.iter().map(|o| &o.dispatch_ns),
            memory,
        );
        #[cfg(debug_assertions)]
        self.audit(&report)
            .unwrap_or_else(|e| panic!("worker seal: {e}"));
        report
    }

    /// Audits a sealed run: the request and memory ledgers of `report`
    /// (what [`seal`](Self::seal) returned) and of the live counters, an
    /// empty slab and lifecycle table, live VMAs and PDs equal to the
    /// pristine image's, a drained PD pool, no grant held by a dead PD
    /// id, and on journaled runs the replay proof from the latest
    /// checkpoint. It only reads state.
    ///
    /// # Errors
    ///
    /// An [`AuditError`] listing every violation found.
    pub fn audit(&self, report: &RunReport) -> Result<(), AuditError> {
        let (pooled, claimed) = (self.pd_pool.pooled(), self.pd_pool.claimed_len());
        let (invocations, requests) = (self.slab.len(), self.lifecycle.len());
        let leak = |live: usize, boot: usize| (live != boot).then_some((live, boot));
        let vmas = leak(self.privlib.live_vmas(), self.boot_vmas);
        let pds = leak(self.privlib.live_pds(), self.boot_pds);
        let f = &report.faults;
        let mut found: Vec<Violation> = [
            Violation::request_ledger(report.offered, report.completed, f.failed, f.sheds),
            Violation::memory_ledger(LedgerCopy::Report, &report.memory),
            Violation::memory_ledger(LedgerCopy::Live, &self.memory_ledger()),
            (invocations + requests > 0).then_some(Violation::Unsettled {
                invocations,
                requests,
            }),
            vmas.map(|(live, boot)| Violation::VmaLeak { live, boot }),
            pds.map(|(live, boot)| Violation::PdLeak { live, boot }),
            (pooled + claimed > 0).then_some(Violation::PoolNotDrained { pooled, claimed }),
        ]
        .into_iter()
        .flatten()
        .collect();
        let dead_grants = self.privlib.dead_pd_grants().into_iter();
        found.extend(dead_grants.map(|(pd, grants)| Violation::GrantOutlivesPd { pd, grants }));
        // Only journaled runs checkpoint, and they do from `begin` on.
        if let Some(checkpoint) = &self.checkpoint {
            let j = self
                .bus
                .journal()
                .expect("a checkpoint implies the journal");
            let records = durability::scan(j.durable_log().bytes()).records;
            found.extend(self.prove_replay(&records, checkpoint).1);
        }
        AuditError::check(found)
    }

    /// The byte-side memory ledger as of now: PrivLib's mmap/munmap
    /// chokepoint counters plus pool and watermark state. The
    /// event-derived activity counts (evictions, compactions, pressure
    /// transitions) and journal/checkpoint bytes are folded in by the bus
    /// at seal.
    pub fn memory_ledger(&self) -> MemoryLedger {
        let mc = self.privlib.memory();
        let resident = mc.resident_bytes();
        MemoryLedger {
            mapped_bytes: mc.mapped_bytes,
            resident_bytes: resident,
            reclaimed_bytes: mc.reclaimed_bytes,
            peak_resident_bytes: self.peak_resident.max(resident),
            pooled_pds: self.pd_pool.pooled() as u64,
            pooled_bytes: self.pd_pool.pooled_bytes(),
            ..MemoryLedger::default()
        }
    }

    /// The memory-pressure level currently in force.
    pub fn memory_pressure(&self) -> MemoryPressure {
        self.pressure
    }

    /// Always-on op counters of this worker's own event queue — the
    /// per-shard view the cluster merges into its report, so op-count
    /// regressions stay assertable whatever the engine's thread count.
    pub fn queue_probe(&self) -> jord_sim::QueueProbe {
        self.queue.probe()
    }

    /// Bytes currently resident in this worker's address space.
    pub fn resident_bytes(&self) -> u64 {
        self.privlib.memory().resident_bytes()
    }

    /// Releases every warm pooled PD and accounts the release on the
    /// memory ledger via a `PoolEvicted` event — the hook the cluster
    /// calls when it retires or drains this worker, so a retired slot's
    /// warm pool never leaks. Claimed PDs stay with their in-flight
    /// invocations (their own teardown settles them). Returns
    /// `(pds, bytes)` released.
    pub fn release_warm_pool(&mut self) -> (u64, u64) {
        let drained = self.pd_pool.drain();
        if drained.is_empty() {
            return (0, 0);
        }
        let pds = drained.len() as u64;
        let bytes = self.release_pooled(CoreId(0), drained);
        self.emit(LifecycleEvent::PoolEvicted { pds, bytes });
        (pds, bytes)
    }

    /// Drains the terminal notices accumulated for cluster-tagged
    /// requests since the last call.
    pub fn take_notices(&mut self) -> Vec<WorkerNotice> {
        self.bus.take_notices()
    }

    /// FNV-1a hash over the whole lifecycle-event stream so far. Two runs
    /// with the same seed and inputs produce the same hash, whatever mix
    /// of [`run`](Self::run) and [`step`](Self::step) drove them — the
    /// golden-trace equivalence tests key on this.
    pub fn trace_hash(&self) -> u64 {
        self.bus.trace_hash()
    }

    /// Number of lifecycle events published so far.
    pub fn trace_len(&self) -> u64 {
        self.bus.trace_len()
    }

    /// Request rows still live in the lifecycle engine (0 after a drained
    /// run).
    pub fn live_requests(&self) -> usize {
        self.lifecycle.len()
    }

    /// The simulated machine (post-run hardware counters).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// PrivLib (post-run operation accounting).
    pub fn privlib(&self) -> &PrivLib {
        &self.privlib
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Invocation records still live in the slab (0 after a drained run —
    /// the leak-freedom checks key on this).
    pub fn live_invocations(&self) -> usize {
        self.slab.len()
    }

    /// The brownout level currently in force.
    pub fn brownout(&self) -> BrownoutLevel {
        self.admission.brownout()
    }

    /// Imposes a brownout level (the cluster autoscaler's graceful-
    /// degradation call). A no-op when the level is already in force, so
    /// the dispatcher can safely re-impose the fleet level after a crash
    /// recovery without polluting the journal or trace. Level changes go
    /// through the bus like every other lifecycle event: journaled,
    /// counted, and folded into the trace hash.
    pub fn set_brownout(&mut self, at: SimTime, level: BrownoutLevel) {
        if level == self.admission.brownout() {
            return;
        }
        self.admission.set_brownout(level);
        self.emit(LifecycleEvent::BrownoutChanged { level, at });
    }

    /// Pre-fills the sanitized-PD pools with up to `per_function` pristine
    /// PDs per deployed function — the Groundhog-style warm-pool fill a
    /// freshly scaled-up worker performs during bring-up, so its first
    /// requests take the pooled fast path instead of paying full PD
    /// construction. A no-op unless snapshot sanitization is enabled.
    /// Construction costs fall outside the measurement window (bring-up
    /// happens before the worker joins the routing set), and the fill
    /// stops early if the PD space runs out.
    pub fn prefill_pd_pools(&mut self, per_function: usize) {
        if !self.cfg.sanitize || per_function == 0 {
            return;
        }
        let core = CoreId(0);
        let now = self.queue.now();
        'fill: for fi in 0..self.registry.len() {
            let func = FunctionId(fi as u32);
            let spec_stack = self.registry.spec(func).stack() + self.registry.spec(func).heap();
            let code_va = self.code_vmas[fi];
            while self.pd_pool.pooled_for(func) < per_function {
                let Ok((pd, _)) = self.privlib.cget(&mut self.machine, core) else {
                    break 'fill;
                };
                let (stackheap, _) = self
                    .privlib
                    .mmap(&mut self.machine, core, spec_stack, Perm::RW, pd)
                    .expect("prefill stack/heap allocation");
                self.privlib
                    .pcopy(
                        &mut self.machine,
                        core,
                        code_va,
                        PdId::RUNTIME,
                        pd,
                        Perm::RX,
                    )
                    .expect("prefill code grant");
                let snapshot = self.privlib.snapshot_pd(pd);
                self.pd_pool.admit(
                    func,
                    PooledPd {
                        pd,
                        stackheap,
                        snapshot,
                        bytes: Self::chunk_bytes(spec_stack),
                        warmed_at: now,
                        last_used: now,
                        uses: 0,
                    },
                );
            }
        }
    }

    /// Size-class chunk bytes a `len`-byte allocation actually occupies
    /// (what the ledger and pool account in).
    fn chunk_bytes(len: u64) -> u64 {
        SizeClass::for_len(len)
            .expect("spec stack/heap fits a size class")
            .bytes()
    }

    // ------------------------------------------------------------------
    // Wake plumbing
    // ------------------------------------------------------------------

    fn wake_orch(&mut self, i: usize, at: SimTime) {
        let o = &mut self.orchs[i];
        if !o.scheduled {
            o.scheduled = true;
            let t = at.max(o.next_free);
            self.queue.push(t, Event::OrchWake(i));
        }
    }

    fn wake_exec(&mut self, e: usize, at: SimTime) {
        let x = &mut self.execs[e];
        if !x.scheduled {
            x.scheduled = true;
            let t = at.max(x.next_free);
            self.queue.push(t, Event::ExecWake(e));
        }
    }

    // ------------------------------------------------------------------
    // Orchestrator side (§3.3)
    // ------------------------------------------------------------------

    fn on_arrival(&mut self, t: SimTime, req: u64, func: FunctionId, bytes: u64, tag: u64) {
        self.admit(t, req, func, bytes, t, 0, tag);
    }

    /// Admission control + enqueue for external requests (fresh arrivals
    /// and backoff retries alike). When the target orchestrator's external
    /// queue exceeds the shed bound, the request is dropped at the door —
    /// graceful degradation instead of unbounded queueing collapse.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &mut self,
        t: SimTime,
        req: u64,
        func: FunctionId,
        bytes: u64,
        arrival: SimTime,
        attempt: u32,
        tag: u64,
    ) {
        let orch = self.admission.route();
        if self.admission.should_shed(self.orchs[orch].external.len()) {
            let measured = self.measuring();
            self.emit(LifecycleEvent::Shed {
                req,
                func,
                tag,
                at: t,
                measured,
            });
            return;
        }
        let mut inv = Invocation::new(
            func,
            Origin::External { orch, arrival },
            ArgBuf::new(0, bytes.max(64)),
            t,
        );
        inv.attempt = attempt;
        inv.tag = tag;
        inv.req = req;
        let id = self.slab.insert(inv);
        self.emit(LifecycleEvent::Admitted {
            req,
            id,
            func,
            bytes,
            arrival,
            attempt,
            tag,
            orch,
        });
        self.orchs[orch].external.push_back(id);
        self.wake_orch(orch, t);
    }

    fn on_orch_wake(&mut self, t: SimTime, i: usize) {
        self.orchs[i].scheduled = false;
        let Some((inv_id, is_internal)) = self.orchs[i].next_request(self.admission.window())
        else {
            return;
        };
        let core = self.orchs[i].core;
        let mut cost = SimDuration::ZERO;

        if is_internal {
            // Dequeue from the shared-memory inbox.
            cost += self.machine.atomic_rmw(core, self.orchs[i].inbox_line);
        } else if self.slab.get(inv_id).argbuf.va() == 0 {
            // First touch of this external request: network ingest, ArgBuf
            // allocation, payload copy-in.
            cost += self.machine.work(INGEST_WORK_NS);
            let bytes = self.slab.get(inv_id).argbuf.len();
            let (va, c) = self
                .privlib
                .mmap(&mut self.machine, core, bytes, Perm::RW, PdId::RUNTIME)
                .expect("external ArgBuf allocation");
            cost += c;
            cost += self.machine.write(core, va, bytes);
            self.slab.get_mut(inv_id).argbuf = ArgBuf::new(va, bytes);
            let req = self.slab.get(inv_id).req;
            self.emit(LifecycleEvent::ArgBufGranted {
                req,
                id: inv_id,
                va,
                bytes,
            });
        }

        // JBSQ: pick the shallowest managed executor (§3.3).
        let (scan, best, best_depth) = self.orchs[i].scan(&mut self.machine, &self.execs, t);
        cost += scan;

        let target = best.filter(|_| best_depth < self.cfg.queue_bound);
        match target {
            None => {
                // Every queue at the JBSQ bound. Internal requests that
                // cannot be served locally may spill to a peer worker
                // server over the network (§3.3).
                let spill = self
                    .cfg
                    .spill
                    .filter(|s| is_internal && self.orchs[i].internal.len() >= s.backlog_threshold);
                if let Some(spill) = spill {
                    // Serialize the ArgBuf onto the wire and schedule the
                    // remote completion: RTT plus the peer's execution of
                    // the whole function tree.
                    let bytes = self.slab.get(inv_id).argbuf.len();
                    cost += self.machine.work(0.1 * bytes as f64 / 10.0);
                    let remote =
                        self.remote_service_ns(self.slab.get(inv_id).func) * spill.remote_slowdown;
                    let done = t
                        + cost
                        + SimDuration::from_ns_f64(spill.network_rtt_us * 1_000.0 + remote);
                    self.emit(LifecycleEvent::Spilled);
                    self.orchs[i].next_free = t + cost;
                    self.queue.push(done, Event::RemoteComplete(inv_id));
                    if self.orchs[i].has_work() {
                        let at = self.orchs[i].next_free;
                        self.wake_orch(i, at);
                    }
                    return;
                }
                // Otherwise requeue and retry shortly.
                if is_internal {
                    self.orchs[i].internal.push_front(inv_id);
                } else {
                    self.orchs[i].external.push_front(inv_id);
                }
                self.orchs[i].next_free = t + cost;
                self.orchs[i].scheduled = true;
                self.queue.push(t + cost + FULL_RETRY, Event::OrchWake(i));
            }
            Some(e) => {
                // Push the request into the executor's queue line.
                cost += self.machine.write(core, self.execs[e].queue_line, 64);
                self.execs[e].queue.push_back(inv_id);
                let done = t + cost;
                {
                    let inv = self.slab.get_mut(inv_id);
                    inv.executor = e;
                    inv.enqueued_at = done;
                    inv.breakdown.dispatch += cost;
                }
                if !is_internal {
                    self.orchs[i].in_flight += 1;
                    let req = self.slab.get(inv_id).req;
                    self.emit(LifecycleEvent::Dispatched {
                        req,
                        id: inv_id,
                        executor: e,
                    });
                }
                self.orchs[i].dispatch_ns.record(cost.as_ns_f64());
                self.orchs[i].next_free = done;
                self.wake_exec(e, done);
                if self.orchs[i].has_work() {
                    let at = self.orchs[i].next_free;
                    self.wake_orch(i, at);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Executor side (§3.4, Figure 4)
    // ------------------------------------------------------------------

    fn on_exec_wake(&mut self, t: SimTime, e: usize) {
        self.execs[e].scheduled = false;
        if let Some(id) = self.execs[e].ready.pop_front() {
            self.resume(t, e, id);
        } else if let Some(id) = self.execs[e].queue.pop_front() {
            self.start(t, e, id);
        } else {
            return;
        }
        if self.execs[e].has_work() {
            let at = self.execs[e].next_free;
            self.wake_exec(e, at);
        }
    }

    /// Figure 4's "Initialize PD" half: pop, create PD, allocate private
    /// stack/heap, grant code, transfer the ArgBuf, `ccall` in.
    fn start(&mut self, t: SimTime, e: usize, id: InvocationId) {
        let core = self.execs[e].core;
        let mut exec = SimDuration::ZERO;
        let mut iso = SimDuration::ZERO;

        // Pop cost: the queue line update is what invalidates the
        // orchestrator's cached depth.
        exec += self.machine.work(PICKUP_WORK_NS);
        exec += self.machine.atomic_rmw(core, self.execs[e].queue_line);

        let (func, argbuf) = {
            let inv = self.slab.get_mut(id);
            inv.phase = Phase::Running;
            inv.started_at = t;
            (inv.func, inv.argbuf)
        };
        // Draw this execution's injection schedule (retries draw afresh) and
        // arm the deadline clock.
        let ops_len = self.registry.spec(func).ops().len();
        let plan = match &mut self.injector {
            Some(inj) => inj.plan(ops_len),
            None => InjectionPlan::CLEAN,
        };
        let deadline = self.admission.deadline_for(t);
        {
            let inv = self.slab.get_mut(id);
            inv.plan = plan;
            inv.deadline = deadline;
        }
        let spec_stack = self.registry.spec(func).stack() + self.registry.spec(func).heap();
        let code_va = self.code_vmas[func.0 as usize];

        // Snapshot sanitization keeps a pool of PDs whose pristine layout
        // (code grant + stack/heap) survived the previous invocation; a
        // pooled PD skips cget, the stack/heap mmap, and the code pcopy.
        let pooled = if self.cfg.sanitize {
            self.pd_pool.claim(func, t)
        } else {
            None
        };
        let (pd, stackheap) = match pooled {
            Some((pd, stackheap, snapshot)) => {
                // Only the per-invocation steps remain: ArgBuf hand-over
                // and entry, two gated transfers instead of five.
                iso += self
                    .privlib
                    .pmove(
                        &mut self.machine,
                        core,
                        argbuf.va(),
                        PdId::RUNTIME,
                        pd,
                        Perm::RW,
                    )
                    .expect("ArgBuf transfer");
                iso += self
                    .privlib
                    .ccall(&mut self.machine, core, pd)
                    .expect("ccall");
                for _ in 0..2 {
                    iso += self.privlib_round_trip(core, pd, code_va);
                }
                iso += self.translate_fetch(core, pd, code_va);
                iso += self.translate_access(core, pd, stackheap, Perm::RW);
                iso += self.translate_access(core, pd, argbuf.va(), Perm::RW);
                self.slab.get_mut(id).pd_snapshot = Some(snapshot);
                self.emit(LifecycleEvent::PdSetup {
                    pooled: true,
                    ns: (exec + iso).as_ns_f64(),
                });
                (pd, stackheap)
            }
            None => {
                // PD creation + private stack/heap (one VMA covering both).
                let (pd, c) = self
                    .privlib
                    .cget(&mut self.machine, core)
                    .expect("PD pool sized for the admission window");
                iso += c;
                // Memory management (also paid by Jord_NI) counts as exec;
                // only the isolation mechanism itself (PD ops, permission
                // transfers, walks) counts as isolation overhead.
                let (stackheap, c) = self
                    .privlib
                    .mmap(&mut self.machine, core, spec_stack, Perm::RW, pd)
                    .expect("stack/heap allocation");
                exec += c;
                // Make the function code accessible to the PD …
                iso += self
                    .privlib
                    .pcopy(
                        &mut self.machine,
                        core,
                        code_va,
                        PdId::RUNTIME,
                        pd,
                        Perm::RX,
                    )
                    .expect("code grant");
                // The pristine layout — code grant + stack/heap, before any
                // per-invocation grants — is what sanitization restores to.
                if self.cfg.sanitize {
                    let snapshot = self.privlib.snapshot_pd(pd);
                    self.slab.get_mut(id).pd_snapshot = Some(snapshot);
                }
                // … and hand over the ArgBuf (zero-copy: one VTE write).
                iso += self
                    .privlib
                    .pmove(
                        &mut self.machine,
                        core,
                        argbuf.va(),
                        PdId::RUNTIME,
                        pd,
                        Perm::RW,
                    )
                    .expect("ArgBuf transfer");
                // Enter the PD.
                iso += self
                    .privlib
                    .ccall(&mut self.machine, core, pd)
                    .expect("ccall");
                // First touches: every PrivLib API in the setup sequence
                // (cget, mmap, pcopy, pmove, ccall) is a gated control
                // transfer — one PrivLib-code fetch plus one function-code
                // refetch each — followed by the function's stack and
                // ArgBuf D-VLB touches.
                for _ in 0..5 {
                    iso += self.privlib_round_trip(core, pd, code_va);
                }
                iso += self.translate_fetch(core, pd, code_va);
                iso += self.translate_access(core, pd, stackheap, Perm::RW);
                iso += self.translate_access(core, pd, argbuf.va(), Perm::RW);
                if self.cfg.sanitize {
                    self.emit(LifecycleEvent::PdSetup {
                        pooled: false,
                        ns: (exec + iso).as_ns_f64(),
                    });
                }
                (pd, stackheap)
            }
        };
        if matches!(self.slab.get(id).origin, Origin::External { .. }) {
            let req = self.slab.get(id).req;
            self.emit(LifecycleEvent::PdCreated { req, id, pd: pd.0 });
        }

        {
            let inv = self.slab.get_mut(id);
            inv.pd = pd;
            inv.pd_active = true;
            inv.stackheap = stackheap;
            inv.breakdown.isolation += iso;
            inv.breakdown.exec += exec;
        }
        self.run_segment(t, exec + iso, e, id);
    }

    fn resume(&mut self, t: SimTime, e: usize, id: InvocationId) {
        // A synchronous child faulted while we were suspended: the failure
        // propagates — this continuation aborts instead of running on with a
        // missing result (§ nested-call error propagation).
        if self.slab.get(id).child_failed {
            self.abort(t, SimDuration::ZERO, e, id, AbortCause::ChildFailed);
            return;
        }
        let core = self.execs[e].core;
        let pd = self.slab.get(id).pd;
        let mut iso = SimDuration::ZERO;
        let mut exec = SimDuration::ZERO;
        // `center` back into the suspended continuation (through PrivLib's
        // gate, then the function's code — two I-VLB lookups).
        iso += self
            .privlib
            .center(&mut self.machine, core, pd)
            .expect("resume into live PD");
        let code_va = self.code_vmas[self.slab.get(id).func.0 as usize];
        iso += self.privlib_round_trip(core, pd, code_va);
        // Consume and free the finished children's ArgBufs.
        let pending = std::mem::take(&mut self.slab.get_mut(id).pending_free);
        for (va, len) in pending {
            exec += self.bulk_translate(core, pd, va, len, Perm::READ, 3);
            exec += self.machine.read(core, va, len);
            exec += self
                .privlib
                .munmap(&mut self.machine, core, va, PdId::RUNTIME)
                .expect("child ArgBuf free");
        }
        {
            let inv = self.slab.get_mut(id);
            inv.phase = Phase::Running;
            inv.breakdown.isolation += iso;
            inv.breakdown.exec += exec;
        }
        self.run_segment(t, iso + exec, e, id);
    }

    /// Interprets ops from the continuation's pc until it suspends or
    /// finishes; `offset` is time already consumed in this action.
    fn run_segment(&mut self, t: SimTime, offset: SimDuration, e: usize, id: InvocationId) {
        let core = self.execs[e].core;
        let mut acc = offset;
        loop {
            let (func, pc, pd) = {
                let inv = self.slab.get(id);
                (inv.func, inv.pc, inv.pd)
            };
            // Deadline enforcement: a runaway (or just unlucky) invocation
            // that blows its budget is killed and torn down like any fault.
            if let Some(dl) = self.slab.get(id).deadline {
                if t + acc > dl {
                    self.abort(t, acc, e, id, AbortCause::Timeout);
                    return;
                }
            }
            // Scheduled misbehavior: act out the planned bad access on the
            // real machine. Under full Jord the hardware raises a fault and
            // we abort; under bypassed isolation (Jord_NI) nothing trips and
            // the invocation barrels on — the insecurity is the point.
            if let Some(kind) = self.slab.get(id).plan.faults_at(pc) {
                if let Some(fault) = self.misbehave(core, pd, func, kind) {
                    self.abort(t, acc, e, id, AbortCause::Fault(fault.kind()));
                    return;
                }
            }
            let op = self.registry.spec(func).ops().get(pc).cloned();
            match op {
                None => {
                    self.finish(t, acc, e, id);
                    return;
                }
                Some(FuncOp::Compute(dist)) => {
                    // Compute phases run out of the private stack/heap; the
                    // D-VLB must hold its translation alongside the ArgBufs
                    // the surrounding ops touch (the Figure 12 D-VLB
                    // pressure). A hit charges nothing.
                    let stackheap = self.slab.get(id).stackheap;
                    let walk = if stackheap != 0 {
                        self.translate_access(core, pd, stackheap, Perm::RW)
                    } else {
                        SimDuration::ZERO
                    };
                    let mut d = dist.sample(&mut self.rng);
                    // A planned runaway spins far past its nominal compute
                    // budget; only the deadline (checked at the next op) can
                    // reclaim the core.
                    if self.slab.get(id).plan.runaway {
                        let factor = self.cfg.inject.map(|i| i.runaway_factor).unwrap_or(1.0);
                        d = SimDuration::from_ns_f64(d.as_ns_f64() * factor);
                    }
                    acc += walk + d;
                    let inv = self.slab.get_mut(id);
                    inv.breakdown.isolation += walk;
                    inv.breakdown.exec += d;
                    inv.pc += 1;
                }
                Some(FuncOp::ReadInput) => {
                    let argbuf = self.slab.get(id).argbuf;
                    let walk =
                        self.bulk_translate(core, pd, argbuf.va(), argbuf.len(), Perm::READ, 2);
                    let d = self.machine.read(core, argbuf.va(), argbuf.len());
                    acc += walk + d;
                    let inv = self.slab.get_mut(id);
                    inv.breakdown.isolation += walk;
                    inv.breakdown.exec += d;
                    inv.pc += 1;
                }
                Some(FuncOp::WriteOutput) => {
                    let argbuf = self.slab.get(id).argbuf;
                    let walk =
                        self.bulk_translate(core, pd, argbuf.va(), argbuf.len(), Perm::WRITE, 2);
                    let d = self.machine.write(core, argbuf.va(), argbuf.len());
                    acc += walk + d;
                    let inv = self.slab.get_mut(id);
                    inv.breakdown.isolation += walk;
                    inv.breakdown.exec += d;
                    inv.pc += 1;
                }
                Some(FuncOp::MmapTemp { bytes }) => {
                    let code_va = self.code_vmas[func.0 as usize];
                    let trans = self.privlib_round_trip(core, pd, code_va);
                    let (gate, gate_cost) = self
                        .privlib
                        .try_enter(&self.machine, core, true)
                        .expect("gated entry");
                    let _ = gate;
                    let gate_cost = gate_cost + trans;
                    let (va, c) = self
                        .privlib
                        .mmap(&mut self.machine, core, bytes, Perm::RW, pd)
                        .expect("temp mmap");
                    acc += gate_cost + c;
                    let inv = self.slab.get_mut(id);
                    inv.breakdown.isolation += gate_cost;
                    inv.breakdown.exec += c;
                    inv.temps.push(va);
                    inv.pc += 1;
                }
                Some(FuncOp::MunmapTemp) => {
                    let va = self.slab.get_mut(id).temps.pop();
                    let mut gate = SimDuration::ZERO;
                    let mut mem = SimDuration::ZERO;
                    if let Some(va) = va {
                        let code_va = self.code_vmas[func.0 as usize];
                        gate += self.privlib_round_trip(core, pd, code_va);
                        let (_, gate_cost) = self
                            .privlib
                            .try_enter(&self.machine, core, true)
                            .expect("gated entry");
                        gate += gate_cost;
                        mem += self
                            .privlib
                            .munmap(&mut self.machine, core, va, pd)
                            .expect("temp munmap");
                    }
                    acc += gate + mem;
                    let inv = self.slab.get_mut(id);
                    inv.breakdown.isolation += gate;
                    inv.breakdown.exec += mem;
                    inv.pc += 1;
                }
                Some(FuncOp::Invoke {
                    target,
                    arg_bytes,
                    asynchronous,
                }) => {
                    let mut iso = SimDuration::ZERO;
                    let mut exec = SimDuration::ZERO;
                    // jord::argBuf<T>: allocate the child's ArgBuf (owned
                    // by the runtime, readable/writable by this PD).
                    // Three gated PrivLib calls: argBuf mmap, pcopy, and
                    // the call/async submission itself.
                    let code_va = self.code_vmas[func.0 as usize];
                    for _ in 0..3 {
                        iso += self.privlib_round_trip(core, pd, code_va);
                    }
                    let (gate, gate_cost) = self
                        .privlib
                        .try_enter(&self.machine, core, true)
                        .expect("gated entry");
                    let _ = gate;
                    iso += gate_cost;
                    let bytes = arg_bytes.max(64);
                    let (va, c) = self
                        .privlib
                        .mmap(&mut self.machine, core, bytes, Perm::RW, PdId::RUNTIME)
                        .expect("child ArgBuf");
                    exec += c;
                    iso += self
                        .privlib
                        .pcopy(&mut self.machine, core, va, PdId::RUNTIME, pd, Perm::RW)
                        .expect("ArgBuf share with caller");
                    // Populate the arguments (stack + own ArgBuf + the
                    // child's ArgBuf are all live in this loop).
                    exec += self.bulk_translate(core, pd, va, bytes, Perm::WRITE, 3);
                    exec += self.machine.write(core, va, bytes);

                    // Create the internal request and push it to our
                    // orchestrator's inbox.
                    let child = self.slab.insert(Invocation::new(
                        target,
                        Origin::Internal {
                            parent: id,
                            synchronous: !asynchronous,
                        },
                        ArgBuf::new(va, bytes),
                        t + acc,
                    ));
                    let orch = self.execs[e].orch;
                    exec += self.machine.work(INTERNAL_PUSH_NS);
                    exec += self.machine.write(core, self.orchs[orch].inbox_line, 64);
                    acc += iso + exec;
                    self.orchs[orch].internal.push_back(child);
                    self.wake_orch(orch, t + acc);

                    {
                        let inv = self.slab.get_mut(id);
                        inv.breakdown.isolation += iso;
                        inv.breakdown.exec += exec;
                        inv.pc += 1;
                    }
                    if asynchronous {
                        self.slab.get_mut(id).outstanding += 1;
                    } else {
                        // jord::call: suspend until the child completes.
                        let cex = self.privlib.cexit(&mut self.machine, core);
                        acc += cex;
                        let inv = self.slab.get_mut(id);
                        inv.breakdown.isolation += cex;
                        inv.blocked_on = Some(child);
                        inv.phase = Phase::Suspended;
                        self.execs[e].next_free = t + acc;
                        return;
                    }
                }
                Some(FuncOp::WaitAll) => {
                    let outstanding = self.slab.get(id).outstanding;
                    if outstanding == 0 {
                        self.slab.get_mut(id).pc += 1;
                    } else {
                        let cex = self.privlib.cexit(&mut self.machine, core);
                        acc += cex;
                        let inv = self.slab.get_mut(id);
                        inv.breakdown.isolation += cex;
                        inv.waiting_all = true;
                        inv.phase = Phase::Suspended;
                        self.execs[e].next_free = t + acc;
                        return;
                    }
                }
            }
        }
    }

    /// Figure 4's "Destroy PD" half plus completion notification.
    fn finish(&mut self, t: SimTime, offset: SimDuration, e: usize, id: InvocationId) {
        let core = self.execs[e].core;
        let mut acc = offset;
        let mut iso = SimDuration::ZERO;
        let (pd, argbuf, stackheap, func) = {
            let inv = self.slab.get(id);
            (inv.pd, inv.argbuf, inv.stackheap, inv.func)
        };
        let code_va = self.code_vmas[func.0 as usize];

        let mut mem = SimDuration::ZERO;
        // Free any leaked temps and unconsumed child buffers.
        let (temps, pending) = {
            let inv = self.slab.get_mut(id);
            (
                std::mem::take(&mut inv.temps),
                std::mem::take(&mut inv.pending_free),
            )
        };
        let snapshot = if self.cfg.sanitize {
            self.slab.get_mut(id).pd_snapshot.take()
        } else {
            None
        };
        match snapshot {
            Some(snapshot) => {
                // Sanitize-and-pool (Groundhog): cexit, return the ArgBuf,
                // free scratch explicitly (under bypassed isolation the
                // snapshot diff cannot see per-invocation grants), then
                // verify-and-repair the pristine layout. The code grant,
                // stack/heap, and the PD itself survive for the next
                // invocation of this function.
                for _ in 0..3 {
                    iso += self.privlib_round_trip(core, pd, code_va);
                }
                iso += self.privlib.cexit(&mut self.machine, core);
                iso += self
                    .privlib
                    .pmove(
                        &mut self.machine,
                        core,
                        argbuf.va(),
                        pd,
                        PdId::RUNTIME,
                        Perm::RW,
                    )
                    .expect("ArgBuf return");
                for va in temps {
                    mem += self
                        .privlib
                        .munmap(&mut self.machine, core, va, PdId::RUNTIME)
                        .expect("temp cleanup");
                }
                for (va, _) in pending {
                    mem += self
                        .privlib
                        .munmap(&mut self.machine, core, va, PdId::RUNTIME)
                        .expect("child ArgBuf cleanup");
                }
                let (scan, repairs) = self
                    .privlib
                    .sanitize_pd(&mut self.machine, core, &snapshot)
                    .expect("sanitize scan of a live PD");
                iso += scan;
                self.emit(LifecycleEvent::PdSanitized {
                    repairs: repairs as u64,
                });
                // Back to the pool: a claimed PD returns warm (its
                // working-set record was parked in the claim registry); a
                // freshly built one is admitted with a new record.
                if self.pd_pool.claimed_entry(pd).is_some() {
                    self.pd_pool.release(pd, t);
                } else {
                    let spec_stack =
                        self.registry.spec(func).stack() + self.registry.spec(func).heap();
                    self.pd_pool.admit(
                        func,
                        PooledPd {
                            pd,
                            stackheap,
                            snapshot,
                            bytes: Self::chunk_bytes(spec_stack),
                            warmed_at: t,
                            last_used: t,
                            uses: 1,
                        },
                    );
                }
            }
            None => {
                // The teardown sequence (cexit, pmove, revoke, munmap,
                // cput) is five more gated transfers through PrivLib code.
                for _ in 0..5 {
                    iso += self.privlib_round_trip(core, pd, code_va);
                }
                // Control returns to the executor.
                iso += self.privlib.cexit(&mut self.machine, core);
                // Transfer the ArgBuf back, revoke code, free stack/heap,
                // drop PD.
                iso += self
                    .privlib
                    .pmove(
                        &mut self.machine,
                        core,
                        argbuf.va(),
                        pd,
                        PdId::RUNTIME,
                        Perm::RW,
                    )
                    .expect("ArgBuf return");
                iso += self
                    .privlib
                    .mprotect(&mut self.machine, core, code_va, Perm::NONE, pd)
                    .expect("code revoke");
                mem += self
                    .privlib
                    .munmap(&mut self.machine, core, stackheap, PdId::RUNTIME)
                    .expect("stack/heap free");
                for va in temps {
                    mem += self
                        .privlib
                        .munmap(&mut self.machine, core, va, PdId::RUNTIME)
                        .expect("temp cleanup");
                }
                for (va, _) in pending {
                    mem += self
                        .privlib
                        .munmap(&mut self.machine, core, va, PdId::RUNTIME)
                        .expect("child ArgBuf cleanup");
                }
                iso += self
                    .privlib
                    .cput(&mut self.machine, core, pd)
                    .expect("PD destroy");
                // A prefilled pool can lend PDs even with sanitize off;
                // this teardown destroyed the PD, so the claim record
                // must not outlive it (no-op for freshly built PDs).
                self.pd_pool.forget(pd);
            }
        }
        acc += iso + mem;
        {
            let inv = self.slab.get_mut(id);
            inv.breakdown.isolation += iso;
            inv.breakdown.exec += mem;
        }

        // Completion notification.
        let origin = self.slab.get(id).origin;
        match origin {
            Origin::External { orch, arrival } => {
                let mut d = self.machine.work(NOTIFY_NS);
                d += self.machine.write(core, self.orchs[orch].resp_line, 64);
                // Free the request ArgBuf (memory management → exec).
                d += self
                    .privlib
                    .munmap(&mut self.machine, core, argbuf.va(), PdId::RUNTIME)
                    .expect("request ArgBuf free");
                acc += d;
                self.slab.get_mut(id).breakdown.exec += d;
                let done = t + acc;
                let measured = self.measuring();
                let (req, tag) = {
                    let inv = self.slab.get(id);
                    (inv.req, inv.tag)
                };
                self.emit(LifecycleEvent::Completed {
                    req,
                    id,
                    tag,
                    at: done,
                    latency: done.saturating_since(arrival),
                    measured,
                });
                self.orchs[orch].in_flight -= 1;
                if self.orchs[orch].has_work() {
                    self.wake_orch(orch, done);
                }
            }
            Origin::Internal { parent, .. } => {
                let done = t + acc;
                // Hand the result buffer to the parent and maybe unblock it.
                let extra = self.deliver_child_result(done, core, parent, id, argbuf, false);
                if !extra.is_zero() {
                    acc += extra;
                    self.slab.get_mut(id).breakdown.exec += extra;
                }
            }
        }

        // Record and retire. `measured` is recomputed here: a Completed
        // event above may have crossed the warmup boundary, and the
        // invocation record follows the post-crossing window.
        let done = t + acc;
        let (service, breakdown) = {
            let inv = self.slab.get_mut(id);
            inv.phase = Phase::Done;
            (done.saturating_since(inv.enqueued_at), inv.breakdown)
        };
        let measured = self.measuring();
        self.emit(LifecycleEvent::InvocationFinished {
            func,
            service,
            breakdown,
            measured,
        });
        self.slab.remove(id);
        self.execs[e].next_free = done;
        // Teardown is when pool and table state change, so the governor
        // runs its reclamation pass here.
        self.govern(done, core);
    }

    /// Mean execution time of `func`'s whole invocation tree (the peer is
    /// assumed unloaded; a small per-invocation overhead stands in for its
    /// own dispatch/isolation).
    fn remote_service_ns(&self, func: FunctionId) -> f64 {
        const PER_INVOCATION_OVERHEAD_NS: f64 = 400.0;
        let mut total = self.registry.spec(func).mean_compute_ns() + PER_INVOCATION_OVERHEAD_NS;
        for op in self.registry.spec(func).ops() {
            if let FuncOp::Invoke { target, .. } = op {
                total += self.remote_service_ns(*target);
            }
        }
        total
    }

    /// A spilled invocation finished on the peer: free its ArgBuf and
    /// notify the parent exactly as a local completion would.
    fn on_remote_complete(&mut self, t: SimTime, id: InvocationId) {
        let (func, argbuf, origin, enq) = {
            let inv = self.slab.get(id);
            (inv.func, inv.argbuf, inv.origin, inv.enqueued_at)
        };
        match origin {
            Origin::External { .. } => {
                unreachable!("only internal requests spill (§3.3)")
            }
            Origin::Internal { parent, .. } => {
                let core = self.execs[self.slab.get(parent).executor].core;
                self.deliver_child_result(t, core, parent, id, argbuf, false);
            }
        }
        let measured = self.measuring();
        let breakdown = self.slab.get(id).breakdown;
        self.emit(LifecycleEvent::InvocationFinished {
            func,
            service: t.saturating_since(enq),
            breakdown,
            measured,
        });
        self.slab.remove(id);
    }

    // ------------------------------------------------------------------
    // Fault containment (§3.1, §4.3; Figure 4 run in reverse)
    // ------------------------------------------------------------------

    /// Acts out the planned misbehavior of `kind` on the real machine and
    /// returns the hardware fault it raised — or `None` when the isolation
    /// variant failed to catch it (Jord_NI lets wild accesses through;
    /// only the gate decoder and CSR checks are always armed).
    fn misbehave(
        &mut self,
        core: CoreId,
        pd: PdId,
        func: FunctionId,
        kind: FaultKind,
    ) -> Option<Fault> {
        let result: Result<(), PrivError> = match kind {
            // A stray pointer dereference: VA 0x10 carries no valid VMA
            // tag, so the walk cannot even decode it.
            FaultKind::Unmapped => self
                .privlib
                .access(&mut self.machine, core, pd, WILD_VA, Perm::READ)
                .map(|_| ()),
            // A store through the function's own code VMA (held RX).
            FaultKind::Permission => {
                let code_va = self.code_vmas[func.0 as usize];
                self.privlib
                    .access(&mut self.machine, core, pd, code_va, Perm::WRITE)
                    .map(|_| ())
            }
            // A data read of PrivLib's P-bit code from unprivileged code.
            FaultKind::Privilege => {
                let privlib_code = self.privlib_code;
                self.privlib
                    .access(&mut self.machine, core, pd, privlib_code, Perm::READ)
                    .map(|_| ())
            }
            // A jump past the `uatg` gate into privileged code.
            FaultKind::MissingGate => self
                .privlib
                .try_enter(&self.machine, core, false)
                .map(|_| ()),
            // An unprivileged `csrr` of uatp (a read, so the machine state
            // cannot be corrupted even if it slipped through).
            FaultKind::CsrAccess => self
                .machine
                .csr_read(core, Csr::Uatp, false)
                .map(|_| ())
                .map_err(PrivError::from),
        };
        match result {
            Err(PrivError::Fault(fault)) => Some(fault),
            Ok(()) => None, // isolation bypassed: misbehavior undetected
            Err(e) => panic!("misbehavior raised a non-fault error: {e}"),
        }
    }

    /// Figure 4's teardown run from the middle of a segment: the fault
    /// handler traps to PrivLib, which evicts the continuation, returns the
    /// ArgBuf, revokes the code grant, reclaims the stack/heap plus every
    /// temp and unconsumed child buffer, and destroys the PD. Nothing the
    /// invocation ever held survives (zero leakage).
    fn abort(
        &mut self,
        t: SimTime,
        offset: SimDuration,
        e: usize,
        id: InvocationId,
        cause: AbortCause,
    ) {
        let core = self.execs[e].core;
        let mut acc = offset;
        // A crash is not the invocation's fault: the stats sink routes it
        // to the crash counters, not the per-invocation fault ledger.
        let measured = self.measuring();
        self.emit(LifecycleEvent::Aborted { cause, measured });

        let (pd, argbuf, stackheap, func, origin) = {
            let inv = self.slab.get(id);
            (inv.pd, inv.argbuf, inv.stackheap, inv.func, inv.origin)
        };
        let code_va = self.code_vmas[func.0 as usize];
        let mut iso = SimDuration::ZERO;
        let mut mem = SimDuration::ZERO;

        // Trap, evict, and tear down: the fault handler's trip through
        // PrivLib plus the same reclamation sequence `finish` runs.
        for _ in 0..3 {
            iso += self.privlib_round_trip(core, pd, code_va);
        }
        iso += self.privlib.cexit(&mut self.machine, core);
        iso += self
            .privlib
            .pmove(
                &mut self.machine,
                core,
                argbuf.va(),
                pd,
                PdId::RUNTIME,
                Perm::RW,
            )
            .expect("ArgBuf reclaim");
        iso += self
            .privlib
            .mprotect(&mut self.machine, core, code_va, Perm::NONE, pd)
            .expect("code revoke");
        if stackheap != 0 {
            mem += self
                .privlib
                .munmap(&mut self.machine, core, stackheap, PdId::RUNTIME)
                .expect("stack/heap reclaim");
        }
        let (temps, pending) = {
            let inv = self.slab.get_mut(id);
            (
                std::mem::take(&mut inv.temps),
                std::mem::take(&mut inv.pending_free),
            )
        };
        for va in temps {
            mem += self
                .privlib
                .munmap(&mut self.machine, core, va, PdId::RUNTIME)
                .expect("temp reclaim");
        }
        for (va, _) in pending {
            mem += self
                .privlib
                .munmap(&mut self.machine, core, va, PdId::RUNTIME)
                .expect("child ArgBuf reclaim");
        }
        iso += self
            .privlib
            .cput(&mut self.machine, core, pd)
            .expect("PD destroy on abort");
        // A pool-claimed PD died with the invocation: drop its claim (a
        // no-op for freshly built PDs).
        self.pd_pool.forget(pd);
        // External request buffers are owned by this worker; internal ones
        // travel back to the parent (freed there, or below if it is gone).
        if matches!(origin, Origin::External { .. }) {
            mem += self
                .privlib
                .munmap(&mut self.machine, core, argbuf.va(), PdId::RUNTIME)
                .expect("request ArgBuf reclaim");
        }
        acc += iso + mem;

        let done = t + acc;
        let drained = {
            let inv = self.slab.get_mut(id);
            inv.phase = Phase::Faulted;
            inv.pd_active = false;
            inv.breakdown.isolation += iso;
            inv.breakdown.exec += mem;
            inv.outstanding == 0 && inv.blocked_on.is_none()
        };
        self.execs[e].next_free = done;
        if drained {
            self.conclude_failure(done, core, id);
        }
        // else: a zombie — straggler children still reference this slot;
        // the last one to report concludes the failure.
    }

    /// Settles a terminally aborted invocation once no child references it:
    /// external requests retry (with capped exponential backoff) or count
    /// as failed; internal ones propagate the failure to their parent.
    fn conclude_failure(&mut self, t: SimTime, core: CoreId, id: InvocationId) {
        let inv = self.slab.remove(id);
        if inv.crash_kill {
            // Killed by an injected crash: conclusion follows the crash
            // semantics knob, not the fault-retry policy.
            self.conclude_crashed(t, core, inv, id);
            return;
        }
        match inv.origin {
            Origin::External { orch, arrival } => {
                self.orchs[orch].in_flight -= 1;
                match self.admission.on_failure(inv.attempt) {
                    FailureDisposition::Retry { attempt, delay } => {
                        let measured = self.measuring();
                        let at = t + delay;
                        let token = self.lifecycle.alloc_token();
                        self.emit(LifecycleEvent::RetryScheduled {
                            req: inv.req,
                            id,
                            token,
                            retry: PendingRetry {
                                func: inv.func,
                                bytes: inv.argbuf.len(),
                                arrival,
                                attempt,
                                tag: inv.tag,
                                due: at,
                            },
                            kind: RetryKind::Backoff,
                            measured,
                        });
                        self.queue.push(
                            at,
                            Event::Retry {
                                req: inv.req,
                                func: inv.func,
                                bytes: inv.argbuf.len(),
                                arrival,
                                attempt,
                                token,
                                tag: inv.tag,
                            },
                        );
                    }
                    FailureDisposition::Fail => {
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
                if self.orchs[orch].has_work() {
                    self.wake_orch(orch, t);
                }
            }
            Origin::Internal { parent, .. } => {
                self.deliver_child_result(t, core, parent, id, inv.argbuf, true);
            }
        }
    }

    /// Hands a finished (or faulted) child's ArgBuf to its parent and
    /// updates the parent's join state; wakes the parent when unblocked.
    /// If the parent is itself a faulted zombie, the buffer is freed on the
    /// spot and, once the last straggler reports, the parent's failure is
    /// concluded. Returns any runtime work performed here (the zombie-path
    /// munmap), charged to the caller.
    fn deliver_child_result(
        &mut self,
        t: SimTime,
        core: CoreId,
        parent: InvocationId,
        child: InvocationId,
        argbuf: ArgBuf,
        child_faulted: bool,
    ) -> SimDuration {
        let zombie = self.slab.get(parent).phase == Phase::Faulted;
        let mut cost = SimDuration::ZERO;
        if zombie {
            cost += self
                .privlib
                .munmap(&mut self.machine, core, argbuf.va(), PdId::RUNTIME)
                .expect("straggler ArgBuf reclaim");
        } else {
            let p = self.slab.get_mut(parent);
            p.pending_free.push((argbuf.va(), argbuf.len()));
            if child_faulted {
                p.child_failed = true;
            }
        }
        let (unblocked, pe) = {
            let p = self.slab.get_mut(parent);
            let unblocked = if p.blocked_on == Some(child) {
                p.blocked_on = None;
                true
            } else {
                debug_assert!(p.outstanding > 0);
                p.outstanding -= 1;
                p.waiting_all && p.outstanding == 0
            };
            if unblocked {
                p.waiting_all = false;
            }
            (unblocked, p.executor)
        };
        if unblocked && !zombie {
            self.execs[pe].ready.push_back(parent);
            self.wake_exec(pe, t);
        }
        if zombie {
            let drained = {
                let p = self.slab.get(parent);
                p.outstanding == 0 && p.blocked_on.is_none()
            };
            if drained {
                self.conclude_failure(t, core, parent);
            }
        }
        cost
    }

    /// Destroys every pooled sanitized PD (end of run): revoke the code
    /// grant, free the retained stack/heap, drop the PD. Costs fall
    /// outside the measurement window.
    fn drain_pd_pools(&mut self) {
        let drained = self.pd_pool.drain();
        self.release_pooled(CoreId(0), drained);
    }

    /// Frees the resources behind evicted/drained pool entries: revoke
    /// the code grant, unmap the retained stack/heap, destroy the PD.
    /// Returns the stack/heap bytes handed back.
    fn release_pooled(&mut self, core: CoreId, entries: Vec<(FunctionId, PooledPd)>) -> u64 {
        let mut bytes = 0;
        for (func, entry) in entries {
            bytes += entry.bytes;
            let code_va = self.code_vmas[func.0 as usize];
            self.privlib
                .mprotect(&mut self.machine, core, code_va, Perm::NONE, entry.pd)
                .expect("pool code revoke");
            self.privlib
                .munmap(&mut self.machine, core, entry.stackheap, PdId::RUNTIME)
                .expect("pool stack/heap free");
            self.privlib
                .cput(&mut self.machine, core, entry.pd)
                .expect("pool PD destroy");
        }
        bytes
    }

    /// One governor pass at a deterministic point (invocation teardown):
    /// age/size warm-pool eviction, pressure-driven eviction of the
    /// globally coldest entries *before* the admission policy sheds a
    /// single request, VMA-table compaction once tombstones pile past the
    /// threshold, and a typed pressure-transition event whenever the
    /// ladder level changes. Reclamation work is charged to the machine
    /// off the request critical path (a background daemon in a real
    /// worker), so replay from the same state re-derives the same
    /// decisions.
    fn govern(&mut self, t: SimTime, core: CoreId) {
        let idle = self.pd_pool.evict_idle(t, &self.cfg.memory);
        let mut evicted_pds = idle.len() as u64;
        let mut evicted_bytes = self.release_pooled(core, idle);

        let mut resident = self.privlib.memory().resident_bytes();
        let mut level = self.cfg.memory.pressure(resident);
        if level >= MemoryPressure::Elevated {
            let n = if level == MemoryPressure::Critical {
                self.pd_pool.pooled() // give back the whole warm pool
            } else {
                2
            };
            let cold = self.pd_pool.evict_coldest(n);
            evicted_pds += cold.len() as u64;
            evicted_bytes += self.release_pooled(core, cold);
            resident = self.privlib.memory().resident_bytes();
            level = self.cfg.memory.pressure(resident);
        }
        if evicted_pds > 0 {
            self.emit(LifecycleEvent::PoolEvicted {
                pds: evicted_pds,
                bytes: evicted_bytes,
            });
        }

        if self.privlib.dead_slots() > self.cfg.memory.compact_dead_slots {
            let (_, released) = self.privlib.compact_tables(&mut self.machine, core);
            self.emit(LifecycleEvent::TableCompacted {
                released: released as u64,
            });
        }

        self.peak_resident = self.peak_resident.max(resident);
        if level != self.pressure {
            self.pressure = level;
            self.emit(LifecycleEvent::MemoryPressureChanged { level, resident });
        }
    }

    /// Rolls the injector's VLB-glitch die: a spurious invalidation flushes
    /// both VLBs of `core`, and the cost emerges downstream as re-walks.
    fn maybe_glitch(&mut self, core: CoreId) {
        let glitched = self.injector.as_mut().is_some_and(|inj| inj.glitch());
        if glitched {
            self.machine.vlb_flush(core);
            let measured = self.measuring();
            self.emit(LifecycleEvent::Glitched { measured });
        }
    }

    // ------------------------------------------------------------------
    // Translation helpers
    // ------------------------------------------------------------------

    fn translate_access(&mut self, core: CoreId, pd: PdId, va: Va, perm: Perm) -> SimDuration {
        self.maybe_glitch(core);
        self.privlib
            .access(&mut self.machine, core, pd, va, perm)
            .expect("runtime-issued access is always legal")
    }

    /// Data translation for a bulk access loop whose body alternates
    /// between `working_set` live VMAs (the buffer, the private stack, …).
    /// When the D-VLB holds the whole set, only the first touch can miss;
    /// when it cannot (Figure 12's 1–2-entry configurations), every
    /// iteration of the loop re-walks — the per-line amplification below.
    fn bulk_translate(
        &mut self,
        core: CoreId,
        pd: PdId,
        va: Va,
        len: u64,
        perm: Perm,
        working_set: usize,
    ) -> SimDuration {
        let walk = self.translate_access(core, pd, va, perm);
        if !walk.is_zero() && self.machine.config().dvlb_entries < working_set {
            let lines = jord_hw::types::LineAddr::span(va, len).max(1);
            return walk * lines;
        }
        walk
    }

    fn translate_fetch(&mut self, core: CoreId, pd: PdId, va: Va) -> SimDuration {
        self.maybe_glitch(core);
        self.privlib
            .fetch(&mut self.machine, core, pd, va)
            .expect("runtime-issued fetch is always legal")
    }

    /// A function → PrivLib → function control transfer: two instruction
    /// fetches on the I-VLB (the gated entry into PrivLib's global code
    /// VMA, and the return into the function's code). With ≥2 I-VLB
    /// entries both hit; with one entry every transition re-walks (the
    /// Figure 12 sensitivity).
    fn privlib_round_trip(&mut self, core: CoreId, pd: PdId, code_va: Va) -> SimDuration {
        let privlib_code = self.privlib_code;
        let enter = self
            .privlib
            .fetch_gated(&mut self.machine, core, pd, privlib_code);
        let back = self.translate_fetch(core, pd, code_va);
        enter + back
    }
}

impl std::fmt::Debug for WorkerServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerServer")
            .field("variant", &self.cfg.variant)
            .field("orchestrators", &self.orchs.len())
            .field("executors", &self.execs.len())
            .field("live_invocations", &self.slab.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    //! One test per worker [`Violation`] variant: each finishes a small
    //! clean run, breaks one invariant through private state, and checks
    //! the audit reports exactly what that breaks. The replay proof is
    //! also checked at every event boundary of a run.

    use super::*;
    use crate::audit::JournalCheck;
    use crate::config::RecoveryPolicy;
    use crate::function::FunctionSpec;
    use crate::recovery::CrashConfig;
    use jord_hw::InjectConfig;
    use jord_sim::TimeDist;
    use jord_vma::PdSnapshot;

    /// A small journaled, sanitized run, sealed and audited clean.
    fn clean_run() -> (WorkerServer, RunReport) {
        let mut registry = FunctionRegistry::new();
        let f = registry.register(
            FunctionSpec::new("leaf")
                .op(FuncOp::ReadInput)
                .op(FuncOp::Compute(TimeDist::fixed(500.0)))
                .op(FuncOp::WriteOutput),
        );
        let cfg = RuntimeConfig::jord_32()
            .with_sanitize(true)
            .with_crash(CrashConfig::journal_only());
        let mut s = WorkerServer::new(cfg, registry).unwrap();
        for i in 0..20 {
            s.push_request(SimTime::from_ns(i * 300), f, 256);
        }
        let report = s.run();
        assert_eq!(s.audit(&report), Ok(()));
        (s, report)
    }

    fn violations(s: &WorkerServer, report: &RunReport) -> Vec<Violation> {
        s.audit(report)
            .expect_err("the broken invariant must be reported")
            .violations
    }

    #[test]
    fn clean_worker_run_audits_clean() {
        let (s, report) = clean_run();
        assert_eq!(report.completed, 20);
        assert!(report.sanitize.pooled_setups > 0, "the pool was exercised");
        assert!(s.checkpoint.is_some(), "the journal proof ran");
    }

    #[test]
    fn a_request_taken_off_completed_breaks_the_request_ledger() {
        let (s, mut report) = clean_run();
        report.completed -= 1;
        assert_eq!(
            violations(&s, &report),
            [Violation::RequestLedger {
                offered: 20,
                completed: 19,
                failed: 0,
                shed: 0,
            }]
        );
    }

    #[test]
    fn an_uncounted_byte_breaks_the_memory_ledger() {
        let (s, mut report) = clean_run();
        report.memory.mapped_bytes += 64;
        let m = report.memory;
        assert_eq!(
            violations(&s, &report),
            [Violation::MemoryLedger {
                copy: LedgerCopy::Report,
                mapped: m.mapped_bytes,
                resident: m.resident_bytes,
                reclaimed: m.reclaimed_bytes,
            }]
        );
    }

    #[test]
    fn a_leftover_invocation_is_unsettled() {
        let (mut s, report) = clean_run();
        // An internal record: the journal tracks externals only, so this
        // breaks nothing but the drained slab.
        let origin = Origin::Internal {
            parent: InvocationId(0),
            synchronous: true,
        };
        s.slab.insert(Invocation::new(
            FunctionId(0),
            origin,
            ArgBuf::new(0, 64),
            SimTime::ZERO,
        ));
        assert_eq!(
            violations(&s, &report),
            [Violation::Unsettled {
                invocations: 1,
                requests: 0,
            }]
        );
    }

    #[test]
    fn an_extra_mmap_is_a_vma_leak() {
        let (mut s, report) = clean_run();
        let boot = s.boot_vmas;
        s.privlib
            .mmap(&mut s.machine, CoreId(0), 4096, Perm::RW, PdId::RUNTIME)
            .unwrap();
        assert_eq!(
            violations(&s, &report),
            [Violation::VmaLeak {
                live: boot + 1,
                boot,
            }]
        );
    }

    #[test]
    fn an_extra_cget_is_a_pd_leak() {
        let (mut s, report) = clean_run();
        s.privlib.cget(&mut s.machine, CoreId(0)).unwrap();
        assert_eq!(
            violations(&s, &report),
            [Violation::PdLeak { live: 1, boot: 0 }]
        );
    }

    #[test]
    fn a_pd_left_in_the_pool_is_not_drained() {
        let (mut s, report) = clean_run();
        // A pool entry alone (the PD itself is not built), so only the
        // pool is off.
        let pd = PdId(9);
        s.pd_pool.admit(
            FunctionId(0),
            PooledPd {
                pd,
                stackheap: 0,
                snapshot: PdSnapshot {
                    pd,
                    entries: Vec::new(),
                },
                bytes: 0,
                warmed_at: SimTime::ZERO,
                last_used: SimTime::ZERO,
                uses: 0,
            },
        );
        assert_eq!(
            violations(&s, &report),
            [Violation::PoolNotDrained {
                pooled: 1,
                claimed: 0,
            }]
        );
    }

    #[test]
    fn a_grant_left_on_a_freed_pd_id_outlives_it() {
        let (mut s, report) = clean_run();
        // The run's teardowns freed every PD id; re-grant the code VMA to
        // one of them, as a forgotten revocation would leave it.
        let code = s.code_vmas[0];
        s.privlib
            .mprotect(&mut s.machine, CoreId(0), code, Perm::RX, PdId(1))
            .unwrap();
        assert_eq!(
            violations(&s, &report),
            [Violation::GrantOutlivesPd { pd: 1, grants: 1 }]
        );
    }

    #[test]
    fn a_journal_record_the_lifecycle_never_saw_breaks_the_replay_proof() {
        let (mut s, report) = clean_run();
        let id = InvocationId(5);
        let admitted = LifecycleEvent::Admitted {
            req: 999,
            id,
            func: FunctionId(0),
            bytes: 64,
            arrival: SimTime::ZERO,
            attempt: 0,
            tag: 0,
            orch: 0,
        };
        s.bus.publish(&admitted);
        // Only the durable log saw the record: replay finds the request in
        // flight, the lifecycle rows (and the slab) do not.
        assert_eq!(
            violations(&s, &report),
            [Violation::Journal {
                check: JournalCheck::ReplayedInFlight,
                left: vec![5],
                right: Vec::new(),
            }]
        );
    }

    /// Offers request 999 and admits it as slab id 5 in the lifecycle
    /// engine alone, neither journaling the events nor filling the slab.
    fn admit_behind_the_journal(s: &mut WorkerServer) -> u64 {
        let req = 999;
        let func = FunctionId(0);
        for ev in [
            LifecycleEvent::Offered {
                req,
                func,
                bytes: 64,
                tag: 0,
                at: SimTime::ZERO,
            },
            LifecycleEvent::Admitted {
                req,
                id: InvocationId(5),
                func,
                bytes: 64,
                arrival: SimTime::ZERO,
                attempt: 0,
                tag: 0,
                orch: 0,
            },
        ] {
            s.lifecycle.apply(&ev).unwrap();
        }
        req
    }

    #[test]
    fn a_lifecycle_row_the_journal_never_saw_breaks_the_replay_proof() {
        let (mut s, report) = clean_run();
        admit_behind_the_journal(&mut s);
        assert_eq!(
            violations(&s, &report),
            [
                Violation::Unsettled {
                    invocations: 0,
                    requests: 1,
                },
                Violation::Journal {
                    check: JournalCheck::ReplayedInFlight,
                    left: Vec::new(),
                    right: vec![5],
                },
                Violation::Journal {
                    check: JournalCheck::SlabExternals,
                    left: vec![5],
                    right: Vec::new(),
                },
            ]
        );
    }

    #[test]
    fn a_retry_the_journal_never_saw_breaks_the_replay_proof() {
        let (mut s, report) = clean_run();
        let req = admit_behind_the_journal(&mut s);
        let retry = PendingRetry {
            func: FunctionId(0),
            bytes: 64,
            arrival: SimTime::ZERO,
            attempt: 1,
            tag: 0,
            due: SimTime::from_us(1),
        };
        s.lifecycle
            .apply(&LifecycleEvent::RetryScheduled {
                req,
                id: InvocationId(5),
                token: 77,
                retry,
                kind: RetryKind::Backoff,
                measured: true,
            })
            .unwrap();
        assert_eq!(
            violations(&s, &report),
            [
                Violation::Unsettled {
                    invocations: 0,
                    requests: 1,
                },
                Violation::Journal {
                    check: JournalCheck::ReplayedPending,
                    left: Vec::new(),
                    right: vec![77],
                },
            ]
        );
    }

    /// The replay proof holds at every event boundary of a journaled run
    /// with injected faults, retries and a shed bound, not only at seal
    /// (when every table is empty) and at crash instants.
    #[test]
    fn the_replay_proof_holds_at_every_event_boundary() {
        let mut registry = FunctionRegistry::new();
        let f = registry.register(
            FunctionSpec::new("leaf")
                .op(FuncOp::ReadInput)
                .op(FuncOp::Compute(TimeDist::fixed(500.0)))
                .op(FuncOp::WriteOutput),
        );
        let cfg = RuntimeConfig::jord_32()
            .with_seed(7)
            .with_inject(InjectConfig::faults(0.3))
            .with_recovery(RecoveryPolicy {
                shed_bound: Some(2),
                ..RecoveryPolicy::default()
            })
            .with_crash(CrashConfig::journal_only().checkpoint_every(8));
        let mut s = WorkerServer::new(cfg, registry).unwrap();
        // Bursts of 12 simultaneous arrivals overflow the shed bound.
        for i in 0..48 {
            s.push_request(SimTime::from_ns(i / 12 * 3_000), f, 256);
        }
        s.begin();
        let (mut boundaries, mut with_in_flight, mut with_retries) = (0, 0, 0);
        loop {
            let checkpoint = s.checkpoint.as_ref().expect("journaled runs checkpoint");
            let log = s.bus.journal().expect("journaled").durable_log();
            let records = durability::scan(log.bytes()).records;
            let (recovered, found) = s.prove_replay(&records, checkpoint);
            assert_eq!(found, [], "event boundary {boundaries}");
            with_in_flight += usize::from(!recovered.in_flight.is_empty());
            with_retries += usize::from(!recovered.pending.is_empty());
            boundaries += 1;
            if !s.step() {
                break;
            }
        }
        let report = s.seal();
        assert_eq!(s.audit(&report), Ok(()));
        let faults = &report.faults;
        assert!(faults.retries > 0 && faults.failed > 0 && faults.sheds > 0);
        assert!(report.crash.checkpoints > 4, "the base checkpoint moved");
        assert!(with_in_flight > 0 && with_retries > 0);
        assert!(boundaries > 100, "{boundaries} event boundaries");
    }
}
