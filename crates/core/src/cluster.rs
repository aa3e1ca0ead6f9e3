//! The cluster layer: N worker servers behind one dispatcher.
//!
//! Jord's single-address-space design is per machine; a deployment runs
//! many such machines behind a front-end. This module simulates that
//! tier under the same deterministic clock as the workers themselves:
//! a [`ClusterDispatcher`] owns N [`WorkerServer`]s and interleaves
//! their event queues with its own (routing, heartbeats, failure
//! detection, hedging), always processing the globally earliest event.
//!
//! The dispatcher provides:
//!
//! - **Routing**: join-the-shortest-queue over healthy workers (by the
//!   dispatcher's own assigned-count — it cannot see inside a worker).
//! - **Failure detection**: per-worker heartbeats feed a phi-accrual
//!   detector ([`crate::health`]); workers pass *suspect* → *evict*
//!   thresholds and are readmitted after probation heartbeats.
//! - **Failover**: a confirmed-dead worker is recovered through the
//!   same journal replay a standalone crash uses
//!   ([`WorkerServer::crash_for_cluster`]), and the stranded requests
//!   are re-routed (at-least-once) or failed exactly once
//!   (at-most-once). Cluster-wide conservation still holds:
//!   `offered == completed + failed + shed`, with `lost == 0`
//!   ([`ClusterDispatcher::audit`] checks it, and every worker's own
//!   audit).
//! - **Hedging**: a request still unanswered after a configured delay
//!   gets a second copy on another worker; first response wins and the
//!   loser is cancelled if it has not been dispatched yet.
//! - **Graceful drain**: a draining worker admits nothing new, its
//!   queued (undispatched) requests are rebalanced to peers, and its
//!   in-flight work finishes normally.
//! - **Autoscaling**: with [`ClusterConfig::autoscale`] set, a
//!   [`ClusterAutoscaler`] evaluates windowed SLO signals on a fixed
//!   cadence and the dispatcher applies its directives — booting fresh
//!   workers (pristine image, warm PD pools) on scale-up, retiring
//!   workers through the drain-aware rebalancing path on scale-down,
//!   and imposing the brownout level on every live worker's admission
//!   policy. The decision sequence is recorded as [`WindowRecord`]s in
//!   the [`ClusterReport`], and the per-worker trace hashes fold into a
//!   fleet hash — identical seeds reproduce identical decisions and
//!   traces.

mod parallel;
mod shard;

pub use parallel::EngineConfig;
use shard::WorkerShard;

use jord_hw::{PartitionWindow, StorageFaultPlan};
use jord_sim::{EventQueue, LatencyHistogram, QueueProbe, Rng, SimDuration, SimTime};

use crate::admission::BrownoutLevel;
use crate::audit::{AuditError, LedgerCopy, Violation};
use crate::autoscaler::{
    AutoscalerConfig, ClusterAutoscaler, Directive, ScaleDecision, WindowSignals,
};
use crate::config::{ConfigError, RuntimeConfig};
use crate::durability::{fnv1a_fold, FNV_OFFSET};
use crate::events::{NoticeOutcome, WorkerNotice};
use crate::function::{FunctionId, FunctionRegistry};
use crate::health::{WorkerHealth, EVICT_PHI, HEARTBEAT_EVERY_US, READMIT_AFTER, SUSPECT_PHI};
use crate::memory::{MemoryLedger, MemoryPressure};
use crate::recovery::{CrashConfig, CrashSemantics, RESTART_PENALTY};
use crate::server::WorkerServer;
use crate::stats::{AutoscaleStats, DurabilityStats, FailoverStats, RunReport};

/// How many times one request may be failed over before the dispatcher
/// gives up and fails it (bounds retry storms).
const MAX_FAILOVERS: u32 = 3;
/// Autoscaler evaluation window length (µs of simulated time).
const EVALUATE_EVERY_US: f64 = 20.0;
/// Sanitized PDs to pre-fill per function when an autoscaled fleet boots a
/// worker (Groundhog-style warm pool, so the newcomer's first requests skip
/// full PD construction).
const PREWARM_PDS: usize = 2;

/// Hedged-dispatch tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeConfig {
    /// A request unanswered this long after dispatch gets a second copy
    /// on another worker (µs of simulated time).
    pub after_us: f64,
}

/// A scripted whole-worker kill (the cluster analogue of
/// [`jord_hw::CrashPlan`]'s worker scope).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerKill {
    /// Which worker dies.
    pub worker: usize,
    /// When it dies (µs of simulated time).
    pub at_us: f64,
}

/// A scripted graceful drain of one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrainPlan {
    /// Which worker drains.
    pub worker: usize,
    /// When the drain starts (µs).
    pub at_us: f64,
    /// When the worker rejoins the routing set (µs), if it does.
    pub resume_at_us: Option<f64>,
}

/// A scripted heartbeat blackout between one worker and the dispatcher
/// — the worker stays alive and keeps serving; only its heartbeats are
/// dropped, so the detector's false-positive path is exercised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionPlan {
    /// Which worker is cut off.
    pub worker: usize,
    /// Blackout start (µs, inclusive).
    pub from_us: f64,
    /// Blackout end (µs, exclusive).
    pub until_us: f64,
}

/// Configuration of a simulated worker cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker servers.
    pub workers: usize,
    /// Cluster seed; worker `w` runs on [`Rng::derive_seed`]`(seed, w)`
    /// so adding a worker never perturbs another worker's schedule.
    pub seed: u64,
    /// Per-worker runtime configuration. Must not carry a crash plan of
    /// its own — the cluster installs journaling and scripts kills via
    /// [`ClusterConfig::kill`].
    pub template: RuntimeConfig,
    /// What a worker death promises about the requests it strands.
    pub semantics: CrashSemantics,
    /// Hedged dispatch of slow-tail requests, if enabled.
    pub hedge: Option<HedgeConfig>,
    /// A scripted worker kill, if any.
    pub kill: Option<WorkerKill>,
    /// Storage misbehavior applied to a killed worker's durable journal
    /// between death and recovery (`None` = storage is byte-perfect).
    pub storage: Option<StorageFaultPlan>,
    /// Scripted graceful drains (any number of workers, any schedule).
    pub drains: Vec<DrainPlan>,
    /// Probability an individual heartbeat is lost in the network.
    pub heartbeat_loss_rate: f64,
    /// A scripted heartbeat blackout, if any.
    pub partition: Option<PartitionPlan>,
    /// SLO-driven autoscaling, if enabled. `workers` is then the
    /// *initial* fleet size; the autoscaler moves it within
    /// [`AutoscalerConfig::min_workers`]..=[`AutoscalerConfig::max_workers`].
    pub autoscale: Option<AutoscalerConfig>,
    /// Conservative parallel engine, if enabled. `None` runs the
    /// sequential interleaved clock — the differential oracle the
    /// parallel engine must match bit-for-bit at any thread count.
    pub engine: Option<EngineConfig>,
}

impl ClusterConfig {
    /// A quiet cluster of `workers` copies of `template`.
    pub fn new(workers: usize, seed: u64, template: RuntimeConfig) -> Self {
        ClusterConfig {
            workers,
            seed,
            template,
            semantics: CrashSemantics::AtLeastOnce,
            hedge: None,
            kill: None,
            storage: None,
            drains: Vec::new(),
            heartbeat_loss_rate: 0.0,
            partition: None,
            autoscale: None,
            engine: None,
        }
    }

    /// Validates the cluster topology and scripts.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let bad = |reason: String| Err(ConfigError::Cluster { reason });
        if self.workers == 0 {
            return bad("a cluster needs at least one worker".into());
        }
        if self.template.crash.is_some() {
            return bad(
                "template.crash must be unset: the cluster installs journaling itself \
                 and scripts worker kills via ClusterConfig::kill"
                    .into(),
            );
        }
        self.template.validate()?;
        if let Some(h) = &self.hedge {
            if h.after_us <= 0.0 || !h.after_us.is_finite() {
                return bad(format!(
                    "hedge.after_us must be positive and finite, got {}",
                    h.after_us
                ));
            }
        }
        if let Some(k) = &self.kill {
            // With autoscaling on, a kill may target a slot the autoscaler
            // has yet to spawn (the scale-down/crash race is scripted this
            // way); if the fleet never grows that far, the kill misses.
            let kill_bound = self.autoscale.map_or(self.workers, |a| a.max_workers);
            if k.worker >= kill_bound {
                return bad(format!(
                    "kill targets worker {} but at most {} can exist",
                    k.worker, kill_bound
                ));
            }
            if !k.at_us.is_finite() || k.at_us < 0.0 {
                return bad(format!("kill.at_us must be finite, got {}", k.at_us));
            }
        }
        for d in &self.drains {
            if d.worker >= self.workers {
                return bad(format!(
                    "drain targets worker {} but only {} exist",
                    d.worker, self.workers
                ));
            }
            if let Some(r) = d.resume_at_us {
                if r <= d.at_us {
                    return bad(format!(
                        "drain resume ({r} µs) must follow drain start ({} µs)",
                        d.at_us
                    ));
                }
            }
        }
        if let Some(a) = &self.autoscale {
            a.validate()?;
            if self.workers < a.min_workers || self.workers > a.max_workers {
                return bad(format!(
                    "initial fleet ({}) must lie within min_workers ({})..=max_workers ({})",
                    self.workers, a.min_workers, a.max_workers
                ));
            }
        }
        if !(0.0..1.0).contains(&self.heartbeat_loss_rate) {
            return bad(format!(
                "heartbeat_loss_rate must be in [0, 1), got {}",
                self.heartbeat_loss_rate
            ));
        }
        if let Some(p) = &self.partition {
            if p.worker >= self.workers {
                return bad(format!(
                    "partition targets worker {} but only {} exist",
                    p.worker, self.workers
                ));
            }
            PartitionWindow::new(p.from_us, p.until_us)
                .validate()
                .map_err(|reason| ConfigError::Cluster { reason })?;
        }
        if let Some(e) = &self.engine {
            if e.threads == 0 {
                return bad("engine.threads must be at least 1".into());
            }
            if !e.lookahead_us.is_finite() || e.lookahead_us <= 0.0 {
                return bad(format!(
                    "engine.lookahead_us must be positive and finite, got {} \
                     (zero lookahead admits zero-width windows: the horizon \
                     could never pass the earliest shard)",
                    e.lookahead_us
                ));
            }
            if e.lookahead_us > HEARTBEAT_EVERY_US {
                return bad(format!(
                    "engine.lookahead_us ({} µs) must not exceed the heartbeat \
                     interval ({} µs): a window wider than the heartbeat cadence \
                     would let a shard run past detector timers the dispatcher \
                     has yet to arm",
                    e.lookahead_us, HEARTBEAT_EVERY_US
                ));
            }
        }
        Ok(())
    }
}

/// Dispatcher-side events, interleaved with the workers' own queues.
#[derive(Debug, Clone, Copy)]
enum ClusterEvent {
    /// Deliver request `tag` to a worker (initial dispatch).
    Route(u64),
    /// Worker `w`'s heartbeat timer fires.
    Heartbeat(usize),
    /// A phi threshold armed at heartbeat `epoch` would be crossed now
    /// if no later heartbeat arrived.
    PhiCheck {
        worker: usize,
        epoch: u64,
        evict: bool,
    },
    /// Is request `tag` still unanswered? If so, hedge it.
    HedgeCheck(u64),
    /// Worker `w`'s terminal notice for a request reaches the
    /// dispatcher. Workers execute invocations in synchronous DES
    /// chunks, so a notice can be *produced* during a step popped
    /// earlier than its timestamp; the dispatcher must not act on it
    /// before its time, or JSQ would see completions from the future.
    Notice(usize, WorkerNotice),
    /// The scripted kill of worker `w`.
    Kill(usize),
    /// The scripted drain of worker `w`.
    Drain(usize),
    /// The drained worker rejoins the routing set.
    DrainResume(usize),
    /// The autoscaler's evaluation window closes.
    AutoscaleTick,
}

/// Terminal outcome of one cluster request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Completed,
    Failed,
    Shed,
}

/// Dispatcher-side state of one request.
#[derive(Debug)]
struct RequestState {
    func: FunctionId,
    bytes: u64,
    /// Cluster receipt time; end-to-end latency is anchored here, not
    /// at whichever worker finally served the request.
    arrival: SimTime,
    /// Workers currently holding a live copy.
    copies: Vec<usize>,
    failovers: u32,
    hedged: bool,
    /// Which copy is the hedge (for first-response attribution).
    hedge_worker: Option<usize>,
    outcome: Option<Outcome>,
}

/// One autoscaler evaluation window as the dispatcher recorded it: the
/// signals it saw and the directive it applied. The sequence of these is
/// the determinism witness for the control plane — identical seeds must
/// produce identical `Vec<WindowRecord>`s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRecord {
    /// Evaluation instant.
    pub at: SimTime,
    /// Workers in the routing set at evaluation.
    pub active_workers: usize,
    /// Mean outstanding copies per active worker.
    pub mean_queue_depth: f64,
    /// Windowed p99 (µs), if anything completed in the window.
    pub p99_us: Option<f64>,
    /// Requests routed in the window.
    pub offered: u64,
    /// Requests shed in the window.
    pub shed: u64,
    /// The decision applied.
    pub decision: ScaleDecision,
    /// The brownout level in force after this evaluation.
    pub brownout: BrownoutLevel,
    /// Summed resident bytes across active workers at evaluation — the
    /// soak campaign's bounded-memory witness series.
    pub resident_bytes: u64,
    /// Worst memory pressure across active workers at evaluation.
    pub pressure: MemoryPressure,
}

/// The result of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Requests pushed at the dispatcher.
    pub offered: u64,
    /// Requests completed (exactly once each).
    pub completed: u64,
    /// Requests terminally failed.
    pub failed: u64,
    /// Requests shed.
    pub shed: u64,
    /// End-to-end latency: dispatcher receipt → first completion.
    pub latency: LatencyHistogram,
    /// Fleet-wide failover counters (dispatcher counters merged with
    /// every worker's).
    pub failover: FailoverStats,
    /// Per-worker reports; `workers[w].failover` carries worker `w`'s
    /// health counters.
    pub workers: Vec<RunReport>,
    /// When the last event fired.
    pub finished_at: SimTime,
    /// Control-plane accounting: scale events, worker-seconds, brownout
    /// residency, SLO attainment per window. Fleet-scoped — *not* the
    /// sum of the per-worker copies (those only carry each worker's own
    /// brownout residency).
    pub autoscale: AutoscaleStats,
    /// Every autoscaler evaluation, in order (empty without autoscaling).
    pub windows: Vec<WindowRecord>,
    /// FNV-1a fold of every worker's lifecycle-trace hash, in slot
    /// order: one number that changes if any worker's event stream
    /// changes. Golden-trace determinism tests key on this.
    pub trace_hash: u64,
    /// Fleet memory ledger: every worker's sealed [`MemoryLedger`]
    /// merged. Each summand satisfied `mapped == resident + reclaimed`
    /// at its own seal, so the merge does too.
    pub memory: MemoryLedger,
    /// Fleet durability counters: every worker's storage-integrity and
    /// recovery-ladder stats merged.
    pub durability: DurabilityStats,
    /// Event-queue op counters: the dispatcher's own queue merged with
    /// every shard's ([`QueueProbe::merge`]). Each counter sums per-event
    /// operations, so the totals are the same at any engine thread count
    /// and O(1)-cancel regressions stay assertable on the fleet.
    pub probe: QueueProbe,
}

impl ClusterReport {
    /// p99 end-to-end latency, if any requests completed.
    pub fn p99(&self) -> Option<SimDuration> {
        self.latency.p99()
    }

    /// Fraction of offered requests that completed.
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.completed as f64 / self.offered as f64
    }
}

/// The front-end: owns the workers and runs the whole cluster to
/// completion under one deterministic clock (sequential engine) or to
/// barrier-synchronized conservative horizons (parallel engine,
/// [`EngineConfig`]) — the two are bit-identical per seed.
pub struct ClusterDispatcher {
    cfg: ClusterConfig,
    /// The function registry, kept so scale-up can boot fresh workers.
    registry: FunctionRegistry,
    slots: Vec<WorkerShard>,
    events: EventQueue<ClusterEvent>,
    requests: Vec<RequestState>,
    /// Requests not yet settled.
    pending: usize,
    /// All requests settled: stop renewing heartbeat chains so the
    /// event queues can drain.
    finishing: bool,
    /// Dispatcher-level counters (routing, hedging, failover).
    fleet: FailoverStats,
    latency: LatencyHistogram,
    finished_at: SimTime,
    /// The control plane, if autoscaling is on.
    autoscaler: Option<ClusterAutoscaler>,
    /// Next seed-derivation stream for a spawned worker. Starts at the
    /// initial fleet size so a newcomer never replays an existing
    /// worker's randomness.
    next_stream: u64,
    /// Fleet-wide brownout level currently imposed.
    brownout: BrownoutLevel,
    /// When the fleet entered `brownout` (residency accounting).
    brownout_since: SimTime,
    /// Current-window counters, reset at every autoscale tick.
    win_offered: u64,
    win_completed: u64,
    win_shed: u64,
    win_latency: LatencyHistogram,
    /// Every evaluation's signals + directive, in order.
    windows: Vec<WindowRecord>,
    /// Fleet-scoped control-plane accounting.
    autoscale_stats: AutoscaleStats,
}

impl ClusterDispatcher {
    /// Builds the cluster: every worker gets the template config with
    /// its own derived seed and journaling enabled (a cluster worker
    /// must always be able to replay — its death is scripted by the
    /// cluster, not by its own config).
    ///
    /// # Errors
    ///
    /// Returns the first validation problem found.
    pub fn new(cfg: ClusterConfig, registry: FunctionRegistry) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let autoscaler = cfg.autoscale.map(ClusterAutoscaler::new).transpose()?;
        let mut slots = Vec::with_capacity(cfg.workers);
        for w in 0..cfg.workers {
            let server = Self::boot_worker(&cfg, &registry, w as u64)?;
            slots.push(WorkerShard::new(&cfg, server, w as u64, SimTime::ZERO));
        }
        let mut events = EventQueue::new();
        let hb = us_dur(HEARTBEAT_EVERY_US);
        for w in 0..cfg.workers {
            events.push(SimTime::ZERO + hb, ClusterEvent::Heartbeat(w));
        }
        if let Some(k) = cfg.kill {
            events.push(us(k.at_us), ClusterEvent::Kill(k.worker));
        }
        for d in &cfg.drains {
            events.push(us(d.at_us), ClusterEvent::Drain(d.worker));
            if let Some(r) = d.resume_at_us {
                events.push(us(r), ClusterEvent::DrainResume(d.worker));
            }
        }
        if cfg.autoscale.is_some() {
            events.push(us(EVALUATE_EVERY_US), ClusterEvent::AutoscaleTick);
        }
        let next_stream = cfg.workers as u64;
        let autoscale_stats = AutoscaleStats {
            peak_workers: cfg.workers as u64,
            ..AutoscaleStats::default()
        };
        Ok(ClusterDispatcher {
            cfg,
            registry,
            slots,
            events,
            requests: Vec::new(),
            pending: 0,
            finishing: false,
            fleet: FailoverStats::default(),
            latency: LatencyHistogram::new(),
            finished_at: SimTime::ZERO,
            autoscaler,
            next_stream,
            brownout: BrownoutLevel::Normal,
            brownout_since: SimTime::ZERO,
            win_offered: 0,
            win_completed: 0,
            win_shed: 0,
            win_latency: LatencyHistogram::new(),
            windows: Vec::new(),
            autoscale_stats,
        })
    }

    /// Boots one worker server from the template: derived seed (stream
    /// `stream`), journaling installed, cluster crash semantics.
    fn boot_worker(
        cfg: &ClusterConfig,
        registry: &FunctionRegistry,
        stream: u64,
    ) -> Result<WorkerServer, ConfigError> {
        let mut rt = cfg.template.clone();
        rt.seed = Rng::derive_seed(cfg.seed, stream);
        rt.crash = Some(CrashConfig {
            plan: None,
            semantics: cfg.semantics,
            storage: cfg.storage,
            ..CrashConfig::journal_only()
        });
        WorkerServer::new(rt, registry.clone())
    }

    /// Schedules an external request to reach the dispatcher at `at`.
    /// Call before [`run`](Self::run). Returns the request's tag.
    pub fn push_request(&mut self, at: SimTime, func: FunctionId, bytes: u64) -> u64 {
        let tag = self.requests.len() as u64 + 1;
        self.requests.push(RequestState {
            func,
            bytes,
            arrival: at,
            copies: Vec::new(),
            failovers: 0,
            hedged: false,
            hedge_worker: None,
            outcome: None,
        });
        self.pending += 1;
        self.events.push(at, ClusterEvent::Route(tag));
        tag
    }

    /// Runs the cluster to completion and returns the merged report.
    ///
    /// With [`ClusterConfig::engine`] unset this is the sequential
    /// interleaved clock; with it set, the conservative parallel engine
    /// ([`EngineConfig`]) produces the bit-identical result in
    /// barrier-synchronized windows.
    pub fn run(&mut self) -> ClusterReport {
        let prewarm = self.cfg.autoscale.map_or(0, |_| PREWARM_PDS);
        for slot in &mut self.slots {
            slot.server.begin();
            slot.server.prefill_pd_pools(prewarm);
        }
        match self.cfg.engine {
            Some(engine) => self.run_conservative(engine),
            None => while self.advance_once(None) {},
        }
        self.seal()
    }

    /// Processes the globally earliest pending event at or before
    /// `bound` (no bound when `None`); returns `false` when nothing
    /// qualifies. This is the sequential engine's entire scheduling
    /// rule, and — bounded by a window horizon — the parallel engine's
    /// serial barrier phase, so the tie discipline can never diverge
    /// between the two.
    fn advance_once(&mut self, bound: Option<SimTime>) -> bool {
        // The globally earliest event wins; a worker beats the
        // dispatcher on ties so notices for time t are in hand
        // before the dispatcher acts at t. Crashed workers are
        // frozen — a dead process pops nothing.
        let worker_next = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.crashed)
            .filter_map(|(w, s)| s.server.next_event_time().map(|t| (t, w)))
            .min()
            .filter(|&(wt, _)| bound.is_none_or(|b| wt <= b));
        let cluster_next = self
            .events
            .peek_time()
            .filter(|&ct| bound.is_none_or(|b| ct <= b));
        match (worker_next, cluster_next) {
            (None, None) => false,
            (Some((wt, w)), ct) if ct.is_none() || wt <= ct.unwrap() => {
                self.finished_at = self.finished_at.max(wt);
                self.slots[w].server.step();
                for n in self.slots[w].server.take_notices() {
                    // Deliver at the notice's own timestamp (≥ wt).
                    self.events.push(n.at, ClusterEvent::Notice(w, n));
                }
                true
            }
            _ => {
                let (t, ev) = self.events.pop().expect("cluster_next was Some");
                self.finished_at = self.finished_at.max(t);
                self.on_cluster_event(t, ev);
                true
            }
        }
    }

    // --------------------------------------------------------------
    // Event handlers
    // --------------------------------------------------------------

    fn on_cluster_event(&mut self, t: SimTime, ev: ClusterEvent) {
        match ev {
            ClusterEvent::Route(tag) => self.on_route(t, tag),
            ClusterEvent::Heartbeat(w) => self.on_heartbeat(t, w),
            ClusterEvent::PhiCheck {
                worker,
                epoch,
                evict,
            } => self.on_phi_check(t, worker, epoch, evict),
            ClusterEvent::HedgeCheck(tag) => self.on_hedge_check(t, tag),
            ClusterEvent::Notice(w, n) => self.on_notice(w, n),
            ClusterEvent::Kill(w) => {
                // A kill scripted against an autoscaled slot misses if the
                // fleet never grew that far, and a retired worker holds no
                // work worth crashing.
                if w < self.slots.len() && !self.slots[w].retired {
                    self.slots[w].crashed = true;
                    self.slots[w].crashed_at = t;
                }
            }
            ClusterEvent::Drain(w) => self.on_drain(t, w),
            ClusterEvent::DrainResume(w) => {
                // A worker retiring through the drain path never resumes.
                if self.slots[w].health == WorkerHealth::Draining && !self.slots[w].retiring {
                    self.slots[w].health = WorkerHealth::Healthy;
                }
            }
            ClusterEvent::AutoscaleTick => self.on_autoscale_tick(t),
        }
    }

    fn on_route(&mut self, t: SimTime, tag: u64) {
        self.win_offered += 1;
        match self.route_target(&[]) {
            Some(w) => {
                self.deliver(t, tag, w);
                if let Some(h) = self.cfg.hedge {
                    self.events
                        .push(t + us_dur(h.after_us), ClusterEvent::HedgeCheck(tag));
                }
            }
            // No routable worker at all: the front-end itself sheds.
            None => self.settle(t, tag, Outcome::Shed),
        }
    }

    fn on_heartbeat(&mut self, t: SimTime, w: usize) {
        // A retired worker's heartbeat chain dies with it.
        if self.slots[w].retired {
            return;
        }
        // The timer renews regardless of delivery — it is the
        // dispatcher's cadence, not the worker's — until the run winds
        // down.
        if !self.finishing {
            let hb = us_dur(HEARTBEAT_EVERY_US);
            self.events.push(t + hb, ClusterEvent::Heartbeat(w));
        }
        let slot = &mut self.slots[w];
        // A dead or still-rebooting worker sends nothing; silence is
        // what the phi checks armed earlier will act on.
        if slot.crashed || t < slot.hb_resume_at {
            return;
        }
        slot.stats.heartbeats_sent += 1;
        if !slot.hb_injector.heartbeat_delivered(t.as_us_f64()) {
            slot.stats.heartbeats_lost += 1;
            // A lost heartbeat during probation restarts the count: the
            // link is evidently not trustworthy yet.
            if slot.health == WorkerHealth::Evicted {
                slot.probation = 0;
            }
            return;
        }
        let epoch = slot.detector.heartbeat(t);
        match slot.health {
            WorkerHealth::Suspected => {
                slot.health = WorkerHealth::Healthy;
                slot.stats.false_suspects += 1;
            }
            WorkerHealth::Evicted => {
                slot.probation += 1;
                if slot.probation >= READMIT_AFTER {
                    slot.health = WorkerHealth::Healthy;
                    slot.probation = 0;
                    slot.stats.readmissions += 1;
                }
            }
            WorkerHealth::Healthy | WorkerHealth::Draining | WorkerHealth::Retired => {}
        }
        // Arm this epoch's threshold checks; a later heartbeat bumps
        // the epoch and renders them inert.
        let suspect_at = t + slot.detector.time_to_phi(SUSPECT_PHI);
        let evict_at = t + slot.detector.time_to_phi(EVICT_PHI);
        self.events.push(
            suspect_at,
            ClusterEvent::PhiCheck {
                worker: w,
                epoch,
                evict: false,
            },
        );
        self.events.push(
            evict_at,
            ClusterEvent::PhiCheck {
                worker: w,
                epoch,
                evict: true,
            },
        );
    }

    fn on_phi_check(&mut self, t: SimTime, w: usize, epoch: u64, evict: bool) {
        if self.finishing || self.slots[w].retired {
            return;
        }
        let slot = &mut self.slots[w];
        if epoch != slot.detector.epoch() {
            return; // a later heartbeat already cleared this silence
        }
        match (slot.health, evict) {
            (WorkerHealth::Healthy, false) => {
                slot.health = WorkerHealth::Suspected;
                slot.stats.suspects += 1;
            }
            // Draining workers are evictable too: heartbeat loss during a
            // scale-down (or scripted) drain must be detected, or the
            // victim's in-flight work would be stranded until the end of
            // the run.
            (WorkerHealth::Healthy | WorkerHealth::Suspected | WorkerHealth::Draining, true) => {
                slot.health = WorkerHealth::Evicted;
                slot.probation = 0;
                slot.stats.evictions += 1;
                // The detector's promise: one heartbeat period (the gap
                // between the last heartbeat and the first missed one)
                // plus the silence needed to reach the evict phi.
                let bound_ns =
                    HEARTBEAT_EVERY_US * 1_000.0 + slot.detector.time_to_phi(EVICT_PHI).as_ns_f64();
                slot.stats.confirm_bound_ns = slot.stats.confirm_bound_ns.max(bound_ns);
                if slot.crashed {
                    let det_ns = t.saturating_since(slot.crashed_at).as_ns_f64();
                    slot.stats.detection_ns = slot.stats.detection_ns.max(det_ns);
                    self.fail_over(t, w);
                }
                // A live evicted worker (partition) keeps its in-flight
                // work — eviction only removes it from routing; its
                // completions still count, and probation heartbeats
                // readmit it.
            }
            _ => {} // already suspected or evicted
        }
    }

    fn on_hedge_check(&mut self, t: SimTime, tag: u64) {
        if self.finishing {
            return;
        }
        let idx = (tag - 1) as usize;
        let req = &self.requests[idx];
        // Hedge only a request that is still a single live unanswered
        // copy: settled, failed-over, or already-hedged requests pass.
        if req.outcome.is_some() || req.hedged || req.copies.len() != 1 {
            return;
        }
        let Some(w2) = self.route_target(&req.copies) else {
            return; // nowhere to hedge to
        };
        let req = &mut self.requests[idx];
        req.hedged = true;
        req.hedge_worker = Some(w2);
        self.fleet.hedges += 1;
        self.deliver(t, tag, w2);
    }

    fn on_drain(&mut self, t: SimTime, w: usize) {
        if self.slots[w].retired || self.slots[w].retiring {
            return;
        }
        self.fleet.drains += 1;
        self.slots[w].health = WorkerHealth::Draining;
        self.rebalance_queued(t, w);
    }

    /// Begins retiring worker `w` (scale-down): drain-aware rebalancing
    /// with no way back. If the worker is secretly dead the rebalance is
    /// skipped — eviction will recover its journal and
    /// [`fail_over`](Self::fail_over) finishes the retirement with every
    /// stranded request re-routed.
    fn begin_retire(&mut self, t: SimTime, w: usize) {
        self.slots[w].retiring = true;
        self.slots[w].health = WorkerHealth::Draining;
        self.fleet.drains += 1;
        if !self.slots[w].crashed {
            self.rebalance_queued(t, w);
            self.maybe_finish_retire(t, w);
        }
    }

    /// Completes a retirement once the worker is empty: no outstanding
    /// copies, no live request rows. The retired slot's warm PD pool is
    /// released through the ledger-accounted path — a retired worker
    /// holding warm PDs would leak resident bytes the fleet can never
    /// reclaim.
    fn maybe_finish_retire(&mut self, t: SimTime, w: usize) {
        let slot = &mut self.slots[w];
        if slot.retiring
            && !slot.retired
            && !slot.crashed
            && slot.assigned == 0
            && slot.server.live_requests() == 0
        {
            slot.retired = true;
            slot.retired_at = t;
            slot.health = WorkerHealth::Retired;
            slot.server.release_warm_pool();
        }
    }

    /// Pulls every queued (undispatched) request back out of worker `w`
    /// and re-routes it; in-flight work finishes in place.
    fn rebalance_queued(&mut self, t: SimTime, w: usize) {
        for tag in self.slots[w].server.queued_tags() {
            let idx = (tag - 1) as usize;
            if self.requests[idx].outcome.is_some() {
                continue;
            }
            if !self.slots[w].server.cancel_tagged(tag) {
                continue; // dispatched between listing and pulling
            }
            self.slots[w].assigned = self.slots[w].assigned.saturating_sub(1);
            self.requests[idx].copies.retain(|&c| c != w);
            if self.requests[idx].hedge_worker == Some(w) {
                self.requests[idx].hedge_worker = None;
            }
            self.fleet.rebalanced += 1;
            let exclude = self.requests[idx].copies.clone();
            match self.route_target(&exclude) {
                Some(target) => self.deliver(t, tag, target),
                None => {
                    if self.requests[idx].copies.is_empty() {
                        self.settle(t, tag, Outcome::Shed);
                    }
                }
            }
        }
    }

    /// A terminal notice from worker `w` reached the dispatcher.
    fn on_notice(&mut self, w: usize, n: WorkerNotice) {
        let at = n.at;
        let idx = (n.tag - 1) as usize;
        if let Some(pos) = self.requests[idx].copies.iter().position(|&c| c == w) {
            self.requests[idx].copies.remove(pos);
            self.slots[w].assigned = self.slots[w].assigned.saturating_sub(1);
        }
        if self.requests[idx].outcome.is_some() {
            // A hedge loser or failover twin finishing late: the
            // request is already settled, the work was redundant.
            self.fleet.duplicated += 1;
            self.maybe_finish_retire(at, w);
            return;
        }
        match n.outcome {
            NoticeOutcome::Completed { .. } => {
                if self.requests[idx].hedge_worker == Some(w) {
                    self.fleet.hedge_wins += 1;
                }
                self.settle(n.at, n.tag, Outcome::Completed);
                // First response wins: try to pull still-undispatched
                // copies back; a running copy is left to finish and
                // will surface as `duplicated`.
                let others = self.requests[idx].copies.clone();
                for c in others {
                    if self.slots[c].server.cancel_tagged(n.tag) {
                        self.fleet.cancelled += 1;
                        self.slots[c].assigned = self.slots[c].assigned.saturating_sub(1);
                        self.requests[idx].copies.retain(|&x| x != c);
                        self.maybe_finish_retire(at, c);
                    }
                }
            }
            NoticeOutcome::Failed => {
                // A worker-level terminal failure (local retries
                // exhausted) is a business failure, not a crash: no
                // failover. But another live copy may still answer.
                if self.requests[idx].copies.is_empty() {
                    self.settle(n.at, n.tag, Outcome::Failed);
                }
            }
            NoticeOutcome::Shed => {
                if self.requests[idx].copies.is_empty() {
                    self.settle(n.at, n.tag, Outcome::Shed);
                }
            }
        }
        // A retiring worker finishes for good once its last copy is
        // answered.
        self.maybe_finish_retire(at, w);
    }

    // --------------------------------------------------------------
    // Routing and failover
    // --------------------------------------------------------------

    /// Join-the-shortest-queue over healthy workers (fewest assigned
    /// copies, lowest index on ties); suspected workers only as a last
    /// resort. Note a dead-but-undetected worker still looks Healthy —
    /// routing to it is the detection window's cost, surfaced as
    /// `misrouted`.
    fn route_target(&self, exclude: &[usize]) -> Option<usize> {
        let pick = |want: WorkerHealth| {
            self.slots
                .iter()
                .enumerate()
                .filter(|(w, s)| s.health == want && !exclude.contains(w))
                .min_by_key(|&(w, s)| (s.assigned, w))
                .map(|(w, _)| w)
        };
        pick(WorkerHealth::Healthy).or_else(|| pick(WorkerHealth::Suspected))
    }

    /// Hands request `tag` to worker `w` at `t`.
    fn deliver(&mut self, t: SimTime, tag: u64, w: usize) {
        let idx = (tag - 1) as usize;
        let (func, bytes) = {
            let req = &mut self.requests[idx];
            debug_assert!(!req.copies.contains(&w), "one copy per worker");
            req.copies.push(w);
            (req.func, req.bytes)
        };
        let slot = &mut self.slots[w];
        slot.assigned += 1;
        if slot.crashed {
            // The request lands in a dead worker's network queue; it
            // will be stranded there until eviction fails it over.
            self.fleet.misrouted += 1;
        }
        slot.server.push_tagged_request(t, func, bytes, tag);
    }

    /// Worker `w` was evicted while actually dead: recover the process
    /// through journal replay and re-route (or fail) everything the
    /// crash stranded.
    fn fail_over(&mut self, t: SimTime, w: usize) {
        let retiring = self.slots[w].retiring;
        let stranded = {
            let slot = &mut self.slots[w];
            let stranded = slot.server.crash_for_cluster(t);
            slot.crashed = false;
            slot.detector.reset();
            slot.assigned = 0;
            slot.probation = 0;
            if retiring {
                // The crash raced a scale-down drain: the worker was on
                // its way out anyway, so recovery finalizes the
                // retirement instead of rebooting into probation. Its
                // stranded requests are re-routed below like any other
                // crash victim's — retirement loses nothing. The reboot
                // came up with an empty warm pool, but release it through
                // the accounted path anyway so the invariant "a retired
                // slot holds no pooled PDs" does not depend on crash
                // recovery details.
                slot.retired = true;
                slot.retired_at = t;
                slot.health = WorkerHealth::Retired;
                slot.server.release_warm_pool();
            } else {
                slot.hb_resume_at = t + RESTART_PENALTY;
                // Health stays Evicted: probation heartbeats after the
                // restart penalty earn readmission.
            }
            stranded
        };
        if !retiring {
            // The worker may have missed fleet brownout transitions
            // while dead; re-impose the current level (a no-op when its
            // recovered admission policy already carries it).
            self.slots[w].server.set_brownout(t, self.brownout);
        }
        for s in stranded {
            let idx = (s.tag - 1) as usize;
            self.requests[idx].copies.retain(|&c| c != w);
            if self.requests[idx].hedge_worker == Some(w) {
                self.requests[idx].hedge_worker = None;
            }
            if self.requests[idx].outcome.is_some() {
                continue; // a redundant copy died with the worker
            }
            if !self.requests[idx].copies.is_empty() {
                continue; // another copy is still in play
            }
            match self.cfg.semantics {
                CrashSemantics::AtMostOnce => {
                    // The copy may or may not have executed; re-running
                    // is forbidden, so the request fails exactly once.
                    self.settle(t, s.tag, Outcome::Failed);
                }
                CrashSemantics::AtLeastOnce => {
                    if self.requests[idx].failovers < MAX_FAILOVERS {
                        self.requests[idx].failovers += 1;
                        self.fleet.failovers += 1;
                        let exclude = self.requests[idx].copies.clone();
                        match self.route_target(&exclude) {
                            Some(target) => self.deliver(t, s.tag, target),
                            None => self.settle(t, s.tag, Outcome::Shed),
                        }
                    } else {
                        self.settle(t, s.tag, Outcome::Failed);
                    }
                }
            }
        }
    }

    // --------------------------------------------------------------
    // Autoscaling
    // --------------------------------------------------------------

    /// One evaluation window closed: gather signals, ask the engine,
    /// apply its directive, record the window.
    fn on_autoscale_tick(&mut self, t: SimTime) {
        if self.finishing {
            return;
        }
        let Some(auto) = self.cfg.autoscale else {
            return;
        };
        self.events
            .push(t + us_dur(EVALUATE_EVERY_US), ClusterEvent::AutoscaleTick);

        let active: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.retired && !s.retiring)
            .map(|(w, _)| w)
            .collect();
        let mean_queue_depth = if active.is_empty() {
            0.0
        } else {
            active
                .iter()
                .map(|&w| self.slots[w].assigned as f64)
                .sum::<f64>()
                / active.len() as f64
        };
        let suspects = active
            .iter()
            .filter(|&&w| self.slots[w].health == WorkerHealth::Suspected)
            .count();
        let p99_us = self.win_latency.p99().map(|d| d.as_ns_f64() / 1_000.0);
        // Fleet memory view: the scaler reacts to the *worst* worker
        // (one critical worker vetoes scale-up fleet-wide), while the
        // summed resident series is the soak campaign's bounded-memory
        // witness.
        let pressure = active
            .iter()
            .map(|&w| self.slots[w].server.memory_pressure())
            .max()
            .unwrap_or_default();
        let resident_bytes: u64 = active
            .iter()
            .map(|&w| self.slots[w].server.resident_bytes())
            .sum();
        let sig = WindowSignals {
            at: t,
            active_workers: active.len(),
            mean_queue_depth,
            p99_us,
            offered: self.win_offered,
            completed: self.win_completed,
            shed: self.win_shed,
            suspects,
            pressure,
        };
        let directive: Directive = self
            .autoscaler
            .as_mut()
            .expect("ticks are only scheduled with autoscaling on")
            .evaluate(&sig);

        // SLO attainment: a window passes when nothing was shed and the
        // windowed p99 (when measurable against a target) stayed inside.
        self.autoscale_stats.windows += 1;
        let slo_ok = self.win_shed == 0
            && match (p99_us, auto.target_p99_us) {
                (Some(p99), Some(target)) => p99 <= target,
                _ => true,
            };
        if slo_ok {
            self.autoscale_stats.slo_ok_windows += 1;
        }

        self.apply_brownout(t, directive.brownout);
        match directive.decision {
            ScaleDecision::Hold => {}
            ScaleDecision::Up(n) => {
                self.autoscale_stats.scale_ups += 1;
                self.autoscale_stats.workers_added += n as u64;
                for _ in 0..n {
                    self.spawn_worker(t);
                }
            }
            ScaleDecision::Down(n) => {
                self.autoscale_stats.scale_downs += 1;
                self.autoscale_stats.workers_removed += n as u64;
                for w in self.retire_candidates(&active, n) {
                    self.begin_retire(t, w);
                }
            }
        }
        self.autoscale_stats.reversals =
            self.autoscaler.as_ref().expect("checked above").reversals();
        let now_active = self
            .slots
            .iter()
            .filter(|s| !s.retired && !s.retiring)
            .count() as u64;
        self.autoscale_stats.peak_workers = self.autoscale_stats.peak_workers.max(now_active);

        self.windows.push(WindowRecord {
            at: t,
            active_workers: sig.active_workers,
            mean_queue_depth,
            p99_us,
            offered: self.win_offered,
            shed: self.win_shed,
            decision: directive.decision,
            brownout: directive.brownout,
            resident_bytes,
            pressure,
        });
        self.win_offered = 0;
        self.win_completed = 0;
        self.win_shed = 0;
        self.win_latency = LatencyHistogram::new();
    }

    /// Boots and registers a fresh worker at `t`: pristine image through
    /// the normal lifecycle/journal machinery, `PREWARM_PDS` warm PDs
    /// per function pre-filled, the fleet's brownout level imposed,
    /// heartbeat chain started.
    fn spawn_worker(&mut self, t: SimTime) {
        let stream = self.next_stream;
        self.next_stream += 1;
        let server = Self::boot_worker(&self.cfg, &self.registry, stream)
            .expect("template already validated at cluster construction");
        let mut slot = WorkerShard::new(&self.cfg, server, stream, t);
        slot.server.begin();
        slot.server.prefill_pd_pools(PREWARM_PDS);
        slot.server.set_brownout(t, self.brownout);
        let w = self.slots.len();
        self.slots.push(slot);
        let hb = us_dur(HEARTBEAT_EVERY_US);
        self.events.push(t + hb, ClusterEvent::Heartbeat(w));
    }

    /// The `n` active workers to retire: least-loaded first, highest
    /// index breaking ties (the initial fleet — which scripted kills and
    /// partitions may target — is vacated last).
    fn retire_candidates(&self, active: &[usize], n: usize) -> Vec<usize> {
        let mut ranked: Vec<usize> = active.to_vec();
        ranked.sort_by_key(|&w| (self.slots[w].assigned, std::cmp::Reverse(w)));
        ranked.truncate(n);
        ranked
    }

    /// Moves the fleet to `level`: folds the residency of the old level,
    /// counts the transition, and imposes the new level on every
    /// reachable worker (crashed workers catch up in
    /// [`fail_over`](Self::fail_over); retired ones never do).
    fn apply_brownout(&mut self, t: SimTime, level: BrownoutLevel) {
        if level == self.brownout {
            return;
        }
        self.fold_brownout(t);
        self.brownout = level;
        self.autoscale_stats.brownout_transitions += 1;
        for slot in &mut self.slots {
            if !slot.crashed && !slot.retired {
                slot.server.set_brownout(t, level);
            }
        }
    }

    /// Folds the time spent at the current brownout level into the
    /// residency counters, up to `until`.
    fn fold_brownout(&mut self, until: SimTime) {
        let ns = until.saturating_since(self.brownout_since).as_ns_f64();
        match self.brownout {
            BrownoutLevel::Normal => {}
            BrownoutLevel::Degraded => self.autoscale_stats.degraded_ns += ns,
            BrownoutLevel::ShedHeavy => self.autoscale_stats.shed_heavy_ns += ns,
        }
        self.brownout_since = until;
    }

    /// Fixes request `tag`'s terminal outcome.
    fn settle(&mut self, t: SimTime, tag: u64, outcome: Outcome) {
        let req = &mut self.requests[(tag - 1) as usize];
        debug_assert!(req.outcome.is_none(), "a request settles exactly once");
        req.outcome = Some(outcome);
        match outcome {
            Outcome::Completed => {
                let latency = t.saturating_since(req.arrival);
                self.latency.record(latency);
                self.win_completed += 1;
                self.win_latency.record(latency);
            }
            Outcome::Shed => self.win_shed += 1,
            Outcome::Failed => {}
        }
        self.pending -= 1;
        if self.pending == 0 {
            self.finishing = true;
        }
    }

    /// Recovers any still-dead worker, seals every worker, and merges
    /// the cluster report.
    fn seal(&mut self) -> ClusterReport {
        // A worker killed so late that the run finished before its
        // eviction still has to be recovered — seal proves conservation
        // against a live process image, not a dead one. Everything it
        // stranded belongs to already-settled requests (the run is
        // over), so the copies are simply redundant.
        for w in 0..self.slots.len() {
            if self.slots[w].crashed {
                let t = self.finished_at;
                let stranded = self.slots[w].server.crash_for_cluster(t);
                self.slots[w].crashed = false;
                for s in stranded {
                    debug_assert!(
                        self.requests[(s.tag - 1) as usize].outcome.is_some(),
                        "an unsettled request cannot outlive the run"
                    );
                    self.requests[(s.tag - 1) as usize]
                        .copies
                        .retain(|&c| c != w);
                }
            }
        }
        // Close the books on the control plane: outstanding brownout
        // residency, per-worker lifetimes, and the fleet trace hash
        // (FNV-1a over every worker's own trace hash, in slot order).
        self.fold_brownout(self.finished_at);
        let mut trace_hash = FNV_OFFSET;
        for slot in &self.slots {
            let end = if slot.retired {
                slot.retired_at
            } else {
                self.finished_at
            };
            self.autoscale_stats.worker_seconds +=
                end.saturating_since(slot.spawned_at).as_ns_f64() / 1e9;
            trace_hash = fnv1a_fold(trace_hash, &slot.server.trace_hash().to_le_bytes());
        }
        let mut report = ClusterReport {
            offered: self.requests.len() as u64,
            completed: 0,
            failed: 0,
            shed: 0,
            latency: self.latency.clone(),
            failover: self.fleet,
            workers: Vec::with_capacity(self.slots.len()),
            finished_at: self.finished_at,
            autoscale: self.autoscale_stats,
            windows: self.windows.clone(),
            trace_hash,
            memory: MemoryLedger::default(),
            durability: DurabilityStats::default(),
            probe: self.events.probe(),
        };
        for req in &self.requests {
            match req.outcome {
                Some(Outcome::Completed) => report.completed += 1,
                Some(Outcome::Failed) => report.failed += 1,
                Some(Outcome::Shed) => report.shed += 1,
                None => report.failover.lost += 1,
            }
        }
        for slot in &mut self.slots {
            report.probe.merge(&slot.server.queue_probe());
            let mut rep = slot.server.seal();
            rep.failover = slot.stats;
            report.failover.merge(&slot.stats);
            report.memory.merge(&rep.memory);
            report.durability.merge(&rep.durability);
            report.workers.push(rep);
        }
        #[cfg(debug_assertions)]
        self.audit(&report)
            .unwrap_or_else(|e| panic!("cluster seal: {e}"));
        report
    }

    /// Audits a sealed cluster run: the fleet request ledger, `lost ==
    /// 0`, the fleet memory ledger, and every worker's own
    /// [`WorkerServer::audit`] against its sealed report
    /// (`report.workers[w]`), each worker violation tagged with its slot.
    /// It only reads state; debug builds run it at the end of every run.
    ///
    /// # Errors
    ///
    /// An [`AuditError`] listing every violation found.
    pub fn audit(&self, report: &ClusterReport) -> Result<(), AuditError> {
        let lost = report.failover.lost;
        let mut found: Vec<Violation> = [
            Violation::request_ledger(report.offered, report.completed, report.failed, report.shed),
            (lost > 0).then_some(Violation::Lost { lost }),
            Violation::memory_ledger(LedgerCopy::Fleet, &report.memory),
        ]
        .into_iter()
        .flatten()
        .collect();
        for (worker, (slot, rep)) in self.slots.iter().zip(&report.workers).enumerate() {
            if let Err(e) = slot.server.audit(rep) {
                found.extend(e.violations.into_iter().map(|v| Violation::Worker {
                    worker,
                    violation: Box::new(v),
                }));
            }
        }
        AuditError::check(found)
    }
}

/// µs (f64) → absolute instant.
fn us(at_us: f64) -> SimTime {
    SimTime::ZERO + us_dur(at_us)
}

/// µs (f64) → duration.
fn us_dur(d_us: f64) -> SimDuration {
    SimDuration::from_ns_f64(d_us * 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::{FuncOp, FunctionSpec};
    use jord_sim::TimeDist;

    fn leaf_registry() -> (FunctionRegistry, FunctionId) {
        let mut r = FunctionRegistry::new();
        let f = r.register(
            FunctionSpec::new("leaf")
                .op(FuncOp::ReadInput)
                .op(FuncOp::Compute(TimeDist::fixed(1_000.0)))
                .op(FuncOp::WriteOutput),
        );
        (r, f)
    }

    /// A cluster with `n` requests arriving every `gap_ns`.
    fn cluster_with_load(
        cfg: ClusterConfig,
        n: u64,
        gap_ns: u64,
    ) -> (ClusterDispatcher, FunctionId) {
        let (r, f) = leaf_registry();
        let mut c = ClusterDispatcher::new(cfg, r).expect("valid cluster config");
        for i in 0..n {
            c.push_request(SimTime::from_ns(i * gap_ns), f, 256);
        }
        (c, f)
    }

    fn base_cfg(workers: usize) -> ClusterConfig {
        ClusterConfig::new(workers, 42, RuntimeConfig::jord_32())
    }

    /// Runs one scenario under the sequential oracle and the parallel
    /// engine at 1/2/4 threads; every observable — fleet trace hash,
    /// ledger counters, latency tail, windows, finish time — must be
    /// bit-identical.
    fn assert_engine_parity(cfg: ClusterConfig, n: u64, gap_ns: u64) {
        let mut seq_cfg = cfg.clone();
        seq_cfg.engine = None;
        let (mut seq, _) = cluster_with_load(seq_cfg, n, gap_ns);
        let oracle = seq.run();
        for threads in [1, 2, 4] {
            let mut pcfg = cfg.clone();
            pcfg.engine = Some(EngineConfig::threads(threads));
            let (mut par, _) = cluster_with_load(pcfg, n, gap_ns);
            let rep = par.run();
            assert_eq!(
                rep.trace_hash, oracle.trace_hash,
                "fleet trace hash must match the sequential oracle at {threads} threads"
            );
            assert_eq!(rep.completed, oracle.completed, "@{threads} threads");
            assert_eq!(rep.failed, oracle.failed, "@{threads} threads");
            assert_eq!(rep.shed, oracle.shed, "@{threads} threads");
            assert_eq!(rep.failover, oracle.failover, "@{threads} threads");
            assert_eq!(rep.finished_at, oracle.finished_at, "@{threads} threads");
            assert_eq!(rep.p99(), oracle.p99(), "@{threads} threads");
            assert_eq!(rep.windows, oracle.windows, "@{threads} threads");
            // The op-count sums are partition-invariant.
            assert_eq!(
                rep.probe.scheduled, oracle.probe.scheduled,
                "@{threads} threads"
            );
            assert_eq!(rep.probe.popped, oracle.probe.popped, "@{threads} threads");
            assert_eq!(
                rep.probe.cancelled, oracle.probe.cancelled,
                "@{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_engine_matches_oracle_on_a_quiet_cluster() {
        assert_engine_parity(base_cfg(3), 400, 300);
    }

    #[test]
    fn parallel_engine_matches_oracle_through_a_crash() {
        let mut cfg = base_cfg(4);
        cfg.kill = Some(WorkerKill {
            worker: 1,
            at_us: 100.0,
        });
        assert_engine_parity(cfg, 1_000, 300);
    }

    #[test]
    fn parallel_engine_matches_oracle_through_hedged_pullbacks() {
        let mut cfg = base_cfg(3);
        cfg.hedge = Some(HedgeConfig { after_us: 2.0 });
        assert_engine_parity(cfg, 600, 100);
    }

    #[test]
    fn parallel_engine_matches_oracle_through_partition_and_drain() {
        let mut cfg = base_cfg(4);
        cfg.partition = Some(PartitionPlan {
            worker: 1,
            from_us: 100.0,
            until_us: 160.0,
        });
        cfg.drains = vec![DrainPlan {
            worker: 0,
            at_us: 4.0,
            resume_at_us: Some(40.0),
        }];
        cfg.heartbeat_loss_rate = 0.05;
        assert_engine_parity(cfg, 800, 150);
    }

    #[test]
    fn validate_rejects_bad_engine_configs() {
        let mut c = base_cfg(2);
        c.engine = Some(EngineConfig::threads(4));
        assert!(c.validate().is_ok(), "a sane engine config passes");
        c.engine = Some(EngineConfig {
            threads: 0,
            ..EngineConfig::threads(1)
        });
        assert!(c.validate().is_err(), "zero threads");
        c.engine = Some(EngineConfig {
            lookahead_us: 0.0,
            ..EngineConfig::threads(2)
        });
        assert!(c.validate().is_err(), "zero lookahead");
        c.engine = Some(EngineConfig {
            lookahead_us: -1.0,
            ..EngineConfig::threads(2)
        });
        assert!(c.validate().is_err(), "negative lookahead");
        c.engine = Some(EngineConfig {
            lookahead_us: f64::NAN,
            ..EngineConfig::threads(2)
        });
        assert!(c.validate().is_err(), "NaN lookahead");
        c.engine = Some(EngineConfig {
            lookahead_us: HEARTBEAT_EVERY_US * 2.0,
            ..EngineConfig::threads(2)
        });
        assert!(
            c.validate().is_err(),
            "lookahead wider than the heartbeat interval"
        );
    }

    #[test]
    fn quiet_cluster_completes_everything() {
        let (mut c, _) = cluster_with_load(base_cfg(2), 400, 500);
        let rep = c.run();
        c.audit(&rep).expect("a quiet cluster audits clean");
        assert_eq!(rep.completed, 400);
        assert_eq!(rep.failover.evictions, 0, "nobody died");
        assert_eq!(rep.failover.failovers, 0);
        assert!(rep.failover.heartbeats_sent > 0);
        // Both workers served: JSQ spreads an even load.
        for w in &rep.workers {
            assert!(w.completed > 0, "every worker should get work");
        }
        let sum: u64 = rep.workers.iter().map(|w| w.completed).sum();
        assert_eq!(sum, 400, "worker books must add up to the cluster's");
    }

    #[test]
    fn audit_reports_a_lost_request() {
        let (mut c, _) = cluster_with_load(base_cfg(2), 200, 500);
        let mut rep = c.run();
        assert_eq!(c.audit(&rep), Ok(()), "a clean cluster run audits clean");
        rep.failover.lost = 1;
        let e = c.audit(&rep).expect_err("a lost request must be reported");
        assert_eq!(e.violations, [Violation::Lost { lost: 1 }]);
    }

    #[test]
    fn audit_tags_a_worker_violation_with_its_slot() {
        let (mut c, _) = cluster_with_load(base_cfg(2), 200, 500);
        let mut rep = c.run();
        let w = &mut rep.workers[1];
        w.completed -= 1;
        let broken = Violation::RequestLedger {
            offered: w.offered,
            completed: w.completed,
            failed: 0,
            shed: 0,
        };
        let e = c.audit(&rep).expect_err("the worker's audit must fail");
        assert_eq!(
            e.violations,
            [Violation::Worker {
                worker: 1,
                violation: Box::new(broken),
            }]
        );
    }

    #[test]
    fn cluster_runs_are_deterministic() {
        let run = || {
            let mut cfg = base_cfg(3);
            cfg.heartbeat_loss_rate = 0.05;
            cfg.hedge = Some(HedgeConfig { after_us: 8.0 });
            let (mut c, _) = cluster_with_load(cfg, 300, 400);
            c.run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.failed, b.failed);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.failover, b.failover);
        assert_eq!(a.p99(), b.p99());
        assert_eq!(a.finished_at, b.finished_at);
    }

    #[test]
    fn killing_one_of_four_loses_nothing_at_least_once() {
        // Acceptance: same seed with and without the kill completes the
        // same request count; nothing is lost; detection beats the
        // configured bound.
        let n = 1_000;
        let (mut clean, _) = cluster_with_load(base_cfg(4), n, 300);
        let clean_rep = clean.run();
        assert_eq!(clean_rep.completed, n);

        let mut cfg = base_cfg(4);
        cfg.kill = Some(WorkerKill {
            worker: 1,
            at_us: 100.0,
        });
        let (mut c, _) = cluster_with_load(cfg, n, 300);
        let rep = c.run();
        assert_eq!(
            rep.completed, clean_rep.completed,
            "at-least-once failover must complete the crash-free count"
        );
        assert_eq!(rep.failed + rep.shed, 0);
        c.audit(&rep).expect("failover loses and leaks nothing");
        assert_eq!(rep.failover.evictions, 1, "exactly the killed worker");
        assert!(rep.failover.failovers > 0, "the kill stranded something");
        assert!(
            rep.failover.detection_ns > 0.0
                && rep.failover.detection_ns <= rep.failover.confirm_bound_ns,
            "detection {}ns must be within the bound {}ns",
            rep.failover.detection_ns,
            rep.failover.confirm_bound_ns
        );
        // The dead worker's report carries its own eviction.
        assert_eq!(rep.workers[1].failover.evictions, 1);
        assert_eq!(rep.workers[0].failover.evictions, 0);
    }

    #[test]
    fn killing_a_worker_fails_stranded_requests_exactly_once_at_most_once() {
        let n = 1_000;
        let mut cfg = base_cfg(4);
        cfg.semantics = CrashSemantics::AtMostOnce;
        cfg.kill = Some(WorkerKill {
            worker: 2,
            at_us: 100.0,
        });
        let (mut c, _) = cluster_with_load(cfg, n, 300);
        let rep = c.run();
        assert!(rep.failed > 0, "the kill must strand something");
        c.audit(&rep).expect("stranded requests fail exactly once");
        assert_eq!(
            rep.failover.failovers, 0,
            "at-most-once never re-executes a stranded request"
        );
    }

    #[test]
    fn heartbeat_partition_evicts_then_readmits_without_failing_requests() {
        // Worker 1 stays perfectly alive but its heartbeats black out
        // for 60 µs: long enough (vs the ~34.5 µs evict horizon) to be
        // evicted, then readmitted on probation heartbeats. No request
        // may fail: eviction of a live worker only stops new routing.
        let n = 1_000;
        let mut cfg = base_cfg(4);
        cfg.partition = Some(PartitionPlan {
            worker: 1,
            from_us: 100.0,
            until_us: 160.0,
        });
        let (mut c, _) = cluster_with_load(cfg, n, 300);
        let rep = c.run();
        assert_eq!(rep.completed, n, "a partition must not fail requests");
        c.audit(&rep).expect("a partition loses and leaks nothing");
        let w1 = &rep.workers[1].failover;
        assert_eq!(w1.evictions, 1, "the blackout crosses the evict phi");
        assert_eq!(w1.readmissions, 1, "heartbeats resume, worker rejoins");
        assert!(w1.heartbeats_lost >= 10, "the window eats ~12 heartbeats");
        assert_eq!(
            rep.failover.failovers, 0,
            "nobody died, so nothing failed over"
        );
    }

    #[test]
    fn hedging_duplicates_slow_requests_and_first_response_wins() {
        let mut cfg = base_cfg(3);
        cfg.hedge = Some(HedgeConfig { after_us: 2.0 });
        // Tight arrivals so queues build and some requests sit past the
        // hedge horizon.
        let (mut c, _) = cluster_with_load(cfg, 600, 100);
        let rep = c.run();
        assert_eq!(rep.completed, 600);
        c.audit(&rep).expect("hedging loses and leaks nothing");
        assert!(rep.failover.hedges > 0, "load must trigger hedging");
        // Every hedged request produces exactly one redundant copy,
        // which is either pulled back in time or finishes late.
        assert!(
            rep.failover.cancelled + rep.failover.duplicated <= rep.failover.hedges,
            "redundant copies ({} + {}) cannot outnumber hedges ({})",
            rep.failover.cancelled,
            rep.failover.duplicated,
            rep.failover.hedges
        );
        assert!(rep.failover.hedge_wins <= rep.failover.hedges);
    }

    #[test]
    fn hedge_pullback_accounting_is_exact_without_faults() {
        // Every hedge creates exactly one redundant copy, and with no
        // crashes, drains, or rebalances in play that copy has exactly
        // two fates: pulled back undispatched when the first response
        // wins (`cancelled`, an O(1) tombstone cancel in the worker's
        // event queue), or left to finish late (`duplicated`). The
        // first-response-wins path must therefore un-offer *exactly* the
        // redundant copies — no double-cancels, no leaks.
        let mut cfg = base_cfg(3);
        cfg.hedge = Some(HedgeConfig { after_us: 2.0 });
        let (mut c, _) = cluster_with_load(cfg, 600, 100);
        let rep = c.run();
        assert_eq!(rep.completed, 600);
        assert!(rep.failover.hedges > 0, "load must trigger hedging");
        assert_eq!(
            rep.failover.cancelled + rep.failover.duplicated,
            rep.failover.hedges,
            "each hedge's redundant copy is either pulled back or duplicated"
        );
        // A cancelled copy never produced work, so completions count
        // every request exactly once.
        let sum: u64 = rep.workers.iter().map(|w| w.completed).sum();
        assert_eq!(sum, 600 + rep.failover.duplicated);
    }

    #[test]
    fn drain_rebalances_queued_work_and_resumes() {
        let mut cfg = base_cfg(2);
        cfg.drains = vec![DrainPlan {
            worker: 0,
            at_us: 4.0,
            resume_at_us: Some(40.0),
        }];
        // 40 requests/µs against ~37/µs of cluster capacity: queues
        // build fast, so worker 0 has undispatched work at the drain.
        let (mut c, _) = cluster_with_load(cfg, 800, 25);
        let rep = c.run();
        assert_eq!(rep.completed, 800, "drain must not lose work");
        c.audit(&rep).expect("a drain loses and leaks nothing");
        assert_eq!(rep.failover.drains, 1);
        assert!(
            rep.failover.rebalanced > 0,
            "queued requests must move to the peer"
        );
    }

    #[test]
    fn lossy_heartbeats_alone_do_not_evict() {
        // 5% loss leaves far more signal than the evict horizon needs;
        // suspicion may flicker, but eviction (and failover) must not
        // happen, and every request completes.
        let mut cfg = base_cfg(3);
        cfg.heartbeat_loss_rate = 0.05;
        let (mut c, _) = cluster_with_load(cfg, 600, 300);
        let rep = c.run();
        assert_eq!(rep.completed, 600);
        assert_eq!(rep.failover.evictions, 0, "5% loss must not evict");
        assert_eq!(rep.failover.failovers, 0);
        assert!(rep.failover.heartbeats_lost > 0, "losses did happen");
    }

    #[test]
    fn validate_rejects_bad_cluster_configs() {
        let ok = base_cfg(2);
        assert!(ok.validate().is_ok());
        let mut c = base_cfg(0);
        assert!(c.validate().is_err(), "zero workers");
        c = base_cfg(2);
        c.template = c.template.with_crash(CrashConfig::journal_only());
        assert!(c.validate().is_err(), "template crash config");
        c = base_cfg(2);
        c.kill = Some(WorkerKill {
            worker: 2,
            at_us: 10.0,
        });
        assert!(c.validate().is_err(), "kill index out of range");
        c = base_cfg(2);
        c.heartbeat_loss_rate = 1.0;
        assert!(c.validate().is_err(), "total heartbeat loss");
        c = base_cfg(2);
        c.partition = Some(PartitionPlan {
            worker: 0,
            from_us: 50.0,
            until_us: 40.0,
        });
        assert!(c.validate().is_err(), "inverted partition window");
        c = base_cfg(2);
        c.hedge = Some(HedgeConfig { after_us: 0.0 });
        assert!(c.validate().is_err(), "zero hedge delay");
        c = base_cfg(2);
        c.drains = vec![DrainPlan {
            worker: 0,
            at_us: 50.0,
            resume_at_us: Some(40.0),
        }];
        assert!(c.validate().is_err(), "resume before drain");
        c = base_cfg(2);
        c.autoscale = Some(AutoscalerConfig {
            min_workers: 3,
            ..AutoscalerConfig::default()
        });
        assert!(c.validate().is_err(), "initial fleet below min_workers");
    }
}
