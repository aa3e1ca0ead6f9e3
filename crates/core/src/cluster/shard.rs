//! One worker shard: a [`WorkerServer`] plus the dispatcher's view of it,
//! and the bounded-advance step the parallel engine runs off-thread.
//!
//! A shard owns everything its worker needs to step in isolation — the
//! server (its own [`jord_sim::EventQueue`], RNG stream, and event bus),
//! the phi-accrual detector state, and the dispatcher-side bookkeeping.
//! Workers share no mutable state with each other (worker `w` runs on
//! [`Rng::derive_seed`]`(seed, w)`), so within one engine window any set
//! of shards may advance concurrently, each on whichever thread claims
//! it; only the dispatcher's own handlers (routing, failover,
//! autoscaling) ever touch two shards in one action, and those run
//! serially once every shard of the window is done.

use jord_hw::{FaultInjector, InjectConfig, PartitionWindow};
use jord_sim::{Rng, SimTime};

use crate::events::WorkerNotice;
use crate::health::{PhiAccrual, WorkerHealth};
use crate::server::WorkerServer;
use crate::stats::FailoverStats;

use super::ClusterConfig;

/// Stream id salt for per-worker heartbeat-network RNGs, so they are
/// disjoint from the workers' own `derive_seed(seed, w)` streams.
const HB_STREAM: u64 = 0x4845_4152_5442_4541; // "HEARTBEA"

/// One worker plus the dispatcher's view of it.
pub(super) struct WorkerShard {
    pub(super) server: WorkerServer,
    pub(super) detector: PhiAccrual,
    pub(super) health: WorkerHealth,
    /// Ground truth, invisible to routing: the process is dead. The
    /// dispatcher only learns via the detector.
    pub(super) crashed: bool,
    pub(super) crashed_at: SimTime,
    /// Drops heartbeats per loss rate / partition window.
    pub(super) hb_injector: FaultInjector,
    /// A rebooting worker heartbeats again only after this instant.
    pub(super) hb_resume_at: SimTime,
    /// Consecutive delivered heartbeats since eviction.
    pub(super) probation: u32,
    /// Dispatcher-tracked outstanding copies (the JSQ key).
    pub(super) assigned: u64,
    /// Worker-health counters (heartbeats, suspicion, detection).
    pub(super) stats: FailoverStats,
    /// Scale-down in progress: draining toward permanent removal.
    pub(super) retiring: bool,
    /// Permanently removed (never routed to, heartbeats ignored).
    pub(super) retired: bool,
    /// When this worker joined the fleet (ZERO for the initial fleet).
    pub(super) spawned_at: SimTime,
    /// When retirement completed (worker-seconds accounting).
    pub(super) retired_at: SimTime,
    /// Notices produced during a bounded advance, stamped with the pop
    /// time of the step that produced them: `(pop_time, notice)` in pop
    /// order. Once the window's shards are all done, the engine merges
    /// their outboxes by `(pop_time, worker_id, outbox_index)` — exactly
    /// the order the sequential engine would have pushed them.
    pub(super) outbox: Vec<(SimTime, WorkerNotice)>,
    /// Latest event time popped during the last bounded advance (the
    /// engine folds it into `finished_at` when it merges the window).
    pub(super) advanced: Option<SimTime>,
}

impl WorkerShard {
    /// Wraps a booted server in a fresh shard. Scripted partitions only
    /// ever target the initial fleet (validated against `cfg.workers`),
    /// so spawned workers get a loss-rate-only heartbeat injector.
    pub(super) fn new(
        cfg: &ClusterConfig,
        server: WorkerServer,
        stream: u64,
        at: SimTime,
    ) -> WorkerShard {
        let hb_cfg = InjectConfig {
            heartbeat_loss_rate: cfg.heartbeat_loss_rate,
            partition: cfg
                .partition
                .filter(|p| p.worker as u64 == stream && (stream as usize) < cfg.workers)
                .map(|p| PartitionWindow::new(p.from_us, p.until_us)),
            ..InjectConfig::default()
        };
        let hb_rng = Rng::new(Rng::derive_seed(cfg.seed, HB_STREAM ^ stream));
        WorkerShard {
            server,
            detector: PhiAccrual::new(),
            health: WorkerHealth::Healthy,
            crashed: false,
            crashed_at: SimTime::ZERO,
            hb_injector: FaultInjector::new(hb_cfg, hb_rng),
            hb_resume_at: SimTime::ZERO,
            probation: 0,
            assigned: 0,
            stats: FailoverStats::default(),
            retiring: false,
            retired: false,
            spawned_at: at,
            retired_at: SimTime::ZERO,
            outbox: Vec::new(),
            advanced: None,
        }
    }

    /// Steps this worker through every pending event at or before the
    /// horizon `h`, collecting produced notices into the outbox instead
    /// of a dispatcher queue this thread must not touch.
    ///
    /// This is the parallel engine's phase-1 unit of work: it reads and
    /// writes nothing outside `self`, so disjoint shards advance
    /// concurrently. The horizon is inclusive, mirroring the sequential
    /// engine's worker-beats-dispatcher tie rule (a worker event at
    /// exactly the dispatcher's next time steps first).
    pub(super) fn advance_to(&mut self, h: SimTime) {
        debug_assert!(!self.crashed, "a dead process pops nothing");
        while let Some(t) = self.server.next_event_time() {
            if t > h {
                break;
            }
            self.server.step();
            self.advanced = Some(self.advanced.map_or(t, |a| a.max(t)));
            self.outbox
                .extend(self.server.drain_notices().map(|n| (t, n)));
        }
    }
}

/// Phase 1 hands `&mut WorkerShard`s to helper threads; everything a
/// shard owns is plain data (no `Rc`/`RefCell`/shared handles), so keep
/// that statically true.
#[allow(dead_code)]
fn shards_are_send() {
    fn check<T: Send>() {}
    check::<WorkerShard>();
}
