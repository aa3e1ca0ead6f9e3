//! Deterministic fault injection.
//!
//! The paper's isolation story (§3.1, §4.3) is that Jord *generates
//! hardware faults* when untrusted code misbehaves. This module supplies
//! the misbehavior: a [`FaultInjector`], driven by a forked stream of the
//! seeded simulation RNG, decides per invocation whether (and where) the
//! function will do something illegal, and per memory access whether a
//! spurious VLB glitch flushes a core's translation caches.
//!
//! The injector never fabricates a [`Fault`](crate::Fault) value itself.
//! It only *plans* misbehavior; the runtime acts the plan out — issuing a
//! wild access, a write to read-only code, an ungated privileged entry —
//! and the ordinary translate/protection machinery raises the fault, so
//! injection exercises exactly the paths real faults would take.

use jord_sim::Rng;

use crate::fault::FaultKind;

/// A deterministic heartbeat blackout: every heartbeat sent in
/// `[from_us, until_us)` is dropped, as if the network path between the
/// worker and the dispatcher partitioned for that interval. The worker
/// itself keeps running — only its liveness signal disappears — which is
/// exactly the false-positive scenario a failure detector must survive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// Partition start, µs of simulated time (inclusive).
    pub from_us: f64,
    /// Partition end, µs of simulated time (exclusive).
    pub until_us: f64,
}

impl PartitionWindow {
    /// A partition lasting from `from_us` (inclusive) to `until_us`
    /// (exclusive).
    pub fn new(from_us: f64, until_us: f64) -> Self {
        PartitionWindow { from_us, until_us }
    }

    /// True when a heartbeat sent at `at_us` falls inside the blackout.
    pub fn contains(&self, at_us: f64) -> bool {
        at_us >= self.from_us && at_us < self.until_us
    }

    /// Checks the window is finite, ordered, and non-negative.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.from_us.is_finite() || !self.until_us.is_finite() || self.from_us < 0.0 {
            return Err(format!(
                "partition window must be finite and non-negative, got [{}, {})",
                self.from_us, self.until_us
            ));
        }
        if self.until_us <= self.from_us {
            return Err(format!(
                "partition window must end after it starts, got [{}, {})",
                self.from_us, self.until_us
            ));
        }
        Ok(())
    }
}

/// Injection rates; all default to zero (no injection).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectConfig {
    /// Per-invocation probability that the function misbehaves once,
    /// raising a hardware fault mid-segment.
    pub fault_rate: f64,
    /// Per-invocation probability that the function "runs away": its
    /// compute phases stretch by [`runaway_factor`](Self::runaway_factor),
    /// so only a deadline can stop it.
    pub runaway_rate: f64,
    /// Multiplier applied to compute durations of runaway invocations.
    pub runaway_factor: f64,
    /// Per-translated-access probability of a spurious VLB/VTW glitch
    /// that flushes the accessing core's VLBs. Costs nothing directly;
    /// the penalty emerges from forced VTW re-walks.
    pub vlb_glitch_rate: f64,
    /// Per-heartbeat probability that the liveness message is dropped in
    /// the network without the worker being dead.
    pub heartbeat_loss_rate: f64,
    /// A deterministic heartbeat blackout window (network partition).
    /// Unlike [`heartbeat_loss_rate`](Self::heartbeat_loss_rate) it drops
    /// *every* heartbeat in the window, long enough silence to drive a
    /// failure detector through suspect → evict on a live worker.
    pub partition: Option<PartitionWindow>,
}

impl Default for InjectConfig {
    fn default() -> Self {
        InjectConfig {
            fault_rate: 0.0,
            runaway_rate: 0.0,
            runaway_factor: 50.0,
            vlb_glitch_rate: 0.0,
            heartbeat_loss_rate: 0.0,
            partition: None,
        }
    }
}

impl InjectConfig {
    /// A config injecting faults at `rate` per invocation, nothing else.
    pub fn faults(rate: f64) -> Self {
        InjectConfig {
            fault_rate: rate,
            ..InjectConfig::default()
        }
    }

    /// Checks every rate is a probability and the factor is sane.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("fault_rate", self.fault_rate),
            ("runaway_rate", self.runaway_rate),
            ("vlb_glitch_rate", self.vlb_glitch_rate),
            ("heartbeat_loss_rate", self.heartbeat_loss_rate),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!("{name} must be a probability, got {p}"));
            }
        }
        // Written to also reject NaN.
        if self.runaway_factor.is_nan() || self.runaway_factor < 1.0 {
            return Err(format!(
                "runaway_factor must be >= 1, got {}",
                self.runaway_factor
            ));
        }
        if let Some(window) = &self.partition {
            window.validate()?;
        }
        Ok(())
    }

    /// True when every rate is zero (the injector will never fire).
    pub fn is_inert(&self) -> bool {
        self.fault_rate == 0.0
            && self.runaway_rate == 0.0
            && self.vlb_glitch_rate == 0.0
            && self.heartbeat_loss_rate == 0.0
            && self.partition.is_none()
    }
}

/// What crashes when a [`CrashPlan`] fires.
///
/// Unlike per-invocation faults (which the protection hardware contains),
/// a crash kills a whole runtime component: everything resident on it —
/// queued work, suspended continuations, in-memory bookkeeping — is lost
/// and must be recovered from the write-ahead journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashScope {
    /// One executor core wedges; its queue and resident continuations die.
    Executor(usize),
    /// One orchestrator core wedges; its request queues die (work already
    /// dispatched to executors keeps running).
    Orchestrator(usize),
    /// The whole worker dies: every core, queue, PD, and in-memory counter
    /// is lost; only the journal and its checkpoints survive.
    Worker,
}

impl CrashScope {
    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            CrashScope::Executor(_) => "executor",
            CrashScope::Orchestrator(_) => "orchestrator",
            CrashScope::Worker => "worker",
        }
    }
}

/// A scheduled crash: at simulated time `at_us`, the component named by
/// `scope` dies. Deterministic by construction — the same plan on the same
/// seeded run crashes at exactly the same point in the event order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPlan {
    /// Simulated time of the crash, in microseconds from run start.
    pub at_us: f64,
    /// What dies.
    pub scope: CrashScope,
}

impl CrashPlan {
    /// A whole-worker crash at `at_us` microseconds.
    pub fn worker_at(at_us: f64) -> Self {
        CrashPlan {
            at_us,
            scope: CrashScope::Worker,
        }
    }

    /// An executor crash at `at_us` microseconds.
    pub fn executor_at(at_us: f64, executor: usize) -> Self {
        CrashPlan {
            at_us,
            scope: CrashScope::Executor(executor),
        }
    }

    /// An orchestrator crash at `at_us` microseconds.
    pub fn orchestrator_at(at_us: f64, orch: usize) -> Self {
        CrashPlan {
            at_us,
            scope: CrashScope::Orchestrator(orch),
        }
    }

    /// Checks the crash time is a finite, non-negative instant.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.at_us.is_finite() || self.at_us < 0.0 {
            return Err(format!(
                "crash time must be finite and non-negative, got {}",
                self.at_us
            ));
        }
        Ok(())
    }
}

/// The five partial-failure modes of a durable log device.
///
/// A crash is never the interesting part — the journal surviving it
/// byte-perfect is. Real disks tear the last sectors of an in-flight
/// write, rot single bits, acknowledge writes they never persisted,
/// replay buffered writes twice, and truncate sidecar files. Each mode
/// here corrupts the write-ahead journal (or its checkpoint) *between*
/// crash and restart, so recovery has to earn its replay instead of
/// assuming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// The tail of the log is partially written: the final frame is cut
    /// mid-bytes, as a power loss mid-`write(2)` would leave it.
    TornTail,
    /// One bit of one interior frame's payload flips (media rot). The
    /// frame's length header survives, so the log still *parses* — only
    /// the checksum betrays it.
    BitFlip,
    /// One interior frame was acknowledged but never persisted (lost /
    /// misdirected write): its bytes vanish, leaving a sequence gap.
    DroppedWrite,
    /// One interior frame is persisted twice back-to-back (a replayed
    /// write buffer), leaving a sequence regression.
    DuplicatedFrame,
    /// The newest checkpoint image is truncated: its integrity seal no
    /// longer verifies, forcing recovery onto an older checkpoint.
    TruncatedCheckpoint,
}

impl StorageFaultKind {
    /// Every storage fault mode, for exhaustive sweeps.
    pub const ALL: [StorageFaultKind; 5] = [
        StorageFaultKind::TornTail,
        StorageFaultKind::BitFlip,
        StorageFaultKind::DroppedWrite,
        StorageFaultKind::DuplicatedFrame,
        StorageFaultKind::TruncatedCheckpoint,
    ];

    /// Stable dense index (position in [`ALL`](Self::ALL)).
    pub fn index(self) -> usize {
        match self {
            StorageFaultKind::TornTail => 0,
            StorageFaultKind::BitFlip => 1,
            StorageFaultKind::DroppedWrite => 2,
            StorageFaultKind::DuplicatedFrame => 3,
            StorageFaultKind::TruncatedCheckpoint => 4,
        }
    }

    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            StorageFaultKind::TornTail => "torn-tail",
            StorageFaultKind::BitFlip => "bit-flip",
            StorageFaultKind::DroppedWrite => "dropped-write",
            StorageFaultKind::DuplicatedFrame => "duplicated-frame",
            StorageFaultKind::TruncatedCheckpoint => "truncated-checkpoint",
        }
    }
}

impl std::fmt::Display for StorageFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A seeded plan to corrupt the durable journal when the next crash
/// fires. The plan names only the *mode*; the concrete coordinates
/// (which frame, which byte, which bit, how deep a tear) are drawn
/// deterministically from the run's RNG via [`strike`](Self::strike),
/// so the same seed always corrupts the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageFaultPlan {
    /// Which partial-failure mode the device exhibits.
    pub kind: StorageFaultKind,
    /// Stream salt mixed into the strike draw, so campaign grids can
    /// vary the struck coordinates without changing the run seed.
    pub salt: u64,
}

impl StorageFaultPlan {
    /// A plan for `kind` with the default stream salt.
    pub fn new(kind: StorageFaultKind) -> Self {
        StorageFaultPlan { kind, salt: 0 }
    }

    /// Returns the plan with a different stream salt.
    pub fn salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// Draws the concrete strike coordinates from `rng`.
    ///
    /// The picks are raw entropy; the storage layer that owns the frame
    /// geometry reduces them onto real frame/byte/bit/tear ranges. This
    /// keeps jord-hw ignorant of the journal's encoding while the draw
    /// stays on the seeded, replayable stream.
    pub fn strike(&self, rng: &mut Rng) -> StorageStrike {
        let mut r = rng.fork(self.salt ^ 0x0053_544F_524D_u64); // "STORM"
        StorageStrike {
            kind: self.kind,
            frame_pick: r.next_u64(),
            byte_pick: r.next_u64(),
            bit_pick: r.next_below(8) as u8,
        }
    }
}

/// Concrete coordinates of one storage corruption, fixed at crash time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageStrike {
    /// The failure mode being acted out.
    pub kind: StorageFaultKind,
    /// Entropy for choosing the struck frame (reduce modulo the frame
    /// count).
    pub frame_pick: u64,
    /// Entropy for choosing the struck byte offset / tear depth.
    pub byte_pick: u64,
    /// Which bit of the struck byte flips (0..8).
    pub bit_pick: u8,
}

/// One planned act of misbehavior within an invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// The kind of hardware fault the misbehavior must provoke.
    pub kind: FaultKind,
    /// Index of the function-body operation before which to misbehave.
    pub at_op: usize,
}

/// What the injector decided for one invocation, fixed at dispatch time so
/// retries of the same request can draw fresh (independent) plans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionPlan {
    /// Misbehave at `fault.at_op`, provoking `fault.kind` — or run clean.
    pub fault: Option<PlannedFault>,
    /// Stretch compute phases by the configured runaway factor.
    pub runaway: bool,
}

impl InjectionPlan {
    /// The no-injection plan.
    pub const CLEAN: InjectionPlan = InjectionPlan {
        fault: None,
        runaway: false,
    };

    /// True if the planned fault fires before op `op`.
    pub fn faults_at(&self, op: usize) -> Option<FaultKind> {
        match self.fault {
            Some(p) if p.at_op == op => Some(p.kind),
            _ => None,
        }
    }
}

/// Draws injection decisions from a dedicated, forked RNG stream, so the
/// same seed always yields the same fault schedule regardless of how the
/// rest of the simulation consumes randomness.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: InjectConfig,
    rng: Rng,
}

impl FaultInjector {
    /// Creates an injector; `rng` should be a [`Rng::fork`] of the sim RNG.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`InjectConfig::validate`].
    pub fn new(cfg: InjectConfig, rng: Rng) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid InjectConfig: {e}");
        }
        FaultInjector { cfg, rng }
    }

    /// The configured rates.
    pub fn config(&self) -> &InjectConfig {
        &self.cfg
    }

    /// Plans one invocation whose body has `ops` operations: whether it
    /// misbehaves, which fault kind it provokes, where, and whether its
    /// compute runs away.
    pub fn plan(&mut self, ops: usize) -> InjectionPlan {
        let fault = if self.rng.chance(self.cfg.fault_rate) {
            let kind = FaultKind::ALL[self.rng.choose_index(&FaultKind::ALL)];
            let at_op = self.rng.next_below(ops.max(1) as u64) as usize;
            Some(PlannedFault { kind, at_op })
        } else {
            None
        };
        let runaway = self.rng.chance(self.cfg.runaway_rate);
        InjectionPlan { fault, runaway }
    }

    /// Draws one per-access VLB-glitch decision.
    pub fn glitch(&mut self) -> bool {
        self.cfg.vlb_glitch_rate > 0.0 && self.rng.chance(self.cfg.vlb_glitch_rate)
    }

    /// Decides whether a heartbeat sent at `at_us` reaches the dispatcher.
    ///
    /// The partition window is checked first and consumes no randomness,
    /// so adding or moving a blackout never perturbs the random-loss
    /// stream; likewise a zero loss rate draws nothing, keeping clean
    /// configs byte-identical to runs without the feature.
    pub fn heartbeat_delivered(&mut self, at_us: f64) -> bool {
        if self.cfg.partition.is_some_and(|w| w.contains(at_us)) {
            return false;
        }
        !(self.cfg.heartbeat_loss_rate > 0.0 && self.rng.chance(self.cfg.heartbeat_loss_rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_fire() {
        let mut inj = FaultInjector::new(InjectConfig::default(), Rng::new(7));
        for _ in 0..10_000 {
            assert_eq!(inj.plan(8), InjectionPlan::CLEAN);
            assert!(!inj.glitch());
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = InjectConfig {
            fault_rate: 0.3,
            runaway_rate: 0.1,
            vlb_glitch_rate: 0.05,
            ..InjectConfig::default()
        };
        let mut a = FaultInjector::new(cfg, Rng::new(42));
        let mut b = FaultInjector::new(cfg, Rng::new(42));
        for _ in 0..1_000 {
            assert_eq!(a.plan(5), b.plan(5));
            assert_eq!(a.glitch(), b.glitch());
        }
    }

    #[test]
    fn storage_strikes_are_seed_deterministic_and_in_range() {
        for kind in StorageFaultKind::ALL {
            let plan = StorageFaultPlan::new(kind).salt(kind.index() as u64);
            let mut a = Rng::new(99);
            let mut b = Rng::new(99);
            let s = plan.strike(&mut a);
            assert_eq!(s, plan.strike(&mut b));
            assert_eq!(s.kind, kind);
            assert!(s.bit_pick < 8);
        }
    }

    #[test]
    fn distinct_salts_strike_distinct_coordinates() {
        let base = StorageFaultPlan::new(StorageFaultKind::BitFlip);
        let a = base.strike(&mut Rng::new(5));
        let b = base.salt(1).strike(&mut Rng::new(5));
        assert_ne!((a.frame_pick, a.byte_pick), (b.frame_pick, b.byte_pick));
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let cfg = InjectConfig {
            fault_rate: 0.25,
            ..InjectConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, Rng::new(9));
        let n = 40_000;
        let fired = (0..n).filter(|_| inj.plan(4).fault.is_some()).count();
        let p = fired as f64 / n as f64;
        assert!((0.23..0.27).contains(&p), "empirical rate {p}");
    }

    #[test]
    fn planned_op_is_within_body() {
        let cfg = InjectConfig::faults(1.0);
        let mut inj = FaultInjector::new(cfg, Rng::new(3));
        let mut seen = [false; 6];
        for _ in 0..2_000 {
            let plan = inj.plan(6);
            let f = plan.fault.expect("rate 1.0 always plans a fault");
            assert!(f.at_op < 6);
            seen[f.at_op] = true;
            assert_eq!(plan.faults_at(f.at_op), Some(f.kind));
            assert_eq!(plan.faults_at(f.at_op + 1), None);
        }
        assert!(seen.iter().all(|&s| s), "every op index should be drawn");
    }

    #[test]
    fn all_kinds_get_planned() {
        let cfg = InjectConfig::faults(1.0);
        let mut inj = FaultInjector::new(cfg, Rng::new(11));
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[inj.plan(3).fault.unwrap().kind.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "every fault kind should be drawn");
    }

    #[test]
    fn validate_rejects_bad_rates() {
        assert!(InjectConfig::faults(1.5).validate().is_err());
        assert!(InjectConfig::faults(-0.1).validate().is_err());
        let bad_factor = InjectConfig {
            runaway_factor: 0.5,
            ..InjectConfig::default()
        };
        assert!(bad_factor.validate().is_err());
        assert!(InjectConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid InjectConfig")]
    fn injector_panics_on_invalid_config() {
        let _ = FaultInjector::new(InjectConfig::faults(2.0), Rng::new(0));
    }

    #[test]
    fn crash_plan_constructors_and_labels() {
        let w = CrashPlan::worker_at(500.0);
        assert_eq!(w.scope, CrashScope::Worker);
        assert_eq!(w.scope.label(), "worker");
        let e = CrashPlan::executor_at(10.0, 3);
        assert_eq!(e.scope, CrashScope::Executor(3));
        assert_eq!(e.scope.label(), "executor");
        let o = CrashPlan::orchestrator_at(10.0, 1);
        assert_eq!(o.scope, CrashScope::Orchestrator(1));
        assert_eq!(o.scope.label(), "orchestrator");
        assert!(w.validate().is_ok());
    }

    #[test]
    fn partition_window_drops_exactly_its_interval() {
        let cfg = InjectConfig {
            partition: Some(PartitionWindow::new(100.0, 200.0)),
            ..InjectConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, Rng::new(5));
        assert!(inj.heartbeat_delivered(99.9));
        assert!(!inj.heartbeat_delivered(100.0), "start is inclusive");
        assert!(!inj.heartbeat_delivered(150.0));
        assert!(inj.heartbeat_delivered(200.0), "end is exclusive");
        assert!(inj.heartbeat_delivered(10_000.0));
    }

    #[test]
    fn heartbeat_loss_rate_is_roughly_honoured() {
        let cfg = InjectConfig {
            heartbeat_loss_rate: 0.2,
            ..InjectConfig::default()
        };
        let mut inj = FaultInjector::new(cfg, Rng::new(13));
        let n = 40_000;
        let lost = (0..n)
            .filter(|i| !inj.heartbeat_delivered(*i as f64))
            .count();
        let p = lost as f64 / n as f64;
        assert!((0.18..0.22).contains(&p), "empirical loss rate {p}");
    }

    #[test]
    fn partition_consumes_no_randomness() {
        // Two injectors with the same loss stream, one also partitioned:
        // outside the window their random-loss decisions must agree
        // heartbeat-for-heartbeat, because blackout drops draw nothing.
        let base = InjectConfig {
            heartbeat_loss_rate: 0.3,
            ..InjectConfig::default()
        };
        let cut = InjectConfig {
            partition: Some(PartitionWindow::new(50.0, 60.0)),
            ..base
        };
        // The plain injector only sees the heartbeats outside the window
        // (it stands in for "the same run without the partition feature").
        let mut a = FaultInjector::new(base, Rng::new(21));
        let mut b = FaultInjector::new(cut, Rng::new(21));
        for i in 0..200 {
            let at = i as f64;
            if (50.0..60.0).contains(&at) {
                assert!(
                    !b.heartbeat_delivered(at),
                    "inside the window every heartbeat drops"
                );
            } else {
                assert_eq!(
                    a.heartbeat_delivered(at),
                    b.heartbeat_delivered(at),
                    "heartbeat {at}"
                );
            }
        }
    }

    #[test]
    fn zero_heartbeat_config_always_delivers() {
        let mut inj = FaultInjector::new(InjectConfig::default(), Rng::new(7));
        for i in 0..1_000 {
            assert!(inj.heartbeat_delivered(i as f64));
        }
        assert!(InjectConfig::default().is_inert());
        let not_inert = InjectConfig {
            heartbeat_loss_rate: 0.1,
            ..InjectConfig::default()
        };
        assert!(!not_inert.is_inert());
        let not_inert = InjectConfig {
            partition: Some(PartitionWindow::new(0.0, 1.0)),
            ..InjectConfig::default()
        };
        assert!(!not_inert.is_inert());
    }

    #[test]
    fn validate_rejects_bad_heartbeat_config() {
        let bad = InjectConfig {
            heartbeat_loss_rate: 1.5,
            ..InjectConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = InjectConfig {
            partition: Some(PartitionWindow::new(10.0, 10.0)),
            ..InjectConfig::default()
        };
        assert!(bad.validate().is_err(), "empty window is a config bug");
        let bad = InjectConfig {
            partition: Some(PartitionWindow::new(-1.0, 10.0)),
            ..InjectConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = InjectConfig {
            partition: Some(PartitionWindow::new(0.0, f64::NAN)),
            ..InjectConfig::default()
        };
        assert!(bad.validate().is_err());
        let good = InjectConfig {
            heartbeat_loss_rate: 0.01,
            partition: Some(PartitionWindow::new(5.0, 25.0)),
            ..InjectConfig::default()
        };
        assert!(good.validate().is_ok());
    }

    #[test]
    fn crash_plan_rejects_bad_times() {
        assert!(CrashPlan::worker_at(-1.0).validate().is_err());
        assert!(CrashPlan::worker_at(f64::NAN).validate().is_err());
        assert!(CrashPlan::worker_at(f64::INFINITY).validate().is_err());
        assert!(CrashPlan::worker_at(0.0).validate().is_ok());
    }
}
