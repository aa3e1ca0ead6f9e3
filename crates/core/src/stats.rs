//! Run-level measurement: request latencies, function service times, and
//! the per-function breakdowns behind Figures 9–11 and 14.

use std::collections::BTreeMap;

use jord_hw::FaultKind;
use jord_sim::{LatencyHistogram, OnlineStats, SimDuration, SimTime};

use crate::function::FunctionId;
use crate::invocation::Breakdown;
use crate::memory::MemoryLedger;

/// Fault-handling counters: what went wrong and what the runtime did about
/// it. `PartialEq` so determinism tests can compare whole schedules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Hardware faults raised, indexed by [`FaultKind::index`].
    pub by_kind: [u64; 5],
    /// Spurious VLB glitches injected (cold-translation events, not
    /// faults; their cost shows up as extra VTW walks).
    pub glitches: u64,
    /// Invocations aborted (fault, timeout, or failed child).
    pub aborted: u64,
    /// Invocations killed by the per-invocation deadline.
    pub timeouts: u64,
    /// External requests re-dispatched after a failure.
    pub retries: u64,
    /// External requests shed at admission (queue over the shed bound).
    pub sheds: u64,
    /// External requests terminally failed (retries exhausted).
    pub failed: u64,
}

impl FaultStats {
    /// Records one raised hardware fault.
    pub fn count(&mut self, kind: FaultKind) {
        self.by_kind[kind.index()] += 1;
    }

    /// Hardware faults raised, of `kind`.
    pub fn of_kind(&self, kind: FaultKind) -> u64 {
        self.by_kind[kind.index()]
    }

    /// Total hardware faults raised across all kinds.
    pub fn total_faults(&self) -> u64 {
        self.by_kind.iter().sum()
    }
}

/// Crash-recovery counters: what the journal and the restore path did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashStats {
    /// Crashes injected (executor, orchestrator, or whole worker).
    pub crashes: u64,
    /// Checkpoints taken at journal cadence.
    pub checkpoints: u64,
    /// Journal records appended.
    pub journal_records: u64,
    /// Journal records replayed during recovery.
    pub replayed: u64,
    /// Invocations killed by a crash (resident on the crashed component).
    pub killed: u64,
    /// Killed external requests re-admitted under at-least-once semantics.
    pub readmitted: u64,
}

/// Durable-storage counters: what the framed journal's scanner, the
/// checkpoint seals, and the recovery ladder saw and did. All zero on a
/// run that never crashed (the scanner only runs at recovery).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Frames whose checksum and sequence verified during recovery scans.
    pub frames_verified: u64,
    /// Frames rejected by a checksum/decode failure (corrupt interior).
    pub frames_quarantined: u64,
    /// Bytes discarded off the end of the log as a torn tail.
    pub truncated_bytes: u64,
    /// Duplicate frames (sequence regressions) dropped by the scanner.
    pub duplicates_dropped: u64,
    /// Checkpoint seals that failed verification against the log.
    pub seal_failures: u64,
    /// Recoveries that took the exact-replay rung (clean log).
    pub exact_replays: u64,
    /// Recoveries that truncated a torn tail and replayed the prefix.
    pub torn_tails: u64,
    /// Recoveries that quarantined a corrupt interior frame.
    pub quarantines: u64,
    /// Recoveries that fell back to an earlier sealed checkpoint.
    pub checkpoint_fallbacks: u64,
    /// Recoveries with no verifiable checkpoint at all: pristine reboot.
    pub pristine_reboots: u64,
    /// In-flight work demoted by a lossy rung and re-admitted
    /// (at-least-once).
    pub demoted_readmitted: u64,
    /// In-flight work demoted by a lossy rung and terminally failed
    /// (at-most-once).
    pub demoted_failed: u64,
}

impl DurabilityStats {
    /// Folds another worker's counters into this (cluster-level) copy.
    pub fn merge(&mut self, other: &DurabilityStats) {
        self.frames_verified += other.frames_verified;
        self.frames_quarantined += other.frames_quarantined;
        self.truncated_bytes += other.truncated_bytes;
        self.duplicates_dropped += other.duplicates_dropped;
        self.seal_failures += other.seal_failures;
        self.exact_replays += other.exact_replays;
        self.torn_tails += other.torn_tails;
        self.quarantines += other.quarantines;
        self.checkpoint_fallbacks += other.checkpoint_fallbacks;
        self.pristine_reboots += other.pristine_reboots;
        self.demoted_readmitted += other.demoted_readmitted;
        self.demoted_failed += other.demoted_failed;
    }
}

/// Cluster-layer failover counters: what the dispatcher's health and
/// routing machinery did to (or for) this worker, or — in the cluster-wide
/// copy — across the whole fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FailoverStats {
    /// Heartbeats the worker emitted while alive.
    pub heartbeats_sent: u64,
    /// Heartbeats dropped by the network (loss rate or partition) —
    /// *not* absent because the worker was dead.
    pub heartbeats_lost: u64,
    /// Suspect transitions (phi crossed the suspect threshold).
    pub suspects: u64,
    /// Suspicions retracted by a later heartbeat — the worker was alive
    /// all along (false positives the evict threshold never saw).
    pub false_suspects: u64,
    /// Evictions (phi crossed the confirm/evict threshold).
    pub evictions: u64,
    /// Evicted workers readmitted after consecutive delivered heartbeats.
    pub readmissions: u64,
    /// Requests failed over from a dead worker to a healthy peer.
    pub failovers: u64,
    /// Requests routed to a worker that was already dead but not yet
    /// evicted (the detection window's misrouting cost).
    pub misrouted: u64,
    /// Duplicate terminal notices for an already-settled request (a
    /// hedged or failed-over copy that could not be cancelled in time).
    pub duplicated: u64,
    /// Hedge copies dispatched for slow-tail requests.
    pub hedges: u64,
    /// Requests whose hedge copy answered first.
    pub hedge_wins: u64,
    /// Redundant copies cancelled before dispatch (first-response-wins).
    pub cancelled: u64,
    /// Queued requests re-routed off a draining worker.
    pub rebalanced: u64,
    /// Graceful drains performed.
    pub drains: u64,
    /// Requests with no terminal outcome at the end of the run. The
    /// cluster conservation invariant is
    /// `offered == completed + failed + shed`, so this must be 0 — it is
    /// reported rather than silently asserted away.
    pub lost: u64,
    /// Worst-case measured detection latency (kill → eviction), ns.
    pub detection_ns: f64,
    /// The configured confirm bound at that eviction: one heartbeat
    /// interval plus the silence needed to reach the evict threshold, ns.
    /// Detection latency below this bound means the detector fired no
    /// later than its configuration promises.
    pub confirm_bound_ns: f64,
}

impl FailoverStats {
    /// Folds another worker's counters into this (cluster-level) copy.
    pub fn merge(&mut self, other: &FailoverStats) {
        self.heartbeats_sent += other.heartbeats_sent;
        self.heartbeats_lost += other.heartbeats_lost;
        self.suspects += other.suspects;
        self.false_suspects += other.false_suspects;
        self.evictions += other.evictions;
        self.readmissions += other.readmissions;
        self.failovers += other.failovers;
        self.misrouted += other.misrouted;
        self.duplicated += other.duplicated;
        self.hedges += other.hedges;
        self.hedge_wins += other.hedge_wins;
        self.cancelled += other.cancelled;
        self.rebalanced += other.rebalanced;
        self.drains += other.drains;
        self.lost += other.lost;
        self.detection_ns = self.detection_ns.max(other.detection_ns);
        self.confirm_bound_ns = self.confirm_bound_ns.max(other.confirm_bound_ns);
    }
}

/// Autoscaler and brownout counters: what the control plane spent and what
/// it bought. Per-worker copies carry only the brownout-residency fields;
/// the cluster-level copy in [`ClusterReport`](crate::ClusterReport) adds
/// the scale-event and cost-vs-SLO accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AutoscaleStats {
    /// Scale-up decisions applied.
    pub scale_ups: u64,
    /// Scale-down decisions applied.
    pub scale_downs: u64,
    /// Workers booted by scale-up.
    pub workers_added: u64,
    /// Workers retired by scale-down.
    pub workers_removed: u64,
    /// Direction reversals (an up following a down, or vice versa). The
    /// flap bound: hysteresis + cooldown should keep this ≤ 1 per
    /// cooldown window.
    pub reversals: u64,
    /// Largest concurrently-active fleet observed.
    pub peak_workers: u64,
    /// Σ active worker wall-clock (spawn → retirement or end of run),
    /// seconds of simulated time. The cost axis of cost-vs-SLO.
    pub worker_seconds: f64,
    /// Brownout level changes applied (entries, deepenings, and exits).
    pub brownout_transitions: u64,
    /// Simulated time spent in degraded brownout, ns.
    pub degraded_ns: f64,
    /// Simulated time spent in shed-heavy brownout, ns.
    pub shed_heavy_ns: f64,
    /// Evaluation windows observed.
    pub windows: u64,
    /// Windows meeting the SLO (no sheds, and windowed p99 within target
    /// when both are known).
    pub slo_ok_windows: u64,
}

impl AutoscaleStats {
    /// Fraction of evaluation windows that met the SLO (1.0 when no
    /// windows were observed — an empty run violated nothing).
    pub fn slo_attainment(&self) -> f64 {
        if self.windows == 0 {
            return 1.0;
        }
        self.slo_ok_windows as f64 / self.windows as f64
    }

    /// Total simulated time under any brownout level, ns.
    pub fn brownout_ns(&self) -> f64 {
        self.degraded_ns + self.shed_heavy_ns
    }
}

/// PD snapshot-sanitization counters (Groundhog-style restore-to-pristine
/// instead of teardown-and-rebuild).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SanitizeStats {
    /// Invocations that started inside a sanitized, pooled PD (fast path).
    pub pooled_setups: u64,
    /// Invocations that paid the full PD construction cost.
    pub full_setups: u64,
    /// Sanitization passes run at invocation teardown.
    pub sanitizations: u64,
    /// Divergences repaired across all sanitization passes (stray VMAs
    /// unmapped, drifted permissions reset).
    pub repairs: u64,
    /// Σ simulated time spent setting up pooled PDs, ns.
    pub pooled_setup_ns: f64,
    /// Σ simulated time spent on full PD setups, ns.
    pub full_setup_ns: f64,
}

impl SanitizeStats {
    /// Mean fast-path setup latency, ns.
    pub fn mean_pooled_ns(&self) -> f64 {
        if self.pooled_setups == 0 {
            return 0.0;
        }
        self.pooled_setup_ns / self.pooled_setups as f64
    }

    /// Mean full-construction setup latency, ns.
    pub fn mean_full_ns(&self) -> f64 {
        if self.full_setups == 0 {
            return 0.0;
        }
        self.full_setup_ns / self.full_setups as f64
    }

    /// The latency delta sanitization buys per invocation: mean full setup
    /// minus mean pooled setup, ns (positive when pooling is faster).
    pub fn setup_delta_ns(&self) -> f64 {
        if self.pooled_setups == 0 || self.full_setups == 0 {
            return 0.0;
        }
        self.mean_full_ns() - self.mean_pooled_ns()
    }
}

/// Accumulated per-function service statistics (Figure 11's bars).
#[derive(Debug, Clone, Default)]
pub struct FunctionBreakdown {
    /// Completed invocations.
    pub count: u64,
    /// Σ business-logic time.
    pub exec: SimDuration,
    /// Σ memory-isolation time.
    pub isolation: SimDuration,
    /// Σ dispatch time.
    pub dispatch: SimDuration,
    /// Σ end-to-end service time (dispatch + queueing + execution +
    /// waiting on children).
    pub service: SimDuration,
}

impl FunctionBreakdown {
    /// Mean service time in ns.
    pub fn mean_service_ns(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.service.as_ns_f64() / self.count as f64
    }

    /// Mean (exec, isolation, dispatch) in ns.
    pub fn mean_parts_ns(&self) -> (f64, f64, f64) {
        if self.count == 0 {
            return (0.0, 0.0, 0.0);
        }
        let n = self.count as f64;
        (
            self.exec.as_ns_f64() / n,
            self.isolation.as_ns_f64() / n,
            self.dispatch.as_ns_f64() / n,
        )
    }

    /// Overhead fraction of service time: (isolation + dispatch) / service.
    pub fn overhead_fraction(&self) -> f64 {
        let s = self.service.as_ns_f64();
        if s == 0.0 {
            return 0.0;
        }
        (self.isolation.as_ns_f64() + self.dispatch.as_ns_f64()) / s
    }
}

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// External requests injected.
    pub offered: u64,
    /// External requests completed.
    pub completed: u64,
    /// End-to-end request latency (orchestrator receipt → completion
    /// notice, §5).
    pub latency: LatencyHistogram,
    /// Per-invocation function service time (Figure 10's CDF).
    pub service: LatencyHistogram,
    /// Per-function breakdowns (Figure 11), in ascending function order so
    /// sums over them are the same in every process.
    pub functions: BTreeMap<FunctionId, FunctionBreakdown>,
    /// Orchestrator dispatch latencies in ns (Figure 14).
    pub dispatch_ns: OnlineStats,
    /// VLB shootdown completion latencies in ns (Figure 14).
    pub shootdown_ns: OnlineStats,
    /// Simulated completion time of the last event.
    pub finished_at: SimTime,
    /// Total invocations executed (external + nested).
    pub invocations: u64,
    /// Internal requests spilled to peer worker servers (§3.3).
    pub spilled: u64,
    /// Fault, retry, timeout, and shed counters. The accounting invariant
    /// is `offered == completed + faults.failed + faults.sheds`: every
    /// request ends Completed, Faulted, or Shed — none are lost.
    pub faults: FaultStats,
    /// Crash-injection and recovery counters.
    pub crash: CrashStats,
    /// Durable-storage integrity counters (frame scans, checkpoint seals,
    /// recovery-ladder rungs).
    pub durability: DurabilityStats,
    /// PD snapshot-sanitization counters.
    pub sanitize: SanitizeStats,
    /// Cluster-failover counters; all zero in single-worker runs (filled
    /// in by the cluster dispatcher at the end of a cluster run).
    pub failover: FailoverStats,
    /// Autoscaler/brownout counters. Per-worker reports carry only the
    /// brownout-residency fields; the cluster report adds scale events
    /// and worker-seconds.
    pub autoscale: AutoscaleStats,
    /// The memory ledger, conserved as
    /// `mapped == resident + reclaimed` — the byte-side twin of the
    /// request ledger above.
    pub memory: MemoryLedger,
}

impl RunReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        RunReport {
            offered: 0,
            completed: 0,
            latency: LatencyHistogram::new(),
            service: LatencyHistogram::new(),
            functions: BTreeMap::new(),
            dispatch_ns: OnlineStats::new(),
            shootdown_ns: OnlineStats::new(),
            finished_at: SimTime::ZERO,
            invocations: 0,
            spilled: 0,
            faults: FaultStats::default(),
            crash: CrashStats::default(),
            durability: DurabilityStats::default(),
            sanitize: SanitizeStats::default(),
            failover: FailoverStats::default(),
            autoscale: AutoscaleStats::default(),
            memory: MemoryLedger::default(),
        }
    }

    /// True when the request ledger balances: `offered == settled()`.
    /// Every request must end Completed, Faulted, or Shed — a `false`
    /// here means a lifecycle transition lost a request.
    pub fn balanced(&self) -> bool {
        self.offered == self.settled()
    }

    /// Requests with an outcome: `completed + faults.failed + faults.sheds`.
    pub fn settled(&self) -> u64 {
        self.completed + self.faults.failed + self.faults.sheds
    }

    /// Goodput: the fraction of offered requests that completed
    /// successfully (1.0 on a clean run, lower under injection).
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.completed as f64 / self.offered as f64
    }

    /// Records a completed invocation's service time and breakdown.
    pub fn record_invocation(
        &mut self,
        func: FunctionId,
        service: SimDuration,
        breakdown: Breakdown,
    ) {
        self.invocations += 1;
        self.service.record(service);
        let f = self.functions.entry(func).or_default();
        f.count += 1;
        f.exec += breakdown.exec;
        f.isolation += breakdown.isolation;
        f.dispatch += breakdown.dispatch;
        f.service += service;
    }

    /// Records a completed external request's end-to-end latency.
    pub fn record_request(&mut self, latency: SimDuration) {
        self.completed += 1;
        self.latency.record(latency);
    }

    /// p99 request latency, if any requests completed.
    pub fn p99(&self) -> Option<SimDuration> {
        self.latency.p99()
    }

    /// Mean isolation+dispatch overhead per completed request, ns.
    pub fn overhead_per_request_ns(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        let total: f64 = self
            .functions
            .values()
            .map(|f| f.isolation.as_ns_f64() + f.dispatch.as_ns_f64())
            .sum();
        total / self.completed as f64
    }
}

impl Default for RunReport {
    fn default() -> Self {
        RunReport::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_function() {
        let mut r = RunReport::new();
        let f = FunctionId(1);
        let b = Breakdown {
            exec: SimDuration::from_ns(1000),
            isolation: SimDuration::from_ns(100),
            dispatch: SimDuration::from_ns(50),
        };
        r.record_invocation(f, SimDuration::from_ns(1200), b);
        r.record_invocation(f, SimDuration::from_ns(1400), b);
        let fb = &r.functions[&f];
        assert_eq!(fb.count, 2);
        assert_eq!(fb.mean_service_ns(), 1300.0);
        let (e, i, d) = fb.mean_parts_ns();
        assert_eq!((e, i, d), (1000.0, 100.0, 50.0));
        assert!((fb.overhead_fraction() - 150.0 / 1300.0).abs() < 1e-12);
        assert_eq!(r.invocations, 2);
    }

    #[test]
    fn functions_ascend_so_overhead_sums_replay() {
        // Overheads of very different magnitudes, so an f64 sum over them
        // depends on the order the functions are visited in.
        let records: Vec<(FunctionId, Breakdown)> = (0..32u32)
            .map(|i| {
                let ps = 1_000_003u64.pow(1 + i % 3) / 7 + u64::from(i) * 333;
                let b = Breakdown {
                    exec: SimDuration::ZERO,
                    isolation: SimDuration::from_ps(ps),
                    dispatch: SimDuration::from_ps(ps / 3 + 1),
                };
                (FunctionId(i), b)
            })
            .collect();
        let feed = |seed: u64| {
            let mut order = records.clone();
            let mut rng = jord_sim::Rng::new(seed);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let mut r = RunReport::new();
            for (f, b) in order {
                r.record_invocation(f, b.isolation + b.dispatch, b);
            }
            r.record_request(SimDuration::from_us(1));
            r
        };
        let (a, b) = (feed(1), feed(2));
        let keys: Vec<FunctionId> = a.functions.keys().copied().collect();
        assert_eq!(keys, (0..32).map(FunctionId).collect::<Vec<_>>());
        assert_eq!(
            a.overhead_per_request_ns().to_bits(),
            b.overhead_per_request_ns().to_bits()
        );
    }

    #[test]
    fn request_latency_feeds_p99() {
        let mut r = RunReport::new();
        for ns in 1..=100 {
            r.record_request(SimDuration::from_us(ns));
        }
        assert_eq!(r.completed, 100);
        let p99 = r.p99().unwrap().as_us_f64();
        assert!((98.0..=101.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn empty_report_is_sane() {
        let r = RunReport::new();
        assert_eq!(r.p99(), None);
        assert_eq!(r.overhead_per_request_ns(), 0.0);
        assert_eq!(r.goodput(), 1.0);
        assert_eq!(r.faults, FaultStats::default());
        assert_eq!(FunctionBreakdown::default().mean_service_ns(), 0.0);
        assert_eq!(FunctionBreakdown::default().overhead_fraction(), 0.0);
    }

    #[test]
    fn fault_stats_count_by_kind() {
        let mut s = FaultStats::default();
        s.count(FaultKind::Unmapped);
        s.count(FaultKind::Unmapped);
        s.count(FaultKind::CsrAccess);
        assert_eq!(s.of_kind(FaultKind::Unmapped), 2);
        assert_eq!(s.of_kind(FaultKind::Permission), 0);
        assert_eq!(s.of_kind(FaultKind::CsrAccess), 1);
        assert_eq!(s.total_faults(), 3);
    }

    #[test]
    fn sanitize_stats_expose_setup_delta() {
        let mut s = SanitizeStats::default();
        assert_eq!(s.setup_delta_ns(), 0.0, "no data, no delta");
        s.full_setups = 2;
        s.full_setup_ns = 8_000.0;
        assert_eq!(s.setup_delta_ns(), 0.0, "needs both paths sampled");
        s.pooled_setups = 4;
        s.pooled_setup_ns = 4_000.0;
        assert_eq!(s.mean_full_ns(), 4_000.0);
        assert_eq!(s.mean_pooled_ns(), 1_000.0);
        assert_eq!(s.setup_delta_ns(), 3_000.0);
    }

    #[test]
    fn goodput_reflects_losses() {
        let mut r = RunReport::new();
        r.offered = 10;
        r.completed = 7;
        r.faults.failed = 2;
        r.faults.sheds = 1;
        assert!((r.goodput() - 0.7).abs() < 1e-12);
        assert!(r.balanced());
    }
}
