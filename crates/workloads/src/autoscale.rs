//! Autoscaling campaigns: cost-vs-SLO under non-stationary traffic.
//!
//! Where a [`failover`](crate::failover) campaign holds the fleet fixed
//! and scripts incidents, an autoscale campaign lets the
//! [`jord_core::ClusterAutoscaler`] move the fleet while the offered load
//! itself moves — a flash crowd stepping the rate ×K, a diurnal sinusoid,
//! Markov-modulated bursts ([`ArrivalProcess`]). Each scenario is run
//! twice in spirit: once with the fleet pinned at its initial size (what
//! the crowd costs a fleet that cannot grow) and once with the autoscaler
//! and the brownout ladder engaged (what surviving it costs in
//! worker-seconds). The campaign's assertions are the overload-survival
//! contract:
//!
//! 1. **A clean audit, always**: every run passes
//!    [`ClusterDispatcher::audit`] — the ledger balances with zero lost
//!    requests and no worker leaks — including the point where a scripted
//!    kill crashes a freshly spawned worker while the post-crowd
//!    scale-down is draining the fleet.
//! 2. **Elasticity pays**: the autoscaled crowd run sheds no more than
//!    the pinned run and completes at least as much.
//! 3. **No flapping**: scale reversals stay within one per cooldown
//!    window across the whole run.
//! 4. **Determinism**: identical seeds reproduce the identical
//!    [`WindowRecord`] sequence, decision by decision, and the identical
//!    fleet trace hash.

use jord_core::{
    AutoscalerConfig, ClusterConfig, ClusterDispatcher, ClusterReport, DrainPlan, EngineConfig,
    RecoveryPolicy, RuntimeConfig, SystemVariant, WindowRecord, WorkerKill,
};
use jord_hw::MachineConfig;

use crate::apps::Workload;
use crate::loadgen::{ArrivalProcess, LoadGen};

/// Initial fleet size of the autoscale and soak campaigns (the pinned size
/// of the autoscale baseline).
pub const INITIAL_WORKERS: usize = 2;
/// Per-worker admission queue bound of the autoscale and soak campaigns
/// (brownout tightens it).
pub(crate) const SHED_BOUND: usize = 64;
/// Peak-to-mean swing of the diurnal sinusoid (0..1) of the autoscale and
/// soak campaigns.
pub(crate) const DIURNAL_AMPLITUDE: f64 = 0.8;

/// The autoscaler of the autoscale and soak campaigns: a fleet of 1 to 6
/// workers aimed at a 60 µs p99, otherwise the default tuning.
pub fn fleet_autoscaler() -> AutoscalerConfig {
    AutoscalerConfig {
        min_workers: 1,
        max_workers: 6,
        target_p99_us: Some(60.0),
        ..AutoscalerConfig::default()
    }
}

/// One measured run of an autoscale campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalePoint {
    /// What the point scripted ("pinned", "scale", "scale+kill", …).
    pub scenario: &'static str,
    /// The arrival process label ("flash-crowd", "diurnal", …).
    pub process: &'static str,
    /// Requests pushed at the dispatcher.
    pub offered: u64,
    /// Requests completed (exactly once each).
    pub completed: u64,
    /// Requests terminally failed.
    pub failed: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Scale-up decisions applied.
    pub scale_ups: u64,
    /// Scale-down decisions applied.
    pub scale_downs: u64,
    /// Direction reversals (up→down or down→up).
    pub reversals: u64,
    /// Largest simultaneous fleet size reached.
    pub peak_workers: u64,
    /// Integrated fleet cost: worker-seconds of simulated uptime.
    pub worker_seconds: f64,
    /// Brownout level changes across the fleet.
    pub brownout_transitions: u64,
    /// Total simulated time spent browned out (µs).
    pub brownout_us: f64,
    /// Fraction of evaluation windows that met the SLO.
    pub slo_attainment: f64,
    /// Autoscaler evaluation windows recorded.
    pub windows: usize,
    /// Workers evicted by the failure detector.
    pub evictions: u64,
    /// p99 end-to-end latency, µs.
    pub p99_us: f64,
    /// completed / offered.
    pub goodput: f64,
    /// FNV-1a fold of every worker's lifecycle-trace hash.
    pub trace_hash: u64,
}

/// An autoscale-campaign recipe: one workload, a pinned-fleet flash-crowd
/// baseline, the same crowd with the autoscaler engaged, the crowd with a
/// kill racing the post-crowd scale-down, and autoscaled diurnal and
/// burst traffic.
#[derive(Debug, Clone)]
pub struct AutoscaleCampaign {
    /// Jord variant every worker runs.
    pub variant: SystemVariant,
    /// Hardware configuration of every worker.
    pub machine: MachineConfig,
    /// Initial fleet size (the pinned size for the baseline).
    pub workers: usize,
    /// Base offered load, requests/second; the arrival processes move
    /// around it.
    pub rate_rps: f64,
    /// Requests per point.
    pub requests: usize,
    /// Cluster seed (workers derive per-worker streams from it).
    pub seed: u64,
    /// Autoscaler tuning shared by the scaled points.
    pub autoscale: AutoscalerConfig,
    /// Per-worker admission queue bound (brownout tightens it).
    pub shed_bound: usize,
    /// The flash-crowd shape for the crowd points.
    pub crowd: ArrivalProcess,
    /// Cluster engine every point runs on: `None` for the sequential
    /// engine, `Some` for the conservative parallel engine. The results
    /// are bit-identical either way — this knob exists so campaigns can
    /// differential-test that claim and so large sweeps can buy
    /// wall-clock speed.
    pub engine: Option<EngineConfig>,
}

impl AutoscaleCampaign {
    /// Which worker the race point drains and then kills. Scale-down
    /// retires the highest-index idle slot first, so worker 0 is the one
    /// guaranteed to still be routing when the race fires.
    pub const VICTIM: usize = 0;

    /// A default campaign: two initial Jord workers on the Table 2
    /// machine, a ×4 flash crowd over the middle half of the arrival
    /// span, and a drain+kill race landing just after the crowd hits
    /// (deep queues guarantee the detector has time to convict).
    ///
    /// The crowd compresses arrival *time*: `n` requests at ×4 the base
    /// rate land in a quarter of the wall-clock, so the crowd phase of
    /// the trace runs from `span/4` to roughly `span/4 + (3/8)·span`
    /// rather than to `3·span/4`. The race is aimed shortly after the
    /// step.
    pub fn new(rate_rps: f64, requests: usize) -> Self {
        let span_us = requests as f64 / rate_rps * 1e6;
        AutoscaleCampaign {
            variant: SystemVariant::Jord,
            machine: MachineConfig::isca25(),
            workers: INITIAL_WORKERS,
            rate_rps,
            requests,
            seed: 42,
            autoscale: fleet_autoscaler(),
            shed_bound: SHED_BOUND,
            crowd: ArrivalProcess::FlashCrowd {
                at_us: span_us / 4.0,
                factor: 4.0,
                duration_us: span_us / 2.0,
            },
            engine: None,
        }
    }

    /// The simulated arrival span, µs.
    fn span_us(&self) -> f64 {
        self.requests as f64 / self.rate_rps * 1e6
    }

    /// The diurnal shape: two periods across the arrival span.
    pub fn diurnal(&self) -> ArrivalProcess {
        ArrivalProcess::Diurnal {
            period_us: self.span_us() / 2.0,
            amplitude: DIURNAL_AMPLITUDE,
        }
    }

    /// The Markov-burst shape: ×4 bursts, a tenth of the span normal and
    /// a twentieth bursting on average.
    pub fn burst(&self) -> ArrivalProcess {
        let span_us = self.span_us();
        ArrivalProcess::MarkovBurst {
            burst_factor: 4.0,
            mean_normal_us: span_us / 10.0,
            mean_burst_us: span_us / 20.0,
        }
    }

    /// When the scripted drain of the race point starts, µs: inside the
    /// crowd, when queues are deep and the autoscaler is actively scaling.
    pub fn drain_at_us(&self) -> f64 {
        self.span_us() * 0.29
    }

    /// When the kill lands on the draining worker, µs: shortly after the
    /// drain starts (heartbeat loss mid-drain).
    pub fn kill_at_us(&self) -> f64 {
        self.span_us() * 0.2905
    }

    /// Overrides the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs every point on the conservative parallel engine.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Runs the campaign on `workload`.
    ///
    /// # Panics
    ///
    /// Panics if any point fails [`ClusterDispatcher::audit`], if the
    /// autoscaled crowd run sheds more or completes less than the pinned
    /// run, if no scale-up ever fires under the crowd, if reversals
    /// exceed one per cooldown window, or if the kill point fails to
    /// evict the crashed worker.
    pub fn run(&self, workload: &Workload) -> AutoscaleReport {
        let pinned = self.run_point(workload, "pinned", &self.crowd, false, |_, _| {});
        let scaled = self.run_point(workload, "scale", &self.crowd, true, |_, _| {});
        assert!(
            scaled.scale_ups >= 1,
            "a x4 flash crowd must provoke at least one scale-up"
        );
        assert!(
            scaled.peak_workers > self.workers as u64,
            "the fleet must actually grow past its initial size"
        );
        assert!(
            scaled.shed <= pinned.shed,
            "elastic fleet must shed no more than the pinned one \
             ({} vs {})",
            scaled.shed,
            pinned.shed
        );
        assert!(
            scaled.completed >= pinned.completed,
            "elastic fleet must complete at least as much as the pinned one"
        );
        let reversal_bound = (self.span_us() / self.autoscale.cooldown_us).ceil() as u64;
        assert!(
            scaled.reversals <= reversal_bound,
            "reversals ({}) exceed one per cooldown window ({})",
            scaled.reversals,
            reversal_bound
        );

        // The race: a worker starts draining (the same drain-aware
        // rebalancing a scale-down retire uses) mid-crowd, then loses its
        // heartbeat mid-drain — while the autoscaler is concurrently
        // growing and shrinking the rest of the fleet.
        let killed = self.run_point(workload, "scale+kill", &self.crowd, true, |cfg, c| {
            cfg.drains = vec![DrainPlan {
                worker: Self::VICTIM,
                at_us: c.drain_at_us(),
                resume_at_us: None,
            }];
            cfg.kill = Some(WorkerKill {
                worker: Self::VICTIM,
                at_us: c.kill_at_us(),
            });
        });
        assert!(
            killed.evictions >= 1,
            "the detector must convict the worker killed mid-drain"
        );
        assert!(
            killed.scale_ups >= 1,
            "scale events must actually race the crash"
        );

        let diurnal = self.run_point(workload, "scale", &self.diurnal(), true, |_, _| {});
        let burst = self.run_point(workload, "scale", &self.burst(), true, |_, _| {});

        AutoscaleReport {
            points: vec![pinned, scaled, killed, diurnal, burst],
        }
    }

    /// One seeded cluster run of `process`-shaped traffic, with or
    /// without the autoscaler, with `mutate` applied to the base config
    /// (the campaign itself is passed back so closures can read its
    /// scripted instants).
    pub fn run_point(
        &self,
        workload: &Workload,
        scenario: &'static str,
        process: &ArrivalProcess,
        autoscaled: bool,
        mutate: impl FnOnce(&mut ClusterConfig, &Self),
    ) -> AutoscalePoint {
        let (rep, _) = self.run_cluster(workload, process, autoscaled, mutate);
        Self::point(scenario, process, &rep)
    }

    /// The raw cluster run behind [`AutoscaleCampaign::run_point`],
    /// returning the report and its window sequence (for golden-trace
    /// comparisons).
    ///
    /// # Panics
    ///
    /// Panics if the run fails [`ClusterDispatcher::audit`].
    pub fn run_cluster(
        &self,
        workload: &Workload,
        process: &ArrivalProcess,
        autoscaled: bool,
        mutate: impl FnOnce(&mut ClusterConfig, &Self),
    ) -> (ClusterReport, Vec<WindowRecord>) {
        let template = RuntimeConfig::variant_on(self.variant, self.machine.clone())
            .with_seed(self.seed)
            .with_recovery(RecoveryPolicy {
                shed_bound: Some(self.shed_bound),
                ..RecoveryPolicy::default()
            });
        let mut cfg = ClusterConfig::new(self.workers, self.seed, template);
        cfg.engine = self.engine;
        if autoscaled {
            cfg.autoscale = Some(self.autoscale);
        }
        mutate(&mut cfg, self);
        let mut cluster =
            ClusterDispatcher::new(cfg, workload.registry.clone()).expect("valid cluster config");
        let mut gen = LoadGen::new(workload, self.seed).expect("workload mix is sampleable");
        for (t, f, b) in gen.arrivals_with(process, self.rate_rps, self.requests) {
            cluster.push_request(t, f, b);
        }
        let rep = cluster.run();
        cluster
            .audit(&rep)
            .unwrap_or_else(|e| panic!("autoscale {}: {e}", process.label()));
        let windows = rep.windows.clone();
        (rep, windows)
    }

    fn point(
        scenario: &'static str,
        process: &ArrivalProcess,
        rep: &ClusterReport,
    ) -> AutoscalePoint {
        AutoscalePoint {
            scenario,
            process: process.label(),
            offered: rep.offered,
            completed: rep.completed,
            failed: rep.failed,
            shed: rep.shed,
            scale_ups: rep.autoscale.scale_ups,
            scale_downs: rep.autoscale.scale_downs,
            reversals: rep.autoscale.reversals,
            peak_workers: rep.autoscale.peak_workers,
            worker_seconds: rep.autoscale.worker_seconds,
            brownout_transitions: rep.autoscale.brownout_transitions,
            brownout_us: rep.autoscale.brownout_ns() / 1_000.0,
            slo_attainment: rep.autoscale.slo_attainment(),
            windows: rep.windows.len(),
            evictions: rep.failover.evictions,
            p99_us: rep.p99().map_or(0.0, |d| d.as_ns_f64() / 1_000.0),
            goodput: rep.goodput(),
            trace_hash: rep.trace_hash,
        }
    }
}

/// The outcome of an autoscale campaign, points in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleReport {
    /// `points[0]` is the pinned crowd baseline, then the autoscaled
    /// crowd, the kill race, the diurnal run, and the burst run.
    pub points: Vec<AutoscalePoint>,
}

impl AutoscaleReport {
    /// The pinned-fleet crowd baseline.
    pub fn pinned(&self) -> &AutoscalePoint {
        &self.points[0]
    }

    /// Formats the campaign as an aligned text table (the cost-vs-SLO
    /// comparison: worker-seconds bought vs shed load and attainment).
    pub fn table(&self) -> String {
        let mut out = String::from(
            "scenario    process       offered  completed   shed  ups  downs  rev  peak  \
             worker_s  brown_us  attain    p99_us  goodput\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:<11} {:<12} {:>8} {:>10} {:>6} {:>4} {:>6} {:>4} {:>5} {:>9.3} {:>9.1} \
                 {:>7.3} {:>9.3}   {:.4}\n",
                p.scenario,
                p.process,
                p.offered,
                p.completed,
                p.shed,
                p.scale_ups,
                p.scale_downs,
                p.reversals,
                p.peak_workers,
                p.worker_seconds,
                p.brownout_us,
                p.slo_attainment,
                p.p99_us,
                p.goodput,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::WorkloadKind;
    use jord_core::durability::fnv1a;

    fn quick_campaign() -> AutoscaleCampaign {
        AutoscaleCampaign::new(2.0e6, 4_000)
    }

    #[test]
    fn campaign_survives_crowds_kills_and_bursts() {
        let w = Workload::build(WorkloadKind::Hotel);
        let rep = quick_campaign().run(&w);
        assert_eq!(rep.points.len(), 5);
        // The pinned fleet never scales.
        assert_eq!(rep.pinned().scale_ups, 0);
        assert_eq!(rep.pinned().peak_workers, 2);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let w = Workload::build(WorkloadKind::Hotel);
        let c = quick_campaign();
        let a = c.run_point(&w, "scale", &c.crowd, true, |_, _| {});
        let b = c.run_point(&w, "scale", &c.crowd, true, |_, _| {});
        assert_eq!(a, b, "same seed must reproduce the whole point");
        assert_eq!(a.trace_hash, b.trace_hash);
        // The exact campaign, pinned: a change that moves any simulated
        // value fails here, not only one that breaks determinism.
        assert_eq!(fnv1a(format!("{a:?}").as_bytes()), 0x2d3443fc39f6e660);
    }

    #[test]
    fn window_sequences_are_identical_across_reruns() {
        let w = Workload::build(WorkloadKind::Hotel);
        let c = quick_campaign();
        let (_, wa) = c.run_cluster(&w, &c.crowd, true, |_, _| {});
        let (_, wb) = c.run_cluster(&w, &c.crowd, true, |_, _| {});
        assert!(!wa.is_empty(), "autoscaled runs must record windows");
        assert_eq!(wa, wb, "decision sequences must replay exactly");
    }

    #[test]
    fn table_lists_every_point() {
        let w = Workload::build(WorkloadKind::Hotel);
        let rep = quick_campaign().run(&w);
        let table = rep.table();
        assert_eq!(table.lines().count(), 1 + rep.points.len());
        assert!(table.contains("pinned"));
        assert!(table.contains("scale+kill"));
        assert!(table.contains("markov-burst"));
    }
}
