//! Failover campaigns: seeded cluster-level kill / partition / hedging
//! sweeps over a workload.
//!
//! The cluster counterpart of the [`crash`](crate::crash) campaigns: where
//! a crash campaign kills a component *inside* one worker and checks the
//! write-ahead journal, a failover campaign runs N whole
//! [`jord_core::WorkerServer`]s behind a [`ClusterDispatcher`] and scripts
//! fleet-level incidents — a worker kill detected by the phi-accrual
//! failure detector, a heartbeat blackout (the detector's false-positive
//! path), and hedged dispatch of slow-tail requests. Every point passes
//! [`ClusterDispatcher::audit`] — the cluster ledger with zero lost, and
//! every worker's own audit — and the kill point under at-least-once
//! semantics additionally asserts:
//!
//! 1. **Exact parity**: the kill run completes exactly as many requests
//!    as the kill-free baseline on the same seed — nothing stranded on
//!    the dead worker is lost.
//! 2. **Bounded detection**: the measured kill → eviction latency stays
//!    below the configured confirm bound (one heartbeat interval plus the
//!    silence needed to reach the evict φ threshold).
//!
//! Per-worker seeds come from [`jord_sim::Rng::derive_seed`], so every
//! point is exactly reproducible and adding a worker never perturbs
//! another worker's schedule.

use jord_core::{
    ClusterConfig, ClusterDispatcher, CrashSemantics, EngineConfig, HedgeConfig, PartitionPlan,
    RuntimeConfig, WorkerKill,
};

use crate::apps::Workload;
use crate::loadgen::LoadGen;

/// One measured run of a failover campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverPoint {
    /// What the point scripted ("baseline", "kill", "partition", "hedged").
    pub incident: &'static str,
    /// In-flight semantics label ("at-least-once" / "at-most-once").
    pub semantics: &'static str,
    /// Requests pushed at the dispatcher.
    pub offered: u64,
    /// Requests completed (exactly once each).
    pub completed: u64,
    /// Requests terminally failed.
    pub failed: u64,
    /// Requests shed.
    pub shed: u64,
    /// Workers evicted by the failure detector.
    pub evictions: u64,
    /// Evicted workers readmitted after probation.
    pub readmissions: u64,
    /// Stranded requests failed over to another worker.
    pub failovers: u64,
    /// Hedge copies dispatched.
    pub hedges: u64,
    /// Requests whose hedge copy answered first.
    pub hedge_wins: u64,
    /// Worst measured kill → eviction latency, µs (0 when nothing died).
    pub detection_us: f64,
    /// The configured detection bound at that eviction, µs.
    pub confirm_bound_us: f64,
    /// p99 end-to-end latency, µs.
    pub p99_us: f64,
    /// Worst end-to-end latency, µs. A kill strands well under 1 % of
    /// requests, so its cost hides below p99 — the max is where the
    /// detection window and the hedge's rescue of it actually show.
    pub max_us: f64,
    /// completed / offered.
    pub goodput: f64,
}

/// A failover-campaign recipe: one workload on a fixed cluster of four
/// Jord workers ([`RuntimeConfig::jord_32`]), a kill-free baseline, a
/// worker kill under both crash semantics, a heartbeat blackout, and a
/// hedged re-run of the kill (the with/without tail-latency pair).
#[derive(Debug, Clone)]
pub struct FailoverCampaign {
    /// Offered load at the dispatcher, requests/second.
    pub rate_rps: f64,
    /// Requests per point (no warm-up: parity is exact-count).
    pub requests: usize,
    /// Cluster seed (workers derive per-worker streams from it).
    pub seed: u64,
    /// Cluster engine every point runs on: `None` for the sequential
    /// engine, `Some` for the conservative parallel engine (bit-identical
    /// results by contract — campaigns differential-test that).
    pub engine: Option<EngineConfig>,
}

impl FailoverCampaign {
    /// Cluster size.
    pub const WORKERS: usize = 4;
    /// Which worker the kill and the blackout target.
    pub const VICTIM: usize = 1;
    /// Hedge trigger for the hedged point: a request unanswered this long
    /// gets a second copy elsewhere, µs. Well under the ~34.5 µs evict
    /// horizon: a hedge must rescue a stranded request before the
    /// detector would.
    pub const HEDGE_AFTER_US: f64 = 10.0;

    /// A default campaign: the kill at the middle of the arrival span, the
    /// blackout straddling the first half, both long enough for the
    /// default detector (5 µs heartbeats, evict at φ = 3 ≈ 34.5 µs of
    /// silence) to convict.
    pub fn new(rate_rps: f64, requests: usize) -> Self {
        FailoverCampaign {
            rate_rps,
            requests,
            seed: 42,
            engine: None,
        }
    }

    /// The simulated arrival span, µs.
    fn span_us(&self) -> f64 {
        self.requests as f64 / self.rate_rps * 1e6
    }

    /// When the scripted kill fires, µs from run start: the middle of the
    /// arrival span.
    pub fn kill_at_us(&self) -> f64 {
        self.span_us() / 2.0
    }

    /// Heartbeat blackout window for the partition point, µs: 60 µs from
    /// a quarter of the way into the arrival span.
    pub fn partition_us(&self) -> (f64, f64) {
        let span_us = self.span_us();
        (span_us / 4.0, span_us / 4.0 + 60.0)
    }

    /// Runs every point on the conservative parallel engine.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Overrides the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the campaign on `workload`: a kill-free baseline, the worker
    /// kill under both semantics, the heartbeat blackout, and the hedged
    /// kill, in that order.
    ///
    /// # Panics
    ///
    /// Panics if any point fails [`ClusterDispatcher::audit`] or its
    /// worker-completion sum, if at-least-once failover misses parity
    /// with the baseline, if detection latency exceeds the
    /// configured confirm bound, or if the blackout point fails requests
    /// (a partitioned-but-alive worker must be readmitted, not bled).
    pub fn run(&self, workload: &Workload) -> FailoverReport {
        let baseline = self.run_point(workload, "baseline", |_| {});
        assert_eq!(
            baseline.completed, baseline.offered,
            "a quiet cluster must complete everything"
        );

        let mut points = vec![baseline.clone()];
        for semantics in [CrashSemantics::AtLeastOnce, CrashSemantics::AtMostOnce] {
            let point = self.run_point(workload, "kill", |c| {
                c.semantics = semantics;
                c.kill = Some(WorkerKill {
                    worker: Self::VICTIM,
                    at_us: self.kill_at_us(),
                });
            });
            assert!(point.evictions >= 1, "the detector must convict the kill");
            assert!(
                point.detection_us > 0.0 && point.detection_us <= point.confirm_bound_us,
                "kill/{}: detection took {} µs, bound is {} µs",
                point.semantics,
                point.detection_us,
                point.confirm_bound_us
            );
            match semantics {
                CrashSemantics::AtLeastOnce => {
                    assert_eq!(
                        point.completed, baseline.completed,
                        "at-least-once failover must complete exactly what the \
                         kill-free run completed"
                    );
                    assert!(point.failovers > 0, "stranded work must move workers");
                    assert_eq!(point.failed, 0);
                }
                CrashSemantics::AtMostOnce => {
                    assert!(
                        point.failed > 0,
                        "at-most-once must fail what the kill stranded"
                    );
                    assert_eq!(point.failovers, 0);
                }
            }
            points.push(point);
        }

        let (from_us, until_us) = self.partition_us();
        let partition = self.run_point(workload, "partition", |c| {
            c.partition = Some(PartitionPlan {
                worker: Self::VICTIM,
                from_us,
                until_us,
            });
        });
        assert!(
            partition.evictions >= 1 && partition.readmissions >= 1,
            "the blackout must evict and then readmit the cut-off worker"
        );
        assert_eq!(
            partition.completed, partition.offered,
            "a partitioned-but-alive worker must not cost any requests"
        );
        assert_eq!(partition.failovers, 0, "nothing was actually stranded");
        points.push(partition);

        // The same kill, with hedging on: requests routed to the dead
        // worker during the detection window sit unanswered past the
        // hedge trigger and get a second copy elsewhere — hedging covers
        // the detector's blind spot, and the point pairs with the plain
        // kill for a with/without-hedging tail comparison.
        let hedged = self.run_point(workload, "kill+hedge", |c| {
            c.kill = Some(WorkerKill {
                worker: Self::VICTIM,
                at_us: self.kill_at_us(),
            });
            c.hedge = Some(HedgeConfig {
                after_us: Self::HEDGE_AFTER_US,
            });
        });
        assert_eq!(
            hedged.completed, baseline.completed,
            "hedged at-least-once failover must still reach parity"
        );
        assert!(
            hedged.hedges > 0,
            "requests stranded in the detection window must be hedged"
        );
        points.push(hedged);

        FailoverReport { points }
    }

    /// One seeded cluster run with `mutate` applied to the base config.
    pub fn run_point(
        &self,
        workload: &Workload,
        incident: &'static str,
        mutate: impl FnOnce(&mut ClusterConfig),
    ) -> FailoverPoint {
        let template = RuntimeConfig::jord_32().with_seed(self.seed);
        let mut cfg = ClusterConfig::new(Self::WORKERS, self.seed, template);
        cfg.engine = self.engine;
        mutate(&mut cfg);
        let semantics = cfg.semantics.label();
        let mut cluster =
            ClusterDispatcher::new(cfg, workload.registry.clone()).expect("valid cluster config");
        let mut gen = LoadGen::new(workload, self.seed).expect("workload mix is sampleable");
        for (t, f, b) in gen.arrivals(self.rate_rps, self.requests) {
            cluster.push_request(t, f, b);
        }
        let rep = cluster.run();
        cluster
            .audit(&rep)
            .unwrap_or_else(|e| panic!("{incident}/{semantics}: {e}"));
        // Not a fleet invariant, so not in the audit: a killed worker whose
        // journal takes the pristine-reboot rung restarts with empty books.
        // This campaign's storage is byte-perfect, so the sum reconciles.
        let worker_total: u64 = rep.workers.iter().map(|w| w.completed).sum();
        assert_eq!(
            worker_total,
            rep.completed + rep.failover.duplicated,
            "{incident}: worker completions must be cluster completions \
             plus cancelled-too-late hedge/failover duplicates"
        );

        FailoverPoint {
            incident,
            semantics,
            offered: rep.offered,
            completed: rep.completed,
            failed: rep.failed,
            shed: rep.shed,
            evictions: rep.failover.evictions,
            readmissions: rep.failover.readmissions,
            failovers: rep.failover.failovers,
            hedges: rep.failover.hedges,
            hedge_wins: rep.failover.hedge_wins,
            detection_us: rep.failover.detection_ns / 1_000.0,
            confirm_bound_us: rep.failover.confirm_bound_ns / 1_000.0,
            p99_us: rep.p99().map_or(0.0, |d| d.as_ns_f64() / 1_000.0),
            max_us: rep.latency.max().map_or(0.0, |d| d.as_ns_f64() / 1_000.0),
            goodput: rep.goodput(),
        }
    }
}

/// The outcome of a failover campaign, points in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverReport {
    /// `points[0]` is the kill-free baseline, then kill ×2 semantics,
    /// partition, hedged.
    pub points: Vec<FailoverPoint>,
}

impl FailoverReport {
    /// The kill-free baseline point.
    pub fn baseline(&self) -> &FailoverPoint {
        &self.points[0]
    }

    /// Formats the campaign as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = String::from(
            "incident   semantics       offered  completed  failed  evict  readmit  failover  hedges   detect_us    p99_us    max_us  goodput\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:<10} {:<14} {:>8} {:>10} {:>7} {:>6} {:>8} {:>9} {:>7} {:>11.3} {:>9.3} {:>9.3}   {:.4}\n",
                p.incident,
                p.semantics,
                p.offered,
                p.completed,
                p.failed,
                p.evictions,
                p.readmissions,
                p.failovers,
                p.hedges,
                p.detection_us,
                p.p99_us,
                p.max_us,
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

    fn quick_campaign() -> FailoverCampaign {
        // A burst well beyond four workers' instantaneous capacity keeps
        // queues deep when the kill fires, so failover provably moves
        // stranded work; the 500 µs arrival span comfortably outlasts the
        // blackout window so readmission happens while load remains.
        FailoverCampaign::new(4.0e6, 2_000)
    }

    #[test]
    fn campaign_survives_kill_partition_and_hedging() {
        let w = Workload::build(WorkloadKind::Hotel);
        let rep = quick_campaign().run(&w);
        // baseline + kill x2 semantics + partition + hedged.
        assert_eq!(rep.points.len(), 5);
        assert_eq!(rep.baseline().evictions, 0);
        let hedged = rep.points.last().unwrap();
        assert_eq!(hedged.incident, "kill+hedge");
        assert!(hedged.hedge_wins <= hedged.hedges);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let w = Workload::build(WorkloadKind::Hotel);
        let a = quick_campaign().run(&w);
        let b = quick_campaign().run(&w);
        assert_eq!(a, b, "same seed must reproduce the whole campaign");
        // The exact campaign, pinned: a change that moves any simulated
        // value fails here, not only one that breaks determinism.
        assert_eq!(fnv1a(format!("{a:?}").as_bytes()), 0x8be6a69a2bb56efd);
    }

    #[test]
    fn table_lists_every_point() {
        let w = Workload::build(WorkloadKind::Hotel);
        let rep = quick_campaign().run(&w);
        let table = rep.table();
        assert_eq!(table.lines().count(), 1 + rep.points.len());
        assert!(table.contains("baseline"));
        assert!(table.contains("partition"));
        assert!(table.contains("kill+hedge"));
    }
}
