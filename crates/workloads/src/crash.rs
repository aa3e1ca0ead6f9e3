//! Crash campaigns: seeded crash/recovery sweeps over a workload.
//!
//! The crash-recovery counterpart of the [`chaos`](crate::chaos) fault
//! sweeps: instead of raising a per-invocation fault rate, a campaign
//! kills a whole runtime component — an executor, an orchestrator, or the
//! entire worker — mid-run and checks that the write-ahead journal brings
//! the survivor back honestly. Two invariants are asserted inside the
//! runner at every point:
//!
//! 1. **A clean audit**: the drained worker passes
//!    [`WorkerServer::audit`] — no request lost across the crash
//!    boundary, whatever died, nothing leaked, and the journal replay
//!    agreeing with its live witnesses.
//! 2. **At-least-once parity**: under [`CrashSemantics::AtLeastOnce`] the
//!    crashed run completes exactly as many requests as the crash-free
//!    baseline with the same seed — every interrupted request is
//!    re-admitted and eventually finishes.
//!
//! Each point re-runs the same seeded workload, so a campaign is exactly
//! reproducible; the baseline point runs with the journal on but no crash
//! (ledger-audit mode), so the table also shows what journaling alone
//! costs in record volume.

use jord_core::{CrashConfig, CrashSemantics, RecoveryPolicy, RuntimeConfig, WorkerServer};
use jord_hw::{CrashPlan, CrashScope};

use crate::apps::Workload;
use crate::loadgen::LoadGen;

/// Retry budget of every crash and storage-chaos point: 5, against the
/// default policy's 2, since these campaigns fail whole executors or
/// workers under deep queues rather than single invocations.
pub(crate) const MAX_RETRIES: u32 = 5;
/// Journal checkpoint cadence of every crash and storage-chaos point
/// (records per checkpoint). Small enough that a mid-run crash always has
/// a previous checkpoint generation to fall back to.
pub const CHECKPOINT_EVERY: usize = 64;

/// The recovery policy of every crash and storage-chaos point.
pub(crate) fn recovery() -> RecoveryPolicy {
    RecoveryPolicy {
        max_retries: MAX_RETRIES,
        ..RecoveryPolicy::default()
    }
}

/// One measured run of a crash campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPoint {
    /// What crashed: "none" for the baseline, else the scope label.
    pub scope: &'static str,
    /// In-flight semantics label ("at-least-once" / "at-most-once").
    pub semantics: &'static str,
    /// Measured external requests.
    pub offered: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests terminally failed.
    pub failed: u64,
    /// Requests shed at admission.
    pub sheds: u64,
    /// Injected crashes that fired (0 or 1).
    pub crashes: u64,
    /// Invocations killed by the crash.
    pub killed: u64,
    /// Interrupted requests re-admitted after recovery.
    pub readmitted: u64,
    /// Journal records replayed during recovery.
    pub replayed: u64,
    /// Checkpoints taken across the run.
    pub checkpoints: u64,
    /// Total journal records appended.
    pub journal_records: u64,
    /// FNV-1a hash of the run's full lifecycle-event stream (the event
    /// bus's golden trace). Equal hashes mean event-for-event identical
    /// runs, so reproducibility checks compare whole histories, not just
    /// aggregate counters.
    pub trace_hash: u64,
    /// Goodput: completed / offered.
    pub goodput: f64,
}

/// A crash-campaign recipe: one workload on Jord
/// ([`RuntimeConfig::jord_32`]), one crash instant, a grid of crash scopes
/// × crash semantics, always compared against a crash-free journaled
/// baseline on the same seed.
#[derive(Debug, Clone)]
pub struct CrashCampaign {
    /// Offered load, requests/second.
    pub rate_rps: f64,
    /// Requests per point (no warm-up: parity is exact-count).
    pub requests: usize,
    /// Seed shared by the load generator and every server.
    pub seed: u64,
    /// Components to kill, one point each per semantics.
    pub scopes: Vec<CrashScope>,
    /// In-flight semantics to sweep.
    pub semantics: Vec<CrashSemantics>,
}

impl CrashCampaign {
    /// A default campaign: Jord on the Table 2 machine, crash at the
    /// middle of the arrival span, sweeping every scope under both
    /// semantics.
    pub fn new(rate_rps: f64, requests: usize) -> Self {
        CrashCampaign {
            rate_rps,
            requests,
            seed: 42,
            scopes: vec![
                CrashScope::Executor(0),
                CrashScope::Orchestrator(0),
                CrashScope::Worker,
            ],
            semantics: vec![CrashSemantics::AtLeastOnce, CrashSemantics::AtMostOnce],
        }
    }

    /// Simulated crash instant, µs from run start: the middle of the
    /// arrival span.
    pub fn crash_at_us(&self) -> f64 {
        let span_us = self.requests as f64 / self.rate_rps * 1e6;
        span_us / 2.0
    }

    /// Overrides the scope ladder.
    pub fn scopes(mut self, scopes: Vec<CrashScope>) -> Self {
        self.scopes = scopes;
        self
    }

    /// Overrides the semantics ladder.
    pub fn semantics(mut self, semantics: Vec<CrashSemantics>) -> Self {
        self.semantics = semantics;
        self
    }

    /// Overrides the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the campaign on `workload`: one journaled crash-free baseline,
    /// then one point per scope × semantics.
    ///
    /// # Panics
    ///
    /// Panics if any point fails [`WorkerServer::audit`], fails to fire
    /// its planned crash, or — under at-least-once semantics — completes
    /// a different number of requests than the crash-free baseline.
    pub fn run(&self, workload: &Workload) -> CrashReport {
        let baseline = self.run_point(workload, CrashConfig::journal_only(), "none");
        let mut points = vec![baseline];
        for &scope in &self.scopes {
            for &semantics in &self.semantics {
                let plan = CrashPlan {
                    at_us: self.crash_at_us(),
                    scope,
                };
                let cfg = CrashConfig::new(plan, semantics).checkpoint_every(CHECKPOINT_EVERY);
                let point = self.run_point(workload, cfg, scope.label());
                assert_eq!(
                    point.crashes, 1,
                    "{}/{}: the planned crash must fire mid-run",
                    point.scope, point.semantics
                );
                if semantics == CrashSemantics::AtLeastOnce {
                    assert_eq!(
                        point.completed, baseline.completed,
                        "{}: at-least-once recovery must complete exactly what \
                         the crash-free run completed",
                        point.scope
                    );
                }
                points.push(point);
            }
        }
        CrashReport { points }
    }

    fn run_point(
        &self,
        workload: &Workload,
        crash: CrashConfig,
        scope: &'static str,
    ) -> CrashPoint {
        let cfg = RuntimeConfig::jord_32()
            .with_seed(self.seed)
            .with_recovery(recovery())
            .with_crash(crash);
        let mut server =
            WorkerServer::new(cfg, workload.registry.clone()).expect("valid crash config");
        let mut gen = LoadGen::new(workload, self.seed).expect("workload mix is sampleable");
        for (t, f, b) in gen.arrivals(self.rate_rps, self.requests) {
            server.push_request(t, f, b);
        }
        let rep = server.run();

        // Every run must have flowed through the lifecycle event bus.
        assert!(
            server.trace_len() > 0,
            "{scope}: the event bus published no lifecycle events"
        );

        server
            .audit(&rep)
            .unwrap_or_else(|e| panic!("{scope}/{}: {e}", crash.semantics.label()));

        CrashPoint {
            scope,
            semantics: crash.semantics.label(),
            offered: rep.offered,
            completed: rep.completed,
            failed: rep.faults.failed,
            sheds: rep.faults.sheds,
            crashes: rep.crash.crashes,
            killed: rep.crash.killed,
            readmitted: rep.crash.readmitted,
            replayed: rep.crash.replayed,
            checkpoints: rep.crash.checkpoints,
            journal_records: rep.crash.journal_records,
            trace_hash: server.trace_hash(),
            goodput: rep.goodput(),
        }
    }
}

/// The outcome of a crash campaign: the crash-free journaled baseline
/// followed by one point per scope × semantics, in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashReport {
    /// Points in sweep order; `points[0]` is the crash-free baseline.
    pub points: Vec<CrashPoint>,
}

impl CrashReport {
    /// The crash-free (journal-audit) baseline point.
    pub fn baseline(&self) -> &CrashPoint {
        &self.points[0]
    }

    /// True when every at-least-once point completed exactly as many
    /// requests as the crash-free baseline.
    pub fn at_least_once_parity(&self) -> bool {
        let base = self.baseline().completed;
        self.points
            .iter()
            .filter(|p| p.semantics == CrashSemantics::AtLeastOnce.label())
            .all(|p| p.completed == base)
    }

    /// Formats the campaign as an aligned text table.
    pub fn table(&self) -> String {
        let mut out = String::from(
            "scope         semantics        offered  completed   failed   killed  readmit  replayed  ckpts  records  goodput\n",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:<13} {:<14} {:>9} {:>10} {:>8} {:>8} {:>8} {:>9} {:>6} {:>8}   {:.4}\n",
                p.scope,
                p.semantics,
                p.offered,
                p.completed,
                p.failed,
                p.killed,
                p.readmitted,
                p.replayed,
                p.checkpoints,
                p.journal_records,
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

    fn quick_campaign() -> CrashCampaign {
        // A burst well beyond instantaneous capacity keeps queues deep at
        // the crash instant, so every scope provably kills live work.
        CrashCampaign::new(4.0e6, 1_500)
    }

    #[test]
    fn campaign_survives_every_scope_and_balances_the_ledger() {
        let w = Workload::build(WorkloadKind::Hotel);
        let rep = quick_campaign().run(&w);
        // 1 baseline + 3 scopes x 2 semantics.
        assert_eq!(rep.points.len(), 7);
        assert!(rep.at_least_once_parity());
        assert_eq!(rep.baseline().crashes, 0);
        assert!(rep.baseline().journal_records > 0);
        // The worker crash must interrupt real work and replay the journal.
        let worker = rep
            .points
            .iter()
            .find(|p| p.scope == "worker" && p.semantics == "at-least-once")
            .expect("worker point present");
        assert!(worker.killed > 0, "mid-burst worker crash kills work");
        assert!(worker.readmitted > 0);
        assert!(worker.replayed > 0);
    }

    #[test]
    fn at_most_once_fails_interrupted_requests() {
        let w = Workload::build(WorkloadKind::Hotel);
        let rep = quick_campaign()
            .scopes(vec![CrashScope::Worker])
            .semantics(vec![CrashSemantics::AtMostOnce])
            .run(&w);
        let point = rep.points.last().unwrap();
        assert!(
            point.failed > 0,
            "interrupted requests must surface as failed"
        );
        assert!(point.completed < rep.baseline().completed);
    }

    #[test]
    fn campaigns_are_reproducible() {
        let w = Workload::build(WorkloadKind::Hotel);
        let a = quick_campaign().run(&w);
        let b = quick_campaign().run(&w);
        assert_eq!(a, b, "same seed must reproduce the whole campaign");
        // The exact campaign, pinned: a change that moves any simulated
        // value fails here, not only one that breaks determinism.
        assert_eq!(fnv1a(format!("{a:?}").as_bytes()), 0x4c6cb39382ab222b);
    }

    #[test]
    fn table_lists_every_point() {
        let w = Workload::build(WorkloadKind::Hotel);
        let rep = quick_campaign().scopes(vec![CrashScope::Worker]).run(&w);
        let table = rep.table();
        assert_eq!(table.lines().count(), 1 + rep.points.len());
        assert!(table.contains("readmit"));
        assert!(table.contains("at-most-once"));
    }
}
