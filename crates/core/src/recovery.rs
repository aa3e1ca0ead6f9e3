//! Crash semantics and recovery configuration.
//!
//! PR-1's fault machinery contains *invocation-level* misbehavior (wild
//! accesses, runaways). This module configures the next tier up: whole
//! component crashes — an executor, an orchestrator, or the entire worker
//! server dying at a chosen simulated instant — and how the runtime's
//! write-ahead journal brings the survivor back ([`crate::journal`]).
//!
//! The crash/recovery paths themselves live in the server's lifecycle
//! engine: a crash is published on the event bus like any other
//! [`crate::events::LifecycleEvent`], recovery replays the journal sink's
//! suffix against the typed request table ([`crate::lifecycle`]), and the
//! chosen [`CrashSemantics`] decides whether each interrupted request is
//! re-admitted (a `RetryScheduled` event) or terminally failed.

use jord_hw::{CrashPlan, CrashScope, StorageFaultPlan};
use jord_sim::SimDuration;

use crate::config::ConfigError;

/// Downtime of a crashed component before it serves again (process
/// restart + journal replay, charged in simulated time). A standalone
/// worker's crashed executor, orchestrator or process and a cluster's
/// killed worker all pay it.
pub(crate) const RESTART_PENALTY: SimDuration = SimDuration::from_us(50);

/// What the recovery path promises about requests in flight at the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSemantics {
    /// An interrupted request is never re-executed: it counts as failed.
    /// (The client would see an error and decide for itself.)
    AtMostOnce,
    /// An interrupted request is re-dispatched after the restart penalty,
    /// keeping its original arrival time and attempt count — the crash is
    /// not the request's fault, so it does not consume a retry budget.
    AtLeastOnce,
}

impl CrashSemantics {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            CrashSemantics::AtMostOnce => "at-most-once",
            CrashSemantics::AtLeastOnce => "at-least-once",
        }
    }
}

/// Which rung of the recovery ladder a restart landed on. Recovery always
/// starts at the top (trust everything) and climbs down only as far as
/// the storage integrity checks force it:
///
/// 1. [`ExactReplay`](Self::ExactReplay) — every frame verifies; replay is
///    bit-identical to the in-memory journal.
/// 2. [`TornTail`](Self::TornTail) — the final frame is cut mid-bytes;
///    truncate at the last valid frame and replay the shorter suffix,
///    demoting in-flight work the lost records covered.
/// 3. [`Quarantine`](Self::Quarantine) — an interior frame fails its
///    checksum (or leaves a sequence gap); everything from the first bad
///    frame on is quarantined and the verified prefix replays.
/// 4. [`CheckpointFallback`](Self::CheckpointFallback) — the newest
///    checkpoint's seal no longer verifies against the log; recovery
///    falls back to the previous sealed checkpoint.
/// 5. [`PristineReboot`](Self::PristineReboot) — no checkpoint verifies
///    at all; the worker reboots empty and (in a cluster) is treated like
///    a phi-evicted worker so its stranded work re-derives upstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRung {
    /// Clean log: exact, bit-identical replay.
    ExactReplay,
    /// Partial final frame truncated; verified prefix replayed.
    TornTail,
    /// Corrupt interior frame quarantined; verified prefix replayed.
    Quarantine,
    /// Newest checkpoint seal failed; previous checkpoint restored.
    CheckpointFallback,
    /// No verifiable checkpoint; empty reboot.
    PristineReboot,
}

impl RecoveryRung {
    /// Every rung, top (most trusted) to bottom, for sweeps and tables.
    pub const ALL: [RecoveryRung; 5] = [
        RecoveryRung::ExactReplay,
        RecoveryRung::TornTail,
        RecoveryRung::Quarantine,
        RecoveryRung::CheckpointFallback,
        RecoveryRung::PristineReboot,
    ];

    /// Stable dense index (position in [`ALL`](Self::ALL)).
    pub fn index(self) -> usize {
        match self {
            RecoveryRung::ExactReplay => 0,
            RecoveryRung::TornTail => 1,
            RecoveryRung::Quarantine => 2,
            RecoveryRung::CheckpointFallback => 3,
            RecoveryRung::PristineReboot => 4,
        }
    }

    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryRung::ExactReplay => "exact-replay",
            RecoveryRung::TornTail => "torn-tail",
            RecoveryRung::Quarantine => "quarantine",
            RecoveryRung::CheckpointFallback => "checkpoint-fallback",
            RecoveryRung::PristineReboot => "pristine-reboot",
        }
    }

    /// True on any rung that may have lost journal suffix (everything
    /// below exact replay): recovery must demote the affected in-flight
    /// work instead of trusting the replayed tables blindly.
    pub fn lossy(self) -> bool {
        !matches!(self, RecoveryRung::ExactReplay)
    }
}

impl std::fmt::Display for RecoveryRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Crash-recovery configuration: when (and what) to crash, what to promise
/// about in-flight work, and how the journal checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashConfig {
    /// The injected crash, if any. `None` still turns the journal on —
    /// useful for auditing a run's request ledger without killing anything.
    pub plan: Option<CrashPlan>,
    /// In-flight request semantics across the crash boundary.
    pub semantics: CrashSemantics,
    /// Take a checkpoint every this many journal records.
    pub checkpoint_every: usize,
    /// Storage misbehavior applied to the durable journal between crash
    /// and restart (`None` = the device persists everything byte-perfect,
    /// the pre-durability behavior).
    pub storage: Option<StorageFaultPlan>,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            plan: None,
            semantics: CrashSemantics::AtLeastOnce,
            checkpoint_every: 64,
            storage: None,
        }
    }
}

impl CrashConfig {
    /// Journaling with no injected crash (ledger-audit mode).
    pub fn journal_only() -> Self {
        CrashConfig::default()
    }

    /// Crashes per `plan` with `semantics` and the default cadence.
    pub fn new(plan: CrashPlan, semantics: CrashSemantics) -> Self {
        CrashConfig {
            plan: Some(plan),
            semantics,
            ..CrashConfig::default()
        }
    }

    /// Overrides the checkpoint cadence.
    pub fn checkpoint_every(mut self, records: usize) -> Self {
        self.checkpoint_every = records;
        self
    }

    /// Arms a storage fault: the durable journal is corrupted per `plan`
    /// between the crash and the restart.
    pub fn with_storage(mut self, plan: StorageFaultPlan) -> Self {
        self.storage = Some(plan);
        self
    }

    /// Checks the config against the server's component counts.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ConfigError::Crash`] describing the first invalid
    /// field.
    pub fn validate(&self, orchestrators: usize, executors: usize) -> Result<(), ConfigError> {
        let crash = |reason: String| ConfigError::Crash { reason };
        if self.checkpoint_every == 0 {
            // Zero cadence would ask for a checkpoint after every batch of
            // zero records — an infinite loop at the first poll.
            return Err(crash("checkpoint_every must be positive".into()));
        }
        // `storage` with no crash plan is legal: cluster workers are
        // killed by dispatcher events, not a CrashPlan, and the storage
        // fault strikes at whatever crash actually fires.
        if let Some(plan) = &self.plan {
            plan.validate().map_err(crash)?;
            match plan.scope {
                CrashScope::Executor(e) if e >= executors => {
                    return Err(crash(format!(
                        "crash targets executor {e} but only {executors} exist"
                    )));
                }
                CrashScope::Orchestrator(o) if o >= orchestrators => {
                    return Err(crash(format!(
                        "crash targets orchestrator {o} but only {orchestrators} exist"
                    )));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_journal_only() {
        let c = CrashConfig::default();
        assert_eq!(c.plan, None);
        assert_eq!(c.semantics, CrashSemantics::AtLeastOnce);
        c.validate(4, 28).expect("default config valid");
        assert_eq!(CrashConfig::journal_only(), c);
    }

    #[test]
    fn validation_checks_scope_indices() {
        let c = CrashConfig::new(
            CrashPlan::executor_at(10.0, 28),
            CrashSemantics::AtLeastOnce,
        );
        assert!(
            c.validate(4, 28).is_err(),
            "executor 28 of 28 is out of range"
        );
        c.validate(4, 29).expect("executor 28 of 29 exists");
        let c = CrashConfig::new(
            CrashPlan::orchestrator_at(10.0, 4),
            CrashSemantics::AtMostOnce,
        );
        assert!(c.validate(4, 28).is_err());
        let c = CrashConfig::new(CrashPlan::worker_at(10.0), CrashSemantics::AtMostOnce);
        c.validate(1, 1).expect("worker scope needs no index");
    }

    #[test]
    fn validation_rejects_bad_numbers() {
        let c = CrashConfig::default().checkpoint_every(0);
        assert!(c.validate(4, 28).is_err());
        let c = CrashConfig::new(
            CrashPlan::worker_at(f64::INFINITY),
            CrashSemantics::AtLeastOnce,
        );
        assert!(c.validate(4, 28).is_err(), "plan validation must run too");
    }

    #[test]
    fn labels_read_well() {
        assert_eq!(CrashSemantics::AtMostOnce.label(), "at-most-once");
        assert_eq!(CrashSemantics::AtLeastOnce.label(), "at-least-once");
    }
}
