//! Admission policy: routing, shedding, deadlines, and retry disposition.
//!
//! Everything the worker decides *about* a request before and between
//! executions lives here — which orchestrator receives it (round-robin),
//! whether it is shed (queue over the bound), what deadline it runs
//! under, and whether a failed attempt retries (capped exponential
//! backoff) or fails terminally. The server asks; this module answers;
//! the resulting state change still goes through
//! [`lifecycle::transition`](crate::lifecycle::transition) like every
//! other.
//!
//! Under overload the policy additionally carries a [`BrownoutLevel`]:
//! a three-step graceful-degradation ladder the cluster autoscaler
//! imposes *before* queues collapse. Each step tightens the shed bound
//! and the execution deadline multiplicatively, and the heaviest step
//! stops spending capacity on retries — shedding early and cheaply
//! instead of queueing until timeout.

use jord_sim::{SimDuration, SimTime};

use crate::config::RecoveryPolicy;

/// Graceful-degradation mode imposed on a worker's admission policy.
///
/// Ordered: `Normal < Degraded < ShedHeavy`. Each level tightens the
/// shed bound and the deadline relative to the configured policy, so a
/// browned-out worker rejects excess load at admission (cheap) instead
/// of letting it queue until it blows its deadline (expensive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutLevel {
    /// The configured policy applies unmodified.
    #[default]
    Normal,
    /// First pressure step: shed bound halved, deadlines at 75%.
    Degraded,
    /// Overload step: shed bound quartered, deadlines at 50%, and
    /// failed attempts are not retried.
    ShedHeavy,
}

impl BrownoutLevel {
    /// Display label ("normal" / "degraded" / "shed-heavy").
    pub fn label(self) -> &'static str {
        match self {
            BrownoutLevel::Normal => "normal",
            BrownoutLevel::Degraded => "degraded",
            BrownoutLevel::ShedHeavy => "shed-heavy",
        }
    }

    /// The next level down the ladder (toward [`Normal`](Self::Normal)).
    pub fn relaxed(self) -> BrownoutLevel {
        match self {
            BrownoutLevel::Normal | BrownoutLevel::Degraded => BrownoutLevel::Normal,
            BrownoutLevel::ShedHeavy => BrownoutLevel::Degraded,
        }
    }

    /// Multiplier applied to the configured shed bound.
    fn shed_scale(self) -> f64 {
        match self {
            BrownoutLevel::Normal => 1.0,
            BrownoutLevel::Degraded => 0.5,
            BrownoutLevel::ShedHeavy => 0.25,
        }
    }

    /// Multiplier applied to the configured deadline.
    fn deadline_scale(self) -> f64 {
        match self {
            BrownoutLevel::Normal => 1.0,
            BrownoutLevel::Degraded => 0.75,
            BrownoutLevel::ShedHeavy => 0.5,
        }
    }
}

/// What to do with a failed dispatch attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureDisposition {
    /// Schedule a re-dispatch after backoff.
    Retry {
        /// The attempt number the re-dispatch will carry.
        attempt: u32,
        /// Backoff delay before it fires.
        delay: SimDuration,
    },
    /// Retries exhausted: the request terminally fails.
    Fail,
}

/// The worker's admission/retry policy engine.
#[derive(Debug, Clone)]
pub struct AdmissionPolicy {
    policy: RecoveryPolicy,
    orchestrators: usize,
    /// Per-orchestrator admission window: how many dispatched-but-
    /// unfinished externals an orchestrator may have before admission
    /// stops pulling from its external queue.
    window: usize,
    /// Round-robin cursor over orchestrators.
    rr: usize,
    /// Degradation mode imposed by the tier above (autoscaler/dispatcher).
    brownout: BrownoutLevel,
}

impl AdmissionPolicy {
    /// A policy for a worker with `orchestrators` orchestrators sharing
    /// `executors` executor cores.
    pub fn new(policy: RecoveryPolicy, orchestrators: usize, executors: usize) -> Self {
        AdmissionPolicy {
            policy,
            orchestrators,
            window: Self::window_for(orchestrators, executors),
            rr: 0,
            brownout: BrownoutLevel::Normal,
        }
    }

    /// The admission window of each of `orchestrators` orchestrators
    /// sharing `executors` executor cores: deep enough to keep every
    /// executor busy through dispatch latency, floored so tiny machines
    /// still pipeline.
    pub fn window_for(orchestrators: usize, executors: usize) -> usize {
        (8 * executors / orchestrators).max(16)
    }

    /// The per-orchestrator admission window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The current brownout level.
    pub fn brownout(&self) -> BrownoutLevel {
        self.brownout
    }

    /// Imposes a brownout level (the dispatcher's call, via
    /// [`WorkerServer::set_brownout`](crate::WorkerServer::set_brownout)).
    pub fn set_brownout(&mut self, level: BrownoutLevel) {
        self.brownout = level;
    }

    /// The orchestrator the next arrival routes to (advances the
    /// round-robin cursor).
    pub fn route(&mut self) -> usize {
        let orch = self.rr;
        self.rr = (self.rr + 1) % self.orchestrators;
        orch
    }

    /// Resets the routing cursor (a rebooted worker starts fresh).
    pub fn reset_routing(&mut self) {
        self.rr = 0;
    }

    /// Should an arrival be shed, given its orchestrator's external-queue
    /// depth? Brownout tightens the configured bound multiplicatively
    /// (never below one: a browned-out worker still admits work).
    pub fn should_shed(&self, queue_len: usize) -> bool {
        self.policy.shed_bound.is_some_and(|bound| {
            let scaled = ((bound as f64 * self.brownout.shed_scale()) as usize).max(1);
            queue_len >= scaled
        })
    }

    /// The absolute deadline for an execution starting at `start`, if the
    /// policy sets one. Brownout shortens it, so overloaded queues stop
    /// carrying work that would time out anyway.
    pub fn deadline_for(&self, start: SimTime) -> Option<SimTime> {
        self.policy.deadline_us.map(|us| {
            start + SimDuration::from_ns_f64(us * self.brownout.deadline_scale() * 1_000.0)
        })
    }

    /// Disposition for a failed attempt numbered `attempt`. Under
    /// [`BrownoutLevel::ShedHeavy`] nothing retries: retry capacity is
    /// exactly what an overloaded worker does not have.
    pub fn on_failure(&self, attempt: u32) -> FailureDisposition {
        if self.brownout == BrownoutLevel::ShedHeavy {
            return FailureDisposition::Fail;
        }
        if attempt < self.policy.max_retries {
            FailureDisposition::Retry {
                attempt: attempt + 1,
                delay: self.policy.backoff(attempt),
            }
        } else {
            FailureDisposition::Fail
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 2,
            backoff_base_us: 2.0,
            backoff_cap_us: 8.0,
            deadline_us: Some(100.0),
            shed_bound: Some(4),
        }
    }

    #[test]
    fn round_robin_wraps_and_resets() {
        let mut a = AdmissionPolicy::new(policy(), 3, 12);
        assert_eq!([a.route(), a.route(), a.route(), a.route()], [0, 1, 2, 0]);
        a.reset_routing();
        assert_eq!(a.route(), 0);
    }

    #[test]
    fn window_scales_with_executor_share() {
        assert_eq!(AdmissionPolicy::new(policy(), 4, 28).window(), 56);
        assert_eq!(AdmissionPolicy::new(policy(), 1, 1).window(), 16, "floored");
    }

    #[test]
    fn shed_bound_is_inclusive() {
        let a = AdmissionPolicy::new(policy(), 1, 4);
        assert!(!a.should_shed(3));
        assert!(a.should_shed(4));
        let open = AdmissionPolicy::new(
            RecoveryPolicy {
                shed_bound: None,
                ..policy()
            },
            1,
            4,
        );
        assert!(!open.should_shed(usize::MAX), "no bound, no shedding");
    }

    #[test]
    fn failure_ladder_retries_then_fails() {
        let a = AdmissionPolicy::new(policy(), 1, 4);
        match a.on_failure(0) {
            FailureDisposition::Retry { attempt, delay } => {
                assert_eq!(attempt, 1);
                assert_eq!(delay.as_ns_f64(), 2_000.0);
            }
            other => panic!("expected retry, got {other:?}"),
        }
        match a.on_failure(1) {
            FailureDisposition::Retry { attempt, delay } => {
                assert_eq!(attempt, 2);
                assert_eq!(delay.as_ns_f64(), 4_000.0, "doubled");
            }
            other => panic!("expected retry, got {other:?}"),
        }
        assert_eq!(a.on_failure(2), FailureDisposition::Fail, "retries spent");
    }

    #[test]
    fn brownout_tightens_shedding_deadlines_and_retries() {
        let mut a = AdmissionPolicy::new(policy(), 1, 4);
        assert_eq!(a.brownout(), BrownoutLevel::Normal);

        a.set_brownout(BrownoutLevel::Degraded);
        assert!(a.should_shed(2), "degraded halves the bound: 4 → 2");
        assert!(!a.should_shed(1));
        let start = SimTime::ZERO;
        assert_eq!(
            a.deadline_for(start),
            Some(SimTime::from_us(75)),
            "degraded runs deadlines at 75%"
        );
        assert!(
            matches!(a.on_failure(0), FailureDisposition::Retry { .. }),
            "degraded still retries"
        );

        a.set_brownout(BrownoutLevel::ShedHeavy);
        assert!(a.should_shed(1), "shed-heavy quarters the bound: 4 → 1");
        assert!(!a.should_shed(0), "the scaled bound never reaches zero");
        assert_eq!(a.deadline_for(start), Some(SimTime::from_us(50)));
        assert_eq!(
            a.on_failure(0),
            FailureDisposition::Fail,
            "shed-heavy spends nothing on retries"
        );

        a.set_brownout(BrownoutLevel::Normal);
        assert!(!a.should_shed(3), "normal restores the configured bound");
    }

    #[test]
    fn brownout_ladder_relaxes_one_level_at_a_time() {
        assert_eq!(BrownoutLevel::ShedHeavy.relaxed(), BrownoutLevel::Degraded);
        assert_eq!(BrownoutLevel::Degraded.relaxed(), BrownoutLevel::Normal);
        assert_eq!(BrownoutLevel::Normal.relaxed(), BrownoutLevel::Normal);
        assert!(BrownoutLevel::Normal < BrownoutLevel::Degraded);
        assert!(BrownoutLevel::Degraded < BrownoutLevel::ShedHeavy);
        assert_eq!(BrownoutLevel::ShedHeavy.label(), "shed-heavy");
    }

    #[test]
    fn deadlines_anchor_at_start() {
        let a = AdmissionPolicy::new(policy(), 1, 4);
        let start = SimTime::from_us(5);
        assert_eq!(a.deadline_for(start), Some(SimTime::from_us(105)));
        let open = AdmissionPolicy::new(
            RecoveryPolicy {
                deadline_us: None,
                ..policy()
            },
            1,
            4,
        );
        assert_eq!(open.deadline_for(start), None);
    }
}
