//! SLO-driven cluster autoscaling: typed scale decisions with hysteresis.
//!
//! The [`ClusterAutoscaler`] is the cluster's control plane: every
//! evaluation window the dispatcher hands it a [`WindowSignals`] snapshot
//! — per-worker queue depth, windowed p99 against the SLO target, shed
//! rate, phi-suspicion count — and gets back a [`Directive`]: a typed
//! [`ScaleDecision`] (add workers, retire workers, hold) plus the
//! [`BrownoutLevel`] the fleet's admission policies should run at.
//!
//! The decision engine is deliberately boring and deterministic — it is a
//! pure function of the signal sequence, which is what makes identical
//! seeds reproduce identical `ScaleDecision` sequences:
//!
//! - **Hysteresis**: scale-up needs [`AutoscalerConfig::up_windows`]
//!   consecutive hot windows, scale-down needs
//!   [`AutoscalerConfig::down_windows`] consecutive cold ones. A single
//!   noisy window moves nothing.
//! - **Cooldown**: after any scale event, both directions are frozen for
//!   [`AutoscalerConfig::cooldown_us`] — the fleet must be observed *at*
//!   the new size before the next move, so decisions never flap.
//! - **Max-step clamp**: one decision changes the fleet by at most
//!   `MAX_STEP` (2) workers.
//! - **Suspicion freeze**: while any worker is phi-suspected the engine
//!   never scales down — capacity is not removed while the failure
//!   detector is unsure how much of it is actually alive.
//!
//! Brownout is the fast path: entry is *immediate* (one severe window is
//! enough — graceful degradation must beat queue collapse, and a scale-up
//! takes a worker bring-up to help), exit is gradual (one level per
//! `EXIT_WINDOWS` (3) calm windows, down the ladder one
//! step at a time). Scale-down is suppressed while browned out: a fleet
//! shedding load is not an oversized fleet.

use jord_sim::SimTime;

use crate::admission::BrownoutLevel;
use crate::config::ConfigError;
use crate::memory::MemoryPressure;

/// Workers added or retired per decision, at most.
const MAX_STEP: usize = 2;
/// Mean per-worker queue depth marking a window hot.
const QUEUE_HIGH: f64 = 24.0;
/// Mean per-worker queue depth below which a window may be cold.
const QUEUE_LOW: f64 = 4.0;
/// Shed fraction of a window's offered load marking it hot.
const SHED_RATE_HIGH: f64 = 0.01;
/// Mean queue depth at which the fleet enters [`BrownoutLevel::Degraded`]
/// (also entered when windowed p99 exceeds the target).
const DEGRADED_DEPTH: f64 = 32.0;
/// Mean queue depth at which the fleet enters [`BrownoutLevel::ShedHeavy`]
/// (also entered when windowed p99 exceeds twice the target).
const SHED_HEAVY_DEPTH: f64 = 48.0;
/// Consecutive calm windows required per level of brownout relaxation on
/// the way back out.
const EXIT_WINDOWS: u32 = 3;

/// Tuning for the [`ClusterAutoscaler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// The fleet never shrinks below this.
    pub min_workers: usize,
    /// The fleet never grows beyond this.
    pub max_workers: usize,
    /// Freeze after any scale event (µs): no further scaling until the
    /// resized fleet has been observed this long.
    pub cooldown_us: f64,
    /// Consecutive hot windows before a scale-up.
    pub up_windows: u32,
    /// Consecutive cold windows before a scale-down.
    pub down_windows: u32,
    /// The p99 SLO target (µs), if latency should drive decisions.
    pub target_p99_us: Option<f64>,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            min_workers: 1,
            max_workers: 8,
            cooldown_us: 60.0,
            up_windows: 2,
            down_windows: 5,
            target_p99_us: None,
        }
    }
}

impl AutoscalerConfig {
    /// Validates the tuning.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let bad = |reason: String| Err(ConfigError::Cluster { reason });
        if self.min_workers == 0 {
            return bad("min_workers must be at least 1".into());
        }
        if self.max_workers < self.min_workers {
            return bad(format!(
                "max_workers ({}) must be at least min_workers ({})",
                self.max_workers, self.min_workers
            ));
        }
        if self.cooldown_us < 0.0 || !self.cooldown_us.is_finite() {
            return bad(format!(
                "cooldown_us must be non-negative and finite, got {}",
                self.cooldown_us
            ));
        }
        if self.up_windows == 0 || self.down_windows == 0 {
            return bad("up_windows and down_windows must be at least 1".into());
        }
        if let Some(t) = self.target_p99_us {
            if t <= 0.0 || !t.is_finite() {
                return bad(format!(
                    "target_p99_us must be positive and finite, got {t}"
                ));
            }
        }
        Ok(())
    }
}

/// One evaluation window's worth of SLO signals, as the dispatcher sees
/// them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSignals {
    /// End of the window (the evaluation instant).
    pub at: SimTime,
    /// Workers currently in the routing set (neither retiring nor
    /// retired).
    pub active_workers: usize,
    /// Mean dispatcher-side outstanding copies per active worker (the
    /// JSQ key, averaged).
    pub mean_queue_depth: f64,
    /// Windowed p99 end-to-end latency (µs), if anything completed.
    pub p99_us: Option<f64>,
    /// Requests routed during the window.
    pub offered: u64,
    /// Requests completed during the window.
    pub completed: u64,
    /// Requests shed during the window.
    pub shed: u64,
    /// Workers currently phi-suspected.
    pub suspects: usize,
    /// The worst memory-pressure level across active workers. `Critical`
    /// vetoes scale-up (a fleet that cannot hold its working set must
    /// shed load, not multiply the leak), freezes scale-down (retiring
    /// capacity concentrates the working set on fewer workers), and
    /// forces the brownout ladder to at least `Degraded`.
    pub pressure: MemoryPressure,
}

impl WindowSignals {
    /// Shed fraction of the window's offered load (0 when idle).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }
}

/// A typed scaling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Fleet size is right (or a cooldown/hysteresis gate held a move
    /// back).
    Hold,
    /// Boot this many workers.
    Up(usize),
    /// Retire this many workers through drain-aware rebalancing.
    Down(usize),
}

/// One evaluation's full output: what to do with the fleet size and what
/// brownout level admission should run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Directive {
    /// The scaling decision.
    pub decision: ScaleDecision,
    /// The brownout level now in force.
    pub brownout: BrownoutLevel,
}

/// The decision engine. Pure state machine over [`WindowSignals`] — no
/// clock, no randomness — so a signal sequence maps to exactly one
/// decision sequence.
#[derive(Debug, Clone)]
pub struct ClusterAutoscaler {
    cfg: AutoscalerConfig,
    hot_streak: u32,
    cold_streak: u32,
    calm_streak: u32,
    last_scale_at: Option<SimTime>,
    /// Direction of the last applied decision (`true` = up), for
    /// reversal accounting.
    last_up: Option<bool>,
    brownout: BrownoutLevel,
    reversals: u64,
}

impl ClusterAutoscaler {
    /// Builds the engine, validating `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Cluster`] describing the first bad knob.
    pub fn new(cfg: AutoscalerConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(ClusterAutoscaler {
            cfg,
            hot_streak: 0,
            cold_streak: 0,
            calm_streak: 0,
            last_scale_at: None,
            last_up: None,
            brownout: BrownoutLevel::Normal,
            reversals: 0,
        })
    }

    /// The tuning in force.
    pub fn config(&self) -> &AutoscalerConfig {
        &self.cfg
    }

    /// The brownout level currently in force.
    pub fn brownout(&self) -> BrownoutLevel {
        self.brownout
    }

    /// Direction reversals across all decisions so far.
    pub fn reversals(&self) -> u64 {
        self.reversals
    }

    /// Evaluates one window and returns the directive. Brownout moves
    /// first (it is the sub-window-latency defence); the fleet-size
    /// decision then runs behind its hysteresis/cooldown gates.
    pub fn evaluate(&mut self, sig: &WindowSignals) -> Directive {
        self.step_brownout(sig);

        let target_exceeded = match (sig.p99_us, self.cfg.target_p99_us) {
            (Some(p99), Some(target)) => p99 > target,
            _ => false,
        };
        let hot = sig.mean_queue_depth >= QUEUE_HIGH
            || sig.shed_rate() > SHED_RATE_HIGH
            || target_exceeded;
        // A cold window must be calm on *every* axis: queues short,
        // nothing shed, latency inside target, no suspicion, and no
        // brownout in force (a shedding fleet is not an oversized one).
        let cold = !hot
            && sig.mean_queue_depth <= QUEUE_LOW
            && sig.shed == 0
            && sig.suspects == 0
            && sig.pressure == MemoryPressure::Normal
            && self.brownout == BrownoutLevel::Normal;
        if hot {
            self.hot_streak += 1;
            self.cold_streak = 0;
        } else if cold {
            self.cold_streak += 1;
            self.hot_streak = 0;
        } else {
            self.hot_streak = 0;
            self.cold_streak = 0;
        }

        let cooling = self.last_scale_at.is_some_and(|last| {
            sig.at.saturating_since(last).as_ns_f64() < self.cfg.cooldown_us * 1_000.0
        });
        let decision = if cooling {
            ScaleDecision::Hold
        } else if self.hot_streak >= self.cfg.up_windows
            && sig.active_workers < self.cfg.max_workers
            && sig.pressure < MemoryPressure::Critical
        {
            let step = MAX_STEP.min(self.cfg.max_workers - sig.active_workers);
            self.applied(sig.at, true);
            ScaleDecision::Up(step)
        } else if self.cold_streak >= self.cfg.down_windows
            && sig.active_workers > self.cfg.min_workers
        {
            let step = MAX_STEP.min(sig.active_workers - self.cfg.min_workers);
            self.applied(sig.at, false);
            ScaleDecision::Down(step)
        } else {
            ScaleDecision::Hold
        };

        Directive {
            decision,
            brownout: self.brownout,
        }
    }

    /// Books an applied decision: opens the cooldown, resets streaks,
    /// counts a reversal if the direction flipped.
    fn applied(&mut self, at: SimTime, up: bool) {
        if self.last_up.is_some_and(|prev| prev != up) {
            self.reversals += 1;
        }
        self.last_up = Some(up);
        self.last_scale_at = Some(at);
        self.hot_streak = 0;
        self.cold_streak = 0;
    }

    /// Advances the brownout ladder: immediate entry on a severe or
    /// pressured window, one-level exit per `EXIT_WINDOWS` calm windows.
    fn step_brownout(&mut self, sig: &WindowSignals) {
        let (over_target, over_double) = match (sig.p99_us, self.cfg.target_p99_us) {
            (Some(p99), Some(target)) => (p99 > target, p99 > 2.0 * target),
            _ => (false, false),
        };
        let severe = sig.mean_queue_depth >= SHED_HEAVY_DEPTH || over_double;
        // Critical memory pressure degrades admission: the workers have
        // already evicted their warm pools (reclamation before shedding),
        // so shedding load is the only defence left.
        let pressured = sig.mean_queue_depth >= DEGRADED_DEPTH
            || over_target
            || sig.pressure >= MemoryPressure::Critical;
        if severe {
            self.brownout = BrownoutLevel::ShedHeavy;
            self.calm_streak = 0;
        } else if pressured {
            self.brownout = self.brownout.max(BrownoutLevel::Degraded);
            self.calm_streak = 0;
        } else if self.brownout != BrownoutLevel::Normal {
            self.calm_streak += 1;
            if self.calm_streak >= EXIT_WINDOWS {
                self.brownout = self.brownout.relaxed();
                self.calm_streak = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ClusterAutoscaler {
        ClusterAutoscaler::new(AutoscalerConfig {
            target_p99_us: Some(50.0),
            ..AutoscalerConfig::default()
        })
        .unwrap()
    }

    /// A window `n` periods in, with everything else calm.
    fn calm(n: u64, workers: usize) -> WindowSignals {
        WindowSignals {
            at: SimTime::from_us(20 * n),
            active_workers: workers,
            mean_queue_depth: 1.0,
            p99_us: Some(10.0),
            offered: 100,
            completed: 100,
            shed: 0,
            suspects: 0,
            pressure: MemoryPressure::Normal,
        }
    }

    fn hot(n: u64, workers: usize) -> WindowSignals {
        WindowSignals {
            mean_queue_depth: 30.0,
            ..calm(n, workers)
        }
    }

    #[test]
    fn scale_up_needs_consecutive_hot_windows() {
        let mut a = engine();
        assert_eq!(a.evaluate(&hot(0, 2)).decision, ScaleDecision::Hold);
        // A calm window in between resets the streak.
        assert_eq!(a.evaluate(&calm(1, 2)).decision, ScaleDecision::Hold);
        assert_eq!(a.evaluate(&hot(2, 2)).decision, ScaleDecision::Hold);
        assert_eq!(a.evaluate(&hot(3, 2)).decision, ScaleDecision::Up(2));
    }

    #[test]
    fn cooldown_freezes_both_directions() {
        let mut a = engine();
        a.evaluate(&hot(0, 2));
        assert_eq!(a.evaluate(&hot(1, 2)).decision, ScaleDecision::Up(2));
        // Still hot, but inside the 60 µs cooldown (windows at 40, 60 µs).
        assert_eq!(a.evaluate(&hot(2, 4)).decision, ScaleDecision::Hold);
        assert_eq!(a.evaluate(&hot(3, 4)).decision, ScaleDecision::Hold);
        // Cooldown expired at 20 + 60 = 80 µs; streak rebuilt meanwhile.
        assert_eq!(a.evaluate(&hot(4, 4)).decision, ScaleDecision::Up(2));
    }

    #[test]
    fn max_step_and_bounds_clamp_decisions() {
        let mut a = ClusterAutoscaler::new(AutoscalerConfig {
            max_workers: 3,
            cooldown_us: 0.0,
            up_windows: 1,
            down_windows: 1,
            ..AutoscalerConfig::default()
        })
        .unwrap();
        // Only one slot left below max_workers: the step clamps to it.
        assert_eq!(a.evaluate(&hot(0, 2)).decision, ScaleDecision::Up(1));
        assert_eq!(
            a.evaluate(&hot(1, 3)).decision,
            ScaleDecision::Hold,
            "at max_workers"
        );
        // Down clamps to min_workers.
        assert_eq!(a.evaluate(&calm(2, 2)).decision, ScaleDecision::Down(1));
        assert_eq!(
            a.evaluate(&calm(3, 1)).decision,
            ScaleDecision::Hold,
            "at min_workers"
        );
    }

    #[test]
    fn suspicion_freezes_scale_down() {
        let mut a = ClusterAutoscaler::new(AutoscalerConfig {
            cooldown_us: 0.0,
            down_windows: 2,
            ..AutoscalerConfig::default()
        })
        .unwrap();
        let suspected = WindowSignals {
            suspects: 1,
            ..calm(0, 4)
        };
        for n in 0..6 {
            let sig = WindowSignals {
                at: SimTime::from_us(20 * n),
                ..suspected
            };
            assert_eq!(
                a.evaluate(&sig).decision,
                ScaleDecision::Hold,
                "no scale-down while the detector is unsure"
            );
        }
        assert_eq!(a.evaluate(&calm(6, 4)).decision, ScaleDecision::Hold);
        assert_eq!(a.evaluate(&calm(7, 4)).decision, ScaleDecision::Down(2));
    }

    #[test]
    fn brownout_enters_immediately_and_exits_stepwise() {
        let mut a = engine();
        let severe = WindowSignals {
            mean_queue_depth: 60.0,
            ..calm(0, 2)
        };
        assert_eq!(a.evaluate(&severe).brownout, BrownoutLevel::ShedHeavy);
        // Three calm windows per level on the way out.
        assert_eq!(a.evaluate(&calm(1, 2)).brownout, BrownoutLevel::ShedHeavy);
        assert_eq!(a.evaluate(&calm(2, 2)).brownout, BrownoutLevel::ShedHeavy);
        assert_eq!(a.evaluate(&calm(3, 2)).brownout, BrownoutLevel::Degraded);
        assert_eq!(a.evaluate(&calm(4, 2)).brownout, BrownoutLevel::Degraded);
        assert_eq!(a.evaluate(&calm(5, 2)).brownout, BrownoutLevel::Degraded);
        assert_eq!(a.evaluate(&calm(6, 2)).brownout, BrownoutLevel::Normal);
    }

    #[test]
    fn latency_over_target_drives_brownout_and_scaling() {
        let mut a = engine();
        let slow = WindowSignals {
            p99_us: Some(80.0),
            ..calm(0, 2)
        };
        let d = a.evaluate(&slow);
        assert_eq!(d.brownout, BrownoutLevel::Degraded, "p99 over target");
        let very_slow = WindowSignals {
            p99_us: Some(120.0),
            at: SimTime::from_us(20),
            ..slow
        };
        let d = a.evaluate(&very_slow);
        assert_eq!(d.brownout, BrownoutLevel::ShedHeavy, "p99 over 2x target");
        assert_eq!(d.decision, ScaleDecision::Up(2), "two slow windows");
    }

    #[test]
    fn no_scale_down_while_browned_out() {
        let mut a = ClusterAutoscaler::new(AutoscalerConfig {
            cooldown_us: 0.0,
            down_windows: 1,
            ..AutoscalerConfig::default()
        })
        .unwrap();
        let severe = WindowSignals {
            mean_queue_depth: 60.0,
            ..calm(0, 4)
        };
        a.evaluate(&severe);
        // Queues instantly calm (the shed-heavy ladder emptied them),
        // but the fleet is still browned out: no down-scaling.
        for n in 1..=2 {
            let d = a.evaluate(&calm(n, 4));
            assert_ne!(d.brownout, BrownoutLevel::Normal);
            assert_eq!(d.decision, ScaleDecision::Hold);
        }
    }

    #[test]
    fn critical_pressure_vetoes_scale_up_and_forces_brownout() {
        let mut a = ClusterAutoscaler::new(AutoscalerConfig {
            cooldown_us: 0.0,
            up_windows: 1,
            down_windows: 1,
            ..AutoscalerConfig::default()
        })
        .unwrap();
        // Hot *and* critically pressured: adding workers would multiply
        // the leak, so the engine holds and degrades admission instead.
        let hot_pressured = WindowSignals {
            pressure: MemoryPressure::Critical,
            ..hot(0, 2)
        };
        let d = a.evaluate(&hot_pressured);
        assert_eq!(d.decision, ScaleDecision::Hold, "scale-up vetoed");
        assert_eq!(d.brownout, BrownoutLevel::Degraded, "pressure degrades");
        // Calm queues but still pressured: no scale-down either, and no
        // cold streak accrues (the window is not calm on every axis).
        let calm_pressured = WindowSignals {
            pressure: MemoryPressure::Critical,
            ..calm(1, 4)
        };
        a.evaluate(&calm_pressured);
        assert_eq!(
            a.evaluate(&WindowSignals {
                at: SimTime::from_us(40),
                ..calm_pressured
            })
            .decision,
            ScaleDecision::Hold,
            "no scale-down while the fleet cannot hold its working set"
        );
        // Elevated pressure alone neither vetoes nor degrades: the
        // workers' governors reclaim the cold tail first.
        let mut b = ClusterAutoscaler::new(AutoscalerConfig {
            cooldown_us: 0.0,
            up_windows: 1,
            ..AutoscalerConfig::default()
        })
        .unwrap();
        let hot_elevated = WindowSignals {
            pressure: MemoryPressure::Elevated,
            ..hot(0, 2)
        };
        let d = b.evaluate(&hot_elevated);
        assert_eq!(d.decision, ScaleDecision::Up(2), "elevated does not veto");
        assert_eq!(
            d.brownout,
            BrownoutLevel::Normal,
            "eviction before shedding"
        );
    }

    #[test]
    fn reversals_are_counted() {
        let mut a = ClusterAutoscaler::new(AutoscalerConfig {
            cooldown_us: 0.0,
            up_windows: 1,
            down_windows: 1,
            ..AutoscalerConfig::default()
        })
        .unwrap();
        assert_eq!(a.evaluate(&hot(0, 2)).decision, ScaleDecision::Up(2));
        assert_eq!(a.reversals(), 0, "first move is not a reversal");
        assert_eq!(a.evaluate(&calm(1, 4)).decision, ScaleDecision::Down(2));
        assert_eq!(a.reversals(), 1);
        assert_eq!(a.evaluate(&hot(2, 2)).decision, ScaleDecision::Up(2));
        assert_eq!(a.reversals(), 2);
    }

    #[test]
    fn shed_rate_marks_a_window_hot() {
        let mut a = ClusterAutoscaler::new(AutoscalerConfig {
            cooldown_us: 0.0,
            up_windows: 1,
            ..AutoscalerConfig::default()
        })
        .unwrap();
        let shedding = WindowSignals {
            shed: 5,
            ..calm(0, 2)
        };
        assert!(shedding.shed_rate() > 0.01);
        assert_eq!(a.evaluate(&shedding).decision, ScaleDecision::Up(2));
        let idle = WindowSignals {
            offered: 0,
            completed: 0,
            ..calm(1, 2)
        };
        assert_eq!(idle.shed_rate(), 0.0, "an idle window sheds nothing");
    }

    #[test]
    fn validate_rejects_bad_tunings() {
        let ok = AutoscalerConfig::default();
        assert!(ok.validate().is_ok());
        for (name, cfg) in [
            (
                "zero min",
                AutoscalerConfig {
                    min_workers: 0,
                    ..ok
                },
            ),
            (
                "max below min",
                AutoscalerConfig {
                    max_workers: 0,
                    ..ok
                },
            ),
            (
                "negative cooldown",
                AutoscalerConfig {
                    cooldown_us: -1.0,
                    ..ok
                },
            ),
            (
                "zero hysteresis",
                AutoscalerConfig {
                    up_windows: 0,
                    ..ok
                },
            ),
            (
                "zero target",
                AutoscalerConfig {
                    target_p99_us: Some(0.0),
                    ..ok
                },
            ),
        ] {
            assert!(cfg.validate().is_err(), "{name} must be rejected");
        }
    }

    #[test]
    fn identical_signal_sequences_yield_identical_decisions() {
        let signals: Vec<WindowSignals> = (0..40)
            .map(|n| {
                if (10..20).contains(&n) {
                    hot(n, 2 + (n as usize / 12))
                } else {
                    calm(n, 2 + (n as usize / 12))
                }
            })
            .collect();
        let run = || {
            let mut a = engine();
            signals.iter().map(|s| a.evaluate(s)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "pure state machine, no hidden inputs");
    }
}
