//! Phi-accrual failure detection for cluster workers.
//!
//! Each worker sends a heartbeat to the dispatcher every
//! `HEARTBEAT_EVERY_US` (5 µs). The dispatcher runs one
//! [`PhiAccrual`] detector per worker: instead of a binary alive/dead
//! timeout, the detector outputs a continuously rising suspicion level
//! φ (Hayashibara et al., SRDS'04), and the dispatcher acts on two
//! thresholds — *suspect* (stop preferring the worker for new routes)
//! and *evict* (declare it dead and fail its stranded requests over).
//!
//! We use the exponential variant: assuming inter-heartbeat gaps are
//! roughly exponential with mean μ, the probability that a heartbeat is
//! still outstanding Δ after the last one is `exp(-Δ/μ)`, so
//!
//! ```text
//! φ(Δ) = -log10 P(still alive) = Δ / (μ · ln 10)
//! ```
//!
//! φ = 1 means "only 10% of healthy gaps are this long", φ = 3 means
//! 0.1%. The inverse, [`PhiAccrual::time_to_phi`], tells the dispatcher
//! exactly when φ will cross a threshold if no heartbeat arrives — so
//! detection needs no polling: the dispatcher schedules one check event
//! per threshold per accepted heartbeat, and a later heartbeat simply
//! invalidates the scheduled checks via the epoch counter.

use std::collections::VecDeque;

use jord_sim::{SimDuration, SimTime};

/// `1 / ln 10`: converts a natural-log survival exponent to −log10.
const LOG10_E: f64 = std::f64::consts::LOG10_E;

/// Heartbeat period per worker (µs of simulated time).
pub(crate) const HEARTBEAT_EVERY_US: f64 = 5.0;
/// φ at which a worker becomes *suspected*: new work prefers other
/// workers, but nothing is failed over yet.
pub(crate) const SUSPECT_PHI: f64 = 1.0;
/// φ at which a worker is *evicted*: declared dead, its stranded requests
/// re-routed (at-least-once) or failed (at-most-once).
pub(crate) const EVICT_PHI: f64 = 3.0;
/// Sliding-window length (heartbeat intervals) for the mean-gap estimate.
const PHI_WINDOW: usize = 32;
/// Below this many observed intervals the detector falls back to
/// `HEARTBEAT_EVERY_US` instead of the sample mean (a cold detector must
/// not evict on its first gap).
const PHI_MIN_SAMPLES: usize = 8;
/// Consecutive accepted heartbeats an evicted worker must deliver before
/// readmission (probation).
pub(crate) const READMIT_AFTER: u32 = 2;

/// The dispatcher's routing view of one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerHealth {
    /// Heartbeats on time; full member of the routing set.
    Healthy,
    /// φ crossed the suspect threshold; routed to only when no healthy
    /// worker exists.
    Suspected,
    /// φ crossed the evict threshold; removed from routing, stranded
    /// work failed over. Readmitted after probation heartbeats.
    Evicted,
    /// Administratively draining: finishes in-flight work, admits
    /// nothing new, queued work is rebalanced away.
    Draining,
    /// Permanently removed by the autoscaler: never routed to again,
    /// heartbeats and φ checks for it are ignored. Unlike
    /// [`Evicted`](Self::Evicted) there is no probation path back.
    Retired,
}

/// Phi-accrual detector state for one worker (dispatcher side).
#[derive(Debug, Clone)]
pub struct PhiAccrual {
    /// Sliding window of observed inter-heartbeat gaps (µs).
    intervals: VecDeque<f64>,
    last_heartbeat: Option<SimTime>,
    /// Bumped on every accepted heartbeat; scheduled φ-threshold checks
    /// carry the epoch they were armed under and no-op when stale.
    epoch: u64,
}

impl Default for PhiAccrual {
    fn default() -> Self {
        PhiAccrual::new()
    }
}

impl PhiAccrual {
    /// A cold detector (no heartbeats seen).
    pub fn new() -> Self {
        PhiAccrual {
            intervals: VecDeque::with_capacity(PHI_WINDOW),
            last_heartbeat: None,
            epoch: 0,
        }
    }

    /// Records an accepted heartbeat at `at`; returns the new epoch.
    /// Check events armed under earlier epochs are now stale.
    pub fn heartbeat(&mut self, at: SimTime) -> u64 {
        if let Some(prev) = self.last_heartbeat {
            let gap_us = at.saturating_since(prev).as_ns_f64() / 1_000.0;
            if self.intervals.len() == PHI_WINDOW {
                self.intervals.pop_front();
            }
            self.intervals.push_back(gap_us);
        }
        self.last_heartbeat = Some(at);
        self.epoch += 1;
        self.epoch
    }

    /// The mean inter-heartbeat gap the φ computation assumes (µs):
    /// the window mean once warm, the nominal period while cold.
    pub fn mean_interval_us(&self) -> f64 {
        if self.intervals.len() < PHI_MIN_SAMPLES {
            HEARTBEAT_EVERY_US
        } else {
            self.intervals.iter().sum::<f64>() / self.intervals.len() as f64
        }
    }

    /// Current suspicion level: `φ = Δ / (μ · ln 10)` where Δ is the
    /// time since the last accepted heartbeat. Zero before the first
    /// heartbeat (an unborn worker is not a dead worker).
    pub fn phi(&self, now: SimTime) -> f64 {
        let Some(last) = self.last_heartbeat else {
            return 0.0;
        };
        let delta_us = now.saturating_since(last).as_ns_f64() / 1_000.0;
        delta_us * LOG10_E / self.mean_interval_us()
    }

    /// How long after the last accepted heartbeat φ reaches `phi`:
    /// `Δ = φ · μ · ln 10`. The dispatcher schedules its suspect/evict
    /// checks at `last_heartbeat() + time_to_phi(threshold)`.
    pub fn time_to_phi(&self, phi: f64) -> SimDuration {
        let delta_us = phi * self.mean_interval_us() / LOG10_E;
        SimDuration::from_ns_f64(delta_us * 1_000.0)
    }

    /// The epoch of the most recent accepted heartbeat.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// When the last accepted heartbeat arrived.
    pub fn last_heartbeat(&self) -> Option<SimTime> {
        self.last_heartbeat
    }

    /// Forgets all history (worker rebooted): the next heartbeat is
    /// treated as the first. The epoch keeps counting so pre-reset
    /// check events stay stale.
    pub fn reset(&mut self) {
        self.intervals.clear();
        self.last_heartbeat = None;
        self.epoch += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm(det: &mut PhiAccrual, every_us: u64, beats: usize) -> SimTime {
        let mut t = SimTime::ZERO;
        for i in 0..beats {
            t = SimTime::from_us(i as u64 * every_us);
            det.heartbeat(t);
        }
        t
    }

    #[test]
    fn phi_rises_with_silence_and_resets_on_heartbeat() {
        let mut det = PhiAccrual::new();
        let last = warm(&mut det, 5, 20);
        assert_eq!(det.phi(last), 0.0);
        let p1 = det.phi(last + SimDuration::from_us(5));
        let p2 = det.phi(last + SimDuration::from_us(15));
        assert!(
            p1 > 0.0 && p2 > p1,
            "phi must rise monotonically: {p1} {p2}"
        );
        det.heartbeat(last + SimDuration::from_us(20));
        assert_eq!(det.phi(last + SimDuration::from_us(20)), 0.0);
    }

    #[test]
    fn time_to_phi_inverts_phi() {
        let mut det = PhiAccrual::new();
        let last = warm(&mut det, 5, 20);
        for phi in [1.0, 3.0, 8.0] {
            let at = last + det.time_to_phi(phi);
            let got = det.phi(at);
            assert!(
                (got - phi).abs() < 1e-6,
                "phi at time_to_phi({phi}) was {got}"
            );
        }
    }

    #[test]
    fn cold_detector_uses_configured_period() {
        let det = PhiAccrual::new();
        assert_eq!(det.mean_interval_us(), 5.0);
        assert_eq!(det.phi(SimTime::from_us(1_000)), 0.0, "no heartbeat yet");
        // With μ = 5 µs, φ = 3 corresponds to Δ = 3 · 5 · ln10 ≈ 34.5 µs.
        let d = det.time_to_phi(3.0).as_ns_f64() / 1000.0;
        assert!((d - 34.539).abs() < 0.01, "evict horizon {d} µs");
    }

    #[test]
    fn window_mean_tracks_observed_cadence() {
        let mut det = PhiAccrual::new();
        // Heartbeats actually arriving every 10 µs (twice the nominal
        // period): once warm, μ must come from observation.
        warm(&mut det, 10, PHI_MIN_SAMPLES + 1);
        assert_eq!(det.mean_interval_us(), 10.0);
        // And the window slides: switch cadence, mean follows.
        let mut t = SimTime::from_us(10 * PHI_MIN_SAMPLES as u64);
        for _ in 0..PHI_WINDOW {
            t += SimDuration::from_us(2);
            det.heartbeat(t);
        }
        assert_eq!(det.mean_interval_us(), 2.0);
    }

    #[test]
    fn epochs_invalidate_scheduled_checks() {
        let mut det = PhiAccrual::new();
        let e1 = det.heartbeat(SimTime::from_us(5));
        let e2 = det.heartbeat(SimTime::from_us(10));
        assert!(e2 > e1, "each heartbeat must open a fresh epoch");
        assert_eq!(det.epoch(), e2);
        det.reset();
        assert!(det.epoch() > e2, "reset must also invalidate old checks");
        assert_eq!(det.last_heartbeat(), None);
        assert_eq!(det.phi(SimTime::from_us(1_000)), 0.0);
    }
}
