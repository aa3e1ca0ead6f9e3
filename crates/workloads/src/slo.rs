//! SLO machinery (§5).
//!
//! "We use throughput under 99-percentile latency as the main performance
//! metric, with SLO set to 10× the minimal-load service time on Jord_NI,
//! as is common in the literature."

use std::fmt;

use jord_core::SystemVariant;
use jord_sim::SimDuration;

use crate::apps::Workload;
use crate::runner::{RunSpec, SweepPoint};

/// Why an SLO measurement could not be taken.
#[derive(Debug, Clone, PartialEq)]
pub enum SloError {
    /// A run finished without recording a single latency sample — e.g. a
    /// probe so short every request fell inside the warm-up window, or a
    /// load every request of which was shed.
    NoLatencies {
        /// Which run produced nothing ("probe", "sweep").
        context: &'static str,
        /// The offered load of that run, requests/second.
        rate_rps: f64,
    },
}

impl fmt::Display for SloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SloError::NoLatencies { context, rate_rps } => write!(
                f,
                "{context} run at {rate_rps:.0} rps produced no latency samples; \
                 offer more measured requests"
            ),
        }
    }
}

impl std::error::Error for SloError {}

/// Measures the workload's SLO: 10× the mean request latency of Jord_NI
/// at minimal load (`probe_rps`, far below saturation).
///
/// # Errors
///
/// [`SloError::NoLatencies`] when the probe run completes nothing to
/// measure.
pub fn measure_slo(
    workload: &Workload,
    probe_rps: f64,
    requests: usize,
) -> Result<SimDuration, SloError> {
    let rep = RunSpec::new(SystemVariant::JordNi, probe_rps)
        .requests(requests, requests / 10 + 50)
        .run(workload);
    let base = rep.latency.mean().ok_or(SloError::NoLatencies {
        context: "probe",
        rate_rps: probe_rps,
    })?;
    Ok(base * 10)
}

/// Sweeps `system` over `loads` (requests/second), returning the measured
/// points and the highest offered load whose p99 met `slo`.
///
/// Points are returned for every load (the Figure 9 curves); the
/// throughput-under-SLO summary is the second element.
///
/// # Errors
///
/// [`SloError::NoLatencies`] when a sweep run completes nothing to
/// measure.
pub fn throughput_under_slo(
    system: SystemVariant,
    workload: &Workload,
    loads: &[f64],
    slo: SimDuration,
    requests: usize,
) -> Result<(Vec<SweepPoint>, f64), SloError> {
    let mut points = Vec::with_capacity(loads.len());
    let mut best = 0.0f64;
    for &rate in loads {
        let rep = RunSpec::new(system, rate)
            .requests(requests, requests / 10 + 100)
            .run(workload);
        let empty = || SloError::NoLatencies {
            context: "sweep",
            rate_rps: rate,
        };
        let p99 = rep.p99().ok_or_else(empty)?;
        let mean = rep.latency.mean().ok_or_else(empty)?;
        points.push(SweepPoint {
            rate_rps: rate,
            p99_us: p99.as_us_f64(),
            mean_us: mean.as_us_f64(),
        });
        if p99 <= slo {
            best = best.max(rate);
        }
    }
    Ok((points, best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::WorkloadKind;

    #[test]
    fn slo_is_ten_times_baseline() {
        let w = Workload::build(WorkloadKind::Hipster);
        let slo = measure_slo(&w, 0.05e6, 400).unwrap();
        let us = slo.as_us_f64();
        // Hipster's minimal-load request latency is a few µs → SLO tens of µs.
        assert!(
            (5.0..200.0).contains(&us),
            "Hipster SLO should be tens of µs, got {us:.1}"
        );
    }

    #[test]
    fn sweep_reports_monotone_latency_growth_toward_saturation() {
        let w = Workload::build(WorkloadKind::Hotel);
        let slo = measure_slo(&w, 0.05e6, 300).unwrap();
        let loads = [0.2e6, 2.0e6];
        let (points, best) =
            throughput_under_slo(SystemVariant::Jord, &w, &loads, slo, 1_500).unwrap();
        assert_eq!(points.len(), 2);
        assert!(
            points[1].p99_us >= points[0].p99_us,
            "heavier load must not lower p99"
        );
        assert!(best >= 0.2e6, "light load must meet SLO");
    }

    #[test]
    fn best_is_the_highest_load_whose_p99_meets_the_slo() {
        let w = Workload::build(WorkloadKind::Hotel);
        // Two light loads and one far past saturation.
        let loads = [0.2e6, 1.0e6, 20.0e6];
        let sweep = |slo| throughput_under_slo(SystemVariant::Jord, &w, &loads, slo, 300).unwrap();
        let (points, none) = sweep(SimDuration::ZERO);
        assert_eq!(none, 0.0, "no load meets a zero SLO");
        let p99 = |i: usize| SimDuration::from_ns_f64(points[i].p99_us * 1e3);
        let light = p99(0).max(p99(1));
        assert!(p99(2) > light, "the saturated load must have the worst p99");
        assert_eq!(sweep(light).1, 1.0e6, "both light loads pass: the higher");
        assert_eq!(sweep(p99(2)).1, 20.0e6, "every load passes: the highest");
    }

    #[test]
    fn empty_probe_is_a_typed_error_not_a_panic() {
        let w = Workload::build(WorkloadKind::Hotel);
        // Zero measured requests: everything lands in the warm-up window,
        // so the probe has no samples to average.
        let err = measure_slo(&w, 0.05e6, 0).unwrap_err();
        assert!(
            matches!(
                err,
                SloError::NoLatencies {
                    context: "probe",
                    ..
                }
            ),
            "got {err:?}"
        );
        assert!(err.to_string().contains("no latency samples"));
    }
}
