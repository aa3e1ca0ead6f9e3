//! Latency statistics: HDR-style histograms and streaming moments.
//!
//! The paper reports p99-latency-vs-load curves (Fig. 9, 12, 13), a
//! service-time CDF (Fig. 10), and average latencies (Fig. 14). We record
//! latencies in a log-linear histogram — 2× value range per octave, 64 linear
//! sub-buckets each — giving ≤ ~3.2 % relative quantile error with a few KB of
//! memory and O(1) inserts, exactly the HdrHistogram trick.

use crate::time::SimDuration;

/// Number of linear sub-buckets per octave (power of two).
const SUB_BUCKETS: u64 = 64;
const SUB_BUCKET_BITS: u32 = 6;
/// Number of octaves covered above the first linear region.
/// Values up to `SUB_BUCKETS << (OCTAVES-1)` ps … we cover u64 fully below.
const OCTAVES: usize = 58;

/// A log-linear latency histogram over [`SimDuration`] values.
///
/// # Example
///
/// ```
/// use jord_sim::{LatencyHistogram, SimDuration};
///
/// let mut h = LatencyHistogram::new();
/// for ns in 1..=100 {
///     h.record(SimDuration::from_ns(ns));
/// }
/// let p50 = h.quantile(0.50).unwrap().as_ns_f64();
/// assert!((45.0..=55.0).contains(&p50));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ps: u128,
    max_ps: u64,
    min_ps: u64,
}

#[inline]
fn bucket_index(value_ps: u64) -> usize {
    if value_ps < SUB_BUCKETS {
        return value_ps as usize;
    }
    // Octave = position of the highest set bit above the linear region.
    let octave = 63 - value_ps.leading_zeros() - SUB_BUCKET_BITS + 1;
    let sub = (value_ps >> octave) & (SUB_BUCKETS - 1);
    // Octave o occupies SUB_BUCKETS/2 buckets (its lower half aliases the
    // previous octave's range).
    (SUB_BUCKETS + (octave as u64 - 1) * (SUB_BUCKETS / 2) + (sub - SUB_BUCKETS / 2)) as usize
}

#[inline]
fn bucket_upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let rel = index - SUB_BUCKETS;
    let octave = rel / (SUB_BUCKETS / 2) + 1;
    let sub = rel % (SUB_BUCKETS / 2) + SUB_BUCKETS / 2;
    // Upper edge of the bucket: ((sub+1) << octave) - 1
    ((sub + 1) << octave) - 1
}

impl LatencyHistogram {
    /// Creates an empty histogram covering the full `u64` picosecond range.
    pub fn new() -> Self {
        let n = SUB_BUCKETS as usize + OCTAVES * (SUB_BUCKETS as usize / 2);
        LatencyHistogram {
            buckets: vec![0; n],
            count: 0,
            sum_ps: 0,
            max_ps: 0,
            min_ps: u64::MAX,
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, d: SimDuration) {
        let ps = d.as_ps();
        let idx = bucket_index(ps).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ps += ps as u128;
        self.max_ps = self.max_ps.max(ps);
        self.min_ps = self.min_ps.min(ps);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the recorded values (exact, not bucketed), or
    /// `None` if empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        Some(SimDuration::from_ps(
            (self.sum_ps / self.count as u128) as u64,
        ))
    }

    /// Largest recorded value (exact), or `None` if empty.
    pub fn max(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_ps(self.max_ps))
    }

    /// Smallest recorded value (exact), or `None` if empty.
    pub fn min(&self) -> Option<SimDuration> {
        (self.count > 0).then(|| SimDuration::from_ps(self.min_ps))
    }

    /// The `q`-quantile (e.g. `0.99` for p99) with ≤ ~3.2 % relative error,
    /// or `None` if the histogram is empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Clamp to the true max so p100 is exact.
                return Some(SimDuration::from_ps(bucket_upper_bound(i).min(self.max_ps)));
            }
        }
        Some(SimDuration::from_ps(self.max_ps))
    }

    /// Convenience p99 accessor.
    pub fn p99(&self) -> Option<SimDuration> {
        self.quantile(0.99)
    }

    /// Returns `(upper_bound, cumulative_fraction)` points of the CDF, one
    /// per non-empty bucket — the series plotted in the paper's Figure 10.
    pub fn cdf_points(&self) -> Vec<(SimDuration, f64)> {
        let mut out = Vec::new();
        if self.count == 0 {
            return out;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            out.push((
                SimDuration::from_ps(bucket_upper_bound(i).min(self.max_ps)),
                seen as f64 / self.count as f64,
            ));
        }
        out
    }

    /// Merges another histogram into this one (e.g. per-core recorders).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.max_ps = self.max_ps.max(other.max_ps);
        self.min_ps = self.min_ps.min(other.min_ps);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Streaming mean/variance accumulator (Welford), for scalar series such as
/// dispatch latency or queue depth where quantiles are not needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Sample standard deviation, or `None` if fewer than two observations.
    pub fn std_dev(&self) -> Option<f64> {
        (self.n > 1).then(|| (self.m2 / (self.n - 1) as f64).sqrt())
    }

    /// Minimum observation, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for OnlineStats {
    /// The empty accumulator, the same as [`OnlineStats::new`]: its
    /// min/max start at ±∞ so the first sample sets both.
    fn default() -> Self {
        OnlineStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn bucket_index_monotone_nondecreasing() {
        let mut last = 0usize;
        for v in (0..1_000_000u64).step_by(97) {
            let idx = bucket_index(v);
            assert!(idx >= last, "index decreased at {v}");
            last = idx;
        }
    }

    #[test]
    fn bucket_upper_bound_brackets_value() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 65_535, 1 << 40] {
            let idx = bucket_index(v);
            let ub = bucket_upper_bound(idx);
            assert!(ub >= v, "upper bound {ub} < value {v}");
            // relative error bound: ub <= v * (1 + 2/SUB_BUCKETS) roughly
            if v >= SUB_BUCKETS {
                assert!(
                    (ub - v) as f64 / v as f64 <= 2.0 / SUB_BUCKETS as f64 + 1e-9,
                    "relative error too large at {v}: ub={ub}"
                );
            }
        }
    }

    #[test]
    fn quantiles_of_uniform_sequence() {
        let mut h = LatencyHistogram::new();
        for ns in 1..=10_000u64 {
            h.record(SimDuration::from_ns(ns));
        }
        let p50 = h.quantile(0.5).unwrap().as_ns_f64();
        let p99 = h.p99().unwrap().as_ns_f64();
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.035, "p50 {p50}");
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.035, "p99 {p99}");
        assert_eq!(h.quantile(1.0).unwrap(), SimDuration::from_ns(10_000));
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_ns(10));
        h.record(SimDuration::from_ns(20));
        h.record(SimDuration::from_ns(90));
        assert_eq!(h.mean().unwrap(), SimDuration::from_ns(40));
        assert_eq!(h.min().unwrap(), SimDuration::from_ns(10));
        assert_eq!(h.max().unwrap(), SimDuration::from_ns(90));
    }

    #[test]
    fn empty_histogram_returns_none() {
        let h = LatencyHistogram::new();
        assert!(h.quantile(0.99).is_none());
        assert!(h.mean().is_none());
        assert!(h.max().is_none());
        assert_eq!(h.cdf_points().len(), 0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut h = LatencyHistogram::new();
        let mut rng = Rng::new(8);
        for _ in 0..50_000 {
            h.record(SimDuration::from_ns_f64(rng.lognormal(2000.0, 1.0)));
        }
        let pts = h.cdf_points();
        assert!(!pts.is_empty());
        let mut prev = 0.0;
        for &(_, f) in &pts {
            assert!(f >= prev);
            prev = f;
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        let mut rng = Rng::new(9);
        for i in 0..10_000 {
            let d = SimDuration::from_ns_f64(rng.exponential(300.0));
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            all.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.quantile(0.99), all.quantile(0.99));
        assert_eq!(a.mean(), all.mean());
    }

    #[test]
    fn online_stats_moments() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.mean().unwrap(), 5.0);
        let sd = s.std_dev().unwrap();
        assert!((sd - 2.138).abs() < 0.01, "sd {sd}");
        assert_eq!(s.min().unwrap(), 2.0);
        assert_eq!(s.max().unwrap(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn default_online_stats_is_the_empty_accumulator() {
        assert_eq!(OnlineStats::default(), OnlineStats::new());
        // All samples positive, all negative: min and max are the
        // extremes seen, not a 0 the accumulator started from.
        for samples in [[3.0, 8.0, 5.0], [-3.0, -8.0, -5.0]] {
            let mut s = OnlineStats::default();
            samples.iter().for_each(|&x| s.record(x));
            let (lo, hi) = samples
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            assert_eq!((s.min(), s.max()), (Some(lo), Some(hi)));
        }
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut whole = OnlineStats::new();
        let mut rng = Rng::new(10);
        for i in 0..1000 {
            let x = rng.next_f64() * 100.0;
            if i < 400 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean().unwrap() - whole.mean().unwrap()).abs() < 1e-9);
        assert!((a.std_dev().unwrap() - whole.std_dev().unwrap()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn quantile_out_of_range_panics() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::from_ns(1));
        let _ = h.quantile(1.5);
    }
}
