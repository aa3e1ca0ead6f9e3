//! Simulated time.
//!
//! Time is counted in integer **picoseconds** so that a single cycle of the
//! paper's 4 GHz cores (250 ps) is exactly representable, as are all latencies
//! in Table 2 (e.g. 3 cycles/NoC hop = 750 ps) and Table 4 (nanosecond-scale
//! VMA/PD operations). A `u64` of picoseconds covers ~213 days of simulated
//! time, far beyond any experiment in the paper.
//!
//! The hardware model charges cycles as `cycles × cycle_ps` in integers:
//! `jord_hw::MachineConfig::validate` admits only clocks with a whole number
//! of picoseconds per cycle, and `jord_hw::Noc` holds that number and every
//! fixed latency of the machine, priced once. Only latencies given in
//! fractional nanoseconds go through [`SimDuration::from_ns_f64`].

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
const PS_PER_US: u64 = 1_000_000;

/// An instant in simulated time, measured in picoseconds from simulation start.
///
/// `SimTime` is an absolute point on the timeline; [`SimDuration`] is a span.
/// The distinction mirrors `std::time::{Instant, Duration}` and prevents the
/// classic bug of adding two absolute timestamps.
///
/// # Example
///
/// ```
/// use jord_sim::{SimTime, SimDuration};
///
/// let start = SimTime::ZERO;
/// let later = start + SimDuration::from_ns(42);
/// assert_eq!(later - start, SimDuration::from_ns(42));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The last representable instant (~213 days in). Scheduling an event
    /// here is legal: the event queue compares instants and never adds to
    /// them.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant `ps` picoseconds after simulation start.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Constructs an instant `ns` nanoseconds after simulation start.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Constructs an instant `us` microseconds after simulation start.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// Raw picosecond count since simulation start.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time since start in (possibly fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Time since start in (possibly fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

/// A span of simulated time, measured in picoseconds.
///
/// Durations are produced by the hardware model (access latencies, NoC
/// traversals) and by workload compute phases; they accumulate into service
/// times and end-to-end request latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs a span of `ps` picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Constructs a span of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Constructs a span of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Constructs a span from a fractional nanosecond count, rounding to the
    /// nearest picosecond. Negative inputs clamp to zero.
    pub fn from_ns_f64(ns: f64) -> Self {
        if ns <= 0.0 {
            return SimDuration::ZERO;
        }
        // Same result as `(ns * 1000.0).round() as u64` for every f64, without
        // the libm call `round` becomes on the baseline x86-64 target. The
        // cast truncates and saturates. Below 2^53 the subtraction is exact
        // (Sterbenz), so the half-way test is exact; at or above 2^53 every
        // f64 is integral and the fraction is 0. NaN casts to 0 and +inf to
        // u64::MAX, as before.
        let x = ns * PS_PER_NS as f64;
        let whole = x as u64;
        if x - whole as f64 >= 0.5 {
            SimDuration(whole.saturating_add(1))
        } else {
            SimDuration(whole)
        }
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Span in (possibly fractional) nanoseconds.
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / PS_PER_NS as f64
    }

    /// Span in (possibly fractional) microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// True if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < PS_PER_US {
            write!(f, "{:.2}ns", self.as_ns_f64())
        } else {
            write!(f, "{:.3}us", self.as_us_f64())
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_us_conversions_roundtrip() {
        let d = SimDuration::from_ns(1234);
        assert_eq!(d.as_ns_f64(), 1234.0);
        assert_eq!(SimDuration::from_us(2).as_ns_f64(), 2000.0);
        assert_eq!(SimTime::from_us(3).as_us_f64(), 3.0);
    }

    #[test]
    fn instant_plus_duration_arithmetic() {
        let t = SimTime::from_ns(10) + SimDuration::from_ns(5);
        assert_eq!(t, SimTime::from_ns(15));
        assert_eq!(t - SimTime::from_ns(10), SimDuration::from_ns(5));
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_ns(1);
        let late = SimTime::from_ns(9);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_ns(8));
    }

    #[test]
    fn from_ns_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_ns_f64(1.2345).as_ps(), 1235);
        assert_eq!(SimDuration::from_ns_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling_and_sum() {
        let d = SimDuration::from_ns(7);
        assert_eq!(d * 3, SimDuration::from_ns(21));
        assert_eq!((d * 4) / 2, SimDuration::from_ns(14));
        let total: SimDuration = [d, d, d].into_iter().sum();
        assert_eq!(total, SimDuration::from_ns(21));
    }

    #[test]
    fn max_picks_longer_span() {
        let a = SimDuration::from_ns(3);
        let b = SimDuration::from_ns(8);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn display_switches_units() {
        assert_eq!(format!("{}", SimDuration::from_ns(5)), "5.00ns");
        assert_eq!(format!("{}", SimDuration::from_us(2)), "2.000us");
    }
}
