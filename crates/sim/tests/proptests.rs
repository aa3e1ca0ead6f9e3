//! Property-based tests of the simulation kernel.

use proptest::prelude::*;

use jord_sim::{EventQueue, LatencyHistogram, OnlineStats, Rng, SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The event queue is a total order: pops are non-decreasing in time,
    /// and simultaneous events come out in insertion order.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_ns(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, id)) = q.pop() {
            if let Some((lt, lid)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(id > lid, "FIFO violated for simultaneous events");
                }
            }
            last = Some((t, id));
        }
    }

    /// Histogram quantiles are monotone in q, bounded by min/max, and the
    /// recorded count is exact.
    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        values in proptest::collection::vec(1u64..10_000_000, 1..500),
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(SimDuration::from_ps(v));
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let mut prev = SimDuration::ZERO;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let x = h.quantile(q).unwrap();
            prop_assert!(x >= prev, "quantile not monotone at q={q}");
            prop_assert!(x <= SimDuration::from_ps(max));
            prev = x;
        }
        prop_assert_eq!(h.quantile(1.0).unwrap(), SimDuration::from_ps(max));
        // The reported quantile upper-bounds the true order statistic with
        // ≤ ~3.2% relative error.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let true_p50 = sorted[(values.len() - 1) / 2];
        let est = h.quantile(0.5).unwrap().as_ps();
        prop_assert!(est as f64 >= true_p50 as f64 * 0.999);
        prop_assert!((est as f64) <= true_p50 as f64 * 1.04 + 2.0, "p50 est {est} vs true {true_p50}");
        let _ = min;
    }

    /// Merging histograms is equivalent to recording the union.
    #[test]
    fn histogram_merge_is_union(
        a in proptest::collection::vec(1u64..1_000_000, 0..200),
        b in proptest::collection::vec(1u64..1_000_000, 0..200),
    ) {
        let mut ha = LatencyHistogram::new();
        let mut hb = LatencyHistogram::new();
        let mut hu = LatencyHistogram::new();
        for &v in &a { ha.record(SimDuration::from_ps(v)); hu.record(SimDuration::from_ps(v)); }
        for &v in &b { hb.record(SimDuration::from_ps(v)); hu.record(SimDuration::from_ps(v)); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        for q in [0.25, 0.5, 0.9, 0.99] {
            prop_assert_eq!(ha.quantile(q), hu.quantile(q));
        }
    }

    /// Welford merging matches sequential accumulation to fp tolerance.
    #[test]
    fn online_stats_merge_matches(
        a in proptest::collection::vec(-1.0e6f64..1.0e6, 1..100),
        b in proptest::collection::vec(-1.0e6f64..1.0e6, 1..100),
    ) {
        let mut sa = OnlineStats::new();
        let mut sb = OnlineStats::new();
        let mut su = OnlineStats::new();
        for &x in &a { sa.record(x); su.record(x); }
        for &x in &b { sb.record(x); su.record(x); }
        sa.merge(&sb);
        prop_assert_eq!(sa.count(), su.count());
        let (m1, m2) = (sa.mean().unwrap(), su.mean().unwrap());
        prop_assert!((m1 - m2).abs() <= 1e-6 * (1.0 + m2.abs()));
    }

    /// Forked RNG streams are independent of how many draws the sibling
    /// makes, and identical seeds give identical streams.
    #[test]
    fn rng_fork_stability(seed in any::<u64>(), sibling_draws in 0usize..8, stream in 0u64..16) {
        let mut r1 = Rng::new(seed);
        let mut r2 = Rng::new(seed);
        let mut child1 = r1.fork(stream);
        let mut child2 = r2.fork(stream);
        // Sibling activity after the fork must not perturb the child.
        for _ in 0..sibling_draws {
            let _ = r2.next_u64();
        }
        for _ in 0..16 {
            prop_assert_eq!(child1.next_u64(), child2.next_u64());
        }
    }

    /// Distribution samples stay in their mathematical support.
    #[test]
    fn distributions_respect_support(seed in any::<u64>()) {
        use jord_sim::TimeDist;
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            let u = TimeDist::Uniform { lo_ns: 5.0, hi_ns: 9.0 }.sample(&mut rng).as_ns_f64();
            prop_assert!((5.0..=9.0).contains(&u));
            let e = TimeDist::Exponential { mean_ns: 100.0 }.sample(&mut rng);
            prop_assert!(e.as_ns_f64() >= 0.0);
            let l = TimeDist::lognormal(1000.0, 0.5).sample(&mut rng);
            prop_assert!(l.as_ns_f64() > 0.0);
        }
    }
}

/// The rounding `SimDuration::from_ns_f64` replaced: nearest picosecond,
/// ties away from zero, non-positive inputs clamped to zero.
fn rounded_ps(ns: f64) -> u64 {
    if ns <= 0.0 {
        0
    } else {
        (ns * 1000.0).round() as u64
    }
}

fn assert_rounds_like_reference(ns: f64) {
    assert_eq!(
        SimDuration::from_ns_f64(ns).as_ps(),
        rounded_ps(ns),
        "from_ns_f64({ns:e}) (bits {:#018x})",
        ns.to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `from_ns_f64` equals `round()` on random bit patterns (every
    /// exponent, NaNs and infinities included), on simulator-sized
    /// spans, and on exact half-picosecond ties and their neighbours.
    #[test]
    fn from_ns_f64_matches_round(
        bits in any::<u64>(),
        span in 0.0f64..1e7,
        tie in 0u64..(1 << 45),
        step in -2i64..3,
    ) {
        assert_rounds_like_reference(f64::from_bits(bits));
        assert_rounds_like_reference(span);
        // (2k+1)/16 ns is exactly 62.5 * (2k+1) ps: a half-picosecond tie.
        let tie_ns = (2 * tie + 1) as f64 / 16.0;
        prop_assert_eq!((tie_ns * 1000.0).fract(), 0.5);
        assert_rounds_like_reference(tie_ns);
        assert_rounds_like_reference(f64::from_bits(tie_ns.to_bits().wrapping_add_signed(step)));
    }
}

/// The edges of the truncate-and-compare rounding: where f64 can last hold
/// a half picosecond (2^52), where every f64 is integral (2^53), where the
/// cast saturates (2^64), and the non-finite, subnormal and non-positive
/// inputs.
#[test]
fn from_ns_f64_matches_round_at_edges() {
    for ps in [2f64.powi(52), 2f64.powi(53), 2f64.powi(64)] {
        let ns = ps / 1000.0;
        for step in -16i64..=16 {
            assert_rounds_like_reference(f64::from_bits(ns.to_bits().wrapping_add_signed(step)));
        }
    }
    for ns in [
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(0x000f_ffff_ffff_ffff),
        0.0,
        -0.0,
        -1.5,
        -0.0005,
        f64::MIN,
        0.0005,
        0.0005f64.next_down(),
        0.0005f64.next_up(),
        0.0015,
    ] {
        assert_rounds_like_reference(ns);
    }
}
