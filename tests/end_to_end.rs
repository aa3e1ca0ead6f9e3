//! Cross-crate integration tests: the whole stack — workloads on the Jord
//! runtime on PrivLib on the simulated hardware — behaving as the paper
//! describes.

use jord::prelude::*;

/// Runs `system` on `kind` at `rate` and returns the report.
fn run(kind: WorkloadKind, system: SystemVariant, rate: f64, n: usize) -> jord::core::RunReport {
    let w = Workload::build(kind);
    RunSpec::new(system, rate).requests(n, n / 10).run(&w)
}

#[test]
fn every_workload_completes_on_every_system() {
    for kind in WorkloadKind::ALL {
        for sys in SystemVariant::ALL {
            let rep = run(kind, sys, 0.1e6, 300);
            assert_eq!(rep.completed, 300, "{kind:?} on {}", sys.label());
            assert!(rep.invocations >= rep.completed);
            assert!(rep.p99().is_some());
        }
    }
}

#[test]
fn latency_ordering_ni_jord_bt_nightcore() {
    // At a moderate shared load the paper's ordering must hold:
    // Jord_NI ≤ Jord ≤ Jord_BT, and NightCore far behind.
    let kind = WorkloadKind::Hotel;
    let ni = run(kind, SystemVariant::JordNi, 1.0e6, 2_000)
        .latency
        .mean()
        .unwrap();
    let jord = run(kind, SystemVariant::Jord, 1.0e6, 2_000)
        .latency
        .mean()
        .unwrap();
    let bt = run(kind, SystemVariant::JordBt, 1.0e6, 2_000)
        .latency
        .mean()
        .unwrap();
    let nc = run(kind, SystemVariant::NightCore, 1.0e6, 2_000)
        .latency
        .mean()
        .unwrap();
    assert!(ni < jord, "NI {ni} < Jord {jord}");
    assert!(jord < bt, "Jord {jord} < BT {bt}");
    assert!(nc > bt * 2, "NightCore {nc} must trail far behind BT {bt}");
}

#[test]
fn jord_is_within_tens_of_percent_of_ni_at_moderate_load() {
    // §6.1: "Jord performs within 16% of Jord_NI" (Media excepted). Latency
    // at moderate load is the per-request view of the same claim; allow a
    // wider band than the paper's throughput metric.
    for kind in [WorkloadKind::Hipster, WorkloadKind::Hotel] {
        let ni = run(kind, SystemVariant::JordNi, 1.0e6, 2_000)
            .latency
            .mean()
            .unwrap()
            .as_ns_f64();
        let jord = run(kind, SystemVariant::Jord, 1.0e6, 2_000)
            .latency
            .mean()
            .unwrap()
            .as_ns_f64();
        let gap = jord / ni - 1.0;
        assert!(
            gap < 0.45,
            "{kind:?}: Jord should be close to NI, got +{:.0}%",
            gap * 100.0
        );
    }
}

#[test]
fn media_suffers_most_from_isolation() {
    // §6.1: Media's ~12 nested calls per request compound per-invocation
    // overheads; its Jord/NI gap must exceed Hipster's.
    let gap = |kind| {
        let ni = run(kind, SystemVariant::JordNi, 0.5e6, 1_500)
            .latency
            .mean()
            .unwrap()
            .as_ns_f64();
        let jord = run(kind, SystemVariant::Jord, 0.5e6, 1_500)
            .latency
            .mean()
            .unwrap()
            .as_ns_f64();
        jord / ni
    };
    let media = gap(WorkloadKind::Media);
    let hipster = gap(WorkloadKind::Hipster);
    assert!(
        media > hipster,
        "Media gap ({media:.2}) must exceed Hipster's ({hipster:.2})"
    );
}

#[test]
fn nightcore_fails_hipster_slo_even_at_minimum_load() {
    // §6.1: "NightCore fails to meet the SLO even under minimum load" on
    // the communication-heavy workloads.
    let w = Workload::build(WorkloadKind::Hipster);
    let slo = measure_slo(&w, 0.05e6, 1_000).expect("probe produced latencies");
    let rep = RunSpec::new(SystemVariant::NightCore, 0.05e6)
        .requests(1_000, 100)
        .run(&w);
    assert!(
        rep.p99().unwrap() > slo,
        "NightCore p99 {} must exceed the SLO {}",
        rep.p99().unwrap(),
        slo
    );
}

#[test]
fn isolation_overhead_is_nanoseconds_per_request() {
    // §6.2: dispatch + memory isolation lands in the hundreds of
    // nanoseconds per request, microseconds only for Media.
    let rep = run(WorkloadKind::Hipster, SystemVariant::Jord, 1.0e6, 2_000);
    let ovh = rep.overhead_per_request_ns();
    assert!(
        (100.0..2_500.0).contains(&ovh),
        "Hipster overhead {ovh:.0} ns/request out of range"
    );
    let media = run(WorkloadKind::Media, SystemVariant::Jord, 0.5e6, 1_500);
    assert!(
        media.overhead_per_request_ns() > ovh,
        "Media must pay more overhead per request"
    );
}

#[test]
fn service_time_cdf_shape_matches_figure_10() {
    // 75% of function service times below ~5 µs; Social's tail an order
    // of magnitude beyond.
    for kind in WorkloadKind::ALL {
        let rep = run(kind, SystemVariant::Jord, 0.08e6, 2_000);
        let p75 = rep.service.quantile(0.75).unwrap().as_us_f64();
        assert!(p75 < 6.0, "{kind:?} p75 = {p75:.1} us");
    }
    let social = run(WorkloadKind::Social, SystemVariant::Jord, 0.08e6, 2_000);
    let tail = social.service.quantile(0.999).unwrap().as_us_f64();
    assert!(
        (40.0..400.0).contains(&tail),
        "Social tail {tail:.0} us should be ~75 us"
    );
}

#[test]
fn runs_are_bit_for_bit_reproducible() {
    let a = run(WorkloadKind::Media, SystemVariant::Jord, 0.5e6, 800);
    let b = run(WorkloadKind::Media, SystemVariant::Jord, 0.5e6, 800);
    assert_eq!(a.p99(), b.p99());
    assert_eq!(a.invocations, b.invocations);
    assert_eq!(a.finished_at, b.finished_at);
    assert_eq!(
        a.dispatch_ns.mean().unwrap().to_bits(),
        b.dispatch_ns.mean().unwrap().to_bits()
    );
}

#[test]
fn btree_variant_pays_for_walks_but_agrees_semantically() {
    // Same load, same seed: identical completions, different time.
    let jord = run(WorkloadKind::Hotel, SystemVariant::Jord, 2.0e6, 1_500);
    let bt = run(WorkloadKind::Hotel, SystemVariant::JordBt, 2.0e6, 1_500);
    assert_eq!(jord.completed, bt.completed);
    // Invocation records near the warm-up boundary shift with timing, so
    // the counts agree only approximately.
    let diff = jord.invocations.abs_diff(bt.invocations);
    assert!(diff < 50, "invocation counts far apart: {diff}");
    assert!(bt.latency.mean().unwrap() > jord.latency.mean().unwrap());
}
