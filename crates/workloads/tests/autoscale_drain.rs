//! Drain-aware rebalancing run adversarially: for ANY fleet size, drain
//! schedule, load, and seed, retiring N workers back to back must conserve
//! every request — the ledger balances, nothing is lost, and nothing
//! terminally fails, because a drain (unlike a crash) hands its queue and
//! in-flight work to the survivors before the worker goes away.
//!
//! A companion golden-trace test pins the harder schedule — autoscaler
//! scale events racing a mid-crowd kill of a worker the autoscaler itself
//! spawned — and asserts the whole run replays bit-identically: same
//! [`WindowRecord`] sequence, same fleet trace hash, zero lost.

use proptest::prelude::*;

use jord_core::{
    ClusterConfig, ClusterDispatcher, ClusterReport, DrainPlan, RuntimeConfig, SystemVariant,
    WorkerKill,
};
use jord_hw::MachineConfig;
use jord_workloads::{AutoscaleCampaign, LoadGen, Workload, WorkloadKind};

/// One randomly shaped consecutive-removal schedule.
#[derive(Debug, Clone)]
struct Removals {
    /// Initial fleet size.
    workers: usize,
    /// How many workers the schedule drains (always leaves one).
    drained: usize,
    /// First drain instant as a fraction of the arrival span.
    start_frac: f64,
    /// Gap between consecutive drains, µs.
    spacing_us: f64,
    rate_rps: f64,
    requests: u16,
    seed: u64,
}

fn arb_removals() -> impl Strategy<Value = Removals> {
    (
        (2usize..6, 0.0f64..1.0),
        (0.05f64..0.9, 1.0f64..60.0, 0.5f64..3.0),
        (150u16..500, 0u64..10_000),
    )
        .prop_map(
            |((workers, drain_frac), (start_frac, spacing_us, rate_mrps), (requests, seed))| {
                // 1..workers drains: always retire at least one worker and
                // always leave at least one alive.
                let drained = 1 + (drain_frac * (workers - 1) as f64) as usize;
                Removals {
                    workers,
                    drained: drained.min(workers - 1),
                    start_frac,
                    spacing_us,
                    rate_rps: rate_mrps * 1e6,
                    requests,
                    seed,
                }
            },
        )
}

fn run_removals(s: &Removals) -> ClusterReport {
    let template =
        RuntimeConfig::variant_on(SystemVariant::Jord, MachineConfig::isca25()).with_seed(s.seed);
    let mut cfg = ClusterConfig::new(s.workers, s.seed, template);
    let span_us = s.requests as f64 / s.rate_rps * 1e6;
    // Retire the highest-index workers one after another — the same order
    // the autoscaler's retire_candidates walks — leaving worker 0 alive.
    cfg.drains = (0..s.drained)
        .map(|i| DrainPlan {
            worker: s.workers - 1 - i,
            at_us: span_us * s.start_frac + i as f64 * s.spacing_us,
            resume_at_us: None,
        })
        .collect();
    let workload = Workload::build(WorkloadKind::Hotel);
    let mut cluster =
        ClusterDispatcher::new(cfg, workload.registry.clone()).expect("valid cluster config");
    let mut gen = LoadGen::new(&workload, s.seed).expect("workload mix is sampleable");
    for (t, f, b) in gen.arrivals(s.rate_rps, s.requests as usize) {
        cluster.push_request(t, f, b);
    }
    let rep = cluster.run();
    let audit = cluster.audit(&rep);
    prop_assert!(audit.is_ok(), "{:?} under {:?}", audit, s);
    rep
}

proptest! {
    // Each case runs a whole multi-worker cluster; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N consecutive drain-aware removals conserve every request: the
    /// ledger balances with zero lost, and — because a drain migrates its
    /// work instead of dropping it — zero terminal failures too.
    #[test]
    fn consecutive_removals_conserve_every_request(s in arb_removals()) {
        // run_removals audited the run: the ledger balances with zero lost.
        let rep = run_removals(&s);
        prop_assert_eq!(rep.offered, s.requests as u64);
        prop_assert_eq!(
            rep.failed, 0,
            "a graceful drain migrates in-flight work; nothing may terminally fail"
        );
        // No double-completion: every request completes at most once.
        prop_assert!(rep.completed <= rep.offered);
    }

    /// Removal schedules replay exactly: the same seed reproduces the
    /// identical fleet trace hash and totals.
    #[test]
    fn removal_schedules_are_deterministic(s in arb_removals()) {
        let a = run_removals(&s);
        let b = run_removals(&s);
        prop_assert_eq!(a.trace_hash, b.trace_hash);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.finished_at, b.finished_at);
    }
}

/// Golden trace: the autoscaled flash-crowd run with a kill landing on a
/// worker the autoscaler spawned (slot 2 only exists after the crowd
/// provokes a scale-up) replays decision-for-decision — identical window
/// sequence, identical trace hash — and the crash still loses nothing.
#[test]
fn scale_events_racing_a_crash_replay_identically() {
    let w = Workload::build(WorkloadKind::Hotel);
    let c = AutoscaleCampaign::new(2.0e6, 4_000);
    // Span is 2000 µs; the crowd steps at 500 µs and the scale-up lands
    // ~540 µs, spawning slots past the initial two. Kill one of those.
    let script = |cfg: &mut ClusterConfig, _: &AutoscaleCampaign| {
        cfg.kill = Some(WorkerKill {
            worker: 2,
            at_us: 600.0,
        });
    };
    // run_cluster audits both runs, so the race loses and leaks nothing.
    let (rep_a, win_a) = c.run_cluster(&w, &c.crowd, true, script);
    let (rep_b, win_b) = c.run_cluster(&w, &c.crowd, true, script);

    assert!(
        rep_a.autoscale.scale_ups >= 1,
        "the crowd must scale the fleet up"
    );
    assert!(
        rep_a.failover.evictions >= 1,
        "the kill must land on the spawned slot and be convicted"
    );

    assert!(!win_a.is_empty(), "autoscaled runs must record windows");
    assert_eq!(win_a, win_b, "decision sequences must replay exactly");
    assert_eq!(
        rep_a.trace_hash, rep_b.trace_hash,
        "fleet traces must match"
    );
    assert_eq!(rep_a.autoscale, rep_b.autoscale);
}
