//! The parallel engine's contract, run adversarially: for ANY fleet
//! size, incident schedule, load, seed, and thread count, the
//! conservative engine must reproduce the sequential engine
//! bit-for-bit — same fleet trace hash, same ledger, same finish time,
//! same autoscaler decision sequence.
//!
//! The proptest sweeps randomized scenarios (optionally with a
//! mid-run kill and hedged dispatch — the hardest case, because a
//! hedge pullback is the one dispatcher action that reaches into two
//! shards at once) through 1/2/4/8 threads. Two campaign-level tests
//! then pin the named hard cases: the autoscaler's scale+kill race
//! (a crash landing mid-run while the fleet is growing and draining)
//! and the failover campaign's kill+hedge point.

use proptest::prelude::*;

use jord_core::{
    ClusterConfig, ClusterDispatcher, ClusterReport, EngineConfig, HedgeConfig, RuntimeConfig,
    SystemVariant, WorkerKill,
};
use jord_hw::MachineConfig;
use jord_workloads::{AutoscaleCampaign, FailoverCampaign, LoadGen, Workload, WorkloadKind};

/// One randomly shaped cluster scenario.
#[derive(Debug, Clone)]
struct Scenario {
    workers: usize,
    rate_rps: f64,
    requests: u16,
    seed: u64,
    /// Kill this worker at this fraction of the arrival span, if any.
    kill: Option<(usize, f64)>,
    /// Hedge trigger, µs, if any.
    hedge_after_us: Option<f64>,
    heartbeat_loss_rate: f64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (2usize..5, 0.5f64..3.0, 150u16..400, 0u64..10_000),
        (any::<bool>(), 0usize..4, 0.2f64..0.7),
        (any::<bool>(), 2.0f64..12.0),
        0.0f64..0.08,
    )
        .prop_map(
            |(
                (workers, rate_mrps, requests, seed),
                (kill_on, kill_w, kill_frac),
                (hedge_on, hedge_us),
                loss,
            )| Scenario {
                workers,
                rate_rps: rate_mrps * 1e6,
                requests,
                seed,
                kill: kill_on.then_some((kill_w % workers, kill_frac)),
                hedge_after_us: hedge_on.then_some(hedge_us),
                heartbeat_loss_rate: loss,
            },
        )
}

fn run_scenario(s: &Scenario, engine: Option<EngineConfig>) -> ClusterReport {
    let template =
        RuntimeConfig::variant_on(SystemVariant::Jord, MachineConfig::isca25()).with_seed(s.seed);
    let mut cfg = ClusterConfig::new(s.workers, s.seed, template);
    cfg.engine = engine;
    cfg.heartbeat_loss_rate = s.heartbeat_loss_rate;
    let span_us = s.requests as f64 / s.rate_rps * 1e6;
    if let Some((worker, frac)) = s.kill {
        cfg.kill = Some(WorkerKill {
            worker,
            at_us: span_us * frac,
        });
    }
    if let Some(after_us) = s.hedge_after_us {
        cfg.hedge = Some(HedgeConfig { after_us });
    }
    let workload = Workload::build(WorkloadKind::Hotel);
    let mut cluster =
        ClusterDispatcher::new(cfg, workload.registry.clone()).expect("valid cluster config");
    let mut gen = LoadGen::new(&workload, s.seed).expect("workload mix is sampleable");
    for (t, f, b) in gen.arrivals(s.rate_rps, s.requests as usize) {
        cluster.push_request(t, f, b);
    }
    cluster.run()
}

/// Every observable the two engines could disagree on.
fn assert_reports_match(oracle: &ClusterReport, rep: &ClusterReport, label: &str) {
    assert_eq!(rep.trace_hash, oracle.trace_hash, "{label}: trace hash");
    assert_eq!(rep.offered, oracle.offered, "{label}: offered");
    assert_eq!(rep.completed, oracle.completed, "{label}: completed");
    assert_eq!(rep.failed, oracle.failed, "{label}: failed");
    assert_eq!(rep.shed, oracle.shed, "{label}: shed");
    assert_eq!(rep.failover, oracle.failover, "{label}: failover stats");
    assert_eq!(rep.autoscale, oracle.autoscale, "{label}: autoscale stats");
    assert_eq!(rep.windows, oracle.windows, "{label}: window records");
    assert_eq!(rep.finished_at, oracle.finished_at, "{label}: finish time");
    assert_eq!(rep.p99(), oracle.p99(), "{label}: p99");
    assert_eq!(
        rep.probe.scheduled, oracle.probe.scheduled,
        "{label}: events scheduled"
    );
    assert_eq!(
        rep.probe.cancelled, oracle.probe.cancelled,
        "{label}: events cancelled"
    );
}

proptest! {
    // Each case runs the same cluster five times (oracle + four thread
    // counts); keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// ANY scenario — kills, hedges, lossy heartbeats — reproduces the
    /// sequential oracle bit-for-bit at every thread count.
    #[test]
    fn parallel_engine_matches_oracle_everywhere(s in arb_scenario()) {
        let oracle = run_scenario(&s, None);
        for threads in [1usize, 2, 4, 8] {
            let rep = run_scenario(&s, Some(EngineConfig::threads(threads)));
            assert_reports_match(&oracle, &rep, &format!("{threads} threads"));
        }
    }
}

/// The scale+kill race — the autoscaler growing and draining the fleet
/// while a crash lands mid-run — replays bit-identically on the
/// parallel engine: same point (trace hash included) and the same
/// autoscaler decision sequence, window by window.
#[test]
fn crash_mid_scale_matches_oracle_on_every_thread_count() {
    let w = Workload::build(WorkloadKind::Hotel);
    let c = AutoscaleCampaign::new(2.0e6, 4_000);
    let script = |cfg: &mut ClusterConfig, c: &AutoscaleCampaign| {
        cfg.kill = Some(WorkerKill {
            worker: AutoscaleCampaign::VICTIM,
            at_us: c.kill_at_us(),
        });
    };
    let (oracle, win_oracle) = c.run_cluster(&w, &c.crowd, true, script);
    for threads in [2usize, 4] {
        let pc = c.clone().engine(EngineConfig::threads(threads));
        let (rep, windows) = pc.run_cluster(&w, &pc.crowd, true, script);
        assert_reports_match(&oracle, &rep, &format!("scale+kill @ {threads} threads"));
        assert_eq!(
            windows, win_oracle,
            "decision sequences @ {threads} threads"
        );
    }
}

/// The kill+hedge point — hedged copies racing a dead worker's
/// detection window, with pullbacks cancelling the loser — is the
/// hardest case for the lookahead contract; it must still match the
/// oracle exactly.
#[test]
fn hedged_pullbacks_match_oracle_on_every_thread_count() {
    let w = Workload::build(WorkloadKind::Hotel);
    let c = FailoverCampaign::new(4.0e6, 2_000);
    let script = |c: &FailoverCampaign| {
        let kill = WorkerKill {
            worker: FailoverCampaign::VICTIM,
            at_us: c.kill_at_us(),
        };
        let hedge = HedgeConfig {
            after_us: FailoverCampaign::HEDGE_AFTER_US,
        };
        move |cfg: &mut ClusterConfig| {
            cfg.kill = Some(kill);
            cfg.hedge = Some(hedge);
        }
    };
    let oracle = c.run_point(&w, "kill+hedge", script(&c));
    assert!(oracle.hedges > 0, "the point must actually hedge");
    for threads in [2usize, 8] {
        let pc = c.clone().engine(EngineConfig::threads(threads));
        let point = pc.run_point(&w, "kill+hedge", script(&pc));
        assert_eq!(point, oracle, "kill+hedge @ {threads} threads");
    }
}
