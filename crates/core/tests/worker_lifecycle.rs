//! End-to-end worker lifecycle tests: the full battery of invocation,
//! fault-injection, crash/recovery, and cluster-hook scenarios exercised
//! through the public `WorkerServer` API. Moved out of `server.rs` when
//! the lifecycle engine refactor shrank the module to runtime code only.

use jord_core::{
    CrashSemantics, FuncOp, FunctionId, FunctionRegistry, FunctionSpec, NoticeOutcome,
    RuntimeConfig, SystemVariant, WorkerServer,
};
use jord_hw::{CrashPlan, FaultKind};
use jord_sim::{Rng, SimDuration, SimTime, TimeDist};

fn registry_leaf() -> (FunctionRegistry, FunctionId) {
    let mut r = FunctionRegistry::new();
    let f = r.register(
        FunctionSpec::new("leaf")
            .op(FuncOp::ReadInput)
            .op(FuncOp::Compute(TimeDist::fixed(1_000.0)))
            .op(FuncOp::WriteOutput),
    );
    (r, f)
}

#[test]
fn single_request_completes() {
    let (r, f) = registry_leaf();
    let mut s = WorkerServer::new(RuntimeConfig::jord_32(), r).unwrap();
    s.push_request(SimTime::ZERO, f, 512);
    let report = s.run();
    assert_eq!(report.completed, 1);
    assert_eq!(report.invocations, 1);
    let lat = report.latency.max().unwrap().as_us_f64();
    assert!((1.0..10.0).contains(&lat), "latency {lat} µs out of range");
}

#[test]
fn nested_sync_call_completes_and_counts_two_invocations() {
    let mut r = FunctionRegistry::new();
    let leaf = r.register(FunctionSpec::new("leaf").op(FuncOp::Compute(TimeDist::fixed(500.0))));
    let root = r.register(
        FunctionSpec::new("root")
            .op(FuncOp::Compute(TimeDist::fixed(300.0)))
            .call(leaf, 128)
            .op(FuncOp::WriteOutput),
    );
    let mut s = WorkerServer::new(RuntimeConfig::jord_32(), r).unwrap();
    s.push_request(SimTime::ZERO, root, 256);
    let report = s.run();
    assert_eq!(report.completed, 1);
    assert_eq!(report.invocations, 2);
    // Root service must cover child's service.
    let root_ns = report.functions[&root].mean_service_ns();
    let leaf_ns = report.functions[&leaf].mean_service_ns();
    assert!(root_ns > leaf_ns + 300.0, "root {root_ns} leaf {leaf_ns}");
}

#[test]
fn async_calls_join_at_waitall() {
    let mut r = FunctionRegistry::new();
    let leaf = r.register(FunctionSpec::new("leaf").op(FuncOp::Compute(TimeDist::fixed(2_000.0))));
    let root = r.register(
        FunctionSpec::new("root")
            .call_async(leaf, 128)
            .call_async(leaf, 128)
            .call_async(leaf, 128)
            .op(FuncOp::WaitAll)
            .op(FuncOp::WriteOutput),
    );
    let mut s = WorkerServer::new(RuntimeConfig::jord_32(), r).unwrap();
    s.push_request(SimTime::ZERO, root, 256);
    let report = s.run();
    assert_eq!(report.invocations, 4);
    // Async children overlap: root service ≪ 3 × 2 µs + overheads.
    let root_ns = report.functions[&root].mean_service_ns();
    assert!(
        root_ns < 5_500.0,
        "async fan-out must overlap, got {root_ns} ns"
    );
    assert!(root_ns > 2_000.0);
}

#[test]
fn deep_nesting_makes_forward_progress() {
    // A chain deeper than the JBSQ bound exercises the internal-queue
    // priority rule (§3.3's deadlock-avoidance mechanism).
    let mut r = FunctionRegistry::new();
    let mut f = r.register(FunctionSpec::new("f0").op(FuncOp::Compute(TimeDist::fixed(100.0))));
    for depth in 1..12 {
        f = r.register(
            FunctionSpec::new(format!("f{depth}"))
                .op(FuncOp::Compute(TimeDist::fixed(100.0)))
                .call(f, 128),
        );
    }
    let mut s = WorkerServer::new(RuntimeConfig::jord_32(), r).unwrap();
    for i in 0..64 {
        s.push_request(SimTime::from_ns(i * 50), f, 256);
    }
    let report = s.run();
    assert_eq!(report.completed, 64);
    assert_eq!(report.invocations, 64 * 12);
}

#[test]
fn temp_vmas_alloc_and_free() {
    let mut r = FunctionRegistry::new();
    let f = r.register(
        FunctionSpec::new("mapper")
            .op(FuncOp::MmapTemp { bytes: 4096 })
            .op(FuncOp::Compute(TimeDist::fixed(200.0)))
            .op(FuncOp::MunmapTemp),
    );
    let mut s = WorkerServer::new(RuntimeConfig::jord_32(), r).unwrap();
    for i in 0..10 {
        s.push_request(SimTime::from_us(i), f, 128);
    }
    let report = s.run();
    assert_eq!(report.completed, 10);
    // All VMAs must be returned (only boot + code VMAs remain).
    assert_eq!(s.privlib().live_vmas(), 3 + 1);
}

#[test]
fn variants_order_sanely_on_identical_load() {
    let mk = |variant| {
        let (r, f) = registry_leaf();
        let cfg = RuntimeConfig::variant_on(variant, jord_hw::MachineConfig::isca25());
        let mut s = WorkerServer::new(cfg, r).unwrap();
        let mut rng = Rng::new(7);
        let mut t = SimTime::ZERO;
        for _ in 0..2000 {
            t += SimDuration::from_ns_f64(rng.exponential(1000.0));
            s.push_request(t, f, 512);
        }
        let rep = s.run();
        assert_eq!(rep.completed, 2000);
        rep.latency.mean().unwrap().as_ns_f64()
    };
    let ni = mk(SystemVariant::JordNi);
    let jord = mk(SystemVariant::Jord);
    let bt = mk(SystemVariant::JordBt);
    assert!(ni < jord, "NI ({ni}) must beat Jord ({jord})");
    assert!(jord < bt, "plain list ({jord}) must beat B-tree ({bt})");
}

#[test]
fn determinism_same_seed_same_report() {
    let run = || {
        let (r, f) = registry_leaf();
        let mut s = WorkerServer::new(RuntimeConfig::jord_32(), r).unwrap();
        for i in 0..500 {
            s.push_request(SimTime::from_ns(i * 777), f, 256);
        }
        let rep = s.run();
        (
            rep.latency.quantile(0.5),
            rep.latency.max(),
            rep.finished_at,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn internal_requests_spill_to_peer_servers_under_pressure() {
    use jord_core::SpillConfig;
    // A wide fan-out workload on a deliberately tiny machine with a
    // tight JBSQ bound: local executors cannot absorb the internal
    // burst, so the orchestrator must ship some of it to a peer (§3.3).
    let mut r = FunctionRegistry::new();
    let leaf = r.register(FunctionSpec::new("leaf").op(FuncOp::Compute(TimeDist::fixed(3_000.0))));
    let mut root = FunctionSpec::new("root").op(FuncOp::ReadInput);
    for _ in 0..24 {
        root = root.call_async(leaf, 128);
    }
    let root = r.register(root.op(FuncOp::WaitAll).op(FuncOp::WriteOutput));

    let mut cfg =
        RuntimeConfig::variant_on(SystemVariant::Jord, jord_hw::MachineConfig::scaled(16))
            .with_spill(SpillConfig {
                network_rtt_us: 10.0,
                backlog_threshold: 4,
                remote_slowdown: 1.0,
            });
    cfg.queue_bound = 1;
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..200u64 {
        s.push_request(SimTime::from_ns(i * 2_000), root, 256);
    }
    let rep = s.run();
    assert_eq!(rep.completed, 200);
    assert_eq!(rep.invocations, 200 * 25);
    assert!(rep.spilled > 0, "pressure must have spilled internals");
    assert!(
        rep.spilled < rep.invocations,
        "most work still runs locally"
    );
}

#[test]
fn spill_disabled_keeps_everything_local() {
    let (r, f) = registry_leaf();
    let mut s = WorkerServer::new(RuntimeConfig::jord_32(), r).unwrap();
    for i in 0..500u64 {
        s.push_request(SimTime::from_ns(i * 100), f, 128);
    }
    let rep = s.run();
    assert_eq!(rep.spilled, 0);
}

#[test]
fn overload_grows_latency_but_completes() {
    let (r, f) = registry_leaf();
    let mut s = WorkerServer::new(RuntimeConfig::jord_32(), r).unwrap();
    // 10 k requests in 10 µs: far beyond capacity.
    for i in 0..10_000u64 {
        s.push_request(SimTime::from_ps(i), f, 128);
    }
    let rep = s.run();
    assert_eq!(rep.completed, 10_000);
    let p99 = rep.p99().unwrap();
    let p50 = rep.latency.quantile(0.5).unwrap();
    assert!(p99 > p50, "overload must show queueing tail");
    assert!(
        p99.as_us_f64() > 50.0,
        "p99 {p99} should reflect heavy queueing"
    );
}

// ------------------------------------------------------------------
// Fault injection + containment
// ------------------------------------------------------------------

use jord_core::RecoveryPolicy;
use jord_hw::InjectConfig;

#[test]
fn injected_faults_reduce_goodput_but_lose_nothing() {
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32()
        .with_inject(InjectConfig::faults(0.05))
        .with_recovery(RecoveryPolicy {
            max_retries: 0,
            ..RecoveryPolicy::default()
        });
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..2_000u64 {
        s.push_request(SimTime::from_ns(i * 900), f, 256);
    }
    let rep = s.run();
    assert!(rep.faults.failed > 0, "5% fault rate must fail something");
    assert!(
        rep.completed < rep.offered,
        "goodput must fall below throughput under injection"
    );
    assert!(rep.goodput() < 1.0 && rep.goodput() > 0.8);
    assert!(rep.faults.total_faults() > 0);
    assert_eq!(rep.faults.aborted, rep.faults.total_faults());
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn retries_recover_transient_faults() {
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32()
        .with_inject(InjectConfig::faults(0.02))
        .with_recovery(RecoveryPolicy {
            max_retries: 5,
            ..RecoveryPolicy::default()
        });
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..1_000u64 {
        s.push_request(SimTime::from_ns(i * 900), f, 256);
    }
    let rep = s.run();
    assert!(rep.faults.retries > 0, "2% fault rate must trigger retries");
    assert_eq!(
        rep.faults.failed, 0,
        "independent retry draws at 2% cannot exhaust 5 attempts"
    );
    assert_eq!(rep.completed, rep.offered);
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn deadline_kills_runaways() {
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32()
        .with_inject(InjectConfig {
            runaway_rate: 0.1,
            runaway_factor: 1_000.0,
            ..InjectConfig::default()
        })
        .with_recovery(RecoveryPolicy {
            max_retries: 0,
            deadline_us: Some(50.0),
            ..RecoveryPolicy::default()
        });
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..500u64 {
        s.push_request(SimTime::from_ns(i * 2_000), f, 256);
    }
    let rep = s.run();
    assert!(
        rep.faults.timeouts > 0,
        "10% runaways must blow the 50 µs deadline"
    );
    assert_eq!(rep.faults.failed, rep.faults.timeouts);
    // A 1 ms spin with no deadline would dominate the run; with one the
    // run finishes within a sane horizon.
    assert!(rep.finished_at.as_us_f64() < 5_000.0);
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn admission_control_sheds_overload() {
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32().with_recovery(RecoveryPolicy {
        shed_bound: Some(32),
        ..RecoveryPolicy::default()
    });
    let mut s = WorkerServer::new(cfg, r).unwrap();
    // 10 k requests all at once: far beyond the shed bound.
    for i in 0..10_000u64 {
        s.push_request(SimTime::from_ps(i), f, 128);
    }
    let rep = s.run();
    assert!(rep.faults.sheds > 0, "burst must overflow the shed bound");
    assert!(rep.completed > 0, "admitted work still completes");
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn chaos_same_seed_same_report() {
    let run = || {
        let mut r = FunctionRegistry::new();
        let leaf =
            r.register(FunctionSpec::new("leaf").op(FuncOp::Compute(TimeDist::fixed(500.0))));
        let root = r.register(
            FunctionSpec::new("root")
                .op(FuncOp::ReadInput)
                .call_async(leaf, 128)
                .call(leaf, 128)
                .op(FuncOp::WaitAll)
                .op(FuncOp::WriteOutput),
        );
        let cfg = RuntimeConfig::jord_32()
            .with_inject(InjectConfig {
                fault_rate: 0.03,
                runaway_rate: 0.01,
                runaway_factor: 20.0,
                vlb_glitch_rate: 0.001,
                ..InjectConfig::default()
            })
            .with_recovery(RecoveryPolicy {
                max_retries: 2,
                deadline_us: Some(500.0),
                shed_bound: Some(256),
                ..RecoveryPolicy::default()
            });
        let mut s = WorkerServer::new(cfg, r).unwrap();
        let mut rng = Rng::new(11);
        let mut t = SimTime::ZERO;
        for _ in 0..800 {
            t += SimDuration::from_ns_f64(rng.exponential(1_500.0));
            s.push_request(t, root, 512);
        }
        let rep = s.run();
        (
            rep.faults,
            rep.completed,
            rep.invocations,
            rep.latency.quantile(0.5),
            rep.latency.max(),
            rep.finished_at,
        )
    };
    let a = run();
    assert!(a.0.total_faults() > 0, "chaos run must raise faults");
    assert_eq!(a, run(), "same seed must give a bit-identical report");
}

#[test]
fn chaos_nested_trees_contain_faults_without_leaks() {
    // Nested sync + async calls under aggressive injection: child
    // failures propagate to parents, aborted parents drain straggler
    // children (zombies), and nothing leaks.
    let mut r = FunctionRegistry::new();
    let leaf = r.register(FunctionSpec::new("leaf").op(FuncOp::Compute(TimeDist::fixed(400.0))));
    let mid = r.register(
        FunctionSpec::new("mid")
            .op(FuncOp::MmapTemp { bytes: 8192 })
            .call(leaf, 128)
            .op(FuncOp::MunmapTemp),
    );
    let root = r.register(
        FunctionSpec::new("root")
            .op(FuncOp::ReadInput)
            .call_async(leaf, 128)
            .call_async(mid, 128)
            .call(mid, 128)
            .op(FuncOp::WaitAll)
            .op(FuncOp::WriteOutput),
    );
    let cfg = RuntimeConfig::jord_32()
        .with_inject(InjectConfig::faults(0.08))
        .with_recovery(RecoveryPolicy {
            max_retries: 1,
            ..RecoveryPolicy::default()
        });
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..600u64 {
        s.push_request(SimTime::from_ns(i * 3_000), root, 256);
    }
    let rep = s.run();
    assert!(rep.faults.total_faults() > 0);
    assert!(
        rep.faults.failed > 0,
        "8% per invocation over 5-node trees must fail some"
    );
    assert!(rep.completed > 0, "most trees still complete");
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn chaos_at_acceptance_rate_stays_graceful() {
    // The acceptance bar: fault rate 1e-3 must barely dent goodput.
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32()
        .with_inject(InjectConfig::faults(1e-3))
        .with_recovery(RecoveryPolicy {
            max_retries: 0,
            ..RecoveryPolicy::default()
        });
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..5_000u64 {
        s.push_request(SimTime::from_ns(i * 800), f, 256);
    }
    let rep = s.run();
    assert!(rep.goodput() > 0.99, "goodput {} at 1e-3", rep.goodput());
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn bypassed_isolation_misses_memory_faults() {
    // Jord_NI has no VMA permission enforcement: wild, permission, and
    // privilege misbehavior sails through undetected. Only the gate
    // decoder and CSR privilege checks (machine-level) still trip.
    let run = |variant| {
        let (r, f) = registry_leaf();
        let cfg = RuntimeConfig::variant_on(variant, jord_hw::MachineConfig::isca25())
            .with_inject(InjectConfig::faults(0.1))
            .with_recovery(RecoveryPolicy {
                max_retries: 0,
                ..RecoveryPolicy::default()
            });
        let mut s = WorkerServer::new(cfg, r).unwrap();
        for i in 0..2_000u64 {
            s.push_request(SimTime::from_ns(i * 900), f, 256);
        }
        s.run().faults
    };
    let full = run(SystemVariant::Jord);
    let ni = run(SystemVariant::JordNi);
    for kind in [
        FaultKind::Unmapped,
        FaultKind::Permission,
        FaultKind::Privilege,
    ] {
        assert!(full.of_kind(kind) > 0, "full isolation catches {kind}");
        assert_eq!(ni.of_kind(kind), 0, "NI must miss {kind}");
    }
    assert!(
        ni.of_kind(FaultKind::MissingGate) > 0,
        "uatg decode is hardware"
    );
    assert!(
        ni.of_kind(FaultKind::CsrAccess) > 0,
        "CSR privilege is hardware"
    );
    assert!(ni.total_faults() < full.total_faults());
}

#[test]
fn vlb_glitches_cost_translations_but_complete() {
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32().with_inject(InjectConfig {
        vlb_glitch_rate: 0.01,
        ..InjectConfig::default()
    });
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..1_000u64 {
        s.push_request(SimTime::from_ns(i * 900), f, 256);
    }
    let rep = s.run();
    assert!(rep.faults.glitches > 0, "1% glitch rate must fire");
    assert_eq!(
        rep.completed, rep.offered,
        "glitches cost time, not requests"
    );
    assert_eq!(rep.faults.total_faults(), 0);
}

#[test]
fn warmup_discards_early_failures_symmetrically() {
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32()
        .with_inject(InjectConfig::faults(0.05))
        .with_recovery(RecoveryPolicy {
            max_retries: 0,
            ..RecoveryPolicy::default()
        });
    let mut s = WorkerServer::new(cfg, r).unwrap();
    s.set_warmup(200);
    for i in 0..2_000u64 {
        s.push_request(SimTime::from_ns(i * 900), f, 256);
    }
    let rep = s.run();
    assert!(rep.offered < 2_000, "warmup must discount early requests");
    s.audit(&rep)
        .expect("warm-up discounts both sides of the ledger alike");
}

// ------------------------------------------------------------------
// Crash recovery (journal, checkpoint/restore, semantics) + PD
// snapshot sanitization
// ------------------------------------------------------------------

use jord_core::CrashConfig;

/// A burst far beyond instantaneous capacity: the queues stay deep for
/// hundreds of microseconds, so a mid-drain crash provably finds work
/// in flight at the event boundary where it fires.
fn crash_workload(cfg: RuntimeConfig) -> WorkerServer {
    let (r, f) = registry_leaf();
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..4_000u64 {
        s.push_request(SimTime::from_ps(i), f, 128);
    }
    s
}

#[test]
fn journal_only_mode_audits_without_crashing() {
    let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::journal_only());
    let mut s = crash_workload(cfg);
    let rep = s.run();
    assert_eq!(rep.crash.crashes, 0);
    assert_eq!(rep.completed, 4_000);
    assert!(
        rep.crash.journal_records >= 4_000 * 5,
        "five lifecycle records per request, got {}",
        rep.crash.journal_records
    );
    assert!(
        rep.crash.checkpoints >= 1,
        "the initial checkpoint at least"
    );
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn worker_crash_at_least_once_matches_the_crash_free_run() {
    let mut baseline = crash_workload(RuntimeConfig::jord_32());
    let base = baseline.run();
    assert_eq!(base.completed, 4_000);

    let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::new(
        CrashPlan::worker_at(150.0),
        CrashSemantics::AtLeastOnce,
    ));
    let mut s = crash_workload(cfg);
    let rep = s.run();
    assert_eq!(rep.crash.crashes, 1);
    assert!(rep.crash.killed > 0, "a mid-run crash must interrupt work");
    assert!(
        rep.crash.readmitted > 0,
        "at-least-once re-admits interrupted requests"
    );
    assert!(
        rep.crash.replayed > 0,
        "recovery replays the journal suffix"
    );
    assert!(rep.crash.checkpoints >= 2);
    // The acceptance bar: recovery loses nothing — the crashed run
    // completes exactly what the crash-free run with the same seed did.
    assert_eq!(
        rep.completed, base.completed,
        "at-least-once recovery must reach the crash-free completion count"
    );
    assert_eq!(rep.faults.failed, 0);
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn worker_crash_at_most_once_fails_what_was_in_flight() {
    let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::new(
        CrashPlan::worker_at(150.0),
        CrashSemantics::AtMostOnce,
    ));
    let mut s = crash_workload(cfg);
    let rep = s.run();
    assert_eq!(rep.crash.crashes, 1);
    assert_eq!(rep.crash.readmitted, 0);
    assert!(rep.faults.failed > 0, "interrupted requests must fail");
    assert!(rep.completed < 4_000);
    assert_eq!(rep.completed + rep.faults.failed, 4_000);
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn executor_crash_contains_residents_and_recovers() {
    // Nested calls put suspended parents and queued children on the
    // crashed executor — both kill paths run.
    let mut r = FunctionRegistry::new();
    let leaf = r.register(FunctionSpec::new("leaf").op(FuncOp::Compute(TimeDist::fixed(1_500.0))));
    let root = r.register(
        FunctionSpec::new("root")
            .op(FuncOp::ReadInput)
            .call(leaf, 128)
            .op(FuncOp::WriteOutput),
    );
    let cfg = RuntimeConfig::jord_32()
        .with_crash(CrashConfig::new(
            CrashPlan::executor_at(30.0, 0),
            CrashSemantics::AtLeastOnce,
        ))
        .with_recovery(RecoveryPolicy {
            max_retries: 5,
            ..RecoveryPolicy::default()
        });
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..1_000u64 {
        s.push_request(SimTime::from_ps(i), root, 256);
    }
    let rep = s.run();
    assert_eq!(rep.crash.crashes, 1);
    assert!(
        rep.crash.killed > 0,
        "executor 0 must host work at the crash"
    );
    assert_eq!(
        rep.completed, 1_000,
        "every request survives via re-admission or child-failure retry"
    );
    assert_eq!(rep.faults.failed, 0);
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn orchestrator_crash_drops_only_queued_work() {
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::new(
        CrashPlan::orchestrator_at(100.0, 0),
        CrashSemantics::AtMostOnce,
    ));
    let mut s = WorkerServer::new(cfg, r).unwrap();
    // A burst far beyond capacity keeps the orchestrator deques deep,
    // so the crash provably finds queued work to kill.
    for i in 0..4_000u64 {
        s.push_request(SimTime::from_ps(i), f, 128);
    }
    let rep = s.run();
    assert_eq!(rep.crash.crashes, 1);
    assert!(
        rep.crash.killed > 0,
        "the orchestrator deque must hold work at the crash"
    );
    assert!(rep.faults.failed > 0, "at-most-once fails the killed work");
    assert_eq!(rep.completed + rep.faults.failed, 4_000);
    assert!(
        rep.completed > rep.faults.failed,
        "dispatched work keeps running — only one orchestrator's queue dies"
    );
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn crash_recovery_is_deterministic() {
    let run = || {
        let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::new(
            CrashPlan::worker_at(250.0),
            CrashSemantics::AtLeastOnce,
        ));
        let mut s = crash_workload(cfg);
        let rep = s.run();
        (rep.completed, rep.faults.failed, rep.crash, rep.finished_at)
    };
    assert_eq!(run(), run());
}

#[test]
fn pd_sanitization_pools_pds_and_cuts_setup_latency() {
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32().with_sanitize(true);
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..1_000u64 {
        s.push_request(SimTime::from_ns(i * 900), f, 256);
    }
    let rep = s.run();
    assert_eq!(rep.completed, 1_000);
    assert!(rep.sanitize.full_setups >= 1, "the first setup cannot pool");
    assert!(
        rep.sanitize.pooled_setups > rep.sanitize.full_setups,
        "steady state must be pool-served: {} pooled vs {} full",
        rep.sanitize.pooled_setups,
        rep.sanitize.full_setups
    );
    assert_eq!(
        rep.sanitize.sanitizations,
        rep.sanitize.pooled_setups + rep.sanitize.full_setups
    );
    assert!(
        rep.sanitize.setup_delta_ns() > 0.0,
        "pooled setup must be cheaper: full {} ns vs pooled {} ns",
        rep.sanitize.mean_full_ns(),
        rep.sanitize.mean_pooled_ns()
    );
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn sanitization_reclaims_leaked_temps() {
    // The function leaks a temp VMA every run; the sanitize path must
    // free it explicitly (the snapshot diff alone cannot see it under
    // bypassed isolation) before pooling the PD.
    let mut r = FunctionRegistry::new();
    let f = r.register(
        FunctionSpec::new("leaky")
            .op(FuncOp::MmapTemp { bytes: 4096 })
            .op(FuncOp::Compute(TimeDist::fixed(500.0)))
            .op(FuncOp::WriteOutput),
    );
    let cfg = RuntimeConfig::jord_32().with_sanitize(true);
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..300u64 {
        s.push_request(SimTime::from_ns(i * 900), f, 256);
    }
    let rep = s.run();
    assert_eq!(rep.completed, 300);
    assert!(rep.sanitize.pooled_setups > 0);
    s.audit(&rep).expect("a drained worker audits clean");
}

// ------------------------------------------------------------------
// Cluster hooks: tagged notices, cancellation, cross-worker crash
// ------------------------------------------------------------------

#[test]
fn tagged_requests_emit_notices_untagged_do_not() {
    let (r, f) = registry_leaf();
    let mut s = WorkerServer::new(RuntimeConfig::jord_32(), r).unwrap();
    for i in 0..5u64 {
        s.push_tagged_request(SimTime::from_ns(i * 2_000), f, 128, i + 1);
    }
    for i in 0..5u64 {
        s.push_request(SimTime::from_ns(i * 2_000 + 1_000), f, 128);
    }
    let rep = s.run();
    assert_eq!(rep.completed, 10);
    let notices = s.take_notices();
    let mut tags: Vec<u64> = notices.iter().map(|n| n.tag).collect();
    tags.sort_unstable();
    assert_eq!(
        tags,
        vec![1, 2, 3, 4, 5],
        "one notice per tag, none for untagged"
    );
    for n in &notices {
        match n.outcome {
            NoticeOutcome::Completed { latency } => {
                assert!(latency > SimDuration::ZERO, "leaf work takes time");
                assert!(n.at > SimTime::ZERO);
            }
            other => panic!("quiet run must complete everything, got {other:?}"),
        }
    }
    assert!(s.take_notices().is_empty(), "take_notices drains");
}

#[test]
fn cancel_tagged_unoffers_an_undelivered_arrival() {
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::journal_only());
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..20u64 {
        // Arrivals far enough apart that tag 20 is still undelivered
        // in the event queue when we cancel it.
        s.push_tagged_request(SimTime::from_us(i * 10), f, 128, i + 1);
    }
    s.begin();
    assert!(s.cancel_tagged(20), "tag 20 sits undelivered in the queue");
    assert!(!s.cancel_tagged(20), "a cancelled tag is gone");
    assert!(!s.cancel_tagged(999), "unknown tags are not found");
    while s.step() {}
    let rep = s.seal();
    // seal() asserts conservation; the cancel must have un-offered.
    assert_eq!(rep.offered, 19);
    assert_eq!(rep.completed, 19);
    let tags: Vec<u64> = s.take_notices().iter().map(|n| n.tag).collect();
    assert!(
        !tags.contains(&20),
        "no terminal notice for a cancelled tag"
    );
    assert_eq!(tags.len(), 19);
}

#[test]
fn cancel_tagged_unoffers_each_tag_exactly_once() {
    // Same fixture as above, but withdrawing a batch: every cancel must
    // remove exactly one arrival (the event queue tombstones the
    // handle recorded at schedule time), a re-cancel is a typed no-op,
    // and the survivors' schedule is untouched.
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::journal_only());
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..20u64 {
        s.push_tagged_request(SimTime::from_us(i * 10), f, 128, i + 1);
    }
    s.begin();
    for tag in [20, 18, 16, 14, 12] {
        assert!(s.cancel_tagged(tag), "tag {tag} sits undelivered");
        assert!(!s.cancel_tagged(tag), "tag {tag} is gone after one cancel");
    }
    while s.step() {}
    let rep = s.seal();
    assert_eq!(rep.offered, 15);
    assert_eq!(rep.completed, 15);
    let tags: Vec<u64> = s.take_notices().iter().map(|n| n.tag).collect();
    assert_eq!(tags.len(), 15);
    for tag in [12, 14, 16, 18, 20] {
        assert!(!tags.contains(&tag), "no terminal notice for tag {tag}");
    }
    for tag in [1, 3, 5, 11, 19] {
        assert!(tags.contains(&tag), "survivor tag {tag} must complete");
    }
}

#[test]
fn cancel_tagged_reaches_the_orchestrator_deque() {
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::journal_only());
    let mut s = WorkerServer::new(cfg, r).unwrap();
    let n = 400u64;
    for i in 0..n {
        s.push_tagged_request(SimTime::from_ps(i), f, 128, i + 1);
    }
    s.begin();
    // The arrivals (picosecond spacing) are the earliest n events:
    // after n steps every request has been admitted, and anything not
    // yet dispatched sits in an orchestrator's external deque.
    for _ in 0..n {
        assert!(s.step());
    }
    let queued = s.queued_tags();
    assert!(
        !queued.is_empty(),
        "a 400-request burst must out-run the executor pool"
    );
    let victim = queued[0];
    assert!(s.cancel_tagged(victim), "deque-resident tag is cancellable");
    while s.step() {}
    let rep = s.seal();
    assert_eq!(rep.offered, n - 1);
    assert_eq!(rep.completed, n - 1);
    let tags: Vec<u64> = s.take_notices().iter().map(|n| n.tag).collect();
    assert!(!tags.contains(&victim));
}

#[test]
fn crash_for_cluster_strands_everything_unfinished() {
    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::journal_only());
    let mut s = WorkerServer::new(cfg, r).unwrap();
    let n = 600u64;
    for i in 0..n {
        s.push_tagged_request(SimTime::from_ps(i), f, 128, i + 1);
    }
    s.begin();
    for _ in 0..1_500 {
        assert!(s.step(), "600 leaf requests take well over 1500 events");
    }
    let done_before: Vec<u64> = s.take_notices().iter().map(|n| n.tag).collect();
    let crash_at = s.next_event_time().expect("work remains");
    let stranded = s.crash_for_cluster(crash_at);

    // Completed ∪ stranded partitions the offered set exactly.
    assert!(!stranded.is_empty(), "a mid-burst crash strands work");
    assert_eq!(done_before.len() + stranded.len(), n as usize);
    let mut all: Vec<u64> = done_before
        .iter()
        .copied()
        .chain(stranded.iter().map(|sr| sr.tag))
        .collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), n as usize, "no tag lost or duplicated");
    for sr in &stranded {
        assert_eq!(sr.func, f);
        assert_eq!(sr.bytes, 128);
    }

    // The dispatcher re-routes stranded work elsewhere; here we play
    // both roles and hand it back to the same (rebooted) worker.
    for (i, sr) in stranded.iter().enumerate() {
        s.push_tagged_request(
            crash_at + SimDuration::from_ns(i as u64),
            sr.func,
            sr.bytes,
            sr.tag,
        );
    }
    while s.step() {}
    let rep = s.seal();
    assert_eq!(rep.crash.crashes, 1);
    assert!(rep.crash.killed > 0, "a mid-burst crash interrupts work");
    assert_eq!(rep.completed, n, "rebooted worker finishes the strandees");
    assert_eq!(rep.offered, rep.completed);
    assert!(
        rep.crash.journal_records > 0 && rep.crash.checkpoints >= 2,
        "retired journal history must fold into the sealed report"
    );
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn crash_before_the_first_cadence_checkpoint_recovers() {
    // Satellite: with a cadence so long that only begin()'s initial
    // checkpoint exists, an early crash must replay the entire
    // journal prefix from that initial checkpoint and lose nothing.
    let cfg = RuntimeConfig::jord_32().with_crash(
        CrashConfig::new(CrashPlan::worker_at(2.0), CrashSemantics::AtLeastOnce)
            .checkpoint_every(1_000_000),
    );
    let mut s = crash_workload(cfg);
    let rep = s.run();
    assert_eq!(rep.crash.crashes, 1);
    assert_eq!(
        rep.crash.checkpoints, 2,
        "initial checkpoint plus the post-recovery one, no cadence"
    );
    assert!(rep.crash.replayed > 0, "everything replays from t=0");
    assert_eq!(rep.completed, 4_000, "at-least-once loses nothing");
    assert_eq!(rep.faults.failed, 0);
    s.audit(&rep).expect("a drained worker audits clean");
}

#[test]
fn checkpoint_cadence_one_matches_the_default_cadence() {
    // Satellite: checkpoint frequency is a pure performance knob —
    // recovery outcomes are identical whether the journal suffix is
    // one record or sixty-four.
    let run_with = |every: usize| {
        let cfg = RuntimeConfig::jord_32().with_crash(
            CrashConfig::new(CrashPlan::worker_at(150.0), CrashSemantics::AtLeastOnce)
                .checkpoint_every(every),
        );
        let mut s = crash_workload(cfg);
        s.run()
    };
    let fine = run_with(1);
    let coarse = run_with(64);
    assert_eq!(fine.completed, coarse.completed);
    assert_eq!(fine.offered, coarse.offered);
    assert_eq!(fine.faults.failed, coarse.faults.failed);
    assert_eq!(fine.crash.crashes, 1);
    assert!(
        fine.crash.checkpoints > coarse.crash.checkpoints,
        "cadence 1 checkpoints far more often ({} vs {})",
        fine.crash.checkpoints,
        coarse.crash.checkpoints
    );
}

#[test]
fn manual_stepping_matches_run() {
    // The cluster drives workers with begin/step/seal; a solo worker
    // uses run(). Both must produce the same world.
    let (r, f) = registry_leaf();
    let mk = || {
        let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::journal_only());
        let mut s = WorkerServer::new(cfg, r.clone()).unwrap();
        for i in 0..500u64 {
            s.push_tagged_request(SimTime::from_ns(i * 300), f, 128, i + 1);
        }
        s
    };
    let mut auto = mk();
    let auto_rep = auto.run();
    let mut manual = mk();
    manual.begin();
    while manual.step() {}
    let manual_rep = manual.seal();
    assert_eq!(auto_rep.completed, manual_rep.completed);
    assert_eq!(auto_rep.offered, manual_rep.offered);
    assert_eq!(auto_rep.finished_at, manual_rep.finished_at);
    assert_eq!(
        auto_rep.crash.journal_records,
        manual_rep.crash.journal_records
    );
    assert_eq!(auto.take_notices(), manual.take_notices());
}

#[test]
fn golden_trace_run_matches_manual_stepping_across_crash() {
    // The event bus hashes every published lifecycle event (FNV-1a over
    // the whole stream, eviction-proof). run() and the manual
    // begin/step/seal loop must publish the *identical* event sequence —
    // including through a mid-run worker crash, journal replay, and
    // at-least-once re-admission — so their trace hashes must collide
    // exactly, not just their aggregate counters.
    let (r, f) = registry_leaf();
    let mk = || {
        let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::new(
            CrashPlan::worker_at(150.0),
            CrashSemantics::AtLeastOnce,
        ));
        let mut s = WorkerServer::new(cfg, r.clone()).unwrap();
        for i in 0..800u64 {
            s.push_tagged_request(SimTime::from_ns(i * 250), f, 128, i + 1);
        }
        s
    };
    let mut auto = mk();
    let auto_rep = auto.run();
    assert_eq!(auto_rep.crash.crashes, 1, "the plan must actually crash");

    let mut manual = mk();
    manual.begin();
    while manual.step() {}
    let manual_rep = manual.seal();

    assert!(auto.trace_len() > 0, "the bus must have published events");
    assert_eq!(
        auto.trace_len(),
        manual.trace_len(),
        "both drivers must publish the same number of lifecycle events"
    );
    assert_eq!(
        auto.trace_hash(),
        manual.trace_hash(),
        "golden trace: run() and step() must produce identical event streams"
    );
    assert_eq!(auto_rep.completed, manual_rep.completed);
    assert_eq!(auto_rep.crash.replayed, manual_rep.crash.replayed);

    // And the hash is not a constant: a different workload's stream
    // differs (one request fewer shifts every subsequent event).
    let mut other = {
        let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::new(
            CrashPlan::worker_at(150.0),
            CrashSemantics::AtLeastOnce,
        ));
        let mut s = WorkerServer::new(cfg, r.clone()).unwrap();
        for i in 0..799u64 {
            s.push_tagged_request(SimTime::from_ns(i * 250), f, 128, i + 1);
        }
        s
    };
    other.run();
    assert_ne!(
        other.trace_hash(),
        auto.trace_hash(),
        "a different workload must perturb the event stream"
    );
}

#[test]
fn golden_trace_hash_is_pinned_across_queue_rebuilds() {
    // The constant below was recorded under the pre-refactor BinaryHeap
    // event queue, before the slab-backed calendar queue replaced it.
    // Pinning it proves the queue swap is invisible to the simulation: the
    // crash plan fires at the same instant, journal replay re-admits the
    // same requests in the same order, and every published lifecycle event
    // is bit-identical. If a future queue change breaks this, it changed
    // the schedule — not just the speed.
    const PINNED_TRACE_HASH: u64 = 0x9154845044d5aee1;

    let (r, f) = registry_leaf();
    let cfg = RuntimeConfig::jord_32().with_crash(CrashConfig::new(
        CrashPlan::worker_at(150.0),
        CrashSemantics::AtLeastOnce,
    ));
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..800u64 {
        s.push_tagged_request(SimTime::from_ns(i * 250), f, 128, i + 1);
    }
    let rep = s.run();
    assert_eq!(rep.completed, 800);
    assert_eq!(rep.crash.crashes, 1, "the plan must actually crash");
    assert_eq!(
        s.trace_hash(),
        PINNED_TRACE_HASH,
        "golden trace hash drifted: the event schedule changed"
    );
}
