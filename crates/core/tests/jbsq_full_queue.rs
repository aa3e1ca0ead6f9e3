//! The JBSQ full-queue decision tree (§3.3), path by path.
//!
//! When every executor queue in an orchestrator's group sits at the JBSQ
//! bound, a request takes exactly one of three exits: requeue locally and
//! retry after a short backoff, spill to a peer worker server (internal
//! requests over the backlog threshold, when spilling is configured), or —
//! for fresh external arrivals — never get that far because admission
//! control shed them. These tests pin each exit and their composition.

use jord_core::{
    FuncOp, FunctionRegistry, FunctionSpec, RecoveryPolicy, RuntimeConfig, SpillConfig,
    SystemVariant, WorkerServer,
};
use jord_hw::MachineConfig;
use jord_sim::{SimTime, TimeDist};

fn leaf_registry() -> (FunctionRegistry, jord_core::FunctionId) {
    let mut r = FunctionRegistry::new();
    let f = r.register(
        FunctionSpec::new("leaf")
            .op(FuncOp::ReadInput)
            .op(FuncOp::Compute(TimeDist::fixed(1_000.0)))
            .op(FuncOp::WriteOutput),
    );
    (r, f)
}

/// A root that fans out `width` async leaf calls, pressuring the internal
/// queue of whichever orchestrator owns the root's executor.
fn fanout_registry(width: usize) -> (FunctionRegistry, jord_core::FunctionId) {
    let mut r = FunctionRegistry::new();
    let leaf = r.register(FunctionSpec::new("leaf").op(FuncOp::Compute(TimeDist::fixed(3_000.0))));
    let mut root = FunctionSpec::new("root").op(FuncOp::ReadInput);
    for _ in 0..width {
        root = root.call_async(leaf, 128);
    }
    let root = r.register(root.op(FuncOp::WaitAll).op(FuncOp::WriteOutput));
    (r, root)
}

fn tiny_jord(queue_bound: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::variant_on(SystemVariant::Jord, MachineConfig::scaled(16));
    cfg.queue_bound = queue_bound;
    cfg
}

#[test]
fn full_queues_requeue_and_retry_without_losing_requests() {
    // queue_bound = 1 and a synchronized burst: the orchestrator hits the
    // all-full case constantly and must make forward progress purely by
    // requeue-and-retry (no spill configured, so that exit is closed).
    let (r, f) = leaf_registry();
    let mut s = WorkerServer::new(tiny_jord(1), r).unwrap();
    for i in 0..1_000u64 {
        s.push_request(SimTime::from_ps(i), f, 128);
    }
    let rep = s.run();
    assert_eq!(rep.completed, 1_000, "retry path must drain the burst");
    assert_eq!(rep.spilled, 0, "no spill config, no spilling");
    s.audit(&rep).expect("requeue-and-retry leaks nothing");
}

#[test]
fn internal_backlog_below_threshold_requeues_instead_of_spilling() {
    // Spilling is available but the backlog threshold is far above what
    // this load builds up: the spill exit must never be taken.
    let (r, root) = fanout_registry(8);
    let cfg = tiny_jord(1).with_spill(SpillConfig {
        network_rtt_us: 10.0,
        backlog_threshold: 10_000,
        remote_slowdown: 1.0,
    });
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..100u64 {
        s.push_request(SimTime::from_ns(i * 5_000), root, 256);
    }
    let rep = s.run();
    assert_eq!(rep.completed, 100);
    assert_eq!(rep.invocations, 100 * 9);
    assert_eq!(rep.spilled, 0, "threshold not met, everything stays local");
}

#[test]
fn internal_backlog_over_threshold_spills_to_peer() {
    let (r, root) = fanout_registry(24);
    let cfg = tiny_jord(1).with_spill(SpillConfig {
        network_rtt_us: 10.0,
        backlog_threshold: 4,
        remote_slowdown: 1.0,
    });
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..150u64 {
        s.push_request(SimTime::from_ns(i * 2_000), root, 256);
    }
    let rep = s.run();
    assert_eq!(rep.completed, 150, "spilling must not lose trees");
    assert!(
        rep.spilled > 0,
        "24-wide fan-out over bound-1 queues must spill"
    );
    assert!(rep.spilled < rep.invocations, "only the overflow leaves");
    s.audit(&rep)
        .expect("remote completions retire records and free buffers");
}

#[test]
fn remote_slowdown_stretches_spilled_completions() {
    let run = |slowdown: f64| {
        let (r, root) = fanout_registry(24);
        let cfg = tiny_jord(1).with_spill(SpillConfig {
            network_rtt_us: 10.0,
            backlog_threshold: 4,
            remote_slowdown: slowdown,
        });
        let mut s = WorkerServer::new(cfg, r).unwrap();
        for i in 0..150u64 {
            s.push_request(SimTime::from_ns(i * 2_000), root, 256);
        }
        let rep = s.run();
        assert_eq!(rep.completed, 150);
        assert!(rep.spilled > 0);
        rep.latency.max().unwrap()
    };
    let fast_peer = run(1.0);
    let slow_peer = run(8.0);
    assert!(
        slow_peer > fast_peer,
        "a slower peer must show in tail latency ({slow_peer:?} vs {fast_peer:?})"
    );
}

#[test]
fn admission_shed_composes_with_spill_under_saturation() {
    // All three exits at once: a saturating external burst against a tight
    // shed bound, bound-1 queues, and an open spill path for the internal
    // fan-out. Requests split into completed + shed with nothing lost, and
    // the spill counter shows the internal overflow left the building.
    let (r, root) = fanout_registry(24);
    let cfg = tiny_jord(1)
        .with_spill(SpillConfig {
            network_rtt_us: 10.0,
            backlog_threshold: 4,
            remote_slowdown: 1.0,
        })
        .with_recovery(RecoveryPolicy {
            shed_bound: Some(8),
            ..RecoveryPolicy::default()
        });
    let mut s = WorkerServer::new(cfg, r).unwrap();
    for i in 0..400u64 {
        s.push_request(SimTime::from_ps(i), root, 256);
    }
    let rep = s.run();
    assert!(
        rep.faults.sheds > 0,
        "a same-instant burst must overflow bound 8"
    );
    assert!(rep.completed > 0, "admitted trees still run");
    assert!(
        rep.spilled > 0,
        "admitted fan-out still overflows to the peer"
    );
    s.audit(&rep)
        .expect("every request ends Completed, Faulted, or Shed");
}
