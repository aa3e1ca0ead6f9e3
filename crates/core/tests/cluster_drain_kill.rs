//! Cluster failover under compound lifecycle states: killing a worker
//! that is already Draining (planned rebalance in progress) or already
//! Evicted (partitioned past the detector's patience). Both orders must
//! conserve every request — drain rebalancing, eviction re-routing, and
//! crash failover hand work around, never away.

use jord_core::{
    ClusterConfig, ClusterDispatcher, DrainPlan, FuncOp, FunctionRegistry, FunctionSpec,
    PartitionPlan, RuntimeConfig, WorkerKill,
};
use jord_sim::{SimTime, TimeDist};

fn registry() -> (FunctionRegistry, jord_core::FunctionId) {
    let mut r = FunctionRegistry::new();
    let f = r.register(
        FunctionSpec::new("leaf")
            .op(FuncOp::ReadInput)
            .op(FuncOp::Compute(TimeDist::fixed(1_000.0)))
            .op(FuncOp::WriteOutput),
    );
    (r, f)
}

/// Worker 0 starts draining at 4µs (its queued work rebalances to worker
/// 1), then dies at 6µs mid-drain. The kill's stranded-request failover
/// must compose with the drain's rebalancing: every request completes or
/// fails terminally somewhere, none lost, and the run terminates.
#[test]
fn kill_while_draining_conserves_every_request() {
    let mut cfg = ClusterConfig::new(2, 42, RuntimeConfig::jord_32());
    cfg.drains = vec![DrainPlan {
        worker: 0,
        at_us: 4.0,
        resume_at_us: None,
    }];
    cfg.kill = Some(WorkerKill {
        worker: 0,
        at_us: 6.0,
    });
    let (r, f) = registry();
    let mut c = ClusterDispatcher::new(cfg, r).unwrap();
    for i in 0..200u64 {
        c.push_request(SimTime::from_ns(i * 100), f, 256);
    }
    let rep = c.run();
    c.audit(&rep)
        .expect("drain+kill must lose nothing and leak nothing");
    assert!(rep.completed > 0, "the surviving worker must make progress");
}

/// Worker 0 is partitioned from 10µs; the phi-accrual detector evicts it
/// (~34.5µs of heartbeat silence), re-routing its stranded work. The kill
/// at 60µs then lands on an already-Evicted worker — the failover path
/// must tolerate crashing a worker whose work was already handed away.
#[test]
fn kill_while_evicted_conserves_every_request() {
    let mut cfg = ClusterConfig::new(2, 42, RuntimeConfig::jord_32());
    cfg.partition = Some(PartitionPlan {
        worker: 0,
        from_us: 10.0,
        until_us: 500.0,
    });
    cfg.kill = Some(WorkerKill {
        worker: 0,
        at_us: 60.0,
    });
    let (r, f) = registry();
    let mut c = ClusterDispatcher::new(cfg, r).unwrap();
    for i in 0..400u64 {
        c.push_request(SimTime::from_ns(i * 200), f, 256);
    }
    let rep = c.run();
    c.audit(&rep)
        .expect("evict+kill must lose nothing and leak nothing");
    assert!(
        rep.failover.evictions >= 1,
        "the partition must actually evict worker 0 before the kill"
    );
}
