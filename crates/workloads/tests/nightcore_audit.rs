//! NightCore's ledgers on every workload. NightCore runs through
//! `WorkerServer`, so the request and memory ledgers, the live-state checks
//! and the trace hash cover it as they cover Jord. Debug builds audit at
//! every seal; this test calls the audit itself, so release builds check
//! NightCore too.

use jord_core::{RuntimeConfig, SystemVariant, WorkerServer};
use jord_hw::MachineConfig;
use jord_workloads::{LoadGen, Workload, WorkloadKind};

/// Serves 400 requests of `kind` at 0.1 MRPS on NightCore and returns the
/// run's trace hash after checking it settled cleanly.
fn audited_run(kind: WorkloadKind) -> u64 {
    let workload = Workload::build(kind);
    let cfg = RuntimeConfig::variant_on(SystemVariant::NightCore, MachineConfig::isca25());
    let mut server = WorkerServer::new(cfg, workload.registry.clone()).expect("valid config");
    let mut gen = LoadGen::new(&workload, 42).expect("sampleable mix");
    for (t, func, bytes) in gen.arrivals(0.1e6, 400) {
        server.push_request(t, func, bytes);
    }
    let report = server.run();
    assert_eq!(server.audit(&report), Ok(()), "{kind:?}");
    assert_eq!(report.completed, 400, "{kind:?}");
    assert_eq!(server.live_invocations(), 0, "{kind:?}");
    assert_eq!(server.live_requests(), 0, "{kind:?}");
    server.trace_hash()
}

#[test]
fn nightcore_audits_clean_and_replays_on_every_workload() {
    for kind in WorkloadKind::ALL {
        assert_eq!(audited_run(kind), audited_run(kind), "{kind:?} replays");
    }
}
