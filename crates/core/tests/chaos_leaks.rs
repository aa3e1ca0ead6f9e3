//! Property-based leak-freedom: for ANY injected fault schedule — any
//! fault rate, runaway mix, deadline, retry budget, shed bound, workload
//! shape, and seed — a drained worker server must pass
//! [`WorkerServer::audit`]: every allocator watermark back at the pristine
//! image's (VMAs, PDs, invocation slab, PD pool), no grant outliving its
//! PD, and every request accounted as Completed, Faulted, or Shed.
//!
//! This is the Figure 4 teardown run adversarially: if any abort path
//! forgets a temp VMA, an ArgBuf, a PD, or a zombie slab entry, some
//! schedule in this space finds it.

use proptest::prelude::*;

use jord_core::{
    FuncOp, FunctionRegistry, FunctionSpec, RecoveryPolicy, RuntimeConfig, SystemVariant,
    WorkerServer,
};
use jord_hw::InjectConfig;
use jord_sim::SimTime;

/// One randomly shaped chaos scenario.
#[derive(Debug, Clone)]
struct Scenario {
    fault_rate: f64,
    runaway_rate: f64,
    vlb_glitch_rate: f64,
    max_retries: u32,
    deadline_us: Option<f64>,
    shed_bound: Option<usize>,
    /// (sync calls, async calls) from the root into the leaf level.
    calls: (u8, u8),
    scratch: bool,
    /// Sanitize PDs against their pristine snapshot and pool them
    /// instead of tearing them down.
    sanitize: bool,
    requests: u8,
    seed: u64,
    variant: SystemVariant,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            0.0f64..0.3,
            0.0f64..0.1,
            0.0f64..0.01,
            0u32..3,
            prop_oneof![Just(None), (20.0f64..200.0).prop_map(Some)],
            prop_oneof![Just(None), (4usize..64).prop_map(Some)],
        ),
        (
            (0u8..3, 0u8..4),
            any::<bool>(),
            any::<bool>(),
            10u8..60,
            0u64..10_000,
            prop_oneof![
                Just(SystemVariant::Jord),
                Just(SystemVariant::JordNi),
                Just(SystemVariant::JordBt),
            ],
        ),
    )
        .prop_map(
            |(
                (fault_rate, runaway_rate, vlb_glitch_rate, max_retries, deadline_us, shed_bound),
                (calls, scratch, sanitize, requests, seed, variant),
            )| Scenario {
                fault_rate,
                runaway_rate,
                vlb_glitch_rate,
                max_retries,
                deadline_us,
                shed_bound,
                calls,
                scratch,
                sanitize,
                requests,
                seed,
                variant,
            },
        )
}

fn build_registry(s: &Scenario) -> (FunctionRegistry, jord_core::FunctionId) {
    let mut r = FunctionRegistry::new();
    let mut leaf = FunctionSpec::new("leaf").compute(800.0, 0.3);
    if s.scratch {
        leaf = leaf
            .op(FuncOp::MmapTemp { bytes: 4096 })
            .op(FuncOp::MunmapTemp);
    }
    let leaf = r.register(leaf);
    let (syncs, asyncs) = s.calls;
    let mut root = FunctionSpec::new("root")
        .op(FuncOp::ReadInput)
        .compute(500.0, 0.3);
    for _ in 0..syncs {
        root = root.call(leaf, 128);
    }
    for _ in 0..asyncs {
        root = root.call_async(leaf, 128);
    }
    if asyncs > 0 {
        root = root.op(FuncOp::WaitAll);
    }
    let root = r.register(root.op(FuncOp::WriteOutput));
    (r, root)
}

proptest! {
    // Each case is a whole simulated run; a few dozen schedules still
    // sweep rates, policies, shapes, and variants broadly.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_fault_schedule_leaks_nothing(s in arb_scenario()) {
        let (registry, root) = build_registry(&s);
        let cfg = RuntimeConfig::variant_on(s.variant, jord_hw::MachineConfig::isca25())
            .with_seed(s.seed)
            .with_sanitize(s.sanitize)
            .with_inject(InjectConfig {
                fault_rate: s.fault_rate,
                runaway_rate: s.runaway_rate,
                runaway_factor: 50.0,
                vlb_glitch_rate: s.vlb_glitch_rate,
                ..InjectConfig::default()
            })
            .with_recovery(RecoveryPolicy {
                max_retries: s.max_retries,
                deadline_us: s.deadline_us,
                shed_bound: s.shed_bound,
                ..RecoveryPolicy::default()
            });
        let mut server = WorkerServer::new(cfg, registry).expect("valid chaos config");
        for i in 0..s.requests as u64 {
            server.push_request(SimTime::from_ns(i * 1_500), root, 256);
        }
        let rep = server.run();
        let audit = server.audit(&rep);
        prop_assert!(audit.is_ok(), "{:?} under {:?}", audit, s);
    }
}
