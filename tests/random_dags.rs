//! Property-based end-to-end test: randomly generated function DAGs must
//! always complete on every system variant — no deadlocks, no leaks, no
//! faults — regardless of nesting shape, fan-out, mix of sync/async calls,
//! or scratch allocations.
//!
//! This is the §3.3 forward-progress guarantee (internal-first queues) and
//! the Figure 4 PD lifecycle under adversarially weird workloads.

use proptest::prelude::*;

use jord::prelude::*;

/// A recipe for one randomly shaped application.
#[derive(Debug, Clone)]
struct DagRecipe {
    /// For each non-leaf level: (sync calls, async calls) to the next level.
    levels: Vec<(u8, u8)>,
    /// Compute ns per function.
    compute_ns: u16,
    /// Whether functions allocate a scratch VMA.
    scratch: bool,
    /// ArgBuf bytes for nested calls.
    arg_bytes: u16,
}

fn arb_recipe() -> impl Strategy<Value = DagRecipe> {
    (
        proptest::collection::vec((0u8..3, 0u8..4), 1..4),
        200u16..3000,
        any::<bool>(),
        64u16..2048,
    )
        .prop_map(|(levels, compute_ns, scratch, arg_bytes)| DagRecipe {
            levels,
            compute_ns,
            scratch,
            arg_bytes,
        })
        .prop_filter("at least one call somewhere", |r| {
            r.levels.iter().any(|&(s, a)| s + a > 0)
        })
}

fn build(recipe: &DagRecipe) -> (FunctionRegistry, FunctionId, usize) {
    let mut registry = FunctionRegistry::new();
    // Build bottom-up: the leaf first, then each level calling downward.
    let mut spec = FunctionSpec::new("leaf").compute(recipe.compute_ns as f64, 0.2);
    if recipe.scratch {
        spec = spec
            .op(FuncOp::MmapTemp { bytes: 4096 })
            .op(FuncOp::MunmapTemp);
    }
    let mut child = Some(registry.register(spec));
    for (depth, &(syncs, asyncs)) in recipe.levels.iter().enumerate() {
        let target = child.expect("built below");
        let mut spec = FunctionSpec::new(format!("l{depth}"))
            .op(FuncOp::ReadInput)
            .compute(recipe.compute_ns as f64, 0.2);
        for _ in 0..syncs {
            spec = spec.call(target, recipe.arg_bytes as u64);
        }
        for _ in 0..asyncs {
            spec = spec.call_async(target, recipe.arg_bytes as u64);
        }
        if asyncs > 0 {
            spec = spec.op(FuncOp::WaitAll);
        }
        spec = spec.op(FuncOp::WriteOutput);
        child = Some(registry.register(spec));
    }
    let entry = child.expect("non-empty");
    let fanout = registry.invocation_fanout(entry);
    (registry, entry, fanout)
}

proptest! {
    // End-to-end simulations are comparatively slow; a couple dozen random
    // DAGs per variant still covers a wide structural space.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_dags_always_complete(recipe in arb_recipe(), seed in 0u64..1000) {
        let (registry, entry, fanout) = build(&recipe);
        prop_assume!(fanout <= 120); // keep a single case under ~100k invocations
        let requests = 40u64;
        let cfg = RuntimeConfig::jord_32().with_seed(seed);
        let mut server = WorkerServer::new(cfg, registry).expect("valid");
        for i in 0..requests {
            server.push_request(SimTime::from_ns(i * 500), entry, 256);
        }
        let report = server.run();
        prop_assert_eq!(report.completed, requests);
        prop_assert_eq!(report.invocations, requests * fanout as u64);
        prop_assert!(report.p99().is_some());
    }

    #[test]
    fn random_dags_complete_under_nightcore_too(recipe in arb_recipe()) {
        let (registry, entry, fanout) = build(&recipe);
        prop_assume!(fanout <= 60);
        let requests = 20u64;
        let cfg = RuntimeConfig::variant_on(SystemVariant::NightCore, MachineConfig::isca25());
        let mut server = WorkerServer::new(cfg, registry).expect("valid");
        for i in 0..requests {
            server.push_request(SimTime::from_ns(i * 5_000), entry, 256);
        }
        let report = server.run();
        prop_assert_eq!(report.completed, requests);
        prop_assert_eq!(report.invocations, requests * fanout as u64);
    }
}
