//! Property-based crash-recovery determinism: for ANY crash point, crash
//! scope, checkpoint cadence, workload shape, and seed, an at-least-once
//! recovery must converge to EXACTLY the totals of the same seeded run
//! with no crash — same completed count — and pass
//! [`WorkerServer::audit`]: a balanced request ledger, every allocator
//! watermark back at the pristine image's, and a journal replay that
//! agrees with its witnesses.
//!
//! This is the write-ahead journal run adversarially: if replay ever
//! loses, duplicates, or fabricates a request — at any crash instant,
//! including mid-recovery checkpoints and crashes that land after the
//! drain — some schedule in this space finds it.

use proptest::prelude::*;

use jord_core::{
    CrashConfig, CrashSemantics, FuncOp, FunctionRegistry, FunctionSpec, RecoveryPolicy, RunReport,
    RuntimeConfig, WorkerServer,
};
use jord_hw::{CrashPlan, CrashScope};
use jord_sim::{SimTime, TimeDist};

/// One randomly shaped crash scenario.
#[derive(Debug, Clone)]
struct Scenario {
    /// Crash instant as a fraction of the arrival span (can land past it).
    crash_frac: f64,
    scope: CrashScope,
    checkpoint_every: usize,
    /// Nested sync calls per root request.
    calls: u8,
    requests: u16,
    spacing_ns: u64,
    seed: u64,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            0.0f64..1.5,
            prop_oneof![
                Just(CrashScope::Worker),
                (0usize..28).prop_map(CrashScope::Executor),
                (0usize..4).prop_map(CrashScope::Orchestrator),
            ],
            1usize..256,
        ),
        (0u8..3, 50u16..400, 0u64..500, 0u64..10_000),
    )
        .prop_map(
            |((crash_frac, scope, checkpoint_every), (calls, requests, spacing_ns, seed))| {
                Scenario {
                    crash_frac,
                    scope,
                    checkpoint_every,
                    calls,
                    requests,
                    spacing_ns,
                    seed,
                }
            },
        )
}

fn registry_for(calls: u8) -> (FunctionRegistry, jord_core::FunctionId) {
    let mut r = FunctionRegistry::new();
    let leaf = r.register(
        FunctionSpec::new("leaf")
            .op(FuncOp::ReadInput)
            .op(FuncOp::Compute(TimeDist::fixed(800.0)))
            .op(FuncOp::WriteOutput),
    );
    let mut root = FunctionSpec::new("root").op(FuncOp::ReadInput);
    for _ in 0..calls {
        root = root.call(leaf, 96);
    }
    root = root
        .op(FuncOp::Compute(TimeDist::fixed(500.0)))
        .op(FuncOp::WriteOutput);
    let root = r.register(root);
    (r, root)
}

/// Runs one seeded server to completion and audits it.
fn run_one(s: &Scenario, crash: Option<CrashConfig>) -> RunReport {
    let mut cfg = RuntimeConfig::jord_32()
        .with_seed(s.seed)
        .with_recovery(RecoveryPolicy {
            max_retries: 5,
            ..RecoveryPolicy::default()
        });
    if let Some(c) = crash {
        cfg = cfg.with_crash(c);
    }
    let (r, root) = registry_for(s.calls);
    let mut server = WorkerServer::new(cfg, r).expect("valid config");
    for i in 0..s.requests as u64 {
        server.push_request(SimTime::from_ns(i * s.spacing_ns), root, 128);
    }
    let rep = server.run();
    let audit = server.audit(&rep);
    prop_assert!(
        audit.is_ok(),
        "{:?} under {:?}, crash {:?}",
        audit,
        s,
        crash
    );
    rep
}

proptest! {
    // Each case runs two full servers; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At-least-once recovery is invisible in the totals: the crashed run
    /// completes exactly what the crash-free run completes, loses nothing,
    /// and leaks nothing.
    #[test]
    fn at_least_once_replay_matches_the_crash_free_run(s in arb_scenario()) {
        let base = run_one(&s, None);
        prop_assert_eq!(base.completed, s.requests as u64);

        let span_us = (s.requests as u64 * s.spacing_ns) as f64 / 1_000.0;
        let crash = CrashConfig::new(
            CrashPlan { at_us: span_us * s.crash_frac, scope: s.scope },
            CrashSemantics::AtLeastOnce,
        )
        .checkpoint_every(s.checkpoint_every);
        let rep = run_one(&s, Some(crash));

        // run_one audited both runs; replay converges to the crash-free
        // totals.
        prop_assert_eq!(
            rep.completed, base.completed,
            "at-least-once must complete exactly the baseline count \
             (crash: {:?}, readmitted {})", rep.crash, rep.crash.readmitted
        );
        prop_assert_eq!(rep.faults.failed, 0);
    }
}
