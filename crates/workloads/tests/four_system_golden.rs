//! Golden output of the four evaluated systems on one small run: Jord,
//! Jord_NI, Jord_BT and enhanced NightCore, each serving 1,000 measured
//! Hipster requests (after 100 warm-up) at 0.5 MRPS with seed 42.
//!
//! The pins are exact picosecond counts. A change that only restructures
//! code (a config field turned into a constant, a cost model moved) must
//! leave every one of them as it is; a change to the model updates them
//! and says why. The `trace_hash` pins in CI cover Jord alone, so this is
//! the one pin on NightCore's exact output.

use jord_core::SystemVariant;
use jord_workloads::runner::RunSpec;
use jord_workloads::{Workload, WorkloadKind};

/// `(system, finished_at ps, invocations, completed, p99 ps, mean ps)`.
const PINS: [(SystemVariant, u64, u64, u64, u64, u64); 4] = [
    (
        SystemVariant::Jord,
        2_104_735_657,
        3_312,
        1_000,
        4_325_375,
        2_549_725,
    ),
    (
        SystemVariant::JordNi,
        2_104_308_657,
        3_315,
        1_000,
        3_604_479,
        1_954_432,
    ),
    (
        SystemVariant::JordBt,
        2_105_103_298,
        3_311,
        1_000,
        4_980_735,
        3_020_046,
    ),
    (
        SystemVariant::NightCore,
        2_113_084_711,
        3_310,
        1_000,
        19_922_943,
        13_567_576,
    ),
];

#[test]
fn four_systems_reproduce_their_pinned_hipster_run() {
    let hipster = Workload::build(WorkloadKind::Hipster);
    for (sys, finished_at, invocations, completed, p99, mean) in PINS {
        let rep = RunSpec::new(sys, 0.5e6)
            .requests(1_000, 100)
            .seed(42)
            .run(&hipster);
        let got = (
            rep.finished_at.as_ps(),
            rep.invocations,
            rep.completed,
            rep.latency.p99().expect("requests completed").as_ps(),
            rep.latency.mean().expect("requests completed").as_ps(),
        );
        assert_eq!(
            got,
            (finished_at, invocations, completed, p99, mean),
            "{} drifted from its pinned run",
            sys.label()
        );
    }
}
