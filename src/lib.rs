//! # jord — single-address-space FaaS with nanosecond-scale in-process isolation
//!
//! A comprehensive Rust reproduction of *"Single-Address-Space FaaS with
//! Jord"* (Li et al., ISCA 2025): the runtime, the hardware/software
//! co-designed memory-isolation mechanism, the baselines, the workloads,
//! and a benchmark harness that regenerates every table and figure of the
//! paper's evaluation.
//!
//! This crate is a facade; the system lives in seven focused crates:
//!
//! * [`sim`] (`jord-sim`) — deterministic discrete-event simulation kernel.
//! * [`hw`] (`jord-hw`) — the Table 2 machine: mesh NoC, MESI directory
//!   coherence, I/D-VLBs, VTW, VTD shootdown, Jord's CSRs and faults.
//! * [`vma`] (`jord-vma`) — size-class-encoded VAs, the plain-list VMA
//!   table, the B-tree ablation, free lists.
//! * [`privlib`] (`jord-privlib`) — the trusted privileged library
//!   (Table 1 APIs, call gates, policy checks).
//! * [`core`] (`jord-core`) — orchestrators (JBSQ), executors
//!   (continuations + per-invocation PDs), ArgBufs, the worker server.
//! * [`nightcore`] (`jord-nightcore`) — the enhanced NightCore baseline.
//! * [`workloads`] (`jord-workloads`) — Hipster/Hotel/Media/Social, the
//!   open-loop Poisson load generator, SLO machinery.
//!
//! # Quickstart
//!
//! ```
//! use jord::prelude::*;
//!
//! // Deploy two functions: a leaf and an entry that calls it.
//! let mut registry = FunctionRegistry::new();
//! let greet = registry.register(
//!     FunctionSpec::new("greet").compute(400.0, 0.2),
//! );
//! let front = registry.register(
//!     FunctionSpec::new("frontdoor")
//!         .op(FuncOp::ReadInput)
//!         .compute(300.0, 0.2)
//!         .call(greet, 128)
//!         .op(FuncOp::WriteOutput),
//! );
//!
//! // Run them on a simulated 32-core Jord worker server.
//! let mut server = WorkerServer::new(RuntimeConfig::jord_32(), registry).unwrap();
//! server.push_request(SimTime::ZERO, front, 512);
//! let report = server.run();
//! assert_eq!(report.completed, 1);
//! assert_eq!(report.invocations, 2);
//! ```
//!
//! `crates/bench` holds the realistic scenarios and the
//! paper-reproduction harnesses, each a subcommand of one binary:
//! `cargo run --release -p jord-bench -- <name>`.

pub use jord_core as core;
pub use jord_hw as hw;
pub use jord_nightcore as nightcore;
pub use jord_privlib as privlib;
pub use jord_sim as sim;
pub use jord_vma as vma;
pub use jord_workloads as workloads;

/// The most common imports for building and running Jord systems.
pub mod prelude {
    pub use jord_core::{
        ArgBuf, FuncOp, FunctionId, FunctionRegistry, FunctionSpec, RunReport, RuntimeConfig,
        SystemVariant, WorkerServer,
    };
    pub use jord_hw::{CoreId, Fault, Machine, MachineConfig, PdId, Perm};
    pub use jord_nightcore::{NightCoreConfig, NightCoreServer};
    pub use jord_privlib::{IsolationMode, PrivError, PrivLib, TableChoice};
    pub use jord_sim::{LatencyHistogram, Rng, SimDuration, SimTime, TimeDist};
    pub use jord_workloads::{
        measure_slo, runner::RunSpec, throughput_under_slo, LoadGen, System, Workload, WorkloadKind,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let _ = MachineConfig::isca25();
        let _ = FunctionSpec::new("x");
        let _ = SimTime::ZERO;
    }

    /// Pins the test profile's overflow checks: it fails if the `dev`
    /// profile in `.cargo/config.toml` ever turns them off.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflow")]
    fn test_profile_keeps_overflow_checks() {
        let _ = std::hint::black_box(u64::MAX) + 1;
    }
}
