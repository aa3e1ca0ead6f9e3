//! # jord-nightcore — the enhanced NightCore baseline (§5)
//!
//! NightCore (Jia & Witchel, ASPLOS '21) is the state-of-the-art
//! latency-sensitive FaaS system the paper compares against. It uses
//! provisioned containers for concurrency and isolation while optimizing
//! intra-server communication through OS pipes and SysV shared memory.
//!
//! The paper *enhances* NightCore to give it the best possible chance:
//! launchers and workers run as ordinary threads in a single address space,
//! with thread pinning and the same JBSQ dispatch as Jord. "As such, the
//! performance of this optimized version of NightCore is primarily limited
//! by OS pipes" — and that is exactly what this crate models. The control
//! and data planes are identical in structure to `jord-core`'s runtime, but
//! every dispatch, nested invocation, and completion crosses an OS pipe:
//! system-call entry/exit, data copy at memory bandwidth, and a scheduler
//! wakeup on the receiving side. There are no PDs, no VMA table, no
//! zero-copy handoffs — and no isolation.
//!
//! The [`pipe`] constants follow published measurements (NightCore
//! reports its internal function-call latencies in the few-microsecond
//! range; pipe round trips with futex wakeups cost 2–4 µs on current
//! Linux).
//!
//! # Example
//!
//! ```
//! use jord_core::{FuncOp, FunctionRegistry, FunctionSpec};
//! use jord_nightcore::{NightCoreConfig, NightCoreServer};
//! use jord_sim::{SimTime, TimeDist};
//!
//! let mut registry = FunctionRegistry::new();
//! let f = registry.register(FunctionSpec::new("hello")
//!     .op(FuncOp::Compute(TimeDist::fixed(1_000.0))));
//! let mut server = NightCoreServer::new(NightCoreConfig::default_32(), registry).unwrap();
//! server.push_request(SimTime::ZERO, f, 512);
//! let report = server.run();
//! assert_eq!(report.completed, 1);
//! // The pipe round trips put even a 1 µs function above 5 µs end-to-end.
//! assert!(report.latency.max().unwrap().as_us_f64() > 5.0);
//! ```

pub mod pipe;
pub mod server;

pub use server::{NightCoreConfig, NightCoreServer};
