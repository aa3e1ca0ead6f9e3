//! # jord-core — the Jord single-address-space FaaS runtime
//!
//! This crate is the paper's primary contribution as software: a worker
//! server (§3, Figure 3) whose orchestrators and executors are threads in
//! one address space, communicating through zero-copy ArgBufs and isolating
//! every function invocation in its own protection domain via PrivLib.
//!
//! * [`Orchestrator`] — receives external requests, balances them over its
//!   executor group with Join-Bounded-Shortest-Queue (JBSQ) dispatch, and
//!   keeps separate internal/external queues so nested invocations can
//!   never deadlock behind external load (§3.3).
//! * [`Executor`] — runs functions as continuations: each invocation
//!   executes inside a fresh PD (Figure 4), suspends on nested synchronous
//!   calls (`cexit`), and resumes when children finish (`center`) (§3.4).
//! * [`FunctionSpec`] — the declarative programming model the workloads are
//!   written in (the Rust analogue of Listing 1): compute phases, ArgBuf
//!   reads/writes, sync/async nested invocations, and dynamic `mmap`s.
//! * [`WorkerServer`] — the discrete-event world tying the runtime to the
//!   `jord-hw` machine; every queue access, ArgBuf transfer, VTE update,
//!   and VLB shootdown is charged against the simulated hardware.
//!
//! The four systems of §5 are variants of one [`RuntimeConfig`], run by
//! the same [`WorkerServer`]: **Jord** (plain list + full isolation),
//! **Jord_NI** (isolation bypassed — the paper's idealized insecure
//! baseline), **Jord_BT** (B-tree VMA table), and the enhanced
//! **NightCore** baseline (isolation bypassed, with dispatch, nested calls
//! and results crossing OS pipes).
//!
//! # Example
//!
//! ```
//! use jord_core::{FuncOp, FunctionRegistry, FunctionSpec, RuntimeConfig, WorkerServer};
//! use jord_sim::{SimTime, TimeDist};
//!
//! let mut registry = FunctionRegistry::new();
//! let hello = registry.register(FunctionSpec::new("hello")
//!     .op(FuncOp::ReadInput)
//!     .op(FuncOp::Compute(TimeDist::fixed(1_000.0)))
//!     .op(FuncOp::WriteOutput));
//!
//! let mut server = WorkerServer::new(RuntimeConfig::jord_32(), registry).unwrap();
//! server.push_request(SimTime::ZERO, hello, 512);
//! let report = server.run();
//! assert_eq!(report.completed, 1);
//! ```

pub mod admission;
pub mod argbuf;
pub mod audit;
pub mod autoscaler;
pub mod cluster;
pub mod config;
pub mod durability;
pub mod events;
pub mod executor;
pub mod function;
pub mod health;
pub mod invocation;
pub mod journal;
pub mod lifecycle;
pub mod memory;
pub mod orchestrator;
pub mod recovery;
pub mod server;
pub mod stats;

pub use admission::{AdmissionPolicy, BrownoutLevel, FailureDisposition};
pub use argbuf::ArgBuf;
pub use audit::{AuditError, JournalCheck, LedgerCopy, Violation};
pub use autoscaler::{
    AutoscalerConfig, ClusterAutoscaler, Directive, ScaleDecision, WindowSignals,
};
pub use cluster::{
    ClusterConfig, ClusterDispatcher, ClusterReport, DrainPlan, EngineConfig, HedgeConfig,
    PartitionPlan, WindowRecord, WorkerKill,
};
pub use config::{ConfigError, RecoveryPolicy, RuntimeConfig, SpillConfig, SystemVariant};
pub use durability::{CheckpointSeal, DurableLog, FrameAnomaly, ScanReport, FRAME_HEADER_BYTES};
pub use events::{AbortCause, EventBus, LifecycleEvent, NoticeOutcome, RetryKind, WorkerNotice};
pub use executor::Executor;
pub use function::{FuncOp, FunctionId, FunctionRegistry, FunctionSpec};
pub use health::{PhiAccrual, WorkerHealth};
pub use invocation::{Invocation, InvocationId};
pub use journal::{
    InvocationJournal, JournalRecord, PendingInvocation, PendingRetry, RecoveredState,
    WorkerCheckpoint,
};
pub use lifecycle::{transition, InvocationState, LifecycleEngine, LifecycleError, RequestRow};
pub use memory::{
    MemoryConfig, MemoryLedger, MemoryPressure, PdPool, PdPoolError, PooledPd,
    CHECKPOINT_IMAGE_BYTES,
};
pub use orchestrator::Orchestrator;
pub use recovery::{CrashConfig, CrashSemantics, RecoveryRung};
pub use server::{StrandedRequest, WorkerServer};
pub use stats::{
    AutoscaleStats, CrashStats, DurabilityStats, FailoverStats, FaultStats, FunctionBreakdown,
    RunReport, SanitizeStats,
};
