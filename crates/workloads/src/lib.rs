//! # jord-workloads — microservice workloads, load generation, and SLOs
//!
//! The paper evaluates Jord on three DeathStarBench applications —
//! **Social** network, **Media** service, **Hotel** reservation — and on
//! Google's OnlineBoutique (**Hipster**), all "ported to Jord by rewriting
//! them into functions following Jord's paradigm" (§5). This crate is that
//! port: each application is a set of [`jord_core::FunctionSpec`] DAGs with
//! compute-time distributions, nested-call structure, and ArgBuf sizes
//! calibrated to the characteristics the paper reports (≈3 nested calls
//! per request except Media's ≈12; ReadPage issuing >100; ≈15 cache blocks
//! of ArgBuf data per request; the Figure 10 service-time shapes, including
//! Social's ~75 µs ComposePost tail).
//!
//! The crate also provides:
//!
//! * [`LoadGen`] — a wrk2-style open-loop generator with per-workload
//!   entry-point mixes (§5) and, beyond the paper's Poisson process, the
//!   non-stationary [`ArrivalProcess`] shapes (diurnal sinusoid,
//!   flash-crowd step, Markov-modulated bursts) that drive autoscaling
//!   studies,
//! * [`runner`] — one-call drivers that assemble a server for any
//!   [`jord_core::SystemVariant`] (Jord, Jord_NI, Jord_BT or NightCore),
//!   inject a load, and return the measurement report,
//! * [`slo`] — the paper's SLO machinery: 10× the minimal-load service
//!   time on Jord_NI, and the "throughput under SLO" search used all over
//!   §6,
//! * [`chaos`] — fault-rate sweep campaigns that assert graceful
//!   degradation and zero resource leakage under deterministic fault
//!   injection,
//! * [`crash`] — crash/recovery campaigns that kill an executor, an
//!   orchestrator, or the whole worker mid-run and assert the write-ahead
//!   journal loses nothing (a clean [`jord_core::WorkerServer::audit`],
//!   and at-least-once parity with the crash-free baseline),
//! * [`failover`] — cluster campaigns that run N workers behind a
//!   [`jord_core::ClusterDispatcher`], kill or partition one mid-run, and
//!   assert the phi-accrual detector convicts within its configured bound
//!   while cross-worker failover keeps the ledger balanced,
//! * [`autoscale`] — overload-survival campaigns: flash-crowd, diurnal,
//!   and bursty traffic against the SLO-driven
//!   [`jord_core::ClusterAutoscaler`] and its brownout ladder, reporting
//!   cost-vs-SLO (worker-seconds bought vs load shed) and asserting zero
//!   lost requests even when a crash races a scale-down drain,
//! * [`soak`] — week-of-traffic soak campaigns against the memory
//!   governor: seven diurnal periods with warm-pool eviction, pressure
//!   ladders, and table compaction engaged, asserting bounded residency,
//!   no day-over-day growth, stable tails, balanced memory ledgers, and
//!   bit-identical seeded replay (including a crash landing mid-reclaim).
//!
//! # Example
//!
//! ```
//! use jord_workloads::{LoadGen, Workload, WorkloadKind};
//! use jord_core::{RuntimeConfig, SystemVariant, WorkerServer};
//!
//! let workload = Workload::build(WorkloadKind::Hotel);
//! let mut server = WorkerServer::new(RuntimeConfig::jord_32(), workload.registry.clone()).unwrap();
//! // 2000 requests at 1 MRPS.
//! let mut gen = LoadGen::new(&workload, 7).unwrap();
//! for (t, func, bytes) in gen.arrivals(1.0e6, 2000) {
//!     server.push_request(t, func, bytes);
//! }
//! let report = server.run();
//! assert_eq!(report.completed, 2000);
//! ```

pub mod apps;
pub mod autoscale;
pub mod chaos;
pub mod crash;
pub mod failover;
pub mod loadgen;
pub mod runner;
pub mod slo;
pub mod soak;
pub mod storage;

pub use apps::{EntryPoint, Workload, WorkloadKind};
pub use autoscale::{AutoscaleCampaign, AutoscalePoint, AutoscaleReport};
pub use chaos::{ChaosPoint, ChaosReport, ChaosSpec};
pub use crash::{CrashCampaign, CrashPoint, CrashReport};
pub use failover::{FailoverCampaign, FailoverPoint, FailoverReport};
pub use loadgen::{ArrivalProcess, LoadGen};
pub use runner::{run_system, SweepPoint};
pub use slo::{measure_slo, throughput_under_slo, SloError};
pub use soak::{SoakCampaign, SoakDay, SoakReport};
pub use storage::{ClusterStoragePoint, StorageChaosCampaign, StoragePoint, StorageReport};
