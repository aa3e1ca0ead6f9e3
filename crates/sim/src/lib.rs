//! # jord-sim — discrete-event simulation substrate
//!
//! The Jord paper evaluates its hardware/software co-design on QFlex, a
//! cycle-accurate full-system simulator. This crate is the foundation of our
//! substitute: a deterministic discrete-event simulation (DES) kernel that the
//! hardware timing model ([`jord-hw`]) and the FaaS runtimes build on.
//!
//! It provides four things:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated time
//!   (one 4 GHz cycle = 250 ps), so every latency in the paper's Table 2/4 is
//!   representable exactly.
//! * [`EventQueue`] — a total-order event queue with deterministic FIFO
//!   tie-breaking for simultaneous events. Implemented as a binary heap of
//!   `(time, seq, slot)` keys over a payload slab, with O(1) tombstone
//!   cancellation ([`EventId`]/[`CancelOutcome`]); the pre-refactor binary
//!   heap survives in [`oracle`] as the differential-test oracle and the
//!   cancel-storm bench baseline.
//! * [`Rng`] (xoshiro256++) and [`dist`] — seeded, reproducible random number
//!   generation and the distributions used by the load generator and workload
//!   models (exponential inter-arrivals for Poisson processes, log-normal
//!   service times).
//! * [`stats`] — an HDR-style log-linear latency histogram with quantile
//!   queries (p50/p99/…) and streaming mean/variance accumulators, used to
//!   report the paper's p99-latency-vs-load curves and service-time CDFs.
//!
//! Everything is `no_std`-shaped plain Rust with no external dependencies, so
//! experiments are bit-for-bit reproducible from their seeds on any host.
//!
//! # Example
//!
//! ```
//! use jord_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut queue = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_ns(5), "second");
//! queue.push(SimTime::ZERO, "first");
//! let (t, ev) = queue.pop().expect("event");
//! assert_eq!(t, SimTime::ZERO);
//! assert_eq!(ev, "first");
//! ```
//!
//! [`jord-hw`]: https://example.com/jord-rs

pub mod dist;
pub mod horizon;
pub mod oracle;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::TimeDist;
pub use horizon::lbts;
pub use queue::{CancelOutcome, EventId, EventQueue, QueueProbe};
pub use rng::Rng;
pub use stats::{LatencyHistogram, OnlineStats};
pub use time::{SimDuration, SimTime};
