//! # jord-privlib — PrivLib, Jord's trusted user-level privileged library
//!
//! PrivLib (§3.2, §4.4, Table 1) is the only user-level software with the
//! privilege to touch the VMA table and the `uatp`/`uatc`/`ucid` CSRs. It
//! exposes two API families:
//!
//! * **VMA management** — POSIX-compatible `mmap`/`munmap`/`mprotect` plus
//!   Jord's `pmove`/`pcopy` permission transfers between protection domains.
//! * **PD management** — `cget`/`cput` to create/destroy protection
//!   domains, and `ccall`/`center`/`cexit` to switch into, resume, and
//!   suspend them.
//!
//! Every API charges its cost against the `jord-hw` [`Machine`]: the
//! instruction work of the operation (a handful of nanoseconds; Table 4)
//! plus the actual memory traffic it generates — free-list atomics, VTE
//! reads/writes (which trigger VTD shootdowns when the VMA is shared), and
//! B-tree node walks under the Jord_BT configuration.
//!
//! Security follows §4.3: PrivLib's own state lives behind privileged
//! (P-bit) VMAs; entry from untrusted code must pass a `uatg` call gate
//! ([`PrivLib::try_enter`]) followed by mandatory policy checks; and the
//! translation path ([`PrivLib::access`]) faults exactly when the paper's
//! threat model says it must.
//!
//! [`Machine`]: jord_hw::Machine
//!
//! # Example
//!
//! ```
//! use jord_hw::{CoreId, Machine, MachineConfig, Perm};
//! use jord_privlib::{os, PrivLib, TableChoice};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut machine = Machine::new(MachineConfig::isca25());
//! let mut privlib = os::boot(&mut machine, TableChoice::PlainList)?;
//! let core = CoreId(1);
//!
//! // Allocate a VMA into a fresh PD and hand it RW access.
//! let (pd, _) = privlib.cget(&mut machine, core)?;
//! let (va, _) = privlib.mmap(&mut machine, core, 0x1000, Perm::RW, pd)?;
//!
//! // The PD can touch it; others cannot.
//! privlib.access(&mut machine, core, pd, va, Perm::WRITE)?;
//! let (other, _) = privlib.cget(&mut machine, core)?;
//! assert!(privlib.access(&mut machine, core, other, va, Perm::READ).is_err());
//! # Ok(())
//! # }
//! ```

mod cost;
pub mod error;
pub mod os;
pub mod privlib;
pub mod stats;

pub use error::PrivError;
pub use privlib::{Gate, IsolationMode, PrivLib, TableChoice};
pub use stats::{MemoryCounters, OpKind, PrivLibStats};
