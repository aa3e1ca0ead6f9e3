//! # jord-vma — Jord's VMA machinery (§4.1, Figures 6 & 8)
//!
//! The key data structures of the paper's co-design, as software:
//!
//! * [`SizeClass`] — the 26 power-of-two size classes (128 B … 4 GiB) that
//!   categorize VMA allocations, inspired by segregated-list heap allocators.
//! * [`VaCodec`] — the size-class-embedded virtual-address encoding
//!   (Figure 6): `[Top | SC | Index | Offset]`. The encoding statically
//!   partitions the VA space among classes and makes the VMA-table slot of
//!   any address a pure function of its bits — no lookup structure needed.
//! * [`Vte`] — a VMA table entry (Figure 8): one cache block holding the
//!   mapping, attribute bits (Global, Privilege), a 20-entry sub-array of
//!   (PD id, permission) pairs, and an overflow pointer for VMAs with more
//!   than 20 sharers.
//! * [`PlainListTable`] — the plain-list VMA table: a flat array of VTEs
//!   addressed by `f(SC, Index)`, shared verbatim between software (PrivLib)
//!   and hardware (the VTW walks the same list).
//! * [`BTreeTable`] — the Jord_BT ablation (§6.2, Figure 13): the same VMA
//!   metadata behind a B-tree index, with node traversals and rebalancing
//!   charged as memory accesses.
//! * [`FreeLists`] / [`PhysAllocator`] — segregated free lists of VMA slots
//!   and the OS-reserved physical chunk pool that backs them (§4.4).
//!
//! Every table operation reports the memory accesses it performed (VTE and
//! index-node reads/writes) as [`TableAccess`] records; `jord-privlib`
//! charges those against the `jord-hw` machine, which is how plain-list vs
//! B-tree latency differences (2 ns vs ~20 ns VLB miss penalty, +167 %
//! management time) arise from first principles rather than constants.

pub mod btree;
pub mod codec;
pub mod free_list;
pub mod phys;
pub mod size_class;
pub mod snapshot;
pub mod table;
pub mod vte;

pub use btree::BTreeTable;
pub use codec::VaCodec;
pub use free_list::FreeLists;
pub use phys::PhysAllocator;
pub use size_class::SizeClass;
pub use snapshot::{DurableFootprint, PdSnapshot, SnapshotDiff, SnapshotEntry};
pub use table::{PlainListTable, TableAccess, VmaRecord, VmaTable};
pub use vte::{Vte, VteAttr, SUB_ARRAY_LEN};
