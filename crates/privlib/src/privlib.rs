//! The PrivLib implementation (Table 1 APIs).

use jord_hw::types::{CoreId, PdId, Perm, Va};
use jord_hw::{Csr, Fault, Machine, VlbKind};
use jord_sim::SimDuration;
use jord_vma::{
    BTreeTable, DurableFootprint, FreeLists, PdSnapshot, PhysAllocator, PlainListTable, SizeClass,
    SnapshotDiff, TableAccess, VaCodec, VmaTable, VteAttr,
};

use crate::cost;
use crate::error::PrivError;
use crate::stats::{MemoryCounters, OpKind, PrivLibStats};

/// Which VMA table data structure backs PrivLib (§5's Jord vs Jord_BT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableChoice {
    /// The plain list of §4.1 (the Jord design point).
    PlainList,
    /// The B-tree ablation (Jord_BT, Figure 13).
    BTree,
}

/// Whether isolation operations actually run (§5's Jord vs Jord_NI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationMode {
    /// Full in-process memory isolation (Jord).
    Full,
    /// All isolation operations bypassed (Jord_NI): VMAs are still
    /// allocated/deallocated — that's memory management — but permission
    /// grants/transfers, PD bookkeeping, and access checks are skipped.
    /// This is the paper's idealized but insecure upper bound.
    Bypassed,
}

/// Proof that control entered PrivLib through a `uatg` call gate followed
/// by the mandatory policy checks (§4.3/4.4). Produced only by
/// [`PrivLib::try_enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    core: CoreId,
}

impl Gate {
    /// The core this gate entry happened on.
    pub fn core(&self) -> CoreId {
        self.core
    }
}

// The one region map the OS shim reserves at boot (§4.4): the addresses
// the hardware model charges PrivLib's own traffic at.

/// VMA table base (programmed into `uatp`).
pub(crate) const TABLE_BASE: u64 = 0x10_0000_0000;
/// B-tree index-node region (Jord_BT only).
const NODE_BASE: u64 = 0x20_0000_0000;
/// B-tree VTE arena (Jord_BT only).
const ARENA_BASE: u64 = 0x30_0000_0000;
/// Free-list head cache lines.
const FREELIST_BASE: u64 = 0x40_0000_0000;
/// PD configuration records (one cache line per PD), stored in a
/// privileged VMA only PrivLib can touch (§3.2).
const PD_CONFIG_BASE: u64 = 0x50_0000_0000;
/// PD free-list head cache line.
const PD_FREELIST_ADDR: u64 = 0x60_0000_0000;
/// Reserved physical region base.
const PHYS_BASE: u64 = 0x100_0000_0000;

/// Maximum number of simultaneously live PDs (the `ucid` CSR is 16-bit;
/// 1024 is far beyond any worker server's concurrent function count).
pub const MAX_PDS: u16 = 1024;

/// The trusted privileged library.
pub struct PrivLib {
    codec: VaCodec,
    table: Box<dyn VmaTable + Send>,
    choice: TableChoice,
    mode: IsolationMode,
    free: FreeLists,
    phys: PhysAllocator,
    pd_free: Vec<u16>,
    pd_live: Vec<bool>,
    stats: PrivLibStats,
    mem: MemoryCounters,
    acc: Vec<TableAccess>,
}

impl PrivLib {
    /// Builds a PrivLib instance over the reserved region map, with the
    /// experiments' VA scheme ([`VaCodec::isca25`]). Use
    /// [`crate::os::boot`] for the full bootstrap (which also charges the
    /// OS-side initialization).
    pub fn new(choice: TableChoice, mode: IsolationMode) -> Self {
        let codec = VaCodec::isca25();
        let table: Box<dyn VmaTable + Send> = match choice {
            TableChoice::PlainList => Box::new(PlainListTable::new(codec, TABLE_BASE)),
            TableChoice::BTree => Box::new(BTreeTable::new(codec, NODE_BASE, ARENA_BASE)),
        };
        PrivLib {
            codec,
            table,
            choice,
            mode,
            free: FreeLists::new(&codec, FREELIST_BASE),
            // 64 GiB reserved, 256 MiB initial grant.
            phys: PhysAllocator::new(PHYS_BASE, 64 << 30, 256 << 20),
            pd_free: (1..=MAX_PDS).rev().collect(),
            pd_live: vec![false; MAX_PDS as usize + 1],
            stats: PrivLibStats::new(),
            mem: MemoryCounters::default(),
            acc: Vec::with_capacity(16),
        }
    }

    /// The VA codec in effect (the `uatc` contents).
    pub fn codec(&self) -> &VaCodec {
        &self.codec
    }

    /// The configured table data structure.
    pub fn table_choice(&self) -> TableChoice {
        self.choice
    }

    /// The configured isolation mode.
    pub fn isolation_mode(&self) -> IsolationMode {
        self.mode
    }

    /// Operation accounting (Figure 11/13 inputs).
    pub fn stats(&self) -> &PrivLibStats {
        &self.stats
    }

    /// Byte accounting at the mmap/munmap chokepoint — the raw inputs of
    /// the worker's `MemoryLedger` conservation invariant.
    pub fn memory(&self) -> &MemoryCounters {
        &self.mem
    }

    /// Dead bookkeeping entries in the VMA table a compaction sweep would
    /// reclaim (plain-list tombstones, B-tree trailing free slots).
    pub fn dead_slots(&self) -> usize {
        self.table.dead_slots()
    }

    /// Number of live protection domains.
    pub fn live_pds(&self) -> usize {
        self.pd_live.iter().filter(|&&l| l).count()
    }

    /// Number of live VMAs.
    pub fn live_vmas(&self) -> usize {
        self.table.live_mappings()
    }

    fn full(&self) -> bool {
        self.mode == IsolationMode::Full
    }

    /// Replays recorded table accesses against the machine; returns their
    /// total latency. VTE traffic goes through the T-bit path (VTD
    /// registration / shootdown); node traffic is plain data.
    fn charge(machine: &mut Machine, core: CoreId, acc: &[TableAccess]) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for a in acc {
            total += match *a {
                TableAccess::VteRead(vte) => machine.vte_read(core, vte),
                TableAccess::VteWrite(vte) => machine.vte_write(core, vte).0,
                TableAccess::NodeRead(addr) => {
                    machine.read(core, addr, jord_vma::btree::NODE_BYTES)
                }
                TableAccess::NodeWrite(addr) => {
                    machine.write(core, addr, jord_vma::btree::NODE_BYTES)
                }
            };
        }
        total
    }

    // ------------------------------------------------------------------
    // Call gate (§4.3)
    // ------------------------------------------------------------------

    /// Models untrusted code entering PrivLib. `via_gate` reflects whether
    /// the first instruction of the privileged target is `uatg`; jumping
    /// anywhere else into PrivLib raises an illegal-instruction fault.
    ///
    /// # Errors
    ///
    /// [`Fault::MissingGate`] when `via_gate` is false.
    pub fn try_enter(
        &mut self,
        machine: &Machine,
        core: CoreId,
        via_gate: bool,
    ) -> Result<(Gate, SimDuration), PrivError> {
        if !via_gate {
            return Err(Fault::MissingGate { va: TABLE_BASE }.into());
        }
        // uatg itself is one instruction; the mandatory policy checks are
        // a short privileged prologue.
        let cost = machine.work(cost::POLICY_CHECK_NS);
        Ok((Gate { core }, cost))
    }

    // ------------------------------------------------------------------
    // VMA management (Table 1, upper half)
    // ------------------------------------------------------------------

    /// `mmap(addr=0, len, prot, …)`: allocates a new VMA of the size class
    /// covering `len` and grants `prot` to `pd`. Returns the VMA's base VA.
    ///
    /// # Errors
    ///
    /// [`PrivError::BadLength`], [`PrivError::OutOfVmas`],
    /// [`PrivError::OutOfMemory`], or [`PrivError::BadPd`].
    pub fn mmap(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        len: u64,
        prot: Perm,
        pd: PdId,
    ) -> Result<(Va, SimDuration), PrivError> {
        let sc = SizeClass::for_len(len).ok_or(PrivError::BadLength { len })?;
        if self.full() && pd != PdId::RUNTIME && !self.pd_live[pd.0 as usize] {
            return Err(PrivError::BadPd { pd });
        }
        let mut cost = machine.work(cost::MMAP_NS);
        // Atomic pop from the class free list.
        cost += machine.atomic_rmw(core, self.free.head_addr(sc));
        let index = self.free.pop(sc).ok_or(PrivError::OutOfVmas { len })?;
        // Physical backing, refilling from the OS if the grant ran dry.
        let phys = loop {
            match self.phys.alloc(sc) {
                Ok(p) => break p,
                Err(true) => {
                    cost += machine.work(cost::UAT_CONFIG_SYSCALL_NS);
                    if !self.phys.refill() {
                        self.free.push(sc, index);
                        return Err(PrivError::OutOfMemory);
                    }
                }
                Err(false) => {
                    self.free.push(sc, index);
                    return Err(PrivError::OutOfMemory);
                }
            }
        };
        self.acc.clear();
        let mut acc = std::mem::take(&mut self.acc);
        self.table.insert(sc, index, len, phys, &mut acc);
        if self.full() && !prot.is_none() {
            self.table.set_perm(sc, index, pd, prot, &mut acc);
        }
        cost += Self::charge(machine, core, &acc);
        self.acc = acc;
        let va = self.codec.base_of(sc, index).expect("freelist index valid");
        self.mem.mapped_bytes += sc.bytes();
        self.stats.record(OpKind::Mmap, cost);
        Ok((va, cost))
    }

    /// `munmap(addr, len)`: deallocates the VMA based at `va`.
    ///
    /// In full isolation mode the caller's PD must hold a permission on the
    /// VMA (or be the trusted runtime).
    ///
    /// # Errors
    ///
    /// [`PrivError::BadAddress`] or [`PrivError::NotOwner`].
    pub fn munmap(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        va: Va,
        pd: PdId,
    ) -> Result<SimDuration, PrivError> {
        let (sc, index, _) = self.codec.decode(va).ok_or(PrivError::BadAddress { va })?;
        let vte = self
            .table
            .peek(sc, index)
            .ok_or(PrivError::BadAddress { va })?;
        if self.full() && pd != PdId::RUNTIME && vte.perm_for(pd).is_none() {
            return Err(PrivError::NotOwner { va, pd });
        }
        let mut cost = machine.work(cost::MUNMAP_NS);
        self.acc.clear();
        let mut acc = std::mem::take(&mut self.acc);
        let removed = self.table.remove(sc, index, &mut acc);
        debug_assert!(removed);
        cost += Self::charge(machine, core, &acc);
        self.acc = acc;
        cost += machine.atomic_rmw(core, self.free.head_addr(sc));
        self.free.push(sc, index);
        self.mem.reclaimed_bytes += sc.bytes();
        self.stats.record(OpKind::Munmap, cost);
        Ok(cost)
    }

    /// Sweeps dead bookkeeping out of the VMA table (plain-list tombstones
    /// left by `munmap`, trailing freed B-tree nodes/arena slots). Every
    /// released entry is a charged table write, so compaction shows up in
    /// the Figure-13 VMA-management accounting like any other op. Returns
    /// the charged duration and the number of entries released.
    pub fn compact_tables(&mut self, machine: &mut Machine, core: CoreId) -> (SimDuration, usize) {
        let mut cost = machine.work(cost::POLICY_CHECK_NS);
        self.acc.clear();
        let mut acc = std::mem::take(&mut self.acc);
        let released = self.table.compact(&mut acc);
        cost += Self::charge(machine, core, &acc);
        self.acc = acc;
        self.mem.compactions += 1;
        self.mem.compacted_slots += released as u64;
        self.stats.record(OpKind::Compact, cost);
        (cost, released)
    }

    /// `mprotect(addr, len, prot)`: changes `pd`'s permission on the VMA at
    /// `va` (granting `Perm::NONE` drops it).
    ///
    /// # Errors
    ///
    /// [`PrivError::BadAddress`].
    pub fn mprotect(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        va: Va,
        prot: Perm,
        pd: PdId,
    ) -> Result<SimDuration, PrivError> {
        let (sc, index, _) = self.codec.decode(va).ok_or(PrivError::BadAddress { va })?;
        if !self.full() {
            // Isolation bypassed: permissions are not tracked.
            let cost = SimDuration::ZERO;
            self.stats.record(OpKind::Mprotect, cost);
            return Ok(cost);
        }
        let mut cost = machine.work(cost::MPROTECT_NS);
        self.acc.clear();
        let mut acc = std::mem::take(&mut self.acc);
        let ok = self.table.set_perm(sc, index, pd, prot, &mut acc);
        cost += Self::charge(machine, core, &acc);
        self.acc = acc;
        if !ok {
            return Err(PrivError::BadAddress { va });
        }
        self.stats.record(OpKind::Mprotect, cost);
        Ok(cost)
    }

    /// `mremap`-style resize: changes the requested length of the VMA at
    /// `va` within its size-class chunk (the "trailing part of the
    /// allocated memory chunk is reserved for future resizing", §4.1).
    ///
    /// # Errors
    ///
    /// [`PrivError::BadAddress`] if `va` is not a live Jord VMA,
    /// [`PrivError::BadLength`] if `len` is zero or exceeds the chunk, or
    /// [`PrivError::NotOwner`] if `pd` holds no permission on it.
    pub fn mresize(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        va: Va,
        len: u64,
        pd: PdId,
    ) -> Result<SimDuration, PrivError> {
        let (sc, index, _) = self.codec.decode(va).ok_or(PrivError::BadAddress { va })?;
        let vte = self
            .table
            .peek(sc, index)
            .ok_or(PrivError::BadAddress { va })?;
        if len == 0 || len > sc.bytes() {
            return Err(PrivError::BadLength { len });
        }
        if self.full() && pd != PdId::RUNTIME && vte.perm_for(pd).is_none() {
            return Err(PrivError::NotOwner { va, pd });
        }
        let mut cost = machine.work(cost::MPROTECT_NS);
        self.acc.clear();
        let mut acc = std::mem::take(&mut self.acc);
        let ok = self.table.set_len(sc, index, len, &mut acc);
        cost += Self::charge(machine, core, &acc);
        self.acc = acc;
        debug_assert!(ok);
        self.stats.record(OpKind::Mprotect, cost);
        Ok(cost)
    }

    /// `pmove(addr, cid, prot)`: atomically moves the calling PD's
    /// permission on the VMA at `va` to PD `to`, narrowed by `prot`.
    ///
    /// # Errors
    ///
    /// [`PrivError::BadAddress`], [`PrivError::BadPd`], or
    /// [`PrivError::NotOwner`].
    pub fn pmove(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        va: Va,
        from: PdId,
        to: PdId,
        prot: Perm,
    ) -> Result<SimDuration, PrivError> {
        self.transfer(machine, core, va, from, to, prot, true)
    }

    /// `pcopy(addr, cid, prot)`: like [`pmove`](Self::pmove) but the caller
    /// keeps its permission.
    ///
    /// # Errors
    ///
    /// Same as [`pmove`](Self::pmove).
    pub fn pcopy(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        va: Va,
        from: PdId,
        to: PdId,
        prot: Perm,
    ) -> Result<SimDuration, PrivError> {
        self.transfer(machine, core, va, from, to, prot, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        va: Va,
        from: PdId,
        to: PdId,
        prot: Perm,
        mv: bool,
    ) -> Result<SimDuration, PrivError> {
        if !self.full() {
            let cost = SimDuration::ZERO;
            self.stats.record(OpKind::Ptransfer, cost);
            return Ok(cost);
        }
        let (sc, index, _) = self.codec.decode(va).ok_or(PrivError::BadAddress { va })?;
        if to != PdId::RUNTIME && !self.pd_live[to.0 as usize] {
            return Err(PrivError::BadPd { pd: to });
        }
        let mut cost = machine.work(cost::PTRANSFER_NS);
        self.acc.clear();
        let mut acc = std::mem::take(&mut self.acc);
        let moved = self
            .table
            .transfer_perm(sc, index, from, to, prot, mv, &mut acc);
        cost += Self::charge(machine, core, &acc);
        self.acc = acc;
        if moved.is_none() {
            if self.table.peek(sc, index).is_none() {
                return Err(PrivError::BadAddress { va });
            }
            return Err(PrivError::NotOwner { va, pd: from });
        }
        self.stats.record(OpKind::Ptransfer, cost);
        Ok(cost)
    }

    /// Marks the VMA at `va` with attribute bits (G/P); a trusted-runtime
    /// operation used during boot to install code and PrivLib VMAs.
    ///
    /// # Errors
    ///
    /// [`PrivError::BadAddress`].
    pub fn set_attr(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        va: Va,
        attr: VteAttr,
    ) -> Result<SimDuration, PrivError> {
        let (sc, index, _) = self.codec.decode(va).ok_or(PrivError::BadAddress { va })?;
        self.acc.clear();
        let mut acc = std::mem::take(&mut self.acc);
        let ok = self.table.set_attr(sc, index, attr, &mut acc);
        let cost = machine.work(cost::MPROTECT_NS) + Self::charge(machine, core, &acc);
        self.acc = acc;
        if !ok {
            return Err(PrivError::BadAddress { va });
        }
        self.stats.record(OpKind::Mprotect, cost);
        Ok(cost)
    }

    // ------------------------------------------------------------------
    // PD management (Table 1, lower half)
    // ------------------------------------------------------------------

    /// `cget()`: creates a new protection domain.
    ///
    /// # Errors
    ///
    /// [`PrivError::OutOfPds`].
    pub fn cget(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
    ) -> Result<(PdId, SimDuration), PrivError> {
        let id = self.pd_free.pop().ok_or(PrivError::OutOfPds)?;
        self.pd_live[id as usize] = true;
        if !self.full() {
            // Bypassed: the id is bookkeeping only.
            let cost = SimDuration::ZERO;
            self.stats.record(OpKind::Cget, cost);
            return Ok((PdId(id), cost));
        }
        let mut cost = machine.work(cost::CGET_NS);
        cost += machine.atomic_rmw(core, PD_FREELIST_ADDR);
        // Initialize the PD's configuration record (in the privileged VMA).
        cost += machine.write(core, PD_CONFIG_BASE + id as u64 * 64, 64);
        self.stats.record(OpKind::Cget, cost);
        Ok((PdId(id), cost))
    }

    /// `cput(cid)`: destroys a protection domain. In full isolation mode
    /// it first revokes every grant the PD still holds (one VTE write
    /// each), so a recycled id never inherits a dead PD's permissions.
    ///
    /// # Errors
    ///
    /// [`PrivError::BadPd`] if the PD is not live.
    pub fn cput(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        pd: PdId,
    ) -> Result<SimDuration, PrivError> {
        if pd == PdId::RUNTIME || !self.pd_live[pd.0 as usize] {
            return Err(PrivError::BadPd { pd });
        }
        self.pd_live[pd.0 as usize] = false;
        self.pd_free.push(pd.0);
        if !self.full() {
            let cost = SimDuration::ZERO;
            self.stats.record(OpKind::Cput, cost);
            return Ok(cost);
        }
        let mut cost = machine.work(cost::CPUT_NS);
        // Teardown normally leaves nothing, but a parent that aborts while
        // async children run still holds RW on their ArgBufs; the LIFO
        // free list would hand those grants to the next `cget`.
        self.acc.clear();
        let mut acc = std::mem::take(&mut self.acc);
        for (sc, index) in self.table.pd_slots(pd) {
            self.table.set_perm(sc, index, pd, Perm::NONE, &mut acc);
        }
        cost += Self::charge(machine, core, &acc);
        self.acc = acc;
        cost += machine.atomic_rmw(core, PD_FREELIST_ADDR);
        cost += machine.write(core, PD_CONFIG_BASE + pd.0 as u64 * 64, 64);
        self.stats.record(OpKind::Cput, cost);
        Ok(cost)
    }

    /// `ccall(cid, func, args)`: user-level context switch into `pd`.
    /// Saves the executor's registers, loads the continuation's, and
    /// updates `ucid`.
    ///
    /// # Errors
    ///
    /// [`PrivError::BadPd`].
    pub fn ccall(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        pd: PdId,
    ) -> Result<SimDuration, PrivError> {
        self.switch_to(machine, core, pd)
    }

    /// `center(cid)`: resumes a suspended continuation in `pd`.
    ///
    /// # Errors
    ///
    /// [`PrivError::BadPd`].
    pub fn center(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        pd: PdId,
    ) -> Result<SimDuration, PrivError> {
        self.switch_to(machine, core, pd)
    }

    /// `cexit()`: suspends the current continuation and returns control to
    /// the executor (PD 0).
    pub fn cexit(&mut self, machine: &mut Machine, core: CoreId) -> SimDuration {
        self.switch_to(machine, core, PdId::RUNTIME)
            .expect("runtime PD always live")
    }

    fn switch_to(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        pd: PdId,
    ) -> Result<SimDuration, PrivError> {
        if pd != PdId::RUNTIME && !self.pd_live[pd.0 as usize] {
            return Err(PrivError::BadPd { pd });
        }
        if !self.full() {
            // Bypassed: a plain function call, no register-file swap, no
            // ucid update (there is no isolation to maintain).
            let cost = machine.work(1.0);
            self.stats.record(OpKind::Cswitch, cost);
            return Ok(cost);
        }
        let mut cost = machine.work(cost::CSWITCH_NS);
        cost += machine
            .csr_write(core, Csr::Ucid, pd.0 as u64, true)
            .expect("PrivLib runs privileged");
        self.stats.record(OpKind::Cswitch, cost);
        Ok(cost)
    }

    // ------------------------------------------------------------------
    // The translation/protection path (VLB → VTW → fault)
    // ------------------------------------------------------------------

    /// Simulates untrusted code in `pd` performing a data access at `va`
    /// needing `perm`. Charges the VLB lookup (free when it hits — it is
    /// pipelined with the L1) or the VTW walk on a miss, and raises exactly
    /// the faults of the §3.1 threat model.
    ///
    /// # Errors
    ///
    /// [`Fault::Unmapped`], [`Fault::Permission`], or [`Fault::Privilege`]
    /// (wrapped in [`PrivError::Fault`]).
    pub fn access(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        pd: PdId,
        va: Va,
        perm: Perm,
    ) -> Result<SimDuration, PrivError> {
        self.translate(machine, core, pd, va, perm, VlbKind::Data)
    }

    /// Like [`access`](Self::access) but for instruction fetch (I-VLB,
    /// execute permission).
    ///
    /// # Errors
    ///
    /// Same as [`access`](Self::access).
    pub fn fetch(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        pd: PdId,
        va: Va,
    ) -> Result<SimDuration, PrivError> {
        self.translate(machine, core, pd, va, Perm::EXEC, VlbKind::Instr)
    }

    /// Instruction-fetch translation for a *legal gated entry* into
    /// privileged code (the first instruction is `uatg`, §4.3): the I-VLB
    /// lookup and possible walk are charged, but no privilege fault is
    /// raised. Used by the runtime to model function ↔ PrivLib control-flow
    /// transitions.
    pub fn fetch_gated(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        pd: PdId,
        va: Va,
    ) -> SimDuration {
        match self.translate(machine, core, pd, va, Perm::EXEC, VlbKind::Instr) {
            Ok(d) => d,
            Err(PrivError::Fault(Fault::Privilege { .. })) => SimDuration::ZERO,
            Err(e) => panic!("gated fetch of privileged code failed unexpectedly: {e}"),
        }
    }

    fn translate(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        pd: PdId,
        va: Va,
        perm: Perm,
        kind: VlbKind,
    ) -> Result<SimDuration, PrivError> {
        if !self.full() {
            return Ok(SimDuration::ZERO);
        }
        // Keep the core's ucid in sync with the domain we are simulating.
        if machine.current_pd(core) != pd {
            machine
                .csr_write(core, Csr::Ucid, pd.0 as u64, true)
                .expect("PrivLib runs privileged");
        }
        // VLB hit: zero charged latency (parallel with the L1 pipeline).
        if let Some(entry) = machine.vlb_lookup(core, kind, va) {
            if entry.privileged && pd != PdId::RUNTIME {
                return Err(Fault::Privilege { va }.into());
            }
            if !entry.perm.allows(perm) {
                return Err(Fault::Permission {
                    va,
                    pd,
                    needed: perm,
                    held: entry.perm,
                }
                .into());
            }
            return Ok(SimDuration::ZERO);
        }
        // Miss: the VTW walks the table; instruction-side misses also
        // stall the fetch stage and refill the pipeline behind the walk.
        let mut cost = SimDuration::from_ns_f64(cost::VTW_FSM_NS);
        if matches!(kind, VlbKind::Instr) {
            cost += machine.work(cost::IFETCH_RESTART_NS);
        }
        self.acc.clear();
        let mut acc = std::mem::take(&mut self.acc);
        let rec = self.table.lookup(va, pd, &mut acc);
        cost += Self::charge(machine, core, &acc);
        self.acc = acc;
        self.stats.record(OpKind::Walk, cost);
        let Some(rec) = rec else {
            return Err(Fault::Unmapped { va }.into());
        };
        machine.vlb_fill(
            core,
            kind,
            jord_hw::types::VlbEntry {
                vte: rec.vte,
                base: rec.base,
                len: rec.len,
                pd,
                global: rec.global,
                perm: rec.perm,
                privileged: rec.privileged,
            },
        );
        if rec.privileged && pd != PdId::RUNTIME {
            return Err(Fault::Privilege { va }.into());
        }
        if !rec.perm.allows(perm) {
            return Err(Fault::Permission {
                va,
                pd,
                needed: perm,
                held: rec.perm,
            }
            .into());
        }
        Ok(cost)
    }

    /// Looks up the VMA record at `va` without charging anything
    /// (introspection for the runtime and tests).
    pub fn peek_vma(&self, va: Va) -> Option<(SizeClass, u32, &jord_vma::Vte)> {
        let (sc, index, _) = self.codec.decode(va)?;
        self.table.peek(sc, index).map(|v| (sc, index, v))
    }

    // ------------------------------------------------------------------
    // Snapshots & sanitization (the crash-recovery subsystem)
    // ------------------------------------------------------------------

    /// Captures `pd`'s pristine VMA/permission layout (Groundhog-style).
    /// Charges nothing; the runtime snapshots a PD right after setup and
    /// later *sanitizes* against the capture instead of tearing down.
    pub fn snapshot_pd(&self, pd: PdId) -> PdSnapshot {
        PdSnapshot::capture(self.table.as_ref(), pd)
    }

    /// The table's durable (privileged/global) mappings, for journal
    /// checkpoints.
    pub fn durable_footprint(&self) -> DurableFootprint {
        DurableFootprint::capture(self.table.as_ref())
    }

    /// Free-slot availability per size class (checkpoint occupancy
    /// summary), indexed by class.
    pub fn free_slot_counts(&self) -> Vec<usize> {
        SizeClass::all().map(|sc| self.free.available(sc)).collect()
    }

    /// `(id, grants)` of every PD id that is not live but still holds
    /// grants — which the next `cget` of that id would inherit. Walks the
    /// PD ids, not the table.
    pub fn dead_pd_grants(&self) -> Vec<(u16, usize)> {
        (1..=MAX_PDS)
            .filter(|&id| !self.pd_live[id as usize])
            .map(|id| (id, self.table.pd_slots(PdId(id)).len()))
            .filter(|&(_, grants)| grants > 0)
            .collect()
    }

    /// Returns `pd` to its pristine `snapshot` layout in place: verifies
    /// every snapshotted VMA (one VTE read each — the Groundhog scan),
    /// unmaps strays the PD accumulated, and resets drifted permissions.
    /// The PD itself stays live, ready to host the next invocation of the
    /// same function without `cput`/`cget` or remapping its layout.
    ///
    /// Returns the charged duration and the number of repairs applied.
    ///
    /// # Errors
    ///
    /// [`PrivError::BadPd`] if the PD is not live, or
    /// [`PrivError::BadAddress`] if a snapshotted VMA no longer exists —
    /// the PD cannot be repaired in place and the caller must fall back to
    /// a full teardown.
    pub fn sanitize_pd(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        snapshot: &PdSnapshot,
    ) -> Result<(SimDuration, usize), PrivError> {
        let pd = snapshot.pd;
        if pd == PdId::RUNTIME || !self.pd_live[pd.0 as usize] {
            return Err(PrivError::BadPd { pd });
        }
        let mut cost = machine.work(cost::POLICY_CHECK_NS);
        for e in &snapshot.entries {
            cost += machine.vte_read(core, self.table.vte_addr(e.sc, e.index));
        }
        let repairs = snapshot.diff(self.table.as_ref());
        self.stats.record(OpKind::Walk, cost);
        let applied = repairs.len();
        for r in repairs {
            match r {
                SnapshotDiff::Extra { va, .. } => {
                    cost += self.munmap(machine, core, va, pd)?;
                }
                SnapshotDiff::PermDrift { va, want, .. } => {
                    cost += self.mprotect(machine, core, va, want, pd)?;
                }
                SnapshotDiff::Missing { sc, index } => {
                    let va = self.codec.base_of(sc, index).unwrap_or_default();
                    return Err(PrivError::BadAddress { va });
                }
            }
        }
        Ok((cost, applied))
    }
}

impl std::fmt::Debug for PrivLib {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrivLib")
            .field("table", &self.choice)
            .field("mode", &self.mode)
            .field("live_vmas", &self.live_vmas())
            .field("live_pds", &self.live_pds())
            .finish()
    }
}
