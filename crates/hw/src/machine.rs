//! The assembled machine: cores + NoC + coherence + VLBs + VTD + CSRs.
//!
//! `Machine` is the single mutable world that the software layers
//! (`jord-privlib`, the runtimes) charge their memory-system activity
//! against. All methods return the [`SimDuration`] the operation takes on
//! the modelled hardware; the caller advances its simulated clock by that
//! amount.

use jord_sim::{OnlineStats, SimDuration};

use crate::coherence::{CoherenceModel, CoherenceStats};
use crate::config::MachineConfig;
use crate::csr::{CoreCsrs, Csr};
use crate::fault::Fault;
use crate::noc::{Endpoint, Noc};
use crate::types::{CoreId, CoreSet, LineAddr, VlbEntry, VteAddr};
use crate::vlb::{Vlb, VlbKind, VlbStats};
use crate::vtd::{Vtd, VtdStats};

/// Aggregated hardware counters.
#[derive(Debug, Clone, Default)]
pub struct HwStats {
    /// Coherence protocol counters.
    pub coherence: CoherenceStats,
    /// VTD counters.
    pub vtd: VtdStats,
    /// Summed I-VLB counters across cores.
    pub ivlb: VlbStats,
    /// Summed D-VLB counters across cores.
    pub dvlb: VlbStats,
    /// Distribution of VLB shootdown completion latencies (ns), the series
    /// of Figure 14.
    pub shootdown_ns: OnlineStats,
}

struct CoreCtx {
    csrs: CoreCsrs,
    ivlb: Vlb,
    dvlb: Vlb,
}

/// The simulated worker-server hardware.
pub struct Machine {
    cfg: MachineConfig,
    noc: Noc,
    coherence: CoherenceModel,
    vtd: Vtd,
    cores: Vec<CoreCtx>,
    shootdown_ns: OnlineStats,
}

impl Machine {
    /// Builds a machine from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let cores = (0..cfg.cores)
            .map(|_| CoreCtx {
                csrs: CoreCsrs::new(),
                ivlb: Vlb::new(cfg.ivlb_entries),
                dvlb: Vlb::new(cfg.dvlb_entries),
            })
            .collect();
        Machine {
            noc: Noc::new(&cfg),
            vtd: Vtd::new(cfg.vtd_sets, cfg.vtd_ways),
            coherence: CoherenceModel::new(),
            cores,
            shootdown_ns: OnlineStats::new(),
            cfg,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The NoC model (for callers that need raw topology latencies, e.g.
    /// the orchestrator's dispatch model).
    pub fn noc(&self) -> &Noc {
        &self.noc
    }

    /// Aggregated counters.
    pub fn stats(&self) -> HwStats {
        let mut ivlb = VlbStats::default();
        let mut dvlb = VlbStats::default();
        for c in &self.cores {
            let i = c.ivlb.stats();
            ivlb.hits += i.hits;
            ivlb.misses += i.misses;
            ivlb.shootdowns += i.shootdowns;
            let d = c.dvlb.stats();
            dvlb.hits += d.hits;
            dvlb.misses += d.misses;
            dvlb.shootdowns += d.shootdowns;
        }
        HwStats {
            coherence: self.coherence.stats(),
            vtd: self.vtd.stats(),
            ivlb,
            dvlb,
            shootdown_ns: self.shootdown_ns,
        }
    }

    /// Duration of `cycles` core cycles.
    pub fn cycles(&self, cycles: u64) -> SimDuration {
        self.noc.cycles(cycles)
    }

    /// Abstract instruction-execution work of `ns` nanoseconds, scaled by
    /// the config's IPC factor (1.0 on the simulator model, ≈2.2 on the
    /// FPGA/RTL model — Table 4 footnote).
    pub fn work(&self, ns: f64) -> SimDuration {
        SimDuration::from_ns_f64(ns * self.cfg.ipc_factor)
    }

    /// Simulates a data read of `[addr, addr+len)` by `core`.
    ///
    /// Consecutive lines of one bulk access are pipelined: the access
    /// completes after the *slowest* line plus one pipeline interval per
    /// additional line (the Table 2 core sustains multiple outstanding
    /// misses).
    pub fn read(&mut self, core: CoreId, addr: u64, len: u64) -> SimDuration {
        self.bulk_access(core, addr, len, false)
    }

    /// Simulates a data write of `[addr, addr+len)` by `core`.
    pub fn write(&mut self, core: CoreId, addr: u64, len: u64) -> SimDuration {
        self.bulk_access(core, addr, len, true)
    }

    fn bulk_access(&mut self, core: CoreId, addr: u64, len: u64, write: bool) -> SimDuration {
        let lines = LineAddr::span(addr, len);
        if lines == 0 {
            return SimDuration::ZERO;
        }
        let first = LineAddr::containing(addr);
        let mut worst = SimDuration::ZERO;
        for i in 0..lines {
            let line = LineAddr(first.0 + i);
            let lat = if write {
                self.coherence.write_line(&self.noc, core, line)
            } else {
                self.coherence.read_line(&self.noc, core, line)
            };
            worst = worst.max(lat);
        }
        worst + self.cycles(self.cfg.pipeline_cycles * (lines - 1))
    }

    /// An atomic read-modify-write on one line (free-list pops, queue
    /// tail bumps): a write-for-ownership plus a few extra cycles.
    pub fn atomic_rmw(&mut self, core: CoreId, addr: u64) -> SimDuration {
        let line = LineAddr::containing(addr);
        self.coherence.write_line(&self.noc, core, line) + self.cycles(2)
    }

    /// A VTE read on behalf of the VTW (T-bit message): fetches the VTE's
    /// line and registers `core` as a translation sharer at the VTD when
    /// the access reaches the LLC. L1-hit re-reads do not (and need not)
    /// re-register — the coherence directory's sharer list covers them
    /// pessimistically (§4.2 corner case).
    pub fn vte_read(&mut self, core: CoreId, vte: VteAddr) -> SimDuration {
        let line = LineAddr::containing(vte.0);
        let was_l1_hit = self.coherence.cached_by(line, core);
        let lat = self.coherence.read_line(&self.noc, core, line);
        if !was_l1_hit {
            self.vtd.register(vte, core);
        }
        lat
    }

    /// A VTE write (T-bit message): performs the coherent write and the
    /// hardware VLB shootdown of §4.2. Returns the total latency (the
    /// writer observes completion only after the furthest sharer acks) and
    /// the number of victim cores messaged: every remote core the VTD or
    /// the coherence directory names, whether or not its VLBs still held
    /// the translation.
    pub fn vte_write(&mut self, core: CoreId, vte: VteAddr) -> (SimDuration, usize) {
        let line = LineAddr::containing(vte.0);
        // Sharer lists are read at the home directory when the write
        // arrives, i.e. *before* the data invalidations take effect.
        let mut dir_sharers = self.coherence.sharers(line);
        dir_sharers.remove(core);
        let tracked = self.vtd.shootdown(vte, core, dir_sharers);
        let mut victims = tracked;
        // Pessimistic union (§4.2): every VTE sharer known to the coherence
        // directory is treated as a translation sharer.
        victims.union_with(&dir_sharers);

        let write_lat = self.coherence.write_line(&self.noc, core, line);

        // Parallel invalidations from the home slice; completion waits on
        // the furthest victim (paper §6.3: shootdown latency depends only
        // on the response time of the furthest core).
        let home = Endpoint::LlcSlice(self.noc.home_slice(line));
        let mut worst_inval = SimDuration::ZERO;
        let mut count = 0usize;
        for victim in victims.iter() {
            self.cores[victim.0].ivlb.invalidate_vte(vte);
            self.cores[victim.0].dvlb.invalidate_vte(vte);
            let rt = self.noc.round_trip(home, Endpoint::Core(victim), 0) + self.cycles(2);
            worst_inval = worst_inval.max(rt);
            count += 1;
        }
        // The writer's own VLBs drop the stale translation locally for free.
        self.cores[core.0].ivlb.invalidate_vte(vte);
        self.cores[core.0].dvlb.invalidate_vte(vte);

        let shoot_path = if count > 0 {
            self.noc.message(Endpoint::Core(core), home, 0)
                + self.noc.llc()
                + worst_inval
                + self.noc.message(home, Endpoint::Core(core), 0)
        } else {
            SimDuration::ZERO
        };
        let total = write_lat.max(shoot_path);
        if count > 0 {
            self.shootdown_ns.record(total.as_ns_f64());
        }
        (total, count)
    }

    /// Looks up `va` in one of `core`'s VLBs for the PD currently in
    /// `ucid`. The lookup itself is pipelined with the L1 access (zero
    /// charged latency); a miss must be followed by a VTW walk
    /// ([`vte_read`](Self::vte_read)) and a [`vlb_fill`](Self::vlb_fill).
    pub fn vlb_lookup(&mut self, core: CoreId, kind: VlbKind, va: u64) -> Option<VlbEntry> {
        let pd = self.cores[core.0].csrs.current_pd();
        let vlb = match kind {
            VlbKind::Instr => &mut self.cores[core.0].ivlb,
            VlbKind::Data => &mut self.cores[core.0].dvlb,
        };
        vlb.lookup(va, pd)
    }

    /// Installs a walked translation into one of `core`'s VLBs.
    pub fn vlb_fill(&mut self, core: CoreId, kind: VlbKind, entry: VlbEntry) {
        let vlb = match kind {
            VlbKind::Instr => &mut self.cores[core.0].ivlb,
            VlbKind::Data => &mut self.cores[core.0].dvlb,
        };
        vlb.fill(entry);
    }

    /// Drops every cached translation in both of `core`'s VLBs, as a
    /// spurious glitch or host context switch would. The cost is not
    /// charged here: it emerges organically from the VTW re-walks the
    /// now-cold VLBs force on subsequent accesses.
    pub fn vlb_flush(&mut self, core: CoreId) {
        self.cores[core.0].ivlb.flush();
        self.cores[core.0].dvlb.flush();
    }

    /// Reads a CSR of `core`; costs one cycle when it succeeds.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::CsrAccess`] for unprivileged accesses.
    pub fn csr_read(
        &mut self,
        core: CoreId,
        csr: Csr,
        privileged: bool,
    ) -> Result<(u64, SimDuration), Fault> {
        let v = self.cores[core.0].csrs.read(csr, privileged)?;
        Ok((v, self.cycles(1)))
    }

    /// Writes a CSR of `core`; costs one cycle when it succeeds.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::CsrAccess`] for unprivileged accesses.
    pub fn csr_write(
        &mut self,
        core: CoreId,
        csr: Csr,
        value: u64,
        privileged: bool,
    ) -> Result<SimDuration, Fault> {
        self.cores[core.0].csrs.write(csr, value, privileged)?;
        Ok(self.cycles(1))
    }

    /// The PD currently executing on `core` (pipeline-internal view of
    /// `ucid`; no privilege needed, no cost).
    pub fn current_pd(&self, core: CoreId) -> crate::types::PdId {
        self.cores[core.0].csrs.current_pd()
    }

    /// Direct access to the coherence directory's sharer view (tests,
    /// victim-fallback introspection).
    pub fn line_sharers(&self, addr: u64) -> CoreSet {
        self.coherence.sharers(LineAddr::containing(addr))
    }

    /// True if `core`'s VLB of `kind` caches a translation backed by `vte`.
    pub fn vlb_caches(&self, core: CoreId, kind: VlbKind, vte: VteAddr) -> bool {
        match kind {
            VlbKind::Instr => self.cores[core.0].ivlb.caches_vte(vte),
            VlbKind::Data => self.cores[core.0].dvlb.caches_vte(vte),
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cfg.cores)
            .field("sockets", &self.cfg.sockets)
            .field("tracked_lines", &self.coherence.tracked_lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PdId, Perm};

    fn machine() -> Machine {
        Machine::new(MachineConfig::isca25())
    }

    fn entry(vte: u64, base: u64, pd: u16) -> VlbEntry {
        VlbEntry {
            vte: VteAddr(vte),
            base,
            len: 0x1000,
            pd: PdId(pd),
            global: false,
            perm: Perm::RW,
            privileged: false,
        }
    }

    #[test]
    fn bulk_read_pipelines_lines() {
        let mut m = machine();
        // Warm 15 lines (one ArgBuf worth) at core 0.
        m.write(CoreId(0), 0x10000, 15 * 64);
        // A remote reader pays one transfer latency + pipeline beats, far
        // less than 15 serialized transfers.
        let t = m.read(CoreId(9), 0x10000, 15 * 64);
        let one = m.read(CoreId(9), 0x10000, 64); // now a hit
        assert!(t.as_ns_f64() < 15.0 * 20.0, "pipelined bulk read, got {t}");
        assert!(t > one);
    }

    #[test]
    fn zero_length_access_is_free() {
        let mut m = machine();
        assert_eq!(m.read(CoreId(0), 0x100, 0), SimDuration::ZERO);
        assert_eq!(m.write(CoreId(0), 0x100, 0), SimDuration::ZERO);
    }

    #[test]
    fn vte_write_shoots_down_remote_vlbs() {
        let mut m = machine();
        let vte = VteAddr(0x4000);
        // Cores 1 and 2 walk the VTE and cache the translation.
        for c in [1usize, 2] {
            m.vte_read(CoreId(c), vte);
            m.vlb_fill(CoreId(c), VlbKind::Data, entry(vte.0, 0x100000, 3));
        }
        assert!(m.vlb_caches(CoreId(1), VlbKind::Data, vte));
        // Core 0 rewrites the VTE (e.g. pmove).
        let (lat, victims) = m.vte_write(CoreId(0), vte);
        assert_eq!(victims, 2);
        assert!(!m.vlb_caches(CoreId(1), VlbKind::Data, vte));
        assert!(!m.vlb_caches(CoreId(2), VlbKind::Data, vte));
        assert!(lat.as_ns_f64() > 1.0);
        assert_eq!(m.stats().dvlb.shootdowns, 2);
    }

    #[test]
    fn l1_hit_vte_corner_case_covered_by_directory_fallback() {
        let mut m = machine();
        let vte = VteAddr(0x8000);
        // Core 5 reads the VTE (registers at VTD), then the VTD entry is
        // destroyed by a shootdown from core 5 itself (local update)…
        m.vte_read(CoreId(5), vte);
        m.vte_write(CoreId(5), vte);
        // …then core 5 re-reads its own modified line: L1 hit, no VTD
        // registration.
        m.vte_read(CoreId(5), vte);
        m.vlb_fill(CoreId(5), VlbKind::Data, entry(vte.0, 0x200000, 1));
        // A remote writer must still reach core 5 via the directory fallback.
        let (_, victims) = m.vte_write(CoreId(9), vte);
        assert_eq!(victims, 1);
        assert!(!m.vlb_caches(CoreId(5), VlbKind::Data, vte));
    }

    #[test]
    fn vte_write_with_no_sharers_is_local() {
        let mut m = machine();
        let vte = VteAddr(0xC000);
        m.vte_write(CoreId(3), vte); // first touch: allocate
        let (lat, victims) = m.vte_write(CoreId(3), vte);
        assert_eq!(victims, 0);
        // Pure L1-hit write: 2 cycles.
        assert_eq!(lat, m.cycles(2));
    }

    #[test]
    fn vlb_lookup_respects_current_ucid() {
        let mut m = machine();
        let vte = VteAddr(0x140);
        m.vlb_fill(CoreId(0), VlbKind::Data, entry(vte.0, 0x30000, 7));
        // ucid defaults to PD 0: entry for PD 7 must not match.
        assert!(m.vlb_lookup(CoreId(0), VlbKind::Data, 0x30000).is_none());
        m.csr_write(CoreId(0), Csr::Ucid, 7, true).unwrap();
        assert!(m.vlb_lookup(CoreId(0), VlbKind::Data, 0x30000).is_some());
    }

    #[test]
    fn work_scales_with_ipc_factor() {
        let sim = Machine::new(MachineConfig::isca25());
        let fpga = Machine::new(MachineConfig::fpga());
        assert_eq!(sim.work(100.0), SimDuration::from_ns(100));
        assert_eq!(fpga.work(100.0), SimDuration::from_ns(220));
    }

    #[test]
    fn csr_privilege_enforced_through_machine() {
        let mut m = machine();
        assert!(m.csr_write(CoreId(0), Csr::Ucid, 1, false).is_err());
        assert!(m.csr_read(CoreId(0), Csr::Uatp, false).is_err());
        assert!(m.csr_write(CoreId(0), Csr::Ucid, 1, true).is_ok());
        assert_eq!(m.current_pd(CoreId(0)), PdId(1));
    }

    #[test]
    fn shootdown_latency_grows_with_distance() {
        // Compare furthest-sharer shootdowns on a small and a large mesh.
        let mut near = Machine::new(MachineConfig::scaled(16));
        let mut far = Machine::new(MachineConfig::scaled(256));
        let vte = VteAddr(0x40 * 7);
        for m in [&mut near, &mut far] {
            let last = CoreId(m.config().cores - 1);
            m.vte_read(last, vte);
            m.vlb_fill(last, VlbKind::Data, entry(vte.0, 0x50000, 1));
        }
        let (lat_near, v1) = near.vte_write(CoreId(0), vte);
        let (lat_far, v2) = far.vte_write(CoreId(0), vte);
        assert_eq!((v1, v2), (1, 1));
        assert!(
            lat_far > lat_near,
            "256-core shootdown {lat_far} should exceed 16-core {lat_near}"
        );
    }

    #[test]
    fn atomic_rmw_acquires_ownership() {
        let mut m = machine();
        m.read(CoreId(1), 0x900, 8);
        m.atomic_rmw(CoreId(2), 0x900);
        assert!(m.line_sharers(0x900).contains(CoreId(2)));
        assert!(!m.line_sharers(0x900).contains(CoreId(1)));
    }
}
