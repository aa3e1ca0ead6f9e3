//! Machine configurations (the paper's Table 2 plus the §6.3 scaling set).

/// Parameters of a simulated worker-server machine.
///
/// The default construction paths are the named presets below; fields are
/// public because this is a passive parameter record that experiments are
/// expected to tweak (e.g. the Figure 12 VLB sweeps).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Total core count across all sockets.
    pub cores: usize,
    /// Number of sockets (1, or 2 for the Figure 14 dual-socket point).
    pub sockets: usize,
    /// Core clock in GHz (Table 2: 4 GHz).
    pub freq_ghz: f64,
    /// Mesh width per socket, in tiles.
    pub mesh_w: usize,
    /// Mesh height per socket, in tiles.
    pub mesh_h: usize,
    /// NoC link width in bytes (Table 2: 16 B).
    pub link_bytes: u64,
    /// NoC latency per hop in cycles (Table 2: 3).
    pub hop_cycles: u64,
    /// Inter-socket one-way latency in nanoseconds (§5: 260 ns, AMD Turin).
    pub inter_socket_ns: f64,
    /// L1 access latency in cycles (Table 2: 2).
    pub l1_cycles: u64,
    /// LLC slice access latency in cycles (Table 2: 6).
    pub llc_cycles: u64,
    /// DRAM access latency in nanoseconds (typical ~90 ns for DDR5).
    pub dram_ns: f64,
    /// I-VLB entries per core (Table 2: 16, fully associative).
    pub ivlb_entries: usize,
    /// D-VLB entries per core (Table 2: 16, fully associative).
    pub dvlb_entries: usize,
    /// VTD sets per LLC slice (set-associative, co-located with the
    /// coherence directory).
    pub vtd_sets: usize,
    /// VTD ways per set.
    pub vtd_ways: usize,
    /// Memory-level parallelism available to software loops that issue many
    /// independent loads (bounded by the 32-entry store buffer / MSHRs of
    /// the Table 2 core; JBSQ queue-length scans run at this depth).
    pub mlp: usize,
    /// Pipelining interval, in cycles, between consecutive line transfers of
    /// one bulk access (back-to-back data beats on the NoC).
    pub pipeline_cycles: u64,
    /// Abstract instruction-execution scaling. 1.0 calibrates the
    /// cycle-accurate simulator model; the FPGA/RTL model runs at lower IPC
    /// (Table 4 footnote), reproduced with a factor ≈ 2.2.
    pub ipc_factor: f64,
}

impl MachineConfig {
    /// The paper's Table 2 machine: 32 cores @ 4 GHz on an 8×4 mesh,
    /// 2-cycle L1, 6-cycle LLC slices, 3 cycles/hop, 16 B links,
    /// 16-entry I/D-VLBs.
    pub fn isca25() -> Self {
        MachineConfig {
            cores: 32,
            sockets: 1,
            freq_ghz: 4.0,
            mesh_w: 8,
            mesh_h: 4,
            link_bytes: 16,
            hop_cycles: 3,
            inter_socket_ns: 260.0,
            l1_cycles: 2,
            llc_cycles: 6,
            dram_ns: 90.0,
            ivlb_entries: 16,
            dvlb_entries: 16,
            vtd_sets: 256,
            vtd_ways: 16,
            mlp: 8,
            pipeline_cycles: 4,
            ipc_factor: 1.0,
        }
    }

    /// The OpenXiangShan FPGA proof-of-concept: two cores, identical SRAM
    /// latencies, but lower IPC on instruction-execution phases and
    /// relatively faster DRAM (the FPGA's DRAM runs at a higher frequency
    /// than its cores — Table 4 footnote).
    pub fn fpga() -> Self {
        MachineConfig {
            cores: 2,
            sockets: 1,
            mesh_w: 2,
            mesh_h: 1,
            dram_ns: 40.0,
            ipc_factor: 2.2,
            ..Self::isca25()
        }
    }

    /// Single-socket scaled configuration for the §6.3 study
    /// (16, 64, 128, or 256 cores).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not one of the evaluated scales.
    pub fn scaled(cores: usize) -> Self {
        let (w, h) = match cores {
            16 => (4, 4),
            32 => (8, 4),
            64 => (8, 8),
            128 => (16, 8),
            256 => (16, 16),
            _ => panic!("unsupported scale: {cores} cores"),
        };
        MachineConfig {
            cores,
            mesh_w: w,
            mesh_h: h,
            ..Self::isca25()
        }
    }

    /// The dual-socket 2×128-core point of Figure 14 (260 ns inter-socket
    /// latency, following AMD Zen5 Turin).
    pub fn two_socket() -> Self {
        MachineConfig {
            cores: 256,
            sockets: 2,
            mesh_w: 16,
            mesh_h: 8,
            ..Self::isca25()
        }
    }

    /// Cores per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.cores / self.sockets
    }

    /// Tiles per socket (== cores per socket; one core + LLC slice per tile).
    pub fn tiles_per_socket(&self) -> usize {
        self.mesh_w * self.mesh_h
    }

    /// Picoseconds per core cycle. [`validate`](Self::validate) admits only
    /// clocks for which this is exact.
    pub fn cycle_ps(&self) -> u64 {
        (1000.0 / self.freq_ghz).round() as u64
    }

    /// Validates internal consistency (mesh covers the cores, socket split
    /// divides evenly) and the timing parameters, so that every latency can
    /// be priced once in integer picoseconds. Returns a description of the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores must be positive".into());
        }
        if self.sockets == 0 || !self.cores.is_multiple_of(self.sockets) {
            return Err(format!(
                "cores ({}) must divide evenly among sockets ({})",
                self.cores, self.sockets
            ));
        }
        if self.tiles_per_socket() < self.cores_per_socket() {
            return Err(format!(
                "mesh {}x{} has fewer tiles than the {} cores per socket",
                self.mesh_w,
                self.mesh_h,
                self.cores_per_socket()
            ));
        }
        if self.cores > crate::types::CoreSet::CAPACITY {
            return Err(format!("at most 256 cores supported, got {}", self.cores));
        }
        if self.ivlb_entries == 0 || self.dvlb_entries == 0 {
            return Err("VLBs need at least one entry".into());
        }
        if self.mlp == 0 {
            return Err("mlp must be at least 1".into());
        }
        // Simulated time counts whole picoseconds, so a cycle must last a
        // whole number of them, from 1 ps (1 THz) to 1 s (1 Hz). A zero,
        // negative, infinite or NaN clock falls outside that range.
        let ps = 1000.0 / self.freq_ghz;
        if !((1.0..=1e12).contains(&ps) && ps.fract() == 0.0) {
            return Err(format!(
                "a cycle at {} GHz must last a whole number of picoseconds, 1 ps to 1 s",
                self.freq_ghz
            ));
        }
        if self.link_bytes == 0 {
            return Err("link_bytes must be positive".into());
        }
        for (name, ns) in [
            ("dram_ns", self.dram_ns),
            ("inter_socket_ns", self.inter_socket_ns),
        ] {
            if !(ns.is_finite() && ns >= 0.0) {
                return Err(format!("{name} must be finite and non-negative, got {ns}"));
            }
        }
        if !(self.ipc_factor.is_finite() && self.ipc_factor > 0.0) {
            return Err(format!(
                "ipc_factor must be finite and positive, got {}",
                self.ipc_factor
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_preset_matches_paper() {
        let c = MachineConfig::isca25();
        assert_eq!(c.cores, 32);
        assert_eq!(c.freq_ghz, 4.0);
        assert_eq!((c.mesh_w, c.mesh_h), (8, 4));
        assert_eq!(c.hop_cycles, 3);
        assert_eq!(c.link_bytes, 16);
        assert_eq!(c.l1_cycles, 2);
        assert_eq!(c.llc_cycles, 6);
        assert_eq!(c.ivlb_entries, 16);
        assert_eq!(c.cycle_ps(), 250);
        c.validate().expect("preset must validate");
    }

    #[test]
    fn all_presets_validate() {
        for cfg in [
            MachineConfig::isca25(),
            MachineConfig::fpga(),
            MachineConfig::scaled(16),
            MachineConfig::scaled(64),
            MachineConfig::scaled(128),
            MachineConfig::scaled(256),
            MachineConfig::two_socket(),
        ] {
            // Every clock with a whole number of picoseconds per cycle.
            for ghz in [1.0, 2.0, 4.0, 5.0] {
                let cfg = MachineConfig {
                    freq_ghz: ghz,
                    ..cfg.clone()
                };
                cfg.validate().unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
                assert_eq!(cfg.cycle_ps() as f64 * ghz, 1000.0);
            }
        }
    }

    #[test]
    fn two_socket_splits_cores() {
        let c = MachineConfig::two_socket();
        assert_eq!(c.cores_per_socket(), 128);
        assert_eq!(c.tiles_per_socket(), 128);
    }

    #[test]
    fn fpga_has_lower_ipc() {
        assert!(MachineConfig::fpga().ipc_factor > MachineConfig::isca25().ipc_factor);
    }

    #[test]
    #[should_panic(expected = "unsupported scale")]
    fn unsupported_scale_panics() {
        let _ = MachineConfig::scaled(48);
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let mut c = MachineConfig::isca25();
        c.cores = 0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::isca25();
        c.sockets = 3;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::isca25();
        c.mesh_w = 1;
        c.mesh_h = 1;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::isca25();
        c.ivlb_entries = 0;
        assert!(c.validate().is_err());
        let mut c = MachineConfig::isca25();
        c.link_bytes = 0;
        assert!(c.validate().is_err());
        for bad in [-1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = MachineConfig::isca25();
            c.dram_ns = bad;
            assert!(c.validate().is_err(), "dram_ns {bad}");
            let mut c = MachineConfig::isca25();
            c.inter_socket_ns = bad;
            assert!(c.validate().is_err(), "inter_socket_ns {bad}");
        }
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut c = MachineConfig::isca25();
            c.ipc_factor = bad;
            assert!(c.validate().is_err(), "ipc_factor {bad}");
        }
        // 3 GHz is 333.3 ps per cycle, not a whole number.
        for bad in [0.0, -4.0, f64::NAN, f64::INFINITY, 3.0] {
            let mut c = MachineConfig::isca25();
            c.freq_ghz = bad;
            assert!(c.validate().is_err(), "clock {bad} GHz");
        }
    }
}
