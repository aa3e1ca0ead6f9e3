//! Network-on-chip topology and message latency.
//!
//! Each socket is a `mesh_w × mesh_h` 2D mesh of tiles, numbered row-major
//! from the socket's I/O corner (0, 0); global tile *t* is tile
//! `t % tiles_per_socket` of socket `t / tiles_per_socket`. Each tile holds
//! one LLC slice, and local tile *i* of a socket also hosts that socket's
//! core *i*: global core *c* sits on socket `c / cores_per_socket`, tile
//! `c % cores_per_socket`. A mesh may have spare tiles (more tiles than
//! cores per socket); they hold only a slice. Messages route XY with
//! `hop_cycles` per hop plus serialization over `link_bytes`-wide links
//! (Table 2: 3 cycles/hop, 16 B links). Crossing sockets routes through
//! tile 0 of each socket and adds the `inter_socket_ns` one-way latency of
//! §5 (260 ns, AMD Zen5 Turin).
//!
//! [`Noc::new`] prices the machine once: each tile's place, the clock's
//! whole picoseconds per cycle, one hop, the serialization of the 0- and
//! 64-byte payloads (the only sizes the hardware model sends), and the L1,
//! LLC, DRAM and inter-socket latencies. A message then costs two table
//! reads, a multiply and adds; only another payload size divides by the
//! link width. Cycles are charged as `cycles × cycle_ps` by [`Noc::cycles`].
//!
//! Cache lines are interleaved across all LLC slices of the machine by line
//! address, which is what spreads the VTD (co-located with the directory in
//! each slice) across the chip.

use jord_sim::SimDuration;

use crate::config::MachineConfig;
use crate::types::{CoreId, LineAddr, LINE_BYTES};

/// A tile endpoint in the NoC: either a core's L1 or an LLC slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The L1/core at this global core index.
    Core(CoreId),
    /// The LLC slice on the tile with this global tile index.
    LlcSlice(usize),
}

/// Where a tile sits: its socket and its mesh coordinates there.
#[derive(Debug, Clone, Copy)]
struct Place {
    socket: u32,
    x: u32,
    y: u32,
}

/// The NoC latency model, with every latency of the machine priced once.
#[derive(Debug, Clone)]
pub struct Noc {
    /// Place of each global tile.
    tiles: Vec<Place>,
    /// Place of each global core's tile.
    cores: Vec<Place>,
    cycle_ps: u64,
    /// One hop, in picoseconds.
    hop_ps: u64,
    link_bytes: u64,
    /// Serialization of a 64-byte line, in picoseconds.
    line_ps: u64,
    l1: SimDuration,
    llc: SimDuration,
    dram: SimDuration,
    inter_socket: SimDuration,
}

impl Noc {
    /// Builds the NoC for a validated machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    pub fn new(cfg: &MachineConfig) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let (tps, cps) = (cfg.tiles_per_socket(), cfg.cores_per_socket());
        let tiles: Vec<Place> = (0..tps * cfg.sockets)
            .map(|t| Place {
                socket: (t / tps) as u32,
                x: (t % tps % cfg.mesh_w) as u32,
                y: (t % tps / cfg.mesh_w) as u32,
            })
            .collect();
        let cores = (0..cfg.cores)
            .map(|c| tiles[c / cps * tps + c % cps])
            .collect();
        let cycle_ps = cfg.cycle_ps();
        Noc {
            tiles,
            cores,
            cycle_ps,
            hop_ps: cfg.hop_cycles * cycle_ps,
            link_bytes: cfg.link_bytes,
            line_ps: LINE_BYTES.div_ceil(cfg.link_bytes) * cycle_ps,
            l1: SimDuration::from_ps(cfg.l1_cycles * cycle_ps),
            llc: SimDuration::from_ps(cfg.llc_cycles * cycle_ps),
            dram: SimDuration::from_ns_f64(cfg.dram_ns),
            inter_socket: SimDuration::from_ns_f64(cfg.inter_socket_ns),
        }
    }

    /// Duration of `cycles` core cycles.
    pub fn cycles(&self, cycles: u64) -> SimDuration {
        SimDuration::from_ps(cycles * self.cycle_ps)
    }

    /// L1 access latency.
    pub fn l1(&self) -> SimDuration {
        self.l1
    }

    /// LLC slice access latency.
    pub fn llc(&self) -> SimDuration {
        self.llc
    }

    /// DRAM access latency.
    pub fn dram(&self) -> SimDuration {
        self.dram
    }

    /// Total number of tiles (== LLC slices) across all sockets.
    pub fn total_tiles(&self) -> usize {
        self.tiles.len()
    }

    /// The home LLC slice (global tile index) of a cache line: lines are
    /// address-interleaved across every slice in the machine.
    pub fn home_slice(&self, line: LineAddr) -> usize {
        (line.0 % self.total_tiles() as u64) as usize
    }

    #[inline]
    fn place(&self, ep: Endpoint) -> Place {
        match ep {
            Endpoint::Core(c) => {
                assert!(c.0 < self.cores.len(), "core {} out of range", c.0);
                self.cores[c.0]
            }
            Endpoint::LlcSlice(t) => {
                assert!(t < self.tiles.len(), "tile {t} out of range");
                self.tiles[t]
            }
        }
    }

    /// Socket index of a global tile.
    pub fn socket_of_tile(&self, tile: usize) -> usize {
        self.place(Endpoint::LlcSlice(tile)).socket as usize
    }

    /// Socket index of a core.
    pub fn socket_of_core(&self, core: CoreId) -> usize {
        self.place(Endpoint::Core(core)).socket as usize
    }

    /// One-way message latency carrying `payload_bytes` of data (control
    /// headers ride for free in the first flit).
    #[inline]
    pub fn message(&self, from: Endpoint, to: Endpoint, payload_bytes: u64) -> SimDuration {
        let (a, b) = (self.place(from), self.place(to));
        let ser_ps = match payload_bytes {
            0 => 0,
            LINE_BYTES => self.line_ps,
            n => n.div_ceil(self.link_bytes) * self.cycle_ps,
        };
        if a.socket == b.socket {
            let hops = a.x.abs_diff(b.x) + a.y.abs_diff(b.y);
            SimDuration::from_ps(u64::from(hops) * self.hop_ps + ser_ps)
        } else {
            // Route to the socket edge, cross the inter-socket link, route on.
            // Edge tile: local tile 0 (the I/O corner) on each socket.
            let hops = a.x + a.y + b.x + b.y;
            SimDuration::from_ps(u64::from(hops) * self.hop_ps + ser_ps) + self.inter_socket
        }
    }

    /// Round-trip latency: request (control) out, response with
    /// `payload_bytes` back.
    #[inline]
    pub fn round_trip(&self, from: Endpoint, to: Endpoint, payload_bytes: u64) -> SimDuration {
        self.message(from, to, 0) + self.message(to, from, payload_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc() -> Noc {
        Noc::new(&MachineConfig::isca25())
    }

    #[test]
    fn zero_hop_message_costs_only_serialization() {
        let n = noc();
        // Core 0 to LLC slice 0 share tile 0.
        let d = n.message(Endpoint::Core(CoreId(0)), Endpoint::LlcSlice(0), 0);
        assert_eq!(d, SimDuration::ZERO);
        let d64 = n.message(Endpoint::Core(CoreId(0)), Endpoint::LlcSlice(0), 64);
        // 64B over 16B links = 4 cycles = 1 ns at 4 GHz.
        assert_eq!(d64, SimDuration::from_ns(1));
    }

    #[test]
    fn hop_latency_matches_table2() {
        let n = noc();
        // Tiles 0 (0,0) and 1 (1,0): one hop = 3 cycles = 0.75 ns.
        let d = n.message(Endpoint::Core(CoreId(0)), Endpoint::Core(CoreId(1)), 0);
        assert_eq!(d, SimDuration::from_ps(750));
        // Tile 0 to tile 31 (7,3): 7+3 = 10 hops = 30 cycles = 7.5 ns.
        let far = n.message(Endpoint::Core(CoreId(0)), Endpoint::Core(CoreId(31)), 0);
        assert_eq!(far, SimDuration::from_ps(7500));
    }

    #[test]
    fn latency_is_symmetric_within_socket() {
        let n = noc();
        for (a, b) in [(0, 31), (5, 17), (12, 12)] {
            let ab = n.message(Endpoint::Core(CoreId(a)), Endpoint::Core(CoreId(b)), 64);
            let ba = n.message(Endpoint::Core(CoreId(b)), Endpoint::Core(CoreId(a)), 64);
            assert_eq!(ab, ba);
        }
    }

    #[test]
    fn home_slice_interleaves_all_slices() {
        let n = noc();
        let mut seen = vec![false; n.total_tiles()];
        for l in 0..1000u64 {
            seen[n.home_slice(LineAddr(l))] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cross_socket_adds_link_latency() {
        let n = Noc::new(&MachineConfig::two_socket());
        let same = n.message(Endpoint::Core(CoreId(0)), Endpoint::Core(CoreId(127)), 0);
        let cross = n.message(Endpoint::Core(CoreId(0)), Endpoint::Core(CoreId(128)), 0);
        assert!(cross.as_ns_f64() >= 260.0);
        assert!(cross > same);
        assert_eq!(n.socket_of_core(CoreId(128)), 1);
        assert_eq!(n.socket_of_core(CoreId(127)), 0);
    }

    #[test]
    fn cores_fill_each_socket_before_its_spare_tiles() {
        // 12 cores per socket on a 16-tile mesh: tiles 12..16 of each
        // socket hold only an LLC slice.
        let n = Noc::new(&MachineConfig {
            cores: 24,
            sockets: 2,
            mesh_w: 4,
            mesh_h: 4,
            ..MachineConfig::isca25()
        });
        assert_eq!(n.total_tiles(), 32);
        assert_eq!(n.socket_of_core(CoreId(11)), 0);
        assert_eq!(n.socket_of_core(CoreId(12)), 1);
        assert_eq!(n.socket_of_tile(15), 0);
        assert_eq!(n.socket_of_tile(16), 1);
        // Core 11 is tile (3,2) of socket 0 and core 12 is tile (0,0) of
        // socket 1: 5 hops to the edge, then the inter-socket link.
        let cross = n.message(Endpoint::Core(CoreId(11)), Endpoint::Core(CoreId(12)), 0);
        assert_eq!(
            cross,
            SimDuration::from_ps(5 * 750) + SimDuration::from_ns(260)
        );
        // Core 12 shares tile 16 with that slice.
        let local = n.message(Endpoint::Core(CoreId(12)), Endpoint::LlcSlice(16), 0);
        assert_eq!(local, SimDuration::ZERO);
    }

    #[test]
    fn round_trip_is_sum_of_ways() {
        let n = noc();
        let rt = n.round_trip(Endpoint::Core(CoreId(0)), Endpoint::LlcSlice(9), 64);
        let there = n.message(Endpoint::Core(CoreId(0)), Endpoint::LlcSlice(9), 0);
        let back = n.message(Endpoint::LlcSlice(9), Endpoint::Core(CoreId(0)), 64);
        assert_eq!(rt, there + back);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_core_panics() {
        let n = noc();
        let _ = n.message(Endpoint::Core(CoreId(99)), Endpoint::LlcSlice(0), 0);
    }
}
