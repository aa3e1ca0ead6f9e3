//! Property-based tests of the hardware model's invariants.
//!
//! The coherence protocol and the VTD/VLB machinery must hold their
//! invariants under *any* interleaving of accesses — exactly the kind of
//! guarantee unit tests under-sample.

use proptest::prelude::*;

use jord_hw::coherence::LineState;
use jord_hw::noc::Endpoint;
use jord_hw::types::{CoreId, CoreSet, LineAddr, PdId, Perm, VlbEntry, VteAddr};
use jord_hw::vlb::VlbStats;
use jord_hw::{CoherenceModel, Machine, MachineConfig, Noc, Vlb, VlbKind};
use jord_sim::SimDuration;

#[derive(Debug, Clone, Copy)]
enum Access {
    Read { core: u8, line: u8 },
    Write { core: u8, line: u8 },
}

fn arb_access() -> impl Strategy<Value = Access> {
    prop_oneof![
        (0u8..32, 0u8..16).prop_map(|(core, line)| Access::Read { core, line }),
        (0u8..32, 0u8..16).prop_map(|(core, line)| Access::Write { core, line }),
    ]
}

/// The seven machine presets, at a clock of `ghz`.
fn preset(index: usize, ghz: f64) -> MachineConfig {
    let cfg = match index {
        0 => MachineConfig::isca25(),
        1 => MachineConfig::fpga(),
        2 => MachineConfig::scaled(16),
        3 => MachineConfig::scaled(64),
        4 => MachineConfig::scaled(128),
        5 => MachineConfig::scaled(256),
        _ => MachineConfig::two_socket(),
    };
    MachineConfig {
        freq_ghz: ghz,
        ..cfg
    }
}

/// Clocks with a whole number of picoseconds per cycle (4 GHz is Table 2's).
const CLOCKS_GHZ: [f64; 4] = [1.0, 2.0, 4.0, 5.0];

/// Reference NoC latency: XY hops plus serialization, each message's
/// cycles converted through `f64` nanoseconds, and core `c` on global tile
/// `c` (true of every preset, which has as many tiles as cores per socket).
fn reference_message(
    cfg: &MachineConfig,
    from: Endpoint,
    to: Endpoint,
    payload: u64,
) -> SimDuration {
    let tile = |ep| match ep {
        Endpoint::Core(c) => c.0,
        Endpoint::LlcSlice(t) => t,
    };
    let (a, b) = (tile(from), tile(to));
    let tps = cfg.tiles_per_socket();
    let w = cfg.mesh_w;
    let hops = |p: usize, q: usize| ((p % w).abs_diff(q % w) + (p / w).abs_diff(q / w)) as u64;
    let ser = payload.div_ceil(cfg.link_bytes);
    let (la, lb) = (a % tps, b % tps);
    if a / tps == b / tps {
        SimDuration::from_ns_f64((hops(la, lb) * cfg.hop_cycles + ser) as f64 / cfg.freq_ghz)
    } else {
        let hops = hops(la, 0) + hops(0, lb);
        SimDuration::from_ns_f64((hops * cfg.hop_cycles + ser) as f64 / cfg.freq_ghz)
            + SimDuration::from_ns_f64(cfg.inter_socket_ns)
    }
}

/// A core (`true`) or an LLC slice, picked by `index` modulo their count.
fn endpoint(cfg: &MachineConfig, core: bool, index: usize) -> Endpoint {
    if core {
        Endpoint::Core(CoreId(index % cfg.cores))
    } else {
        Endpoint::LlcSlice(index % (cfg.tiles_per_socket() * cfg.sockets))
    }
}

/// The recency-ordered VLB that recency stamps replaced, kept as the
/// reference: most recently used last, so a lookup takes the first
/// covering entry from the LRU end and moves it to the back, and a fill
/// evicts the front.
struct ListVlb {
    capacity: usize,
    entries: Vec<VlbEntry>,
    stats: VlbStats,
}

impl ListVlb {
    fn new(capacity: usize) -> Self {
        ListVlb {
            capacity,
            entries: Vec::new(),
            stats: VlbStats::default(),
        }
    }

    fn lookup(&mut self, va: u64, pd: PdId) -> Option<VlbEntry> {
        match self.entries.iter().position(|e| e.covers(va, pd)) {
            Some(i) => {
                self.stats.hits += 1;
                let e = self.entries.remove(i);
                self.entries.push(e);
                Some(e)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    fn fill(&mut self, entry: VlbEntry) {
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.vte == entry.vte && e.pd == entry.pd)
        {
            self.entries.remove(i);
        } else if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(entry);
    }

    fn invalidate_vte(&mut self, vte: VteAddr) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.vte != vte);
        let dropped = before - self.entries.len();
        self.stats.shootdowns += dropped as u64;
        dropped
    }
}

#[derive(Debug, Clone, Copy)]
enum VlbOp {
    /// Fill VTE `vte` over range `range` for `pd`.
    Fill {
        vte: u8,
        range: u8,
        pd: u8,
        global: bool,
        perm: u8,
    },
    /// Fill one global VMA for two PDs: two entries of one VTE.
    FillGlobalTwice {
        vte: u8,
        range: u8,
        pd: u8,
        other: u8,
    },
    Lookup {
        va: u16,
        pd: u8,
    },
    Invalidate {
        vte: u8,
    },
    Flush,
}

/// Eight overlapping ranges over `[0, 0x4000)`.
fn vlb_range(range: u8) -> (u64, u64) {
    let base = u64::from(range % 4) * 0x800;
    let len = 0x800 << (range / 4);
    (base, len)
}

fn vlb_entry(vte: u8, range: u8, pd: u8, global: bool, perm: u8) -> VlbEntry {
    let (base, len) = vlb_range(range);
    VlbEntry {
        vte: VteAddr(u64::from(vte) * 64),
        base,
        len,
        pd: PdId(u16::from(pd)),
        global,
        perm: Perm::from_bits(perm),
        privileged: perm == 0,
    }
}

fn arb_vlb_op() -> impl Strategy<Value = VlbOp> {
    prop_oneof![
        (0u8..6, 0u8..8, 0u8..4, any::<bool>(), 0u8..8).prop_map(
            |(vte, range, pd, global, perm)| VlbOp::Fill {
                vte,
                range,
                pd,
                global,
                perm
            }
        ),
        (0u8..6, 0u8..8, 0u8..4, 0u8..4).prop_map(|(vte, range, pd, other)| {
            VlbOp::FillGlobalTwice {
                vte,
                range,
                pd,
                other,
            }
        }),
        // Listed twice: lookups come twice as often as each other op.
        (0u16..0x4400, 0u8..4).prop_map(|(va, pd)| VlbOp::Lookup { va, pd }),
        (0u16..0x4400, 0u8..4).prop_map(|(va, pd)| VlbOp::Lookup { va, pd }),
        (0u8..6).prop_map(|vte| VlbOp::Invalidate { vte }),
        Just(VlbOp::Flush),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Differential: the stamped VLB makes every decision the
    /// recency-ordered list makes, at every capacity up to Table 2's 16,
    /// with overlapping ranges, global and per-PD entries, and one global
    /// VMA cached under several PDs. After each step the lookup result,
    /// the counters, the occupancy and the VTE tags agree.
    #[test]
    fn vlb_matches_recency_ordered_list(
        cap in 1usize..17,
        ops in proptest::collection::vec(arb_vlb_op(), 1..160),
    ) {
        let (mut vlb, mut list) = (Vlb::new(cap), ListVlb::new(cap));
        for op in ops {
            match op {
                VlbOp::Fill { vte, range, pd, global, perm } => {
                    let e = vlb_entry(vte, range, pd, global, perm);
                    vlb.fill(e);
                    list.fill(e);
                }
                VlbOp::FillGlobalTwice { vte, range, pd, other } => {
                    for pd in [pd, other] {
                        let e = vlb_entry(vte, range, pd, true, 3);
                        vlb.fill(e);
                        list.fill(e);
                    }
                }
                VlbOp::Lookup { va, pd } => {
                    let (va, pd) = (u64::from(va), PdId(u16::from(pd)));
                    prop_assert_eq!(vlb.lookup(va, pd), list.lookup(va, pd), "{:?}", op);
                }
                VlbOp::Invalidate { vte } => {
                    let vte = VteAddr(u64::from(vte) * 64);
                    prop_assert_eq!(vlb.invalidate_vte(vte), list.invalidate_vte(vte));
                }
                VlbOp::Flush => {
                    vlb.flush();
                    list.entries.clear();
                }
            }
            prop_assert_eq!(vlb.stats(), list.stats);
            prop_assert_eq!(vlb.len(), list.entries.len());
            for vte in 0..6u64 {
                let vte = VteAddr(vte * 64);
                prop_assert_eq!(vlb.caches_vte(vte), list.entries.iter().any(|e| e.vte == vte));
            }
        }
    }

    /// Differential: the NoC, priced once per machine in integer
    /// picoseconds, charges every message and round trip exactly what the
    /// float reference charges, on every preset and clock.
    #[test]
    fn noc_matches_float_reference(
        which in 0usize..7,
        clock in 0usize..4,
        pairs in proptest::collection::vec(
            (any::<bool>(), 0usize..256, any::<bool>(), 0usize..256, 0u64..64 * 1024 + 1),
            1..32,
        ),
    ) {
        let cfg = preset(which, CLOCKS_GHZ[clock]);
        prop_assert_eq!(cfg.tiles_per_socket(), cfg.cores_per_socket());
        let noc = Noc::new(&cfg);
        for (a_core, a, b_core, b, payload) in pairs {
            let (from, to) = (endpoint(&cfg, a_core, a), endpoint(&cfg, b_core, b));
            prop_assert_eq!(
                noc.message(from, to, payload),
                reference_message(&cfg, from, to, payload),
                "{:?} -> {:?}, {} B", from, to, payload
            );
            prop_assert_eq!(
                noc.round_trip(from, to, payload),
                reference_message(&cfg, from, to, 0) + reference_message(&cfg, to, from, payload)
            );
        }
    }

    /// Differential: `Machine::cycles` equals the float conversion
    /// `from_ns_f64(cycles / freq_ghz)` exactly, for up to 10⁹ cycles on
    /// every preset and clock.
    #[test]
    fn machine_cycles_match_float_reference(
        which in 0usize..7,
        clock in 0usize..4,
        cycles in proptest::collection::vec(0u64..1_000_000_001, 1..64),
    ) {
        let cfg = preset(which, CLOCKS_GHZ[clock]);
        let m = Machine::new(cfg.clone());
        for c in cycles.into_iter().chain([0, 1, 1_000_000_000]) {
            prop_assert_eq!(m.cycles(c), SimDuration::from_ns_f64(c as f64 / cfg.freq_ghz));
        }
    }

    /// MESI safety: a line is either invalid, owned by exactly one core
    /// (E/M), or shared read-only by a non-empty set; and after any write
    /// the writer is the sole owner.
    #[test]
    fn coherence_single_writer_invariant(ops in proptest::collection::vec(arb_access(), 1..200)) {
        let noc = Noc::new(&MachineConfig::isca25());
        let mut m = CoherenceModel::new();
        for op in ops {
            match op {
                Access::Read { core, line } => {
                    let lat = m.read_line(&noc, CoreId(core as usize), LineAddr(line as u64));
                    prop_assert!(lat.as_ps() > 0);
                    // After a read, the reader must hold the line.
                    prop_assert!(m.cached_by(LineAddr(line as u64), CoreId(core as usize)));
                }
                Access::Write { core, line } => {
                    m.write_line(&noc, CoreId(core as usize), LineAddr(line as u64));
                    let state = m.probe(LineAddr(line as u64)).expect("written line tracked");
                    prop_assert_eq!(
                        state,
                        &LineState::Modified(CoreId(core as usize)),
                        "writer must own the line exclusively"
                    );
                }
            }
            // Global invariant: sharer sets of M/E lines are singletons.
            for l in 0..16u64 {
                if let Some(LineState::Modified(c)) | Some(LineState::Exclusive(c)) =
                    m.probe(LineAddr(l))
                {
                    prop_assert_eq!(m.sharers(LineAddr(l)).len(), 1);
                    prop_assert!(m.sharers(LineAddr(l)).contains(*c));
                }
            }
        }
    }

    /// Coherence latencies are physical: a hit is never slower than the
    /// miss that preceded it on the same core.
    #[test]
    fn repeat_access_is_never_slower(core in 0usize..32, line in 0u64..64) {
        let noc = Noc::new(&MachineConfig::isca25());
        let mut m = CoherenceModel::new();
        let first = m.read_line(&noc, CoreId(core), LineAddr(line));
        let second = m.read_line(&noc, CoreId(core), LineAddr(line));
        prop_assert!(second <= first);
    }

    /// VLB: after any fill/invalidate sequence, occupancy never exceeds
    /// capacity, and a lookup hit always reflects the latest fill for that
    /// VTE.
    #[test]
    fn vlb_capacity_and_freshness(
        cap in 1usize..8,
        fills in proptest::collection::vec((0u64..12, 1u16..4), 1..64),
    ) {
        let mut vlb = Vlb::new(cap);
        let mut latest: std::collections::HashMap<(u64, u16), u8> = Default::default();
        for (i, &(vte, pd)) in fills.iter().enumerate() {
            let perm = Perm::from_bits((i % 3 + 1) as u8);
            vlb.fill(VlbEntry {
                vte: VteAddr(vte * 64),
                base: vte * 0x1000,
                len: 0x1000,
                pd: PdId(pd),
                global: false,
                perm,
                privileged: false,
            });
            latest.insert((vte, pd), perm.bits());
            prop_assert!(vlb.len() <= cap);
        }
        // Any hit must return the most recent permission for that (vte, pd).
        for (&(vte, pd), &bits) in &latest {
            if let Some(e) = vlb.lookup(vte * 0x1000, PdId(pd)) {
                prop_assert_eq!(e.perm.bits(), bits, "stale VLB entry survived a refill");
            }
        }
    }

    /// The machine-level security invariant behind §4.2: after a VTE write
    /// on ANY core, NO VLB anywhere still caches a translation tagged with
    /// that VTE (pessimistic union of VTD + directory sharers).
    #[test]
    fn vte_write_leaves_no_stale_vlb_entries(
        readers in proptest::collection::vec(0usize..32, 1..8),
        writer in 0usize..32,
        churn in proptest::collection::vec((0usize..32, 0u64..6), 0..40),
    ) {
        let mut m = Machine::new(MachineConfig::isca25());
        let vte = VteAddr(0x9_0000);
        // Arbitrary VTE traffic first (exercises VTD eviction paths).
        for &(core, other) in &churn {
            m.vte_read(CoreId(core), VteAddr(0xA_0000 + other * 64));
        }
        for &r in &readers {
            m.vte_read(CoreId(r), vte);
            m.vlb_fill(CoreId(r), VlbKind::Data, VlbEntry {
                vte,
                base: 0x500_000,
                len: 4096,
                pd: PdId(5),
                global: false,
                perm: Perm::RW,
                privileged: false,
            });
        }
        m.vte_write(CoreId(writer), vte);
        for c in 0..32 {
            prop_assert!(
                !m.vlb_caches(CoreId(c), VlbKind::Data, vte),
                "core {c} still caches the shot-down translation"
            );
        }
    }

    /// NoC latency is a metric-ish function: symmetric within a socket and
    /// strictly increased by payload size.
    #[test]
    fn noc_latency_properties(a in 0usize..32, b in 0usize..32, bytes in 1u64..4096) {
        let noc = Noc::new(&MachineConfig::isca25());
        let ab = noc.message(Endpoint::Core(CoreId(a)), Endpoint::Core(CoreId(b)), bytes);
        let ba = noc.message(Endpoint::Core(CoreId(b)), Endpoint::Core(CoreId(a)), bytes);
        prop_assert_eq!(ab, ba);
        let bigger = noc.message(Endpoint::Core(CoreId(a)), Endpoint::Core(CoreId(b)), bytes + 4096);
        prop_assert!(bigger > ab);
    }

    /// The set-bit walk of `CoreSet::iter` visits exactly the members, in
    /// ascending order: it equals a scan of every index through
    /// `contains`. Half the cases also force a random subset of the 64-bit
    /// word edges, where an off-by-one in the walk would show.
    #[test]
    fn coreset_iter_matches_contains(
        members in proptest::collection::vec(0usize..256, 0..300),
        edges in prop_oneof![Just(0u8), any::<u8>()],
    ) {
        let mut s: CoreSet = members.into_iter().map(CoreId).collect();
        for (bit, edge) in [0usize, 63, 64, 127, 128, 191, 192, 255].into_iter().enumerate() {
            if edges & (1 << bit) != 0 {
                s.insert(CoreId(edge));
            }
        }
        let scanned: Vec<CoreId> = (0..CoreSet::CAPACITY)
            .filter(|&i| s.contains(CoreId(i)))
            .map(CoreId)
            .collect();
        prop_assert_eq!(s.iter().collect::<Vec<_>>(), scanned);
        prop_assert_eq!(s.iter().count(), s.len());
    }
}
