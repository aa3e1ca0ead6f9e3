//! The memory governor: ledger, pressure ladder, and the warm-PD pool.
//!
//! Millions of users means millions of idle functions hoarding warm PDs,
//! cold temp VMAs, and VMA-table entries. This module is the worker's
//! defense: a [`MemoryLedger`] with a hard conservation invariant
//! (`mapped == resident + reclaimed`, checked at seal next to the
//! `offered == completed + failed + shed` request ledger), a
//! [`MemoryPressure`] ladder that feeds the brownout/autoscaler loop
//! (pressure can veto scale-up and trigger pool eviction *before* the
//! admission policy starts shedding), and a [`PdPool`] replacing the
//! server's raw warm-PD vectors with Squeezy-style working-set tracking:
//! every pooled PD records when it was warmed, when it last served, and
//! how many invocations it has hosted, so idle-age/size eviction can
//! reclaim exactly the cold tail.
//!
//! The pool also closes a reclamation race: a PD claimed by an in-flight
//! invocation is registered as claimed until released or forgotten, and
//! eviction of a claimed PD is a typed error ([`PdPoolError::Claimed`]) —
//! never a reclaim.

use jord_hw::types::{PdId, Va};
use jord_sim::{SimDuration, SimTime};
use jord_vma::PdSnapshot;

use crate::function::FunctionId;

/// Nominal bytes one write-ahead journal record occupies on the durable
/// log (the ledger's `journal_bytes` = records × this).
pub const JOURNAL_RECORD_BYTES: u64 = 64;
/// Nominal bytes one checkpoint image occupies (`checkpoint_bytes` =
/// checkpoints × this).
pub const CHECKPOINT_IMAGE_BYTES: u64 = 4096;

/// Fraction of the resident budget at which pressure becomes
/// [`MemoryPressure::Elevated`] and reclamation starts.
const ELEVATED_FRAC: f64 = 0.70;
/// Fraction of the resident budget at which pressure becomes
/// [`MemoryPressure::Critical`] and scale-up stops.
const CRITICAL_FRAC: f64 = 0.90;

/// Memory-governor tuning for one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Resident-byte budget the pressure ladder is anchored to.
    pub resident_budget_bytes: u64,
    /// Pooled PDs idle longer than this are eviction candidates.
    pub pool_max_idle: SimDuration,
    /// Hard cap on warm PDs retained per function (oldest evicted first).
    pub pool_max_per_function: usize,
    /// Dead VMA-table entries tolerated before a compaction sweep runs.
    pub compact_dead_slots: usize,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            // 1 GiB resident budget: far above a single worker's steady
            // state, so pressure only engages when something actually leaks
            // or hoards.
            resident_budget_bytes: 1 << 30,
            pool_max_idle: SimDuration::from_us(10_000),
            pool_max_per_function: 8,
            compact_dead_slots: 256,
        }
    }
}

impl MemoryConfig {
    /// Checks the governor's numeric fields.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        if self.resident_budget_bytes == 0 {
            return Err("resident_budget_bytes must be positive".into());
        }
        Ok(())
    }

    /// The pressure level implied by `resident` bytes under this config.
    pub fn pressure(&self, resident: u64) -> MemoryPressure {
        let budget = self.resident_budget_bytes as f64;
        let r = resident as f64;
        if r >= budget * CRITICAL_FRAC {
            MemoryPressure::Critical
        } else if r >= budget * ELEVATED_FRAC {
            MemoryPressure::Elevated
        } else {
            MemoryPressure::Normal
        }
    }
}

/// The memory-pressure ladder, ordered `Normal < Elevated < Critical`.
///
/// `Elevated` triggers reclamation (pool eviction of the cold tail, table
/// compaction); `Critical` additionally vetoes autoscaler scale-up — a
/// fleet that cannot hold its working set must shed load, not multiply
/// the leak.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemoryPressure {
    /// Resident bytes comfortably under budget.
    #[default]
    Normal,
    /// Approaching budget: reclaim idle state before it matters.
    Elevated,
    /// At budget: reclaim aggressively and stop scaling up.
    Critical,
}

impl MemoryPressure {
    /// Display label ("normal" / "elevated" / "critical").
    pub fn label(self) -> &'static str {
        match self {
            MemoryPressure::Normal => "normal",
            MemoryPressure::Elevated => "elevated",
            MemoryPressure::Critical => "critical",
        }
    }
}

/// The per-worker memory ledger, surfaced in `RunReport` next to the
/// request ledger. All byte counters are cumulative except
/// `resident_bytes`/`peak_resident_bytes`; conservation demands
/// `mapped_bytes == resident_bytes + reclaimed_bytes` at every seal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryLedger {
    /// Cumulative bytes ever mapped (size-class chunk granularity).
    pub mapped_bytes: u64,
    /// Bytes resident at seal.
    pub resident_bytes: u64,
    /// Cumulative bytes unmapped.
    pub reclaimed_bytes: u64,
    /// Highest resident-byte watermark observed at a governor tick.
    pub peak_resident_bytes: u64,
    /// Warm PDs held in the pool at seal (0 after a drained run).
    pub pooled_pds: u64,
    /// Stack/heap bytes retained by those pooled PDs.
    pub pooled_bytes: u64,
    /// Pooled PDs evicted by the governor (idle age, size cap, pressure).
    pub pool_evictions: u64,
    /// Bytes those evictions returned.
    pub evicted_bytes: u64,
    /// Journal bytes appended (records × nominal record size).
    pub journal_bytes: u64,
    /// Checkpoint bytes captured.
    pub checkpoint_bytes: u64,
    /// VMA-table compaction sweeps run.
    pub compactions: u64,
    /// Dead table entries those sweeps released.
    pub compacted_slots: u64,
    /// Pressure-ladder level changes published on the event bus.
    pub pressure_transitions: u64,
}

impl MemoryLedger {
    /// The conservation invariant: every byte ever mapped is either still
    /// resident or has been reclaimed — nothing leaks, nothing is counted
    /// twice.
    pub fn balanced(&self) -> bool {
        self.mapped_bytes == self.resident_bytes + self.reclaimed_bytes
    }

    /// Merges a worker's ledger into a fleet roll-up. Peak residency
    /// sums pessimistically: the fleet's true concurrent peak is at most
    /// the sum of per-worker peaks.
    pub fn merge(&mut self, other: &MemoryLedger) {
        self.mapped_bytes += other.mapped_bytes;
        self.resident_bytes += other.resident_bytes;
        self.reclaimed_bytes += other.reclaimed_bytes;
        self.peak_resident_bytes += other.peak_resident_bytes;
        self.pooled_pds += other.pooled_pds;
        self.pooled_bytes += other.pooled_bytes;
        self.pool_evictions += other.pool_evictions;
        self.evicted_bytes += other.evicted_bytes;
        self.journal_bytes += other.journal_bytes;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.compactions += other.compactions;
        self.compacted_slots += other.compacted_slots;
        self.pressure_transitions += other.pressure_transitions;
    }
}

/// One warm PD in the pool, carrying its Squeezy-style working-set
/// record: the pristine snapshot sanitization restores to, plus the age
/// and usage signals the eviction policy keys on.
#[derive(Debug, Clone)]
pub struct PooledPd {
    /// The live protection domain.
    pub pd: PdId,
    /// Its retained stack/heap VMA.
    pub stackheap: Va,
    /// The pristine layout sanitization verified it against.
    pub snapshot: PdSnapshot,
    /// Size-class bytes the retained stack/heap occupies.
    pub bytes: u64,
    /// When the PD was first warmed into the pool.
    pub warmed_at: SimTime,
    /// When it last finished serving an invocation.
    pub last_used: SimTime,
    /// Invocations it has hosted.
    pub uses: u64,
}

/// Typed refusal from [`PdPool::evict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PdPoolError {
    /// The PD is claimed by an in-flight invocation: reclaiming it would
    /// pull live state out from under running code. The reclamation race
    /// the fault injector drives must land here, never in a reclaim.
    Claimed {
        /// The claimed PD.
        pd: PdId,
        /// The function whose invocation holds the claim.
        func: FunctionId,
    },
    /// The PD is not pooled (already evicted, or never warmed).
    NotPooled {
        /// The unknown PD.
        pd: PdId,
    },
}

impl std::fmt::Display for PdPoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PdPoolError::Claimed { pd, func } => write!(
                f,
                "PD {} is claimed by an in-flight invocation of function {}",
                pd.0, func.0
            ),
            PdPoolError::NotPooled { pd } => write!(f, "PD {} is not pooled", pd.0),
        }
    }
}

impl std::error::Error for PdPoolError {}

/// The warm-PD pool: per-function lanes of sanitized PDs plus a claim
/// registry for PDs currently out serving an invocation.
///
/// Claim discipline: [`claim`](Self::claim) hands the PD to the
/// invocation and parks its working-set record in the claim registry;
/// [`release`](Self::release) returns it warm; [`forget`](Self::forget)
/// drops the claim when the invocation tears the PD down instead (abort
/// and crash paths). Eviction only ever
/// sees unclaimed entries, and [`evict`](Self::evict) on a claimed PD is
/// a typed error — the satellite-2 property test drives random
/// interleavings of all four against this contract.
#[derive(Debug, Clone, Default)]
pub struct PdPool {
    lanes: Vec<Vec<PooledPd>>,
    /// PDs out on loan to in-flight invocations, with their working-set
    /// records parked here until release (or dropped on forget).
    claimed: Vec<(FunctionId, PooledPd)>,
    evictions: u64,
    evicted_bytes: u64,
}

impl PdPool {
    /// An empty pool with one lane per deployed function.
    pub fn new(functions: usize) -> Self {
        PdPool {
            lanes: (0..functions).map(|_| Vec::new()).collect(),
            claimed: Vec::new(),
            evictions: 0,
            evicted_bytes: 0,
        }
    }

    /// Warms a freshly built PD into `func`'s lane (prefill and first
    /// finish both land here).
    pub fn admit(&mut self, func: FunctionId, entry: PooledPd) {
        debug_assert!(
            !self.claimed.iter().any(|(_, e)| e.pd == entry.pd),
            "a claimed PD cannot be admitted"
        );
        self.lanes[func.0 as usize].push(entry);
    }

    /// Claims the most recently used warm PD for `func`, registering it as
    /// in-flight; the working-set record stays parked in the claim
    /// registry until release. LIFO order keeps the hot end of the lane
    /// hot and leaves the cold tail for the eviction policy. Returns the
    /// PD, its retained stack/heap VA, and the pristine snapshot
    /// sanitization will verify against.
    pub fn claim(&mut self, func: FunctionId, at: SimTime) -> Option<(PdId, Va, PdSnapshot)> {
        let mut entry = self.lanes[func.0 as usize].pop()?;
        entry.uses += 1;
        entry.last_used = at;
        let out = (entry.pd, entry.stackheap, entry.snapshot.clone());
        self.claimed.push((func, entry));
        Some(out)
    }

    /// Returns a claimed PD to its lane, warm and sanitized.
    pub fn release(&mut self, pd: PdId, at: SimTime) {
        let pos = self
            .claimed
            .iter()
            .position(|(_, e)| e.pd == pd)
            .expect("released PD must have been claimed");
        let (func, mut entry) = self.claimed.swap_remove(pos);
        entry.last_used = at;
        self.lanes[func.0 as usize].push(entry);
    }

    /// Drops the claim on a PD the invocation destroyed instead of
    /// returning (abort/teardown paths). A no-op for unclaimed PDs, so
    /// teardown code can call it unconditionally.
    pub fn forget(&mut self, pd: PdId) {
        if let Some(pos) = self.claimed.iter().position(|(_, e)| e.pd == pd) {
            self.claimed.swap_remove(pos);
        }
    }

    /// The working-set record of a claimed PD (None if `pd` is not out on
    /// claim) — how the server tells a pool-claimed PD from a freshly
    /// built one at teardown.
    pub fn claimed_entry(&self, pd: PdId) -> Option<&PooledPd> {
        self.claimed
            .iter()
            .find(|(_, e)| e.pd == pd)
            .map(|(_, e)| e)
    }

    /// Evicts a specific PD from the pool.
    ///
    /// # Errors
    ///
    /// [`PdPoolError::Claimed`] when the PD is out serving an in-flight
    /// invocation (the reclamation race), [`PdPoolError::NotPooled`] when
    /// it is unknown.
    pub fn evict(&mut self, pd: PdId) -> Result<(FunctionId, PooledPd), PdPoolError> {
        if let Some(&(func, _)) = self.claimed.iter().find(|(_, e)| e.pd == pd) {
            return Err(PdPoolError::Claimed { pd, func });
        }
        for (fi, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(pos) = lane.iter().position(|e| e.pd == pd) {
                let entry = lane.remove(pos);
                self.evictions += 1;
                self.evicted_bytes += entry.bytes;
                return Ok((FunctionId(fi as u32), entry));
            }
        }
        Err(PdPoolError::NotPooled { pd })
    }

    /// The age/size eviction policy: drops entries idle past
    /// `cfg.pool_max_idle` and trims each lane to
    /// `cfg.pool_max_per_function` (oldest first). Claimed PDs are out of
    /// the lanes and structurally untouchable here.
    pub fn evict_idle(&mut self, now: SimTime, cfg: &MemoryConfig) -> Vec<(FunctionId, PooledPd)> {
        let mut out = Vec::new();
        for (fi, lane) in self.lanes.iter_mut().enumerate() {
            let func = FunctionId(fi as u32);
            // Idle age first: anything cold goes regardless of lane size.
            let mut i = 0;
            while i < lane.len() {
                if now.saturating_since(lane[i].last_used) > cfg.pool_max_idle {
                    out.push((func, lane.remove(i)));
                } else {
                    i += 1;
                }
            }
            // Then the size cap, shedding the oldest (front of the lane).
            while lane.len() > cfg.pool_max_per_function {
                out.push((func, lane.remove(0)));
            }
        }
        for (_, e) in &out {
            self.evictions += 1;
            self.evicted_bytes += e.bytes;
        }
        out
    }

    /// Pressure-driven eviction: releases up to `n` of the globally
    /// coldest entries regardless of idle age — the step the governor
    /// takes *before* admission starts shedding requests.
    pub fn evict_coldest(&mut self, n: usize) -> Vec<(FunctionId, PooledPd)> {
        let mut out = Vec::new();
        for _ in 0..n {
            let victim = self
                .lanes
                .iter()
                .enumerate()
                .filter_map(|(fi, lane)| lane.first().map(|e| (e.last_used, fi)))
                .min();
            let Some((_, fi)) = victim else { break };
            let entry = self.lanes[fi].remove(0);
            self.evictions += 1;
            self.evicted_bytes += entry.bytes;
            out.push((FunctionId(fi as u32), entry));
        }
        out
    }

    /// Drains every unclaimed entry (seal, worker retirement). Claimed
    /// entries are the in-flight invocations' problem and stay registered.
    pub fn drain(&mut self) -> Vec<(FunctionId, PooledPd)> {
        let mut out = Vec::new();
        for (fi, lane) in self.lanes.iter_mut().enumerate() {
            for entry in lane.drain(..) {
                out.push((FunctionId(fi as u32), entry));
            }
        }
        out
    }

    /// Warm PDs currently pooled (excludes claimed).
    pub fn pooled(&self) -> usize {
        self.lanes.iter().map(Vec::len).sum()
    }

    /// Warm PDs pooled for one function.
    pub fn pooled_for(&self, func: FunctionId) -> usize {
        self.lanes[func.0 as usize].len()
    }

    /// Stack/heap bytes the pooled (unclaimed) PDs retain.
    pub fn pooled_bytes(&self) -> u64 {
        self.lanes.iter().flatten().map(|e| e.bytes).sum()
    }

    /// PDs currently claimed by in-flight invocations.
    pub fn claimed_len(&self) -> usize {
        self.claimed.len()
    }

    /// Evictions performed over the pool's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Bytes those evictions returned.
    pub fn evicted_bytes(&self) -> u64 {
        self.evicted_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(pd: u16, at: SimTime) -> PooledPd {
        PooledPd {
            pd: PdId(pd),
            stackheap: 0x1000 * pd as u64,
            snapshot: PdSnapshot {
                pd: PdId(pd),
                entries: Vec::new(),
            },
            bytes: 64 << 10,
            warmed_at: at,
            last_used: at,
            uses: 0,
        }
    }

    #[test]
    fn pressure_ladder_thresholds() {
        let cfg = MemoryConfig {
            resident_budget_bytes: 1000,
            ..MemoryConfig::default()
        };
        assert_eq!(cfg.pressure(0), MemoryPressure::Normal);
        assert_eq!(cfg.pressure(699), MemoryPressure::Normal);
        assert_eq!(cfg.pressure(700), MemoryPressure::Elevated);
        assert_eq!(cfg.pressure(899), MemoryPressure::Elevated);
        assert_eq!(cfg.pressure(900), MemoryPressure::Critical);
        assert!(MemoryPressure::Normal < MemoryPressure::Elevated);
        assert!(MemoryPressure::Elevated < MemoryPressure::Critical);
        assert_eq!(MemoryPressure::Critical.label(), "critical");
    }

    #[test]
    fn ledger_balances_only_when_conserved() {
        let mut l = MemoryLedger {
            mapped_bytes: 100,
            resident_bytes: 60,
            reclaimed_bytes: 40,
            ..MemoryLedger::default()
        };
        assert!(l.balanced());
        l.resident_bytes = 59;
        assert!(!l.balanced());
    }

    #[test]
    fn claim_release_roundtrip_tracks_working_set() {
        let mut pool = PdPool::new(2);
        let f = FunctionId(0);
        pool.admit(f, entry(1, SimTime::ZERO));
        assert_eq!(pool.pooled(), 1);

        let (pd, stackheap, _) = pool.claim(f, SimTime::from_us(5)).expect("warm PD");
        assert_eq!(pd, PdId(1));
        assert_eq!(stackheap, 0x1000);
        assert_eq!(pool.pooled(), 0);
        assert_eq!(pool.claimed_len(), 1);
        let rec = pool.claimed_entry(pd).expect("claim registry holds it");
        assert_eq!(rec.uses, 1);
        assert!(pool.claim(f, SimTime::from_us(5)).is_none(), "lane empty");

        pool.release(pd, SimTime::from_us(9));
        assert_eq!(pool.claimed_len(), 0);
        assert!(pool.claimed_entry(pd).is_none());
        let (pd, _, _) = pool.claim(f, SimTime::from_us(12)).expect("released PD");
        let rec = pool.claimed_entry(pd).expect("re-claimed");
        assert_eq!(rec.uses, 2);
        assert_eq!(rec.last_used, SimTime::from_us(12));
    }

    #[test]
    fn evicting_a_claimed_pd_is_a_typed_refusal() {
        let mut pool = PdPool::new(1);
        let f = FunctionId(0);
        pool.admit(f, entry(7, SimTime::ZERO));
        let (pd, _, _) = pool.claim(f, SimTime::from_us(1)).expect("warm PD");
        assert_eq!(
            pool.evict(PdId(7)).unwrap_err(),
            PdPoolError::Claimed {
                pd: PdId(7),
                func: f
            }
        );
        assert_eq!(
            pool.evict(PdId(9)).unwrap_err(),
            PdPoolError::NotPooled { pd: PdId(9) }
        );
        pool.release(pd, SimTime::from_us(2));
        let (func, evicted) = pool.evict(PdId(7)).expect("released PD evictable");
        assert_eq!(func, f);
        assert_eq!(evicted.pd, PdId(7));
        assert_eq!(pool.evictions(), 1);
        assert_eq!(pool.evicted_bytes(), 64 << 10);
    }

    #[test]
    fn idle_age_and_size_cap_evict_the_cold_tail() {
        let cfg = MemoryConfig {
            pool_max_idle: SimDuration::from_us(100),
            pool_max_per_function: 2,
            ..MemoryConfig::default()
        };
        let mut pool = PdPool::new(1);
        let f = FunctionId(0);
        pool.admit(f, entry(1, SimTime::ZERO)); // cold
        pool.admit(f, entry(2, SimTime::from_us(150)));
        pool.admit(f, entry(3, SimTime::from_us(160)));
        pool.admit(f, entry(4, SimTime::from_us(170)));

        let evicted = pool.evict_idle(SimTime::from_us(200), &cfg);
        // PD 1 ages out; PD 2 is the oldest survivor over the size cap.
        let pds: Vec<u16> = evicted.iter().map(|(_, e)| e.pd.0).collect();
        assert_eq!(pds, vec![1, 2]);
        assert_eq!(pool.pooled(), 2);
        assert_eq!(pool.evictions(), 2);
    }

    #[test]
    fn pressure_eviction_takes_globally_coldest_first() {
        let mut pool = PdPool::new(2);
        pool.admit(FunctionId(0), entry(1, SimTime::from_us(50)));
        pool.admit(FunctionId(1), entry(2, SimTime::from_us(10)));
        pool.admit(FunctionId(1), entry(3, SimTime::from_us(60)));
        let evicted = pool.evict_coldest(2);
        let pds: Vec<u16> = evicted.iter().map(|(_, e)| e.pd.0).collect();
        assert_eq!(pds, vec![2, 1], "coldest across lanes, in order");
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn drain_leaves_claims_registered() {
        let mut pool = PdPool::new(1);
        let f = FunctionId(0);
        pool.admit(f, entry(1, SimTime::ZERO));
        pool.admit(f, entry(2, SimTime::ZERO));
        let (held, _, _) = pool.claim(f, SimTime::from_us(1)).expect("warm PD");
        assert_eq!(held, PdId(2), "claim pops the LIFO end");
        let drained = pool.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].1.pd, PdId(1));
        assert_eq!(pool.pooled(), 0);
        assert_eq!(pool.claimed_len(), 1, "in-flight claim survives drain");
        pool.forget(PdId(1)); // not claimed: a no-op
        assert_eq!(pool.claimed_len(), 1);
        pool.forget(held); // the claimant tore its PD down instead
        assert_eq!(pool.claimed_len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    /// One step of a random pool schedule.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Admit,
        Claim(u8),
        Release,
        Forget,
        Evict(u16),
        EvictIdle(u64),
        EvictColdest(u8),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            Just(Step::Admit),
            (0u8..4).prop_map(Step::Claim),
            Just(Step::Release),
            Just(Step::Forget),
            (0u16..64).prop_map(Step::Evict),
            (0u64..500).prop_map(Step::EvictIdle),
            (0u8..4).prop_map(Step::EvictColdest),
        ]
    }

    proptest! {
        /// Satellite 2: across random interleavings of admit / claim /
        /// release / forget / evict — any schedule, any seed — no PD
        /// claimed by an in-flight invocation is ever reclaimed, and
        /// every eviction's victim really was unclaimed at that moment.
        #[test]
        fn no_claimed_pd_is_ever_reclaimed(
            steps in proptest::collection::vec(arb_step(), 1..200),
            funcs in 1u32..4,
        ) {
            let cfg = MemoryConfig {
                pool_max_idle: SimDuration::from_us(200),
                pool_max_per_function: 3,
                ..MemoryConfig::default()
            };
            let mut pool = PdPool::new(funcs as usize);
            let mut next_pd = 1u16;
            let mut now_us = 0u64;
            // Oracle: PDs currently out on claim.
            let mut in_flight: Vec<PdId> = Vec::new();

            for step in steps {
                now_us += 7;
                let now = SimTime::from_us(now_us);
                match step {
                    Step::Admit => {
                        let func = FunctionId(next_pd as u32 % funcs);
                        pool.admit(func, PooledPd {
                            pd: PdId(next_pd),
                            stackheap: 0x1000 * next_pd as u64,
                            snapshot: PdSnapshot { pd: PdId(next_pd), entries: Vec::new() },
                            bytes: 4096,
                            warmed_at: now,
                            last_used: now,
                            uses: 0,
                        });
                        next_pd += 1;
                    }
                    Step::Claim(f) => {
                        let func = FunctionId(f as u32 % funcs);
                        if let Some((pd, _, _)) = pool.claim(func, now) {
                            in_flight.push(pd);
                        }
                    }
                    Step::Release => {
                        if let Some(pd) = in_flight.pop() {
                            pool.release(pd, now);
                        }
                    }
                    Step::Forget => {
                        if let Some(pd) = in_flight.pop() {
                            pool.forget(pd);
                        }
                    }
                    Step::Evict(pd) => {
                        let pd = PdId(pd % next_pd.max(1));
                        let was_claimed = in_flight.contains(&pd);
                        match pool.evict(pd) {
                            Ok((_, e)) => {
                                prop_assert!(!was_claimed,
                                    "evict reclaimed claimed PD {}", e.pd.0);
                            }
                            Err(PdPoolError::Claimed { pd: p, .. }) => {
                                prop_assert!(was_claimed,
                                    "typed Claimed error for unclaimed PD {}", p.0);
                            }
                            Err(PdPoolError::NotPooled { .. }) => {}
                        }
                    }
                    Step::EvictIdle(advance) => {
                        let later = SimTime::from_us(now_us + advance);
                        for (_, e) in pool.evict_idle(later, &cfg) {
                            prop_assert!(!in_flight.contains(&e.pd),
                                "idle eviction reclaimed claimed PD {}", e.pd.0);
                        }
                    }
                    Step::EvictColdest(n) => {
                        for (_, e) in pool.evict_coldest(n as usize) {
                            prop_assert!(!in_flight.contains(&e.pd),
                                "pressure eviction reclaimed claimed PD {}", e.pd.0);
                        }
                    }
                }
                prop_assert_eq!(pool.claimed_len(), in_flight.len());
            }
        }
    }
}
