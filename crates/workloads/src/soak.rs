//! Soak campaigns: a week of diurnal traffic against the memory governor.
//!
//! Where an [`autoscale`](crate::autoscale) campaign asks whether the
//! fleet survives a crowd, a soak campaign asks whether it survives
//! *time*: seven diurnal periods of load against the
//! [`jord_core::MemoryConfig`] governor — warm-pool idle eviction,
//! pressure-driven degradation, VMA-table compaction. The campaign's
//! assertions are the long-haul residency contract:
//!
//! 1. **A clean audit, always**: every run passes
//!    [`ClusterDispatcher::audit`] (or, for the crash probe,
//!    [`WorkerServer::audit`]) — both ledgers balance, nothing is lost,
//!    nothing leaks.
//! 2. **Bounded residency**: no evaluation window observes the fleet
//!    above `peak_workers x resident_budget_bytes`.
//! 3. **No monotonic growth**: the per-day peak of the final half of the
//!    week stays within a small tolerance of the first half's — a leak
//!    (a warm pool never evicted, a VMA table never compacted) shows up
//!    as day-over-day drift.
//! 4. **Stable tails**: the late-week mean windowed p99 stays within a
//!    bounded factor of the early week's.
//! 5. **Bit-identical replay**: the same seed reproduces the identical
//!    window sequence (now carrying resident bytes and pressure),
//!    fleet trace hash, and memory ledger.
//! 6. **Crash mid-reclaim**: a worker crash while reclamation is active
//!    (short idle deadlines, low compaction threshold) replays to the
//!    identical lifecycle trace, memory ledger, and live VMA/PD tables.

use jord_core::{
    ClusterConfig, ClusterDispatcher, ClusterReport, CrashConfig, MemoryConfig, MemoryLedger,
    RecoveryPolicy, RunReport, RuntimeConfig, WindowRecord, WorkerServer,
};
use jord_hw::CrashPlan;
use jord_sim::SimDuration;

use crate::apps::Workload;
use crate::autoscale::{fleet_autoscaler, DIURNAL_AMPLITUDE, INITIAL_WORKERS, SHED_BOUND};
use crate::loadgen::{ArrivalProcess, LoadGen};

/// One simulated "day" of the soak, folded from the autoscaler windows
/// that fell inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoakDay {
    /// Day index, 0-based.
    pub day: usize,
    /// Evaluation windows inside the day.
    pub windows: usize,
    /// Requests routed across the day's windows.
    pub offered: u64,
    /// Requests shed across the day's windows.
    pub shed: u64,
    /// Largest fleet resident-byte sum any window observed.
    pub peak_resident_bytes: u64,
    /// Mean fleet resident-byte sum over the day's windows.
    pub mean_resident_bytes: f64,
    /// Worst windowed p99 inside the day (µs), if anything completed.
    pub p99_us: Option<f64>,
}

/// The outcome of a soak run: per-day residency series plus the sealed
/// fleet ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Day-by-day residency/latency series, in order.
    pub days: Vec<SoakDay>,
    /// Requests pushed at the dispatcher.
    pub offered: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests shed.
    pub shed: u64,
    /// Fleet memory ledger (every worker's merged).
    pub memory: MemoryLedger,
    /// Largest simultaneous fleet size reached.
    pub peak_workers: u64,
    /// Largest fleet resident-byte sum any window observed.
    pub peak_resident_bytes: u64,
    /// Fleet trace hash (the replay witness).
    pub trace_hash: u64,
    /// End-to-end p99 over the whole week, µs.
    pub p99_us: f64,
}

impl SoakReport {
    /// Formats the per-day series as an aligned text table.
    pub fn table(&self) -> String {
        let mut out =
            String::from("day  windows  offered   shed  peak_resident  mean_resident    p99_us\n");
        for d in &self.days {
            out.push_str(&format!(
                "{:>3} {:>8} {:>8} {:>6} {:>14} {:>14.0} {:>9}\n",
                d.day,
                d.windows,
                d.offered,
                d.shed,
                d.peak_resident_bytes,
                d.mean_resident_bytes,
                d.p99_us.map_or("-".into(), |p| format!("{p:.3}")),
            ));
        }
        out
    }
}

/// A soak recipe: one workload on a fleet of Jord workers
/// ([`RuntimeConfig::jord_32`]), [`SoakCampaign::DAYS`] diurnal periods of
/// arrivals, the autoscaler and memory governor both engaged, plus a
/// crash-mid-reclaim replay probe on a single worker.
#[derive(Debug, Clone)]
pub struct SoakCampaign {
    /// Base offered load, requests/second; the diurnal sinusoid moves
    /// around it.
    pub rate_rps: f64,
    /// Requests across the whole week.
    pub requests: usize,
    /// Cluster seed.
    pub seed: u64,
    /// Memory-governor tuning shared by every worker.
    pub memory: MemoryConfig,
}

impl SoakCampaign {
    /// Diurnal periods packed into the arrival span: a week.
    pub const DAYS: usize = 7;
    /// Day-over-day growth tolerance for the no-leak assertion.
    const GROWTH_TOLERANCE: f64 = 1.25;
    /// Late-vs-early tail-latency tolerance factor.
    const TAIL_TOLERANCE: f64 = 2.0;

    /// A default week: two initial Jord workers on the Table 2 machine,
    /// seven diurnal periods, and a governor tuned so reclamation is
    /// actually exercised — warm PDs idle out during every trough
    /// (`pool_max_idle` shorter than a day) and tables compact under
    /// sustained churn.
    pub fn new(rate_rps: f64, requests: usize) -> Self {
        let span_us = requests as f64 / rate_rps * 1e6;
        let day_us = span_us / Self::DAYS as f64;
        SoakCampaign {
            rate_rps,
            requests,
            seed: 42,
            memory: MemoryConfig {
                // Tight enough that a worker's diurnal-peak working set
                // (~23 MiB under the DeathStarBench apps) crosses the
                // Elevated threshold (70% = 22 MiB) — the ladder must
                // actually be climbed, not just carried — while troughs
                // fall back to Normal.
                resident_budget_bytes: 30 << 20,
                // A trough must be long enough to idle-evict the pool
                // warmed at the preceding peak.
                pool_max_idle: SimDuration::from_us((day_us / 8.0) as u64),
                pool_max_per_function: 4,
                compact_dead_slots: 64,
            },
        }
    }

    /// The simulated arrival span, µs.
    fn span_us(&self) -> f64 {
        self.requests as f64 / self.rate_rps * 1e6
    }

    /// When the crash-mid-reclaim probe kills its worker, µs: 40 % of the
    /// way into the arrival span.
    pub fn crash_at_us(&self) -> f64 {
        self.span_us() * 0.4
    }

    /// Overrides the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The week's arrival shape.
    pub fn arrival(&self) -> ArrivalProcess {
        ArrivalProcess::Diurnal {
            period_us: self.span_us() / Self::DAYS as f64,
            amplitude: DIURNAL_AMPLITUDE,
        }
    }

    /// Runs the soak and asserts the long-haul residency contract.
    ///
    /// # Panics
    ///
    /// Panics if either run fails [`ClusterDispatcher::audit`], if a
    /// window observes the fleet over budget, if the late week's peak
    /// residency or tails drift past tolerance, if the governor never
    /// reclaimed anything (the soak would be vacuous), or if the seeded
    /// replay is not bit-identical.
    pub fn run(&self, workload: &Workload) -> SoakReport {
        let (rep, windows) = self.run_cluster(workload);
        let report = self.fold(&rep, &windows);

        assert!(
            rep.memory.reclaimed_bytes > 0 && rep.memory.pool_evictions > 0,
            "soak: a week of diurnal troughs must actually reclaim memory \
             (otherwise the soak proves nothing)"
        );

        // Bounded residency: every window, not just the last.
        let budget = self.memory.resident_budget_bytes * rep.autoscale.peak_workers;
        assert!(
            report.peak_resident_bytes <= budget,
            "soak: fleet resident bytes ({}) exceeded {} workers x budget ({})",
            report.peak_resident_bytes,
            rep.autoscale.peak_workers,
            budget
        );

        // No monotonic growth: late-week peaks within tolerance of the
        // early week's, and the day-peak series must not strictly climb.
        let measured: Vec<&SoakDay> = report.days.iter().filter(|d| d.windows > 0).collect();
        if measured.len() >= 2 {
            let half = measured.len() / 2;
            let early = measured[..half]
                .iter()
                .map(|d| d.peak_resident_bytes)
                .max()
                .unwrap_or(0);
            let late = measured[half..]
                .iter()
                .map(|d| d.peak_resident_bytes)
                .max()
                .unwrap_or(0);
            assert!(
                (late as f64) <= (early as f64) * Self::GROWTH_TOLERANCE,
                "soak: late-week peak residency ({late}) drifted past \
                 {:.2}x the early week's ({early}) — a reclamation leak",
                Self::GROWTH_TOLERANCE
            );
            let strictly_climbing = measured
                .windows(2)
                .all(|w| w[1].peak_resident_bytes > w[0].peak_resident_bytes);
            assert!(
                !strictly_climbing,
                "soak: day-peak residency climbed every single day"
            );

            // Stable tails: late-week windowed p99 within tolerance.
            let mean_p99 = |days: &[&SoakDay]| {
                let ps: Vec<f64> = days.iter().filter_map(|d| d.p99_us).collect();
                if ps.is_empty() {
                    None
                } else {
                    Some(ps.iter().sum::<f64>() / ps.len() as f64)
                }
            };
            if let (Some(early_p99), Some(late_p99)) =
                (mean_p99(&measured[..half]), mean_p99(&measured[half..]))
            {
                assert!(
                    late_p99 <= early_p99 * Self::TAIL_TOLERANCE,
                    "soak: late-week p99 ({late_p99:.3} µs) drifted past \
                     {:.1}x the early week's ({early_p99:.3} µs)",
                    Self::TAIL_TOLERANCE
                );
            }
        }

        // Bit-identical replay: decisions, residency series, pressure
        // levels, trace hash, and the merged memory ledger.
        let (rep2, windows2) = self.run_cluster(workload);
        assert_eq!(windows, windows2, "soak: window sequences must replay");
        assert_eq!(
            rep.trace_hash, rep2.trace_hash,
            "soak: fleet traces must replay bit-identically"
        );
        assert_eq!(
            rep.memory, rep2.memory,
            "soak: fleet memory ledgers must replay bit-identically"
        );

        report
    }

    /// One seeded cluster run of the week, returning the report and its
    /// window sequence.
    ///
    /// # Panics
    ///
    /// Panics if the run fails [`ClusterDispatcher::audit`].
    pub fn run_cluster(&self, workload: &Workload) -> (ClusterReport, Vec<WindowRecord>) {
        // Sanitize-and-pool on: the warm pool, working-set records, and
        // idle eviction are the machinery this campaign soaks.
        let template = RuntimeConfig::jord_32()
            .with_seed(self.seed)
            .with_sanitize(true)
            .with_recovery(RecoveryPolicy {
                shed_bound: Some(SHED_BOUND),
                ..RecoveryPolicy::default()
            })
            .with_memory(self.memory);
        let mut cfg = ClusterConfig::new(INITIAL_WORKERS, self.seed, template);
        cfg.autoscale = Some(fleet_autoscaler());
        let mut cluster =
            ClusterDispatcher::new(cfg, workload.registry.clone()).expect("valid cluster config");
        let mut gen = LoadGen::new(workload, self.seed).expect("workload mix is sampleable");
        let process = self.arrival();
        for (t, f, b) in gen.arrivals_with(&process, self.rate_rps, self.requests) {
            cluster.push_request(t, f, b);
        }
        let rep = cluster.run();
        cluster.audit(&rep).unwrap_or_else(|e| panic!("soak: {e}"));
        let windows = rep.windows.clone();
        (rep, windows)
    }

    /// The crash-mid-reclaim probe: one worker under the same governor
    /// tuning, killed while reclamation is active, run twice.
    ///
    /// # Panics
    ///
    /// Panics if the crash fails to fire, if either run fails
    /// [`WorkerServer::audit`], or if the two runs differ in lifecycle
    /// trace, memory ledger, or the final live VMA/PD tables — replay
    /// must rebuild the *identical* address space.
    pub fn crash_replay(&self, workload: &Workload) -> RunReport {
        let run = || -> (RunReport, u64, (usize, usize)) {
            let cfg = RuntimeConfig::jord_32()
                .with_seed(self.seed)
                .with_sanitize(true)
                .with_memory(MemoryConfig {
                    // Aggressive reclamation so the crash actually races
                    // pool eviction and table compaction.
                    pool_max_idle: SimDuration::from_us(200),
                    compact_dead_slots: 16,
                    ..self.memory
                })
                .with_crash(CrashConfig::new(
                    CrashPlan::worker_at(self.crash_at_us()),
                    jord_core::CrashSemantics::AtLeastOnce,
                ));
            let mut server =
                WorkerServer::new(cfg, workload.registry.clone()).expect("valid soak crash config");
            let mut gen = LoadGen::new(workload, self.seed).expect("workload mix is sampleable");
            for (t, f, b) in gen.arrivals(self.rate_rps, self.requests) {
                server.push_request(t, f, b);
            }
            let rep = server.run();
            server
                .audit(&rep)
                .unwrap_or_else(|e| panic!("crash-mid-reclaim: {e}"));
            let hash = server.trace_hash();
            let tables = (server.privlib().live_vmas(), server.privlib().live_pds());
            (rep, hash, tables)
        };
        let (rep_a, hash_a, tables_a) = run();
        let (rep_b, hash_b, tables_b) = run();
        assert!(
            rep_a.crash.crashes >= 1,
            "crash-mid-reclaim: the planned crash must fire"
        );
        assert!(
            rep_a.memory.pool_evictions > 0,
            "crash-mid-reclaim: reclamation must be active around the crash"
        );
        assert_eq!(hash_a, hash_b, "crash-mid-reclaim: traces must replay");
        assert_eq!(
            rep_a.memory, rep_b.memory,
            "crash-mid-reclaim: memory ledgers must replay"
        );
        assert_eq!(
            tables_a, tables_b,
            "crash-mid-reclaim: replay must rebuild identical VMA/PD tables"
        );
        rep_a
    }

    /// Folds the window sequence into per-day residency records.
    fn fold(&self, rep: &ClusterReport, windows: &[WindowRecord]) -> SoakReport {
        let day_us = self.span_us() / Self::DAYS as f64;
        let mut days: Vec<SoakDay> = (0..Self::DAYS)
            .map(|day| SoakDay {
                day,
                windows: 0,
                offered: 0,
                shed: 0,
                peak_resident_bytes: 0,
                mean_resident_bytes: 0.0,
                p99_us: None,
            })
            .collect();
        for w in windows {
            let idx = ((w.at.as_us_f64() / day_us) as usize).min(Self::DAYS - 1);
            let d = &mut days[idx];
            d.windows += 1;
            d.offered += w.offered;
            d.shed += w.shed;
            d.peak_resident_bytes = d.peak_resident_bytes.max(w.resident_bytes);
            d.mean_resident_bytes += w.resident_bytes as f64;
            if let Some(p) = w.p99_us {
                d.p99_us = Some(d.p99_us.map_or(p, |q: f64| q.max(p)));
            }
        }
        for d in &mut days {
            if d.windows > 0 {
                d.mean_resident_bytes /= d.windows as f64;
            }
        }
        let peak_resident_bytes = windows.iter().map(|w| w.resident_bytes).max().unwrap_or(0);
        SoakReport {
            days,
            offered: rep.offered,
            completed: rep.completed,
            shed: rep.shed,
            memory: rep.memory,
            peak_workers: rep.autoscale.peak_workers,
            peak_resident_bytes,
            trace_hash: rep.trace_hash,
            p99_us: rep.p99().map_or(0.0, |d| d.as_ns_f64() / 1_000.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::WorkloadKind;
    use jord_core::durability::fnv1a;

    fn quick_soak() -> SoakCampaign {
        // Half-length week: the residency profile is set by the rate
        // (concurrency), not the request count, so the governor sees the
        // same working set while the test costs half the wall-clock.
        SoakCampaign::new(2.0e6, 3_500)
    }

    #[test]
    fn week_of_diurnal_traffic_holds_residency_bounds() {
        let w = Workload::build(WorkloadKind::Hotel);
        let rep = quick_soak().run(&w);
        assert_eq!(rep.days.len(), 7);
        assert!(rep.days.iter().any(|d| d.windows > 0));
        assert!(rep.memory.pool_evictions > 0, "troughs must evict");
        assert!(rep.peak_resident_bytes > 0, "windows must observe memory");
    }

    /// Quarter-week campaign for the cheap probes: same rate (same
    /// working set), fewer arrivals.
    fn tiny_soak() -> SoakCampaign {
        SoakCampaign::new(2.0e6, 1_750)
    }

    #[test]
    fn soak_replays_bit_identically() {
        let w = Workload::build(WorkloadKind::Hotel);
        let c = tiny_soak();
        let (rep_a, win_a) = c.run_cluster(&w);
        let (rep_b, win_b) = c.run_cluster(&w);
        assert_eq!(win_a, win_b);
        assert_eq!(rep_a.trace_hash, rep_b.trace_hash);
        assert_eq!(rep_a.memory, rep_b.memory);
        // The exact week, pinned: a change that moves any simulated value
        // fails here, not only one that breaks determinism.
        assert_eq!(rep_a.trace_hash, 0x2fec7b35bb9b8f08);
        assert_eq!(fnv1a(format!("{win_a:?}").as_bytes()), 0xd40337636073d911);
    }

    #[test]
    fn crash_mid_reclaim_replays_to_identical_tables() {
        let w = Workload::build(WorkloadKind::Hotel);
        let rep = quick_soak().crash_replay(&w);
        assert!(rep.crash.crashes >= 1);
    }

    #[test]
    fn windows_carry_pressure_and_residency() {
        let w = Workload::build(WorkloadKind::Hotel);
        let (_, windows) = tiny_soak().run_cluster(&w);
        assert!(!windows.is_empty());
        assert!(windows.iter().any(|win| win.resident_bytes > 0));
    }

    #[test]
    fn table_lists_every_day() {
        // Formatting needs no simulation; a hand-built report suffices.
        let day = |d| SoakDay {
            day: d,
            windows: 4,
            offered: 100,
            shed: 0,
            peak_resident_bytes: 1 << 20,
            mean_resident_bytes: 1.0e6,
            p99_us: Some(9.5),
        };
        let rep = SoakReport {
            days: (0..7).map(day).collect(),
            offered: 700,
            completed: 700,
            shed: 0,
            memory: Default::default(),
            peak_workers: 2,
            peak_resident_bytes: 1 << 20,
            trace_hash: 0,
            p99_us: 9.5,
        };
        assert_eq!(rep.table().lines().count(), 1 + rep.days.len());
    }
}
