//! The three benchmark workloads.
//!
//! [`prepare`] builds everything from scratch (app, arrivals, server or
//! cluster, the `push_request` loop); [`run`] runs the simulation to the
//! end and reads the outcome. The seed given on the command line only
//! shapes the arrival schedule;
//! the simulated machine keeps its own fixed seed, so the program under
//! test receives nothing but the generated arrivals.

use std::hint::black_box;
use std::time::{Duration, Instant};

use jord_core::{
    ClusterConfig, ClusterDispatcher, ClusterReport, CrashConfig, EngineConfig, FunctionId,
    HedgeConfig, MemoryLedger, RecoveryPolicy, RunReport, RuntimeConfig, SystemVariant,
    WorkerServer,
};
use jord_hw::MachineConfig;
use jord_privlib::OpKind;
use jord_sim::{LatencyHistogram, OnlineStats, QueueProbe, SimTime};
use jord_workloads::{AutoscaleCampaign, LoadGen, SoakCampaign, Workload, WorkloadKind};

use crate::trace::Tracer;

/// Seed of the simulated machine and runtime (not of the arrivals).
const MODEL_SEED: u64 = 42;
/// Base rate of the fleet's arrivals, requests per second (the flash crowd
/// multiplies it by 4).
const FLEET_RATE_RPS: f64 = 4.0e6;
/// Host time each probe of an end-of-run query runs for, at least.
const PROBE_BUDGET: Duration = Duration::from_millis(20);
/// Calls between two clock reads of a probe.
const PROBE_BATCH: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// One Jord worker, Media, Poisson arrivals just below the SLO knee.
    Media1w,
    /// An autoscaled, hedged Hotel fleet under a x4 flash crowd, on the
    /// two-thread parallel engine.
    FleetCrowd,
    /// One Jord worker, Hipster, diurnal arrivals, sanitized PD pools, the
    /// memory governor and the journal all on.
    PoolChurn,
}

impl Bench {
    pub const ALL: [Bench; 3] = [Bench::Media1w, Bench::FleetCrowd, Bench::PoolChurn];

    pub fn name(self) -> &'static str {
        match self {
            Bench::Media1w => "media-1w",
            Bench::FleetCrowd => "fleet-crowd",
            Bench::PoolChurn => "pool-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Simulated requests of the run the simulated metrics come from:
    /// enough that p99 has ten requests beyond it.
    pub fn requests(self) -> usize {
        match self {
            Bench::Media1w => 1_000,
            Bench::FleetCrowd => 2_000,
            Bench::PoolChurn => 1_000,
        }
    }

    /// Simulated requests of one host-speed sample: short, so a run takes
    /// many samples, each in a fresh process.
    pub fn sample_requests(self) -> usize {
        match self {
            Bench::Media1w => 250,
            Bench::FleetCrowd => 500,
            Bench::PoolChurn => 300,
        }
    }
}

/// What the simulation computed in one repetition. Identical on every
/// repetition of one seed; a speed-up of the simulator must keep it so.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    pub offered: u64,
    pub completed: u64,
    pub failed: u64,
    pub shed: u64,
    /// Requests with no terminal outcome (must be 0).
    pub lost: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub goodput: f64,
    pub worker_s: f64,
    pub slo_attain: f64,
    pub trace_hash: u64,
    /// `mapped == resident + reclaimed` held at seal.
    pub ledger_balanced: bool,
    /// Simulated per-layer counters, by metric name.
    pub layers: Vec<(String, f64)>,
}

impl SimOutcome {
    /// Whether the request ledger balances with nothing lost.
    pub fn conserved(&self) -> bool {
        self.lost == 0 && self.offered == self.completed + self.failed + self.shed
    }

    /// FNV-1a over every simulated value: equal digests mean the two runs
    /// simulated the same thing, bit for bit.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        };
        for v in [
            self.offered,
            self.completed,
            self.failed,
            self.shed,
            self.lost,
            self.trace_hash,
        ] {
            eat(&v.to_le_bytes());
        }
        for v in [
            self.p50_us,
            self.p99_us,
            self.goodput,
            self.worker_s,
            self.slo_attain,
        ] {
            eat(&v.to_bits().to_le_bytes());
        }
        for (name, v) in &self.layers {
            eat(name.as_bytes());
            eat(&v.to_bits().to_le_bytes());
        }
        h
    }
}

/// A workload set up and ready to run: the server or cluster with every
/// arrival pushed.
pub enum Prepared {
    Worker(Box<WorkerServer>),
    Fleet(Box<ClusterDispatcher>),
}

/// One timed run phase.
pub struct Rep {
    /// Stepping to the end and sealing, seconds.
    pub run_s: f64,
    pub sim: SimOutcome,
    /// Host ns per call of the end-of-run queries (traced runs of
    /// single-worker workloads only).
    pub probes: Vec<(String, f64)>,
}

/// Sets `bench` up on `requests` arrivals drawn from `seed`: app build,
/// arrival generation, server or cluster construction and the
/// `push_request` loop.
pub fn prepare(bench: Bench, seed: u64, requests: usize, tr: &mut Tracer) -> Prepared {
    tr.span("bench.setup", |tr| match bench {
        Bench::Media1w => {
            let cfg = RuntimeConfig::variant_on(SystemVariant::Jord, MachineConfig::isca25());
            let arrivals = |w: &Workload| {
                let mut gen = LoadGen::new(w, seed).expect("workload mix is sampleable");
                gen.arrivals(1.2e6, requests)
            };
            prepare_worker(WorkloadKind::Media, cfg, arrivals, tr)
        }
        Bench::PoolChurn => {
            let rate = 4.0e6;
            let soak = SoakCampaign::new(rate, requests);
            let cfg = RuntimeConfig::variant_on(SystemVariant::Jord, MachineConfig::isca25())
                .with_sanitize(true)
                .with_memory(soak.memory)
                .with_crash(CrashConfig::journal_only());
            let arrivals = |w: &Workload| {
                let mut gen = LoadGen::new(w, seed).expect("workload mix is sampleable");
                gen.arrivals_with(&soak.arrival(), rate, requests)
            };
            prepare_worker(WorkloadKind::Hipster, cfg, arrivals, tr)
        }
        Bench::FleetCrowd => prepare_fleet(requests, seed, tr),
    })
}

/// Runs a prepared workload to the end and reads its outcome.
pub fn run(prepared: Prepared, tr: &mut Tracer) -> Rep {
    match prepared {
        Prepared::Worker(server) => run_worker(*server, tr),
        Prepared::Fleet(cluster) => run_fleet(*cluster, tr),
    }
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// The `q`-quantile of `h` in µs, interpolated linearly along the
/// histogram's CDF between bucket edges. The bucket edge alone would read
/// the same value for most seeds; the interpolation moves with the counts.
fn quantile_us(h: &LatencyHistogram, q: f64) -> f64 {
    let Some(min) = h.min() else {
        return 0.0;
    };
    let (mut lo, mut lo_frac) = (min.as_us_f64(), 0.0);
    for (upper, frac) in h.cdf_points() {
        let hi = upper.as_us_f64();
        if frac >= q {
            return lo + (hi - lo) * (q - lo_frac) / (frac - lo_frac);
        }
        (lo, lo_frac) = (hi, frac);
    }
    lo
}

/// Host ns per call of `call`, timed over batches until at least
/// [`PROBE_BUDGET`] has passed.
fn ns_per_call<R>(tr: &mut Tracer, name: &'static str, mut call: impl FnMut() -> R) -> f64 {
    tr.span(name, |_| {
        let t0 = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || t0.elapsed() < PROBE_BUDGET {
            for _ in 0..PROBE_BATCH {
                black_box(call());
            }
            calls += PROBE_BATCH;
        }
        t0.elapsed().as_nanos() as f64 / f64::from(calls)
    })
}

type Arrivals = Vec<(SimTime, FunctionId, u64)>;

fn prepare_worker(
    kind: WorkloadKind,
    cfg: RuntimeConfig,
    arrivals: impl FnOnce(&Workload) -> Arrivals,
    tr: &mut Tracer,
) -> Prepared {
    let workload = tr.span("workloads.build", |_| Workload::build(kind));
    let arrivals = tr.span("workloads.arrivals", |_| arrivals(&workload));
    let cfg = cfg.with_seed(MODEL_SEED);
    let mut server = tr.span("core.new", |_| {
        WorkerServer::new(cfg, workload.registry.clone()).expect("valid worker config")
    });
    tr.span("core.push", |_| {
        for (t, f, b) in arrivals {
            server.push_request(t, f, b);
        }
    });
    Prepared::Worker(Box::new(server))
}

fn prepare_fleet(requests: usize, seed: u64, tr: &mut Tracer) -> Prepared {
    let workload = tr.span("workloads.build", |_| Workload::build(WorkloadKind::Hotel));
    let campaign = AutoscaleCampaign::new(FLEET_RATE_RPS, requests);
    let arrivals = tr.span("workloads.arrivals", |_| {
        let mut gen = LoadGen::new(&workload, seed).expect("workload mix is sampleable");
        gen.arrivals_with(&campaign.crowd, campaign.rate_rps, requests)
    });
    let template = RuntimeConfig::variant_on(campaign.variant, campaign.machine.clone())
        .with_seed(MODEL_SEED)
        .with_recovery(RecoveryPolicy {
            shed_bound: Some(campaign.shed_bound),
            ..RecoveryPolicy::default()
        });
    let mut cfg = ClusterConfig::new(campaign.workers, MODEL_SEED, template);
    cfg.autoscale = Some(campaign.autoscale);
    cfg.hedge = Some(HedgeConfig { after_us: 10.0 });
    cfg.engine = Some(EngineConfig::threads(2));
    let mut cluster = tr.span("cluster.new", |_| {
        ClusterDispatcher::new(cfg, workload.registry.clone()).expect("valid cluster config")
    });
    tr.span("cluster.push", |_| {
        for (t, f, b) in arrivals {
            cluster.push_request(t, f, b);
        }
    });
    Prepared::Fleet(Box::new(cluster))
}

fn run_worker(mut server: WorkerServer, tr: &mut Tracer) -> Rep {
    let t0 = Instant::now();
    let report = tr.span("bench.run", |tr| {
        if tr.enabled() {
            tr.span("core.begin", |_| server.begin());
            while tr.span("core.step", |_| server.step()) {}
            tr.span("core.seal", |_| server.seal())
        } else {
            server.run()
        }
    });
    let run_s = secs(t0);

    let mut probes = Vec::new();
    if tr.enabled() {
        let p = server.privlib();
        probes.push((
            "privlib.dead_slots_call_ns".to_string(),
            ns_per_call(tr, "privlib.dead_slots", || p.dead_slots()),
        ));
        let m = server.machine();
        probes.push((
            "hw.stats_call_ns".to_string(),
            ns_per_call(tr, "hw.stats", || m.stats()),
        ));
        probes.push((
            "core.ledger_call_ns".to_string(),
            ns_per_call(tr, "core.memory_ledger", || server.memory_ledger()),
        ));
    }

    let failed = report.faults.failed;
    let shed = report.faults.sheds;
    let unsettled = report
        .offered
        .saturating_sub(report.completed + failed + shed);
    let mut layers = Vec::new();
    report_layers(&[&report], report.completed, &report.memory, &mut layers);
    worker_layers(&server, report.completed, &mut layers);
    let sim = SimOutcome {
        offered: report.offered,
        completed: report.completed,
        failed,
        shed,
        lost: unsettled + (server.live_requests() + server.live_invocations()) as u64,
        p50_us: quantile_us(&report.latency, 0.5),
        p99_us: quantile_us(&report.latency, 0.99),
        goodput: report.goodput(),
        // One worker, up for the whole simulated run.
        worker_s: report.finished_at.as_us_f64() / 1e6,
        slo_attain: report.autoscale.slo_attainment(),
        trace_hash: server.trace_hash(),
        ledger_balanced: report.memory.balanced() && server.memory_ledger().balanced(),
        layers,
    };
    Rep { run_s, sim, probes }
}

fn run_fleet(mut cluster: ClusterDispatcher, tr: &mut Tracer) -> Rep {
    let t0 = Instant::now();
    let rep = tr.span("bench.run", |tr| tr.span("cluster.run", |_| cluster.run()));
    let run_s = secs(t0);

    let unsettled = rep
        .offered
        .saturating_sub(rep.completed + rep.failed + rep.shed);
    let mut layers = Vec::new();
    let workers: Vec<&RunReport> = rep.workers.iter().collect();
    report_layers(&workers, rep.completed, &rep.memory, &mut layers);
    fleet_layers(&rep, &mut layers);
    let sim = SimOutcome {
        offered: rep.offered,
        completed: rep.completed,
        failed: rep.failed,
        shed: rep.shed,
        lost: unsettled + rep.failover.lost,
        p50_us: quantile_us(&rep.latency, 0.5),
        p99_us: quantile_us(&rep.latency, 0.99),
        goodput: rep.goodput(),
        worker_s: rep.autoscale.worker_seconds,
        slo_attain: rep.autoscale.slo_attainment(),
        trace_hash: rep.trace_hash,
        ledger_balanced: rep.memory.balanced() && rep.workers.iter().all(|w| w.memory.balanced()),
        layers,
    };
    Rep {
        run_s,
        sim,
        probes: Vec::new(),
    }
}

fn put(out: &mut Vec<(String, f64)>, name: &str, value: f64) {
    out.push((name.to_string(), value));
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn queue_layers(p: &QueueProbe, out: &mut Vec<(String, f64)>) {
    put(out, "sim.events", p.popped as f64);
    put(out, "sim.scheduled", p.scheduled as f64);
    put(out, "sim.cancelled", p.cancelled as f64);
    put(out, "sim.rebucketed", p.rebucketed as f64);
    put(out, "sim.overflowed", p.overflowed as f64);
}

/// Counters every workload's run reports carry: executor, memory governor
/// and journal. `reports` holds one report per worker.
fn report_layers(
    reports: &[&RunReport],
    completed: u64,
    memory: &MemoryLedger,
    out: &mut Vec<(String, f64)>,
) {
    let mut dispatch = OnlineStats::new();
    let mut shootdown = OnlineStats::new();
    let mut service = LatencyHistogram::new();
    // Integer picoseconds: summing f64s over a HashMap's varying order
    // would not repeat bit for bit.
    let (mut exec_ps, mut iso_ps, mut disp_ps) = (0u64, 0u64, 0u64);
    let (mut invocations, mut pooled, mut full, mut delta_ns) = (0, 0, 0, 0.0);
    let (mut records, mut checkpoints) = (0, 0);
    for r in reports {
        dispatch.merge(&r.dispatch_ns);
        shootdown.merge(&r.shootdown_ns);
        service.merge(&r.service);
        for f in r.functions.values() {
            exec_ps += f.exec.as_ps();
            iso_ps += f.isolation.as_ps();
            disp_ps += f.dispatch.as_ps();
        }
        invocations += r.invocations;
        pooled += r.sanitize.pooled_setups;
        full += r.sanitize.full_setups;
        delta_ns += r.sanitize.setup_delta_ns() * r.sanitize.pooled_setups as f64;
        records += r.crash.journal_records;
        checkpoints += r.crash.checkpoints;
    }
    let per_req = |ps: u64| ps as f64 / 1e3 / completed.max(1) as f64;
    put(out, "core.invocations", invocations as f64);
    put(out, "core.dispatch_ns_mean", dispatch.mean().unwrap_or(0.0));
    put(out, "core.service_p50_us", quantile_us(&service, 0.5));
    put(out, "core.service_p99_us", quantile_us(&service, 0.99));
    put(out, "core.exec_ns_per_req", per_req(exec_ps));
    put(out, "core.isolation_ns_per_req", per_req(iso_ps));
    put(out, "core.dispatch_ns_per_req", per_req(disp_ps));
    put(out, "hw.shootdown_ns_mean", shootdown.mean().unwrap_or(0.0));

    const MIB: f64 = (1u64 << 20) as f64;
    put(out, "memory.pooled_setups", pooled as f64);
    put(out, "memory.full_setups", full as f64);
    put(out, "memory.pool_hit_ratio", ratio(pooled, pooled + full));
    put(out, "memory.pool_evictions", memory.pool_evictions as f64);
    put(out, "memory.compactions", memory.compactions as f64);
    put(out, "memory.compacted_slots", memory.compacted_slots as f64);
    put(
        out,
        "memory.peak_resident_mb",
        memory.peak_resident_bytes as f64 / MIB,
    );
    put(
        out,
        "memory.reclaimed_mb",
        memory.reclaimed_bytes as f64 / MIB,
    );
    put(
        out,
        "memory.pressure_transitions",
        memory.pressure_transitions as f64,
    );
    // Pooled-setup-weighted mean over workers.
    put(
        out,
        "memory.setup_delta_ns",
        if pooled == 0 {
            0.0
        } else {
            delta_ns / pooled as f64
        },
    );

    put(out, "journal.records", records as f64);
    put(out, "journal.checkpoints", checkpoints as f64);
    put(out, "journal.bytes", memory.journal_bytes as f64);
    put(
        out,
        "journal.checkpoint_bytes",
        memory.checkpoint_bytes as f64,
    );
}

/// Counters only a single worker exposes: its queue, PrivLib, VMA table
/// and machine.
fn worker_layers(server: &WorkerServer, completed: u64, out: &mut Vec<(String, f64)>) {
    queue_layers(&server.queue_probe(), out);
    put(out, "core.lifecycle_events", server.trace_len() as f64);

    let p = server.privlib();
    let stats = p.stats();
    let mut total_ns = 0.0;
    for op in OpKind::ALL {
        let name = op_name(op);
        put(
            out,
            &format!("privlib.{name}.count"),
            stats.count(op) as f64,
        );
        put(
            out,
            &format!("privlib.{name}.mean_ns"),
            stats.mean_ns(op).unwrap_or(0.0),
        );
        total_ns += stats.time(op).as_ns_f64();
    }
    put(
        out,
        "privlib.us_per_req",
        total_ns / 1e3 / completed.max(1) as f64,
    );

    put(out, "vma.live_vmas", p.live_vmas() as f64);
    put(out, "vma.dead_slots", p.dead_slots() as f64);
    put(out, "vma.live_pds", p.live_pds() as f64);

    let hw = server.machine().stats();
    put(out, "hw.ivlb.hits", hw.ivlb.hits as f64);
    put(out, "hw.ivlb.misses", hw.ivlb.misses as f64);
    put(
        out,
        "hw.ivlb.hit_ratio",
        ratio(hw.ivlb.hits, hw.ivlb.hits + hw.ivlb.misses),
    );
    put(out, "hw.dvlb.hits", hw.dvlb.hits as f64);
    put(out, "hw.dvlb.misses", hw.dvlb.misses as f64);
    put(
        out,
        "hw.dvlb.hit_ratio",
        ratio(hw.dvlb.hits, hw.dvlb.hits + hw.dvlb.misses),
    );
    put(
        out,
        "hw.vlb.shootdowns",
        (hw.ivlb.shootdowns + hw.dvlb.shootdowns) as f64,
    );
    put(out, "hw.coherence.llc_fills", hw.coherence.llc_fills as f64);
    put(out, "hw.coherence.forwards", hw.coherence.forwards as f64);
    put(
        out,
        "hw.coherence.invalidations",
        hw.coherence.invalidations as f64,
    );
    put(
        out,
        "hw.coherence.dram_fills",
        hw.coherence.dram_fills as f64,
    );
    put(out, "hw.vtd.registrations", hw.vtd.registrations as f64);
    put(
        out,
        "hw.vtd.exact_shootdowns",
        hw.vtd.exact_shootdowns as f64,
    );
    put(
        out,
        "hw.vtd.fallback_shootdowns",
        hw.vtd.fallback_shootdowns as f64,
    );
    put(out, "hw.vtd.evictions", hw.vtd.evictions as f64);
}

/// Counters of the cluster layer.
fn fleet_layers(rep: &ClusterReport, out: &mut Vec<(String, f64)>) {
    queue_layers(&rep.probe, out);
    let a = &rep.autoscale;
    let f = &rep.failover;
    put(out, "cluster.windows", rep.windows.len() as f64);
    put(out, "cluster.scale_ups", a.scale_ups as f64);
    put(out, "cluster.scale_downs", a.scale_downs as f64);
    put(out, "cluster.peak_workers", a.peak_workers as f64);
    put(out, "cluster.hedges", f.hedges as f64);
    put(out, "cluster.hedge_wins", f.hedge_wins as f64);
    put(out, "cluster.cancelled", f.cancelled as f64);
    put(out, "cluster.heartbeats_sent", f.heartbeats_sent as f64);
    put(out, "cluster.suspects", f.suspects as f64);
    put(out, "cluster.false_suspects", f.false_suspects as f64);
    put(out, "cluster.brownout_us", a.brownout_ns() / 1e3);
}

fn op_name(op: OpKind) -> &'static str {
    match op {
        OpKind::Mmap => "mmap",
        OpKind::Munmap => "munmap",
        OpKind::Mprotect => "mprotect",
        OpKind::Ptransfer => "ptransfer",
        OpKind::Cget => "cget",
        OpKind::Cput => "cput",
        OpKind::Cswitch => "cswitch",
        OpKind::Walk => "walk",
        OpKind::Compact => "compact",
    }
}
