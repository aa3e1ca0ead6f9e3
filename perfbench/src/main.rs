//! Benchmark of the Jord simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <media-1w|fleet-crowd|pool-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run first simulates the workload once at full length; the simulated
//! metrics and every per-layer counter come from that run. Host speed is
//! then sampled for `--seconds` (at least five samples), each sample a
//! shorter run in a fresh child process, so the heap and address-space
//! layout a process happens to get is averaged over instead of measured
//! once. Host metrics are medians over the samples; samples come in pairs
//! on one input, and a pair must simulate bit-identically. With
//! `--trace 1` two more full-length runs follow: one inside spans, one
//! untraced to compare it with. The last line of stdout is one JSON
//! object; `perfbench/README.md` describes every metric.

mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use jord_sim::Rng;
use trace::Tracer;
use workload::{prepare, run, Bench, Prepared, Rep, SimOutcome};

const USAGE: &str = "usage: jord-perfbench --workload <media-1w|fleet-crowd|pool-churn> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";
/// Fewest host-speed samples a run takes, however long they last.
const MIN_SAMPLES: usize = 5;
/// Set-ups each sample times for its `setup_s` (after its run).
const SETUP_SAMPLES: usize = 3;

/// End-to-end metrics: name, unit, and whether it is host or simulated time.
const END_TO_END: [(&str, &str, &str); 8] = [
    ("sim_rps", "1/s", "host"),
    ("setup_s", "s", "host"),
    ("peak_rss_mb", "MB", "host"),
    ("p50_us", "us", "sim"),
    ("p99_us", "us", "sim"),
    ("goodput", "ratio", "sim"),
    ("worker_s", "s", "sim"),
    ("slo_attain", "ratio", "sim"),
];

/// Per-layer metrics, by name and unit. A metric a workload never reaches
/// (the cluster layer on one worker, say) reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.arrivals_s", "s"),
    ("sim.events", "count"),
    ("sim.scheduled", "count"),
    ("sim.cancelled", "count"),
    ("sim.rebucketed", "count"),
    ("sim.overflowed", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("core.new_s", "s"),
    ("core.push_s", "s"),
    ("core.run_s", "s"),
    ("core.seal_s", "s"),
    ("core.step_ns_p50", "ns"),
    ("core.step_ns_p99", "ns"),
    ("core.host_ns_per_invocation", "ns"),
    ("core.invocations", "count"),
    ("core.lifecycle_events", "count"),
    ("core.dispatch_ns_mean", "ns"),
    ("core.service_p50_us", "us"),
    ("core.service_p99_us", "us"),
    ("core.exec_ns_per_req", "ns"),
    ("core.isolation_ns_per_req", "ns"),
    ("core.dispatch_ns_per_req", "ns"),
    ("core.ledger_call_ns", "ns"),
    ("privlib.mmap.count", "count"),
    ("privlib.mmap.mean_ns", "ns"),
    ("privlib.munmap.count", "count"),
    ("privlib.munmap.mean_ns", "ns"),
    ("privlib.mprotect.count", "count"),
    ("privlib.mprotect.mean_ns", "ns"),
    ("privlib.ptransfer.count", "count"),
    ("privlib.ptransfer.mean_ns", "ns"),
    ("privlib.cget.count", "count"),
    ("privlib.cget.mean_ns", "ns"),
    ("privlib.cput.count", "count"),
    ("privlib.cput.mean_ns", "ns"),
    ("privlib.cswitch.count", "count"),
    ("privlib.cswitch.mean_ns", "ns"),
    ("privlib.walk.count", "count"),
    ("privlib.walk.mean_ns", "ns"),
    ("privlib.compact.count", "count"),
    ("privlib.compact.mean_ns", "ns"),
    ("privlib.us_per_req", "us"),
    ("privlib.dead_slots_call_ns", "ns"),
    ("vma.live_vmas", "count"),
    ("vma.dead_slots", "count"),
    ("vma.live_pds", "count"),
    ("hw.ivlb.hits", "count"),
    ("hw.ivlb.misses", "count"),
    ("hw.ivlb.hit_ratio", "ratio"),
    ("hw.dvlb.hits", "count"),
    ("hw.dvlb.misses", "count"),
    ("hw.dvlb.hit_ratio", "ratio"),
    ("hw.vlb.shootdowns", "count"),
    ("hw.shootdown_ns_mean", "ns"),
    ("hw.coherence.llc_fills", "count"),
    ("hw.coherence.forwards", "count"),
    ("hw.coherence.invalidations", "count"),
    ("hw.coherence.dram_fills", "count"),
    ("hw.vtd.registrations", "count"),
    ("hw.vtd.exact_shootdowns", "count"),
    ("hw.vtd.fallback_shootdowns", "count"),
    ("hw.vtd.evictions", "count"),
    ("hw.stats_call_ns", "ns"),
    ("memory.pooled_setups", "count"),
    ("memory.full_setups", "count"),
    ("memory.pool_hit_ratio", "ratio"),
    ("memory.pool_evictions", "count"),
    ("memory.compactions", "count"),
    ("memory.compacted_slots", "count"),
    ("memory.peak_resident_mb", "MB"),
    ("memory.reclaimed_mb", "MB"),
    ("memory.pressure_transitions", "count"),
    ("memory.setup_delta_ns", "ns"),
    ("journal.records", "count"),
    ("journal.checkpoints", "count"),
    ("journal.bytes", "B"),
    ("journal.checkpoint_bytes", "B"),
    ("cluster.new_s", "s"),
    ("cluster.push_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.windows", "count"),
    ("cluster.scale_ups", "count"),
    ("cluster.scale_downs", "count"),
    ("cluster.peak_workers", "count"),
    ("cluster.hedges", "count"),
    ("cluster.hedge_wins", "count"),
    ("cluster.cancelled", "count"),
    ("cluster.heartbeats_sent", "count"),
    ("cluster.suspects", "count"),
    ("cluster.false_suspects", "count"),
    ("cluster.brownout_us", "us"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("trace.self_s.bench", "s"),
    ("trace.self_s.workloads", "s"),
    ("trace.self_s.core", "s"),
    ("trace.self_s.cluster", "s"),
    ("trace.self_s.privlib", "s"),
    ("trace.self_s.hw", "s"),
];

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Child mode: take one host-speed sample and print it.
    sample: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut bench, mut seed, mut seconds) = (None, 42, 10.0);
        let (mut trace, mut sample) = (false, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => bench = Some(Bench::parse(&value).ok_or(bad("unknown workload"))?),
                "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or(bad("expected a positive number"))?;
                }
                "--trace" | "--sample" => {
                    let on = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    };
                    if flag == "--trace" {
                        trace = on;
                    } else {
                        sample = on;
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            bench: bench.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            sample,
        })
    }
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of `values` (sorted in place).
fn quantile(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1] as f64
}

/// The process's peak resident set (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Checks one repetition against the correctness gate.
fn gate(sim: &SimOutcome, reference: &SimOutcome, problems: &mut Vec<String>) {
    if !sim.conserved() {
        problems.push(format!(
            "request ledger: offered {} != completed {} + failed {} + shed {} (lost {})",
            sim.offered, sim.completed, sim.failed, sim.shed, sim.lost
        ));
    }
    if !sim.ledger_balanced {
        problems.push("memory ledger: mapped != resident + reclaimed".into());
    }
    if sim.completed == 0 {
        problems.push("no request completed".into());
    }
    if sim != reference {
        problems.push(format!(
            "repetition diverged from the reference (digest {:016x} vs {:016x})",
            sim.digest(),
            reference.digest()
        ));
    }
}

fn timed_prepare(bench: Bench, seed: u64, requests: usize) -> (Prepared, f64) {
    let t0 = Instant::now();
    let prepared = prepare(bench, seed, requests, &mut Tracer::off());
    (prepared, t0.elapsed().as_secs_f64())
}

/// One host-speed sample, as a child process reports it.
struct Sample {
    setup_s: f64,
    run_s: f64,
    completed: u64,
    digest: u64,
}

/// Child mode: one sample-length run, then a few more set-ups, printed as
/// `sample <setup_s> <run_s> <completed> <digest>`.
fn take_sample(bench: Bench, seed: u64) -> ExitCode {
    let n = bench.sample_requests();
    let (prepared, first_setup) = timed_prepare(bench, seed, n);
    let rep = run(prepared, &mut Tracer::off());
    let mut problems = Vec::new();
    gate(&rep.sim, &rep.sim, &mut problems);
    if !problems.is_empty() {
        eprintln!("sample: {}", problems.join("; "));
        return ExitCode::FAILURE;
    }
    let mut setups = vec![first_setup];
    setups.extend((1..SETUP_SAMPLES).map(|_| timed_prepare(bench, seed, n).1));
    println!(
        "sample {} {} {} {:016x}",
        median(&mut setups),
        rep.run_s,
        rep.sim.completed,
        rep.sim.digest()
    );
    ExitCode::SUCCESS
}

/// Runs one sample in a child process of this same program.
fn spawn_sample(bench: Bench, seed: u64) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            bench.name(),
            "--seed",
            &seed.to_string(),
            "--sample",
            "1",
        ])
        .output()
        .map_err(|e| format!("starting a sample: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<&str> = stdout.split_whitespace().collect();
    match (out.status.success(), fields.as_slice()) {
        (true, ["sample", setup_s, run_s, completed, digest]) => Ok(Sample {
            setup_s: setup_s.parse().map_err(|_| "bad setup_s")?,
            run_s: run_s.parse().map_err(|_| "bad run_s")?,
            completed: completed.parse().map_err(|_| "bad completed")?,
            digest: u64::from_str_radix(digest, 16).map_err(|_| "bad digest")?,
        }),
        _ => Err(format!(
            "sample failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Per-layer metrics of one traced run. `first_run_s` is the process's
/// first (untraced) run of the same length, `later_run_s` an untraced run
/// after the traced one.
fn layer_metrics(
    traced: &Rep,
    tracer: &Tracer,
    reference: &SimOutcome,
    first_run_s: f64,
    later_run_s: f64,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = reference.layers.iter().cloned().collect();
    m.extend(traced.probes.iter().cloned());
    for (metric, span) in [
        ("workloads.build_s", "workloads.build"),
        ("workloads.arrivals_s", "workloads.arrivals"),
        ("core.new_s", "core.new"),
        ("core.push_s", "core.push"),
        ("core.seal_s", "core.seal"),
        ("cluster.new_s", "cluster.new"),
        ("cluster.push_s", "cluster.push"),
        ("cluster.run_s", "cluster.run"),
    ] {
        m.insert(metric.into(), tracer.total_s(span));
    }
    let core_run: f64 = ["core.begin", "core.step", "core.seal"]
        .iter()
        .map(|s| tracer.total_s(s))
        .sum();
    m.insert("core.run_s".into(), core_run);
    let mut steps = tracer.durations_ns("core.step");
    m.insert("core.step_ns_p50".into(), quantile(&mut steps, 0.5));
    m.insert("core.step_ns_p99".into(), quantile(&mut steps, 0.99));
    let per = |key: &str| first_run_s * 1e9 / m.get(key).copied().unwrap_or(0.0).max(1.0);
    let ns_per_event = per("sim.events");
    let ns_per_invocation = per("core.invocations");
    m.insert("sim.host_ns_per_event".into(), ns_per_event);
    m.insert("core.host_ns_per_invocation".into(), ns_per_invocation);
    m.insert("trace.overhead".into(), traced.run_s / later_run_s - 1.0);
    m.insert("trace.spans".into(), tracer.spans().len() as f64);
    for (layer, s) in tracer.self_s_by_layer() {
        m.insert(format!("trace.self_s.{layer}"), s);
    }
    for name in m.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "measured {name}, which PER_LAYER does not list"
        );
    }
    m
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let bench = args.bench;
    if args.sample {
        return take_sample(bench, args.seed);
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {}  seed {}  seconds {}  trace {}  host threads available {threads}",
        bench.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // The full-length run: simulated metrics and per-layer counters.
    let mut problems = Vec::new();
    let full = run(
        prepare(bench, args.seed, bench.requests(), &mut Tracer::off()),
        &mut Tracer::off(),
    );
    let reference = full.sim.clone();
    gate(&reference, &reference, &mut problems);
    let rss = peak_rss_mb();

    // Host-speed samples, each in a fresh process. A short input's work
    // depends on which entry points its few arrivals draw, so samples run
    // different inputs derived from the seed, two samples per input: the
    // median then spans several inputs, and each pair must simulate
    // identically across processes.
    let clock = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    while samples.len() < MIN_SAMPLES || clock.elapsed().as_secs_f64() < args.seconds {
        let input_seed = Rng::derive_seed(args.seed, samples.len() as u64 / 2);
        match spawn_sample(bench, input_seed) {
            Ok(s) => samples.push(s),
            Err(e) => {
                problems.push(e);
                break;
            }
        }
    }
    if samples.chunks_exact(2).any(|p| p[0].digest != p[1].digest) {
        problems.push("two host-speed samples of one input simulated differently".into());
    }
    let (sim_rps, setup_s) = if samples.is_empty() {
        (0.0, 0.0)
    } else {
        (
            median(
                &mut samples
                    .iter()
                    .map(|s| s.completed as f64 / s.run_s)
                    .collect::<Vec<_>>(),
            ),
            median(&mut samples.iter().map(|s| s.setup_s).collect::<Vec<_>>()),
        )
    };
    let e2e_values = [
        sim_rps,
        setup_s,
        rss,
        reference.p50_us,
        reference.p99_us,
        reference.goodput,
        reference.worker_s,
        reference.slo_attain,
    ];

    println!(
        "full run: {} requests in {:.3} s  trace_hash {:016x}  sim_digest {:016x}",
        bench.requests(),
        full.run_s,
        reference.trace_hash,
        reference.digest()
    );
    println!(
        "host samples: {} of {} requests, each in its own process, two per input",
        samples.len(),
        bench.sample_requests(),
    );
    let run_list: Vec<String> = samples.iter().map(|s| format!("{:.3}", s.run_s)).collect();
    println!("host samples run_s: {}", run_list.join(" "));
    println!(
        "requests: offered {}  completed {}  failed {}  shed {}  lost {}  \
         (p50_us and p99_us rest on {} completed requests)",
        reference.offered,
        reference.completed,
        reference.failed,
        reference.shed,
        reference.lost,
        reference.completed
    );
    for ((name, unit, clock), value) in END_TO_END.iter().zip(e2e_values) {
        println!("end_to_end {name:<12} {value:>16.6} {unit:<6} [{clock}]");
    }

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let run_id = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64)
            ^ (args.seed << 32)
            ^ u64::from(std::process::id());
        let mut tracer = Tracer::on(run_id);
        let traced = run(
            prepare(bench, args.seed, bench.requests(), &mut tracer),
            &mut tracer,
        );
        gate(&traced.sim, &reference, &mut problems);
        // A process runs its first simulation faster than later ones (its
        // heap is fresh), so the tracing overhead is taken against an
        // untraced run that also comes after another.
        let again = run(
            prepare(bench, args.seed, bench.requests(), &mut Tracer::off()),
            &mut Tracer::off(),
        );
        gate(&again.sim, &reference, &mut problems);
        let measured = layer_metrics(&traced, &tracer, &reference, full.run_s, again.run_s);
        let dump = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{}.spans.jsonl", bench.name()));
        // The dump is a by-product for inspection; no metric depends on
        // it, so failing to write it does not fail the run.
        match tracer.write_jsonl(&dump) {
            Ok(()) => println!("spans of run {run_id:016x} written to {}", dump.display()),
            Err(e) => eprintln!("warning: writing {}: {e}", dump.display()),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_string(),
                    measured.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e_values)
            .map(|(&(name, unit, _), v)| (name.to_string(), v, unit))
            .collect()
    };
    if args.trace {
        for (name, value, unit) in &metrics {
            println!("per_layer {name:<30} {value:>18.6} {unit}");
        }
    }

    for p in &problems {
        eprintln!("correctness: {p}");
    }
    let correct = problems.is_empty();
    // Attempted operations are simulated requests, across every run.
    let full_runs = if args.trace { 3 } else { 1 };
    let attempted =
        reference.offered * full_runs + (samples.len() * bench.sample_requests()) as u64;
    let failed: u64 = if correct { 0 } else { attempted };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
