//! # jord-bench — one binary for every table, figure, campaign and demo
//!
//! Runs each program named on its command line, in the order given:
//!
//! ```sh
//! cargo run --release -p jord-bench -- table4 fig9 fig10 fig11 fig12 fig13 fig14 ablations
//! ```
//!
//! | Name | Program |
//! |---|---|
//! | `table4` | Table 4 — VMA/PD operation latencies (simulator + FPGA models) |
//! | `fig9` | Figure 9 — p99 latency vs load, Jord/Jord_NI/NightCore, 4 workloads |
//! | `fig10` | Figure 10 — CDF of function service time |
//! | `fig11` | Figure 11 — service-time breakdown for the 8 selected functions |
//! | `fig12` | Figure 12 — I-VLB/D-VLB entry-count sensitivity |
//! | `fig13` | Figure 13 — Jord_BT vs Jord (plus the §6.2 PrivLib time comparison) |
//! | `fig14` | Figure 14 — service/shootdown/dispatch latencies vs system scale |
//! | `ablations` | Orchestrator-count, JBSQ-bound and scan-MLP sweeps (beyond the paper) |
//! | `host-vma` | Wall-clock host microbenchmarks of the table data structures |
//! | `chaos` | Fault-rate ladder with a graceful-degradation check |
//! | `storage` | Storage-fault recovery ladder; writes `BENCH_durability.json` |
//! | `autoscale` | ×4 flash crowd against the autoscaler, with a replay check |
//! | `soak` | A week of diurnal traffic against the memory governor; writes `BENCH_memory.json` |
//! | `crash` | Executor, orchestrator and whole-worker crashes recovered from the journal |
//! | `failover` | One of four cluster workers killed mid-run |
//! | `quickstart` | Two functions on one Jord worker server |
//! | `isolation` | PDs, permission transfers, faults and VLB shootdowns through PrivLib |
//! | `scale-out` | 16 cores to two sockets, one orchestrator vs per-socket groups |
//! | `engine` | Event-queue microbenches and determinism gates; writes `BENCH_engine.json` |
//!
//! Each paper harness prints the same rows/series the paper reports, next to the
//! paper's own numbers where the paper states them. Absolute values are not
//! expected to match a cycle-accurate simulator of different software — the
//! *shape* (who wins, by what factor, where crossovers fall) is the
//! reproduction target. `EXPERIMENTS.md` records paper-vs-measured for every
//! artifact.
//!
//! Runs are sized for a small machine; set `JORD_BENCH_REQUESTS` to a
//! positive integer to raise or lower the per-point request count (default
//! 5000).
//!
//! With no name, an unknown name or a malformed `JORD_BENCH_REQUESTS`, the
//! binary runs nothing and exits 2. A failing program ends the run: an
//! error exits 1, a failed check panics (exit 101).

mod ablations;
mod autoscale;
mod chaos;
mod crash;
mod engine;
mod engine_bench;
mod failover;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig9;
mod host_vma;
mod isolation;
mod quickstart;
mod scale_out;
mod soak;
mod storage;
mod table4;

use std::process::{ExitCode, Termination};

/// A program's entry point.
type Program = fn() -> ExitCode;

/// Every program, by the name that runs it.
const PROGRAMS: [(&str, Program); 19] = [
    ("table4", || exit_code(table4::main)),
    ("fig9", || exit_code(fig9::main)),
    ("fig10", || exit_code(fig10::main)),
    ("fig11", || exit_code(fig11::main)),
    ("fig12", || exit_code(fig12::main)),
    ("fig13", || exit_code(fig13::main)),
    ("fig14", || exit_code(fig14::main)),
    ("ablations", || exit_code(ablations::main)),
    ("host-vma", || exit_code(host_vma::main)),
    ("chaos", || exit_code(chaos::main)),
    ("storage", || exit_code(storage::main)),
    ("autoscale", || exit_code(autoscale::main)),
    ("soak", || exit_code(soak::main)),
    ("crash", || exit_code(crash::main)),
    ("failover", || exit_code(failover::main)),
    ("quickstart", || exit_code(quickstart::main)),
    ("isolation", || exit_code(isolation::main)),
    ("scale-out", || exit_code(scale_out::main)),
    ("engine", || exit_code(engine_bench::main)),
];

/// Runs a program's `main` and turns what it returns into an exit code,
/// as `std` does for a binary's own `main`: an `Err` prints and exits 1.
fn exit_code<T: Termination>(main: fn() -> T) -> ExitCode {
    main().report()
}

/// The variable that sets the per-point request count.
const REQUESTS_VAR: &str = "JORD_BENCH_REQUESTS";

/// Parses a `JORD_BENCH_REQUESTS` value: unset means 5000, and anything
/// but a positive integer is an error naming the variable and the value.
fn parse_requests(value: Option<&str>) -> Result<usize, String> {
    let Some(value) = value else {
        return Ok(5_000);
    };
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "{REQUESTS_VAR}={value:?} is not a positive integer"
        )),
    }
}

fn requests_from_env() -> Result<usize, String> {
    let value = std::env::var_os(REQUESTS_VAR).map(|v| v.to_string_lossy().into_owned());
    parse_requests(value.as_deref())
}

/// Per-point measured request count (override with `JORD_BENCH_REQUESTS`).
pub fn requests_per_point() -> usize {
    requests_from_env().expect("main checks JORD_BENCH_REQUESTS before any program runs")
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Prints one aligned row.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" "));
}

/// Looks up every name before any program runs, so that a typo fails the
/// whole call instead of running the names before it.
fn resolve(names: &[String]) -> Result<Vec<Program>, String> {
    if names.is_empty() {
        return Err("no program named".into());
    }
    names
        .iter()
        .map(|name| {
            PROGRAMS
                .iter()
                .find(|(known, _)| known == name)
                .map(|&(_, run)| run)
                .ok_or_else(|| format!("unknown program {name:?}"))
        })
        .collect()
}

/// Runs `programs` in order and stops at the first that fails, with its
/// exit code.
fn run_all(programs: &[Program]) -> ExitCode {
    for run in programs {
        let code = run();
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    let programs = match resolve(&names) {
        Ok(programs) => programs,
        Err(e) => {
            let known: Vec<&str> = PROGRAMS.iter().map(|&(name, _)| name).collect();
            eprintln!(
                "jord-bench: {e}\nusage: jord-bench <name>...\nnames: {}",
                known.join(" ")
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = requests_from_env() {
        eprintln!("jord-bench: {e}");
        return ExitCode::from(2);
    }
    run_all(&programs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_unique_and_resolves() {
        let names: Vec<String> = PROGRAMS.iter().map(|&(n, _)| n.to_string()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 19, "19 distinct names");
        assert_eq!(resolve(&names).map(|p| p.len()), Ok(19));
    }

    #[test]
    fn a_missing_or_unknown_name_resolves_to_nothing() {
        assert!(resolve(&[]).is_err());
        for typo in ["fig15", "host_vma", "Fig9", ""] {
            let names = ["fig9".to_string(), typo.to_string()];
            assert!(resolve(&names).is_err(), "{typo:?} must not resolve");
        }
    }

    #[test]
    fn requests_must_be_a_positive_integer() {
        assert_eq!(parse_requests(None), Ok(5_000));
        assert_eq!(parse_requests(Some("500")), Ok(500));
        for bad in ["0", "", "-1", "abc"] {
            let err = parse_requests(Some(bad)).expect_err(bad);
            assert!(
                err.contains(REQUESTS_VAR) && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn a_failing_program_ends_the_run_with_its_exit_code() {
        let programs: [Program; 3] = [
            || ExitCode::SUCCESS,
            // What `isolation` returns when PrivLib refuses an operation.
            || exit_code(|| Err::<(), Box<dyn std::error::Error>>("refused".into())),
            || unreachable!("the run stops at the first failure"),
        ];
        assert_eq!(run_all(&programs), ExitCode::FAILURE);
        assert_eq!(run_all(&programs[..1]), ExitCode::SUCCESS);
    }
}
