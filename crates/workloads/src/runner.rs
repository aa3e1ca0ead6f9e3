//! One-call experiment drivers.
//!
//! Every figure harness boils down to: build a server for a (system,
//! machine, workload) triple, inject an open-loop Poisson load, run, and
//! read the report. [`RunSpec`] is that recipe as a value.

use jord_core::{RunReport, RuntimeConfig, SystemVariant, WorkerServer};
use jord_hw::MachineConfig;

use crate::apps::Workload;
use crate::loadgen::LoadGen;

/// One measured point of a load sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Offered load in requests/second.
    pub rate_rps: f64,
    /// Measured p99 request latency in µs.
    pub p99_us: f64,
    /// Measured mean request latency in µs.
    pub mean_us: f64,
}

/// A complete experiment recipe.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// System under test.
    pub system: SystemVariant,
    /// Hardware configuration.
    pub machine: MachineConfig,
    /// Offered load, requests/second.
    pub rate_rps: f64,
    /// Measured requests (after warm-up).
    pub requests: usize,
    /// Warm-up requests discarded from measurement.
    pub warmup: usize,
    /// Seed for both the load generator and the server.
    pub seed: u64,
    /// Orchestrator-count override (Figure 14 uses 1).
    pub orchestrators: Option<usize>,
}

impl RunSpec {
    /// A default-quality recipe: Table 2 machine, 20 k measured requests,
    /// 2 k warm-up.
    pub fn new(system: SystemVariant, rate_rps: f64) -> Self {
        RunSpec {
            system,
            machine: MachineConfig::isca25(),
            rate_rps,
            requests: 20_000,
            warmup: 2_000,
            seed: 42,
            orchestrators: None,
        }
    }

    /// Overrides the machine.
    pub fn on(mut self, machine: MachineConfig) -> Self {
        self.machine = machine;
        self
    }

    /// Overrides the request counts.
    pub fn requests(mut self, measured: usize, warmup: usize) -> Self {
        self.requests = measured;
        self.warmup = warmup;
        self
    }

    /// Overrides the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the orchestrator count.
    pub fn orchestrators(mut self, n: usize) -> Self {
        self.orchestrators = Some(n);
        self
    }

    /// Executes the recipe on `workload`.
    pub fn run(&self, workload: &Workload) -> RunReport {
        run_spec(self, workload)
    }
}

/// Executes a [`RunSpec`] (free-function form).
pub fn run_spec(spec: &RunSpec, workload: &Workload) -> RunReport {
    let mut gen = LoadGen::new(workload, spec.seed).expect("workload mix is sampleable");
    let arrivals = gen.arrivals(spec.rate_rps, spec.requests + spec.warmup);
    let mut cfg = RuntimeConfig::variant_on(spec.system, spec.machine.clone()).with_seed(spec.seed);
    if let Some(n) = spec.orchestrators {
        cfg = cfg.with_orchestrators(n);
    }
    let mut server = WorkerServer::new(cfg, workload.registry.clone()).expect("valid config");
    server.set_warmup(spec.warmup as u64);
    for (t, f, b) in arrivals {
        server.push_request(t, f, b);
    }
    server.run()
}

/// Convenience wrapper: run `system` on `workload` at `rate_rps` with the
/// default recipe and return the report.
pub fn run_system(system: SystemVariant, workload: &Workload, rate_rps: f64) -> RunReport {
    RunSpec::new(system, rate_rps).run(workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::WorkloadKind;

    #[test]
    fn all_systems_run_the_hotel_workload() {
        let w = Workload::build(WorkloadKind::Hotel);
        for sys in SystemVariant::ALL {
            let rep = RunSpec::new(sys, 0.2e6).requests(500, 50).run(&w);
            assert_eq!(rep.completed, 500, "{} completes", sys.label());
            assert!(rep.p99().is_some());
        }
    }

    #[test]
    fn warmup_requests_are_excluded() {
        let w = Workload::build(WorkloadKind::Hipster);
        let rep = RunSpec::new(SystemVariant::Jord, 0.2e6)
            .requests(300, 100)
            .run(&w);
        assert_eq!(rep.completed, 300);
        assert_eq!(rep.offered, 300, "offered counts measured requests only");
    }

    #[test]
    fn runs_are_reproducible() {
        let w = Workload::build(WorkloadKind::Hotel);
        let a = RunSpec::new(SystemVariant::Jord, 0.5e6)
            .requests(400, 50)
            .run(&w);
        let b = RunSpec::new(SystemVariant::Jord, 0.5e6)
            .requests(400, 50)
            .run(&w);
        assert_eq!(a.p99(), b.p99());
        assert_eq!(a.finished_at, b.finished_at);
    }
}
