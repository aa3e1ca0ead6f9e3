//! Chaos campaign: sweep injected fault rates over the Hotel workload and
//! print the goodput/latency ladder (see README "Chaos testing").
//!
//! ```sh
//! cargo run --release -p jord-bench -- chaos
//! ```

use jord_core::RecoveryPolicy;
use jord_workloads::{ChaosSpec, Workload, WorkloadKind};

pub fn main() {
    let hotel = Workload::build(WorkloadKind::Hotel);
    let report = ChaosSpec::new(0.5e6)
        .rates(vec![1e-4, 1e-3, 1e-2])
        .recovery(RecoveryPolicy {
            max_retries: 2,
            ..RecoveryPolicy::default()
        })
        .run(&hotel);
    println!("{}", report.table());
    assert!(
        report.degrades_gracefully(0.9, 0.1),
        "goodput ladder not graceful: {:?}",
        report.points
    );
    println!("graceful degradation: OK (floor 0.9, cliff tolerance 0.1)");
}
