//! **Figure 9** — p99 latency vs load for Jord, Jord_NI, and NightCore on
//! all four workloads, plus the throughput-under-SLO summary.
//!
//! SLO = 10× the minimal-load service time on Jord_NI (§5). The paper's
//! headline results this harness reproduces:
//! * Jord within ~16 % of Jord_NI (Media excepted, ~70 %),
//! * over 2× NightCore's throughput under SLO,
//! * NightCore failing the SLO at any load on the communication-heavy
//!   workloads (Hipster, Media).

use crate::{header, requests_per_point, row};
use jord_workloads::{measure_slo, throughput_under_slo, System, Workload, WorkloadKind};

/// Per-workload load grids (MRPS), shaped around each one's capacity.
fn grid(kind: WorkloadKind) -> Vec<f64> {
    match kind {
        WorkloadKind::Hipster => vec![0.5, 2.0, 4.0, 6.0, 8.0, 10.0, 11.0, 12.0, 13.0, 14.0, 16.0],
        WorkloadKind::Hotel => vec![0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        WorkloadKind::Media => vec![0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
        WorkloadKind::Social => vec![0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4],
    }
}

pub fn main() {
    let n = requests_per_point();
    let systems = [System::JordNi, System::Jord, System::NightCore];
    let mut summary: Vec<(WorkloadKind, [f64; 3], f64)> = Vec::new();

    for kind in WorkloadKind::ALL {
        let w = Workload::build(kind);
        let slo = measure_slo(&w, 0.05e6, (n / 4).max(500)).expect("probe produced latencies");
        let slo_us = slo.as_us_f64();
        header(&format!(
            "Figure 9: {} — p99 latency (us) vs load (MRPS); SLO = {slo_us:.1} us",
            w.name()
        ));

        let loads = grid(kind);
        let mut head = vec!["MRPS".to_string()];
        head.extend(systems.iter().map(|s| s.label().to_string()));
        row(&head);

        let rates: Vec<f64> = loads.iter().map(|mrps| mrps * 1e6).collect();
        let curves = systems.map(|sys| {
            throughput_under_slo(sys, &w, &rates, slo, n).expect("sweep produced latencies")
        });
        for (i, &mrps) in loads.iter().enumerate() {
            let mut cells = vec![format!("{mrps:.2}")];
            for (points, _) in &curves {
                cells.push(format!("{:.1}", points[i].p99_us));
            }
            row(&cells);
        }
        let bests = curves.map(|(_, best)| best / 1e6);
        summary.push((kind, bests, slo_us));
    }

    header("Figure 9 summary: throughput under SLO (MRPS)");
    row(&[
        "workload".into(),
        "Jord_NI".into(),
        "Jord".into(),
        "NightCore".into(),
        "Jord/NI".into(),
        "Jord/NC".into(),
        "paper".into(),
    ]);
    let paper = ["Jord 12", "Jord 7", "Jord ~NI*0.7", "Jord 0.9"];
    for (i, (kind, b, _slo)) in summary.iter().enumerate() {
        let ni_ratio = if b[0] > 0.0 { b[1] / b[0] } else { f64::NAN };
        let nc_ratio = if b[2] > 0.0 {
            b[1] / b[2]
        } else {
            f64::INFINITY
        };
        row(&[
            kind.name().into(),
            format!("{:.2}", b[0]),
            format!("{:.2}", b[1]),
            format!("{:.2}", b[2]),
            format!("{:.2}", ni_ratio),
            if nc_ratio.is_finite() {
                format!("{nc_ratio:.1}x")
            } else {
                "inf (NC fails SLO)".into()
            },
            paper[i].into(),
        ]);
    }
}
