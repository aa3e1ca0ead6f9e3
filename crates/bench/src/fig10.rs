//! **Figure 10** — cumulative distribution of function service time in Jord.
//!
//! The paper's observations this harness reproduces: across the workloads,
//! ~75 % of function service times fall below ~5 µs; Media and Social show
//! long tails, with Social reaching ~75 µs (ComposePost).

use crate::{header, requests_per_point, row};
use jord_core::SystemVariant;
use jord_workloads::{runner::RunSpec, Workload, WorkloadKind};

pub fn main() {
    let n = requests_per_point();
    header("Figure 10: CDF of function service time in Jord (low load)");
    row(&[
        "workload".into(),
        "p25(us)".into(),
        "p50(us)".into(),
        "p75(us)".into(),
        "p90(us)".into(),
        "p99(us)".into(),
        "max(us)".into(),
    ]);

    let mut cdfs = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = Workload::build(kind);
        // Low load: far below each workload's saturation.
        let rate = match kind {
            WorkloadKind::Hipster => 1.0e6,
            WorkloadKind::Hotel => 0.7e6,
            WorkloadKind::Media => 0.3e6,
            WorkloadKind::Social => 0.08e6,
        };
        let rep = RunSpec::new(SystemVariant::Jord, rate)
            .requests(n, n / 10 + 100)
            .run(&w);
        let q = |x: f64| rep.service.quantile(x).unwrap().as_us_f64();
        row(&[
            w.name().into(),
            format!("{:.2}", q(0.25)),
            format!("{:.2}", q(0.50)),
            format!("{:.2}", q(0.75)),
            format!("{:.2}", q(0.90)),
            format!("{:.2}", q(0.99)),
            format!("{:.2}", rep.service.max().unwrap().as_us_f64()),
        ]);
        cdfs.push((kind, rep.service.clone()));
    }

    // Full CDF series (downsampled to ~25 points each), for plotting.
    for (kind, hist) in &cdfs {
        header(&format!(
            "Figure 10 series: {} (service_us, cdf)",
            kind.name()
        ));
        let pts = hist.cdf_points();
        let step = (pts.len() / 25).max(1);
        for (i, (d, f)) in pts.iter().enumerate() {
            if i % step == 0 || i + 1 == pts.len() {
                println!("{:.3}, {:.4}", d.as_us_f64(), f);
            }
        }
    }

    // The paper's two headline checks.
    println!();
    for (kind, hist) in &cdfs {
        let p75 = hist.quantile(0.75).unwrap().as_us_f64();
        println!(
            "check: {} p75 = {p75:.2} us (paper: ~75% of service times below ~5 us)",
            kind.name()
        );
    }
    let social = &cdfs[3].1;
    println!(
        "check: Social tail reaches {:.1} us (paper: ~75 us ComposePost)",
        social.quantile(0.999).unwrap().as_us_f64()
    );
}
