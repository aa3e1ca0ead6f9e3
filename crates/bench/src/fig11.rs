//! **Figure 11** — service-time breakdown for the eight selected functions
//! (Table 3): execution vs isolation vs dispatch for Jord, execution vs
//! pipe overhead for NightCore.
//!
//! Paper observations reproduced here: Jord averages ~48 % less service
//! time than NightCore; except for ReadPage (>100 nested calls), Jord's
//! dispatch + isolation overheads are a small slice (~11 %) of service
//! time; NightCore's overhead exceeds its execution time in most cases,
//! reaching ~3× for RP. Also prints §6.2's per-request overhead numbers
//! (~360 ns/request; 8 %/4 %/3 %/~30 % of service time).

use crate::{header, requests_per_point, row};
use jord_workloads::{runner::RunSpec, System, Workload, WorkloadKind};

pub fn main() {
    let n = requests_per_point();
    header("Figure 11: service-time breakdown of selected functions (us)");
    row(&[
        "fn".into(),
        "J.exec".into(),
        "J.isol".into(),
        "J.disp".into(),
        "J.service".into(),
        "NC.exec".into(),
        "NC.pipe".into(),
        "NC.service".into(),
        "J/NC".into(),
    ]);

    // Low-to-moderate load per workload.
    let rates = [1.0e6, 0.7e6, 0.3e6, 0.08e6];
    let mut ratios = Vec::new();
    let mut per_workload = Vec::new();

    for (wi, kind) in WorkloadKind::ALL.into_iter().enumerate() {
        let w = Workload::build(kind);
        let jord = RunSpec::new(System::Jord, rates[wi])
            .requests(n, n / 10 + 100)
            .run(&w);
        let nc = RunSpec::new(System::NightCore, rates[wi])
            .requests(n, n / 10 + 100)
            .run(&w);

        for (abbr, func) in &w.selected {
            let jf = &jord.functions[func];
            let nf = &nc.functions[func];
            let (je, ji, jd) = jf.mean_parts_ns();
            let js = jf.mean_service_ns();
            // NightCore has no isolation; its overhead is the pipe time,
            // accounted in `dispatch` (orchestrator side) plus the pipe
            // sends/recvs folded into exec. Approximate the pipe share as
            // service − pure compute, like the paper's instrumentation.
            let pure_exec_ns = w.registry.spec(*func).mean_compute_ns();
            let (ne, _, nd) = nf.mean_parts_ns();
            let ns = nf.mean_service_ns();
            let nc_pipe = (ne - pure_exec_ns).max(0.0) + nd;
            ratios.push(js / ns);
            row(&[
                (*abbr).into(),
                format!("{:.2}", je / 1e3),
                format!("{:.2}", ji / 1e3),
                format!("{:.2}", jd / 1e3),
                format!("{:.2}", js / 1e3),
                format!("{:.2}", pure_exec_ns / 1e3),
                format!("{:.2}", nc_pipe / 1e3),
                format!("{:.2}", ns / 1e3),
                format!("{:.2}", js / ns),
            ]);
        }
        per_workload.push((kind, jord));
    }

    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    println!();
    println!(
        "check: Jord service / NightCore service averaged over the 8 functions = {:.2} \
         (paper: Jord achieves 48% less service time, i.e. ratio ~0.52)",
        mean_ratio
    );

    header("§6.2: per-request dispatch+isolation overhead (Jord)");
    row(&[
        "workload".into(),
        "ovh/req(ns)".into(),
        "ovh share".into(),
        "paper share".into(),
    ]);
    let paper_share = ["8%", "4%", "3%", "~30%*"];
    for (i, (kind, rep)) in per_workload.iter().enumerate() {
        let ovh = rep.overhead_per_request_ns();
        // Share of total service time across all invocations.
        let total_service: f64 = rep.functions.values().map(|f| f.service.as_ns_f64()).sum();
        let total_ovh: f64 = rep
            .functions
            .values()
            .map(|f| f.isolation.as_ns_f64() + f.dispatch.as_ns_f64())
            .sum();
        row(&[
            kind.name().into(),
            format!("{ovh:.0}"),
            format!("{:.1}%", 100.0 * total_ovh / total_service),
            paper_share[i].into(),
        ]);
    }
    println!("(*paper: Media ~30% due to excessive nested invocations)");
}
