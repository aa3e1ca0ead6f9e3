//! Quickstart: deploy two functions on a Jord worker server, invoke them,
//! and read the measurement report.
//!
//! Run with: `cargo run --release -p jord-bench -- quickstart`

use jord::prelude::*;

pub fn main() {
    // 1. Write functions (the Rust analogue of the paper's Listing 1):
    //    a leaf service and an entry function that calls it and returns.
    let mut registry = FunctionRegistry::new();
    let thumbnail = registry.register(
        FunctionSpec::new("thumbnail")
            .op(FuncOp::ReadInput) // read the image reference from the ArgBuf
            .compute(2_000.0, 0.3) // ~2 µs of resizing work
            .op(FuncOp::WriteOutput),
    );
    let upload = registry.register(
        FunctionSpec::new("upload")
            .op(FuncOp::ReadInput)
            .compute(800.0, 0.2) // validate + store metadata
            .call(thumbnail, 256) // jord::call — synchronous, zero-copy ArgBuf
            .op(FuncOp::WriteOutput),
    );

    // 2. Stand up a worker server: the paper's Table 2 machine (32 cores
    //    @4 GHz), 4 orchestrators + 28 executors, full in-process isolation.
    let mut server =
        WorkerServer::new(RuntimeConfig::jord_32(), registry).expect("valid configuration");

    // 3. Offer an open-loop Poisson load: 200k requests/s for 10k requests.
    let mut rng = Rng::new(7);
    let mut t = SimTime::ZERO;
    for _ in 0..10_000 {
        t += SimDuration::from_ns_f64(rng.exponential(5_000.0));
        server.push_request(t, upload, 512);
    }

    // 4. Run to completion and inspect.
    let report = server.run();
    println!("requests completed : {}", report.completed);
    println!("invocations        : {}", report.invocations);
    println!(
        "request latency    : p50 {:.2} us, p99 {:.2} us",
        report.latency.quantile(0.50).unwrap().as_us_f64(),
        report.p99().unwrap().as_us_f64()
    );
    println!(
        "isolation+dispatch : {:.0} ns per request (the overhead Jord buys\n\
         \u{20}                    with nanosecond-scale VMA/PD operations)",
        report.overhead_per_request_ns()
    );
}
