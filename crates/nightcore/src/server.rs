//! The enhanced-NightCore worker server.
//!
//! Structurally a twin of `jord_core::WorkerServer` — same JBSQ
//! orchestrators, same pinned executor threads, same function specs — but
//! with pipe-based control and data flow and no memory isolation. Workers
//! multiplex invocations like Jord's executors do (a generosity: real
//! NightCore workers block their thread on nested calls), so the remaining
//! difference is exactly the paper's claim: OS pipes.

use jord_core::config::DEFAULT_QUEUE_BOUND;
use jord_core::invocation::{InvocationSlab, Origin, Phase};
use jord_core::server::{INGEST_WORK_NS, PICKUP_WORK_NS};
use jord_core::{
    AdmissionPolicy, ArgBuf, ConfigError, Executor, FuncOp, FunctionId, FunctionRegistry,
    Invocation, InvocationId, Orchestrator, RunReport,
};
use jord_hw::types::CoreId;
use jord_hw::{Machine, MachineConfig};
use jord_sim::{EventQueue, Rng, SimDuration, SimTime};

use crate::pipe;

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival { func: FunctionId, bytes: u64 },
    OrchWake(usize),
    ExecWake(usize),
}

const RT_BASE: u64 = 0x90_0000_0000;
const BUF_BASE: u64 = 0xA0_0000_0000;
const FULL_RETRY: SimDuration = SimDuration::from_ns(200);
/// Worker-side blocking-read entry when suspending on a nested call, ns.
const BLOCK_NS: f64 = 250.0;
/// Heap malloc/free work for scratch allocations, ns.
const MALLOC_NS: f64 = 80.0;
const FREE_NS: f64 = 60.0;

/// NightCore server parameters. Ingest, JBSQ scan and pickup cost what
/// they cost Jord, and the JBSQ bound is Jord's default: the twin differs
/// from Jord only in its [`pipe`] costs.
#[derive(Debug, Clone)]
pub struct NightCoreConfig {
    /// The simulated hardware (same Table 2 machine as Jord).
    pub machine: MachineConfig,
    /// Orchestrator (launcher) thread count.
    pub orchestrators: usize,
    /// RNG seed.
    pub seed: u64,
}

impl NightCoreConfig {
    /// The 32-core configuration used against Jord in Figure 9.
    pub fn default_32() -> Self {
        NightCoreConfig::on(MachineConfig::isca25())
    }

    /// NightCore on an arbitrary machine.
    pub fn on(machine: MachineConfig) -> Self {
        let orchestrators = (machine.cores / 8).max(1);
        NightCoreConfig {
            machine,
            orchestrators,
            seed: 42,
        }
    }

    /// Worker thread count.
    pub fn workers(&self) -> usize {
        self.machine.cores - self.orchestrators
    }
}

/// The enhanced-NightCore worker server.
pub struct NightCoreServer {
    machine: Machine,
    registry: FunctionRegistry,
    orchs: Vec<Orchestrator>,
    execs: Vec<Executor>,
    slab: InvocationSlab,
    queue: EventQueue<Event>,
    rng: Rng,
    report: RunReport,
    admission: usize,
    rr_orch: usize,
    buf_seq: Vec<u64>,
    warmup: u64,
    warmed: u64,
}

impl NightCoreServer {
    /// Builds a NightCore server with `registry` deployed.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] describing any configuration problem.
    pub fn new(cfg: NightCoreConfig, registry: FunctionRegistry) -> Result<Self, ConfigError> {
        cfg.machine
            .validate()
            .map_err(|reason| ConfigError::Machine { reason })?;
        if cfg.orchestrators == 0 {
            return Err(ConfigError::NoOrchestrators);
        }
        if cfg.orchestrators >= cfg.machine.cores {
            return Err(ConfigError::NoExecutorCores {
                orchestrators: cfg.orchestrators,
                cores: cfg.machine.cores,
            });
        }
        if registry.is_empty() {
            return Err(ConfigError::NoFunctions);
        }
        let machine = Machine::new(cfg.machine.clone());
        let n_orch = cfg.orchestrators;
        let n_exec = cfg.workers();
        let per = n_exec / n_orch;
        let extra = n_exec % n_orch;
        let mut orchs = Vec::new();
        let mut start = 0;
        for i in 0..n_orch {
            let size = per + usize::from(i < extra);
            orchs.push(Orchestrator::new(
                CoreId(i),
                start..start + size,
                RT_BASE + (i as u64) * 256,
                RT_BASE + (i as u64) * 256 + 64,
            ));
            start += size;
        }
        let execs = (0..n_exec)
            .map(|e| {
                let orch = orchs
                    .iter()
                    .position(|o| o.group.contains(&e))
                    .expect("covered");
                Executor::new(
                    CoreId(n_orch + e),
                    orch,
                    RT_BASE + 0x10_0000 + (e as u64) * 64,
                )
            })
            .collect();
        let admission = AdmissionPolicy::window_for(n_orch, n_exec);
        let seed = cfg.seed;
        Ok(NightCoreServer {
            machine,
            registry,
            orchs,
            execs,
            slab: InvocationSlab::new(),
            queue: EventQueue::new(),
            rng: Rng::new(seed),
            report: RunReport::new(),
            admission,
            rr_orch: 0,
            buf_seq: vec![0; n_exec],
            warmup: 0,
            warmed: 0,
        })
    }

    /// Discards the first `n` completed external requests from the
    /// measurement (cache warm-up), mirroring
    /// `jord_core::WorkerServer::set_warmup`.
    pub fn set_warmup(&mut self, n: u64) {
        self.warmup = n;
    }

    fn measuring(&self) -> bool {
        self.warmed >= self.warmup
    }

    /// Schedules an external request (see `jord_core::WorkerServer`).
    pub fn push_request(&mut self, time: SimTime, func: FunctionId, bytes: u64) {
        self.report.offered += 1;
        self.queue.push(time, Event::Arrival { func, bytes });
    }

    /// Runs to completion and returns the report.
    pub fn run(&mut self) -> RunReport {
        while let Some((t, ev)) = self.queue.pop() {
            match ev {
                Event::Arrival { func, bytes } => self.on_arrival(t, func, bytes),
                Event::OrchWake(i) => self.on_orch_wake(t, i),
                Event::ExecWake(e) => self.on_exec_wake(t, e),
            }
        }
        let mut report = std::mem::take(&mut self.report);
        for o in &self.orchs {
            report.dispatch_ns.merge(&o.dispatch_ns);
        }
        report.finished_at = self.queue.now();
        report
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    fn wake_orch(&mut self, i: usize, at: SimTime) {
        let o = &mut self.orchs[i];
        if !o.scheduled {
            o.scheduled = true;
            let t = at.max(o.next_free);
            self.queue.push(t, Event::OrchWake(i));
        }
    }

    fn wake_exec(&mut self, e: usize, at: SimTime) {
        let x = &mut self.execs[e];
        if !x.scheduled {
            x.scheduled = true;
            let t = at.max(x.next_free);
            self.queue.push(t, Event::ExecWake(e));
        }
    }

    fn local_buf(&mut self, e: usize) -> u64 {
        // Worker-local message buffers, recycled round-robin.
        let seq = self.buf_seq[e];
        self.buf_seq[e] = (seq + 1) % 64;
        BUF_BASE + (e as u64) * (1 << 20) + seq * 4096
    }

    fn on_arrival(&mut self, t: SimTime, func: FunctionId, bytes: u64) {
        let orch = self.rr_orch;
        self.rr_orch = (self.rr_orch + 1) % self.orchs.len();
        let inv = Invocation::new(
            func,
            Origin::External { orch, arrival: t },
            ArgBuf::new(u64::MAX, bytes.max(64)),
            t,
        );
        let id = self.slab.insert(inv);
        self.orchs[orch].external.push_back(id);
        self.wake_orch(orch, t);
    }

    fn on_orch_wake(&mut self, t: SimTime, i: usize) {
        self.orchs[i].scheduled = false;
        let Some((inv_id, is_internal)) = self.orchs[i].next_request(self.admission) else {
            return;
        };
        let core = self.orchs[i].core;
        let mut cost = SimDuration::ZERO;
        if !is_internal {
            cost += self.machine.work(INGEST_WORK_NS);
        } else {
            // Internal requests arrive over a pipe from the worker; the
            // receive side is charged here.
            cost += self.machine.work(pipe::SYSCALL_NS);
        }

        // JBSQ scan: identical mechanism to Jord (the enhancement).
        let (scan, best, best_depth) = self.orchs[i].scan(&mut self.machine, &self.execs, t);
        cost += scan;

        let target = best.filter(|_| best_depth < DEFAULT_QUEUE_BOUND);
        match target {
            None => {
                if is_internal {
                    self.orchs[i].internal.push_front(inv_id);
                } else {
                    self.orchs[i].external.push_front(inv_id);
                }
                self.orchs[i].next_free = t + cost;
                self.orchs[i].scheduled = true;
                self.queue.push(t + cost + FULL_RETRY, Event::OrchWake(i));
            }
            Some(e) => {
                // Control push through the shared-memory queue line (the
                // enhancement: JBSQ dispatch like Jord) …
                cost += self.machine.write(core, self.execs[e].queue_line, 64);
                let bytes = self.slab.get(inv_id).argbuf.len();
                let idle = !self.execs[e].has_work() && self.execs[e].next_free <= t;
                if !is_internal {
                    // … but external request *data* still crosses a pipe
                    // into the worker (no zero-copy in NightCore). Internal
                    // request data was already piped by the caller.
                    cost += pipe::send(bytes, idle);
                }
                let buf = self.local_buf(e);
                self.execs[e].queue.push_back(inv_id);
                let done = t + cost;
                {
                    let inv = self.slab.get_mut(inv_id);
                    inv.executor = e;
                    inv.enqueued_at = done;
                    inv.argbuf = ArgBuf::new(buf, bytes);
                    inv.breakdown.dispatch += cost;
                }
                if !is_internal {
                    self.orchs[i].in_flight += 1;
                }
                self.orchs[i].dispatch_ns.record(cost.as_ns_f64());
                self.orchs[i].next_free = done;
                self.wake_exec(e, done);
                if self.orchs[i].has_work() {
                    let at = self.orchs[i].next_free;
                    self.wake_orch(i, at);
                }
            }
        }
    }

    fn on_exec_wake(&mut self, t: SimTime, e: usize) {
        self.execs[e].scheduled = false;
        if let Some(id) = self.execs[e].ready.pop_front() {
            // Resumed by a response pipe: read the children's results out.
            let pending = std::mem::take(&mut self.slab.get_mut(id).pending_free);
            let mut d = SimDuration::ZERO;
            for (_, bytes) in pending {
                d += pipe::recv(bytes);
            }
            self.slab.get_mut(id).breakdown.exec += d;
            self.slab.get_mut(id).phase = Phase::Running;
            self.run_segment(t, d, e, id);
        } else if let Some(id) = self.execs[e].queue.pop_front() {
            let mut d = self.machine.work(PICKUP_WORK_NS);
            d += self
                .machine
                .atomic_rmw(self.execs[e].core, self.execs[e].queue_line);
            // Receive the request data from the pipe into a local buffer.
            d += pipe::recv(self.slab.get(id).argbuf.len());
            let inv = self.slab.get_mut(id);
            inv.phase = Phase::Running;
            inv.started_at = t;
            inv.breakdown.exec += d;
            self.run_segment(t, d, e, id);
        } else {
            return;
        }
        if self.execs[e].has_work() {
            let at = self.execs[e].next_free;
            self.wake_exec(e, at);
        }
    }

    fn run_segment(&mut self, t: SimTime, offset: SimDuration, e: usize, id: InvocationId) {
        let core = self.execs[e].core;
        let mut acc = offset;
        loop {
            let (func, pc) = {
                let inv = self.slab.get(id);
                (inv.func, inv.pc)
            };
            let op = self.registry.spec(func).ops().get(pc).cloned();
            match op {
                None => {
                    self.finish(t, acc, e, id);
                    return;
                }
                Some(FuncOp::Compute(dist)) => {
                    let d = dist.sample(&mut self.rng);
                    acc += d;
                    let inv = self.slab.get_mut(id);
                    inv.breakdown.exec += d;
                    inv.pc += 1;
                }
                Some(FuncOp::ReadInput) | Some(FuncOp::WriteOutput) => {
                    let argbuf = self.slab.get(id).argbuf;
                    let d = if matches!(op, Some(FuncOp::ReadInput)) {
                        self.machine.read(core, argbuf.va(), argbuf.len())
                    } else {
                        self.machine.write(core, argbuf.va(), argbuf.len())
                    };
                    acc += d;
                    let inv = self.slab.get_mut(id);
                    inv.breakdown.exec += d;
                    inv.pc += 1;
                }
                Some(FuncOp::MmapTemp { .. }) => {
                    let d = self.machine.work(MALLOC_NS);
                    acc += d;
                    let inv = self.slab.get_mut(id);
                    inv.breakdown.exec += d;
                    inv.temps.push(0);
                    inv.pc += 1;
                }
                Some(FuncOp::MunmapTemp) => {
                    let d = self.machine.work(FREE_NS);
                    acc += d;
                    let inv = self.slab.get_mut(id);
                    inv.breakdown.exec += d;
                    inv.temps.pop();
                    inv.pc += 1;
                }
                Some(FuncOp::Invoke {
                    target,
                    arg_bytes,
                    asynchronous,
                }) => {
                    // Nested request: data is piped toward the callee
                    // worker; only the control message rides the launcher's
                    // shared-memory inbox.
                    let bytes = arg_bytes.max(64);
                    let orch = self.execs[e].orch;
                    let mut d = pipe::send(bytes, false);
                    d += self.machine.write(core, self.orchs[orch].inbox_line, 64);
                    acc += d;
                    let child = self.slab.insert(Invocation::new(
                        target,
                        Origin::Internal {
                            parent: id,
                            synchronous: !asynchronous,
                        },
                        ArgBuf::new(u64::MAX, bytes),
                        t + acc,
                    ));
                    self.orchs[orch].internal.push_back(child);
                    self.wake_orch(orch, t + acc);
                    {
                        let inv = self.slab.get_mut(id);
                        inv.breakdown.exec += d;
                        inv.pc += 1;
                    }
                    if asynchronous {
                        self.slab.get_mut(id).outstanding += 1;
                    } else {
                        let b = self.machine.work(BLOCK_NS);
                        acc += b;
                        let inv = self.slab.get_mut(id);
                        inv.breakdown.exec += b;
                        inv.blocked_on = Some(child);
                        inv.phase = Phase::Suspended;
                        self.execs[e].next_free = t + acc;
                        return;
                    }
                }
                Some(FuncOp::WaitAll) => {
                    if self.slab.get(id).outstanding == 0 {
                        self.slab.get_mut(id).pc += 1;
                    } else {
                        let b = self.machine.work(BLOCK_NS);
                        acc += b;
                        let inv = self.slab.get_mut(id);
                        inv.breakdown.exec += b;
                        inv.waiting_all = true;
                        inv.phase = Phase::Suspended;
                        self.execs[e].next_free = t + acc;
                        return;
                    }
                }
            }
        }
    }

    fn finish(&mut self, t: SimTime, offset: SimDuration, e: usize, id: InvocationId) {
        let mut acc = offset;
        let (func, argbuf, origin) = {
            let inv = self.slab.get(id);
            (inv.func, inv.argbuf, inv.origin)
        };
        match origin {
            Origin::External { orch, arrival } => {
                // Result pipe back to the launcher.
                let idle = !self.orchs[orch].has_work() && self.orchs[orch].next_free <= t + acc;
                let d = pipe::send(argbuf.len(), idle);
                acc += d;
                self.slab.get_mut(id).breakdown.exec += d;
                let done = t + acc;
                if self.measuring() {
                    self.report.record_request(done.saturating_since(arrival));
                } else {
                    self.warmed += 1;
                    self.report.offered -= 1;
                }
                self.orchs[orch].in_flight -= 1;
                if self.orchs[orch].has_work() {
                    self.wake_orch(orch, done);
                }
            }
            Origin::Internal { parent, .. } => {
                // Result pipe back to the (blocked) parent worker.
                let d = pipe::send(argbuf.len(), true);
                acc += d;
                self.slab.get_mut(id).breakdown.exec += d;
                let done = t + acc;
                let parent_exec = {
                    let p = self.slab.get_mut(parent);
                    p.pending_free.push((0, argbuf.len()));
                    let unblocked = if p.blocked_on == Some(id) {
                        p.blocked_on = None;
                        true
                    } else {
                        debug_assert!(p.outstanding > 0);
                        p.outstanding -= 1;
                        p.waiting_all && p.outstanding == 0
                    };
                    if unblocked {
                        p.waiting_all = false;
                        Some(p.executor)
                    } else {
                        None
                    }
                };
                if let Some(pe) = parent_exec {
                    self.execs[pe].ready.push_back(parent);
                    self.wake_exec(pe, done);
                }
            }
        }
        let done = t + acc;
        let (service, breakdown) = {
            let inv = self.slab.get_mut(id);
            inv.phase = Phase::Done;
            (done.saturating_since(inv.enqueued_at), inv.breakdown)
        };
        if self.measuring() {
            self.report.record_invocation(func, service, breakdown);
        }
        self.slab.remove(id);
        self.execs[e].next_free = done;
    }
}

impl std::fmt::Debug for NightCoreServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NightCoreServer")
            .field("orchestrators", &self.orchs.len())
            .field("workers", &self.execs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jord_core::FunctionSpec;
    use jord_sim::TimeDist;

    fn leaf_registry() -> (FunctionRegistry, FunctionId) {
        let mut r = FunctionRegistry::new();
        let f = r.register(
            FunctionSpec::new("leaf")
                .op(FuncOp::ReadInput)
                .op(FuncOp::Compute(TimeDist::fixed(1_000.0)))
                .op(FuncOp::WriteOutput),
        );
        (r, f)
    }

    #[test]
    fn single_request_pays_pipe_microseconds() {
        let (r, f) = leaf_registry();
        let mut s = NightCoreServer::new(NightCoreConfig::default_32(), r).unwrap();
        s.push_request(SimTime::ZERO, f, 512);
        let rep = s.run();
        assert_eq!(rep.completed, 1);
        let lat = rep.latency.max().unwrap().as_us_f64();
        assert!(
            (4.0..20.0).contains(&lat),
            "1 µs of work plus two pipes should land ~5-8 µs, got {lat}"
        );
    }

    #[test]
    fn nested_calls_multiply_pipe_costs() {
        let mut r = FunctionRegistry::new();
        let leaf =
            r.register(FunctionSpec::new("leaf").op(FuncOp::Compute(TimeDist::fixed(500.0))));
        let root = r.register(
            FunctionSpec::new("root")
                .op(FuncOp::Compute(TimeDist::fixed(500.0)))
                .call(leaf, 256)
                .call(leaf, 256),
        );
        let mut s = NightCoreServer::new(NightCoreConfig::default_32(), r).unwrap();
        s.push_request(SimTime::ZERO, root, 512);
        let rep = s.run();
        assert_eq!(rep.invocations, 3);
        // Each nested call adds ≥2 pipe messages (~4.5 µs+).
        let lat = rep.latency.max().unwrap().as_us_f64();
        assert!(lat > 12.0, "expected pipes to dominate, got {lat} µs");
    }

    #[test]
    fn sustained_load_completes_deterministically() {
        let run = || {
            let (r, f) = leaf_registry();
            let mut s = NightCoreServer::new(NightCoreConfig::default_32(), r).unwrap();
            for i in 0..2000u64 {
                s.push_request(SimTime::from_ns(i * 800), f, 256);
            }
            let rep = s.run();
            assert_eq!(rep.completed, 2000);
            rep.latency.quantile(0.99)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn jord_beats_nightcore_on_the_same_workload() {
        let build_registry = || {
            let mut r = FunctionRegistry::new();
            let leaf =
                r.register(FunctionSpec::new("leaf").op(FuncOp::Compute(TimeDist::fixed(500.0))));
            let root = r.register(
                FunctionSpec::new("root")
                    .op(FuncOp::ReadInput)
                    .op(FuncOp::Compute(TimeDist::fixed(500.0)))
                    .call(leaf, 256)
                    .op(FuncOp::WriteOutput),
            );
            (r, root)
        };
        // Identical open-loop arrivals at a moderate load.
        let arrivals: Vec<SimTime> = (0..3000u64).map(|i| SimTime::from_ns(i * 700)).collect();

        let (r, root) = build_registry();
        let mut jord =
            jord_core::WorkerServer::new(jord_core::RuntimeConfig::jord_32(), r).unwrap();
        for &t in &arrivals {
            jord.push_request(t, root, 512);
        }
        let jord_rep = jord.run();

        let (r, root) = build_registry();
        let mut nc = NightCoreServer::new(NightCoreConfig::default_32(), r).unwrap();
        for &t in &arrivals {
            nc.push_request(t, root, 512);
        }
        let nc_rep = nc.run();

        let jp99 = jord_rep.p99().unwrap().as_us_f64();
        let np99 = nc_rep.p99().unwrap().as_us_f64();
        assert!(
            np99 > 2.0 * jp99,
            "NightCore p99 ({np99} µs) must be well above Jord's ({jp99} µs)"
        );
    }
}
