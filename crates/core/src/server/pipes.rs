//! The enhanced-NightCore legs of [`WorkerServer`]
//! ([`SystemVariant::NightCore`](crate::SystemVariant::NightCore)) and the
//! OS pipe cost model they charge.
//!
//! NightCore (Jia & Witchel, ASPLOS '21) is the latency-sensitive FaaS
//! system the paper compares against. The paper *enhances* it (§5):
//! launchers and workers are pinned threads in one address space with
//! Jord's JBSQ dispatch, so that it is "primarily limited by OS pipes".
//! It runs through the same event loop as Jord, with isolation bypassed
//! as in Jord_NI (no PD is ever created, so there is no PD setup or
//! teardown), and its workers multiplex invocations like Jord's executors
//! (a generosity: real NightCore workers block their thread on a nested
//! call). What it does differently from Jord is all in this file:
//!
//! 1. **Placement.** Launchers run on cores 0…n−1, and the workers after
//!    them are dealt out in equal blocks ([`launcher_placement`]). Jord
//!    spreads its orchestrators, each followed by its executors.
//! 2. **Launcher receive on every pick.** An external request is charged
//!    the network ingest again after each full-queue requeue (Jord charges
//!    it at first touch only). An internal request costs one system call
//!    of work, where Jord does an atomic RMW on the inbox line.
//! 3. **Full-queue backoff** of 200 ns ([`FULL_RETRY`]), against Jord's
//!    100 ns.
//! 4. **Message buffers.** Each worker recycles 64 × 4 KiB buffers
//!    round-robin, where Jord maps an ArgBuf through PrivLib per request.
//! 5. **Temporary buffers** cost a fixed `malloc` (80 ns) and `free`
//!    (60 ns) of work; the `free` is charged even with no temp to pop.
//!
//! And the pipes themselves. Every leg is a [`send`] (`write(2)`, copy-in,
//! serialization, and the futex wakeup of a blocked receiver) or a
//! [`recv`] (`read(2)`, copy-out, deserialization):
//!
//! * the external dispatch `send`, waking the worker if it is idle;
//! * the worker's pickup `recv`;
//! * a nested call's `send` toward the callee, plus the write of the
//!   launcher's inbox line;
//! * the result `send`, waking the launcher if it is idle, and always the
//!   parent worker, blocked in its resume `read`;
//! * one resume `recv` per finished child.
//!
//! Suspending on a nested call enters a blocking read (250 ns). All pipe
//! and blocking time counts as exec, or as dispatch on the launcher, so
//! Figure 11's NightCore columns read it from there; Jord's `cexit` counts
//! as isolation.
//!
//! The pipe constants follow published measurements: NightCore reports its
//! internal function-call latencies in the few-microsecond range, and pipe
//! round trips with futex wakeups cost 2–4 µs on current Linux (~400 ns per
//! system call, ~1.6 µs per wakeup, ~10 GB/s single-threaded copy). Jord's
//! point is that these per-message microseconds dwarf its nanosecond-scale
//! VTE operations (§2.1: communication takes up to 70 % of function
//! execution time in pipe- and queue-based systems).

use std::ops::Range;

use jord_sim::{SimDuration, SimTime};

use super::{WorkerServer, INGEST_WORK_NS};
use crate::argbuf::ArgBuf;
use crate::invocation::{InvocationId, Origin, Phase};

/// One system call (entry + exit + kernel pipe work), ns.
const SYSCALL_NS: f64 = 400.0;
/// Waking a blocked receiver thread (futex + scheduler + cache warmup),
/// ns.
const WAKEUP_NS: f64 = 1600.0;
/// Copy bandwidth through the kernel buffer, bytes per ns (both the
/// copy-in and the copy-out pay it).
const COPY_BYTES_PER_NS: f64 = 10.0;
/// Serialization/deserialization work per message byte, ns (NightCore's
/// message framing; cheap but nonzero).
const SERDES_NS_PER_BYTE: f64 = 0.05;
/// Launcher backoff before re-scanning when every worker queue is full.
pub(super) const FULL_RETRY: SimDuration = SimDuration::from_ns(200);
/// Worker-side entry into a blocking pipe read when suspending, ns.
const BLOCK_NS: f64 = 250.0;
/// Heap `malloc` and `free` of a temporary buffer, ns.
const MALLOC_NS: f64 = 80.0;
const FREE_NS: f64 = 60.0;
/// Base of the workers' message buffers: worker `e` owns the MiB at
/// `BUF_BASE + e MiB`, cut into [`MSG_BUFS`] buffers of [`MSG_BUF_BYTES`].
const BUF_BASE: u64 = 0xA0_0000_0000;
const MSG_BUFS: u64 = 64;
const MSG_BUF_BYTES: u64 = 4096;

/// Sender-side cost of a `bytes` message: `write(2)`, copy-in,
/// serialization, and — when the receiver is blocked — the futex wakeup
/// (paid by the waker).
pub(super) fn send(bytes: u64, wakeup: bool) -> SimDuration {
    let b = bytes as f64;
    let ns = SYSCALL_NS
        + b / COPY_BYTES_PER_NS
        + b * SERDES_NS_PER_BYTE
        + if wakeup { WAKEUP_NS } else { 0.0 };
    SimDuration::from_ns_f64(ns)
}

/// Receiver-side cost of a `bytes` message: `read(2)`, copy-out,
/// deserialization.
fn recv(bytes: u64) -> SimDuration {
    let b = bytes as f64;
    let ns = SYSCALL_NS + b / COPY_BYTES_PER_NS + b * SERDES_NS_PER_BYTE;
    SimDuration::from_ns_f64(ns)
}

/// NightCore's placement of `n_orch` launchers and `n_exec` workers:
/// launchers on cores 0…n_orch−1, workers on the cores after them, dealt
/// out in equal contiguous blocks (the first `n_exec % n_orch` launchers
/// get one extra). Returns the launcher cores, the worker cores and each
/// launcher's worker range.
pub(super) fn launcher_placement(
    n_orch: usize,
    n_exec: usize,
) -> (Vec<usize>, Vec<usize>, Vec<Range<usize>>) {
    let (per, extra) = (n_exec / n_orch, n_exec % n_orch);
    let mut start = 0;
    let groups = (0..n_orch)
        .map(|i| {
            let size = per + usize::from(i < extra);
            start += size;
            start - size..start
        })
        .collect();
    (
        (0..n_orch).collect(),
        (n_orch..n_orch + n_exec).collect(),
        groups,
    )
}

// Every leg the loop calls, `pipe_receive` apart, is `#[inline(never)]`:
// inlined, they added 1.5 KiB of code that Jord never runs to `step` and
// `run_segment`, the loop's two largest functions (fat-LTO release build).
impl WorkerServer {
    /// The launcher's receive of the request it picked: the network ingest
    /// of an external one (again after every full-queue requeue), or the
    /// `read(2)` of an internal one from its caller's pipe.
    pub(super) fn pipe_receive(&self, is_internal: bool) -> SimDuration {
        self.machine.work(if is_internal {
            SYSCALL_NS
        } else {
            INGEST_WORK_NS
        })
    }

    /// The dispatch leg after the queue-line write: an external request's
    /// data crosses a pipe into worker `e`, waking it if it is idle at `t`
    /// (an internal request's data was piped by its caller). The request
    /// lands in the worker's next message buffer. Returns the send time.
    #[inline(never)]
    pub(super) fn pipe_dispatch(
        &mut self,
        t: SimTime,
        e: usize,
        id: InvocationId,
        is_internal: bool,
    ) -> SimDuration {
        let x = &mut self.execs[e];
        let bytes = self.slab.get(id).argbuf.len();
        let idle = !x.has_work() && x.next_free <= t;
        let seq = x.msg_buf;
        x.msg_buf = (seq + 1) % MSG_BUFS;
        let buf = BUF_BASE + ((e as u64) << 20) + seq * MSG_BUF_BYTES;
        self.slab.get_mut(id).argbuf = ArgBuf::new(buf, bytes);
        if is_internal {
            SimDuration::ZERO
        } else {
            send(bytes, idle)
        }
    }

    /// Starts `id` on worker `e` after its `pickup` (queue pop): the worker
    /// reads the request out of the pipe, then runs.
    #[inline(never)]
    pub(super) fn pipe_start(
        &mut self,
        t: SimTime,
        e: usize,
        id: InvocationId,
        pickup: SimDuration,
    ) {
        let inv = self.slab.get_mut(id);
        let d = pickup + recv(inv.argbuf.len());
        inv.breakdown.exec += d;
        self.run_segment(t, d, e, id);
    }

    /// Resumes `id` on worker `e`: one pipe read per finished child's
    /// result.
    #[inline(never)]
    pub(super) fn pipe_resume(&mut self, t: SimTime, e: usize, id: InvocationId) {
        let inv = self.slab.get_mut(id);
        debug_assert!(!inv.child_failed, "NightCore has no abort path");
        let d = inv
            .pending_free
            .drain(..)
            .fold(SimDuration::ZERO, |d, (_, bytes)| d + recv(bytes));
        inv.breakdown.exec += d;
        inv.phase = Phase::Running;
        self.run_segment(t, d, e, id);
    }

    /// `malloc` (`alloc`) or `free` of a temporary buffer by `id`: fixed
    /// heap work, charged as exec. Returns its time.
    #[inline(never)]
    pub(super) fn pipe_heap(&mut self, id: InvocationId, alloc: bool) -> SimDuration {
        let d = self.machine.work(if alloc { MALLOC_NS } else { FREE_NS });
        let inv = self.slab.get_mut(id);
        inv.breakdown.exec += d;
        inv.pc += 1;
        d
    }

    /// Suspending `id`: the entry into a blocking pipe read, charged as
    /// exec. Returns its time.
    #[inline(never)]
    pub(super) fn pipe_block(&mut self, id: InvocationId) -> SimDuration {
        let b = self.machine.work(BLOCK_NS);
        self.slab.get_mut(id).breakdown.exec += b;
        b
    }

    /// The result leg of finished `id` at `at`: a pipe `write` toward the
    /// launcher of an external request (waking it if it is idle) or toward
    /// the parent worker, always woken. Returns its time, charged as exec.
    #[inline(never)]
    pub(super) fn pipe_result(&mut self, at: SimTime, id: InvocationId) -> SimDuration {
        let inv = self.slab.get(id);
        let wakeup = match inv.origin {
            Origin::External { orch, .. } => {
                let o = &self.orchs[orch];
                !o.has_work() && o.next_free <= at
            }
            Origin::Internal { .. } => true,
        };
        let d = send(inv.argbuf.len(), wakeup);
        self.slab.get_mut(id).breakdown.exec += d;
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RecoveryPolicy, RuntimeConfig, SpillConfig, SystemVariant};
    use crate::function::{FuncOp, FunctionId, FunctionRegistry, FunctionSpec};
    use crate::memory::{MemoryConfig, MemoryPressure};
    use crate::recovery::{CrashConfig, CrashSemantics};
    use crate::stats::RunReport;
    use jord_hw::{CrashPlan, MachineConfig};
    use jord_sim::TimeDist;

    /// Cost of one one-way message of `bytes`, with or without a receiver
    /// wakeup.
    fn message(bytes: u64, wakeup: bool) -> SimDuration {
        send(bytes, wakeup) + recv(bytes)
    }

    #[test]
    fn empty_message_costs_two_syscalls_and_a_wakeup() {
        let d = message(0, true).as_ns_f64();
        assert!((d - 2400.0).abs() < 1.0, "got {d}");
    }

    #[test]
    fn copies_scale_with_size() {
        let small = message(64, true).as_ns_f64();
        let big = message(64 * 1024, true).as_ns_f64();
        // 64 KiB: 2×6.55 µs copy + 2×3.3 µs serdes + base.
        assert!(big > small + 10_000.0, "small {small} big {big}");
    }

    #[test]
    fn spinning_receiver_skips_wakeup() {
        let blocked = message(128, true);
        let spinning = message(128, false);
        assert_eq!(
            (blocked - spinning).as_ns_f64(),
            WAKEUP_NS,
            "difference must be exactly the wakeup"
        );
    }

    #[test]
    fn microsecond_scale_matches_nightcore_reports() {
        // NightCore's internal function call: request + response pipes on a
        // ~KB payload land in the 4–6 µs range.
        let rt = (message(1024, true) + message(1024, true)).as_us_f64();
        assert!((3.0..8.0).contains(&rt), "round trip {rt} µs");
    }

    #[test]
    fn launchers_take_the_first_cores_and_deal_workers_in_blocks() {
        let (orchs, execs, groups) = launcher_placement(3, 29);
        assert_eq!(orchs, [0, 1, 2]);
        assert_eq!(execs, (3..32).collect::<Vec<_>>());
        assert_eq!(groups, [0..10, 10..20, 20..29]);
    }

    fn nightcore() -> RuntimeConfig {
        RuntimeConfig::variant_on(SystemVariant::NightCore, MachineConfig::isca25())
    }

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

    /// A root that calls a leaf once, between an input read and an output
    /// write.
    fn nested_registry() -> (FunctionRegistry, FunctionId) {
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
    }

    /// Runs `n` requests for `f`, one every `gap_ns`, and audits the run.
    fn run(
        cfg: RuntimeConfig,
        (registry, f): (FunctionRegistry, FunctionId),
        n: u64,
        gap_ns: u64,
    ) -> (WorkerServer, RunReport) {
        let mut s = WorkerServer::new(cfg, registry).unwrap();
        for i in 0..n {
            s.push_request(SimTime::from_ns(i * gap_ns), f, 512);
        }
        let report = s.run();
        assert_eq!(s.audit(&report), Ok(()));
        (s, report)
    }

    #[test]
    fn single_request_pays_pipe_microseconds() {
        let (_, rep) = run(nightcore(), leaf_registry(), 1, 0);
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
        let (_, rep) = run(nightcore(), (r, root), 1, 0);
        assert_eq!(rep.invocations, 3);
        // Each nested call adds ≥2 pipe messages (~4.5 µs+).
        let lat = rep.latency.max().unwrap().as_us_f64();
        assert!(lat > 12.0, "expected pipes to dominate, got {lat} µs");
    }

    #[test]
    fn sustained_load_completes_deterministically() {
        let once = || {
            let (s, rep) = run(nightcore(), leaf_registry(), 2000, 800);
            assert_eq!(rep.completed, 2000);
            (rep.latency.quantile(0.99), s.trace_hash())
        };
        assert_eq!(once(), once());
    }

    #[test]
    fn jord_beats_nightcore_on_the_same_workload() {
        // Identical open-loop arrivals at a moderate load.
        let p99 = |cfg| {
            let (_, rep) = run(cfg, nested_registry(), 3000, 700);
            rep.p99().unwrap().as_us_f64()
        };
        let (jp99, np99) = (p99(RuntimeConfig::jord_32()), p99(nightcore()));
        assert!(
            np99 > 2.0 * jp99,
            "NightCore p99 ({np99} µs) must be well above Jord's ({jp99} µs)"
        );
    }

    // The settings `RuntimeConfig::validate` accepts for NightCore act on
    // it: a whole-worker crash is recovered from the journal, spill moves
    // nested calls to a peer, the memory budget sets the pressure level,
    // and the shed bound sheds.

    #[test]
    fn a_whole_worker_crash_is_recovered_from_the_journal() {
        let crash = CrashConfig::new(CrashPlan::worker_at(20.0), CrashSemantics::AtLeastOnce);
        let (_, rep) = run(nightcore().with_crash(crash), nested_registry(), 200, 300);
        assert_eq!(rep.crash.crashes, 1);
        assert!(rep.crash.readmitted > 0, "the crash interrupted work");
        assert_eq!(rep.completed, 200);
    }

    #[test]
    fn spill_sends_nested_calls_to_a_peer() {
        // A 24-wide async fan-out over one-deep worker queues.
        let mut r = FunctionRegistry::new();
        let leaf =
            r.register(FunctionSpec::new("leaf").op(FuncOp::Compute(TimeDist::fixed(3_000.0))));
        let mut root = FunctionSpec::new("root").op(FuncOp::ReadInput);
        for _ in 0..24 {
            root = root.call_async(leaf, 128);
        }
        let root = r.register(root.op(FuncOp::WaitAll).op(FuncOp::WriteOutput));
        let spill = SpillConfig {
            backlog_threshold: 4,
            ..SpillConfig::default()
        };
        let mut cfg =
            RuntimeConfig::variant_on(SystemVariant::NightCore, MachineConfig::scaled(16))
                .with_spill(spill);
        cfg.queue_bound = 1;
        let (_, rep) = run(cfg, (r, root), 150, 2_000);
        assert_eq!(rep.completed, 150);
        assert!(rep.spilled > 0, "full worker queues spill");
        assert!(rep.spilled < rep.invocations, "only the overflow leaves");
    }

    #[test]
    fn the_memory_budget_sets_the_pressure_level() {
        // NightCore maps only the pristine image (PrivLib and code VMAs),
        // which a one-byte budget puts under critical pressure.
        let memory = MemoryConfig {
            resident_budget_bytes: 1,
            ..MemoryConfig::default()
        };
        let (s, rep) = run(nightcore().with_memory(memory), leaf_registry(), 10, 1_000);
        assert_eq!(s.memory_pressure(), MemoryPressure::Critical);
        assert_eq!(rep.memory.pressure_transitions, 1);
    }

    #[test]
    fn the_shed_bound_sheds_on_nightcore() {
        let policy = RecoveryPolicy {
            shed_bound: Some(1),
            ..RecoveryPolicy::default()
        };
        let (_, rep) = run(nightcore().with_recovery(policy), leaf_registry(), 400, 0);
        assert!(rep.faults.sheds > 0, "a burst overflows the bound");
        assert_eq!(rep.completed + rep.faults.sheds, 400);
    }
}
