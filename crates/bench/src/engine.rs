//! Engine microbenchmarks: the calendar [`EventQueue`] against the
//! recorded [`BaselineHeap`] it replaced.
//!
//! Three synthetic workloads bracket the DES hot path:
//!
//! * **Hold model** — the classic event-queue benchmark: a steady-state
//!   queue of fixed size where every iteration pops the front and
//!   schedules a successor a random gap ahead. This is exactly what a
//!   saturated worker server does all day.
//! * **Transient** — schedule `n` events, then pop all `n`: the burst
//!   pattern of campaign setup (`push_request` loops) and teardown.
//! * **Cancel storm** — schedule, cancel half, pop the rest. The heap
//!   side cancels through its pre-refactor `remove_first`
//!   (scan + drain-and-rebuild); the calendar side cancels by
//!   [`EventId`](jord_sim::EventId) tombstone.
//!
//! Both sides of every pair consume identical RNG streams and fold every
//! popped `(time, payload)` into a checksum; a pair is only valid if the
//! checksums agree, so the speedup can never come from doing different
//! (or dead-code-eliminated) work.

use std::hint::black_box;
use std::time::Instant;

use jord_sim::oracle::BaselineHeap;
use jord_sim::{EventQueue, Rng, SimTime};

/// Pop-gap upper bound (picoseconds) for the synthetic schedules: 10 µs,
/// the same order as the cluster's heartbeat/window cadence.
const GAP_PS: u64 = 10_000_000;

/// One heap-vs-calendar measurement.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Workload name (`hold`, `transient`, `cancel`).
    pub name: &'static str,
    /// Queue operations performed per side (schedules + pops + cancels).
    pub events: u64,
    /// Baseline heap throughput, operations per second.
    pub heap_eps: f64,
    /// Calendar queue throughput, operations per second.
    pub calendar_eps: f64,
    /// Both sides produced the same pop checksum (they must).
    pub checksums_match: bool,
}

impl MicroResult {
    /// Calendar speedup over the heap baseline.
    pub fn speedup(&self) -> f64 {
        self.calendar_eps / self.heap_eps
    }
}

/// The hold model: prefill `prefill` events, then `ops` iterations of
/// pop-front + schedule-successor. Throughput counts both the pop and the
/// schedule of each hold.
pub fn hold_model(prefill: usize, ops: u64, seed: u64) -> MicroResult {
    let (heap_s, heap_sum) = {
        let mut q = BaselineHeap::new();
        let mut rng = Rng::new(seed);
        for i in 0..prefill {
            q.push(SimTime::from_ps(rng.next_below(GAP_PS)), i as u64);
        }
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..ops {
            let (t, e) = q.pop().expect("hold queue never empties");
            sum = sum.wrapping_add(t.as_ps()).wrapping_add(e);
            q.push(SimTime::from_ps(t.as_ps() + 1 + rng.next_below(GAP_PS)), e);
        }
        (start.elapsed().as_secs_f64(), black_box(sum))
    };
    let (cal_s, cal_sum) = {
        let mut q = EventQueue::new();
        let mut rng = Rng::new(seed);
        for i in 0..prefill {
            q.push(SimTime::from_ps(rng.next_below(GAP_PS)), i as u64);
        }
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..ops {
            let (t, e) = q.pop().expect("hold queue never empties");
            sum = sum.wrapping_add(t.as_ps()).wrapping_add(e);
            q.push(SimTime::from_ps(t.as_ps() + 1 + rng.next_below(GAP_PS)), e);
        }
        (start.elapsed().as_secs_f64(), black_box(sum))
    };
    MicroResult {
        name: "hold",
        events: ops * 2,
        heap_eps: ops as f64 * 2.0 / heap_s,
        calendar_eps: ops as f64 * 2.0 / cal_s,
        checksums_match: heap_sum == cal_sum,
    }
}

/// Transient burst: schedule `n` events at random instants, pop them all.
pub fn transient(n: usize, seed: u64) -> MicroResult {
    let (heap_s, heap_sum) = {
        let mut q = BaselineHeap::new();
        let mut rng = Rng::new(seed);
        let start = Instant::now();
        for i in 0..n {
            q.push(SimTime::from_ps(rng.next_below(GAP_PS * 100)), i as u64);
        }
        let mut sum = 0u64;
        while let Some((t, e)) = q.pop() {
            sum = sum.wrapping_add(t.as_ps()).wrapping_add(e);
        }
        (start.elapsed().as_secs_f64(), black_box(sum))
    };
    let (cal_s, cal_sum) = {
        let mut q = EventQueue::new();
        let mut rng = Rng::new(seed);
        let start = Instant::now();
        for i in 0..n {
            q.push(SimTime::from_ps(rng.next_below(GAP_PS * 100)), i as u64);
        }
        let mut sum = 0u64;
        while let Some((t, e)) = q.pop() {
            sum = sum.wrapping_add(t.as_ps()).wrapping_add(e);
        }
        (start.elapsed().as_secs_f64(), black_box(sum))
    };
    MicroResult {
        name: "transient",
        events: n as u64 * 2,
        heap_eps: n as f64 * 2.0 / heap_s,
        calendar_eps: n as f64 * 2.0 / cal_s,
        checksums_match: heap_sum == cal_sum,
    }
}

/// Cancel storm: schedule `n`, cancel every other event, pop the
/// survivors. The heap cancels through the pre-refactor predicate
/// `remove_first` (linear scan + full drain-and-rebuild); the calendar
/// cancels by handle in O(1).
pub fn cancel_storm(n: usize, seed: u64) -> MicroResult {
    let cancels = n / 2;
    let ops = n as u64 + cancels as u64 + (n - cancels) as u64;
    let (heap_s, heap_sum) = {
        let mut q = BaselineHeap::new();
        let mut rng = Rng::new(seed);
        let start = Instant::now();
        for i in 0..n {
            q.push(SimTime::from_ps(rng.next_below(GAP_PS)), i as u64);
        }
        for victim in (0..n as u64).step_by(2) {
            q.remove_first(|&e| e == victim).expect("victim is pending");
        }
        let mut sum = 0u64;
        while let Some((t, e)) = q.pop() {
            sum = sum.wrapping_add(t.as_ps()).wrapping_add(e);
        }
        (start.elapsed().as_secs_f64(), black_box(sum))
    };
    let (cal_s, cal_sum) = {
        let mut q = EventQueue::new();
        let mut rng = Rng::new(seed);
        let start = Instant::now();
        let ids: Vec<_> = (0..n)
            .map(|i| q.schedule(SimTime::from_ps(rng.next_below(GAP_PS)), i as u64))
            .collect();
        for victim in (0..n).step_by(2) {
            assert!(q.cancel(ids[victim]).is_cancelled());
        }
        let mut sum = 0u64;
        while let Some((t, e)) = q.pop() {
            sum = sum.wrapping_add(t.as_ps()).wrapping_add(e);
        }
        (start.elapsed().as_secs_f64(), black_box(sum))
    };
    MicroResult {
        name: "cancel",
        events: ops,
        heap_eps: ops as f64 / heap_s,
        calendar_eps: ops as f64 / cal_s,
        checksums_match: heap_sum == cal_sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_pairs_agree_on_checksums() {
        // Tiny sizes: correctness of the pairing, not performance.
        assert!(hold_model(256, 2_000, 11).checksums_match);
        assert!(transient(2_000, 12).checksums_match);
        assert!(cancel_storm(500, 13).checksums_match);
    }
}
