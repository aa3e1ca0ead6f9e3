//! The OS pipe cost model.
//!
//! An enhanced-NightCore message (dispatch, nested invocation, completion)
//! crosses one pipe: the sender pays a `write(2)` system call plus the data
//! copy into the kernel buffer; the receiver pays a `read(2)` system call,
//! the copy out, and — when it was blocked — a futex/scheduler wakeup.
//! Jord's whole point is that these per-message microseconds dwarf its
//! nanosecond-scale VTE operations (§2.1: communication accounts for up to
//! 70 % of function execution time in pipe/queue-based systems).
//!
//! The constants are calibrated against published pipe/futex
//! microbenchmarks on a current Linux kernel: ~400 ns per syscall, ~1.6 µs
//! wakeup, ~10 GB/s single-threaded copy.

use jord_sim::SimDuration;

/// One system call (entry + exit + kernel pipe work), ns.
pub const SYSCALL_NS: f64 = 400.0;
/// Waking a blocked receiver thread (futex + scheduler + cache warmup),
/// ns.
pub const WAKEUP_NS: f64 = 1600.0;
/// Copy bandwidth through the kernel buffer, bytes per ns (both the
/// copy-in and the copy-out pay it).
pub const COPY_BYTES_PER_NS: f64 = 10.0;
/// Serialization/deserialization work per message byte, ns (NightCore's
/// message framing; cheap but nonzero).
pub const SERDES_NS_PER_BYTE: f64 = 0.05;

/// Cost of one one-way message of `bytes`, with or without a receiver
/// wakeup (a spinning receiver skips the futex path).
pub fn message(bytes: u64, wakeup: bool) -> SimDuration {
    send(bytes, wakeup) + recv(bytes)
}

/// Sender-side cost: `write(2)`, copy-in, serialization, and — when the
/// receiver is blocked — the futex wakeup (paid by the waker).
pub fn send(bytes: u64, wakeup: bool) -> SimDuration {
    let b = bytes as f64;
    let ns = SYSCALL_NS
        + b / COPY_BYTES_PER_NS
        + b * SERDES_NS_PER_BYTE
        + if wakeup { WAKEUP_NS } else { 0.0 };
    SimDuration::from_ns_f64(ns)
}

/// Receiver-side cost: `read(2)`, copy-out, deserialization.
pub fn recv(bytes: u64) -> SimDuration {
    let b = bytes as f64;
    let ns = SYSCALL_NS + b / COPY_BYTES_PER_NS + b * SERDES_NS_PER_BYTE;
    SimDuration::from_ns_f64(ns)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
