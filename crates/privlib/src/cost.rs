//! Instruction-work cost constants for PrivLib operations.
//!
//! The hardware model charges memory traffic (VTE accesses, free-list
//! atomics, shootdowns) from first principles; what remains is the plain
//! instruction execution of each PrivLib routine — size-class arithmetic,
//! policy checks, register save/restore. Those constants are calibrated
//! once so that the *simulator* column of Table 4 is reproduced on the
//! Table 2 machine with warm caches; the FPGA column then follows from the
//! config's `ipc_factor` alone (the Table 4 footnote: identical SRAM/raw
//! latencies, lower IPC on instruction execution). The paper reports one
//! latency per operation, so there is one constant per operation; the
//! `jord-bench table4` and `tests/latency.rs` verify the fit.
//!
//! Instruction work (nanoseconds at IPC factor 1.0) scales with
//! `ipc_factor`; hardware FSM work (the VTW) and memory latencies do not.

/// VTW finite-state-machine overhead per walk, ns (hardware; never scaled
/// by `ipc_factor`). Table 4: lookup = 2 ns with the VTE in L1D.
pub(crate) const VTW_FSM_NS: f64 = 1.5;
/// `mmap`: size-class selection, free-list bookkeeping, VTE setup, ns.
pub(crate) const MMAP_NS: f64 = 12.5;
/// `munmap`: unlink, sharer teardown, free-list return, ns.
pub(crate) const MUNMAP_NS: f64 = 23.0;
/// `mprotect` / permission update, ns.
pub(crate) const MPROTECT_NS: f64 = 13.0;
/// `pmove`/`pcopy` permission transfer, ns.
pub(crate) const PTRANSFER_NS: f64 = 13.0;
/// `cget` PD creation, ns.
pub(crate) const CGET_NS: f64 = 8.5;
/// `cput` PD destruction, ns.
pub(crate) const CPUT_NS: f64 = 12.0;
/// `ccall`/`center`/`cexit` context switch (register file save/restore
/// plus the `ucid` update), ns.
pub(crate) const CSWITCH_NS: f64 = 10.0;
/// Mandatory security policy checks at every gated entry (§3.2), ns.
pub(crate) const POLICY_CHECK_NS: f64 = 1.0;
/// Front-end restart after an I-VLB miss: the fetch stage stalls for the
/// walk and the pipeline refills behind it, ns.
pub(crate) const IFETCH_RESTART_NS: f64 = 3.0;
/// The `uat_config` syscall round trip (OS refill path, §4.4), ns.
pub(crate) const UAT_CONFIG_SYSCALL_NS: f64 = 1200.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_values_are_nanosecond_scale() {
        for v in [
            VTW_FSM_NS,
            MMAP_NS,
            MUNMAP_NS,
            MPROTECT_NS,
            PTRANSFER_NS,
            CGET_NS,
            CPUT_NS,
            CSWITCH_NS,
            POLICY_CHECK_NS,
            IFETCH_RESTART_NS,
        ] {
            assert!(
                v > 0.0 && v < 50.0,
                "PrivLib op work must be ns-scale, got {v}"
            );
        }
        const { assert!(UAT_CONFIG_SYSCALL_NS > 500.0, "syscalls are µs-scale") };
    }
}
