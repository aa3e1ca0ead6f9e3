//! The OS bootstrap shim (§4.4).
//!
//! "We introduce a new syscall `uat_config` that allows PrivLib to
//! communicate with the OS. During initialization, the OS loads PrivLib
//! code, initializes the VMA table, creates initial privileged VMAs,
//! reserves the virtual memory region, and allocates a reserved physical
//! memory chunk to PrivLib. Such bootstrapping is indispensable as PrivLib
//! cannot load itself or create privileged VMAs before it is initialized."
//!
//! This module is that bootstrap: it builds a [`PrivLib`], installs the
//! initial privileged VMAs (PrivLib's code, stack, heap, and the PD
//! configuration region), programs `uatp`/`uatc` on every core, and sets a
//! global code VMA for the runtime. The steady state never re-enters the
//! OS except for physical-chunk refills, which `PrivLib::mmap` charges as
//! `uat_config` syscalls.

use jord_hw::types::{CoreId, PdId, Perm};
use jord_hw::{Csr, Machine};

use crate::error::PrivError;
use crate::privlib::{IsolationMode, PrivLib, TableChoice, TABLE_BASE};

/// Addresses of the initial VMAs installed at boot.
#[derive(Debug, Clone, Copy)]
pub struct BootVmas {
    /// PrivLib's own code (privileged, global R-X behind `uatg` gates).
    pub privlib_code: u64,
    /// PrivLib's private stack+heap (privileged).
    pub privlib_data: u64,
    /// The function code VMA the runtime grants/revokes per invocation.
    pub function_code: u64,
}

/// Boots PrivLib in full-isolation mode.
///
/// # Errors
///
/// Propagates allocation failures from the initial privileged mappings.
pub fn boot(machine: &mut Machine, choice: TableChoice) -> Result<PrivLib, PrivError> {
    boot_full(machine, choice, IsolationMode::Full).map(|(p, _)| p)
}

/// Boots PrivLib in isolation mode `mode` and also returns the initial VMA
/// addresses (the runtime needs PrivLib's code VMA to model call-gate
/// instruction fetches).
///
/// # Errors
///
/// Propagates allocation failures from the initial privileged mappings.
pub fn boot_full(
    machine: &mut Machine,
    choice: TableChoice,
    mode: IsolationMode,
) -> Result<(PrivLib, BootVmas), PrivError> {
    let mut privlib = PrivLib::new(choice, mode);
    let uatc = privlib.codec().to_uatc();
    let boot_core = CoreId(0);

    // Program uatp (table base | enable) and uatc on every core; the OS
    // treats them as process context.
    for c in 0..machine.config().cores {
        machine
            .csr_write(CoreId(c), Csr::Uatp, TABLE_BASE | 1, true)
            .expect("boot runs privileged");
        machine
            .csr_write(CoreId(c), Csr::Uatc, uatc, true)
            .expect("boot runs privileged");
    }

    let vmas = bootstrap_vmas(&mut privlib, machine, boot_core)?;
    Ok((privlib, vmas))
}

/// Installs the initial privileged VMAs; separated for tests that need the
/// addresses.
///
/// # Errors
///
/// Propagates allocation failures.
pub fn bootstrap_vmas(
    privlib: &mut PrivLib,
    machine: &mut Machine,
    core: CoreId,
) -> Result<BootVmas, PrivError> {
    use jord_vma::VteAttr;

    // PrivLib code: privileged + global R-X (enterable only via uatg).
    let (privlib_code, _) = privlib.mmap(machine, core, 256 << 10, Perm::RX, PdId::RUNTIME)?;
    privlib.set_attr(
        machine,
        core,
        privlib_code,
        VteAttr {
            valid: true,
            global: true,
            privileged: true,
            global_perm: Perm::RX,
        },
    )?;

    // PrivLib stack/heap: privileged, PrivLib-only.
    let (privlib_data, _) = privlib.mmap(machine, core, 1 << 20, Perm::RW, PdId::RUNTIME)?;
    privlib.set_attr(
        machine,
        core,
        privlib_data,
        VteAttr {
            valid: true,
            global: false,
            privileged: true,
            global_perm: Perm::NONE,
        },
    )?;

    // The registered function code region; executors pcopy/revoke X on it
    // per invocation (Figure 4).
    let (function_code, _) = privlib.mmap(machine, core, 16 << 20, Perm::RX, PdId::RUNTIME)?;

    Ok(BootVmas {
        privlib_code,
        privlib_data,
        function_code,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jord_hw::MachineConfig;

    #[test]
    fn boot_programs_csrs_on_all_cores() {
        let mut m = Machine::new(MachineConfig::isca25());
        let privlib = boot(&mut m, TableChoice::PlainList).unwrap();
        for c in 0..m.config().cores {
            let (uatp, _) = m.csr_read(CoreId(c), Csr::Uatp, true).unwrap();
            assert_eq!(uatp & 1, 1, "translation enabled on core {c}");
            assert_eq!(uatp & !0xFFF, TABLE_BASE);
        }
        assert!(privlib.live_vmas() >= 3, "boot installs initial VMAs");
    }

    #[test]
    fn boot_vmas_have_expected_attributes() {
        let mut m = Machine::new(MachineConfig::isca25());
        let mut privlib = PrivLib::new(TableChoice::PlainList, IsolationMode::Full);
        let vmas = bootstrap_vmas(&mut privlib, &mut m, CoreId(0)).unwrap();
        let (_, _, code) = privlib.peek_vma(vmas.privlib_code).unwrap();
        assert!(code.attr.privileged && code.attr.global);
        let (_, _, data) = privlib.peek_vma(vmas.privlib_data).unwrap();
        assert!(data.attr.privileged && !data.attr.global);
        let (_, _, func) = privlib.peek_vma(vmas.function_code).unwrap();
        assert!(!func.attr.privileged);
    }

    #[test]
    fn boot_works_for_btree_and_bypassed_modes() {
        let mut m = Machine::new(MachineConfig::isca25());
        let bt = boot(&mut m, TableChoice::BTree).unwrap();
        assert_eq!(bt.table_choice(), TableChoice::BTree);
        let mut m2 = Machine::new(MachineConfig::isca25());
        let ni = boot_full(&mut m2, TableChoice::PlainList, IsolationMode::Bypassed)
            .unwrap()
            .0;
        assert_eq!(ni.isolation_mode(), IsolationMode::Bypassed);
    }
}
