//! The run audit: one definition of "a run ended clean".
//!
//! [`WorkerServer::audit`] and [`ClusterDispatcher::audit`] check a sealed
//! run against the request and memory ledgers and against what the
//! Figure 4 lifecycle promises — an invocation's PD, VMAs and ArgBufs are
//! gone when it ends — and return every [`Violation`] they find.
//! Campaigns, tests, examples and the debug-build seals all call them
//! instead of keeping copies of their own. They only read state, and
//! release-mode runs never call them, so no simulated value moves.
//!
//! [`WorkerServer::audit`]: crate::WorkerServer::audit
//! [`ClusterDispatcher::audit`]: crate::ClusterDispatcher::audit

use std::fmt;

use crate::memory::MemoryLedger;

/// Which memory ledger a [`Violation::MemoryLedger`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerCopy {
    /// The ledger sealed into the run report.
    Report,
    /// The worker's live counters.
    Live,
    /// A cluster report's fleet roll-up.
    Fleet,
}

/// Which witness a [`Violation::Journal`] compared, as `left` vs `right`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalCheck {
    /// The in-flight table replayed from the durable log vs the lifecycle
    /// engine's admitted rows.
    ReplayedInFlight,
    /// The pending-retry table replayed from the durable log vs the
    /// lifecycle engine's retry-waiting rows.
    ReplayedPending,
    /// The lifecycle engine's admitted rows vs the slab's external
    /// requests.
    SlabExternals,
}

/// One broken invariant, with the numbers that break it (the field names
/// say what each counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// `offered != completed + failed + shed`: a request was lost or
    /// counted twice.
    RequestLedger {
        offered: u64,
        completed: u64,
        failed: u64,
        shed: u64,
    },
    /// `mapped != resident + reclaimed` in the named ledger.
    MemoryLedger {
        copy: LedgerCopy,
        mapped: u64,
        resident: u64,
        reclaimed: u64,
    },
    /// Invocation records or lifecycle request rows outlived the run.
    Unsettled { invocations: usize, requests: usize },
    /// Live VMAs differ from the pristine image's count.
    VmaLeak { live: usize, boot: usize },
    /// Live PDs differ from the pristine image's count.
    PdLeak { live: usize, boot: usize },
    /// The warm PD pool or its claim registry still holds entries.
    PoolNotDrained { pooled: usize, claimed: usize },
    /// A PD id that is not live still holds grants: the next `cget` of
    /// that id would inherit them.
    GrantOutlivesPd { pd: u16, grants: usize },
    /// Journal replay disagrees with a live witness; both sides are
    /// sorted slab indices or retry tokens.
    Journal {
        check: JournalCheck,
        left: Vec<u64>,
        right: Vec<u64>,
    },
    /// The cluster dispatcher lost track of requests.
    Lost { lost: u64 },
    /// A cluster's worker `worker` failed its own audit.
    Worker {
        worker: usize,
        violation: Box<Violation>,
    },
}

impl Violation {
    pub(crate) fn request_ledger(
        offered: u64,
        completed: u64,
        failed: u64,
        shed: u64,
    ) -> Option<Self> {
        (offered != completed + failed + shed).then_some(Violation::RequestLedger {
            offered,
            completed,
            failed,
            shed,
        })
    }

    pub(crate) fn memory_ledger(copy: LedgerCopy, ledger: &MemoryLedger) -> Option<Self> {
        (!ledger.balanced()).then_some(Violation::MemoryLedger {
            copy,
            mapped: ledger.mapped_bytes,
            resident: ledger.resident_bytes,
            reclaimed: ledger.reclaimed_bytes,
        })
    }
}

/// Every violation an audit found; never empty. `Display` prints each
/// with its numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// The violations, in the order the audit checked them.
    pub violations: Vec<Violation>,
}

impl AuditError {
    /// `Ok` when `violations` is empty, else the error carrying them.
    pub(crate) fn check(violations: Vec<Violation>) -> Result<(), AuditError> {
        if violations.is_empty() {
            Ok(())
        } else {
            Err(AuditError { violations })
        }
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit found {} violation(s)", self.violations.len())?;
        self.violations
            .iter()
            .try_for_each(|v| write!(f, "; {v:?}"))
    }
}

impl std::error::Error for AuditError {}
