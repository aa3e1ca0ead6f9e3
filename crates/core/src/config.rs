//! Runtime configuration and the four evaluated systems (§5).

use core::fmt;

use jord_hw::{CrashScope, InjectConfig, MachineConfig};
use jord_privlib::{IsolationMode, PrivError, TableChoice};

use crate::memory::MemoryConfig;
use crate::recovery::CrashConfig;

/// A problem detected while validating or booting a runtime configuration.
///
/// Typed (like [`jord_hw::Fault`]) so callers can match on the cause
/// instead of parsing strings.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The hardware description is invalid.
    Machine {
        /// The machine validator's diagnosis.
        reason: String,
    },
    /// No orchestrator cores were requested.
    NoOrchestrators,
    /// Orchestrators would occupy every core, leaving no executors.
    NoExecutorCores {
        /// Requested orchestrator count.
        orchestrators: usize,
        /// Machine core count.
        cores: usize,
    },
    /// The JBSQ bound is zero (nothing could ever be dispatched).
    ZeroQueueBound,
    /// The fault-injection rates are not probabilities.
    Inject {
        /// The injection validator's diagnosis.
        reason: String,
    },
    /// The recovery policy is malformed.
    Recovery {
        /// What is wrong with it.
        reason: String,
    },
    /// The crash-recovery configuration is malformed.
    Crash {
        /// What is wrong with it.
        reason: String,
    },
    /// The cluster configuration is malformed.
    Cluster {
        /// What is wrong with it.
        reason: String,
    },
    /// The memory-governor configuration is malformed.
    Memory {
        /// What is wrong with it.
        reason: String,
    },
    /// A workload description (mix, arrival process) is malformed.
    Workload {
        /// What is wrong with it.
        reason: String,
    },
    /// No functions are deployed in the registry.
    NoFunctions,
    /// PrivLib boot or initial VMA allocation failed.
    Boot(PrivError),
    /// A setting the variant has no mechanism to act on: NightCore has no
    /// PD to fault, time out, tear down or sanitize.
    Unsupported {
        /// The variant that cannot honour the setting.
        variant: SystemVariant,
        /// The setting, as its path in [`RuntimeConfig`].
        setting: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Machine { reason } => write!(f, "invalid machine config: {reason}"),
            ConfigError::NoOrchestrators => write!(f, "need at least one orchestrator"),
            ConfigError::NoExecutorCores {
                orchestrators,
                cores,
            } => write!(
                f,
                "{orchestrators} orchestrators leave no executor cores on a {cores}-core machine"
            ),
            ConfigError::ZeroQueueBound => write!(f, "JBSQ bound must be positive"),
            ConfigError::Inject { reason } => write!(f, "invalid injection config: {reason}"),
            ConfigError::Recovery { reason } => write!(f, "invalid recovery policy: {reason}"),
            ConfigError::Crash { reason } => write!(f, "invalid crash config: {reason}"),
            ConfigError::Cluster { reason } => write!(f, "invalid cluster config: {reason}"),
            ConfigError::Memory { reason } => write!(f, "invalid memory config: {reason}"),
            ConfigError::Workload { reason } => write!(f, "invalid workload: {reason}"),
            ConfigError::NoFunctions => write!(f, "no functions deployed"),
            ConfigError::Boot(e) => write!(f, "runtime boot failed: {e}"),
            ConfigError::Unsupported { variant, setting } => {
                write!(f, "{setting} cannot act on {}", variant.label())
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Boot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PrivError> for ConfigError {
    fn from(e: PrivError) -> Self {
        ConfigError::Boot(e)
    }
}

/// The systems of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemVariant {
    /// Jord: plain-list VMA table, full in-process isolation.
    Jord,
    /// Jord_NI: all isolation bypassed — idealized but insecure upper bound.
    JordNi,
    /// Jord_BT: full isolation with the B-tree VMA table (Figure 13).
    JordBt,
    /// The enhanced NightCore baseline (Jia & Witchel, ASPLOS '21): no
    /// isolation, and dispatch, nested calls and results cross OS pipes.
    /// The `server::pipes` module lists everything it does differently.
    NightCore,
}

impl SystemVariant {
    /// Every system, in the order the paper introduces them.
    pub const ALL: [SystemVariant; 4] = [
        SystemVariant::Jord,
        SystemVariant::JordNi,
        SystemVariant::JordBt,
        SystemVariant::NightCore,
    ];

    /// PrivLib table choice for this variant.
    pub fn table(self) -> TableChoice {
        match self {
            SystemVariant::Jord | SystemVariant::JordNi | SystemVariant::NightCore => {
                TableChoice::PlainList
            }
            SystemVariant::JordBt => TableChoice::BTree,
        }
    }

    /// PrivLib isolation mode for this variant.
    pub fn isolation(self) -> IsolationMode {
        match self {
            SystemVariant::Jord | SystemVariant::JordBt => IsolationMode::Full,
            SystemVariant::JordNi | SystemVariant::NightCore => IsolationMode::Bypassed,
        }
    }

    /// True when requests and results cross OS pipes instead of ArgBufs
    /// (NightCore).
    pub fn pipes(self) -> bool {
        self == SystemVariant::NightCore
    }

    /// Display label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemVariant::Jord => "Jord",
            SystemVariant::JordNi => "Jord_NI",
            SystemVariant::JordBt => "Jord_BT",
            SystemVariant::NightCore => "NightCore",
        }
    }
}

/// Cross-server spill of internal requests (§3.3): "for internal requests
/// that cannot be served on the current worker server, the orchestrator
/// sends them through the network to find another worker server for
/// execution."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillConfig {
    /// Network round trip to a peer worker server, µs.
    pub network_rtt_us: f64,
    /// Spill an internal request once the orchestrator's internal backlog
    /// exceeds this depth while every local executor queue is full.
    pub backlog_threshold: usize,
    /// Peer servers are assumed unloaded; their execution time is the
    /// function tree's mean compute scaled by this factor (>1 models a
    /// slower/farther peer).
    pub remote_slowdown: f64,
}

impl Default for SpillConfig {
    fn default() -> Self {
        SpillConfig {
            network_rtt_us: 12.0,
            backlog_threshold: 16,
            remote_slowdown: 1.2,
        }
    }
}

/// Fault-handling policy: what the orchestrator does when an invocation
/// faults, runs past its deadline, or arrives into a saturated queue
/// (graceful degradation, not collapse).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Failed *external* requests are re-dispatched up to this many times
    /// (internal failures propagate to the parent instead, which aborts
    /// and lets its own external ancestor retry the whole tree).
    pub max_retries: u32,
    /// First retry delay, µs; doubles per attempt (exponential backoff).
    pub backoff_base_us: f64,
    /// Backoff ceiling, µs.
    pub backoff_cap_us: f64,
    /// Per-invocation execution deadline, µs (measured from the moment the
    /// executor starts it). Runaway invocations are killed when they blow
    /// past it. `None` disables the timeout.
    pub deadline_us: Option<f64>,
    /// Admission control: shed an arriving external request when its
    /// orchestrator's external queue already holds this many. `None`
    /// disables shedding.
    pub shed_bound: Option<usize>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            backoff_base_us: 2.0,
            backoff_cap_us: 64.0,
            deadline_us: None,
            shed_bound: None,
        }
    }
}

impl RecoveryPolicy {
    /// The delay before re-dispatching attempt `attempt + 1`: capped
    /// exponential backoff.
    ///
    /// The exponent is clamped to the saturation point — the smallest
    /// number of doublings that already reaches the cap — *before* the
    /// `2^attempt` is computed, so huge attempt counts can never push the
    /// intermediate product through overflow into infinity (or, with a
    /// zero base, into `0 × ∞ = NaN`).
    pub fn backoff(&self, attempt: u32) -> jord_sim::SimDuration {
        let base = self.backoff_base_us;
        let cap = self.backoff_cap_us;
        if base <= 0.0 || cap <= 0.0 {
            return jord_sim::SimDuration::ZERO;
        }
        let saturation = (cap / base).log2().ceil().max(0.0) as u32;
        let us = if attempt >= saturation {
            cap
        } else {
            // attempt < saturation ≤ ~2098 for any finite f64 pair, so the
            // i32 cast is safe and the product stays finite.
            (base * 2f64.powi(attempt as i32)).min(cap)
        };
        jord_sim::SimDuration::from_ns_f64(us * 1_000.0)
    }

    /// The smallest attempt index whose backoff already equals the cap
    /// (every later attempt waits exactly the cap).
    pub fn backoff_saturation(&self) -> u32 {
        if self.backoff_base_us <= 0.0 || self.backoff_cap_us <= 0.0 {
            return 0;
        }
        (self.backoff_cap_us / self.backoff_base_us)
            .log2()
            .ceil()
            .max(0.0) as u32
    }

    /// Checks the policy's numeric fields.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        // Written to also reject NaN in either field.
        let ordered = self.backoff_base_us >= 0.0 && self.backoff_cap_us >= self.backoff_base_us;
        if !ordered {
            return Err(format!(
                "backoff must satisfy 0 <= base ({}) <= cap ({})",
                self.backoff_base_us, self.backoff_cap_us
            ));
        }
        if let Some(d) = self.deadline_us {
            // NaN fails the comparison and lands here too.
            if d.is_nan() || d <= 0.0 {
                return Err(format!("deadline_us must be positive, got {d}"));
            }
        }
        if self.shed_bound == Some(0) {
            return Err("shed_bound of 0 would shed every request".into());
        }
        Ok(())
    }
}

/// The JBSQ bound [`RuntimeConfig::variant_on`] starts from: at most four
/// outstanding requests per executor queue, for NightCore as for Jord (the
/// paper's enhancement gives NightCore Jord's JBSQ dispatch).
pub const DEFAULT_QUEUE_BOUND: usize = 4;

/// Worker-server runtime parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The simulated hardware.
    pub machine: MachineConfig,
    /// The system variant.
    pub variant: SystemVariant,
    /// Number of orchestrator threads (each pinned to a core and managing a
    /// contiguous, proximate group of executors — §3.3).
    pub orchestrators: usize,
    /// JBSQ bound: maximum outstanding requests per executor queue.
    pub queue_bound: usize,
    /// RNG seed (experiments are reproducible bit-for-bit from this).
    pub seed: u64,
    /// Cross-server spill of internal requests (`None` = single server,
    /// the §6 evaluation setup).
    pub spill: Option<SpillConfig>,
    /// Deterministic fault injection (`None` = clean run, the §6 setup).
    pub inject: Option<InjectConfig>,
    /// Fault-handling policy (retry / deadline / shed knobs).
    pub recovery: RecoveryPolicy,
    /// Crash recovery: turning this on activates the write-ahead
    /// invocation journal and periodic checkpoints, and optionally injects
    /// a component crash (`None` = no journal, the PR-1 behavior).
    pub crash: Option<CrashConfig>,
    /// PD snapshot sanitization (Groundhog-style): capture each PD's
    /// pristine layout after setup and restore-by-diff at teardown,
    /// pooling the sanitized PD for the next invocation of the same
    /// function instead of destroying it.
    pub sanitize: bool,
    /// Memory-governor tuning: the resident budget the pressure ladder is
    /// anchored to, warm-pool idle/size eviction, and the VMA-table
    /// compaction threshold.
    pub memory: MemoryConfig,
}

impl RuntimeConfig {
    /// Jord on the Table 2 machine: 32 cores, 4 orchestrators + 28
    /// executors.
    pub fn jord_32() -> Self {
        RuntimeConfig::variant_on(SystemVariant::Jord, MachineConfig::isca25())
    }

    /// A variant on a given machine, with orchestrator count scaled one per
    /// 8 cores (minimum 1) — enough dispatch capacity that executors, not
    /// orchestrators, saturate first on the nesting-light workloads.
    pub fn variant_on(variant: SystemVariant, machine: MachineConfig) -> Self {
        let orchestrators = (machine.cores / 8).max(1);
        RuntimeConfig {
            machine,
            variant,
            orchestrators,
            queue_bound: DEFAULT_QUEUE_BOUND,
            seed: 42,
            spill: None,
            inject: None,
            recovery: RecoveryPolicy::default(),
            crash: None,
            sanitize: false,
            memory: MemoryConfig::default(),
        }
    }

    /// Enables cross-server spill of internal requests (§3.3).
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Overrides the orchestrator count (Figure 14's single-orchestrator
    /// scalability study).
    pub fn with_orchestrators(mut self, n: usize) -> Self {
        self.orchestrators = n;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables deterministic fault injection.
    pub fn with_inject(mut self, inject: InjectConfig) -> Self {
        self.inject = Some(inject);
        self
    }

    /// Overrides the fault-handling policy.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Enables the write-ahead journal (and, if the config plans one, a
    /// component crash).
    pub fn with_crash(mut self, crash: CrashConfig) -> Self {
        self.crash = Some(crash);
        self
    }

    /// Enables PD snapshot sanitization.
    pub fn with_sanitize(mut self, on: bool) -> Self {
        self.sanitize = on;
        self
    }

    /// Overrides the memory-governor tuning.
    pub fn with_memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }

    /// Number of executor threads.
    pub fn executors(&self) -> usize {
        self.machine.cores - self.orchestrators
    }

    /// Validates the configuration.
    ///
    /// NightCore creates no PD, so it rejects, as
    /// [`ConfigError::Unsupported`], every setting that acts only through
    /// one: `inject`, `recovery.deadline_us`, an executor or orchestrator
    /// crash, and `sanitize`. Retries and backoff stay accepted; without
    /// those settings nothing on NightCore fails in a way they retry.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] detected.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.machine
            .validate()
            .map_err(|reason| ConfigError::Machine { reason })?;
        if self.orchestrators == 0 {
            return Err(ConfigError::NoOrchestrators);
        }
        if self.orchestrators >= self.machine.cores {
            return Err(ConfigError::NoExecutorCores {
                orchestrators: self.orchestrators,
                cores: self.machine.cores,
            });
        }
        if self.queue_bound == 0 {
            return Err(ConfigError::ZeroQueueBound);
        }
        if let Some(inject) = &self.inject {
            inject
                .validate()
                .map_err(|reason| ConfigError::Inject { reason })?;
        }
        self.recovery
            .validate()
            .map_err(|reason| ConfigError::Recovery { reason })?;
        if let Some(crash) = &self.crash {
            crash.validate(self.orchestrators, self.executors())?;
        }
        self.memory
            .validate()
            .map_err(|reason| ConfigError::Memory { reason })?;
        if self.variant.pipes() {
            if let Some(setting) = self.needs_pds() {
                return Err(ConfigError::Unsupported {
                    variant: self.variant,
                    setting,
                });
            }
        }
        Ok(())
    }

    /// The first setting that acts only through per-invocation PDs: a
    /// fault or a blown deadline aborts through the PD teardown, a
    /// component crash kills running continuations through it (or fails
    /// their children, which aborts them), and sanitization restores a PD.
    fn needs_pds(&self) -> Option<&'static str> {
        let component_crash = self
            .crash
            .and_then(|c| c.plan)
            .is_some_and(|p| p.scope != CrashScope::Worker);
        [
            (self.inject.is_some(), "inject"),
            (self.recovery.deadline_us.is_some(), "recovery.deadline_us"),
            (component_crash, "crash.plan.scope"),
            (self.sanitize, "sanitize"),
        ]
        .into_iter()
        .find_map(|(set, setting)| set.then_some(setting))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_map_to_privlib_modes() {
        assert_eq!(SystemVariant::Jord.table(), TableChoice::PlainList);
        assert_eq!(SystemVariant::JordBt.table(), TableChoice::BTree);
        assert_eq!(SystemVariant::JordNi.isolation(), IsolationMode::Bypassed);
        assert_eq!(SystemVariant::Jord.isolation(), IsolationMode::Full);
        assert_eq!(SystemVariant::JordNi.label(), "Jord_NI");
        assert_eq!(SystemVariant::NightCore.table(), TableChoice::PlainList);
        assert_eq!(
            SystemVariant::NightCore.isolation(),
            IsolationMode::Bypassed
        );
        assert_eq!(SystemVariant::NightCore.label(), "NightCore");
        let piped: Vec<_> = SystemVariant::ALL.iter().map(|v| v.pipes()).collect();
        assert_eq!(piped, [false, false, false, true]);
    }

    fn nightcore() -> RuntimeConfig {
        RuntimeConfig::variant_on(SystemVariant::NightCore, MachineConfig::isca25())
    }

    /// Each setting that acts only through per-invocation PDs is rejected
    /// on NightCore, by name, and stays legal on Jord.
    #[test]
    fn nightcore_rejects_every_setting_that_needs_a_pd() {
        use crate::recovery::{CrashConfig, CrashSemantics};
        use jord_hw::CrashPlan;
        let deadline = RecoveryPolicy {
            deadline_us: Some(5.0),
            ..RecoveryPolicy::default()
        };
        let crash = |plan| CrashConfig::new(plan, CrashSemantics::AtLeastOnce);
        let cases = [
            (nightcore().with_inject(InjectConfig::faults(0.2)), "inject"),
            (nightcore().with_sanitize(true), "sanitize"),
            (nightcore().with_recovery(deadline), "recovery.deadline_us"),
            (
                nightcore().with_crash(crash(CrashPlan::executor_at(5.0, 0))),
                "crash.plan.scope",
            ),
            (
                nightcore().with_crash(crash(CrashPlan::orchestrator_at(5.0, 0))),
                "crash.plan.scope",
            ),
        ];
        for (cfg, setting) in cases {
            let err = ConfigError::Unsupported {
                variant: SystemVariant::NightCore,
                setting,
            };
            assert_eq!(cfg.validate(), Err(err.clone()));
            assert_eq!(
                err.to_string(),
                format!("{setting} cannot act on NightCore")
            );
            let jord = RuntimeConfig {
                variant: SystemVariant::Jord,
                ..cfg
            };
            jord.validate()
                .unwrap_or_else(|e| panic!("{setting} is legal on Jord: {e}"));
        }
    }

    /// What NightCore keeps: the journal and a whole-worker crash, spill,
    /// the shed bound, the JBSQ bound and the memory budget. Their effect
    /// is tested beside the pipe legs, in `server::pipes`.
    #[test]
    fn nightcore_accepts_every_setting_it_can_act_on() {
        use crate::recovery::{CrashConfig, CrashSemantics};
        use jord_hw::CrashPlan;
        let policy = RecoveryPolicy {
            shed_bound: Some(8),
            ..RecoveryPolicy::default()
        };
        let crash = CrashConfig::new(CrashPlan::worker_at(5.0), CrashSemantics::AtMostOnce);
        let mut c = nightcore()
            .with_spill(SpillConfig::default())
            .with_recovery(policy)
            .with_crash(crash)
            .with_memory(MemoryConfig::default());
        c.queue_bound = 2;
        c.validate().expect("NightCore acts on all of these");
    }

    #[test]
    fn default_32_core_split_is_4_plus_28() {
        let c = RuntimeConfig::jord_32();
        assert_eq!(c.orchestrators, 4);
        assert_eq!(c.executors(), 28);
        c.validate().expect("default config valid");
    }

    #[test]
    fn orchestrators_scale_with_cores() {
        let c = RuntimeConfig::variant_on(SystemVariant::Jord, MachineConfig::scaled(256));
        assert_eq!(c.orchestrators, 32);
        let c = RuntimeConfig::variant_on(SystemVariant::Jord, MachineConfig::scaled(16));
        assert_eq!(c.orchestrators, 2);
    }

    #[test]
    fn validation_rejects_degenerate_splits() {
        let mut c = RuntimeConfig::jord_32();
        c.orchestrators = 32;
        assert_eq!(
            c.validate(),
            Err(ConfigError::NoExecutorCores {
                orchestrators: 32,
                cores: 32
            })
        );
        let mut c = RuntimeConfig::jord_32();
        c.orchestrators = 0;
        assert_eq!(c.validate(), Err(ConfigError::NoOrchestrators));
        let mut c = RuntimeConfig::jord_32();
        c.queue_bound = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroQueueBound));
    }

    #[test]
    fn validation_rejects_bad_injection_and_recovery() {
        let c = RuntimeConfig::jord_32().with_inject(InjectConfig::faults(2.0));
        assert!(matches!(c.validate(), Err(ConfigError::Inject { .. })));
        let policy = RecoveryPolicy {
            shed_bound: Some(0),
            ..RecoveryPolicy::default()
        };
        let c = RuntimeConfig::jord_32().with_recovery(policy);
        assert!(matches!(c.validate(), Err(ConfigError::Recovery { .. })));
        let policy = RecoveryPolicy {
            deadline_us: Some(-1.0),
            ..RecoveryPolicy::default()
        };
        assert!(policy.validate().is_err());
        let policy = RecoveryPolicy {
            backoff_cap_us: RecoveryPolicy::default().backoff_base_us / 2.0,
            ..RecoveryPolicy::default()
        };
        assert!(policy.validate().is_err());
    }

    #[test]
    fn config_error_implements_error_and_displays() {
        fn takes_error<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes_error(ConfigError::NoOrchestrators);
        let msg = ConfigError::NoExecutorCores {
            orchestrators: 4,
            cores: 4,
        }
        .to_string();
        assert!(msg.contains("4 orchestrators"), "{msg}");
        assert!(ConfigError::ZeroQueueBound.to_string().contains("JBSQ"));
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RecoveryPolicy {
            backoff_base_us: 2.0,
            backoff_cap_us: 10.0,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.backoff(0).as_ns_f64(), 2_000.0);
        assert_eq!(p.backoff(1).as_ns_f64(), 4_000.0);
        assert_eq!(p.backoff(2).as_ns_f64(), 8_000.0);
        assert_eq!(p.backoff(3).as_ns_f64(), 10_000.0, "capped");
        assert_eq!(p.backoff(30).as_ns_f64(), 10_000.0);
    }

    #[test]
    fn backoff_saturates_exactly_at_the_clamp_point() {
        // cap/base = 32: five doublings reach the cap, so attempt 5 is the
        // first saturated one and every attempt before it still doubles.
        let p = RecoveryPolicy {
            backoff_base_us: 2.0,
            backoff_cap_us: 64.0,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.backoff_saturation(), 5);
        assert_eq!(p.backoff(4).as_ns_f64(), 32_000.0, "last unsaturated");
        assert_eq!(p.backoff(5).as_ns_f64(), 64_000.0, "first saturated");
        assert_eq!(p.backoff(6).as_ns_f64(), 64_000.0);
    }

    #[test]
    fn backoff_of_huge_attempts_stays_finite_at_the_cap() {
        let p = RecoveryPolicy {
            backoff_base_us: 2.0,
            backoff_cap_us: 64.0,
            ..RecoveryPolicy::default()
        };
        // Before the clamp fix, 2^(2^31 - 1) overflowed to infinity.
        for attempt in [31, 64, 1_000, u32::MAX] {
            let ns = p.backoff(attempt).as_ns_f64();
            assert!(ns.is_finite(), "attempt {attempt} gave {ns}");
            assert_eq!(ns, 64_000.0);
        }
        // An extreme cap/base ratio must also survive: the doubling can
        // overflow to ∞ mid-computation, but min(cap) recovers it and the
        // zero-base guard prevents the 0 × ∞ NaN.
        let p = RecoveryPolicy {
            backoff_base_us: 1e-300,
            backoff_cap_us: 1e300,
            ..RecoveryPolicy::default()
        };
        assert!(p.backoff(u32::MAX).as_ns_f64().is_finite());
    }

    #[test]
    fn backoff_degenerate_bases_yield_zero() {
        let p = RecoveryPolicy {
            backoff_base_us: 0.0,
            backoff_cap_us: 64.0,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.backoff(0).as_ns_f64(), 0.0);
        assert_eq!(p.backoff(u32::MAX).as_ns_f64(), 0.0);
        assert_eq!(p.backoff_saturation(), 0);
        // base == cap: saturated from the very first attempt.
        let p = RecoveryPolicy {
            backoff_base_us: 8.0,
            backoff_cap_us: 8.0,
            ..RecoveryPolicy::default()
        };
        assert_eq!(p.backoff_saturation(), 0);
        assert_eq!(p.backoff(0).as_ns_f64(), 8_000.0);
    }

    #[test]
    fn validation_covers_crash_config() {
        use crate::recovery::{CrashConfig, CrashSemantics};
        use jord_hw::CrashPlan;
        let c = RuntimeConfig::jord_32().with_crash(CrashConfig::default());
        c.validate().expect("journal-only crash config valid");
        // jord_32 has 28 executors: index 28 is out of range.
        let c = RuntimeConfig::jord_32().with_crash(CrashConfig::new(
            CrashPlan::executor_at(5.0, 28),
            CrashSemantics::AtLeastOnce,
        ));
        assert!(matches!(c.validate(), Err(ConfigError::Crash { .. })));
        let msg = ConfigError::Crash { reason: "x".into() }.to_string();
        assert!(msg.contains("crash"), "{msg}");
    }
}
