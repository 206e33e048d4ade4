//! Simulation configuration.

use offchip_cache::ReplacementPolicy;
use offchip_obs::ObsLevel;
use offchip_topology::{AllocationPolicy, MachineSpec, SpecError};

/// Why a [`SimConfig`] cannot be simulated.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The machine specification itself is inconsistent.
    Machine(SpecError),
    /// `n_cores` is zero or exceeds the machine's core count.
    CoresOutOfRange {
        /// The requested core count.
        n_cores: usize,
        /// The machine's total logical cores.
        total: usize,
    },
    /// Zero MSHRs would deadlock every miss.
    ZeroMshrs,
    /// A zero scheduler or synchronisation quantum.
    ZeroQuantum,
    /// The page size is not a power of two at least one cache line large.
    BadPageSize {
        /// The configured page size.
        page_bytes: u64,
        /// The machine's cache-line size.
        line_bytes: u32,
    },
    /// The sampler window is zero.
    ZeroSamplerWindow,
    /// The sweep-engine worker budget (`--jobs` / `OFFCHIP_JOBS`) is zero
    /// or not an integer.
    BadJobs {
        /// The offending value, verbatim.
        value: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Machine(e) => write!(f, "machine spec invalid: {e}"),
            ConfigError::CoresOutOfRange { n_cores, total } => write!(
                f,
                "n_cores {n_cores} outside 1..={total} — pass --cores within \
                 the machine's range"
            ),
            ConfigError::ZeroMshrs => write!(f, "mshr_per_core must be positive"),
            ConfigError::ZeroQuantum => write!(f, "quanta must be positive"),
            ConfigError::BadPageSize {
                page_bytes,
                line_bytes,
            } => write!(
                f,
                "page size {page_bytes} must be a power of two >= line size {line_bytes}"
            ),
            ConfigError::ZeroSamplerWindow => write!(f, "sampler window must be positive"),
            ConfigError::BadJobs { value } => write!(
                f,
                "jobs value {value:?} invalid — pass a positive integer to \
                 --jobs / OFFCHIP_JOBS"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<SpecError> for ConfigError {
    fn from(e: SpecError) -> ConfigError {
        ConfigError::Machine(e)
    }
}

/// Which memory-controller scheduler to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum McScheduler {
    /// In-order per-channel service (reservation-style, fastest).
    #[default]
    Fcfs,
    /// First-ready FCFS with row-hit priority and a starvation cap.
    FrFcfs,
}

/// How memory pages are assigned to controllers on NUMA machines.
///
/// The paper pins threads with `sched_setaffinity` and applies "the NUMA
/// policy … using numactl" (§III-A); its measurements show the second
/// controller relieving contention the moment the first core of the second
/// processor activates (the sharp ω dip at n = 13 in Fig. 5b), which is
/// the signature of pages interleaved across the *active* controllers.
/// First-touch placement is kept as an ablation: it delays the relief
/// until enough threads actually live on the second socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryPolicy {
    /// Pages interleave round-robin across the controllers local to
    /// sockets that have at least one active core (numactl-style).
    #[default]
    InterleaveActive,
    /// Linux first-touch: a page lives on the home controller of the
    /// thread that first touches it.
    FirstTouch,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The machine to simulate (usually a scaled paper preset).
    pub machine: MachineSpec,
    /// Core activation policy.
    pub policy: AllocationPolicy,
    /// Number of active cores, `1..=machine.total_cores()`.
    pub n_cores: usize,
    /// Random seed for workload streams and any stochastic machinery.
    pub seed: u64,
    /// Scheduler quantum in cycles for time-slicing oversubscribed cores.
    pub quantum_cycles: u64,
    /// Direct cost of a thread switch, charged to the core (cycles).
    pub context_switch_cycles: u64,
    /// Per-core MSHR entries: the bound on overlapped misses.
    pub mshr_per_core: usize,
    /// Bound on how far a core may run ahead of the global clock between
    /// synchronisation points, in cycles. Smaller = more causally accurate
    /// and slower.
    pub sync_quantum: u64,
    /// Memory-controller scheduler.
    pub scheduler: McScheduler,
    /// If set, record LLC misses into windows of this many cycles (the
    /// paper's 5 µs fine-grained sampler; see `offchip-perf`).
    pub sampler_window: Option<u64>,
    /// Memory page size for page placement, bytes (power of two).
    pub page_bytes: u64,
    /// NUMA page-placement policy.
    pub memory_policy: MemoryPolicy,
    /// Cache replacement policy for every level (LRU on the real parts;
    /// alternatives exist for the replacement ablation, which shows the
    /// contention results are a capacity phenomenon, not a policy one).
    pub replacement: ReplacementPolicy,
    /// Per-core next-line stream-prefetcher depth: on a detected
    /// sequential LLC-access stream, fetch this many lines ahead into the
    /// LLC. 0 disables prefetching (the default — the paper-era FSB
    /// machines gained little from it on the contended workloads; see the
    /// prefetcher ablation).
    pub prefetch_degree: usize,
    /// Hard cap on discrete events the run may process; `None` (the
    /// default) is unbounded. A wedged simulation (e.g. a workload bug
    /// spinning the event queue) then surfaces as a typed
    /// [`crate::sim::RunError::EventBudgetExceeded`] with the counters
    /// accumulated so far, instead of hanging the campaign.
    pub max_events: Option<u64>,
    /// Per-run wall-clock deadline; `None` (the default) is unbounded.
    /// Checked coarsely (every ~65k events) on the hot path so the
    /// guard costs nothing measurable; exceeding it surfaces as
    /// [`crate::sim::RunError::DeadlineExceeded`].
    pub deadline: Option<std::time::Duration>,
    /// Observation level of this run. Captured from the process-wide
    /// [`offchip_obs::level`] (`--obs` / `OFFCHIP_OBS`) at construction,
    /// so every sweep/campaign path inherits it without plumbing. At
    /// [`ObsLevel::Off`] (the default) no observer objects exist and the
    /// hot paths pay one predictable branch; counters — and therefore
    /// every experiment artefact — are identical at every level.
    pub obs: ObsLevel,
    /// Telemetry time-series window in cycles, used when `obs` is at
    /// least [`ObsLevel::Metrics`]. `None` (the default) derives the
    /// paper's 5 µs window at this machine's clock and geometric scale
    /// (cf. [`SimConfig::with_sampler_5us_scaled`]).
    pub telemetry_window: Option<u64>,
}

impl SimConfig {
    /// A configuration with the defaults used throughout the experiments.
    pub fn new(machine: MachineSpec, n_cores: usize) -> SimConfig {
        SimConfig {
            machine,
            policy: AllocationPolicy::FillProcessorFirst,
            n_cores,
            seed: 0x0FF_C41B,
            quantum_cycles: 50_000,
            context_switch_cycles: 2_000,
            mshr_per_core: 12,
            sync_quantum: 2_000,
            scheduler: McScheduler::Fcfs,
            sampler_window: None,
            page_bytes: 4096,
            memory_policy: MemoryPolicy::InterleaveActive,
            replacement: ReplacementPolicy::Lru,
            prefetch_degree: 0,
            max_events: None,
            deadline: None,
            obs: offchip_obs::level(),
            telemetry_window: None,
        }
    }

    /// The telemetry window in force when observation is enabled: the
    /// explicit [`SimConfig::telemetry_window`], else the 5 µs window at
    /// this machine's clock and scale.
    pub fn effective_telemetry_window(&self) -> u64 {
        self.telemetry_window.unwrap_or_else(|| {
            let cycles = (self.machine.freq_ghz * 5_000.0 * self.machine.scale).round() as u64;
            cycles.max(1)
        })
    }

    /// Enables the fine-grained miss sampler with the paper's 5 µs window
    /// at this machine's clock.
    pub fn with_sampler_5us(mut self) -> SimConfig {
        let cycles = (self.machine.freq_ghz * 5_000.0).round() as u64;
        self.sampler_window = Some(cycles.max(1));
        self
    }

    /// Enables the sampler with the 5 µs window shrunk by the machine's
    /// geometric scale, so a scaled run yields the same *number* of
    /// windows per program phase as the paper's full-size run (time
    /// contracted with the working sets; the sampler resolution must
    /// contract with it to observe the same burst structure).
    pub fn with_sampler_5us_scaled(mut self) -> SimConfig {
        let cycles = (self.machine.freq_ghz * 5_000.0 * self.machine.scale).round() as u64;
        self.sampler_window = Some(cycles.max(1));
        self
    }

    /// Validates the configuration, reporting the first inconsistency as a
    /// typed, actionable error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.machine.validate()?;
        let total = self.machine.total_cores();
        if self.n_cores == 0 || self.n_cores > total {
            return Err(ConfigError::CoresOutOfRange {
                n_cores: self.n_cores,
                total,
            });
        }
        if self.mshr_per_core == 0 {
            return Err(ConfigError::ZeroMshrs);
        }
        if self.quantum_cycles == 0 || self.sync_quantum == 0 {
            return Err(ConfigError::ZeroQuantum);
        }
        if !self.page_bytes.is_power_of_two() || self.page_bytes < self.machine.line_bytes() as u64
        {
            return Err(ConfigError::BadPageSize {
                page_bytes: self.page_bytes,
                line_bytes: self.machine.line_bytes(),
            });
        }
        if let Some(w) = self.sampler_window {
            if w == 0 {
                return Err(ConfigError::ZeroSamplerWindow);
            }
        }
        if self.telemetry_window == Some(0) {
            return Err(ConfigError::ZeroSamplerWindow);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use offchip_topology::machines;

    #[test]
    fn defaults_validate() {
        let cfg = SimConfig::new(machines::intel_numa_24(), 24);
        cfg.validate().unwrap();
    }

    #[test]
    fn five_microsecond_window_uses_clock() {
        let cfg = SimConfig::new(machines::intel_numa_24(), 1).with_sampler_5us();
        // 2.66 GHz × 5 µs = 13,300 cycles.
        assert_eq!(cfg.sampler_window, Some(13_300));
    }

    #[test]
    fn telemetry_window_defaults_to_scaled_5us() {
        let mut cfg = SimConfig::new(machines::intel_numa_24().scaled(1.0 / 64.0), 1);
        // 2.66 GHz × 5 µs × 1/64 ≈ 208 cycles.
        assert_eq!(cfg.effective_telemetry_window(), 208);
        cfg.telemetry_window = Some(500);
        assert_eq!(cfg.effective_telemetry_window(), 500);
    }

    #[test]
    fn bad_configs_rejected_with_typed_errors() {
        let mut cfg = SimConfig::new(machines::intel_uma_8(), 9);
        assert_eq!(
            cfg.validate().unwrap_err(),
            ConfigError::CoresOutOfRange { n_cores: 9, total: 8 }
        );
        cfg.n_cores = 8;
        cfg.validate().unwrap();
        cfg.mshr_per_core = 0;
        assert_eq!(cfg.validate().unwrap_err(), ConfigError::ZeroMshrs);
        cfg.mshr_per_core = 4;
        cfg.page_bytes = 100; // not a power of two
        assert!(matches!(
            cfg.validate().unwrap_err(),
            ConfigError::BadPageSize { page_bytes: 100, .. }
        ));
        cfg.page_bytes = 32; // smaller than a line
        assert!(cfg.validate().is_err());
        cfg.page_bytes = 4096;
        cfg.quantum_cycles = 0;
        assert_eq!(cfg.validate().unwrap_err(), ConfigError::ZeroQuantum);
        cfg.quantum_cycles = 50_000;
        cfg.telemetry_window = Some(0);
        assert_eq!(cfg.validate().unwrap_err(), ConfigError::ZeroSamplerWindow);
        cfg.telemetry_window = None;
        let jobs = ConfigError::BadJobs { value: "zero".into() };
        assert!(jobs.to_string().contains("OFFCHIP_JOBS"));
        cfg.machine.sockets = 0;
        assert!(matches!(
            cfg.validate().unwrap_err(),
            ConfigError::Machine(_)
        ));
    }
}
