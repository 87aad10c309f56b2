//! Simulator configuration (the paper's §9 baseline machine).

use rfv_core::{RegFileConfig, SanitizeLevel, VirtualizationPolicy};
use rfv_faults::{FaultKind, FaultPlan, Kind};
use rfv_trace::wire::fnv1a;
use rfv_trace::Enc;

/// Timing and capacity parameters for one simulated GPU.
///
/// Defaults model the paper's baseline: Fermi-style SMs with a 128 KB
/// four-bank register file, a two-level warp scheduler with a six-warp
/// ready queue, and two schedulers issuing one instruction each per
/// cycle.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimConfig {
    /// Streaming multiprocessors (the paper simulates 16; per-SM
    /// ratios are unaffected, so most experiments run fewer).
    pub num_sms: usize,
    /// Warp contexts per SM.
    pub max_warps_per_sm: usize,
    /// CTA slots per SM.
    pub max_ctas_per_sm: usize,
    /// Two-level scheduler ready-queue capacity.
    pub ready_queue: usize,
    /// Warp schedulers per SM (instructions issued per cycle).
    pub schedulers: usize,
    /// Issue-to-issue delay after an ALU instruction, cycles.
    pub alu_latency: u64,
    /// Issue-to-issue delay after an SFU instruction, cycles.
    pub sfu_latency: u64,
    /// Shared-memory load-to-use latency, cycles.
    pub shared_latency: u64,
    /// Global-memory base latency, cycles.
    pub mem_base_latency: u64,
    /// Additional latency per coalesced 128 B transaction, cycles.
    pub mem_per_txn: u64,
    /// Extra pipeline cycle for the renaming-table lookup (§7.1: the
    /// 0.22 ns table access is conservatively charged one cycle).
    pub rename_extra_cycle: bool,
    /// Register-file hardware configuration.
    pub regfile: RegFileConfig,
    /// Cycle interval for live-register sampling (Figure 1).
    pub sample_interval: u64,
    /// Record per-register allocate/release events of hardware warp
    /// slot 0 (drives the Figure 2 lifetime traces).
    pub trace_warp0_regs: bool,
    /// Capture a per-subarray occupancy snapshot at this cycle
    /// (drives the Figure 8 occupancy maps).
    pub snapshot_at_cycle: Option<u64>,
    /// Watchdog: abort runs exceeding this many cycles.
    pub max_cycles: u64,
    /// Worker threads for SM execution. `None` defers to the
    /// `RFV_JOBS` environment variable, falling back to the machine's
    /// available parallelism; `Some(1)` forces the sequential path.
    /// SMs share no state, so the result is bit-identical either way
    /// (see `gpu::SlicedSim`).
    pub sm_jobs: Option<usize>,
    /// Online soundness checking of the virtualized register file
    /// (shadow-model sanitizer). At [`SanitizeLevel::Off`] — the
    /// default — the run is bit-identical to a sanitizer-free build.
    pub sanitize: SanitizeLevel,
    /// Deterministic fault-injection plan perturbing the release
    /// machinery (see `rfv_faults`). Empty by default.
    pub faults: FaultPlan,
}

impl SimConfig {
    /// The paper's baseline machine with the given register file.
    pub fn with_regfile(regfile: RegFileConfig) -> SimConfig {
        SimConfig {
            num_sms: 1,
            max_warps_per_sm: 48,
            max_ctas_per_sm: 8,
            ready_queue: 6,
            schedulers: 2,
            alu_latency: 1,
            sfu_latency: 8,
            shared_latency: 24,
            mem_base_latency: 200,
            mem_per_txn: 8,
            rename_extra_cycle: regfile.policy.renames(),
            regfile,
            sample_interval: 16,
            trace_warp0_regs: false,
            snapshot_at_cycle: None,
            max_cycles: 80_000_000,
            sm_jobs: None,
            sanitize: SanitizeLevel::Off,
            faults: FaultPlan::none(),
        }
    }

    /// Baseline 128 KB file with full virtualization.
    pub fn baseline_full() -> SimConfig {
        SimConfig::with_regfile(RegFileConfig::baseline_full())
    }

    /// Conventional GPU (no renaming, no gating).
    pub fn conventional() -> SimConfig {
        SimConfig::with_regfile(RegFileConfig::conventional())
    }

    /// GPU-shrink at `percent`% size reduction.
    pub fn gpu_shrink(percent: usize) -> SimConfig {
        SimConfig::with_regfile(RegFileConfig::shrunk(percent))
    }

    /// Appends this config's identity: every field that shapes
    /// simulation *results*, in a fixed order. `*self` is destructured,
    /// so a new field does not compile until it is encoded here or named
    /// as an exclusion.
    ///
    /// Deliberately excluded: `sm_jobs` (worker-thread count — the
    /// parallel and sequential paths are bit-identical) and
    /// `max_cycles` (the watchdog only decides when to give up, so a
    /// checkpoint from an aborted run may resume under a larger
    /// budget).
    pub fn encode_identity(&self, e: &mut Enc) {
        let SimConfig {
            num_sms,
            max_warps_per_sm,
            max_ctas_per_sm,
            ready_queue,
            schedulers,
            alu_latency,
            sfu_latency,
            shared_latency,
            mem_base_latency,
            mem_per_txn,
            rename_extra_cycle,
            regfile:
                RegFileConfig {
                    phys_regs,
                    policy,
                    power_gating,
                    wakeup_cycles,
                    flag_cache_entries,
                    bank_preserving,
                },
            sample_interval,
            trace_warp0_regs,
            snapshot_at_cycle,
            max_cycles: _,
            sm_jobs: _,
            sanitize,
            faults,
        } = *self;
        e.usize(num_sms);
        e.usize(max_warps_per_sm);
        e.usize(max_ctas_per_sm);
        e.usize(ready_queue);
        e.usize(schedulers);
        e.u64(alu_latency);
        e.u64(sfu_latency);
        e.u64(shared_latency);
        e.u64(mem_base_latency);
        e.u64(mem_per_txn);
        e.bool(rename_extra_cycle);
        e.usize(phys_regs);
        e.u8(match policy {
            VirtualizationPolicy::None => 0,
            VirtualizationPolicy::HardwareOnly => 1,
            VirtualizationPolicy::Full => 2,
        });
        e.bool(power_gating);
        e.u64(wakeup_cycles);
        e.usize(flag_cache_entries);
        e.bool(bank_preserving);
        e.u64(sample_interval);
        e.bool(trace_warp0_regs);
        e.opt_u64(snapshot_at_cycle);
        e.u8(match sanitize {
            SanitizeLevel::Off => 0,
            SanitizeLevel::Check => 1,
            SanitizeLevel::Recover => 2,
        });
        e.u64(faults.seed);
        for k in FaultKind::ALL {
            e.u16(faults.count(k));
        }
    }

    /// A stable identity hash: fnv1a over
    /// [`SimConfig::encode_identity`]. Checkpoints embed this hash;
    /// resuming under a config that hashes differently is rejected.
    pub fn stable_hash(&self) -> u64 {
        let mut e = Enc::new();
        self.encode_identity(&mut e);
        fnv1a(e.bytes())
    }

    /// Validates capacity parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 || self.schedulers == 0 || self.ready_queue == 0 {
            return Err("SM, scheduler, and ready-queue counts must be positive".into());
        }
        if self.max_warps_per_sm == 0 || self.max_ctas_per_sm == 0 {
            return Err("warp and CTA capacities must be positive".into());
        }
        if self.sm_jobs == Some(0) {
            return Err("sm_jobs must be positive when set".into());
        }
        self.regfile.validate()
    }
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig::baseline_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_core::VirtualizationPolicy;

    #[test]
    fn baseline_matches_paper() {
        let c = SimConfig::baseline_full();
        assert_eq!(c.max_warps_per_sm, 48);
        assert_eq!(c.ready_queue, 6);
        assert_eq!(c.schedulers, 2);
        assert_eq!(c.max_ctas_per_sm, 8);
        assert!(c.rename_extra_cycle);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn conventional_skips_rename_cycle() {
        let c = SimConfig::conventional();
        assert_eq!(c.regfile.policy, VirtualizationPolicy::None);
        assert!(!c.rename_extra_cycle);
    }

    #[test]
    fn shrink_configs_validate() {
        for pct in [30, 40, 50] {
            assert!(SimConfig::gpu_shrink(pct).validate().is_ok());
        }
    }

    #[test]
    fn stable_hash_tracks_result_shaping_fields_only() {
        let a = SimConfig::baseline_full();
        let mut b = a;
        b.sm_jobs = Some(4);
        b.max_cycles = 123;
        assert_eq!(a.stable_hash(), b.stable_hash());
        let mut c = a;
        c.mem_base_latency += 1;
        assert_ne!(a.stable_hash(), c.stable_hash());
        assert_ne!(a.stable_hash(), SimConfig::conventional().stable_hash());
        assert_ne!(a.stable_hash(), SimConfig::gpu_shrink(50).stable_hash());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = SimConfig::baseline_full();
        c.schedulers = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::baseline_full();
        c.regfile.phys_regs = 7;
        assert!(c.validate().is_err());
        let mut c = SimConfig::baseline_full();
        c.num_sms = 0;
        assert!(c.validate().is_err());
        let mut c = SimConfig::baseline_full();
        c.sm_jobs = Some(0);
        assert!(c.validate().is_err());
        c.sm_jobs = Some(4);
        assert!(c.validate().is_ok());
    }
}
