//! Shared experiment harness: compiles workloads under the paper's
//! configurations, runs them, and converts simulator statistics into
//! energy-model activity.

use std::sync::{Arc, OnceLock};

use rfv_compiler::{compile, spill_to_cap, CompileOptions};
use rfv_core::VirtualizationPolicy;
use rfv_isa::binary::encode_program_identity;
use rfv_isa::Kernel;
use rfv_power::model::RfActivity;
use rfv_sim::cache::{flavor_options, Cache, CachedKernel};
use rfv_sim::{SanitizeLevel, SimConfig, SimResult, SimStats, SlicedSim};
use rfv_trace::Enc;
use rfv_workloads::Workload;

/// Process-wide sanitizer override for harness-driven experiments
/// (set once from a CLI flag before any runs start). Sweep code never
/// threads a sanitize level through its dozens of config sites; the
/// override is applied centrally in [`run`].
static SANITIZE: OnceLock<SanitizeLevel> = OnceLock::new();

/// Requests that every subsequent [`run`] executes under `level`.
/// First call wins; later calls are ignored.
pub fn set_sanitize(level: SanitizeLevel) {
    let _ = SANITIZE.set(level);
}

/// The sanitize level harness runs execute under ([`SanitizeLevel::Off`]
/// unless [`set_sanitize`] was called).
pub fn sanitize_level() -> SanitizeLevel {
    SANITIZE.get().copied().unwrap_or_default()
}

/// Resident bounds of the harness's kernel and result caches. A full
/// `figures all` sweep compiles 58 kernels and simulates 393 runs; the
/// bounds only guard long-lived embedders against unbounded growth.
/// Past them the least recently used entry is evicted and simply
/// rebuilds on next sight.
const KERNEL_CAPACITY: usize = 256;
const RESULT_CAPACITY: usize = 1024;

/// Compiles `kernel` under `opts`, once while it stays cached. Sweep
/// drivers recompile the same workload at every sweep point (the
/// compiler is pure, so the output is identical each time); every
/// repeat returns the first compile's `Arc`. Keyed by the exact bytes
/// of the source kernel's structural identity
/// ([`encode_program_identity`]), the options, and the name (the
/// compiled kernel carries it) — exact, not name-based, so a mutated
/// kernel under a reused name cannot collide.
///
/// Options that do not bind (an unconstrained table budget, a spill
/// cap above the kernel's demand) compile to a kernel another key
/// already produced, so the predecoded image is shared by the
/// compiled kernel's own identity: one image per distinct kernel.
fn compile_cached(kernel: &Kernel, opts: &CompileOptions) -> Arc<CachedKernel> {
    static KERNELS: OnceLock<Cache<Vec<u8>, CachedKernel>> = OnceLock::new();
    static IMAGES: OnceLock<Cache<Vec<u8>, CachedKernel>> = OnceLock::new();
    // destructured so a new option cannot be left out of the key
    let CompileOptions { table_budget_bytes } = *opts;
    let mut key = Vec::new();
    encode_program_identity(kernel, &mut key);
    key.extend_from_slice(&(table_budget_bytes as u64).to_le_bytes());
    key.extend_from_slice(kernel.name().as_bytes());
    let kernels = KERNELS.get_or_init(|| Cache::with_capacity(KERNEL_CAPACITY));
    let built = kernels.get_or_build(key, || {
        let compiled = compile(kernel, opts).map_err(|e| e.to_string())?;
        let mut identity = Vec::new();
        compiled.encode_identity(&mut identity);
        let images = IMAGES.get_or_init(|| Cache::with_capacity(KERNEL_CAPACITY));
        let (image, _) = images.get_or_build(identity, || Ok(CachedKernel::new(compiled)))?;
        Ok(CachedKernel::clone(&image))
    });
    built
        .unwrap_or_else(|e| panic!("suite kernels compile: {e}"))
        .0
}

/// Compiles a workload with the paper's default 1 KB renaming-table
/// budget (metadata embedded).
///
/// # Panics
///
/// Panics when compilation fails — suite kernels are known-good.
pub fn compile_full(w: &Workload) -> Arc<CachedKernel> {
    compile_cached(&w.kernel, &flavor_options(true))
}

/// Compiles a workload with a zero renaming budget: no registers are
/// renamed and no metadata is embedded — the binary the conventional
/// and hardware-only configurations execute.
///
/// # Panics
///
/// Panics when compilation fails.
pub fn compile_plain(w: &Workload) -> Arc<CachedKernel> {
    compile_cached(&w.kernel, &flavor_options(false))
}

/// Compiles a workload with an effectively unlimited renaming-table
/// budget (Figure 14's unconstrained point).
///
/// # Panics
///
/// Panics when compilation fails.
pub fn compile_unconstrained(w: &Workload) -> Arc<CachedKernel> {
    let opts = CompileOptions {
        table_budget_bytes: 64 * 1024,
    };
    compile_cached(&w.kernel, &opts)
}

/// The register cap the *compiler-spill* baseline must hit so that a
/// conventionally-allocated kernel fits a file of `phys_regs`
/// registers at the declared occupancy.
pub fn spill_cap(w: &Workload, phys_regs: usize) -> usize {
    let launch = w.kernel.launch();
    let warps_per_sm = launch.warps_per_cta() as usize * launch.max_conc_ctas_per_sm() as usize;
    (phys_regs / warps_per_sm.max(1)).max(4)
}

/// Compiles the compiler-spill baseline for a `phys_regs`-sized file:
/// spill to the cap, then compile without metadata.
///
/// # Panics
///
/// Panics when the spill pass or compilation fails.
pub fn compile_spilled(w: &Workload, phys_regs: usize) -> Arc<CachedKernel> {
    let cap = spill_cap(w, phys_regs);
    let spilled = spill_to_cap(&w.kernel, cap).expect("spill caps are feasible");
    compile_cached(&spilled.kernel, &flavor_options(false))
}

/// Runs a compiled kernel on its shared predecoded image, panicking on
/// simulator errors (used by experiments where failure means a harness
/// bug). The process-wide sanitize override (see [`set_sanitize`]) is
/// applied unless the config already requests a level itself.
///
/// The simulator is deterministic (the parallel-determinism and
/// checkpoint suites assert bit-identical results across thread
/// counts and checkpoint boundaries), so each `(kernel, config)` pair
/// is simulated once per process — common across sweeps that share a
/// baseline point, e.g. every sweep's `baseline_full` reference row —
/// and every repeat returns the first run's result. Keyed by the exact
/// bytes of the compiled kernel's structural identity
/// ([`rfv_compiler::CompiledKernel::encode_identity`], every field the
/// simulator reads), the resolved config's identity
/// ([`SimConfig::encode_identity`], every field that shapes results)
/// and `max_cycles`, which decides whether a run fails. Any semantic
/// difference (compile options, shrink depth, sanitize level)
/// produces a distinct key, so a hit is exact, not approximate; runs
/// that differ only in `sm_jobs` share one result.
///
/// # Panics
///
/// Panics when the simulation errors.
pub fn run(kernel: &CachedKernel, config: &SimConfig) -> Arc<SimResult> {
    static RESULTS: OnceLock<Cache<Vec<u8>, SimResult>> = OnceLock::new();
    // test hook for the sweep-resilience suite: rig the named workload
    // to panic so journal/retry behaviour can be exercised end to end
    if let Ok(rigged) = std::env::var("RFV_RIG_PANIC") {
        if rigged == kernel.kernel().name() {
            panic!("rigged panic for workload {rigged:?} (RFV_RIG_PANIC)");
        }
    }
    let mut config = *config;
    if !config.sanitize.is_on() {
        config.sanitize = sanitize_level();
    }
    let mut identity = Enc::new();
    config.encode_identity(&mut identity);
    identity.u64(config.max_cycles);
    let mut key = Vec::new();
    kernel.encode_identity(&mut key);
    key.extend_from_slice(identity.bytes());
    let results = RESULTS.get_or_init(|| Cache::with_capacity(RESULT_CAPACITY));
    let simulated = results.get_or_build(key, || {
        SlicedSim::with_predecoded(kernel, &config, &[], 0, Arc::clone(&kernel.predecoded))
            .and_then(SlicedSim::finish)
            .map(|run| run.result)
            .map_err(|e| e.to_string())
    });
    simulated
        .unwrap_or_else(|e| panic!("simulation failed: {e}"))
        .0
}

/// Converts an SM's statistics into energy-model activity counts.
pub fn rf_activity(stats: &SimStats) -> RfActivity {
    RfActivity {
        cycles: stats.cycles,
        rf_reads: stats.regfile.rf_reads,
        rf_writes: stats.regfile.rf_writes,
        renaming_lookups: stats.renaming.lookups,
        renaming_updates: stats.renaming.updates,
        flag_fetch_decodes: stats.meta_decoded,
        flag_cache_probes: stats.flag_cache.probes(),
        subarray_on_cycles: stats.subarray_on_cycles,
    }
}

/// The four machine configurations the evaluation compares.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Machine {
    /// Conventional 128 KB file, no virtualization.
    Conventional,
    /// 128 KB file with full virtualization (+ power gating).
    Full128,
    /// GPU-shrink: 64 KB file with full virtualization.
    Shrink64,
    /// Hardware-only renaming \[46\] on the 128 KB file.
    HardwareOnly,
}

impl Machine {
    /// The simulator configuration for this machine: its row of
    /// [`machine_config`]'s table.
    pub fn config(self) -> SimConfig {
        let name = match self {
            Machine::Conventional => "conventional",
            Machine::Full128 => "full",
            Machine::Shrink64 => "shrink50",
            Machine::HardwareOnly => "hwonly",
        };
        machine_config(name).expect("every machine is in the table")
    }

    /// The binary this machine executes: with release metadata when
    /// its policy honours release flags, without otherwise.
    pub fn compile(self, w: &Workload) -> Arc<CachedKernel> {
        let release_flags = self.config().regfile.policy.uses_release_flags();
        compile_cached(&w.kernel, &flavor_options(release_flags))
    }

    /// Compile + run in one step.
    pub fn run(self, w: &Workload) -> Arc<SimResult> {
        run(&self.compile(w), &self.config())
    }
}

/// Named machine configurations shared by the `rfvsim` CLI and the
/// `rfvd` daemon: the four evaluated machines plus the extra shrink
/// points the CLI exposes. `None` for an unknown name — callers turn
/// that into a usage error or a typed protocol error.
pub fn machine_config(name: &str) -> Option<SimConfig> {
    Some(match name {
        "conventional" => SimConfig::conventional(),
        "full" => SimConfig::baseline_full(),
        "shrink50" => SimConfig::gpu_shrink(50),
        "shrink60" => SimConfig::gpu_shrink(60),
        "shrink75" => SimConfig::gpu_shrink(75),
        "hwonly" => {
            let mut c = SimConfig::baseline_full();
            c.regfile.policy = VirtualizationPolicy::HardwareOnly;
            c
        }
        _ => return None,
    })
}

/// The machine names [`machine_config`] accepts, for usage/help text.
pub const MACHINE_NAMES: [&str; 6] = [
    "conventional",
    "full",
    "shrink50",
    "shrink60",
    "shrink75",
    "hwonly",
];

/// Theoretical conventional register allocation per SM at the
/// workload's declared occupancy (what Figure 10 normalizes against).
pub fn conventional_alloc(w: &Workload) -> usize {
    let launch = w.kernel.launch();
    w.kernel.num_regs() * launch.warps_per_cta() as usize * launch.max_conc_ctas_per_sm() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_isa::kernel::ProgItem;
    use rfv_isa::Operand;
    use rfv_sim::simulate;
    use rfv_workloads::suite;

    #[test]
    fn repeat_compiles_share_one_entry_per_flavor() {
        let w = suite::vectoradd();
        let full = compile_full(&w);
        assert!(Arc::ptr_eq(&full, &compile_full(&w)));
        assert!(Arc::ptr_eq(&full, &Machine::Full128.compile(&w)));
        let plain = compile_plain(&w);
        assert!(!Arc::ptr_eq(&full, &plain), "flavors are distinct entries");
        assert!(Arc::ptr_eq(&plain, &Machine::HardwareOnly.compile(&w)));
        // VectorAdd fits the default table budget, so the unconstrained
        // compile is the same kernel under another key: one image
        let unconstrained = compile_unconstrained(&w);
        assert!(!Arc::ptr_eq(&full, &unconstrained));
        assert!(Arc::ptr_eq(&full.predecoded, &unconstrained.predecoded));
    }

    #[test]
    fn one_immediate_different_kernel_gets_its_own_entry_and_result() {
        let w = suite::vectoradd();
        let mut items = w.kernel.items().to_vec();
        let imm = items
            .iter_mut()
            .find_map(|it| match it {
                ProgItem::Instr(i) => i.srcs.iter_mut().find_map(|op| match op {
                    Operand::Imm(v) => Some(v),
                    Operand::Reg(_) => None,
                }),
                _ => None,
            })
            .expect("VectorAdd has an immediate operand");
        *imm += 1;
        let kernel = Kernel::new(w.kernel.name(), items, w.kernel.launch()).expect("still valid");
        let other = Workload {
            kernel,
            ..w.clone()
        };
        let (a, b) = (compile_full(&w), compile_full(&other));
        assert!(!Arc::ptr_eq(&a, &b), "same name, different kernel");
        assert!(!Arc::ptr_eq(&a.predecoded, &b.predecoded));
        let cfg = SimConfig::baseline_full();
        let (ra, rb) = (run(&a, &cfg), run(&b, &cfg));
        assert!(!Arc::ptr_eq(&ra, &rb), "each kernel has its own result");
        assert_ne!(ra.memories, rb.memories, "the immediate is observable");
        let fresh = simulate(&b, &cfg).expect("simulates");
        assert_eq!(rb.per_sm, fresh.per_sm);
        assert_eq!(rb.memories, fresh.memories);
    }

    #[test]
    fn results_are_keyed_by_config_identity_and_cycle_budget() {
        let ck = compile_full(&suite::vectoradd());
        let cfg = SimConfig::baseline_full();
        let mut sequential = cfg;
        sequential.sm_jobs = Some(1);
        assert!(
            Arc::ptr_eq(&run(&ck, &cfg), &run(&ck, &sequential)),
            "the worker count does not shape results"
        );
        let mut budget = cfg;
        budget.max_cycles -= 1;
        assert!(
            !Arc::ptr_eq(&run(&ck, &cfg), &run(&ck, &budget)),
            "the cycle budget decides whether a run fails"
        );
    }

    #[test]
    fn machine_config_hashes_are_pinned() {
        // checkpoints embed these hashes: a change invalidates every
        // checkpoint taken on that machine
        for (name, hash) in [
            ("conventional", 0xf66c_e1f6_fbf1_d22e),
            ("full", 0x3885_6678_577d_530b),
            ("shrink50", 0x1739_4ed7_1a16_346d),
            ("shrink60", 0x9ed3_5965_5894_6f6c),
            ("shrink75", 0xf4a1_42fb_580d_e55c),
            ("hwonly", 0x5233_89c2_b1f6_4d40),
        ] {
            let cfg = machine_config(name).expect("a known machine");
            assert_eq!(cfg.stable_hash(), hash, "{name}");
        }
    }

    #[test]
    fn run_on_the_shared_image_matches_a_fresh_simulation() {
        let w = suite::reduction();
        for m in [Machine::Conventional, Machine::Full128, Machine::Shrink64] {
            let (ck, cfg) = (m.compile(&w), m.config());
            let cached = run(&ck, &cfg);
            let fresh = simulate(&ck, &cfg).expect("simulates");
            assert_eq!(cached.cycles, fresh.cycles, "{m:?}: cycles");
            assert_eq!(cached.per_sm, fresh.per_sm, "{m:?}: stats");
            assert_eq!(cached.memories, fresh.memories, "{m:?}: memories");
            assert!(Arc::ptr_eq(&cached, &run(&ck, &cfg)), "{m:?}: repeat hits");
        }
    }
}
