//! Shared experiment harness: compiles workloads under the paper's
//! configurations, runs them, and converts simulator statistics into
//! energy-model activity.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

use rfv_compiler::{compile, spill_to_cap, CompileOptions, CompiledKernel};
use rfv_core::VirtualizationPolicy;
use rfv_isa::binary::encode_program_identity;
use rfv_power::model::RfActivity;
use rfv_sim::{
    simulate, simulate_predecoded, PredecodedKernel, SanitizeLevel, SimConfig, SimResult, SimStats,
};
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

/// Compiled-kernel memo shared by the `compile_*` helpers. Sweep
/// drivers recompile the same workload at every sweep point (the
/// compiler is pure, so the output is identical each time); the memo
/// turns those repeats into a clone. Keyed by the exact bytes of the
/// source kernel's structural identity
/// ([`encode_program_identity`]), the options, and the name (the
/// compiled kernel carries it) — exact, not name-based, so a mutated
/// kernel under a reused name cannot collide.
static COMPILE_MEMO: OnceLock<Mutex<HashMap<Vec<u8>, CompiledKernel>>> = OnceLock::new();

/// Entry cap for [`COMPILE_MEMO`]; saturates rather than evicts, like
/// [`RESULT_MEMO_CAP`].
const COMPILE_MEMO_CAP: usize = 256;

fn compile_memoized(kernel: &rfv_isa::Kernel, opts: &CompileOptions) -> CompiledKernel {
    // destructured so a new option cannot be left out of the key
    let CompileOptions { table_budget_bytes } = *opts;
    let mut key = Vec::new();
    encode_program_identity(kernel, &mut key);
    key.extend_from_slice(&(table_budget_bytes as u64).to_le_bytes());
    key.extend_from_slice(kernel.name().as_bytes());
    let memo = COMPILE_MEMO.get_or_init(Default::default);
    if let Some(hit) = memo.lock().expect("compile memo lock").get(&key) {
        return hit.clone();
    }
    let ck = compile(kernel, opts).expect("suite kernels compile");
    let mut memo = memo.lock().expect("compile memo lock");
    if memo.len() < COMPILE_MEMO_CAP {
        memo.insert(key, ck.clone());
    }
    ck
}

/// Compiles a workload with the paper's default 1 KB renaming-table
/// budget (metadata embedded).
///
/// # Panics
///
/// Panics when compilation fails — suite kernels are known-good.
pub fn compile_full(w: &Workload) -> CompiledKernel {
    compile_memoized(&w.kernel, &CompileOptions::default())
}

/// Compiles a workload with a zero renaming budget: no registers are
/// renamed and no metadata is embedded — the binary the conventional
/// and hardware-only configurations execute.
///
/// # Panics
///
/// Panics when compilation fails.
pub fn compile_plain(w: &Workload) -> CompiledKernel {
    let opts = CompileOptions {
        table_budget_bytes: 0,
    };
    compile_memoized(&w.kernel, &opts)
}

/// Compiles a workload with an effectively unlimited renaming-table
/// budget (Figure 14's unconstrained point).
///
/// # Panics
///
/// Panics when compilation fails.
pub fn compile_unconstrained(w: &Workload) -> CompiledKernel {
    let opts = CompileOptions {
        table_budget_bytes: 64 * 1024,
    };
    compile_memoized(&w.kernel, &opts)
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
pub fn compile_spilled(w: &Workload, phys_regs: usize) -> CompiledKernel {
    let cap = spill_cap(w, phys_regs);
    let spilled = spill_to_cap(&w.kernel, cap).expect("spill caps are feasible");
    let opts = CompileOptions {
        table_budget_bytes: 0,
    };
    compile_memoized(&spilled.kernel, &opts)
}

/// Completed-run memo for [`run`]. The simulator is deterministic
/// (the engine-equivalence and parallel-determinism suites assert
/// bit-identical results across engines, thread counts, and
/// checkpoint boundaries), so a repeated `(kernel, config)` pair —
/// common across sweeps that share a baseline point, e.g. every
/// sweep's `baseline_full` reference row — can reuse the first run's
/// result verbatim. Keyed by the exact bytes of the compiled kernel's
/// structural identity ([`CompiledKernel::encode_identity`], every
/// field the simulator reads) followed by the resolved config's
/// `Debug` rendering (small, and it covers fields the checkpoint
/// config hash omits, such as `max_cycles`), so any semantic
/// difference (compile options, shrink depth, sanitize level)
/// produces a distinct key and a hit is exact, not approximate.
///
/// The timed benchmark path ([`run_predecoded`], used by the `perf`
/// harness's repeat loops) deliberately bypasses the memo: its
/// repeats must exercise the engine, not a table lookup.
static RESULT_MEMO: OnceLock<Mutex<HashMap<Vec<u8>, SimResult>>> = OnceLock::new();

/// Memo entry cap. A full `figures all` sweep needs a few hundred
/// entries; the cap only guards long-lived embedders against
/// unbounded growth. On overflow the memo saturates (stops inserting)
/// rather than evicting — results never change, so a stale entry is
/// impossible and saturation merely lowers the hit rate.
const RESULT_MEMO_CAP: usize = 1024;

/// Runs a compiled kernel, panicking on simulator errors (used by
/// experiments where failure means a harness bug). The process-wide
/// sanitize override (see [`set_sanitize`]) is applied unless the
/// config already requests a level itself.
///
/// Identical `(kernel, config)` pairs are memoized per process (see
/// [`RESULT_MEMO`]); the first call simulates, later calls return a
/// clone of the recorded result.
///
/// # Panics
///
/// Panics when the simulation errors.
pub fn run(kernel: &CompiledKernel, config: &SimConfig) -> SimResult {
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
    let mut key = Vec::new();
    kernel.encode_identity(&mut key);
    write!(key, "{config:?}").expect("writing to a Vec cannot fail");
    let memo = RESULT_MEMO.get_or_init(Default::default);
    if let Some(hit) = memo.lock().expect("result memo lock").get(&key) {
        return hit.clone();
    }
    // the lock is NOT held while simulating: concurrent workers may
    // race on the same key and both simulate, but determinism makes
    // the duplicate insert harmless
    let result = simulate(kernel, &config).unwrap_or_else(|e| panic!("simulation failed: {e}"));
    let mut memo = memo.lock().expect("result memo lock");
    if memo.len() < RESULT_MEMO_CAP {
        memo.insert(key, result.clone());
    }
    result
}

/// [`run`] reusing an already-predecoded program image, so timing
/// loops repeat only the simulation itself (predecode + plan lowering
/// happen once, outside the timed region).
///
/// # Panics
///
/// Panics when the simulation errors.
pub fn run_predecoded(
    kernel: &CompiledKernel,
    config: &SimConfig,
    prog: &Arc<PredecodedKernel>,
) -> SimResult {
    let mut config = *config;
    if !config.sanitize.is_on() {
        config.sanitize = sanitize_level();
    }
    simulate_predecoded(kernel, &config, prog).unwrap_or_else(|e| panic!("simulation failed: {e}"))
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
    /// The simulator configuration for this machine.
    pub fn config(self) -> SimConfig {
        match self {
            Machine::Conventional => SimConfig::conventional(),
            Machine::Full128 => SimConfig::baseline_full(),
            Machine::Shrink64 => SimConfig::gpu_shrink(50),
            Machine::HardwareOnly => {
                let mut c = SimConfig::baseline_full();
                c.regfile.policy = VirtualizationPolicy::HardwareOnly;
                c
            }
        }
    }

    /// The binary this machine executes (with or without metadata).
    pub fn compile(self, w: &Workload) -> CompiledKernel {
        match self {
            Machine::Conventional | Machine::HardwareOnly => compile_plain(w),
            Machine::Full128 | Machine::Shrink64 => compile_full(w),
        }
    }

    /// Compile + run in one step.
    pub fn run(self, w: &Workload) -> SimResult {
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
