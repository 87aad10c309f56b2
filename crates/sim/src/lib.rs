//! # rfv-sim — a cycle-level SIMT GPU simulator
//!
//! The execution substrate for reproducing *GPU Register File
//! Virtualization* (MICRO-48, 2015). One [`sm::Sm`] models a
//! Fermi-class streaming multiprocessor:
//!
//! * **fetch** probes the release-flag cache so repeated `pir`
//!   metadata instructions cost nothing (§7.2);
//! * a **two-level warp scheduler** (six-warp ready queue, pending
//!   queue for memory waiters) creates the inter-warp scheduling skew
//!   that register sharing exploits (§5);
//! * a **SIMT reconvergence stack** executes divergent branches with
//!   compiler-provided reconvergence points;
//! * the **virtualized register file** from [`rfv_core`] handles
//!   renaming, early release, subarray power gating, and — under
//!   GPU-shrink — CTA-level register throttling with the spill
//!   fallback (§8.1);
//! * a **latency/coalescing memory model** provides the long-latency
//!   operations that drive scheduling behaviour.
//!
//! Functional register values are stored per *physical* register, so
//! an unsound early release corrupts program outputs instead of being
//! silently masked — the differential tests in `tests/` rely on this.
//!
//! ```
//! use rfv_isa::prelude::*;
//! use rfv_compiler::{compile, CompileOptions};
//! use rfv_sim::{simulate, SimConfig};
//!
//! let mut b = KernelBuilder::new("inc");
//! b.s2r(ArchReg::R0, Special::TidX);
//! b.shl(ArchReg::R1, ArchReg::R0, 2);
//! b.ldg(ArchReg::R2, ArchReg::R1, 0);
//! b.iadd(ArchReg::R2, ArchReg::R2, 1);
//! b.stg(ArchReg::R1, ArchReg::R2, 0x1000);
//! b.exit();
//! let kernel = b.build(LaunchConfig::new(2, 64, 2))?;
//! let compiled = compile(&kernel, &CompileOptions::default())?;
//!
//! let result = simulate(&compiled, &SimConfig::baseline_full())?;
//! assert!(result.cycles > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
pub mod checkpoint;
pub mod config;
mod fp;
pub mod gpu;
pub mod memory;
pub mod predecode;
pub mod sm;
pub mod stats;
pub mod warp;

pub use checkpoint::{kernel_identity_hash, Checkpoint, CKPT_MAGIC, CKPT_VERSION};
pub use config::SimConfig;
pub use gpu::{
    simulate, simulate_traced, simulate_traced_checkpointed, SimResult, SlicedSim, TracedRun,
};
pub use memory::GlobalMemory;
pub use predecode::PredecodedKernel;
pub use sm::{SimError, WarpDiag, WatchdogSnapshot};
pub use stats::{RegTraceEvent, Sample, SimStats};

// re-exported so simulator users can configure sanitizing and fault
// injection without naming the leaf crates
pub use rfv_core::{SanitizeLevel, Violation, ViolationKind};
pub use rfv_faults::{FaultKind, FaultPlan};
// the whole fault plane, for `rfvd`'s environment chaos
pub use rfv_faults as faults;
