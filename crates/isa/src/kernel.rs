//! Kernels: a program (instruction + metadata stream) plus CUDA-style
//! launch geometry.

use std::collections::BTreeSet;
use std::fmt;

use crate::instr::Instr;
use crate::meta::{Pbr, Pir};
use crate::reg::ArchReg;
use crate::{MAX_REGS_PER_THREAD, WARP_SIZE};

/// One 64-bit program slot: a machine instruction or an embedded
/// metadata instruction.
///
/// Metadata instructions occupy real PC slots (the paper's compiler
/// embeds them in the code stream, and the fetch stage must either
/// fetch them or skip them on a release-flag-cache hit), so branch
/// targets count them.
#[derive(Clone, PartialEq, Debug)]
pub enum ProgItem {
    /// A machine instruction.
    Instr(Instr),
    /// A per-instruction release flag-set.
    Pir(Pir),
    /// A per-branch release flag-set.
    Pbr(Pbr),
}

impl ProgItem {
    /// The machine instruction, when this slot holds one.
    pub fn as_instr(&self) -> Option<&Instr> {
        match self {
            ProgItem::Instr(i) => Some(i),
            _ => None,
        }
    }

    /// Whether this slot holds a metadata instruction.
    pub fn is_meta(&self) -> bool {
        matches!(self, ProgItem::Pir(_) | ProgItem::Pbr(_))
    }
}

impl fmt::Display for ProgItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgItem::Instr(i) => write!(f, "{i}"),
            ProgItem::Pir(p) => write!(f, "{p}"),
            ProgItem::Pbr(p) => write!(f, "{p}"),
        }
    }
}

/// CUDA-style launch geometry for a kernel.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LaunchConfig {
    grid_ctas: u32,
    threads_per_cta: u32,
    max_conc_ctas_per_sm: u32,
}

impl LaunchConfig {
    /// Creates a launch configuration.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero or `threads_per_cta`
    /// exceeds 1024.
    pub fn new(grid_ctas: u32, threads_per_cta: u32, max_conc_ctas_per_sm: u32) -> LaunchConfig {
        assert!(grid_ctas > 0, "grid must contain at least one CTA");
        assert!(
            (1..=1024).contains(&threads_per_cta),
            "threads per CTA must be in 1..=1024, got {threads_per_cta}"
        );
        assert!(
            max_conc_ctas_per_sm > 0,
            "at least one CTA must fit on an SM"
        );
        LaunchConfig {
            grid_ctas,
            threads_per_cta,
            max_conc_ctas_per_sm,
        }
    }

    /// Number of CTAs in the grid.
    pub fn grid_ctas(&self) -> u32 {
        self.grid_ctas
    }

    /// Threads per CTA.
    pub fn threads_per_cta(&self) -> u32 {
        self.threads_per_cta
    }

    /// Occupancy limit: concurrent CTAs per SM (Table 1's
    /// "Conc. CTAs/Core").
    pub fn max_conc_ctas_per_sm(&self) -> u32 {
        self.max_conc_ctas_per_sm
    }

    /// Warps per CTA (threads rounded up to warp granularity).
    pub fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta.div_ceil(WARP_SIZE as u32)
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> u64 {
        u64::from(self.grid_ctas) * u64::from(self.threads_per_cta)
    }
}

/// A complete kernel: name, program, and launch geometry.
///
/// A fresh kernel from [`crate::builder::KernelBuilder`] contains only
/// machine instructions; the compiler (`rfv-compiler`) rewrites it with
/// embedded `pir`/`pbr` metadata.
#[derive(Clone, PartialEq, Debug)]
pub struct Kernel {
    name: String,
    items: Vec<ProgItem>,
    launch: LaunchConfig,
}

impl Kernel {
    /// Assembles a kernel from parts, validating every instruction and
    /// every branch target.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid instruction or
    /// out-of-range branch target.
    pub fn new(
        name: impl Into<String>,
        items: Vec<ProgItem>,
        launch: LaunchConfig,
    ) -> Result<Kernel, String> {
        let name = name.into();
        if items.is_empty() {
            return Err(format!("kernel {name}: empty program"));
        }
        for (pc, item) in items.iter().enumerate() {
            if let ProgItem::Instr(i) = item {
                i.validate().map_err(|e| format!("{name}@{pc:#x}: {e}"))?;
                if let Some(t) = i.target {
                    if t >= items.len() {
                        return Err(format!("{name}@{pc:#x}: branch target {t:#x} out of range"));
                    }
                }
            }
        }
        Ok(Kernel {
            name,
            items,
            launch,
        })
    }

    /// The kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program stream.
    pub fn items(&self) -> &[ProgItem] {
        &self.items
    }

    /// The launch geometry.
    pub fn launch(&self) -> LaunchConfig {
        self.launch
    }

    /// Replaces the launch geometry (used by workload scaling).
    pub fn with_launch(mut self, launch: LaunchConfig) -> Kernel {
        self.launch = launch;
        self
    }

    /// Program length in slots (machine + metadata instructions).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the program is empty (never true for a valid kernel).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of machine (non-metadata) instructions.
    pub fn num_machine_instrs(&self) -> usize {
        self.items.iter().filter(|i| !i.is_meta()).count()
    }

    /// Number of embedded metadata instructions.
    pub fn num_meta_instrs(&self) -> usize {
        self.items.iter().filter(|i| i.is_meta()).count()
    }

    /// The set of architected registers the program touches.
    pub fn regs_used(&self) -> BTreeSet<ArchReg> {
        let mut set = BTreeSet::new();
        for item in &self.items {
            if let ProgItem::Instr(i) = item {
                set.extend(i.reads());
                set.extend(i.writes());
            }
        }
        set
    }

    /// Registers allocated per thread: `max register id + 1`.
    ///
    /// This mirrors how the CUDA toolchain reports "registers per
    /// kernel" (Table 1): allocation is by highest id, not by the count
    /// of distinct ids.
    pub fn num_regs(&self) -> usize {
        self.items
            .iter()
            .filter_map(ProgItem::as_instr)
            .flat_map(|i| i.reads().chain(i.writes()))
            .map(|r| r.index() + 1)
            .max()
            .unwrap_or(0)
            .min(MAX_REGS_PER_THREAD)
    }

    /// Total architected warp-registers demanded per SM at full
    /// occupancy: `num_regs × warps/CTA × conc. CTAs`.
    pub fn arch_regs_per_sm(&self) -> usize {
        self.num_regs()
            * self.launch.warps_per_cta() as usize
            * self.launch.max_conc_ctas_per_sm() as usize
    }

    /// Disassembles the program, one slot per line.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (pc, item) in self.items.iter().enumerate() {
            let _ = writeln!(out, "/*{:04x}*/  {item}", pc * 8);
        }
        out
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel {} ({} instrs, {} regs/thread, {}x{} threads)",
            self.name,
            self.items.len(),
            self.num_regs(),
            self.launch.grid_ctas(),
            self.launch.threads_per_cta()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Operand;
    use crate::op::Opcode;

    fn mov(dst: u8, v: i32) -> ProgItem {
        let mut i = Instr::new(Opcode::Mov);
        i.dst = Some(ArchReg::new(dst));
        i.srcs = vec![Operand::Imm(v)];
        ProgItem::Instr(i)
    }

    fn exit() -> ProgItem {
        ProgItem::Instr(Instr::new(Opcode::Exit))
    }

    #[test]
    fn launch_config_geometry() {
        let lc = LaunchConfig::new(64, 256, 6);
        assert_eq!(lc.warps_per_cta(), 8);
        assert_eq!(lc.total_threads(), 64 * 256);
        let odd = LaunchConfig::new(168, 169, 8); // the NN benchmark
        assert_eq!(odd.warps_per_cta(), 6);
    }

    #[test]
    #[should_panic(expected = "1..=1024")]
    fn launch_config_rejects_oversized_cta() {
        LaunchConfig::new(1, 1025, 1);
    }

    #[test]
    fn kernel_counts_regs_by_max_id() {
        let k = Kernel::new(
            "t",
            vec![mov(0, 1), mov(9, 2), exit()],
            LaunchConfig::new(1, 32, 1),
        )
        .unwrap();
        // ids 0 and 9 used; allocation is by max id + 1
        assert_eq!(k.regs_used().len(), 2);
        assert_eq!(k.num_regs(), 10);
    }

    #[test]
    fn kernel_rejects_bad_branch_target() {
        let mut b = Instr::new(Opcode::Bra);
        b.target = Some(99);
        let err = Kernel::new(
            "t",
            vec![ProgItem::Instr(b), exit()],
            LaunchConfig::new(1, 32, 1),
        )
        .unwrap_err();
        assert!(err.contains("out of range"));
    }

    #[test]
    fn kernel_rejects_empty_program() {
        assert!(Kernel::new("t", vec![], LaunchConfig::new(1, 32, 1)).is_err());
    }

    #[test]
    fn arch_regs_per_sm() {
        let k = Kernel::new("t", vec![mov(13, 1), exit()], LaunchConfig::new(64, 256, 6)).unwrap();
        // 14 regs × 8 warps × 6 CTAs
        assert_eq!(k.arch_regs_per_sm(), 14 * 8 * 6);
    }

    #[test]
    fn meta_counting() {
        let k = Kernel::new(
            "t",
            vec![ProgItem::Pir(Pir::new()), mov(0, 1), exit()],
            LaunchConfig::new(1, 32, 1),
        )
        .unwrap();
        assert_eq!(k.num_meta_instrs(), 1);
        assert_eq!(k.num_machine_instrs(), 2);
        assert!(k.disassemble().contains(".pir"));
    }
}
