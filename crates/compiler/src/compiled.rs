//! The compile driver and its output, [`CompiledKernel`].

use std::fmt;

use rfv_isa::binary::encode_program_identity;
use rfv_isa::{ArchReg, Kernel, Opcode, ReleaseFlags};

use crate::candidates::{CandidateSelection, DEFAULT_TABLE_BUDGET_BYTES};
use crate::cfg::{Cfg, CfgError};
use crate::dom::PostDominators;
use crate::insert::insert_flags;
use crate::lifetime::LifetimeStats;
use crate::liveness::{Liveness, RegSet};
use crate::regions::DivergenceRegions;
use crate::release::ReleasePoints;
use crate::uniform::Uniformity;

/// Compilation options.
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Renaming-table budget in bytes (paper default: 1 KB). Registers
    /// beyond the budget are exempted from renaming.
    pub table_budget_bytes: usize,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            table_budget_bytes: DEFAULT_TABLE_BUDGET_BYTES,
        }
    }
}

/// Aggregate statistics from one compilation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CompileStats {
    /// Machine instructions in the kernel.
    pub machine_instrs: usize,
    /// Embedded `pir` metadata instructions.
    pub num_pir: usize,
    /// Embedded `pbr` metadata instructions.
    pub num_pbr: usize,
    /// Static code growth from metadata, in percent (Figure 13,
    /// "Static").
    pub static_increase_pct: f64,
    /// Renaming-table size without the budget, in bytes (Figure 14).
    pub unconstrained_table_bytes: usize,
    /// Renaming-table size under the budget, in bytes.
    pub table_bytes: usize,
    /// Registers participating in renaming.
    pub num_renamed: usize,
    /// Registers exempted from renaming.
    pub num_exempt: usize,
    /// Concurrent warps per SM at full occupancy.
    pub warps_per_sm: usize,
    /// Branches that may split a warp.
    pub num_divergent_branches: usize,
    /// Average registers released per `pbr` (paper quotes ≈ 2).
    pub avg_regs_per_pbr: f64,
}

/// Error from [`compile`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// The input kernel was not fresh (already carries metadata).
    Cfg(CfgError),
    /// The rewritten kernel failed validation (an internal invariant
    /// violation).
    Internal(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Cfg(e) => write!(f, "{e}"),
            CompileError::Internal(e) => write!(f, "internal compiler error: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<CfgError> for CompileError {
    fn from(e: CfgError) -> CompileError {
        CompileError::Cfg(e)
    }
}

/// [`CompiledKernel`]'s reconvergence entry for a PC that holds no
/// conditional branch.
const NOT_A_BRANCH: u32 = u32::MAX;

/// [`CompiledKernel`]'s reconvergence entry for a branch that
/// reconverges only at program end.
const AT_PROGRAM_END: u32 = u32::MAX - 1;

/// A kernel compiled for register file virtualization.
///
/// Carries the rewritten program (with embedded metadata), per-PC
/// release flags, the reconvergence table the SIMT stack consumes, and
/// the renamed/exempt register partition.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    kernel: Kernel,
    flags: Vec<ReleaseFlags>,
    /// Per final PC, like `flags`: the reconvergence PC of the
    /// conditional branch there, [`AT_PROGRAM_END`], or
    /// [`NOT_A_BRANCH`] (four bytes a slot, since every cached kernel
    /// carries one entry per PC).
    reconv: Vec<u32>,
    renamed: RegSet,
    exempt: RegSet,
    stats: CompileStats,
    lifetimes: LifetimeStats,
    max_held_per_warp: usize,
    pressure_profile: Vec<usize>,
}

impl CompiledKernel {
    /// The rewritten kernel (machine + metadata instructions).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Release flags for the instruction at final PC `pc`.
    pub fn flags_at(&self, pc: usize) -> ReleaseFlags {
        self.flags[pc]
    }

    /// Reconvergence PC for the conditional branch at final PC `pc`.
    ///
    /// Returns `None` for non-branches; `Some(None)` marks a branch
    /// that reconverges only at program end.
    pub fn reconv_at(&self, pc: usize) -> Option<Option<usize>> {
        match *self.reconv.get(pc)? {
            NOT_A_BRANCH => None,
            AT_PROGRAM_END => Some(None),
            r => Some(Some(r as usize)),
        }
    }

    /// Whether `r` participates in renaming.
    pub fn is_renamed(&self, r: ArchReg) -> bool {
        self.renamed.contains(r)
    }

    /// Whether `r` is exempted from renaming (statically mapped).
    pub fn is_exempt(&self, r: ArchReg) -> bool {
        self.exempt.contains(r)
    }

    /// The renamed register set.
    pub fn renamed(&self) -> RegSet {
        self.renamed
    }

    /// The exempt register set.
    pub fn exempt(&self) -> RegSet {
        self.exempt
    }

    /// Compilation statistics.
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// Static lifetime statistics (Figure 2 inputs).
    pub fn lifetimes(&self) -> &LifetimeStats {
        &self.lifetimes
    }

    /// Registers allocated per thread.
    pub fn num_regs(&self) -> usize {
        self.kernel.num_regs()
    }

    /// Worst-case held-register count at each final PC (0 at metadata
    /// slots): the static register-pressure curve a warp can exert.
    pub fn pressure_profile(&self) -> &[usize] {
        &self.pressure_profile
    }

    /// Compiler-provided per-warp worst-case *concurrent* register
    /// holding under early release: renamed registers that can be
    /// held at once plus the always-held exempt registers. GPU-shrink
    /// uses `this × warps/CTA` as the CTA throttle budget (§8.1).
    pub fn max_held_per_warp(&self) -> usize {
        self.max_held_per_warp
    }

    /// Appends this kernel's structural identity to `out`: the program
    /// (launch geometry and every slot, via
    /// [`encode_program_identity`]), then per PC its release flags and
    /// reconvergence entry, the exempt set, `num_regs`, and
    /// `max_held_per_warp` — every field the simulator reads, so two
    /// kernels that encode equal execute identically. The name, the
    /// renamed set, statistics, lifetimes and the pressure profile are
    /// reporting-only and stay out. One pass, no formatting; `rfv-sim`
    /// hashes these bytes into the kernel hash that binds checkpoints.
    pub fn encode_identity(&self, out: &mut Vec<u8>) {
        // destructured so a new field has to be classified here
        let CompiledKernel {
            kernel,
            flags,
            reconv,
            renamed: _,
            exempt,
            stats: _,
            lifetimes: _,
            max_held_per_warp,
            pressure_profile: _,
        } = self;
        encode_program_identity(kernel, out);
        out.reserve(5 * flags.len() + 24);
        for (f, r) in flags.iter().zip(reconv) {
            out.push(f.bits());
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&exempt.bits().to_le_bytes());
        out.extend_from_slice(&(kernel.num_regs() as u64).to_le_bytes());
        out.extend_from_slice(&(*max_held_per_warp as u64).to_le_bytes());
    }
}

/// Compiles a fresh kernel: lifetime analysis, release-point
/// computation, candidate selection, and metadata insertion.
///
/// # Errors
///
/// Fails if the kernel already contains metadata instructions.
pub fn compile(kernel: &Kernel, options: &CompileOptions) -> Result<CompiledKernel, CompileError> {
    let cfg = Cfg::build(kernel)?;
    let liveness = Liveness::compute(&cfg);
    let pdom = PostDominators::compute(&cfg);
    let uniformity = Uniformity::compute(cfg.instrs());
    let regions = DivergenceRegions::compute(&cfg, &pdom, &uniformity);

    // unrestricted pass: find every register that *could* be released,
    // and estimate lifetimes for candidate selection
    let all: RegSet = ArchReg::all().collect();
    let unrestricted = ReleasePoints::compute(&cfg, &liveness, &regions, all);
    let lifetimes = LifetimeStats::analyze(&cfg, &liveness, &unrestricted);
    let releasable = unrestricted.released_regs_with(&cfg);
    let selection = CandidateSelection::select(
        kernel.launch(),
        kernel.num_regs(),
        &lifetimes,
        releasable,
        options.table_budget_bytes,
    );

    // restricted pass: only renamed registers carry release flags
    let release = ReleasePoints::compute(&cfg, &liveness, &regions, selection.renamed);
    let held = release.held_profile(&cfg, selection.renamed);
    let max_held_per_warp = held.iter().copied().max().unwrap_or(0) + selection.exempt.len();
    let insertion = insert_flags(&cfg, &release);
    let mut pressure_profile = vec![0usize; insertion.items.len()];
    for (orig_pc, &new_pc) in insertion.pc_map.iter().enumerate() {
        pressure_profile[new_pc] = held[orig_pc];
    }

    // reconvergence table over all conditional branches (the runtime
    // mask decides whether a branch actually diverges)
    let mut reconv = vec![NOT_A_BRANCH; insertion.items.len()];
    for b in cfg.cond_branch_blocks() {
        let old_branch_pc = cfg.block(b).end - 1;
        let new_branch_pc = insertion.pc_map[old_branch_pc];
        reconv[new_branch_pc] = match pdom.ipdom(b) {
            Some(r) => u32::try_from(insertion.block_start[r.0])
                .ok()
                .filter(|&pc| pc < AT_PROGRAM_END)
                .expect("reconvergence PC fits the table"),
            None => AT_PROGRAM_END,
        };
    }

    let machine_instrs = cfg.instrs().len();
    let num_pir = insertion
        .items
        .iter()
        .filter(|i| matches!(i, rfv_isa::kernel::ProgItem::Pir(_)))
        .count();
    let num_pbr = insertion
        .items
        .iter()
        .filter(|i| matches!(i, rfv_isa::kernel::ProgItem::Pbr(_)))
        .count();
    let (pbr_regs_total, _) = release.pbr_totals();
    let num_divergent_branches = regions.divergent_branches().count();

    let stats = CompileStats {
        machine_instrs,
        num_pir,
        num_pbr,
        static_increase_pct: 100.0 * (num_pir + num_pbr) as f64 / machine_instrs as f64,
        unconstrained_table_bytes: selection.unconstrained_table_bytes,
        table_bytes: selection.table_bytes,
        num_renamed: selection.renamed.len(),
        num_exempt: selection.exempt.len(),
        warps_per_sm: selection.warps_per_sm,
        num_divergent_branches,
        avg_regs_per_pbr: if num_pbr == 0 {
            0.0
        } else {
            pbr_regs_total as f64 / num_pbr as f64
        },
    };

    let rewritten = Kernel::new(kernel.name(), insertion.items, kernel.launch())
        .map_err(CompileError::Internal)?;

    debug_assert_eq!(rewritten.len(), insertion.flags.len());
    debug_assert!(reconv.iter().zip(rewritten.items()).all(|(&r, item)| {
        r == NOT_A_BRANCH || item.as_instr().is_some_and(|i| i.opcode == Opcode::Bra)
    }));

    Ok(CompiledKernel {
        kernel: rewritten,
        flags: insertion.flags,
        reconv,
        renamed: selection.renamed,
        exempt: selection.exempt,
        stats,
        lifetimes,
        max_held_per_warp,
        pressure_profile,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_isa::kernel::ProgItem;
    use rfv_isa::prelude::*;
    use rfv_isa::{PredGuard, Special};

    fn sample_kernel() -> Kernel {
        let mut b = KernelBuilder::new("sample");
        b.s2r(ArchReg::R0, Special::TidX);
        b.mov(ArchReg::R2, 7);
        b.isetp(Cond::Lt, Pred::P0, ArchReg::R0, Operand::Imm(16));
        b.guard(PredGuard::if_false(Pred::P0));
        b.bra("else");
        b.iadd(ArchReg::R1, ArchReg::R2, 1);
        b.bra("join");
        b.label("else");
        b.iadd(ArchReg::R1, ArchReg::R2, 2);
        b.label("join");
        b.stg(ArchReg::R0, ArchReg::R1, 0);
        b.exit();
        b.build(LaunchConfig::new(16, 256, 4)).unwrap()
    }

    #[test]
    fn compile_produces_metadata_and_stats() {
        let ck = compile(&sample_kernel(), &CompileOptions::default()).unwrap();
        let s = ck.stats();
        assert_eq!(s.machine_instrs, 9);
        assert!(s.num_pir >= 1);
        assert_eq!(s.num_pbr, 1, "r2 released at the join");
        assert!(s.static_increase_pct > 0.0);
        assert!(s.num_renamed > 0);
        assert_eq!(s.num_divergent_branches, 1);
        assert!(s.avg_regs_per_pbr >= 1.0);
    }

    #[test]
    fn reconv_table_points_at_branch_and_join() {
        let ck = compile(&sample_kernel(), &CompileOptions::default()).unwrap();
        // exactly one conditional branch
        let branch_pcs: Vec<usize> = ck
            .kernel()
            .items()
            .iter()
            .enumerate()
            .filter(|(_, it)| {
                it.as_instr()
                    .is_some_and(|i| i.opcode == Opcode::Bra && i.guard.is_some())
            })
            .map(|(pc, _)| pc)
            .collect();
        assert_eq!(branch_pcs.len(), 1);
        let reconv = ck.reconv_at(branch_pcs[0]).unwrap().unwrap();
        // the reconvergence slot is the pbr at the join block head
        assert!(matches!(
            ck.kernel().items()[reconv],
            rfv_isa::kernel::ProgItem::Pbr(_)
        ));
    }

    #[test]
    fn flags_align_with_final_pcs() {
        let ck = compile(&sample_kernel(), &CompileOptions::default()).unwrap();
        for (pc, item) in ck.kernel().items().iter().enumerate() {
            if item.is_meta() {
                assert!(!ck.flags_at(pc).any());
            }
        }
        // at least one machine instruction carries a release flag
        let any = (0..ck.kernel().len()).any(|pc| ck.flags_at(pc).any());
        assert!(any);
    }

    #[test]
    fn renamed_and_exempt_partition_used_regs() {
        let ck = compile(&sample_kernel(), &CompileOptions::default()).unwrap();
        for r in [ArchReg::R0, ArchReg::R1, ArchReg::R2] {
            assert!(
                ck.is_renamed(r) ^ ck.is_exempt(r),
                "{r} must be exactly one of renamed/exempt"
            );
        }
    }

    #[test]
    fn compiling_twice_fails_cleanly() {
        let ck = compile(&sample_kernel(), &CompileOptions::default()).unwrap();
        let err = compile(ck.kernel(), &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::Cfg(_)));
    }

    /// A kernel with every field the simulator reads in play: a
    /// special register, a load offset, a three-operand IMAD, a
    /// compare, a `SEL`, and a guarded branch whose arms release a
    /// register at the join (a `pir` and a `pbr`).
    fn identity_kernel() -> Kernel {
        let mut b = KernelBuilder::new("identity");
        b.s2r(ArchReg::R0, Special::TidX);
        b.ldg(ArchReg::R1, ArchReg::R0, 0x40);
        b.imad(ArchReg::R2, ArchReg::R1, Operand::Imm(3), ArchReg::R0);
        b.isetp(Cond::Lt, Pred::P0, ArchReg::R0, Operand::Imm(16));
        b.sel(ArchReg::R4, ArchReg::R2, Operand::Imm(7), Pred::P0);
        b.guard(PredGuard::if_false(Pred::P0));
        b.bra("else");
        b.iadd(ArchReg::R3, ArchReg::R4, 1);
        b.bra("join");
        b.label("else");
        b.iadd(ArchReg::R3, ArchReg::R4, 2);
        b.label("join");
        b.stg(ArchReg::R0, ArchReg::R3, 0);
        b.exit();
        b.build(LaunchConfig::new(16, 256, 4)).unwrap()
    }

    /// The kernel hash as `rfv_sim::kernel_identity_hash` computes it
    /// (FNV-1a over the identity bytes; `tests/compiler_properties.rs`
    /// pins the two together).
    fn identity_hash(ck: &CompiledKernel) -> u64 {
        let mut bytes = Vec::new();
        ck.encode_identity(&mut bytes);
        rfv_trace::wire::fnv1a(&bytes)
    }

    /// A copy of `base` changed by `f`.
    fn changed(base: &CompiledKernel, f: impl FnOnce(&mut CompiledKernel)) -> CompiledKernel {
        let mut ck = base.clone();
        f(&mut ck);
        ck
    }

    /// A copy of `base` with program slot `pc` rewritten by `f`.
    fn with_item(
        base: &CompiledKernel,
        pc: usize,
        f: impl FnOnce(&mut ProgItem),
    ) -> CompiledKernel {
        changed(base, |ck| {
            let mut items = ck.kernel.items().to_vec();
            f(&mut items[pc]);
            ck.kernel = Kernel::new(ck.kernel.name(), items, ck.kernel.launch())
                .expect("perturbed kernel stays valid");
        })
    }

    /// A copy of `base` with the machine instruction at `pc` rewritten.
    fn with_instr(
        base: &CompiledKernel,
        pc: usize,
        f: impl FnOnce(&mut rfv_isa::Instr),
    ) -> CompiledKernel {
        with_item(base, pc, |item| match item {
            ProgItem::Instr(i) => f(i),
            other => panic!("not a machine instruction: {other:?}"),
        })
    }

    #[test]
    fn identity_covers_every_field_the_simulator_reads() {
        let base = compile(&identity_kernel(), &CompileOptions::default()).unwrap();
        let items = base.kernel().items();
        let pc_of = |want: &dyn Fn(&ProgItem) -> bool| items.iter().position(want).unwrap();
        let op = |o: Opcode| pc_of(&|it| it.as_instr().is_some_and(|i| i.opcode == o));
        let s2r = op(Opcode::S2r(Special::TidX));
        let (ldg, imad, sel, iadd) = (
            op(Opcode::Ldg),
            op(Opcode::Imad),
            op(Opcode::Sel),
            op(Opcode::Iadd),
        );
        let isetp = op(Opcode::Isetp(Cond::Lt));
        let branch = pc_of(&|it| {
            it.as_instr()
                .is_some_and(|i| i.opcode == Opcode::Bra && i.guard.is_some())
        });
        let pir = pc_of(&|it| matches!(it, ProgItem::Pir(p) if p.any()));
        let pbr = pc_of(&|it| matches!(it, ProgItem::Pbr(p) if !p.is_empty()));
        assert!(
            base.reconv[branch] < AT_PROGRAM_END,
            "the branch reconverges in the program"
        );
        let relaunched = |grid, tpc, conc| {
            changed(&base, |ck| {
                ck.kernel = ck
                    .kernel
                    .clone()
                    .with_launch(LaunchConfig::new(grid, tpc, conc))
            })
        };

        let perturbed = [
            (
                "opcode",
                with_instr(&base, iadd, |i| i.opcode = Opcode::Isub),
            ),
            (
                "compare variant",
                with_instr(&base, isetp, |i| i.opcode = Opcode::Isetp(Cond::Le)),
            ),
            (
                "special variant",
                with_instr(&base, s2r, |i| i.opcode = Opcode::S2r(Special::CtaIdX)),
            ),
            (
                "operand 0",
                with_instr(&base, imad, |i| i.srcs[0] = Operand::Reg(ArchReg::R3)),
            ),
            (
                "operand 1",
                with_instr(&base, imad, |i| i.srcs[1] = Operand::Imm(4)),
            ),
            (
                "operand 2 kind",
                with_instr(&base, imad, |i| i.srcs[2] = Operand::Imm(0)),
            ),
            (
                "dst",
                with_instr(&base, iadd, |i| i.dst = Some(ArchReg::R1)),
            ),
            (
                "pdst",
                with_instr(&base, isetp, |i| i.pdst = Some(Pred::P1)),
            ),
            ("psrc", with_instr(&base, sel, |i| i.psrc = Some(Pred::P1))),
            (
                "guard predicate",
                with_instr(&base, branch, |i| {
                    i.guard = Some(PredGuard::if_false(Pred::P1))
                }),
            ),
            (
                "guard polarity",
                with_instr(&base, branch, |i| {
                    i.guard = Some(PredGuard::if_true(Pred::P0))
                }),
            ),
            (
                "mem_offset",
                with_instr(&base, ldg, |i| i.mem_offset = 0x44),
            ),
            (
                "branch target",
                with_instr(&base, branch, |i| i.target = Some(0)),
            ),
            (
                "pir flag",
                with_item(&base, pir, |it| match it {
                    ProgItem::Pir(p) => p.set_flags(17, ReleaseFlags::from_bits(0b100)),
                    other => panic!("not a pir: {other:?}"),
                }),
            ),
            (
                "pbr register",
                with_item(&base, pbr, |it| match it {
                    ProgItem::Pbr(p) => p.push(ArchReg::new(9)).expect("pbr has room"),
                    other => panic!("not a pbr: {other:?}"),
                }),
            ),
            (
                "release flags",
                changed(&base, |ck| {
                    ck.flags[imad] = ReleaseFlags::from_bits(ck.flags[imad].bits() ^ 0b100)
                }),
            ),
            (
                "reconvergence pc",
                changed(&base, |ck| ck.reconv[branch] += 1),
            ),
            (
                "exempt set",
                changed(&base, |ck| {
                    let r = ArchReg::new(9);
                    if !ck.exempt.insert(r) {
                        ck.exempt.remove(r);
                    }
                }),
            ),
            (
                "max_held_per_warp",
                changed(&base, |ck| ck.max_held_per_warp += 1),
            ),
            ("grid CTAs", relaunched(17, 256, 4)),
            ("threads per CTA", relaunched(16, 128, 4)),
            ("concurrent CTAs", relaunched(16, 256, 5)),
        ];
        let mut seen = std::collections::HashSet::from([identity_hash(&base)]);
        for (what, ck) in &perturbed {
            assert!(
                seen.insert(identity_hash(ck)),
                "perturbing the {what} must change the kernel hash"
            );
        }
        // and nothing else moves it: a fresh compile hashes equal
        let again = compile(&identity_kernel(), &CompileOptions::default()).unwrap();
        assert_eq!(identity_hash(&again), identity_hash(&base));
    }

    #[test]
    fn zero_budget_compiles_with_everything_exempt() {
        let opts = CompileOptions {
            table_budget_bytes: 0,
        };
        let ck = compile(&sample_kernel(), &opts).unwrap();
        assert_eq!(ck.stats().num_renamed, 0);
        assert_eq!(ck.stats().num_pir, 0, "nothing to release");
        assert_eq!(ck.stats().num_pbr, 0);
    }
}
