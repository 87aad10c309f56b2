//! Kernel predecode: a dense, issue-ready program image built once
//! per SM at construction.
//!
//! The fetch/issue hot path used to re-interpret [`ProgItem`]s every
//! cycle — cloning each [`Instr`]'s heap-allocated operand `Vec`,
//! re-deriving the scoreboard's register set, and looking up release
//! flags and reconvergence PCs in side tables per issue. This module
//! does all of that exactly once at launch:
//!
//! * every instruction becomes a flat, `Copy`-able
//!   [`PredecodedInstr`] with its operands inlined into a fixed
//!   `[Operand; MAX_SRC_OPERANDS]` array,
//! * the scoreboard test collapses to one AND against a precomputed
//!   `hazard_mask` (source registers ∪ destination),
//! * the compiler's per-PC release flags and branch reconvergence
//!   PCs are prefetched into the item itself,
//! * `pbr` register lists live in one shared arena addressed by
//!   `(lo, hi)` ranges, so decoding a `pbr` touches no allocator.
//!
//! Predecode is purely representational: field for field it is the
//! compiled program, so it changes no issue order, timing or
//! statistic.

use rfv_compiler::CompiledKernel;
use rfv_isa::kernel::ProgItem;
use rfv_isa::{ArchReg, Opcode, Operand, Pred, PredGuard, ReleaseFlags, MAX_SRC_OPERANDS};

use crate::warp::NO_RECONV;

/// One instruction, flattened for issue (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct PredecodedInstr {
    /// Operation to perform.
    pub opcode: Opcode,
    /// Destination register, when the opcode writes one.
    pub dst: Option<ArchReg>,
    /// Destination predicate (SETP family).
    pub pdst: Option<Pred>,
    /// Predicate source consumed by `SEL`.
    pub psrc: Option<Pred>,
    /// Optional execution guard.
    pub guard: Option<PredGuard>,
    /// Immediate byte offset for memory operations.
    pub mem_offset: i32,
    /// Branch target PC; meaningful only for `BRA` (validated at
    /// predecode, so no `Option` on the hot path).
    pub target: u32,
    /// Reconvergence PC for `BRA` ([`NO_RECONV`] when the analysis
    /// found none) — `reconv_at(pc)` prefetched.
    pub reconv: usize,
    /// Release flags at this PC — `flags_at(pc)` prefetched.
    pub flags: ReleaseFlags,
    /// Scoreboard mask: bit `r` set iff this instruction reads or
    /// writes architected register `r`. One AND against
    /// `Warp::outstanding` replaces the per-issue operand walk.
    pub hazard_mask: u64,
    nsrcs: u8,
    srcs: [Operand; MAX_SRC_OPERANDS],
}

impl PredecodedInstr {
    /// Source operands, in operand-slot order.
    pub fn srcs(&self) -> &[Operand] {
        &self.srcs[..self.nsrcs as usize]
    }

    /// Register source operands with their slot positions (slot
    /// numbering matters: release flags are per operand slot).
    pub fn src_regs(&self) -> impl Iterator<Item = (usize, ArchReg)> + '_ {
        self.srcs()
            .iter()
            .enumerate()
            .filter_map(|(slot, op)| op.reg().map(|r| (slot, r)))
    }
}

/// One predecoded program item.
#[derive(Clone, Copy, Debug)]
pub enum PdItem {
    /// A machine instruction.
    Instr(PredecodedInstr),
    /// Per-instruction release metadata (`pir`); only its flag count
    /// is observable at fetch.
    Pir {
        /// Number of release flags the payload carries.
        release_count: u16,
    },
    /// Bulk-release metadata (`pbr`); the register list is the
    /// `lo..hi` range of [`PredecodedKernel::pbr_regs`].
    Pbr {
        /// First index into the pbr-register arena.
        lo: u32,
        /// One past the last index into the pbr-register arena.
        hi: u32,
    },
}

/// A compiled kernel predecoded into dense issue-ready items.
#[derive(Clone, Debug)]
pub struct PredecodedKernel {
    items: Vec<PdItem>,
    pbr_regs: Vec<ArchReg>,
    kernel_hash: u64,
    /// Threaded-code lowering of `items` (see [`crate::sm::plan`]),
    /// built here so rfvd's compile cache and checkpoint resume share
    /// the plan for free alongside the image.
    plan: crate::sm::plan::ExecPlan,
}

impl PredecodedKernel {
    /// Predecodes `kernel` (see module docs). Cost is one pass over
    /// the program, paid per SM at construction.
    pub fn new(kernel: &CompiledKernel) -> PredecodedKernel {
        let program = kernel.kernel();
        let mut items = Vec::with_capacity(program.len());
        let mut pbr_regs = Vec::new();
        for (pc, item) in program.items().iter().enumerate() {
            items.push(match item {
                ProgItem::Pir(p) => PdItem::Pir {
                    release_count: p.release_count() as u16,
                },
                ProgItem::Pbr(p) => {
                    let lo = pbr_regs.len() as u32;
                    pbr_regs.extend_from_slice(p.regs());
                    PdItem::Pbr {
                        lo,
                        hi: pbr_regs.len() as u32,
                    }
                }
                ProgItem::Instr(i) => {
                    let mut srcs = [Operand::Imm(0); MAX_SRC_OPERANDS];
                    srcs[..i.srcs.len()].copy_from_slice(&i.srcs);
                    let mut hazard_mask = 0u64;
                    for r in i.reads() {
                        hazard_mask |= 1u64 << r.index();
                    }
                    if let Some(d) = i.dst {
                        hazard_mask |= 1u64 << d.index();
                    }
                    PdItem::Instr(PredecodedInstr {
                        opcode: i.opcode,
                        dst: i.dst,
                        pdst: i.pdst,
                        psrc: i.psrc,
                        guard: i.guard,
                        mem_offset: i.mem_offset,
                        target: i.target.unwrap_or(0) as u32,
                        reconv: kernel.reconv_at(pc).flatten().unwrap_or(NO_RECONV),
                        flags: kernel.flags_at(pc),
                        hazard_mask,
                        nsrcs: i.srcs.len() as u8,
                        srcs,
                    })
                }
            });
        }
        let plan = crate::sm::plan::ExecPlan::lower(&items);
        PredecodedKernel {
            items,
            pbr_regs,
            kernel_hash: crate::checkpoint::kernel_identity_hash(kernel),
            plan,
        }
    }

    /// The threaded-code execution plan lowered from this image.
    #[inline]
    pub(crate) fn plan(&self) -> &crate::sm::plan::ExecPlan {
        &self.plan
    }

    /// [`crate::checkpoint::kernel_identity_hash`] of the source
    /// kernel, computed once here because it walks the whole program
    /// (one structural pass, no formatting) — sharing the predecoded
    /// image across runs also shares the hash, so checkpoint identity
    /// binding costs nothing per run.
    pub fn kernel_hash(&self) -> u64 {
        self.kernel_hash
    }

    /// The item at `pc`.
    #[inline]
    pub fn item(&self, pc: usize) -> &PdItem {
        &self.items[pc]
    }

    /// Number of program items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The register list of a `pbr` item, addressed by its arena
    /// range.
    #[inline]
    pub fn pbr_regs(&self, lo: u32, hi: u32) -> &[ArchReg] {
        &self.pbr_regs[lo as usize..hi as usize]
    }
}
