//! Threaded-code execution plans: the `match`-free issue engine.
//!
//! The interpreter in `sm.rs` re-dispatches every issued item twice —
//! once on the [`PdItem`] variant and once on the [`Opcode`] — through
//! `match` ladders whose branch targets the hardware cannot predict
//! across a mixed instruction stream. [`ExecPlan::lower`] walks the
//! predecoded program once at kernel-build time and resolves each PC
//! to a *handler*: a monomorphized function pointer specialized to
//! exactly that item (`h_alu::<OpIadd>`, `h_isetp::<CLt>`, `h_ldg`,
//! …). Issue then becomes one indexed load and one indirect call —
//! classic threaded code.
//!
//! The plan is a pure lowering of the same image the interpreter
//! reads: every handler replicates its interpreter arm *operation for
//! operation* — the same RNG draws in the same order, the same stats
//! increments, the same trace emissions, the same register-file and
//! sanitizer calls. The interpreter stays compiled in as the
//! executable specification (`SimConfig::reference_interpreter`), and
//! the engine-equivalence suite runs both engines and asserts
//! bit-identical results. Any divergence is a bug in this module.
//!
//! Layout: the plan is only the dispatch table, `handlers[pc]`. Each
//! handler reads its operands from the image it was lowered from,
//! `prog.item(pc)`, whose variant is fixed by the lowering (an
//! instruction handler only ever sees `PdItem::Instr`, `h_pir` a
//! `Pir`, `h_pbr` a `Pbr`), so every instruction is stored once.

#![deny(clippy::perf)]

use std::cmp::Reverse;
use std::fmt;

use rfv_core::{SanitizeLevel, Violation, WriteOutcome};
use rfv_faults::FaultKind;
use rfv_isa::{Cond, Opcode, Operand, PhysReg, Special, MAX_SRC_OPERANDS, WARP_SIZE};
use rfv_trace::{FaultLabel, MemPhase, StallReason, TraceEvent, TraceKind};

use super::{IssueOutcome, Lanes, Sm, POISON};
use crate::memory::coalesce_count;
use crate::predecode::{PdItem, PredecodedInstr};
use crate::warp::WarpStatus;

/// What one handler invocation did with its PC.
pub(crate) enum Step {
    /// An instruction (or paid-for metadata) issued this cycle.
    Issued,
    /// Scoreboard hazard: the warp must retry later.
    Blocked,
    /// Destination allocation failed; the warp retries unchanged.
    NoReg,
    /// Free metadata (flag-cache hit): the PC advanced, keep fetching.
    Fall,
}

/// One pre-resolved issue routine. The higher-ranked lifetimes let a
/// single table serve every `Sm` borrow.
pub(crate) type Handler = for<'a, 'k> fn(&'a mut Sm<'k>, usize, usize) -> Step;

/// A predecoded program lowered to threaded code (see module docs).
#[derive(Clone)]
pub(crate) struct ExecPlan {
    handlers: Vec<Handler>,
}

impl fmt::Debug for ExecPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // fn-pointer addresses are not stable across runs; print shape
        f.debug_struct("ExecPlan")
            .field("handlers", &self.handlers.len())
            .finish_non_exhaustive()
    }
}

impl ExecPlan {
    /// Lowers a predecoded item list. One pass, paid once per kernel
    /// build; every run sharing the image shares the plan.
    pub(crate) fn lower(items: &[PdItem]) -> ExecPlan {
        let handlers = items
            .iter()
            .map(|item| match item {
                PdItem::Pir { .. } => h_pir as Handler,
                PdItem::Pbr { .. } => h_pbr,
                PdItem::Instr(i) => instr_handler(i),
            })
            .collect();
        ExecPlan { handlers }
    }

    #[inline]
    fn handler(&self, pc: usize) -> Handler {
        self.handlers[pc]
    }
}

/// Resolves an instruction to its specialized handler — the one
/// `match` on opcode that the plan performs, at lowering time instead
/// of per issue.
fn instr_handler(i: &PredecodedInstr) -> Handler {
    use Opcode::*;
    match i.opcode {
        Bra => h_bra,
        Exit => h_exit,
        Bar => h_bar,
        Nop => h_nop,
        Ldg => h_ldg,
        Ldl => h_ldl,
        Lds => h_lds,
        Stg => h_stg,
        Stl => h_stl,
        Sts => h_sts,
        Isetp(c) => match c {
            Cond::Lt => h_isetp::<CLt>,
            Cond::Le => h_isetp::<CLe>,
            Cond::Gt => h_isetp::<CGt>,
            Cond::Ge => h_isetp::<CGe>,
            Cond::Eq => h_isetp::<CEq>,
            Cond::Ne => h_isetp::<CNe>,
        },
        Fsetp(c) => match c {
            Cond::Lt => h_fsetp::<CLt>,
            Cond::Le => h_fsetp::<CLe>,
            Cond::Gt => h_fsetp::<CGt>,
            Cond::Ge => h_fsetp::<CGe>,
            Cond::Eq => h_fsetp::<CEq>,
            Cond::Ne => h_fsetp::<CNe>,
        },
        Iadd => h_alu::<OpIadd>,
        Isub => h_alu::<OpIsub>,
        Imul => h_alu::<OpImul>,
        Imad => h_alu::<OpImad>,
        And => h_alu::<OpAnd>,
        Or => h_alu::<OpOr>,
        Xor => h_alu::<OpXor>,
        Shl => h_alu::<OpShl>,
        Shr => h_alu::<OpShr>,
        Mov => h_alu::<OpMov>,
        Imin => h_alu::<OpImin>,
        Imax => h_alu::<OpImax>,
        Sel => h_alu::<OpSel>,
        Fadd => h_alu::<OpFadd>,
        Fmul => h_alu::<OpFmul>,
        Ffma => h_alu::<OpFfma>,
        Fmin => h_alu::<OpFmin>,
        Fmax => h_alu::<OpFmax>,
        Frcp => h_alu::<OpFrcp>,
        Fsqrt => h_alu::<OpFsqrt>,
        Fexp => h_alu::<OpFexp>,
        Flog => h_alu::<OpFlog>,
        S2r(s) => match s {
            Special::TidX => h_alu::<OpTidX>,
            Special::CtaIdX => h_alu::<OpCtaIdX>,
            Special::NTidX => h_alu::<OpNTidX>,
            Special::NCtaIdX => h_alu::<OpNCtaIdX>,
            Special::LaneId => h_alu::<OpLaneId>,
            Special::WarpId => h_alu::<OpWarpId>,
        },
    }
}

// ------------------------------------------------------------ lane ops

/// Per-lane context for [`LaneOp`] evaluation, gathered once per
/// instruction instead of re-read per lane.
struct LaneCx {
    psrc_bits: Option<u32>,
    cta_id: u32,
    warp_in_cta: usize,
    threads_per_cta: u32,
    grid_ctas: u32,
}

/// One lane-wise operation, monomorphized into its own `h_alu`
/// instantiation so the per-lane body compiles to straight-line code
/// with no opcode match.
trait LaneOp {
    /// Whether the op issues on the SFU pipe (`Opcode::exec_class`).
    const SFU: bool = false;
    fn eval(cx: &LaneCx, a: u32, b: u32, c: u32, l: usize) -> u32;
}

macro_rules! lane_op {
    ($name:ident, sfu: $sfu:expr, |$cx:ident, $a:ident, $b:ident, $c:ident, $l:ident| $body:expr) => {
        struct $name;
        impl LaneOp for $name {
            const SFU: bool = $sfu;
            #[inline(always)]
            fn eval($cx: &LaneCx, $a: u32, $b: u32, $c: u32, $l: usize) -> u32 {
                let _ = ($cx, $a, $b, $c, $l);
                $body
            }
        }
    };
}

lane_op!(OpIadd, sfu: false, |cx, a, b, c, l| a.wrapping_add(b));
lane_op!(OpIsub, sfu: false, |cx, a, b, c, l| a.wrapping_sub(b));
lane_op!(OpImul, sfu: false, |cx, a, b, c, l| a.wrapping_mul(b));
lane_op!(OpImad, sfu: false, |cx, a, b, c, l| a
    .wrapping_mul(b)
    .wrapping_add(c));
lane_op!(OpAnd, sfu: false, |cx, a, b, c, l| a & b);
lane_op!(OpOr, sfu: false, |cx, a, b, c, l| a | b);
lane_op!(OpXor, sfu: false, |cx, a, b, c, l| a ^ b);
lane_op!(OpShl, sfu: false, |cx, a, b, c, l| a.wrapping_shl(b & 31));
lane_op!(OpShr, sfu: false, |cx, a, b, c, l| a.wrapping_shr(b & 31));
lane_op!(OpMov, sfu: false, |cx, a, b, c, l| a);
lane_op!(OpImin, sfu: false, |cx, a, b, c, l| (a as i32).min(b as i32)
    as u32);
lane_op!(OpImax, sfu: false, |cx, a, b, c, l| (a as i32).max(b as i32)
    as u32);
lane_op!(OpSel, sfu: false, |cx, a, b, c, l| {
    if cx.psrc_bits.expect("validated sel") & (1 << l) != 0 {
        a
    } else {
        b
    }
});
lane_op!(OpFadd, sfu: false, |cx, a, b, c, l| crate::fp::fadd(
    f32::from_bits(a),
    f32::from_bits(b)
)
.to_bits());
lane_op!(OpFmul, sfu: false, |cx, a, b, c, l| crate::fp::fmul(
    f32::from_bits(a),
    f32::from_bits(b)
)
.to_bits());
lane_op!(OpFfma, sfu: false, |cx, a, b, c, l| crate::fp::ffma(
    f32::from_bits(a),
    f32::from_bits(b),
    f32::from_bits(c)
)
.to_bits());
lane_op!(OpFmin, sfu: false, |cx, a, b, c, l| crate::fp::fmin(
    f32::from_bits(a),
    f32::from_bits(b)
)
.to_bits());
lane_op!(OpFmax, sfu: false, |cx, a, b, c, l| crate::fp::fmax(
    f32::from_bits(a),
    f32::from_bits(b)
)
.to_bits());
lane_op!(OpFrcp, sfu: true, |cx, a, b, c, l| (1.0 / f32::from_bits(a))
    .to_bits());
lane_op!(OpFsqrt, sfu: true, |cx, a, b, c, l| f32::from_bits(a)
    .sqrt()
    .to_bits());
lane_op!(OpFexp, sfu: true, |cx, a, b, c, l| f32::from_bits(a)
    .exp2()
    .to_bits());
lane_op!(OpFlog, sfu: true, |cx, a, b, c, l| f32::from_bits(a)
    .log2()
    .to_bits());
lane_op!(OpTidX, sfu: false, |cx, a, b, c, l| (cx.warp_in_cta * WARP_SIZE
    + l) as u32);
lane_op!(OpCtaIdX, sfu: false, |cx, a, b, c, l| cx.cta_id);
lane_op!(OpNTidX, sfu: false, |cx, a, b, c, l| cx.threads_per_cta);
lane_op!(OpNCtaIdX, sfu: false, |cx, a, b, c, l| cx.grid_ctas);
lane_op!(OpLaneId, sfu: false, |cx, a, b, c, l| l as u32);
lane_op!(OpWarpId, sfu: false, |cx, a, b, c, l| cx.warp_in_cta as u32);

/// A SETP condition lifted to a type, so `h_isetp::<CLt>` folds the
/// `Cond` match away. Evaluation still goes through [`Cond::eval_i32`]
/// / [`Cond::eval_f32`] — the constant condition makes those inline to
/// a single compare.
trait CmpCond {
    const COND: Cond;
}

macro_rules! cmp_cond {
    ($name:ident, $cond:expr) => {
        struct $name;
        impl CmpCond for $name {
            const COND: Cond = $cond;
        }
    };
}

cmp_cond!(CLt, Cond::Lt);
cmp_cond!(CLe, Cond::Le);
cmp_cond!(CGt, Cond::Gt);
cmp_cond!(CGe, Cond::Ge);
cmp_cond!(CEq, Cond::Eq);
cmp_cond!(CNe, Cond::Ne);

// ------------------------------------------------------ shared stages

/// Masks and CTA identity computed by the issue front end.
struct Front {
    active: u32,
    exec: u32,
    cta: usize,
}

/// Destination mapping and fetched operands (the interpreter's
/// locals, lifted into a struct the handler stages share).
struct Regs {
    dst_phys: Option<PhysReg>,
    ready_at: u64,
    conflicts: u64,
    nsrcs: usize,
    srcs: [[u32; WARP_SIZE]; MAX_SRC_OPERANDS],
}

impl Regs {
    #[inline(always)]
    fn new(now: u64) -> Regs {
        Regs {
            dst_phys: None,
            ready_at: now,
            conflicts: 0,
            nsrcs: 0,
            srcs: [[0; WARP_SIZE]; MAX_SRC_OPERANDS],
        }
    }
}

enum RegsStatus {
    Ok,
    NoReg,
    /// Recover-mode squash: the issue was traced and charged, but the
    /// machine state must stay untouched for the post-quarantine
    /// retry.
    Squashed,
}

impl<'k> Sm<'k> {
    /// Plan-engine issue loop: `try_issue` with the two dispatch
    /// matches replaced by one indexed handler call per item.
    pub(super) fn try_issue_plan(&mut self, slot: usize) -> IssueOutcome {
        loop {
            let pc = self.warps[slot].stack.pc();
            debug_assert!(pc < self.prog.len(), "pc {pc} out of program");
            // fn pointers are Copy: lifting the handler off the plan
            // ends the borrow before it takes `&mut self`
            let h = self.prog.plan().handler(pc);
            match h(self, slot, pc) {
                Step::Fall => {}
                Step::Issued => return IssueOutcome::Issued,
                Step::Blocked => return IssueOutcome::Blocked,
                Step::NoReg => return IssueOutcome::NoReg,
            }
        }
    }

    /// `issue_instr`'s front end: scoreboard check, premature-release
    /// fault draw, mask and CTA resolution. `None` means a scoreboard
    /// hazard (the fault draw still happened, as in the interpreter).
    #[inline(always)]
    fn plan_front(&mut self, slot: usize, i: &PredecodedInstr) -> Option<Front> {
        if self.warp_outstanding[slot] & i.hazard_mask != 0 {
            return None;
        }
        if self.injector.should_fire(FaultKind::PrematureRelease) {
            self.inject_release(
                slot,
                FaultKind::PrematureRelease,
                FaultLabel::PrematureRelease,
            );
        }
        let active = self.warps[slot].stack.mask();
        let exec = active & self.guard_mask(slot, i.guard);
        let cta = self.warps[slot].cta_slot;
        Some(Front { active, exec, cta })
    }

    /// `issue_instr`'s register stage: destination allocation, operand
    /// fetch with bank-conflict accounting, the Recover squash check,
    /// and the release-flag machinery — in exactly the interpreter's
    /// order (every RNG draw, stat, and trace event included).
    #[inline(always)]
    fn plan_regs(
        &mut self,
        slot: usize,
        pc: usize,
        i: &PredecodedInstr,
        f: &Front,
        regs: &mut Regs,
    ) -> RegsStatus {
        if let Some(d) = i.dst {
            match self
                .regfile
                .write_traced(slot, d, self.now, self.sm_id, &mut self.sink)
            {
                WriteOutcome::Mapped {
                    phys,
                    ready_at: r,
                    newly_allocated,
                } => {
                    if newly_allocated {
                        self.throttle
                            .on_alloc_traced(f.cta, self.now, self.sm_id, &mut self.sink);
                        self.values[phys.index()] = [POISON; WARP_SIZE];
                        self.trace_reg(slot, d, true);
                    }
                    if r > self.now {
                        self.trace_stall(slot, StallReason::GateWakeup);
                    }
                    let v = self.sanitizer.note_map(slot, d, phys, self.now);
                    self.flag_violation(v);
                    if self.injector.should_fire(FaultKind::RenameCorrupt) {
                        let target = PhysReg::new(
                            self.injector
                                .pick(FaultKind::RenameCorrupt, self.config.regfile.phys_regs)
                                as u16,
                        );
                        if self.regfile.inject_remap(slot, d, target).is_some() {
                            self.trace_fault(
                                slot,
                                FaultLabel::RenameCorrupt,
                                u16::from(d.raw()),
                                target.index() as u32,
                            );
                        }
                    }
                    regs.dst_phys = Some(phys);
                    regs.ready_at = regs.ready_at.max(r);
                }
                WriteOutcome::NoFreeRegister => return RegsStatus::NoReg,
            }
        }

        let mut src_banks = [false; rfv_isa::NUM_REG_BANKS];
        let mut conflicts = 0u64;
        let nsrcs = i.srcs().len();
        for (k, &op) in i.srcs().iter().enumerate() {
            match op {
                Operand::Imm(v) => regs.srcs[k] = [v as u32; WARP_SIZE],
                Operand::Reg(r) => {
                    let table = self.regfile.read(slot, r);
                    if let Some(p) = table {
                        let b = self.regfile.bank_of_phys(p).index();
                        if src_banks[b] {
                            conflicts += 1;
                        }
                        src_banks[b] = true;
                    }
                    if self.sanitizer.enabled() {
                        let live = table.is_some_and(|p| self.regfile.is_phys_live(p));
                        let v = self.sanitizer.check_read(slot, r, table, live, self.now);
                        self.flag_violation(v);
                    }
                    regs.srcs[k] = match table {
                        Some(p) => self.values[p.index()],
                        None => [POISON; WARP_SIZE],
                    };
                }
            }
        }
        regs.nsrcs = nsrcs;
        regs.conflicts = conflicts;
        self.stats.bank_conflicts += conflicts;

        if self.violation.is_some() && self.sanitizer.level() == SanitizeLevel::Recover {
            self.trace_issue(slot, pc, f.exec);
            return RegsStatus::Squashed;
        }

        if self.policy.uses_release_flags() {
            let flags = i.flags;
            if flags.any() {
                for (op_slot, r) in i.src_regs() {
                    if !flags.releases(op_slot) {
                        continue;
                    }
                    self.sanitizer.note_release(slot, r);
                    if self.injector.should_fire(FaultKind::DroppedRelease) {
                        let phys = self
                            .regfile
                            .peek(slot, r)
                            .map_or(Violation::NO_PHYS, |ph| ph.index() as u32);
                        self.trace_fault(
                            slot,
                            FaultLabel::DroppedRelease,
                            u16::from(r.raw()),
                            phys,
                        );
                        continue;
                    }
                    if self.release_checked(slot, r) {
                        self.throttle.on_release_traced(
                            f.cta,
                            self.now,
                            self.sm_id,
                            &mut self.sink,
                        );
                        self.trace_reg(slot, r, false);
                    }
                }
            }
            if self.injector.should_fire(FaultKind::PirFlagFlip) {
                let extra: Vec<rfv_isa::ArchReg> = i
                    .src_regs()
                    .filter(|&(s, _)| !flags.releases(s))
                    .map(|(_, r)| r)
                    .collect();
                if !extra.is_empty() {
                    let r = extra[self.injector.pick(FaultKind::PirFlagFlip, extra.len())];
                    let phys = self
                        .regfile
                        .peek(slot, r)
                        .map_or(Violation::NO_PHYS, |ph| ph.index() as u32);
                    if self.release_checked(slot, r) {
                        self.throttle.on_release_traced(
                            f.cta,
                            self.now,
                            self.sm_id,
                            &mut self.sink,
                        );
                        self.trace_reg(slot, r, false);
                        self.trace_fault(slot, FaultLabel::PirFlip, u16::from(r.raw()), phys);
                    }
                }
            }
        }
        RegsStatus::Ok
    }

    /// The issue bookkeeping every completed instruction pays.
    #[inline(always)]
    fn plan_finish(&mut self, exec: u32) {
        self.stats.instrs_issued += 1;
        self.stats.active_lane_sum += u64::from(exec.count_ones());
    }

    /// §7.1's extra renaming-table pipeline cycle.
    #[inline(always)]
    fn rename_penalty(&self) -> u64 {
        if self.config.rename_extra_cycle && self.policy.renames() {
            1
        } else {
            0
        }
    }
}

/// Handler prologue for data instructions: instruction copy, front
/// end, register stage, and the issue trace event.
macro_rules! prologue {
    ($sm:ident, $slot:ident, $pc:ident => $i:ident, $f:ident, $regs:ident) => {
        let PdItem::Instr($i) = *$sm.prog.item($pc) else {
            unreachable!("instruction handler lowered for a metadata item")
        };
        let Some($f) = $sm.plan_front($slot, &$i) else {
            return Step::Blocked;
        };
        let mut $regs = Regs::new($sm.now);
        match $sm.plan_regs($slot, $pc, &$i, &$f, &mut $regs) {
            RegsStatus::Ok => {}
            RegsStatus::NoReg => return Step::NoReg,
            RegsStatus::Squashed => return Step::Issued,
        }
        $sm.trace_issue($slot, $pc, $f.exec);
    };
}

/// Handler prologue for control instructions (no register stage).
macro_rules! control_prologue {
    ($sm:ident, $slot:ident, $pc:ident => $i:ident, $f:ident) => {
        let PdItem::Instr($i) = *$sm.prog.item($pc) else {
            unreachable!("instruction handler lowered for a metadata item")
        };
        let Some($f) = $sm.plan_front($slot, &$i) else {
            return Step::Blocked;
        };
    };
}

/// Per-lane addresses for the active lanes — warp-wide bitset
/// iteration instead of a 32-iteration conditional loop; inactive
/// lanes keep `None` exactly as the interpreter leaves them.
#[inline(always)]
fn lane_addrs(exec: u32, src0: &[u32; WARP_SIZE], mem_offset: i32) -> [Option<u64>; WARP_SIZE] {
    let mut addrs = [None; WARP_SIZE];
    for l in Lanes(exec) {
        addrs[l] = Some((src0[l] as u64).wrapping_add(mem_offset as i64 as u64));
    }
    addrs
}

// ------------------------------------------------------ meta handlers

fn h_pir(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    let PdItem::Pir { release_count } = *sm.prog.item(pc) else {
        unreachable!("h_pir lowered for a non-pir item")
    };
    sm.stats.meta_encountered += 1;
    if sm.injector.should_fire(FaultKind::StaleFlagCacheHit) {
        sm.flag_cache
            .force_hit_traced(pc, sm.now, sm.sm_id, slot, &mut sm.sink);
        sm.inject_release(slot, FaultKind::StaleFlagCacheHit, FaultLabel::StaleFlagHit);
        sm.warps[slot].stack.advance(pc + 1);
        return Step::Fall;
    }
    if sm
        .flag_cache
        .probe_and_fill_traced(pc, sm.now, sm.sm_id, slot, &mut sm.sink)
    {
        sm.warps[slot].stack.advance(pc + 1);
        return Step::Fall;
    }
    sm.stats.meta_decoded += 1;
    if sm.sink.enabled() {
        sm.sink.emit(TraceEvent::warp_event(
            sm.now,
            sm.sm_id,
            slot,
            TraceKind::PirDecode {
                pc: pc as u32,
                flags: release_count,
            },
        ));
    }
    sm.warps[slot].stack.advance(pc + 1);
    sm.issue_cost(slot, 1);
    Step::Issued
}

fn h_pbr(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    let PdItem::Pbr { lo, hi } = *sm.prog.item(pc) else {
        unreachable!("h_pbr lowered for a non-pbr item")
    };
    sm.stats.meta_encountered += 1;
    sm.stats.meta_decoded += 1;
    if sm.sink.enabled() {
        sm.sink.emit(TraceEvent::warp_event(
            sm.now,
            sm.sm_id,
            slot,
            TraceKind::PbrDecode {
                pc: pc as u32,
                released: (hi - lo) as u16,
            },
        ));
    }
    if sm.policy.uses_release_flags() {
        let cta = sm.warps[slot].cta_slot;
        for idx in lo..hi {
            let r = sm.prog.pbr_regs(idx, idx + 1)[0];
            sm.sanitizer.note_release(slot, r);
            let dropped = sm.injector.should_fire(FaultKind::DroppedRelease);
            let flipped = sm.injector.should_fire(FaultKind::PbrFlagFlip);
            if dropped || flipped {
                let phys = sm
                    .regfile
                    .peek(slot, r)
                    .map_or(Violation::NO_PHYS, |ph| ph.index() as u32);
                let label = if dropped {
                    FaultLabel::DroppedRelease
                } else {
                    FaultLabel::PbrFlip
                };
                sm.trace_fault(slot, label, u16::from(r.raw()), phys);
                continue;
            }
            if sm.release_checked(slot, r) {
                sm.throttle
                    .on_release_traced(cta, sm.now, sm.sm_id, &mut sm.sink);
                sm.trace_reg(slot, r, false);
            }
        }
    }
    sm.warps[slot].stack.advance(pc + 1);
    sm.issue_cost(slot, 1);
    Step::Issued
}

// --------------------------------------------------- control handlers

fn h_bra(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    control_prologue!(sm, slot, pc => i, f);
    sm.issue_cost(slot, 1);
    sm.stats.instrs_issued += 1;
    sm.stats.active_lane_sum += u64::from(f.active.count_ones());
    sm.trace_issue(slot, pc, f.active);
    let target = i.target as usize;
    let reconv = i.reconv;
    if f.exec == f.active {
        sm.warps[slot].stack.advance(target);
    } else if f.exec == 0 {
        sm.warps[slot].stack.advance(pc + 1);
    } else {
        sm.warps[slot].stack.diverge(f.exec, target, pc + 1, reconv);
    }
    sm.after_control(slot);
    Step::Issued
}

fn h_exit(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    control_prologue!(sm, slot, pc => i, f);
    let _ = i;
    sm.stats.instrs_issued += 1;
    sm.stats.active_lane_sum += u64::from(f.active.count_ones());
    sm.trace_issue(slot, pc, f.active);
    sm.warps[slot].stack.exit_lanes(f.active);
    if sm.warps[slot].stack.is_done() {
        sm.finish_warp(slot);
    } else {
        sm.issue_cost(slot, 1);
    }
    Step::Issued
}

fn h_bar(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    control_prologue!(sm, slot, pc => i, f);
    let _ = i;
    sm.stats.instrs_issued += 1;
    sm.stats.active_lane_sum += u64::from(f.active.count_ones());
    sm.stats.barrier_waits += 1;
    sm.trace_issue(slot, pc, f.active);
    sm.trace_stall(slot, StallReason::Barrier);
    sm.warps[slot].stack.advance(pc + 1);
    sm.warp_status[slot] = WarpStatus::AtBarrier;
    sm.remove_from_ready(slot);
    if let Some(cs) = sm.cta_slots[f.cta].as_mut() {
        cs.at_barrier += 1;
    }
    sm.maybe_release_barrier(f.cta);
    Step::Issued
}

fn h_nop(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    control_prologue!(sm, slot, pc => i, f);
    let _ = i;
    sm.stats.instrs_issued += 1;
    sm.stats.active_lane_sum += u64::from(f.active.count_ones());
    sm.trace_issue(slot, pc, f.active);
    sm.warps[slot].stack.advance(pc + 1);
    sm.issue_cost(slot, 1);
    Step::Issued
}

// ------------------------------------------------------ load handlers

/// Writeback + scoreboard tail shared by all three loads; returns the
/// completion cycle for the caller's latency-class epilogue.
#[inline(always)]
fn load_tail(
    sm: &mut Sm<'_>,
    slot: usize,
    pc: usize,
    i: &PredecodedInstr,
    regs: &Regs,
    latency: u64,
) -> u64 {
    let dst = i.dst.expect("loads have a destination");
    let done_at = regs.ready_at.max(sm.now) + regs.conflicts + latency;
    sm.warp_outstanding[slot] |= 1u64 << dst.index();
    sm.load_events.push(Reverse((done_at, slot, dst.raw())));
    sm.warps[slot].stack.advance(pc + 1);
    done_at
}

/// Long-latency loads park in the two-level scheduler pending queue.
#[inline(always)]
fn load_pending(sm: &mut Sm<'_>, slot: usize) {
    sm.warp_status[slot] = WarpStatus::PendingMem;
    sm.remove_from_ready(slot);
    sm.trace_stall(slot, StallReason::Memory);
}

fn h_ldg(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    prologue!(sm, slot, pc => i, f, regs);
    let addrs = lane_addrs(f.exec, &regs.srcs[0], i.mem_offset);
    // writeback lands straight in the physical register: the operand
    // stage already copied the sources, so no alias is possible (a
    // dropped destination still performs — and counts — every read)
    match regs.dst_phys {
        Some(p) => {
            let (values, global) = (&mut sm.values, &mut sm.global);
            let out = &mut values[p.index()];
            for l in Lanes(f.exec) {
                out[l] = global.read_word(addrs[l].unwrap());
            }
        }
        None => {
            for l in Lanes(f.exec) {
                sm.global.read_word(addrs[l].unwrap());
            }
        }
    }
    let latency = sm.global_load_latency(slot, &addrs);
    let done_at = load_tail(sm, slot, pc, &i, &regs, latency);
    load_pending(sm, slot);
    if sm.sink.enabled() {
        let base = addrs.iter().flatten().next().copied().unwrap_or(0);
        sm.sink.emit(TraceEvent::warp_event(
            done_at,
            sm.sm_id,
            slot,
            TraceKind::Mem {
                phase: MemPhase::Complete,
                addr: base,
                segments: 0,
            },
        ));
    }
    sm.plan_finish(f.exec);
    Step::Issued
}

fn h_ldl(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    prologue!(sm, slot, pc => i, f, regs);
    let addrs = lane_addrs(f.exec, &regs.srcs[0], i.mem_offset);
    match regs.dst_phys {
        Some(p) => {
            let (values, local) = (&mut sm.values, &mut sm.local);
            let out = &mut values[p.index()];
            for l in Lanes(f.exec) {
                out[l] = local.read_word(slot, l, addrs[l].unwrap());
            }
        }
        None => {
            for l in Lanes(f.exec) {
                sm.local.read_word(slot, l, addrs[l].unwrap());
            }
        }
    }
    let txns = f.exec.count_ones() as u64 * 4 / 32 + 1;
    sm.stats.mem_txns += txns;
    let latency = sm.config.mem_base_latency + txns * sm.config.mem_per_txn;
    load_tail(sm, slot, pc, &i, &regs, latency);
    load_pending(sm, slot);
    sm.plan_finish(f.exec);
    Step::Issued
}

fn h_lds(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    prologue!(sm, slot, pc => i, f, regs);
    let addrs = lane_addrs(f.exec, &regs.srcs[0], i.mem_offset);
    match regs.dst_phys {
        Some(p) => {
            let (values, shared) = (&mut sm.values, &mut sm.shared);
            let out = &mut values[p.index()];
            for l in Lanes(f.exec) {
                out[l] = shared[f.cta].read_word(addrs[l].unwrap());
            }
        }
        None => {
            for l in Lanes(f.exec) {
                sm.shared[f.cta].read_word(addrs[l].unwrap());
            }
        }
    }
    let latency = sm.config.shared_latency;
    load_tail(sm, slot, pc, &i, &regs, latency);
    // short-latency: stay in the ready queue
    sm.issue_cost(slot, 1 + sm.rename_penalty());
    sm.plan_finish(f.exec);
    Step::Issued
}

// ----------------------------------------------------- store handlers

/// Store epilogue: advance and charge the issue slot.
#[inline(always)]
fn store_tail(sm: &mut Sm<'_>, slot: usize, pc: usize, regs: &Regs) {
    sm.warps[slot].stack.advance(pc + 1);
    sm.issue_cost(slot, 1 + sm.rename_penalty() + regs.conflicts);
}

fn h_stg(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    prologue!(sm, slot, pc => i, f, regs);
    let addrs = lane_addrs(f.exec, &regs.srcs[0], i.mem_offset);
    for l in Lanes(f.exec) {
        sm.global.write_word(addrs[l].unwrap(), regs.srcs[1][l]);
    }
    sm.stats.mem_txns += coalesce_count(&addrs) as u64;
    store_tail(sm, slot, pc, &regs);
    sm.plan_finish(f.exec);
    Step::Issued
}

fn h_stl(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    prologue!(sm, slot, pc => i, f, regs);
    let addrs = lane_addrs(f.exec, &regs.srcs[0], i.mem_offset);
    for l in Lanes(f.exec) {
        sm.local
            .write_word(slot, l, addrs[l].unwrap(), regs.srcs[1][l]);
    }
    sm.stats.mem_txns += f.exec.count_ones() as u64 * 4 / 32 + 1;
    store_tail(sm, slot, pc, &regs);
    sm.plan_finish(f.exec);
    Step::Issued
}

fn h_sts(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    prologue!(sm, slot, pc => i, f, regs);
    let addrs = lane_addrs(f.exec, &regs.srcs[0], i.mem_offset);
    for l in Lanes(f.exec) {
        sm.shared[f.cta].write_word(addrs[l].unwrap(), regs.srcs[1][l]);
    }
    store_tail(sm, slot, pc, &regs);
    sm.plan_finish(f.exec);
    Step::Issued
}

// ---------------------------------------------------- setp + lane ops

fn h_isetp<C: CmpCond>(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    prologue!(sm, slot, pc => i, f, regs);
    let srcs = &regs.srcs[..regs.nsrcs];
    let pd = i.pdst.expect("validated setp");
    let mut bits = sm.preds[slot][pd.index()];
    for l in Lanes(f.exec) {
        if C::COND.eval_i32(srcs[0][l] as i32, srcs[1][l] as i32) {
            bits |= 1 << l;
        } else {
            bits &= !(1 << l);
        }
    }
    sm.preds[slot][pd.index()] = bits;
    sm.warps[slot].stack.advance(pc + 1);
    sm.issue_cost(
        slot,
        sm.config.alu_latency + sm.rename_penalty() + regs.conflicts,
    );
    sm.plan_finish(f.exec);
    Step::Issued
}

fn h_fsetp<C: CmpCond>(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    prologue!(sm, slot, pc => i, f, regs);
    let srcs = &regs.srcs[..regs.nsrcs];
    let pd = i.pdst.expect("validated setp");
    let mut bits = sm.preds[slot][pd.index()];
    for l in Lanes(f.exec) {
        if C::COND.eval_f32(f32::from_bits(srcs[0][l]), f32::from_bits(srcs[1][l])) {
            bits |= 1 << l;
        } else {
            bits &= !(1 << l);
        }
    }
    sm.preds[slot][pd.index()] = bits;
    sm.warps[slot].stack.advance(pc + 1);
    sm.issue_cost(
        slot,
        sm.config.alu_latency + sm.rename_penalty() + regs.conflicts,
    );
    sm.plan_finish(f.exec);
    Step::Issued
}

fn h_alu<O: LaneOp>(sm: &mut Sm<'_>, slot: usize, pc: usize) -> Step {
    prologue!(sm, slot, pc => i, f, regs);
    let w = &sm.warps[slot];
    let cx = LaneCx {
        psrc_bits: i.psrc.map(|p| sm.preds[slot][p.index()]),
        cta_id: w.cta_id,
        warp_in_cta: w.warp_in_cta,
        threads_per_cta: sm.threads_per_cta,
        grid_ctas: sm.grid_ctas,
    };
    let srcs = &regs.srcs[..regs.nsrcs];
    // operands were copied into `regs`, so writing the destination in
    // place cannot alias a source read even when dst renames a source
    if let Some(p) = regs.dst_phys {
        let out = &mut sm.values[p.index()];
        for l in Lanes(f.exec) {
            let a = srcs.first().map_or(0, |s| s[l]);
            let b = srcs.get(1).map_or(0, |s| s[l]);
            let c = srcs.get(2).map_or(0, |s| s[l]);
            out[l] = O::eval(&cx, a, b, c, l);
        }
    }
    let lat = if O::SFU {
        sm.config.sfu_latency
    } else {
        sm.config.alu_latency
    };
    sm.warps[slot].stack.advance(pc + 1);
    let wait =
        (regs.ready_at.saturating_sub(sm.now)).max(lat + sm.rename_penalty()) + regs.conflicts;
    sm.issue_cost(slot, wait);
    sm.plan_finish(f.exec);
    Step::Issued
}
