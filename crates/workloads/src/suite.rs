//! The sixteen synthetic benchmarks reproducing Table 1.
//!
//! Each kernel matches its paper counterpart's launch geometry
//! (CTAs, threads/CTA, concurrent CTAs/SM), its *exact* per-thread
//! register count, and its control-flow class (streaming, blocked
//! GEMM, tree reduction, frontier traversal, stencil, Monte Carlo,
//! pointer chasing, …) — the four properties that determine register
//! virtualization behaviour.
//!
//! Grids are capped at a few waves of concurrent CTAs
//! ([`SIM_WAVES`]) so simulations finish quickly; per-SM behaviour
//! reaches steady state within one wave.

use rfv_isa::prelude::*;
use rfv_isa::{ArchReg as R, PredGuard, Special};

use crate::table1::{paper_geometry, PaperGeometry, TABLE1};

/// Waves of concurrent CTAs simulated per benchmark.
pub const SIM_WAVES: u32 = 3;

/// Global-memory buffer base addresses used by all kernels.
pub mod buffers {
    /// Input buffer A.
    pub const A: i32 = 0x0010_0000;
    /// Input buffer B.
    pub const B: i32 = 0x0020_0000;
    /// Output buffer C.
    pub const C: i32 = 0x0030_0000;
    /// Output buffer D.
    pub const D: i32 = 0x0040_0000;
    /// Output buffer E.
    pub const E: i32 = 0x0050_0000;
    /// Output buffer F.
    pub const F: i32 = 0x0060_0000;
}
use buffers::{A, B, C, D, E, F};

/// A ready-to-compile benchmark.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Paper geometry (Table 1 row).
    pub paper: PaperGeometry,
    /// The kernel, with the (capped) simulation launch configuration.
    pub kernel: Kernel,
}

impl Workload {
    /// The benchmark name.
    pub fn name(&self) -> &'static str {
        self.paper.name
    }
}

fn r(i: u8) -> R {
    R::new(i)
}

fn fimm(x: f32) -> Operand {
    Operand::Imm(x.to_bits() as i32)
}

fn launch_for(g: PaperGeometry) -> LaunchConfig {
    let grid = g.ctas.min(g.conc_ctas * SIM_WAVES).max(1);
    LaunchConfig::new(grid, g.threads_per_cta, g.conc_ctas)
}

fn build(name: &'static str, f: impl FnOnce(&mut KernelBuilder)) -> Workload {
    let paper = paper_geometry(name).expect("benchmark in Table 1");
    let mut b = KernelBuilder::new(name);
    f(&mut b);
    let kernel = b.build(launch_for(paper)).expect("suite kernels are valid");
    assert_eq!(
        kernel.num_regs(),
        paper.regs_per_kernel,
        "{name}: register count drifted from Table 1"
    );
    Workload { paper, kernel }
}

/// Blocked 16×16 GEMM with shared-memory tiles and a uniform k-loop
/// (the paper's Figure 2/3 running example).
pub fn matrixmul() -> Workload {
    build("MatrixMul", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.and(r(2), r(0), 15); // col within tile
        b.shr(r(3), r(0), 4); // row within tile
        b.mov(r(4), fimm(0.0)); // acc
        b.mov(r(10), 4); // tile counter (uniform)
        b.label("tile");
        b.imad(r(11), r(10), 256, Operand::Reg(r(0)));
        b.imad(r(11), r(1), 256, Operand::Reg(r(11)));
        b.shl(r(11), r(11), 2);
        b.ldg(r(5), r(11), A);
        b.ldg(r(6), r(11), B);
        b.shl(r(7), r(0), 2);
        b.sts(r(7), r(5), 0);
        b.sts(r(7), r(6), 1024);
        b.bar();
        b.mov(r(8), 16); // k loop (uniform)
        b.label("k");
        b.imad(r(9), r(3), 16, Operand::Reg(r(8)));
        b.iadd(r(9), r(9), -1); // index row*16 + (k-1)
        b.shl(r(9), r(9), 2);
        b.lds(r(5), r(9), 0);
        b.imad(r(9), r(8), 16, Operand::Reg(r(2)));
        b.iadd(r(9), r(9), -16); // index (k-1)*16 + col
        b.shl(r(9), r(9), 2);
        b.lds(r(6), r(9), 1024);
        b.ffma(r(4), r(5), Operand::Reg(r(6)), Operand::Reg(r(4)));
        b.iadd(r(8), r(8), -1);
        b.isetp(Cond::Gt, Pred::P0, r(8), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("k");
        b.bar();
        b.iadd(r(10), r(10), -1);
        b.isetp(Cond::Gt, Pred::P0, r(10), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("tile");
        b.imad(r(12), r(1), 256, Operand::Reg(r(0)));
        b.shl(r(12), r(12), 2);
        b.mov(r(13), Operand::Reg(r(4)));
        b.stg(r(12), r(13), C);
        b.exit();
    })
}

/// Streaming option pricing: SFU-heavy straight-line code, no
/// branches.
pub fn blackscholes() -> Workload {
    build("BlackScholes", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(2), r(1), 128, Operand::Reg(r(0)));
        b.shl(r(3), r(2), 2);
        b.ldg(r(4), r(3), A); // S
        b.ldg(r(5), r(3), B); // X
        b.ldg(r(6), r(3), C); // T
        b.fsqrt(r(7), r(6));
        b.frcp(r(8), r(5));
        b.fmul(r(9), r(4), Operand::Reg(r(8)));
        b.flog(r(10), r(9));
        b.fmul(r(11), r(6), fimm(0.06));
        b.fadd(r(12), r(10), Operand::Reg(r(11)));
        b.frcp(r(13), r(7));
        b.fmul(r(13), r(12), Operand::Reg(r(13))); // d1
        b.fadd(r(14), r(13), fimm(-0.3)); // d2
        b.fexp(r(15), r(13));
        b.fexp(r(16), r(14));
        b.fmul(r(15), r(4), Operand::Reg(r(15)));
        b.fmul(r(16), r(5), Operand::Reg(r(16)));
        b.fadd(r(17), r(15), Operand::Reg(r(16))); // call
        b.stg(r(3), r(17), D);
        b.fadd(r(17), r(16), Operand::Reg(r(15))); // put (proxy)
        b.stg(r(3), r(17), E);
        b.exit();
    })
}

/// 8×8 block transform: two shared-memory passes separated by
/// barriers, uniform inner loops, arithmetic-dense.
pub fn dct8x8() -> Workload {
    build("DCT8x8", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.and(r(2), r(0), 7); // x
        b.shr(r(3), r(0), 3); // y
        b.imad(r(4), r(1), 64, Operand::Reg(r(0)));
        b.shl(r(5), r(4), 2);
        b.ldg(r(6), r(5), A);
        b.shl(r(7), r(0), 2);
        b.sts(r(7), r(6), 0);
        b.bar();
        // row pass
        b.mov(r(8), fimm(0.0));
        b.mov(r(9), 8);
        b.label("row");
        b.imad(r(10), r(3), 8, Operand::Reg(r(9)));
        b.iadd(r(10), r(10), -1); // index y*8 + (k-1)
        b.shl(r(10), r(10), 2);
        b.lds(r(11), r(10), 0);
        b.imad(r(12), r(9), 8, Operand::Reg(r(2)));
        b.iadd(r(12), r(12), -8); // index (k-1)*8 + x
        b.shl(r(12), r(12), 2);
        b.lds(r(13), r(12), 0);
        b.ffma(r(13), r(11), fimm(0.125), Operand::Reg(r(13)));
        b.fadd(r(8), r(8), Operand::Reg(r(13)));
        b.iadd(r(9), r(9), -1);
        b.isetp(Cond::Gt, Pred::P0, r(9), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("row");
        b.sts(r(7), r(8), 256);
        b.bar();
        // column pass
        b.mov(r(14), fimm(0.0));
        b.mov(r(15), 8);
        b.label("col");
        b.imad(r(16), r(15), 8, Operand::Reg(r(2)));
        b.iadd(r(16), r(16), -8); // index (k-1)*8 + x
        b.shl(r(16), r(16), 2);
        b.lds(r(17), r(16), 256);
        b.fmul(r(18), r(17), fimm(0.25));
        b.fadd(r(14), r(14), Operand::Reg(r(18)));
        b.iadd(r(15), r(15), -1);
        b.isetp(Cond::Gt, Pred::P0, r(15), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("col");
        b.fmul(r(19), r(14), fimm(0.5));
        b.fadd(r(20), r(19), Operand::Reg(r(8)));
        b.fmax(r(21), r(20), fimm(0.0));
        b.stg(r(5), r(21), C);
        b.exit();
    })
}

/// Shared-memory tree reduction with a per-step divergent guard.
pub fn reduction() -> Workload {
    build("Reduction", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(2), r(1), 256, Operand::Reg(r(0)));
        b.shl(r(3), r(2), 2);
        b.ldg(r(4), r(3), A);
        b.shl(r(5), r(0), 2);
        b.sts(r(5), r(4), 0);
        b.bar();
        b.mov(r(6), 128); // stride
        b.label("red");
        b.isetp(Cond::Lt, Pred::P0, r(0), Operand::Reg(r(6)));
        b.guard(PredGuard::if_false(Pred::P0));
        b.bra("skip");
        b.iadd(r(7), r(0), Operand::Reg(r(6)));
        b.shl(r(7), r(7), 2);
        b.lds(r(8), r(7), 0);
        b.lds(r(9), r(5), 0);
        b.fadd(r(9), r(9), Operand::Reg(r(8)));
        b.sts(r(5), r(9), 0);
        b.label("skip");
        b.bar();
        b.shr(r(6), r(6), 1);
        b.isetp(Cond::Gt, Pred::P0, r(6), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("red");
        b.isetp(Cond::Ne, Pred::P1, r(0), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P1));
        b.bra("end");
        b.lds(r(10), r(5), 0);
        b.shl(r(11), r(1), 2);
        b.fmul(r(12), r(10), fimm(1.0));
        b.fadd(r(13), r(12), fimm(0.0));
        b.stg(r(11), r(13), C);
        b.label("end");
        b.exit();
    })
}

/// The minimal streaming kernel: `c[i] = a[i] + b[i]`.
pub fn vectoradd() -> Workload {
    build("VectorAdd", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(0), r(1), 256, Operand::Reg(r(0)));
        b.shl(r(3), r(0), 2);
        b.ldg(r(1), r(3), A);
        b.ldg(r(2), r(3), B);
        b.fadd(r(1), r(1), Operand::Reg(r(2)));
        b.stg(r(3), r(1), C);
        b.exit();
    })
}

/// Neural-network training step: forward accumulation loop, sigmoid,
/// shared-memory exchange, weight update.
pub fn backprop() -> Workload {
    build("BackProp", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(2), r(1), 256, Operand::Reg(r(0)));
        b.shl(r(3), r(2), 2);
        b.ldg(r(4), r(3), A); // input
        b.mov(r(5), fimm(0.0)); // acc
        b.mov(r(6), 16); // layer loop (uniform)
        b.label("fwd");
        b.imad(r(7), r(6), 256, Operand::Reg(r(2)));
        b.shl(r(7), r(7), 2);
        b.ldg(r(8), r(7), B); // weight
        b.ffma(r(5), r(8), Operand::Reg(r(4)), Operand::Reg(r(5)));
        b.iadd(r(6), r(6), -1);
        b.isetp(Cond::Gt, Pred::P0, r(6), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("fwd");
        b.fexp(r(9), r(5));
        b.fadd(r(10), r(9), fimm(1.0));
        b.frcp(r(11), r(10)); // sigmoid proxy
        b.shl(r(12), r(0), 2);
        b.sts(r(12), r(11), 0);
        b.bar();
        b.lds(r(13), r(12), 0);
        b.fmul(r(14), r(13), fimm(0.3));
        b.fadd(r(15), r(14), Operand::Reg(r(11)));
        b.stg(r(3), r(15), C);
        b.fmul(r(16), r(15), fimm(2.0));
        b.stg(r(3), r(16), D);
        b.exit();
    })
}

/// Frontier graph traversal: data-dependent guard and a
/// data-dependent edge loop (highly divergent).
pub fn bfs() -> Workload {
    build("BFS", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(2), r(1), 512, Operand::Reg(r(0)));
        b.shl(r(3), r(2), 2);
        b.ldg(r(4), r(3), A); // frontier flag
        b.and(r(4), r(4), 1);
        b.mov(r(8), 1); // level value
        b.isetp(Cond::Eq, Pred::P0, r(4), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("end");
        b.ldg(r(5), r(3), B); // edge count
        b.and(r(5), r(5), 7);
        b.iadd(r(5), r(5), 1);
        b.label("edges");
        b.imad(r(7), r(5), 4, Operand::Reg(r(2)));
        b.shl(r(7), r(7), 2);
        b.ldg(r(6), r(7), C); // neighbor id
        b.and(r(6), r(6), 1023);
        b.shl(r(6), r(6), 2);
        b.stg(r(6), r(8), D); // set level
        b.iadd(r(5), r(5), -1);
        b.isetp(Cond::Gt, Pred::P0, r(5), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("edges");
        b.label("end");
        b.exit();
    })
}

/// Cardiac-wall tracking: a long arithmetic pipeline over windows of
/// frames, with a divergent threshold at the end. The register-fattest
/// kernel of the suite (29 registers).
pub fn heartwall() -> Workload {
    build("Heartwall", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(2), r(1), 512, Operand::Reg(r(0)));
        b.shl(r(3), r(2), 2);
        b.mov(r(4), fimm(0.0)); // SAD accumulator
        b.mov(r(5), 4); // frame loop (uniform)
        b.mov(r(26), 7); // diagnostic code, read at the very end
        b.label("frame");
        b.imad(r(6), r(5), 512, Operand::Reg(r(2)));
        b.shl(r(6), r(6), 2);
        b.ldg(r(7), r(6), A);
        b.ldg(r(8), r(6), B);
        b.ldg(r(9), r(6), C);
        b.ldg(r(10), r(6), D);
        b.fadd(r(11), r(7), Operand::Reg(r(8)));
        b.fadd(r(12), r(9), Operand::Reg(r(10)));
        b.fmul(r(13), r(11), fimm(0.5));
        b.fmul(r(14), r(12), fimm(0.5));
        b.fadd(r(15), r(13), Operand::Reg(r(14))); // window mean
        b.fmul(r(16), r(15), fimm(-1.0));
        b.fadd(r(17), r(7), Operand::Reg(r(16)));
        b.fmul(r(18), r(17), Operand::Reg(r(17)));
        b.fadd(r(19), r(8), Operand::Reg(r(16)));
        b.ffma(r(20), r(19), Operand::Reg(r(19)), Operand::Reg(r(18)));
        b.fadd(r(21), r(9), Operand::Reg(r(16)));
        b.ffma(r(22), r(21), Operand::Reg(r(21)), Operand::Reg(r(20)));
        b.fadd(r(23), r(10), Operand::Reg(r(16)));
        b.ffma(r(24), r(23), Operand::Reg(r(23)), Operand::Reg(r(22)));
        b.fadd(r(4), r(4), Operand::Reg(r(24)));
        b.iadd(r(5), r(5), -1);
        b.isetp(Cond::Gt, Pred::P0, r(5), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("frame");
        b.fsqrt(r(25), r(4));
        b.fsetp(Cond::Gt, Pred::P1, r(25), fimm(2.0)); // data-dependent
        b.guard(PredGuard::if_false(Pred::P1));
        b.bra("small");
        b.fmul(r(27), r(25), fimm(0.25));
        b.stg(r(3), r(27), E);
        b.bra("done");
        b.label("small");
        b.fadd(r(28), r(25), fimm(1.0));
        b.stg(r(3), r(28), E);
        b.label("done");
        b.stg(r(3), r(26), F);
        b.exit();
    })
}

/// Five-point thermal stencil with clamped boundaries, iterated with
/// barriers between time steps.
pub fn hotspot() -> Workload {
    build("HotSpot", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(2), r(1), 256, Operand::Reg(r(0)));
        b.and(r(3), r(2), 15); // x
        b.shr(r(4), r(0), 4); // y (local)
        b.mov(r(5), 2); // time steps (uniform)
        b.shl(r(6), r(2), 2); // center address
        b.label("step");
        b.ldg(r(7), r(6), A); // center
        b.iadd(r(8), r(2), 16);
        b.and(r(8), r(8), 4095);
        b.shl(r(8), r(8), 2);
        b.ldg(r(9), r(8), A); // south
        b.isub(r(10), r(2), 16);
        b.and(r(10), r(10), 4095);
        b.shl(r(10), r(10), 2);
        b.ldg(r(11), r(10), A); // north
        b.iadd(r(12), r(2), 1);
        b.and(r(12), r(12), 4095);
        b.shl(r(12), r(12), 2);
        b.ldg(r(13), r(12), A); // east
        b.isub(r(14), r(2), 1);
        b.and(r(14), r(14), 4095);
        b.shl(r(14), r(14), 2);
        b.ldg(r(15), r(14), A); // west
        b.fadd(r(16), r(9), Operand::Reg(r(11)));
        b.fadd(r(17), r(13), Operand::Reg(r(15)));
        b.fadd(r(18), r(16), Operand::Reg(r(17)));
        b.ffma(r(19), r(7), fimm(-4.0), Operand::Reg(r(18)));
        b.ffma(r(20), r(19), fimm(0.1), Operand::Reg(r(7)));
        b.imin(r(21), r(3), Operand::Reg(r(4)));
        b.isetp(Cond::Eq, Pred::P0, r(21), Operand::Imm(0)); // boundary
        b.sel(r(21), Operand::Reg(r(7)), Operand::Reg(r(20)), Pred::P0);
        b.stg(r(6), r(21), B);
        b.bar();
        b.iadd(r(5), r(5), -1);
        b.isetp(Cond::Gt, Pred::P1, r(5), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P1));
        b.bra("step");
        b.exit();
    })
}

/// Blocked LU decomposition step: one warp, a uniform pivot loop with
/// a lane-divergent update region.
pub fn lud() -> Workload {
    build("LUD", |b| {
        b.s2r(r(0), Special::LaneId);
        b.s2r(r(1), Special::CtaIdX);
        b.mov(r(2), 8); // pivot loop (uniform)
        b.shl(r(3), r(0), 2);
        b.imad(r(4), r(1), 32, Operand::Reg(r(0)));
        b.shl(r(4), r(4), 2);
        b.ldg(r(5), r(4), A);
        b.sts(r(3), r(5), 0);
        b.bar();
        b.label("outer");
        b.mov(r(6), 8);
        b.isub(r(6), r(6), Operand::Reg(r(2))); // pivot index i
        b.isetp(Cond::Gt, Pred::P0, r(0), Operand::Reg(r(6)));
        b.guard(PredGuard::if_false(Pred::P0));
        b.bra("skip");
        b.shl(r(7), r(6), 2);
        b.lds(r(8), r(7), 0); // pivot element
        b.frcp(r(9), r(8));
        b.lds(r(10), r(3), 0);
        b.fmul(r(11), r(10), Operand::Reg(r(9))); // l = a / pivot
        b.imad(r(12), r(6), 5, Operand::Reg(r(0)));
        b.and(r(12), r(12), 31);
        b.shl(r(12), r(12), 2);
        b.lds(r(13), r(12), 0);
        b.ffma(r(14), r(11), Operand::Reg(r(13)), Operand::Reg(r(10)));
        b.sts(r(3), r(14), 0);
        b.imad(r(15), r(6), 32, Operand::Reg(r(0)));
        b.imad(r(15), r(1), 256, Operand::Reg(r(15))); // per-CTA L block
        b.shl(r(15), r(15), 2);
        b.stg(r(15), r(11), B);
        b.label("skip");
        b.iadd(r(2), r(2), -1);
        b.isetp(Cond::Gt, Pred::P1, r(2), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P1));
        b.bra("outer");
        b.lds(r(16), r(3), 0);
        b.imad(r(17), r(1), 32, Operand::Reg(r(0)));
        b.shl(r(17), r(17), 2);
        b.fadd(r(18), r(16), fimm(0.0));
        b.stg(r(17), r(18), C);
        b.exit();
    })
}

/// One elimination step of Gaussian elimination: slim kernel with a
/// data-dependent guarded multiply.
pub fn gaussian() -> Workload {
    build("Gaussian", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(2), r(1), 512, Operand::Reg(r(0)));
        b.shl(r(3), r(2), 2);
        b.ldg(r(4), r(3), A); // element
        b.ldg(r(5), r(3), B); // pivot row element
        b.fsetp(Cond::Gt, Pred::P0, r(4), fimm(0.0)); // data-dependent
        b.guard(PredGuard::if_true(Pred::P0));
        b.fmul(r(6), r(5), fimm(0.5));
        b.guard(PredGuard::if_false(Pred::P0));
        b.mov(r(6), fimm(0.0));
        b.fadd(r(7), r(4), Operand::Reg(r(6)));
        b.stg(r(3), r(7), C);
        b.exit();
    })
}

/// Monte Carlo LIBOR path simulation: a long uniform loop of LCG
/// updates and SFU math, registers for running statistics.
pub fn lib() -> Workload {
    build("LIB", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(2), r(1), 64, Operand::Reg(r(0)));
        b.shl(r(3), r(2), 2);
        b.ldg(r(4), r(3), A); // seed
        b.mov(r(5), fimm(1.0)); // path value
        b.mov(r(6), 16); // steps (uniform)
        b.mov(r(12), fimm(0.0)); // sum
        b.mov(r(13), fimm(0.0)); // sum of squares
        b.label("mc");
        b.imul(r(4), r(4), 1103515245); // LCG multiply...
        b.iadd(r(4), r(4), 12345); // ...and increment
        b.shr(r(7), r(4), 9);
        b.or(r(8), r(7), Operand::Imm(0x3f80_0000)); // float in [1,2)
        b.fadd(r(9), r(8), fimm(-1.5));
        b.fmul(r(10), r(9), fimm(0.2));
        b.fexp(r(11), r(10));
        b.fmul(r(5), r(5), Operand::Reg(r(11)));
        b.fadd(r(12), r(12), Operand::Reg(r(5)));
        b.ffma(r(13), r(5), Operand::Reg(r(5)), Operand::Reg(r(13)));
        b.iadd(r(6), r(6), -1);
        b.isetp(Cond::Gt, Pred::P0, r(6), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("mc");
        b.fadd(r(14), r(5), fimm(-1.0));
        b.fmax(r(15), r(14), fimm(0.0)); // payoff
        b.fmul(r(16), r(15), fimm(0.9));
        b.fsqrt(r(17), r(13));
        b.frcp(r(18), r(17));
        b.fmul(r(19), r(12), Operand::Reg(r(18)));
        b.fadd(r(20), r(16), Operand::Reg(r(19)));
        b.fmul(r(21), r(20), fimm(0.5));
        b.stg(r(3), r(21), C);
        b.exit();
    })
}

/// 3D Laplace solver slice: shared-memory plane plus global
/// out-of-plane neighbours.
pub fn lps() -> Workload {
    build("LPS", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(2), r(1), 128, Operand::Reg(r(0)));
        b.shl(r(3), r(2), 2);
        b.ldg(r(4), r(3), A);
        b.shl(r(5), r(0), 2);
        b.sts(r(5), r(4), 0);
        b.bar();
        b.iadd(r(6), r(0), 1);
        b.and(r(6), r(6), 127);
        b.shl(r(6), r(6), 2);
        b.lds(r(7), r(6), 0);
        b.isub(r(8), r(0), 1);
        b.and(r(8), r(8), 127);
        b.shl(r(8), r(8), 2);
        b.lds(r(9), r(8), 0);
        b.iadd(r(10), r(2), 128);
        b.and(r(10), r(10), 8191);
        b.shl(r(10), r(10), 2);
        b.ldg(r(11), r(10), A);
        b.fadd(r(12), r(7), Operand::Reg(r(9)));
        b.fadd(r(13), r(12), Operand::Reg(r(11)));
        b.ffma(r(14), r(4), fimm(-3.0), Operand::Reg(r(13)));
        b.ffma(r(15), r(14), fimm(0.15), Operand::Reg(r(4)));
        b.fmax(r(16), r(15), fimm(0.0));
        b.stg(r(3), r(16), B);
        b.exit();
    })
}

/// k-nearest-neighbour distance: a short uniform coordinate loop plus
/// SFU epilogue.
pub fn nn() -> Workload {
    build("NN", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(2), r(1), 169, Operand::Reg(r(0)));
        b.shl(r(3), r(2), 2);
        b.mov(r(4), fimm(0.0)); // squared distance
        b.mov(r(5), 4); // coordinate loop (uniform)
        b.label("coord");
        b.imad(r(6), r(5), 1024, Operand::Reg(r(2)));
        b.shl(r(6), r(6), 2);
        b.ldg(r(7), r(6), A); // record coordinate
        b.ldg(r(8), r(6), B); // query coordinate
        b.fmul(r(9), r(8), fimm(-1.0));
        b.fadd(r(10), r(7), Operand::Reg(r(9)));
        b.ffma(r(4), r(10), Operand::Reg(r(10)), Operand::Reg(r(4)));
        b.iadd(r(5), r(5), -1);
        b.isetp(Cond::Gt, Pred::P0, r(5), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("coord");
        b.fsqrt(r(11), r(4));
        b.fmul(r(12), r(11), fimm(0.5));
        b.fadd(r(13), r(12), fimm(1.0));
        b.stg(r(3), r(13), C);
        b.exit();
    })
}

/// Suffix-tree walk: per-lane pointer chasing with data-dependent
/// trip counts and uncoalesced loads — the memory-contention-heavy
/// benchmark where GPU-shrink's throttling helped in the paper.
pub fn mum() -> Workload {
    build("MUM", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(2), r(1), 256, Operand::Reg(r(0)));
        b.shl(r(3), r(2), 2);
        b.ldg(r(4), r(3), A); // start node
        b.and(r(4), r(4), 4095);
        b.ldg(r(5), r(3), B); // query length
        b.and(r(5), r(5), 15);
        b.iadd(r(5), r(5), 1);
        b.mov(r(6), 0); // match length
        b.label("walk");
        b.shl(r(7), r(4), 2);
        b.ldg(r(8), r(7), C); // node record (uncoalesced)
        b.and(r(9), r(8), 4095); // next node
        b.shr(r(10), r(8), 12);
        b.and(r(10), r(10), 1); // match bit
        b.iadd(r(6), r(6), Operand::Reg(r(10)));
        b.mov(r(4), Operand::Reg(r(9)));
        b.iadd(r(5), r(5), -1);
        b.isetp(Cond::Gt, Pred::P0, r(5), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("walk");
        b.shl(r(11), r(6), 1);
        b.iadd(r(12), r(11), Operand::Reg(r(6)));
        b.imul(r(13), r(12), 3);
        b.and(r(14), r(13), 255);
        b.iadd(r(15), r(14), 7);
        b.xor(r(16), r(15), Operand::Reg(r(2)));
        b.and(r(16), r(16), 1023); // value == address tag: collisions agree
        b.shl(r(17), r(16), 2);
        b.imax(r(18), r(15), Operand::Reg(r(6)));
        b.stg(r(3), r(18), D);
        b.stg(r(17), r(16), E);
        b.exit();
    })
}

/// Dot product: per-thread accumulation loop then a shared-memory
/// tree reduction.
pub fn scalarprod() -> Workload {
    build("ScalarProd", |b| {
        b.s2r(r(0), Special::TidX);
        b.s2r(r(1), Special::CtaIdX);
        b.imad(r(2), r(1), 256, Operand::Reg(r(0)));
        b.shl(r(3), r(2), 2);
        b.mov(r(4), fimm(0.0));
        b.mov(r(5), 8); // element loop (uniform)
        b.label("acc");
        b.imad(r(6), r(5), 2048, Operand::Reg(r(2)));
        b.shl(r(6), r(6), 2);
        b.ldg(r(7), r(6), A);
        b.ldg(r(8), r(6), B);
        b.ffma(r(4), r(7), Operand::Reg(r(8)), Operand::Reg(r(4)));
        b.iadd(r(5), r(5), -1);
        b.isetp(Cond::Gt, Pred::P0, r(5), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("acc");
        b.shl(r(9), r(0), 2);
        b.sts(r(9), r(4), 0);
        b.bar();
        b.mov(r(10), 128); // stride
        b.label("red");
        b.isetp(Cond::Lt, Pred::P1, r(0), Operand::Reg(r(10)));
        b.guard(PredGuard::if_false(Pred::P1));
        b.bra("skip");
        b.iadd(r(11), r(0), Operand::Reg(r(10)));
        b.shl(r(11), r(11), 2);
        b.lds(r(12), r(11), 0);
        b.lds(r(13), r(9), 0);
        b.fadd(r(13), r(13), Operand::Reg(r(12)));
        b.sts(r(9), r(13), 0);
        b.label("skip");
        b.bar();
        b.shr(r(10), r(10), 1);
        b.isetp(Cond::Gt, Pred::P1, r(10), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P1));
        b.bra("red");
        b.isetp(Cond::Ne, Pred::P0, r(0), Operand::Imm(0));
        b.guard(PredGuard::if_true(Pred::P0));
        b.bra("end");
        b.lds(r(14), r(9), 0);
        b.shl(r(15), r(1), 2);
        b.fadd(r(16), r(14), fimm(0.0));
        b.stg(r(15), r(16), C);
        b.label("end");
        b.exit();
    })
}

/// All sixteen benchmarks, in Table 1 order.
pub fn all() -> Vec<Workload> {
    TABLE1
        .iter()
        .map(|g| by_name(g.name).expect("every Table 1 row has a kernel"))
        .collect()
}

/// Looks up one benchmark by its Table 1 name, building only that
/// kernel. Checking a name without building anything is
/// [`crate::paper_geometry`]`(name).is_some()`.
pub fn by_name(name: &str) -> Option<Workload> {
    let build: fn() -> Workload = match name {
        "MatrixMul" => matrixmul,
        "BlackScholes" => blackscholes,
        "DCT8x8" => dct8x8,
        "Reduction" => reduction,
        "VectorAdd" => vectoradd,
        "BackProp" => backprop,
        "BFS" => bfs,
        "Heartwall" => heartwall,
        "HotSpot" => hotspot,
        "LUD" => lud,
        "Gaussian" => gaussian,
        "LIB" => lib,
        "LPS" => lps,
        "NN" => nn,
        "MUM" => mum,
        "ScalarProd" => scalarprod,
        _ => return None,
    };
    Some(build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_counts_match_table1() {
        for w in all() {
            assert_eq!(w.kernel.num_regs(), w.paper.regs_per_kernel, "{}", w.name());
        }
    }

    #[test]
    fn geometry_matches_table1() {
        for w in all() {
            assert_eq!(w.kernel.launch().threads_per_cta(), w.paper.threads_per_cta);
            assert_eq!(w.kernel.launch().max_conc_ctas_per_sm(), w.paper.conc_ctas);
            assert!(w.kernel.launch().grid_ctas() <= w.paper.ctas);
        }
    }

    #[test]
    fn all_sixteen_present_and_unique() {
        let ws = all();
        assert_eq!(ws.len(), TABLE1.len());
        for (w, g) in ws.iter().zip(TABLE1) {
            assert_eq!(w.name(), g.name, "all() keeps Table 1 order");
            let one = by_name(g.name).unwrap_or_else(|| panic!("{} missing", g.name));
            assert_eq!(one.name(), g.name, "by_name maps to the right kernel");
            assert_eq!(one.kernel, w.kernel);
        }
        assert!(by_name("NoSuch").is_none());
    }

    #[test]
    fn kernels_compile() {
        for w in all() {
            let c = rfv_compiler::compile(&w.kernel, &rfv_compiler::CompileOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(c.stats().machine_instrs > 0);
        }
    }

    #[test]
    fn vectoradd_is_the_slimmest() {
        let v = vectoradd();
        assert_eq!(v.kernel.num_regs(), 4);
        let h = heartwall();
        assert_eq!(h.kernel.num_regs(), 29);
    }
}
