//! End-to-end execution tests: functional correctness of the SIMT
//! simulator and transparency of register virtualization.

use rfv_compiler::{compile, CompileOptions, CompiledKernel};
use rfv_isa::prelude::*;
use rfv_isa::{PredGuard, Special};
use rfv_sim::{simulate, simulate_traced, SimConfig, SimResult};

fn compiled(f: impl FnOnce(&mut KernelBuilder), launch: LaunchConfig) -> CompiledKernel {
    let mut b = KernelBuilder::new("test");
    f(&mut b);
    let kernel = b.build(launch).unwrap();
    compile(&kernel, &CompileOptions::default()).unwrap()
}

/// `out[tid] = in[tid] + 1` over one CTA of 64 threads.
fn increment_kernel(b: &mut KernelBuilder) {
    let (r0, r1, r2) = (ArchReg::R0, ArchReg::R1, ArchReg::R2);
    b.s2r(r0, Special::TidX);
    b.shl(r1, r0, 2);
    b.ldg(r2, r1, 0); // in[] at 0x0
    b.iadd(r2, r2, 1);
    b.stg(r1, r2, 0x1000); // out[] at 0x1000
    b.exit();
}

#[test]
fn increment_kernel_produces_correct_outputs() {
    let ck = compiled(increment_kernel, LaunchConfig::new(1, 64, 1));
    let init: Vec<(u64, u32)> = (0..64).map(|i| (i * 4, 100 + i as u32)).collect();
    let r = simulate_traced(&ck, &SimConfig::baseline_full(), &init, 0)
        .unwrap()
        .result;
    for i in 0..64u64 {
        assert_eq!(
            r.memories[0].peek_word(0x1000 + i * 4),
            101 + i as u32,
            "thread {i}"
        );
    }
    assert_eq!(r.sm0().ctas_completed, 1);
    assert!(r.cycles > 0);
}

/// Divergent kernel: threads below 16 in each warp double, the rest
/// negate-add; all write results.
fn divergent_kernel(b: &mut KernelBuilder) {
    let (r0, r1, r2) = (ArchReg::R0, ArchReg::R1, ArchReg::R2);
    b.s2r(r0, Special::TidX);
    b.s2r(r2, Special::LaneId);
    b.isetp(Cond::Lt, Pred::P0, r2, Operand::Imm(16));
    b.guard(PredGuard::if_false(Pred::P0));
    b.bra("else");
    b.imul(r1, r0, 2); // lanes 0..15
    b.bra("join");
    b.label("else");
    b.iadd(r1, r0, 1000); // lanes 16..31
    b.label("join");
    b.shl(r2, r0, 2);
    b.stg(r2, r1, 0x2000);
    b.exit();
}

#[test]
fn divergent_branches_reconverge_correctly() {
    let ck = compiled(divergent_kernel, LaunchConfig::new(1, 64, 1));
    let r = simulate(&ck, &SimConfig::baseline_full()).unwrap();
    for tid in 0..64u64 {
        let expected = if tid % 32 < 16 {
            (tid * 2) as u32
        } else {
            tid as u32 + 1000
        };
        assert_eq!(
            r.memories[0].peek_word(0x2000 + tid * 4),
            expected,
            "thread {tid}"
        );
    }
}

/// Uniform loop: out[tid] = tid summed over 8 iterations.
fn loop_kernel(b: &mut KernelBuilder) {
    let (r0, r1, r2, r3) = (ArchReg::R0, ArchReg::R1, ArchReg::R2, ArchReg::R3);
    b.s2r(r0, Special::TidX);
    b.mov(r1, 0); // acc
    b.mov(r2, 8); // counter (uniform)
    b.label("top");
    b.iadd(r1, r1, Operand::Reg(r0));
    b.iadd(r2, r2, -1);
    b.isetp(Cond::Gt, Pred::P0, r2, Operand::Imm(0));
    b.guard(PredGuard::if_true(Pred::P0));
    b.bra("top");
    b.shl(r3, r0, 2);
    b.stg(r3, r1, 0x3000);
    b.exit();
}

#[test]
fn uniform_loops_iterate_correctly() {
    let ck = compiled(loop_kernel, LaunchConfig::new(2, 32, 2));
    let r = simulate(&ck, &SimConfig::baseline_full()).unwrap();
    for tid in 0..32u64 {
        assert_eq!(
            r.memories[0].peek_word(0x3000 + tid * 4),
            (tid * 8) as u32,
            "thread {tid}"
        );
    }
}

/// Data-dependent (divergent) loop: each lane iterates `laneid % 4 + 1`
/// times.
fn divergent_loop_kernel(b: &mut KernelBuilder) {
    let (r0, r1, r2, r3) = (ArchReg::R0, ArchReg::R1, ArchReg::R2, ArchReg::R3);
    b.s2r(r0, Special::LaneId);
    b.and(r2, r0, 3);
    b.iadd(r2, r2, 1); // trip count: 1..4 per lane
    b.mov(r1, 0);
    b.label("top");
    b.iadd(r1, r1, 10);
    b.iadd(r2, r2, -1);
    b.isetp(Cond::Gt, Pred::P0, r2, Operand::Imm(0));
    b.guard(PredGuard::if_true(Pred::P0));
    b.bra("top");
    b.s2r(r0, Special::TidX);
    b.shl(r3, r0, 2);
    b.stg(r3, r1, 0x4000);
    b.exit();
}

#[test]
fn divergent_trip_counts_execute_per_lane() {
    let ck = compiled(divergent_loop_kernel, LaunchConfig::new(1, 32, 1));
    let r = simulate(&ck, &SimConfig::baseline_full()).unwrap();
    for tid in 0..32u64 {
        let trips = (tid % 4) + 1;
        assert_eq!(
            r.memories[0].peek_word(0x4000 + tid * 4),
            (trips * 10) as u32,
            "thread {tid}"
        );
    }
}

/// Barrier kernel: warp 0 writes shared memory, all warps read after
/// the barrier.
fn barrier_kernel(b: &mut KernelBuilder) {
    let (r0, r1, r2, r3) = (ArchReg::R0, ArchReg::R1, ArchReg::R2, ArchReg::R3);
    b.s2r(r0, Special::TidX);
    b.s2r(r1, Special::WarpId);
    // warp 0 fills shared[lane] = lane * 7
    b.isetp(Cond::Eq, Pred::P0, r1, Operand::Imm(0));
    b.s2r(r2, Special::LaneId);
    b.imul(r3, r2, 7);
    b.shl(r2, r2, 2);
    b.guard(PredGuard::if_true(Pred::P0));
    b.sts(r2, r3, 0);
    b.bar();
    // everyone reads shared[lane]
    b.s2r(r2, Special::LaneId);
    b.shl(r2, r2, 2);
    b.lds(r3, r2, 0);
    b.shl(r2, r0, 2);
    b.stg(r2, r3, 0x5000);
    b.exit();
}

#[test]
fn barriers_synchronize_shared_memory() {
    let ck = compiled(barrier_kernel, LaunchConfig::new(1, 128, 1));
    let r = simulate(&ck, &SimConfig::baseline_full()).unwrap();
    assert!(r.sm0().barrier_waits >= 4, "four warps hit the barrier");
    for tid in 0..128u64 {
        let lane = tid % 32;
        assert_eq!(
            r.memories[0].peek_word(0x5000 + tid * 4),
            (lane * 7) as u32,
            "thread {tid}"
        );
    }
}

/// Virtualization transparency: the full scheme (and GPU-shrink, and
/// the hardware-only scheme) must produce bit-identical outputs to the
/// conventional GPU. Functional values live in *physical* registers,
/// so an unsound early release would corrupt this comparison.
type NamedKernel = (&'static str, fn(&mut KernelBuilder), LaunchConfig);

#[test]
fn virtualization_is_transparent() {
    let kernels: Vec<NamedKernel> = vec![
        ("inc", increment_kernel, LaunchConfig::new(4, 64, 2)),
        ("div", divergent_kernel, LaunchConfig::new(4, 64, 2)),
        ("loop", loop_kernel, LaunchConfig::new(4, 32, 4)),
        ("dloop", divergent_loop_kernel, LaunchConfig::new(4, 32, 4)),
        ("bar", barrier_kernel, LaunchConfig::new(2, 128, 2)),
    ];
    for (name, f, launch) in kernels {
        let ck = compiled(f, launch);
        let reference = simulate(&ck, &SimConfig::conventional()).unwrap();
        // compile a flag-free copy for the policies that ignore flags
        for (cfg_name, cfg) in [
            ("full-128KB", SimConfig::baseline_full()),
            ("gpu-shrink-50", SimConfig::gpu_shrink(50)),
            ("hw-only", {
                let mut c = SimConfig::baseline_full();
                c.regfile.policy = rfv_core::VirtualizationPolicy::HardwareOnly;
                c
            }),
        ] {
            let got = simulate(&ck, &cfg).unwrap();
            compare_outputs(name, cfg_name, &reference, &got);
        }
    }
}

fn compare_outputs(kernel: &str, cfg: &str, a: &SimResult, b: &SimResult) {
    for base in [0x1000u64, 0x2000, 0x3000, 0x4000, 0x5000] {
        for off in (0..2048).step_by(4) {
            let (x, y) = (
                a.memories[0].peek_word(base + off),
                b.memories[0].peek_word(base + off),
            );
            assert_eq!(x, y, "{kernel}/{cfg}: divergence at {:#x}", base + off);
        }
    }
}

#[test]
fn full_policy_reduces_peak_registers() {
    // many short-lived registers: the full scheme should need fewer
    // physical registers than the conventional allocation
    let ck = compiled(
        |b| {
            for i in 0..16u8 {
                b.mov(ArchReg::new(i), i as i32);
                b.stg(ArchReg::new(i), ArchReg::new(i), 0x6000 + 4 * i as i32);
            }
            b.exit();
        },
        LaunchConfig::new(8, 64, 4),
    );
    let full = simulate(&ck, &SimConfig::baseline_full()).unwrap();
    let base = simulate(&ck, &SimConfig::conventional()).unwrap();
    assert!(
        full.sm0().regfile.peak_live < base.sm0().regfile.peak_live,
        "virtualization must shrink peak demand: {} vs {}",
        full.sm0().regfile.peak_live,
        base.sm0().regfile.peak_live
    );
}

#[test]
fn flag_cache_absorbs_metadata_decodes() {
    let ck = compiled(loop_kernel, LaunchConfig::new(8, 256, 4));
    let with_cache = simulate(&ck, &SimConfig::baseline_full()).unwrap();
    let mut no_cache_cfg = SimConfig::baseline_full();
    no_cache_cfg.regfile.flag_cache_entries = 0;
    let without = simulate(&ck, &no_cache_cfg).unwrap();
    assert!(
        with_cache.sm0().meta_decoded < without.sm0().meta_decoded,
        "{} !< {}",
        with_cache.sm0().meta_decoded,
        without.sm0().meta_decoded
    );
    assert!(with_cache.sm0().flag_cache.hits > 0);
}

#[test]
fn multi_sm_distribution_covers_all_ctas() {
    let ck = compiled(increment_kernel, LaunchConfig::new(8, 64, 2));
    let mut cfg = SimConfig::baseline_full();
    cfg.num_sms = 4;
    let r = simulate(&ck, &cfg).unwrap();
    let total: u64 = r.total(|s| s.ctas_completed);
    assert_eq!(total, 8);
    assert_eq!(r.per_sm.len(), 4);
    assert!(r.cycles >= r.per_sm.iter().map(|s| s.cycles).min().unwrap());
}

#[test]
fn sampling_records_occupancy() {
    let ck = compiled(loop_kernel, LaunchConfig::new(4, 256, 4));
    let r = simulate(&ck, &SimConfig::baseline_full()).unwrap();
    let s = r.sm0();
    assert!(!s.samples.is_empty());
    assert!(s.mean_live_regs() > 0.0);
    assert!(s.mean_live_fraction() > 0.0 && s.mean_live_fraction() <= 1.0);
}
