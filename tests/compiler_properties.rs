//! Property-based tests of the compiler's release-point analysis:
//! structural soundness invariants over randomly-shaped kernels.

use proptest::prelude::*;

use rfv_compiler::{
    compile, Cfg, CompileOptions, DivergenceRegions, Liveness, PostDominators, Uniformity,
};
use rfv_isa::kernel::ProgItem;
use rfv_workloads::{synth, SynthParams};

fn arb_params() -> impl Strategy<Value = SynthParams> {
    (
        6u8..=48,
        0u32..10,
        any::<bool>(),
        any::<bool>(),
        0u8..=3,
        1u32..=4,
        prop_oneof![Just(32u32), Just(64), Just(160), Just(256)],
        1u32..=4,
    )
        .prop_map(
            |(regs, loop_trips, divergent_loop, diamond, mem_ops, ctas, threads, conc)| {
                SynthParams {
                    regs,
                    loop_trips,
                    divergent_loop,
                    diamond,
                    mem_ops,
                    ctas,
                    threads_per_cta: threads,
                    conc_ctas: conc,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Metadata insertion preserves the machine-instruction sequence
    /// exactly (opcodes and operands, in order).
    #[test]
    fn insertion_preserves_machine_code(p in arb_params()) {
        let kernel = synth(p);
        let ck = compile(&kernel, &CompileOptions::default()).unwrap();
        let before: Vec<_> = kernel
            .items()
            .iter()
            .filter_map(|i| i.as_instr())
            .map(|i| (i.opcode, i.dst, i.srcs.clone(), i.guard))
            .collect();
        let after: Vec<_> = ck
            .kernel()
            .items()
            .iter()
            .filter_map(|i| i.as_instr())
            .map(|i| (i.opcode, i.dst, i.srcs.clone(), i.guard))
            .collect();
        prop_assert_eq!(before, after);
    }

    /// A release flag always names a register operand of its
    /// instruction, the register is renamed (never exempt), and it is
    /// dead at thread level immediately after the instruction.
    #[test]
    fn pir_flags_are_sound(p in arb_params()) {
        let kernel = synth(p);
        let ck = compile(&kernel, &CompileOptions::default()).unwrap();
        // recompute liveness on the original kernel for cross-checking
        let cfg = Cfg::build(&kernel).unwrap();
        let lv = Liveness::compute(&cfg);
        // map original pcs in order onto rewritten machine pcs
        let rewritten_pcs: Vec<usize> = ck
            .kernel()
            .items()
            .iter()
            .enumerate()
            .filter(|(_, it)| !it.is_meta())
            .map(|(pc, _)| pc)
            .collect();
        for (orig_pc, &new_pc) in rewritten_pcs.iter().enumerate() {
            let flags = ck.flags_at(new_pc);
            if !flags.any() {
                continue;
            }
            let instr = ck.kernel().items()[new_pc].as_instr().unwrap();
            for slot in 0..3 {
                if !flags.releases(slot) {
                    continue;
                }
                let reg = instr
                    .srcs
                    .get(slot)
                    .and_then(|o| o.reg())
                    .expect("flag on a non-register operand slot");
                prop_assert!(ck.is_renamed(reg), "flagged exempt register {reg}");
                prop_assert!(
                    !lv.live_out_at(orig_pc).contains(reg),
                    "released live register {reg} at pc {orig_pc}"
                );
            }
        }
    }

    /// `pir` releases never appear inside divergence regions.
    #[test]
    fn no_releases_in_divergent_blocks(p in arb_params()) {
        let kernel = synth(p);
        let ck = compile(&kernel, &CompileOptions::default()).unwrap();
        let cfg = Cfg::build(&kernel).unwrap();
        let pdom = PostDominators::compute(&cfg);
        let uni = Uniformity::compute(cfg.instrs());
        let dr = DivergenceRegions::compute(&cfg, &pdom, &uni);
        let machine_pcs: Vec<usize> = ck
            .kernel()
            .items()
            .iter()
            .enumerate()
            .filter(|(_, it)| !it.is_meta())
            .map(|(pc, _)| pc)
            .collect();
        for (orig_pc, &new_pc) in machine_pcs.iter().enumerate() {
            if ck.flags_at(new_pc).any() {
                let block = cfg.block_of(orig_pc);
                prop_assert!(
                    dr.is_convergent(block),
                    "pir release inside divergent block {block} (pc {orig_pc})"
                );
            }
        }
    }

    /// `pbr` registers are dead at their reconvergence block and are
    /// never exempt.
    #[test]
    fn pbr_registers_are_dead_at_reconvergence(p in arb_params()) {
        let kernel = synth(p);
        let ck = compile(&kernel, &CompileOptions::default()).unwrap();
        let cfg = Cfg::build(&kernel).unwrap();
        let lv = Liveness::compute(&cfg);
        // rebuild the original-block <-> rewritten-head mapping by
        // walking rewritten items and counting machine instructions
        let mut machine_seen = 0usize;
        for item in ck.kernel().items() {
            match item {
                ProgItem::Pbr(pbr) => {
                    // the block whose head this pbr sits at starts at
                    // original pc `machine_seen`
                    let block = cfg.block_of(machine_seen);
                    for &reg in pbr.regs() {
                        prop_assert!(ck.is_renamed(reg));
                        prop_assert!(
                            !lv.live_in(block).contains(reg),
                            "pbr releases live-in register {reg} at {block}"
                        );
                    }
                }
                ProgItem::Instr(_) => machine_seen += 1,
                ProgItem::Pir(_) => {}
            }
        }
    }

    /// Renamed and exempt sets partition the used registers, and the
    /// constrained table respects the budget.
    #[test]
    fn candidate_selection_is_a_partition(p in arb_params()) {
        let kernel = synth(p);
        let ck = compile(&kernel, &CompileOptions::default()).unwrap();
        for reg in kernel.regs_used() {
            prop_assert!(
                ck.is_renamed(reg) ^ ck.is_exempt(reg),
                "{reg} must be exactly one of renamed/exempt"
            );
        }
        prop_assert!(ck.stats().table_bytes <= 1024);
    }

    /// Disassembly text parses back into the identical kernel, before
    /// and after metadata insertion.
    #[test]
    fn disassembly_roundtrips(p in arb_params()) {
        let kernel = synth(p);
        let parsed = rfv_isa::parse_kernel(
            kernel.name(),
            &kernel.disassemble(),
            kernel.launch(),
        ).unwrap();
        prop_assert_eq!(&parsed, &kernel);
        let ck = compile(&kernel, &CompileOptions::default()).unwrap();
        let parsed = rfv_isa::parse_kernel(
            ck.kernel().name(),
            &ck.kernel().disassemble(),
            ck.kernel().launch(),
        ).unwrap();
        prop_assert_eq!(&parsed, ck.kernel());
    }

    /// Binary kernel images round-trip losslessly for any generated
    /// kernel, before and after metadata insertion.
    #[test]
    fn binary_image_roundtrips(p in arb_params()) {
        let kernel = synth(p);
        let back = rfv_isa::decode_kernel(&rfv_isa::encode_kernel(&kernel).unwrap()).unwrap();
        prop_assert_eq!(&back, &kernel);
        let ck = compile(&kernel, &CompileOptions::default()).unwrap();
        let back = rfv_isa::decode_kernel(&rfv_isa::encode_kernel(ck.kernel()).unwrap()).unwrap();
        prop_assert_eq!(&back, ck.kernel());
    }

    /// Conditional branches all have reconvergence entries, pointing
    /// at valid PCs.
    #[test]
    fn reconvergence_table_is_total(p in arb_params()) {
        let kernel = synth(p);
        let ck = compile(&kernel, &CompileOptions::default()).unwrap();
        for (pc, item) in ck.kernel().items().iter().enumerate() {
            let Some(i) = item.as_instr() else { continue };
            if i.opcode == rfv_isa::Opcode::Bra && i.guard.is_some() {
                let entry = ck.reconv_at(pc);
                prop_assert!(entry.is_some(), "missing reconvergence for branch at {pc}");
                if let Some(Some(r)) = entry {
                    prop_assert!(r < ck.kernel().len());
                }
            }
        }
    }
}

/// Two independent compiles of a branchy kernel produce the same
/// `CompiledKernel`, down to its `Debug` rendering (the reconvergence
/// table is a dense per-PC list, so no hash-map iteration order leaks
/// in) and its kernel hash — the hash being FNV-1a over exactly the
/// bytes `CompiledKernel::encode_identity` writes.
#[test]
fn independent_compiles_render_and_hash_equal() {
    let bfs = rfv_workloads::suite::bfs();
    let a = compile(&bfs.kernel, &CompileOptions::default()).unwrap();
    let b = compile(&bfs.kernel, &CompileOptions::default()).unwrap();
    assert!(a.stats().num_divergent_branches > 0, "BFS must branch");
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(
        rfv_sim::kernel_identity_hash(&a),
        rfv_sim::kernel_identity_hash(&b)
    );
    let mut bytes = Vec::new();
    a.encode_identity(&mut bytes);
    assert_eq!(
        rfv_sim::kernel_identity_hash(&a),
        rfv_trace::wire::fnv1a(&bytes)
    );
}
