//! Quickstart: author a kernel, compile it for register file
//! virtualization, and run it on the simulated GPU.
//!
//! ```text
//! cargo run --release -p rfv-bench --example quickstart
//! ```

use rfv_compiler::{compile, CompileOptions};
use rfv_isa::prelude::*;
use rfv_isa::{PredGuard, Special};
use rfv_sim::{simulate_traced, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Write a kernel with the builder: out[i] = 2*in[i] + tid,
    //    repeated over a short uniform loop.
    let mut b = KernelBuilder::new("saxpy_quickstart");
    let (r0, r1, r2, r3, r4) = (
        ArchReg::R0,
        ArchReg::R1,
        ArchReg::R2,
        ArchReg::R3,
        ArchReg::R4,
    );
    b.s2r(r0, Special::TidX);
    b.s2r(r1, Special::CtaIdX);
    b.imad(r0, r1, Operand::Imm(64), Operand::Reg(r0)); // global tid
    b.shl(r1, r0, 2); // byte offset
    b.mov(r4, 4); // loop counter
    b.label("loop");
    b.ldg(r2, r1, 0x1000); // in[]
    b.imad(r3, r2, Operand::Imm(2), Operand::Reg(r0)); // 2*x + tid
    b.stg(r1, r3, 0x2000); // out[]
    b.iadd(r4, r4, -1);
    b.isetp(Cond::Gt, Pred::P0, r4, Operand::Imm(0));
    b.guard(PredGuard::if_true(Pred::P0));
    b.bra("loop");
    b.exit();
    let kernel = b.build(LaunchConfig::new(4, 64, 4))?;

    // 2. Compile: lifetime analysis + release-flag metadata insertion.
    let compiled = compile(&kernel, &CompileOptions::default())?;
    println!("compiled `{}`:", kernel.name());
    println!(
        "  machine instructions : {}",
        compiled.stats().machine_instrs
    );
    println!("  pir metadata         : {}", compiled.stats().num_pir);
    println!("  pbr metadata         : {}", compiled.stats().num_pbr);
    println!(
        "  static code increase : {:.1}%",
        compiled.stats().static_increase_pct
    );
    println!("  renamed registers    : {}", compiled.stats().num_renamed);
    println!(
        "\ndisassembly with embedded release flags:\n{}",
        compiled.kernel().disassemble()
    );

    // 3. Run on the virtualized GPU (full scheme, 128 KB file).
    let init: Vec<(u64, u32)> = (0..256).map(|i| (0x1000 + i * 4, i as u32)).collect();
    let result = simulate_traced(&compiled, &SimConfig::baseline_full(), &init, 0)?.result;
    let s = result.sm0();
    println!(
        "ran in {} cycles; {} instructions issued",
        result.cycles, s.instrs_issued
    );
    println!(
        "peak live registers {} (a conventional GPU would statically hold {})",
        s.regfile.peak_live,
        kernel.num_regs()
            * kernel.launch().warps_per_cta() as usize
            * kernel.launch().max_conc_ctas_per_sm() as usize
    );

    // 4. Verify the outputs.
    for i in 0..256u64 {
        let got = result.memories[0].peek_word(0x2000 + i * 4);
        assert_eq!(got, (3 * i) as u32, "out[{i}]");
    }
    println!("outputs verified: out[i] == 2*in[i] + tid == 3*i");
    Ok(())
}
