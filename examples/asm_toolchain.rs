//! Toolchain walkthrough: author a kernel as assembly text, parse it,
//! compile it for register virtualization, serialize the result to a
//! binary image, reload the image, and run it — the full
//! text → binary → silicon path.
//!
//! ```text
//! cargo run --release -p rfv-bench --example asm_toolchain
//! ```

use rfv_compiler::{compile, CompileOptions};
use rfv_isa::{decode_kernel, encode_kernel, parse_kernel, LaunchConfig};
use rfv_sim::{simulate_traced, SimConfig};

const SOURCE: &str = r"
    # dot-product partial sums: each thread accumulates 4 elements
    S2R.TID.X r0
    S2R.CTAID.X r1
    IMAD r2, r1, 64, r0          ; global thread id
    SHL r3, r2, 2
    MOV r4, 0x0                  ; accumulator (int)
    MOV r5, 4                    ; loop counter
loop:
    IMAD r6, r5, 1024, r2
    SHL r6, r6, 2
    LDG r7, [r6+0x1000]
    LDG r8, [r6+0x8000]
    IMUL r9, r7, r8
    IADD r4, r4, r9
    IADD r5, r5, -1
    ISETP.GT p0, r5, 0x0
    @p0 BRA -> loop
    STG [r3+0x20000], r4
    EXIT
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. text -> kernel
    let launch = LaunchConfig::new(2, 64, 2);
    let kernel = parse_kernel("dot_partial", SOURCE, launch)?;
    println!(
        "parsed `{}`: {} instructions, {} regs/thread",
        kernel.name(),
        kernel.num_machine_instrs(),
        kernel.num_regs()
    );

    // 2. compile -> metadata-carrying kernel
    let compiled = compile(&kernel, &CompileOptions::default())?;
    println!(
        "compiled: +{} pir, +{} pbr ({:.1}% static growth)",
        compiled.stats().num_pir,
        compiled.stats().num_pbr,
        compiled.stats().static_increase_pct
    );

    // 3. kernel -> binary image -> kernel (lossless)
    let image = encode_kernel(compiled.kernel())?;
    println!("binary image: {} bytes", image.len());
    let reloaded = decode_kernel(&image)?;
    assert_eq!(&reloaded, compiled.kernel());
    println!("image round-trip verified");

    // 4. run on the GPU-shrink machine
    let init: Vec<(u64, u32)> = (0..8192u64)
        .flat_map(|i| [(0x1000 + i * 4, 2u32), (0x8000 + i * 4, 3u32)])
        .collect();
    let result = simulate_traced(&compiled, &SimConfig::gpu_shrink(50), &init, 0)?.result;
    println!("ran in {} cycles on the 64 KB file", result.cycles);
    for tid in 0..128u64 {
        // 4 iterations x (2 * 3)
        assert_eq!(result.memories[0].peek_word(0x20000 + tid * 4), 24);
    }
    println!("outputs verified: every partial sum is 24");
    Ok(())
}
