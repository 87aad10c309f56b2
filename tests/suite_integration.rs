//! Cross-crate integration: every Table 1 benchmark compiles, runs to
//! completion on every machine configuration, and produces
//! bit-identical outputs regardless of the virtualization scheme.

use rfv_bench::harness::Machine;
use rfv_workloads::suite;

/// Output buffers every kernel may write.
const OUTPUT_BASES: [u64; 4] = [0x0030_0000, 0x0040_0000, 0x0050_0000, 0x0060_0000];

#[test]
fn all_benchmarks_complete_on_all_machines() {
    for w in suite::all() {
        for m in [
            Machine::Conventional,
            Machine::Full128,
            Machine::Shrink64,
            Machine::HardwareOnly,
        ] {
            let r = m.run(&w);
            assert!(r.cycles > 0, "{} on {m:?}", w.name());
            assert!(
                r.sm0().ctas_completed > 0,
                "{} on {m:?} completed no CTAs",
                w.name()
            );
        }
    }
}

#[test]
fn virtualization_transparency_across_the_suite() {
    for w in suite::all() {
        let reference = Machine::Conventional.run(&w);
        for m in [Machine::Full128, Machine::Shrink64, Machine::HardwareOnly] {
            let got = m.run(&w);
            for base in OUTPUT_BASES {
                for off in (0..8192u64).step_by(4) {
                    assert_eq!(
                        reference.memories[0].peek_word(base + off),
                        got.memories[0].peek_word(base + off),
                        "{} on {m:?}: output mismatch at {:#x}",
                        w.name(),
                        base + off
                    );
                }
            }
        }
    }
}

#[test]
fn full_scheme_reduces_peak_demand_suite_wide() {
    let mut improved = 0;
    for w in suite::all() {
        let base = Machine::Conventional.run(&w);
        let full = Machine::Full128.run(&w);
        if full.sm0().regfile.peak_live < base.sm0().regfile.peak_live {
            improved += 1;
        }
    }
    assert!(
        improved >= 14,
        "virtualization should shrink peak register demand on nearly every benchmark, got {improved}/16"
    );
}

#[test]
fn gpu_shrink_overhead_is_small_suite_wide() {
    // the paper: 0.58% average overhead, individual benchmarks can
    // even speed up; allow a loose bound per benchmark
    for w in suite::all() {
        let base = Machine::Conventional.run(&w);
        let shrink = Machine::Shrink64.run(&w);
        let pct = 100.0 * (shrink.cycles as f64 - base.cycles as f64) / base.cycles as f64;
        assert!(
            pct < 30.0,
            "{}: GPU-shrink overhead {pct:.1}% is out of band",
            w.name()
        );
    }
}

#[test]
fn metadata_overhead_matches_paper_band() {
    // paper: ~11% dynamic decode increase with no flag cache, ~0.2%
    // with ten entries; static growth well under 25%
    for w in suite::all() {
        let ck = rfv_bench::harness::compile_full(&w);
        let s = ck.stats();
        assert!(
            s.static_increase_pct < 30.0,
            "{}: static increase {:.1}%",
            w.name(),
            s.static_increase_pct
        );
    }
}

#[test]
fn hardware_only_never_beats_full_scheme() {
    use rfv_bench::harness::conventional_alloc;
    for w in suite::all() {
        let full = Machine::Full128.run(&w);
        let hw = Machine::HardwareOnly.run(&w);
        let alloc = conventional_alloc(&w);
        let red_full = alloc.saturating_sub(full.sm0().regfile.peak_live);
        let red_hw = alloc.saturating_sub(hw.sm0().regfile.peak_live);
        assert!(
            red_hw <= red_full,
            "{}: [46] ({red_hw}) cannot out-reduce compiler-assisted release ({red_full})",
            w.name()
        );
    }
}

#[test]
fn suite_kernels_roundtrip_through_binary_images() {
    for w in suite::all() {
        // fresh kernel
        let image =
            rfv_isa::encode_kernel(&w.kernel).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let back = rfv_isa::decode_kernel(&image).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(back, w.kernel, "{}", w.name());
        // compiled kernel (with embedded pir/pbr metadata)
        let ck = rfv_bench::harness::compile_full(&w);
        let image = rfv_isa::encode_kernel(ck.kernel())
            .unwrap_or_else(|e| panic!("{} compiled: {e}", w.name()));
        let back =
            rfv_isa::decode_kernel(&image).unwrap_or_else(|e| panic!("{} compiled: {e}", w.name()));
        assert_eq!(&back, ck.kernel(), "{} compiled", w.name());
    }
}

#[test]
fn suite_kernels_roundtrip_through_assembly_text() {
    for w in suite::all() {
        let parsed = rfv_isa::parse_kernel(w.name(), &w.kernel.disassemble(), w.kernel.launch())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(parsed, w.kernel, "{}", w.name());
    }
}

#[test]
fn reference_models_validate_numerical_outputs() {
    use rfv_workloads::validate::{init_words_for, standard_init, validator_for};
    for w in suite::all() {
        let Some(validator) = validator_for(w.name()) else {
            continue;
        };
        let init = standard_init(init_words_for(&w));
        let ck = rfv_bench::harness::compile_full(&w);
        for cfg in [
            rfv_sim::SimConfig::baseline_full(),
            rfv_sim::SimConfig::gpu_shrink(50),
        ] {
            let r = rfv_sim::simulate_traced(&ck, &cfg, &init, 0)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()))
                .result;
            let peek = |addr: u64| r.memories[0].peek_word(addr);
            validator(&w, &init, &peek)
                .unwrap_or_else(|e| panic!("{} reference model: {e}", w.name()));
        }
    }
}
