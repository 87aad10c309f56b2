//! Fault-injection differential suite: seeded faults perturbing the
//! release machinery must either be *detected* by the online sanitizer
//! (`SanitizeLevel::Check` → `SimError::Unsound`) or *recovered* from
//! (`SanitizeLevel::Recover` → the offending CTA is quarantined and
//! every other CTA's outputs match the fault-free run). With the
//! sanitizer off and no faults planned, the simulator must behave
//! bit-identically to one without either subsystem.

use rfv_compiler::{compile, CompileOptions, CompiledKernel};
use rfv_sim::{
    simulate_traced, FaultKind, FaultPlan, GlobalMemory, SanitizeLevel, SimConfig, SimError,
    TracedRun,
};
use rfv_trace::TraceKind;
use rfv_workloads::{synth, SynthParams};

const THREADS_PER_CTA: u32 = 64;
const CTAS: u32 = 4;
const OUT_BASE: u64 = 0x0030_0000;

/// A straight-line workload (no divergence) whose every thread stores
/// one word to a disjoint address, so per-CTA output regions are
/// independent and a quarantined CTA never perturbs another's words.
fn workload() -> CompiledKernel {
    let kernel = synth(SynthParams {
        regs: 16,
        loop_trips: 0,
        divergent_loop: false,
        diamond: false,
        mem_ops: 1,
        ctas: CTAS,
        threads_per_cta: THREADS_PER_CTA,
        conc_ctas: 2,
    });
    compile(&kernel, &CompileOptions::default()).expect("synth kernels compile")
}

fn cta_outputs(mem: &GlobalMemory, cta: u32) -> Vec<u32> {
    (0..THREADS_PER_CTA)
        .map(|t| mem.peek_word(OUT_BASE + 4 * u64::from(cta * THREADS_PER_CTA + t)))
        .collect()
}

fn run_traced(config: &SimConfig) -> Result<TracedRun, SimError> {
    simulate_traced(&workload(), config, &[], 1 << 14)
}

#[test]
fn off_mode_is_deterministic_and_check_is_purely_observational() {
    // two sanitizer-off runs are bit-identical (stats, memories, and
    // the full structured trace), and a fault-free Check run — the
    // sanitizer observing but never intervening — matches them too
    let off_cfg = SimConfig::baseline_full();
    assert_eq!(off_cfg.sanitize, SanitizeLevel::Off);
    assert!(off_cfg.faults.is_empty());
    let a = run_traced(&off_cfg).expect("fault-free run completes");
    let b = run_traced(&off_cfg).expect("fault-free run completes");
    let mut check_cfg = off_cfg;
    check_cfg.sanitize = SanitizeLevel::Check;
    let c = run_traced(&check_cfg).expect("fault-free Check run completes");
    for other in [&b, &c] {
        assert_eq!(a.result.per_sm, other.result.per_sm);
        assert_eq!(a.result.memories, other.result.memories);
        assert_eq!(a.events, other.events);
    }
    // ... down to the serialized Chrome trace
    let chrome = |r: &TracedRun| {
        let buf = rfv_trace::chrome::write_trace(Vec::new(), &r.events).expect("in-memory write");
        String::from_utf8(buf).expect("valid UTF-8")
    };
    assert_eq!(chrome(&a), chrome(&b));
    assert_eq!(chrome(&a), chrome(&c));
    assert_eq!(a.result.sm0().faults_injected, 0);
    assert_eq!(a.result.sm0().sanitizer_detections, 0);
    assert_eq!(c.result.sm0().sanitizer_detections, 0);
}

#[test]
fn premature_release_detected_or_recovered_across_seeds() {
    let baseline = run_traced(&SimConfig::baseline_full()).expect("baseline completes");
    let base_mem = &baseline.result.memories[0];
    for seed in 0..10u64 {
        let plan = FaultPlan::single(FaultKind::PrematureRelease, 2, seed);

        // Check: every corrupting fault must surface as Unsound; a
        // fault that happened to be benign (released register rewritten
        // before any use) must leave outputs bit-identical
        let mut check_cfg = SimConfig::baseline_full();
        check_cfg.sanitize = SanitizeLevel::Check;
        check_cfg.faults = plan;
        match run_traced(&check_cfg) {
            Err(SimError::Unsound { .. }) => {}
            Err(e) => panic!("seed {seed}: Check failed with a non-sanitizer error: {e}"),
            Ok(run) => {
                for cta in 0..CTAS {
                    assert_eq!(
                        cta_outputs(&run.result.memories[0], cta),
                        cta_outputs(base_mem, cta),
                        "seed {seed}: undetected fault corrupted CTA {cta}"
                    );
                }
            }
        }

        // Recover: the kernel must complete, and every CTA that was
        // not quarantined must produce the fault-free outputs
        let mut rec_cfg = SimConfig::baseline_full();
        rec_cfg.sanitize = SanitizeLevel::Recover;
        rec_cfg.faults = plan;
        let rec = run_traced(&rec_cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: Recover must complete, got: {e}"));
        let quarantined: Vec<u32> = rec
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::Quarantine { cta, .. } => Some(cta),
                _ => None,
            })
            .collect();
        let s = rec.result.sm0();
        assert_eq!(s.quarantined_ctas, quarantined.len() as u64, "seed {seed}");
        if !quarantined.is_empty() {
            assert!(s.sanitizer_detections > 0, "seed {seed}");
            assert!(s.quarantined_warps > 0, "seed {seed}");
        }
        assert_eq!(
            s.ctas_completed + s.quarantined_ctas,
            u64::from(CTAS),
            "seed {seed}: every CTA either completes or is quarantined"
        );
        for cta in 0..CTAS {
            if quarantined.contains(&cta) {
                continue;
            }
            assert_eq!(
                cta_outputs(&rec.result.memories[0], cta),
                cta_outputs(base_mem, cta),
                "seed {seed}: non-quarantined CTA {cta} diverged from the fault-free run"
            );
        }
    }
}

#[test]
fn every_fault_kind_is_survivable_under_recover() {
    // a kitchen-sink plan across seeds: Recover must always bring the
    // kernel to completion (no panic, no watchdog, no deadlock), and
    // Check must either finish or report structured unsoundness
    for seed in 0..8u64 {
        let plan = FaultPlan::parse("all:2", seed).expect("spec parses");
        let mut rec_cfg = SimConfig::baseline_full();
        rec_cfg.sanitize = SanitizeLevel::Recover;
        rec_cfg.faults = plan;
        rec_cfg.max_cycles = 5_000_000;
        let rec = run_traced(&rec_cfg)
            .unwrap_or_else(|e| panic!("seed {seed}: Recover must survive all kinds, got: {e}"));
        let s = rec.result.sm0();
        assert_eq!(s.ctas_completed + s.quarantined_ctas, u64::from(CTAS));

        let mut check_cfg = rec_cfg;
        check_cfg.sanitize = SanitizeLevel::Check;
        match run_traced(&check_cfg) {
            Ok(_) | Err(SimError::Unsound { .. }) => {}
            Err(e) => panic!("seed {seed}: Check died with a non-sanitizer error: {e}"),
        }
    }
}

#[test]
fn spill_loss_under_shrink_is_detected_or_recovered() {
    // SpillWriteLoss only has sites when GPU-shrink actually spills;
    // squeeze the file hard enough to force swap-outs
    let kernel = synth(SynthParams {
        regs: 48,
        loop_trips: 0,
        divergent_loop: false,
        diamond: false,
        mem_ops: 2,
        ctas: 2,
        threads_per_cta: 256,
        conc_ctas: 2,
    });
    let ck = compile(&kernel, &CompileOptions::default()).expect("synth kernels compile");
    let mut base_cfg = SimConfig::gpu_shrink(75);
    base_cfg.max_cycles = 40_000_000;
    let base = simulate_traced(&ck, &base_cfg, &[], 0).expect("shrink baseline completes");
    assert!(base.result.sm0().swap_outs > 0, "workload must spill");
    for seed in 0..4u64 {
        let mut cfg = base_cfg;
        cfg.faults = FaultPlan::single(FaultKind::SpillWriteLoss, 1, seed);
        cfg.sanitize = SanitizeLevel::Recover;
        let rec = simulate_traced(&ck, &cfg, &[], 1 << 14)
            .unwrap_or_else(|e| panic!("seed {seed}: Recover must complete, got: {e}"));
        let s = rec.result.sm0();
        assert_eq!(s.ctas_completed + s.quarantined_ctas, 2, "seed {seed}");
        if s.faults_injected > 0 {
            // a lost spill write is always unsound once restored
            assert!(
                s.sanitizer_detections > 0,
                "seed {seed}: lost spill write went unnoticed"
            );
        }
    }
}
