//! Differential tests for deterministic checkpoint/resume: restoring
//! a run at any cycle boundary and driving it to completion must be
//! *bit-identical* to the uninterrupted run in every observable —
//! per-SM statistics, final memories, merged trace events, and the
//! serialized Chrome JSON.

use proptest::prelude::*;

use rfv_bench::harness::{compile_full, Machine};
use rfv_compiler::CompiledKernel;
use rfv_isa::kernel::ProgItem;
use rfv_isa::{Kernel, Operand};
use rfv_sim::{
    simulate_traced, simulate_traced_checkpointed, Checkpoint, SimConfig, SimError, SlicedSim,
    TracedRun,
};
use rfv_trace::TraceEvent;
use rfv_workloads::{suite, synth, PaperGeometry, SynthParams, Workload};

fn chrome_json(events: &[TraceEvent]) -> String {
    let out = rfv_trace::chrome::write_trace(Vec::new(), events).expect("in-memory write");
    String::from_utf8(out).expect("chrome trace is utf-8")
}

/// A register-hungry multi-CTA workload that exercises the GPU-shrink
/// throttle, spill store, and swap machinery — the states a snapshot
/// must capture exactly.
fn pressured_workload() -> Workload {
    let p = SynthParams {
        regs: 28,
        loop_trips: 5,
        divergent_loop: true,
        diamond: true,
        mem_ops: 3,
        ctas: 8,
        threads_per_cta: 128,
        conc_ctas: 4,
    };
    Workload {
        paper: PaperGeometry {
            name: "synth-pressure",
            ctas: p.ctas,
            threads_per_cta: p.threads_per_cta,
            regs_per_kernel: 28,
            conc_ctas: p.conc_ctas,
        },
        kernel: synth(p),
    }
}

fn init_words() -> Vec<(u64, u32)> {
    (0..256).map(|i| (i * 4, (i * 37) as u32)).collect()
}

/// Resumes a run from `checkpoint` and drives it to completion.
fn resume(
    kernel: &CompiledKernel,
    config: &SimConfig,
    checkpoint: &Checkpoint,
) -> Result<TracedRun, SimError> {
    SlicedSim::resume(kernel, config, checkpoint)?.finish()
}

/// Runs the checkpointing engine, collecting every emitted snapshot.
fn run_with_checkpoints(
    kernel: &CompiledKernel,
    config: &SimConfig,
    every: u64,
) -> (TracedRun, Vec<Checkpoint>) {
    let mut checkpoints = Vec::new();
    let run =
        simulate_traced_checkpointed(kernel, config, &init_words(), 1 << 20, every, &mut |c| {
            checkpoints.push(c.clone());
            Ok(())
        })
        .expect("checkpointed run completes");
    (run, checkpoints)
}

/// The core differential: an uninterrupted run, a checkpointing run,
/// and a resume from every collected checkpoint must all agree bit
/// for bit.
fn assert_resume_matches(kernel: &CompiledKernel, config: &SimConfig, label: &str) {
    let uninterrupted =
        simulate_traced(kernel, config, &init_words(), 1 << 20).expect("baseline runs");
    // pick an interval that yields several boundaries inside the run
    let every = (uninterrupted.result.cycles / 5).max(1);
    let (checkpointed, checkpoints) = run_with_checkpoints(kernel, config, every);

    assert_eq!(
        checkpointed.result.per_sm, uninterrupted.result.per_sm,
        "{label}: checkpointing perturbed the run (stats)"
    );
    assert_eq!(
        checkpointed.result.memories, uninterrupted.result.memories,
        "{label}: checkpointing perturbed the run (memories)"
    );
    assert_eq!(
        checkpointed.events, uninterrupted.events,
        "{label}: checkpointing perturbed the run (events)"
    );
    assert!(
        checkpoints.len() >= 3,
        "{label}: want >=3 cycle boundaries, got {} (every={every}, cycles={})",
        checkpoints.len(),
        uninterrupted.result.cycles
    );

    let want_chrome = chrome_json(&uninterrupted.events);
    for c in &checkpoints {
        let resumed = resume(kernel, config, c)
            .unwrap_or_else(|e| panic!("{label}: resume at cycle {} failed: {e}", c.cycle));
        assert_eq!(
            resumed.result.cycles, uninterrupted.result.cycles,
            "{label}@{}: cycles",
            c.cycle
        );
        assert_eq!(
            resumed.result.per_sm, uninterrupted.result.per_sm,
            "{label}@{}: stats",
            c.cycle
        );
        assert_eq!(
            resumed.result.memories, uninterrupted.result.memories,
            "{label}@{}: memories",
            c.cycle
        );
        assert_eq!(
            resumed.events, uninterrupted.events,
            "{label}@{}: events",
            c.cycle
        );
        assert_eq!(
            chrome_json(&resumed.events),
            want_chrome,
            "{label}@{}: Chrome JSON",
            c.cycle
        );
    }
}

/// Every machine policy of the evaluation on a suite workload.
#[test]
fn resume_is_bit_identical_all_policies() {
    let w = suite::vectoradd();
    for m in [
        Machine::Conventional,
        Machine::Full128,
        Machine::Shrink64,
        Machine::HardwareOnly,
    ] {
        let ck = m.compile(&w);
        assert_resume_matches(&ck, &m.config(), &format!("{m:?}/{}", w.name()));
    }
}

/// Both GPU-shrink depths under register pressure: snapshots must
/// capture throttle balances, the spill store, and swapped-out warps.
#[test]
fn resume_is_bit_identical_under_shrink_pressure() {
    let w = pressured_workload();
    let ck = compile_full(&w);
    for pct in [50, 40] {
        assert_resume_matches(&ck, &SimConfig::gpu_shrink(pct), &format!("shrink{pct}"));
    }
}

/// Multi-SM runs checkpoint and resume every SM frame; the merged
/// trace must still be bit-identical.
#[test]
fn resume_is_bit_identical_multi_sm() {
    let w = suite::vectoradd();
    let ck = compile_full(&w);
    let mut config = SimConfig::baseline_full();
    config.num_sms = 4;
    assert_resume_matches(&ck, &config, "multi-sm");
}

/// A checkpoint taken under one configuration must refuse to resume
/// under another (typed error, not silent divergence).
#[test]
fn wrong_machine_resume_is_rejected() {
    let w = suite::vectoradd();
    let ck = compile_full(&w);
    let cfg = SimConfig::baseline_full();
    let (_, checkpoints) = run_with_checkpoints(&ck, &cfg, 300);
    let c = checkpoints.first().expect("at least one checkpoint");
    let other = SimConfig::gpu_shrink(50);
    assert!(matches!(
        resume(&ck, &other, c),
        Err(SimError::BadCheckpoint(_))
    ));
    // a different kernel is rejected too
    let other_ck = compile_full(&suite::reduction());
    assert!(matches!(
        resume(&other_ck, &cfg, c),
        Err(SimError::BadCheckpoint(_))
    ));
}

/// A checkpoint refuses to resume under a kernel that differs from its
/// own by a single immediate operand: the kernel hash covers operand
/// values, not just the program's shape.
#[test]
fn one_immediate_different_kernel_resume_is_rejected() {
    let w = suite::vectoradd();
    let ck = compile_full(&w);
    let cfg = SimConfig::baseline_full();
    let (_, checkpoints) = run_with_checkpoints(&ck, &cfg, 300);
    let c = checkpoints.first().expect("at least one checkpoint");

    let mut items = w.kernel.items().to_vec();
    let imm = items
        .iter_mut()
        .find_map(|it| match it {
            ProgItem::Instr(i) => i.srcs.iter_mut().find_map(|op| match op {
                Operand::Imm(v) => Some(v),
                Operand::Reg(_) => None,
            }),
            _ => None,
        })
        .expect("VectorAdd has an immediate operand");
    *imm += 1;
    let kernel = Kernel::new(w.kernel.name(), items, w.kernel.launch()).expect("still valid");
    let other = compile_full(&Workload { kernel, ..w });
    match resume(&other, &cfg, c) {
        Err(SimError::BadCheckpoint(m)) => assert!(m.contains("different kernel"), "{m}"),
        other => panic!("resume under a one-immediate-different kernel: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Property: for a *random* checkpoint interval, the first
    /// snapshot taken resumes to a bit-identical end state.
    #[test]
    fn resume_at_random_cycle_matches(every in 1u64..1200) {
        let w = suite::vectoradd();
        let ck = compile_full(&w);
        let cfg = SimConfig::baseline_full();
        let uninterrupted =
            simulate_traced(&ck, &cfg, &init_words(), 1 << 20).expect("baseline");
        prop_assume!(every < uninterrupted.result.cycles);
        let (_, checkpoints) = run_with_checkpoints(&ck, &cfg, every);
        prop_assume!(!checkpoints.is_empty());
        let resumed = resume(&ck, &cfg, &checkpoints[0]).expect("resume");
        prop_assert_eq!(&resumed.result.per_sm, &uninterrupted.result.per_sm);
        prop_assert_eq!(&resumed.result.memories, &uninterrupted.result.memories);
        prop_assert_eq!(&resumed.events, &uninterrupted.events);
    }

    /// Property: the container codec round-trips any checkpoint the
    /// engine emits, and every single-bit corruption is rejected.
    #[test]
    fn emitted_checkpoints_round_trip_and_reject_corruption(every in 50u64..600) {
        let w = suite::vectoradd();
        let ck = compile_full(&w);
        let cfg = SimConfig::baseline_full();
        let (_, checkpoints) = run_with_checkpoints(&ck, &cfg, every);
        prop_assume!(!checkpoints.is_empty());
        let c = &checkpoints[0];
        let bytes = c.to_bytes();
        prop_assert_eq!(&Checkpoint::from_bytes(&bytes).expect("round trip"), c);
        let mut corrupt = bytes.clone();
        let idx = (every as usize * 131) % corrupt.len();
        corrupt[idx] ^= 0x10;
        prop_assert!(matches!(
            Checkpoint::from_bytes(&corrupt),
            Err(SimError::BadCheckpoint(_))
        ));
    }
}
