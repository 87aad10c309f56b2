//! Differential tests for the cycle-engine hot-path overhauls:
//!
//! * the threaded-code execution plan must be *bit-identical* to the
//!   match-dispatch interpreter (kept behind
//!   `SimConfig::reference_interpreter`) in every observable —
//!   including under sanitizer recovery, fault injection, and
//!   checkpoints resumed on the *other* engine;
//! * the predecoded program image must match the compiled program
//!   field for field.

use proptest::prelude::*;

use rfv_bench::harness::{compile_full, Machine};
use rfv_compiler::CompiledKernel;
use rfv_isa::kernel::ProgItem;
use rfv_sim::predecode::{PdItem, PredecodedKernel};
use rfv_sim::warp::NO_RECONV;
use rfv_sim::{
    simulate, simulate_resumable_traced, simulate_traced_checkpointed, simulate_traced_with_init,
    Checkpoint, FaultPlan, SanitizeLevel, SimConfig, TracedRun,
};
use rfv_trace::TraceEvent;
use rfv_workloads::{suite, synth, PaperGeometry, SynthParams, Workload};

fn chrome_json(events: &[TraceEvent]) -> String {
    let out = rfv_trace::chrome::write_trace(Vec::new(), events).expect("in-memory write");
    String::from_utf8(out).expect("chrome trace is utf-8")
}

/// A register-hungry multi-CTA workload that triggers the GPU-shrink
/// throttle and its spill/swap machinery.
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

/// Predecode is purely representational: every `PdItem` must carry
/// exactly the fields of its `ProgItem`, with release flags,
/// reconvergence PCs, and the scoreboard mask prefetched from the
/// same side tables `try_issue` used to consult per cycle.
#[test]
fn predecoded_image_matches_compiled_program() {
    for w in [suite::vectoradd(), suite::reduction(), pressured_workload()] {
        let ck = compile_full(&w);
        let pd = PredecodedKernel::new(&ck);
        let program = ck.kernel();
        assert_eq!(pd.len(), program.len(), "{}: item count", w.name());
        assert_eq!(pd.is_empty(), program.items().is_empty());
        for (pc, item) in program.items().iter().enumerate() {
            match (item, pd.item(pc)) {
                (ProgItem::Pir(p), PdItem::Pir { release_count }) => {
                    assert_eq!(usize::from(*release_count), p.release_count());
                }
                (ProgItem::Pbr(p), PdItem::Pbr { lo, hi }) => {
                    assert_eq!(pd.pbr_regs(*lo, *hi), p.regs());
                }
                (ProgItem::Instr(i), PdItem::Instr(d)) => {
                    assert_eq!(d.opcode, i.opcode);
                    assert_eq!(d.dst, i.dst);
                    assert_eq!(d.pdst, i.pdst);
                    assert_eq!(d.psrc, i.psrc);
                    assert_eq!(d.guard, i.guard);
                    assert_eq!(d.mem_offset, i.mem_offset);
                    assert_eq!(d.srcs(), &i.srcs[..]);
                    assert_eq!(d.target as usize, i.target.unwrap_or(0));
                    assert_eq!(d.reconv, ck.reconv_at(pc).flatten().unwrap_or(NO_RECONV));
                    assert_eq!(d.flags, ck.flags_at(pc));
                    let mut mask = 0u64;
                    for r in i.reads() {
                        mask |= 1 << r.index();
                    }
                    if let Some(dst) = i.dst {
                        mask |= 1 << dst.index();
                    }
                    assert_eq!(d.hazard_mask, mask, "pc {pc}");
                    for (slot, r) in d.src_regs() {
                        assert_eq!(i.srcs[slot].reg(), Some(r));
                    }
                }
                (want, got) => panic!("{}: pc {pc}: {want:?} became {got:?}", w.name()),
            }
        }
    }
}

/// Runs `kernel` under the threaded-code execution plan and under the
/// reference interpreter, asserting the two engines are bit-identical
/// in every observable: statistics, final memories, trace events, and
/// serialized Chrome JSON. Returns the plan-engine run.
fn assert_plan_matches_interpreter(
    kernel: &CompiledKernel,
    config: &SimConfig,
    label: &str,
) -> TracedRun {
    let init = init_words();
    let mut plan_cfg = *config;
    plan_cfg.reference_interpreter = false;
    let mut int_cfg = *config;
    int_cfg.reference_interpreter = true;

    let plan = simulate_traced_with_init(kernel, &plan_cfg, &init, 1 << 20).unwrap();
    let intp = simulate_traced_with_init(kernel, &int_cfg, &init, 1 << 20).unwrap();

    assert_eq!(plan.result.cycles, intp.result.cycles, "{label}: cycles");
    assert_eq!(plan.result.per_sm, intp.result.per_sm, "{label}: stats");
    assert_eq!(
        plan.result.memories, intp.result.memories,
        "{label}: memories"
    );
    assert_eq!(plan.events, intp.events, "{label}: events");
    assert_eq!(
        chrome_json(&plan.events),
        chrome_json(&intp.events),
        "{label}: Chrome JSON"
    );
    plan
}

/// The execution plan vs the interpreter on the four machine policies
/// across streaming, reduction (barriers), and divergence workloads.
#[test]
fn plan_engine_matches_interpreter_all_policies() {
    for w in [suite::vectoradd(), suite::reduction(), suite::bfs()] {
        let machines = [
            Machine::Conventional,
            Machine::Full128,
            Machine::Shrink64,
            Machine::HardwareOnly,
        ];
        for m in machines {
            let ck = m.compile(&w);
            let label = format!("plan/{:?}/{}", m, w.name());
            assert_plan_matches_interpreter(&ck, &m.config(), &label);
        }
    }
}

/// Both GPU-shrink points under register pressure (spill/swap/throttle
/// machinery), and a sharded multi-SM run: the hardest stateful paths
/// for handler-level equivalence.
#[test]
fn plan_engine_matches_interpreter_under_pressure_and_multi_sm() {
    let w = pressured_workload();
    let ck = compile_full(&w);
    for pct in [50, 40] {
        let run = assert_plan_matches_interpreter(
            &ck,
            &SimConfig::gpu_shrink(pct),
            &format!("plan/shrink{pct}"),
        );
        assert!(run.result.cycles > 0, "shrink{pct} must simulate");
    }

    let wv = suite::vectoradd();
    let ckv = compile_full(&wv);
    let mut config = SimConfig::baseline_full();
    config.num_sms = 4;
    config.sm_jobs = Some(1);
    assert_plan_matches_interpreter(&ckv, &config, "plan/multi-sm");
}

/// Fault injection draws from the same RNG stream in both engines, and
/// the sanitizer's Recover path (detection → CTA quarantine → squash)
/// must fire identically: same detections, same quarantined CTAs, same
/// squash traces. At least one seed must actually quarantine, or the
/// test is vacuous.
#[test]
fn plan_engine_matches_interpreter_under_recover_faults() {
    let w = pressured_workload();
    let ck = compile_full(&w);
    let mut quarantines = 0u64;
    for seed in [3u64, 11, 29] {
        let mut cfg = SimConfig::gpu_shrink(50);
        cfg.faults = FaultPlan::parse("all:2", seed).expect("spec parses");
        cfg.sanitize = SanitizeLevel::Recover;
        let run = assert_plan_matches_interpreter(&ck, &cfg, &format!("plan/recover/seed{seed}"));
        for s in &run.result.per_sm {
            quarantines += s.quarantined_ctas;
        }
    }
    assert!(
        quarantines > 0,
        "no seed quarantined a CTA; the Recover differential exercised nothing"
    );
}

/// Checkpoints carry engine-independent architectural state: a
/// snapshot taken mid-run on one engine must resume on the *other*
/// engine to an end state bit-identical to an uninterrupted run.
/// The checkpoint interval is a prime, so slice boundaries land at
/// ragged cycles relative to warp issue.
#[test]
fn checkpoints_resume_bit_identically_across_engines() {
    let w = pressured_workload();
    let ck = compile_full(&w);
    let base = SimConfig::gpu_shrink(50);

    for (take_ref, resume_ref) in [(false, true), (true, false)] {
        let mut take_cfg = base;
        take_cfg.reference_interpreter = take_ref;
        let mut resume_cfg = base;
        resume_cfg.reference_interpreter = resume_ref;
        let label = format!("take_ref={take_ref}→resume_ref={resume_ref}");

        let uninterrupted = simulate_traced_with_init(&ck, &take_cfg, &init_words(), 1 << 20)
            .expect("baseline runs");
        let mut checkpoints: Vec<Checkpoint> = Vec::new();
        let every = (uninterrupted.result.cycles / 7).max(1) | 1;
        let checkpointed =
            simulate_traced_checkpointed(&ck, &take_cfg, &init_words(), 1 << 20, every, &mut |c| {
                checkpoints.push(c.clone());
                Ok(())
            })
            .expect("checkpointed run completes");
        assert_eq!(
            checkpointed.result.per_sm, uninterrupted.result.per_sm,
            "{label}: checkpointing perturbed the run"
        );
        assert!(checkpoints.len() >= 3, "{label}: want several boundaries");

        for c in &checkpoints {
            let resumed = simulate_resumable_traced(&ck, &resume_cfg, c)
                .unwrap_or_else(|e| panic!("{label}: resume at cycle {} failed: {e}", c.cycle));
            assert_eq!(
                resumed.result.per_sm, uninterrupted.result.per_sm,
                "{label}: stats after resume at cycle {}",
                c.cycle
            );
            assert_eq!(
                resumed.result.memories, uninterrupted.result.memories,
                "{label}: memories after resume at cycle {}",
                c.cycle
            );
            assert_eq!(
                resumed.events, uninterrupted.events,
                "{label}: events after resume at cycle {}",
                c.cycle
            );
        }
    }
}

fn arb_params() -> impl Strategy<Value = SynthParams> {
    (
        6u8..=63,      // regs — up to the renaming ceiling
        0u32..10,      // loop trips
        any::<bool>(), // divergent loop
        any::<bool>(), // diamond
        0u8..=3,       // mem ops
        1u32..=4,      // ctas
        prop_oneof![Just(32u32), Just(64), Just(128)],
        1u32..=3, // conc ctas
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
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Any synthesizable kernel shape produces bit-identical stats and
    /// memories on both engines under all four machine policies.
    #[test]
    fn random_kernels_identical_on_both_engines(p in arb_params()) {
        let w = Workload {
            paper: PaperGeometry {
                name: "synth-prop",
                ctas: p.ctas,
                threads_per_cta: p.threads_per_cta,
                regs_per_kernel: p.regs as usize,
                conc_ctas: p.conc_ctas,
            },
            kernel: synth(p),
        };
        let machines = [
            Machine::Conventional,
            Machine::Full128,
            Machine::Shrink64,
            Machine::HardwareOnly,
        ];
        for m in machines {
            let ck = m.compile(&w);
            let mut plan_cfg = m.config();
            plan_cfg.reference_interpreter = false;
            let mut int_cfg = m.config();
            int_cfg.reference_interpreter = true;
            let plan = simulate(&ck, &plan_cfg).expect("plan engine runs");
            let intp = simulate(&ck, &int_cfg).expect("interpreter runs");
            prop_assert_eq!(&plan.per_sm, &intp.per_sm, "{:?}: stats", m);
            prop_assert_eq!(&plan.memories, &intp.memories, "{:?}: memories", m);
        }
    }
}
