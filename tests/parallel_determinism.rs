//! Differential tests for parallel execution: threaded SM execution
//! and the bench job pool must be *bit-identical* to sequential runs
//! — same statistics, same memories, same Chrome trace JSON, same
//! table rows.

use rfv_bench::figures;
use rfv_bench::harness::compile_full;
use rfv_bench::pool;
use rfv_compiler::CompiledKernel;
use rfv_sim::{simulate_traced, Checkpoint, SimConfig, SimError, SimResult, SlicedSim, TracedRun};
use rfv_trace::TraceEvent;
use rfv_workloads::{suite, synth, PaperGeometry, SynthParams, Workload};

fn chrome_json(events: &[TraceEvent]) -> String {
    let out = rfv_trace::chrome::write_trace(Vec::new(), events).expect("in-memory write");
    String::from_utf8(out).expect("chrome trace is utf-8")
}

/// A multi-CTA synthetic workload that keeps several SMs busy.
fn multi_cta_workload() -> Workload {
    let p = SynthParams {
        regs: 24,
        loop_trips: 6,
        divergent_loop: true,
        diamond: true,
        mem_ops: 2,
        ctas: 12,
        threads_per_cta: 128,
        conc_ctas: 2,
    };
    Workload {
        paper: PaperGeometry {
            name: "synth-multi-cta",
            ctas: p.ctas,
            threads_per_cta: p.threads_per_cta,
            regs_per_kernel: 24,
            conc_ctas: p.conc_ctas,
        },
        kernel: synth(p),
    }
}

fn init_words() -> Vec<(u64, u32)> {
    (0..256).map(|i| (i * 4, (i * 31) as u32)).collect()
}

fn untraced(ck: &CompiledKernel, cfg: &SimConfig, init: &[(u64, u32)]) -> SimResult {
    simulate_traced(ck, cfg, init, 0).unwrap().result
}

/// A traced run of `cycles` cycles driven through
/// [`SlicedSim::advance`] in slices of about a twentieth of the run
/// and, once past halfway, round-tripped through checkpoint bytes and
/// [`SlicedSim::resume`] before being driven to the end.
fn sliced_with_resume(
    ck: &CompiledKernel,
    cfg: &SimConfig,
    init: &[(u64, u32)],
    cycles: u64,
) -> TracedRun {
    let slice = (cycles / 20).max(1);
    let mut sim = SlicedSim::new(ck, cfg, init, 1 << 20).unwrap();
    while sim.cycle() < cycles / 2 {
        assert!(!sim.advance(slice).unwrap(), "halfway lies inside the run");
    }
    let bytes = sim.checkpoint().to_bytes();
    drop(sim);
    let checkpoint = Checkpoint::from_bytes(&bytes).unwrap();
    let mut sim = SlicedSim::resume(ck, cfg, &checkpoint).unwrap();
    while !sim.advance(slice).unwrap() {}
    sim.finish().unwrap()
}

/// The tentpole guarantee: a 4-SM run with SMs sharded across worker
/// threads produces exactly the statistics, memories, trace events,
/// and Chrome JSON of the sequential run — whether it runs in one
/// round or in sliced rounds interrupted by a checkpoint and resume,
/// at either worker count.
#[test]
fn parallel_sms_bit_identical_to_sequential() {
    for w in [multi_cta_workload(), suite::vectoradd()] {
        let ck = compile_full(&w);
        let mut seq_cfg = SimConfig::baseline_full();
        seq_cfg.num_sms = 4;
        seq_cfg.sm_jobs = Some(1);
        let mut par_cfg = seq_cfg;
        par_cfg.sm_jobs = Some(4);
        let init = init_words();

        let traced = |cfg: &SimConfig| simulate_traced(&ck, cfg, &init, 1 << 20).unwrap();
        let seq = traced(&seq_cfg);
        assert!(!seq.events.is_empty(), "{} must trace events", w.name());
        let want_chrome = chrome_json(&seq.events);
        let sliced = |cfg: &SimConfig| sliced_with_resume(&ck, cfg, &init, seq.result.cycles);
        for (how, run) in [
            ("parallel", traced(&par_cfg)),
            ("sliced sequential", sliced(&seq_cfg)),
            ("sliced parallel", sliced(&par_cfg)),
        ] {
            let label = format!("{} {how}", w.name());
            assert_eq!(seq.result.cycles, run.result.cycles, "{label}");
            assert_eq!(seq.result.per_sm, run.result.per_sm, "{label}");
            assert_eq!(seq.result.memories, run.result.memories, "{label}");
            assert_eq!(seq.events, run.events, "{label}");
            assert_eq!(
                want_chrome,
                chrome_json(&run.events),
                "{label} Chrome JSON must be byte-identical"
            );
        }
    }
}

/// Untraced runs go through the same sharded path; check them too.
#[test]
fn untraced_parallel_matches_sequential() {
    let w = multi_cta_workload();
    let ck = compile_full(&w);
    let mut seq_cfg = SimConfig::gpu_shrink(50);
    seq_cfg.num_sms = 4;
    seq_cfg.sm_jobs = Some(1);
    let mut par_cfg = seq_cfg;
    par_cfg.sm_jobs = Some(4);
    let init = init_words();
    let seq = untraced(&ck, &seq_cfg, &init);
    let par = untraced(&ck, &par_cfg, &init);
    assert_eq!(seq.cycles, par.cycles);
    assert_eq!(seq.per_sm, par.per_sm);
    assert_eq!(seq.memories, par.memories);
}

/// A zero-SM configuration must be rejected with a proper error at
/// simulation entry, not panic deep in CTA distribution or reporting.
#[test]
fn zero_sm_config_is_a_bad_config_error() {
    let w = suite::vectoradd();
    let ck = compile_full(&w);
    let mut cfg = SimConfig::baseline_full();
    cfg.num_sms = 0;
    match simulate_traced(&ck, &cfg, &[], 0) {
        Err(SimError::BadConfig(msg)) => {
            assert!(msg.contains("positive"), "unexpected message: {msg}")
        }
        other => panic!("expected BadConfig, got {other:?}"),
    }
    let mut cfg = SimConfig::baseline_full();
    cfg.sm_jobs = Some(0);
    assert!(matches!(
        simulate_traced(&ck, &cfg, &[], 0),
        Err(SimError::BadConfig(_))
    ));
}

/// Worker threads are spawned once into the process-wide pool and
/// reused: repeated multi-SM parallel runs must not grow the process
/// thread count (per-run thread churn was the old behaviour).
#[test]
fn repeated_parallel_runs_keep_a_flat_thread_count() {
    // counts live `rfv-pool-*` workers via procfs, so the assertion is
    // immune to the test harness's own thread churn
    fn pool_thread_count() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .filter_map(|t| {
                let comm = t.ok()?.path().join("comm");
                std::fs::read_to_string(comm).ok()
            })
            .filter(|name| name.starts_with("rfv-pool"))
            .count()
    }

    let w = multi_cta_workload();
    let ck = compile_full(&w);
    let mut cfg = SimConfig::baseline_full();
    cfg.num_sms = 4;
    cfg.sm_jobs = Some(4);
    let init = init_words();

    // warm-up: first parallel run populates the persistent pool
    let first = untraced(&ck, &cfg, &init);
    let warm = pool_thread_count();
    assert!(warm > 0, "parallel run must have spawned pool workers");
    for _ in 0..8 {
        let again = untraced(&ck, &cfg, &init);
        assert_eq!(first.per_sm, again.per_sm, "reruns must be deterministic");
        let now = pool_thread_count();
        assert_eq!(
            now, warm,
            "pool thread count grew from {warm} to {now}: workers are not being reused"
        );
    }
}

/// The bench job pool must not change any table row: `fig10` (which
/// feeds the figures binary and its CSVs) is replayed serially and
/// with four workers.
#[test]
fn job_pool_rows_identical_across_job_counts() {
    let ws = vec![suite::vectoradd(), suite::reduction()];
    pool::set_jobs(1);
    let serial = figures::fig10(&ws);
    pool::set_jobs(4);
    let parallel = figures::fig10(&ws);
    pool::set_jobs(1);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name, "row order must be stable");
        assert_eq!(s.alloc, p.alloc);
        assert_eq!(s.peak_live, p.peak_live);
        assert_eq!(s.reduction_pct.to_bits(), p.reduction_pct.to_bits());
    }
}
