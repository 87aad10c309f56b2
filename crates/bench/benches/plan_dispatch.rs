//! Micro-benchmark of the threaded-code issue engine's dispatch: a
//! compute-hot synthetic kernel and the divergent BFS suite workload,
//! simulated end to end. Both spend their cycles in the issue path, so
//! the per-item dispatch cost dominates what this measures.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use rfv_bench::harness::compile_full;
use rfv_sim::{simulate, SimConfig};
use rfv_workloads::{suite, synth, PaperGeometry, SynthParams, Workload};

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("plan_dispatch");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(6));
    g.warm_up_time(Duration::from_secs(1));
    g
}

/// A loop-heavy multi-CTA kernel that spends its cycles in the issue
/// path (the dispatch cost the plan removes), not in memory stalls.
fn hot_workload() -> Workload {
    let p = SynthParams {
        regs: 24,
        loop_trips: 24,
        divergent_loop: true,
        diamond: true,
        mem_ops: 1,
        ctas: 8,
        threads_per_cta: 256,
        conc_ctas: 4,
    };
    Workload {
        paper: PaperGeometry {
            name: "synth-hot",
            ctas: p.ctas,
            threads_per_cta: p.threads_per_cta,
            regs_per_kernel: 24,
            conc_ctas: p.conc_ctas,
        },
        kernel: synth(p),
    }
}

fn bench_dispatch(c: &mut Criterion) {
    let mut g = quick(c);
    let cfg = SimConfig::baseline_full();
    for (name, w) in [("synth_hot", hot_workload()), ("bfs", suite::bfs())] {
        let ck = compile_full(&w);
        g.bench_function(name, |b| {
            b.iter(|| black_box(simulate(&ck, &cfg).expect("simulates").cycles))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
