//! Measures the cost of the tracing instrumentation on the simulator
//! hot path. Acceptance bar: with tracing *disabled* (`Sink::Noop`,
//! the default) a run through the traced entry point must cost within
//! 2% of a plain [`simulate`] run on a Table 1 workload.
//!
//! Run with `cargo bench --bench trace_overhead`. Prints median
//! wall-time per full simulation of the workload for:
//!
//! * `simulate` — the plain entry point (no trace capacity, no
//!   pre-loads);
//! * `noop`  — [`simulate_traced`] with capacity 0, tracing disabled
//!   (what every non-`--trace` run pays);
//! * `ring`  — tracing enabled into a bounded in-memory ring, the
//!   `--trace` configuration (reported for context, no bar applied).
//!
//! Every sample is a full, unmemoized simulation (predecode included).
//! Each round runs all three, forward on even rounds and reversed on
//! odd ones. The bar applies to the median of each round's
//! `noop / simulate` ratio: the pair runs back to back in alternating
//! order, so drift in the host's speed falls on both sides instead of
//! on whichever ran second.

use std::time::Instant;

use rfv_bench::harness::Machine;
use rfv_sim::{simulate, simulate_traced};
use rfv_workloads::by_name;

const SAMPLES: usize = 100;
const WARM_UP: usize = 3;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Wall times in nanoseconds of `SAMPLES` rounds of each of `fs`, one
/// vector per closure, run forward on even rounds and reversed on odd
/// ones.
fn interleaved_ns(fs: &mut [&mut dyn FnMut()]) -> Vec<Vec<f64>> {
    for _ in 0..WARM_UP {
        for f in fs.iter_mut() {
            f();
        }
    }
    let mut times = vec![Vec::with_capacity(SAMPLES); fs.len()];
    for round in 0..SAMPLES {
        let mut order: Vec<usize> = (0..fs.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let t = Instant::now();
            fs[i]();
            times[i].push(t.elapsed().as_nanos() as f64);
        }
    }
    times
}

fn main() {
    let workload = by_name("BackProp").expect("Table 1 workload exists");
    let machine = Machine::Full128;
    let kernel = machine.compile(&workload);
    let config = machine.config();

    let times = interleaved_ns(&mut [
        &mut || {
            let r = simulate(&kernel, &config).expect("simulation succeeds");
            std::hint::black_box(r.cycles);
        },
        // same workload through the traced entry point with tracing
        // off — the path every run without `--trace` takes
        &mut || {
            let r = simulate_traced(&kernel, &config, &[], 0).expect("simulation succeeds");
            std::hint::black_box(r.result.cycles);
        },
        // tracing on: bounded ring capture (the --trace configuration)
        &mut || {
            let r = simulate_traced(&kernel, &config, &[], 1 << 16).expect("simulation succeeds");
            std::hint::black_box((r.result.cycles, r.events.len()));
        },
    ]);
    let ratios = times[0].iter().zip(&times[1]).map(|(p, n)| n / p).collect();
    let noop_vs_plain = median(ratios) - 1.0;
    let [plain, noop, ring] = [0, 1, 2].map(|i| median(times[i].clone()));
    let ring_vs_noop = ring / noop - 1.0;

    println!("workload         : BackProp (Table 1), machine full128");
    println!("simulate         : {plain:.0} ns/run");
    println!(
        "noop sink        : {noop:.0} ns/run ({:+.2}% vs simulate, median paired ratio)",
        100.0 * noop_vs_plain
    );
    println!(
        "ring sink (64Ki) : {ring:.0} ns/run ({:+.2}% vs noop)",
        100.0 * ring_vs_noop
    );

    // the bar: disabled tracing must be free (<2%)
    assert!(
        noop_vs_plain < 0.02,
        "disabled-tracing overhead {:.2}% exceeds the 2% budget",
        100.0 * noop_vs_plain
    );
    println!("PASS: disabled-tracing overhead within 2% budget");
}
