//! The `figures all` sweep from outside: the same public
//! `rfv_bench::{figures, ablations}` calls the `figures` binary makes,
//! with the same arguments and in the same cell order, so the harness
//! memo hits where the real sweep's would. Rendering is left out.

use std::hint::black_box;

use rfv_bench::{ablations, figures};

use crate::spans::span;

/// Runs every cell of `figures all` that calls into the library.
pub fn sweep() {
    rfv_bench::pool::set_jobs(1);
    span("figures.fig1", || {
        for w in figures::fig1_apps() {
            black_box(figures::fig1(&w));
        }
    });
    span("figures.fig2", || black_box(figures::fig2()));
    span("figures.fig7", || black_box(rfv_power::figure7_sweep()));
    span("figures.fig8", || {
        black_box(figures::fig8(&rfv_workloads::suite::matrixmul()))
    });
    span("figures.fig10", || {
        black_box(figures::fig10(&figures::full_suite()))
    });
    span("figures.fig11a", || {
        black_box(figures::fig11a(&figures::full_suite()))
    });
    span("figures.fig11b", || {
        black_box(figures::fig11b(&figures::full_suite()))
    });
    span("figures.fig12", || {
        black_box(figures::fig12(&figures::full_suite()))
    });
    span("figures.fig13", || {
        black_box(figures::fig13(&figures::full_suite()))
    });
    span("figures.fig14", || {
        black_box(figures::fig14(&figures::full_suite()))
    });
    span("figures.fig15", || {
        black_box(figures::fig15(&figures::full_suite()))
    });
    span("figures.ablations", || {
        span("figures.ablations.bank_preservation", || {
            black_box(ablations::bank_preservation(&ablations::pressure_subset()))
        });
        let ws = figures::full_suite();
        span("figures.ablations.flag_cache_sweep", || {
            black_box(ablations::flag_cache_sweep(&ws, &[0, 5, 10, 16, 32]))
        });
        span("figures.ablations.shrink_sweep", || {
            black_box(ablations::shrink_sweep(&ws, &[30, 40, 50, 60, 75]))
        });
        span("figures.ablations.ready_queue_sweep", || {
            black_box(ablations::ready_queue_sweep(&ws, &[2, 4, 6, 8, 12]))
        });
        span("figures.ablations.rename_cycle_cost", || {
            black_box(ablations::rename_cycle_cost(&ws))
        });
    });
}
