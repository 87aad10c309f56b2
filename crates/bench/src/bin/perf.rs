//! Engine perf-trajectory harness: times the cycle engine on the
//! figure workloads under all four machine policies and prints a
//! JSON report (see `rfv_bench::perf`) to stdout, or writes it to
//! `--out PATH`; the per-machine summary lines go to stderr.
//!
//! ```text
//! cargo run --release -p rfv-bench --bin perf > /tmp/perf.json
//! cargo run --release -p rfv-bench --bin perf -- --quick --out /tmp/perf.json
//! cargo run --release -p rfv-bench --bin perf -- --repeat 5 \
//!     --sweep-before 6.608 --sweep-after 3.899
//! ```
//!
//! `--quick` measures a reduced workload set (the CI smoke
//! configuration); `--sweep-before/--sweep-after` record an
//! end-to-end `figures all` wall-time comparison in the report.

use std::env;
use std::process::exit;

use rfv_bench::perf;

fn usage(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!(
        "usage: perf [--quick] [--repeat N] [--out PATH] [--sweep-before S --sweep-after S]\n\
         \x20           [--baseline FILE [--max-regress PCT]]\n\
         \x20 --quick           reduced workload set (CI smoke)\n\
         \x20 --repeat N        timed runs per (workload, policy); best kept (default 3)\n\
         \x20 --out PATH        report destination (default: stdout)\n\
         \x20 --sweep-before S  record a figures-sweep wall time before the overhaul, seconds\n\
         \x20 --sweep-after S   record the matching wall time after, seconds\n\
         \x20 --baseline FILE   rfv-perf-v1 report to gate against: exit 1 when any\n\
         \x20                   policy's wall time regresses past --max-regress\n\
         \x20 --max-regress PCT allowed regression percentage (default 50)"
    );
    exit(2);
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    args.remove(pos);
    if pos >= args.len() {
        usage(&format!("{flag} needs an operand"));
    }
    Some(args.remove(pos))
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let pos = args.iter().position(|a| a == flag);
    if let Some(pos) = pos {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn parse_secs(flag: &str, v: &str) -> f64 {
    match v.parse::<f64>() {
        Ok(x) if x > 0.0 && x.is_finite() => x,
        _ => usage(&format!("{flag} needs a positive number, got `{v}`")),
    }
}

fn main() {
    let mut args: Vec<String> = env::args().skip(1).collect();
    let quick = take_switch(&mut args, "--quick");
    let repeat = match take_flag(&mut args, "--repeat") {
        Some(n) => match n.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => usage(&format!("--repeat needs a positive integer, got `{n}`")),
        },
        None => 3,
    };
    let out = take_flag(&mut args, "--out");
    let before = take_flag(&mut args, "--sweep-before").map(|v| parse_secs("--sweep-before", &v));
    let after = take_flag(&mut args, "--sweep-after").map(|v| parse_secs("--sweep-after", &v));
    let sweep = match (before, after) {
        (Some(before_s), Some(after_s)) => Some(perf::SweepRecord { before_s, after_s }),
        (None, None) => None,
        _ => usage("--sweep-before and --sweep-after must be given together"),
    };
    let baseline_path = take_flag(&mut args, "--baseline");
    let max_regress = match take_flag(&mut args, "--max-regress") {
        Some(v) => {
            if baseline_path.is_none() {
                usage("--max-regress needs --baseline");
            }
            match v.parse::<f64>() {
                Ok(x) if x >= 0.0 && x.is_finite() => x,
                _ => usage(&format!(
                    "--max-regress needs a non-negative number, got `{v}`"
                )),
            }
        }
        None => 50.0,
    };
    let baseline = baseline_path.map(|path| {
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read baseline {path}: {e}");
            exit(2);
        });
        match perf::parse_baseline(&json) {
            Ok(b) => (path, b),
            Err(e) => {
                eprintln!("error: baseline {path}: {e}");
                exit(2);
            }
        }
    });
    if !args.is_empty() {
        usage(&format!("unknown argument `{}`", args[0]));
    }

    let report = perf::run(quick, repeat);
    for p in &report {
        eprintln!(
            "{:22} {:>9.3} s total, {:>13} cycles, {:>12.0} cycles/s",
            p.machine,
            p.total_wall_s(),
            p.total_cycles(),
            p.cycles_per_sec()
        );
    }
    let json = perf::to_json(&report, quick, repeat, sweep);
    match out {
        Some(out) => {
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("error: cannot write {out}: {e}");
                exit(1);
            }
            eprintln!("wrote {out}");
        }
        None => print!("{json}"),
    }
    if let Some((path, baseline)) = baseline {
        let violations = perf::regressions(&report, &baseline, max_regress);
        if violations.is_empty() {
            eprintln!("perf gate: within {max_regress}% of {path}");
        } else {
            for v in &violations {
                eprintln!("perf gate FAILED: {v}");
            }
            exit(1);
        }
    }
}
