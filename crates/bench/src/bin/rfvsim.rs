//! `rfvsim` — run a Table 1 benchmark or a kernel written in assembly
//! text on the simulated GPU and print a full report.
//!
//! ```text
//! rfvsim MatrixMul
//! rfvsim MUM --machine shrink50
//! rfvsim my_kernel.asm --launch 8,128,4 --machine shrink75 --sms 4
//! rfvsim Heartwall --compare
//! rfvsim BackProp --trace trace.json --stats-json stats.json
//! ```
//!
//! Machines: `conventional` (128 KB, no virtualization), `full`
//! (128 KB + renaming + power gating, the default), `shrink50` /
//! `shrink60` / `shrink75` (under-provisioned files), `hwonly` (the
//! \[46\] hardware-only renaming baseline).
//!
//! Tracing and metrics flags:
//!
//! * `--trace <out.json>` — record structured events (register
//!   allocate/release/rename, flag-cache probes, throttle decisions,
//!   power gating, scheduler issue/stall, memory lifecycle) and write
//!   them as Chrome trace-event JSON, loadable in Perfetto or
//!   `chrome://tracing`. One track per (SM, warp).
//! * `--trace-capacity <N>` — per-SM event ring capacity (default
//!   1048576; the oldest-first ring drops the tail beyond this).
//! * `--stats-json <out.json>` — write the end-of-run counters,
//!   derived gauges, and occupancy histograms as JSON.
//!
//! Robustness flags:
//!
//! * `--sanitize off|check|recover` — online register-file sanitizer
//!   level: `check` aborts with a structured unsoundness report (exit
//!   code 3), `recover` quarantines the offending CTA and finishes
//!   the kernel.
//! * `--inject KIND:N[,KIND:N...]` — seeded fault-injection plan
//!   (e.g. `premature-release:2` or `all:1`); `--seed <n>` picks the
//!   deterministic placement stream (default 0). Active settings are
//!   echoed in every report header.
//!
//! Checkpoint/resume flags:
//!
//! * `--checkpoint-every <CYCLES>` — snapshot the whole machine at
//!   every CYCLES-cycle boundary into `--ckpt-dir` (default `.`).
//!   Files are written atomically (`*.rfvckpt.tmp` then rename), so a
//!   crash mid-write always leaves the previous checkpoint valid.
//! * `--resume <PATH>` — restore a checkpoint file and run it to
//!   completion; the final report, stats, and trace tail are
//!   bit-identical to the uninterrupted run. Corrupt, truncated, or
//!   version-mismatched files are rejected with an ordinary error.
//! * `--max-cycles <N>` — override the watchdog cycle budget. When
//!   the watchdog aborts a `--stats-json` run, the per-warp
//!   diagnostic (pc/status/outstanding) is written to the stats path
//!   instead of the normal counters.
//!
//! `rfvsim --probe-shrink WORKLOAD [PCT]` prints the GPU-shrink
//! diagnostic probe (compile stats, conventional cycles, shrink
//! pressure counters) and exits.
//!
//! With `--compare`, the machine label is inserted before the file
//! extension (`trace.json` → `trace.full.json`). The compared
//! machines run concurrently on the job pool and multi-SM
//! simulations shard SMs across worker threads; `--jobs N` bounds
//! both (default: `RFV_JOBS` or the machine's available parallelism,
//! `--jobs 1` forces fully sequential execution). Results are
//! bit-identical at every job count.

use std::env;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::exit;

use std::path::Path;

use rfv_bench::harness::{compile_full, compile_plain, machine_config, rf_activity, Machine};
use rfv_bench::pool;
use rfv_compiler::CompiledKernel;
use rfv_faults::{FaultKind, Kind};
use rfv_power::model::{energy, RfGeometry};
use rfv_sim::{
    simulate, simulate_traced, simulate_traced_checkpointed, Checkpoint, FaultPlan, SanitizeLevel,
    SimConfig, SimError, SimResult, SlicedSim, TracedRun, WatchdogSnapshot,
};
use rfv_trace::{MetricsRegistry, TraceEvent};
use rfv_workloads::{suite, PaperGeometry, Workload};

struct Options {
    target: String,
    machine: String,
    sms: usize,
    jobs: Option<usize>,
    launch: Option<(u32, u32, u32)>,
    compare: bool,
    trace: Option<String>,
    trace_capacity: usize,
    stats_json: Option<String>,
    sanitize: SanitizeLevel,
    inject: Option<String>,
    seed: u64,
    checkpoint_every: Option<u64>,
    ckpt_dir: String,
    resume: Option<String>,
    max_cycles: Option<u64>,
}

fn usage() -> ! {
    usage_error("")
}

fn usage_error(error: &str) -> ! {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!(
        "usage: rfvsim <benchmark|file.asm> [--machine conventional|full|shrink50|shrink60|shrink75|hwonly]\n\
         \x20             [--sms N] [--jobs N] [--launch CTAS,THREADS,CONC] [--compare]\n\
         \x20             [--trace out.json] [--trace-capacity N] [--stats-json out.json]\n\
         \x20             [--sanitize off|check|recover] [--inject KIND:N[,KIND:N...]] [--seed N]\n\
         \x20             [--checkpoint-every CYCLES] [--ckpt-dir DIR] [--resume PATH]\n\
         \x20             [--max-cycles N]\n\
         \x20      rfvsim --probe-shrink WORKLOAD [PCT]\n\
         fault kinds: {} all\n\
         benchmarks: {}",
        FaultKind::ALL.map(FaultKind::name).join(" "),
        suite::all()
            .iter()
            .map(Workload::name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    exit(2)
}

fn parse_args() -> Options {
    let mut args = env::args().skip(1);
    let Some(target) = args.next() else { usage() };
    if target == "--probe-shrink" {
        probe_shrink(args);
    }
    let mut opts = Options {
        target,
        machine: "full".into(),
        sms: 1,
        jobs: None,
        launch: None,
        compare: false,
        trace: None,
        trace_capacity: 1 << 20,
        stats_json: None,
        sanitize: SanitizeLevel::Off,
        inject: None,
        seed: 0,
        checkpoint_every: None,
        ckpt_dir: ".".into(),
        resume: None,
        max_cycles: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--machine" => opts.machine = args.next().unwrap_or_else(|| usage()),
            "--sms" => {
                opts.sms = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--jobs" => {
                opts.jobs = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--launch" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let parts: Vec<u32> = spec.split(',').filter_map(|p| p.parse().ok()).collect();
                if parts.len() != 3 {
                    usage();
                }
                opts.launch = Some((parts[0], parts[1], parts[2]));
            }
            "--compare" => opts.compare = true,
            "--trace" => opts.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--trace-capacity" => {
                opts.trace_capacity = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--stats-json" => opts.stats_json = Some(args.next().unwrap_or_else(|| usage())),
            "--sanitize" => {
                opts.sanitize = args
                    .next()
                    .and_then(|s| SanitizeLevel::parse(&s))
                    .unwrap_or_else(|| usage())
            }
            "--inject" => opts.inject = Some(args.next().unwrap_or_else(|| usage())),
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .unwrap_or_else(|| {
                            usage_error("--checkpoint-every needs a positive cycle count")
                        }),
                )
            }
            "--ckpt-dir" => {
                opts.ckpt_dir = args
                    .next()
                    .unwrap_or_else(|| usage_error("--ckpt-dir needs a directory"))
            }
            "--resume" => {
                opts.resume = Some(
                    args.next()
                        .unwrap_or_else(|| usage_error("--resume needs a checkpoint path")),
                )
            }
            "--max-cycles" => {
                opts.max_cycles = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n: &u64| n > 0)
                        .unwrap_or_else(|| usage_error("--max-cycles needs a positive integer")),
                )
            }
            other => usage_error(&format!("unknown flag `{other}`")),
        }
    }
    if opts.compare && (opts.checkpoint_every.is_some() || opts.resume.is_some()) {
        usage_error("--compare cannot be combined with --checkpoint-every or --resume");
    }
    if opts.checkpoint_every.is_some() && opts.resume.is_some() {
        usage_error("--checkpoint-every and --resume are mutually exclusive");
    }
    opts
}

/// `rfvsim --probe-shrink WORKLOAD [PCT]`: the GPU-shrink diagnostic
/// probe (formerly the `debug_shrink` binary), with proper errors
/// instead of panics on unknown workloads or malformed percentages.
fn probe_shrink(mut args: impl Iterator<Item = String>) -> ! {
    let Some(name) = args.next() else {
        usage_error("--probe-shrink needs a workload name")
    };
    let pct = match args.next() {
        None => 50,
        Some(s) => s
            .parse::<usize>()
            .ok()
            .filter(|p| (1..=99).contains(p))
            .unwrap_or_else(|| {
                usage_error(&format!(
                    "--probe-shrink PCT must be a percentage in 1..=99, got `{s}`"
                ))
            }),
    };
    if let Some(stray) = args.next() {
        usage_error(&format!("unexpected argument `{stray}` after PCT"));
    }
    let Some(w) = suite::by_name(&name) else {
        usage_error(&format!("unknown benchmark `{name}`"))
    };
    let ck = compile_full(&w);
    println!(
        "{}: regs {}, exempt {}, renamed {}",
        w.name(),
        w.kernel.num_regs(),
        ck.stats().num_exempt,
        ck.stats().num_renamed
    );
    let base = Machine::Conventional.run(&w);
    println!("conventional: {} cycles", base.cycles);
    let mut cfg = SimConfig::gpu_shrink(pct);
    cfg.max_cycles = 3_000_000;
    match simulate(&ck, &cfg) {
        Ok(r) => {
            let s = r.sm0();
            println!(
                "shrink{pct}: {} cycles, stalls {}, throttled {}, swaps {}, ctas {}, bank conflicts {}",
                r.cycles,
                s.no_reg_stalls,
                s.throttle_restricted_cycles,
                s.swap_outs,
                s.ctas_completed,
                s.bank_conflicts
            );
            exit(0)
        }
        Err(e) => {
            eprintln!("shrink{pct}: simulation failed: {e}");
            exit(1)
        }
    }
}

/// Atomically persists one checkpoint: write the bytes to a `.tmp`
/// sibling, then rename into place. A crash at any point leaves every
/// previously-renamed checkpoint untouched and at worst an orphaned
/// `.tmp` that loading code never considers.
fn write_checkpoint(dir: &Path, ck: &Checkpoint) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let name = format!("ckpt-{:012}.rfvckpt", ck.cycle);
    let tmp = dir.join(format!("{name}.tmp"));
    let done = dir.join(&name);
    std::fs::write(&tmp, ck.to_bytes()).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &done).map_err(|e| format!("rename {}: {e}", done.display()))?;
    eprintln!("[ckpt] cycle {} -> {}", ck.cycle, done.display());
    Ok(())
}

/// Loads and validates a checkpoint file for `--resume`.
fn load_checkpoint(path: &str) -> Result<Checkpoint, SimError> {
    let bytes = std::fs::read(path)
        .map_err(|e| SimError::BadCheckpoint(format!("cannot read {path}: {e}")))?;
    Checkpoint::from_bytes(&bytes)
}

/// When the watchdog aborts a `--stats-json` run, the artifact carries
/// the per-warp diagnostic instead of final counters, so the stall can
/// be analyzed from the JSON alone.
fn write_watchdog_json(path: &str, limit: u64, snapshot: &WatchdogSnapshot) {
    let mut m = MetricsRegistry::new();
    m.add("watchdog.limit_cycles", limit);
    m.add("watchdog.cycle", snapshot.cycle);
    m.add("watchdog.live_regs", snapshot.live_regs as u64);
    m.add("watchdog.warps", snapshot.warps.len() as u64);
    for w in &snapshot.warps {
        let p = format!("watchdog.warp.{:03}", w.slot);
        if let Some(pc) = w.pc {
            m.add(&format!("{p}.pc"), pc as u64);
        }
        m.add(&format!("{p}.status.{}", w.status), 1);
        m.add(&format!("{p}.outstanding"), w.outstanding);
        m.add(&format!("{p}.cta_slot"), w.cta_slot as u64);
        m.add(&format!("{p}.next_issue_at"), w.next_issue_at);
        m.add(&format!("{p}.mapped"), w.mapped as u64);
    }
    let file = File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        exit(1)
    });
    let mut w = BufWriter::new(file);
    w.write_all(m.to_json().as_bytes())
        .and_then(|()| w.flush())
        .unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        });
    eprintln!("[watchdog] per-warp diagnostic -> {path}");
}

fn load_workload(opts: &Options) -> Workload {
    if let Some(w) = suite::by_name(&opts.target) {
        return w;
    }
    if opts.target.ends_with(".asm") {
        let text = std::fs::read_to_string(&opts.target).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", opts.target);
            exit(1)
        });
        let (ctas, threads, conc) = opts.launch.unwrap_or((4, 128, 4));
        let launch = rfv_isa::LaunchConfig::new(ctas, threads, conc);
        let kernel =
            rfv_isa::parse_kernel(opts.target.clone(), &text, launch).unwrap_or_else(|e| {
                eprintln!("parse error: {e}");
                exit(1)
            });
        return Workload {
            paper: PaperGeometry {
                name: "custom",
                ctas,
                threads_per_cta: threads,
                regs_per_kernel: kernel.num_regs(),
                conc_ctas: conc,
            },
            kernel,
        };
    }
    eprintln!("unknown benchmark `{}` (and not an .asm file)", opts.target);
    usage()
}

fn report(label: &str, ck: &CompiledKernel, cfg: &SimConfig, result: &SimResult) {
    let s = result.sm0();
    println!("== {label} ==");
    println!(
        "  machine      : {} KB file, policy {}, {} SM(s), power gating {}",
        cfg.regfile.size_kib(),
        cfg.regfile.policy,
        cfg.num_sms,
        if cfg.regfile.power_gating {
            "on"
        } else {
            "off"
        }
    );
    if cfg.sanitize.is_on() || !cfg.faults.is_empty() {
        println!(
            "  robustness   : sanitizer {}, fault plan {} (seed {})",
            cfg.sanitize,
            cfg.faults.summary(),
            cfg.faults.seed
        );
    }
    println!(
        "  compile      : {} instrs + {} pir + {} pbr ({:.1}% static growth), {} renamed / {} exempt regs, throttle bound {}/warp",
        ck.stats().machine_instrs,
        ck.stats().num_pir,
        ck.stats().num_pbr,
        ck.stats().static_increase_pct,
        ck.stats().num_renamed,
        ck.stats().num_exempt,
        ck.max_held_per_warp(),
    );
    println!(
        "  time         : {} cycles, IPC {:.2}, SIMD efficiency {:.2}",
        result.cycles,
        s.ipc(),
        s.simd_efficiency()
    );
    println!(
        "  registers    : peak live {}, allocs {}, early releases {}, alloc stalls {}, throttled cycles {}, swaps {}",
        s.regfile.peak_live,
        s.regfile.allocs,
        s.regfile.releases,
        s.no_reg_stalls,
        s.throttle_restricted_cycles,
        s.swap_outs
    );
    println!(
        "  memory       : {} transactions, {} MSHR merges, {} bank conflicts",
        s.mem_txns, s.mshr_merges, s.bank_conflicts
    );
    println!(
        "  flag cache   : {} probes, {:.1}% hit rate, {} metadata decoded ({:.2}% dynamic growth)",
        s.flag_cache.probes(),
        100.0 * s.flag_cache.hit_rate(),
        s.meta_decoded,
        s.dynamic_increase_pct()
    );
    let geometry = if cfg.regfile.policy.renames() {
        RfGeometry::virtualized(cfg.regfile.size_kib() as f64 / 128.0)
    } else {
        RfGeometry::conventional()
    };
    let e = energy(&rf_activity(s), &geometry);
    println!(
        "  RF energy    : {:.1} nJ = dyn {:.1} + static {:.1} + rename {:.1} + flags {:.1}",
        e.total_pj() / 1000.0,
        e.dynamic_pj / 1000.0,
        e.static_pj / 1000.0,
        e.renaming_pj / 1000.0,
        e.flag_pj / 1000.0
    );
}

/// `base` with `label` inserted before the extension, when several
/// machines write to the same flag (`--compare`).
fn out_path(base: &str, label: &str, multiple: bool) -> String {
    if !multiple {
        return base.to_string();
    }
    match base.rsplit_once('.') {
        Some((stem, ext)) => format!("{stem}.{label}.{ext}"),
        None => format!("{base}.{label}"),
    }
}

fn write_chrome_trace(path: &str, events: &[TraceEvent]) {
    let file = File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        exit(1)
    });
    let mut w = BufWriter::new(file);
    rfv_trace::chrome::write_trace(&mut w, events).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        exit(1)
    });
    println!("  trace        : {} events -> {path}", events.len());
}

fn write_stats_json(path: &str, run: &TracedRun, cfg: &SimConfig) {
    let mut m = run.result.sm0().to_metrics();
    m.add("gpu.cycles", run.result.cycles);
    m.add("gpu.sms", cfg.num_sms as u64);
    // robustness settings ride along so the artifact is self-describing
    m.add("config.sanitize_level", cfg.sanitize as u64);
    if !cfg.faults.is_empty() {
        m.add("config.fault_seed", cfg.faults.seed);
        for k in FaultKind::ALL {
            let planned = cfg.faults.count(k);
            if planned > 0 {
                m.add(
                    &format!("config.faults_planned.{}", k.name()),
                    planned.into(),
                );
            }
        }
    }
    for e in &run.events {
        m.record_event(e);
    }
    let file = File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        exit(1)
    });
    let mut w = BufWriter::new(file);
    w.write_all(m.to_json().as_bytes())
        .and_then(|()| w.flush())
        .unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        });
    println!("  stats        : -> {path}");
}

fn main() {
    let opts = parse_args();
    if let Some(n) = opts.jobs {
        pool::set_jobs(n);
    }
    let faults = match &opts.inject {
        Some(spec) => FaultPlan::parse(spec, opts.seed).unwrap_or_else(|e| {
            eprintln!("bad --inject spec: {e}");
            exit(2)
        }),
        None => FaultPlan::none(),
    };
    let apply = |c: &mut SimConfig| {
        c.num_sms = opts.sms.max(1);
        c.sm_jobs = opts.jobs;
        c.sanitize = opts.sanitize;
        c.faults = faults;
        if let Some(n) = opts.max_cycles {
            c.max_cycles = n;
        }
    };
    let Some(mut cfg) = machine_config(&opts.machine) else {
        usage()
    };
    apply(&mut cfg);
    let w = load_workload(&opts);

    let machines: Vec<(&str, SimConfig)> = if opts.compare {
        ["conventional", "full", "shrink50", "hwonly"]
            .into_iter()
            .map(|m| {
                let mut c = machine_config(m).expect("known machine");
                apply(&mut c);
                (m, c)
            })
            .collect()
    } else {
        vec![(opts.machine.as_str(), cfg)]
    };
    // validate every configuration up front: a malformed machine must
    // die here as a usage error, not as a worker panic mid-sweep
    for (label, cfg) in &machines {
        if let Err(e) = cfg.validate() {
            usage_error(&format!("invalid configuration for `{label}`: {e}"));
        }
    }
    let multiple = machines.len() > 1;
    let capacity = if opts.trace.is_some() || opts.stats_json.is_some() {
        opts.trace_capacity
    } else {
        0
    };

    // fan the machines across the job pool, then print in the fixed
    // machine order so `--compare` output is stable (checkpoint and
    // resume runs are single-machine: --compare rejects both flags)
    let runs = pool::par_map(&machines, |(label, cfg)| {
        let ck = if cfg.regfile.policy.uses_release_flags() {
            compile_full(&w)
        } else {
            compile_plain(&w)
        };
        let run = if let Some(path) = &opts.resume {
            load_checkpoint(path).and_then(|c| SlicedSim::resume(&ck, cfg, &c)?.finish())
        } else if let Some(every) = opts.checkpoint_every {
            let dir = std::path::PathBuf::from(&opts.ckpt_dir);
            simulate_traced_checkpointed(&ck, cfg, &[], capacity, every, &mut |c| {
                write_checkpoint(&dir, c)
            })
        } else {
            simulate_traced(&ck, cfg, &[], capacity)
        };
        (*label, *cfg, ck, run)
    });
    for (label, cfg, ck, run) in runs {
        match run {
            Ok(run) => {
                report(label, &ck, &cfg, &run.result);
                if let Some(base) = &opts.trace {
                    write_chrome_trace(&out_path(base, label, multiple), &run.events);
                }
                if let Some(base) = &opts.stats_json {
                    write_stats_json(&out_path(base, label, multiple), &run, &cfg);
                }
            }
            Err(e) => {
                // a watchdog abort still produces a stats artifact: the
                // per-warp diagnostic replaces the final counters
                if let (SimError::Watchdog { cycles, snapshot }, Some(base)) =
                    (&e, &opts.stats_json)
                {
                    write_watchdog_json(&out_path(base, label, multiple), *cycles, snapshot);
                }
                // a sanitizer detection under --sanitize check is the
                // expected outcome of a fault-injection run, not an
                // internal failure — give it its own exit code
                let code = if matches!(e, SimError::Unsound { .. }) {
                    3
                } else {
                    1
                };
                eprintln!("{label}: simulation failed: {e}");
                exit(code);
            }
        }
    }
}
