//! The golden run corpus's rows and how one row is run.
//!
//! `runs.txt` holds one line per row, in the order [`rows`] builds
//! them. `tests/golden_corpus.rs` checks the whole file;
//! `tests/engine_equivalence.rs` checks the rows that replaced its
//! two-engine comparisons.

use std::sync::Arc;

use rfv_bench::harness::Machine;
use rfv_faults::splitmix64;
use rfv_sim::{simulate_traced, FaultPlan, SanitizeLevel, SimConfig};
use rfv_trace::wire::fnv1a;
use rfv_trace::Enc;
use rfv_workloads::validate::{init_words_for, standard_init};
use rfv_workloads::{suite, synth, PaperGeometry, SynthParams, Workload};

/// The committed corpus.
pub const GOLDEN: &str = include_str!("runs.txt");

/// Trace ring per SM for the suite and ablation rows: it pins the head
/// of every trace while bounding the longest run (MatrixMul at shrink
/// 75).
const SUITE_TRACE: usize = 1 << 16;

/// Trace ring for the differential and synth rows, whose whole trace
/// fits and is pinned.
const FULL_TRACE: usize = 1 << 20;

/// One corpus row: `workload` compiled for `binary`'s machine, run
/// under `config` from global memory `init`.
pub struct Row {
    pub label: String,
    workload: Arc<Workload>,
    binary: Machine,
    pub config: SimConfig,
    init: Arc<[(u64, u32)]>,
    trace_capacity: usize,
}

/// Every corpus row, in the committed file's order.
pub fn rows() -> Vec<Row> {
    let mut rows = Vec::new();
    suite_rows(&mut rows);
    ablation_rows(&mut rows);
    differential_rows(&mut rows);
    synth_rows(&mut rows);
    rows
}

/// A row's corpus line, and the CTAs its run quarantined.
pub fn run_row(row: &Row) -> (String, u64) {
    let kernel = row.binary.compile(&row.workload);
    let run = simulate_traced(&kernel, &row.config, &row.init, row.trace_capacity)
        .unwrap_or_else(|e| panic!("{}: {e}", row.label));
    let mut stats = Enc::new();
    let mut mem = Enc::new();
    for (s, m) in run.result.per_sm.iter().zip(&run.result.memories) {
        s.encode(&mut stats);
        m.encode(&mut mem);
    }
    let trace = rfv_trace::chrome::write_trace(Vec::new(), &run.events).expect("in-memory write");
    let line = format!(
        "{} cycles={} instrs={} stats={:016x} mem={:016x} trace={:016x}",
        row.label,
        run.result.cycles,
        run.result.total(|s| s.instrs_issued),
        fnv1a(stats.bytes()),
        fnv1a(mem.bytes()),
        fnv1a(&trace),
    );
    (line, run.result.total(|s| s.quarantined_ctas))
}

/// Shrink 50 under the sanitizer's Recover path with two faults of
/// every kind.
fn recover_faults(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::gpu_shrink(50);
    cfg.faults = FaultPlan::parse("all:2", seed).expect("spec parses");
    cfg.sanitize = SanitizeLevel::Recover;
    cfg
}

const MACHINES: [(Machine, &str); 4] = [
    (Machine::Conventional, "conventional"),
    (Machine::Full128, "full"),
    (Machine::Shrink64, "shrink50"),
    (Machine::HardwareOnly, "hwonly"),
];

/// The 16 workloads on their validators' inputs, each under the four
/// machines on their own binaries and four more configurations on the
/// full binary.
fn suite_rows(rows: &mut Vec<Row>) {
    let mut four_sms = SimConfig::baseline_full();
    four_sms.num_sms = 4;
    let extra = [
        ("shrink60", SimConfig::gpu_shrink(60)),
        ("shrink75", SimConfig::gpu_shrink(75)),
        ("recover50", recover_faults(3)),
        ("full-4sm", four_sms),
    ];
    for w in suite::all() {
        let init: Arc<[_]> = standard_init(init_words_for(&w)).into();
        let w = Arc::new(w);
        let runs = MACHINES
            .iter()
            .map(|&(m, name)| (m, name, m.config()))
            .chain(extra.iter().map(|&(name, c)| (Machine::Full128, name, c)));
        for (binary, name, config) in runs {
            rows.push(Row {
                label: format!("{}/{name}", w.name()),
                workload: Arc::clone(&w),
                binary,
                config,
                init: Arc::clone(&init),
                trace_capacity: SUITE_TRACE,
            });
        }
    }
}

/// The settings of `figures all`'s ablations and Figures 2 and 8, on
/// the ablations' pressure subset, run as the figures run them: with no
/// pre-loaded memory.
fn ablation_rows(rows: &mut Vec<Row>) {
    let full = SimConfig::baseline_full;
    let mut settings = [
        ("shrink75-nobank", SimConfig::gpu_shrink(75)),
        ("flagcache0", full()),
        ("flagcache5", full()),
        ("ready2", full()),
        ("norename", full()),
        ("shrink50-nogate", SimConfig::gpu_shrink(50)),
        ("full-reg0-snap", full()),
    ];
    settings[0].1.regfile.bank_preserving = false;
    settings[1].1.regfile.flag_cache_entries = 0;
    settings[2].1.regfile.flag_cache_entries = 5;
    settings[3].1.ready_queue = 2;
    settings[4].1.rename_extra_cycle = false;
    settings[5].1.regfile.power_gating = false;
    settings[6].1.trace_warp0_regs = true;
    settings[6].1.snapshot_at_cycle = Some(1_000);
    for w in rfv_bench::ablations::pressure_subset() {
        let w = Arc::new(w);
        for &(name, config) in &settings {
            rows.push(Row {
                label: format!("{}/{name}", w.name()),
                workload: Arc::clone(&w),
                binary: Machine::Full128,
                config,
                init: Arc::new([]),
                trace_capacity: SUITE_TRACE,
            });
        }
    }
}

/// A register-hungry multi-CTA kernel that drives the GPU-shrink
/// throttle and its spill/swap machinery.
pub fn pressured_workload() -> Workload {
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
    synth_workload("synth-pressure", p)
}

fn synth_workload(name: &'static str, p: SynthParams) -> Workload {
    Workload {
        paper: PaperGeometry {
            name,
            ctas: p.ctas,
            threads_per_cta: p.threads_per_cta,
            regs_per_kernel: p.regs as usize,
            conc_ctas: p.conc_ctas,
        },
        kernel: synth(p),
    }
}

/// Fixed inputs for the hardest stateful paths: both shrink points
/// under pressure, the Recover path under faults on three seeds, and
/// a sequential four-SM run.
fn differential_rows(rows: &mut Vec<Row>) {
    let init: Arc<[_]> = (0..256).map(|i| (i * 4, (i * 37) as u32)).collect();
    let pressured = Arc::new(pressured_workload());
    let mut runs = vec![
        ("shrink50".to_string(), SimConfig::gpu_shrink(50)),
        ("shrink40".to_string(), SimConfig::gpu_shrink(40)),
    ];
    for seed in [3, 11, 29] {
        runs.push((format!("recover50-seed{seed}"), recover_faults(seed)));
    }
    for (name, config) in runs {
        rows.push(Row {
            label: format!("synth-pressure/{name}"),
            workload: Arc::clone(&pressured),
            binary: Machine::Full128,
            config,
            init: Arc::clone(&init),
            trace_capacity: FULL_TRACE,
        });
    }
    let mut config = SimConfig::baseline_full();
    config.num_sms = 4;
    config.sm_jobs = Some(1);
    rows.push(Row {
        label: "VectorAdd/full-4sm-seq".into(),
        workload: Arc::new(suite::vectoradd()),
        binary: Machine::Full128,
        config,
        init,
        trace_capacity: FULL_TRACE,
    });
}

/// 24 synth shapes drawn by splitmix64 from the generator's domain,
/// each under the four machines.
fn synth_rows(rows: &mut Vec<Row>) {
    let mut state = 0x5eed_c0de;
    let mut draw = |n: u64| splitmix64(&mut state) % n;
    for _ in 0..24 {
        let p = SynthParams {
            regs: 6 + draw(58) as u8,
            loop_trips: draw(10) as u32,
            divergent_loop: draw(2) == 1,
            diamond: draw(2) == 1,
            mem_ops: draw(4) as u8,
            ctas: 1 + draw(4) as u32,
            threads_per_cta: [32, 64, 128][draw(3) as usize],
            conc_ctas: 1 + draw(3) as u32,
        };
        let shape = format!(
            "synth:regs={},trips={},div={},diamond={},mem={},ctas={},tpc={},conc={}",
            p.regs,
            p.loop_trips,
            u8::from(p.divergent_loop),
            u8::from(p.diamond),
            p.mem_ops,
            p.ctas,
            p.threads_per_cta,
            p.conc_ctas,
        );
        let w = Arc::new(synth_workload("synth", p));
        for (m, name) in MACHINES {
            rows.push(Row {
                label: format!("{shape}/{name}"),
                workload: Arc::clone(&w),
                binary: m,
                config: m.config(),
                init: Arc::new([]),
                trace_capacity: FULL_TRACE,
            });
        }
    }
}
