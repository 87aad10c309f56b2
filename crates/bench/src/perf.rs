//! Perf-trajectory harness: wall-clock measurements of the cycle
//! engine itself, as opposed to the *simulated* results everything
//! else in this crate reports.
//!
//! [`run`] executes the figure workloads under all four machine
//! policies ([`Machine`]), timing each simulation and recording
//! simulated cycles, issued instructions, and the engine's
//! cycles-per-second throughput. [`to_json`] renders the report as
//! JSON (schema `rfv-perf-v1`) so successive commits can track engine
//! performance over time — the `perf` binary prints it to stdout, or
//! writes it to `--out PATH`.
//!
//! Wall-clock numbers are machine-dependent; `cycles` and `instrs`
//! are bit-deterministic and double as a cheap cross-check that a
//! perf-motivated change did not alter simulated behaviour.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rfv_sim::SlicedSim;
use rfv_trace::json::Value;

use crate::figures::full_suite;
use crate::harness::Machine;

/// Workloads measured in `--quick` mode (CI smoke): enough to touch
/// every policy's interesting paths without a full sweep.
const QUICK_WORKLOADS: usize = 4;

/// One (workload, policy) measurement.
#[derive(Clone, Debug)]
pub struct WorkloadPerf {
    /// Workload name (Table 1 row).
    pub name: &'static str,
    /// Simulated GPU cycles (slowest SM).
    pub cycles: u64,
    /// Instructions issued, summed over SMs.
    pub instrs: u64,
    /// Best wall time over the configured repeats, seconds.
    pub wall_s: f64,
}

impl WorkloadPerf {
    /// Engine throughput in simulated cycles per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.cycles as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// All workload measurements under one machine policy.
#[derive(Clone, Debug)]
pub struct PolicyPerf {
    /// Policy name (JSON key style).
    pub machine: &'static str,
    /// Per-workload rows, suite order.
    pub rows: Vec<WorkloadPerf>,
}

impl PolicyPerf {
    /// Summed best wall time, seconds.
    pub fn total_wall_s(&self) -> f64 {
        self.rows.iter().map(|r| r.wall_s).sum()
    }

    /// Summed simulated cycles.
    pub fn total_cycles(&self) -> u64 {
        self.rows.iter().map(|r| r.cycles).sum()
    }

    /// Aggregate engine throughput, simulated cycles per second.
    pub fn cycles_per_sec(&self) -> f64 {
        let wall = self.total_wall_s();
        if wall > 0.0 {
            self.total_cycles() as f64 / wall
        } else {
            0.0
        }
    }
}

/// The four measured machine policies with their JSON names.
pub const MACHINES: [(Machine, &str); 4] = [
    (Machine::Conventional, "conventional"),
    (Machine::Full128, "full_virtualization"),
    (Machine::Shrink64, "gpu_shrink_50"),
    (Machine::HardwareOnly, "hardware_only"),
];

/// Runs the harness: every suite workload (or the first
/// [`QUICK_WORKLOADS`] under `quick`) under all four policies,
/// `repeat` timed runs each (the best is kept — the engine is
/// deterministic, so variance is scheduler noise, not workload
/// noise). Compilation happens outside the timed region.
pub fn run(quick: bool, repeat: usize) -> Vec<PolicyPerf> {
    let mut suite = full_suite();
    if quick {
        suite.truncate(QUICK_WORKLOADS);
    }
    let repeat = repeat.max(1);
    MACHINES
        .iter()
        .map(|&(machine, name)| {
            let rows = suite
                .iter()
                .map(|w| {
                    // the cached kernel is compiled, predecoded and
                    // plan-lowered already, and the timed region calls
                    // the simulator directly rather than the harness's
                    // result cache: it repeats only the simulation
                    let kernel = machine.compile(w);
                    let config = machine.config();
                    let mut best = f64::INFINITY;
                    let mut cycles = 0;
                    let mut instrs = 0;
                    for _ in 0..repeat {
                        let t0 = Instant::now();
                        let prog = Arc::clone(&kernel.predecoded);
                        let result = SlicedSim::with_predecoded(&kernel, &config, &[], 0, prog)
                            .and_then(SlicedSim::finish)
                            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
                            .result;
                        let wall = t0.elapsed().as_secs_f64();
                        best = best.min(wall);
                        cycles = result.cycles;
                        instrs = result.per_sm.iter().map(|s| s.instrs_issued).sum();
                    }
                    WorkloadPerf {
                        name: w.name(),
                        cycles,
                        instrs,
                        wall_s: best,
                    }
                })
                .collect();
            PolicyPerf {
                machine: name,
                rows,
            }
        })
        .collect()
}

/// An end-to-end `figures all` sweep measurement recorded alongside
/// the per-workload data (the PR's before/after wall times).
#[derive(Clone, Copy, Debug)]
pub struct SweepRecord {
    /// Wall seconds before the engine overhaul.
    pub before_s: f64,
    /// Wall seconds after.
    pub after_s: f64,
}

impl SweepRecord {
    /// `before / after` speedup.
    pub fn speedup(&self) -> f64 {
        if self.after_s > 0.0 {
            self.before_s / self.after_s
        } else {
            0.0
        }
    }
}

/// Renders the report as JSON (schema `rfv-perf-v1`).
pub fn to_json(
    policies: &[PolicyPerf],
    quick: bool,
    repeat: usize,
    sweep: Option<SweepRecord>,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"rfv-perf-v1\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"repeat\": {repeat},");
    if let Some(rec) = sweep {
        let _ = writeln!(s, "  \"figures_sweep\": {{");
        let _ = writeln!(s, "    \"before_s\": {:.3},", rec.before_s);
        let _ = writeln!(s, "    \"after_s\": {:.3},", rec.after_s);
        let _ = writeln!(s, "    \"speedup\": {:.3}", rec.speedup());
        let _ = writeln!(s, "  }},");
    }
    let _ = writeln!(s, "  \"policies\": [");
    for (pi, p) in policies.iter().enumerate() {
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"machine\": \"{}\",", p.machine);
        let _ = writeln!(s, "      \"total_wall_s\": {:.6},", p.total_wall_s());
        let _ = writeln!(s, "      \"total_cycles\": {},", p.total_cycles());
        let _ = writeln!(s, "      \"cycles_per_sec\": {:.1},", p.cycles_per_sec());
        let _ = writeln!(s, "      \"workloads\": [");
        for (ri, r) in p.rows.iter().enumerate() {
            let comma = if ri + 1 == p.rows.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "        {{\"name\": \"{}\", \"cycles\": {}, \"instrs\": {}, \
                 \"wall_s\": {:.6}, \"cycles_per_sec\": {:.1}}}{comma}",
                r.name,
                r.cycles,
                r.instrs,
                r.wall_s,
                r.cycles_per_sec()
            );
        }
        let _ = writeln!(s, "      ]");
        let comma = if pi + 1 == policies.len() { "" } else { "," };
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

// ------------------------------------------------- regression gating

/// Per-machine workload wall times parsed back out of an
/// `rfv-perf-v1` report — the baseline side of the CI regression
/// gate.
#[derive(Clone, Debug, Default)]
pub struct BaselineReport {
    /// `(machine, [(workload, wall_s)])` in report order.
    pub machines: Vec<(String, Vec<(String, f64)>)>,
}

/// Parses an `rfv-perf-v1` report's machine/workload wall times.
///
/// # Errors
///
/// Rejects input that is not JSON, reports without the `rfv-perf-v1`
/// schema marker or with no machine sections, and machines or
/// workloads without a name or a finite, non-negative `wall_s`
/// (anything else in the file is ignored — the gate only needs the
/// wall times).
pub fn parse_baseline(json: &str) -> Result<BaselineReport, String> {
    let doc = rfv_trace::json::parse(json)?;
    if doc.get("schema").and_then(Value::as_str) != Some("rfv-perf-v1") {
        return Err("not an rfv-perf-v1 report".into());
    }
    fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
        v.get(key).and_then(Value::as_arr).unwrap_or_default()
    }
    let name = |v: &Value, key| v.get(key).and_then(Value::as_str).map(str::to_string);
    let mut report = BaselineReport::default();
    for policy in array(&doc, "policies") {
        let machine = name(policy, "machine").ok_or("policy without a machine name")?;
        let mut rows = Vec::new();
        for w in array(policy, "workloads") {
            let workload = name(w, "name").ok_or("workload without a name")?;
            let wall = w
                .get("wall_s")
                .and_then(Value::as_num)
                .filter(|s| s.is_finite() && *s >= 0.0)
                .ok_or_else(|| format!("bad wall_s for workload `{workload}`"))?;
            rows.push((workload, wall));
        }
        report.machines.push((machine, rows));
    }
    if report.machines.is_empty() {
        return Err("report contains no machine sections".into());
    }
    Ok(report)
}

/// Compares a fresh report against a baseline, returning one message
/// per machine whose wall time regressed by more than
/// `max_regress_pct` percent. Totals are summed over the workloads
/// present in *both* reports, so a `--quick` run gates correctly
/// against a full baseline. Empty means the gate passes.
pub fn regressions(
    current: &[PolicyPerf],
    baseline: &BaselineReport,
    max_regress_pct: f64,
) -> Vec<String> {
    let mut msgs = Vec::new();
    for p in current {
        let Some((_, base_rows)) = baseline.machines.iter().find(|(m, _)| m == p.machine) else {
            continue;
        };
        let mut base_sum = 0.0;
        let mut cur_sum = 0.0;
        for r in &p.rows {
            if let Some((_, wall)) = base_rows.iter().find(|(n, _)| n == r.name) {
                base_sum += wall;
                cur_sum += r.wall_s;
            }
        }
        if base_sum <= 0.0 {
            continue;
        }
        let pct = (cur_sum - base_sum) / base_sum * 100.0;
        if pct > max_regress_pct {
            msgs.push(format!(
                "{}: {cur_sum:.3}s vs baseline {base_sum:.3}s (+{pct:.1}% > {max_regress_pct:.1}%)",
                p.machine
            ));
        }
    }
    msgs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_all_policies() {
        let report = run(true, 1);
        assert_eq!(report.len(), 4);
        for p in &report {
            assert_eq!(p.rows.len(), QUICK_WORKLOADS);
            assert!(p.total_cycles() > 0);
            assert!(p.rows.iter().all(|r| r.instrs > 0));
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let report = run(true, 1);
        let json = to_json(
            &report,
            true,
            1,
            Some(SweepRecord {
                before_s: 2.0,
                after_s: 1.0,
            }),
        );
        assert!(json.contains("\"schema\": \"rfv-perf-v1\""));
        assert!(json.contains("\"speedup\": 2.000"));
        assert_eq!(json.matches("\"machine\"").count(), 4);
        // balanced braces / brackets (hand-rolled writer)
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// A tiny report: one machine, two workloads with the given times.
    fn fake_policy(machine: &'static str, walls: &[(&'static str, f64)]) -> PolicyPerf {
        PolicyPerf {
            machine,
            rows: walls
                .iter()
                .map(|&(name, wall_s)| WorkloadPerf {
                    name,
                    cycles: 100,
                    instrs: 10,
                    wall_s,
                })
                .collect(),
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let report = vec![
            fake_policy("conventional", &[("mm", 1.5), ("stencil", 0.5)]),
            fake_policy("full_virtualization", &[("mm", 2.0), ("stencil", 1.0)]),
        ];
        let json = to_json(&report, false, 3, None);
        let parsed = parse_baseline(&json).expect("writer output parses");
        assert_eq!(parsed.machines.len(), 2);
        assert_eq!(parsed.machines[0].0, "conventional");
        assert_eq!(
            parsed.machines[0].1,
            vec![("mm".into(), 1.5), ("stencil".into(), 0.5)]
        );
        // identical report → no regression at any threshold
        assert!(regressions(&report, &parsed, 0.0).is_empty());
    }

    #[test]
    fn gate_flags_only_past_threshold_regressions() {
        let baseline_report = vec![fake_policy(
            "conventional",
            &[("mm", 1.0), ("stencil", 1.0)],
        )];
        let baseline = parse_baseline(&to_json(&baseline_report, false, 3, None)).unwrap();
        // 50% slower on the common workloads
        let current = vec![fake_policy(
            "conventional",
            &[("mm", 1.5), ("stencil", 1.5)],
        )];
        assert!(regressions(&current, &baseline, 60.0).is_empty());
        let flagged = regressions(&current, &baseline, 25.0);
        assert_eq!(flagged.len(), 1);
        assert!(flagged[0].starts_with("conventional:"), "{}", flagged[0]);
        // unknown machines and workloads are ignored, not flagged
        let unknown = vec![fake_policy("gpu_shrink_50", &[("mm", 9.0)])];
        assert!(regressions(&unknown, &baseline, 0.0).is_empty());
        let disjoint = vec![fake_policy("conventional", &[("other", 9.0)])];
        assert!(regressions(&disjoint, &baseline, 0.0).is_empty());
    }

    #[test]
    fn baseline_parser_rejects_foreign_json() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"schema\": \"rfv-perf-v1\"}").is_err());
    }
    #[test]
    fn committed_baselines_parse_minified_or_not() {
        for json in [
            include_str!("../../../BENCH_PR4.json"),
            include_str!("../../../BENCH_PR9.json"),
        ] {
            let report = parse_baseline(json).expect("committed baseline parses");
            assert_eq!(report.machines.len(), 4);
            assert!(report.machines.iter().all(|(_, rows)| rows.len() == 16));
            // no name in a report holds whitespace, so dropping all of
            // it minifies the document without changing its values
            let minified: String = json.split_whitespace().collect();
            let again = parse_baseline(&minified).expect("minified baseline parses");
            assert_eq!(again.machines, report.machines);
        }
    }

    #[test]
    fn baseline_parser_rejects_malformed_workloads() {
        let json = to_json(
            &[fake_policy("conventional", &[("mm", 1.5)])],
            false,
            1,
            None,
        );
        assert!(parse_baseline(&json).is_ok());
        let wall = json.replace("\"wall_s\": 1.500000", "\"wall_s\": \"fast\"");
        assert_ne!(wall, json);
        assert!(parse_baseline(&wall).is_err());
        let nameless = json.replace("\"name\": \"mm\", ", "");
        assert_ne!(nameless, json);
        assert!(parse_baseline(&nameless).is_err());
    }
}
