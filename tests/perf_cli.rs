//! The `perf` binary's output contract: without `--out` the report
//! goes to stdout, so running it from the repository root never
//! replaces a committed `BENCH_*.json` baseline.

use std::fs;
use std::process::Command;

use rfv_bench::perf::parse_baseline;

#[test]
fn report_goes_to_stdout_without_out() {
    let dir = std::env::temp_dir().join(format!("rfv-perf-cli-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let sentinel = dir.join("BENCH_PR4.json");
    fs::write(&sentinel, "sentinel").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--quick", "--repeat", "1"])
        .current_dir(&dir)
        .output()
        .expect("perf runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(fs::read_to_string(&sentinel).unwrap(), "sentinel");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let report = parse_baseline(&stdout).expect("stdout is an rfv-perf-v1 report");
    assert_eq!(report.machines.len(), 4);
    fs::remove_dir_all(&dir).unwrap();
}
