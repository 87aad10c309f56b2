//! The golden run corpus: the issue engine's reference.
//!
//! `tests/golden/runs.txt` holds one line per simulation run:
//!
//! ```text
//! MatrixMul/shrink75 cycles=N instrs=N stats=… mem=… trace=…
//! ```
//!
//! `cycles` is the GPU's run time and `instrs` the instructions issued
//! over all SMs. The three digests are fnv1a-64 over every SM's
//! `SimStats::encode` (every counter, the full sample timeline, the
//! warp-0 register trace and the Figure 8 snapshot), every SM's
//! `GlobalMemory::encode` (sorted keys, so the bytes are
//! deterministic), and the run's Chrome trace JSON.
//!
//! The rows cover the 16 workloads under the four machines and the
//! deeper, faulted and multi-SM configurations, the ablation settings
//! `figures all` uses, a register-pressure synth kernel under the
//! sanitizer's Recover path, and seeded synth shapes. Every line was
//! first produced identically by the threaded-code plan and by a
//! second, match-dispatch issue engine, which was then deleted.
//!
//! On any difference the test panics naming the first differing row
//! and column, and writes the regenerated corpus to
//! `$CARGO_TARGET_TMPDIR/golden_runs.txt`. Refreshing the corpus means
//! copying that file over the committed one, in a change that says why.

#[path = "golden/corpus.rs"]
mod corpus;

use corpus::{rows, run_row, GOLDEN};
use rfv_bench::pool::par_map;
use rfv_sim::SanitizeLevel;

/// Names a differing row and its first differing column.
fn describe(want: Option<&str>, got: Option<&str>) -> String {
    let label = |line: &str| line.split(' ').next().unwrap_or_default().to_string();
    match (want, got) {
        (Some(w), Some(g)) => {
            let mut columns = w.split(' ').zip(g.split(' ')).enumerate();
            match columns.find(|(_, (a, b))| a != b) {
                Some((0, (a, b))) => format!("label: want {a}, got {b}"),
                Some((_, (a, b))) => {
                    let column = a.split('=').next().unwrap_or(a);
                    format!("{}, column {column}: want {a}, got {b}", label(w))
                }
                None => format!("{}: want {w:?}, got {g:?}", label(w)),
            }
        }
        (Some(w), None) => format!("{} is missing", label(w)),
        (None, Some(g)) => format!("{} is not in the corpus", label(g)),
        (None, None) => unreachable!("only a differing row is described"),
    }
}

#[test]
fn runs_match_the_golden_corpus() {
    let rows = rows();
    let results = par_map(&rows, run_row);

    let quarantined: u64 = rows
        .iter()
        .zip(&results)
        .filter(|(row, _)| row.config.sanitize == SanitizeLevel::Recover)
        .map(|(_, &(_, q))| q)
        .sum();
    assert!(
        quarantined > 0,
        "no Recover row quarantined a CTA; those rows exercise nothing"
    );

    let got: Vec<&str> = results.iter().map(|(line, _)| line.as_str()).collect();
    let want: Vec<&str> = GOLDEN.lines().collect();
    if got != want {
        let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/golden_runs.txt");
        let regenerated: String = got.iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(path, regenerated).expect("write the regenerated corpus");
        let rows = want.len().max(got.len());
        let differs = |i: &usize| want.get(*i) != got.get(*i);
        let first = (0..rows).find(differs).expect("some row differs");
        panic!(
            "golden corpus: {} of {rows} rows differ; the first is row {}, {}; \
             regenerated corpus written to {path}",
            (0..rows).filter(differs).count(),
            first + 1,
            describe(want.get(first).copied(), got.get(first).copied()),
        );
    }
}
