//! The issue engine against the match-dispatch interpreter it was
//! once checked against, and the predecoded program image against the
//! compiled program.
//!
//! The interpreter is deleted; what it produced is kept as rows of the
//! golden run corpus (`tests/golden/runs.txt`), each of which both
//! engines produced identically when the corpus was committed. The
//! two-engine tests below run their inputs on the issue engine and
//! assert each corpus line byte for byte: cycles, instructions, and
//! the digests of every SM's statistics and memory and of the Chrome
//! trace. `tests/golden_corpus.rs` checks the whole corpus.

#[path = "golden/corpus.rs"]
mod corpus;

use corpus::{pressured_workload, rows, run_row, GOLDEN};
use rfv_bench::harness::compile_full;
use rfv_bench::pool::par_map;
use rfv_isa::kernel::ProgItem;
use rfv_sim::predecode::{PdItem, PredecodedKernel};
use rfv_sim::warp::NO_RECONV;
use rfv_workloads::suite;

/// Predecode is purely representational: every `PdItem` must carry
/// exactly the fields of its `ProgItem`, with release flags,
/// reconvergence PCs, and the scoreboard mask prefetched from the
/// compiled kernel's side tables.
#[test]
fn predecoded_image_matches_compiled_program() {
    for w in [suite::vectoradd(), suite::reduction(), pressured_workload()] {
        let ck = compile_full(&w);
        let pd = PredecodedKernel::new(&ck);
        let program = ck.kernel();
        assert_eq!(pd.len(), program.len(), "{}: item count", w.name());
        assert_eq!(pd.is_empty(), program.items().is_empty());
        for (pc, item) in program.items().iter().enumerate() {
            match (item, pd.item(pc)) {
                (ProgItem::Pir(p), PdItem::Pir { release_count }) => {
                    assert_eq!(usize::from(*release_count), p.release_count());
                }
                (ProgItem::Pbr(p), PdItem::Pbr { lo, hi }) => {
                    assert_eq!(pd.pbr_regs(*lo, *hi), p.regs());
                }
                (ProgItem::Instr(i), PdItem::Instr(d)) => {
                    assert_eq!(d.opcode, i.opcode);
                    assert_eq!(d.dst, i.dst);
                    assert_eq!(d.pdst, i.pdst);
                    assert_eq!(d.psrc, i.psrc);
                    assert_eq!(d.guard, i.guard);
                    assert_eq!(d.mem_offset, i.mem_offset);
                    assert_eq!(d.srcs(), &i.srcs[..]);
                    assert_eq!(d.target as usize, i.target.unwrap_or(0));
                    assert_eq!(d.reconv, ck.reconv_at(pc).flatten().unwrap_or(NO_RECONV));
                    assert_eq!(d.flags, ck.flags_at(pc));
                    let mut mask = 0u64;
                    for r in i.reads() {
                        mask |= 1 << r.index();
                    }
                    if let Some(dst) = i.dst {
                        mask |= 1 << dst.index();
                    }
                    assert_eq!(d.hazard_mask, mask, "pc {pc}");
                    for (slot, r) in d.src_regs() {
                        assert_eq!(i.srcs[slot].reg(), Some(r));
                    }
                }
                (want, got) => panic!("{}: pc {pc}: {want:?} became {got:?}", w.name()),
            }
        }
    }
}

/// Runs the corpus rows whose labels `select` picks on the issue engine
/// and asserts each line equals the committed one, which the
/// interpreter produced identically. `want` is the number of rows the
/// selection must find. Returns the CTAs the runs quarantined.
fn assert_plan_matches_interpreter(select: impl Fn(&str) -> bool, want: usize) -> u64 {
    let rows: Vec<_> = rows().into_iter().filter(|r| select(&r.label)).collect();
    assert_eq!(rows.len(), want, "selected rows");
    let results = par_map(&rows, run_row);
    for (row, (line, _)) in rows.iter().zip(&results) {
        let golden = GOLDEN
            .lines()
            .find(|l| l.split(' ').next() == Some(row.label.as_str()))
            .unwrap_or_else(|| panic!("{} is not in the corpus", row.label));
        assert_eq!(line, golden, "{}", row.label);
    }
    results.iter().map(|&(_, q)| q).sum()
}

/// The four machine policies across streaming, reduction (barriers),
/// and divergence workloads.
#[test]
fn plan_engine_matches_interpreter_all_policies() {
    let labels: Vec<String> = ["VectorAdd", "Reduction", "BFS"]
        .iter()
        .flat_map(|w| {
            ["conventional", "full", "shrink50", "hwonly"]
                .iter()
                .map(move |m| format!("{w}/{m}"))
        })
        .collect();
    assert_plan_matches_interpreter(|l| labels.iter().any(|x| x == l), 12);
}

/// Both GPU-shrink points under register pressure (spill/swap/throttle
/// machinery), and a sequential multi-SM run: the hardest stateful
/// paths for handler-level equivalence.
#[test]
fn plan_engine_matches_interpreter_under_pressure_and_multi_sm() {
    let labels = [
        "synth-pressure/shrink50",
        "synth-pressure/shrink40",
        "VectorAdd/full-4sm-seq",
    ];
    assert_plan_matches_interpreter(|l| labels.contains(&l), 3);
}

/// Fault injection and the sanitizer's Recover path (detection, CTA
/// quarantine, squash) on three seeds. At least one seed must actually
/// quarantine, or the test is vacuous.
#[test]
fn plan_engine_matches_interpreter_under_recover_faults() {
    let labels = [
        "synth-pressure/recover50-seed3",
        "synth-pressure/recover50-seed11",
        "synth-pressure/recover50-seed29",
    ];
    let quarantines = assert_plan_matches_interpreter(|l| labels.contains(&l), 3);
    assert!(
        quarantines > 0,
        "no seed quarantined a CTA; the Recover rows exercised nothing"
    );
}

/// 24 synth shapes drawn from the generator's domain, each under the
/// four machine policies.
#[test]
fn random_kernels_identical_on_both_engines() {
    assert_plan_matches_interpreter(|l| l.starts_with("synth:"), 96);
}
