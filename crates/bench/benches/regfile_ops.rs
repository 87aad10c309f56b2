//! Micro-benchmarks of the register-file hot path the engine overhaul
//! targets: word-level bitset allocation/release and renaming-table
//! lookups, plus the combined `RegisterFile` write/release cycle the
//! simulator drives per instruction.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use rfv_core::{Availability, RegFileConfig, RegisterFile, RenamingTable};
use rfv_isa::{ArchReg, BankId, PhysReg, NUM_REG_BANKS};

fn group(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("regfile_ops");
    g.sample_size(30);
    g.measurement_time(Duration::from_secs(4));
    g.warm_up_time(Duration::from_secs(1));
    g
}

/// Bitset allocator churn: fill one bank-preserving working set,
/// release every other register, refill — the fragmentation pattern
/// early release produces.
fn bench_availability_churn(c: &mut Criterion) {
    let mut g = group(c);
    for (label, config) in [
        ("alloc_release_baseline", RegFileConfig::baseline_full()),
        ("alloc_release_shrunk40", RegFileConfig::shrunk(40)),
    ] {
        g.bench_function(label, |b| {
            let mut a = Availability::new(&config);
            b.iter(|| {
                let mut held = Vec::with_capacity(256);
                for i in 0..256 {
                    match a.alloc_in_bank(BankId::new(i % NUM_REG_BANKS)) {
                        Some(p) => held.push(p),
                        None => break,
                    }
                }
                for (i, &p) in held.iter().enumerate() {
                    if i % 2 == 0 {
                        black_box(a.free(p));
                    }
                }
                for i in 0..held.len() / 2 {
                    black_box(a.alloc_in_bank(BankId::new(i % NUM_REG_BANKS)));
                }
                for (i, &p) in held.iter().enumerate() {
                    if i % 2 != 0 {
                        black_box(a.free(p));
                    }
                }
                a = Availability::new(&config);
            })
        });
    }
    g.finish();
}

/// Renaming-table lookups at full warp occupancy (the per-operand
/// hot-path read).
fn bench_renaming_lookup(c: &mut Criterion) {
    let mut g = group(c);
    g.bench_function("renaming_lookup_48_warps", |b| {
        let mut t = RenamingTable::new(48);
        for w in 0..48 {
            for r in 0..8u8 {
                t.map(
                    w,
                    ArchReg::new(r),
                    PhysReg::new((w * 8 + r as usize) as u16),
                );
            }
        }
        b.iter(|| {
            for w in 0..48 {
                for r in 0..8u8 {
                    black_box(t.lookup(w, ArchReg::new(r)));
                }
            }
        })
    });
    g.finish();
}

/// The full write-then-release register lifecycle through
/// `RegisterFile` (renaming + bitset + gating bookkeeping together),
/// as the issue engine's register stage drives it.
fn bench_regfile_write_release(c: &mut Criterion) {
    let mut g = group(c);
    g.bench_function("regfile_write_release_cycle", |b| {
        let mut rf = RegisterFile::new(RegFileConfig::baseline_full(), 48).unwrap();
        let mut now = 0u64;
        b.iter(|| {
            for w in 0..48 {
                for r in 0..4u8 {
                    black_box(rf.write(w, ArchReg::new(r), now));
                }
            }
            now += 1;
            for w in 0..48 {
                for r in 0..4u8 {
                    black_box(rf.release(w, ArchReg::new(r), now));
                }
            }
            now += 1;
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_availability_churn,
    bench_renaming_lookup,
    bench_regfile_write_release
);
criterion_main!(benches);
