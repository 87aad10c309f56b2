//! Tracing integration tests: the structured trace must be a pure
//! observer (identical statistics and outputs with tracing on or off)
//! and its Chrome-JSON export must parse as the trace-event format.

use rfv_compiler::{compile, CompileOptions, CompiledKernel};
use rfv_isa::prelude::*;
use rfv_isa::Special;
use rfv_sim::{simulate_traced, SimConfig};
use rfv_trace::{ChromeWriter, TraceKind};

fn compiled(f: impl FnOnce(&mut KernelBuilder), launch: LaunchConfig) -> CompiledKernel {
    let mut b = KernelBuilder::new("test");
    f(&mut b);
    let kernel = b.build(launch).unwrap();
    compile(&kernel, &CompileOptions::default()).unwrap()
}

/// A kernel with loads, stores, ALU work, and a barrier, so the trace
/// exercises register, memory, scheduler, and barrier events.
fn worker_kernel(b: &mut KernelBuilder) {
    let (r0, r1, r2, r3) = (ArchReg::R0, ArchReg::R1, ArchReg::R2, ArchReg::R3);
    b.s2r(r0, Special::TidX);
    b.shl(r1, r0, 2);
    b.ldg(r2, r1, 0);
    b.imul(r3, r2, 3);
    b.bar();
    b.iadd(r3, r3, 7);
    b.stg(r1, r3, 0x4000);
    b.exit();
}

fn init_words() -> Vec<(u64, u32)> {
    (0..128).map(|i| (i * 4, i as u32)).collect()
}

#[test]
fn tracing_does_not_perturb_simulation() {
    let ck = compiled(worker_kernel, LaunchConfig::new(2, 128, 2));
    let init = init_words();
    for config in [
        SimConfig::baseline_full(),
        SimConfig::conventional(),
        SimConfig::gpu_shrink(75),
    ] {
        let plain = simulate_traced(&ck, &config, &init, 0).unwrap().result;
        let traced = simulate_traced(&ck, &config, &init, 1 << 20).unwrap();
        assert_eq!(plain.cycles, traced.result.cycles);
        assert_eq!(
            plain.per_sm, traced.result.per_sm,
            "statistics must be identical with tracing on"
        );
        for (a, b) in plain.memories.iter().zip(&traced.result.memories) {
            for i in 0..128u64 {
                assert_eq!(
                    a.peek_word(0x4000 + i * 4),
                    b.peek_word(0x4000 + i * 4),
                    "outputs must be identical with tracing on"
                );
            }
        }
        assert!(!traced.events.is_empty(), "traced run must record events");
    }
}

#[test]
fn trace_capacity_zero_records_nothing() {
    let ck = compiled(worker_kernel, LaunchConfig::new(1, 64, 1));
    let traced = simulate_traced(&ck, &SimConfig::baseline_full(), &init_words(), 0).unwrap();
    assert!(traced.events.is_empty());
    assert!(traced.result.cycles > 0);
}

#[test]
fn traced_run_covers_the_event_vocabulary() {
    let ck = compiled(worker_kernel, LaunchConfig::new(2, 128, 2));
    let mut config = SimConfig::baseline_full();
    config.num_sms = 2;
    let traced = simulate_traced(&ck, &config, &init_words(), 1 << 20).unwrap();
    let has = |pred: &dyn Fn(&TraceKind) -> bool| traced.events.iter().any(|e| pred(&e.kind));
    assert!(has(&|k| matches!(k, TraceKind::RegAlloc { .. })));
    assert!(has(&|k| matches!(k, TraceKind::RegRelease { .. })));
    assert!(has(&|k| matches!(k, TraceKind::RegRename { .. })));
    assert!(has(&|k| matches!(k, TraceKind::Issue { .. })));
    assert!(has(&|k| matches!(k, TraceKind::Stall { .. })));
    assert!(has(&|k| matches!(k, TraceKind::Mem { .. })));
    assert!(has(&|k| matches!(k, TraceKind::GateOn { .. })));
    assert!(has(&|k| matches!(k, TraceKind::CtaLaunch { .. })));
    assert!(has(&|k| matches!(k, TraceKind::CtaComplete { .. })));
    assert!(has(&|k| matches!(k, TraceKind::ThrottleAdmit { .. })));
    assert!(has(&|k| matches!(k, TraceKind::ThrottleBalance { .. })));
    // events are sorted by cycle and stamped with real SM ids
    assert!(traced.events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
    assert!(traced.events.iter().any(|e| e.sm == 1), "two SMs traced");
}

#[test]
fn chrome_export_of_a_real_run_parses() {
    let ck = compiled(worker_kernel, LaunchConfig::new(2, 128, 2));
    let traced = simulate_traced(&ck, &SimConfig::baseline_full(), &init_words(), 1 << 20).unwrap();
    let mut out = Vec::new();
    let mut w = ChromeWriter::new(&mut out).unwrap();
    for e in &traced.events {
        w.write_event(e).unwrap();
    }
    w.finish().unwrap();
    let text = String::from_utf8(out).unwrap();
    let parsed = rfv_trace::json::parse(&text).expect("Chrome trace JSON must parse");
    let records = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    // more records than events: metadata rows name the tracks
    assert!(records.len() > traced.events.len());
    for r in records {
        let ph = r.get("ph").and_then(|v| v.as_str()).expect("phase");
        assert!(matches!(ph, "i" | "C" | "M"), "unexpected phase {ph}");
    }
}
