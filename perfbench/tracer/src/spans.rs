//! In-memory span recorder for the traced runs.
//!
//! Every span carries a name, a start and end in nanoseconds since the
//! recorder was armed, the index of its parent span, and the id of the
//! job it belongs to. Spans stay in memory until [`write_jsonl`] dumps
//! them at exit. When the recorder is disarmed, [`span`] runs its body
//! and records nothing (no clock reads).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

struct Recorder {
    armed: bool,
    epoch: Instant,
    job: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        armed: false,
        epoch: Instant::now(),
        job: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Arms (or disarms) recording on this thread, discarding earlier spans.
pub fn arm(on: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.armed = on;
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
    });
}

/// Tags the spans opened from now on with `job`.
pub fn set_job(job: u64) {
    RECORDER.with(|r| r.borrow_mut().job = job);
}

/// Runs `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.armed {
            return None;
        }
        let idx = r.spans.len();
        let span = Span {
            name,
            start_ns: r.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: r.open.last().copied(),
            job: r.job,
        };
        r.spans.push(span);
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.epoch.elapsed().as_nanos() as u64;
            r.spans[idx].end_ns = end;
            r.open.pop();
        });
    }
    out
}

/// Takes the recorded spans out of the recorder.
pub fn take() -> Vec<Span> {
    RECORDER.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Per-name totals: (total ns, self ns). A span's self time is its
/// duration minus the durations of its direct children, which never
/// overlap because one thread opens them in sequence.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += dur;
        e.1 += dur - child;
    }
    out
}

/// Writes one JSON object per span, in opening order.
pub fn write_jsonl(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.job
        )?;
    }
    w.flush()
}
