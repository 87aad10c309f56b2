//! Streaming Chrome trace-event JSON writer.
//!
//! Output follows the Trace Event Format's "JSON object" flavor
//! (`{"traceEvents": [...]}`), loadable in Perfetto and
//! `chrome://tracing`. Tracks are laid out as:
//!
//! * **process** = SM (`pid` is the SM index, named `SM <n>` via a
//!   `process_name` metadata event);
//! * **thread** = warp scheduler slot (`tid` is the slot, named
//!   `warp <n>`); SM-scoped events (throttle, gating, CTA lifecycle)
//!   land on a dedicated `sm events` thread.
//!
//! One simulated cycle maps to one microsecond of trace time, so the
//! viewer's time axis reads directly in cycles.
//!
//! Most events are instants (`ph: "i"`); CTA balance-counter updates
//! are emitted as counter samples (`ph: "C"`) so Perfetto plots the
//! `C - k_i` trajectory from Section 8.1 of the paper as a graph.

use std::io::{self, Write};

use crate::event::{TraceEvent, TraceKind};
use crate::json::quote;

/// Incremental writer: construct, feed events in any order, `finish`.
///
/// Records are formatted straight into `out`; naming a track costs one
/// dense-table probe per event, with no per-event allocation.
pub struct ChromeWriter<W: Write> {
    out: W,
    first: bool,
    /// Track-naming seen-table, dense by SM: one flag per thread track,
    /// indexed by `warp + 1` (so [`TraceEvent::NO_WARP`] wraps to slot
    /// 0). An SM's list stays empty until its first event, which also
    /// names its process track.
    named: Vec<Vec<bool>>,
}

impl<W: Write> ChromeWriter<W> {
    /// Starts a trace document on `out`.
    pub fn new(mut out: W) -> io::Result<ChromeWriter<W>> {
        out.write_all(b"{\"traceEvents\":[")?;
        Ok(ChromeWriter {
            out,
            first: true,
            named: Vec::new(),
        })
    }

    /// Starts the next record: a separator before every record but
    /// the first.
    fn sep(&mut self) -> io::Result<()> {
        if self.first {
            self.first = false;
        } else {
            self.out.write_all(b",\n")?;
        }
        Ok(())
    }

    fn ensure_tracks(&mut self, ev: &TraceEvent) -> io::Result<()> {
        let sm = usize::from(ev.sm);
        let slot = usize::from(ev.warp.wrapping_add(1));
        if self.named.len() <= sm {
            self.named.resize_with(sm + 1, Vec::new);
        }
        let threads = &mut self.named[sm];
        let new_process = threads.is_empty();
        if threads.len() <= slot {
            threads.resize(slot + 1, false);
        }
        let new_thread = !std::mem::replace(&mut threads[slot], true);
        if new_process {
            self.sep()?;
            write!(
                self.out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":\"SM {}\"}}}}",
                ev.sm, ev.sm
            )?;
        }
        if !new_thread {
            return Ok(());
        }
        self.sep()?;
        write!(
            self.out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":",
            ev.sm, ev.warp
        )?;
        if ev.warp == TraceEvent::NO_WARP {
            self.out.write_all(b"\"sm events\"}}")
        } else {
            write!(self.out, "\"warp {}\"}}}}", ev.warp)
        }
    }

    /// Appends one event.
    pub fn write_event(&mut self, ev: &TraceEvent) -> io::Result<()> {
        self.ensure_tracks(ev)?;
        self.sep()?;
        let out = &mut self.out;
        match ev.kind {
            // counter sample: Perfetto draws these as a graph per SM
            TraceKind::ThrottleBalance { cta, balance } => write!(
                out,
                "{{\"name\":\"balance\",\"ph\":\"C\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{\"cta{}\":{}}}}}",
                ev.cycle, ev.sm, ev.warp, cta, balance
            ),
            _ => {
                out.write_all(b"{\"name\":")?;
                write_str(out, ev.kind.name())?;
                write!(
                    out,
                    ",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":{},\"args\":{{",
                    ev.cycle, ev.sm, ev.warp
                )?;
                write_args(out, &ev.kind)?;
                out.write_all(b"}}")
            }
        }
    }

    /// Closes the document and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.write_all(
            b"],\"displayTimeUnit\":\"ns\",\"otherData\":{\"producer\":\"rfv-trace\"}}",
        )?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Writes `s` as a JSON string literal, byte for byte what [`quote`]
/// returns, without allocating when nothing needs escaping (every
/// event name and label).
fn write_str<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        write!(out, "\"{s}\"")
    } else {
        out.write_all(quote(s).as_bytes())
    }
}

fn write_args<W: Write>(out: &mut W, kind: &TraceKind) -> io::Result<()> {
    match *kind {
        TraceKind::RegAlloc { reg, phys, bank } | TraceKind::RegRelease { reg, phys, bank } => {
            write!(out, "\"reg\":{reg},\"phys\":{phys},\"bank\":{bank}")
        }
        TraceKind::RegRename {
            reg,
            old_phys,
            new_phys,
        } => write!(
            out,
            "\"reg\":{reg},\"old_phys\":{old_phys},\"new_phys\":{new_phys}"
        ),
        TraceKind::FlagCacheHit { pc } | TraceKind::FlagCacheMiss { pc } => {
            write!(out, "\"pc\":{pc}")
        }
        TraceKind::PirDecode { pc, flags } => write!(out, "\"pc\":{pc},\"flags\":{flags}"),
        TraceKind::PbrDecode { pc, released } => {
            write!(out, "\"pc\":{pc},\"released\":{released}")
        }
        TraceKind::ThrottleAdmit { cta, budget } => {
            write!(out, "\"cta\":{cta},\"budget\":{budget}")
        }
        TraceKind::ThrottleDeny { cta, balance } | TraceKind::ThrottleBalance { cta, balance } => {
            write!(out, "\"cta\":{cta},\"balance\":{balance}")
        }
        TraceKind::Spill { reg, phys } => write!(out, "\"reg\":{reg},\"phys\":{phys}"),
        TraceKind::SwapOut { warp_regs } | TraceKind::SwapIn { warp_regs } => {
            write!(out, "\"warp_regs\":{warp_regs}")
        }
        TraceKind::GateOff { subarray } => write!(out, "\"subarray\":{subarray}"),
        TraceKind::GateOn { subarray, wakeup } => {
            write!(out, "\"subarray\":{subarray},\"wakeup\":{wakeup}")
        }
        TraceKind::Issue { pc, active_lanes } => {
            write!(out, "\"pc\":{pc},\"active_lanes\":{active_lanes}")
        }
        TraceKind::Stall { reason } => {
            out.write_all(b"\"reason\":")?;
            write_str(out, reason.label())
        }
        TraceKind::Mem {
            phase,
            addr,
            segments,
        } => {
            out.write_all(b"\"phase\":")?;
            write_str(out, phase.label())?;
            write!(out, ",\"addr\":{addr},\"segments\":{segments}")
        }
        TraceKind::CtaLaunch { cta } | TraceKind::CtaComplete { cta } => {
            write!(out, "\"cta\":{cta}")
        }
        TraceKind::FaultInjected { fault, reg, phys } => {
            out.write_all(b"\"fault\":")?;
            write_str(out, fault.label())?;
            write!(out, ",\"reg\":{reg},\"phys\":{phys}")
        }
        TraceKind::Quarantine { cta, warps } => write!(out, "\"cta\":{cta},\"warps\":{warps}"),
    }
}

/// Writes a complete capture in one call.
pub fn write_trace<W: Write>(out: W, events: &[TraceEvent]) -> io::Result<W> {
    let mut w = ChromeWriter::new(out)?;
    for ev in events {
        w.write_event(ev)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MemPhase, StallReason};
    use crate::json;

    #[test]
    fn output_is_valid_json_with_tracks() {
        let events = vec![
            TraceEvent::warp_event(
                5,
                0,
                2,
                TraceKind::RegAlloc {
                    reg: 3,
                    phys: 17,
                    bank: 1,
                },
            ),
            TraceEvent::sm_event(
                6,
                0,
                TraceKind::ThrottleBalance {
                    cta: 1,
                    balance: -2,
                },
            ),
            TraceEvent::warp_event(
                7,
                1,
                0,
                TraceKind::Stall {
                    reason: StallReason::NoReg,
                },
            ),
            TraceEvent::warp_event(
                8,
                1,
                0,
                TraceKind::Mem {
                    phase: MemPhase::Issue,
                    addr: 4096,
                    segments: 2,
                },
            ),
        ];
        let buf = write_trace(Vec::new(), &events).unwrap();
        let doc = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let recs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 4 events + 2 process_name + 3 thread_name metadata records
        assert_eq!(recs.len(), 9);
        let names: Vec<&str> = recs
            .iter()
            .map(|r| r.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(names.contains(&"process_name"));
        assert!(names.contains(&"thread_name"));
        assert!(names.contains(&"reg_alloc"));
        assert!(names.contains(&"balance"));
        let alloc = recs
            .iter()
            .find(|r| r.get("name").unwrap().as_str() == Some("reg_alloc"))
            .unwrap();
        assert_eq!(alloc.get("ts").unwrap().as_num(), Some(5.0));
        assert_eq!(
            alloc.get("args").unwrap().get("phys").unwrap().as_num(),
            Some(17.0)
        );
    }
}
