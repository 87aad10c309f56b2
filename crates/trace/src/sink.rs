//! Trace sinks: where events go.
//!
//! The simulator threads a [`Sink`] (enum dispatch — no virtual call,
//! no generic explosion through the `Sm`/`Gpu` structs) through its hot
//! loops. Emission sites follow the pattern
//!
//! ```
//! use rfv_trace::{Sink, TraceEvent, TraceKind};
//!
//! let mut sink = Sink::ring(64);
//! let (cycle, sm, slot) = (12, 0, 3);
//! if sink.enabled() {
//!     sink.emit(TraceEvent::warp_event(
//!         cycle,
//!         sm,
//!         slot,
//!         TraceKind::Issue {
//!             pc: 0x40,
//!             active_lanes: 32,
//!         },
//!     ));
//! }
//! assert_eq!(sink.events().len(), 1);
//! ```
//!
//! so that with [`Sink::Noop`] the entire site reduces to one
//! discriminant test and the event payload is never constructed. The
//! `trace_overhead` bench in `crates/bench` holds this to <2% on a
//! Table 1 workload.

use crate::event::TraceEvent;

/// A bounded in-memory capture. When full it keeps the *oldest*
/// `capacity` events and counts the rest in [`RingSink::dropped`] —
/// for the simulator the interesting structure (launch, first
/// allocations, gating warm-up) is at the front, and keeping a prefix
/// makes captures deterministic under capacity changes.
#[derive(Clone, Debug)]
pub struct RingSink {
    buf: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// A sink holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> RingSink {
        let capacity = capacity.max(1);
        RingSink {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            dropped: 0,
        }
    }

    /// Rebuilds a sink from checkpointed parts: the captured prefix,
    /// the original capacity, and the drop count. Emission continues
    /// exactly where the snapshotted sink left off (the ring keeps the
    /// *oldest* `capacity` events, so a restored sink refuses new
    /// events iff the original would have).
    pub fn from_parts(buf: Vec<TraceEvent>, capacity: usize, dropped: u64) -> RingSink {
        RingSink {
            buf,
            capacity: capacity.max(1),
            dropped,
        }
    }

    /// Events recorded, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.buf
    }

    /// The sink's capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events discarded because the sink was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the sink, returning the captured events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf
    }

    /// Record one event, or count it as dropped when the sink is full.
    #[inline]
    pub fn emit(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.dropped += 1;
        }
    }
}

/// Enum-dispatched sink the simulator owns. Avoids making every
/// simulator struct generic over a sink type while keeping the
/// disabled path branch-cheap.
#[derive(Clone, Debug, Default)]
pub enum Sink {
    /// Tracing off; all emission sites reduce to a discriminant test.
    #[default]
    Noop,
    /// Bounded capture for later Chrome-JSON export.
    Ring(RingSink),
}

impl Sink {
    /// A bounded capturing sink.
    pub fn ring(capacity: usize) -> Sink {
        Sink::Ring(RingSink::with_capacity(capacity))
    }

    /// Whether emission sites should construct events.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        !matches!(self, Sink::Noop)
    }

    /// Record one event.
    #[inline]
    pub fn emit(&mut self, ev: TraceEvent) {
        match self {
            Sink::Noop => {}
            Sink::Ring(r) => r.emit(ev),
        }
    }

    /// The captured events, if this sink captures any.
    pub fn events(&self) -> &[TraceEvent] {
        match self {
            Sink::Noop => &[],
            Sink::Ring(r) => r.events(),
        }
    }

    /// Consumes the sink, returning captured events (empty for noop).
    pub fn into_events(self) -> Vec<TraceEvent> {
        match self {
            Sink::Noop => Vec::new(),
            Sink::Ring(r) => r.into_events(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceKind;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::sm_event(cycle, 0, TraceKind::CtaLaunch { cta: cycle as u32 })
    }

    #[test]
    fn noop_reports_disabled_and_discards() {
        let mut e = Sink::Noop;
        assert!(!e.enabled());
        e.emit(ev(2));
        assert!(e.events().is_empty());
    }

    #[test]
    fn ring_keeps_prefix_and_counts_drops() {
        let mut r = RingSink::with_capacity(3);
        for c in 0..5 {
            r.emit(ev(c));
        }
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.dropped(), 2);
        assert_eq!(r.events()[0].cycle, 0);
        assert_eq!(r.events()[2].cycle, 2);
    }

    #[test]
    fn restored_ring_continues_where_snapshot_stopped() {
        // run a ring to saturation, snapshot its parts mid-stream,
        // rebuild, and check the rebuilt sink behaves identically
        let mut orig = RingSink::with_capacity(3);
        for c in 0..2 {
            orig.emit(ev(c));
        }
        let mut restored =
            RingSink::from_parts(orig.events().to_vec(), orig.capacity(), orig.dropped());
        for c in 2..6 {
            orig.emit(ev(c));
            restored.emit(ev(c));
        }
        assert_eq!(orig.events(), restored.events());
        assert_eq!(orig.dropped(), restored.dropped());
    }

    #[test]
    fn enum_sink_routes_to_ring() {
        let mut s = Sink::ring(8);
        assert!(s.enabled());
        s.emit(ev(7));
        assert_eq!(s.events().len(), 1);
        assert_eq!(s.into_events()[0].cycle, 7);
    }
}
