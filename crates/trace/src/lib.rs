//! # rfv-trace
//!
//! Structured event tracing and metrics for the register-file
//! virtualization simulator. The crate has four parts:
//!
//! * a typed [`TraceEvent`] vocabulary ([`event`]) covering every
//!   microarchitectural mechanism the simulator models: register
//!   allocate/release/rename, release-flag-cache probes, `pir`/`pbr`
//!   decode, CTA throttling, emergency spills, subarray power gating,
//!   warp-scheduler issue/stall, and memory transactions;
//! * sinks ([`sink`]): the enum-dispatched [`Sink`] the simulator
//!   threads through its hot loops — [`Sink::Noop`] or a bounded
//!   [`RingSink`]. When tracing is off the per-event cost is a single
//!   discriminant test — callers gate event *construction* on
//!   [`Sink::enabled`];
//! * deterministic stream merging ([`merge`]): per-SM event shards
//!   recorded on worker threads are combined by `(cycle, sm, seq)`
//!   into a trace bit-identical to a sequential run;
//! * output ([`chrome`], [`metrics`], [`json`]): a streaming Chrome
//!   trace-event JSON writer (loadable in Perfetto / `chrome://tracing`
//!   with per-SM process tracks and per-warp thread tracks) and a
//!   counter/histogram [`MetricsRegistry`] serializable to JSON;
//! * a checkpoint byte codec ([`wire`]): the fixed-width little-endian
//!   [`wire::Enc`]/[`wire::Dec`] pair (plus FNV-1a hashing and a
//!   [`TraceEvent`] codec) underpinning the simulator's `rfv-ckpt-v2`
//!   snapshot format. Decoding is total — corrupt input is a typed
//!   [`wire::WireError`], never a panic.
//!
//! Everything is dependency-free; JSON is written (and, for tests and
//! the perf gate's baseline, parsed) by the small hand-rolled [`json`]
//! module.

pub mod chrome;
pub mod event;
pub mod json;
pub mod merge;
pub mod metrics;
pub mod sink;
pub mod wire;

pub use chrome::ChromeWriter;
pub use event::{FaultLabel, MemPhase, StallReason, TraceEvent, TraceKind};
pub use merge::merge_shards;
pub use metrics::{Histogram, MetricsRegistry};
pub use sink::{RingSink, Sink};
pub use wire::{Dec, Enc, WireError};
