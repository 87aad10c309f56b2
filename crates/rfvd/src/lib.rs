//! # rfvd — simulation as a service
//!
//! A persistent daemon in front of the `rfv` register-file
//! virtualization simulator. Instead of paying process startup,
//! compilation, and predecode for every run (the `rfvsim` CLI model),
//! a long-lived server keeps compiled kernels hot and schedules jobs
//! across a bounded queue and a persistent worker pool:
//!
//! * **`rfv-job-v1` protocol** ([`proto`]): length-prefixed frames
//!   carrying checksummed, versioned envelopes — same container
//!   discipline as the `rfv-ckpt-v2` checkpoint format. Every
//!   rejection is a typed [`proto::ErrorCode`].
//! * **Bounded queueing** ([`queue`]): two priority lanes with hard
//!   capacity and typed `QueueFull` backpressure.
//! * **Compile caching** ([`cache`]): kernels are compiled once per
//!   identity hash and shared as `Arc`s; repeat submissions skip the
//!   compiler entirely. The cache is bounded (LRU eviction) and
//!   single-flight: concurrent misses on one key coalesce into one
//!   build.
//! * **Poll-multiplexed connections**: one event-loop thread drives
//!   every connection through nonblocking sockets, so idle clients
//!   cost file descriptors, not thread stacks.
//! * **Durable job spool** ([`persist`]): with `--spool-dir`, every
//!   accepted job is journaled before its submitter hears `Accepted`;
//!   a restarted daemon replays unfinished records, so a crash loses
//!   no accepted work.
//! * **Environment chaos layer** ([`chaos`]): seeded, deterministic
//!   fault injection at the daemon's I/O boundaries — torn spool
//!   renames, short and failed writes, connection resets, accept
//!   failures, frame stalls — behind zero-cost `SpoolIo`/`SockIo`
//!   passthrough traits. Paired with nonce-keyed idempotent retry in
//!   [`client`] and automatic brownout degradation in [`server`].
//! * **Checkpoint-backed preemption** ([`server`]): jobs execute in
//!   bounded cycle slices on [`rfv_sim::SlicedSim`]; when
//!   high-priority work arrives, a normal job snapshots into an
//!   `rfv-ckpt-v2` checkpoint at the slice boundary and resumes later
//!   — with final statistics byte-identical to an uninterrupted run.
//!
//! Binaries: `rfvd` (the server, with graceful SIGTERM drain) and
//! `rfvload` (a load generator measuring jobs/sec, latency
//! percentiles, and rejection rate).

pub mod cache;
pub mod chaos;
pub mod client;
mod mux;
pub mod persist;
pub mod proto;
pub mod queue;
pub mod server;
pub mod spec;

use rfv_sim::SimResult;

/// Renders a run's statistics in the exact stats-json schema the
/// `rfvsim --stats-json` CLI emits: SM 0's metrics registry plus the
/// whole-GPU `gpu.cycles` / `gpu.sms` counters.
///
/// Everything here is simulation-derived — no wall-clock, no
/// scheduling metadata — which is what makes a preempted-and-resumed
/// job's stats byte-identical to an uninterrupted run's.
pub fn result_stats_json(result: &SimResult, num_sms: usize) -> String {
    let mut m = result.sm0().to_metrics();
    m.add("gpu.cycles", result.cycles);
    m.add("gpu.sms", num_sms as u64);
    m.to_json()
}
