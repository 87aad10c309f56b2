//! The `rfv-job-v1` wire protocol.
//!
//! Every message travels as one *frame*: a little-endian `u32` length
//! followed by that many payload bytes. The payload is a checksummed
//! envelope in the style of the `rfv-ckpt-v2` checkpoint container:
//!
//! ```text
//! +----------+---------+------+------   -+----------+
//! | magic 8B | ver u32 | kind | body ... | fnv1a u64 |
//! +----------+---------+------+------   -+----------+
//! ```
//!
//! The trailing FNV-1a checksum covers everything before it, so a
//! flipped bit anywhere in the envelope is detected before any field
//! is interpreted. Bodies use the same fixed-width little-endian
//! codec ([`rfv_trace::wire`]) as checkpoints — no varints, no
//! compression, bit-exact round-tripping.
//!
//! Decoding is total: malformed input yields a typed [`ProtoError`],
//! never a panic, and the error taxonomy ([`ErrorCode`]) is itself
//! part of the wire format so clients can react programmatically
//! (retry on [`ErrorCode::QueueFull`], give up on
//! [`ErrorCode::BadConfig`], ...).

use std::io::{self, Read, Write};

use rfv_trace::wire::{fnv1a, Dec, Enc};

/// Envelope magic: 8 bytes, mirrors `rfv-ckpt`.
pub const JOB_MAGIC: [u8; 8] = *b"rfv-job1";

/// Protocol version. Bump on any incompatible envelope/body change.
/// Version 2 enriched the stats body with cache-eviction, cache-size,
/// connection, and spool-replay counters. Version 3 added the
/// idempotency nonce to submissions, the `RetryAfter` error code with
/// a backoff hint on every error body, and brownout/spool counters to
/// the stats body.
pub const JOB_VERSION: u32 = 3;

/// Hard ceiling on a frame's payload size (1 MiB). A length prefix
/// above this is rejected *before* any allocation, so a hostile or
/// corrupt length cannot balloon server memory.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Envelope overhead: magic + version + kind + checksum.
const ENVELOPE_BYTES: usize = 8 + 4 + 1 + 8;

// ------------------------------------------------------ error codes

/// Typed failure taxonomy carried by [`Response::Error`] frames.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorCode {
    /// The envelope or body did not parse (truncated, trailing bytes,
    /// unknown kind, bad UTF-8, ...).
    Malformed,
    /// The payload does not start with [`JOB_MAGIC`].
    BadMagic,
    /// The envelope's version field is not [`JOB_VERSION`].
    BadVersion,
    /// The trailing FNV-1a checksum does not match the payload.
    BadChecksum,
    /// The frame's length prefix exceeds [`MAX_PAYLOAD`].
    Oversized,
    /// The submitted workload spec names no known suite workload and
    /// is not a valid `synth:` expression.
    UnknownWorkload,
    /// The submitted machine name is not one of
    /// [`rfv_bench::harness::MACHINE_NAMES`].
    UnknownMachine,
    /// The resolved [`rfv_sim::SimConfig`] failed validation.
    BadConfig,
    /// The job queue is at capacity; resubmit later.
    QueueFull,
    /// The simulation itself failed (watchdog, unsoundness, ...).
    SimFailed,
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
    /// The daemon is in brownout (persistent spool failure or queue
    /// saturation) and is shedding normal-priority work; resubmit
    /// after the attached backoff hint.
    RetryAfter,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::BadMagic => 2,
            ErrorCode::BadVersion => 3,
            ErrorCode::BadChecksum => 4,
            ErrorCode::Oversized => 5,
            ErrorCode::UnknownWorkload => 6,
            ErrorCode::UnknownMachine => 7,
            ErrorCode::BadConfig => 8,
            ErrorCode::QueueFull => 9,
            ErrorCode::SimFailed => 10,
            ErrorCode::ShuttingDown => 11,
            ErrorCode::RetryAfter => 12,
        }
    }

    fn from_tag(t: u8) -> Option<ErrorCode> {
        Some(match t {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::BadMagic,
            3 => ErrorCode::BadVersion,
            4 => ErrorCode::BadChecksum,
            5 => ErrorCode::Oversized,
            6 => ErrorCode::UnknownWorkload,
            7 => ErrorCode::UnknownMachine,
            8 => ErrorCode::BadConfig,
            9 => ErrorCode::QueueFull,
            10 => ErrorCode::SimFailed,
            11 => ErrorCode::ShuttingDown,
            12 => ErrorCode::RetryAfter,
            _ => return None,
        })
    }

    /// Whether the connection's byte stream can still be trusted after
    /// this error. Framing-level failures (bad magic, bad checksum,
    /// oversized) mean the reader may be out of sync, so the server
    /// closes the connection after replying; semantic failures keep it
    /// open.
    pub fn poisons_stream(self) -> bool {
        matches!(
            self,
            ErrorCode::BadMagic | ErrorCode::BadChecksum | ErrorCode::Oversized
        )
    }

    /// Whether a client may retry the *same* request and reasonably
    /// expect a different outcome. These are the load/lifecycle
    /// rejections; everything else is deterministic and retrying it
    /// verbatim would fail the same way.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::QueueFull | ErrorCode::ShuttingDown | ErrorCode::RetryAfter
        )
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::BadMagic => "bad-magic",
            ErrorCode::BadVersion => "bad-version",
            ErrorCode::BadChecksum => "bad-checksum",
            ErrorCode::Oversized => "oversized",
            ErrorCode::UnknownWorkload => "unknown-workload",
            ErrorCode::UnknownMachine => "unknown-machine",
            ErrorCode::BadConfig => "bad-config",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::SimFailed => "sim-failed",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::RetryAfter => "retry-after",
        };
        f.write_str(s)
    }
}

/// A typed protocol failure: the wire form of every rejection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProtoError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail (never needed to dispatch on).
    pub message: String,
    /// Server guidance: wait at least this long before retrying.
    /// Populated on load/lifecycle rejections ([`ErrorCode::QueueFull`],
    /// [`ErrorCode::ShuttingDown`], [`ErrorCode::RetryAfter`]); `None`
    /// on deterministic failures, where retrying is pointless.
    pub retry_after_ms: Option<u64>,
}

impl ProtoError {
    /// Convenience constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// Attaches a backoff hint.
    pub fn with_retry_after(mut self, ms: u64) -> ProtoError {
        self.retry_after_ms = Some(ms);
        self
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)?;
        if let Some(ms) = self.retry_after_ms {
            write!(f, " (retry after {ms}ms)")?;
        }
        Ok(())
    }
}

impl std::error::Error for ProtoError {}

fn malformed(what: &str) -> ProtoError {
    ProtoError::new(ErrorCode::Malformed, what)
}

// --------------------------------------------------------- requests

/// Job priority. High-priority jobs jump the queue and preempt a
/// running normal-priority job at its next slice boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Priority {
    /// Default: runs in FIFO order, may be preempted.
    Normal,
    /// Jumps the queue; never preempted.
    High,
}

/// One simulation job submission.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobRequest {
    /// Workload spec: a Table 1 suite name (`"VectorAdd"`) or a
    /// `synth:` expression (see [`crate::spec`]).
    pub spec: String,
    /// Machine configuration name (see
    /// [`rfv_bench::harness::machine_config`]).
    pub machine: String,
    /// SM count override (0 keeps the machine default).
    pub num_sms: u32,
    /// Watchdog override in cycles.
    pub max_cycles: Option<u64>,
    /// Queue priority.
    pub priority: Priority,
    /// Whether the per-kernel compile cache may serve this job.
    pub use_cache: bool,
    /// Client-generated idempotency nonce; `0` means "no dedupe". A
    /// resubmission carrying a nonce the daemon has already accepted
    /// is *not* re-run: if the job finished, the recorded reply is
    /// replayed; if it is still in flight, the new connection is
    /// attached as an additional waiter. This is what makes blind
    /// retry after a connection reset safe — the job runs exactly
    /// once no matter how many times the submission is repeated.
    pub nonce: u64,
}

impl Default for JobRequest {
    fn default() -> JobRequest {
        JobRequest {
            spec: String::new(),
            machine: "full".into(),
            num_sms: 0,
            max_cycles: None,
            priority: Priority::Normal,
            use_cache: true,
            nonce: 0,
        }
    }
}

/// A client-to-server message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Run one simulation job.
    Submit(JobRequest),
    /// Snapshot the server's counters.
    Stats,
}

const REQ_SUBMIT: u8 = 1;
const REQ_STATS: u8 = 2;

impl Request {
    /// Encodes the request as a framed payload (envelope included,
    /// length prefix excluded — that is [`write_frame`]'s job).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Submit(job) => {
                let mut b = Enc::new();
                b.frame(job.spec.as_bytes());
                b.frame(job.machine.as_bytes());
                b.u32(job.num_sms);
                b.opt_u64(job.max_cycles);
                b.u8(match job.priority {
                    Priority::Normal => 0,
                    Priority::High => 1,
                });
                b.bool(job.use_cache);
                b.u64(job.nonce);
                envelope(REQ_SUBMIT, b.bytes())
            }
            Request::Stats => envelope(REQ_STATS, &[]),
        }
    }

    /// Decodes a request payload (the bytes a frame carried).
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] describing the first defect found.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let (kind, body) = open_envelope(payload)?;
        let mut d = Dec::new(body);
        let req = match kind {
            REQ_SUBMIT => {
                let spec = read_string(&mut d, "spec")?;
                let machine = read_string(&mut d, "machine")?;
                let num_sms = d.u32().map_err(|_| malformed("submit body truncated"))?;
                let max_cycles = d
                    .opt_u64()
                    .map_err(|_| malformed("submit body truncated"))?;
                let priority = match d.u8().map_err(|_| malformed("submit body truncated"))? {
                    0 => Priority::Normal,
                    1 => Priority::High,
                    _ => return Err(malformed("priority byte")),
                };
                let use_cache = d.bool().map_err(|_| malformed("use_cache byte"))?;
                let nonce = d.u64().map_err(|_| malformed("submit body truncated"))?;
                Request::Submit(JobRequest {
                    spec,
                    machine,
                    num_sms,
                    max_cycles,
                    priority,
                    use_cache,
                    nonce,
                })
            }
            REQ_STATS => Request::Stats,
            _ => return Err(malformed("unknown request kind")),
        };
        if !d.is_done() {
            return Err(malformed("trailing bytes after request body"));
        }
        Ok(req)
    }
}

// -------------------------------------------------------- responses

/// How the compile cache was involved in serving a job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheOutcome {
    /// Kernel was compiled and inserted.
    Miss,
    /// A previously compiled kernel was reused.
    Hit,
    /// The job opted out of the cache.
    Bypass,
}

impl CacheOutcome {
    fn tag(self) -> u8 {
        match self {
            CacheOutcome::Miss => 0,
            CacheOutcome::Hit => 1,
            CacheOutcome::Bypass => 2,
        }
    }

    fn from_tag(t: u8) -> Option<CacheOutcome> {
        Some(match t {
            0 => CacheOutcome::Miss,
            1 => CacheOutcome::Hit,
            2 => CacheOutcome::Bypass,
            _ => return None,
        })
    }
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheOutcome::Miss => "miss",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Bypass => "bypass",
        })
    }
}

/// A completed job's results.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobResult {
    /// GPU execution time (slowest SM).
    pub cycles: u64,
    /// Machine instructions issued, summed over SMs.
    pub instrs: u64,
    /// Compile-cache involvement.
    pub cache: CacheOutcome,
    /// How many times the job was preempted and resumed.
    pub preemptions: u32,
    /// The run's statistics in the stats-json schema the `rfvsim`
    /// CLI emits — purely simulation-derived, so a preempted and an
    /// uninterrupted run of the same job are byte-identical here.
    pub stats_json: String,
}

/// Server counter snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServerStats {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs rejected with [`ErrorCode::QueueFull`].
    pub rejected: u64,
    /// Jobs that failed in the simulator.
    pub failed: u64,
    /// Compile-cache hits.
    pub cache_hits: u64,
    /// Compile-cache misses (compilations).
    pub cache_misses: u64,
    /// Preemption events (checkpoint + requeue).
    pub preemptions: u64,
    /// Jobs currently waiting in the queue.
    pub queued: u64,
    /// Jobs currently executing.
    pub active: u64,
    /// Compile-cache evictions (entries dropped to stay under the
    /// configured bound).
    pub cache_evictions: u64,
    /// Kernels currently resident in the compile cache.
    pub cache_entries: u64,
    /// Connections currently open.
    pub conns_open: u64,
    /// Connections accepted over the daemon's lifetime.
    pub conns_total: u64,
    /// Jobs replayed from the spool after a restart.
    pub replayed: u64,
    /// Submissions answered from the nonce table (stored reply
    /// replayed or waiter attached) instead of re-running the job.
    pub deduped: u64,
    /// Normal-priority submissions shed with [`ErrorCode::RetryAfter`]
    /// while in brownout.
    pub shed: u64,
    /// Times the daemon entered brownout over its lifetime.
    pub brownouts: u64,
    /// 1 while a brownout (disk or queue) is active, else 0.
    pub brownout: u64,
    /// Records currently resident in the spool directory (live,
    /// completed, and quarantined).
    pub spool_records: u64,
    /// Spool compaction passes that pruned at least one record.
    pub spool_compactions: u64,
}

impl ServerStats {
    /// Every counter with its field name, in wire order.
    pub fn fields(&self) -> [(&'static str, u64); 20] {
        [
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("rejected", self.rejected),
            ("failed", self.failed),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("preemptions", self.preemptions),
            ("queued", self.queued),
            ("active", self.active),
            ("cache_evictions", self.cache_evictions),
            ("cache_entries", self.cache_entries),
            ("conns_open", self.conns_open),
            ("conns_total", self.conns_total),
            ("replayed", self.replayed),
            ("deduped", self.deduped),
            ("shed", self.shed),
            ("brownouts", self.brownouts),
            ("brownout", self.brownout),
            ("spool_records", self.spool_records),
            ("spool_compactions", self.spool_compactions),
        ]
    }

    /// The counters as one JSON object on one line.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields()
            .iter()
            .map(|(name, v)| format!("\"{name}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A server-to-client message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// The submitted job ran to completion.
    Result(JobResult),
    /// Counter snapshot for a [`Request::Stats`].
    Stats(ServerStats),
    /// The request was rejected.
    Error(ProtoError),
}

const RSP_RESULT: u8 = 1;
const RSP_STATS: u8 = 2;
const RSP_ERROR: u8 = 3;

impl Response {
    /// Encodes the response as a framed payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Result(r) => {
                let mut b = Enc::new();
                b.u64(r.cycles);
                b.u64(r.instrs);
                b.u8(r.cache.tag());
                b.u32(r.preemptions);
                b.frame(r.stats_json.as_bytes());
                envelope(RSP_RESULT, b.bytes())
            }
            Response::Stats(s) => {
                let mut b = Enc::new();
                for (_, v) in s.fields() {
                    b.u64(v);
                }
                envelope(RSP_STATS, b.bytes())
            }
            Response::Error(e) => {
                let mut b = Enc::new();
                b.u8(e.code.tag());
                b.frame(e.message.as_bytes());
                b.opt_u64(e.retry_after_ms);
                envelope(RSP_ERROR, b.bytes())
            }
        }
    }

    /// Decodes a response payload.
    ///
    /// # Errors
    ///
    /// A typed [`ProtoError`] describing the first defect found.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let (kind, body) = open_envelope(payload)?;
        let mut d = Dec::new(body);
        let rsp = match kind {
            RSP_RESULT => {
                let cycles = d.u64().map_err(|_| malformed("result body truncated"))?;
                let instrs = d.u64().map_err(|_| malformed("result body truncated"))?;
                let cache = d
                    .u8()
                    .ok()
                    .and_then(CacheOutcome::from_tag)
                    .ok_or_else(|| malformed("cache outcome tag"))?;
                let preemptions = d.u32().map_err(|_| malformed("result body truncated"))?;
                let stats_json = read_string(&mut d, "stats_json")?;
                Response::Result(JobResult {
                    cycles,
                    instrs,
                    cache,
                    preemptions,
                    stats_json,
                })
            }
            RSP_STATS => {
                let mut take =
                    || -> Result<u64, ProtoError> { d.u64().map_err(|_| malformed("stats body")) };
                Response::Stats(ServerStats {
                    submitted: take()?,
                    completed: take()?,
                    rejected: take()?,
                    failed: take()?,
                    cache_hits: take()?,
                    cache_misses: take()?,
                    preemptions: take()?,
                    queued: take()?,
                    active: take()?,
                    cache_evictions: take()?,
                    cache_entries: take()?,
                    conns_open: take()?,
                    conns_total: take()?,
                    replayed: take()?,
                    deduped: take()?,
                    shed: take()?,
                    brownouts: take()?,
                    brownout: take()?,
                    spool_records: take()?,
                    spool_compactions: take()?,
                })
            }
            RSP_ERROR => {
                let code = d
                    .u8()
                    .ok()
                    .and_then(ErrorCode::from_tag)
                    .ok_or_else(|| malformed("error code tag"))?;
                let message = read_string(&mut d, "error message")?;
                let retry_after_ms = d.opt_u64().map_err(|_| malformed("error body truncated"))?;
                Response::Error(ProtoError {
                    code,
                    message,
                    retry_after_ms,
                })
            }
            _ => return Err(malformed("unknown response kind")),
        };
        if !d.is_done() {
            return Err(malformed("trailing bytes after response body"));
        }
        Ok(rsp)
    }
}

// ------------------------------------------------- envelope framing

fn envelope(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut e = Enc::new();
    e.raw(&JOB_MAGIC);
    e.u32(JOB_VERSION);
    e.u8(kind);
    e.raw(body);
    let sum = fnv1a(e.bytes());
    e.u64(sum);
    e.into_bytes()
}

/// Verifies a payload's envelope — length, magic, checksum, version,
/// in that order — and returns its `(kind, body)`.
///
/// # Errors
///
/// [`ErrorCode::Malformed`] / [`ErrorCode::BadMagic`] /
/// [`ErrorCode::BadChecksum`] / [`ErrorCode::BadVersion`].
pub fn open_envelope(payload: &[u8]) -> Result<(u8, &[u8]), ProtoError> {
    if payload.len() < ENVELOPE_BYTES {
        return Err(malformed("payload shorter than envelope"));
    }
    if payload[..8] != JOB_MAGIC {
        return Err(ProtoError::new(
            ErrorCode::BadMagic,
            "payload does not start with rfv-job1",
        ));
    }
    let (head, tail) = payload.split_at(payload.len() - 8);
    let want = u64::from_le_bytes(tail.try_into().expect("8-byte checksum"));
    let got = fnv1a(head);
    if want != got {
        return Err(ProtoError::new(
            ErrorCode::BadChecksum,
            format!("checksum mismatch: stored {want:#018x}, computed {got:#018x}"),
        ));
    }
    let version = u32::from_le_bytes(payload[8..12].try_into().expect("4-byte version"));
    if version != JOB_VERSION {
        return Err(ProtoError::new(
            ErrorCode::BadVersion,
            format!("version {version}, this daemon speaks {JOB_VERSION}"),
        ));
    }
    Ok((payload[12], &head[13..]))
}

fn read_string(d: &mut Dec<'_>, what: &str) -> Result<String, ProtoError> {
    let bytes = d
        .frame()
        .map_err(|_| malformed(&format!("{what} frame truncated")))?;
    String::from_utf8(bytes.to_vec()).map_err(|_| malformed(&format!("{what} is not UTF-8")))
}

/// Writes one frame: `u32` little-endian payload length, then the
/// payload.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads above [`MAX_PAYLOAD`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "payload exceeds MAX_PAYLOAD",
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame with blocking reads (client side). `Ok(None)`
/// means the peer closed cleanly at a frame boundary.
///
/// # Errors
///
/// `UnexpectedEof` on a mid-frame disconnect, `InvalidData` on an
/// oversized length prefix, otherwise the underlying I/O error.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_PAYLOAD"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// -------------------------------------- incremental server-side read

/// What one [`FrameReader::poll`] produced.
#[derive(Debug)]
pub enum Recv {
    /// A complete frame payload.
    Payload(Vec<u8>),
    /// No complete frame yet (read timed out); retry later. Partial
    /// bytes stay buffered, so slow writers are handled correctly.
    Idle,
    /// Peer closed at a frame boundary.
    Closed,
    /// Peer disconnected mid-frame.
    Truncated,
    /// The length prefix exceeds [`MAX_PAYLOAD`]; the stream is
    /// unsynchronized and must be closed after an error reply.
    Oversized(u64),
}

/// Incremental frame reader for sockets with read timeouts: bytes
/// accumulate across [`FrameReader::poll`] calls so a frame that
/// straddles a timeout (or arrives one byte at a time) is still
/// reassembled exactly.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Reads until a complete frame, a timeout, or a disconnect.
    ///
    /// # Errors
    ///
    /// Hard I/O errors only; timeouts surface as [`Recv::Idle`].
    pub fn poll(&mut self, stream: &mut impl Read) -> io::Result<Recv> {
        loop {
            if self.buf.len() >= 4 {
                let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
                if len > MAX_PAYLOAD {
                    return Ok(Recv::Oversized(len as u64));
                }
                if self.buf.len() >= 4 + len {
                    let payload = self.buf[4..4 + len].to_vec();
                    self.buf.drain(..4 + len);
                    return Ok(Recv::Payload(payload));
                }
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => {
                    return Ok(if self.buf.is_empty() {
                        Recv::Closed
                    } else {
                        Recv::Truncated
                    });
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Recv::Idle);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_submit() -> Request {
        Request::Submit(JobRequest {
            spec: "synth:regs=24,rep=16".into(),
            machine: "shrink50".into(),
            num_sms: 4,
            max_cycles: Some(1_000_000),
            priority: Priority::High,
            use_cache: false,
            nonce: 0xdead_beef_cafe_f00d,
        })
    }

    #[test]
    fn requests_round_trip() {
        for req in [sample_submit(), Request::Stats] {
            let payload = req.encode();
            assert_eq!(Request::decode(&payload).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Result(JobResult {
                cycles: 123_456,
                instrs: 789,
                cache: CacheOutcome::Hit,
                preemptions: 3,
                stats_json: "{\"gpu.cycles\": 123456}".into(),
            }),
            Response::Stats(ServerStats {
                submitted: 10,
                completed: 7,
                rejected: 2,
                failed: 1,
                cache_hits: 5,
                cache_misses: 2,
                preemptions: 4,
                queued: 1,
                active: 2,
                cache_evictions: 3,
                cache_entries: 2,
                conns_open: 6,
                conns_total: 40,
                replayed: 1,
                deduped: 9,
                shed: 12,
                brownouts: 2,
                brownout: 1,
                spool_records: 33,
                spool_compactions: 4,
            }),
            Response::Error(ProtoError::new(ErrorCode::QueueFull, "queue at 8/8")),
            Response::Error(
                ProtoError::new(ErrorCode::RetryAfter, "brownout").with_retry_after(250),
            ),
        ];
        for rsp in cases {
            let payload = rsp.encode();
            assert_eq!(Response::decode(&payload).unwrap(), rsp);
        }
    }

    #[test]
    fn stats_json_names_every_counter_on_one_line() {
        let stats = ServerStats {
            submitted: 8,
            replayed: 3,
            spool_compactions: 4,
            ..ServerStats::default()
        };
        let json = stats.to_json();
        assert!(!json.contains('\n'), "{json}");
        let value = rfv_trace::json::parse(&json).unwrap();
        let obj = value.as_obj().unwrap();
        assert_eq!(obj.len(), stats.fields().len());
        for (name, v) in stats.fields() {
            assert_eq!(
                value.get(name).and_then(|x| x.as_num()),
                Some(v as f64),
                "{name}"
            );
        }
    }

    #[test]
    fn every_error_code_round_trips() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::BadMagic,
            ErrorCode::BadVersion,
            ErrorCode::BadChecksum,
            ErrorCode::Oversized,
            ErrorCode::UnknownWorkload,
            ErrorCode::UnknownMachine,
            ErrorCode::BadConfig,
            ErrorCode::QueueFull,
            ErrorCode::SimFailed,
            ErrorCode::ShuttingDown,
            ErrorCode::RetryAfter,
        ] {
            assert_eq!(ErrorCode::from_tag(code.tag()), Some(code));
            let rsp = Response::Error(ProtoError::new(code, "x"));
            assert_eq!(Response::decode(&rsp.encode()).unwrap(), rsp);
            let hinted = Response::Error(ProtoError::new(code, "x").with_retry_after(77));
            assert_eq!(Response::decode(&hinted.encode()).unwrap(), hinted);
        }
        assert_eq!(ErrorCode::from_tag(0), None);
        assert_eq!(ErrorCode::from_tag(200), None);
    }

    #[test]
    fn retryable_codes_are_the_load_rejections() {
        for code in [
            ErrorCode::QueueFull,
            ErrorCode::ShuttingDown,
            ErrorCode::RetryAfter,
        ] {
            assert!(code.retryable(), "{code}");
            assert!(!code.poisons_stream(), "{code}");
        }
        for code in [
            ErrorCode::Malformed,
            ErrorCode::BadConfig,
            ErrorCode::UnknownWorkload,
            ErrorCode::SimFailed,
        ] {
            assert!(!code.retryable(), "{code}");
        }
    }

    #[test]
    fn corruption_yields_the_right_code() {
        let mut payload = sample_submit().encode();
        // flip one body byte: checksum catches it
        let mid = payload.len() / 2;
        payload[mid] ^= 0x40;
        assert_eq!(
            Request::decode(&payload).unwrap_err().code,
            ErrorCode::BadChecksum
        );
    }

    #[test]
    fn bad_magic_detected_before_checksum() {
        let mut payload = sample_submit().encode();
        payload[0] = b'X';
        assert_eq!(
            Request::decode(&payload).unwrap_err().code,
            ErrorCode::BadMagic
        );
    }

    #[test]
    fn wrong_version_rejected_with_valid_checksum() {
        // rebuild the envelope by hand with a wrong version and a *correct*
        // checksum, so the failure is attributable to the version alone
        let mut e = Enc::new();
        e.raw(&JOB_MAGIC);
        e.u32(JOB_VERSION + 1);
        e.u8(2); // stats
        let sum = fnv1a(e.bytes());
        e.u64(sum);
        assert_eq!(
            Request::decode(e.bytes()).unwrap_err().code,
            ErrorCode::BadVersion
        );
    }

    #[test]
    fn truncation_never_panics() {
        let payload = sample_submit().encode();
        for cut in 0..payload.len() {
            assert!(Request::decode(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        // append a byte and re-checksum: body parse must notice
        let payload = Request::Stats.encode();
        let mut head = payload[..payload.len() - 8].to_vec();
        head.push(0xaa);
        let sum = fnv1a(&head);
        head.extend_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Request::decode(&head).unwrap_err().code,
            ErrorCode::Malformed
        );
    }

    #[test]
    fn frame_reader_reassembles_byte_by_byte() {
        let payload = sample_submit().encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        // feed one byte at a time through a reader that times out
        // after each byte
        struct Trickle<'a> {
            data: &'a [u8],
            pos: usize,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "drained"));
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut reader = FrameReader::new();
        let mut src = Trickle {
            data: &framed,
            pos: 0,
        };
        match reader.poll(&mut src).unwrap() {
            Recv::Payload(p) => assert_eq!(p, payload),
            Recv::Idle => panic!("drained before a full frame"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_flagged_without_allocation() {
        let huge = ((MAX_PAYLOAD + 1) as u32).to_le_bytes();
        let mut reader = FrameReader::new();
        let mut src = io::Cursor::new(huge.to_vec());
        match reader.poll(&mut src).unwrap() {
            Recv::Oversized(n) => assert_eq!(n, (MAX_PAYLOAD + 1) as u64),
            other => panic!("unexpected {other:?}"),
        }
        // blocking variant reports it as InvalidData
        let mut src = io::Cursor::new(huge.to_vec());
        let err = read_frame(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn mid_frame_disconnect_is_truncated() {
        let payload = Request::Stats.encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        framed.truncate(framed.len() - 3);
        let mut reader = FrameReader::new();
        let mut src = io::Cursor::new(framed);
        assert!(matches!(reader.poll(&mut src).unwrap(), Recv::Truncated));
    }
}
