//! A small blocking client for the `rfv-job-v1` protocol, shared by
//! the `rfvload` load generator, the daemon's tests, and the
//! throughput bench — plus [`ResilientClient`], the retrying wrapper
//! that survives connection resets, timeouts, and brownouts by
//! resubmitting idempotently under a job nonce.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use rfv_sim::faults::splitmix64;

use crate::proto::{
    read_frame, write_frame, JobRequest, ProtoError, Request, Response, ServerStats,
};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, disconnect).
    Io(io::Error),
    /// The server's bytes did not parse as a response.
    Protocol(ProtoError),
    /// The server closed the connection instead of responding.
    Closed,
    /// No response within the configured deadline (see
    /// [`Client::set_timeout`]). The connection may be mid-frame and
    /// must not be reused — reconnect.
    TimedOut,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Closed => write!(f, "server closed the connection"),
            ClientError::TimedOut => write!(f, "no response within the deadline"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        // both kinds mean "the socket deadline expired": unix reports
        // WouldBlock from SO_RCVTIMEO, windows reports TimedOut
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            ClientError::TimedOut
        } else {
            ClientError::Io(e)
        }
    }
}

/// One connection to an `rfvd` server. Requests are strictly
/// sequential per connection (submit, wait, submit, ...); run several
/// clients for concurrency.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// The connect error, verbatim.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Bounds how long any single request may wait for its response
    /// (`None` waits forever, the default). On expiry the pending
    /// call fails with [`ClientError::TimedOut`] and the connection
    /// is left mid-conversation: drop this client and reconnect —
    /// reusing it would desynchronize the frame stream.
    ///
    /// # Errors
    ///
    /// The `setsockopt` error, verbatim.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &request.encode())?;
        self.read_response()
    }

    /// Reads one response without sending anything (for tests that
    /// write raw bytes first).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn read_response(&mut self) -> Result<Response, ClientError> {
        match read_frame(&mut self.stream)? {
            None => Err(ClientError::Closed),
            Some(payload) => Response::decode(&payload).map_err(ClientError::Protocol),
        }
    }

    /// Submits a job and waits for its outcome.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn submit(&mut self, job: &JobRequest) -> Result<Response, ClientError> {
        self.request(&Request::Submit(job.clone()))
    }

    /// Fetches the server's counters.
    ///
    /// # Errors
    ///
    /// [`ClientError::Protocol`] when the server answers anything but
    /// a stats snapshot; otherwise see [`ClientError`].
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Error(e) => Err(ClientError::Protocol(e)),
            Response::Result(_) => Err(ClientError::Protocol(ProtoError::new(
                crate::proto::ErrorCode::Malformed,
                "job result in reply to a stats request",
            ))),
        }
    }

    /// Writes raw bytes on the wire (test hook for malformed input).
    ///
    /// # Errors
    ///
    /// The write error, verbatim.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Shuts down the write half mid-conversation (test hook for
    /// abrupt disconnects).
    ///
    /// # Errors
    ///
    /// The shutdown error, verbatim.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Both)
    }
}

// ------------------------------------------------- resilient client

/// How hard a [`ResilientClient`] fights before giving up.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (minimum 1;
    /// 1 means "never retry").
    pub max_attempts: u32,
    /// Backoff floor.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
        }
    }
}

/// A [`Client`] wrapper that survives a hostile environment:
///
/// * **Idempotent resubmission.** Every submission carries a
///   client-generated nonce (generated here if the caller left it 0),
///   so blindly resending after a reset or timeout is safe — the
///   daemon runs the job once and replays the recorded reply to every
///   duplicate. Without the nonce, "resend after an ambiguous
///   failure" risks running the job twice; with it, retry is the
///   *default* instead of a gamble.
/// * **Bounded reconnect.** Transport failures (connect refused,
///   reset, timeout, mid-frame close) drop the connection and dial
///   again on the next attempt, up to [`RetryPolicy::max_attempts`].
/// * **Decorrelated-jitter backoff.** Sleeps a random duration drawn
///   from `[base, 3 × previous]` (capped), so a thundering herd of
///   retrying clients de-synchronizes instead of hammering in phase.
///   A [`ProtoError::retry_after_ms`] hint from the server overrides
///   the draw — the daemon knows its own recovery horizon best.
///
/// Deterministic failures (malformed, unknown workload, sim failure)
/// are returned immediately; retrying them verbatim cannot help.
pub struct ResilientClient {
    addr: String,
    timeout: Option<Duration>,
    policy: RetryPolicy,
    rng: u64,
    conn: Option<Client>,
    retries: u64,
    resets: u64,
    prev_sleep_ms: u64,
}

impl ResilientClient {
    /// A client for `addr` with an entropy-seeded jitter/nonce stream.
    pub fn new(
        addr: impl Into<String>,
        timeout: Option<Duration>,
        policy: RetryPolicy,
    ) -> ResilientClient {
        use std::hash::{BuildHasher, Hasher};
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u32(std::process::id());
        ResilientClient::seeded(addr, timeout, policy, h.finish())
    }

    /// A client with a caller-fixed seed: nonces and jitter draws are
    /// reproducible, which the chaos tests rely on.
    pub fn seeded(
        addr: impl Into<String>,
        timeout: Option<Duration>,
        policy: RetryPolicy,
        seed: u64,
    ) -> ResilientClient {
        let base = policy.base.as_millis().max(1) as u64;
        ResilientClient {
            addr: addr.into(),
            timeout,
            policy,
            rng: seed,
            conn: None,
            retries: 0,
            resets: 0,
            prev_sleep_ms: base,
        }
    }

    /// Requests that were retried after a retryable server rejection.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Connections dropped and re-dialed after a transport failure.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// A fresh non-zero idempotency nonce.
    pub fn nonce(&mut self) -> u64 {
        loop {
            let n = splitmix64(&mut self.rng);
            if n != 0 {
                return n;
            }
        }
    }

    fn conn(&mut self) -> Result<&mut Client, ClientError> {
        if self.conn.is_none() {
            let mut client = Client::connect(&self.addr).map_err(ClientError::Io)?;
            client.set_timeout(self.timeout).map_err(ClientError::Io)?;
            self.conn = Some(client);
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    /// Sleeps before the next attempt: the server's hint verbatim, or
    /// a decorrelated-jitter draw from `[base, 3 × previous]`.
    fn backoff(&mut self, hint: Option<u64>) {
        let base = self.policy.base.as_millis().max(1) as u64;
        let cap = self.policy.cap.as_millis().max(1) as u64;
        let ms = match hint {
            Some(ms) => ms.min(cap),
            None => {
                let upper = (self.prev_sleep_ms.saturating_mul(3)).max(base + 1);
                (base + splitmix64(&mut self.rng) % (upper - base)).min(cap)
            }
        };
        self.prev_sleep_ms = ms.max(1);
        std::thread::sleep(Duration::from_millis(ms));
    }

    /// Submits a job, retrying transport failures and retryable
    /// server rejections under one idempotency nonce. The returned
    /// response is the job's single authoritative outcome no matter
    /// how many resubmissions it took.
    ///
    /// # Errors
    ///
    /// The last failure once [`RetryPolicy::max_attempts`] attempts
    /// are exhausted, or immediately for non-retryable ones.
    pub fn submit_idempotent(&mut self, job: &JobRequest) -> Result<Response, ClientError> {
        let mut job = job.clone();
        if job.nonce == 0 {
            job.nonce = self.nonce();
        }
        let attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            let last = attempt >= attempts;
            let outcome = match self.conn() {
                Ok(client) => client.submit(&job),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(Response::Error(e)) if e.code.retryable() && !last => {
                    // the connection is fine — only the request was
                    // turned away; honor the server's hint
                    self.retries += 1;
                    self.backoff(e.retry_after_ms);
                }
                Ok(response) => return Ok(response),
                Err(ClientError::Protocol(e)) => return Err(ClientError::Protocol(e)),
                Err(transport) => {
                    // reset/timeout/refused: the stream can no longer
                    // be trusted — reconnect and resubmit blindly
                    // (the nonce makes that safe)
                    self.conn = None;
                    self.resets += 1;
                    if last {
                        return Err(transport);
                    }
                    self.backoff(None);
                }
            }
        }
    }

    /// Fetches server counters, retrying transport failures.
    ///
    /// # Errors
    ///
    /// See [`ResilientClient::submit_idempotent`].
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            let outcome = match self.conn() {
                Ok(client) => client.stats(),
                Err(e) => Err(e),
            };
            match outcome {
                Ok(stats) => return Ok(stats),
                Err(ClientError::Protocol(e)) => return Err(ClientError::Protocol(e)),
                Err(transport) => {
                    self.conn = None;
                    self.resets += 1;
                    if attempt >= attempts {
                        return Err(transport);
                    }
                    self.backoff(None);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonces_are_deterministic_per_seed_and_never_zero() {
        let policy = RetryPolicy::default();
        let mut a = ResilientClient::seeded("127.0.0.1:1", None, policy, 7);
        let mut b = ResilientClient::seeded("127.0.0.1:1", None, policy, 7);
        let na: Vec<u64> = (0..32).map(|_| a.nonce()).collect();
        let nb: Vec<u64> = (0..32).map(|_| b.nonce()).collect();
        assert_eq!(na, nb);
        assert!(na.iter().all(|&n| n != 0));
        let mut c = ResilientClient::seeded("127.0.0.1:1", None, policy, 8);
        assert_ne!(na, (0..32).map(|_| c.nonce()).collect::<Vec<u64>>());
    }

    #[test]
    fn backoff_respects_hint_and_cap() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
        };
        let mut c = ResilientClient::seeded("127.0.0.1:1", None, policy, 3);
        // hint wins verbatim (capped), and seeds the next window
        c.backoff(Some(2));
        assert_eq!(c.prev_sleep_ms, 2);
        c.backoff(Some(10_000));
        assert_eq!(c.prev_sleep_ms, 5, "hints are capped");
        // jittered draws stay within [base, cap]
        for _ in 0..16 {
            c.backoff(None);
            assert!((1..=5).contains(&c.prev_sleep_ms), "{}", c.prev_sleep_ms);
        }
    }

    #[test]
    fn exhausted_attempts_surface_the_transport_error() {
        // nothing listens on this address: every attempt fails fast
        let policy = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
        };
        let mut c = ResilientClient::seeded("127.0.0.1:9", None, policy, 1);
        let err = c.submit_idempotent(&JobRequest::default()).unwrap_err();
        assert!(matches!(err, ClientError::Io(_) | ClientError::TimedOut));
        assert_eq!(c.resets(), 3, "every attempt dialed and failed");
    }
}
