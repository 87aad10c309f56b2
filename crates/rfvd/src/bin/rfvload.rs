//! `rfvload` — load generator for an `rfvd` server.
//!
//! ```text
//! rfvload ADDR [--connections N] [--requests N] [--spec S1,S2,...]
//!         [--machine M] [--sms N] [--high-every K] [--no-cache]
//!         [--timeout-ms N] [--retries N] [--retry-base-ms N] [--seed N]
//!         [--compare-cache] [--out FILE.json]
//! rfvload ADDR --stats
//! ```
//!
//! Opens `--connections` concurrent connections; each replays the
//! workload mix round-robin for `--requests` submissions. Reports
//! jobs/sec, latency percentiles (p50/p90/p99), rejection rate, and
//! cache outcomes, optionally as machine-readable `rfv-load-v1` JSON.
//!
//! `--compare-cache` runs the same mix twice — cold (cache bypassed)
//! then warm (cache primed) — and prints the warm/cold speedup, the
//! daemon's headline number for repeat-kernel submissions.
//!
//! `--stats` submits nothing: it prints the daemon's counters
//! (`ServerStats`) as one JSON line and exits, so a shell script can
//! watch a daemon without reading its files.
//!
//! `--timeout-ms` bounds each submission: a stalled daemon costs one
//! counted timeout and a reconnect, never a wedged load generator.
//!
//! Every submission rides a `ResilientClient` with an idempotency
//! nonce, so `--retries N` survives connection resets, timeouts, and
//! brownout `retry-after` rejections without ever running a job
//! twice; the report counts `retries` and `resets` so a chaos run's
//! turbulence is visible next to its throughput.

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rfvd::client::{Client, ClientError, ResilientClient, RetryPolicy};
use rfvd::proto::{CacheOutcome, JobRequest, Priority, Response};

fn usage() -> ! {
    eprintln!(
        "usage: rfvload ADDR [--connections N] [--requests N] [--spec S1,S2,...]\n\
         \x20              [--machine M] [--sms N] [--high-every K] [--no-cache]\n\
         \x20              [--timeout-ms N] [--retries N] [--retry-base-ms N]\n\
         \x20              [--seed N] [--compare-cache] [--out FILE.json]\n\
         \x20      rfvload ADDR --stats\n\
         \n\
         \x20 ADDR              server address, e.g. 127.0.0.1:4650\n\
         \x20 --connections N   concurrent client connections (default 4)\n\
         \x20 --requests N      submissions per connection (default 16)\n\
         \x20 --spec LIST       comma-free workload mix, ';'-separated\n\
         \x20                   (default 'synth:regs=24,trips=2,rep=32')\n\
         \x20 --machine M       machine config for every job (default full)\n\
         \x20 --sms N           SM count override (default 1)\n\
         \x20 --high-every K    every Kth job is high priority (0 = never)\n\
         \x20 --no-cache        bypass the server's compile cache\n\
         \x20 --timeout-ms N    per-request response deadline; an expiry counts\n\
         \x20                   a timeout and reconnects (default 0 = wait forever)\n\
         \x20 --retries N       resubmit each job up to N extra times after a\n\
         \x20                   reset, timeout, or retry-after rejection, under\n\
         \x20                   one idempotency nonce (default 0 = never)\n\
         \x20 --retry-base-ms N backoff floor between retries (default 25)\n\
         \x20 --seed N          nonce/jitter determinism seed (default: entropy)\n\
         \x20 --compare-cache   measure cold (bypass) vs warm (primed) throughput\n\
         \x20 --stats           print the daemon's counters as one JSON line and exit\n\
         \x20 --out FILE        write an rfv-load-v1 JSON report"
    );
    std::process::exit(2)
}

#[derive(Clone)]
struct LoadSpec {
    addr: String,
    connections: usize,
    requests: usize,
    specs: Vec<String>,
    machine: String,
    sms: u32,
    high_every: usize,
    use_cache: bool,
    /// Per-request response deadline in ms; 0 waits forever.
    timeout_ms: u64,
    /// Extra attempts per job after a retryable failure; 0 = one shot.
    retries: u32,
    /// Backoff floor between retries, in ms.
    retry_base_ms: u64,
    /// Nonce/jitter seed; None draws entropy per connection.
    seed: Option<u64>,
}

impl LoadSpec {
    fn timeout(&self) -> Option<Duration> {
        (self.timeout_ms > 0).then(|| Duration::from_millis(self.timeout_ms))
    }

    fn policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.retries + 1,
            base: Duration::from_millis(self.retry_base_ms.max(1)),
            ..RetryPolicy::default()
        }
    }
}

#[derive(Default)]
struct Tally {
    ok: u64,
    rejected: u64,
    failed: u64,
    timeouts: u64,
    retries: u64,
    resets: u64,
    hits: u64,
    misses: u64,
    bypass: u64,
    preemptions: u64,
    latencies_us: Vec<u64>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.ok += other.ok;
        self.rejected += other.rejected;
        self.failed += other.failed;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.resets += other.resets;
        self.hits += other.hits;
        self.misses += other.misses;
        self.bypass += other.bypass;
        self.preemptions += other.preemptions;
        self.latencies_us.extend(other.latencies_us);
    }
}

struct Report {
    wall_secs: f64,
    jobs_per_sec: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    rejection_rate: f64,
    tally: Tally,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn run_pass(load: &LoadSpec) -> Report {
    let barrier = Arc::new(Barrier::new(load.connections));
    let job_counter = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for conn_idx in 0..load.connections {
            let barrier = Arc::clone(&barrier);
            let job_counter = Arc::clone(&job_counter);
            handles.push(scope.spawn(move || {
                let mut client = match load.seed {
                    Some(seed) => ResilientClient::seeded(
                        load.addr.clone(),
                        load.timeout(),
                        load.policy(),
                        // decorrelate per-connection nonce streams
                        seed ^ (conn_idx as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    ),
                    None => ResilientClient::new(load.addr.clone(), load.timeout(), load.policy()),
                };
                let mut t = Tally::default();
                barrier.wait();
                for _ in 0..load.requests {
                    let seq = job_counter.fetch_add(1, Ordering::Relaxed) as usize;
                    let spec = load.specs[seq % load.specs.len()].clone();
                    let priority = if load.high_every > 0 && seq.is_multiple_of(load.high_every) {
                        Priority::High
                    } else {
                        Priority::Normal
                    };
                    let job = JobRequest {
                        spec,
                        machine: load.machine.clone(),
                        num_sms: load.sms,
                        max_cycles: None,
                        priority,
                        use_cache: load.use_cache,
                        nonce: 0, // the client mints one per submission
                    };
                    let sent = Instant::now();
                    match client.submit_idempotent(&job) {
                        Ok(Response::Result(r)) => {
                            t.ok += 1;
                            t.latencies_us.push(sent.elapsed().as_micros() as u64);
                            t.preemptions += u64::from(r.preemptions);
                            match r.cache {
                                CacheOutcome::Hit => t.hits += 1,
                                CacheOutcome::Miss => t.misses += 1,
                                CacheOutcome::Bypass => t.bypass += 1,
                            }
                        }
                        Ok(Response::Error(e)) if e.code.retryable() => {
                            // queue-full / retry-after / shutting-down:
                            // back pressure the daemon chose to apply,
                            // not a failure
                            t.rejected += 1;
                        }
                        Ok(Response::Error(e)) => {
                            eprintln!("rfvload: job failed: {e}");
                            t.failed += 1;
                        }
                        Ok(Response::Stats(_)) => {
                            eprintln!("rfvload: stats reply to a submit");
                            t.failed += 1;
                        }
                        Err(ClientError::TimedOut) => {
                            // the client already dropped the stalled
                            // connection; the next submit re-dials
                            t.timeouts += 1;
                        }
                        Err(e) => {
                            eprintln!("rfvload: transport error: {e}");
                            t.failed += 1;
                            break;
                        }
                    }
                }
                t.retries = client.retries();
                t.resets = client.resets();
                t
            }));
        }
        for h in handles {
            tally.absorb(h.join().expect("load thread panicked"));
        }
    });
    let wall_secs = started.elapsed().as_secs_f64();
    let mut sorted = tally.latencies_us.clone();
    sorted.sort_unstable();
    let attempts = tally.ok + tally.rejected + tally.failed + tally.timeouts;
    Report {
        wall_secs,
        jobs_per_sec: tally.ok as f64 / wall_secs.max(1e-9),
        p50_us: percentile(&sorted, 0.50),
        p90_us: percentile(&sorted, 0.90),
        p99_us: percentile(&sorted, 0.99),
        rejection_rate: if attempts == 0 {
            0.0
        } else {
            tally.rejected as f64 / attempts as f64
        },
        tally,
    }
}

fn print_report(label: &str, r: &Report) {
    println!(
        "{label}: {ok} ok, {rej} rejected, {fail} failed, {to} timed out in {wall:.3}s -> {jps:.1} jobs/s ({retries} retries, {resets} resets)",
        ok = r.tally.ok,
        rej = r.tally.rejected,
        fail = r.tally.failed,
        to = r.tally.timeouts,
        wall = r.wall_secs,
        jps = r.jobs_per_sec,
        retries = r.tally.retries,
        resets = r.tally.resets,
    );
    println!(
        "{label}: latency p50 {p50}us p90 {p90}us p99 {p99}us | cache {h} hit / {m} miss / {b} bypass | {pre} preemptions",
        p50 = r.p50_us,
        p90 = r.p90_us,
        p99 = r.p99_us,
        h = r.tally.hits,
        m = r.tally.misses,
        b = r.tally.bypass,
        pre = r.tally.preemptions,
    );
}

fn report_json(r: &Report) -> String {
    format!(
        "{{\n    \"jobs_per_sec\": {jps:.3},\n    \"wall_secs\": {wall:.6},\n    \
         \"ok\": {ok},\n    \"rejected\": {rej},\n    \"failed\": {fail},\n    \"timeouts\": {to},\n    \
         \"retries\": {retries},\n    \"resets\": {resets},\n    \
         \"rejection_rate\": {rr:.6},\n    \"latency_us\": {{\"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}}},\n    \
         \"cache\": {{\"hit\": {h}, \"miss\": {m}, \"bypass\": {b}}},\n    \
         \"preemptions\": {pre}\n  }}",
        jps = r.jobs_per_sec,
        wall = r.wall_secs,
        ok = r.tally.ok,
        rej = r.tally.rejected,
        fail = r.tally.failed,
        to = r.tally.timeouts,
        retries = r.tally.retries,
        resets = r.tally.resets,
        rr = r.rejection_rate,
        p50 = r.p50_us,
        p90 = r.p90_us,
        p99 = r.p99_us,
        h = r.tally.hits,
        m = r.tally.misses,
        b = r.tally.bypass,
        pre = r.tally.preemptions,
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(addr) = args.next() else { usage() };
    if addr.starts_with('-') {
        usage()
    }
    let mut load = LoadSpec {
        addr,
        connections: 4,
        requests: 16,
        specs: vec!["synth:regs=24,trips=2,rep=32".into()],
        machine: "full".into(),
        sms: 1,
        high_every: 0,
        use_cache: true,
        timeout_ms: 0,
        retries: 0,
        retry_base_ms: 25,
        seed: None,
    };
    let mut compare_cache = false;
    let mut stats = false;
    let mut out: Option<String> = None;
    let parse = |flag: &str, v: Option<String>| -> usize {
        v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("rfvload: {flag} needs a numeric argument");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connections" => load.connections = parse("--connections", args.next()).max(1),
            "--requests" => load.requests = parse("--requests", args.next()),
            "--spec" => {
                let list = args.next().unwrap_or_else(|| usage());
                load.specs = list
                    .split(';')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect();
                if load.specs.is_empty() {
                    usage()
                }
            }
            "--machine" => load.machine = args.next().unwrap_or_else(|| usage()),
            "--sms" => load.sms = parse("--sms", args.next()) as u32,
            "--high-every" => load.high_every = parse("--high-every", args.next()),
            "--no-cache" => load.use_cache = false,
            "--timeout-ms" => load.timeout_ms = parse("--timeout-ms", args.next()) as u64,
            "--retries" => load.retries = parse("--retries", args.next()) as u32,
            "--retry-base-ms" => {
                load.retry_base_ms = parse("--retry-base-ms", args.next()) as u64;
            }
            "--seed" => load.seed = Some(parse("--seed", args.next()) as u64),
            "--compare-cache" => compare_cache = true,
            "--stats" => stats = true,
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("rfvload: unknown flag {other:?}");
                usage()
            }
        }
    }

    if stats {
        let snapshot = (|| -> Result<_, ClientError> {
            let mut client = Client::connect(&load.addr)?;
            client.set_timeout(load.timeout())?;
            client.stats()
        })();
        match snapshot {
            Ok(s) => println!("{}", s.to_json()),
            Err(e) => {
                eprintln!("rfvload: stats from {}: {e}", load.addr);
                std::process::exit(1);
            }
        }
    } else if compare_cache {
        // cold: every job compiles for itself
        let cold_load = LoadSpec {
            use_cache: false,
            ..load.clone()
        };
        let cold = run_pass(&cold_load);
        print_report("cold", &cold);
        // prime the cache once per distinct spec, then measure warm
        let mut primer = Client::connect(&load.addr).unwrap_or_else(|e| {
            eprintln!("rfvload: cannot connect: {e}");
            std::process::exit(1);
        });
        let _ = primer.set_timeout(load.timeout());
        for spec in &load.specs {
            let job = JobRequest {
                spec: spec.clone(),
                machine: load.machine.clone(),
                num_sms: load.sms,
                use_cache: true,
                ..JobRequest::default()
            };
            if let Ok(Response::Error(e)) = primer.submit(&job) {
                eprintln!("rfvload: priming {spec:?} failed: {e}");
            }
        }
        let warm_load = LoadSpec {
            use_cache: true,
            ..load.clone()
        };
        let warm = run_pass(&warm_load);
        print_report("warm", &warm);
        let speedup = warm.jobs_per_sec / cold.jobs_per_sec.max(1e-9);
        println!("warm/cold speedup: {speedup:.2}x");
        if let Some(path) = out {
            let json = format!(
                "{{\n  \"schema\": \"rfv-load-v1\",\n  \"mode\": \"compare-cache\",\n  \
                 \"connections\": {conns},\n  \"requests_per_connection\": {reqs},\n  \
                 \"cold\": {cold},\n  \"warm\": {warm},\n  \"speedup\": {speedup:.3}\n}}\n",
                conns = load.connections,
                reqs = load.requests,
                cold = report_json(&cold),
                warm = report_json(&warm),
            );
            write_out(&path, &json);
        }
    } else {
        let report = run_pass(&load);
        print_report("load", &report);
        if let Some(path) = out {
            let json = format!(
                "{{\n  \"schema\": \"rfv-load-v1\",\n  \"mode\": \"load\",\n  \
                 \"connections\": {conns},\n  \"requests_per_connection\": {reqs},\n  \
                 \"result\": {body}\n}}\n",
                conns = load.connections,
                reqs = load.requests,
                body = report_json(&report),
            );
            write_out(&path, &json);
        }
    }
}

fn write_out(path: &str, json: &str) {
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("rfvload: cannot write {path}: {e}");
        std::process::exit(1);
    });
    f.write_all(json.as_bytes()).expect("write report");
    eprintln!("rfvload: wrote {path}");
}
