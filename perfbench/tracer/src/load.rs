//! Closed-loop load against a live `rfvd`, and the in-process oracle
//! every reply is checked against.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rfv_bench::harness::machine_config;
use rfv_sim::SimConfig;
use rfvd::cache::compile_flavored;
use rfvd::client::Client;
use rfvd::proto::{CacheOutcome, JobRequest, Priority, Response, ServerStats};
use rfvd::spec::JobSpec;

use crate::stream::JobDesc;

/// SM count of every job: one SM keeps a job's simulated work small
/// enough for a closed loop to complete hundreds of jobs per second.
pub const SMS: u32 = 1;

/// What one submission came back with.
pub struct Outcome {
    /// Index into the job stream.
    pub idx: usize,
    /// Round trip, send to reply.
    pub rtt_s: f64,
    /// The reply, or why there was none.
    pub reply: Result<rfvd::proto::JobResult, String>,
}

pub fn request(job: &JobDesc) -> JobRequest {
    JobRequest {
        spec: job.spec.clone(),
        machine: job.machine.to_string(),
        num_sms: SMS,
        max_cycles: None,
        priority: if job.high {
            Priority::High
        } else {
            Priority::Normal
        },
        use_cache: true,
        nonce: job.nonce,
    }
}

/// The machine configuration a daemon derives from a request.
pub fn job_config(machine: &str) -> SimConfig {
    let mut config = machine_config(machine).expect("generated machine names are valid");
    config.num_sms = SMS as usize;
    config.validate().expect("generated configs are valid");
    config
}

/// Runs `jobs` from two connections in a closed loop: each connection
/// sends its next job only after the previous reply. New jobs start
/// until `seconds` have passed (or `jobs` runs out); jobs in flight at
/// the deadline complete and count.
pub fn closed_loop(addr: &str, jobs: &[JobDesc], seconds: f64) -> (Vec<Outcome>, f64) {
    let next = AtomicUsize::new(0);
    let outcomes = Mutex::new(Vec::new());
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut mine = Vec::new();
                let mut client = Client::connect(addr).ok();
                while start.elapsed() < deadline {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= jobs.len() {
                        break;
                    }
                    let req = request(&jobs[idx]);
                    let sent = Instant::now();
                    let reply = match client.as_mut() {
                        None => Err("cannot connect".to_string()),
                        Some(c) => match c.submit(&req) {
                            Ok(Response::Result(r)) => Ok(r),
                            Ok(Response::Error(e)) => Err(format!("rejected: {e}")),
                            Ok(Response::Stats(_)) => Err("stats reply to a submit".into()),
                            Err(e) => {
                                client = Client::connect(addr).ok();
                                Err(format!("transport: {e}"))
                            }
                        },
                    };
                    mine.push(Outcome {
                        idx,
                        rtt_s: sent.elapsed().as_secs_f64(),
                        reply,
                    });
                }
                outcomes.lock().expect("outcome lock").extend(mine);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut out = outcomes.into_inner().expect("outcome lock");
    out.sort_by_key(|o| o.idx);
    (out, wall)
}

/// Fetches the daemon's counters on a fresh connection.
pub fn stats(addr: &str) -> Result<ServerStats, String> {
    let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
    c.stats().map_err(|e| e.to_string())
}

/// The reply an in-process run of (spec, machine) must match: the
/// stats JSON of `rfv_sim`, rendered by the daemon's own renderer.
pub fn expected_stats(spec: &str, machine: &str) -> Result<String, String> {
    let spec = JobSpec::parse(spec)?;
    let config = job_config(machine);
    let kernel = spec.build_kernel();
    let compiled = compile_flavored(&kernel, config.regfile.policy.uses_release_flags())?;
    let result = rfv_sim::simulate(&compiled, &config).map_err(|e| e.to_string())?;
    Ok(rfvd::result_stats_json(&result, config.num_sms))
}

/// Checks every successful reply byte for byte against
/// [`expected_stats`], computing each distinct (spec, machine) once on
/// two threads. Returns the number of replies that did not match.
pub fn oracle(jobs: &[JobDesc], outcomes: &[Outcome]) -> usize {
    let mut keys: BTreeMap<(&str, &str), Option<Result<String, String>>> = BTreeMap::new();
    for o in outcomes.iter().filter(|o| o.reply.is_ok()) {
        keys.insert((&jobs[o.idx].spec, jobs[o.idx].machine), None);
    }
    let todo: Vec<(&str, &str)> = keys.keys().copied().collect();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(spec, machine)) = todo.get(i) else {
                    break;
                };
                let want = expected_stats(spec, machine);
                done.lock()
                    .expect("oracle lock")
                    .push(((spec, machine), want));
            });
        }
    });
    for (key, want) in done.into_inner().expect("oracle lock") {
        keys.insert(key, Some(want));
    }
    let mut wrong = 0;
    for o in outcomes {
        if let Ok(r) = &o.reply {
            let job = &jobs[o.idx];
            let want = keys[&(job.spec.as_str(), job.machine)].as_ref();
            if !matches!(want, Some(Ok(w)) if *w == r.stats_json) {
                eprintln!("perfbench: wrong stats for {} on {}", job.spec, job.machine);
                wrong += 1;
            }
        }
    }
    wrong
}

/// The cache outcome a reply is required to show on a workload.
pub fn cache_ok(reply: &rfvd::proto::JobResult, want_hit: bool) -> bool {
    reply.cache
        == if want_hit {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        }
}
