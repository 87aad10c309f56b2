//! In-process replay of a job stream through the layers `rfvd` runs a
//! job through, with a span around each call into a layer: proto
//! encode/decode, spec parse and kernel build, the compile cache,
//! compile, predecode, engine slices, checkpoints, result rendering and
//! the spool. It mirrors `rfvd::server::run_job` from outside.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rfv_sim::{Checkpoint, PredecodedKernel, SlicedSim};
use rfvd::cache::{compile_flavored, CachedKernel, CompileCache};
use rfvd::persist::Spool;
use rfvd::proto::{CacheOutcome, JobResult, Request, Response};
use rfvd::spec::JobSpec;

use crate::load::{job_config, request};
use crate::spans::span;
use crate::stream::JobDesc;

/// The daemon's default preemption slice, in cycles.
pub const SLICE_CYCLES: u64 = 50_000;

/// Exact counts and sizes one replay pass produced.
#[derive(Default, PartialEq, Debug)]
pub struct Counts {
    pub compiles: u64,
    /// Predecoded items of every kernel compiled.
    pub items: u64,
    pub slices: u64,
    pub cycles: u64,
    pub instrs: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub proto_bytes: u64,
}

/// One replay pass.
pub struct Pass {
    pub counts: Counts,
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Per-job service seconds, in stream order.
    pub service_s: Vec<f64>,
    /// Spool journal / record-done call durations, seconds.
    pub spool_s: Vec<f64>,
    /// Per-job stats JSON, in stream order.
    pub stats: Vec<String>,
}

fn timed<R>(samples: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64());
    out
}

/// Replays `jobs` in order on this thread. `preemptions[i]` is how many
/// times the daemon preempted job `i`; the replay checkpoints and
/// resumes it at that many slice boundaries. `primed` jobs go through
/// the cache first, unrecorded, as the daemon's priming did.
pub fn replay(
    jobs: &[JobDesc],
    preemptions: &[u32],
    primed: &[JobDesc],
    spool_dir: &Path,
) -> Result<Pass, String> {
    let cache = CompileCache::unbounded();
    let spool = Spool::open(spool_dir).map_err(|e| format!("spool: {e}"))?;
    let mut counts = Counts::default();
    for job in primed {
        let spec = JobSpec::parse(&job.spec)?;
        let flags = job_config(job.machine).regfile.policy.uses_release_flags();
        cache.get_or_build(spec.cache_key(flags), || {
            CachedKernel::build(&spec.build_kernel(), flags)
        })?;
    }
    let mut service_s = Vec::with_capacity(jobs.len());
    let mut spool_s = Vec::with_capacity(2 * jobs.len());
    let mut stats = Vec::with_capacity(jobs.len());
    let start = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        crate::spans::set_job(i as u64 + 1);
        let t = Instant::now();
        let json = span("rfvd.job", || {
            replay_one(
                job,
                preemptions[i],
                &cache,
                &spool,
                &mut counts,
                &mut spool_s,
            )
        })?;
        service_s.push(t.elapsed().as_secs_f64());
        stats.push(json);
    }
    Ok(Pass {
        counts,
        wall_s: start.elapsed().as_secs_f64(),
        service_s,
        spool_s,
        stats,
    })
}

fn replay_one(
    job: &JobDesc,
    preemptions: u32,
    cache: &CompileCache,
    spool: &Spool,
    counts: &mut Counts,
    spool_s: &mut Vec<f64>,
) -> Result<String, String> {
    let wire = span("rfvd.proto", || Request::Submit(request(job)).encode());
    counts.proto_bytes += wire.len() as u64;
    let req = match span("rfvd.proto", || Request::decode(&wire)) {
        Ok(Request::Submit(req)) => req,
        other => return Err(format!("request round trip: {other:?}")),
    };
    let spec = span("rfvd.spec", || JobSpec::parse(&req.spec))?;
    let config = job_config(&req.machine);
    let flags = config.regfile.policy.uses_release_flags();
    let id = timed(spool_s, || span("rfvd.spool", || spool.journal(&req)))
        .map_err(|e| format!("journal: {e}"))?;

    let mut built = None;
    let (cached, hit) = span("rfvd.cache", || {
        cache.get_or_build(spec.cache_key(flags), || {
            let kernel = span("rfvd.spec", || spec.build_kernel());
            let compiled = span("compiler", || compile_flavored(&kernel, flags))?;
            let predecoded = span("sim.predecode", || PredecodedKernel::new(&compiled));
            built = Some(predecoded.len() as u64);
            Ok(CachedKernel {
                compiled: Arc::new(compiled),
                predecoded: Arc::new(predecoded),
            })
        })
    })?;
    if let Some(items) = built {
        counts.compiles += 1;
        counts.items += items;
    }

    let prog = Arc::clone(&cached.predecoded);
    let new_sim = || SlicedSim::with_predecoded(&cached.compiled, &config, &[], 0, prog);
    let mut sim = span("sim.build", new_sim).map_err(|e| e.to_string())?;
    let mut preempted = 0;
    loop {
        counts.slices += 1;
        if span("sim.engine", || sim.advance(SLICE_CYCLES)).map_err(|e| e.to_string())? {
            break;
        }
        if preempted < preemptions && !job.high {
            preempted += 1;
            let bytes = span("sim.checkpoint", || sim.checkpoint().to_bytes());
            counts.checkpoints += 1;
            counts.checkpoint_bytes += bytes.len() as u64;
            // the daemon journals every preemption snapshot
            span("rfvd.spool", || {
                spool.record_checkpoint(id, preempted, &bytes)
            })
            .map_err(|e| format!("checkpoint record: {e}"))?;
            sim = span("sim.checkpoint", || {
                let ckpt = Checkpoint::from_bytes(&bytes)?;
                let prog = Arc::clone(&cached.predecoded);
                SlicedSim::resume_with_predecoded(&cached.compiled, &config, &ckpt, prog)
            })
            .map_err(|e| e.to_string())?;
        }
    }

    let result = span("rfvd.render", || {
        sim.finish().map(|run| JobResult {
            cycles: run.result.cycles,
            instrs: run.result.total(|s| s.instrs_issued),
            cache: if hit {
                CacheOutcome::Hit
            } else {
                CacheOutcome::Miss
            },
            preemptions: 0,
            stats_json: rfvd::result_stats_json(&run.result, config.num_sms),
        })
    })
    .map_err(|e| e.to_string())?;
    counts.cycles += result.cycles;
    counts.instrs += result.instrs;
    let json = result.stats_json.clone();
    let response = Response::Result(result);
    timed(spool_s, || {
        span("rfvd.spool", || spool.record_done(id, &response))
    })
    .map_err(|e| format!("record done: {e}"))?;
    let wire = span("rfvd.proto", || response.encode());
    counts.proto_bytes += wire.len() as u64;
    span("rfvd.proto", || Response::decode(&wire)).map_err(|e| e.to_string())?;
    Ok(json)
}
