//! Multi-SM GPU wrapper: distributes a grid's CTAs across SMs and
//! aggregates statistics.
//!
//! SMs in this model do not share state (the workloads are
//! embarrassingly parallel at CTA granularity and the paper's metrics
//! are per-SM ratios), so each SM runs to completion independently and
//! the GPU's execution time is the slowest SM's.
//!
//! # Parallel execution
//!
//! Because SMs are independent, multi-SM runs execute each SM on the
//! process-wide persistent worker pool ([`rfv_pool`]) and merge the
//! results afterwards — repeated runs (sweep rows, benchmark repeats,
//! `rfvd` job slices) reuse one set of threads instead of spawning a
//! scope per run. The merge is deterministic: per-SM statistics and
//! memories are collected in SM order regardless of thread completion
//! order, and trace events are combined by [`rfv_trace::merge_shards`]
//! on the total key `(cycle, sm, seq)` — so a parallel run is
//! bit-identical to a sequential one. [`SimConfig::sm_jobs`] (or the
//! `RFV_JOBS` environment variable, checked when the config leaves it
//! `None`) forces the worker count; `1` restores the sequential path.
//!
//! Each run also predecodes (and plan-lowers, see [`crate::sm::plan`])
//! the kernel exactly once, sharing the image across its SMs.

use std::sync::Arc;

use rfv_compiler::CompiledKernel;
use rfv_trace::TraceEvent;

use crate::checkpoint::{Checkpoint, CKPT_VERSION};
use crate::config::SimConfig;
use crate::memory::GlobalMemory;
use crate::predecode::PredecodedKernel;
use crate::sm::{SimError, Sm, SmResult};
use crate::stats::SimStats;

/// Result of a whole-GPU simulation.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// GPU execution time: the slowest SM's cycle count.
    pub cycles: u64,
    /// Per-SM statistics.
    pub per_sm: Vec<SimStats>,
    /// Per-SM final global memories (SMs are independent; workload
    /// verification reads the SM that ran the CTA of interest).
    pub memories: Vec<GlobalMemory>,
}

impl SimResult {
    /// Statistics of SM 0 (the usual reporting SM).
    ///
    /// Always present: configurations with zero SMs are rejected with
    /// [`SimError::BadConfig`] before any simulation runs, so every
    /// constructed `SimResult` holds at least one SM.
    pub fn sm0(&self) -> &SimStats {
        &self.per_sm[0]
    }

    /// Sums a per-SM counter.
    pub fn total<F: Fn(&SimStats) -> u64>(&self, f: F) -> u64 {
        self.per_sm.iter().map(f).sum()
    }
}

/// A [`SimResult`] together with the structured trace it produced.
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// The simulation outcome (identical to an untraced run).
    pub result: SimResult,
    /// All SMs' trace events, merged and sorted by cycle (per-SM
    /// relative order preserved).
    pub events: Vec<TraceEvent>,
}

/// Runs `kernel` on a GPU configured by `config`, with CTAs
/// distributed round-robin across SMs. `init` pre-loads global
/// memory on every SM (each SM has a private copy of the address
/// space).
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate_with_init(
    kernel: &CompiledKernel,
    config: &SimConfig,
    init: &[(u64, u32)],
) -> Result<SimResult, SimError> {
    Ok(run_all(kernel, config, init, 0)?.result)
}

/// [`simulate`] with structured tracing: every SM records up to
/// `trace_capacity` events in a bounded ring (capacity `0` disables
/// tracing entirely, compiling the instrumentation down to untaken
/// branches).
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate_traced(
    kernel: &CompiledKernel,
    config: &SimConfig,
    trace_capacity: usize,
) -> Result<TracedRun, SimError> {
    run_all(kernel, config, &[], trace_capacity)
}

/// [`simulate_with_init`] with structured tracing; see
/// [`simulate_traced`].
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate_traced_with_init(
    kernel: &CompiledKernel,
    config: &SimConfig,
    init: &[(u64, u32)],
    trace_capacity: usize,
) -> Result<TracedRun, SimError> {
    run_all(kernel, config, init, trace_capacity)
}

/// Worker threads for SM execution: the config's `sm_jobs` if set,
/// else the `RFV_JOBS` environment variable, else the machine's
/// available parallelism — never more than the SM count.
fn sm_workers(config: &SimConfig) -> usize {
    config
        .sm_jobs
        .or_else(|| {
            std::env::var("RFV_JOBS")
                .ok()
                .and_then(|v| v.parse().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .min(config.num_sms)
        .max(1)
}

fn run_all(
    kernel: &CompiledKernel,
    config: &SimConfig,
    init: &[(u64, u32)],
    trace_capacity: usize,
) -> Result<TracedRun, SimError> {
    // reject zero-SM (and other degenerate) configs before the CTA
    // distribution below divides by num_sms or reporting indexes SM 0
    config.validate().map_err(SimError::BadConfig)?;
    // predecode + plan-lower once; every SM of the run shares the image
    let prog = Arc::new(PredecodedKernel::new(kernel));
    let run_one = |sm_id: usize, assigned: Vec<u32>| -> Result<crate::sm::SmResult, SimError> {
        let mut sm = Sm::with_predecoded(*config, kernel, assigned, Arc::clone(&prog))?;
        sm.set_tracing(sm_id as u16, trace_capacity);
        sm.preload_global(init);
        sm.run()
    };
    run_sms(config, cta_assignments(kernel, config), run_one)
}

/// Executes one closure per SM — sequentially, or on the persistent
/// worker pool — collecting results in SM order, and merges them. A
/// panicked worker surfaces as [`SimError::WorkerPanic`].
fn run_sms(
    config: &SimConfig,
    assignments: Vec<Vec<u32>>,
    run_one: impl Fn(usize, Vec<u32>) -> Result<SmResult, SimError> + Sync,
) -> Result<TracedRun, SimError> {
    let workers = sm_workers(config);
    let results: Vec<Result<SmResult, SimError>> = if workers == 1 {
        assignments
            .into_iter()
            .enumerate()
            .map(|(sm_id, assigned)| run_one(sm_id, assigned))
            .collect()
    } else {
        let jobs: Vec<(usize, Vec<u32>)> = assignments.into_iter().enumerate().collect();
        rfv_pool::par_map_catching_with(workers, &jobs, |(sm_id, assigned)| {
            run_one(*sm_id, assigned.clone())
        })
        .into_iter()
        .map(|r| r.unwrap_or(Err(SimError::WorkerPanic)))
        .collect()
    };
    merge_results(config, results)
}

/// Deterministic merge of per-SM results collected in SM order.
fn merge_results(
    config: &SimConfig,
    results: Vec<Result<SmResult, SimError>>,
) -> Result<TracedRun, SimError> {
    let mut per_sm = Vec::with_capacity(config.num_sms);
    let mut memories = Vec::with_capacity(config.num_sms);
    let mut shards: Vec<Vec<TraceEvent>> = Vec::with_capacity(config.num_sms);
    let mut cycles = 0;
    for result in results {
        let result = result?;
        cycles = cycles.max(result.stats.cycles);
        per_sm.push(result.stats);
        memories.push(result.global);
        shards.push(result.events);
    }
    Ok(TracedRun {
        result: SimResult {
            cycles,
            per_sm,
            memories,
        },
        events: rfv_trace::merge_shards(shards),
    })
}

/// Round-robin CTA distribution across SMs — the single source of
/// truth shared by fresh, checkpointed, and resumed runs, so a frame
/// snapshotted on SM *i* always restores onto the SM holding the same
/// CTA list.
fn cta_assignments(kernel: &CompiledKernel, config: &SimConfig) -> Vec<Vec<u32>> {
    let grid = kernel.kernel().launch().grid_ctas();
    let mut assignments: Vec<Vec<u32>> = vec![Vec::new(); config.num_sms];
    for cta in 0..grid {
        assignments[(cta as usize) % config.num_sms].push(cta);
    }
    assignments
}

/// [`simulate_traced_with_init`] that additionally snapshots the whole
/// machine every `every` cycles, handing each [`Checkpoint`] to
/// `on_checkpoint` (typically an atomic file writer). The run itself
/// is bit-identical to an uncheckpointed one: SMs advance in lockstep
/// boundary rounds and snapshots are taken with read-only access at
/// step boundaries. Checkpoints stop once every SM has completed (a
/// snapshot of a finished machine has nothing left to resume).
///
/// # Errors
///
/// See [`SimError`]; an `Err` from `on_checkpoint` aborts the run
/// as [`SimError::BadCheckpoint`] (checkpoints already handed over
/// remain valid).
pub fn simulate_traced_checkpointed(
    kernel: &CompiledKernel,
    config: &SimConfig,
    init: &[(u64, u32)],
    trace_capacity: usize,
    every: u64,
    on_checkpoint: &mut dyn FnMut(&Checkpoint) -> Result<(), String>,
) -> Result<TracedRun, SimError> {
    if every == 0 {
        return Err(SimError::BadConfig(
            "checkpoint interval must be positive".into(),
        ));
    }
    let mut sim = SlicedSim::new(kernel, config, init, trace_capacity)?;
    loop {
        if sim.advance(every)? {
            break;
        }
        let ck = sim.checkpoint();
        on_checkpoint(&ck).map_err(|e| {
            SimError::BadCheckpoint(format!("checkpoint at cycle {} not written: {e}", ck.cycle))
        })?;
    }
    sim.finish()
}

/// An incrementally-driven whole-GPU simulation: the machine state
/// stays live between [`SlicedSim::advance`] calls, so a long run can
/// be executed in bounded cycle slices, snapshotted at any boundary,
/// handed off as a [`Checkpoint`], and picked up again later by
/// [`SlicedSim::resume`] — the mechanism behind `rfvd`'s
/// checkpoint-backed job preemption.
///
/// Slicing is invisible in the results: SMs advance in lockstep
/// boundary rounds exactly as [`simulate_traced_checkpointed`] does,
/// so a run driven in any mix of slice sizes — including one that is
/// checkpointed, dropped, and resumed in a different process —
/// finishes with stats, memories, and trace bit-identical to an
/// uninterrupted [`simulate_traced`] run.
pub struct SlicedSim<'k> {
    config: SimConfig,
    config_hash: u64,
    kernel_hash: u64,
    sms: Vec<Sm<'k>>,
    done: Vec<bool>,
    /// The cycle boundary every live SM has been driven to.
    cycle: u64,
}

impl<'k> SlicedSim<'k> {
    /// Builds a fresh machine ready to run `kernel`, with `init`
    /// pre-loaded into every SM's global memory (see
    /// [`simulate_with_init`]) and per-SM tracing capacity
    /// `trace_capacity` (0 disables tracing).
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn new(
        kernel: &'k CompiledKernel,
        config: &SimConfig,
        init: &[(u64, u32)],
        trace_capacity: usize,
    ) -> Result<SlicedSim<'k>, SimError> {
        let prog = Arc::new(PredecodedKernel::new(kernel));
        SlicedSim::with_predecoded(kernel, config, init, trace_capacity, prog)
    }

    /// [`SlicedSim::new`] reusing an already-predecoded program image
    /// (see [`Sm::with_predecoded`]) — the `rfvd` compile+predecode
    /// cache hands every run of a cached kernel the same `Arc`.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn with_predecoded(
        kernel: &'k CompiledKernel,
        config: &SimConfig,
        init: &[(u64, u32)],
        trace_capacity: usize,
        prog: Arc<PredecodedKernel>,
    ) -> Result<SlicedSim<'k>, SimError> {
        config.validate().map_err(SimError::BadConfig)?;
        let mut sms = Vec::with_capacity(config.num_sms);
        for (sm_id, assigned) in cta_assignments(kernel, config).into_iter().enumerate() {
            let mut sm = Sm::with_predecoded(*config, kernel, assigned, Arc::clone(&prog))?;
            sm.set_tracing(sm_id as u16, trace_capacity);
            sm.preload_global(init);
            sms.push(sm);
        }
        let done = vec![false; sms.len()];
        Ok(SlicedSim {
            config: *config,
            config_hash: config.stable_hash(),
            kernel_hash: prog.kernel_hash(),
            sms,
            done,
            cycle: 0,
        })
    }

    /// Restores a machine from `checkpoint` (identity-verified against
    /// `kernel` and `config`) so a preempted run can continue. Tracing
    /// state — ring capacity and contents — is restored from the
    /// frames themselves.
    ///
    /// # Errors
    ///
    /// [`SimError::BadCheckpoint`] when the checkpoint does not belong
    /// to (`kernel`, `config`) or a frame is malformed; otherwise see
    /// [`SimError`].
    pub fn resume(
        kernel: &'k CompiledKernel,
        config: &SimConfig,
        checkpoint: &Checkpoint,
    ) -> Result<SlicedSim<'k>, SimError> {
        let prog = Arc::new(PredecodedKernel::new(kernel));
        SlicedSim::resume_with_predecoded(kernel, config, checkpoint, prog)
    }

    /// [`SlicedSim::resume`] reusing an already-predecoded program
    /// image (see [`Sm::with_predecoded`]).
    ///
    /// # Errors
    ///
    /// See [`SlicedSim::resume`].
    pub fn resume_with_predecoded(
        kernel: &'k CompiledKernel,
        config: &SimConfig,
        checkpoint: &Checkpoint,
        prog: Arc<PredecodedKernel>,
    ) -> Result<SlicedSim<'k>, SimError> {
        config.validate().map_err(SimError::BadConfig)?;
        checkpoint.verify_identity_hashed(prog.kernel_hash(), config)?;
        let mut sms = Vec::with_capacity(config.num_sms);
        for (sm_id, assigned) in cta_assignments(kernel, config).into_iter().enumerate() {
            let mut sm = Sm::with_predecoded(*config, kernel, assigned, Arc::clone(&prog))?;
            sm.restore_frame(&checkpoint.sm_frames[sm_id])
                .map_err(|e| SimError::BadCheckpoint(format!("SM {sm_id} frame: {e}")))?;
            sms.push(sm);
        }
        // a restored SM may already have finished before the snapshot;
        // the first advance() round discovers that via run_until
        let done = vec![false; sms.len()];
        Ok(SlicedSim {
            config: *config,
            config_hash: checkpoint.config_hash,
            kernel_hash: checkpoint.kernel_hash,
            sms,
            done,
            cycle: checkpoint.cycle,
        })
    }

    /// Drives every unfinished SM forward by `budget` cycles (to the
    /// boundary `cycle() + budget`), returning whether the whole
    /// machine has now completed. A zero budget is rejected as
    /// [`SimError::BadConfig`].
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn advance(&mut self, budget: u64) -> Result<bool, SimError> {
        if budget == 0 {
            return Err(SimError::BadConfig("slice budget must be positive".into()));
        }
        let boundary = self.cycle.saturating_add(budget);
        for (sm, done) in self.sms.iter_mut().zip(self.done.iter_mut()) {
            if !*done {
                *done = sm.run_until(boundary)?;
            }
        }
        self.cycle = boundary;
        Ok(self.is_done())
    }

    /// Whether every SM has run to completion.
    pub fn is_done(&self) -> bool {
        self.done.iter().all(|&d| d)
    }

    /// The cycle boundary the machine has been driven to.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Snapshots the whole machine as a [`Checkpoint`] at the current
    /// boundary. Meaningful while [`SlicedSim::is_done`] is false — a
    /// snapshot of a finished machine resumes to an immediate
    /// completion.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            version: CKPT_VERSION,
            config_hash: self.config_hash,
            kernel_hash: self.kernel_hash,
            cycle: self.cycle,
            sm_frames: self.sms.iter().map(Sm::snapshot_frame).collect(),
        }
    }

    /// Runs the machine to completion (if it is not there already) and
    /// merges the per-SM results; see [`simulate_traced`] for the
    /// result shape.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn finish(mut self) -> Result<TracedRun, SimError> {
        for (sm, done) in self.sms.iter_mut().zip(self.done.iter_mut()) {
            if !*done {
                *done = sm.run_until(u64::MAX)?;
            }
        }
        let results = self.sms.into_iter().map(Sm::finish).collect();
        merge_results(&self.config, results)
    }
}

/// Resumes a run from `checkpoint` and drives it to completion. The
/// final statistics, memories, and merged trace are bit-identical to
/// the uninterrupted run that produced the checkpoint.
///
/// # Errors
///
/// [`SimError::BadCheckpoint`] when the checkpoint does not belong to
/// (`kernel`, `config`) or a frame is malformed; otherwise see
/// [`SimError`].
pub fn simulate_resumable(
    kernel: &CompiledKernel,
    config: &SimConfig,
    checkpoint: &Checkpoint,
) -> Result<SimResult, SimError> {
    Ok(simulate_resumable_traced(kernel, config, checkpoint)?.result)
}

/// [`simulate_resumable`] returning the merged trace as well (the
/// trace tail recorded after the checkpoint continues the ring state
/// captured in it).
///
/// # Errors
///
/// See [`simulate_resumable`].
pub fn simulate_resumable_traced(
    kernel: &CompiledKernel,
    config: &SimConfig,
    checkpoint: &Checkpoint,
) -> Result<TracedRun, SimError> {
    config.validate().map_err(SimError::BadConfig)?;
    checkpoint.verify_identity(kernel, config)?;
    let prog = Arc::new(PredecodedKernel::new(kernel));
    let run_one = |sm_id: usize, assigned: Vec<u32>| -> Result<SmResult, SimError> {
        let mut sm = Sm::with_predecoded(*config, kernel, assigned, Arc::clone(&prog))?;
        sm.restore_frame(&checkpoint.sm_frames[sm_id])
            .map_err(|e| SimError::BadCheckpoint(format!("SM {sm_id} frame: {e}")))?;
        sm.run_until(u64::MAX)?;
        sm.finish()
    };
    run_sms(config, cta_assignments(kernel, config), run_one)
}

/// [`simulate_with_init`] without memory pre-loads.
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate(kernel: &CompiledKernel, config: &SimConfig) -> Result<SimResult, SimError> {
    simulate_with_init(kernel, config, &[])
}

/// [`simulate`] reusing an already-predecoded program image (see
/// [`Sm::with_predecoded`]): repeat runs of the same kernel — a
/// benchmark's timing loop, a sweep's policy column — skip the per-run
/// predecode + plan lowering with no observable difference.
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate_predecoded(
    kernel: &CompiledKernel,
    config: &SimConfig,
    prog: &Arc<PredecodedKernel>,
) -> Result<SimResult, SimError> {
    config.validate().map_err(SimError::BadConfig)?;
    let run_one = |sm_id: usize, assigned: Vec<u32>| -> Result<SmResult, SimError> {
        let mut sm = Sm::with_predecoded(*config, kernel, assigned, Arc::clone(prog))?;
        sm.set_tracing(sm_id as u16, 0);
        sm.run()
    };
    Ok(run_sms(config, cta_assignments(kernel, config), run_one)?.result)
}
