//! Multi-SM GPU wrapper: distributes a grid's CTAs across SMs and
//! aggregates statistics.
//!
//! SMs in this model do not share state (the workloads are
//! embarrassingly parallel at CTA granularity and the paper's metrics
//! are per-SM ratios), so each SM runs independently and the GPU's
//! execution time is the slowest SM's.
//!
//! Every run is a [`SlicedSim`]: one constructor builds fresh SMs, one
//! restores them from a [`Checkpoint`], and one loop drives them —
//! [`SlicedSim::advance`] to a cycle boundary, [`SlicedSim::finish`] to
//! completion. [`simulate`], [`simulate_traced`] and
//! [`simulate_traced_checkpointed`] are thin drivers over it.
//!
//! # Parallel execution
//!
//! Because SMs are independent, a multi-SM round runs each SM on the
//! process-wide persistent worker pool ([`rfv_pool`]) — repeated runs
//! and slices (sweep rows, benchmark repeats, checkpoint intervals)
//! reuse one set of threads instead of spawning a scope per run. The
//! merge is deterministic: per-SM statistics and memories are collected
//! in SM order regardless of thread completion order, and trace events
//! are combined by [`rfv_trace::merge_shards`] on the total key
//! `(cycle, sm, seq)` — so a parallel run is bit-identical to a
//! sequential one. [`SimConfig::sm_jobs`] (or the `RFV_JOBS`
//! environment variable, read by [`rfv_pool::default_jobs`] when the
//! config leaves it `None`) forces the worker count; `1` restores the
//! sequential path.
//!
//! Each run also predecodes (and plan-lowers, see [`crate::sm::plan`])
//! the kernel at most once, sharing the image across its SMs.

use std::sync::{Arc, Mutex};

use rfv_compiler::CompiledKernel;
use rfv_trace::TraceEvent;

use crate::checkpoint::{Checkpoint, CKPT_VERSION};
use crate::config::SimConfig;
use crate::memory::GlobalMemory;
use crate::predecode::PredecodedKernel;
use crate::sm::{SimError, Sm};
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

/// Runs `kernel` on a GPU configured by `config`, with no memory
/// pre-loads and tracing off.
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate(kernel: &CompiledKernel, config: &SimConfig) -> Result<SimResult, SimError> {
    Ok(simulate_traced(kernel, config, &[], 0)?.result)
}

/// Runs `kernel` to completion on a GPU configured by `config`, with
/// CTAs distributed round-robin across SMs. `init` pre-loads global
/// memory on every SM (each SM has a private copy of the address
/// space), and every SM records up to `trace_capacity` events in a
/// bounded ring (capacity `0` disables tracing entirely, compiling the
/// instrumentation down to untaken branches).
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate_traced(
    kernel: &CompiledKernel,
    config: &SimConfig,
    init: &[(u64, u32)],
    trace_capacity: usize,
) -> Result<TracedRun, SimError> {
    SlicedSim::new(kernel, config, init, trace_capacity)?.finish()
}

/// Worker threads for driving SMs: the config's `sm_jobs` if set, else
/// the pool's default ([`rfv_pool::default_jobs`], which reads
/// `RFV_JOBS`) — never more than the SM count. A one-SM machine never
/// consults either.
fn sm_workers(config: &SimConfig) -> usize {
    if config.num_sms == 1 {
        return 1;
    }
    config
        .sm_jobs
        .unwrap_or_else(rfv_pool::default_jobs)
        .min(config.num_sms)
        .max(1)
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

/// [`simulate_traced`] that additionally snapshots the whole machine
/// every `every` cycles, handing each [`Checkpoint`] to
/// `on_checkpoint` (typically an atomic file writer). The run itself
/// is bit-identical to an uncheckpointed one: snapshots are taken with
/// read-only access at the [`SlicedSim::advance`] boundaries.
/// Checkpoints stop once every SM has completed (a snapshot of a
/// finished machine has nothing left to resume).
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

/// A whole-GPU simulation — the one way a run is built and driven. The
/// machine state stays live between [`SlicedSim::advance`] calls, so a
/// long run can be executed in bounded cycle slices, snapshotted at any
/// boundary, handed off as a [`Checkpoint`], and picked up again later
/// by [`SlicedSim::resume`] — the mechanism behind `rfvd`'s
/// checkpoint-backed job preemption. [`SlicedSim::finish`] drives the
/// rest of the run in one round.
///
/// Slicing is invisible in the results: each SM pauses only on its own
/// step boundaries, so a run driven in any mix of slice sizes —
/// including one that is checkpointed, dropped, and resumed in a
/// different process — finishes with stats, memories, and trace
/// bit-identical to an uninterrupted [`simulate_traced`] run.
pub struct SlicedSim<'k> {
    config: SimConfig,
    kernel_hash: u64,
    sms: Vec<Sm<'k>>,
    done: Vec<bool>,
    /// Worker threads a round runs the SMs on (see [`sm_workers`]).
    workers: usize,
    /// The cycle boundary every live SM has been driven to.
    cycle: u64,
}

impl<'k> SlicedSim<'k> {
    /// Builds a fresh machine ready to run `kernel`, with `init`
    /// pre-loaded into every SM's global memory and per-SM tracing
    /// capacity `trace_capacity` (see [`simulate_traced`]).
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
    /// (see [`Sm::with_predecoded`]): repeat runs of a cached kernel —
    /// a sweep's policy column, an `rfvd` cache hit — skip the per-run
    /// predecode and plan lowering with no observable difference.
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
        Ok(SlicedSim::from_sms(config, prog.kernel_hash(), sms, 0))
    }

    /// Restores a machine from `checkpoint` (identity-verified against
    /// `kernel` and `config`) so a preempted run can continue. Tracing
    /// state — ring capacity and contents — is restored from the
    /// frames themselves, so the finished run's trace continues the
    /// ring captured in the checkpoint.
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
        checkpoint.verify_identity(prog.kernel_hash(), config)?;
        let mut sms = Vec::with_capacity(config.num_sms);
        for (sm_id, assigned) in cta_assignments(kernel, config).into_iter().enumerate() {
            let mut sm = Sm::with_predecoded(*config, kernel, assigned, Arc::clone(&prog))?;
            sm.restore_frame(&checkpoint.sm_frames[sm_id])
                .map_err(|e| SimError::BadCheckpoint(format!("SM {sm_id} frame: {e}")))?;
            sms.push(sm);
        }
        // a restored SM may already have finished before the snapshot;
        // the first drive round discovers that via run_until
        Ok(SlicedSim::from_sms(
            config,
            prog.kernel_hash(),
            sms,
            checkpoint.cycle,
        ))
    }

    fn from_sms(config: &SimConfig, kernel_hash: u64, sms: Vec<Sm<'k>>, cycle: u64) -> Self {
        SlicedSim {
            config: *config,
            kernel_hash,
            done: vec![false; sms.len()],
            sms,
            workers: sm_workers(config),
            cycle,
        }
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
        self.drive(boundary)?;
        self.cycle = boundary;
        Ok(self.is_done())
    }

    /// The one SM loop: runs every unfinished SM up to `boundary`,
    /// recording which completed — in SM order on one worker, else on
    /// the persistent pool (which itself runs in order when called on
    /// a pool worker thread). SMs share no state, so the order is
    /// unobservable. The first error in SM order is returned; a
    /// panicked worker surfaces as [`SimError::WorkerPanic`].
    fn drive(&mut self, boundary: u64) -> Result<(), SimError> {
        let run = |sm: &mut Sm<'k>, done: &mut bool| -> Result<(), SimError> {
            if !*done {
                *done = sm.run_until(boundary)?;
            }
            Ok(())
        };
        let mut slots = self.sms.iter_mut().zip(&mut self.done);
        if self.workers == 1 {
            return slots.try_for_each(|(sm, done)| run(sm, done));
        }
        let slots: Vec<Mutex<_>> = slots.map(Mutex::new).collect();
        rfv_pool::par_map_catching_with(self.workers, &slots, |slot| {
            let (sm, done) = &mut *slot.lock().expect("SM slot poisoned");
            run(sm, done)
        })
        .into_iter()
        .try_for_each(|r| r.unwrap_or(Err(SimError::WorkerPanic)))
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
            config_hash: self.config.stable_hash(),
            kernel_hash: self.kernel_hash,
            cycle: self.cycle,
            sm_frames: self.sms.iter().map(Sm::snapshot_frame).collect(),
        }
    }

    /// Runs the machine to completion (if it is not there already) and
    /// merges the per-SM results deterministically: statistics and
    /// memories in SM order, trace events by
    /// [`rfv_trace::merge_shards`] on the total key `(cycle, sm, seq)`.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn finish(mut self) -> Result<TracedRun, SimError> {
        self.drive(u64::MAX)?;
        let mut cycles = 0;
        let mut per_sm = Vec::with_capacity(self.sms.len());
        let mut memories = Vec::with_capacity(self.sms.len());
        let mut shards = Vec::with_capacity(self.sms.len());
        for sm in self.sms {
            let result = sm.finish()?;
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
}
