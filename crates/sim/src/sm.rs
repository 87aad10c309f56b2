//! One streaming multiprocessor: fetch (with release-flag-cache
//! probing), two-level warp scheduling, SIMT execution, the
//! virtualized register file, and the GPU-shrink CTA throttle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::sync::Arc;

use rfv_compiler::CompiledKernel;
use rfv_core::{
    CtaThrottle, RegisterFile, ReleaseFlagCache, SanitizeLevel, Sanitizer, ThrottleDecision,
    Violation, ViolationKind, VirtualizationPolicy, WriteOutcome,
};
use rfv_faults::{FaultInjector, FaultKind};
use rfv_isa::{ArchReg, BankId, PredGuard, MAX_REGS_PER_THREAD, WARP_SIZE};
use rfv_trace::wire::{decode_event, encode_event};
use rfv_trace::{
    Dec, Enc, FaultLabel, MemPhase, RingSink, Sink, StallReason, TraceEvent, TraceKind, WireError,
};

use crate::config::SimConfig;
use crate::memory::{GlobalMemory, LocalMemory, SharedMemory};
use crate::predecode::PredecodedKernel;
use crate::stats::{RegTraceEvent, Sample, SimStats};
use crate::warp::{SimtStack, Warp, WarpHot, WarpStatus};

pub(crate) mod plan;

/// Value pattern left in freed registers, to surface use-after-release
/// bugs in differential tests.
const POISON: u32 = 0xdead_beef;

/// Simulation failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The initial CTA could not be launched (static register demand
    /// exceeds the physical file even with nothing resident).
    LaunchImpossible {
        /// Registers demanded by one CTA.
        demanded: usize,
        /// Physical registers available.
        capacity: usize,
    },
    /// The watchdog cycle limit was exceeded (a deadlock or runaway
    /// kernel). Carries the machine state at the moment the limit was
    /// hit so the stall can be diagnosed from the error alone.
    Watchdog {
        /// The limit that was hit.
        cycles: u64,
        /// Warp, register, and throttle state at capture.
        snapshot: Box<WatchdogSnapshot>,
    },
    /// The online sanitizer (`SanitizeLevel::Check`) detected an
    /// unsound register-file state.
    Unsound {
        /// What the sanitizer observed.
        violation: Violation,
        /// The SM it happened on.
        sm: u16,
    },
    /// Configuration rejected.
    BadConfig(String),
    /// A checkpoint file or frame was rejected (truncated, corrupted,
    /// version-mismatched, or taken under a different config/kernel).
    BadCheckpoint(String),
    /// An SM worker thread terminated abnormally (a defect in the
    /// simulator itself, not in the simulated machine).
    WorkerPanic,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::LaunchImpossible { demanded, capacity } => write!(
                f,
                "one CTA statically demands {demanded} registers but only {capacity} exist"
            ),
            SimError::Watchdog { cycles, snapshot } => {
                write!(
                    f,
                    "simulation exceeded the {cycles}-cycle watchdog\n{snapshot}"
                )
            }
            SimError::Unsound { violation, sm } => {
                write!(f, "unsound register state on SM {sm}: {violation}")
            }
            SimError::BadConfig(e) => write!(f, "bad configuration: {e}"),
            SimError::BadCheckpoint(e) => write!(f, "bad checkpoint: {e}"),
            SimError::WorkerPanic => write!(f, "an SM worker thread terminated abnormally"),
        }
    }
}

impl std::error::Error for SimError {}

/// Machine state captured when the watchdog fires, carried by
/// [`SimError::Watchdog`].
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct WatchdogSnapshot {
    /// Cycle at capture.
    pub cycle: u64,
    /// Free physical registers per bank.
    pub free_per_bank: Vec<usize>,
    /// Live physical registers.
    pub live_regs: usize,
    /// Resident CTA slots with their `C − k_i` throttle balances.
    pub cta_balances: Vec<(usize, usize)>,
    /// Ready-queue contents (warp slots).
    pub ready: Vec<usize>,
    /// Every non-idle warp's state.
    pub warps: Vec<WarpDiag>,
}

/// One warp's state inside a [`WatchdogSnapshot`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WarpDiag {
    /// Hardware warp slot.
    pub slot: usize,
    /// CTA slot the warp belongs to.
    pub cta_slot: usize,
    /// Scheduler status name.
    pub status: String,
    /// Program counter (`None` once every lane exited).
    pub pc: Option<usize>,
    /// Earliest cycle the warp may issue again.
    pub next_issue_at: u64,
    /// Scoreboard bitmask of registers with in-flight loads.
    pub outstanding: u64,
    /// Dynamically mapped registers held.
    pub mapped: usize,
}

impl fmt::Display for WatchdogSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycle {}: free regs per bank {:?}, live {}, ready {:?}",
            self.cycle, self.free_per_bank, self.live_regs, self.ready
        )?;
        writeln!(f, "resident CTAs (slot, balance): {:?}", self.cta_balances)?;
        for w in &self.warps {
            writeln!(
                f,
                "  warp {} cta {} status {} pc {:?} next_issue {} outstanding {:#x} mapped {}",
                w.slot, w.cta_slot, w.status, w.pc, w.next_issue_at, w.outstanding, w.mapped
            )?;
        }
        Ok(())
    }
}

/// Result of one SM's run.
#[derive(Clone, Debug)]
pub struct SmResult {
    /// Statistics for this SM.
    pub stats: SimStats,
    /// Final global memory (for output verification).
    pub global: GlobalMemory,
    /// Structured trace events (empty unless [`Sm::set_tracing`]
    /// installed a recording sink).
    pub events: Vec<TraceEvent>,
}

#[derive(Clone, Debug)]
struct CtaState {
    warp_slots: Vec<usize>,
    live_warps: usize,
    at_barrier: usize,
}

enum IssueOutcome {
    Issued,
    Blocked,
    NoReg,
}

/// Iterator over the set lane indices of a warp mask, ascending, by
/// bit-scanning — cost scales with active lanes instead of always
/// walking all [`WARP_SIZE`] bit positions.
#[derive(Clone, Copy)]
struct Lanes(u32);

impl Iterator for Lanes {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let l = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(l)
    }
}

/// Dense backing store for swapped-out register values, indexed by
/// `warp_slot × MAX_REGS_PER_THREAD + reg`. Replaces a
/// `HashMap<(usize, u8), [u32; WARP_SIZE]>`: lookups become one
/// multiply-add, and a quarantined warp's entries clear with a linear
/// sweep of its own rows instead of a whole-map `retain`. The table
/// is allocated lazily on the first spill, so configurations that
/// never spill (no GPU shrink) pay nothing.
#[derive(Clone, Debug)]
struct SpillStore {
    values: Vec<Option<[u32; WARP_SIZE]>>,
    warp_slots: usize,
}

impl SpillStore {
    fn new(warp_slots: usize) -> SpillStore {
        SpillStore {
            values: Vec::new(),
            warp_slots,
        }
    }

    #[inline]
    fn idx(slot: usize, reg: ArchReg) -> usize {
        slot * MAX_REGS_PER_THREAD + reg.index()
    }

    fn insert(&mut self, slot: usize, reg: ArchReg, val: [u32; WARP_SIZE]) {
        if self.values.is_empty() {
            self.values = vec![None; self.warp_slots * MAX_REGS_PER_THREAD];
        }
        self.values[Self::idx(slot, reg)] = Some(val);
    }

    fn get(&self, slot: usize, reg: ArchReg) -> Option<&[u32; WARP_SIZE]> {
        self.values.get(Self::idx(slot, reg))?.as_ref()
    }

    fn remove(&mut self, slot: usize, reg: ArchReg) {
        if let Some(v) = self.values.get_mut(Self::idx(slot, reg)) {
            *v = None;
        }
    }

    fn clear_warp(&mut self, slot: usize) {
        if self.values.is_empty() {
            return;
        }
        let base = slot * MAX_REGS_PER_THREAD;
        self.values[base..base + MAX_REGS_PER_THREAD].fill(None);
    }
}

/// One simulated SM executing an assigned list of CTAs of a compiled
/// kernel.
pub struct Sm<'k> {
    config: SimConfig,
    kernel: &'k CompiledKernel,
    /// Issue-ready program image (see [`crate::predecode`]), built
    /// once per kernel and shared (see [`Sm::with_predecoded`]).
    prog: Arc<PredecodedKernel>,
    policy: VirtualizationPolicy,
    regfile: RegisterFile,
    flag_cache: ReleaseFlagCache,
    throttle: CtaThrottle,
    /// Scheduler-cold per-warp state (SIMT stack, CTA identity, spill
    /// list). The scheduler-hot fields live in the parallel arrays
    /// below (struct-of-arrays) so the per-cycle scans walk dense
    /// cache lines; `WarpHot` is only materialized at checkpoint and
    /// launch boundaries.
    warps: Vec<Warp>,
    /// Hot per-warp field: scheduling status, parallel to `warps`.
    warp_status: Vec<WarpStatus>,
    /// Hot per-warp field: earliest cycle the warp may issue again.
    warp_next_issue: Vec<u64>,
    /// Hot per-warp field: bitmask of arch registers with in-flight
    /// loads (the scoreboard).
    warp_outstanding: Vec<u64>,
    /// Hot per-warp field: cycle a GPU-shrink spill/reload completes.
    warp_swap_ready: Vec<u64>,
    /// Functional values, indexed by *physical* register — so a buggy
    /// early release corrupts outputs instead of hiding.
    values: Vec<[u32; WARP_SIZE]>,
    /// Predicate lane-masks per warp slot.
    preds: Vec<[u32; 4]>,
    global: GlobalMemory,
    shared: Vec<SharedMemory>,
    local: LocalMemory,
    spill_values: SpillStore,
    ready: Vec<usize>,
    waiting_ready: VecDeque<usize>,
    /// Per-slot occurrence counts mirroring `ready` / `waiting_ready`
    /// membership, so the hot-path `contains` / `position` checks are
    /// O(1) array reads. Counts (not booleans) because the two-level
    /// scheduler can transiently hold a slot twice (enqueue into a
    /// non-full queue while the slot still sits in `waiting_ready`,
    /// later refilled into `ready` again).
    ready_count: Vec<u32>,
    waiting_count: Vec<u32>,
    rr_cursor: usize,
    assigned: Vec<u32>,
    next_assigned: usize,
    cta_slots: Vec<Option<CtaState>>,
    load_events: BinaryHeap<Reverse<(u64, usize, u8)>>,
    /// MSHR-style merge: global-memory 128 B segments currently in
    /// flight and when their data arrives. A load hitting an in-flight
    /// segment rides along instead of issuing a new transaction.
    /// Stored as a flat `(segment, ready_at)` list — the live set is a
    /// handful of segments, where a linear scan beats hashing.
    inflight_segments: Vec<(u64, u64)>,
    /// Number of warps currently in `SwappedOut`, so the per-step
    /// swap-in probe can skip its all-warps scan when nothing is out
    /// (the common case outside GPU-shrink).
    swapped_out: usize,
    /// Scratch for `step`'s issued-this-cycle list, reused across
    /// steps to keep the scheduler loop allocation-free.
    issued_scratch: Vec<usize>,
    stats: SimStats,
    now: u64,
    next_sample: u64,
    static_regs: Vec<ArchReg>,
    /// `kernel.num_regs()`, cached: the accessor recomputes a full
    /// program scan per call and sits on the sampling path.
    num_regs: usize,
    /// Launch geometry, cached off the kernel for the S2R and
    /// sampling hot paths.
    warps_per_cta: usize,
    threads_per_cta: u32,
    grid_ctas: u32,
    /// Structured-trace destination; [`Sink::Noop`] unless
    /// [`Sm::set_tracing`] was called.
    sink: Sink,
    /// This SM's id in trace events.
    sm_id: u16,
    /// Online shadow-model checker (`SimConfig::sanitize`).
    sanitizer: Sanitizer,
    /// Deterministic fault injector (`SimConfig::faults`).
    injector: FaultInjector,
    /// First unhandled violation detected in the current step;
    /// [`Sm::run_until`] turns it into [`SimError::Unsound`] (`Check`)
    /// or a quarantine (`Recover`).
    violation: Option<Violation>,
    /// Whether the initial CTA launch has happened. Set by the first
    /// [`Sm::run_until`] call and by [`Sm::restore_frame`] — a restored
    /// machine is mid-run and must not launch its CTAs again.
    launched: bool,
}

impl<'k> Sm<'k> {
    /// Creates an SM that will execute `assigned` (grid CTA ids) of
    /// `kernel`, issuing from `prog`, the kernel's predecoded program
    /// image. Predecode is pure — the same `kernel` always predecodes
    /// to the same image — so sharing one `Arc` across the SMs of a run
    /// (or across repeat runs of a cached kernel, as the harness and
    /// `rfvd` do) changes nothing observable while skipping the per-SM
    /// rebuild.
    ///
    /// # Errors
    ///
    /// Fails on invalid configuration.
    pub fn with_predecoded(
        config: SimConfig,
        kernel: &'k CompiledKernel,
        assigned: Vec<u32>,
        prog: Arc<PredecodedKernel>,
    ) -> Result<Sm<'k>, SimError> {
        config.validate().map_err(SimError::BadConfig)?;
        let policy = config.regfile.policy;
        let regfile = RegisterFile::new(config.regfile, config.max_warps_per_sm)
            .map_err(SimError::BadConfig)?;
        let num_regs = kernel.num_regs();
        let launch = kernel.kernel().launch();
        let warps_per_cta = launch.warps_per_cta() as usize;
        let threads_per_cta = launch.threads_per_cta();
        let grid_ctas = launch.grid_ctas();
        let static_regs: Vec<ArchReg> = match policy {
            VirtualizationPolicy::None => (0..num_regs as u8).map(ArchReg::new).collect(),
            VirtualizationPolicy::Full => kernel.exempt().iter().collect(),
            VirtualizationPolicy::HardwareOnly => Vec::new(),
        };
        Ok(Sm {
            flag_cache: ReleaseFlagCache::new(config.regfile.flag_cache_entries),
            throttle: CtaThrottle::new(config.max_ctas_per_sm),
            warps: (0..config.max_warps_per_sm).map(Warp::idle).collect(),
            warp_status: vec![WarpStatus::Idle; config.max_warps_per_sm],
            warp_next_issue: vec![0; config.max_warps_per_sm],
            warp_outstanding: vec![0; config.max_warps_per_sm],
            warp_swap_ready: vec![0; config.max_warps_per_sm],
            values: vec![[POISON; WARP_SIZE]; config.regfile.phys_regs],
            preds: vec![[0; 4]; config.max_warps_per_sm],
            global: GlobalMemory::new(),
            shared: (0..config.max_ctas_per_sm)
                .map(|_| SharedMemory::new(48 * 1024))
                .collect(),
            local: LocalMemory::new(),
            spill_values: SpillStore::new(config.max_warps_per_sm),
            ready: Vec::new(),
            waiting_ready: VecDeque::new(),
            ready_count: vec![0; config.max_warps_per_sm],
            waiting_count: vec![0; config.max_warps_per_sm],
            rr_cursor: 0,
            assigned,
            next_assigned: 0,
            cta_slots: vec![None; config.max_ctas_per_sm],
            load_events: BinaryHeap::new(),
            inflight_segments: Vec::new(),
            swapped_out: 0,
            issued_scratch: Vec::new(),
            stats: SimStats::default(),
            now: 0,
            next_sample: 0,
            sanitizer: Sanitizer::new(
                config.sanitize,
                config.max_warps_per_sm,
                config.regfile.phys_regs,
            ),
            injector: FaultInjector::new(&config.faults),
            violation: None,
            launched: false,
            num_regs,
            warps_per_cta,
            threads_per_cta,
            grid_ctas,
            regfile,
            policy,
            prog,
            kernel,
            config,
            static_regs,
            sink: Sink::Noop,
            sm_id: 0,
        })
    }

    /// Pre-loads global memory before the run (workload inputs).
    pub fn preload_global(&mut self, init: &[(u64, u32)]) {
        self.global.preload(init);
    }

    /// Installs a bounded recording sink (`capacity > 0`) or disables
    /// tracing (`capacity == 0`). `sm_id` stamps every event this SM
    /// emits. Call before the first [`Sm::run_until`].
    pub fn set_tracing(&mut self, sm_id: u16, capacity: usize) {
        self.sm_id = sm_id;
        self.sink = if capacity == 0 {
            Sink::Noop
        } else {
            Sink::ring(capacity)
        };
    }

    /// Advances the machine until either all work completes (`true`)
    /// or the clock reaches `limit` (`false`) — always pausing on a
    /// step boundary, so a [`Sm::snapshot_frame`] taken here restores
    /// to the exact mid-run state. Resuming with a larger limit (or
    /// [`Sm::finish`]ing after completion) reproduces an uninterrupted
    /// run bit for bit.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run_until(&mut self, limit: u64) -> Result<bool, SimError> {
        if !self.launched {
            self.fill_cta_slots()?;
            self.launched = true;
        }
        while self.work_remains() {
            if self.now >= limit {
                return Ok(false);
            }
            self.step();
            if let Some(v) = self.violation.take() {
                if self.sanitizer.level() == SanitizeLevel::Check {
                    return Err(SimError::Unsound {
                        violation: v,
                        sm: self.sm_id,
                    });
                }
                self.quarantine(v);
            }
            if self.now > self.config.max_cycles {
                return Err(SimError::Watchdog {
                    cycles: self.config.max_cycles,
                    snapshot: Box::new(self.watchdog_snapshot()),
                });
            }
        }
        Ok(true)
    }

    /// Final sweep after [`Sm::run_until`] returned `true`: the
    /// end-of-kernel leak check and statistics finalization.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn finish(mut self) -> Result<SmResult, SimError> {
        // end-of-kernel sweep: with every warp retired, no physical
        // register may remain assigned
        if let Some(v) = self
            .sanitizer
            .check_leak(self.regfile.live_count(), self.now)
        {
            if self.sanitizer.level() == SanitizeLevel::Check {
                return Err(SimError::Unsound {
                    violation: v,
                    sm: self.sm_id,
                });
            }
        }
        self.stats.sanitizer_detections = self.sanitizer.detections();
        self.stats.cycles = self.now;
        self.stats.regfile = self.regfile.stats();
        self.stats.renaming = self.regfile.renaming_stats();
        self.stats.flag_cache = self.flag_cache.stats();
        self.stats.subarray_on_cycles = if self.config.regfile.power_gating {
            self.regfile.subarray_on_integral(self.now)
        } else {
            self.config.regfile.num_subarrays() as u64 * self.now
        };
        self.stats.wakeups = self.regfile.wakeups();
        // the timeline is complete: drop its growth slack, since a
        // finished result may stay cached for the life of the process
        self.stats.samples.shrink_to_fit();
        Ok(SmResult {
            stats: self.stats,
            global: self.global,
            events: self.sink.into_events(),
        })
    }

    /// Captures the diagnostic machine state attached to
    /// [`SimError::Watchdog`] (warp statuses, register pressure,
    /// throttle balances).
    fn watchdog_snapshot(&self) -> WatchdogSnapshot {
        WatchdogSnapshot {
            cycle: self.now,
            free_per_bank: (0..rfv_isa::NUM_REG_BANKS)
                .map(|b| self.regfile.free_in_bank(BankId::new(b)))
                .collect(),
            live_regs: self.regfile.live_count(),
            cta_balances: (0..self.cta_slots.len())
                .filter_map(|c| self.throttle.balance(c).map(|b| (c, b)))
                .collect(),
            ready: self.ready.clone(),
            warps: self
                .warps
                .iter()
                .filter(|w| self.warp_status[w.slot] != WarpStatus::Idle)
                .map(|w| WarpDiag {
                    slot: w.slot,
                    cta_slot: w.cta_slot,
                    status: format!("{:?}", self.warp_status[w.slot]),
                    pc: (!w.stack.is_done()).then(|| w.stack.pc()),
                    next_issue_at: self.warp_next_issue[w.slot],
                    outstanding: self.warp_outstanding[w.slot],
                    mapped: self.regfile.mapped_count_of(w.slot),
                })
                .collect(),
        }
    }

    fn work_remains(&self) -> bool {
        self.next_assigned < self.assigned.len() || self.cta_slots.iter().any(Option::is_some)
    }

    /// The machine's current cycle.
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Gathers `slot`'s hot scheduling fields from the SoA arrays
    /// (checkpoint encoding and diagnostics only — never the hot path).
    fn warp_hot(&self, slot: usize) -> WarpHot {
        WarpHot {
            status: self.warp_status[slot],
            next_issue_at: self.warp_next_issue[slot],
            outstanding: self.warp_outstanding[slot],
            swap_ready_at: self.warp_swap_ready[slot],
        }
    }

    /// Scatters a decoded [`WarpHot`] back into the SoA arrays.
    fn set_warp_hot(&mut self, slot: usize, hot: WarpHot) {
        self.warp_status[slot] = hot.status;
        self.warp_next_issue[slot] = hot.next_issue_at;
        self.warp_outstanding[slot] = hot.outstanding;
        self.warp_swap_ready[slot] = hot.swap_ready_at;
    }

    // ------------------------------------------------- checkpoint frames

    /// Serializes the complete mutable machine state into one
    /// checkpoint frame. Derived state (the predecoded program, launch
    /// geometry, config) is not written — [`Sm::restore_frame`]
    /// rebuilds it from the same kernel and config, which the
    /// checkpoint container pins by hash. The wake-event index is also
    /// omitted: it only caches each warp's current wake time, so
    /// restore reconstructs an equivalent index from the warps
    /// themselves.
    pub fn snapshot_frame(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u16(self.sm_id);
        e.u64(self.now);
        e.u64(self.next_sample);
        e.bool(self.launched);
        self.regfile.encode(&mut e);
        self.flag_cache.encode(&mut e);
        self.throttle.encode(&mut e);
        e.usize(self.warps.len());
        for w in &self.warps {
            w.encode(&self.warp_hot(w.slot), &mut e);
        }
        e.usize(self.values.len());
        for v in &self.values {
            for &x in v {
                e.u32(x);
            }
        }
        e.usize(self.preds.len());
        for p in &self.preds {
            for &x in p {
                e.u32(x);
            }
        }
        self.global.encode(&mut e);
        e.usize(self.shared.len());
        for s in &self.shared {
            s.encode(&mut e);
        }
        self.local.encode(&mut e);
        e.bool(!self.spill_values.values.is_empty());
        if !self.spill_values.values.is_empty() {
            e.usize(self.spill_values.values.len());
            for v in &self.spill_values.values {
                match v {
                    None => e.bool(false),
                    Some(vals) => {
                        e.bool(true);
                        for &x in vals {
                            e.u32(x);
                        }
                    }
                }
            }
        }
        e.usize(self.ready.len());
        for &s in &self.ready {
            e.usize(s);
        }
        e.usize(self.waiting_ready.len());
        for &s in &self.waiting_ready {
            e.usize(s);
        }
        e.usize(self.rr_cursor);
        e.usize(self.assigned.len());
        e.usize(self.next_assigned);
        e.usize(self.cta_slots.len());
        for cs in &self.cta_slots {
            match cs {
                None => e.bool(false),
                Some(cs) => {
                    e.bool(true);
                    e.usize(cs.warp_slots.len());
                    for &ws in &cs.warp_slots {
                        e.usize(ws);
                    }
                    e.usize(cs.live_warps);
                    e.usize(cs.at_barrier);
                }
            }
        }
        // heap entries dumped in ascending pop order; rebuilding by
        // pushing them back reproduces the identical pop sequence
        // because the ordering key (cycle, slot, reg) is total
        let mut loads: Vec<(u64, usize, u8)> = self.load_events.iter().map(|r| r.0).collect();
        loads.sort_unstable();
        e.usize(loads.len());
        for (t, slot, reg) in loads {
            e.u64(t);
            e.usize(slot);
            e.u8(reg);
        }
        e.usize(self.inflight_segments.len());
        for &(seg, ready) in &self.inflight_segments {
            e.u64(seg);
            e.u64(ready);
        }
        self.stats.encode(&mut e);
        let words = self.injector.state_words();
        e.usize(words.len());
        for w in words {
            e.u64(w);
        }
        self.sanitizer.encode(&mut e);
        match self.violation {
            None => e.bool(false),
            Some(v) => {
                e.bool(true);
                encode_violation(&mut e, v);
            }
        }
        match &self.sink {
            Sink::Noop => e.u8(0),
            Sink::Ring(r) => {
                e.u8(1);
                e.usize(r.capacity());
                e.u64(r.dropped());
                e.usize(r.events().len());
                for ev in r.events() {
                    encode_event(ev, &mut e);
                }
            }
        }
        e.into_bytes()
    }

    /// Overwrites this freshly-constructed machine with the state in
    /// `frame` (the inverse of [`Sm::snapshot_frame`]). The machine
    /// must have been built by [`Sm::with_predecoded`] with the same
    /// config, kernel, and CTA assignment that produced the frame; the
    /// checkpoint container enforces this by hash before calling.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncated or inconsistent input; the
    /// machine is left partially restored and must be discarded.
    pub fn restore_frame(&mut self, frame: &[u8]) -> Result<(), WireError> {
        let d = &mut Dec::new(frame);
        self.sm_id = d.u16()?;
        self.now = d.u64()?;
        self.next_sample = d.u64()?;
        self.launched = d.bool()?;
        let warp_slots = self.config.max_warps_per_sm;
        self.regfile = RegisterFile::decode(d, self.config.regfile, warp_slots)?;
        self.flag_cache = ReleaseFlagCache::decode(d, self.config.regfile.flag_cache_entries)?;
        self.throttle = CtaThrottle::decode(d, self.config.max_ctas_per_sm)?;
        if d.usize()? != warp_slots {
            return Err(WireError::Invalid("warp count"));
        }
        for slot in 0..warp_slots {
            let (w, hot) = Warp::decode(d)?;
            if w.slot != slot || w.cta_slot >= self.config.max_ctas_per_sm {
                return Err(WireError::Invalid("warp slot"));
            }
            self.warps[slot] = w;
            self.set_warp_hot(slot, hot);
        }
        if d.usize()? != self.values.len() {
            return Err(WireError::Invalid("register value count"));
        }
        for v in &mut self.values {
            for x in v.iter_mut() {
                *x = d.u32()?;
            }
        }
        if d.usize()? != self.preds.len() {
            return Err(WireError::Invalid("predicate file size"));
        }
        for p in &mut self.preds {
            for x in p.iter_mut() {
                *x = d.u32()?;
            }
        }
        self.global = GlobalMemory::decode(d)?;
        if d.usize()? != self.shared.len() {
            return Err(WireError::Invalid("shared memory count"));
        }
        for s in &mut self.shared {
            *s = SharedMemory::decode(d, 48 * 1024)?;
        }
        self.local = LocalMemory::decode(d)?;
        self.spill_values = SpillStore::new(warp_slots);
        if d.bool()? {
            let n = warp_slots * MAX_REGS_PER_THREAD;
            if d.usize()? != n {
                return Err(WireError::Invalid("spill store size"));
            }
            let mut values = vec![None; n];
            for v in &mut values {
                if d.bool()? {
                    let mut vals = [0u32; WARP_SIZE];
                    for x in &mut vals {
                        *x = d.u32()?;
                    }
                    *v = Some(vals);
                }
            }
            self.spill_values.values = values;
        }
        let decode_slot = |d: &mut Dec<'_>| -> Result<usize, WireError> {
            let s = d.usize()?;
            if s >= warp_slots {
                return Err(WireError::Invalid("warp slot index"));
            }
            Ok(s)
        };
        let n = d.usize()?;
        self.ready = Vec::with_capacity(n.min(warp_slots * 2));
        for _ in 0..n {
            self.ready.push(decode_slot(d)?);
        }
        let n = d.usize()?;
        self.waiting_ready = VecDeque::with_capacity(n.min(warp_slots * 2));
        for _ in 0..n {
            self.waiting_ready.push_back(decode_slot(d)?);
        }
        self.ready_count.fill(0);
        self.waiting_count.fill(0);
        for i in 0..self.ready.len() {
            self.ready_count[self.ready[i]] += 1;
        }
        for i in 0..self.waiting_ready.len() {
            self.waiting_count[self.waiting_ready[i]] += 1;
        }
        self.rr_cursor = d.usize()?;
        if d.usize()? != self.assigned.len() {
            return Err(WireError::Invalid("assigned CTA count"));
        }
        self.next_assigned = d.usize()?;
        if self.next_assigned > self.assigned.len() {
            return Err(WireError::Invalid("assigned CTA cursor"));
        }
        if d.usize()? != self.cta_slots.len() {
            return Err(WireError::Invalid("CTA slot count"));
        }
        for cs in &mut self.cta_slots {
            *cs = None;
        }
        for slot in 0..self.config.max_ctas_per_sm {
            if !d.bool()? {
                continue;
            }
            let n = d.usize()?;
            if n > warp_slots {
                return Err(WireError::Invalid("CTA warp count"));
            }
            let mut ws = Vec::with_capacity(n);
            for _ in 0..n {
                ws.push(decode_slot(d)?);
            }
            let live_warps = d.usize()?;
            let at_barrier = d.usize()?;
            if live_warps > n || at_barrier > n {
                return Err(WireError::Invalid("CTA warp accounting"));
            }
            self.cta_slots[slot] = Some(CtaState {
                warp_slots: ws,
                live_warps,
                at_barrier,
            });
        }
        self.load_events.clear();
        for _ in 0..d.usize()? {
            let t = d.u64()?;
            let slot = decode_slot(d)?;
            let reg = d.u8()?;
            if usize::from(reg) >= MAX_REGS_PER_THREAD {
                return Err(WireError::Invalid("load event register"));
            }
            self.load_events.push(Reverse((t, slot, reg)));
        }
        self.inflight_segments.clear();
        for _ in 0..d.usize()? {
            let seg = d.u64()?;
            let ready = d.u64()?;
            self.inflight_segments.push((seg, ready));
        }
        self.stats = SimStats::decode(d)?;
        let n = d.usize()?;
        let mut words = Vec::with_capacity(n.min(1 << 12));
        for _ in 0..n {
            words.push(d.u64()?);
        }
        self.injector = FaultInjector::from_state_words(&self.config.faults, &words)
            .ok_or(WireError::Invalid("fault injector state"))?;
        self.sanitizer = Sanitizer::decode(
            d,
            self.config.sanitize,
            warp_slots,
            self.config.regfile.phys_regs,
        )?;
        self.violation = if d.bool()? {
            Some(decode_violation(d)?)
        } else {
            None
        };
        self.sink = match d.u8()? {
            0 => Sink::Noop,
            1 => {
                let capacity = d.usize()?;
                let dropped = d.u64()?;
                let n = d.usize()?;
                if n > capacity {
                    return Err(WireError::Invalid("trace ring overflow"));
                }
                let mut buf = Vec::with_capacity(n);
                for _ in 0..n {
                    buf.push(decode_event(d)?);
                }
                Sink::Ring(RingSink::from_parts(buf, capacity, dropped))
            }
            _ => return Err(WireError::Invalid("sink tag")),
        };
        if !d.is_done() {
            return Err(WireError::Invalid("trailing bytes in SM frame"));
        }
        // rebuild the derived swap bookkeeping from the warps
        self.swapped_out = self
            .warp_status
            .iter()
            .filter(|&&s| s == WarpStatus::SwappedOut)
            .count();
        Ok(())
    }

    // ---------------------------------------------------------- CTA launch

    fn fill_cta_slots(&mut self) -> Result<(), SimError> {
        let conc = self
            .kernel
            .kernel()
            .launch()
            .max_conc_ctas_per_sm()
            .min(self.config.max_ctas_per_sm as u32) as usize;
        let mut launched_any = self.cta_slots.iter().any(Option::is_some);
        for slot in 0..self.config.max_ctas_per_sm {
            if self.cta_slots[slot].is_some() || self.resident_ctas() >= conc {
                continue;
            }
            if self.next_assigned >= self.assigned.len() {
                break;
            }
            let cta_id = self.assigned[self.next_assigned];
            if self.try_launch_cta(slot, cta_id) {
                self.next_assigned += 1;
                launched_any = true;
            } else if !launched_any {
                let launch = self.kernel.kernel().launch();
                return Err(SimError::LaunchImpossible {
                    demanded: self.static_regs.len() * launch.warps_per_cta() as usize,
                    capacity: self.config.regfile.phys_regs,
                });
            } else {
                break; // retry when registers free up
            }
        }
        Ok(())
    }

    fn resident_ctas(&self) -> usize {
        self.cta_slots.iter().filter(|s| s.is_some()).count()
    }

    fn try_launch_cta(&mut self, cta_slot: usize, cta_id: u32) -> bool {
        let launch = self.kernel.kernel().launch();
        let warps_per_cta = launch.warps_per_cta() as usize;
        let free_slots: Vec<usize> = self
            .warp_status
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == WarpStatus::Idle)
            .map(|(slot, _)| slot)
            .take(warps_per_cta)
            .collect();
        if free_slots.len() < warps_per_cta {
            return false;
        }
        // static register allocation, with rollback on failure
        let mut launched: Vec<usize> = Vec::new();
        for &ws in &free_slots {
            if self
                .regfile
                .launch_warp_traced(
                    ws,
                    self.static_regs.iter().copied(),
                    self.now,
                    self.sm_id,
                    &mut self.sink,
                )
                .is_err()
            {
                for &undo in &launched {
                    self.regfile
                        .retire_warp_traced(undo, self.now, self.sm_id, &mut self.sink);
                }
                return false;
            }
            launched.push(ws);
        }
        // worst-case registers this CTA may hold at once: with early
        // release the compiler's max-held bound applies; without it
        // (conventional / hardware-only) registers accumulate until
        // CTA completion, so the full allocation is the bound
        let per_warp = if self.policy.uses_release_flags() {
            self.kernel.max_held_per_warp().min(self.num_regs)
        } else {
            self.num_regs
        };
        let budget = per_warp * warps_per_cta;
        self.throttle
            .launch_traced(cta_slot, budget, self.now, self.sm_id, &mut self.sink);
        if self.sink.enabled() {
            self.sink.emit(TraceEvent::sm_event(
                self.now,
                self.sm_id,
                TraceKind::CtaLaunch { cta: cta_id },
            ));
        }
        // the static bulk updates the balance once, not per register,
        // to keep launch traces compact
        for _ in 0..self.static_regs.len() * warps_per_cta {
            self.throttle.on_alloc(cta_slot);
        }
        if !self.static_regs.is_empty() {
            self.emit_balance(cta_slot);
        }
        // initialize static register values deterministically
        for &ws in &free_slots {
            for i in 0..self.static_regs.len() {
                let r = self.static_regs[i];
                if let Some(p) = self.regfile.peek(ws, r) {
                    self.values[p.index()] = [0; WARP_SIZE];
                    let v = self.sanitizer.note_map(ws, r, p, self.now);
                    self.flag_violation(v);
                }
            }
        }
        let threads = launch.threads_per_cta() as usize;
        for (wi, &ws) in free_slots.iter().enumerate() {
            let first = wi * WARP_SIZE;
            let lanes = threads.saturating_sub(first).min(WARP_SIZE);
            let mask = if lanes == WARP_SIZE {
                u32::MAX
            } else {
                (1u32 << lanes) - 1
            };
            let w = &mut self.warps[ws];
            w.cta_slot = cta_slot;
            w.warp_in_cta = wi;
            w.cta_id = cta_id;
            w.stack = SimtStack::new(mask);
            w.spilled_regs.clear();
            self.warp_status[ws] = WarpStatus::Ready;
            self.warp_next_issue[ws] = self.now;
            self.warp_outstanding[ws] = 0;
            self.preds[ws] = [0; 4];
            self.enqueue_ready(ws);
        }
        self.shared[cta_slot].reset();
        self.cta_slots[cta_slot] = Some(CtaState {
            warp_slots: free_slots,
            live_warps: warps_per_cta,
            at_barrier: 0,
        });
        true
    }

    // ------------------------------------------------------- ready queue

    fn ready_push(&mut self, slot: usize) {
        self.ready.push(slot);
        self.ready_count[slot] += 1;
    }

    fn waiting_push(&mut self, slot: usize) {
        self.waiting_ready.push_back(slot);
        self.waiting_count[slot] += 1;
    }

    fn enqueue_ready(&mut self, slot: usize) {
        if self.ready_count[slot] > 0 {
            return;
        }
        if self.ready.len() < self.config.ready_queue {
            self.ready_push(slot);
        } else if self.waiting_count[slot] == 0 {
            self.waiting_push(slot);
        }
    }

    fn remove_from_ready(&mut self, slot: usize) {
        if self.ready_count[slot] == 0 {
            return;
        }
        self.ready.retain(|&s| s != slot);
        self.ready_count[slot] = 0;
    }

    fn refill_ready(&mut self) {
        while self.ready.len() < self.config.ready_queue {
            let Some(slot) = self.waiting_ready.pop_front() else {
                break;
            };
            self.waiting_count[slot] -= 1;
            if self.warp_status[slot] == WarpStatus::Ready {
                self.ready_push(slot);
            }
        }
    }

    // ------------------------------------------------------------- stepping

    fn step(&mut self) {
        self.drain_load_events();
        self.try_swap_ins();
        self.refill_ready();

        let mut decision = if self.policy.renames() {
            self.throttle.decide_traced(
                self.regfile.free_count(),
                self.now,
                self.sm_id,
                &mut self.sink,
            )
        } else {
            ThrottleDecision::Unrestricted
        };
        if let ThrottleDecision::OnlyCta(c) = decision {
            // a CTA with no runnable warp (all at a barrier, pending, or
            // swapped out) cannot use the restriction; enforcing it
            // would stall the whole SM behind warps that cannot issue
            let runnable = self
                .warps
                .iter()
                .any(|w| w.cta_slot == c && self.warp_status[w.slot] == WarpStatus::Ready);
            if runnable {
                self.stats.throttle_restricted_cycles += 1;
                self.ensure_cta_schedulable(c);
            } else {
                decision = ThrottleDecision::Unrestricted;
            }
        }

        // reusable scratch: a fresh Vec here would malloc every cycle
        let mut issued = std::mem::take(&mut self.issued_scratch);
        issued.clear();
        for _ in 0..self.config.schedulers {
            let Some(pick) = self.pick_warp(decision, &issued) else {
                continue;
            };
            match self.try_issue(pick) {
                IssueOutcome::Issued => issued.push(pick),
                IssueOutcome::Blocked => self.trace_stall(pick, StallReason::Scoreboard),
                IssueOutcome::NoReg => {
                    self.stats.no_reg_stalls += 1;
                    self.trace_stall(pick, StallReason::NoReg);
                    self.maybe_spill_for(pick);
                    // rotate the stalled warp out of the ready queue so
                    // it cannot clog the two-level scheduler while
                    // other warps could run (and release registers)
                    self.remove_from_ready(pick);
                    self.waiting_push(pick);
                    self.refill_ready();
                }
            }
        }

        self.sample_if_due();

        let idle = issued.is_empty();
        self.issued_scratch = issued;
        if idle {
            // nothing issued: jump to the next interesting cycle
            self.now = self.next_event_cycle();
        } else {
            self.now += 1;
        }
    }

    /// Idle-cycle skip: the earliest upcoming wake time (at least the
    /// next cycle), by a straight
    /// min-sweep over the SoA status and wake-time arrays plus a peek
    /// at the load-completion heap. Contiguous, branch-predictable, and
    /// free on the issue path (no bookkeeping per status transition).
    /// Only runs on cycles where nothing issued.
    fn next_event_cycle(&self) -> u64 {
        let mut next = u64::MAX;
        if let Some(&Reverse((t, _, _))) = self.load_events.peek() {
            next = next.min(t);
        }
        for (slot, &s) in self.warp_status.iter().enumerate() {
            match s {
                WarpStatus::Ready => next = next.min(self.warp_next_issue[slot]),
                WarpStatus::SwappedOut => next = next.min(self.warp_swap_ready[slot]),
                _ => {}
            }
        }
        if next == u64::MAX {
            self.now + 1
        } else {
            next.max(self.now + 1)
        }
    }

    fn drain_load_events(&mut self) {
        while let Some(&Reverse((t, slot, reg))) = self.load_events.peek() {
            if t > self.now {
                break;
            }
            self.load_events.pop();
            self.warp_outstanding[slot] &= !(1u64 << ArchReg::new(reg).index());
            if self.warp_status[slot] == WarpStatus::PendingMem && self.warp_outstanding[slot] == 0
            {
                self.warp_status[slot] = WarpStatus::Ready;
                self.warp_next_issue[slot] = self.warp_next_issue[slot].max(t);
                self.enqueue_ready(slot);
            }
        }
    }

    /// When the throttle restricts issue to one CTA, its warps must be
    /// able to enter the ready queue even if throttle-blocked warps of
    /// other CTAs currently fill it — otherwise the two-level
    /// scheduler livelocks (blocked warps never vacate their slots).
    fn ensure_cta_schedulable(&mut self, cta: usize) {
        if self
            .ready
            .iter()
            .any(|&s| self.warps[s].cta_slot == cta && self.warp_status[s] == WarpStatus::Ready)
        {
            return;
        }
        // find a runnable warp of the restricted CTA outside the queue
        let candidate = self
            .warps
            .iter()
            .find(|w| {
                w.cta_slot == cta
                    && self.warp_status[w.slot] == WarpStatus::Ready
                    && self.ready_count[w.slot] == 0
            })
            .map(|w| w.slot);
        let Some(incoming) = candidate else { return };
        self.waiting_ready.retain(|&s| s != incoming);
        self.waiting_count[incoming] = 0;
        if self.ready.len() >= self.config.ready_queue {
            // evict one blocked warp of another CTA back to waiting
            if let Some(pos) = self
                .ready
                .iter()
                .position(|&s| self.warps[s].cta_slot != cta)
            {
                let evicted = self.ready.remove(pos);
                self.ready_count[evicted] -= 1;
                self.waiting_push(evicted);
            }
        }
        if self.ready.len() < self.config.ready_queue {
            self.ready_push(incoming);
        }
    }

    fn pick_warp(&mut self, decision: ThrottleDecision, already: &[usize]) -> Option<usize> {
        let n = self.ready.len();
        if n == 0 {
            return None;
        }
        // conditional wrap instead of `%` per probe: the scan order and
        // cursor updates are exactly the round-robin of `(cursor+k) % n`
        let mut idx = self.rr_cursor % n;
        for _ in 0..n {
            let cur = idx;
            idx = if idx + 1 == n { 0 } else { idx + 1 };
            let slot = self.ready[cur];
            if already.contains(&slot) {
                continue;
            }
            if self.warp_status[slot] != WarpStatus::Ready || self.warp_next_issue[slot] > self.now
            {
                continue;
            }
            if let ThrottleDecision::OnlyCta(c) = decision {
                if self.warps[slot].cta_slot != c {
                    continue;
                }
            }
            self.rr_cursor = idx;
            return Some(slot);
        }
        None
    }

    fn trace_reg(&mut self, slot: usize, reg: ArchReg, live: bool) {
        if self.config.trace_warp0_regs && slot == 0 {
            self.stats.reg_trace.push(RegTraceEvent {
                cycle: self.now,
                reg: reg.raw(),
                live,
            });
        }
    }

    /// Emits the current `C − k_i` balance of a resident CTA (used
    /// after bulk counter updates where per-register events would
    /// flood the trace).
    fn emit_balance(&mut self, cta: usize) {
        if self.sink.enabled() {
            if let Some(bal) = self.throttle.balance(cta) {
                self.sink.emit(TraceEvent::sm_event(
                    self.now,
                    self.sm_id,
                    TraceKind::ThrottleBalance {
                        cta: cta as u32,
                        balance: bal as i64,
                    },
                ));
            }
        }
    }

    /// Emits a scheduler [`TraceKind::Issue`] event.
    fn trace_issue(&mut self, slot: usize, pc: usize, exec: u32) {
        if self.sink.enabled() {
            self.sink.emit(TraceEvent::warp_event(
                self.now,
                self.sm_id,
                slot,
                TraceKind::Issue {
                    pc: pc as u32,
                    active_lanes: exec.count_ones() as u8,
                },
            ));
        }
    }

    /// Emits a scheduler [`TraceKind::Stall`] event.
    fn trace_stall(&mut self, slot: usize, reason: StallReason) {
        if self.sink.enabled() {
            self.sink.emit(TraceEvent::warp_event(
                self.now,
                self.sm_id,
                slot,
                TraceKind::Stall { reason },
            ));
        }
    }

    // ------------------------------------------------ sanitizer & faults

    /// Latches the first violation of the current step; `run_until`
    /// turns it into [`SimError::Unsound`] (Check) or a CTA quarantine
    /// (Recover) after the step completes.
    fn flag_violation(&mut self, v: Option<Violation>) {
        if let Some(v) = v {
            if self.violation.is_none() {
                self.violation = Some(v);
            }
        }
    }

    /// [`RegisterFile::release_traced`] with a double-free check: the
    /// availability vector counts attempts to free an already-free
    /// physical register, which is only reachable downstream of an
    /// injected fault (e.g. two table entries aliasing one physical
    /// register after corruption).
    fn release_checked(&mut self, slot: usize, r: ArchReg) -> bool {
        if !self.sanitizer.enabled() {
            return self
                .regfile
                .release_traced(slot, r, self.now, self.sm_id, &mut self.sink);
        }
        let before = self.regfile.stats().double_free_attempts;
        let freed = self
            .regfile
            .release_traced(slot, r, self.now, self.sm_id, &mut self.sink);
        if self.regfile.stats().double_free_attempts > before {
            let v = self.sanitizer.report(Violation {
                kind: ViolationKind::DoubleFree,
                cycle: self.now,
                warp: slot,
                reg: u16::from(r.raw()),
                phys: Violation::NO_PHYS,
            });
            self.flag_violation(v);
        }
        freed
    }

    /// Counts an injected fault and emits the
    /// [`TraceKind::FaultInjected`] event that ties it to the warp it
    /// perturbed.
    fn trace_fault(&mut self, slot: usize, fault: FaultLabel, reg: u16, phys: u32) {
        self.stats.faults_injected += 1;
        if self.sink.enabled() {
            self.sink.emit(TraceEvent::warp_event(
                self.now,
                self.sm_id,
                slot,
                TraceKind::FaultInjected { fault, reg, phys },
            ));
        }
    }

    /// Releases one deterministically-picked dynamically-mapped
    /// register of `slot` behind the sanitizer's back — the shared
    /// mechanics of the premature-release and stale-flag-cache faults.
    fn inject_release(&mut self, slot: usize, kind: FaultKind, label: FaultLabel) {
        let regs = self.regfile.mapped_regs(slot);
        if regs.is_empty() {
            return;
        }
        let r = regs[self.injector.pick(kind, regs.len())];
        let phys = self
            .regfile
            .peek(slot, r)
            .map_or(Violation::NO_PHYS, |p| p.index() as u32);
        let cta = self.warps[slot].cta_slot;
        if self.release_checked(slot, r) {
            self.throttle.on_release(cta);
            self.trace_reg(slot, r, false);
        }
        self.trace_fault(slot, label, u16::from(r.raw()), phys);
    }

    /// `SanitizeLevel::Recover`: retires the CTA owning the offending
    /// warp — its registers are reclaimed, its in-flight state is
    /// dropped, and its warps never issue again — so the rest of the
    /// kernel completes on sound state.
    fn quarantine(&mut self, v: Violation) {
        self.stats.sanitizer_detections = self.sanitizer.detections();
        if v.warp == Violation::NO_WARP || v.warp >= self.warps.len() {
            return;
        }
        if self.warp_status[v.warp] == WarpStatus::Idle {
            return; // the owning CTA already completed
        }
        let cta = self.warps[v.warp].cta_slot;
        let Some(cs) = self.cta_slots[cta].take() else {
            return;
        };
        let cta_id = cs
            .warp_slots
            .first()
            .map_or(cta as u32, |&ws| self.warps[ws].cta_id);
        for &ws in &cs.warp_slots {
            self.remove_from_ready(ws);
            self.waiting_ready.retain(|&s| s != ws);
            self.waiting_count[ws] = 0;
            self.spill_values.clear_warp(ws);
            self.regfile
                .retire_warp_traced(ws, self.now, self.sm_id, &mut self.sink);
            self.sanitizer.note_retire(ws);
            self.local.clear_warp(ws);
            if self.warp_status[ws] == WarpStatus::SwappedOut {
                self.swapped_out -= 1;
            }
            self.warp_status[ws] = WarpStatus::Idle;
            self.warp_outstanding[ws] = 0;
            self.warps[ws].spilled_regs.clear();
        }
        let heap = std::mem::take(&mut self.load_events);
        self.load_events = heap
            .into_iter()
            .filter(|&Reverse((_, s, _))| !cs.warp_slots.contains(&s))
            .collect();
        self.throttle.retire(cta);
        self.stats.quarantined_warps += cs.warp_slots.len() as u64;
        self.stats.quarantined_ctas += 1;
        if self.sink.enabled() {
            self.sink.emit(TraceEvent::sm_event(
                self.now,
                self.sm_id,
                TraceKind::Quarantine {
                    cta: cta_id,
                    warps: cs.warp_slots.len() as u16,
                },
            ));
        }
        let _ = self.fill_cta_slots();
    }

    // ---------------------------------------------------------------- issue

    fn guard_mask(&self, slot: usize, guard: Option<PredGuard>) -> u32 {
        match guard {
            None => u32::MAX,
            Some(g) => {
                let bits = self.preds[slot][g.pred.index()];
                if g.negated {
                    !bits
                } else {
                    bits
                }
            }
        }
    }

    fn issue_cost(&mut self, slot: usize, cycles: u64) {
        self.warp_next_issue[slot] = self.now + cycles.max(1);
    }

    fn after_control(&mut self, slot: usize) {
        if self.warps[slot].stack.is_done() {
            self.finish_warp(slot);
        }
    }

    // -------------------------------------------------------- warp endings

    fn finish_warp(&mut self, slot: usize) {
        let cta = self.warps[slot].cta_slot;
        self.warp_status[slot] = WarpStatus::Finished;
        self.remove_from_ready(slot);
        if self.config.trace_warp0_regs && slot == 0 {
            for r in self.regfile.mapped_regs(slot) {
                self.trace_reg(slot, r, false);
            }
        }
        if self.sanitizer.enabled() {
            // anything still mapped in hardware that the shadow already
            // released is a swallowed (dropped) release
            let pairs = self.regfile.mapped_pairs(slot);
            let v = self.sanitizer.check_retire(slot, &pairs, self.now);
            self.flag_violation(v);
        }
        let before_df = self.regfile.stats().double_free_attempts;
        let freed = self
            .regfile
            .retire_warp_traced(slot, self.now, self.sm_id, &mut self.sink);
        if self.sanitizer.enabled() && self.regfile.stats().double_free_attempts > before_df {
            let v = self.sanitizer.report(Violation {
                kind: ViolationKind::DoubleFree,
                cycle: self.now,
                warp: slot,
                reg: Violation::NO_REG,
                phys: Violation::NO_PHYS,
            });
            self.flag_violation(v);
        }
        self.sanitizer.note_retire(slot);
        for _ in 0..freed {
            self.throttle.on_release(cta);
        }
        if freed > 0 {
            self.emit_balance(cta);
        }
        self.local.clear_warp(slot);
        debug_assert!(self.cta_slots[cta].is_some(), "warp belongs to a CTA");
        let done = self.cta_slots[cta].as_mut().is_some_and(|cs| {
            cs.live_warps = cs.live_warps.saturating_sub(1);
            cs.live_warps == 0
        });
        if done {
            self.complete_cta(cta);
        } else {
            self.maybe_release_barrier(cta);
        }
    }

    fn complete_cta(&mut self, cta: usize) {
        debug_assert!(self.cta_slots[cta].is_some(), "completing a live CTA");
        let Some(cs) = self.cta_slots[cta].take() else {
            return;
        };
        if self.sink.enabled() {
            let cta_id = cs
                .warp_slots
                .first()
                .map_or(cta as u32, |&ws| self.warps[ws].cta_id);
            self.sink.emit(TraceEvent::sm_event(
                self.now,
                self.sm_id,
                TraceKind::CtaComplete { cta: cta_id },
            ));
        }
        for ws in cs.warp_slots {
            self.warp_status[ws] = WarpStatus::Idle;
        }
        self.throttle.retire(cta);
        self.stats.ctas_completed += 1;
        // launch more work if any remains
        let _ = self.fill_cta_slots();
    }

    fn maybe_release_barrier(&mut self, cta: usize) {
        let release = match self.cta_slots[cta].as_ref() {
            Some(cs) => cs.at_barrier > 0 && cs.at_barrier == cs.live_warps,
            None => false,
        };
        if !release {
            return;
        }
        let slots = self.cta_slots[cta]
            .as_ref()
            .expect("checked")
            .warp_slots
            .clone();
        if let Some(cs) = self.cta_slots[cta].as_mut() {
            cs.at_barrier = 0;
        }
        for ws in slots {
            if self.warp_status[ws] == WarpStatus::AtBarrier {
                self.warp_status[ws] = WarpStatus::Ready;
                self.warp_next_issue[ws] = self.now + 1;
                self.enqueue_ready(ws);
            }
        }
    }

    // ---------------------------------------------- GPU-shrink spill logic

    /// When the throttled CTA itself cannot allocate, fall back to the
    /// paper's scheduler-driven register spilling: swap out another
    /// warp's registers to memory and reload them when space frees up.
    fn maybe_spill_for(&mut self, stalled: usize) {
        let decision = self.throttle.decide(self.regfile.free_count());
        let ThrottleDecision::OnlyCta(c) = decision else {
            return;
        };
        if self.warps[stalled].cta_slot != c {
            return;
        }
        // victim: the warp (any CTA, not the stalled one) holding the
        // most dynamically-mapped registers — preferring CTAs with no
        // warp waiting at a barrier, since a swapped-out warp cannot
        // reach its barrier and would hold its whole CTA hostage
        let cta_at_barrier: Vec<bool> = (0..self.cta_slots.len())
            .map(|c| {
                self.warps
                    .iter()
                    .any(|w| w.cta_slot == c && self.warp_status[w.slot] == WarpStatus::AtBarrier)
            })
            .collect();
        let candidates = |avoid_barrier_ctas: bool| {
            self.warps
                .iter()
                .filter(|w| {
                    w.slot != stalled
                        && matches!(
                            self.warp_status[w.slot],
                            WarpStatus::Ready | WarpStatus::PendingMem
                        )
                        && self.warp_outstanding[w.slot] == 0
                        && (!avoid_barrier_ctas || !cta_at_barrier[w.cta_slot])
                })
                .map(|w| (self.regfile.mapped_count_of(w.slot), w.slot))
                .filter(|&(n, _)| n > 0)
                .max_by_key(|&(n, _)| n)
        };
        let victim = candidates(true).or_else(|| candidates(false));
        let Some((_, victim)) = victim else { return };
        let regs = self.regfile.mapped_regs(victim);
        let vc = self.warps[victim].cta_slot;
        if self.sink.enabled() {
            self.sink.emit(TraceEvent::warp_event(
                self.now,
                self.sm_id,
                victim,
                TraceKind::SwapOut {
                    warp_regs: regs.len() as u32,
                },
            ));
        }
        for &r in &regs {
            if let Some(p) = self.regfile.read(victim, r) {
                if self.injector.should_fire(FaultKind::SpillWriteLoss) {
                    // the spill store is lost: no backup is recorded, so
                    // swap-in will restore stale/poison data
                    self.trace_fault(
                        victim,
                        FaultLabel::SpillLoss,
                        u16::from(r.raw()),
                        p.index() as u32,
                    );
                } else {
                    self.spill_values.insert(victim, r, self.values[p.index()]);
                }
                if self.sink.enabled() {
                    self.sink.emit(TraceEvent::warp_event(
                        self.now,
                        self.sm_id,
                        victim,
                        TraceKind::Spill {
                            reg: r.index() as u16,
                            phys: p.index() as u32,
                        },
                    ));
                }
            }
            self.sanitizer.note_release(victim, r);
            if self.release_checked(victim, r) {
                self.throttle.on_release(vc);
            }
        }
        if !regs.is_empty() {
            self.emit_balance(vc);
        }
        let cost = self.config.mem_base_latency + regs.len() as u64 * self.config.mem_per_txn;
        self.stats.mem_txns += regs.len() as u64;
        let now = self.now;
        self.warps[victim].spilled_regs = regs;
        self.warp_status[victim] = WarpStatus::SwappedOut;
        self.warp_swap_ready[victim] = now + cost;
        self.swapped_out += 1;
        self.remove_from_ready(victim);
        self.stats.swap_outs += 1;
    }

    fn try_swap_ins(&mut self) {
        if self.swapped_out == 0 {
            return;
        }
        for slot in 0..self.warps.len() {
            if self.warp_status[slot] != WarpStatus::SwappedOut
                || self.warp_swap_ready[slot] > self.now
            {
                continue;
            }
            let regs = self.warps[slot].spilled_regs.clone();
            if self.regfile.free_count() < regs.len() {
                continue; // not enough space yet
            }
            let cta = self.warps[slot].cta_slot;
            let mut restored = Vec::new();
            let mut ok = true;
            for &r in &regs {
                match self
                    .regfile
                    .write_traced(slot, r, self.now, self.sm_id, &mut self.sink)
                {
                    WriteOutcome::Mapped { phys, .. } => {
                        match self.spill_values.get(slot, r) {
                            Some(val) => self.values[phys.index()] = *val,
                            None => {
                                // the spill backup never made it to memory
                                // (SpillWriteLoss): restoring leaves stale
                                // contents behind this mapping
                                let v = self.sanitizer.report(Violation {
                                    kind: ViolationKind::SpillLoss,
                                    cycle: self.now,
                                    warp: slot,
                                    reg: u16::from(r.raw()),
                                    phys: phys.index() as u32,
                                });
                                self.flag_violation(v);
                            }
                        }
                        let v = self.sanitizer.note_map(slot, r, phys, self.now);
                        self.flag_violation(v);
                        self.throttle.on_alloc(cta);
                        restored.push(r);
                    }
                    WriteOutcome::NoFreeRegister => {
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                // roll back and retry later
                for r in restored {
                    if let Some(p) = self.regfile.read(slot, r) {
                        self.spill_values.insert(slot, r, self.values[p.index()]);
                    }
                    self.sanitizer.note_release(slot, r);
                    self.regfile
                        .release_traced(slot, r, self.now, self.sm_id, &mut self.sink);
                    self.throttle.on_release(cta);
                }
                continue;
            }
            if self.sink.enabled() {
                self.sink.emit(TraceEvent::warp_event(
                    self.now,
                    self.sm_id,
                    slot,
                    TraceKind::SwapIn {
                        warp_regs: regs.len() as u32,
                    },
                ));
            }
            self.emit_balance(cta);
            for &r in &regs {
                self.spill_values.remove(slot, r);
            }
            self.stats.mem_txns += regs.len() as u64;
            let next_issue = self.now + self.config.mem_base_latency;
            self.warps[slot].spilled_regs.clear();
            self.warp_status[slot] = WarpStatus::Ready;
            self.warp_next_issue[slot] = next_issue;
            self.swapped_out -= 1;
            self.enqueue_ready(slot);
        }
    }

    /// Timing for a global load: coalesce the lanes' addresses into
    /// 128 B segments, merge with in-flight segments (MSHR behaviour),
    /// and charge base latency plus one burst per *new* transaction.
    /// Returns the load-to-use latency.
    fn global_load_latency(&mut self, slot: usize, addrs: &[Option<u64>]) -> u64 {
        let segments = crate::memory::SegmentSet::from_addrs(addrs);
        let segments = segments.segments();
        // lazily expire completed segments
        let now = self.now;
        self.inflight_segments.retain(|&(_, ready)| ready > now);
        let mut new_txns = 0u64;
        let mut merged = 0u16;
        let base = segments
            .first()
            .map_or(0, |&s| s * crate::memory::SEGMENT_BYTES);
        let mut done_at = now;
        for &seg in segments {
            match self
                .inflight_segments
                .iter()
                .find_map(|&(s, ready)| (s == seg).then_some(ready))
            {
                Some(ready) => {
                    self.stats.mshr_merges += 1;
                    merged += 1;
                    done_at = done_at.max(ready);
                }
                None => {
                    new_txns += 1;
                    let ready =
                        now + self.config.mem_base_latency + new_txns * self.config.mem_per_txn;
                    self.inflight_segments.push((seg, ready));
                    done_at = done_at.max(ready);
                }
            }
        }
        self.stats.mem_txns += new_txns;
        if self.sink.enabled() {
            if new_txns > 0 {
                self.sink.emit(TraceEvent::warp_event(
                    now,
                    self.sm_id,
                    slot,
                    TraceKind::Mem {
                        phase: MemPhase::Issue,
                        addr: base,
                        segments: new_txns as u16,
                    },
                ));
            }
            if merged > 0 {
                self.sink.emit(TraceEvent::warp_event(
                    now,
                    self.sm_id,
                    slot,
                    TraceKind::Mem {
                        phase: MemPhase::MshrMerge,
                        addr: base,
                        segments: merged,
                    },
                ));
            }
        }
        done_at.saturating_sub(now).max(1)
    }

    // ------------------------------------------------------------ sampling

    fn sample_if_due(&mut self) {
        if let Some(at) = self.config.snapshot_at_cycle {
            if self.now >= at && self.stats.subarray_snapshot.is_none() {
                self.stats.subarray_snapshot =
                    Some((self.now, self.regfile.subarray_occupancy().to_vec()));
            }
        }
        if self.now < self.next_sample || self.stats.samples.len() >= 4_000_000 {
            return;
        }
        self.next_sample = self.now + self.config.sample_interval;
        let resident = self.resident_ctas() * self.warps_per_cta * self.num_regs;
        self.stats.samples.push(Sample {
            cycle: self.now,
            live_regs: self.regfile.live_count(),
            resident_arch_regs: resident,
            subarrays_on: self.regfile.subarrays_on(),
        });
    }
}

fn violation_kind_tag(k: ViolationKind) -> u8 {
    match k {
        ViolationKind::UseAfterRelease => 0,
        ViolationKind::MappingMismatch => 1,
        ViolationKind::AliasedPhys => 2,
        ViolationKind::AvailDisagree => 3,
        ViolationKind::DoubleFree => 4,
        ViolationKind::DroppedRelease => 5,
        ViolationKind::RegisterLeak => 6,
        ViolationKind::SpillLoss => 7,
    }
}

fn violation_kind_untag(t: u8) -> Result<ViolationKind, WireError> {
    Ok(match t {
        0 => ViolationKind::UseAfterRelease,
        1 => ViolationKind::MappingMismatch,
        2 => ViolationKind::AliasedPhys,
        3 => ViolationKind::AvailDisagree,
        4 => ViolationKind::DoubleFree,
        5 => ViolationKind::DroppedRelease,
        6 => ViolationKind::RegisterLeak,
        7 => ViolationKind::SpillLoss,
        _ => return Err(WireError::Invalid("violation kind tag")),
    })
}

fn encode_violation(e: &mut Enc, v: Violation) {
    e.u8(violation_kind_tag(v.kind));
    e.u64(v.cycle);
    e.usize(v.warp);
    e.u16(v.reg);
    e.u32(v.phys);
}

fn decode_violation(d: &mut Dec<'_>) -> Result<Violation, WireError> {
    Ok(Violation {
        kind: violation_kind_untag(d.u8()?)?,
        cycle: d.u64()?,
        warp: d.usize()?,
        reg: d.u16()?,
        phys: d.u32()?,
    })
}
