//! Warp state: the SIMT reconvergence stack and per-warp scheduling
//! status.

use std::fmt;

use rfv_trace::{Dec, Enc, WireError};

/// Sentinel "no reconvergence PC" (branches whose post-dominator is
/// the program exit never reconverge before the warp finishes).
pub const NO_RECONV: usize = usize::MAX;

/// One SIMT stack entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StackEntry {
    /// Popping point: when `pc` reaches this, the entry is complete.
    pub reconv_pc: usize,
    /// Next PC this entry executes.
    pub pc: usize,
    /// Lanes this entry covers.
    pub mask: u32,
}

/// The per-warp SIMT reconvergence stack.
///
/// The top entry is the executing path. A divergent branch turns the
/// top into the reconvergence continuation and pushes the not-taken
/// and taken paths above it; paths pop when they reach their
/// reconvergence PC.
#[derive(Clone, PartialEq, Debug)]
pub struct SimtStack {
    entries: Vec<StackEntry>,
}

impl SimtStack {
    /// A fresh stack starting at PC 0 with the given active lanes.
    pub fn new(mask: u32) -> SimtStack {
        SimtStack {
            entries: vec![StackEntry {
                reconv_pc: NO_RECONV,
                pc: 0,
                mask,
            }],
        }
    }

    /// Whether every lane has exited.
    pub fn is_done(&self) -> bool {
        self.entries.is_empty()
    }

    /// The executing PC.
    ///
    /// # Panics
    ///
    /// Panics when the warp has finished.
    pub fn pc(&self) -> usize {
        self.entries.last().expect("warp finished").pc
    }

    /// The executing lane mask.
    ///
    /// # Panics
    ///
    /// Panics when the warp has finished.
    pub fn mask(&self) -> u32 {
        self.entries.last().expect("warp finished").mask
    }

    /// Stack depth (diagnostics).
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    fn normalize(&mut self) {
        while let Some(top) = self.entries.last() {
            if top.mask == 0 || top.pc == top.reconv_pc {
                self.entries.pop();
            } else {
                break;
            }
        }
    }

    /// Moves the executing path to `next_pc`, popping entries whose
    /// reconvergence point is reached.
    pub fn advance(&mut self, next_pc: usize) {
        if let Some(top) = self.entries.last_mut() {
            top.pc = next_pc;
        }
        self.normalize();
    }

    /// Records a divergent branch: `taken` lanes go to `target`, the
    /// rest to `fallthrough`, reconverging at `reconv_pc`.
    ///
    /// # Panics
    ///
    /// Panics when `taken` is empty or covers the whole mask — those
    /// cases are uniform and must use [`SimtStack::advance`].
    pub fn diverge(&mut self, taken: u32, target: usize, fallthrough: usize, reconv_pc: usize) {
        let top = *self.entries.last().expect("warp finished");
        assert!(
            taken != 0 && taken != top.mask,
            "diverge() requires a genuinely split mask"
        );
        assert_eq!(taken & !top.mask, 0, "taken lanes must be active");
        // the current entry becomes the reconvergence continuation
        self.entries.last_mut().expect("non-empty").pc = reconv_pc;
        self.entries.push(StackEntry {
            reconv_pc,
            pc: fallthrough,
            mask: top.mask & !taken,
        });
        self.entries.push(StackEntry {
            reconv_pc,
            pc: target,
            mask: taken,
        });
        self.normalize();
    }

    /// Deactivates `lanes` everywhere (EXIT under possibly-divergent
    /// control flow).
    pub fn exit_lanes(&mut self, lanes: u32) {
        for e in &mut self.entries {
            e.mask &= !lanes;
        }
        self.normalize();
    }

    /// The raw stack entries, bottom to top (checkpoint encoding).
    pub fn entries(&self) -> &[StackEntry] {
        &self.entries
    }

    /// Rebuilds a stack from checkpointed entries, verbatim (no
    /// normalization — the snapshot was taken from a live stack).
    pub fn from_entries(entries: Vec<StackEntry>) -> SimtStack {
        SimtStack { entries }
    }
}

impl fmt::Display for SimtStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stack[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "pc={:#x} mask={:08x} r={:#x}", e.pc, e.mask, e.reconv_pc)?;
        }
        write!(f, "]")
    }
}

/// Scheduling status of a warp context.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WarpStatus {
    /// Slot not in use.
    Idle,
    /// Eligible for scheduling.
    Ready,
    /// Waiting for an outstanding memory access (two-level scheduler's
    /// pending queue).
    PendingMem,
    /// Waiting at a CTA barrier.
    AtBarrier,
    /// Registers spilled to memory by the GPU-shrink fallback; waiting
    /// to swap back in.
    SwappedOut,
    /// All lanes exited.
    Finished,
}

/// The scheduler-hot per-warp fields.
///
/// The SM keeps these in dense parallel arrays (struct-of-arrays, see
/// `Sm::warp_status` and friends) so the per-cycle scheduling scans —
/// `pick_warp`, the idle-skip rescan — walk packed cache lines
/// instead of striding through full [`Warp`] structs. This
/// struct is the transport form used by checkpoint encode/decode and
/// CTA launch; it never lives in the hot loop itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WarpHot {
    /// Scheduling status.
    pub status: WarpStatus,
    /// Earliest cycle the warp may issue again.
    pub next_issue_at: u64,
    /// Architected registers with outstanding (in-flight) loads,
    /// as a bitmask.
    pub outstanding: u64,
    /// Cycle the spill/reload traffic completes.
    pub swap_ready_at: u64,
}

impl WarpHot {
    /// The hot state of an unused warp slot.
    pub fn idle() -> WarpHot {
        WarpHot {
            status: WarpStatus::Idle,
            next_issue_at: 0,
            outstanding: 0,
            swap_ready_at: 0,
        }
    }
}

/// One hardware warp context (the scheduler-cold fields; the hot
/// scheduling fields live in [`WarpHot`] arrays on the SM).
#[derive(Clone, Debug)]
pub struct Warp {
    /// Hardware warp slot (index into the SM's warp table).
    pub slot: usize,
    /// Hardware CTA slot this warp belongs to.
    pub cta_slot: usize,
    /// Warp index within its CTA.
    pub warp_in_cta: usize,
    /// Grid-wide CTA index.
    pub cta_id: u32,
    /// SIMT stack.
    pub stack: SimtStack,
    /// Registers saved by a GPU-shrink spill (empty otherwise).
    pub spilled_regs: Vec<rfv_isa::ArchReg>,
}

impl Warp {
    /// An idle warp context for `slot`.
    pub fn idle(slot: usize) -> Warp {
        Warp {
            slot,
            cta_slot: 0,
            warp_in_cta: 0,
            cta_id: 0,
            stack: SimtStack::new(0),
            spilled_regs: Vec::new(),
        }
    }

    /// Serializes the full warp context (cold fields plus its hot
    /// scheduling state) for a checkpoint frame. The wire layout is
    /// byte-identical to the pre-SoA format, interleaving `hot` fields
    /// where the monolithic struct used to carry them.
    pub fn encode(&self, hot: &WarpHot, e: &mut Enc) {
        e.usize(self.slot);
        e.usize(self.cta_slot);
        e.usize(self.warp_in_cta);
        e.u32(self.cta_id);
        e.usize(self.stack.entries.len());
        for en in &self.stack.entries {
            e.usize(en.reconv_pc);
            e.usize(en.pc);
            e.u32(en.mask);
        }
        e.u8(status_tag(hot.status));
        e.u64(hot.next_issue_at);
        e.u64(hot.outstanding);
        e.usize(self.spilled_regs.len());
        for r in &self.spilled_regs {
            e.u8(r.raw());
        }
        e.u64(hot.swap_ready_at);
    }

    /// Rebuilds a warp written by [`Warp::encode`].
    ///
    /// # Errors
    ///
    /// Rejects unknown status tags and out-of-range register ids.
    pub fn decode(d: &mut Dec<'_>) -> Result<(Warp, WarpHot), WireError> {
        let slot = d.usize()?;
        let cta_slot = d.usize()?;
        let warp_in_cta = d.usize()?;
        let cta_id = d.u32()?;
        let depth = d.usize()?;
        let mut entries = Vec::with_capacity(depth.min(64));
        for _ in 0..depth {
            entries.push(StackEntry {
                reconv_pc: d.usize()?,
                pc: d.usize()?,
                mask: d.u32()?,
            });
        }
        let status = status_untag(d.u8()?)?;
        let next_issue_at = d.u64()?;
        let outstanding = d.u64()?;
        let nspill = d.usize()?;
        let mut spilled_regs = Vec::with_capacity(nspill.min(64));
        for _ in 0..nspill {
            spilled_regs.push(
                rfv_isa::ArchReg::try_new(d.u8()?)
                    .ok_or(WireError::Invalid("spilled arch reg id"))?,
            );
        }
        let swap_ready_at = d.u64()?;
        Ok((
            Warp {
                slot,
                cta_slot,
                warp_in_cta,
                cta_id,
                stack: SimtStack::from_entries(entries),
                spilled_regs,
            },
            WarpHot {
                status,
                next_issue_at,
                outstanding,
                swap_ready_at,
            },
        ))
    }
}

fn status_tag(s: WarpStatus) -> u8 {
    match s {
        WarpStatus::Idle => 0,
        WarpStatus::Ready => 1,
        WarpStatus::PendingMem => 2,
        WarpStatus::AtBarrier => 3,
        WarpStatus::SwappedOut => 4,
        WarpStatus::Finished => 5,
    }
}

fn status_untag(t: u8) -> Result<WarpStatus, WireError> {
    Ok(match t {
        0 => WarpStatus::Idle,
        1 => WarpStatus::Ready,
        2 => WarpStatus::PendingMem,
        3 => WarpStatus::AtBarrier,
        4 => WarpStatus::SwappedOut,
        5 => WarpStatus::Finished,
        _ => return Err(WireError::Invalid("warp status tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: u32 = u32::MAX;

    #[test]
    fn straight_line_advance() {
        let mut s = SimtStack::new(FULL);
        assert_eq!(s.pc(), 0);
        s.advance(1);
        s.advance(2);
        assert_eq!(s.pc(), 2);
        assert_eq!(s.mask(), FULL);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn diverge_then_reconverge() {
        let mut s = SimtStack::new(FULL);
        s.advance(3); // at the branch
        let taken = 0x0000_ffff;
        s.diverge(taken, 10, 4, 20);
        // taken path first
        assert_eq!(s.pc(), 10);
        assert_eq!(s.mask(), taken);
        assert_eq!(s.depth(), 3);
        // taken path reaches reconvergence
        s.advance(20);
        assert_eq!(s.pc(), 4, "switch to fall-through path");
        assert_eq!(s.mask(), !taken & FULL);
        s.advance(20);
        // both popped: continuation at reconv with full mask
        assert_eq!(s.pc(), 20);
        assert_eq!(s.mask(), FULL);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(FULL);
        s.diverge(0x00ff_00ff, 100, 1, 50);
        assert_eq!(s.pc(), 100);
        // inner divergence within the taken path
        s.diverge(0x0000_00ff, 200, 101, 150);
        assert_eq!(s.pc(), 200);
        assert_eq!(s.mask(), 0x0000_00ff);
        s.advance(150); // inner taken done
        assert_eq!(s.pc(), 101);
        assert_eq!(s.mask(), 0x00ff_0000);
        s.advance(150); // inner fall-through done
        assert_eq!(s.pc(), 150);
        assert_eq!(s.mask(), 0x00ff_00ff, "inner reconverged");
        s.advance(50); // outer taken done
        assert_eq!(s.mask(), 0xff00_ff00);
        s.advance(50);
        assert_eq!(s.pc(), 50);
        assert_eq!(s.mask(), FULL);
    }

    #[test]
    fn branch_directly_to_reconvergence_pops_immediately() {
        let mut s = SimtStack::new(FULL);
        // taken lanes jump straight to the reconvergence point
        s.diverge(0xffff_0000, 20, 1, 20);
        // the taken entry (pc == reconv) popped during normalization:
        // fall-through path executes first
        assert_eq!(s.pc(), 1);
        assert_eq!(s.mask(), 0x0000_ffff);
        s.advance(20);
        assert_eq!(s.pc(), 20);
        assert_eq!(s.mask(), FULL);
    }

    #[test]
    fn exit_under_divergence() {
        let mut s = SimtStack::new(FULL);
        s.diverge(0x0000_ffff, 10, 1, NO_RECONV);
        // the taken half exits
        s.exit_lanes(s.mask());
        // execution falls to the not-taken half
        assert_eq!(s.pc(), 1);
        assert_eq!(s.mask(), 0xffff_0000);
        s.exit_lanes(0xffff_0000);
        assert!(s.is_done());
    }

    #[test]
    fn partial_warp_mask() {
        let mut s = SimtStack::new(0x0000_00ff); // 8-thread tail warp
        s.diverge(0x0000_000f, 5, 1, 9);
        assert_eq!(s.mask(), 0x0000_000f);
        s.advance(9);
        assert_eq!(s.mask(), 0x0000_00f0);
        s.advance(9);
        assert_eq!(s.mask(), 0x0000_00ff);
    }

    #[test]
    #[should_panic(expected = "genuinely split")]
    fn uniform_branch_must_not_diverge() {
        let mut s = SimtStack::new(FULL);
        s.diverge(FULL, 10, 1, 20);
    }

    #[test]
    fn warp_snapshot_round_trips_stack_and_status() {
        let mut w = Warp::idle(7);
        w.cta_slot = 2;
        w.warp_in_cta = 3;
        w.cta_id = 19;
        w.stack = SimtStack::new(FULL);
        w.stack.diverge(0x0000_ffff, 10, 1, 20);
        w.spilled_regs = vec![rfv_isa::ArchReg::new(1), rfv_isa::ArchReg::new(9)];
        let hot = WarpHot {
            status: WarpStatus::PendingMem,
            next_issue_at: 1234,
            outstanding: 1u64 << rfv_isa::ArchReg::new(5).index(),
            swap_ready_at: 99,
        };
        let mut e = Enc::new();
        w.encode(&hot, &mut e);
        let bytes = e.into_bytes();
        let (r, rh) = Warp::decode(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(r.slot, 7);
        assert_eq!(r.stack, w.stack);
        assert_eq!(rh, hot);
        assert_eq!(r.spilled_regs, w.spilled_regs);
        assert!(Warp::decode(&mut Dec::new(&bytes[..bytes.len() - 2])).is_err());
        // garbage input is a typed error, never a panic
        assert!(Warp::decode(&mut Dec::new(&[0xEE; 16])).is_err());
    }

    #[test]
    fn warp_hot_starts_idle() {
        let hot = WarpHot::idle();
        assert_eq!(hot.status, WarpStatus::Idle);
        assert_eq!(hot.outstanding, 0);
        assert_eq!(hot.next_issue_at, 0);
        assert_eq!(hot.swap_ready_at, 0);
    }
}
