//! Thread-level register liveness: a standard iterative backward
//! dataflow over the CFG, with per-instruction resolution.
//!
//! Guarded (predicated) definitions are *partial* writes — in a SIMT
//! machine they update only the lanes whose guard holds — so they do
//! not kill liveness.

use std::fmt;

use rfv_isa::{ArchReg, Instr, MAX_REGS_PER_THREAD};

use crate::cfg::{BlockId, Cfg};

/// A compact set of architected registers (bitmask over `r0..r62`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegSet(u64);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// Inserts a register; returns whether it was newly inserted.
    pub fn insert(&mut self, r: ArchReg) -> bool {
        let bit = 1u64 << r.index();
        let newly = self.0 & bit == 0;
        self.0 |= bit;
        newly
    }

    /// Removes a register.
    pub fn remove(&mut self, r: ArchReg) {
        self.0 &= !(1u64 << r.index());
    }

    /// Whether the set contains `r`.
    pub fn contains(&self, r: ArchReg) -> bool {
        self.0 & (1u64 << r.index()) != 0
    }

    /// Set union.
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set difference (`self \ other`).
    pub fn difference(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// Set intersection.
    pub fn intersection(self, other: RegSet) -> RegSet {
        RegSet(self.0 & other.0)
    }

    /// The raw bitmask (bit `i` set iff `ri` is in the set).
    pub(crate) fn bits(self) -> u64 {
        self.0
    }

    /// Number of registers in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates the registers in ascending id order.
    pub fn iter(self) -> impl Iterator<Item = ArchReg> {
        (0..MAX_REGS_PER_THREAD as u8)
            .filter(move |&i| self.0 & (1u64 << i) != 0)
            .map(ArchReg::new)
    }
}

impl FromIterator<ArchReg> for RegSet {
    fn from_iter<T: IntoIterator<Item = ArchReg>>(iter: T) -> RegSet {
        let mut s = RegSet::EMPTY;
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl Extend<ArchReg> for RegSet {
    fn extend<T: IntoIterator<Item = ArchReg>>(&mut self, iter: T) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The registers an instruction reads.
pub fn uses(i: &Instr) -> RegSet {
    i.reads().collect()
}

/// The register an instruction *kills* (fully defines).
///
/// A guarded write is partial and kills nothing.
pub fn kill(i: &Instr) -> Option<ArchReg> {
    if i.guard.is_some() {
        None
    } else {
        i.dst
    }
}

/// The register an instruction defines (fully or partially).
pub fn def(i: &Instr) -> Option<ArchReg> {
    i.dst
}

/// Liveness facts for one kernel, at block and instruction
/// granularity.
#[derive(Clone, Debug)]
pub struct Liveness {
    block_in: Vec<RegSet>,
    block_out: Vec<RegSet>,
    /// `instr_out[pc]`: registers live immediately after instruction
    /// `pc`.
    instr_out: Vec<RegSet>,
    /// `instr_in[pc]`: registers live immediately before instruction
    /// `pc`.
    instr_in: Vec<RegSet>,
}

impl Liveness {
    /// Runs the dataflow to a fixpoint.
    pub fn compute(cfg: &Cfg) -> Liveness {
        let n = cfg.num_blocks();
        let instrs = cfg.instrs();

        // per-block use/def summaries
        let mut b_use = vec![RegSet::EMPTY; n];
        let mut b_def = vec![RegSet::EMPTY; n];
        for (bi, b) in cfg.blocks().iter().enumerate() {
            for pc in b.range() {
                let i = &instrs[pc];
                for r in uses(i).iter() {
                    if !b_def[bi].contains(r) {
                        b_use[bi].insert(r);
                    }
                }
                if let Some(d) = kill(i) {
                    b_def[bi].insert(d);
                } else if let Some(d) = def(i) {
                    // partial def: the old value flows through, so the
                    // register counts as used (upward exposed).
                    if !b_def[bi].contains(d) {
                        b_use[bi].insert(d);
                    }
                }
            }
        }

        let mut block_in = vec![RegSet::EMPTY; n];
        let mut block_out = vec![RegSet::EMPTY; n];
        let mut changed = true;
        while changed {
            changed = false;
            // backward problem: iterate blocks in reverse RPO
            for &b in cfg.reverse_post_order().iter().rev() {
                let bi = b.0;
                let mut out = RegSet::EMPTY;
                for s in &cfg.block(b).succs {
                    out = out.union(block_in[s.0]);
                }
                let inn = b_use[bi].union(out.difference(b_def[bi]));
                if out != block_out[bi] || inn != block_in[bi] {
                    block_out[bi] = out;
                    block_in[bi] = inn;
                    changed = true;
                }
            }
        }

        // per-instruction facts by walking each block backward
        let mut instr_out = vec![RegSet::EMPTY; instrs.len()];
        let mut instr_in = vec![RegSet::EMPTY; instrs.len()];
        for (bi, b) in cfg.blocks().iter().enumerate() {
            let mut live = block_out[bi];
            for pc in b.range().rev() {
                let i = &instrs[pc];
                instr_out[pc] = live;
                if let Some(d) = kill(i) {
                    live.remove(d);
                }
                live = live.union(uses(i));
                if i.guard.is_some() {
                    if let Some(d) = def(i) {
                        live.insert(d);
                    }
                }
                instr_in[pc] = live;
            }
        }

        Liveness {
            block_in,
            block_out,
            instr_out,
            instr_in,
        }
    }

    /// Registers live at entry to block `b`.
    pub fn live_in(&self, b: BlockId) -> RegSet {
        self.block_in[b.0]
    }

    /// Registers live at exit from block `b`.
    pub fn live_out(&self, b: BlockId) -> RegSet {
        self.block_out[b.0]
    }

    /// Registers live immediately after instruction `pc`.
    pub fn live_out_at(&self, pc: usize) -> RegSet {
        self.instr_out[pc]
    }

    /// Registers live immediately before instruction `pc`.
    pub fn live_in_at(&self, pc: usize) -> RegSet {
        self.instr_in[pc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_isa::prelude::*;
    use rfv_isa::PredGuard;

    fn build(f: impl FnOnce(&mut KernelBuilder)) -> Cfg {
        let mut b = KernelBuilder::new("t");
        f(&mut b);
        Cfg::build(&b.build(LaunchConfig::new(1, 32, 1)).unwrap()).unwrap()
    }

    #[test]
    fn regset_basics() {
        let mut s = RegSet::EMPTY;
        assert!(s.is_empty());
        assert!(s.insert(ArchReg::R3));
        assert!(!s.insert(ArchReg::R3));
        s.insert(ArchReg::new(62));
        assert_eq!(s.len(), 2);
        assert!(s.contains(ArchReg::R3));
        s.remove(ArchReg::R3);
        assert!(!s.contains(ArchReg::R3));
        let t: RegSet = [ArchReg::R0, ArchReg::R1].into_iter().collect();
        assert_eq!(t.union(s).len(), 3);
        assert_eq!(t.difference(t), RegSet::EMPTY);
        assert_eq!(t.intersection(s), RegSet::EMPTY);
    }

    #[test]
    fn straight_line_death() {
        let cfg = build(|b| {
            b.mov(ArchReg::R0, 1); // pc 0
            b.iadd(ArchReg::R1, ArchReg::R0, 1); // pc 1: last read of r0
            b.iadd(ArchReg::R2, ArchReg::R1, 1); // pc 2
            b.exit(); // pc 3
        });
        let lv = Liveness::compute(&cfg);
        assert!(lv.live_out_at(0).contains(ArchReg::R0));
        assert!(!lv.live_out_at(1).contains(ArchReg::R0));
        assert!(lv.live_out_at(1).contains(ArchReg::R1));
        assert!(!lv.live_out_at(2).contains(ArchReg::R1));
        assert_eq!(lv.live_out_at(3), RegSet::EMPTY);
    }

    #[test]
    fn redefinition_splits_lifetimes() {
        let cfg = build(|b| {
            b.mov(ArchReg::R0, 1); // pc 0
            b.iadd(ArchReg::R1, ArchReg::R0, 1); // pc 1
            b.mov(ArchReg::R0, 2); // pc 2: redefine r0
            b.iadd(ArchReg::R2, ArchReg::R0, 1); // pc 3
            b.exit();
        });
        let lv = Liveness::compute(&cfg);
        assert!(
            !lv.live_out_at(1).contains(ArchReg::R0),
            "dead between uses"
        );
        assert!(lv.live_out_at(2).contains(ArchReg::R0));
    }

    #[test]
    fn branch_keeps_register_live_on_other_path() {
        let cfg = build(|b| {
            b.mov(ArchReg::R0, 1);
            b.isetp(Cond::Lt, Pred::P0, ArchReg::R0, Operand::Imm(5));
            b.guard(PredGuard::if_false(Pred::P0));
            b.bra("else");
            // then: reads r0
            b.iadd(ArchReg::R1, ArchReg::R0, 1);
            b.bra("join");
            b.label("else");
            // else: also reads r0
            b.iadd(ArchReg::R1, ArchReg::R0, 2);
            b.label("join");
            b.exit();
        });
        let lv = Liveness::compute(&cfg);
        // at end of bb0, r0 live (both arms read it)
        assert!(lv.live_out(BlockId(0)).contains(ArchReg::R0));
        // after the read in the THEN arm (pc 3), r0 is dead on that path
        assert!(!lv.live_out_at(3).contains(ArchReg::R0));
        // at the join, nothing is live except... r1 dead too (no reads)
        assert!(!lv.live_in(BlockId(3)).contains(ArchReg::R0));
    }

    #[test]
    fn loop_carried_register_stays_live() {
        let cfg = build(|b| {
            b.mov(ArchReg::R0, 8);
            b.mov(ArchReg::R1, 0);
            b.label("top");
            b.iadd(ArchReg::R1, ArchReg::R1, 1); // r1 loop-carried
            b.iadd(ArchReg::R0, ArchReg::R0, -1);
            b.isetp(Cond::Gt, Pred::P0, ArchReg::R0, Operand::Imm(0));
            b.guard(PredGuard::if_true(Pred::P0));
            b.bra("top");
            b.stg(ArchReg::R0, ArchReg::R1, 0);
            b.exit();
        });
        let lv = Liveness::compute(&cfg);
        // body block is bb1; r1 and r0 live around the backedge
        assert!(lv.live_out(BlockId(1)).contains(ArchReg::R1));
        assert!(lv.live_out(BlockId(1)).contains(ArchReg::R0));
    }

    #[test]
    fn guarded_write_does_not_kill() {
        let cfg = build(|b| {
            b.mov(ArchReg::R0, 1); // pc 0
            b.isetp(Cond::Lt, Pred::P0, ArchReg::R0, Operand::Imm(5)); // pc 1
            b.guard(PredGuard::if_true(Pred::P0));
            b.mov(ArchReg::R0, 2); // pc 2: partial write
            b.stg(ArchReg::R1, ArchReg::R0, 0); // pc 3: read
            b.exit();
        });
        let lv = Liveness::compute(&cfg);
        // the partial write must not end the previous value's liveness
        assert!(lv.live_in_at(2).contains(ArchReg::R0));
        assert!(lv.live_out_at(1).contains(ArchReg::R0));
    }

    #[test]
    fn store_reads_both_addr_and_data() {
        let cfg = build(|b| {
            b.mov(ArchReg::R0, 0);
            b.mov(ArchReg::R1, 7);
            b.stg(ArchReg::R0, ArchReg::R1, 0);
            b.exit();
        });
        let lv = Liveness::compute(&cfg);
        assert!(lv.live_in_at(2).contains(ArchReg::R0));
        assert!(lv.live_in_at(2).contains(ArchReg::R1));
    }
}
