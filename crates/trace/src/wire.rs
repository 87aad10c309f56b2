//! A tiny zero-dependency binary codec for checkpoint frames.
//!
//! `rfv-sim` checkpoints (`rfv-ckpt-v2`) serialize every stateful
//! simulator component through this module: fixed-width little-endian
//! integers, length-prefixed byte strings, and nothing else. The
//! format is deliberately dumb — no varints, no compression — because
//! the contract that matters is *bit-exact round-tripping*: a value
//! encoded and decoded must compare equal, and two equal states must
//! encode to identical bytes (so checkpoint files can be diffed and
//! checksummed).
//!
//! Decoding is total: every read returns a [`WireError`] instead of
//! panicking on truncated or corrupt input, which is what lets the
//! checkpoint loader reject damaged files as a typed error.

use crate::event::{FaultLabel, MemPhase, StallReason, TraceEvent, TraceKind};

/// Decode failure: the byte stream did not contain what the reader
/// expected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The stream ended mid-value.
    UnexpectedEof,
    /// A tag or length field held a value outside its domain.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Byte-stream writer. All integers are little-endian fixed width.
#[derive(Clone, Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64` (two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an `Option<u64>`: presence byte then the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Appends raw bytes with a `u64` length prefix.
    pub fn frame(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends raw bytes with no framing (caller knows the length).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Byte-stream reader over a borrowed buffer. Every accessor returns
/// [`WireError::UnexpectedEof`] instead of panicking when the stream
/// is exhausted.
#[derive(Clone, Copy, Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the stream is fully consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and converts it to `usize`, rejecting values that
    /// do not fit.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Invalid("usize out of range"))
    }

    /// Reads a `bool` byte; anything but 0 or 1 is corrupt.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool byte")),
        }
    }

    /// Reads an `Option<u64>` written by [`Enc::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// Reads a length-prefixed byte string written by [`Enc::frame`].
    pub fn frame(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads exactly `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }
}

/// FNV-1a over `bytes`: the checkpoint file's trailing checksum and
/// the config/kernel identity hashes. Deterministic, zero-dependency,
/// and stable across platforms.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ------------------------------------------------------- event codec

fn stall_tag(r: StallReason) -> u8 {
    match r {
        StallReason::NoInstr => 0,
        StallReason::Scoreboard => 1,
        StallReason::Barrier => 2,
        StallReason::Memory => 3,
        StallReason::NoReg => 4,
        StallReason::GateWakeup => 5,
        StallReason::Throttled => 6,
    }
}

fn stall_untag(t: u8) -> Result<StallReason, WireError> {
    Ok(match t {
        0 => StallReason::NoInstr,
        1 => StallReason::Scoreboard,
        2 => StallReason::Barrier,
        3 => StallReason::Memory,
        4 => StallReason::NoReg,
        5 => StallReason::GateWakeup,
        6 => StallReason::Throttled,
        _ => return Err(WireError::Invalid("stall reason tag")),
    })
}

fn phase_tag(p: MemPhase) -> u8 {
    match p {
        MemPhase::Issue => 0,
        MemPhase::MshrMerge => 1,
        MemPhase::Complete => 2,
    }
}

fn phase_untag(t: u8) -> Result<MemPhase, WireError> {
    Ok(match t {
        0 => MemPhase::Issue,
        1 => MemPhase::MshrMerge,
        2 => MemPhase::Complete,
        _ => return Err(WireError::Invalid("mem phase tag")),
    })
}

fn fault_tag(l: FaultLabel) -> u8 {
    match l {
        FaultLabel::PrematureRelease => 0,
        FaultLabel::DroppedRelease => 1,
        FaultLabel::PirFlip => 2,
        FaultLabel::PbrFlip => 3,
        FaultLabel::RenameCorrupt => 4,
        FaultLabel::StaleFlagHit => 5,
        FaultLabel::SpillLoss => 6,
    }
}

fn fault_untag(t: u8) -> Result<FaultLabel, WireError> {
    Ok(match t {
        0 => FaultLabel::PrematureRelease,
        1 => FaultLabel::DroppedRelease,
        2 => FaultLabel::PirFlip,
        3 => FaultLabel::PbrFlip,
        4 => FaultLabel::RenameCorrupt,
        5 => FaultLabel::StaleFlagHit,
        6 => FaultLabel::SpillLoss,
        _ => return Err(WireError::Invalid("fault label tag")),
    })
}

/// Serializes one [`TraceEvent`] (a checkpointed sink's ring
/// contents) into `e`.
pub fn encode_event(ev: &TraceEvent, e: &mut Enc) {
    e.u64(ev.cycle);
    e.u16(ev.sm);
    e.u16(ev.warp);
    match ev.kind {
        TraceKind::RegAlloc { reg, phys, bank } => {
            e.u8(0);
            e.u16(reg);
            e.u32(phys);
            e.u8(bank);
        }
        TraceKind::RegRelease { reg, phys, bank } => {
            e.u8(1);
            e.u16(reg);
            e.u32(phys);
            e.u8(bank);
        }
        TraceKind::RegRename {
            reg,
            old_phys,
            new_phys,
        } => {
            e.u8(2);
            e.u16(reg);
            e.u32(old_phys);
            e.u32(new_phys);
        }
        TraceKind::FlagCacheHit { pc } => {
            e.u8(3);
            e.u32(pc);
        }
        TraceKind::FlagCacheMiss { pc } => {
            e.u8(4);
            e.u32(pc);
        }
        TraceKind::PirDecode { pc, flags } => {
            e.u8(5);
            e.u32(pc);
            e.u16(flags);
        }
        TraceKind::PbrDecode { pc, released } => {
            e.u8(6);
            e.u32(pc);
            e.u16(released);
        }
        TraceKind::ThrottleAdmit { cta, budget } => {
            e.u8(7);
            e.u32(cta);
            e.u32(budget);
        }
        TraceKind::ThrottleDeny { cta, balance } => {
            e.u8(8);
            e.u32(cta);
            e.i64(balance);
        }
        TraceKind::ThrottleBalance { cta, balance } => {
            e.u8(9);
            e.u32(cta);
            e.i64(balance);
        }
        TraceKind::Spill { reg, phys } => {
            e.u8(10);
            e.u16(reg);
            e.u32(phys);
        }
        TraceKind::SwapOut { warp_regs } => {
            e.u8(11);
            e.u32(warp_regs);
        }
        TraceKind::SwapIn { warp_regs } => {
            e.u8(12);
            e.u32(warp_regs);
        }
        TraceKind::GateOff { subarray } => {
            e.u8(13);
            e.u16(subarray);
        }
        TraceKind::GateOn { subarray, wakeup } => {
            e.u8(14);
            e.u16(subarray);
            e.u32(wakeup);
        }
        TraceKind::Issue { pc, active_lanes } => {
            e.u8(15);
            e.u32(pc);
            e.u8(active_lanes);
        }
        TraceKind::Stall { reason } => {
            e.u8(16);
            e.u8(stall_tag(reason));
        }
        TraceKind::Mem {
            phase,
            addr,
            segments,
        } => {
            e.u8(17);
            e.u8(phase_tag(phase));
            e.u64(addr);
            e.u16(segments);
        }
        TraceKind::CtaLaunch { cta } => {
            e.u8(18);
            e.u32(cta);
        }
        TraceKind::CtaComplete { cta } => {
            e.u8(19);
            e.u32(cta);
        }
        TraceKind::FaultInjected { fault, reg, phys } => {
            e.u8(20);
            e.u8(fault_tag(fault));
            e.u16(reg);
            e.u32(phys);
        }
        TraceKind::Quarantine { cta, warps } => {
            e.u8(21);
            e.u32(cta);
            e.u16(warps);
        }
    }
}

/// Deserializes one [`TraceEvent`] written by [`encode_event`].
///
/// # Errors
///
/// [`WireError`] on truncation or an unknown tag.
pub fn decode_event(d: &mut Dec<'_>) -> Result<TraceEvent, WireError> {
    let cycle = d.u64()?;
    let sm = d.u16()?;
    let warp = d.u16()?;
    let kind = match d.u8()? {
        0 => TraceKind::RegAlloc {
            reg: d.u16()?,
            phys: d.u32()?,
            bank: d.u8()?,
        },
        1 => TraceKind::RegRelease {
            reg: d.u16()?,
            phys: d.u32()?,
            bank: d.u8()?,
        },
        2 => TraceKind::RegRename {
            reg: d.u16()?,
            old_phys: d.u32()?,
            new_phys: d.u32()?,
        },
        3 => TraceKind::FlagCacheHit { pc: d.u32()? },
        4 => TraceKind::FlagCacheMiss { pc: d.u32()? },
        5 => TraceKind::PirDecode {
            pc: d.u32()?,
            flags: d.u16()?,
        },
        6 => TraceKind::PbrDecode {
            pc: d.u32()?,
            released: d.u16()?,
        },
        7 => TraceKind::ThrottleAdmit {
            cta: d.u32()?,
            budget: d.u32()?,
        },
        8 => TraceKind::ThrottleDeny {
            cta: d.u32()?,
            balance: d.i64()?,
        },
        9 => TraceKind::ThrottleBalance {
            cta: d.u32()?,
            balance: d.i64()?,
        },
        10 => TraceKind::Spill {
            reg: d.u16()?,
            phys: d.u32()?,
        },
        11 => TraceKind::SwapOut {
            warp_regs: d.u32()?,
        },
        12 => TraceKind::SwapIn {
            warp_regs: d.u32()?,
        },
        13 => TraceKind::GateOff { subarray: d.u16()? },
        14 => TraceKind::GateOn {
            subarray: d.u16()?,
            wakeup: d.u32()?,
        },
        15 => TraceKind::Issue {
            pc: d.u32()?,
            active_lanes: d.u8()?,
        },
        16 => TraceKind::Stall {
            reason: stall_untag(d.u8()?)?,
        },
        17 => TraceKind::Mem {
            phase: phase_untag(d.u8()?)?,
            addr: d.u64()?,
            segments: d.u16()?,
        },
        18 => TraceKind::CtaLaunch { cta: d.u32()? },
        19 => TraceKind::CtaComplete { cta: d.u32()? },
        20 => TraceKind::FaultInjected {
            fault: fault_untag(d.u8()?)?,
            reg: d.u16()?,
            phys: d.u32()?,
        },
        21 => TraceKind::Quarantine {
            cta: d.u32()?,
            warps: d.u16()?,
        },
        _ => return Err(WireError::Invalid("event kind tag")),
    };
    Ok(TraceEvent {
        cycle,
        sm,
        warp,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(0xbeef);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 1);
        e.i64(-42);
        e.usize(123_456);
        e.bool(true);
        e.bool(false);
        e.opt_u64(Some(9));
        e.opt_u64(None);
        e.frame(b"hello");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xbeef);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.usize().unwrap(), 123_456);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.opt_u64().unwrap(), Some(9));
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.frame().unwrap(), b"hello");
        assert!(d.is_done());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.u64(12345);
        e.frame(b"abcdef");
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            // reading the same schema from any prefix must fail
            // gracefully somewhere, never panic
            let r = d.u64().and_then(|_| d.frame().map(<[u8]>::to_vec));
            if cut < bytes.len() {
                assert!(r.is_err(), "cut at {cut} should not parse");
            }
        }
    }

    #[test]
    fn bad_bool_and_bad_tags_rejected() {
        let mut d = Dec::new(&[2]);
        assert_eq!(d.bool(), Err(WireError::Invalid("bool byte")));
        assert_eq!(
            stall_untag(200),
            Err(WireError::Invalid("stall reason tag"))
        );
        assert_eq!(phase_untag(3), Err(WireError::Invalid("mem phase tag")));
        assert_eq!(fault_untag(7), Err(WireError::Invalid("fault label tag")));
    }

    #[test]
    fn fnv1a_is_stable() {
        // reference vectors for the 64-bit FNV-1a parameters
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }

    #[test]
    fn every_event_kind_round_trips() {
        let kinds = [
            TraceKind::RegAlloc {
                reg: 3,
                phys: 77,
                bank: 2,
            },
            TraceKind::RegRelease {
                reg: 4,
                phys: 78,
                bank: 1,
            },
            TraceKind::RegRename {
                reg: 5,
                old_phys: 1,
                new_phys: 2,
            },
            TraceKind::FlagCacheHit { pc: 10 },
            TraceKind::FlagCacheMiss { pc: 11 },
            TraceKind::PirDecode { pc: 12, flags: 3 },
            TraceKind::PbrDecode {
                pc: 13,
                released: 2,
            },
            TraceKind::ThrottleAdmit { cta: 1, budget: 96 },
            TraceKind::ThrottleDeny {
                cta: 2,
                balance: -5,
            },
            TraceKind::ThrottleBalance {
                cta: 3,
                balance: 40,
            },
            TraceKind::Spill { reg: 6, phys: 80 },
            TraceKind::SwapOut { warp_regs: 9 },
            TraceKind::SwapIn { warp_regs: 9 },
            TraceKind::GateOff { subarray: 7 },
            TraceKind::GateOn {
                subarray: 8,
                wakeup: 5,
            },
            TraceKind::Issue {
                pc: 14,
                active_lanes: 32,
            },
            TraceKind::Stall {
                reason: StallReason::GateWakeup,
            },
            TraceKind::Mem {
                phase: MemPhase::MshrMerge,
                addr: 0x1000,
                segments: 4,
            },
            TraceKind::CtaLaunch { cta: 4 },
            TraceKind::CtaComplete { cta: 4 },
            TraceKind::FaultInjected {
                fault: FaultLabel::SpillLoss,
                reg: 9,
                phys: 81,
            },
            TraceKind::Quarantine { cta: 5, warps: 4 },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let ev = TraceEvent {
                cycle: 1000 + i as u64,
                sm: 2,
                warp: i as u16,
                kind,
            };
            let mut e = Enc::new();
            encode_event(&ev, &mut e);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(decode_event(&mut d).unwrap(), ev);
            assert!(d.is_done(), "kind {i} leaves trailing bytes");
            // truncated event bytes must fail, not panic
            for cut in 0..bytes.len() {
                assert!(decode_event(&mut Dec::new(&bytes[..cut])).is_err());
            }
        }
    }
}
