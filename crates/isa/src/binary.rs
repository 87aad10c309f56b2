//! Binary kernel images: a compact serialized form of a [`Kernel`]
//! ("cubin-lite").
//!
//! Every program slot is encoded as one or two 64-bit words sharing
//! the metadata instructions' layout (10-bit opcode split 4 + 6 in
//! bits `[3:0]` and `[63:58]`, 54 payload bits — see [`crate::meta`]):
//!
//! * `pir` / `pbr` slots use their existing encodings verbatim;
//! * machine instructions pack registers, predicates, and flags into
//!   the payload, with an optional *extension word* carrying a 32-bit
//!   immediate plus a 32-bit address offset / branch target (the
//!   moral equivalent of Fermi's wide-immediate forms).
//!
//! The image begins with a small header (magic, version, launch
//! geometry, name) and round-trips losslessly:
//! `decode_kernel(&encode_kernel(&k)?)? == k`.

use std::fmt;

use crate::instr::{Instr, Operand, PredGuard};
use crate::kernel::{Kernel, LaunchConfig, ProgItem};
use crate::meta::{self, MetaInstr};
use crate::op::{Cond, Opcode, Special};
use crate::reg::{ArchReg, Pred};

/// Image magic bytes.
pub const MAGIC: [u8; 4] = *b"RFVK";

/// Image format version.
pub const VERSION: u16 = 1;

/// 6-bit register-field sentinel for "no register".
const NO_REG: u64 = 0x3f;

/// `imm_slot` sentinel for "no immediate operand".
const NO_IMM: u64 = 3;

/// Encoding/decoding failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BinaryError {
    /// More than one immediate operand (the single-extension-word
    /// format carries at most one 32-bit immediate).
    MultipleImmediates {
        /// Program slot of the offending instruction.
        pc: usize,
    },
    /// The image is shorter than its header or counts claim.
    Truncated,
    /// Bad magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// An opcode number that names no instruction.
    UnknownOpcode {
        /// Program slot.
        pc: usize,
        /// The 10-bit opcode value.
        code: u16,
    },
    /// A register/predicate field held an invalid id.
    BadField {
        /// Program slot.
        pc: usize,
        /// Field description.
        field: &'static str,
    },
    /// The decoded program failed kernel validation.
    InvalidKernel(String),
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryError::MultipleImmediates { pc } => {
                write!(
                    f,
                    "instruction at slot {pc} has more than one immediate operand"
                )
            }
            BinaryError::Truncated => write!(f, "image truncated"),
            BinaryError::BadMagic => write!(f, "bad magic (not an RFVK image)"),
            BinaryError::BadVersion(v) => write!(f, "unsupported image version {v}"),
            BinaryError::UnknownOpcode { pc, code } => {
                write!(f, "unknown opcode {code:#05x} at slot {pc}")
            }
            BinaryError::BadField { pc, field } => {
                write!(f, "invalid {field} field at slot {pc}")
            }
            BinaryError::InvalidKernel(e) => write!(f, "decoded kernel invalid: {e}"),
        }
    }
}

impl std::error::Error for BinaryError {}

// --- opcode numbering -----------------------------------------------------
// Families with a variant payload (compare condition, special register)
// store the variant in payload bits; everything else is a flat code.

fn opcode_code(op: Opcode) -> u16 {
    use Opcode::*;
    match op {
        Iadd => 0x010,
        Isub => 0x011,
        Imul => 0x012,
        Imad => 0x013,
        And => 0x014,
        Or => 0x015,
        Xor => 0x016,
        Shl => 0x017,
        Shr => 0x018,
        Mov => 0x019,
        Imin => 0x01a,
        Imax => 0x01b,
        Sel => 0x01c,
        Fadd => 0x020,
        Fmul => 0x021,
        Ffma => 0x022,
        Fmin => 0x023,
        Fmax => 0x024,
        Frcp => 0x028,
        Fsqrt => 0x029,
        Fexp => 0x02a,
        Flog => 0x02b,
        Isetp(_) => 0x030,
        Fsetp(_) => 0x031,
        Ldg => 0x038,
        Stg => 0x039,
        Lds => 0x03a,
        Sts => 0x03b,
        Ldl => 0x03c,
        Stl => 0x03d,
        Bra => 0x040,
        Bar => 0x041,
        Exit => 0x042,
        S2r(_) => 0x043,
        Nop => 0x044,
    }
}

fn code_opcode(code: u16, variant: u64) -> Option<Opcode> {
    use Opcode::*;
    let cond = |v: u64| match v {
        0 => Some(Cond::Lt),
        1 => Some(Cond::Le),
        2 => Some(Cond::Gt),
        3 => Some(Cond::Ge),
        4 => Some(Cond::Eq),
        5 => Some(Cond::Ne),
        _ => None,
    };
    let special = |v: u64| match v {
        0 => Some(Special::TidX),
        1 => Some(Special::CtaIdX),
        2 => Some(Special::NTidX),
        3 => Some(Special::NCtaIdX),
        4 => Some(Special::LaneId),
        5 => Some(Special::WarpId),
        _ => None,
    };
    Some(match code {
        0x010 => Iadd,
        0x011 => Isub,
        0x012 => Imul,
        0x013 => Imad,
        0x014 => And,
        0x015 => Or,
        0x016 => Xor,
        0x017 => Shl,
        0x018 => Shr,
        0x019 => Mov,
        0x01a => Imin,
        0x01b => Imax,
        0x01c => Sel,
        0x020 => Fadd,
        0x021 => Fmul,
        0x022 => Ffma,
        0x023 => Fmin,
        0x024 => Fmax,
        0x028 => Frcp,
        0x029 => Fsqrt,
        0x02a => Fexp,
        0x02b => Flog,
        0x030 => Isetp(cond(variant)?),
        0x031 => Fsetp(cond(variant)?),
        0x038 => Ldg,
        0x039 => Stg,
        0x03a => Lds,
        0x03b => Sts,
        0x03c => Ldl,
        0x03d => Stl,
        0x040 => Bra,
        0x041 => Bar,
        0x042 => Exit,
        0x043 => S2r(special(variant)?),
        0x044 => Nop,
        _ => return None,
    })
}

fn variant_bits(op: Opcode) -> u64 {
    match op {
        Opcode::Isetp(c) | Opcode::Fsetp(c) => match c {
            Cond::Lt => 0,
            Cond::Le => 1,
            Cond::Gt => 2,
            Cond::Ge => 3,
            Cond::Eq => 4,
            Cond::Ne => 5,
        },
        Opcode::S2r(s) => match s {
            Special::TidX => 0,
            Special::CtaIdX => 1,
            Special::NTidX => 2,
            Special::NCtaIdX => 3,
            Special::LaneId => 4,
            Special::WarpId => 5,
        },
        _ => 0,
    }
}

// --- payload field offsets (within the 54-bit payload) --------------------
const F_DST: u32 = 0; // 6 bits
const F_SRC0: u32 = 6; // 6 bits
const F_SRC1: u32 = 12; // 6 bits
const F_SRC2: u32 = 18; // 6 bits
const F_NSRC: u32 = 24; // 2 bits: number of source operands
const F_IMM_SLOT: u32 = 26; // 2 bits (3 = none)
const F_HAS_EXT: u32 = 28; // 1 bit
const F_HAS_GUARD: u32 = 29; // 1 bit
const F_GUARD_NEG: u32 = 30; // 1 bit
const F_GUARD_PRED: u32 = 31; // 2 bits
const F_HAS_PDST: u32 = 33; // 1 bit
const F_PDST: u32 = 34; // 2 bits
const F_HAS_PSRC: u32 = 36; // 1 bit
const F_PSRC: u32 = 37; // 2 bits
const F_VARIANT: u32 = 39; // 3 bits

fn encode_word(opcode: u16, payload: u64) -> u64 {
    debug_assert!(payload < 1 << 54);
    let low4 = u64::from(opcode) & 0xf;
    let high6 = u64::from(opcode) >> 4;
    low4 | (payload << 4) | (high6 << 58)
}

fn split_word(word: u64) -> (u16, u64) {
    let opcode = ((word & 0xf) | ((word >> 58) << 4)) as u16;
    (opcode, (word >> 4) & ((1 << 54) - 1))
}

/// Encodes one machine instruction into one or two words.
///
/// # Errors
///
/// Fails when the instruction carries more than one immediate operand.
pub fn encode_instr(pc: usize, i: &Instr) -> Result<(u64, Option<u64>), BinaryError> {
    let mut payload = 0u64;
    let set = |payload: &mut u64, off: u32, width: u32, v: u64| {
        debug_assert!(v < 1 << width);
        *payload |= v << off;
    };

    set(
        &mut payload,
        F_DST,
        6,
        i.dst.map_or(NO_REG, |r| u64::from(r.raw())),
    );
    let src_fields = [F_SRC0, F_SRC1, F_SRC2];
    let mut imm: Option<i32> = None;
    let mut imm_slot = NO_IMM;
    for (slot, op) in i.srcs.iter().enumerate() {
        match op {
            Operand::Reg(r) => set(&mut payload, src_fields[slot], 6, u64::from(r.raw())),
            Operand::Imm(v) => {
                if imm.is_some() {
                    return Err(BinaryError::MultipleImmediates { pc });
                }
                imm = Some(*v);
                imm_slot = slot as u64;
                set(&mut payload, src_fields[slot], 6, NO_REG);
            }
        }
    }
    for &field in src_fields.iter().skip(i.srcs.len()) {
        set(&mut payload, field, 6, NO_REG);
    }
    set(&mut payload, F_NSRC, 2, i.srcs.len() as u64);
    set(&mut payload, F_IMM_SLOT, 2, imm_slot);
    let needs_ext = imm.is_some() || i.mem_offset != 0 || i.target.is_some();
    set(&mut payload, F_HAS_EXT, 1, u64::from(needs_ext));
    if let Some(g) = i.guard {
        set(&mut payload, F_HAS_GUARD, 1, 1);
        set(&mut payload, F_GUARD_NEG, 1, u64::from(g.negated));
        set(&mut payload, F_GUARD_PRED, 2, g.pred.index() as u64);
    }
    if let Some(p) = i.pdst {
        set(&mut payload, F_HAS_PDST, 1, 1);
        set(&mut payload, F_PDST, 2, p.index() as u64);
    }
    if let Some(p) = i.psrc {
        set(&mut payload, F_HAS_PSRC, 1, 1);
        set(&mut payload, F_PSRC, 2, p.index() as u64);
    }
    set(&mut payload, F_VARIANT, 3, variant_bits(i.opcode));

    let word = encode_word(opcode_code(i.opcode), payload);
    let ext = needs_ext.then(|| {
        // low 32: immediate; high 32: mem_offset or branch target
        let hi = if let Some(t) = i.target {
            t as u32
        } else {
            i.mem_offset as u32
        };
        (u64::from(imm.unwrap_or(0) as u32)) | (u64::from(hi) << 32)
    });
    Ok((word, ext))
}

/// Decodes one machine instruction from its word(s).
///
/// # Errors
///
/// Fails on unknown opcodes or malformed fields.
pub fn decode_instr(pc: usize, word: u64, ext: Option<u64>) -> Result<Instr, BinaryError> {
    let (code, payload) = split_word(word);
    let get = |off: u32, width: u32| (payload >> off) & ((1u64 << width) - 1);
    let variant = get(F_VARIANT, 3);
    let opcode = code_opcode(code, variant).ok_or(BinaryError::UnknownOpcode { pc, code })?;
    let mut i = Instr::new(opcode);

    let dst = get(F_DST, 6);
    if dst != NO_REG {
        i.dst =
            Some(ArchReg::try_new(dst as u8).ok_or(BinaryError::BadField { pc, field: "dst" })?);
    }
    let nsrc = get(F_NSRC, 2) as usize;
    let imm_slot = get(F_IMM_SLOT, 2);
    let (imm32, hi32) = match ext {
        Some(e) => ((e & 0xffff_ffff) as u32, (e >> 32) as u32),
        None => (0, 0),
    };
    for (slot, &field) in [F_SRC0, F_SRC1, F_SRC2].iter().enumerate().take(nsrc) {
        let raw = get(field, 6);
        if imm_slot == slot as u64 {
            i.srcs.push(Operand::Imm(imm32 as i32));
        } else if raw == NO_REG {
            return Err(BinaryError::BadField { pc, field: "src" });
        } else {
            i.srcs.push(Operand::Reg(
                ArchReg::try_new(raw as u8).ok_or(BinaryError::BadField { pc, field: "src" })?,
            ));
        }
    }
    if get(F_HAS_GUARD, 1) == 1 {
        i.guard = Some(PredGuard {
            pred: Pred::new(get(F_GUARD_PRED, 2) as u8),
            negated: get(F_GUARD_NEG, 1) == 1,
        });
    }
    if get(F_HAS_PDST, 1) == 1 {
        i.pdst = Some(Pred::new(get(F_PDST, 2) as u8));
    }
    if get(F_HAS_PSRC, 1) == 1 {
        i.psrc = Some(Pred::new(get(F_PSRC, 2) as u8));
    }
    if get(F_HAS_EXT, 1) == 1 {
        if opcode == Opcode::Bra {
            i.target = Some(hi32 as usize);
        } else {
            i.mem_offset = hi32 as i32;
        }
    } else if opcode == Opcode::Bra {
        i.target = Some(0);
    }
    Ok(i)
}

/// Serializes a kernel into a binary image.
///
/// # Errors
///
/// Fails when an instruction cannot be encoded (more than one
/// immediate operand).
pub fn encode_kernel(kernel: &Kernel) -> Result<Vec<u8>, BinaryError> {
    let mut out = Vec::with_capacity(32 + kernel.len() * 10);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let launch = kernel.launch();
    out.extend_from_slice(&launch.grid_ctas().to_le_bytes());
    out.extend_from_slice(&launch.threads_per_cta().to_le_bytes());
    out.extend_from_slice(&launch.max_conc_ctas_per_sm().to_le_bytes());
    let name = kernel.name().as_bytes();
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(name);
    out.extend_from_slice(&(kernel.len() as u32).to_le_bytes());
    for (pc, item) in kernel.items().iter().enumerate() {
        let (word, ext) = match item {
            ProgItem::Pir(p) => (p.encode(), None),
            ProgItem::Pbr(p) => (p.encode(), None),
            ProgItem::Instr(i) => encode_instr(pc, i)?,
        };
        out.push(u8::from(ext.is_some()));
        out.extend_from_slice(&word.to_le_bytes());
        if let Some(e) = ext {
            out.extend_from_slice(&e.to_le_bytes());
        }
    }
    Ok(out)
}

// --- structural identity --------------------------------------------------

/// Byte standing for an absent optional field in the identity encoding
/// (every present value — register id, predicate index, packed guard —
/// is smaller).
const ID_NONE: u8 = 0xff;

/// Appends the structural identity of `kernel`'s program to `out`: the
/// launch geometry, the slot count, then every slot — a kind tag, then
/// for a machine instruction its opcode and condition or
/// special-register variant (numbered as in the binary image), `dst`,
/// `pdst`, `psrc`, guard, each operand's kind and value, `mem_offset`
/// and branch target; for a `pir` its 64-bit word; for a `pbr` its
/// register list. The kernel name is not part of it.
///
/// The encoding is injective — two programs append equal bytes exactly
/// when their geometry and slots are equal — and costs one pass with
/// no allocation beyond `out`'s growth and no text formatting. It keys
/// in-memory memos and identity hashes; unlike [`encode_kernel`] it is
/// not a file format, and it can change between builds.
pub fn encode_program_identity(kernel: &Kernel, out: &mut Vec<u8>) {
    let launch = kernel.launch();
    out.reserve(20 + kernel.len() * 24);
    out.extend_from_slice(&launch.grid_ctas().to_le_bytes());
    out.extend_from_slice(&launch.threads_per_cta().to_le_bytes());
    out.extend_from_slice(&launch.max_conc_ctas_per_sm().to_le_bytes());
    out.extend_from_slice(&(kernel.len() as u64).to_le_bytes());
    for item in kernel.items() {
        encode_item_identity(item, out);
    }
}

/// Appends one slot of [`encode_program_identity`]. Prefix-free, so a
/// sequence of slots encodes injectively too.
fn encode_item_identity(item: &ProgItem, out: &mut Vec<u8>) {
    match item {
        ProgItem::Instr(i) => {
            // destructured so a new field cannot be left out silently
            let Instr {
                opcode,
                dst,
                pdst,
                srcs,
                psrc,
                mem_offset,
                target,
                guard,
            } = i;
            let code = opcode_code(*opcode).to_le_bytes();
            let pred = |p: Option<Pred>| p.map_or(ID_NONE, |p| p.index() as u8);
            out.extend_from_slice(&[
                0,
                code[0],
                code[1],
                variant_bits(*opcode) as u8,
                dst.map_or(ID_NONE, ArchReg::raw),
                pred(*pdst),
                pred(*psrc),
                guard.map_or(ID_NONE, |g| g.pred.index() as u8 | u8::from(g.negated) << 2),
                srcs.len() as u8,
            ]);
            for op in srcs {
                let (kind, value) = match *op {
                    Operand::Reg(r) => (0u8, u32::from(r.raw())),
                    Operand::Imm(v) => (1u8, v as u32),
                };
                out.push(kind);
                out.extend_from_slice(&value.to_le_bytes());
            }
            out.extend_from_slice(&mem_offset.to_le_bytes());
            match target {
                Some(t) => {
                    out.push(1);
                    out.extend_from_slice(&(*t as u64).to_le_bytes());
                }
                None => out.push(0),
            }
        }
        ProgItem::Pir(p) => {
            out.push(1);
            out.extend_from_slice(&p.encode().to_le_bytes());
        }
        ProgItem::Pbr(p) => {
            out.push(2);
            out.push(p.len() as u8);
            out.extend(p.regs().iter().map(|r| r.raw()));
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BinaryError> {
        if self.pos + n > self.bytes.len() {
            return Err(BinaryError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, BinaryError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, BinaryError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, BinaryError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, BinaryError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
}

/// Deserializes a binary image back into a kernel.
///
/// # Errors
///
/// Fails on malformed images or programs that do not validate.
pub fn decode_kernel(bytes: &[u8]) -> Result<Kernel, BinaryError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(BinaryError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(BinaryError::BadVersion(version));
    }
    let grid = r.u32()?;
    let threads = r.u32()?;
    let conc = r.u32()?;
    let name_len = r.u32()? as usize;
    let name = String::from_utf8_lossy(r.take(name_len)?).into_owned();
    let count = r.u32()? as usize;
    let mut items = Vec::with_capacity(count);
    for pc in 0..count {
        let has_ext = r.u8()? != 0;
        let word = r.u64()?;
        let ext = if has_ext { Some(r.u64()?) } else { None };
        let (code, _) = split_word(word);
        let item = if code == meta::PIR_OPCODE || code == meta::PBR_OPCODE {
            match meta::decode(word).map_err(|_| BinaryError::UnknownOpcode { pc, code })? {
                MetaInstr::Pir(p) => ProgItem::Pir(p),
                MetaInstr::Pbr(p) => ProgItem::Pbr(p),
            }
        } else {
            ProgItem::Instr(decode_instr(pc, word, ext)?)
        };
        items.push(item);
    }
    let launch = LaunchConfig::new(grid, threads, conc);
    Kernel::new(name, items, launch).map_err(BinaryError::InvalidKernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    fn sample() -> Kernel {
        let mut b = KernelBuilder::new("roundtrip");
        b.s2r(ArchReg::R0, Special::TidX);
        b.imad(
            ArchReg::R1,
            ArchReg::R0,
            Operand::Imm(4),
            Operand::Reg(ArchReg::R0),
        );
        b.ldg(ArchReg::R2, ArchReg::R1, 0x100);
        b.isetp(Cond::Ne, Pred::P2, ArchReg::R2, Operand::Imm(0));
        b.guard(PredGuard::if_false(Pred::P2));
        b.bra("end");
        b.sel(
            ArchReg::R3,
            Operand::Reg(ArchReg::R2),
            Operand::Imm(7),
            Pred::P2,
        );
        b.stg(ArchReg::R1, ArchReg::R3, 0x2000);
        b.label("end");
        b.exit();
        b.build(LaunchConfig::new(3, 96, 2)).unwrap()
    }

    #[test]
    fn kernel_roundtrip_is_lossless() {
        let k = sample();
        let image = encode_kernel(&k).unwrap();
        let back = decode_kernel(&image).unwrap();
        assert_eq!(back, k);
        assert_eq!(back.name(), "roundtrip");
        assert_eq!(back.launch(), k.launch());
    }

    #[test]
    fn compiled_kernel_with_metadata_roundtrips() {
        // encode a kernel that embeds pir/pbr metadata words
        use crate::meta::{Pbr, Pir, ReleaseFlags};
        let mut pir = Pir::new();
        pir.set_flags(0, ReleaseFlags::from_bits(0b001));
        let pbr = Pbr::from_regs(vec![ArchReg::R3, ArchReg::R7]).unwrap();
        let mut items = vec![ProgItem::Pir(pir), ProgItem::Pbr(pbr)];
        for item in sample().items() {
            items.push(item.clone());
        }
        let k = Kernel::new("meta", items, LaunchConfig::new(1, 32, 1)).unwrap();
        // fix: branch targets shifted by 2 would be wrong, but Kernel
        // validation only requires in-range, which holds
        let image = encode_kernel(&k).unwrap();
        let back = decode_kernel(&image).unwrap();
        assert_eq!(back.num_meta_instrs(), 2);
        assert_eq!(back, k);
    }

    #[test]
    fn double_immediate_is_rejected() {
        let mut b = KernelBuilder::new("bad");
        b.imad(ArchReg::R0, ArchReg::R1, Operand::Imm(2), Operand::Imm(3));
        b.exit();
        let k = b.build(LaunchConfig::new(1, 32, 1)).unwrap();
        assert_eq!(
            encode_kernel(&k),
            Err(BinaryError::MultipleImmediates { pc: 0 })
        );
    }

    #[test]
    fn truncated_and_corrupt_images_rejected() {
        let k = sample();
        let image = encode_kernel(&k).unwrap();
        assert_eq!(decode_kernel(&image[..10]), Err(BinaryError::Truncated));
        let mut bad_magic = image.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_kernel(&bad_magic), Err(BinaryError::BadMagic));
        let mut bad_version = image.clone();
        bad_version[4] = 0xff;
        assert!(matches!(
            decode_kernel(&bad_version),
            Err(BinaryError::BadVersion(_))
        ));
    }

    #[test]
    fn negative_immediates_and_offsets_survive() {
        let mut b = KernelBuilder::new("neg");
        b.mov(ArchReg::R0, -123);
        b.iadd(ArchReg::R1, ArchReg::R0, -1);
        b.ldg(ArchReg::R2, ArchReg::R1, -64);
        b.stg(ArchReg::R1, ArchReg::R2, 0);
        b.exit();
        let k = b.build(LaunchConfig::new(1, 32, 1)).unwrap();
        let back = decode_kernel(&encode_kernel(&k).unwrap()).unwrap();
        assert_eq!(back, k);
        let instrs: Vec<_> = back.items().iter().filter_map(|i| i.as_instr()).collect();
        assert_eq!(instrs[0].srcs[0], Operand::Imm(-123));
        assert_eq!(instrs[2].mem_offset, -64);
    }

    #[test]
    fn all_opcodes_roundtrip_through_codes() {
        use Opcode::*;
        let ops = [
            Iadd,
            Isub,
            Imul,
            Imad,
            And,
            Or,
            Xor,
            Shl,
            Shr,
            Mov,
            Imin,
            Imax,
            Sel,
            Fadd,
            Fmul,
            Ffma,
            Fmin,
            Fmax,
            Frcp,
            Fsqrt,
            Fexp,
            Flog,
            Isetp(Cond::Lt),
            Isetp(Cond::Ne),
            Fsetp(Cond::Ge),
            Ldg,
            Stg,
            Lds,
            Sts,
            Ldl,
            Stl,
            Bra,
            Bar,
            Exit,
            S2r(Special::TidX),
            S2r(Special::WarpId),
            Nop,
        ];
        for op in ops {
            let decoded = code_opcode(opcode_code(op), variant_bits(op)).unwrap();
            assert_eq!(decoded, op, "{op:?}");
        }
    }

    #[test]
    fn program_identity_is_structural() {
        let id = |k: &Kernel| {
            let mut bytes = Vec::new();
            encode_program_identity(k, &mut bytes);
            bytes
        };
        let k = sample();
        // a decoded image and a renamed copy are the same program
        let back = decode_kernel(&encode_kernel(&k).unwrap()).unwrap();
        assert_eq!(id(&back), id(&k));
        let renamed = Kernel::new("other", k.items().to_vec(), k.launch()).unwrap();
        assert_eq!(id(&renamed), id(&k));
        // one immediate or one launch dimension is a different program
        let mut items = k.items().to_vec();
        match &mut items[1] {
            ProgItem::Instr(i) => i.srcs[1] = Operand::Imm(5),
            other => panic!("slot 1 is the IMAD, got {other:?}"),
        }
        let changed = Kernel::new(k.name(), items, k.launch()).unwrap();
        assert_ne!(id(&changed), id(&k));
        let relaunched = k.clone().with_launch(LaunchConfig::new(3, 96, 3));
        assert_ne!(id(&relaunched), id(&k));
    }

    #[test]
    fn opcode_space_avoids_metadata_codes() {
        use Opcode::*;
        for op in [Iadd, Bra, Nop, S2r(Special::TidX), Fsetp(Cond::Eq)] {
            assert_ne!(opcode_code(op), meta::PIR_OPCODE);
            assert_ne!(opcode_code(op), meta::PBR_OPCODE);
        }
    }
}
