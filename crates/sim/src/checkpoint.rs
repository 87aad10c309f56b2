//! The `rfv-ckpt-v2` checkpoint container: a versioned, checksummed,
//! zero-dependency binary file holding every SM's mid-run machine
//! state.
//!
//! Layout (all integers little-endian, via [`rfv_trace::wire`]):
//!
//! | section       | contents                                     |
//! |---------------|----------------------------------------------|
//! | magic         | 8 bytes `rfv-ckpt`                           |
//! | version       | `u32`, currently 2                           |
//! | config hash   | `u64` — [`SimConfig::stable_hash`]           |
//! | kernel hash   | `u64` — [`kernel_identity_hash`]             |
//! | cycle         | `u64` — the boundary the snapshot was taken at |
//! | SM frames     | count, then one length-prefixed frame per SM |
//! | checksum      | trailing FNV-1a over everything above        |
//!
//! [`Checkpoint::from_bytes`] rejects truncation, bit flips, version
//! bumps, and wrong-machine resumes with a typed
//! [`SimError::BadCheckpoint`] — never a panic — so a corrupt file on
//! disk degrades into an ordinary CLI error.

use rfv_compiler::CompiledKernel;
use rfv_trace::wire::fnv1a;
use rfv_trace::{Dec, Enc};

use crate::config::SimConfig;
use crate::sm::SimError;

/// Leading magic of every checkpoint file.
pub const CKPT_MAGIC: [u8; 8] = *b"rfv-ckpt";

/// Current container version. Version 2 changed what the kernel-hash
/// field means (a structural encoding replaced text renderings), so a
/// version-1 file is refused by its version, not as a different kernel.
pub const CKPT_VERSION: u32 = 2;

/// One whole-GPU snapshot: per-SM machine frames plus the identity
/// hashes that pin which run they belong to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Checkpoint {
    /// Container version ([`CKPT_VERSION`] for files this build writes).
    pub version: u32,
    /// [`SimConfig::stable_hash`] of the producing run.
    pub config_hash: u64,
    /// [`kernel_identity_hash`] of the producing run.
    pub kernel_hash: u64,
    /// Cycle boundary the snapshot was taken at.
    pub cycle: u64,
    /// One opaque [`crate::sm::Sm::snapshot_frame`] per SM, in SM order.
    pub sm_frames: Vec<Vec<u8>>,
}

impl Checkpoint {
    /// Serializes to the `rfv-ckpt-v2` byte layout, checksum included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.raw(&CKPT_MAGIC);
        e.u32(self.version);
        e.u64(self.config_hash);
        e.u64(self.kernel_hash);
        e.u64(self.cycle);
        e.usize(self.sm_frames.len());
        for frame in &self.sm_frames {
            e.frame(frame);
        }
        let checksum = fnv1a(e.bytes());
        e.u64(checksum);
        e.into_bytes()
    }

    /// Parses and verifies a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`SimError::BadCheckpoint`] on truncation, bad magic, checksum
    /// mismatch (bit flips anywhere in the file), or an unsupported
    /// version.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, SimError> {
        let bad = |what: &str| SimError::BadCheckpoint(what.to_string());
        if bytes.len() < CKPT_MAGIC.len() + 8 {
            return Err(bad("file too short to be a checkpoint"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("8-byte checksum"));
        if fnv1a(body) != stored {
            return Err(bad("checksum mismatch (truncated or corrupted file)"));
        }
        let d = &mut Dec::new(body);
        let wire =
            |e: rfv_trace::WireError| SimError::BadCheckpoint(format!("malformed file: {e}"));
        if d.raw(CKPT_MAGIC.len()).map_err(wire)? != CKPT_MAGIC {
            return Err(bad("not a checkpoint file (bad magic)"));
        }
        let version = d.u32().map_err(wire)?;
        if version != CKPT_VERSION {
            return Err(SimError::BadCheckpoint(format!(
                "unsupported checkpoint version {version} (this build reads {CKPT_VERSION})"
            )));
        }
        let config_hash = d.u64().map_err(wire)?;
        let kernel_hash = d.u64().map_err(wire)?;
        let cycle = d.u64().map_err(wire)?;
        let n = d.usize().map_err(wire)?;
        if n == 0 || n > 4096 {
            return Err(bad("implausible SM count"));
        }
        let mut sm_frames = Vec::with_capacity(n);
        for _ in 0..n {
            sm_frames.push(d.frame().map_err(wire)?.to_vec());
        }
        if !d.is_done() {
            return Err(bad("trailing bytes after SM frames"));
        }
        Ok(Checkpoint {
            version,
            config_hash,
            kernel_hash,
            cycle,
            sm_frames,
        })
    }

    /// Verifies this checkpoint belongs to the kernel whose
    /// [`kernel_identity_hash`] is `kernel_hash` (a predecoded image
    /// memoizes it, see [`crate::PredecodedKernel::kernel_hash`]) and
    /// to `config`.
    ///
    /// # Errors
    ///
    /// [`SimError::BadCheckpoint`] naming the mismatched identity.
    pub fn verify_identity(&self, kernel_hash: u64, config: &SimConfig) -> Result<(), SimError> {
        if self.config_hash != config.stable_hash() {
            return Err(SimError::BadCheckpoint(
                "checkpoint was taken under a different machine configuration".into(),
            ));
        }
        if self.kernel_hash != kernel_hash {
            return Err(SimError::BadCheckpoint(
                "checkpoint was taken under a different kernel".into(),
            ));
        }
        if self.sm_frames.len() != config.num_sms {
            return Err(SimError::BadCheckpoint(format!(
                "checkpoint holds {} SM frames but the configuration has {} SMs",
                self.sm_frames.len(),
                config.num_sms
            )));
        }
        Ok(())
    }
}

/// A stable identity hash over everything the simulator reads from a
/// compiled kernel: FNV-1a over [`CompiledKernel::encode_identity`]
/// (program slots field by field, per-PC release flags and
/// reconvergence points, the exempt set, register counts, and launch
/// geometry). Two kernels that hash equal execute identically, so a
/// checkpoint from one resumes under the other.
pub fn kernel_identity_hash(kernel: &CompiledKernel) -> u64 {
    let mut bytes = Vec::new();
    kernel.encode_identity(&mut bytes);
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            version: CKPT_VERSION,
            config_hash: 0x1122_3344_5566_7788,
            kernel_hash: 0x99aa_bbcc_ddee_ff00,
            cycle: 12_345,
            sm_frames: vec![vec![1, 2, 3], vec![], vec![0xff; 64]],
        }
    }

    #[test]
    fn container_round_trips() {
        let ck = sample();
        let bytes = ck.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).expect("parse"), ck);
    }

    #[test]
    fn corruption_is_rejected_not_panicked() {
        let bytes = sample().to_bytes();
        // truncation at every prefix length
        for cut in 0..bytes.len() {
            assert!(matches!(
                Checkpoint::from_bytes(&bytes[..cut]),
                Err(SimError::BadCheckpoint(_))
            ));
        }
        // a bit flip anywhere trips the trailing checksum
        for i in (0..bytes.len()).step_by(7) {
            let mut b = bytes.clone();
            b[i] ^= 0x40;
            assert!(matches!(
                Checkpoint::from_bytes(&b),
                Err(SimError::BadCheckpoint(_))
            ));
        }
    }

    #[test]
    fn version_bump_is_rejected() {
        let mut ck = sample();
        ck.version = CKPT_VERSION + 1;
        let bytes = ck.to_bytes(); // checksum is valid, version is not
        let err = Checkpoint::from_bytes(&bytes).expect_err("version must be rejected");
        assert!(matches!(err, SimError::BadCheckpoint(ref m) if m.contains("version")));
    }

    #[test]
    fn version_one_files_fail_by_version() {
        // a file from a build whose kernel hash rendered text: refused
        // as an old version, never compared as "a different kernel"
        let mut ck = sample();
        ck.version = 1;
        let err = Checkpoint::from_bytes(&ck.to_bytes()).expect_err("v1 must be rejected");
        assert!(matches!(err, SimError::BadCheckpoint(ref m) if m.contains("version 1")));
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Checkpoint::from_bytes(b"").is_err());
        assert!(Checkpoint::from_bytes(b"rfv-ckpt").is_err());
        assert!(Checkpoint::from_bytes(&[0xAB; 256]).is_err());
    }
}
