//! Deterministic environment fault injection for rfvd.
//!
//! Where `rfv-faults` corrupts state *inside* the simulated machine, this
//! module attacks the daemon's *environment*: the spool directory and the
//! client sockets. Faults are drawn from seeded splitmix64 streams — one
//! independent stream per fault kind, mirroring `FaultPlan` — so a given
//! `(plan, seed)` pair produces the same adversarial schedule on every run.
//!
//! Injection happens behind two thin traits, [`SpoolIo`] and [`SockIo`],
//! which `persist.rs` and `mux.rs` funnel their syscalls through. The
//! production path uses [`RealSpoolIo`]/[`RealSockIo`], which are direct
//! passthroughs the optimizer erases; chaos builds swap in the `Chaos*`
//! wrappers around the same trait objects.

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// One environment fault kind. Naming follows `rfv-faults` CLI style.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChaosKind {
    /// Spool write fails with a simulated `EIO`.
    DiskEio,
    /// Spool write fails with a simulated `ENOSPC`.
    DiskEnospc,
    /// `fsync` of a spool file (the log, a checkpoint) fails.
    DiskFsync,
    /// A spool write lands *torn*: a strict prefix of the buffer reaches the
    /// file but the full length is reported, so the caller believes the
    /// record is durable and only the log checksum catches it later.
    DiskTorn,
    /// Spool write makes partial progress (short write); callers must loop.
    DiskShort,
    /// Socket read returns a 1..=8 byte sliver instead of filling the buffer.
    NetShortRead,
    /// Socket write accepts only a 1..=8 byte sliver; the frame splits
    /// across `POLLOUT` drains.
    NetShortWrite,
    /// Socket read/write fails with `ECONNRESET`.
    NetReset,
    /// `accept(2)` fails with `ECONNABORTED` (the pending connection stays
    /// in the backlog and is retried on the next poll round).
    NetAccept,
    /// Frame stall: the socket op reports `WouldBlock` even though the fd is
    /// ready, parking the frame until the next poll round.
    NetStall,
}

impl ChaosKind {
    pub const ALL: [ChaosKind; 10] = [
        ChaosKind::DiskEio,
        ChaosKind::DiskEnospc,
        ChaosKind::DiskFsync,
        ChaosKind::DiskTorn,
        ChaosKind::DiskShort,
        ChaosKind::NetShortRead,
        ChaosKind::NetShortWrite,
        ChaosKind::NetReset,
        ChaosKind::NetAccept,
        ChaosKind::NetStall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            ChaosKind::DiskEio => "disk_eio",
            ChaosKind::DiskEnospc => "disk_enospc",
            ChaosKind::DiskFsync => "disk_fsync",
            ChaosKind::DiskTorn => "disk_torn",
            ChaosKind::DiskShort => "disk_short",
            ChaosKind::NetShortRead => "net_short_read",
            ChaosKind::NetShortWrite => "net_short_write",
            ChaosKind::NetReset => "net_reset",
            ChaosKind::NetAccept => "net_accept",
            ChaosKind::NetStall => "net_stall",
        }
    }

    pub fn parse(s: &str) -> Option<ChaosKind> {
        ChaosKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    pub fn index(self) -> usize {
        ChaosKind::ALL.iter().position(|&k| k == self).unwrap()
    }
}

impl fmt::Display for ChaosKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

const PPM: u64 = 1_000_000;

/// A parsed chaos specification: a per-kind firing rate (stored in parts per
/// million so the plan stays `Copy + Eq`) plus the base seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    rates_ppm: [u32; ChaosKind::ALL.len()],
    pub seed: u64,
}

impl ChaosPlan {
    /// The empty plan: nothing ever fires.
    pub fn none() -> ChaosPlan {
        ChaosPlan {
            rates_ppm: [0; ChaosKind::ALL.len()],
            seed: 0,
        }
    }

    /// Parse a spec like `disk_torn:0.05,net_reset:0.02`. Rates are
    /// probabilities in `[0, 1]`; `all:RATE` applies one rate to every kind.
    /// Mirrors `FaultPlan::parse` from rfv-faults.
    pub fn parse(spec: &str, seed: u64) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::none();
        plan.seed = seed;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, rate) = match part.split_once(':') {
                Some((name, rate)) => {
                    let rate: f64 = rate
                        .parse()
                        .map_err(|_| format!("chaos: bad rate in {part:?}"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(format!("chaos: rate out of [0,1] in {part:?}"));
                    }
                    (name, rate)
                }
                None => (part, 0.01),
            };
            let ppm = (rate * PPM as f64).round() as u32;
            if name == "all" {
                plan.rates_ppm = [ppm; ChaosKind::ALL.len()];
            } else {
                let kind = ChaosKind::parse(name)
                    .ok_or_else(|| format!("chaos: unknown fault kind {name:?}"))?;
                plan.rates_ppm[kind.index()] = ppm;
            }
        }
        Ok(plan)
    }

    pub fn rate_ppm(&self, kind: ChaosKind) -> u32 {
        self.rates_ppm[kind.index()]
    }

    pub fn is_empty(&self) -> bool {
        self.rates_ppm.iter().all(|&r| r == 0)
    }

    /// Human-readable one-liner, e.g. `disk_torn:0.05 net_reset:0.02 seed=7`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for kind in ChaosKind::ALL {
            let ppm = self.rate_ppm(kind);
            if ppm > 0 {
                if !out.is_empty() {
                    out.push(' ');
                }
                out.push_str(&format!("{}:{}", kind, ppm as f64 / PPM as f64));
            }
        }
        if out.is_empty() {
            out.push_str("(none)");
        }
        out.push_str(&format!(" seed={}", self.seed));
        out
    }
}

const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Shared, thread-safe injector. Each kind owns an independent splitmix64
/// stream stepped with an atomic `fetch_add`, so draws are deterministic per
/// stream regardless of interleaving with other kinds, and concurrent draws
/// on one stream never repeat a value.
pub struct ChaosInjector {
    plan: ChaosPlan,
    streams: [AtomicU64; ChaosKind::ALL.len()],
    fired: [AtomicU64; ChaosKind::ALL.len()],
    /// Runtime intensity knob in parts-per-thousand of the plan's rates.
    /// 1000 = nominal, 0 = chaos off. Lets tests storm then heal.
    scale_pm: AtomicU64,
}

impl ChaosInjector {
    pub fn new(plan: ChaosPlan) -> ChaosInjector {
        let streams = std::array::from_fn(|i| {
            // Decorrelate per-kind streams the same way rfv-faults does.
            AtomicU64::new(plan.seed ^ ((i as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)))
        });
        ChaosInjector {
            plan,
            streams,
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
            scale_pm: AtomicU64::new(1000),
        }
    }

    pub fn plan(&self) -> ChaosPlan {
        self.plan
    }

    fn next(&self, kind: ChaosKind) -> u64 {
        let old = self.streams[kind.index()].fetch_add(GAMMA, Ordering::Relaxed);
        mix(old.wrapping_add(GAMMA))
    }

    /// Scale all rates at runtime: 1.0 = nominal, 0.0 = chaos off.
    pub fn set_scale(&self, scale: f64) {
        let pm = (scale.clamp(0.0, 1.0) * 1000.0).round() as u64;
        self.scale_pm.store(pm, Ordering::Relaxed);
    }

    /// Draw from `kind`'s stream and decide whether this fault fires.
    pub fn should_fire(&self, kind: ChaosKind) -> bool {
        let rate = self.plan.rate_ppm(kind) as u64 * self.scale_pm.load(Ordering::Relaxed) / 1000;
        if rate == 0 {
            return false;
        }
        let hit = self.next(kind) % PPM < rate;
        if hit {
            self.fired[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Deterministic parameter draw in `0..n` from `kind`'s stream.
    pub fn roll(&self, kind: ChaosKind, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next(kind) % n
        }
    }

    pub fn fired(&self, kind: ChaosKind) -> u64 {
        self.fired[kind.index()].load(Ordering::Relaxed)
    }

    pub fn total_fired(&self) -> u64 {
        self.fired.iter().map(|f| f.load(Ordering::Relaxed)).sum()
    }
}

// ---------------------------------------------------------------------------
// Spool I/O boundary
// ---------------------------------------------------------------------------

/// The syscalls `persist.rs` needs for durable records. Kept deliberately
/// minimal: a short-write-capable `write`, `fsync` (of a file or, to make a
/// new entry durable, of the spool directory), and the atomic-install
/// `rename` of checkpoints and compacted logs.
pub trait SpoolIo: Send + Sync {
    fn write(&self, file: &mut fs::File, buf: &[u8]) -> io::Result<usize>;
    fn sync(&self, file: &fs::File) -> io::Result<()>;
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
}

/// Production passthrough.
pub struct RealSpoolIo;

impl SpoolIo for RealSpoolIo {
    fn write(&self, file: &mut fs::File, buf: &[u8]) -> io::Result<usize> {
        file.write(buf)
    }

    fn sync(&self, file: &fs::File) -> io::Result<()> {
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
}

/// Chaos wrapper: consults the injector before delegating.
pub struct ChaosSpoolIo {
    chaos: std::sync::Arc<ChaosInjector>,
}

impl ChaosSpoolIo {
    pub fn new(chaos: std::sync::Arc<ChaosInjector>) -> ChaosSpoolIo {
        ChaosSpoolIo { chaos }
    }
}

impl SpoolIo for ChaosSpoolIo {
    fn write(&self, file: &mut fs::File, buf: &[u8]) -> io::Result<usize> {
        if self.chaos.should_fire(ChaosKind::DiskEio) {
            return Err(io::Error::other("chaos: simulated EIO"));
        }
        if self.chaos.should_fire(ChaosKind::DiskEnospc) {
            return Err(io::Error::other("chaos: simulated ENOSPC"));
        }
        if !buf.is_empty() && self.chaos.should_fire(ChaosKind::DiskTorn) {
            // Tear the append: persist a strict prefix but report the full
            // length. The caller believes the record is durable; only the
            // log checksum catches it at the next scan.
            let keep = self.chaos.roll(ChaosKind::DiskTorn, buf.len() as u64) as usize;
            file.write_all(&buf[..keep])?;
            return Ok(buf.len());
        }
        if buf.len() > 1 && self.chaos.should_fire(ChaosKind::DiskShort) {
            let n = 1 + self.chaos.roll(ChaosKind::DiskShort, buf.len() as u64 - 1) as usize;
            return file.write(&buf[..n]);
        }
        file.write(buf)
    }

    fn sync(&self, file: &fs::File) -> io::Result<()> {
        if self.chaos.should_fire(ChaosKind::DiskFsync) {
            return Err(io::Error::other("chaos: simulated fsync failure"));
        }
        file.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
}

// ---------------------------------------------------------------------------
// Socket I/O boundary
// ---------------------------------------------------------------------------

/// The syscalls `mux.rs` funnels every connection through.
pub trait SockIo: Send + Sync {
    fn read(&self, stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize>;
    fn write(&self, stream: &mut TcpStream, buf: &[u8]) -> io::Result<usize>;
    fn accept(&self, listener: &TcpListener) -> io::Result<(TcpStream, std::net::SocketAddr)>;
}

/// Production passthrough.
pub struct RealSockIo;

impl SockIo for RealSockIo {
    fn read(&self, stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
        stream.read(buf)
    }

    fn write(&self, stream: &mut TcpStream, buf: &[u8]) -> io::Result<usize> {
        stream.write(buf)
    }

    fn accept(&self, listener: &TcpListener) -> io::Result<(TcpStream, std::net::SocketAddr)> {
        listener.accept()
    }
}

/// Chaos wrapper. `NetStall` is modelled as a spurious `WouldBlock`: the fd
/// was ready, but the op makes no progress, so the mux parks the frame until
/// the next poll round — a deterministic stall with no sleeping in the event
/// loop. (A stall rate of 1.0 would therefore livelock; storms use < 1.)
pub struct ChaosSockIo {
    chaos: std::sync::Arc<ChaosInjector>,
}

impl ChaosSockIo {
    pub fn new(chaos: std::sync::Arc<ChaosInjector>) -> ChaosSockIo {
        ChaosSockIo { chaos }
    }

    fn sliver(&self, kind: ChaosKind, len: usize) -> usize {
        ((1 + self.chaos.roll(kind, 8)) as usize).min(len)
    }
}

impl SockIo for ChaosSockIo {
    fn read(&self, stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<usize> {
        if self.chaos.should_fire(ChaosKind::NetStall) {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "chaos: stall"));
        }
        if self.chaos.should_fire(ChaosKind::NetReset) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: reset",
            ));
        }
        if buf.len() > 1 && self.chaos.should_fire(ChaosKind::NetShortRead) {
            let n = self.sliver(ChaosKind::NetShortRead, buf.len());
            return stream.read(&mut buf[..n]);
        }
        stream.read(buf)
    }

    fn write(&self, stream: &mut TcpStream, buf: &[u8]) -> io::Result<usize> {
        if self.chaos.should_fire(ChaosKind::NetStall) {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "chaos: stall"));
        }
        if self.chaos.should_fire(ChaosKind::NetReset) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "chaos: reset",
            ));
        }
        if buf.len() > 1 && self.chaos.should_fire(ChaosKind::NetShortWrite) {
            let n = self.sliver(ChaosKind::NetShortWrite, buf.len());
            return stream.write(&buf[..n]);
        }
        stream.write(buf)
    }

    fn accept(&self, listener: &TcpListener) -> io::Result<(TcpStream, std::net::SocketAddr)> {
        if self.chaos.should_fire(ChaosKind::NetAccept) {
            // Fail without consuming: the pending connection stays queued in
            // the backlog and the next poll round retries it.
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "chaos: accept",
            ));
        }
        listener.accept()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn kind_names_round_trip() {
        for kind in ChaosKind::ALL {
            assert_eq!(ChaosKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ChaosKind::parse("nope"), None);
    }

    #[test]
    fn plan_parses_rates_and_wildcard() {
        let plan = ChaosPlan::parse("disk_torn:0.05,net_reset:0.5", 7).unwrap();
        assert_eq!(plan.rate_ppm(ChaosKind::DiskTorn), 50_000);
        assert_eq!(plan.rate_ppm(ChaosKind::NetReset), 500_000);
        assert_eq!(plan.rate_ppm(ChaosKind::DiskEio), 0);
        assert_eq!(plan.seed, 7);
        assert!(!plan.is_empty());

        let all = ChaosPlan::parse("all:0.01", 0).unwrap();
        for kind in ChaosKind::ALL {
            assert_eq!(all.rate_ppm(kind), 10_000);
        }

        // Bare kind defaults to 1%.
        let bare = ChaosPlan::parse("disk_eio", 0).unwrap();
        assert_eq!(bare.rate_ppm(ChaosKind::DiskEio), 10_000);

        assert!(ChaosPlan::parse("bogus:0.1", 0).is_err());
        assert!(ChaosPlan::parse("disk_eio:1.5", 0).is_err());
        assert!(ChaosPlan::parse("disk_eio:x", 0).is_err());
        assert!(ChaosPlan::parse("", 0).unwrap().is_empty());
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let plan = ChaosPlan::parse("net_reset:0.3", 42).unwrap();
        let a = ChaosInjector::new(plan);
        let b = ChaosInjector::new(plan);
        let draws_a: Vec<bool> = (0..256)
            .map(|_| a.should_fire(ChaosKind::NetReset))
            .collect();
        let draws_b: Vec<bool> = (0..256)
            .map(|_| b.should_fire(ChaosKind::NetReset))
            .collect();
        assert_eq!(draws_a, draws_b);
        assert!(a.fired(ChaosKind::NetReset) > 0);
        // Roughly 30% of 256 draws; loose bounds, exact by determinism.
        let hits = draws_a.iter().filter(|&&h| h).count();
        assert!((40..=120).contains(&hits), "hits={hits}");

        let c = ChaosInjector::new(ChaosPlan::parse("net_reset:0.3", 43).unwrap());
        let draws_c: Vec<bool> = (0..256)
            .map(|_| c.should_fire(ChaosKind::NetReset))
            .collect();
        assert_ne!(draws_a, draws_c, "different seeds must differ");
    }

    #[test]
    fn streams_are_independent_across_kinds() {
        let plan = ChaosPlan::parse("all:0.5", 9).unwrap();
        let solo = ChaosInjector::new(plan);
        let reset_only: Vec<bool> = (0..64)
            .map(|_| solo.should_fire(ChaosKind::NetReset))
            .collect();

        // Interleave draws on another kind; NetReset's stream is unaffected.
        let mixed = ChaosInjector::new(plan);
        let mut reset_mixed = Vec::new();
        for _ in 0..64 {
            mixed.should_fire(ChaosKind::DiskEio);
            reset_mixed.push(mixed.should_fire(ChaosKind::NetReset));
            mixed.should_fire(ChaosKind::DiskTorn);
        }
        assert_eq!(reset_only, reset_mixed);
    }

    #[test]
    fn scale_zero_disables_and_restores() {
        let plan = ChaosPlan::parse("disk_eio:1.0", 1).unwrap();
        let inj = ChaosInjector::new(plan);
        assert!(inj.should_fire(ChaosKind::DiskEio));
        inj.set_scale(0.0);
        for _ in 0..32 {
            assert!(!inj.should_fire(ChaosKind::DiskEio));
        }
        inj.set_scale(1.0);
        assert!(inj.should_fire(ChaosKind::DiskEio));
    }

    #[test]
    fn roll_is_bounded() {
        let inj = ChaosInjector::new(ChaosPlan::parse("all:1.0", 3).unwrap());
        for _ in 0..128 {
            assert!(inj.roll(ChaosKind::DiskTorn, 10) < 10);
        }
        assert_eq!(inj.roll(ChaosKind::DiskTorn, 0), 0);
    }

    #[test]
    fn summary_lists_active_kinds() {
        let plan = ChaosPlan::parse("disk_torn:0.05,net_reset:0.02", 11).unwrap();
        let s = plan.summary();
        assert!(s.contains("disk_torn:0.05"), "{s}");
        assert!(s.contains("net_reset:0.02"), "{s}");
        assert!(s.contains("seed=11"), "{s}");
        assert!(ChaosPlan::none().summary().contains("(none)"));
    }

    #[test]
    fn chaos_spool_io_injects_write_failures() {
        let dir = std::env::temp_dir().join(format!("rfvd-chaos-unit-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inj = Arc::new(ChaosInjector::new(
            ChaosPlan::parse("disk_eio:1.0", 5).unwrap(),
        ));
        let io = ChaosSpoolIo::new(inj.clone());
        let mut f = fs::File::create(dir.join("x")).unwrap();
        assert!(io.write(&mut f, b"hello").is_err());
        inj.set_scale(0.0);
        assert_eq!(io.write(&mut f, b"hello").unwrap(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_spool_io_tears_appends() {
        let dir = std::env::temp_dir().join(format!("rfvd-chaos-torn-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let inj = Arc::new(ChaosInjector::new(
            ChaosPlan::parse("disk_torn:1.0", 5).unwrap(),
        ));
        let io = ChaosSpoolIo::new(inj.clone());
        let path = dir.join("log");
        let mut f = fs::File::create(&path).unwrap();
        let record = [7u8; 64];
        for _ in 0..8 {
            // the full length is reported, a strict prefix lands
            assert_eq!(io.write(&mut f, &record).unwrap(), record.len());
        }
        assert_eq!(inj.fired(ChaosKind::DiskTorn), 8);
        let landed = fs::metadata(&path).unwrap().len();
        assert!(landed < 8 * record.len() as u64, "landed {landed} bytes");
        let _ = fs::remove_dir_all(&dir);
    }
}
