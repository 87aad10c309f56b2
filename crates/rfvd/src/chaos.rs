//! Deterministic environment fault injection for rfvd.
//!
//! Where `rfv-faults` corrupts state *inside* the simulated machine, this
//! module attacks the daemon's *environment*: the spool directory and the
//! client sockets. It is the same seeded plane one layer up: a
//! [`ChaosPlan`] is an `rfv_faults` [`Plan`] over the [`ChaosKind`]
//! vocabulary, armed by firing rate instead of fault count, and each kind
//! draws from its own splitmix64 stream, so a given `(plan, seed)` pair
//! produces the same adversarial schedule on every run.
//!
//! Injection happens behind two thin traits, [`SpoolIo`] and [`SockIo`],
//! which `persist.rs` and `mux.rs` funnel their syscalls through. The
//! production path uses [`RealSpoolIo`]/[`RealSockIo`], which are direct
//! passthroughs the optimizer erases; chaos builds swap in the `Chaos*`
//! wrappers around the same trait objects.

use std::fs;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use rfv_sim::faults::{splitmix64, Kind, Plan, GAMMA, PPM};

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

/// Number of distinct [`ChaosKind`]s.
const KINDS: usize = 10;

impl Kind<KINDS> for ChaosKind {
    const ALL: [ChaosKind; KINDS] = [
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

    fn name(self) -> &'static str {
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

    fn index(self) -> usize {
        self as usize
    }
}

/// A parsed `--chaos` spec such as `disk_torn:0.05,net_reset:0.02`: the
/// base seed plus a per-kind firing probability in `[0, 1]`, resolved to
/// whole parts per million. A bare kind fires 1% of the time, and
/// `all:RATE` applies one rate to every kind.
pub type ChaosPlan = Plan<ChaosKind, f64, KINDS>;

/// Shared, thread-safe injector. Each kind owns an independent splitmix64
/// stream stepped with an atomic `fetch_add`, so draws are deterministic per
/// stream regardless of interleaving with other kinds, and concurrent draws
/// on one stream never repeat a value.
pub struct ChaosInjector {
    /// The plan's rates, in parts per million.
    rates_ppm: [u64; KINDS],
    streams: [AtomicU64; KINDS],
    fired: [AtomicU64; KINDS],
    /// Runtime intensity knob in parts-per-thousand of the plan's rates.
    /// 1000 = nominal, 0 = chaos off. Lets tests storm then heal.
    scale_pm: AtomicU64,
}

impl ChaosInjector {
    pub fn new(plan: ChaosPlan) -> ChaosInjector {
        ChaosInjector {
            rates_ppm: ChaosKind::ALL.map(|k| (plan.rate(k) * PPM as f64).round() as u64),
            streams: ChaosKind::ALL.map(|k| AtomicU64::new(plan.stream_seed(k))),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
            scale_pm: AtomicU64::new(1000),
        }
    }

    fn next(&self, kind: ChaosKind) -> u64 {
        let mut state = self.streams[kind.index()].fetch_add(GAMMA, Ordering::Relaxed);
        splitmix64(&mut state)
    }

    /// Scale all rates at runtime: 1.0 = nominal, 0.0 = chaos off.
    pub fn set_scale(&self, scale: f64) {
        let pm = (scale.clamp(0.0, 1.0) * 1000.0).round() as u64;
        self.scale_pm.store(pm, Ordering::Relaxed);
    }

    /// Draw from `kind`'s stream and decide whether this fault fires.
    pub fn should_fire(&self, kind: ChaosKind) -> bool {
        let rate = self.rates_ppm[kind.index()] * self.scale_pm.load(Ordering::Relaxed) / 1000;
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
        assert_eq!(plan.rate(ChaosKind::DiskTorn), 0.05);
        assert_eq!(plan.rate(ChaosKind::NetReset), 0.5);
        assert_eq!(plan.rate(ChaosKind::DiskEio), 0.0);
        assert_eq!(plan.seed, 7);
        assert!(!plan.is_empty());

        let all = ChaosPlan::parse("all:0.01", 0).unwrap();
        for kind in ChaosKind::ALL {
            assert_eq!(all.rate(kind), 0.01);
        }

        // Bare kind defaults to 1%.
        let bare = ChaosPlan::parse("disk_eio", 0).unwrap();
        assert_eq!(bare.rate(ChaosKind::DiskEio), 0.01);

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
        assert_eq!(ChaosPlan::parse(&s, 11), Ok(plan), "{s}");
        assert_eq!(ChaosPlan::none().summary(), "none");
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
