//! The durable job spool: crash-safe persistence for accepted jobs.
//!
//! Every accepted job is journaled to a spool directory so a restarted
//! daemon can replay it. The directory holds one append-only record
//! log plus advisory checkpoint files:
//!
//! * `spool.log` — self-delimiting records,
//!   `magic | len u32 | kind u8 | id u64 | payload | fnv1a-64`, the
//!   checksum covering everything before it. Three kinds:
//!   - `Job`: the accepted submission, its payload the same
//!     `rfv-job-v1` encoding the wire uses. Appended and synced
//!     *before* the submitter hears `Accepted`, so "accepted" and
//!     "durable" are the same event.
//!   - `Done`: the job's final [`Response`] (result *or* error, so a
//!     failing job is recorded as failed rather than replayed
//!     forever), synced before the reply is sent. A completed
//!     `Job`/`Done` pair is *retained*: it is the daemon's dedupe
//!     memory, letting a restarted daemon replay the recorded reply
//!     for a nonce it has already served instead of re-running the
//!     job.
//!   - `Forget`: a tombstone for a submission the queue bounced after
//!     it was journaled.
//! * `job-<id>.ckpt` — optional: the job's latest preemption
//!   checkpoint (a `u32` preemption count followed by the §6f
//!   `rfv-ckpt-v2` container), replaced at every preemption by an
//!   atomic tmp + fsync + rename. Advisory only: if it fails to decode
//!   or resume, the job reruns from the start — results are
//!   byte-identical either way, because slicing is invisible in
//!   stats.
//!
//! **Durability points.** A record costs one append and one sync of
//! the log, both under one lock. The directory is synced when the log
//! is created, when compaction renames a replacement over it, and
//! once by each daemon life, always before the record that caused it
//! is acknowledged. A failed write or sync cuts the log back to where
//! the record began, so a record nobody was told about is never
//! replayed.
//!
//! **Reading back.** [`Spool::open`] scans the log once to rebuild the
//! counters and the next id; unless it finds damage or an oversized
//! spool, it creates and syncs nothing. A span that fails its
//! checksum is quarantined — its bytes are copied to their own
//! `corrupt-<hash>` file, which counts as a resident record, so
//! nothing is silently dropped — and the scan resynchronizes at the
//! next valid record. A damaged tail is cut off before the next
//! append. A torn `Done` leaves its job unfinished, so the job is
//! revived for [`Spool::replay`]; nonce dedupe keeps the rerun
//! invisible to clients.
//!
//! **Compaction.** Past `max_records` completed or quarantined
//! records, a pass re-reads the log (the spool keeps no payloads in
//! memory) and copies every live job plus the newest completed pairs,
//! down to 3/4 of the bound, into a temp log. It syncs that file,
//! reads it back, renames it over the log and syncs the directory.
//!
//! All physical writes funnel through a [`SpoolIo`] trait object so
//! the chaos layer can inject `EIO`/`ENOSPC`, short writes, fsync
//! failures, and torn appends; production uses the [`RealSpoolIo`]
//! passthrough.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use rfv_trace::wire::fnv1a;

use crate::chaos::{RealSpoolIo, SpoolIo};
use crate::proto::{JobRequest, Request, Response};

/// The record log's file name.
const LOG: &str = "spool.log";
/// Compaction's replacement log, renamed over [`LOG`] once synced.
const LOG_TMP: &str = "spool.log.tmp";
/// File-name prefix of quarantined log spans.
const QUARANTINE: &str = "corrupt-";
/// First bytes of every record.
const MAGIC: [u8; 4] = [0xd7, b'r', b'f', b'l'];
/// `magic | len u32 | kind u8 | id u64`.
const HEADER: usize = 4 + 4 + 1 + 8;
/// The trailing FNV-1a-64 of header and payload.
const TRAILER: usize = 8;
/// Read-ahead of a log scan, and the batch size compaction writes.
const CHUNK: usize = 256 << 10;

/// A job recovered from the spool at startup.
pub struct SpooledJob {
    /// The record id (kept so the worker can mark it done).
    pub id: u64,
    /// The original submission, exactly as accepted.
    pub request: JobRequest,
    /// Last preemption snapshot, if any: (preemption count so far,
    /// raw `rfv-ckpt-v2` bytes). Decoding is the caller's business —
    /// and allowed to fail.
    pub checkpoint: Option<(u32, Vec<u8>)>,
}

/// A completed record read back at startup: the accepted submission
/// plus the reply that was recorded for it. Seeds the nonce table so
/// a post-restart retry replays the recorded reply.
pub struct CompletedJob {
    /// The record id.
    pub id: u64,
    /// The original submission (carries the nonce).
    pub request: JobRequest,
    /// The recorded final reply.
    pub response: Response,
}

/// A spool directory. All methods are callable from any thread; ids
/// are handed out from an atomic counter seeded past every id found
/// on disk.
pub struct Spool {
    dir: PathBuf,
    next_id: AtomicU64,
    io: Box<dyn SpoolIo>,
    /// Completed + quarantined records to retain; 0 = unbounded.
    max_records: usize,
    log: Mutex<Log>,
    compactions: AtomicU64,
}

/// The append side of the log and the record counters, under one
/// lock: appends, scans and compaction never interleave.
#[derive(Default)]
struct Log {
    /// The log, opened for appends by the first append of this life.
    file: Option<fs::File>,
    /// Whether this life has synced the log's directory entry. An
    /// earlier life may have died between creating the log and
    /// syncing it, so each life syncs once before its first
    /// acknowledgement.
    dir_synced: bool,
    /// Where the last scan found a damaged tail; the log is cut there
    /// before the next append.
    cut: Option<u64>,
    live: u64,
    complete: u64,
    corrupt: u64,
}

impl Spool {
    /// Opens (creating if needed) the spool at `dir` with passthrough
    /// I/O and unbounded retention.
    pub fn open(dir: &Path) -> io::Result<Spool> {
        Spool::open_with(dir, Box::new(RealSpoolIo), 0)
    }

    /// Opens the spool with an explicit I/O implementation and a
    /// retention bound: once more than `max_records` completed or
    /// quarantined records accumulate, the oldest are pruned (0
    /// disables pruning). Stale tmp files are cleared.
    ///
    /// # Errors
    ///
    /// I/O errors, and `InvalidData` naming them when the directory
    /// holds the per-record `job-<id>.job`/`.done` files of the older
    /// spool format, which this build does not read.
    pub fn open_with(dir: &Path, io: Box<dyn SpoolIo>, max_records: usize) -> io::Result<Spool> {
        fs::create_dir_all(dir)?;
        let mut max_id = 0u64;
        let mut corrupt = 0u64;
        let mut old_format = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("tmp-") || name == LOG_TMP {
                // debris from a crash mid-write or mid-compaction
                let _ = fs::remove_file(entry.path());
            } else if name.starts_with(QUARANTINE) {
                corrupt += 1;
            } else if let Some(id) = parse_record_id(name) {
                if name.ends_with(".ckpt") {
                    max_id = max_id.max(id);
                } else {
                    old_format.push(name.to_string());
                }
            }
        }
        if !old_format.is_empty() {
            old_format.sort_unstable();
            let shown = old_format[..old_format.len().min(3)].join(", ");
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "spool {} holds {} old-format record files ({shown}{}); this build \
                     reads only {LOG}: move them aside or use an empty directory",
                    dir.display(),
                    old_format.len(),
                    if old_format.len() > 3 { ", …" } else { "" },
                ),
            ));
        }
        let spool = Spool {
            dir: dir.to_path_buf(),
            next_id: AtomicU64::new(0),
            io,
            max_records,
            log: Mutex::new(Log {
                corrupt,
                ..Log::default()
            }),
            compactions: AtomicU64::new(0),
        };
        {
            let mut log = spool.lock();
            if let Some(file) = open_existing(&spool.log_path())? {
                let mut fates = BTreeMap::new();
                let found = scan(file, |rec| {
                    max_id = max_id.max(rec.id);
                    fold(&mut fates, rec.kind, rec.id, ());
                })?;
                spool.quarantine_spans(&mut log, &found.corrupt)?;
                if found.valid_end < found.len {
                    log.cut = Some(found.valid_end);
                }
                (log.live, log.complete) = count(&fates);
            }
        }
        spool.next_id.store(max_id + 1, Ordering::SeqCst);
        spool.maybe_compact();
        Ok(spool)
    }

    /// Journals an accepted submission; returns its record id. On
    /// `Err` nothing was accepted and nothing is on disk.
    pub fn journal(&self, request: &JobRequest) -> io::Result<u64> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.append(Kind::Job, id, &Request::Submit(request.clone()).encode())?;
        Ok(id)
    }

    /// Records the job's latest preemption checkpoint (replacing any
    /// earlier one).
    pub fn record_checkpoint(&self, id: u64, preemptions: u32, ckpt: &[u8]) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(4 + ckpt.len());
        bytes.extend_from_slice(&preemptions.to_le_bytes());
        bytes.extend_from_slice(ckpt);
        self.write_atomic(&self.ckpt_path(id), &bytes)
    }

    /// Records the job's final outcome. The checkpoint (now obsolete)
    /// is removed; the `Job`/`Done` pair is retained as dedupe memory,
    /// subject to the retention bound.
    pub fn record_done(&self, id: u64, response: &Response) -> io::Result<()> {
        self.append(Kind::Done, id, &response.encode())?;
        let _ = fs::remove_file(self.ckpt_path(id));
        self.maybe_compact();
        Ok(())
    }

    /// Erases a record that never became a job (the queue rejected it
    /// after journaling).
    pub fn forget(&self, id: u64) {
        let _ = self.append(Kind::Forget, id, &[]);
        let _ = fs::remove_file(self.ckpt_path(id));
    }

    /// Records currently resident: live, completed, and quarantined.
    pub fn records(&self) -> u64 {
        let log = self.lock();
        log.live + log.complete + log.corrupt
    }

    /// Compaction passes that pruned at least one record.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// Probes spool-directory writability end to end (write + fsync +
    /// rename + unlink of a scratch file). Used to detect disk healing
    /// while in brownout.
    pub fn probe(&self) -> io::Result<()> {
        let path = self.dir.join("probe");
        self.write_atomic(&path, b"rfvd-probe")?;
        fs::remove_file(&path)
    }

    /// Reads back every completed record, in id order. A pair whose
    /// payloads this build cannot decode is skipped: the work is done,
    /// only its dedupe memory is lost.
    pub fn completed(&self) -> io::Result<Vec<CompletedJob>> {
        let fates = self.fates(|rec| rec.payload().to_vec())?;
        Ok(fates
            .into_iter()
            .filter_map(|(id, fate)| {
                let response = Response::decode(&fate.done?).ok()?;
                let Ok(Request::Submit(request)) = Request::decode(&fate.job) else {
                    return None;
                };
                Some(CompletedJob {
                    id,
                    request,
                    response,
                })
            })
            .collect())
    }

    /// Reads back every accepted-but-unfinished job, in id order
    /// (arrival order of the previous life). A job record that passes
    /// its checksum but is not a submission this build can decode is
    /// quarantined and retired with a tombstone.
    pub fn replay(&self) -> io::Result<Vec<SpooledJob>> {
        let fates = self.fates(|rec| match rec.kind {
            Kind::Job => rec.payload().to_vec(),
            Kind::Done | Kind::Forget => Vec::new(),
        })?;
        let mut jobs = Vec::new();
        for (id, fate) in fates {
            if fate.done.is_some() {
                continue; // finished; retained as dedupe memory
            }
            let request = match Request::decode(&fate.job) {
                Ok(Request::Submit(req)) => req,
                Ok(_) | Err(_) => {
                    self.quarantine(&mut self.lock(), &fate.job)?;
                    self.forget(id);
                    continue;
                }
            };
            let checkpoint = fs::read(self.ckpt_path(id)).ok().and_then(|b| {
                let count = u32::from_le_bytes(b.get(..4)?.try_into().ok()?);
                Some((count, b[4..].to_vec()))
            });
            jobs.push(SpooledJob {
                id,
                request,
                checkpoint,
            });
        }
        Ok(jobs)
    }

    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log.lock().expect("spool lock")
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join(LOG)
    }

    fn ckpt_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("job-{id:016x}.ckpt"))
    }

    fn sync_dir(&self) -> io::Result<()> {
        self.io.sync(&fs::File::open(&self.dir)?)
    }

    /// Appends one record and syncs it, creating the log (and syncing
    /// its directory entry) on first use. On `Err` the log is cut back
    /// to where the record began — and removed if that leaves it
    /// empty — so the record is never replayed.
    fn append(&self, kind: Kind, id: u64, payload: &[u8]) -> io::Result<()> {
        let record = encode_record(kind, id, payload)?;
        let mut guard = self.lock();
        let log = &mut *guard;
        if log.file.is_none() {
            let file = fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(self.log_path())?;
            if let Some(end) = log.cut {
                file.set_len(end)?;
            }
            log.cut = None;
            log.file = Some(file);
        }
        let file = log.file.as_mut().expect("log opened above");
        let start = file.seek(SeekFrom::End(0))?;
        let mut result = write_all(&*self.io, file, &record).and_then(|()| self.io.sync(file));
        if result.is_ok() && !log.dir_synced {
            result = self.sync_dir();
            log.dir_synced = result.is_ok();
        }
        if let Err(e) = result {
            if start == 0 {
                log.file = None;
                log.dir_synced = false;
                let _ = fs::remove_file(self.log_path());
            } else {
                let _ = file.set_len(start);
            }
            return Err(e);
        }
        match kind {
            Kind::Job => log.live += 1,
            Kind::Done => {
                log.live = log.live.saturating_sub(1);
                log.complete += 1;
            }
            Kind::Forget => log.live = log.live.saturating_sub(1),
        }
        Ok(())
    }

    /// Every id's fate as the log leaves it, each record mapped
    /// through `keep`, in id order.
    fn fates<T>(
        &self,
        mut keep: impl FnMut(&Record<'_>) -> T,
    ) -> io::Result<BTreeMap<u64, Fate<T>>> {
        let _log = self.lock();
        let mut fates = BTreeMap::new();
        if let Some(file) = open_existing(&self.log_path())? {
            scan(file, |rec| {
                let item = keep(&rec);
                fold(&mut fates, rec.kind, rec.id, item);
            })?;
        }
        Ok(fates)
    }

    /// Copies damaged bytes to their own `corrupt-<hash>` file. Named
    /// by content, so a span a later scan finds again is kept once.
    fn quarantine(&self, log: &mut Log, bytes: &[u8]) -> io::Result<()> {
        let path = self.dir.join(format!("{QUARANTINE}{:016x}", fnv1a(bytes)));
        if !path.exists() {
            fs::write(&path, bytes)?;
            log.corrupt += 1;
        }
        Ok(())
    }

    /// Quarantines the log spans a scan found corrupt.
    fn quarantine_spans(&self, log: &mut Log, spans: &[(u64, u64)]) -> io::Result<()> {
        if spans.is_empty() {
            return Ok(());
        }
        let mut file = fs::File::open(self.log_path())?;
        for &(offset, len) in spans {
            let mut bytes = vec![0; len as usize];
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut bytes)?;
            self.quarantine(log, &bytes)?;
        }
        Ok(())
    }

    /// Compacts if the retention bound is exceeded, down to 3/4 of the
    /// bound (hysteresis, so a daemon hovering at the bound does not
    /// compact on every completion). Live records are never pruned. A
    /// pass that fails leaves the old log in place.
    fn maybe_compact(&self) {
        if self.max_records == 0 {
            return;
        }
        let mut log = self.lock();
        if (log.complete + log.corrupt) as usize > self.max_records {
            let _ = self.compact(&mut log);
        }
    }

    /// One compaction pass (see module docs). Quarantined spans go
    /// first, oldest file first, then the oldest completed pairs.
    fn compact(&self, log: &mut Log) -> io::Result<()> {
        let path = self.log_path();
        // pass 1: each id's fate, by record ordinal
        let mut fates = BTreeMap::new();
        let mut records = 0usize;
        let mut damaged = false;
        if let Some(file) = open_existing(&path)? {
            let found = scan(file, |rec| {
                fold(&mut fates, rec.kind, rec.id, records);
                records += 1;
            })?;
            self.quarantine_spans(log, &found.corrupt)?;
            damaged = !found.corrupt.is_empty();
        }
        let mut quarantined = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().starts_with(QUARANTINE) {
                quarantined.push((entry.metadata()?.modified()?, entry.path()));
            }
        }
        quarantined.sort_unstable();
        let target = self.max_records * 3 / 4;
        let complete: Vec<u64> = fates
            .iter()
            .filter(|(_, fate)| fate.done.is_some())
            .map(|(&id, _)| id)
            .collect();
        let excess = (quarantined.len() + complete.len()).saturating_sub(target);
        let doomed_files = excess.min(quarantined.len());
        let pruned = &complete[..(excess - doomed_files).min(complete.len())];
        for id in pruned {
            fates.remove(id);
        }

        // pass 2: copy the survivors' records into a replacement log
        if !pruned.is_empty() || damaged {
            let mut keep = vec![false; records];
            for fate in fates.values() {
                keep[fate.job] = true;
                if let Some(done) = fate.done {
                    keep[done] = true;
                }
            }
            let tmp = self.dir.join(LOG_TMP);
            match self.write_compacted(&path, &tmp, &keep) {
                Ok(file) => {
                    log.file = Some(file);
                    log.cut = None;
                    log.dir_synced = self.sync_dir().is_ok();
                }
                Err(e) => {
                    let _ = fs::remove_file(&tmp);
                    return Err(e);
                }
            }
        }
        for id in pruned {
            let _ = fs::remove_file(self.ckpt_path(*id));
        }
        for (_, file) in &quarantined[..doomed_files] {
            let _ = fs::remove_file(file);
        }
        (log.live, log.complete) = count(&fates);
        log.corrupt = (quarantined.len() - doomed_files) as u64;
        if !pruned.is_empty() || doomed_files > 0 {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Copies the records `keep` selects (by ordinal) from the log at
    /// `path` into `tmp`, syncs and verifies the copy, then renames it
    /// over the log. Returns the new log, open for appends.
    fn write_compacted(&self, path: &Path, tmp: &Path, keep: &[bool]) -> io::Result<fs::File> {
        let mut out = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(tmp)?;
        let mut batch = Vec::with_capacity(CHUNK);
        let mut written = Ok(());
        let mut ordinal = 0;
        scan(fs::File::open(path)?, |rec| {
            if keep[ordinal] {
                batch.extend_from_slice(rec.bytes);
                if batch.len() >= CHUNK && written.is_ok() {
                    written = write_all(&*self.io, &mut out, &batch);
                    batch.clear();
                }
            }
            ordinal += 1;
        })?;
        written?;
        write_all(&*self.io, &mut out, &batch)?;
        self.io.sync(&out)?;
        // the copy replaces acknowledged records: read it back first
        let mut copied = 0;
        let check = scan(fs::File::open(tmp)?, |_| copied += 1)?;
        let kept = keep.iter().filter(|&&k| k).count();
        if copied != kept || !check.corrupt.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "compacted spool log failed its read-back check",
            ));
        }
        self.io.rename(tmp, path)?;
        Ok(out)
    }

    /// Writes `bytes` to `path` so that `path` is never observed in a
    /// half-written state: write + fsync a sibling tmp file, then
    /// rename over the target. On any failure the tmp file is removed,
    /// so an error leaves no debris.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("record");
        let tmp = self.dir.join(format!("tmp-{name}"));
        let result = (|| {
            let mut f = fs::File::create(&tmp)?;
            write_all(&*self.io, &mut f, bytes)?;
            self.io.sync(&f)?;
            drop(f);
            self.io.rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }
}

/// Writes all of `bytes` through `io`, completing short writes.
fn write_all(io: &dyn SpoolIo, file: &mut fs::File, bytes: &[u8]) -> io::Result<()> {
    let mut written = 0usize;
    while written < bytes.len() {
        match io.write(file, &bytes[written..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "spool write made no progress",
                ));
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The file at `path` opened for reading, or `None` if it is absent.
fn open_existing(path: &Path) -> io::Result<Option<fs::File>> {
    match fs::File::open(path) {
        Ok(file) => Ok(Some(file)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Extracts the id from a `job-<16 hex digits>.<ext>` file name.
fn parse_record_id(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("job-")?;
    let hex = rest.get(..16)?;
    if !rest[16..].starts_with('.') {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

// ------------------------------------------------------- log records

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Job,
    Done,
    Forget,
}

impl Kind {
    fn tag(self) -> u8 {
        match self {
            Kind::Job => 1,
            Kind::Done => 2,
            Kind::Forget => 3,
        }
    }

    fn from_tag(tag: u8) -> Option<Kind> {
        [Kind::Job, Kind::Done, Kind::Forget]
            .into_iter()
            .find(|k| k.tag() == tag)
    }
}

fn encode_record(kind: Kind, id: u64, payload: &[u8]) -> io::Result<Vec<u8>> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "spool record too large"))?;
    let mut record = Vec::with_capacity(HEADER + payload.len() + TRAILER);
    record.extend_from_slice(&MAGIC);
    record.extend_from_slice(&len.to_le_bytes());
    record.push(kind.tag());
    record.extend_from_slice(&id.to_le_bytes());
    record.extend_from_slice(payload);
    let sum = fnv1a(&record);
    record.extend_from_slice(&sum.to_le_bytes());
    Ok(record)
}

/// A valid record: its kind and id, and its whole byte image.
struct Record<'a> {
    kind: Kind,
    id: u64,
    bytes: &'a [u8],
}

impl Record<'_> {
    fn payload(&self) -> &[u8] {
        &self.bytes[HEADER..self.bytes.len() - TRAILER]
    }
}

/// The whole length of the record a header claims, if its magic and
/// kind are valid.
fn claimed_len(head: &[u8]) -> Option<u64> {
    if head.len() < HEADER || head[..4] != MAGIC || Kind::from_tag(head[8]).is_none() {
        return None;
    }
    let len = u32::from_le_bytes(head[4..8].try_into().ok()?);
    Some((HEADER + TRAILER) as u64 + u64::from(len))
}

/// Checks a claimed record's checksum.
fn parse_record(bytes: &[u8]) -> Option<Record<'_>> {
    let (body, sum) = bytes.split_at(bytes.len().checked_sub(TRAILER)?);
    if fnv1a(body) != u64::from_le_bytes(sum.try_into().ok()?) {
        return None;
    }
    Some(Record {
        kind: Kind::from_tag(body[8])?,
        id: u64::from_le_bytes(body[9..HEADER].try_into().ok()?),
        bytes,
    })
}

/// What a scan found besides the valid records.
struct Scan {
    /// Byte spans `(offset, len)` that failed to parse, in log order.
    corrupt: Vec<(u64, u64)>,
    /// End of the last valid record: anything past it is a damaged
    /// tail.
    valid_end: u64,
    /// The log's length.
    len: u64,
}

/// Reads a log front to back, handing each valid record to
/// `on_record` in log order. A span that fails to parse is noted and
/// the scan resynchronizes at the next offset where a whole,
/// checksummed record starts.
fn scan(file: fs::File, mut on_record: impl FnMut(Record<'_>)) -> io::Result<Scan> {
    let len = file.metadata()?.len();
    let mut window = Window {
        file,
        buf: Vec::new(),
        start: 0,
    };
    let mut corrupt = Vec::new();
    let mut bad: Option<u64> = None;
    let mut pos = 0u64;
    let mut valid_end = 0u64;
    while pos < len {
        let claimed = claimed_len(window.at(pos, HEADER)?).filter(|&n| n <= len - pos);
        let record = match claimed {
            Some(n) => parse_record(window.at(pos, n as usize)?),
            None => None,
        };
        match record {
            Some(rec) => {
                if let Some(start) = bad.take() {
                    corrupt.push((start, pos - start));
                }
                pos += rec.bytes.len() as u64;
                valid_end = pos;
                on_record(rec);
            }
            None => {
                bad.get_or_insert(pos);
                pos += 1;
            }
        }
    }
    if let Some(start) = bad {
        corrupt.push((start, len - start));
    }
    Ok(Scan {
        corrupt,
        valid_end,
        len,
    })
}

/// A forward-only read window over a log: a scan looks at most one
/// record past its position, so memory stays at one record plus the
/// read-ahead however long the log is.
struct Window {
    file: fs::File,
    buf: Vec<u8>,
    /// File offset of `buf[0]`.
    start: u64,
}

impl Window {
    /// The bytes at `pos..pos + n`, fewer only where the file ends.
    /// `pos` never moves backwards and never skips unread bytes.
    fn at(&mut self, pos: u64, n: usize) -> io::Result<&[u8]> {
        let mut off = (pos - self.start) as usize;
        if off + n > self.buf.len() {
            self.buf.drain(..off);
            self.start = pos;
            off = 0;
            let mut filled = self.buf.len();
            self.buf.resize(n.max(CHUNK), 0);
            while filled < n {
                match self.file.read(&mut self.buf[filled..]) {
                    Ok(0) => break,
                    Ok(k) => filled += k,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            self.buf.truncate(filled);
        }
        Ok(&self.buf[off..(off + n).min(self.buf.len())])
    }
}

/// One id's records as the log leaves them.
struct Fate<T> {
    job: T,
    done: Option<T>,
}

/// Applies one record to the fates, in log order: a `Job` starts its
/// id afresh, a `Done` completes a journaled id, a `Forget` erases it.
/// A `Done` whose `Job` did not survive (torn, or forgotten) keys
/// nothing and is dropped.
fn fold<T>(fates: &mut BTreeMap<u64, Fate<T>>, kind: Kind, id: u64, item: T) {
    match kind {
        Kind::Job => {
            fates.insert(
                id,
                Fate {
                    job: item,
                    done: None,
                },
            );
        }
        Kind::Done => {
            if let Some(fate) = fates.get_mut(&id) {
                fate.done = Some(item);
            }
        }
        Kind::Forget => {
            fates.remove(&id);
        }
    }
}

/// `(live, complete)` record counts.
fn count<T>(fates: &BTreeMap<u64, Fate<T>>) -> (u64, u64) {
    let complete = fates.values().filter(|f| f.done.is_some()).count() as u64;
    (fates.len() as u64 - complete, complete)
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::sync::Arc;

    use super::*;
    use crate::proto::{ErrorCode, ProtoError};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rfvd-spool-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn request(spec: &str) -> JobRequest {
        JobRequest {
            spec: spec.into(),
            ..JobRequest::default()
        }
    }

    fn failed_reply(msg: &str) -> Response {
        Response::Error(ProtoError::new(ErrorCode::SimFailed, msg))
    }

    /// The directory's file names, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort_unstable();
        names
    }

    fn quarantined(dir: &Path) -> usize {
        listing(dir)
            .iter()
            .filter(|n| n.starts_with(QUARANTINE))
            .count()
    }

    fn replay_ids(spool: &Spool) -> Vec<u64> {
        spool.replay().unwrap().iter().map(|j| j.id).collect()
    }

    fn completed_ids(spool: &Spool) -> Vec<u64> {
        spool.completed().unwrap().iter().map(|j| j.id).collect()
    }

    /// Drops the last `n` bytes of the log.
    fn chop_log(dir: &Path, n: u64) {
        let log = fs::OpenOptions::new()
            .write(true)
            .open(dir.join(LOG))
            .unwrap();
        let len = log.metadata().unwrap().len();
        log.set_len(len - n).unwrap();
    }

    /// Counts the spool's syscalls and injects scripted faults: the
    /// `tear_write`-th write lands half its bytes but reports them all,
    /// the `fail_write`-th write and the `fail_sync`-th file sync fail
    /// (1-based; 0 = never).
    #[derive(Default)]
    struct ScriptIo {
        writes: AtomicU64,
        file_syncs: AtomicU64,
        dir_syncs: AtomicU64,
        renames: AtomicU64,
        tear_write: AtomicU64,
        fail_write: AtomicU64,
        fail_sync: AtomicU64,
    }

    impl SpoolIo for Arc<ScriptIo> {
        fn write(&self, file: &mut fs::File, buf: &[u8]) -> io::Result<usize> {
            let n = self.writes.fetch_add(1, Ordering::SeqCst) + 1;
            if n == self.fail_write.load(Ordering::SeqCst) {
                return Err(io::Error::other("scripted EIO"));
            }
            if n == self.tear_write.load(Ordering::SeqCst) {
                file.write_all(&buf[..buf.len() / 2])?;
                return Ok(buf.len());
            }
            file.write(buf)
        }
        fn sync(&self, file: &fs::File) -> io::Result<()> {
            if file.metadata()?.is_dir() {
                self.dir_syncs.fetch_add(1, Ordering::SeqCst);
                return file.sync_all();
            }
            let n = self.file_syncs.fetch_add(1, Ordering::SeqCst) + 1;
            if n == self.fail_sync.load(Ordering::SeqCst) {
                return Err(io::Error::other("scripted fsync failure"));
            }
            file.sync_all()
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.renames.fetch_add(1, Ordering::SeqCst);
            fs::rename(from, to)
        }
    }

    fn scripted(dir: &Path, max_records: usize) -> (Spool, Arc<ScriptIo>) {
        let io = Arc::new(ScriptIo::default());
        let spool = Spool::open_with(dir, Box::new(Arc::clone(&io)), max_records).unwrap();
        (spool, io)
    }

    #[test]
    fn journal_then_replay_round_trips_in_order() {
        let dir = tmp_dir("order");
        let spool = Spool::open(&dir).unwrap();
        let a = spool.journal(&request("synth:")).unwrap();
        let b = spool.journal(&request("VectorAdd")).unwrap();
        assert!(b > a, "ids are monotone");
        let jobs = spool.replay().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].request.spec, "synth:");
        assert_eq!(jobs[1].request.spec, "VectorAdd");
        assert!(jobs.iter().all(|j| j.checkpoint.is_none()));
        assert_eq!(spool.records(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn done_records_are_retained_as_dedupe_memory() {
        let dir = tmp_dir("retain");
        let spool = Spool::open(&dir).unwrap();
        let done = spool.journal(&request("synth:")).unwrap();
        let live = spool.journal(&request("VectorAdd")).unwrap();
        spool
            .record_done(done, &failed_reply("recorded failure"))
            .unwrap();
        let jobs = spool.replay().unwrap();
        assert_eq!(jobs.len(), 1, "a done job (even a failed one) stays done");
        assert_eq!(jobs[0].id, live);

        // a fresh open *retains* the finished record: it is the nonce
        // table's durable memory, and completed() reads it back
        let reopened = Spool::open(&dir).unwrap();
        assert_eq!(reopened.records(), 2, "the finished pair is still resident");
        assert_eq!(replay_ids(&reopened), vec![live]);
        let completed = reopened.completed().unwrap();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].id, done);
        assert_eq!(completed[0].request.spec, "synth:");
        assert_eq!(completed[0].response, failed_reply("recorded failure"));
        let next = reopened.journal(&request("synth:")).unwrap();
        assert!(next > live, "reopened spool never reuses a live id");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_prunes_oldest_completed_past_bound() {
        let dir = tmp_dir("compact");
        let spool = Spool::open_with(&dir, Box::new(RealSpoolIo), 4).unwrap();
        let mut ids = Vec::new();
        for i in 0..6 {
            let id = spool.journal(&request(&format!("job{i}"))).unwrap();
            spool.record_done(id, &failed_reply("x")).unwrap();
            ids.push(id);
        }
        // bound 4, hysteresis target 3: the 5th completion trips a
        // compaction down to 3, the 6th lands back at 4
        assert!(spool.compactions() >= 1);
        assert_eq!(spool.records(), 4);
        let kept = completed_ids(&spool);
        assert!(!kept.contains(&ids[0]), "oldest record pruned");
        assert!(kept.contains(&ids[5]), "newest record retained");
        // live records are never prunable
        let live = spool.journal(&request("live")).unwrap();
        for _ in 0..4 {
            let id = spool.journal(&request("filler")).unwrap();
            spool.record_done(id, &failed_reply("x")).unwrap();
        }
        assert_eq!(replay_ids(&spool), vec![live]);
        // the compacted log reads back the same after a reopen
        let reopened = Spool::open(&dir).unwrap();
        assert_eq!(replay_ids(&reopened), vec![live]);
        assert_eq!(completed_ids(&reopened), completed_ids(&spool));
        assert_eq!(reopened.records(), spool.records());
        assert_eq!(listing(&dir), vec![LOG.to_string()], "one log, no debris");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_compacts_an_oversized_spool() {
        let dir = tmp_dir("open-compact");
        {
            let spool = Spool::open(&dir).unwrap();
            for i in 0..8 {
                let id = spool.journal(&request(&format!("job{i}"))).unwrap();
                spool.record_done(id, &failed_reply("x")).unwrap();
            }
            assert_eq!(spool.records(), 8, "unbounded spool retains all");
        }
        let spool = Spool::open_with(&dir, Box::new(RealSpoolIo), 4).unwrap();
        assert_eq!(spool.records(), 3, "compacted to 3/4 of the bound");
        assert_eq!(spool.compactions(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_done_record_is_quarantined_and_job_revived() {
        let dir = tmp_dir("torn-done");
        let spool = Spool::open(&dir).unwrap();
        let id = spool.journal(&request("synth:")).unwrap();
        spool.record_done(id, &failed_reply("x")).unwrap();
        // tear the reply record, the log's last: its checksum fails
        chop_log(&dir, 3);

        let reopened = Spool::open(&dir).unwrap();
        assert!(reopened.completed().unwrap().is_empty());
        assert_eq!(quarantined(&dir), 1, "the torn reply is quarantined");
        let jobs = reopened.replay().unwrap();
        assert_eq!(jobs.len(), 1, "job revived: the reply is gone");
        assert_eq!(jobs[0].id, id);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_ride_along_and_die_with_completion() {
        let dir = tmp_dir("ckpt");
        let spool = Spool::open(&dir).unwrap();
        let id = spool.journal(&request("synth:")).unwrap();
        spool.record_checkpoint(id, 2, b"snapshot-bytes").unwrap();
        let jobs = spool.replay().unwrap();
        assert_eq!(
            jobs[0].checkpoint,
            Some((2, b"snapshot-bytes".to_vec())),
            "count and payload round-trip"
        );
        spool.record_done(id, &failed_reply("x")).unwrap();
        assert_eq!(
            listing(&dir),
            vec![LOG.to_string()],
            "completion retires the checkpoint"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_job_files_are_quarantined_not_lost() {
        let dir = tmp_dir("corrupt");
        let spool = Spool::open(&dir).unwrap();
        spool.journal(&request("synth:")).unwrap();
        drop(spool);
        // truncate the record: its checksum no longer verifies
        chop_log(&dir, 3);
        let spool = Spool::open(&dir).unwrap();
        let jobs = spool.replay().unwrap();
        assert!(jobs.is_empty());
        assert_eq!(quarantined(&dir), 1);
        assert_eq!(spool.records(), 1, "quarantined, not erased");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn forget_erases_the_whole_record() {
        let dir = tmp_dir("forget");
        let spool = Spool::open(&dir).unwrap();
        let id = spool.journal(&request("synth:")).unwrap();
        spool.record_checkpoint(id, 1, b"x").unwrap();
        spool.forget(id);
        assert!(spool.replay().unwrap().is_empty());
        assert_eq!(listing(&dir), vec![LOG.to_string()], "no debris");
        assert_eq!(spool.records(), 0);
        let reopened = Spool::open(&dir).unwrap();
        assert!(reopened.replay().unwrap().is_empty());
        assert!(reopened.completed().unwrap().is_empty());
        assert_eq!(reopened.records(), 0, "the tombstone outlives a restart");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_leaves_no_debris() {
        let dir = tmp_dir("probe");
        let spool = Spool::open(&dir).unwrap();
        spool.probe().unwrap();
        assert!(fs::read_dir(&dir).unwrap().next().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_writes_are_completed_by_the_loop() {
        /// Writes at most one byte per call — every record write goes
        /// through the short-write path.
        struct OneByteIo;
        impl SpoolIo for OneByteIo {
            fn write(&self, file: &mut fs::File, buf: &[u8]) -> io::Result<usize> {
                file.write(&buf[..1.min(buf.len())])
            }
            fn sync(&self, file: &fs::File) -> io::Result<()> {
                file.sync_all()
            }
            fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
                fs::rename(from, to)
            }
        }

        let dir = tmp_dir("short");
        let spool = Spool::open_with(&dir, Box::new(OneByteIo), 0).unwrap();
        let id = spool.journal(&request("synth:regs=8")).unwrap();
        let jobs = spool.replay().unwrap();
        assert_eq!(jobs.len(), 1, "record intact despite 1-byte writes");
        assert_eq!(jobs[0].id, id);
        assert_eq!(jobs[0].request.spec, "synth:regs=8");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_leaves_no_tmp_debris() {
        struct FailIo;
        impl SpoolIo for FailIo {
            fn write(&self, _file: &mut fs::File, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("simulated EIO"))
            }
            fn sync(&self, file: &fs::File) -> io::Result<()> {
                file.sync_all()
            }
            fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
                fs::rename(from, to)
            }
        }

        let dir = tmp_dir("fail");
        let spool = Spool::open_with(&dir, Box::new(FailIo), 0).unwrap();
        assert!(spool.journal(&request("synth:")).is_err());
        assert!(spool.probe().is_err());
        assert!(
            fs::read_dir(&dir).unwrap().next().is_none(),
            "failed writes clean up their tmp files"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_job_and_its_reply_cost_two_appends_to_one_file() {
        let dir = tmp_dir("shape");
        let (spool, io) = scripted(&dir, 0);
        for i in 0..100 {
            let id = spool.journal(&request(&format!("job{i}"))).unwrap();
            spool.record_done(id, &failed_reply("x")).unwrap();
        }
        assert_eq!(
            io.file_syncs.load(Ordering::SeqCst),
            200,
            "one sync per record"
        );
        assert_eq!(io.renames.load(Ordering::SeqCst), 0);
        assert_eq!(listing(&dir), vec![LOG.to_string()]);
        assert_eq!(spool.records(), 100);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_an_empty_spool_creates_and_syncs_nothing() {
        let dir = tmp_dir("quiet-open");
        fs::create_dir_all(&dir).unwrap();
        let (spool, io) = scripted(&dir, 4);
        assert!(spool.replay().unwrap().is_empty());
        assert!(spool.completed().unwrap().is_empty());
        assert!(listing(&dir).is_empty(), "no file before the first append");
        assert_eq!(io.writes.load(Ordering::SeqCst), 0);
        assert_eq!(io.file_syncs.load(Ordering::SeqCst), 0);
        assert_eq!(io.dir_syncs.load(Ordering::SeqCst), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_directory_is_synced_once_per_log_creation_replacement_or_life() {
        let dir = tmp_dir("dir-sync");
        let (spool, io) = scripted(&dir, 4);
        let dir_syncs = || io.dir_syncs.load(Ordering::SeqCst);
        let first = spool.journal(&request("first")).unwrap();
        assert_eq!(dir_syncs(), 1, "creating the log syncs its directory");
        spool.record_done(first, &failed_reply("x")).unwrap();
        for i in 0..3 {
            spool.journal(&request(&format!("live{i}"))).unwrap();
        }
        assert_eq!(dir_syncs(), 1, "a plain append never syncs the directory");
        // the 5th completion trips a compaction, which replaces the log
        for i in 0..4 {
            let id = spool.journal(&request(&format!("job{i}"))).unwrap();
            spool.record_done(id, &failed_reply("x")).unwrap();
        }
        assert_eq!(spool.compactions(), 1);
        assert_eq!(io.renames.load(Ordering::SeqCst), 1);
        assert_eq!(dir_syncs(), 2, "the replacement log's entry is synced");
        spool.journal(&request("after")).unwrap();
        assert_eq!(dir_syncs(), 2);
        drop(spool);
        // a new life syncs the entry once before its first acknowledgement:
        // the last life may have died before it did
        let (spool, io) = scripted(&dir, 4);
        for i in 0..3 {
            spool.journal(&request(&format!("next{i}"))).unwrap();
        }
        assert_eq!(io.dir_syncs.load(Ordering::SeqCst), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn acknowledged_records_survive_a_reopen() {
        let dir = tmp_dir("survive");
        let spool = Spool::open(&dir).unwrap();
        let mut live = Vec::new();
        let mut done = Vec::new();
        for i in 0..12u64 {
            let id = spool.journal(&request(&format!("job{i}"))).unwrap();
            match i % 3 {
                0 => live.push(id),
                1 => {
                    spool
                        .record_done(id, &failed_reply(&format!("reply{i}")))
                        .unwrap();
                    done.push(id);
                }
                _ => spool.forget(id),
            }
        }
        drop(spool);
        let reopened = Spool::open(&dir).unwrap();
        assert_eq!(replay_ids(&reopened), live);
        let completed = reopened.completed().unwrap();
        assert_eq!(completed.iter().map(|c| c.id).collect::<Vec<_>>(), done);
        for c in &completed {
            let i = c.request.spec.strip_prefix("job").unwrap();
            assert_eq!(c.response, failed_reply(&format!("reply{i}")));
        }
        assert_eq!(reopened.records(), (live.len() + done.len()) as u64);
        assert_eq!(quarantined(&dir), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_torn_mid_log_is_quarantined_and_later_records_read() {
        let dir = tmp_dir("torn-mid");
        let (spool, io) = scripted(&dir, 0);
        let a = spool.journal(&request("a")).unwrap();
        io.tear_write.store(2, Ordering::SeqCst);
        spool.journal(&request("torn")).unwrap();
        let c = spool.journal(&request("c")).unwrap();
        let d = spool.journal(&request("d")).unwrap();
        spool.record_done(d, &failed_reply("x")).unwrap();
        drop(spool);
        let reopened = Spool::open(&dir).unwrap();
        assert_eq!(quarantined(&dir), 1);
        assert_eq!(
            replay_ids(&reopened),
            vec![a, c],
            "records after the tear read"
        );
        assert_eq!(completed_ids(&reopened), vec![d]);
        assert_eq!(
            reopened.records(),
            4,
            "three good records and the quarantine"
        );
        // a second open finds the same span and keeps it once
        let again = Spool::open(&dir).unwrap();
        assert_eq!(quarantined(&dir), 1);
        assert_eq!(again.records(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reply_torn_mid_log_revives_its_job() {
        let dir = tmp_dir("torn-mid-done");
        let (spool, io) = scripted(&dir, 0);
        let a = spool.journal(&request("a")).unwrap();
        io.tear_write.store(2, Ordering::SeqCst);
        spool.record_done(a, &failed_reply("x")).unwrap();
        let b = spool.journal(&request("b")).unwrap();
        drop(spool);
        let reopened = Spool::open(&dir).unwrap();
        assert_eq!(
            replay_ids(&reopened),
            vec![a, b],
            "the torn reply's job runs again"
        );
        assert!(reopened.completed().unwrap().is_empty());
        assert_eq!(quarantined(&dir), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_tail_is_cut_before_the_next_append() {
        let dir = tmp_dir("tail");
        let spool = Spool::open(&dir).unwrap();
        let a = spool.journal(&request("a")).unwrap();
        spool.journal(&request("torn")).unwrap();
        drop(spool);
        chop_log(&dir, 5);
        let reopened = Spool::open(&dir).unwrap();
        assert_eq!(quarantined(&dir), 1);
        let c = reopened.journal(&request("c")).unwrap();
        assert_eq!(
            replay_ids(&reopened),
            vec![a, c],
            "the next append reads back"
        );
        drop(reopened);
        let again = Spool::open(&dir).unwrap();
        assert_eq!(replay_ids(&again), vec![a, c]);
        assert_eq!(quarantined(&dir), 1, "the tail is gone from the log");
        assert_eq!(again.records(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_write_or_sync_leaves_no_record_after_a_reopen() {
        let dir = tmp_dir("fail-append");
        let (spool, io) = scripted(&dir, 0);
        let a = spool.journal(&request("a")).unwrap();
        io.fail_write.store(2, Ordering::SeqCst);
        assert!(spool.journal(&request("failed write")).is_err());
        io.fail_sync.store(2, Ordering::SeqCst);
        assert!(spool.record_done(a, &failed_reply("x")).is_err());
        let b = spool.journal(&request("b")).unwrap();
        assert_eq!(spool.records(), 2);
        drop(spool);
        let reopened = Spool::open(&dir).unwrap();
        assert_eq!(
            replay_ids(&reopened),
            vec![a, b],
            "no unacknowledged record"
        );
        assert!(reopened.completed().unwrap().is_empty());
        assert_eq!(quarantined(&dir), 0, "cut cleanly, nothing torn");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn arbitrary_bytes_are_quarantined_not_a_panic() {
        let dir = tmp_dir("garbage");
        let spool = Spool::open(&dir).unwrap();
        let a = spool.journal(&request("a")).unwrap();
        drop(spool);
        // splitmix64 noise with record magics sprinkled in, then a
        // record that must still read behind it
        let mut state = 0x5eed_u64;
        let mut noise = Vec::new();
        for i in 0..1024 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            noise.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
            if i % 64 == 0 {
                noise.extend_from_slice(&MAGIC);
            }
        }
        let b = 0xb;
        let mut log = fs::OpenOptions::new()
            .append(true)
            .open(dir.join(LOG))
            .unwrap();
        log.write_all(&noise).unwrap();
        let tail = Request::Submit(request("b")).encode();
        log.write_all(&encode_record(Kind::Job, b, &tail).unwrap())
            .unwrap();
        drop(log);
        let reopened = Spool::open(&dir).unwrap();
        assert_eq!(replay_ids(&reopened), vec![a, b]);
        assert_eq!(quarantined(&dir), 1, "the noise is one span");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_format_directories_are_refused() {
        let dir = tmp_dir("old-format");
        fs::create_dir_all(&dir).unwrap();
        let old = "job-0000000000000001.job";
        fs::write(dir.join(old), b"old").unwrap();
        let err = Spool::open(&dir)
            .err()
            .expect("an old-format spool is refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(old), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
