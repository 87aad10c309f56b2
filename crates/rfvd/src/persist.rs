//! The durable job spool: crash-safe persistence for accepted jobs.
//!
//! PR 6's daemon held accepted jobs only in memory — a crash between
//! `Accepted` and the reply silently lost them. This module journals
//! every accepted job to a spool directory so a restarted daemon can
//! replay it:
//!
//! * `job-<id>.job` — the accepted submission, encoded with the same
//!   `rfv-job-v1` envelope the wire uses (magic, version, checksum —
//!   a torn write is detected exactly like a corrupt frame). Written
//!   *before* the submitter hears `Accepted`, so "accepted" and
//!   "durable" are the same event.
//! * `job-<id>.ckpt` — optional: the job's latest preemption
//!   checkpoint (a `u32` preemption count followed by the §6f
//!   `rfv-ckpt-v2` container). Refreshed at every preemption, so a
//!   crash mid-run resumes from the last slice boundary instead of
//!   recomputing from scratch. Advisory only: if it fails to decode
//!   or resume, the job reruns from the start — results are
//!   byte-identical either way, because slicing is invisible in
//!   stats.
//! * `job-<id>.done` — the job's final [`Response`] (result *or*
//!   error, so a failing job is recorded as failed rather than
//!   replayed forever). A completed `.job`/`.done` pair is *retained*:
//!   it is the daemon's dedupe memory, letting a restarted daemon
//!   replay the recorded reply for a nonce it has already served
//!   instead of re-running the job. Retention is bounded — past
//!   `max_records` completed/quarantined records, a compaction pass
//!   prunes the oldest at runtime, not only at the next open.
//!
//! Every write is atomic (`tmp` + `rename` in the same directory), so
//! a file either exists with valid contents or not at all; there is
//! no torn state to repair, only complete files to read. A `.job`
//! that fails its checksum anyway (e.g. external truncation) is
//! renamed to `.corrupt` and skipped, never silently deleted; a torn
//! `.done` is quarantined as `.done.corrupt`, which *revives* its
//! `.job` for replay — the reply record is gone, so the job must run
//! again, and nonce dedupe keeps that invisible to clients.
//!
//! All physical I/O funnels through a [`SpoolIo`] trait object so the
//! chaos layer can inject `EIO`/`ENOSPC`, short writes, fsync
//! failures, and torn renames; production uses the
//! [`RealSpoolIo`] passthrough.

use std::fs;
use std::io::{self};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::chaos::{RealSpoolIo, SpoolIo};
use crate::proto::{JobRequest, Request, Response};

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
    live: AtomicU64,
    complete: AtomicU64,
    corrupt: AtomicU64,
    compactions: AtomicU64,
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
    /// disables pruning). Stale tmp files are cleared; orphan `.done`
    /// files (no `.job` to recover a nonce from) are removed.
    pub fn open_with(dir: &Path, io: Box<dyn SpoolIo>, max_records: usize) -> io::Result<Spool> {
        fs::create_dir_all(dir)?;
        let mut max_id = 0u64;
        let mut live = 0u64;
        let mut complete = 0u64;
        let mut corrupt = 0u64;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            // stale tmp files are debris from a crash mid-write
            if name.starts_with("tmp-") {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            let Some(id) = parse_record_id(name) else {
                continue;
            };
            max_id = max_id.max(id);
            if name.ends_with(".corrupt") {
                corrupt += 1;
            } else if name.ends_with(".job") {
                let paths = SpoolPaths::new(dir, id);
                if paths.done.exists() {
                    complete += 1;
                } else {
                    live += 1;
                }
            } else if name.ends_with(".done") {
                let paths = SpoolPaths::new(dir, id);
                if !paths.job.exists() {
                    // orphan reply: without the .job there is no nonce
                    // to key it under, so it can never be replayed
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        let spool = Spool {
            dir: dir.to_path_buf(),
            next_id: AtomicU64::new(max_id + 1),
            io,
            max_records,
            live: AtomicU64::new(live),
            complete: AtomicU64::new(complete),
            corrupt: AtomicU64::new(corrupt),
            compactions: AtomicU64::new(0),
        };
        spool.maybe_compact();
        Ok(spool)
    }

    /// Journals an accepted submission; returns its record id. On
    /// `Err` nothing was accepted and nothing is on disk.
    pub fn journal(&self, request: &JobRequest) -> io::Result<u64> {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let bytes = Request::Submit(request.clone()).encode();
        self.write_atomic(&SpoolPaths::new(&self.dir, id).job, &bytes)?;
        self.live.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Records the job's latest preemption checkpoint (replacing any
    /// earlier one).
    pub fn record_checkpoint(&self, id: u64, preemptions: u32, ckpt: &[u8]) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(4 + ckpt.len());
        bytes.extend_from_slice(&preemptions.to_le_bytes());
        bytes.extend_from_slice(ckpt);
        self.write_atomic(&SpoolPaths::new(&self.dir, id).ckpt, &bytes)
    }

    /// Records the job's final outcome. The checkpoint (now obsolete)
    /// is removed; the `.job`/`.done` pair is retained as dedupe
    /// memory, subject to the retention bound.
    pub fn record_done(&self, id: u64, response: &Response) -> io::Result<()> {
        let paths = SpoolPaths::new(&self.dir, id);
        self.write_atomic(&paths.done, &response.encode())?;
        let _ = fs::remove_file(&paths.ckpt);
        self.live.fetch_sub(1, Ordering::Relaxed);
        self.complete.fetch_add(1, Ordering::Relaxed);
        self.maybe_compact();
        Ok(())
    }

    /// Erases a record that never became a job (the queue rejected it
    /// after journaling).
    pub fn forget(&self, id: u64) {
        let paths = SpoolPaths::new(&self.dir, id);
        let _ = fs::remove_file(&paths.job);
        let _ = fs::remove_file(&paths.ckpt);
        let _ = fs::remove_file(&paths.done);
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records currently resident: live, completed, and quarantined.
    pub fn records(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
            + self.complete.load(Ordering::Relaxed)
            + self.corrupt.load(Ordering::Relaxed)
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

    /// Reads back every completed record whose submission and reply
    /// both still decode, in id order. A `.done` that fails to decode
    /// (torn install) is quarantined as `.done.corrupt`, reviving its
    /// `.job` for [`Spool::replay`].
    pub fn completed(&self) -> io::Result<Vec<CompletedJob>> {
        let mut out = Vec::new();
        for id in self.ids_with(".done")? {
            let paths = SpoolPaths::new(&self.dir, id);
            let Ok(done_bytes) = fs::read(&paths.done) else {
                continue;
            };
            let response = match Response::decode(&done_bytes) {
                Ok(r) => r,
                Err(_) => {
                    // torn reply record: the job must run again
                    let quarantine = self.dir.join(format!("job-{id:016x}.done.corrupt"));
                    let _ = fs::rename(&paths.done, &quarantine);
                    self.complete.fetch_sub(1, Ordering::Relaxed);
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    self.live.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            let request = match fs::read(&paths.job).map(|b| Request::decode(&b)) {
                Ok(Ok(Request::Submit(req))) => req,
                // job record unreadable: the reply is unkeyable, but
                // the work is done — leave the pair for compaction
                _ => continue,
            };
            out.push(CompletedJob {
                id,
                request,
                response,
            });
        }
        Ok(out)
    }

    /// Reads back every accepted-but-unfinished job, in id order
    /// (arrival order of the previous life). Corrupt records are
    /// quarantined, not returned and not deleted.
    pub fn replay(&self) -> io::Result<Vec<SpooledJob>> {
        let mut jobs = Vec::new();
        for id in self.ids_with(".job")? {
            let paths = SpoolPaths::new(&self.dir, id);
            if paths.done.exists() {
                continue; // finished; retained as dedupe memory
            }
            let bytes = match fs::read(&paths.job) {
                Ok(b) => b,
                Err(_) => continue,
            };
            let request = match Request::decode(&bytes) {
                Ok(Request::Submit(req)) => req,
                // checksum failure, truncation, or a frame that is
                // not a submission: quarantine for inspection
                Ok(_) | Err(_) => {
                    let _ = fs::rename(&paths.job, paths.job.with_extension("corrupt"));
                    self.live.fetch_sub(1, Ordering::Relaxed);
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
            };
            let checkpoint = fs::read(&paths.ckpt).ok().and_then(|b| {
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

    /// Sorted record ids of files with the given extension.
    fn ids_with(&self, ext: &str) -> io::Result<Vec<u64>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.ends_with(ext) {
                continue;
            }
            if let Some(id) = parse_record_id(name) {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    /// Prunes the oldest completed/quarantined records if the
    /// retention bound is exceeded, down to 3/4 of the bound
    /// (hysteresis, so a daemon hovering at the bound does not
    /// compact on every completion). Live records are never pruned.
    fn maybe_compact(&self) {
        if self.max_records == 0 {
            return;
        }
        let resident = self.complete.load(Ordering::Relaxed) + self.corrupt.load(Ordering::Relaxed);
        if resident as usize <= self.max_records {
            return;
        }
        // collect prunable records, oldest first
        enum Prunable {
            Pair(u64),
            File(PathBuf),
        }
        let mut items: Vec<(u64, Prunable)> = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = parse_record_id(name) else {
                continue;
            };
            if name.ends_with(".corrupt") {
                items.push((id, Prunable::File(entry.path())));
            } else if name.ends_with(".done") && SpoolPaths::new(&self.dir, id).job.exists() {
                items.push((id, Prunable::Pair(id)));
            }
        }
        items.sort_unstable_by_key(|(id, _)| *id);
        let target = self.max_records * 3 / 4;
        let mut remaining = items.len();
        let mut pruned = 0u64;
        for (_, item) in items {
            if remaining <= target {
                break;
            }
            match item {
                Prunable::Pair(id) => {
                    let paths = SpoolPaths::new(&self.dir, id);
                    let _ = fs::remove_file(&paths.done);
                    let _ = fs::remove_file(&paths.job);
                    let _ = fs::remove_file(&paths.ckpt);
                    self.complete.fetch_sub(1, Ordering::Relaxed);
                }
                Prunable::File(path) => {
                    let _ = fs::remove_file(&path);
                    self.corrupt.fetch_sub(1, Ordering::Relaxed);
                }
            }
            remaining -= 1;
            pruned += 1;
        }
        if pruned > 0 {
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Writes `bytes` to `path` so that `path` is never observed in a
    /// half-written state: write + fsync a sibling tmp file, then
    /// rename over the target. Short writes from the [`SpoolIo`]
    /// layer are completed by looping; on any failure the tmp file is
    /// removed, so an error leaves no debris.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("record");
        let tmp = self.dir.join(format!("tmp-{name}"));
        let result = (|| {
            let mut f = fs::File::create(&tmp)?;
            let mut written = 0usize;
            while written < bytes.len() {
                match self.io.write(&mut f, &bytes[written..]) {
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

struct SpoolPaths {
    job: PathBuf,
    ckpt: PathBuf,
    done: PathBuf,
}

impl SpoolPaths {
    fn new(dir: &Path, id: u64) -> SpoolPaths {
        let stem = format!("job-{id:016x}");
        SpoolPaths {
            job: dir.join(format!("{stem}.job")),
            ckpt: dir.join(format!("{stem}.ckpt")),
            done: dir.join(format!("{stem}.done")),
        }
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

#[cfg(test)]
mod tests {
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
        assert!(SpoolPaths::new(&dir, done).job.exists());
        assert!(SpoolPaths::new(&dir, done).done.exists());
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
        assert!(
            !SpoolPaths::new(&dir, ids[0]).done.exists(),
            "oldest record pruned"
        );
        assert!(
            SpoolPaths::new(&dir, ids[5]).done.exists(),
            "newest record retained"
        );
        // live records are never prunable
        let live = spool.journal(&request("live")).unwrap();
        for _ in 0..4 {
            let id = spool.journal(&request("filler")).unwrap();
            spool.record_done(id, &failed_reply("x")).unwrap();
        }
        assert!(SpoolPaths::new(&dir, live).job.exists());
        assert_eq!(spool.replay().unwrap().len(), 1);
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
        // tear the reply record: checksum no longer verifies
        let paths = SpoolPaths::new(&dir, id);
        let bytes = fs::read(&paths.done).unwrap();
        fs::write(&paths.done, &bytes[..bytes.len() - 3]).unwrap();

        let reopened = Spool::open(&dir).unwrap();
        assert!(reopened.completed().unwrap().is_empty());
        assert!(dir.join(format!("job-{id:016x}.done.corrupt")).exists());
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
        assert!(
            !SpoolPaths::new(&dir, id).ckpt.exists(),
            "completion retires the checkpoint"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_job_files_are_quarantined_not_lost() {
        let dir = tmp_dir("corrupt");
        let spool = Spool::open(&dir).unwrap();
        let id = spool.journal(&request("synth:")).unwrap();
        let paths = SpoolPaths::new(&dir, id);
        // truncate the record: the envelope checksum no longer verifies
        let bytes = fs::read(&paths.job).unwrap();
        fs::write(&paths.job, &bytes[..bytes.len() - 3]).unwrap();
        let jobs = spool.replay().unwrap();
        assert!(jobs.is_empty());
        assert!(paths.job.with_extension("corrupt").exists());
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
        assert!(fs::read_dir(&dir).unwrap().next().is_none(), "no debris");
        assert_eq!(spool.records(), 0);
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
        use std::io::Write;

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
}
