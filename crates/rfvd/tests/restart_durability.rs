//! Restart durability: a daemon SIGKILLed with accepted jobs still
//! queued (or in flight) must, when restarted on the same spool
//! directory, replay and complete every one of them — with results
//! byte-identical to an uninterrupted run. Spool checkpoints are
//! advisory: a corrupted one degrades to a from-scratch rerun, never
//! a failed or lost job.
//!
//! These tests drive the real `rfvd` binary (via `CARGO_BIN_EXE_`),
//! because the property under test is crash recovery of the whole
//! process, not of an in-process handle.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rfv_sim::{Checkpoint, CKPT_VERSION};
use rfvd::client::Client;
use rfvd::proto::{JobRequest, JobResult, Response};

const LONG_SPEC: &str = "synth:regs=24,trips=300,tpc=128,ctas=2,conc=2";
const DEADLINE: Duration = Duration::from_secs(120);

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(spool: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rfvd"))
            .args(["--port", "0", "--jobs", "1", "--spool-dir"])
            .arg(spool)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rfvd");
        // the readiness line is machine-parseable by contract
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read readiness line");
        let addr = line
            .trim()
            .strip_prefix("rfvd listening on ")
            .unwrap_or_else(|| panic!("unexpected readiness line {line:?}"))
            .parse()
            .expect("parse listen address");
        Daemon { child, addr }
    }

    fn kill(mut self) {
        let _ = self.child.kill(); // SIGKILL: no drain, no cleanup
        let _ = self.child.wait();
    }
}

fn long_req() -> JobRequest {
    JobRequest {
        spec: LONG_SPEC.into(),
        num_sms: 1,
        ..JobRequest::default()
    }
}

fn submit_ok(client: &mut Client, req: &JobRequest) -> JobResult {
    match client.submit(req) {
        Ok(Response::Result(r)) => r,
        other => panic!("expected a result, got {other:?}"),
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + DEADLINE;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Record ids present in the spool with the given extension.
fn spool_ids(dir: &Path, ext: &str) -> Vec<u64> {
    let mut ids: Vec<u64> = std::fs::read_dir(dir)
        .expect("read spool dir")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            let stem = name.strip_suffix(ext)?.strip_prefix("job-")?;
            u64::from_str_radix(stem, 16).ok()
        })
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn sigkilled_daemon_replays_every_accepted_job_byte_identically() {
    let spool = std::env::temp_dir().join(format!("rfvd-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);

    // life 1: take a reference result, then pile up jobs and die
    let daemon = Daemon::spawn(&spool);
    let addr = daemon.addr;
    let reference = {
        let mut c = Client::connect(addr).unwrap();
        submit_ok(&mut c, &long_req())
    };

    let submitters: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                // the daemon dies mid-job: any reply (or none) is fine
                let _ = c.submit(&long_req());
            })
        })
        .collect();
    let mut probe = Client::connect(addr).unwrap();
    wait_until("all five jobs accepted", || {
        probe.stats().unwrap().submitted >= 5
    });
    daemon.kill();
    for s in submitters {
        let _ = s.join();
    }

    // the spool must show accepted-but-unfinished work
    let done_before: Vec<u64> = spool_ids(&spool, ".done");
    let unfinished: Vec<u64> = spool_ids(&spool, ".job")
        .into_iter()
        .filter(|id| !done_before.contains(id))
        .collect();
    assert!(
        !unfinished.is_empty(),
        "SIGKILL with queued jobs must leave unfinished spool records"
    );

    // sabotage checkpoints: garbage, and a well-formed container from
    // an older build (an earlier checkpoint version) — each must
    // degrade to a rerun, not a failure (checkpoints are advisory)
    let older_build = Checkpoint {
        version: CKPT_VERSION - 1,
        config_hash: 0,
        kernel_hash: 0,
        cycle: 1,
        sm_frames: vec![Vec::new()],
    };
    let sabotage: [&[u8]; 2] = [b"not a checkpoint", &older_build.to_bytes()];
    for (victim, body) in unfinished.iter().zip(sabotage) {
        let mut record = 1u32.to_le_bytes().to_vec();
        record.extend_from_slice(body);
        std::fs::write(spool.join(format!("job-{victim:016x}.ckpt")), record).unwrap();
    }

    // life 2: same spool, fresh process — every unfinished job runs
    let daemon = Daemon::spawn(&spool);
    let mut probe = Client::connect(daemon.addr).unwrap();
    assert_eq!(
        probe.stats().unwrap().replayed,
        unfinished.len() as u64,
        "every unfinished record is replayed, nothing else"
    );
    let done_paths: Vec<PathBuf> = unfinished
        .iter()
        .map(|id| spool.join(format!("job-{id:016x}.done")))
        .collect();
    wait_until("replayed jobs to finish", || {
        done_paths.iter().all(|p| p.exists())
    });

    // each durable outcome must be the byte-identical success a
    // never-killed daemon would have produced
    for (id, path) in unfinished.iter().zip(&done_paths) {
        let response = Response::decode(&std::fs::read(path).unwrap())
            .unwrap_or_else(|e| panic!("job {id:#x}: undecodable .done record: {e}"));
        match response {
            Response::Result(r) => {
                assert_eq!(
                    r.stats_json, reference.stats_json,
                    "job {id:#x}: replayed stats diverge from the uninterrupted run"
                );
                assert_eq!(r.cycles, reference.cycles, "job {id:#x}");
                assert_eq!(r.instrs, reference.instrs, "job {id:#x}");
            }
            other => panic!("job {id:#x}: replay did not succeed: {other:?}"),
        }
    }
    let stats = probe.stats().unwrap();
    assert_eq!(stats.failed, 0, "no replayed job may fail");
    daemon.kill();

    // life 3: everything is done; a fresh open replays nothing, and
    // the completed pairs are *retained* as idempotency memory (they
    // are what lets a restarted daemon dedupe resubmitted nonces)
    let daemon = Daemon::spawn(&spool);
    let mut probe = Client::connect(daemon.addr).unwrap();
    let stats = probe.stats().unwrap();
    assert_eq!(stats.replayed, 0, "done jobs stay done");
    let jobs = spool_ids(&spool, ".job");
    assert_eq!(
        jobs,
        spool_ids(&spool, ".done"),
        "every retained record is a completed job/done pair"
    );
    assert_eq!(stats.spool_records, jobs.len() as u64);
    daemon.kill();

    let _ = std::fs::remove_dir_all(&spool);
}
