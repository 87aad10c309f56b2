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
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rfv_sim::{Checkpoint, CKPT_VERSION};
use rfvd::client::Client;
use rfvd::persist::Spool;
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

/// Ids of the spool's accepted-but-unfinished and of its completed
/// jobs, read while no daemon runs on it.
fn spool_ids(dir: &Path) -> (Vec<u64>, Vec<u64>) {
    let spool = Spool::open(dir).expect("open spool");
    let unfinished = spool
        .replay()
        .expect("replay")
        .iter()
        .map(|j| j.id)
        .collect();
    let completed = spool
        .completed()
        .expect("completed")
        .iter()
        .map(|j| j.id)
        .collect();
    (unfinished, completed)
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
    let (unfinished, _) = spool_ids(&spool);
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
    // a job's Done record is synced before its runner goes idle, so
    // an idle daemon that has finished every replayed job holds them all
    wait_until("replayed jobs to finish", || {
        let s = probe.stats().unwrap();
        s.completed + s.failed >= unfinished.len() as u64 && s.queued == 0 && s.active == 0
    });
    let stats = probe.stats().unwrap();
    assert_eq!(stats.failed, 0, "no replayed job may fail");
    daemon.kill();

    // each durable outcome must be the byte-identical success a
    // never-killed daemon would have produced
    let completed = Spool::open(&spool).unwrap().completed().unwrap();
    for id in &unfinished {
        let done = completed
            .iter()
            .find(|c| c.id == *id)
            .unwrap_or_else(|| panic!("job {id:#x}: no durable Done record"));
        match &done.response {
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

    // life 3: everything is done; a fresh open replays nothing, and
    // the completed pairs are *retained* as idempotency memory (they
    // are what lets a restarted daemon dedupe resubmitted nonces)
    let daemon = Daemon::spawn(&spool);
    let mut probe = Client::connect(daemon.addr).unwrap();
    let stats = probe.stats().unwrap();
    assert_eq!(stats.replayed, 0, "done jobs stay done");
    daemon.kill();
    let (unfinished, completed) = spool_ids(&spool);
    assert!(
        unfinished.is_empty(),
        "every retained record is a completed job/done pair"
    );
    assert_eq!(stats.spool_records, completed.len() as u64);

    let _ = std::fs::remove_dir_all(&spool);
}
