//! The chaos soak: a daemon under a seeded, full-spectrum fault
//! storm (disk and network) must complete every accepted job exactly
//! once, with results byte-identical to a fault-free run — across
//! multiple storm seeds, and even when the daemon is SIGKILLed and
//! restarted mid-storm while clients are still retrying.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rfvd::chaos::ChaosPlan;
use rfvd::client::{Client, ResilientClient, RetryPolicy};
use rfvd::persist::Spool;
use rfvd::proto::{JobRequest, Response};
use rfvd::server::{serve, ServerConfig};

const QUICK_SPEC: &str = "synth:regs=24,trips=2,rep=4";
const STORM: &str = "disk_eio:0.05,disk_torn:0.05,net_reset:0.05,net_short_write:0.2,\
                     net_short_read:0.2,net_accept:0.05,net_stall:0.05";
const DEADLINE: Duration = Duration::from_secs(120);

fn req(spec: &str) -> JobRequest {
    JobRequest {
        spec: spec.into(),
        num_sms: 1,
        ..JobRequest::default()
    }
}

fn storm_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 200,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(100),
    }
}

/// The fault-free reference result every chaos run must reproduce.
fn reference_result() -> rfvd::proto::JobResult {
    let clean = serve(ServerConfig::default()).expect("serve clean");
    let mut c = Client::connect(clean.local_addr()).unwrap();
    let result = match c.submit(&req(QUICK_SPEC)).unwrap() {
        Response::Result(r) => r,
        other => panic!("reference submit: {other:?}"),
    };
    clean.join();
    result
}

#[test]
fn five_seeded_storms_lose_nothing_and_results_never_drift() {
    let reference = reference_result();
    for seed in 1..=5u64 {
        let spool = std::env::temp_dir().join(format!("rfvd-soak-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let handle = serve(ServerConfig {
            spool_dir: Some(spool.clone()),
            chaos: ChaosPlan::parse(STORM, seed).unwrap(),
            ..ServerConfig::default()
        })
        .expect("serve storm");
        let mut client = ResilientClient::seeded(
            handle.local_addr().to_string(),
            Some(Duration::from_secs(10)),
            storm_policy(),
            seed ^ 0x00c1_1e47,
        );

        let total: u64 = 16;
        for i in 0..total {
            match client.submit_idempotent(&req(QUICK_SPEC)) {
                Ok(Response::Result(r)) => {
                    assert_eq!(
                        r.stats_json, reference.stats_json,
                        "seed {seed}, job {i}: result drifted under chaos"
                    );
                    assert_eq!(r.cycles, reference.cycles, "seed {seed}, job {i}");
                }
                other => panic!("seed {seed}, job {i}: {other:?}"),
            }
        }
        // quiesce, then check exactly-once accounting
        handle.chaos().set_scale(0.0);
        let stats = client.stats().unwrap();
        assert_eq!(stats.failed, 0, "seed {seed}");
        assert_eq!(
            stats.completed,
            total,
            "seed {seed}: each job ran exactly once ({} deduped, {} retries, {} resets)",
            stats.deduped,
            client.retries(),
            client.resets()
        );
        handle.join();
        let _ = std::fs::remove_dir_all(&spool);
    }
}

// ------------------------------------------- real-binary kill storm

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(spool: &Path, port: u16, chaos: Option<(&str, u64)>) -> Daemon {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_rfvd"));
        cmd.args(["--port", &port.to_string(), "--jobs", "2", "--spool-dir"])
            .arg(spool);
        if let Some((spec, seed)) = chaos {
            cmd.args(["--chaos", spec, "--chaos-seed", &seed.to_string()]);
        }
        let mut child = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rfvd");
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

/// Reserves a port the daemon can be restarted on: clients must be
/// able to keep dialing the *same* address across the kill.
fn pick_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

#[test]
fn sigkill_mid_storm_loses_no_accepted_job() {
    let reference = reference_result();
    let spool = std::env::temp_dir().join(format!("rfvd-soak-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let port = pick_port();

    let daemon = Daemon::spawn(&spool, port, Some((STORM, 11)));
    let addr = daemon.addr;

    // clients submit through the whole ordeal: storm, SIGKILL, the
    // dead window, and the restarted daemon
    let submitters: Vec<_> = (0..3u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = ResilientClient::seeded(
                    addr.to_string(),
                    Some(Duration::from_secs(10)),
                    storm_policy(),
                    0xdead_0000 + t,
                );
                let mut results = Vec::new();
                for _ in 0..4 {
                    results.push(client.submit_idempotent(&req(QUICK_SPEC)));
                }
                results
            })
        })
        .collect();

    // let the storm rage briefly, then SIGKILL mid-flight and restart
    // on the same port and spool — still under chaos
    std::thread::sleep(Duration::from_millis(150));
    daemon.kill();
    let daemon = Daemon::spawn(&spool, port, Some((STORM, 12)));
    assert_eq!(daemon.addr, addr, "restart must reuse the address");

    for (t, s) in submitters.into_iter().enumerate() {
        for (i, outcome) in s.join().unwrap().into_iter().enumerate() {
            match outcome {
                Ok(Response::Result(r)) => {
                    assert_eq!(
                        r.stats_json, reference.stats_json,
                        "thread {t}, job {i}: result drifted across the kill"
                    );
                }
                other => panic!("thread {t}, job {i}: {other:?}"),
            }
        }
    }
    daemon.kill();

    // a final fault-free life heals the spool: torn records are
    // quarantined and their jobs rerun, after which every retained
    // job has a decodable Done record with the reference result
    let daemon = Daemon::spawn(&spool, port, None);
    let mut probe = Client::connect(daemon.addr).unwrap();
    let deadline = Instant::now() + DEADLINE;
    loop {
        // counters rise before a job's Done record is appended, and
        // `active` falls after it
        let stats = probe.stats().unwrap();
        if stats.queued == 0
            && stats.active == 0
            && stats.completed + stats.failed >= stats.replayed
        {
            break;
        }
        assert!(Instant::now() < deadline, "final life never settled");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(probe.stats().unwrap().failed, 0, "no replayed job may fail");
    daemon.kill();
    let healed = Spool::open(&spool).unwrap();
    assert!(
        healed.replay().unwrap().is_empty(),
        "every retained job has a Done record"
    );
    let mut checked = 0;
    for done in healed.completed().unwrap() {
        match done.response {
            Response::Result(r) => {
                assert_eq!(
                    r.stats_json, reference.stats_json,
                    "job {:#x}: durable result drifted",
                    done.id
                );
                checked += 1;
            }
            other => panic!("job {:#x}: durable failure: {other:?}", done.id),
        }
    }
    assert!(checked > 0, "the storm left durable completed records");
    let _ = std::fs::remove_dir_all(&spool);
}
