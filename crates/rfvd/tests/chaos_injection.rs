//! Deterministic environment fault injection, exercised end to end
//! against in-process servers: disk brownouts shed normal-priority
//! work and heal, queue brownouts exit with hysteresis, the nonce
//! table dedupes resubmissions (replay and in-flight coalescing),
//! and a [`ResilientClient`] rides out a socket-level fault storm
//! without losing or double-running a single job.

use std::time::{Duration, Instant};

use rfvd::chaos::ChaosPlan;
use rfvd::client::{Client, ResilientClient, RetryPolicy};
use rfvd::proto::{ErrorCode, JobRequest, Priority, Response};
use rfvd::server::{serve, ServerConfig, ServerHandle};

const QUICK_SPEC: &str = "synth:regs=24,trips=2,rep=4";
const LONG_SPEC: &str = "synth:regs=24,trips=300,tpc=128,ctas=2,conc=2";
/// About 100x `LONG_SPEC` (hundreds of ms): a job that stays in flight
/// across 10 ms stats polls even on a loaded host.
const DRAIN_SPEC: &str = "synth:regs=24,trips=30000,tpc=128,ctas=2,conc=2";
const DEADLINE: Duration = Duration::from_secs(60);

fn req(spec: &str, priority: Priority) -> JobRequest {
    JobRequest {
        spec: spec.into(),
        num_sms: 1,
        priority,
        ..JobRequest::default()
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + DEADLINE;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn temp_spool(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rfvd-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve_with(config: ServerConfig) -> ServerHandle {
    serve(config).expect("serve")
}

#[test]
fn disk_brownout_sheds_normal_keeps_high_and_heals() {
    let spool = temp_spool("disk");
    let handle = serve_with(ServerConfig {
        spool_dir: Some(spool.clone()),
        chaos: ChaosPlan::parse("disk_eio:1.0", 7).unwrap(),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // every journal write fails: normal submissions come back with a
    // typed retry-after carrying a backoff hint, never a hang or a
    // silent accept of non-durable work
    let mut hints = 0;
    for _ in 0..4 {
        match client.submit(&req(QUICK_SPEC, Priority::Normal)).unwrap() {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::RetryAfter, "{e}");
                if e.retry_after_ms.is_some() {
                    hints += 1;
                }
            }
            other => panic!("normal submit during disk failure: {other:?}"),
        }
    }
    assert_eq!(hints, 4, "every retry-after carries a backoff hint");
    let stats = client.stats().unwrap();
    assert_eq!(stats.brownout, 1, "disk brownout is live");
    assert!(stats.brownouts >= 1);
    assert!(stats.shed >= 1, "brownout sheds normal work");

    // high priority still runs (non-durably) through the brownout
    match client.submit(&req(QUICK_SPEC, Priority::High)).unwrap() {
        Response::Result(_) => {}
        other => panic!("high priority must survive the brownout: {other:?}"),
    }

    // the disk "recovers": the mux's probe heals the brownout without
    // any client traffic, and normal submissions flow again
    handle.chaos().set_scale(0.0);
    wait_until("disk brownout to heal", || {
        client.stats().unwrap().brownout == 0
    });
    match client.submit(&req(QUICK_SPEC, Priority::Normal)).unwrap() {
        Response::Result(_) => {}
        other => panic!("healed daemon rejected a normal job: {other:?}"),
    }

    handle.join();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn queue_brownout_enters_on_overflow_and_exits_with_hysteresis() {
    let handle = serve_with(ServerConfig {
        jobs: 1,
        queue_depth: 8,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    // sustained overload: one worker, many submitters refilling the
    // queue faster than it drains
    let runners: Vec<_> = (0..16)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for _ in 0..2 {
                    // any typed outcome is legal under overload; what
                    // is not legal is a hang or an untyped error
                    match c.submit(&req(LONG_SPEC, Priority::Normal)).unwrap() {
                        Response::Result(_) => {}
                        Response::Error(e) => {
                            assert!(
                                matches!(e.code, ErrorCode::QueueFull | ErrorCode::RetryAfter),
                                "overload produced {e}"
                            );
                            assert!(e.retry_after_ms.is_some(), "rejection without a hint: {e}");
                        }
                        other => panic!("overload submit: {other:?}"),
                    }
                }
            })
        })
        .collect();
    let mut client = Client::connect(addr).unwrap();
    wait_until("the queue to overflow", || {
        client.stats().unwrap().brownouts >= 1
    });

    // while the brownout holds, a normal submission is turned away
    // with a typed, hinted rejection — shed before touching the
    // queue, or bounced by the full queue if the brownout flapped
    match client.submit(&req(QUICK_SPEC, Priority::Normal)).unwrap() {
        Response::Error(e) => {
            assert!(
                matches!(e.code, ErrorCode::RetryAfter | ErrorCode::QueueFull),
                "{e}"
            );
            assert!(e.retry_after_ms.is_some(), "rejection without a hint: {e}");
        }
        Response::Result(_) => {
            // the backlog happened to drain past the hysteresis point
            // before our submission arrived — legal, just unlucky
        }
        other => panic!("brownout submit: {other:?}"),
    }
    for r in runners {
        r.join().unwrap();
    }

    // recovery is automatic: with the backlog gone the mux's own tick
    // exits the brownout, no submission required to nudge it
    wait_until("queue brownout to exit", || {
        client.stats().unwrap().brownout == 0
    });
    match client.submit(&req(QUICK_SPEC, Priority::Normal)).unwrap() {
        Response::Result(_) => {}
        other => panic!("post-brownout submit: {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert!(stats.brownouts >= 1, "the overload tripped the brownout");
    assert!(stats.rejected >= 1, "the overflow itself was typed");
    handle.join();
}

#[test]
fn draining_daemon_rejects_with_a_hinted_shutting_down() {
    let handle = serve_with(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    // keep one job in flight so the drain has something to wait for
    // (a drained-empty daemon closes its connections immediately)
    let runner = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.submit(&req(DRAIN_SPEC, Priority::Normal)).unwrap()
    });
    let mut client = Client::connect(addr).unwrap();
    wait_until("the long job to start", || {
        client.stats().unwrap().active >= 1
    });
    handle.begin_drain();
    match client.submit(&req(QUICK_SPEC, Priority::Normal)).unwrap() {
        Response::Error(e) => {
            assert_eq!(e.code, ErrorCode::ShuttingDown, "{e}");
            assert!(e.retry_after_ms.is_some(), "drain rejection carries a hint");
        }
        other => panic!("drain submit: {other:?}"),
    }
    match runner.join().unwrap() {
        Response::Result(_) => {}
        other => panic!("in-flight job must finish the drain: {other:?}"),
    }
    handle.join();
}

#[test]
fn duplicate_nonce_replays_the_recorded_reply() {
    let handle = serve_with(ServerConfig::default());
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let mut job = req(QUICK_SPEC, Priority::Normal);
    job.nonce = 0x5eed_cafe;
    let first = match client.submit(&job).unwrap() {
        Response::Result(r) => r,
        other => panic!("first submit: {other:?}"),
    };
    // a blind resubmission — even with a *different* spec — replays
    // the recorded reply instead of running anything: the nonce is
    // the job's identity for retry purposes
    let mut dup = req(LONG_SPEC, Priority::Normal);
    dup.nonce = 0x5eed_cafe;
    match client.submit(&dup).unwrap() {
        Response::Result(r) => {
            assert_eq!(r.stats_json, first.stats_json, "replayed verbatim");
            assert_eq!(r.cycles, first.cycles);
        }
        other => panic!("duplicate submit: {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.deduped, 1);
    assert_eq!(stats.completed, 1, "the job ran exactly once");
    handle.join();
}

#[test]
fn inflight_duplicate_attaches_and_both_submitters_get_the_result() {
    let handle = serve_with(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let mut job = req(LONG_SPEC, Priority::Normal);
    job.nonce = 0xf1a9;

    // two clients race the same nonce; the second attaches to the
    // in-flight job instead of starting a second run
    let submitters: Vec<_> = (0..2)
        .map(|_| {
            let job = job.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.submit(&job).unwrap()
            })
        })
        .collect();
    let mut results = Vec::new();
    for s in submitters {
        match s.join().unwrap() {
            Response::Result(r) => results.push(r),
            other => panic!("racing submit: {other:?}"),
        }
    }
    assert_eq!(results[0].stats_json, results[1].stats_json);
    assert_eq!(results[0].cycles, results[1].cycles);
    let mut probe = Client::connect(addr).unwrap();
    let stats = probe.stats().unwrap();
    assert_eq!(stats.completed, 1, "one run served both submitters");
    assert_eq!(stats.deduped, 1);
    handle.join();
}

#[test]
fn resilient_client_survives_a_socket_fault_storm_without_job_loss() {
    let handle = serve_with(ServerConfig {
        chaos: ChaosPlan::parse("net_reset:0.05,net_short_write:0.2,net_short_read:0.2", 42)
            .unwrap(),
        ..ServerConfig::default()
    });
    let policy = RetryPolicy {
        max_attempts: 40,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(50),
    };
    let mut client = ResilientClient::seeded(
        handle.local_addr().to_string(),
        Some(Duration::from_secs(10)),
        policy,
        9,
    );

    let total = 24;
    let mut reference: Option<String> = None;
    for _ in 0..total {
        match client.submit_idempotent(&req(QUICK_SPEC, Priority::Normal)) {
            Ok(Response::Result(r)) => match &reference {
                Some(json) => assert_eq!(&r.stats_json, json, "results drift under chaos"),
                None => reference = Some(r.stats_json),
            },
            other => panic!("storm submit: {other:?}"),
        }
    }
    let fired = handle.chaos().total_fired();
    assert!(fired > 0, "the storm actually fired ({fired} faults)");

    // quiesce the chaos to read authoritative counters, then check
    // exactly-once: dedupe absorbed every resubmission of a job the
    // daemon had already accepted
    handle.chaos().set_scale(0.0);
    let stats = client.stats().unwrap();
    assert_eq!(stats.failed, 0);
    assert_eq!(
        stats.completed,
        total,
        "every job ran exactly once no matter how many resubmissions \
         ({} deduped, {} client resets)",
        stats.deduped,
        client.resets()
    );
    handle.join();
}
