//! Preemption is invisible in results, at both layers:
//!
//! * **library** — a `SlicedSim` driven in ragged slices through a
//!   checkpoint/resume cycle (sharing one predecoded image, as the
//!   daemon's cache does) finishes bit-identical to an uninterrupted
//!   `simulate_traced` run;
//! * **daemon** — a job that was demonstrably preempted by
//!   high-priority traffic returns the same stats-json bytes as the
//!   same job run without interference.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use rfv_bench::harness::machine_config;
use rfv_sim::{simulate_traced, PredecodedKernel, SimConfig, SlicedSim};
use rfvd::cache::compile_flavored;
use rfvd::client::Client;
use rfvd::proto::{JobRequest, Priority, Response};
use rfvd::result_stats_json;
use rfvd::server::{serve, ServerConfig};
use rfvd::spec::JobSpec;

#[test]
fn ragged_slices_with_checkpoint_resume_are_bit_identical() {
    let spec = JobSpec::parse("synth:regs=24,trips=40,tpc=128,ctas=4,conc=2,mem=2").unwrap();
    let kernel = spec.build_kernel();
    let config = SimConfig {
        num_sms: 2,
        ..SimConfig::baseline_full()
    };
    let release = config.regfile.policy.uses_release_flags();
    let compiled = compile_flavored(&kernel, release).unwrap();

    let reference = simulate_traced(&compiled, &config, &[], 4096).unwrap();

    // one predecoded image shared across construction, checkpoint,
    // and resume — exactly what the daemon's compile cache does
    let prog = Arc::new(PredecodedKernel::new(&compiled));
    let mut sim =
        SlicedSim::with_predecoded(&compiled, &config, &[], 4096, Arc::clone(&prog)).unwrap();
    for budget in [17, 1, 503, 89, 2311] {
        if sim.is_done() {
            break;
        }
        sim.advance(budget).unwrap();
    }
    // preempt: snapshot, drop the machine, resume from bytes
    let checkpoint = sim.checkpoint();
    drop(sim);
    let mut resumed =
        SlicedSim::resume_with_predecoded(&compiled, &config, &checkpoint, prog).unwrap();
    while !resumed.is_done() {
        resumed.advance(777).unwrap();
    }
    let sliced = resumed.finish().unwrap();

    assert_eq!(sliced.result.cycles, reference.result.cycles);
    assert_eq!(sliced.result.per_sm, reference.result.per_sm);
    assert_eq!(sliced.result.memories, reference.result.memories);
    assert_eq!(sliced.events, reference.events);
}

/// Acceptance: a preempted-then-resumed daemon job reports stats
/// byte-identical to an uninterrupted run of the same job.
#[test]
fn preempted_daemon_job_matches_uninterrupted_run_bytewise() {
    // tiny slices make preemption opportunities frequent
    let server = serve(ServerConfig {
        jobs: 1,
        queue_depth: 8,
        max_cycles_per_slice: 2_000,
        ..ServerConfig::default()
    })
    .expect("bind test server");
    let addr = server.local_addr();

    let victim_spec = "synth:regs=24,trips=300,tpc=128,ctas=2,conc=2";
    let victim = {
        let req = JobRequest {
            spec: victim_spec.into(),
            num_sms: 1,
            ..JobRequest::default()
        };
        thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            match c.submit(&req) {
                Ok(Response::Result(r)) => r,
                other => panic!("victim job failed: {other:?}"),
            }
        })
    };

    // pummel it with high-priority jobs until it has been preempted
    let mut probe = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe.stats().unwrap().active < 1 {
        assert!(Instant::now() < deadline, "victim never started");
        thread::sleep(Duration::from_millis(1));
    }
    let mut high = Client::connect(addr).unwrap();
    let high_req = JobRequest {
        spec: "synth:regs=10,trips=1,tpc=32,ctas=1,conc=1".into(),
        num_sms: 1,
        priority: Priority::High,
        ..JobRequest::default()
    };
    while probe.stats().unwrap().preemptions == 0 {
        assert!(
            Instant::now() < deadline,
            "no preemption observed; is the victim long enough?"
        );
        match high.submit(&high_req) {
            Ok(Response::Result(_)) => {}
            other => panic!("high-priority job failed: {other:?}"),
        }
    }

    let preempted = victim.join().unwrap();
    assert!(
        preempted.preemptions >= 1,
        "the victim should report its preemptions"
    );

    // uninterrupted reference, in process
    let kernel = JobSpec::parse(victim_spec).unwrap().build_kernel();
    let mut config = machine_config("full").unwrap();
    config.num_sms = 1;
    let release = config.regfile.policy.uses_release_flags();
    let compiled = compile_flavored(&kernel, release).unwrap();
    let mut sim = SlicedSim::new(&compiled, &config, &[], 0).unwrap();
    while !sim.is_done() {
        sim.advance(u64::MAX).unwrap();
    }
    let run = sim.finish().unwrap();
    let expected = result_stats_json(&run.result, config.num_sms);

    assert_eq!(preempted.cycles, run.result.cycles);
    assert_eq!(
        preempted.stats_json, expected,
        "a preempted-then-resumed job must be indistinguishable from \
         an uninterrupted one"
    );
    server.begin_drain();
    server.join();
}
