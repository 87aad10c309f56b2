//! Partial-write robustness of the poll-multiplexed connection
//! layer: reply frames must arrive byte-identical even when every
//! socket write makes only sliver progress — whether the slivers come
//! from injected `net_short_write` chaos or from genuinely tiny
//! kernel socket buffers that force frames to split across many
//! `POLLOUT` drains.

use rfvd::chaos::{ChaosKind, ChaosPlan};
use rfvd::client::Client;
use rfvd::proto::{JobRequest, Response};
use rfvd::server::{serve, ServerConfig};

const QUICK_SPEC: &str = "synth:regs=24,trips=2,rep=4";

fn req(spec: &str) -> JobRequest {
    JobRequest {
        spec: spec.into(),
        num_sms: 1,
        ..JobRequest::default()
    }
}

#[test]
fn sliver_writes_still_deliver_byte_identical_replies() {
    // reference: a fault-free server's result for the same job
    let clean = serve(ServerConfig::default()).expect("serve clean");
    let mut c = Client::connect(clean.local_addr()).unwrap();
    let reference = match c.submit(&req(QUICK_SPEC)).unwrap() {
        Response::Result(r) => r,
        other => panic!("reference submit: {other:?}"),
    };
    clean.join();

    // every write the chaos server makes map to a 1–8 byte sliver;
    // frames must still arrive whole and identical
    let handle = serve(ServerConfig {
        chaos: ChaosPlan::parse("net_short_write:1.0", 5).unwrap(),
        ..ServerConfig::default()
    })
    .expect("serve chaos");
    let mut client = Client::connect(handle.local_addr()).unwrap();
    for _ in 0..8 {
        match client.submit(&req(QUICK_SPEC)).unwrap() {
            Response::Result(r) => {
                assert_eq!(r.stats_json, reference.stats_json);
                assert_eq!(r.cycles, reference.cycles);
                assert_eq!(r.instrs, reference.instrs);
            }
            other => panic!("sliver submit: {other:?}"),
        }
    }
    assert!(
        handle.chaos().fired(ChaosKind::NetShortWrite) > 0,
        "the short-write fault actually fired"
    );
    handle.join();
}

/// Shrinks a socket's kernel buffers to their floor so a burst of
/// reply frames cannot possibly flush in one write.
#[cfg(target_os = "linux")]
fn shrink_buffers(stream: &std::net::TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const std::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    // the kernel clamps the request up to its per-socket minimum —
    // the point is "as small as allowed", not an exact byte count
    let val: i32 = 1;
    for opt in [SO_SNDBUF, SO_RCVBUF] {
        let rc = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                opt,
                (&raw const val).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        assert_eq!(rc, 0, "setsockopt({opt})");
    }
}

#[cfg(target_os = "linux")]
#[test]
fn pipelined_frames_split_across_pollout_drains() {
    use std::time::Duration;

    use rfvd::proto::{read_frame, write_frame, Request};

    let handle = serve(ServerConfig::default()).expect("serve");
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    shrink_buffers(&stream);
    // a wedged connection fails the test in seconds instead of
    // waiting out TCP's retransmission give-up
    let timeout = Some(Duration::from_secs(10));
    stream.set_read_timeout(timeout).unwrap();
    stream.set_write_timeout(timeout).unwrap();

    // pipeline a burst of stats requests while a second thread drains
    // the replies: the replies overflow the shrunken buffers, so the
    // mux must park them in its out-buffer and drain over many POLLOUT
    // rounds. The reads must run concurrently with the writes — a
    // client that writes all 64 frames before reading any stops
    // draining its own receive queue, the server's replies back up to
    // a zero window, and both ends stall with requests still in flight
    const BURST: usize = 64;
    let mut replies = stream.try_clone().unwrap();
    let reader = std::thread::spawn(move || {
        for i in 0..BURST {
            let frame = read_frame(&mut replies)
                .unwrap_or_else(|e| panic!("reply {i}: {e}"))
                .unwrap_or_else(|| panic!("reply {i}: connection closed early"));
            match Response::decode(&frame) {
                Ok(Response::Stats(s)) => {
                    assert!(s.conns_total >= 1, "reply {i}: nonsense counters");
                }
                other => panic!("reply {i}: {other:?}"),
            }
        }
    });
    let payload = Request::Stats.encode();
    for i in 0..BURST {
        write_frame(&mut stream, &payload).unwrap_or_else(|e| panic!("request {i}: {e}"));
    }
    reader.join().expect("every reply arrives intact");
    handle.join();
}
