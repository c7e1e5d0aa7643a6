//! Realism tests for the TCP front: a plain [`mirror_echo::TcpTransport`]
//! subscriber speaking `Frame::Subscribe` / `Frame::Resume` against the
//! nonblocking edge loop, including disconnect and gap-free resume.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mirror_core::event::{Event, PositionFix};
use mirror_core::timestamp::VectorTimestamp;
use mirror_echo::{Frame, Polled, SubscriptionFilter, TcpTransport, Transport};
use mirror_ede::{OperationalState, Snapshot};
use mirror_edge::tcp::EdgeTcp;
use mirror_edge::{EdgeConfig, EdgeServer};

fn provider() -> Box<dyn mirror_edge::StateProvider> {
    Box::new(mirror_edge::SnapshotFn(|| {
        let state = OperationalState::new();
        let snap = Snapshot::capture(&state, VectorTimestamp::empty());
        (mirror_echo::wire::encode_snapshot(&snap), VectorTimestamp::empty())
    }))
}

fn pos(seq: u64, flight: u32) -> Arc<Event> {
    Arc::new(Event::faa_position(
        seq,
        flight,
        PositionFix { lat: 1.0, lon: 2.0, alt_ft: 30000.0, speed_kts: 440.0, heading_deg: 90.0 },
    ))
}

fn recv_frame(t: &mut TcpTransport) -> Frame {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match t.recv_timeout(Duration::from_millis(100)).expect("recv") {
            Polled::Frame(f) => return f,
            Polled::Idle => assert!(Instant::now() < deadline, "timed out waiting for a frame"),
            Polled::Eof => panic!("unexpected EOF"),
        }
    }
}

#[test]
fn tcp_subscribe_stream_disconnect_resume() {
    let cfg = EdgeConfig { window: 1024, ..Default::default() };
    let edge = Arc::new(EdgeServer::start(cfg, provider()));
    let front = EdgeTcp::serve(Arc::clone(&edge), "127.0.0.1:0").expect("bind");
    let addr = front.local_addr();

    // Subscribe over a plain TcpTransport; first frame is the reseed.
    let mut sub = TcpTransport::connect(addr).expect("connect");
    sub.send(&Frame::Subscribe { client: 7, filter: SubscriptionFilter::All }).expect("send");
    match recv_frame(&mut sub) {
        Frame::Reseed { pub_seq, .. } => assert_eq!(pub_seq, 0),
        f => panic!("expected reseed first, got {f:?}"),
    }

    // Live delivery, in publication order, with the event intact.
    for i in 1..=10u64 {
        edge.publish(pos(i, 42));
    }
    let mut last = 0u64;
    for want in 1..=10u64 {
        match recv_frame(&mut sub) {
            Frame::EdgeEvent { pub_seq, event } => {
                assert_eq!(pub_seq, want, "in-order delivery");
                assert_eq!(event.seq, want);
                assert_eq!(event.flight, 42);
                last = pub_seq;
            }
            f => panic!("expected edge event, got {f:?}"),
        }
    }

    // Drop the socket mid-run, miss some traffic, resume: the replay
    // starts exactly after last_seq with no gap and no duplicates.
    drop(sub);
    for i in 11..=15u64 {
        edge.publish(pos(i, 42));
    }
    let mut back = TcpTransport::connect(addr).expect("reconnect");
    back.send(&Frame::Resume { client: 7, last_seq: last }).expect("send resume");
    for want in 11..=15u64 {
        match recv_frame(&mut back) {
            Frame::EdgeEvent { pub_seq, .. } => assert_eq!(pub_seq, want, "gap-free resume"),
            f => panic!("expected edge event, got {f:?}"),
        }
    }
}

#[test]
fn tcp_resume_of_unknown_client_closes_connection() {
    let edge = Arc::new(EdgeServer::start(EdgeConfig::default(), provider()));
    let front = EdgeTcp::serve(Arc::clone(&edge), "127.0.0.1:0").expect("bind");

    let mut t = TcpTransport::connect(front.local_addr()).expect("connect");
    t.send(&Frame::Resume { client: 999, last_seq: 0 }).expect("send");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match t.recv_timeout(Duration::from_millis(100)) {
            Ok(Polled::Eof) | Err(_) => break,
            Ok(Polled::Frame(f)) => panic!("unknown client must not be served, got {f:?}"),
            Ok(Polled::Idle) => assert!(Instant::now() < deadline, "server never closed"),
        }
    }
}

#[test]
fn tcp_filtered_subscription_only_sees_its_flights() {
    let edge = Arc::new(EdgeServer::start(EdgeConfig::default(), provider()));
    let front = EdgeTcp::serve(Arc::clone(&edge), "127.0.0.1:0").expect("bind");

    let mut sub = TcpTransport::connect(front.local_addr()).expect("connect");
    sub.send(&Frame::Subscribe { client: 3, filter: SubscriptionFilter::Flights(vec![5]) })
        .expect("send");
    match recv_frame(&mut sub) {
        Frame::Reseed { .. } => {}
        f => panic!("expected reseed, got {f:?}"),
    }
    for i in 1..=6u64 {
        edge.publish(pos(i, if i % 2 == 0 { 5 } else { 77 }));
    }
    // Only flights matching the filter arrive: pub_seq 2, 4, 6.
    for want in [2u64, 4, 6] {
        match recv_frame(&mut sub) {
            Frame::EdgeEvent { pub_seq, event } => {
                assert_eq!(pub_seq, want);
                assert_eq!(event.flight, 5);
            }
            f => panic!("expected edge event, got {f:?}"),
        }
    }
}
