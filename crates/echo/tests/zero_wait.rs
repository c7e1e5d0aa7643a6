//! A zero-wait poll never sleeps.
//!
//! [`Transport::recv_timeout`] with `Duration::ZERO` is the poll every
//! resilient send ends with. These tests pin the contract where it is
//! implemented — the TCP transport, which serves it with a non-blocking
//! read — and where it matters one layer up: the resilient engine's stall
//! detector must not mistake back-to-back sends for a silent peer.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mirror_core::event::{Event, FlightStatus};
use mirror_echo::resilient::{ResilientTransport, RetryPolicy};
use mirror_echo::transport::{inproc_rendezvous, Polled};
use mirror_echo::wire::{encode_frame, Frame};
use mirror_echo::{TcpTransport, Transport};

fn ev(seq: u64) -> Frame {
    Frame::Data(Arc::new(Event::delta_status(seq, 7, FlightStatus::Boarding)))
}

/// A transport over an accepted socket, and the raw peer end.
fn tcp_pair() -> (TcpTransport, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    (TcpTransport::accept_one(&listener).unwrap(), peer)
}

/// Zero-wait polls, each of which must come back `Idle`; returns the time
/// they took together.
fn idle_polls(t: &mut TcpTransport, n: usize) -> Duration {
    let start = Instant::now();
    for _ in 0..n {
        assert_eq!(t.recv_timeout(Duration::ZERO).unwrap(), Polled::Idle);
    }
    start.elapsed()
}

#[test]
fn zero_wait_polls_of_an_idle_tcp_link_do_not_sleep() {
    let (mut t, _peer) = tcp_pair();
    let took = idle_polls(&mut t, 1_000);
    assert!(took < Duration::from_millis(200), "1000 zero-wait polls took {took:?}");
}

#[test]
fn a_frame_split_around_zero_polls_comes_back_whole() {
    let (mut t, mut peer) = tcp_pair();
    let body = encode_frame(&ev(7));
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&body);
    let (head, tail) = wire.split_at(wire.len() / 2);

    peer.write_all(head).unwrap();
    let took = idle_polls(&mut t, 200);
    assert!(took < Duration::from_millis(100), "200 polls over half a frame took {took:?}");

    peer.write_all(tail).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match t.recv_timeout(Duration::ZERO).unwrap() {
            Polled::Frame(f) => break assert_eq!(f, ev(7)),
            Polled::Idle => assert!(Instant::now() < deadline, "the tail never completed"),
            Polled::Eof => panic!("peer is still open"),
        }
        std::thread::yield_now();
    }
}

#[test]
fn a_send_right_after_a_zero_poll_succeeds() {
    const ROUNDS: u64 = 200;
    // Every tenth frame is larger than the socket buffers, so its write
    // must block part-way until the peer drains.
    let frame = |i: u64| {
        let e = Event::delta_status(i, 7, FlightStatus::Boarding);
        let size = if i.is_multiple_of(10) { 4 << 20 } else { 256 };
        Frame::Data(Arc::new(e.with_total_size(size)))
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut t = TcpTransport::accept_one(&listener).unwrap();
        let mut n = 0;
        while let Some(f) = t.recv().unwrap() {
            assert_eq!(f, frame(n));
            n += 1;
        }
        n
    });

    let mut c = TcpTransport::connect(addr).unwrap();
    let mut polled = Duration::ZERO;
    for i in 0..ROUNDS {
        polled += idle_polls(&mut c, 1);
        c.send(&frame(i)).expect("a send after a zero-wait poll blocks; it does not fail");
    }
    drop(c);
    assert_eq!(server.join().unwrap(), ROUNDS);
    assert!(polled < Duration::from_millis(100), "{ROUNDS} polls took {polled:?}");
}

/// Back-to-back sends on a loss-free link are not a stall: only service
/// passes that waited may count towards re-offering the window.
#[test]
fn back_to_back_sends_on_a_clean_link_retransmit_nothing() {
    let (mut dialer, mut listener) = inproc_rendezvous("clean");
    let mut tx = ResilientTransport::new(
        move || dialer.dial().map(|t| Box::new(t) as Box<dyn Transport>),
        RetryPolicy::fast(3),
        "tx",
    );
    let mut rx = ResilientTransport::new(
        move || listener.accept(Duration::from_secs(1)).map(|t| Box::new(t) as Box<dyn Transport>),
        RetryPolicy::fast(3),
        "rx",
    );
    // Handshake first, so no Hello arrives mid-burst to prompt a
    // (legitimate) retransmission.
    tx.connect_now().unwrap();
    rx.connect_now().unwrap();
    tx.tick(Duration::from_millis(10));
    rx.tick(Duration::from_millis(10));

    for i in 1..=100 {
        tx.send(&ev(i)).unwrap();
    }
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    while got.len() < 100 && Instant::now() < deadline {
        if let Polled::Frame(f) = rx.recv_timeout(Duration::from_millis(1)).unwrap() {
            got.push(f);
        }
    }
    assert_eq!(got, (1..=100).map(ev).collect::<Vec<_>>());
    let (tx_h, rx_h) = (tx.monitor().health(), rx.monitor().health());
    assert_eq!(tx_h.retransmitted, 0, "{tx_h:?}");
    assert_eq!(rx_h.duplicates_dropped, 0, "{rx_h:?}");
}
