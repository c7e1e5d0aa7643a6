//! Property tests for the framed transport stack.
//!
//! Two layers are hammered with generated inputs:
//!
//! * the **framed TCP read path** — arbitrary chunk boundaries, garbage
//!   bytes and hostile length prefixes must never panic, never desync and
//!   never surface a mangled frame as valid, and
//! * the **resilient link layer** — under arbitrary drop / duplicate /
//!   reorder / corrupt / disconnect schedules, the application must see
//!   every frame exactly once, in order, and never a corrupt one.

use std::io;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mirror_core::event::{Event, FlightStatus, PositionFix};
use mirror_core::timestamp::VectorTimestamp;
use mirror_echo::faults::{FaultPlan, FaultState, FaultyTransport};
use mirror_echo::resilient::{ResilientTransport, RetryPolicy};
use mirror_echo::transport::{inproc_rendezvous, InProcDialer, InProcListener, Polled, MAX_FRAME};
use mirror_echo::wire::{
    decode_frame, decode_snapshot, encode_edge_event, encode_frame, encode_reseed, encode_snapshot,
    Frame, SubscriptionFilter, WIRE_VERSION,
};
use mirror_echo::{TcpTransport, Transport};
use mirror_ede::{FlightView, Snapshot};
use mirror_workload::rng::{check, Rng};

/// Any `u64`, the extremes over-represented: arithmetic on a sequence or
/// length field overflows there first, and a uniform draw never lands on
/// them.
fn any_u64(rng: &mut Rng) -> u64 {
    match rng.gen_range(0..8u32) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.next_u64(),
    }
}

fn any_u32(rng: &mut Rng) -> u32 {
    any_u64(rng) as u32
}

/// Up to `max` (exclusive) arbitrary bytes.
fn arb_bytes(rng: &mut Rng, max: usize) -> Vec<u8> {
    rng.gen_vec(0..max, |r| r.gen_range(0..=u8::MAX))
}

fn data(seq: u64) -> Frame {
    Frame::Data(Arc::new(Event::delta_status(seq, (seq % 40) as u32, FlightStatus::Boarding)))
}

/// Write `bytes` to a fresh loopback connection in `chunk`-sized pieces
/// and hand the accepted transport to `check`.
fn with_raw_writer<R>(bytes: Vec<u8>, chunk: usize, check: impl FnOnce(TcpTransport) -> R) -> R {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        use std::io::Write;
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        for c in bytes.chunks(chunk.max(1)) {
            // The reader may reject the stream and close mid-write
            // (oversized prefix, garbage): that's its prerogative.
            if s.write_all(c).is_err() {
                return;
            }
        }
        // Dropping the stream closes it: the reader sees EOF afterwards.
    });
    let t = TcpTransport::accept_one(&listener).expect("accept");
    let out = check(t);
    writer.join().expect("writer thread");
    out
}

/// Pure decode over arbitrary bytes: errors are fine, panics are not.
#[test]
fn decode_frame_never_panics() {
    check("decode_frame_never_panics", 64, |rng| {
        let bytes = arb_bytes(rng, 512);
        let _ = decode_frame(bytes::Bytes::from(bytes));
    });
}

/// The reliability envelopes roundtrip bit-exactly for any field
/// values, including the extremes.
#[test]
fn protocol_frames_roundtrip() {
    check("protocol_frames_roundtrip", 64, |rng| {
        let (seq, cum, next) = (any_u64(rng), any_u64(rng), any_u64(rng));
        let frames = [
            Frame::Seq { seq, inner: Box::new(data(seq % 1000 + 1)) },
            Frame::Ack { cum },
            Frame::Hello { next },
        ];
        for f in frames {
            assert_eq!(decode_frame(encode_frame(&f)), Ok(f));
        }
    });
}

/// Batches of any size (including empty) roundtrip bit-exactly, bare
/// and inside the one permitted Seq envelope, and their encoding obeys
/// the MAX_FRAME bound for any size the event path can produce.
#[test]
fn batch_frames_roundtrip() {
    check("batch_frames_roundtrip", 64, |rng| {
        let seqs = rng.gen_vec(0..48, |r| r.gen_range(1..10_000u64));
        let seq = any_u64(rng);
        let batch = Frame::Batch(seqs.iter().map(|&s| data(s)).collect());
        let encoded = encode_frame(&batch);
        assert!(encoded.len() <= MAX_FRAME as usize);
        assert_eq!(decode_frame(encoded), Ok(batch.clone()));
        let env = Frame::Seq { seq, inner: Box::new(batch) };
        assert_eq!(decode_frame(encode_frame(&env)), Ok(env));
    });
}

/// The decoder's nesting-depth limit: a batch inside a batch (however
/// the inner one is shaped) never decodes, it errors.
#[test]
fn nested_batches_are_rejected() {
    check("nested_batches_are_rejected", 64, |rng| {
        let seqs = rng.gen_vec(0..8, |r| r.gen_range(1..10_000u64));
        let inner = Frame::Batch(seqs.iter().map(|&s| data(s)).collect());
        let nested = Frame::Batch(vec![data(1), inner]);
        assert!(decode_frame(encode_frame(&nested)).is_err());
    });
}

/// The edge-tier subscription/resume/delivery frames roundtrip
/// bit-exactly for any field values, including empty and large flight
/// filters and extreme sequence numbers.
#[test]
fn edge_frames_roundtrip() {
    check("edge_frames_roundtrip", 64, |rng| {
        let (client, last_seq, pub_seq) = (any_u64(rng), any_u64(rng), any_u64(rng));
        let ids = rng.gen_vec(0..64, any_u32);
        let seq = rng.gen_range(1..10_000u64);
        let event = match data(seq) {
            Frame::Data(e) => e,
            _ => unreachable!(),
        };
        let frames = [
            Frame::Subscribe { client, filter: SubscriptionFilter::All },
            Frame::Subscribe { client, filter: SubscriptionFilter::Flights(ids) },
            Frame::Resume { client, last_seq },
            Frame::EdgeEvent { pub_seq, event },
        ];
        for f in frames {
            assert_eq!(decode_frame(encode_frame(&f)), Ok(f.clone()), "{:?}", f);
        }
    });
}

/// The encode-once delivery helpers produce bytes identical to a full
/// `encode_frame`, for any payload: prepending the edge header to a
/// cached encoding is not a second wire format.
#[test]
fn edge_helpers_match_frame_encoding() {
    check("edge_helpers_match_frame_encoding", 64, |rng| {
        let pub_seq = any_u64(rng);
        let seq = rng.gen_range(1..10_000u64);
        let snapshot = arb_bytes(rng, 256);
        let inner = data(seq);
        let cached = encode_frame(&inner);
        let event = match inner {
            Frame::Data(e) => e,
            _ => unreachable!(),
        };
        let expect = encode_frame(&Frame::EdgeEvent { pub_seq, event });
        assert_eq!(encode_edge_event(pub_seq, &cached), expect);

        let snap = bytes::Bytes::from(snapshot);
        let frame = Frame::Reseed { pub_seq, snapshot: snap.clone() };
        assert_eq!(encode_reseed(pub_seq, &snap), encode_frame(&frame));
        assert_eq!(decode_frame(encode_reseed(pub_seq, &snap)), Ok(frame));
    });
}

/// Truncating an edge frame at any byte boundary errors cleanly.
#[test]
fn truncated_edge_frames_never_decode() {
    check("truncated_edge_frames_never_decode", 64, |rng| {
        let pub_seq = any_u64(rng);
        let seq = rng.gen_range(1..10_000u64);
        let cut_frac = rng.gen_range(0.0..1.0);
        let event = match data(seq) {
            Frame::Data(e) => e,
            _ => unreachable!(),
        };
        let bytes = encode_frame(&Frame::EdgeEvent { pub_seq, event });
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        assert!(decode_frame(bytes.slice(..cut)).is_err(), "cut at {}", cut);
    });
}

/// A valid frame stream split at arbitrary byte boundaries (TCP gives
/// no message framing) reassembles into exactly the sent frames, in
/// order, with a clean EOF at the end.
#[test]
fn tcp_reassembles_arbitrarily_chunked_streams() {
    check("tcp_reassembles_arbitrarily_chunked_streams", 24, |rng| {
        let seqs = rng.gen_vec(1..8, |r| r.gen_range(1..10_000u64));
        let chunk = rng.gen_range(1..9usize);
        let frames: Vec<Frame> = seqs.iter().map(|&s| data(s)).collect();
        let mut bytes = Vec::new();
        for f in &frames {
            let b = encode_frame(f);
            bytes.extend_from_slice(&(b.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&b);
        }
        let got = with_raw_writer(bytes, chunk, |mut t| {
            let mut got = Vec::new();
            while let Ok(Some(f)) = t.recv() {
                got.push(f);
            }
            got
        });
        assert_eq!(got, frames);
    });
}

/// A well-framed payload of garbage must come back as an error (or,
/// for streams that happen to decode, a frame) — never a panic, and
/// never a "valid" frame when the version byte is wrong.
#[test]
fn tcp_read_path_survives_garbage_payloads() {
    check("tcp_read_path_survives_garbage_payloads", 24, |rng| {
        let payload = arb_bytes(rng, 256);
        let chunk = rng.gen_range(1..9usize);
        let bad_version = payload.first().is_some_and(|&v| v != WIRE_VERSION);
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        let res = with_raw_writer(bytes, chunk, |mut t| t.recv());
        if bad_version || payload.len() < 2 {
            assert!(res.is_err(), "garbage decoded as a frame: {res:?}");
        }
    });
}

/// A length prefix beyond `MAX_FRAME` is rejected before any
/// allocation, whatever follows it.
#[test]
fn tcp_read_path_rejects_oversized_length_prefix() {
    check("tcp_read_path_rejects_oversized_length_prefix", 24, |rng| {
        let extra = rng.gen_range(1..1_000_000u32);
        let mut bytes = (MAX_FRAME.saturating_add(extra)).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        let res = with_raw_writer(bytes, 16, |mut t| t.recv());
        assert!(res.is_err(), "oversized frame must be refused: {res:?}");
    });
}

fn faulty_dialer(
    mut dialer: InProcDialer,
    state: Arc<Mutex<FaultState>>,
) -> impl FnMut() -> io::Result<Box<dyn Transport>> {
    move || {
        let raw = dialer.dial()?;
        Ok(Box::new(FaultyTransport::with_state(raw, Arc::clone(&state))) as Box<dyn Transport>)
    }
}

fn acceptor(mut listener: InProcListener) -> impl FnMut() -> io::Result<Box<dyn Transport>> {
    move || listener.accept(Duration::from_millis(5)).map(|t| Box::new(t) as Box<dyn Transport>)
}

/// An arbitrary per-flight view, covering the full field space the
/// snapshot codec must carry (including the `None`-position case and the
/// non-hashed `updates` odometer).
fn arb_flight_view(rng: &mut Rng) -> FlightView {
    let mut v = FlightView::new();
    v.status = FlightStatus::ALL[rng.gen_range(0..FlightStatus::ALL.len())];
    // Finite coordinates: the codec is bit-exact for any f64, but a NaN
    // position would defeat the equality check (NaN != NaN).
    let fix = PositionFix {
        lat: rng.gen_range(-90.0..90.0),
        lon: rng.gen_range(-180.0..180.0),
        alt_ft: rng.gen_range(-1000.0..60_000.0),
        speed_kts: rng.gen_range(0.0..1200.0),
        heading_deg: rng.gen_range(0.0..360.0),
    };
    v.position = rng.gen_bool().then_some(fix);
    v.position_seq = any_u64(rng);
    v.boarded = any_u32(rng);
    v.expected = any_u32(rng);
    v.bags_loaded = any_u32(rng);
    v.bags_reconciled = any_u32(rng);
    v.updates = any_u64(rng);
    v
}

/// The snapshot wire codec roundtrips arbitrary operational states:
/// encode → decode reproduces the snapshot exactly — same `as_of`
/// frontier, and a restored store with an identical `state_hash`.
#[test]
fn snapshot_codec_roundtrips_arbitrary_states() {
    check("snapshot_codec_roundtrips_arbitrary_states", 64, |rng| {
        let entries = rng.gen_vec(0..40, |r| (any_u32(r), arb_flight_view(r)));
        let stamp = rng.gen_vec(0..6, any_u64);
        let flights: mirror_ede::FlightMap = entries.into_iter().collect();
        let as_of = VectorTimestamp::from_components(stamp);
        let snap = Snapshot::from_parts(flights, as_of);
        let decoded = decode_snapshot(encode_snapshot(&snap)).expect("roundtrip decode");
        assert_eq!(&decoded.as_of, &snap.as_of);
        assert_eq!(decoded.restore().state_hash(), snap.restore().state_hash());
        assert_eq!(decoded, snap);
    });
}

/// Arbitrary byte soup never panics the snapshot decoder.
#[test]
fn decode_snapshot_never_panics() {
    check("decode_snapshot_never_panics", 64, |rng| {
        let bytes = arb_bytes(rng, 512);
        let _ = decode_snapshot(bytes::Bytes::from(bytes));
    });
}

/// Whatever the fault schedule — drops, duplicates, reorders, inbound
/// corruption, periodic forced disconnects — a resilient link delivers
/// the application's frames exactly once, in order, and never
/// surfaces a corrupted frame (corruption is detected and handled as
/// link failure below the application).
#[test]
fn resilient_link_is_exactly_once_in_order_under_arbitrary_faults() {
    check("resilient_link_is_exactly_once_in_order_under_arbitrary_faults", 12, |rng| {
        let seed = rng.next_u64();
        let drops = rng.gen_range(0..=350u32);
        let dups = rng.gen_range(0..=300u32);
        let reorders = rng.gen_range(0..=200u32);
        let corrupts = rng.gen_range(0..=150u32);
        // Half the schedules never force a disconnect.
        let disconnect = if rng.gen_bool() { rng.gen_range(3..20u64) } else { 0 };
        const N: u64 = 40;
        let plan = FaultPlan::new(seed)
            .drops(drops)
            .dups(dups)
            .reorders(reorders)
            .corrupts(corrupts)
            .disconnect_every(disconnect);
        let (dialer, listener) = inproc_rendezvous("prop.link");
        let state = plan.state();
        let mut tx = ResilientTransport::new(
            faulty_dialer(dialer, Arc::clone(&state)),
            RetryPolicy::fast(1_000_000),
            "prop.tx",
        );
        let mut rx =
            ResilientTransport::new(acceptor(listener), RetryPolicy::fast(1_000_000), "prop.rx");

        let mut got = Vec::new();
        let mut sent = 0u64;
        let deadline = Instant::now() + Duration::from_secs(20);
        while got.len() < N as usize && Instant::now() < deadline {
            if sent < N {
                sent += 1;
                tx.send(&data(sent)).expect("send must absorb link faults");
            } else {
                tx.tick(Duration::from_millis(1));
            }
            while let Ok(Polled::Frame(f)) = rx.recv_timeout(Duration::from_millis(1)) {
                got.push(f);
            }
        }

        let summary = state.lock().unwrap().summary();
        assert_eq!(got.len() as u64, N, "lost or duplicated frames under {:?}", summary);
        for (i, f) in got.iter().enumerate() {
            assert_eq!(f, &data(i as u64 + 1), "order violated at {} under {:?}", i, summary);
        }
    });
}
