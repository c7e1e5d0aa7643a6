//! Decoder fuzz: damaged encodings decode or fail with a typed error.
//!
//! Every case encodes a well-formed frame (every kind, the edge frames
//! included), snapshot or delta, and damages a copy three ways: flipped
//! bits, truncation, and an inflated count or length field (a large `u32`
//! or `u16` written over each of the leading bytes in turn, which covers
//! every header field that sizes what follows). Each damaged copy is
//! decoded. The decoder may accept the damage (a flipped payload bit is
//! still a frame) or refuse it with a `WireError`. It must never panic,
//! and it must never size an allocation from a wire field it has not
//! checked against the bytes it holds: that aborts the process, which no
//! test runner can catch.

use std::sync::Arc;

use bytes::Bytes;
use mirror_core::adapt::MonitorReport;
use mirror_core::control::AdaptDirective;
use mirror_core::event::{Event, EventBody, FlightStatus, PositionFix};
use mirror_core::mirrorfn::MirrorFnKind;
use mirror_core::params::MirrorParams;
use mirror_core::partition::PartitionMap;
use mirror_core::timestamp::VectorTimestamp;
use mirror_core::ControlMsg;
use mirror_echo::wire::{
    decode_delta, decode_frame, decode_snapshot, encode_delta, encode_event, encode_frame,
    encode_snapshot, Frame, SubscriptionFilter,
};
use mirror_ede::{FlightMap, FlightView, Snapshot, StateDelta};
use mirror_workload::rng::{check, Rng};

/// How many leading bytes the inflation pass overwrites, one offset at a
/// time. Every count and length field of the generated encodings sits
/// inside this prefix: stamps are at most 4 wide and removed lists at most
/// 4 long, so a delta's changed-count ends by byte 94.
const INFLATE_PREFIX: usize = 128;

/// Any `u64`, the extremes over-represented.
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

fn arb_stamp(rng: &mut Rng) -> VectorTimestamp {
    VectorTimestamp::from_components(rng.gen_vec(0..5, any_u64))
}

fn arb_status(rng: &mut Rng) -> FlightStatus {
    FlightStatus::ALL[rng.gen_range(0..FlightStatus::ALL.len())]
}

fn arb_fix(rng: &mut Rng) -> PositionFix {
    PositionFix {
        lat: rng.gen_range(-90.0..90.0),
        lon: rng.gen_range(-180.0..180.0),
        alt_ft: rng.gen_range(-1000.0..60_000.0),
        speed_kts: rng.gen_range(0.0..1200.0),
        heading_deg: rng.gen_range(0.0..360.0),
    }
}

fn arb_event(rng: &mut Rng) -> Arc<Event> {
    let body = match rng.gen_range(0..7u8) {
        0 => EventBody::Position(arb_fix(rng)),
        1 => EventBody::Status(arb_status(rng)),
        2 => EventBody::Boarding { boarded: any_u32(rng), expected: any_u32(rng) },
        3 => EventBody::Derived { status: arb_status(rng), collapsed: any_u32(rng) },
        4 => EventBody::Coalesced { last: arb_fix(rng), count: any_u32(rng) },
        5 => EventBody::Opaque(Bytes::from(rng.gen_vec(0..48, |r| r.gen_range(0..=u8::MAX)))),
        _ => EventBody::Baggage { loaded: any_u32(rng), reconciled: any_u32(rng) },
    };
    let mut e = Event::new(rng.gen_range(0..=u16::MAX), any_u64(rng), any_u32(rng), body)
        .with_ingress_us(any_u64(rng));
    e.stamp = arb_stamp(rng);
    e.padding = rng.gen_range(0..64u32);
    Arc::new(e)
}

fn arb_kind(rng: &mut Rng) -> Option<MirrorFnKind> {
    match rng.gen_range(0..6u8) {
        0 => None,
        1 => Some(MirrorFnKind::None),
        2 => Some(MirrorFnKind::Simple),
        3 => Some(MirrorFnKind::Selective { overwrite: any_u32(rng) }),
        4 => Some(MirrorFnKind::Coalescing {
            coalesce: any_u32(rng),
            checkpoint_every: any_u32(rng),
        }),
        _ => Some(MirrorFnKind::Overwriting {
            overwrite: any_u32(rng),
            checkpoint_every: any_u32(rng),
        }),
    }
}

fn arb_control(rng: &mut Rng) -> ControlMsg {
    let (round, term, epoch) = (any_u64(rng), any_u64(rng), any_u64(rng));
    let stamp = arb_stamp(rng);
    match rng.gen_range(0..3u8) {
        0 => ControlMsg::Chkpt { round, stamp, epoch, term },
        1 => ControlMsg::ChkptRep {
            round,
            site: rng.gen_range(0..=u16::MAX),
            stamp,
            monitor: MonitorReport {
                ready_len: any_u64(rng),
                backup_len: any_u64(rng),
                pending_requests: any_u64(rng),
            },
            term,
        },
        _ => {
            let adapt = rng.gen_bool().then(|| AdaptDirective {
                params: MirrorParams {
                    coalesce: rng.gen_bool(),
                    coalesce_max: any_u32(rng),
                    checkpoint_every: any_u32(rng),
                    overwrite_max: any_u32(rng),
                    generation: any_u64(rng),
                },
                mirror_fn: arb_kind(rng),
                partition: rng.gen_bool().then(|| {
                    let slots = rng.gen_vec(0..80, |r| r.gen_range(0..8u16));
                    PartitionMap::from_parts(any_u64(rng), slots)
                }),
            });
            ControlMsg::Commit { round, stamp, epoch, term, adapt }
        }
    }
}

fn arb_view(rng: &mut Rng) -> FlightView {
    let mut v = FlightView::new();
    v.status = arb_status(rng);
    v.position = rng.gen_bool().then(|| arb_fix(rng));
    v.position_seq = any_u64(rng);
    v.boarded = any_u32(rng);
    v.expected = any_u32(rng);
    v.bags_loaded = any_u32(rng);
    v.bags_reconciled = any_u32(rng);
    v.updates = any_u64(rng);
    v
}

fn arb_flights(rng: &mut Rng) -> FlightMap {
    rng.gen_vec(0..10, |r| (any_u32(r), arb_view(r))).into_iter().collect()
}

fn arb_snapshot(rng: &mut Rng) -> Snapshot {
    let flights = arb_flights(rng);
    Snapshot::from_parts(flights, arb_stamp(rng))
}

fn arb_delta(rng: &mut Rng) -> StateDelta {
    let changed = arb_flights(rng);
    let removed = rng.gen_vec(0..5, any_u32);
    let (base, as_of) = (arb_stamp(rng), arb_stamp(rng));
    StateDelta::from_parts(changed, removed, base, as_of)
}

/// A frame a batch may carry.
fn arb_member(rng: &mut Rng) -> Frame {
    if rng.gen_bool() {
        Frame::Data(arb_event(rng))
    } else {
        Frame::Control(arb_control(rng))
    }
}

/// A well-formed frame of any kind.
fn arb_frame(rng: &mut Rng) -> Frame {
    match rng.gen_range(0..11u8) {
        0 => Frame::Data(arb_event(rng)),
        1 => Frame::Control(arb_control(rng)),
        2 => {
            let inner = if rng.gen_bool() {
                arb_member(rng)
            } else {
                Frame::Batch(rng.gen_vec(0..6, arb_member))
            };
            Frame::Seq { seq: any_u64(rng), inner: Box::new(inner) }
        }
        3 => Frame::Ack { cum: any_u64(rng) },
        4 => Frame::Hello { next: any_u64(rng) },
        5 => Frame::Batch(rng.gen_vec(0..6, arb_member)),
        6 => {
            let filter = if rng.gen_bool() {
                SubscriptionFilter::All
            } else {
                SubscriptionFilter::Flights(rng.gen_vec(0..16, any_u32))
            };
            Frame::Subscribe { client: any_u64(rng), filter }
        }
        7 => Frame::Resume { client: any_u64(rng), last_seq: any_u64(rng) },
        8 => Frame::EdgeEvent { pub_seq: any_u64(rng), event: arb_event(rng) },
        9 => {
            let snapshot = encode_snapshot(&arb_snapshot(rng));
            Frame::Reseed { pub_seq: any_u64(rng), snapshot }
        }
        _ => Frame::DeltaSnapshot { pub_seq: any_u64(rng), delta: encode_delta(&arb_delta(rng)) },
    }
}

/// Decode a frame and, when it carries one, the snapshot or delta inside;
/// `true` if the frame decoded.
fn decode_frame_deep(bytes: Bytes) -> bool {
    match decode_frame(bytes) {
        Ok(Frame::Reseed { snapshot, .. }) => {
            let _ = decode_snapshot(snapshot);
            true
        }
        Ok(Frame::DeltaSnapshot { delta, .. }) => {
            let _ = decode_delta(delta);
            true
        }
        decoded => decoded.is_ok(),
    }
}

/// Damage `valid` every way this file fuzzes and run `decode` on each
/// copy. A valid encoding cut short must not decode: every format reads
/// to its last byte.
fn damage(rng: &mut Rng, valid: &[u8], decode: impl Fn(Bytes) -> bool) {
    let mut flipped = valid.to_vec();
    for _ in 0..rng.gen_range(1..=4u32) {
        let at = rng.gen_range(0..flipped.len());
        flipped[at] ^= 1 << rng.gen_range(0..8u32);
    }
    decode(Bytes::from(flipped));

    let cut = rng.gen_range(0..valid.len());
    assert!(!decode(Bytes::copy_from_slice(&valid[..cut])), "prefix {cut} decoded");

    let big = match rng.gen_range(0..3u8) {
        0 => u32::MAX,
        1 => 1 << 31,
        _ => rng.gen_range(valid.len() as u32..u32::MAX),
    };
    let wide = rng.gen_bool();
    let field: &[u8] = if wide { &big.to_le_bytes() } else { &big.to_le_bytes()[2..] };
    for at in 0..valid.len().min(INFLATE_PREFIX).saturating_sub(field.len() - 1) {
        let mut inflated = valid.to_vec();
        inflated[at..at + field.len()].copy_from_slice(field);
        decode(Bytes::from(inflated));
    }
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}

/// The encoders' bytes, pinned: one digest over 256 generated frames of
/// every kind, generated snapshots and deltas, and a 1 KiB padded position
/// event. Journals, peers and the benchmark's input digest all depend on
/// these bytes, so a codec rewrite must leave the digest unchanged.
#[test]
fn golden_wire_bytes() {
    let mut rng = Rng::seed_from_u64(0x601D_E2B1_7E5A_0001);
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut kinds = std::collections::HashSet::new();
    for _ in 0..256 {
        let frame = arb_frame(&mut rng);
        kinds.insert(std::mem::discriminant(&frame));
        h = fnv1a(h, &encode_frame(&frame));
    }
    assert_eq!(kinds.len(), 11, "every frame kind is covered");
    for _ in 0..32 {
        h = fnv1a(h, &encode_snapshot(&arb_snapshot(&mut rng)));
        h = fnv1a(h, &encode_delta(&arb_delta(&mut rng)));
    }
    let fix = PositionFix {
        lat: 33.6,
        lon: -84.4,
        alt_ft: 31000.0,
        speed_kts: 450.0,
        heading_deg: 271.5,
    };
    let mut event = Event::faa_position(7, 42, fix).with_ingress_us(99);
    event.stamp = VectorTimestamp::from_components(vec![3, 1, 4]);
    let event = event.with_total_size(1024);
    let mut buf = bytes::BytesMut::new();
    encode_event(&event, &mut buf);
    assert_eq!(buf.len(), 1024);
    h = fnv1a(h, &buf);
    assert_eq!(h, 0x0AC7_7186_CC08_9505, "wire bytes changed: digest {h:#018x}");
}

#[test]
fn damaged_frames_decode_or_fail_typed() {
    check("damaged_frames_decode_or_fail_typed", 256, |rng| {
        let frame = arb_frame(rng);
        let valid = encode_frame(&frame);
        assert_eq!(decode_frame(valid.clone()).as_ref(), Ok(&frame), "generator made a bad frame");
        damage(rng, &valid, decode_frame_deep);
    });
}

#[test]
fn damaged_snapshots_decode_or_fail_typed() {
    check("damaged_snapshots_decode_or_fail_typed", 256, |rng| {
        let snap = arb_snapshot(rng);
        let valid = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(valid.clone()).as_ref(), Ok(&snap));
        damage(rng, &valid, |b| decode_snapshot(b).is_ok());
    });
}

#[test]
fn damaged_deltas_decode_or_fail_typed() {
    check("damaged_deltas_decode_or_fail_typed", 256, |rng| {
        let delta = arb_delta(rng);
        let valid = encode_delta(&delta);
        assert_eq!(decode_delta(valid.clone()).as_ref(), Ok(&delta));
        damage(rng, &valid, |b| decode_delta(b).is_ok());
    });
}
