//! Property-based tests on the core invariants, spanning crates.
#![allow(clippy::field_reassign_with_default)]

use adaptable_mirroring::core::event::{Event, EventBody, EventType, FlightStatus, PositionFix};
use adaptable_mirroring::core::mirrorfn::{CoalescingMirror, MirrorFn};
use adaptable_mirroring::core::params::MirrorParams;
use adaptable_mirroring::core::queue::BackupQueue;
use adaptable_mirroring::core::rules::{Rule, RuleSet};
use adaptable_mirroring::core::status::StatusTable;
use adaptable_mirroring::core::timestamp::{StampOrdering, VectorTimestamp};
use adaptable_mirroring::echo::wire::{decode_frame, encode_frame, Frame};
use adaptable_mirroring::ede::{Ede, OperationalState, ShardedEde, Snapshot};
use adaptable_mirroring::workload::rng::{check, Rng};

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

fn arb_fix(rng: &mut Rng) -> PositionFix {
    PositionFix {
        lat: rng.gen_range(-90.0..90.0),
        lon: rng.gen_range(-180.0..180.0),
        alt_ft: rng.gen_range(0.0..45_000.0),
        speed_kts: rng.gen_range(0.0..600.0),
        heading_deg: rng.gen_range(0.0..360.0),
    }
}

fn arb_status(rng: &mut Rng) -> FlightStatus {
    FlightStatus::ALL[rng.gen_range(0..FlightStatus::ALL.len())]
}

fn arb_boarding(rng: &mut Rng, max: u32) -> EventBody {
    let (b, e) = (rng.gen_range(0..max), rng.gen_range(1..max));
    EventBody::Boarding { boarded: b.min(e), expected: e }
}

fn arb_body(rng: &mut Rng) -> EventBody {
    match rng.gen_range(0..7u32) {
        0 => EventBody::Position(arb_fix(rng)),
        1 => EventBody::Status(arb_status(rng)),
        2 => arb_boarding(rng, 500),
        3 => {
            let (l, r) = (rng.gen_range(0..300u32), rng.gen_range(0..300u32));
            EventBody::Baggage { loaded: l, reconciled: r.min(l) }
        }
        4 => EventBody::Derived { status: arb_status(rng), collapsed: rng.gen_range(1..10) },
        5 => EventBody::Coalesced { last: arb_fix(rng), count: rng.gen_range(1..100) },
        _ => EventBody::Opaque(rng.gen_vec(0..64, |r| r.gen_range(0..=u8::MAX)).into()),
    }
}

fn arb_event(rng: &mut Rng) -> Event {
    Event {
        stream: rng.gen_range(0..4),
        seq: rng.gen_range(1..1_000_000),
        flight: rng.gen_range(0..500),
        body: arb_body(rng),
        stamp: VectorTimestamp::from_components(
            rng.gen_vec(0..4, |r| r.gen_range(0..1_000_000u64)),
        ),
        padding: rng.gen_range(0..4096),
        ingress_us: rng.gen_range(0..10_000_000),
    }
}

fn arb_stamp(rng: &mut Rng) -> VectorTimestamp {
    VectorTimestamp::from_components(rng.gen_vec(0..5, |r| r.gen_range(0..1000u64)))
}

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

#[test]
fn wire_roundtrip_any_event() {
    check("wire_roundtrip_any_event", 256, |rng| {
        let ev = arb_event(rng);
        let bytes = encode_frame(&Frame::Data(std::sync::Arc::new(ev.clone())));
        assert_eq!(bytes.len(), 2 + ev.wire_size(), "frame = version+kind+exact wire size");
        let back = decode_frame(bytes).unwrap();
        assert_eq!(back, Frame::Data(std::sync::Arc::new(ev)));
    });
}

#[test]
fn wire_decode_never_panics_on_corruption() {
    check("wire_decode_never_panics_on_corruption", 256, |rng| {
        let ev = arb_event(rng);
        let (cut, flip) = (rng.gen_range(0..64usize), rng.gen_range(0..64usize));
        let bytes = encode_frame(&Frame::Data(std::sync::Arc::new(ev)));
        // Truncation never panics.
        let cut = cut.min(bytes.len());
        let _ = decode_frame(bytes.slice(..cut));
        // Bit flips never panic.
        let mut v = bytes.to_vec();
        if !v.is_empty() {
            let i = flip % v.len();
            v[i] ^= 0xFF;
            let _ = decode_frame(bytes::Bytes::from(v));
        }
    });
}

// ---------------------------------------------------------------------
// Vector timestamps: lattice laws
// ---------------------------------------------------------------------

#[test]
fn stamp_join_meet_laws() {
    check("stamp_join_meet_laws", 256, |rng| {
        let (a, b, c) = (arb_stamp(rng), arb_stamp(rng), arb_stamp(rng));
        // Commutativity.
        assert_eq!(a.join(&b).compare(&b.join(&a)), StampOrdering::Equal);
        assert_eq!(a.meet(&b).compare(&b.meet(&a)), StampOrdering::Equal);
        // Associativity of join.
        assert_eq!(a.join(&b).join(&c).compare(&a.join(&b.join(&c))), StampOrdering::Equal);
        // Bounds: meet ≤ a ≤ join.
        assert!(a.meet(&b).dominated_by(&a));
        assert!(a.dominated_by(&a.join(&b)));
        // Absorption: a ∧ (a ∨ b) = a.
        assert_eq!(a.meet(&a.join(&b)).compare(&a), StampOrdering::Equal);
        // Idempotence.
        assert_eq!(a.join(&a).compare(&a), StampOrdering::Equal);
    });
}

#[test]
fn stamp_compare_is_antisymmetric() {
    check("stamp_compare_is_antisymmetric", 256, |rng| {
        let (a, b) = (arb_stamp(rng), arb_stamp(rng));
        match a.compare(&b) {
            StampOrdering::Before => assert_eq!(b.compare(&a), StampOrdering::After),
            StampOrdering::After => assert_eq!(b.compare(&a), StampOrdering::Before),
            StampOrdering::Equal => assert_eq!(b.compare(&a), StampOrdering::Equal),
            StampOrdering::Concurrent => {
                assert_eq!(b.compare(&a), StampOrdering::Concurrent)
            }
        }
    });
}

// ---------------------------------------------------------------------
// Backup queue / checkpoint pruning
// ---------------------------------------------------------------------

#[test]
fn backup_prune_only_removes_dominated() {
    check("backup_prune_only_removes_dominated", 256, |rng| {
        let seqs = rng.gen_vec(1..60, |r| (r.gen_range(0..3u16), r.gen_range(1..100u64)));
        let commit = arb_stamp(rng);
        let mut q = BackupQueue::new();
        let mut clock = VectorTimestamp::empty();
        for (stream, seq) in seqs {
            let mut e = Event::new(stream, seq, 1, EventBody::Status(FlightStatus::EnRoute));
            clock.advance(stream as usize, seq);
            e.stamp = clock.clone();
            q.push(e);
        }
        let before: Vec<VectorTimestamp> = q.iter().map(|e| e.stamp.clone()).collect();
        q.prune(&commit);
        let after: Vec<VectorTimestamp> = q.iter().map(|e| e.stamp.clone()).collect();
        // Everything surviving is NOT dominated by the commit…
        for s in &after {
            assert!(!s.dominated_by(&commit));
        }
        // …and everything removed WAS dominated.
        for s in &before {
            if !after.contains(s) {
                assert!(s.dominated_by(&commit));
            }
        }
    });
}

// ---------------------------------------------------------------------
// Overwrite rule counting
// ---------------------------------------------------------------------

#[test]
fn overwrite_keeps_one_in_max_len() {
    check("overwrite_keeps_one_in_max_len", 256, |rng| {
        let (n, max_len) = (rng.gen_range(1..300u64), rng.gen_range(2..20u32));
        let mut rs = RuleSet::new().with(Rule::Overwrite { ty: EventType::FaaPosition, max_len });
        let mut table = StatusTable::new();
        let mut mirrored = 0u64;
        for seq in 1..=n {
            let e = Event::faa_position(
                seq,
                1,
                PositionFix { lat: 0.0, lon: 0.0, alt_ft: 0.0, speed_kts: 0.0, heading_deg: 0.0 },
            );
            table.observe(&e);
            if rs.evaluate(&e, &mut table).mirror {
                mirrored += 1;
            }
        }
        // Exactly ⌈n / max_len⌉ survive: the first of each run.
        assert_eq!(mirrored, n.div_ceil(max_len as u64));
    });
}

// ---------------------------------------------------------------------
// EDE determinism and snapshot/replay equivalence
// ---------------------------------------------------------------------

fn arb_ops_events(rng: &mut Rng) -> Vec<Event> {
    let pairs = rng.gen_vec(1..120, |r| {
        let flight = r.gen_range(0..8u32);
        let body = match r.gen_range(0..3u32) {
            0 => EventBody::Position(arb_fix(r)),
            1 => EventBody::Status(arb_status(r)),
            _ => arb_boarding(r, 200),
        };
        (flight, body)
    });
    pairs
        .into_iter()
        .enumerate()
        .map(|(i, (flight, body))| {
            let mut e = Event::new(0, i as u64 + 1, flight, body);
            e.stamp.advance(0, i as u64 + 1);
            e
        })
        .collect()
}

#[test]
fn ede_is_deterministic() {
    check("ede_is_deterministic", 256, |rng| {
        let events = arb_ops_events(rng);
        let mut a = Ede::new();
        let mut b = Ede::new();
        for e in &events {
            assert_eq!(a.process(e), b.process(e));
        }
        assert_eq!(a.state_hash(), b.state_hash());
    });
}

#[test]
fn snapshot_then_replay_converges() {
    check("snapshot_then_replay_converges", 256, |rng| {
        let events = arb_ops_events(rng);
        let split = rng.gen_range(0..120usize);
        let split = split.min(events.len());
        // Server processes everything.
        let mut server = OperationalState::new();
        for e in &events {
            server.apply(e);
        }
        // Client snapshots at `split`, then replays the tail.
        let mut at_split = OperationalState::new();
        for e in &events[..split] {
            at_split.apply(e);
        }
        let snap = Snapshot::capture(&at_split, VectorTimestamp::empty());
        let mut client = snap.restore();
        for e in &events[split..] {
            client.apply(e);
        }
        assert_eq!(client.state_hash(), server.state_hash());
    });
}

// ---------------------------------------------------------------------
// Site store equivalence
//
// A site's store is one engine behind one lock, so it must emit what the
// reference engine emits for the same stream. Because all EDE state is
// per-flight, any order that preserves each flight's sub-sequence also
// reaches the same operational state.
// ---------------------------------------------------------------------

#[test]
fn store_apply_matches_reference_hash() {
    check("store_apply_matches_reference_hash", 256, |rng| {
        let events = arb_ops_events(rng);
        let picks = rng.gen_vec(0..240, |r| r.gen_range(0..64usize));
        // Serial reference.
        let mut reference = Ede::new();
        for e in &events {
            reference.process(e);
        }
        let expected = reference.state_hash();

        // Same stream through the store, original order.
        let in_order = ShardedEde::new(1);
        for e in &events {
            in_order.process(e, |_| {}, |_| {});
        }
        assert_eq!(in_order.state_hash(), expected, "in-order apply diverged");
        assert_eq!(in_order.applied(), events.len() as u64);

        // An arbitrary per-flight-order-preserving interleaving: partition
        // the stream into per-flight queues, then drain them in the
        // generated pick order, each flight's events staying FIFO.
        let mut queues: std::collections::BTreeMap<u32, std::collections::VecDeque<&Event>> =
            std::collections::BTreeMap::new();
        for e in &events {
            queues.entry(e.flight).or_default().push_back(e);
        }
        let interleaved = ShardedEde::new(1);
        let mut picks = picks.into_iter().cycle();
        while !queues.is_empty() {
            let keys: Vec<u32> = queues.keys().copied().collect();
            let k = keys[picks.next().unwrap_or(0) % keys.len()];
            let q = queues.get_mut(&k).unwrap();
            let e = q.pop_front().unwrap();
            if q.is_empty() {
                queues.remove(&k);
            }
            interleaved.process(e, |_| {}, |_| {});
        }
        assert_eq!(
            interleaved.state_hash(),
            expected,
            "per-flight-preserving interleaving diverged"
        );
    });
}

#[test]
fn store_updates_match_reference_engine() {
    check("store_updates_match_reference_engine", 256, |rng| {
        let events = arb_ops_events(rng);
        let mut reference = Ede::new();
        let want: Vec<Event> =
            events.iter().flat_map(|e| reference.process(e).client_updates).collect();
        // The site store, fed the same stream: the updates it publishes,
        // in order, derived-event numbers included (its argument is unused,
        // so 8 shards and 1 build the same store).
        let store = ShardedEde::new(8);
        let mut got = Vec::new();
        for e in &events {
            store.process(e, |u| got.push(u.clone()), |_| {});
        }
        assert_eq!(got, want);
    });
}

// ---------------------------------------------------------------------
// Coalescing conservation
// ---------------------------------------------------------------------

#[test]
fn coalescing_conserves_events_and_last_fix() {
    check("coalescing_conserves_events_and_last_fix", 256, |rng| {
        let flights = rng.gen_vec(1..100, |r| r.gen_range(0..5u32));
        let cap = rng.gen_range(2..12u32);
        let mut m = CoalescingMirror::new();
        let mut params = MirrorParams::default();
        params.coalesce = true;
        params.coalesce_max = cap;

        let mut last_fix_per_flight = std::collections::HashMap::new();
        let mut out = Vec::new();
        for (i, &flight) in flights.iter().enumerate() {
            let fix = PositionFix {
                lat: i as f64,
                lon: 0.0,
                alt_ft: 0.0,
                speed_kts: 0.0,
                heading_deg: 0.0,
            };
            last_fix_per_flight.insert(flight, fix);
            let mut e = Event::faa_position(i as u64 + 1, flight, fix);
            e.stamp.advance(0, i as u64 + 1);
            let mut run = vec![std::sync::Arc::new(e)];
            m.prepare(&mut run, &params);
            out.append(&mut run);
        }
        m.flush(&mut out, &params);

        // Conservation: the counts of coalesced events sum to the input.
        let total: u64 = out
            .iter()
            .map(|e| match &e.body {
                EventBody::Coalesced { count, .. } => *count as u64,
                _ => 1,
            })
            .sum();
        assert_eq!(total, flights.len() as u64);

        // No run exceeds the cap.
        for e in &out {
            if let EventBody::Coalesced { count, .. } = &e.body {
                assert!(*count <= cap);
            }
        }

        // The last coalesced event per flight carries that flight's last fix.
        for (&flight, &fix) in &last_fix_per_flight {
            let last = out.iter().rev().find(|e| e.flight == flight).unwrap();
            if let EventBody::Coalesced { last: got, .. } = &last.body {
                assert_eq!(got.lat, fix.lat);
            }
        }
    });
}

// ---------------------------------------------------------------------
// Delta state-transfer: base + delta ≡ full restore (PR 10)
//
// The claim every StateSync consumer relies on: holding the state of a
// marked base capture and folding in a delta captured against that base
// reaches exactly the state a fresh full snapshot would install — for
// any divergence, including migration purges (tombstones travel).
// ---------------------------------------------------------------------

#[test]
fn delta_catchup_matches_full_restore() {
    check("delta_catchup_matches_full_restore", 256, |rng| {
        let events = arb_ops_events(rng);
        let split = rng.gen_range(0..120usize);
        let purges = rng.gen_vec(0..4, |r| r.gen_range(0..8u32));
        let split = split.min(events.len());
        // Producer applies the prefix, then marks the consumer's base —
        // what a seed capture does on the live site.
        let mut server = OperationalState::new();
        for e in &events[..split] {
            server.apply(e);
        }
        let mut base_frontier = VectorTimestamp::empty();
        base_frontier.advance(0, split as u64);
        server.mark_frontier(&base_frontier);
        let base_snap = Snapshot::capture(&server, base_frontier.clone());

        // Divergence: the tail of the stream plus migration purges.
        for e in &events[split..] {
            server.apply(e);
        }
        for &f in &purges {
            server.retain_flights(|id| id != f);
        }

        let mut as_of = VectorTimestamp::empty();
        as_of.advance(0, events.len() as u64 + 1);
        let delta = server
            .capture_delta(&base_frontier, as_of)
            .expect("a just-marked base is inside the delta window");

        // Catch-up: restore the base, fold the delta.
        let mut caught_up = base_snap.restore();
        caught_up.apply_delta(&delta);
        assert_eq!(
            caught_up.state_hash(),
            server.state_hash(),
            "base+delta must hash identically to the producer"
        );
        // …and to what a full fresh snapshot would have installed.
        let full = Snapshot::capture(&server, VectorTimestamp::empty()).restore();
        assert_eq!(caught_up.state_hash(), full.state_hash());

        // Tombstones really travel: a purged flight is absent on the
        // consumer exactly when it is absent on the producer.
        for &f in &purges {
            assert_eq!(
                caught_up.flight(f).is_none(),
                server.flight(f).is_none(),
                "purge of flight {} must replicate",
                f
            );
        }

        // The delta survives the wire byte-exactly (what the WAN tier
        // actually ships).
        let bytes = adaptable_mirroring::echo::wire::encode_delta(&delta);
        let back = adaptable_mirroring::echo::wire::decode_delta(bytes).unwrap();
        assert_eq!(back, delta);
    });
}

// ---------------------------------------------------------------------
// Content partitioning: per-group apply ≡ unpartitioned apply
// ---------------------------------------------------------------------

use adaptable_mirroring::core::{PartitionMap, PARTITION_SLOTS};
use adaptable_mirroring::ede::union_state_hash;

/// An arbitrary slot→group table over up to `groups` groups (epoch 1, the
/// first post-uniform era).
fn arb_partition_map(rng: &mut Rng, groups: u16) -> PartitionMap {
    let slots = (0..PARTITION_SLOTS).map(|_| rng.gen_range(0..groups)).collect();
    PartitionMap::from_parts(1, slots)
}

/// The equivalence claim the partition-scale experiment relies on:
/// routing an interleaved stream per-group and applying each group's
/// share independently yields per-partition states whose union hash
/// equals the state hash of one site applying the whole stream. Holds
/// for ANY map because routing is per-flight: each flight's event
/// subsequence lands at exactly one group, in order.
#[test]
fn partitioned_apply_union_equals_unpartitioned() {
    check("partitioned_apply_union_equals_unpartitioned", 256, |rng| {
        let groups = rng.gen_range(1..5);
        let map = arb_partition_map(rng, groups);
        let events = rng.gen_vec(1..200, arb_event);
        let mut whole = OperationalState::new();
        let mut parts: Vec<OperationalState> =
            (0..map.groups()).map(|_| OperationalState::new()).collect();
        for ev in &events {
            whole.apply(ev);
            parts[map.group_of(ev.flight) as usize].apply(ev);
        }
        assert_eq!(union_state_hash(parts.iter()), whole.state_hash());
        // The groups' flight sets partition the unpartitioned set: disjoint
        // (no flight counted twice) and covering (none lost).
        let total: usize = parts.iter().map(|p| p.flight_count()).sum();
        assert_eq!(total, whole.flight_count());
    });
}

/// Epoch fencing is monotone under arbitrary delivery orders: after any
/// interleaving of adoptions, the surviving map is the one with the
/// highest epoch seen, and re-deliveries are no-ops.
#[test]
fn partition_adoption_is_monotone() {
    check("partition_adoption_is_monotone", 256, |rng| {
        let epochs = rng.gen_vec(1..40, |r| r.gen_range(1..50u64));
        let mut current: Option<PartitionMap> = None;
        let mut highest = 0u64;
        for (i, &e) in epochs.iter().enumerate() {
            // Tag each map's slot table with its position so we can tell
            // which delivery won.
            let incoming =
                PartitionMap::from_parts(e, vec![(i % u16::MAX as usize) as u16; PARTITION_SLOTS]);
            let adopted = PartitionMap::adopt(&mut current, &incoming);
            assert_eq!(adopted, e > highest, "adopt iff strictly newer");
            highest = highest.max(e);
            assert_eq!(current.as_ref().unwrap().epoch(), highest);
        }
    });
}
