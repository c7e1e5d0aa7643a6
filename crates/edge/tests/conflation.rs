//! Conflation-equivalence property: a slow subscriber receiving the
//! conflated stream converges to the same per-flight state as a healthy
//! subscriber receiving every published event.
//!
//! The pipeline mirrors production: random raw events run through a real
//! EDE (only state-changing updates are published — exactly what a
//! mirror's applied-updates channel emits), the published stream fans
//! through a real [`EdgeServer`] to a client that never polls until the
//! end (maximal conflation), and both final states are compared with
//! [`views_equivalent`].

use std::sync::Arc;

use mirror_core::event::{streams, Event, EventBody, FlightId, FlightStatus, PositionFix};
use mirror_core::timestamp::VectorTimestamp;
use mirror_echo::SubscriptionFilter;
use mirror_ede::{Ede, OperationalState, Snapshot};
use mirror_edge::{views_equivalent, Delivery, EdgeConfig, EdgeServer};
use mirror_workload::rng::{check, Rng};

#[derive(Debug, Clone)]
enum RawKind {
    Pos(f64),
    Status(usize),
    /// Increment to the cumulative boarded count, plus an absolute
    /// manifest size. Gate-reader counts only grow, and readers always
    /// know the manifest size (`expected > 0`): the published payloads
    /// being *absolute and monotone per flight* is the precondition the
    /// conflation-equivalence theorem rests on (see the edge docs).
    Boarding {
        add_boarded: u32,
        expected: u32,
    },
    /// Increments to the cumulative loaded/reconciled bag counters.
    Baggage {
        add_loaded: u32,
        add_reconciled: u32,
    },
}

fn arb_kind(rng: &mut Rng) -> RawKind {
    match rng.gen_range(0..4u32) {
        0 => RawKind::Pos(rng.gen_range(-80.0..80.0)),
        1 => RawKind::Status(rng.gen_range(0..FlightStatus::ALL.len())),
        2 => RawKind::Boarding {
            add_boarded: rng.gen_range(0..=20),
            expected: rng.gen_range(1..=150),
        },
        _ => RawKind::Baggage {
            add_loaded: rng.gen_range(0..=15),
            add_reconciled: rng.gen_range(0..=15),
        },
    }
}

/// Per-flight cumulative telemetry counters, advanced as events build.
#[derive(Default, Clone, Copy)]
struct Counters {
    boarded: u32,
    loaded: u32,
    reconciled: u32,
}

fn build_event(i: usize, flight: FlightId, kind: &RawKind, ctr: &mut Counters) -> Event {
    let seq = (i + 1) as u64;
    match kind {
        RawKind::Pos(lat) => Event::faa_position(
            seq,
            flight,
            PositionFix {
                lat: *lat,
                lon: 5.0,
                alt_ft: 31000.0,
                speed_kts: 450.0,
                heading_deg: 80.0,
            },
        ),
        RawKind::Status(idx) => Event::delta_status(seq, flight, FlightStatus::ALL[*idx]),
        RawKind::Boarding { add_boarded, expected } => {
            ctr.boarded += add_boarded;
            Event::new(
                streams::DELTA,
                seq,
                flight,
                EventBody::Boarding { boarded: ctr.boarded, expected: *expected },
            )
        }
        RawKind::Baggage { add_loaded, add_reconciled } => {
            ctr.loaded += add_loaded;
            ctr.reconciled = (ctr.reconciled + add_reconciled).min(ctr.loaded);
            Event::new(
                streams::DELTA,
                seq,
                flight,
                EventBody::Baggage { loaded: ctr.loaded, reconciled: ctr.reconciled },
            )
        }
    }
}

fn empty_snapshot_provider() -> Box<dyn mirror_edge::StateProvider> {
    Box::new(mirror_edge::SnapshotFn(|| {
        let state = OperationalState::new();
        let snap = Snapshot::capture(&state, VectorTimestamp::empty());
        (mirror_echo::wire::encode_snapshot(&snap), VectorTimestamp::empty())
    }))
}

/// For any event stream, the conflated view equals the full view.
#[test]
fn conflated_stream_converges_to_full_stream_state() {
    check("conflated_stream_converges_to_full_stream_state", 48, |rng| {
        let raw = rng.gen_vec(1..120, |r| (r.gen_range(0..5u32), arb_kind(r)));
        // The mirror: only state-changing events reach the edge.
        let mut mirror = Ede::new();
        let mut published: Vec<Event> = Vec::new();
        let mut counters = std::collections::HashMap::<FlightId, Counters>::new();
        for (i, (flight, kind)) in raw.iter().enumerate() {
            let ctr = counters.entry(*flight).or_default();
            let event = build_event(i, *flight, kind, ctr);
            published.extend(mirror.process(&event).client_updates);
        }

        // Healthy subscriber: applies every published event.
        let mut full = OperationalState::new();
        for e in &published {
            full.apply(e);
        }

        // Slow subscriber: a real edge with a tiny healthy queue, never
        // polled until the very end, so almost everything conflates.
        let cfg = EdgeConfig { queue_cap: 4, max_pending: 4096, window: 8192 };
        let edge = EdgeServer::start(cfg.clone(), empty_snapshot_provider());
        let client = edge.subscribe(1, SubscriptionFilter::All);
        for e in &published {
            edge.publish(Arc::new(e.clone()));
        }

        let mut conflated = OperationalState::new();
        let mut event_deliveries = 0usize;
        loop {
            match client.poll() {
                Ok(Some(Delivery::Event(e))) => {
                    conflated.apply(e.event());
                    event_deliveries += 1;
                }
                Ok(Some(Delivery::Reseed { pub_seq, .. })) => {
                    // Initial attach only: empty snapshot at floor 0.
                    assert_eq!(pub_seq, 0);
                }
                Ok(Some(d @ Delivery::DeltaReseed { .. })) => {
                    panic!("fresh subscribe must not receive a delta reseed: {d:?}")
                }
                Ok(None) => break,
                Err(e) => panic!("disconnected: {e}"),
            }
        }
        let stats = edge.counters().snapshot();
        edge.stop();

        // Accounting: every published event was either delivered or
        // overwritten by newer same-key state — never silently dropped.
        assert_eq!(event_deliveries + stats.conflated as usize, published.len());

        // Bounded memory, even with polling withheld.
        let (queue_high, pending_high) = client.high_watermarks();
        assert!(queue_high <= cfg.queue_cap);
        assert!(pending_high <= cfg.max_pending);

        // The equivalence itself: identical per-flight state.
        assert_eq!(conflated.flights().len(), full.flights().len());
        for (id, view) in full.flights().iter() {
            let conf_view = conflated
                .flight(*id)
                .unwrap_or_else(|| panic!("flight {id} missing from conflated state"));
            assert!(
                views_equivalent(view, conf_view),
                "flight {} diverged:\n full: {:?}\n conf: {:?}",
                id,
                view,
                conf_view
            );
        }
    });
}
