//! Cross-flight order of the applied-updates stream: every site's
//! `subscribe_updates()` delivers updates in the order their events were
//! submitted, across flights as well as within one. Each site's aux thread
//! applies its runs in order and publishes their updates itself, so no
//! two flights can swap on the way out (an order the monitor in
//! `tests/scenario_day.rs` relies on to judge connections). The stream
//! is also event for event what the reference engine emits, derived
//! events and their sequence numbers included.

use std::time::Duration;

use mirror_core::event::{Event, FlightStatus, PositionFix};
use mirror_core::mirrorfn::MirrorFnKind;
use mirror_echo::channel::Subscriber;
use mirror_ede::Ede;
use mirror_runtime::{Cluster, ClusterConfig};

const EVENTS: u64 = 20_000;
const FLIGHTS: u64 = 96;

/// Read `n` updates off `sub` and check `(stream, seq)` strictly increases.
fn assert_submission_order(site: &str, sub: &Subscriber<Event>, n: u64) {
    let mut last: Option<(u16, u64)> = None;
    for i in 0..n {
        let u = sub
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|| panic!("{site}: update {i} of {n} never arrived"));
        let key = (u.stream, u.seq);
        if let Some(prev) = last {
            assert!(
                key > prev,
                "{site}: update {i} (flight {}) is {key:?}, after {prev:?}",
                u.flight
            );
        }
        last = Some(key);
    }
    assert!(sub.try_recv().is_none(), "{site}: more updates than events");
}

#[test]
fn updates_arrive_in_submission_order_at_every_site() {
    let cluster = Cluster::start(ClusterConfig {
        mirrors: 2,
        kind: MirrorFnKind::Simple,
        ..Default::default()
    });
    let central = cluster.subscribe_updates();
    let mirrors: Vec<(String, Subscriber<Event>)> = cluster
        .mirror_ids()
        .into_iter()
        .map(|id| (format!("mirror {id}"), cluster.mirror(id).subscribe_updates()))
        .collect();
    assert_eq!(mirrors.len(), 2);

    // One stream, one submitter: seq order is submission order, and each
    // event moves its flight's position on, so every event is an update.
    for seq in 1..=EVENTS {
        let fix = PositionFix {
            lat: 0.0,
            lon: 0.0,
            alt_ft: seq as f64,
            speed_kts: 400.0,
            heading_deg: 0.0,
        };
        cluster.submit(Event::faa_position(seq, (seq % FLIGHTS) as u32, fix));
    }
    assert!(cluster.wait_all_processed(EVENTS, Duration::from_secs(30)), "every site applied");

    assert_submission_order("central", &central, EVENTS);
    for (site, sub) in &mirrors {
        assert_submission_order(site, sub, EVENTS);
    }
    cluster.shutdown();
}

#[test]
fn central_updates_match_the_reference_engine() {
    let cluster = Cluster::start(ClusterConfig::default());
    let updates = cluster.subscribe_updates();
    let events: Vec<Event> = (0..16u32)
        .map(|f| Event::delta_status(u64::from(f) + 1, f, FlightStatus::AtGate))
        .collect();
    let mut reference = Ede::new();
    let want: Vec<Event> =
        events.iter().flat_map(|e| reference.process(e).client_updates).collect();
    for e in events {
        cluster.submit(e);
    }
    assert!(cluster.wait_all_processed(16, Duration::from_secs(10)), "every site applied");

    // The central assigns `stamp` and `ingress_us`; compare the rest.
    let key = |u: &Event| (u.stream, u.seq, u.flight, u.body.clone());
    for (i, w) in want.iter().enumerate() {
        let u = updates
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|| panic!("update {i} of {} never arrived", want.len()));
        assert_eq!(key(&u), key(w), "update {i}");
    }
    assert!(updates.try_recv().is_none(), "more updates than the reference engine emits");
    cluster.shutdown();
}
