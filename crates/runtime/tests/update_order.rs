//! Cross-flight order of the applied-updates stream: every site's
//! `subscribe_updates()` delivers updates in the order their events were
//! submitted, across flights as well as within one. Each site's aux thread
//! applies its runs in order and publishes their updates itself, so no
//! two flights can swap on the way out (an order the monitor in
//! `tests/scenario_day.rs` relies on to judge connections).

use std::time::Duration;

use mirror_core::event::{Event, PositionFix};
use mirror_core::mirrorfn::MirrorFnKind;
use mirror_echo::channel::Subscriber;
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
