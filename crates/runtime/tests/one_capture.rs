//! One capture path per site: every request gateway and every seed of a
//! site read the site's one full slot in its `StateSync`, so two gateways
//! on a quiet site pay one capture between them, and a gateway serves the
//! capture a seed just took.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use mirror_core::event::{Event, PositionFix};
use mirror_runtime::{Cluster, ClusterConfig, GatewayConfig, SnapshotCachePolicy};

const WAIT: Duration = Duration::from_secs(10);

fn event(seq: u64) -> Event {
    let fix =
        PositionFix { lat: 1.0, lon: 2.0, alt_ft: 30_000.0, speed_kts: 450.0, heading_deg: 0.0 };
    Event::faa_position(seq, seq as u32, fix)
}

#[test]
fn gateways_and_seeds_share_one_full_slot() {
    let cluster = Cluster::start(ClusterConfig { mirrors: 1, ..Default::default() });
    let central = cluster.central();
    // A policy under which no entry ever goes stale: every miss below is a
    // slot that held nothing this reader could use.
    let forever = SnapshotCachePolicy { max_stale_events: u64::MAX / 2, max_stale: Duration::MAX };
    let config = GatewayConfig { cache: Some(forever), ..Default::default() };
    let a = central.serve_requests_with(config.clone());
    let b = central.serve_requests_with(config);
    let (a_client, b_client) = (a.client(), b.client());

    let first = a_client.fetch(WAIT).expect("gateway a serves");
    let second = b_client.fetch(WAIT).expect("gateway b serves");
    let counters = central.counters();
    assert_eq!(counters.snapshot_cache_misses.load(Ordering::Relaxed), 1, "one capture per site");
    assert_eq!(counters.snapshot_cache_hits.load(Ordering::Relaxed), 1);
    assert!(Arc::ptr_eq(first.snapshot(), second.snapshot()), "both gateways serve one capture");

    // Move the store past the seed's own staleness bound (256 events), so
    // the seed below takes a capture of its own.
    drop(central);
    for seq in 1..=300 {
        cluster.submit(event(seq));
    }
    assert!(cluster.wait_all_processed(300, WAIT), "the burst applies");
    let central = cluster.central();
    let (seed, _floor) = central.seed_snapshot();
    assert_ne!(seed.as_of, first.as_of, "the seed captured the moved store");

    // The gateway serves the seed's capture from the shared slot.
    let third = a_client.fetch(WAIT).expect("gateway a serves");
    assert_eq!(central.counters().snapshot_cache_hits.load(Ordering::Relaxed), 2);
    assert_eq!(central.counters().snapshot_cache_misses.load(Ordering::Relaxed), 1);
    assert_eq!(third.as_of, seed.as_of, "a fetch after a seed serves the seed's capture");

    drop((a_client, b_client, central));
    a.stop();
    b.stop();
    cluster.shutdown();
}
