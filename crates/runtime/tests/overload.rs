//! Ingest overload surfaces as **typed backpressure**, never as silent
//! spinning or unbounded queueing: with a tiny configured
//! [`ClusterConfig::inbox_capacity`], a producer that outruns the site's
//! aux thread sees [`SiteOverload`] from `try_submit` once that many
//! events are queued in the inbox, while every event that *was* accepted
//! still applies. The threshold lives on the central, the one site that
//! takes submissions.

use std::time::Duration;

use mirror_core::event::{Event, PositionFix};
use mirror_core::queue::QueueStats;
use mirror_runtime::{Cluster, ClusterConfig};

fn fix() -> PositionFix {
    PositionFix { lat: 1.0, lon: 2.0, alt_ft: 31000.0, speed_kts: 440.0, heading_deg: 45.0 }
}

#[test]
fn saturation_surfaces_as_typed_backpressure_not_silent_spinning() {
    let capacity = 4usize;
    let cluster = Cluster::start(ClusterConfig { inbox_capacity: capacity, ..Default::default() });
    assert_eq!(cluster.central().inbox_capacity(), capacity);

    // A tight submit loop trivially outruns the per-event aux work
    // (mirror-fn evaluation, backup-queue push, inline apply), so the
    // inbox must fill and the typed refusal must fire well inside the
    // attempt budget.
    let mut accepted = 0u64;
    let mut refusal = None;
    for seq in 1..=200_000u64 {
        match cluster.try_submit(Event::faa_position(seq, (seq % 8) as u32, fix())) {
            Ok(()) => accepted += 1,
            Err(e) => {
                refusal = Some(e);
                break;
            }
        }
    }
    let overload = refusal.expect("saturation must surface as a typed error");
    assert_eq!(overload.capacity, capacity, "refusal reports the configured capacity");
    assert!(
        overload.queued >= capacity,
        "refusal fires at the threshold: queued={} capacity={}",
        overload.queued,
        capacity
    );
    assert!(accepted >= capacity as u64, "everything below the threshold was accepted");

    // Backpressure, not loss: every accepted event drains and applies.
    assert!(
        cluster.wait(Duration::from_secs(10), |c| c.central().processed() == accepted),
        "accepted events must all apply: processed={} accepted={}",
        cluster.central().processed(),
        accepted
    );

    // The aux thread applied every accepted event itself: the hand-off
    // into the store counts them, and nothing queued there.
    let handoff = cluster.central().dispatch_ring_stats();
    assert_eq!(
        handoff,
        QueueStats { enqueued: accepted, dequeued: accepted, high_watermark: 0 },
        "the backlog is the inbox's alone"
    );
    cluster.shutdown();
}

#[test]
fn default_capacity_absorbs_bursts_and_queues_nothing_past_the_inbox() {
    let cluster = Cluster::start(ClusterConfig::default());
    assert_eq!(
        cluster.central().inbox_capacity(),
        mirror_runtime::DEFAULT_INBOX_CAPACITY,
        "unspecified config keeps the historical 8192-event threshold"
    );
    for seq in 1..=500u64 {
        cluster
            .try_submit(Event::faa_position(seq, (seq % 4) as u32, fix()))
            .expect("a 500-event burst is far below the default capacity");
    }
    assert!(cluster.wait_all_processed(500, Duration::from_secs(10)));
    let handoff = cluster.central().dispatch_ring_stats();
    assert_eq!(handoff, QueueStats { enqueued: 500, dequeued: 500, high_watermark: 0 });
    cluster.shutdown();
}
