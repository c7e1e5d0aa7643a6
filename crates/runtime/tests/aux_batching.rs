//! The aux thread drains its inbox in runs: a burst is fed through the
//! unit in runs of more than one event, and a lone event is never held
//! back waiting for company.

use std::sync::atomic::Ordering;
use std::time::Duration;

use mirror_core::event::{Event, PositionFix};
use mirror_runtime::{Cluster, ClusterConfig};

fn fix() -> PositionFix {
    PositionFix { lat: 1.0, lon: 2.0, alt_ft: 31000.0, speed_kts: 440.0, heading_deg: 45.0 }
}

fn aux_batches(cluster: &Cluster) -> u64 {
    cluster.central().counters().aux_batches.load(Ordering::Relaxed)
}

#[test]
fn a_burst_is_fed_through_the_unit_in_runs() {
    const EVENTS: u64 = 20_000;
    let cluster = Cluster::start(ClusterConfig::default());
    for seq in 1..=EVENTS {
        cluster.submit(Event::faa_position(seq, (seq % 64) as u32, fix()));
    }
    assert!(
        cluster.wait_all_processed(EVENTS, Duration::from_secs(30)),
        "the burst applies everywhere"
    );
    assert!(
        cluster.wait(Duration::from_secs(10), |c| {
            let h = c.state_hashes();
            h.windows(2).all(|w| w[0] == w[1])
        }),
        "central and mirror converge: {:?}",
        cluster.state_hashes()
    );
    let received = cluster.central().handle().with(|a| a.counters().received);
    let runs = aux_batches(&cluster);
    assert_eq!(received, EVENTS);
    assert!(runs > 0 && received > runs, "received {received} in {runs} runs: no batching");
    cluster.shutdown();
}

#[test]
fn a_lone_event_is_one_run_and_is_not_held_back() {
    let cluster = Cluster::start(ClusterConfig::default());
    assert_eq!(aux_batches(&cluster), 0, "an idle site routes no data runs");
    cluster.submit(Event::faa_position(1, 7, fix()));
    assert!(
        cluster.wait_all_processed(1, Duration::from_secs(10)),
        "a lone event applies on every site"
    );
    // Idle flushes and checkpoint traffic are not data runs: the count
    // stays put while they go on.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(aux_batches(&cluster), 1, "one submit, one run");
    cluster.shutdown();
}
