//! What a promoted coordinator inherits. A mirror that takes over the
//! central site (§6) must bring the cluster's configuration up as it was:
//! failure detection, the send-path mirroring function, the partition map
//! and the adaptation thresholds all outlive the coordinator that was
//! configured with them (§3.2.2: thresholds live at the central site,
//! whichever site that currently is).

use std::sync::Arc;
use std::time::Duration;

use adaptable_mirroring::core::adapt::{AdaptAction, MonitorKind};
use adaptable_mirroring::core::event::{Event, PositionFix};
use adaptable_mirroring::core::mirrorfn::MirrorFnKind;
use adaptable_mirroring::runtime::{Cluster, ClusterConfig, PartitionedCluster, PartitionedConfig};

fn fix() -> PositionFix {
    PositionFix { lat: 47.4, lon: -122.3, alt_ft: 28_000.0, speed_kts: 430.0, heading_deg: 180.0 }
}

/// Paced feed, as in `tests/failover.rs`: detection counts missed rounds,
/// so rounds must not outrun reply latency.
fn feed(cluster: &Cluster, from: u64, to: u64) {
    for seq in from..=to {
        cluster.submit(Event::faa_position(seq, (seq % 6) as u32, fix()));
        if seq % 10 == 0 {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

#[test]
fn successor_still_detects_a_dead_mirror() {
    let cluster =
        Cluster::start(ClusterConfig { mirrors: 3, suspect_after: 5, ..Default::default() });
    cluster.central().handle().set_params(false, 1, 20);
    feed(&cluster, 1, 100);
    assert!(cluster.wait_all_processed(100, Duration::from_secs(5)));

    cluster.stop_central();
    assert_eq!(cluster.promote_mirror(1).unwrap(), vec![2, 3]);

    // Mirror 3 dies under the successor; traffic keeps rounds turning.
    cluster.fail_mirror(3).unwrap();
    feed(&cluster, 101, 400);
    let detected = cluster.wait(Duration::from_secs(10), |c| c.failed_mirrors() == vec![3]);
    assert!(detected, "successor lost suspect_after: failed = {:?}", cluster.failed_mirrors());

    feed(&cluster, 401, 500);
    let committed = cluster.wait(Duration::from_secs(10), |c| {
        c.central().committed().map(|t| t.get(0) >= 450).unwrap_or(false)
    });
    assert!(committed, "commit frontier: {:?}", cluster.central().committed());
    cluster.shutdown();
}

#[test]
fn successor_keeps_the_send_path_mirror_function() {
    let cluster = Cluster::start(ClusterConfig {
        mirrors: 2,
        kind: MirrorFnKind::Coalescing { coalesce: 10, checkpoint_every: 50 },
        ..Default::default()
    });
    // 1 000 fixes for one flight: coalescing mirrors about one in ten.
    let single_flight = |from: u64| {
        for seq in from..from + 1_000 {
            cluster.submit(Event::faa_position(seq, 7, fix()));
        }
        assert!(cluster.wait(Duration::from_secs(10), |c| c.central().processed() >= 1_000));
        cluster.stats().central.mirrored
    };
    let before = single_flight(1);
    assert!(before < 500, "predecessor must coalesce, mirrored {before} of 1000");

    cluster.stop_central();
    cluster.promote_mirror(1).unwrap();
    // The successor's counters start at zero.
    let after = single_flight(1_001);
    assert!(
        after <= 2 * before,
        "successor mirrored {after} of 1000 events where its predecessor mirrored {before}"
    );
    cluster.shutdown();
}

#[test]
fn successor_keeps_the_partition_map() {
    let cluster = PartitionedCluster::start(PartitionedConfig {
        groups: 2,
        group: ClusterConfig { mirrors: 2, ..Default::default() },
    });
    let group = cluster.group(0);
    let epoch = group.central().partition_epoch();
    let map = group.central().partition_map();
    assert_eq!(epoch, 1, "a partitioned group's coordinator holds the map");

    group.stop_central();
    group.promote_mirror(1).unwrap();
    assert_eq!(group.central().partition_epoch(), epoch);
    assert_eq!(group.central().partition_map(), map);
    cluster.shutdown();
}

/// The request storm of `tests/runtime_adaptation.rs` against mirror 2's
/// gateway, with the thresholds installed on the original coordinator;
/// `promote` swaps the coordinator between installing them and the storm.
fn storm_engages_the_degraded_profile(promote: bool) {
    let normal = MirrorFnKind::Coalescing { coalesce: 10, checkpoint_every: 25 };
    let degraded = MirrorFnKind::Overwriting { overwrite: 20, checkpoint_every: 100 };
    let cluster =
        Arc::new(Cluster::start(ClusterConfig { mirrors: 2, kind: normal, ..Default::default() }));
    cluster.central().handle().set_monitor_values(MonitorKind::PendingRequests, 10, 7);
    cluster
        .central()
        .handle()
        .set_adapt_action(AdaptAction::SwitchMirrorFn { normal, engaged: degraded });
    if promote {
        cluster.stop_central();
        assert_eq!(cluster.promote_mirror(1).unwrap(), vec![2]);
    }

    let gateway = cluster.mirror(2).serve_requests(Duration::from_millis(4));
    let client = gateway.client();
    let feeder_cluster = Arc::clone(&cluster);
    let feeder = std::thread::spawn(move || {
        for seq in 1..=3_000u64 {
            feeder_cluster.submit(Event::faa_position(seq, (seq % 8) as u32, fix()));
            std::thread::sleep(Duration::from_micros(300));
        }
    });
    std::thread::sleep(Duration::from_millis(100));
    assert_ne!(cluster.central().handle().params().overwrite_max, 20, "engaged before the storm");
    let receivers: Vec<_> = (0..120).map(|_| client.fire().unwrap()).collect();

    let engaged =
        cluster.wait(Duration::from_secs(5), |c| c.central().handle().params().overwrite_max == 20);
    assert!(engaged, "storm must engage the degraded profile (promoted coordinator: {promote})");
    let mirror_engaged =
        cluster.wait(Duration::from_secs(5), |c| c.mirror(2).handle().params().overwrite_max == 20);
    assert!(mirror_engaged, "directive must reach the mirror");

    for r in receivers {
        let _ = r.recv_timeout(Duration::from_secs(10));
    }
    feeder.join().unwrap();
    gateway.stop();
    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("cluster still shared"),
    }
}

#[test]
fn storm_engages_adaptation_without_a_promotion() {
    storm_engages_the_degraded_profile(false);
}

#[test]
fn successor_keeps_the_adaptation_thresholds() {
    storm_engages_the_degraded_profile(true);
}
