//! A running cluster's thread budget: each site runs its aux thread and
//! nothing else; durability adds the journal's writer, and failover and an
//! edge tier add no thread. A bridged mirror adds one named reader or
//! writer per transport end. The aux thread applies into the store itself,
//! and channel subscriptions deliver into a site's inbox, or an edge's
//! outboxes, on the publisher's thread, so no thread exists only to move
//! one queue into another.
//! (Counts this process's threads through `/proc/self/task`, so the file
//! holds this one test.)

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mirror_core::api::{MirrorConfig, MirrorHandle};
use mirror_core::event::{Event, PositionFix};
use mirror_core::ControlMsg;
use mirror_echo::{EventChannel, InProcTransport, SubscriptionFilter};
use mirror_edge::{EdgeConfig, EdgeDisconnect};
use mirror_runtime::bridge::{central_endpoint, mirror_endpoint};
use mirror_runtime::{
    Cluster, ClusterConfig, DurabilityConfig, FailoverPolicy, MirrorSite, RuntimeClock,
};

/// This process's threads: (tid, name).
fn threads() -> BTreeSet<(u64, String)> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| {
            let task = task.ok()?;
            let tid = task.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(task.path().join("comm")).ok()?;
            Some((tid, name.trim().to_string()))
        })
        .collect()
}

fn event(seq: u64) -> Event {
    let fix = PositionFix { lat: 0.0, lon: 0.0, alt_ft: 1.0, speed_kts: 1.0, heading_deg: 0.0 };
    Event::faa_position(seq, (seq % 8) as u32, fix)
}

/// The names of the threads started since `before`, sorted.
fn started_since(before: &BTreeSet<(u64, String)>) -> Vec<String> {
    let mut started: Vec<String> =
        threads().difference(before).map(|(_, name)| name.clone()).collect();
    started.sort();
    started
}

/// Wait until every thread started since `before` is gone: a joined
/// thread leaves the task list once the kernel has reaped it, a moment
/// after `join` returns.
fn assert_all_gone(before: &BTreeSet<(u64, String)>) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads().difference(before).count() > 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let left: Vec<_> = threads().difference(before).cloned().collect();
    assert!(left.is_empty(), "threads outlived shutdown: {left:?}");
}

/// Start `cfg`'s 1 + 2 cluster, optionally with an edge on mirror 1 and
/// one subscriber, apply `events` events everywhere, and check it runs
/// exactly its sites' threads plus `extra`, and that all of them are gone
/// after shutdown.
fn check_budget(cfg: ClusterConfig, edge: bool, events: u64, extra: &[&str]) {
    let before = threads();
    let cluster = Cluster::start(cfg);
    let client = edge.then(|| {
        let edge = cluster.serve_edge(1, EdgeConfig::default()).expect("mirror 1 is attached");
        edge.subscribe(1, SubscriptionFilter::All)
    });
    for seq in 1..=events {
        cluster.submit(event(seq));
    }
    assert!(cluster.wait_all_processed(events, Duration::from_secs(10)), "every site applied");
    if let Some(journal) = cluster.central().journal() {
        assert_eq!(journal.last_idx(), Some(events), "every event journaled");
    }
    if let Some(client) = &client {
        assert_eq!(client.backlog(), 1 + events as usize, "the reseed, then every event");
    }

    let started = started_since(&before);
    let mut expected: Vec<String> = (0..3u16)
        .map(|site| format!("aux-{site}"))
        .chain(extra.iter().map(|name| name.to_string()))
        .collect();
    expected.sort();
    assert_eq!(started.len(), 3 + extra.len(), "threads of a 1 + 2 cluster: {started:?}");
    assert_eq!(started, expected);
    assert!(!started.iter().any(|n| n.starts_with("apply-")), "no apply workers: {started:?}");
    assert!(!started.iter().any(|n| n.starts_with("main-")), "no dispatcher threads: {started:?}");
    assert!(
        !started
            .iter()
            .any(|n| n.ends_with("-data") || n.ends_with("-ctrl") || n == "central-ctrl-up"),
        "no subscription forwarder threads: {started:?}"
    );
    assert!(!started.iter().any(|n| n.starts_with("edge-")), "no edge threads: {started:?}");

    cluster.shutdown();
    if let Some(client) = client {
        while let Ok(Some(_)) = client.poll() {}
        assert_eq!(client.poll().unwrap_err(), EdgeDisconnect::ServerStopped);
    }
    assert_all_gone(&before);
}

/// A mirror bridged over two in-process transport pairs runs its aux
/// thread plus one named thread per transport end: the central side's
/// downlink writer and uplink reader, the mirror side's downlink reader
/// and uplink writer. All of them are gone after stop and join.
fn check_bridged_budget() {
    let events = 64;
    let before = threads();
    let data: EventChannel<Arc<Event>> = EventChannel::new("budget.data");
    let ctrl_down: EventChannel<ControlMsg> = EventChannel::new("budget.ctrl.down");
    let ctrl_up: EventChannel<ControlMsg> = EventChannel::new("budget.ctrl.up");
    let (down_a, down_b) = InProcTransport::pair("budget.down");
    let (up_a, up_b) = InProcTransport::pair("budget.up");
    let central =
        central_endpoint(&data, &ctrl_down, ctrl_up.publisher(), Box::new(down_a), Box::new(up_b));
    let (mut mirror, remote) =
        mirror_endpoint(Box::new(down_b), Box::new(up_a), |data, ctrl_down, ctrl_up| {
            MirrorSite::start(
                MirrorHandle::new(MirrorConfig::default().build_mirror(1)),
                RuntimeClock::new(),
                data,
                ctrl_down,
                ctrl_up.publisher(),
            )
        });
    let publisher = data.publisher();
    for seq in 1..=events {
        let mut e = event(seq);
        e.stamp.advance(0, seq);
        publisher.publish(e.into());
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while mirror.processed() < events && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(mirror.processed(), events, "every event crossed the bridge");

    let started = started_since(&before);
    assert_eq!(started, ["aux-1", "bridge-dn-r", "bridge-dn-w", "bridge-up-r", "bridge-up-w"]);

    central.stop();
    remote.stop();
    mirror.stop();
    central.join();
    remote.join();
    assert_all_gone(&before);
}

#[test]
fn a_cluster_runs_its_sites_threads_and_no_forwarders() {
    check_budget(ClusterConfig { mirrors: 2, ..Default::default() }, false, 1, &[]);

    // An edge on a mirror fans out on that mirror's aux thread: with a
    // subscriber and events flowing, still one thread per site.
    check_budget(ClusterConfig { mirrors: 2, ..Default::default() }, true, 64, &[]);

    // Durability and failover add the journal's writer and nothing else:
    // the log group-commits on that writer (no flusher thread), and the
    // failover watcher is a control-downlink sink. More than 64 events
    // pass the default `EveryN(64)` sync point.
    let dir = std::env::temp_dir().join(format!("mirror-rt-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ClusterConfig {
        mirrors: 2,
        durability: Some(DurabilityConfig::new(&dir)),
        failover: Some(FailoverPolicy::default()),
        ..Default::default()
    };
    check_budget(cfg, false, 256, &["mirror-journal"]);
    std::fs::remove_dir_all(&dir).unwrap();

    check_bridged_budget();
}
