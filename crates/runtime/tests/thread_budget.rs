//! A running cluster's thread budget: each site runs its aux thread and
//! its apply workers, and nothing else. The aux thread dispatches into the
//! apply workers itself, and channel subscriptions deliver into a site's
//! inbox on the publisher's thread, so no thread exists only to move one
//! queue into another.
//! (Counts this process's threads through `/proc/self/task`, so the file
//! holds this one test.)

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use mirror_core::event::{Event, PositionFix};
use mirror_runtime::{ApplyPoolConfig, Cluster, ClusterConfig};

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

#[test]
fn a_cluster_runs_its_sites_threads_and_no_forwarders() {
    let before = threads();
    let cluster = Cluster::start(ClusterConfig { mirrors: 2, ..Default::default() });
    cluster.submit(Event::faa_position(
        1,
        1,
        PositionFix { lat: 0.0, lon: 0.0, alt_ft: 1.0, speed_kts: 1.0, heading_deg: 0.0 },
    ));
    assert!(cluster.wait_all_processed(1, Duration::from_secs(10)), "every site applied");

    let mut started: Vec<String> =
        threads().difference(&before).map(|(_, name)| name.clone()).collect();
    started.sort();
    let workers = ApplyPoolConfig::default().workers;
    let mut expected: Vec<String> = (0..3u16)
        .flat_map(|site| {
            let apply = (0..workers).map(|w| format!("apply-{w}"));
            std::iter::once(format!("aux-{site}")).chain(apply)
        })
        .collect();
    expected.sort();
    assert_eq!(started.len(), 3 * (1 + workers), "threads of a 1 + 2 cluster: {started:?}");
    assert_eq!(started, expected);
    assert!(!started.iter().any(|n| n.starts_with("main-")), "no dispatcher threads: {started:?}");
    assert!(
        !started
            .iter()
            .any(|n| n.ends_with("-data") || n.ends_with("-ctrl") || n == "central-ctrl-up"),
        "no subscription forwarder threads: {started:?}"
    );

    cluster.shutdown();
    // A joined thread leaves the task list once the kernel has reaped it,
    // a moment after `join` returns.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads().difference(&before).count() > 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
    let left: Vec<_> = threads().difference(&before).cloned().collect();
    assert!(left.is_empty(), "threads outlived shutdown: {left:?}");
}
