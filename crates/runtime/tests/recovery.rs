//! Durable-store integration tests: resync outcomes, rejoin after commit,
//! and cold-start recovery from snapshot + log replay.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use mirror_core::event::{Event, PositionFix};
use mirror_runtime::durability::{DurabilityConfig, ResyncOutcome, ResyncSource};
use mirror_runtime::{Cluster, ClusterConfig};
use mirror_store::FsyncPolicy;

fn fix() -> PositionFix {
    PositionFix { lat: 33.6, lon: -84.4, alt_ft: 31000.0, speed_kts: 450.0, heading_deg: 270.0 }
}

fn feed(cluster: &Cluster, from: u64, to: u64) {
    for seq in from..=to {
        cluster.submit(Event::faa_position(seq, (seq % 8) as u32, fix()));
    }
}

fn store_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mirror-rt-rec-{}-{}", std::process::id(), tag));
    let _ = fs::remove_dir_all(&d);
    d
}

fn durable_cfg(tag: &str, mirrors: u16) -> (ClusterConfig, PathBuf) {
    let dir = store_dir(tag);
    let cfg = ClusterConfig {
        mirrors,
        durability: Some(DurabilityConfig {
            fsync: FsyncPolicy::EveryN(8),
            ..DurabilityConfig::new(&dir)
        }),
        ..Default::default()
    };
    (cfg, dir)
}

fn hashes_converged(c: &Cluster) -> bool {
    let h = c.state_hashes();
    h.windows(2).all(|w| w[0] == w[1])
}

/// Satellite: `resync_mirror` must not report success when the requested
/// index predates the retained suffix. Without a durable log, a pruned
/// prefix is a hard gap.
#[test]
fn resync_distinguishes_gap_from_memory_replay() {
    let cluster = Cluster::start(ClusterConfig::default());
    cluster.central().handle().set_params(false, 1, 10); // checkpoint every 10
    feed(&cluster, 1, 100);
    assert!(cluster.wait_all_processed(100, Duration::from_secs(5)));
    assert!(cluster.wait(Duration::from_secs(5), |c| {
        c.central().committed().map(|t| t.get(0) >= 90).unwrap_or(false)
    }));

    let floor = cluster.central().handle().truncation_floor();
    assert!(floor > 1, "commits must have pruned the queue, floor={floor}");

    // Predating the suffix: the old code returned "0 replayed" here.
    match cluster.resync_mirror(1) {
        ResyncOutcome::Gap { first_retained } => {
            assert_eq!(first_retained, Some(floor));
        }
        other => panic!("expected Gap for pruned prefix, got {other:?}"),
    }

    // At the floor: a legitimate in-memory replay.
    match cluster.resync_mirror(floor) {
        ResyncOutcome::Replayed { source: ResyncSource::Memory, .. } => {}
        other => panic!("expected memory replay at the floor, got {other:?}"),
    }
    cluster.shutdown();
}

/// Tentpole: with a durable store, an index the backup queue has long
/// pruned is still served — from the log — and replaying it over live
/// mirrors is absorbed idempotently.
#[test]
fn resync_falls_back_to_durable_log_past_the_prune() {
    let (cfg, dir) = durable_cfg("logfallback", 1);
    let cluster = Cluster::start(cfg);
    cluster.central().handle().set_params(false, 1, 10);
    feed(&cluster, 1, 200);
    assert!(cluster.wait_all_processed(200, Duration::from_secs(5)));
    assert!(cluster.wait(Duration::from_secs(5), |c| {
        c.central().committed().map(|t| t.get(0) >= 190).unwrap_or(false)
    }));
    let floor = cluster.central().handle().truncation_floor();
    assert!(floor > 1);

    match cluster.resync_mirror(1) {
        ResyncOutcome::Replayed { events, source: ResyncSource::DurableLog } => {
            assert_eq!(events, 200, "the log retains the full stream");
        }
        other => panic!("expected durable-log replay, got {other:?}"),
    }

    // The replayed duplicates must not diverge any site's state.
    assert!(cluster.wait(Duration::from_secs(5), hashes_converged));
    assert!(cluster.central().journal().unwrap().last_error().is_none(), "journal must be healthy");
    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Satellite: rejoin after the checkpoint protocol has committed (and
/// pruned) past the outage — the window where retransmission alone cannot
/// heal and the snapshot-seeded rejoin path is mandatory.
#[test]
fn rejoin_after_commit_converges_all_sites() {
    let cluster =
        Cluster::start(ClusterConfig { mirrors: 2, suspect_after: 3, ..Default::default() });
    cluster.central().handle().set_params(false, 1, 10);
    feed(&cluster, 1, 100);
    assert!(cluster.wait_all_processed(100, Duration::from_secs(5)));

    cluster.fail_mirror(2).unwrap();
    // Detection counts the rounds begun, and an aux run begins at most one:
    // feed the outage one round (10 events) at a time, so mirror 2 misses
    // twelve rounds, not however many runs a burst happens to form.
    for from in (101..=220).step_by(10) {
        feed(&cluster, from, from + 9);
        assert!(cluster.wait(Duration::from_secs(5), |c| c.central().processed() > from + 8));
    }
    // Drive commits well past the outage point so the backup queue prunes
    // the events mirror 2 missed.
    assert!(
        cluster.wait(Duration::from_secs(5), |c| {
            c.central().processed() >= 220
                && c.central().committed().map(|t| t.get(0) >= 200).unwrap_or(false)
        }),
        "commits must pass the outage: committed={:?} failed={:?}",
        cluster.central().committed(),
        cluster.failed_mirrors(),
    );
    let floor = cluster.central().handle().truncation_floor();
    assert!(floor > 100, "outage events must be pruned, floor={floor}");
    assert!(matches!(cluster.resync_mirror(101), ResyncOutcome::Gap { .. }));

    cluster.rejoin_mirror(2).unwrap();
    feed(&cluster, 221, 260);
    assert!(
        cluster.wait(Duration::from_secs(10), |c| {
            c.mirror(2).processed() >= 40 && hashes_converged(c)
        }),
        "rejoined mirror must converge: hashes={:?}",
        cluster.state_hashes()
    );
    cluster.shutdown();
}

/// Acceptance: a mirror cold-started from the persisted snapshot + log
/// replay (no live central seed) reaches the same EDE state hash as live
/// peers, then keeps up with fresh traffic.
#[test]
fn recover_site_from_snapshot_and_log_matches_live_peers() {
    let (cfg, dir) = durable_cfg("coldstart", 2);
    let cluster = Cluster::start(cfg);
    cluster.central().handle().set_params(false, 1, 10);

    feed(&cluster, 1, 150);
    assert!(cluster.wait_all_processed(150, Duration::from_secs(5)));
    let captured = cluster.persist_snapshot().expect("persist snapshot");
    assert!(captured > 0, "snapshot must capture flights");

    // More traffic lands only in the log (snapshot is now stale).
    feed(&cluster, 151, 300);
    assert!(cluster.wait_all_processed(300, Duration::from_secs(5)));

    cluster.fail_mirror(1).unwrap();
    let replayed = cluster.recover_site(1).expect("recover from durable store");
    assert!(replayed > 0, "recovery must replay the log suffix");

    assert!(
        cluster.wait(Duration::from_secs(10), hashes_converged),
        "recovered mirror must match live peers: hashes={:?}",
        cluster.state_hashes()
    );

    // And it participates in live traffic afterwards.
    feed(&cluster, 301, 340);
    assert!(cluster.wait(Duration::from_secs(10), |c| {
        c.central().processed() >= 340 && hashes_converged(c)
    }));
    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Recovery must be safe while traffic is still flowing: the store read
/// goes through the live journal's lock-protected log, never a second
/// (destructive) `EventLog::open` on the directory the journal is
/// appending to. Submissions are still in flight through the channels and
/// the journal writer queue when `recover_site` runs, so appends race the
/// recovery read — the journal must stay healthy and the log must still
/// serve the complete stream afterwards.
#[test]
fn recover_site_under_live_traffic_keeps_journal_intact() {
    let (cfg, dir) = durable_cfg("liverec", 2);
    let cluster = Cluster::start(cfg);
    cluster.central().handle().set_params(false, 1, 25);

    feed(&cluster, 1, 100);
    assert!(cluster.wait_all_processed(100, Duration::from_secs(5)));
    cluster.persist_snapshot().expect("persist snapshot");

    cluster.fail_mirror(1).unwrap();
    // Recover WITHOUT quiescing: these events are still draining through
    // the pumps and the journal writer while the store is read.
    feed(&cluster, 101, 400);
    let replayed = cluster.recover_site(1).expect("recover under live traffic");
    assert!(replayed > 0, "recovery must replay the log suffix");
    feed(&cluster, 401, 440);

    assert!(
        cluster.wait(Duration::from_secs(10), |c| {
            c.central().processed() >= 440
                && c.central().committed().map(|t| t.get(0) >= 400).unwrap_or(false)
                && hashes_converged(c)
        }),
        "recovered mirror must converge under live traffic: hashes={:?} committed={:?}",
        cluster.state_hashes(),
        cluster.central().committed(),
    );
    let central = cluster.central();
    assert!(central.journal().unwrap().last_error().is_none(), "journal must stay healthy");
    drop(central);
    // The log survived the concurrent recovery read: the full stream is
    // still replayable (no truncation hole from a racing repair).
    match cluster.resync_mirror(1) {
        ResyncOutcome::Replayed { events, source: ResyncSource::DurableLog } => {
            assert_eq!(events, 440, "log must still hold the complete stream");
        }
        other => panic!("expected durable-log replay of the full stream, got {other:?}"),
    }
    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Recovery without durability configured is a typed error, not a panic.
#[test]
fn recover_site_without_store_is_unsupported() {
    let cluster = Cluster::start(ClusterConfig { mirrors: 1, ..Default::default() });
    let err = cluster.recover_site(1).unwrap_err();
    assert!(
        matches!(err, mirror_core::membership::MembershipError::NoDurableStore),
        "expected NoDurableStore, got {err:?}"
    );
    cluster.shutdown();
}

/// Satellite: persisting the durable snapshot must not stall the event hot
/// path. The state is cloned under the EDE lock but *written* outside it,
/// so a slow or contended disk (injected here as a 750 ms save stall)
/// cannot pause mirroring: events submitted mid-save are fully processed
/// while the save is still on disk.
#[test]
fn slow_snapshot_save_does_not_stall_event_processing() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (cfg, dir) = durable_cfg("slowsave", 1);
    let cluster = Cluster::start(cfg);
    feed(&cluster, 1, 50);
    assert!(cluster.wait_all_processed(50, Duration::from_secs(5)));

    let journal = std::sync::Arc::clone(cluster.central().journal().unwrap());
    journal.set_snapshot_save_pad(Duration::from_millis(750));

    let save_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            let captured = cluster.persist_snapshot().expect("slow persist");
            save_done.store(true, Ordering::SeqCst);
            assert!(captured > 0, "snapshot must capture the fed flights");
        });
        // Let the persist thread clone the state and enter the padded
        // save, then drive traffic straight through its stall window.
        std::thread::sleep(Duration::from_millis(100));
        feed(&cluster, 51, 90);
        assert!(
            cluster.wait_all_processed(90, Duration::from_secs(5)),
            "events must keep flowing during a slow snapshot save"
        );
        assert!(
            !save_done.load(Ordering::SeqCst),
            "processing finished while the save was still writing — the hot \
             path did not wait on the disk"
        );
    });
    assert!(journal.last_error().is_none());
    cluster.shutdown();
    let _ = fs::remove_dir_all(&dir);
}
