//! A graceful `stop()` applies everything already published to a site.
//!
//! A mirror's inbox can hold a deep backlog when `stop()` is called: the
//! publisher (the central, or a bridge reader) delivers into it through
//! the site's subscription sinks and runs ahead of the aux thread.
//! Stopping closes the sinks and only then queues the site's own stop
//! behind what they delivered, so no published event is left behind. The
//! same holds at a central, whose aux thread drains its inbox in runs: a
//! `Stop` that lands inside a run ends it after the messages before it. (A
//! crash is the opposite contract and abandons the backlog;
//! `failover_chaos` and `recovery` cover it, and the crash test here pins
//! that a crashed central routes nothing more.) No sink outlives its site:
//! a stopped or crashed site leaves the cluster's channels.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use mirror_core::api::{MirrorConfig, MirrorHandle};
use mirror_core::event::{Event, PositionFix};
use mirror_core::timestamp::VectorTimestamp;
use mirror_core::ControlMsg;
use mirror_echo::channel::EventChannel;
use mirror_runtime::durability::DurabilityConfig;
use mirror_runtime::{Cluster, ClusterConfig, MirrorSite, RuntimeClock};

const EVENTS: u64 = 50_000;
const RUNS: usize = 5;

fn fix() -> PositionFix {
    PositionFix { lat: 1.0, lon: 2.0, alt_ft: 30_000.0, speed_kts: 450.0, heading_deg: 10.0 }
}

#[test]
fn stop_processes_everything_published_before_it() {
    let mut short = Vec::new();
    for run in 0..RUNS {
        let data: EventChannel<Arc<Event>> = EventChannel::new("drain.data");
        let ctrl_down: EventChannel<ControlMsg> = EventChannel::new("drain.ctrl.down");
        let ctrl_up: EventChannel<ControlMsg> = EventChannel::new("drain.ctrl.up");
        let mut mirror = MirrorSite::start(
            MirrorHandle::new(MirrorConfig::default().build_mirror(1)),
            RuntimeClock::new(),
            &data,
            &ctrl_down,
            ctrl_up.publisher(),
        );
        let publisher = data.publisher();
        for seq in 1..=EVENTS {
            let mut e = Event::faa_position(seq, (seq % 64) as u32, fix());
            e.stamp.advance(0, seq);
            publisher.publish(e.into());
        }
        mirror.stop();
        if mirror.processed() != EVENTS {
            short.push((run, mirror.processed()));
        }
    }
    assert!(
        short.is_empty(),
        "runs that lost published events (run, processed of {EVENTS}): {short:?}"
    );
}

#[test]
fn central_stop_processes_everything_submitted_before_it() {
    let mut short = Vec::new();
    for run in 0..RUNS {
        let cluster = Cluster::start(ClusterConfig::default());
        for seq in 1..=EVENTS {
            cluster.submit(Event::faa_position(seq, (seq % 64) as u32, fix()));
        }
        cluster.stop_central();
        let central = cluster.central().processed();
        let mirrored = cluster.wait(Duration::from_secs(30), |c| c.mirror(1).processed() == EVENTS);
        if central != EVENTS || !mirrored {
            short.push((run, central, cluster.mirror(1).processed()));
        }
        cluster.shutdown();
    }
    assert!(
        short.is_empty(),
        "runs that lost submitted events (run, central, mirror of {EVENTS}): {short:?}"
    );
}

fn store_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mirror-rt-drain-{}-{}", std::process::id(), tag));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn a_crashed_central_routes_nothing_more() {
    let dir = store_dir("crash");
    let cluster = Cluster::start(ClusterConfig {
        durability: Some(DurabilityConfig::new(&dir)),
        ..Default::default()
    });
    for seq in 1..=EVENTS {
        cluster.submit(Event::faa_position(seq, (seq % 64) as u32, fix()));
        if seq == EVENTS / 2 {
            cluster.crash_central();
        }
    }
    let journal = cluster.central().journal().cloned().expect("durable central");
    let (last_idx, mirrored) =
        (journal.last_idx(), cluster.central().counters().mirrored.load(Ordering::Relaxed));
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(journal.last_idx(), last_idx, "nothing is journaled after the crash");
    assert_eq!(
        cluster.central().counters().mirrored.load(Ordering::Relaxed),
        mirrored,
        "nothing is mirrored after the crash"
    );
    assert!(cluster.central().processed() < EVENTS, "the crash abandoned the backlog");
    drop(journal);
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_sink_outlives_its_site() {
    let cluster = Cluster::start(ClusterConfig { mirrors: 2, ..Default::default() });
    let (data, down, up) = {
        let (data, down, up) = cluster.channels();
        (data.clone(), down.clone(), up.clone())
    };
    let counts = || (data.subscriber_count(), down.subscriber_count(), up.subscriber_count());
    assert_eq!(counts(), (2, 2, 1), "each mirror reads data and control down");

    cluster.fail_mirror(1).expect("mirror 1 is live");
    assert_eq!(counts(), (1, 1, 1), "a stopped mirror leaves both downlinks");

    cluster.crash_central();
    assert_eq!(counts(), (1, 1, 0), "a crashed central leaves the uplink");
    let chkpt = ControlMsg::Chkpt { round: 1, stamp: VectorTimestamp::empty(), epoch: 0, term: 0 };
    assert_eq!(up.publisher().publish(chkpt), 0, "the uplink reaches nobody");

    cluster.shutdown();
    assert_eq!(counts(), (0, 0, 0));
}
