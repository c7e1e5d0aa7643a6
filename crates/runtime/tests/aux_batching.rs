//! The aux thread drains its inbox in runs: a burst is fed through the
//! unit in runs of more than one event, and a lone event is never held
//! back waiting for company. A run starts at most one checkpoint round. A
//! run published whole reaches a mirror's inbox as one message and is fed
//! through its unit as one drain, and the inbox depth still counts its
//! events.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use mirror_core::api::{MirrorConfig, MirrorHandle};
use mirror_core::event::{Event, PositionFix};
use mirror_core::ControlMsg;
use mirror_echo::channel::EventChannel;
use mirror_echo::wire::SharedEvent;
use mirror_runtime::{Cluster, ClusterConfig, MirrorSite, RuntimeClock};

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

#[test]
fn a_run_sends_at_most_one_chkpt() {
    // A multiple of `checkpoint_every` (50): the last run always begins a
    // round, proposing the burst's last stamp.
    const EVENTS: u64 = 1_000;
    let cluster = Cluster::start(ClusterConfig::default());
    let ctrl_down = cluster.channels().1.subscribe();
    let unit = cluster.central().handle().clone();
    // The burst queues while the central's unit lock is held, so the aux
    // thread takes it in full runs once the lock is released. Nothing in
    // the closure may panic: the aux thread shares the lock.
    unit.with(|_| {
        for seq in 1..=EVENTS {
            cluster.submit(Event::faa_position(seq, (seq % 64) as u32, fix()));
        }
    });
    assert!(
        cluster.wait_all_processed(EVENTS, Duration::from_secs(30)),
        "the burst applies everywhere"
    );
    // Let the last run's CHKPT, and the idle ticks' tail-commit rounds,
    // go out.
    std::thread::sleep(Duration::from_millis(200));
    let runs = aux_batches(&cluster);
    // Each data run's round proposes a stamp of its own; a tail-commit
    // round re-proposes the last one.
    let mut proposals = Vec::new();
    while let Some(m) = ctrl_down.try_recv() {
        if let ControlMsg::Chkpt { stamp, .. } = m {
            if proposals.last() != Some(&stamp) {
                proposals.push(stamp);
            }
        }
    }
    assert!(
        !proposals.is_empty() && proposals.len() as u64 <= runs,
        "{} CHKPTs with a new proposal in {runs} runs",
        proposals.len()
    );
    cluster.shutdown();
}

/// A mirror on private channels: the test is its only publisher.
fn private_mirror(data: &EventChannel<SharedEvent>) -> MirrorSite {
    let ctrl_down: EventChannel<ControlMsg> = EventChannel::new("run.ctrl.down");
    let ctrl_up: EventChannel<ControlMsg> = EventChannel::new("run.ctrl.up");
    MirrorSite::start(
        MirrorHandle::new(MirrorConfig::default().build_mirror(1)),
        RuntimeClock::new(),
        data,
        &ctrl_down,
        ctrl_up.publisher(),
    )
}

/// `n` stamped events starting at `first`, as one run.
fn run_of(first: u64, n: u64) -> Vec<SharedEvent> {
    (first..first + n)
        .map(|seq| {
            let mut e = Event::faa_position(seq, (seq % 64) as u32, fix());
            e.stamp.advance(0, seq);
            e.into()
        })
        .collect()
}

/// Whether `done` holds within ten seconds.
fn wait_for(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn a_whole_run_is_one_aux_drain() {
    let data: EventChannel<SharedEvent> = EventChannel::new("run.data");
    let mut mirror = private_mirror(&data);
    // Far more than one drain's cap of messages: delivered per event it
    // would take at least four drains.
    assert_eq!(data.publisher().publish_all(&run_of(1, 1_000)), 1);
    assert!(wait_for(|| mirror.processed() == 1_000), "the run is applied");
    assert_eq!(mirror.counters().aux_batches.load(Ordering::Relaxed), 1, "one run, one drain");
    mirror.stop();
}

#[test]
fn inbox_depth_counts_the_events_of_a_queued_run() {
    let data: EventChannel<SharedEvent> = EventChannel::new("run.data");
    let mut mirror = private_mirror(&data);
    let publisher = data.publisher();
    // Nothing in the closure may panic: the aux thread shares the lock.
    let depth = mirror.handle().with(|_| {
        // The first run parks the aux thread: it takes the run (over the
        // drain cap, so it takes nothing else) and then waits for the
        // unit lock this closure holds.
        publisher.publish_all(&run_of(1, 1_000));
        let parked = wait_for(|| mirror.inbox_depth() == 0);
        // The second run stays queued as one inbox message.
        publisher.publish_all(&run_of(1_001, 1_000));
        parked.then(|| mirror.inbox_depth())
    });
    let depth = depth.expect("the aux thread takes the first run whole");
    assert!(depth >= 1_000, "depth {depth} counts messages, not events");
    assert!(wait_for(|| mirror.processed() == 2_000), "both runs are applied");
    assert_eq!(mirror.inbox_depth(), 0);
    mirror.stop();
}
