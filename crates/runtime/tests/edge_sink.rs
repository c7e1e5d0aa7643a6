//! An edge follows its site's applied-updates channel with a sink, so its
//! fan-out runs on the site's aux thread:
//!
//! * delivery is synchronous with apply — once the site counts an event
//!   processed, its update is in every matching outbox, with no settle
//!   call in between;
//! * subscribes and resumes, taken on their callers' threads while the
//!   site streams, never deadlock against the sink, and every stream is
//!   contiguous from its reseed floor (or resume point);
//! * a failover re-point carries the stream across a promotion: `pub_seq`
//!   stays gap-free, and the successor's updates arrive exactly once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mirror_core::event::{Event, FlightId, PositionFix};
use mirror_echo::SubscriptionFilter;
use mirror_edge::{Delivery, EdgeClient, EdgeConfig};
use mirror_runtime::{Cluster, ClusterConfig, FailoverEvent, FailoverPolicy};

fn pos(seq: u64, flight: FlightId) -> Event {
    let fix = PositionFix {
        lat: seq as f64,
        lon: 2.0,
        alt_ft: 30_000.0,
        speed_kts: 440.0,
        heading_deg: 90.0,
    };
    Event::faa_position(seq, flight, fix)
}

/// A queue deep enough that nothing in these tests conflates: every
/// `pub_seq` reaches the client.
fn deep() -> EdgeConfig {
    EdgeConfig { queue_cap: 1 << 20, max_pending: 1 << 20, ..EdgeConfig::default() }
}

fn drain(client: &EdgeClient) -> Vec<Delivery> {
    let mut out = Vec::new();
    while let Some(d) = client.poll().expect("connected") {
        out.push(d);
    }
    out
}

/// Check that `got` continues a stream whose next `pub_seq` is `next`: a
/// reseed may only come first and restarts the count after its floor,
/// and each event follows the one before it. Returns the new `next`.
fn check_contiguous(got: &[Delivery], mut next: u64, first: bool) -> u64 {
    for (i, d) in got.iter().enumerate() {
        match d {
            Delivery::Event(e) => {
                assert_eq!(e.pub_seq(), next, "gap or duplicate at delivery {i}");
                next += 1;
            }
            Delivery::Reseed { pub_seq, .. } | Delivery::DeltaReseed { pub_seq, .. } => {
                assert!(first && i == 0, "a reseed only opens a connection, got one at {i}");
                next = pub_seq + 1;
            }
        }
    }
    next
}

#[test]
fn delivery_is_synchronous_with_apply() {
    const N: u64 = 2_000;
    let cluster = Cluster::start(ClusterConfig { mirrors: 2, ..Default::default() });
    let edge = cluster.serve_edge(1, deep()).expect("mirror 1 is attached");
    let client = edge.subscribe(1, SubscriptionFilter::All);

    // Read mirror 1's `processed`, then the outbox, over and over while
    // the stream applies: with no settle call in between, the client
    // already holds (beside its reseed) every update the site counted.
    let mut got = Vec::new();
    let mut check = || {
        let applied = cluster.mirror(1).processed();
        got.extend(drain(&client));
        assert!(
            got.len() as u64 > applied,
            "mirror 1 counted {applied} processed; the client holds {} deliveries",
            got.len()
        );
        applied
    };
    for seq in 1..=N {
        cluster.submit(pos(seq, (seq % 16) as FlightId));
        if seq % 64 == 0 {
            check();
        }
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    while check() < N {
        assert!(Instant::now() < deadline, "mirror 1 never applied {N} events");
        std::thread::yield_now();
    }

    assert!(cluster.wait_all_processed(N, Duration::from_secs(20)), "every site applied");
    got.extend(drain(&client));
    assert!(matches!(got.first(), Some(Delivery::Reseed { pub_seq: 0, .. })), "{:?}", got.first());
    assert_eq!(check_contiguous(&got, 1, true), N + 1, "the reseed plus {N} contiguous events");
    cluster.shutdown();
}

#[test]
fn attaches_while_streaming_never_deadlock_and_stay_contiguous() {
    const CLIENTS: u64 = 8;
    const ROUNDS: u64 = 300;
    let cluster = Arc::new(Cluster::start(ClusterConfig { mirrors: 2, ..Default::default() }));
    // A small window: a resume from an old point is reseeded, and the
    // window can slide past a reseed's floor while it is captured.
    let edge =
        cluster.serve_edge(1, EdgeConfig { window: 64, ..deep() }).expect("mirror 1 is attached");

    let stop = Arc::new(AtomicBool::new(false));
    let submitted = Arc::new(AtomicU64::new(0));
    let feeder = {
        let (cluster, stop, submitted) =
            (Arc::clone(&cluster), Arc::clone(&stop), Arc::clone(&submitted));
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let seq = submitted.fetch_add(1, Ordering::Relaxed) + 1;
                cluster.submit(pos(seq, (seq % 32) as FlightId));
                // Pacing, so the inbox stays shallow; not synchronisation.
                std::thread::sleep(Duration::from_micros(20));
            }
        })
    };

    let (done_tx, done_rx) = mpsc::channel();
    let attacher = {
        let edge = Arc::clone(&edge);
        std::thread::spawn(move || {
            let mut last = [None::<u64>; CLIENTS as usize];
            for round in 0..ROUNDS {
                let id = round % CLIENTS;
                let slot = &mut last[id as usize];
                // Fresh subscribe first; then alternate a resume from the
                // client's own point (usually a replay) with one from 0
                // (a reseed once the window has slid).
                let (client, mut next) = match *slot {
                    None => (edge.subscribe(id, SubscriptionFilter::All), 0),
                    Some(seq) if round % 2 == 0 => {
                        (edge.resume(id, seq).expect("known client"), seq + 1)
                    }
                    Some(_) => (edge.resume(id, 0).expect("known client"), 1),
                };
                let opened = Instant::now();
                let mut first = true;
                while opened.elapsed() < Duration::from_millis(5) {
                    let got = drain(&client);
                    next = check_contiguous(&got, next, first);
                    first &= got.is_empty();
                    std::thread::yield_now();
                }
                *slot = Some(client.last_seq());
                client.disconnect();
            }
            done_tx.send(()).expect("test alive");
        })
    };
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("attaches deadlocked against the streaming site");
    attacher.join().unwrap();
    stop.store(true, Ordering::Relaxed);
    feeder.join().unwrap();

    let stats = edge.counters().snapshot();
    assert!(
        stats.reseeded + stats.delta_reseeded >= 1,
        "a resume from 0 past the window reseeds: {stats:?}"
    );
    assert!(stats.published >= 64, "the site streamed while clients attached: {stats:?}");
    Arc::try_unwrap(cluster).ok().expect("feeder joined").shutdown();
}

fn policy() -> FailoverPolicy {
    FailoverPolicy { suspect_rounds: 3, heartbeat_ticks: 2, min_gap: Duration::from_millis(50) }
}

#[test]
fn failover_repoint_is_gap_free_and_exactly_once() {
    const BEFORE: u64 = 500;
    const AFTER: u64 = 300;
    let cluster = Cluster::start(ClusterConfig {
        mirrors: 2,
        failover: Some(policy()),
        ..Default::default()
    });
    cluster.central().handle().set_params(false, 1, 10); // frequent rounds
    let edge = cluster.serve_edge(1, deep()).expect("mirror 1 is attached");
    let client = edge.subscribe(7, SubscriptionFilter::All);
    for seq in 1..=BEFORE {
        cluster.submit(pos(seq, (seq % 8) as FlightId));
    }
    assert!(cluster.wait_all_processed(BEFORE, Duration::from_secs(20)), "every site applied");

    // Kill the central the way `failover_chaos` does and let the detector
    // promote mirror 1, the site the edge fronts.
    cluster.crash_central();
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut events = Vec::new();
    while !events.iter().any(|e| matches!(e, FailoverEvent::Promoted { .. })) {
        assert!(Instant::now() < deadline, "no promotion: {events:?}");
        events.extend(cluster.poll_failover());
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        events.iter().any(|e| matches!(e, FailoverEvent::Promoted { site: 1, .. })),
        "mirror 1 takes over: {events:?}"
    );
    assert_eq!(cluster.edge_stats()[0].0, 0, "the edge now fronts the successor central");

    // The successor's updates, on flights the predecessor never saw.
    let applied = cluster.central().processed();
    for seq in 1..=AFTER {
        cluster.submit(pos(BEFORE + seq, 100 + (seq % 8) as FlightId));
    }
    assert!(
        cluster.wait(Duration::from_secs(20), |c| c.central().processed() >= applied + AFTER),
        "the successor applies the new stream"
    );

    let got = drain(&client);
    assert_eq!(check_contiguous(&got, 0, true), BEFORE + AFTER + 1, "gap-free across promotion");
    let successor: Vec<u64> = got
        .iter()
        .filter_map(|d| match d {
            Delivery::Event(e) if e.event().flight >= 100 => Some(e.event().seq),
            _ => None,
        })
        .collect();
    assert_eq!(
        successor,
        (BEFORE + 1..=BEFORE + AFTER).collect::<Vec<_>>(),
        "each successor update arrives exactly once, in order"
    );
    cluster.shutdown();
}
