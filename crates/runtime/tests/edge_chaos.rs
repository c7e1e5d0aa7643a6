//! Reconnect-resume correctness for the edge tier under the fault
//! harness: TCP subscribers whose reads are stalled by deterministic
//! seeded throttle schedules ([`FaultyTransport`]) and who drop their
//! sockets repeatedly mid-stream, resuming with `Frame::Resume`.
//!
//! Asserted invariants:
//!
//! * every client observes a **strictly increasing** `pub_seq` — no
//!   duplicates, no regressions, across any number of reconnects;
//! * healthy clients (no stalls, no disconnects, ample queue) observe a
//!   **contiguous** sequence after their initial reseed — zero gaps;
//! * chaos clients may see gaps, but only conflation-made ones: their
//!   final per-flight state is [`views_equivalent`] to the mirror's, so
//!   every loss is proven equivalent to overwriting by newer state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mirror_core::event::{Event, FlightStatus, PositionFix};
use mirror_echo::faults::{FaultPlan, FaultyTransport};
use mirror_echo::{Frame, Polled, SubscriptionFilter, TcpTransport, Transport};
use mirror_ede::OperationalState;
use mirror_edge::tcp::EdgeTcp;
use mirror_edge::{views_equivalent, EdgeConfig};
use mirror_runtime::{Cluster, ClusterConfig};

const EVENTS: u64 = 3000;
const FLIGHTS: u32 = 8;
const DEADLINE: Duration = Duration::from_secs(60);

fn fix(seq: u64) -> PositionFix {
    PositionFix {
        lat: seq as f64 * 0.01,
        lon: 2.0,
        alt_ft: 31000.0,
        speed_kts: 450.0,
        heading_deg: 90.0,
    }
}

/// What one subscriber observed by the end of the run.
struct Observed {
    state: OperationalState,
    last: u64,
    gaps: u64,
    reconnects: u64,
}

/// Drive one subscriber until it has consumed up to `target` (set once the
/// feed is fully published). `stall` adds a seeded read-throttle schedule;
/// `disconnect_after` > 0 drops the socket after that many event frames on
/// each connection and resumes on a fresh one.
fn run_client(
    addr: std::net::SocketAddr,
    client: u64,
    stall: Option<(u32, u32)>,
    disconnect_after: u64,
    target: Arc<AtomicU64>,
) -> Observed {
    let deadline = Instant::now() + DEADLINE;
    let fault_state = stall.map(|(per_mille, ticks)| {
        FaultPlan::new(0xC0FFEE ^ client).stalls(per_mille, ticks).state()
    });
    let mut state = OperationalState::new();
    let mut last = 0u64;
    let mut gaps = 0u64;
    let mut reconnects = 0u64;
    let mut subscribed = false;
    'cycles: loop {
        assert!(Instant::now() < deadline, "client {client} timed out (last={last})");
        let inner = TcpTransport::connect(addr).expect("connect");
        let mut conn: Box<dyn Transport> = match &fault_state {
            Some(s) => Box::new(FaultyTransport::with_state(inner, Arc::clone(s))),
            None => Box::new(inner),
        };
        if subscribed {
            reconnects += 1;
            conn.send(&Frame::Resume { client, last_seq: last }).expect("send resume");
        } else {
            conn.send(&Frame::Subscribe { client, filter: SubscriptionFilter::All })
                .expect("send subscribe");
            subscribed = true;
        }
        let mut events_this_conn = 0u64;
        loop {
            assert!(Instant::now() < deadline, "client {client} timed out (last={last})");
            let done = {
                let t = target.load(Ordering::Acquire);
                t != 0 && last >= t
            };
            if done {
                break 'cycles;
            }
            match conn.recv_timeout(Duration::from_millis(1)) {
                Ok(Polled::Frame(Frame::Reseed { pub_seq, snapshot })) => {
                    // A reseed never rewinds: its frontier covers at least
                    // everything this client already consumed.
                    assert!(
                        pub_seq >= last,
                        "client {client}: reseed floor {pub_seq} below consumed {last}"
                    );
                    let snap = mirror_echo::wire::decode_snapshot(snapshot).expect("decode reseed");
                    state = snap.into_state();
                    last = pub_seq;
                }
                Ok(Polled::Frame(Frame::DeltaSnapshot { pub_seq, delta })) => {
                    // A delta reseed: the resume fell behind the retained
                    // window but the server still remembered the client's
                    // frontier as a delta base — only the flights that
                    // changed since travel, folded onto held state.
                    assert!(
                        pub_seq >= last,
                        "client {client}: delta reseed floor {pub_seq} below consumed {last}"
                    );
                    let d = mirror_echo::wire::decode_delta(delta).expect("decode delta reseed");
                    state.apply_delta(&d);
                    last = pub_seq;
                }
                Ok(Polled::Frame(Frame::EdgeEvent { pub_seq, event })) => {
                    // Strictly increasing: no duplicate, no regression —
                    // the resume replay starts exactly after last_seq.
                    assert!(
                        pub_seq > last,
                        "client {client}: pub_seq {pub_seq} after {last} (dup or regression)"
                    );
                    if pub_seq != last + 1 {
                        gaps += 1;
                    }
                    state.apply(&event);
                    last = pub_seq;
                    events_this_conn += 1;
                    if disconnect_after > 0 && events_this_conn >= disconnect_after {
                        // Seeded mid-stream drop; resume on the next cycle.
                        continue 'cycles;
                    }
                }
                Ok(Polled::Frame(f)) => panic!("client {client}: unexpected frame {f:?}"),
                Ok(Polled::Idle) => continue,
                Ok(Polled::Eof) | Err(_) => continue 'cycles,
            }
        }
    }
    Observed { state, last, gaps, reconnects }
}

#[test]
fn reconnect_resume_under_stalls_and_disconnects_is_gap_free_or_conflation_only() {
    let cluster = Cluster::start(ClusterConfig { mirrors: 1, ..Default::default() });
    // Small retained window relative to the stream: resumes that fall
    // behind it exercise the cached-snapshot reseed path, not just replay.
    let edge = cluster
        .serve_edge(
            1,
            EdgeConfig {
                window: 1024,
                queue_cap: 8192,
                max_pending: 4096,
                workers: 2,
                ..Default::default()
            },
        )
        .expect("edge on mirror 1");
    let front = EdgeTcp::serve(Arc::clone(&edge), "127.0.0.1:0").expect("bind edge tcp");
    let addr = front.local_addr();

    let target = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for client in 0..6u64 {
        let target = Arc::clone(&target);
        let (stall, disconnect_after) = match client {
            // Healthy cohort: tight polling, stable socket.
            0 | 1 => (None, 0),
            // Read-stalled, frequently dropping chaos cohort.
            2 | 3 => (Some((150, 5)), 120),
            // Heavily stalled, rarely reading: maximal conflation, and
            // resumes that outlive the retained window.
            _ => (Some((300, 12)), 60),
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("edge-sub-{client}"))
                .spawn(move || run_client(addr, client, stall, disconnect_after, target))
                .expect("spawn subscriber"),
        );
    }

    // Every subscriber attaches before the feed starts: one attaching
    // after the stream is applied would never be disconnected mid-stream.
    let attach_deadline = Instant::now() + Duration::from_secs(20);
    while edge.counters().snapshot().connects_total < 6 {
        assert!(Instant::now() < attach_deadline, "six subscribers attach");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Feed: per-flight monotone positions with a forward status advance
    // sprinkled in — the absolute-and-monotone-per-kind discipline the
    // conflation-equivalence theorem rests on.
    let mut status_idx = [0usize; FLIGHTS as usize];
    for seq in 1..=EVENTS {
        let flight = (seq % u64::from(FLIGHTS)) as u32;
        if seq % 100 == 0 {
            let idx = &mut status_idx[flight as usize];
            if *idx + 1 < FlightStatus::ALL.len() {
                *idx += 1;
                cluster.submit(Event::delta_status(seq, flight, FlightStatus::ALL[*idx]));
                continue;
            }
        }
        cluster.submit(Event::faa_position(seq, flight, fix(seq)));
    }
    assert!(cluster.wait_all_processed(EVENTS, Duration::from_secs(20)));

    // Everything applied; wait for the update pump to drain into the
    // edge (pub_seq stable), then release the clients' finish line.
    let mut stable = 0;
    let mut last_seen = edge.pub_seq();
    while stable < 5 {
        std::thread::sleep(Duration::from_millis(20));
        let now = edge.pub_seq();
        if now == last_seen && now > 0 {
            stable += 1;
        } else {
            stable = 0;
            last_seen = now;
        }
    }
    target.store(last_seen, Ordering::Release);

    let mirror_state = cluster.snapshot(1).expect("mirror snapshot").into_state();
    let mut total_reconnects = 0u64;
    for (client, h) in handles.into_iter().enumerate() {
        let obs = h.join().expect("subscriber thread");
        assert_eq!(obs.last, last_seen, "client {client} consumed to the frontier");
        if client < 2 {
            assert_eq!(
                obs.gaps, 0,
                "healthy client {client} must observe a contiguous stream (zero gaps)"
            );
            assert_eq!(obs.reconnects, 0);
        } else {
            total_reconnects += obs.reconnects;
        }
        // The resume/reseed/conflation pipeline converged: identical
        // per-flight state, every loss conflation-only.
        assert_eq!(
            obs.state.flights().len(),
            mirror_state.flights().len(),
            "client {client} flight set"
        );
        for (id, view) in mirror_state.flights().iter() {
            let got = obs
                .state
                .flight(*id)
                .unwrap_or_else(|| panic!("client {client}: flight {id} missing"));
            assert!(
                views_equivalent(view, got),
                "client {client} diverged on flight {id}:\n mirror: {view:?}\n client: {got:?}"
            );
        }
    }
    assert!(
        total_reconnects >= 4,
        "the chaos cohort must actually have disconnected and resumed (got {total_reconnects})"
    );
    let stats = edge.counters().snapshot();
    assert!(
        stats.connects_total >= 6 + total_reconnects,
        "every reconnect re-attached (replay or reseed): connects_total={} reconnects={}",
        stats.connects_total,
        total_reconnects
    );
    drop(front);
    cluster.shutdown();
}
