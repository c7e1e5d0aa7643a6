//! Airport displays at fan-out scale — the edge delivery tier.
//!
//! §2's simplest clients are flight displays: long-lived subscribers that
//! just watch derived state change. This example puts the `mirror-edge`
//! tier in front of a live mirror and drives a few hundred of them: lobby
//! displays subscribed to everything, gate displays to a handful of
//! flights each. One display loses its connection mid-stream and resumes
//! from its last received sequence — the edge replays the retained window
//! (or reseeds from a snapshot) so the display converges without ever
//! re-fetching the world.
//!
//! Run with: `cargo run --example edge_fanout`

use std::time::Duration;

use adaptable_mirroring::core::event::{Event, FlightStatus, PositionFix};
use adaptable_mirroring::echo::SubscriptionFilter;
use adaptable_mirroring::ede::OperationalState;
use adaptable_mirroring::edge::{views_equivalent, Delivery, EdgeClient, EdgeConfig};
use adaptable_mirroring::runtime::{Cluster, ClusterConfig};

const DISPLAYS: u64 = 300;
const FLIGHTS: u32 = 16;
const EVENTS: u64 = 600;

fn fix(seq: u64) -> PositionFix {
    PositionFix {
        lat: 33.0 + (seq % 13) as f64 * 0.5,
        lon: -84.0 - (seq % 7) as f64 * 0.3,
        alt_ft: 31_000.0,
        speed_kts: 455.0,
        heading_deg: (seq % 360) as f64,
    }
}

/// Drain everything currently queued for a display into its local state,
/// returning the last publication sequence it reached.
fn drain(display: &EdgeClient, state: &mut OperationalState, last: &mut u64) {
    while let Ok(Some(d)) = display.poll() {
        match d {
            Delivery::Event(ev) => {
                state.apply(ev.event());
                *last = ev.pub_seq();
            }
            Delivery::Reseed { pub_seq, snapshot } => {
                let snap = adaptable_mirroring::echo::wire::decode_snapshot(snapshot)
                    .expect("decode reseed snapshot");
                *state = snap.into_state();
                *last = pub_seq;
            }
            Delivery::DeltaReseed { pub_seq, delta } => {
                let d = adaptable_mirroring::echo::wire::decode_delta(delta)
                    .expect("decode delta reseed");
                state.apply_delta(&d);
                *last = pub_seq;
            }
        }
    }
}

fn main() {
    let cluster = Cluster::start(ClusterConfig { mirrors: 1, ..Default::default() });
    let edge = cluster.serve_edge(1, EdgeConfig::default()).expect("edge tier on mirror 1");

    // The display wall: every tenth display is a lobby board (all
    // flights); the rest are gate boards watching two flights each.
    let mut displays: Vec<EdgeClient> = (0..DISPLAYS)
        .map(|id| {
            let filter = if id % 10 == 0 {
                SubscriptionFilter::All
            } else {
                SubscriptionFilter::Flights(vec![(id % u64::from(FLIGHTS)) as u32, 0])
            };
            edge.subscribe(id, filter)
        })
        .collect();
    println!("{} displays subscribed ({} known to the edge)", DISPLAYS, edge.known_clients());

    // A morning of operations, streamed through the cluster. Display 0
    // (a lobby board) is rebooted halfway through.
    let mut lobby_state = OperationalState::new();
    let mut lobby_last = 0u64;
    for seq in 1..=EVENTS {
        let flight = (seq % u64::from(FLIGHTS)) as u32;
        if seq % 40 == 0 {
            cluster.submit(Event::delta_status(seq, flight, FlightStatus::Boarding));
        } else {
            cluster.submit(Event::faa_position(seq, flight, fix(seq)));
        }
        if seq % 25 == 0 {
            // Pace the feed so pushes flow to the wall mid-run.
            std::thread::sleep(Duration::from_millis(5));
        }
        if seq == EVENTS / 2 {
            let lobby = displays.remove(0);
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while lobby_last == 0 {
                drain(&lobby, &mut lobby_state, &mut lobby_last);
                assert!(std::time::Instant::now() < deadline, "no deliveries before reboot");
                std::thread::sleep(Duration::from_millis(5));
            }
            println!("lobby display reboots at pub_seq {lobby_last}…");
            lobby.disconnect();
        }
    }
    assert!(cluster.wait_all_processed(EVENTS, Duration::from_secs(10)));

    // Mirror 1 fans each applied run out before it counts the run
    // processed, so the edge has published every update by now.
    let frontier = edge.pub_seq();

    // The rebooted display resumes from its last received sequence: the
    // edge replays the retained window from exactly there, before
    // `resume` returns.
    let lobby = edge.resume(0, lobby_last).expect("resume display 0");
    drain(&lobby, &mut lobby_state, &mut lobby_last);
    println!("…and resumes to pub_seq {lobby_last} ({frontier} published)");
    assert_eq!(lobby_last, frontier, "the resumed display caught all the way up");

    // It converged to exactly the mirror's state.
    let mirror_state = cluster.snapshot(1).expect("mirror snapshot").into_state();
    for (id, view) in mirror_state.flights().iter() {
        let got = lobby_state.flight(*id).expect("resumed display has every flight");
        assert!(views_equivalent(view, got), "display diverged on flight {id}");
    }

    // Meanwhile the rest of the wall kept receiving pushes the whole time.
    let mut delivered_somewhere = 0u64;
    for d in &displays {
        let mut s = OperationalState::new();
        let mut l = 0u64;
        drain(d, &mut s, &mut l);
        delivered_somewhere += u64::from(l > 0);
    }
    let stats = edge.counters().snapshot();
    println!(
        "edge: {} published, {} frames delivered across {} displays \
         ({} live connections)",
        stats.published, stats.delivered, DISPLAYS, stats.connections
    );
    assert!(delivered_somewhere > 0);
    drop(lobby);
    drop(displays);
    cluster.shutdown();
    println!("done.");
}
