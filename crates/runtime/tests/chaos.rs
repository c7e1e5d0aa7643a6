//! Chaos tests: the full cluster over faulty, resilient transport links.
//!
//! These are the integration-level counterpart of the unit tests in
//! `mirror_echo::resilient`: a real [`Cluster`] with a bridged mirror whose
//! downlink and uplink both run through a seeded [`FaultPlan`] (dropping,
//! duplicating, reordering frames and forcing disconnects), asserting the
//! paper-level guarantees survive —
//!
//! * every source event reaches the remote EDE **exactly once, in order**,
//! * transient link outages heal below the `suspect_after` failure
//!   detector's horizon (no spurious dead-mirror exclusion),
//! * a link whose retry budget is exhausted escalates to dead-mirror
//!   exclusion, after which central failover still works,
//! * the injected fault schedule is a pure function of its seed.

use std::io;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mirror_core::api::{MirrorConfig, MirrorHandle};
use mirror_core::event::{Event, PositionFix};
use mirror_echo::faults::{FaultPlan, FaultSummary, FaultyTransport};
use mirror_echo::resilient::{ResilientTransport, RetryPolicy};
use mirror_echo::transport::{inproc_rendezvous, InProcDialer, InProcListener, Polled};
use mirror_echo::wire::{encode_batch_from_encoded, encode_frame, Frame};
use mirror_echo::Transport;
use mirror_runtime::bridge::{central_endpoint, mirror_endpoint};
use mirror_runtime::{Cluster, ClusterConfig, MirrorSite, RuntimeClock};

fn fix() -> PositionFix {
    PositionFix { lat: 47.6, lon: -122.3, alt_ft: 31_000.0, speed_kts: 440.0, heading_deg: 90.0 }
}

/// A connector that dials the in-process rendezvous and wraps every fresh
/// connection in a [`FaultyTransport`] sharing one fault schedule, so the
/// schedule continues across reconnects.
fn faulty_dialer(
    mut dialer: InProcDialer,
    state: Arc<Mutex<mirror_echo::faults::FaultState>>,
) -> impl FnMut() -> io::Result<Box<dyn Transport>> {
    move || {
        let raw = dialer.dial()?;
        Ok(Box::new(FaultyTransport::with_state(raw, Arc::clone(&state))) as Box<dyn Transport>)
    }
}

fn acceptor(mut listener: InProcListener) -> impl FnMut() -> io::Result<Box<dyn Transport>> {
    move || listener.accept(Duration::from_millis(10)).map(|t| Box::new(t) as Box<dyn Transport>)
}

/// The acceptance-criteria scenario: a cluster whose roster includes a
/// *bridged* mirror (site 2) reached only over chaos links. The fault plan
/// drops ≥10% of frames, duplicates frames and forces repeated
/// disconnects on both directions, yet every event must arrive exactly
/// once, in order, the remote EDE must converge to the central state, and
/// the failure detector must not excommunicate the mirror over transient
/// stalls the resilient layer heals.
#[test]
fn bridged_mirror_survives_chaos_links() {
    const N: u64 = 400;

    // Roster holds sites 1 and 2; site 2's in-process incarnation is
    // stopped immediately and replaced by a bridged remote below, so its
    // checkpoint replies genuinely cross the faulty uplink.
    let cluster =
        Cluster::start(ClusterConfig { mirrors: 2, suspect_after: 4, ..Default::default() });
    cluster.fail_mirror(2).unwrap();

    // Two unidirectional links, both resilient, both faulty on the
    // sending side. The bridge writer batches bursts into single frames,
    // so only tens of frames cross the downlink for 400 events — the
    // fault schedule is correspondingly denser than `chaos()` (which is
    // tuned for one frame per event) so drops, dups and disconnects all
    // still fire within the reduced frame count. The sparse uplink (one
    // CHKPT_REP per round) gets a denser disconnect schedule so it too
    // must reconnect.
    let (down_dialer, down_listener) = inproc_rendezvous("chaos.down");
    let (up_dialer, up_listener) = inproc_rendezvous("chaos.up");
    // Seed 98 is chosen so the deterministic per-index rolls fire a drop
    // (idx 2) and unconditional duplicates (idx 1, 4, 6, 8 — dup-positive,
    // drop- and reorder-negative, not a disconnect multiple) within the
    // first handful of frames: even the fastest runs, which batch the
    // whole stream into ~20 frames, exercise every fault kind.
    let down_faults =
        FaultPlan::new(98).drops(250).dups(250).reorders(100).disconnect_every(5).state();
    let up_faults = FaultPlan::new(9).drops(200).dups(150).disconnect_every(4).state();

    let down_tx = ResilientTransport::new(
        faulty_dialer(down_dialer, Arc::clone(&down_faults)),
        RetryPolicy::fast(200),
        "central.down",
    );
    let down_rx = ResilientTransport::new(
        acceptor(down_listener),
        RetryPolicy::fast(1_000_000),
        "mirror.down",
    );
    let up_tx = ResilientTransport::new(
        faulty_dialer(up_dialer, Arc::clone(&up_faults)),
        RetryPolicy::fast(200),
        "mirror.up",
    );
    let up_rx =
        ResilientTransport::new(acceptor(up_listener), RetryPolicy::fast(1_000_000), "central.up");
    let down_mon = down_tx.monitor();
    let stops =
        [down_tx.stop_handle(), down_rx.stop_handle(), up_tx.stop_handle(), up_rx.stop_handle()];
    cluster.attach_link_monitor(2, Arc::clone(&down_mon));

    let (data, ctrl_down, ctrl_up) = cluster.channels();
    let central_bridge =
        central_endpoint(data, ctrl_down, ctrl_up.publisher(), Box::new(down_tx), Box::new(up_rx));
    let ((bridged, order_sub), mirror_bridge) =
        mirror_endpoint(Box::new(down_rx), Box::new(up_tx), |data, ctrl_down, ctrl_up| {
            // Tap the bridged data channel alongside the site: the exact
            // delivery order as it came off the resilient link.
            let sub = data.subscribe();
            let site = MirrorSite::start(
                MirrorHandle::new(MirrorConfig::default().build_mirror(2)),
                RuntimeClock::new(),
                data,
                ctrl_down,
                ctrl_up.publisher(),
            );
            (site, sub)
        });

    // Stream the source events with flow control: keep the bridged mirror
    // (and the checkpoint rounds its replies feed) within ~2 rounds of
    // the central so the failure detector measures the link's recovery,
    // not this test box's scheduling. Gating on the *committed* stamp
    // matters: commits need site 2's replies across the chaotic uplink,
    // so reply lag in rounds — what suspect_after actually counts — stays
    // bounded however slowly the link heals. (A real source is paced by
    // its sensors; a submit-as-fast-as-possible loop on a loaded CI
    // machine is not a link failure.)
    for seq in 1..=N {
        cluster.submit(Event::faa_position(seq, (seq % 20) as u32, fix()));
        if seq % 50 == 0 {
            let target = seq.saturating_sub(100);
            let catch_up = Instant::now() + Duration::from_secs(10);
            while Instant::now() < catch_up {
                let committed_ok =
                    cluster.central().committed().is_some_and(|s| s.get(0) >= target);
                if bridged.processed() >= target && committed_ok {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }

    // The remote EDE must absorb the full stream despite the chaos.
    let deadline = Instant::now() + Duration::from_secs(30);
    while bridged.processed() < N && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        bridged.processed(),
        N,
        "bridged mirror must process every event exactly once \
         (down={:?} up={:?})",
        down_faults.lock().unwrap().summary(),
        up_faults.lock().unwrap().summary(),
    );
    assert_eq!(bridged.state_hash(), cluster.central().state_hash(), "remote EDE must converge");

    // Exactly-once, in-order delivery as observed at the channel tap: the
    // tap's queue holds every delivery, so read it until it stays quiet.
    let mut seqs = Vec::new();
    while let Some(e) = order_sub.recv_timeout(Duration::from_millis(20)) {
        seqs.push(e.seq);
    }
    assert_eq!(seqs.len() as u64, N, "no duplicate or lost deliveries");
    assert!(seqs.iter().copied().eq(1..=N), "delivery order must match submission order");

    // The chaos actually happened: frames were dropped, duplicated, and
    // both links were forced down at least once. Batching also actually
    // happened: far fewer frames crossed the downlink than events were
    // submitted (each frame additionally carries checkpoint control
    // traffic and retransmissions, so the bound is loose).
    let down_sum = down_faults.lock().unwrap().summary();
    let up_sum = up_faults.lock().unwrap().summary();
    assert!(down_sum.sent < N / 2, "batching must coalesce events into frames: {down_sum:?}");
    assert!(down_sum.dropped > 0, "downlink drops: {down_sum:?}");
    assert!(down_sum.duplicated > 0, "downlink duplicates: {down_sum:?}");
    assert!(down_sum.disconnects >= 1, "downlink disconnects: {down_sum:?}");
    assert!(up_sum.disconnects >= 1, "uplink disconnects: {up_sum:?}");

    // ...the resilient layer healed it (visible in the status table's
    // link-health column), and the failure detector saw recovery, not
    // death: transient stalls stay below the suspect_after horizon.
    let health = cluster.link_health();
    let (site, down_health) = &health[0];
    assert_eq!(*site, 2);
    assert!(down_health.connects > 1, "downlink must have reconnected: {down_health:?}");
    assert!(down_health.retransmitted > 0, "downlink must have retransmitted: {down_health:?}");
    assert_eq!(down_health.delivered, 0, "one-way link: central side only sends");
    assert!(cluster.failed_mirrors().is_empty(), "no spurious exclusion under transient faults");

    // Orderly teardown: bridges first, then the resilient engines'
    // reconnection loops, then the sites.
    central_bridge.stop();
    mirror_bridge.stop();
    for s in &stops {
        s.store(true, Ordering::SeqCst);
    }
    central_bridge.join();
    mirror_bridge.join();
    let mut bridged = bridged;
    bridged.stop();
    cluster.shutdown();
}

/// Drive `n` data frames across one faulty resilient link,
/// single-threaded, and report what the schedule injected.
fn drive_chaos_link(plan: FaultPlan, n: u64) -> (Vec<u64>, FaultSummary, u64) {
    let (dialer, listener) = inproc_rendezvous("chaos.det");
    let state = plan.state();
    let mut tx = ResilientTransport::new(
        faulty_dialer(dialer, Arc::clone(&state)),
        RetryPolicy::fast(50),
        "det.tx",
    );
    let mut rx =
        ResilientTransport::new(acceptor(listener), RetryPolicy::fast(1_000_000), "det.rx");

    let mut got = Vec::new();
    let mut sent = 0u64;
    let deadline = Instant::now() + Duration::from_secs(20);
    while got.len() < n as usize && Instant::now() < deadline {
        if sent < n {
            sent += 1;
            tx.send(&Frame::Data(Arc::new(Event::faa_position(sent, 1, fix())))).unwrap();
        } else {
            tx.tick(Duration::from_millis(1));
        }
        while let Ok(Polled::Frame(Frame::Data(e))) = rx.recv_timeout(Duration::from_millis(1)) {
            got.push(e.seq);
        }
    }
    let summary = state.lock().unwrap().summary();
    let connects = tx.monitor().health().connects;
    (got, summary, connects)
}

/// Same seed ⇒ same injected schedule, byte for byte: the counters are a
/// pure function of (seed, frame index), never of timing.
#[test]
fn fault_injection_is_deterministic_per_seed() {
    let (got_a, sum_a, conn_a) = drive_chaos_link(FaultPlan::chaos(1234), 250);
    let (got_b, sum_b, conn_b) = drive_chaos_link(FaultPlan::chaos(1234), 250);
    assert!(got_a.iter().copied().eq(1..=250), "exactly once, in order");
    assert_eq!(got_a, got_b);
    assert_eq!(sum_a, sum_b, "fault schedule must replay exactly from its seed");
    assert_eq!(conn_a, conn_b);
    assert!(sum_a.dropped > 0 && sum_a.duplicated > 0 && sum_a.disconnects >= 1, "{sum_a:?}");

    let (_, sum_c, _) = drive_chaos_link(FaultPlan::chaos(4321), 250);
    assert_ne!(sum_a, sum_c, "a different seed must yield a different schedule");
}

/// Batched frames ride the resilient protocol as single units: one Seq
/// envelope covers the whole [`Frame::Batch`], so a retransmitted or
/// duplicated batch is accepted or discarded atomically. Drive batches
/// assembled the way the bridge writer does ([`encode_batch_from_encoded`]
/// over cached member encodings) across a seeded chaos link and require
/// every member event to arrive exactly once, in order.
#[test]
fn batched_frames_survive_chaos_exactly_once() {
    const BATCHES: u64 = 60;
    const PER_BATCH: u64 = 8;
    const N: u64 = BATCHES * PER_BATCH;

    let (dialer, listener) = inproc_rendezvous("chaos.batch");
    let state = FaultPlan::new(7).drops(200).dups(150).reorders(50).disconnect_every(10).state();
    let mut tx = ResilientTransport::new(
        faulty_dialer(dialer, Arc::clone(&state)),
        RetryPolicy::fast(50),
        "batch.tx",
    );
    let mut rx =
        ResilientTransport::new(acceptor(listener), RetryPolicy::fast(1_000_000), "batch.rx");

    let mut got = Vec::new();
    let mut sent = 0u64;
    let deadline = Instant::now() + Duration::from_secs(20);
    while got.len() < N as usize && Instant::now() < deadline {
        if sent < BATCHES {
            let base = sent * PER_BATCH;
            sent += 1;
            let parts: Vec<_> = (1..=PER_BATCH)
                .map(|i| {
                    encode_frame(&Frame::Data(Arc::new(Event::faa_position(base + i, 1, fix()))))
                })
                .collect();
            tx.send_encoded(&encode_batch_from_encoded(&parts)).unwrap();
        } else {
            tx.tick(Duration::from_millis(1));
        }
        while let Ok(Polled::Frame(frame)) = rx.recv_timeout(Duration::from_millis(1)) {
            match frame {
                Frame::Batch(members) => {
                    for m in members {
                        if let Frame::Data(e) = m {
                            got.push(e.seq);
                        }
                    }
                }
                Frame::Data(e) => got.push(e.seq),
                _ => {}
            }
        }
    }

    assert_eq!(got.len() as u64, N, "every batched event exactly once");
    assert!(got.iter().copied().eq(1..=N), "batch members in submission order");
    let sum = state.lock().unwrap().summary();
    assert!(
        sum.dropped > 0 && sum.duplicated > 0 && sum.disconnects >= 1,
        "the chaos must have happened: {sum:?}"
    );
}

/// A link whose retry budget is exhausted reports [`LinkEvent::Dead`]; the
/// wired-up escalator excludes the mirror from checkpoint rounds at once
/// (instead of waiting out `suspect_after` silent rounds), and central
/// failover still works afterwards.
#[test]
fn dead_link_escalates_to_exclusion_and_failover_survives() {
    let cluster = Cluster::start(ClusterConfig { mirrors: 2, ..Default::default() });
    for seq in 1..=100u64 {
        cluster.submit(Event::faa_position(seq, (seq % 10) as u32, fix()));
    }
    assert!(cluster.wait_all_processed(100, Duration::from_secs(10)));

    // Site 2's node goes dark: its process stops and its (hypothetical)
    // bridge link can no longer connect at all.
    cluster.fail_mirror(2).unwrap();
    let refused =
        || Err::<Box<dyn Transport>, _>(io::Error::new(io::ErrorKind::ConnectionRefused, "down"));
    let mut link = ResilientTransport::new(refused, RetryPolicy::fast(3), "dead.link")
        .on_event(cluster.central().link_escalator(2));
    let err = link.send(&Frame::Data(Arc::new(Event::faa_position(101, 1, fix())))).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    assert!(link.monitor().is_dead());
    assert_eq!(cluster.failed_mirrors(), vec![2], "dead link must escalate to exclusion");

    // Central failover under the same conditions: promote the surviving
    // mirror and keep serving traffic.
    cluster.stop_central();
    let survivors = cluster.promote_mirror(1).unwrap();
    assert!(!survivors.contains(&1));
    let updates = cluster.subscribe_updates();
    for seq in 101..=150u64 {
        cluster.submit(Event::faa_position(seq, (seq % 10) as u32, fix()));
    }
    let got = cluster.wait(Duration::from_secs(10), |c| c.central().processed() >= 50);
    assert!(got, "promoted central must process new traffic");
    let mut seen = 0;
    while updates.recv_timeout(Duration::from_millis(200)).is_some() {
        seen += 1;
    }
    assert!(seen >= 50, "regular clients keep receiving updates after failover, saw {seen}");
    cluster.shutdown();
}
