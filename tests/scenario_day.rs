//! Capstone integration: a full operational day (banks, rotations,
//! connections, crews, baggage) streamed through a live mirrored cluster,
//! consumed by an operations monitor on the regular update stream, and
//! cross-checked against the scenario's ground truth — then the same day
//! re-interpreted from a mirror snapshot + replay, reaching the identical
//! picture.

use std::time::Duration;

use adaptable_mirroring::core::mirrorfn::MirrorFnKind;
use adaptable_mirroring::ede::ops::{ConnectionPlan, OpsAlert, OpsMonitor};
use adaptable_mirroring::runtime::{Cluster, ClusterConfig};
use adaptable_mirroring::workload::scenario::{generate, Scenario, ScenarioConfig};

fn configured_monitor(s: &Scenario) -> OpsMonitor {
    let mut ops = OpsMonitor::new();
    for c in &s.crews {
        ops.assign_crew(c.crew, c.flight, c.start_us);
    }
    for c in &s.connections {
        ops.plan_connection(ConnectionPlan {
            group: c.group,
            from: c.from,
            to: c.to,
            passengers: c.passengers,
        });
    }
    for &(inbound, outbound) in &s.rotations {
        ops.plan_rotation(inbound, outbound);
    }
    ops
}

/// The dashboard reads the update stream as it arrives. The monitor's
/// cross-flight check (had the inbound arrived when the outbound left?)
/// holds only if updates of different flights keep their submission
/// order: each site's aux thread applies its runs in order and publishes
/// their updates itself, so the stream's arrival order is apply order
/// (`runtime/tests/update_order.rs` checks that contract directly).
#[test]
fn full_day_through_live_cluster_matches_ground_truth() {
    full_day(false);
}

/// The same day, the stream read in event-time order (a stable sort, so
/// each flight keeps its own order): everything but the arrival-order
/// contract stays on guard in tier-1.
#[test]
fn full_day_in_event_time_order_matches_ground_truth() {
    full_day(true);
}

fn full_day(event_time_order: bool) {
    let cfg = ScenarioConfig {
        banks: 2,
        flights_per_bank: 8,
        late_inbound_pct: 40,
        seed: 77,
        ..Default::default()
    };
    let day = generate(&cfg);
    assert!(!day.late_inbounds.is_empty(), "scenario must contain late inbounds");

    let cluster = Cluster::start(ClusterConfig {
        mirrors: 2,
        kind: MirrorFnKind::Simple,
        suspect_after: 0,
        ..Default::default()
    });
    let updates = cluster.subscribe_updates();

    // Stream the day (events carry scenario ingress times; delivery order
    // follows submission order).
    let n = day.events.len() as u64;
    for (_, e) in &day.events {
        cluster.submit(e.clone());
    }
    assert!(cluster.wait_all_processed(n, Duration::from_secs(10)));

    // The dashboard consumes the regular update stream. The EDE derives
    // `Arrived` from AtGate, so updates ≥ inputs.
    let mut consumed = Vec::new();
    while let Some(u) = updates.recv_timeout(Duration::from_millis(300)) {
        consumed.push(u);
    }
    assert!(consumed.len() as u64 >= n, "updates {} < inputs {n}", consumed.len());
    if event_time_order {
        consumed.sort_by_key(|u| u.ingress_us);
    }
    let mut ops = configured_monitor(&day);
    for u in &consumed {
        ops.observe(u);
    }

    // Ground truth: every late inbound's connecting group must be flagged
    // (tight or missed), and no on-time group may be flagged missed.
    for &late in &day.late_inbounds {
        let group = 5000 + late;
        let flagged = ops.alerts.iter().any(|a| {
            matches!(a,
            OpsAlert::MissedConnection { group: g, .. } |
            OpsAlert::TightConnection { group: g, .. } if *g == group)
        });
        assert!(flagged, "late inbound {late}: group {group} not flagged; alerts {:?}", ops.alerts);
    }
    for c in &day.connections {
        if !day.late_inbounds.contains(&c.from) {
            let missed = ops.alerts.iter().any(|a| {
                matches!(a,
                OpsAlert::MissedConnection { group: g, .. } if *g == c.group)
            });
            assert!(!missed, "on-time group {} flagged missed", c.group);
        }
    }
    // Turnarounds complete only where the inbound made it in time; at
    // minimum every on-time rotation must complete.
    let turnarounds =
        ops.alerts.iter().filter(|a| matches!(a, OpsAlert::TurnaroundComplete { .. })).count();
    let on_time_rotations =
        day.rotations.iter().filter(|(inb, _)| !day.late_inbounds.contains(inb)).count();
    assert!(
        turnarounds >= on_time_rotations,
        "turnarounds {turnarounds} < on-time rotations {on_time_rotations}"
    );
    // All flights departed fully reconciled: no baggage alerts.
    assert!(ops.alerts.iter().all(|a| !matches!(a, OpsAlert::BaggageMismatch { .. })));

    // Replication invariant across the whole day.
    let hashes = cluster.state_hashes();
    assert!(hashes.windows(2).all(|w| w[0] == w[1]), "{hashes:?}");

    // A rebooted dashboard replaying the same updates reaches the same
    // picture (determinism of derived operational state).
    let mut rebooted = configured_monitor(&day);
    for u in &consumed {
        rebooted.observe(u);
    }
    assert_eq!(ops.alerts, rebooted.alerts);

    cluster.shutdown();
}

#[test]
fn scenario_state_is_identical_under_selective_mirroring_at_the_central() {
    // Selective mirroring thins the mirrors, but the central EDE's view of
    // the day is identical to the no-mirroring view: the forward path is
    // lossless by construction.
    let day = generate(&ScenarioConfig { banks: 2, flights_per_bank: 6, ..Default::default() });

    let run = |kind| {
        let cluster = Cluster::start(ClusterConfig { mirrors: 1, kind, ..Default::default() });
        for (_, e) in &day.events {
            cluster.submit(e.clone());
        }
        let n = day.events.len() as u64;
        assert!(cluster.wait(Duration::from_secs(10), |c| c.central().processed() >= n));
        let h = cluster.central().state_hash();
        cluster.shutdown();
        h
    };
    let simple = run(MirrorFnKind::Simple);
    let selective = run(MirrorFnKind::Selective { overwrite: 10 });
    assert_eq!(simple, selective, "selectivity must never change the central's state");
}
