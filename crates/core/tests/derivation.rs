//! Deriving a unit from a running coordinator (`AuxUnit::successor`,
//! `AuxUnit::joining_mirror`): configuration is carried, the state of the
//! old incarnation is not.

use mirror_core::adapt::{AdaptDecision, MonitorKind, MonitorReport, ScalePolicy};
use mirror_core::metrics::AuxCounters;
use mirror_core::params::ParamId;
use mirror_core::{
    AuxAction, AuxInput, ControlMsg, Event, EventType, FlightStatus, MirrorConfig, MirrorDecision,
    MirrorHandle, PartitionMap, PositionFix, VectorTimestamp,
};

fn pos(seq: u64) -> Event {
    let fix = PositionFix { lat: 0.0, lon: 0.0, alt_ft: 1.0, speed_kts: 1.0, heading_deg: 0.0 };
    Event::faa_position(seq, 1, fix)
}

#[test]
fn derived_units_carry_configuration_and_reset_state() {
    // A coordinator with traffic behind it, configured through every
    // Table-1 setter and the cluster-level ones.
    let old = MirrorHandle::new(MirrorConfig::default().build_central(vec![1, 2, 3]));
    old.fwd(pos(1));
    old.set_params(true, 10, 1);
    old.set_overwrite(EventType::FaaPosition, 5);
    old.set_complex_seq(EventType::DeltaStatus, FlightStatus::Landed, EventType::FaaPosition);
    old.set_complex_tuple(
        vec![FlightStatus::Landed, FlightStatus::AtRunway, FlightStatus::AtGate],
        FlightStatus::Arrived,
    );
    old.set_mirror("mirror-none", |_, _| MirrorDecision::Drop);
    old.set_fwd("fwd-none", |_, _| MirrorDecision::Drop);
    old.set_monitor_values(MonitorKind::PendingRequests, 10, 7);
    old.set_adapt(ParamId::CheckpointEvery, 100);
    old.with(|a| {
        a.set_suspect_after(5);
        a.set_heartbeat_after(3);
        a.set_scale_policy(ScalePolicy::default());
        a.set_partition_map(PartitionMap::uniform(2));
    });

    let (joiner, mut next) = old.with(|a| (a.joining_mirror(9), a.successor(vec![2, 3], 4, 1, 90)));
    old.with(|old| {
        assert!(old.backup_len() > 0, "the predecessor retained its traffic");
        for unit in [&joiner, &next] {
            assert_eq!((unit.params(), unit.rules()), (old.params(), old.rules()));
            assert_eq!((unit.ready_len(), unit.backup_len()), (0, 0));
            assert_eq!(unit.counters(), AuxCounters::default());
        }
        assert_eq!(next.partition_map(), old.partition_map());
    });
    assert_eq!((joiner.site(), joiner.is_central()), (9, false));
    assert_eq!(next.live_mirrors(), Some(vec![2, 3]));
    assert_eq!((next.membership_epoch(), next.leader_term(), next.next_send_idx()), (4, 1, 90));

    // heartbeat_after: the third idle wakeup starts round 1, at term 1.
    assert!(next.idle_checkpoint().is_empty() && next.idle_checkpoint().is_empty());
    let beat = next.idle_checkpoint();
    assert!(
        beat.iter().any(|a| matches!(a, AuxAction::ControlToMirrors(m) if m.term() == 1)),
        "heartbeat: {beat:?}"
    );

    // The installed functions still drop everything, and suspect_after
    // still excludes mirror 3 once it trails mirror 2 by five rounds.
    let mut actions = Vec::new();
    for round in 2..=6 {
        actions.extend(next.handle(AuxInput::Data(pos(round).into())));
        actions.extend(next.handle(AuxInput::Control(ControlMsg::ChkptRep {
            round,
            site: 2,
            stamp: VectorTimestamp::empty(),
            monitor: MonitorReport::default(),
            term: 1,
        })));
    }
    let sent = |a: &AuxAction| matches!(a, AuxAction::Mirror { .. } | AuxAction::ForwardToMain(_));
    assert!(!actions.iter().any(sent), "set_mirror / set_fwd lost: {actions:?}");
    assert!(actions.contains(&AuxAction::MirrorFailed(3)), "suspect_after lost: {actions:?}");

    // Thresholds, action, baseline and scale policy.
    let adapt = next.adaptation_mut().expect("a coordinator");
    assert_eq!(adapt.scale_policy(), Some(&ScalePolicy::default()));
    adapt.record_report(2, MonitorReport { pending_requests: 10, ..Default::default() });
    match adapt.decide() {
        AdaptDecision::Engage(d) => assert_eq!(d.params.checkpoint_every, 2),
        other => panic!("thresholds or action lost: {other:?}"),
    }
}
