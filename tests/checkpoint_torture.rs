//! Torture tests for the checkpointing protocol: drive the three state
//! machines (coordinator, mirror relays, main-unit responders) through
//! seeded-random schedules of event mirroring, round initiation, and
//! control-message delivery with arbitrary delays and interleavings —
//! asserting the protocol's safety invariants after every step.
//!
//! Safety invariants (from the paper's §3.2.1 argument):
//!
//! 1. **Commit validity** — a committed timestamp is never beyond what any
//!    participant had processed when it replied (commits are minima).
//! 2. **Commit monotonicity** — the coordinator's committed frontier only
//!    advances.
//! 3. **Prune safety** — pruning at a commit never discards an event that
//!    a lagging mirror still needs (every pruned event is dominated by a
//!    stamp every participant has processed).
//! 4. **Subsumption** — abandoning rounds and losing (reordering) control
//!    messages never wedges the protocol: a final fully-delivered round
//!    always commits the common frontier.

use adaptable_mirroring::core::adapt::MonitorReport;
use adaptable_mirroring::core::checkpoint::{
    CentralCheckpointer, CheckpointMsg, MainUnitResponder, MirrorRelay,
};
use adaptable_mirroring::core::event::{Event, EventBody, FlightStatus};
use adaptable_mirroring::core::queue::BackupQueue;
use adaptable_mirroring::core::timestamp::VectorTimestamp;
use adaptable_mirroring::core::ControlMsg;
use adaptable_mirroring::workload::rng::{check, Rng};

/// One mirror's world: relay + backup queue + main responder + how far its
/// EDE has processed the (single) stream.
struct MirrorWorld {
    relay: MirrorRelay,
    backup: BackupQueue,
    main: MainUnitResponder,
    processed: u64,
    /// Mirrored events received but not yet "processed" by the main unit.
    inbox: Vec<Event>,
    /// Control messages in flight toward this mirror (arbitrarily delayed).
    ctrl_in: Vec<ControlMsg>,
}

fn stamped(seq: u64) -> Event {
    let mut e = Event::new(0, seq, 1, EventBody::Status(FlightStatus::EnRoute));
    e.stamp.advance(0, seq);
    e
}

/// A scripted step of the torture schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Central mirrors the next `n` events to everyone.
    Mirror(u8),
    /// Mirror `m` processes up to `n` inbox events through its main unit.
    Process(u8, u8),
    /// Central initiates a checkpoint round.
    Begin,
    /// Deliver the oldest in-flight control message at mirror `m`.
    DeliverCtrl(u8),
    /// Mirror `m`'s main unit answers the oldest pending CHKPT.
    AnswerChkpt(u8),
    /// Drop the oldest in-flight control message at mirror `m`
    /// (the protocol tolerates lost control events).
    DropCtrl(u8),
}

fn arb_step(rng: &mut Rng, mirrors: u8) -> Step {
    let m = rng.gen_range(0..mirrors);
    match rng.gen_range(0..6u32) {
        0 => Step::Mirror(rng.gen_range(1..5)),
        1 => Step::Process(m, rng.gen_range(1..5)),
        2 => Step::Begin,
        3 => Step::DeliverCtrl(m),
        4 => Step::AnswerChkpt(m),
        _ => Step::DropCtrl(m),
    }
}

/// Run a schedule; panic on any invariant violation.
fn run_schedule(mirror_count: u8, steps: Vec<Step>) {
    let sites: Vec<u16> = (1..=mirror_count as u16).collect();
    let mut central = CentralCheckpointer::new(sites.clone());
    let mut central_backup = BackupQueue::new();
    let mut central_main = MainUnitResponder::new(0);
    let mut worlds: Vec<MirrorWorld> = sites
        .iter()
        .map(|&s| MirrorWorld {
            relay: MirrorRelay::new(),
            backup: BackupQueue::new(),
            main: MainUnitResponder::new(s),
            processed: 0,
            inbox: Vec::new(),
            ctrl_in: Vec::new(),
        })
        .collect();
    let mut next_seq = 0u64;
    let mut last_committed = VectorTimestamp::empty();
    // Pending CHKPTs awaiting a main-unit answer, per mirror.
    let mut pending_chkpt: Vec<Vec<ControlMsg>> = vec![Vec::new(); mirror_count as usize];
    // Replies in flight toward the central site.
    let mut replies_in_flight: Vec<(u64, u16, VectorTimestamp)> = Vec::new();

    fn apply_commit_msgs(
        msgs: Vec<CheckpointMsg>,
        worlds: &mut [MirrorWorld],
        central_main: &mut MainUnitResponder,
        replies_in_flight: &mut Vec<(u64, u16, VectorTimestamp)>,
    ) {
        for m in msgs {
            match m {
                CheckpointMsg::BroadcastToMirrors(c) => {
                    for w in worlds.iter_mut() {
                        w.ctrl_in.push(c.clone());
                    }
                }
                CheckpointMsg::ToLocalMain(c) => {
                    // Central main answers CHKPT immediately (it processes
                    // in lock-step here) and applies commits.
                    if let Some(ControlMsg::ChkptRep { round, site, stamp, .. }) =
                        central_main.on_chkpt(&c, MonitorReport::default())
                    {
                        replies_in_flight.push((round, site, stamp));
                    }
                    central_main.on_commit(&c);
                }
                CheckpointMsg::ToCentral(_) => unreachable!("central emits no ToCentral"),
            }
        }
    }

    for step in steps {
        match step {
            Step::Mirror(n) => {
                for _ in 0..n {
                    next_seq += 1;
                    let e = stamped(next_seq);
                    central_backup.push(e.clone());
                    central_main.record_processed(&e.stamp);
                    for w in worlds.iter_mut() {
                        w.backup.push(e.clone());
                        w.inbox.push(e.clone());
                    }
                }
            }
            Step::Process(m, n) => {
                let w = &mut worlds[m as usize];
                for _ in 0..n.min(w.inbox.len() as u8) {
                    let e = w.inbox.remove(0);
                    w.processed = w.processed.max(e.seq);
                    w.main.record_processed(&e.stamp);
                }
            }
            Step::Begin => {
                let proposal = central_backup.last_stamp().clone();
                let msgs = central.begin(proposal);
                apply_commit_msgs(msgs, &mut worlds, &mut central_main, &mut replies_in_flight);
            }
            Step::DeliverCtrl(m) => {
                let w = &mut worlds[m as usize];
                if w.ctrl_in.is_empty() {
                    continue;
                }
                let c = w.ctrl_in.remove(0);
                match &c {
                    ControlMsg::Chkpt { .. } => {
                        let out = w.relay.on_chkpt(c.clone());
                        for o in out {
                            if let CheckpointMsg::ToLocalMain(cc) = o {
                                pending_chkpt[m as usize].push(cc);
                            }
                        }
                    }
                    ControlMsg::Commit { stamp, .. } => {
                        // Invariant 3 (prune safety): everything this commit
                        // prunes must be processed by EVERY live participant.
                        let min_processed = worlds
                            .iter()
                            .map(|w| w.main.processed().get(0))
                            .chain(std::iter::once(central_main.processed().get(0)))
                            .min()
                            .unwrap();
                        assert!(
                            stamp.get(0) <= min_processed,
                            "commit {} beyond global processed frontier {}",
                            stamp.get(0),
                            min_processed
                        );
                        let w = &mut worlds[m as usize];
                        let (_pruned, fwd) = w.relay.on_commit(c.clone(), &mut w.backup);
                        for o in fwd {
                            if let CheckpointMsg::ToLocalMain(cc) = o {
                                w.main.on_commit(&cc);
                            }
                        }
                    }
                    ControlMsg::ChkptRep { .. } => unreachable!(),
                }
            }
            Step::AnswerChkpt(m) => {
                if pending_chkpt[m as usize].is_empty() {
                    continue;
                }
                let c = pending_chkpt[m as usize].remove(0);
                let w = &mut worlds[m as usize];
                if let Some(ControlMsg::ChkptRep { round, site, stamp, .. }) =
                    w.main.on_chkpt(&c, MonitorReport::default())
                {
                    let out = w.relay.on_main_reply(
                        round,
                        site,
                        stamp,
                        MonitorReport::default(),
                        0,
                        &w.backup,
                    );
                    for o in out {
                        if let CheckpointMsg::ToCentral(ControlMsg::ChkptRep {
                            round,
                            site,
                            stamp,
                            ..
                        }) = o
                        {
                            replies_in_flight.push((round, site, stamp));
                        }
                    }
                }
            }
            Step::DropCtrl(m) => {
                let w = &mut worlds[m as usize];
                if !w.ctrl_in.is_empty() {
                    w.ctrl_in.remove(0);
                }
            }
        }

        // Drain replies to the coordinator after every step (arrival order
        // is already randomized by when AnswerChkpt steps happen).
        while let Some((round, site, stamp)) = replies_in_flight.pop() {
            // Invariant 1: a reply never claims more than the site processed.
            if site != 0 {
                let w = &worlds[(site - 1) as usize];
                assert!(stamp.get(0) <= w.main.processed().get(0), "reply beyond processed");
            }
            if let Some((commit, msgs)) = central.on_reply(round, site, stamp, 0) {
                // Invariant 2: monotone commits.
                assert!(
                    last_committed.dominated_by(&commit),
                    "commit regressed: {last_committed} then {commit}"
                );
                last_committed = commit.clone();
                central_backup.prune(&commit);
                apply_commit_msgs(msgs, &mut worlds, &mut central_main, &mut replies_in_flight);
            }
        }
    }

    // Invariant 4 (liveness via subsumption): a final, fully-delivered
    // round commits the common frontier.
    let msgs = central.begin(central_backup.last_stamp().clone());
    apply_commit_msgs(msgs, &mut worlds, &mut central_main, &mut replies_in_flight);
    for m in 0..mirror_count {
        // Deliver everything outstanding, then answer the newest CHKPT.
        while !worlds[m as usize].ctrl_in.is_empty() {
            let c = worlds[m as usize].ctrl_in.remove(0);
            if let ControlMsg::Chkpt { .. } = &c {
                let out = worlds[m as usize].relay.on_chkpt(c);
                for o in out {
                    if let CheckpointMsg::ToLocalMain(cc) = o {
                        pending_chkpt[m as usize].push(cc);
                    }
                }
            } else if let ControlMsg::Commit { .. } = &c {
                let w = &mut worlds[m as usize];
                let _ = w.relay.on_commit(c, &mut w.backup);
            }
        }
        while let Some(c) = pending_chkpt[m as usize].pop() {
            let w = &mut worlds[m as usize];
            if let Some(ControlMsg::ChkptRep { round, site, stamp, .. }) =
                w.main.on_chkpt(&c, MonitorReport::default())
            {
                let out = w.relay.on_main_reply(
                    round,
                    site,
                    stamp,
                    MonitorReport::default(),
                    0,
                    &w.backup,
                );
                for o in out {
                    if let CheckpointMsg::ToCentral(ControlMsg::ChkptRep {
                        round,
                        site,
                        stamp,
                        ..
                    }) = o
                    {
                        replies_in_flight.push((round, site, stamp));
                    }
                }
            }
        }
    }
    let mut committed_final = None;
    while let Some((round, site, stamp)) = replies_in_flight.pop() {
        if let Some((commit, _)) = central.on_reply(round, site, stamp, 0) {
            committed_final = Some(commit);
        }
    }
    let expected: u64 = worlds
        .iter()
        .map(|w| w.main.processed().get(0))
        .chain(std::iter::once(central_main.processed().get(0)))
        .min()
        .unwrap();
    let commit = committed_final.expect("final fully-delivered round must commit");
    assert_eq!(
        commit.get(0),
        expected.min(next_seq),
        "final commit must equal the common processed frontier"
    );
}

#[test]
fn protocol_safety_holds_under_random_schedules_two_mirrors() {
    check("protocol_safety_holds_under_random_schedules_two_mirrors", 128, |rng| {
        let steps = rng.gen_vec(1..120, |r| arb_step(r, 2));
        run_schedule(2, steps);
    });
}

#[test]
fn protocol_safety_holds_under_random_schedules_four_mirrors() {
    check("protocol_safety_holds_under_random_schedules_four_mirrors", 128, |rng| {
        let steps = rng.gen_vec(1..200, |r| arb_step(r, 4));
        run_schedule(4, steps);
    });
}

#[test]
fn protocol_survives_pathological_drop_everything_schedule() {
    // Every control message toward mirror 0 is dropped mid-run; the final
    // fully-delivered round still commits.
    let mut steps = Vec::new();
    for _ in 0..20 {
        steps.push(Step::Mirror(3));
        steps.push(Step::Process(0, 3));
        steps.push(Step::Process(1, 3));
        steps.push(Step::Begin);
        steps.push(Step::DropCtrl(0));
        steps.push(Step::DeliverCtrl(1));
        steps.push(Step::AnswerChkpt(1));
    }
    run_schedule(2, steps);
}
