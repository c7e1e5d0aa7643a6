//! Checkpointing — the paper's modified two-phase commit (§3.2.1, Fig. 3).
//!
//! The central auxiliary unit coordinates; all mirror sites participate.
//! The protocol deviates from textbook 2PC in ways that exploit the
//! setting (reliable in-order intra-cluster channels, idempotent pruning):
//!
//! * **Voting phase** — the coordinator proposes a timestamp up to which the
//!   consistent view can advance (usually the most recent value in its
//!   backup queue). Each site replies with the most recent event its
//!   business logic has processed, capped by the proposal.
//! * **Commit phase** — the coordinator takes the (componentwise) minimum of
//!   all replies and issues a commit for it; every unit may then discard
//!   backup-queue events up to that value.
//! * There are **no NO votes and no ABORT messages**; no commit-phase
//!   acknowledgements are awaited; **no timeouts** are used — if a round has
//!   not committed before the next one starts, the later commit encapsulates
//!   the earlier one, and a commit naming an event a unit no longer holds is
//!   simply ignored.
//!
//! The state machines here are sans-IO: they consume [`ControlMsg`]s and
//! yield [`CheckpointMsg`] routing instructions which the auxiliary unit
//! (or a test harness) turns into channel sends.

use crate::adapt::MonitorReport;
use crate::control::{ControlMsg, SiteId, CENTRAL_SITE};
use crate::queue::BackupQueue;
use crate::timestamp::VectorTimestamp;

/// A routing instruction emitted by a checkpoint state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointMsg {
    /// Send to every mirror site's auxiliary unit.
    BroadcastToMirrors(ControlMsg),
    /// Send to this site's own main unit.
    ToLocalMain(ControlMsg),
    /// Send to the central site's auxiliary unit.
    ToCentral(ControlMsg),
}

/// One in-flight voting round at the coordinator.
#[derive(Debug)]
struct PendingRound {
    round: u64,
    proposal: VectorTimestamp,
    /// The participant set the `CHKPT` was broadcast to (the member
    /// mirrors at `begin` time, plus the central main unit). Completion is
    /// judged against this set, not current membership: a mirror
    /// readmitted mid-round never saw this round's proposal and must not
    /// gate it.
    participants: Vec<SiteId>,
    /// Replies received so far, one per expected participant.
    replies: Vec<(SiteId, VectorTimestamp)>,
}

impl PendingRound {
    fn replied(&self, site: SiteId) -> bool {
        self.replies.iter().any(|(s, _)| *s == site)
    }
}

/// Failure detection is **disabled by default** (`0`): the paper's
/// protocol deliberately has no timeouts, and under a processing backlog
/// checkpoint replies legitimately lag many rounds behind — treating that
/// as failure would be wrong. Embeddings that want the §6 recovery
/// extension opt in via
/// [`CentralCheckpointer::set_suspect_after`].
pub const DEFAULT_SUSPECT_AFTER: u32 = 0;

/// Coordinator state machine running in the **central site's auxiliary
/// unit**.
#[derive(Debug)]
pub struct CentralCheckpointer {
    mirrors: Vec<SiteId>,
    /// Membership epoch stamped onto outgoing `CHKPT`/`COMMIT` messages
    /// (see [`crate::membership`]); the embedding advances it on every
    /// membership change.
    epoch: u64,
    /// Leadership term stamped onto outgoing `CHKPT`/`COMMIT` messages and
    /// fenced against on incoming replies. Round numbers restart at 1 in
    /// every new coordinator, so the term — bumped at each promotion — is
    /// what keeps a resurrected old coordinator's traffic (and replies
    /// addressed to it) from being confused with this coordinator's.
    term: u64,
    next_round: u64,
    pending: Option<PendingRound>,
    committed: VectorTimestamp,
    /// Highest round number each participant has ever replied to (stale
    /// replies included). Failure detection compares these: a mirror whose
    /// newest reply lags `suspect_after` rounds behind another
    /// participant's newest reply is declared failed — the comparison
    /// baseline travels through the same queues, so a cluster-wide backlog
    /// never looks like a failure.
    last_reply_round: std::collections::HashMap<SiteId, u64>,
    /// Missed-round threshold for failure detection (0 disables).
    suspect_after: u32,
    /// Mirrors declared failed, not yet collected by the embedding.
    newly_failed: Vec<SiteId>,
    /// All mirrors ever declared failed (and not readmitted).
    pub failed: Vec<SiteId>,
    /// Rounds started.
    pub rounds_started: u64,
    /// Rounds that reached commit.
    pub rounds_committed: u64,
    /// Rounds abandoned because a newer round superseded them.
    pub rounds_abandoned: u64,
    /// Replies discarded because they answered a different leadership term
    /// (fencing evidence for tests and operators).
    pub stale_term_replies: u64,
}

impl CentralCheckpointer {
    /// A coordinator for the given set of mirror sites.
    pub fn new(mirrors: Vec<SiteId>) -> Self {
        CentralCheckpointer {
            mirrors,
            epoch: 0,
            term: 0,
            next_round: 1,
            pending: None,
            committed: VectorTimestamp::empty(),
            last_reply_round: std::collections::HashMap::new(),
            suspect_after: DEFAULT_SUSPECT_AFTER,
            newly_failed: Vec::new(),
            failed: Vec::new(),
            rounds_started: 0,
            rounds_committed: 0,
            rounds_abandoned: 0,
            stale_term_replies: 0,
        }
    }

    /// Change the failure-detection threshold: a mirror whose newest reply
    /// lags this many rounds behind another participant's newest reply is
    /// declared failed. `0` disables detection; non-zero values are
    /// clamped to at least 2 (a lag of 1 round is normal in-flight skew).
    pub fn set_suspect_after(&mut self, rounds: u32) {
        self.suspect_after = if rounds == 0 { 0 } else { rounds.max(2) };
    }

    /// The failure-detection threshold in force (0 = disabled).
    pub fn suspect_after(&self) -> u32 {
        self.suspect_after
    }

    /// Mirrors declared failed since the last call (drains the list); the
    /// embedding should stop routing requests and data to them.
    pub fn take_newly_failed(&mut self) -> Vec<SiteId> {
        std::mem::take(&mut self.newly_failed)
    }

    /// Set the membership epoch stamped onto every subsequent `CHKPT` and
    /// `COMMIT`.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// The membership epoch currently stamped onto outgoing rounds.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Set the leadership term stamped onto every subsequent `CHKPT` and
    /// `COMMIT` and required of every accepted reply. Monotone: a lower
    /// value is ignored (a coordinator never steps back behind a term it
    /// has already claimed).
    pub fn set_term(&mut self, term: u64) {
        self.term = self.term.max(term);
    }

    /// The leadership term this coordinator is operating under.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Gracefully retire a mirror (scale-in): remove it from the
    /// participant set **without** marking it failed. If it was gating the
    /// in-flight round, the round either completes on the next reply
    /// (membership is re-checked per participant) or — if no further reply
    /// is due — becomes [`pending_wedged`](Self::pending_wedged) and is
    /// restarted by the coordinator's idle tick. Returns `true` if the
    /// site was a participant.
    pub fn retire(&mut self, site: SiteId) -> bool {
        let was_in = self.mirrors.contains(&site);
        self.mirrors.retain(|&s| s != site);
        self.last_reply_round.remove(&site);
        was_in
    }

    /// Declare a mirror failed out-of-band — the transport layer reports
    /// its link dead (reconnect budget exhausted), so there is no point
    /// waiting `suspect_after` rounds of silence. Returns `true` if the
    /// site was participating and is now excluded.
    pub fn declare_failed(&mut self, site: SiteId) -> bool {
        let was_in = self.mirrors.contains(&site);
        if was_in {
            self.mirrors.retain(|&s| s != site);
            self.failed.push(site);
        }
        was_in
    }

    /// Re-admit a mirror (after external recovery/state transfer): it
    /// resumes participating in checkpoint rounds.
    pub fn readmit(&mut self, site: SiteId) {
        self.failed.retain(|&s| s != site);
        // A round begun before this readmission addressed its CHKPT to the
        // site's *old* instance; the replacement never saw the proposal and
        // will never reply, so it must stop gating that round. Otherwise a
        // participant evicted and readmitted mid-round would be back in the
        // membership with no reply ever coming — permanently incompletable,
        // yet never classified wedged by `pending_wedged`.
        if let Some(p) = &mut self.pending {
            p.participants.retain(|&s| s != site);
        }
        // Give the rejoined site a fresh baseline so it is not instantly
        // re-flagged for rounds it never saw.
        let newest = self.last_reply_round.values().copied().max().unwrap_or(0);
        self.last_reply_round.insert(site, newest);
        if !self.mirrors.contains(&site) {
            self.mirrors.push(site);
        }
    }

    /// The set of mirror sites participating.
    pub fn mirrors(&self) -> &[SiteId] {
        &self.mirrors
    }

    /// Timestamp of the last committed checkpoint.
    pub fn committed(&self) -> &VectorTimestamp {
        &self.committed
    }

    /// Is a voting round currently awaiting replies?
    pub fn round_in_flight(&self) -> bool {
        self.pending.is_some()
    }

    /// Is the in-flight round *wedged* — no future reply can complete it?
    ///
    /// True exactly when every participant still in the membership has
    /// already replied and yet the round did not commit. That state is
    /// reachable when membership shrank *after* the last reply was
    /// consumed (completion is checked on reply arrival, so an eviction
    /// that removes the one straggler leaves nothing to trigger it), or
    /// when a participant was evicted and readmitted mid-round
    /// ([`readmit`](Self::readmit) drops it from the round's participant
    /// set — its new instance never saw the CHKPT and will never reply).
    /// The round must be abandoned and restarted. A round merely waiting on a
    /// slow or partitioned member is **not** wedged — its reply will
    /// arrive (or detection will evict it, producing this state).
    pub fn pending_wedged(&self) -> bool {
        let Some(p) = &self.pending else {
            return false;
        };
        p.participants
            .iter()
            .all(|&site| !(site == CENTRAL_SITE || self.mirrors.contains(&site)) || p.replied(site))
    }

    /// `init_CHKPT`: start a voting round proposing `proposal` ("chkpt =
    /// last on backup queue"). Any incomplete previous round is abandoned —
    /// the new round's commit will encapsulate it.
    pub fn begin(&mut self, proposal: VectorTimestamp) -> Vec<CheckpointMsg> {
        if self.pending.take().is_some() {
            self.rounds_abandoned += 1;
        }
        let round = self.next_round;
        self.next_round += 1;
        self.rounds_started += 1;
        let mut participants = self.mirrors.clone();
        participants.push(CENTRAL_SITE);
        self.pending = Some(PendingRound {
            round,
            proposal: proposal.clone(),
            participants,
            replies: Vec::new(),
        });
        let msg = ControlMsg::Chkpt { round, stamp: proposal, epoch: self.epoch, term: self.term };
        vec![CheckpointMsg::BroadcastToMirrors(msg.clone()), CheckpointMsg::ToLocalMain(msg)]
    }

    /// `CHKPT_REP`: record a participant's reply. When every expected
    /// participant (each mirror plus the central main unit, reporting as
    /// [`CENTRAL_SITE`]) has replied, compute `commit = min over replies`,
    /// record it, and emit the commit messages. The caller appends any
    /// adaptation directive and prunes the local backup queue.
    ///
    /// Replies for abandoned rounds are ignored, as are replies answering
    /// a different leadership `term` — round numbers restart across
    /// promotions, so a reply addressed to another coordinator can carry a
    /// round number that collides with one of ours, and counting it would
    /// split-brain the round.
    pub fn on_reply(
        &mut self,
        round: u64,
        site: SiteId,
        stamp: VectorTimestamp,
        term: u64,
    ) -> Option<(VectorTimestamp, Vec<CheckpointMsg>)> {
        if term != self.term {
            // Fenced: the reply answers a proposal from a different
            // coordinator. Not even sign-of-life evidence — its round
            // numbering belongs to another term's sequence.
            self.stale_term_replies += 1;
            return None;
        }
        // Any reply — even stale or duplicate — is a sign of life; record
        // the newest round this participant has answered.
        let newest = self.last_reply_round.entry(site).or_insert(0);
        *newest = (*newest).max(round);
        // Failure detection: replies are flowing from mirror `site` up to
        // `round`, so a *peer* mirror whose replies stop `suspect_after`
        // rounds earlier is gone. Only mirror replies serve as the
        // comparison baseline — they traverse the same two-hop pipeline, so
        // a cluster-wide backlog delays all of them alike, whereas the
        // central main unit's replies take a local shortcut and would make
        // healthy mirrors look laggy during bursts. (Consequence: a
        // single-mirror cluster has no detection baseline; exclusion there
        // needs an operator, as in the paper.)
        //
        // Only a reply to the *current* round is admissible evidence. When
        // a burst starts rounds faster than replies are consumed, the
        // coordinator can process a straggler's queued reply to round `r`
        // while a healthy peer's replies to rounds `r..r+k` are still
        // sitting unprocessed in the same queue — by `last_reply_round`
        // alone the healthy peer looks `k` rounds behind and gets evicted.
        // A current-round reply cannot be such an artifact: it proves the
        // reporter has drained its pipeline to the newest round, so a peer
        // whose newest answer is `suspect_after` rounds older genuinely
        // stopped answering.
        let current = self.pending.as_ref().is_some_and(|p| p.round == round);
        if self.suspect_after > 0 && site != CENTRAL_SITE && current {
            let mirrors = self.mirrors.clone();
            for other in mirrors {
                if other == site {
                    continue;
                }
                let last = self.last_reply_round.get(&other).copied().unwrap_or(0);
                if round.saturating_sub(last) >= self.suspect_after as u64 {
                    self.mirrors.retain(|&s| s != other);
                    self.failed.push(other);
                    self.newly_failed.push(other);
                }
            }
        }
        if site != CENTRAL_SITE && !self.mirrors.contains(&site) {
            return None; // reply from an excluded (failed) or unknown site
        }
        let pending = self.pending.as_mut()?;
        if pending.round != round {
            return None; // stale reply for an abandoned round
        }
        if pending.replied(site) {
            return None; // duplicate
        }
        pending.replies.push((site, stamp));

        // The round completes when every participant the CHKPT went to —
        // minus any evicted since — has replied. Membership is re-checked
        // per participant so an eviction mid-round stops gating completion,
        // while a mirror readmitted mid-round (not a participant) never
        // blocks a round it was never asked about.
        let mirrors = &self.mirrors;
        let complete = pending
            .participants
            .iter()
            .all(|&p| !(p == CENTRAL_SITE || mirrors.contains(&p)) || pending.replied(p));
        if !complete {
            return None;
        }
        let pending = self.pending.take().unwrap();
        let commit =
            pending.replies.iter().fold(pending.proposal.clone(), |acc, (_, s)| acc.meet(s));
        self.committed.merge(&commit);
        self.rounds_committed += 1;
        let msg = ControlMsg::Commit {
            round: pending.round,
            stamp: commit.clone(),
            epoch: self.epoch,
            term: self.term,
            adapt: None,
        };
        Some((
            commit,
            vec![CheckpointMsg::BroadcastToMirrors(msg.clone()), CheckpointMsg::ToLocalMain(msg)],
        ))
    }
}

/// Relay state machine running in a **mirror site's auxiliary unit**.
///
/// Per Figure 3: a `CHKPT` is forwarded to the local main unit; the main
/// unit's `CHKPT_REP` is forwarded to the central site if its stamp refers
/// to an event this site's backup history covers; a `COMMIT` prunes the
/// local backup queue and is forwarded to the main unit.
#[derive(Debug, Default)]
pub struct MirrorRelay {
    /// Commits applied (for statistics).
    pub commits_applied: u64,
    /// Commits ignored because they named events never seen here.
    pub commits_ignored: u64,
}

impl MirrorRelay {
    /// A fresh relay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle a `CHKPT` from the central site.
    pub fn on_chkpt(&mut self, msg: ControlMsg) -> Vec<CheckpointMsg> {
        debug_assert!(matches!(msg, ControlMsg::Chkpt { .. }));
        vec![CheckpointMsg::ToLocalMain(msg)]
    }

    /// Handle the local main unit's `CHKPT_REP`: forward to the central
    /// site if the stamp is covered by this site's backup history ("if
    /// chkpt_rep in backup queue").
    #[allow(clippy::too_many_arguments)]
    pub fn on_main_reply(
        &mut self,
        round: u64,
        site: SiteId,
        stamp: VectorTimestamp,
        monitor: MonitorReport,
        term: u64,
        backup: &BackupQueue,
    ) -> Vec<CheckpointMsg> {
        // The paper's guard ("if chkpt_rep in backup queue") suppresses
        // replies referencing events this site never held — except on a
        // *fresh* site (just started, or rejoined with seeded state): its
        // reply stamp is correct information even though its backup
        // history is empty, and suppressing it would lock the site out of
        // rounds until new traffic arrived.
        if backup.covers(&stamp) || stamp.is_zero() || backup.is_fresh() {
            vec![CheckpointMsg::ToCentral(ControlMsg::ChkptRep {
                round,
                site,
                stamp,
                monitor,
                term,
            })]
        } else {
            Vec::new()
        }
    }

    /// Handle a `COMMIT`: prune the backup queue if the committed event is
    /// known here, and forward the commit to the main unit either way (the
    /// main unit applies its own guard).
    pub fn on_commit(
        &mut self,
        msg: ControlMsg,
        backup: &mut BackupQueue,
    ) -> (usize, Vec<CheckpointMsg>) {
        let pruned = if let ControlMsg::Commit { stamp, .. } = &msg {
            if backup.covers(stamp) || stamp.is_zero() {
                self.commits_applied += 1;
                backup.prune(stamp)
            } else {
                // "If a unit receives a commit identifying an event no
                // longer in its backup, this event is ignored."
                self.commits_ignored += 1;
                0
            }
        } else {
            0
        };
        (pruned, vec![CheckpointMsg::ToLocalMain(msg)])
    }
}

/// Responder state machine running in every site's **main unit**.
///
/// Tracks the frontier of events the business logic has processed; on a
/// `CHKPT` it replies with `min{chkpt, last processed}`.
#[derive(Debug)]
pub struct MainUnitResponder {
    site: SiteId,
    processed: VectorTimestamp,
    committed: VectorTimestamp,
}

impl MainUnitResponder {
    /// A responder for the given site.
    pub fn new(site: SiteId) -> Self {
        MainUnitResponder {
            site,
            processed: VectorTimestamp::empty(),
            committed: VectorTimestamp::empty(),
        }
    }

    /// The site this responder reports as.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Record that the business logic processed an event with this stamp.
    pub fn record_processed(&mut self, stamp: &VectorTimestamp) {
        self.processed.merge(stamp);
    }

    /// Frontier of processed events.
    pub fn processed(&self) -> &VectorTimestamp {
        &self.processed
    }

    /// Last committed checkpoint this unit has seen.
    pub fn committed(&self) -> &VectorTimestamp {
        &self.committed
    }

    /// Handle a `CHKPT`: reply with `min{chkpt, last processed}` plus the
    /// caller-supplied monitor report, addressed to the local aux unit.
    /// The reply echoes the proposal's leadership term, so the coordinator
    /// it reaches can tell whether it was the one being answered.
    pub fn on_chkpt(&mut self, msg: &ControlMsg, monitor: MonitorReport) -> Option<ControlMsg> {
        if let ControlMsg::Chkpt { round, stamp, term, .. } = msg {
            let rep = stamp.meet(&self.processed);
            Some(ControlMsg::ChkptRep {
                round: *round,
                site: self.site,
                stamp: rep,
                monitor,
                term: *term,
            })
        } else {
            None
        }
    }

    /// Handle a `COMMIT`: advance the committed frontier (monotonically).
    pub fn on_commit(&mut self, msg: &ControlMsg) {
        if let ControlMsg::Commit { stamp, .. } = msg {
            self.committed.merge(stamp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventBody, FlightStatus};

    fn stamped(stream: u16, seq: u64) -> Event {
        let mut e = Event::new(stream, seq, 1, EventBody::Status(FlightStatus::EnRoute));
        e.stamp.advance(stream as usize, seq);
        e
    }

    fn vt(c: &[u64]) -> VectorTimestamp {
        VectorTimestamp::from_components(c.to_vec())
    }

    #[test]
    fn full_round_commits_minimum() {
        let mut central = CentralCheckpointer::new(vec![1, 2]);
        let msgs = central.begin(vt(&[10, 5]));
        assert_eq!(msgs.len(), 2);
        assert!(central.round_in_flight());

        // Mirror 1 processed everything, mirror 2 lags, central main mid.
        assert!(central.on_reply(1, 1, vt(&[10, 5]), 0).is_none());
        assert!(central.on_reply(1, 2, vt(&[7, 5]), 0).is_none());
        let (commit, out) = central.on_reply(1, CENTRAL_SITE, vt(&[9, 4]), 0).unwrap();
        assert_eq!(commit, vt(&[7, 4]));
        assert_eq!(out.len(), 2);
        assert_eq!(central.committed(), &vt(&[7, 4]));
        assert_eq!(central.rounds_committed, 1);
        assert!(!central.round_in_flight());
    }

    #[test]
    fn duplicate_replies_are_ignored() {
        let mut central = CentralCheckpointer::new(vec![1]);
        central.begin(vt(&[3]));
        assert!(central.on_reply(1, 1, vt(&[3]), 0).is_none());
        assert!(central.on_reply(1, 1, vt(&[2]), 0).is_none(), "duplicate site reply");
        assert!(central.on_reply(1, CENTRAL_SITE, vt(&[3]), 0).is_some());
    }

    #[test]
    fn later_round_supersedes_incomplete_earlier_round() {
        let mut central = CentralCheckpointer::new(vec![1, 2]);
        central.begin(vt(&[5]));
        assert!(central.on_reply(1, 1, vt(&[5]), 0).is_none());
        // Second round starts before the first completes.
        central.begin(vt(&[9]));
        assert_eq!(central.rounds_abandoned, 1);
        // Stale reply for round 1 is ignored.
        assert!(central.on_reply(1, 2, vt(&[5]), 0).is_none());
        assert!(central.on_reply(2, 1, vt(&[9]), 0).is_none());
        assert!(central.on_reply(2, 2, vt(&[8]), 0).is_none());
        let (commit, _) = central.on_reply(2, CENTRAL_SITE, vt(&[9]), 0).unwrap();
        assert_eq!(commit, vt(&[8]));
    }

    #[test]
    fn main_unit_caps_reply_at_its_processed_frontier() {
        let mut main = MainUnitResponder::new(3);
        main.record_processed(&vt(&[4, 2]));
        let chkpt = ControlMsg::Chkpt { round: 1, stamp: vt(&[10, 1]), epoch: 0, term: 0 };
        let rep = main.on_chkpt(&chkpt, MonitorReport::default()).unwrap();
        match rep {
            ControlMsg::ChkptRep { site, stamp, .. } => {
                assert_eq!(site, 3);
                assert_eq!(stamp, vt(&[4, 1]));
            }
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn mirror_relay_guards_reply_by_backup_coverage() {
        let mut relay = MirrorRelay::new();
        let mut backup = BackupQueue::new();
        backup.push(stamped(0, 3));
        // Covered stamp → forwarded to central.
        let out = relay.on_main_reply(1, 1, vt(&[2]), MonitorReport::default(), 0, &backup);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], CheckpointMsg::ToCentral(ControlMsg::ChkptRep { .. })));
        // Uncovered stamp on a site WITH history → suppressed.
        let out = relay.on_main_reply(1, 1, vt(&[9]), MonitorReport::default(), 0, &backup);
        assert!(out.is_empty());
    }

    #[test]
    fn fresh_seeded_mirror_reply_is_not_suppressed() {
        // A rejoined mirror has a seeded (non-zero) processed frontier but
        // an empty, never-used backup queue; its replies must flow so it
        // can participate in rounds before new traffic arrives.
        let mut relay = MirrorRelay::new();
        let backup = BackupQueue::new();
        let out = relay.on_main_reply(5, 2, vt(&[500]), MonitorReport::default(), 0, &backup);
        assert_eq!(out.len(), 1, "fresh site must not be locked out of rounds");
    }

    #[test]
    fn mirror_relay_commit_prunes_and_forwards() {
        let mut relay = MirrorRelay::new();
        let mut backup = BackupQueue::new();
        backup.push(stamped(0, 1));
        backup.push(stamped(0, 2));
        backup.push(stamped(0, 3));
        let commit =
            ControlMsg::Commit { round: 1, stamp: vt(&[2]), epoch: 0, term: 0, adapt: None };
        let (pruned, out) = relay.on_commit(commit, &mut backup);
        assert_eq!(pruned, 2);
        assert_eq!(backup.len(), 1);
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], CheckpointMsg::ToLocalMain(ControlMsg::Commit { .. })));
        assert_eq!(relay.commits_applied, 1);
    }

    #[test]
    fn unknown_commit_is_ignored_but_still_forwarded() {
        let mut relay = MirrorRelay::new();
        let mut backup = BackupQueue::new();
        backup.push(stamped(0, 1));
        // A commit on a stream this site never saw.
        let commit =
            ControlMsg::Commit { round: 1, stamp: vt(&[0, 42]), epoch: 0, term: 0, adapt: None };
        let (pruned, out) = relay.on_commit(commit, &mut backup);
        assert_eq!(pruned, 0);
        assert_eq!(backup.len(), 1);
        assert_eq!(relay.commits_ignored, 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn committed_frontier_is_monotone_under_reordering() {
        let mut main = MainUnitResponder::new(1);
        main.on_commit(&ControlMsg::Commit {
            round: 2,
            stamp: vt(&[5, 5]),
            epoch: 0,
            term: 0,
            adapt: None,
        });
        // An older commit arriving late cannot regress the frontier.
        main.on_commit(&ControlMsg::Commit {
            round: 1,
            stamp: vt(&[3, 9]),
            epoch: 0,
            term: 0,
            adapt: None,
        });
        assert_eq!(main.committed(), &vt(&[5, 9]));
    }

    #[test]
    fn silent_mirror_is_declared_failed_and_commits_resume() {
        let mut central = CentralCheckpointer::new(vec![1, 2]);
        central.set_suspect_after(3);
        // Mirror 2 replies once, then goes silent; mirror 1 keeps lagging
        // in-flight by one round, which must NOT trip detection.
        for i in 1..=5u64 {
            central.begin(vt(&[i]));
            central.on_reply(central.rounds_started, 1, vt(&[i]), 0);
            if i == 1 {
                central.on_reply(central.rounds_started, 2, vt(&[1]), 0);
            }
        }
        // Mirror 1's reply to round 5 arrived while mirror 2's newest is
        // round 1: lag 4 ≥ 3 → failed.
        assert_eq!(central.take_newly_failed(), vec![2]);
        assert_eq!(central.mirrors(), &[1]);
        // The next round commits with the survivor alone.
        central.begin(vt(&[9]));
        assert!(central.on_reply(central.rounds_started, 1, vt(&[9]), 0).is_none());
        let done = central.on_reply(central.rounds_started, CENTRAL_SITE, vt(&[9]), 0);
        assert!(done.is_some(), "commit must resume among survivors");
        // A straggler reply from the failed site is ignored.
        central.begin(vt(&[10]));
        assert!(central.on_reply(central.rounds_started, 2, vt(&[10]), 0).is_none());
        assert!(central.on_reply(central.rounds_started, 1, vt(&[10]), 0).is_none());
        assert!(central.on_reply(central.rounds_started, CENTRAL_SITE, vt(&[10]), 0).is_some());
    }

    #[test]
    fn backlogged_mirror_is_not_declared_failed() {
        // A mirror whose replies trail by one round (normal in-flight skew)
        // survives detection indefinitely.
        let mut central = CentralCheckpointer::new(vec![1, 2]);
        central.set_suspect_after(3);
        for i in 1..=20u64 {
            central.begin(vt(&[i]));
            central.on_reply(central.rounds_started, 1, vt(&[i]), 0);
            if i > 1 {
                // Mirror 2 answers the *previous* round, one behind.
                central.on_reply(central.rounds_started - 1, 2, vt(&[i - 1]), 0);
            }
        }
        assert!(central.take_newly_failed().is_empty());
        assert_eq!(central.mirrors(), &[1, 2]);
    }

    #[test]
    fn stale_queued_reply_is_not_failure_evidence() {
        // Burst scenario: rounds 1..=6 start back-to-back, and the
        // coordinator happens to consume mirror 2's queued reply to an old
        // round while mirror 1's equally queued replies are still
        // unprocessed. By newest-reply bookkeeping alone mirror 1 looks 4
        // rounds behind — but that lag is a processing-order artifact, not
        // silence, and must not evict it.
        let mut central = CentralCheckpointer::new(vec![1, 2]);
        central.set_suspect_after(3);
        for i in 1..=6u64 {
            central.begin(vt(&[i]));
        }
        // Mirror 2's reply to round 4 drains first (stale: pending is 6).
        assert!(central.on_reply(4, 2, vt(&[4]), 0).is_none());
        assert!(central.take_newly_failed().is_empty(), "stale reply evicted a healthy peer");
        assert_eq!(central.mirrors(), &[1, 2]);
        // Mirror 1's queued replies drain next; its answer to the current
        // round IS admissible evidence, and mirror 2 (newest reply 4, lag
        // 2 < 3) still survives.
        for i in 1..=6u64 {
            central.on_reply(i, 1, vt(&[i]), 0);
        }
        assert!(central.take_newly_failed().is_empty());
        // Only when mirror 2 stays silent while current rounds keep being
        // answered does detection fire.
        for i in 7..=7u64 {
            central.begin(vt(&[i]));
            central.on_reply(i, 1, vt(&[i]), 0);
        }
        assert_eq!(central.take_newly_failed(), vec![2]);
    }

    #[test]
    fn readmitted_mirror_participates_again() {
        let mut central = CentralCheckpointer::new(vec![1, 2]);
        central.set_suspect_after(2);
        for i in 1..=3u64 {
            central.begin(vt(&[i]));
            central.on_reply(central.rounds_started, 1, vt(&[i]), 0);
        }
        assert_eq!(central.take_newly_failed(), vec![2]);
        central.readmit(2);
        assert_eq!(central.mirrors(), &[1, 2]);
        // The in-flight round now completes with both mirrors replying
        // (the readmitted site got a fresh lag baseline).
        central.on_reply(central.rounds_started, 2, vt(&[3]), 0);
        assert!(central.on_reply(central.rounds_started, CENTRAL_SITE, vt(&[3]), 0).is_some());
        assert!(central.failed.is_empty(), "failed: {:?}", central.failed);
    }

    #[test]
    fn evict_then_readmit_mid_round_leaves_round_wedged_not_stuck() {
        let mut central = CentralCheckpointer::new(vec![1, 2]);
        central.begin(vt(&[5]));
        assert!(central.on_reply(1, 1, vt(&[5]), 0).is_none());
        assert!(central.on_reply(1, CENTRAL_SITE, vt(&[5]), 0).is_none());
        assert!(!central.pending_wedged(), "mirror 2's reply is still possible");
        // Mirror 2 dies and is replaced mid-round: its new instance never
        // saw round 1's CHKPT, so no reply for this round will ever come.
        assert!(central.declare_failed(2));
        central.readmit(2);
        assert_eq!(central.mirrors(), &[1, 2]);
        assert!(central.round_in_flight());
        assert!(
            central.pending_wedged(),
            "a readmitted participant must not gate a round begun before its readmission"
        );
        // The wedged round is restartable and the fresh one commits with
        // both mirrors.
        central.begin(vt(&[6]));
        assert!(central.on_reply(2, 1, vt(&[6]), 0).is_none());
        assert!(central.on_reply(2, 2, vt(&[6]), 0).is_none());
        assert!(central.on_reply(2, CENTRAL_SITE, vt(&[6]), 0).is_some());
    }

    #[test]
    fn rounds_carry_the_membership_epoch() {
        let mut central = CentralCheckpointer::new(vec![1]);
        central.set_epoch(7);
        let msgs = central.begin(vt(&[3]));
        match &msgs[0] {
            CheckpointMsg::BroadcastToMirrors(m) => assert_eq!(m.epoch(), Some(7)),
            m => panic!("unexpected {m:?}"),
        }
        central.on_reply(1, 1, vt(&[3]), 0);
        let (_, out) = central.on_reply(1, CENTRAL_SITE, vt(&[3]), 0).unwrap();
        match &out[0] {
            CheckpointMsg::BroadcastToMirrors(m) => assert_eq!(m.epoch(), Some(7)),
            m => panic!("unexpected {m:?}"),
        }
    }

    #[test]
    fn retired_mirror_stops_gating_rounds_without_failure_marking() {
        let mut central = CentralCheckpointer::new(vec![1, 2]);
        central.begin(vt(&[5]));
        assert!(central.on_reply(1, 1, vt(&[5]), 0).is_none());
        assert!(central.on_reply(1, CENTRAL_SITE, vt(&[5]), 0).is_none());
        // Mirror 2 is gracefully retired mid-round: not a failure, but the
        // round it was gating can no longer complete on a future reply.
        assert!(central.retire(2));
        assert_eq!(central.mirrors(), &[1]);
        assert!(central.failed.is_empty(), "retire is not failure");
        assert!(central.pending_wedged(), "retire removed the last awaited participant");
        // The coordinator restarts; the fresh round commits among
        // survivors, and a straggler reply from the retired site is inert.
        central.begin(vt(&[6]));
        assert!(central.on_reply(2, 2, vt(&[6]), 0).is_none(), "retired site's reply ignored");
        assert!(central.on_reply(2, 1, vt(&[6]), 0).is_none());
        assert!(central.on_reply(2, CENTRAL_SITE, vt(&[6]), 0).is_some());
    }

    #[test]
    fn admitted_mirror_joins_at_next_round() {
        let mut central = CentralCheckpointer::new(vec![1]);
        central.begin(vt(&[4]));
        // Site 2 is admitted while round 1 is in flight: it must not gate
        // round 1 (it never saw the proposal) but participates from the
        // next round on.
        central.readmit(2);
        assert!(central.on_reply(1, 1, vt(&[4]), 0).is_none());
        assert!(
            central.on_reply(1, CENTRAL_SITE, vt(&[4]), 0).is_some(),
            "round 1 commits without 2"
        );
        central.begin(vt(&[8]));
        assert!(central.on_reply(2, 1, vt(&[8]), 0).is_none());
        assert!(central.on_reply(2, CENTRAL_SITE, vt(&[8]), 0).is_none(), "now gated on site 2");
        assert!(central.on_reply(2, 2, vt(&[8]), 0).is_some());
    }

    #[test]
    fn replies_from_another_term_are_fenced() {
        let mut central = CentralCheckpointer::new(vec![1]);
        central.set_term(3);
        let msgs = central.begin(vt(&[4]));
        match &msgs[0] {
            CheckpointMsg::BroadcastToMirrors(m) => assert_eq!(m.term(), 3),
            m => panic!("unexpected {m:?}"),
        }
        // A reply echoing another coordinator's term is discarded outright:
        // its round numbering belongs to a different sequence, so even a
        // matching (round, site) must not be counted.
        assert!(central.on_reply(1, 1, vt(&[4]), 2).is_none());
        assert_eq!(central.stale_term_replies, 1);
        // The same site answering *this* term's proposal completes the
        // round as usual.
        assert!(central.on_reply(1, 1, vt(&[4]), 3).is_none());
        let done = central.on_reply(1, CENTRAL_SITE, vt(&[4]), 3);
        assert!(done.is_some(), "current-term replies commit the round");
        match &done.unwrap().1[0] {
            CheckpointMsg::BroadcastToMirrors(m) => assert_eq!(m.term(), 3),
            m => panic!("unexpected {m:?}"),
        }
        // The term is monotone: an attempt to step back is ignored.
        central.set_term(1);
        assert_eq!(central.term(), 3);
    }

    #[test]
    fn fresh_site_with_zero_stamp_still_replies() {
        let relay_backup = BackupQueue::new();
        let mut relay = MirrorRelay::new();
        let out = relay.on_main_reply(
            1,
            2,
            VectorTimestamp::empty(),
            MonitorReport::default(),
            0,
            &relay_backup,
        );
        assert_eq!(out.len(), 1, "zero stamp must not deadlock a fresh site");
    }
}
