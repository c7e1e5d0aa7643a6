//! Control-channel messages.
//!
//! Each pair of sites is connected by a *data* channel carrying application
//! events and a bi-directional *control* channel carrying the messages
//! defined here (§3.3): checkpoint voting/commit traffic, and — piggybacked
//! onto it to avoid extra adaptation traffic (§3.2.2) — monitored-variable
//! reports (mirror → central) and adaptation directives (central → mirror).
//!
//! The *set* of sites those channels connect is **not** fixed at startup:
//! membership is epoch-stamped (see [`crate::membership`]) and mirrors are
//! admitted and retired while traffic flows. `CHKPT` and `COMMIT` therefore
//! carry the membership epoch in force when
//! the round was formed, so every site — including one that joined
//! mid-stream — knows which membership generation a round and its
//! piggybacked directives belong to.
//!
//! Nor is the *coordinator* fixed for the lifetime of the cluster: central
//! failover promotes a mirror into the coordinator role at a bumped
//! **leadership term**. Every control message carries the term of the
//! coordinator that originated its round: `CHKPT`/`COMMIT` are stamped at
//! the coordinator, and a `CHKPT_REP` echoes the term of the proposal it
//! answers. Receivers fence on the term — a mirror discards frames from a
//! stale term (a resurrected old coordinator), and a coordinator discards
//! replies addressed to a different term — so two coordinators can never
//! split-brain a round even though round numbers restart across
//! promotions.

use crate::adapt::MonitorReport;
use crate::mirrorfn::MirrorFnKind;
use crate::params::MirrorParams;
use crate::partition::PartitionMap;
use crate::timestamp::VectorTimestamp;

/// Identifier of a cluster site. Site 0 is by convention the central
/// (primary) site; mirror sites are numbered from 1.
pub type SiteId = u16;

/// The central/primary site's id.
pub const CENTRAL_SITE: SiteId = 0;

/// An adaptation directive shipped from the central site to every mirror,
/// piggybacked on a checkpoint `COMMIT`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptDirective {
    /// Complete replacement parameter set (generation-stamped so stale
    /// directives are discarded).
    pub params: MirrorParams,
    /// Optionally install a different named mirroring function.
    pub mirror_fn: Option<MirrorFnKind>,
    /// Cluster partition map, when the cluster runs in partitioned mode.
    /// Carried the same way the params are — piggybacked on `COMMIT` — but
    /// fenced *independently* on its own epoch (like membership epochs),
    /// so a directive whose params are generation-stale can still deliver
    /// a newer partition assignment and vice versa.
    pub partition: Option<PartitionMap>,
}

/// A message on the control channel.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMsg {
    /// Voting phase: the central auxiliary unit proposes advancing the
    /// consistent view to `stamp` (usually the most recent value in its
    /// backup queue).
    Chkpt {
        /// Monotone round number (bookkeeping only — the protocol's
        /// correctness rests on timestamps; a later round subsumes an
        /// incomplete earlier one).
        round: u64,
        /// Proposed committable timestamp.
        stamp: VectorTimestamp,
        /// Membership epoch in force at the coordinator when this round
        /// was proposed.
        epoch: u64,
        /// Leadership term of the coordinator proposing the round; stale
        /// terms are fenced out at every receiver.
        term: u64,
    },
    /// A site's reply: the most recent event its business logic has
    /// processed, capped by the proposal (`min{chkpt, last in backup}`).
    ChkptRep {
        /// Round being answered.
        round: u64,
        /// Replying site.
        site: SiteId,
        /// The site's committable timestamp.
        stamp: VectorTimestamp,
        /// Piggybacked monitored-variable report for adaptation.
        monitor: MonitorReport,
        /// Leadership term of the proposal this reply answers (round
        /// numbers restart across promotions, so the term — not the round
        /// — identifies which coordinator the reply addresses).
        term: u64,
    },
    /// Commit phase: every site may discard backup-queue events up to
    /// `stamp` (the minimum over all replies).
    Commit {
        /// Round being committed.
        round: u64,
        /// Committed timestamp.
        stamp: VectorTimestamp,
        /// Membership epoch in force at the coordinator when this commit
        /// was issued.
        epoch: u64,
        /// Leadership term of the coordinator issuing the commit.
        term: u64,
        /// Piggybacked adaptation directive, if the controller decided to
        /// change mirroring behaviour this round.
        adapt: Option<AdaptDirective>,
    },
}

impl ControlMsg {
    /// Approximate bytes this message occupies on a link (header + stamp +
    /// payload); used by the simulator's link cost model.
    pub fn wire_size(&self) -> usize {
        let base = 1 + 8 + 8; // tag + round + term
        match self {
            // Chkpt/Commit carry the 8-byte membership epoch.
            ControlMsg::Chkpt { stamp, .. } => base + 2 + 8 + stamp.wire_size(),
            ControlMsg::ChkptRep { stamp, .. } => base + 2 + 2 + stamp.wire_size() + 3 * 8,
            ControlMsg::Commit { stamp, adapt, .. } => {
                // A full MirrorParams is 4+4+4+1+8 ≈ 21 bytes plus kind;
                // a piggybacked partition map adds its epoch + slot table.
                let directive = match adapt {
                    None => 1,
                    Some(d) => 32 + d.partition.as_ref().map_or(1, |p| 1 + p.wire_size()),
                };
                base + 2 + 8 + stamp.wire_size() + directive
            }
        }
    }

    /// The membership epoch stamped on this message, if it carries one
    /// (`Chkpt` and `Commit` do; a `ChkptRep` answers whatever epoch its
    /// round proposed).
    pub fn epoch(&self) -> Option<u64> {
        match self {
            ControlMsg::Chkpt { epoch, .. } | ControlMsg::Commit { epoch, .. } => Some(*epoch),
            ControlMsg::ChkptRep { .. } => None,
        }
    }

    /// The round this message belongs to.
    pub fn round(&self) -> u64 {
        match self {
            ControlMsg::Chkpt { round, .. }
            | ControlMsg::ChkptRep { round, .. }
            | ControlMsg::Commit { round, .. } => *round,
        }
    }

    /// The leadership term this message belongs to (coordinator-stamped
    /// on `Chkpt`/`Commit`; echoed from the proposal on `ChkptRep`).
    pub fn term(&self) -> u64 {
        match self {
            ControlMsg::Chkpt { term, .. }
            | ControlMsg::ChkptRep { term, .. }
            | ControlMsg::Commit { term, .. } => *term,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_are_positive_and_ordered() {
        let stamp = VectorTimestamp::new(2);
        let chkpt = ControlMsg::Chkpt { round: 1, stamp: stamp.clone(), epoch: 0, term: 0 };
        let rep = ControlMsg::ChkptRep {
            round: 1,
            site: 1,
            stamp: stamp.clone(),
            monitor: MonitorReport::default(),
            term: 0,
        };
        let commit = ControlMsg::Commit { round: 1, stamp, epoch: 0, term: 0, adapt: None };
        assert!(chkpt.wire_size() > 0);
        assert!(rep.wire_size() > chkpt.wire_size(), "reply carries a monitor report");
        assert!(commit.wire_size() > 0);
    }

    #[test]
    fn commit_with_adaptation_is_larger() {
        let stamp = VectorTimestamp::new(2);
        let bare =
            ControlMsg::Commit { round: 1, stamp: stamp.clone(), epoch: 0, term: 0, adapt: None };
        let full = ControlMsg::Commit {
            round: 1,
            stamp,
            epoch: 0,
            term: 0,
            adapt: Some(AdaptDirective {
                params: MirrorParams::default(),
                mirror_fn: None,
                partition: None,
            }),
        };
        assert!(full.wire_size() > bare.wire_size());
        let partitioned = ControlMsg::Commit {
            round: 1,
            stamp: VectorTimestamp::new(2),
            epoch: 0,
            term: 0,
            adapt: Some(AdaptDirective {
                params: MirrorParams::default(),
                mirror_fn: None,
                partition: Some(PartitionMap::uniform(4)),
            }),
        };
        assert!(partitioned.wire_size() > full.wire_size(), "slot table costs wire bytes");
    }

    #[test]
    fn round_accessor() {
        let m = ControlMsg::Chkpt { round: 7, stamp: VectorTimestamp::empty(), epoch: 3, term: 2 };
        assert_eq!(m.round(), 7);
        assert_eq!(m.epoch(), Some(3));
        assert_eq!(m.term(), 2);
    }
}
