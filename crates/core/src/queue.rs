//! The auxiliary unit's shared data queues.
//!
//! The paper's auxiliary unit synchronizes its three tasks through two
//! queues (§3.1): the **ready queue**, into which the receiving task places
//! stamped (and rule-filtered) events and from which the sending task
//! drains, and the **backup queue**, where sent events are retained until a
//! checkpoint commits past them. Queue lengths are the monitored variables
//! driving adaptive mirroring, so both queues keep occupancy statistics.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::event::Event;
use crate::timestamp::VectorTimestamp;

/// Occupancy statistics for a queue; sampled by the adaptation monitors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Total events ever enqueued.
    pub enqueued: u64,
    /// Total events ever dequeued/pruned.
    pub dequeued: u64,
    /// Largest length observed.
    pub high_watermark: usize,
}

/// FIFO of stamped events awaiting the sending task. Events are shared
/// with the forward path: queueing one is a reference-count bump.
#[derive(Debug, Default)]
pub struct ReadyQueue {
    q: VecDeque<Arc<Event>>,
    stats: QueueStats,
}

impl ReadyQueue {
    /// An empty ready queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, e: Arc<Event>) {
        self.q.push_back(e);
        self.stats.enqueued += 1;
        self.stats.high_watermark = self.stats.high_watermark.max(self.q.len());
    }

    /// Remove the oldest event.
    pub fn pop(&mut self) -> Option<Arc<Event>> {
        let e = self.q.pop_front();
        if e.is_some() {
            self.stats.dequeued += 1;
        }
        e
    }

    /// Peek at the oldest event without removing it.
    pub fn front(&self) -> Option<&Event> {
        self.q.front().map(Arc::as_ref)
    }

    /// Current length — a monitored variable for adaptation.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Iterate pending events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.q.iter().map(Arc::as_ref)
    }

    /// Move every pending event, oldest first, onto the end of `out` (the
    /// sending task's run; coalescing mirror functions combine it into
    /// fewer mirror events).
    pub fn drain_into(&mut self, out: &mut Vec<Arc<Event>>) {
        self.stats.dequeued += self.q.len() as u64;
        out.extend(self.q.drain(..));
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

/// Events already mirrored but not yet covered by a committed checkpoint.
///
/// On commit, every event whose stamp is dominated by the committed
/// timestamp is discarded (paper Figure 3: "update backup queue"). A commit
/// naming an event no longer present is simply a no-op prune.
///
/// Each retained event also carries a monotone **send index** (1, 2, 3…
/// in push order). The index is what makes the backup queue double as a
/// retransmission source for unreliable links: a recovering peer names the
/// last index it saw and [`retransmit_from`](Self::retransmit_from) replays
/// everything retained from that point on.
///
/// Events are retained as `Arc<Event>` so that the backup copy shares its
/// allocation with the in-flight mirror copy: retaining a sent event is a
/// reference-count bump, not a deep clone of the payload.
#[derive(Debug, Default)]
pub struct BackupQueue {
    q: VecDeque<(u64, Arc<Event>)>,
    stats: QueueStats,
    /// Join of all stamps ever retained; `last()` falls back to this when
    /// the queue has just been pruned empty.
    frontier: VectorTimestamp,
    /// Send index assigned to the next pushed event (starts at 1).
    next_idx: u64,
}

impl BackupQueue {
    /// An empty backup queue.
    pub fn new() -> Self {
        BackupQueue { next_idx: 1, ..Self::default() }
    }

    /// Retain a sent event until a checkpoint covers it; returns the send
    /// index assigned to it. Accepts an owned event or an `Arc` shared with
    /// the outgoing mirror path (the zero-copy case).
    pub fn push(&mut self, e: impl Into<Arc<Event>>) -> u64 {
        let e = e.into();
        // `Default` can't set 1, so normalize lazily for default-built
        // queues.
        if self.next_idx == 0 {
            self.next_idx = 1;
        }
        let idx = self.next_idx;
        self.next_idx += 1;
        self.frontier.merge(&e.stamp);
        self.q.push_back((idx, e));
        self.stats.enqueued += 1;
        self.stats.high_watermark = self.stats.high_watermark.max(self.q.len());
        idx
    }

    /// The send index the next pushed event will receive.
    pub fn next_send_idx(&self) -> u64 {
        self.next_idx.max(1)
    }

    /// Advance the next send index to at least `idx` (monotone; a lower
    /// value is ignored). A coordinator promoted over an existing durable
    /// journal resumes indexing *after* the journal's highest entry — the
    /// send index doubles as the journal key, and the log requires strict
    /// monotonicity across the handoff.
    pub fn resume_from(&mut self, idx: u64) {
        self.next_idx = self.next_idx.max(idx).max(1);
    }

    /// The oldest send index still retained, if any.
    pub fn oldest_retained_idx(&self) -> Option<u64> {
        self.q.front().map(|(i, _)| *i)
    }

    /// Every send index strictly below this value is covered by a
    /// committed checkpoint (central stamps are totally ordered along push
    /// order, so pruning removes a prefix of indices). When the queue is
    /// empty everything ever pushed has committed and the floor equals
    /// [`next_send_idx`](Self::next_send_idx). A durable journal may
    /// delete storage for entries below the floor — this is the
    /// commit-driven truncation watermark of `mirror-store`.
    pub fn truncation_floor(&self) -> u64 {
        self.oldest_retained_idx().unwrap_or_else(|| self.next_send_idx())
    }

    /// Replay every retained event with send index `>= idx`, oldest first.
    /// Events already pruned by a committed checkpoint are gone — by
    /// definition the peer acknowledged a state that covers them. Replayed
    /// events share their allocation with the queue (`Arc` clones).
    pub fn retransmit_from(&self, idx: u64) -> Vec<(u64, Arc<Event>)> {
        self.q.iter().filter(|(i, _)| *i >= idx).cloned().collect()
    }

    /// Stamp of the most recently retained event — the checkpoint proposal
    /// the central control task makes ("chkpt = last on backup queue").
    /// Falls back to the all-time frontier when the queue is empty, so a
    /// freshly pruned site still proposes a meaningful value. Returned by
    /// reference: this sits on the per-event send path, so it must not
    /// allocate a fresh timestamp per call.
    pub fn last_stamp(&self) -> &VectorTimestamp {
        self.q.back().map(|(_, e)| &e.stamp).unwrap_or(&self.frontier)
    }

    /// Does the queue (or its history) cover the given stamp — i.e. would a
    /// commit at `stamp` refer to an event this site has seen? Used for the
    /// paper's "if commit in backup queue" guard.
    pub fn covers(&self, stamp: &VectorTimestamp) -> bool {
        stamp.dominated_by(&self.frontier)
    }

    /// Has this queue never retained anything? A freshly (re)started site
    /// is *fresh*: its guards should not suppress traffic merely because
    /// its history is empty (e.g. a rejoined mirror whose seeded frontier
    /// references events it never held).
    pub fn is_fresh(&self) -> bool {
        self.frontier.is_zero() && self.stats.enqueued == 0
    }

    /// Discard every retained event dominated by `commit`; returns how many
    /// events were pruned. Events concurrent with or after the commit stay.
    pub fn prune(&mut self, commit: &VectorTimestamp) -> usize {
        let before = self.q.len();
        self.q.retain(|(_, e)| !e.stamp.dominated_by(commit));
        let pruned = before - self.q.len();
        self.stats.dequeued += pruned as u64;
        pruned
    }

    /// Current length — a monitored variable for adaptation.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when nothing is awaiting a checkpoint.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Iterate retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.q.iter().map(|(_, e)| e.as_ref())
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventBody, FlightStatus};
    use crate::timestamp::VectorTimestamp;

    fn ev(stream: u16, seq: u64) -> Event {
        let mut e = Event::new(stream, seq, 1, EventBody::Status(FlightStatus::EnRoute));
        let mut stamp = VectorTimestamp::new(2);
        stamp.advance(stream as usize, seq);
        e.stamp = stamp;
        e
    }

    #[test]
    fn ready_queue_is_fifo() {
        let mut q = ReadyQueue::new();
        q.push(ev(0, 1).into());
        q.push(ev(0, 2).into());
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ready_queue_stats_track_watermark() {
        let mut q = ReadyQueue::new();
        for s in 1..=5 {
            q.push(ev(0, s).into());
        }
        q.pop();
        q.push(ev(0, 6).into());
        let st = q.stats();
        assert_eq!(st.enqueued, 6);
        assert_eq!(st.dequeued, 1);
        assert_eq!(st.high_watermark, 5);
    }

    #[test]
    fn drain_into_appends_oldest_first() {
        let mut q = ReadyQueue::new();
        for s in 1..=3 {
            q.push(ev(0, s).into());
        }
        let mut drained = vec![Arc::new(ev(1, 9))];
        q.drain_into(&mut drained);
        assert_eq!(drained.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![9, 1, 2, 3]);
        assert!(q.is_empty());
        assert_eq!(q.stats().dequeued, 3);
    }

    #[test]
    fn backup_prunes_dominated_events_only() {
        let mut b = BackupQueue::new();
        b.push(ev(0, 1));
        b.push(ev(0, 2));
        b.push(ev(1, 1)); // concurrent with stream-0 stamps
        b.push(ev(0, 3));
        let mut commit = VectorTimestamp::new(2);
        commit.advance(0, 2);
        let pruned = b.prune(&commit);
        assert_eq!(pruned, 2); // (0,1) and (0,2)
        assert_eq!(b.len(), 2); // (1,1) concurrent, (0,3) after
    }

    #[test]
    fn last_stamp_survives_full_prune() {
        let mut b = BackupQueue::new();
        b.push(ev(0, 1));
        b.push(ev(0, 2));
        let last = b.last_stamp().clone();
        b.prune(&last);
        assert!(b.is_empty());
        // The frontier remembers what was covered.
        assert_eq!(b.last_stamp(), &last);
        assert!(b.covers(&last));
    }

    #[test]
    fn commit_for_unknown_event_is_ignored_gracefully() {
        let mut b = BackupQueue::new();
        b.push(ev(0, 1));
        let mut unknown = VectorTimestamp::new(2);
        unknown.advance(1, 99);
        assert!(!b.covers(&unknown));
        // Pruning at a stamp that only covers stream 1 leaves stream-0
        // events alone.
        assert_eq!(b.prune(&unknown), 0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn freshness_reflects_history() {
        let mut b = BackupQueue::new();
        assert!(b.is_fresh());
        b.push(ev(0, 1));
        assert!(!b.is_fresh());
        let last = b.last_stamp().clone();
        b.prune(&last);
        assert!(!b.is_fresh(), "a pruned queue is empty but not fresh");
    }

    #[test]
    fn send_indices_are_monotone_and_survive_pruning() {
        let mut b = BackupQueue::new();
        assert_eq!(b.next_send_idx(), 1);
        assert_eq!(b.push(ev(0, 1)), 1);
        assert_eq!(b.push(ev(0, 2)), 2);
        assert_eq!(b.push(ev(1, 1)), 3);
        let mut commit = VectorTimestamp::new(2);
        commit.advance(0, 2);
        b.prune(&commit); // drops indices 1 and 2
                          // Indices keep counting; pruning never reuses them.
        assert_eq!(b.push(ev(0, 3)), 4);
        assert_eq!(b.next_send_idx(), 5);
    }

    #[test]
    fn retransmit_from_replays_retained_suffix() {
        let mut b = BackupQueue::new();
        for s in 1..=5 {
            b.push(ev(0, s));
        }
        let replay = b.retransmit_from(3);
        assert_eq!(replay.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![3, 4, 5]);
        assert_eq!(replay.iter().map(|(_, e)| e.seq).collect::<Vec<_>>(), vec![3, 4, 5]);
        // From beyond the end: nothing to replay.
        assert!(b.retransmit_from(99).is_empty());
        // From 0/1: everything retained.
        assert_eq!(b.retransmit_from(0).len(), 5);
    }

    #[test]
    fn retransmit_skips_pruned_events() {
        let mut b = BackupQueue::new();
        b.push(ev(0, 1));
        b.push(ev(0, 2));
        b.push(ev(1, 1));
        let mut commit = VectorTimestamp::new(2);
        commit.advance(0, 2);
        b.prune(&commit);
        let replay = b.retransmit_from(1);
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].0, 3);
    }

    #[test]
    fn retransmit_at_prune_boundaries() {
        // Push 1..=6, commit through (0,4): indices 1..=4 pruned, floor 5.
        let mut b = BackupQueue::new();
        for s in 1..=6 {
            b.push(ev(0, s));
        }
        let mut commit = VectorTimestamp::new(2);
        commit.advance(0, 4);
        assert_eq!(b.prune(&commit), 4);
        assert_eq!(b.truncation_floor(), 5);
        assert_eq!(b.oldest_retained_idx(), Some(5));

        // Exactly at the truncation point: full retained suffix.
        let at = b.retransmit_from(5);
        assert_eq!(at.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![5, 6]);
        // One below: the pruned index 4 is gone — the replay silently
        // starts at the retained suffix. Callers must detect the gap via
        // truncation_floor, not from the result length.
        let below = b.retransmit_from(4);
        assert_eq!(below.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![5, 6]);
        assert!(b.truncation_floor() > 4, "idx 4 predates the floor: gap");
        // Far below: same retained suffix, same gap signal.
        let far = b.retransmit_from(1);
        assert_eq!(far.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![5, 6]);
        assert!(b.truncation_floor() > 1);
    }

    #[test]
    fn truncation_floor_tracks_prunes_and_empty_queue() {
        let mut b = BackupQueue::new();
        assert_eq!(b.truncation_floor(), 1, "fresh queue: nothing committed");
        for s in 1..=3 {
            b.push(ev(0, s));
        }
        assert_eq!(b.truncation_floor(), 1, "nothing pruned yet");
        let last = b.last_stamp().clone();
        b.prune(&last);
        assert!(b.is_empty());
        assert_eq!(b.truncation_floor(), 4, "everything pushed has committed");
        assert_eq!(b.oldest_retained_idx(), None);
        b.push(ev(0, 4));
        assert_eq!(b.truncation_floor(), 4, "new retained entry pins the floor");
    }

    #[test]
    fn covers_tracks_history_not_just_contents() {
        let mut b = BackupQueue::new();
        b.push(ev(0, 5));
        let mut probe = VectorTimestamp::new(2);
        probe.advance(0, 4);
        assert!(b.covers(&probe));
        probe.advance(0, 9);
        assert!(!b.covers(&probe));
    }
}
