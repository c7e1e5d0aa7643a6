//! # mirror-store — durable event log + snapshot persistence
//!
//! The paper's protocol ("Adaptable Mirroring in Cluster Servers") assumes
//! sites never lose state: events are retained in the in-memory
//! `BackupQueue` only until the next checkpoint commit, so the runtime can
//! heal outages shorter than one commit interval but nothing longer, and a
//! cold mirror start needs a live snapshot from the central EDE. This crate
//! closes that gap with the standard durability discipline of recoverable
//! replication middleware:
//!
//! - [`log::EventLog`] — a segmented append-only write-ahead log. The
//!   central sending task journals each `(send_idx, event)`, in its wire
//!   encoding, as it enters the backup queue. Checkpoint
//!   commit advances a durable truncation watermark (the on-disk twin of
//!   `BackupQueue::prune`) and garbage-collects whole segments below it.
//! - [`snapshot::SnapshotStore`] — atomic, checksummed persistence for EDE
//!   snapshots, giving recovery a bounded replay suffix.
//! - [`recover`] — cold-start recovery: load the snapshot (if any), replay
//!   the retained log suffix on top, and return the reconstructed
//!   operational state plus its checkpoint frontier. Over-replay is safe:
//!   the EDE's per-flight guards (monotone position sequence numbers,
//!   status-regression rejection, monotone counters) absorb stale events,
//!   so replaying from before the snapshot converges to the same state
//!   hash as live peers.
//!
//! Everything is `std::fs` only — no new dependencies.

#![forbid(unsafe_code)]

pub mod crc;
pub mod log;
pub mod snapshot;

pub use crate::log::{EventLog, FsyncPolicy, LogConfig};
pub use crate::snapshot::{PersistedSnapshot, SnapshotStore};

use std::io;
use std::path::Path;
use std::sync::Arc;

use mirror_core::event::Event;
use mirror_core::timestamp::VectorTimestamp;
use mirror_ede::state::OperationalState;

/// The result of [`recover`]: reconstructed state plus replay bookkeeping.
#[derive(Debug)]
pub struct Recovered {
    /// EDE state after snapshot restore + log replay.
    pub state: OperationalState,
    /// Checkpoint frontier: the snapshot's `as_of` merged with the stamps
    /// of every replayed event. Suitable for seeding a rejoining mirror.
    pub frontier: VectorTimestamp,
    /// Number of log entries replayed on top of the snapshot.
    pub replayed: usize,
    /// Highest send index replayed, if the log held any entries.
    pub last_replayed_idx: Option<u64>,
}

/// Rebuild EDE state from a store directory: snapshot (if present and
/// intact) plus a full replay of the retained log suffix.
///
/// **Requires exclusive access to `dir`.** [`EventLog::open`] runs
/// destructive crash repair (truncating torn tails, deleting segments past
/// a hole); running it on a directory a live `EventLog` is still appending
/// to can truncate the live writer's active segment out from under it and
/// permanently corrupt the log. An embedding that holds a live log must
/// recover *through* it (replay under its lock, e.g. the runtime's
/// `Journal::recover`) and call [`rebuild`] on the result instead.
///
/// The entire retained log is replayed, not just the part after the
/// snapshot's frontier — computing the exact cut would need a per-entry
/// stamp comparison, and the EDE's idempotent guards make over-replay free
/// of harm. A torn/corrupt snapshot reads as absent and recovery degrades
/// to pure log replay.
pub fn recover(dir: impl AsRef<Path>) -> io::Result<Recovered> {
    let dir = dir.as_ref();
    let snapshot = SnapshotStore::open(dir)?.load()?;
    let mut log = EventLog::open(dir, LogConfig::default())?;
    let entries = log.replay_from(0)?;
    Ok(rebuild(snapshot, entries))
}

/// Assemble recovered state from already-loaded pieces: restore `snapshot`
/// (if any), then replay `entries` on top. Pure in-memory — no file access
/// — so it composes with any way of obtaining the log suffix, in
/// particular a replay served by a live, lock-protected log.
pub fn rebuild(snapshot: Option<PersistedSnapshot>, entries: Vec<(u64, Arc<Event>)>) -> Recovered {
    let (mut state, mut frontier) = match snapshot {
        Some(snap) => {
            let as_of = snap.as_of.clone();
            (snap.into_state(), as_of)
        }
        None => (OperationalState::new(), VectorTimestamp::empty()),
    };
    let replayed = entries.len();
    let mut last_replayed_idx = None;
    for (idx, ev) in entries {
        state.apply(&ev);
        frontier.merge(&ev.stamp);
        last_replayed_idx = Some(idx);
    }
    Recovered { state, frontier, replayed, last_replayed_idx }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::sync::Arc;

    use mirror_core::event::{Event, PositionFix};
    use mirror_echo::wire::{encode_frame, Frame};

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mirror-recover-{}-{}", std::process::id(), tag));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn event(seq: u64) -> Arc<Event> {
        let mut e = Event::faa_position(
            seq,
            (seq % 4) as u32,
            PositionFix {
                lat: seq as f64,
                lon: 0.5,
                alt_ft: 31000.0,
                speed_kts: 420.0,
                heading_deg: 90.0,
            },
        );
        let mut st = VectorTimestamp::new(2);
        st.advance(0, seq);
        e.stamp = st;
        Arc::new(e)
    }

    #[test]
    fn recover_from_empty_dir_is_fresh_state() {
        let dir = test_dir("empty");
        let r = recover(&dir).unwrap();
        assert_eq!(r.replayed, 0);
        assert_eq!(r.state.flights().len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_plus_log_replay_matches_live_state() {
        let dir = test_dir("snaplog");

        // "Live" reference: apply all 40 events directly.
        let mut live = OperationalState::new();
        let events: Vec<Arc<Event>> = (1..=40).map(event).collect();
        for e in &events {
            live.apply(e);
        }

        // Durable twin: snapshot at 25, log holds 20..=40 (overlap on
        // purpose — replay over the snapshot must be idempotent).
        let mut snap_state = OperationalState::new();
        for e in &events[..25] {
            snap_state.apply(e);
        }
        let mut as_of = VectorTimestamp::new(2);
        as_of.advance(0, 25);
        SnapshotStore::open(&dir).unwrap().save(&snap_state, &as_of).unwrap();

        let mut log = EventLog::open(&dir, LogConfig::default()).unwrap();
        for (i, e) in events.iter().enumerate().skip(19) {
            let wire = encode_frame(&Frame::Data(Arc::clone(e)));
            log.append((i + 1) as u64, &wire).unwrap();
        }
        drop(log);

        let r = recover(&dir).unwrap();
        assert_eq!(r.state.state_hash(), live.state_hash());
        assert_eq!(r.replayed, 21);
        assert_eq!(r.last_replayed_idx, Some(40));
        assert_eq!(r.frontier.get(0), 40);
        fs::remove_dir_all(&dir).unwrap();
    }
}
