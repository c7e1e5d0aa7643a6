//! Durable journaling for the central site.
//!
//! When a cluster is started with a [`DurabilityConfig`], the central
//! sending task journals each `(send_idx, event)` to a
//! [`mirror_store::EventLog`] **as it enters the backup queue**. One thread
//! does the encoding and the disk work, the journal's writer: it takes
//! every op queued when it wakes and hands the log each stretch of
//! consecutive appends as one run, so under [`FsyncPolicy::EveryN`] a
//! drained batch pays at most one `fdatasync` per stretch (group commit).
//! Checkpoint commits advance the log's truncation watermark to the backup
//! queue's oldest retained index — the on-disk twin of `BackupQueue::prune`
//! — and whole segments below the watermark are deleted, except the newest
//! closed one, which the log keeps as slack (see `mirror_store::log`). So
//! the journal still holds the events just below the floor right after a
//! segment roll, and promotion's `replay_from(0)` reads at most one segment
//! more than the floor requires. At the default 64 MiB segments that is up
//! to ≈ 124k events of 538 B; a run that never rolls a segment (the
//! benchmark's `central_failover` journals ≈ 20k events) reads none.
//!
//! The journal extends the cluster's healing range:
//!
//! * [`Cluster::resync_mirror`](crate::Cluster::resync_mirror) falls back
//!   to log replay when the requested index predates the in-memory suffix;
//! * [`Cluster::recover_site`](crate::Cluster::recover_site) cold-starts a
//!   mirror from the persisted snapshot plus log replay, with no live seed
//!   from the central EDE required.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam::channel::{self, Sender};
use parking_lot::Mutex;

use mirror_core::event::Event;
use mirror_core::timestamp::VectorTimestamp;
use mirror_echo::wire::{encode_frame, Frame};
use mirror_ede::OperationalState;
use mirror_store::{EventLog, FsyncPolicy, LogConfig, SnapshotStore};

/// Where and how durably the central site journals mirrored events.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the event log segments, watermark, and snapshot.
    pub dir: PathBuf,
    /// Fsync discipline for journal appends (commit always syncs).
    pub fsync: FsyncPolicy,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default log tuning
    /// ([`LogConfig::default`]: fsync every 64 appends, 64 MiB segments).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), fsync: LogConfig::default().fsync }
    }
}

/// Work shipped to the journal's writer thread. FIFO order is the
/// correctness backbone: a `Commit` covers exactly the appends sent before
/// it, and a `Barrier` ack means every earlier op has reached the
/// [`EventLog`].
///
/// An append carries a run of events, not bytes: the writer thread
/// encodes them, so the encoding cost lands off the mirroring data path.
enum Op {
    Append(Vec<(u64, Arc<Event>)>),
    Commit(u64),
    Barrier(Sender<()>),
    Stop,
}

/// Merge each stretch of consecutive `Append`s into one, keeping FIFO
/// order: the writer hands the log one run per stretch, and under
/// [`FsyncPolicy::EveryN`] a run pays at most one `fdatasync`.
fn merge_appends(ops: impl IntoIterator<Item = Op>) -> Vec<Op> {
    let mut merged: Vec<Op> = Vec::new();
    for op in ops {
        match (merged.last_mut(), op) {
            (Some(Op::Append(run)), Op::Append(more)) => run.extend(more),
            (_, op) => merged.push(op),
        }
    }
    merged
}

/// The central site's handle on its durable stores.
///
/// Appends and commits are **asynchronous**: the caller sends the op to a
/// dedicated writer thread (one channel send per run) and returns. The
/// writer blocks until an op arrives, takes everything already queued
/// with it, merges consecutive appends, and drives the [`EventLog`] under
/// one lock per batch — the WAL-writer pattern with group commit: under
/// [`FsyncPolicy::EveryN`] a batch pays at most one `fdatasync` per
/// stretch of appends, so the slower the disk, the larger the batch, and
/// disk latency stays off the mirroring data path. Reads
/// ([`replay_from`](Journal::replay_from) etc.) first drain the queue
/// through a barrier, so they always observe every op sent before them.
///
/// IO errors on the writer thread are recorded (first error wins) rather
/// than propagated — the data path must not stall on a sick disk;
/// operators poll [`last_error`](Journal::last_error).
pub struct Journal {
    ops: Sender<Op>,
    writer: Mutex<Option<thread::JoinHandle<()>>>,
    log: Arc<Mutex<EventLog>>,
    snapshots: SnapshotStore,
    error: Arc<Mutex<Option<io::Error>>>,
    /// Fault injection: artificial stall (µs) inside
    /// [`save_snapshot`](Journal::save_snapshot), modeling a slow or
    /// contended disk. Tests use it to prove snapshot persistence never
    /// blocks event processing.
    snapshot_save_pad_us: AtomicU64,
    /// Crash simulation: see [`crash`](Journal::crash). The writer checks
    /// it before each op.
    crashed: Arc<AtomicBool>,
}

impl Journal {
    /// Open (or create) the stores under `cfg.dir`, running log recovery,
    /// and start the writer thread.
    pub fn open(cfg: &DurabilityConfig) -> io::Result<Self> {
        let log = Arc::new(Mutex::new(EventLog::open(
            &cfg.dir,
            LogConfig { fsync: cfg.fsync, ..LogConfig::default() },
        )?));
        let snapshots = SnapshotStore::open(&cfg.dir)?;
        let error = Arc::new(Mutex::new(None));
        let crashed = Arc::new(AtomicBool::new(false));
        let (ops, rx) = channel::unbounded::<Op>();
        let writer = {
            let log = Arc::clone(&log);
            let error = Arc::clone(&error);
            let crashed = Arc::clone(&crashed);
            thread::Builder::new()
                .name("mirror-journal".into())
                .spawn(move || {
                    while let Ok(first) = rx.recv() {
                        let queued = std::iter::from_fn(|| rx.try_recv().ok());
                        let batch = merge_appends(std::iter::once(first).chain(queued));
                        // One log lock per batch, not per op.
                        let mut log = log.lock();
                        for op in batch {
                            // A crash discards what is still queued.
                            if crashed.load(Ordering::Acquire) {
                                return;
                            }
                            let r = match op {
                                Op::Append(run) => {
                                    log.append_all(run.into_iter().map(|(idx, event)| {
                                        (idx, encode_frame(&Frame::Data(event)))
                                    }))
                                }
                                Op::Commit(floor) => log.commit(floor),
                                Op::Barrier(ack) => {
                                    let _ = ack.send(());
                                    Ok(())
                                }
                                Op::Stop => return,
                            };
                            if let Err(e) = r {
                                error.lock().get_or_insert(e);
                            }
                        }
                    }
                })
                .expect("spawn mirror-journal writer")
        };
        Ok(Self {
            ops,
            writer: Mutex::new(Some(writer)),
            log,
            snapshots,
            error,
            snapshot_save_pad_us: AtomicU64::new(0),
            crashed,
        })
    }

    /// Send `op` to the writer. Once the writer has exited (after a
    /// crash) the op is dropped, which also drops a `Barrier`'s ack
    /// sender, so a concurrent `drain` returns instead of hanging.
    fn send(&self, op: Op) {
        let _ = self.ops.send(op);
    }

    /// Block until the writer has applied every op sent before now (or
    /// has discarded it in a crash).
    fn drain(&self) {
        let (ack_tx, ack_rx) = channel::bounded(1);
        self.send(Op::Barrier(ack_tx));
        let _ = ack_rx.recv();
    }

    /// Journal a run of mirrored events, in order (called on the aux
    /// thread for each run of mirror actions, after the backup-queue
    /// pushes and before the run's data-channel publish). Non-blocking:
    /// the cost on the data path is one channel send per run and a
    /// reference-count bump and a push per event; even the wire encoding
    /// happens on the writer thread. The writer merges the run with the
    /// runs queued beside it and group-commits them (see [`Journal`]).
    pub fn append_all(&self, run: impl IntoIterator<Item = (u64, Arc<Event>)>) {
        let run: Vec<_> = run.into_iter().collect();
        if !run.is_empty() {
            self.send(Op::Append(run));
        }
    }

    /// Checkpoint commit: sync the log and advance the truncation
    /// watermark to `floor` (the backup queue's oldest retained index).
    /// Non-blocking; FIFO order makes it cover all prior appends.
    pub fn commit(&self, floor: u64) {
        self.send(Op::Commit(floor));
    }

    /// Drain pending ops and force the log to stable storage — the barrier
    /// a cold-start recovery takes before reading the directory.
    pub fn flush(&self) -> io::Result<()> {
        self.drain();
        self.log.lock().sync()
    }

    /// Replay retained entries with `send_idx >= from_idx`, in order.
    pub fn replay_from(&self, from_idx: u64) -> io::Result<Vec<(u64, Arc<Event>)>> {
        self.drain();
        self.log.lock().replay_from(from_idx)
    }

    /// Oldest send index still present in the log (`None` when empty).
    pub fn first_retained_idx(&self) -> Option<u64> {
        self.drain();
        self.log.lock().first_retained_idx()
    }

    /// Highest send index journaled so far.
    pub fn last_idx(&self) -> Option<u64> {
        self.drain();
        self.log.lock().last_idx()
    }

    /// Persist an EDE snapshot consistent with `as_of` (atomic replace).
    pub fn save_snapshot(
        &self,
        state: &OperationalState,
        as_of: &VectorTimestamp,
    ) -> io::Result<()> {
        let pad = self.snapshot_save_pad_us.load(Ordering::Relaxed);
        if pad > 0 {
            thread::sleep(Duration::from_micros(pad));
        }
        self.snapshots.save(state, as_of)
    }

    /// Inject an artificial stall into every subsequent
    /// [`save_snapshot`](Journal::save_snapshot) (fault injection,
    /// mirroring the transport-level `faults` machinery): tests assert
    /// that a slow durable save cannot stall the event hot path.
    #[doc(hidden)]
    pub fn set_snapshot_save_pad(&self, pad: Duration) {
        self.snapshot_save_pad_us.store(pad.as_micros() as u64, Ordering::Relaxed);
    }

    /// Cold-start recovery **through** the live journal: load the persisted
    /// snapshot, replay the full retained log suffix, and rebuild the EDE
    /// state — all served by this journal's own lock-protected
    /// [`EventLog`], with a drain barrier covering every op enqueued before
    /// the call.
    ///
    /// This is the only safe way to recover while the journal is live:
    /// [`mirror_store::recover`] opens a *second* `EventLog` on the
    /// directory, whose destructive crash repair (truncation, segment
    /// deletion) races any append this journal flushes mid-scan and can
    /// permanently corrupt the live log. Concurrent appends stay safe here
    /// because the replay holds the log mutex; events journaled after the
    /// drain barrier are simply not part of the replay — a seeding caller
    /// picks them up from its live subscription instead.
    pub fn recover(&self) -> io::Result<mirror_store::Recovered> {
        let snapshot = self.snapshots.load()?;
        let entries = self.replay_from(0)?;
        Ok(mirror_store::rebuild(snapshot, entries))
    }

    /// The first IO error the journal swallowed on the write path, if any.
    /// Drains first, so a sick disk surfaces as soon as an op has hit it.
    pub fn last_error(&self) -> Option<io::ErrorKind> {
        self.drain();
        self.error.lock().as_ref().map(|e| e.kind())
    }

    /// Simulate a process crash: queued-but-unwritten ops are discarded,
    /// the writer thread exits, and the underlying [`EventLog`] is
    /// abandoned mid-write (its buffered tail lost, a torn final record
    /// possibly on disk). The directory is left exactly as a crashed
    /// central would leave it — a later [`Journal::open`] on the same
    /// [`DurabilityConfig`] runs the store's torn-write crash repair.
    pub fn crash(&self) {
        if self.crashed.swap(true, Ordering::AcqRel) {
            return;
        }
        // The writer sees the flag before its next op, so ops sent before
        // the crash but not yet written are lost, like a process dying
        // with its WAL inbox unflushed; `Stop` wakes an idle writer.
        self.send(Op::Stop);
        if let Some(w) = self.writer.lock().take() {
            let _ = w.join();
        }
        self.log.lock().abandon();
    }

    /// Whether [`crash`](Journal::crash) has been called.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }
}

impl Drop for Journal {
    /// Stop the writer behind every op already sent: each reaches the log
    /// (whose own drop then flushes its append buffer). After a crash the
    /// writer is already joined and the log abandoned.
    fn drop(&mut self) {
        if let Some(w) = self.writer.lock().take() {
            self.send(Op::Stop);
            let _ = w.join();
        }
    }
}

/// What [`Cluster::resync_mirror`](crate::Cluster::resync_mirror) did.
///
/// Callers must treat [`ResyncOutcome::Gap`] as a hard miss — the lagging
/// mirror cannot be healed by replay and needs a snapshot seed (e.g.
/// [`Cluster::rejoin_mirror`](crate::Cluster::rejoin_mirror) or
/// [`Cluster::recover_site`](crate::Cluster::recover_site)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResyncOutcome {
    /// The full suffix from the requested index was replayed.
    Replayed {
        /// Number of events republished on the data channel.
        events: usize,
        /// Where the suffix came from.
        source: ResyncSource,
    },
    /// Neither the in-memory backup queue nor the durable log retains the
    /// requested index: replay would silently skip events.
    Gap {
        /// Oldest index that *is* retained (in memory or on disk), if any.
        first_retained: Option<u64>,
    },
}

/// Which store served a successful resync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResyncSource {
    /// The in-memory backup queue (outage shorter than one commit).
    Memory,
    /// The durable event log (outage longer than the in-memory suffix).
    DurableLog,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::PositionFix;

    fn shared(seq: u64) -> Arc<Event> {
        let fix = PositionFix { lat: 0.0, lon: 0.0, alt_ft: 1.0, speed_kts: 1.0, heading_deg: 0.0 };
        Arc::new(Event::faa_position(seq, 1, fix))
    }

    fn append(idxs: &[u64]) -> Op {
        Op::Append(idxs.iter().map(|&i| (i, shared(i))).collect())
    }

    /// `merge_appends`' output, one line per op.
    fn describe(ops: &[Op]) -> Vec<String> {
        ops.iter()
            .map(|op| match op {
                Op::Append(run) => {
                    format!("append {:?}", run.iter().map(|(i, _)| *i).collect::<Vec<_>>())
                }
                Op::Commit(floor) => format!("commit {floor}"),
                Op::Barrier(_) => "barrier".into(),
                Op::Stop => "stop".into(),
            })
            .collect()
    }

    #[test]
    fn consecutive_appends_merge_and_commits_and_barriers_split_them() {
        let (ack, _ack_rx) = channel::bounded(1);
        let ops = [
            append(&[1, 2]),
            append(&[3]),
            Op::Commit(2),
            append(&[4]),
            Op::Barrier(ack),
            append(&[5]),
            append(&[6, 7]),
            append(&[8]),
            Op::Stop,
        ];
        assert_eq!(
            describe(&merge_appends(ops)),
            [
                "append [1, 2, 3]",
                "commit 2",
                "append [4]",
                "barrier",
                "append [5, 6, 7, 8]",
                "stop"
            ]
        );
        assert!(merge_appends([]).is_empty());
    }

    #[test]
    fn a_crashed_journal_returns_from_every_call() {
        let dir =
            std::env::temp_dir().join(format!("mirror-rt-journal-{}-crash", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = Journal::open(&DurabilityConfig::new(&dir)).unwrap();
        journal.append_all((1..=100).map(|i| (i, shared(i))));
        assert_eq!(journal.last_idx(), Some(100));
        journal.crash();
        assert!(journal.is_crashed());
        journal.append_all((101..=200).map(|i| (i, shared(i))));
        journal.commit(150);
        assert_eq!(journal.last_error(), None, "nothing reached the log after the crash");
        drop(journal);
        let reopened = Journal::open(&DurabilityConfig::new(&dir)).unwrap();
        assert!(
            reopened.last_idx().is_some_and(|last| last <= 100),
            "the crash kept no op after it"
        );
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
