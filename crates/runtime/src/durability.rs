//! Durable journaling for the central site.
//!
//! When a cluster is started with a [`DurabilityConfig`], the central
//! sending task journals each `(send_idx, event)` to a
//! [`mirror_store::EventLog`] **as it enters the backup queue**: the
//! journal write reuses the `SharedEvent` cached wire encoding, so
//! durability costs one `write(2)`, not a second encode. Checkpoint commits
//! advance the log's truncation watermark to the backup queue's oldest
//! retained index — the on-disk twin of `BackupQueue::prune` — and whole
//! segments below the watermark are deleted, except the newest closed one,
//! which the log keeps as slack (see `mirror_store::log`). So the journal
//! still holds the events just below the floor right after a segment roll,
//! and promotion's `replay_from(0)` reads at most one segment more than
//! the floor requires. At the default 64 MiB segments that is up to
//! ≈ 124k events of 538 B; a run that never rolls a segment (the
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
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use parking_lot::Mutex;

use mirror_core::event::Event;
use mirror_core::timestamp::VectorTimestamp;
use mirror_echo::wire::SharedEvent;
use mirror_ede::OperationalState;
use mirror_store::{EventLog, FsyncPolicy, LogConfig, SnapshotStore};

/// Where and how durably the central site journals mirrored events.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the event log segments, watermark, and snapshot.
    pub dir: PathBuf,
    /// Fsync discipline for journal appends (commit always syncs).
    pub fsync: FsyncPolicy,
    /// Roll to a new log segment past this size (bytes).
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// Durability rooted at `dir` with the default log tuning
    /// ([`LogConfig::default`]: fsync every 64 appends, 64 MiB segments).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        let defaults = LogConfig::default();
        Self { dir: dir.into(), fsync: defaults.fsync, segment_bytes: defaults.segment_bytes }
    }
}

/// Work shipped to the journal's writer thread. FIFO queue order is the
/// correctness backbone: a `Commit` covers exactly the appends enqueued
/// before it, and a `Barrier` ack means every earlier op has reached the
/// [`EventLog`].
///
/// An append carries the [`SharedEvent`], not bytes: the writer thread
/// forces the shared encode cache, so the encoding cost lands off the
/// mirroring data path — and any bridge that later needs the same frame
/// reuses the cached buffer instead of re-encoding.
enum Op {
    Append(u64, SharedEvent),
    Commit(u64),
    Barrier(mpsc::SyncSender<()>),
}

/// The writer thread's inbox. Appends push under the mutex and return
/// **without notifying** — the writer drains on a short poll — because a
/// per-append wake-up is a context-switch ping-pong that costs more than
/// the write itself (~20 µs/event measured on a single-core host, against
/// sub-microsecond for the push). Commits, barriers, and shutdown do
/// notify: they are rare and latency-sensitive.
struct OpQueue {
    /// `(ops, closed)` under one std mutex so the condvar can guard both.
    state: std::sync::Mutex<(Vec<Op>, bool)>,
    cv: std::sync::Condvar,
}

/// How long the writer sleeps between looks at an empty inbox. Bounds the
/// extra durability lag async journaling adds on top of the fsync policy.
const WRITER_POLL: Duration = Duration::from_millis(1);

/// The central site's handle on its durable stores.
///
/// Appends and commits are **asynchronous**: the caller pushes the op onto
/// the writer inbox (an `Arc` bump and a mutex push, well under a
/// microsecond, no thread wake-up) and a dedicated writer thread drives
/// the [`EventLog`] in batches — the WAL-writer pattern, keeping disk
/// latency and page-cache pressure off the mirroring data path entirely.
/// Reads ([`replay_from`](Journal::replay_from) etc.) first drain the
/// queue through a barrier, so they always observe every op enqueued
/// before them.
///
/// IO errors on the writer thread are recorded (first error wins) rather
/// than propagated — the data path must not stall on a sick disk;
/// operators poll [`last_error`](Journal::last_error).
pub struct Journal {
    queue: Arc<OpQueue>,
    writer: Mutex<Option<thread::JoinHandle<()>>>,
    log: Arc<Mutex<EventLog>>,
    snapshots: SnapshotStore,
    error: Arc<Mutex<Option<io::Error>>>,
    /// Fault injection: artificial stall (µs) inside
    /// [`save_snapshot`](Journal::save_snapshot), modeling a slow or
    /// contended disk. Tests use it to prove snapshot persistence never
    /// blocks event processing.
    snapshot_save_pad_us: std::sync::atomic::AtomicU64,
    /// Crash simulation: see [`crash`](Journal::crash).
    crashed: std::sync::atomic::AtomicBool,
}

impl Journal {
    /// Open (or create) the stores under `cfg.dir`, running log recovery,
    /// and start the writer thread.
    pub fn open(cfg: &DurabilityConfig) -> io::Result<Self> {
        let log = Arc::new(Mutex::new(EventLog::open(
            &cfg.dir,
            LogConfig { fsync: cfg.fsync, segment_bytes: cfg.segment_bytes },
        )?));
        let snapshots = SnapshotStore::open(&cfg.dir)?;
        let error = Arc::new(Mutex::new(None));
        let queue = Arc::new(OpQueue {
            state: std::sync::Mutex::new((Vec::new(), false)),
            cv: std::sync::Condvar::new(),
        });
        let writer = {
            let log = Arc::clone(&log);
            let error = Arc::clone(&error);
            let queue = Arc::clone(&queue);
            thread::Builder::new()
                .name("mirror-journal".into())
                .spawn(move || loop {
                    let batch = {
                        let mut state = queue.state.lock().unwrap();
                        while state.0.is_empty() {
                            if state.1 {
                                return;
                            }
                            state = queue.cv.wait_timeout(state, WRITER_POLL).unwrap().0;
                        }
                        std::mem::take(&mut state.0)
                    };
                    // One log lock per batch, not per op.
                    let mut log = log.lock();
                    for op in batch {
                        let r = match op {
                            Op::Append(idx, event) => log.append(idx, &event.encoded()),
                            Op::Commit(floor) => log.commit(floor),
                            Op::Barrier(ack) => {
                                let _ = ack.send(());
                                Ok(())
                            }
                        };
                        if let Err(e) = r {
                            let mut slot = error.lock();
                            if slot.is_none() {
                                *slot = Some(e);
                            }
                        }
                    }
                })
                .expect("spawn mirror-journal writer")
        };
        Ok(Self {
            queue,
            writer: Mutex::new(Some(writer)),
            log,
            snapshots,
            error,
            snapshot_save_pad_us: std::sync::atomic::AtomicU64::new(0),
            crashed: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Push `ops` in order under one inbox lock.
    fn send(&self, ops: impl IntoIterator<Item = Op>, notify: bool) {
        if self.crashed.load(std::sync::atomic::Ordering::Acquire) {
            // Dropping the op also drops a Barrier's ack sender, so a
            // concurrent `drain` unblocks instead of hanging forever.
            return;
        }
        self.queue.state.lock().unwrap().0.extend(ops);
        if notify {
            self.queue.cv.notify_one();
        }
    }

    /// Block until the writer has applied every op enqueued before now.
    fn drain(&self) {
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        self.send([Op::Barrier(ack_tx)], true);
        let _ = ack_rx.recv();
    }

    /// Journal a run of mirrored events, in order (called on the aux
    /// thread for each run of mirror actions, after the backup-queue
    /// pushes and before the run's data-channel publish). Non-blocking and
    /// wake-free — the cost on the data path is one inbox lock per run and
    /// two reference-count bumps and a push per event; even the wire
    /// encoding happens on the writer thread (into each event's shared
    /// encode cache, so bridges reuse it). The writer picks the ops up
    /// within the 1 ms poll interval.
    pub fn append_all(&self, run: impl IntoIterator<Item = (u64, SharedEvent)>) {
        self.send(run.into_iter().map(|(idx, event)| Op::Append(idx, event)), false);
    }

    /// Checkpoint commit: sync the log and advance the truncation
    /// watermark to `floor` (the backup queue's oldest retained index).
    /// Non-blocking; FIFO order makes it cover all prior appends.
    pub fn commit(&self, floor: u64) {
        self.send([Op::Commit(floor)], true);
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
        let pad = self.snapshot_save_pad_us.load(std::sync::atomic::Ordering::Relaxed);
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
        self.snapshot_save_pad_us
            .store(pad.as_micros() as u64, std::sync::atomic::Ordering::Relaxed);
    }

    /// Load the persisted EDE snapshot, if one exists and is intact (a
    /// torn/corrupt file reads as absent). Non-mutating.
    pub fn load_snapshot(&self) -> io::Result<Option<mirror_store::PersistedSnapshot>> {
        self.snapshots.load()
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
        use std::sync::atomic::Ordering;
        if self.crashed.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            // Ops enqueued before the crash but not yet written are lost,
            // like a process dying with its WAL inbox unflushed.
            let mut state = self.queue.state.lock().unwrap();
            state.0.clear();
            state.1 = true;
        }
        self.queue.cv.notify_one();
        if let Some(w) = self.writer.lock().take() {
            let _ = w.join();
        }
        self.log.lock().abandon();
    }

    /// Whether [`crash`](Journal::crash) has been called.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(std::sync::atomic::Ordering::Acquire)
    }
}

impl Drop for Journal {
    /// Close the queue and join the writer: every enqueued op reaches the
    /// log (whose own drop then flushes its append buffer).
    fn drop(&mut self) {
        if self.is_crashed() {
            // The writer is already joined and the log abandoned; a clean
            // drain here would undo the simulated crash.
            return;
        }
        self.drain();
        self.queue.state.lock().unwrap().1 = true;
        self.queue.cv.notify_one();
        if let Some(w) = self.writer.lock().take() {
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
