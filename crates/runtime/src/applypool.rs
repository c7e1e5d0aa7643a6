//! The sharded apply worker pool.
//!
//! A site's main (EDE) thread used to apply every event inline under one
//! `Mutex<Ede>`, paying per event for a channel hop, two mutex
//! acquisitions (EDE + checkpoint responder), an `EdeOutput` allocation
//! and an `Event` clone. [`ApplyPool`] replaces that inner loop:
//!
//! * the owning thread (the site's aux thread, which routes each run's
//!   actions itself) sends each event by its
//!   flight's shard to a worker over a bounded lock-free SPSC ring
//!   ([`mirror_core::ring`]) — shard affinity makes every ring
//!   single-producer/single-consumer by construction and keeps
//!   *per-flight* apply order intact while different flights proceed in
//!   parallel;
//! * each worker applies events straight into the [`ShardedEde`] through
//!   the callback-based [`Ede::process_with`](mirror_ede::Ede::process_with)
//!   path (no `EdeOutput` allocation; an `Event` clone only when an
//!   updates subscriber actually needs an owned copy);
//! * checkpoint-frontier and counter bookkeeping is **batched**: workers
//!   join the vector stamps of up to [`ApplyPoolConfig::batch`] events and
//!   take the responder lock once per batch, flushing eagerly whenever the
//!   ring runs dry so the frontier never lags an idle site;
//! * an idle worker blocks in the ring's `recv` (spin, yield, then park
//!   until the owner's next push), after that flush — it polls
//!   nothing and burns no CPU while its shard has no traffic.
//!
//! Ordering contract: the checkpoint frontier only ever *trails* the
//! store (an event is applied before its stamp is recorded). All
//! consistent-read paths capture the frontier **before** freezing state,
//! so a trailing frontier merely makes commits conservative — the same
//! invariant the single-lock path maintained, now with a slightly wider
//! window. See DESIGN.md §16.
//!
//! [`quiesce`](ApplyPool::quiesce) drains and parks every worker at a
//! barrier so the caller can install seed state atomically between two
//! well-defined batches of applies.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use parking_lot::Mutex;

use mirror_core::checkpoint::MainUnitResponder;
use mirror_core::event::Event;
use mirror_core::ring::{spsc, RingProbe, RingRecv, SpscSender};
use mirror_core::timestamp::VectorTimestamp;
use mirror_echo::channel::Publisher;
use mirror_ede::{ShardMap, ShardedEde};

use crate::clock::RuntimeClock;
use crate::site::SiteCounters;

/// Sizing knobs for an [`ApplyPool`].
#[derive(Debug, Clone)]
pub struct ApplyPoolConfig {
    /// Apply worker threads. Shard `s` is pinned to worker `s % workers`,
    /// so per-flight order survives any worker count. Defaults to
    /// `min(4, available cores)`.
    pub workers: usize,
    /// Per-worker ring capacity (rounded up to a power of two). A full
    /// ring backpressures the owner — bounded memory under overload.
    pub ring_capacity: usize,
    /// Max events a worker applies between bookkeeping flushes (responder
    /// stamp merge + counter adds). Flushes also happen whenever the ring
    /// runs dry, so batching never delays an idle site's frontier.
    pub batch: usize,
}

impl Default for ApplyPoolConfig {
    fn default() -> Self {
        let cores =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        // 4096 slots × 16-byte messages keeps a worker's backlog ~64 KiB
        // while letting owner and worker exchange the CPU in large
        // quanta when cores are scarce.
        ApplyPoolConfig { workers: cores.min(4), ring_capacity: 4096, batch: 64 }
    }
}

/// Shared bookkeeping targets the workers account into.
#[derive(Clone)]
pub struct ApplySink {
    /// The main unit's checkpoint responder: batch-joined stamps are
    /// merged into its processed frontier after the events are applied.
    pub responder: Arc<Mutex<MainUnitResponder>>,
    /// The site's counters (`processed`, delay sums, `apply_batches`).
    pub counters: Arc<SiteCounters>,
    /// Time base for update-delay accounting.
    pub clock: RuntimeClock,
    /// The site's applied-updates stream (`None` for a pool driven without
    /// a site); an update is cloned and published only while someone is
    /// subscribed.
    pub updates: Option<Publisher<Event>>,
}

enum WorkerMsg {
    Event(Arc<Event>),
    /// Park at the barrier twice (arrive + resume) so the owner can
    /// mutate the store with every ring provably empty.
    Quiesce(Arc<Barrier>),
}

/// A pool of shard-affine apply workers fed over lock-free SPSC rings.
/// Owned by a single thread (methods take `&mut self` — the
/// single-producer side of every ring).
pub struct ApplyPool {
    map: ShardMap,
    feeds: Vec<SpscSender<WorkerMsg>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ApplyPool {
    /// Spawn `config.workers` apply workers over `ede`.
    ///
    /// `crashed` mirrors the owning site's crash flag: when set, workers
    /// abandon their ring backlogs instead of draining them — the same
    /// wreckage a dead process leaves.
    pub fn spawn(
        ede: Arc<ShardedEde>,
        sink: ApplySink,
        crashed: Arc<AtomicBool>,
        config: ApplyPoolConfig,
    ) -> Self {
        let workers = config.workers.max(1);
        let mut feeds = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = spsc::<WorkerMsg>(config.ring_capacity);
            feeds.push(tx);
            let ede = Arc::clone(&ede);
            let sink = sink.clone();
            let crashed = Arc::clone(&crashed);
            let batch = config.batch.max(1);
            let t = std::thread::Builder::new()
                .name(format!("apply-{w}"))
                .spawn(move || worker_loop(rx, ede, sink, crashed, batch))
                .expect("spawn apply worker");
            threads.push(t);
        }
        ApplyPool { map: ede.shard_map(), feeds, threads }
    }

    /// Route one event to the worker owning its flight's shard, blocking
    /// (bounded-ring backpressure) while that worker's ring is full.
    pub fn dispatch(&mut self, event: Arc<Event>) {
        let worker = self.map.shard_of(event.flight) % self.feeds.len();
        // Err means the worker is gone — only possible after a crash,
        // where dropping the event is exactly the intended semantics.
        let _ = self.feeds[worker].send(WorkerMsg::Event(event));
    }

    /// A [`RingProbe`] on each worker's ring, in worker order, for
    /// reading the dispatch statistics from other threads.
    pub fn ring_probes(&self) -> Vec<RingProbe> {
        self.feeds.iter().map(SpscSender::probe).collect()
    }

    /// Drain every worker and run `f` while all of them are parked at a
    /// barrier (rings empty, no shard lock held) — the seed-install
    /// window: applies dispatched before `quiesce` are fully in the store,
    /// applies dispatched after it happen on top of whatever `f` did.
    pub fn quiesce<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let barrier = Arc::new(Barrier::new(self.feeds.len() + 1));
        let mut parked = 0;
        for feed in &mut self.feeds {
            if feed.send(WorkerMsg::Quiesce(Arc::clone(&barrier))).is_ok() {
                parked += 1;
            }
        }
        if parked < self.feeds.len() {
            // A worker died (crash path): the barrier would never fill.
            // The store is no longer consistent anyway; run f unparked.
            return f();
        }
        barrier.wait();
        let out = f();
        barrier.wait();
        out
    }

    /// Stop the pool: drop the rings (workers drain what remains unless
    /// the crash flag is set, then exit) and join the worker threads.
    pub fn shutdown(self) {
        drop(self.feeds);
        for t in self.threads {
            let _ = t.join();
        }
    }
}

// The trailing flush before each return leaves its batch-reset
// assignments dead — the macro keeps every flush site identical.
#[allow(unused_assignments)]
fn worker_loop(
    mut rx: mirror_core::ring::SpscReceiver<WorkerMsg>,
    ede: Arc<ShardedEde>,
    sink: ApplySink,
    crashed: Arc<AtomicBool>,
    batch: usize,
) {
    let map = ede.shard_map();
    // Batch-local bookkeeping, flushed per `batch` events or on idle.
    let mut joined: Option<VectorTimestamp> = None;
    let mut applied = 0u64;
    let mut delay_sum = 0u64;
    let mut delay_count = 0u64;
    // Sampled once per batch, not per event: at apply rates of millions
    // of events/sec a per-event clock read dominates the apply itself,
    // and the µs-scale skew within one batch is far below the ms-scale
    // transit delays the mean-delay stat tracks.
    let mut now = 0u64;

    macro_rules! flush {
        () => {
            if applied > 0 {
                if let Some(stamp) = joined.take() {
                    sink.responder.lock().record_processed(&stamp);
                }
                sink.counters.processed.fetch_add(applied, Ordering::Relaxed);
                sink.counters.apply_batches.fetch_add(1, Ordering::Relaxed);
                // The staleness gauge's raw signal: when this site last
                // moved its applied frontier. `now` is the batch's single
                // clock sample, so the stamp costs no extra clock read.
                sink.counters.last_apply_us.fetch_max(now, Ordering::Relaxed);
                if delay_count > 0 {
                    sink.counters.delay_sum_us.fetch_add(delay_sum, Ordering::Relaxed);
                    sink.counters.delay_count.fetch_add(delay_count, Ordering::Relaxed);
                }
                applied = 0;
                delay_sum = 0;
                delay_count = 0;
            }
        };
    }

    loop {
        let msg = match rx.try_recv() {
            RingRecv::Item(m) => Some(m),
            RingRecv::Empty => {
                // Flush before blocking, so an idle site's frontier and
                // counters never lag what it has applied.
                flush!();
                rx.recv()
            }
            RingRecv::Disconnected => None,
        };
        if crashed.load(Ordering::Relaxed) {
            // Abandon the backlog (and any unflushed bookkeeping): crash
            // semantics — a dead process records nothing.
            return;
        }
        match msg {
            Some(WorkerMsg::Event(ev)) => {
                if applied == 0 {
                    now = sink.clock.now_us();
                }
                let shard = map.shard_of(ev.flight);
                ede.process_shard(
                    shard,
                    &ev,
                    |u| {
                        delay_sum += now.saturating_sub(u.ingress_us);
                        delay_count += 1;
                        if let Some(p) = &sink.updates {
                            // One atomic load guards the clone + publish:
                            // a site nobody listens to (the common case
                            // for an edge-less mirror) skips both.
                            if p.has_subscribers() {
                                p.publish(u.clone());
                            }
                        }
                    },
                    |_| {},
                );
                match &mut joined {
                    Some(j) => j.merge(&ev.stamp),
                    None => joined = Some(ev.stamp.clone()),
                }
                applied += 1;
                if applied >= batch as u64 {
                    flush!();
                }
            }
            Some(WorkerMsg::Quiesce(b)) => {
                flush!();
                b.wait();
                b.wait();
            }
            None => {
                flush!();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::aux_unit::CENTRAL_SITE;
    use mirror_core::event::{FlightStatus, PositionFix};

    fn sink() -> ApplySink {
        ApplySink {
            responder: Arc::new(Mutex::new(MainUnitResponder::new(CENTRAL_SITE))),
            counters: Arc::new(SiteCounters::default()),
            clock: RuntimeClock::new(),
            updates: None,
        }
    }

    fn events(flights: u32, per_flight: u64) -> Vec<Arc<Event>> {
        let mut out = Vec::new();
        for seq in 1..=per_flight {
            for f in 0..flights {
                let mut e = Event::faa_position(
                    seq,
                    f,
                    PositionFix {
                        lat: 0.0,
                        lon: 0.0,
                        alt_ft: seq as f64,
                        speed_kts: 0.0,
                        heading_deg: 0.0,
                    },
                );
                e.stamp.advance(0, (seq - 1) * flights as u64 + f as u64 + 1);
                out.push(Arc::new(e));
            }
        }
        out
    }

    #[test]
    fn pool_applies_everything_and_matches_serial_hash() {
        let evs = events(12, 20);
        let mut serial = mirror_ede::Ede::new();
        for e in &evs {
            serial.process(e);
        }

        let ede = Arc::new(ShardedEde::new(8));
        let s = sink();
        let crashed = Arc::new(AtomicBool::new(false));
        let mut pool = ApplyPool::spawn(
            Arc::clone(&ede),
            s.clone(),
            crashed,
            ApplyPoolConfig { workers: 2, ring_capacity: 64, batch: 16 },
        );
        for e in &evs {
            pool.dispatch(Arc::clone(e));
        }
        pool.shutdown();

        assert_eq!(ede.state_hash(), serial.state_hash());
        assert_eq!(ede.applied(), evs.len() as u64);
        assert_eq!(s.counters.processed.load(Ordering::Relaxed), evs.len() as u64);
        assert!(s.counters.apply_batches.load(Ordering::Relaxed) > 0);
        // The frontier covers every dispatched stamp after shutdown.
        let processed = s.responder.lock().processed().clone();
        for e in &evs {
            assert!(e.stamp.dominated_by(&processed), "frontier covers {:?}", e.stamp);
        }
    }

    #[test]
    fn quiesce_installs_between_batches() {
        let ede = Arc::new(ShardedEde::new(4));
        let s = sink();
        let crashed = Arc::new(AtomicBool::new(false));
        let mut pool = ApplyPool::spawn(
            Arc::clone(&ede),
            s,
            crashed,
            ApplyPoolConfig { workers: 2, ring_capacity: 16, batch: 8 },
        );
        for e in events(6, 5) {
            pool.dispatch(e);
        }
        // Build a replacement state and install it under quiesce.
        let mut seed = mirror_ede::OperationalState::new();
        seed.apply(&Event::delta_status(1, 777, FlightStatus::Landed));
        let want = seed.state_hash();
        pool.quiesce(|| ede.install_state(seed));
        // Everything dispatched before the quiesce is subsumed by the
        // install; the store now hashes as the seed alone.
        assert_eq!(ede.state_hash(), want);
        // Applies after the quiesce land on top of the seed.
        let mut e = Event::delta_status(2, 777, FlightStatus::AtGate);
        e.stamp.advance(0, 1);
        pool.dispatch(Arc::new(e));
        pool.shutdown();
        assert_eq!(
            ede.freeze(VectorTimestamp::empty()).0.flight(777).unwrap().status,
            FlightStatus::Arrived,
            "post-quiesce apply ran the AtGate→Arrived derivation on the seed"
        );
    }

    #[test]
    fn crash_abandons_backlog() {
        let ede = Arc::new(ShardedEde::new(4));
        let s = sink();
        let crashed = Arc::new(AtomicBool::new(false));
        let mut pool = ApplyPool::spawn(
            Arc::clone(&ede),
            s.clone(),
            Arc::clone(&crashed),
            // Tiny ring + tiny pool: the backlog outlives the crash flag.
            ApplyPoolConfig { workers: 1, ring_capacity: 2, batch: 64 },
        );
        crashed.store(true, Ordering::SeqCst);
        for e in events(4, 4) {
            pool.dispatch(e);
        }
        pool.shutdown();
        // Workers saw the crash flag; not everything was applied.
        assert!(ede.applied() < 16, "crash must abandon the backlog (applied {})", ede.applied());
    }
}
