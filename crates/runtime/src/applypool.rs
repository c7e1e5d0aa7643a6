//! The main unit's apply path.
//!
//! [`ApplyPool`] applies events straight into a site's [`ShardedEde`] on
//! the thread that hands them over — a site's aux thread, in run order —
//! and starts no thread of its own:
//!
//! * each event goes through the callback-based
//!   [`ShardedEde::process`] path under the store's one lock (no
//!   `EdeOutput` allocation; an `Event` clone only when an updates
//!   subscriber actually needs an owned copy);
//! * checkpoint-frontier and counter bookkeeping is **batched**: the
//!   vector stamps of the events applied since the last
//!   [`flush`](ApplyPool::flush) are joined and the responder lock is
//!   taken once per flush. The owner flushes at the end of every run,
//!   before it answers a CHKPT and before an exclusive section; `dispatch`
//!   also flushes on its own every [`ApplyPoolConfig::batch`] events;
//! * client updates are published once per flush, as one
//!   [`Publisher::publish_all`] run, with the store's lock released and
//!   before `processed` counts the events: by one thread, in apply order,
//!   and a subscriber's sink (an edge's fan-out) never runs under the
//!   store's lock. Once `processed` covers an event, every sink has it.
//!
//! Ordering contract: the checkpoint frontier only ever *trails* the
//! store (an event is applied before its stamp is recorded). All
//! consistent-read paths capture the frontier **before** freezing state,
//! so a trailing frontier merely makes commits conservative. See
//! DESIGN.md §16.
//!
//! The pool keeps its historical name, though it has no workers and no
//! queue of its own: it is the apply path the site and the benchmark's
//! `runtime.applypool_ns_per_event` probe both drive.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mirror_core::checkpoint::MainUnitResponder;
use mirror_core::event::Event;
use mirror_core::timestamp::VectorTimestamp;
use mirror_echo::channel::Publisher;
use mirror_ede::ShardedEde;

use crate::clock::RuntimeClock;
use crate::site::SiteCounters;

/// Sizing knob for an [`ApplyPool`].
#[derive(Debug, Clone)]
pub struct ApplyPoolConfig {
    /// Most events [`ApplyPool::dispatch`] applies between bookkeeping
    /// flushes (responder stamp merge + counter adds). The owner may
    /// flush sooner with [`ApplyPool::flush`]. Defaults to 1: every
    /// dispatch records its event, so a caller that has no run boundary
    /// to flush at never sees the frontier or `processed` lag what it
    /// dispatched. A site flushes at its run boundaries instead.
    pub batch: usize,
}

impl Default for ApplyPoolConfig {
    fn default() -> Self {
        ApplyPoolConfig { batch: 1 }
    }
}

/// Shared bookkeeping targets a pool accounts into.
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

/// Applies events into a [`ShardedEde`] on the caller's thread, batching
/// the bookkeeping. Owned by a single thread (methods take `&mut self`).
pub struct ApplyPool {
    ede: Arc<ShardedEde>,
    sink: ApplySink,
    crashed: Arc<AtomicBool>,
    batch: u64,
    /// Bookkeeping since the last flush.
    joined: Option<VectorTimestamp>,
    applied: u64,
    delay_sum: u64,
    delay_count: u64,
    /// Client updates emitted since the last flush, published by it.
    updates: Vec<Event>,
    /// Sampled once per batch, not per event: at apply rates of millions
    /// of events/sec a per-event clock read dominates the apply itself,
    /// and the µs-scale skew within one batch is far below the ms-scale
    /// transit delays the mean-delay stat tracks.
    now: u64,
}

impl ApplyPool {
    /// An apply path over `ede`, accounting into `sink`. Starts no thread.
    ///
    /// `crashed` mirrors the owning site's crash flag: once it is set,
    /// nothing more is applied or recorded — the same wreckage a dead
    /// process leaves.
    pub fn spawn(
        ede: Arc<ShardedEde>,
        sink: ApplySink,
        crashed: Arc<AtomicBool>,
        config: ApplyPoolConfig,
    ) -> Self {
        ApplyPool {
            ede,
            sink,
            crashed,
            batch: config.batch.max(1) as u64,
            joined: None,
            applied: 0,
            delay_sum: 0,
            delay_count: 0,
            updates: Vec::new(),
            now: 0,
        }
    }

    /// Apply one event now, flushing the bookkeeping once `batch` events
    /// have accumulated.
    pub fn dispatch(&mut self, event: impl Borrow<Event>) {
        if self.crashed.load(Ordering::Relaxed) {
            return;
        }
        let ev = event.borrow();
        if self.applied == 0 {
            self.now = self.sink.clock.now_us();
        }
        let (now, sink) = (self.now, &self.sink);
        let (delay_sum, delay_count) = (&mut self.delay_sum, &mut self.delay_count);
        let updates = &mut self.updates;
        self.ede.process(
            ev,
            |u| {
                *delay_sum += now.saturating_sub(u.ingress_us);
                *delay_count += 1;
                // One atomic load guards the clone: a site nobody listens
                // to (the common case for an edge-less mirror) skips it.
                if sink.updates.as_ref().is_some_and(Publisher::has_subscribers) {
                    updates.push(u.clone());
                }
            },
            |_| {},
        );
        match &mut self.joined {
            Some(j) => j.merge(&ev.stamp),
            None => self.joined = Some(ev.stamp.clone()),
        }
        self.applied += 1;
        if self.applied >= self.batch {
            self.flush();
        }
    }

    /// Record what was applied since the last flush: publish its client
    /// updates as one run, then merge the joined stamp into the
    /// responder's frontier and add to the counters. After a crash the
    /// pending updates and bookkeeping are dropped instead.
    pub fn flush(&mut self) {
        if self.applied == 0 {
            return;
        }
        let applied = std::mem::take(&mut self.applied);
        let joined = self.joined.take();
        let (delay_sum, delay_count) =
            (std::mem::take(&mut self.delay_sum), std::mem::take(&mut self.delay_count));
        if self.crashed.load(Ordering::Relaxed) {
            self.updates.clear();
            return;
        }
        if let (Some(p), false) = (&self.sink.updates, self.updates.is_empty()) {
            p.publish_all(&self.updates);
            self.updates.clear();
        }
        let counters = &self.sink.counters;
        if let Some(stamp) = joined {
            self.sink.responder.lock().record_processed(&stamp);
        }
        counters.processed.fetch_add(applied, Ordering::Relaxed);
        counters.apply_batches.fetch_add(1, Ordering::Relaxed);
        // The staleness gauge's raw signal: when this site last moved its
        // applied frontier. `now` is the batch's single clock sample, so
        // the stamp costs no extra clock read.
        counters.last_apply_us.fetch_max(self.now, Ordering::Relaxed);
        if delay_count > 0 {
            counters.delay_sum_us.fetch_add(delay_sum, Ordering::Relaxed);
            counters.delay_count.fetch_add(delay_count, Ordering::Relaxed);
        }
    }

    /// Flush the bookkeeping and drop the pool.
    pub fn shutdown(mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::aux_unit::CENTRAL_SITE;
    use mirror_core::event::PositionFix;

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

        let ede = Arc::new(ShardedEde::new(1));
        let s = sink();
        let crashed = Arc::new(AtomicBool::new(false));
        let mut pool =
            ApplyPool::spawn(Arc::clone(&ede), s.clone(), crashed, ApplyPoolConfig { batch: 16 });
        for e in &evs {
            pool.dispatch(Arc::clone(e));
        }
        // 240 events in batches of 16: every batch flushed on its own.
        assert_eq!(s.counters.processed.load(Ordering::Relaxed), evs.len() as u64);
        assert_eq!(s.counters.apply_batches.load(Ordering::Relaxed), 15);
        pool.shutdown();

        assert_eq!(ede.state_hash(), serial.state_hash());
        assert_eq!(ede.applied(), evs.len() as u64);
        // The frontier covers every dispatched stamp after shutdown.
        let processed = s.responder.lock().processed().clone();
        for e in &evs {
            assert!(e.stamp.dominated_by(&processed), "frontier covers {:?}", e.stamp);
        }
    }

    #[test]
    fn flush_records_a_partial_batch() {
        let s = sink();
        let mut pool = ApplyPool::spawn(
            Arc::new(ShardedEde::new(1)),
            s.clone(),
            Arc::new(AtomicBool::new(false)),
            ApplyPoolConfig { batch: 64 },
        );
        let evs = events(3, 3);
        for e in &evs {
            pool.dispatch(&**e);
        }
        assert_eq!(s.counters.processed.load(Ordering::Relaxed), 0, "below the batch: unflushed");
        pool.flush();
        assert_eq!(s.counters.processed.load(Ordering::Relaxed), 9);
        assert_eq!(s.counters.apply_batches.load(Ordering::Relaxed), 1);
        assert!(evs[8].stamp.dominated_by(s.responder.lock().processed()));
        pool.flush();
        assert_eq!(s.counters.apply_batches.load(Ordering::Relaxed), 1, "an empty flush is free");

        // The default batch records each event before `dispatch` returns.
        let mut each = ApplyPool::spawn(
            Arc::new(ShardedEde::new(1)),
            s.clone(),
            Arc::new(AtomicBool::new(false)),
            ApplyPoolConfig::default(),
        );
        each.dispatch(&*evs[0]);
        assert_eq!(s.counters.processed.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn after_the_crash_flag_dispatch_applies_nothing() {
        let ede = Arc::new(ShardedEde::new(1));
        let s = sink();
        let crashed = Arc::new(AtomicBool::new(false));
        let mut pool = ApplyPool::spawn(
            Arc::clone(&ede),
            s.clone(),
            Arc::clone(&crashed),
            ApplyPoolConfig { batch: 64 },
        );
        let evs = events(4, 4);
        pool.dispatch(Arc::clone(&evs[0]));
        crashed.store(true, Ordering::SeqCst);
        for e in &evs[1..] {
            pool.dispatch(Arc::clone(e));
        }
        pool.shutdown();
        assert_eq!(ede.applied(), 1, "nothing applies after the crash flag");
        assert_eq!(
            s.counters.processed.load(Ordering::Relaxed),
            0,
            "a dead process records nothing, not even what it applied before"
        );
    }
}
