//! The site's operational store: one [`Ede`] behind one lock.
//!
//! A site's aux thread is the store's only writer, and the site's state
//! transfer provider makes every read, so one lock serves both. Holding
//! one engine, the store emits exactly the updates and derived events that
//! [`Ede::process`] emits for the same stream, derived-event sequence
//! numbers included.
//!
//! The **epoch cell** is shared (`Arc`) so snapshot caches can poll
//! freshness without the lock. Every write stores the engine's epoch into
//! it before releasing the lock, so the epoch a capture returns is exact,
//! and a lock-free read never runs ahead of the state it describes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mirror_core::event::{Event, FlightId};
use mirror_core::timestamp::VectorTimestamp;

use crate::delta::StateDelta;
use crate::engine::Ede;
use crate::snapshot::Snapshot;
use crate::state::OperationalState;

/// A site's [`Ede`] behind one mutex, with a lock-free epoch cell.
///
/// The name predates the single lock; it stays while the benchmark's
/// probes name it (ROADMAP item 1c).
#[derive(Debug)]
pub struct ShardedEde {
    ede: Mutex<Ede>,
    /// The engine's epoch, stored under the lock after every write.
    epoch: Arc<AtomicU64>,
}

impl ShardedEde {
    /// A fresh, empty store. `_shards` is unused: the argument stays until
    /// ROADMAP item 1c renames the benchmark probes that pass it.
    pub fn new(_shards: usize) -> Self {
        ShardedEde { ede: Mutex::new(Ede::new()), epoch: Arc::new(AtomicU64::new(0)) }
    }

    fn lock(&self) -> MutexGuard<'_, Ede> {
        self.ede.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run a write under the lock and publish the engine's epoch before
    /// releasing it.
    fn write<R>(&self, f: impl FnOnce(&mut Ede) -> R) -> R {
        let mut ede = self.lock();
        let out = f(&mut ede);
        self.epoch.store(ede.epoch(), Ordering::Release);
        out
    }

    /// The shared epoch cell, for lock-free staleness polling (gateway
    /// snapshot caches).
    pub fn epoch_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }

    /// Current epoch (lock-free).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Process one event through [`Ede::process_with`]. The callbacks run
    /// under the lock; keep them short.
    pub fn process(
        &self,
        event: &Event,
        on_update: impl FnMut(&Event),
        on_derived: impl FnMut(&Event),
    ) {
        self.write(|ede| ede.process_with(event, on_update, on_derived));
    }

    /// Capture a snapshot at frontier `as_of`, returning it with the epoch
    /// it reflects. The capture also records `as_of` as a delta base, so a
    /// consumer holding it can later catch up via
    /// [`capture_delta`](Self::capture_delta).
    pub fn freeze(&self, as_of: VectorTimestamp) -> (Snapshot, u64) {
        let mut ede = self.lock();
        ede.mark_frontier(&as_of);
        let flights = ede.state().flights().clone();
        (Snapshot::from_parts(flights, as_of), ede.epoch())
    }

    /// Capture the changes since the capture at frontier `since`, or
    /// `None` when the store no longer remembers that base (the caller
    /// falls back to [`freeze`](Self::freeze)). `as_of` becomes the next
    /// delta base, so repeated catch-ups chain. Returns the delta and the
    /// epoch it reflects.
    pub fn capture_delta(
        &self,
        since: &VectorTimestamp,
        as_of: VectorTimestamp,
    ) -> Option<(StateDelta, u64)> {
        let mut ede = self.lock();
        let delta = ede.capture_delta(since, as_of.clone())?;
        ede.mark_frontier(&as_of);
        Some((delta, ede.epoch()))
    }

    /// Fold a delta captured at another site into this store (changed
    /// flights overwrite, removed flights drop).
    pub fn apply_delta(&self, delta: &StateDelta) {
        self.write(|ede| ede.apply_delta(delta));
    }

    /// Canonical digest of the store ([`OperationalState::state_hash`]).
    pub fn state_hash(&self) -> u64 {
        self.lock().state_hash()
    }

    /// Replace the store's contents from a recovered state (seed install,
    /// promotion). The epoch stays strictly monotone across the swap, so a
    /// recovered snapshot never makes a stale cache entry look fresh.
    pub fn install_state(&self, state: OperationalState) {
        self.write(|ede| ede.install_state(state));
    }

    /// Merge a recovered state **into** the store (partition-migration
    /// seeding): each incoming flight is inserted or overwritten, and the
    /// flights already here survive.
    pub fn merge_state(&self, state: OperationalState) {
        self.write(|ede| ede.state_mut().merge_flights(state.iter().map(|(id, v)| (*id, v))));
    }

    /// Drop every flight for which `keep` returns false (the migration
    /// source's purge), returning how many were removed.
    pub fn retain_flights(&self, keep: impl Fn(FlightId) -> bool) -> usize {
        self.write(|ede| ede.state_mut().retain_flights(keep))
    }

    /// Events processed, absorbed ones included.
    pub fn applied(&self) -> u64 {
        self.lock().processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::{EventBody, FlightStatus, PositionFix};

    fn fix(alt: f64) -> PositionFix {
        PositionFix { lat: 10.0, lon: 20.0, alt_ft: alt, speed_kts: 400.0, heading_deg: 90.0 }
    }

    fn stream(flights: u32, per_flight: u64) -> Vec<Event> {
        let mut evs = Vec::new();
        for seq in 1..=per_flight {
            for f in 0..flights {
                let mut e = if seq % 4 == 0 {
                    Event::delta_status(
                        seq,
                        f,
                        match seq {
                            4 => FlightStatus::Boarding,
                            8 => FlightStatus::Departed,
                            12 => FlightStatus::Landed,
                            _ => FlightStatus::AtGate,
                        },
                    )
                } else {
                    Event::faa_position(seq, f, fix(1000.0 * seq as f64))
                };
                e.stamp.advance(0, seq);
                evs.push(e);
            }
        }
        evs
    }

    #[test]
    fn store_matches_the_reference_engine() {
        let events = stream(16, 16);
        let mut reference = Ede::new();
        let s = ShardedEde::new(1);
        for e in &events {
            let want = reference.process(e);
            let mut got = crate::EdeOutput::default();
            s.process(e, |u| got.client_updates.push(u.clone()), |d| got.derived.push(d.clone()));
            assert_eq!(got, want, "outputs for {e:?}");
        }
        assert_eq!(s.state_hash(), reference.state_hash());
        assert_eq!(s.applied(), events.len() as u64);
        assert_eq!(s.epoch(), reference.epoch(), "the epoch cell tracks the engine");
    }

    #[test]
    fn freeze_restores_to_same_hash() {
        let events = stream(10, 8);
        let s = ShardedEde::new(1);
        for e in &events {
            s.process(e, |_| {}, |_| {});
        }
        let (snap, epoch) = s.freeze(VectorTimestamp::empty());
        assert_eq!(epoch, s.epoch());
        assert!(epoch > 0);
        assert_eq!(snap.flight_count(), 10);
        assert_eq!(snap.into_state().state_hash(), s.state_hash());
    }

    #[test]
    fn epoch_bumps_only_on_state_changes() {
        let s = ShardedEde::new(1);
        let mut e = Event::faa_position(5, 1, fix(1000.0));
        e.stamp.advance(0, 5);
        s.process(&e, |_| {}, |_| {});
        let after_first = s.epoch();
        assert!(after_first > 0);
        // Stale fix on the same flight: absorbed, no epoch bump.
        let mut stale = Event::faa_position(2, 1, fix(9999.0));
        stale.stamp.advance(0, 2);
        s.process(&stale, |_| {}, |_| {});
        assert_eq!(s.epoch(), after_first);
        assert_eq!(s.applied(), 2, "absorbed events still count as applied");
    }

    #[test]
    fn install_replaces_and_keeps_epoch_monotone() {
        let events = stream(12, 6);
        let mut source = OperationalState::new();
        for e in &events {
            source.apply(e);
        }
        let want = source.state_hash();

        let s = ShardedEde::new(1);
        s.process(&Event::faa_position(1, 99, fix(1.0)), |_| {}, |_| {});
        let before = s.epoch();
        s.install_state(source);
        assert_eq!(s.state_hash(), want, "install replaces wholesale");
        assert!(s.epoch() > before, "epoch stays monotone across install");
    }

    #[test]
    fn delta_roundtrip_matches_full() {
        let events = stream(16, 12);
        let split = events.len() / 2;
        let s = ShardedEde::new(1);
        for e in &events[..split] {
            s.process(e, |_| {}, |_| {});
        }
        let base_stamp = VectorTimestamp::from_components(vec![6]);
        let (base_snap, _) = s.freeze(base_stamp.clone());

        for e in &events[split..] {
            s.process(e, |_| {}, |_| {});
        }
        let as_of = VectorTimestamp::from_components(vec![12]);
        let (delta, epoch) = s.capture_delta(&base_stamp, as_of.clone()).expect("base in window");
        assert_eq!(epoch, s.epoch());
        assert!(delta.changed_count() <= 16);

        // A consumer restores the base and catches up via the delta:
        // digest-identical to the producer.
        let t = ShardedEde::new(1);
        t.install_state(base_snap.into_state());
        t.apply_delta(&delta);
        assert_eq!(t.state_hash(), s.state_hash());

        // The delta's as_of chains: it is now a valid base itself.
        let (next, _) = s
            .capture_delta(&as_of, VectorTimestamp::from_components(vec![13]))
            .expect("as_of became a base");
        assert!(next.is_empty(), "nothing changed since the capture");
    }

    #[test]
    fn delta_unknown_base_falls_back() {
        let s = ShardedEde::new(1);
        s.process(&Event::faa_position(1, 1, fix(1.0)), |_| {}, |_| {});
        assert!(s
            .capture_delta(&VectorTimestamp::from_components(vec![77]), VectorTimestamp::empty())
            .is_none());
    }

    #[test]
    fn derived_rules_fire_in_the_store() {
        let s = ShardedEde::new(1);
        let mut derived = Vec::new();
        let mut e1 = Event::new(1, 1, 9, EventBody::Boarding { boarded: 20, expected: 20 });
        e1.stamp.advance(0, 1);
        s.process(&e1, |_| {}, |d| derived.push(d.clone()));
        assert_eq!(derived.len(), 1, "boarding-complete derivation");
        let mut updates = 0;
        let mut g = Event::delta_status(2, 9, FlightStatus::AtGate);
        g.stamp.advance(0, 2);
        s.process(&g, |_| updates += 1, |d| derived.push(d.clone()));
        assert_eq!(derived.len(), 2, "arrival derivation");
        assert_eq!(updates, 2, "AtGate + derived Arrived both reach clients");
        let seqs: Vec<u64> = derived.iter().map(|d| d.seq).collect();
        assert_eq!(seqs, [1, 2], "one derived-event sequence for the whole store");
    }
}
