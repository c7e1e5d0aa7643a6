//! The sharded operational store: per-flight parallelism for the apply
//! path.
//!
//! Every piece of EDE state is **per-flight** ([`FlightView`]), and vector
//! timestamps only order events *within* a stream — so applies to
//! different flights commute: any interleaving that preserves each
//! flight's own order yields the same [`state_hash`](ShardedEde::state_hash)
//! (the property tests prove this across shard counts and interleavings).
//! [`ShardedEde`] exploits that: flights are partitioned by
//! [`ShardMap::shard_of`] into N independently locked [`Ede`] engines, so
//! non-conflicting flights apply concurrently while same-flight events
//! still serialize (same flight → same shard → same lock).
//!
//! Cross-shard reads need a *consistent* view. [`freeze`](ShardedEde::freeze)
//! locks every shard in index order (the crate-wide lock order — no other
//! path takes two shard locks), reads the global epoch under all locks,
//! and merges the flight maps: exactly the snapshot a single-lock store
//! would produce, so the snapshot-cache / persist / `state_hash` semantics
//! layered on top are unchanged.
//!
//! The **global epoch** is bumped inside the owning shard's lock *after*
//! a state-changing apply, so a lock-free epoch read may trail the state
//! by in-flight applies but never lead it — the safe direction for the
//! bounded-staleness snapshot cache (it can only under-report freshness,
//! triggering a spurious capture, never serve a state newer than its
//! epoch claims... and under all shard locks the trailing window is
//! empty, which is what makes `freeze` exact).
//!
//! One deliberate divergence: each shard derives events with its own
//! `derived_seq`, so derived-event sequence numbers differ between shard
//! counts. They are engine-local bookkeeping — status transitions ignore
//! them — so the replicated digest is unaffected (covered by the
//! equivalence property tests).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use mirror_core::event::{Event, FlightId};
use mirror_core::timestamp::VectorTimestamp;

use crate::delta::StateDelta;
use crate::engine::Ede;
use crate::flight::FlightView;
use crate::snapshot::Snapshot;
use crate::state::{hash_sorted_flights, FlightMap, OperationalState};

/// Deterministic flight → shard assignment.
///
/// Uses a Fibonacci multiplicative hash of the flight id: flight ids are
/// typically small and sequential, and taking `id % n` directly would put
/// consecutive flights in consecutive shards — fine for balance, but a
/// multiplicative mix also balances strided and clustered id patterns.
/// The map is pure data (`Copy`), so the dispatcher and every worker can
/// route without sharing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: usize,
}

impl ShardMap {
    /// A map over `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        ShardMap { shards: shards.max(1) }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `flight`. Deterministic: the same flight always
    /// lands on the same shard, so per-flight event order is preserved by
    /// per-shard FIFO processing.
    pub fn shard_of(&self, flight: FlightId) -> usize {
        // The same Fibonacci mix the cluster-level partition map and the
        // flight-table hasher use (`mirror_core::hashing`): one constant,
        // one bucketing rule, no way for the layers to disagree.
        mirror_core::hashing::fib_slot(flight as u64, self.shards)
    }
}

/// Pad each shard to a cache line so neighbouring shard locks don't
/// false-share under concurrent applies.
#[repr(align(64))]
struct Padded<T>(T);

/// An [`Ede`] partitioned into independently locked shards by flight id.
///
/// Writers route each event to its flight's shard
/// ([`process_shard`](Self::process_shard)); readers needing a
/// cross-flight view take all shard locks in index order
/// ([`freeze`](Self::freeze), [`state_hash`](Self::state_hash),
/// [`install_state`](Self::install_state)).
pub struct ShardedEde {
    map: ShardMap,
    shards: Box<[Padded<Mutex<Ede>>]>,
    /// Global store version (see module docs): bumped under the owning
    /// shard's lock after every state-changing apply and on installs.
    /// Shared (`Arc`) so gateways can poll staleness lock-free.
    epoch: Arc<AtomicU64>,
    /// Per-shard applied-event counters (lock-free reads for stats).
    applied: Box<[AtomicU64]>,
}

impl std::fmt::Debug for ShardedEde {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEde")
            .field("shards", &self.map.shards())
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .finish()
    }
}

impl ShardedEde {
    /// A fresh store partitioned into `shards` shards (clamped ≥ 1).
    pub fn new(shards: usize) -> Self {
        let map = ShardMap::new(shards);
        ShardedEde {
            map,
            shards: (0..map.shards()).map(|_| Padded(Mutex::new(Ede::new()))).collect(),
            epoch: Arc::new(AtomicU64::new(0)),
            applied: (0..map.shards()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The flight → shard assignment (copy it into dispatchers/workers).
    pub fn shard_map(&self) -> ShardMap {
        self.map
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.map.shards()
    }

    /// The shared epoch cell, for lock-free staleness polling (gateway
    /// snapshot caches). The value trails in-flight applies; see module
    /// docs.
    pub fn epoch_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.epoch)
    }

    /// Current global epoch (lock-free; may trail in-flight applies).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Process one event on the shard owning its flight, computed via the
    /// shard map. See [`process_shard`](Self::process_shard).
    pub fn process(
        &self,
        event: &Event,
        on_update: impl FnMut(&Event),
        on_derived: impl FnMut(&Event),
    ) {
        self.process_shard(self.map.shard_of(event.flight), event, on_update, on_derived);
    }

    /// Process one event on shard `shard` (callers that pre-routed via
    /// [`ShardMap::shard_of`] skip recomputing it). The shard **must** be
    /// the one owning `event.flight` — routing a flight to a foreign shard
    /// would split its view across shards and corrupt the merged digest.
    /// Callbacks run under the shard lock; keep them short.
    pub fn process_shard(
        &self,
        shard: usize,
        event: &Event,
        on_update: impl FnMut(&Event),
        on_derived: impl FnMut(&Event),
    ) {
        debug_assert_eq!(shard, self.map.shard_of(event.flight), "event routed to foreign shard");
        let mut ede = self.shards[shard].0.lock();
        let before = ede.epoch();
        ede.process_with(event, on_update, on_derived);
        if ede.epoch() != before {
            // Under the shard lock: the global epoch is already advanced
            // when the lock is released, so epoch trails state only by
            // applies whose shard lock is still held — exactly the applies
            // `freeze` waits out.
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
        // Still under the shard lock, so a plain load+store is race-free —
        // the lock serialises writers and cheaper than an atomic RMW on
        // the apply hot path. Readers only ever see a slightly stale count.
        self.applied[shard]
            .store(self.applied[shard].load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        drop(ede);
    }

    /// Lock every shard (in index order) and return the guards, for
    /// multi-step consistent reads.
    fn lock_all(&self) -> Vec<MutexGuard<'_, Ede>> {
        self.shards.iter().map(|s| s.0.lock()).collect()
    }

    /// Capture a consistent snapshot of the merged store at the given
    /// frontier, returning it with the epoch it reflects. All shard locks
    /// are held for the duration: the capture is point-in-time exact, just
    /// like a single-lock store's. Every freeze also records `as_of` as a
    /// delta base on every shard (under the same locks, so the per-shard
    /// frontier logs stay in lockstep) — a consumer holding this snapshot
    /// can later catch up via [`capture_delta`](Self::capture_delta)
    /// instead of a second full snapshot.
    pub fn freeze(&self, as_of: VectorTimestamp) -> (Snapshot, u64) {
        let mut guards = self.lock_all();
        let epoch = self.epoch.load(Ordering::Acquire);
        for g in guards.iter_mut() {
            g.mark_frontier(&as_of);
        }
        let total: usize = guards.iter().map(|g| g.state().flight_count()).sum();
        let mut flights = FlightMap::with_capacity_and_hasher(total, Default::default());
        for g in guards.iter() {
            flights.extend(g.state().flights().iter().map(|(id, v)| (*id, v.clone())));
        }
        (Snapshot::from_parts(flights, as_of), epoch)
    }

    /// Capture the merged changes since the capture at frontier `since`,
    /// or `None` when any shard no longer remembers the base (the caller
    /// falls back to [`freeze`](Self::freeze)). All shard locks are held:
    /// like `freeze`, the capture is point-in-time exact, and `as_of` is
    /// recorded as the next delta base on every shard so repeated catch-ups
    /// chain (`resync → delta → resync → delta …`). Returns the delta and
    /// the global epoch it reflects.
    pub fn capture_delta(
        &self,
        since: &VectorTimestamp,
        as_of: VectorTimestamp,
    ) -> Option<(StateDelta, u64)> {
        let mut guards = self.lock_all();
        let epoch = self.epoch.load(Ordering::Acquire);
        let mut changed = FlightMap::default();
        let mut removed: Vec<FlightId> = Vec::new();
        for g in guards.iter() {
            // Shards mark frontiers in lockstep (freeze/capture hold all
            // locks), so one miss means they all miss; bail to full.
            let part = g.capture_delta(since, as_of.clone())?;
            let (part_changed, part_removed) = (part.changed().clone(), part.removed().to_vec());
            changed.extend(part_changed);
            removed.extend(part_removed);
        }
        for g in guards.iter_mut() {
            g.mark_frontier(&as_of);
        }
        removed.sort_unstable();
        Some((StateDelta::from_parts(changed, removed, since.clone(), as_of), epoch))
    }

    /// Fold a delta captured at another site into this store: each changed
    /// flight overwrites in its owning shard, removed flights drop. All
    /// shard locks are held (point-in-time install, same as
    /// [`install_state`](Self::install_state)); callers needing "buffered
    /// events replay on top" semantics must quiesce appliers first. The
    /// global epoch is bumped once.
    pub fn apply_delta(&self, delta: &StateDelta) {
        let mut parts: Vec<(FlightMap, Vec<FlightId>)> =
            (0..self.map.shards()).map(|_| (FlightMap::default(), Vec::new())).collect();
        for (id, view) in delta.changed() {
            parts[self.map.shard_of(*id)].0.insert(*id, view.clone());
        }
        for id in delta.removed() {
            parts[self.map.shard_of(*id)].1.push(*id);
        }
        let mut guards = self.lock_all();
        for (g, (changed, removed)) in guards.iter_mut().zip(parts) {
            let sub =
                StateDelta::from_parts(changed, removed, delta.base.clone(), delta.as_of.clone());
            g.apply_delta(&sub);
        }
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Canonical digest of the merged store — identical to the hash an
    /// unsharded [`OperationalState`] holding the same flights produces
    /// (the digest sorts globally by flight id, so the partition is
    /// invisible).
    pub fn state_hash(&self) -> u64 {
        let guards = self.lock_all();
        let mut entries: Vec<(FlightId, &FlightView)> = guards
            .iter()
            .flat_map(|g| g.state().flights().iter().map(|(id, v)| (*id, v)))
            .collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        hash_sorted_flights(entries.into_iter())
    }

    /// Replace the store's contents from a recovered state (seed install /
    /// promotion): flights are partitioned by the shard map, and both the
    /// per-shard and global epochs stay strictly monotone across the swap
    /// (a recovered snapshot must never make stale cache entries look
    /// fresh). All shard locks are held across the install, so concurrent
    /// appliers and freezers see either the old store or the new one,
    /// never a mix. Appliers racing this install can interleave their
    /// events before or after it wholesale — callers that need the seed
    /// semantics of "buffered events replay on top" must quiesce appliers
    /// first (a site's seed path runs on its only applier, the aux
    /// thread).
    pub fn install_state(&self, state: OperationalState) {
        let incoming_epoch = state.epoch();
        let mut parts: Vec<FlightMap> =
            (0..self.map.shards()).map(|_| FlightMap::default()).collect();
        for (id, view) in state.flights() {
            parts[self.map.shard_of(*id)].insert(*id, view.clone());
        }
        let mut guards = self.lock_all();
        for (g, part) in guards.iter_mut().zip(parts) {
            let mut s = OperationalState::new();
            s.install(part);
            g.install_state(s);
        }
        // max() + 1 under all locks: monotone even when the incoming
        // snapshot carries a larger epoch than this store has reached.
        let floor = self.epoch.load(Ordering::Acquire).max(incoming_epoch) + 1;
        self.epoch.store(floor, Ordering::Release);
    }

    /// Merge a recovered state **into** the store without replacing what is
    /// already there: each incoming flight is inserted (or overwritten —
    /// the incoming view is the migration source's authoritative copy) in
    /// its owning shard. This is the partition-migration seed primitive:
    /// unlike [`install_state`](Self::install_state), flights the store
    /// already owns survive. All shard locks are held across the merge and
    /// the global epoch stays strictly monotone, for the same
    /// cache-invalidation reasons as install. Callers needing "buffered
    /// events replay on top" semantics must quiesce appliers first.
    pub fn merge_state(&self, state: OperationalState) {
        let incoming_epoch = state.epoch();
        let mut parts: Vec<Vec<(FlightId, &FlightView)>> =
            (0..self.map.shards()).map(|_| Vec::new()).collect();
        for (id, view) in state.flights() {
            parts[self.map.shard_of(*id)].push((*id, view));
        }
        let mut guards = self.lock_all();
        for (g, part) in guards.iter_mut().zip(parts) {
            g.state_mut().merge_flights(part.into_iter());
        }
        let floor = self.epoch.load(Ordering::Acquire).max(incoming_epoch) + 1;
        self.epoch.store(floor, Ordering::Release);
    }

    /// Drop every flight for which `keep` returns false, returning how many
    /// were removed. This is the migration source's hand-off: after a slot's
    /// flights are merged into the new owner group, the old owner purges
    /// them so per-site memory stays flat and the cluster-wide union of
    /// per-group states remains a partition (each flight in exactly one
    /// group). All shard locks are held; the epoch is bumped when anything
    /// was removed (the store's hash changed, caches must refresh).
    pub fn retain_flights(&self, keep: impl Fn(FlightId) -> bool) -> usize {
        let mut guards = self.lock_all();
        let mut removed = 0;
        for g in guards.iter_mut() {
            removed += g.state_mut().retain_flights(&keep);
        }
        if removed > 0 {
            self.epoch.fetch_add(1, Ordering::AcqRel);
        }
        removed
    }

    /// Events applied per shard (lock-free; index = shard).
    pub fn applied_per_shard(&self) -> Vec<u64> {
        self.applied.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    }

    /// Total events applied across shards.
    pub fn applied(&self) -> u64 {
        self.applied.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Shard imbalance: the busiest shard's applied count over the
    /// per-shard mean (1.0 = perfectly even, `shards` = everything on one
    /// shard, 0.0 before any apply). The §3.2.2-style monitored variable
    /// for whether flight-id hashing is spreading apply load.
    pub fn imbalance(&self) -> f64 {
        let counts = self.applied_per_shard();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / counts.len() as f64;
        let max = counts.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }

    /// Number of flights tracked across all shards.
    pub fn flight_count(&self) -> usize {
        self.lock_all().iter().map(|g| g.state().flight_count()).sum()
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

    fn unsharded_hash(events: &[Event]) -> u64 {
        let mut ede = Ede::new();
        for e in events {
            ede.process(e);
        }
        ede.state_hash()
    }

    #[test]
    fn shard_map_is_deterministic_and_total() {
        let m = ShardMap::new(8);
        for f in 0..1000u32 {
            let s = m.shard_of(f);
            assert!(s < 8);
            assert_eq!(s, m.shard_of(f), "stable");
        }
        assert_eq!(ShardMap::new(0).shards(), 1, "clamped");
    }

    #[test]
    fn sharded_matches_unsharded_across_shard_counts() {
        let events = stream(16, 16);
        let want = unsharded_hash(&events);
        for shards in [1, 2, 3, 8, 64] {
            let s = ShardedEde::new(shards);
            for e in &events {
                s.process(e, |_| {}, |_| {});
            }
            assert_eq!(s.state_hash(), want, "{shards} shards");
            assert_eq!(s.applied(), events.len() as u64);
        }
    }

    #[test]
    fn freeze_restores_to_same_hash() {
        let events = stream(10, 8);
        let s = ShardedEde::new(4);
        for e in &events {
            s.process(e, |_| {}, |_| {});
        }
        let (snap, epoch) = s.freeze(VectorTimestamp::empty());
        assert!(epoch > 0);
        assert_eq!(snap.flight_count(), 10);
        assert_eq!(snap.into_state().state_hash(), s.state_hash());
    }

    #[test]
    fn epoch_bumps_only_on_state_changes() {
        let s = ShardedEde::new(4);
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
    fn install_partitions_and_keeps_epoch_monotone() {
        let events = stream(12, 6);
        let mut source = OperationalState::new();
        for e in &events {
            source.apply(e);
        }
        let want = source.state_hash();

        let s = ShardedEde::new(5);
        s.process(&Event::faa_position(1, 99, fix(1.0)), |_| {}, |_| {});
        let before = s.epoch();
        s.install_state(source);
        assert_eq!(s.state_hash(), want, "install replaces wholesale");
        assert!(s.epoch() > before, "epoch stays monotone across install");
        assert_eq!(s.flight_count(), 12);
    }

    #[test]
    fn parallel_appliers_converge_to_serial_hash() {
        // Real threads, one per shard-group of flights: the determinism
        // argument in the module docs, exercised with actual concurrency.
        let events = stream(8, 32);
        let want = unsharded_hash(&events);
        let s = Arc::new(ShardedEde::new(4));
        let mut by_shard: Vec<Vec<Event>> = (0..4).map(|_| Vec::new()).collect();
        for e in &events {
            by_shard[s.shard_map().shard_of(e.flight)].push(e.clone());
        }
        let handles: Vec<_> = by_shard
            .into_iter()
            .enumerate()
            .map(|(shard, evs)| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for e in evs {
                        s.process_shard(shard, &e, |_| {}, |_| {});
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.state_hash(), want);
        assert_eq!(s.applied(), events.len() as u64);
        assert!(s.imbalance() >= 1.0);
    }

    #[test]
    fn sharded_delta_roundtrip_matches_full() {
        let events = stream(16, 12);
        let split = events.len() / 2;
        let s = ShardedEde::new(4);
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
        assert!(epoch > 0);
        assert!(delta.changed_count() <= 16);

        // A differently-sharded consumer restores the base and catches up
        // via the delta: digest-identical to the producer.
        let t = ShardedEde::new(8);
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
    fn sharded_delta_unknown_base_falls_back() {
        let s = ShardedEde::new(4);
        s.process(&Event::faa_position(1, 1, fix(1.0)), |_| {}, |_| {});
        assert!(s
            .capture_delta(&VectorTimestamp::from_components(vec![77]), VectorTimestamp::empty())
            .is_none());
    }

    #[test]
    fn derived_rules_fire_in_sharded_store() {
        let s = ShardedEde::new(3);
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
    }
}
