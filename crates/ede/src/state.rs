//! The deterministic operational state store.
//!
//! "All mirrors produce the same output events, and produce identical
//! modifications to their locally maintained application states" (§3.1).
//! [`OperationalState`] is that application state: the set of
//! [`FlightView`]s. Applying the same event sequence always yields the same
//! store, and [`state_hash`](OperationalState::state_hash) produces a
//! canonical digest (iteration-order independent) with which tests and the
//! experiment harness verify cross-mirror consistency.

use std::collections::{HashMap, VecDeque};

use mirror_core::event::{Event, EventBody, FlightId, FlightStatus};
use mirror_core::timestamp::{StampOrdering, VectorTimestamp};

use crate::delta::StateDelta;
use crate::flight::FlightView;

// The flight-id hasher lives in `mirror_core::hashing` so partition
// routing and the edge subscription index derive from the same Fibonacci
// mix; re-exported here for the table aliases below.
pub use mirror_core::hashing::{BuildFlightHasher, FlightIdHasher};

/// The flight table: flight id → view, keyed with the cheap
/// [`FlightIdHasher`].
pub type FlightMap = HashMap<FlightId, FlightView, BuildFlightHasher>;

/// Per-flight change-epoch table (same cheap hasher as the flight table).
type EpochMap = HashMap<FlightId, u64, BuildFlightHasher>;

/// How many capture frontiers the store remembers as valid delta bases.
/// A consumer whose base fell out of this window gets a full snapshot
/// instead — the window bounds the tombstone set and the log itself.
pub const DELTA_BASE_WINDOW: usize = 64;

/// The operational state of the OIS: one view per known flight.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperationalState {
    flights: FlightMap,
    /// Events applied (including ones absorbed as stale).
    pub applied: u64,
    /// Store version: bumped on every apply that changed the store
    /// (including creating a flight entry) and on [`install`](Self::install).
    /// A *local* cache-invalidation counter — deliberately excluded from
    /// [`state_hash`](Self::state_hash), so it never participates in
    /// cross-mirror consistency checks.
    epoch: u64,
    /// Epoch at which each live flight last changed — the index a
    /// [`capture_delta`](Self::capture_delta) scan filters against.
    changed_at: EpochMap,
    /// Flights removed (migration purges) and the epoch of their removal,
    /// retained while any remembered base predates the removal.
    tombstones: EpochMap,
    /// Capture frontiers this store can serve deltas against: stamp → epoch
    /// at capture time, appended by [`mark_frontier`](Self::mark_frontier),
    /// bounded to [`DELTA_BASE_WINDOW`] entries.
    frontier_log: VecDeque<(VectorTimestamp, u64)>,
}

impl OperationalState {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply one event deterministically. Stale/regressive updates are
    /// absorbed (the store never errors — see `flight` module docs).
    /// Returns `true` if the event changed state.
    pub fn apply(&mut self, event: &Event) -> bool {
        self.applied += 1;
        let flights_before = self.flights.len();
        let view = self.flights.entry(event.flight).or_default();
        let changed = match &event.body {
            EventBody::Position(p) => view.apply_position(event.seq, *p),
            EventBody::Coalesced { last, count: _ } => view.apply_position(event.seq, *last),
            EventBody::Status(s) => view.transition(*s).is_ok(),
            EventBody::Derived { status, .. } => view.transition(*status).is_ok(),
            EventBody::Boarding { boarded, expected } => {
                // `apply_boarding` returns the *completion edge*, not
                // "changed" — compare the replicated fields instead, so a
                // stale/duplicate gate report doesn't bump the epoch (and
                // invalidate snapshot caches) for a no-op.
                let before = (view.boarded, view.expected);
                view.apply_boarding(*boarded, *expected);
                (view.boarded, view.expected) != before
            }
            EventBody::Baggage { loaded, reconciled } => view.apply_baggage(*loaded, *reconciled),
            EventBody::Opaque(_) => false,
        };
        // A freshly created entry changes the hash even when the body was
        // absorbed, so it must invalidate snapshot caches too.
        if changed || self.flights.len() != flights_before {
            self.epoch += 1;
            self.changed_at.insert(event.flight, self.epoch);
            if self.flights.len() != flights_before {
                // Re-created after a migration purge: the removal is moot.
                self.tombstones.remove(&event.flight);
            }
        }
        changed
    }

    /// Current store version (see the field docs): compare two readings to
    /// tell whether the state changed in between. Local bookkeeping — two
    /// mirrors applying *equivalent but differently coalesced* streams may
    /// disagree on epochs while agreeing on `state_hash`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Look up a flight.
    pub fn flight(&self, id: FlightId) -> Option<&FlightView> {
        self.flights.get(&id)
    }

    /// Number of flights tracked.
    pub fn flight_count(&self) -> usize {
        self.flights.len()
    }

    /// Iterate flights in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&FlightId, &FlightView)> {
        self.flights.iter()
    }

    /// Flights currently airborne.
    pub fn airborne_count(&self) -> usize {
        self.flights.values().filter(|f| f.airborne()).count()
    }

    /// Flights in a given status.
    pub fn count_in_status(&self, status: FlightStatus) -> usize {
        self.flights.values().filter(|f| f.status == status).count()
    }

    /// Canonical digest of the store: FNV-1a over flights serialized in
    /// ascending flight-id order. Two mirrors hold identical application
    /// state iff their hashes agree.
    pub fn state_hash(&self) -> u64 {
        let mut ids: Vec<FlightId> = self.flights.keys().copied().collect();
        ids.sort_unstable();
        hash_sorted_flights(ids.iter().map(|id| (*id, &self.flights[id])))
    }

    /// Replace this store's contents (used when installing a snapshot).
    /// The new store derives from none of the previously remembered capture
    /// frontiers, so the delta base window resets: the first deltas become
    /// servable again after the next [`mark_frontier`](Self::mark_frontier).
    pub fn install(&mut self, flights: FlightMap) {
        self.flights = flights;
        self.epoch += 1;
        self.changed_at = self.flights.keys().map(|id| (*id, self.epoch)).collect();
        self.tombstones.clear();
        self.frontier_log.clear();
    }

    /// Insert-or-overwrite flights from another store (the partition
    /// migration merge: the incoming views are the source group's
    /// authoritative copies). Bumps the epoch once when anything landed.
    pub fn merge_flights<'a>(
        &mut self,
        incoming: impl Iterator<Item = (FlightId, &'a FlightView)>,
    ) {
        let mut landed: Vec<FlightId> = Vec::new();
        for (id, view) in incoming {
            self.flights.insert(id, view.clone());
            landed.push(id);
        }
        if !landed.is_empty() {
            self.epoch += 1;
            for id in landed {
                self.changed_at.insert(id, self.epoch);
                self.tombstones.remove(&id);
            }
        }
    }

    /// Drop every flight for which `keep` returns false (the migration
    /// source's purge). Returns the number removed; bumps the epoch when
    /// anything was removed (the hash changed, caches must refresh).
    pub fn retain_flights(&mut self, keep: impl Fn(FlightId) -> bool) -> usize {
        let before = self.flights.len();
        let mut gone: Vec<FlightId> = Vec::new();
        self.flights.retain(|id, _| {
            let k = keep(*id);
            if !k {
                gone.push(*id);
            }
            k
        });
        let removed = before - self.flights.len();
        if removed > 0 {
            self.epoch += 1;
            for id in gone {
                self.changed_at.remove(&id);
                self.tombstones.insert(id, self.epoch);
            }
        }
        removed
    }

    /// Remember the current epoch as the delta base for a capture taken at
    /// frontier `as_of`. Every snapshot capture calls this, turning the
    /// capture into a frontier later consumers can hand back to
    /// [`capture_delta`](Self::capture_delta). A stamp already in the log
    /// keeps its original (older) entry: serving a delta against the older
    /// epoch can only resend changes the consumer already holds, which the
    /// authoritative whole-view entries absorb idempotently.
    pub fn mark_frontier(&mut self, as_of: &VectorTimestamp) {
        if self.lookup_base(as_of).is_some() {
            return;
        }
        self.frontier_log.push_back((as_of.clone(), self.epoch));
        if self.frontier_log.len() > DELTA_BASE_WINDOW {
            self.frontier_log.pop_front();
            // Tombstones at or before the oldest remembered base are folded
            // into every servable delta's base state already.
            if let Some(&(_, oldest)) = self.frontier_log.front() {
                self.tombstones.retain(|_, &mut e| e > oldest);
            }
        }
    }

    fn lookup_base(&self, since: &VectorTimestamp) -> Option<u64> {
        self.frontier_log
            .iter()
            .rev()
            .find(|(stamp, _)| stamp.compare(since) == StampOrdering::Equal)
            .map(|&(_, epoch)| epoch)
    }

    /// Capture everything that changed since the capture at frontier
    /// `since`: flights whose views moved past the base epoch plus the ids
    /// purged since. Returns `None` when `since` is not a remembered base
    /// (fell out of the [`DELTA_BASE_WINDOW`], or was never marked) — the
    /// caller falls back to a full snapshot. `as_of` is the frontier the
    /// delta brings its consumer to, read *before* the store was frozen
    /// (the same frontier-before-freeze discipline as full captures).
    pub fn capture_delta(
        &self,
        since: &VectorTimestamp,
        as_of: VectorTimestamp,
    ) -> Option<StateDelta> {
        let base_epoch = self.lookup_base(since)?;
        let mut changed = FlightMap::default();
        for (id, &at) in &self.changed_at {
            if at > base_epoch {
                changed.insert(*id, self.flights[id].clone());
            }
        }
        let mut removed: Vec<FlightId> =
            self.tombstones.iter().filter(|&(_, &e)| e > base_epoch).map(|(id, _)| *id).collect();
        removed.sort_unstable();
        Some(StateDelta::from_parts(changed, removed, since.clone(), as_of))
    }

    /// Fold a delta into this store: changed flights overwrite wholesale
    /// (they are the producer's authoritative views), removed flights drop.
    /// The caller is responsible for holding state derived from the delta's
    /// base (see [`StateDelta`] docs). Bumps the epoch when anything moved.
    pub fn apply_delta(&mut self, delta: &StateDelta) {
        if delta.is_empty() {
            return;
        }
        self.epoch += 1;
        for (id, view) in delta.changed() {
            self.flights.insert(*id, view.clone());
            self.changed_at.insert(*id, self.epoch);
            self.tombstones.remove(id);
        }
        for id in delta.removed() {
            if self.flights.remove(id).is_some() {
                self.changed_at.remove(id);
                self.tombstones.insert(*id, self.epoch);
            }
        }
    }

    /// Pin the epoch (engine-internal: keeps it monotone across
    /// [`Ede::install_state`](crate::Ede::install_state)).
    pub(crate) fn force_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Clone out the flight map (snapshot construction).
    pub fn flights(&self) -> &FlightMap {
        &self.flights
    }
}

/// The canonical FNV-1a digest over flight views presented in **ascending
/// flight-id order**. Shared by [`OperationalState::state_hash`] and the
/// partitioned cluster's union hash: partitioning the flight map across
/// groups is invisible to the digest because both feed this function the
/// same globally sorted sequence.
pub fn hash_sorted_flights<'a>(sorted: impl Iterator<Item = (FlightId, &'a FlightView)>) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf29ce484222325;
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for (id, f) in sorted {
        eat(&id.to_le_bytes());
        eat(&[f.status as u8]);
        eat(&f.position_seq.to_le_bytes());
        if let Some(p) = &f.position {
            eat(&p.lat.to_bits().to_le_bytes());
            eat(&p.lon.to_bits().to_le_bytes());
            eat(&p.alt_ft.to_bits().to_le_bytes());
        }
        eat(&f.boarded.to_le_bytes());
        eat(&f.expected.to_le_bytes());
        eat(&f.bags_loaded.to_le_bytes());
        eat(&f.bags_reconciled.to_le_bytes());
    }
    h
}

/// Canonical digest of the **union** of disjoint stores: every flight from
/// every store, globally sorted, fed to [`hash_sorted_flights`]. When the
/// stores partition the flight space (each flight lives in exactly one),
/// this equals the [`OperationalState::state_hash`] of a single store that
/// applied the whole stream — the equivalence the partitioned cluster's
/// acceptance assert checks.
pub fn union_state_hash<'a>(states: impl Iterator<Item = &'a OperationalState>) -> u64 {
    let mut all: Vec<(FlightId, &FlightView)> = Vec::new();
    for s in states {
        all.extend(s.flights.iter().map(|(id, v)| (*id, v)));
    }
    all.sort_unstable_by_key(|(id, _)| *id);
    hash_sorted_flights(all.into_iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::PositionFix;

    fn fix(alt: f64) -> PositionFix {
        PositionFix { lat: 10.0, lon: 20.0, alt_ft: alt, speed_kts: 400.0, heading_deg: 90.0 }
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::delta_status(1, 100, FlightStatus::Boarding),
            Event::faa_position(1, 100, fix(0.0)),
            Event::new(1, 2, 100, EventBody::Boarding { boarded: 150, expected: 150 }),
            Event::delta_status(3, 100, FlightStatus::Departed),
            Event::faa_position(2, 100, fix(31000.0)),
            Event::delta_status(4, 200, FlightStatus::Cancelled),
            Event::faa_position(3, 300, fix(5000.0)),
        ]
    }

    #[test]
    fn apply_builds_consistent_views() {
        let mut s = OperationalState::new();
        for e in sample_events() {
            s.apply(&e);
        }
        assert_eq!(s.flight_count(), 3);
        let f = s.flight(100).unwrap();
        assert_eq!(f.status, FlightStatus::Departed);
        assert_eq!(f.position.unwrap().alt_ft, 31000.0);
        assert!(f.boarding_complete());
        assert_eq!(s.flight(200).unwrap().status, FlightStatus::Cancelled);
        assert_eq!(s.count_in_status(FlightStatus::Cancelled), 1);
        assert_eq!(s.airborne_count(), 1);
    }

    #[test]
    fn same_sequence_same_hash() {
        let mut a = OperationalState::new();
        let mut b = OperationalState::new();
        for e in sample_events() {
            a.apply(&e);
            b.apply(&e);
        }
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!(a, b);
    }

    #[test]
    fn hash_is_insertion_order_independent() {
        // Different arrival order of *independent* flights must hash equal.
        let e1 = Event::delta_status(1, 1, FlightStatus::Boarding);
        let e2 = Event::delta_status(1, 2, FlightStatus::Landed);
        let mut a = OperationalState::new();
        a.apply(&e1);
        a.apply(&e2);
        let mut b = OperationalState::new();
        b.apply(&e2);
        b.apply(&e1);
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn hash_detects_divergence() {
        let mut a = OperationalState::new();
        let mut b = OperationalState::new();
        a.apply(&Event::delta_status(1, 1, FlightStatus::Landed));
        b.apply(&Event::delta_status(1, 1, FlightStatus::Arrived));
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn stale_events_do_not_change_state() {
        let mut s = OperationalState::new();
        s.apply(&Event::faa_position(5, 1, fix(1000.0)));
        let h = s.state_hash();
        assert!(!s.apply(&Event::faa_position(2, 1, fix(9999.0))), "stale seq absorbed");
        assert_eq!(s.state_hash(), h);
    }

    #[test]
    fn stale_boarding_does_not_change_state_or_epoch() {
        // Regression: the Boarding arm used to report `true`
        // unconditionally (apply_boarding returns the completion edge, not
        // "changed"), so duplicate gate reports bumped the epoch and
        // invalidated snapshot caches for no state change.
        let mut s = OperationalState::new();
        assert!(s.apply(&Event::new(1, 1, 7, EventBody::Boarding { boarded: 80, expected: 100 })));
        let (h, epoch) = (s.state_hash(), s.epoch());
        // Exact duplicate: no change.
        assert!(!s.apply(&Event::new(1, 2, 7, EventBody::Boarding { boarded: 80, expected: 100 })));
        // Stale (lower) count: monotone absorb, no change.
        assert!(!s.apply(&Event::new(1, 3, 7, EventBody::Boarding { boarded: 50, expected: 100 })));
        assert_eq!((s.state_hash(), s.epoch()), (h, epoch));
        assert_eq!(s.applied, 3, "absorbed events still count as applied");
        // A genuinely newer report changes state and bumps the epoch again.
        assert!(s.apply(&Event::new(1, 4, 7, EventBody::Boarding { boarded: 100, expected: 100 })));
        assert_ne!(s.state_hash(), h);
        assert_eq!(s.epoch(), epoch + 1);
    }

    #[test]
    fn baggage_reports_change_state_and_hash() {
        let mut s = OperationalState::new();
        s.apply(&Event::delta_status(1, 7, FlightStatus::Boarding));
        let before = s.state_hash();
        assert!(s.apply(&Event::new(1, 2, 7, EventBody::Baggage { loaded: 90, reconciled: 45 })));
        assert_ne!(s.state_hash(), before, "baggage must be part of replicated state");
        let f = s.flight(7).unwrap();
        assert_eq!((f.bags_loaded, f.bags_reconciled), (90, 45));
        // A stale report neither changes state nor the hash.
        let h = s.state_hash();
        assert!(!s.apply(&Event::new(1, 3, 7, EventBody::Baggage { loaded: 10, reconciled: 5 })));
        assert_eq!(s.state_hash(), h);
    }

    #[test]
    fn epoch_tracks_state_changes_not_applies() {
        let mut s = OperationalState::new();
        assert_eq!(s.epoch(), 0);
        s.apply(&Event::faa_position(5, 1, fix(1000.0)));
        assert_eq!(s.epoch(), 1);
        // Stale update on an existing flight: absorbed, no epoch bump.
        s.apply(&Event::faa_position(2, 1, fix(9999.0)));
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.applied, 2);
        // An absorbed body can still *create* a flight entry — that changes
        // the hash, so it must bump the epoch.
        let before = s.state_hash();
        s.apply(&Event::new(1, 1, 42, EventBody::Opaque(vec![1, 2, 3].into())));
        assert_ne!(s.state_hash(), before);
        assert_eq!(s.epoch(), 2);
        // Installing a snapshot replaces the store wholesale.
        let flights = s.flights().clone();
        s.install(flights);
        assert_eq!(s.epoch(), 3);
    }

    #[test]
    fn epoch_stays_out_of_the_state_hash() {
        // Two stores that converge to the same hashed state via different
        // update histories disagree on epoch — proof the epoch is local
        // bookkeeping, not part of the replicated digest.
        let mut a = OperationalState::new();
        let mut b = OperationalState::new();
        a.apply(&Event::faa_position(3, 9, fix(12000.0)));
        b.apply(&Event::faa_position(1, 9, fix(500.0)));
        b.apply(&Event::faa_position(3, 9, fix(12000.0)));
        assert_eq!(a.state_hash(), b.state_hash());
        assert_ne!(a.epoch(), b.epoch());
    }

    #[test]
    fn delta_capture_matches_full_replay() {
        let mut s = OperationalState::new();
        for f in 0..20u32 {
            s.apply(&Event::faa_position(1, f, fix(1000.0)));
        }
        let base_stamp = VectorTimestamp::from_components(vec![20]);
        s.mark_frontier(&base_stamp);
        let base = s.clone();

        // Diverge: touch a few flights, purge one.
        s.apply(&Event::faa_position(2, 3, fix(2000.0)));
        s.apply(&Event::delta_status(1, 7, FlightStatus::Landed));
        s.retain_flights(|id| id != 11);
        let as_of = VectorTimestamp::from_components(vec![23]);

        let delta = s.capture_delta(&base_stamp, as_of.clone()).expect("base in window");
        assert_eq!(delta.changed_count(), 2);
        assert_eq!(delta.removed(), &[11]);
        assert_eq!(delta.as_of, as_of);

        let mut caught_up = base;
        caught_up.apply_delta(&delta);
        assert_eq!(caught_up.state_hash(), s.state_hash());
    }

    #[test]
    fn delta_base_out_of_window_is_none() {
        let mut s = OperationalState::new();
        let old = VectorTimestamp::from_components(vec![1]);
        s.mark_frontier(&old);
        for i in 0..super::DELTA_BASE_WINDOW as u64 {
            s.apply(&Event::faa_position(i + 2, (i % 5) as u32, fix(i as f64)));
            s.mark_frontier(&VectorTimestamp::from_components(vec![i + 2]));
        }
        assert!(s.capture_delta(&old, VectorTimestamp::empty()).is_none(), "evicted base");
        assert!(
            s.capture_delta(&VectorTimestamp::from_components(vec![99]), VectorTimestamp::empty())
                .is_none(),
            "never-marked base"
        );
    }

    #[test]
    fn delta_recreated_flight_clears_tombstone() {
        let mut s = OperationalState::new();
        s.apply(&Event::faa_position(1, 5, fix(100.0)));
        let base_stamp = VectorTimestamp::from_components(vec![1]);
        s.mark_frontier(&base_stamp);
        let base = s.clone();
        s.retain_flights(|id| id != 5);
        s.apply(&Event::faa_position(2, 5, fix(200.0)));
        let delta =
            s.capture_delta(&base_stamp, VectorTimestamp::from_components(vec![2])).unwrap();
        assert!(delta.removed().is_empty(), "re-created flight must not carry a tombstone");
        let mut caught_up = base;
        caught_up.apply_delta(&delta);
        assert_eq!(caught_up.state_hash(), s.state_hash());
    }

    #[test]
    fn install_resets_delta_bases() {
        let mut s = OperationalState::new();
        s.apply(&Event::faa_position(1, 5, fix(100.0)));
        let stamp = VectorTimestamp::from_components(vec![1]);
        s.mark_frontier(&stamp);
        assert!(s.capture_delta(&stamp, VectorTimestamp::empty()).is_some());
        let flights = s.flights().clone();
        s.install(flights);
        assert!(
            s.capture_delta(&stamp, VectorTimestamp::empty()).is_none(),
            "installed store derives from none of the old bases"
        );
    }

    #[test]
    fn coalesced_events_apply_like_their_last_fix() {
        let mut direct = OperationalState::new();
        direct.apply(&Event::faa_position(10, 1, fix(22000.0)));

        let mut via_coalesced = OperationalState::new();
        let mut c = Event::new(0, 10, 1, EventBody::Coalesced { last: fix(22000.0), count: 10 });
        c.stamp.advance(0, 10);
        via_coalesced.apply(&c);

        assert_eq!(direct.state_hash(), via_coalesced.state_hash());
    }
}
