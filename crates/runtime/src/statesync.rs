//! State transfer: one provider per site for every read of its store.
//!
//! [`StateSync`] holds a site's capture closures, and every path that
//! reads the site's store goes through it:
//!
//! * **full snapshots** go out as [`ServedSnapshot`]s — `Arc`-shared state
//!   plus a once-per-capture wire encoding — from one single-flight,
//!   bounded-staleness full slot. Request gateways read it under their own
//!   [`SnapshotCachePolicy`]; seeds and edge reseeds read or refresh the
//!   same slot;
//! * **delta snapshots** ([`mirror_ede::StateDelta`]) go out as
//!   [`ServedDelta`]s with the same encode-once discipline, from a delta
//!   slot keyed by base frontier, so a burst of consumers sharing a base
//!   pays one capture;
//! * **seeds** (mirror spawns) additionally read the central's truncation
//!   floor *before* the capture — the floor-before-capture ordering that
//!   makes the post-seed floor replay gap-free;
//! * [`StateSync::transfer_since`] is the routing decision every catch-up path
//!   shares:
//!   a delta when the producer still remembers the consumer's base frontier
//!   (within [`mirror_ede::DELTA_BASE_WINDOW`] captures), a full snapshot
//!   otherwise;
//! * [`StateSync::capture`] is the raw capture, outside both slots, for a
//!   reader that keeps the snapshot to itself (a rejoin seed, a WAN
//!   replica's first seed, a slot migration), so its map moves instead of
//!   being cloned.
//!
//! Capture ordering invariant: the site's capture closures read the
//! checkpoint frontier **before** freezing state, so a served frontier only
//! ever *trails* the state it ships with — replaying events at or before
//! the frontier is idempotent, and nothing after it can be missing. Captures
//! into a slot run under its lock, so a slot's frontiers never regress. See
//! DESIGN.md §19.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use mirror_core::timestamp::VectorTimestamp;
use mirror_ede::{Snapshot, StateDelta};

/// Staleness bounds for cached captures: how far (in applied events and in
/// wall time) a served state may trail the live store.
///
/// The defaults mirror the paper's client-initialization tolerance: a
/// display coming back online does not care about the last millisecond of
/// position fixes, it cares about getting *a* consistent base quickly; the
/// stream replayed on top closes the gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotCachePolicy {
    /// Maximum number of events the live store may have applied past the
    /// cached capture's epoch before the entry goes stale.
    pub max_stale_events: u64,
    /// Maximum wall-clock age of a cached capture.
    pub max_stale: Duration,
}

impl SnapshotCachePolicy {
    /// A policy that never serves a cached entry (every request captures).
    pub fn fresh() -> Self {
        SnapshotCachePolicy { max_stale_events: 0, max_stale: Duration::ZERO }
    }
}

impl Default for SnapshotCachePolicy {
    fn default() -> Self {
        SnapshotCachePolicy { max_stale_events: 64, max_stale: Duration::from_millis(2) }
    }
}

/// A snapshot prepared for serving: the state shared via `Arc` (many
/// concurrent requests clone the handle, not the flights) plus a lazily
/// computed, shared wire encoding — the snapshot is encoded at most once no
/// matter how many transports ship it.
#[derive(Clone)]
pub struct ServedSnapshot {
    snap: Arc<Snapshot>,
    wire: Arc<OnceLock<Bytes>>,
}

impl ServedSnapshot {
    /// Wrap a freshly captured snapshot.
    pub fn new(snap: Snapshot) -> Self {
        ServedSnapshot { snap: Arc::new(snap), wire: Arc::new(OnceLock::new()) }
    }

    /// The shared snapshot.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snap
    }

    /// The wire encoding, computed on first use and shared by every clone
    /// of this handle ([`bytes::Bytes`] clones are reference bumps).
    pub fn wire(&self) -> Bytes {
        self.wire.get_or_init(|| mirror_echo::wire::encode_snapshot(&self.snap)).clone()
    }

    /// Take the snapshot by value. It moves only when this handle is the
    /// last one outstanding, and is cloned whenever a [`StateSync`] slot
    /// still shares the capture — as it does for everything `full`,
    /// `seed` and `capture_now` serve. A one-shot reader that wants the
    /// map moved calls [`StateSync::capture`] instead.
    pub fn into_snapshot(self) -> Snapshot {
        drop(self.wire);
        Arc::try_unwrap(self.snap).unwrap_or_else(|arc| (*arc).clone())
    }
}

impl std::ops::Deref for ServedSnapshot {
    type Target = Snapshot;
    fn deref(&self) -> &Snapshot {
        &self.snap
    }
}

impl std::fmt::Debug for ServedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedSnapshot")
            .field("flights", &self.snap.flight_count())
            .field("as_of", &self.snap.as_of)
            .field("encoded", &self.wire.get().is_some())
            .finish()
    }
}

/// A delta snapshot prepared for serving: `Arc`-shared changes plus the
/// same encode-once wire discipline as [`ServedSnapshot`].
#[derive(Clone)]
pub struct ServedDelta {
    delta: Arc<StateDelta>,
    wire: Arc<OnceLock<Bytes>>,
}

impl ServedDelta {
    /// Wrap a freshly captured delta.
    pub fn new(delta: StateDelta) -> Self {
        ServedDelta { delta: Arc::new(delta), wire: Arc::new(OnceLock::new()) }
    }

    /// The shared delta.
    pub fn delta(&self) -> &Arc<StateDelta> {
        &self.delta
    }

    /// The wire encoding, computed once and shared across clones.
    pub fn wire(&self) -> Bytes {
        self.wire.get_or_init(|| mirror_echo::wire::encode_delta(&self.delta)).clone()
    }

    /// Take the delta by value, avoiding a clone when unique.
    pub fn into_delta(self) -> StateDelta {
        drop(self.wire);
        Arc::try_unwrap(self.delta).unwrap_or_else(|arc| (*arc).clone())
    }
}

impl std::ops::Deref for ServedDelta {
    type Target = StateDelta;
    fn deref(&self) -> &StateDelta {
        &self.delta
    }
}

impl std::fmt::Debug for ServedDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServedDelta")
            .field("changed", &self.delta.changed_count())
            .field("removed", &self.delta.removed().len())
            .field("base", &self.delta.base)
            .field("as_of", &self.delta.as_of)
            .field("encoded", &self.wire.get().is_some())
            .finish()
    }
}

/// One state transfer, as routed by [`StateSync::transfer_since`]: the
/// cheap delta when the consumer's base frontier is still remembered, the
/// full snapshot otherwise.
#[derive(Debug, Clone)]
pub enum Transfer {
    /// A full snapshot: replaces the consumer's state outright.
    Full(ServedSnapshot),
    /// A delta: folds into state the consumer already holds at the delta's
    /// base frontier.
    Delta(ServedDelta),
}

impl Transfer {
    /// The frontier this transfer brings its consumer to (the consumer's
    /// next delta base).
    pub fn as_of(&self) -> &VectorTimestamp {
        match self {
            Transfer::Full(s) => &s.as_of,
            Transfer::Delta(d) => &d.as_of,
        }
    }

    /// Bytes this transfer occupies on a link: the length of its cached
    /// encoding.
    pub fn wire_size(&self) -> usize {
        match self {
            Transfer::Full(s) => s.wire().len(),
            Transfer::Delta(d) => d.wire().len(),
        }
    }
}

/// A cached capture: what was served, the live-store epoch (applied-event
/// count) it reflects and when it was taken.
struct Cached<T> {
    served: T,
    epoch: u64,
    taken: Instant,
}

impl<T: Clone> Cached<T> {
    fn new(served: T, epoch: u64) -> Self {
        Cached { served, epoch, taken: Instant::now() }
    }

    /// The entry when it is fresh under `policy` — the one freshness test,
    /// shared by the full and delta slots: at most `max_stale_events`
    /// behind the live store and at most `max_stale` old. An epoch
    /// regression (live < cached) means the store was re-seeded under the
    /// entry: never serve across an install.
    fn if_fresh(&self, live: u64, policy: SnapshotCachePolicy) -> Option<T> {
        let fresh = live >= self.epoch
            && live - self.epoch <= policy.max_stale_events
            && self.taken.elapsed() <= policy.max_stale;
        fresh.then(|| self.served.clone())
    }
}

type CaptureFn = dyn Fn() -> (Snapshot, u64) + Send + Sync;
type DeltaCaptureFn = dyn Fn(&VectorTimestamp) -> Option<(StateDelta, u64)> + Send + Sync;
type FloorFn = dyn Fn() -> u64 + Send + Sync;

/// The state-transfer provider for one site: every read of the site's
/// store goes through it.
///
/// Wraps the site's capture closures (frontier-before-freeze full capture,
/// delta capture against a remembered base, truncation-floor read) behind
/// two bounded-staleness slots, one full and one delta. A slot captures
/// under its own lock, so concurrent misses coalesce into one capture
/// (single flight), captures are ordered, and every consumer of an entry
/// shares the same encoding. One `StateSync` per site, shared by every
/// consumer: request gateways, mirror seeds, gap resyncs, cold-start
/// top-ups, partition merge seeds, edge reseeds and WAN catch-ups.
pub struct StateSync {
    /// The staleness bound of [`full`](Self::full), [`seed`](Self::seed)
    /// and [`delta_since`](Self::delta_since).
    policy: SnapshotCachePolicy,
    /// The live store's applied-event count (staleness yardstick).
    live_epoch: Arc<AtomicU64>,
    freeze: Box<CaptureFn>,
    freeze_delta: Box<DeltaCaptureFn>,
    floor: Box<FloorFn>,
    full_slot: Mutex<Option<Cached<ServedSnapshot>>>,
    delta_slot: Mutex<Option<(VectorTimestamp, Cached<ServedDelta>)>>,
    /// Truncation floor read immediately before the last capture a seed
    /// took, paired with that capture so floor replay after a seed
    /// install is gap-free. Written and read under the full slot's lock.
    seed_floor: AtomicU64,
}

impl StateSync {
    /// Build a provider over a site's capture closures.
    ///
    /// * `capture` must read the site's checkpoint frontier **before**
    ///   freezing state and return the frozen snapshot plus the store's
    ///   applied-event epoch at capture;
    /// * `capture_delta` must follow the same frontier-before-freeze order
    ///   and return `None` when the base is no longer remembered;
    /// * `floor` reads the site's durable truncation floor (seed replay
    ///   start); sites without a floor return 0.
    pub fn new(
        policy: SnapshotCachePolicy,
        live_epoch: Arc<AtomicU64>,
        capture: impl Fn() -> (Snapshot, u64) + Send + Sync + 'static,
        capture_delta: impl Fn(&VectorTimestamp) -> Option<(StateDelta, u64)> + Send + Sync + 'static,
        floor: impl Fn() -> u64 + Send + Sync + 'static,
    ) -> Self {
        StateSync {
            policy,
            live_epoch,
            freeze: Box::new(capture),
            freeze_delta: Box::new(capture_delta),
            floor: Box::new(floor),
            full_slot: Mutex::new(None),
            delta_slot: Mutex::new(None),
            seed_floor: AtomicU64::new(0),
        }
    }

    /// Capture the store right now, outside every slot: the snapshot is
    /// the caller's alone, so [`Snapshot::into_state`] moves its map
    /// instead of cloning it. It runs the same capture closure as
    /// [`capture_now`](Self::capture_now), so it marks the same delta base.
    /// The path for one-shot readers: a direct snapshot, the durable
    /// snapshot save, a mirror rejoin or gap fallback seed, a WAN replica's
    /// first seed and a slot migration's capture.
    pub fn capture(&self) -> Snapshot {
        (self.freeze)().0
    }

    fn live(&self) -> u64 {
        self.live_epoch.load(Ordering::Acquire)
    }

    /// Capture into the held full slot.
    fn refill(&self, slot: &mut Option<Cached<ServedSnapshot>>) -> ServedSnapshot {
        let (snap, epoch) = (self.freeze)();
        let served = ServedSnapshot::new(snap);
        *slot = Some(Cached::new(served.clone(), epoch));
        served
    }

    /// Serve a full snapshot through the full slot under the site's
    /// policy. Returns the served snapshot and whether it was a cache hit.
    pub fn full(&self) -> (ServedSnapshot, bool) {
        self.full_within(self.policy)
    }

    /// Serve a full snapshot from the full slot when its entry is fresh
    /// under `policy`, else capture into the slot. Every caller shares the
    /// one slot, whatever its policy, so a site pays one capture per
    /// staleness window however many gateways and seeds read it. Returns
    /// the served snapshot and whether it was a cache hit.
    pub fn full_within(&self, policy: SnapshotCachePolicy) -> (ServedSnapshot, bool) {
        let live = self.live();
        let mut slot = self.full_slot.lock();
        if let Some(served) = slot.as_ref().and_then(|e| e.if_fresh(live, policy)) {
            return (served, true);
        }
        (self.refill(&mut slot), false)
    }

    /// Capture a fresh snapshot right now, bypassing the staleness check —
    /// for served readers whose correctness depends on the capture
    /// happening at or after the call (the edge's floor-before-capture
    /// reseed, a gateway with no cache policy). The capture replaces the
    /// full slot's entry, so subsequent reads of the slot benefit.
    pub fn capture_now(&self) -> ServedSnapshot {
        self.refill(&mut self.full_slot.lock())
    }

    /// Serve a seed for a spawning mirror: the snapshot (from the full
    /// slot, under the site's policy) plus the truncation floor read
    /// **before** the last capture a seed took. Replaying mirror traffic
    /// from the floor on top of the seed is gap-free: everything below the
    /// floor is in the seed, everything at or above it is replayable. An
    /// entry another consumer captured later still pairs with that older
    /// floor, which only adds idempotent replays.
    pub fn seed(&self) -> (ServedSnapshot, u64) {
        let live = self.live();
        let mut slot = self.full_slot.lock();
        let served = match slot.as_ref().and_then(|e| e.if_fresh(live, self.policy)) {
            Some(served) => served,
            None => {
                self.seed_floor.store((self.floor)(), Ordering::Relaxed);
                self.refill(&mut slot)
            }
        };
        (served, self.seed_floor.load(Ordering::Relaxed))
    }

    /// Serve a delta against `base`, through a bounded-staleness slot keyed
    /// by base frontier (a burst of consumers sharing a base pays one
    /// capture and one encoding). `None` when the producer no longer
    /// remembers `base` — fall back to [`full`](Self::full). Returns the
    /// served delta and whether it was a cache hit.
    pub fn delta_since(&self, base: &VectorTimestamp) -> Option<(ServedDelta, bool)> {
        let live = self.live();
        let mut slot = self.delta_slot.lock();
        if let Some((_, e)) = slot.as_ref().filter(|(b, _)| b == base) {
            if let Some(served) = e.if_fresh(live, self.policy) {
                return Some((served, true));
            }
        }
        Some((self.refill_delta(&mut slot, base)?, false))
    }

    /// Capture a fresh delta right now, bypassing the staleness check (the
    /// edge's floor-before-capture path). The capture replaces the delta
    /// slot's entry.
    pub fn delta_now(&self, base: &VectorTimestamp) -> Option<ServedDelta> {
        self.refill_delta(&mut self.delta_slot.lock(), base)
    }

    /// Capture a delta against `base` into the held delta slot.
    fn refill_delta(
        &self,
        slot: &mut Option<(VectorTimestamp, Cached<ServedDelta>)>,
        base: &VectorTimestamp,
    ) -> Option<ServedDelta> {
        let (delta, epoch) = (self.freeze_delta)(base)?;
        let served = ServedDelta::new(delta);
        *slot = Some((base.clone(), Cached::new(served.clone(), epoch)));
        Some(served)
    }

    /// The shared routing decision: a delta when the consumer supplied a
    /// base frontier the producer still remembers, a full snapshot
    /// otherwise.
    pub fn transfer_since(&self, base: Option<&VectorTimestamp>) -> Transfer {
        if let Some(b) = base {
            if let Some((d, _)) = self.delta_since(b) {
                return Transfer::Delta(d);
            }
        }
        Transfer::Full(self.full().0)
    }
}

impl std::fmt::Debug for StateSync {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateSync").field("policy", &self.policy).finish()
    }
}

/// Edge-tier adapter: serves the edge's reseed captures — full and delta —
/// from a site's [`StateSync`].
///
/// Both methods capture **fresh** (bypassing the staleness caches): the
/// edge reads its publication floor immediately before calling, and only a
/// capture taken at or after that read makes the floor/state pairing
/// gap-free. The edge's own reseed-entry cache amortizes request bursts.
pub struct SyncStateProvider(pub Arc<StateSync>);

impl mirror_edge::StateProvider for SyncStateProvider {
    fn full(&self) -> (Bytes, VectorTimestamp) {
        let served = self.0.capture_now();
        let as_of = served.as_of.clone();
        (served.wire(), as_of)
    }

    fn delta(&self, base: &VectorTimestamp) -> Option<Bytes> {
        self.0.delta_now(base).map(|d| d.wire())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::{Event, PositionFix};
    use mirror_ede::OperationalState;

    fn fix(alt: f64) -> PositionFix {
        PositionFix { lat: 1.0, lon: 2.0, alt_ft: alt, speed_kts: 400.0, heading_deg: 90.0 }
    }

    fn state(n: u32) -> OperationalState {
        let mut s = OperationalState::new();
        for f in 0..n {
            s.apply(&Event::faa_position(1, f, fix(30000.0)));
        }
        s
    }

    const FOREVER: SnapshotCachePolicy =
        SnapshotCachePolicy { max_stale_events: u64::MAX, max_stale: Duration::MAX };

    /// A provider over `state`, wired like a site's: both captures mark the
    /// state's epoch as a frontier (so deltas are servable) and report the
    /// live gauge — which the test sets, as a site's applies do — as their
    /// epoch; the floor reads 7. Returns the provider, the gauge and the
    /// count of captures taken, full and delta.
    fn site_over(
        state: &Arc<Mutex<OperationalState>>,
        policy: SnapshotCachePolicy,
    ) -> (StateSync, Arc<AtomicU64>, Arc<AtomicU64>) {
        let live = Arc::new(AtomicU64::new(state.lock().epoch()));
        let captures = Arc::new(AtomicU64::new(0));
        let (s1, l1, c1) = (Arc::clone(state), Arc::clone(&live), Arc::clone(&captures));
        let (s2, l2, c2) = (Arc::clone(state), Arc::clone(&live), Arc::clone(&captures));
        let sync = StateSync::new(
            policy,
            Arc::clone(&live),
            move || {
                let (st, vt) = marked(&s1, &c1);
                (Snapshot::capture(&st, vt), l1.load(Ordering::Acquire))
            },
            move |base| {
                let (st, vt) = marked(&s2, &c2);
                st.capture_delta(base, vt).map(|d| (d, l2.load(Ordering::Acquire)))
            },
            || 7,
        );
        (sync, live, captures)
    }

    /// Count a capture, lock `state` and mark its epoch as a frontier.
    fn marked<'a>(
        state: &'a Mutex<OperationalState>,
        captures: &AtomicU64,
    ) -> (parking_lot::MutexGuard<'a, OperationalState>, VectorTimestamp) {
        captures.fetch_add(1, Ordering::Relaxed);
        let mut st = state.lock();
        let mut vt = VectorTimestamp::empty();
        vt.advance(0, st.epoch());
        st.mark_frontier(&vt);
        (st, vt)
    }

    /// `site_over` a store holding `n` flights, under a policy that never
    /// expires an entry.
    fn quiet_site(n: u32) -> (StateSync, Arc<AtomicU64>, Arc<AtomicU64>) {
        site_over(&Arc::new(Mutex::new(state(n))), FOREVER)
    }

    #[test]
    fn same_epoch_hits_without_recapture() {
        let (sync, _live, captures) = quiet_site(5);
        let policy =
            SnapshotCachePolicy { max_stale_events: 0, max_stale: Duration::from_secs(3600) };
        for i in 0..10 {
            let (served, hit) = sync.full_within(policy);
            assert_eq!(served.flight_count(), 5);
            assert_eq!(hit, i > 0);
        }
        assert_eq!(captures.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn bounded_staleness_window() {
        let state = Arc::new(Mutex::new(state(5)));
        let (sync, live, _) = site_over(&state, FOREVER);
        let policy =
            SnapshotCachePolicy { max_stale_events: 3, max_stale: Duration::from_secs(3600) };
        let apply = |f| {
            let mut s = state.lock();
            s.apply(&Event::faa_position(1, f, fix(30000.0)));
            live.store(s.epoch(), Ordering::Release);
        };
        assert!(!sync.full_within(policy).1);
        // Within the event bound: still a hit, even though state moved.
        (100..103).for_each(apply);
        let (served, hit) = sync.full_within(policy);
        assert!(hit, "3 events behind is within the bound");
        assert_eq!(served.flight_count(), 5, "cached capture served");
        // One more change crosses the bound: recapture.
        apply(103);
        let (served, hit) = sync.full_within(policy);
        assert!(!hit, "4 events behind exceeds the bound");
        assert_eq!(served.flight_count(), 9);
    }

    #[test]
    fn age_bound_expires_entries() {
        let (sync, _live, _) = quiet_site(2);
        let policy = SnapshotCachePolicy {
            max_stale_events: u64::MAX,
            max_stale: Duration::from_millis(20),
        };
        assert!(!sync.full_within(policy).1);
        assert!(sync.full_within(policy).1);
        std::thread::sleep(Duration::from_millis(30));
        assert!(!sync.full_within(policy).1, "aged-out entry must recapture");
    }

    #[test]
    fn epoch_regression_is_a_miss() {
        let (sync, live, _) = quiet_site(2);
        let policy = SnapshotCachePolicy {
            max_stale_events: u64::MAX,
            max_stale: Duration::from_secs(3600),
        };
        live.store(100, Ordering::Release);
        assert!(!sync.full_within(policy).1);
        // Live epoch below the cached epoch (reinstalled state): miss.
        live.store(7, Ordering::Release);
        assert!(!sync.full_within(policy).1, "epoch regression must not serve the stale cache");
    }

    #[test]
    fn one_full_slot_serves_every_reader() {
        let (sync, _live, captures) = quiet_site(3);
        // The raw capture stays outside the slot.
        assert_eq!(sync.capture().flight_count(), 3);
        assert!(!sync.full().1, "a raw capture leaves the slot empty");
        // A fresh capture replaces the entry every reader then serves.
        let fresh = sync.capture_now();
        let strict =
            SnapshotCachePolicy { max_stale_events: 0, max_stale: Duration::from_secs(3600) };
        let (served, hit) = sync.full_within(strict);
        assert!(hit);
        assert!(Arc::ptr_eq(served.snapshot(), fresh.snapshot()));
        let (seed, _floor) = sync.seed();
        assert!(Arc::ptr_eq(seed.snapshot(), fresh.snapshot()), "a seed reads the same slot");
        assert_eq!(captures.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn wire_encodes_once_and_is_shared() {
        let s = state(4);
        let served = ServedSnapshot::new(Snapshot::capture(&s, VectorTimestamp::empty()));
        let clone = served.clone();
        let w1 = served.wire();
        let w2 = clone.wire();
        // Same buffer, not merely equal bytes: the encode-once contract.
        assert_eq!(w1.as_ptr(), w2.as_ptr());
        let decoded = mirror_echo::wire::decode_snapshot(w1).expect("decode");
        assert_eq!(decoded.restore().state_hash(), s.state_hash());
    }

    #[test]
    fn into_snapshot_avoids_clone_when_unique() {
        let s = state(3);
        let served = ServedSnapshot::new(Snapshot::capture(&s, VectorTimestamp::empty()));
        let snap = served.into_snapshot();
        assert_eq!(snap.flight_count(), 3);
        assert_eq!(snap.into_state().state_hash(), s.state_hash());
    }

    // --- StateSync provider -------------------------------------------

    /// Never serves a cached entry.
    const ALWAYS_CAPTURE: SnapshotCachePolicy =
        SnapshotCachePolicy { max_stale_events: 0, max_stale: Duration::ZERO };

    #[test]
    fn seed_pairs_floor_with_capture() {
        let state = Arc::new(Mutex::new(OperationalState::new()));
        state.lock().apply(&Event::faa_position(1, 42, fix(100.0)));
        let (sync, _live, _) = site_over(&state, ALWAYS_CAPTURE);
        let (served, floor) = sync.seed();
        assert_eq!(floor, 7);
        assert_eq!(served.flight_count(), 1);
    }

    #[test]
    fn transfer_routes_delta_when_base_remembered() {
        let state = Arc::new(Mutex::new(OperationalState::new()));
        for f in 0..20u32 {
            state.lock().apply(&Event::faa_position(1, f, fix(1000.0)));
        }
        let (sync, _live, _) = site_over(&state, ALWAYS_CAPTURE);

        // Establish a base via a full capture.
        let (base_snap, _) = sync.full();
        let base = base_snap.as_of.clone();

        // Diverge a little, then ask for a transfer against the base.
        state.lock().apply(&Event::faa_position(2, 3, fix(2000.0)));
        match sync.transfer_since(Some(&base)) {
            Transfer::Delta(d) => {
                assert_eq!(d.changed_count(), 1, "only the diverged flight travels");
                assert!(d.wire().len() < base_snap.wire().len());
            }
            Transfer::Full(_) => panic!("base was remembered; expected a delta"),
        }

        // An unknown base falls back to a full snapshot.
        let mut alien = VectorTimestamp::empty();
        alien.advance(3, 999);
        assert!(matches!(sync.transfer_since(Some(&alien)), Transfer::Full(_)));
        // No base at all: full.
        assert!(matches!(sync.transfer_since(None), Transfer::Full(_)));
    }

    #[test]
    fn delta_slot_coalesces_same_base_bursts() {
        let state = Arc::new(Mutex::new(OperationalState::new()));
        for f in 0..10u32 {
            state.lock().apply(&Event::faa_position(1, f, fix(1000.0)));
        }
        let policy =
            SnapshotCachePolicy { max_stale_events: 1000, max_stale: Duration::from_secs(60) };
        let (sync, live_gauge, captures) = site_over(&state, policy);
        let (base_snap, _) = sync.full();
        let base = base_snap.as_of.clone();
        state.lock().apply(&Event::faa_position(2, 1, fix(2000.0)));
        // The live gauge tracks the store (a site's apply loop does this).
        live_gauge.store(state.lock().epoch(), Ordering::Release);

        let (a, hit_a) = sync.delta_since(&base).unwrap();
        let (b, hit_b) = sync.delta_since(&base).unwrap();
        assert!(!hit_a);
        assert!(hit_b, "second consumer with the same base hits the slot");
        assert_eq!(captures.load(Ordering::Relaxed), 2, "the base capture and one delta");
        assert!(Arc::ptr_eq(a.delta(), b.delta()));
        // Encode-once across both consumers.
        assert_eq!(a.wire().as_ptr(), b.wire().as_ptr());
    }

    #[test]
    fn delta_wire_roundtrips() {
        let state = Arc::new(Mutex::new(OperationalState::new()));
        for f in 0..6u32 {
            state.lock().apply(&Event::faa_position(1, f, fix(1000.0)));
        }
        let (sync, _live, _) = site_over(&state, ALWAYS_CAPTURE);
        let (base_snap, _) = sync.full();
        let base = base_snap.as_of.clone();
        state.lock().apply(&Event::faa_position(2, 5, fix(3000.0)));
        let served = sync.delta_now(&base).expect("base remembered");
        let decoded = mirror_echo::wire::decode_delta(served.wire()).unwrap();
        assert_eq!(&decoded, &**served.delta());
    }
}
