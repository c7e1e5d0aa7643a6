//! Unified delta state transfer: one provider for every seed/resync path.
//!
//! Before this module, each state-transfer path in the runtime captured and
//! encoded state its own way — the central's seed cache for mirror spawns,
//! `Cluster::resync_mirror`'s gap reseed, `recover_site`'s cold start, the
//! partition migration's merge seed and the edge tier's client reseeds all
//! carried near-identical "read frontier, freeze, maybe encode" code.
//! [`StateSync`] is the single provider they now route through:
//!
//! * **full snapshots** go out as [`ServedSnapshot`]s — `Arc`-shared state
//!   plus a once-per-capture wire encoding — through a single-flight
//!   bounded-staleness [`SnapshotCache`] (moved here from the former
//!   `snapcache` module, API unchanged);
//! * **delta snapshots** ([`mirror_ede::StateDelta`]) go out as
//!   [`ServedDelta`]s with the same encode-once discipline, cached per base
//!   frontier so a burst of consumers sharing a base pays one capture;
//! * **seeds** (mirror spawns) additionally read the central's truncation
//!   floor *before* the capture — the floor-before-capture ordering that
//!   makes the post-seed floor replay gap-free;
//! * [`StateSync::transfer_since`] is the routing decision every catch-up path
//!   shares:
//!   a delta when the producer still remembers the consumer's base frontier
//!   (within [`mirror_ede::DELTA_BASE_WINDOW`] captures), a full snapshot
//!   otherwise.
//!
//! Capture ordering invariant (same as the request gateway's): the
//! producer's capture closures read the checkpoint frontier **before**
//! freezing state, so a served frontier only ever *trails* the state it
//! ships with — replaying events at or before the frontier is idempotent,
//! and nothing after it can be missing. See DESIGN.md §19.

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

    /// Take the snapshot by value, avoiding a clone when this handle is the
    /// only one outstanding (the common case for seed installs).
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

struct SnapEntry {
    /// Live-store epoch (applied-event count) at capture time.
    epoch: u64,
    taken: Instant,
    served: ServedSnapshot,
}

/// Single-flight, bounded-staleness snapshot cache.
///
/// `get` returns a cached capture while it is fresh under the policy;
/// otherwise it captures under the held slot lock, so concurrent misses
/// coalesce into one capture (single flight) and every waiter shares the
/// same [`ServedSnapshot`] — and therefore the same wire encoding.
pub struct SnapshotCache {
    policy: SnapshotCachePolicy,
    slot: Mutex<Option<SnapEntry>>,
}

impl SnapshotCache {
    /// An empty cache with the given staleness policy.
    pub fn new(policy: SnapshotCachePolicy) -> Self {
        SnapshotCache { policy, slot: Mutex::new(None) }
    }

    /// The configured staleness policy.
    pub fn policy(&self) -> SnapshotCachePolicy {
        self.policy
    }

    /// Serve a snapshot no staler than the policy allows. `live_epoch` is
    /// the store's current applied-event count; `capture` produces a fresh
    /// `(snapshot, epoch)` pair and runs only on a miss. Returns the served
    /// snapshot and whether it was a cache hit.
    pub fn get(
        &self,
        live_epoch: u64,
        capture: impl FnOnce() -> (Snapshot, u64),
    ) -> (ServedSnapshot, bool) {
        let mut slot = self.slot.lock();
        if let Some(e) = slot.as_ref() {
            // An epoch regression (live < cached) means the store was
            // re-seeded under us: never serve across an install.
            let fresh = live_epoch >= e.epoch
                && live_epoch - e.epoch <= self.policy.max_stale_events
                && e.taken.elapsed() <= self.policy.max_stale;
            if fresh {
                return (e.served.clone(), true);
            }
        }
        let (snap, epoch) = capture();
        let served = ServedSnapshot::new(snap);
        *slot = Some(SnapEntry { epoch, taken: Instant::now(), served: served.clone() });
        (served, false)
    }
}

impl std::fmt::Debug for SnapshotCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCache").field("policy", &self.policy).finish()
    }
}

struct DeltaEntry {
    base: VectorTimestamp,
    epoch: u64,
    taken: Instant,
    served: ServedDelta,
}

type CaptureFn = dyn Fn() -> (Snapshot, u64) + Send + Sync;
type DeltaCaptureFn = dyn Fn(&VectorTimestamp) -> Option<(StateDelta, u64)> + Send + Sync;
type FloorFn = dyn Fn() -> u64 + Send + Sync;

/// The unified state-transfer provider for one site.
///
/// Wraps the site's capture closures (frontier-before-freeze full capture,
/// delta capture against a remembered base, truncation-floor read) behind
/// the caching and ordering disciplines every transfer path needs. One
/// `StateSync` per site, shared by every consumer: mirror seeds, gap
/// resyncs, cold-start top-ups, partition merge seeds, edge reseeds and WAN
/// catch-ups.
pub struct StateSync {
    capture: Box<CaptureFn>,
    capture_delta: Box<DeltaCaptureFn>,
    floor: Box<FloorFn>,
    /// The live store's applied-event count (staleness yardstick).
    live_epoch: Arc<AtomicU64>,
    cache: SnapshotCache,
    delta_slot: Mutex<Option<DeltaEntry>>,
    /// Truncation floor read immediately before the cached seed capture —
    /// paired with it so floor replay after a seed install is gap-free.
    seed_floor: Mutex<u64>,
    /// Serializes seed requests so the floor/capture pairing can't
    /// interleave between two concurrent spawns.
    seed_gate: Mutex<()>,
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
            capture: Box::new(capture),
            capture_delta: Box::new(capture_delta),
            floor: Box::new(floor),
            live_epoch,
            cache: SnapshotCache::new(policy),
            delta_slot: Mutex::new(None),
            seed_floor: Mutex::new(0),
            seed_gate: Mutex::new(()),
        }
    }

    /// Serve a full snapshot through the bounded-staleness cache. Returns
    /// the served snapshot and whether it was a cache hit.
    pub fn full(&self) -> (ServedSnapshot, bool) {
        let live = self.live_epoch.load(Ordering::Acquire);
        self.cache.get(live, || (self.capture)())
    }

    /// Capture a fresh snapshot right now, bypassing the cache — for
    /// consumers whose correctness depends on the capture happening at or
    /// after the call (the edge's floor-before-capture reseed, promotion
    /// handoffs). The fresh capture also replaces the cache entry, so
    /// subsequent `full` calls benefit.
    pub fn capture_now(&self) -> ServedSnapshot {
        // Hold the cache slot across the capture: concurrent misses still
        // single-flight, and the fresh entry replaces whatever was cached.
        let mut slot = self.cache.slot.lock();
        let (snap, epoch) = (self.capture)();
        let served = ServedSnapshot::new(snap);
        *slot = Some(SnapEntry { epoch, taken: Instant::now(), served: served.clone() });
        served
    }

    /// Serve a seed for a spawning mirror: the snapshot (cached, bounded
    /// staleness) plus the truncation floor read **before** its capture.
    /// Replaying mirror traffic from the floor on top of the seed is
    /// gap-free: everything below the floor is in the seed, everything at
    /// or above it is replayable.
    pub fn seed(&self) -> (ServedSnapshot, u64) {
        let _gate = self.seed_gate.lock();
        let live = self.live_epoch.load(Ordering::Acquire);
        let (served, _hit) = self.cache.get(live, || {
            *self.seed_floor.lock() = (self.floor)();
            (self.capture)()
        });
        let floor = *self.seed_floor.lock();
        (served, floor)
    }

    /// Serve a delta against `base`, through a bounded-staleness slot keyed
    /// by base frontier (a burst of consumers sharing a base pays one
    /// capture and one encoding). `None` when the producer no longer
    /// remembers `base` — fall back to [`full`](Self::full). Returns the
    /// served delta and whether it was a cache hit.
    pub fn delta_since(&self, base: &VectorTimestamp) -> Option<(ServedDelta, bool)> {
        let live = self.live_epoch.load(Ordering::Acquire);
        let mut slot = self.delta_slot.lock();
        if let Some(e) = slot.as_ref() {
            let policy = self.cache.policy();
            let fresh = e.base == *base
                && live >= e.epoch
                && live - e.epoch <= policy.max_stale_events
                && e.taken.elapsed() <= policy.max_stale;
            if fresh {
                return Some((e.served.clone(), true));
            }
        }
        let (delta, epoch) = (self.capture_delta)(base)?;
        let served = ServedDelta::new(delta);
        *slot = Some(DeltaEntry {
            base: base.clone(),
            epoch,
            taken: Instant::now(),
            served: served.clone(),
        });
        Some((served, false))
    }

    /// Capture a fresh delta right now, bypassing the staleness check (the
    /// edge's floor-before-capture path). The fresh capture replaces the
    /// delta slot.
    pub fn delta_now(&self, base: &VectorTimestamp) -> Option<ServedDelta> {
        let (delta, epoch) = (self.capture_delta)(base)?;
        let served = ServedDelta::new(delta);
        *self.delta_slot.lock() = Some(DeltaEntry {
            base: base.clone(),
            epoch,
            taken: Instant::now(),
            served: served.clone(),
        });
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
        f.debug_struct("StateSync").field("policy", &self.cache.policy()).finish()
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

    fn capture_from(s: &OperationalState) -> (Snapshot, u64) {
        (Snapshot::capture(s, VectorTimestamp::empty()), s.epoch())
    }

    #[test]
    fn same_epoch_hits_without_recapture() {
        let s = state(5);
        let cache = SnapshotCache::new(SnapshotCachePolicy {
            max_stale_events: 0,
            max_stale: Duration::from_secs(3600),
        });
        let mut captures = 0;
        for i in 0..10 {
            let (served, hit) = cache.get(s.epoch(), || {
                captures += 1;
                capture_from(&s)
            });
            assert_eq!(served.flight_count(), 5);
            assert_eq!(hit, i > 0);
        }
        assert_eq!(captures, 1);
    }

    #[test]
    fn bounded_staleness_window() {
        let mut s = state(5);
        let cache = SnapshotCache::new(SnapshotCachePolicy {
            max_stale_events: 3,
            max_stale: Duration::from_secs(3600),
        });
        let (_, hit) = cache.get(s.epoch(), || capture_from(&s));
        assert!(!hit);
        // Within the event bound: still a hit, even though state moved.
        for f in 100..103 {
            s.apply(&Event::faa_position(1, f, fix(30000.0)));
        }
        let (served, hit) = cache.get(s.epoch(), || capture_from(&s));
        assert!(hit, "3 events behind is within the bound");
        assert_eq!(served.flight_count(), 5, "cached capture served");
        // One more change crosses the bound: recapture.
        s.apply(&Event::faa_position(1, 103, fix(30000.0)));
        let (served, hit) = cache.get(s.epoch(), || capture_from(&s));
        assert!(!hit, "4 events behind exceeds the bound");
        assert_eq!(served.flight_count(), 9);
    }

    #[test]
    fn age_bound_expires_entries() {
        let s = state(2);
        let cache = SnapshotCache::new(SnapshotCachePolicy {
            max_stale_events: u64::MAX,
            max_stale: Duration::from_millis(20),
        });
        let (_, hit) = cache.get(s.epoch(), || capture_from(&s));
        assert!(!hit);
        let (_, hit) = cache.get(s.epoch(), || capture_from(&s));
        assert!(hit);
        std::thread::sleep(Duration::from_millis(30));
        let (_, hit) = cache.get(s.epoch(), || capture_from(&s));
        assert!(!hit, "aged-out entry must recapture");
    }

    #[test]
    fn epoch_regression_is_a_miss() {
        let s = state(2);
        let cache = SnapshotCache::new(SnapshotCachePolicy {
            max_stale_events: u64::MAX,
            max_stale: Duration::from_secs(3600),
        });
        let (_, hit) = cache.get(100, || (Snapshot::capture(&s, VectorTimestamp::empty()), 100));
        assert!(!hit);
        // Live epoch below the cached epoch (reinstalled state): miss.
        let (_, hit) = cache.get(7, || (Snapshot::capture(&s, VectorTimestamp::empty()), 7));
        assert!(!hit, "epoch regression must not serve the stale cache");
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

    /// A provider over a mutable shared state, mimicking a site: captures
    /// mark frontiers so deltas are servable.
    fn sync_over(state: Arc<Mutex<OperationalState>>, live: Arc<AtomicU64>) -> StateSync {
        let s1 = Arc::clone(&state);
        let s2 = Arc::clone(&state);
        StateSync::new(
            SnapshotCachePolicy { max_stale_events: 0, max_stale: Duration::ZERO },
            live,
            move || {
                let mut st = s1.lock();
                let mut vt = VectorTimestamp::empty();
                vt.advance(0, st.epoch());
                st.mark_frontier(&vt);
                (Snapshot::capture(&st, vt), st.epoch())
            },
            move |base| {
                let mut st = s2.lock();
                let mut vt = VectorTimestamp::empty();
                vt.advance(0, st.epoch());
                st.mark_frontier(&vt);
                let epoch = st.epoch();
                st.capture_delta(base, vt).map(|d| (d, epoch))
            },
            || 7,
        )
    }

    #[test]
    fn seed_pairs_floor_with_capture() {
        let state = Arc::new(Mutex::new(OperationalState::new()));
        state.lock().apply(&Event::faa_position(1, 42, fix(100.0)));
        let live = Arc::new(AtomicU64::new(0));
        let sync = sync_over(state, live);
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
        let live = Arc::new(AtomicU64::new(0));
        let sync = sync_over(Arc::clone(&state), live);

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
        let live = Arc::new(AtomicU64::new(0));
        let live_gauge = Arc::clone(&live);
        let s1 = Arc::clone(&state);
        let s2 = Arc::clone(&state);
        let captures = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&captures);
        let sync = StateSync::new(
            SnapshotCachePolicy { max_stale_events: 1000, max_stale: Duration::from_secs(60) },
            live,
            move || {
                let mut st = s1.lock();
                let mut vt = VectorTimestamp::empty();
                vt.advance(0, st.epoch());
                st.mark_frontier(&vt);
                (Snapshot::capture(&st, vt), st.epoch())
            },
            move |base| {
                c.fetch_add(1, Ordering::Relaxed);
                let mut st = s2.lock();
                let mut vt = VectorTimestamp::empty();
                vt.advance(0, st.epoch());
                st.mark_frontier(&vt);
                let epoch = st.epoch();
                st.capture_delta(base, vt).map(|d| (d, epoch))
            },
            || 0,
        );
        let (base_snap, _) = sync.full();
        let base = base_snap.as_of.clone();
        state.lock().apply(&Event::faa_position(2, 1, fix(2000.0)));
        // The live gauge tracks the store (a site's apply loop does this).
        live_gauge.store(state.lock().epoch(), Ordering::Release);

        let (a, hit_a) = sync.delta_since(&base).unwrap();
        let (b, hit_b) = sync.delta_since(&base).unwrap();
        assert!(!hit_a);
        assert!(hit_b, "second consumer with the same base hits the slot");
        assert_eq!(captures.load(Ordering::Relaxed), 1);
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
        let live = Arc::new(AtomicU64::new(0));
        let sync = sync_over(Arc::clone(&state), live);
        let (base_snap, _) = sync.full();
        let base = base_snap.as_of.clone();
        state.lock().apply(&Event::faa_position(2, 5, fix(3000.0)));
        let served = sync.delta_now(&base).expect("base remembered");
        let decoded = mirror_echo::wire::decode_delta(served.wire()).unwrap();
        assert_eq!(&decoded, &**served.delta());
    }
}
