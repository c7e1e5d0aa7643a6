//! The edge delivery server: global publication sequencing, one
//! subscription index behind one lock, per-subscriber conflating
//! outboxes, and resume.
//!
//! ## Design
//!
//! Every applied event the mirror publishes receives **one global
//! `pub_seq`**, identical for every subscriber. That single decision buys
//! the whole tier: the delivery frame (`Frame::EdgeEvent`) can be encoded
//! once and shared by reference count across every connection
//! ([`EdgeEvent::wire`]), resume becomes a cumulative sequence compare
//! against one retained window, and a conflating (slow) client simply
//! observes *gaps* in `pub_seq` — never a private renumbering that would
//! need per-client retransmission state.
//!
//! **One lock.** The retained window and the subscription index (the
//! current connection per client, the all-flights list and the flight-id
//! postings) live behind the edge's one mutex. A publish stamps each event
//! of its run, appends it to the window and pushes it into every matching
//! client's outbox under that lock, so per-subscriber order is structural:
//! a resume's window replay and the live deliveries of the same client can
//! never interleave out of order. Each outbox has its own small lock,
//! shared only with the consuming client's `poll`.
//!
//! **The edge is a sink.** [`EdgeServer::follow`] subscribes a sink to a
//! site's applied-updates channel. It runs on the site's aux thread, once
//! per applied run, after the run's shard locks are released, so delivery
//! is synchronous with apply: once the site counts an event processed, it
//! is already in every matching outbox. The edge starts no thread; a quiet
//! edge costs nothing.
//!
//! **Attach on the caller's thread.** [`EdgeServer::subscribe`] and
//! [`EdgeServer::resume`] take any reseed capture **outside** the lock,
//! reading the floor before it: a capture freezes and encodes the site's
//! store, and under the lock it would stall the site's aux thread, whose
//! sink waits for the lock. Under the lock they recapture if the window slid past the
//! floor meanwhile; otherwise they push the reseed, replay the window
//! after the floor, replace a stale connection for the same client and
//! index the new one.
//!
//! ## The slow-client state machine
//!
//! A healthy client's outbox is a short FIFO (`queue`, at most
//! [`EdgeConfig::queue_cap`] frames). When it fills — or as long as any
//! conflated state is pending — new events enter the **conflation map**:
//! at most one pending entry per `(flight, event kind)`, newer state
//! overwriting older (the paper's §4.3 overwriting mirror function
//! applied per subscriber). Keying by kind as well as flight is what
//! makes conflation *lossless in state*: the published stream carries
//! only state-changing events whose per-kind payloads are absolute and
//! monotone (position fixes are sequence-guarded, statuses only advance,
//! boarding/baggage counts only grow), so applying just the latest event
//! of each kind reaches the same per-flight state as applying them all —
//! whereas a Position overwriting a Status would lose the status
//! forever. A client therefore costs at most `queue_cap + max_pending`
//! retained frames, no matter how long it stalls. If a stalled client
//! accumulates more than [`EdgeConfig::max_pending`] distinct pending
//! entries, it is disconnected with the typed
//! [`EdgeDisconnect::SlowClient`] and its buffers are freed; it may later
//! [`resume`](EdgeServer::resume) like any other disconnected client.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::mem::Discriminant;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use mirror_core::event::{Event, EventBody, FlightId};
use mirror_core::timestamp::VectorTimestamp;
use mirror_core::BuildFlightHasher;
use mirror_echo::wire::{encode_edge_event, encode_frame, Frame};
use mirror_echo::{Closer, EventChannel, SubscriptionFilter};

/// Tuning knobs for an edge server.
#[derive(Debug, Clone)]
pub struct EdgeConfig {
    /// Retained-window length (events) for resume replay. A client whose
    /// resume point predates the window is reseeded from a snapshot.
    pub window: usize,
    /// Healthy per-client FIFO capacity (frames) before conflation
    /// begins.
    pub queue_cap: usize,
    /// Maximum distinct `(flight, event kind)` entries of conflated
    /// pending state per client; exceeding it disconnects the client as
    /// hopelessly slow.
    pub max_pending: usize,
}

/// A cached reseed capture is served while at most this many events behind
/// the live publication frontier (the §13 bounded-staleness rule in
/// `pub_seq` terms) ...
const RESEED_MAX_STALE_EVENTS: u64 = 64;
/// ... and at most this old. Unit tests, whose steps on a loaded host can
/// take longer than 2 ms, allow 5 s.
const RESEED_MAX_STALE: Duration =
    if cfg!(test) { Duration::from_secs(5) } else { Duration::from_millis(2) };

/// Whether a reseed capture taken at publication frontier `floor` when
/// `taken` may still be served with the live frontier at `current`.
fn reseed_fresh(current: u64, floor: u64, taken: Instant) -> bool {
    current.saturating_sub(floor) <= RESEED_MAX_STALE_EVENTS && taken.elapsed() <= RESEED_MAX_STALE
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig { window: 4096, queue_cap: 64, max_pending: 1024 }
    }
}

/// Source of client-initialization state for reseeds: full snapshots and,
/// when the producer still remembers the requested base frontier, cheap
/// deltas.
///
/// Both methods must capture **fresh** — at or after the moment of the
/// call. The edge reads its publication frontier *before* invoking the
/// provider, so the returned state must reflect at least every event
/// already published to the edge at call time — true of any fresh capture
/// of the mirror's live state, since events are published only after they
/// are applied. A capture cached on the provider side could predate the
/// floor read and open a gap between its coverage and the window replay.
pub trait StateProvider: Send + Sync {
    /// Encoded full snapshot ([`mirror_echo::wire::encode_snapshot`]
    /// bytes) plus the frontier it reflects — remembered by the edge as
    /// the delta base later catch-ups can chain from.
    fn full(&self) -> (Bytes, VectorTimestamp);

    /// Encoded delta ([`mirror_echo::wire::encode_delta`] bytes) of
    /// everything changed since `base`, or `None` when the producer no
    /// longer remembers that frontier (fall back to [`full`](Self::full)).
    fn delta(&self, base: &VectorTimestamp) -> Option<Bytes>;
}

/// Full-snapshot-only [`StateProvider`] adapter around a capture closure:
/// never serves deltas, so every out-of-window resume ships a full
/// snapshot. Handy for tests and for sites that don't track deltas.
pub struct SnapshotFn<F>(pub F);

impl<F> StateProvider for SnapshotFn<F>
where
    F: Fn() -> (Bytes, VectorTimestamp) + Send + Sync,
{
    fn full(&self) -> (Bytes, VectorTimestamp) {
        (self.0)()
    }

    fn delta(&self, _base: &VectorTimestamp) -> Option<Bytes> {
        None
    }
}

/// One published event: the shared unit of delivery. Holds the global
/// publication sequence, the applied event, and the lazily-encoded
/// delivery frame shared by every connection that transmits bytes.
pub struct EdgeEvent {
    pub_seq: u64,
    event: Arc<Event>,
    wire: OnceLock<Bytes>,
}

impl EdgeEvent {
    /// Global publication sequence (first published event is 1).
    pub fn pub_seq(&self) -> u64 {
        self.pub_seq
    }

    /// The applied event.
    pub fn event(&self) -> &Arc<Event> {
        &self.event
    }

    /// The `Frame::EdgeEvent` wire encoding: computed at most once per
    /// published event, shared by every subscriber (cloning the returned
    /// [`Bytes`] is a reference-count bump). In-process subscribers never
    /// call this and never pay for an encoding.
    pub fn wire(&self) -> Bytes {
        self.wire
            .get_or_init(|| {
                let data = encode_frame(&Frame::Data(Arc::clone(&self.event)));
                encode_edge_event(self.pub_seq, &data)
            })
            .clone()
    }
}

impl std::fmt::Debug for EdgeEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeEvent")
            .field("pub_seq", &self.pub_seq)
            .field("flight", &self.event.flight)
            .finish()
    }
}

/// One frame handed to a subscriber by [`EdgeClient::poll`].
#[derive(Debug, Clone)]
pub enum Delivery {
    /// A (possibly conflation-surviving) applied event.
    Event(Arc<EdgeEvent>),
    /// A full-state reseed: replace local state with the snapshot, then
    /// continue from `pub_seq`.
    Reseed {
        /// Publication frontier the snapshot covers.
        pub_seq: u64,
        /// [`mirror_echo::wire::encode_snapshot`] bytes.
        snapshot: Bytes,
    },
    /// A delta reseed: fold the delta into state the client already holds
    /// (its held state covers the delta's base frontier), then continue
    /// from `pub_seq`. Orders of magnitude cheaper than a full reseed when
    /// little has changed.
    DeltaReseed {
        /// Publication frontier the delta covers.
        pub_seq: u64,
        /// [`mirror_echo::wire::encode_delta`] bytes.
        delta: Bytes,
    },
}

impl Delivery {
    /// Wire encoding of this delivery (shared/cached where possible).
    pub fn wire(&self) -> Bytes {
        match self {
            Delivery::Event(e) => e.wire(),
            Delivery::Reseed { pub_seq, snapshot } => {
                mirror_echo::wire::encode_reseed(*pub_seq, snapshot)
            }
            Delivery::DeltaReseed { pub_seq, delta } => {
                mirror_echo::wire::encode_delta_reseed(*pub_seq, delta)
            }
        }
    }

    /// The publication sequence this delivery advances the client to.
    pub fn pub_seq(&self) -> u64 {
        match self {
            Delivery::Event(e) => e.pub_seq,
            Delivery::Reseed { pub_seq, .. } => *pub_seq,
            Delivery::DeltaReseed { pub_seq, .. } => *pub_seq,
        }
    }
}

/// Why the edge hung up on a client (typed, surfaced at the next poll).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeDisconnect {
    /// The client's conflated pending state exceeded the per-client cap:
    /// it is too slow to serve without unbounded memory.
    SlowClient {
        /// Distinct pending `(flight, kind)` entries at the violation.
        distinct_keys: usize,
        /// The configured cap ([`EdgeConfig::max_pending`]).
        cap: usize,
    },
    /// A newer connection for the same client id took over (resume after
    /// a half-dead connection).
    Replaced,
    /// The server is shutting down.
    ServerStopped,
}

impl std::fmt::Display for EdgeDisconnect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeDisconnect::SlowClient { distinct_keys, cap } => {
                write!(f, "slow client: {distinct_keys} pending entries exceeds cap {cap}")
            }
            EdgeDisconnect::Replaced => write!(f, "replaced by a newer connection"),
            EdgeDisconnect::ServerStopped => write!(f, "edge server stopped"),
        }
    }
}

impl std::error::Error for EdgeDisconnect {}

/// Resume failure: the edge has no subscription on file for the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The client never subscribed (or the directory was lost).
    UnknownClient(u64),
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::UnknownClient(id) => write!(f, "unknown client {id}: subscribe first"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Lock-free counters of edge activity, shared with `Cluster::stats()`.
#[derive(Debug, Default)]
pub struct EdgeCounters {
    connections: AtomicU64,
    connects_total: AtomicU64,
    published: AtomicU64,
    delivered: AtomicU64,
    conflated: AtomicU64,
    resumed: AtomicU64,
    reseeded: AtomicU64,
    delta_reseeded: AtomicU64,
    disconnected_slow: AtomicU64,
}

impl EdgeCounters {
    /// Snapshot every counter.
    pub fn snapshot(&self) -> EdgeStats {
        EdgeStats {
            connections: self.connections.load(Ordering::Relaxed),
            connects_total: self.connects_total.load(Ordering::Relaxed),
            published: self.published.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            conflated: self.conflated.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            reseeded: self.reseeded.load(Ordering::Relaxed),
            delta_reseeded: self.delta_reseeded.load(Ordering::Relaxed),
            disconnected_slow: self.disconnected_slow.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`EdgeCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EdgeStats {
    /// Currently connected subscribers.
    pub connections: u64,
    /// Connections ever attached (subscribes + resumes).
    pub connects_total: u64,
    /// Events published into the edge.
    pub published: u64,
    /// Frames consumed by subscribers.
    pub delivered: u64,
    /// Events overwritten by newer same-flight state before a slow client
    /// consumed them (the conflation loss — by design, never a gap).
    pub conflated: u64,
    /// Successful window-replay resumes.
    pub resumed: u64,
    /// Resumes that fell out of the window and were snapshot-reseeded.
    pub reseeded: u64,
    /// Resumes that fell out of the window but were served a cheap delta
    /// against a remembered reseed frontier instead of a full snapshot.
    pub delta_reseeded: u64,
    /// Clients disconnected for exceeding the pending cap.
    pub disconnected_slow: u64,
}

/// Per-connection outbox state; every mutation happens under the mutex,
/// either from a publish or attach (under the edge lock) or from the
/// consuming client.
struct ClientState {
    /// Healthy in-order FIFO, capped at `queue_cap`.
    queue: VecDeque<Delivery>,
    /// Conflated pending state: at most the latest event per
    /// `(flight, event kind)`.
    pending: HashMap<ConflationKey, Arc<EdgeEvent>>,
    /// Pending keys ordered by the `pub_seq` of their current payload
    /// (repositioned on overwrite). Popping the minimum makes conflated
    /// deliveries an *in-order subsequence* of the published stream —
    /// required for state equivalence: delivering a conflated `Arrived`
    /// before an older retained position fix would drop the fix, since
    /// the state machine ignores positions for arrived flights.
    pending_order: BTreeMap<u64, ConflationKey>,
    /// Highest `pub_seq` ever offered to this connection: the attach sets
    /// it to the reseed floor or resume point, and a push at or below it
    /// is skipped.
    frontier: u64,
    /// Highest `pub_seq` the client actually consumed (its resume point).
    consumed: u64,
    /// Set when the edge hung up; buffers are cleared at that moment.
    closed: Option<EdgeDisconnect>,
    /// High watermarks for the bounded-memory assertions.
    queue_high: usize,
    pending_high: usize,
}

impl ClientState {
    fn new() -> Self {
        ClientState {
            queue: VecDeque::new(),
            pending: HashMap::new(),
            pending_order: BTreeMap::new(),
            frontier: 0,
            consumed: 0,
            closed: None,
            queue_high: 0,
            pending_high: 0,
        }
    }

    fn close(&mut self, why: EdgeDisconnect) {
        self.closed = Some(why);
        self.queue = VecDeque::new();
        self.pending = HashMap::new();
        self.pending_order = BTreeMap::new();
    }
}

/// The conflation unit: one slot of pending state per flight and event
/// kind (see the module docs for why kind matters).
type ConflationKey = (FlightId, Discriminant<EventBody>);

fn conflation_key(e: &Event) -> ConflationKey {
    (e.flight, std::mem::discriminant(&e.body))
}

/// One connection of one client.
struct ClientConn {
    id: u64,
    filter: SubscriptionFilter,
    state: Mutex<ClientState>,
}

/// Offer `e` to a connection: queue it, conflate it, or skip it if the
/// connection is closed or was offered it already (a flight listed twice
/// in a filter). Returns whether this push violated the pending cap and
/// so just closed the client as slow.
fn push_event(conn: &ClientConn, e: &Arc<EdgeEvent>, cfg: &EdgeConfig, c: &EdgeCounters) -> bool {
    let mut st = conn.state.lock();
    if st.closed.is_some() || e.pub_seq <= st.frontier {
        return false;
    }
    st.frontier = e.pub_seq;
    // Healthy fast path. Conflation, once begun, captures every newer
    // event (not just overflow) so the client never observes state for a
    // flight moving backwards: pending entries are always at least as new
    // as anything still queued.
    if st.pending.is_empty() && st.queue.len() < cfg.queue_cap {
        st.queue.push_back(Delivery::Event(Arc::clone(e)));
        st.queue_high = st.queue_high.max(st.queue.len());
        return false;
    }
    let key = conflation_key(&e.event);
    match st.pending.insert(key, Arc::clone(e)) {
        Some(old) => {
            // Overwrote older pending state for the same flight and
            // kind: the paper's overwriting semantics, per subscriber.
            // Bounded by construction. Reposition the key to the new
            // payload's pub_seq so delivery order stays an in-order
            // subsequence of the published stream.
            st.pending_order.remove(&old.pub_seq);
            st.pending_order.insert(e.pub_seq, key);
            c.conflated.fetch_add(1, Ordering::Relaxed);
            false
        }
        None => {
            if st.pending.len() > cfg.max_pending {
                let n = st.pending.len();
                st.close(EdgeDisconnect::SlowClient { distinct_keys: n, cap: cfg.max_pending });
                c.disconnected_slow.fetch_add(1, Ordering::Relaxed);
                return true;
            }
            st.pending_order.insert(e.pub_seq, key);
            st.pending_high = st.pending_high.max(st.pending.len());
            false
        }
    }
}

/// A subscriber's in-process "virtual socket": the consuming end of one
/// connection. Poll it for deliveries; drop or
/// [`disconnect`](EdgeClient::disconnect) it to hang up (the subscription
/// survives for a later [`EdgeServer::resume`]).
pub struct EdgeClient {
    conn: Arc<ClientConn>,
    inner: Arc<Inner>,
}

impl EdgeClient {
    /// The stable client id this connection serves.
    pub fn id(&self) -> u64 {
        self.conn.id
    }

    /// Take the next delivery, if any. `Err` means the edge hung up on
    /// this connection (typed); `Ok(None)` means nothing is pending.
    pub fn poll(&self) -> Result<Option<Delivery>, EdgeDisconnect> {
        let mut st = self.conn.state.lock();
        if let Some(why) = st.closed.clone() {
            return Err(why);
        }
        let d = if let Some(d) = st.queue.pop_front() {
            d
        } else if let Some((_seq, key)) = st.pending_order.pop_first() {
            let e = st.pending.remove(&key).expect("pending order desynced from map");
            Delivery::Event(e)
        } else {
            return Ok(None);
        };
        st.consumed = st.consumed.max(d.pub_seq());
        drop(st);
        self.inner.counters.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(Some(d))
    }

    /// Highest publication sequence this connection has consumed — the
    /// `last_seq` to pass to [`EdgeServer::resume`] after a disconnect.
    pub fn last_seq(&self) -> u64 {
        self.conn.state.lock().consumed
    }

    /// Frames currently buffered for this connection.
    pub fn backlog(&self) -> usize {
        let st = self.conn.state.lock();
        st.queue.len() + st.pending.len()
    }

    /// High watermarks of the in-order queue and the conflation map —
    /// the bounded-memory evidence (`pending` never exceeds
    /// [`EdgeConfig::max_pending`], `queue` never exceeds
    /// [`EdgeConfig::queue_cap`]).
    pub fn high_watermarks(&self) -> (usize, usize) {
        let st = self.conn.state.lock();
        (st.queue_high, st.pending_high)
    }

    /// Hang up. The subscription stays in the directory, so the client
    /// can [`resume`](EdgeServer::resume) from [`last_seq`](Self::last_seq).
    pub fn disconnect(self) {
        self.inner.hub.lock().drop_conn(&self.conn, &self.inner.counters);
    }
}

struct ReseedEntry {
    floor: u64,
    wire: Bytes,
    /// Frontier the snapshot reflects — the delta base a client who has
    /// consumed at least up to `floor` can catch up from.
    as_of: VectorTimestamp,
    taken: Instant,
}

/// A cached delta reseed: one per base frontier, same staleness policy as
/// the full entry. `floor` was read before *its* capture, so serving the
/// cached pair keeps the floor/coverage invariant.
struct DeltaReseedEntry {
    base: VectorTimestamp,
    floor: u64,
    wire: Bytes,
    taken: Instant,
}

/// Reseed state behind one mutex: the current cached full entry, the
/// previous entry's `(floor, as_of)` (still a valid delta base for clients
/// who consumed past its floor), and the cached delta entry.
#[derive(Default)]
struct ReseedSlots {
    current: Option<ReseedEntry>,
    prev: Option<(u64, VectorTimestamp)>,
    delta: Option<DeltaReseedEntry>,
}

/// What the edge lock guards: the retained window and the subscription
/// index, which a publish and an attach must see together.
struct Hub {
    /// The last [`EdgeConfig::window`] published events, contiguous in
    /// `pub_seq`.
    window: VecDeque<Arc<EdgeEvent>>,
    /// The current connection of each connected client.
    conns: HashMap<u64, Arc<ClientConn>>,
    /// Connections subscribed to every flight.
    all: Vec<Arc<ClientConn>>,
    /// Flight-id postings for filtered subscribers, keyed by the shared
    /// Fibonacci flight-id hasher — the same mix the EDE's flight map and
    /// the partition router use, so the per-publish lookup skips SipHash.
    by_flight: HashMap<FlightId, Vec<Arc<ClientConn>>, BuildFlightHasher>,
    /// Set by [`EdgeServer::stop`]: a later attach is closed at once.
    stopped: bool,
}

impl Hub {
    /// `pub_seq` of the oldest retained event (the next one to be
    /// published while the window is empty).
    fn window_floor(&self, pub_seq: u64) -> u64 {
        self.window.front().map_or(pub_seq + 1, |e| e.pub_seq)
    }

    /// Push `e` into every matching outbox, dropping from the index any
    /// client the push closed as slow.
    fn deliver(&mut self, e: &Arc<EdgeEvent>, cfg: &EdgeConfig, c: &EdgeCounters) {
        let postings = self.by_flight.get(&e.event.flight).map_or(&[][..], Vec::as_slice);
        let slow: Vec<Arc<ClientConn>> = self
            .all
            .iter()
            .chain(postings)
            .filter(|conn| push_event(conn, e, cfg, c))
            .cloned()
            .collect();
        for conn in slow {
            self.drop_conn(&conn, c);
        }
    }

    fn index(&mut self, conn: Arc<ClientConn>, c: &EdgeCounters) {
        match &conn.filter {
            SubscriptionFilter::All => self.all.push(Arc::clone(&conn)),
            SubscriptionFilter::Flights(ids) => {
                for f in ids {
                    self.by_flight.entry(*f).or_default().push(Arc::clone(&conn));
                }
            }
        }
        self.conns.insert(conn.id, conn);
        c.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop a connection from the index, adjusting the gauge. No-op if
    /// `conn` is not the current connection for its id.
    fn drop_conn(&mut self, conn: &Arc<ClientConn>, c: &EdgeCounters) {
        if !self.conns.get(&conn.id).is_some_and(|cur| Arc::ptr_eq(cur, conn)) {
            return;
        }
        self.conns.remove(&conn.id);
        let unlist = |list: &mut Vec<Arc<ClientConn>>| {
            if let Some(pos) = list.iter().position(|x| Arc::ptr_eq(x, conn)) {
                list.swap_remove(pos);
            }
        };
        match &conn.filter {
            SubscriptionFilter::All => unlist(&mut self.all),
            SubscriptionFilter::Flights(ids) => {
                for f in ids {
                    if let Some(list) = self.by_flight.get_mut(f) {
                        unlist(list);
                        if list.is_empty() {
                            self.by_flight.remove(f);
                        }
                    }
                }
            }
        }
        c.connections.fetch_sub(1, Ordering::Relaxed);
    }
}

struct Inner {
    cfg: EdgeConfig,
    counters: Arc<EdgeCounters>,
    /// Publication frontier: stored (Release) under `hub` once an event is
    /// in its outboxes; a reseed reads it (Acquire) as its floor before
    /// capturing, outside the lock.
    pub_seq: AtomicU64,
    /// The edge's one lock. Never held while capturing or while taking a
    /// channel's subscriber lock: a followed site's sink takes it under
    /// that channel's lock, on the site's aux thread.
    hub: Mutex<Hub>,
    directory: Mutex<HashMap<u64, SubscriptionFilter>>,
    reseed_slot: Mutex<ReseedSlots>,
    /// Swappable so a failover can re-point the edge at the successor's
    /// state (lock order: `reseed_slot` first, then `provider`).
    provider: Mutex<Box<dyn StateProvider>>,
}

impl Inner {
    /// Serve a reseed snapshot whose covered frontier is at least
    /// `min_floor`, single-flight and bounded-stale (§13, in `pub_seq`
    /// terms). The floor is read *before* capturing, so every event
    /// published before the read — and therefore applied to the mirror
    /// before the capture — is covered: conservative, never a gap.
    fn reseed(&self, min_floor: u64) -> (u64, Bytes) {
        let mut slots = self.reseed_slot.lock();
        if let Some(e) = slots.current.as_ref() {
            let current = self.pub_seq.load(Ordering::Acquire);
            let fresh_enough = e.floor >= min_floor && reseed_fresh(current, e.floor, e.taken);
            if fresh_enough {
                return (e.floor, e.wire.clone());
            }
        }
        let floor = self.pub_seq.load(Ordering::Acquire);
        let (wire, as_of) = self.provider.lock().full();
        // Floor-read-before-capture: the capture happened after the floor
        // read, so its coverage can only exceed the floor — conservative,
        // never a gap. (pub_seq is monotone; a regression here would mean
        // the invariant broke.)
        debug_assert!(
            self.pub_seq.load(Ordering::Acquire) >= floor,
            "publication frontier regressed across a reseed capture"
        );
        // The replaced entry's frontier remains a usable delta base for
        // any client that consumed past its floor.
        slots.prev = slots.current.take().map(|e| (e.floor, e.as_of));
        slots.current =
            Some(ReseedEntry { floor, wire: wire.clone(), as_of, taken: Instant::now() });
        (floor, wire)
    }

    /// Serve a delta reseed for a client resuming from `last`, when some
    /// remembered reseed frontier has `floor <= last` — the client's held
    /// state (that reseed plus every event it consumed since) covers the
    /// base, so only the changes since need to travel. Returns the floor
    /// (read before the capture, same invariant as [`reseed`](Self::reseed))
    /// and the encoded delta; `None` falls back to a full reseed.
    /// `min_floor` bounds how stale a *cached* delta may be: its floor must
    /// still be inside the retained window so the replay after it is
    /// gap-free.
    fn reseed_delta(&self, last: u64, min_floor: u64) -> Option<(u64, Bytes)> {
        let mut slots = self.reseed_slot.lock();
        let base = slots
            .current
            .as_ref()
            .filter(|e| e.floor <= last)
            .map(|e| e.as_of.clone())
            .or_else(|| {
                slots.prev.as_ref().filter(|(floor, _)| *floor <= last).map(|(_, vt)| vt.clone())
            })?;
        if let Some(d) = slots.delta.as_ref() {
            let current = self.pub_seq.load(Ordering::Acquire);
            let fresh_enough =
                d.base == base && d.floor >= min_floor && reseed_fresh(current, d.floor, d.taken);
            if fresh_enough {
                return Some((d.floor, d.wire.clone()));
            }
        }
        let floor = self.pub_seq.load(Ordering::Acquire);
        let wire = self.provider.lock().delta(&base)?;
        debug_assert!(
            self.pub_seq.load(Ordering::Acquire) >= floor,
            "publication frontier regressed across a delta capture"
        );
        slots.delta =
            Some(DeltaReseedEntry { base, floor, wire: wire.clone(), taken: Instant::now() });
        Some((floor, wire))
    }

    /// A reseed covering at least `min_floor`, with the floor it was
    /// captured at: a delta for a resuming client whose held state covers a
    /// remembered reseed frontier, a full snapshot otherwise.
    fn capture(&self, resume_from: Option<u64>, min_floor: u64) -> (u64, Delivery) {
        if let Some((floor, delta)) =
            resume_from.and_then(|last| self.reseed_delta(last, min_floor))
        {
            return (floor, Delivery::DeltaReseed { pub_seq: floor, delta });
        }
        let (floor, snapshot) = self.reseed(min_floor);
        (floor, Delivery::Reseed { pub_seq: floor, snapshot })
    }

    /// Stamp, retain and fan out one run, in order, under the edge lock.
    fn publish_run(&self, run: impl IntoIterator<Item = Arc<Event>>) {
        let mut hub = self.hub.lock();
        let mut published = 0;
        for event in run {
            let seq = self.pub_seq.load(Ordering::Relaxed) + 1;
            let e = Arc::new(EdgeEvent { pub_seq: seq, event, wire: OnceLock::new() });
            hub.window.push_back(Arc::clone(&e));
            if hub.window.len() > self.cfg.window {
                hub.window.pop_front();
            }
            hub.deliver(&e, &self.cfg, &self.counters);
            self.pub_seq.store(seq, Ordering::Release);
            published += 1;
        }
        drop(hub);
        self.counters.published.fetch_add(published, Ordering::Relaxed);
    }

    /// Attach `conn` (subscribe, or resume from `resume_from`) on the
    /// caller's thread. A resume inside the window replays it. Anything
    /// else is reseeded from a capture taken outside the lock, then
    /// replays the window after the reseed's floor — unless the window
    /// slid past that floor during the capture, which captures again.
    fn attach(&self, conn: &Arc<ClientConn>, resume_from: Option<u64>) {
        let c = &*self.counters;
        let mut seed: Option<(u64, Delivery)> = None;
        let (mut hub, win_floor) = loop {
            let hub = self.hub.lock();
            if hub.stopped {
                conn.state.lock().close(EdgeDisconnect::ServerStopped);
                return;
            }
            let win_floor = hub.window_floor(self.pub_seq.load(Ordering::Relaxed));
            // Replay is possible iff everything after the start point is
            // still retained.
            let replayable = match (&seed, resume_from) {
                (Some((floor, _)), _) => floor + 1 >= win_floor,
                (None, Some(last)) => last + 1 >= win_floor,
                (None, None) => false,
            };
            if replayable {
                break (hub, win_floor);
            }
            drop(hub);
            seed = Some(self.capture(resume_from, win_floor.saturating_sub(1)));
        };
        let from = {
            let mut st = conn.state.lock();
            match seed {
                Some((floor, delivery)) => {
                    match (&delivery, resume_from) {
                        (Delivery::DeltaReseed { .. }, _) => {
                            c.delta_reseeded.fetch_add(1, Ordering::Relaxed);
                        }
                        (_, Some(_)) => {
                            c.reseeded.fetch_add(1, Ordering::Relaxed);
                        }
                        (_, None) => {}
                    }
                    st.frontier = floor;
                    st.consumed = floor;
                    st.queue.push_back(delivery);
                    st.queue_high = st.queue_high.max(st.queue.len());
                    floor
                }
                None => {
                    c.resumed.fetch_add(1, Ordering::Relaxed);
                    let last = resume_from.expect("only a resume replays without a seed");
                    st.frontier = last;
                    last
                }
            }
        };
        if let Some(old) = hub.conns.get(&conn.id).cloned() {
            old.state.lock().close(EdgeDisconnect::Replaced);
            hub.drop_conn(&old, c);
        }
        let skip = (from + 1).saturating_sub(win_floor) as usize;
        let slow = hub
            .window
            .iter()
            .skip(skip)
            .filter(|e| conn.filter.matches(e.event.flight))
            .any(|e| push_event(conn, e, &self.cfg, c));
        c.connects_total.fetch_add(1, Ordering::Relaxed);
        // Slow before it even attached (the replay alone blew the cap): the
        // typed disconnect is already set, so it is not indexed.
        if !slow {
            hub.index(Arc::clone(conn), c);
        }
    }
}

/// The edge server: owns the retained window, the subscription index and
/// directory, and the counters. It starts no thread.
pub struct EdgeServer {
    inner: Arc<Inner>,
    /// Close handles of the update channels it follows.
    followed: Mutex<Vec<Closer>>,
}

impl EdgeServer {
    /// Start an edge with `cfg`, reseeding from `provider`.
    pub fn start(cfg: EdgeConfig, provider: Box<dyn StateProvider>) -> Self {
        let inner = Arc::new(Inner {
            cfg,
            counters: Arc::new(EdgeCounters::default()),
            pub_seq: AtomicU64::new(0),
            hub: Mutex::new(Hub {
                window: VecDeque::new(),
                conns: HashMap::new(),
                all: Vec::new(),
                by_flight: HashMap::default(),
                stopped: false,
            }),
            directory: Mutex::new(HashMap::new()),
            reseed_slot: Mutex::new(ReseedSlots::default()),
            provider: Mutex::new(provider),
        });
        EdgeServer { inner, followed: Mutex::new(Vec::new()) }
    }

    /// The edge's counters (share with `Cluster::stats()`).
    pub fn counters(&self) -> Arc<EdgeCounters> {
        Arc::clone(&self.inner.counters)
    }

    /// Current publication frontier.
    pub fn pub_seq(&self) -> u64 {
        self.inner.pub_seq.load(Ordering::Acquire)
    }

    /// Publish one applied event to every matching subscriber: a run of
    /// one. When this returns, the event is in every matching outbox.
    pub fn publish(&self, event: Arc<Event>) {
        self.inner.publish_run([event]);
    }

    /// Follow `updates` (a site's applied-updates channel) with a sink that
    /// publishes each applied run, whole, on the publishing thread, until
    /// [`unfollow`](Self::unfollow) or [`stop`](Self::stop).
    pub fn follow(&self, updates: &EventChannel<Event>) {
        let inner = Arc::clone(&self.inner);
        let closer = updates.subscribe_with(move |run: &[Event]| {
            inner.publish_run(run.iter().map(|e| Arc::new(e.clone())));
            true
        });
        self.followed.lock().push(closer);
    }

    /// Close every followed subscription. A close waits out a run in
    /// flight, so once this returns no followed channel publishes here.
    pub fn unfollow(&self) {
        for closer in std::mem::take(&mut *self.followed.lock()) {
            closer.close();
        }
    }

    /// Subscribe a new client (the `Frame::Subscribe` service path).
    /// Returns its virtual socket, already holding its initial state as a
    /// [`Delivery::Reseed`]; live deliveries follow.
    pub fn subscribe(&self, client: u64, filter: SubscriptionFilter) -> EdgeClient {
        self.inner.directory.lock().insert(client, filter.clone());
        self.attach_conn(client, filter, None)
    }

    /// Reconnect a known client from its last consumed sequence (the
    /// `Frame::Resume` service path): window replay when possible,
    /// snapshot reseed on gap.
    pub fn resume(&self, client: u64, last_seq: u64) -> Result<EdgeClient, ResumeError> {
        let filter = self
            .inner
            .directory
            .lock()
            .get(&client)
            .cloned()
            .ok_or(ResumeError::UnknownClient(client))?;
        Ok(self.attach_conn(client, filter, Some(last_seq)))
    }

    fn attach_conn(
        &self,
        client: u64,
        filter: SubscriptionFilter,
        resume_from: Option<u64>,
    ) -> EdgeClient {
        let conn =
            Arc::new(ClientConn { id: client, filter, state: Mutex::new(ClientState::new()) });
        self.inner.attach(&conn, resume_from);
        EdgeClient { conn, inner: Arc::clone(&self.inner) }
    }

    /// Returns at once. Delivery is synchronous — when a publish returns,
    /// its run is in every matching outbox — so there is nothing to
    /// settle. Kept because callers written against the earlier
    /// asynchronous edge name it as their settle point.
    pub fn quiesce(&self) {}

    /// Subscribers currently in the resume directory (connected or not).
    pub fn known_clients(&self) -> usize {
        self.inner.directory.lock().len()
    }

    /// Swap the reseed snapshot source and invalidate the cached reseed
    /// entry, so no stale snapshot is ever served afterwards.
    ///
    /// This is the failover re-point: when the mirror this edge fronts is
    /// promoted (or replaced), the edge must capture reseeds from the site
    /// that now applies the events being published — otherwise the
    /// floor-read-before-capture coverage argument in [`StateProvider`]
    /// breaks. Remembered delta bases are invalidated along with the
    /// cached entries (the successor may not remember the predecessor's
    /// capture frontiers). Pair it with [`unfollow`](Self::unfollow)
    /// before and [`follow`](Self::follow) of the successor's update
    /// channel after.
    pub fn set_provider(&self, provider: Box<dyn StateProvider>) {
        let mut slot = self.inner.reseed_slot.lock();
        *self.inner.provider.lock() = provider;
        *slot = ReseedSlots::default();
    }

    /// Close the followed subscriptions (a close waits out a run in
    /// flight), then every connection with
    /// [`EdgeDisconnect::ServerStopped`]; a later attach gets the same.
    pub fn stop(&self) {
        self.unfollow();
        let mut hub = self.inner.hub.lock();
        hub.stopped = true;
        for conn in hub.conns.values() {
            conn.state.lock().close(EdgeDisconnect::ServerStopped);
        }
    }
}

impl Drop for EdgeServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::PositionFix;

    fn fix(lat: f64) -> PositionFix {
        PositionFix { lat, lon: 2.0, alt_ft: 30000.0, speed_kts: 440.0, heading_deg: 90.0 }
    }

    fn pos(seq: u64, flight: FlightId) -> Arc<Event> {
        Arc::new(Event::faa_position(seq, flight, fix(seq as f64)))
    }

    fn empty_provider() -> Box<dyn StateProvider> {
        Box::new(SnapshotFn(|| {
            let state = mirror_ede::OperationalState::new();
            let snap = mirror_ede::Snapshot::capture(&state, VectorTimestamp::empty());
            (mirror_echo::wire::encode_snapshot(&snap), VectorTimestamp::empty())
        }))
    }

    /// A delta-capable provider over a shared mutable state, mimicking a
    /// mirror: captures mark frontiers so later deltas are servable.
    #[derive(Clone)]
    struct SharedProvider {
        state: Arc<Mutex<mirror_ede::OperationalState>>,
        tick: Arc<AtomicU64>,
    }

    impl SharedProvider {
        fn new() -> Self {
            SharedProvider {
                state: Arc::new(Mutex::new(mirror_ede::OperationalState::new())),
                tick: Arc::new(AtomicU64::new(0)),
            }
        }

        fn apply(&self, e: &Event) {
            self.state.lock().apply(e);
        }

        fn next_stamp(&self) -> VectorTimestamp {
            let mut vt = VectorTimestamp::empty();
            vt.advance(0, self.tick.fetch_add(1, Ordering::Relaxed) + 1);
            vt
        }
    }

    impl StateProvider for SharedProvider {
        fn full(&self) -> (Bytes, VectorTimestamp) {
            let mut st = self.state.lock();
            let vt = self.next_stamp();
            st.mark_frontier(&vt);
            let snap = mirror_ede::Snapshot::capture(&st, vt.clone());
            (mirror_echo::wire::encode_snapshot(&snap), vt)
        }

        fn delta(&self, base: &VectorTimestamp) -> Option<Bytes> {
            let mut st = self.state.lock();
            let vt = self.next_stamp();
            st.mark_frontier(&vt);
            st.capture_delta(base, vt).map(|d| mirror_echo::wire::encode_delta(&d))
        }
    }

    fn drain(client: &EdgeClient) -> Vec<Delivery> {
        let mut out = Vec::new();
        while let Ok(Some(d)) = client.poll() {
            out.push(d);
        }
        out
    }

    fn small_cfg() -> EdgeConfig {
        EdgeConfig { window: 64, queue_cap: 8, max_pending: 4 }
    }

    fn connections(edge: &EdgeServer) -> u64 {
        edge.counters().snapshot().connections
    }

    #[test]
    fn subscribe_delivers_reseed_then_live_events() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        let client = edge.subscribe(1, SubscriptionFilter::All);
        assert_eq!(client.backlog(), 1, "the reseed is queued when subscribe returns");
        match client.poll().unwrap() {
            Some(Delivery::Reseed { pub_seq, .. }) => assert_eq!(pub_seq, 0),
            d => panic!("expected reseed first, got {d:?}"),
        }
        edge.publish(pos(1, 10));
        edge.publish(pos(2, 11));
        assert_eq!(client.backlog(), 2, "delivered when publish returns");
        let got = drain(&client);
        let seqs: Vec<u64> = got.iter().map(Delivery::pub_seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(client.last_seq(), 2);
        let stats = edge.counters().snapshot();
        assert_eq!(stats.published, 2);
        assert_eq!(stats.connections, 1);
    }

    #[test]
    fn flight_filter_routes_only_matching_events() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        let gate = edge.subscribe(7, SubscriptionFilter::Flights(vec![10]));
        let lobby = edge.subscribe(8, SubscriptionFilter::All);
        assert_eq!(connections(&edge), 2);
        for i in 1..=6u64 {
            edge.publish(pos(i, if i % 2 == 0 { 10 } else { 99 }));
        }
        assert_eq!(lobby.backlog(), 7, "lobby: reseed + every event");
        assert_eq!(gate.backlog(), 4, "gate: reseed + its flight's events");
        let gate_flights: Vec<FlightId> = drain(&gate)
            .iter()
            .filter_map(|d| match d {
                Delivery::Event(e) => Some(e.event().flight),
                _ => None,
            })
            .collect();
        assert_eq!(gate_flights, vec![10, 10, 10]);
        assert_eq!(drain(&lobby).len(), 7, "reseed + 6 events");
    }

    #[test]
    fn slow_client_conflates_to_latest_per_flight_and_stays_bounded() {
        let cfg = small_cfg();
        let edge = EdgeServer::start(cfg.clone(), empty_provider());
        let client = edge.subscribe(1, SubscriptionFilter::All);
        assert_eq!(connections(&edge), 1);
        // Never polling: queue fills (reseed + 7 events), then conflation
        // holds only the latest per flight for 3 distinct flights.
        for i in 1..=200u64 {
            edge.publish(pos(i, (i % 3) as FlightId));
        }
        assert_eq!(edge.pub_seq(), 200);
        assert!(edge.counters().snapshot().conflated >= (200 - 8 - 3) as u64);
        let (qh, ph) = client.high_watermarks();
        assert!(qh <= cfg.queue_cap, "queue high {qh} exceeds cap");
        assert!(ph <= cfg.max_pending, "pending high {ph} exceeds cap");
        assert_eq!(client.backlog(), 8 + 3, "8 queued + 3 conflated flights");
        let got = drain(&client);
        // The conflated tail holds exactly the latest event per flight.
        let mut latest: HashMap<FlightId, u64> = HashMap::new();
        for d in &got {
            if let Delivery::Event(e) = d {
                latest.insert(e.event().flight, e.pub_seq());
            }
        }
        assert_eq!(latest.get(&(198 % 3)), Some(&198));
        assert_eq!(latest.get(&(199 % 3)), Some(&199));
        assert_eq!(latest.get(&(200 % 3)), Some(&200));
    }

    #[test]
    fn hopelessly_slow_client_gets_typed_disconnect() {
        let cfg = small_cfg(); // max_pending = 4
        let edge = EdgeServer::start(cfg, empty_provider());
        let client = edge.subscribe(1, SubscriptionFilter::All);
        assert_eq!(connections(&edge), 1);
        // 8 queued + 4 pending flights allowed; the 5th distinct pending
        // flight must trip the cap.
        for i in 1..=20u64 {
            edge.publish(pos(i, i as FlightId));
        }
        assert_eq!(edge.counters().snapshot().disconnected_slow, 1);
        assert_eq!(connections(&edge), 0, "the gauge drops with the disconnect");
        let err = client.poll().expect_err("closed as slow");
        assert_eq!(err, EdgeDisconnect::SlowClient { distinct_keys: 5, cap: 4 });
        assert_eq!(client.backlog(), 0, "buffers freed on disconnect");
        // The subscription survives the disconnect: resume is accepted
        // (not UnknownClient). With 20 distinct flights still in the
        // window and the same tiny caps, the replay itself blows the cap
        // again — proving the bound also holds during attach.
        let again = edge.resume(1, client.last_seq()).expect("directory entry survives");
        assert_eq!(edge.counters().snapshot().disconnected_slow, 2, "the replay trips the cap too");
        assert!(matches!(again.poll(), Err(EdgeDisconnect::SlowClient { .. })));
    }

    #[test]
    fn resume_replays_window_from_last_seq() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        let client = edge.subscribe(1, SubscriptionFilter::All);
        assert_eq!(connections(&edge), 1);
        for i in 1..=5u64 {
            edge.publish(pos(i, 10 + i as FlightId));
        }
        let got = drain(&client);
        assert_eq!(got.len(), 6);
        assert_eq!(client.last_seq(), 5);
        let last = client.last_seq();
        client.disconnect();
        assert_eq!(connections(&edge), 0, "detached");
        // Published while away — still within the window.
        for i in 6..=9u64 {
            edge.publish(pos(i, 10 + i as FlightId));
        }
        let resumed = edge.resume(1, last).expect("known client");
        let seqs: Vec<u64> = drain(&resumed).iter().map(Delivery::pub_seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "exactly the missed events, in order");
        assert_eq!(edge.counters().snapshot().resumed, 1);
        assert_eq!(edge.counters().snapshot().reseeded, 0);
    }

    #[test]
    fn resume_past_window_reseeds_without_gap() {
        let mut cfg = small_cfg();
        cfg.window = 8;
        let edge = EdgeServer::start(cfg, empty_provider());
        let client = edge.subscribe(1, SubscriptionFilter::All);
        edge.publish(pos(1, 10));
        assert_eq!(drain(&client).len(), 2);
        let last = client.last_seq();
        client.disconnect();
        // 20 more events blow the 8-event window: resume must reseed.
        for i in 2..=21u64 {
            edge.publish(pos(i, i as FlightId));
        }
        let resumed = edge.resume(1, last).expect("known client");
        let got = drain(&resumed);
        let (reseed_floor, rest): (u64, &[Delivery]) = match got.split_first() {
            Some((Delivery::Reseed { pub_seq, .. }, rest)) => (*pub_seq, rest),
            other => panic!("expected reseed first, got {other:?}"),
        };
        // Deliveries after the reseed are contiguous from its floor: no
        // gap between snapshot coverage and the replayed window.
        for (expect, d) in (reseed_floor + 1..).zip(rest.iter()) {
            assert_eq!(d.pub_seq(), expect, "gap after reseed");
        }
        assert_eq!(edge.counters().snapshot().reseeded, 1);
    }

    #[test]
    fn resume_past_window_serves_delta_against_remembered_base() {
        let mut cfg = small_cfg();
        cfg.window = 8;
        cfg.max_pending = 1024;
        // The cached delta outlives the test's waits: a unit-test build
        // allows a reseed capture 5 s of age (`RESEED_MAX_STALE`).
        let provider = SharedProvider::new();
        let edge = EdgeServer::start(cfg, Box::new(provider.clone()));
        let a = edge.subscribe(1, SubscriptionFilter::All);
        let b = edge.subscribe(2, SubscriptionFilter::All);
        assert_eq!(connections(&edge), 2);
        // Both clients consume the initial reseed (base state at the
        // remembered frontier) plus one live event.
        let e = pos(1, 100);
        provider.apply(&e);
        edge.publish(Arc::clone(&e));
        assert_eq!((drain(&a).len(), drain(&b).len()), (2, 2));
        let (last_a, last_b) = (a.last_seq(), b.last_seq());
        a.disconnect();
        b.disconnect();
        assert_eq!(connections(&edge), 0);
        // 20 more events blow the 8-event window; each also lands in the
        // provider's state (publish-after-apply, like a real mirror).
        for i in 2..=21u64 {
            let e = pos(i, i as FlightId);
            provider.apply(&e);
            edge.publish(Arc::clone(&e));
        }
        // Client A resumes: out of the window, but its held state covers
        // the initial reseed frontier — a delta travels, not a snapshot.
        let ra = edge.resume(1, last_a).expect("known client");
        let got = drain(&ra);
        let (floor, delta_wire) = match got.split_first() {
            Some((Delivery::DeltaReseed { pub_seq, delta }, rest)) => {
                // Deliveries after the delta are contiguous from its floor.
                for (expect, d) in (*pub_seq + 1..).zip(rest.iter()) {
                    assert_eq!(d.pub_seq(), expect, "gap after delta reseed");
                }
                (*pub_seq, delta.clone())
            }
            other => panic!("expected a delta reseed first, got {other:?}"),
        };
        assert!(floor >= 21, "floor read at capture covers every publish");
        let delta = mirror_echo::wire::decode_delta(delta_wire.clone()).expect("decode");
        assert_eq!(delta.changed_count(), 21, "every flight touched since the base travels");
        // The delta is a strict subset of state; its wire must be what the
        // client folds into the state it already holds.
        assert!(delta.removed().is_empty());
        // Client B resumes against the same base: the cached delta entry
        // is served (one capture, shared bytes).
        let rb = edge.resume(2, last_b).expect("known client");
        match drain(&rb).split_first() {
            Some((Delivery::DeltaReseed { delta, .. }, _)) => {
                assert_eq!(delta.as_ptr(), delta_wire.as_ptr(), "cached delta bytes are shared");
            }
            other => panic!("expected a delta reseed, got {other:?}"),
        }
        let stats = edge.counters().snapshot();
        assert_eq!(stats.delta_reseeded, 2);
        assert_eq!(stats.reseeded, 0, "no full reseed was needed");
    }

    #[test]
    fn set_provider_forgets_delta_bases() {
        let mut cfg = small_cfg();
        cfg.window = 8;
        cfg.max_pending = 1024;
        let provider = SharedProvider::new();
        let edge = EdgeServer::start(cfg, Box::new(provider.clone()));
        let client = edge.subscribe(1, SubscriptionFilter::All);
        let e = pos(1, 100);
        provider.apply(&e);
        edge.publish(e);
        assert_eq!(drain(&client).len(), 2);
        let last = client.last_seq();
        client.disconnect();
        for i in 2..=21u64 {
            let e = pos(i, i as FlightId);
            provider.apply(&e);
            edge.publish(e);
        }
        // A failover re-point: the successor does not remember the old
        // provider's capture frontiers, so the resume must fall back to a
        // full reseed rather than chain a delta from a forgotten base.
        edge.set_provider(Box::new(SharedProvider::new()));
        let resumed = edge.resume(1, last).expect("known client");
        assert!(matches!(resumed.poll(), Ok(Some(Delivery::Reseed { .. }))));
        let stats = edge.counters().snapshot();
        assert_eq!(stats.delta_reseeded, 0);
        assert_eq!(stats.reseeded, 1);
    }

    #[test]
    fn resume_unknown_client_is_typed() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        match edge.resume(99, 0) {
            Err(e) => assert_eq!(e, ResumeError::UnknownClient(99)),
            Ok(_) => panic!("resume of an unknown client must fail"),
        }
    }

    #[test]
    fn second_connection_replaces_first() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        let first = edge.subscribe(1, SubscriptionFilter::All);
        assert_eq!(connections(&edge), 1);
        let second = edge.resume(1, 0).expect("known");
        assert_eq!(first.poll().unwrap_err(), EdgeDisconnect::Replaced);
        edge.publish(pos(1, 5));
        assert_eq!(second.backlog(), 1, "the live event reaches the new connection");
        assert_eq!(edge.counters().snapshot().connections, 1, "gauge counts one connection");
    }

    #[test]
    fn encode_once_across_subscribers() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        let a = edge.subscribe(1, SubscriptionFilter::All);
        let b = edge.subscribe(2, SubscriptionFilter::All);
        edge.publish(pos(1, 10));
        let mut va = drain(&a);
        let mut vb = drain(&b);
        let ea = va.pop().unwrap();
        let eb = vb.pop().unwrap();
        match (&ea, &eb) {
            (Delivery::Event(x), Delivery::Event(y)) => {
                assert!(Arc::ptr_eq(x, y), "subscribers share one EdgeEvent");
                let wx = x.wire();
                let wy = y.wire();
                assert_eq!(wx.as_ptr(), wy.as_ptr(), "one shared encoding");
                match mirror_echo::decode_frame(wx).unwrap() {
                    Frame::EdgeEvent { pub_seq, event } => {
                        assert_eq!(pub_seq, 1);
                        assert_eq!(event, *x.event());
                    }
                    f => panic!("wrong frame {f:?}"),
                }
            }
            other => panic!("expected events, got {other:?}"),
        }
    }

    #[test]
    fn quiesce_after_stop_returns() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        edge.stop();
        edge.quiesce();
    }

    #[test]
    fn stop_surfaces_server_stopped() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        let client = edge.subscribe(1, SubscriptionFilter::All);
        assert_eq!(connections(&edge), 1);
        edge.stop();
        assert!(matches!(client.poll(), Err(EdgeDisconnect::ServerStopped)));
    }

    #[test]
    fn attach_after_stop_is_typed() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        let early = edge.subscribe(1, SubscriptionFilter::All);
        edge.stop();
        let late = edge.subscribe(2, SubscriptionFilter::All);
        assert_eq!(late.poll().unwrap_err(), EdgeDisconnect::ServerStopped);
        let resumed = edge.resume(1, early.last_seq()).expect("known client");
        assert_eq!(resumed.poll().unwrap_err(), EdgeDisconnect::ServerStopped);
    }
}
