//! The edge delivery server: global publication sequencing, sharded
//! delivery workers, per-subscriber conflating outboxes, and resume.
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
//! Clients are sharded over a small pool of **delivery workers**
//! (`client_id % workers`). Each worker owns its shard's subscription
//! index (all-flights list + flight-id postings) and receives work —
//! deliveries, attaches, detaches — over one MPSC ring, so everything
//! that mutates a given client's outbox is serialized without a global
//! lock: a resume's window replay cannot race the live deliveries of the
//! same client. An idle worker parks inside the ring's `recv` until the
//! next push; it polls nothing, so a quiet edge costs no CPU.
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
use std::thread;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::Mutex;

use mirror_core::event::{Event, EventBody, FlightId};
use mirror_core::ring::{self, MpscSender};
use mirror_core::timestamp::VectorTimestamp;
use mirror_echo::wire::{encode_edge_event, encode_frame, Frame};
use mirror_echo::{Closer, Subscriber, SubscriptionFilter};

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
    /// Delivery worker threads; clients are sharded `id % workers`.
    pub workers: usize,
    /// Capacity of each worker's inbound work ring.
    pub ring_capacity: usize,
    /// Serve a cached reseed snapshot while at most this many events
    /// behind the live publication frontier (the §13 bounded-staleness
    /// rule in `pub_seq` terms).
    pub reseed_max_stale_events: u64,
    /// ... and at most this old.
    pub reseed_max_stale: std::time::Duration,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(1, 4);
        EdgeConfig {
            window: 4096,
            queue_cap: 64,
            max_pending: 1024,
            workers,
            ring_capacity: 1024,
            reseed_max_stale_events: 64,
            reseed_max_stale: std::time::Duration::from_millis(2),
        }
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
/// either from the owning delivery worker or from the consuming client.
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
    /// Highest `pub_seq` ever offered to this connection; deduplicates a
    /// resume's window replay against in-flight live deliveries.
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
    state: Mutex<ClientState>,
}

/// What happened when an event was offered to a connection.
enum Push {
    /// Queued or conflated; connection is fine.
    Ok,
    /// Duplicate of something already offered (replay overlap); skipped.
    Duplicate,
    /// The connection was already closed.
    Closed,
    /// This push violated the pending cap: the client was just closed.
    ClosedNow,
}

fn push_event(conn: &ClientConn, e: &Arc<EdgeEvent>, cfg: &EdgeConfig, c: &EdgeCounters) -> Push {
    let mut st = conn.state.lock();
    if st.closed.is_some() {
        return Push::Closed;
    }
    if e.pub_seq <= st.frontier {
        return Push::Duplicate;
    }
    st.frontier = e.pub_seq;
    // Healthy fast path. Conflation, once begun, captures every newer
    // event (not just overflow) so the client never observes state for a
    // flight moving backwards: pending entries are always at least as new
    // as anything still queued.
    if st.pending.is_empty() && st.queue.len() < cfg.queue_cap {
        st.queue.push_back(Delivery::Event(Arc::clone(e)));
        st.queue_high = st.queue_high.max(st.queue.len());
        return Push::Ok;
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
            Push::Ok
        }
        None => {
            if st.pending.len() > cfg.max_pending {
                let n = st.pending.len();
                st.close(EdgeDisconnect::SlowClient { distinct_keys: n, cap: cfg.max_pending });
                c.disconnected_slow.fetch_add(1, Ordering::Relaxed);
                return Push::ClosedNow;
            }
            st.pending_order.insert(e.pub_seq, key);
            st.pending_high = st.pending_high.max(st.pending.len());
            Push::Ok
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
        let shard = (self.conn.id as usize) % self.inner.rings.len();
        let _ = self.inner.rings[shard].send(WorkMsg::Detach { conn: Arc::clone(&self.conn) });
    }
}

enum WorkMsg {
    Deliver(Arc<EdgeEvent>),
    Attach { conn: Arc<ClientConn>, filter: SubscriptionFilter, resume_from: Option<u64> },
    Detach { conn: Arc<ClientConn> },
    Quiesce(MpscSender<()>),
    Stop,
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

struct Inner {
    cfg: EdgeConfig,
    counters: Arc<EdgeCounters>,
    pub_seq: AtomicU64,
    window: Mutex<VecDeque<Arc<EdgeEvent>>>,
    directory: Mutex<HashMap<u64, SubscriptionFilter>>,
    rings: Vec<MpscSender<WorkMsg>>,
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
            let fresh_enough = e.floor >= min_floor
                && current.saturating_sub(e.floor) <= self.cfg.reseed_max_stale_events
                && e.taken.elapsed() <= self.cfg.reseed_max_stale;
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
            let fresh_enough = d.base == base
                && d.floor >= min_floor
                && current.saturating_sub(d.floor) <= self.cfg.reseed_max_stale_events
                && d.taken.elapsed() <= self.cfg.reseed_max_stale;
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

    fn publish(&self, event: Arc<Event>) {
        let seq = self.pub_seq.fetch_add(1, Ordering::AcqRel) + 1;
        let e = Arc::new(EdgeEvent { pub_seq: seq, event, wire: OnceLock::new() });
        {
            // Window first, rings second — an Attach processed in between
            // replays this event from the window and the later Deliver
            // deduplicates against the client's frontier. The window lock
            // is never held across a (possibly spinning) ring send.
            let mut win = self.window.lock();
            win.push_back(Arc::clone(&e));
            if win.len() > self.cfg.window {
                win.pop_front();
            }
        }
        for ring in &self.rings {
            // Blocking send: a full worker ring back-pressures the
            // publishing pump rather than dropping (gaps are forbidden;
            // slowness is handled per-client by conflation).
            let _ = ring.send(WorkMsg::Deliver(Arc::clone(&e)));
        }
        self.counters.published.fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-worker shard: the connections it owns and its subscription index.
struct Shard {
    conns: HashMap<u64, Arc<ClientConn>>,
    filters: HashMap<u64, SubscriptionFilter>,
    /// Clients subscribed to every flight.
    all: Vec<u64>,
    /// Flight-id postings for filtered subscribers, keyed by the shared
    /// Fibonacci flight-id hasher — the same mix the EDE's flight map and
    /// the partition router use, so the per-publish lookup skips SipHash.
    by_flight: HashMap<FlightId, Vec<u64>, mirror_core::BuildFlightHasher>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            conns: HashMap::new(),
            filters: HashMap::new(),
            all: Vec::new(),
            by_flight: HashMap::default(),
        }
    }

    fn index_add(&mut self, id: u64, filter: &SubscriptionFilter) {
        match filter {
            SubscriptionFilter::All => self.all.push(id),
            SubscriptionFilter::Flights(ids) => {
                for f in ids {
                    self.by_flight.entry(*f).or_default().push(id);
                }
            }
        }
    }

    fn index_remove(&mut self, id: u64) {
        match self.filters.get(&id) {
            Some(SubscriptionFilter::All) => {
                if let Some(pos) = self.all.iter().position(|&x| x == id) {
                    self.all.swap_remove(pos);
                }
            }
            Some(SubscriptionFilter::Flights(ids)) => {
                for f in ids {
                    if let Some(list) = self.by_flight.get_mut(f) {
                        if let Some(pos) = list.iter().position(|&x| x == id) {
                            list.swap_remove(pos);
                        }
                        if list.is_empty() {
                            self.by_flight.remove(f);
                        }
                    }
                }
            }
            None => {}
        }
        self.filters.remove(&id);
    }

    /// Drop a connection from the shard (index + map), adjusting the
    /// gauge. No-op if `conn` is not the current connection for its id.
    fn drop_conn(&mut self, conn: &Arc<ClientConn>, c: &EdgeCounters) {
        let current = self.conns.get(&conn.id).is_some_and(|cur| Arc::ptr_eq(cur, conn));
        if current {
            self.conns.remove(&conn.id);
            self.index_remove(conn.id);
            c.connections.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// A delivery worker: blocks in its ring's `recv` (spin, yield, then park
/// until the next push) and handles work in ring order, until
/// `WorkMsg::Stop` or until every producer handle is gone.
fn worker_loop(mut rx: ring::MpscReceiver<WorkMsg>, inner: Arc<Inner>) {
    let mut shard = Shard::new();
    let cfg = inner.cfg.clone();
    let c = Arc::clone(&inner.counters);
    while let Some(msg) = rx.recv() {
        match msg {
            WorkMsg::Deliver(e) => {
                let flight = e.event.flight;
                let mut dead: Vec<Arc<ClientConn>> = Vec::new();
                let offer = |id: u64, shard: &Shard| match shard.conns.get(&id) {
                    Some(conn) => match push_event(conn, &e, &cfg, &c) {
                        Push::ClosedNow => Some(Arc::clone(conn)),
                        _ => None,
                    },
                    None => None,
                };
                for i in 0..shard.all.len() {
                    if let Some(d) = offer(shard.all[i], &shard) {
                        dead.push(d);
                    }
                }
                if let Some(list) = shard.by_flight.get(&flight) {
                    for &id in list.iter() {
                        if let Some(d) = offer(id, &shard) {
                            dead.push(d);
                        }
                    }
                }
                for conn in dead {
                    shard.drop_conn(&conn, &c);
                }
            }
            WorkMsg::Attach { conn, filter, resume_from } => {
                // A stale connection for the same id is replaced.
                if let Some(old) = shard.conns.get(&conn.id).cloned() {
                    old.state.lock().close(EdgeDisconnect::Replaced);
                    shard.drop_conn(&old, &c);
                }
                attach(&mut shard, conn, filter, resume_from, &inner);
            }
            WorkMsg::Detach { conn } => {
                shard.drop_conn(&conn, &c);
            }
            // Dropping the handle is the settle signal.
            WorkMsg::Quiesce(_settled) => {}
            WorkMsg::Stop => break,
        }
    }
    // Shutdown: surface a typed disconnect to still-connected clients.
    for conn in shard.conns.values() {
        conn.state.lock().close(EdgeDisconnect::ServerStopped);
    }
}

/// Seed a fresh connection (subscribe or resume) and index it. Runs on
/// the owning worker, serialized with that shard's live deliveries.
fn attach(
    shard: &mut Shard,
    conn: Arc<ClientConn>,
    filter: SubscriptionFilter,
    resume_from: Option<u64>,
    inner: &Arc<Inner>,
) {
    let cfg = &inner.cfg;
    let c = &inner.counters;
    // Snapshot the window under its lock, then seed without holding it.
    let (win_floor, retained): (u64, Vec<Arc<EdgeEvent>>) = {
        let win = inner.window.lock();
        let floor = win
            .front()
            .map(|e| e.pub_seq)
            .unwrap_or_else(|| inner.pub_seq.load(Ordering::Acquire) + 1);
        (floor, win.iter().cloned().collect())
    };
    // Replay is possible iff everything after `last` is still retained.
    let replay_from = match resume_from {
        Some(last) if last + 1 >= win_floor => {
            c.resumed.fetch_add(1, Ordering::Relaxed);
            conn.state.lock().frontier = last;
            last
        }
        other => {
            // Fresh subscribe, or the resume point fell out of the
            // window: reseed so the window replay after it is gap-free.
            // A resuming client whose held state covers a remembered
            // reseed frontier gets a cheap delta; everyone else gets a
            // full snapshot covering at least the window floor.
            let min_floor = win_floor.saturating_sub(1);
            let delta = other.and_then(|last| inner.reseed_delta(last, min_floor));
            let (floor, delivery) = match delta {
                Some((floor, wire)) => {
                    c.delta_reseeded.fetch_add(1, Ordering::Relaxed);
                    (floor, Delivery::DeltaReseed { pub_seq: floor, delta: wire })
                }
                None => {
                    let (floor, wire) = inner.reseed(min_floor);
                    if other.is_some() {
                        c.reseeded.fetch_add(1, Ordering::Relaxed);
                    }
                    (floor, Delivery::Reseed { pub_seq: floor, snapshot: wire })
                }
            };
            let mut st = conn.state.lock();
            st.frontier = floor;
            st.consumed = floor;
            st.queue.push_back(delivery);
            st.queue_high = st.queue_high.max(st.queue.len());
            floor
        }
    };
    let mut closed_now = false;
    for e in &retained {
        if e.pub_seq > replay_from && filter.matches(e.event.flight) {
            if let Push::ClosedNow = push_event(&conn, e, cfg, c) {
                closed_now = true;
                break;
            }
        }
    }
    c.connects_total.fetch_add(1, Ordering::Relaxed);
    if closed_now {
        // Slow before it even attached (replay alone blew the cap); the
        // typed disconnect is already set — don't index it.
        return;
    }
    shard.filters.insert(conn.id, filter.clone());
    shard.index_add(conn.id, &filter);
    shard.conns.insert(conn.id, conn);
    c.connections.fetch_add(1, Ordering::Relaxed);
}

/// The edge server: owns the delivery workers, the retained window, the
/// subscription directory and the counters.
pub struct EdgeServer {
    inner: Arc<Inner>,
    /// The delivery workers.
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Update pumps ([`pump_from`](Self::pump_from)) with the close
    /// handles of the subscriptions they read.
    pumps: Mutex<Vec<(Closer, thread::JoinHandle<()>)>>,
}

impl EdgeServer {
    /// Start an edge with `cfg`, reseeding from `provider`.
    pub fn start(cfg: EdgeConfig, provider: Box<dyn StateProvider>) -> Self {
        let workers = cfg.workers.max(1);
        let counters = Arc::new(EdgeCounters::default());
        let mut rings = Vec::with_capacity(workers);
        let mut receivers = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = ring::mpsc::<WorkMsg>(cfg.ring_capacity);
            rings.push(tx);
            receivers.push(rx);
        }
        let inner = Arc::new(Inner {
            cfg,
            counters,
            pub_seq: AtomicU64::new(0),
            window: Mutex::new(VecDeque::new()),
            directory: Mutex::new(HashMap::new()),
            rings,
            reseed_slot: Mutex::new(ReseedSlots::default()),
            provider: Mutex::new(provider),
        });
        let threads = receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("edge-worker-{i}"))
                    .spawn(move || worker_loop(rx, inner))
                    .expect("spawn edge worker")
            })
            .collect();
        EdgeServer { inner, threads: Mutex::new(threads), pumps: Mutex::new(Vec::new()) }
    }

    /// The edge's counters (share with `Cluster::stats()`).
    pub fn counters(&self) -> Arc<EdgeCounters> {
        Arc::clone(&self.inner.counters)
    }

    /// Current publication frontier.
    pub fn pub_seq(&self) -> u64 {
        self.inner.pub_seq.load(Ordering::Acquire)
    }

    /// Publish one applied event to every matching subscriber.
    pub fn publish(&self, event: Arc<Event>) {
        self.inner.publish(event);
    }

    /// Spawn a pump that publishes every event from `sub` (a mirror's
    /// applied-updates subscription) until its publishers are gone or
    /// [`stop`](Self::stop) closes it, which joins the pump after it has
    /// published what the subscription already held.
    pub fn pump_from(&self, sub: Subscriber<Event>) {
        let closer = sub.closer();
        let inner = Arc::clone(&self.inner);
        let h = thread::Builder::new()
            .name("edge-pump".into())
            .spawn(move || {
                while let Some(e) = sub.recv() {
                    inner.publish(Arc::new(e));
                }
            })
            .expect("spawn edge pump");
        self.pumps.lock().push((closer, h));
    }

    /// Subscribe a new client (the `Frame::Subscribe` service path).
    /// Returns its virtual socket; the initial state arrives as a
    /// [`Delivery::Reseed`] followed by live deliveries.
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
        let conn = Arc::new(ClientConn { id: client, state: Mutex::new(ClientState::new()) });
        let shard = (client as usize) % self.inner.rings.len();
        let _ = self.inner.rings[shard]
            .send(WorkMsg::Attach { conn: Arc::clone(&conn), filter, resume_from })
            .map_err(|_| ());
        EdgeClient { conn, inner: Arc::clone(&self.inner) }
    }

    /// Block until every delivery worker has processed all work enqueued
    /// before this call — a deterministic settle point for tests and
    /// benchmarks (e.g. "all fan-out for the published events is done").
    /// A worker that is already gone (after [`stop`](Self::stop)) has
    /// nothing left to settle and is not waited for.
    pub fn quiesce(&self) {
        let (settled, mut all_settled) = ring::mpsc::<()>(1);
        for ring in &self.inner.rings {
            // A gone worker's ring hands the marker back, dropped here.
            let _ = ring.send(WorkMsg::Quiesce(settled.clone()));
        }
        drop(settled);
        // Nothing is ever pushed: this returns once the last marker drops.
        all_settled.recv();
    }

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
    /// capture frontiers). Pair it with a fresh
    /// [`pump_from`](Self::pump_from) on the successor's update stream.
    pub fn set_provider(&self, provider: Box<dyn StateProvider>) {
        let mut slot = self.inner.reseed_slot.lock();
        *self.inner.provider.lock() = provider;
        *slot = ReseedSlots::default();
    }

    /// Stop pumps and workers; connected clients see
    /// [`EdgeDisconnect::ServerStopped`]. The pumps' subscriptions are
    /// closed first, and what they already held is published before the
    /// workers stop.
    pub fn stop(&self) {
        let pumps = std::mem::take(&mut *self.pumps.lock());
        for (closer, _) in &pumps {
            closer.close();
        }
        for (_, h) in pumps {
            let _ = h.join();
        }
        for ring in &self.inner.rings {
            let _ = ring.send(WorkMsg::Stop).map_err(|_| ());
        }
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
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

    fn wait_for<F: Fn() -> bool>(what: &str, f: F) {
        let start = Instant::now();
        while !f() {
            assert!(start.elapsed() < std::time::Duration::from_secs(5), "timeout: {what}");
            thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    fn small_cfg() -> EdgeConfig {
        EdgeConfig { workers: 2, window: 64, queue_cap: 8, max_pending: 4, ..Default::default() }
    }

    #[test]
    fn subscribe_delivers_reseed_then_live_events() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        let client = edge.subscribe(1, SubscriptionFilter::All);
        wait_for("initial reseed", || client.backlog() > 0);
        match client.poll().unwrap() {
            Some(Delivery::Reseed { pub_seq, .. }) => assert_eq!(pub_seq, 0),
            d => panic!("expected reseed first, got {d:?}"),
        }
        edge.publish(pos(1, 10));
        edge.publish(pos(2, 11));
        wait_for("two live events", || client.backlog() >= 2);
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
        wait_for("both attached", || edge.counters().snapshot().connections == 2);
        for i in 1..=6u64 {
            edge.publish(pos(i, if i % 2 == 0 { 10 } else { 99 }));
        }
        wait_for("lobby sees all", || lobby.backlog() >= 7);
        wait_for("gate sees half", || gate.backlog() >= 4);
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
        wait_for("attached", || edge.counters().snapshot().connections == 1);
        // Never polling: queue fills (reseed + 7 events), then conflation
        // holds only the latest per flight for 3 distinct flights.
        for i in 1..=200u64 {
            edge.publish(pos(i, (i % 3) as FlightId));
        }
        wait_for("all fanned out", || edge.pub_seq() == 200 && client.backlog() >= 8 + 3);
        // Give workers a beat to finish the last pushes.
        wait_for("conflation settled", || {
            edge.counters().snapshot().conflated >= (200 - 8 - 3) as u64
        });
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
        wait_for("attached", || edge.counters().snapshot().connections == 1);
        // 8 queued + 4 pending flights allowed; the 5th distinct pending
        // flight must trip the cap.
        for i in 1..=20u64 {
            edge.publish(pos(i, i as FlightId));
        }
        wait_for("slow disconnect", || edge.counters().snapshot().disconnected_slow == 1);
        wait_for("gauge drops", || edge.counters().snapshot().connections == 0);
        let err = loop {
            if let Err(e) = client.poll() {
                break e;
            }
        };
        assert_eq!(err, EdgeDisconnect::SlowClient { distinct_keys: 5, cap: 4 });
        assert_eq!(client.backlog(), 0, "buffers freed on disconnect");
        // The subscription survives the disconnect: resume is accepted
        // (not UnknownClient). With 20 distinct flights still in the
        // window and the same tiny caps, the replay itself blows the cap
        // again — proving the bound also holds during attach.
        let again = edge.resume(1, client.last_seq()).expect("directory entry survives");
        wait_for("replay trips the cap too", || edge.counters().snapshot().disconnected_slow == 2);
        assert!(matches!(again.poll(), Err(EdgeDisconnect::SlowClient { .. })));
    }

    #[test]
    fn resume_replays_window_from_last_seq() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        let client = edge.subscribe(1, SubscriptionFilter::All);
        wait_for("attached", || edge.counters().snapshot().connections == 1);
        for i in 1..=5u64 {
            edge.publish(pos(i, 10 + i as FlightId));
        }
        wait_for("delivered", || client.backlog() >= 6);
        let got = drain(&client);
        assert_eq!(got.len(), 6);
        assert_eq!(client.last_seq(), 5);
        let last = client.last_seq();
        client.disconnect();
        wait_for("detached", || edge.counters().snapshot().connections == 0);
        // Published while away — still within the window.
        for i in 6..=9u64 {
            edge.publish(pos(i, 10 + i as FlightId));
        }
        let resumed = edge.resume(1, last).expect("known client");
        wait_for("replayed", || resumed.backlog() >= 4);
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
        wait_for("attached", || edge.counters().snapshot().connections == 1);
        edge.publish(pos(1, 10));
        wait_for("delivered", || client.backlog() >= 2);
        drain(&client);
        let last = client.last_seq();
        client.disconnect();
        wait_for("detached", || edge.counters().snapshot().connections == 0);
        // 20 more events blow the 8-event window: resume must reseed.
        for i in 2..=21u64 {
            edge.publish(pos(i, i as FlightId));
        }
        let resumed = edge.resume(1, last).expect("known client");
        wait_for("reseeded", || resumed.backlog() > 0);
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
        // Generous staleness so the cached delta survives the test's waits.
        cfg.reseed_max_stale = std::time::Duration::from_secs(5);
        let provider = SharedProvider::new();
        let edge = EdgeServer::start(cfg, Box::new(provider.clone()));
        let a = edge.subscribe(1, SubscriptionFilter::All);
        let b = edge.subscribe(2, SubscriptionFilter::All);
        wait_for("attached", || edge.counters().snapshot().connections == 2);
        // Both clients consume the initial reseed (base state at the
        // remembered frontier) plus one live event.
        let e = pos(1, 100);
        provider.apply(&e);
        edge.publish(Arc::clone(&e));
        wait_for("delivered", || a.backlog() >= 2 && b.backlog() >= 2);
        drain(&a);
        drain(&b);
        let (last_a, last_b) = (a.last_seq(), b.last_seq());
        a.disconnect();
        b.disconnect();
        wait_for("detached", || edge.counters().snapshot().connections == 0);
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
        wait_for("delta reseeded", || ra.backlog() > 0);
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
        wait_for("second delta reseed", || rb.backlog() > 0);
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
        wait_for("attached", || edge.counters().snapshot().connections == 1);
        let e = pos(1, 100);
        provider.apply(&e);
        edge.publish(e);
        wait_for("delivered", || client.backlog() >= 2);
        drain(&client);
        let last = client.last_seq();
        client.disconnect();
        wait_for("detached", || edge.counters().snapshot().connections == 0);
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
        wait_for("reseeded", || resumed.backlog() > 0);
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
        wait_for("attached", || edge.counters().snapshot().connections == 1);
        let second = edge.resume(1, 0).expect("known");
        wait_for("replaced", || matches!(first.poll(), Err(EdgeDisconnect::Replaced)));
        edge.publish(pos(1, 5));
        wait_for("second gets events", || second.backlog() >= 1);
        assert_eq!(edge.counters().snapshot().connections, 1, "gauge counts one connection");
    }

    #[test]
    fn encode_once_across_subscribers() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        let a = edge.subscribe(1, SubscriptionFilter::All);
        let b = edge.subscribe(2, SubscriptionFilter::All);
        wait_for("attached", || edge.counters().snapshot().connections == 2);
        edge.publish(pos(1, 10));
        wait_for("both", || a.backlog() >= 2 && b.backlog() >= 2);
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
        let edge = Arc::new(EdgeServer::start(small_cfg(), empty_provider()));
        edge.stop();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let settling = Arc::clone(&edge);
        let h = thread::spawn(move || {
            settling.quiesce();
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("quiesce after stop must return, not wait on workers that are gone");
        h.join().unwrap();
    }

    #[test]
    fn stop_surfaces_server_stopped() {
        let edge = EdgeServer::start(small_cfg(), empty_provider());
        let client = edge.subscribe(1, SubscriptionFilter::All);
        wait_for("attached", || edge.counters().snapshot().connections == 1);
        edge.stop();
        assert!(matches!(client.poll(), Err(EdgeDisconnect::ServerStopped)));
    }
}
