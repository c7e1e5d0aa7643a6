//! Server-side request gateways.
//!
//! In the paper, client requests arrive over the network and queue in "an
//! application level buffer holding all pending client requests" — one of
//! the monitored variables driving adaptive mirroring (§3.2.2). A
//! [`RequestGateway`] gives a running site exactly that: a **worker pool**
//! draining a shared FIFO of initial-state requests, whose occupancy feeds
//! the site's pending-requests gauge (and therefore the
//! checkpoint-piggybacked monitor reports), so the central adaptation
//! controller reacts to real request pressure in the live runtime, not
//! just in the simulator.
//!
//! Three properties make storms cheap:
//!
//! * a gateway captures nothing itself: it asks the site's
//!   [`StateSync`], whose one full slot serves every gateway and seed of
//!   the site — one state capture (and one wire encoding) per staleness
//!   window under the gateway's [`SnapshotCachePolicy`];
//! * the FIFO drains on `workers` threads (default `min(4, cores)`), so
//!   service pads and reply marshalling parallelize instead of queueing
//!   behind one clone loop;
//! * the pending gauge is maintained by increment (at submit) and
//!   decrement (at reply) on a shared atomic, exact under concurrency.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;

use mirror_core::{FlightId, GroupId, PartitionMap};

use crate::site::SiteCounters;
use crate::statesync::{ServedSnapshot, SnapshotCachePolicy, StateSync};

/// A request job: answered with a served (cache-shared) snapshot, or a
/// [`RequestError::Unavailable`] when the serving site is mid-takeover.
struct Job {
    reply: Sender<Result<ServedSnapshot, RequestError>>,
    submitted: Instant,
    /// The flight the client is after, when it said so. Keyed requests are
    /// ownership-checked against the gateway's partition table; unkeyed
    /// requests (whole-state fetches) serve unconditionally.
    key: Option<FlightId>,
}

/// A cluster's shared, epoch-fenced view of the partition map, consulted by
/// every gateway on keyed requests.
///
/// One table is shared across all of a partitioned cluster's gateways and
/// its migration machinery: installing a newer map (after a slot moves)
/// redirects misrouted clients everywhere at once, while stale installs —
/// e.g. a map learned off a lagging mirror's commit — are ignored, the same
/// fence [`PartitionMap::adopt`] applies on control traffic.
#[derive(Debug)]
pub struct PartitionTable {
    map: std::sync::RwLock<PartitionMap>,
}

impl PartitionTable {
    /// A table starting at `map`.
    pub fn new(map: PartitionMap) -> Self {
        Self { map: std::sync::RwLock::new(map) }
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, PartitionMap> {
        self.map.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Install a newer map; `false` (no-op) when `map` isn't strictly
    /// newer than the current epoch.
    pub fn install(&self, map: PartitionMap) -> bool {
        let mut cur = self.map.write().unwrap_or_else(|e| e.into_inner());
        if map.epoch() <= cur.epoch() {
            return false;
        }
        *cur = map;
        true
    }

    /// The group owning `flight` under the current map.
    pub fn group_of(&self, flight: FlightId) -> GroupId {
        self.read().group_of(flight)
    }

    /// Epoch of the current map.
    pub fn epoch(&self) -> u64 {
        self.read().epoch()
    }

    /// A clone of the current map.
    pub fn snapshot(&self) -> PartitionMap {
        self.read().clone()
    }
}

/// Admission gate for initial-state serving, shared between a cluster's
/// gateways and its failover machinery.
///
/// During a coordinator takeover the cluster **closes** the gate: workers
/// park arriving requests (bounded by [`GatewayConfig::gate_wait`]) instead
/// of serving state that is about to be superseded. Requests still parked
/// when the bound expires fail with [`RequestError::Unavailable`]; the rest
/// resume the moment the successor **opens** the gate again.
pub struct RequestGate {
    /// `true` = open. A plain std mutex/condvar pair: the gate toggles a
    /// handful of times per failover, never on the per-request hot path
    /// while open (workers read the flag once under an uncontended lock).
    open: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

impl RequestGate {
    /// A gate that starts open.
    pub fn new() -> Self {
        Self { open: std::sync::Mutex::new(true), cv: std::sync::Condvar::new() }
    }

    /// Close the gate: workers park subsequent requests.
    pub fn close(&self) {
        *self.open.lock().unwrap_or_else(|e| e.into_inner()) = false;
    }

    /// Open the gate, releasing every parked worker.
    pub fn open(&self) {
        *self.open.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }

    /// Whether the gate is currently open.
    pub fn is_open(&self) -> bool {
        *self.open.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Park until the gate opens or `timeout` passes; `true` iff open.
    pub fn wait_open(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut open = self.open.lock().unwrap_or_else(|e| e.into_inner());
        while !*open {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) =
                self.cv.wait_timeout(open, deadline - now).unwrap_or_else(|e| e.into_inner());
            open = guard;
        }
        true
    }
}

impl Default for RequestGate {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for RequestGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestGate").field("open", &self.is_open()).finish()
    }
}

/// What travels the gateway FIFO: work, or a shutdown pill. `stop()`
/// enqueues exactly one `Stop` per worker, so every worker — including one
/// parked in a blocking `recv` — wakes immediately, with none of the old
/// 20 ms stop-flag poll latency.
enum Msg {
    Job(Job),
    Stop,
}

/// How a site answers initial-state requests.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Worker threads draining the request FIFO. `0` means auto:
    /// `min(4, available cores)`.
    pub workers: usize,
    /// How stale a served snapshot may be: `Some(policy)` serves the
    /// site's one full slot while its entry is fresh under `policy`;
    /// `None` captures fresh for every request (and refreshes the slot).
    pub cache: Option<SnapshotCachePolicy>,
    /// Per-request service time beyond the in-memory snapshot — models
    /// marshalling and pushing the initial view over a client link (zero
    /// for pure functional tests). This is what makes request storms
    /// *load*.
    pub service_pad: Duration,
    /// Admission gate shared with the cluster's failover machinery; `None`
    /// serves unconditionally. When the gate is closed, workers park each
    /// dequeued request up to [`gate_wait`](GatewayConfig::gate_wait)
    /// before failing it with [`RequestError::Unavailable`].
    pub gate: Option<Arc<RequestGate>>,
    /// Longest a worker parks a request on a closed gate.
    pub gate_wait: Duration,
    /// Content-partitioned serving: this gateway's own group plus the
    /// cluster's shared [`PartitionTable`]. Keyed requests for flights
    /// another group owns fail fast with
    /// [`RequestError::WrongPartition`] naming the owner, instead of
    /// serving a snapshot that silently lacks the flight. `None` (the
    /// unpartitioned default) serves every request.
    pub partition: Option<(GroupId, Arc<PartitionTable>)>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            cache: Some(SnapshotCachePolicy::default()),
            service_pad: Duration::ZERO,
            gate: None,
            gate_wait: Duration::from_secs(1),
            partition: None,
        }
    }
}

impl GatewayConfig {
    /// Resolve `workers == 0` to the auto default.
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 4)
    }
}

/// Client-side handle: submit initial-state requests to a site's gateway.
#[derive(Clone)]
pub struct RequestClient {
    tx: Sender<Msg>,
    pending_gauge: Arc<AtomicU64>,
    stopped: Arc<AtomicBool>,
}

/// Why a gateway request failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The gateway has shut down.
    Closed,
    /// No response within the deadline.
    Timeout,
    /// The serving site is mid-takeover and the admission gate stayed
    /// closed past [`GatewayConfig::gate_wait`] — retry once failover
    /// completes.
    Unavailable,
    /// The requested flight lives in a different partition group — retry
    /// against a site of `owner_group`. The typed refusal replaces the
    /// old silent failure mode (an empty-of-that-flight snapshot) and is
    /// what the ois balancer's re-route learns from.
    WrongPartition {
        /// The group that owns the requested flight under the serving
        /// gateway's current partition map.
        owner_group: GroupId,
    },
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Closed => write!(f, "gateway closed"),
            RequestError::Timeout => write!(f, "request timed out"),
            RequestError::Unavailable => write!(f, "site unavailable during takeover"),
            RequestError::WrongPartition { owner_group } => {
                write!(f, "flight owned by partition group {owner_group}")
            }
        }
    }
}
impl std::error::Error for RequestError {}

impl RequestClient {
    /// Enqueue one job, bumping the pending gauge first so the occupancy
    /// a monitor observes always covers every submitted-but-unanswered
    /// request (the worker decrements after replying).
    fn submit(
        &self,
        key: Option<FlightId>,
    ) -> Result<Receiver<Result<ServedSnapshot, RequestError>>, RequestError> {
        if self.stopped.load(Ordering::Acquire) {
            return Err(RequestError::Closed);
        }
        let (reply_tx, reply_rx) = channel::bounded(1);
        self.pending_gauge.fetch_add(1, Ordering::Relaxed);
        if self.tx.send(Msg::Job(Job { reply: reply_tx, submitted: Instant::now(), key })).is_err()
        {
            self.pending_gauge.fetch_sub(1, Ordering::Relaxed);
            return Err(RequestError::Closed);
        }
        Ok(reply_rx)
    }

    /// Submit a request and wait for the snapshot (with a deadline).
    pub fn fetch(&self, timeout: Duration) -> Result<ServedSnapshot, RequestError> {
        let reply_rx = self.submit(None)?;
        reply_rx.recv_timeout(timeout).map_err(|_| RequestError::Timeout)?
    }

    /// Submit a request keyed by the flight the client is after. On a
    /// partitioned gateway this is ownership-checked: a flight another
    /// group owns fails with [`RequestError::WrongPartition`] instead of
    /// a snapshot that doesn't contain it.
    pub fn fetch_flight(
        &self,
        flight: FlightId,
        timeout: Duration,
    ) -> Result<ServedSnapshot, RequestError> {
        let reply_rx = self.submit(Some(flight))?;
        reply_rx.recv_timeout(timeout).map_err(|_| RequestError::Timeout)?
    }

    /// Fire a request without waiting (load-generation helper); the reply
    /// is discarded when the returned receiver is dropped.
    pub fn fire(&self) -> Result<Receiver<Result<ServedSnapshot, RequestError>>, RequestError> {
        self.submit(None)
    }
}

/// The serving side of a gateway, owned by the site wrapper.
pub struct RequestGateway {
    client: RequestClient,
    /// The FIFO the pool drains: one receiver, shared — a worker holds the
    /// lock only across the (instant) dequeue, never across a serve.
    jobs_rx: Arc<Mutex<Receiver<Msg>>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl RequestGateway {
    /// Spawn the gateway worker pool, serving from the site's `sync`
    /// under `config.cache`. Slot hits, misses, served counts and request
    /// latency land in `counters`; queue occupancy in `pending_gauge`.
    pub(crate) fn spawn(
        sync: Arc<StateSync>,
        pending_gauge: Arc<AtomicU64>,
        counters: Arc<SiteCounters>,
        config: GatewayConfig,
    ) -> Self {
        let (tx, rx) = channel::unbounded::<Msg>();
        let rx = Arc::new(Mutex::new(rx));
        let stopped = Arc::new(AtomicBool::new(false));

        let mut threads = Vec::new();
        for w in 0..config.resolved_workers() {
            let rx = Arc::clone(&rx);
            let stopped = Arc::clone(&stopped);
            let sync = Arc::clone(&sync);
            let cache = config.cache;
            let pending_gauge = Arc::clone(&pending_gauge);
            let counters = Arc::clone(&counters);
            let service_pad = config.service_pad;
            let gate = config.gate.clone();
            let gate_wait = config.gate_wait;
            let partition = config.partition.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("request-gateway-{w}"))
                    .spawn(move || loop {
                        // Blocking dequeue under the receiver lock: the
                        // lock spans only the dequeue itself (at most one
                        // worker parks in recv; the rest park on the
                        // mutex), never a serve.
                        let msg = rx.lock().recv();
                        let job = match msg {
                            Ok(Msg::Job(job)) => job,
                            Ok(Msg::Stop) | Err(_) => break,
                        };
                        if stopped.load(Ordering::Acquire) {
                            // Shutting down: discard instead of serving so
                            // stop() is bounded by one in-flight job, not
                            // the whole backlog. Dropping the reply sender
                            // surfaces as an error at the caller.
                            pending_gauge.fetch_sub(1, Ordering::Relaxed);
                            continue;
                        }
                        if let Some(gate) = &gate {
                            // Takeover in progress: park (bounded) rather
                            // than serve state about to be superseded.
                            if !gate.wait_open(gate_wait) {
                                let _ = job.reply.send(Err(RequestError::Unavailable));
                                pending_gauge.fetch_sub(1, Ordering::Relaxed);
                                continue;
                            }
                        }
                        if let (Some((own_group, table)), Some(flight)) = (&partition, job.key) {
                            // Ownership check against the shared table
                            // (not a per-gateway copy): a slot migration
                            // redirects every gateway the instant the new
                            // map installs.
                            let owner = table.group_of(flight);
                            if owner != *own_group {
                                counters.wrong_partition.fetch_add(1, Ordering::Relaxed);
                                let _ = job
                                    .reply
                                    .send(Err(RequestError::WrongPartition { owner_group: owner }));
                                pending_gauge.fetch_sub(1, Ordering::Relaxed);
                                continue;
                            }
                        }
                        let (served, hit) = match cache {
                            Some(policy) => sync.full_within(policy),
                            None => (sync.capture_now(), false),
                        };
                        if hit {
                            counters.snapshot_cache_hits.fetch_add(1, Ordering::Relaxed);
                        } else {
                            counters.snapshot_cache_misses.fetch_add(1, Ordering::Relaxed);
                        }
                        if !service_pad.is_zero() {
                            std::thread::sleep(service_pad);
                        }
                        let latency = job.submitted.elapsed().as_micros() as u64;
                        counters.request_latency_sum_us.fetch_add(latency, Ordering::Relaxed);
                        // Count before replying: a caller woken by the
                        // reply must already observe its own completion.
                        counters.requests_served.fetch_add(1, Ordering::Relaxed);
                        let _ = job.reply.send(Ok(served));
                        pending_gauge.fetch_sub(1, Ordering::Relaxed);
                    })
                    .expect("spawn request gateway worker"),
            );
        }
        RequestGateway {
            client: RequestClient { tx, pending_gauge, stopped },
            jobs_rx: rx,
            threads,
        }
    }

    /// A client handle for this gateway (cheap to clone).
    pub fn client(&self) -> RequestClient {
        self.client.clone()
    }

    /// Stop the gateway: new submissions see [`RequestError::Closed`],
    /// workers finish their in-flight job and exit on the next dequeue
    /// (pill-based wakeup — no poll latency), and jobs still queued are
    /// discarded with their gauge contributions released (their `fetch`
    /// callers see an error).
    pub fn stop(mut self) {
        self.client.stopped.store(true, Ordering::Release);
        // One pill per worker: each consumes exactly one and exits; a
        // worker parked in recv wakes on the first pill to reach it.
        for _ in 0..self.threads.len() {
            let _ = self.client.tx.send(Msg::Stop);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Release the gauge slots of jobs nobody will answer (queued after
        // the pills, or racing the stop flag).
        let rx = self.jobs_rx.lock();
        while let Ok(msg) = rx.try_recv() {
            if matches!(msg, Msg::Job(_)) {
                self.client.pending_gauge.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::{Event, PositionFix};
    use mirror_core::timestamp::VectorTimestamp;
    use mirror_ede::{OperationalState, Snapshot};
    use parking_lot::Mutex;

    fn fix() -> PositionFix {
        PositionFix { lat: 1.0, lon: 2.0, alt_ft: 30000.0, speed_kts: 450.0, heading_deg: 10.0 }
    }

    /// A site's provider, reduced to a full capture and its epoch gauge.
    fn sync_over(
        live_epoch: Arc<AtomicU64>,
        capture: impl Fn() -> (Snapshot, u64) + Send + Sync + 'static,
    ) -> Arc<StateSync> {
        let site_policy = SnapshotCachePolicy::default();
        Arc::new(StateSync::new(site_policy, live_epoch, capture, |_| None, || 0))
    }

    fn empty_capture() -> (Snapshot, u64) {
        (Snapshot::capture(&OperationalState::new(), VectorTimestamp::empty()), 0)
    }

    fn spawn_empty(config: GatewayConfig) -> (RequestGateway, Arc<AtomicU64>, Arc<SiteCounters>) {
        let pending = Arc::new(AtomicU64::new(0));
        let counters = Arc::new(SiteCounters::default());
        let gw = RequestGateway::spawn(
            sync_over(Arc::new(AtomicU64::new(0)), empty_capture),
            Arc::clone(&pending),
            Arc::clone(&counters),
            config,
        );
        (gw, pending, counters)
    }

    #[test]
    fn serves_requests_and_counts() {
        let (gw, _pending, counters) = spawn_empty(GatewayConfig::default());
        let client = gw.client();
        for _ in 0..20 {
            let snap = client.fetch(Duration::from_secs(5)).unwrap();
            assert_eq!(snap.flight_count(), 0);
        }
        assert_eq!(counters.requests_served.load(Ordering::Relaxed), 20);
        let hits = counters.snapshot_cache_hits.load(Ordering::Relaxed);
        let misses = counters.snapshot_cache_misses.load(Ordering::Relaxed);
        assert_eq!(hits + misses, 20);
        drop(client);
        gw.stop();
    }

    #[test]
    fn backlog_raises_the_pending_gauge() {
        let pending = Arc::new(AtomicU64::new(0));
        let counters = Arc::new(SiteCounters::default());
        // Gate each capture on a permit: the backlog is held open for as
        // long as the test needs to observe it, whatever the scheduler
        // does to this thread meanwhile. Cache disabled so every request
        // goes through the gated capture.
        let (permit_tx, permit_rx) = channel::unbounded::<()>();
        let permit_rx = Mutex::new(permit_rx);
        let gw = RequestGateway::spawn(
            sync_over(Arc::new(AtomicU64::new(0)), move || {
                let _ = permit_rx.lock().recv_timeout(Duration::from_secs(10));
                empty_capture()
            }),
            Arc::clone(&pending),
            Arc::clone(&counters),
            GatewayConfig {
                workers: 2,
                cache: None,
                service_pad: Duration::ZERO,
                ..GatewayConfig::default()
            },
        );
        let client = gw.client();
        let mut receivers = Vec::new();
        for _ in 0..30 {
            receivers.push(client.fire().unwrap());
        }
        // Submissions increment the gauge immediately: the full backlog is
        // visible before any serve completes.
        assert_eq!(pending.load(Ordering::Relaxed), 30);
        for _ in 0..30 {
            permit_tx.send(()).unwrap();
        }
        for r in receivers {
            assert!(r.recv_timeout(Duration::from_secs(10)).is_ok());
        }
        assert_eq!(counters.requests_served.load(Ordering::Relaxed), 30);
        // The decrement trails the reply; give a loaded scheduler room.
        let drained = Instant::now() + Duration::from_secs(10);
        while pending.load(Ordering::Relaxed) != 0 && Instant::now() < drained {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pending.load(Ordering::Relaxed), 0);
        drop(client);
        gw.stop();
    }

    #[test]
    fn closed_gateway_reports_errors() {
        let (gw, pending, _) = spawn_empty(GatewayConfig::default());
        let client = gw.client();
        gw.stop();
        assert!(matches!(client.fetch(Duration::from_millis(100)), Err(RequestError::Closed)));
        assert_eq!(pending.load(Ordering::Relaxed), 0, "rejected submits leave no gauge residue");
    }

    #[test]
    fn stop_releases_gauge_slots_of_unanswered_jobs() {
        let pending = Arc::new(AtomicU64::new(0));
        let counters = Arc::new(SiteCounters::default());
        // A capture that blocks until stop: jobs pile up behind it.
        let (permit_tx, permit_rx) = channel::unbounded::<()>();
        let permit_rx = Mutex::new(permit_rx);
        let gw = RequestGateway::spawn(
            sync_over(Arc::new(AtomicU64::new(0)), move || {
                let _ = permit_rx.lock().recv_timeout(Duration::from_secs(10));
                empty_capture()
            }),
            Arc::clone(&pending),
            Arc::clone(&counters),
            GatewayConfig {
                workers: 1,
                cache: None,
                service_pad: Duration::ZERO,
                ..GatewayConfig::default()
            },
        );
        let client = gw.client();
        let mut receivers = Vec::new();
        for _ in 0..10 {
            receivers.push(client.fire().unwrap());
        }
        assert_eq!(pending.load(Ordering::Relaxed), 10);
        permit_tx.send(()).unwrap(); // let the in-flight job finish
        gw.stop();
        assert_eq!(
            pending.load(Ordering::Relaxed),
            0,
            "stop must release abandoned jobs' gauge slots"
        );
    }

    #[test]
    fn worker_pool_parallelizes_service_pads() {
        // 8 concurrent requests with a 50 ms pad: 4 workers need ~2 pad
        // rounds of wall clock; a single worker would need 8. The pad is a
        // sleep, so this holds even on a single-core host.
        let (gw, _pending, counters) = spawn_empty(GatewayConfig {
            workers: 4,
            cache: Some(SnapshotCachePolicy::default()),
            service_pad: Duration::from_millis(50),
            ..GatewayConfig::default()
        });
        let client = gw.client();
        let t0 = Instant::now();
        let receivers: Vec<_> = (0..8).map(|_| client.fire().unwrap()).collect();
        for r in receivers {
            assert!(r.recv_timeout(Duration::from_secs(10)).is_ok());
        }
        let wall = t0.elapsed();
        assert_eq!(counters.requests_served.load(Ordering::Relaxed), 8);
        assert!(
            wall < Duration::from_millis(8 * 50 - 100),
            "8 padded requests must overlap across the pool, took {wall:?}"
        );
        drop(client);
        gw.stop();
    }

    #[test]
    fn keyed_requests_refuse_foreign_partitions() {
        let table = Arc::new(PartitionTable::new(PartitionMap::uniform(2)));
        let (gw, pending, counters) = spawn_empty(GatewayConfig {
            partition: Some((0, Arc::clone(&table))),
            ..GatewayConfig::default()
        });
        let client = gw.client();
        // Find one flight per group under the uniform map.
        let mine = (0..).find(|&f| table.group_of(f) == 0).unwrap();
        let theirs = (0..).find(|&f| table.group_of(f) == 1).unwrap();
        assert!(client.fetch_flight(mine, Duration::from_secs(5)).is_ok());
        assert!(matches!(
            client.fetch_flight(theirs, Duration::from_secs(5)),
            Err(RequestError::WrongPartition { owner_group: 1 })
        ));
        // Unkeyed fetches serve unconditionally (whole-state recovery).
        assert!(client.fetch(Duration::from_secs(5)).is_ok());
        assert_eq!(counters.wrong_partition.load(Ordering::Relaxed), 1);
        // A newer map claiming the flight for group 0 flips the verdict.
        let mut remap = table.snapshot();
        remap.assign(PartitionMap::slot_of(theirs), 0);
        assert!(table.install(remap.clone()));
        assert!(!table.install(remap), "stale re-install must be fenced");
        assert!(client.fetch_flight(theirs, Duration::from_secs(5)).is_ok());
        // The gauge decrement trails the reply; give the worker room.
        let drained = Instant::now() + Duration::from_secs(10);
        while pending.load(Ordering::Relaxed) != 0 && Instant::now() < drained {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pending.load(Ordering::Relaxed), 0);
        drop(client);
        gw.stop();
    }

    #[test]
    fn storm_against_live_state_shares_captures() {
        // A mutating state served under the default policy: far fewer
        // captures (misses) than requests, and every served snapshot is a
        // valid state (capture and epoch read under the same lock).
        let state = Arc::new(Mutex::new(OperationalState::new()));
        let live_epoch = Arc::new(AtomicU64::new(0));
        let pending = Arc::new(AtomicU64::new(0));
        let counters = Arc::new(SiteCounters::default());
        let cap_state = Arc::clone(&state);
        let gw = RequestGateway::spawn(
            sync_over(Arc::clone(&live_epoch), move || {
                let s = cap_state.lock();
                (Snapshot::capture(&s, VectorTimestamp::empty()), s.epoch())
            }),
            Arc::clone(&pending),
            Arc::clone(&counters),
            GatewayConfig {
                workers: 2,
                cache: Some(SnapshotCachePolicy {
                    max_stale_events: 1_000,
                    max_stale: Duration::from_secs(10),
                }),
                service_pad: Duration::ZERO,
                ..GatewayConfig::default()
            },
        );
        // Feed some state, then fire a burst.
        for f in 0..50u32 {
            let mut s = state.lock();
            s.apply(&Event::faa_position(1, f, fix()));
            live_epoch.store(s.epoch(), Ordering::Release);
        }
        let client = gw.client();
        for _ in 0..100 {
            let snap = client.fetch(Duration::from_secs(10)).unwrap();
            assert_eq!(snap.flight_count(), 50);
        }
        let hits = counters.snapshot_cache_hits.load(Ordering::Relaxed);
        let misses = counters.snapshot_cache_misses.load(Ordering::Relaxed);
        assert_eq!(hits + misses, 100);
        assert!(misses <= 2, "burst against a quiet state must share captures, {misses} misses");
        drop(client);
        gw.stop();
    }
}
