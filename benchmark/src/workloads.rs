//! The six workloads.
//!
//! One process, two generator threads: the *driver* (the calling thread)
//! replays a pre-generated, seeded schedule into the cluster's public
//! front doors; the *observer* drains update subscriptions, edge clients
//! and request replies and timestamps what it sees with the cluster's own
//! clock. Open-loop events carry their due time as ingress stamp, so every
//! delay is measured from when the event was *due*, and how late the
//! generator ran is reported beside it.

use std::collections::{BTreeMap, VecDeque};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mirror_core::api::{MirrorConfig, MirrorHandle};
use mirror_core::event::{Event, EventBody};
use mirror_core::metrics::AuxCounters;
use mirror_core::mirrorfn::MirrorFnKind;
use mirror_echo::resilient::{LinkMonitor, ResilientTransport, RetryPolicy};
use mirror_echo::transport::TcpTransport;
use mirror_echo::wire::decode_snapshot;
use mirror_echo::{Subscriber, SubscriptionFilter, Transport};
use mirror_ede::OperationalState;
use mirror_edge::{views_equivalent, Delivery, EdgeClient, EdgeConfig, EdgeServer};
use mirror_runtime::bridge::{
    central_endpoint_with, mirror_endpoint_with, BatchPolicy, BridgeHandle,
};
use mirror_runtime::{
    Cluster, ClusterConfig, DurabilityConfig, FailoverEvent, FailoverPolicy, MirrorSite,
    RequestClient, RequestError, RequestGateway, RuntimeClock, ServedSnapshot,
};
use mirror_store::FsyncPolicy;
use mirror_workload::requests::Request;
use mirror_workload::RequestPattern;

use crate::harness::{
    peak_rss_mb, process_cpu_us, restart_peak_rss, sleep_until_us, wait_until, WorkDir,
};
use crate::inputs::{self, Inputs};
use crate::stats::{median, windowed_medians, Summary};
use crate::trace::{self, EventTimes, Span};

// ---------------------------------------------------------------------
// Names, specs
// ---------------------------------------------------------------------

/// The six workloads. Names are normative: `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop at ≈10 % of saturation with an edge tier: latency regime.
    SteadyStream,
    /// Closed loop, simple mirroring: hot-path regime.
    SaturationSimple,
    /// Closed loop, selective mirroring (1 in 10 position fixes).
    SaturationSelective,
    /// The paper's Case 1: an update stream beside a request storm.
    RecoveryStorm,
    /// Closed loop through the journal and a TCP-bridged mirror.
    BridgedDurable,
    /// Central crash, detection, promotion: time without service.
    CentralFailover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 6] = [
        Workload::SteadyStream,
        Workload::SaturationSimple,
        Workload::SaturationSelective,
        Workload::RecoveryStorm,
        Workload::BridgedDurable,
        Workload::CentralFailover,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyStream => "steady_stream",
            Workload::SaturationSimple => "saturation_simple",
            Workload::SaturationSelective => "saturation_selective",
            Workload::RecoveryStorm => "recovery_storm",
            Workload::BridgedDurable => "bridged_durable",
            Workload::CentralFailover => "central_failover",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn spec(self, smoke: bool) -> Spec {
        // Smoke runs shrink populations and rates so that all six finish
        // in a few seconds with every correctness check still on.
        let s = |full: u32, small: u32| if smoke { small } else { full };
        let base = Spec {
            mirrors: 2,
            kind: MirrorFnKind::Simple,
            flights: s(500, 50),
            event_size: 128,
            load: Load::Closed { lap_events: u64::from(s(250_000, 5_000)), window: 4096 },
            delta_stream: false,
            edge: None,
            requests: None,
            durable: false,
            bridged: false,
            warm_s: if smoke { 0.2 } else { 1.0 },
            slices: if smoke { 1 } else { 3 },
        };
        match self {
            Workload::SteadyStream => Spec {
                event_size: 256,
                load: Load::Open { rate: f64::from(s(20_000, 4_000)) },
                delta_stream: true,
                edge: Some(EdgeLoad {
                    all: s(8, 2) as usize,
                    subsets: s(56, 6) as usize,
                    subset_flights: 4,
                }),
                ..base
            },
            Workload::SaturationSimple => base,
            Workload::SaturationSelective => {
                Spec { kind: MirrorFnKind::Selective { overwrite: 10 }, ..base }
            }
            Workload::RecoveryStorm => Spec {
                flights: s(2_000, 100),
                load: Load::Open { rate: f64::from(s(10_000, 2_000)) },
                requests: Some(RequestPattern::Bursty {
                    base: f64::from(s(500, 100)),
                    peak: f64::from(s(20_000, 2_000)),
                    burst_us: 100_000,
                    period_us: if smoke { 300_000 } else { 1_000_000 },
                }),
                ..base
            },
            Workload::BridgedDurable => Spec {
                mirrors: 0,
                event_size: 512,
                // Sized for a lap of about a second at the bridged path's
                // present rate (≈ 8 000 events/s: see README, findings).
                load: Load::Closed { lap_events: u64::from(s(8_000, 2_000)), window: 4096 },
                durable: true,
                bridged: true,
                ..base
            },
            Workload::CentralFailover => Spec {
                load: Load::Open { rate: f64::from(s(2_000, 1_000)) },
                durable: true,
                warm_s: if smoke { 0.2 } else { 0.5 },
                ..base
            },
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Load {
    /// Events are submitted on a schedule whatever the cluster does.
    Open { rate: f64 },
    /// At most `window` events in flight; a lap replays the pool once.
    Closed { lap_events: u64, window: u64 },
}

#[derive(Debug, Clone, Copy)]
struct EdgeLoad {
    /// Subscribers to every flight.
    all: usize,
    /// Subscribers to a few flights each.
    subsets: usize,
    /// Flights per subset subscriber.
    subset_flights: u32,
}

#[derive(Debug, Clone, Copy)]
struct Spec {
    mirrors: u16,
    kind: MirrorFnKind,
    flights: u32,
    event_size: usize,
    load: Load,
    delta_stream: bool,
    edge: Option<EdgeLoad>,
    requests: Option<RequestPattern>,
    durable: bool,
    bridged: bool,
    warm_s: f64,
    /// Slices per run: fresh clusters the window is divided over;
    /// `setup_s` is the median of their set-ups.
    slices: usize,
}

/// How one run is parameterised from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Record spans (second half of a window split in two).
    pub traced: bool,
    /// Shrunk populations and rates.
    pub smoke: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, e.g. `update_delay_p99_us` or `core.aux.received`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `us`, `1/s`, `count`.
    pub unit: &'static str,
}

/// What a run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness checks, by name.
    pub checks: Vec<(&'static str, bool)>,
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed: events not applied everywhere by the
    /// deadline, failed or timed-out requests, subscriber gaps, committed
    /// events lost.
    pub failed: u64,
    /// Every metric the run measured.
    pub metrics: Vec<Metric>,
    /// Spans of the traced window (empty when untraced).
    pub spans: Vec<Span>,
    /// Hash of the generated inputs.
    pub schedule_hash: u64,
}

impl Outcome {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// A metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Did every correctness check hold?
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

// ---------------------------------------------------------------------
// Progress visible to the watchdog
// ---------------------------------------------------------------------

/// Operations started and finished so far, and the cluster in use — what
/// the watchdog needs when it has to end a hung run from another thread.
pub struct Progress {
    /// Operations handed to the cluster.
    pub attempted: AtomicU64,
    /// Operations known complete.
    pub completed: AtomicU64,
    cluster: Mutex<Option<Arc<Cluster>>>,
}

/// The process-wide progress record.
pub static PROGRESS: Progress = Progress {
    attempted: AtomicU64::new(0),
    completed: AtomicU64::new(0),
    cluster: Mutex::new(None),
};

impl Progress {
    /// Print per-site `processed`, `inbox_depth` and dispatch-ring stats of
    /// the cluster currently in use to stderr.
    pub fn dump_sites(&self) {
        let guard = self.cluster.lock().unwrap_or_else(|e| e.into_inner());
        match guard.as_ref() {
            Some(cluster) => dump_sites(cluster),
            None => eprintln!("  (no cluster running)"),
        }
    }
}

fn dump_sites(cluster: &Cluster) {
    {
        let c = cluster.central();
        eprintln!(
            "  site 0 (central): processed={} inbox_depth={} dispatch_ring={:?}",
            c.processed(),
            c.inbox_depth(),
            c.dispatch_ring_stats()
        );
    }
    for id in cluster.mirror_ids() {
        if let Some(m) = cluster.try_mirror(id) {
            eprintln!(
                "  site {id} (mirror): processed={} inbox_depth={} dispatch_ring={:?}",
                m.processed(),
                m.inbox_depth(),
                m.dispatch_ring_stats()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Stage: a cluster with everything a workload attaches to it
// ---------------------------------------------------------------------

struct Bridged {
    site: MirrorSite,
    central_bridge: BridgeHandle,
    mirror_bridge: BridgeHandle,
    stops: Vec<Arc<AtomicBool>>,
    monitor: Arc<LinkMonitor>,
}

struct Stage {
    cluster: Arc<Cluster>,
    bridged: Option<Bridged>,
    edge: Option<Arc<EdgeServer>>,
    gateways: Vec<RequestGateway>,
    work: Option<WorkDir>,
    /// Events submitted so far (preload included): the figure every
    /// site's `processed` counter is compared with. Written by the driver,
    /// read by both generator threads.
    submitted: AtomicU64,
    selective: bool,
}

/// A loopback TCP listener turned into a reconnect-capable acceptor: each
/// attempt polls `accept` for at most 20 ms, so a resilient engine waiting
/// for its peer still notices its stop flag.
fn tcp_acceptor(listener: TcpListener) -> impl FnMut() -> std::io::Result<Box<dyn Transport>> {
    listener.set_nonblocking(true).expect("nonblocking listener");
    move || {
        let give_up = Instant::now() + Duration::from_millis(20);
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(Box::new(TcpTransport::from_stream(stream)?) as Box<dyn Transport>);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= give_up {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Stage {
    /// Start the cluster `spec` describes, attach its front doors, and
    /// preload its flights.
    fn build(spec: &Spec, failover: bool) -> Stage {
        let work = spec.durable.then(|| WorkDir::new("journal"));
        let cluster = Arc::new(Cluster::start(ClusterConfig {
            mirrors: spec.mirrors,
            kind: spec.kind,
            durability: work.as_ref().map(|w| DurabilityConfig {
                fsync: FsyncPolicy::EveryN(64),
                ..DurabilityConfig::new(w.path())
            }),
            failover: failover.then(FailoverPolicy::default),
            ..Default::default()
        }));
        *PROGRESS.cluster.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&cluster));

        let bridged = spec.bridged.then(|| Self::attach_bridged_mirror(&cluster, spec.kind));
        let edge = spec.edge.map(|_| {
            // All subscribers are polled by the one observer thread, which
            // on a two-vCPU guest can be off the CPU for hundreds of
            // milliseconds. The default 64-frame queue (3 ms of this
            // stream) would read that as 65 slow clients and conflate or
            // disconnect them; the slow-client policy is not what this
            // workload measures, so the queue is deep enough that a stall
            // of the harness shows as delivery delay, never as a gap.
            let cfg = EdgeConfig { queue_cap: 1 << 20, ..EdgeConfig::default() };
            cluster.serve_edge(1, cfg).expect("mirror 1 is attached")
        });
        let mut gateways = Vec::new();
        if spec.requests.is_some() {
            gateways.push(cluster.central().serve_requests(Duration::ZERO));
            for id in cluster.mirror_ids() {
                gateways.push(cluster.mirror(id).serve_requests(Duration::ZERO));
            }
        }

        let stage = Stage {
            cluster,
            bridged,
            edge,
            gateways,
            work,
            submitted: AtomicU64::new(0),
            selective: matches!(spec.kind, MirrorFnKind::Selective { .. }),
        };
        for e in inputs::preload_events(spec.flights, spec.event_size) {
            stage.submit(e);
        }
        let ok =
            wait_until(Instant::now() + Duration::from_secs(20), Duration::from_millis(1), || {
                stage.lag() == 0
            });
        assert!(ok, "preload of {} flights was not applied within 20 s", spec.flights);
        stage
    }

    /// Admit one mirror over the bridge: a full `MirrorSite` behind two
    /// loopback TCP connections (downlink, uplink), each wrapped in the
    /// resilient layer, with the default batching policy.
    fn attach_bridged_mirror(cluster: &Cluster, kind: MirrorFnKind) -> Bridged {
        let site_id = cluster.admit_bridged_mirror().expect("admit bridged mirror");
        let down_listener = TcpListener::bind("127.0.0.1:0").expect("bind downlink");
        let up_listener = TcpListener::bind("127.0.0.1:0").expect("bind uplink");
        let down_addr = down_listener.local_addr().expect("downlink address");
        let up_addr = up_listener.local_addr().expect("uplink address");
        let dial =
            |addr| move || TcpTransport::connect(addr).map(|t| Box::new(t) as Box<dyn Transport>);
        let policy = RetryPolicy::fast(1_000);
        let down_tx = ResilientTransport::new(dial(down_addr), policy.clone(), "central.down");
        let down_rx =
            ResilientTransport::new(tcp_acceptor(down_listener), policy.clone(), "mirror.down");
        let up_tx = ResilientTransport::new(dial(up_addr), policy.clone(), "mirror.up");
        let up_rx = ResilientTransport::new(tcp_acceptor(up_listener), policy, "central.up");
        let monitor = down_tx.monitor();
        cluster.attach_link_monitor(site_id, Arc::clone(&monitor));
        let stops = vec![
            down_tx.stop_handle(),
            down_rx.stop_handle(),
            up_tx.stop_handle(),
            up_rx.stop_handle(),
        ];
        let (data, ctrl_down, ctrl_up) = cluster.channels();
        let central_bridge = central_endpoint_with(
            data,
            ctrl_down,
            ctrl_up.publisher(),
            Box::new(down_tx),
            Box::new(up_rx),
            BatchPolicy::default(),
        );
        let clock = cluster.clock().clone();
        let (site, mirror_bridge) = mirror_endpoint_with(
            Box::new(down_rx),
            Box::new(up_tx),
            BatchPolicy::default(),
            |data, ctrl_down, ctrl_up| {
                let mut aux = MirrorConfig::default().build_mirror(site_id);
                aux.install_kind(kind);
                MirrorSite::start(
                    MirrorHandle::new(aux),
                    clock,
                    data,
                    ctrl_down,
                    ctrl_up.publisher(),
                )
            },
        );
        Bridged { site, central_bridge, mirror_bridge, stops, monitor }
    }

    /// Submit one event to the central site and count it.
    fn submit(&self, event: Event) {
        self.cluster.submit(event);
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// `processed` of every mirror, in-process ones first.
    fn mirrors_processed(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .cluster
            .mirror_ids()
            .into_iter()
            .filter_map(|id| self.cluster.try_mirror(id).map(|m| m.processed()))
            .collect();
        if let Some(b) = &self.bridged {
            out.push(b.site.processed());
        }
        out
    }

    /// Events in flight: `submitted − min(processed over all sites)`. Under
    /// selective mirroring a mirror is owed only what the central chose to
    /// mirror, so its lag is `central mirrored − its processed`.
    fn lag(&self) -> u64 {
        let (central_processed, mirrored) = {
            let c = self.cluster.central();
            (c.processed(), c.counters().mirrored.load(Ordering::Relaxed))
        };
        let submitted = self.submitted();
        let owed = if self.selective { mirrored } else { submitted };
        let mut lag = submitted.saturating_sub(central_processed);
        for p in self.mirrors_processed() {
            lag = lag.max(owed.saturating_sub(p));
        }
        lag
    }

    /// Largest ingest backlog over all sites.
    fn inbox_depth(&self) -> usize {
        let mut depth = self.cluster.central().inbox_depth();
        for id in self.cluster.mirror_ids() {
            if let Some(m) = self.cluster.try_mirror(id) {
                depth = depth.max(m.inbox_depth());
            }
        }
        if let Some(b) = &self.bridged {
            depth = depth.max(b.site.inbox_depth());
        }
        depth
    }

    /// State hash of every site: central, in-process mirrors, bridged.
    fn state_hashes(&self) -> Vec<u64> {
        let mut h = self.cluster.state_hashes();
        if let Some(b) = &self.bridged {
            h.push(b.site.state_hash());
        }
        h
    }

    fn aux_counters(&self) -> AuxCounters {
        self.cluster.central().handle().with(|a| a.counters())
    }

    /// Stop everything and join every thread: bridges first, then the
    /// resilient engines' reconnect loops, then sites (the order the
    /// runtime's own chaos test uses).
    fn teardown(self) {
        let Stage { cluster, bridged, edge, gateways, work, .. } = self;
        for g in gateways {
            g.stop();
        }
        drop(edge);
        if let Some(b) = bridged {
            b.central_bridge.stop();
            b.mirror_bridge.stop();
            for s in &b.stops {
                s.store(true, Ordering::SeqCst);
            }
            b.central_bridge.join();
            b.mirror_bridge.join();
            let mut site = b.site;
            site.stop();
        }
        *PROGRESS.cluster.lock().unwrap_or_else(|e| e.into_inner()) = None;
        match Arc::try_unwrap(cluster) {
            Ok(c) => c.shutdown(),
            Err(_) => panic!("cluster still shared at teardown"),
        }
        drop(work);
    }
}

// ---------------------------------------------------------------------
// Observer
// ---------------------------------------------------------------------

/// What the driver tells the observer while both run.
struct Shared {
    /// The driver is done and everything it submitted has been applied.
    stop: AtomicBool,
    /// Cluster time from which samples count (`u64::MAX` = not yet).
    measure_from_us: AtomicU64,
    /// Cluster time from which sampled events are traced (`u64::MAX` = never).
    trace_from_us: AtomicU64,
}

impl Shared {
    fn new() -> Self {
        Shared {
            stop: AtomicBool::new(false),
            measure_from_us: AtomicU64::new(u64::MAX),
            trace_from_us: AtomicU64::new(u64::MAX),
        }
    }
}

type Reply = crossbeam::channel::Receiver<Result<ServedSnapshot, RequestError>>;

/// A fired request handed from the driver to the observer.
struct Fired {
    gateway: usize,
    id: u64,
    due_us: u64,
    fired_us: u64,
    reply: Reply,
}

/// Length of the windows a tail percentile is taken in.
const WINDOW_US: u64 = 1_000_000;

/// Latency samples (µs, kept as `u32`: half the memory of `f64`, and
/// memory is a reported metric) bucketed by window — a second of the
/// timed window, or a failover trial.
///
/// A tail percentile is taken *per window* and the median window is
/// reported. One scheduling hiccup of a few milliseconds delays a few
/// hundred events, which on a two-core box is enough to move a whole
/// run's p99 by a factor of two; it moves one window's p99 and leaves the
/// median window alone. The figure reads "the p99 of a typical second".
#[derive(Default)]
struct Windows {
    buckets: Vec<Vec<u32>>,
}

impl Windows {
    fn push(&mut self, window: u64, micros: u64) {
        let window = window as usize;
        if self.buckets.len() <= window {
            self.buckets.resize_with(window + 1, Vec::new);
        }
        self.buckets[window].push(micros.min(u64::from(u32::MAX)) as u32);
    }

    /// Add another run slice's windows after this one's.
    fn append(&mut self, other: Windows) {
        self.buckets.extend(other.buckets);
    }

    fn n(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    fn summary(samples: &[u32]) -> Summary {
        Summary::new(samples.iter().map(|&s| f64::from(s)).collect())
    }

    /// Windows that count: a trailing sliver (the window the run ended
    /// in) holds too few samples to take a tail from.
    fn full(&self) -> impl Iterator<Item = &Vec<u32>> {
        let sizes: Vec<f64> = self.buckets.iter().map(|b| b.len() as f64).collect();
        let typical = median(&sizes);
        self.buckets.iter().filter(move |b| !b.is_empty() && b.len() as f64 >= typical / 2.0)
    }

    /// Median over windows of the window's `wanted` percentile (or of the
    /// highest percentile its sample count supports); 0 when empty.
    fn tail(&self, wanted: f64) -> f64 {
        let tails: Vec<f64> = self.full().map(|b| Self::summary(b).tail(wanted)).collect();
        if tails.is_empty() {
            0.0
        } else {
            median(&tails)
        }
    }

    /// The percentile [`tail`](Self::tail) actually reports.
    fn tail_pct(&self, wanted: f64) -> f64 {
        self.full().map(|b| Self::summary(b).tail_pct(wanted)).fold(wanted, f64::min)
    }

    /// Median of all samples in windows `range` (0 when empty).
    fn p50_of(&self, range: std::ops::Range<usize>) -> f64 {
        let end = range.end.min(self.buckets.len());
        let all: Vec<u32> =
            self.buckets[range.start.min(end)..end].iter().flatten().copied().collect();
        if all.is_empty() {
            0.0
        } else {
            Self::summary(&all).p50()
        }
    }

    fn p50(&self) -> f64 {
        self.p50_of(0..self.buckets.len())
    }
}

#[derive(Default)]
struct Observed {
    /// Update delays, µs, by second of the timed window.
    update_delay: Windows,
    edge_delay: Windows,
    request_latency: Windows,
    requests_failed: u64,
    /// `(fire began, reply seen, Σ as_of)` per gateway, cluster-clock µs.
    reply_frontiers: Vec<Vec<(u64, u64, u64)>>,
    undecodable_replies: u64,
    edge_gaps: u64,
    edge_disconnects: u64,
    edge_queue_hwm: usize,
    checker_state: Option<OperationalState>,
    /// `(cluster time, deepest inbox)` every 10 ms.
    depth: Vec<(u64, f64)>,
    staleness_us: Vec<f64>,
    /// `(event id, where, cluster time)` for traced events.
    seen: Vec<((u16, u64), Seen, u64)>,
    spans: Vec<Span>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Central,
    Mirror,
    Edge,
}

struct EdgeSub {
    client: EdgeClient,
    /// The gap checker: must see a contiguous `pub_seq` stream.
    checker: bool,
    last_seq: u64,
    hung_up: bool,
}

struct Observer<'a> {
    stage: &'a Stage,
    shared: &'a Shared,
    clock: RuntimeClock,
    /// The central's update stream. Open loops consume it throughout (the
    /// paper's regular client); closed loops only while tracing: nothing
    /// consumes updates at saturation, and a consumer of 300 000–600 000
    /// updates a second on a two-core box is a load of its own.
    central: Option<Subscriber<Event>>,
    mirror: Option<Subscriber<Event>>,
    subs: Vec<EdgeSub>,
    fired: mpsc::Receiver<Fired>,
    pending: Vec<VecDeque<Fired>>,
    flights: u32,
    out: Observed,
}

/// Edge clients and request replies are polled this often, which is also
/// the resolution of `stage.edge_deliver` and of the request latencies.
const EDGE_SWEEP_US: u64 = 100;

/// Requests whose replies are still awaited are given this long after the
/// driver stops before they count as timed out.
const REPLY_GRACE: Duration = Duration::from_secs(2);

impl<'a> Observer<'a> {
    fn new(
        stage: &'a Stage,
        shared: &'a Shared,
        spec: &Spec,
        fired: mpsc::Receiver<Fired>,
    ) -> Self {
        let mut subs = Vec::new();
        if let (Some(edge), Some(load)) = (&stage.edge, spec.edge) {
            for i in 0..load.all {
                subs.push(EdgeSub {
                    client: edge.subscribe(1 + i as u64, SubscriptionFilter::All),
                    checker: false,
                    last_seq: 0,
                    hung_up: false,
                });
            }
            for i in 0..load.subsets {
                let first = (i as u32 * load.subset_flights) % spec.flights;
                let ids = (0..load.subset_flights).map(|k| (first + k) % spec.flights).collect();
                subs.push(EdgeSub {
                    client: edge.subscribe(1_000 + i as u64, SubscriptionFilter::Flights(ids)),
                    checker: false,
                    last_seq: 0,
                    hung_up: false,
                });
            }
            subs.push(EdgeSub {
                client: edge.subscribe(9_999, SubscriptionFilter::All),
                checker: true,
                last_seq: 0,
                hung_up: false,
            });
        }
        let gateways = stage.gateways.len();
        Observer {
            stage,
            shared,
            clock: stage.cluster.clock().clone(),
            central: matches!(spec.load, Load::Open { .. })
                .then(|| stage.cluster.subscribe_updates()),
            mirror: None,
            subs,
            fired,
            pending: (0..gateways).map(|_| VecDeque::new()).collect(),
            flights: spec.flights,
            out: Observed { reply_frontiers: vec![Vec::new(); gateways], ..Default::default() },
        }
    }

    /// Which second of the timed window `at_us` (≥ its start) falls in.
    fn second_of(&self, at_us: u64) -> u64 {
        (at_us - self.shared.measure_from_us.load(Ordering::Relaxed)) / WINDOW_US
    }

    fn tracing(&self, ingress_us: u64) -> bool {
        ingress_us >= self.shared.trace_from_us.load(Ordering::Relaxed)
    }

    fn on_update(&mut self, u: &Event, at: Seen) {
        let now = self.clock.now_us();
        if u.ingress_us < self.shared.measure_from_us.load(Ordering::Relaxed) {
            return;
        }
        let traced = self.tracing(u.ingress_us);
        if at == Seen::Central {
            let second = self.second_of(u.ingress_us);
            self.out.update_delay.push(second, now.saturating_sub(u.ingress_us));
        }
        // A derived event reuses its trigger's timing but has an id of its
        // own; only source events are traced.
        if traced && trace::sampled(u.seq) && !matches!(u.body, EventBody::Derived { .. }) {
            self.out.seen.push(((u.stream, u.seq), at, now));
        }
    }

    fn sweep_edge(&mut self) -> bool {
        let mut busy = false;
        for i in 0..self.subs.len() {
            if self.subs[i].hung_up {
                continue;
            }
            // Bounded per sweep so one busy subscriber cannot starve the
            // update subscription this thread also serves.
            for _ in 0..128 {
                let delivery = match self.subs[i].client.poll() {
                    Ok(Some(d)) => d,
                    Ok(None) => break,
                    Err(why) => {
                        // Counted once; a hung-up client is not polled again.
                        if !self.subs[i].hung_up {
                            eprintln!(
                                "edge subscriber {} hung up on: {why:?}",
                                self.subs[i].client.id()
                            );
                            self.subs[i].hung_up = true;
                            self.out.edge_disconnects += 1;
                        }
                        break;
                    }
                };
                busy = true;
                let now = self.clock.now_us();
                let sub = &mut self.subs[i];
                match &delivery {
                    Delivery::Event(e) => {
                        let ev = e.event();
                        if sub.checker {
                            if e.pub_seq() != sub.last_seq + 1 {
                                self.out.edge_gaps += 1;
                            }
                            if let Some(state) = &mut self.out.checker_state {
                                state.apply(ev);
                            }
                        }
                        sub.last_seq = e.pub_seq();
                        if ev.ingress_us >= self.shared.measure_from_us.load(Ordering::Relaxed) {
                            if e.pub_seq().is_multiple_of(16) {
                                let second = (ev.ingress_us
                                    - self.shared.measure_from_us.load(Ordering::Relaxed))
                                    / WINDOW_US;
                                self.out.edge_delay.push(second, now.saturating_sub(ev.ingress_us));
                            }
                            if self.tracing(ev.ingress_us)
                                && trace::sampled(ev.seq)
                                && !matches!(ev.body, EventBody::Derived { .. })
                            {
                                self.out.seen.push(((ev.stream, ev.seq), Seen::Edge, now));
                            }
                        }
                    }
                    Delivery::Reseed { pub_seq, snapshot } => {
                        sub.last_seq = *pub_seq;
                        if sub.checker {
                            match decode_snapshot(snapshot.clone()) {
                                Ok(snap) => self.out.checker_state = Some(snap.into_state()),
                                Err(_) => self.out.undecodable_replies += 1,
                            }
                        }
                    }
                    Delivery::DeltaReseed { pub_seq, .. } => sub.last_seq = *pub_seq,
                }
            }
        }
        busy
    }

    fn sweep_replies(&mut self) -> bool {
        let mut busy = false;
        while let Ok(f) = self.fired.try_recv() {
            self.pending[f.gateway].push_back(f);
            busy = true;
        }
        for g in 0..self.pending.len() {
            // Replies come back nearly in request order (two workers per
            // gateway); look a few requests past the oldest outstanding.
            let mut i = 0;
            while i < self.pending[g].len().min(8) {
                let outcome = match self.pending[g][i].reply.try_recv() {
                    Ok(r) => Some(r.ok()),
                    Err(crossbeam::channel::TryRecvError::Empty) => None,
                    Err(crossbeam::channel::TryRecvError::Disconnected) => Some(None),
                };
                let Some(outcome) = outcome else {
                    i += 1;
                    continue;
                };
                busy = true;
                let f = self.pending[g].remove(i).expect("index in range");
                self.on_reply(f, outcome);
            }
        }
        busy
    }

    fn on_reply(&mut self, f: Fired, served: Option<ServedSnapshot>) {
        let received = self.clock.now_us();
        let counted = f.due_us >= self.shared.measure_from_us.load(Ordering::Relaxed);
        let Some(served) = served else {
            if counted {
                self.out.requests_failed += 1;
            }
            return;
        };
        let wire = served.wire();
        let done = self.clock.now_us();
        if wire.is_empty() {
            self.out.undecodable_replies += 1;
        }
        // Decoding every reply would cost more than serving it; one in 64
        // is decoded in full, all are checked for a non-empty encoding.
        if f.id.is_multiple_of(64) {
            match decode_snapshot(wire) {
                Ok(snap) if snap.flight_count() == self.flights as usize => {}
                _ => self.out.undecodable_replies += 1,
            }
        }
        let frontier = served.as_of.components().iter().sum();
        self.out.reply_frontiers[f.gateway].push((f.fired_us, received, frontier));
        if !counted {
            return;
        }
        let second = self.second_of(f.due_us);
        self.out.request_latency.push(second, done.saturating_sub(f.due_us));
        if self.tracing(f.due_us) && trace::sampled(f.id) {
            let id = (u16::MAX, f.id);
            let mut push = |name, parent, start_us, end_us| {
                self.out.spans.push(Span { id, name, parent, start_us, end_us });
            };
            push("request", None, f.due_us, done);
            push("stage.request_serve", Some("request"), f.fired_us, received);
            push("stage.request_wire", Some("request"), received, done);
        }
    }

    fn sample(&mut self, now: u64) {
        self.out.depth.push((now, self.stage.inbox_depth() as f64));
        let stats = self.stage.cluster.stats();
        if let Some(worst) = stats.mirrors.iter().map(|m| m.staleness_us).max() {
            self.out.staleness_us.push(worst as f64);
        }
    }

    fn run(mut self) -> Observed {
        let poll = Duration::from_micros(200);
        let (mut last_sweep, mut last_sample) = (0u64, 0u64);
        let mut stop_seen: Option<Instant> = None;
        loop {
            let stopping = self.shared.stop.load(Ordering::Acquire);
            if stopping && stop_seen.is_none() {
                stop_seen = Some(Instant::now());
            }
            let mut busy = false;
            let first = match &self.central {
                Some(c) if stopping => c.try_recv(),
                Some(c) => c.recv_timeout(poll),
                // A closed loop outside its traced half: nothing to watch
                // but the 10 ms sampler, so nothing to wake up early for.
                None => {
                    std::thread::sleep(Duration::from_millis(2));
                    None
                }
            };
            if let Some(u) = first {
                busy = true;
                self.on_update(&u, Seen::Central);
                for _ in 0..256 {
                    match self.central.as_ref().and_then(Subscriber::try_recv) {
                        Some(u) => self.on_update(&u, Seen::Central),
                        None => break,
                    }
                }
            }
            let now = self.clock.now_us();
            if self.mirror.is_none() && now >= self.shared.trace_from_us.load(Ordering::Relaxed) {
                // Subscribed only once tracing starts: the untraced part
                // of the window must not pay for the extra per-update
                // clone these subscriptions cost the sites.
                if self.central.is_none() {
                    self.central = Some(self.stage.cluster.subscribe_updates());
                }
                self.mirror = match &self.stage.bridged {
                    Some(b) => Some(b.site.subscribe_updates()),
                    None => self.stage.cluster.try_mirror(1).map(|m| m.subscribe_updates()),
                };
            }
            // Drained on every pass, like the central's stream, so the two
            // sites' apply times are observed equally promptly.
            while let Some(u) = self.mirror.as_ref().and_then(|m| m.try_recv()) {
                busy = true;
                self.on_update(&u, Seen::Mirror);
            }
            if stopping || now.saturating_sub(last_sweep) >= EDGE_SWEEP_US {
                last_sweep = now;
                busy |= self.sweep_edge();
                busy |= self.sweep_replies();
            }
            if now.saturating_sub(last_sample) >= 10_000 && !stopping {
                last_sample = now;
                self.sample(now);
            }
            if let Some(since) = stop_seen {
                let outstanding: usize = self.pending.iter().map(VecDeque::len).sum();
                if !busy && (outstanding == 0 || since.elapsed() > REPLY_GRACE) {
                    self.out.requests_failed += outstanding as u64;
                    break;
                }
            }
        }
        for s in &self.subs {
            self.out.edge_queue_hwm = self.out.edge_queue_hwm.max(s.client.high_watermarks().0);
        }
        self.out
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// What the driver measured.
#[derive(Default)]
struct Driven {
    /// When warm-up ended (the end of set-up).
    warm_done: Option<Instant>,
    /// Events submitted in the timed window.
    events: u64,
    /// Requests due in the timed window.
    requests: u64,
    /// Requests the gateway refused outright.
    refused: u64,
    /// Events still not applied everywhere at the deadline.
    unapplied: u64,
    /// Process CPU over the timed window, µs.
    cpu_us: f64,
    /// Timed window, seconds: first submit → completion criterion.
    secs: f64,
    /// Closed loop: events/s of each untraced lap, then of each traced lap.
    lap_rates: Vec<f64>,
    lap_rates_traced: Vec<f64>,
    /// How late each submit ran behind its due time, µs.
    late: Vec<f64>,
    /// `(event id, due, submit returned)` for traced events.
    sent: Vec<((u16, u64), u64, u64)>,
    aux_before: AuxCounters,
    aux_after: AuxCounters,
    /// Central `(processed, apply_batches)` at the window's ends.
    batches_before: (u64, u64),
    batches_after: (u64, u64),
}

#[derive(Clone, Copy)]
struct Phase {
    /// Timed seconds after warm-up (0 = warm up only).
    seconds: f64,
    /// Trace the second half of the timed window.
    traced: bool,
}

/// How long a stream may take to drain after its last submit before the
/// remainder counts as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// How long one closed-loop lap may take before the run is declared
/// stalled (a healthy lap takes about a second).
const LAP_LIMIT: Duration = Duration::from_secs(20);

fn apply_batches(stage: &Stage) -> (u64, u64) {
    let c = stage.cluster.central();
    (c.processed(), c.counters().apply_batches.load(Ordering::Relaxed))
}

impl Driven {
    fn open_window(&mut self, stage: &Stage) -> (Instant, f64) {
        self.warm_done = Some(Instant::now());
        self.aux_before = stage.aux_counters();
        self.batches_before = apply_batches(stage);
        restart_peak_rss();
        (Instant::now(), process_cpu_us())
    }

    fn close_window(&mut self, stage: &Stage, (start, cpu_start): (Instant, f64)) {
        self.secs = start.elapsed().as_secs_f64();
        self.cpu_us = process_cpu_us() - cpu_start;
        self.aux_after = stage.aux_counters();
        self.batches_after = apply_batches(stage);
    }
}

fn drive_open(
    stage: &Stage,
    shared: &Shared,
    spec: &Spec,
    inputs: Inputs,
    phase: Phase,
    fired_tx: &mpsc::Sender<Fired>,
) -> Driven {
    let clock = stage.cluster.clock().clone();
    let clients: Vec<RequestClient> = stage.gateways.iter().map(RequestGateway::client).collect();
    let warm_us = (spec.warm_s * 1e6) as u64;
    let end_us = warm_us + (phase.seconds * 1e6) as u64;
    // Schedule time 0 lies a little ahead so the first events are not late.
    let t0 = clock.now_us() + 2_000;
    let mut trace_from = u64::MAX;
    if phase.seconds > 0.0 {
        shared.measure_from_us.store(t0 + warm_us, Ordering::Release);
        if phase.traced {
            trace_from = t0 + warm_us + (end_us - warm_us) / 2;
            shared.trace_from_us.store(trace_from, Ordering::Release);
        }
    }

    let mut d = Driven::default();
    let mut window = None;
    let mut events = inputs.events.into_iter().peekable();
    let mut requests = inputs.requests.into_iter().peekable();
    loop {
        let next_event = events.peek().map(|(t, _)| *t);
        let next_request = requests.peek().map(|r: &Request| r.at_us);
        let (due_rel, is_request) = match (next_event, next_request) {
            (Some(e), Some(r)) if r < e => (r, true),
            (Some(e), _) => (e, false),
            (None, Some(r)) => (r, true),
            (None, None) => break,
        };
        if due_rel >= end_us {
            break;
        }
        let measured = due_rel >= warm_us;
        if measured && window.is_none() {
            window = Some(d.open_window(stage));
        }
        let due = t0 + due_rel;
        sleep_until_us(|| clock.now_us(), due);
        if measured {
            d.late.push(clock.now_us().saturating_sub(due) as f64);
        }
        if is_request {
            let r = requests.next().expect("peeked");
            let gateway = (r.id as usize) % clients.len();
            // Stamped before the call: the regression check needs a time
            // the request had certainly not been submitted by.
            let fired_us = clock.now_us();
            match clients[gateway].fire() {
                Ok(reply) => {
                    let _ =
                        fired_tx.send(Fired { gateway, id: r.id, due_us: due, fired_us, reply });
                }
                Err(_) => d.refused += u64::from(measured),
            }
            d.requests += u64::from(measured);
        } else {
            let (_, mut e) = events.next().expect("peeked");
            // The ingress stamp is the due time: a stall anywhere after
            // this point, the generator's own included, shows as delay.
            e.ingress_us = due;
            let id = (e.stream, e.seq);
            stage.submit(e);
            d.events += u64::from(measured);
            if due >= trace_from && trace::sampled(id.1) {
                d.sent.push((id, due, clock.now_us()));
            }
        }
        PROGRESS.attempted.fetch_add(1, Ordering::Relaxed);
    }
    if window.is_none() {
        // Warm-up only: set-up ends when the warm-up stream has drained.
        wait_until(Instant::now() + DRAIN_LIMIT, Duration::from_micros(500), || stage.lag() == 0);
        d.warm_done = Some(Instant::now());
        return d;
    }
    let drained =
        wait_until(Instant::now() + DRAIN_LIMIT, Duration::from_micros(500), || stage.lag() == 0);
    d.close_window(stage, window.expect("window opened"));
    if !drained {
        eprintln!("stream not applied everywhere within {DRAIN_LIMIT:?}:");
        dump_sites(&stage.cluster);
        d.unapplied = stage.lag();
    }
    PROGRESS.completed.store(PROGRESS.attempted.load(Ordering::Relaxed), Ordering::Relaxed);
    d
}

/// The closed loop's window: block until fewer than `max_in_flight` events
/// are in flight, then submit `event`. `done` caches the count of events
/// known applied everywhere, refreshed only when the window — measured
/// against the last known figure — leaves no room. `false` = the deadline
/// passed with the window still full.
fn submit_windowed(
    stage: &Stage,
    event: Event,
    max_in_flight: u64,
    done: &mut u64,
    deadline: Instant,
) -> bool {
    // A full window that has not moved since the last look is looked at
    // ever more slowly, up to 1 ms: on the bridged workload it drains in
    // bursts of ≈ 55 events every ≈ 7 ms, and a driver waking 15 000 times
    // a second to see nothing new was a fifth of the process's CPU. At
    // saturation every look finds it moved, and the nap stays at 50 µs.
    const SHORT_NAP: Duration = Duration::from_micros(50);
    let mut nap = SHORT_NAP;
    while stage.submitted() - *done >= max_in_flight {
        let before = *done;
        *done = stage.submitted() - stage.lag();
        if stage.submitted() - *done < max_in_flight {
            break;
        }
        if Instant::now() >= deadline {
            return false;
        }
        nap = if *done > before { SHORT_NAP } else { (nap * 2).min(Duration::from_millis(1)) };
        std::thread::sleep(nap);
    }
    stage.submit(event);
    true
}

fn drive_closed(
    stage: &Stage,
    shared: &Shared,
    spec: &Spec,
    inputs: &Inputs,
    phase: Phase,
) -> Driven {
    let Load::Closed { window: max_in_flight, .. } = spec.load else {
        unreachable!("drive_closed runs closed-loop workloads only")
    };
    let clock = stage.cluster.clock().clone();
    let pool = &inputs.events;
    let lap_len = pool.len() as u64;
    // The pool replayed end to end, every pass under fresh sequence
    // numbers: a fix older than the flight's last one would be absorbed as
    // stale instead of applied.
    let mut cursor = 0u64;
    let mut next_event = || {
        let mut e = pool[(cursor % lap_len) as usize].1.clone();
        e.seq += cursor / lap_len * lap_len;
        e.ingress_us = 0;
        cursor += 1;
        e
    };
    let mut d = Driven::default();
    let mut done = stage.submitted() - stage.lag();
    let stalled = |d: &mut Driven, what: &str| {
        // Say where every site stands, count what is still in flight as
        // failed, and stop instead of hanging.
        eprintln!("closed loop stalled in {what}: {} in flight after {LAP_LIMIT:?}:", stage.lag());
        dump_sites(&stage.cluster);
        d.unapplied = stage.lag();
    };

    // Warm-up by the clock, not by the lap, so that set-up time does not
    // depend on which side of a lap boundary the rate happens to fall.
    let warm_end = Instant::now() + Duration::from_secs_f64(spec.warm_s);
    let deadline = warm_end + LAP_LIMIT;
    let mut warmed = true;
    while warmed && Instant::now() < warm_end {
        for _ in 0..256 {
            warmed &= submit_windowed(stage, next_event(), max_in_flight, &mut done, deadline);
        }
    }
    warmed = warmed && wait_until(deadline, Duration::from_micros(200), || stage.lag() == 0);
    d.warm_done = Some(Instant::now());
    if !warmed {
        stalled(&mut d, "warm-up");
        return d;
    }
    if phase.seconds <= 0.0 {
        return d;
    }

    shared.measure_from_us.store(clock.now_us(), Ordering::Release);
    let window = d.open_window(stage);
    let mut tracing = false;
    while window.0.elapsed().as_secs_f64() < phase.seconds {
        if phase.traced && !tracing && window.0.elapsed().as_secs_f64() >= phase.seconds / 2.0 {
            tracing = true;
            shared.trace_from_us.store(clock.now_us(), Ordering::Release);
        }
        // One lap: a pool's worth of events, then every site catches up.
        let lap_start = Instant::now();
        let deadline = lap_start + LAP_LIMIT;
        let mut completed = true;
        for _ in 0..lap_len {
            let e = next_event();
            let id = (e.stream, e.seq);
            let due = if tracing && trace::sampled(id.1) { clock.now_us() } else { 0 };
            completed = submit_windowed(stage, e, max_in_flight, &mut done, deadline);
            if !completed {
                break;
            }
            if due != 0 {
                d.sent.push((id, due, clock.now_us()));
            }
        }
        PROGRESS.attempted.fetch_add(lap_len, Ordering::Relaxed);
        d.events += lap_len;
        completed =
            completed && wait_until(deadline, Duration::from_micros(200), || stage.lag() == 0);
        if !completed {
            stalled(&mut d, "a lap");
            break;
        }
        PROGRESS.completed.fetch_add(lap_len, Ordering::Relaxed);
        done = stage.submitted();
        let rate = lap_len as f64 / lap_start.elapsed().as_secs_f64();
        if tracing {
            d.lap_rates_traced.push(rate);
        } else {
            d.lap_rates.push(rate);
        }
    }
    d.close_window(stage, window);
    d
}

// ---------------------------------------------------------------------
// Stream workloads: everything but the failover
// ---------------------------------------------------------------------

fn generate(spec: &Spec, seed: u64, seconds: f64) -> Inputs {
    match spec.load {
        Load::Open { rate } => {
            let duration_us = ((spec.warm_s + seconds) * 1e6) as u64;
            Inputs {
                events: inputs::open_schedule(
                    rate,
                    spec.flights,
                    spec.event_size,
                    duration_us,
                    spec.delta_stream,
                    seed,
                ),
                requests: spec
                    .requests
                    .map(|p| inputs::request_schedule(p, duration_us, seed))
                    .unwrap_or_default(),
            }
        }
        Load::Closed { lap_events, .. } => Inputs {
            events: inputs::closed_pool(lap_events, spec.flights, spec.event_size, seed),
            requests: Vec::new(),
        },
    }
}

/// One set-up with one phase driven on it.
struct Staged {
    stage: Stage,
    driven: Driven,
    observed: Observed,
    schedule_hash: u64,
    /// Input generation + cluster start + preload + warm-up, seconds.
    setup_s: f64,
    /// `VmHWM` when the timed window closed.
    peak_rss_mb: f64,
}

/// Generate, start, preload, then drive with the observer beside.
fn stage_and_drive(spec: &Spec, cfg: &RunConfig, phase: Phase) -> Staged {
    let begun = Instant::now();
    let inputs = generate(spec, cfg.seed, cfg.seconds);
    let schedule_hash = inputs::schedule_hash(&inputs);
    let stage = Stage::build(spec, false);
    let shared = Shared::new();
    let (fired_tx, fired_rx) = mpsc::channel();
    let (driven, observed) = std::thread::scope(|scope| {
        let observer = Observer::new(&stage, &shared, spec, fired_rx);
        let handle = std::thread::Builder::new()
            .name("bench-observer".into())
            .spawn_scoped(scope, move || observer.run())
            .expect("spawn observer");
        let driven = match spec.load {
            Load::Open { .. } => drive_open(&stage, &shared, spec, inputs, phase, &fired_tx),
            Load::Closed { .. } => drive_closed(&stage, &shared, spec, &inputs, phase),
        };
        if let Some(edge) = &stage.edge {
            edge.quiesce();
        }
        shared.stop.store(true, Ordering::Release);
        (driven, handle.join().expect("observer thread"))
    });
    let setup_s =
        driven.warm_done.map(|t| t.duration_since(begun).as_secs_f64()).unwrap_or(f64::NAN);
    // Read before any analysis allocates: the figure should follow the
    // program and the samples, not the report.
    let peak_rss_mb = peak_rss_mb();
    Staged { stage, driven, observed, schedule_hash, setup_s, peak_rss_mb }
}

/// A gateway's served frontier must never go back in real time: a request
/// fired after some reply was seen must be answered from a frontier at
/// least as new as that reply's. (Concurrent requests may be answered in
/// either order by a gateway's two workers; only "fired after seen" is
/// ordered.) Entries are `(fire began, reply seen, Σ frontier)`.
fn frontiers_never_regress(replies: &mut [(u64, u64, u64)]) -> bool {
    replies.sort_unstable_by_key(|r| r.1);
    let mut newest_seen_by = Vec::with_capacity(replies.len());
    let mut newest = 0;
    for r in replies.iter() {
        newest = newest.max(r.2);
        newest_seen_by.push((r.1, newest));
    }
    replies.iter().all(|&(fired, _, frontier)| {
        let earlier = newest_seen_by.partition_point(|&(seen, _)| seen < fired);
        earlier == 0 || frontier >= newest_seen_by[earlier - 1].1
    })
}

/// Journal entries replayed by the end-of-run check.
const JOURNAL_TAIL: u64 = 4_096;

fn all_equal(values: &[u64]) -> bool {
    values.windows(2).all(|w| w[0] == w[1])
}

/// Overhead of the traced half over the untraced half, in percent of the
/// untraced figure; positive = tracing made it worse.
fn overhead_pct(untraced: f64, traced: f64, higher_is_better: bool) -> f64 {
    if !(untraced.is_finite() && traced.is_finite()) || untraced == 0.0 {
        return 0.0;
    }
    let worse = if higher_is_better { untraced - traced } else { traced - untraced };
    worse / untraced * 100.0
}

/// What one slice contributes to the run's pooled end-to-end figures.
struct Pooled {
    setup_s: f64,
    peak_rss_mb: f64,
    events: u64,
    secs: f64,
    cpu_us: f64,
    late: Vec<f64>,
    update: Windows,
    edge: Windows,
    request: Windows,
}

/// A run is `spec.slices` slices: each sets a fresh cluster up and times a
/// share of the window on it. Set-up is paid several times anyway (its
/// median is `setup_s`); timing on every one of those clusters, instead
/// of on the last only, pools independent thread placements — the largest
/// source of run-to-run spread on two cores — into each run's figures.
/// A traced run is a single slice.
fn run_stream(w: Workload, spec: &Spec, cfg: &RunConfig) -> Outcome {
    let slices = if cfg.traced { 1 } else { spec.slices };
    let slice_cfg = RunConfig { seconds: cfg.seconds / slices as f64, ..*cfg };
    let (mut outcomes, pools): (Vec<Outcome>, Vec<Pooled>) =
        (0..slices).map(|_| run_slice(w, spec, &slice_cfg)).unzip();

    // Counters and diagnostics are the last slice's; checks must hold on
    // every slice; operations and the pooled figures add up over all.
    let mut out = outcomes.pop().expect("at least one slice");
    for other in &outcomes {
        for (name, ok) in &other.checks {
            match out.checks.iter_mut().find(|(n, _)| n == name) {
                Some((_, all)) => *all &= *ok,
                None => out.checks.push((name, *ok)),
            }
        }
        out.attempted += other.attempted;
        out.failed += other.failed;
    }
    let (mut update, mut edge, mut request) =
        (Windows::default(), Windows::default(), Windows::default());
    let mut late: Vec<f64> = Vec::new();
    let (mut events, mut secs, mut cpu_us) = (0u64, 0.0, 0.0);
    let (mut setups, mut peaks) = (Vec::new(), Vec::new());
    for p in pools {
        update.append(p.update);
        edge.append(p.edge);
        request.append(p.request);
        late.extend(p.late);
        events += p.events;
        secs += p.secs;
        cpu_us += p.cpu_us;
        setups.push(p.setup_s);
        peaks.push(p.peak_rss_mb);
    }

    out.put("setup_s", median(&setups), "s");
    // Over the whole window, not the median lap: laps of a second each
    // scatter by ±15 % on two cores, and their mean is the steadier figure.
    out.put("events_per_s", events as f64 / secs, "1/s");
    out.put("cpu_us_per_event", cpu_us / events.max(1) as f64, "us");
    out.put("update_delay_p99_us", update.tail(99.0), "us");
    out.put("peak_rss_mb", median(&peaks), "MiB");
    out.put("edge_delivery_p99_us", edge.tail(99.0), "us");
    out.put("request_p99_us", request.tail(99.0), "us");
    out.put("outage_ms", 0.0, "ms");
    let late = Summary::new(late);
    out.put("gen.late_p99_us", if late.n() > 0 { late.tail(99.0) } else { 0.0 }, "us");
    out.put("obs.update_delay_p50_us", update.p50(), "us");
    out.put("obs.update_delay_samples", update.n() as f64, "count");
    out.put("obs.update_delay_tail_pct", update.tail_pct(99.0), "%");
    out.put("obs.edge_delivery_p50_us", edge.p50(), "us");
    out.put("obs.edge_delivery_samples", edge.n() as f64, "count");
    out.put("obs.request_p50_us", request.p50(), "us");
    out.put("obs.request_samples", request.n() as f64, "count");
    out
}

/// One slice: set up, time `cfg.seconds`, check, count, tear down.
fn run_slice(w: Workload, spec: &Spec, cfg: &RunConfig) -> (Outcome, Pooled) {
    let mut out = Outcome::default();
    let Staged { stage, driven: d, observed: mut o, schedule_hash, setup_s, peak_rss_mb } =
        stage_and_drive(spec, cfg, Phase { seconds: cfg.seconds, traced: cfg.traced });
    out.schedule_hash = schedule_hash;

    // ---- correctness ---------------------------------------------------
    let hashes = stage.state_hashes();
    if stage.selective {
        // Mirrors saw a tenth of the fixes: they must agree with each
        // other and hold the central's flights, not its exact state.
        out.checks.push(("mirrors_state_equal", all_equal(&hashes[1..])));
        let central_flights = stage.cluster.snapshot(0).map(|s| s.flight_count()).ok();
        let same_count =
            stage.cluster.mirror_ids().into_iter().all(|id| {
                stage.cluster.snapshot(id).map(|s| s.flight_count()).ok() == central_flights
            });
        out.checks.push(("mirror_flight_counts_equal_central", same_count));
    } else {
        out.checks.push(("state_hashes_equal", all_equal(&hashes)));
    }
    out.checks.push(("stream_applied_everywhere", d.unapplied == 0));
    if spec.edge.is_some() {
        out.checks.push(("edge_stream_contiguous", o.edge_gaps == 0 && o.edge_disconnects == 0));
        let reference = stage.cluster.snapshot(1).expect("mirror 1 is attached");
        let equivalent = o.checker_state.as_ref().is_some_and(|held| {
            held.flight_count() == reference.flight_count()
                && reference
                    .iter()
                    .all(|(id, v)| held.flight(*id).is_some_and(|h| views_equivalent(h, v)))
        });
        out.checks.push(("edge_checker_views_equivalent", equivalent));
    }
    if spec.requests.is_some() {
        out.checks.push(("replies_decode", o.undecodable_replies == 0));
        let monotone = o.reply_frontiers.iter_mut().all(|r| frontiers_never_regress(r));
        out.checks.push(("reply_frontier_never_regresses", monotone));
    }
    let journal = stage.cluster.central().journal().cloned();
    if let Some(journal) = &journal {
        // Every mirrored event was journaled under its send index: the log
        // must end at the last one, and its tail must replay gap-free.
        // (Only the tail: commits truncate the head, and replaying a whole
        // run would dominate the process's peak memory.)
        let mirrored = stage.cluster.central().counters().mirrored.load(Ordering::Relaxed);
        let tail_from = mirrored.saturating_sub(JOURNAL_TAIL - 1).max(1);
        let retained = journal.replay_from(tail_from).map(|entries| {
            entries.len() as u64 == mirrored - tail_from + 1
                && entries.first().map(|e| e.0) == Some(tail_from)
                && entries.windows(2).all(|w| w[1].0 == w[0].0 + 1)
        });
        out.checks.push(("journal_tail_replays_to_last_event", retained.unwrap_or(false)));
        out.checks.push(("journal_healthy", journal.last_error().is_none()));
    }

    // ---- accounting ----------------------------------------------------
    out.attempted = d.events + d.requests;
    out.failed = d.unapplied + d.refused + o.requests_failed + o.edge_gaps + o.edge_disconnects;

    // ---- layer counters (S) ----------------------------------------------
    layer_counters(&mut out, &stage, &d, &o);
    put_layer_zeroes(&mut out);

    // ---- trace -----------------------------------------------------------
    if cfg.traced {
        let mut times: BTreeMap<(u16, u64), EventTimes> = BTreeMap::new();
        for &(id, due, submitted) in &d.sent {
            let t = times.entry(id).or_default();
            (t.due, t.submitted) = (due, submitted);
        }
        for &(id, at, when) in &o.seen {
            let Some(t) = times.get_mut(&id) else { continue };
            match at {
                Seen::Central => t.central = when,
                Seen::Mirror => t.mirror = when,
                Seen::Edge => t.edge = t.edge.max(when),
            }
        }
        out.spans = trace::event_spans(&times);
        out.spans.append(&mut o.spans);
        let overhead = match spec.load {
            // The median: within one run both halves share the
            // scheduler's mood, and a half-window's p99 is mostly noise.
            Load::Open { .. } => {
                let seconds = o.update_delay.buckets.len();
                let half = (cfg.seconds / 2.0).round() as usize;
                overhead_pct(
                    o.update_delay.p50_of(0..half),
                    o.update_delay.p50_of(half..seconds),
                    false,
                )
            }
            Load::Closed { .. } => {
                overhead_pct(median(&d.lap_rates), median(&d.lap_rates_traced), true)
            }
        };
        put_trace_metrics(&mut out, w, overhead);
    }
    stage.teardown();
    let pooled = Pooled {
        setup_s,
        peak_rss_mb,
        events: d.events,
        secs: d.secs,
        cpu_us: d.cpu_us,
        late: d.late,
        update: std::mem::take(&mut o.update_delay),
        edge: std::mem::take(&mut o.edge_delay),
        request: std::mem::take(&mut o.request_latency),
    };
    (out, pooled)
}

/// The blocking path of a traced event on each workload — the stages
/// that partition its parent span: to the edge subscriber where there is
/// an edge, else to the mirror.
fn blocking_path(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::SteadyStream => &["stage.ingest", "stage.mirror_apply", "stage.edge_deliver"],
        Workload::CentralFailover => &["stage.detect", "stage.promote", "stage.first_apply"],
        _ => &["stage.ingest", "stage.mirror_apply"],
    }
}

/// Traced events below which the stage budget is not judged: medians of a
/// dozen spans do not add up to anything.
const MIN_SPANS_TO_RECONCILE: f64 = 100.0;

fn put_trace_metrics(out: &mut Outcome, w: Workload, overhead: f64) {
    for (name, value, unit) in trace::stage_metrics(&out.spans) {
        out.put(name, value, unit);
    }
    let r = trace::reconcile(&out.spans, blocking_path(w));
    out.put("trace.stage_sum_p50_us", r.map_or(f64::NAN, |r| r.stage_sum_p50_us), "us");
    out.put("trace.reconcile_gap_pct", r.map_or(f64::NAN, |r| r.gap_pct), "%");
    out.put("trace.overhead_pct", overhead, "%");
    out.put("trace.spans", out.spans.len() as f64, "count");
    let traced_events = out.get("trace.event.count").unwrap_or(0.0);
    if w == Workload::SteadyStream && traced_events >= MIN_SPANS_TO_RECONCILE {
        // The stage budget is the point of the traced run: the stages
        // along the blocking path must explain the end-to-end figure.
        out.checks.push(("stage_sum_within_10pct_of_event", r.is_some_and(|r| r.gap_pct <= 10.0)));
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Counters read from the program's own public statistics after the run.
fn layer_counters(out: &mut Outcome, stage: &Stage, d: &Driven, o: &Observed) {
    let (a, b) = (&d.aux_before, &d.aux_after);
    let received = b.received - a.received;
    out.put("core.aux.received", received as f64, "count");
    out.put("core.aux.mirrored", (b.mirrored - a.mirrored) as f64, "count");
    out.put("core.aux.suppressed", (b.suppressed - a.suppressed) as f64, "count");
    out.put("core.aux.checkpoints", (b.checkpoints - a.checkpoints) as f64, "count");
    out.put("core.aux.control_msgs", (b.control_msgs - a.control_msgs) as f64, "count");
    out.put("core.aux.adaptations", (b.adaptations - a.adaptations) as f64, "count");
    out.put("core.mirrored_ratio", ratio(b.mirrored - a.mirrored, received), "ratio");
    out.put("core.msgs_per_event", ratio(b.control_msgs - a.control_msgs, received), "ratio");
    out.put("core.bytes_per_event", ratio(b.mirrored_bytes - a.mirrored_bytes, received), "B");

    let link = stage.bridged.as_ref().map(|b| b.monitor.health()).unwrap_or_default();
    out.put("echo.link.delivered", link.delivered as f64, "count");
    out.put("echo.link.acked", link.acked as f64, "count");
    out.put("echo.link.retransmitted", link.retransmitted as f64, "count");
    out.put("echo.link.duplicates_dropped", link.duplicates_dropped as f64, "count");

    let (mut wal_bytes, mut segments) = (0u64, 0u64);
    if let Some(dir) = stage.work.as_ref().and_then(|w| std::fs::read_dir(w.path()).ok()) {
        for entry in dir.flatten() {
            if entry.file_name().to_string_lossy().ends_with(".seg") {
                segments += 1;
                wal_bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
    }
    // Bytes on disk over the events still retained there (commits
    // truncate whole segments below the checkpoint watermark).
    let retained = stage.cluster.central().journal().map_or(0, |j| {
        match (j.first_retained_idx(), j.last_idx()) {
            (Some(first), Some(last)) => last - first + 1,
            _ => 0,
        }
    });
    out.put("store.bytes_per_event", ratio(wal_bytes, retained), "B");
    out.put("store.segments", segments as f64, "count");

    let stats = stage.cluster.stats();
    let batches = d.batches_after.1 - d.batches_before.1;
    out.put(
        "runtime.apply_batch_size",
        ratio(d.batches_after.0 - d.batches_before.0, batches),
        "count",
    );
    let ring = stage.cluster.central().dispatch_ring_stats();
    out.put("runtime.dispatch_ring_hwm", ring.high_watermark as f64, "count");
    let depth_max = o.depth.iter().map(|s| s.1).fold(0.0, f64::max);
    out.put("runtime.inbox_depth_max", depth_max, "count");
    // A backlog that grows across the run marks the rate unsustainable:
    // median depth of the last fifth of the run minus that of the first.
    let span = o.depth.last().map_or(0, |l| l.0) - o.depth.first().map_or(0, |f| f.0);
    let fifths = windowed_medians(&o.depth, (span / 5).max(1));
    let growth = match (fifths.first(), fifths.last()) {
        (Some(first), Some(last)) => last - first,
        _ => 0.0,
    };
    out.put("runtime.inbox_depth_growth", growth, "count");
    out.put("runtime.shard_imbalance", stats.central.shard_imbalance, "ratio");
    out.put("runtime.mean_update_delay_us", stats.central.mean_update_delay_us, "us");
    let staleness = Summary::new(o.staleness_us.clone());
    out.put(
        "runtime.staleness_us_p99",
        if staleness.n() > 0 { staleness.tail(99.0) } else { 0.0 },
        "us",
    );
    let sites = std::iter::once(&stats.central).chain(stats.mirrors.iter());
    let (mut hits, mut misses, mut served) = (0, 0, 0);
    for s in sites {
        hits += s.snapshot_cache_hits;
        misses += s.snapshot_cache_misses;
        served += s.requests_served;
    }
    out.put("runtime.snapshot_cache_hit_rate", ratio(hits, hits + misses), "ratio");
    out.put("runtime.requests_served", served as f64, "count");

    let e = stats.edges.first().map(|(_, e)| *e).unwrap_or_default();
    out.put("edge.published", e.published as f64, "count");
    out.put("edge.delivered", e.delivered as f64, "count");
    out.put("edge.conflated", e.conflated as f64, "count");
    out.put("edge.conflation_ratio", ratio(e.conflated, e.delivered + e.conflated), "ratio");
    out.put("edge.queue_hwm", o.edge_queue_hwm as f64, "count");
    out.put("edge.disconnected_slow", e.disconnected_slow as f64, "count");
}

// ---------------------------------------------------------------------
// central_failover
// ---------------------------------------------------------------------

/// What the failover driver and observer share during one trial.
struct FailoverShared {
    stop: AtomicBool,
    measure_from_us: AtomicU64,
    /// Cluster time of `crash_central()` (0 = not yet).
    crash_us: AtomicU64,
    /// Cluster time the observer saw `Promoted` *and* had re-subscribed to
    /// the successor's update stream (0 = not yet).
    promoted_us: AtomicU64,
    /// Updates seen so far on the surviving mirror's stream.
    survivor_seen: AtomicU64,
}

#[derive(Default)]
struct FailoverObserved {
    update_delay: Vec<u32>,
    detect_us: u64,
    promoted_us: u64,
    replayed: u64,
    term_after: u64,
    /// First update due after the crash, as seen at the successor central
    /// and at the surviving mirror.
    first_central_us: u64,
    first_survivor_us: u64,
}

/// The mirror that survives as a mirror: succession promotes the lowest
/// live site id (1), so with two mirrors it is site 2.
const SURVIVOR: u16 = 2;

fn observe_failover(stage: &Stage, shared: &FailoverShared) -> FailoverObserved {
    let clock = stage.cluster.clock().clone();
    let mut central = stage.cluster.subscribe_updates();
    let survivor = stage.cluster.mirror(SURVIVOR).subscribe_updates();
    let mut out = FailoverObserved::default();
    let mut last_poll = 0u64;
    loop {
        let stopping = shared.stop.load(Ordering::Acquire);
        let crash_us = shared.crash_us.load(Ordering::Acquire);
        let crashed = crash_us != 0;
        let mut busy = false;
        let first = if stopping {
            central.try_recv()
        } else {
            central.recv_timeout(Duration::from_micros(200))
        };
        let mut next = first;
        while let Some(u) = next {
            busy = true;
            let now = clock.now_us();
            if u.ingress_us >= shared.measure_from_us.load(Ordering::Relaxed) {
                out.update_delay.push(now.saturating_sub(u.ingress_us) as u32);
            }
            if crashed && out.first_central_us == 0 && u.ingress_us >= crash_us {
                out.first_central_us = now;
            }
            next = central.try_recv();
        }
        while let Some(u) = survivor.try_recv() {
            busy = true;
            shared.survivor_seen.fetch_add(1, Ordering::Relaxed);
            if crashed && out.first_survivor_us == 0 && u.ingress_us >= crash_us {
                out.first_survivor_us = clock.now_us();
            }
        }
        let now = clock.now_us();
        if now.saturating_sub(last_poll) >= 1_000 {
            last_poll = now;
            for ev in stage.cluster.poll_failover() {
                match ev {
                    // Death is declared at the top of the poll that then
                    // goes on to promote; both events come back together,
                    // so the poll's start is the detection time.
                    FailoverEvent::CoordinatorDead { .. } => out.detect_us = now,
                    FailoverEvent::Promoted { term, replayed, .. } => {
                        out.term_after = term;
                        out.replayed = replayed as u64;
                        // Subscribe to the successor before the driver is
                        // let loose again, so none of its updates is missed.
                        central = stage.cluster.subscribe_updates();
                        out.promoted_us = clock.now_us();
                        shared.promoted_us.store(out.promoted_us, Ordering::Release);
                    }
                }
            }
        }
        if stopping && !busy {
            return out;
        }
    }
}

struct Trial {
    setup_s: f64,
    events: u64,
    unavailable: u64,
    unapplied: u64,
    secs: f64,
    cpu_us: f64,
    late: Vec<f64>,
    peak_rss_mb: f64,
    outage_ms: f64,
    spans: Vec<Span>,
    observed: FailoverObserved,
    checks: Vec<(&'static str, bool)>,
    schedule_hash: u64,
}

/// How long detection plus promotion may take before the trial gives up.
const FAILOVER_LIMIT: Duration = Duration::from_secs(10);

fn failover_trial(spec: &Spec, cfg: &RunConfig, trial: u64, pre_s: f64, post_s: f64) -> Trial {
    let Load::Open { rate } = spec.load else { unreachable!("failover feeds on a schedule") };
    let begun = Instant::now();
    let horizon_s = spec.warm_s + pre_s + post_s + FAILOVER_LIMIT.as_secs_f64();
    let inputs = Inputs {
        events: inputs::open_schedule(
            rate,
            spec.flights,
            spec.event_size,
            (horizon_s * 1e6) as u64,
            false,
            cfg.seed.wrapping_add(trial.wrapping_mul(0x9E37_79B9)),
        ),
        requests: Vec::new(),
    };
    let schedule_hash = inputs::schedule_hash(&inputs);
    let stage = Stage::build(spec, true);
    let preloaded = stage.submitted();
    let clock = stage.cluster.clock().clone();
    let shared = FailoverShared {
        stop: AtomicBool::new(false),
        measure_from_us: AtomicU64::new(u64::MAX),
        crash_us: AtomicU64::new(0),
        promoted_us: AtomicU64::new(0),
        survivor_seen: AtomicU64::new(0),
    };
    let mut t = Trial {
        setup_s: 0.0,
        events: 0,
        unavailable: 0,
        unapplied: 0,
        secs: 0.0,
        cpu_us: 0.0,
        late: Vec::new(),
        peak_rss_mb: 0.0,
        outage_ms: f64::NAN,
        spans: Vec::new(),
        observed: FailoverObserved::default(),
        checks: Vec::new(),
        schedule_hash,
    };
    let warm_us = (spec.warm_s * 1e6) as u64;
    let crash_rel = warm_us + (pre_s * 1e6) as u64;
    let post_us = (post_s * 1e6) as u64;

    let observed = std::thread::scope(|scope| {
        let handle = std::thread::Builder::new()
            .name("bench-observer".into())
            .spawn_scoped(scope, || observe_failover(&stage, &shared))
            .expect("spawn observer");
        let t0 = clock.now_us() + 2_000;
        shared.measure_from_us.store(t0 + warm_us, Ordering::Release);
        let mut window: Option<(Instant, f64)> = None;
        let mut events = inputs.events.into_iter().peekable();
        // `on_time`: the event is submitted when due (a held one is not,
        // by design, and says nothing about how late the generator runs).
        let submit = |t: &mut Trial, due: u64, mut e: Event, measured: bool, on_time: bool| {
            if measured && on_time {
                t.late.push(clock.now_us().saturating_sub(due) as f64);
            }
            e.ingress_us = due;
            stage.submit(e);
            t.events += u64::from(measured);
            PROGRESS.attempted.fetch_add(1, Ordering::Relaxed);
        };

        // Healthy service up to the crash point.
        while let Some((due_rel, _)) = events.peek() {
            let due_rel = *due_rel;
            if due_rel >= crash_rel {
                break;
            }
            if due_rel >= warm_us && window.is_none() {
                t.setup_s = begun.elapsed().as_secs_f64();
                restart_peak_rss();
                window = Some((Instant::now(), process_cpu_us()));
            }
            sleep_until_us(|| clock.now_us(), t0 + due_rel);
            let (_, e) = events.next().expect("peeked");
            submit(&mut t, t0 + due_rel, e, due_rel >= warm_us, true);
        }

        // Crash at the first quiet instant: nothing accepted by the dying
        // central is in flight, so the protocol owes every submitted event.
        wait_until(Instant::now() + Duration::from_secs(2), Duration::from_micros(100), || {
            stage.lag() == 0
        });
        let committed_before = stage.cluster.central().committed();
        let term_before = stage.cluster.leader_term();
        let crash_us = clock.now_us();
        shared.crash_us.store(crash_us, Ordering::Release);
        stage.cluster.crash_central();

        // No central: events due now are the outage itself. They are held
        // and submitted, still stamped with their due time, once the
        // successor serves.
        let promoted =
            wait_until(Instant::now() + FAILOVER_LIMIT, Duration::from_micros(200), || {
                shared.promoted_us.load(Ordering::Acquire) != 0
            });
        let promoted_us = shared.promoted_us.load(Ordering::Acquire);
        if promoted {
            let end_rel = promoted_us.saturating_sub(t0) + post_us;
            while let Some((due_rel, _)) = events.peek() {
                let due_rel = *due_rel;
                if due_rel >= end_rel {
                    break;
                }
                let due = t0 + due_rel;
                t.unavailable += u64::from(due < promoted_us);
                sleep_until_us(|| clock.now_us(), due);
                let (_, e) = events.next().expect("peeked");
                submit(&mut t, due, e, true, due >= promoted_us);
            }
        }
        // Applied at the surviving mirror = seen on its update stream:
        // every fix supersedes its flight's last, so each yields one update
        // (journal replays of already-applied events are stale and silent).
        let offered = stage.submitted() - preloaded;
        let drained = wait_until(Instant::now() + DRAIN_LIMIT, Duration::from_micros(500), || {
            shared.survivor_seen.load(Ordering::Relaxed) >= offered
        });
        if let Some((start, cpu_start)) = window {
            t.secs = start.elapsed().as_secs_f64();
            t.cpu_us = process_cpu_us() - cpu_start;
            t.peak_rss_mb = peak_rss_mb();
        }
        if !drained || !promoted {
            eprintln!("failover trial {trial}: promoted={promoted} drained={drained}:");
            dump_sites(&stage.cluster);
            t.unapplied = offered.saturating_sub(shared.survivor_seen.load(Ordering::Relaxed));
        }
        PROGRESS.completed.store(PROGRESS.attempted.load(Ordering::Relaxed), Ordering::Relaxed);
        shared.stop.store(true, Ordering::Release);
        let o = handle.join().expect("observer thread");

        let term_after = stage.cluster.leader_term();
        t.checks.push(("failover_promoted", promoted));
        t.checks.push(("term_strictly_increases", term_after > term_before));
        let lost: u64 = match (&committed_before, stage.cluster.snapshot(0)) {
            (Some(committed), Ok(successor)) => committed
                .components()
                .iter()
                .enumerate()
                .map(|(i, &c)| c.saturating_sub(successor.as_of.get(i)))
                .sum(),
            (None, _) => 0,
            (Some(_), Err(_)) => u64::MAX,
        };
        t.checks.push(("committed_events_lost_is_zero", lost == 0));
        // The drain criterion watched the surviving mirror; the successor
        // central applies the same events on its own threads and may be an
        // event behind it for a moment — give it that moment.
        let converged =
            wait_until(Instant::now() + Duration::from_secs(2), Duration::from_millis(1), || {
                all_equal(&stage.cluster.state_hashes())
            });
        t.checks.push(("survivors_state_equal", converged));
        t.checks.push(("stream_applied_everywhere", t.unapplied == 0));

        let first_apply = o.first_central_us.max(o.first_survivor_us);
        if promoted && o.first_central_us != 0 && o.first_survivor_us != 0 {
            t.outage_ms = first_apply.saturating_sub(crash_us) as f64 / 1e3;
            let id = (u16::MAX - 1, trial);
            let detect = if o.detect_us != 0 { o.detect_us } else { o.promoted_us };
            let mut push = |name, parent, start_us, end_us| {
                t.spans.push(Span { id, name, parent, start_us, end_us });
            };
            push(trace::EVENT, None, crash_us, first_apply);
            push("stage.detect", Some(trace::EVENT), crash_us, detect);
            push("stage.promote", Some(trace::EVENT), detect, o.promoted_us);
            push("stage.first_apply", Some(trace::EVENT), o.promoted_us, first_apply);
        }
        o
    });
    t.observed = observed;
    stage.teardown();
    t
}

fn run_failover(w: Workload, spec: &Spec, cfg: &RunConfig) -> Outcome {
    let (pre_s, post_s) = if cfg.smoke { (0.4, 0.4) } else { (1.0, 1.0) };
    // A trial is `pre + outage + post` of feed; as many as fit the timed
    // window, never fewer than three (two when smoke-testing).
    let fit = (cfg.seconds / (pre_s + post_s + 0.3)) as u64;
    let trials = fit.max(if cfg.smoke { 2 } else { 3 });
    let runs: Vec<Trial> =
        (0..trials).map(|i| failover_trial(spec, cfg, i, pre_s, post_s)).collect();

    let mut out = Outcome {
        schedule_hash: runs
            .iter()
            .enumerate()
            .fold(0, |h, (i, t)| h ^ t.schedule_hash.rotate_left(i as u32)),
        ..Default::default()
    };
    for name in [
        "failover_promoted",
        "term_strictly_increases",
        "committed_events_lost_is_zero",
        "survivors_state_equal",
        "stream_applied_everywhere",
    ] {
        let all = runs.iter().all(|t| t.checks.iter().any(|(n, ok)| *n == name && *ok));
        out.checks.push((name, all));
    }
    let collect = |f: fn(&Trial) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let events: u64 = runs.iter().map(|t| t.events).sum();
    let cpu_us: f64 = runs.iter().map(|t| t.cpu_us).sum();
    // One window per trial: each holds its own outage, and the median
    // trial is reported.
    let mut update = Windows::default();
    for (i, t) in runs.iter().enumerate() {
        for &delay in &t.observed.update_delay {
            update.push(i as u64, u64::from(delay));
        }
    }
    let outages = collect(|t| t.outage_ms);
    out.put("setup_s", median(&collect(|t| t.setup_s)), "s");
    out.put("events_per_s", median(&collect(|t| t.events as f64 / t.secs)), "1/s");
    out.put("cpu_us_per_event", cpu_us / events.max(1) as f64, "us");
    out.put("update_delay_p99_us", update.tail(99.0), "us");
    out.put("peak_rss_mb", median(&collect(|t| t.peak_rss_mb)), "MiB");
    out.put("edge_delivery_p99_us", 0.0, "us");
    out.put("request_p99_us", 0.0, "us");
    out.put("outage_ms", median(&outages), "ms");
    out.attempted = events;
    out.failed = runs.iter().map(|t| t.unapplied).sum();

    let late = Summary::new(runs.iter().flat_map(|t| t.late.iter().copied()).collect());
    out.put("gen.late_p99_us", late.tail(99.0), "us");
    out.put("obs.update_delay_p50_us", update.p50(), "us");
    out.put("obs.update_delay_samples", update.n() as f64, "count");
    out.put("obs.update_delay_tail_pct", update.tail_pct(99.0), "%");
    for name in ["obs.edge_delivery_p50_us", "obs.request_p50_us"] {
        out.put(name, 0.0, "us");
    }
    for name in ["obs.edge_delivery_samples", "obs.request_samples"] {
        out.put(name, 0.0, "count");
    }
    let ms = |from: fn(&Trial) -> u64, to: fn(&Trial) -> u64| -> f64 {
        median(&runs.iter().map(|t| to(t).saturating_sub(from(t)) as f64 / 1e3).collect::<Vec<_>>())
    };
    let crash = |t: &Trial| {
        t.spans.iter().find(|s| s.name == trace::EVENT).map_or(t.observed.detect_us, |s| s.start_us)
    };
    out.put("runtime.failover.detect_ms", ms(crash, |t| t.observed.detect_us), "ms");
    out.put(
        "runtime.failover.promote_ms",
        ms(|t| t.observed.detect_us, |t| t.observed.promoted_us),
        "ms",
    );
    let replayed: u64 = runs.iter().map(|t| t.observed.replayed).sum();
    let unavailable: u64 = runs.iter().map(|t| t.unavailable).sum();
    out.put("runtime.failover.replayed", replayed as f64, "count");
    out.put("runtime.failover.events_unavailable", unavailable as f64, "count");
    put_layer_zeroes(&mut out);

    if cfg.traced {
        // Failover spans cost three timestamps a trial, traced or not; the
        // "overhead" of the second half of the trials over the first is
        // the measurement's own noise floor.
        let half = outages.len() / 2;
        let overhead = overhead_pct(median(&outages[..half]), median(&outages[half..]), false);
        out.spans = runs.iter().flat_map(|t| t.spans.iter().cloned()).collect();
        put_trace_metrics(&mut out, w, overhead);
    }
    out
}

/// The layer counters a workload without that layer reports as zero, so
/// every workload prints every per-layer metric.
fn put_layer_zeroes(out: &mut Outcome) {
    for (name, unit) in LAYER_COUNTERS {
        if out.get(name).is_none() {
            out.put(*name, 0.0, unit);
        }
    }
}

/// Every counter `layer_counters` and the failover emit.
pub const LAYER_COUNTERS: &[(&str, &str)] = &[
    ("core.aux.received", "count"),
    ("core.aux.mirrored", "count"),
    ("core.aux.suppressed", "count"),
    ("core.aux.checkpoints", "count"),
    ("core.aux.control_msgs", "count"),
    ("core.aux.adaptations", "count"),
    ("core.mirrored_ratio", "ratio"),
    ("core.msgs_per_event", "ratio"),
    ("core.bytes_per_event", "B"),
    ("echo.link.delivered", "count"),
    ("echo.link.acked", "count"),
    ("echo.link.retransmitted", "count"),
    ("echo.link.duplicates_dropped", "count"),
    ("store.bytes_per_event", "B"),
    ("store.segments", "count"),
    ("runtime.apply_batch_size", "count"),
    ("runtime.dispatch_ring_hwm", "count"),
    ("runtime.inbox_depth_max", "count"),
    ("runtime.inbox_depth_growth", "count"),
    ("runtime.shard_imbalance", "ratio"),
    ("runtime.mean_update_delay_us", "us"),
    ("runtime.staleness_us_p99", "us"),
    ("runtime.snapshot_cache_hit_rate", "ratio"),
    ("runtime.requests_served", "count"),
    ("edge.published", "count"),
    ("edge.delivered", "count"),
    ("edge.conflated", "count"),
    ("edge.conflation_ratio", "ratio"),
    ("edge.queue_hwm", "count"),
    ("edge.disconnected_slow", "count"),
    ("runtime.failover.detect_ms", "ms"),
    ("runtime.failover.promote_ms", "ms"),
    ("runtime.failover.replayed", "count"),
    ("runtime.failover.events_unavailable", "count"),
];

/// Run one workload once.
pub fn run(w: Workload, cfg: &RunConfig) -> Outcome {
    PROGRESS.attempted.store(0, Ordering::Relaxed);
    PROGRESS.completed.store(0, Ordering::Relaxed);
    let spec = w.spec(cfg.smoke);
    match w {
        Workload::CentralFailover => run_failover(w, &spec, cfg),
        _ => run_stream(w, &spec, cfg),
    }
}

/// Nominal wall time of one run, for the watchdog: set-ups, the timed
/// window, and room for teardown.
pub fn nominal_secs(w: Workload, cfg: &RunConfig) -> f64 {
    let spec = w.spec(cfg.smoke);
    let setup = spec.warm_s + 1.0;
    match w {
        Workload::CentralFailover => cfg.seconds.max(6.0) * 1.6 + 2.0,
        _ => spec.slices as f64 * setup + cfg.seconds + 2.0,
    }
}
