//! In-process cluster assembly.
//!
//! [`Cluster::start`] brings up the paper's Figure-2 topology on threads:
//! one central site, *n* mirror sites, a shared data channel
//! (central → mirrors), a control downlink (CHKPT/COMMIT broadcasts) and a
//! control uplink (CHKPT_REP replies). All sites share one
//! [`RuntimeClock`] so update delays are comparable.
//!
//! Membership is **elastic**: the mirror set is not frozen at start-up.
//! Every site's lifecycle lives in an epoch-stamped
//! [`MembershipView`] owned by a
//! [`MembershipRegistry`], and every membership operation
//! ([`add_mirror`](Cluster::add_mirror), [`fail_mirror`](Cluster::fail_mirror),
//! [`rejoin_mirror`](Cluster::rejoin_mirror),
//! [`retire_mirror`](Cluster::retire_mirror),
//! [`promote_mirror`](Cluster::promote_mirror),
//! [`recover_site`](Cluster::recover_site)) takes `&self` and returns a
//! typed [`MembershipError`] instead of panicking on a bad site id — so a
//! caller holding a shared `Cluster` (gateway, balancer, the
//! [`ScalePolicy`] drain in
//! [`poll_scale`](Cluster::poll_scale)) can change cluster *capacity* while
//! traffic flows.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use mirror_core::adapt::{ScaleDecision, ScalePolicy};
use mirror_core::api::{MirrorConfig, MirrorHandle};
use mirror_core::aux_unit::SiteId;
use mirror_core::event::Event;
use mirror_core::membership::{MembershipError, MembershipRegistry, MembershipView, SiteState};
use mirror_core::mirrorfn::MirrorFnKind;
use mirror_core::ControlMsg;
use mirror_echo::channel::{Closer, EventChannel, Subscriber};
use mirror_echo::resilient::{LinkHealth, LinkMonitor};
use mirror_echo::wire::SharedEvent;
use mirror_ede::Snapshot;
use mirror_edge::{EdgeConfig, EdgeServer, EdgeStats};

use crate::clock::RuntimeClock;
use crate::durability::{DurabilityConfig, Journal, ResyncOutcome, ResyncSource};
use crate::failover::{CtrlCadence, FailoverEvent, FailoverPolicy};
use crate::requests::RequestGate;
use crate::site::{CentralSite, MirrorSite, DEFAULT_MAIN_RING_CAPACITY};

/// Cluster start-up configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of mirror sites.
    pub mirrors: u16,
    /// Initial mirroring configuration installed at every site.
    pub kind: MirrorFnKind,
    /// Failure detection: a mirror missing this many consecutive
    /// checkpoint rounds is declared failed and excluded (0 = disabled,
    /// the paper's timeout-free default).
    pub suspect_after: u32,
    /// Durable journaling of the central site's mirrored events (`None` =
    /// the paper's in-memory-only protocol). With a store configured,
    /// [`Cluster::resync_mirror`] heals outages longer than one commit
    /// interval from the log, and [`Cluster::recover_site`] cold-starts
    /// mirrors from snapshot + replay without a live central seed.
    pub durability: Option<DurabilityConfig>,
    /// Elastic capacity policy (`None` = fixed mirror set). With a policy
    /// installed, the central adaptation controller emits
    /// [`ScaleDecision`]s on sustained pending-request pressure;
    /// [`Cluster::poll_scale`] turns them into mirror spawn/retire.
    pub scale: Option<ScalePolicy>,
    /// Automatic central-site failover (`None` = the paper's protocol:
    /// coordinator death needs operator intervention). With a policy
    /// installed, the central emits idle heartbeat rounds, a watcher
    /// tracks the control-downlink cadence, and
    /// [`Cluster::poll_failover`] declares death on sustained silence and
    /// self-promotes the lowest live mirror at a bumped leadership term.
    pub failover: Option<FailoverPolicy>,
    /// The ingest refusal threshold, in events queued in a site's aux
    /// inbox: [`Cluster::try_submit`] refuses with a typed
    /// [`SiteOverload`](crate::site::SiteOverload) once the central's
    /// inbox holds this many, so saturation surfaces as backpressure the
    /// producer can act on instead of unbounded queueing or silent
    /// spinning. The inbox itself stays unbounded (a site's aux thread
    /// re-enters it with checkpoint replies).
    pub inbox_capacity: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            mirrors: 1,
            kind: MirrorFnKind::Simple,
            suspect_after: 0,
            durability: None,
            scale: None,
            failover: None,
            inbox_capacity: DEFAULT_MAIN_RING_CAPACITY,
        }
    }
}

/// Point-in-time statistics for one site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteStats {
    /// Events the EDE processed.
    pub processed: u64,
    /// Events mirrored onto outgoing channels.
    pub mirrored: u64,
    /// Snapshots served.
    pub snapshots: u64,
    /// Adaptation directives applied.
    pub adaptations: u64,
    /// Mean update delay so far (µs; central only in practice).
    pub mean_update_delay_us: f64,
    /// Initial-state requests answered by this site's gateway.
    pub requests_served: u64,
    /// Mean gateway request latency, submit to reply (µs).
    pub mean_request_latency_us: f64,
    /// Gateway requests answered from the epoch-keyed snapshot cache.
    pub snapshot_cache_hits: u64,
    /// Gateway requests that had to capture the live state.
    pub snapshot_cache_misses: u64,
    /// Events applied by each EDE shard, in shard order.
    pub shard_applied: Vec<u64>,
    /// Shard load imbalance: busiest shard's applied count over the
    /// per-shard mean (1.0 = perfectly even, 0.0 = nothing applied yet).
    pub shard_imbalance: f64,
    /// Staleness gauge, in events: how far this site's applied-event count
    /// trails the central's at the stats snapshot (0 for the central row).
    /// Under selective/coalescing mirror configurations a mirror
    /// legitimately processes fewer events than the central, so a steady
    /// nonzero value here reflects thinning, not lag — watch the *trend*.
    pub staleness_events: u64,
    /// Staleness gauge, in µs: how far this site's last
    /// frontier-advancing apply trails the central's (0 for the central
    /// row, and 0 until both sites have applied at least once).
    pub staleness_us: u64,
}

/// Point-in-time statistics across a running cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// The central site.
    pub central: SiteStats,
    /// Each attached mirror, in site-id order (aligned with
    /// [`mirror_ids`](Self::mirror_ids)).
    pub mirrors: Vec<SiteStats>,
    /// The site ids the `mirrors` entries describe.
    pub mirror_ids: Vec<SiteId>,
    /// Membership epoch in force when the snapshot was taken.
    pub epoch: u64,
    /// Last committed checkpoint at the coordinator.
    pub committed: Option<mirror_core::timestamp::VectorTimestamp>,
    /// Mirrors declared failed.
    pub failed_mirrors: Vec<SiteId>,
    /// Transport link health per bridged mirror (empty for purely
    /// in-process clusters).
    pub links: Vec<(SiteId, LinkHealth)>,
    /// Edge delivery tiers attached via [`Cluster::serve_edge`], keyed by
    /// the site each one fronts (0 = central; edges re-pointed by a
    /// promotion report their new central attachment).
    pub edges: Vec<(SiteId, EdgeStats)>,
}

/// One membership change performed by [`Cluster::poll_scale`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleEvent {
    /// A fresh mirror was spawned, seeded and admitted.
    Spawned {
        /// The new mirror's site id.
        site: SiteId,
        /// Membership epoch after the admission.
        epoch: u64,
    },
    /// A mirror was retired (scale-in on quiesce).
    Retired {
        /// The retired mirror's site id.
        site: SiteId,
        /// Membership epoch after the retirement.
        epoch: u64,
    },
}

/// Read a lock, tolerating poisoning (a panicked site thread must not
/// take the whole cluster's observability down with it).
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Write counterpart of [`read`].
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// A read guard dereferencing to one attached mirror runtime (holds the
/// site table's read lock for its lifetime — don't keep it across
/// blocking waits).
pub struct MirrorRef<'a> {
    guard: RwLockReadGuard<'a, BTreeMap<SiteId, MirrorSite>>,
    site: SiteId,
}

impl std::ops::Deref for MirrorRef<'_> {
    type Target = MirrorSite;
    fn deref(&self) -> &MirrorSite {
        &self.guard[&self.site]
    }
}

/// A running in-process cluster.
///
/// All membership operations take `&self`: the site tables live behind
/// read-write locks and the membership registry swaps immutable
/// epoch-stamped views, so concurrent readers (stats, routing, waits)
/// never block a membership change for long and never observe a
/// half-applied one.
pub struct Cluster {
    clock: RuntimeClock,
    central: RwLock<CentralSite>,
    /// Attached mirror runtimes by site id. Retired sites are removed;
    /// failed (suspect) sites remain attached — stopped — until a rejoin
    /// replaces them, matching the paper's recovery story.
    sites: RwLock<BTreeMap<SiteId, MirrorSite>>,
    /// Epoch-stamped membership: the single source of truth for which
    /// sites exist and in what lifecycle state.
    membership: MembershipRegistry,
    /// The scale policy the cluster was started with (bounds re-checked at
    /// [`poll_scale`](Self::poll_scale) time).
    scale: Option<ScalePolicy>,
    /// Kept so late mirror processes (e.g. over a bridge) can join. The
    /// data channel carries [`SharedEvent`]s: one publish per mirrored
    /// event, one `Arc` clone per subscriber, one wire encoding across
    /// every attached bridge.
    data: EventChannel<SharedEvent>,
    ctrl_down: EventChannel<ControlMsg>,
    ctrl_up: EventChannel<ControlMsg>,
    /// The durable-store configuration the cluster was started with, kept
    /// for [`recover_site`](Cluster::recover_site).
    durability: Option<DurabilityConfig>,
    /// Failover policy the cluster was started with (`None` = manual).
    failover: Option<FailoverPolicy>,
    /// The leadership term of the coordinator currently in force. Bumped
    /// by every promotion; the successor coordinates at the new term and
    /// stale-term frames from the fenced predecessor are rejected
    /// everywhere.
    term: AtomicU64,
    /// Observed CHKPT/COMMIT cadence on the control downlink (fed by the
    /// watcher thread when failover is armed).
    cadence: Arc<CtrlCadence>,
    /// Admission gate shared with request gateways: closed for the span
    /// of a takeover so initial-state requests park instead of racing the
    /// coordinator swap.
    request_gate: Arc<RequestGate>,
    /// Serializes promotions (manual and automatic): two racing takeovers
    /// must resolve to one coherent coordinator, never a wedge.
    promotion: parking_lot::Mutex<()>,
    /// Control-downlink watcher thread (failover armed only) and the
    /// close handle of the subscription it reads.
    watcher: parking_lot::Mutex<Option<(Closer, std::thread::JoinHandle<()>)>>,
    /// Configured ingest refusal threshold, applied to every central this
    /// cluster starts (at start-up and on promotion).
    inbox_capacity: usize,
    /// Edge delivery tiers attached via [`serve_edge`](Self::serve_edge),
    /// keyed by the site each one fronts. Promotions re-point entries
    /// attached to the promoted site at the successor central.
    edges: parking_lot::Mutex<Vec<(SiteId, Arc<EdgeServer>)>>,
}

impl Cluster {
    /// Start a cluster.
    pub fn start(cfg: ClusterConfig) -> Self {
        let clock = RuntimeClock::new();
        let data = EventChannel::new("cluster.data");
        let ctrl_down = EventChannel::new("cluster.ctrl.down");
        let ctrl_up = EventChannel::new("cluster.ctrl.up");

        // Mirrors first, so their subscriptions exist before the central
        // publishes anything.
        let mut sites = BTreeMap::new();
        for site in 1..=cfg.mirrors {
            let mut aux = MirrorConfig::default().build_mirror(site);
            aux.install_kind(cfg.kind);
            sites.insert(
                site,
                MirrorSite::start_inner(
                    MirrorHandle::new(aux),
                    clock.clone(),
                    &data,
                    &ctrl_down,
                    ctrl_up.publisher(),
                    false,
                ),
            );
        }

        let roster: Vec<SiteId> = (1..=cfg.mirrors).collect();
        let mut aux = MirrorConfig::default().build_central(roster);
        aux.install_kind(cfg.kind);
        aux.set_suspect_after(cfg.suspect_after);
        if let Some(policy) = cfg.scale {
            aux.set_scale_policy(policy);
        }
        if let Some(policy) = cfg.failover {
            // Failover infers coordinator death from control-downlink
            // silence, so silence must mean death: arm idle heartbeat
            // rounds at the policy's cadence.
            aux.set_heartbeat_after(policy.heartbeat_ticks);
        }
        let journal = cfg.durability.as_ref().map(|dcfg| {
            let journal = Journal::open(dcfg)
                .unwrap_or_else(|e| panic!("open durable store at {:?}: {e}", dcfg.dir));
            std::sync::Arc::new(journal)
        });
        let central = CentralSite::start(
            MirrorHandle::new(aux),
            clock.clone(),
            data.publisher(),
            ctrl_down.publisher(),
            &ctrl_up,
            false,
            journal,
            cfg.inbox_capacity,
        );

        let cadence = Arc::new(CtrlCadence::new(clock.now_us()));
        let watcher = cfg.failover.map(|_| {
            // The watcher is a plain downlink subscriber: it sees exactly
            // the CHKPT/COMMIT traffic the mirrors see, so its cadence
            // estimate matches what a mirror-side detector would observe.
            let sub = ctrl_down.subscribe();
            let closer = sub.closer();
            let cadence = Arc::clone(&cadence);
            let clock = clock.clone();
            let watcher = std::thread::Builder::new()
                .name("failover-watch".into())
                .spawn(move || {
                    while sub.recv().is_some() {
                        cadence.on_ctrl(clock.now_us());
                    }
                })
                .expect("spawn failover watcher");
            (closer, watcher)
        });

        Cluster {
            clock,
            central: RwLock::new(central),
            sites: RwLock::new(sites),
            membership: MembershipRegistry::new(cfg.mirrors),
            scale: cfg.scale,
            data,
            ctrl_down,
            ctrl_up,
            durability: cfg.durability,
            failover: cfg.failover,
            term: AtomicU64::new(0),
            cadence,
            request_gate: Arc::new(RequestGate::new()),
            promotion: parking_lot::Mutex::new(()),
            watcher: parking_lot::Mutex::new(watcher),
            inbox_capacity: cfg.inbox_capacity,
            edges: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &RuntimeClock {
        &self.clock
    }

    /// The central site (read guard; clone handles out of it rather than
    /// holding it across blocking work).
    pub fn central(&self) -> RwLockReadGuard<'_, CentralSite> {
        read(&self.central)
    }

    /// The mirror runtime for `site`, if one is attached.
    pub fn try_mirror(&self, site: SiteId) -> Option<MirrorRef<'_>> {
        let guard = read(&self.sites);
        guard.contains_key(&site).then_some(MirrorRef { guard, site })
    }

    /// The mirror runtime for `site`. Panics if no such site is attached —
    /// a convenience for tests and examples that just created the site;
    /// fallible callers use [`try_mirror`](Self::try_mirror).
    pub fn mirror(&self, site: SiteId) -> MirrorRef<'_> {
        self.try_mirror(site).unwrap_or_else(|| panic!("no mirror with site id {site}"))
    }

    /// Site ids with an attached mirror runtime, ascending (includes
    /// stopped/suspect sites awaiting rejoin; excludes retired ones).
    pub fn mirror_ids(&self) -> Vec<SiteId> {
        read(&self.sites).keys().copied().collect()
    }

    /// The current membership view (cheap `Arc` clone; see
    /// [`MembershipView`]).
    pub fn membership(&self) -> std::sync::Arc<MembershipView> {
        self.membership.view()
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// The intra-cluster channels (for attaching bridged remote mirrors).
    pub fn channels(
        &self,
    ) -> (&EventChannel<SharedEvent>, &EventChannel<ControlMsg>, &EventChannel<ControlMsg>) {
        (&self.data, &self.ctrl_down, &self.ctrl_up)
    }

    /// Submit one source event to the central site.
    pub fn submit(&self, event: Event) {
        read(&self.central).submit(event);
    }

    /// Submit one source event unless the central site's ingest pipeline
    /// is saturated — the backpressure-aware variant of
    /// [`submit`](Self::submit). Refusals carry the observed depth and the
    /// configured [`ClusterConfig::inbox_capacity`]; accepted events are
    /// never dropped. See [`CentralSite::try_submit`].
    pub fn try_submit(&self, event: Event) -> Result<(), crate::site::SiteOverload> {
        read(&self.central).try_submit(event)
    }

    /// Attach a massive-fan-out edge delivery tier to `site` (0 = the
    /// central): every state-changing update the site's EDE applies is
    /// published into a fresh [`EdgeServer`], which fans it to its
    /// subscribers with per-client conflation and sequence/ack resume, and
    /// reseeds late or gapped clients from the site's live state
    /// (frontier-before-freeze capture, same as the request gateway).
    ///
    /// The returned server is also registered with the cluster:
    /// [`stats`](Self::stats) reports its [`EdgeStats`], a promotion of
    /// `site` re-points it at the successor central, and
    /// [`shutdown`](Self::shutdown) stops it.
    pub fn serve_edge(
        &self,
        site: SiteId,
        cfg: EdgeConfig,
    ) -> Result<Arc<EdgeServer>, MembershipError> {
        let (provider, updates): (Box<dyn mirror_edge::StateProvider>, Subscriber<Event>) =
            if site == mirror_core::CENTRAL_SITE {
                let central = read(&self.central);
                (
                    Box::new(crate::statesync::SyncStateProvider(central.state_sync())),
                    central.subscribe_updates(),
                )
            } else {
                match self.try_mirror(site) {
                    Some(m) => (
                        Box::new(crate::statesync::SyncStateProvider(m.state_sync())),
                        m.subscribe_updates(),
                    ),
                    None => {
                        return Err(match self.membership.view().state_of(site) {
                            Some(SiteState::Retired) => MembershipError::Retired(site),
                            Some(_) => MembershipError::NotLive(site),
                            None => MembershipError::UnknownSite(site),
                        })
                    }
                }
            };
        let edge = Arc::new(EdgeServer::start(cfg, provider));
        edge.pump_from(updates);
        self.edges.lock().push((site, Arc::clone(&edge)));
        Ok(edge)
    }

    /// Point-in-time stats for every edge tier attached via
    /// [`serve_edge`](Self::serve_edge), keyed by the site it fronts.
    pub fn edge_stats(&self) -> Vec<(SiteId, EdgeStats)> {
        self.edges.lock().iter().map(|(s, e)| (*s, e.counters().snapshot())).collect()
    }

    /// Subscribe to the regular-client update stream.
    pub fn subscribe_updates(&self) -> Subscriber<Event> {
        read(&self.central).subscribe_updates()
    }

    /// Serve an initial-state request from the given site (0 = central —
    /// any site can answer, which is the point of mirroring).
    pub fn snapshot(&self, site: SiteId) -> Result<Snapshot, MembershipError> {
        if site == mirror_core::CENTRAL_SITE {
            return Ok(read(&self.central).snapshot());
        }
        match self.try_mirror(site) {
            Some(m) => Ok(m.snapshot()),
            None => match self.membership.view().state_of(site) {
                Some(SiteState::Retired) => Err(MembershipError::Retired(site)),
                Some(_) => Err(MembershipError::NotLive(site)),
                None => Err(MembershipError::UnknownSite(site)),
            },
        }
    }

    /// A point-in-time statistics snapshot across the cluster.
    pub fn stats(&self) -> ClusterStats {
        use std::sync::atomic::Ordering;
        let site = |c: &crate::site::SiteCounters,
                    shard_applied: Vec<u64>,
                    shard_imbalance: f64,
                    central_frontier: Option<(u64, u64)>| {
            // The per-mirror staleness gauge: applied-frontier lag behind
            // the central, in events and in wall time. `None` marks the
            // central's own row (always 0 by definition).
            let (staleness_events, staleness_us) = match central_frontier {
                None => (0, 0),
                Some((central_processed, central_apply_us)) => {
                    let apply_us = c.last_apply_us.load(Ordering::Relaxed);
                    let us = if apply_us == 0 || central_apply_us == 0 {
                        0 // one side has not applied yet: no signal
                    } else {
                        central_apply_us.saturating_sub(apply_us)
                    };
                    (central_processed.saturating_sub(c.processed.load(Ordering::Relaxed)), us)
                }
            };
            SiteStats {
                processed: c.processed.load(Ordering::Relaxed),
                mirrored: c.mirrored.load(Ordering::Relaxed),
                snapshots: c.snapshots.load(Ordering::Relaxed),
                adaptations: c.adaptations.load(Ordering::Relaxed),
                mean_update_delay_us: c.mean_delay_us(),
                requests_served: c.requests_served.load(Ordering::Relaxed),
                mean_request_latency_us: c.mean_request_latency_us(),
                snapshot_cache_hits: c.snapshot_cache_hits.load(Ordering::Relaxed),
                snapshot_cache_misses: c.snapshot_cache_misses.load(Ordering::Relaxed),
                shard_applied,
                shard_imbalance,
                staleness_events,
                staleness_us,
            }
        };
        let central = read(&self.central);
        let sites = read(&self.sites);
        let frontier = (
            central.counters().processed.load(Ordering::Relaxed),
            central.counters().last_apply_us.load(Ordering::Relaxed),
        );
        ClusterStats {
            central: site(
                central.counters(),
                central.shard_applied(),
                central.shard_imbalance(),
                None,
            ),
            mirrors: sites
                .values()
                .map(|m| site(m.counters(), m.shard_applied(), m.shard_imbalance(), Some(frontier)))
                .collect(),
            mirror_ids: sites.keys().copied().collect(),
            epoch: self.membership.epoch(),
            committed: central.committed(),
            failed_mirrors: central.failed_mirrors(),
            links: central.link_health(),
            edges: self.edge_stats(),
        }
    }

    /// EDE state hashes: central first, then each attached mirror in
    /// site-id order.
    pub fn state_hashes(&self) -> Vec<u64> {
        let mut out = vec![read(&self.central).state_hash()];
        out.extend(read(&self.sites).values().map(|m| m.state_hash()));
        out
    }

    /// Block until every attached site's EDE has processed at least `n`
    /// events or the timeout expires; returns whether the target was
    /// reached. (Mirrors under selective/coalescing configurations see
    /// fewer events than the central — pass per-site expectations via
    /// `predicate` variants in tests when needed.)
    pub fn wait_all_processed(&self, n: u64, timeout: Duration) -> bool {
        self.wait(timeout, |c| {
            read(&c.central).processed() >= n && read(&c.sites).values().all(|m| m.processed() >= n)
        })
    }

    /// Block until `predicate` holds or the timeout expires.
    pub fn wait(&self, timeout: Duration, predicate: impl Fn(&Cluster) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if predicate(self) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        predicate(self)
    }

    /// Simulate a mirror crash (test/ops hook): mark the site suspect in
    /// the membership view (epoch bumped) and stop its threads; its
    /// subscriptions drop and it stops answering checkpoint rounds, so
    /// the coordinator's failure detector (if enabled) will exclude it.
    pub fn fail_mirror(&self, site: SiteId) -> Result<(), MembershipError> {
        let epoch = self.membership.suspect(site)?;
        read(&self.central).set_membership_epoch(epoch);
        if let Some(m) = write(&self.sites).get_mut(&site) {
            m.stop();
        }
        Ok(())
    }

    /// Mirrors the coordinator has declared failed.
    pub fn failed_mirrors(&self) -> Vec<SiteId> {
        read(&self.central).failed_mirrors()
    }

    /// Register the link monitor serving a bridged mirror so
    /// [`stats`](Self::stats) reports its health.
    pub fn attach_link_monitor(&self, site: SiteId, monitor: std::sync::Arc<LinkMonitor>) {
        read(&self.central).attach_link_monitor(site, monitor);
    }

    /// Per-mirror transport link health (bridged mirrors only).
    pub fn link_health(&self) -> Vec<(SiteId, LinkHealth)> {
        read(&self.central).link_health()
    }

    /// Escalate a dead transport link into checkpoint-round exclusion
    /// (see [`CentralSite::declare_link_dead`]).
    pub fn declare_link_dead(&self, site: SiteId) {
        read(&self.central).declare_link_dead(site);
    }

    /// Replay the retained suffix from send index `from_idx` onto the
    /// shared data channel. A mirror that reconnected after an outage
    /// longer than its link's retransmit window catches up this way; sites
    /// that already processed the events absorb the replays idempotently
    /// (stale vector stamps do not advance EDE state).
    ///
    /// The in-memory backup queue serves outages shorter than one commit
    /// interval; past that, the durable event log (if the cluster was
    /// started with a [`DurabilityConfig`]) serves the rest. When neither
    /// retains `from_idx`, the result is [`ResyncOutcome::Gap`] — replay
    /// would silently skip events, so the caller must seed a snapshot
    /// instead ([`rejoin_mirror`](Self::rejoin_mirror) /
    /// [`recover_site`](Self::recover_site)).
    pub fn resync_mirror(&self, from_idx: u64) -> ResyncOutcome {
        Self::resync_with(&read(&self.central), &self.data, from_idx)
    }

    /// [`resync_mirror`](Self::resync_mirror) against an already-held
    /// central guard (so membership operations never re-enter the lock).
    fn resync_with(
        central: &CentralSite,
        data: &EventChannel<SharedEvent>,
        from_idx: u64,
    ) -> ResyncOutcome {
        // Floor check and retransmission under ONE aux lock: checkpoint
        // commits prune under the same lock, so a commit landing between a
        // separate check and replay could move the floor past `from_idx`
        // and turn the "replayed" result into a silent gap.
        let (floor, events) = central.handle().with(|a| {
            let floor = a.truncation_floor();
            let events = (from_idx >= floor).then(|| a.retransmit_from(from_idx));
            (floor, events)
        });
        let (entries, source) = match events {
            Some(events) => (events, ResyncSource::Memory),
            // The queue was pruned past from_idx: fall back to the log.
            None => {
                let Some(journal) = central.journal() else {
                    return ResyncOutcome::Gap { first_retained: Some(floor) };
                };
                let log_first = journal.first_retained_idx();
                if log_first.is_none_or(|first| first > from_idx) {
                    return ResyncOutcome::Gap {
                        first_retained: log_first.map(|f| f.min(floor)).or(Some(floor)),
                    };
                }
                match journal.replay_from(from_idx) {
                    Ok(entries) => (entries, ResyncSource::DurableLog),
                    Err(_) => return ResyncOutcome::Gap { first_retained: log_first },
                }
            }
        };
        // One run; replays share the retained allocation (Arc), like the
        // original sends did.
        let run: Vec<SharedEvent> = entries.into_iter().map(|(_, e)| SharedEvent::new(e)).collect();
        data.publisher().publish_all(&run);
        ResyncOutcome::Replayed { events: run.len(), source }
    }

    /// Start the runtime of a mirror that joins, or replaces one, under
    /// `central`: its aux unit is derived from the coordinator's
    /// ([`AuxUnit::joining_mirror`](mirror_core::AuxUnit::joining_mirror)),
    /// and it subscribes at once but buffers until the caller seeds it, so
    /// nothing published from here on is missed.
    fn spawn_replacement(&self, central: &CentralSite, site: SiteId) -> MirrorSite {
        let aux = central.handle().with(|a| a.joining_mirror(site));
        MirrorSite::start_inner(
            MirrorHandle::new(aux),
            self.clock.clone(),
            &self.data,
            &self.ctrl_down,
            self.ctrl_up.publisher(),
            true,
        )
    }

    /// Spawn a **fresh** mirror at the next never-used site id, mid-traffic
    /// and with no exclusive cluster access — the elastic scale-out path:
    ///
    /// 1. the new site subscribes to the data/control channels first
    ///    (missing nothing published after this point);
    /// 2. it is seeded from the central's cached seed frame (one capture
    ///    shared across an admission burst, see
    ///    [`CentralSite::seed_snapshot`]) and the data channel is replayed
    ///    from the truncation floor recorded at that frame's capture —
    ///    memory first, durable log past it — so the bounded-stale seed
    ///    converges; replayed events are absorbed idempotently by every
    ///    live site;
    /// 3. membership admits the site (bumping the epoch) and the
    ///    checkpoint coordinator gates rounds on it from the next
    ///    proposal, stamping `CHKPT`/`COMMIT` with the new epoch.
    ///
    /// The mirror inherits the central's *current* mirror parameters and
    /// rules — including any in-force adaptation directive and its
    /// generation — not the start-up defaults.
    ///
    /// Returns the new site id.
    pub fn add_mirror(&self) -> Result<SiteId, MembershipError> {
        let site = self.membership.next_site_id();
        let central = read(&self.central);
        let replacement = self.spawn_replacement(&central, site);
        // Subscriptions are live; seed from the shared cached frame.
        let (served, floor) = central.seed_snapshot();
        let seed_as_of = served.as_of.clone();
        replacement.seed(served.into_snapshot().into_state(), seed_as_of.clone());
        // Bridge the cached capture to subscribe-time: replay from the
        // floor recorded at the capture. On a gap (floor pruned from
        // memory AND log meanwhile) catch up with a delta from the seed's
        // frontier — the seed capture is a marked delta base, so only the
        // flights that changed since move; if the base was forgotten, fall
        // back to a fresh full capture, which is taken after the
        // subscriptions and therefore needs no replay.
        if let ResyncOutcome::Gap { .. } = Self::resync_with(&central, &self.data, floor) {
            match central.state_sync().delta_since(&seed_as_of) {
                Some((delta, _hit)) => replacement.apply_delta(delta.into_delta()),
                None => {
                    let fresh = central.state_sync().capture_now();
                    let frontier = fresh.as_of.clone();
                    replacement.seed(fresh.into_snapshot().into_state(), frontier);
                }
            }
        }
        let epoch = self.membership.admit(site)?;
        central.admit_mirror(site, epoch);
        write(&self.sites).insert(site, replacement);
        Ok(site)
    }

    /// Reserve and admit the next never-used site id for a mirror
    /// *process* attaching over a bridge: the cluster runs no local
    /// threads for it, but checkpoint rounds gate on it from the next
    /// proposal at the bumped epoch, and the remote endpoint attaches its
    /// channels against that live epoch.
    pub fn admit_bridged_mirror(&self) -> Result<SiteId, MembershipError> {
        let site = self.membership.next_site_id();
        let epoch = self.membership.admit(site)?;
        read(&self.central).admit_mirror(site, epoch);
        Ok(site)
    }

    /// Permanently retire a mirror (scale-in): membership moves it to
    /// [`SiteState::Retired`] (its id is never reused), the checkpoint
    /// coordinator drops it from round completion *without* marking it
    /// failed, and its threads stop. In-flight rounds it was gating
    /// restart via the coordinator's wedge detection.
    pub fn retire_mirror(&self, site: SiteId) -> Result<(), MembershipError> {
        let epoch = self.membership.retire(site)?;
        read(&self.central).retire_mirror(site, epoch);
        let removed = write(&self.sites).remove(&site);
        if let Some(mut m) = removed {
            m.stop();
        }
        Ok(())
    }

    /// Drain the adaptation controller's pending [`ScaleDecision`]s and
    /// apply them: spawn on sustained pressure, retire the newest live
    /// mirror on sustained quiesce (bounds re-checked against the current
    /// membership view, so a stale directive cannot retire below the
    /// policy floor). Returns the membership changes performed.
    ///
    /// Centralized decision, caller-paced application: any thread holding
    /// the shared cluster may pump this — no `&mut Cluster` required.
    pub fn poll_scale(&self) -> Vec<ScaleEvent> {
        let directives = read(&self.central).take_scale_directives();
        let mut events = Vec::new();
        for d in directives {
            match d {
                ScaleDecision::SpawnMirror => {
                    if let Ok(site) = self.add_mirror() {
                        events.push(ScaleEvent::Spawned { site, epoch: self.membership.epoch() });
                    }
                }
                ScaleDecision::RetireMirror => {
                    let min = self.scale.map(|p| p.min_mirrors).unwrap_or(1);
                    let live = self.membership.view().live_mirrors();
                    if live.len() > min {
                        if let Some(&site) = live.last() {
                            if self.retire_mirror(site).is_ok() {
                                events.push(ScaleEvent::Retired {
                                    site,
                                    epoch: self.membership.epoch(),
                                });
                            }
                        }
                    }
                }
            }
        }
        events
    }

    /// Replace a failed mirror with a fresh one recovered from the central
    /// site's state (the paper's §6 recovery extension): the replacement
    /// subscribes first (missing nothing), is seeded with a snapshot from
    /// the central EDE, replays anything that arrived meanwhile, and is
    /// readmitted into checkpoint rounds at a bumped membership epoch.
    pub fn rejoin_mirror(&self, site: SiteId) -> Result<(), MembershipError> {
        let epoch = self.membership.restore(site)?;
        let central = read(&self.central);
        central.set_membership_epoch(epoch);
        let replacement = self.spawn_replacement(&central, site);
        // Subscriptions are live; now capture the recovery state and seed.
        // The capture must be *fresh* (no cached frame): rejoin replays no
        // floor, so a pre-subscribe capture would leave a silent gap
        // between its frontier and subscribe-time.
        let snapshot = central.state_sync().capture_now();
        let frontier = snapshot.as_of.clone();
        // By-value restore: the captured flight map moves into the seed
        // instead of being deep-cloned a second time.
        replacement.seed(snapshot.into_snapshot().into_state(), frontier);
        central.readmit_mirror(site);
        write(&self.sites).insert(site, replacement);
        Ok(())
    }

    /// Persist the central EDE state as the durable recovery snapshot
    /// (atomic replace). Bounds [`recover_site`](Self::recover_site)'s
    /// replay work to the log suffix after this point. Returns the number
    /// of flights captured; errors if the cluster has no durable store.
    pub fn persist_snapshot(&self) -> std::io::Result<usize> {
        read(&self.central).persist_snapshot()
    }

    /// Cold-start recovery of a mirror from the durable store — no live
    /// seed from the central EDE required (contrast
    /// [`rejoin_mirror`](Self::rejoin_mirror), which snapshots the running
    /// central): the replacement subscribes first (missing nothing), its
    /// state is rebuilt from the persisted snapshot plus a full replay of
    /// the retained log suffix, and it is readmitted into checkpoint
    /// rounds at a bumped membership epoch. Stale replays are absorbed by
    /// the EDE's idempotent per-flight guards, so over-replay converges to
    /// the live peers' state hash.
    ///
    /// Returns the number of log entries replayed into the recovered
    /// state. Errors with [`MembershipError::NoDurableStore`] if the
    /// cluster was started without a [`DurabilityConfig`], or
    /// [`MembershipError::Store`] if the store cannot be read.
    pub fn recover_site(&self, site: SiteId) -> Result<usize, MembershipError> {
        let dir = self
            .durability
            .as_ref()
            .map(|d| d.dir.clone())
            .ok_or(MembershipError::NoDurableStore)?;
        let epoch = self.membership.restore(site)?;
        let central = read(&self.central);
        central.set_membership_epoch(epoch);
        let replacement = self.spawn_replacement(&central, site);
        // Subscriptions are live; rebuild state from disk and seed it.
        // Anything published between here and the seed install is buffered
        // by the awaiting-seed site and replayed on top.
        //
        // With a live journal the recovery read MUST go through it: its
        // lock-protected EventLog serves the replay, so concurrent
        // publishes keep journaling safely. `mirror_store::recover` —
        // which opens a second EventLog on the directory and runs
        // *destructive* crash repair, corrupting a log that is still being
        // appended to — is reserved for the no-live-writer case (e.g. the
        // journaled central was stopped, or replaced by promotion).
        let recovered = match central.journal() {
            Some(j) => j.recover()?,
            None => mirror_store::recover(&dir)?,
        };
        replacement.seed(recovered.state, recovered.frontier);
        central.readmit_mirror(site);
        write(&self.sites).insert(site, replacement);
        Ok(recovered.replayed)
    }

    /// Gracefully stop the central site (ops hook, e.g. for planned node
    /// maintenance): its threads flush their coalescing buffers and the
    /// journal (if any) drains cleanly before they exit. The stream stalls
    /// until [`promote_mirror`](Self::promote_mirror) installs a new
    /// coordinator — or, with failover armed,
    /// [`poll_failover`](Self::poll_failover) installs one automatically.
    pub fn stop_central(&self) {
        write(&self.central).stop();
    }

    /// Simulate the central *process dying* (test/chaos hook), as opposed
    /// to the graceful [`stop_central`](Self::stop_central): threads
    /// abandon queued work, coalescing buffers are lost, and the journal —
    /// if any — is left un-flushed and un-fsynced, possibly with a torn
    /// final record (exercising the durable store's crash repair on
    /// takeover). See [`CentralSite::crash`].
    pub fn crash_central(&self) {
        write(&self.central).crash();
    }

    /// The leadership term of the coordinator currently in force (0 for
    /// the original central; each promotion bumps it).
    pub fn leader_term(&self) -> u64 {
        self.term.load(Ordering::Acquire)
    }

    /// The admission gate takeovers close while the coordinator swaps.
    /// Wire it into a gateway via
    /// [`GatewayConfig::gate`](crate::requests::GatewayConfig::gate) so
    /// initial-state requests park (bounded) during failover instead of
    /// racing the swap.
    pub fn request_gate(&self) -> Arc<RequestGate> {
        Arc::clone(&self.request_gate)
    }

    /// Check the coordinator-liveness detector and, if the control
    /// downlink has been silent past the policy threshold, promote the
    /// lowest live mirror at a bumped leadership term — deterministic
    /// succession, no election: every observer ranks the same live set.
    ///
    /// Returns the transitions performed (empty without a
    /// [`FailoverPolicy`], or while the coordinator is healthy). Pump
    /// this from any thread holding the shared cluster, like
    /// [`poll_scale`](Self::poll_scale).
    pub fn poll_failover(&self) -> Vec<FailoverEvent> {
        let Some(policy) = self.failover else {
            return Vec::new();
        };
        let now = self.clock.now_us();
        let silent = self.cadence.silent_for(now);
        let threshold =
            u64::from(policy.suspect_rounds.max(1)) * self.cadence.expected_gap_us(policy.min_gap);
        if silent < threshold {
            return Vec::new();
        }
        let mut events = vec![FailoverEvent::CoordinatorDead {
            silent_for: Duration::from_micros(silent),
            term: self.term.load(Ordering::Acquire),
        }];
        // Deterministic succession: the lowest live site id takes over.
        let successor = self.membership.view().live_mirrors().first().copied();
        if let Some(site) = successor {
            if let Ok((_, replayed)) = self.promote_mirror_with(site, Duration::from_secs(2)) {
                events.push(FailoverEvent::Promoted {
                    site,
                    term: self.term.load(Ordering::Acquire),
                    epoch: self.membership.epoch(),
                    replayed,
                });
            }
        }
        // Whatever happened, restart the grace window: declaring death
        // again on the very next poll helps nobody.
        self.cadence.reset(self.clock.now_us());
        events
    }

    /// Promote a mirror to be the new central site — the deepest payoff of
    /// mirroring: every site holds the replicated state, so any of them
    /// can take over coordination. The promoted mirror's state seeds the
    /// new coordinator; the mirror itself is retired from the membership
    /// view (epoch bumped, id never reused) and the survivors keep their
    /// subscriptions (data and control flow from the new coordinator
    /// through the same channels).
    ///
    /// Returns the site ids of the live mirrors remaining under the new
    /// coordinator. Source traffic submitted after this call flows through
    /// the new central site.
    ///
    /// Uses a 2-second quiesce deadline; see
    /// [`promote_mirror_with`](Self::promote_mirror_with) for the deadline
    /// semantics and the zero-loss handoff details.
    pub fn promote_mirror(&self, site: SiteId) -> Result<Vec<SiteId>, MembershipError> {
        self.promote_mirror_with(site, Duration::from_secs(2)).map(|(survivors, _)| survivors)
    }

    /// [`promote_mirror`](Self::promote_mirror) with an explicit quiesce
    /// deadline, returning `(survivors, replayed)` where `replayed` is the
    /// number of journal entries applied beyond the successor's own
    /// frontier during zero-loss handoff (0 without durability).
    ///
    /// Takeover sequence:
    ///
    /// 1. the promotion lock serializes racing takeovers, and the cluster's
    ///    [`request_gate`](Self::request_gate) closes so initial-state
    ///    requests park (bounded) instead of racing the swap;
    /// 2. the candidate quiesces: its processed counter must hold still
    ///    for 3 consecutive 10 ms samples within `quiesce`. If the
    ///    deadline expires while the counter is still advancing, the
    ///    promotion aborts with [`MembershipError::QuiesceTimeout`] — the
    ///    mirror is left live and untouched, and the caller may retry;
    /// 3. the mirror stops, is snapshotted, and is retired (epoch bump);
    /// 4. **zero-loss handoff** (durability on): the successor adopts the
    ///    journal — reusing the live one after a graceful
    ///    [`stop_central`](Self::stop_central), or reopening the directory
    ///    (running torn-write crash repair) after
    ///    [`crash_central`](Self::crash_central) — replays the retained
    ///    log beyond its own frontier, and republishes the tail on the
    ///    data channel for the surviving mirrors (idempotent absorption);
    /// 5. the new coordinator starts at a **bumped leadership term**,
    ///    resuming the journal's send-index sequence, and every site
    ///    rejects control frames from the fenced predecessor's lower term.
    pub fn promote_mirror_with(
        &self,
        site: SiteId,
        quiesce: Duration,
    ) -> Result<(Vec<SiteId>, usize), MembershipError> {
        let _promotion = self.promotion.lock();
        match self.membership.view().state_of(site) {
            Some(SiteState::Live) => {}
            Some(SiteState::Suspect) => return Err(MembershipError::NotLive(site)),
            Some(SiteState::Retired) => return Err(MembershipError::Retired(site)),
            None => return Err(MembershipError::UnknownSite(site)),
        }

        // Park initial-state serving for the takeover window; reopen on
        // every exit path (including the error returns below).
        struct OpenOnDrop<'a>(&'a RequestGate);
        impl Drop for OpenOnDrop<'_> {
            fn drop(&mut self) {
                self.0.open();
            }
        }
        self.request_gate.close();
        let _reopen = OpenOnDrop(&self.request_gate);

        // Retire the promoted mirror FIRST, after quiescing: wait for its
        // processed counter to stop advancing (a central still publishing
        // keeps it moving), then stop() — which applies every event
        // published to its subscriptions before the threads exit — then
        // snapshot. The seed thus includes every event the old central
        // broadcast, so the new coordinator is not behind the survivors.
        let mut last = self.mirror(site).processed();
        let mut stable = 0;
        let deadline = Instant::now() + quiesce;
        while stable < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
            let now = self.mirror(site).processed();
            if now == last {
                stable += 1;
            } else {
                stable = 0;
                last = now;
            }
        }
        if stable < 3 {
            // Deadline expired while the candidate was still applying:
            // promoting now would seed the new coordinator from a state
            // that is provably behind the stream. Abort before touching
            // membership — the mirror keeps running.
            return Err(MembershipError::QuiesceTimeout { site, processed: last });
        }
        let mut promoted =
            write(&self.sites).remove(&site).ok_or(MembershipError::UnknownSite(site))?;
        promoted.stop();
        let snapshot = promoted.snapshot();

        let epoch = self.membership.retire(site)?;
        let survivors = self.membership.view().live_mirrors();

        // The successor takes over the journal, if the cluster keeps one.
        let journal = match &self.durability {
            None => None,
            Some(dcfg) => match read(&self.central).journal() {
                // Graceful handoff: the journal is healthy — the
                // successor simply takes over the live writer.
                Some(j) if !j.is_crashed() => Some(Arc::clone(j)),
                // The old central crashed (or somehow ran without a
                // journal): its writer is gone and its log abandoned,
                // so reopening the directory is safe — and runs the
                // store's torn-write crash repair over whatever the
                // dead process left behind.
                _ => Some(Arc::new(Journal::open(dcfg)?)),
            },
        };

        // Zero-loss handoff: replay the retained log onto the successor's
        // snapshot. Entries at or below its frontier are absorbed
        // idempotently; entries beyond it are exactly the events the dead
        // central journaled but this mirror never received — counted, and
        // republished on the data channel so the surviving mirrors catch
        // up the same way.
        let mut frontier = snapshot.as_of.clone();
        let mut state = snapshot.into_state();
        let mut replayed = 0usize;
        if let Some(j) = &journal {
            let mut run = Vec::new();
            for (_, e) in j.replay_from(0)? {
                if !e.stamp.dominated_by(&frontier) {
                    replayed += 1;
                }
                state.apply(&e);
                frontier.merge(&e.stamp);
                run.push(SharedEvent::new(e));
            }
            self.data.publisher().publish_all(&run);
        }

        // New coordinator: its aux unit is derived from the predecessor's
        // (configuration carried, incarnation state reset — see
        // `AuxUnit::successor`), coordinating the surviving live sites at
        // the bumped epoch. Fencing: it coordinates at a strictly higher
        // term, so replies to the old coordinator's rounds, or CHKPT/COMMIT
        // frames from a resurrected old central, carry a lower term and
        // are rejected by the checkpointer and by every mirror. Journal
        // indices must stay monotone across coordinators: continue the
        // sequence, don't restart at 1.
        let new_term = self.term.fetch_add(1, Ordering::AcqRel) + 1;
        let resume_idx = journal.as_ref().and_then(|j| j.last_idx()).map_or(0, |last| last + 1);
        let aux = read(&self.central)
            .handle()
            .with(|a| a.successor(survivors.clone(), epoch, new_term, resume_idx));
        // Seeded from the promoted mirror's state; its subscriptions
        // (ctrl-up) attach before any new traffic flows.
        let replacement = CentralSite::start(
            MirrorHandle::new(aux),
            self.clock.clone(),
            self.data.publisher(),
            self.ctrl_down.publisher(),
            &self.ctrl_up,
            true,
            journal,
            self.inbox_capacity,
        );
        replacement.seed(state, frontier);
        *write(&self.central) = replacement;

        // Re-point edge tiers that fronted the promoted mirror at the
        // successor central: swap the reseed provider (invalidating the
        // cached reseed — a stale provider would break the edge's
        // floor-before-capture coverage argument once new events flow)
        // and pump the successor's applied-updates stream. Late or gapped
        // subscribers reseed from the successor's state; the registry
        // records the new attachment.
        let repointed: Vec<Arc<EdgeServer>> = {
            let mut edges = self.edges.lock();
            let mut out = Vec::new();
            for (s, e) in edges.iter_mut() {
                if *s == site {
                    *s = mirror_core::CENTRAL_SITE;
                    out.push(Arc::clone(e));
                }
            }
            out
        };
        if !repointed.is_empty() {
            let central = read(&self.central);
            for edge in repointed {
                edge.set_provider(Box::new(crate::statesync::SyncStateProvider(
                    central.state_sync(),
                )));
                edge.pump_from(central.subscribe_updates());
            }
        }
        // Fresh grace window for the new coordinator's first heartbeat.
        self.cadence.reset(self.clock.now_us());
        Ok((survivors, replayed))
    }

    /// Stop every site and join all threads.
    pub fn shutdown(self) {
        for (_, e) in self.edges.lock().iter() {
            e.stop();
        }
        write(&self.central).stop();
        for (_, m) in write(&self.sites).iter_mut() {
            m.stop();
        }
        // Dropping `self` joins the failover watcher (see `Drop`).
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some((closer, watcher)) = self.watcher.lock().take() {
            closer.close();
            let _ = watcher.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::{FlightStatus, PositionFix};

    fn fix() -> PositionFix {
        PositionFix { lat: 1.0, lon: 2.0, alt_ft: 30000.0, speed_kts: 450.0, heading_deg: 10.0 }
    }

    #[test]
    fn simple_mirroring_replicates_state_to_all_sites() {
        let cluster = Cluster::start(ClusterConfig { mirrors: 2, ..Default::default() });
        for seq in 1..=200u64 {
            cluster.submit(Event::faa_position(seq, (seq % 10) as u32, fix()));
        }
        assert!(
            cluster.wait_all_processed(200, Duration::from_secs(5)),
            "all sites must process 200 events; got central={} mirrors={:?}",
            cluster.central().processed(),
            cluster.mirror_ids().iter().map(|&s| cluster.mirror(s).processed()).collect::<Vec<_>>()
        );
        let hashes = cluster.state_hashes();
        assert!(hashes.windows(2).all(|w| w[0] == w[1]), "hashes diverged: {hashes:?}");
        cluster.shutdown();
    }

    #[test]
    fn regular_clients_receive_updates() {
        let cluster = Cluster::start(ClusterConfig::default());
        let updates = cluster.subscribe_updates();
        for seq in 1..=50u64 {
            cluster.submit(Event::faa_position(seq, 1, fix()));
        }
        let mut got = 0;
        while got < 50 {
            match updates.recv_timeout(Duration::from_secs(5)) {
                Some(_) => got += 1,
                None => break,
            }
        }
        assert_eq!(got, 50);
        // An apply worker publishes each update as it applies it and adds
        // to the counters once per batch, `processed` before the delays.
        assert!(cluster.wait_all_processed(50, Duration::from_secs(5)));
        assert!(cluster.central().counters().mean_delay_us() > 0.0);
        cluster.shutdown();
    }

    #[test]
    fn thin_client_recovers_from_mirror_snapshot() {
        let cluster = Cluster::start(ClusterConfig::default());
        for seq in 1..=100u64 {
            cluster.submit(Event::faa_position(seq, (seq % 5) as u32, fix()));
        }
        cluster.submit(Event::delta_status(1, 2, FlightStatus::Landed));
        assert!(cluster.wait_all_processed(101, Duration::from_secs(5)));
        let snap = cluster.snapshot(1).expect("site 1 is live");
        assert_eq!(snap.flight_count(), 5);
        let restored = snap.restore();
        assert_eq!(restored.state_hash(), cluster.state_hashes()[1]);
        cluster.shutdown();
    }

    #[test]
    fn checkpoints_prune_backup_queues_at_runtime() {
        let cluster = Cluster::start(ClusterConfig::default());
        cluster.central().handle().set_params(false, 1, 10); // checkpoint every 10
        for seq in 1..=100u64 {
            cluster.submit(Event::faa_position(seq, 1, fix()));
        }
        assert!(cluster.wait_all_processed(100, Duration::from_secs(5)));
        // Give the final checkpoint round a moment to commit.
        let committed = cluster.wait(Duration::from_secs(5), |c| {
            c.central().committed().map(|t| t.get(0) >= 90).unwrap_or(false)
        });
        assert!(committed, "checkpoint must commit most of the stream");
        let backup_len = cluster.central().handle().with(|a| a.backup_len());
        assert!(backup_len <= 20, "backup queue must be pruned, len={backup_len}");
        cluster.shutdown();
    }

    #[test]
    fn stats_snapshot_reflects_activity() {
        let cluster = Cluster::start(ClusterConfig::default());
        for seq in 1..=60u64 {
            cluster.submit(Event::faa_position(seq, 1, fix()));
        }
        assert!(cluster.wait_all_processed(60, Duration::from_secs(5)));
        let _ = cluster.snapshot(1).unwrap();
        let stats = cluster.stats();
        assert_eq!(stats.central.processed, 60);
        assert_eq!(stats.central.mirrored, 60);
        assert_eq!(stats.mirrors.len(), 1);
        assert_eq!(stats.mirror_ids, vec![1]);
        assert_eq!(stats.epoch, 0, "no membership change yet");
        assert_eq!(stats.mirrors[0].processed, 60);
        assert_eq!(stats.mirrors[0].snapshots, 1);
        assert!(stats.failed_mirrors.is_empty());
        assert!(stats.central.mean_update_delay_us > 0.0);
        assert_eq!(
            stats.central.shard_applied.iter().sum::<u64>(),
            60,
            "per-shard counters must account for every applied event"
        );
        assert!(stats.central.shard_imbalance >= 1.0);
        assert_eq!(stats.mirrors[0].shard_applied.iter().sum::<u64>(), 60);
        cluster.shutdown();
    }

    #[test]
    fn selective_mirroring_thins_mirror_traffic_live() {
        let cluster = Cluster::start(ClusterConfig {
            mirrors: 1,
            kind: MirrorFnKind::Selective { overwrite: 10 },
            ..Default::default()
        });
        for seq in 1..=100u64 {
            cluster.submit(Event::faa_position(seq, 7, fix()));
        }
        // Central processes all 100; the mirror only the overwrite
        // survivors (~10).
        assert!(cluster.wait(Duration::from_secs(5), |c| c.central().processed() >= 100));
        assert!(cluster.wait(Duration::from_secs(5), |c| c.mirror(1).processed() >= 10));
        std::thread::sleep(Duration::from_millis(50));
        let mirror_seen = cluster.mirror(1).processed();
        assert!(mirror_seen <= 15, "mirror saw {mirror_seen} events, expected ~10");
        cluster.shutdown();
    }

    #[test]
    fn add_mirror_mid_stream_converges_and_retires() {
        let cluster = Cluster::start(ClusterConfig::default());
        for seq in 1..=80u64 {
            cluster.submit(Event::faa_position(seq, (seq % 4) as u32, fix()));
        }
        assert!(cluster.wait_all_processed(80, Duration::from_secs(5)));

        let site = cluster.add_mirror().expect("spawn mid-stream");
        assert_eq!(site, 2, "next never-used id");
        assert_eq!(cluster.epoch(), 1, "admission bumps the epoch");
        assert!(cluster.membership().is_live(site));

        for seq in 81..=140u64 {
            cluster.submit(Event::faa_position(seq, (seq % 4) as u32, fix()));
        }
        // The seeded site converges: same frontier, same state hash.
        let converged = cluster.wait(Duration::from_secs(5), |c| {
            let h = c.state_hashes();
            h.len() == 3 && h.windows(2).all(|w| w[0] == w[1])
        });
        assert!(converged, "new mirror must converge: {:?}", cluster.state_hashes());

        cluster.retire_mirror(site).expect("retire");
        assert_eq!(cluster.epoch(), 2, "retirement bumps the epoch");
        assert_eq!(cluster.mirror_ids(), vec![1]);
        assert!(
            matches!(cluster.snapshot(site), Err(MembershipError::Retired(2))),
            "retired ids answer with a typed error"
        );
        cluster.shutdown();
    }

    #[test]
    fn membership_errors_replace_index_panics() {
        let cluster = Cluster::start(ClusterConfig::default());
        assert_eq!(cluster.fail_mirror(9), Err(MembershipError::UnknownSite(9)));
        assert_eq!(cluster.rejoin_mirror(9), Err(MembershipError::UnknownSite(9)));
        assert_eq!(cluster.promote_mirror(9), Err(MembershipError::UnknownSite(9)));
        assert!(matches!(cluster.snapshot(9), Err(MembershipError::UnknownSite(9))));
        assert_eq!(
            cluster.recover_site(1),
            Err(MembershipError::NoDurableStore),
            "recovery without a store is a typed error, not a panic"
        );
        cluster.shutdown();
    }
}
