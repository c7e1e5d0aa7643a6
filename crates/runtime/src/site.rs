//! Threaded site runtimes.
//!
//! A site is one **aux thread**, mirroring the paper's unit split on a
//! single thread of control:
//!
//! * it executes the auxiliary unit (receiving, sending and control
//!   tasks — the [`mirror_core::AuxUnit`] step machine behind the
//!   Table-1 [`MirrorHandle`]), translating its actions into channel
//!   publishes;
//! * and it runs the main unit's share of each run inline: forwarded
//!   events are applied straight into the Event Derivation Engine, one
//!   [`ShardedEde`] behind one lock (see DESIGN.md §16), through the
//!   site's [`ApplyPool`], and checkpoint traffic is answered against the
//!   main unit's responder.
//!
//! The aux thread drains its inbox in **runs**. It blocks for the first
//! message (waking every `FLUSH_PERIOD` when idle to flush and keep
//! checkpoints moving), then takes whatever else is already queued, up to
//! `AUX_BATCH` events. There is no linger: a lone event is a run of one
//! and is never held back waiting for company. A run goes through the
//! unit under one lock, in inbox order, into one action buffer
//! ([`AuxUnit::handle_run`](mirror_core::AuxUnit::handle_run)), so a run
//! begins at most one checkpoint round. The central publishes each
//! contiguous stretch of mirror actions in the buffer with one
//! [`Publisher::publish_all`]. A `Stop` ends the run it lands in, and a
//! crash flag seen after the run is fed routes none of its actions.
//!
//! Routing a run goes to completion on the aux thread. Forwarded events
//! are applied in run order (held back while a site started in
//! awaiting-seed mode waits for its seed), so the site's applied-updates
//! stream is published by one thread, in apply order. The apply
//! bookkeeping — the responder's processed frontier and the counters — is
//! flushed once per run, and before a CHKPT is answered, so a reply covers
//! everything routed ahead of it; the reply re-enters the site's own
//! inbox. The exclusive sections behind seed, merge, delta and purge
//! travel through the inbox too: one ends the run it lands in, and the aux
//! thread runs it after routing that run — it is the store's only writer,
//! so nothing else applies meanwhile — while its caller blocks in the
//! `recv` of a one-slot reply channel. A section thus waits out the inbox
//! backlog queued ahead of it, and its caller must be neither the aux
//! thread nor a holder of the unit lock ([`MirrorHandle::with`]), which
//! the aux thread takes to feed that backlog.
//!
//! A site's channel subscriptions are sinks
//! ([`EventChannel::subscribe_with`]) that send what a publish delivers
//! into the unbounded inbox, on the publisher's thread: no thread sits
//! between a channel and the inbox, and the aux thread blocks on the inbox
//! alone. A mirror's data sink turns a published run into one
//! `SiteMsg::Run` (a run of one stays a `SiteMsg::Data`), so a central run
//! crosses into each mirror's inbox as one message and is never split
//! there: one message may carry more than `AUX_BATCH` events. Control
//! stays one `SiteMsg::Ctrl` per message. A sink must never block, since
//! every publisher of its channel waits on it; the unbounded inbox send
//! never does. `stop()` closes the sinks — once a close returns no publish
//! can reach the inbox, because publishes hold the same lock — then queues
//! the inbox's `Stop` behind everything they delivered: every event
//! published to a site before `stop()` is applied. `crash()` sets the
//! crash flag first; the sinks then refuse, and the aux thread abandons
//! the inbox and applies nothing more.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Sender};
use parking_lot::Mutex;

use mirror_core::adapt::{MonitorReport, ScaleDecision};
use mirror_core::api::MirrorHandle;
use mirror_core::aux_unit::{AuxAction, AuxInput, SiteId};
use mirror_core::checkpoint::MainUnitResponder;
use mirror_core::event::Event;
use mirror_core::queue::QueueStats;
use mirror_core::timestamp::VectorTimestamp;
use mirror_core::ControlMsg;
use mirror_echo::channel::{Closer, EventChannel, Publisher, Subscriber};
use mirror_echo::resilient::{LinkEvent, LinkHealth, LinkMonitor};
use mirror_ede::{OperationalState, ShardedEde, Snapshot};

use crate::applypool::{ApplyPool, ApplyPoolConfig, ApplySink};
use crate::clock::RuntimeClock;
use crate::durability::Journal;
use crate::statesync::{ServedSnapshot, SnapshotCachePolicy, StateSync};

/// How often an idle aux thread flushes coalescing buffers.
const FLUSH_PERIOD: Duration = Duration::from_millis(20);

/// Most events the aux thread feeds through its unit as one run (one unit
/// lock, one routed action buffer); a control message counts as one. The
/// drain stops taking messages once it holds this many, and never splits
/// a `SiteMsg::Run`, so one run may exceed it.
const AUX_BATCH: usize = 256;

/// Default ingest refusal threshold: [`CentralSite::try_submit`] refuses
/// once the central's inbox holds this many events. The inbox itself is
/// unbounded. Overridable per cluster via
/// [`ClusterConfig::inbox_capacity`](crate::cluster::ClusterConfig).
pub const DEFAULT_INBOX_CAPACITY: usize = 8192;

/// A section run with the store to itself: the aux thread, the store's
/// only writer, runs it between two runs, and applies resume on top of
/// whatever it did, so it lands between two well-defined batches of
/// applies, in inbox order. An event racing it (published after a capture
/// the section installs, queued before it) may be overwritten and then
/// re-converges off the stream, absorbed idempotently by the EDE.
type Section = Box<dyn FnOnce(&SiteShared) + Send>;

/// A message in a site's aux inbox.
enum SiteMsg {
    /// A data event (source ingest at the central site, mirrored event at a
    /// mirror site). Shared: the zero-copy fan-out hands the same
    /// allocation to the aux unit, the backup queue, and every outgoing
    /// channel.
    Data(Arc<Event>),
    /// A run of data events published together (more than one), fed
    /// through the unit in order as one inbox message.
    Run(Vec<Arc<Event>>),
    /// A control-channel message.
    Ctrl(ControlMsg),
    /// Run a [`Section`]; ends the run it lands in. `seeds` marks the seed
    /// install a site started in awaiting-seed mode is buffering for:
    /// after it, the buffered events replay on top and buffering ends.
    /// Sent only by [`SiteCore::exclusive`], which blocks on the result.
    Exclusive { section: Section, seeds: bool },
    /// Stop the site.
    Stop,
}

/// The sending side of a site's aux inbox, with the count that keeps its
/// depth in events.
#[derive(Clone)]
struct Inbox {
    tx: Sender<SiteMsg>,
    /// Events in queued [`SiteMsg::Run`]s beyond one per message: a sink
    /// adds `len − 1` before it sends a run, the aux thread subtracts it
    /// when it takes the run. A statistic (`Relaxed`): the inbox send and
    /// receive order each add before its subtraction.
    run_extra: Arc<AtomicUsize>,
}

impl Inbox {
    fn send(&self, msg: SiteMsg) -> bool {
        self.tx.send(msg).is_ok()
    }

    /// Send a published run of data events as one message: a run of one
    /// as [`SiteMsg::Data`], a longer one as [`SiteMsg::Run`].
    fn send_run(&self, run: &[Arc<Event>]) -> bool {
        match run {
            [] => true,
            [e] => self.send(SiteMsg::Data(Arc::clone(e))),
            run => {
                let extra = run.len() - 1;
                self.run_extra.fetch_add(extra, Ordering::Relaxed);
                let sent = self.send(SiteMsg::Run(run.to_vec()));
                if !sent {
                    self.run_extra.fetch_sub(extra, Ordering::Relaxed);
                }
                sent
            }
        }
    }

    /// Send published control messages, one [`SiteMsg::Ctrl`] each.
    fn send_ctrl(&self, run: &[ControlMsg]) -> bool {
        run.iter().all(|m| self.send(SiteMsg::Ctrl(m.clone())))
    }

    /// Events queued in the inbox.
    fn depth(&self) -> usize {
        self.tx.len() + self.run_extra.load(Ordering::Relaxed)
    }
}

/// Shared atomic counters for a running site.
#[derive(Debug, Default)]
pub struct SiteCounters {
    /// Events the EDE processed.
    pub processed: AtomicU64,
    /// Events mirrored onto outgoing channels.
    pub mirrored: AtomicU64,
    /// Update-delay sum (µs) across emitted client updates (central).
    pub delay_sum_us: AtomicU64,
    /// Update count backing the delay mean.
    pub delay_count: AtomicU64,
    /// Adaptation directives applied.
    pub adaptations: AtomicU64,
    /// Snapshots served (direct synchronous `snapshot` calls).
    pub snapshots: AtomicU64,
    /// Initial-state requests answered through a gateway worker pool.
    pub requests_served: AtomicU64,
    /// Gateway request latency sum (µs, submit → reply) backing the mean.
    pub request_latency_sum_us: AtomicU64,
    /// Gateway requests answered from the site's full slot.
    pub snapshot_cache_hits: AtomicU64,
    /// Gateway requests that captured fresh state (slot stale or empty, or
    /// a gateway that serves no cached entry).
    pub snapshot_cache_misses: AtomicU64,
    /// Apply bookkeeping flushes: one per routed run that applied
    /// anything, plus one per CHKPT answered after applies in its run
    /// (processed ÷ flushes ≈ events applied per run).
    pub apply_batches: AtomicU64,
    /// Inbox runs carrying data that the aux thread fed through its unit
    /// under one lock and routed together (the unit's `received` ÷
    /// `aux_batches` = achieved batching ratio at the aux boundary).
    pub aux_batches: AtomicU64,
    /// Gateway requests refused because the requested flight belongs to a
    /// different partition group (`RequestError::WrongPartition`) — the
    /// misroute signal the ois balancer re-routes on.
    pub wrong_partition: AtomicU64,
    /// Shared-clock timestamp (µs) of the most recent apply
    /// bookkeeping flush — the raw signal behind the per-mirror staleness
    /// gauge (central's stamp minus a mirror's stamp bounds how long the
    /// mirror's applied frontier has trailed). 0 until the first flush.
    pub last_apply_us: AtomicU64,
}

impl SiteCounters {
    /// Mean update delay (µs) so far.
    pub fn mean_delay_us(&self) -> f64 {
        let n = self.delay_count.load(Ordering::Relaxed);
        if n == 0 {
            0.0
        } else {
            self.delay_sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Mean gateway request latency (µs) so far.
    pub fn mean_request_latency_us(&self) -> f64 {
        let n = self.requests_served.load(Ordering::Relaxed);
        if n == 0 {
            0.0
        } else {
            self.request_latency_sum_us.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Full-slot hit rate across gateway requests so far (0.0 with no
    /// requests).
    pub fn snapshot_cache_hit_rate(&self) -> f64 {
        let hits = self.snapshot_cache_hits.load(Ordering::Relaxed);
        let total = hits + self.snapshot_cache_misses.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// State shared by a site's threads and its owner.
struct SiteShared {
    /// The operational store: the aux thread writes it, the capture
    /// closures read it, under its one lock.
    ede: Arc<ShardedEde>,
    /// The aux thread merges each run's processed stamps into it; the
    /// capture paths read its frontier.
    responder: Arc<Mutex<MainUnitResponder>>,
    /// Shared with gateway workers, which account served requests and
    /// cache hits into it.
    counters: Arc<SiteCounters>,
    /// Pending client requests at this site (the §3.2.2 monitored
    /// variable); shared with any request gateway serving this site.
    pending_gauge: Arc<AtomicU64>,
    clock: RuntimeClock,
}

/// Typed overload error from [`CentralSite::try_submit`]: the ingest
/// pipeline is saturated and the caller must back off (or shed). Carries
/// the observed depth and the configured capacity so callers can log or
/// adapt; saturation surfaces *here*, as backpressure the producer sees,
/// never as silent spinning inside the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteOverload {
    /// Events queued in the site's inbox at refusal time.
    pub queued: usize,
    /// The configured refusal threshold
    /// ([`ClusterConfig::inbox_capacity`](crate::cluster::ClusterConfig)).
    pub capacity: usize,
}

impl std::fmt::Display for SiteOverload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "site ingest overloaded: {} events queued (capacity {})",
            self.queued, self.capacity
        )
    }
}

impl std::error::Error for SiteOverload {}

/// Common runtime machinery for one site.
struct SiteCore {
    shared: Arc<SiteShared>,
    /// The site's state-transfer provider (DESIGN.md §19): every read of
    /// the store — gateway, seed, resync, reseed, snapshot — goes through
    /// it.
    sync: Arc<StateSync>,
    handle: MirrorHandle,
    inbox: Inbox,
    /// Crash simulation: when set, threads abandon queued work instead of
    /// draining it on the way out (see [`CentralSite::crash`]).
    crashed: Arc<std::sync::atomic::AtomicBool>,
    /// Close handles of the channel sinks feeding the inbox
    /// ([`forward`](Self::forward)).
    sinks: Vec<Closer>,
    /// The aux thread, until [`stop`](Self::stop) joins it.
    aux: Option<std::thread::JoinHandle<()>>,
}

impl SiteCore {
    /// Spawn the aux thread for a site.
    ///
    /// `on_action` routes non-local aux actions (publishes to mirrors /
    /// central); local main-unit traffic is wired here.
    fn spawn(
        site: SiteId,
        handle: MirrorHandle,
        clock: RuntimeClock,
        mut on_action: impl FnMut(&[AuxAction]) + Send + 'static,
        updates_pub: Publisher<Event>,
        await_seed: bool,
    ) -> Self {
        let (inbox_tx, inbox_rx) = channel::unbounded::<SiteMsg>();
        let inbox = Inbox { tx: inbox_tx, run_extra: Arc::new(AtomicUsize::new(0)) };
        let crashed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let ede = Arc::new(ShardedEde::new(1));
        let shared = Arc::new(SiteShared {
            ede,
            responder: Arc::new(Mutex::new(MainUnitResponder::new(site))),
            counters: Arc::new(SiteCounters::default()),
            pending_gauge: Arc::new(AtomicU64::new(0)),
            clock,
        });

        // The state-transfer provider, and the only code that reads the
        // store. Frontier before the store's lock in both capture closures:
        // a served frontier may only *trail* the state it ships with, so
        // replays on top are idempotent and nothing after it can be
        // missing. The store's epoch cell, set under its lock on every
        // write, lets the slots check freshness without taking the lock.
        // Its own policy is wider than a gateway's: every consumer of
        // `full`/`seed` either replays the data channel from a floor
        // recorded before the capture (seeds) or asked for a fresh capture
        // explicitly (edge reseeds, rejoin); gateways check the slot
        // against their own policy.
        let sync = {
            let full_shared = Arc::clone(&shared);
            let delta_shared = Arc::clone(&shared);
            let floor_handle = handle.clone();
            Arc::new(StateSync::new(
                SnapshotCachePolicy {
                    max_stale_events: 256,
                    max_stale: Duration::from_millis(100),
                },
                shared.ede.epoch_handle(),
                move || {
                    let as_of: VectorTimestamp = full_shared.responder.lock().processed().clone();
                    full_shared.ede.freeze(as_of)
                },
                move |base| {
                    let as_of: VectorTimestamp = delta_shared.responder.lock().processed().clone();
                    delta_shared.ede.capture_delta(base, as_of)
                },
                move || floor_handle.truncation_floor(),
            ))
        };

        let pool = ApplyPool::spawn(
            Arc::clone(&shared.ede),
            ApplySink {
                responder: Arc::clone(&shared.responder),
                counters: Arc::clone(&shared.counters),
                clock: shared.clock.clone(),
                updates: Some(updates_pub),
            },
            Arc::clone(&crashed),
            // The aux thread flushes at the end of every run and before a
            // CHKPT reply, never on a count.
            ApplyPoolConfig { batch: usize::MAX },
        );
        // Mirror rejoin: until the seed state arrives, data events are
        // buffered; the seed install replays them on top (stale updates
        // are absorbed idempotently by the EDE).
        let mut main = MainUnit {
            pool,
            seed_buffer: await_seed.then(Vec::new),
            shared: Arc::clone(&shared),
            inbox: inbox.clone(),
        };

        let aux_handle = handle.clone();
        let aux_crashed = Arc::clone(&crashed);
        let aux_run_extra = Arc::clone(&inbox.run_extra);
        let aux = std::thread::Builder::new()
            .name(format!("aux-{site}"))
            .spawn(move || {
                let mut run: Vec<SiteMsg> = Vec::with_capacity(AUX_BATCH);
                let mut actions: Vec<AuxAction> = Vec::new();
                // Simulated crash: queued inbox traffic and coalescing
                // buffers are abandoned, exactly as a dead process would
                // abandon them.
                while !aux_crashed.load(Ordering::SeqCst) {
                    let first = match inbox_rx.recv_timeout(FLUSH_PERIOD) {
                        Ok(m) => m,
                        Err(channel::RecvTimeoutError::Timeout) => {
                            // Sending-task wakeup: drain coalescing buffers
                            // and keep the checkpoint frontier moving while
                            // idle.
                            aux_handle.with(|a| {
                                a.handle_run([AuxInput::Flush], &mut actions);
                                actions.extend(a.idle_checkpoint());
                            });
                            route_actions(&actions, &mut main, &mut on_action);
                            actions.clear();
                            continue;
                        }
                        Err(channel::RecvTimeoutError::Disconnected) => break,
                    };
                    // The run: `first` plus whatever is already queued, up
                    // to `AUX_BATCH` events. A `Stop` or an exclusive
                    // section ends it, and is handled after it.
                    let mut end = None;
                    let mut data = false;
                    let mut events = 0;
                    let mut next = Some(first);
                    while let Some(msg) = next {
                        match &msg {
                            SiteMsg::Stop | SiteMsg::Exclusive { .. } => {
                                end = Some(msg);
                                break;
                            }
                            SiteMsg::Run(evs) => {
                                aux_run_extra.fetch_sub(evs.len() - 1, Ordering::Relaxed);
                                events += evs.len();
                                data = true;
                            }
                            SiteMsg::Data(_) => {
                                events += 1;
                                data = true;
                            }
                            SiteMsg::Ctrl(_) => events += 1,
                        }
                        run.push(msg);
                        next = if events < AUX_BATCH { inbox_rx.try_recv().ok() } else { None };
                    }
                    // Clean shutdown flushes the coalescing buffers; a
                    // crash loses them.
                    let flush =
                        matches!(end, Some(SiteMsg::Stop)) && !aux_crashed.load(Ordering::SeqCst);
                    if !run.is_empty() || flush {
                        let inputs = run.drain(..).flat_map(|msg| {
                            let (one, evs) = match msg {
                                SiteMsg::Data(e) => (Some(AuxInput::Data(e)), Vec::new()),
                                SiteMsg::Run(evs) => (None, evs),
                                SiteMsg::Ctrl(m) => (Some(AuxInput::Control(m)), Vec::new()),
                                SiteMsg::Exclusive { .. } | SiteMsg::Stop => {
                                    unreachable!("ends the run")
                                }
                            };
                            one.into_iter().chain(evs.into_iter().map(AuxInput::Data))
                        });
                        let inputs = inputs.chain(flush.then_some(AuxInput::Flush));
                        aux_handle.with(|a| a.handle_run(inputs, &mut actions));
                    }
                    if aux_crashed.load(Ordering::SeqCst) {
                        break;
                    }
                    if data {
                        main.shared.counters.aux_batches.fetch_add(1, Ordering::Relaxed);
                    }
                    route_actions(&actions, &mut main, &mut on_action);
                    actions.clear();
                    match end {
                        Some(SiteMsg::Exclusive { section, seeds }) => {
                            main.exclusive(section, seeds)
                        }
                        Some(_) => break, // a `Stop`
                        None => {}
                    }
                }
                // A graceful stop records the last run's bookkeeping; after
                // a crash the pool drops it.
                main.pool.shutdown();
            })
            .expect("spawn aux thread");

        SiteCore { shared, sync, handle, inbox, crashed, sinks: Vec::new(), aux: Some(aux) }
    }

    /// Subscribe a sink to `channel` that hands each published run to
    /// `send` for the aux inbox, until [`stop`](Self::stop) closes it.
    /// Once the site has crashed the sink refuses, abandoning what is
    /// published to it.
    fn forward<T: Clone + Send + 'static>(
        &mut self,
        channel: &EventChannel<T>,
        send: impl Fn(&Inbox, &[T]) -> bool + Send + 'static,
    ) {
        let inbox = self.inbox.clone();
        let crashed = Arc::clone(&self.crashed);
        let sink = move |run: &[T]| !crashed.load(Ordering::SeqCst) && send(&inbox, run);
        self.sinks.push(channel.subscribe_with(sink));
    }

    /// Close the sinks, then stop the aux thread behind everything they
    /// delivered. Idempotent.
    fn stop(&mut self) {
        for sink in self.sinks.drain(..) {
            sink.close();
        }
        self.inbox.send(SiteMsg::Stop);
        if let Some(aux) = self.aux.take() {
            let _ = aux.join();
        }
    }

    /// Run `section` on the aux thread as a [`SiteMsg::Exclusive`] and
    /// block until it has run, so the caller can snapshot or serve reads
    /// right after and see its effect. `None` if the site stops first: an
    /// aux thread that exits drops its inbox, and with each section left
    /// in it that section's reply sender, which ends the wait.
    ///
    /// The section runs after everything queued in the inbox before it.
    /// Never call this from the aux thread, or while holding the unit lock
    /// ([`MirrorHandle::with`]): the aux thread needs that lock to feed
    /// the backlog, so either deadlocks.
    fn exclusive<R: Send + 'static>(
        &self,
        seeds: bool,
        section: impl FnOnce(&SiteShared) -> R + Send + 'static,
    ) -> Option<R> {
        let (done_tx, done_rx) = channel::bounded(1);
        let section = Box::new(move |shared: &SiteShared| {
            // The only send into an empty slot: never blocks.
            let _ = done_tx.send(section(shared));
        });
        // Refused: the aux thread is already gone (site stopped).
        if !self.inbox.send(SiteMsg::Exclusive { section, seeds }) {
            return None;
        }
        done_rx.recv().ok()
    }
}

/// The main unit's share of a site, which its aux thread runs inline.
struct MainUnit {
    pool: ApplyPool,
    /// Data events held back while a site started in awaiting-seed mode
    /// waits for its seed install (`None` once it has one).
    seed_buffer: Option<Vec<Arc<Event>>>,
    shared: Arc<SiteShared>,
    /// Where checkpoint replies go: the site's own inbox.
    inbox: Inbox,
}

impl MainUnit {
    /// Apply `event` now, or hold it back until the seed install.
    fn apply(&mut self, event: &Arc<Event>) {
        match &mut self.seed_buffer {
            Some(buffer) => buffer.push(Arc::clone(event)),
            None => self.pool.dispatch(&**event),
        }
    }

    /// Answer a CHKPT into the inbox, or record a COMMIT.
    fn on_control(&mut self, m: &ControlMsg) {
        match m {
            ControlMsg::Chkpt { .. } => {
                let report = MonitorReport {
                    ready_len: 0,
                    backup_len: 0,
                    pending_requests: self.shared.pending_gauge.load(Ordering::Relaxed),
                };
                // Flushed first, the frontier covers every event routed
                // ahead of this CHKPT; the reply is the meet with it.
                self.pool.flush();
                if let Some(rep) = self.shared.responder.lock().on_chkpt(m, report) {
                    self.inbox.send(SiteMsg::Ctrl(rep));
                }
            }
            ControlMsg::Commit { .. } => self.shared.responder.lock().on_commit(m),
            ControlMsg::ChkptRep { .. } => {}
        }
    }

    /// Run `section` on the store's only writer, after the run it ended
    /// was routed and flushed. After a seed install, the held-back events
    /// replay on top.
    fn exclusive(&mut self, section: Section, seeds: bool) {
        section(&self.shared);
        if seeds {
            for event in self.seed_buffer.take().into_iter().flatten() {
                self.pool.dispatch(event);
            }
            self.pool.flush();
        }
    }
}

/// Route a run's aux actions: local main-unit traffic inline, in order,
/// with the apply bookkeeping flushed after it, then the whole run through
/// the site-specific callback, which ignores the local kinds.
fn route_actions(
    actions: &[AuxAction],
    main: &mut MainUnit,
    on_action: &mut impl FnMut(&[AuxAction]),
) {
    let mut mirrored = 0;
    for action in actions {
        match action {
            AuxAction::ForwardToMain(ev) => main.apply(ev),
            AuxAction::ControlToMain(m) => main.on_control(m),
            AuxAction::Mirror { .. } => mirrored += 1,
            AuxAction::Reconfigured(_) => {
                main.shared.counters.adaptations.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
    main.pool.flush();
    if mirrored > 0 {
        main.shared.counters.mirrored.fetch_add(mirrored, Ordering::Relaxed);
    }
    on_action(actions);
}

/// Shared behaviour of running sites.
macro_rules! site_common_impl {
    () => {
        /// Dynamic Table-1 configuration handle.
        pub fn handle(&self) -> &MirrorHandle {
            &self.core.handle
        }

        /// Shared counters.
        pub fn counters(&self) -> &SiteCounters {
            &self.core.shared.counters
        }

        /// The site's applied-updates channel, for a consumer that follows
        /// it with a sink, as an edge does
        /// ([`EdgeServer::follow`](mirror_edge::EdgeServer::follow)).
        pub fn updates(&self) -> &EventChannel<Event> {
            &self.updates
        }

        /// Digest of this site's EDE state.
        pub fn state_hash(&self) -> u64 {
            self.core.shared.ede.state_hash()
        }

        /// Events this site's EDE has processed.
        pub fn processed(&self) -> u64 {
            self.core.shared.counters.processed.load(Ordering::Relaxed)
        }

        /// Spawn a request gateway for this site with the default
        /// [`GatewayConfig`](crate::requests::GatewayConfig) (auto-sized
        /// worker pool, default staleness bound) and the given
        /// per-request service pad — the pad models transfer work beyond
        /// the in-memory snapshot.
        pub fn serve_requests(
            &self,
            service_pad: std::time::Duration,
        ) -> crate::requests::RequestGateway {
            self.serve_requests_with(crate::requests::GatewayConfig {
                service_pad,
                ..Default::default()
            })
        }

        /// Spawn a request gateway for this site: a worker pool draining a
        /// FIFO of initial-state requests whose occupancy feeds the site's
        /// pending-requests monitored variable (so live adaptation reacts
        /// to real request pressure). Requests are answered from the
        /// site's [`state_sync`](Self::state_sync) full slot under
        /// `config.cache` — one state capture and one wire encoding per
        /// staleness window, shared by every gateway and seed of the site.
        pub fn serve_requests_with(
            &self,
            config: crate::requests::GatewayConfig,
        ) -> crate::requests::RequestGateway {
            crate::requests::RequestGateway::spawn(
                Arc::clone(&self.core.sync),
                self.pending_gauge(),
                Arc::clone(&self.core.shared.counters),
                config,
            )
        }

        /// The shared pending-requests gauge (reported to the adaptation
        /// controller in checkpoint replies).
        pub fn pending_gauge(&self) -> Arc<AtomicU64> {
            Arc::clone(&self.core.shared.pending_gauge)
        }

        /// This site's state-transfer provider: the single capture point
        /// behind request gateways, mirror seeding, partition resync, edge
        /// reseeds and WAN delta catch-up (DESIGN.md §19). Cheap to clone and safe to
        /// hold beyond the site's lifetime (captures after stop simply
        /// freeze the final state).
        pub fn state_sync(&self) -> Arc<crate::statesync::StateSync> {
            Arc::clone(&self.core.sync)
        }

        /// Fold a captured delta into this site's live store (changed
        /// flights overwrite, removed flights drop), then advance the
        /// applied frontier to the delta's capture frontier. Runs as an
        /// exclusive section, like [`seed`](Self::seed) and
        /// [`merge_seed`](Self::merge_seed); blocks until visible so the
        /// caller can immediately snapshot or serve reads.
        ///
        /// Like every exclusive section it waits behind the site's inbox
        /// backlog, so it must not be called while holding
        /// [`handle().with`](MirrorHandle::with) (that deadlocks).
        pub fn apply_delta(&self, delta: mirror_ede::StateDelta) {
            self.core.exclusive(false, move |shared| {
                shared.ede.apply_delta(&delta);
                shared.responder.lock().record_processed(&delta.as_of);
            });
        }

        /// Events currently queued in the aux inbox: what was submitted
        /// and what the site's channel subscriptions have delivered, that
        /// the aux thread has not yet taken; no subscription queues
        /// anything of its own. A delivered run counts as its events, not
        /// as one message.
        pub fn inbox_depth(&self) -> usize {
            self.core.inbox.depth()
        }

        /// The aux thread's hand-off into the store, in the shape of a
        /// queue's stats: `enqueued` = `dequeued` = events applied (as
        /// [`processed`](Self::processed) counts them), and
        /// `high_watermark` = 0, since the aux thread applies each event
        /// itself and nothing queues between it and the store. The
        /// backlog, if any, is [`inbox_depth`](Self::inbox_depth).
        pub fn dispatch_ring_stats(&self) -> QueueStats {
            let applied = self.processed();
            QueueStats { enqueued: applied, dequeued: applied, high_watermark: 0 }
        }

        /// Install recovered state into a site started in awaiting-seed
        /// mode; events buffered meanwhile replay on top (stale updates
        /// are absorbed idempotently by the EDE). Blocks until the apply
        /// loop has installed the state and frontier: callers (promotion
        /// handoff, mirror rejoin) snapshot the site immediately after,
        /// and must never observe the empty pre-seed store. Must not be
        /// called while holding [`handle().with`](MirrorHandle::with), as
        /// for [`apply_delta`](Self::apply_delta).
        pub fn seed(&self, state: OperationalState, frontier: VectorTimestamp) {
            self.core.exclusive(true, move |shared| {
                shared.ede.install_state(state);
                shared.responder.lock().record_processed(&frontier);
            });
        }

        /// Merge migrated flight state into this site's live store (slot
        /// migration seeding). Unlike [`seed`](Self::seed) the resident
        /// flights survive. Blocks until the merge is visible — the
        /// migrator replays the slot's buffered events right after, and
        /// those must apply on top: on a target mirror's channel every
        /// event published after the source group's drain barrier does.
        /// Must not be called while holding
        /// [`handle().with`](MirrorHandle::with), as for
        /// [`apply_delta`](Self::apply_delta).
        pub fn merge_seed(&self, state: OperationalState) {
            self.core.exclusive(false, move |shared| shared.ede.merge_state(state));
        }

        /// Drop every flight the predicate rejects (the migration
        /// source's purge once a slot's ownership moved away). Blocks
        /// until the purge is applied and returns the number of flights
        /// removed (0 if the site is stopping). Must not be called while
        /// holding [`handle().with`](MirrorHandle::with), as for
        /// [`apply_delta`](Self::apply_delta).
        pub fn retain_flights(
            &self,
            keep: Arc<dyn Fn(mirror_core::FlightId) -> bool + Send + Sync>,
        ) -> u64 {
            let purge = move |shared: &SiteShared| shared.ede.retain_flights(|f| keep(f));
            self.core.exclusive(false, purge).map_or(0, |removed| removed as u64)
        }

        /// The partition map this site last adopted off checkpoint
        /// control traffic, if any.
        pub fn partition_map(&self) -> Option<mirror_core::PartitionMap> {
            self.core.handle.with(|a| a.partition_map().cloned())
        }

        /// Epoch of the adopted partition map; 0 when unpartitioned.
        pub fn partition_epoch(&self) -> u64 {
            self.core.handle.with(|a| a.partition_epoch())
        }

        /// Serve an initial-state request: snapshot this site's EDE state
        /// at its processed frontier (the thin-client recovery path).
        pub fn snapshot(&self) -> Snapshot {
            // Note: direct synchronous snapshots do NOT touch the shared
            // pending-requests gauge — the gauge counts *queued* gateway
            // requests (incremented at submit, decremented at reply); a
            // synchronous call never queues, so it contributes no
            // pressure for the adaptation controller to react to.
            let snap = self.core.sync.capture();
            self.core.shared.counters.snapshots.fetch_add(1, Ordering::Relaxed);
            snap
        }

        /// Stop the site's threads, after applying every event published
        /// to its subscriptions before the call (idempotent; joins on
        /// completion).
        pub fn stop(&mut self) {
            self.core.stop();
        }
    };
}

/// The running central site.
pub struct CentralSite {
    core: SiteCore,
    /// Inbox depth, in events, at which [`try_submit`](Self::try_submit)
    /// refuses.
    inbox_capacity: usize,
    updates: EventChannel<Event>,
    /// Mirrors the checkpoint coordinator has declared failed.
    failed: Arc<Mutex<Vec<SiteId>>>,
    /// Per-mirror transport link monitors (bridged mirrors only): the
    /// status table's link-health column.
    links: LinkTable,
    /// Durable event journal (present when the cluster was started with a
    /// [`DurabilityConfig`](crate::durability::DurabilityConfig)).
    journal: Option<Arc<Journal>>,
    /// Scale directives emitted by the adaptation controller, queued for
    /// collection by [`take_scale_directives`](Self::take_scale_directives)
    /// (the cluster drains them into membership changes).
    scale: Arc<Mutex<Vec<ScaleDecision>>>,
}

/// Shared registry of transport link monitors, keyed by mirror site.
type LinkTable = Arc<Mutex<Vec<(SiteId, Arc<LinkMonitor>)>>>;

/// The body of [`CentralSite::declare_link_dead`], callable from a link
/// observer that outlives the borrow of the site.
fn mark_link_dead(handle: &MirrorHandle, failed: &Mutex<Vec<SiteId>>, site: SiteId) {
    if !handle.declare_mirror_failed(site).is_empty() {
        let mut failed = failed.lock();
        if !failed.contains(&site) {
            failed.push(site);
        }
    }
}

impl CentralSite {
    /// Start a central site mirroring over the given channel pair (data +
    /// downlink control), receiving replies on the uplink.
    ///
    /// With `await_seed` the site buffers incoming events until
    /// [`seed`](Self::seed) installs state — the **promotion** path: a
    /// mirror's replicated state seeds the new coordinator and the service
    /// continues. With a `journal` every mirrored event is appended to it
    /// (encoded on the journal's writer thread) and checkpoint commits
    /// drive its truncation; a successor handed its predecessor's journal
    /// takes over the writer, so the zero-loss guarantee survives repeated
    /// failovers.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        handle: MirrorHandle,
        clock: RuntimeClock,
        data_pub: Publisher<Arc<Event>>,
        ctrl_down_pub: Publisher<ControlMsg>,
        ctrl_up: &EventChannel<ControlMsg>,
        await_seed: bool,
        journal: Option<Arc<Journal>>,
        inbox_capacity: usize,
    ) -> Self {
        assert!(handle.with(|a| a.is_central()));
        let updates = EventChannel::new("central.updates");
        let updates_pub = updates.publisher();
        let failed: Arc<Mutex<Vec<SiteId>>> = Arc::new(Mutex::new(Vec::new()));
        let failed_in_route = Arc::clone(&failed);
        let scale: Arc<Mutex<Vec<ScaleDecision>>> = Arc::new(Mutex::new(Vec::new()));
        let scale_in_route = Arc::clone(&scale);
        let journal_in_route = journal.clone();
        // The aux unit has released its lock by the time actions are
        // routed, so querying the backup queue's truncation floor from
        // inside the route closure is deadlock-free.
        let floor_handle = handle.clone();
        // Contiguous mirror actions are journaled and published as one run;
        // the run is flushed before any control publish or journal commit,
        // so program order between data and control is what the aux unit
        // emitted. The scratch buffers live across calls.
        let mut idxs: Vec<u64> = Vec::new();
        let mut run: Vec<Arc<Event>> = Vec::new();
        let route = move |actions: &[AuxAction]| {
            let flush = |idxs: &mut Vec<u64>, run: &mut Vec<Arc<Event>>| {
                if run.is_empty() {
                    return;
                }
                if let Some(j) = &journal_in_route {
                    // Write-ahead: the run is durable (per the fsync
                    // policy) before the mirrors acknowledge a checkpoint
                    // covering it.
                    j.append_all(idxs.drain(..).zip(run.iter().cloned()));
                }
                // One subscriber-lock acquisition per run, and each sink
                // takes it whole: a mirror's inbox gets one message of Arc
                // clones per run. Only the journal writer and bridge
                // writers encode, each on its own thread.
                data_pub.publish_all(run);
                idxs.clear();
                run.clear();
            };
            for action in actions {
                match action {
                    AuxAction::Mirror { idx, event } => {
                        idxs.push(*idx);
                        run.push(Arc::clone(event));
                    }
                    AuxAction::ControlToMirrors(m) => {
                        flush(&mut idxs, &mut run);
                        if let (Some(j), ControlMsg::Commit { .. }) = (&journal_in_route, m) {
                            // The aux unit pruned its backup queue when it
                            // emitted this commit; the queue's oldest
                            // retained index is the durable truncation
                            // watermark.
                            j.commit(floor_handle.truncation_floor());
                        }
                        ctrl_down_pub.publish(m.clone());
                    }
                    AuxAction::MirrorFailed(site) => {
                        failed_in_route.lock().push(*site);
                    }
                    AuxAction::ScaleDirective(d) => {
                        scale_in_route.lock().push(*d);
                    }
                    _ => {}
                }
            }
            flush(&mut idxs, &mut run);
        };
        let core = SiteCore::spawn(
            mirror_core::CENTRAL_SITE,
            handle,
            clock,
            route,
            updates_pub,
            await_seed,
        );

        // Forward checkpoint replies from mirrors into the aux inbox.
        let mut site = CentralSite {
            core,
            inbox_capacity,
            updates,
            failed,
            links: Arc::new(Mutex::new(Vec::new())),
            journal,
            scale,
        };
        site.core.forward(ctrl_up, Inbox::send_ctrl);
        site
    }

    /// Submit a source event (stamped with the shared clock's ingress time
    /// if the caller has not set one).
    pub fn submit(&self, mut event: Event) {
        if event.ingress_us == 0 {
            event.ingress_us = self.core.shared.clock.now_us();
        }
        self.core.inbox.send(SiteMsg::Data(Arc::new(event)));
    }

    /// Submit a source event unless the ingest pipeline is saturated.
    ///
    /// When the aux inbox holds at least
    /// [`inbox_capacity`](Self::inbox_capacity) events, the submission is
    /// refused with a typed [`SiteOverload`] instead of queueing further —
    /// producers see backpressure they can act on (back off, shed, alert)
    /// rather than growing the inbox without bound. Accepted events are
    /// never dropped.
    pub fn try_submit(&self, mut event: Event) -> Result<(), SiteOverload> {
        let queued = self.inbox_depth();
        let capacity = self.inbox_capacity;
        if queued >= capacity {
            return Err(SiteOverload { queued, capacity });
        }
        if event.ingress_us == 0 {
            event.ingress_us = self.core.shared.clock.now_us();
        }
        self.core.inbox.send(SiteMsg::Data(Arc::new(event)));
        Ok(())
    }

    /// The configured inbox depth, in events, at which
    /// [`try_submit`](Self::try_submit) refuses.
    pub fn inbox_capacity(&self) -> usize {
        self.inbox_capacity
    }

    /// Subscribe to the regular-client update stream.
    pub fn subscribe_updates(&self) -> Subscriber<Event> {
        self.updates.subscribe()
    }

    /// Last committed checkpoint at the coordinator.
    pub fn committed(&self) -> Option<VectorTimestamp> {
        self.core.handle.with(|a| a.committed())
    }

    /// Mirrors the checkpoint coordinator has declared failed so far.
    pub fn failed_mirrors(&self) -> Vec<SiteId> {
        self.failed.lock().clone()
    }

    /// Re-admit a recovered mirror into checkpoint rounds (after its state
    /// has been re-seeded).
    pub fn readmit_mirror(&self, site: SiteId) {
        self.failed.lock().retain(|&s| s != site);
        self.core.handle.with(|a| a.readmit_mirror(site));
    }

    /// Raise the membership epoch stamped onto outgoing checkpoint rounds
    /// (monotone: a lower epoch is ignored).
    pub fn set_membership_epoch(&self, epoch: u64) {
        self.core.handle.with(|a| a.set_membership_epoch(epoch));
    }

    /// Adopt a partition map on the coordinator (epoch-fenced: stale maps
    /// are ignored). The adopted map rides every subsequent checkpoint
    /// COMMIT, so mirrors — including late joiners — converge on it
    /// without a dedicated broadcast. Returns whether the map was newer.
    pub fn set_partition_map(&self, pm: mirror_core::PartitionMap) -> bool {
        self.core.handle.with(|a| a.set_partition_map(pm))
    }

    /// Admit a mirror into checkpoint rounds at membership `epoch` — the
    /// elastic scale-out path: the site gates rounds begun from the next
    /// proposal on, and `CHKPT`/`COMMIT` carry the new epoch.
    pub fn admit_mirror(&self, site: SiteId, epoch: u64) {
        self.failed.lock().retain(|&s| s != site);
        self.core.handle.with(|a| a.admit_mirror(site, epoch));
    }

    /// Retire a mirror from checkpoint rounds at membership `epoch`: it
    /// stops gating round completion *without* being marked failed (this
    /// is scale-in, not a crash).
    pub fn retire_mirror(&self, site: SiteId, epoch: u64) {
        self.failed.lock().retain(|&s| s != site);
        self.core.handle.with(|a| a.retire_mirror(site, epoch));
    }

    /// Drain the scale directives the adaptation controller has emitted
    /// since the last call (oldest first). The cluster turns these into
    /// membership changes; see `Cluster::poll_scale`.
    pub fn take_scale_directives(&self) -> Vec<ScaleDecision> {
        std::mem::take(&mut *self.scale.lock())
    }

    /// Capture (or reuse) a seed snapshot for a newly admitted mirror,
    /// returning it together with the backup-queue truncation floor
    /// recorded **before** its capture.
    ///
    /// Safety of the pairing: the floor only moves up, so a floor read
    /// before the state capture can only cause *extra* replays when the
    /// admitting caller resyncs from it — never a gap — and stale replays
    /// are absorbed idempotently by every EDE. A burst of admissions
    /// shares one capture through the cache (the PR-§13 single-flight
    /// pattern applied to seeding).
    pub fn seed_snapshot(&self) -> (ServedSnapshot, u64) {
        self.core.sync.seed()
    }

    /// Record `monitor` as the transport link serving `site`, so
    /// [`link_health`](Self::link_health) reports it. Bridged mirrors
    /// attach one monitor per direction or a single downlink monitor.
    pub fn attach_link_monitor(&self, site: SiteId, monitor: Arc<LinkMonitor>) {
        self.links.lock().push((site, monitor));
    }

    /// Snapshot per-mirror link health (the status table's transport
    /// column). Sites with several attached links report each.
    pub fn link_health(&self) -> Vec<(SiteId, LinkHealth)> {
        self.links.lock().iter().map(|(s, m)| (*s, m.health())).collect()
    }

    /// Escalate a dead transport link: exclude `site` from checkpoint
    /// rounds immediately instead of waiting out `suspect_after` rounds of
    /// silence. Idempotent; composes with the round-lag detector (whichever
    /// fires first wins).
    pub fn declare_link_dead(&self, site: SiteId) {
        mark_link_dead(&self.core.handle, &self.failed, site);
    }

    /// An observer closure for
    /// [`ResilientTransport::on_event`](mirror_echo::ResilientTransport::on_event):
    /// routes a link's [`LinkEvent::Dead`] into
    /// [`declare_link_dead`](Self::declare_link_dead). Down/Up transitions
    /// are left to the monitor counters — transient outages are the
    /// resilient layer's to heal, not the cluster's to react to.
    pub fn link_escalator(&self, site: SiteId) -> impl Fn(&LinkEvent) + Send + 'static {
        let handle = self.core.handle.clone();
        let failed = Arc::clone(&self.failed);
        move |ev| {
            if matches!(ev, LinkEvent::Dead) {
                mark_link_dead(&handle, &failed, site);
            }
        }
    }

    /// The durable journal, when this site was started with one.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Simulate the central process dying, as opposed to the graceful
    /// [`stop`](Self::stop):
    ///
    /// * the journal (if any) is crashed first — queued appends are
    ///   discarded, the event log is abandoned mid-write with its buffered
    ///   tail lost and possibly a torn final record on disk;
    /// * the aux thread abandons its inbox and coalescing buffers instead
    ///   of flushing them;
    /// * its channel subscriptions refuse whatever is published to them.
    ///
    /// Threads are still *joined* (a test process cannot leak them), but
    /// everything they would have flushed on a clean stop is gone —
    /// exactly the wreckage automatic failover must recover from.
    pub fn crash(&mut self) {
        if let Some(j) = &self.journal {
            j.crash();
        }
        self.core.crashed.store(true, Ordering::SeqCst);
        self.core.stop();
    }

    /// Whether [`crash`](Self::crash) has been called on this site.
    pub fn is_crashed(&self) -> bool {
        self.core.crashed.load(Ordering::SeqCst)
    }

    /// Persist the current EDE state as the durable recovery snapshot
    /// (atomic replace), consistent with the main unit's processed
    /// frontier. Returns the number of flights captured.
    ///
    /// Errors if the site has no journal or the save fails.
    pub fn persist_snapshot(&self) -> std::io::Result<usize> {
        let journal = self.journal.as_ref().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::Unsupported, "site has no durable store")
        })?;
        // Freeze (clone) under the store's lock, write after releasing
        // it: the disk write (serialize + temp file + fsync + rename)
        // must not stall event processing — holding the store locked
        // across it would stall the aux thread for the whole save.
        let snap = self.core.sync.capture();
        let as_of = snap.as_of.clone();
        let state = snap.into_state();
        journal.save_snapshot(&state, &as_of)?;
        Ok(state.flights().len())
    }

    site_common_impl!();
}

/// A running mirror site.
pub struct MirrorSite {
    core: SiteCore,
    /// Applied-updates stream: every state-changing event this mirror's
    /// EDE emits, in apply order — what an edge delivery tier fans out.
    updates: EventChannel<Event>,
}

impl MirrorSite {
    /// Start a mirror site: subscribe to the central's data and control
    /// downlinks, publish checkpoint replies on the uplink.
    pub fn start(
        handle: MirrorHandle,
        clock: RuntimeClock,
        data: &EventChannel<Arc<Event>>,
        ctrl_down: &EventChannel<ControlMsg>,
        ctrl_up_pub: Publisher<ControlMsg>,
    ) -> Self {
        Self::start_inner(handle, clock, data, ctrl_down, ctrl_up_pub, false)
    }

    /// [`start`](Self::start) with the cluster's choices. With
    /// `await_seed` the site **buffers** incoming events until
    /// [`seed`](Self::seed) installs recovered state — the join/rejoin
    /// path: a replacement mirror subscribes first (so it misses nothing),
    /// then is seeded from a surviving site's snapshot, then replays the
    /// buffer (stale events are absorbed idempotently).
    pub(crate) fn start_inner(
        handle: MirrorHandle,
        clock: RuntimeClock,
        data: &EventChannel<Arc<Event>>,
        ctrl_down: &EventChannel<ControlMsg>,
        ctrl_up_pub: Publisher<ControlMsg>,
        await_seed: bool,
    ) -> Self {
        let site = handle.with(|a| a.site());
        assert_ne!(site, mirror_core::CENTRAL_SITE);
        let route = move |actions: &[AuxAction]| {
            for action in actions {
                if let AuxAction::ControlToCentral(m) = action {
                    ctrl_up_pub.publish(m.clone());
                }
            }
        };
        let updates = EventChannel::new(format!("mirror{site}.updates"));
        let updates_pub = updates.publisher();
        let core = SiteCore::spawn(site, handle, clock, route, updates_pub, await_seed);

        let mut s = MirrorSite { core, updates };
        s.core.forward(data, Inbox::send_run);
        s.core.forward(ctrl_down, Inbox::send_ctrl);
        s
    }

    /// This mirror's site id.
    pub fn site(&self) -> SiteId {
        self.core.handle.with(|a| a.site())
    }

    /// Subscribe to this mirror's applied-updates stream: the
    /// state-changing events its EDE emits, in apply order. The aux thread
    /// skips the publish entirely while nobody is subscribed, so an
    /// edge-less mirror pays one atomic load per update.
    pub fn subscribe_updates(&self) -> Subscriber<Event> {
        self.updates.subscribe()
    }

    site_common_impl!();
}

impl Drop for CentralSite {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Drop for MirrorSite {
    fn drop(&mut self) {
        self.stop();
    }
}
