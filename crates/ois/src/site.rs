//! Site processes: the glue between the sans-IO middleware and the
//! simulated cluster.
//!
//! A [`SiteProcess`] is one cluster node running a main unit (EDE) and an
//! auxiliary unit (mirroring). It translates simulator deliveries into
//! [`AuxInput`]s, executes the resulting [`AuxAction`]s as simulator sends,
//! and charges every operation to the calibrated [`CostModel`]. A
//! [`ClientSink`] node stands in for the population of operational-data
//! clients and recovering thin clients, recording delivery delays and
//! request latencies.

use std::collections::VecDeque;
use std::sync::Arc;

use mirror_core::adapt::MonitorReport;
use mirror_core::aux_unit::{AuxAction, AuxInput, AuxUnit, SiteId, CENTRAL_SITE};
use mirror_core::checkpoint::MainUnitResponder;
use mirror_core::event::Event;
use mirror_core::metrics::{AuxCounters, DelayStats, TimeSeries};
use mirror_core::ControlMsg;
use mirror_ede::Ede;
use mirror_sim::engine::{NodeId, SimProcess, Step};
use mirror_sim::{CostModel, SimTime};

use crate::payload::Payload;

/// Per-flight record size the simulation's snapshot cost model is
/// calibrated at. Deliberately decoupled from the runtime's snapshot
/// encoding (`mirror_echo::wire::encode_snapshot`): the figures'
/// service-rate parameters were fit against this record size (the paper's
/// OIS record format is not our wire format), so retuning the wire encoder
/// must not silently re-shape the reproduced figures. Live-path accounting
/// uses the encoded length.
const CALIBRATED_SNAPSHOT_ENTRY_BYTES: usize = 69;

/// Metrics collected at one site during a run.
#[derive(Debug, Default)]
pub struct SiteMetrics {
    /// Update delay (ingress → EDE emission) — recorded at the central
    /// site; the paper's Figures 8 and 9 metric.
    pub update_delay: DelayStats,
    /// Raw update-delay samples over time (for the Figure 9 series).
    pub delay_series: TimeSeries,
    /// Client requests served here.
    pub requests_served: u64,
    /// Requests answered from the simulated snapshot cache.
    pub snapshot_cache_hits: u64,
    /// Events processed by this site's EDE.
    pub events_processed: u64,
    /// Adaptation directives applied.
    pub adaptations: u64,
    /// Largest pending-request backlog observed.
    pub max_pending_requests: usize,
    /// Times (µs) at which an adaptation directive took effect here.
    pub adaptation_times: Vec<SimTime>,
    /// Mirror sites the coordinator declared failed during the run.
    pub mirrors_failed: Vec<mirror_core::aux_unit::SiteId>,
}

/// Simulated cost of durable journaling at the central sending task: the
/// `mirror-store` write-ahead log appends every mirrored event (an
/// OS-buffered write of the already-encoded frame) and pays a
/// stable-storage flush every `fsync_every` appends plus one at every
/// checkpoint commit. The knob lets the §4-style experiments price the
/// durability/throughput trade-off without doing real IO.
#[derive(Debug, Clone, Copy)]
pub struct JournalCost {
    /// Fixed CPU cost of one buffered append (µs): write syscall, frame
    /// header, CRC.
    pub write_us: u64,
    /// Marginal append cost per KiB of payload (µs).
    pub per_kib_us: u64,
    /// Pay an fsync every N appends (0 = only at commits — the
    /// `FsyncPolicy::OnCommit` discipline).
    pub fsync_every: u32,
    /// Stable-storage flush cost (µs).
    pub fsync_us: u64,
}

impl Default for JournalCost {
    fn default() -> Self {
        // SSD-calibrated: ~3µs buffered append + ~2µs/KiB copy, ~120µs
        // flush amortized over 64 appends (the EveryN default).
        JournalCost { write_us: 3, per_kib_us: 2, fsync_every: 64, fsync_us: 120 }
    }
}

impl JournalCost {
    fn append_cost(&self, bytes: usize) -> SimTime {
        self.write_us + (bytes as u64 * self.per_kib_us) / 1024
    }
}

/// Simulated cost of the runtime's epoch-keyed snapshot cache at the
/// serving task: a request arriving while the EDE has advanced at most
/// `max_stale_events` state changes past the last full capture is answered
/// at `hit_us` (an `Arc` clone of the already-captured, already-encoded
/// snapshot) instead of the full per-request capture+encode
/// [`CostModel::request_cost`]. Lets the §4-style experiments price the
/// request-storm serving path the way [`JournalCost`] prices durability.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotCacheCost {
    /// Cost (µs) of answering from the cached snapshot.
    pub hit_us: u64,
    /// Serve from cache while the EDE is at most this many state changes
    /// past the cached capture (the bounded-staleness window — clients
    /// replay the update stream from the snapshot frontier, so a slightly
    /// stale base converges after replay).
    pub max_stale_events: u64,
}

impl Default for SnapshotCacheCost {
    fn default() -> Self {
        // ~5µs: reference-count bumps plus queueing a pre-encoded buffer,
        // matching the runtime cache's default 64-event staleness bound.
        SnapshotCacheCost { hit_us: 5, max_stale_events: 64 }
    }
}

/// One cluster node: main unit + auxiliary unit + request servicing.
pub struct SiteProcess {
    site: SiteId,
    node: NodeId,
    central_node: NodeId,
    mirror_nodes: Vec<NodeId>,
    sink_node: NodeId,
    aux: AuxUnit,
    /// `false` selects the pure no-mirroring baseline path (central only):
    /// events go straight from the receiving task to the EDE.
    mirroring: bool,
    ede: Ede,
    main: MainUnitResponder,
    cost: CostModel,
    req_buf: VecDeque<mirror_workload::requests::Request>,
    serving: bool,
    /// Running mean wire size of events seen here; flight records in
    /// snapshots are assumed to be this large.
    avg_event_bytes: f64,
    events_seen: u64,
    /// Durability cost knob (central only; `None` = no journaling).
    journal: Option<JournalCost>,
    /// Appends charged so far (drives the every-N fsync cadence).
    journal_appends: u64,
    /// Snapshot-cache cost knob (`None` = every request pays the full
    /// capture+encode cost — the pre-cache serving path).
    snap_cache: Option<SnapshotCacheCost>,
    /// EDE epoch the cached capture reflects (`None` = cache cold).
    cached_epoch: Option<u64>,
    /// Metrics, readable by the harness through `Shared`.
    pub metrics: SiteMetrics,
}

impl SiteProcess {
    /// Build the central site's process.
    #[allow(clippy::too_many_arguments)]
    pub fn central(
        aux: AuxUnit,
        mirroring: bool,
        node: NodeId,
        mirror_nodes: Vec<NodeId>,
        sink_node: NodeId,
        cost: CostModel,
    ) -> Self {
        assert!(aux.is_central());
        SiteProcess {
            site: CENTRAL_SITE,
            node,
            central_node: node,
            mirror_nodes,
            sink_node,
            aux,
            mirroring,
            ede: Ede::new(),
            main: MainUnitResponder::new(CENTRAL_SITE),
            cost,
            req_buf: VecDeque::new(),
            serving: false,
            avg_event_bytes: 0.0,
            events_seen: 0,
            journal: None,
            journal_appends: 0,
            snap_cache: None,
            cached_epoch: None,
            metrics: SiteMetrics::default(),
        }
    }

    /// Charge the simulated durability cost of journaling every mirrored
    /// event (central sending task only; see [`JournalCost`]).
    pub fn with_journal(mut self, journal: JournalCost) -> Self {
        assert!(self.aux.is_central(), "only the central site journals");
        self.journal = Some(journal);
        self
    }

    /// Serve requests through a simulated epoch-keyed snapshot cache (see
    /// [`SnapshotCacheCost`]); any site can cache, mirroring the runtime.
    pub fn with_snapshot_cache(mut self, cache: SnapshotCacheCost) -> Self {
        self.snap_cache = Some(cache);
        self
    }

    /// Build a mirror site's process.
    pub fn mirror(
        aux: AuxUnit,
        node: NodeId,
        central_node: NodeId,
        sink_node: NodeId,
        cost: CostModel,
    ) -> Self {
        assert!(!aux.is_central());
        let site = aux.site();
        SiteProcess {
            site,
            node,
            central_node,
            mirror_nodes: Vec::new(),
            sink_node,
            aux,
            mirroring: true,
            ede: Ede::new(),
            main: MainUnitResponder::new(site),
            cost,
            req_buf: VecDeque::new(),
            serving: false,
            avg_event_bytes: 0.0,
            events_seen: 0,
            journal: None,
            journal_appends: 0,
            snap_cache: None,
            cached_epoch: None,
            metrics: SiteMetrics::default(),
        }
    }

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Digest of the EDE's application state (cross-mirror consistency).
    pub fn state_hash(&self) -> u64 {
        self.ede.state_hash()
    }

    /// Auxiliary-unit counters.
    pub fn aux_counters(&self) -> AuxCounters {
        self.aux.counters()
    }

    /// The EDE (read access for harness assertions).
    pub fn ede(&self) -> &Ede {
        &self.ede
    }

    /// Pending (buffered, unserved) client requests.
    pub fn pending_requests(&self) -> usize {
        self.req_buf.len()
    }

    /// Size of one flight record in a snapshot, given the traffic seen:
    /// the fixed record plus the fraction of event payload that persists
    /// into state.
    fn snapshot_entry_bytes(&self) -> usize {
        CALIBRATED_SNAPSHOT_ENTRY_BYTES
            + (self.cost.state_record_fraction * self.avg_event_bytes) as usize
    }

    /// Run the EDE over one event; record update delays and emit client
    /// updates (central only).
    fn run_ede(&mut self, ev: &Event, now: SimTime, cpu: &mut SimTime, step: &mut Step<Payload>) {
        self.events_seen += 1;
        self.avg_event_bytes +=
            (ev.wire_size() as f64 - self.avg_event_bytes) / self.events_seen as f64;
        *cpu += self.cost.ede_cost(ev.wire_size());
        self.main.record_processed(&ev.stamp);
        self.metrics.events_processed += 1;
        let out = self.ede.process(ev);
        if self.site == CENTRAL_SITE {
            for u in out.client_updates {
                let done = now + *cpu;
                let delay = done.saturating_sub(u.ingress_us);
                self.metrics.update_delay.record(delay);
                self.metrics.delay_series.push(done, delay as f64);
                step.sends.push(mirror_sim::engine::Send {
                    to: self.sink_node,
                    bytes: u.wire_size(),
                    payload: Payload::ClientUpdate {
                        bytes: u.wire_size(),
                        ingress_us: u.ingress_us,
                    },
                });
            }
        }
    }

    /// Feed one input through the auxiliary unit, executing every resulting
    /// action (including the local main-unit control loop) and charging
    /// costs.
    fn drive_aux(
        &mut self,
        input: AuxInput,
        now: SimTime,
        cpu: &mut SimTime,
        step: &mut Step<Payload>,
    ) {
        let mut work = VecDeque::new();
        work.push_back(input);
        while let Some(inp) = work.pop_front() {
            let backup_before = self.aux.backup_len();
            let actions = self.aux.handle(inp);
            let pruned = backup_before.saturating_sub(self.aux.backup_len());
            *cpu += self.cost.prune_cost(pruned);

            for action in actions {
                match action {
                    AuxAction::Mirror { event: ev, .. } => {
                        let bytes = ev.wire_size();
                        *cpu += self.cost.send_cost(bytes, self.mirror_nodes.len());
                        *cpu += self.cost.queue_mgmt_cost(self.aux.backup_len());
                        if let mirror_core::event::EventBody::Coalesced { count, .. } = &ev.body {
                            *cpu += self.cost.fold_cost(*count);
                        }
                        if let Some(j) = &self.journal {
                            // WAL append shares the encoding the send path
                            // already produced: one buffered write, plus the
                            // periodic stable-storage flush.
                            *cpu += j.append_cost(bytes);
                            self.journal_appends += 1;
                            if j.fsync_every > 0
                                && self.journal_appends.is_multiple_of(u64::from(j.fsync_every))
                            {
                                *cpu += j.fsync_us;
                            }
                        }
                        for &mn in &self.mirror_nodes {
                            step.sends.push(mirror_sim::engine::Send {
                                to: mn,
                                bytes,
                                // Arc clone: all mirror copies (and the
                                // backup-queue copy) share one allocation.
                                payload: Payload::MirrorData(Arc::clone(&ev)),
                            });
                        }
                    }
                    AuxAction::ForwardToMain(ev) => {
                        self.run_ede(&ev, now, cpu, step);
                    }
                    AuxAction::ControlToMirrors(m) => {
                        *cpu += self.cost.ctrl_msg_us;
                        if matches!(m, ControlMsg::Chkpt { .. }) {
                            // Coordinator pipeline stall per round.
                            *cpu += self.cost.chkpt_round_us;
                        }
                        if let (Some(j), ControlMsg::Commit { .. }) = (&self.journal, &m) {
                            // Commit syncs the log and advances the durable
                            // truncation watermark.
                            *cpu += j.fsync_us;
                        }
                        let bytes = m.wire_size();
                        for &mn in &self.mirror_nodes {
                            step.sends.push(mirror_sim::engine::Send {
                                to: mn,
                                bytes,
                                payload: Payload::Control(m.clone()),
                            });
                        }
                    }
                    AuxAction::ControlToCentral(m) => {
                        *cpu += self.cost.ctrl_msg_us;
                        step.sends.push(mirror_sim::engine::Send {
                            to: self.central_node,
                            bytes: m.wire_size(),
                            payload: Payload::Control(m),
                        });
                    }
                    AuxAction::ControlToMain(m) => {
                        *cpu += self.cost.ctrl_msg_us;
                        match &m {
                            ControlMsg::Chkpt { .. } => {
                                if self.site != CENTRAL_SITE {
                                    // Participant pipeline stall per round.
                                    *cpu += self.cost.chkpt_participant_us;
                                }
                                let report = MonitorReport {
                                    ready_len: 0,
                                    backup_len: 0,
                                    pending_requests: self.req_buf.len() as u64,
                                };
                                if let Some(rep) = self.main.on_chkpt(&m, report) {
                                    work.push_back(AuxInput::Control(rep));
                                }
                            }
                            ControlMsg::Commit { .. } => self.main.on_commit(&m),
                            ControlMsg::ChkptRep { .. } => {}
                        }
                    }
                    AuxAction::Reconfigured(_) => {
                        *cpu += self.cost.ctrl_msg_us;
                        self.metrics.adaptations += 1;
                        self.metrics.adaptation_times.push(now + *cpu);
                    }
                    AuxAction::MirrorFailed(site) => {
                        // Stop mirroring to the dead node: node id == site id
                        // in the simulated cluster layout.
                        self.mirror_nodes.retain(|&n| n != site as NodeId);
                        self.metrics.mirrors_failed.push(site);
                    }
                    AuxAction::ScaleDirective(_) => {
                        // Elastic capacity is a runtime-cluster concern; the
                        // simulated topology is fixed, so scale directives
                        // cost a control message and are otherwise inert.
                        *cpu += self.cost.ctrl_msg_us;
                    }
                }
            }
        }
    }
}

impl SimProcess<Payload> for SiteProcess {
    fn handle(&mut self, now: SimTime, _from: NodeId, payload: Payload) -> Step<Payload> {
        let mut step = Step::none();
        let mut cpu: SimTime = 0;
        match payload {
            Payload::Source(e) => {
                debug_assert_eq!(self.site, CENTRAL_SITE, "sources feed the central site");
                cpu += self.cost.recv_cost(e.wire_size(), self.aux.rules().rules().len());
                if self.mirroring {
                    self.drive_aux(AuxInput::Data(e.into()), now, &mut cpu, &mut step);
                } else {
                    // No-mirroring baseline: straight to the EDE.
                    self.run_ede(&e, now, &mut cpu, &mut step);
                }
            }
            Payload::MirrorData(e) => {
                cpu += self.cost.recv_cost(e.wire_size(), 0);
                self.drive_aux(AuxInput::Data(e), now, &mut cpu, &mut step);
            }
            Payload::Control(m) => {
                cpu += self.cost.ctrl_msg_us;
                self.drive_aux(AuxInput::Control(m), now, &mut cpu, &mut step);
            }
            Payload::Request(r) => {
                // Application-level pending-request buffer (a monitored
                // variable of the adaptation mechanism).
                self.req_buf.push_back(r);
                self.metrics.max_pending_requests =
                    self.metrics.max_pending_requests.max(self.req_buf.len());
                self.aux.set_pending_requests(self.req_buf.len() as u64);
                cpu += 5;
                if !self.serving {
                    self.serving = true;
                    step.sends.push(mirror_sim::engine::Send {
                        to: self.node,
                        bytes: 0,
                        payload: Payload::ServeNext,
                    });
                }
            }
            Payload::ServeNext => {
                if let Some(r) = self.req_buf.pop_front() {
                    let flights = self.ede.state().flight_count();
                    let bytes = 16 + flights * self.snapshot_entry_bytes();
                    let epoch = self.ede.epoch();
                    let hit = match (&self.snap_cache, self.cached_epoch) {
                        (Some(c), Some(cached)) => {
                            epoch >= cached && epoch - cached <= c.max_stale_events
                        }
                        _ => false,
                    };
                    if let (Some(c), true) = (&self.snap_cache, hit) {
                        cpu += c.hit_us;
                        self.metrics.snapshot_cache_hits += 1;
                    } else {
                        cpu += self.cost.request_cost(flights, bytes);
                        if self.snap_cache.is_some() {
                            self.cached_epoch = Some(epoch);
                        }
                    }
                    self.metrics.requests_served += 1;
                    step.sends.push(mirror_sim::engine::Send {
                        to: self.sink_node,
                        bytes,
                        payload: Payload::Snapshot { request_id: r.id, issued_us: r.at_us, bytes },
                    });
                }
                self.aux.set_pending_requests(self.req_buf.len() as u64);
                if self.req_buf.is_empty() {
                    self.serving = false;
                } else {
                    step.sends.push(mirror_sim::engine::Send {
                        to: self.node,
                        bytes: 0,
                        payload: Payload::ServeNext,
                    });
                }
            }
            Payload::Flush => {
                self.drive_aux(AuxInput::Flush, now, &mut cpu, &mut step);
            }
            Payload::Snapshot { .. } | Payload::ClientUpdate { .. } => {
                // Client-side payloads; sites never receive these.
            }
        }
        step.cpu_us = cpu;
        step
    }
}

/// The aggregate client population: absorbs regular updates and snapshot
/// responses, recording delivery metrics.
#[derive(Debug, Default)]
pub struct ClientSink {
    /// Regular updates delivered.
    pub updates: u64,
    /// Bytes of regular updates delivered.
    pub update_bytes: u64,
    /// Delivery delay of regular updates (ingress → client arrival).
    pub delivery_delay: DelayStats,
    /// Snapshot responses delivered.
    pub snapshots: u64,
    /// Bytes of snapshots delivered.
    pub snapshot_bytes: u64,
    /// Client-observed initial-state request latency.
    pub request_latency: DelayStats,
}

impl ClientSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SimProcess<Payload> for ClientSink {
    fn handle(&mut self, now: SimTime, _from: NodeId, payload: Payload) -> Step<Payload> {
        match payload {
            Payload::ClientUpdate { bytes, ingress_us } => {
                self.updates += 1;
                self.update_bytes += bytes as u64;
                self.delivery_delay.record(now.saturating_sub(ingress_us));
            }
            Payload::Snapshot { issued_us, bytes, .. } => {
                self.snapshots += 1;
                self.snapshot_bytes += bytes as u64;
                self.request_latency.record(now.saturating_sub(issued_us));
            }
            _ => return Step::none(),
        }
        // A client spends a moment absorbing the delivery; this also makes
        // the delivery instant count toward the run's completion time.
        Step::cpu(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::api::MirrorConfig;
    use mirror_core::event::PositionFix;
    use mirror_sim::engine::Sim;
    use mirror_sim::LinkParams;
    use mirror_workload::requests::Request;

    fn fix() -> PositionFix {
        PositionFix { lat: 0.0, lon: 0.0, alt_ft: 30000.0, speed_kts: 400.0, heading_deg: 0.0 }
    }

    type SharedProc<T> = std::sync::Arc<std::sync::Mutex<T>>;

    /// Minimal cluster: central(0) + mirror(1) + sink(2).
    #[allow(clippy::type_complexity)]
    fn build_cluster(
    ) -> (Sim<Payload>, SharedProc<SiteProcess>, SharedProc<SiteProcess>, SharedProc<ClientSink>)
    {
        let cost = CostModel::calibrated();
        let central_aux = MirrorConfig::default().build_central(vec![1]);
        let mirror_aux = MirrorConfig::default().build_mirror(1);
        let central = SiteProcess::central(central_aux, true, 0, vec![1], 2, cost);
        let mirror = SiteProcess::mirror(mirror_aux, 1, 0, 2, cost);
        let (c_shared, c) = mirror_sim::engine::Shared::new(central);
        let (m_shared, m) = mirror_sim::engine::Shared::new(mirror);
        let (s_shared, s) = mirror_sim::engine::Shared::new(ClientSink::new());
        let procs: Vec<Box<dyn SimProcess<Payload>>> =
            vec![Box::new(c_shared), Box::new(m_shared), Box::new(s_shared)];
        let mut sim = Sim::new(procs, LinkParams::intra_cluster());
        sim.set_link(0, 2, LinkParams::client_ethernet());
        sim.set_link(1, 2, LinkParams::client_ethernet());
        (sim, c, m, s)
    }

    #[test]
    fn events_flow_central_to_mirror_and_clients() {
        let (mut sim, central, mirror, sink) = build_cluster();
        for seq in 1..=120 {
            let e = Event::faa_position(seq, (seq % 5) as u32, fix())
                .with_total_size(1000)
                .with_ingress_us(0);
            sim.inject(0, 0, Payload::Source(e));
        }
        let end = sim.run();
        assert!(end > 0);
        let c = central.lock().unwrap();
        let m = mirror.lock().unwrap();
        let s = sink.lock().unwrap();
        assert_eq!(c.metrics.events_processed, 120, "central EDE sees all events");
        assert_eq!(m.metrics.events_processed, 120, "simple mirroring replicates all");
        assert_eq!(s.updates, 120, "clients receive every update");
        assert!(c.metrics.update_delay.count > 0);
        // With 120 events and checkpoint-every-50, at least two rounds ran
        // and both backup queues were pruned.
        assert!(c.aux_counters().checkpoints >= 2);
    }

    #[test]
    fn mirror_state_matches_central_under_simple_mirroring() {
        let (mut sim, central, mirror, _sink) = build_cluster();
        for seq in 1..=200 {
            let e = Event::faa_position(seq, (seq % 7) as u32, fix()).with_total_size(500);
            sim.inject(0, 0, Payload::Source(e));
        }
        sim.run();
        let c = central.lock().unwrap();
        let m = mirror.lock().unwrap();
        assert_eq!(c.state_hash(), m.state_hash(), "simple mirroring must replicate state exactly");
    }

    #[test]
    fn requests_are_buffered_served_and_answered() {
        let (mut sim, _central, mirror, sink) = build_cluster();
        // Seed some state first so snapshots are non-trivial.
        for seq in 1..=50 {
            let e = Event::faa_position(seq, (seq % 10) as u32, fix()).with_total_size(400);
            sim.inject(0, 0, Payload::Source(e));
        }
        for i in 0..20u64 {
            sim.inject(1000 + i, 1, Payload::Request(Request { at_us: 1000 + i, id: i + 1 }));
        }
        sim.run();
        let m = mirror.lock().unwrap();
        let s = sink.lock().unwrap();
        assert_eq!(m.metrics.requests_served, 20);
        assert_eq!(s.snapshots, 20);
        assert!(m.metrics.max_pending_requests >= 2, "burst must have queued");
        assert_eq!(m.pending_requests(), 0, "buffer drained");
        assert!(s.request_latency.count == 20 && s.request_latency.mean_us() > 0.0);
    }

    #[test]
    fn no_mirroring_baseline_skips_mirror_traffic() {
        let cost = CostModel::calibrated();
        let central_aux = MirrorConfig::default().build_central(Vec::new());
        let central = SiteProcess::central(central_aux, false, 0, Vec::new(), 1, cost);
        let (c_shared, c) = mirror_sim::engine::Shared::new(central);
        let (s_shared, s) = mirror_sim::engine::Shared::new(ClientSink::new());
        let procs: Vec<Box<dyn SimProcess<Payload>>> = vec![Box::new(c_shared), Box::new(s_shared)];
        let mut sim = Sim::new(procs, LinkParams::intra_cluster());
        sim.set_link(0, 1, LinkParams::client_ethernet());
        for seq in 1..=60 {
            sim.inject(0, 0, Payload::Source(Event::faa_position(seq, 1, fix())));
        }
        sim.run();
        let c = c.lock().unwrap();
        assert_eq!(c.aux_counters().mirrored, 0);
        assert_eq!(c.metrics.events_processed, 60);
        assert_eq!(s.lock().unwrap().updates, 60);
    }
}
