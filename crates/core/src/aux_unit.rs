//! The auxiliary unit — the mirroring half of every site.
//!
//! §3.1: each site is split into a *main unit* (the Event Derivation
//! Engine, i.e. business logic — provided by `mirror-ede`) and an
//! *auxiliary unit* implementing mirroring. Three tasks execute within the
//! central site's auxiliary unit:
//!
//! 1. the **receiving task** retrieves events from the incoming streams,
//!    timestamps them, applies the semantic rules, and places survivors on
//!    the ready queue;
//! 2. the **sending task** removes events from the ready queue, mirrors
//!    them onto all outgoing channels, forwards them to the main unit, and
//!    keeps a copy in the backup queue;
//! 3. the **control task** runs checkpointing and adaptation.
//!
//! [`AuxUnit`] composes the three tasks into one deterministic step
//! machine: every [`AuxInput`] yields a list of [`AuxAction`]s. Inputs
//! may be fed in runs ([`AuxUnit::handle_run`]), and a run begins at most
//! one checkpoint round. An event
//! keeps one allocation through the unit: the receiving task stamps the
//! submitted `Arc<Event>` in place, and the forward copy, the ready and
//! backup queues and the mirror copy all share it. The *same*
//! state machine runs threaded under `mirror-runtime` (each task a thread
//! sharing the unit behind a lock) and single-stepped under `mirror-sim`
//! (actions costed onto virtual CPU/links), which is what makes the
//! experiment results attributable to the algorithms rather than to two
//! divergent implementations.

use std::sync::Arc;

use crate::adapt::{
    AdaptDecision, AdaptationController, MonitorReport, ScaleDecision, ScalePolicy,
};
use crate::checkpoint::{CentralCheckpointer, CheckpointMsg, MirrorRelay};
use crate::control::{AdaptDirective, ControlMsg};
use crate::event::Event;
use crate::metrics::AuxCounters;
use crate::mirrorfn::{MirrorFn, MirrorFnKind};
use crate::params::MirrorParams;
use crate::partition::PartitionMap;
use crate::queue::{BackupQueue, ReadyQueue};
use crate::rules::RuleSet;
use crate::status::StatusTable;
use crate::timestamp::VectorTimestamp;

pub use crate::control::{SiteId, CENTRAL_SITE};

/// Input consumed by the auxiliary unit's step function.
#[derive(Debug, Clone, PartialEq)]
pub enum AuxInput {
    /// A data event: from a source (central site) or from the central
    /// site's mirroring channel (mirror site). Shared (`Arc`) so the same
    /// allocation can flow through channels, queues and transports without
    /// deep copies; at ingress the `Arc` is typically unique and the unit
    /// stamps it in place without copying.
    Data(Arc<Event>),
    /// A control-channel message (checkpoint traffic; at the central site
    /// this includes `ChkptRep`s relayed from mirrors and from the local
    /// main unit).
    Control(ControlMsg),
    /// Drain the ready queue even if a coalescing watermark has not been
    /// reached (end of stream, or the sending task waking up idle).
    Flush,
}

/// Output action produced by the step function; the embedding runtime
/// translates these into channel sends / simulator events.
#[derive(Debug, Clone, PartialEq)]
pub enum AuxAction {
    /// Put this event on every outgoing mirroring (data) channel. The
    /// `Arc` is shared with the backup queue's retained copy: fanning the
    /// event out to N mirrors plus retention costs reference-count bumps,
    /// not N+1 deep clones. `idx` is the monotone send index the backup
    /// queue assigned on retention — the durable name of this send, shared
    /// by retransmission ([`AuxUnit::retransmit_from`]) and by write-ahead
    /// journaling (`mirror-store`), so a journal entry and the in-memory
    /// retained copy always agree on identity.
    Mirror {
        /// Send index assigned by the backup queue (1, 2, 3… in push order).
        idx: u64,
        /// The mirrored event, sharing its allocation with the backup queue.
        event: Arc<Event>,
    },
    /// Deliver this event to the local main unit (regular processing path).
    ForwardToMain(Arc<Event>),
    /// Send a control message to every mirror site's auxiliary unit.
    ControlToMirrors(ControlMsg),
    /// Send a control message to the central site's auxiliary unit.
    ControlToCentral(ControlMsg),
    /// Deliver a control message to the local main unit.
    ControlToMain(ControlMsg),
    /// The unit adopted a new parameter set / mirroring function (either by
    /// local decision at the central site or via a piggybacked directive);
    /// surfaced so embeddings can log/observe reconfiguration.
    Reconfigured(MirrorParams),
    /// The checkpoint coordinator declared a mirror failed (it missed
    /// several consecutive rounds); embeddings should stop routing client
    /// requests and mirroring traffic to it.
    MirrorFailed(SiteId),
    /// The central adaptation controller's [`ScalePolicy`] directs a
    /// capacity change (spawn or retire a mirror). Decided centrally once
    /// per checkpoint round, like every other adaptation; the embedding
    /// (which owns site lifecycles) executes it.
    ScaleDirective(ScaleDecision),
}

/// Role-specific state of an auxiliary unit.
#[allow(clippy::large_enum_variant)] // exactly one Role per site, boxed state not worth the indirection
enum Role {
    /// The central (primary) site: coordinates checkpoints and adaptation.
    Central { checkpointer: CentralCheckpointer, adapt: AdaptationController },
    /// A secondary mirror site: relays checkpoint traffic.
    Mirror { relay: MirrorRelay },
}

/// The auxiliary unit of one site.
pub struct AuxUnit {
    site: SiteId,
    role: Role,
    ready: ReadyQueue,
    backup: BackupQueue,
    status: StatusTable,
    rules: RuleSet,
    mirror_fn: Box<dyn MirrorFn>,
    /// Forward-path customization (`set_fwd`): filters/transforms the
    /// events handed to the local main unit. Default: pass everything.
    fwd_fn: Box<dyn MirrorFn>,
    params: MirrorParams,
    /// The central receiving task's stamping clock: merges every incoming
    /// event's (stream, seq) so each stamped event carries the frontier of
    /// everything received before it.
    clock: VectorTimestamp,
    /// Data events processed since the last checkpoint fell due (the
    /// paper invokes checkpointing "at a constant frequency of once per 50
    /// processed events").
    processed_since_chkpt: u32,
    /// A checkpoint round fell due in the run being fed; the run's close
    /// begins it ([`handle_run`](Self::handle_run)).
    chkpt_due: bool,
    /// Pending client requests at this site (set by the embedding server;
    /// reported to the adaptation controller).
    pending_requests: u64,
    /// Membership epoch this unit has most recently observed: at the
    /// central site the epoch it stamps onto rounds, at a mirror the
    /// newest epoch seen on CHKPT/COMMIT traffic.
    membership_epoch: u64,
    /// Leadership term this unit has most recently observed. At the
    /// central site this is the term it coordinates under (mirrored into
    /// the checkpointer, which stamps it onto CHKPT/COMMIT); at a mirror
    /// it is the newest term seen on coordinator traffic, and frames
    /// carrying an older term are fenced out (see
    /// [`handle`](Self::handle)).
    leader_term: u64,
    /// Heartbeat threshold in idle sending-task wakeups (central site,
    /// `0` = disabled): after this many consecutive
    /// [`idle_checkpoint`](Self::idle_checkpoint) calls with nothing to
    /// commit, start a checkpoint round anyway so mirrors watching
    /// control-channel cadence can tell an idle coordinator from a dead
    /// one.
    heartbeat_after: u32,
    /// Consecutive idle wakeups with no round to start.
    heartbeat_idle_ticks: u32,
    /// Cluster partition map this unit has adopted, when the cluster runs
    /// in partitioned mode (`None` = classic full replication). Fenced on
    /// the map's own epoch, independently of the params generation —
    /// exactly the membership-epoch discipline. At the coordinator the
    /// current map rides every COMMIT, so mirrors (including late joiners)
    /// converge to the newest assignment.
    partition: Option<PartitionMap>,
    counters: AuxCounters,
    /// Scratch for the forward function's one-event run, reused so the
    /// pass-through path allocates nothing per event.
    fwd_run: Vec<Arc<Event>>,
    /// Scratch for the sending task's run: drained ready events, then the
    /// mirroring function's wire events.
    wire: Vec<Arc<Event>>,
}

impl AuxUnit {
    fn new(site: SiteId, role: Role, params: MirrorParams) -> Self {
        AuxUnit {
            site,
            role,
            ready: ReadyQueue::new(),
            backup: BackupQueue::new(),
            status: StatusTable::new(),
            rules: RuleSet::new(),
            mirror_fn: Box::new(crate::mirrorfn::IndependentMirror),
            fwd_fn: Box::new(crate::mirrorfn::IndependentMirror),
            params,
            clock: VectorTimestamp::empty(),
            processed_since_chkpt: 0,
            chkpt_due: false,
            pending_requests: 0,
            membership_epoch: 0,
            leader_term: 0,
            heartbeat_after: 0,
            heartbeat_idle_ticks: 0,
            partition: None,
            counters: AuxCounters::default(),
            fwd_run: Vec::new(),
            wire: Vec::new(),
        }
    }

    /// Create the central site's auxiliary unit, mirroring to `mirrors`.
    pub fn central(mirrors: Vec<SiteId>, params: MirrorParams) -> Self {
        let role = Role::Central {
            checkpointer: CentralCheckpointer::new(mirrors),
            adapt: AdaptationController::new(params.clone()),
        };
        Self::new(CENTRAL_SITE, role, params)
    }

    /// Create a mirror site's auxiliary unit.
    pub fn mirror(site: SiteId, params: MirrorParams) -> Self {
        assert_ne!(site, CENTRAL_SITE, "mirror sites are numbered from 1");
        Self::new(site, Role::Mirror { relay: MirrorRelay::new() }, params)
    }

    /// Derive the coordinator that succeeds this one (promotion, §6). The
    /// arguments are only the values that belong to the new incarnation:
    /// the surviving roster, the membership epoch, the bumped leadership
    /// term and the send index that continues the journal's sequence.
    /// Every field is sorted below into *configuration*, which the
    /// successor inherits, or *incarnation state*, which it starts
    /// afresh; the destructuring is exhaustive so that a field added to
    /// `AuxUnit` does not compile until it is sorted too.
    ///
    /// This unit is stopped or crashed and never runs again, so its
    /// installed mirror/forward functions are moved out of it — a stateful
    /// `set_mirror` closure carries over exactly like a named kind.
    ///
    /// # Panics
    /// If this unit is not a coordinator.
    pub fn successor(
        &mut self,
        mirrors: Vec<SiteId>,
        epoch: u64,
        term: u64,
        resume_idx: u64,
    ) -> AuxUnit {
        let AuxUnit {
            // Both: `suspect_after` and the adaptation controller's
            // configuration are carried, rounds and reports reset.
            role,
            // Configuration: carried.
            rules,
            mirror_fn,
            fwd_fn,
            params,
            heartbeat_after,
            partition,
            // Incarnation state: reset (epoch and term are the caller's).
            site: _,
            ready: _,
            backup: _,
            status: _,
            clock: _,
            processed_since_chkpt: _,
            chkpt_due: _,
            pending_requests: _,
            membership_epoch: _,
            leader_term: _,
            heartbeat_idle_ticks: _,
            counters: _,
            fwd_run: _,
            wire: _,
        } = self;
        let Role::Central { checkpointer, adapt } = role else {
            panic!("only a coordinator has a successor");
        };
        let mut next_checkpointer = CentralCheckpointer::new(mirrors);
        next_checkpointer.set_suspect_after(checkpointer.suspect_after());
        let role = Role::Central { checkpointer: next_checkpointer, adapt: adapt.successor() };
        let mut next = AuxUnit::new(CENTRAL_SITE, role, params.clone());
        // A half-built coalescing run dies with this incarnation, as in a
        // crash (a graceful stop has already flushed it).
        mirror_fn.flush(&mut Vec::new(), params);
        let idle = || Box::new(crate::mirrorfn::IndependentMirror) as Box<dyn MirrorFn>;
        next.mirror_fn = std::mem::replace(mirror_fn, idle());
        next.fwd_fn = std::mem::replace(fwd_fn, idle());
        next.rules = rules.clone();
        next.heartbeat_after = *heartbeat_after;
        next.partition = partition.clone();
        next.set_membership_epoch(epoch);
        next.set_leader_term(term);
        next.backup.resume_from(resume_idx);
        next
    }

    /// Derive the auxiliary unit of a mirror that joins, or replaces one,
    /// under this coordinator (scale-out, rejoin, cold recovery). Sorted
    /// and exhaustive like [`successor`](Self::successor).
    pub fn joining_mirror(&self, site: SiteId) -> AuxUnit {
        let AuxUnit {
            // Configuration: carried — the *current* params with their
            // generation, so an in-force directive is adopted and the
            // next one is not stale, and the rules that go with them.
            rules,
            params,
            // Coordinator-side configuration: a mirror's send path and
            // heartbeat are unused, and the partition map reaches it on
            // the next COMMIT (the coordinator re-sends it on every one).
            role: _,
            mirror_fn: _,
            fwd_fn: _,
            heartbeat_after: _,
            partition: _,
            // Incarnation state: reset; epoch and term are learned off
            // control traffic.
            site: _,
            ready: _,
            backup: _,
            status: _,
            clock: _,
            processed_since_chkpt: _,
            chkpt_due: _,
            pending_requests: _,
            membership_epoch: _,
            leader_term: _,
            heartbeat_idle_ticks: _,
            counters: _,
            fwd_run: _,
            wire: _,
        } = self;
        let mut aux = AuxUnit::mirror(site, params.clone());
        aux.rules = rules.clone();
        aux
    }

    /// This unit's site id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Is this the central (coordinating) unit?
    pub fn is_central(&self) -> bool {
        matches!(self.role, Role::Central { .. })
    }

    /// Current parameter set.
    pub fn params(&self) -> &MirrorParams {
        &self.params
    }

    /// Install a new parameter set directly (`set_params`). At the central
    /// site this also re-baselines the adaptation controller.
    pub fn set_params(&mut self, mut params: MirrorParams) {
        params.generation = self.params.generation + 1;
        if let Role::Central { adapt, .. } = &mut self.role {
            adapt.set_baseline(params.clone());
        }
        self.params = params;
    }

    /// Install a new rule set (the Table-1 `set_overwrite` /
    /// `set_complex_seq` / `set_complex_tuple` calls mutate it through
    /// [`rules_mut`](Self::rules_mut)).
    pub fn set_rules(&mut self, rules: RuleSet) {
        self.rules = rules;
    }

    /// Mutable access to the semantic rule set.
    pub fn rules_mut(&mut self) -> &mut RuleSet {
        &mut self.rules
    }

    /// The semantic rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Install a custom mirroring function (`set_mirror`). Any events the
    /// outgoing function had buffered (partial coalescing runs) are
    /// dropped from *this* call's perspective — call
    /// [`handle`](Self::handle) with [`AuxInput::Flush`] first if they
    /// must be released; the adaptation path does this automatically.
    pub fn set_mirror_fn(&mut self, f: Box<dyn MirrorFn>) {
        self.mirror_fn = f;
    }

    /// Install a custom forwarding function (`set_fwd`): it decides which
    /// events the local main unit receives.
    pub fn set_fwd_fn(&mut self, f: Box<dyn MirrorFn>) {
        self.fwd_fn = f;
    }

    /// Install a named mirroring configuration: send-path function,
    /// receive-path rules, and parameters together.
    pub fn install_kind(&mut self, kind: MirrorFnKind) {
        self.mirror_fn = kind.build();
        self.rules = kind.rules();
        let p = kind.params(&self.params);
        self.set_params(p);
    }

    /// The adaptation controller (central site only).
    pub fn adaptation_mut(&mut self) -> Option<&mut AdaptationController> {
        match &mut self.role {
            Role::Central { adapt, .. } => Some(adapt),
            Role::Mirror { .. } => None,
        }
    }

    /// Update the pending-client-requests gauge (a monitored variable).
    pub fn set_pending_requests(&mut self, n: u64) {
        self.pending_requests = n;
    }

    /// Current monitored-variable snapshot for this site.
    pub fn monitor_report(&self) -> MonitorReport {
        MonitorReport {
            ready_len: self.ready.len() as u64,
            backup_len: self.backup.len() as u64,
            pending_requests: self.pending_requests,
        }
    }

    /// Counters for experiments.
    pub fn counters(&self) -> AuxCounters {
        self.counters
    }

    /// Ready-queue length (monitored variable).
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Backup-queue length (monitored variable).
    pub fn backup_len(&self) -> usize {
        self.backup.len()
    }

    /// The receiving task's stamping clock frontier.
    pub fn clock(&self) -> &VectorTimestamp {
        &self.clock
    }

    /// Readmit a previously failed mirror into checkpoint rounds (central
    /// site only; call after the mirror's state has been re-seeded).
    pub fn readmit_mirror(&mut self, site: SiteId) {
        if let Role::Central { checkpointer, .. } = &mut self.role {
            checkpointer.readmit(site);
        }
    }

    /// Record a membership change: at the central site, `epoch` is stamped
    /// onto every subsequent CHKPT/COMMIT; at a mirror this is normally
    /// learned from control traffic instead.
    pub fn set_membership_epoch(&mut self, epoch: u64) {
        self.membership_epoch = self.membership_epoch.max(epoch);
        if let Role::Central { checkpointer, .. } = &mut self.role {
            checkpointer.set_epoch(self.membership_epoch);
        }
    }

    /// The membership epoch this unit most recently observed: at the
    /// central site the epoch it stamps onto rounds, at a mirror the
    /// newest epoch carried by CHKPT/COMMIT traffic.
    pub fn membership_epoch(&self) -> u64 {
        self.membership_epoch
    }

    /// Adopt a leadership term (monotone — a lower value is ignored). At
    /// the central site the term is stamped onto every subsequent
    /// CHKPT/COMMIT and required of every accepted reply; a promoted
    /// coordinator calls this with the bumped term before serving. At a
    /// mirror it raises the fencing floor (normally learned from control
    /// traffic instead).
    pub fn set_leader_term(&mut self, term: u64) {
        self.leader_term = self.leader_term.max(term);
        if let Role::Central { checkpointer, .. } = &mut self.role {
            checkpointer.set_term(self.leader_term);
        }
    }

    /// The leadership term this unit most recently observed (coordinates
    /// under, at the central site).
    pub fn leader_term(&self) -> u64 {
        self.leader_term
    }

    /// Install (or update) the cluster partition map. The map is adopted
    /// through the same epoch fence mirrors apply
    /// ([`PartitionMap::adopt`]), and at the coordinator the adopted map
    /// then rides *every* subsequent COMMIT — not just the next one — so
    /// mirrors that join or rejoin mid-stream still converge to the newest
    /// assignment. Returns whether the map was newer than the current one.
    pub fn set_partition_map(&mut self, pm: PartitionMap) -> bool {
        let adopted = PartitionMap::adopt(&mut self.partition, &pm);
        if adopted {
            self.counters.partition_updates += 1;
        }
        adopted
    }

    /// The cluster partition map this unit has adopted (`None` = classic
    /// full replication).
    pub fn partition_map(&self) -> Option<&PartitionMap> {
        self.partition.as_ref()
    }

    /// Epoch of the adopted partition map (`0` when unpartitioned) — the
    /// monotone fencing value tests assert on.
    pub fn partition_epoch(&self) -> u64 {
        self.partition.as_ref().map_or(0, |p| p.epoch())
    }

    /// Enable idle heartbeat rounds (central site): after `ticks`
    /// consecutive idle sending-task wakeups with nothing to commit, a
    /// checkpoint round is started at the committed frontier anyway.
    /// Failure detection at mirrors infers coordinator death from
    /// control-channel silence, so when failover is armed, silence must
    /// mean death — not an idle event stream. `0` (the default) disables
    /// heartbeats, preserving the paper's no-timeout protocol exactly.
    pub fn set_heartbeat_after(&mut self, ticks: u32) {
        self.heartbeat_after = ticks;
    }

    /// Admit a brand-new mirror at `epoch` (central site only): it joins
    /// checkpoint rounds from the next round on — a round already in
    /// flight is never gated on a site that did not see its proposal
    /// (same machinery as [`readmit_mirror`](Self::readmit_mirror)).
    pub fn admit_mirror(&mut self, site: SiteId, epoch: u64) {
        self.set_membership_epoch(epoch);
        self.readmit_mirror(site);
    }

    /// Gracefully retire a mirror at `epoch` (central site only): remove
    /// it from checkpoint rounds without marking it failed, and drop its
    /// monitor report so a retired site's last pressure reading cannot
    /// keep driving adaptation.
    pub fn retire_mirror(&mut self, site: SiteId, epoch: u64) {
        self.set_membership_epoch(epoch);
        if let Role::Central { checkpointer, adapt } = &mut self.role {
            checkpointer.retire(site);
            adapt.remove_report(site);
        }
    }

    /// Install an elastic-capacity policy (central site only): each
    /// checkpoint round the controller may then emit an
    /// [`AuxAction::ScaleDirective`].
    pub fn set_scale_policy(&mut self, policy: ScalePolicy) {
        if let Role::Central { adapt, .. } = &mut self.role {
            adapt.set_scale_policy(policy);
        }
    }

    /// Declare a mirror failed immediately (central site only) — the
    /// escalation path for a transport link whose reconnect budget is
    /// exhausted. Unlike `suspect_after` detection, which waits out rounds
    /// of silence, this acts on positive knowledge that the link is dead.
    /// Returns the same [`AuxAction::MirrorFailed`] the detector would.
    pub fn declare_mirror_failed(&mut self, site: SiteId) -> Vec<AuxAction> {
        if let Role::Central { checkpointer, .. } = &mut self.role {
            if checkpointer.declare_failed(site) {
                return vec![AuxAction::MirrorFailed(site)];
            }
        }
        Vec::new()
    }

    /// Replay retained backup-queue events from send index `idx` on
    /// (oldest first): the recovery stream for a peer that reconnected
    /// after losing in-flight traffic. Events already pruned by a
    /// committed checkpoint are omitted — the peer's committed state
    /// covers them.
    pub fn retransmit_from(&self, idx: u64) -> Vec<(u64, Arc<Event>)> {
        self.backup.retransmit_from(idx)
    }

    /// The send index the next mirrored event will receive (see
    /// [`BackupQueue::next_send_idx`]).
    pub fn next_send_idx(&self) -> u64 {
        self.backup.next_send_idx()
    }

    /// Everything below this send index is covered by a committed
    /// checkpoint (see [`BackupQueue::truncation_floor`]) — the durable
    /// truncation watermark a write-ahead journal may advance to.
    pub fn truncation_floor(&self) -> u64 {
        self.backup.truncation_floor()
    }

    /// Set the failure-detection threshold in missed checkpoint rounds
    /// (central site only; 0 disables detection).
    pub fn set_suspect_after(&mut self, rounds: u32) {
        if let Role::Central { checkpointer, .. } = &mut self.role {
            checkpointer.set_suspect_after(rounds);
        }
    }

    /// Mirrors currently participating in checkpoint rounds (central only).
    pub fn live_mirrors(&self) -> Option<Vec<SiteId>> {
        match &self.role {
            Role::Central { checkpointer, .. } => Some(checkpointer.mirrors().to_vec()),
            Role::Mirror { .. } => None,
        }
    }

    /// Last committed checkpoint (central site only).
    pub fn committed(&self) -> Option<VectorTimestamp> {
        match &self.role {
            Role::Central { checkpointer, .. } => Some(checkpointer.committed().clone()),
            Role::Mirror { .. } => None,
        }
    }

    /// Feed one input through the unit as a run of its own, producing the
    /// actions to perform.
    pub fn handle(&mut self, input: AuxInput) -> Vec<AuxAction> {
        let mut actions = Vec::new();
        self.handle_run([input], &mut actions);
        actions
    }

    /// Feed a run of inputs through the unit in order, appending their
    /// actions to `actions`, then close the run: if a checkpoint fell due
    /// during it, begin one round, proposing the run's newest stamp. A
    /// later round subsumes an earlier one, so a run spanning several
    /// `checkpoint_every` stretches still sends one CHKPT. Round numbers
    /// stay consecutive — they count the rounds begun — so a peer one
    /// round behind lags by one, as `suspect_after` assumes.
    pub fn handle_run(
        &mut self,
        inputs: impl IntoIterator<Item = AuxInput>,
        actions: &mut Vec<AuxAction>,
    ) {
        for input in inputs {
            self.handle_into(input, actions);
        }
        if std::mem::take(&mut self.chkpt_due) {
            actions.extend(self.begin_checkpoint());
        }
    }

    /// Feed one input of a run, appending its actions to `actions`.
    fn handle_into(&mut self, input: AuxInput, actions: &mut Vec<AuxAction>) {
        match input {
            AuxInput::Data(event) => match self.is_central() {
                true => self.central_on_data(event, actions),
                false => self.mirror_on_data(event, actions),
            },
            AuxInput::Control(msg) => actions.extend(self.on_control(msg)),
            AuxInput::Flush => self.drain_ready(true, actions),
        }
    }

    // ------------------------------------------------------------------
    // Receiving task (central): stamp, record, filter.
    // ------------------------------------------------------------------

    fn central_on_data(&mut self, mut event: Arc<Event>, actions: &mut Vec<AuxAction>) {
        self.counters.received += 1;

        // Timestamping: advance the clock with this event's (stream, seq)
        // and stamp the event with the resulting frontier. At ingress the
        // `Arc` is almost always unique (freshly submitted), so this
        // stamps the submitted allocation in place rather than a copy.
        let stamped = Arc::make_mut(&mut event);
        self.clock.advance(stamped.stream as usize, stamped.seq);
        stamped.stamp = self.clock.clone();

        // Status-table history first, then rule evaluation (§3.2.1).
        self.status.observe(&event);
        let outcome = self.rules.evaluate(&event, &mut self.status);

        self.fwd_run.push(Arc::clone(&event));
        self.fwd_fn.prepare(&mut self.fwd_run, &self.params);
        for f in self.fwd_run.drain(..) {
            self.counters.forwarded += 1;
            actions.push(AuxAction::ForwardToMain(f));
        }
        if outcome.mirror {
            self.ready.push(event);
        } else {
            self.counters.suppressed += 1;
        }
        for derived in outcome.derived {
            // Derived events are new application-level facts: they go to
            // the main unit and onto the mirror path, sharing one
            // allocation.
            let derived = Arc::new(derived);
            self.counters.forwarded += 1;
            actions.push(AuxAction::ForwardToMain(Arc::clone(&derived)));
            self.ready.push(derived);
        }

        // Sending task: drain whatever is pending. Per-flight coalescing
        // state is held inside the mirroring function, so draining eagerly
        // still produces coalesced wire events.
        self.drain_ready(false, actions);

        // Control task: a checkpoint falls due once per `checkpoint_every`
        // processed events; the run's close begins it.
        self.processed_since_chkpt += 1;
        if self.processed_since_chkpt >= self.params.checkpoint_every {
            self.processed_since_chkpt = 0;
            self.chkpt_due = true;
        }
    }

    // ------------------------------------------------------------------
    // Sending task (central): mirror, retain, trigger checkpoints.
    // ------------------------------------------------------------------

    fn drain_ready(&mut self, flush: bool, actions: &mut Vec<AuxAction>) {
        if !self.is_central() {
            // Mirror-side data drains in mirror_on_data; a Flush on a
            // mirror site is a no-op.
            return;
        }
        self.ready.drain_into(&mut self.wire);
        self.mirror_fn.prepare(&mut self.wire, &self.params);
        if flush {
            self.mirror_fn.flush(&mut self.wire, &self.params);
        }
        self.send_wire(actions);
    }

    /// Mirror the sending task's prepared run: each event is retained in
    /// the backup queue and put on the wire, sharing one allocation.
    fn send_wire(&mut self, actions: &mut Vec<AuxAction>) {
        for ev in self.wire.drain(..) {
            self.counters.mirrored += 1;
            self.counters.mirrored_bytes += ev.wire_size() as u64;
            let idx = self.backup.push(Arc::clone(&ev));
            actions.push(AuxAction::Mirror { idx, event: ev });
        }
    }

    /// Idle-time liveness for the central unit, called by embeddings on
    /// sending-task wakeups. Two duties:
    ///
    /// * **tail commit** — no round in flight but uncommitted events
    ///   remain: start a round so the tail of a stream commits even when
    ///   no new events arrive to trigger rate-based checkpointing;
    /// * **wedged-round restart** — the in-flight round is
    ///   [wedged](CentralCheckpointer::pending_wedged): every participant
    ///   still in the membership has replied, yet the round cannot commit
    ///   because an eviction removed the straggler *after* its peers'
    ///   replies were consumed. No future reply will arrive, so abandon
    ///   it by starting a fresh round under current membership. A round
    ///   that is merely waiting on a slow or partitioned member is left
    ///   alone — restarting those would inflate the round counter during
    ///   an outage and make the survivor's reply lag look like failure;
    /// * **heartbeat rounds** — with
    ///   [`set_heartbeat_after`](Self::set_heartbeat_after) armed, an
    ///   idle coordinator (no round in flight, nothing to commit) starts
    ///   a round at the committed frontier every N wakeups so mirrors
    ///   watching control-channel cadence can distinguish idle from dead.
    pub fn idle_checkpoint(&mut self) -> Vec<AuxAction> {
        let Role::Central { checkpointer, .. } = &self.role else {
            return Vec::new();
        };
        if checkpointer.round_in_flight() {
            if !checkpointer.pending_wedged() {
                // Replies are still due: the control channel is live, so
                // the heartbeat clock restarts.
                self.heartbeat_idle_ticks = 0;
                return Vec::new();
            }
        } else if self.backup.is_empty() {
            if self.heartbeat_after == 0 {
                return Vec::new();
            }
            self.heartbeat_idle_ticks += 1;
            if self.heartbeat_idle_ticks < self.heartbeat_after {
                return Vec::new();
            }
            // Heartbeat: an empty-backup round proposes the committed
            // frontier; every participant's reply trivially covers it, so
            // the round commits and CHKPT/COMMIT cadence keeps flowing.
        }
        self.heartbeat_idle_ticks = 0;
        self.processed_since_chkpt = 0;
        self.begin_checkpoint()
    }

    fn begin_checkpoint(&mut self) -> Vec<AuxAction> {
        let proposal = self.backup.last_stamp().clone();
        let (checkpointer, adapt) = match &mut self.role {
            Role::Central { checkpointer, adapt } => (checkpointer, adapt),
            Role::Mirror { .. } => return Vec::new(),
        };
        // Record the central site's own monitored variables for this round.
        let report = MonitorReport {
            ready_len: self.ready.len() as u64,
            backup_len: self.backup.len() as u64,
            pending_requests: self.pending_requests,
        };
        adapt.record_report(CENTRAL_SITE, report);
        self.counters.checkpoints += 1;
        let msgs = checkpointer.begin(proposal);
        let failed = checkpointer.take_newly_failed();
        for &site in &failed {
            // A dead site's last (possibly alarming) monitor report must
            // not keep driving adaptation decisions.
            adapt.remove_report(site);
        }
        let mut actions = self.route_checkpoint_msgs(msgs);
        actions.extend(failed.into_iter().map(AuxAction::MirrorFailed));
        actions
    }

    // ------------------------------------------------------------------
    // Control task.
    // ------------------------------------------------------------------

    fn on_control(&mut self, msg: ControlMsg) -> Vec<AuxAction> {
        match (&mut self.role, msg) {
            // --- central site -------------------------------------------------
            (
                Role::Central { checkpointer, adapt },
                ControlMsg::ChkptRep { round, site, stamp, monitor, term },
            ) => {
                // The local main unit only knows the pending-request count;
                // its reply must not clobber the central's real queue
                // lengths in the adaptation monitors.
                let monitor = if site == CENTRAL_SITE {
                    MonitorReport {
                        ready_len: self.ready.len() as u64,
                        backup_len: self.backup.len() as u64,
                        pending_requests: monitor.pending_requests.max(self.pending_requests),
                    }
                } else {
                    monitor
                };
                adapt.record_report(site, monitor);
                let reply = checkpointer.on_reply(round, site, stamp, term);
                let failed = checkpointer.take_newly_failed();
                for &f in &failed {
                    adapt.remove_report(f);
                }
                let mut failure_actions: Vec<AuxAction> =
                    failed.into_iter().map(AuxAction::MirrorFailed).collect();
                match reply {
                    None => failure_actions,
                    Some((commit, msgs)) => {
                        // Voting complete: decide adaptation, attach the
                        // directive to the commit, prune our own backup.
                        let directive = match adapt.decide() {
                            AdaptDecision::Hold => None,
                            AdaptDecision::Engage(d) | AdaptDecision::Release(d) => Some(d),
                        };
                        // In partitioned mode the current map rides every
                        // COMMIT. On a Hold round a carrier directive is
                        // synthesized at the *current* params generation:
                        // the receiver's generation guard skips the params,
                        // and the partition map applies through its own
                        // epoch fence.
                        let directive = match (directive, &self.partition) {
                            (Some(mut d), pm) => {
                                d.partition = pm.clone();
                                Some(d)
                            }
                            (None, Some(pm)) => Some(AdaptDirective {
                                params: self.params.clone(),
                                mirror_fn: None,
                                partition: Some(pm.clone()),
                            }),
                            (None, None) => None,
                        };
                        // Elastic capacity is decided at the same point —
                        // once per committed round, centrally — but is an
                        // embedding-level action (the aux unit does not own
                        // site lifecycles), so it surfaces as its own
                        // action rather than riding the COMMIT.
                        let scale = adapt.decide_scale(checkpointer.mirrors().len());
                        self.backup.prune(&commit);
                        let mut actions = Vec::new();
                        for m in msgs {
                            let routed = attach_directive(m, &directive);
                            actions.push(route_one(routed));
                        }
                        if let Some(d) = directive {
                            actions.extend(self.apply_directive(d));
                        }
                        self.counters.control_msgs += actions.len() as u64;
                        failure_actions.extend(actions);
                        if let Some(s) = scale {
                            failure_actions.push(AuxAction::ScaleDirective(s));
                        }
                        failure_actions
                    }
                }
            }
            // The central site never receives CHKPT/COMMIT from others.
            (Role::Central { .. }, _other) => Vec::new(),

            // --- mirror site --------------------------------------------------
            (Role::Mirror { relay }, msg @ ControlMsg::Chkpt { .. }) => {
                // Term fence: a CHKPT from an older term is a resurrected
                // coordinator that has already been succeeded — relaying it
                // to the main unit would let it split-brain the round.
                if msg.term() < self.leader_term {
                    self.counters.stale_term_rejects += 1;
                    return Vec::new();
                }
                self.leader_term = msg.term();
                if let Some(e) = msg.epoch() {
                    self.membership_epoch = self.membership_epoch.max(e);
                }
                let msgs = relay.on_chkpt(msg);
                self.counters.control_msgs += msgs.len() as u64;
                self.route_checkpoint_msgs(msgs)
            }
            (
                Role::Mirror { relay },
                ControlMsg::ChkptRep { round, site, stamp, monitor, term },
            ) => {
                // Reply from our local main unit: refresh the monitored
                // variables with this unit's own queue lengths (the main
                // unit only knows the pending-request count) and relay.
                // The reply echoes its proposal's term, which passed the
                // fence on arrival — no re-check needed here.
                let monitor = MonitorReport {
                    ready_len: self.ready.len() as u64,
                    backup_len: self.backup.len() as u64,
                    pending_requests: monitor.pending_requests.max(self.pending_requests),
                };
                let msgs = relay.on_main_reply(round, site, stamp, monitor, term, &self.backup);
                self.counters.control_msgs += msgs.len() as u64;
                self.route_checkpoint_msgs(msgs)
            }
            (Role::Mirror { relay }, msg @ ControlMsg::Commit { .. }) => {
                // Same fence as CHKPT: a stale-term COMMIT must not prune
                // the backup queue or reconfigure this site.
                if msg.term() < self.leader_term {
                    self.counters.stale_term_rejects += 1;
                    return Vec::new();
                }
                self.leader_term = msg.term();
                if let Some(e) = msg.epoch() {
                    self.membership_epoch = self.membership_epoch.max(e);
                }
                let directive = match &msg {
                    ControlMsg::Commit { adapt, .. } => adapt.clone(),
                    _ => None,
                };
                let (pruned, msgs) = relay.on_commit(msg, &mut self.backup);
                if pruned > 0 {
                    self.counters.checkpoints += 1;
                }
                let mut actions = self.route_checkpoint_msgs(msgs);
                if let Some(d) = directive {
                    actions.extend(self.apply_directive(d));
                }
                actions
            }
        }
    }

    /// Apply a (generation-guarded) adaptation directive to this unit.
    fn apply_directive(&mut self, d: AdaptDirective) -> Vec<AuxAction> {
        // The partition map fences on its own epoch, *before* and
        // independently of the params generation guard: a directive whose
        // params are stale can still carry a newer slot assignment (the
        // coordinator re-sends the current map on every COMMIT).
        if let Some(pm) = &d.partition {
            if PartitionMap::adopt(&mut self.partition, pm) {
                self.counters.partition_updates += 1;
            }
        }
        if d.params.generation <= self.params.generation {
            return Vec::new(); // stale directive
        }
        let mut actions = Vec::new();
        if let Some(kind) = d.mirror_fn {
            // Release anything the outgoing function buffered (partial
            // coalescing runs) before swapping it out — a reconfiguration
            // must never silently drop events from the mirror path.
            self.mirror_fn.flush(&mut self.wire, &self.params);
            self.send_wire(&mut actions);
            self.mirror_fn = kind.build();
            self.rules = kind.rules();
        }
        self.params = d.params.clone();
        self.counters.adaptations += 1;
        actions.push(AuxAction::Reconfigured(d.params));
        actions
    }

    fn route_checkpoint_msgs(&mut self, msgs: Vec<CheckpointMsg>) -> Vec<AuxAction> {
        msgs.into_iter().map(route_one).collect()
    }

    // ------------------------------------------------------------------
    // Mirror-site data path.
    // ------------------------------------------------------------------

    fn mirror_on_data(&mut self, event: Arc<Event>, actions: &mut Vec<AuxAction>) {
        self.counters.received += 1;
        self.clock.merge(&event.stamp);
        self.status.observe(&event);
        // Mirror sites retain a copy for checkpoint-bounded recovery and
        // hand the event to their main unit (whose EDE replicates state and
        // serves client requests). Both copies share one allocation.
        self.backup.push(Arc::clone(&event));
        self.counters.forwarded += 1;
        actions.push(AuxAction::ForwardToMain(event));
    }
}

/// Attach an adaptation directive to a routed commit message.
fn attach_directive(msg: CheckpointMsg, directive: &Option<AdaptDirective>) -> CheckpointMsg {
    let Some(d) = directive else { return msg };
    let patch = |m: ControlMsg| match m {
        ControlMsg::Commit { round, stamp, epoch, term, .. } => {
            ControlMsg::Commit { round, stamp, epoch, term, adapt: Some(d.clone()) }
        }
        other => other,
    };
    match msg {
        CheckpointMsg::BroadcastToMirrors(m) => CheckpointMsg::BroadcastToMirrors(patch(m)),
        CheckpointMsg::ToLocalMain(m) => CheckpointMsg::ToLocalMain(patch(m)),
        CheckpointMsg::ToCentral(m) => CheckpointMsg::ToCentral(patch(m)),
    }
}

/// Translate a checkpoint routing instruction into an aux action.
fn route_one(msg: CheckpointMsg) -> AuxAction {
    match msg {
        CheckpointMsg::BroadcastToMirrors(m) => AuxAction::ControlToMirrors(m),
        CheckpointMsg::ToLocalMain(m) => AuxAction::ControlToMain(m),
        CheckpointMsg::ToCentral(m) => AuxAction::ControlToCentral(m),
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::event::{Event, EventBody, EventType, FlightStatus, PositionFix};
    use crate::rules::Rule;

    fn fix() -> PositionFix {
        PositionFix { lat: 0.0, lon: 0.0, alt_ft: 30000.0, speed_kts: 450.0, heading_deg: 0.0 }
    }

    fn pos(seq: u64, flight: u32) -> Event {
        Event::faa_position(seq, flight, fix())
    }

    /// Drive a full checkpoint round by hand: run the main-unit responders
    /// and feed their replies back, return total mirror-side prunes.
    fn run_round(
        central: &mut AuxUnit,
        mirrors: &mut [AuxUnit],
        actions: Vec<AuxAction>,
        mains: &mut [crate::checkpoint::MainUnitResponder],
    ) -> Vec<AuxAction> {
        use crate::adapt::MonitorReport;
        let mut commits = Vec::new();
        // Deliver CHKPT broadcast + local main.
        for a in actions {
            match a {
                AuxAction::ControlToMirrors(m) => {
                    for (i, mu) in mirrors.iter_mut().enumerate() {
                        let acts = mu.handle(AuxInput::Control(m.clone()));
                        for act in acts {
                            if let AuxAction::ControlToMain(cm) = act {
                                // mirror main unit replies
                                if let Some(rep) =
                                    mains[i + 1].on_chkpt(&cm, MonitorReport::default())
                                {
                                    let back = mu.handle(AuxInput::Control(rep));
                                    for b in back {
                                        if let AuxAction::ControlToCentral(r) = b {
                                            commits.extend(central.handle(AuxInput::Control(r)));
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                AuxAction::ControlToMain(m) => {
                    if let Some(rep) = mains[0].on_chkpt(&m, MonitorReport::default()) {
                        commits.extend(central.handle(AuxInput::Control(rep)));
                    }
                }
                _ => {}
            }
        }
        commits
    }

    #[test]
    fn central_stamps_and_mirrors_every_event_by_default() {
        let mut aux = AuxUnit::central(vec![1], MirrorParams::default());
        let actions = aux.handle(AuxInput::Data(pos(1, 7).into()));
        let mirrors: Vec<_> =
            actions.iter().filter(|a| matches!(a, AuxAction::Mirror { .. })).collect();
        let fwds: Vec<_> =
            actions.iter().filter(|a| matches!(a, AuxAction::ForwardToMain(_))).collect();
        assert_eq!(mirrors.len(), 1);
        assert_eq!(fwds.len(), 1);
        if let AuxAction::Mirror { idx, event } = mirrors[0] {
            assert_eq!(event.stamp.get(0), 1, "event must be stamped at ingress");
            assert_eq!(*idx, 1, "first send carries index 1");
        }
        assert_eq!(aux.backup_len(), 1, "mirrored event retained in backup queue");
    }

    #[test]
    fn selective_rules_suppress_mirror_but_not_forward() {
        let mut aux = AuxUnit::central(vec![1], MirrorParams::default());
        aux.rules_mut().push(Rule::Overwrite { ty: EventType::FaaPosition, max_len: 5 });
        let mut mirrored = 0;
        let mut forwarded = 0;
        for seq in 1..=50 {
            for a in aux.handle(AuxInput::Data(pos(seq, 3).into())) {
                match a {
                    AuxAction::Mirror { .. } => mirrored += 1,
                    AuxAction::ForwardToMain(_) => forwarded += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(forwarded, 50, "forward path lossless");
        assert!((10..=11).contains(&mirrored), "1-in-5 mirrored, got {mirrored}");
        assert_eq!(aux.counters().suppressed as usize, 50 - mirrored);
    }

    #[test]
    fn coalescing_accumulates_per_flight_until_cap_or_flush() {
        let mut params = MirrorParams::default();
        params.coalesce = true;
        params.coalesce_max = 4;
        let mut aux = AuxUnit::central(vec![1], params);
        aux.set_mirror_fn(Box::new(crate::mirrorfn::CoalescingMirror::new()));
        let mut mirrored = Vec::new();
        for seq in 1..=3 {
            for a in aux.handle(AuxInput::Data(pos(seq, 1).into())) {
                if let AuxAction::Mirror { event, .. } = a {
                    mirrored.push(event);
                }
            }
        }
        assert!(mirrored.is_empty(), "run of 3 < cap 4: still accumulating");
        for a in aux.handle(AuxInput::Data(pos(4, 1).into())) {
            if let AuxAction::Mirror { event, .. } = a {
                mirrored.push(event);
            }
        }
        assert_eq!(mirrored.len(), 1, "cap reached: one coalesced wire event");
        // A partial run is released by Flush.
        aux.handle(AuxInput::Data(pos(5, 1).into()));
        let flushed = aux.handle(AuxInput::Flush);
        assert!(flushed.iter().any(|a| matches!(a, AuxAction::Mirror { .. })));
    }

    #[test]
    fn checkpoint_fires_every_n_sent_events_and_prunes() {
        let mut params = MirrorParams::default();
        params.checkpoint_every = 10;
        let mut central = AuxUnit::central(vec![1], params.clone());
        let mut mirror = AuxUnit::mirror(1, params);
        let mut mains = vec![
            crate::checkpoint::MainUnitResponder::new(CENTRAL_SITE),
            crate::checkpoint::MainUnitResponder::new(1),
        ];

        let mut chkpt_actions = Vec::new();
        for seq in 1..=10 {
            for a in central.handle(AuxInput::Data(pos(seq, 1).into())) {
                match a {
                    AuxAction::Mirror { event, .. } => {
                        // Deliver to the mirror; its main unit processes.
                        for ma in mirror.handle(AuxInput::Data(event)) {
                            if let AuxAction::ForwardToMain(ev) = ma {
                                mains[1].record_processed(&ev.stamp);
                            }
                        }
                    }
                    AuxAction::ForwardToMain(ev) => mains[0].record_processed(&ev.stamp),
                    other => chkpt_actions.push(other),
                }
            }
        }
        assert!(
            chkpt_actions
                .iter()
                .any(|a| matches!(a, AuxAction::ControlToMirrors(ControlMsg::Chkpt { .. }))),
            "checkpoint initiated after 10 sent events"
        );
        assert_eq!(central.backup_len(), 10);
        assert_eq!(mirror.backup_len(), 10);

        let commits = run_round(&mut central, &mut [mirror], chkpt_actions, &mut mains);
        // Commit messages were broadcast.
        assert!(commits
            .iter()
            .any(|a| matches!(a, AuxAction::ControlToMirrors(ControlMsg::Commit { .. }))));
        // Central pruned everything it had mirrored (all processed).
        assert_eq!(central.backup_len(), 0);
        assert_eq!(central.committed().unwrap().get(0), 10);
    }

    /// The CHKPTs in `actions`: (round, proposal's stream-0 entry).
    fn chkpts(actions: &[AuxAction]) -> Vec<(u64, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                AuxAction::ControlToMirrors(ControlMsg::Chkpt { round, stamp, .. }) => {
                    Some((*round, stamp.get(0)))
                }
                _ => None,
            })
            .collect()
    }

    /// A run of data events `seqs` on one flight.
    fn data_run(seqs: std::ops::RangeInclusive<u64>) -> impl Iterator<Item = AuxInput> {
        seqs.map(|seq| AuxInput::Data(pos(seq, 1).into()))
    }

    #[test]
    fn one_chkpt_per_run_numbered_after_the_last() {
        let mut params = MirrorParams::default();
        params.checkpoint_every = 10;
        let mut aux = AuxUnit::central(vec![1], params);
        let mut actions = Vec::new();
        aux.handle_run(data_run(1..=55), &mut actions);
        assert_eq!(chkpts(&actions), vec![(1, 55)], "five rounds fell due: one CHKPT");

        // The five events left over count toward the next round, which
        // takes the next number.
        actions.clear();
        aux.handle_run(data_run(56..=60), &mut actions);
        assert_eq!(chkpts(&actions), vec![(2, 60)]);
        actions.clear();
        aux.handle_run([], &mut actions);
        assert!(actions.is_empty(), "nothing fell due");
        assert_eq!(aux.counters().checkpoints, 2, "rounds begun");
    }

    #[test]
    fn one_chkpt_per_run_keeps_a_peer_one_round_behind_unsuspected() {
        let mut params = MirrorParams::default();
        params.checkpoint_every = 10;
        let mut aux = AuxUnit::central(vec![1, 2], params);
        aux.set_suspect_after(3);
        let reply = |aux: &mut AuxUnit, round, site| {
            let stamp = aux.clock().clone();
            let monitor = MonitorReport::default();
            aux.handle(AuxInput::Control(ControlMsg::ChkptRep {
                round,
                site,
                stamp,
                monitor,
                term: 0,
            }))
        };
        // Feed a run and return the round of the one CHKPT it sends.
        let run = |aux: &mut AuxUnit, seqs| {
            let mut actions = Vec::new();
            aux.handle_run(data_run(seqs), &mut actions);
            let sent = chkpts(&actions);
            assert_eq!(sent.len(), 1, "{actions:?}");
            sent[0].0
        };
        let first = run(&mut aux, 1..=50);
        for site in [CENTRAL_SITE, 1, 2] {
            reply(&mut aux, first, site);
        }

        // Mirror 1 answers the next run's round before mirror 2 does: a
        // skew of one round, which must not read as failure.
        let second = run(&mut aux, 51..=100);
        assert_eq!(second, first + 1, "round numbers count the rounds begun");
        let acts = reply(&mut aux, second, 1);
        assert!(!acts.iter().any(|a| matches!(a, AuxAction::MirrorFailed(_))), "{acts:?}");
        assert_eq!(aux.live_mirrors(), Some(vec![1, 2]));
    }

    #[test]
    fn mirror_applies_piggybacked_directive() {
        let mut mirror = AuxUnit::mirror(1, MirrorParams::default());
        let mut new_params = MirrorParams::profile_degraded();
        new_params.generation = 5;
        let commit = ControlMsg::Commit {
            round: 1,
            stamp: VectorTimestamp::empty(),
            epoch: 0,
            term: 0,
            adapt: Some(AdaptDirective {
                params: new_params.clone(),
                mirror_fn: Some(MirrorFnKind::Coalescing { coalesce: 20, checkpoint_every: 100 }),
                partition: None,
            }),
        };
        let actions = mirror.handle(AuxInput::Control(commit));
        assert!(actions.iter().any(|a| matches!(a, AuxAction::Reconfigured(_))));
        assert_eq!(mirror.params().coalesce_max, 20);
        assert_eq!(mirror.counters().adaptations, 1);

        // A stale (older-generation) directive is ignored.
        let mut stale = MirrorParams::default();
        stale.generation = 2;
        let commit = ControlMsg::Commit {
            round: 2,
            stamp: VectorTimestamp::empty(),
            epoch: 0,
            term: 0,
            adapt: Some(AdaptDirective { params: stale, mirror_fn: None, partition: None }),
        };
        let actions = mirror.handle(AuxInput::Control(commit));
        assert!(actions.iter().all(|a| !matches!(a, AuxAction::Reconfigured(_))));
        assert_eq!(mirror.params().coalesce_max, 20);
    }

    #[test]
    fn partition_map_rides_commits_and_fences_on_epoch() {
        use crate::partition::PartitionMap;

        // A stale-params directive still delivers a newer partition map:
        // the two fences are independent.
        let mut mirror = AuxUnit::mirror(1, MirrorParams::default());
        let pm = PartitionMap::uniform(4);
        let stale_params = MirrorParams::default(); // generation 0 = stale
        let commit = ControlMsg::Commit {
            round: 1,
            stamp: VectorTimestamp::empty(),
            epoch: 0,
            term: 0,
            adapt: Some(AdaptDirective {
                params: stale_params.clone(),
                mirror_fn: None,
                partition: Some(pm.clone()),
            }),
        };
        mirror.handle(AuxInput::Control(commit.clone()));
        assert_eq!(mirror.partition_epoch(), pm.epoch());
        assert_eq!(mirror.counters().partition_updates, 1);
        assert_eq!(mirror.counters().adaptations, 0, "params were stale");

        // Re-delivering the same map (the coordinator re-sends it every
        // COMMIT) is a fenced no-op.
        mirror.handle(AuxInput::Control(commit));
        assert_eq!(mirror.counters().partition_updates, 1);

        // An older map can never roll back a migration.
        let old = PartitionMap::single();
        let rollback = ControlMsg::Commit {
            round: 2,
            stamp: VectorTimestamp::empty(),
            epoch: 0,
            term: 0,
            adapt: Some(AdaptDirective {
                params: stale_params,
                mirror_fn: None,
                partition: Some(old),
            }),
        };
        mirror.handle(AuxInput::Control(rollback));
        assert_eq!(mirror.partition_epoch(), pm.epoch());

        // A migrated (epoch-bumped) map is adopted.
        let mut moved = pm.clone();
        moved.assign(0, 3);
        assert!(mirror.set_partition_map(moved.clone()));
        assert_eq!(mirror.partition_map().unwrap(), &moved);
        assert_eq!(mirror.counters().partition_updates, 2);
    }

    #[test]
    fn central_attaches_partition_map_to_every_commit() {
        use crate::partition::PartitionMap;

        // Even on a Hold round (no adaptation decided), a partitioned
        // coordinator synthesizes a carrier directive so the map reaches
        // mirrors on every COMMIT.
        let mut central = AuxUnit::central(vec![1], MirrorParams::default());
        let mut mirror = AuxUnit::mirror(1, MirrorParams::default());
        let mut mains = vec![
            crate::checkpoint::MainUnitResponder::new(0),
            crate::checkpoint::MainUnitResponder::new(1),
        ];
        central.set_partition_map(PartitionMap::uniform(2));

        let mut actions = Vec::new();
        for seq in 1..=50 {
            let mut e = pos(seq, 7);
            e.stamp.advance(0, seq);
            actions.extend(central.handle(AuxInput::Data(Arc::new(e))));
        }
        let commits =
            run_round(&mut central, std::slice::from_mut(&mut mirror), actions, &mut mains);
        let mut carried = false;
        for a in &commits {
            if let AuxAction::ControlToMirrors(m @ ControlMsg::Commit { adapt, .. }) = a {
                carried |= adapt
                    .as_ref()
                    .and_then(|d| d.partition.as_ref())
                    .is_some_and(|p| p.epoch() == 1);
                mirror.handle(AuxInput::Control(m.clone()));
            }
        }
        assert!(carried, "commit must carry the partition map: {commits:?}");
        assert_eq!(mirror.partition_epoch(), 1, "mirror adopted the map from the commit");
    }

    /// One allocation per event: the forward copy, the queues and the
    /// mirror copy share the `Arc` the receiving task stamped.
    mod sharing {
        use super::*;

        /// The `ForwardToMain` and `Mirror` events of a batch of actions.
        fn split(actions: &[AuxAction]) -> (Vec<&Arc<Event>>, Vec<&Arc<Event>>) {
            let (mut fwd, mut mir) = (Vec::new(), Vec::new());
            for a in actions {
                match a {
                    AuxAction::ForwardToMain(e) => fwd.push(e),
                    AuxAction::Mirror { event, .. } => mir.push(event),
                    _ => {}
                }
            }
            (fwd, mir)
        }

        #[test]
        fn a_simple_central_forwards_and_mirrors_one_allocation() {
            let mut aux = AuxUnit::central(vec![1], MirrorParams::default());
            for seq in 1..=3 {
                let actions = aux.handle(AuxInput::Data(pos(seq, 7).into()));
                let (fwd, mir) = split(&actions);
                assert_eq!((fwd.len(), mir.len()), (1, 1));
                assert!(Arc::ptr_eq(fwd[0], mir[0]), "forward and mirror copies share one Arc");
            }
        }

        #[test]
        fn a_uniquely_held_event_is_stamped_in_place() {
            let mut aux = AuxUnit::central(vec![1], MirrorParams::default());
            let submitted = Arc::new(pos(1, 7));
            let at = Arc::as_ptr(&submitted);
            let actions = aux.handle(AuxInput::Data(submitted));
            let (fwd, mir) = split(&actions);
            assert_eq!(Arc::as_ptr(fwd[0]), at, "forwarded as the submitted allocation");
            assert_eq!(Arc::as_ptr(mir[0]), at, "mirrored as the submitted allocation");
            assert_eq!(fwd[0].stamp.get(0), 1, "stamped");

            // A submitter that keeps its own reference never sees the stamp:
            // the unit stamps a copy.
            let held = Arc::new(pos(2, 7));
            let actions = aux.handle(AuxInput::Data(Arc::clone(&held)));
            let (fwd, _) = split(&actions);
            assert!(!Arc::ptr_eq(fwd[0], &held));
            assert!(held.stamp.is_zero() && fwd[0].stamp.get(0) == 2);
        }

        #[test]
        fn an_overwritten_event_forwards_the_submitted_allocation_and_mirrors_nothing() {
            let mut aux = AuxUnit::central(vec![1], MirrorParams::default());
            aux.rules_mut().push(Rule::Overwrite { ty: EventType::FaaPosition, max_len: 3 });
            for seq in 1..=3 {
                let submitted = Arc::new(pos(seq, 4));
                let at = Arc::as_ptr(&submitted);
                let actions = aux.handle(AuxInput::Data(submitted));
                let (fwd, mir) = split(&actions);
                assert_eq!(Arc::as_ptr(fwd[0]), at, "event {seq} forwarded as submitted");
                match seq {
                    1 => assert_eq!(Arc::as_ptr(mir[0]), at, "the admitted event is shared"),
                    _ => assert!(mir.is_empty(), "event {seq} is overwritten"),
                }
            }
            assert_eq!(aux.counters().suppressed, 2);
        }

        #[test]
        fn a_derived_event_forwards_and_mirrors_one_allocation() {
            let mut aux = AuxUnit::central(vec![1], MirrorParams::default());
            aux.rules_mut().push(Rule::ComplexTuple {
                parts: vec![FlightStatus::Landed, FlightStatus::AtGate],
                emit: FlightStatus::Arrived,
            });
            aux.handle(AuxInput::Data(Event::delta_status(1, 2, FlightStatus::Landed).into()));
            let actions =
                aux.handle(AuxInput::Data(Event::delta_status(2, 2, FlightStatus::AtGate).into()));
            let (fwd, mir) = split(&actions);
            assert_eq!((fwd.len(), mir.len()), (2, 1), "constituent and derived forwarded");
            assert_eq!(mir[0].status_value(), Some(FlightStatus::Arrived));
            assert!(Arc::ptr_eq(fwd[1], mir[0]), "the derived event's actions share one Arc");
        }

        #[test]
        fn coalescing_mirrors_new_events_and_leaves_forward_copies_untouched() {
            let mut params = MirrorParams::default();
            params.coalesce = true;
            params.coalesce_max = 3;
            let mut aux = AuxUnit::central(vec![1], params);
            aux.set_mirror_fn(Box::new(crate::mirrorfn::CoalescingMirror::new()));
            let (mut forwarded, mut mirrored) = (Vec::new(), Vec::new());
            let mut feed = |aux: &mut AuxUnit, ev: Event| {
                let submitted = Arc::new(ev);
                let at = Arc::as_ptr(&submitted);
                let actions = aux.handle(AuxInput::Data(submitted));
                let (fwd, mir) = split(&actions);
                assert_eq!(Arc::as_ptr(fwd[0]), at, "forwarded as submitted");
                forwarded.push(Arc::clone(fwd[0]));
                mirrored.extend(mir.into_iter().cloned());
            };
            for seq in 1..=4 {
                feed(&mut aux, pos(seq, 1));
            }
            feed(&mut aux, Event::delta_status(5, 1, FlightStatus::Landed));
            assert!(forwarded.iter().take(4).all(|e| matches!(e.body, EventBody::Position(_))));
            let bodies: Vec<_> = mirrored.iter().map(|e| e.body.clone()).collect();
            assert!(
                matches!(
                    bodies[..],
                    [
                        EventBody::Coalesced { count: 3, .. },
                        EventBody::Coalesced { count: 1, .. },
                        EventBody::Status(FlightStatus::Landed),
                    ]
                ),
                "{bodies:?}"
            );
            assert!(Arc::ptr_eq(&mirrored[2], &forwarded[4]), "a passed-through event is shared");
        }
    }

    #[test]
    fn mirror_data_path_forwards_and_retains() {
        let mut mirror = AuxUnit::mirror(2, MirrorParams::default());
        let mut e = pos(1, 9);
        e.stamp.advance(0, 1);
        let actions = mirror.handle(AuxInput::Data(e.into()));
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], AuxAction::ForwardToMain(_)));
        assert_eq!(mirror.backup_len(), 1);
        assert_eq!(mirror.clock().get(0), 1);
    }

    #[test]
    fn monitor_report_reflects_queues_and_requests() {
        let mut aux = AuxUnit::central(vec![1], MirrorParams::default());
        for seq in 1..=5 {
            aux.handle(AuxInput::Data(pos(seq, 1).into()));
        }
        aux.set_pending_requests(42);
        let r = aux.monitor_report();
        assert_eq!(r.backup_len, 5, "mirrored events retained until commit");
        assert_eq!(r.pending_requests, 42);
    }

    #[test]
    fn idle_checkpoint_restarts_a_wedged_round() {
        use crate::control::ControlMsg;

        // Central mirrors to sites 1 and 2; a round starts and everyone
        // but mirror 2 replies.
        let mut params = MirrorParams::default();
        params.checkpoint_every = 1;
        let mut aux = AuxUnit::central(vec![1, 2], params);
        aux.handle(AuxInput::Data(pos(1, 7).into()));
        let stamp = aux.clock().clone();
        let reply = |site| ControlMsg::ChkptRep {
            round: 1,
            site,
            stamp: stamp.clone(),
            monitor: crate::adapt::MonitorReport::default(),
            term: 0,
        };
        aux.handle(AuxInput::Control(reply(CENTRAL_SITE)));
        aux.handle(AuxInput::Control(reply(1)));

        // Mirror 2 is merely slow (a long link outage, say): the round is
        // waiting, not wedged. Idle wakeups must leave it alone however
        // many elapse — abandoning it would inflate the round counter and
        // make the survivor's reply lag read as failure.
        for _ in 0..5 {
            assert!(aux.idle_checkpoint().is_empty(), "a waiting round must not be restarted");
        }

        // Mirror 2's link is now declared dead. Its reply will never come
        // and everyone else already answered, so the round is wedged: the
        // next idle wakeup abandons it and starts a fresh one (new CHKPT
        // broadcast) under the surviving membership, restoring liveness.
        aux.declare_mirror_failed(2);
        let actions = aux.idle_checkpoint();
        assert!(
            actions.iter().any(|a| matches!(a, AuxAction::ControlToMirrors(_))),
            "wedged round must be superseded, got {actions:?}"
        );
    }

    #[test]
    fn mirror_learns_membership_epoch_from_control_traffic() {
        let mut mirror = AuxUnit::mirror(1, MirrorParams::default());
        assert_eq!(mirror.membership_epoch(), 0);
        mirror.handle(AuxInput::Control(ControlMsg::Chkpt {
            round: 1,
            stamp: VectorTimestamp::empty(),
            epoch: 3,
            term: 0,
        }));
        assert_eq!(mirror.membership_epoch(), 3);
        mirror.handle(AuxInput::Control(ControlMsg::Commit {
            round: 1,
            stamp: VectorTimestamp::empty(),
            epoch: 5,
            term: 0,
            adapt: None,
        }));
        assert_eq!(mirror.membership_epoch(), 5);
        // A delayed message from an older epoch never regresses it.
        mirror.handle(AuxInput::Control(ControlMsg::Chkpt {
            round: 2,
            stamp: VectorTimestamp::empty(),
            epoch: 4,
            term: 0,
        }));
        assert_eq!(mirror.membership_epoch(), 5);
    }

    #[test]
    fn sustained_pending_pressure_emits_scale_directive() {
        use crate::adapt::{MonitorThresholds, ScaleDecision, ScalePolicy};

        let mut params = MirrorParams::default();
        params.checkpoint_every = 1;
        let mut aux = AuxUnit::central(vec![1], params);
        aux.set_scale_policy(ScalePolicy {
            thresholds: MonitorThresholds::new(10, 6),
            sustain: 2,
            cooldown: 0,
            max_mirrors: 2,
            min_mirrors: 1,
        });
        let mut scale_directives = Vec::new();
        for round in 1..=3u64 {
            // Each data event (checkpoint_every=1) starts a round.
            aux.handle(AuxInput::Data(pos(round, 1).into()));
            let stamp = aux.clock().clone();
            let hot = MonitorReport { pending_requests: 50, ..Default::default() };
            for site in [CENTRAL_SITE, 1] {
                let acts = aux.handle(AuxInput::Control(ControlMsg::ChkptRep {
                    round,
                    site,
                    stamp: stamp.clone(),
                    monitor: hot,
                    term: 0,
                }));
                for a in acts {
                    if let AuxAction::ScaleDirective(s) = a {
                        scale_directives.push(s);
                    }
                }
            }
        }
        assert_eq!(
            scale_directives,
            vec![ScaleDecision::SpawnMirror],
            "two sustained hot rounds spawn exactly one mirror (then at max)"
        );
    }

    #[test]
    fn mirror_fences_stale_term_frames() {
        let mut mirror = AuxUnit::mirror(1, MirrorParams::default());
        // Learn term 2 from a live coordinator.
        let acts = mirror.handle(AuxInput::Control(ControlMsg::Chkpt {
            round: 1,
            stamp: VectorTimestamp::empty(),
            epoch: 0,
            term: 2,
        }));
        assert!(!acts.is_empty(), "current-term CHKPT relays to the main unit");
        assert_eq!(mirror.leader_term(), 2);

        // Retain an event, then let a resurrected term-1 coordinator try
        // to prune it with a COMMIT: the frame must be rejected outright.
        let mut e = pos(1, 4);
        e.stamp.advance(0, 1);
        mirror.handle(AuxInput::Data(e.into()));
        assert_eq!(mirror.backup_len(), 1);
        let stale_commit = ControlMsg::Commit {
            round: 9,
            stamp: VectorTimestamp::from_components(vec![1]),
            epoch: 0,
            term: 1,
            adapt: None,
        };
        let acts = mirror.handle(AuxInput::Control(stale_commit));
        assert!(acts.is_empty(), "stale-term COMMIT must produce no actions");
        assert_eq!(mirror.backup_len(), 1, "stale-term COMMIT must not prune");
        let stale_chkpt =
            ControlMsg::Chkpt { round: 9, stamp: VectorTimestamp::empty(), epoch: 0, term: 1 };
        assert!(mirror.handle(AuxInput::Control(stale_chkpt)).is_empty());
        assert_eq!(mirror.counters().stale_term_rejects, 2);
        assert_eq!(mirror.leader_term(), 2, "fencing never regresses the term");
    }

    #[test]
    fn promoted_central_stamps_bumped_term_on_rounds() {
        let mut params = MirrorParams::default();
        params.checkpoint_every = 1;
        let mut aux = AuxUnit::central(vec![1], params);
        aux.set_leader_term(4);
        assert_eq!(aux.leader_term(), 4);
        let actions = aux.handle(AuxInput::Data(pos(1, 7).into()));
        let chkpt = actions
            .iter()
            .find_map(|a| match a {
                AuxAction::ControlToMirrors(m @ ControlMsg::Chkpt { .. }) => Some(m),
                _ => None,
            })
            .expect("round started");
        assert_eq!(chkpt.term(), 4);
        // Monotone: a stale set_leader_term cannot step back.
        aux.set_leader_term(2);
        assert_eq!(aux.leader_term(), 4);
    }

    #[test]
    fn idle_heartbeat_keeps_control_cadence_flowing() {
        let mut aux = AuxUnit::central(vec![1], MirrorParams::default());
        // Disabled by default: an idle coordinator stays silent forever.
        for _ in 0..100 {
            assert!(aux.idle_checkpoint().is_empty());
        }
        aux.set_heartbeat_after(3);
        // Two idle ticks: still quiet; the third starts a heartbeat round.
        assert!(aux.idle_checkpoint().is_empty());
        assert!(aux.idle_checkpoint().is_empty());
        let actions = aux.idle_checkpoint();
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, AuxAction::ControlToMirrors(ControlMsg::Chkpt { .. }))),
            "heartbeat round must broadcast a CHKPT, got {actions:?}"
        );
        // The heartbeat round commits on empty replies, so cadence repeats.
        let stamp = aux.clock().clone();
        for site in [1, CENTRAL_SITE] {
            aux.handle(AuxInput::Control(ControlMsg::ChkptRep {
                round: 1,
                site,
                stamp: stamp.clone(),
                monitor: crate::adapt::MonitorReport::default(),
                term: 0,
            }));
        }
        assert!(aux.idle_checkpoint().is_empty());
        assert!(aux.idle_checkpoint().is_empty());
        assert!(!aux.idle_checkpoint().is_empty(), "heartbeats repeat every N idle ticks");
    }

    #[test]
    fn install_kind_swaps_whole_configuration() {
        let mut aux = AuxUnit::central(vec![1], MirrorParams::default());
        aux.install_kind(MirrorFnKind::Selective { overwrite: 10 });
        assert_eq!(aux.rules().rules().len(), 1);
        assert_eq!(aux.params().overwrite_max, 10);
        aux.install_kind(MirrorFnKind::Coalescing { coalesce: 20, checkpoint_every: 100 });
        assert!(aux.params().coalesce);
        assert_eq!(aux.params().checkpoint_every, 100);
        assert!(aux.rules().is_empty());
    }
}
