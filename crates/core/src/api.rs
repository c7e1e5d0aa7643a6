//! The mirroring API — the paper's Table 1.
//!
//! | paper call | here |
//! |---|---|
//! | `init(int c, int number, int l)` | [`MirrorConfig::init`] + builder methods |
//! | `mirror()` | [`MirrorHandle::mirror`] |
//! | `fwd()` | [`MirrorHandle::fwd`] |
//! | `set_mirror(void* func)` | [`MirrorHandle::set_mirror`] |
//! | `set_fwd(void* func)` | [`MirrorHandle::set_fwd`] |
//! | `set_params(int c, int number, int f)` | [`MirrorHandle::set_params`] |
//! | `set_overwrite(ev_type t, int l)` | [`MirrorHandle::set_overwrite`] |
//! | `set_complex_seq(t1, *value, t2)` | [`MirrorHandle::set_complex_seq`] |
//! | `set_complex_tuple(*t, *values, n)` | [`MirrorHandle::set_complex_tuple`] |
//! | `set_adapt(int p_id, int p)` | [`MirrorHandle::set_adapt`] |
//! | `set_monitor_values(index, p, s)` | [`MirrorHandle::set_monitor_values`] |
//!
//! [`MirrorConfig`] configures a site before launch; [`MirrorHandle`] wraps
//! a running [`AuxUnit`] behind a mutex so parameters can be changed
//! dynamically from any thread, exactly as the paper allows ("default
//! mirroring can be modified during the initialization process or
//! dynamically").

use std::sync::{Arc, Mutex};

use crate::adapt::{AdaptAction, MonitorKind, MonitorThresholds};
use crate::aux_unit::{AuxAction, AuxInput, AuxUnit, SiteId};
use crate::event::{EventType, FlightStatus};
use crate::mirrorfn::MirrorDecision;
use crate::params::{MirrorParams, ParamId};
use crate::rules::{Rule, RuleSet};

/// Pre-launch configuration of a mirroring site (the `init()` call).
#[derive(Debug, Clone)]
pub struct MirrorConfig {
    params: MirrorParams,
    rules: RuleSet,
    monitors: Vec<(MonitorKind, MonitorThresholds)>,
    adapt_action: Option<AdaptAction>,
}

impl Default for MirrorConfig {
    fn default() -> Self {
        MirrorConfig {
            params: MirrorParams::default(),
            rules: RuleSet::new(),
            monitors: Vec::new(),
            adapt_action: None,
        }
    }
}

impl MirrorConfig {
    /// `init(int c, int number, int l)` — initialize mirroring with the
    /// paper's three positional options: coalescing on/off, the maximum
    /// number of events to coalesce, and the checkpoint frequency. Passing
    /// the defaults (`false, 1, 50`) yields default mirroring.
    pub fn init(coalesce: bool, coalesce_max: u32, checkpoint_every: u32) -> Self {
        let mut cfg = MirrorConfig::default();
        cfg.params.coalesce = coalesce;
        cfg.params.coalesce_max = coalesce_max.max(1);
        cfg.params.checkpoint_every = checkpoint_every.max(1);
        cfg
    }

    /// Add a semantic rule.
    pub fn rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Install monitored-variable thresholds.
    pub fn monitor(mut self, kind: MonitorKind, thresholds: MonitorThresholds) -> Self {
        self.monitors.push((kind, thresholds));
        self
    }

    /// Install the adaptation action.
    pub fn adapt(mut self, action: AdaptAction) -> Self {
        self.adapt_action = Some(action);
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> &MirrorParams {
        &self.params
    }

    /// Build the central site's auxiliary unit mirroring to `mirrors`.
    pub fn build_central(self, mirrors: Vec<SiteId>) -> AuxUnit {
        let mut aux = AuxUnit::central(mirrors, self.params);
        aux.set_rules(self.rules);
        if let Some(ctrl) = aux.adaptation_mut() {
            for (kind, th) in self.monitors {
                ctrl.set_monitor_values(kind, th);
            }
            if let Some(action) = self.adapt_action {
                ctrl.set_action(action);
            }
        }
        aux
    }

    /// Build a mirror site's auxiliary unit.
    pub fn build_mirror(self, site: SiteId) -> AuxUnit {
        let mut aux = AuxUnit::mirror(site, self.params);
        aux.set_rules(self.rules);
        aux
    }
}

/// A thread-safe handle onto a running auxiliary unit, exposing the dynamic
/// half of the Table-1 API.
#[derive(Clone)]
pub struct MirrorHandle {
    inner: Arc<Mutex<AuxUnit>>,
}

impl MirrorHandle {
    /// Wrap an auxiliary unit.
    pub fn new(aux: AuxUnit) -> Self {
        MirrorHandle { inner: Arc::new(Mutex::new(aux)) }
    }

    /// Access the shared unit (for embeddings that drive it directly).
    pub fn unit(&self) -> &Arc<Mutex<AuxUnit>> {
        &self.inner
    }

    /// Run `f` with the unit locked.
    pub fn with<R>(&self, f: impl FnOnce(&mut AuxUnit) -> R) -> R {
        f(&mut self.inner.lock().expect("aux unit poisoned"))
    }

    /// `mirror()` — execute the mirroring function over whatever is pending
    /// (drains the ready queue); returns the resulting actions for the
    /// embedding to perform.
    pub fn mirror(&self) -> Vec<AuxAction> {
        self.with(|aux| aux.handle(AuxInput::Flush))
    }

    /// Idle-time checkpoint liveness (see
    /// [`AuxUnit::idle_checkpoint`]); returns the actions to perform.
    pub fn idle_checkpoint(&self) -> Vec<AuxAction> {
        self.with(|aux| aux.idle_checkpoint())
    }

    /// `fwd()` — feed one event through the unit (stamping, rules,
    /// forwarding, mirroring); returns the actions to perform. Accepts an
    /// owned event or an already-shared `Arc<Event>` (the zero-copy path
    /// used by the runtime's channel fan-out).
    pub fn fwd(&self, event: impl Into<std::sync::Arc<crate::event::Event>>) -> Vec<AuxAction> {
        let event = event.into();
        self.with(|aux| aux.handle(AuxInput::Data(event)))
    }

    /// Replay retained backup-queue events from send index `idx` on (see
    /// [`AuxUnit::retransmit_from`]). Replayed events share their
    /// allocation with the backup queue.
    pub fn retransmit_from(&self, idx: u64) -> Vec<(u64, std::sync::Arc<crate::event::Event>)> {
        self.with(|aux| aux.retransmit_from(idx))
    }

    /// Every send index strictly below this value is covered by a
    /// committed checkpoint (see
    /// [`crate::queue::BackupQueue::truncation_floor`]): the durable
    /// truncation watermark a write-ahead journal may advance to.
    pub fn truncation_floor(&self) -> u64 {
        self.with(|aux| aux.truncation_floor())
    }

    /// Declare a mirror failed immediately — the transport layer knows its
    /// link is dead (see [`AuxUnit::declare_mirror_failed`]).
    pub fn declare_mirror_failed(&self, site: crate::SiteId) -> Vec<AuxAction> {
        self.with(|aux| aux.declare_mirror_failed(site))
    }

    /// `set_mirror(func)` — install a custom per-event mirroring function.
    pub fn set_mirror<F>(&self, label: &'static str, f: F)
    where
        F: FnMut(&crate::event::Event, &MirrorParams) -> MirrorDecision + Send + 'static,
    {
        self.with(|aux| aux.set_mirror_fn(Box::new(crate::mirrorfn::FnMirror::new(label, f))));
    }

    /// `set_fwd(func)` — install a custom forwarding function: it decides,
    /// per event, whether (and in what form) the local main unit sees it.
    pub fn set_fwd<F>(&self, label: &'static str, f: F)
    where
        F: FnMut(&crate::event::Event, &MirrorParams) -> MirrorDecision + Send + 'static,
    {
        self.with(|aux| aux.set_fwd_fn(Box::new(crate::mirrorfn::FnMirror::new(label, f))));
    }

    /// `set_params(int c, int number, int f)` — coalesce up to `number`
    /// events (`c` enables), checkpoint every `f` sent events.
    pub fn set_params(&self, coalesce: bool, coalesce_max: u32, checkpoint_every: u32) {
        self.with(|aux| {
            let mut p = aux.params().clone();
            p.coalesce = coalesce;
            p.coalesce_max = coalesce_max.max(1);
            p.checkpoint_every = checkpoint_every.max(1);
            aux.set_params(p);
        });
    }

    /// `set_overwrite(ev_type t, int l)` — allow overwriting of events of
    /// type `ty` with a maximum sequence length `max_len`.
    pub fn set_overwrite(&self, ty: EventType, max_len: u32) {
        self.with(|aux| {
            aux.rules_mut().replace(Rule::Overwrite { ty, max_len });
            let mut p = aux.params().clone();
            p.overwrite_max = max_len;
            aux.set_params(p);
        });
    }

    /// `set_complex_seq(t1, *value, t2)` — discard events of `discard_ty`
    /// once an event of `trigger_ty` with status `trigger_value` has been
    /// seen for the flight.
    pub fn set_complex_seq(
        &self,
        trigger_ty: EventType,
        trigger_value: FlightStatus,
        discard_ty: EventType,
    ) {
        self.with(|aux| {
            aux.rules_mut().replace(Rule::ComplexSeq { trigger_ty, trigger_value, discard_ty })
        });
    }

    /// `set_complex_tuple(*t, *values, n)` — combine the given status
    /// values into a single derived event with status `emit`.
    pub fn set_complex_tuple(&self, parts: Vec<FlightStatus>, emit: FlightStatus) {
        self.with(|aux| aux.rules_mut().replace(Rule::ComplexTuple { parts, emit }));
    }

    /// `set_adapt(int p_id, int p)` — when thresholds are crossed, modify
    /// parameter `p_id` by `percent` percent.
    pub fn set_adapt(&self, p_id: ParamId, percent: i32) {
        self.with(|aux| {
            if let Some(ctrl) = aux.adaptation_mut() {
                ctrl.set_action(AdaptAction::AdjustParam { id: p_id, percent });
            }
        });
    }

    /// Install a full adaptation action (the §4.3 two-profile switch).
    pub fn set_adapt_action(&self, action: AdaptAction) {
        self.with(|aux| {
            if let Some(ctrl) = aux.adaptation_mut() {
                ctrl.set_action(action);
            }
        });
    }

    /// `set_monitor_values(index, p, s)` — set the primary and secondary
    /// thresholds for a monitored variable.
    pub fn set_monitor_values(&self, kind: MonitorKind, primary: u64, secondary: u64) {
        self.with(|aux| {
            if let Some(ctrl) = aux.adaptation_mut() {
                ctrl.set_monitor_values(kind, MonitorThresholds::new(primary, secondary));
            }
        });
    }

    /// Install an elastic-capacity policy (central site only): sustained
    /// pending-request pressure then directs mirror spawn/retire once per
    /// checkpoint round (surfaced as
    /// [`AuxAction::ScaleDirective`](crate::aux_unit::AuxAction)).
    pub fn set_scale_policy(&self, policy: crate::adapt::ScalePolicy) {
        self.with(|aux| aux.set_scale_policy(policy));
    }

    /// Current parameters (snapshot).
    pub fn params(&self) -> MirrorParams {
        self.with(|aux| aux.params().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux_unit::AuxAction;
    use crate::event::{Event, PositionFix};
    use crate::mirrorfn::MirrorFnKind;

    fn pos(seq: u64, flight: u32) -> Event {
        Event::faa_position(
            seq,
            flight,
            PositionFix { lat: 0.0, lon: 0.0, alt_ft: 1.0, speed_kts: 1.0, heading_deg: 0.0 },
        )
    }

    #[test]
    fn init_maps_positional_options() {
        let cfg = MirrorConfig::init(true, 10, 50);
        assert!(cfg.params().coalesce);
        assert_eq!(cfg.params().coalesce_max, 10);
        assert_eq!(cfg.params().checkpoint_every, 50);
    }

    #[test]
    fn init_clamps_zeroes() {
        let cfg = MirrorConfig::init(false, 0, 0);
        assert_eq!(cfg.params().coalesce_max, 1);
        assert_eq!(cfg.params().checkpoint_every, 1);
    }

    #[test]
    fn handle_set_overwrite_takes_effect_dynamically() {
        let aux = MirrorConfig::default().build_central(vec![1]);
        let h = MirrorHandle::new(aux);
        // Default: everything mirrored.
        let out = h.fwd(pos(1, 1));
        assert!(out.iter().any(|a| matches!(a, AuxAction::Mirror { .. })));
        // Install 1-in-10 overwriting.
        h.set_overwrite(EventType::FaaPosition, 10);
        let mut mirrored = 0;
        for seq in 2..=41 {
            mirrored +=
                h.fwd(pos(seq, 1)).iter().filter(|a| matches!(a, AuxAction::Mirror { .. })).count();
        }
        assert!(mirrored <= 5, "overwriting must suppress most events, got {mirrored}");
        assert_eq!(h.params().overwrite_max, 10);
    }

    #[test]
    fn handle_set_params_updates_checkpoint_frequency() {
        let aux = MirrorConfig::default().build_central(vec![1]);
        let h = MirrorHandle::new(aux);
        h.set_params(true, 20, 100);
        let p = h.params();
        assert!(p.coalesce);
        assert_eq!(p.coalesce_max, 20);
        assert_eq!(p.checkpoint_every, 100);
    }

    #[test]
    fn handle_custom_fwd_fn_filters_main_unit_path() {
        let aux = MirrorConfig::default().build_central(vec![1]);
        let h = MirrorHandle::new(aux);
        // Main unit only sees even-seq events; mirroring is untouched.
        h.set_fwd("even-only", |e: &crate::event::Event, _: &MirrorParams| {
            if e.seq.is_multiple_of(2) {
                MirrorDecision::Send
            } else {
                MirrorDecision::Drop
            }
        });
        let mut fwd = 0;
        let mut mirrored = 0;
        for seq in 1..=10 {
            for a in h.fwd(pos(seq, 1)) {
                match a {
                    AuxAction::ForwardToMain(_) => fwd += 1,
                    AuxAction::Mirror { .. } => mirrored += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(fwd, 5);
        assert_eq!(mirrored, 10);
    }

    #[test]
    fn handle_custom_mirror_fn() {
        let aux = MirrorConfig::default().build_central(vec![1]);
        let h = MirrorHandle::new(aux);
        h.set_mirror("drop-all", |_, _| MirrorDecision::Drop);
        let out = h.fwd(pos(1, 1));
        assert!(out.iter().all(|a| !matches!(a, AuxAction::Mirror { .. })));
        assert!(out.iter().any(|a| matches!(a, AuxAction::ForwardToMain(_))));
    }

    #[test]
    fn handle_configures_adaptation() {
        let aux = MirrorConfig::default().build_central(vec![1, 2]);
        let h = MirrorHandle::new(aux);
        h.set_monitor_values(MonitorKind::PendingRequests, 100, 60);
        h.set_adapt_action(AdaptAction::SwitchMirrorFn {
            normal: MirrorFnKind::Coalescing { coalesce: 10, checkpoint_every: 50 },
            engaged: MirrorFnKind::Coalescing { coalesce: 20, checkpoint_every: 100 },
        });
        h.with(|aux| {
            let ctrl = aux.adaptation_mut().unwrap();
            ctrl.record_report(
                1,
                crate::adapt::MonitorReport { pending_requests: 500, ..Default::default() },
            );
            assert!(matches!(ctrl.decide(), crate::adapt::AdaptDecision::Engage(_)));
        });
    }

    #[test]
    fn config_builder_installs_rules_and_monitors() {
        let aux = MirrorConfig::init(false, 1, 50)
            .rule(Rule::Overwrite { ty: EventType::FaaPosition, max_len: 10 })
            .monitor(MonitorKind::ReadyQueueLen, MonitorThresholds::new(50, 25))
            .adapt(AdaptAction::AdjustParam { id: ParamId::CheckpointEvery, percent: 100 })
            .build_central(vec![1]);
        assert_eq!(aux.rules().rules().len(), 1);
    }
}
