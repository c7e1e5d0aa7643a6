//! Adaptive mirroring.
//!
//! §3.2.2: mirroring is adapted at runtime to system conditions. Monitored
//! variables — the lengths of the ready and backup queues at each site and
//! the size of the application-level buffer of pending client requests —
//! each carry a **primary** and a **secondary** threshold set through
//! `set_monitor_values()`. Reaching the primary threshold triggers a
//! modification of the mirroring algorithm; the modification stays in force
//! until the monitored value falls below *(primary − secondary)*, giving
//! hysteresis so the system does not flap at the threshold.
//!
//! Decisions are made **centrally** so all mirrors adapt identically, and
//! both the monitored values (mirror → central) and the resulting
//! directives (central → mirrors) are piggybacked on checkpoint control
//! messages rather than generating separate adaptation traffic.

use std::collections::HashMap;

use crate::control::{AdaptDirective, SiteId};
use crate::mirrorfn::MirrorFnKind;
use crate::params::{MirrorParams, ParamId};

/// Which runtime quantity a threshold watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonitorKind {
    /// Length of a site's ready queue.
    ReadyQueueLen,
    /// Length of a site's backup queue.
    BackupQueueLen,
    /// Size of the application-level buffer of pending client requests.
    PendingRequests,
}

impl MonitorKind {
    /// All monitor kinds.
    pub const ALL: [MonitorKind; 3] =
        [MonitorKind::ReadyQueueLen, MonitorKind::BackupQueueLen, MonitorKind::PendingRequests];
}

/// A snapshot of one site's monitored variables, piggybacked on checkpoint
/// replies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorReport {
    /// Ready-queue length.
    pub ready_len: u64,
    /// Backup-queue length.
    pub backup_len: u64,
    /// Pending client requests buffered at the site.
    pub pending_requests: u64,
}

impl MonitorReport {
    /// Value of the given monitored variable.
    pub fn value(&self, kind: MonitorKind) -> u64 {
        match kind {
            MonitorKind::ReadyQueueLen => self.ready_len,
            MonitorKind::BackupQueueLen => self.backup_len,
            MonitorKind::PendingRequests => self.pending_requests,
        }
    }

    /// Componentwise maximum — the aggregation the controller applies
    /// across sites (the hottest site drives adaptation).
    pub fn max(&self, other: &MonitorReport) -> MonitorReport {
        MonitorReport {
            ready_len: self.ready_len.max(other.ready_len),
            backup_len: self.backup_len.max(other.backup_len),
            pending_requests: self.pending_requests.max(other.pending_requests),
        }
    }
}

/// Primary/secondary thresholds for one monitored variable
/// (`set_monitor_values(index, p, s)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorThresholds {
    /// Crossing this value (≥) engages the adaptation.
    pub primary: u64,
    /// The adaptation disengages when the value falls below
    /// `primary - secondary`.
    pub secondary: u64,
}

impl MonitorThresholds {
    /// Construct, saturating so the release point never underflows.
    pub fn new(primary: u64, secondary: u64) -> Self {
        MonitorThresholds { primary, secondary }
    }

    /// The value below which an engaged adaptation is released.
    pub fn release_point(&self) -> u64 {
        self.primary.saturating_sub(self.secondary)
    }
}

/// What the adaptation does once a threshold is crossed.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptAction {
    /// Switch to a different named mirroring function while engaged,
    /// restoring the normal one on release (§4.3's two-profile policy).
    SwitchMirrorFn {
        /// Configuration used under normal conditions.
        normal: MirrorFnKind,
        /// Configuration used while the threshold is exceeded.
        engaged: MirrorFnKind,
    },
    /// Adjust a parameter by a percentage while engaged
    /// (`set_adapt(p_id, p)`), undoing the adjustment on release.
    AdjustParam {
        /// Which parameter to modify.
        id: ParamId,
        /// Percentage change applied on engage (e.g. `100` doubles,
        /// `-50` halves).
        percent: i32,
    },
}

/// Elastic-capacity policy: the same §3.2.2 hysteresis machinery, but the
/// adaptation target is the **mirror set itself** rather than the
/// mirroring function.
///
/// The controller watches the aggregated `PendingRequests` monitor (the
/// paper's bursty-request signal): sustained pressure at or above
/// `thresholds.primary` for `sustain` consecutive checkpoint rounds directs
/// *spawn a mirror*; sustained calm below the release point
/// (`primary − secondary`) directs *retire one*. Like every other
/// adaptation, the decision is made centrally, once per checkpoint round —
/// the embedding (e.g. `mirror-runtime`'s `Cluster`) executes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalePolicy {
    /// Primary/secondary thresholds on the aggregated pending-request
    /// gauge (hysteresis exactly as for mirror-function adaptation).
    pub thresholds: MonitorThresholds,
    /// Consecutive rounds the signal must hold before a decision fires
    /// (spawning a site is costlier than swapping a mirror function, so a
    /// single-round spike should not trigger it).
    pub sustain: u32,
    /// Rounds to hold *all* scale decisions after one fires, giving a
    /// freshly spawned (or retired) mirror time to change the signal.
    pub cooldown: u32,
    /// Never scale out beyond this many live mirrors.
    pub max_mirrors: usize,
    /// Never scale in below this many live mirrors.
    pub min_mirrors: usize,
}

impl Default for ScalePolicy {
    fn default() -> Self {
        ScalePolicy {
            thresholds: MonitorThresholds::new(64, 32),
            sustain: 2,
            cooldown: 8,
            max_mirrors: 4,
            min_mirrors: 1,
        }
    }
}

/// A capacity decision produced by [`AdaptationController::decide_scale`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Spawn one additional mirror site.
    SpawnMirror,
    /// Retire one mirror site.
    RetireMirror,
}

/// Outcome of feeding monitor reports to the controller.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptDecision {
    /// No change this round.
    Hold,
    /// Thresholds crossed: switch to the engaged configuration.
    Engage(AdaptDirective),
    /// Load receded: restore the normal configuration.
    Release(AdaptDirective),
}

/// The central adaptation controller.
///
/// Collects per-site [`MonitorReport`]s each checkpoint round, aggregates
/// them (max across sites), and applies the hysteresis rule to decide
/// whether to ship a new [`AdaptDirective`] with the round's `COMMIT`.
#[derive(Debug)]
pub struct AdaptationController {
    thresholds: HashMap<MonitorKind, MonitorThresholds>,
    action: Option<AdaptAction>,
    baseline: MirrorParams,
    engaged: bool,
    reports: HashMap<SiteId, MonitorReport>,
    /// Engage/release transitions taken (for experiment output).
    pub transitions: u64,
    /// Elastic-capacity policy, if installed.
    scale: Option<ScalePolicy>,
    /// Consecutive rounds the pending signal has held over primary.
    scale_over: u32,
    /// Consecutive rounds the pending signal has held under the release
    /// point.
    scale_under: u32,
    /// Rounds left before another scale decision may fire.
    scale_cooldown: u32,
    /// Scale decisions taken (for experiment output).
    pub scale_decisions: u64,
}

impl AdaptationController {
    /// A controller with no thresholds (never adapts) around the given
    /// baseline parameters.
    pub fn new(baseline: MirrorParams) -> Self {
        AdaptationController {
            thresholds: HashMap::new(),
            action: None,
            baseline,
            engaged: false,
            reports: HashMap::new(),
            transitions: 0,
            scale: None,
            scale_over: 0,
            scale_under: 0,
            scale_cooldown: 0,
            scale_decisions: 0,
        }
    }

    /// The controller a successor coordinator starts from: this one's
    /// configuration — thresholds, action, baseline, scale policy, and
    /// whether the engaged profile is in force (it describes the params
    /// the successor inherits, so a later release still fires) — with the
    /// per-site reports, streaks, cooldown and counters of this
    /// incarnation cleared.
    pub fn successor(&self) -> Self {
        AdaptationController {
            thresholds: self.thresholds.clone(),
            action: self.action.clone(),
            engaged: self.engaged,
            scale: self.scale,
            ..AdaptationController::new(self.baseline.clone())
        }
    }

    /// Install (or replace) the elastic-capacity policy.
    pub fn set_scale_policy(&mut self, policy: ScalePolicy) {
        self.scale = Some(policy);
        self.scale_over = 0;
        self.scale_under = 0;
        self.scale_cooldown = 0;
    }

    /// The installed elastic-capacity policy, if any.
    pub fn scale_policy(&self) -> Option<&ScalePolicy> {
        self.scale.as_ref()
    }

    /// Evaluate the elastic-capacity rule against the latest reports.
    /// Called once per checkpoint round alongside [`decide`](Self::decide);
    /// `live_mirrors` is the current live mirror count (used for the
    /// min/max bounds).
    pub fn decide_scale(&mut self, live_mirrors: usize) -> Option<ScaleDecision> {
        let policy = self.scale?;
        let pending = self.aggregate().pending_requests;
        if pending >= policy.thresholds.primary {
            self.scale_over += 1;
            self.scale_under = 0;
        } else if pending < policy.thresholds.release_point() {
            self.scale_under += 1;
            self.scale_over = 0;
        } else {
            // Inside the hysteresis band: both streaks reset, so a
            // wobbling signal never accumulates toward a decision.
            self.scale_over = 0;
            self.scale_under = 0;
        }
        if self.scale_cooldown > 0 {
            self.scale_cooldown -= 1;
            return None;
        }
        if self.scale_over >= policy.sustain && live_mirrors < policy.max_mirrors {
            self.scale_over = 0;
            self.scale_cooldown = policy.cooldown;
            self.scale_decisions += 1;
            return Some(ScaleDecision::SpawnMirror);
        }
        if self.scale_under >= policy.sustain && live_mirrors > policy.min_mirrors {
            self.scale_under = 0;
            self.scale_cooldown = policy.cooldown;
            self.scale_decisions += 1;
            return Some(ScaleDecision::RetireMirror);
        }
        None
    }

    /// `set_monitor_values(index, p, s)`: install thresholds for a
    /// monitored variable.
    pub fn set_monitor_values(&mut self, kind: MonitorKind, thresholds: MonitorThresholds) {
        self.thresholds.insert(kind, thresholds);
    }

    /// `set_adapt(...)`: install the action taken when thresholds are
    /// crossed.
    pub fn set_action(&mut self, action: AdaptAction) {
        self.action = Some(action);
    }

    /// Update the baseline ("normal") parameter set — e.g. after an
    /// explicit `set_params` by the application.
    pub fn set_baseline(&mut self, params: MirrorParams) {
        self.baseline = params;
    }

    /// Is the degraded configuration currently in force?
    pub fn is_engaged(&self) -> bool {
        self.engaged
    }

    /// Record a site's monitor report (from a `ChkptRep`, or locally at the
    /// central site).
    pub fn record_report(&mut self, site: SiteId, report: MonitorReport) {
        self.reports.insert(site, report);
    }

    /// Drop a site's report (the site failed or was retired): stale
    /// pressure readings from a dead mirror must not drive adaptation.
    pub fn remove_report(&mut self, site: SiteId) {
        self.reports.remove(&site);
    }

    /// Aggregate of the latest reports (max across sites).
    pub fn aggregate(&self) -> MonitorReport {
        self.reports.values().fold(MonitorReport::default(), |acc, r| acc.max(r))
    }

    /// Evaluate the hysteresis rule against the latest reports. Called once
    /// per checkpoint round, just before the `COMMIT` is formed.
    pub fn decide(&mut self) -> AdaptDecision {
        let action = match &self.action {
            Some(a) => a.clone(),
            None => return AdaptDecision::Hold,
        };
        if self.thresholds.is_empty() {
            return AdaptDecision::Hold;
        }
        let agg = self.aggregate();
        let any_over_primary =
            self.thresholds.iter().any(|(kind, th)| agg.value(*kind) >= th.primary);
        let all_below_release =
            self.thresholds.iter().all(|(kind, th)| agg.value(*kind) < th.release_point());

        if !self.engaged && any_over_primary {
            self.engaged = true;
            self.transitions += 1;
            AdaptDecision::Engage(self.directive(&action, true))
        } else if self.engaged && all_below_release {
            self.engaged = false;
            self.transitions += 1;
            AdaptDecision::Release(self.directive(&action, false))
        } else {
            AdaptDecision::Hold
        }
    }

    /// Build the directive for the engaged or normal configuration.
    fn directive(&mut self, action: &AdaptAction, engage: bool) -> AdaptDirective {
        match action {
            AdaptAction::SwitchMirrorFn { normal, engaged } => {
                let kind = if engage { *engaged } else { *normal };
                let mut params = kind.params(&self.baseline);
                self.baseline.generation += 1;
                params.generation = self.baseline.generation;
                AdaptDirective { params, mirror_fn: Some(kind), partition: None }
            }
            AdaptAction::AdjustParam { id, percent } => {
                let mut params = self.baseline.clone();
                if engage {
                    params.adjust_percent(*id, *percent);
                } else {
                    params.touch();
                }
                self.baseline.generation = params.generation;
                AdaptDirective { params, mirror_fn: None, partition: None }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller_with_switch() -> AdaptationController {
        let mut c = AdaptationController::new(MirrorParams::profile_normal());
        c.set_monitor_values(MonitorKind::PendingRequests, MonitorThresholds::new(100, 60));
        c.set_action(AdaptAction::SwitchMirrorFn {
            normal: MirrorFnKind::Coalescing { coalesce: 10, checkpoint_every: 50 },
            engaged: MirrorFnKind::Coalescing { coalesce: 20, checkpoint_every: 100 },
        });
        c
    }

    fn report(pending: u64) -> MonitorReport {
        MonitorReport { ready_len: 0, backup_len: 0, pending_requests: pending }
    }

    #[test]
    fn no_action_means_hold() {
        let mut c = AdaptationController::new(MirrorParams::default());
        c.record_report(1, report(10_000));
        assert_eq!(c.decide(), AdaptDecision::Hold);
    }

    #[test]
    fn engages_at_primary_threshold() {
        let mut c = controller_with_switch();
        c.record_report(1, report(99));
        assert_eq!(c.decide(), AdaptDecision::Hold);
        c.record_report(1, report(100));
        match c.decide() {
            AdaptDecision::Engage(d) => {
                assert_eq!(d.params.coalesce_max, 20);
                assert_eq!(d.params.checkpoint_every, 100);
                assert_eq!(
                    d.mirror_fn,
                    Some(MirrorFnKind::Coalescing { coalesce: 20, checkpoint_every: 100 })
                );
            }
            other => panic!("expected Engage, got {other:?}"),
        }
        assert!(c.is_engaged());
    }

    #[test]
    fn hysteresis_prevents_flapping() {
        let mut c = controller_with_switch();
        c.record_report(1, report(150));
        assert!(matches!(c.decide(), AdaptDecision::Engage(_)));
        // Dropping below primary but above release (100-60=40) holds.
        c.record_report(1, report(60));
        assert_eq!(c.decide(), AdaptDecision::Hold);
        assert!(c.is_engaged());
        // Dropping below the release point disengages.
        c.record_report(1, report(39));
        match c.decide() {
            AdaptDecision::Release(d) => {
                assert_eq!(d.params.coalesce_max, 10);
                assert_eq!(d.params.checkpoint_every, 50);
            }
            other => panic!("expected Release, got {other:?}"),
        }
        assert!(!c.is_engaged());
        assert_eq!(c.transitions, 2);
    }

    #[test]
    fn aggregates_max_across_sites() {
        let mut c = controller_with_switch();
        c.record_report(1, report(10));
        c.record_report(2, report(500));
        c.record_report(3, report(0));
        assert_eq!(c.aggregate().pending_requests, 500);
        assert!(matches!(c.decide(), AdaptDecision::Engage(_)));
    }

    #[test]
    fn generations_increase_monotonically() {
        let mut c = controller_with_switch();
        c.record_report(1, report(200));
        let g1 = match c.decide() {
            AdaptDecision::Engage(d) => d.params.generation,
            other => panic!("{other:?}"),
        };
        c.record_report(1, report(0));
        let g2 = match c.decide() {
            AdaptDecision::Release(d) => d.params.generation,
            other => panic!("{other:?}"),
        };
        assert!(g2 > g1);
    }

    #[test]
    fn adjust_param_action_halves_checkpoint_frequency() {
        let mut c = AdaptationController::new(MirrorParams::default());
        c.set_monitor_values(MonitorKind::ReadyQueueLen, MonitorThresholds::new(50, 25));
        c.set_action(AdaptAction::AdjustParam { id: ParamId::CheckpointEvery, percent: 100 });
        c.record_report(1, MonitorReport { ready_len: 80, ..Default::default() });
        match c.decide() {
            // Doubling events-between-checkpoints halves the frequency.
            AdaptDecision::Engage(d) => assert_eq!(d.params.checkpoint_every, 100),
            other => panic!("{other:?}"),
        }
        c.record_report(1, MonitorReport { ready_len: 0, ..Default::default() });
        match c.decide() {
            AdaptDecision::Release(d) => assert_eq!(d.params.checkpoint_every, 50),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn thresholds_release_point_saturates() {
        let t = MonitorThresholds::new(10, 30);
        assert_eq!(t.release_point(), 0);
    }

    fn controller_with_scale(sustain: u32, cooldown: u32) -> AdaptationController {
        let mut c = AdaptationController::new(MirrorParams::default());
        c.set_scale_policy(ScalePolicy {
            thresholds: MonitorThresholds::new(10, 6),
            sustain,
            cooldown,
            max_mirrors: 3,
            min_mirrors: 1,
        });
        c
    }

    #[test]
    fn scale_out_requires_sustained_pressure() {
        let mut c = controller_with_scale(2, 0);
        c.record_report(1, report(50));
        assert_eq!(c.decide_scale(1), None, "one hot round is not sustained");
        assert_eq!(c.decide_scale(1), Some(ScaleDecision::SpawnMirror));
        assert_eq!(c.scale_decisions, 1);
    }

    #[test]
    fn spike_then_dip_resets_the_streak() {
        let mut c = controller_with_scale(2, 0);
        c.record_report(1, report(50));
        assert_eq!(c.decide_scale(1), None);
        // Signal falls inside the hysteresis band (release 4 ≤ 7 < 10):
        // the over-streak resets and no decision ever fires.
        c.record_report(1, report(7));
        assert_eq!(c.decide_scale(1), None);
        c.record_report(1, report(50));
        assert_eq!(c.decide_scale(1), None, "streak restarted from zero");
    }

    #[test]
    fn scale_in_on_sustained_quiesce_with_floor() {
        let mut c = controller_with_scale(2, 0);
        c.record_report(1, report(0));
        assert_eq!(c.decide_scale(2), None);
        assert_eq!(c.decide_scale(2), Some(ScaleDecision::RetireMirror));
        // At the min_mirrors floor the calm signal never retires further.
        assert_eq!(c.decide_scale(1), None);
        assert_eq!(c.decide_scale(1), None);
    }

    #[test]
    fn max_mirrors_caps_scale_out() {
        let mut c = controller_with_scale(1, 0);
        c.record_report(1, report(100));
        assert_eq!(c.decide_scale(3), None, "already at max_mirrors");
    }

    #[test]
    fn cooldown_spaces_decisions() {
        let mut c = controller_with_scale(1, 2);
        c.record_report(1, report(100));
        assert_eq!(c.decide_scale(1), Some(ScaleDecision::SpawnMirror));
        assert_eq!(c.decide_scale(2), None, "cooldown round 1");
        assert_eq!(c.decide_scale(2), None, "cooldown round 2");
        assert_eq!(c.decide_scale(2), Some(ScaleDecision::SpawnMirror));
    }

    #[test]
    fn scale_and_mirror_fn_adaptation_are_independent() {
        let mut c = controller_with_switch();
        c.set_scale_policy(ScalePolicy {
            thresholds: MonitorThresholds::new(10, 6),
            sustain: 1,
            cooldown: 0,
            max_mirrors: 4,
            min_mirrors: 1,
        });
        c.record_report(1, report(150));
        assert!(matches!(c.decide(), AdaptDecision::Engage(_)));
        assert_eq!(c.decide_scale(1), Some(ScaleDecision::SpawnMirror));
    }
}
