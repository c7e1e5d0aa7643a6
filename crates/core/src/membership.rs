//! Epoch-stamped cluster membership.
//!
//! The paper treats the mirror set as an *adaptation target*: mirrors exist
//! to parallelize bursty request loads away from the central site (§1), and
//! §3.2.2's monitor/threshold machinery decides at runtime how much work
//! they absorb. That only pays off if the set of mirrors itself can change
//! while traffic flows. This module is the shared vocabulary for that:
//!
//! * [`MembershipView`] — an immutable, `Arc`-shared snapshot of every
//!   site's [`SiteState`], stamped with a monotonically increasing
//!   **epoch** that is bumped on every change. Consumers (balancer,
//!   gateway, checkpointer, bridges) hold a cheap clone and compare epochs
//!   to detect change; nobody blocks a membership writer.
//! * [`MembershipRegistry`] — the single writer: validated state
//!   transitions (`admit`, `suspect`, `restore`, `retire`) each install a
//!   freshly built view under a short lock and return the new epoch.
//! * [`MembershipError`] — the typed result of an invalid transition,
//!   replacing the index `assert!`s that membership operations used to
//!   panic with.
//!
//! The epoch also rides the checkpoint control traffic
//! ([`crate::ControlMsg::Chkpt`] / [`crate::ControlMsg::Commit`]), so every
//! site learns the membership generation in force when a round was formed —
//! a mirror admitted mid-stream can tell which directives and rounds
//! predate it.

use std::fmt;
use std::sync::{Arc, RwLock};

use crate::control::{SiteId, CENTRAL_SITE};

/// Lifecycle state of one cluster site within a [`MembershipView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteState {
    /// Participating in mirroring, checkpoint rounds and request routing.
    Live,
    /// Failed or unreachable: excluded from routing and round completion,
    /// but expected back (a rejoin restores it to [`SiteState::Live`]).
    Suspect,
    /// Permanently removed (scale-in, or promoted away). Its id is never
    /// reused, so retained logs and old control messages stay unambiguous.
    Retired,
}

/// One immutable snapshot of cluster membership, stamped with the epoch at
/// which it was installed.
///
/// Views are shared as `Arc<MembershipView>` and never mutated; a change
/// builds a new view with `epoch + 1`. Two views with the same epoch are
/// identical, so consumers cache per-epoch derived state (routing tables,
/// participant lists) keyed by [`MembershipView::epoch`] alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    epoch: u64,
    /// `(site, state)` pairs in ascending site order; the central site is
    /// not listed (it is definitionally live while the cluster runs).
    entries: Vec<(SiteId, SiteState)>,
}

impl MembershipView {
    /// The view in force before any membership change: `mirrors` live
    /// mirror sites numbered `1..=mirrors`, at epoch 0.
    pub fn initial(mirrors: u16) -> Self {
        Self { epoch: 0, entries: (1..=mirrors).map(|s| (s, SiteState::Live)).collect() }
    }

    /// The membership generation this view represents.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// State of `site`, or `None` if the site was never admitted. The
    /// central site reports [`SiteState::Live`].
    pub fn state_of(&self, site: SiteId) -> Option<SiteState> {
        if site == CENTRAL_SITE {
            return Some(SiteState::Live);
        }
        self.entries.iter().find(|(s, _)| *s == site).map(|(_, st)| *st)
    }

    /// Is `site` live in this view?
    pub fn is_live(&self, site: SiteId) -> bool {
        self.state_of(site) == Some(SiteState::Live)
    }

    /// Live mirror sites, ascending (the central site is not included).
    pub fn live_mirrors(&self) -> Vec<SiteId> {
        self.entries.iter().filter(|(_, st)| *st == SiteState::Live).map(|(s, _)| *s).collect()
    }

    /// Number of live mirror sites.
    pub fn live_count(&self) -> usize {
        self.entries.iter().filter(|(_, st)| *st == SiteState::Live).count()
    }

    /// All `(site, state)` entries, ascending by site id.
    pub fn entries(&self) -> &[(SiteId, SiteState)] {
        &self.entries
    }

    /// The smallest mirror id never yet admitted (retired ids are not
    /// reused).
    pub fn next_site_id(&self) -> SiteId {
        self.entries.last().map_or(1, |(s, _)| s + 1)
    }
}

/// Why a membership operation was refused.
///
/// These replace the index-bounds `assert!`s that `fail_mirror` /
/// `rejoin_mirror` / `promote_mirror` / `recover_site` / `snapshot` used to
/// panic with: an invalid site is now an error value the caller can route,
/// log or retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipError {
    /// The site id was never admitted to the cluster.
    UnknownSite(SiteId),
    /// The operation needs a live site, but this one is suspect or stopped.
    NotLive(SiteId),
    /// The site is already live (e.g. admitting or rejoining a live site).
    AlreadyLive(SiteId),
    /// The site has been retired; retired ids never return.
    Retired(SiteId),
    /// The operation does not apply to the central site.
    IsCentral,
    /// The operation needs a durable store (journal or snapshot directory)
    /// and the cluster was started without one.
    NoDurableStore,
    /// A durable-store operation failed; the payload is the underlying
    /// I/O error rendered to text.
    Store(String),
    /// A control message (or reply) carried a leadership term older than
    /// the one in force — it came from a fenced-out former coordinator
    /// and was discarded.
    StaleTerm {
        /// The term the offending message carried.
        stale: u64,
        /// The term currently in force at the receiver.
        current: u64,
    },
    /// A promotion's quiesce window expired while the candidate mirror was
    /// still applying delivered events: seeding a coordinator from it now
    /// would silently start the new central *behind* the survivors, so
    /// the promotion was aborted instead.
    QuiesceTimeout {
        /// The mirror that failed to quiesce in time.
        site: SiteId,
        /// Events the mirror had processed when the deadline expired (its
        /// counter was still advancing past this value).
        processed: u64,
    },
}

impl fmt::Display for MembershipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MembershipError::UnknownSite(s) => write!(f, "site {s} was never admitted"),
            MembershipError::NotLive(s) => write!(f, "site {s} is not live"),
            MembershipError::AlreadyLive(s) => write!(f, "site {s} is already live"),
            MembershipError::Retired(s) => write!(f, "site {s} is retired"),
            MembershipError::IsCentral => write!(f, "operation does not apply to the central site"),
            MembershipError::NoDurableStore => {
                write!(f, "cluster was started without a durable store")
            }
            MembershipError::Store(e) => write!(f, "durable store error: {e}"),
            MembershipError::StaleTerm { stale, current } => {
                write!(f, "stale leadership term {stale} (term {current} is in force)")
            }
            MembershipError::QuiesceTimeout { site, processed } => {
                write!(
                    f,
                    "site {site} did not quiesce before the promotion deadline \
                     (still applying past {processed} processed events)"
                )
            }
        }
    }
}

impl std::error::Error for MembershipError {}

impl From<std::io::Error> for MembershipError {
    fn from(e: std::io::Error) -> Self {
        MembershipError::Store(e.to_string())
    }
}

/// The single writer of membership state: validated transitions, each
/// installing a new [`MembershipView`] with a bumped epoch.
///
/// Readers call [`view`](Self::view) (an `Arc` clone under a short read
/// lock) and never observe a half-applied change. All transitions take
/// `&self`, which is what lets `Cluster`'s membership operations shed their
/// `&mut self` receivers.
pub struct MembershipRegistry {
    view: RwLock<Arc<MembershipView>>,
}

impl MembershipRegistry {
    /// A registry over `mirrors` live sites `1..=mirrors` at epoch 0.
    pub fn new(mirrors: u16) -> Self {
        Self { view: RwLock::new(Arc::new(MembershipView::initial(mirrors))) }
    }

    /// The current view (cheap: one `Arc` clone).
    pub fn view(&self) -> Arc<MembershipView> {
        Arc::clone(&self.view.read().expect("membership lock poisoned"))
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.view.read().expect("membership lock poisoned").epoch
    }

    /// Admit a brand-new site as [`SiteState::Live`]. Returns the new
    /// epoch. Fails if the id is already known (live, suspect or retired).
    pub fn admit(&self, site: SiteId) -> Result<u64, MembershipError> {
        self.transition(site, |state| match state {
            None => Ok(SiteState::Live),
            Some(SiteState::Retired) => Err(MembershipError::Retired(site)),
            Some(_) => Err(MembershipError::AlreadyLive(site)),
        })
    }

    /// Mark a live site [`SiteState::Suspect`] (failure observed). Returns
    /// the new epoch.
    pub fn suspect(&self, site: SiteId) -> Result<u64, MembershipError> {
        self.transition(site, |state| match state {
            Some(SiteState::Live) => Ok(SiteState::Suspect),
            Some(SiteState::Suspect) => Err(MembershipError::NotLive(site)),
            Some(SiteState::Retired) => Err(MembershipError::Retired(site)),
            None => Err(MembershipError::UnknownSite(site)),
        })
    }

    /// Restore a suspect site to [`SiteState::Live`] (rejoin/recovery).
    /// Returns the new epoch.
    pub fn restore(&self, site: SiteId) -> Result<u64, MembershipError> {
        self.transition(site, |state| match state {
            Some(SiteState::Suspect) | Some(SiteState::Live) => Ok(SiteState::Live),
            Some(SiteState::Retired) => Err(MembershipError::Retired(site)),
            None => Err(MembershipError::UnknownSite(site)),
        })
    }

    /// Permanently retire a site (scale-in or promotion). Returns the new
    /// epoch.
    pub fn retire(&self, site: SiteId) -> Result<u64, MembershipError> {
        self.transition(site, |state| match state {
            Some(SiteState::Live) | Some(SiteState::Suspect) => Ok(SiteState::Retired),
            Some(SiteState::Retired) => Err(MembershipError::Retired(site)),
            None => Err(MembershipError::UnknownSite(site)),
        })
    }

    /// The next never-used mirror id (for spawning a fresh mirror).
    pub fn next_site_id(&self) -> SiteId {
        self.view.read().expect("membership lock poisoned").next_site_id()
    }

    fn transition(
        &self,
        site: SiteId,
        f: impl FnOnce(Option<SiteState>) -> Result<SiteState, MembershipError>,
    ) -> Result<u64, MembershipError> {
        if site == CENTRAL_SITE {
            return Err(MembershipError::IsCentral);
        }
        let mut guard = self.view.write().expect("membership lock poisoned");
        let current = guard.state_of(site);
        let next = f(current)?;
        let mut entries = guard.entries.clone();
        match entries.iter_mut().find(|(s, _)| *s == site) {
            Some(e) => e.1 = next,
            None => {
                entries.push((site, next));
                entries.sort_by_key(|(s, _)| *s);
            }
        }
        let epoch = guard.epoch + 1;
        *guard = Arc::new(MembershipView { epoch, entries });
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_view_lists_live_mirrors() {
        let v = MembershipView::initial(3);
        assert_eq!(v.epoch(), 0);
        assert_eq!(v.live_mirrors(), vec![1, 2, 3]);
        assert_eq!(v.live_count(), 3);
        assert!(v.is_live(CENTRAL_SITE), "central is definitionally live");
        assert_eq!(v.state_of(9), None);
        assert_eq!(v.next_site_id(), 4);
    }

    #[test]
    fn every_transition_bumps_the_epoch_once() {
        let r = MembershipRegistry::new(2);
        assert_eq!(r.suspect(1).unwrap(), 1);
        assert_eq!(r.restore(1).unwrap(), 2);
        assert_eq!(r.admit(3).unwrap(), 3);
        assert_eq!(r.retire(3).unwrap(), 4);
        assert_eq!(r.epoch(), 4);
        let v = r.view();
        assert_eq!(v.live_mirrors(), vec![1, 2]);
        assert_eq!(v.state_of(3), Some(SiteState::Retired));
    }

    #[test]
    fn invalid_transitions_are_typed_errors() {
        let r = MembershipRegistry::new(1);
        assert_eq!(r.suspect(7), Err(MembershipError::UnknownSite(7)));
        assert_eq!(r.admit(1), Err(MembershipError::AlreadyLive(1)));
        assert_eq!(r.suspect(CENTRAL_SITE), Err(MembershipError::IsCentral));
        r.retire(1).unwrap();
        assert_eq!(r.restore(1), Err(MembershipError::Retired(1)));
        assert_eq!(r.admit(1), Err(MembershipError::Retired(1)));
        assert_eq!(r.suspect(1), Err(MembershipError::Retired(1)));
    }

    #[test]
    fn retired_ids_are_never_reused() {
        let r = MembershipRegistry::new(2);
        r.retire(2).unwrap();
        assert_eq!(r.next_site_id(), 3);
        r.admit(3).unwrap();
        r.retire(3).unwrap();
        assert_eq!(r.next_site_id(), 4);
    }

    #[test]
    fn views_are_immutable_snapshots() {
        let r = MembershipRegistry::new(1);
        let before = r.view();
        r.admit(2).unwrap();
        let after = r.view();
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.live_count(), 1, "old snapshot unchanged");
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.live_mirrors(), vec![1, 2]);
    }

    #[test]
    fn failed_transition_leaves_epoch_alone() {
        let r = MembershipRegistry::new(1);
        assert!(r.suspect(5).is_err());
        assert_eq!(r.epoch(), 0);
    }
}
