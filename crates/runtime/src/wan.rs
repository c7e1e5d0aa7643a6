//! WAN mirror tier: a read replica behind a simulated wide-area link.
//!
//! A [`WanMirror`] is the geo-distributed end of the paper's mirroring
//! spectrum: it subscribes to the central site's applied-updates stream,
//! but every event crosses a shaped [`LinkProfile`] (propagation latency,
//! jitter, loss) before it lands — and the link can be partitioned
//! outright. The replica serves reads under a **bounded-staleness
//! contract**: while the link is healthy, reads reflect state at most one
//! link delay behind the central; once a partition has outlived the
//! configured bound, reads fail with [`WanReadError`] instead of silently
//! serving stale flights.
//!
//! Catch-up after a partition is where the unified transfer layer pays
//! off: [`WanMirror::resync`] asks the central's
//! [`StateSync`] for a transfer against the
//! replica's last installed frontier. When the central still remembers
//! that base, the transfer is a [`StateDelta`](mirror_ede::StateDelta)
//! moving only the flights that changed during the outage — at a few
//! percent divergence, a small fraction of the bytes a full snapshot
//! costs over the same WAN link (see `mirror-bench --bin wan_mirror`).
//!
//! All link randomness is seeded ([`LinkShaper`]), so a WAN chaos run
//! reproduces from its seed alone.
//!
//! The pump polls nothing: it parks in `recv` while no frame is in flight
//! and otherwise waits until the next one lands. [`WanMirror::stop`]
//! closes its subscription; frames still in flight die with the link.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mirror_core::event::{Event, FlightId};
use mirror_core::timestamp::VectorTimestamp;
use mirror_echo::channel::Closer;
use mirror_echo::faults::{LinkFate, LinkProfile, LinkShaper};
use mirror_ede::{FlightView, OperationalState};

use crate::site::CentralSite;
use crate::statesync::{StateSync, Transfer};

/// Configuration of a WAN mirror's link and read contract.
#[derive(Debug, Clone, Copy)]
pub struct WanMirrorConfig {
    /// Shape of the wide-area link the update stream crosses.
    pub link: LinkProfile,
    /// Seed for the link's loss/jitter schedule (reproducible chaos).
    pub seed: u64,
    /// Bounded-staleness contract: once the replica has been cut off for
    /// longer than this, reads fail until a resync restores coverage.
    pub max_staleness: Duration,
}

impl Default for WanMirrorConfig {
    fn default() -> Self {
        WanMirrorConfig {
            // The cross-country preset with 0.5% loss.
            link: LinkProfile::wan(5),
            seed: 1,
            max_staleness: Duration::from_secs(2),
        }
    }
}

/// Why a WAN read was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WanReadError {
    /// The replica has been cut off from the central for longer than the
    /// configured staleness bound; serving would violate the contract.
    StaleBeyondBound {
        /// How long the replica has been without coverage.
        stale_for: Duration,
        /// The configured bound it exceeded.
        bound: Duration,
    },
}

impl std::fmt::Display for WanReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WanReadError::StaleBeyondBound { stale_for, bound } => write!(
                f,
                "replica stale for {stale_for:?}, beyond the {bound:?} bound; resync required"
            ),
        }
    }
}

impl std::error::Error for WanReadError {}

/// Accounting of one [`WanMirror::resync`] catch-up transfer.
#[derive(Debug, Clone)]
pub struct WanResync {
    /// Whether the transfer was a delta (`true`) or fell back to a full
    /// snapshot (`false`, base no longer remembered).
    pub delta: bool,
    /// Bytes the transfer occupies on the link.
    pub wire_bytes: usize,
    /// Flights the transfer carried (changed subset for a delta, the whole
    /// map for a full snapshot).
    pub flights_moved: usize,
    /// Flight removals the transfer carried (deltas only).
    pub removed: usize,
    /// The frontier the replica was brought up to (its next delta base).
    pub as_of: VectorTimestamp,
}

/// A read replica of the central site behind a shaped WAN link.
///
/// Construction subscribes to the central's applied-updates stream and
/// installs a fresh seed through the central's unified
/// [`StateSync`] provider; a pump thread then
/// plays every update through the link shaper (latency, jitter, loss) into
/// a local [`OperationalState`]. [`partition`](Self::partition) severs the
/// link: a frame is lost on the wire if the link is down when it is sent
/// or when it would land. [`heal`](Self::heal) restores it, and
/// [`resync`](Self::resync) closes the resulting divergence with a delta
/// transfer when possible.
pub struct WanMirror {
    state: Arc<Mutex<OperationalState>>,
    /// Frontier of the last installed transfer — the next delta base.
    /// Only transfer frontiers are remembered as bases by the producer, so
    /// streamed events advance the state but never this.
    base: Mutex<VectorTimestamp>,
    sync: Arc<StateSync>,
    link_down: Arc<AtomicBool>,
    /// When coverage was lost (partition start); cleared by resync.
    stale_since: Arc<Mutex<Option<Instant>>>,
    applied: Arc<AtomicU64>,
    link_lost: Arc<AtomicU64>,
    /// Closes the pump's subscription.
    closer: Closer,
    pump: Option<JoinHandle<()>>,
    cfg: WanMirrorConfig,
}

impl WanMirror {
    /// Attach a WAN replica to `central`: subscribe first (missing
    /// nothing), then seed from a **fresh** capture — the WAN tier replays
    /// no floor, so a cached pre-subscribe capture would leave a silent
    /// gap, exactly as in the rejoin path.
    pub fn connect(central: &CentralSite, cfg: WanMirrorConfig) -> Self {
        let sub = central.subscribe_updates();
        let sync = central.state_sync();
        let served = sync.capture_now();
        let base = served.as_of.clone();
        let state = Arc::new(Mutex::new(served.into_snapshot().into_state()));

        let link_down = Arc::new(AtomicBool::new(false));
        let stale_since: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
        let applied = Arc::new(AtomicU64::new(0));
        let link_lost = Arc::new(AtomicU64::new(0));
        let closer = sub.closer();

        let pump = {
            let state = Arc::clone(&state);
            let link_down = Arc::clone(&link_down);
            let applied = Arc::clone(&applied);
            let link_lost = Arc::clone(&link_lost);
            let mut shaper = LinkShaper::new(cfg.seed, cfg.link);
            std::thread::Builder::new()
                .name("wan-pump".into())
                .spawn(move || {
                    // Events in flight on the link, with delivery deadlines.
                    let mut in_flight: VecDeque<(Instant, Event)> = VecDeque::new();
                    loop {
                        let sent = match in_flight.iter().map(|(due, _)| *due).min() {
                            None => match sub.recv() {
                                None => return,
                                sent => sent,
                            },
                            Some(due) => {
                                let sent =
                                    sub.recv_timeout(due.saturating_duration_since(Instant::now()));
                                // Nothing, before the deadline: the
                                // subscription has ended.
                                if sent.is_none() && Instant::now() < due {
                                    return;
                                }
                                sent
                            }
                        };
                        if let Some(event) = sent {
                            let fate = if link_down.load(Ordering::Acquire) {
                                LinkFate::Lost
                            } else {
                                shaper.fate()
                            };
                            match fate {
                                LinkFate::Lost => {
                                    link_lost.fetch_add(1, Ordering::Relaxed);
                                }
                                LinkFate::Deliver { delay } => {
                                    in_flight.push_back((Instant::now() + delay, event));
                                }
                            }
                        }
                        // Land everything already due. Jitter may hand
                        // frames over out of publish order; the store's
                        // per-flight monotone guards absorb the stale ones,
                        // same as any mirror.
                        let now = Instant::now();
                        while let Some(pos) = in_flight
                            .iter()
                            .enumerate()
                            .filter(|(_, (due, _))| *due <= now)
                            .min_by_key(|(_, (due, _))| *due)
                            .map(|(i, _)| i)
                        {
                            let (_, event) = in_flight.remove(pos).expect("due frame present");
                            if link_down.load(Ordering::Acquire) {
                                link_lost.fetch_add(1, Ordering::Relaxed);
                            } else {
                                state.lock().apply(&event);
                                applied.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
                .expect("spawn wan pump")
        };

        WanMirror {
            state,
            base: Mutex::new(base),
            sync,
            link_down,
            stale_since,
            applied,
            link_lost,
            closer,
            pump: Some(pump),
            cfg,
        }
    }

    /// Sever the WAN link: events the central publishes from now until
    /// [`heal`](Self::heal) never arrive (loss, not delay), and the
    /// staleness clock starts ticking against the read contract.
    pub fn partition(&self) {
        self.link_down.store(true, Ordering::Release);
        let mut since = self.stale_since.lock();
        if since.is_none() {
            *since = Some(Instant::now());
        }
    }

    /// Restore the WAN link. New events flow again, but the outage left a
    /// hole in the replica's coverage, so reads stay governed by the
    /// staleness clock until [`resync`](Self::resync) closes the gap.
    pub fn heal(&self) {
        self.link_down.store(false, Ordering::Release);
    }

    /// Is the link currently severed?
    pub fn is_partitioned(&self) -> bool {
        self.link_down.load(Ordering::Acquire)
    }

    /// How long the replica has been without coverage, if it is stale.
    pub fn stale_for(&self) -> Option<Duration> {
        self.stale_since.lock().map(|since| since.elapsed())
    }

    /// Close the divergence accumulated since the last transfer: request a
    /// transfer against the replica's base frontier through the central's
    /// unified provider. The central answers with a delta when it still
    /// remembers the base (moving only what changed), a full snapshot
    /// otherwise. Installing the transfer restores read coverage.
    pub fn resync(&self) -> WanResync {
        let base = self.base.lock().clone();
        let transfer = self.sync.transfer_since(Some(&base));
        let as_of = transfer.as_of().clone();
        let wire_bytes = transfer.wire_size();
        let report = match transfer {
            Transfer::Delta(d) => {
                let report = WanResync {
                    delta: true,
                    wire_bytes,
                    flights_moved: d.changed_count(),
                    removed: d.removed().len(),
                    as_of: as_of.clone(),
                };
                self.state.lock().apply_delta(&d);
                report
            }
            Transfer::Full(s) => {
                let report = WanResync {
                    delta: false,
                    wire_bytes,
                    flights_moved: s.flight_count(),
                    removed: 0,
                    as_of: as_of.clone(),
                };
                *self.state.lock() = s.into_snapshot().into_state();
                report
            }
        };
        *self.base.lock() = as_of;
        *self.stale_since.lock() = None;
        report
    }

    /// Serve a read under the bounded-staleness contract: the flight's
    /// current replica view, or [`WanReadError`] when the replica has been
    /// without coverage longer than the configured bound.
    pub fn read(&self, id: FlightId) -> Result<Option<FlightView>, WanReadError> {
        if let Some(since) = *self.stale_since.lock() {
            let stale_for = since.elapsed();
            if stale_for > self.cfg.max_staleness {
                return Err(WanReadError::StaleBeyondBound {
                    stale_for,
                    bound: self.cfg.max_staleness,
                });
            }
        }
        Ok(self.state.lock().flight(id).cloned())
    }

    /// Digest of the replica's flight state (comparable with any site's
    /// `state_hash`).
    pub fn state_hash(&self) -> u64 {
        self.state.lock().state_hash()
    }

    /// Flights currently held by the replica.
    pub fn flight_count(&self) -> usize {
        self.state.lock().flight_count()
    }

    /// Events applied off the shaped link so far.
    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::Relaxed)
    }

    /// Events lost on the link so far (shaper loss plus partition cuts).
    pub fn link_lost(&self) -> u64 {
        self.link_lost.load(Ordering::Relaxed)
    }

    /// Stop the pump thread (idempotent; joins on completion).
    pub fn stop(&mut self) {
        self.closer.close();
        if let Some(t) = self.pump.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WanMirror {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for WanMirror {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WanMirror")
            .field("link", &self.cfg.link)
            .field("partitioned", &self.is_partitioned())
            .field("applied", &self.applied())
            .field("link_lost", &self.link_lost())
            .finish()
    }
}
