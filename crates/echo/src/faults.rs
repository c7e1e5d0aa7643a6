//! Deterministic fault injection for transports.
//!
//! [`FaultyTransport`] decorates any [`Transport`] and misbehaves according
//! to a seedable [`FaultPlan`]: dropping, duplicating, delaying (reordering)
//! outbound frames, corrupting inbound frames, and forcibly disconnecting
//! after every N frames. Every decision is a pure function of the plan's
//! seed and a per-frame counter — never of wall-clock time or thread
//! interleaving — so a failing chaos run reproduces from its seed alone.
//!
//! The decision counters live in a shared [`FaultState`] (an
//! `Arc<Mutex<_>>`) that survives the transport it is attached to. A
//! reconnecting link wraps each fresh connection in a new `FaultyTransport`
//! around the *same* state, so the fault schedule continues across
//! reconnects instead of restarting.
//!
//! A one-way partition falls out of the design: wrap only one endpoint (or
//! only one direction's transport) and the other direction stays healthy.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::transport::{Polled, Transport};
use crate::wire::Frame;

/// A seedable schedule of link misbehavior. Probabilities are per-mille
/// (parts per thousand) so plans stay integer-only and exactly
/// reproducible.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for all fault decisions.
    pub seed: u64,
    /// Chance (‰) an outbound frame is silently dropped.
    pub drop_per_mille: u32,
    /// Chance (‰) an outbound frame is sent twice.
    pub dup_per_mille: u32,
    /// Chance (‰) an outbound frame is held and emitted after its
    /// successor (a one-slot reorder/delay).
    pub reorder_per_mille: u32,
    /// Chance (‰) an inbound frame is corrupted (surfaces as an
    /// `InvalidData` receive error, as a corrupt TCP stream would).
    pub corrupt_per_mille: u32,
    /// Force a disconnect error after every N outbound frames (0 = never).
    pub disconnect_every: u64,
    /// Chance (‰) that a bounded-wait read tick begins a stall run (see
    /// [`ThrottleSchedule`]); models a slow consumer whose socket reads
    /// fall behind rather than a lossy link.
    pub stall_per_mille: u32,
    /// Length of each stall run, in read ticks.
    pub stall_ticks: u32,
    /// WAN link shape (propagation latency, jitter, loss) applied to every
    /// outbound frame after the frame-level faults above; `None` means an
    /// ideal local link.
    pub link: Option<LinkProfile>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; enable faults with the
    /// builder methods.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            dup_per_mille: 0,
            reorder_per_mille: 0,
            corrupt_per_mille: 0,
            disconnect_every: 0,
            stall_per_mille: 0,
            stall_ticks: 0,
            link: None,
        }
    }

    /// Drop outbound frames with probability `per_mille`/1000.
    pub fn drops(mut self, per_mille: u32) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// Duplicate outbound frames with probability `per_mille`/1000.
    pub fn dups(mut self, per_mille: u32) -> Self {
        self.dup_per_mille = per_mille;
        self
    }

    /// Reorder (delay by one frame) with probability `per_mille`/1000.
    pub fn reorders(mut self, per_mille: u32) -> Self {
        self.reorder_per_mille = per_mille;
        self
    }

    /// Corrupt inbound frames with probability `per_mille`/1000.
    pub fn corrupts(mut self, per_mille: u32) -> Self {
        self.corrupt_per_mille = per_mille;
        self
    }

    /// Force a disconnect after every `n` outbound frames (0 = never).
    pub fn disconnect_every(mut self, n: u64) -> Self {
        self.disconnect_every = n;
        self
    }

    /// Stall bounded-wait reads: each read tick starts a `ticks`-long stall
    /// run with probability `per_mille`/1000 (the slow-consumer fault).
    pub fn stalls(mut self, per_mille: u32, ticks: u32) -> Self {
        self.stall_per_mille = per_mille;
        self.stall_ticks = ticks;
        self
    }

    /// Shape every outbound frame through a WAN [`LinkProfile`]: fixed
    /// propagation latency plus seeded jitter, and seeded loss. Symmetric
    /// per-link: wrap both endpoints' transports with plans carrying the
    /// same profile to shape both directions.
    pub fn link(mut self, profile: LinkProfile) -> Self {
        self.link = Some(profile);
        self
    }

    /// The adversarial preset used by the chaos tests: 15% drops, 10%
    /// duplicates, 5% reorders, disconnect every 100 frames.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan::new(seed).drops(150).dups(100).reorders(50).disconnect_every(100)
    }

    /// Wrap this plan in the shared state a [`FaultyTransport`] needs.
    pub fn state(self) -> Arc<Mutex<FaultState>> {
        Arc::new(Mutex::new(FaultState::new(self)))
    }
}

/// Counters of injected faults, for assertions and reproducibility checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Outbound frames offered to the faulty link.
    pub sent: u64,
    /// Inbound frames that passed through the faulty link.
    pub received: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames sent twice.
    pub duplicated: u64,
    /// Frames delayed behind their successor.
    pub reordered: u64,
    /// Inbound frames corrupted.
    pub corrupted: u64,
    /// Forced disconnects.
    pub disconnects: u64,
    /// Bounded-wait read ticks swallowed by a stall run.
    pub stalled: u64,
    /// Frames lost by the WAN link profile.
    pub link_lost: u64,
    /// Frames delayed in flight by the WAN link profile.
    pub link_delayed: u64,
}

/// The shape of a (simulated) WAN link: fixed propagation latency, bounded
/// random jitter, and random loss. All randomness is seeded and per-frame
/// deterministic (see [`LinkShaper`]), so a WAN chaos run reproduces from
/// its seed. Loss is per-mille to match the rest of the fault plan.
///
/// A profile is *symmetric*: it describes one direction of a link, and the
/// harness applies the same profile to each direction it wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkProfile {
    /// Fixed one-way propagation delay applied to every delivered frame.
    pub latency_ms: u64,
    /// Maximum extra seeded delay; each frame draws uniformly from
    /// `0..=jitter_ms` on top of `latency_ms`.
    pub jitter_ms: u64,
    /// Chance (‰) a frame is lost in flight.
    pub loss_per_mille: u32,
}

impl LinkProfile {
    /// A profile with the given latency, jitter bound and loss rate.
    pub fn new(latency_ms: u64, jitter_ms: u64, loss_per_mille: u32) -> Self {
        LinkProfile { latency_ms, jitter_ms, loss_per_mille }
    }

    /// An ideal link: no latency, no jitter, no loss.
    pub fn ideal() -> Self {
        LinkProfile::new(0, 0, 0)
    }

    /// A cross-country WAN preset: 40 ms propagation, up to 10 ms jitter,
    /// 0.5% loss — the link class the geo-mirror benches run over.
    pub fn wan(loss_per_mille: u32) -> Self {
        LinkProfile::new(40, 10, loss_per_mille)
    }

    /// Does this profile shape anything at all?
    pub fn is_ideal(&self) -> bool {
        self.latency_ms == 0 && self.jitter_ms == 0 && self.loss_per_mille == 0
    }
}

/// The seeded fate of one frame crossing a shaped link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// The frame is lost in flight; the sender never learns.
    Lost,
    /// The frame arrives after `delay` (propagation latency plus jitter).
    Deliver {
        /// How long the frame spends in flight.
        delay: Duration,
    },
}

/// Deterministic per-frame link shaping: each call to
/// [`fate`](Self::fate) rolls — purely from the seed and a frame counter —
/// whether the frame is lost and how long it spends in flight. Usable
/// standalone (the WAN mirror's update pump shapes its feed with one) or
/// wired into a [`FaultyTransport`] via [`FaultPlan::link`].
#[derive(Debug, Clone)]
pub struct LinkShaper {
    seed: u64,
    profile: LinkProfile,
    idx: u64,
}

impl LinkShaper {
    /// A shaper drawing its schedule from `seed` for `profile`.
    pub fn new(seed: u64, profile: LinkProfile) -> Self {
        LinkShaper { seed, profile, idx: 0 }
    }

    /// The profile this shaper draws from.
    pub fn profile(&self) -> LinkProfile {
        self.profile
    }

    /// Decide the fate of the next frame.
    pub fn fate(&mut self) -> LinkFate {
        self.idx += 1;
        let p = self.profile;
        if p.loss_per_mille > 0
            && roll_per_mille(self.seed, SALT_LINK_LOSS, self.idx) < p.loss_per_mille
        {
            return LinkFate::Lost;
        }
        let mut delay_ms = p.latency_ms;
        if p.jitter_ms > 0 {
            delay_ms += splitmix64(
                self.seed ^ SALT_LINK_JITTER.wrapping_mul(0xA076_1D64_78BD_642F) ^ self.idx,
            ) % (p.jitter_ms + 1);
        }
        LinkFate::Deliver { delay: Duration::from_millis(delay_ms) }
    }
}

/// A deterministic, seedable schedule of read stalls: the slow-consumer
/// half of the fault harness, usable standalone (an edge bench pacing its
/// simulated subscribers' reads) or wired into a [`FaultyTransport`] via
/// [`FaultPlan::stalls`].
///
/// Each call to [`stalled`](Self::stalled) is one *read tick*. A tick
/// either falls inside a stall run (returns `true`) or rolls — purely from
/// the seed and the tick counter — whether a new run of `stall_ticks`
/// consecutive stalled ticks begins. Like every other fault decision, the
/// schedule is a function of `(seed, tick)` alone, so a failing run
/// reproduces from its seed.
#[derive(Debug, Clone)]
pub struct ThrottleSchedule {
    seed: u64,
    stall_per_mille: u32,
    stall_ticks: u32,
    tick: u64,
    remaining: u32,
}

impl ThrottleSchedule {
    /// A schedule where each tick starts a `stall_ticks`-long run with
    /// probability `per_mille`/1000.
    pub fn new(seed: u64, per_mille: u32, stall_ticks: u32) -> Self {
        ThrottleSchedule { seed, stall_per_mille: per_mille, stall_ticks, tick: 0, remaining: 0 }
    }

    /// Advance one read tick; `true` means this tick is stalled (the
    /// consumer does not read).
    pub fn stalled(&mut self) -> bool {
        self.tick += 1;
        if self.remaining > 0 {
            self.remaining -= 1;
            return true;
        }
        if self.stall_per_mille == 0 {
            return false;
        }
        let roll = roll_per_mille(self.seed, SALT_STALL, self.tick);
        if roll < self.stall_per_mille {
            self.remaining = self.stall_ticks.saturating_sub(1);
            true
        } else {
            false
        }
    }
}

/// Shared, lock-protected fault schedule state; see the module docs for
/// why it outlives any single connection.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    summary: FaultSummary,
    /// A frame held back by a reorder decision, emitted after the next
    /// successfully sent frame.
    held: Option<Frame>,
    /// Read-stall schedule, present when the plan enables stalls.
    throttle: Option<ThrottleSchedule>,
    /// WAN link shaper, present when the plan carries a [`LinkProfile`].
    shaper: Option<LinkShaper>,
    /// Frames in flight on the shaped link, with their delivery deadlines.
    /// Flushed (in due order) on every subsequent transport call, so the
    /// schedule — like the rest of the state — survives reconnect wraps.
    in_flight: VecDeque<(Instant, Frame)>,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        let throttle = (plan.stall_per_mille > 0)
            .then(|| ThrottleSchedule::new(plan.seed, plan.stall_per_mille, plan.stall_ticks));
        let shaper = plan.link.filter(|p| !p.is_ideal()).map(|p| LinkShaper::new(plan.seed, p));
        FaultState {
            plan,
            summary: FaultSummary::default(),
            held: None,
            throttle,
            shaper,
            in_flight: VecDeque::new(),
        }
    }

    /// Snapshot the fault counters.
    pub fn summary(&self) -> FaultSummary {
        self.summary.clone()
    }

    /// Deterministic per-mille roll for frame `idx` and decision `salt`.
    fn roll(&self, salt: u64, idx: u64) -> u32 {
        roll_per_mille(self.plan.seed, salt, idx)
    }

    /// Earliest delivery deadline among frames in flight, if any.
    fn next_due(&self) -> Option<Instant> {
        self.in_flight.iter().map(|(due, _)| *due).min()
    }

    /// Remove and return the earliest in-flight frame already due at `now`.
    fn pop_due(&mut self, now: Instant) -> Option<Frame> {
        let pos = self
            .in_flight
            .iter()
            .enumerate()
            .filter(|(_, (due, _))| *due <= now)
            .min_by_key(|(_, (due, _))| *due)
            .map(|(i, _)| i);
        pos.and_then(|i| self.in_flight.remove(i)).map(|(_, f)| f)
    }
}

const SALT_DROP: u64 = 1;
const SALT_DUP: u64 = 2;
const SALT_REORDER: u64 = 3;
const SALT_CORRUPT: u64 = 4;
const SALT_STALL: u64 = 5;
const SALT_LINK_LOSS: u64 = 6;
const SALT_LINK_JITTER: u64 = 7;

/// Deterministic per-mille roll shared by every fault decision: a pure
/// function of `(seed, salt, idx)`.
fn roll_per_mille(seed: u64, salt: u64, idx: u64) -> u32 {
    (splitmix64(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F) ^ idx) % 1000) as u32
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A [`Transport`] decorator that injects the faults its [`FaultPlan`]
/// prescribes. Once a forced disconnect fires, the instance is broken for
/// good (every call errors), exactly like a closed socket; reconnect by
/// wrapping a fresh inner transport via [`FaultyTransport::with_state`].
pub struct FaultyTransport<T: Transport> {
    inner: T,
    state: Arc<Mutex<FaultState>>,
    broken: bool,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wrap `inner` with a fresh state for `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        Self::with_state(inner, plan.state())
    }

    /// Wrap `inner`, continuing an existing fault schedule.
    pub fn with_state(inner: T, state: Arc<Mutex<FaultState>>) -> Self {
        FaultyTransport { inner, state, broken: false }
    }

    /// The shared schedule state (for summaries and reconnect wrapping).
    pub fn state(&self) -> Arc<Mutex<FaultState>> {
        Arc::clone(&self.state)
    }

    fn check_broken(&self) -> io::Result<()> {
        if self.broken {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "fault: link broken"));
        }
        Ok(())
    }

    fn filter_inbound(&mut self, frame: Frame) -> io::Result<Frame> {
        let mut st = self.state.lock().expect("fault state poisoned");
        st.summary.received += 1;
        let idx = st.summary.received;
        if st.plan.corrupt_per_mille > 0 && st.roll(SALT_CORRUPT, idx) < st.plan.corrupt_per_mille {
            st.summary.corrupted += 1;
            return Err(io::Error::new(io::ErrorKind::InvalidData, "fault: frame corrupted"));
        }
        Ok(frame)
    }

    /// Push one frame through the link stage: decide its fate under the
    /// lock, transmit (or queue, or swallow) outside it.
    fn link_transmit(&mut self, frame: &Frame) -> io::Result<()> {
        let fate = {
            let mut st = self.state.lock().expect("fault state poisoned");
            match st.shaper.as_mut() {
                None => None,
                Some(shaper) => {
                    let fate = shaper.fate();
                    match fate {
                        LinkFate::Lost => st.summary.link_lost += 1,
                        LinkFate::Deliver { delay } if !delay.is_zero() => {
                            st.summary.link_delayed += 1;
                            st.in_flight.push_back((Instant::now() + delay, frame.clone()));
                        }
                        LinkFate::Deliver { .. } => {}
                    }
                    Some(fate)
                }
            }
        };
        match fate {
            // No shaper, or a zero-delay delivery: straight through.
            None => self.inner.send(frame),
            Some(LinkFate::Deliver { delay }) if delay.is_zero() => self.inner.send(frame),
            Some(_) => Ok(()),
        }
    }

    /// Deliver every in-flight frame whose deadline has passed, earliest
    /// first (jitter may reorder relative to send order — that is the
    /// point).
    fn flush_link(&mut self) -> io::Result<()> {
        loop {
            let frame = {
                let mut st = self.state.lock().expect("fault state poisoned");
                st.pop_due(Instant::now())
            };
            match frame {
                Some(f) => self.inner.send(&f)?,
                None => return Ok(()),
            }
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.check_broken()?;
        // Decide under the lock, transmit outside it.
        let (disconnect, drop, dup, hold, release) = {
            let mut st = self.state.lock().expect("fault state poisoned");
            st.summary.sent += 1;
            let idx = st.summary.sent;
            let disconnect =
                st.plan.disconnect_every > 0 && idx.is_multiple_of(st.plan.disconnect_every);
            let drop = !disconnect
                && st.plan.drop_per_mille > 0
                && st.roll(SALT_DROP, idx) < st.plan.drop_per_mille;
            let dup = !disconnect
                && !drop
                && st.plan.dup_per_mille > 0
                && st.roll(SALT_DUP, idx) < st.plan.dup_per_mille;
            let hold = !disconnect
                && !drop
                && st.held.is_none()
                && st.plan.reorder_per_mille > 0
                && st.roll(SALT_REORDER, idx) < st.plan.reorder_per_mille;
            if disconnect {
                st.summary.disconnects += 1;
            } else if drop {
                st.summary.dropped += 1;
            } else if hold {
                st.summary.reordered += 1;
                st.held = Some(frame.clone());
            } else if dup {
                st.summary.duplicated += 1;
            }
            let release = if !disconnect && !drop && !hold { st.held.take() } else { None };
            (disconnect, drop, dup, hold, release)
        };
        if disconnect {
            self.broken = true;
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "fault: forced disconnect"));
        }
        if drop || hold {
            // Swallowed (or delayed): the caller sees success, the peer
            // sees nothing (yet) — exactly what a lossy link looks like.
            self.flush_link()?;
            return Ok(());
        }
        self.link_transmit(frame)?;
        if dup {
            self.link_transmit(frame)?;
        }
        if let Some(h) = release {
            self.link_transmit(&h)?;
        }
        self.flush_link()
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        self.check_broken()?;
        self.flush_link()?;
        match self.inner.recv()? {
            Some(f) => self.filter_inbound(f).map(Some),
            None => Ok(None),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Polled> {
        self.check_broken()?;
        // A stalled tick swallows the whole wait: the consumer does not
        // read, as if its thread were descheduled. The decision is taken
        // under the lock, the (real-time) stall happens outside it.
        let stalled = {
            let mut st = self.state.lock().expect("fault state poisoned");
            let hit = st.throttle.as_mut().is_some_and(|t| t.stalled());
            if hit {
                st.summary.stalled += 1;
            }
            hit
        };
        if stalled {
            std::thread::sleep(timeout);
            return Ok(Polled::Idle);
        }
        let has_link = {
            let st = self.state.lock().expect("fault state poisoned");
            st.shaper.is_some()
        };
        if !has_link {
            return match self.inner.recv_timeout(timeout)? {
                Polled::Frame(f) => self.filter_inbound(f).map(Polled::Frame),
                other => Ok(other),
            };
        }
        // With a shaped link, slice the wait so frames coming due mid-wait
        // are flushed on time instead of after the full timeout. Every
        // call, a zero wait included, ends with a flush and a zero-wait
        // poll of the inner transport.
        let deadline = Instant::now() + timeout;
        loop {
            self.flush_link()?;
            let now = Instant::now();
            let mut slice = deadline.saturating_duration_since(now);
            let next_due = {
                let st = self.state.lock().expect("fault state poisoned");
                st.next_due()
            };
            if let Some(due) = next_due {
                if due > now {
                    slice = slice.min(due - now);
                }
            }
            match self.inner.recv_timeout(slice)? {
                Polled::Frame(f) => return self.filter_inbound(f).map(Polled::Frame),
                Polled::Eof => return Ok(Polled::Eof),
                Polled::Idle if slice.is_zero() => return Ok(Polled::Idle),
                Polled::Idle => continue,
            }
        }
    }

    fn label(&self) -> String {
        format!("faulty:{}", self.inner.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcTransport;
    use mirror_core::event::{Event, FlightStatus};

    fn ev(seq: u64) -> Frame {
        Frame::Data(std::sync::Arc::new(Event::delta_status(seq, 7, FlightStatus::Boarding)))
    }

    fn run_schedule(plan: FaultPlan, frames: u64) -> (FaultSummary, Vec<Frame>) {
        let (near, mut far) = InProcTransport::pair("fault");
        let mut t = FaultyTransport::new(near, plan);
        for i in 1..=frames {
            match t.send(&ev(i)) {
                Ok(()) => {}
                Err(_) => break, // forced disconnect
            }
        }
        let state = t.state();
        drop(t);
        let mut got = Vec::new();
        while let Ok(Some(f)) = far.recv() {
            got.push(f);
        }
        let summary = state.lock().unwrap().summary();
        (summary, got)
    }

    #[test]
    fn no_faults_is_transparent() {
        let (summary, got) = run_schedule(FaultPlan::new(1), 100);
        assert_eq!(summary.dropped + summary.duplicated + summary.reordered, 0);
        assert_eq!(got.len(), 100);
        for (i, f) in got.iter().enumerate() {
            assert_eq!(*f, ev(i as u64 + 1));
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let (a, got_a) = run_schedule(FaultPlan::chaos(42), 500);
        let (b, got_b) = run_schedule(FaultPlan::chaos(42), 500);
        assert_eq!(a, b);
        assert_eq!(got_a, got_b);
        assert!(a.dropped > 0, "chaos plan should drop: {a:?}");
        assert!(a.duplicated > 0, "chaos plan should duplicate: {a:?}");
        assert!(a.disconnects > 0, "chaos plan should disconnect: {a:?}");
    }

    #[test]
    fn different_seed_different_schedule() {
        let (a, _) = run_schedule(FaultPlan::chaos(1), 500);
        let (b, _) = run_schedule(FaultPlan::chaos(2), 500);
        assert_ne!(a, b);
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let (summary, got) = run_schedule(FaultPlan::new(7).drops(200), 2000);
        assert_eq!(summary.sent, 2000);
        let rate = summary.dropped as f64 / 2000.0;
        assert!((0.15..0.25).contains(&rate), "drop rate {rate} out of band");
        assert_eq!(got.len() as u64, 2000 - summary.dropped);
    }

    #[test]
    fn forced_disconnect_breaks_until_rewrapped() {
        let (near, _far) = InProcTransport::pair("fault");
        let plan = FaultPlan::new(3).disconnect_every(5);
        let mut t = FaultyTransport::new(near, plan);
        for i in 1..5 {
            t.send(&ev(i)).unwrap();
        }
        assert!(t.send(&ev(5)).is_err());
        assert!(t.send(&ev(6)).is_err(), "stays broken after disconnect");
        assert!(t.recv().is_err(), "recv is broken too");
        // A new wrap over the same state continues the schedule: sends
        // 6..=9 pass, the 10th overall (disconnect_every=5) breaks again.
        let state = t.state();
        let (near2, _far2) = InProcTransport::pair("fault2");
        let mut t2 = FaultyTransport::with_state(near2, state);
        for i in 6..10 {
            t2.send(&ev(i)).unwrap();
        }
        assert!(t2.send(&ev(10)).is_err());
    }

    #[test]
    fn reorder_swaps_adjacent_frames() {
        // With 100% reorder, frame 1 is held; frame 2 cannot be held (slot
        // taken) so it goes out, releasing frame 1 after it, and so on.
        let (summary, got) = run_schedule(FaultPlan::new(5).reorders(1000), 10);
        assert!(summary.reordered > 0);
        // All frames arrive exactly once (barring one still held at the
        // end), just not in order.
        let mut seqs: Vec<u64> = got
            .iter()
            .map(|f| match f {
                Frame::Data(e) => e.seq,
                _ => unreachable!(),
            })
            .collect();
        assert_ne!(seqs, (1..=seqs.len() as u64).collect::<Vec<_>>(), "should be out of order");
        seqs.sort_unstable();
        seqs.dedup();
        assert!(seqs.len() >= 9, "at most the final held frame may be missing");
    }

    #[test]
    fn throttle_schedule_is_deterministic_and_runs_in_bursts() {
        let mut a = ThrottleSchedule::new(9, 100, 5);
        let mut b = ThrottleSchedule::new(9, 100, 5);
        let ticks_a: Vec<bool> = (0..2000).map(|_| a.stalled()).collect();
        let ticks_b: Vec<bool> = (0..2000).map(|_| b.stalled()).collect();
        assert_eq!(ticks_a, ticks_b, "same seed, same schedule");
        let stalled = ticks_a.iter().filter(|s| **s).count();
        assert!(stalled > 0, "schedule should stall sometimes");
        // Runs are at least stall_ticks long: every maximal run of `true`
        // that ends before the tail has length >= 5.
        let mut run = 0usize;
        for (i, s) in ticks_a.iter().enumerate() {
            if *s {
                run += 1;
            } else {
                assert!(run == 0 || run >= 5, "short stall run of {run} ending at tick {i}");
                run = 0;
            }
        }
        let mut c = ThrottleSchedule::new(10, 100, 5);
        assert_ne!(ticks_a, (0..2000).map(|_| c.stalled()).collect::<Vec<_>>());
        let mut never = ThrottleSchedule::new(9, 0, 5);
        assert!((0..100).all(|_| !never.stalled()));
    }

    #[test]
    fn stalled_reads_delay_but_never_lose() {
        let (mut near, far) = InProcTransport::pair("stall");
        // Heavy stalling (50% chance of a 2-tick run): the frame arrives
        // late, after some deterministically stalled Idle ticks, but it
        // always arrives — stalls are delay, not loss.
        let mut t = FaultyTransport::new(far, FaultPlan::new(21).stalls(500, 2));
        for i in 1..=50 {
            near.send(&ev(i)).unwrap();
        }
        let mut idles = 0u64;
        let mut got = Vec::new();
        while got.len() < 50 {
            match t.recv_timeout(Duration::from_millis(1)).unwrap() {
                Polled::Frame(f) => got.push(f),
                Polled::Idle => idles += 1,
                Polled::Eof => panic!("unexpected eof"),
            }
            assert!(idles < 1000, "stall schedule never yielded a read");
        }
        assert_eq!(got, (1..=50).map(ev).collect::<Vec<_>>(), "in order, nothing lost");
        let summary = t.state().lock().unwrap().summary();
        assert_eq!(summary.stalled, idles, "every idle tick was a stall");
        assert!(summary.stalled > 0, "50 ticks at 50% should stall at least once");
    }

    #[test]
    fn link_shaper_is_deterministic() {
        let profile = LinkProfile::wan(100);
        let mut a = LinkShaper::new(17, profile);
        let mut b = LinkShaper::new(17, profile);
        let fates_a: Vec<LinkFate> = (0..2000).map(|_| a.fate()).collect();
        let fates_b: Vec<LinkFate> = (0..2000).map(|_| b.fate()).collect();
        assert_eq!(fates_a, fates_b, "same seed, same schedule");
        let lost = fates_a.iter().filter(|f| **f == LinkFate::Lost).count();
        let rate = lost as f64 / 2000.0;
        assert!((0.05..0.15).contains(&rate), "loss rate {rate} out of band for 10%");
        for f in &fates_a {
            if let LinkFate::Deliver { delay } = f {
                let ms = delay.as_millis() as u64;
                assert!(
                    (profile.latency_ms..=profile.latency_ms + profile.jitter_ms).contains(&ms),
                    "delay {ms}ms outside latency+jitter band"
                );
            }
        }
        let mut c = LinkShaper::new(18, profile);
        assert_ne!(fates_a, (0..2000).map(|_| c.fate()).collect::<Vec<_>>());
        let mut ideal = LinkShaper::new(17, LinkProfile::ideal());
        assert_eq!(ideal.fate(), LinkFate::Deliver { delay: Duration::ZERO });
    }

    #[test]
    fn link_latency_delays_frames() {
        let (near, mut far) = InProcTransport::pair("wan");
        let plan = FaultPlan::new(13).link(LinkProfile::new(20, 0, 0));
        let mut t = FaultyTransport::new(near, plan);
        let start = Instant::now();
        t.send(&ev(1)).unwrap();
        // The frame is in flight: the peer must not have it yet.
        assert_eq!(far.recv_timeout(Duration::from_millis(1)).unwrap(), Polled::Idle);
        // Waiting on the shaped transport flushes the frame once due.
        assert_eq!(t.recv_timeout(Duration::from_millis(200)).unwrap(), Polled::Idle);
        let got = far.recv().unwrap().expect("frame delivered after latency");
        assert_eq!(got, ev(1));
        assert!(start.elapsed() >= Duration::from_millis(20), "delivered before latency elapsed");
        let summary = t.state().lock().unwrap().summary();
        assert_eq!(summary.link_delayed, 1);
        assert_eq!(summary.link_lost, 0);
    }

    #[test]
    fn zero_wait_on_a_shaped_link_reads_a_waiting_frame() {
        let (mut near, far) = InProcTransport::pair("wan");
        let mut t = FaultyTransport::new(far, FaultPlan::new(13).link(LinkProfile::new(20, 0, 0)));
        near.send(&ev(1)).unwrap();
        assert_eq!(t.recv_timeout(Duration::ZERO).unwrap(), Polled::Frame(ev(1)));
        assert_eq!(t.recv_timeout(Duration::ZERO).unwrap(), Polled::Idle);
    }

    #[test]
    fn link_loss_swallows_frames() {
        let (near, mut far) = InProcTransport::pair("wan");
        let plan = FaultPlan::new(29).link(LinkProfile::new(0, 0, 1000));
        let mut t = FaultyTransport::new(near, plan);
        for i in 1..=20 {
            t.send(&ev(i)).unwrap();
        }
        assert_eq!(far.recv_timeout(Duration::from_millis(5)).unwrap(), Polled::Idle);
        let summary = t.state().lock().unwrap().summary();
        assert_eq!(summary.link_lost, 20, "total loss swallows every frame");
        assert_eq!(summary.link_delayed, 0);
    }

    #[test]
    fn ideal_link_profile_is_transparent() {
        let (summary, got) = run_schedule(FaultPlan::new(1).link(LinkProfile::ideal()), 50);
        assert_eq!(got.len(), 50);
        assert_eq!(summary.link_lost + summary.link_delayed, 0);
    }

    #[test]
    fn corruption_surfaces_as_invalid_data() {
        let (near, far) = InProcTransport::pair("fault");
        let mut sender = near;
        let mut t = FaultyTransport::new(far, FaultPlan::new(11).corrupts(1000));
        sender.send(&ev(1)).unwrap();
        let err = t.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(t.state().lock().unwrap().summary().corrupted, 1);
    }
}
