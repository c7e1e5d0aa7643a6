//! Reliable delivery over unreliable links.
//!
//! The paper assumes "reliable communication across mirror sites" and
//! names link/node failure handling as future work. [`ResilientTransport`]
//! lifts that assumption: it wraps any inner [`Transport`] (fresh ones
//! minted by a [`Connector`] on every reconnect) and layers on
//!
//! * **per-frame sequence numbers** — every outbound frame travels in a
//!   [`Frame::Seq`] envelope, numbered from 1;
//! * **cumulative acks** — the receiver acknowledges the highest
//!   contiguously delivered sequence number ([`Frame::Ack`]);
//! * **a bounded retransmit window** — unacknowledged frames are retained
//!   as their wire encoding, shared with the fan-out path so a frame is
//!   encoded once per link lifetime
//!   (the transport-level analogue of the paper's backup queue) and
//!   replayed when the peer announces what it has via [`Frame::Hello`];
//! * **reconnect with exponential backoff + jitter** under a retry
//!   budget — transient outages heal invisibly, exhausted budgets mark the
//!   link *dead* so `suspect_after` failure detection and the dead-mirror /
//!   central-failover paths can take over;
//! * **duplicate suppression** — redelivered sequence numbers below the
//!   receive cursor are dropped and re-acked.
//!
//! The result: every frame accepted by [`send`](ResilientTransport::send)
//! is delivered to the peer's application **exactly once, in order**, for
//! as long as the link stays within its retry budget.
//!
//! The engine is single-threaded and polling: acks and retransmit requests
//! are serviced opportunistically during `send` and during (bounded-wait)
//! `recv`. Idle links should be ticked via
//! [`recv_timeout`](Transport::recv_timeout) so protocol frames keep
//! flowing when no application traffic does — the runtime bridge does this
//! on its writer thread's idle tick.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::transport::{Polled, Transport};
use crate::wire::{encode_frame, encode_seq_envelope, Frame};

/// Default retransmit-window bound (frames retained awaiting ack).
pub const DEFAULT_WINDOW: usize = 8192;

/// Bound on the receiver's out-of-order reassembly buffer.
const MAX_OOO: usize = 4096;

/// How long a blocking [`recv`](Transport::recv) waits per poll cycle.
const RECV_POLL: Duration = Duration::from_millis(25);

/// Consecutive idle service passes that waited, with an outstanding window,
/// before the sender re-offers it unprompted (see `note_idle`).
const STALL_PUMPS: u32 = 20;

/// Produces a fresh connection on demand. Implemented for closures so
/// callers can write `move || Ok(Box::new(TcpTransport::connect(addr)?) as _)`.
pub trait Connector: Send {
    /// Establish a new inner transport.
    fn connect(&mut self) -> io::Result<Box<dyn Transport>>;
}

impl<F> Connector for F
where
    F: FnMut() -> io::Result<Box<dyn Transport>> + Send,
{
    fn connect(&mut self) -> io::Result<Box<dyn Transport>> {
        self()
    }
}

/// Reconnect policy: exponential backoff with deterministic jitter under a
/// bounded attempt budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Connection attempts per outage before the link is declared dead.
    pub max_attempts: u32,
    /// First backoff; doubles per attempt.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter sequence (deterministic for reproducible runs).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// A fast policy for tests: tight backoffs, small budget.
    pub fn fast(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
            jitter_seed: 0x5EED,
        }
    }

    fn retry_delay(&self, attempt: u32, jitter_state: &mut u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16))
            .min(self.max_backoff);
        *jitter_state = splitmix64(*jitter_state);
        let base_ms = self.base_backoff.as_millis().max(1) as u64;
        exp + Duration::from_millis(*jitter_state % base_ms)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Link lifecycle transitions, surfaced to an observer callback (the
/// runtime control task) as they happen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkEvent {
    /// The connection dropped; reconnection will be attempted.
    Down,
    /// A connection is established (initial or re-established).
    Up,
    /// The retry budget is exhausted; the link will not recover.
    Dead,
}

/// Shared, lock-free view of a link's health, readable from any thread
/// while the engine runs. Obtain via [`ResilientTransport::monitor`].
#[derive(Debug, Default)]
pub struct LinkMonitor {
    up: AtomicBool,
    dead: AtomicBool,
    connects: AtomicU64,
    disconnects: AtomicU64,
    retransmitted: AtomicU64,
    duplicates_dropped: AtomicU64,
    delivered: AtomicU64,
    acked: AtomicU64,
}

impl LinkMonitor {
    /// Snapshot the counters.
    pub fn health(&self) -> LinkHealth {
        LinkHealth {
            up: self.up.load(Ordering::Relaxed),
            dead: self.dead.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            retransmitted: self.retransmitted.load(Ordering::Relaxed),
            duplicates_dropped: self.duplicates_dropped.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            acked: self.acked.load(Ordering::Relaxed),
        }
    }

    /// Whether the link is currently connected.
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }

    /// Whether the retry budget has been exhausted.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of [`LinkMonitor`] counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkHealth {
    /// Connected right now.
    pub up: bool,
    /// Retry budget exhausted; permanently down.
    pub dead: bool,
    /// Successful connection establishments (initial + re-).
    pub connects: u64,
    /// Times the connection dropped.
    pub disconnects: u64,
    /// Frames retransmitted from the window.
    pub retransmitted: u64,
    /// Incoming duplicate frames suppressed.
    pub duplicates_dropped: u64,
    /// Frames delivered to the application, in order, exactly once.
    pub delivered: u64,
    /// Highest cumulative ack received from the peer.
    pub acked: u64,
}

type EventHook = Box<dyn Fn(&LinkEvent) + Send>;

/// Reliable-delivery decorator over reconnectable transports. See the
/// module docs for the protocol.
pub struct ResilientTransport {
    connector: Box<dyn Connector>,
    policy: RetryPolicy,
    jitter_state: u64,
    inner: Option<Box<dyn Transport>>,
    /// Next sequence number to assign to an outbound frame.
    send_next: u64,
    /// Unacknowledged outbound frames, oldest first, kept as their wire
    /// encoding (unenveloped): each frame is encoded exactly once per
    /// link lifetime, and retransmission replays the stored bytes with a
    /// fresh [`Frame::Seq`] header prepended — no re-encoding ever.
    window: VecDeque<(u64, Bytes)>,
    max_window: usize,
    /// Next expected inbound sequence number.
    recv_next: u64,
    /// Failed connection attempts in the current outage (resets on
    /// success); the retry budget compares against this.
    attempts: u32,
    /// The `recv_next` value we last requested a retransmit for, to avoid
    /// a Hello per out-of-order frame.
    gap_signaled: u64,
    /// Frames received ahead of the cursor, held until the gap fills
    /// (selective-repeat reassembly; keeps one loss from forcing the
    /// whole window to be retransmitted and re-received repeatedly).
    ooo: BTreeMap<u64, Frame>,
    /// Consecutive idle service passes that waited, with unacked frames
    /// outstanding; crossing [`STALL_PUMPS`] re-offers the window
    /// unprompted.
    stalled_pumps: u32,
    /// Delivered application frames awaiting `recv`.
    inbox: VecDeque<Frame>,
    monitor: Arc<LinkMonitor>,
    stop: Arc<AtomicBool>,
    on_event: Option<EventHook>,
    label: String,
}

impl ResilientTransport {
    /// Build an engine over `connector`; no connection is attempted until
    /// the first send/recv.
    pub fn new(connector: impl Connector + 'static, policy: RetryPolicy, label: &str) -> Self {
        let jitter_state = policy.jitter_seed;
        ResilientTransport {
            connector: Box::new(connector),
            policy,
            jitter_state,
            inner: None,
            send_next: 1,
            window: VecDeque::new(),
            max_window: DEFAULT_WINDOW,
            recv_next: 1,
            attempts: 0,
            gap_signaled: 0,
            ooo: BTreeMap::new(),
            stalled_pumps: 0,
            inbox: VecDeque::new(),
            monitor: Arc::new(LinkMonitor::default()),
            stop: Arc::new(AtomicBool::new(false)),
            on_event: None,
            label: label.to_string(),
        }
    }

    /// Cap the retransmit window at `frames` (default [`DEFAULT_WINDOW`]).
    pub fn with_window(mut self, frames: usize) -> Self {
        self.max_window = frames.max(1);
        self
    }

    /// Install an observer for [`LinkEvent`] transitions.
    pub fn on_event(mut self, hook: impl Fn(&LinkEvent) + Send + 'static) -> Self {
        self.on_event = Some(Box::new(hook));
        self
    }

    /// The shared health monitor for this link.
    pub fn monitor(&self) -> Arc<LinkMonitor> {
        Arc::clone(&self.monitor)
    }

    /// A flag that makes the engine stop reconnecting and report EOF;
    /// flip it from another thread for prompt shutdown.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Connect now instead of lazily on first use.
    pub fn connect_now(&mut self) -> io::Result<()> {
        self.ensure_connected()
    }

    /// Service the protocol (acks, retransmit requests, inbound frames)
    /// for up to `timeout` without delivering anything; equivalent to
    /// `recv_timeout` with the inbox left untouched. At most one
    /// reconnection attempt is made per tick.
    pub fn tick(&mut self, timeout: Duration) {
        if let Ok(true) = self.connect_step() {
            self.pump(timeout);
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    fn emit(&self, ev: LinkEvent) {
        if let Some(hook) = &self.on_event {
            hook(&ev);
        }
    }

    fn fail_link(&mut self) {
        if self.inner.take().is_some() {
            self.monitor.up.store(false, Ordering::Relaxed);
            self.monitor.disconnects.fetch_add(1, Ordering::Relaxed);
            self.emit(LinkEvent::Down);
        }
    }

    /// One reconnection step under the retry budget.
    ///
    /// * `Ok(true)` — connected (or already was);
    /// * `Ok(false)` — this attempt failed and its backoff has been slept;
    ///   budget remains, call again;
    /// * `Err(_)` — the link is dead (budget exhausted) or stopped.
    ///
    /// One-attempt-per-call matters: a receiver mid-outage must regularly
    /// return control to its caller instead of camping inside a full
    /// budget's worth of blocking connect attempts.
    fn connect_step(&mut self) -> io::Result<bool> {
        if self.stopped() {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "link stopped"));
        }
        if self.monitor.is_dead() {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "link dead"));
        }
        if self.inner.is_some() {
            return Ok(true);
        }
        if self.attempts >= self.policy.max_attempts {
            self.monitor.dead.store(true, Ordering::Relaxed);
            self.monitor.up.store(false, Ordering::Relaxed);
            self.emit(LinkEvent::Dead);
            return Err(io::Error::new(io::ErrorKind::TimedOut, "reconnect budget exhausted"));
        }
        self.attempts += 1;
        if let Ok(mut t) = self.connector.connect() {
            // Announce what we have; the peer retransmits from here. A
            // failed hello counts as a failed attempt.
            if t.send(&Frame::Hello { next: self.recv_next }).is_ok() {
                self.inner = Some(t);
                self.attempts = 0;
                self.monitor.up.store(true, Ordering::Relaxed);
                self.monitor.connects.fetch_add(1, Ordering::Relaxed);
                self.emit(LinkEvent::Up);
                return Ok(true);
            }
        }
        if !self.stopped() {
            let d = self.policy.retry_delay(self.attempts, &mut self.jitter_state);
            std::thread::sleep(d);
        }
        Ok(false)
    }

    /// Block (re)connecting until up, dead, or stopped — the sender-side
    /// contract: a send either enters a live window or fails for good.
    fn ensure_connected(&mut self) -> io::Result<()> {
        while !self.connect_step()? {}
        Ok(())
    }

    fn wire_send(&mut self, frame: &Frame) -> io::Result<()> {
        match self.inner.as_mut() {
            Some(t) => {
                if let Err(e) = t.send(frame) {
                    self.fail_link();
                    return Err(e);
                }
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "not connected")),
        }
    }

    fn wire_send_encoded(&mut self, bytes: &Bytes) -> io::Result<()> {
        match self.inner.as_mut() {
            Some(t) => {
                if let Err(e) = t.send_encoded(bytes) {
                    self.fail_link();
                    return Err(e);
                }
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotConnected, "not connected")),
        }
    }

    fn deliver(&mut self, frame: Frame) {
        self.recv_next += 1;
        self.monitor.delivered.fetch_add(1, Ordering::Relaxed);
        self.inbox.push_back(frame);
    }

    /// Process one inbound protocol frame.
    fn on_frame(&mut self, frame: Frame) {
        match frame {
            Frame::Seq { seq, inner } => {
                if seq == self.recv_next {
                    self.deliver(*inner);
                    // Drain whatever the gap was holding back.
                    while let Some(f) = self.ooo.remove(&self.recv_next) {
                        self.deliver(f);
                    }
                    self.gap_signaled = 0;
                    let ack = Frame::Ack { cum: self.recv_next - 1 };
                    let _ = self.wire_send(&ack);
                } else if seq < self.recv_next {
                    // Duplicate (retransmit overlap or injected dup):
                    // suppress, but re-ack so the sender can prune.
                    self.monitor.duplicates_dropped.fetch_add(1, Ordering::Relaxed);
                    let ack = Frame::Ack { cum: self.recv_next - 1 };
                    let _ = self.wire_send(&ack);
                } else {
                    // Ahead of the cursor: something before `seq` was lost
                    // in flight. Hold the frame for reassembly and ask for
                    // a retransmit (once per cursor position).
                    if self.ooo.contains_key(&seq) {
                        self.monitor.duplicates_dropped.fetch_add(1, Ordering::Relaxed);
                    } else if self.ooo.len() < MAX_OOO {
                        self.ooo.insert(seq, *inner);
                    }
                    if self.gap_signaled != self.recv_next {
                        self.gap_signaled = self.recv_next;
                        let hello = Frame::Hello { next: self.recv_next };
                        let _ = self.wire_send(&hello);
                    }
                }
            }
            Frame::Ack { cum } => {
                while self.window.front().is_some_and(|(s, _)| *s <= cum) {
                    self.window.pop_front();
                }
                self.monitor.acked.fetch_max(cum, Ordering::Relaxed);
                self.stalled_pumps = 0;
            }
            Frame::Hello { next } => {
                // Peer (re)connected or detected a gap: everything below
                // `next` is delivered; retransmit the rest of the window.
                while self.window.front().is_some_and(|(s, _)| *s < next) {
                    self.window.pop_front();
                }
                self.stalled_pumps = 0;
                self.retransmit_window();
            }
            // A non-resilient peer speaking plain frames: pass through
            // (no sequencing, no dedup — legacy interop).
            other => {
                self.inbox.push_back(other);
            }
        }
    }

    /// Re-offer every unacknowledged frame to the wire, replaying the
    /// stored encodings (cheap clones of refcounted byte buffers).
    fn retransmit_window(&mut self) {
        let pending: Vec<(u64, Bytes)> = self.window.iter().cloned().collect();
        let n = pending.len() as u64;
        for (seq, bytes) in pending {
            let env = encode_seq_envelope(seq, &bytes);
            if self.wire_send_encoded(&env).is_err() {
                break;
            }
        }
        self.monitor.retransmitted.fetch_add(n, Ordering::Relaxed);
    }

    /// A service pass that waited ended with nothing inbound while unacked
    /// frames are outstanding. That is normal for a few passes (acks in
    /// flight), but a *persistently* silent peer means both our
    /// retransmissions and the peer's gap signal were lost without a
    /// disconnect to force a fresh Hello handshake — a lossy-but-connected
    /// link. Re-offer the window unprompted after [`STALL_PUMPS`]
    /// consecutive such passes.
    fn note_idle(&mut self) {
        if self.window.is_empty() {
            self.stalled_pumps = 0;
            return;
        }
        self.stalled_pumps += 1;
        if self.stalled_pumps >= STALL_PUMPS {
            self.stalled_pumps = 0;
            self.retransmit_window();
        }
    }

    /// One bounded service pass: wait up to `timeout` for a frame, then
    /// drain whatever else is immediately available (bounded).
    ///
    /// Only a pass that waited counts towards stall recovery: a zero-wait
    /// pass (the one every `send` ends with) cannot tell a silent peer from
    /// an ack still in flight, and counting it would re-offer the window
    /// every [`STALL_PUMPS`] back-to-back sends.
    fn pump(&mut self, timeout: Duration) {
        let mut wait = timeout;
        for _ in 0..256 {
            let polled = match self.inner.as_mut() {
                Some(t) => t.recv_timeout(wait),
                None => return,
            };
            match polled {
                Ok(Polled::Frame(f)) => {
                    self.on_frame(f);
                    wait = Duration::ZERO;
                }
                Ok(Polled::Idle) => {
                    if !timeout.is_zero() {
                        self.note_idle();
                    }
                    return;
                }
                Ok(Polled::Eof) | Err(_) => {
                    // EOF, injected corruption, or transport error: the
                    // connection is unusable; reconnect on next use.
                    self.fail_link();
                    return;
                }
            }
        }
    }
}

impl Transport for ResilientTransport {
    fn send(&mut self, frame: &Frame) -> io::Result<()> {
        self.send_encoded(&encode_frame(frame))
    }

    fn send_encoded(&mut self, bytes: &Bytes) -> io::Result<()> {
        self.ensure_connected()?;
        // Backpressure: a full window means the peer isn't acking. Give
        // the protocol a bounded chance to drain before refusing.
        let mut spins = 0;
        while self.window.len() >= self.max_window {
            self.pump(Duration::from_millis(5));
            self.ensure_connected()?;
            spins += 1;
            if spins > 400 {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "retransmit window full (peer not acking)",
                ));
            }
        }
        let seq = self.send_next;
        self.send_next += 1;
        self.window.push_back((seq, bytes.clone()));
        let env = encode_seq_envelope(seq, bytes);
        if self.wire_send_encoded(&env).is_err() {
            // The frame is safely windowed; reconnect (or die trying) and
            // let the Hello exchange trigger its retransmission.
            self.ensure_connected()?;
        }
        // Opportunistically service acks so the window stays pruned.
        self.pump(Duration::ZERO);
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Option<Frame>> {
        loop {
            if let Some(f) = self.inbox.pop_front() {
                return Ok(Some(f));
            }
            // A dead or stopped link is a clean EOF to the caller: the
            // escalation already happened via LinkEvent::Dead.
            match self.connect_step() {
                Err(_) => return Ok(None),
                Ok(true) => self.pump(RECV_POLL),
                Ok(false) => {} // backoff already slept; retry
            }
        }
    }

    /// Keeps the trait's contract while connected; a link that is down
    /// first makes one reconnection attempt, which may sleep its backoff.
    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Polled> {
        if let Some(f) = self.inbox.pop_front() {
            return Ok(Polled::Frame(f));
        }
        match self.connect_step() {
            Err(_) => return Ok(Polled::Eof),
            Ok(true) => self.pump(timeout),
            Ok(false) => return Ok(Polled::Idle),
        }
        match self.inbox.pop_front() {
            Some(f) => Ok(Polled::Frame(f)),
            None => Ok(Polled::Idle),
        }
    }

    fn label(&self) -> String {
        match &self.inner {
            Some(t) => format!("resilient:{}", t.label()),
            None => format!("resilient:{}(disconnected)", self.label),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultyTransport};
    use crate::transport::{inproc_rendezvous, InProcListener};
    use mirror_core::event::{Event, FlightStatus};

    fn ev(seq: u64) -> Frame {
        Frame::Data(Arc::new(Event::delta_status(seq, 7, FlightStatus::Boarding)))
    }

    fn listener_connector(mut l: InProcListener) -> impl Connector {
        // Short accept timeout: in single-threaded tests the dialer only
        // gets to redial between our attempts, so each attempt must yield
        // quickly.
        move || l.accept(Duration::from_millis(10)).map(|t| Box::new(t) as Box<dyn Transport>)
    }

    /// Drive `n` events from a dialer-side engine (through `plan`'s faults)
    /// to a listener-side engine, single-threaded, until all arrive or the
    /// deadline passes. Returns received frames.
    fn run_link(plan: FaultPlan, n: u64) -> (Vec<Frame>, LinkHealth, LinkHealth) {
        let (mut dialer, listener) = inproc_rendezvous("link");
        let state = plan.state();
        let fault_state = Arc::clone(&state);
        let sender_conn = move || {
            let raw = dialer.dial()?;
            Ok(Box::new(FaultyTransport::with_state(raw, Arc::clone(&fault_state)))
                as Box<dyn Transport>)
        };
        let mut tx = ResilientTransport::new(sender_conn, RetryPolicy::fast(10), "tx");
        let mut rx = ResilientTransport::new(
            listener_connector(listener),
            RetryPolicy::fast(1_000_000),
            "rx",
        );

        let mut got = Vec::new();
        let mut sent = 0u64;
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while got.len() < n as usize && std::time::Instant::now() < deadline {
            if sent < n {
                sent += 1;
                tx.send(&ev(sent)).unwrap();
            } else {
                tx.tick(Duration::from_millis(1));
            }
            while let Ok(Polled::Frame(f)) = rx.recv_timeout(Duration::from_millis(1)) {
                got.push(f);
            }
        }
        (got, tx.monitor().health(), rx.monitor().health())
    }

    #[test]
    fn clean_link_delivers_in_order() {
        let (got, tx_h, _) = run_link(FaultPlan::new(1), 200);
        assert_eq!(got.len(), 200);
        for (i, f) in got.iter().enumerate() {
            assert_eq!(*f, ev(i as u64 + 1));
        }
        assert_eq!(tx_h.connects, 1);
        assert_eq!(tx_h.disconnects, 0);
    }

    #[test]
    fn chaos_link_still_delivers_exactly_once_in_order() {
        let (got, tx_h, rx_h) = run_link(FaultPlan::chaos(42), 500);
        assert_eq!(got.len(), 500, "tx={tx_h:?} rx={rx_h:?}");
        for (i, f) in got.iter().enumerate() {
            assert_eq!(*f, ev(i as u64 + 1), "order violated at {i}");
        }
        assert!(tx_h.connects > 1, "should have reconnected: {tx_h:?}");
        assert!(tx_h.retransmitted > 0, "should have retransmitted: {tx_h:?}");
        assert_eq!(rx_h.delivered, 500);
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let (_, a_tx, a_rx) = run_link(FaultPlan::chaos(7), 300);
        let (_, b_tx, b_rx) = run_link(FaultPlan::chaos(7), 300);
        // Timing-free counters must match exactly run to run.
        assert_eq!(a_rx.delivered, b_rx.delivered);
        assert_eq!(a_tx.connects, b_tx.connects);
    }

    #[test]
    fn duplicates_are_suppressed() {
        let (got, _, rx_h) = run_link(FaultPlan::new(3).dups(400), 300);
        assert_eq!(got.len(), 300);
        assert!(rx_h.duplicates_dropped > 0, "dups should be seen and dropped: {rx_h:?}");
    }

    #[test]
    fn dead_connector_exhausts_budget_and_reports_dead() {
        let mut events: Vec<LinkEvent> = Vec::new();
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let conn =
            || Err::<Box<dyn Transport>, _>(io::Error::new(io::ErrorKind::ConnectionRefused, "no"));
        let mut t = ResilientTransport::new(conn, RetryPolicy::fast(3), "doomed")
            .on_event(move |e| log2.lock().unwrap().push(e.clone()));
        let err = t.send(&ev(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(t.monitor().is_dead());
        assert_eq!(t.recv().unwrap(), None, "dead link is clean EOF");
        events.extend(log.lock().unwrap().drain(..));
        assert_eq!(events, vec![LinkEvent::Dead]);
    }

    #[test]
    fn stop_handle_halts_reconnection() {
        let (mut dialer, listener) = inproc_rendezvous("stop");
        drop(listener); // dialing will fail forever
        let conn = move || dialer.dial().map(|t| Box::new(t) as Box<dyn Transport>);
        let mut t = ResilientTransport::new(conn, RetryPolicy::fast(1_000_000), "stopped");
        t.stop_handle().store(true, Ordering::Relaxed);
        assert_eq!(t.recv().unwrap(), None);
    }

    #[test]
    fn plain_peer_frames_pass_through() {
        // A resilient endpoint facing a legacy (non-resilient) peer still
        // delivers the peer's plain frames.
        let (mut dialer, mut listener) = inproc_rendezvous("legacy");
        let conn = move || dialer.dial().map(|t| Box::new(t) as Box<dyn Transport>);
        let mut t = ResilientTransport::new(conn, RetryPolicy::fast(3), "legacy");
        t.connect_now().unwrap();
        let mut peer = listener.accept(Duration::from_secs(1)).unwrap();
        // Drain the hello, then speak plain frames.
        assert!(matches!(peer.recv().unwrap(), Some(Frame::Hello { next: 1 })));
        peer.send(&ev(9)).unwrap();
        assert_eq!(t.recv().unwrap(), Some(ev(9)));
    }
}
