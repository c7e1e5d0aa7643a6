//! Bridging a mirror site into another process.
//!
//! The in-process cluster exchanges events over `mirror-echo` channels; a
//! *bridge* pumps those channels over a pair of [`Transport`]s (typically
//! TCP) so a mirror site can run in a different process or on a different
//! machine — the deployment the paper actually targets. Each direction
//! uses its own transport connection, so every connection is driven by
//! exactly one writer and one reader thread:
//!
//! * **downlink** (central → mirror): mirrored data events + CHKPT/COMMIT
//!   control broadcasts;
//! * **uplink** (mirror → central): CHKPT_REP replies.
//!
//! # Data path: encode once, batch, one syscall per burst
//!
//! The downlink writer is the hot edge of the whole system, so it runs the
//! zero-copy fan-out discipline end-to-end:
//!
//! * the data channel carries `Arc<Event>`s — a publish clones one `Arc`
//!   per subscriber, never the event payload;
//! * each writer encodes a frame on its own thread, where the bytes are
//!   written, so publishers and in-process consumers never pay for it;
//! * frames are packed into a [`Frame::Batch`] under a [`BatchPolicy`]
//!   (max-events / max-bytes / max-delay) built from the already-encoded
//!   member buffers ([`encode_batch_from_encoded`] — no re-encoding), and
//!   handed to [`Transport::send_encoded`], so a burst of *N* events costs
//!   one length-prefixed transport frame and (over TCP) one vectored
//!   syscall instead of *N*.
//!
//! Batches compose with the resilient layer: a
//! [`ResilientTransport`](mirror_echo::ResilientTransport) wraps the whole
//! batch in a single `Frame::Seq` envelope (one small header prepended to
//! the shared encoding), one ack covers the batch, and retransmission
//! replays the stored bytes — the batch is the exactly-once unit.
//!
//! An endpoint's subscriptions are sinks that push straight into its
//! writer's unbounded queue on the publisher's thread (see
//! `mirror_echo::channel`), one message at a time; no thread sits in
//! between. The mirror-side reader publishes a received frame's data
//! members as one run (one `publish_all`, flushed before any control
//! member, so data/control order is the frame's), which a mirror site's
//! sink takes into its inbox as one message. Shutdown cascades
//! naturally: once a side's subscriptions are closed
//! ([`BridgeHandle::stop`]) or its publishers drop, the writer's queue
//! disconnects behind what they delivered, the writer sends it and closes
//! its transport, the transport reaches EOF, and the remote side unwinds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, RecvTimeoutError, Sender, TryRecvError};

use mirror_core::event::Event;
use mirror_core::ControlMsg;
use mirror_echo::channel::{Closer, EventChannel, Publisher};
use mirror_echo::wire::{encode_batch_from_encoded, encode_frame, Frame};
use mirror_echo::Transport;

/// The writer's idle tick: how long it waits for traffic before it lets a
/// resilient transport service acks and retransmit requests.
const POLL: Duration = Duration::from_millis(20);

/// Flush policy of the batching bridge writer: how long and how large a
/// [`Frame::Batch`] may grow before it must go to the wire.
///
/// The writer flushes as soon as **any** bound is hit; an isolated frame
/// (nothing else arrives within `max_delay`) is sent bare, so a quiet
/// stream pays no batching latency beyond the linger and a bursty stream
/// amortizes its syscalls. These are deployment knobs in the same spirit
/// as [`mirror_core::params::MirrorParams`] — but where `MirrorParams`
/// tunes *what* is mirrored (coalescing, overwriting, checkpoint cadence)
/// and adapts at runtime, `BatchPolicy` tunes *how* the surviving frames
/// ride the wire and is fixed per bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum member frames per batch. `1` disables batching entirely
    /// (every frame is sent bare — the pre-batching behaviour).
    pub max_events: usize,
    /// Maximum accumulated encoded payload bytes per batch. The writer
    /// stops adding members once the running total reaches this bound, so
    /// a batch never exceeds it by more than one frame. Keep well under
    /// [`mirror_echo::transport::MAX_FRAME`].
    pub max_bytes: usize,
    /// How long the writer lingers for further traffic after the first
    /// frame of a batch arrives before flushing what it has.
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        // 64 × 8 KiB events still sits far below MAX_FRAME; half a
        // millisecond of linger is invisible next to checkpoint cadence
        // but spans a burst at any realistic source rate.
        BatchPolicy { max_events: 64, max_bytes: 512 * 1024, max_delay: Duration::from_micros(500) }
    }
}

impl BatchPolicy {
    /// One frame per transport send — the pre-batching data path, kept
    /// for comparison benchmarks and latency-critical deployments.
    pub fn unbatched() -> Self {
        BatchPolicy { max_events: 1, max_bytes: usize::MAX, max_delay: Duration::ZERO }
    }
}

/// Handle holding a bridge's threads; joining waits for the cascade to
/// finish.
///
/// A bridge's reader thread blocks in `Transport::recv` until the *remote*
/// endpoint's writer closes its transport, which happens when the remote
/// endpoint is stopped. Therefore: **call [`BridgeHandle::stop`] on both
/// endpoints (in any order) before calling [`BridgeHandle::join`] on
/// either** — stop is non-blocking, join then completes on both sides.
pub struct BridgeHandle {
    /// Close handles of the sinks feeding this endpoint's writer.
    closers: Vec<Closer>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl BridgeHandle {
    /// Close the endpoint's subscriptions: the writer sends everything
    /// already published to them and closes its transport. Non-blocking
    /// and idempotent.
    pub fn stop(&self) {
        for closer in &self.closers {
            closer.close();
        }
    }

    /// Stop and join all bridge threads.
    pub fn join(mut self) {
        self.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// A frame queued for a bridge writer, kept in its channel form so the
/// writer thread encodes it.
enum OutMsg {
    Data(Arc<Event>),
    Ctrl(ControlMsg),
}

impl OutMsg {
    /// The wire encoding of this message's frame.
    fn encoded(self) -> Bytes {
        encode_frame(&match self {
            OutMsg::Data(e) => Frame::Data(e),
            OutMsg::Ctrl(m) => Frame::Control(m),
        })
    }
}

/// Subscribe a sink to `channel` that wraps each message of a published
/// run and pushes it into a writer's queue, one message at a time, until
/// the returned handle closes it or the channel's publishers are gone.
fn forward<T: Clone + Send + 'static>(
    channel: &EventChannel<T>,
    tx: Sender<OutMsg>,
    wrap: fn(T) -> OutMsg,
) -> Closer {
    channel.subscribe_with(move |run: &[T]| run.iter().all(|m| tx.send(wrap(m.clone())).is_ok()))
}

/// Start a named bridge thread.
fn spawn(name: &str, f: impl FnOnce() + Send + 'static) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new().name(name.into()).spawn(f).expect("spawn bridge thread")
}

/// The batching writer: drain the writer channel greedily under the flush
/// policy, pack bursts into one [`Frame::Batch`] built from the members'
/// encodings, and move it to the wire with a single
/// [`Transport::send_encoded`].
fn writer(
    name: &str,
    mut transport: Box<dyn Transport>,
    rx: channel::Receiver<OutMsg>,
    policy: BatchPolicy,
) -> std::thread::JoinHandle<()> {
    spawn(name, move || {
        let mut parts: Vec<Bytes> = Vec::with_capacity(policy.max_events.min(1024));
        'outer: loop {
            let first = match rx.recv_timeout(POLL) {
                Ok(m) => m,
                Err(RecvTimeoutError::Timeout) => {
                    // Idle tick: a resilient transport services its acks
                    // and retransmit requests here when no app traffic
                    // flows. The writer direction carries no inbound
                    // application frames, so anything surfaced is
                    // discarded.
                    let _ = transport.recv_timeout(Duration::from_millis(1));
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            };
            parts.clear();
            let mut total = 0usize;
            let enc = first.encoded();
            total += enc.len();
            parts.push(enc);
            // Linger up to max_delay for companions, but never past the
            // size bounds: flush on whichever limit is hit first.
            let deadline = Instant::now() + policy.max_delay;
            while parts.len() < policy.max_events && total < policy.max_bytes {
                let next = match rx.try_recv() {
                    Ok(m) => Some(m),
                    Err(TryRecvError::Empty) => {
                        let now = Instant::now();
                        if now >= deadline {
                            None
                        } else {
                            rx.recv_timeout(deadline - now).ok()
                        }
                    }
                    Err(TryRecvError::Disconnected) => None,
                };
                match next {
                    Some(m) => {
                        let enc = m.encoded();
                        total += enc.len();
                        parts.push(enc);
                    }
                    None => break,
                }
            }
            let sent = if parts.len() == 1 {
                // An isolated frame travels bare: no batch framing cost,
                // and plain (non-batch-aware) peers keep working.
                transport.send_encoded(&parts[0])
            } else {
                transport.send_encoded(&encode_batch_from_encoded(&parts))
            };
            if sent.is_err() {
                break 'outer;
            }
        }
    })
}

/// Strip reliability envelopes and fan out application frames: a
/// [`Frame::Seq`] yields its payload, a [`Frame::Batch`] yields each
/// member in order, protocol-only frames (acks, hellos) yield nothing.
/// Bridges normally run over [`mirror_echo::ResilientTransport`], which
/// consumes protocol frames internally — this guard keeps a mixed
/// (resilient-to-plain) deployment from misrouting them into application
/// channels.
fn for_each_app_frame(frame: Frame, sink: &mut impl FnMut(Frame)) {
    match frame {
        Frame::Seq { inner, .. } => for_each_app_frame(*inner, sink),
        Frame::Batch(members) => {
            for m in members {
                // Members are Data/Control by wire-format construction;
                // recursing keeps that invariant even for hand-built
                // frames.
                for_each_app_frame(m, sink);
            }
        }
        Frame::Ack { .. } | Frame::Hello { .. } => {}
        f => sink(f),
    }
}

/// Central-side endpoint: ship the cluster's data + control downlinks to a
/// remote mirror and feed its replies back into the control uplink.
///
/// Uses the default [`BatchPolicy`]; see [`central_endpoint_with`] to tune
/// or disable batching.
pub fn central_endpoint(
    data: &EventChannel<Arc<Event>>,
    ctrl_down: &EventChannel<ControlMsg>,
    ctrl_up_pub: Publisher<ControlMsg>,
    down: Box<dyn Transport>,
    up: Box<dyn Transport>,
) -> BridgeHandle {
    central_endpoint_with(data, ctrl_down, ctrl_up_pub, down, up, BatchPolicy::default())
}

/// [`central_endpoint`] with an explicit downlink flush policy.
pub fn central_endpoint_with(
    data: &EventChannel<Arc<Event>>,
    ctrl_down: &EventChannel<ControlMsg>,
    ctrl_up_pub: Publisher<ControlMsg>,
    down: Box<dyn Transport>,
    mut up: Box<dyn Transport>,
    policy: BatchPolicy,
) -> BridgeHandle {
    let (tx, rx) = channel::unbounded::<OutMsg>();
    let closers =
        vec![forward(data, tx.clone(), OutMsg::Data), forward(ctrl_down, tx, OutMsg::Ctrl)];
    let mut threads = vec![writer("bridge-dn-w", down, rx, policy)];
    threads.push(spawn("bridge-up-r", move || {
        while let Ok(Some(frame)) = up.recv() {
            for_each_app_frame(frame, &mut |f| {
                if let Frame::Control(m) = f {
                    ctrl_up_pub.publish(m);
                }
            });
        }
    }));
    BridgeHandle { closers, threads }
}

/// Mirror-side endpoint: materialize local data/control-down channels from
/// the downlink transport and ship the local control-uplink over the
/// uplink transport.
///
/// `setup` runs with the three channels (data, control-down, control-up)
/// **before** the downlink reader starts, so its subscriptions — typically
/// a [`crate::site::MirrorSite`] — cannot miss early frames (a channel
/// subscriber only sees messages published after it subscribes).
pub fn mirror_endpoint<R>(
    down: Box<dyn Transport>,
    up: Box<dyn Transport>,
    setup: impl FnOnce(
        &EventChannel<Arc<Event>>,
        &EventChannel<ControlMsg>,
        &EventChannel<ControlMsg>,
    ) -> R,
) -> (R, BridgeHandle) {
    mirror_endpoint_with(down, up, BatchPolicy::default(), setup)
}

/// [`mirror_endpoint`] with an explicit uplink flush policy.
pub fn mirror_endpoint_with<R>(
    mut down: Box<dyn Transport>,
    up: Box<dyn Transport>,
    policy: BatchPolicy,
    setup: impl FnOnce(
        &EventChannel<Arc<Event>>,
        &EventChannel<ControlMsg>,
        &EventChannel<ControlMsg>,
    ) -> R,
) -> (R, BridgeHandle) {
    let data = EventChannel::new("bridge.data");
    let ctrl_down = EventChannel::new("bridge.ctrl.down");
    let ctrl_up = EventChannel::new("bridge.ctrl.up");

    // Attach consumers before any frame can flow.
    let out = setup(&data, &ctrl_down, &ctrl_up);

    let data_pub = data.publisher();
    let ctrl_down_pub = ctrl_down.publisher();
    let mut threads = vec![spawn("bridge-dn-r", move || {
        // A frame's data members are published as one run, flushed before
        // any control member, so data/control order is the frame's order.
        let mut run: Vec<Arc<Event>> = Vec::new();
        while let Ok(Some(frame)) = down.recv() {
            for_each_app_frame(frame, &mut |f| match f {
                Frame::Data(e) => run.push(e),
                Frame::Control(m) => {
                    data_pub.publish_all(&run);
                    run.clear();
                    ctrl_down_pub.publish(m);
                }
                _ => {}
            });
            data_pub.publish_all(&run);
            run.clear();
        }
    })];
    let (tx, rx) = channel::unbounded::<OutMsg>();
    let up_closer = forward(&ctrl_up, tx, OutMsg::Ctrl);
    threads.push(writer("bridge-up-w", up, rx, policy));

    (out, BridgeHandle { closers: vec![up_closer], threads })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::RuntimeClock;
    use crate::site::MirrorSite;
    use mirror_core::api::{MirrorConfig, MirrorHandle};
    use mirror_core::event::{Event, PositionFix};
    use mirror_echo::transport::InProcTransport;
    use parking_lot::Mutex;
    use std::sync::mpsc;

    fn fix() -> PositionFix {
        PositionFix { lat: 0.0, lon: 0.0, alt_ft: 1.0, speed_kts: 1.0, heading_deg: 0.0 }
    }

    fn run_bridged_roundtrip(policy: BatchPolicy) {
        // "Remote" side channels come from the bridge; local side owns the
        // cluster channels.
        let data = EventChannel::new("t.data");
        let ctrl_down = EventChannel::new("t.ctrl.down");
        let ctrl_up = EventChannel::new("t.ctrl.up");

        let (down_a, down_b) = InProcTransport::pair("down");
        let (up_a, up_b) = InProcTransport::pair("up");

        let central_bridge = central_endpoint_with(
            &data,
            &ctrl_down,
            ctrl_up.publisher(),
            Box::new(down_a),
            Box::new(up_b),
            policy,
        );
        let (mut mirror, mirror_bridge) =
            mirror_endpoint(Box::new(down_b), Box::new(up_a), |data, ctrl_down, ctrl_up| {
                MirrorSite::start(
                    MirrorHandle::new(MirrorConfig::default().build_mirror(1)),
                    RuntimeClock::new(),
                    data,
                    ctrl_down,
                    ctrl_up.publisher(),
                )
            });

        // Publish events + a checkpoint proposal from the "central" side.
        let data_pub = data.publisher();
        let up_sub = ctrl_up.subscribe();
        for seq in 1..=20u64 {
            let mut e = Event::faa_position(seq, 3, fix());
            e.stamp.advance(0, seq);
            data_pub.publish(e.into());
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while mirror.processed() < 20 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(mirror.processed(), 20, "all events must cross the bridge");

        let mut stamp = mirror_core::timestamp::VectorTimestamp::new(1);
        stamp.advance(0, 20);
        ctrl_down.publisher().publish(ControlMsg::Chkpt { round: 1, stamp, epoch: 0, term: 0 });
        let rep = up_sub.recv_timeout(Duration::from_secs(5));
        match rep {
            Some(ControlMsg::ChkptRep { round: 1, site: 1, stamp, .. }) => {
                assert_eq!(stamp.get(0), 20);
            }
            other => panic!("expected a bridged ChkptRep, got {other:?}"),
        }

        // Stop both endpoints before joining either (see BridgeHandle docs).
        central_bridge.stop();
        mirror_bridge.stop();
        mirror.stop();
        central_bridge.join();
        mirror_bridge.join();
    }

    #[test]
    fn bridged_mirror_receives_data_and_replies() {
        run_bridged_roundtrip(BatchPolicy::default());
    }

    #[test]
    fn bridged_mirror_works_unbatched() {
        run_bridged_roundtrip(BatchPolicy::unbatched());
    }

    #[test]
    fn bridged_mirror_works_with_aggressive_batching() {
        // Force nearly everything into batches: tiny byte bound off, long
        // linger, deep batches.
        run_bridged_roundtrip(BatchPolicy {
            max_events: 256,
            max_bytes: 1 << 20,
            max_delay: Duration::from_millis(10),
        });
    }

    /// The writer really does pack bursts into `Frame::Batch` frames and
    /// preserves order through mixed data/control traffic.
    #[test]
    fn writer_packs_bursts_into_batches() {
        let (tx_t, mut rx_t) = InProcTransport::pair("w");
        let (tx, rx) = channel::unbounded::<OutMsg>();
        // Long linger so the whole pre-queued burst lands in one batch.
        let policy = BatchPolicy {
            max_events: 8,
            max_bytes: 1 << 20,
            max_delay: Duration::from_millis(200),
        };
        for seq in 1..=20u64 {
            let e = Event::faa_position(seq, 1, fix());
            tx.send(OutMsg::Data(Arc::new(e))).unwrap();
        }
        drop(tx);
        let w = writer("test-w", Box::new(tx_t), rx, policy);

        let mut seqs = Vec::new();
        let mut batches = 0usize;
        while seqs.len() < 20 {
            match rx_t.recv().unwrap() {
                Some(Frame::Batch(members)) => {
                    assert!(members.len() <= 8, "max_events bound");
                    batches += 1;
                    for m in members {
                        match m {
                            Frame::Data(e) => seqs.push(e.seq),
                            other => panic!("unexpected member {other:?}"),
                        }
                    }
                }
                Some(Frame::Data(e)) => seqs.push(e.seq),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert!(seqs.iter().copied().eq(1..=20), "order preserved: {seqs:?}");
        assert!(batches >= 2, "a 20-event burst with max_events=8 needs ≥3 sends");
        w.join().unwrap();
    }

    /// A sink logging `(tag, run length)` per call into `log`, and
    /// signalling each call on `seen`.
    fn logger<T: 'static>(
        tag: char,
        log: &Arc<Mutex<Vec<(char, usize)>>>,
        seen: &mpsc::Sender<()>,
    ) -> impl FnMut(&[T]) -> bool + Send + 'static {
        let (log, seen) = (Arc::clone(log), seen.clone());
        move |run| {
            log.lock().push((tag, run.len()));
            let _ = seen.send(());
            true
        }
    }

    /// The mirror-side reader publishes a frame's data members as runs,
    /// flushed before each control member: `[D, D, C, D]` arrives in that
    /// order, as a data run of two, the control message, a data run of one.
    #[test]
    fn reader_publishes_data_runs_in_frame_order() {
        let (mut down_tx, down_rx) = InProcTransport::pair("down");
        let (up_tx, _up_rx) = InProcTransport::pair("up");
        let log = Arc::new(Mutex::new(Vec::new()));
        let (seen_tx, seen_rx) = mpsc::channel();
        let (_sinks, bridge) =
            mirror_endpoint(Box::new(down_rx), Box::new(up_tx), |data, ctrl_down, _| {
                [
                    data.subscribe_with(logger('D', &log, &seen_tx)),
                    ctrl_down.subscribe_with(logger('C', &log, &seen_tx)),
                ]
            });
        let data = |seq| Frame::Data(Arc::new(Event::faa_position(seq, 1, fix())));
        let chkpt = ControlMsg::Chkpt {
            round: 1,
            stamp: mirror_core::timestamp::VectorTimestamp::new(1),
            epoch: 0,
            term: 0,
        };
        let batch = Frame::Batch(vec![data(1), data(2), Frame::Control(chkpt), data(3)]);
        down_tx.send(&batch).unwrap();
        for _ in 0..3 {
            seen_rx.recv_timeout(Duration::from_secs(5)).expect("every member is published");
        }
        assert_eq!(*log.lock(), vec![('D', 2), ('C', 1), ('D', 1)]);
        // The reader ends at EOF.
        drop(down_tx);
        bridge.join();
    }

    /// max_bytes flushes a batch before max_events is reached.
    #[test]
    fn writer_respects_byte_bound() {
        let (tx_t, mut rx_t) = InProcTransport::pair("wb");
        let (tx, rx) = channel::unbounded::<OutMsg>();
        let policy = BatchPolicy {
            max_events: 1000,
            // Two 1 KiB events cross this bound, so batches hold ≤2.
            max_bytes: 1500,
            max_delay: Duration::from_millis(200),
        };
        for seq in 1..=6u64 {
            let e = Event::faa_position(seq, 1, fix()).with_total_size(1024);
            tx.send(OutMsg::Data(Arc::new(e))).unwrap();
        }
        drop(tx);
        let w = writer("test-w", Box::new(tx_t), rx, policy);
        let mut got = 0;
        while got < 6 {
            match rx_t.recv().unwrap() {
                Some(Frame::Batch(members)) => {
                    assert!(members.len() <= 2, "byte bound must cap batch size");
                    got += members.len();
                }
                Some(Frame::Data(_)) => got += 1,
                other => panic!("unexpected frame {other:?}"),
            }
        }
        w.join().unwrap();
    }
}
