//! Binary wire format.
//!
//! Every frame is `[u8 version][u8 kind][payload…]`; transports additionally
//! length-prefix frames with a little-endian `u32`. Integers are
//! little-endian throughout. The format is hand-rolled (no reflection, no
//! text) because mirroring throughput is the whole point of the paper: an
//! event's encoded size equals [`Event::wire_size`] exactly, byte for byte.

use std::sync::{Arc, OnceLock};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mirror_core::adapt::MonitorReport;
use mirror_core::control::AdaptDirective;
use mirror_core::event::{Event, EventBody, FlightStatus, PositionFix};
use mirror_core::mirrorfn::MirrorFnKind;
use mirror_core::params::MirrorParams;
use mirror_core::partition::PartitionMap;
use mirror_core::timestamp::VectorTimestamp;
use mirror_core::ControlMsg;
use mirror_ede::{FlightMap, FlightView, Snapshot, StateDelta};

/// Wire-format version byte; bumped on incompatible change.
pub const WIRE_VERSION: u8 = 1;

/// Frame kinds.
const KIND_DATA: u8 = 0;
const KIND_CONTROL: u8 = 1;
const KIND_SEQ: u8 = 2;
const KIND_ACK: u8 = 3;
const KIND_HELLO: u8 = 4;
const KIND_BATCH: u8 = 5;
const KIND_SNAPSHOT: u8 = 6;
const KIND_SUBSCRIBE: u8 = 7;
const KIND_RESUME: u8 = 8;
const KIND_EDGE_EVENT: u8 = 9;
const KIND_RESEED: u8 = 10;
const KIND_DELTA: u8 = 11;
const KIND_DELTA_SNAPSHOT: u8 = 12;

/// Decoding/encoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame shorter than its headers claim.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown frame kind / body tag / enum discriminant.
    BadTag(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
        }
    }
}

impl std::error::Error for WireError {}

/// What subset of the flight map a subscriber wants pushed to it.
///
/// Carried on [`Frame::Subscribe`]; the edge tier uses it as first-class
/// routing state (the Gryphon information-flow view): an event for flight
/// `f` is delivered only to connections whose filter
/// [`matches`](Self::matches) `f`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubscriptionFilter {
    /// Deliver every flight's updates (the airport-lobby display).
    All,
    /// Deliver only the listed flight ids (a gate display).
    Flights(Vec<mirror_core::event::FlightId>),
}

impl SubscriptionFilter {
    /// Does this filter select events for `flight`?
    pub fn matches(&self, flight: mirror_core::event::FlightId) -> bool {
        match self {
            SubscriptionFilter::All => true,
            SubscriptionFilter::Flights(ids) => ids.contains(&flight),
        }
    }
}

/// A decoded frame: an application event, a control message, or one of the
/// reliability envelopes spoken by
/// [`ResilientTransport`](crate::resilient::ResilientTransport).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Application data event. Shared (`Arc`) so a frame clone — e.g. into
    /// a retransmission window or across a fan-out of mirror links — bumps
    /// a reference count instead of deep-copying the event.
    Data(Arc<Event>),
    /// Checkpoint/adaptation control message.
    Control(ControlMsg),
    /// A sequence-numbered envelope around another frame. Sequence numbers
    /// start at 1 and increase by one per envelope on a given link
    /// direction; nesting an envelope inside an envelope is rejected.
    Seq {
        /// Per-link, per-direction sequence number (first frame is 1).
        seq: u64,
        /// The application frame being carried.
        inner: Box<Frame>,
    },
    /// Cumulative acknowledgment: every envelope with `seq <= cum` has been
    /// delivered to the receiving application.
    Ack {
        /// Highest contiguously delivered sequence number.
        cum: u64,
    },
    /// Sent by each side after (re)connecting: the next sequence number the
    /// sender expects to receive. The peer retransmits its unacknowledged
    /// window from that point.
    Hello {
        /// Next expected incoming sequence number.
        next: u64,
    },
    /// A batch of application frames transmitted as one unit: a burst of N
    /// events costs one length-prefixed transport frame (and, over TCP, one
    /// syscall) instead of N. Only [`Frame::Data`] and [`Frame::Control`]
    /// may appear inside; a batch may itself be wrapped in a single
    /// [`Frame::Seq`] envelope, in which case one ack covers the whole
    /// batch and the resilient layer's exactly-once ordering applies to the
    /// batch as a unit.
    Batch(Vec<Frame>),
    /// Edge-tier subscription request: the first frame a subscriber sends
    /// after connecting. `client` identifies the subscriber across
    /// reconnects (the edge keys its resume directory on it).
    Subscribe {
        /// Stable subscriber identity, chosen by the client.
        client: u64,
        /// Which flights to push.
        filter: SubscriptionFilter,
    },
    /// Edge-tier reconnection: resume delivery for a previously subscribed
    /// client from its last acknowledged publication sequence. The edge
    /// replays matching retained events after `last_seq`, or reseeds from a
    /// snapshot ([`Frame::Reseed`]) when `last_seq` has fallen out of the
    /// retained window.
    Resume {
        /// Stable subscriber identity from the original subscribe.
        client: u64,
        /// Highest publication sequence the client has durably consumed
        /// (0 = nothing yet).
        last_seq: u64,
    },
    /// Edge-tier delivery: one applied event stamped with the edge's global
    /// publication sequence. `pub_seq` is identical for every subscriber —
    /// that is what lets one encoding be shared across 100k write queues —
    /// so a conflating edge produces per-client *gaps* in `pub_seq`, never
    /// per-client renumbering. The payload embeds the event's
    /// [`Frame::Data`] encoding verbatim (see [`encode_edge_event`]).
    EdgeEvent {
        /// Global publication sequence (first published event is 1).
        pub_seq: u64,
        /// The applied event.
        event: Arc<Event>,
    },
    /// Edge-tier reseed: a full snapshot replacing the client's state when
    /// its resume point predates the retained window. The payload embeds an
    /// [`encode_snapshot`] frame verbatim and is kept as opaque bytes here
    /// so the cached encoding is forwarded zero-copy; clients decode it
    /// with [`decode_snapshot`]. Delivery continues after `pub_seq`.
    Reseed {
        /// Publication frontier the snapshot reflects: every event with
        /// `pub_seq <=` this value is folded into the snapshot.
        pub_seq: u64,
        /// Encoded snapshot ([`encode_snapshot`] output).
        snapshot: Bytes,
    },
    /// Delta reseed: the cheap sibling of [`Frame::Reseed`] for a client
    /// whose held state already covers the delta's base frontier — only the
    /// flights changed (and removed) since the base travel. The payload
    /// embeds an [`encode_delta`] frame verbatim, kept as opaque bytes so a
    /// cached encoding forwards zero-copy; clients decode it with
    /// [`decode_delta`]. Delivery continues after `pub_seq`.
    DeltaSnapshot {
        /// Publication frontier the delta reflects: every event with
        /// `pub_seq <=` this value is folded into the delta's `as_of` state.
        pub_seq: u64,
        /// Encoded delta ([`encode_delta`] output).
        delta: Bytes,
    },
}

/// Encode a frame (version + kind + payload) into a fresh buffer.
pub fn encode_frame(frame: &Frame) -> Bytes {
    let mut buf = BytesMut::with_capacity(frame_size_hint(frame));
    encode_frame_into(frame, &mut buf);
    buf.freeze()
}

/// Capacity to reserve before encoding `frame`, so the hot encode paths
/// (notably ~1 KiB padded data events) fill one right-sized allocation
/// instead of growing a small buffer through a realloc-and-copy chain.
/// Exact for data/seq/ack/hello frames ([`Event::wire_size`] is exact);
/// a floor for control and batch frames, which are off the hot path.
fn frame_size_hint(frame: &Frame) -> usize {
    2 + match frame {
        Frame::Data(e) => e.wire_size(),
        Frame::Seq { seq: _, inner } => 8 + frame_size_hint(inner),
        Frame::Ack { .. } | Frame::Hello { .. } => 8,
        Frame::Control(_) | Frame::Batch(_) => 62,
        Frame::Subscribe { filter, .. } => match filter {
            SubscriptionFilter::All => 9,
            SubscriptionFilter::Flights(ids) => 13 + ids.len() * 4,
        },
        Frame::Resume { .. } => 16,
        Frame::EdgeEvent { event, .. } => 8 + 2 + event.wire_size(),
        Frame::Reseed { snapshot, .. } => 8 + 4 + snapshot.len(),
        Frame::DeltaSnapshot { delta, .. } => 8 + 4 + delta.len(),
    }
}

/// Encode a frame once into a shareable buffer.
///
/// The returned [`Bytes`] is the encode-once handle of the zero-copy send
/// path: cloning it is a reference-count bump, so one encoding can be
/// handed to every outgoing mirror channel (and retained in a
/// retransmission window) without re-encoding or copying. Transports accept
/// it directly via [`crate::Transport::send_encoded`].
///
/// The byte layout is identical to [`encode_frame`].
pub fn encode_frame_shared(frame: &Frame) -> Bytes {
    encode_frame(frame)
}

/// Build the encoded form of `Frame::Seq { seq, inner }` by prepending the
/// envelope header to the inner frame's existing encoding.
///
/// A Seq envelope embeds its inner frame's encoding verbatim as a suffix,
/// so a sender that already holds `encode_frame(inner)` (e.g. from the
/// encode-once fan-out) can build the envelope with one small copy of the
/// 10-byte header instead of re-encoding the payload.
pub fn encode_seq_envelope(seq: u64, inner_encoded: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(10 + inner_encoded.len());
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(KIND_SEQ);
    buf.put_u64_le(seq);
    buf.put_slice(inner_encoded);
    buf.freeze()
}

/// Build the encoded form of `Frame::EdgeEvent { pub_seq, event }` by
/// prepending the publication-sequence header to the event's existing
/// [`Frame::Data`] encoding.
///
/// This is the edge tier's encode-once delivery path: the mirror's applied
/// event is encoded exactly once (the [`SharedEvent::encoded`] cache or a
/// single `encode_frame`), and every subscribed connection's write queue
/// holds the same `Bytes` — building the delivery frame costs one 10-byte
/// header copy, regardless of fan-out width.
pub fn encode_edge_event(pub_seq: u64, data_encoded: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(10 + data_encoded.len());
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(KIND_EDGE_EVENT);
    buf.put_u64_le(pub_seq);
    buf.put_slice(data_encoded);
    buf.freeze()
}

/// Build the encoded form of `Frame::Reseed { pub_seq, snapshot }` from an
/// already-encoded snapshot ([`encode_snapshot`] output — e.g. the §13
/// cache's shared encoding), copied once behind the 14-byte header.
pub fn encode_reseed(pub_seq: u64, snapshot_wire: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(14 + snapshot_wire.len());
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(KIND_RESEED);
    buf.put_u64_le(pub_seq);
    buf.put_u32_le(snapshot_wire.len() as u32);
    buf.put_slice(snapshot_wire);
    buf.freeze()
}

/// Build the encoded form of `Frame::DeltaSnapshot { pub_seq, delta }` from
/// an already-encoded delta ([`encode_delta`] output — e.g. the StateSync
/// cache's shared encoding), copied once behind the 14-byte header.
pub fn encode_delta_reseed(pub_seq: u64, delta_wire: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(14 + delta_wire.len());
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(KIND_DELTA_SNAPSHOT);
    buf.put_u64_le(pub_seq);
    buf.put_u32_le(delta_wire.len() as u32);
    buf.put_slice(delta_wire);
    buf.freeze()
}

/// Build the encoded form of `Frame::Batch` from already-encoded member
/// frames, without re-encoding any of them.
///
/// This is the hot path of the batching bridge writer: each member is the
/// cached [`SharedEvent::encoded`] (or any `encode_frame` output), and the
/// batch frame is their concatenation behind a count header.
pub fn encode_batch_from_encoded(parts: &[Bytes]) -> Bytes {
    let total: usize = parts.iter().map(|p| 4 + p.len()).sum();
    let mut buf = BytesMut::with_capacity(2 + 4 + total);
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(KIND_BATCH);
    buf.put_u32_le(parts.len() as u32);
    for p in parts {
        buf.put_u32_le(p.len() as u32);
        buf.put_slice(p);
    }
    buf.freeze()
}

/// An event paired with a lazily computed, shared wire encoding.
///
/// This is the unit that flows through the runtime's data channels: cloning
/// it (once per subscriber per publish) costs two reference-count bumps.
/// The first caller of [`encoded`](Self::encoded) pays the encoding cost;
/// every other bridge/link reuses the same buffer — encode once, send
/// everywhere. In-process consumers touch only [`event`](Self::event) and
/// never pay for an encoding at all.
#[derive(Clone, Debug)]
pub struct SharedEvent {
    event: Arc<Event>,
    encoded: Arc<OnceLock<Bytes>>,
}

impl SharedEvent {
    /// Wrap an event for shared fan-out.
    pub fn new(event: Arc<Event>) -> Self {
        SharedEvent { event, encoded: Arc::new(OnceLock::new()) }
    }

    /// The event itself.
    pub fn event(&self) -> &Arc<Event> {
        &self.event
    }

    /// Unwrap into the shared event, dropping the encoding cache handle.
    pub fn into_event(self) -> Arc<Event> {
        self.event
    }

    /// The event's wire encoding as a [`Frame::Data`] frame, computed once
    /// across all clones of this `SharedEvent` and shared thereafter.
    pub fn encoded(&self) -> Bytes {
        self.encoded
            .get_or_init(|| encode_frame_shared(&Frame::Data(Arc::clone(&self.event))))
            .clone()
    }
}

impl From<Event> for SharedEvent {
    fn from(e: Event) -> Self {
        SharedEvent::new(Arc::new(e))
    }
}

impl From<Arc<Event>> for SharedEvent {
    fn from(e: Arc<Event>) -> Self {
        SharedEvent::new(e)
    }
}

impl PartialEq for SharedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.event == other.event
    }
}

fn encode_frame_into(frame: &Frame, buf: &mut BytesMut) {
    buf.put_u8(WIRE_VERSION);
    match frame {
        Frame::Data(e) => {
            buf.put_u8(KIND_DATA);
            encode_event(e, buf);
        }
        Frame::Control(c) => {
            buf.put_u8(KIND_CONTROL);
            encode_control(c, buf);
        }
        Frame::Seq { seq, inner } => {
            buf.put_u8(KIND_SEQ);
            buf.put_u64_le(*seq);
            encode_frame_into(inner, buf);
        }
        Frame::Ack { cum } => {
            buf.put_u8(KIND_ACK);
            buf.put_u64_le(*cum);
        }
        Frame::Hello { next } => {
            buf.put_u8(KIND_HELLO);
            buf.put_u64_le(*next);
        }
        Frame::Batch(frames) => {
            buf.put_u8(KIND_BATCH);
            buf.put_u32_le(frames.len() as u32);
            for f in frames {
                let mut inner = BytesMut::with_capacity(frame_size_hint(f));
                encode_frame_into(f, &mut inner);
                buf.put_u32_le(inner.len() as u32);
                buf.put_slice(&inner);
            }
        }
        Frame::Subscribe { client, filter } => {
            buf.put_u8(KIND_SUBSCRIBE);
            buf.put_u64_le(*client);
            match filter {
                SubscriptionFilter::All => buf.put_u8(0),
                SubscriptionFilter::Flights(ids) => {
                    buf.put_u8(1);
                    buf.put_u32_le(ids.len() as u32);
                    for id in ids {
                        buf.put_u32_le(*id);
                    }
                }
            }
        }
        Frame::Resume { client, last_seq } => {
            buf.put_u8(KIND_RESUME);
            buf.put_u64_le(*client);
            buf.put_u64_le(*last_seq);
        }
        Frame::EdgeEvent { pub_seq, event } => {
            buf.put_u8(KIND_EDGE_EVENT);
            buf.put_u64_le(*pub_seq);
            // The embedded Data frame is byte-identical to its standalone
            // encoding, so `encode_edge_event` can prepend this header to a
            // cached encoding without re-encoding the event.
            buf.put_u8(WIRE_VERSION);
            buf.put_u8(KIND_DATA);
            encode_event(event, buf);
        }
        Frame::Reseed { pub_seq, snapshot } => {
            buf.put_u8(KIND_RESEED);
            buf.put_u64_le(*pub_seq);
            buf.put_u32_le(snapshot.len() as u32);
            buf.put_slice(snapshot);
        }
        Frame::DeltaSnapshot { pub_seq, delta } => {
            buf.put_u8(KIND_DELTA_SNAPSHOT);
            buf.put_u64_le(*pub_seq);
            buf.put_u32_le(delta.len() as u32);
            buf.put_slice(delta);
        }
    }
}

/// Decode a frame from a buffer (consumes it).
pub fn decode_frame(buf: Bytes) -> Result<Frame, WireError> {
    decode_frame_at(buf, 0)
}

fn decode_frame_at(mut buf: Bytes, depth: u8) -> Result<Frame, WireError> {
    if buf.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    let version = buf.get_u8();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    match buf.get_u8() {
        KIND_DATA => Ok(Frame::Data(Arc::new(decode_event(&mut buf)?))),
        KIND_CONTROL => Ok(Frame::Control(decode_control(&mut buf)?)),
        // A Seq envelope may not carry another Seq envelope: one level of
        // nesting is all the protocol produces, and the cap keeps a corrupt
        // or hostile frame from driving unbounded recursion.
        KIND_SEQ if depth == 0 => {
            need(&buf, 8)?;
            let seq = buf.get_u64_le();
            let inner = decode_frame_at(buf, depth + 1)?;
            Ok(Frame::Seq { seq, inner: Box::new(inner) })
        }
        KIND_ACK if depth < 2 => {
            need(&buf, 8)?;
            Ok(Frame::Ack { cum: buf.get_u64_le() })
        }
        KIND_HELLO if depth < 2 => {
            need(&buf, 8)?;
            Ok(Frame::Hello { next: buf.get_u64_le() })
        }
        // A batch may stand alone or sit inside one Seq envelope; its
        // members (decoded at depth 2) may only be Data/Control frames —
        // no nested batches, no reliability frames smuggled inside.
        KIND_BATCH if depth <= 1 => {
            need(&buf, 4)?;
            let count = buf.get_u32_le() as usize;
            let mut frames = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                need(&buf, 4)?;
                let len = buf.get_u32_le() as usize;
                need(&buf, len)?;
                let part = buf.slice(..len);
                buf.advance(len);
                frames.push(decode_frame_at(part, 2)?);
            }
            Ok(Frame::Batch(frames))
        }
        // Edge-tier frames are top-level only: the edge protocol never
        // wraps them in Seq envelopes (pub_seq IS the sequencing) and never
        // batches them through Frame::Batch (delivery batching reuses the
        // shared Data encodings directly).
        KIND_SUBSCRIBE if depth == 0 => {
            need(&buf, 9)?;
            let client = buf.get_u64_le();
            let filter = match buf.get_u8() {
                0 => SubscriptionFilter::All,
                1 => {
                    need(&buf, 4)?;
                    let n = buf.get_u32_le() as usize;
                    need(&buf, n * 4)?;
                    let mut ids = Vec::with_capacity(n.min(65_536));
                    for _ in 0..n {
                        ids.push(buf.get_u32_le());
                    }
                    SubscriptionFilter::Flights(ids)
                }
                t => return Err(WireError::BadTag(t)),
            };
            Ok(Frame::Subscribe { client, filter })
        }
        KIND_RESUME if depth == 0 => {
            need(&buf, 16)?;
            let client = buf.get_u64_le();
            let last_seq = buf.get_u64_le();
            Ok(Frame::Resume { client, last_seq })
        }
        KIND_EDGE_EVENT if depth == 0 => {
            need(&buf, 8)?;
            let pub_seq = buf.get_u64_le();
            // The remainder is an embedded Data frame, verbatim; decoding
            // at depth 2 keeps reliability/edge frames from hiding inside.
            match decode_frame_at(buf, 2)? {
                Frame::Data(event) => Ok(Frame::EdgeEvent { pub_seq, event }),
                _ => Err(WireError::BadTag(KIND_EDGE_EVENT)),
            }
        }
        KIND_RESEED if depth == 0 => {
            need(&buf, 12)?;
            let pub_seq = buf.get_u64_le();
            let len = buf.get_u32_le() as usize;
            need(&buf, len)?;
            // Zero-copy: the snapshot stays a slice of the receive buffer
            // until the client decodes it with `decode_snapshot`.
            let snapshot = buf.slice(..len);
            buf.advance(len);
            Ok(Frame::Reseed { pub_seq, snapshot })
        }
        KIND_DELTA_SNAPSHOT if depth == 0 => {
            need(&buf, 12)?;
            let pub_seq = buf.get_u64_le();
            let len = buf.get_u32_le() as usize;
            need(&buf, len)?;
            // Zero-copy, like Reseed: decoded by the client with
            // `decode_delta` when it installs the catch-up.
            let delta = buf.slice(..len);
            buf.advance(len);
            Ok(Frame::DeltaSnapshot { pub_seq, delta })
        }
        t => Err(WireError::BadTag(t)),
    }
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// Encode an event. Layout (matching `EVENT_HEADER_WIRE_SIZE`): stream u16,
/// seq u64, flight u32, body-tag u8, stamp-count u16, padding-len u32,
/// ingress u64, stamp components, body fields, padding zeros.
pub fn encode_event(e: &Event, buf: &mut BytesMut) {
    buf.put_u16_le(e.stream);
    buf.put_u64_le(e.seq);
    buf.put_u32_le(e.flight);
    buf.put_u8(e.body.tag());
    buf.put_u16_le(e.stamp.width() as u16);
    buf.put_u32_le(e.padding);
    buf.put_u64_le(e.ingress_us);
    for &c in e.stamp.components() {
        buf.put_u64_le(c);
    }
    match &e.body {
        EventBody::Position(p) => encode_fix(p, buf),
        EventBody::Status(s) => buf.put_u8(*s as u8),
        EventBody::Boarding { boarded, expected } => {
            buf.put_u32_le(*boarded);
            buf.put_u32_le(*expected);
        }
        EventBody::Derived { status, collapsed } => {
            buf.put_u8(*status as u8);
            buf.put_u32_le(*collapsed);
        }
        EventBody::Coalesced { last, count } => {
            encode_fix(last, buf);
            buf.put_u32_le(*count);
        }
        EventBody::Opaque(b) => {
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
        EventBody::Baggage { loaded, reconciled } => {
            buf.put_u32_le(*loaded);
            buf.put_u32_le(*reconciled);
        }
    }
    // Chunked zero fill instead of `put_bytes(0, n)`: padding dominates the
    // wire size of benchmark-scale events (~1 KiB), and `put_bytes` is
    // byte-at-a-time in minimal `BufMut` implementations, which made this
    // single call most of the whole encode cost. `put_slice` is a bulk copy
    // everywhere.
    let mut left = e.padding as usize;
    while left > 0 {
        let n = left.min(ZERO_PAD.len());
        buf.put_slice(&ZERO_PAD[..n]);
        left -= n;
    }
}

/// Source block for zero padding in [`encode_event`].
static ZERO_PAD: [u8; 1024] = [0; 1024];

/// Decode an event.
pub fn decode_event(buf: &mut Bytes) -> Result<Event, WireError> {
    const FIXED: usize = 2 + 8 + 4 + 1 + 2 + 4 + 8;
    if buf.remaining() < FIXED {
        return Err(WireError::Truncated);
    }
    let stream = buf.get_u16_le();
    let seq = buf.get_u64_le();
    let flight = buf.get_u32_le();
    let tag = buf.get_u8();
    let stamp_n = buf.get_u16_le() as usize;
    let padding = buf.get_u32_le();
    let ingress_us = buf.get_u64_le();
    if buf.remaining() < stamp_n * 8 {
        return Err(WireError::Truncated);
    }
    let mut comps = Vec::with_capacity(stamp_n);
    for _ in 0..stamp_n {
        comps.push(buf.get_u64_le());
    }
    let body = match tag {
        0 => EventBody::Position(decode_fix(buf)?),
        1 => EventBody::Status(decode_status(buf)?),
        2 => {
            need(buf, 8)?;
            EventBody::Boarding { boarded: buf.get_u32_le(), expected: buf.get_u32_le() }
        }
        3 => {
            need(buf, 5)?;
            let status = decode_status(buf)?;
            EventBody::Derived { status, collapsed: buf.get_u32_le() }
        }
        4 => {
            let last = decode_fix(buf)?;
            need(buf, 4)?;
            EventBody::Coalesced { last, count: buf.get_u32_le() }
        }
        5 => {
            need(buf, 4)?;
            let n = buf.get_u32_le() as usize;
            need(buf, n)?;
            // Zero-copy: the payload is a slice of the receive buffer.
            let b = buf.slice(..n);
            buf.advance(n);
            EventBody::Opaque(b)
        }
        6 => {
            need(buf, 8)?;
            EventBody::Baggage { loaded: buf.get_u32_le(), reconciled: buf.get_u32_le() }
        }
        t => return Err(WireError::BadTag(t)),
    };
    need(buf, padding as usize)?;
    buf.advance(padding as usize);
    Ok(Event {
        stream,
        seq,
        flight,
        body,
        stamp: VectorTimestamp::from_components(comps),
        padding,
        ingress_us,
    })
}

fn encode_fix(p: &PositionFix, buf: &mut BytesMut) {
    buf.put_f64_le(p.lat);
    buf.put_f64_le(p.lon);
    buf.put_f64_le(p.alt_ft);
    buf.put_f64_le(p.speed_kts);
    buf.put_f64_le(p.heading_deg);
}

fn decode_fix(buf: &mut Bytes) -> Result<PositionFix, WireError> {
    need(buf, PositionFix::WIRE_SIZE)?;
    Ok(PositionFix {
        lat: buf.get_f64_le(),
        lon: buf.get_f64_le(),
        alt_ft: buf.get_f64_le(),
        speed_kts: buf.get_f64_le(),
        heading_deg: buf.get_f64_le(),
    })
}

fn decode_status(buf: &mut Bytes) -> Result<FlightStatus, WireError> {
    need(buf, 1)?;
    let b = buf.get_u8();
    FlightStatus::from_u8(b).ok_or(WireError::BadTag(b))
}

fn need(buf: &Bytes, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Control messages
// ---------------------------------------------------------------------

const CTRL_CHKPT: u8 = 0;
const CTRL_REP: u8 = 1;
const CTRL_COMMIT: u8 = 2;

/// Encode a control message.
pub fn encode_control(c: &ControlMsg, buf: &mut BytesMut) {
    match c {
        ControlMsg::Chkpt { round, stamp, epoch, term } => {
            buf.put_u8(CTRL_CHKPT);
            buf.put_u64_le(*round);
            buf.put_u64_le(*term);
            buf.put_u64_le(*epoch);
            encode_stamp(stamp, buf);
        }
        ControlMsg::ChkptRep { round, site, stamp, monitor, term } => {
            buf.put_u8(CTRL_REP);
            buf.put_u64_le(*round);
            buf.put_u64_le(*term);
            buf.put_u16_le(*site);
            encode_stamp(stamp, buf);
            buf.put_u64_le(monitor.ready_len);
            buf.put_u64_le(monitor.backup_len);
            buf.put_u64_le(monitor.pending_requests);
        }
        ControlMsg::Commit { round, stamp, epoch, term, adapt } => {
            buf.put_u8(CTRL_COMMIT);
            buf.put_u64_le(*round);
            buf.put_u64_le(*term);
            buf.put_u64_le(*epoch);
            encode_stamp(stamp, buf);
            match adapt {
                None => buf.put_u8(0),
                Some(d) => {
                    buf.put_u8(1);
                    encode_params(&d.params, buf);
                    encode_kind(&d.mirror_fn, buf);
                    encode_partition(&d.partition, buf);
                }
            }
        }
    }
}

/// Decode a control message.
pub fn decode_control(buf: &mut Bytes) -> Result<ControlMsg, WireError> {
    need(buf, 1 + 8 + 8)?;
    let tag = buf.get_u8();
    let round = buf.get_u64_le();
    let term = buf.get_u64_le();
    match tag {
        CTRL_CHKPT => {
            need(buf, 8)?;
            let epoch = buf.get_u64_le();
            Ok(ControlMsg::Chkpt { round, stamp: decode_stamp(buf)?, epoch, term })
        }
        CTRL_REP => {
            need(buf, 2)?;
            let site = buf.get_u16_le();
            let stamp = decode_stamp(buf)?;
            need(buf, 24)?;
            let monitor = MonitorReport {
                ready_len: buf.get_u64_le(),
                backup_len: buf.get_u64_le(),
                pending_requests: buf.get_u64_le(),
            };
            Ok(ControlMsg::ChkptRep { round, site, stamp, monitor, term })
        }
        CTRL_COMMIT => {
            need(buf, 8)?;
            let epoch = buf.get_u64_le();
            let stamp = decode_stamp(buf)?;
            need(buf, 1)?;
            let adapt = match buf.get_u8() {
                0 => None,
                1 => Some(AdaptDirective {
                    params: decode_params(buf)?,
                    mirror_fn: decode_kind(buf)?,
                    partition: decode_partition(buf)?,
                }),
                t => return Err(WireError::BadTag(t)),
            };
            Ok(ControlMsg::Commit { round, stamp, epoch, term, adapt })
        }
        t => Err(WireError::BadTag(t)),
    }
}

fn encode_stamp(s: &VectorTimestamp, buf: &mut BytesMut) {
    buf.put_u16_le(s.width() as u16);
    for &c in s.components() {
        buf.put_u64_le(c);
    }
}

fn decode_stamp(buf: &mut Bytes) -> Result<VectorTimestamp, WireError> {
    need(buf, 2)?;
    let n = buf.get_u16_le() as usize;
    need(buf, n * 8)?;
    let mut comps = Vec::with_capacity(n);
    for _ in 0..n {
        comps.push(buf.get_u64_le());
    }
    Ok(VectorTimestamp::from_components(comps))
}

fn encode_partition(p: &Option<PartitionMap>, buf: &mut BytesMut) {
    match p {
        None => buf.put_u8(0),
        Some(pm) => {
            buf.put_u8(1);
            buf.put_u64_le(pm.epoch());
            let slots = pm.slot_table();
            buf.put_u16_le(slots.len() as u16);
            for &g in slots {
                buf.put_u16_le(g);
            }
        }
    }
}

fn decode_partition(buf: &mut Bytes) -> Result<Option<PartitionMap>, WireError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => {
            need(buf, 8 + 2)?;
            let epoch = buf.get_u64_le();
            let n = buf.get_u16_le() as usize;
            need(buf, n * 2)?;
            let mut slots = Vec::with_capacity(n);
            for _ in 0..n {
                slots.push(buf.get_u16_le());
            }
            // from_parts normalizes a wrong-length table instead of letting
            // a malformed frame panic the routing path.
            Ok(Some(PartitionMap::from_parts(epoch, slots)))
        }
        t => Err(WireError::BadTag(t)),
    }
}

fn encode_params(p: &MirrorParams, buf: &mut BytesMut) {
    buf.put_u8(p.coalesce as u8);
    buf.put_u32_le(p.coalesce_max);
    buf.put_u32_le(p.checkpoint_every);
    buf.put_u32_le(p.overwrite_max);
    buf.put_u64_le(p.generation);
}

fn decode_params(buf: &mut Bytes) -> Result<MirrorParams, WireError> {
    need(buf, 1 + 4 + 4 + 4 + 8)?;
    Ok(MirrorParams {
        coalesce: buf.get_u8() != 0,
        coalesce_max: buf.get_u32_le(),
        checkpoint_every: buf.get_u32_le(),
        overwrite_max: buf.get_u32_le(),
        generation: buf.get_u64_le(),
    })
}

fn encode_kind(k: &Option<MirrorFnKind>, buf: &mut BytesMut) {
    match k {
        None => buf.put_u8(0),
        Some(MirrorFnKind::None) => buf.put_u8(1),
        Some(MirrorFnKind::Simple) => buf.put_u8(2),
        Some(MirrorFnKind::Selective { overwrite }) => {
            buf.put_u8(3);
            buf.put_u32_le(*overwrite);
        }
        Some(MirrorFnKind::Coalescing { coalesce, checkpoint_every }) => {
            buf.put_u8(4);
            buf.put_u32_le(*coalesce);
            buf.put_u32_le(*checkpoint_every);
        }
        Some(MirrorFnKind::Overwriting { overwrite, checkpoint_every }) => {
            buf.put_u8(5);
            buf.put_u32_le(*overwrite);
            buf.put_u32_le(*checkpoint_every);
        }
    }
}

fn decode_kind(buf: &mut Bytes) -> Result<Option<MirrorFnKind>, WireError> {
    need(buf, 1)?;
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(MirrorFnKind::None)),
        2 => Ok(Some(MirrorFnKind::Simple)),
        3 => {
            need(buf, 4)?;
            Ok(Some(MirrorFnKind::Selective { overwrite: buf.get_u32_le() }))
        }
        4 => {
            need(buf, 8)?;
            Ok(Some(MirrorFnKind::Coalescing {
                coalesce: buf.get_u32_le(),
                checkpoint_every: buf.get_u32_le(),
            }))
        }
        5 => {
            need(buf, 8)?;
            Ok(Some(MirrorFnKind::Overwriting {
                overwrite: buf.get_u32_le(),
                checkpoint_every: buf.get_u32_le(),
            }))
        }
        t => Err(WireError::BadTag(t)),
    }
}

// ---------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------

/// Encode an initial-state [`Snapshot`] into a standalone wire frame.
///
/// Snapshots travel the *request* path (gateway → recovering display), not
/// the mirroring stream, so the codec is deliberately not a [`Frame`]
/// variant: data-path decoders never see `KIND_SNAPSHOT` and need no
/// changes. Layout: version u8, kind u8, flight-count u32, `as_of` stamp,
/// then one entry per flight **in ascending flight-id order** (canonical —
/// equal snapshots encode to equal bytes): id u32, status u8,
/// position-presence u8, position fix (40 B, when present), position-seq
/// u64, boarded u32, expected u32, bags-loaded u32, bags-reconciled u32,
/// updates u64.
///
/// The returned [`Bytes`] is the encode-once handle for storm serving: the
/// gateway's epoch cache encodes a snapshot once and hands the same buffer
/// (a reference-count bump per request) to every client of that epoch.
pub fn encode_snapshot(snap: &Snapshot) -> Bytes {
    let mut entries: Vec<_> = snap.iter().collect();
    entries.sort_unstable_by_key(|(id, _)| **id);
    let mut buf = BytesMut::with_capacity(snap.wire_size() + entries.len() * 10);
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(KIND_SNAPSHOT);
    buf.put_u32_le(entries.len() as u32);
    encode_stamp(&snap.as_of, &mut buf);
    for (id, f) in entries {
        encode_flight_entry(*id, f, &mut buf);
    }
    buf.freeze()
}

/// One snapshot/delta flight entry: id u32, status u8, position-presence
/// u8, position fix (40 B, when present), position-seq u64, boarded u32,
/// expected u32, bags-loaded u32, bags-reconciled u32, updates u64.
/// Shared by [`encode_snapshot`] and [`encode_delta`], so a delta entry is
/// byte-identical to the same flight's full-snapshot entry.
fn encode_flight_entry(id: u32, f: &FlightView, buf: &mut BytesMut) {
    buf.put_u32_le(id);
    buf.put_u8(f.status as u8);
    match &f.position {
        Some(p) => {
            buf.put_u8(1);
            encode_fix(p, buf);
        }
        None => buf.put_u8(0),
    }
    buf.put_u64_le(f.position_seq);
    buf.put_u32_le(f.boarded);
    buf.put_u32_le(f.expected);
    buf.put_u32_le(f.bags_loaded);
    buf.put_u32_le(f.bags_reconciled);
    buf.put_u64_le(f.updates);
}

/// Wire size of the smallest flight entry: one without a position fix.
const MIN_FLIGHT_ENTRY: usize = 4 + 1 + 1 + 8 + 4 + 4 + 4 + 4 + 8;

/// Decode `count` flight entries. The map is pre-sized for no more entries
/// than the remaining bytes can hold: `count` is an unchecked wire field.
fn decode_flight_entries(buf: &mut Bytes, count: usize) -> Result<FlightMap, WireError> {
    let capacity = count.min(buf.remaining() / MIN_FLIGHT_ENTRY);
    let mut flights = FlightMap::with_capacity_and_hasher(capacity, Default::default());
    for _ in 0..count {
        let (id, view) = decode_flight_entry(buf)?;
        flights.insert(id, view);
    }
    Ok(flights)
}

fn decode_flight_entry(buf: &mut Bytes) -> Result<(u32, FlightView), WireError> {
    need(buf, 4)?;
    let id = buf.get_u32_le();
    let status = decode_status(buf)?;
    need(buf, 1)?;
    let position = match buf.get_u8() {
        0 => None,
        1 => Some(decode_fix(buf)?),
        t => return Err(WireError::BadTag(t)),
    };
    need(buf, 8 + 4 + 4 + 4 + 4 + 8)?;
    let view = FlightView {
        status,
        position,
        position_seq: buf.get_u64_le(),
        boarded: buf.get_u32_le(),
        expected: buf.get_u32_le(),
        bags_loaded: buf.get_u32_le(),
        bags_reconciled: buf.get_u32_le(),
        updates: buf.get_u64_le(),
    };
    Ok((id, view))
}

/// Decode a snapshot frame produced by [`encode_snapshot`]. The restored
/// snapshot compares equal to the original (and `restore()` hashes
/// identically to the captured state).
pub fn decode_snapshot(mut buf: Bytes) -> Result<Snapshot, WireError> {
    need(&buf, 2)?;
    let version = buf.get_u8();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = buf.get_u8();
    if kind != KIND_SNAPSHOT {
        return Err(WireError::BadTag(kind));
    }
    need(&buf, 4)?;
    let count = buf.get_u32_le() as usize;
    let as_of = decode_stamp(&mut buf)?;
    let flights = decode_flight_entries(&mut buf, count)?;
    Ok(Snapshot::from_parts(flights, as_of))
}

/// Encode a [`StateDelta`] into a standalone wire frame.
///
/// Like [`encode_snapshot`], the delta codec travels the state-transfer
/// path (StateSync provider → catching-up consumer), not the mirroring
/// stream, so it is not a [`Frame`] variant; the edge tier carries it
/// inside [`Frame::DeltaSnapshot`]. Layout: version u8, kind u8, `base`
/// stamp, `as_of` stamp, removed-count u32 + removed ids (ascending),
/// changed-count u32 + one snapshot-format flight entry per changed
/// flight **in ascending flight-id order** (canonical — equal deltas encode
/// to equal bytes).
pub fn encode_delta(delta: &StateDelta) -> Bytes {
    let mut entries: Vec<_> = delta.changed().iter().collect();
    entries.sort_unstable_by_key(|(id, _)| **id);
    let mut buf = BytesMut::with_capacity(delta.wire_size() + entries.len() * 10);
    buf.put_u8(WIRE_VERSION);
    buf.put_u8(KIND_DELTA);
    encode_stamp(&delta.base, &mut buf);
    encode_stamp(&delta.as_of, &mut buf);
    buf.put_u32_le(delta.removed().len() as u32);
    for id in delta.removed() {
        buf.put_u32_le(*id);
    }
    buf.put_u32_le(entries.len() as u32);
    for (id, f) in entries {
        encode_flight_entry(*id, f, &mut buf);
    }
    buf.freeze()
}

/// Decode a delta frame produced by [`encode_delta`]. The restored delta
/// compares equal to the original, so applying it converges the consumer to
/// the producer's `state_hash` exactly as the un-encoded delta would.
pub fn decode_delta(mut buf: Bytes) -> Result<StateDelta, WireError> {
    need(&buf, 2)?;
    let version = buf.get_u8();
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = buf.get_u8();
    if kind != KIND_DELTA {
        return Err(WireError::BadTag(kind));
    }
    let base = decode_stamp(&mut buf)?;
    let as_of = decode_stamp(&mut buf)?;
    need(&buf, 4)?;
    let removed_n = buf.get_u32_le() as usize;
    need(&buf, removed_n * 4)?;
    let mut removed = Vec::with_capacity(removed_n.min(65_536));
    for _ in 0..removed_n {
        removed.push(buf.get_u32_le());
    }
    need(&buf, 4)?;
    let count = buf.get_u32_le() as usize;
    let changed = decode_flight_entries(&mut buf, count)?;
    Ok(StateDelta::from_parts(changed, removed, base, as_of))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::EVENT_HEADER_WIRE_SIZE;

    fn fix() -> PositionFix {
        PositionFix { lat: 33.6, lon: -84.4, alt_ft: 31000.0, speed_kts: 450.0, heading_deg: 271.5 }
    }

    fn stamped_event() -> Event {
        let mut e = Event::faa_position(42, 1234, fix()).with_total_size(1000).with_ingress_us(777);
        e.stamp.advance(0, 42);
        e.stamp.advance(1, 7);
        e
    }

    #[test]
    fn event_roundtrip() {
        let e = stamped_event();
        let bytes = encode_frame(&Frame::Data(Arc::new(e.clone())));
        match decode_frame(bytes).unwrap() {
            Frame::Data(d) => assert_eq!(*d, e),
            f => panic!("wrong frame {f:?}"),
        }
    }

    #[test]
    fn encoded_event_size_matches_wire_size_exactly() {
        for target in [0usize, 100, 1000, 8192] {
            let e = Event::faa_position(1, 2, fix()).with_total_size(target);
            let mut buf = BytesMut::new();
            encode_event(&e, &mut buf);
            assert_eq!(buf.len(), e.wire_size(), "target {target}");
        }
        // Sanity: header constant matches the fixed prefix we write.
        let e = Event::delta_status(1, 2, FlightStatus::Landed);
        let mut buf = BytesMut::new();
        encode_event(&e, &mut buf);
        assert_eq!(buf.len(), EVENT_HEADER_WIRE_SIZE + 1);
    }

    #[test]
    fn all_body_variants_roundtrip() {
        let bodies = vec![
            EventBody::Position(fix()),
            EventBody::Status(FlightStatus::AtGate),
            EventBody::Boarding { boarded: 7, expected: 180 },
            EventBody::Derived { status: FlightStatus::Arrived, collapsed: 3 },
            EventBody::Coalesced { last: fix(), count: 10 },
            EventBody::Opaque(vec![1u8, 2, 3, 4, 5].into()),
            EventBody::Baggage { loaded: 96, reconciled: 95 },
        ];
        for body in bodies {
            let mut e = Event::new(1, 9, 77, body);
            e.stamp.advance(1, 9);
            let bytes = encode_frame(&Frame::Data(Arc::new(e.clone())));
            assert_eq!(decode_frame(bytes).unwrap(), Frame::Data(Arc::new(e)));
        }
    }

    #[test]
    fn control_roundtrip_all_variants() {
        let stamp = VectorTimestamp::from_components(vec![5, 9]);
        let msgs = vec![
            ControlMsg::Chkpt { round: 1, stamp: stamp.clone(), epoch: 6, term: 4 },
            ControlMsg::ChkptRep {
                round: 2,
                site: 3,
                stamp: stamp.clone(),
                monitor: MonitorReport { ready_len: 1, backup_len: 2, pending_requests: 3 },
                term: u64::MAX,
            },
            ControlMsg::Commit { round: 3, stamp: stamp.clone(), epoch: 7, term: 0, adapt: None },
            ControlMsg::Commit {
                round: 4,
                stamp,
                epoch: u64::MAX,
                term: 9,
                adapt: Some(AdaptDirective {
                    params: MirrorParams::profile_degraded(),
                    mirror_fn: Some(MirrorFnKind::Coalescing {
                        coalesce: 20,
                        checkpoint_every: 100,
                    }),
                    partition: None,
                }),
            },
            ControlMsg::Commit {
                round: 5,
                stamp: VectorTimestamp::from_components(vec![5, 9]),
                epoch: 2,
                term: 9,
                adapt: Some(AdaptDirective {
                    params: MirrorParams::default(),
                    mirror_fn: None,
                    partition: Some({
                        let mut pm = PartitionMap::uniform(4);
                        pm.assign(7, 0); // a migrated slot survives the roundtrip
                        pm
                    }),
                }),
            },
        ];
        for m in msgs {
            let bytes = encode_frame(&Frame::Control(m.clone()));
            assert_eq!(decode_frame(bytes).unwrap(), Frame::Control(m));
        }
    }

    #[test]
    fn mirror_fn_kinds_roundtrip() {
        for k in [
            None,
            Some(MirrorFnKind::None),
            Some(MirrorFnKind::Simple),
            Some(MirrorFnKind::Selective { overwrite: 10 }),
            Some(MirrorFnKind::Coalescing { coalesce: 20, checkpoint_every: 100 }),
            Some(MirrorFnKind::Overwriting { overwrite: 20, checkpoint_every: 100 }),
        ] {
            let mut buf = BytesMut::new();
            encode_kind(&k, &mut buf);
            let mut b = buf.freeze();
            assert_eq!(decode_kind(&mut b).unwrap(), k);
        }
    }

    #[test]
    fn truncated_frames_error() {
        let e = stamped_event();
        let bytes = encode_frame(&Frame::Data(Arc::new(e)));
        for cut in [0, 1, 2, 5, 10, bytes.len() - 1] {
            let res = decode_frame(bytes.slice(..cut));
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_version_and_tag_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u8(99);
        raw.put_u8(KIND_DATA);
        assert_eq!(decode_frame(raw.freeze()), Err(WireError::BadVersion(99)));

        let mut raw = BytesMut::new();
        raw.put_u8(WIRE_VERSION);
        raw.put_u8(0xEE);
        assert_eq!(decode_frame(raw.freeze()), Err(WireError::BadTag(0xEE)));
    }

    #[test]
    fn seq_ack_hello_roundtrip() {
        let frames = vec![
            Frame::Seq { seq: 1, inner: Box::new(Frame::Data(Arc::new(stamped_event()))) },
            Frame::Seq {
                seq: u64::MAX,
                inner: Box::new(Frame::Control(ControlMsg::Chkpt {
                    round: 7,
                    stamp: VectorTimestamp::from_components(vec![1, 2]),
                    epoch: 2,
                    term: 3,
                })),
            },
            Frame::Ack { cum: 0 },
            Frame::Ack { cum: 123_456_789 },
            Frame::Hello { next: 1 },
            Frame::Hello { next: 42 },
        ];
        for f in frames {
            let bytes = encode_frame(&f);
            assert_eq!(decode_frame(bytes).unwrap(), f);
        }
    }

    #[test]
    fn nested_seq_envelopes_rejected() {
        let inner = Frame::Seq { seq: 2, inner: Box::new(Frame::Ack { cum: 1 }) };
        let outer = Frame::Seq { seq: 1, inner: Box::new(inner) };
        let bytes = encode_frame(&outer);
        assert_eq!(decode_frame(bytes), Err(WireError::BadTag(KIND_SEQ)));
    }

    #[test]
    fn truncated_seq_envelope_errors() {
        let f = Frame::Seq { seq: 9, inner: Box::new(Frame::Data(Arc::new(stamped_event()))) };
        let bytes = encode_frame(&f);
        for cut in [2, 5, 9, 10, 11, bytes.len() - 1] {
            assert!(decode_frame(bytes.slice(..cut)).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn batch_roundtrip_bare_and_in_seq_envelope() {
        let members = vec![
            Frame::Data(Arc::new(stamped_event())),
            Frame::Control(ControlMsg::Chkpt {
                round: 1,
                stamp: VectorTimestamp::from_components(vec![3, 4]),
                epoch: 1,
                term: 1,
            }),
            Frame::Data(Arc::new(Event::delta_status(2, 8, FlightStatus::Landed))),
        ];
        let batch = Frame::Batch(members);
        assert_eq!(decode_frame(encode_frame(&batch)).unwrap(), batch);
        let env = Frame::Seq { seq: 77, inner: Box::new(batch) };
        assert_eq!(decode_frame(encode_frame(&env)).unwrap(), env);
    }

    #[test]
    fn batch_rejects_nested_batch_and_protocol_members() {
        let nested = Frame::Batch(vec![Frame::Batch(vec![])]);
        assert_eq!(decode_frame(encode_frame(&nested)), Err(WireError::BadTag(KIND_BATCH)));
        for bad in [
            Frame::Ack { cum: 3 },
            Frame::Hello { next: 9 },
            Frame::Seq { seq: 1, inner: Box::new(Frame::Ack { cum: 0 }) },
        ] {
            let tag = match &bad {
                Frame::Ack { .. } => KIND_ACK,
                Frame::Hello { .. } => KIND_HELLO,
                _ => KIND_SEQ,
            };
            let batch = Frame::Batch(vec![bad]);
            assert_eq!(decode_frame(encode_frame(&batch)), Err(WireError::BadTag(tag)));
        }
    }

    #[test]
    fn batch_from_encoded_matches_frame_encoding() {
        let frames =
            vec![Frame::Data(Arc::new(stamped_event())), Frame::Data(Arc::new(stamped_event()))];
        let parts: Vec<Bytes> = frames.iter().map(encode_frame_shared).collect();
        assert_eq!(encode_batch_from_encoded(&parts), encode_frame(&Frame::Batch(frames)));
    }

    #[test]
    fn seq_envelope_helper_matches_frame_encoding() {
        let inner = Frame::Data(Arc::new(stamped_event()));
        let encoded = encode_frame_shared(&inner);
        let expect = encode_frame(&Frame::Seq { seq: 99, inner: Box::new(inner) });
        assert_eq!(encode_seq_envelope(99, &encoded), expect);
    }

    #[test]
    fn shared_event_encodes_once_and_compares_by_event() {
        let e = stamped_event();
        let shared = SharedEvent::from(e.clone());
        let first = shared.encoded();
        let again = shared.clone().encoded();
        assert_eq!(first, again);
        assert_eq!(first, encode_frame(&Frame::Data(Arc::new(e.clone()))));
        assert_eq!(shared, SharedEvent::from(e));
    }

    fn snapshot_state() -> mirror_ede::OperationalState {
        let mut s = mirror_ede::OperationalState::new();
        for f in 0..25u32 {
            s.apply(&Event::faa_position(u64::from(f) + 1, f, fix()));
            s.apply(&Event::delta_status(u64::from(f) + 2, f, FlightStatus::EnRoute));
        }
        // One flight with no position fix at all (presence byte = 0).
        s.apply(&Event::delta_status(1, 999, FlightStatus::Scheduled));
        s
    }

    #[test]
    fn snapshot_roundtrips_and_preserves_state_hash() {
        let state = snapshot_state();
        let snap = Snapshot::capture(&state, VectorTimestamp::from_components(vec![7, 3, 9]));
        let decoded = decode_snapshot(encode_snapshot(&snap)).expect("decode");
        assert_eq!(decoded, snap);
        assert_eq!(decoded.as_of, snap.as_of);
        assert_eq!(decoded.restore().state_hash(), state.state_hash());
    }

    #[test]
    fn snapshot_encoding_is_canonical() {
        // Equal snapshots encode to identical bytes regardless of the hash
        // map's iteration order (entries are sorted by flight id).
        let state = snapshot_state();
        let snap = Snapshot::capture(&state, VectorTimestamp::from_components(vec![1]));
        assert_eq!(encode_snapshot(&snap), encode_snapshot(&snap.clone()));
        let rebuilt = Snapshot::capture(&snap.restore(), VectorTimestamp::from_components(vec![1]));
        assert_eq!(encode_snapshot(&snap), encode_snapshot(&rebuilt));
    }

    #[test]
    fn snapshot_decode_rejects_malformed_frames() {
        let snap = Snapshot::capture(&snapshot_state(), VectorTimestamp::from_components(vec![2]));
        let good = encode_snapshot(&snap);
        // Truncations at every prefix length fail cleanly.
        for len in 0..good.len() {
            assert!(decode_snapshot(good.slice(0..len)).is_err(), "prefix {len} must not decode");
        }
        // Wrong version byte and wrong kind byte.
        let mut bad = good.to_vec();
        bad[0] = WIRE_VERSION + 1;
        assert!(matches!(decode_snapshot(Bytes::from(bad)), Err(WireError::BadVersion(_))));
        let mut bad = good.to_vec();
        bad[1] = KIND_DATA;
        assert!(matches!(decode_snapshot(Bytes::from(bad)), Err(WireError::BadTag(_))));
    }

    #[test]
    fn edge_frames_roundtrip() {
        let snap = Snapshot::capture(&snapshot_state(), VectorTimestamp::from_components(vec![4]));
        let frames = vec![
            Frame::Subscribe { client: 1, filter: SubscriptionFilter::All },
            Frame::Subscribe { client: u64::MAX, filter: SubscriptionFilter::Flights(vec![]) },
            Frame::Subscribe {
                client: 42,
                filter: SubscriptionFilter::Flights(vec![7, 0, u32::MAX]),
            },
            Frame::Resume { client: 42, last_seq: 0 },
            Frame::Resume { client: 9, last_seq: u64::MAX },
            Frame::EdgeEvent { pub_seq: 1, event: Arc::new(stamped_event()) },
            Frame::EdgeEvent {
                pub_seq: u64::MAX,
                event: Arc::new(Event::delta_status(2, 8, FlightStatus::Landed)),
            },
            Frame::Reseed { pub_seq: 77, snapshot: encode_snapshot(&snap) },
        ];
        for f in frames {
            assert_eq!(decode_frame(encode_frame(&f)).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn edge_event_helper_matches_frame_encoding() {
        let e = Arc::new(stamped_event());
        let data_encoded = encode_frame_shared(&Frame::Data(Arc::clone(&e)));
        let expect = encode_frame(&Frame::EdgeEvent { pub_seq: 314, event: e });
        assert_eq!(encode_edge_event(314, &data_encoded), expect);
    }

    #[test]
    fn reseed_helper_matches_frame_encoding_and_snapshot_survives() {
        let snap = Snapshot::capture(&snapshot_state(), VectorTimestamp::from_components(vec![8]));
        let wire = encode_snapshot(&snap);
        let expect = encode_frame(&Frame::Reseed { pub_seq: 12, snapshot: wire.clone() });
        assert_eq!(encode_reseed(12, &wire), expect);
        match decode_frame(encode_reseed(12, &wire)).unwrap() {
            Frame::Reseed { pub_seq, snapshot } => {
                assert_eq!(pub_seq, 12);
                assert_eq!(decode_snapshot(snapshot).unwrap(), snap);
            }
            f => panic!("wrong frame {f:?}"),
        }
    }

    fn sample_delta() -> StateDelta {
        let state = snapshot_state();
        let mut changed = mirror_ede::FlightMap::default();
        for id in [3u32, 11, 999] {
            changed.insert(id, state.flight(id).unwrap().clone());
        }
        StateDelta::from_parts(
            changed,
            vec![5, 17],
            VectorTimestamp::from_components(vec![4, 2]),
            VectorTimestamp::from_components(vec![9, 6]),
        )
    }

    #[test]
    fn delta_roundtrips_exactly() {
        let delta = sample_delta();
        let decoded = decode_delta(encode_delta(&delta)).expect("decode");
        assert_eq!(decoded, delta);
        assert_eq!(decoded.base, delta.base);
        assert_eq!(decoded.as_of, delta.as_of);
        // An empty delta roundtrips too.
        let empty = StateDelta::from_parts(
            mirror_ede::FlightMap::default(),
            Vec::new(),
            VectorTimestamp::empty(),
            VectorTimestamp::empty(),
        );
        assert_eq!(decode_delta(encode_delta(&empty)).unwrap(), empty);
    }

    #[test]
    fn delta_encoding_is_canonical() {
        // Equal deltas encode to identical bytes regardless of hash-map
        // iteration order (entries sorted by flight id, like snapshots).
        let delta = sample_delta();
        assert_eq!(encode_delta(&delta), encode_delta(&delta.clone()));
        let rebuilt = decode_delta(encode_delta(&delta)).unwrap();
        assert_eq!(encode_delta(&delta), encode_delta(&rebuilt));
    }

    #[test]
    fn delta_decode_rejects_malformed_frames() {
        let good = encode_delta(&sample_delta());
        for len in 0..good.len() {
            assert!(decode_delta(good.slice(0..len)).is_err(), "prefix {len} must not decode");
        }
        let mut bad = good.to_vec();
        bad[0] = WIRE_VERSION + 1;
        assert!(matches!(decode_delta(Bytes::from(bad)), Err(WireError::BadVersion(_))));
        let mut bad = good.to_vec();
        bad[1] = KIND_SNAPSHOT;
        assert!(matches!(decode_delta(Bytes::from(bad)), Err(WireError::BadTag(_))));
    }

    /// A flight count inflated to `u32::MAX` fails as truncated instead of
    /// pre-sizing a map for four billion entries, which aborts the process.
    #[test]
    fn snapshot_decode_survives_an_inflated_flight_count() {
        let snap = Snapshot::capture(&snapshot_state(), VectorTimestamp::from_components(vec![2]));
        let mut bad = encode_snapshot(&snap).to_vec();
        // version, kind, then the flight count.
        bad[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_snapshot(Bytes::from(bad)), Err(WireError::Truncated));
    }

    #[test]
    fn delta_decode_survives_an_inflated_flight_count() {
        let mut bad = encode_delta(&sample_delta()).to_vec();
        // version, kind, two 2-wide stamps, two removed ids, then the count.
        let at = 2 + 2 * (2 + 2 * 8) + 4 + 2 * 4;
        assert_eq!(bad[at..at + 4], 3u32.to_le_bytes(), "changed-count field");
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_delta(Bytes::from(bad)), Err(WireError::Truncated));
    }

    #[test]
    fn delta_snapshot_frame_roundtrips() {
        let wire = encode_delta(&sample_delta());
        let f = Frame::DeltaSnapshot { pub_seq: 88, delta: wire.clone() };
        assert_eq!(decode_frame(encode_frame(&f)).unwrap(), f);
        // Helper matches the Frame encoding, and the payload survives.
        assert_eq!(encode_delta_reseed(88, &wire), encode_frame(&f));
        match decode_frame(encode_delta_reseed(88, &wire)).unwrap() {
            Frame::DeltaSnapshot { pub_seq, delta } => {
                assert_eq!(pub_seq, 88);
                assert_eq!(decode_delta(delta).unwrap(), sample_delta());
            }
            f => panic!("wrong frame {f:?}"),
        }
    }

    #[test]
    fn delta_snapshot_frame_rejected_below_top_level_and_truncated() {
        let f = Frame::DeltaSnapshot { pub_seq: 5, delta: encode_delta(&sample_delta()) };
        let env = Frame::Seq { seq: 1, inner: Box::new(f.clone()) };
        assert_eq!(decode_frame(encode_frame(&env)), Err(WireError::BadTag(KIND_DELTA_SNAPSHOT)));
        let bytes = encode_frame(&f);
        for cut in [2, 5, 9, 10, bytes.len() - 1] {
            assert!(decode_frame(bytes.slice(..cut)).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn edge_frames_rejected_below_top_level() {
        // Edge frames may not hide inside Seq envelopes or batches.
        let sub = Frame::Subscribe { client: 1, filter: SubscriptionFilter::All };
        let env = Frame::Seq { seq: 1, inner: Box::new(sub.clone()) };
        assert_eq!(decode_frame(encode_frame(&env)), Err(WireError::BadTag(KIND_SUBSCRIBE)));
        let batch = Frame::Batch(vec![Frame::Resume { client: 1, last_seq: 2 }]);
        assert_eq!(decode_frame(encode_frame(&batch)), Err(WireError::BadTag(KIND_RESUME)));
        let ee = Frame::EdgeEvent { pub_seq: 5, event: Arc::new(stamped_event()) };
        let env = Frame::Seq { seq: 1, inner: Box::new(ee) };
        assert_eq!(decode_frame(encode_frame(&env)), Err(WireError::BadTag(KIND_EDGE_EVENT)));
    }

    #[test]
    fn edge_event_rejects_non_data_payload() {
        // Hand-craft an EdgeEvent whose embedded frame is an Ack.
        let mut raw = BytesMut::new();
        raw.put_u8(WIRE_VERSION);
        raw.put_u8(KIND_EDGE_EVENT);
        raw.put_u64_le(3);
        raw.put_slice(&encode_frame(&Frame::Ack { cum: 1 }));
        assert!(decode_frame(raw.freeze()).is_err());
    }

    #[test]
    fn truncated_edge_frames_error() {
        let snap = Snapshot::capture(&snapshot_state(), VectorTimestamp::from_components(vec![1]));
        let frames = vec![
            Frame::Subscribe { client: 3, filter: SubscriptionFilter::Flights(vec![1, 2, 3]) },
            Frame::Resume { client: 3, last_seq: 9 },
            Frame::EdgeEvent { pub_seq: 4, event: Arc::new(stamped_event()) },
            Frame::Reseed { pub_seq: 5, snapshot: encode_snapshot(&snap) },
        ];
        for f in frames {
            let bytes = encode_frame(&f);
            for cut in [2, 5, 9, 10, bytes.len() - 1] {
                assert!(decode_frame(bytes.slice(..cut)).is_err(), "{f:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn subscription_filter_matches() {
        assert!(SubscriptionFilter::All.matches(7));
        let f = SubscriptionFilter::Flights(vec![1, 5]);
        assert!(f.matches(1) && f.matches(5) && !f.matches(2));
        assert!(!SubscriptionFilter::Flights(vec![]).matches(0));
    }

    #[test]
    fn garbage_bytes_never_panic() {
        // Decoding must fail cleanly on arbitrary inputs.
        let mut seed = 0x12345u64;
        for len in 0..200 {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                v.push((seed >> 33) as u8);
            }
            let _ = decode_frame(Bytes::from(v));
        }
    }
}
