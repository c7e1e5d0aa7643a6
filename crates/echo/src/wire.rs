//! Binary wire format.
//!
//! Every frame is `[u8 version][u8 kind][payload…]`; transports additionally
//! length-prefix frames with a little-endian `u32`. Integers are
//! little-endian throughout. The format is hand-rolled (no reflection, no
//! text) because mirroring throughput is the whole point of the paper.
//!
//! This module is the only place a byte layout is stated. Every encoder
//! writes through one private sink, either into a buffer or into a counter
//! that only adds up lengths: a size is what the encoder counts, and every
//! buffer is allocated once at exactly that size. Every decoder reads
//! through one bounds-checked reader: input shorter than its layout fails
//! with [`WireError::Truncated`], and input longer than it with
//! [`WireError::Trailing`]. An event's encoded size equals
//! [`Event::wire_size`], which the cost model charges; a test pins the two
//! together.

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
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
    /// Bytes left over after a complete layout: a count or length field
    /// edited downward, or junk appended.
    Trailing(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::Trailing(n) => write!(f, "{n} bytes trail the frame"),
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

// ---------------------------------------------------------------------
// The one writer and the one reader
// ---------------------------------------------------------------------

/// Where an encoder writes: every layout in this module is written once,
/// against this trait.
trait Sink {
    /// Append raw bytes.
    fn slice(&mut self, bytes: &[u8]);

    fn u8(&mut self, v: u8) {
        self.slice(&[v]);
    }

    fn u16(&mut self, v: u16) {
        self.slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.slice(&v.to_le_bytes());
    }
}

impl Sink for BytesMut {
    fn slice(&mut self, bytes: &[u8]) {
        self.put_slice(bytes);
    }

    // A push, not a one-byte copy: the data path writes several per event.
    fn u8(&mut self, v: u8) {
        self.put_u8(v);
    }
}

/// A [`Sink`] that only adds up lengths: an encoding's exact size.
struct Count(usize);

impl Sink for Count {
    fn slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Encode into one allocation of exactly the size the same writer counts:
/// `$write` runs twice, with `$s` bound first to a [`Count`], then to the
/// buffer.
macro_rules! exact {
    (|$s:ident| $write:expr) => {{
        let mut count = Count(0);
        let $s = &mut count;
        $write;
        let mut buf = BytesMut::with_capacity(count.0);
        let $s = &mut buf;
        $write;
        buf.freeze()
    }};
}

/// The cursor every decoder reads through: a read past the end fails with
/// [`WireError::Truncated`], and [`finish`](Reader::finish) fails with
/// [`WireError::Trailing`] when a layout leaves bytes unread.
struct Reader<'a> {
    /// The whole input, for zero-copy slices of it.
    buf: &'a Bytes,
    /// The unread tail of `buf`.
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a Bytes) -> Self {
        Reader { buf, rest: buf }
    }

    /// A reader over a standalone frame that must be of `kind`.
    fn open(buf: &'a Bytes, kind: u8) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        match r.header()? {
            k if k == kind => Ok(r),
            k => Err(WireError::BadTag(k)),
        }
    }

    /// The frame header: checks the version byte, returns the kind.
    fn header(&mut self) -> Result<u8, WireError> {
        match self.u8()? {
            WIRE_VERSION => self.u8(),
            v => Err(WireError::BadVersion(v)),
        }
    }

    /// The next `n` bytes.
    fn slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.rest = tail;
        Ok(head)
    }

    /// The next `n` bytes as a zero-copy slice of the input.
    fn take(&mut self, n: usize) -> Result<Bytes, WireError> {
        let at = self.buf.len() - self.rest.len();
        self.slice(n)?;
        Ok(self.buf.slice(at..at + n))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, tail) = self.rest.split_first_chunk().ok_or(WireError::Truncated)?;
        self.rest = tail;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.array().map(u8::from_le_bytes)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        self.array().map(f64::from_le_bytes)
    }

    /// `n` values read by `item`. `n` is an unchecked wire field, so the
    /// vector is pre-sized for no more memory than the unread input holds.
    fn many<T>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let mut out = Vec::with_capacity(n.min(self.rest.len() / size_of::<T>().max(1)));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A stamp of `n` components, filled in place. The length is checked
    /// against the unread input before any component is read.
    fn stamp(&mut self, n: usize) -> Result<VectorTimestamp, WireError> {
        let bytes = self.slice(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Everything not yet read: a wrapped frame, decoded on its own.
    fn remainder(&mut self) -> Bytes {
        self.take(self.rest.len()).expect("the unread tail is in bounds")
    }

    /// End of a layout: every byte must have been read.
    fn finish(self) -> Result<(), WireError> {
        match self.rest.len() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

/// Every frame opens `[version][kind]`. Kinds that carry a sequence number
/// follow it with that `u64`, and kinds that carry other bytes with a `u32`
/// length or member count. Written here once, for [`encode_frame`] and for
/// the functions that prepend a header to an existing encoding.
fn put_head(s: &mut impl Sink, kind: u8, seq: Option<u64>, len: Option<usize>) {
    s.u8(WIRE_VERSION);
    s.u8(kind);
    if let Some(seq) = seq {
        s.u64(seq);
    }
    if let Some(len) = len {
        s.u32(len as u32);
    }
}

/// A frame of `kind` whose header is followed by `body` verbatim.
fn prepend_head(kind: u8, seq: u64, len: Option<usize>, body: &[u8]) -> Bytes {
    exact!(|s| {
        put_head(s, kind, Some(seq), len);
        s.slice(body)
    })
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// Encode a frame (version + kind + payload) into one buffer allocated at
/// exactly its counted size.
///
/// The returned [`Bytes`] is the encode-once handle of the zero-copy send
/// path: cloning it is a reference-count bump, so one encoding can be
/// handed to every outgoing mirror channel (and retained in a
/// retransmission window) without re-encoding or copying. Transports accept
/// it directly via [`crate::Transport::send_encoded`].
pub fn encode_frame(frame: &Frame) -> Bytes {
    exact!(|s| put_frame(s, frame))
}

/// Build the encoded form of `Frame::Seq { seq, inner }` by prepending the
/// envelope header to the inner frame's existing encoding.
///
/// A Seq envelope embeds its inner frame's encoding verbatim as a suffix,
/// so a sender that already holds `encode_frame(inner)` (e.g. from the
/// encode-once fan-out) can build the envelope with one copy behind the
/// header instead of re-encoding the payload.
pub fn encode_seq_envelope(seq: u64, inner_encoded: &Bytes) -> Bytes {
    prepend_head(KIND_SEQ, seq, None, inner_encoded)
}

/// Build the encoded form of `Frame::EdgeEvent { pub_seq, event }` by
/// prepending the publication-sequence header to the event's existing
/// [`Frame::Data`] encoding.
///
/// This is the edge tier's encode-once delivery path: the mirror's applied
/// event is encoded exactly once, by one `encode_frame`, and every
/// subscribed connection's write queue holds the same `Bytes` — building
/// the delivery frame costs one header and one copy, regardless of fan-out
/// width.
pub fn encode_edge_event(pub_seq: u64, data_encoded: &Bytes) -> Bytes {
    prepend_head(KIND_EDGE_EVENT, pub_seq, None, data_encoded)
}

/// Build the encoded form of `Frame::Reseed { pub_seq, snapshot }` from an
/// already-encoded snapshot ([`encode_snapshot`] output — e.g. the §13
/// cache's shared encoding), copied once behind the header.
pub fn encode_reseed(pub_seq: u64, snapshot_wire: &Bytes) -> Bytes {
    prepend_head(KIND_RESEED, pub_seq, Some(snapshot_wire.len()), snapshot_wire)
}

/// Build the encoded form of `Frame::DeltaSnapshot { pub_seq, delta }` from
/// an already-encoded delta ([`encode_delta`] output — e.g. the StateSync
/// cache's shared encoding), copied once behind the header.
pub fn encode_delta_reseed(pub_seq: u64, delta_wire: &Bytes) -> Bytes {
    prepend_head(KIND_DELTA_SNAPSHOT, pub_seq, Some(delta_wire.len()), delta_wire)
}

/// Build the encoded form of `Frame::Batch` from already-encoded member
/// frames, without re-encoding any of them.
///
/// This is the hot path of the batching bridge writer: each member is an
/// `encode_frame` output the writer made, and the batch frame is their
/// concatenation behind a count header.
pub fn encode_batch_from_encoded(parts: &[Bytes]) -> Bytes {
    exact!(|s| {
        put_head(s, KIND_BATCH, None, Some(parts.len()));
        for p in parts {
            s.u32(p.len() as u32);
            s.slice(p);
        }
    })
}

fn put_frame(s: &mut impl Sink, frame: &Frame) {
    match frame {
        Frame::Data(e) => {
            put_head(s, KIND_DATA, None, None);
            put_event(s, e);
        }
        Frame::Control(c) => {
            put_head(s, KIND_CONTROL, None, None);
            put_control(s, c);
        }
        Frame::Seq { seq, inner } => {
            put_head(s, KIND_SEQ, Some(*seq), None);
            put_frame(s, inner);
        }
        Frame::Ack { cum } => put_head(s, KIND_ACK, Some(*cum), None),
        Frame::Hello { next } => put_head(s, KIND_HELLO, Some(*next), None),
        Frame::Batch(frames) => {
            put_head(s, KIND_BATCH, None, Some(frames.len()));
            for f in frames {
                let mut len = Count(0);
                put_frame(&mut len, f);
                s.u32(len.0 as u32);
                put_frame(s, f);
            }
        }
        Frame::Subscribe { client, filter } => {
            put_head(s, KIND_SUBSCRIBE, None, None);
            s.u64(*client);
            match filter {
                SubscriptionFilter::All => s.u8(0),
                SubscriptionFilter::Flights(ids) => {
                    s.u8(1);
                    s.u32(ids.len() as u32);
                    for id in ids {
                        s.u32(*id);
                    }
                }
            }
        }
        Frame::Resume { client, last_seq } => {
            put_head(s, KIND_RESUME, None, None);
            s.u64(*client);
            s.u64(*last_seq);
        }
        Frame::EdgeEvent { pub_seq, event } => {
            put_head(s, KIND_EDGE_EVENT, Some(*pub_seq), None);
            // The embedded Data frame is byte-identical to its standalone
            // encoding, so `encode_edge_event` can prepend this header to a
            // cached encoding without re-encoding the event.
            put_head(s, KIND_DATA, None, None);
            put_event(s, event);
        }
        Frame::Reseed { pub_seq, snapshot } => {
            put_head(s, KIND_RESEED, Some(*pub_seq), Some(snapshot.len()));
            s.slice(snapshot);
        }
        Frame::DeltaSnapshot { pub_seq, delta } => {
            put_head(s, KIND_DELTA_SNAPSHOT, Some(*pub_seq), Some(delta.len()));
            s.slice(delta);
        }
    }
}

/// Decode a frame from a buffer (consumes it). The frame must fill the
/// buffer exactly.
pub fn decode_frame(buf: Bytes) -> Result<Frame, WireError> {
    decode_frame_at(buf, 0)
}

fn decode_frame_at(buf: Bytes, depth: u8) -> Result<Frame, WireError> {
    let mut r = Reader::new(&buf);
    let frame = match r.header()? {
        KIND_DATA => Frame::Data(Arc::new(decode_event(&mut r)?)),
        KIND_CONTROL => Frame::Control(decode_control(&mut r)?),
        // A Seq envelope may not carry another Seq envelope: one level of
        // nesting is all the protocol produces, and the cap keeps a corrupt
        // or hostile frame from driving unbounded recursion.
        KIND_SEQ if depth == 0 => {
            let seq = r.u64()?;
            Frame::Seq { seq, inner: Box::new(decode_frame_at(r.remainder(), depth + 1)?) }
        }
        KIND_ACK if depth < 2 => Frame::Ack { cum: r.u64()? },
        KIND_HELLO if depth < 2 => Frame::Hello { next: r.u64()? },
        // A batch may stand alone or sit inside one Seq envelope; its
        // members (decoded at depth 2) may only be Data/Control frames —
        // no nested batches, no reliability frames smuggled inside.
        KIND_BATCH if depth <= 1 => {
            let count = r.u32()? as usize;
            Frame::Batch(r.many(count, |r| {
                let len = r.u32()? as usize;
                decode_frame_at(r.take(len)?, 2)
            })?)
        }
        // Edge-tier frames are top-level only: the edge protocol never
        // wraps them in Seq envelopes (pub_seq IS the sequencing) and never
        // batches them through Frame::Batch (delivery batching reuses the
        // shared Data encodings directly).
        KIND_SUBSCRIBE if depth == 0 => {
            let client = r.u64()?;
            let filter = match r.u8()? {
                0 => SubscriptionFilter::All,
                1 => {
                    let n = r.u32()? as usize;
                    SubscriptionFilter::Flights(r.many(n, Reader::u32)?)
                }
                t => return Err(WireError::BadTag(t)),
            };
            Frame::Subscribe { client, filter }
        }
        KIND_RESUME if depth == 0 => Frame::Resume { client: r.u64()?, last_seq: r.u64()? },
        KIND_EDGE_EVENT if depth == 0 => {
            let pub_seq = r.u64()?;
            // The remainder is an embedded Data frame, verbatim; decoding
            // at depth 2 keeps reliability/edge frames from hiding inside.
            match decode_frame_at(r.remainder(), 2)? {
                Frame::Data(event) => Frame::EdgeEvent { pub_seq, event },
                _ => return Err(WireError::BadTag(KIND_EDGE_EVENT)),
            }
        }
        KIND_RESEED if depth == 0 => {
            let pub_seq = r.u64()?;
            let len = r.u32()? as usize;
            // Zero-copy: the snapshot stays a slice of the receive buffer
            // until the client decodes it with `decode_snapshot`.
            Frame::Reseed { pub_seq, snapshot: r.take(len)? }
        }
        KIND_DELTA_SNAPSHOT if depth == 0 => {
            let pub_seq = r.u64()?;
            let len = r.u32()? as usize;
            // Zero-copy, like Reseed: decoded by the client with
            // `decode_delta` when it installs the catch-up.
            Frame::DeltaSnapshot { pub_seq, delta: r.take(len)? }
        }
        t => return Err(WireError::BadTag(t)),
    };
    r.finish()?;
    Ok(frame)
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// Encode an event. Layout (`EVENT_HEADER_WIRE_SIZE` is its fixed prefix):
/// stream u16, seq u64, flight u32, body-tag u8, stamp-count u16,
/// padding-len u32, ingress u64, stamp components, body fields, padding
/// zeros.
pub fn encode_event(e: &Event, buf: &mut BytesMut) {
    put_event(buf, e);
}

fn put_event(s: &mut impl Sink, e: &Event) {
    s.u16(e.stream);
    s.u64(e.seq);
    s.u32(e.flight);
    s.u8(e.body.tag());
    s.u16(e.stamp.width() as u16);
    s.u32(e.padding);
    s.u64(e.ingress_us);
    for &c in e.stamp.components() {
        s.u64(c);
    }
    match &e.body {
        EventBody::Position(p) => put_fix(s, p),
        EventBody::Status(st) => s.u8(*st as u8),
        EventBody::Boarding { boarded, expected } => {
            s.u32(*boarded);
            s.u32(*expected);
        }
        EventBody::Derived { status, collapsed } => {
            s.u8(*status as u8);
            s.u32(*collapsed);
        }
        EventBody::Coalesced { last, count } => {
            put_fix(s, last);
            s.u32(*count);
        }
        EventBody::Opaque(b) => {
            s.u32(b.len() as u32);
            s.slice(b);
        }
        EventBody::Baggage { loaded, reconciled } => {
            s.u32(*loaded);
            s.u32(*reconciled);
        }
    }
    // Padding dominates the wire size of benchmark-scale events (~1 KiB):
    // fill it with bulk copies from a static zero block.
    let mut left = e.padding as usize;
    while left > 0 {
        let n = left.min(ZERO_PAD.len());
        s.slice(&ZERO_PAD[..n]);
        left -= n;
    }
}

/// Source block for zero padding in [`encode_event`].
static ZERO_PAD: [u8; 1024] = [0; 1024];

fn decode_event(r: &mut Reader) -> Result<Event, WireError> {
    let stream = r.u16()?;
    let seq = r.u64()?;
    let flight = r.u32()?;
    let tag = r.u8()?;
    let stamp_n = r.u16()? as usize;
    let padding = r.u32()?;
    let ingress_us = r.u64()?;
    let stamp = r.stamp(stamp_n)?;
    let body = match tag {
        0 => EventBody::Position(decode_fix(r)?),
        1 => EventBody::Status(decode_status(r)?),
        2 => EventBody::Boarding { boarded: r.u32()?, expected: r.u32()? },
        3 => EventBody::Derived { status: decode_status(r)?, collapsed: r.u32()? },
        4 => EventBody::Coalesced { last: decode_fix(r)?, count: r.u32()? },
        5 => {
            // Zero-copy: the payload is a slice of the receive buffer.
            let n = r.u32()? as usize;
            EventBody::Opaque(r.take(n)?)
        }
        6 => EventBody::Baggage { loaded: r.u32()?, reconciled: r.u32()? },
        t => return Err(WireError::BadTag(t)),
    };
    r.take(padding as usize)?;
    Ok(Event { stream, seq, flight, body, stamp, padding, ingress_us })
}

fn put_fix(s: &mut impl Sink, p: &PositionFix) {
    s.f64(p.lat);
    s.f64(p.lon);
    s.f64(p.alt_ft);
    s.f64(p.speed_kts);
    s.f64(p.heading_deg);
}

fn decode_fix(r: &mut Reader) -> Result<PositionFix, WireError> {
    Ok(PositionFix {
        lat: r.f64()?,
        lon: r.f64()?,
        alt_ft: r.f64()?,
        speed_kts: r.f64()?,
        heading_deg: r.f64()?,
    })
}

fn decode_status(r: &mut Reader) -> Result<FlightStatus, WireError> {
    let b = r.u8()?;
    FlightStatus::from_u8(b).ok_or(WireError::BadTag(b))
}

// ---------------------------------------------------------------------
// Control messages
// ---------------------------------------------------------------------

const CTRL_CHKPT: u8 = 0;
const CTRL_REP: u8 = 1;
const CTRL_COMMIT: u8 = 2;

fn put_control(s: &mut impl Sink, c: &ControlMsg) {
    match c {
        ControlMsg::Chkpt { round, stamp, epoch, term } => {
            s.u8(CTRL_CHKPT);
            s.u64(*round);
            s.u64(*term);
            s.u64(*epoch);
            put_stamp(s, stamp);
        }
        ControlMsg::ChkptRep { round, site, stamp, monitor, term } => {
            s.u8(CTRL_REP);
            s.u64(*round);
            s.u64(*term);
            s.u16(*site);
            put_stamp(s, stamp);
            s.u64(monitor.ready_len);
            s.u64(monitor.backup_len);
            s.u64(monitor.pending_requests);
        }
        ControlMsg::Commit { round, stamp, epoch, term, adapt } => {
            s.u8(CTRL_COMMIT);
            s.u64(*round);
            s.u64(*term);
            s.u64(*epoch);
            put_stamp(s, stamp);
            match adapt {
                None => s.u8(0),
                Some(d) => {
                    s.u8(1);
                    put_params(s, &d.params);
                    put_kind(s, &d.mirror_fn);
                    put_partition(s, &d.partition);
                }
            }
        }
    }
}

fn decode_control(r: &mut Reader) -> Result<ControlMsg, WireError> {
    let tag = r.u8()?;
    let round = r.u64()?;
    let term = r.u64()?;
    match tag {
        CTRL_CHKPT => {
            let epoch = r.u64()?;
            Ok(ControlMsg::Chkpt { round, stamp: decode_stamp(r)?, epoch, term })
        }
        CTRL_REP => {
            let site = r.u16()?;
            let stamp = decode_stamp(r)?;
            let monitor = MonitorReport {
                ready_len: r.u64()?,
                backup_len: r.u64()?,
                pending_requests: r.u64()?,
            };
            Ok(ControlMsg::ChkptRep { round, site, stamp, monitor, term })
        }
        CTRL_COMMIT => {
            let epoch = r.u64()?;
            let stamp = decode_stamp(r)?;
            let adapt = match r.u8()? {
                0 => None,
                1 => Some(AdaptDirective {
                    params: decode_params(r)?,
                    mirror_fn: decode_kind(r)?,
                    partition: decode_partition(r)?,
                }),
                t => return Err(WireError::BadTag(t)),
            };
            Ok(ControlMsg::Commit { round, stamp, epoch, term, adapt })
        }
        t => Err(WireError::BadTag(t)),
    }
}

fn put_stamp(s: &mut impl Sink, stamp: &VectorTimestamp) {
    s.u16(stamp.width() as u16);
    for &c in stamp.components() {
        s.u64(c);
    }
}

fn decode_stamp(r: &mut Reader) -> Result<VectorTimestamp, WireError> {
    let n = r.u16()? as usize;
    r.stamp(n)
}

fn put_partition(s: &mut impl Sink, p: &Option<PartitionMap>) {
    match p {
        None => s.u8(0),
        Some(pm) => {
            s.u8(1);
            s.u64(pm.epoch());
            let slots = pm.slot_table();
            s.u16(slots.len() as u16);
            for &g in slots {
                s.u16(g);
            }
        }
    }
}

fn decode_partition(r: &mut Reader) -> Result<Option<PartitionMap>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let epoch = r.u64()?;
            let n = r.u16()? as usize;
            let slots = r.many(n, Reader::u16)?;
            // from_parts normalizes a wrong-length table instead of letting
            // a malformed frame panic the routing path.
            Ok(Some(PartitionMap::from_parts(epoch, slots)))
        }
        t => Err(WireError::BadTag(t)),
    }
}

fn put_params(s: &mut impl Sink, p: &MirrorParams) {
    s.u8(p.coalesce as u8);
    s.u32(p.coalesce_max);
    s.u32(p.checkpoint_every);
    s.u32(p.overwrite_max);
    s.u64(p.generation);
}

fn decode_params(r: &mut Reader) -> Result<MirrorParams, WireError> {
    Ok(MirrorParams {
        coalesce: r.u8()? != 0,
        coalesce_max: r.u32()?,
        checkpoint_every: r.u32()?,
        overwrite_max: r.u32()?,
        generation: r.u64()?,
    })
}

fn put_kind(s: &mut impl Sink, k: &Option<MirrorFnKind>) {
    match k {
        None => s.u8(0),
        Some(MirrorFnKind::None) => s.u8(1),
        Some(MirrorFnKind::Simple) => s.u8(2),
        Some(MirrorFnKind::Selective { overwrite }) => {
            s.u8(3);
            s.u32(*overwrite);
        }
        Some(MirrorFnKind::Coalescing { coalesce, checkpoint_every }) => {
            s.u8(4);
            s.u32(*coalesce);
            s.u32(*checkpoint_every);
        }
        Some(MirrorFnKind::Overwriting { overwrite, checkpoint_every }) => {
            s.u8(5);
            s.u32(*overwrite);
            s.u32(*checkpoint_every);
        }
    }
}

fn decode_kind(r: &mut Reader) -> Result<Option<MirrorFnKind>, WireError> {
    Ok(Some(match r.u8()? {
        0 => return Ok(None),
        1 => MirrorFnKind::None,
        2 => MirrorFnKind::Simple,
        3 => MirrorFnKind::Selective { overwrite: r.u32()? },
        4 => MirrorFnKind::Coalescing { coalesce: r.u32()?, checkpoint_every: r.u32()? },
        5 => MirrorFnKind::Overwriting { overwrite: r.u32()?, checkpoint_every: r.u32()? },
        t => return Err(WireError::BadTag(t)),
    }))
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
/// position-presence u8, position fix (when present), position-seq u64,
/// boarded u32, expected u32, bags-loaded u32, bags-reconciled u32,
/// updates u64.
///
/// The returned [`Bytes`] is the encode-once handle for storm serving: the
/// gateway's epoch cache encodes a snapshot once and hands the same buffer
/// (a reference-count bump per request) to every client of that epoch.
pub fn encode_snapshot(snap: &Snapshot) -> Bytes {
    let entries = by_id(snap.iter());
    exact!(|s| {
        put_head(s, KIND_SNAPSHOT, None, Some(entries.len()));
        put_stamp(s, &snap.as_of);
        for (id, f) in &entries {
            put_flight_entry(s, **id, f);
        }
    })
}

/// Flight entries in ascending id order: the canonical encoding order.
fn by_id<'a>(
    entries: impl Iterator<Item = (&'a u32, &'a FlightView)>,
) -> Vec<(&'a u32, &'a FlightView)> {
    let mut entries: Vec<_> = entries.collect();
    entries.sort_unstable_by_key(|(id, _)| **id);
    entries
}

/// One snapshot/delta flight entry, in the field order
/// [`encode_snapshot`] documents. Shared by [`encode_snapshot`] and
/// [`encode_delta`], so a delta entry is byte-identical to the same
/// flight's full-snapshot entry.
fn put_flight_entry(s: &mut impl Sink, id: u32, f: &FlightView) {
    s.u32(id);
    s.u8(f.status as u8);
    match &f.position {
        Some(p) => {
            s.u8(1);
            put_fix(s, p);
        }
        None => s.u8(0),
    }
    s.u64(f.position_seq);
    s.u32(f.boarded);
    s.u32(f.expected);
    s.u32(f.bags_loaded);
    s.u32(f.bags_reconciled);
    s.u64(f.updates);
}

/// The counted size of the smallest flight entry: one without a position
/// fix.
fn min_flight_entry() -> usize {
    let mut n = Count(0);
    put_flight_entry(&mut n, 0, &FlightView::default());
    n.0
}

/// Decode `count` flight entries. The map is pre-sized for no more entries
/// than the remaining bytes can hold: `count` is an unchecked wire field.
fn decode_flight_entries(r: &mut Reader, count: usize) -> Result<FlightMap, WireError> {
    let capacity = count.min(r.rest.len() / min_flight_entry());
    let mut flights = FlightMap::with_capacity_and_hasher(capacity, Default::default());
    for _ in 0..count {
        let id = r.u32()?;
        let status = decode_status(r)?;
        let position = match r.u8()? {
            0 => None,
            1 => Some(decode_fix(r)?),
            t => return Err(WireError::BadTag(t)),
        };
        let view = FlightView {
            status,
            position,
            position_seq: r.u64()?,
            boarded: r.u32()?,
            expected: r.u32()?,
            bags_loaded: r.u32()?,
            bags_reconciled: r.u32()?,
            updates: r.u64()?,
        };
        flights.insert(id, view);
    }
    Ok(flights)
}

/// Decode a snapshot frame produced by [`encode_snapshot`]. The restored
/// snapshot compares equal to the original (and `restore()` hashes
/// identically to the captured state).
pub fn decode_snapshot(buf: Bytes) -> Result<Snapshot, WireError> {
    let mut r = Reader::open(&buf, KIND_SNAPSHOT)?;
    let count = r.u32()? as usize;
    let as_of = decode_stamp(&mut r)?;
    let flights = decode_flight_entries(&mut r, count)?;
    r.finish()?;
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
    let entries = by_id(delta.changed().iter());
    exact!(|s| {
        put_head(s, KIND_DELTA, None, None);
        put_stamp(s, &delta.base);
        put_stamp(s, &delta.as_of);
        s.u32(delta.removed().len() as u32);
        for id in delta.removed() {
            s.u32(*id);
        }
        s.u32(entries.len() as u32);
        for (id, f) in &entries {
            put_flight_entry(s, **id, f);
        }
    })
}

/// Decode a delta frame produced by [`encode_delta`]. The restored delta
/// compares equal to the original, so applying it converges the consumer to
/// the producer's `state_hash` exactly as the un-encoded delta would.
pub fn decode_delta(buf: Bytes) -> Result<StateDelta, WireError> {
    let mut r = Reader::open(&buf, KIND_DELTA)?;
    let base = decode_stamp(&mut r)?;
    let as_of = decode_stamp(&mut r)?;
    let removed_n = r.u32()? as usize;
    let removed = r.many(removed_n, Reader::u32)?;
    let count = r.u32()? as usize;
    let changed = decode_flight_entries(&mut r, count)?;
    r.finish()?;
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
            let encoded = exact!(|s| put_kind(s, &k));
            let mut r = Reader::new(&encoded);
            assert_eq!(decode_kind(&mut r).unwrap(), k);
            assert_eq!(r.finish(), Ok(()));
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
        let parts: Vec<Bytes> = frames.iter().map(encode_frame).collect();
        assert_eq!(encode_batch_from_encoded(&parts), encode_frame(&Frame::Batch(frames)));
    }

    #[test]
    fn seq_envelope_helper_matches_frame_encoding() {
        let inner = Frame::Data(Arc::new(stamped_event()));
        let encoded = encode_frame(&inner);
        let expect = encode_frame(&Frame::Seq { seq: 99, inner: Box::new(inner) });
        assert_eq!(encode_seq_envelope(99, &encoded), expect);
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
        let data_encoded = encode_frame(&Frame::Data(Arc::clone(&e)));
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

    /// A flight count edited downward used to decode into fewer flights;
    /// the entry it no longer covers is now reported as trailing.
    #[test]
    fn snapshot_with_a_lowered_flight_count_is_rejected() {
        let snap = Snapshot::capture(&snapshot_state(), VectorTimestamp::from_components(vec![2]));
        assert_eq!(snap.flight_count(), 26);
        let mut bad = encode_snapshot(&snap).to_vec();
        bad[2..6].copy_from_slice(&25u32.to_le_bytes());
        // Flight 999, the one without a fix, sorts last.
        let last = min_flight_entry();
        assert_eq!(decode_snapshot(Bytes::from(bad)), Err(WireError::Trailing(last)));
    }

    #[test]
    fn batch_with_a_lowered_member_count_is_rejected() {
        let members: Vec<Frame> = (1..=3)
            .map(|seq| Frame::Data(Arc::new(Event::delta_status(seq, 8, FlightStatus::Landed))))
            .collect();
        let last = 4 + encode_frame(&members[2]).len();
        let mut bad = encode_frame(&Frame::Batch(members)).to_vec();
        bad[2..6].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(decode_frame(Bytes::from(bad)), Err(WireError::Trailing(last)));
    }

    #[test]
    fn ack_with_trailing_junk_is_rejected() {
        let mut bad = encode_frame(&Frame::Ack { cum: 5 }).to_vec();
        bad.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
        assert_eq!(decode_frame(Bytes::from(bad)), Err(WireError::Trailing(4)));
    }

    #[test]
    fn wrapped_frames_must_fill_their_wrapper() {
        // A Seq envelope, a batch member and an EdgeEvent payload each own
        // exactly the bytes their wrapper gives them.
        let ack = encode_frame(&Frame::Ack { cum: 1 });
        let mut padded = ack.to_vec();
        padded.push(0);
        let padded = Bytes::from(padded);
        assert_eq!(decode_frame(encode_seq_envelope(1, &padded)), Err(WireError::Trailing(1)));
        let data = encode_frame(&Frame::Data(Arc::new(stamped_event())));
        let mut padded = data.to_vec();
        padded.push(0);
        let padded = Bytes::from(padded);
        let batch = encode_batch_from_encoded(&[data.clone(), padded.clone()]);
        assert_eq!(decode_frame(batch), Err(WireError::Trailing(1)));
        assert_eq!(decode_frame(encode_edge_event(2, &padded)), Err(WireError::Trailing(1)));
        assert!(decode_frame(encode_edge_event(2, &data)).is_ok());
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
