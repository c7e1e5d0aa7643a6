//! Application-level update events.
//!
//! The paper's workload carries two kinds of incoming streams: FAA flight
//! position updates and Delta-internal flight status updates. The Event
//! Derivation Engine additionally produces *derived* events (e.g. `flight
//! arrived`, composed from `landed`/`at runway`/`at gate`), and the
//! mirroring layer produces *coalesced* events that stand in for a run of
//! superseded originals.
//!
//! Events carry an explicit [`wire_size`](Event::wire_size) so that both the
//! real wire format (`mirror-echo`) and the cluster simulator (`mirror-sim`)
//! account identically for the bytes a given event occupies on a link. The
//! experiments of the paper sweep event payload sizes from a few hundred
//! bytes to 8 KB; `padding` models that sweep without materializing buffers
//! on the simulation path.

use bytes::Bytes;

use crate::timestamp::{Seq, VectorTimestamp};

/// Identifier of an incoming event stream (one vector-timestamp component
/// per stream).
pub type StreamId = u16;

/// Identifier of a flight — the natural partitioning key of the airline OIS
/// workload; overwrite/coalesce rules operate per flight.
pub type FlightId = u32;

/// Conventional stream ids used by the airline workload.
pub mod streams {
    use super::StreamId;
    /// FAA radar-derived flight position stream.
    pub const FAA: StreamId = 0;
    /// Delta-internal flight status stream (gate readers, crew systems…).
    pub const DELTA: StreamId = 1;
}

/// Lifecycle status carried by Delta status events.
///
/// The order of variants follows the flight lifecycle; the EDE's state
/// machine (`mirror-ede`) enforces legal transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum FlightStatus {
    /// Planned; no operational activity yet.
    Scheduled = 0,
    /// Passengers boarding at the gate.
    Boarding = 1,
    /// Pushed back / wheels up.
    Departed = 2,
    /// Cruising between airports.
    EnRoute = 3,
    /// Touched down at the destination.
    Landed = 4,
    /// Taxiing off the runway.
    AtRunway = 5,
    /// Parked at the arrival gate.
    AtGate = 6,
    /// Fully arrived (terminal state; often derived from the
    /// landed/at-runway/at-gate triple).
    Arrived = 7,
    /// Cancelled (terminal state).
    Cancelled = 8,
}

impl FlightStatus {
    /// All statuses, in lifecycle order.
    pub const ALL: [FlightStatus; 9] = [
        FlightStatus::Scheduled,
        FlightStatus::Boarding,
        FlightStatus::Departed,
        FlightStatus::EnRoute,
        FlightStatus::Landed,
        FlightStatus::AtRunway,
        FlightStatus::AtGate,
        FlightStatus::Arrived,
        FlightStatus::Cancelled,
    ];

    /// Decode from the wire representation.
    pub fn from_u8(v: u8) -> Option<Self> {
        Self::ALL.get(v as usize).copied()
    }
}

/// A single radar position fix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionFix {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Altitude in feet.
    pub alt_ft: f64,
    /// Ground speed in knots.
    pub speed_kts: f64,
    /// Heading in degrees clockwise from north.
    pub heading_deg: f64,
}

impl PositionFix {
    /// Fixed on-wire footprint of a position fix (five little-endian `f64`s).
    pub const WIRE_SIZE: usize = 5 * 8;
}

/// The typed body of an event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventBody {
    /// FAA flight position update.
    Position(PositionFix),
    /// Delta flight status transition.
    Status(FlightStatus),
    /// Gate-reader record: one passenger boarded (`boarded` of `expected`).
    Boarding {
        /// Passengers boarded so far.
        boarded: u32,
        /// Passengers expected on the flight.
        expected: u32,
    },
    /// Baggage-system record: bags loaded into the hold vs. bags
    /// reconciled against boarded passengers (positive passenger-bag
    /// match — a flight should not depart with unreconciled bags).
    Baggage {
        /// Bags loaded so far.
        loaded: u32,
        /// Bags reconciled against boarded passengers.
        reconciled: u32,
    },
    /// A derived event produced by business logic (e.g. `flight arrived`),
    /// tagged with the statuses it collapses.
    Derived {
        /// The derived status this event announces.
        status: FlightStatus,
        /// How many constituent events it stands for.
        collapsed: u32,
    },
    /// A coalesced mirror event: the surviving representative of `count`
    /// superseded events. Carries the most recent position.
    Coalesced {
        /// Most recent position fix of the coalesced run.
        last: PositionFix,
        /// Number of original events this one stands for.
        count: u32,
    },
    /// Opaque application payload (used by tests and custom deployments).
    ///
    /// Backed by [`Bytes`] so that cloning an event — which happens at
    /// every queue/channel hop of the mirroring fan-out — bumps a
    /// reference count instead of copying the payload.
    Opaque(Bytes),
}

impl EventBody {
    /// Bytes this body occupies on the wire, excluding header and padding.
    pub fn wire_size(&self) -> usize {
        match self {
            EventBody::Position(_) => PositionFix::WIRE_SIZE,
            EventBody::Status(_) => 1,
            EventBody::Boarding { .. } => 8,
            EventBody::Baggage { .. } => 8,
            EventBody::Derived { .. } => 5,
            EventBody::Coalesced { .. } => PositionFix::WIRE_SIZE + 4,
            EventBody::Opaque(b) => 4 + b.len(),
        }
    }

    /// Discriminant used by the wire format.
    pub fn tag(&self) -> u8 {
        match self {
            EventBody::Position(_) => 0,
            EventBody::Status(_) => 1,
            EventBody::Boarding { .. } => 2,
            EventBody::Derived { .. } => 3,
            EventBody::Coalesced { .. } => 4,
            EventBody::Opaque(_) => 5,
            EventBody::Baggage { .. } => 6,
        }
    }
}

/// The application-visible *type* of an event, used by semantic mirroring
/// rules to select events for filtering/overwriting/combination.
///
/// This is deliberately coarser than [`EventBody`]: rules are written
/// against types ("overwrite FAA position events"), sometimes refined by a
/// target *value* ("discard after Delta status == Landed").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventType {
    /// FAA position update.
    FaaPosition,
    /// Delta status update.
    DeltaStatus,
    /// Gate-reader boarding record.
    Boarding,
    /// Baggage-system reconciliation record.
    Baggage,
    /// Derived/complex event produced by the EDE or by tuple rules.
    Derived,
    /// Coalesced mirror event.
    Coalesced,
    /// Application-defined type.
    Custom(u16),
}

impl EventType {
    /// The event type naturally associated with a body.
    pub fn of(body: &EventBody) -> Self {
        match body {
            EventBody::Position(_) => EventType::FaaPosition,
            EventBody::Status(_) => EventType::DeltaStatus,
            EventBody::Boarding { .. } => EventType::Boarding,
            EventBody::Baggage { .. } => EventType::Baggage,
            EventBody::Derived { .. } => EventType::Derived,
            EventBody::Coalesced { .. } => EventType::Coalesced,
            EventBody::Opaque(_) => EventType::Custom(0),
        }
    }
}

/// Fixed header footprint of every event on the wire: stream id (2) +
/// sequence number (8) + flight id (4) + body tag (1) + stamp component
/// count (2) + padding length (4) + ingress time (8). `mirror-echo`'s
/// encoder produces exactly this layout, so [`Event::wire_size`] is the
/// true on-wire size, not an estimate.
pub const EVENT_HEADER_WIRE_SIZE: usize = 2 + 8 + 4 + 1 + 2 + 4 + 8;

/// An application-level update event flowing through the OIS.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Which incoming stream produced this event.
    pub stream: StreamId,
    /// Stream-unique, monotonically increasing identifier; captures the
    /// event order within its stream (paper §3.3).
    pub seq: Seq,
    /// Flight this event concerns.
    pub flight: FlightId,
    /// Typed payload.
    pub body: EventBody,
    /// Vector timestamp assigned when the event enters the primary site;
    /// empty until the receiving task stamps it.
    pub stamp: VectorTimestamp,
    /// Extra payload bytes carried by the event (models the paper's event
    /// size sweeps without materializing buffers on the simulation path).
    pub padding: u32,
    /// Virtual/real time (µs) at which the event entered the OIS; basis of
    /// the *update delay* metric (Figures 8 and 9).
    pub ingress_us: u64,
}

impl Event {
    /// Create an unstamped event.
    pub fn new(stream: StreamId, seq: Seq, flight: FlightId, body: EventBody) -> Self {
        Event {
            stream,
            seq,
            flight,
            body,
            stamp: VectorTimestamp::empty(),
            padding: 0,
            ingress_us: 0,
        }
    }

    /// Builder-style: attach padding bytes so the event occupies a target
    /// wire size (saturating; header+body bytes are always present).
    pub fn with_total_size(mut self, total: usize) -> Self {
        let base = EVENT_HEADER_WIRE_SIZE + self.body.wire_size() + self.stamp.wire_size();
        self.padding = total.saturating_sub(base) as u32;
        self
    }

    /// Builder-style: set the ingress time.
    pub fn with_ingress_us(mut self, t: u64) -> Self {
        self.ingress_us = t;
        self
    }

    /// Application-level type of this event.
    pub fn event_type(&self) -> EventType {
        EventType::of(&self.body)
    }

    /// The flight status this event implies, if any (used by complex
    /// sequence rules that trigger on a status value).
    pub fn status_value(&self) -> Option<FlightStatus> {
        match &self.body {
            EventBody::Status(s) => Some(*s),
            EventBody::Derived { status, .. } => Some(*status),
            _ => None,
        }
    }

    /// Total bytes this event occupies on a link (header + stamp + body +
    /// padding). Both `mirror-echo` framing and `mirror-sim` link costs use
    /// this figure, keeping real and simulated byte accounting identical.
    pub fn wire_size(&self) -> usize {
        EVENT_HEADER_WIRE_SIZE
            + self.stamp.wire_size()
            + self.body.wire_size()
            + self.padding as usize
    }

    /// Convenience constructor for an FAA position event.
    pub fn faa_position(seq: Seq, flight: FlightId, fix: PositionFix) -> Self {
        Event::new(streams::FAA, seq, flight, EventBody::Position(fix))
    }

    /// Convenience constructor for a Delta status event.
    pub fn delta_status(seq: Seq, flight: FlightId, status: FlightStatus) -> Self {
        Event::new(streams::DELTA, seq, flight, EventBody::Status(status))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix() -> PositionFix {
        PositionFix {
            lat: 33.64,
            lon: -84.42,
            alt_ft: 31000.0,
            speed_kts: 440.0,
            heading_deg: 270.0,
        }
    }

    #[test]
    fn status_roundtrip_through_u8() {
        for s in FlightStatus::ALL {
            assert_eq!(FlightStatus::from_u8(s as u8), Some(s));
        }
        assert_eq!(FlightStatus::from_u8(9), None);
        assert_eq!(FlightStatus::from_u8(255), None);
    }

    #[test]
    fn status_order_follows_lifecycle() {
        assert!(FlightStatus::Scheduled < FlightStatus::Boarding);
        assert!(FlightStatus::Landed < FlightStatus::AtGate);
        assert!(FlightStatus::AtGate < FlightStatus::Arrived);
    }

    #[test]
    fn event_type_of_body() {
        assert_eq!(EventType::of(&EventBody::Position(fix())), EventType::FaaPosition);
        assert_eq!(EventType::of(&EventBody::Status(FlightStatus::Landed)), EventType::DeltaStatus);
        assert_eq!(
            EventType::of(&EventBody::Derived { status: FlightStatus::Arrived, collapsed: 3 }),
            EventType::Derived
        );
        assert_eq!(
            EventType::of(&EventBody::Opaque(Bytes::from_static(&[1, 2]))),
            EventType::Custom(0)
        );
    }

    #[test]
    fn with_total_size_pads_up_to_target() {
        let e = Event::faa_position(1, 100, fix()).with_total_size(1000);
        assert_eq!(e.wire_size(), 1000);
    }

    #[test]
    fn with_total_size_saturates_below_base() {
        let e = Event::faa_position(1, 100, fix());
        let base = e.wire_size();
        let e = e.with_total_size(1); // smaller than header+body
        assert_eq!(e.padding, 0);
        assert_eq!(e.wire_size(), base);
    }

    #[test]
    fn body_wire_sizes_are_stable() {
        assert_eq!(EventBody::Position(fix()).wire_size(), 40);
        assert_eq!(EventBody::Status(FlightStatus::Landed).wire_size(), 1);
        assert_eq!(EventBody::Boarding { boarded: 3, expected: 120 }.wire_size(), 8);
        assert_eq!(EventBody::Opaque(Bytes::from(vec![0u8; 10])).wire_size(), 14);
    }

    #[test]
    fn status_value_extraction() {
        let e = Event::delta_status(7, 42, FlightStatus::Landed);
        assert_eq!(e.status_value(), Some(FlightStatus::Landed));
        let p = Event::faa_position(8, 42, fix());
        assert_eq!(p.status_value(), None);
        let d = Event::new(
            streams::DELTA,
            9,
            42,
            EventBody::Derived { status: FlightStatus::Arrived, collapsed: 3 },
        );
        assert_eq!(d.status_value(), Some(FlightStatus::Arrived));
    }

    #[test]
    fn stamping_grows_wire_size() {
        let mut e = Event::faa_position(1, 5, fix());
        let unstamped = e.wire_size();
        e.stamp = VectorTimestamp::new(2);
        assert!(e.wire_size() > unstamped);
    }
}
