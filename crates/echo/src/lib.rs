//! # mirror-echo — typed event-channel substrate
//!
//! The paper moves data with the **ECho** event communication
//! infrastructure \[Eisenhauer, Bustamante, Schwan — HPDC-9\]:
//! publish/subscribe *event channels*, with a *data* channel and a
//! bi-directional *control* channel between each pair of communicating
//! units. ECho is not available as open source, so this crate provides the
//! equivalent substrate:
//!
//! * [`wire`] — a compact, versioned binary wire format for events,
//!   control messages, snapshots and deltas ([`bytes`]-based), and the only
//!   place a byte layout is stated: sizes are what its encoders count, and
//!   its decoders reject input that is too short or too long. The encoded
//!   size of an event is exactly [`mirror_core::event::Event::wire_size`],
//!   which is also what the cluster simulator charges to links — real and
//!   simulated byte accounting agree, and a test pins them together.
//! * [`channel`] — in-process typed event channels with multiple
//!   subscribers ([`crossbeam`] under the hood), paired into
//!   [`channel::ChannelPair`]s (data + control) as the paper prescribes.
//! * [`transport`] — a length-delimited framed TCP transport
//!   (`std::net`) carrying the same wire format between processes, plus a
//!   loopback in-process transport with identical semantics. Both provide
//!   reliable in-order delivery for as long as a connection lives.
//! * [`resilient`] — sequence numbers, cumulative acks, bounded
//!   retransmission and reconnect-with-backoff layered over any transport,
//!   lifting the paper's "reliable communication across mirror sites"
//!   assumption.
//! * [`faults`] — a deterministic, seedable fault-injection decorator
//!   (drops, duplicates, reorders, corruption, forced disconnects) so the
//!   resilient layer — and the whole cluster — can be tested under
//!   adversarial links.

#![warn(missing_docs)]

pub mod channel;
pub mod faults;
pub mod resilient;
pub mod transport;
pub mod wire;

pub use channel::{ChannelPair, Closer, EventChannel, Publisher, Subscriber};
pub use faults::{
    FaultPlan, FaultState, FaultSummary, FaultyTransport, LinkFate, LinkProfile, LinkShaper,
    ThrottleSchedule,
};
pub use resilient::{
    Connector, LinkEvent, LinkHealth, LinkMonitor, ResilientTransport, RetryPolicy,
};
pub use transport::{
    inproc_rendezvous, InProcDialer, InProcListener, InProcTransport, Polled, TcpOptions,
    TcpTransport, Transport,
};
pub use wire::{
    decode_delta, decode_frame, encode_batch_from_encoded, encode_delta, encode_delta_reseed,
    encode_edge_event, encode_frame, encode_reseed, encode_seq_envelope, Frame, SharedEvent,
    SubscriptionFilter, WireError, WIRE_VERSION,
};
