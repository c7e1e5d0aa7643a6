//! # mirror-edge — massive-fan-out subscriber delivery tier
//!
//! The paper's real consumers are airport displays: tens of thousands of
//! long-lived subscribers per mirror that must receive derived state
//! continuously. The cluster's gateway serves synchronous requests; this
//! crate adds the **push** tier in front of it — an event-loop connection
//! layer that fans each applied event out to 100k+ subscribers per host,
//! built from ingredients the repo already has:
//!
//! * **Encode-once delivery** — one [`EdgeEvent`] per applied event holds
//!   the event and a lazily computed wire encoding
//!   ([`mirror_echo::wire::encode_edge_event`]); every subscribed
//!   connection's queue shares it by reference count, so fan-out width
//!   never multiplies encoding work (the PR-§11 `Bytes` pattern at
//!   subscriber scale).
//! * **Subscriptions as routing state** — each client subscribes to all
//!   flights or a flight-id set ([`mirror_echo::SubscriptionFilter`],
//!   carried on `Frame::Subscribe`); the edge keeps one per-flight index
//!   behind its one lock (the Gryphon information-flow view), and fans
//!   each applied run out on the publishing site's own thread
//!   ([`EdgeServer::follow`]), so per-subscriber order is structural.
//! * **Sequence/ack resume** — the edge stamps every published event with
//!   one global `pub_seq`, retains a bounded window, and replays it to a
//!   reconnecting client from its last received sequence
//!   (`Frame::Resume`), falling back to a cached-snapshot reseed
//!   (`Frame::Reseed`, the §13 single-flight pattern) when the resume
//!   point has fallen out of the window — or, cheaper, to a **delta
//!   reseed** (`Frame::DeltaSnapshot`) carrying only the flights changed
//!   since a capture frontier the client's held state already covers.
//! * **Slow clients get the paper's own medicine** — per-subscriber
//!   conflation/overwriting: a slow display's pending buffer holds at most
//!   the *latest* event per flight and event kind (exactly the overwriting
//!   mirror function of §4.3 applied per connection), with hard caps and a
//!   typed [`EdgeDisconnect::SlowClient`] disconnect on violation. Memory
//!   per subscriber is bounded by construction, and because the published
//!   stream's payloads are absolute and monotone per kind, the conflated
//!   stream converges to the *same* per-flight state as the full stream
//!   (see [`views_equivalent`]).
//!
//! Transport comes in two flavors with identical semantics: the in-process
//! "virtual socket" ([`EdgeClient`]) that makes 100k subscribers on one
//! host benchable, and a nonblocking-`std::net` TCP front ([`tcp`]) with a
//! hand-rolled readiness loop for realism tests — no external event
//! library.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod server;
pub mod tcp;

pub use server::{
    Delivery, EdgeClient, EdgeConfig, EdgeCounters, EdgeDisconnect, EdgeEvent, EdgeServer,
    EdgeStats, ResumeError, SnapshotFn, StateProvider,
};

use mirror_ede::FlightView;

/// Are two per-flight views equivalent in *state*?
///
/// Compares every field except the `updates` odometer, which counts
/// applied events and therefore legitimately differs between a consumer of
/// the full stream and a consumer of a conflated stream (conflation's
/// whole point is applying fewer events to reach the same state). This is
/// the comparison the conflation-equivalence tests and the reconnect
/// chaos harness assert with.
pub fn views_equivalent(a: &FlightView, b: &FlightView) -> bool {
    a.status == b.status
        && a.position == b.position
        && a.position_seq == b.position_seq
        && a.boarded == b.boarded
        && a.expected == b.expected
        && a.bags_loaded == b.bags_loaded
        && a.bags_reconciled == b.bags_reconciled
}
