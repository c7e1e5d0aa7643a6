//! # mirror-core — adaptable event mirroring for cluster servers
//!
//! This crate implements the primary contribution of *Adaptable Mirroring in
//! Cluster Servers* (Gavrilovska, Schwan, Oleson — HPDC 2001): a
//! middleware-level framework that continuously mirrors streaming update
//! events received by the central node of a cluster server to other cluster
//! nodes, so that the load of processing those events and of answering
//! bursty client requests (e.g. thin-client state initialization) can be
//! spread across the cluster.
//!
//! The framework's distinguishing features, all implemented here:
//!
//! * **Application-specific mirroring** ([`rules`], [`mirrorfn`]) — because
//!   mirroring happens at the middleware level rather than as network
//!   multicast, application semantics can shrink mirroring traffic:
//!   type/content filters, event *coalescing*, *overwriting* sequences of
//!   superseded events, and complex sequence/tuple rules (e.g. discard FAA
//!   position events once a `flight landed` status has been seen).
//! * **Checkpointing** ([`checkpoint`]) — a modified two-phase commit that
//!   keeps mirror application views consistent while letting every site
//!   prune its backup queue; it needs no NO-votes, no aborts and no
//!   timeouts because a later checkpoint subsumes an incomplete earlier one.
//! * **Adaptive mirroring** ([`adapt`]) — monitored variables with
//!   primary/secondary (hysteresis) thresholds drive runtime switches
//!   between mirroring modes, trading mirror consistency for client-visible
//!   quality of service; decisions are made centrally and piggybacked on
//!   checkpoint control traffic.
//!
//! The site logic is written *sans-IO*: the auxiliary unit
//! ([`aux_unit::AuxUnit`]) is a deterministic step machine that consumes
//! [`aux_unit::AuxInput`]s and emits [`aux_unit::AuxAction`]s. The same
//! logic therefore runs unchanged under the real threads-and-channels
//! runtime (`mirror-runtime`) and under the deterministic discrete-event
//! cluster simulator (`mirror-sim`) used to regenerate the paper's figures.
//!
//! The public configuration surface mirrors the paper's Table 1 API; see
//! [`api`].

#![warn(missing_docs)]

pub mod adapt;
pub mod api;
pub mod aux_unit;
pub mod checkpoint;
pub mod control;
pub mod event;
pub mod hashing;
pub mod membership;
pub mod metrics;
pub mod mirrorfn;
pub mod params;
pub mod partition;
pub mod queue;
pub mod ring;
pub mod rules;
pub mod status;
pub mod timestamp;

pub use adapt::{
    AdaptAction, AdaptationController, MonitorKind, MonitorThresholds, ScaleDecision, ScalePolicy,
};
pub use api::{MirrorConfig, MirrorHandle};
pub use aux_unit::{AuxAction, AuxInput, AuxUnit, SiteId, CENTRAL_SITE};
pub use checkpoint::{CentralCheckpointer, CheckpointMsg, MainUnitResponder, MirrorRelay};
pub use control::ControlMsg;
pub use event::{Event, EventBody, EventType, FlightId, FlightStatus, PositionFix, StreamId};
pub use hashing::{fib_mix64, fib_slot, BuildFlightHasher, FlightIdHasher, FIB_MULT};
pub use membership::{MembershipError, MembershipRegistry, MembershipView, SiteState};
pub use mirrorfn::{MirrorDecision, MirrorFn, MirrorFnKind};
pub use params::MirrorParams;
pub use partition::{GroupId, PartitionMap, PARTITION_SLOTS};
pub use queue::{BackupQueue, ReadyQueue};
pub use ring::{
    mpsc, spsc, MpscReceiver, MpscSender, RingProbe, RingRecv, RingSend, RingStats, SpscReceiver,
    SpscSender,
};
pub use rules::{RuleOutcome, RuleSet};
pub use status::StatusTable;
pub use timestamp::{Seq, StampOrdering, VectorTimestamp};
