//! # mirror-ede — the Event Derivation Engine substrate
//!
//! The paper's OIS server runs an *Event Derivation Engine* (EDE): code
//! that "performs transactional and analytical processing of newly arrived
//! data events, according to a set of business rules", produces output
//! events for clients, and "provides clients with initial views of the
//! states of operational data on demand" (§2). Delta Air Lines' actual EDE
//! is proprietary; this crate implements an airline-operations engine with
//! the behaviours the evaluation depends on:
//!
//! * a per-flight **lifecycle state machine** ([`flight`]) fed by FAA
//!   position fixes and Delta status events, tolerant of the out-of-order
//!   and superseded updates that selective mirroring produces;
//! * **business rules** ([`engine`]) that derive new application-level
//!   events from combinations of inputs (the paper's examples: "all
//!   passengers of a flight have boarded" from gate-reader records, and
//!   `flight arrived` from `landed`/`at runway`/`at gate`);
//! * a deterministic **operational state store** ([`state`]) — every mirror
//!   applying the same event sequence reaches an identical state, checkable
//!   via a canonical [`state::OperationalState::state_hash`];
//! * **initial-state snapshots** ([`snapshot`]) for thin clients, whose
//!   construction cost scales with state size — the client-request load
//!   whose burstiness motivates adaptive mirroring;
//! * **operations monitoring** ([`ops`]) — the "complex web-based" end of
//!   the paper's client spectrum: crew duty, passenger connections and
//!   aircraft turnarounds derived downstream from the update stream.

#![warn(missing_docs)]

pub mod delta;
pub mod engine;
pub mod flight;
pub mod ops;
pub mod sharded;
pub mod snapshot;
pub mod state;

pub use delta::StateDelta;
pub use engine::{Ede, EdeOutput};
pub use flight::{FlightView, TransitionError};
pub use ops::{OpsAlert, OpsMonitor};
pub use sharded::{ShardMap, ShardedEde};
pub use snapshot::Snapshot;
pub use state::{
    hash_sorted_flights, union_state_hash, BuildFlightHasher, FlightMap, OperationalState,
    DELTA_BASE_WINDOW,
};
