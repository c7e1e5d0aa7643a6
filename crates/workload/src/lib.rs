//! # mirror-workload — synthetic streams and request loads
//!
//! The paper's experiments replay "a demo replay of original FAA streams"
//! containing flight-position entries, interleave Delta-internal status
//! events, and load the server with httperf-generated client requests. We
//! have neither the FAA capture nor httperf's environment; this crate
//! generates the equivalents:
//!
//! * [`faa`] — a seeded synthetic FAA position stream: per-flight great-
//!   circle-ish trajectories sampled at a configurable rate, padded to the
//!   experiment's target event size. What the experiments exploit is the
//!   stream's *structure* — many same-flight position events whose later
//!   entries supersede earlier ones — and the generator reproduces exactly
//!   that.
//! * [`delta`] — the Delta status stream: lifecycle transitions
//!   (boarding → departed → … → at gate) and gate-reader boarding records
//!   keyed to the same flights.
//! * [`requests`] — open-loop client-request arrival schedules mirroring
//!   httperf's constant-rate mode, plus the bursty on/off pattern of §4.3
//!   and a "terminal power-up" recovery storm.
//! * [`scenario`] — a coherent *operational day*: banks of flights with
//!   tail rotations, passenger connections, crew assignments and baggage
//!   reconciliation, plus the plans a downstream operations monitor needs.
//!
//! All generators are deterministic given a seed (the in-tree [`rng::Rng`]),
//! so every figure regenerates bit-identically. [`rng`] also holds the
//! seeded case runner the workspace's property tests share.

#![warn(missing_docs)]

pub mod delta;
pub mod faa;
pub mod requests;
pub mod rng;
pub mod scenario;

pub use delta::DeltaStreamConfig;
pub use faa::FaaStreamConfig;
pub use requests::{RequestPattern, RequestSchedule};
pub use scenario::{Scenario, ScenarioConfig};

use mirror_core::event::Event;

/// A timed arrival: (virtual time µs, event).
pub type TimedEvent = (u64, Event);

/// Merge several event schedules into one, ordered by time (stable across
/// inputs: ties preserve the input ordering faa-before-delta as listed).
pub fn merge_schedules(mut schedules: Vec<Vec<TimedEvent>>) -> Vec<TimedEvent> {
    let mut out: Vec<TimedEvent> = schedules.drain(..).flatten().collect();
    out.sort_by_key(|(t, e)| (*t, e.stream, e.seq));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::FlightStatus;

    #[test]
    fn merge_orders_by_time_then_stream() {
        let a = vec![(5, Event::faa_position(1, 1, faa::cruise_fix()))];
        let b = vec![
            (5, Event::delta_status(1, 1, FlightStatus::Boarding)),
            (1, Event::delta_status(2, 1, FlightStatus::Departed)),
        ];
        let merged = merge_schedules(vec![a, b]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].0, 1);
        assert_eq!(merged[1].1.stream, 0, "FAA (stream 0) before Delta on tie");
    }
}
