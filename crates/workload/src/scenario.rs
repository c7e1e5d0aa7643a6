//! A coherent operational day.
//!
//! The individual generators ([`crate::faa`], [`crate::delta`]) produce
//! structurally realistic but independent streams. A [`Scenario`] ties the
//! day together the way an airline's actually works: flights fly in
//! *banks*, aircraft *rotate* (the tail arriving as one flight departs as
//! another), passengers *connect* between banks, crews are assigned to
//! legs, and baggage is reconciled before departure. The scenario emits
//! one merged timed event stream plus the operational *plans* (rotations,
//! connections, crew assignments) a downstream operations monitor needs to
//! interpret it.
//!
//! Determinism: the same seed yields the same day, byte for byte.

use mirror_core::event::{streams, Event, EventBody, FlightId, FlightStatus, PositionFix};

use crate::rng::Rng;
use crate::TimedEvent;

/// A planned passenger connection (workload-level mirror of
/// `mirror_ede::ops::ConnectionPlan`, kept dependency-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedConnection {
    /// Connecting passenger group id.
    pub group: u32,
    /// Inbound flight.
    pub from: FlightId,
    /// Outbound flight.
    pub to: FlightId,
    /// Passengers in the group.
    pub passengers: u32,
}

/// A crew assignment: crew id, flight, duty start (µs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrewAssignment {
    /// Crew pairing id.
    pub crew: u32,
    /// Assigned flight.
    pub flight: FlightId,
    /// Duty start (µs).
    pub start_us: u64,
}

/// Scenario configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Number of flight banks (waves of departures/arrivals).
    pub banks: u32,
    /// Flights per bank.
    pub flights_per_bank: u32,
    /// Duration of one bank (µs).
    pub bank_span_us: u64,
    /// Position fixes per flight.
    pub positions_per_flight: u32,
    /// Passengers per flight.
    pub passengers: u32,
    /// Checked bags per flight.
    pub bags: u32,
    /// Fraction (0–100) of second-bank flights whose inbound connection is
    /// *tight or missed* (the inbound arrives late).
    pub late_inbound_pct: u32,
    /// Target wire size per event.
    pub event_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            banks: 2,
            flights_per_bank: 10,
            bank_span_us: 4_000_000,
            positions_per_flight: 20,
            passengers: 150,
            bags: 80,
            late_inbound_pct: 20,
            event_size: 768,
            seed: 0xDA7,
        }
    }
}

/// A generated operational day.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Merged, time-ordered event stream (FAA + Delta interleaved).
    pub events: Vec<TimedEvent>,
    /// Tail rotations: (inbound flight, outbound flight).
    pub rotations: Vec<(FlightId, FlightId)>,
    /// Planned passenger connections between banks.
    pub connections: Vec<PlannedConnection>,
    /// Crew assignments.
    pub crews: Vec<CrewAssignment>,
    /// Total flights in the day.
    pub flights: u32,
    /// Flights whose inbound legs were deliberately late (ground truth for
    /// asserting the ops monitor's alerts).
    pub late_inbounds: Vec<FlightId>,
}

/// Generate a scenario.
pub fn generate(cfg: &ScenarioConfig) -> Scenario {
    assert!(cfg.banks >= 1 && cfg.flights_per_bank >= 1);
    assert!(cfg.bank_span_us >= 1_000, "bank_span_us must be at least 1ms");
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut events: Vec<TimedEvent> = Vec::new();
    let mut faa_seq = 0u64;
    let mut delta_seq = 0u64;
    let mut rotations = Vec::new();
    let mut connections = Vec::new();
    let mut crews = Vec::new();
    let mut late_inbounds = Vec::new();

    let push_status = |events: &mut Vec<TimedEvent>,
                       delta_seq: &mut u64,
                       t: u64,
                       f: FlightId,
                       body: EventBody| {
        *delta_seq += 1;
        let e = Event::new(streams::DELTA, *delta_seq, f, body)
            .with_total_size(cfg.event_size)
            .with_ingress_us(t);
        events.push((t, e));
    };

    for bank in 0..cfg.banks {
        let bank_start = bank as u64 * cfg.bank_span_us;
        for i in 0..cfg.flights_per_bank {
            let flight: FlightId = bank * cfg.flights_per_bank + i;
            // Late inbounds: the flight's lifecycle stretches past its
            // bank, landing around (or after) its connecting outbound's
            // departure — putting the connection at risk.
            let late = bank + 1 < cfg.banks && rng.gen_range(0..100) < cfg.late_inbound_pct;
            if late {
                late_inbounds.push(flight);
            }
            let start = bank_start + rng.gen_range(0..cfg.bank_span_us / 20);
            let end = if late {
                bank_start + (cfg.bank_span_us as f64 * rng.gen_range(1.25..1.55)) as u64
            } else {
                bank_start + (cfg.bank_span_us as f64 * 0.95) as u64
            };
            let at = |frac: f64| start + ((end - start) as f64 * frac) as u64;

            // Crew on duty from boarding.
            crews.push(CrewAssignment { crew: 1000 + flight, flight, start_us: at(0.0) });

            push_status(
                &mut events,
                &mut delta_seq,
                at(0.00),
                flight,
                EventBody::Status(FlightStatus::Boarding),
            );
            push_status(
                &mut events,
                &mut delta_seq,
                at(0.04),
                flight,
                EventBody::Boarding { boarded: cfg.passengers / 2, expected: cfg.passengers },
            );
            push_status(
                &mut events,
                &mut delta_seq,
                at(0.08),
                flight,
                EventBody::Boarding { boarded: cfg.passengers, expected: cfg.passengers },
            );
            push_status(
                &mut events,
                &mut delta_seq,
                at(0.10),
                flight,
                EventBody::Baggage { loaded: cfg.bags, reconciled: cfg.bags },
            );
            push_status(
                &mut events,
                &mut delta_seq,
                at(0.12),
                flight,
                EventBody::Status(FlightStatus::Departed),
            );
            push_status(
                &mut events,
                &mut delta_seq,
                at(0.15),
                flight,
                EventBody::Status(FlightStatus::EnRoute),
            );
            // Cruise positions.
            for p in 0..cfg.positions_per_flight {
                faa_seq += 1;
                let frac = 0.15 + 0.65 * (p as f64 + 1.0) / cfg.positions_per_flight as f64;
                let t = at(frac);
                let fix = PositionFix {
                    lat: 25.0 + rng.gen_range(0.0..20.0),
                    lon: -120.0 + rng.gen_range(0.0..40.0),
                    alt_ft: 31_000.0 + rng.gen_range(-2000.0..2000.0),
                    speed_kts: 430.0 + rng.gen_range(-30.0..30.0),
                    heading_deg: rng.gen_range(0.0..360.0),
                };
                let e = Event::faa_position(faa_seq, flight, fix)
                    .with_total_size(cfg.event_size)
                    .with_ingress_us(t);
                events.push((t, e));
            }
            for (frac, s) in [
                (0.85, FlightStatus::Landed),
                (0.90, FlightStatus::AtRunway),
                (0.95, FlightStatus::AtGate),
            ] {
                push_status(&mut events, &mut delta_seq, at(frac), flight, EventBody::Status(s));
            }

            // Wiring to the next bank: the tail rotates onto the same slot,
            // and a passenger group connects.
            if bank + 1 < cfg.banks {
                let outbound = (bank + 1) * cfg.flights_per_bank + i;
                rotations.push((flight, outbound));
                connections.push(PlannedConnection {
                    group: 5000 + flight,
                    from: flight,
                    to: outbound,
                    passengers: rng.gen_range(4..25),
                });
            }
        }
    }

    // Order by time; renumber per-stream seqs to match arrival order.
    events.sort_by_key(|(t, e)| (*t, e.stream, e.seq));
    let mut faa_n = 0u64;
    let mut delta_n = 0u64;
    for (_, e) in events.iter_mut() {
        if e.stream == streams::FAA {
            faa_n += 1;
            e.seq = faa_n;
        } else {
            delta_n += 1;
            e.seq = delta_n;
        }
    }

    Scenario {
        events,
        rotations,
        connections,
        crews,
        flights: cfg.banks * cfg.flights_per_bank,
        late_inbounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = ScenarioConfig::default();
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = generate(&ScenarioConfig { seed: 1, ..cfg });
        assert_ne!(generate(&ScenarioConfig::default()).events, other.events);
    }

    #[test]
    fn day_structure_is_complete() {
        let cfg = ScenarioConfig { banks: 3, flights_per_bank: 5, ..Default::default() };
        let s = generate(&cfg);
        assert_eq!(s.flights, 15);
        // Rotations/connections bridge every non-final bank slot.
        assert_eq!(s.rotations.len(), 10);
        assert_eq!(s.connections.len(), 10);
        assert_eq!(s.crews.len(), 15);
        // Every flight runs its full lifecycle.
        for f in 0..15u32 {
            let statuses: Vec<FlightStatus> = s
                .events
                .iter()
                .filter(|(_, e)| e.flight == f)
                .filter_map(|(_, e)| match &e.body {
                    EventBody::Status(st) => Some(*st),
                    _ => None,
                })
                .collect();
            assert_eq!(statuses.first(), Some(&FlightStatus::Boarding), "flight {f}");
            assert_eq!(statuses.last(), Some(&FlightStatus::AtGate), "flight {f}");
        }
    }

    #[test]
    fn stream_seqs_are_arrival_ordered_per_stream() {
        let s = generate(&ScenarioConfig::default());
        let mut last_faa = 0;
        let mut last_delta = 0;
        let mut last_t = 0;
        for (t, e) in &s.events {
            assert!(*t >= last_t);
            last_t = *t;
            if e.stream == streams::FAA {
                assert_eq!(e.seq, last_faa + 1);
                last_faa = e.seq;
            } else {
                assert_eq!(e.seq, last_delta + 1);
                last_delta = e.seq;
            }
        }
    }

    #[test]
    fn late_inbounds_land_into_the_next_bank() {
        let cfg = ScenarioConfig {
            banks: 2,
            flights_per_bank: 20,
            late_inbound_pct: 50,
            seed: 42,
            ..Default::default()
        };
        let s = generate(&cfg);
        assert!(!s.late_inbounds.is_empty(), "50% late rate must hit some flights");
        for &late in &s.late_inbounds {
            let landed_t = s
                .events
                .iter()
                .find(|(_, e)| {
                    e.flight == late && matches!(e.body, EventBody::Status(FlightStatus::Landed))
                })
                .map(|(t, _)| *t)
                .unwrap();
            assert!(
                landed_t > cfg.bank_span_us,
                "late inbound {late} landed at {landed_t}, within its own bank"
            );
        }
    }

    #[test]
    fn sizes_and_counts_add_up() {
        let cfg = ScenarioConfig { banks: 2, flights_per_bank: 4, ..Default::default() };
        let s = generate(&cfg);
        let per_flight_delta = 1 /*boarding*/ + 2 /*gate reader*/ + 1 /*bags*/
            + 2 /*departed, enroute*/ + 3 /*landing triple*/;
        let expected = 8 * (per_flight_delta + cfg.positions_per_flight as usize);
        assert_eq!(s.events.len(), expected);
        for (_, e) in &s.events {
            assert_eq!(e.wire_size(), cfg.event_size);
        }
    }
}
