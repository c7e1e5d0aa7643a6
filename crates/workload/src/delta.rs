//! Synthetic Delta-internal status stream.
//!
//! Gate readers, crew systems and ground operations produce the second
//! event stream of §3.3: lifecycle status transitions and passenger
//! boarding records for the same flights the FAA stream tracks. Each
//! flight's events are laid out over its share of the run: boarding
//! records early, then departure, then the landing / at-runway / at-gate
//! triple near the end — the sequence the paper's complex-tuple rule
//! collapses into `flight arrived`.

use mirror_core::event::{streams, Event, EventBody, FlightId, FlightStatus};

use crate::rng::Rng;
use crate::TimedEvent;

/// Configuration of the synthetic Delta stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaStreamConfig {
    /// Number of flights (should match the FAA stream's universe).
    pub flights: u32,
    /// First flight id.
    pub first_flight: FlightId,
    /// Duration over which flight lifecycles are spread (µs).
    pub span_us: u64,
    /// Boarding (gate-reader) records per flight before departure.
    pub boarding_records: u32,
    /// Passengers per flight.
    pub passengers: u32,
    /// Checked bags per flight (baggage reconciliation reports accompany
    /// boarding; the final report reconciles everything — departures are
    /// clean unless a scenario injects a mismatch).
    pub bags: u32,
    /// Target total wire size per event.
    pub event_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DeltaStreamConfig {
    fn default() -> Self {
        DeltaStreamConfig {
            flights: 100,
            first_flight: 0,
            span_us: 14_000_000,
            boarding_records: 4,
            passengers: 160,
            bags: 90,
            event_size: 512,
            seed: 0xDE17A,
        }
    }
}

/// Generate the Delta stream arrival schedule.
pub fn generate(cfg: &DeltaStreamConfig) -> Vec<TimedEvent> {
    assert!(cfg.flights > 0);
    assert!(cfg.span_us >= 1_000, "span_us must be at least 1ms");
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut out: Vec<TimedEvent> = Vec::new();
    let mut seq = 0u64;
    let push =
        |out: &mut Vec<TimedEvent>, seq: &mut u64, t: u64, flight: FlightId, body: EventBody| {
            *seq += 1;
            let ev = Event::new(streams::DELTA, *seq, flight, body)
                .with_total_size(cfg.event_size)
                .with_ingress_us(t);
            out.push((t, ev));
        };

    for i in 0..cfg.flights {
        let flight = cfg.first_flight + i;
        // Each flight's lifecycle occupies a random sub-window of the span.
        let start = rng.gen_range(0..cfg.span_us / 4);
        let end = rng.gen_range(cfg.span_us * 3 / 4..cfg.span_us);
        let at = |frac: f64| start + ((end - start) as f64 * frac) as u64;

        push(&mut out, &mut seq, at(0.00), flight, EventBody::Status(FlightStatus::Boarding));
        for b in 1..=cfg.boarding_records {
            let boarded = cfg.passengers * b / cfg.boarding_records;
            push(
                &mut out,
                &mut seq,
                at(0.02 + 0.10 * b as f64 / cfg.boarding_records as f64),
                flight,
                EventBody::Boarding { boarded, expected: cfg.passengers },
            );
        }
        if cfg.bags > 0 {
            push(
                &mut out,
                &mut seq,
                at(0.12),
                flight,
                EventBody::Baggage { loaded: cfg.bags, reconciled: cfg.bags / 2 },
            );
            push(
                &mut out,
                &mut seq,
                at(0.14),
                flight,
                EventBody::Baggage { loaded: cfg.bags, reconciled: cfg.bags },
            );
        }
        push(&mut out, &mut seq, at(0.15), flight, EventBody::Status(FlightStatus::Departed));
        push(&mut out, &mut seq, at(0.20), flight, EventBody::Status(FlightStatus::EnRoute));
        push(&mut out, &mut seq, at(0.85), flight, EventBody::Status(FlightStatus::Landed));
        push(&mut out, &mut seq, at(0.90), flight, EventBody::Status(FlightStatus::AtRunway));
        push(&mut out, &mut seq, at(0.95), flight, EventBody::Status(FlightStatus::AtGate));
    }
    // Stream events must arrive in seq order within the stream; sort by
    // time but renumber so seq follows arrival order.
    out.sort_by_key(|(t, e)| (*t, e.seq));
    for (i, (_, e)) in out.iter_mut().enumerate() {
        e.seq = i as u64 + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = DeltaStreamConfig { flights: 20, ..Default::default() };
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn per_flight_lifecycle_is_ordered_and_complete() {
        let cfg = DeltaStreamConfig { flights: 5, ..Default::default() };
        let evs = generate(&cfg);
        for f in 0..5u32 {
            let statuses: Vec<FlightStatus> = evs
                .iter()
                .filter(|(_, e)| e.flight == f)
                .filter_map(|(_, e)| match &e.body {
                    EventBody::Status(s) => Some(*s),
                    _ => None,
                })
                .collect();
            assert_eq!(
                statuses,
                vec![
                    FlightStatus::Boarding,
                    FlightStatus::Departed,
                    FlightStatus::EnRoute,
                    FlightStatus::Landed,
                    FlightStatus::AtRunway,
                    FlightStatus::AtGate,
                ],
                "flight {f}"
            );
        }
    }

    #[test]
    fn boarding_reaches_full_count() {
        let cfg = DeltaStreamConfig { flights: 3, passengers: 120, ..Default::default() };
        let evs = generate(&cfg);
        for f in 0..3u32 {
            let max_boarded = evs
                .iter()
                .filter(|(_, e)| e.flight == f)
                .filter_map(|(_, e)| match &e.body {
                    EventBody::Boarding { boarded, .. } => Some(*boarded),
                    _ => None,
                })
                .max()
                .unwrap();
            assert_eq!(max_boarded, 120);
        }
    }

    #[test]
    fn baggage_reports_precede_departure_and_reconcile() {
        let cfg = DeltaStreamConfig { flights: 4, bags: 60, ..Default::default() };
        let evs = generate(&cfg);
        for f in 0..4u32 {
            let flight_events: Vec<&EventBody> =
                evs.iter().filter(|(_, e)| e.flight == f).map(|(_, e)| &e.body).collect();
            let bag_idx: Vec<usize> = flight_events
                .iter()
                .enumerate()
                .filter(|(_, b)| matches!(b, EventBody::Baggage { .. }))
                .map(|(i, _)| i)
                .collect();
            let departed_idx = flight_events
                .iter()
                .position(|b| matches!(b, EventBody::Status(FlightStatus::Departed)))
                .unwrap();
            assert_eq!(bag_idx.len(), 2, "flight {f}");
            assert!(bag_idx.iter().all(|&i| i < departed_idx), "bags before departure");
            // The final report reconciles everything.
            match flight_events[bag_idx[1]] {
                EventBody::Baggage { loaded, reconciled } => assert_eq!(loaded, reconciled),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn seqs_follow_arrival_order() {
        let evs = generate(&DeltaStreamConfig::default());
        for (i, w) in evs.windows(2).enumerate() {
            assert!(w[0].0 <= w[1].0, "time order at {i}");
            assert!(w[0].1.seq < w[1].1.seq, "seq order at {i}");
        }
        assert_eq!(evs[0].1.seq, 1);
    }

    #[test]
    fn events_fit_within_span() {
        let cfg = DeltaStreamConfig { span_us: 5_000_000, ..Default::default() };
        let evs = generate(&cfg);
        assert!(evs.iter().all(|(t, _)| *t <= 5_000_000));
    }
}
