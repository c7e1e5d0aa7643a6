//! Synthetic FAA flight-position stream.
//!
//! Each flight follows a simple kinematic trajectory (origin, heading,
//! cruise altitude with climb/descent phases); fixes are emitted round-robin
//! across active flights at a configurable aggregate rate. Later fixes for
//! a flight supersede earlier ones — the property the paper's overwrite
//! and coalescing rules exploit.

use mirror_core::event::{Event, FlightId, PositionFix};

use crate::rng::Rng;
use crate::TimedEvent;

/// Configuration of the synthetic FAA stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FaaStreamConfig {
    /// Number of concurrently tracked flights.
    pub flights: u32,
    /// Total position events to emit.
    pub total_events: u64,
    /// Aggregate arrival rate (events/second).
    pub events_per_sec: f64,
    /// Target total wire size per event (padding added to reach it).
    pub event_size: usize,
    /// RNG seed (same seed ⇒ identical stream).
    pub seed: u64,
    /// First flight id to use (lets FAA/Delta share a flight universe).
    pub first_flight: FlightId,
}

impl Default for FaaStreamConfig {
    fn default() -> Self {
        FaaStreamConfig {
            flights: 100,
            total_events: 10_000,
            events_per_sec: 700.0,
            event_size: 1000,
            seed: 0xFAA,
            first_flight: 0,
        }
    }
}

/// A representative cruise fix (used by tests across the workspace).
pub fn cruise_fix() -> PositionFix {
    PositionFix { lat: 33.64, lon: -84.43, alt_ft: 33000.0, speed_kts: 460.0, heading_deg: 75.0 }
}

/// Per-flight kinematic state.
#[derive(Debug, Clone, Copy)]
struct Trajectory {
    lat: f64,
    lon: f64,
    alt_ft: f64,
    speed_kts: f64,
    heading_deg: f64,
    climb_fpm: f64,
}

impl Trajectory {
    fn sample(rng: &mut Rng) -> Self {
        Trajectory {
            lat: rng.gen_range(24.0..49.0),
            lon: rng.gen_range(-125.0..-67.0),
            alt_ft: rng.gen_range(2_000.0..12_000.0),
            speed_kts: rng.gen_range(280.0..520.0),
            heading_deg: rng.gen_range(0.0..360.0),
            climb_fpm: rng.gen_range(500.0..2500.0),
        }
    }

    /// Advance by `dt_s` seconds of flight.
    fn advance(&mut self, dt_s: f64) {
        let dist_nm = self.speed_kts * dt_s / 3600.0;
        let rad = self.heading_deg.to_radians();
        self.lat += dist_nm * rad.cos() / 60.0;
        self.lon += dist_nm * rad.sin() / (60.0 * self.lat.to_radians().cos().abs().max(0.2));
        // Climb toward cruise, then hold.
        if self.alt_ft < 33_000.0 {
            self.alt_ft = (self.alt_ft + self.climb_fpm * dt_s / 60.0).min(33_000.0);
        }
    }

    fn fix(&self) -> PositionFix {
        PositionFix {
            lat: self.lat,
            lon: self.lon,
            alt_ft: self.alt_ft,
            speed_kts: self.speed_kts,
            heading_deg: self.heading_deg,
        }
    }
}

/// Generate the arrival schedule for the configured stream.
pub fn generate(cfg: &FaaStreamConfig) -> Vec<TimedEvent> {
    assert!(cfg.flights > 0, "need at least one flight");
    assert!(cfg.events_per_sec > 0.0, "rate must be positive");
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut trajectories: Vec<Trajectory> =
        (0..cfg.flights).map(|_| Trajectory::sample(&mut rng)).collect();
    let mut last_emit_us = vec![0u64; cfg.flights as usize];

    let inter_us = 1_000_000.0 / cfg.events_per_sec;
    let mut out = Vec::with_capacity(cfg.total_events as usize);
    let mut t = 0.0f64;
    for seq in 1..=cfg.total_events {
        // Exponential-ish jitter around the nominal inter-arrival keeps
        // arrivals aperiodic without changing the aggregate rate.
        t += inter_us * rng.gen_range(0.5..1.5);
        let now = t as u64;
        let idx = (seq as usize - 1) % cfg.flights as usize;
        let dt_s = (now - last_emit_us[idx]) as f64 / 1_000_000.0;
        last_emit_us[idx] = now;
        trajectories[idx].advance(dt_s * 60.0); // compress: 1 sim-sec ≈ 1 min of flight
        let flight = cfg.first_flight + idx as FlightId;
        let ev = Event::faa_position(seq, flight, trajectories[idx].fix())
            .with_total_size(cfg.event_size)
            .with_ingress_us(now);
        out.push((now, ev));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = FaaStreamConfig { total_events: 500, ..Default::default() };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        let c = generate(&FaaStreamConfig { seed: 1, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn respects_count_size_and_rate() {
        let cfg = FaaStreamConfig {
            total_events: 1000,
            events_per_sec: 500.0,
            event_size: 2048,
            ..Default::default()
        };
        let evs = generate(&cfg);
        assert_eq!(evs.len(), 1000);
        for (t, e) in &evs {
            assert_eq!(e.wire_size(), 2048);
            assert_eq!(e.ingress_us, *t);
        }
        // 1000 events at 500/s ≈ 2s of arrivals (±jitter).
        let span = evs.last().unwrap().0 - evs.first().unwrap().0;
        assert!((1_500_000..=2_500_000).contains(&span), "span {span}");
    }

    #[test]
    fn arrival_times_are_nondecreasing_and_seqs_unique() {
        let evs = generate(&FaaStreamConfig { total_events: 300, ..Default::default() });
        for w in evs.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1.seq < w[1].1.seq);
        }
    }

    #[test]
    fn flights_cycle_round_robin() {
        let cfg = FaaStreamConfig { flights: 7, total_events: 70, ..Default::default() };
        let evs = generate(&cfg);
        for (i, (_, e)) in evs.iter().enumerate() {
            assert_eq!(e.flight, (i % 7) as u32);
        }
    }

    #[test]
    fn positions_evolve_over_time() {
        let cfg = FaaStreamConfig { flights: 1, total_events: 50, ..Default::default() };
        let evs = generate(&cfg);
        let first = match &evs.first().unwrap().1.body {
            mirror_core::event::EventBody::Position(p) => *p,
            _ => panic!(),
        };
        let last = match &evs.last().unwrap().1.body {
            mirror_core::event::EventBody::Position(p) => *p,
            _ => panic!(),
        };
        assert!(first.lat != last.lat || first.lon != last.lon, "flight must move");
    }
}
