//! Seeded input generation. `--seed` reaches the program under test only
//! through what is generated here: the same seed gives byte-identical
//! schedules, another seed gives different ones.

use mirror_core::event::Event;
use mirror_echo::wire::encode_event;
use mirror_workload::requests::Request;
use mirror_workload::{
    delta, faa, merge_schedules, DeltaStreamConfig, FaaStreamConfig, RequestPattern,
    RequestSchedule, TimedEvent,
};

/// Everything one run of a workload feeds the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// Open loop: the due-ordered schedule (µs from schedule start, warm-up
    /// included). Closed loop: the pool one lap replays (times unused).
    pub events: Vec<TimedEvent>,
    /// Initial-state requests, due-ordered (µs from schedule start).
    pub requests: Vec<Request>,
}

/// An open-loop stream of `rate` events/s over `flights` flights for
/// `duration_us`: FAA position fixes, plus — with `with_delta` — the Delta
/// lifecycle stream merged in, the FAA rate lowered so the total holds.
pub fn open_schedule(
    rate: f64,
    flights: u32,
    event_size: usize,
    duration_us: u64,
    with_delta: bool,
    seed: u64,
) -> Vec<TimedEvent> {
    let secs = duration_us as f64 / 1e6;
    let delta_events = if with_delta {
        // A span of 2.2 × the run keeps every flight short of arrival
        // inside it (arrival is at ≥ 0.475 of the span): position fixes
        // for an arrived flight change nothing, which would thin the
        // update stream toward the end of the run.
        let mut evs = delta::generate(&DeltaStreamConfig {
            flights,
            span_us: duration_us * 22 / 10,
            event_size,
            seed: seed ^ 0xDE17A,
            ..Default::default()
        });
        evs.retain(|(t, _)| *t < duration_us);
        evs
    } else {
        Vec::new()
    };
    let faa_rate = (rate - delta_events.len() as f64 / secs).max(1.0);
    let mut faa_events = faa::generate(&FaaStreamConfig {
        flights,
        // Inter-arrival jitter averages out to the rate; 3 % head-room
        // guarantees the stream spans the run before truncation.
        total_events: (faa_rate * secs * 1.03) as u64 + 16,
        events_per_sec: faa_rate,
        event_size,
        seed: seed ^ 0xFAA,
        first_flight: 0,
    });
    faa_events.retain(|(t, _)| *t < duration_us);
    merge_schedules(vec![faa_events, delta_events])
}

/// The pool a closed-loop lap replays: `lap_events` FAA fixes cycling
/// round-robin over `flights`.
pub fn closed_pool(lap_events: u64, flights: u32, event_size: usize, seed: u64) -> Vec<TimedEvent> {
    faa::generate(&FaaStreamConfig {
        flights,
        total_events: lap_events,
        events_per_sec: 1e6,
        event_size,
        seed: seed ^ 0xFAA,
        first_flight: 0,
    })
}

/// The request schedule of `pattern` over `duration_us`.
pub fn request_schedule(pattern: RequestPattern, duration_us: u64, seed: u64) -> Vec<Request> {
    RequestSchedule::generate(pattern, duration_us, seed ^ 0x5709).requests
}

/// FNV-1a over every generated input in order: due time plus the event's
/// canonical wire encoding, then every request. Two runs fed the same
/// inputs print the same hash.
pub fn schedule_hash(inputs: &Inputs) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    let mut buf = bytes::BytesMut::new();
    for (t, e) in &inputs.events {
        eat(&t.to_le_bytes());
        buf.clear();
        encode_event(e, &mut buf);
        eat(&buf);
    }
    for r in &inputs.requests {
        eat(&r.at_us.to_le_bytes());
        eat(&r.id.to_le_bytes());
    }
    h
}

/// One fix per flight, submitted before warm-up so every flight exists
/// (and every snapshot has its full size) before anything is timed.
/// Sequence 0 is older than any generated fix, so the flights are created
/// without a position the stream would then have to supersede.
pub fn preload_events(flights: u32, event_size: usize) -> impl Iterator<Item = Event> {
    (0..flights)
        .map(move |f| Event::faa_position(0, f, faa::cruise_fix()).with_total_size(event_size))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> Inputs {
        Inputs {
            events: open_schedule(5_000.0, 50, 256, 400_000, true, seed),
            requests: request_schedule(RequestPattern::Constant { rate: 500.0 }, 400_000, seed),
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (a, b, c) = (inputs(1), inputs(1), inputs(2));
        assert_eq!(a, b);
        assert_eq!(schedule_hash(&a), schedule_hash(&b));
        assert_ne!(schedule_hash(&a), schedule_hash(&c));
        let pool = |s| Inputs { events: closed_pool(2_000, 50, 128, s), requests: vec![] };
        assert_eq!(schedule_hash(&pool(3)), schedule_hash(&pool(3)));
        assert_ne!(schedule_hash(&pool(3)), schedule_hash(&pool(4)));
    }

    #[test]
    fn open_schedule_holds_its_rate_and_order() {
        let evs = open_schedule(5_000.0, 50, 256, 1_000_000, true, 9);
        assert!((4_700..=5_300).contains(&evs.len()), "{} events for 5000/s over 1 s", evs.len());
        assert!(evs.windows(2).all(|w| w[0].0 <= w[1].0), "due-ordered");
        assert!(evs.iter().all(|(t, e)| *t < 1_000_000 && e.ingress_us == *t));
        assert!(evs.iter().any(|(_, e)| e.stream == 1), "the Delta stream is merged in");
        assert!(evs.last().unwrap().0 > 950_000, "the stream spans the run");
    }

    #[test]
    fn closed_pool_cycles_flights_evenly() {
        let pool = closed_pool(1_000, 50, 128, 5);
        assert_eq!(pool.len(), 1_000);
        for (i, (_, e)) in pool.iter().enumerate() {
            assert_eq!((e.flight, e.seq), ((i % 50) as u32, i as u64 + 1));
            assert_eq!(e.wire_size(), 128);
        }
    }
}
