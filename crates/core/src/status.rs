//! The status table.
//!
//! The paper's mirroring implementation "uses state to keep track of event
//! history, such as the number of overwriting events or the values of
//! combined events" (§3.2.1). That state lives in a *status table*
//! maintained at the main site: per flight it records how many updates of a
//! type have been overwritten since the last one was mirrored, which
//! trigger values have been observed (for complex-sequence rules), and the
//! partial progress of complex-tuple combination.

use std::collections::HashMap;

use crate::event::{Event, EventType, FlightId, FlightStatus};
use crate::hashing::BuildFlightHasher;

/// Per-(flight, event-type) overwrite run state.
#[derive(Debug, Clone, Copy, Default)]
struct OverwriteRun {
    /// Position within the current run: 0 = nothing sent yet; otherwise the
    /// number of events (sent + discarded) since the run started.
    since_sent: u32,
}

/// Per-flight entry of the status table.
#[derive(Debug, Clone, Default)]
pub struct FlightEntry {
    /// Most recent status value observed for the flight.
    pub last_status: Option<FlightStatus>,
    /// Statuses observed so far (bitmask over `FlightStatus as u8`), used by
    /// complex-tuple rules to detect when all constituents have arrived.
    pub seen_statuses: u16,
    /// Overwrite run-length counters keyed by event type.
    overwrite: HashMap<EventType, OverwriteRun>,
    /// Whether a complex-sequence trigger has fired for this flight
    /// (per discarded type).
    pub seq_triggers: HashMap<EventType, bool>,
    /// Total events observed for this flight (all types).
    pub observed: u64,
    /// Total events discarded for this flight by semantic rules.
    pub discarded: u64,
}

/// The status table: application-level event history used by the semantic
/// mirroring rules.
#[derive(Debug, Default)]
pub struct StatusTable {
    /// Probed once per event at every site, so keyed by the flight hash.
    flights: HashMap<FlightId, FlightEntry, BuildFlightHasher>,
}

impl StatusTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `event` was observed, updating last-status and the
    /// seen-status bitmask. Call once per incoming event before rule
    /// evaluation.
    pub fn observe(&mut self, event: &Event) {
        let entry = self.flights.entry(event.flight).or_default();
        entry.observed += 1;
        if let Some(s) = event.status_value() {
            entry.last_status = Some(s);
            entry.seen_statuses |= 1 << (s as u8);
        }
    }

    /// Has `flight` ever reported `status`?
    pub fn has_seen_status(&self, flight: FlightId, status: FlightStatus) -> bool {
        self.flights
            .get(&flight)
            .map(|e| e.seen_statuses & (1 << (status as u8)) != 0)
            .unwrap_or(false)
    }

    /// Most recent status observed for `flight`.
    pub fn last_status(&self, flight: FlightId) -> Option<FlightStatus> {
        self.flights.get(&flight).and_then(|e| e.last_status)
    }

    /// Overwrite bookkeeping: should an event of `ty` for `flight` be
    /// mirrored (`true`) or discarded as part of the current overwrite run
    /// (`false`), given a maximum run length of `max_len`?
    ///
    /// The paper's semantics: "send one event for each flight, followed by
    /// discarding the next `max_length - 1` many events of that type for the
    /// same flight". A `max_len` of 0 or 1 disables overwriting.
    pub fn overwrite_admits(&mut self, flight: FlightId, ty: EventType, max_len: u32) -> bool {
        if max_len <= 1 {
            return true;
        }
        let entry = self.flights.entry(flight).or_default();
        let run = entry.overwrite.entry(ty).or_default();
        if run.since_sent == 0 || run.since_sent >= max_len {
            // First event of a run (including the very first for this
            // flight): mirror it and start counting.
            run.since_sent = 1;
            true
        } else {
            run.since_sent += 1;
            entry.discarded += 1;
            false
        }
    }

    /// Arm (or disarm) the complex-sequence trigger: once armed, events of
    /// `discard_ty` for `flight` are discarded.
    pub fn set_seq_trigger(&mut self, flight: FlightId, discard_ty: EventType, armed: bool) {
        self.flights.entry(flight).or_default().seq_triggers.insert(discard_ty, armed);
    }

    /// Is the complex-sequence trigger armed for (`flight`, `discard_ty`)?
    pub fn seq_trigger_armed(&self, flight: FlightId, discard_ty: EventType) -> bool {
        self.flights
            .get(&flight)
            .and_then(|e| e.seq_triggers.get(&discard_ty))
            .copied()
            .unwrap_or(false)
    }

    /// Record a rule-driven discard (for statistics).
    pub fn record_discard(&mut self, flight: FlightId) {
        self.flights.entry(flight).or_default().discarded += 1;
    }

    /// Number of flights tracked.
    pub fn flight_count(&self) -> usize {
        self.flights.len()
    }

    /// Per-flight entry, if the flight has been observed.
    pub fn entry(&self, flight: FlightId) -> Option<&FlightEntry> {
        self.flights.get(&flight)
    }

    /// Total events discarded by semantic rules across all flights.
    pub fn total_discarded(&self) -> u64 {
        self.flights.values().map(|e| e.discarded).sum()
    }

    /// Total events observed across all flights.
    pub fn total_observed(&self) -> u64 {
        self.flights.values().map(|e| e.observed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, FlightStatus, PositionFix};

    fn fix() -> PositionFix {
        PositionFix { lat: 0.0, lon: 0.0, alt_ft: 0.0, speed_kts: 0.0, heading_deg: 0.0 }
    }

    #[test]
    fn observe_tracks_last_status_and_bitmask() {
        let mut t = StatusTable::new();
        t.observe(&Event::delta_status(1, 7, FlightStatus::Boarding));
        t.observe(&Event::delta_status(2, 7, FlightStatus::Departed));
        assert_eq!(t.last_status(7), Some(FlightStatus::Departed));
        assert!(t.has_seen_status(7, FlightStatus::Boarding));
        assert!(t.has_seen_status(7, FlightStatus::Departed));
        assert!(!t.has_seen_status(7, FlightStatus::Landed));
        assert!(!t.has_seen_status(8, FlightStatus::Boarding));
    }

    #[test]
    fn overwrite_disabled_for_len_leq_1() {
        let mut t = StatusTable::new();
        for _ in 0..5 {
            assert!(t.overwrite_admits(1, EventType::FaaPosition, 0));
            assert!(t.overwrite_admits(1, EventType::FaaPosition, 1));
        }
    }

    #[test]
    fn overwrite_keeps_one_in_max_len() {
        let mut t = StatusTable::new();
        // Observe the flight first (as the receive path does).
        t.observe(&Event::faa_position(1, 42, fix()));
        let max_len = 4;
        let mut admitted = 0;
        for i in 0..20 {
            // First event admitted (fresh flight), then 1 in every 4.
            if t.overwrite_admits(42, EventType::FaaPosition, max_len) {
                admitted += 1;
            }
            t.observe(&Event::faa_position(i + 2, 42, fix()));
        }
        // 20 events, runs of 4: first admitted at once, then every 4th.
        assert!(admitted >= 20 / max_len as usize, "admitted {admitted}");
        assert!(admitted <= 20 / max_len as usize + 1, "admitted {admitted}");
    }

    #[test]
    fn overwrite_runs_are_per_flight_and_per_type() {
        let mut t = StatusTable::new();
        t.observe(&Event::faa_position(1, 1, fix()));
        t.observe(&Event::faa_position(1, 2, fix()));
        // Drain flight 1 into mid-run…
        assert!(t.overwrite_admits(1, EventType::FaaPosition, 3));
        assert!(!t.overwrite_admits(1, EventType::FaaPosition, 3));
        // …flight 2's run is independent.
        assert!(t.overwrite_admits(2, EventType::FaaPosition, 3));
        // …and a different type on flight 1 is independent too.
        assert!(t.overwrite_admits(1, EventType::DeltaStatus, 3));
    }

    #[test]
    fn seq_triggers_arm_and_disarm() {
        let mut t = StatusTable::new();
        assert!(!t.seq_trigger_armed(5, EventType::FaaPosition));
        t.set_seq_trigger(5, EventType::FaaPosition, true);
        assert!(t.seq_trigger_armed(5, EventType::FaaPosition));
        assert!(!t.seq_trigger_armed(6, EventType::FaaPosition));
        t.set_seq_trigger(5, EventType::FaaPosition, false);
        assert!(!t.seq_trigger_armed(5, EventType::FaaPosition));
    }

    #[test]
    fn discard_statistics_accumulate() {
        let mut t = StatusTable::new();
        t.observe(&Event::faa_position(1, 9, fix()));
        t.record_discard(9);
        t.record_discard(9);
        assert_eq!(t.total_discarded(), 2);
        assert_eq!(t.total_observed(), 1);
        assert_eq!(t.flight_count(), 1);
    }
}
