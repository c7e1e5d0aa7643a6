//! Initial-state snapshots for thin clients.
//!
//! The paper's dominant client-request type: "clients request new initial
//! states when airport or gate displays are brought back online after
//! failures" (§1). A recovering thin client cannot interpret the event
//! stream without a base state, so a mirror site builds a [`Snapshot`] of
//! its operational state and ships it; the client then applies subsequent
//! events on top.
//!
//! Snapshot construction and transfer cost scale with the number of
//! flights — this is why a burst of simultaneous initializations loads a
//! site heavily, and why spreading them across mirrors (and shedding
//! mirroring overhead via adaptation) buys predictability.

use mirror_core::event::FlightId;
use mirror_core::timestamp::VectorTimestamp;

use crate::flight::FlightView;
use crate::state::{FlightMap, OperationalState};

/// A client-initialization snapshot: a consistent copy of the operational
/// state plus the timestamp frontier it reflects.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    flights: FlightMap,
    /// Frontier of events reflected in this snapshot; the client resumes
    /// interpreting stream events from here.
    pub as_of: VectorTimestamp,
}

impl Snapshot {
    /// Capture the given state at the given frontier.
    pub fn capture(state: &OperationalState, as_of: VectorTimestamp) -> Self {
        Snapshot { flights: state.flights().clone(), as_of }
    }

    /// Number of flights in the snapshot.
    pub fn flight_count(&self) -> usize {
        self.flights.len()
    }

    /// Install the snapshot into a fresh state store (client-side
    /// initialization). The returned store hashes identically to the
    /// source at capture time.
    pub fn restore(&self) -> OperationalState {
        let mut s = OperationalState::new();
        s.install(self.flights.clone());
        s
    }

    /// By-value [`restore`](Self::restore): consumes the snapshot and moves
    /// the flight map into the new store, skipping the second clone. The
    /// right call for one-shot recovery (a rejoining mirror, a cold-started
    /// site, a display initializing from its fetched snapshot).
    pub fn into_state(self) -> OperationalState {
        let mut s = OperationalState::new();
        s.install(self.flights);
        s
    }

    /// Look up one flight.
    pub fn flight(&self, id: FlightId) -> Option<&FlightView> {
        self.flights.get(&id)
    }

    /// Iterate flight entries in unspecified order (wire encoders sort).
    pub fn iter(&self) -> impl Iterator<Item = (&FlightId, &FlightView)> {
        self.flights.iter()
    }

    /// Reassemble a snapshot from its parts (wire decoding).
    pub fn from_parts(flights: FlightMap, as_of: VectorTimestamp) -> Self {
        Snapshot { flights, as_of }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::{Event, FlightStatus, PositionFix};

    fn fix() -> PositionFix {
        PositionFix { lat: 1.0, lon: 2.0, alt_ft: 30000.0, speed_kts: 450.0, heading_deg: 10.0 }
    }

    fn populated_state(n: u32) -> OperationalState {
        let mut s = OperationalState::new();
        for f in 0..n {
            s.apply(&Event::faa_position(1, f, fix()));
            s.apply(&Event::delta_status(1, f, FlightStatus::EnRoute));
        }
        s
    }

    #[test]
    fn capture_restore_roundtrip_preserves_hash() {
        let s = populated_state(50);
        let snap = Snapshot::capture(&s, VectorTimestamp::from_components(vec![50, 50]));
        let restored = snap.restore();
        assert_eq!(restored.state_hash(), s.state_hash());
        assert_eq!(snap.flight_count(), 50);
    }

    #[test]
    fn client_recovery_snapshot_plus_replay() {
        // The full thin-client recovery flow: snapshot, then replay events
        // newer than the frontier; client converges to server state.
        let mut server = populated_state(5);
        let snap = Snapshot::capture(&server, VectorTimestamp::from_components(vec![1, 1]));

        // Server keeps processing after the snapshot.
        let late1 = Event::faa_position(2, 3, fix());
        let late2 = Event::delta_status(2, 4, FlightStatus::Landed);
        server.apply(&late1);
        server.apply(&late2);

        // Client restores and replays exactly the post-frontier events.
        let mut client = snap.restore();
        client.apply(&late1);
        client.apply(&late2);
        assert_eq!(client.state_hash(), server.state_hash());
    }

    #[test]
    fn snapshot_lookup() {
        let s = populated_state(3);
        let snap = Snapshot::capture(&s, VectorTimestamp::empty());
        assert!(snap.flight(2).is_some());
        assert!(snap.flight(99).is_none());
    }
}
