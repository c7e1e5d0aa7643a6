//! Delta snapshots: the state that changed since a known base frontier.
//!
//! A full [`Snapshot`](crate::Snapshot) ships every flight; a [`StateDelta`]
//! ships only the flights whose views changed — plus the ids removed — since
//! a **base** frontier the producer previously captured at. The consumer
//! must hold state equivalent to the base (restored from the base snapshot,
//! or the base plus any prefix of the subsequent update stream — entries
//! are authoritative whole-flight views, so re-applying a change the
//! consumer already absorbed is idempotent); applying the delta then makes
//! it `state_hash`-equal to the producer at the delta's `as_of`.
//!
//! Deltas are what make routine cross-site catch-up cheap: a WAN mirror
//! that diverged by 5% of flights moves ~5% of the bytes a full snapshot
//! would, which is the whole case for the geo tier (TerraServer's
//! operations lesson; MigratoryData's delta/resume design).

use mirror_core::event::FlightId;
use mirror_core::timestamp::VectorTimestamp;

use crate::state::FlightMap;

/// A delta snapshot: everything that changed between two capture frontiers.
#[derive(Debug, Clone, PartialEq)]
pub struct StateDelta {
    /// Flights created or modified since `base`, as authoritative whole
    /// views at `as_of` (insert-or-overwrite on apply).
    changed: FlightMap,
    /// Flights removed since `base` (partition-migration purges).
    removed: Vec<FlightId>,
    /// The base frontier this delta builds on: the consumer must hold state
    /// derived from a capture at exactly this frontier.
    pub base: VectorTimestamp,
    /// The frontier the delta brings the consumer up to; becomes the
    /// consumer's next delta base.
    pub as_of: VectorTimestamp,
}

impl StateDelta {
    /// Assemble a delta from its parts (producer capture, wire decoding).
    pub fn from_parts(
        changed: FlightMap,
        removed: Vec<FlightId>,
        base: VectorTimestamp,
        as_of: VectorTimestamp,
    ) -> Self {
        StateDelta { changed, removed, base, as_of }
    }

    /// The changed flights (authoritative views at `as_of`).
    pub fn changed(&self) -> &FlightMap {
        &self.changed
    }

    /// The removed flight ids.
    pub fn removed(&self) -> &[FlightId] {
        &self.removed
    }

    /// Number of changed flights carried.
    pub fn changed_count(&self) -> usize {
        self.changed.len()
    }

    /// Does this delta carry no changes at all?
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.removed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::OperationalState;
    use mirror_core::event::{Event, FlightStatus, PositionFix};

    fn fix(alt: f64) -> PositionFix {
        PositionFix { lat: 1.0, lon: 2.0, alt_ft: alt, speed_kts: 400.0, heading_deg: 45.0 }
    }

    #[test]
    fn delta_applies_changes_and_removals() {
        let mut base = OperationalState::new();
        for f in 0..10u32 {
            base.apply(&Event::faa_position(1, f, fix(1000.0)));
        }
        let mut target = base.clone();
        target.apply(&Event::faa_position(2, 3, fix(2000.0)));
        target.apply(&Event::delta_status(1, 7, FlightStatus::Landed));
        target.retain_flights(|id| id != 9);

        let mut changed = FlightMap::default();
        for id in [3u32, 7] {
            changed.insert(id, target.flight(id).unwrap().clone());
        }
        let delta = StateDelta::from_parts(
            changed,
            vec![9],
            VectorTimestamp::empty(),
            VectorTimestamp::empty(),
        );
        assert!(!delta.is_empty());
        assert_eq!(delta.changed_count(), 2);
        assert_eq!(delta.removed(), &[9]);

        base.apply_delta(&delta);
        assert_eq!(base.state_hash(), target.state_hash());
    }
}
