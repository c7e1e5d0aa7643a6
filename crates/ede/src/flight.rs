//! Per-flight lifecycle state.
//!
//! A [`FlightView`] is the EDE's record of one flight: current lifecycle
//! status, last known position, and boarding progress. Status transitions
//! follow the lifecycle order; *regressions are ignored rather than
//! applied* — under selective mirroring a mirror may receive a stale or
//! coalesced event after a newer status, and determinism across mirrors
//! requires that such events be absorbed idempotently, not flip state
//! backwards.

use mirror_core::event::{FlightStatus, PositionFix};

/// Rejected status transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransitionError {
    /// The proposed status is behind (or equal to) the current one.
    Regression {
        /// Status the flight already holds.
        current: FlightStatus,
        /// The stale proposal.
        proposed: FlightStatus,
    },
    /// The flight is cancelled; only position noise may follow.
    Cancelled,
}

/// The EDE's view of one flight.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightView {
    /// Current lifecycle status.
    pub status: FlightStatus,
    /// Last applied position fix.
    pub position: Option<PositionFix>,
    /// Sequence number of the newest position applied (stale fixes with
    /// older sequence numbers are ignored).
    pub position_seq: u64,
    /// Passengers boarded so far.
    pub boarded: u32,
    /// Passengers expected.
    pub expected: u32,
    /// Bags loaded into the hold.
    pub bags_loaded: u32,
    /// Bags reconciled against boarded passengers.
    pub bags_reconciled: u32,
    /// Count of updates applied to this flight (any kind).
    pub updates: u64,
}

impl Default for FlightView {
    fn default() -> Self {
        FlightView {
            status: FlightStatus::Scheduled,
            position: None,
            position_seq: 0,
            boarded: 0,
            expected: 0,
            bags_loaded: 0,
            bags_reconciled: 0,
            updates: 0,
        }
    }
}

impl FlightView {
    /// A freshly scheduled flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply a status transition. Forward transitions succeed; regressions
    /// and post-cancellation updates are rejected (callers treat rejection
    /// as "ignore", not as an error to propagate — see module docs).
    pub fn transition(&mut self, to: FlightStatus) -> Result<(), TransitionError> {
        if self.status == FlightStatus::Cancelled {
            return Err(TransitionError::Cancelled);
        }
        if to == FlightStatus::Cancelled {
            self.status = to;
            self.updates += 1;
            return Ok(());
        }
        if to <= self.status {
            return Err(TransitionError::Regression { current: self.status, proposed: to });
        }
        self.status = to;
        self.updates += 1;
        Ok(())
    }

    /// Apply a position fix carried by stream sequence `seq`; stale fixes
    /// (and all fixes after arrival/cancellation) are ignored. Returns
    /// whether the fix was applied.
    pub fn apply_position(&mut self, seq: u64, fix: PositionFix) -> bool {
        if seq <= self.position_seq
            || matches!(self.status, FlightStatus::Arrived | FlightStatus::Cancelled)
        {
            return false;
        }
        self.position = Some(fix);
        self.position_seq = seq;
        self.updates += 1;
        true
    }

    /// Record a gate-reader boarding report (monotone in `boarded`).
    /// Returns `true` when this report completes boarding — the paper's
    /// "all passengers of a flight have boarded" derivation point.
    pub fn apply_boarding(&mut self, boarded: u32, expected: u32) -> bool {
        let was_complete = self.boarding_complete();
        if expected > 0 {
            self.expected = expected;
        }
        if boarded > self.boarded {
            self.boarded = boarded;
        }
        self.updates += 1;
        !was_complete && self.boarding_complete()
    }

    /// Have all expected passengers boarded?
    pub fn boarding_complete(&self) -> bool {
        self.expected > 0 && self.boarded >= self.expected
    }

    /// Record a baggage-system report (counts are monotone). Returns
    /// whether state changed.
    pub fn apply_baggage(&mut self, loaded: u32, reconciled: u32) -> bool {
        let before = (self.bags_loaded, self.bags_reconciled);
        self.bags_loaded = self.bags_loaded.max(loaded);
        self.bags_reconciled = self.bags_reconciled.max(reconciled).min(self.bags_loaded);
        let changed = before != (self.bags_loaded, self.bags_reconciled);
        if changed {
            self.updates += 1;
        }
        changed
    }

    /// Positive passenger-bag match: every loaded bag reconciled.
    pub fn baggage_reconciled(&self) -> bool {
        self.bags_reconciled >= self.bags_loaded
    }

    /// Is the flight in the air (between departure and landing)?
    pub fn airborne(&self) -> bool {
        matches!(self.status, FlightStatus::Departed | FlightStatus::EnRoute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(alt: f64) -> PositionFix {
        PositionFix { lat: 0.0, lon: 0.0, alt_ft: alt, speed_kts: 0.0, heading_deg: 0.0 }
    }

    #[test]
    fn forward_transitions_succeed() {
        let mut f = FlightView::new();
        for s in [
            FlightStatus::Boarding,
            FlightStatus::Departed,
            FlightStatus::EnRoute,
            FlightStatus::Landed,
            FlightStatus::AtRunway,
            FlightStatus::AtGate,
            FlightStatus::Arrived,
        ] {
            assert!(f.transition(s).is_ok(), "to {s:?}");
        }
        assert_eq!(f.status, FlightStatus::Arrived);
        assert_eq!(f.updates, 7);
    }

    #[test]
    fn skipping_statuses_is_legal() {
        // Selective mirroring may drop intermediate statuses.
        let mut f = FlightView::new();
        assert!(f.transition(FlightStatus::Landed).is_ok());
        assert!(f.transition(FlightStatus::Arrived).is_ok());
    }

    #[test]
    fn regressions_are_rejected() {
        let mut f = FlightView::new();
        f.transition(FlightStatus::Landed).unwrap();
        assert_eq!(
            f.transition(FlightStatus::Departed),
            Err(TransitionError::Regression {
                current: FlightStatus::Landed,
                proposed: FlightStatus::Departed
            })
        );
        assert_eq!(
            f.transition(FlightStatus::Landed),
            Err(TransitionError::Regression {
                current: FlightStatus::Landed,
                proposed: FlightStatus::Landed
            })
        );
        assert_eq!(f.status, FlightStatus::Landed);
    }

    #[test]
    fn cancellation_is_terminal() {
        let mut f = FlightView::new();
        f.transition(FlightStatus::Boarding).unwrap();
        f.transition(FlightStatus::Cancelled).unwrap();
        assert_eq!(f.transition(FlightStatus::Departed), Err(TransitionError::Cancelled));
        assert!(!f.apply_position(1, fix(100.0)));
    }

    #[test]
    fn stale_positions_ignored() {
        let mut f = FlightView::new();
        assert!(f.apply_position(5, fix(1000.0)));
        assert!(!f.apply_position(5, fix(2000.0)));
        assert!(!f.apply_position(3, fix(2000.0)));
        assert_eq!(f.position.unwrap().alt_ft, 1000.0);
        assert!(f.apply_position(9, fix(3000.0)));
        assert_eq!(f.position.unwrap().alt_ft, 3000.0);
    }

    #[test]
    fn positions_stop_after_arrival() {
        let mut f = FlightView::new();
        f.transition(FlightStatus::Arrived).unwrap();
        assert!(!f.apply_position(1, fix(0.0)));
    }

    #[test]
    fn boarding_completion_fires_once() {
        let mut f = FlightView::new();
        assert!(!f.apply_boarding(50, 100));
        assert!(!f.boarding_complete());
        assert!(f.apply_boarding(100, 100), "completion edge");
        assert!(f.boarding_complete());
        // Duplicate/late reports do not re-fire.
        assert!(!f.apply_boarding(100, 100));
        // Counts are monotone.
        assert!(!f.apply_boarding(80, 100));
        assert_eq!(f.boarded, 100);
    }

    #[test]
    fn baggage_counts_are_monotone_and_capped() {
        let mut f = FlightView::new();
        assert!(f.apply_baggage(10, 4));
        assert_eq!((f.bags_loaded, f.bags_reconciled), (10, 4));
        assert!(!f.baggage_reconciled());
        // Reconciled can never exceed loaded.
        assert!(f.apply_baggage(10, 50));
        assert_eq!(f.bags_reconciled, 10);
        assert!(f.baggage_reconciled());
        // Stale lower counts are absorbed.
        assert!(!f.apply_baggage(5, 2));
        assert_eq!((f.bags_loaded, f.bags_reconciled), (10, 10));
    }

    #[test]
    fn airborne_window() {
        let mut f = FlightView::new();
        assert!(!f.airborne());
        f.transition(FlightStatus::Departed).unwrap();
        assert!(f.airborne());
        f.transition(FlightStatus::Landed).unwrap();
        assert!(!f.airborne());
    }
}
