//! Semantic mirroring rules.
//!
//! "By performing mirroring at the middleware level, application semantics
//! may be used to reduce mirroring traffic" (paper §1). This module
//! implements the rule vocabulary of §3.2.1:
//!
//! * **type/content filters** — do not mirror events of a type, or whose
//!   content fails a predicate;
//! * **overwriting** — for an event type where a later event supersedes
//!   earlier ones (FAA position fixes), mirror only one event per flight out
//!   of every `max_len`;
//! * **complex sequences** (`set_complex_seq`) — once a trigger event with a
//!   given value is seen for a flight (e.g. Delta status `Landed`), discard
//!   subsequent events of another type for that flight (e.g. FAA positions);
//! * **complex tuples** (`set_complex_tuple`) — once all of a set of status
//!   values has been observed for a flight (`Landed`, `AtRunway`, `AtGate`),
//!   emit a single derived event (`Arrived`) standing in for them.
//!
//! Rules are evaluated on the *receive path* against the [`StatusTable`].
//! A rule can suppress an event's **mirror** copy while leaving its
//! **forward** copy (to the local main unit) intact: selective mirroring
//! trades the consistency of mirrored state for reduced traffic, but the
//! central site's own Event Derivation Engine continues to see the full
//! stream and to serve regular clients losslessly.

use crate::event::{Event, EventBody, EventType, FlightStatus, PositionFix};
use crate::status::StatusTable;

/// Content predicate usable in a [`Rule::Filter`]. Kept as a closed enum so
/// rules stay `Clone + Debug` and can cross the control channel; arbitrary
/// user code instead plugs in via [`crate::mirrorfn::MirrorFn`].
#[derive(Debug, Clone, PartialEq)]
pub enum ContentPredicate {
    /// Matches every event of the rule's type.
    Always,
    /// Matches events whose status value equals the given one.
    StatusEquals(FlightStatus),
    /// Matches position events below the given altitude (feet) — the
    /// paper's inclement-weather scenario tracks low flights more closely.
    AltitudeBelow(f64),
    /// Matches position events at or above the given altitude.
    AltitudeAtLeast(f64),
}

impl ContentPredicate {
    /// Evaluate against an event.
    pub fn matches(&self, event: &Event) -> bool {
        match self {
            ContentPredicate::Always => true,
            ContentPredicate::StatusEquals(s) => event.status_value() == Some(*s),
            ContentPredicate::AltitudeBelow(a) => match &event.body {
                EventBody::Position(p) => p.alt_ft < *a,
                EventBody::Coalesced { last, .. } => last.alt_ft < *a,
                _ => false,
            },
            ContentPredicate::AltitudeAtLeast(a) => match &event.body {
                EventBody::Position(p) => p.alt_ft >= *a,
                EventBody::Coalesced { last, .. } => last.alt_ft >= *a,
                _ => false,
            },
        }
    }
}

/// One semantic mirroring rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Rule {
    /// Do not mirror events of `ty` whose content matches `pred`.
    Filter {
        /// Event type the filter applies to.
        ty: EventType,
        /// Content predicate selecting the events to drop from mirroring.
        pred: ContentPredicate,
    },
    /// `set_overwrite(t, l)`: allow overwriting of events of `ty` with a
    /// maximum sequence length of `max_len` — mirror one, discard the next
    /// `max_len - 1` per flight.
    Overwrite {
        /// Event type subject to overwriting.
        ty: EventType,
        /// Maximum overwrite run length (`l` in the paper; ≤ 1 disables).
        max_len: u32,
    },
    /// `set_complex_seq(t1, value, t2)`: discard events of `discard_ty`
    /// for a flight after an event of `trigger_ty` with status
    /// `trigger_value` has been seen for it.
    ComplexSeq {
        /// Type of the trigger event (`t1`).
        trigger_ty: EventType,
        /// Status value that arms the trigger.
        trigger_value: FlightStatus,
        /// Type whose later events are discarded (`t2`).
        discard_ty: EventType,
    },
    /// `set_complex_tuple(t*, values, n)`: when all `parts` statuses have
    /// been observed for a flight, emit one derived event with status
    /// `emit` in place of the last constituent.
    ComplexTuple {
        /// Constituent status values to collect.
        parts: Vec<FlightStatus>,
        /// Status of the emitted combined event.
        emit: FlightStatus,
    },
}

/// What the rule set decided for one incoming event. The event itself
/// always reaches the local main unit; the decision only says whether it
/// is also mirrored, so evaluation never copies it.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleOutcome {
    /// Place the event on the ready queue for mirroring; `false` when
    /// selective rules suppress it.
    pub mirror: bool,
    /// Additional derived events produced by tuple rules; these go to both
    /// paths (they are new application-level facts).
    pub derived: Vec<Event>,
}

/// An ordered collection of semantic rules plus evaluation statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    rules: Vec<Rule>,
    /// Events whose mirror copy was suppressed.
    pub suppressed: u64,
    /// Derived events emitted by tuple rules.
    pub emitted: u64,
}

impl RuleSet {
    /// An empty rule set (default mirroring: everything is mirrored).
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a rule; rules are evaluated in insertion order.
    pub fn push(&mut self, rule: Rule) {
        self.rules.push(rule);
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, rule: Rule) -> Self {
        self.push(rule);
        self
    }

    /// Remove all rules of the same variant-and-type as `rule` then insert
    /// `rule` (the Table-1 setters replace previous settings).
    pub fn replace(&mut self, rule: Rule) {
        self.rules.retain(|r| !same_slot(r, &rule));
        self.rules.push(rule);
    }

    /// The rules currently installed.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// True if no semantic rules are installed (pure default mirroring).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluate the rule set against one incoming event.
    ///
    /// `table.observe(event)` must have been called by the receive path
    /// *before* evaluation (the receiving task records history first, then
    /// filters — the paper's status-table discipline).
    pub fn evaluate(&mut self, ev: &Event, table: &mut StatusTable) -> RuleOutcome {
        let mut out = RuleOutcome { mirror: true, derived: Vec::new() };
        for rule in &self.rules {
            // Once the mirror copy is suppressed, later rules cannot
            // resurrect it, but tuple rules may still emit derived events.
            match rule {
                Rule::Filter { ty, pred } => {
                    if out.mirror && ev.event_type() == *ty && pred.matches(ev) {
                        out.mirror = false;
                        self.suppressed += 1;
                    }
                }
                Rule::Overwrite { ty, max_len } => {
                    if out.mirror
                        && ev.event_type() == *ty
                        && !table.overwrite_admits(ev.flight, *ty, *max_len)
                    {
                        out.mirror = false;
                        self.suppressed += 1;
                    }
                }
                Rule::ComplexSeq { trigger_ty, trigger_value, discard_ty } => {
                    if ev.event_type() == *trigger_ty && ev.status_value() == Some(*trigger_value) {
                        table.set_seq_trigger(ev.flight, *discard_ty, true);
                    }
                    if out.mirror
                        && ev.event_type() == *discard_ty
                        && table.seq_trigger_armed(ev.flight, *discard_ty)
                    {
                        table.record_discard(ev.flight);
                        out.mirror = false;
                        self.suppressed += 1;
                    }
                }
                Rule::ComplexTuple { parts, emit } => {
                    // Only status-bearing events can complete a tuple, and
                    // only when this event contributes the last missing part.
                    let this_status = match ev.status_value() {
                        Some(s) => s,
                        None => continue,
                    };
                    if !parts.contains(&this_status) {
                        continue;
                    }
                    let all_seen = parts.iter().all(|p| table.has_seen_status(ev.flight, *p));
                    let already_emitted = table.has_seen_status(ev.flight, *emit);
                    if all_seen && !already_emitted {
                        let mut derived = Event::new(
                            ev.stream,
                            ev.seq,
                            ev.flight,
                            EventBody::Derived { status: *emit, collapsed: parts.len() as u32 },
                        );
                        derived.stamp = ev.stamp.clone();
                        derived.ingress_us = ev.ingress_us;
                        table.observe(&derived);
                        out.derived.push(derived);
                        self.emitted += 1;
                        // The combined event replaces the constituent on the
                        // mirror path.
                        out.mirror = false;
                    }
                }
            }
        }
        out
    }
}

/// Do two rules occupy the same "slot" for [`RuleSet::replace`] purposes?
fn same_slot(a: &Rule, b: &Rule) -> bool {
    match (a, b) {
        (Rule::Filter { ty: t1, .. }, Rule::Filter { ty: t2, .. }) => t1 == t2,
        (Rule::Overwrite { ty: t1, .. }, Rule::Overwrite { ty: t2, .. }) => t1 == t2,
        (Rule::ComplexSeq { discard_ty: d1, .. }, Rule::ComplexSeq { discard_ty: d2, .. }) => {
            d1 == d2
        }
        (Rule::ComplexTuple { emit: e1, .. }, Rule::ComplexTuple { emit: e2, .. }) => e1 == e2,
        _ => false,
    }
}

/// Coalesce a drained run of ready-queue events into fewer mirror events
/// (send-path transformation used by coalescing mirror functions).
///
/// Position events for the same flight collapse into one
/// [`EventBody::Coalesced`] carrying the most recent fix and the run count
/// (at most `max` originals per coalesced event — `set_params`' "maximum
/// number of events that can be coalesced"); all other events pass through
/// unchanged, in order. A `max` of 0 is treated as unbounded.
pub fn coalesce_run(events: Vec<Event>, max: u32) -> Vec<Event> {
    let cap = if max == 0 { u32::MAX } else { max };
    let mut out: Vec<Event> = Vec::with_capacity(events.len());
    // Index into `out` of the open coalesced-position event per flight.
    let mut open: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for ev in events {
        let fix: Option<PositionFix> = match &ev.body {
            EventBody::Position(p) => Some(*p),
            _ => None,
        };
        match fix {
            Some(p) => {
                let folded = if let Some(&idx) = open.get(&ev.flight) {
                    // Fold into the open coalesced event for this flight,
                    // unless it is already at capacity.
                    let slot = &mut out[idx];
                    let has_room = matches!(&slot.body,
                        EventBody::Coalesced { count, .. } if *count < cap);
                    if has_room {
                        if let EventBody::Coalesced { last, count } = &mut slot.body {
                            *last = p;
                            *count += 1;
                        }
                        slot.stamp.merge(&ev.stamp);
                        slot.seq = ev.seq;
                        // Earliest ingress time is retained so the
                        // update-delay metric reflects the oldest folded-in
                        // event.
                        slot.ingress_us = slot.ingress_us.min(ev.ingress_us);
                        slot.padding = slot.padding.max(ev.padding);
                        true
                    } else {
                        false
                    }
                } else {
                    false
                };
                if !folded {
                    let mut c = ev.clone();
                    c.body = EventBody::Coalesced { last: p, count: 1 };
                    open.insert(ev.flight, out.len());
                    out.push(c);
                }
            }
            None => {
                // A non-position event closes open runs for its flight so
                // ordering with status changes is preserved.
                open.remove(&ev.flight);
                out.push(ev);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, FlightStatus, PositionFix};

    fn fix(alt: f64) -> PositionFix {
        PositionFix { lat: 1.0, lon: 2.0, alt_ft: alt, speed_kts: 400.0, heading_deg: 90.0 }
    }

    fn pos(seq: u64, flight: u32) -> Event {
        Event::faa_position(seq, flight, fix(30000.0))
    }

    fn eval(rs: &mut RuleSet, t: &mut StatusTable, e: Event) -> RuleOutcome {
        t.observe(&e);
        rs.evaluate(&e, t)
    }

    #[test]
    fn empty_ruleset_passes_everything_through() {
        let mut rs = RuleSet::new();
        let mut t = StatusTable::new();
        let out = eval(&mut rs, &mut t, pos(1, 10));
        assert!(out.mirror);
        assert!(out.derived.is_empty());
    }

    #[test]
    fn filter_suppresses_mirror_but_not_forward() {
        let mut rs = RuleSet::new()
            .with(Rule::Filter { ty: EventType::FaaPosition, pred: ContentPredicate::Always });
        let mut t = StatusTable::new();
        let out = eval(&mut rs, &mut t, pos(1, 10));
        assert!(!out.mirror);
        assert_eq!(rs.suppressed, 1);
    }

    #[test]
    fn altitude_filter_is_content_sensitive() {
        let mut rs = RuleSet::new().with(Rule::Filter {
            ty: EventType::FaaPosition,
            pred: ContentPredicate::AltitudeAtLeast(10000.0),
        });
        let mut t = StatusTable::new();
        // High flight: filtered from mirroring.
        let out = eval(&mut rs, &mut t, Event::faa_position(1, 10, fix(30000.0)));
        assert!(!out.mirror);
        // Low flight (approach): mirrored.
        let out = eval(&mut rs, &mut t, Event::faa_position(2, 10, fix(2000.0)));
        assert!(out.mirror);
    }

    #[test]
    fn overwrite_mirrors_one_in_max_len_per_flight() {
        let mut rs =
            RuleSet::new().with(Rule::Overwrite { ty: EventType::FaaPosition, max_len: 10 });
        let mut t = StatusTable::new();
        let mut mirrored = 0;
        for seq in 1..=100 {
            let out = eval(&mut rs, &mut t, pos(seq, 7));
            if out.mirror {
                mirrored += 1;
            }
        }
        assert!((10..=11).contains(&mirrored), "mirrored {mirrored} of 100");
    }

    #[test]
    fn complex_seq_discards_positions_after_landing() {
        let mut rs = RuleSet::new().with(Rule::ComplexSeq {
            trigger_ty: EventType::DeltaStatus,
            trigger_value: FlightStatus::Landed,
            discard_ty: EventType::FaaPosition,
        });
        let mut t = StatusTable::new();
        // Before landing: positions mirrored.
        assert!(eval(&mut rs, &mut t, pos(1, 5)).mirror);
        // The landing event itself is mirrored (it's the trigger, not the target).
        let landed = Event::delta_status(1, 5, FlightStatus::Landed);
        assert!(eval(&mut rs, &mut t, landed).mirror);
        // After landing: positions for flight 5 discarded…
        assert!(!eval(&mut rs, &mut t, pos(2, 5)).mirror);
        // …but other flights unaffected.
        assert!(eval(&mut rs, &mut t, pos(3, 6)).mirror);
    }

    #[test]
    fn complex_tuple_emits_one_arrived_event() {
        let mut rs = RuleSet::new().with(Rule::ComplexTuple {
            parts: vec![FlightStatus::Landed, FlightStatus::AtRunway, FlightStatus::AtGate],
            emit: FlightStatus::Arrived,
        });
        let mut t = StatusTable::new();
        let out = eval(&mut rs, &mut t, Event::delta_status(1, 9, FlightStatus::Landed));
        assert!(out.derived.is_empty());
        let out = eval(&mut rs, &mut t, Event::delta_status(2, 9, FlightStatus::AtRunway));
        assert!(out.derived.is_empty());
        let out = eval(&mut rs, &mut t, Event::delta_status(3, 9, FlightStatus::AtGate));
        assert_eq!(out.derived.len(), 1);
        assert_eq!(out.derived[0].status_value(), Some(FlightStatus::Arrived));
        // The completing constituent is replaced on the mirror path.
        assert!(!out.mirror);
        // A repeated constituent does not re-emit.
        let out = eval(&mut rs, &mut t, Event::delta_status(4, 9, FlightStatus::AtGate));
        assert!(out.derived.is_empty());
        assert_eq!(rs.emitted, 1);
    }

    #[test]
    fn tuple_plus_seq_compose_into_arrival_cleanup() {
        // The paper's example: once `Arrived` exists, all positions for the
        // flight can be discarded.
        let mut rs = RuleSet::new()
            .with(Rule::ComplexTuple {
                parts: vec![FlightStatus::Landed, FlightStatus::AtGate],
                emit: FlightStatus::Arrived,
            })
            .with(Rule::ComplexSeq {
                trigger_ty: EventType::Derived,
                trigger_value: FlightStatus::Arrived,
                discard_ty: EventType::FaaPosition,
            });
        let mut t = StatusTable::new();
        eval(&mut rs, &mut t, Event::delta_status(1, 3, FlightStatus::Landed));
        let out = eval(&mut rs, &mut t, Event::delta_status(2, 3, FlightStatus::AtGate));
        assert_eq!(out.derived.len(), 1);
        // Feed the derived event back through (as the aux unit does).
        assert!(rs.evaluate(&out.derived[0], &mut t).mirror);
        // Positions for flight 3 are now discarded.
        assert!(!eval(&mut rs, &mut t, pos(9, 3)).mirror);
    }

    #[test]
    fn replace_swaps_same_slot_rule() {
        let mut rs =
            RuleSet::new().with(Rule::Overwrite { ty: EventType::FaaPosition, max_len: 10 });
        rs.replace(Rule::Overwrite { ty: EventType::FaaPosition, max_len: 20 });
        assert_eq!(rs.rules().len(), 1);
        assert_eq!(rs.rules()[0], Rule::Overwrite { ty: EventType::FaaPosition, max_len: 20 });
        // Different slot appends.
        rs.replace(Rule::Overwrite { ty: EventType::DeltaStatus, max_len: 5 });
        assert_eq!(rs.rules().len(), 2);
    }

    #[test]
    fn coalesce_folds_same_flight_positions() {
        let run = vec![pos(1, 1), pos(2, 1), pos(3, 2), pos(4, 1)];
        let out = coalesce_run(run, 0);
        // flight 1 run of (1,2) + flight 2 + flight 1 continues (4 folds in
        // since no interleaving non-position event closed it).
        assert_eq!(out.len(), 2);
        match &out[0].body {
            EventBody::Coalesced { count, .. } => assert_eq!(*count, 3),
            b => panic!("expected coalesced, got {b:?}"),
        }
        match &out[1].body {
            EventBody::Coalesced { count, .. } => assert_eq!(*count, 1),
            b => panic!("expected coalesced, got {b:?}"),
        }
    }

    #[test]
    fn coalesce_preserves_status_ordering() {
        let run = vec![pos(1, 1), Event::delta_status(1, 1, FlightStatus::Landed), pos(2, 1)];
        let out = coalesce_run(run, 0);
        assert_eq!(out.len(), 3);
        assert!(matches!(out[0].body, EventBody::Coalesced { count: 1, .. }));
        assert!(matches!(out[1].body, EventBody::Status(FlightStatus::Landed)));
        assert!(matches!(out[2].body, EventBody::Coalesced { count: 1, .. }));
    }

    #[test]
    fn coalesce_respects_cap() {
        let run: Vec<Event> = (1..=7).map(|s| pos(s, 1)).collect();
        let out = coalesce_run(run, 3);
        // 7 events, cap 3 → runs of 3, 3, 1.
        let counts: Vec<u32> = out
            .iter()
            .map(|e| match &e.body {
                EventBody::Coalesced { count, .. } => *count,
                b => panic!("expected coalesced, got {b:?}"),
            })
            .collect();
        assert_eq!(counts, vec![3, 3, 1]);
    }

    #[test]
    fn coalesce_keeps_earliest_ingress_and_latest_fix() {
        let mut a = Event::faa_position(1, 1, fix(10000.0)).with_ingress_us(100);
        let mut b = Event::faa_position(2, 1, fix(20000.0)).with_ingress_us(50);
        a.stamp.advance(0, 1);
        b.stamp.advance(0, 2);
        let out = coalesce_run(vec![a, b], 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ingress_us, 50);
        match &out[0].body {
            EventBody::Coalesced { last, count } => {
                assert_eq!(*count, 2);
                assert_eq!(last.alt_ft, 20000.0);
            }
            b => panic!("expected coalesced, got {b:?}"),
        }
        assert_eq!(out[0].stamp.get(0), 2);
    }
}
