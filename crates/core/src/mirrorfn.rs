//! Mirroring and forwarding functions.
//!
//! The sending task removes events from the ready queue and mirrors them
//! onto all outgoing channels. *How* that happens is customizable: the
//! paper's `set_mirror()` / `set_fwd()` calls install programmer-provided
//! functions, and the built-in alternatives ("simple", "selective",
//! coalescing) are what the evaluation compares (Figures 4, 7, 8, 9).
//!
//! A [`MirrorFn`] is a send-path batch transform: it rewrites, in place,
//! the run of events drained from the ready queue into the events actually
//! placed on the wire. Events are shared (`Arc`): a function that passes an
//! event through keeps the allocation the receiving task stamped, which the
//! forward path shares too. Receive-path selectivity (overwriting, complex
//! rules) lives in [`crate::rules::RuleSet`]; the named
//! [`MirrorFnKind`] presets bundle both so whole configurations can be
//! named, compared, and shipped to mirrors during adaptation.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::event::{Event, EventBody, EventType, PositionFix};
use crate::params::MirrorParams;
use crate::rules::{Rule, RuleSet};

/// Decision returned by per-event custom forwarding functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MirrorDecision {
    /// Put the event on the wire.
    Send,
    /// Silently drop it.
    Drop,
}

/// A send-path mirroring function: transforms the batch of ready events
/// into the batch of wire events. Implementations may hold partial state
/// across calls (e.g. per-flight coalescing runs); [`flush`](MirrorFn::flush)
/// releases it. An event in the run may be shared with the forward path,
/// so a function that changes one emits a new event (as coalescing does)
/// or copies on write (`Arc::make_mut`).
pub trait MirrorFn: Send {
    /// Rewrite a drained ready-queue run, in place, into the events to
    /// mirror.
    fn prepare(&mut self, batch: &mut Vec<Arc<Event>>, params: &MirrorParams);

    /// Append any partially accumulated wire events to `out` (sending-task
    /// wakeup / end of stream). Default: nothing buffered.
    fn flush(&mut self, _out: &mut Vec<Arc<Event>>, _params: &MirrorParams) {}

    /// Human-readable name (for logs and experiment output).
    fn name(&self) -> &'static str;
}

/// Mirror every event independently — the paper's *simple* mirroring.
#[derive(Debug, Default, Clone, Copy)]
pub struct IndependentMirror;

impl MirrorFn for IndependentMirror {
    fn prepare(&mut self, _batch: &mut Vec<Arc<Event>>, _params: &MirrorParams) {}
    fn name(&self) -> &'static str {
        "independent"
    }
}

/// Coalesce position events **per flight** before mirroring: up to
/// `params.coalesce_max` consecutive fixes for a flight collapse into one
/// [`crate::event::EventBody::Coalesced`] wire event carrying the latest
/// fix ("coalesces up to 10 events and then produces one mirror event, thus
/// overwriting up to 10 flight position events" — §4.3).
///
/// Runs accumulate *across* sending-task drains — the status-table-style
/// state lives here — and are closed by (a) reaching the cap, (b) a
/// non-position event for the same flight (ordering with status changes is
/// preserved), or (c) a [`flush`](MirrorFn::flush).
#[derive(Debug, Default)]
pub struct CoalescingMirror {
    open: HashMap<u32, Event>,
    /// The run `prepare` is rewriting, kept so its allocation is reused.
    input: Vec<Arc<Event>>,
}

impl CoalescingMirror {
    /// A coalescer with no open runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of flights with an open (partially accumulated) run.
    pub fn open_runs(&self) -> usize {
        self.open.len()
    }

    fn fold(&mut self, ev: Arc<Event>, fix: PositionFix, cap: u32, out: &mut Vec<Arc<Event>>) {
        let flight = ev.flight;
        let run = match self.open.entry(flight) {
            // The run's first event becomes its representative: moved out
            // of its `Arc` when the ready queue held the only reference,
            // copied when the forward path shares it.
            Entry::Vacant(slot) => {
                let mut first = Arc::unwrap_or_clone(ev);
                first.body = EventBody::Coalesced { last: fix, count: 1 };
                slot.insert(first)
            }
            Entry::Occupied(slot) => {
                let run = slot.into_mut();
                if let EventBody::Coalesced { last, count } = &mut run.body {
                    *last = fix;
                    *count += 1;
                }
                run.stamp.merge(&ev.stamp);
                run.seq = ev.seq;
                // Oldest folded-in ingress governs the update-delay metric.
                run.ingress_us = run.ingress_us.min(ev.ingress_us);
                run.padding = run.padding.max(ev.padding);
                run
            }
        };
        if matches!(run.body, EventBody::Coalesced { count, .. } if count >= cap) {
            let done = self.open.remove(&flight).expect("slot exists");
            out.push(Arc::new(done));
        }
    }
}

impl MirrorFn for CoalescingMirror {
    fn prepare(&mut self, batch: &mut Vec<Arc<Event>>, params: &MirrorParams) {
        if !params.coalesce || params.coalesce_max <= 1 {
            // Disabled: release anything buffered ahead of the batch, which
            // passes through.
            if !self.open.is_empty() {
                let mut out = Vec::with_capacity(self.open.len() + batch.len());
                self.flush(&mut out, params);
                out.append(batch);
                *batch = out;
            }
            return;
        }
        let cap = params.coalesce_max;
        let mut input = std::mem::take(&mut self.input);
        std::mem::swap(&mut input, batch);
        for ev in input.drain(..) {
            match ev.body {
                EventBody::Position(p) => self.fold(ev, p, cap, batch),
                _ => {
                    // Close this flight's run first so status/position
                    // ordering survives coalescing.
                    if let Some(open) = self.open.remove(&ev.flight) {
                        batch.push(Arc::new(open));
                    }
                    batch.push(ev);
                }
            }
        }
        self.input = input;
    }

    fn flush(&mut self, out: &mut Vec<Arc<Event>>, _params: &MirrorParams) {
        let mut runs: Vec<Event> = self.open.drain().map(|(_, e)| e).collect();
        // Deterministic emission order regardless of hash-map iteration.
        runs.sort_by_key(|e| (e.flight, e.seq));
        out.extend(runs.into_iter().map(Arc::new));
    }

    fn name(&self) -> &'static str {
        "coalescing"
    }
}

/// Adapter turning a per-event closure into a [`MirrorFn`] — the escape
/// hatch behind `set_mirror(func)` / `set_fwd(func)` for arbitrary
/// application code.
pub struct FnMirror<F> {
    f: F,
    label: &'static str,
}

impl<F> FnMirror<F>
where
    F: FnMut(&Event, &MirrorParams) -> MirrorDecision + Send,
{
    /// Wrap a per-event decision function.
    pub fn new(label: &'static str, f: F) -> Self {
        FnMirror { f, label }
    }
}

impl<F> MirrorFn for FnMirror<F>
where
    F: FnMut(&Event, &MirrorParams) -> MirrorDecision + Send,
{
    fn prepare(&mut self, batch: &mut Vec<Arc<Event>>, params: &MirrorParams) {
        batch.retain(|e| (self.f)(e, params) == MirrorDecision::Send);
    }
    fn name(&self) -> &'static str {
        self.label
    }
}

/// Named mirroring configurations — the units the adaptation
/// controller switches between and the configurations the paper's figures
/// compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MirrorFnKind {
    /// No mirroring at all (the paper's baseline in Figure 4).
    None,
    /// Default mirroring: every event mirrored independently.
    Simple,
    /// Selective mirroring: overwrite runs of up to `overwrite` position
    /// events per flight (mirror one in `overwrite`).
    Selective {
        /// Maximum overwrite sequence length.
        overwrite: u32,
    },
    /// Coalescing mirroring: fold up to `coalesce` position events into one
    /// wire event (§4.3's normal adaptive profile).
    Coalescing {
        /// Maximum events folded per coalesced wire event.
        coalesce: u32,
        /// Checkpoint frequency (events between checkpoints).
        checkpoint_every: u32,
    },
    /// Overwriting mirroring with an explicit checkpoint interval —
    /// §4.3's degraded profile ("overwrites up to 20 flight position
    /// events and performs checkpointing every 100 events"): discards
    /// superseded events outright instead of folding them.
    Overwriting {
        /// Maximum overwrite sequence length.
        overwrite: u32,
        /// Checkpoint frequency (events between checkpoints).
        checkpoint_every: u32,
    },
}

impl MirrorFnKind {
    /// Build the send-path function for this kind.
    pub fn build(&self) -> Box<dyn MirrorFn> {
        match self {
            MirrorFnKind::None
            | MirrorFnKind::Simple
            | MirrorFnKind::Selective { .. }
            | MirrorFnKind::Overwriting { .. } => Box::new(IndependentMirror),
            MirrorFnKind::Coalescing { .. } => Box::new(CoalescingMirror::new()),
        }
    }

    /// Build the receive-path rule set for this kind.
    pub fn rules(&self) -> RuleSet {
        match self {
            MirrorFnKind::None | MirrorFnKind::Simple | MirrorFnKind::Coalescing { .. } => {
                RuleSet::new()
            }
            MirrorFnKind::Selective { overwrite } | MirrorFnKind::Overwriting { overwrite, .. } => {
                RuleSet::new()
                    .with(Rule::Overwrite { ty: EventType::FaaPosition, max_len: *overwrite })
            }
        }
    }

    /// Build the parameter set for this kind, starting from `base`.
    pub fn params(&self, base: &MirrorParams) -> MirrorParams {
        let mut p = base.clone();
        match self {
            MirrorFnKind::None | MirrorFnKind::Simple => {
                p.coalesce = false;
                p.coalesce_max = 1;
                p.overwrite_max = 0;
            }
            MirrorFnKind::Selective { overwrite } => {
                p.coalesce = false;
                p.coalesce_max = 1;
                p.overwrite_max = *overwrite;
            }
            MirrorFnKind::Coalescing { coalesce, checkpoint_every } => {
                p.coalesce = *coalesce > 1;
                p.coalesce_max = *coalesce;
                p.overwrite_max = *coalesce;
                p.checkpoint_every = *checkpoint_every;
            }
            MirrorFnKind::Overwriting { overwrite, checkpoint_every } => {
                p.coalesce = false;
                p.coalesce_max = 1;
                p.overwrite_max = *overwrite;
                p.checkpoint_every = *checkpoint_every;
            }
        }
        p.touch();
        p
    }

    /// Does this configuration mirror at all?
    pub fn mirrors(&self) -> bool {
        !matches!(self, MirrorFnKind::None)
    }

    /// Short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            MirrorFnKind::None => "no-mirroring",
            MirrorFnKind::Simple => "simple",
            MirrorFnKind::Selective { .. } => "selective",
            MirrorFnKind::Coalescing { .. } => "coalescing",
            MirrorFnKind::Overwriting { .. } => "overwriting",
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use crate::event::{EventBody, PositionFix};

    fn fix() -> PositionFix {
        PositionFix { lat: 0.0, lon: 0.0, alt_ft: 1000.0, speed_kts: 1.0, heading_deg: 0.0 }
    }

    fn batch(n: u64, flight: u32) -> Vec<Arc<Event>> {
        (1..=n).map(|s| Arc::new(Event::faa_position(s, flight, fix()))).collect()
    }

    fn prepared(
        m: &mut impl MirrorFn,
        mut batch: Vec<Arc<Event>>,
        p: &MirrorParams,
    ) -> Vec<Arc<Event>> {
        m.prepare(&mut batch, p);
        batch
    }

    fn coalescing(cap: u32) -> MirrorParams {
        let mut p = MirrorParams::default();
        p.coalesce = true;
        p.coalesce_max = cap;
        p
    }

    #[test]
    fn independent_mirror_is_identity() {
        let b = batch(5, 1);
        let out = prepared(&mut IndependentMirror, b.clone(), &MirrorParams::default());
        assert_eq!(out.len(), b.len());
        assert!(out.iter().zip(&b).all(|(o, e)| Arc::ptr_eq(o, e)), "same allocations");
    }

    #[test]
    fn coalescing_mirror_folds_when_enabled() {
        let mut m = CoalescingMirror::new();
        let out = prepared(&mut m, batch(10, 1), &coalescing(10));
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].body, EventBody::Coalesced { count: 10, .. }));
        assert_eq!(m.open_runs(), 0);
    }

    #[test]
    fn coalescing_accumulates_across_drains() {
        let mut m = CoalescingMirror::new();
        let p = coalescing(4);
        // Events arrive one drain at a time (the realistic pattern).
        let mut out = Vec::new();
        for seq in 1..=7 {
            let e = Arc::new(Event::faa_position(seq, 1, fix()));
            out.extend(prepared(&mut m, vec![e], &p));
        }
        assert_eq!(out.len(), 1, "first run of 4 closed");
        assert!(matches!(out[0].body, EventBody::Coalesced { count: 4, .. }));
        assert_eq!(m.open_runs(), 1, "3 events still open");
        let mut tail = Vec::new();
        m.flush(&mut tail, &p);
        assert_eq!(tail.len(), 1);
        assert!(matches!(tail[0].body, EventBody::Coalesced { count: 3, .. }));
        assert_eq!(m.open_runs(), 0);
    }

    #[test]
    fn coalescing_runs_are_per_flight() {
        let mut m = CoalescingMirror::new();
        let evs = (1..=6)
            .map(|seq| Arc::new(Event::faa_position(seq, (seq % 2) as u32 + 1, fix())))
            .collect();
        let out = prepared(&mut m, evs, &coalescing(3));
        assert_eq!(out.len(), 2, "each flight closed one run of 3");
        for e in &out {
            assert!(matches!(e.body, EventBody::Coalesced { count: 3, .. }));
        }
    }

    #[test]
    fn status_event_closes_open_run_in_order() {
        let mut m = CoalescingMirror::new();
        let mut evs = batch(2, 1);
        evs.push(Arc::new(Event::delta_status(1, 1, crate::event::FlightStatus::Landed)));
        let out = prepared(&mut m, evs, &coalescing(10));
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0].body, EventBody::Coalesced { count: 2, .. }));
        assert!(matches!(out[1].body, EventBody::Status(_)));
    }

    #[test]
    fn coalescing_mirror_passthrough_when_disabled() {
        let mut m = CoalescingMirror::new();
        let p = MirrorParams::default(); // coalesce = false
        let out = prepared(&mut m, batch(4, 1), &p);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn fn_mirror_filters_per_event() {
        let mut m = FnMirror::new("odd-only", |e: &Event, _: &MirrorParams| {
            if e.seq % 2 == 1 {
                MirrorDecision::Send
            } else {
                MirrorDecision::Drop
            }
        });
        let out = prepared(&mut m, batch(6, 1), &MirrorParams::default());
        assert_eq!(out.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(m.name(), "odd-only");
    }

    #[test]
    fn kind_builds_consistent_config() {
        let k = MirrorFnKind::Selective { overwrite: 10 };
        assert_eq!(k.rules().rules().len(), 1);
        let p = k.params(&MirrorParams::default());
        assert_eq!(p.overwrite_max, 10);
        assert!(!p.coalesce);

        let k = MirrorFnKind::Coalescing { coalesce: 20, checkpoint_every: 100 };
        let p = k.params(&MirrorParams::default());
        assert!(p.coalesce);
        assert_eq!(p.coalesce_max, 20);
        assert_eq!(p.checkpoint_every, 100);
        assert!(k.rules().is_empty());
    }

    #[test]
    fn kind_labels_and_mirrors_flag() {
        assert!(!MirrorFnKind::None.mirrors());
        assert!(MirrorFnKind::Simple.mirrors());
        assert_eq!(MirrorFnKind::Simple.label(), "simple");
        assert_eq!(MirrorFnKind::Selective { overwrite: 5 }.label(), "selective");
    }
}
