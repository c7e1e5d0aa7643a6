//! Property tests on the auxiliary-unit pipeline as a whole: random event
//! streams through a central unit and a mirror unit, checking the paper's
//! structural guarantees.

use adaptable_mirroring::core::api::MirrorConfig;
use adaptable_mirroring::core::aux_unit::{AuxAction, AuxInput};
use adaptable_mirroring::core::event::{Event, EventBody, EventType, FlightStatus, PositionFix};
use adaptable_mirroring::core::mirrorfn::MirrorFnKind;
use adaptable_mirroring::ede::Ede;
use adaptable_mirroring::workload::rng::{check, Rng};

fn fix(v: f64) -> PositionFix {
    PositionFix { lat: v, lon: v, alt_ft: 10_000.0 + v, speed_kts: 400.0, heading_deg: 0.0 }
}

/// (flight, is_position) pairs drive a deterministic event stream.
fn arb_stream(rng: &mut Rng) -> Vec<(u32, bool)> {
    rng.gen_vec(1..200, |r| (r.gen_range(0..6), r.gen_bool()))
}

fn build_events(spec: &[(u32, bool)]) -> Vec<Event> {
    let mut faa_seq = 0u64;
    let mut delta_seq = 0u64;
    spec.iter()
        .map(|&(flight, is_pos)| {
            if is_pos {
                faa_seq += 1;
                Event::faa_position(faa_seq, flight, fix(faa_seq as f64))
            } else {
                delta_seq += 1;
                // Cycle through statuses; regressions are absorbed by the EDE.
                let status = FlightStatus::ALL[(delta_seq % 7) as usize];
                Event::delta_status(delta_seq, flight, status)
            }
        })
        .collect()
}

/// The forward path is lossless under every built-in mirroring kind:
/// the central EDE sees exactly the input events (plus derivations),
/// regardless of how aggressively the mirror path filters.
#[test]
fn forward_path_is_lossless_under_all_kinds() {
    check("forward_path_is_lossless_under_all_kinds", 64, |rng| {
        let spec = arb_stream(rng);
        let kind_ix = rng.gen_range(0..4usize);
        let kind = [
            MirrorFnKind::Simple,
            MirrorFnKind::Selective { overwrite: 7 },
            MirrorFnKind::Coalescing { coalesce: 5, checkpoint_every: 50 },
            MirrorFnKind::Overwriting { overwrite: 9, checkpoint_every: 50 },
        ][kind_ix];
        let mut aux = MirrorConfig::default().build_central(vec![1]);
        aux.install_kind(kind);
        let events = build_events(&spec);
        let mut forwarded = 0usize;
        for e in events.iter().cloned() {
            for a in aux.handle(AuxInput::Data(e.into())) {
                if let AuxAction::ForwardToMain(f) = a {
                    // Derived events (from tuple rules) would add extras;
                    // none are configured here, so the forward stream is
                    // exactly the input stream, in order.
                    assert!(f.event_type() != EventType::Derived);
                    forwarded += 1;
                }
            }
        }
        assert_eq!(forwarded, events.len());
    });
}

/// Mirrored wire events are always a *subset representation* of the
/// input: replaying them through an EDE never produces state the full
/// stream wouldn't (positions match the latest forwarded fix or an
/// earlier one; statuses never exceed the full stream's).
#[test]
fn mirror_stream_is_a_faithful_subset() {
    check("mirror_stream_is_a_faithful_subset", 64, |rng| {
        let spec = arb_stream(rng);
        let mut aux = MirrorConfig::default().build_central(vec![1]);
        aux.install_kind(MirrorFnKind::Selective { overwrite: 5 });
        let events = build_events(&spec);

        let mut full = Ede::new();
        let mut thin = Ede::new();
        for e in events.iter().cloned() {
            for a in aux.handle(AuxInput::Data(e.into())) {
                match a {
                    AuxAction::ForwardToMain(f) => {
                        full.process(&f);
                    }
                    AuxAction::Mirror { event: m, .. } => {
                        thin.process(&m);
                    }
                    _ => {}
                }
            }
        }
        // Drain any coalescing tail.
        for a in aux.handle(AuxInput::Flush) {
            if let AuxAction::Mirror { event: m, .. } = a {
                thin.process(&m);
            }
        }
        // Every flight the thin view knows, the full view knows, and the
        // thin view is never *ahead* of the full view.
        for (id, tv) in thin.state().iter() {
            let fv = full.state().flight(*id);
            assert!(fv.is_some(), "mirror invented flight {id}");
            let fv = fv.unwrap();
            assert!(
                tv.status <= fv.status || fv.status == FlightStatus::Cancelled,
                "mirror ahead on flight {}: {:?} > {:?}",
                id,
                tv.status,
                fv.status
            );
            assert!(
                tv.position_seq <= fv.position_seq,
                "mirror has a newer fix than the full stream"
            );
        }
    });
}

/// Stamps assigned by the receiving task are monotone (each stamped
/// event dominates-or-equals its predecessor) — the property vector
/// timestamps need for checkpoint minima to make sense.
#[test]
fn receiving_task_stamps_are_monotone() {
    check("receiving_task_stamps_are_monotone", 64, |rng| {
        let spec = arb_stream(rng);
        let mut aux = MirrorConfig::default().build_central(vec![1]);
        let events = build_events(&spec);
        let mut last = adaptable_mirroring::core::timestamp::VectorTimestamp::empty();
        for e in events {
            for a in aux.handle(AuxInput::Data(e.into())) {
                if let AuxAction::ForwardToMain(f) = a {
                    assert!(
                        last.dominated_by(&f.stamp),
                        "stamp regressed: {} then {}",
                        last,
                        f.stamp
                    );
                    last = f.stamp.clone();
                }
            }
        }
    });
}

/// Counter bookkeeping: received = forwarded (no derivations
/// configured), mirrored + suppressed = received for per-event kinds.
#[test]
fn counters_balance() {
    check("counters_balance", 64, |rng| {
        let spec = arb_stream(rng);
        let mut aux = MirrorConfig::default().build_central(vec![1]);
        aux.install_kind(MirrorFnKind::Selective { overwrite: 4 });
        let events = build_events(&spec);
        let n = events.len() as u64;
        for e in events {
            aux.handle(AuxInput::Data(e.into()));
        }
        let c = aux.counters();
        assert_eq!(c.received, n);
        assert_eq!(c.forwarded, n);
        assert_eq!(c.mirrored + c.suppressed, n);
    });
}

/// Non-property check: a coalescing unit conserves event counts across
/// arbitrary flush points.
#[test]
fn coalescing_conserves_counts_across_flushes() {
    let mut aux = MirrorConfig::default().build_central(vec![1]);
    aux.install_kind(MirrorFnKind::Coalescing { coalesce: 4, checkpoint_every: 1000 });
    let mut total_represented = 0u64;
    let mut sent = 0u64;
    for seq in 1..=97u64 {
        let e = Event::faa_position(seq, (seq % 3) as u32, fix(seq as f64));
        for a in aux.handle(AuxInput::Data(e.into())) {
            if let AuxAction::Mirror { event: m, .. } = a {
                sent += 1;
                if let EventBody::Coalesced { count, .. } = m.body {
                    total_represented += count as u64;
                } else {
                    total_represented += 1;
                }
            }
        }
        if seq % 13 == 0 {
            for a in aux.handle(AuxInput::Flush) {
                if let AuxAction::Mirror { event: m, .. } = a {
                    sent += 1;
                    if let EventBody::Coalesced { count, .. } = m.body {
                        total_represented += count as u64;
                    } else {
                        total_represented += 1;
                    }
                }
            }
        }
    }
    for a in aux.handle(AuxInput::Flush) {
        if let AuxAction::Mirror { event: m, .. } = a {
            sent += 1;
            if let EventBody::Coalesced { count, .. } = m.body {
                total_represented += count as u64;
            } else {
                total_represented += 1;
            }
        }
    }
    assert_eq!(total_represented, 97, "every input represented exactly once");
    assert!(sent < 97, "coalescing must compress ({sent} wire events)");
}
