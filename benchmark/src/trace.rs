//! Spans recorded around the benchmark's own calls into the stack.
//!
//! One in [`SAMPLE_EVERY`] events is traced. Every span of a traced event
//! carries the id `(stream, seq)` and hangs under a parent `event` span
//! (due → last delivery). Spans stay in memory and are written out as JSON
//! lines when the run ends. Spans *inside* the program are a later issue;
//! these bracket its public front doors only.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;

use crate::stats::{Json, Summary};

/// One event in this many is traced.
pub const SAMPLE_EVERY: u64 = 64;

/// Is the event `(stream, seq)` traced? Driver and observer decide
/// independently from the id alone, so they agree without talking.
pub fn sampled(seq: u64) -> bool {
    seq.is_multiple_of(SAMPLE_EVERY)
}

/// The parent span's name.
pub const EVENT: &str = "event";

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Trace id: the event's `(stream, seq)`, a request's `(u16::MAX, id)`,
    /// or a failover trial's `(u16::MAX - 1, trial)`.
    pub id: (u16, u64),
    /// `event`, `stage.ingest`, `stage.mirror_apply`, …
    pub name: &'static str,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<&'static str>,
    /// Start, µs on the cluster clock.
    pub start_us: u64,
    /// End, µs on the cluster clock.
    pub end_us: u64,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.end_us.saturating_sub(self.start_us) as f64
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("trace", Json::str(format!("{}:{}", self.id.0, self.id.1))),
            ("span", Json::str(self.name)),
            ("parent", self.parent.map(Json::str).unwrap_or(Json::Null)),
            ("start_us", Json::Int(self.start_us as i64)),
            ("end_us", Json::Int(self.end_us as i64)),
        ])
    }
}

/// What the two generator threads saw of one traced event. Timestamps are
/// µs on the cluster clock; 0 = not observed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventTimes {
    /// When the event was due.
    pub due: u64,
    /// When `submit` returned.
    pub submitted: u64,
    /// When its update came off the central's update subscription.
    pub central: u64,
    /// When its update came off mirror 1's update subscription.
    pub mirror: u64,
    /// When the last edge subscriber's `poll` returned it.
    pub edge: u64,
}

/// Turn per-event observations into spans: `stage.ingest` (due → submit
/// returned), `stage.central_apply` and `stage.mirror_apply` (submit →
/// update observed at that site), `stage.edge_deliver` (mirror update →
/// last poll), all under `event`: due → the end of the blocking path,
/// i.e. the last edge delivery, or the mirror's apply where nothing sits
/// behind the mirror. The central's apply is a side branch off that path.
/// Events whose submit or whose path's end went unobserved yield nothing.
pub fn event_spans(times: &BTreeMap<(u16, u64), EventTimes>) -> Vec<Span> {
    let mut out = Vec::new();
    for (&id, t) in times {
        let last = if t.edge != 0 { t.edge } else { t.mirror };
        if t.submitted == 0 || last == 0 {
            continue;
        }
        let mut push = |name, parent, start_us, end_us| {
            out.push(Span { id, name, parent, start_us, end_us });
        };
        push(EVENT, None, t.due, last);
        push("stage.ingest", Some(EVENT), t.due, t.submitted);
        if t.central != 0 {
            push("stage.central_apply", Some(EVENT), t.submitted, t.central);
        }
        if t.mirror != 0 {
            push("stage.mirror_apply", Some(EVENT), t.submitted, t.mirror);
            if t.edge != 0 {
                push("stage.edge_deliver", Some(EVENT), t.mirror, t.edge);
            }
        }
    }
    out
}

/// Per-stage p50/p99 and counts, as `stage.<name>.{p50_us,p99_us,count}`
/// (the parent reads `trace.event.*`).
pub fn stage_metrics(spans: &[Span]) -> Vec<(String, f64, &'static str)> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.dur_us());
    }
    let mut out = Vec::new();
    for (name, durs) in by_name {
        let key = if name == EVENT { "trace.event".to_string() } else { name.to_string() };
        let s = Summary::new(durs);
        out.push((format!("{key}.p50_us"), s.p50(), "us"));
        out.push((format!("{key}.p99_us"), s.tail(99.0), "us"));
        out.push((format!("{key}.count"), s.n() as f64, "count"));
    }
    out
}

/// How well the blocking path's stages explain the end-to-end figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconciliation {
    /// Median over traced events of the event's own stage sum, µs.
    pub stage_sum_p50_us: f64,
    /// Median of the parent `event` spans, µs.
    pub event_p50_us: f64,
    /// `|sum − event| ÷ event`, in percent.
    pub gap_pct: f64,
}

/// Compare, event by event, the stages along `path` with the parent span:
/// the median of each event's stage sum against the median parent.
///
/// Medians of *different* stages are not additive (each is taken at a
/// different event), so a budget reconciled as "sum of the stage p50s"
/// drifts by however skewed the stages happen to be. Summing per event
/// first asks the question the budget is for: is there time inside the
/// parent span that no stage accounts for — a stage missing from the
/// path, or observations taken out of order? Events lacking a stage of
/// the path are skipped; `None` if no event has them all.
pub fn reconcile(spans: &[Span], path: &[&str]) -> Option<Reconciliation> {
    let mut by_event: BTreeMap<(u16, u64), (f64, f64, usize)> = BTreeMap::new();
    for s in spans {
        let entry = by_event.entry(s.id).or_insert((f64::NAN, 0.0, 0));
        if s.name == EVENT {
            entry.0 = s.dur_us();
        } else if path.contains(&s.name) {
            entry.1 += s.dur_us();
            entry.2 += 1;
        }
    }
    let complete: Vec<(f64, f64)> = by_event
        .into_values()
        .filter(|(parent, _, stages)| parent.is_finite() && *stages == path.len())
        .map(|(parent, sum, _)| (parent, sum))
        .collect();
    if complete.is_empty() {
        return None;
    }
    let event_p50_us = Summary::new(complete.iter().map(|c| c.0).collect()).p50();
    let stage_sum_p50_us = Summary::new(complete.iter().map(|c| c.1).collect()).p50();
    let gap_pct = if event_p50_us > 0.0 {
        (stage_sum_p50_us - event_p50_us).abs() / event_p50_us * 100.0
    } else {
        0.0
    };
    Some(Reconciliation { stage_sum_p50_us, event_p50_us, gap_pct })
}

/// Write one JSON object per span, one per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(out, "{}", s.to_json().to_line())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic trace whose stages are exact consecutive differences:
    /// ingest 20 µs, mirror apply 300 µs, edge deliver 700 µs — and the
    /// central branch, off the blocking path, at 150 µs.
    fn synthetic(n: u64) -> BTreeMap<(u16, u64), EventTimes> {
        (1..=n)
            .map(|i| {
                let due = i * 10_000;
                let jitter = i % 5;
                let submitted = due + 20 + jitter;
                let mirror = submitted + 300 + 3 * jitter;
                (
                    (0u16, i * SAMPLE_EVERY),
                    EventTimes {
                        due,
                        submitted,
                        central: submitted + 150,
                        mirror,
                        edge: mirror + 700 + 2 * jitter,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn stage_sum_reconciles_with_the_parent_on_a_synthetic_trace() {
        let spans = event_spans(&synthetic(200));
        assert_eq!(spans.iter().filter(|s| s.name == EVENT).count(), 200);
        let path = ["stage.ingest", "stage.mirror_apply", "stage.edge_deliver"];
        let r = reconcile(&spans, &path).expect("every stage present");
        // Medians at jitter = 2: 22 + 306 + 704 = 1032 = the parent's.
        assert_eq!(r.stage_sum_p50_us, 1032.0);
        assert_eq!(r.event_p50_us, 1032.0);
        assert_eq!(r.gap_pct, 0.0);
        // Leaving a stage out of the path shows up as a gap far past 10 %.
        let short = reconcile(&spans, &path[..2]).unwrap();
        assert!(short.gap_pct > 50.0, "{short:?}");
        // A stage that was never recorded cannot be reconciled.
        assert!(reconcile(&spans, &["stage.request_serve"]).is_none());
    }

    #[test]
    fn unobserved_events_yield_no_spans_and_metrics_carry_counts() {
        let mut times = synthetic(40);
        times.insert((0, 1), EventTimes { due: 5, submitted: 9, ..Default::default() });
        times.insert((0, 2), EventTimes { due: 5, mirror: 9, ..Default::default() });
        let spans = event_spans(&times);
        assert!(spans.iter().all(|s| s.id.1 >= SAMPLE_EVERY));
        let metrics = stage_metrics(&spans);
        let get = |k: &str| metrics.iter().find(|(n, ..)| n == k).map(|m| m.1);
        assert_eq!(get("stage.central_apply.count"), Some(40.0));
        assert_eq!(get("stage.central_apply.p50_us"), Some(150.0));
        assert_eq!(get("trace.event.count"), Some(40.0));
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let spans = event_spans(&synthetic(3));
        let dir = crate::harness::WorkDir::new("trace-test");
        let path = dir.path().join("t.jsonl");
        write_jsonl(&path, &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), spans.len());
        let first = Json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("span").and_then(Json::as_str), Some(EVENT));
        assert_eq!(first.get("parent"), Some(&Json::Null));
        assert_eq!(first.get("trace").and_then(Json::as_str), Some("0:64"));
    }
}
