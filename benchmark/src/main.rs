//! The repository's pipeline benchmark.
//!
//! ```text
//! cd benchmark
//! cargo run --release --offline -- run                 # all six workloads, untraced
//! cargo run --release --offline -- run --workload steady_stream --seed 7
//! cargo run --release --offline -- trace               # traced runs, stage budget
//! cargo run --release --offline -- probes              # per-layer probes
//! cargo run --release --offline -- repeat              # the set twice, within bounds?
//! cargo run --release --offline -- run --smoke         # seconds, every check on
//! ```
//!
//! `driver --workload W --seed N --seconds S --trace 0|1` is the entry the
//! repository's `BENCHMARK.json` names; see README.md for everything else.

mod harness;
mod inputs;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

use harness::Watchdog;
use stats::{rel_diff, Json};
use workloads::{Metric, Outcome, RunConfig, Workload, PROGRESS};

/// Length of the timed window when `--seconds` is not given; the same
/// figure `BENCHMARK.json` hands the driver as `run_seconds`.
const RUN_SECONDS: f64 = 10.0;

/// Seconds a `--smoke` window lasts.
const SMOKE_SECONDS: f64 = 0.6;

/// Time budget of one probe (`probes` subcommand; the driver's traced run
/// halves it to stay inside its slot).
const PROBE_BUDGET: Duration = Duration::from_millis(200);

/// An end-to-end metric the driver gates: what a user of the system sees,
/// with the share by which it may worsen before a change is a regression.
struct EndToEnd {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
}

/// The end-to-end metrics of `BENCHMARK.json`. Its contract wants every
/// one of them from every workload, and every one steady — quartile
/// spread over ten seeds within the bound — on every workload, on a
/// shared two-core host. That leaves these two; the issue's other six are
/// in [`GATED_BY_REPEAT`] and [`NOT_GATED`], with the reason each is there.
const END_TO_END: &[EndToEnd] = &[
    // Input generation + cluster start + preload + warm-up; median of the
    // run's set-ups. The contract gives it the largest bound.
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    // Events applied at every site per second of the timed window.
    EndToEnd { name: "events_per_s", unit: "1/s", better: "higher", bound: 0.20 },
];

/// The issue's end-to-end metrics that are steady on some workloads only
/// (spread over ten seeds of 1–3 % there): `repeat` gates them on those —
/// `(metric, workload, relative bound, absolute floor)` — and the driver
/// reads them under `per_layer`. `outage_ms` exists on the failover alone.
/// `cpu_us_per_event` is the idle-burn gauge of the three open loops; on
/// the closed loops it is either `2 cores ÷ events_per_s` over again (the
/// saturations) or the sleep-polling of twenty mostly idle threads
/// (`bridged_durable`), whose runs on the driver's host spread 18–25 µs
/// between the quartiles around a median of 38 µs; see the README.
const GATED_BY_REPEAT: &[(&str, &str, f64, f64)] = &[
    ("outage_ms", "central_failover", 0.15, 10.0),
    ("cpu_us_per_event", "steady_stream", 0.10, 0.0),
    ("cpu_us_per_event", "recovery_storm", 0.10, 0.0),
    ("cpu_us_per_event", "central_failover", 0.10, 0.0),
];

/// End-to-end metrics that are measured, printed and recorded but gate
/// nothing on the workloads listed (none listed = on all): `(metric, unit,
/// workloads)`. Their quartile spread over ten seeds is 25–90 % (latency
/// tails), up to 25 % (memory, on `bridged_durable`) or up to 67 % (CPU
/// per event, on `bridged_durable` on the driver's host) — wider than any
/// bound the contract allows, so a gate would only report the box's mood.
const NOT_GATED: &[(&str, &str, &[&str])] = &[
    ("cpu_us_per_event", "us", &["saturation_simple", "saturation_selective", "bridged_durable"]),
    ("update_delay_p99_us", "us", &["steady_stream", "recovery_storm", "central_failover"]),
    ("edge_delivery_p99_us", "us", &["steady_stream"]),
    ("request_p99_us", "us", &["recovery_storm"]),
    ("peak_rss_mb", "MiB", &[]),
];

/// Absolute floors of the bounds `repeat` applies: a difference below the
/// floor passes whatever its relative size.
const FLOORS: &[(&str, f64)] = &[("setup_s", 0.1)];

const STAGES: &[&str] = &[
    "stage.ingest",
    "stage.central_apply",
    "stage.mirror_apply",
    "stage.edge_deliver",
    "stage.request_serve",
    "stage.request_wire",
    "stage.detect",
    "stage.promote",
    "stage.first_apply",
    "trace.event",
];

/// Per-layer metrics in report order: `(name, unit, better)`.
fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    // The issue's end-to-end metrics the driver cannot gate.
    for (name, unit, _) in NOT_GATED {
        out.push((name.to_string(), unit, "lower"));
    }
    out.push(("outage_ms".into(), "ms", "lower"));
    for (name, unit) in probes::PROBES {
        out.push((name.to_string(), unit, "lower"));
    }
    let higher = [
        "core.aux.received",
        "core.aux.mirrored",
        "echo.link.delivered",
        "echo.link.acked",
        "runtime.apply_batch_size",
        "runtime.snapshot_cache_hit_rate",
        "runtime.requests_served",
        "edge.published",
        "edge.delivered",
    ];
    for (name, unit) in workloads::LAYER_COUNTERS {
        let better = if higher.contains(name) { "higher" } else { "lower" };
        out.push((name.to_string(), unit, better));
    }
    for name in [
        "gen.late_p99_us",
        "obs.update_delay_p50_us",
        "obs.edge_delivery_p50_us",
        "obs.request_p50_us",
    ] {
        out.push((name.into(), "us", "lower"));
    }
    for stage in STAGES {
        out.push((format!("{stage}.p50_us"), "us", "lower"));
        out.push((format!("{stage}.p99_us"), "us", "lower"));
    }
    out.push(("trace.stage_sum_p50_us".into(), "us", "lower"));
    out.push(("trace.reconcile_gap_pct".into(), "%", "lower"));
    out.push(("trace.overhead_pct".into(), "%", "lower"));
    out
}

const WHY: &[(&str, &str)] = &[
    ("steady_stream", "open loop at 20k events/s (a tenth of saturation) with a 64-subscriber edge: queues are empty, so wake-up and poll paths own latency and idle CPU"),
    ("saturation_simple", "closed loop, 4096 in flight, simple mirroring: aux forward/mirror, rings, channels and the apply pool are never idle; wake-up latency is irrelevant"),
    ("saturation_selective", "same loop with 1-in-10 overwrite mirroring: the rules path works and mirrors apply a tenth of the stream (the paper's headline effect)"),
    ("recovery_storm", "the paper's Case 1: 10k events/s beside bursts of 20k initial-state requests/s; snapshot capture and encoding compete with applies for the same store"),
    ("bridged_durable", "closed loop through the journal and one mirror behind resilient loopback TCP: the only workload where wire codec, batching, transport and WAL carry the load"),
    ("central_failover", "central crash at a quiet instant under a 2k events/s feed: silence detection, promotion and journal handoff own the time without service"),
];

/// The manifest the repository's `BENCHMARK.json` must equal.
fn manifest() -> Json {
    let named = |name: &str, unit: &str, better: &str| {
        vec![
            ("name".to_string(), Json::str(name)),
            ("unit".to_string(), Json::str(unit)),
            ("better".to_string(), Json::str(better)),
        ]
    };
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WHY.iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = named(m.name, m.unit, m.better);
                        pairs.push(("bound".to_string(), Json::Num(m.bound)));
                        Json::Obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(|(n, u, b)| Json::Obj(named(n, u, b))).collect()),
        ),
    ])
}

// ---------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut a =
        Args { workload: None, seed: 1, seconds: None, traced: false, smoke: false, out: None };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(Workload::parse(name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => a.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                a.seconds = Some(s);
            }
            "--trace" => a.traced = value("0 or 1")? == "1",
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(value("a path")?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

impl Args {
    /// Length of the timed window. A traced run measures two thirds of it:
    /// one third untraced, one third traced.
    fn window_seconds(&self) -> f64 {
        let full = self.seconds.unwrap_or(if self.smoke { SMOKE_SECONDS } else { RUN_SECONDS });
        if self.traced {
            full * 2.0 / 3.0
        } else {
            full
        }
    }

    fn run_config(&self) -> RunConfig {
        RunConfig {
            seed: self.seed,
            seconds: self.window_seconds(),
            traced: self.traced,
            smoke: self.smoke,
        }
    }
}

// ---------------------------------------------------------------------
// One workload in this process
// ---------------------------------------------------------------------

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let entry = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// The full result of one run, as the `child` subcommand prints it.
fn result_json(w: Workload, args: &Args, out: &Outcome, extra: &[Metric]) -> Json {
    let mut metrics = out.metrics.clone();
    metrics.extend_from_slice(extra);
    Json::obj([
        ("workload", Json::str(w.name())),
        ("traced", Json::Bool(args.traced)),
        ("seconds", Json::Num(args.window_seconds())),
        ("correct", Json::Bool(out.correct() && out.failed == 0)),
        (
            "checks",
            Json::Obj(out.checks.iter().map(|(n, ok)| (n.to_string(), Json::Bool(*ok))).collect()),
        ),
        ("ops_attempted", Json::Int(out.attempted as i64)),
        ("ops_failed", Json::Int(out.failed as i64)),
        ("schedule_hash", Json::str(format!("{:016x}", out.schedule_hash))),
        ("metrics", metrics_json(&metrics)),
        ("host", stats::host_metadata(args.seed)),
    ])
}

/// Run `w` here, under the watchdog. Traced runs also leave their spans in
/// `results/trace-<workload>.jsonl`.
fn execute(w: Workload, args: &Args) -> Outcome {
    let cfg = args.run_config();
    let limit = Duration::from_secs_f64(3.0 * workloads::nominal_secs(w, &cfg));
    let name = w.name();
    let watchdog = Watchdog::arm(
        limit,
        move || {
            eprintln!("watchdog: {name} still running after {limit:?} (3x its nominal length):");
            PROGRESS.dump_sites();
            let attempted = PROGRESS.attempted.load(Ordering::Relaxed);
            let completed = PROGRESS.completed.load(Ordering::Relaxed);
            // Every operation not known complete counts as failed.
            let failed = attempted.saturating_sub(completed).max(1);
            let line = Json::obj([
                ("correct", Json::Bool(false)),
                ("attempted", Json::Int(attempted.max(1) as i64)),
                ("failed", Json::Int(failed as i64)),
                ("metrics", Json::obj::<String>([])),
            ]);
            println!("{}", line.to_line());
            3
        },
        |code| std::process::exit(code),
    );
    let out = workloads::run(w, &cfg);
    watchdog.disarm();
    if args.traced {
        let path = std::path::Path::new("results").join(format!("trace-{name}.jsonl"));
        if let Err(e) = trace::write_jsonl(&path, &out.spans) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    out
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding exactly the names asked for (0 for a
/// layer the workload does not run).
fn driver_line(out: &Outcome, extra: &[Metric], wanted: &[(String, &'static str)]) -> Json {
    let find = |name: &str| {
        out.metrics.iter().chain(extra.iter()).find(|m| m.name == name).map(|m| m.value)
    };
    let metrics = wanted
        .iter()
        .map(|(name, unit)| {
            let value = find(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            (name.clone(), Json::obj([("value", Json::Num(value)), ("unit", Json::str(*unit))]))
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(out.correct() && out.failed == 0)),
        ("attempted", Json::Int(out.attempted.max(1) as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn cmd_driver(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload.ok_or("driver needs --workload")?;
    let out = execute(w, args);
    for (name, ok) in &out.checks {
        if !ok {
            eprintln!("check failed: {name}");
        }
    }
    let line = if args.traced {
        let layer = probes::run_all(PROBE_BUDGET / 2, args.seed);
        let wanted: Vec<_> = per_layer().into_iter().map(|(n, u, _)| (n, u)).collect();
        driver_line(&out, &layer, &wanted)
    } else {
        let wanted: Vec<_> = END_TO_END.iter().map(|m| (m.name.to_string(), m.unit)).collect();
        driver_line(&out, &[], &wanted)
    };
    println!("{}", line.to_line());
    Ok(ExitCode::SUCCESS)
}

fn cmd_child(args: &Args) -> Result<ExitCode, String> {
    let w = args.workload.ok_or("child needs --workload")?;
    let out = execute(w, args);
    println!("{}", result_json(w, args, &out, &[]).to_line());
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// Orchestration: each workload in a fresh process
// ---------------------------------------------------------------------

fn spawn_child(w: Workload, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("child").args(["--workload", w.name()]).args(["--seed", &args.seed.to_string()]);
    cmd.args(["--trace", if args.traced { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    // stderr is inherited: watchdog and stall reports reach the terminal.
    let output = cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or(format!("{}: no output", w.name()))?;
    let json = Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name()))?;
    if !output.status.success() {
        return Err(format!("{}: exited with {}", w.name(), output.status));
    }
    Ok(json)
}

fn selected(args: &Args) -> Vec<Workload> {
    args.workload.map(|w| vec![w]).unwrap_or_else(|| Workload::ALL.to_vec())
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn unit(result: &Json, name: &str) -> String {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("unit"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string()
}

/// Run the selected workloads, each in a fresh process.
fn run_set(args: &Args) -> Result<Vec<Json>, String> {
    selected(args).into_iter().map(|w| spawn_child(w, args)).collect()
}

/// Gated end-to-end metrics of `workload` with their bounds: the universal
/// ones, then whichever `repeat` gates on this workload.
fn gated_on(workload: &str) -> Vec<(&'static str, f64)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.bound))
        .chain(GATED_BY_REPEAT.iter().filter(|g| g.1 == workload).map(|g| (g.0, g.2)))
        .collect()
}

/// End-to-end metrics of `workload` that are reported but gate nothing.
fn not_gated_on(workload: &str) -> Vec<&'static str> {
    NOT_GATED
        .iter()
        .filter(|(_, _, on)| on.is_empty() || on.contains(&workload))
        .map(|m| m.0)
        .collect()
}

fn print_results(results: &[Json], layer_prefixes: &[&str]) -> bool {
    let mut all_ok = true;
    for r in results {
        let name = r.get("workload").and_then(Json::as_str).unwrap_or("?");
        let ok = r.get("correct").and_then(Json::as_bool).unwrap_or(false);
        all_ok &= ok;
        println!(
            "\n== {name}  (seed {}, {} s window{})",
            r.get("host").and_then(|h| h.get("seed")).and_then(Json::as_f64).unwrap_or(0.0),
            r.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
            if r.get("traced").and_then(Json::as_bool) == Some(true) {
                ", second half traced"
            } else {
                ""
            }
        );
        let gated = gated_on(name).into_iter().map(|g| (g.0, ""));
        let rest = not_gated_on(name).into_iter().map(|m| (m, "  (not gated)"));
        for (m, note) in gated.chain(rest) {
            if let Some(v) = metric(r, m) {
                println!("  {m:<28} {v:>16.3} {}{note}", unit(r, m));
            }
        }
        println!(
            "  {:<28} {:>16} of {} failed",
            "ops_attempted / ops_failed",
            r.get("ops_failed").and_then(Json::as_f64).unwrap_or(-1.0),
            r.get("ops_attempted").and_then(Json::as_f64).unwrap_or(-1.0),
        );
        for (check, held) in r.get("checks").and_then(Json::as_obj).unwrap_or(&[]) {
            let held = held.as_bool().unwrap_or(false);
            println!("  check {check:<40} {}", if held { "ok" } else { "FAILED" });
        }
        println!(
            "  schedule_hash {}",
            r.get("schedule_hash").and_then(Json::as_str).unwrap_or("?")
        );
        for (m, entry) in r.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if layer_prefixes.iter().any(|p| m.starts_with(p)) {
                let v = entry.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                println!("    {m:<38} {v:>16.3} {}", unit(r, m));
            }
        }
    }
    all_ok
}

const LAYER_PREFIXES: &[&str] =
    &["core.", "echo.", "ede.", "store.", "runtime.", "edge.", "gen.", "obs.", "workload."];

fn write_out(args: &Args, json: &Json) -> Result<(), String> {
    if let Some(path) = &args.out {
        std::fs::write(path, json.to_pretty()).map_err(|e| format!("write {path}: {e}"))?;
        println!("\nwrote {path}");
    }
    Ok(())
}

fn verdict(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("\nFAILED: a correctness check failed or operations failed (see above)");
        ExitCode::FAILURE
    }
}

fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let results = run_set(&Args { traced: false, ..args.clone() })?;
    let ok = print_results(&results, LAYER_PREFIXES);
    write_out(args, &Json::Arr(results))?;
    Ok(verdict(ok))
}

fn cmd_trace(args: &Args) -> Result<ExitCode, String> {
    let results = run_set(&Args { traced: true, ..args.clone() })?;
    let ok = print_results(&results, &["stage.", "trace."]);
    println!("\nspans: results/trace-<workload>.jsonl (one JSON object per span)");
    write_out(args, &Json::Arr(results))?;
    Ok(verdict(ok))
}

fn cmd_probes(args: &Args) -> Result<ExitCode, String> {
    let metrics = probes::run_all(PROBE_BUDGET, args.seed);
    println!(
        "per-layer probes (median of 5 slices, {PROBE_BUDGET:?} per probe, seed {})",
        args.seed
    );
    for m in &metrics {
        println!("  {:<38} {:>16.3} {}", m.name, m.value, m.unit);
    }
    let json =
        Json::obj([("probes", metrics_json(&metrics)), ("host", stats::host_metadata(args.seed))]);
    write_out(args, &json)?;
    Ok(ExitCode::SUCCESS)
}

/// Does the pair `(a, b)` of one metric agree within its bound?
fn within_bound(name: &str, a: f64, b: f64, bound: f64) -> bool {
    let floor = FLOORS
        .iter()
        .map(|f| (f.0, f.1))
        .chain(GATED_BY_REPEAT.iter().map(|g| (g.0, g.3)))
        .find(|f| f.0 == name)
        .map_or(0.0, |f| f.1);
    rel_diff(a, b) <= bound || (a - b).abs() <= floor
}

/// Runs per side of `repeat`: each figure compared is the median of this
/// many. A single pair of `saturation_simple` runs differs by up to 25 %
/// in `events_per_s` on the reference box; medians of three stay inside
/// the bounds, as do the medians of ten the driver compares.
const REPEAT_RUNS: usize = 3;

fn cmd_repeat(args: &Args) -> Result<ExitCode, String> {
    let args = Args { traced: false, ..args.clone() };
    let side = |name: &str| -> Result<Vec<Vec<Json>>, String> {
        (1..=REPEAT_RUNS)
            .map(|i| {
                println!("{name} set, run {i} of {REPEAT_RUNS} …");
                run_set(&args)
            })
            .collect()
    };
    let (first, second) = (side("first")?, side("second")?);
    // Median over a side's runs of `metric` on the `w`-th workload.
    let mid = |runs: &[Vec<Json>], w: usize, m: &str| -> Option<f64> {
        let values: Vec<f64> = runs.iter().filter_map(|set| metric(&set[w], m)).collect();
        (values.len() == runs.len()).then(|| stats::median(&values))
    };
    let mut ok = true;
    println!(
        "\n{:<22} {:<22} {:>14} {:>14} {:>8} {:>7}   (medians of {REPEAT_RUNS})",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (w, result) in first[0].iter().enumerate() {
        let name = result.get("workload").and_then(Json::as_str).unwrap_or("?");
        for (m, bound) in gated_on(name) {
            let (Some(x), Some(y)) = (mid(&first, w, m), mid(&second, w, m)) else { continue };
            let agree = within_bound(m, x, y, bound);
            ok &= agree;
            println!(
                "{name:<22} {m:<22} {x:>14.3} {y:>14.3} {:>7.1}% {:>6.0}% {}",
                rel_diff(x, y) * 100.0,
                bound * 100.0,
                if agree { "" } else { "  <-- beyond bound" }
            );
        }
        for m in not_gated_on(name) {
            let (Some(x), Some(y)) = (mid(&first, w, m), mid(&second, w, m)) else { continue };
            println!(
                "{name:<22} {m:<22} {x:>14.3} {y:>14.3} {:>7.1}%  (not gated)",
                rel_diff(x, y) * 100.0
            );
        }
    }
    let correct = first
        .iter()
        .chain(&second)
        .flatten()
        .all(|r| r.get("correct").and_then(Json::as_bool).unwrap_or(false));
    if !correct {
        eprintln!("\na run failed a correctness check or an operation (run `run` to see which)");
    }
    let sets = |side: Vec<Vec<Json>>| Json::Arr(side.into_iter().map(Json::Arr).collect());
    write_out(&args, &Json::obj([("first", sets(first)), ("second", sets(second))]))?;
    if !ok {
        eprintln!("\nFAILED: a gated metric differs between the two sets by more than its bound");
    }
    Ok(if ok && correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `run` + `trace` + `probes` into one record, `results/baseline-<sha>.json`
/// unless `--out` says otherwise.
fn cmd_baseline(args: &Args) -> Result<ExitCode, String> {
    let run = run_set(&Args { traced: false, ..args.clone() })?;
    let ok = print_results(&run, LAYER_PREFIXES);
    let traced = run_set(&Args { traced: true, ..args.clone() })?;
    let ok = print_results(&traced, &["stage.", "trace."]) && ok;
    let probes = probes::run_all(PROBE_BUDGET, args.seed);
    let host = stats::host_metadata(args.seed);
    let sha = host.get("git_sha").and_then(Json::as_str).unwrap_or("unknown").to_string();
    let short = sha.get(..12).unwrap_or(&sha);
    let path = args.out.clone().unwrap_or(format!("results/baseline-{short}.json"));
    let record = Json::obj([
        ("host", host),
        ("run", Json::Arr(run)),
        ("trace", Json::Arr(traced)),
        ("probes", metrics_json(&probes)),
    ]);
    std::fs::create_dir_all("results").map_err(|e| e.to_string())?;
    std::fs::write(&path, record.to_pretty()).map_err(|e| format!("write {path}: {e}"))?;
    println!("\nwrote {path}");
    Ok(verdict(ok))
}

fn usage() -> String {
    "usage: pipeline-benchmark <run|trace|probes|repeat|baseline|driver|manifest> \
     [--workload NAME] [--seed N] [--seconds S] [--smoke] [--out FILE]\n\
     (driver also takes --trace 0|1; see README.md)"
        .to_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let outcome = parse_args(rest).and_then(|args| match command.as_str() {
        "driver" => cmd_driver(&args),
        "child" => cmd_child(&args),
        "run" => cmd_run(&args),
        "trace" => cmd_trace(&args),
        "probes" => cmd_probes(&args),
        "repeat" => cmd_repeat(&args),
        "baseline" => cmd_baseline(&args),
        "manifest" => {
            print!("{}", manifest().to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    });
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_manifest() -> Json {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_binary_reports() {
        assert_eq!(repo_manifest(), manifest(), "regenerate with `pipeline-benchmark manifest`");
    }

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let m = manifest();
        let names = |key: &str| -> Vec<String> {
            m.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let (w, e, p) = (names("workloads"), names("end_to_end"), names("per_layer"));
        assert_eq!(w, Workload::ALL.map(|w| w.name().to_string()));
        assert!(
            (1..=16).contains(&e.len()) && (1..=128).contains(&p.len()),
            "{} per-layer",
            p.len()
        );
        assert!(e.contains(&"setup_s".to_string()));
        let mut seen = std::collections::BTreeSet::new();
        for n in w.iter().chain(&e).chain(&p) {
            assert!(seen.insert(n.clone()), "name {n} is used twice");
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for m in END_TO_END {
            assert!(m.bound <= 0.25 && m.bound > 0.0);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(WHY.iter().all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        assert!(manifest().to_pretty().len() < 64 * 1024);
    }

    #[test]
    fn bounds_have_floors() {
        assert!(within_bound("outage_ms", 280.0, 310.0, 0.15), "inside 15 %");
        assert!(!within_bound("outage_ms", 280.0, 340.0, 0.15), "past both");
        assert!(within_bound("outage_ms", 40.0, 49.0, 0.15), "22 % but under the 10 ms floor");
        assert!(within_bound("setup_s", 0.20, 0.29, 0.25), "45 % but under the 0.1 s floor");
        assert!(!within_bound("events_per_s", 100.0, 125.0, 0.20), "no floor for throughput");
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&[
            "--workload".into(),
            "recovery_storm".into(),
            "--seed".into(),
            "9".into(),
            "--seconds".into(),
            "3".into(),
            "--trace".into(),
            "1".into(),
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::RecoveryStorm));
        assert_eq!((a.seed, a.traced), (9, true));
        assert_eq!(a.window_seconds(), 2.0, "a traced run measures two thirds");
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--frobnicate".into()]).is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_the_wanted_metrics() {
        let mut out = Outcome { attempted: 10, ..Default::default() };
        out.metrics.push(Metric { name: "setup_s".into(), value: 1.5, unit: "s" });
        let wanted = vec![("setup_s".to_string(), "s"), ("stage.detect.p50_us".to_string(), "us")];
        let line = driver_line(&out, &[], &wanted);
        let keys: Vec<_> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(metric(&line, "setup_s"), Some(1.5));
        assert_eq!(metric(&line, "stage.detect.p50_us"), Some(0.0), "absent layers read 0");
        assert_eq!(line.get("metrics").unwrap().as_obj().unwrap().len(), 2);
    }

    #[test]
    fn per_layer_covers_every_probe_and_counter() {
        let names: std::collections::BTreeMap<String, &str> =
            per_layer().into_iter().map(|(n, u, _)| (n, u)).collect();
        for (n, _) in probes::PROBES.iter().chain(workloads::LAYER_COUNTERS) {
            assert!(names.contains_key(*n), "{n} missing");
        }
    }
}
