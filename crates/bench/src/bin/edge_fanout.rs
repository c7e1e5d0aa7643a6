//! Massive fan-out through the edge tier: 100k+ concurrent simulated
//! subscribers on one host, fed by a live cluster mirror.
//!
//! One cluster (central + 1 mirror) applies a paced flight stream; the
//! mirror's [`mirror_edge::EdgeServer`] fans every applied update out to
//! `--subs` in-process subscribers (10% lobby displays on
//! `SubscriptionFilter::All`, 90% gate displays on 4-flight subsets),
//! drained by a poller pool. Two phases, same feed:
//!
//! * **A (baseline)** — every subscriber healthy;
//! * **B (chaos)** — 1% of subscribers read-stalled on a seeded
//!   [`ThrottleSchedule`], plus a resume cohort that drops and resumes
//!   its connections mid-stream.
//!
//! Reported per phase: delivery-latency p50/p99 (event ingress → poll,
//! healthy subscribers only), delivered frames/sec, conflation ratio,
//! per-client queue/pending high watermarks. Asserted in-binary:
//!
//! * a checker subscriber observes a **contiguous, gap-free** stream and
//!   converges to state [`views_equivalent`] to the mirror's;
//! * every resume succeeds and the resume cohort converges identically;
//! * pending conflation state never exceeds `max_pending` and the
//!   healthy queue never exceeds `queue_cap` — for *any* client,
//!   stalled ones included (bounded slow-client memory);
//! * the stalled cohort's existence costs healthy subscribers at most
//!   1.5x the baseline p99 (plus a small absolute epsilon).
//!
//! Emits `results/BENCH_edge_fanout.json`. `--smoke` shrinks the run for
//! CI; `--subs`, `--events`, `--rate`, `--out` override defaults.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mirror_core::event::{Event, FlightStatus, PositionFix};
use mirror_echo::faults::ThrottleSchedule;
use mirror_echo::SubscriptionFilter;
use mirror_ede::OperationalState;
use mirror_edge::{views_equivalent, Delivery, EdgeClient, EdgeConfig, EdgeDisconnect};
use mirror_runtime::{Cluster, ClusterConfig};

const FLIGHTS: u32 = 64;
const QUEUE_CAP: usize = 64;
const MAX_PENDING: usize = 1024;
const RESUMERS: u64 = 16;
const SAMPLE_EVERY: u64 = 64;
const PHASE_DEADLINE: Duration = Duration::from_secs(300);

fn fix(seq: u64) -> PositionFix {
    PositionFix {
        lat: 33.0 + (seq % 17) as f64 * 0.4,
        lon: -97.0 + (seq % 29) as f64 * 0.3,
        alt_ft: 31_000.0,
        speed_kts: 460.0,
        heading_deg: (seq % 360) as f64,
    }
}

/// Deterministic per-client filter: 1 in 10 watches everything (lobby
/// display), the rest watch a 4-flight subset (gate display).
fn filter_for(client: u64) -> SubscriptionFilter {
    if client.is_multiple_of(10) {
        SubscriptionFilter::All
    } else {
        let mut x = client.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5);
        let mut flights = Vec::with_capacity(4);
        for _ in 0..4 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            flights.push(((x >> 33) % u64::from(FLIGHTS)) as u32);
        }
        SubscriptionFilter::Flights(flights)
    }
}

/// One poller-owned subscriber.
struct Slot {
    client: Option<EdgeClient>,
    stall: Option<ThrottleSchedule>,
}

/// What one poller shard measured.
struct ShardReport {
    latencies_us: Vec<u64>,
    queue_hwm: usize,
    pending_hwm: usize,
    slow_disconnects: u64,
}

/// Drain a shard of subscribers until the run is done and every backlog
/// is empty. Healthy clients are sampled for delivery latency; stalled
/// clients skip polls while their seeded schedule says so (and drain
/// unconditionally once `done` is set, so the run can finish).
fn run_shard(
    mut slots: Vec<Slot>,
    cluster: Arc<Cluster>,
    done: Arc<AtomicBool>,
    deadline: Instant,
) -> ShardReport {
    let mut report =
        ShardReport { latencies_us: Vec::new(), queue_hwm: 0, pending_hwm: 0, slow_disconnects: 0 };
    let mut polled = 0u64;
    loop {
        assert!(Instant::now() < deadline, "poller shard overran the phase deadline");
        let finishing = done.load(Ordering::Acquire);
        let mut busy = false;
        let mut all_drained = true;
        for slot in slots.iter_mut() {
            let Some(client) = slot.client.as_ref() else { continue };
            if !finishing {
                if let Some(sched) = slot.stall.as_mut() {
                    if sched.stalled() {
                        all_drained = false;
                        continue;
                    }
                }
            }
            // Bounded drain per sweep keeps one deep backlog from
            // starving the rest of the shard.
            for _ in 0..32 {
                match client.poll() {
                    Ok(Some(Delivery::Event(ev))) => {
                        busy = true;
                        polled += 1;
                        if slot.stall.is_none() && polled.is_multiple_of(SAMPLE_EVERY) {
                            let now = cluster.clock().now_us();
                            report.latencies_us.push(now.saturating_sub(ev.event().ingress_us));
                        }
                    }
                    Ok(Some(Delivery::Reseed { .. })) | Ok(Some(Delivery::DeltaReseed { .. })) => {
                        busy = true
                    }
                    Ok(None) => break,
                    Err(EdgeDisconnect::SlowClient { .. }) => {
                        report.slow_disconnects += 1;
                        slot.client = None;
                        break;
                    }
                    Err(why) => panic!("unexpected edge disconnect: {why}"),
                }
            }
            if let Some(client) = slot.client.as_ref() {
                if client.backlog() > 0 {
                    all_drained = false;
                }
            }
        }
        if finishing && all_drained {
            break;
        }
        if !busy {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
    for slot in &slots {
        let Some(client) = slot.client.as_ref() else { continue };
        let (q, p) = client.high_watermarks();
        report.queue_hwm = report.queue_hwm.max(q);
        report.pending_hwm = report.pending_hwm.max(p);
    }
    report
}

/// A subscriber that replays deliveries into an [`OperationalState`],
/// optionally dropping and resuming its connection mid-stream. Returns
/// `(state, last_seq, gaps, resumes)`.
fn run_stateful(
    edge: Arc<mirror_edge::EdgeServer>,
    mut client: EdgeClient,
    drop_at: Option<Arc<AtomicBool>>,
    target: Arc<AtomicU64>,
    deadline: Instant,
) -> (OperationalState, u64, u64, u64) {
    let id = client.id();
    let mut state = OperationalState::new();
    let mut last = 0u64;
    let mut gaps = 0u64;
    let mut resumes = 0u64;
    let mut dropped = false;
    loop {
        assert!(Instant::now() < deadline, "stateful subscriber {id} overran the deadline");
        let t = target.load(Ordering::Acquire);
        if t != 0 && last >= t {
            break;
        }
        if !dropped {
            if let Some(flag) = drop_at.as_ref() {
                if flag.load(Ordering::Acquire) {
                    dropped = true;
                    client.disconnect();
                    client = edge.resume(id, last).expect("resume after mid-stream drop");
                    resumes += 1;
                    continue;
                }
            }
        }
        match client.poll() {
            Ok(Some(Delivery::Event(ev))) => {
                assert!(ev.pub_seq() > last, "subscriber {id}: dup or regression");
                if ev.pub_seq() != last + 1 {
                    gaps += 1;
                }
                state.apply(ev.event());
                last = ev.pub_seq();
            }
            Ok(Some(Delivery::Reseed { pub_seq, snapshot })) => {
                assert!(pub_seq >= last, "subscriber {id}: reseed rewound");
                let snap = mirror_echo::wire::decode_snapshot(snapshot).expect("decode reseed");
                state = snap.into_state();
                last = pub_seq;
            }
            Ok(Some(Delivery::DeltaReseed { pub_seq, delta })) => {
                assert!(pub_seq >= last, "subscriber {id}: delta reseed rewound");
                let d = mirror_echo::wire::decode_delta(delta).expect("decode delta reseed");
                state.apply_delta(&d);
                last = pub_seq;
            }
            Ok(None) => std::thread::sleep(Duration::from_micros(200)),
            Err(why) => panic!("stateful subscriber {id} hung up: {why}"),
        }
    }
    (state, last, gaps, resumes)
}

struct PhaseStats {
    published: u64,
    delivered: u64,
    conflated: u64,
    conflation_ratio: f64,
    delivered_per_sec: f64,
    p50_us: u64,
    p99_us: u64,
    samples: usize,
    queue_hwm: usize,
    pending_hwm: usize,
    slow_disconnects: u64,
    resumed: u64,
    reseeded: u64,
    duration_s: f64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn run_phase(subs: usize, events: u64, rate: u64, chaos: bool, pollers: usize) -> PhaseStats {
    let deadline = Instant::now() + PHASE_DEADLINE;
    let cluster = Arc::new(Cluster::start(ClusterConfig { mirrors: 1, ..Default::default() }));
    cluster.central().handle().set_params(false, 1, 10);
    let edge = cluster
        .serve_edge(1, EdgeConfig { window: 8192, queue_cap: QUEUE_CAP, max_pending: MAX_PENDING })
        .expect("edge on mirror 1");

    // Client ids: 0 = checker, 1..=RESUMERS = resume cohort (chaos phase
    // only), the rest the bulk fleet. The stalled cohort is the tail 1%.
    let stalled_from =
        if chaos { subs.saturating_sub(subs / 100).max(RESUMERS as usize + 1) } else { usize::MAX };
    let done = Arc::new(AtomicBool::new(false));
    let target = Arc::new(AtomicU64::new(0));
    let halfway = Arc::new(AtomicBool::new(false));

    let checker = {
        let edge = Arc::clone(&edge);
        let (target, deadline) = (Arc::clone(&target), deadline);
        let client = edge.subscribe(0, SubscriptionFilter::All);
        std::thread::Builder::new()
            .name("edge-checker".into())
            .spawn(move || run_stateful(edge, client, None, target, deadline))
            .expect("spawn checker")
    };
    let mut resume_handles = Vec::new();
    if chaos {
        for id in 1..=RESUMERS {
            let edge = Arc::clone(&edge);
            let (target, halfway, deadline) = (Arc::clone(&target), Arc::clone(&halfway), deadline);
            let client = edge.subscribe(id, SubscriptionFilter::All);
            resume_handles.push(
                std::thread::Builder::new()
                    .name(format!("edge-resume-{id}"))
                    .spawn(move || run_stateful(edge, client, Some(halfway), target, deadline))
                    .expect("spawn resume subscriber"),
            );
        }
    }

    // Bulk fleet, sharded across the poller pool.
    let mut shards: Vec<Vec<Slot>> = (0..pollers).map(|_| Vec::new()).collect();
    let first_bulk = if chaos { RESUMERS + 1 } else { 1 };
    for id in first_bulk..subs as u64 {
        let stall =
            (id as usize >= stalled_from).then(|| ThrottleSchedule::new(0xED6E ^ id, 900, 20_000));
        let client = edge.subscribe(id, filter_for(id));
        shards[(id as usize) % pollers].push(Slot { client: Some(client), stall });
    }
    let poller_handles: Vec<_> = shards
        .into_iter()
        .enumerate()
        .map(|(i, slots)| {
            let (cluster, done) = (Arc::clone(&cluster), Arc::clone(&done));
            std::thread::Builder::new()
                .name(format!("edge-poller-{i}"))
                .spawn(move || run_shard(slots, cluster, done, deadline))
                .expect("spawn poller")
        })
        .collect();

    // Paced feed: per-flight monotone positions with a forward status
    // advance sprinkled in (the absolute-and-monotone-per-kind payload
    // discipline conflation equivalence rests on).
    let t0 = Instant::now();
    let interval = Duration::from_micros(1_000_000 / rate.max(1));
    let mut status_idx = [0usize; FLIGHTS as usize];
    for seq in 1..=events {
        let flight = (seq % u64::from(FLIGHTS)) as u32;
        if seq % 50 == 0 {
            let idx = &mut status_idx[flight as usize];
            if *idx + 1 < FlightStatus::ALL.len() {
                *idx += 1;
                cluster.submit(Event::delta_status(seq, flight, FlightStatus::ALL[*idx]));
            } else {
                cluster.submit(Event::faa_position(seq, flight, fix(seq)));
            }
        } else {
            cluster.submit(Event::faa_position(seq, flight, fix(seq)));
        }
        if seq == events / 2 {
            halfway.store(true, Ordering::Release);
        }
        std::thread::sleep(interval);
    }
    assert!(cluster.wait_all_processed(events, Duration::from_secs(30)), "feed must apply");

    // Everything applied, and mirror 1 fans each run out before it counts
    // it processed: every update is published. Release the finish line.
    let frontier = edge.pub_seq();
    target.store(frontier, Ordering::Release);
    done.store(true, Ordering::Release);

    let mut latencies = Vec::new();
    let mut queue_hwm = 0usize;
    let mut pending_hwm = 0usize;
    let mut slow_disconnects = 0u64;
    for h in poller_handles {
        let r = h.join().expect("poller shard");
        latencies.extend(r.latencies_us);
        queue_hwm = queue_hwm.max(r.queue_hwm);
        pending_hwm = pending_hwm.max(r.pending_hwm);
        slow_disconnects += r.slow_disconnects;
    }
    let duration_s = t0.elapsed().as_secs_f64();

    // Bounded-memory evidence: no client — stalled cohort included —
    // ever held more than the configured caps.
    assert!(
        pending_hwm <= MAX_PENDING,
        "pending conflation state must stay under the cap: {pending_hwm} > {MAX_PENDING}"
    );
    assert!(
        queue_hwm <= QUEUE_CAP,
        "healthy queue must stay under its cap: {queue_hwm} > {QUEUE_CAP}"
    );

    // Checker correctness: contiguous stream, convergent state.
    let mirror_state = cluster.snapshot(1).expect("mirror snapshot").into_state();
    let (checker_state, checker_last, checker_gaps, _) = checker.join().expect("checker");
    assert_eq!(checker_last, frontier, "checker consumed to the frontier");
    assert_eq!(checker_gaps, 0, "checker must observe a gap-free stream");
    assert_eq!(checker_state.flights().len(), mirror_state.flights().len());
    for (id, view) in mirror_state.flights().iter() {
        let got = checker_state.flight(*id).expect("checker has every flight");
        assert!(views_equivalent(view, got), "checker diverged on flight {id}");
    }
    for h in resume_handles {
        let (state, last, _gaps, resumes) = h.join().expect("resume subscriber");
        assert_eq!(resumes, 1, "each resume subscriber dropped and resumed once");
        assert_eq!(last, frontier, "resume subscriber consumed to the frontier");
        for (id, view) in mirror_state.flights().iter() {
            let got = state.flight(*id).expect("resume subscriber has every flight");
            assert!(views_equivalent(view, got), "resume subscriber diverged on flight {id}");
        }
    }

    let stats = edge.counters().snapshot();
    if chaos {
        assert!(
            stats.resumed + stats.reseeded >= RESUMERS,
            "every mid-stream resume re-attached (replay or reseed)"
        );
        assert!(stats.conflated > 0, "the stalled cohort must actually conflate");
    }

    latencies.sort_unstable();
    let conflation_ratio = if stats.delivered + stats.conflated > 0 {
        stats.conflated as f64 / (stats.delivered + stats.conflated) as f64
    } else {
        0.0
    };
    let out = PhaseStats {
        published: stats.published,
        delivered: stats.delivered,
        conflated: stats.conflated,
        conflation_ratio,
        delivered_per_sec: stats.delivered as f64 / duration_s,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        samples: latencies.len(),
        queue_hwm,
        pending_hwm,
        slow_disconnects,
        resumed: stats.resumed,
        reseeded: stats.reseeded,
        duration_s,
    };
    let cluster = Arc::try_unwrap(cluster).unwrap_or_else(|_| panic!("cluster still shared"));
    cluster.shutdown();
    out
}

fn phase_json(name: &str, s: &PhaseStats) -> String {
    format!(
        "  \"{name}\": {{\n    \"published\": {},\n    \"delivered\": {},\n    \
         \"delivered_per_sec\": {:.0},\n    \"conflated\": {},\n    \
         \"conflation_ratio\": {:.6},\n    \"latency_p50_us\": {},\n    \
         \"latency_p99_us\": {},\n    \"latency_samples\": {},\n    \
         \"queue_high_watermark\": {},\n    \"pending_high_watermark\": {},\n    \
         \"slow_disconnects\": {},\n    \"resumed\": {},\n    \"reseeded\": {},\n    \
         \"duration_s\": {:.2}\n  }}",
        s.published,
        s.delivered,
        s.delivered_per_sec,
        s.conflated,
        s.conflation_ratio,
        s.p50_us,
        s.p99_us,
        s.samples,
        s.queue_hwm,
        s.pending_hwm,
        s.slow_disconnects,
        s.resumed,
        s.reseeded,
        s.duration_s,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let opt = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(|v| v.to_string())
    };

    let smoke = flag("--smoke");
    let subs: usize = opt("--subs").map(|v| v.parse().expect("--subs")).unwrap_or(if smoke {
        2_000
    } else {
        100_000
    });
    let events: u64 = opt("--events").map(|v| v.parse().expect("--events")).unwrap_or(if smoke {
        300
    } else {
        360
    });
    // Full mode paces the feed to the host's sustainable fan-out rate:
    // each event reaches ~15% of the fleet, so even single-digit
    // events/sec is ~100k frame deliveries/sec at 100k subscribers.
    let rate: u64 =
        opt("--rate").map(|v| v.parse().expect("--rate")).unwrap_or(if smoke { 600 } else { 6 });
    let out = opt("--out").unwrap_or_else(|| "results/BENCH_edge_fanout.json".to_string());
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    let pollers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).clamp(2, 16);

    println!(
        "edge_fanout: {subs} subscribers, {events} events @ {rate}/s, {pollers} pollers \
         (smoke={smoke})"
    );
    println!("phase A: all subscribers healthy");
    let a = run_phase(subs, events, rate, false, pollers);
    println!(
        "  delivered {} ({:.0}/s)  conflated {} ({:.4})  p50 {} us  p99 {} us",
        a.delivered, a.delivered_per_sec, a.conflated, a.conflation_ratio, a.p50_us, a.p99_us
    );
    println!("phase B: 1% stalled cohort + {RESUMERS} mid-stream resumes");
    let b = run_phase(subs, events, rate, true, pollers);
    println!(
        "  delivered {} ({:.0}/s)  conflated {} ({:.4})  p50 {} us  p99 {} us  \
         resumed {}  reseeded {}",
        b.delivered,
        b.delivered_per_sec,
        b.conflated,
        b.conflation_ratio,
        b.p50_us,
        b.p99_us,
        b.resumed,
        b.reseeded
    );

    // Isolation: a stalled cohort conflates in place of queueing, so it
    // must not drag healthy subscribers' tail latency. 1.5x plus a small
    // absolute epsilon (scheduler noise at micro-scale latencies).
    let budget_us = (a.p99_us as f64 * 1.5) + 25_000.0;
    assert!(
        (b.p99_us as f64) <= budget_us,
        "stalled cohort delayed healthy subscribers: p99 {} us vs budget {:.0} us \
         (baseline {} us)",
        b.p99_us,
        budget_us,
        a.p99_us
    );

    let json = format!(
        "{{\n  \"bench\": \"edge_fanout\",\n  \"smoke\": {smoke},\n  \"config\": {{\
         \"subs\": {subs}, \"events\": {events}, \"rate_per_sec\": {rate}, \
         \"flights\": {FLIGHTS}, \"pollers\": {pollers}, \"queue_cap\": {QUEUE_CAP}, \
         \"max_pending\": {MAX_PENDING}, \"resumers\": {RESUMERS}}},\n{},\n{},\n  \
         \"healthy_p99_budget_us\": {:.0}\n}}\n",
        phase_json("baseline", &a),
        phase_json("chaos", &b),
        budget_us,
    );
    std::fs::write(&out, json).expect("write benchmark json");
    println!("wrote {out}");
}
