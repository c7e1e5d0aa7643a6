//! Per-layer probes: direct, single-threaded calls into each layer's
//! public functions on generated inputs, timed in five slices whose median
//! is reported. A probe says what a layer costs on its own; which
//! end-to-end metric it should move, and on which workload, is written
//! down beside each (and in the README) before anything is measured.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use mirror_core::adapt::MonitorReport;
use mirror_core::api::{MirrorConfig, MirrorHandle};
use mirror_core::aux_unit::{AuxAction, AuxInput, AuxUnit};
use mirror_core::checkpoint::MainUnitResponder;
use mirror_core::event::Event;
use mirror_core::mirrorfn::MirrorFnKind;
use mirror_core::ring;
use mirror_core::timestamp::VectorTimestamp;
use mirror_core::ControlMsg;
use mirror_echo::transport::TcpTransport;
use mirror_echo::wire::{
    decode_frame, decode_snapshot, encode_batch_from_encoded, encode_frame, encode_snapshot, Frame,
};
use mirror_echo::{EventChannel, SubscriptionFilter, Transport};
use mirror_ede::{Ede, ShardedEde};
use mirror_edge::{EdgeConfig, EdgeServer, SnapshotFn};
use mirror_runtime::site::SiteCounters;
use mirror_runtime::{
    ApplyPool, ApplyPoolConfig, ApplySink, Cluster, ClusterConfig, GatewayConfig, RuntimeClock,
    SnapshotCachePolicy,
};
use mirror_store::{EventLog, FsyncPolicy, LogConfig};
use mirror_workload::{faa, FaaStreamConfig};

use crate::harness::{process_cpu_us, wait_until, WorkDir};
use crate::inputs;
use crate::stats::median;
use crate::workloads::Metric;

/// Slices per probe; the median slice is reported.
const SLICES: usize = 5;

/// Flights in the state the snapshot, freeze and gateway probes work on
/// (the population of `recovery_storm`).
const STATE_FLIGHTS: u32 = 2_000;

/// Events the probes keep in flight through a site's apply path at most.
/// An apply worker's SPSC ring holds 4096; a producer that finds it *full*
/// can lose a slot to a race in `core::ring` (see README, known hazards)
/// and the worker then stalls for good. Half the ring keeps clear of it —
/// the same reason the closed-loop workloads run windowed.
const IN_FLIGHT: u64 = 2_048;

/// Time `work` — which performs some operations and returns how many — in
/// [`SLICES`] slices of `budget ÷ SLICES` each, and report the median
/// slice's nanoseconds per operation.
fn ns_per_op(budget: Duration, mut work: impl FnMut() -> u64) -> f64 {
    let slice = budget / SLICES as u32;
    let mut per_op = Vec::with_capacity(SLICES);
    for _ in 0..SLICES {
        let start = Instant::now();
        let mut ops = 0u64;
        while start.elapsed() < slice || ops == 0 {
            ops += work();
        }
        per_op.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&per_op)
}

/// Like [`ns_per_op`] for operations with untimed preparation: `work`
/// returns `(time spent in the operation itself, operations)`.
fn ns_per_timed_op(budget: Duration, mut work: impl FnMut() -> (Duration, u64)) -> f64 {
    let slice = budget / SLICES as u32;
    let mut per_op = Vec::with_capacity(SLICES);
    for _ in 0..SLICES {
        let (mut spent, mut ops) = (Duration::ZERO, 0u64);
        while spent < slice || ops == 0 {
            let (t, n) = work();
            spent += t;
            ops += n;
        }
        per_op.push(spent.as_nanos() as f64 / ops as f64);
    }
    median(&per_op)
}

fn timed<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let r = f();
    (start.elapsed(), r)
}

fn pool(events: u64, flights: u32, size: usize, seed: u64) -> Vec<Arc<Event>> {
    inputs::closed_pool(events, flights, size, seed).into_iter().map(|(_, e)| Arc::new(e)).collect()
}

/// A pool stamped the way the central's receiving task stamps events, for
/// layers that sit behind it (EDE, apply pool).
fn stamped_pool(events: u64, flights: u32, size: usize, seed: u64) -> Vec<Arc<Event>> {
    let mut clock = VectorTimestamp::new(1);
    inputs::closed_pool(events, flights, size, seed)
        .into_iter()
        .map(|(_, mut e)| {
            clock.advance(e.stream as usize, e.seq);
            e.stamp = clock.clone();
            Arc::new(e)
        })
        .collect()
}

/// An EDE state holding [`STATE_FLIGHTS`] flights with positions.
fn populated_sharded(shards: usize) -> ShardedEde {
    let ede = ShardedEde::new(shards);
    for e in stamped_pool(u64::from(STATE_FLIGHTS), STATE_FLIGHTS, 128, 7) {
        ede.process(&e, |_| {}, |_| {});
    }
    ede
}

struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.to_string(), value, unit });
    }
}

/// Run every probe, each for about `budget`, on inputs generated from
/// `seed`.
pub fn run_all(budget: Duration, seed: u64) -> Vec<Metric> {
    let mut out = Out(Vec::new());
    workload_probes(&mut out, budget, seed);
    core_probes(&mut out, budget, seed);
    echo_probes(&mut out, budget, seed);
    ede_probes(&mut out, budget, seed);
    store_probes(&mut out, budget, seed);
    edge_probes(&mut out, budget, seed);
    runtime_probes(&mut out, budget, seed);
    out.0
}

// → setup_s, every workload.
fn workload_probes(out: &mut Out, budget: Duration, seed: u64) {
    let ns = ns_per_op(budget, || {
        let evs = faa::generate(&FaaStreamConfig {
            flights: 500,
            total_events: 20_000,
            events_per_sec: 20_000.0,
            event_size: 256,
            seed,
            first_flight: 0,
        });
        std::hint::black_box(evs).len() as u64
    });
    out.put("workload.generate_ns_per_event", ns, "ns");
}

fn central_unit(kind: MirrorFnKind) -> MirrorHandle {
    let mut aux = MirrorConfig::default().build_central(vec![1, 2]);
    aux.install_kind(kind);
    MirrorHandle::new(aux)
}

/// Time `fwd` over one lap of the pool on a fresh central unit (a fresh
/// one per lap: without checkpoint replies the backup queue only grows).
fn aux_fwd_ns(budget: Duration, kind: MirrorFnKind, events: &[Arc<Event>]) -> f64 {
    ns_per_timed_op(budget, || {
        let unit = central_unit(kind);
        let lap: Vec<Arc<Event>> = events.iter().map(|e| Arc::new((**e).clone())).collect();
        let (t, ()) = timed(|| {
            for e in lap {
                std::hint::black_box(unit.fwd(e));
            }
        });
        (t, events.len() as u64)
    })
}

/// A central unit, two mirror units and their three main-unit responders
/// stepped on one thread: what `runtime::site` does with threads and
/// channels, minus the threads and channels.
struct MiniCluster {
    units: Vec<AuxUnit>,
    mains: Vec<MainUnitResponder>,
    queue: VecDeque<(usize, AuxInput)>,
}

impl MiniCluster {
    fn new(checkpoint_every: u32) -> Self {
        let cfg = || MirrorConfig::init(false, 1, checkpoint_every);
        let units =
            vec![cfg().build_central(vec![1, 2]), cfg().build_mirror(1), cfg().build_mirror(2)];
        let mains = (0..3).map(MainUnitResponder::new).collect();
        MiniCluster { units, mains, queue: VecDeque::new() }
    }

    /// Feed one source event to the central unit and run every site to
    /// quiescence: mirroring, and any CHKPT → CHKPT_REP → COMMIT round the
    /// event triggers.
    fn submit(&mut self, event: Arc<Event>) {
        self.queue.push_back((0, AuxInput::Data(event)));
        while let Some((site, input)) = self.queue.pop_front() {
            for action in self.units[site].handle(input) {
                match action {
                    AuxAction::Mirror { event, .. } => {
                        for m in 1..=2 {
                            self.queue.push_back((m, AuxInput::Data(Arc::clone(&event))));
                        }
                    }
                    AuxAction::ForwardToMain(ev) => self.mains[site].record_processed(&ev.stamp),
                    AuxAction::ControlToMirrors(msg) => {
                        for m in 1..=2 {
                            self.queue.push_back((m, AuxInput::Control(msg.clone())));
                        }
                    }
                    AuxAction::ControlToCentral(msg) => {
                        self.queue.push_back((0, AuxInput::Control(msg)));
                    }
                    AuxAction::ControlToMain(msg) => match &msg {
                        ControlMsg::Chkpt { .. } => {
                            let rep = self.mains[site].on_chkpt(&msg, MonitorReport::default());
                            if let Some(rep) = rep {
                                self.queue.push_back((site, AuxInput::Control(rep)));
                            }
                        }
                        ControlMsg::Commit { .. } => self.mains[site].on_commit(&msg),
                        ControlMsg::ChkptRep { .. } => {}
                    },
                    _ => {}
                }
            }
        }
    }

    fn rounds(&self) -> u64 {
        self.units[0].counters().checkpoints
    }
}

fn core_probes(out: &mut Out, budget: Duration, seed: u64) {
    let events = pool(20_000, 500, 128, seed);
    // → events_per_s on saturation_simple.
    out.put("core.aux_fwd_ns", aux_fwd_ns(budget, MirrorFnKind::Simple, &events), "ns");
    // → events_per_s on saturation_selective only.
    out.put(
        "core.aux_fwd_selective_ns",
        aux_fwd_ns(budget, MirrorFnKind::Selective { overwrite: 10 }, &events),
        "ns",
    );
    // The sending task's idle drain: a coalescing unit holds one open run
    // per flight; `mirror()` flushes them. → events_per_s on
    // saturation_simple (the aux thread runs it on every idle wakeup).
    let ns = ns_per_timed_op(budget, || {
        let unit = central_unit(MirrorFnKind::Coalescing { coalesce: 10, checkpoint_every: 50 });
        for e in events.iter().take(2_500) {
            unit.fwd(Arc::new((**e).clone()));
        }
        let (t, drained) = timed(|| unit.mirror().len());
        (t, drained.max(1) as u64)
    });
    out.put("core.aux_mirror_drain_ns", ns, "ns");

    // → events_per_s on saturation_simple (aux → dispatcher → worker hops).
    let (mut tx, mut rx) = ring::spsc::<u64>(1024);
    let ns = ns_per_op(budget, || {
        for i in 0..1_000u64 {
            let _ = tx.try_send(i);
            std::hint::black_box(rx.try_recv());
        }
        1_000
    });
    out.put("core.ring_spsc_ns", ns, "ns");
    let (tx, mut rx) = ring::mpsc::<u64>(1024);
    let ns = ns_per_op(budget, || {
        for i in 0..1_000u64 {
            let _ = tx.try_send(i);
            std::hint::black_box(rx.try_recv());
        }
        1_000
    });
    out.put("core.ring_mpsc_ns", ns, "ns");

    // → update_delay_p99_us on steady_stream. One event through 1 + 2
    // sites with a full CHKPT → REP → COMMIT round behind it, less the
    // same event without a round.
    let cycle = |checkpoint_every: u32| {
        ns_per_timed_op(budget / 2, || {
            let mut mini = MiniCluster::new(checkpoint_every);
            let lap: Vec<Arc<Event>> =
                events.iter().take(2_000).map(|e| Arc::new((**e).clone())).collect();
            let n = lap.len() as u64;
            let (t, ()) = timed(|| {
                for e in lap {
                    mini.submit(e);
                }
            });
            assert!(checkpoint_every > 1 || mini.rounds() == n, "every event ran a round");
            (t, n)
        })
    };
    out.put("core.checkpoint_round_ns", (cycle(1) - cycle(u32::MAX)).max(0.0), "ns");
}

fn echo_probes(out: &mut Out, budget: Duration, seed: u64) {
    let events = stamped_pool(4_096, 500, 512, seed);
    let frames: Vec<Frame> = events.iter().map(|e| Frame::Data(Arc::clone(e))).collect();
    let encoded: Vec<Bytes> = frames.iter().map(encode_frame).collect();
    // → events_per_s on bridged_durable; no change on in-process workloads.
    let ns = ns_per_op(budget, || {
        for f in &frames {
            std::hint::black_box(encode_frame(f));
        }
        frames.len() as u64
    });
    out.put("echo.encode_frame_ns", ns, "ns");
    let ns = ns_per_op(budget, || {
        for b in &encoded {
            std::hint::black_box(decode_frame(b.clone()).expect("own encoding decodes"));
        }
        encoded.len() as u64
    });
    out.put("echo.decode_frame_ns", ns, "ns");
    let ns = ns_per_op(budget, || {
        for batch in encoded.chunks(64) {
            std::hint::black_box(encode_batch_from_encoded(batch));
        }
        encoded.len() as u64
    });
    out.put("echo.encode_batch_ns_per_event", ns, "ns");

    // One frame there and one back over loopback TCP, both ends on this
    // thread. → events_per_s on bridged_durable.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let mut a = TcpTransport::connect(listener.local_addr().expect("address")).expect("connect");
    let mut b = TcpTransport::accept_one(&listener).expect("accept");
    let ns = ns_per_op(budget, || {
        for bytes in encoded.iter().take(64) {
            a.send_encoded(bytes).expect("send");
            let f = b.recv().expect("recv").expect("frame");
            b.send(&f).expect("send back");
            std::hint::black_box(a.recv().expect("recv back"));
        }
        64
    });
    out.put("echo.tcp_frame_roundtrip_us", ns / 1e3, "us");

    // → events_per_s on saturation_simple (the central → mirrors hop).
    let channel: EventChannel<Arc<Event>> = EventChannel::new("probe");
    let subs = [channel.subscribe(), channel.subscribe()];
    let publisher = channel.publisher();
    let ns = ns_per_op(budget, || {
        for e in &events {
            publisher.publish(Arc::clone(e));
            for s in &subs {
                std::hint::black_box(s.try_recv());
            }
        }
        events.len() as u64
    });
    out.put("echo.channel_publish_recv_ns", ns, "ns");

    // → request_p99_us on recovery_storm.
    let (snapshot, _) = populated_sharded(8).freeze(VectorTimestamp::new(1));
    let ns = ns_per_op(budget, || {
        std::hint::black_box(encode_snapshot(&snapshot));
        1
    });
    out.put("echo.encode_snapshot_us", ns / 1e3, "us");
    let wire = encode_snapshot(&snapshot);
    let ns = ns_per_op(budget, || {
        std::hint::black_box(decode_snapshot(wire.clone()).expect("own encoding decodes"));
        1
    });
    out.put("echo.decode_snapshot_us", ns / 1e3, "us");
}

fn ede_probes(out: &mut Out, budget: Duration, seed: u64) {
    let events = stamped_pool(50_000, 500, 128, seed);
    // → events_per_s on both saturations. Fresh engines per lap: a second
    // lap of the same sequence numbers would be absorbed as stale.
    let ns = ns_per_timed_op(budget, || {
        let mut ede = Ede::new();
        let (t, ()) = timed(|| {
            for e in &events {
                ede.process_with(
                    e,
                    |u| {
                        std::hint::black_box(u);
                    },
                    |_| {},
                );
            }
        });
        (t, events.len() as u64)
    });
    out.put("ede.process_ns", ns, "ns");
    let ns = ns_per_timed_op(budget, || {
        let ede = ShardedEde::new(8);
        let (t, ()) = timed(|| {
            for e in &events {
                ede.process(
                    e,
                    |u| {
                        std::hint::black_box(u);
                    },
                    |_| {},
                );
            }
        });
        (t, events.len() as u64)
    });
    out.put("ede.sharded_process_ns", ns, "ns");

    // → request_p99_us *and* update_delay_p99_us on recovery_storm: a
    // freeze holds every shard, so applies wait for it.
    let state = populated_sharded(8);
    let mut round = 0u64;
    let ns = ns_per_op(budget, || {
        round += 1;
        let mut as_of = VectorTimestamp::new(1);
        as_of.advance(0, round);
        std::hint::black_box(state.freeze(as_of));
        1
    });
    out.put("ede.freeze_us", ns / 1e3, "us");

    // A delta after 5 % of the flights moved since the base capture.
    let movers = STATE_FLIGHTS / 20;
    let mut seq = u64::from(STATE_FLIGHTS);
    let ns = ns_per_timed_op(budget, || {
        let mut base = VectorTimestamp::new(1);
        base.advance(0, seq);
        state.freeze(base.clone());
        let mut clock = base.clone();
        for f in 0..movers {
            seq += 1;
            let mut e = Event::faa_position(seq, f, faa::cruise_fix());
            clock.advance(0, seq);
            e.stamp = clock.clone();
            state.process(&e, |_| {}, |_| {});
        }
        let (t, delta) = timed(|| state.capture_delta(&base, clock.clone()));
        assert_eq!(delta.expect("base is remembered").0.changed_count(), movers as usize);
        (t, 1)
    });
    out.put("ede.capture_delta_us", ns / 1e3, "us");
    let ns = ns_per_op(budget, || {
        std::hint::black_box(state.state_hash());
        1
    });
    out.put("ede.state_hash_us", ns / 1e3, "us");
}

fn store_probes(out: &mut Out, budget: Duration, seed: u64) {
    let events = stamped_pool(4_096, 500, 512, seed);
    let wires: Vec<Bytes> =
        events.iter().map(|e| encode_frame(&Frame::Data(Arc::clone(e)))).collect();
    let work = WorkDir::new("probe-log");
    let cfg = LogConfig { fsync: FsyncPolicy::EveryN(64), ..LogConfig::default() };
    let mut log = EventLog::open(work.path().join("append"), cfg).expect("open log");
    let mut idx = 0u64;
    // → events_per_s on bridged_durable.
    let ns = ns_per_op(budget, || {
        for w in &wires {
            idx += 1;
            log.append(idx, w).expect("append");
        }
        wires.len() as u64
    });
    out.put("store.append_ns", ns, "ns");
    // A checkpoint commit's share: 64 appends, then the sync is timed.
    let ns = ns_per_timed_op(budget, || {
        for w in wires.iter().take(64) {
            idx += 1;
            log.append(idx, w).expect("append");
        }
        let (t, r) = timed(|| log.sync());
        r.expect("sync");
        (t, 1)
    });
    out.put("store.sync_us", ns / 1e3, "us");
    drop(log);

    // → outage_ms on central_failover (the journal handoff replays the
    // retained log) and events_per_s on bridged_durable's recovery paths.
    let mut log = EventLog::open(work.path().join("replay"), cfg).expect("open log");
    for (i, w) in wires.iter().enumerate() {
        log.append(i as u64 + 1, w).expect("append");
    }
    log.sync().expect("sync");
    let ns = ns_per_op(budget, || {
        let entries = log.replay_from(1).expect("replay");
        assert_eq!(entries.len(), wires.len());
        entries.len() as u64
    });
    out.put("store.replay_ns_per_event", ns, "ns");
}

fn edge_probes(out: &mut Out, budget: Duration, seed: u64) {
    const SUBSCRIBERS: u64 = 64;
    let events = stamped_pool(512, 500, 256, seed);
    let provider = SnapshotFn(|| (Bytes::new(), VectorTimestamp::new(1)));
    let cfg = EdgeConfig { queue_cap: 4096, ..EdgeConfig::default() };
    let edge = EdgeServer::start(cfg, Box::new(provider));
    let clients: Vec<_> =
        (0..SUBSCRIBERS).map(|i| edge.subscribe(i + 1, SubscriptionFilter::All)).collect();
    edge.quiesce();
    let drain = |expect_events: u64| -> u64 {
        let mut polled = 0u64;
        for c in &clients {
            while let Ok(Some(_)) = c.poll() {
                polled += 1;
            }
        }
        assert!(polled >= expect_events, "every subscriber got every event");
        polled
    };
    drain(0); // the initial reseed frames

    // → edge_delivery_p99_us on steady_stream.
    let (mut publish, mut poll, mut fanout) = (Vec::new(), Vec::new(), Vec::new());
    let slice = budget / SLICES as u32;
    for _ in 0..SLICES {
        let (mut t_publish, mut t_poll, mut t_all) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut published, mut polled) = (0u64, 0u64);
        while t_all < slice {
            let lap = Instant::now();
            let (t, ()) = timed(|| {
                for e in &events {
                    edge.publish(Arc::clone(e));
                }
            });
            t_publish += t;
            published += events.len() as u64;
            edge.quiesce();
            let (t, n) = timed(|| drain(events.len() as u64 * SUBSCRIBERS));
            t_poll += t;
            polled += n;
            t_all += lap.elapsed();
        }
        publish.push(t_publish.as_nanos() as f64 / published as f64);
        poll.push(t_poll.as_nanos() as f64 / polled as f64);
        fanout.push(t_all.as_nanos() as f64 / polled as f64);
    }
    out.put("edge.publish_ns", median(&publish), "ns");
    out.put("edge.poll_ns", median(&poll), "ns");
    out.put("edge.fanout_ns_per_delivery", median(&fanout), "ns");
    drop(clients);
    edge.stop();
}

fn start_cluster(flights: u32) -> Cluster {
    let cluster = Cluster::start(ClusterConfig { mirrors: 2, ..Default::default() });
    for e in inputs::preload_events(flights, 128) {
        cluster.submit(e);
    }
    let n = u64::from(flights);
    assert!(cluster.wait_all_processed(n, Duration::from_secs(20)), "probe cluster preloaded");
    cluster
}

fn runtime_probes(out: &mut Out, budget: Duration, seed: u64) {
    // → events_per_s on the saturations: what `submit` costs its caller.
    let cluster = start_cluster(500);
    let events = inputs::closed_pool(IN_FLIGHT, 500, 128, seed);
    let mut lap = 0u64;
    let mut submitted = 500u64;
    let ns = ns_per_timed_op(budget, || {
        let burst: Vec<Event> = events
            .iter()
            .map(|(_, e)| {
                let mut e = e.clone();
                e.seq += lap * events.len() as u64;
                e.ingress_us = 0;
                e
            })
            .collect();
        lap += 1;
        let (t, ()) = timed(|| {
            for e in burst {
                cluster.submit(e);
            }
        });
        submitted += events.len() as u64;
        assert!(cluster.wait_all_processed(submitted, Duration::from_secs(20)), "probe drained");
        (t, events.len() as u64)
    });
    out.put("runtime.submit_ns", ns, "ns");

    // → cpu_us_per_event on steady_stream: what the threads of an idle
    // 1 + 2 cluster burn while nothing flows.
    let idle = (budget * 10).clamp(Duration::from_millis(500), Duration::from_secs(2));
    let (cpu0, t0) = (process_cpu_us(), Instant::now());
    std::thread::sleep(idle);
    let pct = (process_cpu_us() - cpu0) / t0.elapsed().as_micros() as f64 * 100.0;
    out.put("runtime.idle_cpu_pct", pct, "%");
    let (t, ()) = timed(|| cluster.shutdown());
    let mut shutdown_ms = vec![t.as_secs_f64() * 1e3];

    // → events_per_s on the saturations: dispatch → applied through the
    // real sharded worker pool.
    let stamped = stamped_pool(50_000, 500, 128, seed);
    let ns = ns_per_timed_op(budget, || {
        let counters = Arc::new(SiteCounters::default());
        let sink = ApplySink {
            responder: Arc::new(parking_lot::Mutex::new(MainUnitResponder::new(0))),
            counters: Arc::clone(&counters),
            clock: RuntimeClock::new(),
            updates: None,
        };
        let mut pool = ApplyPool::spawn(
            Arc::new(ShardedEde::new(8)),
            sink,
            Arc::new(AtomicBool::new(false)),
            ApplyPoolConfig::default(),
        );
        let n = stamped.len() as u64;
        let applied = || counters.processed.load(Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(20);
        let (t, ()) = timed(|| {
            for (i, e) in stamped.iter().enumerate() {
                // Never let a worker ring fill (see IN_FLIGHT).
                while i as u64 - applied() >= IN_FLIGHT {
                    assert!(Instant::now() < deadline, "apply pool stalled at {i} of {n}");
                    std::hint::spin_loop();
                }
                pool.dispatch(Arc::clone(e));
            }
            let drained = wait_until(deadline, Duration::from_micros(50), || applied() >= n);
            assert!(drained, "apply pool drained: {} of {n}", applied());
        });
        pool.shutdown();
        (t, n)
    });
    out.put("runtime.applypool_ns_per_event", ns, "ns");

    // → setup_s everywhere, outage_ms on central_failover.
    let mut start_ms = Vec::new();
    for _ in 0..SLICES - 1 {
        let (t, cluster) =
            timed(|| Cluster::start(ClusterConfig { mirrors: 2, ..Default::default() }));
        start_ms.push(t.as_secs_f64() * 1e3);
        let (t, ()) = timed(|| cluster.shutdown());
        shutdown_ms.push(t.as_secs_f64() * 1e3);
    }
    out.put("runtime.cluster_start_ms", median(&start_ms), "ms");
    out.put("runtime.shutdown_ms", median(&shutdown_ms), "ms");

    // The serving side, on the storm's population. → request_p99_us.
    let cluster = start_cluster(STATE_FLIGHTS);
    let forever = SnapshotCachePolicy { max_stale_events: u64::MAX / 2, max_stale: Duration::MAX };
    for (name, cache) in
        [("runtime.gateway_fetch_hit_us", Some(forever)), ("runtime.gateway_fetch_miss_us", None)]
    {
        let gateway =
            cluster.mirror(1).serve_requests_with(GatewayConfig { cache, ..Default::default() });
        let client = gateway.client();
        let ns = ns_per_op(budget, || {
            let served = client.fetch(Duration::from_secs(5)).expect("gateway serves");
            std::hint::black_box(served);
            1
        });
        out.put(name, ns / 1e3, "us");
        drop(client);
        gateway.stop();
    }
    let sync = cluster.mirror(1).state_sync();
    let ns = ns_per_op(budget, || {
        std::hint::black_box(sync.capture_now());
        1
    });
    out.put("runtime.statesync_full_us", ns / 1e3, "us");
    // A delta after 5 % of the flights moved since the base capture.
    let movers = STATE_FLIGHTS / 20;
    let mut seq = 1u64;
    let mut applied = u64::from(STATE_FLIGHTS);
    let ns = ns_per_timed_op(budget, || {
        let base = sync.capture_now().as_of.clone();
        seq += 1;
        for f in 0..movers {
            cluster.submit(Event::faa_position(seq, f, faa::cruise_fix()).with_total_size(128));
        }
        applied += u64::from(movers);
        assert!(cluster.wait_all_processed(applied, Duration::from_secs(20)), "movers applied");
        let (t, delta) = timed(|| sync.delta_now(&base));
        assert!(delta.is_some(), "the base capture is remembered");
        (t, 1)
    });
    out.put("runtime.statesync_delta_us", ns / 1e3, "us");

    // A seeded join at the storm's population. → setup_s / scale-out.
    let mut add_ms = Vec::new();
    for _ in 0..3 {
        let (t, site) = timed(|| cluster.add_mirror().expect("add mirror"));
        add_ms.push(t.as_secs_f64() * 1e3);
        cluster.retire_mirror(site).expect("retire mirror");
    }
    out.put("runtime.add_mirror_ms", median(&add_ms), "ms");
    cluster.shutdown();
}

/// Names and units of everything [`run_all`] reports, for `BENCHMARK.json`
/// and the test that holds the two together.
pub const PROBES: &[(&str, &str)] = &[
    ("workload.generate_ns_per_event", "ns"),
    ("core.aux_fwd_ns", "ns"),
    ("core.aux_fwd_selective_ns", "ns"),
    ("core.aux_mirror_drain_ns", "ns"),
    ("core.ring_spsc_ns", "ns"),
    ("core.ring_mpsc_ns", "ns"),
    ("core.checkpoint_round_ns", "ns"),
    ("echo.encode_frame_ns", "ns"),
    ("echo.decode_frame_ns", "ns"),
    ("echo.encode_batch_ns_per_event", "ns"),
    ("echo.tcp_frame_roundtrip_us", "us"),
    ("echo.channel_publish_recv_ns", "ns"),
    ("echo.encode_snapshot_us", "us"),
    ("echo.decode_snapshot_us", "us"),
    ("ede.process_ns", "ns"),
    ("ede.sharded_process_ns", "ns"),
    ("ede.freeze_us", "us"),
    ("ede.capture_delta_us", "us"),
    ("ede.state_hash_us", "us"),
    ("store.append_ns", "ns"),
    ("store.sync_us", "us"),
    ("store.replay_ns_per_event", "ns"),
    ("edge.publish_ns", "ns"),
    ("edge.poll_ns", "ns"),
    ("edge.fanout_ns_per_delivery", "ns"),
    ("runtime.submit_ns", "ns"),
    ("runtime.idle_cpu_pct", "%"),
    ("runtime.shutdown_ms", "ms"),
    ("runtime.applypool_ns_per_event", "ns"),
    ("runtime.cluster_start_ms", "ms"),
    ("runtime.gateway_fetch_hit_us", "us"),
    ("runtime.gateway_fetch_miss_us", "us"),
    ("runtime.statesync_full_us", "us"),
    ("runtime.statesync_delta_us", "us"),
    ("runtime.add_mirror_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_op_reports_the_median_slice() {
        let mut calls = 0u64;
        let ns = ns_per_op(Duration::from_millis(10), || {
            calls += 1;
            std::thread::sleep(Duration::from_micros(200));
            2
        });
        assert!(calls >= SLICES as u64);
        // 200 µs (plus sleep overshoot) for two operations.
        assert!((100_000.0..2_000_000.0).contains(&ns), "{ns} ns per op");
    }

    #[test]
    fn a_mini_cluster_runs_a_checkpoint_round_per_event() {
        let mut mini = MiniCluster::new(1);
        for e in pool(50, 10, 128, 3) {
            mini.submit(e);
        }
        assert_eq!(mini.rounds(), 50);
        assert_eq!(mini.units[0].committed().map(|c| c.get(0)), Some(50));
        let mut quiet = MiniCluster::new(u32::MAX);
        for e in pool(50, 10, 128, 3) {
            quiet.submit(e);
        }
        assert_eq!(quiet.rounds(), 0);
    }
}
