//! Cross-thread stress tests for the lock-free rings (`mirror_core::ring`).
//!
//! The apply path trusts these rings with every event a site processes, so
//! the properties checked here are the load-bearing ones:
//!
//! * **no lost or duplicated events** — every value pushed is popped
//!   exactly once, across real producer/consumer threads;
//! * **bounded-capacity backpressure** — a full ring refuses the item and
//!   hands it back rather than dropping or reallocating;
//! * **exact statistics** — after both sides finish,
//!   `enqueued == dequeued + still-buffered` and the high watermark never
//!   exceeds capacity.
//!
//! * **no lost wake-up** — with both sides blocking (`send`/`recv`) on a
//!   ring that is full or empty nearly all the time, every park ends.
//!
//! The tests run multiple seeds-worth of interleavings by looping; on a
//! single-core host the ring's spin → yield → park wait forces genuine
//! preemption-driven interleavings rather than lockstep spinning.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mirror_core::ring::{mpsc, spsc, RingRecv, RingSend};

/// SPSC: a producer thread pushes a strictly increasing sequence through a
/// small ring while the consumer pops; FIFO order, no loss, no dups, exact
/// stats.
#[test]
fn spsc_cross_thread_fifo_no_loss() {
    const N: u64 = 200_000;
    let (mut tx, mut rx) = spsc::<u64>(64);

    let producer = thread::spawn(move || {
        for i in 0..N {
            tx.send(i).expect("consumer alive");
        }
        tx.stats()
    });

    let mut expected = 0u64;
    loop {
        match rx.try_recv() {
            RingRecv::Item(v) => {
                assert_eq!(v, expected, "FIFO order violated");
                expected += 1;
            }
            RingRecv::Empty => thread::yield_now(),
            RingRecv::Disconnected => break,
        }
    }
    assert_eq!(expected, N, "lost events");

    let sent = producer.join().unwrap();
    let st = rx.stats();
    assert_eq!(sent.enqueued, N);
    assert_eq!(st.enqueued, N);
    assert_eq!(st.dequeued, N);
    assert!(st.high_watermark <= 64, "watermark {} > capacity", st.high_watermark);
    assert!(st.high_watermark >= 1);
}

/// SPSC on a ring that is full almost all the time: an unthrottled
/// producer against an unthrottled consumer through 2 and 4 slots, so
/// nearly every push waits on a pop of the very slot it will refill. A
/// slot handed back to the producer before the consumer is done with it
/// (the lost-slot race a per-slot marker stored after the head once
/// allowed) leaves one side waiting for good, so both sides run on their
/// own threads and the test only waits for them up to a deadline: a stall
/// fails here, it does not hang.
#[test]
fn spsc_full_tiny_ring_never_stalls() {
    const N: u64 = 1_000_000;
    for capacity in [2, 4] {
        let (mut tx, mut rx) = spsc::<u64>(capacity);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let producer = thread::spawn(move || {
            for i in 0..N {
                if tx.send(i).is_err() {
                    return; // the consumer failed and says why
                }
            }
        });
        let consumer = thread::spawn(move || {
            let mut expected = 0u64;
            loop {
                match rx.try_recv() {
                    RingRecv::Item(v) => {
                        assert_eq!(v, expected, "FIFO order violated");
                        expected += 1;
                    }
                    RingRecv::Empty => std::hint::spin_loop(),
                    RingRecv::Disconnected => break,
                }
            }
            done_tx.send((expected, rx.stats())).expect("test thread waits");
        });
        let (received, st) = done_rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("capacity-{capacity} ring stalled or failed: {e}"));
        assert_eq!(received, N, "lost events");
        assert_eq!((st.enqueued, st.dequeued), (N, N));
        assert!(st.high_watermark <= capacity, "watermark {} > capacity", st.high_watermark);
        producer.join().unwrap();
        consumer.join().unwrap();
    }
}

/// The blocking twin of the test above: both sides wait inside the ring
/// (`send` parks on full, `recv` parks on empty), so a wake-up lost between
/// a side's last check and its park leaves it parked for good. Deadline-
/// bounded like the rest: a lost wake-up fails here, it does not hang.
#[test]
fn spsc_blocking_tiny_ring_never_loses_a_wakeup() {
    const N: u64 = 1_000_000;
    for capacity in [2, 4] {
        let (mut tx, mut rx) = spsc::<u64>(capacity);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let producer = thread::spawn(move || {
            for i in 0..N {
                stall_sometimes(i);
                if tx.send(i).is_err() {
                    return;
                }
            }
        });
        let consumer = thread::spawn(move || {
            let mut expected = 0u64;
            while let Some(v) = rx.recv() {
                assert_eq!(v, expected, "FIFO order violated");
                stall_sometimes(v + 97);
                expected += 1;
            }
            done_tx.send((expected, rx.stats())).expect("test thread waits");
        });
        let (received, st) = done_rx
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("capacity-{capacity} ring lost a wake-up or failed: {e}"));
        assert_eq!(received, N, "lost events");
        assert_eq!((st.enqueued, st.dequeued), (N, N));
        producer.join().unwrap();
        consumer.join().unwrap();
    }
}

/// MPSC, both sides blocking: 4 producers contend for a 4-slot ring, so
/// producers park on full and the consumer parks on empty all the time.
/// Exactly-once delivery and per-producer order, under a deadline.
#[test]
fn mpsc_blocking_tiny_ring_never_loses_a_wakeup() {
    const PRODUCERS: u64 = 4;
    const PER: u64 = 250_000;
    let (tx, mut rx) = mpsc::<u64>(4);
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let tx = tx.clone();
            thread::spawn(move || {
                for i in 0..PER {
                    stall_sometimes(i + p * 31);
                    if tx.send(p * PER + i).is_err() {
                        return;
                    }
                }
            })
        })
        .collect();
    drop(tx);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let consumer = thread::spawn(move || {
        // Each producer's values must arrive as exactly 0, 1, 2, …: a
        // duplicate, a gap or a reorder all break the sequence.
        let mut next = vec![0u64; PRODUCERS as usize];
        let mut received = 0u64;
        while let Some(v) = rx.recv() {
            let p = (v / PER) as usize;
            assert_eq!(v % PER, next[p], "producer {p} duplicated, lost or reordered an event");
            next[p] += 1;
            stall_sometimes(received);
            received += 1;
        }
        done_tx.send((received, rx.stats())).expect("test thread waits");
    });
    let (received, st) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|e| panic!("4-slot MPSC ring lost a wake-up or failed: {e}"));
    let n = PRODUCERS * PER;
    assert_eq!(received, n, "lost events");
    assert_eq!((st.enqueued, st.dequeued), (n, n));
    assert!(st.high_watermark <= 4, "watermark {} exceeds capacity 4", st.high_watermark);
    for p in producers {
        p.join().unwrap();
    }
    consumer.join().unwrap();
}

/// Now and then, busy-wait a varying 0–150 µs. The ring's spin and yield
/// rungs absorb an on-CPU peer's latency, so without stalls a side almost
/// never reaches the park; with them, the stalled side's next operation
/// lands at every point of its peer's spin → yield → park descent.
fn stall_sometimes(i: u64) {
    if i % 256 == 255 {
        let until = std::time::Instant::now() + Duration::from_micros(i.wrapping_mul(7919) % 150);
        while std::time::Instant::now() < until {
            std::hint::spin_loop();
        }
    }
}

/// SPSC backpressure: with the consumer stalled, exactly `capacity` pushes
/// succeed and the next is refused with the item intact; after draining
/// one, one more push fits.
#[test]
fn spsc_backpressure_is_exact() {
    let (mut tx, mut rx) = spsc::<u64>(8);
    let cap = tx.capacity();
    for i in 0..cap as u64 {
        tx.try_send(i).expect("within capacity");
    }
    match tx.try_send(999) {
        Err(RingSend::Full(v)) => assert_eq!(v, 999, "refused item must come back intact"),
        other => panic!("expected Full, got {other:?}"),
    }
    assert_eq!(tx.stats().enqueued, cap as u64, "refused push must not count");
    assert_eq!(rx.try_recv(), RingRecv::Item(0));
    tx.try_send(999).expect("one slot freed");
    let st = tx.stats();
    assert_eq!(st.high_watermark, cap, "watermark is exactly the full occupancy");
}

/// MPSC: several producer threads push disjoint tagged ranges; the consumer
/// must see every value exactly once, in per-producer FIFO order, with
/// exact totals.
#[test]
fn mpsc_cross_thread_no_loss_no_dup() {
    const PRODUCERS: u64 = 4;
    const PER: u64 = 50_000;
    let (tx, mut rx) = mpsc::<u64>(128);

    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let tx = tx.clone();
        handles.push(thread::spawn(move || {
            for i in 0..PER {
                // Tag the value with its producer so per-producer order is
                // checkable on the consumer side.
                tx.send(p * PER + i).expect("consumer alive");
            }
        }));
    }
    drop(tx);

    let mut seen = HashSet::new();
    let mut last_per_producer = vec![None::<u64>; PRODUCERS as usize];
    loop {
        match rx.try_recv() {
            RingRecv::Item(v) => {
                assert!(seen.insert(v), "duplicated event {v}");
                let p = (v / PER) as usize;
                let i = v % PER;
                if let Some(prev) = last_per_producer[p] {
                    assert!(i > prev, "producer {p} reordered: {i} after {prev}");
                }
                last_per_producer[p] = Some(i);
            }
            RingRecv::Empty => thread::yield_now(),
            RingRecv::Disconnected => break,
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(seen.len() as u64, PRODUCERS * PER, "lost events");
    let st = rx.stats();
    assert_eq!(st.enqueued, PRODUCERS * PER);
    assert_eq!(st.dequeued, PRODUCERS * PER);
    assert!(st.high_watermark <= 128);
}

/// MPSC under contention on a tiny ring: constant Full/retry churn must not
/// lose, duplicate, or miscount. This is the interleaving-heavy case — with
/// capacity 2 every push contends with the consumer and other producers.
#[test]
fn mpsc_tiny_ring_contention() {
    const PRODUCERS: u64 = 3;
    const PER: u64 = 20_000;
    let (tx, mut rx) = mpsc::<u64>(2);
    let popped = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let tx = tx.clone();
        handles.push(thread::spawn(move || {
            for i in 0..PER {
                tx.send(p * PER + i).expect("consumer alive");
            }
        }));
    }
    drop(tx);

    let mut sum = 0u128;
    loop {
        match rx.try_recv() {
            RingRecv::Item(v) => {
                sum += v as u128;
                popped.fetch_add(1, Ordering::Relaxed);
            }
            RingRecv::Empty => thread::yield_now(),
            RingRecv::Disconnected => break,
        }
    }
    for h in handles {
        h.join().unwrap();
    }
    let n = PRODUCERS * PER;
    assert_eq!(popped.load(Ordering::Relaxed), n);
    // Sum of 0..n is order-independent: catches any lost+duplicated swap
    // that a pure count would miss.
    assert_eq!(sum, (0..n as u128).sum::<u128>());
    let st = rx.stats();
    assert_eq!((st.enqueued, st.dequeued), (n, n));
    assert!(st.high_watermark <= 2, "watermark {} exceeds capacity 2", st.high_watermark);
}

/// Dropping the consumer mid-stream: producers observe Disconnected instead
/// of spinning forever, and stats stay consistent (enqueued never exceeds
/// what was accepted).
#[test]
fn mpsc_consumer_drop_unblocks_producers() {
    let (tx, rx) = mpsc::<u64>(4);
    let tx2 = tx.clone();
    let stats_handle = tx.clone();

    let h1 = thread::spawn(move || {
        let mut sent = 0u64;
        loop {
            match tx.send(sent) {
                Ok(()) => sent += 1,
                Err(_) => return sent,
            }
        }
    });
    let h2 = thread::spawn(move || {
        let mut sent = 0u64;
        loop {
            match tx2.send(1_000_000 + sent) {
                Ok(()) => sent += 1,
                Err(_) => return sent,
            }
        }
    });

    // Let the ring fill, then kill the consumer.
    thread::sleep(std::time::Duration::from_millis(20));
    drop(rx);

    let s1 = h1.join().unwrap();
    let s2 = h2.join().unwrap();
    let st = stats_handle.stats();
    assert_eq!(st.enqueued, s1 + s2, "accepted pushes must equal producer-side successes");
    assert!(st.dequeued <= st.enqueued);
}

/// SPSC pipeline chain (the dispatcher→worker shape): events flow through
/// two rings in series across three threads; end-to-end order and totals
/// hold.
#[test]
fn spsc_two_stage_pipeline() {
    const N: u64 = 100_000;
    let (mut tx_a, mut rx_a) = spsc::<u64>(32);
    let (mut tx_b, mut rx_b) = spsc::<u64>(32);

    let stage1 = thread::spawn(move || {
        for i in 0..N {
            tx_a.send(i).unwrap();
        }
    });
    let stage2 = thread::spawn(move || loop {
        match rx_a.try_recv() {
            RingRecv::Item(v) => tx_b.send(v * 2).unwrap(),
            RingRecv::Empty => thread::yield_now(),
            RingRecv::Disconnected => break,
        }
    });

    let mut expected = 0u64;
    loop {
        match rx_b.try_recv() {
            RingRecv::Item(v) => {
                assert_eq!(v, expected * 2);
                expected += 1;
            }
            RingRecv::Empty => thread::yield_now(),
            RingRecv::Disconnected => break,
        }
    }
    assert_eq!(expected, N);
    stage1.join().unwrap();
    stage2.join().unwrap();
}
