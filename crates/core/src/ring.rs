//! Bounded lock-free rings for the hot apply path.
//!
//! The mutex-guarded [`queue`](crate::queue) structures are the *logical*
//! ready/backup queues of the paper's auxiliary unit; when the runtime
//! moves millions of events per second between threads, the per-event cost
//! of a mutex acquisition (and of an unbounded channel's allocation) is
//! what caps throughput. This module provides the two transfer shapes the
//! sharded apply path needs, both **bounded** (backpressure instead of
//! unbounded memory) and **lock-free** on the fast path:
//!
//! * [`spsc`] — a Lamport single-producer/single-consumer ring: one atomic
//!   load + one atomic store per side per operation, plus the waiter's
//!   fence and load (see [Waiting](#waiting)). Used to feed each
//!   apply worker from its site's aux thread (shard affinity makes every
//!   aux→worker edge single-producer/single-consumer by
//!   construction).
//! * [`mpsc`] — a Vyukov-style bounded multi-producer/single-consumer
//!   ring (per-slot sequence numbers, one CAS per push). Used where
//!   several threads feed one drain loop (e.g. an edge server's delivery
//!   workers).
//!
//! Both rings keep **exact** occupancy statistics ([`RingStats`]) for
//! free: the ring positions themselves are the operation counts (`tail` =
//! items ever pushed, `head` = items ever popped), so the stats cost no
//! extra atomics on the hot path; only the high-watermark needs a
//! producer-side observation per push. It never exceeds capacity: the
//! SPSC producer computes occupancy against a cached head that can only
//! lag the real one, and an MPSC producer reads the head after acquiring
//! its slot's free marker, which the consumer publishes after the head —
//! and before publishing its own fill marker, so the head cannot yet have
//! passed it.
//!
//! Who owns a slot is decided by exactly one signal per flavour. SPSC:
//! `tail` (Release by the producer after the write, Acquire by the
//! consumer) hands a slot over and `head` (Release by the consumer after
//! the read, Acquire by the producer) hands it back; the per-slot sequence
//! is not part of that protocol. MPSC: the per-slot sequence alone gates
//! both sides, because `tail` there is a claim, not a publication.
//!
//! Disconnect semantics mirror a channel's: when every producer handle is
//! dropped the consumer drains what remains and then observes
//! [`RingRecv::Disconnected`]; when the consumer is dropped, whatever it
//! left buffered is dropped with it and pushes fail with
//! [`RingSend::Disconnected`] so producers never wait on a dead drain.
//!
//! ## Waiting
//!
//! `try_send`/`try_recv` never block. `send` (ring full) and `recv` (ring
//! empty) wait under the module's one policy — spin, then yield, then
//! **park** — so an idle consumer costs no CPU and needs no caller-side
//! polling loop. Each ring has two waiters (eventcounts): the consumer
//! parks on `not_empty`, producers park on `not_full`. Wake-ups happen on
//! edges only: a push wakes the consumer only if it announced a park, a
//! pop does the same for producers, and the check costs the busy side one
//! fence and one load. Dropping the last producer wakes the consumer (it
//! then sees the disconnect); dropping the consumer wakes every parked
//! producer (each gets its item back).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Occupancy statistics for a ring; the lock-free analogue of
/// [`QueueStats`](crate::queue::QueueStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RingStats {
    /// Total items ever enqueued.
    pub enqueued: u64,
    /// Total items ever dequeued.
    pub dequeued: u64,
    /// Largest occupancy observed by the producer side at a push.
    pub high_watermark: usize,
}

/// Reads a ring's [`RingStats`] from any thread without being an end of
/// the ring — say, the owner of a site whose thread holds the producer.
/// Keeps the ring's buffer alive.
#[derive(Clone)]
pub struct RingProbe(Arc<dyn StatsSource>);

impl RingProbe {
    /// Exact statistics so far.
    pub fn stats(&self) -> RingStats {
        self.0.stats()
    }
}

/// A ring's statistics, with its item type erased.
trait StatsSource: Send + Sync {
    fn stats(&self) -> RingStats;
}

impl<T: Send> StatsSource for Shared<T> {
    fn stats(&self) -> RingStats {
        Shared::stats(self)
    }
}

/// Why a push did not take the item.
#[derive(Debug, PartialEq, Eq)]
pub enum RingSend<T> {
    /// The ring is at capacity; the item is handed back (backpressure).
    Full(T),
    /// The consumer is gone; the item is handed back.
    Disconnected(T),
}

/// What a pop observed.
#[derive(Debug, PartialEq, Eq)]
pub enum RingRecv<T> {
    /// An item.
    Item(T),
    /// Nothing buffered right now (producers still connected).
    Empty,
    /// Nothing buffered and every producer handle has been dropped.
    Disconnected,
}

/// State shared by both sides of either ring flavour.
struct Shared<T> {
    /// Slot storage; `mask + 1` entries, capacity rounded up to a power of
    /// two so index arithmetic is a mask, not a modulo.
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// Next slot to write (producer side) / read (consumer side).
    tail: CachePadded<AtomicUsize>,
    head: CachePadded<AtomicUsize>,
    /// Live producer handles; 0 with an empty ring = disconnected.
    producers: AtomicUsize,
    /// Consumer handle dropped.
    consumer_gone: AtomicBool,
    /// Largest occupancy any producer observed at a push. `tail`/`head`
    /// double as the exact enqueue/dequeue counts, so this is the only
    /// dedicated stats cell.
    watermark: AtomicUsize,
    /// Where the consumer parks while the ring is empty.
    not_empty: Waiter,
    /// Where producers park while the ring is full.
    not_full: Waiter,
}

struct Slot<T> {
    /// Vyukov sequence number: `index` when free for the producer lap,
    /// `index + 1` when filled for the consumer, and so on per lap. Only
    /// the MPSC protocol reads or writes it: with one producer and one
    /// consumer, `head` and `tail` alone say who owns a slot.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// Pad to a cache line so head and tail never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

// SAFETY: slots are transferred between threads with acquire/release on
// the per-slot sequence (mpsc) or head/tail (spsc); a slot's value is only
// touched by the side that owns it per those orderings. Every other field
// is an atomic or a waiter (a mutex and condvar), shareable on its own.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Shared {
            slots,
            mask: cap - 1,
            tail: CachePadded(AtomicUsize::new(0)),
            head: CachePadded(AtomicUsize::new(0)),
            producers: AtomicUsize::new(1),
            consumer_gone: AtomicBool::new(false),
            watermark: AtomicUsize::new(0),
            not_empty: Waiter::default(),
            not_full: Waiter::default(),
        }
    }

    fn stats(&self) -> RingStats {
        // `tail` advances once per completed (or, for MPSC, claimed) push
        // and `head` once per pop, so the positions ARE the op counts.
        RingStats {
            enqueued: self.tail.0.load(Ordering::Acquire) as u64,
            dequeued: self.head.0.load(Ordering::Acquire) as u64,
            high_watermark: self.watermark.load(Ordering::Acquire),
        }
    }

    fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire);
        let head = self.head.0.load(Ordering::Acquire);
        tail.wrapping_sub(head)
    }

    fn drain_in_place(&mut self) {
        // Exclusive access (last Arc owner): drop any items never popped.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            // SAFETY: every position in `head..tail` holds a value nobody
            // popped. SPSC publishes `tail` only after the write. An MPSC
            // producer claims `tail` first and writes second, but both
            // happen inside one `try_send` on a live handle, and `&mut
            // self` here means every handle is gone.
            unsafe { (*self.slots[i & self.mask].value.get()).assume_init_drop() };
        }
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        self.drain_in_place();
    }
}

// ---------------------------------------------------------------------
// Waiting
// ---------------------------------------------------------------------

/// The wait policy's rungs, counted in failed attempts: spin below
/// `SPIN_ROUNDS`, yield below `YIELD_ROUNDS`, park from then on. A blocked
/// side's peer is usually runnable, and on an oversubscribed host (a
/// single-core CI runner) a yield hands it the CPU directly; a park costs
/// both sides a futex round trip, so it is the last rung.
const SPIN_ROUNDS: u32 = 64;
const YIELD_ROUNDS: u32 = 192;

/// Where one side of a ring parks while the other side has nothing for
/// it: an eventcount. [`notify`](Self::notify) costs the busy side one
/// fence and one load; the mutex and condvar are touched only once
/// somebody has announced a park.
#[derive(Default)]
struct Waiter {
    /// Threads announced as parking. Changed only under `epoch`'s lock,
    /// read lock-free by `notify`.
    sleepers: AtomicUsize,
    /// Bumped by each notify that wakes sleepers (it takes their
    /// announcements back), so a woken thread can tell that notify from a
    /// spurious wakeup.
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl Waiter {
    fn lock(&self) -> MutexGuard<'_, u64> {
        // The epoch is a plain counter: every update leaves it valid.
        self.epoch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake every parked thread, if there is any. Call after publishing
    /// the change the parked side waits for.
    fn notify(&self) {
        // Pairs with the fence in `wait`'s park: either this load sees the
        // sleeper's announcement, or the sleeper's `ready` check sees what
        // the caller published before calling us.
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::Relaxed) != 0 {
            self.notify_slow();
        }
    }

    #[cold]
    fn notify_slow(&self) {
        let mut epoch = self.lock();
        if self.sleepers.swap(0, Ordering::Relaxed) != 0 {
            *epoch = epoch.wrapping_add(1);
            self.cv.notify_all();
        }
    }

    /// The ring's one wait policy, one step of it: spin, then yield, then
    /// park until `ready` holds or a notify arrives. `round` counts the
    /// caller's failed attempts since it last made progress. May return
    /// spuriously; callers retry their operation and call again.
    fn wait(&self, round: &mut u32, ready: impl FnOnce() -> bool) {
        *round = round.saturating_add(1);
        if *round < SPIN_ROUNDS {
            return std::hint::spin_loop();
        }
        if *round < YIELD_ROUNDS {
            return std::thread::yield_now();
        }
        let mut epoch = self.lock();
        self.sleepers.fetch_add(1, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let seen = *epoch;
        if !ready() {
            epoch = self.cv.wait(epoch).unwrap_or_else(PoisonError::into_inner);
        }
        if *epoch == seen {
            // Not woken by a notify (ready already, or a spurious wakeup):
            // nobody took the announcement back, so take it back here.
            self.sleepers.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------
// SPSC
// ---------------------------------------------------------------------

/// Single-producer, single-consumer bounded ring.
///
/// The producer half. Not `Clone` — the single-producer contract is
/// enforced by ownership.
pub struct SpscSender<T> {
    shared: Arc<Shared<T>>,
    /// Producer-local cache of the consumer's head, refreshed only when
    /// the ring looks full — most pushes touch no shared cache line but
    /// the slot and tail.
    cached_head: usize,
    /// Producer-local tail (the authoritative tail is published after each
    /// push; reads of our own position need no atomic round-trip).
    local_tail: usize,
    /// Producer-local high-watermark mirror: the shared cell is only
    /// stored when a push sets a new high, so the common push touches no
    /// stats atomics at all.
    local_watermark: usize,
}

/// The consumer half of an [`spsc`] ring.
pub struct SpscReceiver<T> {
    shared: Arc<Shared<T>>,
    local_head: usize,
    cached_tail: usize,
}

/// Create a bounded SPSC ring. `capacity` is rounded up to a power of two
/// (minimum 2).
pub fn spsc<T: Send>(capacity: usize) -> (SpscSender<T>, SpscReceiver<T>) {
    let shared = Arc::new(Shared::new(capacity));
    (
        SpscSender {
            shared: Arc::clone(&shared),
            cached_head: 0,
            local_tail: 0,
            local_watermark: 0,
        },
        SpscReceiver { shared, local_head: 0, cached_tail: 0 },
    )
}

impl<T: Send> SpscSender<T> {
    /// Push without blocking; on a full ring the item comes back
    /// ([`RingSend::Full`] — bounded-capacity backpressure).
    pub fn try_send(&mut self, value: T) -> Result<(), RingSend<T>> {
        if self.shared.consumer_gone.load(Ordering::Acquire) {
            return Err(RingSend::Disconnected(value));
        }
        let cap = self.shared.mask + 1;
        if self.local_tail.wrapping_sub(self.cached_head) == cap {
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
            if self.local_tail.wrapping_sub(self.cached_head) == cap {
                return Err(RingSend::Full(value));
            }
        }
        let slot = &self.shared.slots[self.local_tail & self.shared.mask];
        // SAFETY: this slot last held position `local_tail - cap`, which
        // is below `cached_head` by the full check. `cached_head` came
        // from an Acquire load of `head`, pairing with the Release store
        // the consumer makes in `pop_at` *after* reading the value out, so
        // the consumer is done with the slot and will not look at it
        // again before `tail` moves past it below. Single producer: no
        // other writer exists.
        unsafe { (*slot.value.get()).write(value) };
        self.local_tail = self.local_tail.wrapping_add(1);
        // Publish the value. Release pairs with the consumer's Acquire
        // load of `tail` in `try_recv`: seeing the new tail implies seeing
        // the write above.
        self.shared.tail.0.store(self.local_tail, Ordering::Release);
        // Occupancy as this producer sees it: `cached_head` never runs
        // ahead of the real head, so this is ≥ the true occupancy but —
        // by the full-check above — never exceeds capacity. Single
        // producer ⇒ a plain store publishes a new high.
        let occupancy = self.local_tail.wrapping_sub(self.cached_head);
        if occupancy > self.local_watermark {
            self.local_watermark = occupancy;
            self.shared.watermark.store(occupancy, Ordering::Relaxed);
        }
        self.shared.not_empty.notify();
        Ok(())
    }

    /// Push, waiting while the ring is full (spin, yield, then park until
    /// a pop). Returns the item only if the consumer disappears.
    pub fn send(&mut self, mut value: T) -> Result<(), T> {
        let mut round = 0;
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(RingSend::Disconnected(v)) => return Err(v),
                Err(RingSend::Full(v)) => value = v,
            }
            let (shared, tail) = (&self.shared, self.local_tail);
            shared.not_full.wait(&mut round, || {
                shared.consumer_gone.load(Ordering::Acquire)
                    || tail.wrapping_sub(shared.head.0.load(Ordering::Acquire)) <= shared.mask
            });
        }
    }

    /// Exact statistics so far.
    pub fn stats(&self) -> RingStats {
        self.shared.stats()
    }

    /// Current occupancy (exact for the producer's own view).
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots in the ring (the rounded-up capacity).
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// A [`RingProbe`] on this ring's statistics.
    pub fn probe(&self) -> RingProbe
    where
        T: 'static,
    {
        RingProbe(Arc::clone(&self.shared) as Arc<dyn StatsSource>)
    }
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        self.shared.producers.fetch_sub(1, Ordering::AcqRel);
        self.shared.not_empty.notify();
    }
}

impl<T> SpscReceiver<T> {
    /// Pop, waiting while the ring is empty (spin, yield, then park until
    /// a push). `None` once the ring is drained and the producer is gone.
    pub fn recv(&mut self) -> Option<T> {
        let mut round = 0;
        loop {
            match self.try_recv() {
                RingRecv::Item(v) => return Some(v),
                RingRecv::Disconnected => return None,
                RingRecv::Empty => {}
            }
            let (shared, head) = (&self.shared, self.local_head);
            shared.not_empty.wait(&mut round, || {
                shared.tail.0.load(Ordering::Acquire) != head
                    || shared.producers.load(Ordering::Acquire) == 0
            });
        }
    }

    /// Pop without blocking.
    pub fn try_recv(&mut self) -> RingRecv<T> {
        if self.local_head == self.cached_tail {
            self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
            if self.local_head == self.cached_tail {
                return if self.shared.producers.load(Ordering::Acquire) == 0 {
                    // Re-check after observing the producer count: a push
                    // completed before the producer dropped must be seen.
                    self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
                    if self.local_head == self.cached_tail {
                        RingRecv::Disconnected
                    } else {
                        self.pop_at()
                    }
                } else {
                    RingRecv::Empty
                };
            }
        }
        self.pop_at()
    }

    /// Pop the slot at `local_head`; the caller has seen `cached_tail`
    /// past it.
    fn pop_at(&mut self) -> RingRecv<T> {
        let slot = &self.shared.slots[self.local_head & self.shared.mask];
        // SAFETY: `cached_tail` came from an Acquire load of `tail`,
        // pairing with the Release store the producer makes in `try_send`
        // *after* writing this slot, so the value is initialised and
        // visible. The producer cannot reuse the slot until it sees the
        // head store below. Single consumer: nobody else reads it.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        self.local_head = self.local_head.wrapping_add(1);
        // Hand the slot back. Release pairs with the producer's Acquire
        // load of `head` in its full check: seeing the new head implies
        // the read above is over. This store is the *only* thing that
        // frees an SPSC slot — a second, later "free" signal is how a
        // refilled slot once got lost.
        self.shared.head.0.store(self.local_head, Ordering::Release);
        self.shared.not_full.notify();
        RingRecv::Item(value)
    }

    /// Exact statistics so far.
    pub fn stats(&self) -> RingStats {
        self.shared.stats()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for SpscReceiver<T> {
    fn drop(&mut self) {
        self.shared.consumer_gone.store(true, Ordering::Release);
        // Drop the backlog now, not with the last handle: an item may own
        // a reply handle somebody waits on. Each pop wakes the producer.
        while let RingRecv::Item(_) = self.try_recv() {}
        self.shared.not_full.notify();
    }
}

// ---------------------------------------------------------------------
// MPSC
// ---------------------------------------------------------------------

/// A producer handle for an [`mpsc`] ring; clone freely across threads.
pub struct MpscSender<T> {
    shared: Arc<Shared<T>>,
}

/// The consumer half of an [`mpsc`] ring.
pub struct MpscReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create a bounded MPSC ring. `capacity` is rounded up to a power of two
/// (minimum 2).
pub fn mpsc<T: Send>(capacity: usize) -> (MpscSender<T>, MpscReceiver<T>) {
    let shared = Arc::new(Shared::new(capacity));
    (MpscSender { shared: Arc::clone(&shared) }, MpscReceiver { shared })
}

impl<T: Send> MpscSender<T> {
    /// Push without blocking; on a full ring the item comes back.
    pub fn try_send(&self, value: T) -> Result<(), RingSend<T>> {
        if self.shared.consumer_gone.load(Ordering::Acquire) {
            return Err(RingSend::Disconnected(value));
        }
        let mask = self.shared.mask;
        let mut tail = self.shared.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.shared.slots[tail & mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == tail {
                // Slot free for this lap: claim it by advancing tail.
                match self.shared.tail.0.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        unsafe { (*slot.value.get()).write(value) };
                        // Occupancy at this push, read while the slot is
                        // still ours: until the fill marker below is out
                        // the consumer cannot pass this position, so
                        // `head <= tail` and the difference cannot wrap
                        // (the Release store keeps this load ahead of
                        // it). It is also within capacity: the claim
                        // acquired the slot's free marker (Acquire on
                        // `seq`), which the consumer publishes (Release)
                        // *after* its head advance. The RMW runs only on
                        // a new high.
                        let occupancy = tail
                            .wrapping_add(1)
                            .wrapping_sub(self.shared.head.0.load(Ordering::Relaxed));
                        slot.seq.store(tail.wrapping_add(1), Ordering::Release);
                        if occupancy > self.shared.watermark.load(Ordering::Relaxed) {
                            self.shared.watermark.fetch_max(occupancy, Ordering::AcqRel);
                        }
                        self.shared.not_empty.notify();
                        return Ok(());
                    }
                    Err(t) => tail = t,
                }
            } else if (seq as isize).wrapping_sub(tail as isize) < 0 {
                // A full lap behind: ring is full.
                return Err(RingSend::Full(value));
            } else {
                // Another producer claimed this slot; follow the tail.
                tail = self.shared.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Push, waiting while the ring is full (spin, yield, then park until
    /// a pop); hands the item back only if the consumer disappears.
    pub fn send(&self, mut value: T) -> Result<(), T> {
        let mut round = 0;
        loop {
            match self.try_send(value) {
                Ok(()) => return Ok(()),
                Err(RingSend::Disconnected(v)) => return Err(v),
                Err(RingSend::Full(v)) => value = v,
            }
            let shared = &self.shared;
            shared.not_full.wait(&mut round, || {
                // The slot the next claim would take is free (or the tail
                // moved on past it), under the same test `try_send` uses.
                let tail = shared.tail.0.load(Ordering::Relaxed);
                let seq = shared.slots[tail & shared.mask].seq.load(Ordering::Acquire);
                shared.consumer_gone.load(Ordering::Acquire)
                    || (seq as isize).wrapping_sub(tail as isize) >= 0
            });
        }
    }

    /// Exact statistics so far.
    pub fn stats(&self) -> RingStats {
        self.shared.stats()
    }

    /// Current occupancy (a point-in-time estimate under concurrency).
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Whether the ring appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots in the ring (the rounded-up capacity).
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }
}

impl<T> Clone for MpscSender<T> {
    fn clone(&self) -> Self {
        self.shared.producers.fetch_add(1, Ordering::AcqRel);
        MpscSender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for MpscSender<T> {
    fn drop(&mut self) {
        self.shared.producers.fetch_sub(1, Ordering::AcqRel);
        self.shared.not_empty.notify();
    }
}

impl<T> MpscReceiver<T> {
    /// Pop, waiting while the ring is empty (spin, yield, then park until
    /// a push). `None` once the ring is drained and every producer is gone.
    pub fn recv(&mut self) -> Option<T> {
        let mut round = 0;
        loop {
            match self.try_recv() {
                RingRecv::Item(v) => return Some(v),
                RingRecv::Disconnected => return None,
                RingRecv::Empty => {}
            }
            let shared = &self.shared;
            shared.not_empty.wait(&mut round, || {
                let head = shared.head.0.load(Ordering::Relaxed);
                let seq = shared.slots[head & shared.mask].seq.load(Ordering::Acquire);
                seq == head.wrapping_add(1) || shared.producers.load(Ordering::Acquire) == 0
            });
        }
    }

    /// Pop without blocking.
    pub fn try_recv(&mut self) -> RingRecv<T> {
        let mask = self.shared.mask;
        let head = self.shared.head.0.load(Ordering::Relaxed);
        let slot = &self.shared.slots[head & mask];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == head.wrapping_add(1) {
            let value = unsafe { (*slot.value.get()).assume_init_read() };
            // Advance head BEFORE freeing the slot: producers gate on the
            // free marker alone (Acquire, pairing with the Release store
            // below), so none can refill the slot in between, and one that
            // does acquire it then observes a head that already counts
            // this pop — its occupancy reading never exceeds capacity.
            self.shared.head.0.store(head.wrapping_add(1), Ordering::Release);
            slot.seq.store(head.wrapping_add(mask + 1), Ordering::Release);
            self.shared.not_full.notify();
            return RingRecv::Item(value);
        }
        if self.shared.producers.load(Ordering::Acquire) == 0 {
            // Producers are gone; if a racing push landed before the last
            // drop, its slot marker is already visible — re-check once.
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == head.wrapping_add(1) {
                return self.try_recv();
            }
            return RingRecv::Disconnected;
        }
        RingRecv::Empty
    }

    /// Exact statistics so far.
    pub fn stats(&self) -> RingStats {
        self.shared.stats()
    }

    /// Current occupancy (a point-in-time estimate under concurrency).
    pub fn len(&self) -> usize {
        self.shared.len()
    }

    /// Whether the ring appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for MpscReceiver<T> {
    fn drop(&mut self) {
        self.shared.consumer_gone.store(true, Ordering::Release);
        // As for SPSC: drop the backlog with the consumer, waking parked
        // producers as slots free up, then once more for the disconnect.
        while let RingRecv::Item(_) = self.try_recv() {}
        self.shared.not_full.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn spsc_fifo_and_stats() {
        let (mut tx, mut rx) = spsc::<u64>(8);
        for i in 0..5 {
            tx.try_send(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.try_recv(), RingRecv::Item(i));
        }
        assert_eq!(rx.try_recv(), RingRecv::Empty);
        let st = rx.stats();
        assert_eq!((st.enqueued, st.dequeued, st.high_watermark), (5, 5, 5));
    }

    #[test]
    fn a_probe_reads_the_stats_and_outlives_both_ends() {
        let (mut tx, mut rx) = spsc::<u64>(8);
        let probe = tx.probe();
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(rx.try_recv(), RingRecv::Item(1));
        let st = probe.stats();
        assert_eq!((st.enqueued, st.dequeued, st.high_watermark), (2, 1, 2));
        drop((tx, rx));
        assert_eq!(probe.stats(), RingStats { enqueued: 2, dequeued: 2, high_watermark: 2 });
    }

    #[test]
    fn spsc_full_hands_the_item_back() {
        let (mut tx, mut rx) = spsc::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        match tx.try_send(3) {
            Err(RingSend::Full(v)) => assert_eq!(v, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(rx.try_recv(), RingRecv::Item(1));
        tx.try_send(3).unwrap();
    }

    #[test]
    fn spsc_disconnect_both_ways() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        tx.try_send(7).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), RingRecv::Item(7), "drain before disconnect");
        assert_eq!(rx.try_recv(), RingRecv::Disconnected);

        let (mut tx, rx) = spsc::<u32>(4);
        drop(rx);
        assert!(matches!(tx.try_send(1), Err(RingSend::Disconnected(1))));
    }

    #[test]
    fn mpsc_fifo_per_producer_and_stats() {
        let (tx, mut rx) = mpsc::<u64>(16);
        let tx2 = tx.clone();
        for i in 0..4 {
            tx.try_send(i).unwrap();
            tx2.try_send(100 + i).unwrap();
        }
        let mut got = Vec::new();
        while let RingRecv::Item(v) = rx.try_recv() {
            got.push(v);
        }
        assert_eq!(got.len(), 8);
        // Per-producer order is preserved.
        let a: Vec<_> = got.iter().copied().filter(|v| *v < 100).collect();
        let b: Vec<_> = got.iter().copied().filter(|v| *v >= 100).collect();
        assert_eq!(a, vec![0, 1, 2, 3]);
        assert_eq!(b, vec![100, 101, 102, 103]);
        let st = rx.stats();
        assert_eq!((st.enqueued, st.dequeued), (8, 8));
        assert!(st.high_watermark >= 1 && st.high_watermark <= 16);
    }

    #[test]
    fn mpsc_disconnected_after_all_producers_drop() {
        let (tx, mut rx) = mpsc::<u32>(4);
        let tx2 = tx.clone();
        tx.try_send(1).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), RingRecv::Item(1));
        assert_eq!(rx.try_recv(), RingRecv::Empty, "tx2 still alive");
        drop(tx2);
        assert_eq!(rx.try_recv(), RingRecv::Disconnected);
    }

    #[test]
    fn dropping_a_nonempty_ring_drops_items() {
        // Drop counting: items abandoned in the ring must still be freed.
        #[derive(Debug)]
        struct D(Arc<AtomicU64>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        let (mut tx, rx) = spsc::<D>(8);
        for _ in 0..5 {
            tx.try_send(D(Arc::clone(&drops))).unwrap();
        }
        drop(tx);
        drop(rx);
        assert_eq!(drops.load(Ordering::SeqCst), 5);
    }

    /// Block until a thread is parked on `w` (inside the condvar wait, so
    /// what happens next exercises the wake-up, not the pre-park check).
    /// Announcements change only under the lock, so while we hold it every
    /// counted thread is inside the wait.
    fn until_parked(w: &Waiter) {
        let parked = || {
            let _held = w.lock();
            w.sleepers.load(Ordering::Relaxed)
        };
        let start = std::time::Instant::now();
        while parked() == 0 {
            assert!(start.elapsed() < Duration::from_secs(10), "nobody parked");
            std::thread::yield_now();
        }
    }

    /// Run `f` on its own thread; [`outcome`] collects its result under a
    /// deadline, so a side that is never woken fails the test, not hangs.
    fn within_deadline<R: Send + 'static>(
        f: impl FnOnce() -> R + Send + 'static,
    ) -> (std::sync::mpsc::Receiver<R>, std::thread::JoinHandle<()>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        (rx, h)
    }

    fn outcome<R>((rx, h): (std::sync::mpsc::Receiver<R>, std::thread::JoinHandle<()>)) -> R {
        let r = rx.recv_timeout(Duration::from_secs(10)).expect("parked side was never woken");
        h.join().unwrap();
        r
    }

    #[test]
    fn parked_consumer_is_woken_by_a_push() {
        let (mut tx, mut rx) = spsc::<u32>(4);
        let shared = Arc::clone(&tx.shared);
        let waiting = within_deadline(move || rx.recv());
        until_parked(&shared.not_empty);
        tx.try_send(7).unwrap();
        assert_eq!(outcome(waiting), Some(7));

        let (tx, mut rx) = mpsc::<u32>(4);
        let waiting = within_deadline(move || rx.recv());
        until_parked(&tx.shared.not_empty);
        tx.try_send(8).unwrap();
        assert_eq!(outcome(waiting), Some(8));
    }

    #[test]
    fn parked_consumer_is_woken_by_the_last_producer_drop() {
        let (tx, mut rx) = spsc::<u32>(4);
        let shared = Arc::clone(&tx.shared);
        let waiting = within_deadline(move || rx.recv());
        until_parked(&shared.not_empty);
        drop(tx);
        assert_eq!(outcome(waiting), None, "an empty ring with no producer is disconnected");

        let (tx, mut rx) = mpsc::<u32>(4);
        let shared = Arc::clone(&tx.shared);
        let tx2 = tx.clone();
        let waiting = within_deadline(move || (rx.recv(), rx.try_recv()));
        until_parked(&shared.not_empty);
        drop(tx);
        // One producer is left: the consumer may wake, but must park again.
        until_parked(&shared.not_empty);
        drop(tx2);
        assert_eq!(outcome(waiting), (None, RingRecv::Disconnected));
    }

    #[test]
    fn parked_producer_is_woken_by_a_pop() {
        let (mut tx, mut rx) = spsc::<u32>(2);
        let shared = Arc::clone(&tx.shared);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let waiting = within_deadline(move || tx.send(3));
        until_parked(&shared.not_full);
        assert_eq!(rx.try_recv(), RingRecv::Item(1));
        assert_eq!(outcome(waiting), Ok(()));
        assert_eq!((rx.recv(), rx.recv(), rx.recv()), (Some(2), Some(3), None));

        let (tx, mut rx) = mpsc::<u32>(2);
        let shared = Arc::clone(&tx.shared);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let waiting = within_deadline(move || tx.send(3));
        until_parked(&shared.not_full);
        assert_eq!(rx.try_recv(), RingRecv::Item(1));
        assert_eq!(outcome(waiting), Ok(()));
        assert_eq!((rx.recv(), rx.recv(), rx.recv()), (Some(2), Some(3), None));
    }

    #[test]
    fn parked_producer_gets_its_item_back_when_the_consumer_drops() {
        let (mut tx, rx) = spsc::<u32>(2);
        let shared = Arc::clone(&tx.shared);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let waiting = within_deadline(move || tx.send(3));
        until_parked(&shared.not_full);
        drop(rx);
        assert_eq!(outcome(waiting), Err(3));

        let (tx, rx) = mpsc::<u32>(2);
        let shared = Arc::clone(&tx.shared);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        let waiting = within_deadline(move || tx.send(3));
        until_parked(&shared.not_full);
        drop(rx);
        assert_eq!(outcome(waiting), Err(3));
        assert_eq!(shared.len(), 0, "the consumer's drop drops its backlog");
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = spsc::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = mpsc::<u8>(1);
        assert_eq!(tx.capacity(), 2);
    }
}
