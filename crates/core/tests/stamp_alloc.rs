//! A stamp is part of its event: stamps of up to `INLINE_WIDTH` components
//! never touch the heap, so the central's stamping, the mirrors' clock
//! merge and the checkpoint frontiers cost no allocation, and an event
//! through the central's aux unit is the one `Arc` it was submitted as.
//!
//! A counting global allocator counts the allocations made on the thread
//! that armed it, so tests running in parallel do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mirror_core::event::streams;
use mirror_core::timestamp::INLINE_WIDTH;
use mirror_core::{
    AuxAction, AuxInput, AuxUnit, Event, FlightStatus, MirrorParams, PositionFix, VectorTimestamp,
};

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if ARMED.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; counting touches only a const-initialised
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's guarantees for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    (out, ALLOCS.get())
}

#[test]
fn narrow_stamps_never_allocate() {
    assert_eq!(INLINE_WIDTH, 2, "both airline streams fit inline");
    let ((), n) = allocations(|| {
        let mut clock = VectorTimestamp::new(1);
        let mut seen = VectorTimestamp::empty();
        for seq in 1..=1_000 {
            clock.advance(streams::FAA as usize, seq);
            clock.advance(streams::DELTA as usize, seq / 2);
            let stamp = clock.clone();
            seen.merge(&stamp);
            let floor = stamp.meet(&seen);
            let top = floor.join(&stamp);
            assert!(floor.dominated_by(&top));
            let collected: VectorTimestamp = stamp.components().iter().copied().collect();
            assert_eq!(collected, stamp);
        }
        assert_eq!(seen.components(), &[1_000, 500]);
    });
    assert_eq!(n, 0, "clone, advance, merge, meet, join and collect of width ≤ 2");

    // A third stream still widens the stamp: it spills to the heap.
    let mut wide = VectorTimestamp::new(2);
    wide.advance(2, 9);
    assert_eq!(wide.components(), &[0, 0, 9]);
    assert_eq!(wide.width(), 3);
}

fn fix() -> PositionFix {
    PositionFix { lat: 33.6, lon: -84.4, alt_ft: 30_000.0, speed_kts: 450.0, heading_deg: 90.0 }
}

/// `n` events over 64 flights from both airline streams, numbered from
/// `first`, each uniquely held so the central stamps it in place.
fn run_of(first: u64, n: u64) -> Vec<Arc<Event>> {
    (first..first + n)
        .map(|seq| {
            let flight = (seq % 64) as u32;
            Arc::new(match seq % 4 {
                0 => Event::delta_status(seq, flight, FlightStatus::EnRoute),
                _ => Event::faa_position(seq, flight, fix()),
            })
        })
        .collect()
}

#[test]
fn a_warmed_central_feeds_a_run_with_fewer_allocations_than_events() {
    const EVENTS: u64 = 1_000;
    let mut aux = AuxUnit::central(vec![1, 2], MirrorParams::default());
    let mut actions = Vec::new();
    // Warm-up: the flights are known to the status table, and the action
    // buffer and the queues have grown to a run's size.
    aux.handle_run(run_of(1, EVENTS).into_iter().map(AuxInput::Data), &mut actions);
    actions.clear();

    let run = run_of(EVENTS + 1, EVENTS);
    let ((), n) = allocations(|| aux.handle_run(run.into_iter().map(AuxInput::Data), &mut actions));
    assert!(n < EVENTS, "{n} allocations for {EVENTS} events");

    let stamped: Vec<&Arc<Event>> = actions
        .iter()
        .filter_map(|a| match a {
            AuxAction::Mirror { event, .. } => Some(event),
            _ => None,
        })
        .collect();
    assert_eq!(stamped.len() as u64, EVENTS);
    let last = stamped.last().expect("mirrored");
    assert_eq!(last.stamp.width(), 2, "both streams stamped");
    assert_eq!(&last.stamp, aux.clock());
}

#[test]
fn an_inline_stamp_keeps_an_event_within_112_bytes() {
    assert!(size_of::<Event>() <= 112, "Event is {} bytes", size_of::<Event>());
}
