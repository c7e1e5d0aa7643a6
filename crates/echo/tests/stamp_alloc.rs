//! Decoding a data frame fills the event's stamp in place: the `Arc<Event>`
//! is the one allocation a decoded event costs.
//!
//! A counting global allocator counts the allocations made on the thread
//! that armed it, so tests running in parallel do not disturb each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use mirror_core::event::{Event, PositionFix};
use mirror_echo::wire::{decode_frame, encode_frame, Frame};

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

#[test]
fn decoding_a_data_frame_allocates_only_its_event() {
    const EVENTS: u64 = 1_000;
    let fix = PositionFix { lat: 1.0, lon: 2.0, alt_ft: 3.0, speed_kts: 4.0, heading_deg: 5.0 };
    let encoded: Vec<Bytes> = (1..=EVENTS)
        .map(|seq| {
            let mut e = Event::faa_position(seq, (seq % 64) as u32, fix);
            e.stamp.advance(0, seq);
            e.stamp.advance(1, seq / 2);
            e.padding = 64;
            encode_frame(&Frame::Data(Arc::new(e)))
        })
        .collect();
    // Handles cloned up front, so no buffer bookkeeping lands in the count.
    let inputs = encoded.clone();
    let mut decoded = Vec::with_capacity(EVENTS as usize);

    ALLOCS.set(0);
    ARMED.set(true);
    for buf in inputs {
        decoded.push(decode_frame(buf));
    }
    ARMED.set(false);
    let n = ALLOCS.get();

    assert_eq!(n, EVENTS, "one allocation (the Arc<Event>) per decoded event");
    for (seq, frame) in (1..=EVENTS).zip(decoded) {
        let Ok(Frame::Data(e)) = frame else { panic!("event {seq} decodes as data") };
        assert_eq!(e.stamp.components(), &[seq, seq / 2]);
    }
}
