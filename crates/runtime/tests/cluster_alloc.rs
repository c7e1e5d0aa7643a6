//! A whole in-process 1 + 2 cluster makes about one allocation per
//! event: the `Arc` the central wraps a submitted event in. The central
//! forwards that `Arc` to both mirrors, and the mirrors apply it, without
//! allocating per event again; what remains is per run or per inbox block.
//!
//! A process-wide counting allocator counts every thread's allocations,
//! so this file holds this one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use mirror_core::event::{Event, PositionFix};
use mirror_runtime::{Cluster, ClusterConfig};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; counting touches only static atomics, which
// never allocate.
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

const WARM_UP: u64 = 100_000;
const COUNTED: u64 = 200_000;

#[test]
fn a_cluster_allocates_about_once_per_event() {
    let fix = PositionFix { lat: 0.0, lon: 0.0, alt_ft: 1.0, speed_kts: 1.0, heading_deg: 0.0 };
    let mut events: Vec<Event> = (1..=WARM_UP + COUNTED)
        .map(|seq| Event::faa_position(seq, (seq % 64) as u32, fix))
        .collect();
    let counted = events.split_off(WARM_UP as usize);

    let cluster = Cluster::start(ClusterConfig { mirrors: 2, ..Default::default() });
    for e in events {
        cluster.submit(e);
    }
    let timeout = Duration::from_secs(120);
    assert!(cluster.wait_all_processed(WARM_UP, timeout), "the warm-up is applied everywhere");

    ALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    for e in counted {
        cluster.submit(e);
    }
    let done = cluster.wait_all_processed(WARM_UP + COUNTED, timeout);
    ARMED.store(false, Ordering::Relaxed);
    let per_event = ALLOCS.load(Ordering::Relaxed) as f64 / COUNTED as f64;
    cluster.shutdown();

    assert!(done, "every counted event is applied everywhere");
    println!("allocations per event over a 1 + 2 cluster: {per_event:.3}");
    // One for the event's `Arc`; nothing else is per event.
    assert!(per_event < 1.5, "{per_event:.3} allocations per event");
}
