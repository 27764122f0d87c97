//! The metric hit path allocates nothing. Once a series exists, bumping it
//! through `incr`, `incr_with` or `observe_ns_with` is a read lock, a lookup
//! by the caller's borrowed name and labels, and an atomic add. A counting
//! global allocator with per-thread totals checks it.

use obs::Obs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; counting only touches a
// const-initialized thread-local `Cell`, which never allocates. The default
// `alloc_zeroed` and `realloc` go through `alloc`, so they are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BYTES.try_with(|b| b.set(b.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread allocated while running `f`.
fn allocated_by(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

#[test]
fn bumping_existing_series_allocates_nothing() {
    let obs = Obs::in_memory();
    // Warm-up: the first bump of a series creates it.
    obs.incr("wire.sessions", 1);
    obs.incr_with("tool.calls", &[("tool", "select"), ("outcome", "ok")], 1);
    obs.observe_ns_with("tool.latency", &[("tool", "select")], 1_000);

    let bytes = allocated_by(|| {
        for i in 0..10_000u64 {
            obs.incr("wire.sessions", 1);
            obs.incr_with("tool.calls", &[("tool", "select"), ("outcome", "ok")], 1);
            // The same series named in the other label order.
            obs.incr_with("tool.calls", &[("outcome", "ok"), ("tool", "select")], 1);
            obs.observe_ns_with("tool.latency", &[("tool", "select")], 1_000 + i);
        }
    });
    assert_eq!(bytes, 0, "the hit path allocated {bytes} bytes");

    let m = obs.snapshot().metrics;
    assert_eq!(m.counter("wire.sessions"), 10_001);
    assert_eq!(m.counter("tool.calls"), 20_001);
    let latency = m.histogram("tool.latency", &[("tool", "select")]);
    assert_eq!(latency.map(|h| h.count), Some(10_001));

    // A new series is the one bump that allocates.
    let created = allocated_by(|| {
        obs.incr_with("tool.calls", &[("tool", "insert"), ("outcome", "ok")], 1);
    });
    assert!(created > 0);
}
