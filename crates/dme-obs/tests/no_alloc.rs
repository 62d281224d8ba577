//! Verifies the disabled-tracing cost contract: with tracing off, a
//! span is a branch plus an inert guard — **zero heap allocations** —
//! and the [`dme_obs::TrackingAllocator`] hook is branch-only (one
//! relaxed load, no tally movement).
//!
//! Lives in its own integration binary so the counting allocator does
//! not interfere with other tests. The global allocator here is the same
//! wrapper `dmeopt` installs, stacked on a raw allocation counter, so
//! the zero-alloc assertion also covers the profiling hook itself.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. The harness runs the tests on
    /// parallel threads; a process-wide count would charge one test's
    /// allocations to another's measured window.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// This thread's allocation count so far.
fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: delegates directly to the system allocator; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the slot may already be gone while a thread exits.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: dme_obs::TrackingAllocator<CountingAlloc> =
    dme_obs::TrackingAllocator(CountingAlloc);

#[test]
fn disabled_tracing_does_not_allocate() {
    // Under DME_TRACE=1 (e.g. the CI trace job) tracing is genuinely
    // on, so the contract under test does not apply — skip. The same
    // goes for an armed live stream.
    if std::env::var("DME_TRACE").is_ok()
        || std::env::var("DME_TRACE_JSON").is_ok()
        || std::env::var("DME_STREAM").is_ok()
        || std::env::var("DME_SNAPSHOT_MS").is_ok()
    {
        eprintln!("skipping: DME_TRACE/DME_STREAM set, tracing is enabled");
        return;
    }

    // Warm the lazy env-init and the test harness's own buffers.
    assert!(!dme_obs::enabled());
    assert!(!dme_obs::stream_armed());

    let before = thread_allocs();
    for i in 0..1000u64 {
        let _s = dme_obs::span("hot");
        let _t = dme_obs::span("nested");
        dme_obs::counter_add("hot/counter", 1);
        dme_obs::histogram_record("hot/hist", i);
        dme_obs::record("hot/rec", &[("i", i as f64)]);
        // Profiling hooks on the disabled path: depth probe, the
        // thread tally read and the stream-armed probe are alloc-free
        // too.
        assert_eq!(dme_obs::depth(), 0);
        std::hint::black_box(dme_obs::thread_alloc_totals());
        assert!(!std::hint::black_box(dme_obs::stream_armed()));
    }
    let after = thread_allocs();
    assert_eq!(after - before, 0, "disabled tracing must not heap-allocate");
}

#[test]
fn disabled_tracking_leaves_tallies_untouched() {
    if std::env::var("DME_TRACE").is_ok() || std::env::var("DME_TRACE_JSON").is_ok() {
        eprintln!("skipping: DME_TRACE set, tracing is enabled");
        return;
    }
    assert!(!dme_obs::enabled());
    assert!(!dme_obs::alloc_tracking());
    assert!(!dme_obs::allocator_installed());

    let (b0, c0) = dme_obs::thread_alloc_totals();
    // Real allocator traffic through the installed wrapper...
    for i in 0..64usize {
        std::hint::black_box(vec![0u8; 128 + i]);
    }
    // ...moves the raw counter but not the tracking tallies.
    let (b1, c1) = dme_obs::thread_alloc_totals();
    assert_eq!((b1, c1), (b0, c0), "tracking-off hook must not count");
}
