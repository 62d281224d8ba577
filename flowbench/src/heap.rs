//! Live-heap high-water mark of one flow.
//!
//! The process's `VmHWM` is the largest flow of a run and depends on
//! what the allocator keeps mapped; counting live bytes at the global
//! allocator gives each flow its own peak, the same on every repeat.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicUsize, Ordering};

// Relaxed: both are statistics and publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Wraps the global allocator `A`, counting live bytes and their peak.
pub struct PeakHeap<A>(pub A);

impl<A> PeakHeap<A> {
    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method delegates directly to the inner allocator with
// the caller's arguments; the counters are side effects on atomics.
unsafe impl<A: GlobalAlloc> GlobalAlloc for PeakHeap<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { self.0.alloc(layout) };
        if !ptr.is_null() {
            Self::grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { self.0.dealloc(ptr, layout) };
        Self::shrink(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { self.0.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Self::grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { self.0.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            Self::grow(new_size);
            Self::shrink(layout.size());
        }
        new
    }
}

/// Starts a new peak window at the current live heap; returns it, bytes.
pub fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// The highest live heap since the last [`reset_peak`], bytes.
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}
