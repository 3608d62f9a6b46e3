//! Counting allocator for the driver binary. The traced run reads it
//! around in-process rungs (`host.allocs_per_tweet`); the system under
//! test in the end-to-end runs is the child process, which does not
//! install it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Delegates to [`System`] and counts `alloc` + `realloc` calls.
pub struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counter is a relaxed atomic
// that allocates nothing, so the GlobalAlloc contract is System's.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations since process start; stays 0 where the allocator is not
/// installed.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
