//! Counting global allocator for the `measure-alloc` feature.
//!
//! Wraps the system allocator and keeps a *per-thread* net-bytes cell:
//! allocations add on the allocating thread, frees subtract on the
//! freeing thread. Shard workers both build and evict their recorders
//! on their own thread, so the worker's running net delta across
//! `apply_batch` is the allocator's view of recorder-state growth — the
//! ground truth the flow table's `state_bytes` estimate (and with it
//! byte-cap eviction) is cross-checked against.
//!
//! Feature-gated because a `#[global_allocator]` taxes every allocation
//! in the process; this is a test/diagnostic mode, never a default.

// A global allocator cannot be written without `unsafe`; this is the
// one carve-out besides the SPSC ring.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Shard workers cross-check `state_bytes` above this estimate only.
pub const CROSS_CHECK_FLOOR: i64 = 1 << 20;

thread_local! {
    // i64 + const init: no destructor is registered, so the cell is
    // accessible for the whole thread lifetime (including inside the
    // allocator during thread teardown) and `with` never allocates.
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// System allocator wrapper maintaining the per-thread net-bytes cell.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System` for memory; bookkeeping touches
// only a non-allocating thread-local `Cell<i64>`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            NET_BYTES.with(|c| c.set(c.get() + layout.size() as i64));
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            NET_BYTES.with(|c| c.set(c.get() + layout.size() as i64));
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        NET_BYTES.with(|c| c.set(c.get() - layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            NET_BYTES.with(|c| c.set(c.get() + new_size as i64 - layout.size() as i64));
        }
        p
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Net bytes the calling thread has allocated minus freed since start.
///
/// Negative when a thread frees memory other threads allocated (e.g. a
/// consumer dropping producer-built batches).
pub fn thread_net_bytes() -> i64 {
    NET_BYTES.with(|c| c.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_alloc_and_free_on_this_thread() {
        let before = thread_net_bytes();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let held = thread_net_bytes();
        assert!(held - before >= 4096, "allocation not counted");
        drop(v);
        // Freeing returns the bytes (other incidental allocations may
        // have moved the needle; only the Vec's 4096 are guaranteed).
        assert!(thread_net_bytes() < held);
    }
}
