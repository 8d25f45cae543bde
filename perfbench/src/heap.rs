//! A counting global allocator: the process's live heap bytes and their
//! peak, behind `peak_heap_mb`.
//!
//! The peak resident set (VmHWM) is no steady measure of the program's
//! memory here: glibc keeps each thread arena's freed memory resident,
//! and the stack spawns threads on every set-up, so RSS read in ~9 MB
//! steps depending on which arenas a run happened to touch. Live heap
//! bytes count what the program asked for, whatever the arenas retain.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// One counter per cache line, so bumping the live count does not
/// invalidate the line the peak check reads.
#[repr(align(64))]
struct Counter(AtomicUsize);

static LIVE: Counter = Counter(AtomicUsize::new(0));
static PEAK: Counter = Counter(AtomicUsize::new(0));

/// The system allocator, counting live bytes.
pub struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.0.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.0.load(Relaxed) {
        PEAK.0.fetch_max(live, Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE.0.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Resets the peak to the bytes live now, and returns them.
pub fn reset_peak() -> usize {
    let live = LIVE.0.load(Relaxed);
    PEAK.0.store(live, Relaxed);
    live
}

/// The most bytes live at once since the last `reset_peak`.
pub fn peak() -> usize {
    PEAK.0.load(Relaxed)
}
