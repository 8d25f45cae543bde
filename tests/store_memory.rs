//! Restore streams the journal: opening a store keeps the file's bytes
//! and a small per-record index, not a decoded copy of every record, and
//! replay decodes each delta into one reused buffer.
//!
//! This binary installs its own counting allocator, which tracks live
//! heap bytes and their peak, and holds exactly one test, so no other
//! test's allocations share the count.

#![allow(unsafe_code)]

use pint::core::{Digest, DigestReport};
use pint::wire::store::{StoreKind, StoreRecord, Superblock};
use pint::wire::DigestBatch;
use pint::{Replayer, StoreOptions, StoreReader, StoreWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// System allocator that counts live bytes and remembers their peak.
struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers entirely to `System` for memory; bookkeeping touches
// only two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the peak live bytes it reached
/// above the live bytes at entry.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let entry = LIVE.load(Ordering::Relaxed);
    PEAK.store(entry, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - entry)
}

const BATCHES: u64 = 200;
const REPORTS_PER_BATCH: u64 = 256;

#[test]
fn reader_holds_the_file_not_a_decoded_copy_and_replay_reuses_one_buffer() {
    let mut path = std::env::temp_dir();
    path.push(format!("pint-store-memory-{}", std::process::id()));
    let mut writer = StoreWriter::create(
        &path,
        Superblock::new(StoreKind::Collector, 1, 0),
        StoreOptions::default(),
    )
    .unwrap();
    for seq in 1..=BATCHES {
        let reports = (0..REPORTS_PER_BATCH)
            .map(|i| {
                let mut d = Digest::new(1);
                d.set(0, seq.wrapping_mul(0x9E37_79B9) ^ i);
                DigestReport::new(i % 5_000, seq * 1_000 + i, d, 5, seq * 10_000 + i)
            })
            .collect();
        let batch = DigestBatch {
            source: seq % 4,
            seq: seq.div_ceil(4),
            reports,
            trace: None,
        };
        writer
            .append(&StoreRecord::Delta { epoch: 0, batch })
            .unwrap();
    }
    drop(writer);
    let file_len = std::fs::metadata(&path).unwrap().len() as usize;
    let digests = BATCHES * REPORTS_PER_BATCH;
    assert!(digests >= 50_000);

    let (reader, open_peak) = peak_above_entry(|| StoreReader::open(&path).unwrap());
    assert!(reader.tail().is_clean());
    assert!(
        open_peak * 2 < file_len * 3,
        "opening a {file_len}-byte store peaked {open_peak} bytes above entry (limit 1.5×)"
    );

    let mut delivered = 0u64;
    let (stats, replay_peak) = peak_above_entry(|| {
        Replayer::new(&reader).replay(&mut |_, reports| delivered += reports.len() as u64)
    });
    assert_eq!(stats.digests, digests);
    assert_eq!(delivered, digests);
    assert!(
        replay_peak <= 1 << 20,
        "replay peaked {replay_peak} bytes above the reader (limit 1 MiB)"
    );
    drop(reader);
    std::fs::remove_file(&path).unwrap();
}
