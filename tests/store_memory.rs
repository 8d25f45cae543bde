//! Memory follows the data. Opening a store keeps the open file and a
//! small per-record index, and reads the file through one bounded
//! window, so its peak is a constant however long the journal; replay
//! reads deltas back through the same window and decodes each into one
//! reused buffer. An idle collector allocates its event queue only as
//! events fire.
//!
//! This binary installs its own counting allocator, which tracks live
//! heap bytes and their peak. Its tests take one lock for their whole
//! run, so no other test's allocations share the count.

#![allow(unsafe_code)]

use pint::collector::RecorderFactory;
use pint::core::{Digest, DigestReport};
use pint::wire::store::{StoreKind, StoreRecord, Superblock};
use pint::wire::DigestBatch;
use pint::{Collector, CollectorConfig, Replayer, StoreOptions, StoreReader, StoreWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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

/// Held by each test for its whole run: the count is process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `f` and returns its result with the peak live bytes it reached
/// above the live bytes at entry.
fn peak_above_entry<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let entry = LIVE.load(Ordering::Relaxed);
    PEAK.store(entry, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - entry)
}

/// The store's read window.
const WINDOW: usize = 512 << 10;
const BATCHES: u64 = 800;
const REPORTS_PER_BATCH: u64 = 256;

#[test]
fn reader_holds_the_file_not_a_decoded_copy_and_replay_reuses_one_buffer() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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
    assert!(file_len >= 4 * WINDOW, "{file_len}-byte journal");

    // The window, plus the index: one 48-byte entry per record, with
    // room for the `Vec` doubling past the last one.
    let (reader, open_peak) = peak_above_entry(|| StoreReader::open(&path).unwrap());
    let open_limit = WINDOW + (128 << 10);
    assert!(reader.tail().is_clean());
    assert!(
        open_peak < open_limit,
        "opening a {file_len}-byte store peaked {open_peak} bytes above entry (limit {open_limit})"
    );

    let mut delivered = 0u64;
    let (stats, replay_peak) = peak_above_entry(|| {
        Replayer::new(&reader).replay(&mut |_, reports| delivered += reports.len() as u64)
    });
    assert_eq!(stats.unwrap().digests, digests);
    assert_eq!(delivered, digests);
    assert!(
        replay_peak <= 1 << 20,
        "replay peaked {replay_peak} bytes above the reader (limit 1 MiB)"
    );
    drop(reader);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn an_idle_collector_holds_no_event_queue() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let factory: RecorderFactory = Arc::new(|_, _| unreachable!("no digest arrives"));
    let (collector, spawn_peak) =
        peak_above_entry(|| Collector::spawn(CollectorConfig::default(), factory));
    assert!(
        spawn_peak < 256 << 10,
        "spawning a collector with no rules peaked {spawn_peak} bytes above entry (limit 256 KiB)"
    );
    assert!(collector.drain_events().is_empty());
    collector.shutdown();
}
