//! A hostile count must not make a decoder reserve more memory than the
//! payload that carries it.
//!
//! Decoders check each element count against the bytes left, but an
//! element can take many times its smallest wire form in memory: a
//! `ScalarMetric` is 40 bytes against 3 on the wire, a histogram ≈560
//! against 68, a trace event 32 against 5. Every poll-core server
//! decodes every inbound `Metrics` and `TraceDump` frame, so a peer
//! that sends a report whose counts lie must not get a reservation
//! sized by the lie. This binary installs its own counting
//! allocator and records the largest single allocation made while one
//! hostile payload decodes. A KLL sketch's level counts are vetted the
//! same way: its one buffer is sized only once every level's items are
//! known to be there. A store file is untrusted the same way: a
//! record header's claimed length must not size a read before the file
//! is known to hold that many bytes.

#![allow(unsafe_code)]

use pint::core::{Digest, DigestReport};
use pint::obs::HISTOGRAM_BUCKETS;
use pint::sketches::KllSketch;
use pint::store::{TailStatus, TornReason};
use pint::wire::store::{StoreKind, Superblock};
use pint::wire::{
    CheckpointRecord, DigestBatch, MetricsMsg, MetricsReport, StoreRecord, TraceMsg, TraceReport,
    WireDecode, WireEncode, WireWriter, MAX_PAYLOAD, MAX_TRACE_EVENTS,
};
use pint::{StoreOptions, StoreReader, StoreWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const init and no destructor: usable inside the allocator for the
    // thread's whole life, and `with` never allocates.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// System allocator that remembers, per thread, the largest single
/// allocation (or reallocation target) since the last reset.
struct LargestAlloc;

fn note(size: usize) {
    LARGEST.with(|c| c.set(c.get().max(size)));
}

// SAFETY: defers entirely to `System` for memory; bookkeeping touches
// only a non-allocating thread-local `Cell<usize>`.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Bytes behind each hostile metrics or checkpoint count.
const BODY: usize = 1 << 20;

fn put_varint(out: &mut Vec<u8>, v: u64) {
    WireWriter::new(out).put_varint(v);
}

/// `prefix`, a count of `count` entries, then the `count *
/// min_entry_bytes` bytes that back it, opening with `first`, an entry
/// that fails: the count passes the bytes-left check and decoding stops
/// at the first entry.
fn lying_count(
    mut prefix: Vec<u8>,
    count: usize,
    min_entry_bytes: usize,
    first: &[u8],
    pad: u8,
) -> Vec<u8> {
    put_varint(&mut prefix, count as u64);
    let end = prefix.len() + count * min_entry_bytes;
    prefix.extend_from_slice(first);
    prefix.resize(end, pad);
    prefix
}

/// A scalar or histogram entry with an empty name and a bad shard flag.
const BAD_METRIC: [u8; 2] = [0x00, 0x07];

/// A `Metrics` report header with an empty snapshot's three zero counts
/// cut off, ready for a hostile snapshot body.
fn report_header() -> Vec<u8> {
    let mut bytes = MetricsReport {
        request_id: 1,
        source: 2,
        snapshot: Default::default(),
    }
    .encode();
    bytes.truncate(bytes.len() - 3);
    bytes
}

/// Decodes `payload` as `T`, which must fail, and checks that no single
/// allocation on this thread meanwhile exceeded the payload's size.
fn assert_reserves_at_most_payload<T: WireDecode>(what: &str, payload: &[u8]) {
    LARGEST.with(|c| c.set(0));
    let decoded = T::decode(payload);
    let largest = LARGEST.with(|c| c.get());
    assert!(decoded.is_err(), "{what}: hostile payload decoded");
    assert!(
        largest <= payload.len(),
        "{what}: one allocation of {largest} bytes for a {}-byte payload",
        payload.len()
    );
}

#[test]
fn hostile_metrics_scalar_count_reserves_no_more_than_its_payload() {
    // Smallest scalar: 1-byte name length, shard flag, value.
    let payload = lying_count(report_header(), BODY / 3, 3, &BAD_METRIC, 0);
    assert_reserves_at_most_payload::<MetricsMsg>("counters", &payload);

    // No counters, then the lying gauge count.
    let mut header = report_header();
    header.push(0);
    let payload = lying_count(header, BODY / 3, 3, &BAD_METRIC, 0);
    assert_reserves_at_most_payload::<MetricsMsg>("gauges", &payload);
}

#[test]
fn hostile_metrics_histogram_count_reserves_no_more_than_its_payload() {
    // No counters, no gauges, then the lying histogram count. Smallest
    // histogram: name length, shard flag, buckets, sum.
    let mut header = report_header();
    header.extend_from_slice(&[0, 0]);
    let min = 2 + HISTOGRAM_BUCKETS + 1;
    let payload = lying_count(header, BODY / min, min, &BAD_METRIC, 0);
    assert_reserves_at_most_payload::<MetricsMsg>("histograms", &payload);
}

#[test]
fn hostile_checkpoint_coverage_counts_reserve_no_more_than_their_payload() {
    // A checkpoint record header: kind, source, epoch, then counts.
    let mut header = StoreRecord::Checkpoint(CheckpointRecord {
        source: 1,
        epoch: 1,
        covered: Vec::new(),
        payload: Vec::new(),
    })
    .encode();
    header.truncate(3);

    // A `covered` count of 3-byte entries whose first entry (source 1,
    // floor 0) claims more `above` seqs than the input holds.
    let mut first = vec![1, 0];
    put_varint(&mut first, u64::MAX >> 1);
    let covered = lying_count(header.clone(), BODY / 3, 3, &first, 0);
    // One covered source (1, floor 0) whose `above` count of 1-byte
    // seqs lies, followed by a seq varint that never ends.
    let mut one = header;
    one.extend_from_slice(&[1, 1, 0]);
    let above = lying_count(one, BODY, 1, &[], 0x80);

    assert_reserves_at_most_payload::<StoreRecord>("covered", &covered);
    assert_reserves_at_most_payload::<StoreRecord>("above", &above);
}

#[test]
fn hostile_trace_event_count_reserves_no_more_than_its_payload() {
    // A `TraceDump` report header with the empty dump's event count and
    // dropped counter cut off.
    let mut header = TraceReport {
        request_id: 1,
        source: 2,
        dump: Default::default(),
    }
    .encode();
    header.truncate(header.len() - 2);
    // The most events a dump may hold, each at its 5-byte minimum; the
    // first has an unknown stage.
    let payload = lying_count(header, MAX_TRACE_EVENTS, 5, &[0x00, 0xFF], 0);
    assert_reserves_at_most_payload::<TraceMsg>("events", &payload);
}

/// The most items the nested-`Vec` sketch decoder reserved for one
/// level before any of them decoded.
const KLL_LEVEL_CAP: usize = 65_536;

/// A sketch header (`k`, coin, `n`) claiming 64 levels; each of the
/// first 63 holds `per_level` one-byte items, and the top one claims
/// `per_level` items whose bytes are `top_pad`.
fn sketch_claiming_64_levels(n: u64, per_level: usize, top_pad: u8) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = WireWriter::new(&mut out);
    w.put_varint(8);
    w.put_u64(0x5EED);
    w.put_varint(n);
    w.put_varint(64);
    for h in 0..64 {
        w.put_varint(per_level as u64);
        let item = if h < 63 { 0x01 } else { top_pad };
        w.put_bytes(&vec![item; per_level]);
    }
    out
}

#[test]
fn a_sketch_claiming_64_large_levels_reserves_no_more_than_the_level_cap() {
    let per_level = BODY / 64;
    // The top level's items never end: its count passes the bytes-left
    // check, and the decode fails inside that level.
    let unending = sketch_claiming_64_levels(1 << 40, per_level, 0x80);
    // Every item is there, but 16 384 items of weight 2^63 overflow the
    // stream's weight.
    let overflowing = sketch_claiming_64_levels(1 << 40, per_level, 0x01);
    for (what, payload) in [("unending", unending), ("overflowing", overflowing)] {
        let (decoded, largest) = largest_alloc(|| KllSketch::decode(&payload));
        assert!(decoded.is_err(), "{what}: hostile sketch decoded");
        assert!(
            largest <= KLL_LEVEL_CAP * 8,
            "{what}: one allocation of {largest} bytes for a {}-byte sketch",
            payload.len()
        );
    }
}

/// The store's read window.
const WINDOW: usize = 512 << 10;

/// Runs `f` and returns its result with the largest single allocation
/// this thread made meanwhile.
fn largest_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(|c| c.get()))
}

#[test]
fn a_store_header_claiming_max_payload_reserves_no_more_than_the_window() {
    let mut path = std::env::temp_dir();
    path.push(format!("pint-hostile-store-{}", std::process::id()));
    let mut writer = StoreWriter::create(
        &path,
        Superblock::new(StoreKind::Collector, 1, 0),
        StoreOptions::default(),
    )
    .unwrap();
    // More intact records than one window holds, so reading the whole
    // file at once would show too.
    for seq in 1..=300u64 {
        let reports = (0..256u64)
            .map(|i| {
                let mut d = Digest::new(1);
                d.set(0, seq ^ (i << 20));
                DigestReport::new(i, seq * 1_000 + i, d, 5, seq)
            })
            .collect();
        let batch = DigestBatch {
            source: 1,
            seq,
            reports,
            trace: None,
        };
        writer
            .append(&StoreRecord::Delta { epoch: 0, batch })
            .unwrap();
    }
    let boundary = writer.len();
    drop(writer);
    assert!(boundary > 2 * WINDOW as u64, "{boundary}-byte store");
    // The last header claims the largest payload a record may have,
    // with 16 bytes behind it.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&(MAX_PAYLOAD as u32).to_le_bytes());
    bytes.extend_from_slice(&[0; 4]);
    bytes.extend_from_slice(&[0xA5; 16]);
    std::fs::write(&path, &bytes).unwrap();
    drop(bytes);

    let torn = TailStatus::Torn {
        offset: boundary,
        reason: TornReason::TruncatedPayload,
    };
    let (reader, largest) = largest_alloc(|| StoreReader::open(&path).unwrap());
    assert_eq!(reader.tail(), torn);
    assert!(
        largest <= WINDOW,
        "reader open: one allocation of {largest} bytes"
    );
    drop(reader);
    let ((writer, tail), largest) =
        largest_alloc(|| StoreWriter::open(&path, StoreOptions::default()).unwrap());
    assert_eq!(tail, torn);
    assert_eq!(writer.len(), boundary);
    assert!(
        largest <= WINDOW,
        "writer open: one allocation of {largest} bytes"
    );
    drop(writer);
    std::fs::remove_file(&path).unwrap();
}
