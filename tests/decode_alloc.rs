//! What decoding a snapshot costs the allocator.
//!
//! A fleet aggregator decodes every collector's snapshot frame, and a
//! frame holds one row per flow with one KLL sketch per hop. Each
//! sketch keeps its levels in one buffer, so decoding a row costs one
//! allocation for its hop block and one per non-empty sketch, however
//! many levels the sketches hold. This binary installs its own counting
//! allocator and pins that count on a 3 000-flow, 5-hop frame.

#![allow(unsafe_code)]

use pint::collector::sketched_latency_factory;
use pint::collector::wire::SnapshotFrame;
use pint::core::dynamic::DynamicAggregator;
use pint::core::{Digest, DigestReport};
use pint::wire::{parse_frame, FrameType, WireDecode};
use pint::{Collector, CollectorConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const init and no destructor: usable inside the allocator for the
    // thread's whole life, and `with` never allocates.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// System allocator that counts, per thread, every allocation and
/// every reallocation.
struct CountingAlloc;

fn count() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: defers entirely to `System` for memory; bookkeeping touches
// only a non-allocating thread-local `Cell<usize>`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const FLOWS: u64 = 3_000;
const DIGESTS_PER_FLOW: u64 = 120;
const HOPS: usize = 5;

#[test]
fn a_decoded_snapshot_allocates_once_per_row_and_non_empty_sketch() {
    let agg = DynamicAggregator::new(7, 8, 100.0, 1.0e7);
    let collector = Collector::spawn(
        CollectorConfig {
            shards: 2,
            ..CollectorConfig::default()
        },
        sketched_latency_factory(agg.clone(), 128),
    );
    let mut handle = collector.register_producer();
    for pid in 0..FLOWS * DIGESTS_PER_FLOW {
        let flow = pid % FLOWS;
        let mut d = Digest::new(1);
        for hop in 1..=HOPS {
            let v = 150.0 * hop as f64 + (pid % 31) as f64 * 20.0;
            agg.encode_hop(pid, hop, v, &mut d, 0);
        }
        handle
            .push(DigestReport::new(flow, pid, d, HOPS as u16, pid))
            .unwrap();
    }
    handle.flush().unwrap();
    collector.barrier().unwrap();
    let frame = collector.export_snapshot_frame(1, 1).unwrap();
    collector.shutdown();
    let (ty, payload) = parse_frame(&frame).unwrap();
    assert_eq!(ty, FrameType::Snapshot);

    ALLOCS.with(|c| c.set(0));
    let decoded = SnapshotFrame::decode(payload).unwrap();
    let allocs = ALLOCS.with(|c| c.get());

    let rows = decoded.snapshot.num_flows();
    let sketches: usize = decoded
        .snapshot
        .flows()
        .map(|(_, row)| row.hop_sketches.iter().filter(|s| !s.is_empty()).count())
        .sum();
    assert_eq!(rows, FLOWS as usize);
    assert!(sketches >= rows * HOPS, "{sketches} non-empty sketches");
    assert!(
        allocs <= rows + sketches + 16,
        "{allocs} allocations to decode {rows} rows holding {sketches} non-empty sketches"
    );
}
