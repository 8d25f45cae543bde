//! Recorder memory honesty: with the `measure-alloc` feature, shard
//! workers fold real allocator deltas into a per-shard gauge that
//! cross-checks the flow table's `state_bytes` estimate — and the
//! counting allocator doubles as the referee for the pooled-batch
//! claim: a warmed producer ships batches without allocating.

#![cfg(feature = "measure-alloc")]

use pint_collector::alloc_track::thread_net_bytes;
use pint_collector::{Collector, CollectorConfig};
use pint_core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint_core::{Digest, DigestReport, FlowRecorder};
use std::sync::Arc;

#[test]
fn measured_bytes_track_the_estimate() {
    let agg = DynamicAggregator::new(4, 8, 100.0, 1.0e7);
    let factory_agg = agg.clone();
    let collector = Collector::spawn(
        CollectorConfig {
            shards: 2,
            ..CollectorConfig::default()
        },
        Arc::new(move |_flow, report: &DigestReport| {
            Box::new(DynamicRecorder::new_sketched(
                factory_agg.clone(),
                usize::from(report.path_len).max(1),
                256,
            )) as Box<dyn FlowRecorder>
        }),
    );
    let mut handle = collector.register_producer();
    for flow in 0..512u64 {
        for pid in 0..64u64 {
            let mut d = Digest::new(1);
            agg.encode_hop(flow * 1_000 + pid, 1, 1_000.0, &mut d, 0);
            handle
                .push(DigestReport::new(flow, flow * 1_000 + pid, d, 4, pid))
                .unwrap();
        }
    }
    handle.flush().unwrap();
    collector.barrier().unwrap();

    let snap = collector.metrics().snapshot();
    let estimate = snap.gauge_total("collector_state_bytes");
    let measured = snap.gauge_total("collector_state_bytes_measured");
    assert!(estimate > 0, "estimate gauge not published");
    assert!(measured > 0, "measured gauge not published");
    // The loose bound from the shard-side debug assert, checked here in
    // release-compiled tests too: the estimate must be the same order of
    // magnitude as what the allocator actually handed out.
    assert!(
        measured >= estimate / 8 && measured <= estimate * 16,
        "estimate {estimate} vs measured {measured} diverged"
    );
    collector.shutdown();
}

/// The pooled-batch tentpole, pinned by the allocator itself: once the
/// recycle lane is primed, the producer hot path (buffer → ship →
/// re-arm from the lane) runs with a net allocator delta of exactly
/// zero bytes on the producer thread. Digests carry one lane, which
/// `pint_core::Digest` stores inline — so any nonzero delta is a batch
/// allocation leaking back into steady state.
#[test]
fn steady_state_pushes_allocate_no_batches() {
    let agg = DynamicAggregator::new(4, 8, 100.0, 1.0e7);
    let factory_agg = agg.clone();
    let config = CollectorConfig {
        shards: 1,
        ..CollectorConfig::default()
    };
    let batch = config.batch_size;
    let collector = Collector::spawn(
        config,
        Arc::new(move |_flow, report: &DigestReport| {
            Box::new(DynamicRecorder::new_sketched(
                factory_agg.clone(),
                usize::from(report.path_len).max(1),
                64,
            )) as Box<dyn FlowRecorder>
        }),
    );
    let mut handle = collector.register_producer();
    let mut pkt = 0u64;
    let mut push_cycle = |handle: &mut pint_collector::CollectorHandle| {
        for i in 0..batch as u64 {
            let mut d = Digest::new(1);
            agg.encode_hop(pkt, 1, 1_000.0, &mut d, 0);
            handle
                .push(DigestReport::new(i % 32, pkt, d, 4, pkt))
                .unwrap();
            pkt += 1;
        }
    };
    // Warmup: circulate buffers until the lane holds enough to re-arm
    // every ship. The barrier quiesces the shard, so each warmed buffer
    // is back in the lane before the next cycle starts.
    for _ in 0..4 {
        push_cycle(&mut handle);
        collector.barrier().unwrap();
    }
    // Steady state: measure only the push segments. The barrier between
    // cycles re-primes the lane outside the measured window (and its
    // control-channel traffic allocates on this thread, so it must not
    // be inside it).
    let mut delta = 0i64;
    for _ in 0..8 {
        let before = thread_net_bytes();
        push_cycle(&mut handle);
        delta += thread_net_bytes() - before;
        collector.barrier().unwrap();
    }
    assert_eq!(
        delta, 0,
        "warmed producer hot path moved the allocator by {delta} net bytes"
    );
    let snap = collector.metrics().snapshot();
    assert!(
        snap.counter_total("collector_batches_recycled_total") >= 8,
        "steady-state ships were not fed from the recycle lane"
    );
    collector.shutdown();
}
