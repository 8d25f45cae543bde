//! Recorder memory honesty: with the `measure-alloc` feature, shard
//! workers fold real allocator deltas into a per-shard gauge that
//! cross-checks the flow table's `state_bytes` estimate — and the
//! counting allocator doubles as the referee for the pooled-batch
//! claim: a warmed producer ships batches without allocating.

#![cfg(feature = "measure-alloc")]

use pint_collector::alloc_track::{thread_net_bytes, CROSS_CHECK_FLOOR};
use pint_collector::{sketched_latency_factory, Collector, CollectorConfig};
use pint_core::dynamic::DynamicAggregator;
use pint_core::{Digest, DigestReport};
use pint_query::TelemetryQuery;

#[test]
fn measured_bytes_track_the_estimate() {
    let agg = DynamicAggregator::new(4, 8, 100.0, 1.0e7);
    let collector = Collector::spawn(
        CollectorConfig {
            shards: 2,
            ..CollectorConfig::default()
        },
        sketched_latency_factory(agg.clone(), 256),
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
    // Tighter than the shard-side debug assert's 8x/16x, which only
    // checks estimates above 1 MiB: with one buffer per sketch, what the
    // allocator hands out stays within 2x of the estimate (measured
    // ≈1.6x here, the rest being buffer growth headroom and the boxed
    // recorder).
    assert!(
        measured >= estimate / 2 && measured <= estimate * 4,
        "estimate {estimate} vs measured {measured} diverged"
    );
    collector.shutdown();
}

/// The shard worker's own 8x/16x cross-check of estimate against
/// measurement (a `debug_assert` on the shard thread) runs only above
/// `CROSS_CHECK_FLOOR` estimated bytes per shard. One shard holding
/// 2 048 latency recorders crosses it; the gauges show that it did, so
/// this test fails if the check ever stops arming.
#[test]
fn the_shard_side_cross_check_arms() {
    let agg = DynamicAggregator::new(4, 8, 100.0, 1.0e7);
    let collector = Collector::spawn(
        CollectorConfig {
            shards: 1,
            ..CollectorConfig::default()
        },
        sketched_latency_factory(agg.clone(), 256),
    );
    let mut handle = collector.register_producer();
    for flow in 0..2_048u64 {
        for pid in 0..64u64 {
            let mut d = Digest::new(1);
            agg.encode_hop(flow * 1_000 + pid, 1, 1_000.0, &mut d, 0);
            handle
                .push(DigestReport::new(flow, flow * 1_000 + pid, d, 4, pid))
                .unwrap();
        }
    }
    handle.flush().unwrap();
    // A failed cross-check panics the shard thread, and the barrier
    // then fails.
    collector.barrier().unwrap();

    let snap = collector.metrics().snapshot();
    let estimate = snap.gauge("collector_state_bytes", Some(0)).unwrap() as i64;
    let measured = snap
        .gauge("collector_state_bytes_measured", Some(0))
        .unwrap() as i64;
    assert!(
        estimate > CROSS_CHECK_FLOOR,
        "estimate {estimate} never crossed the {CROSS_CHECK_FLOOR}-byte floor"
    );
    assert!(
        measured >= estimate / 8 && measured <= estimate * 16,
        "estimate {estimate} vs measured {measured} diverged beyond 8x/16x"
    );
    collector.shutdown();
}

/// Reads publish hop-sketch blocks on the shard threads, outside the
/// measured window, and the next applies retire them. Freeing those
/// blocks inside the window would count them as recorder state given
/// back, and every read/apply round would push the measured footprint
/// further below the estimate.
#[test]
fn reads_between_applies_leave_the_measured_footprint_alone() {
    let agg = DynamicAggregator::new(6, 8, 100.0, 1.0e7);
    let collector = Collector::spawn(
        CollectorConfig {
            shards: 2,
            ..CollectorConfig::default()
        },
        sketched_latency_factory(agg.clone(), 256),
    );
    let mut handle = collector.register_producer();
    let push_round = |handle: &mut pint_collector::CollectorHandle, round: u64| {
        for flow in 0..512u64 {
            let pid = round * 1_000_000 + flow;
            let mut d = Digest::new(1);
            agg.encode_hop(pid, 1, 1_000.0, &mut d, 0);
            handle
                .push(DigestReport::new(flow, pid, d, 4, pid))
                .unwrap();
        }
        handle.flush().unwrap();
        collector.barrier().unwrap();
    };
    for round in 0..64 {
        push_round(&mut handle, round);
    }
    let measured = |c: &Collector| {
        let snap = c.metrics().snapshot();
        (
            snap.gauge_total("collector_state_bytes"),
            snap.gauge_total("collector_state_bytes_measured"),
        )
    };
    let (_, before) = measured(&collector);
    let scan = TelemetryQuery::new().plan().unwrap();
    for round in 64..96 {
        drop(collector.query(&scan).unwrap());
        push_round(&mut handle, round);
    }
    let (estimate, after) = measured(&collector);
    assert!(
        after >= before / 2,
        "measured footprint fell from {before} to {after} across read/apply rounds"
    );
    assert!(
        after >= estimate / 2 && after <= estimate * 4,
        "estimate {estimate} vs measured {after} diverged"
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
    let config = CollectorConfig {
        shards: 1,
        ..CollectorConfig::default()
    };
    let batch = config.batch_size;
    let collector = Collector::spawn(config, sketched_latency_factory(agg.clone(), 64));
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
