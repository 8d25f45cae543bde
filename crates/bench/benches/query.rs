//! Query-tier cost on a 10k-flow collector: what a dashboard pays for
//! a full snapshot versus targeted `QueryPlan`s (flow set, top-K,
//! delta, hop quantiles), in latency *and* in bytes moved on the wire.
//!
//! Baselines are recorded to `BENCH_query.json`
//! (`PINT_BENCH_JSON=BENCH_query.json cargo bench -p pint-bench
//! --bench query`). The `wire_bytes/*` entries carry `bytes_per_iter`:
//! the full-snapshot frame versus the flow-set `QueryResponse` frame —
//! the ≥10× byte saving targeted queries exist for.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pint_collector::{Collector, CollectorConfig, RecorderFactory};
use pint_core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint_core::{Digest, DigestReport, FlowRecorder};
use pint_query::{QueryRequest, QueryResponse, TelemetryQuery};
use std::sync::Arc;

const FLOWS: u64 = 10_000;
const DIGESTS_PER_FLOW: u64 = 12;
const HOPS: usize = 4;
const SET: usize = 64;

fn build_collector() -> (Collector, DynamicAggregator, u64) {
    let agg = DynamicAggregator::new(11, 8, 100.0, 1.0e7);
    let factory_agg = agg.clone();
    let factory: RecorderFactory = Arc::new(move |_flow, report: &DigestReport| {
        Box::new(DynamicRecorder::new_sketched(
            factory_agg.clone(),
            usize::from(report.path_len).max(1),
            64,
        )) as Box<dyn FlowRecorder>
    });
    let collector = Collector::spawn(
        CollectorConfig {
            shards: 8,
            batch_size: 256,
            ..CollectorConfig::default()
        },
        factory,
    );
    let mut handle = collector.register_producer();
    let mut ts = 0u64;
    for pid in 0..DIGESTS_PER_FLOW {
        for flow in 0..FLOWS {
            let mut d = Digest::new(1);
            for hop in 1..=HOPS {
                agg.encode_hop(flow * 100 + pid, hop, 900.0 * hop as f64, &mut d, 0);
            }
            ts += 1;
            handle
                .push(DigestReport::new(
                    flow,
                    flow * 100 + pid,
                    d,
                    HOPS as u16,
                    ts,
                ))
                .unwrap();
        }
    }
    handle.flush().unwrap();
    collector.barrier().unwrap();
    (collector, agg, ts)
}

fn bench_query(c: &mut Criterion) {
    let (collector, _agg, max_ts) = build_collector();
    let flow_set: Vec<u64> = (0..SET as u64).map(|i| i * (FLOWS / SET as u64)).collect();

    let full_plan = TelemetryQuery::new().plan().unwrap();
    let set_plan = TelemetryQuery::new()
        .flows(flow_set.clone())
        .plan()
        .unwrap();
    let top_plan = TelemetryQuery::new().top_k(SET).plan().unwrap();
    // The last ~0.5% of timestamps: a dashboard's "what changed since
    // my previous poll" read.
    let delta_plan = TelemetryQuery::new()
        .since(max_ts - FLOWS / 2 / 100)
        .plan()
        .unwrap();
    let quantile_plan = TelemetryQuery::new()
        .hop_quantiles(3, [0.5, 0.99])
        .plan()
        .unwrap();
    let stats_plan = TelemetryQuery::new().stats().plan().unwrap();

    // What each read moves on the wire.
    let snapshot_bytes = collector.export_snapshot_frame(1, 1).unwrap().len();
    let response_bytes = |plan| {
        QueryResponse {
            request_id: 1,
            result: Ok(collector.query(plan).unwrap()),
            watermark: Some(collector.watermark()),
        }
        .to_frame_bytes()
        .len()
    };
    let set_bytes = response_bytes(&set_plan);
    let top_bytes = response_bytes(&top_plan);
    let delta_bytes = response_bytes(&delta_plan);
    let quantile_bytes = response_bytes(&quantile_plan);
    println!(
        "wire bytes on {FLOWS} flows: full snapshot {snapshot_bytes} B, \
         flow-set/{SET} {set_bytes} B ({:.0}x less), top-{SET} {top_bytes} B, \
         delta {delta_bytes} B, hop-quantiles {quantile_bytes} B ({:.0}x less)",
        snapshot_bytes as f64 / set_bytes as f64,
        snapshot_bytes as f64 / quantile_bytes as f64,
    );
    assert!(
        set_bytes * 10 <= snapshot_bytes,
        "a {SET}-flow query must move >=10x fewer bytes than a full snapshot"
    );

    let mut g = c.benchmark_group("query");
    g.throughput(Throughput::Elements(1)); // rate = queries/s

    g.bench_function("full_snapshot", |b| {
        b.iter(|| black_box(collector.snapshot().unwrap().num_flows()))
    });
    g.bench_function("full_scan_plan", |b| {
        b.iter(|| black_box(collector.query(black_box(&full_plan)).unwrap().len()))
    });
    g.bench_function("flow_set_64", |b| {
        b.iter(|| black_box(collector.query(black_box(&set_plan)).unwrap().len()))
    });
    g.bench_function("top_k_64", |b| {
        b.iter(|| black_box(collector.query(black_box(&top_plan)).unwrap().len()))
    });
    g.bench_function("delta_since", |b| {
        b.iter(|| black_box(collector.query(black_box(&delta_plan)).unwrap().len()))
    });
    g.bench_function("hop_quantiles", |b| {
        b.iter(|| black_box(collector.query(black_box(&quantile_plan)).unwrap().len()))
    });
    g.bench_function("stats", |b| {
        b.iter(|| black_box(collector.query(black_box(&stats_plan)).unwrap().len()))
    });

    // Bytes moved per read, recorded as bytes_per_iter in the JSON:
    // the acceptance evidence that targeted queries beat snapshots by
    // an order of magnitude on this 10k-flow table.
    g.throughput(Throughput::Bytes(snapshot_bytes as u64));
    g.bench_function("wire_bytes/full_snapshot", |b| {
        b.iter(|| black_box(collector.export_snapshot_frame(1, 1).unwrap().len()))
    });
    g.throughput(Throughput::Bytes(set_bytes as u64));
    g.bench_function("wire_bytes/flow_set_64", |b| {
        b.iter(|| {
            let response = QueryResponse {
                request_id: 1,
                result: Ok(collector.query(&set_plan).unwrap()),
                watermark: Some(collector.watermark()),
            };
            black_box(response.to_frame_bytes().len())
        })
    });
    g.throughput(Throughput::Bytes(delta_bytes as u64));
    g.bench_function("wire_bytes/delta_since", |b| {
        b.iter(|| {
            let response = QueryResponse {
                request_id: 1,
                result: Ok(collector.query(&delta_plan).unwrap()),
                watermark: Some(collector.watermark()),
            };
            black_box(response.to_frame_bytes().len())
        })
    });
    g.finish();

    // Keep the request codec honest in the same smoke run.
    let request = QueryRequest {
        request_id: 7,
        plan: set_plan,
    };
    assert!(request.to_frame_bytes().len() < 1024, "plans stay tiny");
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
