//! Wire-codec and fleet-merge throughput.
//!
//! What the fleet tier pays per snapshot cycle: encoding a pod's
//! `SnapshotFrame`, decoding it at the aggregator, and merging N pods'
//! snapshots into a fleet view. Workload shape mirrors
//! `examples/fleet_pipeline.rs`: thousands of latency flows with
//! per-hop KLL sketches. Baselines are recorded to `BENCH_fleet.json`
//! (`PINT_BENCH_JSON=BENCH_fleet.json cargo bench -p pint-bench --bench
//! wire`); rates are frames per second.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pint_collector::flow_table::TableStats;
use pint_collector::wire::SnapshotFrame;
use pint_collector::{CollectorSnapshot, FlowSummary, ShardSnapshot};
use pint_core::RecorderKind;
use pint_fleet::FleetView;
use pint_sketches::KllSketch;
use pint_wire::{parse_frame, WireDecode, WireEncode};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const FLOWS: u64 = 2_000;
const HOPS: usize = 4;
const SAMPLES_PER_HOP: usize = 120;

fn build_snapshot(seed: u64) -> CollectorSnapshot {
    let mut rng = SmallRng::seed_from_u64(seed);
    let flows = (0..FLOWS)
        .map(|flow| {
            let mut sketches = vec![KllSketch::with_seed(32, seed)];
            for hop in 1..=HOPS {
                let mut sk = KllSketch::with_seed(32, seed ^ hop as u64);
                for _ in 0..SAMPLES_PER_HOP {
                    sk.update(rng.gen_range(0..256)); // 8-bit code space
                }
                sketches.push(sk);
            }
            (
                flow,
                FlowSummary {
                    kind: RecorderKind::LatencyQuantiles,
                    packets: SAMPLES_PER_HOP as u64,
                    state_bytes: 1_024,
                    last_ts: seed,
                    hop_sketches: sketches.into(),
                    path: None,
                    inconsistencies: 0,
                },
            )
        })
        .collect();
    CollectorSnapshot::from_shards(vec![ShardSnapshot {
        shard: 0,
        flows,
        table_stats: TableStats::default(),
        ingested: FLOWS * SAMPLES_PER_HOP as u64,
    }])
}

fn bench_wire(c: &mut Criterion) {
    let frame = SnapshotFrame {
        collector_id: 1,
        epoch: 1,
        snapshot: build_snapshot(1),
    };
    let encoded = frame.to_frame_bytes();
    let (_, payload) = parse_frame(&encoded).expect("well-formed frame");
    println!(
        "snapshot frame: {} flows x {} hop sketches = {} KiB on the wire",
        FLOWS,
        HOPS,
        encoded.len() / 1024
    );

    let mut g = c.benchmark_group("wire");
    g.throughput(Throughput::Elements(1)); // rate = frames/s

    // Encode into a reused buffer: the steady-state export path.
    let mut buf = Vec::with_capacity(encoded.len());
    g.bench_function("encode_snapshot", |b| {
        b.iter(|| {
            buf.clear();
            frame.encode_into(&mut buf);
            black_box(buf.len())
        })
    });

    g.bench_function("decode_snapshot", |b| {
        b.iter(|| SnapshotFrame::decode(black_box(payload)).expect("decode"))
    });

    // Building a 3-pod fleet view. `FleetView::merge` consumes its
    // inputs, so the measured iteration clones them first — which is
    // also what `FleetAggregator::view()` pays in production (it keeps
    // the per-collector snapshots and merges clones).
    let pods: Vec<(u64, CollectorSnapshot)> =
        (0..3).map(|pod| (pod, build_snapshot(pod))).collect();
    g.bench_function("fleet_merge/3pods", |b| {
        b.iter(|| FleetView::merge(black_box(pods.clone())))
    });
    g.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
