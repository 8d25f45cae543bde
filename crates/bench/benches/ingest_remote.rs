//! Edge-ingest throughput: digests/s into a collector **in-process**
//! (the `CollectorHandle` hot path) vs **over loopback TCP** through
//! the full forwarder → `DigestServer` → collector pipeline (framing,
//! sequencing, acks, dedup included).
//!
//! The gap between the two rates is what shipping digests off-box
//! costs; the paper's premise is that PINT digests are small enough
//! that this tier keeps up with sink-side report rates. Baselines are
//! recorded to `BENCH_fleet.json` (`PINT_BENCH_JSON=BENCH_fleet.json
//! cargo bench -p pint-bench --bench ingest_remote`); rates are
//! digests per second.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pint_collector::{sketched_latency_factory, Collector, CollectorConfig};
use pint_core::dynamic::DynamicAggregator;
use pint_core::{Digest, DigestReport};
use pint_fleet::{DigestForwarder, DigestServer, DigestServerConfig, ForwarderConfig};
use std::time::{Duration, Instant};

const FLOWS: u64 = 64;
const DIGESTS_PER_ITER: u64 = 2_048;
const HOPS: usize = 4;

fn workload(agg: &DynamicAggregator) -> Vec<DigestReport> {
    (0..DIGESTS_PER_ITER)
        .map(|i| {
            let flow = i % FLOWS;
            let mut d = Digest::new(1);
            for hop in 1..=HOPS {
                agg.encode_hop(i, hop, 350.0 * hop as f64, &mut d, 0);
            }
            DigestReport::new(flow, i, d, HOPS as u16, i)
        })
        .collect()
}

fn bench_ingest(c: &mut Criterion) {
    let agg = DynamicAggregator::new(7, 8, 100.0, 1.0e7);
    let reports = workload(&agg);

    let mut g = c.benchmark_group("ingest");
    g.throughput(Throughput::Elements(DIGESTS_PER_ITER));

    // In-process: the collector handle's push/flush hot path.
    {
        let collector = Collector::spawn(
            CollectorConfig::with_shards(4),
            sketched_latency_factory(agg.clone(), 96),
        );
        let mut handle = collector.register_producer();
        g.bench_function("in_process", |b| {
            b.iter(|| {
                for r in &reports {
                    handle.push(black_box(r.clone())).expect("collector alive");
                }
                handle.flush().expect("flush")
            })
        });
        collector.shutdown();
    }

    // Loopback TCP: forwarder → DigestServer → the same collector
    // path, acks and dedup included. Each iteration waits until the
    // server has *applied* what it pushed, so the measured rate is
    // end-to-end, not queue-filling.
    {
        let collector = Collector::spawn(
            CollectorConfig::with_shards(4),
            sketched_latency_factory(agg.clone(), 96),
        );
        let server = DigestServer::bind_collector(
            "127.0.0.1:0",
            DigestServerConfig::default(),
            collector.register_producer(),
        )
        .expect("bind digest server");
        let fwd = DigestForwarder::connect(
            server.local_addr(),
            ForwarderConfig {
                source: 1,
                batch_digests: 128,
                queue_batches: 256,
                ..ForwarderConfig::default()
            },
        );
        let mut expected = 0u64;
        g.bench_function("remote_tcp", |b| {
            b.iter(|| {
                for r in &reports {
                    fwd.push(black_box(r.clone()));
                }
                fwd.flush();
                expected += DIGESTS_PER_ITER;
                let deadline = Instant::now() + Duration::from_secs(30);
                // Sleep between polls: a spin would take a core from
                // the forwarder and server threads being timed.
                while server.stats().digests < expected {
                    assert!(Instant::now() < deadline, "remote ingest stalled");
                    std::thread::sleep(Duration::from_micros(50));
                }
            })
        });
        let stats = fwd.shutdown(Duration::from_secs(10));
        assert!(stats.accounted(), "{stats:?}");
        assert_eq!(stats.shed, 0, "bench link is clean: {stats:?}");
        server.shutdown();
        collector.shutdown();
    }
    g.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
