//! The observability layer end-to-end: one shared `MetricsRegistry`
//! carries the self-telemetry of every tier — edge forwarder, regional
//! `DigestServer`, and the collector behind it — and a remote client
//! reads the whole picture back with a single `Metrics` wire frame.
//!
//! The pipeline is the real one: digests are pushed through a
//! `DigestForwarder`, framed as sequence-numbered batches over loopback
//! TCP into a `DigestServer` poll loop, and sunk into a sharded
//! collector. Every tier publishes into the same registry, so the final
//! fetch shows producer enqueue timings, per-shard drain/touch/KLL
//! stage histograms, flow-table occupancy, forwarder delivery
//! accounting, and server ack counters side by side. The example
//! asserts the headline numbers instead of just printing them.
//!
//! Run with: `cargo run --release --example self_telemetry`

use pint::collector::{Collector, CollectorConfig};
use pint::core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint::core::{Digest, DigestReport, FlowRecorder};
use pint::fleet::{DigestForwarder, DigestServer, DigestServerConfig, ForwarderConfig};
use pint::obs::MetricsRegistry;
use pint::query::remote::QueryClient;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FLOWS: u64 = 64;
const DIGESTS_PER_FLOW: u64 = 120;
const HOPS: usize = 4;
const SOURCE: u64 = 7;

fn main() {
    let started = Instant::now();
    let pushed = FLOWS * DIGESTS_PER_FLOW;

    // One registry, shared by every tier in this process.
    let registry = MetricsRegistry::new();
    let agg = DynamicAggregator::new(11, 8, 100.0, 1.0e7);

    // ---- Collector, instrumented ----------------------------------
    let rec_agg = agg.clone();
    let collector = Collector::spawn(
        CollectorConfig {
            shards: 4,
            metrics: Some(registry.clone()),
            ..CollectorConfig::default()
        },
        Arc::new(move |_flow, report: &DigestReport| {
            Box::new(DynamicRecorder::new_sketched(
                rec_agg.clone(),
                usize::from(report.path_len).max(1),
                96,
            )) as Box<dyn FlowRecorder>
        }),
    );

    // ---- DigestServer publishing into the same registry -----------
    let server = DigestServer::bind_collector(
        "127.0.0.1:0",
        DigestServerConfig {
            metrics: Some(registry.clone()),
            ..DigestServerConfig::default()
        },
        collector.register_producer(),
    )
    .expect("bind digest server");
    let addr = server.local_addr();
    println!("digest server listening on {addr}");

    // ---- Edge forwarder, same registry again ----------------------
    let fwd = DigestForwarder::connect(
        addr,
        ForwarderConfig {
            source: SOURCE,
            batch_digests: 32,
            queue_batches: 512, // hold the whole burst; nothing sheds
            metrics: Some(registry.clone()),
            ..ForwarderConfig::default()
        },
    );
    println!("shipping {pushed} digests from source {SOURCE}…");
    for flow in 0..FLOWS {
        for pid in 0..DIGESTS_PER_FLOW {
            let mut d = Digest::new(1);
            for hop in 1..=HOPS {
                agg.encode_hop(
                    flow * 1_000 + pid,
                    hop,
                    500.0 * hop as f64 + (flow % 9) as f64 * 60.0,
                    &mut d,
                    0,
                );
            }
            fwd.push(DigestReport::new(
                flow,
                flow * 1_000 + pid,
                d,
                HOPS as u16,
                pid,
            ));
        }
    }
    let fwd_stats = fwd.shutdown(Duration::from_secs(30));
    assert_eq!(fwd_stats.digests_delivered, pushed, "{fwd_stats:?}");

    // Let the collector drain its rings, then stop moving so the
    // fetched snapshot is a fixed point.
    collector.barrier().expect("collector barrier");

    // ---- One remote fetch reports every tier ----------------------
    // Wait for the server's once-per-tick group publish to catch up
    // with the final ack.
    let deadline = Instant::now() + Duration::from_secs(10);
    while registry
        .snapshot()
        .gauge("digest_server_digests", None)
        .unwrap_or(0)
        < pushed
    {
        assert!(Instant::now() < deadline, "digest_server gauges stale");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut client = QueryClient::connect(addr).expect("connect metrics client");
    let report = client.fetch_metrics().expect("fetch metrics frame");
    let snap = &report.snapshot;

    let text = snap.render_text();
    println!(
        "\n── fetched self-telemetry ({} rendered lines; histogram buckets elided) ──",
        text.lines().count()
    );
    for line in text.lines().filter(|l| !l.contains("_bucket{")) {
        println!("{line}");
    }

    // ---- The numbers cross-check across tiers ---------------------
    // Collector: every digest the server applied was ingested, flows
    // are resident, and the hot-path stages were actually timed.
    assert_eq!(snap.counter_total("collector_ingested_total"), pushed);
    assert_eq!(snap.gauge_total("collector_active_flows"), FLOWS);
    assert!(snap.gauge_total("collector_state_bytes") > 0);
    for stage in [
        "collector_stage_drain_ns",
        "collector_stage_touch_ns",
        "collector_stage_kll_ns",
    ] {
        let timed: u64 = (0..4)
            .filter_map(|s| snap.histogram(stage, Some(s)))
            .map(|h| h.count())
            .sum();
        assert!(timed > 0, "{stage} recorded no samples");
    }
    assert!(
        snap.histogram("collector_stage_enqueue_ns", None)
            .expect("enqueue histogram")
            .count()
            > 0
    );

    // Forwarder: the delivery accounting identity, straight from the
    // published gauge group.
    let shard = Some(SOURCE as u32);
    let sent = snap
        .gauge("forwarder_sent", shard)
        .expect("forwarder gauges");
    assert_eq!(
        snap.gauge("forwarder_delivered", shard).unwrap()
            + snap.gauge("forwarder_deduped", shard).unwrap()
            + snap.gauge("forwarder_shed", shard).unwrap()
            + snap.gauge("forwarder_in_flight", shard).unwrap(),
        sent,
        "forwarder accounting identity"
    );
    assert_eq!(
        snap.gauge("forwarder_digests_delivered", shard),
        Some(pushed)
    );

    // Digest server: acks exactly cover applied + duplicate batches,
    // and it saw every digest the forwarder delivered.
    let acks = snap.gauge("digest_server_acks_sent", None).unwrap();
    assert_eq!(
        acks,
        snap.gauge("digest_server_batches_applied", None).unwrap()
            + snap.gauge("digest_server_batches_duplicate", None).unwrap(),
        "server ack identity"
    );
    assert_eq!(snap.gauge("digest_server_digests", None), Some(pushed));
    // Every applied digest reached the sink in exactly one burst.
    let bursts = snap
        .histogram("ingest_burst_digests", None)
        .expect("burst histogram");
    assert_eq!(
        Some(bursts.sum),
        snap.gauge("digest_server_digests", None),
        "burst accounting"
    );

    drop(client);
    server.shutdown();
    collector.shutdown();
    println!(
        "\nself-telemetry OK in {:.2?}: {pushed} digests, {sent} batches, \
         one registry, one wire fetch, every tier accounted for.",
        started.elapsed()
    );
}
