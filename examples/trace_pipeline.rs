//! End-to-end pipeline tracing on one `VirtualClock`: a single shared
//! `FlightRecorder` rides along the real ingest path — edge
//! `DigestForwarder` → loopback-TCP `DigestServer` → sharded collector
//! — and the example asserts a batch's full life story from the drained
//! events instead of just printing counters.
//!
//! What it demonstrates:
//!
//! * `ForwarderSealed` → `ServerApplied` → `CollectorBatch` chains: one
//!   per batch, matched by `(source, seq)`, in clock order.
//! * Wire-propagated trace context: every `DigestBatch` carries its
//!   origin stamp, so the server's `ingest_e2e_latency_ns` histogram is
//!   true edge→regional latency (both ends share the virtual clock).
//! * Freshness watermarks: every `QueryResponse` tells how fresh the
//!   serving state was, without being asked.
//! * Remote exposition: `QueryClient::fetch_trace` returns the same
//!   dump a local `FlightRecorder::snapshot` yields — the wire adds
//!   nothing and loses nothing.
//!
//! Run with: `cargo run --release --example trace_pipeline`

use pint::collector::{sketched_latency_factory, Collector, CollectorConfig};
use pint::core::dynamic::DynamicAggregator;
use pint::core::{Digest, DigestReport};
use pint::fleet::{DigestForwarder, DigestServer, DigestServerConfig, ForwarderConfig};
use pint::obs::{FlightRecorder, MetricsRegistry, TraceStage, VirtualClock};
use pint::query::remote::{QueryClient, QueryResponder};
use pint::query::TelemetryQuery;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FLOWS: u64 = 32;
const DIGESTS_PER_FLOW: u64 = 64;
const HOPS: usize = 4;
const SOURCE: u64 = 11;
const BATCH: usize = 32;

fn main() {
    let started = Instant::now();
    let pushed = FLOWS * DIGESTS_PER_FLOW;

    // One virtual clock is the time base for everything: trace-event
    // ticks, batch origin stamps, and the e2e latency arithmetic.
    let clock = Arc::new(VirtualClock::new());
    clock.set(1_000);
    let registry = MetricsRegistry::with_clock(clock.clone());
    let recorder = FlightRecorder::with_clock(8, 4096, clock.clone());

    // ---- Collector, tracing one CollectorBatch event per batch -----
    let agg = DynamicAggregator::new(11, 8, 100.0, 1.0e7);
    let collector = Collector::spawn(
        CollectorConfig {
            shards: 2,
            metrics: Some(registry.clone()),
            trace: Some(recorder.clone()),
            ..CollectorConfig::default()
        },
        sketched_latency_factory(agg.clone(), 96),
    );

    // ---- Traced DigestServer sinking into the collector ------------
    let server = DigestServer::bind_collector(
        "127.0.0.1:0",
        DigestServerConfig {
            metrics: Some(registry.clone()),
            trace: Some(recorder.clone()),
            ..DigestServerConfig::default()
        },
        collector.register_producer(),
    )
    .expect("bind digest server");
    let addr = server.local_addr();
    println!("traced digest server on {addr}");

    // ---- Traced edge forwarder -------------------------------------
    let fwd = DigestForwarder::connect(
        addr,
        ForwarderConfig {
            source: SOURCE,
            batch_digests: BATCH,
            queue_batches: 512,
            metrics: Some(registry.clone()),
            trace: Some(recorder.clone()),
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
                flow * 100 + pid,
            ));
            // Virtual time marches while digests arrive, so batch
            // seals, wire transit, and server applies land on distinct
            // ticks and the e2e histogram measures real (virtual) lag.
            clock.advance(1_000);
        }
    }
    let fwd_stats = fwd.shutdown(Duration::from_secs(30));
    assert_eq!(fwd_stats.digests_delivered, pushed, "{fwd_stats:?}");
    let batches = fwd_stats.delivered;

    // Quiesce: collector drained, server gauges caught up with the
    // final ack — after this nothing records new events.
    collector.barrier().expect("collector barrier");
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

    // ---- The batch life story, from the recorder -------------------
    let dump = recorder.snapshot();
    let mut sealed = BTreeMap::new();
    let mut applied = BTreeMap::new();
    let mut collector_batches = 0u64;
    for ev in &dump.events {
        match ev.stage {
            TraceStage::ForwarderSealed => {
                sealed.insert((ev.source, ev.seq), ev.tick_ns);
            }
            TraceStage::ServerApplied => {
                applied.insert((ev.source, ev.seq), ev.tick_ns);
            }
            TraceStage::CollectorBatch => collector_batches += 1,
            other => panic!("unexpected stage {other:?} in this pipeline"),
        }
    }
    assert_eq!(sealed.len() as u64, batches, "one seal event per batch");
    assert_eq!(
        applied.len(),
        sealed.len(),
        "every sealed batch was applied exactly once"
    );
    for (key, seal_tick) in &sealed {
        let apply_tick = applied
            .get(key)
            .unwrap_or_else(|| panic!("batch {key:?} sealed but never applied"));
        assert!(
            apply_tick >= seal_tick,
            "apply tick precedes seal tick for {key:?}"
        );
        assert_eq!(key.0, SOURCE);
    }
    assert!(
        collector_batches > 0,
        "collector shards recorded no batch events"
    );
    println!(
        "traced {} events: {} seals, {} applies, {collector_batches} collector batches",
        dump.events.len(),
        sealed.len(),
        applied.len(),
    );

    // ---- e2e latency came from the wire-propagated origin stamps ---
    let snap = registry.snapshot();
    let e2e = snap
        .histogram("ingest_e2e_latency_ns", None)
        .expect("e2e latency histogram");
    assert_eq!(e2e.count(), batches, "one e2e sample per applied batch");
    println!(
        "edge→regional latency over {} batches: p50 ≈ {} virtual ns",
        e2e.count(),
        e2e.quantile(0.5).unwrap_or(0)
    );

    // ---- Every query response carries a freshness watermark --------
    let responder = QueryResponder::bind("127.0.0.1:0", Arc::new(collector)).unwrap();
    let mut qc = QueryClient::connect(responder.local_addr()).unwrap();
    let plan = TelemetryQuery::new().top_k(5).plan().unwrap();
    qc.query(&plan).expect("remote query");
    let wm = qc.last_watermark().expect("response carries watermark");
    assert_eq!(
        wm.newest_applied,
        (FLOWS - 1) * 100 + (DIGESTS_PER_FLOW - 1),
        "watermark is the newest ingested timestamp"
    );
    assert_eq!(wm.lag(), 0, "collectors apply everything they see");
    println!(
        "query watermark: newest_applied={} newest_seen={} sources={}",
        wm.newest_applied, wm.newest_seen, wm.sources
    );

    // ---- Remote fetch ≡ local snapshot -----------------------------
    let mut tc = QueryClient::connect(addr).expect("connect trace client");
    let report = tc.fetch_trace().expect("fetch trace frame");
    assert_eq!(
        report.dump,
        recorder.snapshot(),
        "wire-fetched dump must equal the local recorder snapshot"
    );
    println!(
        "fetch_trace returned {} events — identical to the local snapshot",
        report.dump.events.len()
    );

    drop(tc);
    server.shutdown();
    println!(
        "\ntrace pipeline OK in {:.2?}: {pushed} digests, {batches} batches, \
         every one accounted for seal→apply→collect.",
        started.elapsed()
    );
}
