//! Edge-ingestion soak: the full edge→regional digest path under
//! concurrency and injected faults.
//!
//! Two phases, two properties:
//!
//! 1. **Clean phase** — N forwarders ship disjoint flows over loopback
//!    TCP into a `DigestServer` feeding one collector, while the same
//!    reports are pushed locally into a second, identically configured
//!    collector. Remote must be *equivalent* to local: every query
//!    plan answers byte-for-byte identically on both (the same
//!    machinery that pins local ≡ TCP ≡ fleet in
//!    `query_equivalence.rs`).
//! 2. **Faulty phase** — N ≥ 8 forwarders ship through a seeded
//!    `FaultInjector` (drops, duplicates, reorders, corruption,
//!    truncation, stalls) while a garbage client and a slow-loris
//!    client hammer the same server. Nothing panics, no forwarder
//!    stalls, and per-forwarder accounting is **exact**:
//!    `delivered + deduped + shed == sent`.

use pint::collector::{sketched_latency_factory, Collector, CollectorConfig};
use pint::core::dynamic::DynamicAggregator;
use pint::core::{Digest, DigestReport, RecorderKind};
use pint::fleet::{DigestForwarder, DigestServer, DigestServerConfig, ForwarderConfig};
use pint::query::TelemetryQuery;
use pint::wire::{FaultConfig, WireEncode};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HOPS: usize = 4;

/// The deterministic workload: `digests_per_flow` reports for `flow`,
/// same bytes no matter which path (local push or wire) carries them.
fn flow_reports(agg: &DynamicAggregator, flow: u64, digests_per_flow: u64) -> Vec<DigestReport> {
    (0..digests_per_flow)
        .map(|pid| {
            let mut d = Digest::new(1);
            for hop in 1..=HOPS {
                agg.encode_hop(
                    flow * 1_000 + pid,
                    hop,
                    300.0 * hop as f64 + (flow % 5) as f64 * 90.0,
                    &mut d,
                    0,
                );
            }
            DigestReport::new(flow, flow * 1_000 + pid, d, HOPS as u16, flow * 100 + pid)
        })
        .collect()
}

fn wait_for<F: FnMut() -> bool>(mut done: F, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn remote_ingest_is_equivalent_to_local() {
    const FORWARDERS: u64 = 4;
    const FLOWS: u64 = 16;
    const DIGESTS_PER_FLOW: u64 = 50;

    let agg = DynamicAggregator::new(7, 8, 100.0, 1.0e7);
    let remote = Collector::spawn(
        CollectorConfig::with_shards(4),
        sketched_latency_factory(agg.clone(), 96),
    );
    let local = Collector::spawn(
        CollectorConfig::with_shards(4),
        sketched_latency_factory(agg.clone(), 96),
    );

    let server = DigestServer::bind_collector(
        "127.0.0.1:0",
        DigestServerConfig::default(),
        remote.register_producer(),
    )
    .unwrap();
    let addr = server.local_addr();

    // N concurrent forwarders, disjoint flows each; the same reports go
    // into the local collector on this thread (flows are disjoint, so
    // per-flow order — all that recorder state depends on — matches).
    let mut local_handle = local.register_producer();
    let shippers: Vec<_> = (0..FORWARDERS)
        .map(|i| {
            let agg = agg.clone();
            std::thread::spawn(move || {
                let fwd = DigestForwarder::connect(
                    addr,
                    ForwarderConfig {
                        source: i + 1,
                        batch_digests: 32,
                        ..ForwarderConfig::default()
                    },
                );
                for flow in (0..FLOWS).filter(|f| f % FORWARDERS == i) {
                    for report in flow_reports(&agg, flow, DIGESTS_PER_FLOW) {
                        fwd.push(report);
                    }
                }
                fwd.flush();
                fwd.shutdown(Duration::from_secs(20))
            })
        })
        .collect();
    for flow in 0..FLOWS {
        for report in flow_reports(&agg, flow, DIGESTS_PER_FLOW) {
            local_handle.push(report).unwrap();
        }
    }
    local_handle.flush().unwrap();

    let total = FLOWS * DIGESTS_PER_FLOW;
    let mut shipped = 0;
    for shipper in shippers {
        let stats = shipper.join().expect("forwarder thread panicked");
        assert!(stats.accounted(), "{stats:?}");
        assert_eq!(stats.shed, 0, "clean link sheds nothing: {stats:?}");
        assert_eq!(stats.deduped, 0, "clean link never retransmits: {stats:?}");
        shipped += stats.digests_delivered;
    }
    assert_eq!(shipped, total);
    wait_for(|| server.stats().digests == total, "server-side ingest");

    local.barrier().unwrap();
    remote.barrier().unwrap();

    // One typed QueryPlan, both collectors, identical encoded results.
    for plan in [
        TelemetryQuery::new()
            .all_flows()
            .summaries()
            .plan()
            .unwrap(),
        TelemetryQuery::new().top_k(5).plan().unwrap(),
        TelemetryQuery::new().stats().plan().unwrap(),
        TelemetryQuery::new()
            .all_flows()
            .hop_quantiles(2, [0.1, 0.5, 0.9, 0.99])
            .plan()
            .unwrap(),
        TelemetryQuery::new()
            .of_kind(RecorderKind::LatencyQuantiles)
            .summaries()
            .plan()
            .unwrap(),
        TelemetryQuery::new()
            .of_kind(RecorderKind::PathTracing)
            .summaries()
            .plan()
            .unwrap(),
    ] {
        let l = local.query(&plan).unwrap();
        let r = remote.query(&plan).unwrap();
        assert_eq!(l.encode(), r.encode(), "remote ≢ local for plan {plan:?}");
    }

    let s = server.shutdown();
    assert_eq!(s.digests, total);
    assert_eq!(s.batches_duplicate, 0);
    assert_eq!(s.framing_errors, 0);
    remote.shutdown();
    local.shutdown();
}

#[test]
fn hostile_faults_never_break_exact_accounting() {
    const FORWARDERS: u64 = 8;
    const DIGESTS_EACH: u64 = 400;

    let applied = Arc::new(AtomicU64::new(0));
    let sink_applied = Arc::clone(&applied);
    let server = DigestServer::bind(
        "127.0.0.1:0",
        DigestServerConfig {
            // Reap wedged connections fast so retransmission cycles
            // stay short under corruption-induced desyncs.
            read_deadline: Duration::from_millis(300),
            ..DigestServerConfig::default()
        },
        Box::new(move |_src, reports| {
            sink_applied.fetch_add(reports.len() as u64, Ordering::Relaxed);
        }),
    )
    .unwrap();
    let addr = server.local_addr();

    // Background hostility while real traffic flows: a client speaking
    // HTTP at a PINT port, and a slow-loris holding a frame open.
    let mut garbage = TcpStream::connect(addr).unwrap();
    garbage
        .write_all(b"POST /digests HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(b"PINT\x01\x03").unwrap();

    let start = Instant::now();
    let shippers: Vec<_> = (0..FORWARDERS)
        .map(|i| {
            std::thread::spawn(move || {
                let fwd = DigestForwarder::connect(
                    addr,
                    ForwarderConfig {
                        source: 100 + i,
                        batch_digests: 16,
                        queue_batches: 32,
                        retry_base: Duration::from_millis(5),
                        retry_max: Duration::from_millis(100),
                        rto: Duration::from_millis(50),
                        seed: 0xF00D + i,
                        faults: Some(FaultConfig::hostile(0xBAD5EED ^ i)),
                        ..ForwarderConfig::default()
                    },
                );
                for pid in 0..DIGESTS_EACH {
                    fwd.push(DigestReport::new(i, pid, Digest::new(1), 3, pid));
                }
                fwd.flush();
                fwd.shutdown(Duration::from_secs(30))
            })
        })
        .collect();

    let mut totals = (0u64, 0u64, 0u64, 0u64); // sent, delivered+deduped, shed, digests_delivered
    for shipper in shippers {
        let stats = shipper.join().expect("forwarder thread panicked");
        // THE invariant: every sealed batch accounted, exactly.
        assert_eq!(
            stats.delivered + stats.deduped + stats.shed,
            stats.sent,
            "inexact accounting: {stats:?}"
        );
        assert!(
            stats.delivered > 0,
            "a forwarder never got anything through: {stats:?}"
        );
        assert_eq!(stats.digests, DIGESTS_EACH);
        assert_eq!(
            stats.digests_delivered + stats.digests_shed,
            DIGESTS_EACH,
            "digest accounting: {stats:?}"
        );
        totals.0 += stats.sent;
        totals.1 += stats.delivered + stats.deduped;
        totals.2 += stats.shed;
        totals.3 += stats.digests_delivered;
    }
    // Wall-clock bound: the whole faulty soak, shutdown drains
    // included, stays far from test-harness territory.
    assert!(
        start.elapsed() < Duration::from_secs(120),
        "soak stalled: took {:?}",
        start.elapsed()
    );

    // Cross-check against the server: every batch the forwarders
    // retired as delivered/deduped was applied exactly once there; a
    // shed batch may or may not have landed (its ack was lost). So the
    // server's applied-digest count is bracketed exactly.
    let server_digests = applied.load(Ordering::Relaxed);
    assert!(
        server_digests >= totals.3,
        "server applied {server_digests} < forwarders' delivered {}",
        totals.3
    );
    assert!(
        server_digests <= FORWARDERS * DIGESTS_EACH,
        "server applied more digests than were ever pushed"
    );
    let s = server.stats();
    assert_eq!(s.digests, server_digests, "sink and counter agree");

    // The hostile clients were reaped, not served forever.
    wait_for(
        || {
            let s = server.stats();
            s.framing_errors >= 1 && s.stalled_dropped >= 1
        },
        "hostile peers reaped",
    );
    drop(garbage);
    drop(loris);
    let s = server.shutdown();
    assert!(
        s.batches_applied > 0 && s.acks_sent >= s.batches_applied,
        "{s:?}"
    );
}
