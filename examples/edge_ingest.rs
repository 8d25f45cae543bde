//! The fault-tolerant edge→regional ingest path end-to-end: edge
//! forwarders → sequence-numbered `DigestBatch` frames over a faulty
//! loopback link → `DigestServer` poll loop → collector → queries.
//!
//! Every forwarder ships through a seeded `FaultInjector` that drops,
//! duplicates, reorders, corrupts, truncates, and stalls frames —
//! while a garbage client and a slow-loris client hammer the same
//! server. The example asserts what the ingest tier promises:
//!
//! * exact per-forwarder accounting (`delivered + deduped + shed ==
//!   sent`, no batch unaccounted),
//! * server-side dedup (nothing applied twice despite retransmissions
//!   and duplicated frames),
//! * graceful degradation (hostile peers are counted and reaped; real
//!   traffic keeps flowing),
//! * a wall-clock bound on the whole soak.
//!
//! Run with: `cargo run --release --example edge_ingest`

use pint::collector::{Collector, CollectorConfig};
use pint::core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint::core::{Digest, DigestReport, FlowRecorder};
use pint::fleet::{DigestForwarder, DigestServer, DigestServerConfig, ForwarderConfig};
use pint::query::{QueryResult, TelemetryQuery};
use pint::wire::FaultConfig;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const EDGES: u64 = 8;
const FLOWS_PER_EDGE: u64 = 12;
const DIGESTS_PER_FLOW: u64 = 60;
const HOPS: usize = 4;

fn main() {
    let started = Instant::now();
    let agg = DynamicAggregator::new(7, 8, 100.0, 1.0e7);

    // ---- Regional side: one collector behind a DigestServer --------
    let rec_agg = agg.clone();
    let collector = Collector::spawn(
        CollectorConfig::with_shards(4),
        Arc::new(move |_flow, report: &DigestReport| {
            Box::new(DynamicRecorder::new_sketched(
                rec_agg.clone(),
                usize::from(report.path_len).max(1),
                96,
            )) as Box<dyn FlowRecorder>
        }),
    );
    let server = DigestServer::bind_collector(
        "127.0.0.1:0",
        DigestServerConfig {
            read_deadline: Duration::from_millis(300),
            ..DigestServerConfig::default()
        },
        collector.register_producer(),
    )
    .expect("bind digest server");
    let addr = server.local_addr();
    println!("digest server listening on {addr}");

    // ---- Hostile company: garbage + slow-loris on the same port ----
    let mut garbage = TcpStream::connect(addr).expect("connect garbage peer");
    garbage
        .write_all(b"POST /digests HTTP/1.1\r\n\r\n")
        .expect("write garbage");
    let mut loris = TcpStream::connect(addr).expect("connect loris peer");
    loris
        .write_all(b"PINT\x01\x03")
        .expect("write loris prefix");

    // ---- Edge side: 8 forwarders through hostile fault injection ---
    println!(
        "shipping {} digests from {EDGES} edges through FaultConfig::hostile…",
        EDGES * FLOWS_PER_EDGE * DIGESTS_PER_FLOW
    );
    let shippers: Vec<_> = (0..EDGES)
        .map(|edge| {
            let agg = agg.clone();
            std::thread::spawn(move || {
                let fwd = DigestForwarder::connect(
                    addr,
                    ForwarderConfig {
                        source: edge + 1,
                        batch_digests: 24,
                        queue_batches: 64,
                        retry_base: Duration::from_millis(5),
                        retry_max: Duration::from_millis(100),
                        rto: Duration::from_millis(50),
                        seed: 0xED6E ^ edge,
                        faults: Some(FaultConfig::hostile(0x5EED ^ edge)),
                        ..ForwarderConfig::default()
                    },
                );
                for f in 0..FLOWS_PER_EDGE {
                    let flow = edge * FLOWS_PER_EDGE + f;
                    for pid in 0..DIGESTS_PER_FLOW {
                        let mut d = Digest::new(1);
                        for hop in 1..=HOPS {
                            agg.encode_hop(
                                flow * 1_000 + pid,
                                hop,
                                400.0 * hop as f64 + (flow % 6) as f64 * 80.0,
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
                fwd.flush();
                fwd.shutdown(Duration::from_secs(30))
            })
        })
        .collect();

    let mut delivered_digests = 0u64;
    let mut shed_digests = 0u64;
    for (edge, shipper) in shippers.into_iter().enumerate() {
        let stats = shipper.join().expect("forwarder thread panicked");
        assert_eq!(
            stats.delivered + stats.deduped + stats.shed,
            stats.sent,
            "edge {edge}: inexact accounting: {stats:?}"
        );
        assert!(stats.delivered > 0, "edge {edge} never delivered anything");
        println!(
            "edge {edge}: {} batches sent, {} delivered, {} deduped, {} shed, \
             {} retransmits, {} reconnects",
            stats.sent,
            stats.delivered,
            stats.deduped,
            stats.shed,
            stats.retransmits,
            stats.reconnects
        );
        delivered_digests += stats.digests_delivered;
        shed_digests += stats.digests_shed;
    }
    let pushed = EDGES * FLOWS_PER_EDGE * DIGESTS_PER_FLOW;
    assert_eq!(
        delivered_digests + shed_digests,
        pushed,
        "digest accounting"
    );

    // ---- Server-side truth: dedup caught retransmissions, hostile
    //      peers were reaped, applied count is bracketed exactly ------
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let s = server.stats();
        if s.framing_errors >= 1 && s.stalled_dropped >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "hostile peers never reaped");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(garbage);
    drop(loris);
    let s = server.shutdown();
    println!(
        "server: {} batches applied ({} digests), {} duplicates dropped, \
         {} framing errors, {} stalled peers reaped",
        s.batches_applied, s.digests, s.batches_duplicate, s.framing_errors, s.stalled_dropped
    );
    assert!(s.digests >= delivered_digests, "acked batches were applied");
    assert!(s.digests <= pushed, "nothing applied twice");
    assert!(s.framing_errors >= 1, "garbage peer counted");
    assert!(s.stalled_dropped >= 1, "slow-loris reaped");

    // ---- The data is queryable: what arrived, answered locally ------
    collector.barrier().expect("collector barrier");
    let top = collector
        .query(&TelemetryQuery::new().top_k(5).plan().expect("valid plan"))
        .expect("top-k query");
    if let QueryResult::Summaries(rows) = &top {
        println!("top-5 flows by packets at the regional collector:");
        for (flow, summary) in rows {
            println!("  flow {flow:>4}: {:>4} packets", summary.packets);
        }
        assert!(!rows.is_empty(), "delivered digests are queryable");
    }
    let ingested = collector.stats().ingested;
    assert_eq!(
        ingested, s.digests,
        "collector saw exactly what was applied"
    );
    collector.shutdown();

    assert!(
        started.elapsed() < Duration::from_secs(60),
        "soak exceeded its wall-clock bound: {:?}",
        started.elapsed()
    );
    println!(
        "edge ingest OK in {:.2?}: {pushed} pushed → {delivered_digests} delivered + \
         {shed_digests} shed, exact accounting under hostile faults.",
        started.elapsed()
    );
}
