//! Reads share each flow's published hop-sketch block: a repeated
//! query on unchanged flows hands out the same `Arc`, a changed flow
//! gets a fresh block, and no flow ever answers from a block older
//! than its recorder — after a digest, an LRU or TTL eviction and
//! re-creation, or a restore. Every answer is checked byte for byte
//! against a twin collector fed the same stream and never queried
//! before the comparison.

use pint_collector::{sketched_latency_factory, Collector, CollectorConfig, FlowSummary};
use pint_core::dynamic::DynamicAggregator;
use pint_core::{Digest, DigestReport};
use pint_query::{QueryResult, TelemetryQuery};
use pint_store::{Journal, JournalConfig, StoreOptions, StoreReader, StoreWriter};
use pint_wire::store::{StoreKind, Superblock};
use pint_wire::WireEncode;
use std::sync::Arc;

const HOPS: usize = 3;

fn codec() -> DynamicAggregator {
    DynamicAggregator::new(3, 8, 100.0, 1.0e7)
}

fn spawn(config: &CollectorConfig) -> Collector {
    Collector::spawn(config.clone(), sketched_latency_factory(codec(), 64))
}

fn two_shards() -> CollectorConfig {
    CollectorConfig {
        shards: 2,
        ..CollectorConfig::default()
    }
}

/// One latency digest for `flow`; the value and timestamp follow `pid`.
fn report(flow: u64, pid: u64, ts: u64) -> DigestReport {
    let agg = codec();
    let mut d = Digest::new(1);
    for hop in 1..=HOPS {
        let ns = 1_000.0 * hop as f64 + ((flow * 31 + pid * 7) % 500) as f64;
        agg.encode_hop(pid, hop, ns, &mut d, 0);
    }
    DigestReport::new(flow, pid, d, HOPS as u16, ts)
}

/// `per_flow` digests for each of `flows`, interleaved, starting at
/// `pid0` (timestamps equal pids).
fn stream(flows: impl Iterator<Item = u64> + Clone, pid0: u64, per_flow: u64) -> Vec<DigestReport> {
    let mut out = Vec::new();
    for i in 0..per_flow {
        for flow in flows.clone() {
            let pid = pid0 + i * 1_000 + flow;
            out.push(report(flow, pid, pid));
        }
    }
    out
}

fn ingest(collector: &Collector, reports: &[DigestReport]) {
    let mut handle = collector.register_producer();
    for r in reports {
        handle.push(r.clone()).unwrap();
    }
    handle.flush().unwrap();
    collector.barrier().unwrap();
}

fn rows(collector: &Collector) -> Vec<(u64, FlowSummary)> {
    match collector
        .query(&TelemetryQuery::new().plan().unwrap())
        .unwrap()
    {
        QueryResult::Summaries(rows) => rows,
        other => panic!("unexpected {other:?}"),
    }
}

/// The full-scan and hop-quantile answers, encoded.
fn answers(collector: &Collector) -> Vec<Vec<u8>> {
    [
        TelemetryQuery::new().plan().unwrap(),
        TelemetryQuery::new()
            .hop_quantiles(2, [0.5, 0.99])
            .plan()
            .unwrap(),
        TelemetryQuery::new().flows([1, 5, 9]).plan().unwrap(),
        TelemetryQuery::new().top_k(4).plan().unwrap(),
    ]
    .iter()
    .map(|plan| collector.query(plan).unwrap().encode())
    .collect()
}

fn block(rows: &[(u64, FlowSummary)], flow: u64) -> &Arc<[pint_sketches::KllSketch]> {
    let i = rows.binary_search_by_key(&flow, |&(f, _)| f).unwrap();
    &rows[i].1.hop_sketches
}

#[test]
fn repeated_reads_share_blocks_and_a_digest_replaces_only_its_flows() {
    let config = two_shards();
    let first = stream(0..16, 0, 20);
    let more = vec![report(5, 900_001, 900_001)];

    let live = spawn(&config);
    ingest(&live, &first);
    let a = rows(&live);
    let b = rows(&live);
    assert_eq!(a.len(), 16);
    for ((flow, x), (_, y)) in a.iter().zip(&b) {
        assert!(x.hop_sketches.len() > HOPS, "flow {flow} has hop sketches");
        assert!(
            Arc::ptr_eq(&x.hop_sketches, &y.hop_sketches),
            "flow {flow}: a quiescent re-read must share the published block"
        );
    }
    let held = QueryResult::Summaries(a.clone());
    let held_bytes = held.encode();

    ingest(&live, &more);
    let c = rows(&live);
    for (flow, summary) in &c {
        let shared = Arc::ptr_eq(&summary.hop_sketches, block(&a, *flow));
        assert_eq!(
            shared,
            *flow != 5,
            "flow {flow}: only the flow that took a digest gets a new block"
        );
    }
    assert_eq!(
        held.encode(),
        held_bytes,
        "a result held across the digest must not change"
    );

    let twin = spawn(&config);
    ingest(&twin, &first);
    ingest(&twin, &more);
    assert_eq!(
        answers(&live),
        answers(&twin),
        "queried ≡ never-queried twin"
    );
    live.shutdown();
    twin.shutdown();
}

#[test]
fn lru_eviction_and_recreation_never_answer_a_stale_block() {
    // One shard of four flows: flows 4..8 evict flows 0..4, then flow 0
    // comes back with a new recorder.
    let config = CollectorConfig {
        shards: 1,
        max_flows_per_shard: 4,
        ..CollectorConfig::default()
    };
    let first = stream(0..4, 0, 10);
    let evict = stream(4..8, 100_000, 10);
    let again = stream(0..1, 200_000, 3);

    let live = spawn(&config);
    ingest(&live, &first);
    let before = rows(&live);
    ingest(&live, &evict);
    let _ = rows(&live);
    ingest(&live, &again);
    let after = rows(&live);
    assert!(!Arc::ptr_eq(block(&after, 0), block(&before, 0)));

    let twin = spawn(&config);
    for part in [&first, &evict, &again] {
        ingest(&twin, part);
    }
    assert!(twin.stats().evicted_lru >= 4);
    assert_eq!(answers(&live), answers(&twin));
    live.shutdown();
    twin.shutdown();
}

#[test]
fn ttl_eviction_and_recreation_never_answer_a_stale_block() {
    let config = CollectorConfig {
        shards: 1,
        flow_ttl: Some(50_000),
        ..CollectorConfig::default()
    };
    let first = stream(0..4, 0, 10);
    // Flows 4..6 move the clock far past flow 0..4's TTL.
    let idle = stream(4..6, 500_000, 10);
    let again = stream(0..2, 900_000, 3);

    let live = spawn(&config);
    ingest(&live, &first);
    let before = rows(&live);
    ingest(&live, &idle);
    let _ = rows(&live);
    ingest(&live, &again);
    let after = rows(&live);
    assert!(!Arc::ptr_eq(block(&after, 0), block(&before, 0)));

    let twin = spawn(&config);
    for part in [&first, &idle, &again] {
        ingest(&twin, part);
    }
    assert!(twin.stats().evicted_ttl >= 4);
    assert_eq!(answers(&live), answers(&twin));
    live.shutdown();
    twin.shutdown();
}

#[test]
fn a_restored_collector_publishes_fresh_blocks() {
    let mut path = std::env::temp_dir();
    path.push(format!("pint-hop-blocks-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = two_shards();
    let first = stream(0..12, 0, 10);
    let tail = stream(0..12, 100_000, 2);
    let after = stream(3..7, 200_000, 2);

    // The victim is queried (publishing blocks) before its checkpoint
    // and again before it dies.
    {
        let writer = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        let victim = spawn(&config);
        victim.attach_store(Journal::spawn(
            writer,
            JournalConfig::default(),
            victim.metrics(),
        ));
        ingest(&victim, &first);
        let _ = rows(&victim);
        assert!(victim.checkpoint(1).unwrap());
        ingest(&victim, &tail);
        let _ = rows(&victim);
        victim.flush_store();
    }

    let reader = StoreReader::open(&path).unwrap();
    let (restored, _) = Collector::restore(
        config.clone(),
        sketched_latency_factory(codec(), 64),
        &reader,
    )
    .unwrap();
    let twin = spawn(&config);
    ingest(&twin, &first);
    ingest(&twin, &tail);
    assert_eq!(answers(&restored), answers(&twin), "restored ≡ twin");
    ingest(&restored, &after);
    // The first twin was just queried; this one never was.
    let later_twin = spawn(&config);
    for part in [&first, &tail, &after] {
        ingest(&later_twin, part);
    }
    assert_eq!(
        answers(&restored),
        answers(&later_twin),
        "restored ≡ twin after more digests"
    );
    for c in [restored, twin, later_twin] {
        c.shutdown();
    }
    std::fs::remove_file(&path).unwrap();
}
