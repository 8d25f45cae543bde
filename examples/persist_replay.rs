//! The durability tier end-to-end: journal → crash → restore → replay.
//!
//! A collector journals every applied batch to a `pint-store` log while
//! it runs. This example kills it mid-flight (drop + a torn half-record
//! appended, as if the process died while a frame was being written),
//! then demonstrates the two recovery paths the store supports:
//!
//! * **Restore** — `Collector::restore` truncates the torn tail, replays
//!   the journal through the same shard hash the victim used, and the
//!   result answers every query plan **byte-identically** to a twin
//!   collector that never crashed (rows, ordering, sketch coin state,
//!   freshness watermarks).
//! * **Replay** — a `Replayer` streams the same persisted log through
//!   any sink at recorded pace, lending each batch's reports in one
//!   reused buffer; here it rebuilds a third collector via
//!   its producer handle and drives a `VirtualClock` along the recorded
//!   timeline, deduplicating persisted retransmissions on the way.
//! * **Compacted restore** — a latency + path-tracing collector
//!   checkpoints mid-run while a size bound compacts its log, so the
//!   log no longer reaches the origin. Restore loads the checkpoint's
//!   recorder images into the shard tables, replays only the tail, and
//!   again answers byte-identically to a never-crashed twin.
//!
//! Run with: `cargo run --release --example persist_replay`

use pint::collector::{sketched_latency_factory, Collector, CollectorConfig, RecorderFactory};
use pint::core::dynamic::DynamicAggregator;
use pint::core::{Digest, DigestReport, FlowRecorder, PathTracer, TracerConfig};
use pint::obs::{Clock, MetricsRegistry};
use pint::query::{QueryResult, TelemetryQuery};
use pint::wire::store::{StoreKind, Superblock};
use pint::wire::WireEncode;
use pint::{
    Journal, JournalConfig, Replayer, StoreOptions, StoreReader, StoreWriter, VirtualClock,
};
use std::sync::Arc;
use std::time::Instant;

const FLOWS: u64 = 32;
const HOPS: usize = 4;

fn factory() -> RecorderFactory {
    sketched_latency_factory(DynamicAggregator::new(7, 8, 100.0, 1.0e7), 96)
}

fn workload() -> Vec<DigestReport> {
    let agg = DynamicAggregator::new(7, 8, 100.0, 1.0e7);
    let mut out = Vec::new();
    for flow in 0..FLOWS {
        for pid in 0..(flow % 7) * 5 + 4 {
            let mut d = Digest::new(1);
            for hop in 1..=HOPS {
                agg.encode_hop(
                    flow * 1_000 + pid,
                    hop,
                    350.0 * hop as f64 + (flow % 5) as f64 * 120.0,
                    &mut d,
                    0,
                );
            }
            out.push(DigestReport::new(
                flow,
                flow * 1_000 + pid,
                d,
                HOPS as u16,
                flow * 100 + pid,
            ));
        }
    }
    out
}

/// Even flows record latency, odd flows trace their path.
fn mixed_factory() -> RecorderFactory {
    let latency = factory();
    let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
    Arc::new(move |flow, report: &DigestReport| {
        if flow % 2 == 0 {
            return latency(flow, report);
        }
        let k = usize::from(report.path_len).max(1);
        Box::new(tracer.decoder((0..64).collect(), k)) as Box<dyn FlowRecorder>
    })
}

/// `workload()` with every odd flow's digests replaced by path-tracing
/// digests over a fixed 4-switch path, its timestamps shifted by
/// `generation`.
fn mixed_workload(generation: u64) -> Vec<DigestReport> {
    let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
    let mut reports = workload();
    for r in &mut reports {
        r.ts += generation * 1_000_000;
        if r.flow % 2 == 1 {
            let f = r.flow;
            r.digest =
                tracer.encode_path(r.pid, &[f % 64, (f + 9) % 64, (f + 23) % 64, (f + 40) % 64]);
        }
    }
    reports
}

fn config() -> CollectorConfig {
    CollectorConfig {
        shards: 4,
        batch_size: 32,
        ..CollectorConfig::default()
    }
}

fn ingest(collector: &Collector, reports: &[DigestReport]) {
    let mut h = collector.register_producer();
    for r in reports {
        h.push(r.clone()).expect("collector alive");
    }
    h.flush().expect("flush");
    collector.barrier().expect("barrier");
}

fn plans() -> Vec<pint::QueryPlan> {
    vec![
        TelemetryQuery::new().plan().expect("valid plan"),
        TelemetryQuery::new().top_k(5).plan().expect("valid plan"),
        TelemetryQuery::new().stats().plan().expect("valid plan"),
        TelemetryQuery::new().since(500).plan().expect("valid plan"),
    ]
}

fn main() {
    let started = Instant::now();
    let mut path = std::env::temp_dir();
    path.push(format!("pint-persist-replay-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let reports = workload();
    let registry = MetricsRegistry::new();

    // ---- Phase 1: a journaling collector ingests, then "crashes" ----
    println!(
        "journaling {} digests across {FLOWS} flows to {}…",
        reports.len(),
        path.display()
    );
    {
        let writer = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .expect("create store");
        let victim = Collector::spawn(config(), factory());
        victim.attach_store(Journal::spawn(writer, JournalConfig::default(), &registry));
        ingest(&victim, &reports);
        victim.flush_store();
        // Process death: the collector is dropped without shutdown…
    }
    // …and the crash tore a half-written record at the file's tail.
    let mut bytes = std::fs::read(&path).expect("read store file");
    bytes.extend_from_slice(&[0x5A; 17]);
    std::fs::write(&path, &bytes).expect("append torn tail");

    // ---- Phase 2: restore, and prove equivalence to a live twin -----
    let twin = Collector::spawn(config(), factory());
    ingest(&twin, &reports);

    let reader = StoreReader::open(&path).expect("reopen store");
    assert!(!reader.tail().is_clean(), "crash residue was detected");
    let (restored, report) = Collector::restore(config(), factory(), &reader).expect("restore");
    println!(
        "restored from journal: {} batches, {} digests, {} duplicates suppressed, torn tail at {} bytes",
        report.batches,
        report.digests,
        report.duplicates,
        reader.valid_len()
    );
    assert_eq!(report.digests, reports.len() as u64);

    for plan in plans() {
        let a = restored.query(&plan).expect("restored query").encode();
        let b = twin.query(&plan).expect("twin query").encode();
        assert_eq!(a, b, "restored answers must be byte-identical");
    }
    assert_eq!(restored.watermark(), twin.watermark());
    println!(
        "restored collector answers {} query plans byte-identically to the never-crashed twin",
        plans().len()
    );

    // ---- Phase 3: replay the log into a third collector, paced ------
    let replayed = Collector::spawn(config(), factory());
    let clock = VirtualClock::new();
    let mut last_batch_ts = 0u64;
    let stats = {
        let mut handle = replayed.register_producer();
        let stats = Replayer::new(&reader).observed(&registry).replay_paced(
            &clock,
            &mut |_source, reports| {
                last_batch_ts = reports.iter().map(|r| r.ts).max().unwrap_or(last_batch_ts);
                for r in reports.drain(..) {
                    handle.push(r).expect("replay push");
                }
            },
        );
        let stats = stats.expect("replay reads the log back");
        handle.flush().expect("replay flush");
        stats
    };
    replayed.barrier().expect("replay barrier");
    println!(
        "replayed {} batches ({} digests, {} persisted duplicates suppressed); \
         virtual clock ended at t={}ns",
        stats.batches,
        stats.digests,
        stats.duplicates,
        clock.now_ns()
    );
    assert_eq!(stats.digests, reports.len() as u64);
    assert_eq!(
        clock.now_ns(),
        last_batch_ts,
        "paced replay leaves the clock on the last delivered batch's newest timestamp"
    );
    for plan in plans() {
        let a = replayed.query(&plan).expect("replayed query").encode();
        let b = twin.query(&plan).expect("twin query").encode();
        assert_eq!(a, b, "replayed answers must be byte-identical");
    }

    twin.shutdown();
    restored.shutdown();
    replayed.shutdown();
    std::fs::remove_file(&path).expect("cleanup");

    // ---- Phase 4: checkpoint mid-run, compact, restore ---------------
    let (first, second) = (mixed_workload(1), mixed_workload(2));
    {
        let writer = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions {
                max_bytes: Some(4 << 10),
                fsync: false,
            },
        )
        .expect("create store");
        let victim = Collector::spawn(config(), mixed_factory());
        victim.attach_store(Journal::spawn(writer, JournalConfig::default(), &registry));
        ingest(&victim, &first);
        assert!(victim.checkpoint(1).expect("checkpoint"), "store attached");
        ingest(&victim, &second);
        victim.flush_store();
    }
    let twin = Collector::spawn(config(), mixed_factory());
    ingest(&twin, &first);
    ingest(&twin, &second);
    let reader = StoreReader::open(&path).expect("reopen store");
    assert!(reader.is_compacted(), "the size bound compacted the log");
    let (restored, report) =
        Collector::restore(config(), mixed_factory(), &reader).expect("restore");
    assert_eq!(report.digests, second.len() as u64, "only the tail replays");
    let completion = TelemetryQuery::new()
        .path_completion()
        .plan()
        .expect("plan");
    let QueryResult::PathCompletion {
        complete,
        total: paths,
    } = twin.query(&completion).expect("twin query")
    else {
        unreachable!("a path-completion plan answers path completion")
    };
    for plan in plans() {
        let a = restored.query(&plan).expect("restored query").encode();
        let b = twin.query(&plan).expect("twin query").encode();
        assert_eq!(a, b, "compacted-restore answers must be byte-identical");
    }
    assert_eq!(restored.watermark(), twin.watermark());
    println!(
        "compacted log ({} bytes, {} records): checkpoint + {} replayed digests restore \
         {complete}/{paths} decoded paths and every plan byte-identically",
        reader.valid_len(),
        reader.records().len(),
        report.digests
    );
    twin.shutdown();
    restored.shutdown();
    std::fs::remove_file(&path).expect("cleanup");
    println!(
        "persist/replay OK in {:.2?}: crash → restore → replay → compacted restore, all byte-identical.",
        started.elapsed()
    );
}
