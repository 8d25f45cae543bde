//! Durable-store integration: crash-consistent restore, deterministic
//! replay, and spill persist-and-resume.
//!
//! The load-bearing property: a collector that **crashes and restores
//! from its journal answers every query plan byte-identically to a
//! twin that never restarted** — same rows, same ordering, same
//! sketches (coin state included), same watermarks. That holds because
//! the journal tees applied batches in per-shard FIFO order and replay
//! re-batches them through the same flow→shard hash, so each shard
//! re-applies exactly the sequence it originally saw.
//!
//! Checkpoints keep that guarantee: a checkpoint stores every flow's
//! exact recorder state, restore loads it into the ordinary shard
//! tables and replays only the deltas it does not cover, so
//! uncompacted, compacted and checkpoint-only logs all restore to a
//! collector indistinguishable from the twin. The workload mixes
//! latency, path-tracing and frequent-values flows so every recorder
//! kind crosses a checkpoint, path decoders part-way through decoding.

use pint::collector::{Collector, CollectorConfig, CollectorError, RecorderFactory, SnapshotFrame};
use pint::core::dynamic::{DynamicAggregator, DynamicRecorder, FrequentValuesRecorder};
use pint::core::{Digest, DigestReport, FlowRecorder, PathTracer, TracerConfig};
use pint::fleet::{
    DigestForwarder, DigestServer, DigestServerConfig, FleetAggregator, FleetConfig,
    ForwarderConfig,
};
use pint::obs::MetricsRegistry;
use pint::query::{QueryResult, TelemetryQuery};
use pint::wire::store::{CheckpointRecord, CoveredSource, StoreKind, StoreRecord, Superblock};
use pint::wire::{
    frame_into, parse_frame, DigestBatch, FrameType, WireDecode, WireEncode, WireReader, WireWriter,
};
use pint::{
    Journal, JournalConfig, Replayer, SpillQueue, StoreError, StoreOptions, StoreReader,
    StoreWriter,
};
use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const HOPS: usize = 3;

fn unique_path(tag: &str) -> PathBuf {
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let mut p = std::env::temp_dir();
    p.push(format!(
        "pint-persist-{tag}-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn codec() -> DynamicAggregator {
    DynamicAggregator::new(7, 8, 100.0, 1.0e7)
}

fn tracer() -> PathTracer {
    PathTracer::new(TracerConfig::paper(8, 2, 5))
}

/// Frequent-values recorders carry 4 counters per hop, so the 6
/// distinct values a flow emits keep evicting.
fn frequent() -> FrequentValuesRecorder {
    FrequentValuesRecorder::new(11, HOPS, 4)
}

/// Flow `f` records latency (`f % 3 == 0`), its path (`1`) or its
/// frequent values (`2`).
fn factory() -> RecorderFactory {
    let (agg, tracer) = (codec(), tracer());
    Arc::new(move |flow, report: &DigestReport| {
        let k = usize::from(report.path_len).max(1);
        match flow % 3 {
            0 => {
                Box::new(DynamicRecorder::new_sketched(agg.clone(), k, 96)) as Box<dyn FlowRecorder>
            }
            1 => Box::new(tracer.decoder((0..40).collect(), k)),
            _ => Box::new(FrequentValuesRecorder::new(11, k, 4)),
        }
    })
}

/// A deterministic mixed workload: `flows` flows, distinct packet
/// counts and timestamps, generation-offset so successive generations
/// never collide.
fn workload(generation: u64, flows: u64) -> Vec<DigestReport> {
    let (agg, tracer, freq) = (codec(), tracer(), frequent());
    let mut out = Vec::new();
    for flow in 0..flows {
        let packets = (flow % 5) * 4 + 3;
        let path = [flow % 40, (flow * 7 + 3) % 40, (flow * 13 + 5) % 40];
        for pid in 0..packets {
            let pid_ = generation * 1_000_000 + flow * 1_000 + pid;
            let mut d = Digest::new(1);
            match flow % 3 {
                0 => (1..=HOPS).for_each(|hop| {
                    let v = 300.0 * hop as f64 + (flow % 4) as f64 * 250.0;
                    agg.encode_hop(pid_, hop, v, &mut d, 0)
                }),
                1 => d = tracer.encode_path(pid_, &path),
                _ => (1..=HOPS).for_each(|hop| freq.encode_hop(pid_, hop, pid_ % 6, &mut d, 0)),
            }
            let ts = generation * 100_000 + flow * 100 + pid;
            out.push(DigestReport::new(flow, pid_, d, HOPS as u16, ts));
        }
    }
    out
}

fn config() -> CollectorConfig {
    CollectorConfig {
        shards: 4,
        batch_size: 32,
        ..CollectorConfig::default()
    }
}

/// Every plan family the query tier answers, for equivalence sweeps.
fn plans() -> Vec<pint::QueryPlan> {
    vec![
        TelemetryQuery::new().plan().unwrap(),
        TelemetryQuery::new().top_k(3).plan().unwrap(),
        TelemetryQuery::new().flows(vec![0, 2, 5]).plan().unwrap(),
        TelemetryQuery::new().stats().plan().unwrap(),
        TelemetryQuery::new().top_k(4).stats().plan().unwrap(),
        TelemetryQuery::new().since(150).plan().unwrap(),
    ]
}

/// Asserts `restored` is indistinguishable from `twin`: every plan
/// byte for byte, the watermark, and the ingest/flow counters.
fn assert_twin(restored: &Collector, twin: &Collector) {
    for plan in plans() {
        assert_eq!(
            restored.query(&plan).unwrap().encode(),
            twin.query(&plan).unwrap().encode(),
            "restored and never-restarted answers must be byte-identical for {plan:?}"
        );
    }
    assert_eq!(restored.watermark(), twin.watermark());
    let (r, t) = (restored.stats(), twin.stats());
    assert_eq!((r.ingested, r.active_flows), (t.ingested, t.active_flows));
}

/// Journals `first`, checkpoints, journals `second`, then drops the
/// collector; `max_bytes` bounds the log (forcing compaction).
fn journal_with_checkpoint(
    path: &PathBuf,
    first: &[DigestReport],
    second: &[DigestReport],
    max_bytes: Option<u64>,
) {
    let writer = StoreWriter::create(
        path,
        Superblock::new(StoreKind::Collector, 1, 0),
        StoreOptions {
            max_bytes,
            fsync: false,
        },
    )
    .unwrap();
    let collector = Collector::spawn(config(), factory());
    collector.attach_store(Journal::spawn(
        writer,
        JournalConfig::default(),
        &MetricsRegistry::new(),
    ));
    ingest(&collector, first);
    assert!(collector.checkpoint(1).unwrap(), "store attached");
    ingest(&collector, second);
    collector.flush_store();
}

/// Attaches a fresh journal to an already populated collector and
/// checkpoints it: the log holds nothing but that checkpoint.
fn checkpoint_only_log(path: &PathBuf, live: &Collector) {
    let writer = StoreWriter::create(
        path,
        Superblock::new(StoreKind::Collector, 1, 0),
        StoreOptions::default(),
    )
    .unwrap();
    live.attach_store(Journal::spawn(
        writer,
        JournalConfig::default(),
        &MetricsRegistry::new(),
    ));
    assert!(live.checkpoint(1).unwrap(), "store attached");
    live.flush_store();
}

fn ingest(collector: &Collector, reports: &[DigestReport]) {
    let mut h = collector.register_producer();
    for r in reports {
        h.push(r.clone()).unwrap();
    }
    h.flush().unwrap();
    collector.barrier().unwrap();
}

/// Appends crash residue — a torn half-written record — to a closed
/// store file.
fn tear_tail(path: &PathBuf) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes.extend_from_slice(&[0x5A; 13]);
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn crashed_and_restored_collector_answers_byte_identically_to_a_twin() {
    let path = unique_path("equiv");
    let reports = workload(0, 24);

    // The victim: journaling attached, full workload applied, then the
    // process "dies" (drop drains the journal; the torn tail appended
    // after simulates a record half-written at the moment of death).
    {
        let writer = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        let registry = MetricsRegistry::new();
        let collector = Collector::spawn(config(), factory());
        collector.attach_store(Journal::spawn(writer, JournalConfig::default(), &registry));
        ingest(&collector, &reports);
        collector.flush_store();
    }
    tear_tail(&path);

    // The twin: identical pushes, no crash, no store.
    let twin = Collector::spawn(config(), factory());
    ingest(&twin, &reports);

    let reader = StoreReader::open(&path).unwrap();
    assert!(
        matches!(reader.tail(), pint::store::TailStatus::Torn { .. }),
        "the crash residue must be detected"
    );
    let (restored, report) = Collector::restore(config(), factory(), &reader).unwrap();
    assert_eq!(report.digests, reports.len() as u64);
    assert_eq!(report.duplicates, 0);
    assert_twin(&restored, &twin);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn kill_and_restore_soak_stays_equivalent_across_generations() {
    let path = unique_path("soak");
    let twin = Collector::spawn(config(), factory());
    let registry = MetricsRegistry::new();

    for generation in 0..3u64 {
        let reports = workload(generation, 16);
        let collector = if generation == 0 {
            let writer = StoreWriter::create(
                &path,
                Superblock::new(StoreKind::Collector, 1, 0),
                StoreOptions::default(),
            )
            .unwrap();
            let c = Collector::spawn(config(), factory());
            c.attach_store(Journal::spawn(writer, JournalConfig::default(), &registry));
            c
        } else {
            // Reopen truncates the torn tail; restore replays what
            // survived; the fresh journal numbers new deltas above the
            // persisted per-source floors so generations never collide.
            let (writer, tail) = StoreWriter::open(&path, StoreOptions::default()).unwrap();
            assert!(matches!(tail, pint::store::TailStatus::Torn { .. }));
            let reader = StoreReader::open(&path).unwrap();
            let (c, report) = Collector::restore(config(), factory(), &reader).unwrap();
            assert_eq!(report.duplicates, 0, "generation seqs must never collide");
            c.attach_store(Journal::spawn(writer, JournalConfig::default(), &registry));
            c
        };
        ingest(&collector, &reports);
        ingest(&twin, &reports);
        collector.flush_store();
        drop(collector); // kill
        tear_tail(&path);
    }

    let (writer, _tail) = StoreWriter::open(&path, StoreOptions::default()).unwrap();
    drop(writer); // truncation only
    let reader = StoreReader::open(&path).unwrap();
    let (survivor, _) = Collector::restore(config(), factory(), &reader).unwrap();
    for plan in plans() {
        assert_eq!(
            survivor.query(&plan).unwrap().encode(),
            twin.query(&plan).unwrap().encode(),
            "after 3 kill/restore cycles, {plan:?} must still match the twin"
        );
    }
    assert_eq!(survivor.watermark(), twin.watermark());
    std::fs::remove_file(&path).unwrap();
}

/// A size bound compacts the log down to the checkpoint and the deltas
/// after it: restore loads the checkpoint's recorder images, replays
/// the tail, and matches the twin exactly — totals included.
#[test]
fn compacted_restore_resumes_from_checkpoint_with_exact_totals() {
    let path = unique_path("compact");
    let (first, second) = (workload(0, 12), workload(1, 12));
    journal_with_checkpoint(&path, &first, &second, Some(2 << 10));
    let twin = Collector::spawn(config(), factory());
    ingest(&twin, &first);
    ingest(&twin, &second);

    let reader = StoreReader::open(&path).unwrap();
    assert!(
        reader.is_compacted(),
        "the size bound must have compacted (len {} records {})",
        reader.valid_len(),
        reader.records().len()
    );
    let (restored, report) = Collector::restore(config(), factory(), &reader).unwrap();
    assert_eq!(report.epoch, Some(1));
    assert_eq!(report.digests, second.len() as u64, "only the tail replays");
    assert_twin(&restored, &twin);
    std::fs::remove_file(&path).unwrap();
}

/// A journal attached to a collector that already holds state, then
/// checkpointed: the log holds only the checkpoint (nothing compacts,
/// there is no delta to drop), and restore must come back with the
/// whole collector — and come back right at another shard count too.
#[test]
fn checkpoint_only_log_restores_the_populated_collector() {
    let path = unique_path("ckpt-only");
    let live = Collector::spawn(config(), factory());
    ingest(&live, &workload(0, 12));
    checkpoint_only_log(&path, &live);
    let completion = TelemetryQuery::new().path_completion().plan().unwrap();
    let QueryResult::PathCompletion {
        complete,
        total: paths,
    } = live.query(&completion).unwrap()
    else {
        panic!("a path-completion plan answers path completion")
    };
    assert!(
        0 < complete && complete < paths,
        "{complete} of {paths} decoded"
    );
    let reader = StoreReader::open(&path).unwrap();
    assert!(!reader.is_compacted(), "nothing to compact away");
    let (restored, report) = Collector::restore(config(), factory(), &reader).unwrap();
    assert_eq!(report.epoch, Some(1));
    assert_eq!(report.digests, 0, "the checkpoint holds everything");
    assert_twin(&restored, &live);

    // Three shards instead of four: the same load path re-routes every
    // flow, and per-flow answers do not depend on the shard count.
    let three = CollectorConfig {
        shards: 3,
        ..config()
    };
    let (resharded, _) = Collector::restore(three, factory(), &reader).unwrap();
    for plan in plans() {
        assert_eq!(
            resharded.query(&plan).unwrap().encode(),
            live.query(&plan).unwrap().encode(),
            "a resharded restore must answer {plan:?} like the live collector"
        );
    }
    assert_eq!(resharded.stats().ingested, live.stats().ingested);
    std::fs::remove_file(&path).unwrap();
}

/// A checkpoint restored into a collector with a smaller flow cap is
/// held to that cap like live ingest would be: the loaded flows beyond
/// it are evicted oldest first and counted.
#[test]
fn restore_into_a_smaller_table_honours_its_cap() {
    let path = unique_path("ckpt-cap");
    let live = Collector::spawn(config(), factory());
    ingest(&live, &workload(0, 24));
    checkpoint_only_log(&path, &live);
    let reader = StoreReader::open(&path).unwrap();
    let small = CollectorConfig {
        max_flows_per_shard: 2,
        ..config()
    };
    let (restored, _) = Collector::restore(small, factory(), &reader).unwrap();
    let snap = restored.snapshot().unwrap();
    let stats = restored.stats();
    assert!(
        snap.num_flows() <= 4 * 2,
        "{} flows over the cap",
        snap.num_flows()
    );
    assert_eq!(stats.active_flows, snap.num_flows() as u64);
    assert_eq!(stats.evicted_lru, 24 - stats.active_flows);
    std::fs::remove_file(&path).unwrap();
}

/// Checkpoints in the summary-row `Snapshot` frame format cannot
/// rebuild recorders; restore refuses them with a typed error.
#[test]
fn snapshot_frame_checkpoint_is_refused() {
    let path = unique_path("ckpt-old");
    let live = Collector::spawn(config(), factory());
    ingest(&live, &workload(0, 6));
    {
        let mut writer = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        let snapshot = live.snapshot().unwrap();
        let payload = SnapshotFrame {
            collector_id: 0,
            epoch: 1,
            snapshot,
        };
        writer
            .append(&StoreRecord::Checkpoint(CheckpointRecord {
                source: 0,
                epoch: 1,
                covered: Vec::new(),
                payload: payload.to_frame_bytes(),
            }))
            .unwrap();
        writer.sync().unwrap();
    }
    let reader = StoreReader::open(&path).unwrap();
    let err = Collector::restore(config(), factory(), &reader).err();
    assert!(
        matches!(err, Some(CollectorError::RestoreFailed { .. })),
        "got {err:?}"
    );
    std::fs::remove_file(&path).unwrap();
}

/// A damaged checkpoint payload (whose record CRC was somehow intact)
/// either restores or fails with `RestoreFailed`: no shard panics on
/// the bytes, which would surface as a dead shard instead.
#[test]
fn damaged_checkpoint_payloads_fail_typed() {
    let path = unique_path("ckpt-damaged");
    let live = Collector::spawn(config(), factory());
    ingest(&live, &workload(0, 9));
    checkpoint_only_log(&path, &live);
    let reader = StoreReader::open(&path).unwrap();
    let StoreRecord::Checkpoint(good) = reader.record(0).unwrap() else {
        panic!("a checkpoint-only log");
    };
    let restore = |payload: Vec<u8>| {
        let mut writer = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        writer
            .append(&StoreRecord::Checkpoint(CheckpointRecord {
                payload,
                ..good.clone()
            }))
            .unwrap();
        drop(writer);
        let reader = StoreReader::open(&path).unwrap();
        match Collector::restore(config(), factory(), &reader) {
            Ok(_) | Err(CollectorError::RestoreFailed { .. }) => {}
            Err(e) => panic!("damaged payload killed a shard: {e:?}"),
        }
    };
    let len = good.payload.len();
    for cut in (0..len).step_by(len / 40 + 1) {
        restore(good.payload[..cut].to_vec());
    }
    for i in (0..len).step_by(len / 60 + 1) {
        let mut bad = good.payload.clone();
        bad[i] ^= 0x5A;
        restore(bad);
    }
    std::fs::remove_file(&path).unwrap();
}

/// The reader holds no copy of the file, so a journal changed after it
/// was opened — a byte flipped in place, the tail cut, everything past
/// the superblock cut — fails replay and restore with typed errors:
/// every record is CRC-checked again as it is read back.
#[test]
fn a_journal_changed_under_the_reader_fails_replay_and_restore_typed() {
    let path = unique_path("changed");
    journal_with_checkpoint(&path, &workload(0, 12), &workload(1, 12), None);
    let reader = StoreReader::open(&path).unwrap();
    let records = reader.records().len();
    assert!(
        reader.newest_checkpoint().unwrap() + 1 < records,
        "deltas follow the checkpoint"
    );
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .unwrap();
    let len = reader.valid_len();
    let assert_typed = |what: &str| {
        let replay = Replayer::new(&reader).replay(&mut |_, _| {});
        assert!(
            matches!(replay, Err(StoreError::Changed { .. })),
            "{what}: {replay:?}"
        );
        assert!(matches!(
            reader.record(records - 1),
            Err(StoreError::Changed { .. })
        ));
        match Collector::restore(config(), factory(), &reader) {
            Err(CollectorError::RestoreFailed { .. }) => {}
            Err(e) => panic!("{what}: restore failed with {e:?}, not RestoreFailed"),
            Ok(_) => panic!("{what}: restore read a changed journal"),
        }
    };

    let mut byte = [0u8];
    file.read_exact_at(&mut byte, len - 3).unwrap();
    file.write_all_at(&[byte[0] ^ 0x5A], len - 3).unwrap();
    assert_typed("flipped");
    file.set_len(len - 3).unwrap();
    assert_typed("tail cut");
    file.set_len(24).unwrap();
    assert_typed("records cut");
    assert!(matches!(
        reader.checkpoints().next_back(),
        Some(Err(StoreError::Changed { .. }))
    ));
    std::fs::remove_file(&path).unwrap();
}

/// Journaled from the start, checkpointed partway, ingesting on:
/// restore loads the checkpoint, replays only the deltas after it, and
/// stays byte-identical to a twin.
#[test]
fn uncompacted_log_with_a_checkpoint_replays_byte_identically() {
    let path = unique_path("ckpt-mid");
    let (first, second) = (workload(0, 12), workload(1, 12));
    journal_with_checkpoint(&path, &first, &second, None);
    let twin = Collector::spawn(config(), factory());
    ingest(&twin, &first);
    ingest(&twin, &second);

    let reader = StoreReader::open(&path).unwrap();
    assert!(!reader.is_compacted());
    assert!(reader.newest_checkpoint().is_some());
    let (restored, report) = Collector::restore(config(), factory(), &reader).unwrap();
    assert_eq!(
        report.digests,
        second.len() as u64,
        "the checkpoint covers the rest"
    );
    assert_twin(&restored, &twin);
    std::fs::remove_file(&path).unwrap();
}

/// The snapshot/append race the explicit covered list fixes: shards
/// keep applying (and teeing) deltas while a checkpoint is being
/// taken, so deltas can land in the file between the snapshot and the
/// checkpoint record. Those deltas are not in the snapshot payload —
/// compaction must keep them and restore must replay them, or digests
/// silently vanish. Checkpointing concurrently with live ingest and a
/// compacting journal must therefore never lose a single digest.
#[test]
fn checkpoints_under_live_ingest_never_lose_digests() {
    let path = unique_path("race");
    let reports = workload(0, 24);
    let total = reports.len() as u64;
    {
        let writer = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions {
                max_bytes: Some(2 << 10),
                fsync: false,
            },
        )
        .unwrap();
        let registry = MetricsRegistry::new();
        let collector = Arc::new(Collector::spawn(config(), factory()));
        collector.attach_store(Journal::spawn(writer, JournalConfig::default(), &registry));

        let producer = {
            let collector = Arc::clone(&collector);
            let reports = reports.clone();
            std::thread::spawn(move || {
                let mut h = collector.register_producer();
                for r in reports {
                    h.push(r).unwrap();
                    // Flush every push: many small deltas in flight, so
                    // checkpoints race mid-stream instead of seeing
                    // everything-or-nothing.
                    h.flush().unwrap();
                }
            })
        };
        for epoch in 1..=8u64 {
            assert!(collector.checkpoint(epoch).unwrap());
            std::thread::sleep(Duration::from_millis(2));
        }
        producer.join().unwrap();
        collector.barrier().unwrap();
        collector.flush_store();
    }

    let reader = StoreReader::open(&path).unwrap();
    assert!(
        reader.is_compacted(),
        "the size bound must have compacted mid-ingest"
    );
    let (restored, _) = Collector::restore(config(), factory(), &reader).unwrap();
    let snap = restored.snapshot().unwrap();
    let stats = snap.execute(&TelemetryQuery::new().stats().plan().unwrap());
    let Ok(QueryResult::Stats(stats)) = stats else {
        panic!("a stats plan answers stats: {stats:?}")
    };
    assert_eq!(
        stats.packets, total,
        "every digest pushed must survive checkpoint+compaction+restore"
    );
    assert_eq!(snap.ingested, total);
    assert_eq!(snap.num_flows(), 24);
    std::fs::remove_file(&path).unwrap();
}

/// The snapshot half of fleet persistence: every applied snapshot is
/// journaled as a checkpoint (a superseded epoch included — restore's
/// epoch gate orders them again), a stale arrival is not journaled,
/// and a torn log restores an aggregator that answers every plan
/// byte-identically to one that was never persisted.
#[test]
fn fleet_aggregator_journals_and_restores_snapshots() {
    let path = unique_path("fleet");
    let snapshot_of = |collector: &Collector, id: u64, epoch: u64| {
        collector.export_snapshot_frame(id, epoch).unwrap()
    };
    let c1 = Collector::spawn(config(), factory());
    ingest(&c1, &workload(0, 8));
    let c2 = Collector::spawn(config(), factory());
    ingest(&c2, &workload(1, 6));

    {
        let writer = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Fleet, 0, 0),
            StoreOptions::default(),
        )
        .unwrap();
        let registry = MetricsRegistry::new();
        let mut agg = FleetAggregator::new(FleetConfig::default());
        agg.attach_store(Journal::spawn(writer, JournalConfig::default(), &registry));
        agg.ingest_frame(&snapshot_of(&c1, 1, 5)).unwrap();
        agg.ingest_frame(&snapshot_of(&c2, 2, 3)).unwrap();
        // A newer epoch for collector 1 supersedes the first.
        agg.ingest_frame(&snapshot_of(&c1, 1, 6)).unwrap();
        // A stale epoch is discarded before the journal sees it.
        agg.ingest_frame(&snapshot_of(&c2, 2, 2)).unwrap();
        assert_eq!(agg.stats().snapshots_stale, 1);
        agg.flush_store();
    }
    tear_tail(&path);

    let reader = StoreReader::open(&path).unwrap();
    assert_eq!(reader.records().len(), 3);
    assert!(
        reader
            .records()
            .all(|r| matches!(r.unwrap(), StoreRecord::Checkpoint(c) if c.covered.is_empty())),
        "fleet logs are checkpoint-only, with nothing to cover"
    );
    let (restored, report) = FleetAggregator::restore(FleetConfig::default(), &reader).unwrap();
    assert_eq!(report.checkpoints_applied, 3);
    assert_eq!(restored.collector_epochs(), vec![(1, 6), (2, 3)]);
    assert_same_fleet_answers(&restored, &[(&c1, 1, 6), (&c2, 2, 3)]);
    std::fs::remove_file(&path).unwrap();
}

/// Fleet logs written while the aggregator also took digest batches
/// hold `Delta` records between their checkpoints. Restore skips them
/// and rebuilds the snapshot state from the checkpoints alone.
#[test]
fn fleet_log_with_delta_records_still_restores() {
    let path = unique_path("fleet-deltas");
    let c1 = Collector::spawn(config(), factory());
    ingest(&c1, &workload(0, 8));
    let c2 = Collector::spawn(config(), factory());
    ingest(&c2, &workload(1, 6));

    {
        let mut writer = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Fleet, 0, 0),
            StoreOptions::default(),
        )
        .unwrap();
        let delta = |epoch: u64, seq: u64| StoreRecord::Delta {
            epoch,
            batch: DigestBatch {
                source: 7,
                seq,
                reports: workload(2 + seq, 2),
                trace: None,
            },
        };
        let checkpoint = |collector: &Collector, id: u64, epoch: u64, seqs: u64| {
            StoreRecord::Checkpoint(CheckpointRecord {
                source: id,
                epoch,
                covered: vec![CoveredSource::floor_only(7, seqs)],
                payload: collector.export_snapshot_frame(id, epoch).unwrap(),
            })
        };
        writer.append(&delta(0, 1)).unwrap();
        writer.append(&checkpoint(&c1, 1, 5, 1)).unwrap();
        writer.append(&delta(5, 2)).unwrap();
        writer.append(&checkpoint(&c2, 2, 3, 2)).unwrap();
        writer.append(&delta(3, 3)).unwrap();
        writer.sync().unwrap();
    }

    let reader = StoreReader::open(&path).unwrap();
    assert_eq!(reader.records().len(), 5);
    let (restored, report) = FleetAggregator::restore(FleetConfig::default(), &reader).unwrap();
    assert_eq!(
        (report.checkpoints_applied, report.checkpoints_stale),
        (2, 0)
    );
    assert_eq!(restored.collector_epochs(), vec![(1, 5), (2, 3)]);
    assert_same_fleet_answers(&restored, &[(&c1, 1, 5), (&c2, 2, 3)]);
    std::fs::remove_file(&path).unwrap();
}

/// A fleet journals each applied snapshot as the bytes it received:
/// every checkpoint payload is byte-equal to its frame, whether the
/// frame arrived as bytes (kept undecoded; one with a padded varint, so
/// a decode and re-encode would show) or as a decoded `SnapshotFrame`,
/// and an aggregator restored from the log answers every plan exactly
/// as the live one does.
#[test]
fn fleet_journal_holds_each_frame_as_received() {
    let path = unique_path("fleet-frames");
    let c1 = Collector::spawn(config(), factory());
    ingest(&c1, &workload(0, 8));
    let c2 = Collector::spawn(config(), factory());
    ingest(&c2, &workload(1, 6));
    let received = [
        c1.export_snapshot_frame(1, 5).unwrap(),
        padded_epoch(&c2.export_snapshot_frame(2, 3).unwrap()),
        c1.export_snapshot_frame(1, 6).unwrap(),
    ];
    let decoded = c2.export_snapshot_frame(2, 4).unwrap();
    let stale = c2.export_snapshot_frame(2, 2).unwrap();

    let writer = StoreWriter::create(
        &path,
        Superblock::new(StoreKind::Fleet, 0, 0),
        StoreOptions::default(),
    )
    .unwrap();
    let mut live = FleetAggregator::new(FleetConfig::default());
    live.attach_store(Journal::spawn(
        writer,
        JournalConfig::default(),
        &MetricsRegistry::new(),
    ));
    for frame in &received {
        live.ingest_frame(frame).unwrap();
    }
    let (_, payload) = parse_frame(&decoded).unwrap();
    assert!(live.apply_snapshot(SnapshotFrame::decode(payload).unwrap()));
    live.ingest_frame(&stale).unwrap();
    assert_eq!(live.stats().snapshots_stale, 1);
    live.flush_store();

    let reader = StoreReader::open(&path).unwrap();
    let journaled: Vec<Vec<u8>> = reader
        .records()
        .map(|r| match r.unwrap() {
            StoreRecord::Checkpoint(c) => c.payload,
            other => panic!("fleet logs are checkpoint-only: {other:?}"),
        })
        .collect();
    let mut applied: Vec<&[u8]> = received.iter().map(|f| &f[..]).collect();
    applied.push(&decoded);
    assert!(journaled == applied, "every checkpoint is its frame");

    let (restored, report) = FleetAggregator::restore(FleetConfig::default(), &reader).unwrap();
    assert_eq!(report.checkpoints_applied, 4);
    assert_eq!(restored.collector_epochs(), live.collector_epochs());
    for plan in plans() {
        assert_eq!(
            restored.query(&plan).unwrap().encode(),
            live.query(&plan).unwrap().encode(),
            "{plan:?}"
        );
    }
    drop(live);
    std::fs::remove_file(&path).unwrap();
}

/// `frame` with its epoch varint padded to two bytes: a frame that
/// decodes, but that decoding and re-encoding would not reproduce.
fn padded_epoch(frame: &[u8]) -> Vec<u8> {
    struct Raw(Vec<u8>);
    impl WireEncode for Raw {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
    }
    let (_, payload) = parse_frame(frame).unwrap();
    let mut r = WireReader::new(payload);
    let (id, epoch) = (r.get_varint().unwrap(), r.get_varint().unwrap());
    assert!(epoch < 0x80, "a one-byte epoch");
    let mut padded = Vec::new();
    WireWriter::new(&mut padded).put_varint(id);
    padded.extend([epoch as u8 | 0x80, 0]);
    padded.extend_from_slice(&payload[payload.len() - r.remaining()..]);
    let mut out = Vec::new();
    frame_into(FrameType::Snapshot, &Raw(padded), &mut out);
    out
}

/// Asserts `restored` answers every plan byte-identically to a
/// never-persisted aggregator fed `(collector, id, epoch)` snapshots.
fn assert_same_fleet_answers(restored: &FleetAggregator, pods: &[(&Collector, u64, u64)]) {
    let mut direct = FleetAggregator::new(FleetConfig::default());
    for &(collector, id, epoch) in pods {
        direct
            .ingest_frame(&collector.export_snapshot_frame(id, epoch).unwrap())
            .unwrap();
    }
    for plan in plans() {
        assert_eq!(
            restored.view().execute(&plan).unwrap().encode(),
            direct.view().execute(&plan).unwrap().encode(),
        );
    }
}

#[test]
fn forwarder_spill_persists_across_runs_and_resumes_with_exact_accounting() {
    let spill_path = unique_path("spill");
    let report = |pid: u64| DigestReport::new(pid % 3, pid, Digest::new(1), 3, pid);

    // Reserve an address with no listener: run 1 faces a dead upstream.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = placeholder.local_addr().unwrap();
    drop(placeholder);

    // Run 1: tiny queue, every push seals a batch; overflow spills to
    // disk instead of shedding.
    let fwd = DigestForwarder::connect(
        addr,
        ForwarderConfig {
            source: 9,
            batch_digests: 1,
            queue_batches: 2,
            retry_base: Duration::from_millis(5),
            retry_max: Duration::from_millis(20),
            spill: Some(SpillQueue::open(&spill_path, 9).unwrap()),
            ..ForwarderConfig::default()
        },
    );
    for pid in 0..20 {
        fwd.push(report(pid));
    }
    let stats = fwd.shutdown(Duration::from_millis(100));
    assert!(stats.accounted(), "{stats:?}");
    assert_eq!(stats.sent, 20);
    assert_eq!(stats.delivered, 0);
    assert_eq!(stats.spilled, 18, "all but the queue-resident 2 spilled");
    assert_eq!(stats.resumed, 0, "never connected, nothing resumed");
    assert_eq!(
        stats.shed, 20,
        "per-run books close: spilled-but-persisted counts as shed"
    );

    // The spill file survives run 1 with the 18 displaced batches.
    {
        let q = SpillQueue::open(&spill_path, 9).unwrap();
        assert_eq!(q.len(), 18);
        assert_eq!(q.max_seq(), 18);
    }

    // Run 2: upstream is alive; a successor forwarder on the same
    // spill file resumes the leftovers and ships fresh traffic, with
    // fresh seqs numbered above everything ever spilled.
    let applied = Arc::new(AtomicU64::new(0));
    let sink = Arc::clone(&applied);
    let server = DigestServer::bind(
        "127.0.0.1:0",
        DigestServerConfig::default(),
        Box::new(move |_src, reports| {
            sink.fetch_add(reports.len() as u64, Ordering::Relaxed);
        }),
    )
    .unwrap();
    let fwd = DigestForwarder::connect(
        server.local_addr(),
        ForwarderConfig {
            source: 9,
            batch_digests: 4,
            queue_batches: 8,
            spill: Some(SpillQueue::open(&spill_path, 9).unwrap()),
            ..ForwarderConfig::default()
        },
    );
    for pid in 100..110 {
        fwd.push(report(pid));
    }
    let stats = fwd.shutdown(Duration::from_secs(10));
    assert!(stats.accounted(), "{stats:?}");
    assert_eq!(stats.resumed, 18, "every persisted leftover resumed");
    assert_eq!(
        stats.sent,
        18 + 3,
        "leftovers join this run's books + 3 fresh"
    );
    assert_eq!(stats.delivered + stats.deduped, 21, "{stats:?}");
    assert_eq!(stats.shed, 0, "{stats:?}");
    assert_eq!(stats.digests_delivered, 18 + 10);
    assert_eq!(
        applied.load(Ordering::Relaxed),
        28,
        "receiver applied the 18 persisted + 10 fresh digests exactly once"
    );
    let server_stats = server.shutdown();
    assert_eq!(server_stats.digests, 28);
    std::fs::remove_file(&spill_path).unwrap();
}
