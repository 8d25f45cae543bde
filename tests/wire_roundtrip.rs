//! Wire-codec round-trip properties.
//!
//! The load-bearing property for the fleet tier: serializing a KLL
//! sketch and merging the decoded copies is *exactly* equivalent to
//! merging the originals — not approximately. This holds because the
//! sketch's compaction randomness is an explicit serialized coin state,
//! so `decode(encode(A))` is structurally equal to `A` and makes the
//! same coin flips forever after. The fleet view's determinism
//! (arrival-order invariance, TCP ≡ in-memory) reduces to this.
//!
//! The dual property: corrupted, truncated, or future-version bytes
//! are rejected with *typed* errors — decoding never panics, because
//! frames come off the network.
//!
//! The same discipline holds one layer down, for bytes that come off
//! *disk*: a persisted `pint-store` log fed truncated, bit-flipped, or
//! future-version images must never panic — a damaged prefix is a
//! typed [`StoreError`], and a damaged tail is a torn-tail *verdict*
//! with every intact leading record still readable.
//!
//! Recorder images — the per-flow state a collector checkpoint stores —
//! obey both: a recorder loaded from `decode(encode(image))` answers
//! and evolves exactly like the original, and damaged image bytes are
//! a typed error or a loadable image, never a panic.
//!
//! A fleet aggregator checks a snapshot frame with a walk that builds
//! nothing and decodes it only when a read needs it. The walk must
//! accept exactly the frames the decoder accepts, with the same error,
//! and a fleet holding an accepted frame undecoded must answer as the
//! eagerly decoded snapshot does — over truncated, bit-flipped,
//! reordered, duplicated and hostile-count input alike.

use pint::collector::wire::SnapshotFrame;
use pint::collector::{CollectorSnapshot, FlowSummary, ShardSnapshot};
use pint::core::dynamic::{DynamicAggregator, DynamicRecorder, FrequentValuesRecorder};
use pint::core::{
    Digest, DigestReport, FlowRecorder, ImageError, PathProgress, PathTracer, RecorderImage,
    RecorderKind, TracerConfig,
};
use pint::fleet::{FleetAggregator, FleetConfig, FleetView};
use pint::obs::{TraceDump, TraceEvent, TraceStage};
use pint::sketches::KllSketch;
use pint::wire::{
    parse_frame, AckStatus, BatchAck, DigestBatch, FrameType, TraceContext, TraceMsg, TraceReport,
    TraceRequest, WireDecode, WireEncode, WireError, WireWriter, HEADER_LEN, VERSION,
};
use pint::{QueryPlan, TelemetryQuery};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_sketch(k: usize, seed: u64, items: usize, spread: u64) -> KllSketch {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sk = KllSketch::with_seed(k, seed ^ 0xC0DE);
    for _ in 0..items {
        sk.update(rng.gen_range(0..spread.max(1)));
    }
    sk
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// decode(encode(A)) is structurally equal to A — coin state
    /// included — for arbitrary sketch shapes.
    #[test]
    fn kll_decode_encode_is_identity(
        k in 8usize..128,
        seed in any::<u64>(),
        items in 0usize..20_000,
        spread in prop::sample::select(vec![1u64, 100, 1 << 20, u64::MAX]),
    ) {
        let sk = random_sketch(k, seed, items, spread);
        let decoded = KllSketch::decode(&sk.encode()).unwrap();
        prop_assert_eq!(&decoded, &sk);
    }

    /// merge(decode(encode(A)), decode(encode(B))) ≡ merge(A, B),
    /// exactly: identical retained items AND identical answers for any
    /// later query or update.
    #[test]
    fn kll_merge_commutes_with_codec(
        ka in 8usize..96,
        kb in 8usize..96,
        seed in any::<u64>(),
        items_a in 1usize..15_000,
        items_b in 1usize..15_000,
    ) {
        let a = random_sketch(ka, seed, items_a, 1 << 30);
        let b = random_sketch(kb, seed ^ 0xB, items_b, 1 << 24);

        let mut direct = a.clone();
        direct.merge(&b);

        let mut via_wire = KllSketch::decode(&a.encode()).unwrap();
        via_wire.merge(&KllSketch::decode(&b.encode()).unwrap());

        prop_assert_eq!(&via_wire, &direct, "merge must commute with the codec");
        // And the merged results keep agreeing under further updates
        // (same coin state ⇒ same compactions).
        let mut direct2 = direct.clone();
        let mut via2 = via_wire.clone();
        for v in 0..500u64 {
            direct2.update(v * 7);
            via2.update(v * 7);
        }
        prop_assert_eq!(via2, direct2);
    }

    /// Any truncation of a valid sketch encoding is a typed error;
    /// any single-byte corruption either errors or decodes — never
    /// panics either way.
    #[test]
    fn kll_corruption_never_panics(
        k in 8usize..64,
        seed in any::<u64>(),
        items in 1usize..5_000,
        flip in any::<u8>(),
    ) {
        let sk = random_sketch(k, seed, items, 1 << 16);
        let bytes = sk.encode();
        for cut in 0..bytes.len() {
            prop_assert!(KllSketch::decode(&bytes[..cut]).is_err(), "cut at {}", cut);
        }
        let mut corrupt = bytes.clone();
        let idx = (seed as usize) % corrupt.len();
        corrupt[idx] ^= flip;
        let _ = KllSketch::decode(&corrupt); // Err or Ok, but no panic
    }

    /// The edge-ingest frames round-trip exactly: a sequence-numbered
    /// `DigestBatch` and its `BatchAck` survive encode→frame→decode
    /// with every field intact.
    #[test]
    fn digest_batch_and_ack_roundtrip(
        source in any::<u64>(),
        seq in any::<u64>(),
        n in 0usize..64,
        seed in any::<u64>(),
        dup in any::<bool>(),
        traced in any::<bool>(),
        origin_ns in any::<u64>(),
        trace_id in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let batch = DigestBatch {
            source,
            seq,
            reports: (0..n)
                .map(|_| {
                    let mut d = Digest::new(rng.gen_range(0..4));
                    for lane in 0..d.lanes() {
                        d.set(lane, rng.gen());
                    }
                    DigestReport::new(
                        rng.gen(),
                        rng.gen(),
                        d,
                        (rng.gen::<u64>() % 64) as u16,
                        rng.gen(),
                    )
                })
                .collect(),
            trace: traced.then_some(TraceContext { origin_ns, trace_id }),
        };
        let framed = batch.to_frame_bytes();
        let (ty, payload) = parse_frame(&framed).unwrap();
        prop_assert_eq!(ty, pint::wire::FrameType::DigestBatch);
        let decoded = DigestBatch::decode(payload).unwrap();
        prop_assert_eq!(&decoded, &batch);

        // The trace context is a *versioned* trailing extension: the
        // same batch without it encodes to a strict prefix, and that
        // extension-less encoding (what a pre-tracing sender emits)
        // decodes cleanly with no context.
        let untraced = DigestBatch { trace: None, ..batch.clone() };
        let old_payload = untraced.encode();
        prop_assert_eq!(&payload[..old_payload.len()], &old_payload[..]);
        prop_assert_eq!(DigestBatch::decode(&old_payload).unwrap(), untraced);

        let ack = BatchAck {
            seq,
            status: if dup { AckStatus::Duplicate } else { AckStatus::Applied },
        };
        let framed = ack.to_frame_bytes();
        let (ty, payload) = parse_frame(&framed).unwrap();
        prop_assert_eq!(ty, pint::wire::FrameType::BatchAck);
        prop_assert_eq!(BatchAck::decode(payload).unwrap(), ack);
    }

    /// Hostile bytes against the edge-ingest decoders: every
    /// truncation is a typed error, every single-byte corruption is a
    /// typed error or a decode — never a panic. Frames cross trust
    /// boundaries (edge processes dial in over the network).
    #[test]
    fn digest_batch_and_ack_corruption_never_panics(
        source in any::<u64>(),
        seq in any::<u64>(),
        n in 1usize..32,
        flip in 1u8..=255,
    ) {
        let batch = DigestBatch {
            source,
            seq,
            reports: (0..n)
                .map(|i| DigestReport::new(i as u64, seq ^ i as u64, Digest::new(1), 3, 0))
                .collect(),
            // Traced, so corruption also exercises the extension bytes.
            trace: Some(TraceContext { origin_ns: seq, trace_id: source }),
        };
        for good in [batch.to_frame_bytes(), BatchAck { seq, status: AckStatus::Applied }.to_frame_bytes()] {
            for cut in 0..good.len() {
                prop_assert!(parse_frame(&good[..cut]).is_err(), "cut at {}", cut);
            }
            // Future-version bytes are rejected up front.
            let mut future = good.clone();
            future[4] = VERSION + 1;
            prop_assert!(matches!(
                parse_frame(&future),
                Err(WireError::UnsupportedVersion { .. })
            ));
            for i in 0..good.len() {
                let mut corrupt = good.clone();
                corrupt[i] ^= flip;
                if let Ok((ty, payload)) = parse_frame(&corrupt) {
                    match ty {
                        pint::wire::FrameType::DigestBatch => { let _ = DigestBatch::decode(payload); }
                        pint::wire::FrameType::BatchAck => { let _ = BatchAck::decode(payload); }
                        _ => {}
                    }
                }
            }
        }
    }

    /// The pipeline-tracing frames round-trip exactly — request,
    /// report, and an arbitrary event dump — and hostile bytes
    /// (truncations, bit flips) are typed errors or clean decodes,
    /// never panics.
    #[test]
    fn trace_dump_frames_roundtrip_and_never_panic(
        request_id in any::<u64>(),
        source in any::<u64>(),
        n in 0usize..64,
        seed in any::<u64>(),
        dropped in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dump = TraceDump {
            events: (0..n)
                .map(|_| TraceEvent {
                    tick_ns: rng.gen(),
                    stage: TraceStage::from_u8(rng.gen_range(0..6)).unwrap(),
                    source: rng.gen(),
                    seq: rng.gen(),
                    shard: rng.gen(),
                })
                .collect(),
            dropped,
        };

        let mut req = Vec::new();
        pint::wire::frame_into(
            pint::wire::FrameType::TraceDump,
            &TraceRequest { request_id },
            &mut req,
        );
        let (ty, payload) = parse_frame(&req).unwrap();
        prop_assert_eq!(ty, pint::wire::FrameType::TraceDump);
        prop_assert_eq!(
            TraceMsg::decode(payload).unwrap(),
            TraceMsg::Request(TraceRequest { request_id })
        );

        let report = TraceReport { request_id, source, dump };
        let mut framed = Vec::new();
        pint::wire::frame_into(pint::wire::FrameType::TraceDump, &report, &mut framed);
        let (ty, payload) = parse_frame(&framed).unwrap();
        prop_assert_eq!(ty, pint::wire::FrameType::TraceDump);
        prop_assert_eq!(
            TraceMsg::decode(payload).unwrap(),
            TraceMsg::Report(report.clone())
        );

        for cut in 0..framed.len() {
            prop_assert!(parse_frame(&framed[..cut]).is_err(), "cut at {}", cut);
        }
        for i in 0..framed.len() {
            let mut corrupt = framed.clone();
            corrupt[i] ^= flip;
            if let Ok((pint::wire::FrameType::TraceDump, payload)) = parse_frame(&corrupt) {
                let _ = TraceMsg::decode(payload); // Err or Ok, never a panic
            }
        }
    }
}

/// Builds a valid store image on disk — superblock, a few delta
/// records, one checkpoint — and returns its raw bytes.
fn store_image(seed: u64, deltas: usize) -> Vec<u8> {
    use pint::wire::store::{CheckpointRecord, StoreKind, StoreRecord, Superblock};
    use std::sync::atomic::{AtomicU64, Ordering};
    static UNIQUE: AtomicU64 = AtomicU64::new(0);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "pint-fuzz-store-{}-{}",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&path);
    let mut writer = pint::store::StoreWriter::create(
        &path,
        Superblock::new(StoreKind::Collector, seed, 0),
        pint::StoreOptions::default(),
    )
    .unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..deltas {
        let mut d = Digest::new(rng.gen_range(0..4));
        for lane in 0..d.lanes() {
            d.set(lane, rng.gen());
        }
        writer
            .append(&StoreRecord::Delta {
                epoch: i as u64,
                batch: DigestBatch {
                    source: rng.gen_range(0..3),
                    seq: i as u64 + 1,
                    reports: vec![DigestReport::new(rng.gen(), rng.gen(), d, 4, rng.gen())],
                    trace: None,
                },
            })
            .unwrap();
    }
    writer
        .append(&StoreRecord::Checkpoint(CheckpointRecord {
            source: 0,
            epoch: deltas as u64,
            covered: vec![pint::wire::store::CoveredSource::floor_only(
                0,
                deltas as u64,
            )],
            payload: (0..rng.gen_range(1..64u8)).collect(),
        }))
        .unwrap();
    writer.sync().unwrap();
    drop(writer);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every truncation of a persisted log is either a typed error
    /// (the damage reaches the superblock) or a clean open whose
    /// records are an exact prefix of the original's — the torn-tail
    /// contract that crash recovery leans on. Never a panic.
    #[test]
    fn store_truncation_is_typed_or_a_prefix(
        seed in any::<u64>(),
        deltas in 1usize..6,
    ) {
        use pint::StoreError;
        let good = store_image(seed, deltas);
        let full = pint::StoreReader::from_bytes(&good).unwrap();
        let total = full.records().len();
        prop_assert_eq!(total, deltas + 1);
        let mut last_len = 0usize;
        for cut in 0..good.len() {
            match pint::StoreReader::from_bytes(&good[..cut]) {
                Ok(r) => {
                    let n = r.records().len();
                    prop_assert!(n <= total, "cut at {} grew records", cut);
                    prop_assert!(n >= last_len, "cut at {} lost records", cut);
                    last_len = n;
                    prop_assert_eq!(
                        r.records().collect::<Result<Vec<_>, _>>().unwrap(),
                        full.records().take(n).collect::<Result<Vec<_>, _>>().unwrap(),
                        "records must be an exact prefix"
                    );
                }
                Err(StoreError::NotAStore) => prop_assert!(cut < 8),
                Err(StoreError::CorruptSuperblock) => {}
                Err(e) => prop_assert!(false, "unexpected error at cut {}: {:?}", cut, e),
            }
        }
    }

    /// Flipping any single byte of a persisted log never panics: the
    /// reader returns a typed error, or opens with the CRC-failed
    /// record (and everything after it) truncated away as a torn tail.
    #[test]
    fn store_bitflips_never_panic(
        seed in any::<u64>(),
        deltas in 1usize..5,
        flip in 1u8..=255,
    ) {
        let good = store_image(seed, deltas);
        for i in 0..good.len() {
            let mut corrupt = good.clone();
            corrupt[i] ^= flip;
            if let Ok(r) = pint::StoreReader::from_bytes(&corrupt) {
                // Whatever survived must still be fully traversable.
                for rec in r.records() {
                    let _ = rec.unwrap().epoch();
                }
                let _ = (r.newest_epoch(), r.newest_checkpoint(), r.tail());
            }
        }
    }

    /// A store written by a future format version is rejected whole
    /// with a typed version error — even though its checksums are
    /// intact — and a damaged superblock checksum is typed too.
    #[test]
    fn store_future_version_is_rejected_whole(
        seed in any::<u64>(),
        bump in 1u8..10,
    ) {
        use pint::wire::store::crc32;
        use pint::StoreError;
        let good = store_image(seed, 2);
        // Layout: magic[0..8], superblock frame header[8..16]
        // (u32 len, u32 crc), superblock payload[16..] starting with
        // the version byte. Patch the version and re-seal the CRC so
        // only the version check can object.
        let sb_len =
            u32::from_le_bytes(good[8..12].try_into().unwrap()) as usize;
        let mut future = good.clone();
        future[16] = future[16].saturating_add(bump);
        let crc = crc32(&future[16..16 + sb_len]);
        future[12..16].copy_from_slice(&crc.to_le_bytes());
        prop_assert!(matches!(
            pint::StoreReader::from_bytes(&future),
            Err(StoreError::Wire(WireError::UnsupportedVersion { .. }))
        ));

        // Same patch without re-sealing: the checksum objects first.
        let mut unsealed = good.clone();
        unsealed[16] = unsealed[16].saturating_add(bump);
        prop_assert!(matches!(
            pint::StoreReader::from_bytes(&unsealed),
            Err(StoreError::CorruptSuperblock)
        ));

        // And the magic check runs before everything.
        let mut magic = good;
        magic[0] ^= 0xFF;
        prop_assert!(matches!(
            pint::StoreReader::from_bytes(&magic),
            Err(StoreError::NotAStore)
        ));
    }
}

/// A store record's scan walks its reports without building them, and
/// restore later decodes the same bytes, so the walk must accept exactly
/// what decode accepts. The edge case: a delta whose CRC is valid but
/// whose report count overruns its payload (the count passes the
/// bytes-left check, the reports then run out). The scan must end the
/// intact prefix there as an undecodable tear, and reopening for writes
/// must cut the file back to that prefix. The same holds for every
/// truncation and byte flip of a delta and a checkpoint payload.
#[test]
fn store_walk_accepts_exactly_what_decode_accepts() {
    use pint::store::{StoreWriter, TailStatus, TornReason};
    use pint::wire::store::{
        crc32, read_record, CheckpointRecord, CoveredSource, StoreKind, StoreRecord, Superblock,
    };
    use pint::wire::SkipReports;

    let report = |i: u64| {
        let mut d = Digest::new(1);
        d.set(0, i.wrapping_mul(0x9E37_79B9));
        DigestReport::new(i, 1_000 + i, d, 4, 50 + i)
    };
    let delta = |seq: u64| StoreRecord::Delta {
        epoch: seq,
        batch: DigestBatch {
            source: 1,
            seq,
            reports: (0..3).map(|i| report(seq * 10 + i)).collect(),
            trace: None,
        },
    };
    let checkpoint = StoreRecord::Checkpoint(CheckpointRecord {
        source: 0,
        epoch: 9,
        covered: vec![CoveredSource {
            source: 1,
            floor: 2,
            above: vec![4, 7],
        }],
        payload: vec![0xC5; 24],
    });
    let agree = |bytes: &[u8]| {
        let walked = read_record(bytes, &mut SkipReports::default()).is_ok();
        walked == StoreRecord::decode(bytes).is_ok()
    };
    for good in [delta(1).encode(), checkpoint.encode()] {
        for cut in 0..good.len() {
            assert!(agree(&good[..cut]), "cut at {cut}");
        }
        for i in 0..good.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[i] ^= flip;
                assert!(agree(&bad), "byte {i} ^ {flip:#x}");
            }
        }
    }

    // Delta payloads whose varints all parse but which break a bound
    // only the report reader checks.
    let delta_head = |count: u64| {
        let mut out = vec![1u8]; // delta record kind
        let mut w = WireWriter::new(&mut out);
        for v in [3, 1, 3, count] {
            w.put_varint(v); // epoch, source, seq, report count
        }
        out
    };
    // A path length past `u16`, in an otherwise well-formed report.
    let mut long_path = delta_head(1);
    for v in [7, 8, 1 << 16, 9, 0] {
        WireWriter::new(&mut long_path).put_varint(v); // flow, pid, path_len, ts, lanes
    }
    // Two reports declared, one carried, padded so the count passes the
    // bytes-left check.
    let mut overrun = delta_head(2);
    report(30).encode_into(&mut overrun);
    overrun.extend_from_slice(&[0x80; 3]); // a varint that never ends
    for bad in [&long_path, &overrun] {
        assert!(StoreRecord::decode(bad).is_err());
        assert!(agree(bad));
    }

    let mut path = std::env::temp_dir();
    path.push(format!("pint-store-overrun-{}", std::process::id()));
    let mut writer = StoreWriter::create(
        &path,
        Superblock::new(StoreKind::Collector, 1, 0),
        pint::StoreOptions::default(),
    )
    .unwrap();
    let intact = [delta(1), delta(2)];
    for rec in &intact {
        writer.append(rec).unwrap();
    }
    let boundary = writer.len();
    drop(writer);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&(overrun.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&overrun).to_le_bytes());
    bytes.extend_from_slice(&overrun);
    // An intact record behind the tear stays unreachable.
    let after = delta(4).encode();
    bytes.extend_from_slice(&(after.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&after).to_le_bytes());
    bytes.extend_from_slice(&after);
    std::fs::write(&path, &bytes).unwrap();

    let torn = TailStatus::Torn {
        offset: boundary,
        reason: TornReason::Undecodable,
    };
    let reader = pint::StoreReader::open(&path).unwrap();
    assert_eq!(reader.tail(), torn);
    assert_eq!(reader.valid_len(), boundary);
    assert_eq!(
        reader.records().collect::<Result<Vec<_>, _>>().unwrap(),
        intact
    );
    let (writer, tail) = StoreWriter::open(&path, pint::StoreOptions::default()).unwrap();
    assert_eq!(tail, torn);
    assert_eq!(writer.len(), boundary);
    drop(writer);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), boundary);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn snapshot_frame_rejects_future_versions_and_garbage() {
    let frame = SnapshotFrame {
        collector_id: 1,
        epoch: 1,
        snapshot: CollectorSnapshot::from_shards(vec![ShardSnapshot {
            shard: 0,
            flows: vec![(
                3,
                FlowSummary {
                    kind: RecorderKind::LatencyQuantiles,
                    packets: 4,
                    state_bytes: 32,
                    last_ts: 0,
                    hop_sketches: vec![random_sketch(16, 1, 4, 100)].into(),
                    path: None,
                    inconsistencies: 0,
                },
            )],
            table_stats: Default::default(),
            ingested: 4,
        }]),
    };
    let good = frame.to_frame_bytes();
    assert!(parse_frame(&good).is_ok());

    // Future version byte.
    let mut future = good.clone();
    future[4] = VERSION + 1;
    assert!(matches!(
        parse_frame(&future),
        Err(WireError::UnsupportedVersion { .. })
    ));

    // Wrong magic.
    let mut magic = good.clone();
    magic[0] = b'Q';
    assert!(matches!(parse_frame(&magic), Err(WireError::BadMagic)));

    // Every truncation of the full frame is an error, never a panic.
    for cut in 0..good.len() {
        assert!(parse_frame(&good[..cut]).is_err(), "cut at {cut}");
    }

    // Flip every payload byte once: the frame parser or the snapshot
    // decoder may reject it (or a don't-care bit may still decode), but
    // nothing panics on any of the inputs.
    for i in 0..good.len() {
        let mut corrupt = good.clone();
        corrupt[i] ^= 0xA5;
        if let Ok((_, payload)) = parse_frame(&corrupt) {
            let _ = SnapshotFrame::decode(payload);
        }
    }
}

/// Builds a fresh recorder (what a collector's factory returns).
type MakeRecorder = Box<dyn Fn() -> Box<dyn FlowRecorder>>;
/// The digest a recorder's switches would emit for packet `pid`.
type MakeDigest = Box<dyn Fn(u64) -> Digest>;

/// One recorder per kind and hop store, each with its digest source.
fn image_cases() -> Vec<(&'static str, MakeRecorder, MakeDigest)> {
    let agg = DynamicAggregator::new(7, 8, 100.0, 1.0e7);
    let latency = |agg: DynamicAggregator| -> MakeDigest {
        Box::new(move |pid| {
            let mut d = Digest::new(1);
            for hop in 1..=3 {
                let v = 200.0 * hop as f64 + (pid % 17) as f64 * 40.0;
                agg.encode_hop(pid, hop, v, &mut d, 0);
            }
            d
        })
    };
    let (a1, a2, a3) = (agg.clone(), agg.clone(), agg.clone());
    let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
    let t1 = tracer.clone();
    let freq = FrequentValuesRecorder::new(5, 3, 4);
    vec![
        (
            "exact",
            Box::new(move || Box::new(DynamicRecorder::new_exact(a1.clone(), 3)) as _),
            latency(agg.clone()),
        ),
        (
            "sketch",
            Box::new(move || Box::new(DynamicRecorder::new_sketched(a2.clone(), 3, 24)) as _),
            latency(agg.clone()),
        ),
        (
            "sliding",
            Box::new(move || Box::new(DynamicRecorder::new_sliding(a3.clone(), 3, 64)) as _),
            latency(agg),
        ),
        (
            "path",
            Box::new(move || Box::new(t1.decoder((0..80).collect(), 5)) as _),
            Box::new(move |pid| tracer.encode_path(pid, &[3, 17, 29, 41, 77])),
        ),
        (
            "frequent",
            Box::new(|| Box::new(FrequentValuesRecorder::new(5, 3, 4)) as _),
            Box::new(move |pid| {
                let mut d = Digest::new(1);
                for hop in 1..=3 {
                    freq.encode_hop(pid, hop, pid * 7 % 11, &mut d, 0);
                }
                d
            }),
        ),
    ]
}

/// Every answer the trait gives, in one comparable value.
fn answers(rec: &mut dyn FlowRecorder) -> String {
    let mut out = format!(
        "{:?} {} {} {} {:?} {:?} {:?}",
        rec.kind(),
        rec.packets(),
        rec.state_bytes(),
        rec.inconsistencies(),
        rec.hop_sketches(),
        rec.path_progress(),
        rec.image().encode(),
    );
    for hop in 0..=5 {
        for phi in [0.0, 0.5, 0.9, 1.0] {
            out += &format!(" {:?}", rec.quantile(hop, phi));
        }
        out += &format!(" {:?}", rec.frequent(hop, 0.1));
    }
    out
}

#[test]
fn recorder_images_round_trip_exactly() {
    for (name, make, digest) in image_cases() {
        let mut original = make();
        for pid in 0..3 {
            original.absorb(pid, &digest(pid));
        }
        if name == "path" {
            let progress = original.path_progress().unwrap();
            assert!(
                progress.resolved < progress.k,
                "the image must catch decoding part-way"
            );
        } else {
            for pid in 3..200 {
                original.absorb(pid, &digest(pid));
            }
        }
        let image = original.image();
        let decoded = RecorderImage::decode(&image.encode()).unwrap();
        assert_eq!(decoded, image, "{name}: decode(encode(image)) == image");
        let mut loaded = make();
        loaded.load_image(decoded).unwrap();
        assert_eq!(
            answers(loaded.as_mut()),
            answers(original.as_mut()),
            "{name}"
        );
        for pid in 1_000..1_300 {
            original.absorb(pid, &digest(pid));
            loaded.absorb(pid, &digest(pid));
        }
        assert_eq!(
            answers(loaded.as_mut()),
            answers(original.as_mut()),
            "{name}: a loaded recorder must evolve exactly like the original"
        );
    }
}

#[test]
fn recorder_images_refuse_other_kinds_and_path_lengths() {
    let agg = DynamicAggregator::new(7, 8, 100.0, 1.0e7);
    let latency = DynamicRecorder::new_exact(agg.clone(), 3).image();
    let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
    assert_eq!(
        tracer
            .decoder((0..8).collect(), 3)
            .load_image(latency.clone()),
        Err(ImageError::KindMismatch {
            expected: RecorderKind::PathTracing,
            found: RecorderKind::LatencyQuantiles,
        })
    );
    assert_eq!(
        DynamicRecorder::new_exact(agg.clone(), 4).load_image(latency.clone()),
        Err(ImageError::PathLenMismatch {
            expected: 4,
            found: 3,
        })
    );
    // Same kind and k, another hop store: a configuration mismatch.
    let mut sketched = DynamicRecorder::new_sketched(agg, 3, 64);
    assert!(matches!(
        sketched.load_image(latency),
        Err(ImageError::Invalid(_))
    ));
}

#[test]
fn recorder_image_corruption_never_panics() {
    for (name, make, digest) in image_cases() {
        let mut rec = make();
        for pid in 0..40 {
            rec.absorb(pid, &digest(pid));
        }
        let good = rec.image().encode();
        for cut in 0..good.len() {
            let _ = RecorderImage::decode(&good[..cut]);
        }
        for i in 0..good.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = good.clone();
                bad[i] ^= mask;
                let Ok(image) = RecorderImage::decode(&bad) else {
                    continue;
                };
                // A damaged image that still decodes either loads or is
                // refused; a loaded one answers and absorbs.
                let mut fresh = make();
                if fresh.load_image(image).is_ok() {
                    answers(fresh.as_mut());
                    fresh.absorb(99, &digest(99));
                }
            }
        }
        assert!(
            RecorderImage::decode(&good[..good.len() - 1]).is_err(),
            "{name}: a cut image must not decode"
        );
    }
}

/// One flow's row as a shard writes it: the flow ID, then the summary.
fn snapshot_row(flow: u64, summary: &FlowSummary) -> Vec<u8> {
    let mut out = Vec::new();
    WireWriter::new(&mut out).put_varint(flow);
    summary.encode_into(&mut out);
    out
}

/// Collector id, epoch, ingested, the shard count and one shard's
/// table stats: the fields ahead of a snapshot's rows.
const SNAPSHOT_HEAD: [u64; 7] = [4, 9, 1_000, 1, 30, 2, 1];

/// A `Snapshot` payload over `rows` in the order given, which need not
/// be ascending or unique: the decoder sorts and keeps duplicates.
fn snapshot_payload(rows: &[Vec<u8>]) -> Vec<u8> {
    snapshot_payload_with(SNAPSHOT_HEAD, rows.len() as u64, rows)
}

fn snapshot_payload_with(head: [u64; 7], flows: u64, rows: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = WireWriter::new(&mut out);
    head.into_iter().for_each(|v| w.put_varint(v));
    w.put_varint(flows);
    for row in rows {
        out.extend_from_slice(row);
    }
    out
}

/// Rows of every recorder shape: multi-level latency sketches, a
/// complete and a partial path, and a sketchless frequent-values flow.
fn varied_rows() -> Vec<Vec<u8>> {
    let latency = |seed: u64, items: usize| FlowSummary {
        kind: RecorderKind::LatencyQuantiles,
        packets: items as u64,
        state_bytes: 8 * items,
        last_ts: seed,
        hop_sketches: vec![
            KllSketch::with_seed(8, 0),
            random_sketch(8, seed, items, 300),
            random_sketch(8, seed + 1, items / 2, 150),
        ]
        .into(),
        path: None,
        inconsistencies: seed % 2,
    };
    let path = |resolved: usize, k: usize, hops: Option<Vec<u64>>| FlowSummary {
        kind: RecorderKind::PathTracing,
        packets: 12,
        state_bytes: 96,
        last_ts: 5,
        hop_sketches: Vec::new().into(),
        path: Some(PathProgress {
            resolved,
            k,
            path: hops,
            inconsistencies: 1,
        }),
        inconsistencies: 1,
    };
    let frequent = FlowSummary {
        kind: RecorderKind::FrequentValues,
        packets: 3,
        state_bytes: 40,
        last_ts: 2,
        hop_sketches: Vec::new().into(),
        path: None,
        inconsistencies: 0,
    };
    vec![
        snapshot_row(1, &latency(1, 40)),
        snapshot_row(3, &path(3, 3, Some(vec![4, 19, 7]))),
        snapshot_row(7, &latency(7, 9)),
        snapshot_row(150, &path(1, 4, None)),
        snapshot_row(151, &frequent),
    ]
}

fn differential_plans() -> Vec<QueryPlan> {
    let q = TelemetryQuery::new;
    [
        q(),
        q().stats(),
        q().top_k(2),
        q().flows([151, 1, 7, 1, 99]),
        q().watch([7, 3, 7, 150]).stats(),
        q().through_switch(19).decoded_paths(),
        q().path_completion(),
        q().hop_quantiles(1, [0.1, 0.5, 0.99]),
        q().flows([1, 7]).hop_quantiles(2, [0.5]),
        q().of_kind(RecorderKind::FrequentValues),
    ]
    .into_iter()
    .map(|tq| tq.plan().unwrap())
    .collect()
}

/// The walk accepts `payload` exactly when `SnapshotFrame::decode`
/// does, with the same error, and a fleet counts one decode error for
/// each rejection. When accepted, a fleet holding the payload answers
/// every plan as the eagerly decoded snapshot does. Returns whether the
/// payload was accepted.
fn walk_agrees_with_decode(payload: &[u8], case: &str) -> bool {
    let walked = SnapshotFrame::walk(payload);
    let decoded = SnapshotFrame::decode(payload);
    let mut fleet = FleetAggregator::new(FleetConfig::default());
    let ingested = fleet.ingest_payload(FrameType::Snapshot, payload);
    assert_eq!(ingested.is_ok(), decoded.is_ok(), "{case}");
    assert_eq!(
        fleet.stats().decode_errors,
        u64::from(decoded.is_err()),
        "{case}"
    );
    let frame = match decoded {
        Ok(frame) => frame,
        Err(e) => {
            assert_eq!(walked, Err(e), "{case}");
            return false;
        }
    };
    assert_eq!(walked, Ok((frame.collector_id, frame.epoch)), "{case}");
    let eager = FleetView::merge([(frame.collector_id, frame.snapshot)]);
    for plan in differential_plans() {
        let answer =
            |r: Result<pint::QueryResult, _>| r.map(|r| r.encode()).map_err(|e| format!("{e}"));
        assert_eq!(
            answer(fleet.query(&plan)),
            answer(eager.execute(&plan)),
            "{case}: {plan:?}"
        );
    }
    true
}

#[test]
fn snapshot_walk_accepts_exactly_what_decode_accepts() {
    let rows = varied_rows();
    let good = snapshot_payload(&rows);
    assert!(walk_agrees_with_decode(&good, "intact"));

    for cut in 0..good.len() {
        assert!(!walk_agrees_with_decode(
            &good[..cut],
            &format!("cut at {cut}")
        ));
    }
    // Flip every byte of the whole frame, header included: what still
    // parses as a `Snapshot` frame goes to the walk and the decoder.
    let frame = SnapshotFrame::decode(&good).unwrap().to_frame_bytes();
    assert_eq!(
        frame[HEADER_LEN..],
        good[..],
        "sorted unique rows re-encode"
    );
    let mut accepted = 0;
    for i in 0..frame.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut flipped = frame.clone();
            flipped[i] ^= mask;
            if let Ok((FrameType::Snapshot, payload)) = parse_frame(&flipped) {
                accepted += usize::from(walk_agrees_with_decode(
                    payload,
                    &format!("byte {i} ^ {mask:#04x}"),
                ));
            }
        }
    }
    assert!(accepted > 0, "some flips land in don't-care bits");

    // Rows out of order, and a flow twice: once verbatim and once with
    // another flow's summary under its ID.
    let reordered: Vec<Vec<u8>> = rows.iter().rev().cloned().collect();
    assert!(walk_agrees_with_decode(
        &snapshot_payload(&reordered),
        "reordered"
    ));
    let mut duplicated = rows.clone();
    duplicated.insert(2, rows[2].clone());
    let mut other = rows[0].clone();
    other[0] = 7; // flow 1's summary, as flow 7
    duplicated.push(other);
    assert!(walk_agrees_with_decode(
        &snapshot_payload(&duplicated),
        "duplicated"
    ));

    for (case, payload) in hostile_count_payloads(&rows) {
        assert!(
            !walk_agrees_with_decode(&payload, case),
            "{case} is rejected"
        );
    }
}

/// Payloads whose counts or bounds are hostile, each rejected.
fn hostile_count_payloads(rows: &[Vec<u8>]) -> Vec<(&'static str, Vec<u8>)> {
    let varints = |values: &[u64]| {
        let mut out = Vec::new();
        let mut w = WireWriter::new(&mut out);
        values.iter().for_each(|&v| w.put_varint(v));
        out
    };
    // A latency row up to its sketch count: kind, packets, state
    // bytes, last_ts, inconsistencies.
    let head = |sketches: u64| varints(&[5, 0, 1, 8, 0, 0, sketches]);
    // One sketch: k, the coin state, n, then the level count.
    let sketch = |k: u64, n: u64, levels: u64| {
        let mut out = varints(&[k]);
        out.extend_from_slice(&7u64.to_le_bytes());
        out.extend(varints(&[n, levels]));
        out
    };
    let with_row = |row: Vec<u8>| {
        let mut all = rows.to_vec();
        all.push(row);
        snapshot_payload(&all)
    };
    let mut too_many_sketches = head(u64::from(u16::MAX) + 2);
    for _ in 0..u32::from(u16::MAX) + 2 {
        too_many_sketches.extend(sketch(2, 0, 0));
    }
    let mut too_many_levels = head(1);
    too_many_levels.extend(sketch(8, 65, 65));
    too_many_levels.extend(std::iter::repeat_n(1, 65 * 2));
    let mut small_k = head(1);
    small_k.extend(sketch(1, 0, 0));
    let mut huge_k = head(1);
    huge_k.extend(sketch(u64::from(u32::MAX) + 1, 0, 0));
    let mut items_without_stream = head(1);
    items_without_stream.extend(sketch(8, 0, 1));
    items_without_stream.extend(varints(&[1, 3]));
    let mut huge_level = head(1);
    huge_level.extend(sketch(8, 5, 1));
    huge_level.extend(varints(&[u64::MAX]));
    let mut long_path = head(0);
    long_path.extend(varints(&[1, 0, u64::from(u16::MAX) + 1, 0, 0]));
    let mut over_resolved = head(0);
    over_resolved.extend(varints(&[1, 5, 4, 0, 0]));
    let mut short_path = head(0);
    short_path.extend(varints(&[1, 2, 3, 1, 4, 5, 6, 0]));
    let mut bad_tag = head(0);
    bad_tag.push(2);
    let mut bad_kind = head(0);
    bad_kind[1] = 9;
    let mut overlong_varint = head(0);
    overlong_varint.push(0);
    overlong_varint.splice(2..2, [0xFF; 10]);
    let mut shards_past = SNAPSHOT_HEAD;
    shards_past[3] = u64::MAX;
    let flows = rows.len() as u64;
    vec![
        (
            "a flow count past the payload",
            snapshot_payload_with(SNAPSHOT_HEAD, u64::MAX, rows),
        ),
        (
            "a shard count past the payload",
            snapshot_payload_with(shards_past, flows, rows),
        ),
        (
            "one flow too many",
            snapshot_payload_with(SNAPSHOT_HEAD, flows + 1, rows),
        ),
        (
            "one flow too few",
            snapshot_payload_with(SNAPSHOT_HEAD, flows - 1, rows),
        ),
        ("more sketches than path hops", with_row(too_many_sketches)),
        ("65 KLL levels", with_row(too_many_levels)),
        ("a KLL k below the minimum", with_row(small_k)),
        ("a KLL k past u32", with_row(huge_k)),
        ("KLL items without a stream", with_row(items_without_stream)),
        ("a KLL level past the payload", with_row(huge_level)),
        ("a path past u16 hops", with_row(long_path)),
        (
            "more hops resolved than the path has",
            with_row(over_resolved),
        ),
        ("a complete path with unresolved hops", with_row(short_path)),
        ("a path tag of 2", with_row(bad_tag)),
        ("an unknown recorder kind", with_row(bad_kind)),
        ("an 11-byte varint", with_row(overlong_varint)),
    ]
}
