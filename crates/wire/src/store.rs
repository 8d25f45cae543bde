//! Codecs for the durable store (`pint-store`): the versioned
//! superblock that heads every log file and the snapshot/delta records
//! the log holds.
//!
//! ## On-disk layout (store version 1)
//!
//! A store file is a superblock followed by an append-only run of
//! checksummed records:
//!
//! ```text
//! offset  size  field
//! 0       8     magic        "PINTSTOR"
//! 8       4     length of the superblock payload, u32 little-endian
//! 12      4     CRC-32 (IEEE) of the superblock payload
//! 16      n     superblock payload (version byte first — see below)
//! ...           records, each: [u32 LE length][u32 LE CRC][payload]
//! ```
//!
//! The length/CRC framing is the *file* layer and lives in
//! `pint-store`; this module owns the payload codecs, so the store
//! shares `pint-wire`'s hostile-input discipline: counts are validated
//! against remaining bytes before any allocation, varints are bounded,
//! and decoding never panics. A torn final record (a crash mid-write)
//! is detected by the CRC and truncated on open; a superblock whose
//! version byte is newer than [`STORE_VERSION`] is rejected whole with
//! [`WireError::UnsupportedVersion`] — record layouts may change
//! between versions, so there is no partial forward parsing.
//!
//! Record payloads come in two kinds:
//!
//! * [`StoreRecord::Delta`] — one applied [`DigestBatch`], stamped with
//!   the epoch it was applied under. Replaying deltas through the same
//!   recorder factory rebuilds recorder state exactly.
//! * [`StoreRecord::Checkpoint`] — an opaque full-state payload (a
//!   collector's per-shard recorder images, a fleet tier's encoded
//!   `SnapshotFrame`) plus the per-source sequence floors it covers,
//!   so a restore that seeds from the checkpoint can prime its dedup
//!   state and never double-apply a delta the checkpoint already
//!   contains. The payload is opaque *here* because the snapshot
//!   codecs live above this crate (`pint-collector`); the store only
//!   needs to carry and checksum them.

use crate::batch::{read_batch, DigestBatch, ReportSink, SourceDedup};
use crate::error::WireError;
use crate::rw::{WireReader, WireWriter};
use crate::{WireDecode, WireEncode};

/// Magic heading every store file.
pub const STORE_MAGIC: [u8; 8] = *b"PINTSTOR";

/// Highest store-format version this build reads and writes.
pub const STORE_VERSION: u8 = 1;

/// What a store log holds — informational, so tooling can tell a
/// collector journal from a forwarder spill without decoding records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// A collector's journal: checkpoints + applied-delta chain.
    Collector,
    /// A fleet aggregator's journal: applied snapshot frames + digest
    /// batches.
    Fleet,
    /// A forwarder's overflow spill: delta batches only.
    Spill,
}

impl StoreKind {
    fn to_byte(self) -> u8 {
        match self {
            StoreKind::Collector => 0,
            StoreKind::Fleet => 1,
            StoreKind::Spill => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(StoreKind::Collector),
            1 => Ok(StoreKind::Fleet),
            2 => Ok(StoreKind::Spill),
            _ => Err(WireError::Invalid("unknown store kind")),
        }
    }
}

/// The versioned header payload of a store file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// What this log holds.
    pub kind: StoreKind,
    /// Who wrote it (collector id / forwarder source) — informational.
    pub source: u64,
    /// Creation timestamp (ns on the writer's clock).
    pub created_ns: u64,
    /// Times this log has been rewritten by compaction. Zero means the
    /// delta chain is complete from the log's origin, so a restore can
    /// replay it end-to-end for state byte-identical to a process that
    /// never crashed; non-zero means leading deltas were dropped in
    /// favor of a checkpoint.
    pub compactions: u64,
}

impl Superblock {
    /// A fresh (never-compacted) superblock.
    pub fn new(kind: StoreKind, source: u64, created_ns: u64) -> Self {
        Self {
            kind,
            source,
            created_ns,
            compactions: 0,
        }
    }
}

impl WireEncode for Superblock {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_u8(STORE_VERSION);
        w.put_u8(self.kind.to_byte());
        w.put_varint(self.source);
        w.put_varint(self.created_ns);
        w.put_varint(self.compactions);
    }
}

impl WireDecode for Superblock {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let version = r.get_u8()?;
        if version > STORE_VERSION {
            return Err(WireError::UnsupportedVersion {
                found: version,
                supported: STORE_VERSION,
            });
        }
        let kind = StoreKind::from_byte(r.get_u8()?)?;
        let source = r.get_varint()?;
        let created_ns = r.get_varint()?;
        let compactions = r.get_varint()?;
        Ok(Self {
            kind,
            source,
            created_ns,
            compactions,
        })
    }
}

/// Exact delta coverage a checkpoint claims for one source: a
/// serialized [`SourceDedup`] window.
///
/// The split between `floor` and `above` matters: a forwarder's stream
/// can have *permanent* gaps (shed batches) and *transient* ones (a
/// batch lost in transit that the at-least-once protocol will
/// retransmit). Coverage must say exactly which seqs the checkpoint's
/// payload contains — a plain "highest seq" floor would swallow
/// transient gaps, and a post-restore retransmission of a never-applied
/// batch would dedup as a duplicate and its digests would be lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoveredSource {
    /// The delta source (ingest shard index, forwarder source id, …).
    pub source: u64,
    /// Every seq at or below this is contained in the checkpoint.
    pub floor: u64,
    /// Out-of-order seqs above the floor also contained (ascending).
    pub above: Vec<u64>,
}

impl CoveredSource {
    /// Gap-free coverage: seqs `1..=floor` and nothing above. Right for
    /// sources whose delta seqs are assigned contiguously by the writer
    /// itself (a collector's ingest shards).
    pub fn floor_only(source: u64, floor: u64) -> Self {
        Self {
            source,
            floor,
            above: Vec::new(),
        }
    }

    /// Whether `seq` is contained in this coverage.
    pub fn covers(&self, seq: u64) -> bool {
        seq <= self.floor || self.above.binary_search(&seq).is_ok()
    }

    /// Primes a dedup window to exactly this coverage: seqs covered
    /// here dedup as duplicates, every other seq (including gaps below
    /// the highest covered one) stays fresh.
    pub fn prime(&self, dedup: &mut SourceDedup) {
        dedup.advance_floor(self.floor);
        for &seq in &self.above {
            dedup.observe(seq);
        }
    }

    /// The highest seq this coverage contains.
    pub fn max_seq(&self) -> u64 {
        self.above.last().copied().unwrap_or(self.floor)
    }
}

/// A full-state checkpoint: an opaque snapshot payload plus the
/// per-source delta coverage it subsumes. The payload `P` is owned in a
/// record being written or decoded, and borrowed (`&[u8]`) when
/// [`read_record`] reads the record in place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointRecord<P = Vec<u8>> {
    /// Whose state this is (collector id for fleet journals, 0 for a
    /// collector's own journal).
    pub source: u64,
    /// The epoch the checkpoint was taken at.
    pub epoch: u64,
    /// Exact per-source coverage, captured by the checkpoint *taker* at
    /// snapshot time (not derived by the log writer — deltas can land
    /// in the file between the snapshot and this record, and those are
    /// deliberately not covered). A restore seeding from this
    /// checkpoint primes its [`SourceDedup`] windows with these, so
    /// deltas the snapshot already contains dedup as duplicates instead
    /// of double-applying, while uncovered deltas still replay.
    pub covered: Vec<CoveredSource>,
    /// The encoded snapshot (opaque at this layer; the tier that wrote
    /// it owns the codec).
    pub payload: P,
}

/// Record kind bytes (first payload byte of every record).
const RECORD_DELTA: u8 = 1;
const RECORD_CHECKPOINT: u8 = 2;

/// One log record: a delta batch or a full-state checkpoint (`P` is
/// the checkpoint payload's type, see [`CheckpointRecord`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreRecord<P = Vec<u8>> {
    /// One applied digest batch, stamped with its epoch.
    Delta {
        /// Epoch index the batch was applied under.
        epoch: u64,
        /// The batch itself (source, seq, reports).
        batch: DigestBatch,
    },
    /// A full-state checkpoint.
    Checkpoint(CheckpointRecord<P>),
}

impl<P> StoreRecord<P> {
    /// The epoch stamp of this record.
    pub fn epoch(&self) -> u64 {
        match self {
            StoreRecord::Delta { epoch, .. } => *epoch,
            StoreRecord::Checkpoint(c) => c.epoch,
        }
    }
}

impl WireEncode for StoreRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            StoreRecord::Delta { epoch, batch } => {
                WireWriter::new(out).put_u8(RECORD_DELTA);
                WireWriter::new(out).put_varint(*epoch);
                batch.encode_into(out);
            }
            StoreRecord::Checkpoint(c) => {
                let mut w = WireWriter::new(out);
                w.put_u8(RECORD_CHECKPOINT);
                w.put_varint(c.source);
                w.put_varint(c.epoch);
                w.put_varint(c.covered.len() as u64);
                for cov in &c.covered {
                    w.put_varint(cov.source);
                    w.put_varint(cov.floor);
                    w.put_varint(cov.above.len() as u64);
                    for &seq in &cov.above {
                        w.put_varint(seq);
                    }
                }
                w.put_varint(c.payload.len() as u64);
                w.put_bytes(&c.payload);
            }
        }
    }
}

/// The one store-record reader: a delta's reports go to `reports` (its
/// batch comes back without them), a checkpoint's payload is borrowed.
/// Like [`decode`](WireDecode::decode), it consumes `payload` exactly,
/// so what it accepts with any sink decodes.
pub fn read_record<'a>(
    payload: &'a [u8],
    reports: &mut impl ReportSink,
) -> Result<StoreRecord<&'a [u8]>, WireError> {
    let mut r = WireReader::new(payload);
    let view = read_from(&mut r, reports)?;
    r.expect_end()?;
    Ok(view)
}

fn read_from<'a>(
    r: &mut WireReader<'a>,
    reports: &mut impl ReportSink,
) -> Result<StoreRecord<&'a [u8]>, WireError> {
    match r.get_u8()? {
        RECORD_DELTA => {
            let epoch = r.get_varint()?;
            let batch = read_batch(r, reports)?;
            Ok(StoreRecord::Delta { epoch, batch })
        }
        RECORD_CHECKPOINT => {
            let source = r.get_varint()?;
            let epoch = r.get_varint()?;
            // Each covered entry is at least 3 bytes (source +
            // floor + above count); reject counts the remaining
            // input cannot back before allocating. An entry is 40
            // bytes in memory and a seq 8, so reserve a bounded
            // prefix and grow as entries actually decode.
            let n = r.get_count(3)?;
            let mut covered = Vec::with_capacity(n.min(1_024));
            for _ in 0..n {
                let source = r.get_varint()?;
                let floor = r.get_varint()?;
                let n_above = r.get_count(1)?;
                let mut above = Vec::with_capacity(n_above.min(4_096));
                for _ in 0..n_above {
                    above.push(r.get_varint()?);
                }
                // Encoders emit ascending seqs (BTreeSet order);
                // normalize anyway so `covers`' binary search is
                // sound on arbitrary CRC-valid bytes.
                above.sort_unstable();
                above.dedup();
                covered.push(CoveredSource {
                    source,
                    floor,
                    above,
                });
            }
            let len = r.get_count(1)?;
            let payload = r.get_bytes(len)?;
            Ok(StoreRecord::Checkpoint(CheckpointRecord {
                source,
                epoch,
                covered,
                payload,
            }))
        }
        _ => Err(WireError::Invalid("unknown store record kind")),
    }
}

impl WireDecode for StoreRecord {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut reports = Vec::new();
        Ok(match read_from(r, &mut reports)? {
            StoreRecord::Delta { epoch, batch } => StoreRecord::Delta {
                epoch,
                batch: DigestBatch { reports, ..batch },
            },
            StoreRecord::Checkpoint(c) => StoreRecord::Checkpoint(CheckpointRecord {
                source: c.source,
                epoch: c.epoch,
                covered: c.covered,
                payload: c.payload.to_vec(),
            }),
        })
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
/// per-record checksum of the store layer, computed on every record the
/// store writes and again on every record it reads back.
///
/// Slice-by-16: sixteen lookup tables, all built at compile time (so
/// the crate stays dependency-free), fold 16 input bytes per step
/// instead of one. The output is bit-for-bit the classic byte-at-a-time
/// table CRC; the bytes past the last full 16-byte block go through
/// that loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// `CRC_TABLES[0]` is the classic byte table; `CRC_TABLES[k][i]` is the
/// CRC register after byte `i` is followed by `k` zero bytes, which is
/// what lets one step fold a byte sitting `k` positions before the end
/// of a 16-byte block.
static CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_core::{Digest, DigestReport};

    fn sample_batch() -> DigestBatch {
        let mut d = Digest::new(2);
        d.set(0, 0xFEED);
        DigestBatch {
            source: 7,
            seq: 42,
            reports: vec![
                DigestReport::new(1, 100, d.clone(), 5, 1_000),
                DigestReport::new(2, 101, d, 5, 1_001),
            ],
            trace: None,
        }
    }

    /// The byte-at-a-time table loop `crc32` replaced: the reference
    /// the sliced version must match bit for bit.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_reference() {
        // Every length across the 16-byte block boundaries, from every
        // start offset within a block (so the remainder loop and the
        // block loop both see every alignment).
        let buf: Vec<u8> = (0..16 + 257).map(|i| (i * 31 + 7) as u8).collect();
        for start in 0..16 {
            for len in 0..=257 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
        // Seeded random buffers (xorshift64), lengths up to 64 KiB.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..64 {
            let len = (next() % 65_536) as usize;
            let s: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&s), crc32_bytewise(&s), "len {len}");
        }
    }

    #[test]
    fn superblock_roundtrips() {
        let sb = Superblock {
            kind: StoreKind::Collector,
            source: 9,
            created_ns: 1_234_567,
            compactions: 3,
        };
        assert_eq!(Superblock::decode(&sb.encode()).unwrap(), sb);
    }

    #[test]
    fn future_version_superblock_is_rejected_whole() {
        let mut bytes = Superblock::new(StoreKind::Fleet, 1, 2).encode();
        bytes[0] = STORE_VERSION + 1;
        assert_eq!(
            Superblock::decode(&bytes),
            Err(WireError::UnsupportedVersion {
                found: STORE_VERSION + 1,
                supported: STORE_VERSION,
            })
        );
    }

    #[test]
    fn records_roundtrip() {
        let delta = StoreRecord::Delta {
            epoch: 5,
            batch: sample_batch(),
        };
        assert_eq!(StoreRecord::decode(&delta.encode()).unwrap(), delta);

        let ckpt = StoreRecord::Checkpoint(CheckpointRecord {
            source: 3,
            epoch: 8,
            covered: vec![
                CoveredSource {
                    source: 0,
                    floor: 17,
                    above: vec![20, 23],
                },
                CoveredSource::floor_only(1, 4),
            ],
            payload: vec![0xAB; 100],
        });
        assert_eq!(StoreRecord::decode(&ckpt.encode()).unwrap(), ckpt);
        assert_eq!(ckpt.epoch(), 8);
        assert_eq!(delta.epoch(), 5);
    }

    #[test]
    fn covered_source_tracks_exact_dedup_state() {
        // The window a receiver holds after seqs 1, 2, 3, 5, 9.
        let cov = CoveredSource {
            source: 7,
            floor: 3,
            above: vec![5, 9],
        };
        assert_eq!(cov.max_seq(), 9);
        for seq in [1u64, 3, 5, 9] {
            assert!(cov.covers(seq));
        }
        for seq in [4u64, 6, 7, 8, 10] {
            assert!(!cov.covers(seq), "gap seq {seq} must stay uncovered");
        }

        // Priming a fresh window reproduces the window exactly: the
        // transient gaps (4, 6–8) stay fresh, covered seqs dedup.
        let mut primed = SourceDedup::new();
        cov.prime(&mut primed);
        assert!(!primed.observe(3), "covered seq dedups");
        assert!(!primed.observe(9), "covered out-of-order seq dedups");
        assert!(primed.observe(4), "gap below max stays fresh");
        assert!(primed.observe(6), "gap below max stays fresh");
    }

    #[test]
    fn truncated_and_flipped_records_never_panic() {
        let good = StoreRecord::Checkpoint(CheckpointRecord {
            source: 1,
            epoch: 2,
            covered: vec![CoveredSource {
                source: 4,
                floor: 9,
                above: vec![12],
            }],
            payload: vec![1, 2, 3],
        })
        .encode();
        for cut in 0..good.len() {
            let _ = StoreRecord::decode(&good[..cut]); // must not panic
        }
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0xFF;
            let _ = StoreRecord::decode(&bad); // must not panic
        }
        let delta = StoreRecord::Delta {
            epoch: 1,
            batch: sample_batch(),
        }
        .encode();
        for cut in 0..delta.len() {
            let _ = StoreRecord::decode(&delta[..cut]);
        }
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        // A checkpoint declaring 2^60 covered pairs backed by 4 bytes.
        let mut bytes = vec![RECORD_CHECKPOINT];
        {
            let mut w = WireWriter::new(&mut bytes);
            w.put_varint(0); // source
            w.put_varint(0); // epoch
            w.put_varint(1 << 60); // covered count
        }
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            StoreRecord::decode(&bytes),
            Err(WireError::CountTooLarge { .. })
        ));

        // One covered entry declaring 2^50 above-seqs backed by 4 bytes.
        let mut bytes = vec![RECORD_CHECKPOINT];
        {
            let mut w = WireWriter::new(&mut bytes);
            w.put_varint(0); // source
            w.put_varint(0); // epoch
            w.put_varint(1); // covered count
            w.put_varint(3); // entry source
            w.put_varint(5); // entry floor
            w.put_varint(1 << 50); // above count
        }
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            StoreRecord::decode(&bytes),
            Err(WireError::CountTooLarge { .. })
        ));
    }
}
