//! Wire-codec impls for the collector's snapshot types, and the
//! [`SnapshotFrame`] a collector ships to a fleet aggregator.
//!
//! `pint-wire` owns the format primitives (frames, varints, typed
//! errors) and the leaf-type codecs (digests, KLL sketches, path
//! progress), `pint-query` owns the [`FlowSummary`] row codec shared
//! with query responses; this module composes them into
//! [`CollectorSnapshot`] encodings plus the collector-id + epoch
//! envelope the fleet tier keys on. See
//! [`Collector::export_snapshot_frame`](crate::Collector::export_snapshot_frame)
//! for the one-call export path.

use crate::flow_table::TableStats;
use crate::inference::{CollectorSnapshot, FlowSummary};
use crate::shard::ShardExport;
use pint_wire::{
    frame_into, FrameType, WireDecode, WireEncode, WireError, WireReader, WireWalk, WireWriter,
};

impl WireEncode for TableStats {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.created);
        w.put_varint(self.evicted_lru);
        w.put_varint(self.evicted_ttl);
    }
}

impl WireDecode for TableStats {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(TableStats {
            created: r.get_varint()?,
            evicted_lru: r.get_varint()?,
            evicted_ttl: r.get_varint()?,
        })
    }
}

/// The fewest bytes a flow row takes: a 1-byte flow ID and the minimal
/// summary (kind, four 1-byte counters, a zero sketch count, the
/// path-absent tag), what a sketchless recorder's row encodes to.
const MIN_ROW_BYTES: usize = 8;

impl WireEncode for CollectorSnapshot {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.ingested);
        w.put_varint(self.shard_stats.len() as u64);
        for t in &self.shard_stats {
            t.encode_into(out);
        }
        WireWriter::new(out).put_varint(self.num_flows() as u64);
        for (flow, summary) in self.flows() {
            WireWriter::new(out).put_varint(*flow);
            summary.encode_into(out);
        }
    }
}

impl WireDecode for CollectorSnapshot {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let ingested = r.get_varint()?;
        // Counts are validated against the remaining wire bytes, but an
        // in-memory element costs far more than its wire minimum — so
        // cap the *pre-reservation* and let the vectors grow only as
        // elements actually decode (hostile counts then cost nothing).
        let shards = r.get_count(3)?;
        let mut shard_stats = Vec::with_capacity(shards.min(1_024));
        for _ in 0..shards {
            shard_stats.push(TableStats::decode_from(r)?);
        }
        let n = r.get_count(MIN_ROW_BYTES)?;
        let mut flows = Vec::with_capacity(n.min(4_096));
        for _ in 0..n {
            let flow = r.get_varint()?;
            flows.push((flow, FlowSummary::decode_from(r)?));
        }
        Ok(CollectorSnapshot::from_parts(flows, shard_stats, ingested))
    }
}

impl WireWalk for CollectorSnapshot {
    fn walk_from(r: &mut WireReader<'_>) -> Result<(), WireError> {
        r.skip_varints(1)?;
        for _ in 0..r.get_count(3)? {
            TableStats::decode_from(r)?;
        }
        for _ in 0..r.get_count(MIN_ROW_BYTES)? {
            r.skip_varints(1)?;
            FlowSummary::walk_from(r)?;
        }
        Ok(())
    }
}

/// The envelope a collector process ships to the fleet tier: which
/// collector this is, a monotonically increasing epoch (snapshot
/// sequence number — the aggregator keeps only the newest per
/// collector), and the full snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotFrame {
    /// Stable identity of the producing collector process.
    pub collector_id: u64,
    /// Snapshot sequence number; later epochs replace earlier ones.
    pub epoch: u64,
    /// The merged state of every shard at export time.
    pub snapshot: CollectorSnapshot,
}

impl WireEncode for SnapshotFrame {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.collector_id);
        w.put_varint(self.epoch);
        self.snapshot.encode_into(out);
    }
}

impl WireDecode for SnapshotFrame {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SnapshotFrame {
            collector_id: r.get_varint()?,
            epoch: r.get_varint()?,
            snapshot: CollectorSnapshot::decode_from(r)?,
        })
    }
}

/// A [`SnapshotFrame`] payload spliced from rows the shards encoded
/// themselves (see
/// [`Collector::export_snapshot_frame`](crate::Collector::export_snapshot_frame)):
/// the same bytes as encoding the frame of the merged snapshot, since
/// the counters merge as in [`CollectorSnapshot::from_shards`] and the
/// rows come out in ascending flow-ID order.
pub(crate) struct SplicedSnapshot<'a> {
    pub(crate) collector_id: u64,
    pub(crate) epoch: u64,
    /// One export per shard, in shard order.
    pub(crate) shards: &'a [ShardExport],
}

impl WireEncode for SplicedSnapshot<'_> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let flows: usize = self.shards.iter().map(|s| s.index.len()).sum();
        // The rows, plus room for the counters ahead of them.
        out.reserve(self.shards.iter().map(|s| s.rows.len()).sum::<usize>() + 64);
        let mut w = WireWriter::new(out);
        w.put_varint(self.collector_id);
        w.put_varint(self.epoch);
        w.put_varint(self.shards.iter().map(|s| s.ingested).sum());
        w.put_varint(self.shards.len() as u64);
        for s in self.shards {
            s.table_stats.encode_into(out);
        }
        WireWriter::new(out).put_varint(flows as u64);
        // Merge the shards' ascending indexes (a flow has one owning
        // shard, so IDs never tie): take the smallest head each time.
        let mut next = vec![0usize; self.shards.len()];
        for _ in 0..flows {
            let (shard, &(_, start, end)) = self
                .shards
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.index.get(next[i]).map(|row| (i, row)))
                .min_by_key(|&(_, &(flow, _, _))| flow)
                .expect("the shard indexes hold `flows` rows");
            next[shard] += 1;
            out.extend_from_slice(&self.shards[shard].rows[start..end]);
        }
    }
}

impl SnapshotFrame {
    /// Encodes the complete wire frame (header included) ready to write
    /// to a transport.
    pub fn to_frame_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(FrameType::Snapshot, self, &mut out);
        out
    }

    /// Walks a `Snapshot` payload without decoding it (see
    /// [`WireWalk`]): `Ok((collector_id, epoch))` exactly when
    /// [`decode`](WireDecode::decode) would accept `payload`, at a
    /// fraction of its cost and with no allocation.
    pub fn walk(payload: &[u8]) -> Result<(u64, u64), WireError> {
        let mut r = WireReader::new(payload);
        let collector_id = r.get_varint()?;
        let epoch = r.get_varint()?;
        CollectorSnapshot::walk_from(&mut r)?;
        r.expect_end()?;
        Ok((collector_id, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::ShardSnapshot;
    use pint_core::{PathProgress, RecorderKind};
    use pint_sketches::KllSketch;
    use pint_wire::parse_frame;

    fn summary(values: &[u64], hops: usize) -> FlowSummary {
        let mut sketches = vec![KllSketch::with_seed(32, 5)];
        for h in 1..=hops {
            let mut sk = KllSketch::with_seed(32, h as u64);
            for &v in values {
                sk.update(v + h as u64);
            }
            sketches.push(sk);
        }
        FlowSummary {
            kind: RecorderKind::LatencyQuantiles,
            packets: values.len() as u64,
            state_bytes: values.len() * 8,
            last_ts: 77,
            hop_sketches: sketches.into(),
            path: None,
            inconsistencies: 1,
        }
    }

    fn sample_snapshot() -> CollectorSnapshot {
        let path_summary = FlowSummary {
            kind: RecorderKind::PathTracing,
            packets: 40,
            state_bytes: 320,
            last_ts: 99,
            hop_sketches: Vec::new().into(),
            path: Some(PathProgress {
                resolved: 3,
                k: 3,
                path: Some(vec![4, 11, 19]),
                inconsistencies: 0,
            }),
            inconsistencies: 0,
        };
        CollectorSnapshot::from_shards(vec![
            ShardSnapshot {
                shard: 0,
                flows: vec![(9, summary(&[10, 20, 30, 40], 2)), (2, path_summary)],
                table_stats: TableStats {
                    created: 4,
                    evicted_lru: 1,
                    evicted_ttl: 0,
                },
                ingested: 44,
            },
            ShardSnapshot {
                shard: 1,
                flows: vec![(5, summary(&(0..200).collect::<Vec<_>>(), 3))],
                table_stats: TableStats::default(),
                ingested: 200,
            },
        ])
    }

    #[test]
    fn snapshot_round_trip_preserves_answers() {
        let snap = sample_snapshot();
        let decoded = CollectorSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded.num_flows(), snap.num_flows());
        assert_eq!(decoded.ingested, snap.ingested);
        let q = pint_query::TelemetryQuery::new;
        let mut plans = vec![q().stats(), q().path_completion(), q().decoded_paths()];
        for hop in 1..=3 {
            plans.push(q().hop_quantiles(hop, [0.1, 0.5, 0.99]));
        }
        for plan in plans {
            let plan = plan.plan().unwrap();
            assert_eq!(
                decoded.execute(&plan).unwrap(),
                snap.execute(&plan).unwrap(),
                "{plan:?}"
            );
        }
        assert_eq!(
            decoded.flow(2).unwrap().path,
            snap.flow(2).unwrap().path,
            "decoded path survives"
        );
    }

    #[test]
    fn snapshot_frame_round_trips_through_a_wire_frame() {
        let frame = SnapshotFrame {
            collector_id: 3,
            epoch: 12,
            snapshot: sample_snapshot(),
        };
        let bytes = frame.to_frame_bytes();
        let (ty, payload) = parse_frame(&bytes).unwrap();
        assert_eq!(ty, FrameType::Snapshot);
        let decoded = SnapshotFrame::decode(payload).unwrap();
        assert_eq!(decoded.collector_id, 3);
        assert_eq!(decoded.epoch, 12);
        assert_eq!(decoded.snapshot.num_flows(), 3);
    }

    #[test]
    fn a_snapshot_of_minimal_rows_round_trips() {
        // A sketchless, pathless row with small counters is 8 bytes,
        // flow ID included. The flow-count guard must accept a
        // snapshot made only of them.
        let row = FlowSummary {
            kind: RecorderKind::FrequentValues,
            packets: 3,
            state_bytes: 80,
            last_ts: 5,
            hop_sketches: Vec::new().into(),
            path: None,
            inconsistencies: 0,
        };
        let snap = CollectorSnapshot::from_parts(
            (0..100).map(|flow| (flow, row.clone())).collect(),
            vec![TableStats::default()],
            300,
        );
        let bytes = snap.encode();
        assert!(bytes.len() < 100 * 19, "{} bytes", bytes.len());
        assert_eq!(CollectorSnapshot::decode(&bytes).unwrap().num_flows(), 100);
        let mut r = WireReader::new(&bytes);
        CollectorSnapshot::walk_from(&mut r).unwrap();
        r.expect_end().unwrap();
    }

    #[test]
    fn corrupted_snapshot_bytes_error_not_panic() {
        let bytes = sample_snapshot().encode();
        for cut in 0..bytes.len() {
            assert!(
                CollectorSnapshot::decode(&bytes[..cut]).is_err(),
                "truncation at {cut}"
            );
        }
        // Flip each byte; decode must never panic (it may still succeed
        // when the flip lands in a don't-care bit, e.g. a coin state),
        // and the walk accepts exactly what it accepts.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x55;
            let mut r = WireReader::new(&bad);
            let walked = CollectorSnapshot::walk_from(&mut r).and_then(|()| r.expect_end());
            assert_eq!(
                walked.is_ok(),
                CollectorSnapshot::decode(&bad).is_ok(),
                "byte {i}"
            );
        }
    }
}
