//! Wire codecs for the query tier: plans travel as `Query` frames,
//! results as `QueryResponse` frames (see `pint-wire` for the frame
//! envelope). All decode paths follow the workspace contract: typed
//! errors, no panics, and no allocation driven by unvalidated counts.

use crate::exec::{QueryResult, SelectionStats, TableTotals};
use crate::plan::{
    Projection, QueryOptions, QueryPlan, Selector, ValueDecodeSpec, MAX_PHIS, MAX_SELECTOR_IDS,
};
use crate::FlowSummary;
use pint_core::{PathProgress, RecorderKind};
use pint_sketches::KllSketch;
use pint_wire::{WireDecode, WireEncode, WireError, WireReader, WireWalk, WireWriter};
use std::borrow::Borrow;
use std::sync::Arc;

/// One [`FlowSummary`] row with every field borrowed: the single
/// writer of the row format. [`FlowSummary`] encodes through it, and a
/// collector shard writes its flows' rows with it straight from the
/// recorders (sketches lent, never cloned), so both produce the same
/// bytes by construction.
#[derive(Debug, Clone, Copy)]
pub struct SummaryRow<'a, S> {
    /// See [`FlowSummary::kind`].
    pub kind: RecorderKind,
    /// See [`FlowSummary::packets`].
    pub packets: u64,
    /// See [`FlowSummary::state_bytes`].
    pub state_bytes: usize,
    /// See [`FlowSummary::last_ts`].
    pub last_ts: u64,
    /// See [`FlowSummary::inconsistencies`].
    pub inconsistencies: u64,
    /// See [`FlowSummary::hop_sketches`]; owned or borrowed sketches.
    pub hop_sketches: &'a [S],
    /// See [`FlowSummary::path`].
    pub path: Option<&'a PathProgress>,
}

impl<S: Borrow<KllSketch>> WireEncode for SummaryRow<'_, S> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.kind.encode_into(out);
        let mut w = WireWriter::new(out);
        w.put_varint(self.packets);
        w.put_varint(self.state_bytes as u64);
        w.put_varint(self.last_ts);
        w.put_varint(self.inconsistencies);
        w.put_varint(self.hop_sketches.len() as u64);
        for sk in self.hop_sketches {
            sk.borrow().encode_into(out);
        }
        let mut w = WireWriter::new(out);
        match self.path {
            Some(p) => {
                w.put_u8(1);
                p.encode_into(out);
            }
            None => w.put_u8(0),
        }
    }
}

impl WireEncode for FlowSummary {
    fn encode_into(&self, out: &mut Vec<u8>) {
        SummaryRow {
            kind: self.kind,
            packets: self.packets,
            state_bytes: self.state_bytes,
            last_ts: self.last_ts,
            inconsistencies: self.inconsistencies,
            hop_sketches: &self.hop_sketches,
            path: self.path.as_ref(),
        }
        .encode_into(out);
    }
}

impl WireDecode for FlowSummary {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let kind = RecorderKind::decode_from(r)?;
        let packets = r.get_varint()?;
        let state_bytes = r.get_varint()?;
        let last_ts = r.get_varint()?;
        let inconsistencies = r.get_varint()?;
        // An empty sketch still occupies ≥ 11 bytes on the wire; the
        // count is a path length (+1), so anything past the digest
        // format's u16 hop bound is hostile — reject before allocating
        // (each claimed sketch costs ~9× its wire minimum in memory).
        let sketches = r.get_count(11)?;
        if sketches > usize::from(u16::MAX) + 1 {
            return Err(WireError::Invalid("hop sketch count exceeds path bound"));
        }
        // Decode straight into the shared block: an exact-length
        // iterator lets `Arc<[_]>` allocate once, where a `Vec` would
        // cost a second allocation and a copy per row. After an error
        // the remaining slots take empty sketches (`new` allocates
        // nothing) and the block is dropped.
        let mut failed = None;
        let hop_sketches: Arc<[KllSketch]> = (0..sketches)
            .map(|_| {
                if failed.is_none() {
                    match KllSketch::decode_from(r) {
                        Ok(sk) => return sk,
                        Err(e) => failed = Some(e),
                    }
                }
                KllSketch::new(2)
            })
            .collect();
        if let Some(e) = failed {
            return Err(e);
        }
        let path = match r.get_u8()? {
            0 => None,
            1 => Some(PathProgress::decode_from(r)?),
            _ => return Err(WireError::Invalid("path presence tag must be 0 or 1")),
        };
        Ok(FlowSummary {
            kind,
            packets,
            state_bytes: state_bytes as usize,
            last_ts,
            hop_sketches,
            path,
            inconsistencies,
        })
    }
}

impl WireWalk for FlowSummary {
    fn walk_from(r: &mut WireReader<'_>) -> Result<(), WireError> {
        RecorderKind::decode_from(r)?;
        // packets, state_bytes, last_ts, inconsistencies
        r.skip_varints(4)?;
        let sketches = r.get_count(11)?;
        if sketches > usize::from(u16::MAX) + 1 {
            return Err(WireError::Invalid("hop sketch count exceeds path bound"));
        }
        for _ in 0..sketches {
            KllSketch::walk_from(r)?;
        }
        match r.get_u8()? {
            0 => Ok(()),
            1 => PathProgress::walk_from(r),
            _ => Err(WireError::Invalid("path presence tag must be 0 or 1")),
        }
    }
}

impl WireEncode for Selector {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        match self {
            Selector::All => w.put_u8(0),
            Selector::FlowSet(ids) => {
                w.put_u8(1);
                w.put_varint(ids.len() as u64);
                for &id in ids {
                    w.put_varint(id);
                }
            }
            Selector::TopK(k) => {
                w.put_u8(2);
                w.put_varint(*k as u64);
            }
            Selector::WatchList(ids) => {
                w.put_u8(3);
                w.put_varint(ids.len() as u64);
                for &id in ids {
                    w.put_varint(id);
                }
            }
            Selector::PathThroughSwitch(s) => {
                w.put_u8(4);
                w.put_varint(*s);
            }
            Selector::OfKind(kind) => {
                w.put_u8(5);
                kind.encode_into(out);
            }
        }
    }
}

impl WireDecode for Selector {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Selector::All),
            tag @ (1 | 3) => {
                let n = r.get_count(1)?;
                if n > MAX_SELECTOR_IDS {
                    return Err(WireError::Invalid("too many flow IDs in one selector"));
                }
                let mut ids = Vec::with_capacity(n.min(4_096));
                for _ in 0..n {
                    ids.push(r.get_varint()?);
                }
                Ok(if tag == 1 {
                    Selector::FlowSet(ids)
                } else {
                    Selector::WatchList(ids)
                })
            }
            2 => {
                let k = usize::try_from(r.get_varint()?)
                    .map_err(|_| WireError::Invalid("top-k count exceeds usize"))?;
                Ok(Selector::TopK(k))
            }
            4 => Ok(Selector::PathThroughSwitch(r.get_varint()?)),
            5 => Ok(Selector::OfKind(RecorderKind::decode_from(r)?)),
            _ => Err(WireError::Invalid("unknown selector tag")),
        }
    }
}

impl WireEncode for Projection {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        match self {
            Projection::Summaries => w.put_u8(0),
            // Tag 1 is the historical code-space form; a decode spec
            // moves the projection to tag 5 so old decoders reject the
            // frame cleanly instead of mis-reading trailing fields.
            Projection::HopQuantiles {
                hop,
                phis,
                decode: None,
            } => {
                w.put_u8(1);
                w.put_varint(*hop as u64);
                w.put_varint(phis.len() as u64);
                for &phi in phis {
                    w.put_f64(phi);
                }
            }
            Projection::PathCompletion => w.put_u8(2),
            Projection::DecodedPaths => w.put_u8(3),
            Projection::Stats => w.put_u8(4),
            Projection::HopQuantiles {
                hop,
                phis,
                decode: Some(spec),
            } => {
                w.put_u8(5);
                w.put_varint(*hop as u64);
                w.put_varint(phis.len() as u64);
                for &phi in phis {
                    w.put_f64(phi);
                }
                w.put_varint(u64::from(spec.bits));
                w.put_f64(spec.v_min);
                w.put_f64(spec.v_max);
            }
        }
    }
}

impl WireDecode for Projection {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Projection::Summaries),
            tag @ (1 | 5) => {
                let hop = usize::try_from(r.get_varint()?)
                    .map_err(|_| WireError::Invalid("hop index exceeds usize"))?;
                let n = r.get_count(8)?;
                if n > MAX_PHIS {
                    return Err(WireError::Invalid("too many quantiles in one plan"));
                }
                let mut phis = Vec::with_capacity(n);
                for _ in 0..n {
                    phis.push(r.get_f64()?);
                }
                let decode = if tag == 5 {
                    let bits = u32::try_from(r.get_varint()?)
                        .map_err(|_| WireError::Invalid("decode bits exceed u32"))?;
                    // Range/finiteness invariants are re-checked by
                    // `QueryPlan::validate` on the decode_checked path.
                    Some(ValueDecodeSpec {
                        bits,
                        v_min: r.get_f64()?,
                        v_max: r.get_f64()?,
                    })
                } else {
                    None
                };
                Ok(Projection::HopQuantiles { hop, phis, decode })
            }
            2 => Ok(Projection::PathCompletion),
            3 => Ok(Projection::DecodedPaths),
            4 => Ok(Projection::Stats),
            _ => Err(WireError::Invalid("unknown projection tag")),
        }
    }
}

impl WireEncode for QueryOptions {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        let flags =
            u8::from(self.updated_since.is_some()) | (u8::from(self.max_flows.is_some()) << 1);
        w.put_u8(flags);
        if let Some(since) = self.updated_since {
            w.put_varint(since);
        }
        if let Some(cap) = self.max_flows {
            w.put_varint(cap as u64);
        }
    }
}

impl WireDecode for QueryOptions {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let flags = r.get_u8()?;
        if flags & !0b11 != 0 {
            return Err(WireError::Invalid("unknown query option flags"));
        }
        let updated_since = (flags & 1 != 0).then(|| r.get_varint()).transpose()?;
        let max_flows = (flags & 2 != 0)
            .then(|| {
                r.get_varint().and_then(|v| {
                    usize::try_from(v).map_err(|_| WireError::Invalid("max_flows exceeds usize"))
                })
            })
            .transpose()?;
        Ok(QueryOptions {
            updated_since,
            max_flows,
        })
    }
}

impl WireEncode for QueryPlan {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.selector.encode_into(out);
        self.projection.encode_into(out);
        self.options.encode_into(out);
    }
}

impl WireDecode for QueryPlan {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(QueryPlan {
            selector: Selector::decode_from(r)?,
            projection: Projection::decode_from(r)?,
            options: QueryOptions::decode_from(r)?,
        })
    }
}

impl WireEncode for TableTotals {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.created);
        w.put_varint(self.evicted_lru);
        w.put_varint(self.evicted_ttl);
        w.put_varint(self.ingested);
    }
}

impl WireDecode for TableTotals {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(TableTotals {
            created: r.get_varint()?,
            evicted_lru: r.get_varint()?,
            evicted_ttl: r.get_varint()?,
            ingested: r.get_varint()?,
        })
    }
}

impl WireEncode for SelectionStats {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.flows);
        w.put_varint(self.packets);
        w.put_varint(self.state_bytes);
        w.put_varint(self.inconsistencies);
        match &self.table {
            Some(t) => {
                w.put_u8(1);
                t.encode_into(out);
            }
            None => w.put_u8(0),
        }
    }
}

impl WireDecode for SelectionStats {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let flows = r.get_varint()?;
        let packets = r.get_varint()?;
        let state_bytes = r.get_varint()?;
        let inconsistencies = r.get_varint()?;
        let table = match r.get_u8()? {
            0 => None,
            1 => Some(TableTotals::decode_from(r)?),
            _ => return Err(WireError::Invalid("table presence tag must be 0 or 1")),
        };
        Ok(SelectionStats {
            flows,
            packets,
            state_bytes,
            inconsistencies,
            table,
        })
    }
}

impl WireEncode for QueryResult {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            QueryResult::Summaries(rows) => {
                WireWriter::new(out).put_u8(0);
                WireWriter::new(out).put_varint(rows.len() as u64);
                for (flow, summary) in rows {
                    WireWriter::new(out).put_varint(*flow);
                    summary.encode_into(out);
                }
            }
            QueryResult::HopQuantiles {
                hop,
                samples,
                quantiles,
            } => {
                let mut w = WireWriter::new(out);
                w.put_u8(1);
                w.put_varint(*hop);
                w.put_varint(*samples);
                w.put_varint(quantiles.len() as u64);
                for &(phi, code) in quantiles {
                    w.put_f64(phi);
                    w.put_u64(code);
                }
            }
            QueryResult::PathCompletion { complete, total } => {
                let mut w = WireWriter::new(out);
                w.put_u8(2);
                w.put_varint(*complete);
                w.put_varint(*total);
            }
            QueryResult::DecodedPaths(rows) => {
                WireWriter::new(out).put_u8(3);
                WireWriter::new(out).put_varint(rows.len() as u64);
                for (flow, path) in rows {
                    let mut w = WireWriter::new(out);
                    w.put_varint(*flow);
                    w.put_varint(path.len() as u64);
                    for &hop in path {
                        w.put_varint(hop);
                    }
                }
            }
            QueryResult::Stats(stats) => {
                WireWriter::new(out).put_u8(4);
                stats.encode_into(out);
            }
            QueryResult::HopQuantilesDecoded {
                hop,
                samples,
                quantiles,
            } => {
                let mut w = WireWriter::new(out);
                w.put_u8(5);
                w.put_varint(*hop);
                w.put_varint(*samples);
                w.put_varint(quantiles.len() as u64);
                for &(phi, value) in quantiles {
                    w.put_f64(phi);
                    w.put_f64(value);
                }
            }
        }
    }
}

impl WireDecode for QueryResult {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => {
                // Each row is ≥ 8 bytes: a 1-byte flow id plus the
                // minimal summary (kind, four 1-byte varints, a zero
                // sketch count, the path-absent tag) — exactly what a
                // sketchless, pathless recorder row encodes to, so the
                // floor must not be higher or valid responses bounce.
                let n = r.get_count(8)?;
                let mut rows = Vec::with_capacity(n.min(4_096));
                for _ in 0..n {
                    let flow = r.get_varint()?;
                    rows.push((flow, FlowSummary::decode_from(r)?));
                }
                Ok(QueryResult::Summaries(rows))
            }
            1 => {
                let hop = r.get_varint()?;
                let samples = r.get_varint()?;
                let n = r.get_count(16)?;
                let mut quantiles = Vec::with_capacity(n);
                for _ in 0..n {
                    let phi = r.get_f64()?;
                    let code = r.get_u64()?;
                    quantiles.push((phi, code));
                }
                Ok(QueryResult::HopQuantiles {
                    hop,
                    samples,
                    quantiles,
                })
            }
            2 => Ok(QueryResult::PathCompletion {
                complete: r.get_varint()?,
                total: r.get_varint()?,
            }),
            3 => {
                let n = r.get_count(2)?;
                let mut rows = Vec::with_capacity(n.min(4_096));
                for _ in 0..n {
                    let flow = r.get_varint()?;
                    let len = r.get_count(1)?;
                    if len > usize::from(u16::MAX) {
                        return Err(WireError::Invalid("decoded path exceeds hop bound"));
                    }
                    let mut path = Vec::with_capacity(len);
                    for _ in 0..len {
                        path.push(r.get_varint()?);
                    }
                    rows.push((flow, path));
                }
                Ok(QueryResult::DecodedPaths(rows))
            }
            4 => Ok(QueryResult::Stats(SelectionStats::decode_from(r)?)),
            5 => {
                let hop = r.get_varint()?;
                let samples = r.get_varint()?;
                let n = r.get_count(16)?;
                let mut quantiles = Vec::with_capacity(n);
                for _ in 0..n {
                    let phi = r.get_f64()?;
                    let value = r.get_f64()?;
                    quantiles.push((phi, value));
                }
                Ok(QueryResult::HopQuantilesDecoded {
                    hop,
                    samples,
                    quantiles,
                })
            }
            _ => Err(WireError::Invalid("unknown query result tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryQuery;

    fn sample_plans() -> Vec<QueryPlan> {
        vec![
            TelemetryQuery::new().plan().unwrap(),
            TelemetryQuery::new()
                .flows([5, 1, 5])
                .stats()
                .plan()
                .unwrap(),
            TelemetryQuery::new()
                .top_k(7)
                .hop_quantiles(2, [0.0, 0.5, 1.0])
                .since(99)
                .plan()
                .unwrap(),
            TelemetryQuery::new()
                .watch([8, 8, 2])
                .decoded_paths()
                .max_flows(3)
                .plan()
                .unwrap(),
            TelemetryQuery::new()
                .through_switch(u64::MAX)
                .path_completion()
                .since(0)
                .max_flows(0)
                .plan()
                .unwrap(),
            TelemetryQuery::new()
                .of_kind(RecorderKind::PathTracing)
                .stats()
                .plan()
                .unwrap(),
            TelemetryQuery::new()
                .top_k(3)
                .hop_quantiles_decoded(
                    2,
                    [0.5, 0.99],
                    ValueDecodeSpec {
                        bits: 8,
                        v_min: 100.0,
                        v_max: 1.0e7,
                    },
                )
                .plan()
                .unwrap(),
        ]
    }

    #[test]
    fn plans_round_trip_exactly() {
        for plan in sample_plans() {
            let decoded = QueryPlan::decode_checked(&plan.encode()).unwrap();
            assert_eq!(decoded, plan);
        }
    }

    #[test]
    fn results_round_trip_exactly() {
        let results = vec![
            QueryResult::Summaries(Vec::new()),
            QueryResult::HopQuantiles {
                hop: 3,
                samples: 1_000,
                quantiles: vec![(0.5, 17), (0.99, 250)],
            },
            QueryResult::HopQuantilesDecoded {
                hop: 3,
                samples: 1_000,
                quantiles: vec![(0.5, 1_234.5), (0.99, 98_765.4)],
            },
            QueryResult::PathCompletion {
                complete: 3,
                total: 9,
            },
            QueryResult::DecodedPaths(vec![(4, vec![1, 2, 3]), (9, Vec::new())]),
            QueryResult::Stats(SelectionStats {
                flows: 2,
                packets: 100,
                state_bytes: 512,
                inconsistencies: 1,
                table: Some(TableTotals {
                    created: 5,
                    evicted_lru: 1,
                    evicted_ttl: 2,
                    ingested: 100,
                }),
            }),
        ];
        for result in results {
            let decoded = QueryResult::decode(&result.encode()).unwrap();
            assert_eq!(decoded, result);
        }
    }

    #[test]
    fn truncated_and_corrupt_plan_bytes_never_panic() {
        for plan in sample_plans() {
            let bytes = plan.encode();
            for cut in 0..bytes.len() {
                assert!(
                    QueryPlan::decode_checked(&bytes[..cut]).is_err(),
                    "truncation at {cut}"
                );
            }
            for i in 0..bytes.len() {
                let mut bad = bytes.clone();
                bad[i] ^= 0x5A;
                let _ = QueryPlan::decode_checked(&bad); // Err or Ok, no panic
            }
        }
    }

    #[test]
    fn minimal_summary_rows_round_trip() {
        // A sketchless, pathless recorder (e.g. FrequentValues) with
        // small counters encodes to the 8-byte row floor; the decode
        // count guard must accept a response made only of such rows.
        let row = crate::FlowSummary {
            kind: pint_core::RecorderKind::FrequentValues,
            packets: 1,
            state_bytes: 80,
            last_ts: 0,
            hop_sketches: Vec::new().into(),
            path: None,
            inconsistencies: 0,
        };
        let result = QueryResult::Summaries(vec![(1, row.clone()), (2, row)]);
        let bytes = result.encode();
        assert_eq!(QueryResult::decode(&bytes).unwrap(), result);
    }

    #[test]
    fn oversized_selector_id_lists_are_rejected() {
        // At plan time…
        let big = vec![1u64; MAX_SELECTOR_IDS + 1];
        assert!(matches!(
            TelemetryQuery::new().flows(big.clone()).plan(),
            Err(crate::QueryError::InvalidPlan(_))
        ));
        assert!(matches!(
            TelemetryQuery::new().watch(big.clone()).plan(),
            Err(crate::QueryError::InvalidPlan(_))
        ));
        // …and on the wire, even when the payload physically backs the
        // count (one hostile frame must not drive huge allocations).
        let mut bytes = Vec::new();
        let mut w = WireWriter::new(&mut bytes);
        w.put_u8(1);
        w.put_varint(big.len() as u64);
        for &id in &big {
            w.put_varint(id);
        }
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Selector::decode_from(&mut r),
            Err(WireError::Invalid(_))
        ));
        // The bound itself is fine.
        assert!(TelemetryQuery::new()
            .flows(vec![1u64; MAX_SELECTOR_IDS])
            .plan()
            .is_ok());
    }

    #[test]
    fn hostile_counts_are_rejected_before_allocation() {
        // FlowSet claiming u64::MAX ids with no backing bytes.
        let mut bytes = Vec::new();
        let mut w = WireWriter::new(&mut bytes);
        w.put_u8(1);
        w.put_varint(u64::MAX);
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            Selector::decode_from(&mut r),
            Err(WireError::CountTooLarge { .. })
        ));
        // A decoded-paths result claiming a path longer than any route.
        let mut bytes = Vec::new();
        let mut w = WireWriter::new(&mut bytes);
        w.put_u8(3);
        w.put_varint(1); // one row
        w.put_varint(7); // flow
        w.put_varint(1 << 20); // hostile path length
        bytes.extend_from_slice(&[0u8; 4096]);
        assert!(QueryResult::decode(&bytes).is_err());
    }

    #[test]
    fn wire_plan_validation_matches_builder_validation() {
        // Encode a plan with an out-of-range phi by hand; decode_checked
        // must reject it even though the bytes parse.
        let plan = QueryPlan {
            selector: Selector::All,
            projection: Projection::HopQuantiles {
                hop: 1,
                phis: vec![2.5],
                decode: None,
            },
            options: QueryOptions::default(),
        };
        let bytes = plan.encode();
        assert!(matches!(
            QueryPlan::decode_checked(&bytes),
            Err(crate::QueryError::InvalidPlan(_))
        ));
    }

    #[test]
    fn hostile_decode_specs_are_rejected_without_panicking() {
        // Each spec parses at the wire layer but must bounce in
        // validation — constructing a codec from it would assert/panic.
        let hostile = [
            (0u32, 100.0, 1.0e7),              // bits out of range
            (33, 100.0, 1.0e7),                // bits out of range
            (8, 0.0, 1.0e7),                   // v_min not positive
            (8, -5.0, 1.0e7),                  // v_min negative
            (8, f64::NAN, 1.0e7),              // v_min NaN
            (8, 100.0, 100.0),                 // empty range
            (8, 100.0, f64::INFINITY),         // v_max infinite
            (8, f64::INFINITY, f64::INFINITY), // both infinite
        ];
        for (bits, v_min, v_max) in hostile {
            let plan = QueryPlan {
                selector: Selector::All,
                projection: Projection::HopQuantiles {
                    hop: 1,
                    phis: vec![0.5],
                    decode: Some(ValueDecodeSpec { bits, v_min, v_max }),
                },
                options: QueryOptions::default(),
            };
            let bytes = plan.encode();
            assert!(
                matches!(
                    QueryPlan::decode_checked(&bytes),
                    Err(crate::QueryError::InvalidPlan(_))
                ),
                "spec ({bits}, {v_min}, {v_max}) must be rejected"
            );
        }
    }
}
