//! The `Metrics` frame (type 8): remote self-telemetry.
//!
//! A client sends a [`MetricsRequest`]; the server answers on the same
//! connection with a [`MetricsReport`] carrying a full
//! [`MetricsSnapshot`]. Both directions share the frame type and are
//! distinguished by a leading kind byte, so a single decode entry point
//! ([`MetricsMsg::decode`]) serves both peers. Like every codec in this
//! crate, decoding never panics on hostile bytes.

use crate::error::WireError;
use crate::rw::{WireReader, WireWriter};
use crate::{WireDecode, WireEncode};
use pint_obs::{
    HistogramSnapshot, MetricsSnapshot, ScalarMetric, SnapshotHistogram, HISTOGRAM_BUCKETS,
};

/// Longest metric name accepted on the wire.
pub const MAX_METRIC_NAME: usize = 160;

const KIND_REQUEST: u8 = 0;
const KIND_REPORT: u8 = 1;

/// Ask a server for its current metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsRequest {
    /// Client-chosen id echoed in the [`MetricsReport`].
    pub request_id: u64,
}

/// A server's metrics snapshot, answering one [`MetricsRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// Echoed request id.
    pub request_id: u64,
    /// Server-chosen source identifier (collector id, 0 if unset).
    pub source: u64,
    /// The snapshot itself.
    pub snapshot: MetricsSnapshot,
}

/// Either side of the `Metrics` conversation, for decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricsMsg {
    /// A client asking for metrics.
    Request(MetricsRequest),
    /// A server answering.
    Report(MetricsReport),
}

impl WireEncode for MetricsRequest {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_u8(KIND_REQUEST);
        w.put_varint(self.request_id);
    }
}

impl WireEncode for MetricsReport {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_u8(KIND_REPORT);
        w.put_varint(self.request_id);
        w.put_varint(self.source);
        self.snapshot.encode_into(out);
    }
}

impl WireDecode for MetricsMsg {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            KIND_REQUEST => Ok(MetricsMsg::Request(MetricsRequest {
                request_id: r.get_varint()?,
            })),
            KIND_REPORT => {
                let request_id = r.get_varint()?;
                let source = r.get_varint()?;
                let snapshot = MetricsSnapshot::decode_from(r)?;
                Ok(MetricsMsg::Report(MetricsReport {
                    request_id,
                    source,
                    snapshot,
                }))
            }
            _ => Err(WireError::Invalid("unknown metrics message kind")),
        }
    }
}

fn put_name(w: &mut WireWriter<'_>, name: &str) {
    debug_assert!(name.len() <= MAX_METRIC_NAME, "metric name too long");
    w.put_varint(name.len() as u64);
    w.put_bytes(name.as_bytes());
}

fn get_name(r: &mut WireReader<'_>) -> Result<String, WireError> {
    let len = r.get_varint()? as usize;
    if len > MAX_METRIC_NAME {
        return Err(WireError::Invalid("metric name too long"));
    }
    let bytes = r.get_bytes(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("metric name not utf-8"))
}

fn put_shard(w: &mut WireWriter<'_>, shard: Option<u32>) {
    match shard {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            w.put_varint(s as u64);
        }
    }
}

fn get_shard(r: &mut WireReader<'_>) -> Result<Option<u32>, WireError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => {
            let s = r.get_varint()?;
            u32::try_from(s)
                .map(Some)
                .map_err(|_| WireError::Invalid("shard index exceeds u32"))
        }
        _ => Err(WireError::Invalid("bad shard flag")),
    }
}

// Smallest possible scalar entry: 1-byte name length (empty name),
// 1-byte shard flag, 1-byte value varint.
const MIN_SCALAR_BYTES: usize = 3;
// Histograms additionally carry 65 bucket varints and a sum varint.
const MIN_HIST_BYTES: usize = 2 + HISTOGRAM_BUCKETS + 1;
// A count is checked only against the bytes left, and an entry takes
// 8-13x its smallest wire form in memory, so the decoder reserves at
// most this many entries up front and grows as entries actually decode.
const PREALLOC: usize = 256;

impl WireEncode for MetricsSnapshot {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.counters.len() as u64);
        for m in &self.counters {
            put_name(&mut w, &m.name);
            put_shard(&mut w, m.shard);
            w.put_varint(m.value);
        }
        w.put_varint(self.gauges.len() as u64);
        for m in &self.gauges {
            put_name(&mut w, &m.name);
            put_shard(&mut w, m.shard);
            w.put_varint(m.value);
        }
        w.put_varint(self.histograms.len() as u64);
        for h in &self.histograms {
            put_name(&mut w, &h.name);
            put_shard(&mut w, h.shard);
            for b in &h.hist.buckets {
                w.put_varint(*b);
            }
            w.put_varint(h.hist.sum);
        }
    }
}

impl WireDecode for MetricsSnapshot {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.get_count(MIN_SCALAR_BYTES)?;
        let mut counters = Vec::with_capacity(n.min(PREALLOC));
        for _ in 0..n {
            let name = get_name(r)?;
            let shard = get_shard(r)?;
            let value = r.get_varint()?;
            counters.push(ScalarMetric { name, shard, value });
        }
        let n = r.get_count(MIN_SCALAR_BYTES)?;
        let mut gauges = Vec::with_capacity(n.min(PREALLOC));
        for _ in 0..n {
            let name = get_name(r)?;
            let shard = get_shard(r)?;
            let value = r.get_varint()?;
            gauges.push(ScalarMetric { name, shard, value });
        }
        let n = r.get_count(MIN_HIST_BYTES)?;
        let mut histograms = Vec::with_capacity(n.min(PREALLOC));
        for _ in 0..n {
            let name = get_name(r)?;
            let shard = get_shard(r)?;
            let mut hist = HistogramSnapshot::default();
            for b in hist.buckets.iter_mut() {
                *b = r.get_varint()?;
            }
            hist.sum = r.get_varint()?;
            histograms.push(SnapshotHistogram { name, shard, hist });
        }
        Ok(MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_obs::MetricsRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let r = MetricsRegistry::new();
        r.counter("c_total").add(41);
        r.counter_shard("c_sharded_total", 3).add(7);
        r.gauge("depth").set(u64::MAX);
        let h = r.histogram_shard("lat_ns", 0);
        for v in [0u64, 1, 100, 65_000, u64::MAX] {
            h.record(v);
        }
        r.gauge_group("grp", &["a", "b"]).set_all(&[5, 6]);
        r.snapshot()
    }

    #[test]
    fn request_and_report_roundtrip() {
        let req = MetricsRequest { request_id: 99 };
        let decoded = MetricsMsg::decode(&req.encode()).unwrap();
        assert_eq!(decoded, MetricsMsg::Request(req));

        let report = MetricsReport {
            request_id: 99,
            source: 12,
            snapshot: sample_snapshot(),
        };
        let decoded = MetricsMsg::decode(&report.encode()).unwrap();
        assert_eq!(decoded, MetricsMsg::Report(report));
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let snap = MetricsSnapshot::default();
        assert_eq!(MetricsSnapshot::decode(&snap.encode()).unwrap(), snap);
    }

    #[test]
    fn hostile_bytes_never_panic() {
        let good = MetricsReport {
            request_id: 1,
            source: 2,
            snapshot: sample_snapshot(),
        }
        .encode();
        // Truncations at every length.
        for n in 0..good.len() {
            let _ = MetricsMsg::decode(&good[..n]);
        }
        // Single-byte corruptions.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x5A;
            let _ = MetricsMsg::decode(&bad);
        }
    }

    #[test]
    fn oversized_name_rejected() {
        let snap = MetricsSnapshot {
            counters: vec![ScalarMetric {
                name: "x".repeat(MAX_METRIC_NAME + 1),
                shard: None,
                value: 1,
            }],
            gauges: vec![],
            histograms: vec![],
        };
        let mut bytes = Vec::new();
        // Encode by hand (encode_into debug-asserts on long names).
        let mut w = WireWriter::new(&mut bytes);
        w.put_varint(1);
        w.put_varint(snap.counters[0].name.len() as u64);
        w.put_bytes(snap.counters[0].name.as_bytes());
        w.put_u8(0);
        w.put_varint(1);
        w.put_varint(0);
        w.put_varint(0);
        assert!(MetricsSnapshot::decode(&bytes).is_err());
    }

    #[test]
    fn hostile_count_is_bounded() {
        // Claims 2^32 histograms with 2 bytes of input.
        let mut bytes = Vec::new();
        let mut w = WireWriter::new(&mut bytes);
        w.put_varint(0);
        w.put_varint(0);
        w.put_varint(u32::MAX as u64);
        assert!(MetricsSnapshot::decode(&bytes).is_err());
    }
}
