//! The `TraceDump` frame (type 9): remote flight-recorder exposition.
//!
//! A client sends a [`TraceRequest`]; the server answers on the same
//! connection with a [`TraceReport`] carrying a full
//! [`TraceDump`] drained (non-destructively) from its
//! [`FlightRecorder`](pint_obs::FlightRecorder). Both directions share
//! the frame type and are distinguished by a leading kind byte,
//! mirroring the [`metrics`](crate::metrics) module. Like every codec
//! in this crate, decoding never panics on hostile bytes.

use crate::error::WireError;
use crate::rw::{WireReader, WireWriter};
use crate::{WireDecode, WireEncode};
use pint_obs::{TraceDump, TraceEvent, TraceStage};

/// Upper bound on events in one dump. Recorders are bounded rings (a
/// few thousand slots), so this is generous headroom while keeping a
/// hostile count from driving allocation.
pub const MAX_TRACE_EVENTS: usize = 65_536;

const KIND_REQUEST: u8 = 0;
const KIND_REPORT: u8 = 1;

/// Ask a server for its current flight-recorder dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRequest {
    /// Client-chosen id echoed in the [`TraceReport`].
    pub request_id: u64,
}

/// A server's flight-recorder dump, answering one [`TraceRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReport {
    /// Echoed request id.
    pub request_id: u64,
    /// Server-chosen source identifier (collector id, 0 if unset).
    pub source: u64,
    /// The dump itself (empty when the server has no recorder).
    pub dump: TraceDump,
}

/// Either side of the `TraceDump` conversation, for decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceMsg {
    /// A client asking for a trace dump.
    Request(TraceRequest),
    /// A server answering.
    Report(TraceReport),
}

impl WireEncode for TraceRequest {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_u8(KIND_REQUEST);
        w.put_varint(self.request_id);
    }
}

impl WireEncode for TraceReport {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_u8(KIND_REPORT);
        w.put_varint(self.request_id);
        w.put_varint(self.source);
        self.dump.encode_into(out);
    }
}

impl WireDecode for TraceMsg {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            KIND_REQUEST => Ok(TraceMsg::Request(TraceRequest {
                request_id: r.get_varint()?,
            })),
            KIND_REPORT => {
                let request_id = r.get_varint()?;
                let source = r.get_varint()?;
                let dump = TraceDump::decode_from(r)?;
                Ok(TraceMsg::Report(TraceReport {
                    request_id,
                    source,
                    dump,
                }))
            }
            _ => Err(WireError::Invalid("unknown trace message kind")),
        }
    }
}

// Smallest possible event: five 1-byte varints/bytes (tick, stage,
// source, seq, shard).
const MIN_EVENT_BYTES: usize = 5;

impl WireEncode for TraceDump {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.events.len() as u64);
        for e in &self.events {
            w.put_varint(e.tick_ns);
            w.put_u8(e.stage as u8);
            w.put_varint(e.source);
            w.put_varint(e.seq);
            w.put_varint(u64::from(e.shard));
        }
        w.put_varint(self.dropped);
    }
}

impl WireDecode for TraceDump {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let count = r.get_count(MIN_EVENT_BYTES)?;
        if count > MAX_TRACE_EVENTS {
            return Err(WireError::Invalid("too many events in one trace dump"));
        }
        // An event is 32 bytes in memory against 5 on the wire: reserve
        // a bounded prefix and grow as events actually decode.
        let mut events = Vec::with_capacity(count.min(1_024));
        for _ in 0..count {
            let tick_ns = r.get_varint()?;
            let stage = TraceStage::from_u8(r.get_u8()?)
                .ok_or(WireError::Invalid("unknown trace stage"))?;
            let source = r.get_varint()?;
            let seq = r.get_varint()?;
            let shard = u32::try_from(r.get_varint()?)
                .map_err(|_| WireError::Invalid("trace shard exceeds u32"))?;
            events.push(TraceEvent {
                tick_ns,
                stage,
                source,
                seq,
                shard,
            });
        }
        let dropped = r.get_varint()?;
        Ok(TraceDump { events, dropped })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_obs::FlightRecorder;

    fn sample_dump() -> TraceDump {
        let rec = FlightRecorder::new(2, 16);
        rec.record(0, TraceStage::ForwarderSealed, 5, 1);
        rec.record(0, TraceStage::ServerApplied, 5, 1);
        rec.record(1, TraceStage::CollectorBatch, 3, 2);
        rec.record(1, TraceStage::ServerDuplicate, 5, 1);
        rec.snapshot()
    }

    #[test]
    fn request_and_report_roundtrip() {
        let req = TraceRequest { request_id: 42 };
        assert_eq!(
            TraceMsg::decode(&req.encode()).unwrap(),
            TraceMsg::Request(req)
        );

        let report = TraceReport {
            request_id: 42,
            source: 7,
            dump: sample_dump(),
        };
        let decoded = TraceMsg::decode(&report.encode()).unwrap();
        assert_eq!(decoded, TraceMsg::Report(report));
    }

    #[test]
    fn empty_dump_roundtrips() {
        let dump = TraceDump::default();
        assert_eq!(TraceDump::decode(&dump.encode()).unwrap(), dump);
    }

    #[test]
    fn dropped_count_survives_the_wire() {
        let rec = FlightRecorder::new(1, 2);
        for i in 0..10 {
            rec.record(0, TraceStage::SinkDelivered, 1, i);
        }
        let dump = rec.snapshot();
        assert_eq!(dump.dropped, 8);
        assert_eq!(TraceDump::decode(&dump.encode()).unwrap().dropped, 8);
    }

    #[test]
    fn hostile_bytes_never_panic() {
        let good = TraceReport {
            request_id: 1,
            source: 2,
            dump: sample_dump(),
        }
        .encode();
        for n in 0..good.len() {
            let _ = TraceMsg::decode(&good[..n]);
        }
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x5A;
            let _ = TraceMsg::decode(&bad);
        }
    }

    #[test]
    fn hostile_event_count_is_bounded() {
        let mut bytes = Vec::new();
        let mut w = WireWriter::new(&mut bytes);
        w.put_u8(super::KIND_REPORT);
        w.put_varint(1); // request id
        w.put_varint(2); // source
        w.put_varint(u64::MAX); // event count with no backing bytes
        assert!(matches!(
            TraceMsg::decode(&bytes),
            Err(WireError::CountTooLarge { .. })
        ));
    }

    #[test]
    fn unknown_stage_bytes_are_rejected() {
        let dump = TraceDump {
            events: vec![TraceEvent {
                tick_ns: 1,
                stage: TraceStage::ForwarderSealed,
                source: 2,
                seq: 3,
                shard: 4,
            }],
            dropped: 0,
        };
        let mut bytes = dump.encode();
        // The stage byte follows the 1-byte count and 1-byte tick varint.
        bytes[2] = 0xEE;
        assert!(matches!(
            TraceDump::decode(&bytes),
            Err(WireError::Invalid("unknown trace stage"))
        ));
    }
}
