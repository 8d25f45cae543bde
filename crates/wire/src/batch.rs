//! The edge-ingest frames: sequence-numbered digest batches and their
//! acknowledgments.
//!
//! An edge process batches raw [`DigestReport`]s and ships them
//! upstream as [`DigestBatch`] frames tagged with a stable source id
//! and a per-source sequence number. The receiver replies with one
//! [`BatchAck`] per batch, echoing the sequence number and reporting
//! whether the batch was applied or recognized as a retransmitted
//! duplicate. Together they give the path *at-least-once* delivery:
//! the sender retransmits anything unacknowledged, the receiver
//! deduplicates by `(source, seq)`, and every batch reaches exactly
//! one terminal state — applied, shed by the sender, or deduplicated.

use crate::error::WireError;
use crate::frame::{frame_into, FrameType};
use crate::rw::{WireReader, WireWriter};
use crate::{WireDecode, WireEncode, WireWalk};
use pint_core::DigestReport;
use std::collections::BTreeSet;

/// Upper bound on reports in one batch. A batch is one ingest unit,
/// not a bulk transfer: the bound keeps a hostile count from driving
/// allocation and keeps retransmissions cheap.
pub const MAX_BATCH_REPORTS: usize = 65_536;

/// Trace context stamped onto a [`DigestBatch`] by its sender: the
/// origin clock reading and a per-batch trace id. Receivers echo it
/// into their flight recorder and subtract `origin_ns` from their own
/// clock for a true edge→receiver end-to-end latency sample.
///
/// Carried as a *versioned trailing extension* of the batch payload
/// (tag byte then fields), so decoders that predate it — which stop at
/// the last report — still parse extension-less frames, and encoders
/// that omit it produce frames byte-identical to the old layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Sender clock reading when the batch was sealed (ns). Only
    /// comparable to receiver clocks sharing a time base (one
    /// `VirtualClock`, or hosts with synchronized monotonic-ish
    /// clocks); the latency histogram is honest about that in its docs.
    pub origin_ns: u64,
    /// Sender-chosen id tying this batch's events together across
    /// tiers. Deterministic senders derive it from `(source, seq)`.
    pub trace_id: u64,
}

/// Extension tag for [`TraceContext`] trailing bytes. Future
/// extensions take the next tag; unknown tags are a decode error (the
/// version byte gates layout changes, tags gate optional suffixes).
const EXT_TRACE_CONTEXT: u8 = 1;

/// A sequence-numbered batch of raw digest reports from one edge
/// source (the payload of [`FrameType::DigestBatch`]).
///
/// Wire layout: source id (varint), sequence number (varint), report
/// count (varint), then the reports, then optionally a trailing
/// [`TraceContext`] extension (tag byte `1`, origin timestamp varint,
/// trace id varint). Sequence numbers start at 1 and are per-source
/// monotonic; receivers deduplicate on `(source, seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestBatch {
    /// Stable identifier of the producing edge process.
    pub source: u64,
    /// Per-source sequence number (first batch is 1).
    pub seq: u64,
    /// The digests, in the order the edge recorded them.
    pub reports: Vec<DigestReport>,
    /// Optional sender-stamped trace context (`None` on frames from
    /// senders that predate tracing, and on untraced senders).
    pub trace: Option<TraceContext>,
}

impl DigestBatch {
    /// Wraps this batch in a complete [`FrameType::DigestBatch`] frame.
    pub fn to_frame_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(FrameType::DigestBatch, self, &mut out);
        out
    }

    /// Decodes a `DigestBatch` payload, appending its reports to `out`
    /// instead of a fresh `Vec`, and returns the batch's envelope
    /// (`source`, `seq`, `trace`) with `reports` left empty. Like
    /// [`decode`](WireDecode::decode), the payload must be consumed
    /// exactly. On any error `out` is truncated back to its length at
    /// entry, so a bad payload never leaves part of itself behind.
    pub fn decode_append(
        payload: &[u8],
        out: &mut Vec<DigestReport>,
    ) -> Result<DigestBatch, WireError> {
        let start = out.len();
        let mut r = WireReader::new(payload);
        let decoded = read_batch(&mut r, out).and_then(|batch| {
            r.expect_end()?;
            Ok(batch)
        });
        if decoded.is_err() {
            out.truncate(start);
        }
        decoded
    }
}

impl WireEncode for DigestBatch {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.source);
        w.put_varint(self.seq);
        w.put_varint(self.reports.len() as u64);
        for report in &self.reports {
            report.encode_into(out);
        }
        if let Some(trace) = &self.trace {
            let mut w = WireWriter::new(out);
            w.put_u8(EXT_TRACE_CONTEXT);
            w.put_varint(trace.origin_ns);
            w.put_varint(trace.trace_id);
        }
    }
}

/// Where the batch reader puts the reports it reads: a `Vec` decodes
/// and keeps them, [`SkipReports`] checks them and builds nothing. Both
/// run the one reader, so a batch a walk accepts always decodes.
pub trait ReportSink {
    /// Reads the batch's `count` reports at the cursor.
    fn read(&mut self, r: &mut WireReader<'_>, count: usize) -> Result<(), WireError>;
}

impl ReportSink for Vec<DigestReport> {
    fn read(&mut self, r: &mut WireReader<'_>, count: usize) -> Result<(), WireError> {
        self.reserve(count);
        for _ in 0..count {
            self.push(DigestReport::decode_from(r)?);
        }
        Ok(())
    }
}

/// A [`ReportSink`] that walks reports and keeps only their count.
#[derive(Debug, Default)]
pub struct SkipReports {
    /// Reports the batches read so far declared.
    pub count: usize,
}

impl ReportSink for SkipReports {
    fn read(&mut self, r: &mut WireReader<'_>, count: usize) -> Result<(), WireError> {
        self.count += count;
        (0..count).try_for_each(|_| DigestReport::walk_from(r))
    }
}

/// The one batch reader: reads the envelope, hands each report to
/// `out`, and returns the envelope with empty `reports`. Callers own
/// rolling a `Vec` sink back on error.
pub(crate) fn read_batch(
    r: &mut WireReader<'_>,
    out: &mut impl ReportSink,
) -> Result<DigestBatch, WireError> {
    let source = r.get_varint()?;
    let seq = r.get_varint()?;
    // A minimal report is 5 bytes (four 1-byte varints + a zero-lane
    // digest); validate the count against the remaining input before
    // any allocation.
    let count = r.get_count(5)?;
    if count > MAX_BATCH_REPORTS {
        return Err(WireError::Invalid("too many reports in one batch"));
    }
    out.read(r, count)?;
    // Trailing extension: absent on old-version frames (payload ends
    // at the last report), present when the sender stamped a trace
    // context. `decode` enforces exact consumption, so the extension
    // must be read here, not ignored.
    let trace = if r.remaining() > 0 {
        match r.get_u8()? {
            EXT_TRACE_CONTEXT => Some(TraceContext {
                origin_ns: r.get_varint()?,
                trace_id: r.get_varint()?,
            }),
            _ => return Err(WireError::Invalid("unknown digest batch extension")),
        }
    } else {
        None
    };
    Ok(DigestBatch {
        source,
        seq,
        reports: Vec::new(),
        trace,
    })
}

impl WireDecode for DigestBatch {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let mut reports = Vec::new();
        let batch = read_batch(r, &mut reports)?;
        Ok(DigestBatch { reports, ..batch })
    }
}

/// Out-of-order sequence numbers remembered per source before a
/// [`SourceDedup`] window compacts by abandoning its oldest gap.
pub const DEDUP_WINDOW: usize = 1_024;

/// Exact per-source sequence dedup that tolerates *permanent* gaps —
/// the receiver side of the at-least-once batch protocol.
///
/// A forwarder under overload sheds batches, so a receiver must never
/// wait for a sequence number that will never arrive: freshness is
/// "not at or below the contiguous floor, and not among the
/// out-of-order seqs already seen". The out-of-order set is bounded;
/// past [`DEDUP_WINDOW`] entries the floor advances over the oldest
/// gap (an abandoned seq that does arrive later is then reported as a
/// duplicate — the conservative side: accounting stays exact, data is
/// never double-applied).
///
/// This lives in `pint-wire` because every consumer of the protocol
/// needs it: the fleet's `DigestServer` deduplicates live streams,
/// and `pint-store` restore paths replay persisted
/// batches through the same window so a crash mid-batch (or a
/// checkpoint overlapping the delta chain) never double-applies.
#[derive(Debug, Default, Clone)]
pub struct SourceDedup {
    /// Every seq `<= contiguous` has been seen (or abandoned).
    contiguous: u64,
    /// Seen seqs above the floor (out-of-order arrivals).
    above: BTreeSet<u64>,
}

impl SourceDedup {
    /// An empty window (no sequence numbers seen).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one arrival; `true` if this `(source, seq)` is fresh.
    pub fn observe(&mut self, seq: u64) -> bool {
        if seq <= self.contiguous || self.above.contains(&seq) {
            return false;
        }
        self.above.insert(seq);
        while self.above.remove(&(self.contiguous + 1)) {
            self.contiguous += 1;
        }
        while self.above.len() > DEDUP_WINDOW {
            // Abandon the oldest gap: jump the floor to the smallest
            // out-of-order seq and re-compact.
            if let Some(&lo) = self.above.iter().next() {
                self.contiguous = lo;
                self.above.remove(&lo);
                while self.above.remove(&(self.contiguous + 1)) {
                    self.contiguous += 1;
                }
            }
        }
        true
    }

    /// The contiguous floor: every seq at or below it has been seen or
    /// abandoned.
    pub fn floor(&self) -> u64 {
        self.contiguous
    }

    /// Out-of-order seqs currently remembered above the floor.
    pub fn pending_above(&self) -> usize {
        self.above.len()
    }

    /// Raises the floor to at least `seq` (no-op when already past
    /// it), compacting any remembered seqs the new floor swallows.
    /// Restore paths use this to prime the window from a checkpoint's
    /// coverage so deltas the checkpoint subsumes dedup as duplicates.
    pub fn advance_floor(&mut self, seq: u64) {
        if seq <= self.contiguous {
            return;
        }
        self.contiguous = seq;
        self.above = self.above.split_off(&(seq + 1));
        while self.above.remove(&(self.contiguous + 1)) {
            self.contiguous += 1;
        }
    }
}

/// What a receiver did with an acknowledged batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    /// First delivery: the batch was fed downstream.
    Applied,
    /// A retransmission of a batch already applied (or already
    /// abandoned): dropped by the receiver's sequence dedup.
    Duplicate,
}

/// The payload of [`FrameType::BatchAck`]: the echoed sequence number
/// and the receiver's verdict.
///
/// Acks travel on the same connection as the batches; source identity
/// is implied by the connection, so only the sequence number is echoed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAck {
    /// The acknowledged batch's sequence number.
    pub seq: u64,
    /// Applied or duplicate.
    pub status: AckStatus,
}

impl BatchAck {
    /// Wraps this ack in a complete [`FrameType::BatchAck`] frame.
    pub fn to_frame_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        frame_into(FrameType::BatchAck, self, &mut out);
        out
    }
}

impl WireEncode for BatchAck {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.seq);
        w.put_u8(match self.status {
            AckStatus::Applied => 0,
            AckStatus::Duplicate => 1,
        });
    }
}

impl WireDecode for BatchAck {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let seq = r.get_varint()?;
        let status = match r.get_u8()? {
            0 => AckStatus::Applied,
            1 => AckStatus::Duplicate,
            _ => return Err(WireError::Invalid("unknown ack status")),
        };
        Ok(BatchAck { seq, status })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_frame;
    use pint_core::Digest;

    fn sample_batch() -> DigestBatch {
        let reports = (0..5u64)
            .map(|i| {
                let mut d = Digest::new(2);
                d.set(0, i.wrapping_mul(0x9E37));
                d.set(1, !i);
                DigestReport::new(i % 3, 1_000 + i, d, 5, 40 + i)
            })
            .collect();
        DigestBatch {
            source: 17,
            seq: 3,
            reports,
            trace: None,
        }
    }

    #[test]
    fn batch_round_trips_through_its_frame() {
        let batch = sample_batch();
        let bytes = batch.to_frame_bytes();
        let (ty, payload) = parse_frame(&bytes).unwrap();
        assert_eq!(ty, FrameType::DigestBatch);
        assert_eq!(DigestBatch::decode(payload).unwrap(), batch);
    }

    #[test]
    fn decode_append_appends_or_leaves_the_buffer_as_it_was() {
        let mut batch = sample_batch();
        batch.trace = Some(TraceContext {
            origin_ns: 5,
            trace_id: 6,
        });
        let payload = batch.encode();
        let prior = sample_batch().reports;
        let mut out = prior.clone();
        let envelope = DigestBatch::decode_append(&payload, &mut out).unwrap();
        assert_eq!(
            DigestBatch {
                reports: out[prior.len()..].to_vec(),
                ..envelope
            },
            batch
        );
        assert_eq!(&out[..prior.len()], &prior[..]);
        // Every proper prefix but the extension-less one fails, and
        // takes nothing with it.
        let untraced = sample_batch().encode().len();
        for cut in (0..payload.len()).filter(|&cut| cut != untraced) {
            let mut out = prior.clone();
            assert!(DigestBatch::decode_append(&payload[..cut], &mut out).is_err());
            assert_eq!(out, prior, "a {cut}-byte prefix left reports behind");
        }
    }

    #[test]
    fn ack_round_trips_through_its_frame() {
        for status in [AckStatus::Applied, AckStatus::Duplicate] {
            let ack = BatchAck {
                seq: u64::MAX,
                status,
            };
            let bytes = ack.to_frame_bytes();
            let (ty, payload) = parse_frame(&bytes).unwrap();
            assert_eq!(ty, FrameType::BatchAck);
            assert_eq!(BatchAck::decode(payload).unwrap(), ack);
        }
    }

    #[test]
    fn trace_context_extension_round_trips() {
        let mut batch = sample_batch();
        batch.trace = Some(TraceContext {
            origin_ns: 1_234_567_890,
            trace_id: 0xDEAD_BEEF_u64,
        });
        let bytes = batch.to_frame_bytes();
        let (ty, payload) = parse_frame(&bytes).unwrap();
        assert_eq!(ty, FrameType::DigestBatch);
        assert_eq!(DigestBatch::decode(payload).unwrap(), batch);
    }

    #[test]
    fn extension_less_frames_decode_with_no_trace_context() {
        // A traced batch's payload minus the extension bytes is exactly
        // what a pre-tracing sender emits; it must decode cleanly with
        // `trace: None` and be byte-identical to the untraced encoding.
        let untraced = sample_batch();
        let mut traced = untraced.clone();
        traced.trace = Some(TraceContext {
            origin_ns: 7,
            trace_id: 9,
        });
        let old_bytes = untraced.encode();
        let new_bytes = traced.encode();
        assert!(new_bytes.len() > old_bytes.len());
        assert_eq!(&new_bytes[..old_bytes.len()], &old_bytes[..]);
        let decoded = DigestBatch::decode(&old_bytes).unwrap();
        assert_eq!(decoded.trace, None);
        assert_eq!(decoded, untraced);
    }

    #[test]
    fn unknown_extension_tags_are_rejected() {
        let mut bytes = sample_batch().encode();
        bytes.push(0xEE); // future extension tag this decoder predates
        assert!(matches!(
            DigestBatch::decode(&bytes),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn hostile_report_counts_are_rejected_before_allocation() {
        let mut bytes = Vec::new();
        let mut w = WireWriter::new(&mut bytes);
        w.put_varint(1); // source
        w.put_varint(1); // seq
        w.put_varint(u64::MAX); // count with no backing bytes
        assert!(matches!(
            DigestBatch::decode(&bytes),
            Err(WireError::CountTooLarge { .. })
        ));
    }

    #[test]
    fn oversized_but_backed_report_counts_are_rejected() {
        // Physically back the count with 5 bytes per claimed report so
        // the count guard passes; the explicit batch bound must still
        // reject it.
        let claimed = (MAX_BATCH_REPORTS + 1) as u64;
        let mut bytes = Vec::new();
        let mut w = WireWriter::new(&mut bytes);
        w.put_varint(1);
        w.put_varint(1);
        w.put_varint(claimed);
        bytes.resize(bytes.len() + (claimed as usize) * 5, 0);
        assert!(matches!(
            DigestBatch::decode(&bytes),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn dedup_is_exact_in_order() {
        let mut d = SourceDedup::new();
        for seq in 1..=100u64 {
            assert!(d.observe(seq), "first sight of {seq}");
            assert!(!d.observe(seq), "immediate dup of {seq}");
        }
        assert_eq!(d.pending_above(), 0, "in-order stream fully compacts");
        assert_eq!(d.floor(), 100);
    }

    #[test]
    fn dedup_tolerates_gaps_and_reorders() {
        let mut d = SourceDedup::new();
        assert!(d.observe(2), "gap: 1 was shed");
        assert!(d.observe(4));
        assert!(!d.observe(2), "reordered dup");
        assert!(d.observe(3), "late arrival in the gap is fresh");
        assert!(!d.observe(4));
        assert!(d.observe(1), "the shed seq arriving after all is fresh");
        assert_eq!(d.floor(), 4, "gap closed: everything compacts");
    }

    #[test]
    fn dedup_window_compacts_by_abandoning_oldest_gap() {
        let mut d = SourceDedup::new();
        // Seq 1 never arrives; fill far past the window.
        for seq in 2..(DEDUP_WINDOW as u64 + 100) {
            assert!(d.observe(seq));
        }
        assert!(
            d.pending_above() <= DEDUP_WINDOW,
            "window bounded: {} entries",
            d.pending_above()
        );
        // The abandoned seq is now conservatively a duplicate.
        assert!(!d.observe(1), "abandoned gap reports duplicate");
    }

    #[test]
    fn dedup_floor_priming_swallows_covered_seqs() {
        let mut d = SourceDedup::new();
        assert!(d.observe(12), "out-of-order arrival above the floor");
        d.advance_floor(10);
        assert_eq!(d.floor(), 10);
        assert!(!d.observe(3), "covered by the primed floor");
        assert!(!d.observe(10), "the floor itself is covered");
        assert!(!d.observe(12), "remembered arrival survives priming");
        assert!(d.observe(11), "first uncovered seq is fresh");
        assert_eq!(d.floor(), 12, "11 bridges the gap to remembered 12");
        // Priming below the current floor is a no-op.
        d.advance_floor(1);
        assert_eq!(d.floor(), 12);
    }

    #[test]
    fn truncation_and_corruption_never_panic() {
        let mut batch = sample_batch();
        batch.trace = Some(TraceContext {
            origin_ns: u64::MAX,
            trace_id: 1,
        });
        let bytes = batch.encode();
        let mut untraced = batch.clone();
        untraced.trace = None;
        let ext_boundary = untraced.encode().len();
        for cut in 0..bytes.len() {
            match DigestBatch::decode(&bytes[..cut]) {
                // The one legal truncation: cutting off the whole
                // trailing extension leaves a valid pre-tracing frame.
                Ok(b) => assert_eq!((cut, b), (ext_boundary, untraced.clone())),
                Err(_) => assert_ne!(cut, ext_boundary),
            }
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x5A;
            let _ = DigestBatch::decode(&bad); // Err or Ok, never a panic
        }
        let ack = BatchAck {
            seq: 300,
            status: AckStatus::Applied,
        }
        .encode();
        for cut in 0..ack.len() {
            assert!(BatchAck::decode(&ack[..cut]).is_err(), "cut at {cut}");
        }
    }
}
