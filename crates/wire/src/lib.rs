//! # pint-wire — the PINT telemetry wire format
//!
//! PINT's collection tier is distributed: per-pod collectors
//! (`pint-collector`) ship their snapshots to a fleet aggregator
//! (`pint-fleet`) over plain sockets. This crate is the codec between
//! them — a small, dependency-free, *versioned* binary format with
//! typed decode errors. Decoding never panics, whatever the bytes:
//! frames off the network are untrusted input.
//!
//! ## Frame format (version 1)
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic       0x50 0x49 0x4E 0x54  (ASCII "PINT")
//! 4       1     version     0x01
//! 5       1     frame type  (see below)
//! 6       4     payload length, u32 little-endian (≤ 64 MiB)
//! 10      n     payload
//! ```
//!
//! Frame types:
//!
//! | byte | type                        | payload |
//! |------|-----------------------------|---------|
//! | 0x01 | [`FrameType::Hello`]        | collector id (varint) |
//! | 0x02 | [`FrameType::Snapshot`]     | a `SnapshotFrame` (see `pint-collector`'s wire module): collector id, epoch, full `CollectorSnapshot` |
//! | 0x03 | [`FrameType::DigestBatch`]  | a [`DigestBatch`]: source id (varint), sequence number (varint), count (varint), then that many [`DigestReport`](pint_core::DigestReport)s |
//! | 0x04 | [`FrameType::Bye`]          | collector id (varint) |
//! | 0x05 | [`FrameType::Query`]        | request id (varint), then a `QueryPlan` (see `pint-query`) |
//! | 0x06 | [`FrameType::QueryResponse`]| request id (varint), status byte, then a `QueryResult` or an error message |
//! | 0x07 | [`FrameType::BatchAck`]     | a [`BatchAck`]: echoed sequence number (varint), status byte (0 = applied, 1 = duplicate) |
//! | 0x08 | [`FrameType::Metrics`]      | self-telemetry: kind byte (0 = [`MetricsRequest`], 1 = [`MetricsReport`] carrying a `pint-obs` `MetricsSnapshot`) |
//! | 0x09 | [`FrameType::TraceDump`]    | pipeline tracing: kind byte (0 = [`TraceRequest`], 1 = [`TraceReport`] carrying a `pint-obs` `TraceDump`) |
//!
//! `DigestBatch`/`BatchAck` together form the edge-ingest protocol:
//! sequence-numbered at-least-once delivery with receiver-side dedup
//! ([`SourceDedup`]; see the [`batch`] module docs). [`FaultInjector`] wraps a sender
//! with deterministic, seeded misbehavior — drops, duplicates,
//! reorders, corruption, truncation, stalls — for soak-testing
//! receivers against hostile peers.
//!
//! Integers inside payloads are either fixed-width **little-endian**
//! (`u64` hash values, coin states, `f64` bit patterns) or **LEB128
//! varints** (counts, identifiers, timestamps — values that are usually
//! small). Every varint is at most 10 bytes; over-long or overflowing
//! encodings are rejected.
//!
//! A decoder receiving a frame with an unknown higher `version` rejects
//! it with [`WireError::UnsupportedVersion`] — payload layouts may
//! change between versions, so there is no partial forward parsing.
//!
//! The [`server`] module is the one connection runtime every PINT TCP
//! endpoint runs on: a [`FrameServer`] polls all of a listener's
//! connections on one thread, enforces the connection cap and the
//! slow-loris deadline, answers `Metrics`/`TraceDump` requests, and
//! hands every other frame to the server's [`FrameHandler`].
//!
//! Beyond socket frames, the [`store`] module defines the *on-disk*
//! codecs of `pint-store`'s durable logs: a versioned [`Superblock`]
//! and CRC-checksummed [`StoreRecord`]s (checkpoint/delta chains). The
//! same hostile-input rules apply — a store file is just bytes that
//! survived a crash, which is its own kind of adversary.
//!
//! ## Using the codec
//!
//! Types implement [`WireEncode`] (append to a caller-owned `Vec<u8>` —
//! the hot path allocates nothing per lane or per item) and
//! [`WireDecode`] (cursor-based, typed errors); a type a receiver keeps
//! as bytes also implements [`WireWalk`], which checks an encoding
//! without building it (the KLL sketch and path progress here, the
//! snapshot rows upstream). This crate provides the
//! impls for the leaf types every tier shares — [`Digest`],
//! [`DigestReport`], [`KllSketch`], [`PathProgress`], [`RecorderKind`],
//! and the [`RecorderImage`]s collector checkpoints store — while
//! `pint-collector` adds its snapshot types on top.
//!
//! ```
//! use pint_core::{Digest, DigestReport};
//! use pint_wire::{WireDecode, WireEncode};
//!
//! let mut d = Digest::new(2);
//! d.set(0, 0xFEED);
//! let report = DigestReport::new(7, 1_001, d, 5, 42);
//!
//! let mut buf = Vec::new();
//! report.encode_into(&mut buf);
//! assert_eq!(DigestReport::decode(&buf).unwrap(), report);
//! ```
//!
//! [`Digest`]: pint_core::Digest
//! [`DigestReport`]: pint_core::DigestReport
//! [`KllSketch`]: pint_sketches::KllSketch
//! [`PathProgress`]: pint_core::PathProgress
//! [`RecorderKind`]: pint_core::RecorderKind
//! [`RecorderImage`]: pint_core::RecorderImage

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod codec;
mod error;
pub mod fault;
mod frame;
pub mod metrics;
mod rw;
pub mod server;
pub mod store;
pub mod trace;

pub use batch::{
    AckStatus, BatchAck, DigestBatch, ReportSink, SkipReports, SourceDedup, TraceContext,
    DEDUP_WINDOW, MAX_BATCH_REPORTS,
};
pub use error::WireError;
pub use fault::{FaultConfig, FaultInjector, FaultStats};
pub use frame::{
    frame_into, parse_frame, peek_frame, FramePoll, FrameReader, FrameType, ReadFrameError,
    HEADER_LEN, MAGIC, MAX_PAYLOAD, VERSION,
};
pub use metrics::{MetricsMsg, MetricsReport, MetricsRequest, MAX_METRIC_NAME};
pub use rw::{WireReader, WireWriter};
pub use server::{FrameHandler, FrameServer, ServerConfig, ServerStats};
pub use store::{
    crc32, read_record, CheckpointRecord, CoveredSource, StoreKind, StoreRecord, Superblock,
    STORE_MAGIC, STORE_VERSION,
};
pub use trace::{TraceMsg, TraceReport, TraceRequest, MAX_TRACE_EVENTS};

/// Serialize into the PINT wire format by appending to a caller-owned
/// buffer — no allocation inside the encoder itself.
pub trait WireEncode {
    /// Appends this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Convenience: encode into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

/// Deserialize from the PINT wire format with typed errors; never
/// panics on malformed, truncated, or adversarial input.
pub trait WireDecode: Sized {
    /// Reads one value at the reader's cursor, advancing it.
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Decodes a value that must occupy `bytes` exactly (trailing bytes
    /// are an error — catches framing bugs and truncation-splice
    /// corruption).
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode_from(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }
}

/// Checks that bytes decode as `Self` without building the value: the
/// same reads and checks as [`WireDecode`], in the same order, with no
/// allocation. A walk accepts exactly the input `decode_from` accepts,
/// so a receiver can vet untrusted bytes once, keep them, and decode
/// them later knowing the decode cannot fail.
pub trait WireWalk: WireDecode {
    /// Walks one value at the reader's cursor, advancing it past it.
    fn walk_from(r: &mut WireReader<'_>) -> Result<(), WireError>;
}
