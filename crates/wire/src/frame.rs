//! Frame header encoding/parsing and stream reassembly.
//!
//! See the crate docs for the byte layout. Three entry points cover the
//! transports `pint-fleet` uses:
//!
//! * [`frame_into`] — wrap an encodable payload in a header (sender side).
//! * [`parse_frame`] — exactly one frame in a byte slice (in-memory
//!   transports, tests).
//! * [`peek_frame`] / [`FrameReader`] — incremental reassembly over a
//!   byte stream (TCP), tolerant of frames split across reads.

use crate::error::WireError;
use crate::WireEncode;
use std::io::Read;

/// The four magic bytes every frame starts with (ASCII `PINT`).
pub const MAGIC: [u8; 4] = *b"PINT";

/// The wire-format version this build encodes and decodes.
pub const VERSION: u8 = 1;

/// Bytes of header before the payload: magic (4), version (1), frame
/// type (1), payload length (4).
pub const HEADER_LEN: usize = 10;

/// Hard cap on a frame's payload. A snapshot of 65k flows with generous
/// sketches is a few MiB; 64 MiB leaves headroom while bounding what a
/// hostile length prefix can make a receiver buffer.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// What a frame carries (the header's type byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameType {
    /// A collector announcing itself: payload is its collector id
    /// (varint).
    Hello = 1,
    /// A full collector snapshot keyed by collector id + epoch.
    Snapshot = 2,
    /// A batch of raw [`DigestReport`](pint_core::DigestReport)s: count
    /// (varint) then the reports (network ingest path).
    DigestBatch = 3,
    /// A collector leaving the fleet: payload is its collector id
    /// (varint). Receivers drop its snapshots from the fleet view.
    Bye = 4,
    /// A telemetry query: request id (varint) then an encoded
    /// `QueryPlan` (see `pint-query`). Servers answer on the same
    /// connection with a [`QueryResponse`](FrameType::QueryResponse).
    Query = 5,
    /// The answer to a [`Query`](FrameType::Query): the echoed request
    /// id, a status byte, then an encoded `QueryResult` or an error
    /// message.
    QueryResponse = 6,
    /// A receiver acknowledging one [`DigestBatch`](FrameType::DigestBatch):
    /// the echoed sequence number (varint) and a status byte (applied
    /// or duplicate). The at-least-once half of the edge-ingest
    /// protocol — see [`BatchAck`](crate::BatchAck).
    BatchAck = 7,
    /// Self-telemetry: a metrics request (kind byte 0, request id) or a
    /// metrics report (kind byte 1, request id, source id, then a full
    /// `MetricsSnapshot`) — see the [`metrics`](crate::metrics) module.
    /// Requests are answered by every [`FrameServer`](crate::FrameServer).
    Metrics = 8,
    /// Pipeline tracing: a trace request (kind byte 0, request id) or a
    /// trace report (kind byte 1, request id, source id, then a
    /// `pint-obs` `TraceDump`) — see the [`trace`](crate::trace)
    /// module. Requests are answered by every
    /// [`FrameServer`](crate::FrameServer), next to
    /// [`Metrics`](FrameType::Metrics).
    TraceDump = 9,
}

impl FrameType {
    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(FrameType::Hello),
            2 => Ok(FrameType::Snapshot),
            3 => Ok(FrameType::DigestBatch),
            4 => Ok(FrameType::Bye),
            5 => Ok(FrameType::Query),
            6 => Ok(FrameType::QueryResponse),
            7 => Ok(FrameType::BatchAck),
            8 => Ok(FrameType::Metrics),
            9 => Ok(FrameType::TraceDump),
            other => Err(WireError::UnknownFrameType(other)),
        }
    }
}

/// Appends a complete frame — header plus `payload`'s encoding — to
/// `out`.
///
/// # Panics
///
/// If the encoded payload exceeds [`MAX_PAYLOAD`]. The sender owns its
/// payload sizes (split giant snapshots before framing), so this is a
/// programming error, unlike the decode side where oversized input is a
/// typed rejection.
pub fn frame_into(ty: FrameType, payload: &impl WireEncode, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(ty as u8);
    out.extend_from_slice(&[0; 4]); // length back-patched below
    payload.encode_into(out);
    let len = out.len() - start - HEADER_LEN;
    assert!(
        len <= MAX_PAYLOAD,
        "frame payload of {len} bytes exceeds MAX_PAYLOAD"
    );
    out[start + 6..start + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Validates a header prefix and, once `buf` holds the whole frame,
/// returns `(type, payload, total frame length)`.
///
/// `Ok(None)` means the bytes so far are a valid frame *prefix* — read
/// more and call again. Errors are permanent for this stream (bad magic,
/// future version, unknown type, oversized payload).
pub fn peek_frame(buf: &[u8]) -> Result<Option<(FrameType, &[u8], usize)>, WireError> {
    // Validate eagerly on whatever prefix is available, so a garbage
    // stream is rejected at its first bytes, not after MAX_PAYLOAD of
    // buffering.
    let have_magic = buf.len().min(MAGIC.len());
    if buf[..have_magic] != MAGIC[..have_magic] {
        return Err(WireError::BadMagic);
    }
    if buf.len() > 4 && buf[4] != VERSION {
        return Err(WireError::UnsupportedVersion {
            found: buf[4],
            supported: VERSION,
        });
    }
    if buf.len() > 5 {
        FrameType::from_byte(buf[5])?;
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_PAYLOAD,
        });
    }
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let ty = FrameType::from_byte(buf[5])?;
    Ok(Some((
        ty,
        &buf[HEADER_LEN..HEADER_LEN + len],
        HEADER_LEN + len,
    )))
}

/// Parses a byte slice holding exactly one frame (no leftovers).
pub fn parse_frame(bytes: &[u8]) -> Result<(FrameType, &[u8]), WireError> {
    match peek_frame(bytes)? {
        Some((ty, payload, consumed)) if consumed == bytes.len() => Ok((ty, payload)),
        Some((_, _, consumed)) => Err(WireError::TrailingBytes {
            remaining: bytes.len() - consumed,
        }),
        None => Err(WireError::Truncated {
            needed: HEADER_LEN,
            have: bytes.len(),
        }),
    }
}

/// Why [`FrameReader::read_frame`] failed: transport I/O or a corrupt
/// stream.
#[derive(Debug)]
pub enum ReadFrameError {
    /// The underlying reader failed (or hit EOF mid-frame).
    Io(std::io::Error),
    /// The stream's bytes do not form a valid frame; the connection
    /// should be dropped (framing cannot resynchronize).
    Wire(WireError),
}

impl std::fmt::Display for ReadFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadFrameError::Io(e) => write!(f, "frame transport error: {e}"),
            ReadFrameError::Wire(e) => write!(f, "frame decode error: {e}"),
        }
    }
}

impl std::error::Error for ReadFrameError {}

impl From<WireError> for ReadFrameError {
    fn from(e: WireError) -> Self {
        ReadFrameError::Wire(e)
    }
}

/// Reassembles frames from a byte stream (`TcpStream`, pipe, …).
///
/// Reads are buffered and frames may arrive split or coalesced
/// arbitrarily. A read timeout (or an empty non-blocking socket)
/// surfaces as `Io(WouldBlock)` / [`FramePoll::Pending`] with **no
/// bytes lost** — the partial frame stays buffered and the next call
/// resumes it (this is what lets a client poll its own deadlines and a
/// server poll many connections).
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    chunk: Box<[u8]>,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            chunk: vec![0; 16 * 1024].into_boxed_slice(),
        }
    }

    /// Bytes buffered towards the next frame (a partial frame mid-read).
    /// Poll loops compare this across ticks to detect slow-loris peers:
    /// a connection stuck mid-frame with no growth is stalled, not slow.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Returns the next complete frame as `(type, payload)`, `Ok(None)`
    /// on a clean EOF at a frame boundary.
    ///
    /// [`poll_frame`](Self::poll_frame) for blocking callers:
    /// `ErrorKind::Interrupted` reads are retried internally — a signal
    /// mid-read must not tear down the stream — and an expired read
    /// timeout surfaces as `Io(WouldBlock)` with the partial frame kept
    /// buffered, so the caller can poll a shutdown flag and resume.
    pub fn read_frame(&mut self) -> Result<Option<(FrameType, Vec<u8>)>, ReadFrameError> {
        match self.poll_frame()? {
            FramePoll::Frame(ty, payload) => Ok(Some((ty, payload))),
            FramePoll::Closed => Ok(None),
            FramePoll::Pending => Err(ReadFrameError::Io(std::io::ErrorKind::WouldBlock.into())),
        }
    }

    /// One step of a poll loop over a non-blocking stream.
    ///
    /// `WouldBlock`/`TimedOut` become [`FramePoll::Pending`] — no bytes
    /// are lost; the partial frame stays buffered and the next call
    /// resumes it. `Interrupted` is retried. A clean EOF at a frame
    /// boundary is [`FramePoll::Closed`]; EOF mid-frame is an
    /// `UnexpectedEof` error like the blocking path.
    pub fn poll_frame(&mut self) -> Result<FramePoll, ReadFrameError> {
        loop {
            match peek_frame(&self.buf)? {
                Some((ty, payload, consumed)) => {
                    let payload = payload.to_vec();
                    self.buf.drain(..consumed);
                    return Ok(FramePoll::Frame(ty, payload));
                }
                None => match self.inner.read(&mut self.chunk) {
                    Ok(0) => {
                        if self.buf.is_empty() {
                            return Ok(FramePoll::Closed);
                        }
                        return Err(ReadFrameError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "stream ended mid-frame",
                        )));
                    }
                    Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        return Ok(FramePoll::Pending)
                    }
                    Err(e) => return Err(ReadFrameError::Io(e)),
                },
            }
        }
    }
}

/// One step of [`FrameReader::poll_frame`] over a non-blocking stream.
#[derive(Debug)]
pub enum FramePoll {
    /// A complete frame was reassembled.
    Frame(FrameType, Vec<u8>),
    /// No complete frame yet; the socket has no more bytes right now.
    /// Any partial frame stays buffered for the next poll.
    Pending,
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireReader;

    struct VarintPayload(u64);
    impl WireEncode for VarintPayload {
        fn encode_into(&self, out: &mut Vec<u8>) {
            crate::WireWriter::new(out).put_varint(self.0);
        }
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        frame_into(FrameType::Hello, &VarintPayload(300), &mut buf);
        let (ty, payload) = parse_frame(&buf).unwrap();
        assert_eq!(ty, FrameType::Hello);
        let mut r = WireReader::new(payload);
        assert_eq!(r.get_varint().unwrap(), 300);
    }

    #[test]
    fn peek_rejects_garbage_eagerly() {
        assert_eq!(peek_frame(b"HTTP"), Err(WireError::BadMagic));
        assert_eq!(peek_frame(b"PI"), Ok(None), "valid prefix: wait");
        assert_eq!(peek_frame(b"PX"), Err(WireError::BadMagic));
        assert!(matches!(
            peek_frame(b"PINT\x07"),
            Err(WireError::UnsupportedVersion {
                found: 7,
                supported: VERSION
            })
        ));
        assert!(matches!(
            peek_frame(b"PINT\x01\xEE"),
            Err(WireError::UnknownFrameType(0xEE))
        ));
    }

    #[test]
    fn peek_rejects_oversized_payload_before_buffering() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.push(FrameType::Snapshot as u8);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            peek_frame(&buf),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn reader_handles_split_and_coalesced_frames() {
        let mut wire = Vec::new();
        frame_into(FrameType::Hello, &VarintPayload(1), &mut wire);
        frame_into(FrameType::Bye, &VarintPayload(2), &mut wire);

        // Deliver the stream one byte at a time.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut reader = FrameReader::new(OneByte(&wire));
        let (ty1, _) = reader.read_frame().unwrap().unwrap();
        let (ty2, _) = reader.read_frame().unwrap().unwrap();
        assert_eq!((ty1, ty2), (FrameType::Hello, FrameType::Bye));
        assert!(reader.read_frame().unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn reader_retries_interrupted_reads() {
        // Every other read is EINTR: both frames must still arrive.
        struct Flaky<'a> {
            data: &'a [u8],
            tick: bool,
        }
        impl Read for Flaky<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.tick = !self.tick;
                if self.tick {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "signal",
                    ));
                }
                if self.data.is_empty() {
                    return Ok(0);
                }
                out[0] = self.data[0];
                self.data = &self.data[1..];
                Ok(1)
            }
        }
        let mut wire = Vec::new();
        frame_into(FrameType::Hello, &VarintPayload(1), &mut wire);
        frame_into(FrameType::Bye, &VarintPayload(2), &mut wire);
        let mut reader = FrameReader::new(Flaky {
            data: &wire,
            tick: false,
        });
        assert_eq!(reader.read_frame().unwrap().unwrap().0, FrameType::Hello);
        assert_eq!(reader.read_frame().unwrap().unwrap().0, FrameType::Bye);
        assert!(reader.read_frame().unwrap().is_none());
    }

    #[test]
    fn poll_frame_resumes_partial_frames_across_would_block() {
        // The stream yields one byte, then WouldBlock, repeatedly — the
        // shape a non-blocking socket gives a poll loop. The partial
        // frame must survive every Pending and complete eventually.
        struct Trickle<'a> {
            data: &'a [u8],
            ready: bool,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.ready = !self.ready;
                if !self.ready {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                if self.data.is_empty() {
                    return Ok(0);
                }
                out[0] = self.data[0];
                self.data = &self.data[1..];
                Ok(1)
            }
        }
        let mut wire = Vec::new();
        frame_into(FrameType::Hello, &VarintPayload(300), &mut wire);
        let mut reader = FrameReader::new(Trickle {
            data: &wire,
            ready: false,
        });
        let mut pendings = 0;
        loop {
            match reader.poll_frame().unwrap() {
                FramePoll::Frame(ty, payload) => {
                    assert_eq!(ty, FrameType::Hello);
                    let mut r = WireReader::new(&payload);
                    assert_eq!(r.get_varint().unwrap(), 300);
                    break;
                }
                FramePoll::Pending => pendings += 1,
                FramePoll::Closed => panic!("closed before the frame completed"),
            }
        }
        assert!(pendings > 0, "the trickle must have parked at least once");
        loop {
            match reader.poll_frame().unwrap() {
                FramePoll::Closed => break,
                FramePoll::Pending => continue,
                FramePoll::Frame(..) => panic!("no second frame exists"),
            }
        }
    }

    #[test]
    fn reader_reports_mid_frame_eof() {
        let mut wire = Vec::new();
        frame_into(FrameType::Hello, &VarintPayload(1), &mut wire);
        wire.truncate(wire.len() - 1);
        let mut reader = FrameReader::new(&wire[..]);
        assert!(matches!(
            reader.read_frame(),
            Err(ReadFrameError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }
}
