//! Typed errors and tail verdicts of the store layer.

use pint_wire::WireError;
use std::fmt;

/// Why a store file (or one of its operations) was rejected.
///
/// The split mirrors `pint-wire`'s posture: every failure mode of a
/// hostile or crash-damaged file maps to a typed variant — opening a
/// store never panics, whatever the bytes.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with the `PINTSTOR` magic (or is too
    /// short to hold it) — not a store file at all.
    NotAStore,
    /// The superblock frame is damaged: its checksum does not match or
    /// its header is truncated. Unlike a torn *record* tail (expected
    /// crash residue, reported via [`TailStatus`]), a damaged
    /// superblock leaves nothing trustworthy to recover.
    CorruptSuperblock,
    /// The superblock payload failed to decode — including
    /// [`WireError::UnsupportedVersion`] for files written by a newer
    /// store format, which are rejected whole.
    Wire(WireError),
    /// The file is a valid store of the wrong kind (e.g. a forwarder
    /// spill opened as a collector journal).
    WrongKind {
        /// The kind the caller required.
        expected: pint_wire::StoreKind,
        /// The kind the superblock declares.
        found: pint_wire::StoreKind,
    },
    /// A record the open scan found intact no longer reads back as the
    /// same intact frame: the file was cut or rewritten under the
    /// reader, which holds no copy of it.
    Changed {
        /// Offset of the record's header.
        offset: u64,
    },
    /// A record was too large to frame (its encoding exceeds the
    /// 64 MiB payload bound shared with the socket wire format).
    RecordTooLarge {
        /// The encoded record size.
        len: usize,
        /// The bound it exceeded.
        max: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::NotAStore => write!(f, "not a PINT store file (bad magic)"),
            StoreError::CorruptSuperblock => write!(f, "store superblock is corrupt"),
            StoreError::Wire(e) => write!(f, "store codec error: {e}"),
            StoreError::WrongKind { expected, found } => {
                write!(
                    f,
                    "store kind mismatch: expected {expected:?}, found {found:?}"
                )
            }
            StoreError::Changed { offset } => {
                write!(f, "store record at offset {offset} changed after the scan")
            }
            StoreError::RecordTooLarge { len, max } => {
                write!(
                    f,
                    "store record of {len} bytes exceeds the {max}-byte bound"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Wire(e)
    }
}

/// What the record scan found at the end of a store file.
///
/// A torn tail is *expected* crash residue — the writer died mid
/// `write(2)` — so it is a verdict, not an error: the scan keeps every
/// record before the tear and [`StoreWriter::open`] physically
/// truncates the tear away so appends resume from a consistent end.
///
/// [`StoreWriter::open`]: crate::StoreWriter::open
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailStatus {
    /// The file ends exactly at a record boundary.
    Clean,
    /// The scan stopped before the physical end of file.
    Torn {
        /// Byte offset of the first damaged record's header — the
        /// length the file is truncated to on writer open.
        offset: u64,
        /// What stopped the scan.
        reason: TornReason,
    },
}

impl TailStatus {
    /// `true` when the file ends at a record boundary.
    pub fn is_clean(&self) -> bool {
        matches!(self, TailStatus::Clean)
    }
}

/// Why a record scan stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than 8 bytes remain — a header torn mid-write.
    TruncatedHeader,
    /// The header promises more payload bytes than the file holds.
    TruncatedPayload,
    /// The payload bytes do not match the header's CRC-32.
    CrcMismatch,
    /// The declared length exceeds the 64 MiB record bound — either a
    /// header torn across its length field or foreign bytes.
    LengthOverflow,
    /// The CRC held but the payload is not a decodable record — bytes
    /// from a different (sub)version or overwritten region.
    Undecodable,
}
