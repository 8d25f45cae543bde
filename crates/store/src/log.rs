//! The append-only log file: [`StoreWriter`] / [`StoreReader`] over
//! the `pint-wire` store codecs, with per-record CRC framing,
//! torn-tail recovery, and bounded-size compaction.
//!
//! File layout (see [`pint_wire::store`] for the payload codecs):
//!
//! ```text
//! [ 8B magic "PINTSTOR" ]
//! [ 4B len ][ 4B crc ][ superblock payload ]
//! [ 4B len ][ 4B crc ][ record payload ]    ⟵ repeated
//! ```
//!
//! Writes are group commits: the writer stages any number of records
//! into one reused buffer (each framed in place: header reserved,
//! payload encoded, then length and CRC filled in) and commits them
//! with one `write_all`. A crash can therefore tear only the *last
//! group*, and because every record in it carries its own CRC, the
//! next open still truncates back to the last intact *record*, not the
//! last group: a torn group loses only the records past the tear. A
//! commit that fails outright (ENOSPC, EIO) is rolled back — the file
//! is cut back to its last committed length and the cursor returned
//! there — so one failed write never strands later records behind a
//! torn fragment. [`StoreWriter::append`] is one record staged and
//! committed alone; the journal stages whole queue drains.
//!
//! Reads go through one bounded [`Window`] of [`WINDOW`] bytes: the
//! open scan (reader and writer alike), replay and compaction read the
//! file in order through it, and a single record is read alone into a
//! buffer of its exact size. Nothing holds the whole file in memory.

use crate::error::{StoreError, TailStatus, TornReason};
use pint_wire::store::{
    crc32, read_record, CheckpointRecord, StoreKind, StoreRecord, Superblock, STORE_MAGIC,
};
use pint_wire::{SkipReports, WireDecode, WireEncode, MAX_PAYLOAD};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Per-record frame header: u32 length + u32 CRC.
pub(crate) const RECORD_HEADER: usize = 8;

/// Tuning of a [`StoreWriter`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreOptions {
    /// Compact when the file grows past this many bytes — the log's
    /// analog of the flow table's byte-cap eviction: oldest state goes
    /// first, but only state a newer checkpoint already covers, so
    /// compaction never loses information (a log with no checkpoint is
    /// never compacted, whatever its size).
    pub max_bytes: Option<u64>,
    /// `fsync` (`sync_data`) once per commit — after every
    /// [`append`](StoreWriter::append), and once per group the journal
    /// writes. Off by default: the journal is a crash-*consistency*
    /// mechanism (the CRC scan recovers a prefix), not a zero-loss one,
    /// and a sync per commit would gate ingest on disk latency.
    pub fsync: bool,
}

/// What one append did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendInfo {
    /// Bytes this record occupied (header + payload).
    pub bytes: u64,
    /// Whether the append pushed the file over budget and a compaction
    /// rewrote it.
    pub compacted: bool,
}

/// What one [`StoreWriter::commit`] did. The group is on file whatever
/// `compacted` says: a failed compaction leaves the log as it was.
pub(crate) struct Commit {
    /// Bytes the group occupied (headers + payloads).
    pub(crate) bytes: u64,
    /// Whether the group pushed the file over budget and a compaction
    /// rewrote it.
    pub(crate) compacted: Result<bool, StoreError>,
}

/// One intact record's index entry: where it sits and what it is, not
/// its contents. [`StoreReader`] and [`StoreWriter`] both index with these.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// Offset of the record's 8-byte header, and its payload length.
    pub(crate) offset: u64,
    pub(crate) len: u32,
    /// A delta's report count (0 for a checkpoint).
    pub(crate) reports: u32,
    pub(crate) epoch: u64,
    /// Delta batch source / checkpoint source.
    pub(crate) source: u64,
    /// A delta's batch seq; `None` for a checkpoint.
    pub(crate) seq: Option<u64>,
}

/// Bytes the scan, replay and compaction read at a time: 512 KiB, one
/// buffer reused for every record it holds, small enough that a replay
/// (window plus one decoded batch) stays under 1 MiB. A longer record
/// grows the window to that record's length, never past the bytes the
/// file still holds, so a header's claimed length costs no allocation
/// until the file is known to back it.
pub(crate) const WINDOW: usize = 512 << 10;

/// Positional reads of a store's bytes: an open file or an image.
pub(crate) trait ReadAt {
    /// Fills `buf` from offset `off`; an `UnexpectedEof` error if the
    /// source ends first.
    fn fill_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()>;
}

impl ReadAt for File {
    fn fill_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(self, buf, off)
    }
}

impl ReadAt for [u8] {
    fn fill_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        let src = usize::try_from(off)
            .ok()
            .and_then(|off| self.get(off..)?.get(..buf.len()))
            .ok_or(io::ErrorKind::UnexpectedEof)?;
        buf.copy_from_slice(src);
        Ok(())
    }
}

/// What [`Window::frame`] found at an offset.
pub(crate) enum Frame<'a> {
    /// The offset is the end of the readable bytes.
    End,
    /// An intact `[len][crc][payload]` frame, header included.
    Record(&'a [u8]),
    /// The frame is damaged or cut short.
    Torn(TornReason),
}

/// A bounded read window over a store's first `limit` bytes: the one
/// read path of the scan, replay, compaction and positional reads.
pub(crate) struct Window<'a, S: ?Sized> {
    src: &'a S,
    limit: u64,
    /// Bytes one refill reads, unless a record needs more.
    chunk: usize,
    /// Offset of `buf[0]`.
    start: u64,
    buf: Vec<u8>,
}

impl<'a, S: ReadAt + ?Sized> Window<'a, S> {
    pub(crate) fn new(src: &'a S, limit: u64, chunk: usize) -> Self {
        Self {
            src,
            limit,
            chunk,
            start: 0,
            buf: Vec::new(),
        }
    }

    /// The `n` bytes at `off`, which the caller has checked lie below
    /// `limit`. A miss refills the window from `off`: `chunk` bytes, or
    /// `n` if more, but never past `limit`.
    fn get(&mut self, off: u64, n: usize) -> io::Result<&[u8]> {
        let end = self.start + self.buf.len() as u64;
        if off < self.start || off + n as u64 > end {
            let len = (n.max(self.chunk) as u64).min(self.limit - off) as usize;
            if len > self.buf.capacity() {
                self.buf.reserve_exact(len - self.buf.len());
            }
            self.buf.resize(len, 0);
            if let Err(e) = self.src.fill_at(off, &mut self.buf) {
                self.buf.clear();
                return Err(e);
            }
            self.start = off;
        }
        let at = (off - self.start) as usize;
        Ok(&self.buf[at..at + n])
    }

    /// The frame at `off`, CRC-checked. Lengths are checked against
    /// `limit` before any payload is read.
    pub(crate) fn frame(&mut self, off: u64) -> io::Result<Frame<'_>> {
        let remaining = self.limit.saturating_sub(off);
        if remaining == 0 {
            return Ok(Frame::End);
        }
        if remaining < RECORD_HEADER as u64 {
            return Ok(Frame::Torn(TornReason::TruncatedHeader));
        }
        let header = self.get(off, RECORD_HEADER)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return Ok(Frame::Torn(TornReason::LengthOverflow));
        }
        if remaining - (RECORD_HEADER as u64) < len as u64 {
            return Ok(Frame::Torn(TornReason::TruncatedPayload));
        }
        let frame = self.get(off, RECORD_HEADER + len)?;
        if crc32(&frame[RECORD_HEADER..]) != crc {
            return Ok(Frame::Torn(TornReason::CrcMismatch));
        }
        Ok(Frame::Record(frame))
    }

    /// Indexed record `e`'s frame, read again and CRC-checked again:
    /// nothing holds a copy of the file, so a record is only as intact
    /// as the file is now. Anything but the same intact frame is
    /// [`StoreError::Changed`].
    pub(crate) fn entry(&mut self, e: &Entry) -> Result<&[u8], StoreError> {
        match self.frame(e.offset) {
            Ok(Frame::Record(frame)) if frame.len() == RECORD_HEADER + e.len as usize => Ok(frame),
            Err(err) if err.kind() != io::ErrorKind::UnexpectedEof => Err(err.into()),
            _ => Err(StoreError::Changed { offset: e.offset }),
        }
    }
}

/// Record `e`'s payload, read alone into a buffer of its exact size and
/// checked again (see [`Window::entry`]).
pub(crate) fn read_payload(src: &(impl ReadAt + ?Sized), e: &Entry) -> Result<Vec<u8>, StoreError> {
    let frame = RECORD_HEADER + e.len as usize;
    let mut window = Window::new(src, e.offset + frame as u64, frame);
    window.entry(e)?;
    let mut payload = window.buf;
    payload.drain(..RECORD_HEADER);
    Ok(payload)
}

/// Shared scan: read the first `len` bytes of `src` as a store file
/// through one [`Window`], CRC-checking and walking each record, and
/// show each intact record to `visit`. Returns the superblock, an index
/// entry per intact record, the valid length, and the tail verdict. The
/// only hard errors are a read failure, a missing magic, a damaged or
/// undecodable superblock, and a future version; record damage is a
/// `TailStatus`, not an error.
fn scan<S: ReadAt + ?Sized>(
    src: &S,
    len: u64,
    mut visit: impl FnMut(&StoreRecord<&[u8]>),
) -> Result<(Superblock, Vec<Entry>, u64, TailStatus), StoreError> {
    let mut window = Window::new(src, len, WINDOW);
    if len < STORE_MAGIC.len() as u64 || window.get(0, STORE_MAGIC.len())? != STORE_MAGIC {
        return Err(StoreError::NotAStore);
    }
    let sb_off = STORE_MAGIC.len() as u64;
    let (superblock, mut off) = match window.frame(sb_off)? {
        Frame::Record(frame) => (
            Superblock::decode(&frame[RECORD_HEADER..])?,
            sb_off + frame.len() as u64,
        ),
        Frame::End | Frame::Torn(_) => return Err(StoreError::CorruptSuperblock),
    };

    let mut entries = Vec::new();
    let tail = loop {
        let torn = |reason| TailStatus::Torn {
            offset: off,
            reason,
        };
        let frame = match window.frame(off)? {
            Frame::End => break TailStatus::Clean,
            Frame::Torn(reason) => break torn(reason),
            Frame::Record(frame) => frame,
        };
        let payload = &frame[RECORD_HEADER..];
        let mut reports = SkipReports::default();
        let Ok(record) = read_record(payload, &mut reports) else {
            break torn(TornReason::Undecodable);
        };
        visit(&record);
        let (epoch, source, seq) = match record {
            StoreRecord::Delta { epoch, batch } => (epoch, batch.source, Some(batch.seq)),
            StoreRecord::Checkpoint(c) => (c.epoch, c.source, None),
        };
        entries.push(Entry {
            offset: off,
            len: payload.len() as u32,
            reports: reports.count as u32,
            epoch,
            source,
            seq,
        });
        off += frame.len() as u64;
    };
    Ok((superblock, entries, off, tail))
}

/// Where a [`StoreReader`]'s bytes come from.
enum Source {
    File(File),
    /// A [`StoreReader::from_bytes`] image's intact prefix.
    Image(Vec<u8>),
}

impl ReadAt for Source {
    fn fill_at(&self, off: u64, buf: &mut [u8]) -> io::Result<()> {
        match self {
            Source::File(file) => file.fill_at(off, buf),
            Source::Image(bytes) => bytes.fill_at(off, buf),
        }
    }
}

/// A scanned store file: the superblock, the open file, an index of
/// every intact record, and the tail verdict.
///
/// The reader holds no copy of the file's bytes. Opening reads the file
/// once through a bounded 512 KiB window; later reads go back to the file —
/// [`record`](Self::record) and [`checkpoints`](Self::checkpoints)
/// positionally, a [`Replayer`](crate::Replayer) through the same
/// window in file order — and CRC-check every record again before it
/// is decoded, so a file cut or rewritten under the reader surfaces as
/// a typed [`StoreError`], never a panic. The reader works equally
/// from a file ([`open`](Self::open)) or raw bytes
/// ([`from_bytes`](Self::from_bytes), the fuzzing entry point: a store
/// file is untrusted input like any frame off a socket, and parsing
/// never panics).
pub struct StoreReader {
    superblock: Superblock,
    source: Source,
    /// The index of every intact record.
    pub(crate) entries: Vec<Entry>,
    valid_len: u64,
    tail: TailStatus,
}

impl StoreReader {
    /// Opens and scans a store file, keeping it open for later reads.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let (superblock, entries, valid_len, tail) = scan(&file, len, |_| {})?;
        Ok(Self {
            superblock,
            source: Source::File(file),
            entries,
            valid_len,
            tail,
        })
    }

    /// Scans an in-memory store image, keeping a copy of its intact
    /// prefix.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let (superblock, entries, valid_len, tail) = scan(bytes, bytes.len() as u64, |_| {})?;
        Ok(Self {
            superblock,
            source: Source::Image(bytes[..valid_len as usize].to_vec()),
            entries,
            valid_len,
            tail,
        })
    }

    /// A [`WINDOW`] over the intact bytes, for reads in file order.
    pub(crate) fn window(&self) -> Window<'_, impl ReadAt> {
        Window::new(&self.source, self.valid_len, WINDOW)
    }

    /// The file's superblock.
    pub fn superblock(&self) -> &Superblock {
        &self.superblock
    }

    /// Every intact record, in append order, each read and decoded as
    /// the iterator reaches it.
    pub fn records(&self) -> impl ExactSizeIterator<Item = Result<StoreRecord, StoreError>> + '_ {
        (0..self.entries.len()).map(|i| self.record(i))
    }

    /// Reads and decodes intact record `i`. A record the scan accepted
    /// decodes (the scan's walk and the decode are one reader) unless
    /// the file changed since. Panics if `i` is out of range.
    pub fn record(&self, i: usize) -> Result<StoreRecord, StoreError> {
        let e = &self.entries[i];
        let payload = read_payload(&self.source, e)?;
        StoreRecord::decode(&payload).map_err(|_| StoreError::Changed { offset: e.offset })
    }

    /// Every checkpoint record, in append order, each read into a
    /// buffer of its own when the iterator reaches it.
    pub fn checkpoints(
        &self,
    ) -> impl DoubleEndedIterator<Item = Result<CheckpointRecord, StoreError>> + '_ {
        let checkpoints = self.entries.iter().filter(|e| e.seq.is_none());
        checkpoints.map(|e| {
            let mut payload = read_payload(&self.source, e)?;
            let Ok(StoreRecord::Checkpoint(c)) = read_record(&payload, &mut SkipReports::default())
            else {
                return Err(StoreError::Changed { offset: e.offset });
            };
            let CheckpointRecord {
                source,
                epoch,
                covered,
                payload: body,
            } = c;
            // The snapshot is the record's tail: keep it in place.
            payload.drain(..payload.len() - body.len());
            Ok(CheckpointRecord {
                source,
                epoch,
                covered,
                payload,
            })
        })
    }

    /// Bytes of intact data (magic + superblock + whole records).
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Whether the file ended cleanly or mid-record.
    pub fn tail(&self) -> TailStatus {
        self.tail
    }

    /// `true` when compaction has dropped leading deltas — replay from
    /// the origin is no longer possible and a restore must seed from
    /// the newest checkpoint.
    pub fn is_compacted(&self) -> bool {
        self.superblock.compactions > 0
    }

    /// The highest epoch stamped on any intact record — the newest
    /// consistent epoch a restore can reach.
    pub fn newest_epoch(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.epoch).max()
    }

    /// Index of the newest checkpoint record, if any (ties broken by
    /// position: the latest-written wins).
    pub fn newest_checkpoint(&self) -> Option<usize> {
        self.entries.iter().rposition(|e| e.seq.is_none())
    }
}

/// Appends records to a store file; recovers torn tails on open and
/// compacts when over budget.
pub struct StoreWriter {
    file: File,
    path: PathBuf,
    superblock: Superblock,
    opts: StoreOptions,
    /// Current valid length == append position.
    len: u64,
    /// Offset right past the superblock frame (reset target).
    data_start: u64,
    /// Compaction index, parallel to the file's records.
    pub(crate) index: Vec<Entry>,
    /// Cumulative per-source delta seq high-water marks: the highest
    /// delta seq ever journaled (or claimed covered by a checkpoint)
    /// per source, surviving compaction — what a re-attaching producer
    /// numbers its fresh deltas above.
    floors: BTreeMap<u64, u64>,
    /// Epoch of the newest checkpoint record in the file (0 if none):
    /// the journal writer seeds its delta epoch stamp from this.
    newest_checkpoint_epoch: u64,
    /// The staged group: framed records waiting for the next commit.
    /// Reused across commits.
    buf: Vec<u8>,
    /// Index entries of the staged records (absolute offsets: `len`
    /// does not move until the group commits).
    staged: Vec<Entry>,
    /// `(source, seq)` floor raises the staged records claim.
    staged_floors: Vec<(u64, u64)>,
    /// Epoch of the newest staged checkpoint.
    staged_checkpoint_epoch: Option<u64>,
    /// A failed commit could not cut the file back to `len`; the next
    /// commit retries that before writing.
    needs_rollback: bool,
}

impl StoreWriter {
    /// Creates a new store file (truncating any existing one) headed
    /// by `superblock`.
    pub fn create(
        path: impl AsRef<Path>,
        superblock: Superblock,
        opts: StoreOptions,
    ) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&STORE_MAGIC);
        frame_into_buf(&superblock, &mut buf);
        file.write_all(&buf)?;
        let len = buf.len() as u64;
        buf.clear();
        Ok(Self {
            file,
            path,
            superblock,
            opts,
            len,
            data_start: len,
            index: Vec::new(),
            floors: BTreeMap::new(),
            newest_checkpoint_epoch: 0,
            buf,
            staged: Vec::new(),
            staged_floors: Vec::new(),
            staged_checkpoint_epoch: None,
            needs_rollback: false,
        })
    }

    /// Opens an existing store file for appending: scans it, truncates
    /// any torn tail back to the last intact record boundary, and
    /// rebuilds the compaction index and per-source floors (from both
    /// the surviving deltas and any checkpoint coverage, so floors are
    /// cumulative across compactions). Returns the tail verdict the
    /// scan found, already healed.
    pub fn open(
        path: impl AsRef<Path>,
        opts: StoreOptions,
    ) -> Result<(Self, TailStatus), StoreError> {
        Self::open_as(path, opts, None)
    }

    /// [`open`](Self::open), refusing a file not of kind `expected` before truncating it.
    pub(crate) fn open_as(
        path: impl AsRef<Path>,
        opts: StoreOptions,
        expected: Option<StoreKind>,
    ) -> Result<(Self, TailStatus), StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let file_len = file.metadata()?.len();
        let mut floors = BTreeMap::new();
        let mut newest_checkpoint_epoch = 0u64;
        let (superblock, index, valid_len, tail) = scan(&file, file_len, |record| match record {
            StoreRecord::Delta { batch, .. } => raise(&mut floors, batch.source, batch.seq),
            StoreRecord::Checkpoint(c) => {
                newest_checkpoint_epoch = c.epoch;
                for cov in &c.covered {
                    raise(&mut floors, cov.source, cov.max_seq());
                }
            }
        })?;
        let found = superblock.kind;
        if let Some(expected) = expected.filter(|&k| k != found) {
            return Err(StoreError::WrongKind { expected, found });
        }
        if valid_len < file_len {
            file.set_len(valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        // Magic + the superblock frame: where the first record is, or
        // where the scan stopped when there is none.
        let data_start = index.first().map_or(valid_len, |e| e.offset);
        Ok((
            Self {
                file,
                path,
                superblock,
                opts,
                len: valid_len,
                data_start,
                index,
                floors,
                newest_checkpoint_epoch,
                buf: Vec::new(),
                staged: Vec::new(),
                staged_floors: Vec::new(),
                staged_checkpoint_epoch: None,
                needs_rollback: false,
            },
            tail,
        ))
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The open file, for positional reads of its records.
    pub(crate) fn file(&self) -> &File {
        &self.file
    }

    /// The superblock (its `compactions` count reflects rewrites done
    /// by this writer).
    pub fn superblock(&self) -> &Superblock {
        &self.superblock
    }

    /// Current file length (== next record's offset).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the file holds no records yet.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Offset of the first record (right past the superblock).
    pub fn data_start(&self) -> u64 {
        self.data_start
    }

    /// The cumulative per-source delta seq high-water marks: the
    /// highest seq ever journaled (or claimed covered by a checkpoint)
    /// per source. A producer re-attaching after a restart numbers its
    /// fresh deltas above these. *Not* checkpoint coverage — a
    /// checkpoint's `covered` list is captured by its taker at snapshot
    /// time, never derived from the file.
    pub fn delta_floors(&self) -> &BTreeMap<u64, u64> {
        &self.floors
    }

    /// Epoch of the newest checkpoint record in the file (0 if none).
    pub fn newest_checkpoint_epoch(&self) -> u64 {
        self.newest_checkpoint_epoch
    }

    /// Appends one record: stages it and commits it alone (one
    /// `write_all`, so a crash can only tear this record, never an
    /// earlier one; open truncates a tear back to the last intact
    /// record), then compacts if the budget allows and demands it. On
    /// a failed write or sync the record is rolled back off the file
    /// and the writer stays usable.
    pub fn append(&mut self, record: &StoreRecord) -> Result<AppendInfo, StoreError> {
        self.stage(record)?;
        let commit = self.commit()?;
        Ok(AppendInfo {
            bytes: commit.bytes,
            compacted: commit.compacted?,
        })
    }

    /// Bytes staged for the next [`commit`](Self::commit).
    pub(crate) fn staged_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Frames one record onto the staged group. Nothing reaches the
    /// file (or the index, floors and checkpoint epoch) until
    /// [`commit`](Self::commit). A record over [`MAX_PAYLOAD`] is
    /// refused and leaves the group as it was. Returns the record's
    /// framed size.
    pub(crate) fn stage(&mut self, record: &StoreRecord) -> Result<u64, StoreError> {
        let start = self.buf.len();
        let payload_len = frame_into_buf(record, &mut self.buf);
        if payload_len > MAX_PAYLOAD {
            self.buf.truncate(start);
            return Err(StoreError::RecordTooLarge {
                len: payload_len,
                max: MAX_PAYLOAD,
            });
        }
        let (reports, epoch, source, seq) = match record {
            StoreRecord::Delta { epoch, batch } => {
                self.staged_floors.push((batch.source, batch.seq));
                (batch.reports.len(), *epoch, batch.source, Some(batch.seq))
            }
            StoreRecord::Checkpoint(c) => {
                self.staged_floors
                    .extend(c.covered.iter().map(|cov| (cov.source, cov.max_seq())));
                self.staged_checkpoint_epoch = Some(c.epoch);
                (0, c.epoch, c.source, None)
            }
        };
        self.staged.push(Entry {
            offset: self.len + start as u64,
            len: payload_len as u32,
            reports: reports as u32,
            epoch,
            source,
            seq,
        });
        Ok((self.buf.len() - start) as u64)
    }

    /// Writes the staged group with one `write_all`, syncs it if
    /// [`StoreOptions::fsync`] asks, and only then applies the group's
    /// index, floor and checkpoint-epoch updates and runs the
    /// compaction check. On a failed write or sync the whole group is
    /// dropped and the file is cut back to its committed length with
    /// the cursor returned there, so a partial write never leaves a
    /// torn fragment for later records to land behind.
    pub(crate) fn commit(&mut self) -> Result<Commit, StoreError> {
        let written = self.write_staged();
        let bytes = self.buf.len() as u64;
        self.buf.clear();
        if let Err(e) = written {
            self.staged.clear();
            self.staged_floors.clear();
            self.staged_checkpoint_epoch = None;
            self.needs_rollback = self.rollback().is_err();
            return Err(e);
        }
        self.len += bytes;
        for (source, seq) in self.staged_floors.drain(..) {
            raise(&mut self.floors, source, seq);
        }
        self.index.append(&mut self.staged);
        if let Some(epoch) = self.staged_checkpoint_epoch.take() {
            self.newest_checkpoint_epoch = epoch;
        }
        Ok(Commit {
            bytes,
            compacted: self.maybe_compact(),
        })
    }

    fn write_staged(&mut self) -> Result<(), StoreError> {
        if self.needs_rollback {
            self.rollback()?;
            self.needs_rollback = false;
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.buf)?;
        if self.opts.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Cuts the file back to the committed length and puts the cursor
    /// there.
    fn rollback(&mut self) -> Result<(), StoreError> {
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::Start(self.len))?;
        Ok(())
    }

    /// Replaces the file handle, returning the old one — lets tests
    /// make writes fail (a read-only handle) without a full disk.
    #[cfg(test)]
    pub(crate) fn swap_file(&mut self, file: File) -> File {
        std::mem::replace(&mut self.file, file)
    }

    /// Flushes file data to stable storage.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Truncates the log back to an empty record section (superblock
    /// kept). Spill queues use this once fully drained, so a spill
    /// file never grows without bound across overload episodes.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.file.set_len(self.data_start)?;
        self.file.seek(SeekFrom::Start(self.data_start))?;
        self.file.sync_data()?;
        self.len = self.data_start;
        self.index.clear();
        self.needs_rollback = false;
        // Floors survive: they describe what was ever journaled, and a
        // reset only happens once that data reached its destination.
        Ok(())
    }

    fn maybe_compact(&mut self) -> Result<bool, StoreError> {
        match self.opts.max_bytes {
            Some(max) if self.len > max => self.compact(),
            _ => Ok(false),
        }
    }

    /// Rewrites the log keeping the newest checkpoint per source, every
    /// record written after the globally newest checkpoint, and every
    /// earlier delta the newest checkpoint's coverage does *not* claim
    /// (a delta can land in the file between a snapshot and its
    /// checkpoint record — its data is not in the payload, so dropping
    /// it would lose digests). No checkpoint → nothing is safely
    /// droppable → no-op. Returns whether a rewrite happened.
    pub fn compact(&mut self) -> Result<bool, StoreError> {
        // Newest checkpoint per source, and the globally newest one.
        let global = match self.index.iter().rposition(|e| e.seq.is_none()) {
            Some(i) => i,
            None => return Ok(false),
        };

        // The keep decision needs the newest checkpoint's coverage.
        // Anything else (unreachable: the scan indexed it as one) covers
        // nothing, so every delta is kept: the safe side.
        let payload = read_payload(&self.file, &self.index[global])?;
        let covered = match read_record(&payload, &mut SkipReports::default()) {
            Ok(StoreRecord::Checkpoint(c)) => c.covered,
            _ => Vec::new(),
        };
        let covers =
            |source: u64, seq: u64| covered.iter().any(|c| c.source == source && c.covers(seq));

        let mut keep = vec![false; self.index.len()];
        let mut seen_sources = std::collections::BTreeSet::new();
        for i in (0..self.index.len()).rev() {
            let e = self.index[i];
            let needed = match e.seq {
                None => seen_sources.insert(e.source),
                Some(seq) => !covers(e.source, seq),
            };
            if i > global || needed {
                keep[i] = true;
            }
        }
        keep[global] = true;
        if keep.iter().all(|&k| k) {
            return Ok(false); // nothing to drop
        }
        let mut sb = self.superblock.clone();
        sb.compactions += 1;
        let mut head = Vec::with_capacity(64);
        head.extend_from_slice(&STORE_MAGIC);
        frame_into_buf(&sb, &mut head);
        let new_data_start = head.len() as u64;

        // Kept frames are copied verbatim through the window (their
        // CRCs are already computed, and checked again on the way).
        let tmp = self.path.with_extension("compact-tmp");
        let mut out = BufWriter::new(
            OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?,
        );
        out.write_all(&head)?;
        let mut len = new_data_start;
        let mut new_index = Vec::new();
        let mut window = Window::new(&self.file, self.len, WINDOW);
        for (e, _) in self.index.iter().zip(&keep).filter(|(_, &k)| k) {
            let frame = window.entry(e)?;
            out.write_all(frame)?;
            new_index.push(Entry { offset: len, ..*e });
            len += frame.len() as u64;
        }
        out.into_inner().map_err(|e| e.into_error())?.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        // The old fd points at the unlinked inode; reopen the new file
        // positioned at its end.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.superblock = sb;
        self.len = len;
        self.data_start = new_data_start;
        self.index = new_index;
        Ok(true)
    }
}

/// Appends `[len][crc][payload]` for one encodable value, in place:
/// reserve the 8-byte header, encode the payload behind it, then fill
/// in its length and CRC. Returns the payload length.
fn frame_into_buf(value: &impl WireEncode, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER]);
    value.encode_into(out);
    let len = out.len() - start - RECORD_HEADER;
    let crc = crc32(&out[start + RECORD_HEADER..]);
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    out[start + 4..start + RECORD_HEADER].copy_from_slice(&crc.to_le_bytes());
    len
}

/// Raises `source`'s floor to at least `seq`.
fn raise(floors: &mut BTreeMap<u64, u64>, source: u64, seq: u64) {
    let f = floors.entry(source).or_insert(0);
    *f = (*f).max(seq);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_core::{Digest, DigestReport};
    use pint_wire::store::{CheckpointRecord, CoveredSource};
    use pint_wire::DigestBatch;

    fn delta(source: u64, seq: u64, n: usize) -> StoreRecord {
        let reports = (0..n as u64)
            .map(|i| {
                let mut d = Digest::new(1);
                d.set(0, seq.wrapping_mul(1_000) + i);
                DigestReport::new(i, 100 + i, d, 4, seq * 10 + i)
            })
            .collect();
        StoreRecord::Delta {
            epoch: seq,
            batch: DigestBatch {
                source,
                seq,
                reports,
                trace: None,
            },
        }
    }

    fn checkpoint(source: u64, epoch: u64, covered: Vec<CoveredSource>) -> StoreRecord {
        StoreRecord::Checkpoint(CheckpointRecord {
            source,
            epoch,
            covered,
            payload: vec![0xC0; 64],
        })
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pint-store-log-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn write_read_roundtrip() {
        let path = tmp("roundtrip");
        let sb = Superblock::new(StoreKind::Collector, 7, 1);
        let mut w = StoreWriter::create(&path, sb.clone(), StoreOptions::default()).unwrap();
        let recs = vec![
            delta(0, 1, 3),
            checkpoint(0, 1, vec![CoveredSource::floor_only(0, 1)]),
            delta(0, 2, 2),
        ];
        for r in &recs {
            let info = w.append(r).unwrap();
            assert!(info.bytes > RECORD_HEADER as u64);
            assert!(!info.compacted);
        }
        assert_eq!(w.delta_floors().get(&0), Some(&2));
        drop(w);

        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.superblock(), &sb);
        assert_eq!(r.records().collect::<Result<Vec<_>, _>>().unwrap(), recs);
        assert!(r.tail().is_clean());
        assert!(!r.is_compacted());
        assert_eq!(r.newest_epoch(), Some(2));
        assert_eq!(r.newest_checkpoint(), Some(1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_healed_on_open() {
        let path = tmp("torn");
        let mut w = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        w.append(&delta(0, 1, 2)).unwrap();
        let boundary = w.len();
        w.append(&delta(0, 2, 2)).unwrap();
        drop(w);

        // Tear the last record mid-payload, as a crash mid-write would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.records().len(), 1);
        assert_eq!(
            r.tail(),
            TailStatus::Torn {
                offset: boundary,
                reason: TornReason::TruncatedPayload,
            }
        );
        assert_eq!(r.valid_len(), boundary);

        // Reopen for writing: the tear is truncated away and appends
        // land on the healed boundary.
        let (mut w, tail) = StoreWriter::open(&path, StoreOptions::default()).unwrap();
        assert!(!tail.is_clean());
        assert_eq!(w.len(), boundary);
        assert_eq!(w.delta_floors().get(&0), Some(&1), "torn delta not counted");
        w.append(&delta(0, 2, 2)).unwrap();
        drop(w);
        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.records().len(), 2);
        assert!(r.tail().is_clean());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flips_stop_the_scan_at_the_damaged_record() {
        let path = tmp("flip");
        let mut w = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        w.append(&delta(0, 1, 2)).unwrap();
        let damaged_at = w.len();
        w.append(&delta(0, 2, 2)).unwrap();
        w.append(&delta(0, 3, 2)).unwrap();
        drop(w);

        let mut bytes = std::fs::read(&path).unwrap();
        let i = damaged_at as usize + RECORD_HEADER + 1; // inside record 2's payload
        bytes[i] ^= 0xFF;
        let r = StoreReader::from_bytes(&bytes).unwrap();
        // Records after the damage are unreachable (framing is
        // sequential), but the prefix survives.
        assert_eq!(r.records().len(), 1);
        assert_eq!(
            r.tail(),
            TailStatus::Torn {
                offset: damaged_at,
                reason: TornReason::CrcMismatch,
            }
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn not_a_store_and_corrupt_superblock_are_hard_errors() {
        assert!(matches!(
            StoreReader::from_bytes(b"hello"),
            Err(StoreError::NotAStore)
        ));
        assert!(matches!(
            StoreReader::from_bytes(b"PINTSTOR"),
            Err(StoreError::CorruptSuperblock)
        ));
        // A valid file with a flipped superblock byte.
        let path = tmp("sbflip");
        let w = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Spill, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            StoreReader::from_bytes(&bytes),
            Err(StoreError::CorruptSuperblock)
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let path = tmp("kind");
        drop(
            StoreWriter::create(
                &path,
                Superblock::new(StoreKind::Spill, 1, 0),
                StoreOptions::default(),
            )
            .unwrap(),
        );
        let opts = StoreOptions::default();
        assert!(matches!(
            StoreWriter::open_as(&path, opts, Some(StoreKind::Collector)),
            Err(StoreError::WrongKind { .. })
        ));
        assert!(StoreWriter::open_as(&path, opts, Some(StoreKind::Spill)).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_keeps_newest_checkpoint_and_tail_and_bumps_the_count() {
        let path = tmp("compact");
        let opts = StoreOptions {
            max_bytes: Some(700),
            fsync: false,
        };
        let mut w =
            StoreWriter::create(&path, Superblock::new(StoreKind::Collector, 1, 0), opts).unwrap();
        let mut compactions = 0;
        for seq in 1..=20u64 {
            if w.append(&delta(0, seq, 4)).unwrap().compacted {
                compactions += 1;
            }
            if seq % 5 == 0 {
                let covered = vec![CoveredSource::floor_only(0, seq)];
                if w.append(&checkpoint(0, seq, covered)).unwrap().compacted {
                    compactions += 1;
                }
            }
        }
        assert!(compactions > 0, "budget forced at least one rewrite");
        // Floors are cumulative: every delta ever written counts.
        assert_eq!(w.delta_floors().get(&0), Some(&20));
        drop(w);

        let r = StoreReader::open(&path).unwrap();
        assert!(r.is_compacted());
        assert_eq!(r.superblock().compactions, compactions);
        assert!(r.tail().is_clean());
        // The newest checkpoint survived, with the tail after it.
        let ck = r.newest_checkpoint().expect("checkpoint kept");
        match r.record(ck).unwrap() {
            StoreRecord::Checkpoint(c) => assert_eq!(c.epoch, 20),
            _ => unreachable!(),
        }
        let tail_epochs: Vec<u64> = r
            .records()
            .skip(ck + 1)
            .map(|rec| rec.unwrap().epoch())
            .collect();
        assert!(tail_epochs.is_empty() || tail_epochs.iter().all(|&e| e > 15));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_keeps_deltas_the_checkpoint_does_not_cover() {
        // A delta can land in the file *before* the checkpoint record
        // yet after the snapshot it persists (the snapshot/append race
        // the explicit covered list exists for). Compaction must keep
        // any delta the checkpoint's coverage does not claim, wherever
        // it sits in the file.
        let path = tmp("uncovered");
        let mut w = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        for seq in 1..=5u64 {
            w.append(&delta(0, seq, 2)).unwrap();
        }
        // The checkpoint only covers seqs 1..=3 (and out-of-order 5):
        // delta 4 was applied after the snapshot.
        w.append(&checkpoint(
            0,
            9,
            vec![CoveredSource {
                source: 0,
                floor: 3,
                above: vec![5],
            }],
        ))
        .unwrap();
        w.append(&delta(0, 6, 2)).unwrap();
        assert!(w.compact().unwrap(), "covered deltas were droppable");
        drop(w);

        let r = StoreReader::open(&path).unwrap();
        assert!(r.is_compacted());
        let mut delta_seqs: Vec<u64> = r
            .records()
            .filter_map(|rec| match rec.unwrap() {
                StoreRecord::Delta { batch, .. } => Some(batch.seq),
                _ => None,
            })
            .collect();
        delta_seqs.sort_unstable();
        assert_eq!(
            delta_seqs,
            vec![4, 6],
            "uncovered pre-checkpoint delta survives, covered ones drop"
        );
        // File order is preserved: kept delta 4, checkpoint, delta 6.
        assert_eq!(r.newest_checkpoint(), Some(1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_checkpoint_free_log_is_never_compacted() {
        let path = tmp("nockpt");
        let opts = StoreOptions {
            max_bytes: Some(200),
            fsync: false,
        };
        let mut w =
            StoreWriter::create(&path, Superblock::new(StoreKind::Spill, 1, 0), opts).unwrap();
        for seq in 1..=50u64 {
            assert!(!w.append(&delta(0, seq, 2)).unwrap().compacted);
        }
        drop(w);
        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.records().len(), 50, "deltas are never silently dropped");
        assert!(!r.is_compacted());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_failed_commit_rolls_back_and_later_records_land_intact() {
        let path = tmp("failed-commit");
        let mut w = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        w.append(&delta(0, 1, 2)).unwrap();
        let committed = w.len();

        // Every write through a read-only handle fails, and so does the
        // rollback's `set_len`: the writer must remember to redo it.
        let mut rw = w.swap_file(File::open(&path).unwrap());
        let ckpt = checkpoint(0, 7, vec![CoveredSource::floor_only(0, 9)]);
        w.stage(&delta(0, 2, 2)).unwrap();
        w.stage(&ckpt).unwrap();
        assert!(w.commit().is_err());
        assert!(w.append(&delta(0, 3, 2)).is_err());
        // Nothing of the failed group was applied.
        assert_eq!(w.len(), committed);
        assert_eq!(w.index.len(), 1);
        assert_eq!(w.delta_floors().get(&0), Some(&1));
        assert_eq!(w.newest_checkpoint_epoch(), 0);
        assert_eq!(w.staged_bytes(), 0);

        // What a partial write (ENOSPC mid-`write_all`) leaves behind:
        // a torn fragment past the committed length, with the cursor
        // after it.
        rw.write_all(&[0xAB; 5]).unwrap();
        w.swap_file(rw);
        let info = w.append(&delta(0, 4, 2)).unwrap();
        assert_eq!(w.len(), committed + info.bytes, "landed on the boundary");
        assert_eq!(w.delta_floors().get(&0), Some(&4));
        drop(w);

        let r = StoreReader::open(&path).unwrap();
        assert_eq!(
            r.records().collect::<Result<Vec<_>, _>>().unwrap(),
            [delta(0, 1, 2), delta(0, 4, 2)]
        );
        assert!(r.tail().is_clean(), "{:?}", r.tail());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_tear_inside_the_last_group_keeps_every_intact_record_before_it() {
        let path = tmp("torn-group");
        let mut w = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        let recs: Vec<StoreRecord> = (1..=6u64).map(|seq| delta(0, seq, 3)).collect();
        let mut ends = Vec::new(); // end offset of every record
        for group in recs.chunks(3) {
            let start = w.len();
            let mut end = start;
            for r in group {
                end += w.stage(r).unwrap();
                ends.push(end);
            }
            assert_eq!(w.commit().unwrap().bytes, end - start);
            assert_eq!(w.len(), end);
        }
        drop(w);

        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len() as u64, ends[5]);
        // Cut at every byte inside the second group.
        for cut in ends[2] + 1..ends[5] {
            let intact = ends.iter().filter(|&&e| e <= cut).count();
            let boundary = ends[intact - 1];
            let r = StoreReader::from_bytes(&bytes[..cut as usize]).unwrap();
            assert_eq!(
                r.records().collect::<Result<Vec<_>, _>>().unwrap(),
                recs[..intact],
                "cut at {cut}"
            );
            assert_eq!(r.valid_len(), boundary);
            // A cut on a record boundary inside the group is no tear
            // at all: those records made it whole.
            let tail = match cut - boundary {
                0 => TailStatus::Clean,
                n if n < RECORD_HEADER as u64 => TailStatus::Torn {
                    offset: boundary,
                    reason: TornReason::TruncatedHeader,
                },
                _ => TailStatus::Torn {
                    offset: boundary,
                    reason: TornReason::TruncatedPayload,
                },
            };
            assert_eq!(r.tail(), tail, "cut at {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_empties_the_record_section() {
        let path = tmp("reset");
        let mut w = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Spill, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        w.append(&delta(3, 1, 2)).unwrap();
        w.append(&delta(3, 2, 2)).unwrap();
        w.reset().unwrap();
        assert!(w.is_empty());
        w.append(&delta(3, 3, 2)).unwrap();
        drop(w);
        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.records().len(), 1);
        assert_eq!(r.record(0).unwrap().epoch(), 3);
        std::fs::remove_file(&path).unwrap();
    }
}
