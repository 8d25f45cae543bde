//! The forwarder's overflow spill: a small on-disk queue of sealed
//! batches that would otherwise be shed.
//!
//! A `DigestForwarder`'s outbound queue is bounded; under overload the
//! in-memory policy sheds the oldest batch. A [`SpillQueue`] gives it
//! a durable middle ground: the displaced batch's *frame* goes to disk
//! and only a tiny index entry (offset, seq, digest count) stays in
//! memory, so spilled depth is bounded by disk, not RAM. When the link
//! recovers, batches pop back off in seq order and re-enter the
//! outbound queue.
//!
//! Popping does not erase the on-disk record (that would mean
//! rewriting the file per pop); instead the whole file is truncated
//! back to its superblock once the queue fully drains. A crash between
//! a pop and the drain can therefore resurrect an already-delivered
//! batch on reopen — the protocol is at-least-once and the receiver's
//! [`SourceDedup`](pint_wire::SourceDedup) window absorbs it as a
//! duplicate, so accounting stays exact.

use crate::error::StoreError;
use crate::log::{StoreOptions, StoreReader, StoreWriter};
use pint_wire::store::{StoreKind, StoreRecord, Superblock};
use pint_wire::DigestBatch;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// One spilled batch's in-memory index entry.
#[derive(Debug, Clone, Copy)]
struct SpillEntry {
    /// Offset of the record's frame header in the file.
    offset: u64,
    /// The batch's sequence number.
    seq: u64,
    /// Reports inside the batch.
    digests: u64,
}

/// A durable FIFO of sealed [`DigestBatch`]es (see the module docs).
pub struct SpillQueue {
    writer: StoreWriter,
    read: File,
    entries: VecDeque<SpillEntry>,
    /// Sum of `digests` over `entries`.
    digests: u64,
    /// Highest seq ever pushed (survives drains within this process;
    /// recovered from the file on reopen). A restarting forwarder
    /// numbers fresh batches above this so spilled and new batches
    /// never collide.
    max_seq: u64,
}

impl std::fmt::Debug for SpillQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillQueue")
            .field("len", &self.entries.len())
            .field("digests", &self.digests)
            .field("max_seq", &self.max_seq)
            .finish_non_exhaustive()
    }
}

impl SpillQueue {
    /// Opens (or creates) a spill file for forwarder `source`. An
    /// existing file has survived a crash: every intact delta record
    /// in it is queued for resumption, torn tails are truncated away,
    /// and a file of the wrong kind is rejected.
    pub fn open(path: impl AsRef<Path>, source: u64) -> Result<Self, StoreError> {
        let path: PathBuf = path.as_ref().to_path_buf();
        let exists = path.exists();
        let (writer, entries, digests, max_seq) = if exists {
            let reader = StoreReader::open(&path)?;
            let found = reader.superblock().kind;
            if found != StoreKind::Spill {
                return Err(StoreError::WrongKind {
                    expected: StoreKind::Spill,
                    found,
                });
            }
            let (writer, _tail) = StoreWriter::open(&path, StoreOptions::default())?;
            let mut entries = VecDeque::new();
            let mut digests = 0u64;
            let mut max_seq = 0u64;
            for (i, record) in reader.records().iter().enumerate() {
                if let StoreRecord::Delta { batch, .. } = record {
                    let (offset, _len) = reader.record_span(i);
                    let n = batch.reports.len() as u64;
                    entries.push_back(SpillEntry {
                        offset,
                        seq: batch.seq,
                        digests: n,
                    });
                    digests += n;
                    max_seq = max_seq.max(batch.seq);
                }
            }
            (writer, entries, digests, max_seq)
        } else {
            let writer = StoreWriter::create(
                &path,
                Superblock::new(StoreKind::Spill, source, 0),
                StoreOptions::default(),
            )?;
            (writer, VecDeque::new(), 0, 0)
        };
        let read = File::open(&path)?;
        Ok(Self {
            writer,
            read,
            entries,
            digests,
            max_seq,
        })
    }

    /// Appends one sealed batch to the spill.
    pub fn push(&mut self, batch: &DigestBatch) -> Result<(), StoreError> {
        let offset = self.writer.len();
        self.writer.append(&StoreRecord::Delta {
            epoch: batch.seq,
            batch: batch.clone(),
        })?;
        let n = batch.reports.len() as u64;
        self.entries.push_back(SpillEntry {
            offset,
            seq: batch.seq,
            digests: n,
        });
        self.digests += n;
        self.max_seq = self.max_seq.max(batch.seq);
        Ok(())
    }

    /// Pops the oldest spilled batch, re-reading and CRC-checking it
    /// from disk. `Ok(None)` when empty. Draining the last entry
    /// truncates the file back to its superblock.
    pub fn pop(&mut self) -> Result<Option<DigestBatch>, StoreError> {
        let entry = match self.entries.pop_front() {
            Some(e) => e,
            None => return Ok(None),
        };
        self.digests -= entry.digests;
        let batch = self.read_at(entry.offset)?;
        if self.entries.is_empty() {
            self.writer.reset()?;
            self.read = File::open(self.writer.path())?;
        }
        Ok(Some(batch))
    }

    fn read_at(&mut self, offset: u64) -> Result<DigestBatch, StoreError> {
        use pint_wire::store::crc32;
        use pint_wire::WireDecode;
        self.read.seek(SeekFrom::Start(offset))?;
        let mut header = [0u8; 8];
        self.read.read_exact(&mut header)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        let mut payload = vec![0u8; len];
        self.read.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            return Err(StoreError::Wire(pint_wire::WireError::Invalid(
                "spill record checksum mismatch",
            )));
        }
        match StoreRecord::decode(&payload)? {
            StoreRecord::Delta { batch, .. } => Ok(batch),
            StoreRecord::Checkpoint(_) => Err(StoreError::Wire(pint_wire::WireError::Invalid(
                "checkpoint record in a spill queue",
            ))),
        }
    }

    /// Spilled batches waiting to resume.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is spilled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Digest reports across all spilled batches.
    pub fn digests(&self) -> u64 {
        self.digests
    }

    /// Sequence number of the oldest spilled batch, if any.
    pub fn front_seq(&self) -> Option<u64> {
        self.entries.front().map(|e| e.seq)
    }

    /// Highest batch seq this spill has ever held — a restarting
    /// forwarder resumes numbering above it.
    pub fn max_seq(&self) -> u64 {
        self.max_seq
    }

    /// Current spill file size in bytes.
    pub fn bytes(&self) -> u64 {
        self.writer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_core::{Digest, DigestReport};

    fn batch(seq: u64, n: usize) -> DigestBatch {
        let reports = (0..n as u64)
            .map(|i| {
                let mut d = Digest::new(1);
                d.set(0, seq * 100 + i);
                DigestReport::new(i, 50, d, 4, seq)
            })
            .collect();
        DigestBatch {
            source: 9,
            seq,
            reports,
            trace: None,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pint-spill-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn push_pop_fifo_with_exact_accounting() {
        let path = tmp("fifo");
        let _ = std::fs::remove_file(&path);
        let mut q = SpillQueue::open(&path, 9).unwrap();
        for seq in 1..=5u64 {
            q.push(&batch(seq, seq as usize)).unwrap();
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.digests(), 1 + 2 + 3 + 4 + 5);
        assert_eq!(q.front_seq(), Some(1));
        assert_eq!(q.max_seq(), 5);
        for seq in 1..=5u64 {
            let b = q.pop().unwrap().unwrap();
            assert_eq!(b, batch(seq, seq as usize), "bytes survive the disk trip");
        }
        assert!(q.pop().unwrap().is_none());
        // Fully drained: the file shrank back to its superblock.
        let drained_bytes = q.bytes();
        q.push(&batch(6, 1)).unwrap();
        assert!(q.bytes() > drained_bytes);
        assert_eq!(q.max_seq(), 6);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crash_recovery_resumes_spilled_batches() {
        let path = tmp("recover");
        let _ = std::fs::remove_file(&path);
        {
            let mut q = SpillQueue::open(&path, 9).unwrap();
            for seq in 3..=6u64 {
                q.push(&batch(seq, 2)).unwrap();
            }
            // Process dies here: q dropped without draining.
        }
        // Tear the tail as a crash mid-push would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();

        let mut q = SpillQueue::open(&path, 9).unwrap();
        assert_eq!(q.len(), 3, "intact records resume; the torn one is gone");
        assert_eq!(q.digests(), 6);
        assert_eq!(q.max_seq(), 5);
        for seq in 3..=5u64 {
            assert_eq!(q.pop().unwrap().unwrap(), batch(seq, 2));
        }
        assert!(q.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_kind_file_is_rejected() {
        let path = tmp("wrongkind");
        let _ = std::fs::remove_file(&path);
        drop(
            StoreWriter::create(
                &path,
                Superblock::new(StoreKind::Collector, 1, 0),
                StoreOptions::default(),
            )
            .unwrap(),
        );
        assert!(matches!(
            SpillQueue::open(&path, 9),
            Err(StoreError::WrongKind { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
