//! # pint-store — durable snapshot/delta persistence for PINT telemetry
//!
//! A production collector cannot lose its flow table on restart. This
//! crate is the durability tier of the stack: an append-only,
//! epoch-indexed log of checksummed records holding snapshot/delta
//! chains — full checkpoints interleaved with applied
//! [`DigestBatch`](pint_wire::DigestBatch) deltas — with
//! crash-consistent recovery and deterministic replay.
//!
//! ## The pieces
//!
//! * [`StoreWriter`] / [`StoreReader`] — the log file itself: a
//!   versioned superblock (`pint-wire`'s [`Superblock`](pint_wire::store::Superblock) codec) then
//!   `[len][crc32][payload]` record frames. Opening scans with full
//!   hostile-input discipline (a store file is just bytes that
//!   survived a crash): the file is read through one bounded window,
//!   records are CRC-checked and walked, building nothing, torn tails
//!   are truncated back to the last intact boundary, damage surfaces as
//!   typed [`StoreError`]s / [`TailStatus`] verdicts, never a panic. The
//!   reader keeps the open file and a per-record index, not the file's
//!   bytes: records are read back, CRC-checked again and decoded on
//!   demand, so a file cut under the reader is a typed error too.
//! * **Compaction** — the log's analog of the flow table's byte-cap
//!   eviction: past [`StoreOptions::max_bytes`] the writer rewrites
//!   the file keeping the newest checkpoint per source plus everything
//!   after the newest checkpoint, and bumps the superblock's
//!   `compactions` count so readers can tell the delta chain no
//!   longer reaches the origin. A checkpoint-free log is never compacted —
//!   deltas are never silently dropped.
//! * [`Journal`] — the off-hot-path writer: ingest shards tee applied
//!   batches through a cloneable [`JournalSender`] whose `try_delta`
//!   never blocks (a full queue drops and counts instead), a dedicated
//!   thread owns the `StoreWriter` and group-commits whatever deltas
//!   are queued (one write per drain, file bytes identical to one
//!   append per record), and checkpoints ride the same FIFO
//!   carrying the exact coverage their taker captured at snapshot
//!   time (deltas teed after the snapshot stay uncovered and survive
//!   compaction). All drops, bytes, depths, and compactions are
//!   `pint-obs` metrics.
//! * [`Replayer`] — streams a persisted log back through any
//!   `FnMut(source, &mut reports)` sink (a `CollectorHandle`, a bench
//!   harness) at full speed or virtual-clock pace, deduplicating
//!   persisted retransmissions exactly like a live receiver.
//! * [`SpillQueue`] — a small durable FIFO a `DigestForwarder` uses to
//!   persist-and-resume batches it would otherwise shed under
//!   overload.
//!
//! Restore policies live with the state owners (`Collector::restore`,
//! `FleetAggregator::restore` in their crates); this crate supplies
//! the mechanism: scan, verify, read back and decode on demand.
//!
//! ```
//! use pint_store::{Journal, JournalConfig, Replayer, StoreOptions, StoreReader, StoreWriter};
//! use pint_obs::MetricsRegistry;
//! use pint_wire::store::{StoreKind, Superblock};
//! use pint_wire::DigestBatch;
//!
//! let mut path = std::env::temp_dir();
//! path.push(format!("pint-store-doc-{}", std::process::id()));
//! let writer = StoreWriter::create(
//!     &path,
//!     Superblock::new(StoreKind::Collector, 1, 0),
//!     StoreOptions::default(),
//! )?;
//! let registry = MetricsRegistry::new();
//! let journal = Journal::spawn(writer, JournalConfig::default(), &registry);
//! let sender = journal.sender();
//! sender.try_delta(DigestBatch { source: 1, seq: 1, reports: vec![], trace: None });
//! journal.flush();
//! drop(journal);
//!
//! let reader = StoreReader::open(&path)?;
//! assert_eq!(reader.records().len(), 1);
//! assert_eq!(reader.record(0)?.epoch(), 0);
//! assert!(reader.tail().is_clean());
//! let stats = Replayer::new(&reader).replay(&mut |source, reports| {
//!     assert_eq!((source, reports.len()), (1, 0));
//! })?;
//! assert_eq!(stats.batches, 1);
//! # std::fs::remove_file(&path).unwrap();
//! # Ok::<(), pint_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod journal;
mod log;
mod replay;
mod spill;

pub use error::{StoreError, TailStatus, TornReason};
pub use journal::{Journal, JournalConfig, JournalSender};
pub use log::{AppendInfo, StoreOptions, StoreReader, StoreWriter};
pub use replay::{ReplayStats, Replayer};
pub use spill::SpillQueue;
