//! The off-hot-path journal: a bounded queue feeding one writer
//! thread that owns the [`StoreWriter`].
//!
//! Ingest shards tee applied batches through a [`JournalSender`] whose
//! [`try_delta`](JournalSender::try_delta) *never blocks*: when the
//! queue is full the delta is dropped and counted
//! (`store_journal_dropped_total`) — durability degrades before ingest
//! does, the same trade every overload path in the stack makes.
//! Checkpoints and flushes ride the same FIFO queue, so a checkpoint
//! always lands *after* every delta it covers (shards tee a batch
//! before answering the snapshot query that feeds the checkpoint).
//! Each checkpoint carries an **explicit** `covered` list captured by
//! its taker at snapshot time — never derived from the file, because
//! deltas teed after the snapshot can be written before the checkpoint
//! record dequeues, and those are not in the payload. The writer
//! thread stamps every delta with the epoch of the last checkpoint it
//! wrote, so epoch stamps are monotone with file order by
//! construction.
//!
//! ## Group commit
//!
//! The writer thread does not write one delta at a time. It blocks for
//! one message; if that is a delta it keeps draining the queue with
//! `try_recv`, staging each delta into the [`StoreWriter`]'s reused
//! buffer, until the queue is empty, the next message is not a delta,
//! or the staged group reaches [`GROUP_BYTES`]. Then it commits the
//! group with one `write_all` (and one `sync_data` when
//! [`StoreOptions::fsync`](crate::StoreOptions::fsync) is on). A
//! checkpoint, flush or stop that ends a drain is handled right after
//! the group ahead of it commits, so FIFO order is unchanged: the file
//! holds exactly the records, in exactly the order and bytes, that one
//! `append` per message would have written. The bound keeps a long
//! backlog from growing the staging buffer (and the process heap) past
//! one fixed size; under light load each group is a single delta.
//!
//! Self-telemetry (all in the registry handed to [`Journal::spawn`]):
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `store_bytes_appended_total` | counter | record bytes (headers + payloads) of committed groups — bytes of a failed group are not counted |
//! | `store_checkpoints_total` | counter | checkpoint records committed |
//! | `store_compactions_total` | counter | log rewrites |
//! | `store_journal_depth` | gauge | deltas queued, not yet staged |
//! | `store_journal_dropped_total` | counter | deltas lost to a full queue (or a stopped journal) |
//! | `store_journal_errors_total` | counter | one per record of a failed commit (the group is rolled back off the file), per record refused as too large, per failed compaction, and per failed sync on [`Journal::flush`] |

use crate::log::StoreWriter;
use pint_obs::{Counter, Gauge, MetricsRegistry};
use pint_wire::store::{CheckpointRecord, CoveredSource, StoreRecord};
use pint_wire::DigestBatch;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Upper bound on one group commit's staged bytes: the writer stops
/// draining the queue into a group once it holds this much. A fixed
/// constant, not a knob — it only caps the staging buffer, and 64 KiB
/// already amortises the per-write syscall across hundreds of deltas.
const GROUP_BYTES: usize = 64 * 1024;

/// Tuning of a [`Journal`].
#[derive(Debug, Clone, Copy)]
pub struct JournalConfig {
    /// Bounded queue depth between ingest shards and the writer
    /// thread; deltas past it are dropped (counted), never blocked on.
    pub queue_depth: usize,
}

impl Default for JournalConfig {
    fn default() -> Self {
        Self { queue_depth: 4_096 }
    }
}

enum JournalMsg {
    Delta {
        batch: DigestBatch,
    },
    Checkpoint {
        source: u64,
        epoch: u64,
        payload: Vec<u8>,
        covered: Vec<CoveredSource>,
    },
    Flush(SyncSender<()>),
    Stop,
}

/// The non-blocking hot-path handle shards hold: cheap to clone, and
/// [`try_delta`](Self::try_delta) never waits on the writer thread.
#[derive(Clone)]
pub struct JournalSender {
    tx: SyncSender<JournalMsg>,
    pending: Arc<AtomicU64>,
    depth: Gauge,
    dropped: Counter,
}

impl JournalSender {
    /// Offers one applied batch to the journal; the writer thread
    /// stamps it with the epoch of the last checkpoint it wrote, so
    /// stamps are monotone with file order. Returns `false` (and
    /// counts the drop) when the queue is full or the journal has
    /// stopped — the caller keeps ingesting either way.
    pub fn try_delta(&self, batch: DigestBatch) -> bool {
        let msg = JournalMsg::Delta { batch };
        // Count the delta as pending *before* offering it: the worker
        // only decrements after receiving, so the counter never dips
        // below zero however the two threads interleave.
        self.pending.fetch_add(1, Ordering::Relaxed);
        match self.tx.try_send(msg) {
            Ok(()) => {
                self.depth.set(self.pending.load(Ordering::Relaxed));
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.pending.fetch_sub(1, Ordering::Relaxed);
                self.dropped.inc();
                false
            }
        }
    }
}

/// Owns the writer thread; see the module docs.
pub struct Journal {
    tx: SyncSender<JournalMsg>,
    pending: Arc<AtomicU64>,
    epoch: Arc<AtomicU64>,
    depth: Gauge,
    dropped: Counter,
    /// Per-source delta floors the file held when this journal started
    /// (see [`delta_floor`](Self::delta_floor)).
    initial_floors: BTreeMap<u64, u64>,
    thread: Mutex<Option<JoinHandle<StoreWriter>>>,
}

impl Journal {
    /// Starts the writer thread over `writer`, registering the
    /// `store_*` metrics in `registry`.
    pub fn spawn(writer: StoreWriter, config: JournalConfig, registry: &MetricsRegistry) -> Self {
        let (tx, rx) = sync_channel(config.queue_depth.max(1));
        let initial_floors = writer.delta_floors().clone();
        let pending = Arc::new(AtomicU64::new(0));
        let epoch = Arc::new(AtomicU64::new(writer.newest_checkpoint_epoch()));
        let depth = registry.gauge("store_journal_depth");
        let dropped = registry.counter("store_journal_dropped_total");
        let worker = Worker {
            epoch: writer.newest_checkpoint_epoch(),
            writer,
            rx,
            pending: Arc::clone(&pending),
            depth: depth.clone(),
            bytes: registry.counter("store_bytes_appended_total"),
            checkpoints: registry.counter("store_checkpoints_total"),
            compactions: registry.counter("store_compactions_total"),
            errors: registry.counter("store_journal_errors_total"),
        };
        let thread = std::thread::Builder::new()
            .name("pint-store-journal".into())
            .spawn(move || worker.run())
            .expect("spawn journal writer thread");
        Self {
            tx,
            pending,
            epoch,
            depth,
            dropped,
            initial_floors,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// The highest delta seq the underlying file already held for
    /// `source` when this journal started (0 for a fresh file). A
    /// producer re-attaching after a restart numbers its fresh deltas
    /// *above* this, so replay's per-source dedup window never mistakes
    /// a new generation's batches for retransmissions of the old one.
    pub fn delta_floor(&self, source: u64) -> u64 {
        self.initial_floors.get(&source).copied().unwrap_or(0)
    }

    /// A hot-path sender for one ingest shard (or any producer).
    pub fn sender(&self) -> JournalSender {
        JournalSender {
            tx: self.tx.clone(),
            pending: Arc::clone(&self.pending),
            depth: self.depth.clone(),
            dropped: self.dropped.clone(),
        }
    }

    /// The epoch of the newest checkpoint enqueued (deltas behind it in
    /// the queue will be stamped with it once the writer passes it).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Enqueues a full-state checkpoint carrying `covered`, the exact
    /// per-source delta coverage the snapshot payload subsumes — the
    /// caller captures it at snapshot time (shards report their teed
    /// seq in the snapshot reply), so deltas applied after the snapshot
    /// but written before this record are *not* claimed and survive
    /// compaction. Blocking (checkpoints are rare and must not be
    /// shed); returns `false` only if the journal already stopped.
    pub fn checkpoint(
        &self,
        source: u64,
        epoch: u64,
        payload: Vec<u8>,
        covered: Vec<CoveredSource>,
    ) -> bool {
        self.epoch.store(epoch, Ordering::Relaxed);
        self.tx
            .send(JournalMsg::Checkpoint {
                source,
                epoch,
                payload,
                covered,
            })
            .is_ok()
    }

    /// Drains everything enqueued so far and syncs the file. Blocks
    /// until the writer confirms.
    pub fn flush(&self) {
        let (ack_tx, ack_rx) = sync_channel(1);
        if self.tx.send(JournalMsg::Flush(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// Stops the writer thread (after draining the queue) and returns
    /// the [`StoreWriter`], synced.
    pub fn shutdown(self) -> Option<StoreWriter> {
        self.stop_and_join()
    }

    fn stop_and_join(&self) -> Option<StoreWriter> {
        let handle = self.thread.lock().expect("journal thread slot").take()?;
        let _ = self.tx.send(JournalMsg::Stop);
        handle.join().ok()
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

struct Worker {
    writer: StoreWriter,
    rx: Receiver<JournalMsg>,
    /// Epoch of the last checkpoint this thread wrote — the stamp for
    /// every delta, making stamps monotone with file order.
    epoch: u64,
    pending: Arc<AtomicU64>,
    depth: Gauge,
    bytes: Counter,
    checkpoints: Counter,
    compactions: Counter,
    errors: Counter,
}

impl Worker {
    fn run(mut self) -> StoreWriter {
        // A non-delta message that ended a drain, handled next.
        let mut held = None;
        loop {
            let msg = match held.take() {
                Some(msg) => msg,
                None => match self.rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                },
            };
            match msg {
                JournalMsg::Delta { batch } => {
                    let mut group = self.stage_delta(batch);
                    while self.writer.staged_bytes() < GROUP_BYTES {
                        match self.rx.try_recv() {
                            Ok(JournalMsg::Delta { batch }) => group += self.stage_delta(batch),
                            Ok(other) => {
                                held = Some(other);
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    self.commit(group);
                }
                JournalMsg::Checkpoint {
                    source,
                    epoch,
                    payload,
                    covered,
                } => {
                    let rec = StoreRecord::Checkpoint(CheckpointRecord {
                        source,
                        epoch,
                        covered,
                        payload,
                    });
                    if self.stage(&rec) && self.commit(1) {
                        self.checkpoints.inc();
                    }
                    // Deltas behind this point in the queue were teed
                    // under the new epoch (or later); stamp them with
                    // it even if the append itself failed, so stamps
                    // stay monotone.
                    self.epoch = epoch;
                }
                JournalMsg::Flush(ack) => {
                    if self.writer.sync().is_err() {
                        self.errors.inc();
                    }
                    let _ = ack.send(());
                }
                JournalMsg::Stop => break,
            }
        }
        let _ = self.writer.sync();
        self.writer
    }

    /// Dequeues one delta into the staged group, stamped with the
    /// current epoch. Returns how many records it staged (0 or 1).
    fn stage_delta(&mut self, batch: DigestBatch) -> u64 {
        let d = self
            .pending
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        self.depth.set(d);
        let epoch = self.epoch;
        u64::from(self.stage(&StoreRecord::Delta { epoch, batch }))
    }

    fn stage(&mut self, record: &StoreRecord) -> bool {
        let staged = self.writer.stage(record).is_ok();
        if !staged {
            self.errors.inc();
        }
        staged
    }

    /// Commits the staged group of `records` records. An unwritable
    /// journal must not take ingest down: a failed group is counted
    /// record by record and the writer keeps consuming the queue.
    fn commit(&mut self, records: u64) -> bool {
        match self.writer.commit() {
            Ok(commit) => {
                self.bytes.add(commit.bytes);
                match commit.compacted {
                    Ok(true) => self.compactions.inc(),
                    Ok(false) => {}
                    Err(_) => self.errors.inc(),
                }
                true
            }
            Err(_) => {
                self.errors.add(records);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{StoreOptions, StoreReader};
    use pint_core::{Digest, DigestReport};
    use pint_wire::store::{StoreKind, Superblock};

    fn batch(source: u64, seq: u64) -> DigestBatch {
        let mut d = Digest::new(1);
        d.set(0, seq);
        DigestBatch {
            source,
            seq,
            reports: vec![DigestReport::new(seq, 100, d, 4, seq)],
            trace: None,
        }
    }

    #[test]
    fn journal_writes_deltas_checkpoints_and_covered_floors() {
        let mut path = std::env::temp_dir();
        path.push(format!("pint-journal-{}", std::process::id()));
        let writer = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        let registry = MetricsRegistry::new();
        let journal = Journal::spawn(writer, JournalConfig::default(), &registry);
        let sender = journal.sender();
        for seq in 1..=5u64 {
            assert!(sender.try_delta(batch(2, seq)));
        }
        // The covered list is the caller's, captured at snapshot time:
        // claim only seqs 1..=4 even though 5 deltas are queued — the
        // writer must persist it verbatim, never re-derive it from the
        // deltas it happens to have written when the record dequeues.
        let covered = vec![CoveredSource::floor_only(2, 4)];
        assert!(journal.checkpoint(0, 1, vec![0xAA; 16], covered.clone()));
        assert_eq!(journal.epoch(), 1);
        // Deltas after the checkpoint carry the advanced epoch stamp.
        assert!(sender.try_delta(batch(2, 6)));
        journal.flush();
        let snap = registry.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert_eq!(get("store_checkpoints_total"), 1);
        assert!(get("store_bytes_appended_total") > 0);
        assert_eq!(get("store_journal_dropped_total"), 0);
        journal.shutdown().unwrap();

        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.records().len(), 7);
        let ck = r.newest_checkpoint().unwrap();
        match r.record(ck).unwrap() {
            StoreRecord::Checkpoint(c) => {
                assert_eq!(c.covered, covered, "caller's covered list, verbatim");
                assert_eq!(c.epoch, 1);
            }
            _ => unreachable!(),
        }
        match r.record(6).unwrap() {
            StoreRecord::Delta { epoch, batch } => {
                assert_eq!(epoch, 1, "post-checkpoint delta stamped with new epoch");
                assert_eq!(batch.seq, 6);
            }
            _ => unreachable!(),
        }
        // Writer-side stamping: epochs are monotone with file order.
        let epochs: Vec<u64> = r.records().map(|rec| rec.unwrap().epoch()).collect();
        assert!(epochs.windows(2).all(|w| w[0] <= w[1]), "{epochs:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_committed_journal_is_byte_identical_to_one_append_per_record() {
        const N: u64 = 6_000;
        let mut path = std::env::temp_dir();
        path.push(format!("pint-journal-groups-{}", std::process::id()));
        let mut twin_path = path.clone();
        twin_path.set_extension("twin");
        let sb = Superblock::new(StoreKind::Collector, 1, 0);
        let writer = StoreWriter::create(&path, sb.clone(), StoreOptions::default()).unwrap();
        let mut twin = StoreWriter::create(&twin_path, sb, StoreOptions::default()).unwrap();
        let registry = MetricsRegistry::new();
        let config = JournalConfig {
            queue_depth: N as usize + 1,
        };
        let journal = Journal::spawn(writer, config, &registry);
        let sender = journal.sender();

        // Enough deltas, offered back to back, that the writer drains
        // them in groups — some of them cut by the byte bound.
        let covered = vec![CoveredSource::floor_only(2, N / 2)];
        for seq in 1..=N {
            assert!(sender.try_delta(batch(2, seq)));
            if seq == N / 2 {
                assert!(journal.checkpoint(0, 5, vec![0xAA; 40], covered.clone()));
            }
        }
        // The same records, stamped as the journal stamps them, one
        // `append` each.
        for seq in 1..=N {
            let epoch = if seq > N / 2 { 5 } else { 0 };
            twin.append(&StoreRecord::Delta {
                epoch,
                batch: batch(2, seq),
            })
            .unwrap();
            if seq == N / 2 {
                twin.append(&StoreRecord::Checkpoint(CheckpointRecord {
                    source: 0,
                    epoch: 5,
                    covered: covered.clone(),
                    payload: vec![0xAA; 40],
                }))
                .unwrap();
            }
        }
        journal.flush();
        let snap = registry.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert_eq!(get("store_journal_errors_total"), 0);
        assert_eq!(
            get("store_bytes_appended_total"),
            twin.len() - twin.data_start()
        );
        let writer = journal.shutdown().unwrap();
        assert_eq!(writer.len(), twin.len());
        assert_eq!(writer.delta_floors(), twin.delta_floors());
        assert_eq!(writer.newest_checkpoint_epoch(), 5);
        drop(twin);

        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&twin_path).unwrap(),
            "group commit changes no byte of the file"
        );
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&twin_path).unwrap();
    }

    #[test]
    fn failed_groups_count_every_record_and_no_bytes() {
        let mut path = std::env::temp_dir();
        path.push(format!("pint-journal-failing-{}", std::process::id()));
        let mut writer = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        // Every commit through a read-only handle fails.
        writer.swap_file(std::fs::File::open(&path).unwrap());
        let registry = MetricsRegistry::new();
        let journal = Journal::spawn(writer, JournalConfig::default(), &registry);
        let sender = journal.sender();
        for seq in 1..=500u64 {
            assert!(sender.try_delta(batch(1, seq)));
        }
        assert!(journal.checkpoint(0, 1, vec![0xAA; 16], Vec::new()));
        journal.flush();
        let snap = registry.snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert_eq!(get("store_journal_errors_total"), 501);
        assert_eq!(get("store_bytes_appended_total"), 0);
        assert_eq!(get("store_checkpoints_total"), 0);
        let writer = journal.shutdown().unwrap();
        assert!(writer.is_empty());
        assert_eq!(writer.len(), writer.data_start());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn full_queue_drops_and_counts_instead_of_blocking() {
        let mut path = std::env::temp_dir();
        path.push(format!("pint-journal-full-{}", std::process::id()));
        let writer = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        let registry = MetricsRegistry::new();
        let journal = Journal::spawn(writer, JournalConfig { queue_depth: 2 }, &registry);
        let sender = journal.sender();
        // Flood far past the queue depth; some must drop, none block.
        let mut accepted = 0u64;
        for seq in 1..=10_000u64 {
            if sender.try_delta(batch(1, seq)) {
                accepted += 1;
            }
        }
        journal.flush();
        let snap = registry.snapshot();
        let dropped = snap
            .counters
            .iter()
            .find(|c| c.name == "store_journal_dropped_total")
            .map(|c| c.value)
            .unwrap_or(0);
        assert_eq!(accepted + dropped, 10_000);
        journal.shutdown().unwrap();
        let r = StoreReader::open(&path).unwrap();
        assert_eq!(r.records().len() as u64, accepted);
        std::fs::remove_file(&path).unwrap();
    }
}
