//! Deterministic replay of a persisted log through any batch sink.
//!
//! A [`Replayer`] streams a [`StoreReader`]'s delta chain back in
//! append order — into a `CollectorHandle`-backed sink for offline
//! analysis against a real collector, into a bench harness for
//! regression-testing ingest on recorded traffic, or into anything
//! else shaped `FnMut(source, &mut Vec<DigestReport>)`. Replay runs the
//! same [`SourceDedup`] window the live receivers run, on the reader's
//! index before any decode, so a log holding retransmitted duplicates
//! replays each batch exactly once. Deltas are read back in file order
//! through one bounded window, CRC-checked again, and each batch
//! delivered decodes into one reused buffer lent to the sink.
//!
//! [`replay`](Replayer::replay) goes at full speed;
//! [`replay_paced`](Replayer::replay_paced) additionally drives a
//! [`VirtualClock`] to each batch's newest report timestamp before
//! delivery, so time-dependent consumers (TTL eviction, freshness
//! watermarks) observe the recorded timeline instead of wall time.

use crate::error::StoreError;
use crate::log::{StoreReader, RECORD_HEADER};
use pint_core::DigestReport;
use pint_obs::{Counter, MetricsRegistry, VirtualClock};
use pint_wire::store::{read_record, CoveredSource, StoreRecord};
use pint_wire::SourceDedup;
use std::collections::BTreeMap;

/// What one replay delivered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Delta batches delivered to the sink.
    pub batches: u64,
    /// Digest reports inside them.
    pub digests: u64,
    /// Persisted duplicates (retransmissions that were journaled
    /// twice) suppressed by the dedup window.
    pub duplicates: u64,
    /// Checkpoint records skipped (replay streams deltas; checkpoints
    /// are for [`restore`](crate) paths).
    pub checkpoints: u64,
}

/// Streams a persisted log back through a sink (see the module docs).
pub struct Replayer<'a> {
    reader: &'a StoreReader,
    replayed: Option<Counter>,
    /// Exact per-source coverage to prime the dedup windows with.
    covered: Vec<CoveredSource>,
}

impl<'a> Replayer<'a> {
    /// A replayer over an opened log.
    pub fn new(reader: &'a StoreReader) -> Self {
        Self {
            reader,
            replayed: None,
            covered: Vec::new(),
        }
    }

    /// Counts delivered batches into `store_restore_replayed_total` in
    /// `registry`.
    pub fn observed(mut self, registry: &MetricsRegistry) -> Self {
        self.replayed = Some(registry.counter("store_restore_replayed_total"));
        self
    }

    /// Primes each source's dedup window to exactly `covered` — deltas
    /// the coverage claims replay as duplicates, everything else
    /// (including seqs in gaps the coverage never saw) still streams.
    /// A restore that seeds state from a checkpoint passes the
    /// checkpoint's `covered` list here, so only what the checkpoint
    /// does not subsume reaches the sink.
    pub fn primed(mut self, covered: &[CoveredSource]) -> Self {
        self.covered = covered.to_vec();
        self
    }

    /// Replays every delta at full speed. A delta that no longer reads
    /// back as the record the scan indexed (the file changed under the
    /// reader) stops the replay with [`StoreError::Changed`] or the
    /// read's I/O error; the batches before it were delivered.
    pub fn replay(
        &self,
        sink: &mut dyn FnMut(u64, &mut Vec<DigestReport>),
    ) -> Result<ReplayStats, StoreError> {
        self.run(None, sink)
    }

    /// Replays every delta, setting `clock` to each batch's newest
    /// report timestamp before delivering it — virtual-clock pace:
    /// simulated time advances exactly as recorded, however fast the
    /// wall clock runs.
    pub fn replay_paced(
        &self,
        clock: &VirtualClock,
        sink: &mut dyn FnMut(u64, &mut Vec<DigestReport>),
    ) -> Result<ReplayStats, StoreError> {
        self.run(Some(clock), sink)
    }

    fn run(
        &self,
        clock: Option<&VirtualClock>,
        sink: &mut dyn FnMut(u64, &mut Vec<DigestReport>),
    ) -> Result<ReplayStats, StoreError> {
        let mut stats = ReplayStats::default();
        let mut dedup: BTreeMap<u64, SourceDedup> = BTreeMap::new();
        for cov in &self.covered {
            cov.prime(dedup.entry(cov.source).or_default());
        }
        let mut reports = Vec::new();
        let mut window = self.reader.window();
        for e in &self.reader.entries {
            let Some(seq) = e.seq else {
                stats.checkpoints += 1;
                continue;
            };
            if !dedup.entry(e.source).or_default().observe(seq) {
                stats.duplicates += 1;
                continue;
            }
            reports.clear();
            let frame = window.entry(e)?;
            match read_record(&frame[RECORD_HEADER..], &mut reports) {
                Ok(StoreRecord::Delta { batch, .. })
                    if batch.source == e.source && Some(batch.seq) == e.seq => {}
                _ => return Err(StoreError::Changed { offset: e.offset }),
            }
            if let Some(clock) = clock {
                if let Some(ts) = reports.iter().map(|r| r.ts).max() {
                    clock.set(ts);
                }
            }
            stats.batches += 1;
            stats.digests += reports.len() as u64;
            if let Some(c) = &self.replayed {
                c.inc();
            }
            sink(e.source, &mut reports);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{StoreOptions, StoreWriter};
    use pint_core::Digest;
    use pint_obs::{Clock, MetricsRegistry};
    use pint_wire::store::{StoreKind, StoreRecord, Superblock};
    use pint_wire::DigestBatch;

    fn batch(source: u64, seq: u64, ts: u64) -> DigestBatch {
        let mut d = Digest::new(1);
        d.set(0, seq);
        DigestBatch {
            source,
            seq,
            reports: vec![DigestReport::new(seq, 100, d, 4, ts)],
            trace: None,
        }
    }

    #[test]
    fn replay_dedups_persisted_retransmissions_and_paces_the_clock() {
        let mut path = std::env::temp_dir();
        path.push(format!("pint-replay-{}", std::process::id()));
        let mut w = StoreWriter::create(
            &path,
            Superblock::new(StoreKind::Collector, 1, 0),
            StoreOptions::default(),
        )
        .unwrap();
        for (seq, ts) in [(1u64, 10u64), (2, 20), (2, 20), (3, 30)] {
            w.append(&StoreRecord::Delta {
                epoch: 0,
                batch: batch(5, seq, ts),
            })
            .unwrap();
        }
        drop(w);

        let reader = StoreReader::open(&path).unwrap();
        let registry = MetricsRegistry::new();
        let clock = VirtualClock::new();
        let view = clock.clone();
        let mut seen = Vec::new();
        let stats = Replayer::new(&reader)
            .observed(&registry)
            .replay_paced(&clock, &mut |source, reports| {
                seen.push((source, reports.len(), view.now_ns()));
            })
            .unwrap();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.duplicates, 1);
        assert_eq!(stats.digests, 3);
        assert_eq!(seen, vec![(5, 1, 10), (5, 1, 20), (5, 1, 30)]);
        let replayed = registry
            .snapshot()
            .counters
            .iter()
            .find(|c| c.name == "store_restore_replayed_total")
            .map(|c| c.value);
        assert_eq!(replayed, Some(3));
        std::fs::remove_file(&path).unwrap();
    }
}
