//! Ingestion handles: how sinks feed digests into the collector.
//!
//! A [`CollectorHandle`] is one registered *producer*: it owns a private
//! lock-free SPSC ring to every shard (see
//! [`Collector::register_producer`](crate::Collector::register_producer)),
//! buffers digests per destination shard, and ships them as batches, so
//! ring synchronization is amortized over `batch_size` digests. Handles
//! are `Clone` — a clone registers a *sibling* producer with fresh rings
//! — so every sink thread owns its own, and producers never contend with
//! each other on the data path.
//!
//! Ordering: a flow always maps to one shard, and one handle's pushes
//! for it stay in push order — per-flow-per-producer ordering is exact.
//! Digests for one flow pushed through *different* handles interleave
//! arbitrarily (they ride different rings), so route any one flow
//! through one producer when stream order matters.

use crate::collector::ProducerRegistry;
use crate::config::FlowId;
use crate::error::CollectorError;
use crate::ring::RingProducer;
use pint_core::DigestReport;
use std::sync::Arc;

/// Stable shard choice via `pint-core`'s splitmix64 finalizer —
/// decouples the partition from any structure in flow IDs.
#[inline]
pub(crate) fn shard_of(flow: FlowId, shards: usize) -> usize {
    (pint_core::hash::mix64(flow.wrapping_add(0x9E37_79B9_7F4A_7C15)) % shards as u64) as usize
}

/// One producer's buffering front-end to a [`Collector`](crate::Collector).
pub struct CollectorHandle {
    producers: Vec<RingProducer>,
    bufs: Vec<Vec<DigestReport>>,
    batch_size: usize,
    registry: Arc<ProducerRegistry>,
}

impl CollectorHandle {
    pub(crate) fn new(
        producers: Vec<RingProducer>,
        batch_size: usize,
        registry: Arc<ProducerRegistry>,
    ) -> Self {
        let bufs = producers
            .iter()
            .map(|_| Vec::with_capacity(batch_size))
            .collect();
        Self {
            producers,
            bufs,
            batch_size,
            registry,
        }
    }

    /// Number of shards digests fan out to.
    pub fn shards(&self) -> usize {
        self.producers.len()
    }

    /// Digests lost collector-wide because a batch could not be
    /// delivered (shard gone mid-shipment — see
    /// [`CollectorStats::digests_dropped`](crate::CollectorStats)).
    /// Shared across all handles of one collector.
    pub fn dropped_digests(&self) -> u64 {
        self.registry.dropped.get()
    }

    /// Queues one digest; ships the destination shard's batch when it
    /// reaches `batch_size`. Parks (backpressure) while that shard's
    /// ring is full. With a configured pre-filter, off-watch-list flows
    /// are dropped here (counted in `digests_prefiltered`) before any
    /// buffering.
    pub fn push(&mut self, report: DigestReport) -> Result<(), CollectorError> {
        if self.prefiltered(&report) {
            return Ok(());
        }
        let shard = shard_of(report.flow, self.producers.len());
        self.bufs[shard].push(report);
        if self.bufs[shard].len() >= self.batch_size {
            self.ship(shard)?;
        }
        Ok(())
    }

    /// True when the watch-list pre-filter rejects `report` — checked
    /// before buffering so an uninteresting flow costs two hashes, not
    /// a ring crossing and a flow-table touch.
    #[inline]
    fn prefiltered(&self, report: &DigestReport) -> bool {
        match &self.registry.prefilter {
            Some(bloom) if !bloom.may_contain(report.flow) => {
                self.registry.prefiltered.add(1);
                true
            }
            _ => false,
        }
    }

    /// Queues a pre-assembled batch (e.g. from an upstream aggregator).
    pub fn push_batch(
        &mut self,
        reports: impl IntoIterator<Item = DigestReport>,
    ) -> Result<(), CollectorError> {
        for r in reports {
            self.push(r)?;
        }
        Ok(())
    }

    /// Ships all partially filled buffers now (parking if rings are
    /// full). Every shard's buffer is attempted even if an earlier one
    /// fails — so after a disconnect, all undeliverable digests land in
    /// the dropped counter rather than vanishing with the buffers — and
    /// the first error is returned.
    pub fn flush(&mut self) -> Result<(), CollectorError> {
        let mut result = Ok(());
        for shard in 0..self.bufs.len() {
            if !self.bufs[shard].is_empty() {
                let shipped = self.ship(shard);
                if result.is_ok() {
                    result = shipped;
                }
            }
        }
        result
    }

    /// The next buffer for `shard`: a recycled one from the shard's
    /// reverse lane when available — the steady state, and thanks to the
    /// seed buffer registration plants in each lane, the very first ship
    /// too — else a fresh allocation (the lane ran dry, e.g. the worker
    /// fell far enough behind that ships outpaced recycles).
    fn fresh_buf(&mut self, shard: usize) -> Vec<DigestReport> {
        match self.producers[shard].take_recycled() {
            Some(buf) => {
                self.registry.recycled.inc();
                buf
            }
            None => {
                self.registry.batch_allocs.inc();
                Vec::with_capacity(self.batch_size)
            }
        }
    }

    /// Publishes this producer's live backoff policy for `shard`. With
    /// several producers the gauges show the most recent shipper (last
    /// writer wins) — a sample of the adaptive state, not an aggregate.
    fn publish_backoff(&self, shard: usize) {
        self.registry
            .producer_spin
            .set(u64::from(self.producers[shard].adaptive_spin()));
        self.registry
            .producer_park_us
            .set(self.producers[shard].adaptive_park_us());
    }

    fn ship(&mut self, shard: usize) -> Result<(), CollectorError> {
        let batch = std::mem::take(&mut self.bufs[shard]);
        // One enqueue-latency sample per shipped batch: cheap enough to
        // be always-on, and a parked producer (full ring) shows up as a
        // fat tail in `collector_stage_enqueue_ns`.
        let t0 = self.registry.clock.now_ns();
        match self.producers[shard].push(batch) {
            Ok(()) => {
                self.registry
                    .enqueue
                    .record(self.registry.clock.now_ns().saturating_sub(t0));
                self.publish_backoff(shard);
                // Re-arm only after the hand-off: a park on the full
                // ring may be exactly what refills the recycle lane.
                self.bufs[shard] = self.fresh_buf(shard);
                Ok(())
            }
            Err(lost) => {
                // The batch cannot be delivered anywhere; account for
                // every digest of it before reporting the disconnect.
                // The buffer stays empty — further pushes to a dead
                // shard are error-path, not worth pool traffic.
                self.registry.dropped.add(lost.len() as u64);
                Err(CollectorError::Disconnected)
            }
        }
    }
}

impl Clone for CollectorHandle {
    /// Registers a sibling producer: the clone gets fresh rings of its
    /// own, so two clones never synchronize on the data path.
    fn clone(&self) -> Self {
        self.registry.register()
    }
}

impl Drop for CollectorHandle {
    fn drop(&mut self) {
        let _ = self.flush();
        // Dropping the `RingProducer`s closes the rings; shards drain
        // what was shipped, then detach them.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 8, 13] {
            for flow in 0..10_000u64 {
                let s = shard_of(flow, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(flow, shards));
            }
        }
    }

    #[test]
    fn shard_of_balances_sequential_ids() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        let n = 100_000u64;
        for flow in 0..n {
            counts[shard_of(flow, shards)] += 1;
        }
        let expect = n as usize / shards;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c.abs_diff(expect) < expect / 10,
                "shard {i} got {c} of expected {expect}: {counts:?}"
            );
        }
    }
}
