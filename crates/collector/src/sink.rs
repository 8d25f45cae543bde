//! Glue between `pint-netsim`'s sink tap and the collector.
//!
//! The simulator invokes its digest sink for every data packet arriving
//! at a destination host — the PINT sink of the paper's Fig. 3. This
//! module wires that tap into the collector two ways: directly into one
//! [`CollectorHandle`] ([`attach_collector`]), or through a
//! [`ParallelSinkDriver`] that fans the single-threaded simulator's
//! digest stream out to N producer threads
//! ([`attach_collector_parallel`]) — so a simulation exercises the
//! multi-producer ingest pipeline exactly the way N independent PINT
//! sinks would. It also provides a reusable switch-side
//! [`TelemetryHook`] running a latency-query Encoding Module so
//! simulations produce decodable digests end-to-end.

use crate::handle::{shard_of, CollectorHandle};
use crate::Collector;
use pint_core::dynamic::DynamicAggregator;
use pint_core::value::Digest;
use pint_core::DigestReport;
use pint_netsim::{DigestBatchSink, DigestSink, Packet, Simulator, SwitchView, TelemetryHook};
use std::io;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Installs `handle` as `sim`'s digest sink: every digest extracted at a
/// receiving host is batched and sharded into the collector. Remember to
/// keep another handle (or the collector) around for queries.
pub fn attach_collector(sim: &mut Simulator, handle: CollectorHandle) {
    sim.set_digest_sink(handle.into_digest_sink());
}

/// Spawns a [`ParallelSinkDriver`] with `producers` producer threads and
/// installs its batch tap on `sim`. Call
/// [`finish`](ParallelSinkDriver::finish) after `sim.run()` to join the
/// producers and learn how many digests they delivered. Fails, leaving
/// `sim` untouched, when a producer thread cannot be spawned.
pub fn attach_collector_parallel(
    sim: &mut Simulator,
    collector: &Collector,
    producers: usize,
) -> io::Result<ParallelSinkDriver> {
    let driver = ParallelSinkDriver::spawn(collector, producers, 256)?;
    sim.set_digest_batch_sink(256, driver.digest_batch_sink());
    Ok(driver)
}

/// Depth, in chunks, of each producer thread's feed queue. Small: the
/// queue only decouples the simulator loop from ring backpressure.
const FEED_DEPTH: usize = 8;

/// Fans one digest stream out to N producer threads, each owning a
/// registered [`CollectorHandle`].
///
/// The simulator is single-threaded, so by itself it can only exercise
/// one producer. The driver routes each digest by flow hash to one of
/// `producers` worker threads (stable routing — per-flow order is
/// preserved through exactly one producer), ships chunks over short
/// bounded queues, and lets the workers push concurrently through their
/// own rings.
///
/// Lifecycle: install a sink via [`digest_sink`](Self::digest_sink) or
/// [`digest_batch_sink`](Self::digest_batch_sink) (the returned closure
/// flushes its route buffers when dropped, e.g. when `Simulator::run`
/// returns), then call [`finish`](Self::finish) to join the workers.
/// Undeliverable digests are counted in
/// [`CollectorStats::digests_dropped`](crate::CollectorStats), never
/// lost silently.
pub struct ParallelSinkDriver {
    txs: Vec<SyncSender<Vec<DigestReport>>>,
    /// Per-worker return lanes carrying drained chunk buffers back to
    /// the router, mirroring the ring layer's batch recycling. Wrapped
    /// for sharing across sink closures; contention-free in practice
    /// (`try_lock` in the ship path, one router at a time).
    rets: Vec<Arc<Mutex<Receiver<Vec<DigestReport>>>>>,
    workers: Vec<JoinHandle<u64>>,
    chunk: usize,
}

impl ParallelSinkDriver {
    /// Registers `producers` producers on `collector` and starts their
    /// worker threads; `chunk` is the routing buffer size per producer.
    /// If a thread cannot be spawned, the workers already started are
    /// joined and the error is returned.
    pub fn spawn(collector: &Collector, producers: usize, chunk: usize) -> io::Result<Self> {
        assert!(producers >= 1, "need at least one producer");
        let mut driver = Self {
            txs: Vec::with_capacity(producers),
            rets: Vec::with_capacity(producers),
            workers: Vec::with_capacity(producers),
            chunk: chunk.max(1),
        };
        for p in 0..producers {
            let mut handle = collector.register_producer();
            let (tx, rx) = sync_channel::<Vec<DigestReport>>(FEED_DEPTH);
            let (ret_tx, ret_rx) = sync_channel::<Vec<DigestReport>>(FEED_DEPTH);
            let spawned = std::thread::Builder::new()
                .name(format!("pint-sink-{p}"))
                .spawn(move || {
                    let mut delivered = 0u64;
                    while let Ok(mut chunk) = rx.recv() {
                        for report in chunk.drain(..) {
                            // Failures (collector shut down mid-run) are
                            // counted by the handle itself.
                            if handle.push(report).is_ok() {
                                delivered += 1;
                            }
                        }
                        // Hand the drained buffer back for reuse; a full
                        // (or gone) return lane just drops it.
                        let _ = ret_tx.try_send(chunk);
                    }
                    let _ = handle.flush();
                    delivered
                });
            match spawned {
                Ok(join) => {
                    driver.txs.push(tx);
                    driver.rets.push(Arc::new(Mutex::new(ret_rx)));
                    driver.workers.push(join);
                }
                Err(e) => {
                    driver.finish();
                    return Err(e);
                }
            }
        }
        Ok(driver)
    }

    /// Producer threads driven by this sink.
    pub fn producers(&self) -> usize {
        self.txs.len()
    }

    fn router(&self) -> Router {
        Router {
            bufs: self
                .txs
                .iter()
                .map(|_| Vec::with_capacity(self.chunk))
                .collect(),
            txs: self.txs.clone(),
            rets: self.rets.clone(),
            chunk: self.chunk,
        }
    }

    /// A per-digest sink for `Simulator::set_digest_sink`.
    pub fn digest_sink(&self) -> DigestSink {
        let mut router = self.router();
        Box::new(move |report| router.route(report))
    }

    /// A batched sink for `Simulator::set_digest_batch_sink` (fewer
    /// closure dispatches on the simulator's hot path).
    pub fn digest_batch_sink(&self) -> DigestBatchSink {
        let mut router = self.router();
        Box::new(move |reports| {
            for report in reports {
                router.route(report);
            }
        })
    }

    /// Joins the producer threads and returns how many digests they
    /// delivered. Call after every sink closure created from this driver
    /// has been dropped (e.g. after `Simulator::run` returned) — the
    /// workers run until those closures' queues close.
    pub fn finish(self) -> u64 {
        drop(self.txs);
        self.workers
            .into_iter()
            .map(|w| w.join().expect("sink producer panicked"))
            .sum()
    }
}

/// The routing state captured by a driver's sink closures: per-producer
/// chunk buffers, flushed on drop.
struct Router {
    bufs: Vec<Vec<DigestReport>>,
    txs: Vec<SyncSender<Vec<DigestReport>>>,
    rets: Vec<Arc<Mutex<Receiver<Vec<DigestReport>>>>>,
    chunk: usize,
}

impl Router {
    fn route(&mut self, report: DigestReport) {
        // Stable flow→producer routing keeps per-flow order intact.
        let p = shard_of(report.flow, self.txs.len());
        self.bufs[p].push(report);
        if self.bufs[p].len() >= self.chunk {
            self.ship(p);
        }
    }

    fn ship(&mut self, p: usize) {
        let next = self.recycled(p);
        let chunk = std::mem::replace(&mut self.bufs[p], next);
        // A gone worker means the driver is shutting down; the digests
        // of this chunk are accounted by the collector-side counters
        // when the worker's handle drops.
        let _ = self.txs[p].send(chunk);
    }

    /// A drained buffer returned by worker `p`, or a fresh allocation.
    /// `try_lock` never blocks the routing hot path: contention (a
    /// second router shipping to the same worker) just allocates.
    fn recycled(&self, p: usize) -> Vec<DigestReport> {
        if let Ok(ret) = self.rets[p].try_lock() {
            match ret.try_recv() {
                Ok(buf) => return buf,
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => {}
            }
        }
        Vec::with_capacity(self.chunk)
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        for p in 0..self.bufs.len() {
            if !self.bufs[p].is_empty() {
                self.ship(p);
            }
        }
    }
}

/// A switch-side [`TelemetryHook`] running PINT's dynamic-aggregation
/// Encoding Module on hop latency: each switch compresses its observed
/// hop latency and conditionally overwrites digest lane 0 under the
/// reservoir rule. The digest reaching the sink is exactly what a
/// latency-query [`DynamicRecorder`](pint_core::dynamic::DynamicRecorder)
/// decodes.
#[derive(Debug, Clone)]
pub struct LatencyTelemetry {
    agg: DynamicAggregator,
    /// Digest bytes on the wire (PINT's constant overhead).
    digest_bytes: u32,
}

impl LatencyTelemetry {
    /// Builds the hook from the query's aggregator; wire overhead is the
    /// aggregator's bit budget rounded up to whole bytes.
    pub fn new(agg: DynamicAggregator) -> Self {
        let digest_bytes = agg.bits().div_ceil(8);
        Self { agg, digest_bytes }
    }

    /// The aggregator (shared with recorders/decoders).
    pub fn aggregator(&self) -> &DynamicAggregator {
        &self.agg
    }
}

impl TelemetryHook for LatencyTelemetry {
    fn initial_bytes(&self) -> u32 {
        self.digest_bytes
    }

    fn on_dequeue(&mut self, view: &SwitchView, pkt: &mut Packet) {
        if pkt.digest.lanes() == 0 {
            pkt.digest = Digest::new(1);
        }
        self.agg.encode_hop(
            pkt.id,
            view.hop,
            view.hop_latency_ns.max(1) as f64,
            &mut pkt.digest,
            0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, CollectorConfig};
    use pint_core::dynamic::DynamicRecorder;
    use pint_core::FlowRecorder;
    use pint_netsim::sim::SimConfig;
    use pint_netsim::topology::Topology;
    use pint_netsim::transport::reno::Reno;
    use pint_netsim::NodeKind;
    use std::sync::Arc;

    fn pair_topology() -> Topology {
        let mut topo = Topology::new("pair");
        let h0 = topo.add_node(NodeKind::Host);
        let s = topo.add_node(NodeKind::Switch);
        let h1 = topo.add_node(NodeKind::Host);
        topo.add_duplex(h0, s, 10_000_000_000, 1_000);
        topo.add_duplex(s, h1, 10_000_000_000, 1_000);
        topo
    }

    fn exact_latency_collector(agg: &DynamicAggregator, shards: usize) -> Collector {
        let rec_agg = agg.clone();
        Collector::spawn(
            CollectorConfig {
                shards,
                batch_size: 32,
                ..CollectorConfig::default()
            },
            Arc::new(move |_flow, report: &DigestReport| {
                Box::new(DynamicRecorder::new_exact(
                    rec_agg.clone(),
                    usize::from(report.path_len).max(1),
                )) as Box<dyn FlowRecorder>
            }),
        )
    }

    #[test]
    fn simulator_digests_flow_into_collector_end_to_end() {
        // host0 — switch — host1; one 500 KB flow under PINT latency
        // telemetry; the sink forwards digests into a 2-shard collector.
        let topo = pair_topology();
        let agg = DynamicAggregator::new(77, 8, 100.0, 1.0e9);
        let collector = exact_latency_collector(&agg, 2);

        let mut sim = Simulator::new(
            topo,
            SimConfig::default(),
            Box::new(|meta| Box::new(Reno::new(meta))),
            Box::new(LatencyTelemetry::new(agg.clone())),
        );
        attach_collector(&mut sim, collector.register_producer());
        let hosts = sim.topology().hosts();
        sim.add_flow(hosts[0], hosts[1], 500_000, 0);
        // `run` consumes the simulator; the sink closure (and its
        // handle) is dropped on return, flushing the tail batch.
        let report = sim.run();
        assert_eq!(report.finished().count(), 1, "flow must complete");
        let snap = collector.snapshot().expect("snapshot");
        assert_eq!(snap.num_flows(), 1, "one flow tracked");
        let (_, summary) = snap.flows().next().unwrap();
        assert!(
            summary.packets >= 500,
            "digests recorded: {}",
            summary.packets
        );
        // Hop 1 has latency samples; the merged quantile decodes sanely.
        let q = snap.latency_quantile(1, 0.5, &agg);
        assert!(q.is_some(), "median hop latency available");
        assert!(q.unwrap() >= 1.0);
        let stats = collector.shutdown();
        assert!(stats.ingested >= 500);
        assert_eq!(stats.active_flows, 1);
    }

    #[test]
    fn parallel_driver_feeds_n_producers_without_loss() {
        // Several flows through the parallel driver: every extracted
        // digest must reach the collector exactly once, via 3 producer
        // threads.
        let topo = pair_topology();
        let agg = DynamicAggregator::new(78, 8, 100.0, 1.0e9);
        let collector = exact_latency_collector(&agg, 4);

        let mut sim = Simulator::new(
            topo,
            SimConfig::default(),
            Box::new(|meta| Box::new(Reno::new(meta))),
            Box::new(LatencyTelemetry::new(agg.clone())),
        );
        let driver = attach_collector_parallel(&mut sim, &collector, 3).unwrap();
        assert_eq!(driver.producers(), 3);
        let hosts = sim.topology().hosts();
        for i in 0..6 {
            sim.add_flow(hosts[0], hosts[1], 100_000, i * 1_000);
        }
        let report = sim.run();
        assert_eq!(report.finished().count(), 6, "all flows complete");
        let delivered = driver.finish();
        assert!(delivered >= 600, "delivered {delivered}");
        collector.barrier().expect("barrier");
        let stats = collector.stats();
        assert_eq!(stats.ingested, delivered, "no digest lost or duplicated");
        assert_eq!(stats.digests_dropped, 0);
        let snap = collector.snapshot().expect("snapshot");
        assert_eq!(snap.num_flows(), 6);
        assert_eq!(snap.total_packets(), delivered);
        collector.shutdown();
    }
}
