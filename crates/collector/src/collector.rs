//! The collector: worker lifecycle, producer registration, snapshots,
//! events, stats.

use crate::config::{CollectorConfig, FlowId, RecorderFactory, EVENT_CAPACITY, PARK_TIMEOUT};
use crate::error::CollectorError;
use crate::events::Event;
use crate::handle::{shard_of, CollectorHandle};
use crate::inference::{CollectorSnapshot, FlowSummary, ShardSnapshot};
use crate::prefilter::Bloom;
use crate::ring::{self, RingTuning, Waiter};
use crate::shard::{ShardLoad, ShardMsg, ShardQuery, ShardSelect, ShardStats, ShardWorker};
use pint_obs::{ClockHandle, Counter, Gauge, Histogram, MetricsRegistry};
use pint_query::{
    QueryBackend, QueryError, QueryPlan, QueryResult, Selector, TableTotals, Watermark,
};
use pint_store::{Journal, Replayer, StoreReader};
use pint_wire::store::{CoveredSource, StoreRecord};
use pint_wire::{WireError, WireReader, WireWriter};
use std::sync::atomic::AtomicU64;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Depth of each shard's control channel. Control traffic is low-rate
/// (registrations, snapshots, shutdown); the bound only matters as a
/// memory cap when a caller registers producers far faster than shards
/// can adopt them.
const CTRL_CAPACITY: usize = 64;

/// Leads every collector checkpoint payload: the recorder-image format,
/// version 1. A payload without it, such as a `Snapshot` frame of
/// summary rows, cannot rebuild recorders and is refused at restore.
const CHECKPOINT_MAGIC: [u8; 5] = *b"PCKP\x01";

/// Aggregated live counters across all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Digests applied.
    pub ingested: u64,
    /// Batches applied.
    pub batches: u64,
    /// Producer rings currently attached across shards.
    pub producers: u64,
    /// Currently tracked flows.
    pub active_flows: u64,
    /// Approximate recorder-state bytes held.
    pub state_bytes: u64,
    /// Flows evicted by the count/byte caps.
    pub evicted_lru: u64,
    /// Flows evicted by idle TTL.
    pub evicted_ttl: u64,
    /// Events fired.
    pub events: u64,
    /// Events discarded because the bounded event queue was full.
    pub events_dropped: u64,
    /// Digests lost by handles: a batch could not be delivered because
    /// the collector had shut down (counts every digest of the lost
    /// batch — nothing disappears silently).
    pub digests_dropped: u64,
    /// Times a producer parked on a full ring (backpressure pressure
    /// gauge: rising fast means shards cannot keep up).
    pub producer_parks: u64,
    /// Digests dropped by the ingest-side watch-list pre-filter before
    /// buffering (zero when `prefilter` is unset).
    pub digests_prefiltered: u64,
}

/// Everything a [`CollectorHandle`] needs to mint sibling producers:
/// per-shard control senders and waiters, ring sizing, and the shared
/// loss/backpressure counters. Owned by the [`Collector`] and by every
/// handle (so `CollectorHandle::clone` can register a fresh producer
/// even after the collector value itself moved).
pub(crate) struct ProducerRegistry {
    ctrl: Vec<SyncSender<ShardMsg>>,
    waiters: Vec<Arc<Waiter>>,
    batch_size: usize,
    ring_capacity: usize,
    tuning: RingTuning,
    /// Digests lost in undeliverable batches (see `CollectorStats`);
    /// exposed as `collector_digests_dropped_total`.
    pub(crate) dropped: Counter,
    /// Producer park count across all rings ever registered; the ring
    /// layer owns the cell, the registry exposes it as
    /// `collector_producer_parks_total`.
    pub(crate) parks: Arc<AtomicU64>,
    /// Batch enqueue latency (`collector_stage_enqueue_ns`): one sample
    /// per shipped batch, recorded producer-side.
    pub(crate) enqueue: Histogram,
    /// Clock the enqueue timing reads (the registry's clock).
    pub(crate) clock: ClockHandle,
    /// Watch-list bloom filter shared by every producer handle; `None`
    /// ingests all flows.
    pub(crate) prefilter: Option<Arc<Bloom>>,
    /// Digests dropped by the pre-filter
    /// (`collector_digests_prefiltered_total`).
    pub(crate) prefiltered: Counter,
    /// Ship-path batch buffers allocated fresh because the recycle lane
    /// was empty (`collector_batch_allocs_total`); flat after warmup in
    /// steady state.
    pub(crate) batch_allocs: Counter,
    /// Ship-path batch buffers reused from the recycle lane
    /// (`collector_batches_recycled_total`).
    pub(crate) recycled: Counter,
    /// Live producer backoff policy (`collector_producer_adaptive_spin`
    /// / `_park_us`). Producers publish after each ship; with several
    /// producers the gauges show the most recent shipper (last writer
    /// wins) — a sample of the fleet, not an aggregate.
    pub(crate) producer_spin: Gauge,
    pub(crate) producer_park_us: Gauge,
}

impl ProducerRegistry {
    /// Creates rings to every shard and announces them; the returned
    /// handle is the producer's exclusive front-end.
    ///
    /// If a shard cannot adopt the ring (worker already exited), the
    /// consumer endpoint drops here and the handle's pushes to that
    /// shard fail with [`CollectorError::Disconnected`] — same contract
    /// as any other post-shutdown push.
    pub(crate) fn register(self: &Arc<Self>) -> CollectorHandle {
        let mut producers = Vec::with_capacity(self.ctrl.len());
        for (shard, ctrl) in self.ctrl.iter().enumerate() {
            let (tx, mut rx) = ring::ring(
                self.ring_capacity,
                self.tuning,
                Arc::clone(&self.waiters[shard]),
                Arc::clone(&self.parks),
            );
            // Seed the recycle lane before the consumer endpoint leaves
            // this thread: with the handle's initial buffer that makes
            // *two* buffers per lane from the first ship, so a re-arm
            // finds the lane non-empty even when the shard has not yet
            // drained the batch just pushed — steady-state recycling
            // must not depend on the drain winning that race.
            rx.recycle(Vec::with_capacity(self.batch_size));
            if ctrl.send(ShardMsg::Attach(rx)).is_ok() {
                self.waiters[shard].wake();
            }
            producers.push(tx);
        }
        CollectorHandle::new(producers, self.batch_size, Arc::clone(self))
    }
}

/// A sharded, multi-threaded telemetry collector.
///
/// Spawn with a [`CollectorConfig`] and a [`RecorderFactory`]; register
/// producers with [`register_producer`](Self::register_producer) — each
/// gets its own lock-free ring per shard — and feed them
/// [`DigestReport`](pint_core::DigestReport)s; read via typed
/// [`query`](Self::query) plans (selectors × projections, routed only
/// to the shards that can answer) or a full merged
/// [`snapshot`](Self::snapshot); subscribe to rule-driven [`Event`]s;
/// and [`shutdown`](Self::shutdown) to join the workers.
pub struct Collector {
    ctrl: Vec<SyncSender<ShardMsg>>,
    waiters: Vec<Arc<Waiter>>,
    workers: Vec<JoinHandle<()>>,
    events_rx: Mutex<Receiver<Event>>,
    stats: Vec<Arc<ShardStats>>,
    registry: Arc<ProducerRegistry>,
    metrics: MetricsRegistry,
    /// Per-shard `collector_newest_ts` gauges (shared cells with the
    /// shard workers) — read by [`watermark`](Self::watermark).
    newest_ts: Vec<pint_obs::Gauge>,
    /// The durability journal, once
    /// [`attach_store`](Self::attach_store) installs one.
    journal: Mutex<Option<Journal>>,
}

/// What [`Collector::restore`] rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreReport {
    /// The newest consistent epoch the log reached (the restore
    /// target), `None` for an empty log.
    pub epoch: Option<u64>,
    /// Delta batches replayed into the collector.
    pub batches: u64,
    /// Digest reports inside them.
    pub digests: u64,
    /// Persisted duplicates (or checkpoint-covered deltas) skipped.
    pub duplicates: u64,
}

impl Collector {
    /// Spawns `config.shards` worker threads and returns the running
    /// collector.
    pub fn spawn(config: CollectorConfig, factory: RecorderFactory) -> Self {
        config.validate();
        let metrics = config.metrics.clone().unwrap_or_default();
        // Bounded: a consumer that never drains costs dropped events
        // (counted), not unbounded memory.
        let (events_tx, events_rx) = sync_channel(EVENT_CAPACITY);
        let mut ctrl = Vec::with_capacity(config.shards);
        let mut waiters = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        let mut stats = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (tx, rx) = sync_channel(CTRL_CAPACITY);
            let waiter = Arc::new(Waiter::new());
            let shard_stats = Arc::new(ShardStats::register(&metrics, shard as u32));
            let worker = ShardWorker::new(
                shard,
                &config,
                Arc::clone(&factory),
                events_tx.clone(),
                Arc::clone(&shard_stats),
                Arc::clone(&waiter),
                &metrics,
            );
            let join = std::thread::Builder::new()
                .name(format!("pint-collector-{shard}"))
                .spawn(move || worker.run(rx))
                .expect("spawn shard worker");
            ctrl.push(tx);
            waiters.push(waiter);
            workers.push(join);
            stats.push(shard_stats);
        }
        let registry = Arc::new(ProducerRegistry {
            ctrl: ctrl.clone(),
            waiters: waiters.clone(),
            batch_size: config.batch_size,
            ring_capacity: config.ring_capacity,
            tuning: RingTuning {
                spin_limit: config.spin_limit,
                park_timeout: PARK_TIMEOUT,
            },
            dropped: metrics.counter("collector_digests_dropped_total"),
            parks: {
                let cell = Arc::new(AtomicU64::new(0));
                metrics.counter_cell("collector_producer_parks_total", Arc::clone(&cell));
                cell
            },
            enqueue: metrics.histogram("collector_stage_enqueue_ns"),
            clock: metrics.clock(),
            prefilter: config.prefilter.as_ref().map(|p| Arc::new(Bloom::build(p))),
            prefiltered: metrics.counter("collector_digests_prefiltered_total"),
            batch_allocs: metrics.counter("collector_batch_allocs_total"),
            recycled: metrics.counter("collector_batches_recycled_total"),
            producer_spin: metrics.gauge("collector_producer_adaptive_spin"),
            producer_park_us: metrics.gauge("collector_producer_adaptive_park_us"),
        });
        let newest_ts = (0..config.shards)
            .map(|shard| metrics.gauge_shard("collector_newest_ts", shard as u32))
            .collect();
        Self {
            ctrl,
            waiters,
            workers,
            events_rx: Mutex::new(events_rx),
            stats,
            registry,
            metrics,
            newest_ts,
            journal: Mutex::new(None),
        }
    }

    /// Attaches a durability journal: from now on every applied batch
    /// is teed — off the shard hot path, never blocking; a full queue
    /// drops and counts into `store_journal_dropped_total` — into the
    /// journal's store file, and [`checkpoint`](Self::checkpoint)
    /// writes full-state snapshots into the same log. Each shard
    /// numbers its journaled deltas above what the log already holds
    /// for it, so re-attaching after a restore appends a new
    /// generation instead of colliding with the old one in replay's
    /// dedup window.
    pub fn attach_store(&self, journal: Journal) {
        for (shard, tx) in self.ctrl.iter().enumerate() {
            let msg = ShardMsg::AttachJournal {
                sender: journal.sender(),
                start_seq: journal.delta_floor(shard as u64),
            };
            if tx.send(msg).is_ok() {
                self.waiters[shard].wake();
            }
        }
        *self.journal.lock().expect("journal slot") = Some(journal);
    }

    /// Journals a full-state checkpoint stamped `epoch` (monotonically
    /// increasing, caller-driven — every N seconds or every N applied
    /// batches, whatever cadence fits). Each shard encodes its own
    /// section on its own thread — table stats, ingested count and one
    /// `(flow, last_ts, recorder image)` entry per flow in LRU order —
    /// and reports the seq of its last teed delta *in the same reply*.
    /// That explicit list rides the checkpoint as its `covered`
    /// coverage, so the checkpoint claims exactly the deltas whose data
    /// it holds: deltas shards apply after answering stay uncovered
    /// even when the journal writes them first; compaction keeps them
    /// and restore replays them. `Ok(false)`, without asking the shards
    /// for anything, when no store is attached.
    pub fn checkpoint(&self, epoch: u64) -> Result<bool, CollectorError> {
        let guard = self.journal.lock().expect("journal slot");
        let Some(journal) = guard.as_ref() else {
            return Ok(false);
        };
        let sections = self.fanout(ShardMsg::Checkpoint)?;
        let covered = (0u64..)
            .zip(&sections)
            .filter(|&(_, &(_, seq))| seq > 0)
            .map(|(shard, &(_, seq))| CoveredSource::floor_only(shard, seq))
            .collect();
        let mut payload = CHECKPOINT_MAGIC.to_vec();
        WireWriter::new(&mut payload).put_varint(sections.len() as u64);
        for (section, _) in sections {
            payload.extend_from_slice(&section);
        }
        Ok(journal.checkpoint(0, epoch, payload, covered))
    }

    /// Blocks until every journaled record enqueued so far is written
    /// and synced to the store file. No-op without an attached store.
    pub fn flush_store(&self) {
        if let Some(journal) = self.journal.lock().expect("journal slot").as_ref() {
            journal.flush();
        }
    }

    /// Rebuilds a collector from a persisted store log, up to the
    /// newest consistent epoch the log holds.
    ///
    /// If the log has a checkpoint, the newest one loads first: this
    /// thread only routes its entries to their shards (by flow ID, so
    /// the shard count may differ from the checkpointed collector's),
    /// and each shard decodes its entries and loads them into fresh
    /// factory recorders on its own thread. The replay windows are then
    /// primed with the checkpoint's exact `covered` coverage, and every
    /// delta it does not cover replays — in journal order, deduplicated
    /// by the same `SourceDedup` window live receivers run — through an
    /// ordinary producer handle, so per-shard apply order matches
    /// journal order. Without a checkpoint every delta replays.
    ///
    /// The result is an ordinary collector: it answers every query plan
    /// byte-identically to a collector that never restarted, whether
    /// the log is compacted or not (pinned by `tests/persistence.rs`),
    /// and honours its own caps. Delivered batches count into
    /// `store_restore_replayed_total` in the collector's registry.
    /// Restore does not itself attach a journal — call
    /// [`attach_store`](Self::attach_store) afterwards (typically on the
    /// same file, reopened) to resume journaling.
    pub fn restore(
        config: CollectorConfig,
        factory: RecorderFactory,
        reader: &StoreReader,
    ) -> Result<(Self, RestoreReport), CollectorError> {
        let collector = Self::spawn(config, factory);
        let mut replayer = Replayer::new(reader).observed(&collector.metrics);
        if let Some(i) = reader.newest_checkpoint() {
            let StoreRecord::Checkpoint(c) = &reader.records()[i] else {
                unreachable!("newest_checkpoint indexes a checkpoint record");
            };
            collector.load_checkpoint(&c.payload)?;
            replayer = replayer.primed(&c.covered);
        }
        let mut handle = collector.register_producer();
        let mut push_err = None;
        let stats = replayer.replay(&mut |_, reports| {
            for r in reports {
                if let Err(e) = handle.push(r) {
                    push_err.get_or_insert(e);
                }
            }
        });
        if let Some(e) = push_err {
            return Err(e);
        }
        handle.flush()?;
        collector.barrier()?;
        let report = RestoreReport {
            epoch: reader.newest_epoch(),
            batches: stats.batches,
            digests: stats.digests,
            duplicates: stats.duplicates,
        };
        Ok((collector, report))
    }

    /// Splits a checkpoint payload by shard — reading each entry's
    /// length and flow ID, nothing more — and has every shard load its
    /// slice. Section totals go to shard `section % shards`, so sums and
    /// the newest timestamp survive a change of shard count.
    fn load_checkpoint(&self, payload: &[u8]) -> Result<(), CollectorError> {
        let Some(body) = payload.strip_prefix(&CHECKPOINT_MAGIC) else {
            let reason = "checkpoint is not in the recorder-image format";
            return Err(CollectorError::RestoreFailed { reason });
        };
        let shards = self.shards();
        let mut loads: Vec<ShardLoad> = (0..shards).map(|_| ShardLoad::default()).collect();
        let mut r = WireReader::new(body);
        let mut split = || -> Result<(), WireError> {
            for section in 0..r.get_count(6)? {
                let load = &mut loads[section % shards];
                let [created, lru, ttl, ingested, newest] = [(); 5].map(|_| r.get_varint());
                load.stats.created = load.stats.created.saturating_add(created?);
                load.stats.evicted_lru = load.stats.evicted_lru.saturating_add(lru?);
                load.stats.evicted_ttl = load.stats.evicted_ttl.saturating_add(ttl?);
                load.ingested = load.ingested.saturating_add(ingested?);
                load.newest_ts = load.newest_ts.max(newest?);
                for _ in 0..r.get_count(10)? {
                    let start = body.len() - r.remaining();
                    let len = r.get_count(1)?;
                    let flow = WireReader::new(r.get_bytes(len)?).get_u64()?;
                    let entry = &body[start..body.len() - r.remaining()];
                    loads[shard_of(flow, shards)]
                        .entries
                        .extend_from_slice(entry);
                }
            }
            r.expect_end()
        };
        split().map_err(|_| CollectorError::RestoreFailed {
            reason: "checkpoint sections failed to decode",
        })?;
        // `fanout` asks the shards in order, so each takes its own load.
        let mut loads = loads.into_iter();
        let replies = self.fanout(|reply| ShardMsg::Load(loads.next().unwrap_or_default(), reply));
        replies?.into_iter().collect()
    }

    /// The collector's freshness stamp: the newest report timestamp any
    /// shard has applied (a collector applies everything it is fed, so
    /// `newest_seen == newest_applied`), with one source per shard.
    /// Relaxed reads — exact after a [`barrier`](Self::barrier).
    pub fn watermark(&self) -> Watermark {
        let newest = self.newest_ts.iter().map(|g| g.get()).max().unwrap_or(0);
        Watermark {
            newest_applied: newest,
            newest_seen: newest,
            sources: self.newest_ts.len() as u64,
        }
    }

    /// The registry this collector publishes its self-telemetry into —
    /// the one from [`CollectorConfig::metrics`], or a private default.
    /// Snapshot it locally, render it as text, or serve it over the
    /// `Metrics` wire frame by sharing it with a fleet tier.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.ctrl.len()
    }

    /// Registers a new producer: a [`CollectorHandle`] owning one
    /// lock-free SPSC ring to every shard. One per producing thread;
    /// per-flow ordering is preserved within each producer.
    pub fn register_producer(&self) -> CollectorHandle {
        self.registry.register()
    }

    /// Requests a snapshot from every shard and merges the results.
    ///
    /// Each shard drains every producer ring before answering, so the
    /// snapshot covers all batches shipped (flushed) before this call.
    /// Digests still sitting in un-flushed handle buffers are not
    /// included — flush the handles first for a precise cut.
    ///
    /// For targeted reads (a flow set, top-K, delta polls), prefer
    /// [`query`](Self::query): it serializes only the selected flows.
    pub fn snapshot(&self) -> Result<CollectorSnapshot, CollectorError> {
        self.gather(&Selector::All, None)
            .map(CollectorSnapshot::from_shards)
    }

    /// Executes a compiled [`QueryPlan`] against live shard state — the
    /// collector's tier of the workspace-wide query API (the same plan
    /// runs unchanged on a fleet view or over TCP, with identical
    /// results on identical state).
    ///
    /// Routing is selector-aware: a flow-set or watch-list plan
    /// consults only the shards owning those flows, and every selector
    /// narrows *before* summaries are serialized, so a targeted query
    /// on a large table costs a small fraction of a full
    /// [`snapshot`](Self::snapshot) (priced in `BENCH_query.json`).
    /// Like snapshots, each consulted shard drains its rings first, so
    /// the answer covers everything flushed before the call.
    ///
    /// ```
    /// use pint_collector::{Collector, CollectorConfig};
    /// use pint_core::dynamic::{DynamicAggregator, DynamicRecorder};
    /// use pint_core::{Digest, DigestReport, FlowRecorder};
    /// use pint_query::{QueryResult, TelemetryQuery};
    /// use std::sync::Arc;
    ///
    /// let agg = DynamicAggregator::new(1, 8, 100.0, 1.0e7);
    /// let factory_agg = agg.clone();
    /// let collector = Collector::spawn(
    ///     CollectorConfig::with_shards(2),
    ///     Arc::new(move |_flow, report: &DigestReport| {
    ///         Box::new(DynamicRecorder::new_sketched(
    ///             factory_agg.clone(),
    ///             usize::from(report.path_len).max(1),
    ///             64,
    ///         )) as Box<dyn FlowRecorder>
    ///     }),
    /// );
    /// let mut handle = collector.register_producer();
    /// // Flow f records f + 1 packets, so flows 8 and 9 are heaviest.
    /// for flow in 0..10u64 {
    ///     for pid in 0..=flow {
    ///         let mut d = Digest::new(1);
    ///         agg.encode_hop(flow * 100 + pid, 1, 1_000.0, &mut d, 0);
    ///         handle
    ///             .push(DigestReport::new(flow, flow * 100 + pid, d, 1, 0))
    ///             .unwrap();
    ///     }
    /// }
    /// handle.flush().unwrap();
    ///
    /// // Top-2 by packets: heaviest first, only two flows serialized.
    /// let top = collector
    ///     .query(&TelemetryQuery::new().top_k(2).plan().unwrap())
    ///     .unwrap();
    /// match top {
    ///     QueryResult::Summaries(rows) => {
    ///         let ids: Vec<u64> = rows.iter().map(|&(f, _)| f).collect();
    ///         assert_eq!(ids, vec![9, 8], "heaviest first");
    ///     }
    ///     other => panic!("unexpected {other:?}"),
    /// }
    ///
    /// // A watch list keeps request order; unknown flow 999 is absent.
    /// let watch = collector
    ///     .query(&TelemetryQuery::new().watch([7, 999, 3]).plan().unwrap())
    ///     .unwrap();
    /// match watch {
    ///     QueryResult::Summaries(rows) => {
    ///         let ids: Vec<u64> = rows.iter().map(|&(f, _)| f).collect();
    ///         assert_eq!(ids, vec![7, 3], "request order, unknown absent");
    ///     }
    ///     other => panic!("unexpected {other:?}"),
    /// }
    /// collector.shutdown();
    /// ```
    pub fn query(&self, plan: &QueryPlan) -> Result<QueryResult, QueryError> {
        plan.validate()?;
        let shards = self.gather(&plan.selector, plan.options.updated_since)?;
        // Table totals are whole-collector counters; only a full-table
        // selector consults every shard, so only it reports them.
        let table = matches!(plan.selector, Selector::All).then(|| {
            let mut t = TableTotals::default();
            for s in &shards {
                t.created += s.table_stats.created;
                t.evicted_lru += s.table_stats.evicted_lru;
                t.evicted_ttl += s.table_stats.evicted_ttl;
                t.ingested += s.ingested;
            }
            t
        });
        let mut rows: Vec<(FlowId, FlowSummary)> =
            shards.into_iter().flat_map(|s| s.flows).collect();
        rows.sort_by_key(|&(f, _)| f);
        // Shards only pre-narrowed; the shared refinement owns final
        // ordering and tie-breaking, identically on every backend.
        let rows = pint_query::refine(rows, plan);
        Ok(pint_query::project(rows, &plan.projection, table))
    }

    /// Routes one selector to the shards that can answer it and
    /// collects their replies: flow sets and watch lists go only to
    /// the owning shards (with each shard's slice of the IDs); other
    /// selectors fan out, already narrowed shard-side (per-shard
    /// top-K, path predicate, delta cutoff). This is the routing layer
    /// under both [`query`](Self::query) and the legacy snapshot
    /// methods.
    fn gather(
        &self,
        selector: &Selector,
        since: Option<u64>,
    ) -> Result<Vec<ShardSnapshot>, CollectorError> {
        let select_all = |select: ShardSelect| ShardQuery { select, since };
        match selector {
            Selector::All => self.fanout(|r| ShardMsg::Query(select_all(ShardSelect::All), r)),
            Selector::TopK(k) => {
                self.fanout(|r| ShardMsg::Query(select_all(ShardSelect::TopK(*k)), r))
            }
            Selector::PathThroughSwitch(s) => {
                self.fanout(|r| ShardMsg::Query(select_all(ShardSelect::PathThrough(*s)), r))
            }
            // Kind membership is per-flow state every shard holds; fan
            // out unfiltered and let the shared refinement drop
            // non-matching rows (no serialization happens in-process,
            // so there is nothing to narrow ahead of).
            Selector::OfKind(_) => {
                self.fanout(|r| ShardMsg::Query(select_all(ShardSelect::All), r))
            }
            Selector::FlowSet(ids) | Selector::WatchList(ids) => {
                let shards = self.shards();
                let mut sorted = ids.clone();
                sorted.sort_unstable();
                sorted.dedup();
                let mut per_shard: Vec<Vec<FlowId>> = vec![Vec::new(); shards];
                for flow in sorted {
                    per_shard[shard_of(flow, shards)].push(flow);
                }
                let mut pending = Vec::new();
                for (shard, wanted) in per_shard.into_iter().enumerate() {
                    if wanted.is_empty() {
                        continue;
                    }
                    let (reply_tx, reply_rx) = channel();
                    self.ctrl[shard]
                        .send(ShardMsg::Query(
                            ShardQuery {
                                select: ShardSelect::Flows(wanted),
                                since,
                            },
                            reply_tx,
                        ))
                        .map_err(|_| CollectorError::Disconnected)?;
                    self.waiters[shard].wake();
                    pending.push((shard, reply_rx));
                }
                Self::collect(pending)
            }
        }
    }

    /// Collects one reply per pending shard request (in request order).
    fn collect<T>(pending: Vec<(usize, Receiver<T>)>) -> Result<Vec<T>, CollectorError> {
        let mut out = Vec::with_capacity(pending.len());
        for (shard, rx) in pending {
            out.push(
                rx.recv()
                    .map_err(|_| CollectorError::SnapshotFailed { shard })?,
            );
        }
        Ok(out)
    }

    /// Takes a full [`snapshot`](Self::snapshot) and encodes it as a
    /// ready-to-send wire frame (header included) keyed by this
    /// collector's identity and an `epoch` sequence number — the unit a
    /// fleet aggregator (`pint-fleet`) ingests. Epochs must increase
    /// monotonically per collector; the aggregator discards frames whose
    /// epoch is older than what it already holds for `collector_id`.
    pub fn export_snapshot_frame(
        &self,
        collector_id: u64,
        epoch: u64,
    ) -> Result<Vec<u8>, CollectorError> {
        let snapshot = self.snapshot()?;
        Ok(crate::wire::SnapshotFrame {
            collector_id,
            epoch,
            snapshot,
        }
        .to_frame_bytes())
    }

    /// Blocks until every batch shipped to the shard rings before this
    /// call has been applied — a cheap sync point (no state is
    /// serialized, unlike [`snapshot`](Self::snapshot)). Digests still
    /// in un-flushed handle buffers are not covered; flush the handles
    /// first.
    pub fn barrier(&self) -> Result<(), CollectorError> {
        self.fanout(ShardMsg::Barrier).map(|_| ())
    }

    /// Sends a request carrying a reply channel to every shard (in shard
    /// order), then collects one reply per shard.
    fn fanout<T>(
        &self,
        mut make_msg: impl FnMut(Sender<T>) -> ShardMsg,
    ) -> Result<Vec<T>, CollectorError> {
        let mut pending = Vec::with_capacity(self.ctrl.len());
        for (shard, tx) in self.ctrl.iter().enumerate() {
            let (reply_tx, reply_rx) = channel();
            tx.send(make_msg(reply_tx))
                .map_err(|_| CollectorError::Disconnected)?;
            self.waiters[shard].wake();
            pending.push((shard, reply_rx));
        }
        Self::collect(pending)
    }

    /// Drains all events fired since the last drain.
    pub fn drain_events(&self) -> Vec<Event> {
        self.events_rx
            .lock()
            .expect("event receiver poisoned")
            .try_iter()
            .collect()
    }

    /// Aggregated live counters (relaxed reads; exact after `shutdown`
    /// or a snapshot barrier).
    pub fn stats(&self) -> CollectorStats {
        let mut out = CollectorStats::default();
        for s in &self.stats {
            out.ingested += s.ingested.get();
            out.batches += s.batches.get();
            out.producers += s.producers.get();
            out.active_flows += s.active_flows.get();
            out.state_bytes += s.state_bytes.get();
            out.evicted_lru += s.evicted_lru.get();
            out.evicted_ttl += s.evicted_ttl.get();
            out.events += s.events.get();
            out.events_dropped += s.events_dropped.get();
        }
        out.digests_dropped = self.registry.dropped.get();
        out.producer_parks = self
            .registry
            .parks
            .load(std::sync::atomic::Ordering::Relaxed);
        out.digests_prefiltered = self.registry.prefiltered.get();
        out
    }

    /// Stops the workers (after they drain already-queued batches) and
    /// returns the final counters. Outstanding handles error on further
    /// pushes.
    pub fn shutdown(mut self) -> CollectorStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        for (shard, tx) in self.ctrl.iter().enumerate() {
            let _ = tx.send(ShardMsg::Shutdown);
            self.waiters[shard].wake();
        }
        self.ctrl.clear();
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
    }
}

impl Drop for Collector {
    /// Dropping without [`shutdown`](Collector::shutdown) still stops
    /// and joins the workers — outstanding handles cannot keep orphaned
    /// shard threads alive (their next push fails `Disconnected` once
    /// the workers exit).
    fn drop(&mut self) {
        self.stop();
    }
}

impl QueryBackend for Collector {
    /// The local backend of the unified query API — also what a
    /// [`QueryResponder`](pint_query::QueryResponder) serves over TCP
    /// (`QueryResponder::bind(addr, Arc::new(collector))`).
    fn query(&self, plan: &QueryPlan) -> Result<QueryResult, QueryError> {
        Collector::query(self, plan)
    }

    fn watermark(&self) -> Option<Watermark> {
        Some(Collector::watermark(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_core::dynamic::{DynamicAggregator, DynamicRecorder};
    use pint_core::FlowRecorder;

    #[test]
    fn checkpoint_without_a_store_asks_no_shard() {
        let agg = DynamicAggregator::new(3, 8, 100.0, 1.0e7);
        let collector = Collector::spawn(
            CollectorConfig::with_shards(2),
            Arc::new(move |_, _: &pint_core::DigestReport| {
                Box::new(DynamicRecorder::new_sketched(agg.clone(), 2, 64)) as Box<dyn FlowRecorder>
            }),
        );
        // Stop the workers behind the collector's back: from here on
        // any shard request fails, so a store-less checkpoint must
        // answer before sending one.
        for (tx, waiter) in collector.ctrl.iter().zip(&collector.waiters) {
            tx.send(ShardMsg::Shutdown).unwrap();
            waiter.wake();
        }
        while !collector.workers.iter().all(JoinHandle::is_finished) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(collector.barrier(), Err(CollectorError::Disconnected));
        assert_eq!(collector.checkpoint(1), Ok(false));
    }
}
