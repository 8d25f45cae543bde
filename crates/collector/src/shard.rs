//! Shard worker: the thread that owns one slice of flow state.
//!
//! A worker multiplexes two inputs: a low-rate *control* channel
//! (producer attachment, snapshot/barrier requests, shutdown) and one
//! SPSC *data ring* per registered producer. The run loop polls control
//! first, then drains a bounded run of batches from each ring per pass —
//! round-robin with a per-ring quota, so no producer can starve the
//! others while consecutive batches from one producer still hit warm
//! flow state — and parks when everything is momentarily idle. Because
//! flows are hash-partitioned, a worker never
//! shares recorder state with another thread: the ingest hot path takes
//! no locks, and the only synchronization is the ring hand-off itself.

use crate::config::{CollectorConfig, FlowId, RecorderFactory, EVENT_CAPACITY};
use crate::error::CollectorError;
use crate::events::{Event, EventKind, EventRule};
use crate::flow_table::{FlowEntry, FlowTable, TableStats};
use crate::inference::{FlowSummary, ShardSnapshot};
use crate::ring::{BackoffController, RingConsumer, Waiter};
use pint_core::{Digest, DigestReport, RecorderImage};
use pint_obs::{
    ClockHandle, Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, TraceStage,
};
use pint_query::{Selector, SummaryRow};
use pint_sketches::KllSketch;
use pint_store::JournalSender;
use pint_wire::{DigestBatch, WireDecode, WireEncode, WireError, WireReader, WireWriter};
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};

/// Per-operation stage timing (flow-table touch, KLL update) samples one
/// digest in this many: individual `Clock` reads around every digest
/// would dominate the ~100 ns ingest path, while a deterministic 1-in-64
/// sample keeps overhead well under the 5% budget and still populates
/// the histograms at any realistic rate.
const STAGE_SAMPLE: u64 = 64;

/// Messages a shard worker consumes on its control channel. Data batches
/// arrive on the per-producer rings, never here.
pub(crate) enum ShardMsg {
    /// A new producer registered; adopt its ring.
    Attach(RingConsumer),
    /// Read request: once every batch published before this message was
    /// received has been applied, the worker resolves the selection
    /// against its slice of flow state and answers on the provided
    /// channel. Every read — full snapshots, watch lists, top-K, path
    /// predicates, delta polls — is this one message: the shard tier of
    /// a compiled [`QueryPlan`](pint_query::QueryPlan).
    Query(ShardQuery, Sender<ShardSnapshot>),
    /// Sync point, answered like `Query` with everything selected: the
    /// worker encodes its flows' snapshot rows itself (see
    /// [`ShardWorker::export`]), so a fleet export clones no recorder
    /// state.
    Export(Sender<ShardExport>),
    /// Sync point: the worker acknowledges once every batch enqueued
    /// before this message was sent has been applied.
    Barrier(Sender<()>),
    /// Sync point: the worker answers with its checkpoint section (see
    /// [`ShardWorker::section`]) and the seq of the last delta it teed.
    /// Both come from one reply, so the checkpoint covers exactly the
    /// deltas whose data the section holds.
    Checkpoint(Sender<(Vec<u8>, u64)>),
    /// Restore: load a checkpoint's entries for this shard (sent to a
    /// fresh collector before any producer attaches).
    Load(ShardLoad, Sender<Result<(), CollectorError>>),
    /// Start teeing applied batches into a durability journal. The
    /// worker numbers its journaled deltas from `start_seq + 1` —
    /// above whatever the journal's file already holds for this shard,
    /// so generations never collide in replay's dedup window.
    AttachJournal {
        /// The journal's non-blocking hot-path handle.
        sender: JournalSender,
        /// Highest delta seq already persisted for this shard.
        start_seq: u64,
    },
    /// Drain all rings and exit.
    Shutdown,
}

/// A producer ring with the identity the sync machinery keys on.
struct AttachedRing {
    ring: RingConsumer,
    /// Stable within one worker; dense indices would be reused after a
    /// detach and alias stale sync targets.
    id: u64,
}

/// What a satisfied sync point answers with.
enum SyncKind {
    Query(ShardQuery, Sender<ShardSnapshot>),
    Export(Sender<ShardExport>),
    Barrier(Sender<()>),
    Checkpoint(Sender<(Vec<u8>, u64)>),
}

/// The part of a checkpoint one shard loads on restore: the section
/// totals routed to it and its flows' entries, oldest first.
#[derive(Default)]
pub(crate) struct ShardLoad {
    pub(crate) stats: TableStats,
    pub(crate) ingested: u64,
    pub(crate) newest_ts: u64,
    /// Length-prefixed entries, as in the section.
    pub(crate) entries: Vec<u8>,
}

/// One shard's slice of a snapshot frame, already encoded: what
/// [`Collector::export_snapshot_frame`](crate::Collector::export_snapshot_frame)
/// splices into one payload.
pub(crate) struct ShardExport {
    pub(crate) table_stats: TableStats,
    pub(crate) ingested: u64,
    /// `varint(flow)` and the flow's summary row, per flow, ascending
    /// by flow ID.
    pub(crate) rows: Vec<u8>,
    /// `(flow, start, end)`: where each flow's bytes sit in `rows`.
    pub(crate) index: Vec<(FlowId, usize, usize)>,
}

/// One in-flight `Query`/`Barrier`: per-ring epoch targets captured at
/// receipt. The request is answerable once every named ring has
/// *consumed* up to its target (or detached, which implies it drained).
///
/// This replaces stop-the-world draining: instead of pulling every
/// queued batch before answering — a global quiesce that let one
/// line-rate producer stall a snapshot — the worker keeps its normal
/// fair round-robin and answers as soon as the epochs pass. Batches
/// published *after* the request arrived are never waited on.
struct PendingSync {
    /// `(ring id, published epoch at receipt)`.
    targets: Vec<(u64, u64)>,
    kind: SyncKind,
}

/// The shard-level slice of a query plan: which of this shard's flows
/// to summarize. The collector pre-routes (a flow set or watch list
/// reaches each owning shard as a [`Selector::FlowSet`] of its slice)
/// and post-refines (per-shard top-K lists are trimmed globally); the
/// shard only narrows what it summarizes.
pub(crate) struct ShardQuery {
    /// Which flows to summarize.
    pub(crate) select: Selector,
    /// Delta reads: skip flows whose `last_ts` is not strictly greater
    /// (cold flows cost nothing — they are never summarized).
    pub(crate) since: Option<u64>,
    /// Whether the plan's projection reads hop sketches. When it does
    /// not, summaries leave `hop_sketches` empty and no block is
    /// published.
    pub(crate) sketches: bool,
}

/// Live counters one shard publishes (read from any thread).
///
/// A view over the collector's [`MetricsRegistry`]: every field is a
/// cached handle to a registry cell labelled with the shard index, so
/// the same numbers are visible locally, in text exposition, and over
/// the `Metrics` wire frame. See the README's "Observability" section
/// for the metric catalogue.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Digests applied (`collector_ingested_total`).
    pub ingested: Counter,
    /// Batches applied (`collector_batches_total`).
    pub batches: Counter,
    /// Currently attached producer rings (`collector_producers`).
    pub producers: Gauge,
    /// Currently tracked flows (`collector_active_flows`).
    pub active_flows: Gauge,
    /// Approximate recorder-state bytes held (`collector_state_bytes`).
    pub state_bytes: Gauge,
    /// Flows evicted by the count/byte caps (`collector_evicted_lru`).
    pub evicted_lru: Gauge,
    /// Flows evicted by idle TTL (`collector_evicted_ttl`).
    pub evicted_ttl: Gauge,
    /// Events fired and delivered (`collector_events_total`).
    pub events: Counter,
    /// Events fired but discarded — the bounded event channel was full
    /// (consumer stopped draining) or the consumer was gone
    /// (`collector_events_dropped_total`).
    pub events_dropped: Counter,
    /// Allocator-measured recorder-state bytes
    /// (`collector_state_bytes_measured`) — the ground truth the
    /// `state_bytes` estimate is validated against. Only maintained
    /// with the `measure-alloc` feature.
    #[cfg(feature = "measure-alloc")]
    pub state_bytes_measured: Gauge,
}

impl ShardStats {
    pub(crate) fn register(registry: &MetricsRegistry, shard: u32) -> Self {
        Self {
            ingested: registry.counter_shard("collector_ingested_total", shard),
            batches: registry.counter_shard("collector_batches_total", shard),
            producers: registry.gauge_shard("collector_producers", shard),
            active_flows: registry.gauge_shard("collector_active_flows", shard),
            state_bytes: registry.gauge_shard("collector_state_bytes", shard),
            evicted_lru: registry.gauge_shard("collector_evicted_lru", shard),
            evicted_ttl: registry.gauge_shard("collector_evicted_ttl", shard),
            events: registry.counter_shard("collector_events_total", shard),
            events_dropped: registry.counter_shard("collector_events_dropped_total", shard),
            #[cfg(feature = "measure-alloc")]
            state_bytes_measured: registry.gauge_shard("collector_state_bytes_measured", shard),
        }
    }
}

pub(crate) struct ShardWorker {
    shard: usize,
    table: FlowTable,
    factory: RecorderFactory,
    rules: Vec<EventRule>,
    /// The collector's event queue, shared by every shard.
    events: Arc<Mutex<Vec<Event>>>,
    stats: Arc<ShardStats>,
    /// This shard's park slot; producers and the collector wake it.
    waiter: Arc<Waiter>,
    /// Adaptive spin/park policy: spin widens toward `SPIN_LIMIT` while
    /// polls keep finding work, decays when the worker ends up parking.
    backoff: BackoffController,
    /// Live backoff policy (`collector_adaptive_spin{shard}`).
    adaptive_spin: Gauge,
    /// Live backoff policy (`collector_adaptive_park_us{shard}`).
    adaptive_park_us: Gauge,
    /// Outstanding sync points (`collector_sync_pending{shard}`).
    sync_pending: Gauge,
    /// Monotonic id for the next attached ring.
    next_ring_id: u64,
    /// Scratch: `(slot, flow)` touched by the current batch (unique per
    /// batch via the table's stamp — no sort/dedup pass).
    touched: Vec<(u32, FlowId)>,
    /// Monotonic batch stamp driving touch dedup.
    batch_stamp: u64,
    /// Latest sink timestamp seen (drives TTL expiry).
    clock: u64,
    /// Wall clock for stage timing (shared registry clock, so netsim and
    /// tests can drive it virtually).
    obs_clock: ClockHandle,
    /// Whole-batch apply latency, ns (`collector_stage_drain_ns`).
    stage_drain: Histogram,
    /// Sampled per-digest flow-table touch latency, ns
    /// (`collector_stage_touch_ns`).
    stage_touch: Histogram,
    /// Sampled per-digest recorder/KLL update latency, ns
    /// (`collector_stage_kll_ns`).
    stage_kll: Histogram,
    /// Digest counter driving the deterministic [`STAGE_SAMPLE`] pick.
    sample_tick: u64,
    /// Newest report timestamp applied (`collector_newest_ts{shard}`)
    /// — the per-shard freshness watermark.
    newest_ts: Gauge,
    /// Pipeline tracing: one `CollectorBatch` event per applied batch.
    recorder: Option<FlightRecorder>,
    /// Durability tee: applied batches are offered (never blocking) to
    /// this journal before being drained into flow state.
    journal: Option<JournalSender>,
    /// Seq stamp of the last journaled delta (source = shard index).
    journal_seq: u64,
    /// The empty `hop_sketches` of rows whose plan reads no sketches:
    /// one per shard, so those rows share no refcount across threads.
    no_sketches: Arc<[KllSketch]>,
    /// Cumulative allocator-measured net bytes this shard thread holds.
    #[cfg(feature = "measure-alloc")]
    measured_net: i64,
}

/// Most batches one ring may contribute per drain pass. Large enough
/// that a backed-up producer's flow working set is revisited while its
/// recorders are still resident (the locality the run exists to buy),
/// small enough that the worker returns to the other rings — and to
/// sync answering — within a bounded slice of work.
const DRAIN_RUN_BATCHES: u64 = 32;

impl ShardWorker {
    pub(crate) fn new(
        shard: usize,
        config: &CollectorConfig,
        factory: RecorderFactory,
        events: Arc<Mutex<Vec<Event>>>,
        stats: Arc<ShardStats>,
        waiter: Arc<Waiter>,
        registry: &MetricsRegistry,
    ) -> Self {
        Self {
            obs_clock: registry.clock(),
            stage_drain: registry.histogram_shard("collector_stage_drain_ns", shard as u32),
            stage_touch: registry.histogram_shard("collector_stage_touch_ns", shard as u32),
            stage_kll: registry.histogram_shard("collector_stage_kll_ns", shard as u32),
            sample_tick: 0,
            newest_ts: registry.gauge_shard("collector_newest_ts", shard as u32),
            recorder: config.trace.clone(),
            #[cfg(feature = "measure-alloc")]
            measured_net: 0,
            shard,
            table: FlowTable::new(
                config.max_flows_per_shard,
                config.max_bytes_per_shard,
                config.flow_ttl,
            ),
            factory,
            rules: config.rules.clone(),
            events,
            stats,
            waiter,
            backoff: BackoffController::new(),
            adaptive_spin: registry.gauge_shard("collector_adaptive_spin", shard as u32),
            adaptive_park_us: registry.gauge_shard("collector_adaptive_park_us", shard as u32),
            sync_pending: registry.gauge_shard("collector_sync_pending", shard as u32),
            next_ring_id: 0,
            touched: Vec::new(),
            batch_stamp: 0,
            clock: 0,
            journal: None,
            journal_seq: 0,
            no_sketches: Arc::from([]),
        }
    }

    /// The worker loop; runs until `Shutdown` (or the collector and all
    /// producers are gone).
    pub(crate) fn run(mut self, ctrl: Receiver<ShardMsg>) {
        self.waiter.register_current();
        let mut rings: Vec<AttachedRing> = Vec::new();
        let mut pending: VecDeque<PendingSync> = VecDeque::new();
        let mut ctrl_open = true;
        let mut idle = 0u32;
        self.publish_backoff();
        loop {
            let mut progressed = false;
            // Control first: attachment must precede any sync request
            // sent after it (the channel preserves that order).
            while ctrl_open {
                match ctrl.try_recv() {
                    Ok(msg) => {
                        progressed = true;
                        if !self.on_ctrl(msg, &mut rings, &mut pending) {
                            return; // Shutdown: rings drained, syncs answered
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        // Collector gone without a Shutdown message:
                        // finish the remaining producers, then exit.
                        ctrl_open = false;
                    }
                }
            }
            // A bounded *run* of batches per ring per pass, then move to
            // the next ring. Runs, not single batches: one producer's
            // digests cluster on the flows it forwards, so consecutive
            // batches from the same ring touch flow state that is still
            // resident — under eviction pressure (more live flows than
            // `max_flows_per_shard`) interleaving producers batch-by-
            // batch degrades the table to a scan-thrash where nearly
            // every digest rebuilds an evicted recorder. The quota is
            // captured at run start and capped, so one line-rate
            // producer still cannot monopolize the pass; closed-and-
            // drained rings detach as soon as they run dry, and drained
            // buffers go back to the producer via the recycle lane.
            let before = rings.len();
            rings.retain_mut(|attached| {
                let mut quota = attached.ring.pending().min(DRAIN_RUN_BATCHES);
                let mut drained = false;
                while quota > 0 {
                    let Some(mut batch) = attached.ring.pop() else {
                        break;
                    };
                    self.apply_batch(&mut batch);
                    attached.ring.recycle(batch);
                    drained = true;
                    quota -= 1;
                }
                if drained {
                    progressed = true;
                    true
                } else {
                    !attached.ring.is_finished()
                }
            });
            if rings.len() != before {
                self.stats.producers.set(rings.len() as u64);
            }
            // Sync points resolve as their epoch targets pass — no
            // stop-the-world drain. A detached ring counts as satisfied
            // (detach implies it drained fully).
            if !pending.is_empty() {
                self.answer_ready(&mut pending, &rings);
            }
            if progressed {
                if idle > 0 {
                    // Work arrived while spinning: widen the spin window.
                    self.backoff.on_spin_win();
                }
                idle = 0;
                continue;
            }
            if !ctrl_open && rings.is_empty() {
                debug_assert!(pending.is_empty(), "syncs outlive their rings");
                return;
            }
            idle += 1;
            if idle <= self.backoff.spin_limit() {
                std::hint::spin_loop();
                continue;
            }
            // Idle: free the hop blocks applies retired, off their path.
            self.table.free_retired();
            // Park until a producer pushes or the collector sends
            // control traffic (both wake this waiter). `prepare` orders
            // the announce before the re-checks; both inputs must be
            // re-checked after it, or a wake racing the announce is
            // lost and the request stalls a full park_timeout.
            //
            // An unsatisfied sync can never park us forever: its target
            // epoch is below some ring's published epoch, so that ring
            // is non-empty and the re-check (or the producer's wake)
            // keeps the loop progressing.
            self.waiter.prepare();
            if rings.iter().any(|r| !r.ring.is_empty()) {
                self.waiter.cancel();
            } else {
                match ctrl.try_recv() {
                    Ok(msg) => {
                        self.waiter.cancel();
                        if !self.on_ctrl(msg, &mut rings, &mut pending) {
                            return;
                        }
                    }
                    Err(TryRecvError::Empty) => self.park(),
                    Err(TryRecvError::Disconnected) => {
                        ctrl_open = false;
                        self.park();
                    }
                }
            }
            idle = 0;
        }
    }

    /// One adaptive park: decays the spin window and widens the next
    /// timeout before sleeping, so an idle worker converges to long
    /// sleeps instead of burning its core.
    fn park(&mut self) {
        self.backoff.on_park();
        self.waiter.park(self.backoff.park_timeout());
    }

    /// Publishes the live policy. Called at work-time (per applied
    /// batch), never from the idle path — a quiesced collector's
    /// registry stays byte-stable for scrapes and snapshot diffs, and
    /// the gauges read as "the policy in effect during recent work".
    fn publish_backoff(&self) {
        self.adaptive_spin.set(self.backoff.spin_limit() as u64);
        self.adaptive_park_us
            .set(self.backoff.park_timeout().as_micros() as u64);
    }

    /// Handles one control message; `false` means exit now.
    fn on_ctrl(
        &mut self,
        msg: ShardMsg,
        rings: &mut Vec<AttachedRing>,
        pending: &mut VecDeque<PendingSync>,
    ) -> bool {
        match msg {
            ShardMsg::Attach(ring) => {
                let id = self.next_ring_id;
                self.next_ring_id += 1;
                rings.push(AttachedRing { ring, id });
                self.stats.producers.set(rings.len() as u64);
            }
            ShardMsg::Query(query, reply) => {
                self.enqueue_sync(SyncKind::Query(query, reply), rings, pending);
            }
            ShardMsg::Export(reply) => {
                self.enqueue_sync(SyncKind::Export(reply), rings, pending);
            }
            ShardMsg::Barrier(reply) => {
                self.enqueue_sync(SyncKind::Barrier(reply), rings, pending);
            }
            ShardMsg::Checkpoint(reply) => {
                self.enqueue_sync(SyncKind::Checkpoint(reply), rings, pending);
            }
            ShardMsg::Load(load, reply) => {
                let _ = reply.send(self.load(load));
            }
            ShardMsg::AttachJournal { sender, start_seq } => {
                self.journal = Some(sender);
                self.journal_seq = start_seq;
            }
            ShardMsg::Shutdown => {
                // Exit is the one true quiesce point: pull everything
                // still queued, then answer whatever sync requests are
                // in flight (their targets are necessarily passed).
                // Gauge before replies: a requester must never observe
                // its answer while the registry still shows it pending.
                self.drain_all(rings);
                self.sync_pending.set(0);
                while let Some(sync) = pending.pop_front() {
                    self.answer_sync(sync.kind);
                }
                return false;
            }
        }
        true
    }

    /// Captures a sync point: per-ring published epochs at receipt.
    /// Batches already applied count immediately, so an idle shard
    /// answers on the spot; under load the request waits only for
    /// batches that were already in flight, never for the producers'
    /// ongoing stream.
    fn enqueue_sync(
        &mut self,
        kind: SyncKind,
        rings: &[AttachedRing],
        pending: &mut VecDeque<PendingSync>,
    ) {
        let targets = rings
            .iter()
            .filter(|r| r.ring.consumed() < r.ring.published())
            .map(|r| (r.id, r.ring.published()))
            .collect();
        pending.push_back(PendingSync { targets, kind });
        self.sync_pending.set(pending.len() as u64);
        self.answer_ready(pending, rings);
    }

    /// Answers every queued sync whose targets have all been consumed.
    /// Targets are captured from monotone published epochs, so the
    /// queue satisfies in FIFO order — stop at the first unsatisfied.
    fn answer_ready(&mut self, pending: &mut VecDeque<PendingSync>, rings: &[AttachedRing]) {
        let satisfied = |&(id, target): &(u64, u64)| {
            rings
                .iter()
                .find(|r| r.id == id)
                // Detached ⇒ the ring was fully drained before removal.
                .is_none_or(|r| r.ring.consumed() >= target)
        };
        while pending
            .front()
            .is_some_and(|sync| sync.targets.iter().all(satisfied))
        {
            let sync = pending.pop_front().expect("front just checked");
            // Gauge before the reply: once the requester unblocks, the
            // registry must already be done moving on its behalf.
            self.sync_pending.set(pending.len() as u64);
            self.answer_sync(sync.kind);
        }
    }

    fn answer_sync(&mut self, kind: SyncKind) {
        match kind {
            // The requester may have given up; ignore send errors.
            SyncKind::Query(query, reply) => {
                let _ = reply.send(self.answer(&query));
            }
            SyncKind::Export(reply) => {
                let _ = reply.send(self.export());
            }
            SyncKind::Barrier(reply) => {
                let _ = reply.send(());
            }
            SyncKind::Checkpoint(reply) => {
                let _ = reply.send((self.section(), self.journal_seq));
            }
        }
    }

    /// Encodes this shard's checkpoint section: table stats, ingested
    /// count, newest timestamp, then one length-prefixed `(flow,
    /// last_ts, recorder image)` entry per flow, least recently touched
    /// first. The flow is a fixed 8 bytes, so the restore thread can
    /// route an entry without decoding it.
    fn section(&self) -> Vec<u8> {
        let (t, n) = (self.table.stats, self.stats.ingested.get());
        let mut out = Vec::new();
        let mut w = WireWriter::new(&mut out);
        for v in [t.created, t.evicted_lru, t.evicted_ttl, n, self.clock] {
            w.put_varint(v);
        }
        w.put_varint(self.table.len() as u64);
        let mut entry = Vec::new();
        for (flow, e) in self.table.iter_lru() {
            entry.clear();
            entry.extend_from_slice(&flow.to_le_bytes());
            WireWriter::new(&mut entry).put_varint(e.last_ts);
            e.rec().image().encode_into(&mut entry);
            WireWriter::new(&mut out).put_varint(entry.len() as u64);
            out.extend_from_slice(&entry);
        }
        out
    }

    /// Loads checkpoint entries through the ordinary upsert, oldest
    /// first, which rebuilds the LRU list and enforces this collector's
    /// caps (evictions count on top of the checkpoint's). Each
    /// recorder comes from the factory, given a header-only report
    /// carrying the image's path length, and then takes the image.
    fn load(&mut self, load: ShardLoad) -> Result<(), CollectorError> {
        let failed = |reason| CollectorError::RestoreFailed { reason };
        self.table.stats = load.stats;
        let mut r = WireReader::new(&load.entries);
        while r.remaining() > 0 {
            let (flow, last_ts, image) =
                decode_entry(&mut r).map_err(|_| failed("checkpoint entry failed to decode"))?;
            let k = u16::try_from(image.path_len())
                .map_err(|_| failed("checkpoint image path length exceeds u16"))?;
            let mut rec = (self.factory)(
                flow,
                &DigestReport::new(flow, 0, Digest::new(0), k, last_ts),
            );
            rec.load_image(image)
                .map_err(|_| failed("checkpoint image does not fit the recorder factory"))?;
            self.batch_stamp += 1;
            let (idx, _) = self.table.upsert(flow, last_ts, self.batch_stamp, || rec);
            self.table.refresh_bytes_at(idx, flow);
        }
        // The loaded flows were created before the checkpoint.
        self.table.stats.created = load.stats.created;
        self.stats.ingested.add(load.ingested);
        self.clock = self.clock.max(load.newest_ts);
        self.publish_table();
        Ok(())
    }

    /// Applies every batch queued on any ring *at the moment of the
    /// call* — only used at shutdown, where a full quiesce is the
    /// point. The drain is bounded by a per-ring quota taken up front,
    /// so a producer racing more batches in cannot extend it.
    fn drain_all(&mut self, rings: &mut [AttachedRing]) {
        let quotas: Vec<u64> = rings.iter().map(|r| r.ring.pending()).collect();
        for (attached, quota) in rings.iter_mut().zip(quotas) {
            for _ in 0..quota {
                match attached.ring.pop() {
                    Some(mut batch) => {
                        self.apply_batch(&mut batch);
                        attached.ring.recycle(batch);
                    }
                    None => break,
                }
            }
        }
    }

    /// Applies one batch in place. The buffer comes back empty: the
    /// caller returns it to the producer via the recycle lane, so in
    /// steady state neither side allocates or frees batch backing store
    /// (and the measure-alloc window sees no batch traffic) — unless a
    /// journal is attached, in which case the applied reports move to
    /// the journal thread whole and the producer re-grows its buffers.
    fn apply_batch(&mut self, batch: &mut Vec<DigestReport>) {
        let t_batch = self.obs_clock.now_ns();
        #[cfg(feature = "measure-alloc")]
        let alloc_before = crate::alloc_track::thread_net_bytes();
        self.touched.clear();
        self.batch_stamp += 1;
        let stamp = self.batch_stamp;
        let n = batch.len() as u64;
        for report in batch.iter() {
            self.clock = self.clock.max(report.ts);
            let flow = report.flow;
            let factory = &self.factory;
            let sampled = self.sample_tick.is_multiple_of(STAGE_SAMPLE);
            self.sample_tick += 1;
            let t0 = if sampled { self.obs_clock.now_ns() } else { 0 };
            let (idx, first) = self
                .table
                .upsert(flow, report.ts, stamp, || factory(flow, report));
            if first {
                self.touched.push((idx, flow));
            }
            let t1 = if sampled {
                let t1 = self.obs_clock.now_ns();
                self.stage_touch.record(t1.saturating_sub(t0));
                t1
            } else {
                0
            };
            let (entry, retired) = self.table.entry_if(idx, flow).expect("slot just upserted");
            entry.rec_mut(retired).absorb(report.pid, &report.digest);
            if sampled {
                self.stage_kll
                    .record(self.obs_clock.now_ns().saturating_sub(t1));
            }
        }
        // Durability tee: the apply loop above reads the reports by
        // reference, so the applied batch can be handed to the journal
        // *whole* — a pointer swap, no clone. `try_delta` never blocks
        // (a full queue drops and counts), so the hot path pays a
        // channel offer, never an allocation or disk latency; the
        // recycle lane just gets an empty buffer this round.
        if n > 0 {
            if let Some(journal) = &self.journal {
                self.journal_seq += 1;
                journal.try_delta(DigestBatch {
                    source: self.shard as u64,
                    seq: self.journal_seq,
                    reports: std::mem::take(batch),
                    trace: None,
                });
            } else {
                batch.clear();
            }
        }
        // Memory accounting + byte-cap eviction for the flows that grew
        // (the estimate itself refreshes on a packet stride inside the
        // table).
        for i in 0..self.touched.len() {
            let (idx, flow) = self.touched[i];
            self.table.refresh_bytes_at(idx, flow);
        }
        self.table.expire(self.clock);
        self.detect_events();
        if let Some(rec) = &self.recorder {
            // One event per batch, not per digest: the hot path stays
            // within the tracing overhead budget at any batch size.
            rec.record_at(
                self.shard as u32,
                TraceStage::CollectorBatch,
                self.shard as u64,
                stamp,
                t_batch,
            );
        }
        self.publish_stats(n);
        #[cfg(feature = "measure-alloc")]
        self.account_measured(alloc_before);
        self.stage_drain
            .record(self.obs_clock.now_ns().saturating_sub(t_batch));
    }

    /// Folds this batch's allocator delta into the shard's measured
    /// recorder footprint and cross-checks the flow table's estimate.
    ///
    /// Batch buffers need no compensation: `apply_batch` empties (or,
    /// journaling, hands off) the producer-allocated `Vec` and the
    /// recycle (or drop, if the pool lane is full) happens outside this
    /// window, so the delta is recorder state only.
    ///
    /// The bound is deliberately loose (allocator slack, `Vec` growth
    /// headroom, and recorder scratch all land in the measurement but
    /// not the estimate): it catches order-of-magnitude accounting bugs
    /// — the kind that would mis-drive byte-cap eviction — not slack.
    #[cfg(feature = "measure-alloc")]
    fn account_measured(&mut self, alloc_before: i64) {
        let delta = crate::alloc_track::thread_net_bytes() - alloc_before;
        self.measured_net += delta;
        self.stats
            .state_bytes_measured
            .set(self.measured_net.max(0) as u64);
        let estimate = self.table.total_bytes() as i64;
        if estimate > crate::alloc_track::CROSS_CHECK_FLOOR {
            debug_assert!(
                self.measured_net >= estimate / 8
                    && self.measured_net <= estimate.saturating_mul(16),
                "state_bytes estimate {estimate} vs measured {} diverged beyond 8x/16x",
                self.measured_net
            );
        }
    }

    /// Evaluates armed rules against every flow this batch touched (the
    /// flow may have been evicted meanwhile — skip then).
    ///
    /// Evaluation is amortized: rules (which may recompute quantiles)
    /// run eagerly while a flow is young, then only after every
    /// [`EVAL_STRIDE`] new packets — so a long-lived flow that never
    /// crosses a threshold costs O(1/EVAL_STRIDE) evaluations per
    /// digest, and detection lags a firing condition by at most one
    /// batch plus `EVAL_STRIDE` packets.
    ///
    /// Hysteresis: a fired rule keeps being evaluated (at the stride);
    /// when its condition stops holding the worker emits an explicit
    /// [`EventKind::Cleared`](crate::events::EventKind::Cleared) event
    /// and re-arms the rule, so the next rising edge fires again. A
    /// fired rule *with* a cooldown is re-checked only once the quiet
    /// period elapses: still holding ⇒ re-fire (cooldown restarts),
    /// cleared ⇒ the `Cleared` event is emitted then.
    fn detect_events(&mut self) {
        /// Re-evaluate after this many new packets (steady state).
        const EVAL_STRIDE: u64 = 16;
        /// Evaluate on every batch below this packet count, so
        /// fast-converging rules (e.g. path resolution) alert promptly.
        const EVAL_EAGER: u64 = 64;
        if self.rules.is_empty() {
            return;
        }
        let nrules = self.rules.len();
        let ts = self.clock;
        let mut fired = 0u64;
        for i in 0..self.touched.len() {
            let (idx, flow) = self.touched[i];
            let Some((entry, retired)) = self.table.entry_if(idx, flow) else {
                continue;
            };
            let packets = entry.rec().packets();
            if packets >= EVAL_EAGER && packets < entry.last_eval_packets + EVAL_STRIDE {
                continue;
            }
            entry.last_eval_packets = packets;
            for (rule_idx, rule) in self.rules.iter().enumerate() {
                let bit = 1u64 << rule_idx;
                let was_fired = entry.fired_rules & bit != 0;
                if was_fired {
                    if let Some(quiet) = rule.cooldown {
                        // A fired cooldown rule stays silent (and
                        // unevaluated) until its quiet period elapses;
                        // then it either re-fires or clears below.
                        let since = ts.saturating_sub(entry.fired_ts[rule_idx]);
                        if since < quiet {
                            continue;
                        }
                    }
                    // Fired, no cooldown: keep evaluating at the stride
                    // so the falling edge is observed and reported.
                }
                match rule.condition.evaluate(entry.rec_mut(retired)) {
                    Some(kind) => {
                        // Rising edge, or a cooldown re-fire; a fired
                        // non-cooldown rule whose condition still holds
                        // stays fired silently.
                        if was_fired && rule.cooldown.is_none() {
                            continue;
                        }
                        entry.fired_rules |= bit;
                        if rule.cooldown.is_some() {
                            if entry.fired_ts.len() < nrules {
                                entry.fired_ts.resize(nrules, 0);
                            }
                            entry.fired_ts[rule_idx] = ts;
                        }
                        fired += Self::deliver(
                            &self.events,
                            &self.stats,
                            Event {
                                flow,
                                shard: self.shard,
                                rule: rule_idx,
                                kind,
                                ts,
                            },
                        );
                    }
                    None => {
                        // Falling edge: a fired rule whose condition
                        // stopped holding clears explicitly and re-arms.
                        entry.fired_rules &= !bit;
                        if was_fired {
                            fired += Self::deliver(
                                &self.events,
                                &self.stats,
                                Event {
                                    flow,
                                    shard: self.shard,
                                    rule: rule_idx,
                                    kind: EventKind::Cleared,
                                    ts,
                                },
                            );
                        }
                    }
                }
            }
        }
        if fired > 0 {
            self.stats.events.add(fired);
        }
    }

    /// Queues one event without ever blocking the ingest path: returns 1
    /// on delivery; a queue already holding [`EVENT_CAPACITY`] events
    /// counts this one into `events_dropped` and returns 0. (Associated
    /// fn over the two fields it needs, so callers can hold a flow-table
    /// borrow.)
    fn deliver(events: &Mutex<Vec<Event>>, stats: &ShardStats, event: Event) -> u64 {
        let mut queue = events.lock().expect("event queue poisoned");
        if queue.len() < EVENT_CAPACITY {
            queue.push(event);
            1
        } else {
            stats.events_dropped.inc();
            0
        }
    }

    fn publish_stats(&self, batch_digests: u64) {
        self.publish_backoff();
        self.stats.ingested.add(batch_digests);
        self.stats.batches.inc();
        self.publish_table();
    }

    fn publish_table(&self) {
        let s = &self.stats;
        s.active_flows.set(self.table.len() as u64);
        s.state_bytes.set(self.table.total_bytes() as u64);
        s.evicted_lru.set(self.table.stats.evicted_lru);
        s.evicted_ttl.set(self.table.stats.evicted_ttl);
        self.newest_ts.set(self.clock);
    }

    /// One flow's summary. `hop_sketches` is the flow's shared block
    /// (see [`FlowEntry::hop_block`]) when `sketches` (the plan's
    /// projection reads them), else `empty`.
    fn summarize(entry: &mut FlowEntry, sketches: bool, empty: &Arc<[KllSketch]>) -> FlowSummary {
        let hop_sketches = if sketches {
            entry.hop_block()
        } else {
            Arc::clone(empty)
        };
        let rec = entry.rec();
        FlowSummary {
            kind: rec.kind(),
            packets: rec.packets(),
            state_bytes: rec.state_bytes(),
            last_ts: entry.last_ts,
            hop_sketches,
            path: rec.path_progress(),
            inconsistencies: rec.inconsistencies(),
        }
    }

    /// Encodes every flow's snapshot row in place, ascending by flow
    /// ID: `varint(flow)` then the [`SummaryRow`] — the bytes a
    /// snapshot frame carries per flow, written without building a
    /// [`FlowSummary`] or cloning a sketch.
    fn export(&self) -> ShardExport {
        let mut flows: Vec<(FlowId, &FlowEntry)> = self
            .table
            .iter()
            .map(|(&flow, entry)| (flow, entry))
            .collect();
        flows.sort_unstable_by_key(|&(flow, _)| flow);
        let mut rows = Vec::new();
        let mut index = Vec::with_capacity(flows.len());
        for (flow, entry) in flows {
            let start = rows.len();
            let rec = entry.rec();
            let (hop_sketches, path) = (rec.hop_sketches(), rec.path_progress());
            WireWriter::new(&mut rows).put_varint(flow);
            SummaryRow {
                kind: rec.kind(),
                packets: rec.packets(),
                state_bytes: rec.state_bytes(),
                last_ts: entry.last_ts,
                inconsistencies: rec.inconsistencies(),
                hop_sketches: &hop_sketches,
                path: path.as_ref(),
            }
            .encode_into(&mut rows);
            index.push((flow, start, rows.len()));
        }
        ShardExport {
            table_stats: self.table.stats,
            ingested: self.stats.ingested.get(),
            rows,
            index,
        }
    }

    fn snapshot_with(&self, flows: Vec<(FlowId, FlowSummary)>) -> ShardSnapshot {
        ShardSnapshot {
            shard: self.shard,
            flows,
            table_stats: self.table.stats,
            ingested: self.stats.ingested.get(),
        }
    }

    /// Resolves one shard query: pick the flows the selection names
    /// (respecting the delta cutoff), summarize *only* those, and wrap
    /// them with this shard's counters. A summary shares its flow's hop
    /// block, so a repeated read copies no sketch; only the first read
    /// after a flow changed copies it once. Narrowing here — not after
    /// — keeps even that copy to the selected flows.
    fn answer(&mut self, query: &ShardQuery) -> ShardSnapshot {
        self.table.free_retired();
        let fresh = |entry: &FlowEntry| query.since.is_none_or(|t| entry.last_ts > t);
        let empty = &self.no_sketches;
        let summarize = |entry: &mut FlowEntry| Self::summarize(entry, query.sketches, empty);
        let table = &mut self.table;
        let flows: Vec<(FlowId, FlowSummary)> = match &query.select {
            Selector::All => table
                .iter_mut()
                .filter(|(_, entry)| fresh(entry))
                .map(|(flow, entry)| (flow, summarize(entry)))
                .collect(),
            // The collector pre-routes the list to this shard, so a
            // direct per-ID probe beats scanning the whole table.
            Selector::FlowSet(wanted) | Selector::WatchList(wanted) => wanted
                .iter()
                .filter_map(|&flow| {
                    table
                        .get_mut(flow)
                        .filter(|entry| fresh(entry))
                        .map(|entry| (flow, summarize(entry)))
                })
                .collect(),
            Selector::TopK(k) => {
                let mut ranked: Vec<(u64, FlowId)> = table
                    .iter()
                    .filter(|&(_, entry)| fresh(entry))
                    .map(|(&flow, entry)| (entry.rec().packets(), flow))
                    .collect();
                // The shared top-K order (most packets first, ties by
                // ascending flow ID): local truncation must agree with
                // the global re-rank or tied flows could be lost.
                ranked.sort_unstable_by(|a, b| pint_query::top_k_order(*a, *b));
                ranked.truncate(*k);
                ranked
                    .into_iter()
                    .filter_map(|(_, flow)| {
                        table.get_mut(flow).map(|entry| (flow, summarize(entry)))
                    })
                    .collect()
            }
            // Probe path progress first (cheap) and summarize — hop
            // sketches and all — only the matching flows.
            Selector::PathThroughSwitch(switch) => table
                .iter_mut()
                .filter(|(_, entry)| fresh(entry))
                .filter(|(_, entry)| {
                    entry
                        .rec()
                        .path_progress()
                        .and_then(|p| p.path)
                        .is_some_and(|p| p.contains(switch))
                })
                .map(|(flow, entry)| (flow, summarize(entry)))
                .collect(),
            Selector::OfKind(kind) => table
                .iter_mut()
                .filter(|(_, entry)| fresh(entry) && entry.rec().kind() == *kind)
                .map(|(flow, entry)| (flow, summarize(entry)))
                .collect(),
        };
        self.snapshot_with(flows)
    }
}

/// Reads one length-prefixed checkpoint entry (see
/// [`ShardWorker::section`]).
fn decode_entry(r: &mut WireReader<'_>) -> Result<(FlowId, u64, RecorderImage), WireError> {
    let len = r.get_count(1)?;
    let mut entry = WireReader::new(r.get_bytes(len)?);
    let (flow, last_ts) = (entry.get_u64()?, entry.get_varint()?);
    let image = RecorderImage::decode_from(&mut entry)?;
    entry.expect_end()?;
    Ok((flow, last_ts, image))
}
