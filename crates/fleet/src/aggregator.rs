//! The fleet aggregator: snapshot-frame ingestion, epoch keying, rule
//! evaluation.
//!
//! The aggregator merges collector *snapshots*; it takes no digests.
//! Raw [`DigestBatch`](pint_wire::DigestBatch) streams go to a
//! [`DigestServer`](crate::DigestServer), the one endpoint that
//! deduplicates, acknowledges and routes them — typically into a
//! collector whose snapshots then reach the fleet.

use crate::error::FleetError;
use crate::rules::{FleetEdge, FleetEvent, FleetRule};
use crate::view::FleetView;
use pint_collector::wire::SnapshotFrame;
use pint_collector::CollectorSnapshot;
use pint_obs::{FlightRecorder, Gauge, GaugeGroup, MetricsRegistry, TraceStage};
use pint_query::{QueryError, QueryPlan, QueryResult, Watermark};
use pint_store::{Journal, StoreReader};
use pint_wire::{
    frame_into, parse_frame, FrameType, WireDecode, WireEncode, WireError, WireReader,
};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Bound on undrained fleet events; older events are discarded (and
/// counted) beyond it, so a negligent consumer cannot grow memory.
const EVENT_CAPACITY: usize = 4_096;

/// Fleet-tier configuration.
#[derive(Debug, Clone, Default)]
pub struct FleetConfig {
    /// Fleet-level rules, evaluated on the merged view after every
    /// applied snapshot. Each rule's [`plan`](FleetRule::plan) must be
    /// valid: [`FleetAggregator::new`] rejects the config otherwise.
    pub rules: Vec<FleetRule>,
    /// Metrics registry the aggregator publishes its counters into (as
    /// the `fleet_*` gauge group). Share one registry process-wide so a
    /// single `Metrics` wire frame reports every tier; `None` gives the
    /// aggregator a private registry.
    pub metrics: Option<MetricsRegistry>,
    /// Flight recorder for pipeline tracing: applied snapshots are
    /// stamped as [`TraceStage::AggregatorApplied`] events. `None` disables
    /// tracing (the hot path pays nothing).
    pub trace: Option<FlightRecorder>,
}

impl FleetConfig {
    /// Validates invariants: every rule's plan passes
    /// [`QueryPlan::validate`] (hop ≥ 1, ϕ in `[0, 1]`, a usable decode
    /// spec), so a rule can never fail to evaluate.
    fn validate(&self) {
        for (i, rule) in self.rules.iter().enumerate() {
            if let Err(e) = rule.plan().validate() {
                panic!("fleet rule {i} is invalid: {e}");
            }
        }
    }
}

/// Live counters of one aggregator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Frames ingested (any type, decoded successfully).
    pub frames: u64,
    /// Snapshots applied to the fleet state.
    pub snapshots_applied: u64,
    /// Snapshot frames discarded because a newer epoch for the same
    /// collector was already held.
    pub snapshots_stale: u64,
    /// Frames rejected by the decoder.
    pub decode_errors: u64,
    /// Well-formed frames of types the aggregator does not ingest
    /// (`Query`/`QueryResponse`, which belong to the serving
    /// transport, `DigestBatch`, which only a
    /// [`DigestServer`](crate::DigestServer) takes, and `BatchAck`,
    /// which only a forwarder consumes). Each also returned a typed
    /// [`FleetError::UnsupportedFrame`].
    pub unsupported_frames: u64,
    /// Fleet events discarded because the event queue was full.
    pub events_dropped: u64,
    /// Collectors currently contributing snapshots.
    pub collectors: usize,
}

/// One collector's latest snapshot, as the aggregator holds it.
#[derive(Debug, Clone)]
pub(crate) enum Held {
    /// A `Snapshot` payload the walk accepted, not decoded yet.
    Frame(Arc<[u8]>),
    /// The decoded snapshot: a read needed it, or it was applied
    /// decoded ([`FleetAggregator::apply_snapshot`]).
    Decoded(Arc<CollectorSnapshot>),
}

impl Held {
    /// The decoded snapshot. A frame passed the walk, so its decode
    /// cannot fail; if it ever does, the error is typed, not a panic.
    fn decode(&self) -> Result<Arc<CollectorSnapshot>, QueryError> {
        match self {
            Held::Frame(payload) => Ok(Arc::new(SnapshotFrame::decode(payload)?.snapshot)),
            Held::Decoded(snapshot) => Ok(Arc::clone(snapshot)),
        }
    }
}

/// Latest state held for one collector. Reads take `&self`, so the
/// swap of a frame for its decoded snapshot goes through the mutex
/// (uncontended: the aggregator is single-threaded or behind a lock).
#[derive(Debug)]
struct CollectorState {
    epoch: u64,
    held: Mutex<Held>,
}

impl CollectorState {
    /// Decodes a held frame and keeps the snapshot instead of it.
    fn decoded(&self) -> Result<Arc<CollectorSnapshot>, QueryError> {
        let mut held = lock(&self.held);
        let snapshot = held.decode()?;
        *held = Held::Decoded(Arc::clone(&snapshot));
        Ok(snapshot)
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The merged view of the `(collector, epoch)` vector `key`.
#[derive(Debug)]
struct Memo {
    key: Vec<(u64, u64)>,
    view: Arc<FleetView>,
}

/// What an apply or `Bye` replaced, not yet freed: the collector's
/// previous state and the memoised view.
#[derive(Debug, Default)]
pub(crate) struct Released {
    _held: Option<Held>,
    _view: Option<Arc<FleetView>>,
}

/// The inputs of one fleet read, taken under the aggregator lock by
/// [`FleetAggregator::read`]: the memoised view if it is current, or
/// each collector's `(id, epoch, held state)` to build it from.
pub(crate) enum ViewRead {
    Memo(Arc<FleetView>),
    Build(Vec<(u64, u64, Held)>),
}

/// A view [`ViewRead::build`] returned.
pub(crate) struct Built {
    view: Arc<FleetView>,
    /// What [`FleetAggregator::keep`] stores back: the view's key and
    /// the snapshots decoded for it. `None` for the memoised view.
    fresh: Option<(Vec<(u64, u64)>, Vec<(u64, u64, Arc<CollectorSnapshot>)>)>,
}

impl ViewRead {
    /// Decodes the frames still held and merges — the part a serving
    /// transport runs outside its aggregator lock.
    pub(crate) fn build(self) -> Result<Built, QueryError> {
        let parts = match self {
            ViewRead::Memo(view) => return Ok(Built { view, fresh: None }),
            ViewRead::Build(parts) => parts,
        };
        let key = parts.iter().map(|&(id, epoch, _)| (id, epoch)).collect();
        let mut decoded = Vec::new();
        let mut snapshots = Vec::with_capacity(parts.len());
        for (id, epoch, held) in parts {
            let snapshot = held.decode()?;
            if let Held::Frame(_) = held {
                decoded.push((id, epoch, Arc::clone(&snapshot)));
            }
            snapshots.push((id, snapshot));
        }
        // The aggregator keeps each snapshot, so the merge takes row
        // clones: refcounts on the hop-sketch blocks.
        let view = FleetView::merge(
            snapshots
                .into_iter()
                .map(|(id, snapshot)| (id, Arc::unwrap_or_clone(snapshot))),
        );
        Ok(Built {
            view: Arc::new(view),
            fresh: Some((key, decoded)),
        })
    }
}

/// A raw, already-encoded payload (re-framing received bytes).
struct Raw<'a>(&'a [u8]);

impl WireEncode for Raw<'_> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.0);
    }
}

/// What [`FleetAggregator::restore`] recovered from a persisted log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetRestoreReport {
    /// Checkpoint records whose snapshot frames applied (newest epoch
    /// per collector wins; the same gate as live ingestion).
    pub checkpoints_applied: u64,
    /// Checkpoint records the epoch gate discarded — an older epoch
    /// for a collector a newer record already restored.
    pub checkpoints_stale: u64,
    /// The newest epoch any restored record carried, if the log held
    /// any records.
    pub newest_epoch: Option<u64>,
}

/// Merges snapshot frames from N collector processes into a fleet view
/// and evaluates fleet rules over it.
///
/// The aggregator itself is transport-agnostic and single-threaded —
/// hand it bytes via [`ingest_frame`](Self::ingest_frame) (or decoded
/// [`SnapshotFrame`]s via [`apply_snapshot`](Self::apply_snapshot))
/// from whatever carries them: the in-process
/// [`InMemoryTransport`](crate::InMemoryTransport), or
/// [`FleetServer`](crate::FleetServer)'s poll thread, which shares the
/// aggregator with its owner behind a mutex.
///
/// A snapshot frame is checked at apply by a walk that builds nothing,
/// and held as its bytes; the first read that needs it decodes it, and
/// from then on the aggregator holds the decoded snapshot instead. The
/// merged view is memoised on the `(collector, epoch)` vector and
/// shared by queries and rules until an apply or `Bye` changes it.
pub struct FleetAggregator {
    config: FleetConfig,
    collectors: BTreeMap<u64, CollectorState>,
    /// Per-rule hysteresis state: `true` = currently fired.
    fired: Vec<bool>,
    /// Last observation per fired rule (reported on the cleared edge).
    last_observed: Vec<f64>,
    events: VecDeque<FleetEvent>,
    stats: FleetStats,
    metrics: MetricsRegistry,
    /// The registry view of `stats` (+ the live event-queue depth),
    /// republished whole after every mutation so remote readers observe
    /// internally consistent counters.
    obs_group: GaugeGroup,
    /// The newest epoch ever *seen* per collector — including stale
    /// arrivals the epoch gate discarded — feeding the freshness
    /// watermark's `newest_seen` side.
    newest_seen_epoch: u64,
    /// Per-collector `fleet_collector_epoch` / `fleet_collector_lag`
    /// freshness gauges, created lazily on first apply.
    freshness_gauges: BTreeMap<u64, (Gauge, Gauge)>,
    /// Durable journal ([`attach_store`](Self::attach_store)): applied
    /// snapshots become checkpoint records.
    journal: Option<Journal>,
    /// The merged view of the last read, for the `(collector, epoch)`
    /// vector it was built from. An apply or `Bye` drops it.
    memo: Mutex<Option<Memo>>,
    /// What the last apply (or `Bye`) replaced, not yet freed. A
    /// serving transport takes it with
    /// [`take_released`](Self::take_released) and frees it after its
    /// reply is flushed; otherwise the next apply frees it.
    released: Released,
}

/// `set_all` field order of the `fleet` gauge group (mirrors
/// [`FleetStats`] plus the live event-queue depth).
const FLEET_OBS_FIELDS: [&str; 8] = [
    "frames",
    "snapshots_applied",
    "snapshots_stale",
    "decode_errors",
    "unsupported_frames",
    "events_dropped",
    "collectors",
    "events_queued",
];

impl FleetAggregator {
    /// An empty aggregator with the given config.
    ///
    /// # Panics
    ///
    /// If a rule's plan is invalid (see [`FleetConfig::rules`]).
    pub fn new(config: FleetConfig) -> Self {
        config.validate();
        let rules = config.rules.len();
        let metrics = config.metrics.clone().unwrap_or_default();
        let obs_group = metrics.gauge_group("fleet", &FLEET_OBS_FIELDS);
        Self {
            config,
            collectors: BTreeMap::new(),
            fired: vec![false; rules],
            last_observed: vec![0.0; rules],
            events: VecDeque::new(),
            stats: FleetStats::default(),
            metrics,
            obs_group,
            newest_seen_epoch: 0,
            freshness_gauges: BTreeMap::new(),
            journal: None,
            memo: Mutex::new(None),
            released: Released::default(),
        }
    }

    /// Attaches a durable journal (a [`Journal`] over a
    /// [`StoreKind::Fleet`](pint_wire::store::StoreKind::Fleet) log).
    /// From here on, every *applied* snapshot is persisted as a
    /// checkpoint record keyed by `(collector_id, epoch)` with an empty
    /// `covered` list — the log holds no deltas for it to subsume.
    /// A snapshot that arrived as a frame is journaled as the bytes
    /// received, never decoded and re-encoded; one given to
    /// [`apply_snapshot`](Self::apply_snapshot) is encoded once.
    /// Stale snapshots are never journaled. Checkpoint writes block
    /// briefly (snapshots are periodic, not hot-path).
    pub fn attach_store(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// Drains the attached journal's queue to disk and syncs the file.
    /// No-op without an attached store.
    pub fn flush_store(&self) {
        if let Some(journal) = &self.journal {
            journal.flush();
        }
    }

    /// Rebuilds an aggregator from a persisted fleet log: every
    /// checkpoint record's snapshot frame, read back from the file and
    /// CRC-checked again, is walked and re-applied through the same epoch
    /// gate as live ingestion (newest epoch per collector wins, stale
    /// records counted), and held undecoded until a read needs it.
    /// `Delta` records — which logs written by aggregators that still
    /// took digest batches may hold — are skipped undecoded; to replay
    /// their digests into a collector, run a [`pint_store::Replayer`]
    /// over the same log.
    pub fn restore(
        config: FleetConfig,
        reader: &StoreReader,
    ) -> Result<(Self, FleetRestoreReport), FleetError> {
        let mut agg = Self::new(config);
        let mut report = FleetRestoreReport::default();
        for c in reader.checkpoints() {
            let c = c?;
            let (ty, payload) = parse_frame(&c.payload)?;
            if ty != FrameType::Snapshot {
                return Err(FleetError::UnsupportedFrame(ty));
            }
            if agg.apply_payload(payload)? {
                report.checkpoints_applied += 1;
            } else {
                report.checkpoints_stale += 1;
            }
        }
        report.newest_epoch = reader.newest_epoch();
        Ok((agg, report))
    }

    /// The registry this aggregator publishes its `fleet_*` gauge group
    /// into — the one from [`FleetConfig::metrics`], or a private
    /// default.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The flight recorder from [`FleetConfig::trace`], if tracing is
    /// on — the serving transport answers `TraceDump` requests from it.
    pub fn trace_recorder(&self) -> Option<&FlightRecorder> {
        self.config.trace.as_ref()
    }

    /// Republishes the whole stats vector (one locked write), so any
    /// snapshot — local or over the wire — sees a consistent point in
    /// time, never a torn mix of old and new counters.
    fn publish_obs(&self) {
        let s = &self.stats;
        self.obs_group.set_all(&[
            s.frames,
            s.snapshots_applied,
            s.snapshots_stale,
            s.decode_errors,
            s.unsupported_frames,
            s.events_dropped,
            s.collectors as u64,
            self.events.len() as u64,
        ]);
    }

    /// Ingests one complete wire frame (header included): parses the
    /// header, then hands the payload to
    /// [`ingest_payload`](Self::ingest_payload). Decode failures are
    /// typed errors (and counted), never panics — frames come off the
    /// network.
    pub fn ingest_frame(&mut self, bytes: &[u8]) -> Result<FrameType, FleetError> {
        match parse_frame(bytes) {
            Ok((ty, payload)) => self.ingest_payload(ty, payload),
            Err(e) => {
                self.stats.decode_errors += 1;
                self.publish_obs();
                Err(e.into())
            }
        }
    }

    /// Ingests an already-framed payload (e.g. from
    /// [`FrameReader`](pint_wire::FrameReader)), dispatching on its
    /// type: `Snapshot` is walked (checked without being decoded),
    /// passes the epoch gate, is kept as bytes and re-evaluates rules,
    /// `Bye` removes the collector, `Hello` is acknowledged.
    /// `Query`/`QueryResponse` (answered by the serving transport, not
    /// the aggregator), `DigestBatch` (taken only by a
    /// [`DigestServer`](crate::DigestServer)) and `BatchAck` (consumed
    /// only by forwarders) return a typed
    /// [`FleetError::UnsupportedFrame`], counted in
    /// [`FleetStats::unsupported_frames`] — the sender learns its
    /// frame went nowhere instead of a silent acknowledgment.
    pub fn ingest_payload(
        &mut self,
        ty: FrameType,
        payload: &[u8],
    ) -> Result<FrameType, FleetError> {
        let out = self.ingest_payload_inner(ty, payload);
        self.publish_obs();
        out
    }

    fn ingest_payload_inner(
        &mut self,
        ty: FrameType,
        payload: &[u8],
    ) -> Result<FrameType, FleetError> {
        match ty {
            FrameType::Snapshot => {
                if let Err(e) = self.apply_payload(payload) {
                    self.stats.decode_errors += 1;
                    return Err(e.into());
                }
            }
            FrameType::Bye => {
                let mut r = WireReader::new(payload);
                match r.get_varint() {
                    Ok(collector_id) => {
                        if let Some(gone) = self.collectors.remove(&collector_id) {
                            self.release(Some(gone));
                            self.stats.collectors = self.collectors.len();
                            self.evaluate_rules();
                        }
                    }
                    Err(e) => {
                        self.stats.decode_errors += 1;
                        return Err(e.into());
                    }
                }
            }
            FrameType::Hello => {}
            FrameType::Query
            | FrameType::QueryResponse
            | FrameType::DigestBatch
            | FrameType::BatchAck
            | FrameType::Metrics
            | FrameType::TraceDump => {
                // Metrics requests, like queries, are answered by the
                // serving transport (which owns the registry snapshot);
                // the aggregator only merges telemetry state.
                self.stats.unsupported_frames += 1;
                return Err(FleetError::UnsupportedFrame(ty));
            }
        }
        self.stats.frames += 1;
        Ok(ty)
    }

    /// Applies one decoded snapshot, keyed by `(collector_id, epoch)`:
    /// an epoch not newer than what is already held for that collector
    /// is discarded as stale (returns `false`). On application, fleet
    /// rules are re-evaluated against the new merged view. The
    /// aggregator keeps `frame.snapshot` as given.
    pub fn apply_snapshot(&mut self, frame: SnapshotFrame) -> bool {
        let (id, epoch) = (frame.collector_id, frame.epoch);
        if !self.admit(id, epoch) {
            return false;
        }
        self.journal_checkpoint(id, epoch, || frame.to_frame_bytes());
        self.hold(id, epoch, Held::Decoded(Arc::new(frame.snapshot)));
        true
    }

    /// Applies one `Snapshot` payload: one walk checks it without
    /// decoding, the epoch gate runs, and the aggregator keeps (and
    /// journals) the bytes as received. `Ok(false)` is a stale epoch.
    fn apply_payload(&mut self, payload: &[u8]) -> Result<bool, WireError> {
        let (id, epoch) = SnapshotFrame::walk(payload)?;
        if !self.admit(id, epoch) {
            return Ok(false);
        }
        self.journal_checkpoint(id, epoch, || {
            let mut frame = Vec::with_capacity(pint_wire::HEADER_LEN + payload.len());
            frame_into(FrameType::Snapshot, &Raw(payload), &mut frame);
            frame
        });
        self.hold(id, epoch, Held::Frame(payload.into()));
        Ok(true)
    }

    /// The epoch gate: `false` (counted as stale) unless `epoch` is
    /// newer than what is held for `collector_id`.
    fn admit(&mut self, collector_id: u64, epoch: u64) -> bool {
        // Even a stale arrival advances `newest_seen`: a watermark's
        // lag measures "how far behind the freshest evidence" the
        // applied state is, and discarded evidence still counts.
        self.newest_seen_epoch = self.newest_seen_epoch.max(epoch);
        if let Some(existing) = self.collectors.get(&collector_id) {
            if epoch <= existing.epoch {
                self.stats.snapshots_stale += 1;
                self.publish_freshness();
                self.publish_obs();
                return false;
            }
        }
        if let Some(rec) = &self.config.trace {
            rec.record(
                collector_id as u32,
                TraceStage::AggregatorApplied,
                collector_id,
                epoch,
            );
        }
        true
    }

    /// Persists an admitted snapshot — only with a store attached.
    fn journal_checkpoint(&self, collector_id: u64, epoch: u64, frame: impl FnOnce() -> Vec<u8>) {
        if let Some(journal) = &self.journal {
            journal.checkpoint(collector_id, epoch, frame(), Vec::new());
        }
    }

    /// Holds an admitted snapshot in place of the collector's previous
    /// one and re-evaluates the rules.
    fn hold(&mut self, collector_id: u64, epoch: u64, held: Held) {
        let state = CollectorState {
            epoch,
            held: Mutex::new(held),
        };
        let replaced = self.collectors.insert(collector_id, state);
        self.release(replaced);
        self.stats.snapshots_applied += 1;
        self.stats.collectors = self.collectors.len();
        self.evaluate_rules();
        self.publish_freshness();
        self.publish_obs();
    }

    /// Hands what an apply or `Bye` replaced — the collector's previous
    /// state, if any, and the memoised view, now stale — to
    /// [`take_released`](Self::take_released).
    fn release(&mut self, replaced: Option<CollectorState>) {
        self.released = Released {
            _held: replaced.map(|s| s.held.into_inner().unwrap_or_else(PoisonError::into_inner)),
            _view: lock(&self.memo).take().map(|memo| memo.view),
        };
    }

    /// The aggregator's freshness stamp: the newest epoch *applied*
    /// across collectors vs. the newest epoch ever *seen* (stale
    /// arrivals included), plus how many collectors contribute. Stamped
    /// onto every [`QueryResponse`](pint_query::QueryResponse) the
    /// fleet server answers.
    pub fn watermark(&self) -> Watermark {
        Watermark {
            newest_applied: self.collectors.values().map(|s| s.epoch).max().unwrap_or(0),
            newest_seen: self.newest_seen_epoch,
            sources: self.collectors.len() as u64,
        }
    }

    /// Publishes per-collector `fleet_collector_epoch{shard=id}` and
    /// `fleet_collector_lag{shard=id}` gauges (lag = newest epoch seen
    /// fleet-wide minus this collector's applied epoch).
    fn publish_freshness(&mut self) {
        for (&id, state) in &self.collectors {
            let (epoch_gauge, lag_gauge) = self.freshness_gauges.entry(id).or_insert_with(|| {
                (
                    self.metrics.gauge_shard("fleet_collector_epoch", id as u32),
                    self.metrics.gauge_shard("fleet_collector_lag", id as u32),
                )
            });
            epoch_gauge.set(state.epoch);
            lag_gauge.set(self.newest_seen_epoch.saturating_sub(state.epoch));
        }
    }

    /// The merged fleet view over every collector's latest snapshot:
    /// a copy of the memoised view ([`query`](Self::query) shares it
    /// without copying). Empty if a held frame fails to decode, which
    /// the walk at apply rules out; `query` reports that as an error.
    pub fn view(&self) -> FleetView {
        self.shared_view()
            .map(|view| FleetView::clone(&view))
            .unwrap_or_else(|_| FleetView::merge(Vec::new()))
    }

    /// The memoised merged view, built (and kept) if an apply or `Bye`
    /// changed the `(collector, epoch)` vector since the last read.
    fn shared_view(&self) -> Result<Arc<FleetView>, QueryError> {
        self.read().build().map(|built| self.keep(built))
    }

    /// The inputs of a read — the lock-held half of
    /// [`shared_view`](Self::shared_view), which a serving transport
    /// splits around its lock: `read` under it, [`ViewRead::build`]
    /// outside, [`keep`](Self::keep) under it again.
    pub(crate) fn read(&self) -> ViewRead {
        let key = self.collector_epochs();
        if let Some(memo) = lock(&self.memo).as_ref().filter(|memo| memo.key == key) {
            return ViewRead::Memo(Arc::clone(&memo.view));
        }
        ViewRead::Build(
            self.collectors
                .iter()
                .map(|(&id, state)| (id, state.epoch, lock(&state.held).clone()))
                .collect(),
        )
    }

    /// Stores back what [`ViewRead::build`] made, where the state it was
    /// built from is still current: each decoded snapshot replaces its
    /// frame, and the view becomes the memo. Returns the view.
    pub(crate) fn keep(&self, built: Built) -> Arc<FleetView> {
        let Some((key, decoded)) = built.fresh else {
            return built.view;
        };
        for (id, epoch, snapshot) in decoded {
            if let Some(state) = self.collectors.get(&id).filter(|s| s.epoch == epoch) {
                let mut held = lock(&state.held);
                if let Held::Frame(_) = *held {
                    *held = Held::Decoded(snapshot);
                }
            }
        }
        if key == self.collector_epochs() {
            *lock(&self.memo) = Some(Memo {
                key,
                view: Arc::clone(&built.view),
            });
        }
        built.view
    }

    /// Clones `(collector id, latest snapshot)` pairs — the raw inputs
    /// of a fleet view. A collector still held as a frame is decoded
    /// first (once per epoch; the aggregator keeps the snapshot instead
    /// of the bytes), under whatever lock the caller holds. The rows
    /// share their hop sketches with the held snapshots, so the clone
    /// costs a refcount increment per flow, not a sketch copy. A frame
    /// that fails to decode (the walk at apply rules it out) is left
    /// out.
    pub fn collector_snapshots(&self) -> Vec<(u64, CollectorSnapshot)> {
        self.collectors
            .iter()
            .filter_map(|(&id, state)| {
                let snapshot = state.decoded().ok()?;
                Some((id, CollectorSnapshot::clone(&snapshot)))
            })
            .collect()
    }

    /// Takes what the last apply or `Bye` replaced, so the caller can
    /// free it outside the aggregator lock.
    pub(crate) fn take_released(&mut self) -> Released {
        std::mem::take(&mut self.released)
    }

    /// `(collector id, epoch)` of every contributing collector,
    /// ascending by id.
    pub fn collector_epochs(&self) -> Vec<(u64, u64)> {
        self.collectors
            .iter()
            .map(|(&id, s)| (id, s.epoch))
            .collect()
    }

    /// Executes a compiled [`QueryPlan`] against the merged view — the
    /// fleet tier of the unified query API. The view is memoised on the
    /// `(collector, epoch)` vector and shared with rule evaluation: the
    /// first read after an apply or `Bye` decodes the collectors still
    /// held as frames and merges, later reads only execute. A held
    /// frame that fails to decode is a typed error, never a panic.
    pub fn query(&self, plan: &QueryPlan) -> Result<QueryResult, QueryError> {
        self.shared_view()?.execute(plan)
    }

    /// Counts `n` transport-level framing failures (connections whose
    /// byte streams could not be resynchronized).
    pub(crate) fn record_decode_errors(&mut self, n: u64) {
        self.stats.decode_errors += n;
        self.publish_obs();
    }

    /// Drains fleet events accumulated since the last drain.
    pub fn drain_events(&mut self) -> Vec<FleetEvent> {
        let drained = self.events.drain(..).collect();
        self.publish_obs();
        drained
    }

    /// Live counters.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Re-runs every rule on the current merged view, emitting
    /// fired/cleared edges into the bounded event queue.
    ///
    /// Runs after every applied snapshot and every `Bye`. Each rule's
    /// plan executes on the memoised merged view, exactly as the same
    /// fleet query would, and the next query reuses that view. If a
    /// held frame fails to decode (the walk at apply rules it out), no
    /// rule changes state.
    fn evaluate_rules(&mut self) {
        if self.config.rules.is_empty() {
            return;
        }
        let Ok(view) = self.shared_view() else {
            return;
        };
        let collectors = view.collectors().len();
        for (i, rule) in self.config.rules.iter().enumerate() {
            let observed = view
                .execute(&rule.plan())
                .ok()
                .and_then(|answer| rule.observe(&answer));
            let event = match (self.fired[i], observed) {
                (false, Some(value)) => {
                    self.fired[i] = true;
                    self.last_observed[i] = value;
                    Some(FleetEvent {
                        rule: i,
                        edge: FleetEdge::Fired,
                        observed: value,
                        collectors,
                    })
                }
                (true, Some(value)) => {
                    // Still holding: remember the latest observation for
                    // the eventual cleared edge, but stay silent.
                    self.last_observed[i] = value;
                    None
                }
                (true, None) => {
                    self.fired[i] = false;
                    Some(FleetEvent {
                        rule: i,
                        edge: FleetEdge::Cleared,
                        observed: self.last_observed[i],
                        collectors,
                    })
                }
                (false, None) => None,
            };
            if let Some(event) = event {
                if self.events.len() >= EVENT_CAPACITY {
                    self.events.pop_front();
                    self.stats.events_dropped += 1;
                }
                self.events.push_back(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FleetCondition;
    use pint_collector::flow_table::TableStats;
    use pint_collector::{FlowId, FlowSummary, ShardSnapshot};
    use pint_core::RecorderKind;
    use pint_sketches::KllSketch;

    fn latency_snapshot(flow: FlowId, code_values: &[u64]) -> CollectorSnapshot {
        let mut sk = KllSketch::with_seed(64, 9);
        for &v in code_values {
            sk.update(v);
        }
        CollectorSnapshot::from_shards(vec![ShardSnapshot {
            shard: 0,
            flows: vec![(
                flow,
                FlowSummary {
                    kind: RecorderKind::LatencyQuantiles,
                    packets: code_values.len() as u64,
                    state_bytes: 100,
                    last_ts: 0,
                    hop_sketches: vec![KllSketch::with_seed(64, 9), sk].into(),
                    path: None,
                    inconsistencies: 0,
                },
            )],
            table_stats: TableStats::default(),
            ingested: code_values.len() as u64,
        }])
    }

    fn frame(collector_id: u64, epoch: u64, snap: CollectorSnapshot) -> SnapshotFrame {
        SnapshotFrame {
            collector_id,
            epoch,
            snapshot: snap,
        }
    }

    #[test]
    fn epochs_gate_staleness_per_collector() {
        let mut agg = FleetAggregator::new(FleetConfig::default());
        assert!(agg.apply_snapshot(frame(1, 5, latency_snapshot(10, &[1, 2, 3]))));
        assert!(
            !agg.apply_snapshot(frame(1, 5, latency_snapshot(10, &[9]))),
            "same epoch is stale"
        );
        assert!(
            !agg.apply_snapshot(frame(1, 4, latency_snapshot(10, &[9]))),
            "older epoch is stale"
        );
        assert!(agg.apply_snapshot(frame(1, 6, latency_snapshot(10, &[4, 5]))));
        // A different collector has its own epoch sequence.
        assert!(agg.apply_snapshot(frame(2, 1, latency_snapshot(11, &[7]))));
        let stats = agg.stats();
        assert_eq!(stats.snapshots_applied, 3);
        assert_eq!(stats.snapshots_stale, 2);
        assert_eq!(stats.collectors, 2);
        assert_eq!(agg.collector_epochs(), vec![(1, 6), (2, 1)]);
        // The view reflects the newest epoch only: flow 10 has 2 packets.
        assert_eq!(agg.view().snapshot().flow(10).unwrap().packets, 2);
    }

    #[test]
    fn a_held_frame_that_fails_to_decode_is_a_typed_error() {
        // The walk at apply rules this out; the read path must still
        // never panic on it.
        let mut agg = FleetAggregator::new(FleetConfig::default());
        agg.apply_snapshot(frame(1, 1, latency_snapshot(10, &[1])));
        agg.hold(2, 1, Held::Frame(Arc::from(&b"not a snapshot"[..])));
        let plan = pint_query::TelemetryQuery::new().plan().unwrap();
        assert!(matches!(agg.query(&plan), Err(QueryError::Wire(_))));
        assert_eq!(agg.view().num_flows(), 0);
        let held: Vec<u64> = agg
            .collector_snapshots()
            .iter()
            .map(|&(id, _)| id)
            .collect();
        assert_eq!(held, vec![1], "the undecodable collector is left out");
    }

    #[test]
    fn bye_removes_a_collector_from_the_view() {
        let mut agg = FleetAggregator::new(FleetConfig::default());
        agg.apply_snapshot(frame(1, 1, latency_snapshot(10, &[1])));
        agg.apply_snapshot(frame(2, 1, latency_snapshot(20, &[2])));
        assert_eq!(agg.view().num_flows(), 2);

        let mut bye = Vec::new();
        struct Id(u64);
        impl pint_wire::WireEncode for Id {
            fn encode_into(&self, out: &mut Vec<u8>) {
                pint_wire::WireWriter::new(out).put_varint(self.0);
            }
        }
        pint_wire::frame_into(FrameType::Bye, &Id(1), &mut bye);
        assert_eq!(agg.ingest_frame(&bye).unwrap(), FrameType::Bye);
        assert_eq!(agg.view().num_flows(), 1);
        assert!(agg.view().snapshot().flow(20).is_some());
    }

    #[test]
    fn malformed_frames_are_typed_errors_and_counted() {
        let mut agg = FleetAggregator::new(FleetConfig::default());
        assert!(agg.ingest_frame(b"not a frame").is_err());
        let good = frame(1, 1, latency_snapshot(10, &[1])).to_frame_bytes();
        for cut in 1..good.len() {
            let _ = agg.ingest_frame(&good[..cut]); // must never panic
        }
        let mut corrupt = good.clone();
        let payload_at = corrupt.len() - 3;
        corrupt[payload_at] ^= 0xFF;
        let _ = agg.ingest_frame(&corrupt);
        assert!(agg.stats().decode_errors > 0);
        assert_eq!(agg.stats().snapshots_applied, 0);
        // A good frame still applies afterwards.
        agg.ingest_frame(&good).unwrap();
        assert_eq!(agg.stats().snapshots_applied, 1);
    }

    #[test]
    fn acks_and_query_frames_are_typed_unsupported_errors() {
        // BatchAck is consumed by forwarders, DigestBatch by a
        // DigestServer, Query/QueryResponse by the serving transport.
        // An aggregator receiving one must say so (typed error +
        // counter), not silently acknowledge.
        struct Zero;
        impl pint_wire::WireEncode for Zero {
            fn encode_into(&self, out: &mut Vec<u8>) {
                pint_wire::WireWriter::new(out).put_varint(0);
            }
        }
        let mut agg = FleetAggregator::new(FleetConfig::default());
        let mut bytes = Vec::new();
        pint_wire::frame_into(FrameType::BatchAck, &Zero, &mut bytes);
        let err = agg.ingest_frame(&bytes).unwrap_err();
        assert!(matches!(
            err,
            FleetError::UnsupportedFrame(FrameType::BatchAck)
        ));
        let batch = pint_wire::DigestBatch {
            source: 7,
            seq: 1,
            reports: vec![pint_core::DigestReport::new(
                1,
                1,
                pint_core::Digest::new(1),
                3,
                0,
            )],
            trace: None,
        };
        let err = agg.ingest_frame(&batch.to_frame_bytes()).unwrap_err();
        assert!(matches!(
            err,
            FleetError::UnsupportedFrame(FrameType::DigestBatch)
        ));
        let stats = agg.stats();
        assert_eq!(stats.unsupported_frames, 2);
        assert_eq!(
            stats.frames, 0,
            "unsupported frames are not counted as ingested"
        );
        assert_eq!(stats.decode_errors, 0, "well-formed, just not ingestible");
        // The aggregator still works afterwards.
        assert!(agg.apply_snapshot(frame(1, 1, latency_snapshot(10, &[1]))));
    }

    #[test]
    fn path_scoped_rule_fires_only_for_flows_through_the_switch() {
        // The ROADMAP "flows whose decoded path contains switch S"
        // predicate, as a rule scope: inconsistencies on a flow routed
        // elsewhere must not trip the alarm.
        use pint_core::PathProgress;
        let path_snapshot = |flow: FlowId, path: Vec<u64>, inconsistencies: u64| {
            CollectorSnapshot::from_shards(vec![ShardSnapshot {
                shard: 0,
                flows: vec![(
                    flow,
                    FlowSummary {
                        kind: RecorderKind::PathTracing,
                        packets: 10,
                        state_bytes: 64,
                        last_ts: 0,
                        hop_sketches: Vec::new().into(),
                        path: Some(PathProgress {
                            resolved: path.len(),
                            k: path.len(),
                            path: Some(path),
                            inconsistencies: 0,
                        }),
                        inconsistencies,
                    },
                )],
                table_stats: TableStats::default(),
                ingested: 10,
            }])
        };
        let mut agg = FleetAggregator::new(FleetConfig {
            rules: vec![
                FleetRule::new(FleetCondition::InconsistenciesAbove { min_total: 5 })
                    .scoped_by(pint_query::Selector::PathThroughSwitch(19)),
            ],
            ..FleetConfig::default()
        });
        // Flow 1 avoids switch 19 but is wildly inconsistent: no alarm.
        agg.apply_snapshot(frame(1, 1, path_snapshot(1, vec![4, 5, 7], 100)));
        assert!(agg.drain_events().is_empty(), "out-of-scope flow");
        // Flow 2 goes through switch 19 and crosses the threshold.
        agg.apply_snapshot(frame(2, 1, path_snapshot(2, vec![4, 19, 7], 9)));
        let fired = agg.drain_events();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].edge, FleetEdge::Fired);
        assert_eq!(fired[0].observed, 9.0, "only the in-scope flow counts");
    }

    #[test]
    fn inconsistency_rule_fires_and_clears_across_snapshots() {
        let mut agg = FleetAggregator::new(FleetConfig {
            rules: vec![FleetRule::new(FleetCondition::InconsistenciesAbove {
                min_total: 5,
            })],
            ..FleetConfig::default()
        });
        let with_inconsistencies = |n: u64| {
            let mut snap = latency_snapshot(10, &[1, 2, 3]);
            let (mut flows, stats, ingested) = snap.into_parts();
            flows[0].1.inconsistencies = n;
            snap = CollectorSnapshot::from_parts(flows, stats, ingested);
            snap
        };
        agg.apply_snapshot(frame(1, 1, with_inconsistencies(2)));
        assert!(agg.drain_events().is_empty(), "below threshold");
        agg.apply_snapshot(frame(1, 2, with_inconsistencies(9)));
        let fired = agg.drain_events();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].edge, FleetEdge::Fired);
        assert_eq!(fired[0].observed, 9.0);
        // Still holding: silent.
        agg.apply_snapshot(frame(1, 3, with_inconsistencies(11)));
        assert!(agg.drain_events().is_empty());
        // Condition clears.
        agg.apply_snapshot(frame(1, 4, with_inconsistencies(0)));
        let cleared = agg.drain_events();
        assert_eq!(cleared.len(), 1);
        assert_eq!(cleared[0].edge, FleetEdge::Cleared);
        assert_eq!(cleared[0].observed, 11.0, "last-seen observation");
    }

    #[test]
    #[should_panic(expected = "fleet rule 1 is invalid")]
    fn an_invalid_rule_is_rejected_when_the_aggregator_is_built() {
        let quantile = |hop| {
            FleetRule::new(FleetCondition::QuantileAbove {
                hop,
                phi: 0.9,
                threshold: 1.0,
                min_samples: 1,
                decode: pint_query::ValueDecodeSpec {
                    bits: 8,
                    v_min: 100.0,
                    v_max: 1.0e7,
                },
            })
        };
        // Hop 0 is unused: the rule's plan fails validation.
        FleetAggregator::new(FleetConfig {
            rules: vec![quantile(1), quantile(0)],
            ..FleetConfig::default()
        });
    }
}
