//! Collector configuration.

use crate::events::EventRule;
use crate::prefilter::PrefilterConfig;
use pint_core::{DigestReport, FlowRecorder};
use std::sync::Arc;
use std::time::Duration;

/// Flow identifier (matches `pint_netsim::FlowId`; defined by the
/// query tier so every backend shares it).
pub use pint_query::FlowId;

/// Builds the per-flow Recording Module when a shard first sees a flow.
///
/// The factory receives the flow ID and the first [`DigestReport`] of the
/// flow, so it can size the recorder by the observed path length. That
/// first report is authoritative: later digests are absorbed into the
/// recorder as built, and a mid-flow route change shows up as decoder
/// inconsistencies (the `PathChanged` rule), not a re-size. On
/// [`Collector::restore`](crate::Collector::restore) the factory is
/// called with a header-only report — the checkpointed image's path
/// length, an empty digest — and must build the same recorder it built
/// for the flow's first report, since the image carries state, not
/// configuration. It runs on shard worker threads, hence `Send + Sync`.
pub type RecorderFactory =
    Arc<dyn Fn(FlowId, &DigestReport) -> Box<dyn FlowRecorder> + Send + Sync>;

/// Upper bound on one park of a blocked ring endpoint (a producer on a
/// full ring, a shard worker with nothing to do). The adaptive
/// controller starts at 1/16th of this and doubles toward it while a
/// thread keeps parking without work, so a quiet collector converges to
/// long sleeps while a busy one wakes quickly. Explicit wakes cover the
/// common case, so this mostly sets the worst-case wake latency for
/// lost races. 200 µs.
pub const PARK_TIMEOUT: Duration = Duration::from_micros(200);

/// Bound on undelivered collector events: if the consumer stops
/// draining, further events are counted as dropped instead of buffering
/// without limit (the collector's memory stays bounded even with a
/// negligent consumer). 65 536 events.
pub const EVENT_CAPACITY: usize = 65_536;

/// Tuning knobs for a [`Collector`](crate::Collector).
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Worker shards. Flows are hash-partitioned across shards, so every
    /// digest of one flow lands on the same worker and per-flow state
    /// needs no locking.
    pub shards: usize,
    /// Bounded depth, in batches, of each producer→shard SPSC ring. A
    /// producer that outruns a shard fills its ring and parks
    /// (backpressure) instead of buffering without limit. Rounded up to a
    /// power of two. Total ingest buffering is
    /// `producers × shards × ring_capacity × batch_size` digests.
    pub ring_capacity: usize,
    /// Digests a handle buffers per shard before shipping a batch.
    pub batch_size: usize,
    /// Upper bound on busy-poll iterations before a blocked side
    /// (producer on a full ring, shard worker with nothing to do) parks
    /// its thread. Each ring endpoint adapts its actual spin budget
    /// within `[4, spin_limit]`: sustained occupancy widens spin toward
    /// this bound, sustained idleness decays it so an idle thread stops
    /// stealing the core the other side needs; past the budget it parks
    /// for at most [`PARK_TIMEOUT`]. The live policy is published as
    /// `collector_adaptive_spin` gauges.
    pub spin_limit: u32,
    /// Per-shard cap on tracked flows; least-recently-updated flows are
    /// evicted beyond it.
    pub max_flows_per_shard: usize,
    /// Per-shard cap on approximate recorder state bytes; LRU eviction
    /// runs until the estimate fits.
    pub max_bytes_per_shard: usize,
    /// Evict flows idle for longer than this (measured in report
    /// timestamps, i.e. the sink's clock — deterministic in simulation).
    /// `None` disables TTL eviction.
    pub flow_ttl: Option<u64>,
    /// Streaming event-detection rules, evaluated on shard workers as
    /// batches are applied. At most 64 rules.
    pub rules: Vec<EventRule>,
    /// Optional ingest-side watch-list pre-filter. When set, producer
    /// handles drop digests whose flow is (probably) not on the watch
    /// list *before* buffering them, so off-list traffic never crosses
    /// a ring or touches shard state. Watch-listed flows are never
    /// dropped (the bloom filter has no false negatives); drops are
    /// counted in `digests_prefiltered`. An empty watch list drops
    /// everything — use `None` to ingest all flows.
    pub prefilter: Option<PrefilterConfig>,
    /// Metrics registry the collector publishes its self-telemetry into
    /// (per-shard counters/gauges, stage-timing histograms). Share one
    /// registry across tiers to serve whole-process metrics from a
    /// single `Metrics` wire frame; `None` gives the collector a
    /// private registry (read it via
    /// [`Collector::metrics`](crate::Collector::metrics)).
    pub metrics: Option<pint_obs::MetricsRegistry>,
    /// Flight recorder for pipeline tracing: each applied batch is
    /// stamped as a `CollectorBatch` trace event on the applying
    /// shard's lane. `None` disables tracing (the hot path pays
    /// nothing). Share one recorder across tiers — and drive it from
    /// the same clock as `metrics` — to read one end-to-end timeline.
    pub trace: Option<pint_obs::FlightRecorder>,
}

impl Default for CollectorConfig {
    /// Defaults tuned from the `collector_ingest_sweep` bench matrix
    /// (ring capacity × batch size, then spin limit at the winning
    /// geometry — recorded alongside `BENCH_ingest.json`; the sweep runs
    /// the contended 2-producer × 2-shard cell under flow-cap eviction
    /// churn, the geometry most sensitive to these knobs):
    ///
    /// * `batch_size: 1024` — batch size dominated the sweep; 1024 ran
    ///   at or ahead of 256 (typically 15–30% ahead) and far ahead of 64
    ///   at every ring depth, because ring synchronization (and a
    ///   possible wake) is paid per batch. The cost is buffering latency
    ///   and up to `ring_capacity` pooled buffers of this size retained
    ///   per producer×shard lane; latency-sensitive deployments should
    ///   dial it down and `flush()` often.
    /// * `ring_capacity: 64` — r16 was consistently behind (producers
    ///   stall before the shard's drain runs can amortize); r256 bought
    ///   a further few-to-20% on some runs by letting backed-up lanes
    ///   decouple longer, but at 4× the buffering and pool ceiling.
    ///   64 is the balance; raise it when memory is cheap and producers
    ///   are bursty.
    /// * `spin_limit: 256` — the spin column (16/64/256 at r64/b1024)
    ///   stayed within the churn cell's run-to-run noise: this is an
    ///   *upper bound* on an adaptive budget that decays toward 4 when
    ///   spinning stops paying, so a generous bound costs CPU only
    ///   while the other side is actively making progress, and it spares
    ///   a park/unpark round trip when it is.
    fn default() -> Self {
        Self {
            shards: 4,
            ring_capacity: 64,
            batch_size: 1_024,
            spin_limit: 256,
            max_flows_per_shard: 65_536,
            max_bytes_per_shard: 64 << 20,
            flow_ttl: None,
            rules: Vec::new(),
            prefilter: None,
            metrics: None,
            trace: None,
        }
    }
}

impl CollectorConfig {
    /// A config with `shards` workers and defaults elsewhere.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }

    /// Validates invariants (positive sizes, rule-count limit).
    pub(crate) fn validate(&self) {
        assert!(self.shards >= 1, "need at least one shard");
        assert!(self.ring_capacity >= 1, "ring capacity must be positive");
        assert!(self.batch_size >= 1, "batch size must be positive");
        assert!(self.max_flows_per_shard >= 1, "flow cap must be positive");
        assert!(
            self.rules.len() <= 64,
            "at most 64 event rules (per-flow fired-state is a u64 bitmask)"
        );
    }
}
