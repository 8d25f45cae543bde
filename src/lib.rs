//! # pint — facade crate
//!
//! Re-exports the full PINT reproduction workspace under one roof so the
//! examples and integration tests can use a single dependency:
//!
//! * `core` — queries, distributed coding, encoders/decoders.
//! * `sketches` — KLL, Space-Saving, Morris.
//! * `dataplane` — switch pipeline + fixed-point math.
//! * `netsim` — packet-level network simulator.
//! * `hpcc` — HPCC congestion control (INT & PINT modes).
//! * `traceback` — PPM / AMS2 baselines.
//! * `collector` — sharded, multi-threaded ingestion & inference.
//! * `wire` — versioned binary codec for digests, sketches, snapshots.
//! * `fleet` — cross-collector aggregation over TCP / in-memory frames.
//! * `query` — one typed `TelemetryQuery`/`QueryPlan` read API executed
//!   on collectors, fleet views, and over the wire.
//! * `obs` — self-telemetry: lock-free metrics registry, stage-timing
//!   histograms, pluggable clocks, text + wire exposition.
//! * `store` — durable persistence: checksummed append-only logs,
//!   off-hot-path journaling, crash-consistent restore, digest replay.

pub use pint_collector as collector;
pub use pint_core as core;
pub use pint_dataplane as dataplane;
pub use pint_fleet as fleet;
pub use pint_hpcc as hpcc;
pub use pint_netsim as netsim;
pub use pint_obs as obs;
pub use pint_query as query;
pub use pint_sketches as sketches;
pub use pint_store as store;
pub use pint_traceback as traceback;
pub use pint_wire as wire;

pub use pint_collector::{Collector, CollectorConfig, CollectorHandle, EventRule, RuleCondition};
pub use pint_core::{
    Digest, DigestReport, FlowRecorder, GlobalHash, HashFamily, MetadataKind, PathDecoder,
    PathTracer, QueryEngine, QuerySpec, SchemeConfig, TracerConfig,
};
pub use pint_obs::{
    FlightRecorder, MetricsRegistry, MetricsSnapshot, MonotonicClock, TraceDump, TraceEvent,
    TraceStage, VirtualClock,
};
pub use pint_query::{QueryBackend, QueryPlan, QueryResult, TelemetryQuery, Watermark};
pub use pint_store::{
    Journal, JournalConfig, Replayer, SpillQueue, StoreError, StoreOptions, StoreReader,
    StoreWriter,
};
