//! # pint-fleet — cross-collector aggregation
//!
//! `pint-collector` scales recording *within* one process; real
//! deployments run one collector per pod/rack and still need global
//! answers ("the p99 across every flow through hop 3, fleet-wide").
//! This crate is that tier, mirroring the local-collection + global
//! aggregation split argued for by distributed INT monitoring work
//! (Simsek et al.) and switch-local event detection (Gruber et al.):
//!
//! ```text
//!  collector process A ──┐  SnapshotFrame (pint-wire,
//!  collector process B ──┤  TCP or in-memory)        ┌──────────────┐
//!  collector process C ──┴─────────────────────────▶ │ FleetServer /│
//!                                                    │FleetAggregator│
//!      keyed by (collector id, epoch);               └──────┬───────┘
//!      newest epoch wins per collector                      │
//!                                                           ▼
//!                             FleetView: per-flow KLL merge across
//!                             collectors, fleet quantiles, top-K,
//!                             watch lists  +  FleetRule events
//!                             (fired/cleared edges)
//! ```
//!
//! * **Transport** — [`FleetServer`] accepts frames over a std-only
//!   `std::net::TcpListener`; [`InMemoryTransport`] carries the *same
//!   encoded bytes* in-process for tests and single-binary setups. Both
//!   feed the same [`FleetAggregator`].
//! * **Keying** — frames carry `(collector_id, epoch)`; the aggregator
//!   keeps the newest epoch per collector and counts stale frames
//!   instead of applying them out of order. An applied frame is checked
//!   by a walk that builds nothing and held (and journaled) as the
//!   bytes received; it is decoded the first time a read needs it.
//! * **Merging** — the fleet view lifts the collector's deterministic,
//!   associative snapshot merge one level: flows tracked by several
//!   collectors have their per-hop KLL sketches merged in collector-id
//!   order, so the answer is independent of frame arrival order.
//! * **Queries** — [`FleetView::execute`] runs any `pint-query`
//!   [`QueryPlan`] (selectors × projections × delta options) against
//!   the merged view, selecting over references and cloning only the
//!   rows it keeps. The aggregator memoises that view per
//!   `(collector, epoch)` vector, so repeat queries and rules skip the
//!   merge; the same plan answers over TCP via
//!   [`FleetClient::query`] ↔ [`FleetServer`] `Query`/`QueryResponse`
//!   frames, byte-identical to local execution on the same state.
//! * **Rules** — a [`FleetRule`] is a query plan plus a threshold.
//!   After every applied snapshot each rule's plan runs on the merged
//!   view, and [`FleetEvent`] fired/cleared edges report when the
//!   answer crosses the threshold (hysteresis, like the collector's
//!   per-flow rules). A rule's scope is its plan's selector, so "alarm
//!   on every flow through switch S" is
//!   `rule.scoped_by(Selector::PathThroughSwitch(s))`.
//! * **Edge ingestion** — raw digests ship upstream too:
//!   [`DigestForwarder`] tails an edge process's digest stream and
//!   sends sequence-numbered `DigestBatch` frames with bounded
//!   buffering, reconnect + exponential backoff, and shed-oldest
//!   overload behavior; [`DigestServer`] — the only endpoint that
//!   takes them — ingests those streams from many forwarders on one
//!   non-blocking poll thread, deduplicates per `(source, seq)`,
//!   acknowledges every batch (`BatchAck`), and feeds a local
//!   collector's producer rings. Delivery is at-least-once
//!   with exact accounting: after shutdown,
//!   `delivered + deduped + shed == sent` holds per forwarder. Each
//!   side takes one config ([`ForwarderConfig`], [`DigestServerConfig`])
//!   whose optional fields combine freely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregator;
mod error;
mod forwarder;
mod ingest;
mod rules;
mod transport;
mod view;

pub use aggregator::{FleetAggregator, FleetConfig, FleetRestoreReport, FleetStats};
pub use error::FleetError;
pub use forwarder::{DigestForwarder, ForwarderConfig, ForwarderStats};
pub use ingest::{BatchSink, DigestServer, DigestServerConfig, DigestServerStats};
pub use rules::{FleetCondition, FleetEdge, FleetEvent, FleetRule};
pub use transport::{FleetClient, FleetServer, InMemorySender, InMemoryTransport};
pub use view::FleetView;
// The query tier this fleet is a backend of, re-exported for plan
// building at the call site.
pub use pint_query::{
    Projection, QueryBackend, QueryError, QueryPlan, QueryResult, Selector, TelemetryQuery,
};
