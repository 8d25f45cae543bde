//! # pint-query — one typed read API over every telemetry tier
//!
//! The paper organizes its control plane around a *query tuple* (§3.3:
//! value, aggregation, budgets, flow definition) compiled into one
//! execution plan. The read side of this workspace had grown the
//! opposite way: per-tier ad-hoc methods (flow-set and top-K snapshot
//! calls on the collector and the fleet view, a wire tier that could
//! only ship full snapshots). This crate makes the read path symmetrical with the
//! write path: one declarative [`TelemetryQuery`] compiles into a
//! [`QueryPlan`] that any backend executes through the single
//! [`QueryBackend`] trait.
//!
//! ```text
//!   TelemetryQuery (builder)            backends (QueryBackend)
//!   selector  × projection  × options   ┌──────────────────────────┐
//!   ─────────   ──────────    ───────   │ Collector    (local,     │
//!   all flows   summaries     delta-    │   plan routed to owning  │
//!   flow set    hop quantiles since     │   shards only)           │
//!   top-K       path compl.   max-flows │ FleetView    (merged,    │
//!   watch list  decoded paths           │   selection before merge)│
//!   path ∋ S    stats                   │ QueryClient  (TCP, Query/│
//!                 │                     │   QueryResponse frames)  │
//!                 ▼                     └──────────────────────────┘
//!            QueryPlan ──────────────────────────▶ QueryResult
//! ```
//!
//! Identical state yields **identical** results on every backend: the
//! final row ordering, tie-breaking, and projection arithmetic live in
//! this crate ([`refine`], [`project`]) and backends only *pre-narrow*
//! (route to owning shards, skip cold flows) before delegating here.
//! The workspace pins this with a proptest that compares local,
//! fleet-view, and loopback-TCP execution byte-for-byte.
//!
//! Build plans with the fluent builder:
//!
//! ```
//! use pint_query::TelemetryQuery;
//!
//! let plan = TelemetryQuery::new()
//!     .top_k(10)
//!     .hop_quantiles(2, [0.5, 0.99])
//!     .plan()
//!     .unwrap();
//! assert_eq!(plan, pint_query::QueryPlan::decode_checked(&pint_wire::WireEncode::encode(&plan)).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod plan;
pub mod remote;
mod summary;
mod wire;

pub use exec::{
    project, refine, top_k_order, QueryBackend, QueryResult, SelectionStats, TableTotals, Watermark,
};
pub use plan::{
    Projection, QueryError, QueryOptions, QueryPlan, Selector, TelemetryQuery, ValueDecodeSpec,
};
pub use remote::{QueryClient, QueryRequest, QueryResponder, QueryResponse};
pub use summary::FlowSummary;
pub use wire::SummaryRow;

/// Flow identifier shared by every tier (the `flow` of a
/// [`DigestReport`](pint_core::DigestReport)).
pub type FlowId = u64;
