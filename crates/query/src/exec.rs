//! Plan execution: the shared selection/projection semantics every
//! backend delegates to.
//!
//! Backends *pre-narrow* for performance (a collector routes a flow-set
//! plan only to owning shards; a snapshot refines references and clones
//! only the rows it keeps) and then call [`refine`] + [`project`], so
//! ordering, tie-breaking, and projection arithmetic are defined in
//! exactly one place — the reason identical state yields
//! byte-identical [`QueryResult`]s on every tier.

use crate::plan::{Projection, QueryError, QueryPlan, Selector};
use crate::{FlowId, FlowSummary};
use pint_core::dynamic::DynamicAggregator;
use pint_sketches::KllSketch;
use std::borrow::Borrow;
use std::collections::HashSet;

/// How fresh a backend's state is — the as-of stamp every
/// [`QueryResponse`](crate::QueryResponse) carries, so a dashboard can
/// tell "no traffic" from "stale replica".
///
/// The units are backend-defined but consistent per backend: a
/// collector or fleet view reports digest timestamps (its flows'
/// newest `last_ts`), a fleet aggregator reports snapshot epochs.
/// `lag()` compares applied against seen in those same units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Watermark {
    /// Newest timestamp/epoch *applied* to the served state — what the
    /// answer is as-of.
    pub newest_applied: u64,
    /// Newest timestamp/epoch the backend has *seen* (applied or not);
    /// equals `newest_applied` when fully caught up.
    pub newest_seen: u64,
    /// Contributing sources: collector shards, fleet collectors, …
    /// Zero means the backend serves no state yet.
    pub sources: u64,
}

impl Watermark {
    /// How far applied state trails what has been seen (0 = caught up).
    pub fn lag(&self) -> u64 {
        self.newest_seen.saturating_sub(self.newest_applied)
    }
}

/// Something a [`QueryPlan`] executes against: a local
/// `Collector`, a merged `FleetView`, or a remote `QueryClient`.
pub trait QueryBackend {
    /// Executes the plan against this backend's current state.
    fn query(&self, plan: &QueryPlan) -> Result<QueryResult, QueryError>;

    /// This backend's freshness watermark, if it tracks one. The
    /// default (`None`) makes servers stamp a zero watermark rather
    /// than omit it — responses always carry an as-of marker.
    fn watermark(&self) -> Option<Watermark> {
        None
    }
}

/// What a query returns — typed rows, not a whole snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Full per-flow rows, in the selector's order.
    Summaries(Vec<(FlowId, FlowSummary)>),
    /// One hop's merged code-space quantiles over the selection.
    HopQuantiles {
        /// The queried hop (1-based).
        hop: u64,
        /// Samples in the merged sketch (0 = no data at that hop).
        samples: u64,
        /// `(phi, code)` per requested quantile; empty when no
        /// selected flow has data at the hop. Codes are in *code
        /// space* — decode via [`decode_quantiles`](Self::decode_quantiles).
        quantiles: Vec<(f64, u64)>,
    },
    /// One hop's merged quantiles over the selection, decoded
    /// server-side to real values (the plan carried a
    /// [`ValueDecodeSpec`](crate::ValueDecodeSpec)).
    HopQuantilesDecoded {
        /// The queried hop (1-based).
        hop: u64,
        /// Samples in the merged sketch (0 = no data at that hop).
        samples: u64,
        /// `(phi, value)` per requested quantile, in value space (e.g.
        /// nanoseconds); empty when no selected flow has data at the
        /// hop.
        quantiles: Vec<(f64, f64)>,
    },
    /// Path-reconstruction progress over the selection.
    PathCompletion {
        /// Selected path-tracing flows whose route fully decoded.
        complete: u64,
        /// Selected path-tracing flows in total.
        total: u64,
    },
    /// Fully reconstructed routes, in the selector's order.
    DecodedPaths(Vec<(FlowId, Vec<u64>)>),
    /// Aggregate counters over the selection.
    Stats(SelectionStats),
}

impl QueryResult {
    /// Rows in the result (flows for `Summaries`/`DecodedPaths`,
    /// quantiles for `HopQuantiles`, path-tracing flows for
    /// `PathCompletion`, selected flows for `Stats`).
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Summaries(rows) => rows.len(),
            QueryResult::HopQuantiles { quantiles, .. } => quantiles.len(),
            QueryResult::HopQuantilesDecoded { quantiles, .. } => quantiles.len(),
            QueryResult::PathCompletion { total, .. } => *total as usize,
            QueryResult::DecodedPaths(rows) => rows.len(),
            QueryResult::Stats(s) => s.flows as usize,
        }
    }

    /// `true` when [`len`](Self::len) is 0.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decompresses a `HopQuantiles` result through the deployment's
    /// value codec: `(phi, value)` pairs in value space (e.g.
    /// nanoseconds). A `HopQuantilesDecoded` result is already in value
    /// space and comes back as-is (the codec is ignored). Empty for
    /// every other variant.
    pub fn decode_quantiles(&self, codec: &DynamicAggregator) -> Vec<(f64, f64)> {
        match self {
            QueryResult::HopQuantiles { quantiles, .. } => quantiles
                .iter()
                .map(|&(phi, code)| (phi, codec.decode(code)))
                .collect(),
            QueryResult::HopQuantilesDecoded { quantiles, .. } => quantiles.clone(),
            _ => Vec::new(),
        }
    }
}

/// Aggregate counters of one selection (the `Stats` projection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SelectionStats {
    /// Selected flows.
    pub flows: u64,
    /// Digests recorded across them (saturating).
    pub packets: u64,
    /// Their recorder-state byte estimates, summed (saturating).
    pub state_bytes: u64,
    /// Inference-contradicting digests across them (saturating).
    pub inconsistencies: u64,
    /// Backend table totals — only present for [`Selector::All`]
    /// (narrow selectors don't consult every table, so per-table
    /// counters would be partial and misleading).
    pub table: Option<TableTotals>,
}

/// Whole-backend table counters, summed over the consulted tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableTotals {
    /// Flows ever created.
    pub created: u64,
    /// Flows evicted by count/byte caps.
    pub evicted_lru: u64,
    /// Flows evicted by idle TTL.
    pub evicted_ttl: u64,
    /// Digests applied.
    pub ingested: u64,
}

/// Applies a plan's options and selector to candidate rows, producing
/// the final row set in the selector's canonical order.
///
/// `rows` must be ascending by flow ID with unique IDs (the natural
/// shape of a merged snapshot); backends may pass any superset of the
/// flows the plan selects — refinement is idempotent, so shard- or
/// view-level pre-narrowing never changes the answer. Rows may be owned
/// summaries or references: a backend holding its rows refines
/// `&FlowSummary`s and clones only the ones kept.
pub fn refine<R: Borrow<FlowSummary> + Clone>(
    mut rows: Vec<(FlowId, R)>,
    plan: &QueryPlan,
) -> Vec<(FlowId, R)> {
    if let Some(since) = plan.options.updated_since {
        rows.retain(|(_, s)| s.borrow().last_ts > since);
    }
    rows = match &plan.selector {
        Selector::All => rows,
        Selector::FlowSet(ids) => {
            let mut wanted = ids.clone();
            wanted.sort_unstable();
            wanted.dedup();
            rows.retain(|(f, _)| wanted.binary_search(f).is_ok());
            rows
        }
        Selector::WatchList(ids) => {
            let mut seen = HashSet::with_capacity(ids.len());
            let mut out = Vec::new();
            for &id in ids {
                if !seen.insert(id) {
                    continue;
                }
                // The first row of the ID's run: the same row whichever
                // superset of it a backend passed.
                let i = rows.partition_point(|(f, _)| *f < id);
                if rows.get(i).is_some_and(|(f, _)| *f == id) {
                    out.push(rows[i].clone());
                }
            }
            out
        }
        Selector::TopK(k) => {
            rows.sort_by(|a, b| {
                top_k_order((a.1.borrow().packets, a.0), (b.1.borrow().packets, b.0))
            });
            rows.truncate(*k);
            rows
        }
        Selector::PathThroughSwitch(switch) => {
            rows.retain(|(_, s)| {
                s.borrow()
                    .path
                    .as_ref()
                    .and_then(|p| p.path.as_deref())
                    .is_some_and(|p| p.contains(switch))
            });
            rows
        }
        Selector::OfKind(kind) => {
            rows.retain(|(_, s)| s.borrow().kind == *kind);
            rows
        }
    };
    if let Some(cap) = plan.options.max_flows {
        rows.truncate(cap);
    }
    rows
}

/// The query tier's one top-K ordering, over `(packets, flow)` pairs:
/// most packets first, equal packet counts by ascending flow ID.
///
/// Every backend's pre-narrowing (a shard's local top-K) must
/// truncate with exactly this order —
/// a drifted copy would change which tied flows survive local
/// truncation before [`refine`] re-ranks, silently diverging
/// backends. Hence one shared comparator instead of five hand-written
/// sorts.
pub fn top_k_order(a: (u64, FlowId), b: (u64, FlowId)) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Merges hop `hop`'s code-space sketches across `rows`, in row order.
/// `None` if no row has data at that hop. The fixed-seed base sketch
/// makes the merge reproducible for identical inputs — the property
/// the cross-backend equivalence tests rely on.
fn merge_hop_sketches(rows: &[(FlowId, FlowSummary)], hop: usize) -> Option<KllSketch> {
    let mut merged: Option<KllSketch> = None;
    for (_, s) in rows {
        let Some(sk) = s.hop_sketches.get(hop) else {
            continue;
        };
        if sk.is_empty() {
            continue;
        }
        match merged.as_mut() {
            None => {
                let mut base = KllSketch::with_seed(256, 0x5EED_4A11);
                base.merge(sk);
                merged = Some(base);
            }
            Some(m) => m.merge(sk),
        }
    }
    merged
}

/// Applies a projection to refined rows (consuming them — summary
/// rows move straight into the result, no re-clone). `table` carries
/// the backend's table totals for [`Projection::Stats`] under
/// [`Selector::All`] (pass `None` otherwise).
pub fn project(
    rows: Vec<(FlowId, FlowSummary)>,
    projection: &Projection,
    table: Option<TableTotals>,
) -> QueryResult {
    match projection {
        Projection::Summaries => QueryResult::Summaries(rows),
        Projection::HopQuantiles { hop, phis, decode } => {
            let merged = merge_hop_sketches(&rows, *hop);
            let samples = merged.as_ref().map_or(0, KllSketch::count);
            let quantiles: Vec<(f64, u64)> = merged
                .map(|sk| {
                    phis.iter()
                        .filter_map(|&phi| sk.quantile(phi).map(|code| (phi, code)))
                        .collect()
                })
                .unwrap_or_default();
            match decode {
                // Server-side decode: this runs inside every backend's
                // `project`, so the collector, a fleet view, and a TCP
                // responder all answer identical real-valued rows.
                // The spec was validated with the plan, so constructing
                // the codec cannot panic. The seed only affects
                // encoding-side hash choices, never decoding.
                Some(spec) => {
                    let codec = DynamicAggregator::new(0, spec.bits, spec.v_min, spec.v_max);
                    QueryResult::HopQuantilesDecoded {
                        hop: *hop as u64,
                        samples,
                        quantiles: quantiles
                            .into_iter()
                            .map(|(phi, code)| (phi, codec.decode(code)))
                            .collect(),
                    }
                }
                None => QueryResult::HopQuantiles {
                    hop: *hop as u64,
                    samples,
                    quantiles,
                },
            }
        }
        Projection::PathCompletion => {
            let mut complete = 0u64;
            let mut total = 0u64;
            for (_, s) in &rows {
                if let Some(p) = &s.path {
                    total += 1;
                    if p.is_complete() {
                        complete += 1;
                    }
                }
            }
            QueryResult::PathCompletion { complete, total }
        }
        Projection::DecodedPaths => QueryResult::DecodedPaths(
            rows.into_iter()
                .filter_map(|(f, s)| s.path.and_then(|p| p.path).map(|path| (f, path)))
                .collect(),
        ),
        Projection::Stats => {
            let mut stats = SelectionStats {
                flows: rows.len() as u64,
                table,
                ..SelectionStats::default()
            };
            for (_, s) in &rows {
                stats.packets = stats.packets.saturating_add(s.packets);
                stats.state_bytes = stats.state_bytes.saturating_add(s.state_bytes as u64);
                stats.inconsistencies = stats.inconsistencies.saturating_add(s.inconsistencies);
            }
            QueryResult::Stats(stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryQuery;
    use pint_core::{PathProgress, RecorderKind};

    fn row(flow: FlowId, packets: u64, last_ts: u64) -> (FlowId, FlowSummary) {
        (
            flow,
            FlowSummary {
                kind: RecorderKind::LatencyQuantiles,
                packets,
                state_bytes: 8,
                last_ts,
                hop_sketches: Vec::new().into(),
                path: None,
                inconsistencies: flow % 3,
            },
        )
    }

    fn path_row(flow: FlowId, path: Option<Vec<u64>>) -> (FlowId, FlowSummary) {
        let k = path.as_ref().map_or(4, Vec::len);
        (
            flow,
            FlowSummary {
                kind: RecorderKind::PathTracing,
                packets: 1,
                state_bytes: 8,
                last_ts: 0,
                hop_sketches: Vec::new().into(),
                path: Some(PathProgress {
                    resolved: path.as_ref().map_or(1, Vec::len),
                    k,
                    path,
                    inconsistencies: 0,
                }),
                inconsistencies: 0,
            },
        )
    }

    #[test]
    fn top_k_ties_break_by_ascending_flow_id() {
        // All equal packets: selection must be the k smallest IDs, in
        // (packets desc, id asc) order — i.e. plain ascending here.
        let rows: Vec<_> = (0..10).map(|f| row(f, 7, 0)).collect();
        let plan = TelemetryQuery::new().top_k(4).plan().unwrap();
        let picked = refine(rows, &plan);
        let ids: Vec<FlowId> = picked.iter().map(|&(f, _)| f).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn watch_list_preserves_request_order_and_dedupes() {
        let rows = vec![row(1, 1, 0), row(2, 2, 0), row(3, 3, 0)];
        let plan = TelemetryQuery::new().watch([3, 99, 1, 3]).plan().unwrap();
        let picked = refine(rows, &plan);
        let ids: Vec<FlowId> = picked.iter().map(|&(f, _)| f).collect();
        assert_eq!(
            ids,
            vec![3, 1],
            "request order, unknown absent, dup collapsed"
        );
    }

    #[test]
    fn since_filters_before_top_k_ranks() {
        // Flow 1 is heaviest but cold; a delta top-k must not include it.
        let rows = vec![row(1, 1_000, 5), row(2, 10, 50), row(3, 20, 60)];
        let plan = TelemetryQuery::new().top_k(1).since(10).plan().unwrap();
        let picked = refine(rows, &plan);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].0, 3);
    }

    #[test]
    fn path_through_switch_matches_decoded_paths_only() {
        let rows = vec![
            path_row(1, Some(vec![4, 19, 7])),
            path_row(2, Some(vec![4, 5, 7])),
            path_row(3, None), // undecoded: cannot match
        ];
        let plan = TelemetryQuery::new().through_switch(19).plan().unwrap();
        let picked = refine(rows, &plan);
        assert_eq!(picked.len(), 1);
        assert_eq!(picked[0].0, 1);
    }

    #[test]
    fn of_kind_keeps_only_matching_recorders() {
        let rows = vec![
            row(1, 10, 0),                    // LatencyQuantiles
            path_row(2, Some(vec![4, 5, 7])), // PathTracing
            row(3, 30, 0),                    // LatencyQuantiles
        ];
        let plan = TelemetryQuery::new()
            .of_kind(RecorderKind::LatencyQuantiles)
            .plan()
            .unwrap();
        let picked = refine(rows.clone(), &plan);
        let ids: Vec<FlowId> = picked.iter().map(|&(f, _)| f).collect();
        assert_eq!(ids, vec![1, 3]);
        let plan = TelemetryQuery::new()
            .of_kind(RecorderKind::FrequentValues)
            .plan()
            .unwrap();
        assert!(refine(rows, &plan).is_empty(), "no such recorder present");
    }

    #[test]
    fn projections_compute_expected_aggregates() {
        let rows = vec![
            path_row(1, Some(vec![4, 19, 7])),
            path_row(2, None),
            row(5, 40, 9),
        ];
        match project(rows.clone(), &Projection::PathCompletion, None) {
            QueryResult::PathCompletion { complete, total } => {
                assert_eq!((complete, total), (1, 2));
            }
            other => panic!("unexpected {other:?}"),
        }
        match project(rows.clone(), &Projection::DecodedPaths, None) {
            QueryResult::DecodedPaths(paths) => {
                assert_eq!(paths, vec![(1, vec![4, 19, 7])]);
            }
            other => panic!("unexpected {other:?}"),
        }
        match project(
            rows.clone(),
            &Projection::Stats,
            Some(TableTotals::default()),
        ) {
            QueryResult::Stats(s) => {
                assert_eq!(s.flows, 3);
                assert_eq!(s.packets, 42);
                assert_eq!(s.inconsistencies, 2, "flow 5 contributes 5 % 3");
                assert!(s.table.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn max_flows_caps_after_selector_order() {
        let rows: Vec<_> = (0..10).map(|f| row(f, f, 0)).collect();
        let plan = TelemetryQuery::new().top_k(8).max_flows(2).plan().unwrap();
        let picked = refine(rows, &plan);
        let ids: Vec<FlowId> = picked.iter().map(|&(f, _)| f).collect();
        assert_eq!(ids, vec![9, 8], "heaviest two of the top-8 ranking");
    }
}
