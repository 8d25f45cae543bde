//! The merged fleet view: one queryable snapshot over N collectors.
//!
//! `CollectorSnapshot::from_shards` already merges *shards* of one
//! process deterministically; this module lifts the same associative
//! merge one level, to snapshots from different collector *processes*.
//! The new case is flow overlap: with per-pod collectors, packets of
//! one flow may be recorded by several pods (ECMP, sink sharding), so
//! equal flow IDs are merged — per-hop KLL sketches via the sketch's
//! associative `merge`, counters summed — rather than duplicated.
//! Collectors are processed in ascending collector-id order, making the
//! result independent of frame arrival order.

use pint_collector::{CollectorSnapshot, FlowId, FlowSummary};
use pint_query::{QueryBackend, QueryError, QueryPlan, QueryResult};

/// A point-in-time, queryable merge of every collector's latest
/// snapshot.
#[derive(Debug, Clone)]
pub struct FleetView {
    merged: CollectorSnapshot,
    collectors: Vec<u64>,
}

impl FleetView {
    /// Merges collector snapshots into one view. Input order does not
    /// matter: snapshots are sorted by collector id first, so any
    /// arrival interleaving yields the same view.
    pub fn merge(snapshots: impl IntoIterator<Item = (u64, CollectorSnapshot)>) -> Self {
        let mut tagged: Vec<(u64, CollectorSnapshot)> = snapshots.into_iter().collect();
        tagged.sort_by_key(|&(id, _)| id);
        let collectors: Vec<u64> = tagged.iter().map(|&(id, _)| id).collect();

        let mut all_flows = Vec::new();
        let mut all_stats = Vec::new();
        let mut ingested = 0u64;
        for (_, snap) in tagged {
            let (flows, stats, n) = snap.into_parts();
            all_flows.extend(flows);
            all_stats.extend(stats);
            ingested = ingested.saturating_add(n);
        }
        // Stable sort: duplicates of one flow stay in collector-id
        // order, so the fold below merges them deterministically.
        all_flows.sort_by_key(|&(f, _)| f);
        let mut merged: Vec<(FlowId, FlowSummary)> = Vec::with_capacity(all_flows.len());
        for (flow, summary) in all_flows {
            match merged.last_mut() {
                Some((last, dst)) if *last == flow => dst.merge(summary),
                _ => merged.push((flow, summary)),
            }
        }
        Self {
            merged: CollectorSnapshot::from_parts(merged, all_stats, ingested),
            collectors,
        }
    }

    /// The merged snapshot: per-flow lookup and plan execution work on
    /// it as on any collector's snapshot.
    pub fn snapshot(&self) -> &CollectorSnapshot {
        &self.merged
    }

    /// Collector ids contributing to this view, ascending.
    pub fn collectors(&self) -> &[u64] {
        &self.collectors
    }

    /// Flows tracked fleet-wide.
    pub fn num_flows(&self) -> usize {
        self.merged.num_flows()
    }

    /// Executes a compiled [`QueryPlan`] against the merged view — the
    /// fleet backend of the workspace-wide query API. The same plan
    /// runs unchanged on a local `Collector` or over TCP, with
    /// identical results on identical state: the merged snapshot's
    /// [`execute`](CollectorSnapshot::execute) refines references,
    /// clones only the rows it keeps, and shares `pint-query`'s
    /// ordering and projection with every other backend.
    pub fn execute(&self, plan: &QueryPlan) -> Result<QueryResult, QueryError> {
        self.merged.execute(plan)
    }
}

impl QueryBackend for FleetView {
    /// The fleet backend of the unified query API.
    fn query(&self, plan: &QueryPlan) -> Result<QueryResult, QueryError> {
        self.execute(plan)
    }

    /// A merged view's freshness is the newest flow activity timestamp
    /// it holds (a view has no epoch stream of its own; the fleet
    /// server overrides this with its aggregator's epoch watermark).
    fn watermark(&self) -> Option<pint_query::Watermark> {
        let newest = self
            .merged
            .flows()
            .map(|(_, s)| s.last_ts)
            .max()
            .unwrap_or(0);
        Some(pint_query::Watermark {
            newest_applied: newest,
            newest_seen: newest,
            sources: self.collectors.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_collector::flow_table::TableStats;
    use pint_collector::ShardSnapshot;
    use pint_core::RecorderKind;
    use pint_sketches::KllSketch;

    fn summary(values: &[u64], seed: u64) -> FlowSummary {
        let mut sk = KllSketch::with_seed(64, seed);
        for &v in values {
            sk.update(v);
        }
        FlowSummary {
            kind: RecorderKind::LatencyQuantiles,
            packets: values.len() as u64,
            state_bytes: values.len() * 8,
            last_ts: seed,
            hop_sketches: vec![KllSketch::with_seed(64, seed), sk].into(),
            path: None,
            inconsistencies: 1,
        }
    }

    fn snap(flows: Vec<(FlowId, FlowSummary)>) -> CollectorSnapshot {
        CollectorSnapshot::from_shards(vec![ShardSnapshot {
            shard: 0,
            flows,
            table_stats: TableStats::default(),
            ingested: 0,
        }])
    }

    #[test]
    fn merge_is_arrival_order_invariant_and_dedupes_flows() {
        // Flow 5 is seen by both collectors; 1 and 9 by one each.
        let a = snap(vec![
            (1, summary(&(0..100).collect::<Vec<_>>(), 1)),
            (5, summary(&(100..200).collect::<Vec<_>>(), 2)),
        ]);
        let b = snap(vec![
            (5, summary(&(200..300).collect::<Vec<_>>(), 3)),
            (9, summary(&(300..400).collect::<Vec<_>>(), 4)),
        ]);
        let ab = FleetView::merge(vec![(10, a.clone()), (20, b.clone())]);
        let ba = FleetView::merge(vec![(20, b), (10, a)]);

        assert_eq!(ab.num_flows(), 3, "duplicate flow 5 merged");
        match ab.execute(&pint_query::TelemetryQuery::new().stats().plan().unwrap()) {
            Ok(QueryResult::Stats(s)) => assert_eq!(s.packets, 400),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ab.snapshot().flow(5).unwrap().packets, 200);
        assert_eq!(ab.collectors(), &[10, 20]);
        // Arrival order cannot change any answer.
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(
                ab.snapshot().flow(5).unwrap().hop_sketches[1].quantile(phi),
                ba.snapshot().flow(5).unwrap().hop_sketches[1].quantile(phi),
                "phi={phi}"
            );
        }
        let median = pint_query::TelemetryQuery::new()
            .hop_quantiles(1, [0.5])
            .plan()
            .unwrap();
        assert_eq!(ab.execute(&median).unwrap().len(), 1, "hop 1 has data");
        assert_eq!(ab.execute(&median).unwrap(), ba.execute(&median).unwrap());
    }

    #[test]
    fn top_k_and_filtered_queries() {
        let a = snap(vec![
            (1, summary(&(0..10).collect::<Vec<_>>(), 1)),
            (2, summary(&(0..500).collect::<Vec<_>>(), 2)),
        ]);
        let b = snap(vec![(3, summary(&(0..200).collect::<Vec<_>>(), 3))]);
        let view = FleetView::merge(vec![(1, a), (2, b)]);

        let ids = |result: QueryResult| match result {
            QueryResult::Summaries(rows) => rows.into_iter().map(|(f, _)| f).collect::<Vec<_>>(),
            other => panic!("unexpected {other:?}"),
        };
        let run = |tq: pint_query::TelemetryQuery| ids(view.execute(&tq.plan().unwrap()).unwrap());

        use pint_query::TelemetryQuery;
        assert_eq!(
            run(TelemetryQuery::new().top_k(2)),
            vec![2, 3],
            "heaviest first"
        );
        assert!(run(TelemetryQuery::new().top_k(0)).is_empty());
        assert_eq!(
            run(TelemetryQuery::new().top_k(99)).len(),
            3,
            "k beyond population"
        );
        assert_eq!(
            run(TelemetryQuery::new().flows([3, 3, 1, 42])),
            vec![1, 3],
            "ascending, deduped, unknown absent"
        );
        assert_eq!(
            run(TelemetryQuery::new().watch([3, 3, 1, 42])),
            vec![3, 1],
            "watch lists keep request order"
        );
    }

    #[test]
    fn top_k_tie_break_is_ascending_flow_id_fleet_wide() {
        // Equal packet counts across collectors: the selection must be
        // the k smallest IDs, independent of which pod contributed
        // which flow.
        let a = snap(vec![
            (31, summary(&(0..5).collect::<Vec<_>>(), 1)),
            (4, summary(&(0..5).collect::<Vec<_>>(), 2)),
        ]);
        let b = snap(vec![
            (17, summary(&(0..5).collect::<Vec<_>>(), 3)),
            (90, summary(&(0..5).collect::<Vec<_>>(), 4)),
        ]);
        let view = FleetView::merge(vec![(2, b), (1, a)]);
        let plan = pint_query::TelemetryQuery::new().top_k(3).plan().unwrap();
        match view.execute(&plan).unwrap() {
            QueryResult::Summaries(rows) => {
                let ids: Vec<FlowId> = rows.into_iter().map(|(f, _)| f).collect();
                assert_eq!(ids, vec![4, 17, 31], "equal packets: ascending-ID winners");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn path_progress_prefers_further_reconstruction() {
        let partial = FlowSummary {
            kind: RecorderKind::PathTracing,
            packets: 5,
            state_bytes: 64,
            last_ts: 1,
            hop_sketches: Vec::new().into(),
            path: Some(pint_core::PathProgress {
                resolved: 1,
                k: 3,
                path: None,
                inconsistencies: 2,
            }),
            inconsistencies: 2,
        };
        let mut complete = partial.clone();
        complete.path = Some(pint_core::PathProgress {
            resolved: 3,
            k: 3,
            path: Some(vec![7, 8, 9]),
            inconsistencies: 1,
        });
        let view = FleetView::merge(vec![
            (1, snap(vec![(4, partial)])),
            (2, snap(vec![(4, complete)])),
        ]);
        let p = view.snapshot().flow(4).unwrap().path.as_ref().unwrap();
        assert!(p.is_complete());
        assert_eq!(p.path.as_deref(), Some(&[7u64, 8, 9][..]));
        assert_eq!(p.inconsistencies, 3, "observer counts accumulate");
    }
}
