//! Cross-shard inference: snapshot queries merged over all workers.
//!
//! Shards own their flow state exclusively, so queries are answered from
//! *snapshots*: each worker serializes its flows into [`FlowSummary`]s
//! (per-hop KLL sketches in code space, path progress, heavy hitters) and
//! the collector merges them into one [`CollectorSnapshot`]. Merging is
//! deterministic: flows are sorted by ID before KLL merging, so the same
//! digest stream yields the same answers at any shard count — the
//! property the shard-equivalence test pins down.

use crate::config::FlowId;
use crate::flow_table::TableStats;
use pint_query::{QueryError, QueryPlan, QueryResult, Selector, TableTotals};

/// One flow's state, as exported by a shard snapshot. Defined by the
/// query tier (`pint-query`), which every read backend shares.
pub use pint_query::FlowSummary;

/// Everything one shard reports at snapshot time.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// The shard index.
    pub shard: usize,
    /// `(flow, summary)` for every tracked flow.
    pub flows: Vec<(FlowId, FlowSummary)>,
    /// Eviction counters at snapshot time.
    pub table_stats: TableStats,
    /// Digests the shard has applied.
    pub ingested: u64,
}

/// A merged, queryable view over all shards at one point in time.
#[derive(Debug, Clone)]
pub struct CollectorSnapshot {
    /// All flows, sorted by flow ID (deterministic merge order).
    flows: Vec<(FlowId, FlowSummary)>,
    /// Table stats of the consulted shards, in shard order (all shards
    /// for a full snapshot; only the owning shards for a filtered one).
    pub shard_stats: Vec<TableStats>,
    /// Digests applied across the consulted shards.
    pub ingested: u64,
}

impl CollectorSnapshot {
    /// Merges shard snapshots (sorts flows by ID; shard count does not
    /// affect any downstream answer).
    pub fn from_shards(shards: Vec<ShardSnapshot>) -> Self {
        let mut by_shard: Vec<(usize, ShardSnapshot)> =
            shards.into_iter().map(|s| (s.shard, s)).collect();
        by_shard.sort_by_key(|&(idx, _)| idx);
        let mut flows = Vec::new();
        let mut shard_stats = Vec::new();
        let mut ingested = 0;
        for (_, s) in by_shard {
            flows.extend(s.flows);
            shard_stats.push(s.table_stats);
            ingested += s.ingested;
        }
        flows.sort_by_key(|&(f, _)| f);
        Self {
            flows,
            shard_stats,
            ingested,
        }
    }

    /// Builds a snapshot directly from its parts (the decode path of the
    /// wire codec, and `pint-fleet`'s merged-view construction). `flows`
    /// is sorted by flow ID if it isn't already; duplicate IDs are kept
    /// (then [`flow`](Self::flow) returns one of them arbitrarily —
    /// fleet-level merging dedupes before calling this).
    pub fn from_parts(
        mut flows: Vec<(FlowId, FlowSummary)>,
        shard_stats: Vec<TableStats>,
        ingested: u64,
    ) -> Self {
        if !flows.windows(2).all(|w| w[0].0 <= w[1].0) {
            flows.sort_by_key(|&(f, _)| f);
        }
        Self {
            flows,
            shard_stats,
            ingested,
        }
    }

    /// Decomposes the snapshot into `(flows, shard_stats, ingested)` —
    /// the inverse of [`from_parts`](Self::from_parts). Flows come out
    /// ascending by ID.
    pub fn into_parts(self) -> (Vec<(FlowId, FlowSummary)>, Vec<TableStats>, u64) {
        (self.flows, self.shard_stats, self.ingested)
    }

    /// Tracked flows.
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// All flows, ascending by ID.
    pub fn flows(&self) -> impl Iterator<Item = &(FlowId, FlowSummary)> {
        self.flows.iter()
    }

    /// One flow's summary.
    pub fn flow(&self, id: FlowId) -> Option<&FlowSummary> {
        self.flows
            .binary_search_by_key(&id, |&(f, _)| f)
            .ok()
            .map(|i| &self.flows[i].1)
    }

    /// Executes a compiled [`QueryPlan`] against this snapshot — the
    /// one answer path for held state: a fleet view delegates here, and
    /// [`Collector::query`](crate::Collector::query) runs the same
    /// refinement over the rows its shards return. Selection runs over
    /// references; only the rows the plan keeps are cloned, and a
    /// clone shares its hop sketches.
    pub fn execute(&self, plan: &QueryPlan) -> Result<QueryResult, QueryError> {
        plan.validate()?;
        let rows = match &plan.selector {
            // Named flows are found by binary search, so a point plan
            // costs O(ids · log flows), not O(flows). Every row of a
            // named ID goes to `refine`, duplicates included, so it
            // keeps exactly what it would keep from all rows.
            Selector::FlowSet(ids) | Selector::WatchList(ids) => {
                let mut wanted = ids.clone();
                wanted.sort_unstable();
                wanted.dedup();
                wanted
                    .into_iter()
                    .flat_map(|id| {
                        let start = self.flows.partition_point(|&(f, _)| f < id);
                        let end = start + self.flows[start..].partition_point(|&(f, _)| f == id);
                        self.flows[start..end].iter()
                    })
                    .map(|(f, s)| (*f, s))
                    .collect()
            }
            _ => self.flows.iter().map(|(f, s)| (*f, s)).collect(),
        };
        let kept = pint_query::refine(rows, plan)
            .into_iter()
            .map(|(f, s)| (f, s.clone()))
            .collect();
        Ok(pint_query::project(
            kept,
            &plan.projection,
            self.table_totals(plan),
        ))
    }

    /// [`execute`](Self::execute) for an already validated plan,
    /// consuming the snapshot so its rows move into the answer.
    pub(crate) fn answer(self, plan: &QueryPlan) -> QueryResult {
        let table = self.table_totals(plan);
        pint_query::project(
            pint_query::refine(self.flows, plan),
            &plan.projection,
            table,
        )
    }

    /// Table counters summed over the snapshot's shards. Only a
    /// full-table selector reports them: a narrower one may not have
    /// consulted every table. Saturating, since a snapshot decoded
    /// from the wire carries untrusted counters.
    fn table_totals(&self, plan: &QueryPlan) -> Option<TableTotals> {
        matches!(plan.selector, Selector::All).then(|| {
            let mut t = TableTotals {
                ingested: self.ingested,
                ..TableTotals::default()
            };
            for s in &self.shard_stats {
                t.created = t.created.saturating_add(s.created);
                t.evicted_lru = t.evicted_lru.saturating_add(s.evicted_lru);
                t.evicted_ttl = t.evicted_ttl.saturating_add(s.evicted_ttl);
            }
            t
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_core::{PathProgress, RecorderKind};
    use pint_query::TelemetryQuery;
    use pint_sketches::KllSketch;

    fn latency_summary(values: &[u64]) -> FlowSummary {
        let mut sk = KllSketch::with_seed(64, 1);
        for &v in values {
            sk.update(v);
        }
        FlowSummary {
            kind: RecorderKind::LatencyQuantiles,
            packets: values.len() as u64,
            state_bytes: values.len() * 8,
            last_ts: 0,
            hop_sketches: vec![KllSketch::with_seed(64, 1), sk].into(),
            path: None,
            inconsistencies: 0,
        }
    }

    fn shard(idx: usize, flows: Vec<(FlowId, FlowSummary)>) -> ShardSnapshot {
        ShardSnapshot {
            shard: idx,
            flows,
            table_stats: TableStats::default(),
            ingested: 0,
        }
    }

    fn run(snap: &CollectorSnapshot, query: TelemetryQuery) -> QueryResult {
        snap.execute(&query.plan().unwrap()).unwrap()
    }

    #[test]
    fn merge_is_shard_count_invariant() {
        let a = latency_summary(&(0..500).collect::<Vec<_>>());
        let b = latency_summary(&(500..1000).collect::<Vec<_>>());
        let c = latency_summary(&(1000..1500).collect::<Vec<_>>());

        let one = CollectorSnapshot::from_shards(vec![shard(
            0,
            vec![(1, a.clone()), (2, b.clone()), (3, c.clone())],
        )]);
        // Different shard partition AND reversed arrival order.
        let three = CollectorSnapshot::from_shards(vec![
            shard(2, vec![(3, c)]),
            shard(0, vec![(2, b)]),
            shard(1, vec![(1, a)]),
        ]);

        let quantiles = || TelemetryQuery::new().hop_quantiles(1, [0.1, 0.5, 0.9, 0.99]);
        assert_eq!(run(&one, quantiles()), run(&three, quantiles()));
        for snap in [&one, &three] {
            match run(snap, TelemetryQuery::new().stats()) {
                QueryResult::Stats(s) => assert_eq!(s.packets, 1500),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn merged_quantiles_track_combined_stream() {
        let flows: Vec<(FlowId, FlowSummary)> = (0..10)
            .map(|f| {
                let lo = f * 1000;
                (f, latency_summary(&(lo..lo + 1000).collect::<Vec<_>>()))
            })
            .collect();
        let snap = CollectorSnapshot::from_shards(vec![shard(0, flows)]);
        match run(&snap, TelemetryQuery::new().hop_quantiles(1, [0.5])) {
            QueryResult::HopQuantiles { quantiles, .. } => {
                let med = quantiles[0].1;
                assert!((med as i64 - 5_000).abs() < 400, "median {med}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn named_flows_answer_as_from_every_row_duplicates_included() {
        // `from_parts` keeps duplicate IDs (a hostile frame may carry
        // them); each duplicate differs, so any other pick shows.
        let row = |packets: u64, last_ts: u64| {
            let mut s = latency_summary(&(0..packets).collect::<Vec<_>>());
            s.last_ts = last_ts;
            s
        };
        let snap = CollectorSnapshot::from_parts(
            vec![
                (1, row(3, 1)),
                (4, row(5, 1)),
                (4, row(7, 9)),
                (4, row(9, 9)),
                (9, row(11, 9)),
            ],
            Vec::new(),
            0,
        );
        let q = TelemetryQuery::new;
        for query in [
            q().flows([4, 9, 4, 2]),
            q().watch([9, 4, 4, 1]),
            q().flows([4]).stats(),
            q().watch([4, 1]).since(5),
            q().watch([4]).hop_quantiles(1, [0.5]),
        ] {
            let plan = query.plan().unwrap();
            let every_row = snap.flows.iter().map(|(f, s)| (*f, s)).collect();
            let kept = pint_query::refine(every_row, &plan)
                .into_iter()
                .map(|(f, s)| (f, s.clone()))
                .collect();
            let expected = pint_query::project(kept, &plan.projection, None);
            assert_eq!(snap.execute(&plan).unwrap(), expected, "{plan:?}");
        }
    }

    #[test]
    fn path_counts_and_lookup() {
        let progress = |resolved, k: usize| PathProgress {
            resolved,
            k,
            path: (resolved == k).then(|| (0..k as u64).collect()),
            inconsistencies: 0,
        };
        let path_summary = |resolved, k| FlowSummary {
            kind: RecorderKind::PathTracing,
            packets: 10,
            state_bytes: 100,
            last_ts: 0,
            hop_sketches: Vec::new().into(),
            path: Some(progress(resolved, k)),
            inconsistencies: 0,
        };
        let snap = CollectorSnapshot::from_shards(vec![
            shard(0, vec![(5, path_summary(5, 5)), (7, path_summary(2, 5))]),
            shard(1, vec![(6, path_summary(5, 5))]),
        ]);
        assert_eq!(
            run(&snap, TelemetryQuery::new().path_completion()),
            QueryResult::PathCompletion {
                complete: 2,
                total: 3
            }
        );
        assert_eq!(run(&snap, TelemetryQuery::new().decoded_paths()).len(), 2);
        assert!(snap.flow(7).is_some());
        assert!(snap.flow(99).is_none());
        assert_eq!(snap.num_flows(), 3);
    }
}
