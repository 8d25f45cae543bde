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
use pint_core::dynamic::DynamicAggregator;
use pint_sketches::KllSketch;

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

    /// Digests recorded across all tracked flows. Saturating: snapshots
    /// may have been decoded from the wire, where per-flow counts are
    /// untrusted.
    pub fn total_packets(&self) -> u64 {
        self.flows
            .iter()
            .fold(0u64, |acc, (_, s)| acc.saturating_add(s.packets))
    }

    /// Merges hop `hop`'s code-space sketches across every latency flow
    /// (ascending flow ID — deterministic). `None` if no flow has data
    /// for that hop. Delegates to the query tier's shared
    /// [`merge_hop_sketches`](pint_query::merge_hop_sketches), so local
    /// snapshots and query backends produce identical merges.
    pub fn merged_hop_sketch(&self, hop: usize) -> Option<KllSketch> {
        pint_query::merge_hop_sketches(&self.flows, hop)
    }

    /// Fleet-wide ϕ-quantile of hop `hop`'s value stream, decompressed
    /// through `agg`'s codec (all latency flows must share the codec —
    /// they do when one [`RecorderFactory`](crate::RecorderFactory)
    /// built them).
    pub fn latency_quantile(&self, hop: usize, phi: f64, agg: &DynamicAggregator) -> Option<f64> {
        let code = self.merged_hop_sketch(hop)?.quantile(phi)?;
        Some(agg.decode(code))
    }

    /// `(complete, total)` path-tracing flows.
    pub fn path_counts(&self) -> (usize, usize) {
        let mut complete = 0;
        let mut total = 0;
        for (_, s) in &self.flows {
            if let Some(p) = &s.path {
                total += 1;
                if p.is_complete() {
                    complete += 1;
                }
            }
        }
        (complete, total)
    }

    /// Fraction of path-tracing flows whose route is fully reconstructed;
    /// `None` when no path flows are tracked.
    pub fn path_completion(&self) -> Option<f64> {
        let (complete, total) = self.path_counts();
        (total > 0).then(|| complete as f64 / total as f64)
    }

    /// Decoded paths, ascending by flow ID.
    pub fn decoded_paths(&self) -> impl Iterator<Item = (FlowId, &[u64])> {
        self.flows.iter().filter_map(|(f, s)| {
            s.path
                .as_ref()
                .and_then(|p| p.path.as_deref())
                .map(|path| (*f, path))
        })
    }

    /// Sum of per-flow state-byte estimates (saturating — see
    /// [`total_packets`](Self::total_packets)).
    pub fn state_bytes(&self) -> usize {
        self.flows
            .iter()
            .fold(0usize, |acc, (_, s)| acc.saturating_add(s.state_bytes))
    }

    /// Total flows evicted (LRU + TTL) across shards.
    pub fn evicted_flows(&self) -> u64 {
        self.shard_stats
            .iter()
            .map(|t| t.evicted_lru + t.evicted_ttl)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pint_core::{PathProgress, RecorderKind};

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

        for phi in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(
                one.merged_hop_sketch(1).unwrap().quantile(phi),
                three.merged_hop_sketch(1).unwrap().quantile(phi),
                "phi={phi}"
            );
        }
        assert_eq!(one.total_packets(), 1500);
        assert_eq!(three.total_packets(), 1500);
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
        let med = snap.merged_hop_sketch(1).unwrap().quantile(0.5).unwrap();
        assert!((med as i64 - 5_000).abs() < 400, "median {med}");
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
        assert_eq!(snap.path_counts(), (2, 3));
        assert_eq!(snap.path_completion(), Some(2.0 / 3.0));
        assert_eq!(snap.decoded_paths().count(), 2);
        assert!(snap.flow(7).is_some());
        assert!(snap.flow(99).is_none());
        assert_eq!(snap.num_flows(), 3);
    }
}
