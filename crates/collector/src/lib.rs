//! # pint-collector — sharded, multi-producer telemetry ingestion & inference
//!
//! The paper's Recording/Inference module (Fig. 3) is a single-threaded
//! consumer of one flow's digests. This crate is the production-shaped
//! version: a collector that absorbs digest streams from many sinks for
//! very large flow counts, on a share-nothing sharded architecture with
//! an explicitly multi-producer, lock-free ingest pipeline.
//!
//! ```text
//!  producers (PINT sinks, netsim drivers)      shard workers (threads)
//!  ┌──────────────────┐   SPSC rings           ┌────────────────────────┐
//!  │ CollectorHandle  │══════════════════════▶ │ shard 0: FlowTable     │
//!  │  (one ring per   │══╗                     │  flow → FlowRecorder   │
//!  │   shard)         │  ║ (1 ring per         │  O(1) LRU + TTL        │
//!  └──────────────────┘  ║  producer × shard)  │  EventRule evaluation  │
//!  ┌──────────────────┐  ║                     └────────────────────────┘
//!  │ CollectorHandle  │══╩═══════════════════▶        … shard N-1
//!  └──────────────────┘    control channel ─▶  (attach, snapshot,
//!        hash(flow) % N                         barrier, shutdown)
//!                                                      │ snapshots
//!                                                      ▼
//!                                      CollectorSnapshot (merged KLL,
//!                                      path completion, top-K, per-flow)
//! ```
//!
//! * **Producer registration** — every producer calls
//!   [`Collector::register_producer`] (or clones a handle) and receives
//!   its own bounded SPSC [ring](`CollectorConfig::ring_capacity`) to
//!   each shard: producers never contend with each other, and the data
//!   path has no locks at all. Control traffic (registration, snapshots,
//!   barriers, shutdown) rides a separate low-rate channel.
//! * **Batched, park-based backpressure** — handles buffer `batch_size`
//!   digests per shard and ship batch-granular ring slots; a producer
//!   that outruns a shard fills its ring, spins briefly
//!   ([`spin_limit`](CollectorConfig::spin_limit)), and parks until the
//!   shard frees a slot — bounded memory, no burned cores.
//! * **Ordering** — a flow maps to one shard, and one producer's pushes
//!   for it stay in order: per-flow-per-producer ordering is exact, and
//!   cross-shard merges are deterministic, so answers are identical at
//!   any (producer, shard) combination — pinned by the
//!   `collector_equivalence` property test.
//! * **Bounded state** — per-shard flow-count and byte caps with
//!   least-recently-updated eviction plus idle TTL ([`flow_table`]); the
//!   collector survives unbounded flow churn.
//! * **Uniform recorders** — per-flow state is any
//!   [`FlowRecorder`](pint_core::FlowRecorder): latency quantiles, path
//!   reconstruction, frequent values, or user-defined.
//! * **Cross-shard inference & queries** — [`snapshot`](Collector::snapshot)
//!   merges per-shard state deterministically ([`inference`]), and
//!   [`query`](Collector::query) executes typed
//!   [`QueryPlan`]s (selectors × projections ×
//!   delta options) routed only to the shards that can answer — the
//!   local backend of the workspace-wide `pint-query` API, so the same
//!   plan also runs on a fleet view or over TCP with identical
//!   results.
//! * **Streaming events** — threshold rules ([`events`]) are evaluated
//!   on the workers as digests arrive; per-rule cooldowns re-arm alarms
//!   after a quiet period.
//! * **Nothing lost silently** — undeliverable batches are counted
//!   ([`CollectorStats::digests_dropped`]), as is producer backpressure
//!   ([`CollectorStats::producer_parks`]).
//! * **Fleet export** — [`Collector::export_snapshot_frame`] encodes a
//!   snapshot as a versioned `pint-wire` frame keyed by collector id +
//!   epoch ([`wire`]); a `pint-fleet` aggregator merges frames from
//!   many collector processes into one fleet view (collector → wire →
//!   fleet).
//!
//! `unsafe` is confined to the [`ring`](crate) module's slot hand-off
//! (two threads, release/acquire protocol) and denied everywhere else.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "measure-alloc")]
pub mod alloc_track;
mod collector;
pub mod config;
pub mod error;
pub mod events;
pub mod flow_table;
pub mod handle;
pub mod inference;
pub mod prefilter;
mod ring;
mod shard;
pub mod sink;
pub mod wire;

pub use collector::{Collector, CollectorStats, RestoreReport};
pub use config::{CollectorConfig, FlowId, RecorderFactory};
pub use error::CollectorError;
pub use events::{Event, EventKind, EventRule, RuleCondition};
pub use handle::CollectorHandle;
pub use inference::{CollectorSnapshot, FlowSummary, ShardSnapshot};
pub use prefilter::PrefilterConfig;
pub use shard::ShardStats;
pub use sink::{attach_collector, attach_collector_parallel, LatencyTelemetry, ParallelSinkDriver};
pub use wire::SnapshotFrame;
// The query tier this collector is a backend of, re-exported so
// callers can build plans without naming `pint-query` separately.
pub use pint_query::{
    Projection, QueryBackend, QueryError, QueryPlan, QueryResult, Selector, TelemetryQuery,
    ValueDecodeSpec,
};

#[cfg(test)]
mod tests {
    use super::*;
    use pint_core::dynamic::{DynamicAggregator, DynamicRecorder};
    use pint_core::statictrace::{PathTracer, TracerConfig};
    use pint_core::value::Digest;
    use pint_core::{DigestReport, FlowRecorder};
    use std::sync::Arc;

    fn latency_factory(agg: DynamicAggregator, sketch_bytes: usize) -> RecorderFactory {
        Arc::new(move |_flow, report: &DigestReport| {
            Box::new(DynamicRecorder::new_sketched(
                agg.clone(),
                usize::from(report.path_len).max(1),
                sketch_bytes,
            )) as Box<dyn FlowRecorder>
        })
    }

    fn encode_latency(
        agg: &DynamicAggregator,
        flow: u64,
        pid: u64,
        k: usize,
        ns_per_hop: f64,
    ) -> DigestReport {
        let mut d = Digest::new(1);
        for hop in 1..=k {
            agg.encode_hop(pid, hop, ns_per_hop * hop as f64, &mut d, 0);
        }
        DigestReport::new(flow, pid, d, k as u16, pid)
    }

    #[test]
    fn many_flows_across_shards_with_live_quantiles() {
        let agg = DynamicAggregator::new(5, 8, 100.0, 1.0e7);
        let collector = Collector::spawn(
            CollectorConfig {
                shards: 4,
                batch_size: 64,
                ..CollectorConfig::default()
            },
            latency_factory(agg.clone(), 128),
        );
        let mut handle = collector.register_producer();
        let flows = 200u64;
        let per_flow = 300u64;
        for pid in 0..per_flow {
            for flow in 0..flows {
                handle
                    .push(encode_latency(
                        &agg,
                        flow,
                        flow * per_flow + pid,
                        3,
                        1_000.0,
                    ))
                    .unwrap();
            }
        }
        handle.flush().unwrap();
        let snap = collector.snapshot().unwrap();
        assert_eq!(snap.num_flows(), flows as usize);
        assert_eq!(snap.total_packets(), flows * per_flow);
        // Hop 2 carries ~2µs samples; fleet-wide median decodes close.
        let q = snap.latency_quantile(2, 0.5, &agg).unwrap();
        assert!((q / 2_000.0 - 1.0).abs() < 0.25, "fleet median {q}");
        let stats = collector.shutdown();
        assert_eq!(stats.ingested, flows * per_flow);
        assert_eq!(stats.active_flows, flows);
        assert_eq!(stats.evicted_lru + stats.evicted_ttl, 0);
        assert_eq!(stats.digests_dropped, 0, "no digest lost");
    }

    #[test]
    fn concurrent_producers_preserve_per_flow_streams() {
        // 4 producers on their own threads, each owning a disjoint flow
        // set; totals and per-flow packet counts must be exact.
        let agg = DynamicAggregator::new(11, 8, 100.0, 1.0e7);
        let collector = Collector::spawn(
            CollectorConfig {
                shards: 4,
                batch_size: 32,
                ring_capacity: 8,
                ..CollectorConfig::default()
            },
            latency_factory(agg.clone(), 96),
        );
        let producers = 4u64;
        let flows = 64u64;
        let per_flow = 200u64;
        std::thread::scope(|s| {
            for p in 0..producers {
                let mut handle = collector.register_producer();
                let agg = agg.clone();
                s.spawn(move || {
                    for pid in 0..per_flow {
                        for flow in (0..flows).filter(|f| f % producers == p) {
                            handle
                                .push(encode_latency(
                                    &agg,
                                    flow,
                                    flow * per_flow + pid,
                                    3,
                                    1_000.0,
                                ))
                                .unwrap();
                        }
                    }
                    handle.flush().unwrap();
                });
            }
        });
        let snap = collector.snapshot().unwrap();
        assert_eq!(snap.num_flows(), flows as usize);
        assert_eq!(snap.total_packets(), flows * per_flow);
        for flow in 0..flows {
            assert_eq!(
                snap.flow(flow).unwrap().packets,
                per_flow,
                "flow {flow} complete"
            );
        }
        let stats = collector.shutdown();
        assert_eq!(stats.ingested, flows * per_flow);
        assert_eq!(stats.digests_dropped, 0);
    }

    #[test]
    fn flow_churn_is_bounded_by_eviction() {
        let agg = DynamicAggregator::new(6, 8, 100.0, 1.0e7);
        let collector = Collector::spawn(
            CollectorConfig {
                shards: 2,
                batch_size: 32,
                max_flows_per_shard: 50,
                ..CollectorConfig::default()
            },
            latency_factory(agg.clone(), 64),
        );
        let mut handle = collector.register_producer();
        for flow in 0..5_000u64 {
            for pid in 0..3u64 {
                handle
                    .push(encode_latency(&agg, flow, flow * 3 + pid, 2, 500.0))
                    .unwrap();
            }
        }
        handle.flush().unwrap();
        let snap = collector.snapshot().unwrap();
        assert!(
            snap.num_flows() <= 100,
            "flows bounded: {}",
            snap.num_flows()
        );
        assert!(
            snap.evicted_flows() >= 4_900,
            "churn evicted: {}",
            snap.evicted_flows()
        );
        let stats = collector.shutdown();
        assert_eq!(stats.ingested, 15_000);
        assert!(stats.active_flows <= 100);
    }

    #[test]
    fn ttl_evicts_idle_flows_deterministically() {
        let agg = DynamicAggregator::new(8, 8, 100.0, 1.0e7);
        let collector = Collector::spawn(
            CollectorConfig {
                shards: 1,
                batch_size: 16,
                flow_ttl: Some(1_000),
                ..CollectorConfig::default()
            },
            latency_factory(agg.clone(), 64),
        );
        let mut handle = collector.register_producer();
        // Flow 1 active at ts 0..100; flow 2 keeps the clock advancing.
        for pid in 0..100u64 {
            let mut r = encode_latency(&agg, 1, pid, 2, 500.0);
            r.ts = pid;
            handle.push(r).unwrap();
        }
        for pid in 0..200u64 {
            let mut r = encode_latency(&agg, 2, 10_000 + pid, 2, 500.0);
            r.ts = 5_000 + pid;
            handle.push(r).unwrap();
        }
        handle.flush().unwrap();
        let snap = collector.snapshot().unwrap();
        assert_eq!(snap.num_flows(), 1, "idle flow 1 must expire");
        assert!(snap.flow(2).is_some());
        let stats = collector.shutdown();
        assert_eq!(stats.evicted_ttl, 1);
    }

    #[test]
    fn filtered_and_top_k_queries_answer_cheaply() {
        let agg = DynamicAggregator::new(21, 8, 100.0, 1.0e7);
        let collector = Collector::spawn(
            CollectorConfig {
                shards: 4,
                batch_size: 16,
                ..CollectorConfig::default()
            },
            latency_factory(agg.clone(), 64),
        );
        let mut handle = collector.register_producer();
        // Flow f gets f+1 packets: flow 63 is the heaviest.
        for flow in 0..64u64 {
            for pid in 0..=flow {
                handle
                    .push(encode_latency(&agg, flow, flow * 100 + pid, 2, 700.0))
                    .unwrap();
            }
        }
        handle.flush().unwrap();

        let watch = collector
            .query(
                &TelemetryQuery::new()
                    .flows([3, 17, 42, 999])
                    .plan()
                    .unwrap(),
            )
            .unwrap();
        match watch {
            QueryResult::Summaries(rows) => {
                assert_eq!(rows.len(), 3, "untracked flow 999 absent");
                for (f, s) in rows {
                    assert_eq!(s.packets, f + 1);
                }
            }
            other => panic!("unexpected {other:?}"),
        }

        let top = collector
            .query(&TelemetryQuery::new().top_k(5).plan().unwrap())
            .unwrap();
        match top {
            QueryResult::Summaries(rows) => {
                let ids: Vec<u64> = rows.iter().map(|&(f, _)| f).collect();
                assert_eq!(ids, vec![63, 62, 61, 60, 59], "five heaviest, rank order");
            }
            other => panic!("unexpected {other:?}"),
        }

        // Hop quantiles over the whole table: one sketch's worth of
        // numbers back, never 64 summaries.
        let q = collector
            .query(
                &TelemetryQuery::new()
                    .hop_quantiles(2, [0.5])
                    .plan()
                    .unwrap(),
            )
            .unwrap();
        let decoded = q.decode_quantiles(&agg);
        assert_eq!(decoded.len(), 1);
        assert!(
            (decoded[0].1 / 1_400.0 - 1.0).abs() < 0.3,
            "hop-2 median ~1.4us, got {}",
            decoded[0].1
        );

        let full = collector.snapshot().unwrap();
        assert_eq!(full.num_flows(), 64);
        collector.shutdown();
    }

    #[test]
    fn tail_latency_alarm_fires_once_per_flow() {
        let agg = DynamicAggregator::new(9, 8, 100.0, 1.0e7);
        let collector = Collector::spawn(
            CollectorConfig {
                shards: 2,
                batch_size: 32,
                rules: vec![EventRule::new(RuleCondition::QuantileAbove {
                    hop: 1,
                    phi: 0.9,
                    threshold: 50_000.0,
                    min_samples: 50,
                })],
                ..CollectorConfig::default()
            },
            latency_factory(agg.clone(), 256),
        );
        let mut handle = collector.register_producer();
        // Flow 7 runs hot (~100µs hop latency); flows 1..=5 stay cool.
        for pid in 0..400u64 {
            for flow in 1..=5u64 {
                handle
                    .push(encode_latency(&agg, flow, flow * 1_000 + pid, 2, 1_000.0))
                    .unwrap();
            }
            handle
                .push(encode_latency(&agg, 7, 900_000 + pid, 2, 100_000.0))
                .unwrap();
        }
        handle.flush().unwrap();
        // Barrier: snapshot answers arrive after all batches applied.
        let _ = collector.snapshot().unwrap();
        let events = collector.drain_events();
        assert_eq!(events.len(), 1, "exactly one alarm: {events:?}");
        let e = &events[0];
        assert_eq!(e.flow, 7);
        assert_eq!(e.rule, 0);
        match &e.kind {
            EventKind::QuantileAbove { hop: 1, value, .. } => {
                assert!(*value > 50_000.0, "p90 {value}")
            }
            other => panic!("unexpected kind {other:?}"),
        }
        collector.shutdown();
    }

    #[test]
    fn rule_clears_on_falling_edge_then_refires() {
        // Rising → Cleared → rising again: full hysteresis on one flow.
        let agg = DynamicAggregator::new(17, 8, 100.0, 1.0e7);
        let collector = Collector::spawn(
            CollectorConfig {
                shards: 1,
                batch_size: 8,
                rules: vec![EventRule::new(RuleCondition::QuantileAbove {
                    hop: 1,
                    phi: 0.5,
                    threshold: 50_000.0,
                    min_samples: 8,
                })],
                ..CollectorConfig::default()
            },
            latency_factory(agg.clone(), 512),
        );
        let mut handle = collector.register_producer();
        let mut pid = 0u64;
        let mut burst = |handle: &mut CollectorHandle, n: u64, ns: f64| {
            for _ in 0..n {
                handle.push(encode_latency(&agg, 1, pid, 1, ns)).unwrap();
                pid += 1;
            }
            handle.flush().unwrap();
        };
        // 64 hot digests: the median is ~100µs, the rule fires.
        burst(&mut handle, 64, 100_000.0);
        // 200 cool digests: the median sinks to ~1µs, the rule clears.
        burst(&mut handle, 200, 1_000.0);
        // 600 hot digests: the median is hot again, the rule re-fires.
        burst(&mut handle, 600, 100_000.0);
        let _ = collector.snapshot().unwrap();
        let events = collector.drain_events();
        let kinds: Vec<&EventKind> = events.iter().map(|e| &e.kind).collect();
        assert_eq!(events.len(), 3, "fire, clear, re-fire: {events:?}");
        assert!(
            matches!(kinds[0], EventKind::QuantileAbove { .. }),
            "rising edge first"
        );
        assert_eq!(*kinds[1], EventKind::Cleared, "explicit falling edge");
        assert!(
            matches!(kinds[2], EventKind::QuantileAbove { .. }),
            "re-fires after clearing"
        );
        assert!(events.iter().all(|e| e.flow == 1 && e.rule == 0));
        collector.shutdown();
    }

    #[test]
    fn query_edge_cases() {
        let agg = DynamicAggregator::new(29, 8, 100.0, 1.0e7);
        let collector = Collector::spawn(
            CollectorConfig::with_shards(4),
            latency_factory(agg.clone(), 64),
        );
        let mut handle = collector.register_producer();
        for flow in 0..6u64 {
            handle
                .push(encode_latency(&agg, flow, flow, 2, 700.0))
                .unwrap();
        }
        handle.flush().unwrap();

        let rows = |result: QueryResult| match result {
            QueryResult::Summaries(rows) => rows,
            other => panic!("unexpected {other:?}"),
        };
        let q = |tq: TelemetryQuery| rows(collector.query(&tq.plan().unwrap()).unwrap());

        // k = 0: empty result, no flows serialized.
        assert!(q(TelemetryQuery::new().top_k(0)).is_empty());
        // k beyond the population: everything, rank-ordered.
        assert_eq!(q(TelemetryQuery::new().top_k(64)).len(), 6);

        // Unknown-only flow set: empty result. Empty flow set: no
        // shard consulted at all.
        assert!(q(TelemetryQuery::new().flows([100, 200])).is_empty());
        assert!(q(TelemetryQuery::new().flows(Vec::new())).is_empty());
        // Duplicates collapse; known and unknown IDs mix.
        let dup = q(TelemetryQuery::new().flows([2, 2, 2, 100]));
        assert_eq!(dup.len(), 1);
        assert_eq!(dup[0].0, 2);
        assert_eq!(dup[0].1.packets, 1);

        // A delta query past the newest timestamp returns nothing; one
        // from before returns everything.
        assert!(q(TelemetryQuery::new().since(u64::MAX)).is_empty());
        assert_eq!(q(TelemetryQuery::new()).len(), 6);
        // max_flows caps the response.
        assert_eq!(q(TelemetryQuery::new().max_flows(2)).len(), 2);

        // Path predicates on a latency-only table match nothing.
        assert!(q(TelemetryQuery::new().through_switch(1)).is_empty());

        // An invalid hand-built plan is rejected, not executed.
        let bad = QueryPlan {
            selector: Selector::All,
            projection: Projection::HopQuantiles {
                hop: 0,
                phis: vec![0.5],
                decode: None,
            },
            options: Default::default(),
        };
        assert!(matches!(
            collector.query(&bad),
            Err(QueryError::InvalidPlan(_))
        ));
        collector.shutdown();
    }

    #[test]
    fn cooldown_rule_refires_after_quiet_period() {
        let agg = DynamicAggregator::new(13, 8, 100.0, 1.0e7);
        let collector = Collector::spawn(
            CollectorConfig {
                shards: 1,
                batch_size: 8,
                rules: vec![EventRule::new(RuleCondition::QuantileAbove {
                    hop: 1,
                    phi: 0.5,
                    threshold: 50_000.0,
                    min_samples: 20,
                })
                .with_cooldown(1_000)],
                ..CollectorConfig::default()
            },
            latency_factory(agg.clone(), 256),
        );
        let mut handle = collector.register_producer();
        // A persistently hot flow across 10 cooldown windows: timestamps
        // advance 100 per digest, so each 1_000-tick cooldown spans ~10
        // digests.
        for pid in 0..400u64 {
            let mut r = encode_latency(&agg, 1, pid, 2, 100_000.0);
            r.ts = pid * 100;
            handle.push(r).unwrap();
        }
        handle.flush().unwrap();
        let _ = collector.snapshot().unwrap();
        let events = collector.drain_events();
        assert!(
            events.len() >= 3,
            "cooldown must allow re-fires, got {}",
            events.len()
        );
        // Consecutive firings respect the quiet period.
        for pair in events.windows(2) {
            assert!(
                pair[1].ts.saturating_sub(pair[0].ts) >= 1_000,
                "fires {} and {} closer than the cooldown",
                pair[0].ts,
                pair[1].ts
            );
        }
        collector.shutdown();
    }

    #[test]
    fn path_tracing_flows_resolve_and_alert() {
        let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
        let universe: Vec<u64> = (0..64).collect();
        let factory_tracer = tracer.clone();
        let factory_universe = universe.clone();
        let collector = Collector::spawn(
            CollectorConfig {
                shards: 4,
                batch_size: 16,
                rules: vec![EventRule::new(RuleCondition::PathResolved)],
                ..CollectorConfig::default()
            },
            Arc::new(move |_flow, report: &DigestReport| {
                Box::new(factory_tracer.decoder(
                    factory_universe.clone(),
                    usize::from(report.path_len).max(1),
                )) as Box<dyn FlowRecorder>
            }),
        );
        let mut handle = collector.register_producer();
        let paths: Vec<Vec<u64>> = (0..20u64)
            .map(|f| (0..4).map(|h| (f * 7 + h * 13) % 64).collect())
            .collect();
        for pid in 1..=400u64 {
            for (f, path) in paths.iter().enumerate() {
                let digest = tracer.encode_path(pid, path);
                handle
                    .push(DigestReport::new(
                        f as u64,
                        pid,
                        digest,
                        path.len() as u16,
                        pid,
                    ))
                    .unwrap();
            }
        }
        handle.flush().unwrap();
        let snap = collector.snapshot().unwrap();
        assert_eq!(snap.path_completion(), Some(1.0), "all paths resolve");
        for (f, path) in paths.iter().enumerate() {
            let summary = snap.flow(f as u64).unwrap();
            assert_eq!(
                summary.path.as_ref().unwrap().path.as_ref().unwrap(),
                path,
                "flow {f}"
            );
        }
        let events = collector.drain_events();
        assert_eq!(events.len(), paths.len(), "one PathResolved per flow");
        collector.shutdown();
    }

    #[test]
    fn handle_errors_after_shutdown_and_counts_losses() {
        let agg = DynamicAggregator::new(3, 8, 100.0, 1.0e7);
        let collector = Collector::spawn(
            CollectorConfig {
                shards: 1,
                batch_size: 1,
                ..CollectorConfig::default()
            },
            latency_factory(agg.clone(), 64),
        );
        let mut handle = collector.register_producer();
        collector.shutdown();
        let err = handle
            .push(encode_latency(&agg, 1, 1, 2, 500.0))
            .unwrap_err();
        assert_eq!(err, CollectorError::Disconnected);
        assert_eq!(
            handle.dropped_digests(),
            1,
            "undeliverable digest must be counted, not silently dropped"
        );
    }

    #[test]
    fn try_push_reports_backpressure_without_blocking() {
        let agg = DynamicAggregator::new(4, 8, 100.0, 1.0e7);
        let collector = Collector::spawn(
            CollectorConfig {
                shards: 1,
                batch_size: 4,
                ring_capacity: 1,
                ..CollectorConfig::default()
            },
            latency_factory(agg.clone(), 64),
        );
        let mut handle = collector.register_producer();
        // Stall the only shard with a barrier we never... cannot stall
        // the worker from outside; instead rely on capacity: with a
        // 1-slot ring and batch_size 4, pushing fast enough eventually
        // sees WouldBlock or succeeds — both are valid; the invariant
        // under test is that try_push never loses an accepted digest.
        let mut accepted = 0u64;
        for pid in 0..100_000u64 {
            match handle.try_push(encode_latency(&agg, 1, pid, 2, 500.0)) {
                Ok(()) => accepted += 1,
                Err(CollectorError::WouldBlock) => {}
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        handle.flush().unwrap();
        collector.barrier().unwrap();
        let stats = collector.stats();
        assert_eq!(stats.ingested, accepted, "every accepted digest applied");
        assert_eq!(stats.digests_dropped, 0);
        collector.shutdown();
    }
}
