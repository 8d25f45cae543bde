//! Shard/producer-equivalence property: a sharded, multi-producer
//! collector answers exactly like the paper's single-threaded Recording
//! Module.
//!
//! For a random mixed workload (latency-quantile flows and path-tracing
//! flows), a collector with S ∈ {1, 2, 4, 8} shards fed by P ∈ {1, 2, 4}
//! concurrent producer threads must yield, after ingesting the same
//! digest stream:
//!
//! * per-flow quantile sketches identical to a serial [`DynamicRecorder`]
//!   fed the same digests in order,
//! * per-flow reconstructed paths identical to a serial [`PathDecoder`],
//! * cross-shard merged quantiles identical across every (P, S)
//!   combination.
//!
//! This holds exactly (not approximately): each flow is owned by one
//! producer (`flow % P`) and hash-partitioned to one shard, so per-flow
//! digest order is preserved end-to-end no matter how the producers'
//! rings interleave; recorders are seeded deterministically; and
//! snapshot merging sorts by flow ID.

use pint::collector::{Collector, CollectorConfig, PrefilterConfig};
use pint::core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint::core::statictrace::{PathTracer, TracerConfig};
use pint::core::{Digest, DigestReport, FlowRecorder};
use pint::query::{QueryResult, TelemetryQuery};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const PRODUCER_COUNTS: [u64; 3] = [1, 2, 4];
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SKETCH_BYTES: usize = 96;

struct Workload {
    agg: DynamicAggregator,
    tracer: PathTracer,
    universe: Vec<u64>,
    k: usize,
    /// All digests in arrival order (flows interleaved).
    reports: Vec<DigestReport>,
    flows: u64,
}

/// Flow IDs alternate: even = latency query, odd = path tracing.
fn is_path_flow(flow: u64) -> bool {
    flow % 2 == 1
}

fn build_workload(flows: u64, per_flow: u64, k: usize, seed: u64) -> Workload {
    let agg = DynamicAggregator::new(seed ^ 0xA55A, 8, 100.0, 1.0e7);
    let tracer = PathTracer::new(TracerConfig::paper(8, 2, k));
    let universe: Vec<u64> = (0..48).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let paths: Vec<Vec<u64>> = (0..flows)
        .map(|f| {
            (0..k)
                .map(|h| universe[((f * 31 + h as u64 * 7 + seed) % 48) as usize])
                .collect()
        })
        .collect();
    let mut reports = Vec::new();
    for round in 0..per_flow {
        for flow in 0..flows {
            let pid = flow * per_flow + round + 1;
            let digest = if is_path_flow(flow) {
                tracer.encode_path(pid, &paths[flow as usize])
            } else {
                let mut d = Digest::new(1);
                for hop in 1..=k {
                    let lat = 500.0 * hop as f64 * rng.gen_range(0.5..2.0);
                    agg.encode_hop(pid, hop, lat, &mut d, 0);
                }
                d
            };
            reports.push(DigestReport::new(flow, pid, digest, k as u16, pid));
        }
    }
    Workload {
        agg,
        tracer,
        universe,
        k,
        reports,
        flows,
    }
}

/// The paper's serial Recording Module: one recorder per flow, digests
/// applied in stream order on one thread.
fn serial_baseline(w: &Workload) -> Vec<Box<dyn FlowRecorder>> {
    let mut recs: Vec<Box<dyn FlowRecorder>> = (0..w.flows)
        .map(|f| {
            if is_path_flow(f) {
                Box::new(w.tracer.decoder(w.universe.clone(), w.k)) as Box<dyn FlowRecorder>
            } else {
                Box::new(DynamicRecorder::new_sketched(
                    w.agg.clone(),
                    w.k,
                    SKETCH_BYTES,
                )) as Box<dyn FlowRecorder>
            }
        })
        .collect();
    for r in &w.reports {
        recs[r.flow as usize].absorb(r.pid, &r.digest);
    }
    recs
}

fn spawn_collector(w: &Workload, shards: usize, prefilter: Option<PrefilterConfig>) -> Collector {
    let agg = w.agg.clone();
    let tracer = w.tracer.clone();
    let universe = w.universe.clone();
    Collector::spawn(
        CollectorConfig {
            shards,
            batch_size: 32,
            // Small rings exercise wrap-around and backpressure.
            ring_capacity: 4,
            // No eviction: equivalence is about the answers, so every
            // flow must stay resident.
            max_flows_per_shard: usize::MAX >> 1,
            max_bytes_per_shard: usize::MAX >> 1,
            prefilter,
            ..CollectorConfig::default()
        },
        Arc::new(move |flow, report: &DigestReport| {
            let k = usize::from(report.path_len).max(1);
            if is_path_flow(flow) {
                Box::new(tracer.decoder(universe.clone(), k)) as Box<dyn FlowRecorder>
            } else {
                Box::new(DynamicRecorder::new_sketched(agg.clone(), k, SKETCH_BYTES))
                    as Box<dyn FlowRecorder>
            }
        }),
    )
}

/// Feeds the workload through `producers` concurrent producer threads,
/// each owning the flows with `flow % producers == p` (stream order
/// preserved per flow).
fn ingest(collector: &Collector, w: &Workload, producers: u64) {
    std::thread::scope(|s| {
        for p in 0..producers {
            let mut handle = collector.register_producer();
            let reports = &w.reports;
            s.spawn(move || {
                for r in reports.iter().filter(|r| r.flow % producers == p) {
                    handle.push(r.clone()).expect("collector alive");
                }
                handle.flush().expect("flush");
            });
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn multi_producer_sharded_collector_matches_serial_recording_module(
        flows in 2u64..24,
        per_flow in 30u64..80,
        k in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let w = build_workload(flows, per_flow, k, seed);
        let mut serial = serial_baseline(&w);

        let phis = [0.25, 0.5, 0.9, 0.99];
        // Merged (cross-shard) quantile codes per hop, per (P, S) combo —
        // must be identical across all combinations.
        let mut merged_by_combo: Vec<((u64, usize), Vec<QueryResult>)> = Vec::new();

        for producers in PRODUCER_COUNTS {
            for shards in SHARD_COUNTS {
                let collector = spawn_collector(&w, shards, None);
                ingest(&collector, &w, producers);
                let snap = collector.snapshot().expect("snapshot");

                prop_assert_eq!(snap.num_flows(), flows as usize);
                for flow in 0..flows {
                    let summary = snap.flow(flow).expect("flow tracked");
                    let baseline = &mut serial[flow as usize];
                    prop_assert_eq!(summary.packets, baseline.packets(),
                        "packets diverge: flow {} P {} S {}", flow, producers, shards);
                    if is_path_flow(flow) {
                        let got = summary.path.as_ref().expect("path progress");
                        let want = baseline.path_progress().expect("baseline progress");
                        prop_assert_eq!(got, &want,
                            "path progress diverges: flow {} P {} S {}",
                            flow, producers, shards);
                    } else {
                        // Code-space sketches must agree quantile-for-quantile.
                        let base_sketches = baseline.hop_sketches();
                        for hop in 1..=k {
                            for &phi in &phis {
                                prop_assert_eq!(
                                    summary.hop_sketches[hop].quantile(phi),
                                    base_sketches[hop].quantile(phi),
                                    "quantile diverges: flow {} hop {} phi {} P {} S {}",
                                    flow, hop, phi, producers, shards
                                );
                            }
                        }
                    }
                }

                let merged: Vec<QueryResult> = (1..=k)
                    .map(|hop| {
                        let plan = TelemetryQuery::new().hop_quantiles(hop, phis).plan();
                        snap.execute(&plan.expect("valid plan")).expect("hop quantiles")
                    })
                    .collect();
                merged_by_combo.push(((producers, shards), merged));
                let stats = collector.shutdown();
                prop_assert_eq!(stats.digests_dropped, 0);
            }
        }

        let (first_combo, first) = &merged_by_combo[0];
        for (combo, later) in merged_by_combo.iter().skip(1) {
            prop_assert_eq!(first, later,
                "merged quantiles diverge between combos {:?} and {:?}",
                first_combo, combo);
        }
    }

    /// The ingest-side pre-filter guarantee: a Bloom filter has no
    /// false negatives, so every watch-listed flow answers exactly like
    /// the serial Recording Module — under every producer/shard combo.
    /// Off-watch flows may slip through as false positives, but the
    /// membership test is deterministic per flow ID, so each one is
    /// either fully present (all digests, matching the serial count) or
    /// fully absent — and absences are accounted digest-for-digest in
    /// `digests_prefiltered`, never in `digests_dropped`.
    #[test]
    fn prefilter_never_drops_watch_listed_flows(
        flows in 6u64..24,
        per_flow in 20u64..50,
        k in 2usize..5,
        seed in 0u64..1_000,
    ) {
        let w = build_workload(flows, per_flow, k, seed);
        let mut serial = serial_baseline(&w);
        // Every third flow is off the watch list; the rest mix latency
        // and path flows, so both recorder kinds cross the filter.
        let watch: Vec<u64> = (0..flows).filter(|f| f % 3 != 2).collect();
        let phis = [0.25, 0.5, 0.9, 0.99];

        for producers in PRODUCER_COUNTS {
            for shards in [1usize, 4] {
                let collector =
                    spawn_collector(&w, shards, Some(PrefilterConfig::new(watch.clone())));
                ingest(&collector, &w, producers);
                let snap = collector.snapshot().expect("snapshot");

                let mut ingested_expect = 0u64;
                for flow in 0..flows {
                    let on_watch = watch.contains(&flow);
                    let summary = match snap.flow(flow) {
                        Some(s) => s,
                        None => {
                            prop_assert!(!on_watch,
                                "watch-listed flow {} was pre-filtered away (P {} S {})",
                                flow, producers, shards);
                            continue;
                        }
                    };
                    // Present ⇒ every digest passed (the filter keys on
                    // the flow ID alone), so the serial oracle applies
                    // to false positives too.
                    ingested_expect += per_flow;
                    let baseline = &mut serial[flow as usize];
                    prop_assert_eq!(summary.packets, baseline.packets(),
                        "packets diverge: flow {} P {} S {}", flow, producers, shards);
                    if is_path_flow(flow) {
                        let got = summary.path.as_ref().expect("path progress");
                        let want = baseline.path_progress().expect("baseline progress");
                        prop_assert_eq!(got, &want,
                            "path progress diverges: flow {} P {} S {}",
                            flow, producers, shards);
                    } else {
                        let base_sketches = baseline.hop_sketches();
                        for hop in 1..=k {
                            for &phi in &phis {
                                prop_assert_eq!(
                                    summary.hop_sketches[hop].quantile(phi),
                                    base_sketches[hop].quantile(phi),
                                    "quantile diverges: flow {} hop {} phi {} P {} S {}",
                                    flow, hop, phi, producers, shards
                                );
                            }
                        }
                    }
                }

                let stats = collector.shutdown();
                prop_assert_eq!(stats.digests_dropped, 0);
                prop_assert_eq!(stats.ingested, ingested_expect,
                    "ingested count disagrees with surviving flows (P {} S {})",
                    producers, shards);
                prop_assert_eq!(
                    stats.digests_prefiltered,
                    flows * per_flow - ingested_expect,
                    "pre-filter accounting leaks digests (P {} S {})",
                    producers, shards
                );
            }
        }
    }
}

/// Feature-independent pin of pooled batch recycling, via the public
/// metrics registry: after a warmup pass, a barrier-paced producer is
/// fed entirely from the recycle lane — `collector_batch_allocs_total`
/// stays flat while `collector_batches_recycled_total` keeps rising.
/// (Registration seeds each lane with a spare, so two buffers circulate
/// and the lane is deterministically non-empty at every re-arm — even
/// when the shard drains and recycles a batch before the producer's
/// own re-arm, which would otherwise collapse the lane to a single
/// racing buffer. The allocator-level version of this pin lives in the
/// collector crate's `measure-alloc` tests.)
#[test]
fn steady_state_batch_allocations_stay_flat() {
    let w = build_workload(8, 40, 3, 7);
    let collector = spawn_collector(&w, 1, None);
    let mut handle = collector.register_producer();
    let batch = 32; // spawn_collector's batch_size
    let mut cycles = w.reports.chunks(batch).cycle();
    let mut run_cycle = |handle: &mut pint::collector::CollectorHandle| {
        for r in cycles.next().expect("cycle is infinite") {
            handle.push(r.clone()).expect("collector alive");
        }
        handle.flush().expect("flush");
        collector.barrier().expect("barrier");
    };
    for _ in 0..4 {
        run_cycle(&mut handle);
    }
    let warmed = collector.metrics().snapshot();
    let allocs_warm = warmed.counter_total("collector_batch_allocs_total");
    let recycled_warm = warmed.counter_total("collector_batches_recycled_total");
    for _ in 0..16 {
        run_cycle(&mut handle);
    }
    let after = collector.metrics().snapshot();
    assert_eq!(
        after.counter_total("collector_batch_allocs_total"),
        allocs_warm,
        "steady state allocated fresh batches instead of recycling"
    );
    assert!(
        after.counter_total("collector_batches_recycled_total") >= recycled_warm + 16,
        "steady-state ships were not fed from the recycle lane"
    );
    drop(handle);
    let stats = collector.shutdown();
    assert_eq!(stats.digests_dropped, 0);
}
