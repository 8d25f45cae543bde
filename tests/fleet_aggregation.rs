//! Fleet-tier integration: N collector processes' snapshots, shipped as
//! wire frames over both transports, merge into a fleet view that
//! answers like one collector that saw all the traffic.
//!
//! The traffic is split *by packet* (`pid % 3`) across three
//! collectors, so every flow overlaps all three — the hard merge case:
//! per-flow sketches must combine across collectors, not just
//! concatenate. The reference answer is a fourth collector ingesting
//! the combined stream.
//!
//! A collector's export frame is pinned byte for byte to the encoding
//! of its merged snapshot, for every recorder kind and shard count.
//!
//! A fleet keeps each snapshot frame undecoded until a read needs it,
//! and memoises the merged view per `(collector, epoch)` vector: every
//! answer, across newer epochs, stale epochs and departures, equals
//! `FleetView::merge` of the newest decoded snapshots.

use pint::collector::{
    sketched_latency_factory, Collector, CollectorConfig, RecorderFactory, SnapshotFrame,
};
use pint::core::dynamic::{DynamicAggregator, DynamicRecorder, FrequentValuesRecorder};
use pint::core::statictrace::{PathTracer, TracerConfig};
use pint::core::{Digest, DigestReport, FlowRecorder};
use pint::fleet::{
    FleetAggregator, FleetClient, FleetCondition, FleetConfig, FleetEdge, FleetRule, FleetServer,
    FleetView, InMemoryTransport, Selector,
};
use pint::query::{QueryPlan, QueryResult, TelemetryQuery, ValueDecodeSpec};
use pint::wire::{frame_into, parse_frame, FrameType, WireDecode, WireEncode, WireWriter};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PODS: u64 = 3;
const FLOWS: u64 = 90;
const PER_FLOW: u64 = 90;
const HOPS: usize = 4;
const HOT_FLOWS: u64 = 3;
const HOT_NS: f64 = 200_000.0;
/// The value codec every test collector encodes with
/// (`DynamicAggregator::new(_, 8, 100.0, 1.0e7)`), as a plan's decode
/// spec.
const SPEC: ValueDecodeSpec = ValueDecodeSpec {
    bits: 8,
    v_min: 100.0,
    v_max: 1.0e7,
};

/// Digests recorded across every flow a backend holds (a `Stats` plan).
fn total_packets(answer: QueryResult) -> u64 {
    match answer {
        QueryResult::Stats(s) => s.packets,
        other => panic!("unexpected {other:?}"),
    }
}

fn stats_plan() -> QueryPlan {
    TelemetryQuery::new().stats().plan().unwrap()
}

/// The value a decoded single-quantile answer carries.
fn decoded_quantile(answer: QueryResult) -> f64 {
    match answer {
        QueryResult::HopQuantilesDecoded { quantiles, .. } => quantiles[0].1,
        other => panic!("unexpected {other:?}"),
    }
}

/// Hop `hop`'s ϕ-quantile over every flow, decoded to nanoseconds.
fn quantile_plan(hop: usize, phi: f64) -> QueryPlan {
    TelemetryQuery::new()
        .hop_quantiles_decoded(hop, [phi], SPEC)
        .plan()
        .unwrap()
}

/// The full digest stream, identical for every ingestion strategy.
fn build_reports(agg: &DynamicAggregator) -> Vec<DigestReport> {
    let mut reports = Vec::new();
    for pid_round in 0..PER_FLOW {
        for flow in 0..FLOWS {
            let pid = flow * PER_FLOW + pid_round;
            let mut digest = Digest::new(1);
            for hop in 1..=HOPS {
                let ns = if hop == 3 && flow < HOT_FLOWS {
                    HOT_NS
                } else {
                    1_000.0 * hop as f64
                };
                agg.encode_hop(pid, hop, ns, &mut digest, 0);
            }
            reports.push(DigestReport::new(flow, pid, digest, HOPS as u16, pid_round));
        }
    }
    reports
}

fn collect(reports: impl Iterator<Item = DigestReport>, agg: &DynamicAggregator) -> Collector {
    let collector = Collector::spawn(
        CollectorConfig::with_shards(2),
        sketched_latency_factory(agg.clone(), 256),
    );
    let mut handle = collector.register_producer();
    for r in reports {
        handle.push(r).unwrap();
    }
    handle.flush().unwrap();
    collector
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        rules: vec![
            // "p90 across all flows through the congested switch": the
            // operator resolves switch S to its flow set and scopes the
            // rule to it.
            FleetRule::new(FleetCondition::QuantileAbove {
                hop: 3,
                phi: 0.9,
                threshold: 100_000.0,
                min_samples: 30,
                decode: SPEC,
            })
            .scoped((0..HOT_FLOWS).collect()),
        ],
        metrics: None,
        trace: None,
    }
}

#[test]
fn fleet_view_matches_single_collector_over_both_transports() {
    let agg = DynamicAggregator::new(41, 8, 100.0, 1.0e7);
    let reports = build_reports(&agg);

    // Reference: one collector sees the combined traffic.
    let combined = collect(reports.iter().cloned(), &agg);
    let combined_snap = combined.snapshot().unwrap();

    // Three "pods", each seeing every third packet of every flow.
    let mut frames = Vec::new();
    for pod in 0..PODS {
        let pod_collector = collect(
            reports.iter().filter(|r| r.pid % PODS == pod).cloned(),
            &agg,
        );
        frames.push(pod_collector.export_snapshot_frame(pod, 1).unwrap());
        pod_collector.shutdown();
    }

    // ---- In-memory transport --------------------------------------
    let transport = InMemoryTransport::new();
    let sender = transport.sender();
    for f in &frames {
        sender.send(f.clone()).unwrap();
    }
    let mut mem_agg = FleetAggregator::new(fleet_config());
    assert_eq!(transport.pump_into(&mut mem_agg).unwrap(), PODS as usize);
    let mem_view = mem_agg.view();

    // ---- Real loopback TCP ----------------------------------------
    let server = FleetServer::bind("127.0.0.1:0", fleet_config()).unwrap();
    let addr = server.local_addr();
    let mut joins = Vec::new();
    for f in frames.clone() {
        joins.push(std::thread::spawn(move || {
            let mut client = FleetClient::connect(addr).unwrap();
            client.send(&f).unwrap();
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.with_aggregator(|a| a.stats().snapshots_applied) < PODS {
        assert!(Instant::now() < deadline, "TCP snapshots not applied");
        std::thread::sleep(Duration::from_millis(5));
    }
    let tcp_agg = server.shutdown();
    let mut tcp_agg = tcp_agg.lock().unwrap();
    let tcp_view = tcp_agg.view();

    // ---- The fleet view answers like the combined collector -------
    assert_eq!(mem_view.num_flows(), FLOWS as usize);
    assert_eq!(
        total_packets(mem_view.execute(&stats_plan()).unwrap()),
        FLOWS * PER_FLOW
    );
    assert_eq!(mem_view.collectors(), &[0, 1, 2]);
    for flow in [0u64, 1, 7, 33, 88] {
        let fleet_summary = mem_view.snapshot().flow(flow).unwrap();
        let combined_summary = combined_snap.flow(flow).unwrap();
        assert_eq!(
            fleet_summary.packets, combined_summary.packets,
            "flow {flow} packet count exact"
        );
        for hop in 1..=HOPS {
            for phi in [0.5, 0.9] {
                let fleet_q = fleet_summary.hop_sketches[hop]
                    .quantile(phi)
                    .map(|c| agg.decode(c))
                    .unwrap();
                let combined_q = combined_summary.hop_sketches[hop]
                    .quantile(phi)
                    .map(|c| agg.decode(c))
                    .unwrap();
                assert!(
                    (fleet_q / combined_q - 1.0).abs() < 0.25,
                    "flow {flow} hop {hop} p{:.0}: fleet {fleet_q} vs combined {combined_q}",
                    phi * 100.0
                );
            }
        }
    }
    // Fleet-wide merged quantiles track the combined run too.
    for hop in 1..=HOPS {
        let plan = quantile_plan(hop, 0.5);
        let fleet_q = decoded_quantile(mem_view.execute(&plan).unwrap());
        let combined_q = decoded_quantile(combined_snap.execute(&plan).unwrap());
        assert!(
            (fleet_q / combined_q - 1.0).abs() < 0.25,
            "hop {hop} fleet-wide p50: {fleet_q} vs {combined_q}"
        );
    }

    // ---- TCP produced the same fleet state as in-memory -----------
    assert_eq!(tcp_view.num_flows(), mem_view.num_flows());
    assert_eq!(
        tcp_view.execute(&stats_plan()).unwrap(),
        mem_view.execute(&stats_plan()).unwrap()
    );
    for flow in 0..FLOWS {
        let a = tcp_view.snapshot().flow(flow).unwrap();
        let b = mem_view.snapshot().flow(flow).unwrap();
        assert_eq!(a.packets, b.packets);
        for hop in 1..=HOPS {
            assert_eq!(
                a.hop_sketches[hop].quantile(0.9),
                b.hop_sketches[hop].quantile(0.9),
                "flow {flow} hop {hop}: identical bytes ⇒ identical answers"
            );
        }
    }

    // ---- Fleet queries and the fleet-level rule --------------------
    let top = mem_view
        .execute(&TelemetryQuery::new().top_k(5).plan().unwrap())
        .unwrap();
    assert_eq!(top.len(), 5);
    let watch = mem_view
        .execute(
            &TelemetryQuery::new()
                .flows([0, 1, 2, 9_999])
                .plan()
                .unwrap(),
        )
        .unwrap();
    assert_eq!(watch.len(), 3, "unknown flow absent from watch list");
    match watch {
        QueryResult::Summaries(rows) => {
            assert_eq!(
                rows.iter().map(|&(f, _)| f).collect::<Vec<_>>(),
                vec![0, 1, 2]
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    let events = mem_agg.drain_events();
    assert!(
        events
            .iter()
            .any(|e| e.edge == FleetEdge::Fired && e.rule == 0),
        "fleet rule must fire on the congested hop: {events:?}"
    );
    let tcp_events = tcp_agg.drain_events();
    assert!(
        tcp_events.iter().any(|e| e.edge == FleetEdge::Fired),
        "same rule fires over TCP: {tcp_events:?}"
    );

    combined.shutdown();
}

#[test]
fn stale_epochs_are_ignored() {
    let agg = DynamicAggregator::new(43, 8, 100.0, 1.0e7);
    let reports = build_reports(&agg);
    let collector = collect(reports.iter().cloned(), &agg);

    let epoch1 = collector.export_snapshot_frame(9, 1).unwrap();
    let mut fleet = FleetAggregator::new(FleetConfig::default());
    fleet.ingest_frame(&epoch1).unwrap();
    let packets_before = total_packets(fleet.query(&stats_plan()).unwrap());

    // Re-delivering the same epoch (duplicate frame, out-of-order
    // replay) changes nothing.
    fleet.ingest_frame(&epoch1).unwrap();
    assert_eq!(fleet.stats().snapshots_stale, 1);
    assert_eq!(
        total_packets(fleet.query(&stats_plan()).unwrap()),
        packets_before
    );

    // A newer epoch replaces the old state instead of double counting.
    let mut handle = collector.register_producer();
    handle.push(reports[0].clone()).unwrap();
    handle.flush().unwrap();
    let epoch2 = collector.export_snapshot_frame(9, 2).unwrap();
    fleet.ingest_frame(&epoch2).unwrap();
    assert_eq!(
        total_packets(fleet.query(&stats_plan()).unwrap()),
        packets_before + 1,
        "replacement, not accumulation"
    );
    assert_eq!(fleet.collector_epochs(), vec![(9, 2)]);
    collector.shutdown();
}

/// How the latency flows of [`mixed_collector`] store their samples.
#[derive(Debug, Clone, Copy)]
enum LatencyStore {
    Sketched,
    Exact,
    Sliding,
}

/// A collector whose flows cycle through latency (`flow % 3 == 0`,
/// kept in `store`), path-tracing and frequent-values recorders, fed
/// `per_flow` digests for each of `flows` flows and flushed.
fn mixed_collector(
    config: CollectorConfig,
    store: LatencyStore,
    flows: u64,
    per_flow: u64,
) -> Collector {
    let agg = DynamicAggregator::new(47, 8, 100.0, 1.0e7);
    let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
    let frequent = FrequentValuesRecorder::new(13, HOPS, 8);
    let universe: Vec<u64> = (0..64).collect();
    let (rec_agg, rec_tracer) = (agg.clone(), tracer.clone());
    let factory: RecorderFactory = Arc::new(move |flow, report: &DigestReport| {
        let k = usize::from(report.path_len).max(1);
        match flow % 3 {
            0 => Box::new(match store {
                LatencyStore::Sketched => DynamicRecorder::new_sketched(rec_agg.clone(), k, 64),
                LatencyStore::Exact => DynamicRecorder::new_exact(rec_agg.clone(), k),
                LatencyStore::Sliding => DynamicRecorder::new_sliding(rec_agg.clone(), k, 32),
            }) as Box<dyn FlowRecorder>,
            1 => Box::new(rec_tracer.decoder(universe.clone(), k)),
            _ => Box::new(FrequentValuesRecorder::new(13, k, 8)),
        }
    });
    let collector = Collector::spawn(config, factory);
    let mut handle = collector.register_producer();
    for pid in 0..per_flow {
        // Descending: flows take table slots out of flow-ID order.
        for flow in (0..flows).rev() {
            let packet = flow * 1_000 + pid;
            let digest = match flow % 3 {
                0 => {
                    let mut d = Digest::new(1);
                    for hop in 1..=HOPS {
                        let ns = 1_000.0 * (hop as u64 + packet % 17) as f64;
                        agg.encode_hop(packet, hop, ns, &mut d, 0);
                    }
                    d
                }
                1 => tracer.encode_path(packet, &[flow % 64, 7, (flow + 3) % 64, 40]),
                _ => {
                    let mut d = Digest::new(1);
                    for hop in 1..=HOPS {
                        frequent.encode_hop(packet, hop, (flow + packet % 3) % 5, &mut d, 0);
                    }
                    d
                }
            };
            handle
                .push(DigestReport::new(flow, packet, digest, HOPS as u16, pid))
                .unwrap();
        }
    }
    handle.flush().unwrap();
    collector
}

/// The shard-encoded export frame equals encoding `snapshot()` into a
/// `SnapshotFrame`, and the fleet view decoded from it answers a top-K
/// and a stats plan exactly as the collector does.
fn assert_export_matches_snapshot(collector: &Collector, case: &str) {
    let frame = collector.export_snapshot_frame(7, 3).unwrap();
    let reference = SnapshotFrame {
        collector_id: 7,
        epoch: 3,
        snapshot: collector.snapshot().unwrap(),
    }
    .to_frame_bytes();
    assert!(
        frame == reference,
        "{case}: export frame differs from the encoded snapshot"
    );
    let mut fleet = FleetAggregator::new(FleetConfig::default());
    fleet.ingest_frame(&frame).unwrap();
    let view = fleet.view();
    for plan in [
        TelemetryQuery::new().top_k(5).plan().unwrap(),
        TelemetryQuery::new().stats().plan().unwrap(),
    ] {
        assert_eq!(
            view.execute(&plan).unwrap().encode(),
            collector.query(&plan).unwrap().encode(),
            "{case}: fleet answer differs for {plan:?}"
        );
    }
}

#[test]
fn export_frames_equal_the_encoded_snapshot() {
    for shards in [1, 2, 4] {
        for store in [
            LatencyStore::Sketched,
            LatencyStore::Exact,
            LatencyStore::Sliding,
        ] {
            let collector = mixed_collector(CollectorConfig::with_shards(shards), store, 30, 40);
            assert_eq!(collector.snapshot().unwrap().num_flows(), 30);
            assert_export_matches_snapshot(&collector, &format!("{shards} shards, {store:?}"));
            collector.shutdown();
        }
    }

    let empty = Collector::spawn(
        CollectorConfig::with_shards(2),
        sketched_latency_factory(DynamicAggregator::new(47, 8, 100.0, 1.0e7), 64),
    );
    assert_export_matches_snapshot(&empty, "empty collector");
    empty.shutdown();

    let evicting = mixed_collector(
        CollectorConfig {
            max_flows_per_shard: 6,
            ..CollectorConfig::with_shards(2)
        },
        LatencyStore::Sketched,
        60,
        20,
    );
    let table = match evicting.query(&stats_plan()).unwrap() {
        QueryResult::Stats(s) => s.table.unwrap(),
        other => panic!("unexpected {other:?}"),
    };
    let evicted = table.evicted_lru + table.evicted_ttl;
    assert!(evicted > 0, "the table must have evicted");
    assert_export_matches_snapshot(&evicting, "LRU-evicted table");
    evicting.shutdown();
}

/// One plan per selector × projection shape the fleet serves.
fn every_plan() -> Vec<QueryPlan> {
    let q = TelemetryQuery::new;
    [
        q(),
        q().hop_quantiles(3, [0.5, 0.9, 0.99]),
        q().top_k(5),
        q().top_k(5).hop_quantiles(1, [0.5]),
        q().flows([0, 1, 2, 50, 9_999]),
        q().flows([0, 1, 2]).hop_quantiles(3, [0.9]),
        q().watch([7, 0, 3]),
        q().through_switch(3),
        q().stats(),
        q().path_completion(),
        q().decoded_paths(),
    ]
    .into_iter()
    .map(|t| t.plan().unwrap())
    .collect()
}

/// Every snapshot the aggregator holds still encodes to the frame it
/// received: no read wrote through a shared sketch block.
fn assert_stored_frames(fleet: &FleetAggregator, frames: &[Vec<u8>], case: &str) {
    let snapshots = fleet.collector_snapshots();
    assert_eq!(snapshots.len(), frames.len());
    for ((id, snapshot), (_, epoch)) in snapshots.into_iter().zip(fleet.collector_epochs()) {
        let bytes = SnapshotFrame {
            collector_id: id,
            epoch,
            snapshot,
        }
        .to_frame_bytes();
        assert!(
            bytes == frames[id as usize],
            "{case}: collector {id}'s stored snapshot changed"
        );
    }
}

#[test]
fn fleet_reads_never_write_through_shared_sketch_blocks() {
    let agg = DynamicAggregator::new(53, 8, 100.0, 1.0e7);
    let reports = build_reports(&agg);
    // Two pods split by packet, so every flow's sketches merge.
    let frames: Vec<Vec<u8>> = (0..2u64)
        .map(|pod| {
            let c = collect(reports.iter().filter(|r| r.pid % 2 == pod).cloned(), &agg);
            let frame = c.export_snapshot_frame(pod, 1).unwrap();
            c.shutdown();
            frame
        })
        .collect();
    // Both rules, the scoped and the unscoped one, run their plans on
    // the view merged once per apply.
    let mut config = fleet_config();
    config
        .rules
        .push(FleetRule::new(FleetCondition::QuantileAbove {
            hop: 3,
            phi: 0.99,
            threshold: 100_000.0,
            min_samples: 30,
            decode: SPEC,
        }));
    let plans = every_plan();

    let mut fleet = FleetAggregator::new(config.clone());
    for f in &frames {
        fleet.ingest_frame(f).unwrap();
    }
    let answer = |fleet: &FleetAggregator| -> Vec<Vec<u8>> {
        plans
            .iter()
            .map(|p| fleet.query(p).unwrap().encode())
            .collect()
    };
    let direct = answer(&fleet);
    assert_eq!(answer(&fleet), direct, "aggregator answers repeat");
    assert_stored_frames(&fleet, &frames, "aggregator");

    let server = FleetServer::bind("127.0.0.1:0", config).unwrap();
    let mut client = FleetClient::connect(server.local_addr()).unwrap();
    for f in &frames {
        client.send(f).unwrap();
    }
    // Answered in order after the snapshots, so both are applied.
    client.fetch_metrics().unwrap();
    for round in 0..2 {
        let remote: Vec<Vec<u8>> = plans
            .iter()
            .map(|p| client.query(p).unwrap().encode())
            .collect();
        assert_eq!(remote, direct, "server round {round} ≡ aggregator");
    }
    server.with_aggregator(|a| assert_stored_frames(a, &frames, "server"));
    drop(server.shutdown());
}

/// Switch on the first route of every other path flow of
/// [`rule_pod_frames`].
const RULE_SWITCH: u64 = 19;

/// Two pods' snapshot frames over one mixed workload, split by packet
/// (`pid % 2`) so every flow is shared and merges. Of flows `0..30`:
/// - `flow % 3 == 0`: latency flows, the heaviest (≥ 400 digests);
/// - `flow % 3 == 1`: path flows of 300 digests whose route changes
///   after 200, so decoded flows report inconsistencies; every other
///   one's first route crosses [`RULE_SWITCH`];
/// - `flow % 3 == 2`: path flows of 6 digests, too few to decode.
fn rule_pod_frames() -> Vec<Vec<u8>> {
    let agg = DynamicAggregator::new(59, 8, 100.0, 1.0e7);
    let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
    let universe: Vec<u64> = (0..64).collect();
    let (rec_agg, rec_tracer) = (agg.clone(), tracer.clone());
    let factory: RecorderFactory = Arc::new(move |flow, report: &DigestReport| {
        let k = usize::from(report.path_len).max(1);
        if flow % 3 == 0 {
            Box::new(DynamicRecorder::new_sketched(rec_agg.clone(), k, 64)) as Box<dyn FlowRecorder>
        } else {
            Box::new(rec_tracer.decoder(universe.clone(), k))
        }
    });
    let mut reports = Vec::new();
    for flow in 0..30u64 {
        let (packets, routes) = match flow % 3 {
            0 => (400 + flow * 3, Vec::new()),
            1 => {
                let hop2 = if flow % 2 == 1 {
                    RULE_SWITCH
                } else {
                    30 + flow
                };
                (
                    300,
                    vec![vec![flow % 16, hop2, 40, 41], vec![flow % 16, 50, 51, 41]],
                )
            }
            _ => (6, vec![vec![flow % 16, 7, 8, 9]]),
        };
        for pid in 0..packets {
            let digest = if routes.is_empty() {
                let mut d = Digest::new(1);
                for hop in 1..=HOPS {
                    let ns = 1_000.0 * hop as f64 + ((flow * 37 + pid) % 50) as f64 * 100.0;
                    agg.encode_hop(pid, hop, ns, &mut d, 0);
                }
                d
            } else {
                tracer.encode_path(pid, &routes[usize::from(pid >= 200) % routes.len()])
            };
            reports.push(DigestReport::new(flow, pid, digest, HOPS as u16, pid));
        }
    }
    (0..2u64)
        .map(|pod| {
            let collector = Collector::spawn(CollectorConfig::with_shards(2), factory.clone());
            let mut handle = collector.register_producer();
            for r in reports.iter().filter(|r| r.pid % 2 == pod) {
                handle.push(r.clone()).unwrap();
            }
            handle.flush().unwrap();
            let frame = collector.export_snapshot_frame(pod, 1).unwrap();
            collector.shutdown();
            frame
        })
        .collect()
}

/// The value a rule's condition compares, read from the answer to the
/// rule's query: `Some` when it crosses the rule's threshold.
fn crossing(condition: &FleetCondition, answer: &QueryResult) -> Option<f64> {
    match (condition, answer) {
        (
            FleetCondition::QuantileAbove {
                threshold,
                min_samples,
                ..
            },
            QueryResult::HopQuantilesDecoded {
                samples, quantiles, ..
            },
        ) => quantiles
            .first()
            .map(|&(_, value)| value)
            .filter(|value| samples >= min_samples && value > threshold),
        (
            FleetCondition::PathCompletionBelow {
                min_fraction,
                min_flows,
            },
            &QueryResult::PathCompletion { complete, total },
        ) => (total > 0 && total >= *min_flows as u64)
            .then(|| complete as f64 / total as f64)
            .filter(|fraction| fraction < min_fraction),
        (FleetCondition::InconsistenciesAbove { min_total }, QueryResult::Stats(s)) => {
            (s.inconsistencies >= *min_total).then_some(s.inconsistencies as f64)
        }
        other => panic!("condition and answer disagree: {other:?}"),
    }
}

/// One rule per condition under an `All`, a `FlowSet`, a
/// `PathThroughSwitch` and a `TopK` scope, each with the plan its query
/// is written as. Thresholds come from the merged answers: a quantile
/// rule needs every in-scope sample of both pods, and an inconsistency
/// rule the merged total, so those fire only on the merged view.
fn rules_and_plans(frames: &[Vec<u8>]) -> Vec<(FleetRule, QueryPlan)> {
    let mut merged = FleetAggregator::new(FleetConfig::default());
    for f in frames {
        merged.ingest_frame(f).unwrap();
    }
    let scopes: [(Option<Selector>, TelemetryQuery); 4] = [
        (None, TelemetryQuery::new().all_flows()),
        (
            Some(Selector::FlowSet(vec![0, 1, 2, 3, 4, 5, 7, 999])),
            TelemetryQuery::new().flows([0, 1, 2, 3, 4, 5, 7, 999]),
        ),
        (
            Some(Selector::PathThroughSwitch(RULE_SWITCH)),
            TelemetryQuery::new().through_switch(RULE_SWITCH),
        ),
        (Some(Selector::TopK(12)), TelemetryQuery::new().top_k(12)),
    ];
    let mut out = Vec::new();
    for (scope, query) in scopes {
        let quantile = query
            .clone()
            .hop_quantiles_decoded(3, [0.9], SPEC)
            .plan()
            .unwrap();
        let samples = match merged.query(&quantile).unwrap() {
            QueryResult::HopQuantilesDecoded { samples, .. } => samples,
            other => panic!("unexpected {other:?}"),
        };
        let stats = query.clone().stats().plan().unwrap();
        let inconsistencies = match merged.query(&stats).unwrap() {
            QueryResult::Stats(s) => s.inconsistencies,
            other => panic!("unexpected {other:?}"),
        };
        let conditions = [
            (
                FleetCondition::QuantileAbove {
                    hop: 3,
                    phi: 0.9,
                    threshold: 0.0,
                    min_samples: samples.max(1),
                    decode: SPEC,
                },
                quantile,
            ),
            (
                FleetCondition::PathCompletionBelow {
                    min_fraction: 1.0,
                    min_flows: 1,
                },
                query.clone().path_completion().plan().unwrap(),
            ),
            (
                FleetCondition::InconsistenciesAbove {
                    min_total: inconsistencies.max(1),
                },
                stats,
            ),
        ];
        for (condition, plan) in conditions {
            let rule = match &scope {
                None => FleetRule::new(condition),
                Some(selector) => FleetRule::new(condition).scoped_by(selector.clone()),
            };
            assert_eq!(
                rule.plan(),
                plan,
                "the rule runs the query it is written as"
            );
            out.push((rule, plan));
        }
    }
    out
}

#[test]
fn a_rule_observes_what_its_query_answers() {
    let frames = rule_pod_frames();
    let cases = rules_and_plans(&frames);
    let config = FleetConfig {
        rules: cases.iter().map(|(rule, _)| rule.clone()).collect(),
        ..FleetConfig::default()
    };
    let server = FleetServer::bind("127.0.0.1:0", config.clone()).unwrap();
    let mut client = FleetClient::connect(server.local_addr()).unwrap();
    let mut fleet = FleetAggregator::new(config);

    // Fired events per rule, and the step (pods applied) that fired it.
    let mut fired: Vec<Vec<usize>> = vec![Vec::new(); cases.len()];
    for (step, frame) in frames.iter().enumerate() {
        fleet.ingest_frame(frame).unwrap();
        client.send(frame).unwrap();
        // Answered in order after the snapshot, so it has applied.
        client.fetch_metrics().unwrap();
        let local = fleet.drain_events();
        let remote = server.with_aggregator(|a| a.drain_events());
        assert_eq!(local, remote, "step {step}: server ≡ aggregator");
        for event in local {
            assert_eq!(event.edge, FleetEdge::Fired, "step {step}: {event:?}");
            assert_eq!(event.collectors, step + 1);
            let (rule, plan) = &cases[event.rule];
            let answer = fleet.query(plan).unwrap();
            assert_eq!(
                client.query(plan).unwrap().encode(),
                answer.encode(),
                "step {step}: TCP ≡ aggregator for {plan:?}"
            );
            assert_eq!(
                Some(event.observed),
                crossing(&rule.condition, &answer),
                "step {step}: rule {} observed what {plan:?} answers",
                event.rule
            );
            fired[event.rule].push(step);
        }
    }
    // Every rule whose merged answer crosses fired exactly once, and
    // no other rule did.
    for (i, (rule, plan)) in cases.iter().enumerate() {
        let crosses = crossing(&rule.condition, &fleet.query(plan).unwrap()).is_some();
        assert_eq!(fired[i].len(), usize::from(crosses), "rule {i}: {plan:?}");
    }
    // Not vacuous. Rules go three per scope (quantile, completion,
    // inconsistencies) in the order all, flow set, through switch,
    // top-K. The quantile rules with latency flows in scope and every
    // inconsistency rule fired on the merged view; the completion
    // rules whose scope holds undecoded flows fired on the first pod.
    for i in [0, 3, 9, 2, 5, 8, 11] {
        assert_eq!(fired[i], vec![1], "rule {i} fires on the merged view");
    }
    for i in [1, 4] {
        assert_eq!(fired[i], vec![0], "rule {i} fires on the first pod");
    }
    drop(server.shutdown());
}

/// A `Bye` frame: `collector` leaves the fleet.
fn bye(collector: u64) -> Vec<u8> {
    struct Id(u64);
    impl WireEncode for Id {
        fn encode_into(&self, out: &mut Vec<u8>) {
            WireWriter::new(out).put_varint(self.0);
        }
    }
    let mut frame = Vec::new();
    frame_into(FrameType::Bye, &Id(collector), &mut frame);
    frame
}

/// One collector replaces its snapshot five times beside a static one,
/// then re-sends a stale epoch and leaves. After every frame, the
/// aggregator and a `FleetServer` — each with and without a rule, which
/// builds the memoised view at apply instead of at the first query —
/// answer every plan, twice, exactly as `FleetView::merge` of the
/// newest decoded snapshots does, and hold one state per collector.
#[test]
fn replaced_snapshots_never_answer_again() {
    let agg = DynamicAggregator::new(59, 8, 100.0, 1.0e7);
    let reports = build_reports(&agg);
    let fixed = collect(reports.iter().filter(|r| r.pid % 2 == 0).cloned(), &agg);
    let mut frames = vec![fixed.export_snapshot_frame(0, 1).unwrap()];
    fixed.shutdown();
    // Collector 1's epochs 1..=5, each over a longer prefix of the
    // odd packets, so every epoch answers differently.
    let live = Collector::spawn(
        CollectorConfig::with_shards(2),
        sketched_latency_factory(agg.clone(), 256),
    );
    let odd: Vec<DigestReport> = reports.iter().filter(|r| r.pid % 2 == 1).cloned().collect();
    let mut handle = live.register_producer();
    for (epoch, chunk) in (1..=5).zip(odd.chunks(odd.len().div_ceil(5))) {
        for r in chunk {
            handle.push(r.clone()).unwrap();
        }
        handle.flush().unwrap();
        frames.push(live.export_snapshot_frame(1, epoch).unwrap());
    }
    drop(handle);
    live.shutdown();
    frames.push(frames[3].clone()); // epoch 3 again: stale
    frames.push(bye(1));

    // What each step must answer: the newest decoded snapshot per
    // collector, merged.
    let mut newest = BTreeMap::new();
    let expected: Vec<Vec<Vec<u8>>> = frames
        .iter()
        .map(|bytes| {
            let (ty, payload) = parse_frame(bytes).unwrap();
            if ty == FrameType::Bye {
                newest.remove(&1);
            } else {
                let frame = SnapshotFrame::decode(payload).unwrap();
                let held = newest.get(&frame.collector_id).map(|&(epoch, _)| epoch);
                if held < Some(frame.epoch) {
                    newest.insert(frame.collector_id, (frame.epoch, frame.snapshot));
                }
            }
            let view = FleetView::merge(newest.iter().map(|(&id, (_, s))| (id, s.clone())));
            every_plan()
                .iter()
                .map(|p| view.execute(p).unwrap().encode())
                .collect()
        })
        .collect();
    // Not vacuous: each new epoch changes the answers, the stale one
    // does not, and the departure leaves the static collector alone.
    assert!(expected[..6].windows(2).all(|w| w[0] != w[1]));
    assert!(expected[6] == expected[5] && expected[7] == expected[0]);
    let epochs = |step: usize| -> Vec<(u64, u64)> {
        match step {
            0 => vec![(0, 1)],
            1..=5 => vec![(0, 1), (1, step as u64)],
            6 => vec![(0, 1), (1, 5)],
            _ => vec![(0, 1)],
        }
    };

    for config in [FleetConfig::default(), fleet_config()] {
        let rules = config.rules.len();
        let mut fleet = FleetAggregator::new(config.clone());
        let server = FleetServer::bind("127.0.0.1:0", config).unwrap();
        let mut client = FleetClient::connect(server.local_addr()).unwrap();
        for (step, (frame, expected)) in frames.iter().zip(&expected).enumerate() {
            let case = format!("{rules} rules, step {step}");
            fleet.ingest_frame(frame).unwrap();
            client.send(frame).unwrap();
            for round in 0..2 {
                let local: Vec<Vec<u8>> = every_plan()
                    .iter()
                    .map(|p| fleet.query(p).unwrap().encode())
                    .collect();
                let remote: Vec<Vec<u8>> = every_plan()
                    .iter()
                    .map(|p| client.query(p).unwrap().encode())
                    .collect();
                assert!(&local == expected, "{case}, round {round}: aggregator");
                assert!(&remote == expected, "{case}, round {round}: server");
            }
            assert_eq!(fleet.collector_epochs(), epochs(step), "{case}");
            assert_eq!(fleet.stats().collectors, epochs(step).len(), "{case}");
            let held = server.with_aggregator(|a| a.collector_epochs());
            assert_eq!(held, epochs(step), "{case}: server");
        }
        assert_eq!(fleet.stats().snapshots_stale, 1);
        drop(server.shutdown());
    }
}
