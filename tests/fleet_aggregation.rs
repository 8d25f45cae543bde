//! Fleet-tier integration: N collector processes' snapshots, shipped as
//! wire frames over both transports, merge into a fleet view that
//! answers like one collector that saw all the traffic.
//!
//! The traffic is split *by packet* (`pid % 3`) across three
//! collectors, so every flow overlaps all three — the hard merge case:
//! per-flow sketches must combine across collectors, not just
//! concatenate. The reference answer is a fourth collector ingesting
//! the combined stream.

use pint::collector::{Collector, CollectorConfig, RecorderFactory};
use pint::core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint::core::{Digest, DigestReport, FlowRecorder};
use pint::fleet::{
    FleetAggregator, FleetCondition, FleetConfig, FleetEdge, FleetRule, FleetServer,
    InMemoryTransport,
};
use pint::query::{QueryResult, TelemetryQuery};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PODS: u64 = 3;
const FLOWS: u64 = 90;
const PER_FLOW: u64 = 90;
const HOPS: usize = 4;
const HOT_FLOWS: u64 = 3;
const HOT_NS: f64 = 200_000.0;

fn factory(agg: &DynamicAggregator) -> RecorderFactory {
    let agg = agg.clone();
    Arc::new(move |_flow, report: &DigestReport| {
        Box::new(DynamicRecorder::new_sketched(
            agg.clone(),
            usize::from(report.path_len).max(1),
            256,
        )) as Box<dyn FlowRecorder>
    })
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
    let collector = Collector::spawn(CollectorConfig::with_shards(2), factory(agg));
    let mut handle = collector.register_producer();
    for r in reports {
        handle.push(r).unwrap();
    }
    handle.flush().unwrap();
    collector
}

fn fleet_config(agg: &DynamicAggregator) -> FleetConfig {
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
            })
            .scoped((0..HOT_FLOWS).collect()),
        ],
        codec: Some(agg.clone()),
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
    let mut mem_agg = FleetAggregator::new(fleet_config(&agg));
    assert_eq!(transport.pump_into(&mut mem_agg).unwrap(), PODS as usize);
    let mem_view = mem_agg.view();

    // ---- Real loopback TCP ----------------------------------------
    let server = FleetServer::bind("127.0.0.1:0", fleet_config(&agg)).unwrap();
    let addr = server.local_addr();
    let mut joins = Vec::new();
    for f in frames.clone() {
        joins.push(std::thread::spawn(move || {
            let mut client = pint::fleet::FleetClient::connect(addr).unwrap();
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
    assert_eq!(mem_view.total_packets(), FLOWS * PER_FLOW);
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
        let fleet_q = mem_view.latency_quantile(hop, 0.5, &agg).unwrap();
        let combined_q = combined_snap.latency_quantile(hop, 0.5, &agg).unwrap();
        assert!(
            (fleet_q / combined_q - 1.0).abs() < 0.25,
            "hop {hop} fleet-wide p50: {fleet_q} vs {combined_q}"
        );
    }

    // ---- TCP produced the same fleet state as in-memory -----------
    assert_eq!(tcp_view.num_flows(), mem_view.num_flows());
    assert_eq!(tcp_view.total_packets(), mem_view.total_packets());
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
    let packets_before = fleet.view().total_packets();

    // Re-delivering the same epoch (duplicate frame, out-of-order
    // replay) changes nothing.
    fleet.ingest_frame(&epoch1).unwrap();
    assert_eq!(fleet.stats().snapshots_stale, 1);
    assert_eq!(fleet.view().total_packets(), packets_before);

    // A newer epoch replaces the old state instead of double counting.
    let mut handle = collector.register_producer();
    handle.push(reports[0].clone()).unwrap();
    handle.flush().unwrap();
    let epoch2 = collector.export_snapshot_frame(9, 2).unwrap();
    fleet.ingest_frame(&epoch2).unwrap();
    assert_eq!(
        fleet.view().total_packets(),
        packets_before + 1,
        "replacement, not accumulation"
    );
    assert_eq!(fleet.collector_epochs(), vec![(9, 2)]);
    collector.shutdown();
}
