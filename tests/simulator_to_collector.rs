//! End-to-end integration: simulator digests flow into a collector.
//!
//! A telemetry hook runs the latency query's Encoding Module at every
//! switch dequeue; the simulator's digest sink hands each extracted
//! digest to a `CollectorHandle`, as a PINT sink would. The collector
//! must ingest every digest the sink pushed, lose none, and answer a
//! per-hop latency quantile from them.

use pint::core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint::netsim::packet::Packet;
use pint::netsim::sim::{SimConfig, Simulator};
use pint::netsim::telemetry::{SwitchView, TelemetryHook};
use pint::netsim::topology::Topology;
use pint::netsim::transport::reno::Reno;
use pint::netsim::NodeKind;
use pint::{
    Collector, CollectorConfig, Digest, DigestReport, FlowRecorder, QueryResult, TelemetryQuery,
};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// Dynamic-aggregation Encoding Module on hop latency: each switch
/// compresses its observed hop latency into digest lane 0 under the
/// reservoir rule, so the sink sees what a latency `DynamicRecorder`
/// decodes.
struct LatencyHook {
    agg: DynamicAggregator,
}

impl TelemetryHook for LatencyHook {
    fn initial_bytes(&self) -> u32 {
        self.agg.bits().div_ceil(8)
    }

    fn on_dequeue(&mut self, view: &SwitchView, pkt: &mut Packet) {
        if pkt.digest.lanes() == 0 {
            pkt.digest = Digest::new(1);
        }
        let latency = view.hop_latency_ns.max(1) as f64;
        self.agg
            .encode_hop(pkt.id, view.hop, latency, &mut pkt.digest, 0);
    }
}

#[test]
fn simulator_digests_flow_into_collector_end_to_end() {
    // host0 — switch — host1; one 500 KB flow under PINT latency
    // telemetry; the sink forwards digests into a 2-shard collector.
    let mut topo = Topology::new("pair");
    let h0 = topo.add_node(NodeKind::Host);
    let s = topo.add_node(NodeKind::Switch);
    let h1 = topo.add_node(NodeKind::Host);
    topo.add_duplex(h0, s, 10_000_000_000, 1_000);
    topo.add_duplex(s, h1, 10_000_000_000, 1_000);

    let agg = DynamicAggregator::new(77, 8, 100.0, 1.0e9);
    let rec_agg = agg.clone();
    let collector = Collector::spawn(
        CollectorConfig {
            shards: 2,
            batch_size: 32,
            ..CollectorConfig::default()
        },
        Arc::new(move |_flow, report: &DigestReport| {
            Box::new(DynamicRecorder::new_exact(
                rec_agg.clone(),
                usize::from(report.path_len).max(1),
            )) as Box<dyn FlowRecorder>
        }),
    );

    let mut sim = Simulator::new(
        topo,
        SimConfig::default(),
        Box::new(|meta| Box::new(Reno::new(meta))),
        Box::new(LatencyHook { agg: agg.clone() }),
    );
    let pushed = Rc::new(Cell::new(0u64));
    let mut handle = collector.register_producer();
    let counter = pushed.clone();
    sim.set_digest_sink(Box::new(move |report| {
        counter.set(counter.get() + 1);
        handle.push(report).expect("collector accepts every digest");
    }));
    let hosts = sim.topology().hosts();
    sim.add_flow(hosts[0], hosts[1], 500_000, 0);
    // `run` consumes the simulator; the sink closure (and its handle)
    // is dropped on return, flushing the tail batch.
    let report = sim.run();
    assert_eq!(report.finished().count(), 1, "flow must complete");
    let pushed = pushed.get();
    assert!(pushed >= 500, "digests pushed: {pushed}");

    let snap = collector.snapshot().expect("snapshot");
    assert_eq!(snap.num_flows(), 1, "one flow tracked");
    let run = |query: TelemetryQuery| snap.execute(&query.plan().unwrap()).unwrap();
    match run(TelemetryQuery::new().stats()) {
        QueryResult::Stats(s) => assert_eq!(s.packets, pushed),
        other => panic!("unexpected {other:?}"),
    }
    // Hop 1 has latency samples; the merged quantile decodes sanely.
    let q = run(TelemetryQuery::new().hop_quantiles(1, [0.5])).decode_quantiles(&agg);
    assert!(
        q.first().is_some_and(|&(_, q)| q >= 1.0),
        "median hop latency: {q:?}"
    );

    let stats = collector.shutdown();
    assert_eq!(stats.ingested, pushed, "every pushed digest ingested");
    assert_eq!(stats.digests_dropped, 0);
    assert_eq!(stats.active_flows, 1);
}
