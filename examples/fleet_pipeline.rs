//! The fleet tier end-to-end: per-pod collectors → wire frames → one
//! aggregator → fleet-wide answers and alarms.
//!
//! Three collector processes-worth of traffic (each pod's sinks see
//! every third packet of all flows — ECMP-style overlap, the hard merge
//! case) are ingested by three independent `pint-collector` instances.
//! Each exports its snapshot as a versioned `pint-wire` frame; the
//! frames travel BOTH ways the fleet tier supports — the in-memory
//! transport and a real loopback TCP socket — into `pint-fleet`
//! aggregators, which merge them into one fleet view, answer top-K /
//! watch-list / quantile queries no single pod could, and fire a
//! fleet-level tail-latency rule on the congested hop.
//!
//! Run with: `cargo run --release --example fleet_pipeline`

use pint::collector::{sketched_latency_factory, Collector, CollectorConfig, SnapshotFrame};
use pint::core::dynamic::DynamicAggregator;
use pint::core::value::Digest;
use pint::core::DigestReport;
use pint::fleet::{
    FleetAggregator, FleetClient, FleetCondition, FleetConfig, FleetEdge, FleetRule, FleetServer,
    InMemoryTransport,
};
use pint::query::{QueryPlan, QueryResult, TelemetryQuery, ValueDecodeSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const PODS: u64 = 3;
const FLOWS: u64 = 3_000;
const PER_FLOW: u64 = 120;
const HOPS: usize = 5;
const HOT_FLOWS: u64 = 4; // flows crossing the congested switch at hop 3

fn main() {
    // One query plan fleet-wide: an 8-bit budget over [100ns, 10ms].
    let agg = DynamicAggregator::new(71, 8, 100.0, 1.0e7);
    // The same codec as a plan's decode spec: fleet answers and rules
    // decode quantiles to nanoseconds with it.
    let spec = ValueDecodeSpec {
        bits: 8,
        v_min: 100.0,
        v_max: 1.0e7,
    };

    // The combined digest stream, generated once; pod c's sinks see the
    // packets with pid % PODS == c, so every flow spans all pods.
    println!(
        "generating {} digests across {} flows…",
        FLOWS * PER_FLOW,
        FLOWS
    );
    let mut rng = SmallRng::seed_from_u64(2020);
    let mut reports = Vec::with_capacity((FLOWS * PER_FLOW) as usize);
    for round in 0..PER_FLOW {
        for flow in 0..FLOWS {
            let pid = flow * PER_FLOW + round;
            let mut digest = Digest::new(1);
            for hop in 1..=HOPS {
                let base = 800.0 * hop as f64;
                let ns = if hop == 3 && flow < HOT_FLOWS {
                    base * rng.gen_range(150.0..400.0) // congested switch
                } else {
                    base * rng.gen_range(0.8..1.2)
                };
                agg.encode_hop(pid, hop, ns, &mut digest, 0);
            }
            reports.push(DigestReport::new(flow, pid, digest, HOPS as u16, round));
        }
    }

    // ---- Tier 1: three per-pod collectors -------------------------
    let started = Instant::now();
    let mut frames = Vec::new();
    for pod in 0..PODS {
        let collector = Collector::spawn(
            CollectorConfig::with_shards(2),
            sketched_latency_factory(agg.clone(), 128),
        );
        let mut handle = collector.register_producer();
        let mut pushed = 0u64;
        for r in reports.iter().filter(|r| r.pid % PODS == pod) {
            handle.push(r.clone()).expect("pod collector alive");
            pushed += 1;
        }
        handle.flush().expect("flush pod");
        // Snapshot → versioned wire frame, keyed (collector id, epoch).
        let frame = collector
            .export_snapshot_frame(pod, 1)
            .expect("export snapshot frame");
        // The shards encode the frame themselves; it must be the exact
        // bytes of encoding the merged snapshot.
        let reference = SnapshotFrame {
            collector_id: pod,
            epoch: 1,
            snapshot: collector.snapshot().expect("pod snapshot"),
        }
        .to_frame_bytes();
        assert!(
            frame == reference,
            "pod {pod}: export frame differs from the encoded snapshot"
        );
        println!(
            "pod {pod}: ingested {pushed} digests, snapshot frame = {} KiB",
            frame.len() / 1024
        );
        frames.push(frame);
        collector.shutdown();
    }
    println!(
        "collection + export took {:.2?} ({:.2} M digests/s aggregate)",
        started.elapsed(),
        (FLOWS * PER_FLOW) as f64 / started.elapsed().as_secs_f64() / 1e6
    );

    // The fleet-level rule: p90 latency across all flows through the
    // congested switch (scoped to its flow set), fleet-wide.
    let fleet_config = || FleetConfig {
        rules: vec![FleetRule::new(FleetCondition::QuantileAbove {
            hop: 3,
            phi: 0.9,
            threshold: 100_000.0,
            min_samples: 50,
            decode: spec,
        })
        .scoped((0..HOT_FLOWS).collect())],
        metrics: None,
        trace: None,
    };

    // ---- Tier 2a: in-memory transport ------------------------------
    let transport = InMemoryTransport::new();
    let sender = transport.sender();
    for f in &frames {
        sender.send(f.clone()).expect("queue frame");
    }
    let mut mem_fleet = FleetAggregator::new(fleet_config());
    let pumped = transport.pump_into(&mut mem_fleet).expect("pump frames");
    assert_eq!(pumped, PODS as usize);

    // ---- Tier 2b: the same frames over real loopback TCP -----------
    let server = FleetServer::bind("127.0.0.1:0", fleet_config()).expect("bind fleet server");
    let addr = server.local_addr();
    println!("\nfleet server listening on {addr}");
    std::thread::scope(|s| {
        for (pod, frame) in frames.iter().enumerate() {
            s.spawn(move || {
                let mut client = FleetClient::connect(addr).expect("connect pod");
                client.send(frame).expect("ship frame");
                println!("pod {pod} shipped its snapshot over TCP");
            });
        }
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.with_aggregator(|a| a.stats().snapshots_applied) < PODS {
        assert!(Instant::now() < deadline, "TCP snapshots not applied");
        std::thread::sleep(Duration::from_millis(5));
    }
    let tcp_fleet = server.shutdown();
    let mut tcp_fleet = tcp_fleet.lock().expect("fleet aggregator");

    // ---- Fleet-wide answers ----------------------------------------
    let view = mem_fleet.view();
    let stats_plan = TelemetryQuery::new().stats().plan().expect("valid plan");
    let totals = view.execute(&stats_plan).expect("stats query");
    let QueryResult::Stats(totals) = totals else {
        unreachable!("a stats plan answers stats")
    };
    println!(
        "\nfleet view: {} collectors, {} flows, {} digests",
        view.collectors().len(),
        view.num_flows(),
        totals.packets
    );
    assert_eq!(view.num_flows(), FLOWS as usize, "every flow merged");
    assert_eq!(totals.packets, FLOWS * PER_FLOW, "no packet lost");

    // Fleet-wide p50/p99 per hop, decoded server-side through `spec`.
    let hop_plan = |hop| -> QueryPlan {
        TelemetryQuery::new()
            .hop_quantiles_decoded(hop, [0.5, 0.99], spec)
            .plan()
            .expect("valid plan")
    };
    println!("\nfleet-wide hop latency (merged across pods):");
    println!("{:>4} {:>12} {:>12}", "hop", "p50", "p99");
    for hop in 1..=HOPS {
        let q = view
            .execute(&hop_plan(hop))
            .expect("hop quantiles")
            .decode_quantiles(&agg);
        let at = |i: usize| q.get(i).map_or(f64::NAN, |&(_, v)| v);
        println!("{hop:>4} {:>10.0}ns {:>10.0}ns", at(0), at(1));
    }

    println!("\ntop-5 flows by packets (fleet-wide top-K query):");
    let top = view
        .execute(&TelemetryQuery::new().top_k(5).plan().expect("valid plan"))
        .expect("top-k query");
    if let QueryResult::Summaries(rows) = &top {
        for (flow, summary) in rows {
            println!(
                "  flow {flow:>5}: {:>6} packets, hop-3 p90 ≈ {:.0}ns",
                summary.packets,
                summary.hop_sketches[3]
                    .quantile(0.9)
                    .map(|c| agg.decode(c))
                    .unwrap_or(f64::NAN)
            );
        }
    }
    let watch = view
        .execute(
            &TelemetryQuery::new()
                .watch([0, 1, 2, 3, 999_999])
                .plan()
                .expect("valid plan"),
        )
        .expect("watch-list query");
    println!(
        "watch list {{0..3, 999999}}: {} tracked fleet-wide",
        watch.len()
    );
    assert_eq!(watch.len(), 4, "unknown flow absent");

    // Both transports carried identical bytes into identical state.
    let tcp_view = tcp_fleet.view();
    assert_eq!(tcp_view.num_flows(), view.num_flows());
    assert_eq!(
        tcp_view.execute(&stats_plan).expect("stats query"),
        QueryResult::Stats(totals)
    );
    for hop in 1..=HOPS {
        assert_eq!(
            tcp_view.execute(&hop_plan(hop)).expect("hop quantiles"),
            view.execute(&hop_plan(hop)).expect("hop quantiles"),
            "TCP ≡ in-memory at hop {hop}"
        );
    }

    // The fleet-level rule fired on the congested switch, on both paths.
    let mem_events = mem_fleet.drain_events();
    let tcp_events = tcp_fleet.drain_events();
    for (path, events) in [("in-memory", &mem_events), ("tcp", &tcp_events)] {
        let fired = events
            .iter()
            .find(|e| e.edge == FleetEdge::Fired)
            .unwrap_or_else(|| panic!("fleet rule must fire over {path}"));
        println!(
            "FLEET ALERT ({path}): rule {} fired — p90 through the congested switch ≈ {:.0}ns \
             (view of {} collectors)",
            fired.rule, fired.observed, fired.collectors
        );
    }

    let stats = mem_fleet.stats();
    println!(
        "\nfleet stats: {} frames, {} snapshots applied, {} stale, {} decode errors",
        stats.frames, stats.snapshots_applied, stats.snapshots_stale, stats.decode_errors
    );
    assert_eq!(stats.decode_errors, 0);
    println!("fleet pipeline OK: 3 pods → wire frames → merged view → fleet alarm.");
}
