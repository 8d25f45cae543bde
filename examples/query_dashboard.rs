//! A telemetry dashboard on the unified query tier.
//!
//! One `TelemetryQuery` builder drives every panel — top-K elephants,
//! a positional watch list, hop tail latencies, path tracing through a
//! chosen switch, delta polls that only ship what changed, and a
//! stats strip — first against the live `Collector`, then over
//! loopback TCP through a `QueryResponder`, asserting the remote
//! answers are byte-identical to local execution.
//!
//! Run with `cargo run --release --example query_dashboard`. The
//! example asserts its invariants and exits non-zero on any mismatch.

use pint::collector::{sketched_latency_factory, Collector, CollectorConfig, RecorderFactory};
use pint::core::dynamic::DynamicAggregator;
use pint::core::statictrace::{PathTracer, TracerConfig};
use pint::core::{Digest, DigestReport, FlowRecorder};
use pint::query::remote::{QueryClient, QueryResponder};
use pint::query::{QueryResult, TelemetryQuery};
use pint::wire::WireEncode;
use std::sync::Arc;
use std::time::Instant;

const LATENCY_FLOWS: u64 = 5_000;
const PATH_BASE: u64 = 1_000_000;
const PATH_FLOWS: u64 = 20;
const HOPS: usize = 4;
const WATCH_SWITCH: u64 = 19;

fn main() {
    let t0 = Instant::now();
    let agg = DynamicAggregator::new(3, 8, 100.0, 1.0e7);
    let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
    let universe: Vec<u64> = (0..64).collect();
    let latency = sketched_latency_factory(agg.clone(), 96);
    let factory_tracer = tracer.clone();
    let factory: RecorderFactory = Arc::new(move |flow, report: &DigestReport| {
        if flow >= PATH_BASE {
            Box::new(factory_tracer.decoder(universe.clone(), usize::from(report.path_len).max(1)))
                as Box<dyn FlowRecorder>
        } else {
            latency(flow, report)
        }
    });
    let collector = Collector::spawn(CollectorConfig::with_shards(4), factory);
    let mut handle = collector.register_producer();

    // ---- Ingest: a long-tailed flow population + path flows --------
    let mut pushed = 0u64;
    let mut clock = 0u64;
    for flow in 0..LATENCY_FLOWS {
        // Flows 0..16 are elephants (profile packets), the rest mice.
        let packets = if flow < 16 { 200 + flow } else { 2 + flow % 5 };
        for pid in 0..packets {
            let mut d = Digest::new(1);
            for hop in 1..=HOPS {
                let hot = if flow < 16 && hop == 3 { 20_000.0 } else { 0.0 };
                agg.encode_hop(
                    flow * 10_000 + pid,
                    hop,
                    700.0 * hop as f64 + hot,
                    &mut d,
                    0,
                );
            }
            clock += 1;
            handle
                .push(DigestReport::new(
                    flow,
                    flow * 10_000 + pid,
                    d,
                    HOPS as u16,
                    clock,
                ))
                .unwrap();
            pushed += 1;
        }
    }
    for off in 0..PATH_FLOWS {
        let path: Vec<u64> = (0..4)
            .map(|h| {
                if h == 1 && off.is_multiple_of(4) {
                    WATCH_SWITCH
                } else {
                    // Steer clear of the watch switch so only the
                    // designated flows route through it.
                    let s = (off * 7 + h * 13 + 2) % 64;
                    if s == WATCH_SWITCH {
                        (s + 1) % 64
                    } else {
                        s
                    }
                }
            })
            .collect();
        for pid in 1..=300u64 {
            let digest = tracer.encode_path(pid, &path);
            clock += 1;
            handle
                .push(DigestReport::new(
                    PATH_BASE + off,
                    pid,
                    digest,
                    path.len() as u16,
                    clock,
                ))
                .unwrap();
            pushed += 1;
        }
    }
    handle.flush().unwrap();
    collector.barrier().unwrap();
    println!(
        "ingested {pushed} digests across {} flows in {:?}\n",
        LATENCY_FLOWS + PATH_FLOWS,
        t0.elapsed()
    );

    // ---- Panel 1: elephants (top-K, rank-ordered) ------------------
    let top = collector
        .query(&TelemetryQuery::new().top_k(10).plan().unwrap())
        .expect("top-k");
    println!("top-10 flows by packets:");
    let QueryResult::Summaries(rows) = &top else {
        panic!("top-k must project summaries");
    };
    assert_eq!(rows.len(), 10);
    assert!(
        rows.windows(2).all(|w| w[0].1.packets >= w[1].1.packets),
        "rank order: heaviest first"
    );
    for (flow, s) in rows {
        println!("  flow {flow:>7}: {:>4} packets", s.packets);
    }

    // ---- Panel 2: watch list keeps its screen positions ------------
    let watch_ids = [14u64, 3, 4_999, 77, 123_456_789];
    let watch = collector
        .query(&TelemetryQuery::new().watch(watch_ids).plan().unwrap())
        .expect("watch list");
    let QueryResult::Summaries(rows) = &watch else {
        panic!("watch must project summaries");
    };
    let got: Vec<u64> = rows.iter().map(|&(f, _)| f).collect();
    assert_eq!(got, vec![14, 3, 4_999, 77], "request order, unknown absent");
    println!("\nwatch list rows (request order): {got:?}");

    // ---- Panel 3: hop tail latency without shipping any flow -------
    println!("\nhop tail latencies (whole table, 3 numbers per hop):");
    println!("{:>4} {:>12} {:>12} {:>12}", "hop", "p50", "p99", "samples");
    for hop in 1..=HOPS {
        let q = collector
            .query(
                &TelemetryQuery::new()
                    .hop_quantiles(hop, [0.5, 0.99])
                    .plan()
                    .unwrap(),
            )
            .expect("hop quantiles");
        let QueryResult::HopQuantiles { samples, .. } = q else {
            panic!("wrong projection");
        };
        let decoded = q.decode_quantiles(&agg);
        println!(
            "{hop:>4} {:>10.0}ns {:>10.0}ns {samples:>12}",
            decoded[0].1, decoded[1].1
        );
    }
    // The elephants' hot hop 3 must dominate the p99.
    let p99_hop3 = collector
        .query(
            &TelemetryQuery::new()
                .hop_quantiles(3, [0.99])
                .plan()
                .unwrap(),
        )
        .unwrap()
        .decode_quantiles(&agg)[0]
        .1;
    assert!(
        p99_hop3 > 10_000.0,
        "hop-3 p99 must see the hot flows: {p99_hop3}"
    );

    // ---- Panel 4: everything routed through switch S ---------------
    let through = collector
        .query(
            &TelemetryQuery::new()
                .through_switch(WATCH_SWITCH)
                .decoded_paths()
                .plan()
                .unwrap(),
        )
        .expect("path predicate");
    let QueryResult::DecodedPaths(paths) = &through else {
        panic!("wrong projection");
    };
    assert_eq!(
        paths.len(),
        (PATH_FLOWS as usize).div_ceil(4),
        "every 4th path flow routes through the watch switch"
    );
    println!("\nflows routed through switch {WATCH_SWITCH}:");
    for (flow, path) in paths {
        println!("  flow {flow:>7}: {path:?}");
        assert!(path.contains(&WATCH_SWITCH));
    }
    let completion = collector
        .query(&TelemetryQuery::new().path_completion().plan().unwrap())
        .expect("completion");
    if let QueryResult::PathCompletion { complete, total } = completion {
        println!("path completion: {complete}/{total}");
        assert_eq!(total, PATH_FLOWS, "all path flows tracked");
    }

    // ---- Panel 5: delta polls only ship what changed ---------------
    let epoch = clock; // everything so far is ≤ epoch
    for pid in 0..50u64 {
        let mut d = Digest::new(1);
        agg.encode_hop(4_242 * 10_000 + 900 + pid, 1, 1_000.0, &mut d, 0);
        clock += 1;
        handle
            .push(DigestReport::new(
                4_242,
                4_242 * 10_000 + 900 + pid,
                d,
                1,
                clock,
            ))
            .unwrap();
        pushed += 1;
    }
    handle.flush().unwrap();
    let delta = collector
        .query(&TelemetryQuery::new().since(epoch).stats().plan().unwrap())
        .expect("delta poll");
    let QueryResult::Stats(stats) = delta else {
        panic!("wrong projection");
    };
    assert_eq!(stats.flows, 1, "only the flow updated after the epoch");
    println!(
        "\ndelta poll since epoch {epoch}: {} flow changed ({} packets held)",
        stats.flows, stats.packets
    );

    // ---- Panel 6: whole-table stats strip --------------------------
    let strip = collector
        .query(&TelemetryQuery::new().stats().plan().unwrap())
        .expect("stats");
    if let QueryResult::Stats(s) = strip {
        let table = s.table.expect("all-flows queries report table totals");
        println!(
            "stats: {} flows, {} packets, ~{} KiB recorder state, {} ingested",
            s.flows,
            s.packets,
            s.state_bytes / 1024,
            table.ingested
        );
        assert_eq!(table.ingested, pushed, "nothing lost");
    }

    // ---- The same dashboard, remote: loopback TCP ------------------
    let collector = Arc::new(collector);
    let responder =
        QueryResponder::bind("127.0.0.1:0", Arc::clone(&collector)).expect("bind responder");
    let mut client = QueryClient::connect(responder.local_addr()).expect("connect");
    let panels = [
        TelemetryQuery::new().top_k(10).plan().unwrap(),
        TelemetryQuery::new().watch(watch_ids).plan().unwrap(),
        TelemetryQuery::new()
            .hop_quantiles(3, [0.5, 0.99])
            .plan()
            .unwrap(),
        TelemetryQuery::new()
            .through_switch(WATCH_SWITCH)
            .decoded_paths()
            .plan()
            .unwrap(),
        TelemetryQuery::new().since(epoch).stats().plan().unwrap(),
        TelemetryQuery::new().stats().plan().unwrap(),
    ];
    let mut remote_bytes = 0usize;
    for plan in &panels {
        let remote = client.query(plan).expect("remote query");
        let local = collector.query(plan).expect("local query");
        assert_eq!(
            remote.encode(),
            local.encode(),
            "remote must be byte-identical to local for {plan:?}"
        );
        remote_bytes += remote.encode().len();
    }
    let full_snapshot_bytes = collector
        .export_snapshot_frame(1, 1)
        .expect("snapshot frame")
        .len();
    println!(
        "\nremote dashboard: {} panels over TCP ≡ local, {} B total vs {} B for one full snapshot ({}x less)",
        panels.len(),
        remote_bytes,
        full_snapshot_bytes,
        full_snapshot_bytes / remote_bytes.max(1)
    );
    assert!(
        remote_bytes * 10 < full_snapshot_bytes,
        "the whole dashboard must cost <1/10th of a full snapshot"
    );
    responder.shutdown();
    let stats = Arc::try_unwrap(collector)
        .map(|c| c.shutdown())
        .unwrap_or_else(|_| panic!("responder still holds the collector"));
    assert_eq!(stats.digests_dropped, 0);
    println!("done in {:?}", t0.elapsed());
}
