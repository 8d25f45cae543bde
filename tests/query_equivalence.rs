//! The query tier's load-bearing property: **one `QueryPlan`, three
//! backends, identical results on identical state** — byte-for-byte.
//!
//! A collector ingests a mixed latency + path-tracing workload once;
//! its state is then read three ways:
//!
//! 1. locally (`Collector::query`, plan routed to owning shards),
//! 2. remotely (loopback-TCP `Query`/`QueryResponse` frames against a
//!    `QueryResponder` serving the same collector),
//! 3. through the fleet tier (a `FleetView` built from the collector's
//!    exported snapshot frame — i.e. after a full wire round-trip).
//!
//! The proptest drives arbitrary selector × projection × option
//! combinations through all three and compares the *encoded* results,
//! so any divergence in ordering, tie-breaking, or arithmetic fails
//! loudly. The dual property: hostile `Query` frames (garbage,
//! truncations, corrupted payloads) never panic a serving endpoint,
//! which keeps answering real queries afterwards.

use pint::collector::{Collector, CollectorConfig, RecorderFactory};
use pint::core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint::core::statictrace::{PathTracer, TracerConfig};
use pint::core::{Digest, DigestReport, FlowRecorder};
use pint::fleet::{FleetAggregator, FleetConfig, FleetView};
use pint::query::remote::{QueryClient, QueryResponder};
use pint::query::{QueryPlan, QueryResult, TelemetryQuery};
use pint::wire::{frame_into, FrameType, WireDecode, WireEncode};
use pint::QueryBackend;
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, OnceLock};

/// Latency flows 0..LATENCY_FLOWS; path flows PATH_BASE..+PATH_FLOWS.
const LATENCY_FLOWS: u64 = 48;
const PATH_BASE: u64 = 100;
const PATH_FLOWS: u64 = 16;
const HOPS: usize = 4;
/// Switch present in half the path flows' routes.
const HOT_SWITCH: u64 = 19;

struct Ctx {
    collector: Arc<Collector>,
    fleet: FleetView,
    client: Mutex<QueryClient>,
    addr: SocketAddr,
    _responder: QueryResponder,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn build_ctx() -> Ctx {
    let agg = DynamicAggregator::new(7, 8, 100.0, 1.0e7);
    let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
    let universe: Vec<u64> = (0..64).collect();
    let factory_agg = agg.clone();
    let factory_tracer = tracer.clone();
    let factory: RecorderFactory = Arc::new(move |flow, report: &DigestReport| {
        if flow >= PATH_BASE {
            Box::new(factory_tracer.decoder(universe.clone(), usize::from(report.path_len).max(1)))
                as Box<dyn FlowRecorder>
        } else {
            Box::new(DynamicRecorder::new_sketched(
                factory_agg.clone(),
                usize::from(report.path_len).max(1),
                96,
            )) as Box<dyn FlowRecorder>
        }
    });
    let collector = Collector::spawn(CollectorConfig::with_shards(4), factory);
    let mut handle = collector.register_producer();

    // Latency flows: flow f absorbs (f % 9) * 10 + 5 digests, with
    // distinct timestamps so delta plans discriminate, and some exact
    // packet-count ties so top-K tie-breaking is exercised.
    for flow in 0..LATENCY_FLOWS {
        let packets = (flow % 9) * 10 + 5;
        for pid in 0..packets {
            let mut d = Digest::new(1);
            for hop in 1..=HOPS {
                agg.encode_hop(
                    flow * 1_000 + pid,
                    hop,
                    500.0 * hop as f64 + (flow % 7) as f64 * 100.0,
                    &mut d,
                    0,
                );
            }
            let ts = flow * 100 + pid;
            handle
                .push(DigestReport::new(
                    flow,
                    flow * 1_000 + pid,
                    d,
                    HOPS as u16,
                    ts,
                ))
                .unwrap();
        }
    }
    // Path flows: even offsets route through HOT_SWITCH, odd avoid it.
    for off in 0..PATH_FLOWS {
        let flow = PATH_BASE + off;
        let path: Vec<u64> = (0..4)
            .map(|h| {
                if h == 2 && off.is_multiple_of(2) {
                    HOT_SWITCH
                } else {
                    (off * 5 + h * 11 + 1) % 64
                }
            })
            .collect();
        for pid in 1..=200u64 {
            let digest = tracer.encode_path(pid, &path);
            handle
                .push(DigestReport::new(
                    flow,
                    pid,
                    digest,
                    path.len() as u16,
                    10_000 + off * 10 + (pid % 7),
                ))
                .unwrap();
        }
    }
    handle.flush().unwrap();
    collector.barrier().unwrap();

    let collector = Arc::new(collector);
    // Fleet backend: the identical state after a full wire round-trip.
    let frame = collector.export_snapshot_frame(1, 1).unwrap();
    let mut fleet_agg = FleetAggregator::new(FleetConfig::default());
    fleet_agg.ingest_frame(&frame).unwrap();
    let fleet = fleet_agg.view();

    // Wire backend: the same collector served over loopback TCP.
    let responder = QueryResponder::bind("127.0.0.1:0", Arc::clone(&collector)).unwrap();
    let addr = responder.local_addr();
    let client = Mutex::new(QueryClient::connect(addr).unwrap());
    Ctx {
        collector,
        fleet,
        client,
        addr,
        _responder: responder,
    }
}

fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(build_ctx)
}

/// Builds an arbitrary-but-valid plan from proptest-driven raw inputs.
fn build_plan(sel: u8, proj: u8, seed: u64, k: usize, hop: usize, flags: u8) -> QueryPlan {
    let ids: Vec<u64> = (0..(seed % 12 + 1))
        .map(|i| splitmix(seed ^ i) % 140) // known latency/path IDs and unknowns
        .collect();
    let q = TelemetryQuery::new();
    let q = match sel % 5 {
        0 => q.all_flows(),
        1 => q.flows(ids),
        2 => q.top_k(k),
        3 => q.watch(ids),
        _ => q.through_switch(if seed.is_multiple_of(3) {
            HOT_SWITCH
        } else {
            seed % 64
        }),
    };
    let q = match proj % 6 {
        0 => q.summaries(),
        1 => q.hop_quantiles(hop, [0.1, 0.5, 0.9, 0.99]),
        2 => q.path_completion(),
        3 => q.decoded_paths(),
        4 => q.stats(),
        // Server-side decode: the spec mirrors the ingest aggregator
        // (`DynamicAggregator::new(7, 8, 100.0, 1.0e7)` in `build_ctx`),
        // so decoded quantiles are real values, not codes.
        _ => q.hop_quantiles_decoded(
            hop,
            [0.1, 0.5, 0.9, 0.99],
            pint::query::ValueDecodeSpec {
                bits: 8,
                v_min: 100.0,
                v_max: 1.0e7,
            },
        ),
    };
    let q = if flags & 1 != 0 {
        // Timestamps span 0..~12_000; hit the interesting range.
        q.since(splitmix(seed ^ 0xD) % 13_000)
    } else {
        q
    };
    let q = if flags & 2 != 0 {
        q.max_flows((splitmix(seed ^ 0xC) % 20) as usize)
    } else {
        q
    };
    q.plan().expect("generated plans are valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Local ≡ loopback-TCP ≡ fleet-view execution, byte-for-byte.
    #[test]
    fn any_plan_executes_identically_on_all_three_backends(
        sel in 0u8..5,
        proj in 0u8..6,
        seed in any::<u64>(),
        k in 0usize..70,
        hop in 1usize..6,
        flags in 0u8..4,
    ) {
        let ctx = ctx();
        let plan = build_plan(sel, proj, seed, k, hop, flags);

        let local = ctx.collector.query(&plan).expect("local query");
        let remote = {
            let mut client = ctx.client.lock().unwrap();
            let result = client.query(&plan).expect("remote query");
            // Every response carries a freshness watermark: the newest
            // ingested timestamp at answer time, same on every ask
            // against this frozen state.
            let wm = client.last_watermark().expect("response has a watermark");
            prop_assert_eq!(wm, ctx.collector.watermark());
            result
        };
        prop_assert_eq!(
            local.encode(),
            remote.encode(),
            "local vs TCP mismatch for {:?}",
            plan
        );

        let fleet = ctx.fleet.query(&plan).expect("fleet query");
        prop_assert_eq!(
            local.encode(),
            fleet.encode(),
            "local vs fleet mismatch for {:?}",
            plan
        );
    }
}

#[test]
fn corrupted_and_truncated_query_frames_never_panic_the_server() {
    let ctx = ctx();
    let good = pint::query::QueryRequest {
        request_id: 9,
        plan: TelemetryQuery::new().top_k(3).plan().unwrap(),
    }
    .to_frame_bytes();

    // Every truncation of a valid Query frame, then a hard close.
    for cut in 0..good.len() {
        let mut s = TcpStream::connect(ctx.addr).unwrap();
        s.write_all(&good[..cut]).unwrap();
        drop(s);
    }
    // Every single-byte corruption on one connection each; some decode
    // as error responses, some break framing — none may kill the
    // process or wedge the responder.
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0xA5;
        let mut s = TcpStream::connect(ctx.addr).unwrap();
        let _ = s.write_all(&bad);
        drop(s);
    }
    // Outright garbage.
    {
        let mut s = TcpStream::connect(ctx.addr).unwrap();
        let _ = s.write_all(b"\xFF\xFF\xFF\xFFnot a frame at all");
        drop(s);
    }
    // A well-framed Query whose payload is junk gets an error response.
    struct Junk;
    impl WireEncode for Junk {
        fn encode_into(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&[0xEE; 24]);
        }
    }
    let mut framed_junk = Vec::new();
    frame_into(FrameType::Query, &Junk, &mut framed_junk);
    let mut s = TcpStream::connect(ctx.addr).unwrap();
    s.write_all(&framed_junk).unwrap();
    let mut reader = pint::wire::FrameReader::new(s.try_clone().unwrap());
    let (ty, payload) = reader.read_frame().unwrap().unwrap();
    assert_eq!(ty, FrameType::QueryResponse);
    let resp = pint::query::QueryResponse::decode(&payload).unwrap();
    assert!(resp.result.is_err(), "junk payload must be a typed error");
    // Even error responses are watermark-stamped: the client learns
    // how fresh the serving state was regardless of the outcome.
    assert!(resp.watermark.is_some(), "error response carries watermark");
    drop(s);

    // The responder still answers real queries.
    let mut client = QueryClient::connect(ctx.addr).unwrap();
    let plan = TelemetryQuery::new().top_k(3).plan().unwrap();
    let fresh = client.query(&plan).unwrap();
    let local = ctx.collector.query(&plan).unwrap();
    assert_eq!(fresh.encode(), local.encode());
}

#[test]
fn fleet_server_answers_query_frames_on_the_ingest_connection() {
    use pint::fleet::{FleetClient, FleetServer};
    let ctx = ctx();
    let server = FleetServer::bind("127.0.0.1:0", FleetConfig::default()).unwrap();
    let mut client = FleetClient::connect(server.local_addr()).unwrap();
    client
        .send(&ctx.collector.export_snapshot_frame(1, 1).unwrap())
        .unwrap();
    // Wait until the snapshot applied, then query over the same
    // connection and compare with local fleet-view execution.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.with_aggregator(|a| a.stats().snapshots_applied) < 1 {
        assert!(std::time::Instant::now() < deadline, "snapshot not applied");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    for plan in [
        TelemetryQuery::new().top_k(7).plan().unwrap(),
        TelemetryQuery::new()
            .through_switch(HOT_SWITCH)
            .decoded_paths()
            .plan()
            .unwrap(),
        TelemetryQuery::new().stats().plan().unwrap(),
        TelemetryQuery::new()
            .all_flows()
            .hop_quantiles(2, [0.5, 0.99])
            .plan()
            .unwrap(),
    ] {
        let over_tcp = client.query(&plan).unwrap();
        let local = server.with_aggregator(|a| a.query(&plan)).unwrap();
        assert_eq!(over_tcp.encode(), local.encode(), "plan {plan:?}");
        // And — same single-collector state — identical to the
        // source collector itself.
        let source = ctx.collector.query(&plan).unwrap();
        assert_eq!(over_tcp.encode(), source.encode(), "plan {plan:?}");
    }
    // Fleet responses are watermark-stamped with collector *epochs*:
    // one snapshot applied at epoch 1, nothing newer seen, one source.
    let mut stamped = QueryClient::connect(server.local_addr()).unwrap();
    stamped
        .query(&TelemetryQuery::new().stats().plan().unwrap())
        .unwrap();
    let wm = stamped
        .last_watermark()
        .expect("fleet response carries a watermark");
    assert_eq!(wm, server.with_aggregator(|a| a.watermark()));
    assert_eq!((wm.newest_applied, wm.newest_seen, wm.sources), (1, 1, 1));
    assert_eq!(wm.lag(), 0);

    // Path-through-switch actually selects the even path flows.
    let via = client
        .query(
            &TelemetryQuery::new()
                .through_switch(HOT_SWITCH)
                .plan()
                .unwrap(),
        )
        .unwrap();
    match via {
        QueryResult::Summaries(rows) => {
            let ids: Vec<u64> = rows.iter().map(|&(f, _)| f).collect();
            let expected: Vec<u64> = (0..PATH_FLOWS)
                .filter(|o| o.is_multiple_of(2))
                .map(|o| PATH_BASE + o)
                .collect();
            assert_eq!(ids, expected, "exactly the flows routed through S");
        }
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}
