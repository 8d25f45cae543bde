//! Integration: the `pint-obs` self-telemetry layer end to end.
//!
//! Pins the PR's observability contracts: the registry survives
//! concurrent writers with exact totals, `Metrics` frames round-trip
//! and never panic on hostile bytes, a remote fetch reports *exactly*
//! the local registry, accounting invariants hold in every mid-flight
//! snapshot, and same-seed simulations produce identical snapshots
//! under the virtual clock.

use pint::collector::{Collector, CollectorConfig};
use pint::core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint::core::{Digest, DigestReport, FlowRecorder};
use pint::fleet::{
    DigestForwarder, DigestServer, DigestServerConfig, FleetConfig, FleetServer, ForwarderConfig,
};
use pint::netsim::sim::{SimConfig, Simulator};
use pint::netsim::telemetry::FixedOverhead;
use pint::netsim::topology::Topology;
use pint::netsim::transport::reno::Reno;
use pint::netsim::workload::{FlowSizeCdf, WorkloadConfig};
use pint::obs::{
    Clock, FlightRecorder, MetricsRegistry, MetricsSnapshot, TraceStage, VirtualClock,
};
use pint::query::remote::QueryClient;
use pint::store::SpillQueue;
use pint::wire::{parse_frame, FrameType, MetricsMsg, MetricsReport, WireDecode, WireEncode};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn latency_factory(agg: &DynamicAggregator) -> pint::collector::RecorderFactory {
    let agg = agg.clone();
    Arc::new(move |_flow, report: &DigestReport| {
        Box::new(DynamicRecorder::new_sketched(
            agg.clone(),
            usize::from(report.path_len).max(1),
            256,
        )) as Box<dyn FlowRecorder>
    })
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------- //
// Registry under concurrency
// ---------------------------------------------------------------- //

/// N writer threads hammer counters, a histogram, and a gauge group
/// while a sampler snapshots concurrently: no snapshot ever shows a
/// torn gauge group, and after the join every total is exact — the
/// lock-free hot path loses nothing.
#[test]
fn registry_is_exact_under_concurrent_writers_and_snapshots() {
    const WRITERS: usize = 8;
    const OPS: u64 = 20_000;
    let registry = MetricsRegistry::new();
    // Pre-register so every thread shares the same cells.
    let _ = registry.counter("stress_total");
    let group = registry.gauge_group("stress_pair", &["a", "b"]);
    group.set_all(&[0, 0]);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler_stop = Arc::clone(&stop);
    let sampler_registry = registry.clone();
    let sampler = std::thread::spawn(move || {
        let mut seen = 0u64;
        while !sampler_stop.load(std::sync::atomic::Ordering::Acquire) {
            let snap = sampler_registry.snapshot();
            let a = snap.gauge("stress_pair_a", None).unwrap();
            let b = snap.gauge("stress_pair_b", None).unwrap();
            // Writers always publish `b == 2 * a` in one `set_all`; a
            // torn read would surface any other ratio.
            assert_eq!(b, 2 * a, "torn gauge-group snapshot");
            seen += 1;
        }
        assert!(seen > 0, "sampler never ran");
    });

    let threads: Vec<_> = (0..WRITERS)
        .map(|w| {
            let registry = registry.clone();
            std::thread::spawn(move || {
                let counter = registry.counter("stress_total");
                let sharded = registry.counter_shard("stress_sharded", w as u32);
                let hist = registry.histogram("stress_values");
                let group = registry.gauge_group("stress_pair", &["a", "b"]);
                for i in 0..OPS {
                    counter.inc();
                    sharded.add(2);
                    hist.record(i);
                    if i % 1024 == 0 {
                        group.set_all(&[i, 2 * i]);
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    sampler.join().unwrap();

    let snap = registry.snapshot();
    let expected = WRITERS as u64 * OPS;
    assert_eq!(snap.counter_total("stress_total"), expected);
    assert_eq!(snap.counter_total("stress_sharded"), 2 * expected);
    for w in 0..WRITERS {
        assert_eq!(
            snap.counter("stress_sharded", Some(w as u32)),
            Some(2 * OPS),
            "shard {w} lost increments"
        );
    }
    let hist = snap.histogram("stress_values", None).unwrap();
    assert_eq!(hist.count(), expected, "histogram lost samples");
}

// ---------------------------------------------------------------- //
// Metrics frames on the wire
// ---------------------------------------------------------------- //

/// Builds a deterministic, seed-varied snapshot through the registry.
fn seeded_snapshot(seed: u64) -> MetricsSnapshot {
    let mut rng = SmallRng::seed_from_u64(seed);
    let registry = MetricsRegistry::new();
    for i in 0..rng.gen_range(0..6u32) {
        registry
            .counter_shard("prop_counter", i)
            .add(rng.gen_range(0..u64::MAX / 2));
    }
    for _ in 0..rng.gen_range(0..4u32) {
        registry.gauge("prop_gauge").set(rng.gen_range(0..1 << 40));
    }
    let hists = rng.gen_range(0..3u32);
    for i in 0..hists {
        let h = registry.histogram_shard("prop_hist", i);
        for _ in 0..rng.gen_range(1..64u32) {
            h.record(rng.gen_range(0..u64::MAX));
        }
    }
    registry.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A `Metrics` report frame decodes to exactly what was encoded.
    #[test]
    fn metrics_frame_roundtrips(seed in any::<u64>(), request_id in any::<u64>(), source in any::<u64>()) {
        let report = MetricsReport {
            request_id,
            source,
            snapshot: seeded_snapshot(seed),
        };
        let mut bytes = Vec::new();
        pint::wire::frame_into(FrameType::Metrics, &report, &mut bytes);
        let (ty, payload) = parse_frame(&bytes).unwrap();
        prop_assert_eq!(ty, FrameType::Metrics);
        match MetricsMsg::decode(payload).unwrap() {
            MetricsMsg::Report(back) => {
                prop_assert_eq!(back.request_id, request_id);
                prop_assert_eq!(back.source, source);
                prop_assert_eq!(back.snapshot, report.snapshot);
            }
            other => prop_assert!(false, "decoded wrong kind: {:?}", other),
        }
    }

    /// Truncations and single-byte corruptions of a valid report are
    /// typed errors or harmless misreads — never panics.
    #[test]
    fn corrupted_metrics_frames_never_panic(seed in any::<u64>(), flip in any::<usize>()) {
        let report = MetricsReport {
            request_id: seed,
            source: 3,
            snapshot: seeded_snapshot(seed),
        };
        let mut payload = Vec::new();
        report.encode_into(&mut payload);
        for cut in 0..payload.len() {
            let _ = MetricsMsg::decode(&payload[..cut]);
        }
        let mut corrupt = payload.clone();
        if !corrupt.is_empty() {
            let at = flip % corrupt.len();
            corrupt[at] ^= 0x55;
            let _ = MetricsMsg::decode(&corrupt);
        }
    }
}

// ---------------------------------------------------------------- //
// Remote fetch ≡ local registry
// ---------------------------------------------------------------- //

/// The acceptance pin: a remote `QueryClient` fetches a live `Metrics`
/// frame from a running `FleetServer` whose registry is shared with a
/// collector, and the reported per-stage histograms and queue-depth
/// gauges match the local registry exactly — the whole snapshot is
/// byte-equal once ingestion has quiesced.
#[test]
fn remote_metrics_fetch_equals_local_registry() {
    let registry = MetricsRegistry::new();
    let agg = DynamicAggregator::new(4, 8, 100.0, 1.0e7);
    let collector = Collector::spawn(
        CollectorConfig {
            shards: 2,
            metrics: Some(registry.clone()),
            ..CollectorConfig::default()
        },
        latency_factory(&agg),
    );
    let mut handle = collector.register_producer();
    for flow in 0..256u64 {
        for pid in 0..16u64 {
            let mut d = Digest::new(1);
            agg.encode_hop(flow * 100 + pid, 1, 2_000.0, &mut d, 0);
            handle
                .push(DigestReport::new(flow, flow * 100 + pid, d, 4, pid))
                .unwrap();
        }
    }
    handle.flush().unwrap();
    collector.barrier().unwrap();

    let server = FleetServer::bind(
        "127.0.0.1:0",
        FleetConfig {
            metrics: Some(registry.clone()),
            ..FleetConfig::default()
        },
    )
    .unwrap();
    let mut client = QueryClient::connect(server.local_addr()).unwrap();
    let report = client.fetch_metrics().unwrap();

    // Ingestion quiesced before the fetch and the connection is still
    // open, so the local registry has not moved since the server
    // snapshotted it.
    let local = registry.snapshot();
    assert_eq!(report.snapshot, local, "remote and local snapshots differ");

    // The headline pins, spelled out.
    assert_eq!(
        report.snapshot.counter_total("collector_ingested_total"),
        256 * 16
    );
    for shard in 0..2u32 {
        let remote_drain = report
            .snapshot
            .histogram("collector_stage_drain_ns", Some(shard))
            .expect("remote drain histogram");
        let local_drain = local
            .histogram("collector_stage_drain_ns", Some(shard))
            .expect("local drain histogram");
        assert_eq!(remote_drain, local_drain);
        assert!(remote_drain.count() > 0, "shard {shard} timed no batches");
        assert_eq!(
            report.snapshot.gauge("collector_active_flows", Some(shard)),
            local.gauge("collector_active_flows", Some(shard)),
        );
    }
    assert_eq!(
        report.snapshot.gauge("fleet_connections", None),
        Some(1),
        "the fetching connection itself is the queue-depth signal"
    );
    assert!(
        report
            .snapshot
            .histogram("collector_stage_enqueue_ns", None)
            .map(|h| h.count())
            .unwrap_or(0)
            > 0,
        "producer enqueue timing missing"
    );

    drop(client);
    server.shutdown();
    collector.shutdown();
}

// ---------------------------------------------------------------- //
// Mid-flight accounting invariants
// ---------------------------------------------------------------- //

/// While a forwarder churns against a dead upstream (sealing, queueing,
/// shedding), every concurrent registry snapshot satisfies
/// `delivered + deduped + shed + in_flight == sent` — the group is
/// republished whole, so no batch is ever observably unaccounted.
#[test]
fn forwarder_invariant_holds_in_every_snapshot() {
    const SOURCE: u64 = 9;
    // Reserve an address with no listener: everything queues then sheds.
    let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = placeholder.local_addr().unwrap();
    drop(placeholder);

    let registry = MetricsRegistry::new();
    let fwd = DigestForwarder::connect(
        addr,
        ForwarderConfig {
            source: SOURCE,
            batch_digests: 1, // every push seals a batch
            queue_batches: 8,
            retry_base: Duration::from_millis(5),
            retry_max: Duration::from_millis(20),
            metrics: Some(registry.clone()),
            ..ForwarderConfig::default()
        },
    );

    let sampler_registry = registry.clone();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler_stop = Arc::clone(&stop);
    let sampler = std::thread::spawn(move || {
        let shard = Some(SOURCE as u32);
        let mut checked = 0u64;
        while !sampler_stop.load(std::sync::atomic::Ordering::Acquire) {
            let snap = sampler_registry.snapshot();
            if let Some(sent) = snap.gauge("forwarder_sent", shard) {
                let accounted = snap.gauge("forwarder_delivered", shard).unwrap()
                    + snap.gauge("forwarder_deduped", shard).unwrap()
                    + snap.gauge("forwarder_shed", shard).unwrap()
                    + snap.gauge("forwarder_in_flight", shard).unwrap();
                assert_eq!(accounted, sent, "mid-flight snapshot violated accounting");
                if sent > 0 {
                    checked += 1;
                }
            }
            std::thread::yield_now();
        }
        checked
    });

    for pid in 0..2_000u64 {
        fwd.push(DigestReport::new(1, pid, Digest::new(1), 3, pid));
    }
    let stats = fwd.shutdown(Duration::from_millis(50));
    stop.store(true, std::sync::atomic::Ordering::Release);
    let checked = sampler.join().unwrap();
    assert!(checked > 0, "sampler never observed a live forwarder");
    assert!(stats.accounted(), "{stats:?}");

    let snap = registry.snapshot();
    let shard = Some(SOURCE as u32);
    assert_eq!(snap.gauge("forwarder_sent", shard), Some(stats.sent));
    assert_eq!(snap.gauge("forwarder_in_flight", shard), Some(0));
    assert_eq!(snap.gauge("forwarder_shed", shard), Some(stats.shed));
    assert_eq!(snap.gauge("forwarder_source", shard), Some(SOURCE));
}

/// A live delivery path: the digest server's per-tick group publish
/// keeps `acks_sent == batches_applied + batches_duplicate` in every
/// snapshot, and the `Metrics` frame is served from the poll loop too.
#[test]
fn digest_server_publishes_consistent_counters_and_serves_metrics() {
    let registry = MetricsRegistry::new();
    let server = DigestServer::bind(
        "127.0.0.1:0",
        DigestServerConfig {
            metrics: Some(registry.clone()),
            ..DigestServerConfig::default()
        },
        Box::new(|_src, _reports| {}),
    )
    .unwrap();

    let fwd = DigestForwarder::connect(
        server.local_addr(),
        ForwarderConfig {
            source: 4,
            batch_digests: 8,
            metrics: Some(registry.clone()),
            ..ForwarderConfig::default()
        },
    );
    for pid in 0..400u64 {
        fwd.push(DigestReport::new(pid % 5, pid, Digest::new(1), 3, pid));
        // Sample mid-flight: acks never outrun (or lag) the batches
        // they acknowledge within one published snapshot.
        if pid % 50 == 0 {
            let snap = registry.snapshot();
            if let Some(acks) = snap.gauge("digest_server_acks_sent", None) {
                let applied = snap.gauge("digest_server_batches_applied", None).unwrap();
                let duplicate = snap.gauge("digest_server_batches_duplicate", None).unwrap();
                assert_eq!(acks, applied + duplicate, "torn digest-server snapshot");
            }
        }
    }
    let stats = fwd.shutdown(Duration::from_secs(10));
    assert_eq!(stats.digests_delivered, 400, "{stats:?}");

    wait_until("digest_server group to catch up", || {
        registry
            .snapshot()
            .gauge("digest_server_digests", None)
            .unwrap_or(0)
            == 400
    });

    // Fetch the same registry over the wire from the poll loop.
    let mut client = QueryClient::connect(server.local_addr()).unwrap();
    let report = client.fetch_metrics().unwrap();
    let acks = report
        .snapshot
        .gauge("digest_server_acks_sent", None)
        .unwrap();
    assert_eq!(
        acks,
        report
            .snapshot
            .gauge("digest_server_batches_applied", None)
            .unwrap()
            + report
                .snapshot
                .gauge("digest_server_batches_duplicate", None)
                .unwrap()
    );
    assert_eq!(
        report.snapshot.gauge("digest_server_digests", None),
        Some(400)
    );
    drop(client);
    server.shutdown();
}

// ---------------------------------------------------------------- //
// Determinism under the virtual clock
// ---------------------------------------------------------------- //

/// Runs one simulation with a registry on the simulator-driven virtual
/// clock: digest arrivals are counted and their virtual inter-arrival
/// gaps recorded, and the final report is published as gauges.
fn simulated_snapshot(seed: u64) -> MetricsSnapshot {
    let clock = VirtualClock::default();
    let registry = MetricsRegistry::with_clock(Arc::new(clock.clone()));
    let mut sim = Simulator::new(
        Topology::overhead_study(),
        SimConfig {
            end_time_ns: 10_000_000,
            seed,
            ..SimConfig::default()
        },
        Box::new(|meta| Box::new(Reno::new(meta))),
        Box::new(FixedOverhead(28)),
    );
    sim.drive_clock(clock.clone());
    let digests = registry.counter("sim_digests_total");
    let gaps = registry.histogram("sim_digest_gap_ns");
    let sink_clock = clock.clone();
    let mut last = 0u64;
    sim.set_digest_sink(Box::new(move |_report| {
        digests.inc();
        let now = sink_clock.now_ns();
        gaps.record(now.saturating_sub(last));
        last = now;
    }));
    sim.add_workload(&WorkloadConfig {
        cdf: FlowSizeCdf::hadoop(),
        load: 0.5,
        nic_bps: 10_000_000_000,
        duration_ns: 5_000_000,
        seed,
    });
    let report = sim.run();
    report.publish_into(&registry);
    registry.snapshot()
}

/// Two same-seed runs produce *identical* metric snapshots — virtual
/// time makes even the timing histograms reproducible; a different
/// seed produces a different snapshot (the pin is not vacuous).
#[test]
fn same_seed_simulations_yield_identical_snapshots() {
    let a = simulated_snapshot(17);
    let b = simulated_snapshot(17);
    assert_eq!(a, b, "same-seed snapshots diverged");
    assert!(
        a.counter_total("sim_digests_total") > 0,
        "no digests flowed: the pin is vacuous"
    );
    assert!(a.histogram("sim_digest_gap_ns", None).unwrap().count() > 0);
    let c = simulated_snapshot(18);
    assert_ne!(a, c, "different seeds should not collide exactly");
}

/// Runs one simulation with a flight recorder slaved to the
/// simulator-driven virtual clock and returns the *encoded* drained
/// dump — every delivered packet taps a `SinkDelivered` event at its
/// simulated delivery time.
fn simulated_trace_bytes(seed: u64) -> Vec<u8> {
    let clock = VirtualClock::default();
    // 8 rings × 4096 slots: the run overflows them (overwrite-oldest,
    // counted in `dropped`) and the retained window still reproduces.
    let recorder = FlightRecorder::with_clock(8, 4_096, Arc::new(clock.clone()));
    let mut sim = Simulator::new(
        Topology::overhead_study(),
        SimConfig {
            end_time_ns: 10_000_000,
            seed,
            ..SimConfig::default()
        },
        Box::new(|meta| Box::new(Reno::new(meta))),
        Box::new(FixedOverhead(28)),
    );
    sim.drive_clock(clock);
    sim.set_trace_recorder(recorder.clone());
    sim.add_workload(&WorkloadConfig {
        cdf: FlowSizeCdf::hadoop(),
        load: 0.5,
        nic_bps: 10_000_000_000,
        duration_ns: 5_000_000,
        seed,
    });
    sim.run();
    recorder.drain().encode()
}

/// Same-seed simulations produce **byte-identical** trace dumps: the
/// recorder's ticks are simulated time and its drain order is
/// deterministic, so the whole flight record — not just aggregate
/// counters — reproduces exactly. Different seeds diverge.
#[test]
fn same_seed_simulations_yield_byte_identical_trace_dumps() {
    let a = simulated_trace_bytes(17);
    let b = simulated_trace_bytes(17);
    assert_eq!(a, b, "same-seed trace dumps diverged");
    let dump = pint::obs::TraceDump::decode(&a).unwrap();
    assert!(!dump.is_empty(), "no packets delivered: the pin is vacuous");
    assert!(dump
        .events
        .iter()
        .all(|e| e.stage == pint::obs::TraceStage::SinkDelivered));
    let c = simulated_trace_bytes(18);
    assert_ne!(a, c, "different seeds should not collide exactly");
}

/// A two-shard collector behind a `bind_collector` server on `addr`,
/// both publishing into `registry` and tracing into `recorder`.
fn traced_ingest(
    addr: impl std::net::ToSocketAddrs,
    registry: &MetricsRegistry,
    recorder: &FlightRecorder,
    agg: &DynamicAggregator,
) -> (Collector, DigestServer) {
    let collector = Collector::spawn(
        CollectorConfig {
            shards: 2,
            metrics: Some(registry.clone()),
            trace: Some(recorder.clone()),
            ..CollectorConfig::default()
        },
        latency_factory(agg),
    );
    let config = DigestServerConfig {
        metrics: Some(registry.clone()),
        trace: Some(recorder.clone()),
        ..DigestServerConfig::default()
    };
    let server = DigestServer::bind_collector(addr, config, collector.register_producer());
    (collector, server.unwrap())
}

/// The remote trace exposition adds nothing and loses nothing: a
/// `TraceDump` fetched over loopback TCP from a traced `DigestServer`
/// equals the shared recorder's local drain, event for event.
#[test]
fn remote_trace_fetch_equals_local_drain() {
    let clock = VirtualClock::default();
    clock.set(5_000);
    let registry = MetricsRegistry::with_clock(Arc::new(clock.clone()));
    let recorder = FlightRecorder::with_clock(4, 1024, Arc::new(clock.clone()));
    let agg = DynamicAggregator::new(7, 8, 100.0, 1.0e7);
    let (collector, server) = traced_ingest("127.0.0.1:0", &registry, &recorder, &agg);

    let fwd = DigestForwarder::connect(
        server.local_addr(),
        ForwarderConfig {
            source: 3,
            batch_digests: 16,
            metrics: Some(registry.clone()),
            trace: Some(recorder.clone()),
            ..ForwarderConfig::default()
        },
    );
    for pid in 0..160u64 {
        let mut d = Digest::new(1);
        agg.encode_hop(pid, 1, 900.0, &mut d, 0);
        fwd.push(DigestReport::new(pid % 8, pid, d, 1, pid));
        clock.advance(500);
    }
    let stats = fwd.shutdown(Duration::from_secs(30));
    assert_eq!(stats.digests_delivered, 160, "{stats:?}");
    collector.barrier().unwrap();
    let reg = registry.clone();
    wait_until("server gauges caught up", move || {
        reg.snapshot()
            .gauge("digest_server_digests", None)
            .unwrap_or(0)
            == 160
    });

    let mut client = QueryClient::connect(server.local_addr()).unwrap();
    let report = client.fetch_trace().unwrap();
    assert!(!report.dump.is_empty(), "traced pipeline recorded nothing");
    // The server snapshots the same shared rings the local drain
    // empties — equal dumps, and a second fetch sees the cleared state.
    assert_eq!(report.dump, recorder.drain());
    assert!(client.fetch_trace().unwrap().dump.is_empty());
    drop(client);
    server.shutdown();
    collector.shutdown();
}

/// The whole edge pipe configured at once: one forwarder with metrics,
/// tracing and a spill ships through an outage into a traced
/// `bind_collector` server, every tier on one registry and one
/// recorder. Every spilled batch resumes, the books close, each sealed
/// batch has its full trace chain, and both tiers' gauge groups are in
/// the one registry.
#[test]
fn spilling_traced_forwarder_feeds_a_traced_collector_server() {
    const SOURCE: u64 = 3; // trace lane 3; the two collector shards use 0 and 1
    let spill_path = std::env::temp_dir().join(format!("pint-obs-spill-{}", std::process::id()));
    let _ = std::fs::remove_file(&spill_path);
    let registry = MetricsRegistry::new();
    let recorder = FlightRecorder::with_clock(4, 4096, registry.clock());
    // An address with no listener yet: the forwarder starts in an outage.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .unwrap();
    let fwd = DigestForwarder::connect(
        addr,
        ForwarderConfig {
            source: SOURCE,
            batch_digests: 4,
            queue_batches: 4,
            retry_base: Duration::from_millis(5),
            retry_max: Duration::from_millis(20),
            metrics: Some(registry.clone()),
            trace: Some(recorder.clone()),
            spill: Some(SpillQueue::open(&spill_path, SOURCE).unwrap()),
            ..ForwarderConfig::default()
        },
    );
    for pid in 0..160u64 {
        fwd.push(DigestReport::new(pid % 8, pid, Digest::new(1), 1, pid));
    }
    let agg = DynamicAggregator::new(7, 8, 100.0, 1.0e7);
    let (collector, server) = traced_ingest(addr, &registry, &recorder, &agg);
    let stats = fwd.shutdown(Duration::from_secs(30));
    assert!(stats.accounted() && stats.spilled > 0, "{stats:?}");
    assert_eq!(stats.resumed, stats.spilled, "{stats:?}");
    assert_eq!((stats.shed, stats.digests_delivered), (0, 160), "{stats:?}");
    collector.barrier().unwrap();

    // Sealed, then applied once, then a collector shard applied a batch
    // no earlier (shard events carry no forwarder key).
    let dump = recorder.snapshot();
    let ticks = |stage| -> BTreeMap<(u64, u64), u64> {
        let events = dump.stage(stage);
        events.map(|ev| ((ev.source, ev.seq), ev.tick_ns)).collect()
    };
    let (sealed, applied) = (
        ticks(TraceStage::ForwarderSealed),
        ticks(TraceStage::ServerApplied),
    );
    let collected = dump.stage(TraceStage::CollectorBatch).map(|ev| ev.tick_ns);
    let last_collected = collected.max().expect("no collector batch events");
    assert_eq!(
        (sealed.len() as u64, applied.len()),
        (stats.sent, sealed.len())
    );
    for (key, &seal_tick) in &sealed {
        let apply_tick = applied[key];
        assert!(seal_tick <= apply_tick && apply_tick <= last_collected);
    }

    let sent = registry
        .snapshot()
        .gauge("forwarder_sent", Some(SOURCE as u32));
    assert_eq!(sent, Some(stats.sent));
    wait_until("server gauges caught up", || {
        registry.snapshot().gauge("digest_server_digests", None) == Some(160)
    });
    server.shutdown();
    collector.shutdown();
    std::fs::remove_file(&spill_path).unwrap();
}
