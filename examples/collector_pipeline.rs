//! Production-shaped collection: many flows, multi-producer lock-free
//! ingestion, bounded memory, live alerts.
//!
//! The paper's Recording Module consumes one flow in one thread; this
//! example drives the `pint-collector` subsystem the way a deployment
//! would: 12,000 concurrent flows emit over a million PINT digests from
//! FOUR producer threads (four independent PINT sinks), each owning its
//! own lock-free ring per shard. A sharded collector ingests the
//! streams, per-shard LRU caps keep memory flat despite the churn, a
//! cooldown-equipped streaming rule re-fires tail-latency alarms while
//! the congestion persists, and filtered/top-K snapshot queries answer
//! dashboard polls cheaply at the end.
//!
//! Run with: `cargo run --release --example collector_pipeline`

use pint::collector::{
    sketched_latency_factory, Collector, CollectorConfig, EventKind, EventRule, RuleCondition,
};
use pint::core::dynamic::DynamicAggregator;
use pint::core::value::Digest;
use pint::core::DigestReport;
use pint::query::{QueryResult, TelemetryQuery};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

fn main() {
    let producers: u64 = 4;
    let flows: u64 = 12_000;
    let digests_per_flow: u64 = 100;
    let k = 5; // hops per path
    let hot_flows = 5u64; // flows with a congested hop (elephants, ~20× rate)

    // 8-bit budget over [100ns, 10ms]: the switch-side query.
    let agg = DynamicAggregator::new(31, 8, 100.0, 1.0e7);

    // Collector: 4 shards, but each shard may hold at most 2,000 flows
    // and 8 MB of recorder state — far fewer than the 12,000 offered
    // flows, so LRU eviction MUST kick in (bounded-memory guarantee).
    // The alarm rule carries a cooldown: a persistently congested hop
    // keeps alarming (once per quiet period) instead of alerting once
    // and going silent.
    let config = CollectorConfig {
        shards: 4,
        batch_size: 512,
        // Shallow rings keep the four producers loosely in step on small
        // machines (deep rings let one producer run its whole stream far
        // ahead of the others).
        ring_capacity: 16,
        max_flows_per_shard: 2_000,
        max_bytes_per_shard: 8 << 20,
        flow_ttl: None,
        rules: vec![EventRule::new(RuleCondition::QuantileAbove {
            hop: 3,
            phi: 0.9,
            threshold: 100_000.0, // alarm: hop-3 p90 above 100µs
            min_samples: 30,
        })
        .with_cooldown(20_000)], // quiet period ≈ 20 rounds (see `ts` below)
        ..CollectorConfig::default()
    };
    let collector = Collector::spawn(config, sketched_latency_factory(agg.clone(), 64));

    println!(
        "ingesting {} digests from {} flows via {} producers into {} shards…",
        flows * digests_per_flow,
        flows,
        producers,
        collector.shards()
    );
    let started = Instant::now();
    let live_producers = AtomicUsize::new(producers as usize);
    // Decrement on drop, so a panicking producer still releases the
    // main thread's alert loop (which would otherwise spin forever).
    struct Live<'a>(&'a AtomicUsize);
    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Release);
        }
    }
    let mut pushed_total = 0u64;
    let mut alarms_during_ingest = 0u64;

    // Each producer owns the flows with `flow % producers == p` and
    // pushes them round-robin — worst case for locality, realistic for
    // sinks that see thousands of flows multiplexed. Producer 0 also
    // owns the hot flows: elephants (~20× the digest rate) whose packets
    // interleave with the mice, so LRU keeps them (mostly) resident
    // while the mouse flows churn through the caps — on a single-core
    // box, scheduler quanta can occasionally churn even an elephant.
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for p in 0..producers {
            let mut handle = collector.register_producer();
            let agg = agg.clone();
            let live = &live_producers;
            joins.push(s.spawn(move || {
                let _live = Live(live);
                let mut rng = SmallRng::seed_from_u64(7 ^ p);
                let mut seq = vec![0u64; flows as usize];
                let mut pushed = 0u64;
                let mut emit = |flow: u64, ts: u64, seq: &mut Vec<u64>, rng: &mut SmallRng| {
                    let hot = flow < hot_flows;
                    let pid = flow * 10_000 + seq[flow as usize];
                    seq[flow as usize] += 1;
                    let mut digest = Digest::new(1);
                    for hop in 1..=k {
                        let base = 700.0 * hop as f64;
                        // Hot flows suffer a congested hop 3.
                        let lat = if hop == 3 && hot {
                            base * rng.gen_range(200.0..600.0)
                        } else {
                            base * rng.gen_range(0.8..1.2)
                        };
                        agg.encode_hop(pid, hop, lat, &mut digest, 0);
                    }
                    handle
                        .push(DigestReport::new(flow, pid, digest, k as u16, ts))
                        .expect("collector alive");
                };
                for round in 0..digests_per_flow {
                    // Sink clock: 1,000 ticks per round, shared by all
                    // producers — the cooldown above spans ~20 rounds.
                    let ts = round * 1_000;
                    for flow in (hot_flows..flows).filter(|f| f % producers == p) {
                        emit(flow, ts, &mut seq, &mut rng);
                        pushed += 1;
                        // Producer 0 interleaves elephant packets every
                        // ~1/20 of a round, so the elephants stay ahead
                        // of the mouse churn in every shard's LRU even
                        // when the other producers' batches interleave
                        // unfavorably.
                        if p == 0 && flow % (flows / 20) == 0 {
                            for hf in 0..hot_flows {
                                emit(hf, ts, &mut seq, &mut rng);
                                pushed += 1;
                            }
                        }
                    }
                }
                handle.flush().expect("flush");
                pushed
            }));
        }
        // Main thread: live alert console while ingest runs.
        while live_producers.load(Ordering::Acquire) > 0 {
            for e in collector.drain_events() {
                if let EventKind::QuantileAbove { hop, phi, value } = e.kind {
                    alarms_during_ingest += 1;
                    if alarms_during_ingest <= 8 {
                        println!(
                            "  ALERT during ingest: flow {} hop {hop} p{:.0} ≈ {value:.0}ns (shard {})",
                            e.flow,
                            phi * 100.0,
                            e.shard
                        );
                    }
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        for j in joins {
            pushed_total += j.join().expect("producer thread");
        }
    });
    let snap = collector.snapshot().expect("snapshot");
    let elapsed = started.elapsed();

    let stats = collector.stats();
    println!(
        "\ningested {} digests in {:.2?}  ({:.2} M digests/s)  [parks {}, dropped {}]",
        stats.ingested,
        elapsed,
        stats.ingested as f64 / elapsed.as_secs_f64() / 1e6,
        stats.producer_parks,
        stats.digests_dropped,
    );
    println!(
        "flows offered {}   tracked {}   evicted-LRU {}   evicted-TTL {}",
        flows, stats.active_flows, stats.evicted_lru, stats.evicted_ttl
    );
    println!(
        "recorder state ≈ {:.1} MB across {} shards (caps enforced)",
        stats.state_bytes as f64 / 1e6,
        collector.shards()
    );

    // Cross-shard inference: fleet-wide per-hop quantiles over every
    // still-tracked flow (KLL merge in deterministic flow order).
    println!("\nfleet-wide hop latency (merged across shards):");
    println!("{:>4} {:>12} {:>12}", "hop", "p50", "p99");
    for hop in 1..=k {
        let plan = TelemetryQuery::new()
            .hop_quantiles(hop, [0.5, 0.99])
            .plan()
            .expect("valid plan");
        let q = snap
            .execute(&plan)
            .expect("hop quantiles")
            .decode_quantiles(&agg);
        let at = |i: usize| q.get(i).map_or(f64::NAN, |&(_, v)| v);
        println!("{hop:>4} {:>10.0}ns {:>10.0}ns", at(0), at(1));
    }

    // Dashboard-style cheap polls through the unified query tier: the
    // elephants by packet count, and a watch list, without serializing
    // all ~8,000 resident flows.
    let top = collector
        .query(&TelemetryQuery::new().top_k(5).plan().expect("valid plan"))
        .expect("top-k query");
    println!("\ntop-{} flows by packets (top-K query):", 5);
    if let QueryResult::Summaries(rows) = &top {
        for (flow, summary) in rows {
            println!(
                "  flow {flow:>5}: {:>6} packets, hop-3 p90 ≈ {:.0}ns",
                summary.packets,
                summary
                    .hop_sketches
                    .get(3)
                    .and_then(|s| s.quantile(0.9))
                    .map(|c| agg.decode(c))
                    .unwrap_or(f64::NAN)
            );
        }
    }
    let watch = collector
        .query(
            &TelemetryQuery::new()
                .watch([0, 1, 2, 3, 4])
                .stats()
                .plan()
                .expect("valid plan"),
        )
        .expect("watch-list query");
    if let QueryResult::Stats(stats) = watch {
        println!(
            "watch list {{0..4}}: {} tracked, {} packets total",
            stats.flows, stats.packets
        );
    }

    let trailing_alarms = collector.drain_events().len() as u64;
    let final_stats = collector.shutdown();
    assert_eq!(
        final_stats.ingested, pushed_total,
        "no digest lost before shutdown"
    );
    assert_eq!(final_stats.digests_dropped, 0, "no digest dropped");
    assert!(
        final_stats.active_flows <= 4 * 2_000,
        "memory bound respected"
    );
    assert!(final_stats.evicted_lru > 0, "eviction must be observable");
    // Every elephant alarms when resident long enough; scheduling skew
    // can shorten residencies, but at least one alarm is guaranteed.
    assert!(final_stats.events >= 1, "hot flows must alarm");
    assert_eq!(top.len(), 5, "top-k answers");
    println!(
        "\n{} alarms total ({} during ingest, {} trailing); eviction kept ≤ {} flows resident of {} offered.",
        final_stats.events,
        alarms_during_ingest,
        trailing_alarms,
        4 * 2_000,
        flows
    );
}
