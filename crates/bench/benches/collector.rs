//! Criterion macro-benchmark: collector ingest throughput as an
//! N-producer × M-shard matrix.
//!
//! One iteration pushes a pre-generated workload of latency digests
//! (5,000 flows × 40 digests) through a running collector and waits on a
//! barrier until every shard has applied its batches — so the measured
//! time covers digest cloning on the producers, sharding, ring transfer,
//! recorder updates, accounting, and eviction, not just the hand-off.
//! Flows are partitioned across producers (`flow % producers`), each
//! producer pushing from its own thread through its own registered
//! handle — the same methodology as the historical single-producer
//! numbers in `BENCH_collector.json`, which `collector_ingest/p1/s*`
//! reproduces. `PINT_BENCH_JSON` records the baseline
//! (`BENCH_ingest.json`).
//!
//! Besides the throughput matrix, the recorded JSON carries two notes:
//! a metrics snapshot taken from the observed cell's shared registry
//! (stage-timing sample counts and means, occupancy), and a per-cell
//! overhead comparison against the mean_ns committed in
//! `BENCH_ingest.json` — the before/after record for the ≤5%
//! instrumentation budget.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pint_collector::{sketched_latency_factory, Collector, CollectorConfig, PrefilterConfig};
use pint_core::dynamic::DynamicAggregator;
use pint_core::value::Digest;
use pint_core::DigestReport;
use pint_obs::{FlightRecorder, MetricsRegistry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const FLOWS: u64 = 5_000;
const DIGESTS_PER_FLOW: u64 = 40;
const HOPS: usize = 5;

fn workload(agg: &DynamicAggregator) -> Vec<DigestReport> {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut out = Vec::with_capacity((FLOWS * DIGESTS_PER_FLOW) as usize);
    for round in 0..DIGESTS_PER_FLOW {
        for flow in 0..FLOWS {
            let pid = flow * DIGESTS_PER_FLOW + round;
            let mut digest = Digest::new(1);
            for hop in 1..=HOPS {
                let lat = 700.0 * hop as f64 * rng.gen_range(0.8..1.2);
                agg.encode_hop(pid, hop, lat, &mut digest, 0);
            }
            out.push(DigestReport::new(flow, pid, digest, HOPS as u16, pid));
        }
    }
    out
}

/// Splits the stream by `flow % producers`, preserving per-flow order
/// within each part.
fn partition(reports: &[DigestReport], producers: u64) -> Vec<Vec<DigestReport>> {
    let mut parts: Vec<Vec<DigestReport>> = (0..producers).map(|_| Vec::new()).collect();
    for r in reports {
        parts[(r.flow % producers) as usize].push(r.clone());
    }
    parts
}

/// One ingest cell: `producers` threads × `shards` shards, publishing
/// into `metrics` when given (the observed variant) or a private
/// registry otherwise. A non-empty `variant` renames the cell (for
/// side-by-side pairs like the prefilter or tracing on/off
/// comparisons), `prefilter` installs the ingest-side watch-list
/// filter, and `trace` installs a shared flight recorder (one
/// `CollectorBatch` event per applied batch).
#[allow(clippy::too_many_arguments)]
fn run_cell(
    g: &mut criterion::BenchmarkGroup<'_>,
    agg: &DynamicAggregator,
    reports: &[DigestReport],
    producers: u64,
    shards: usize,
    metrics: Option<MetricsRegistry>,
    prefilter: Option<PrefilterConfig>,
    trace: Option<FlightRecorder>,
    variant: &str,
) {
    let filtered = prefilter.is_some();
    let parts = partition(reports, producers);
    let collector = Collector::spawn(
        CollectorConfig {
            shards,
            batch_size: 1_024,
            ring_capacity: 64,
            max_flows_per_shard: 2_048,
            metrics,
            prefilter,
            trace,
            ..CollectorConfig::default()
        },
        sketched_latency_factory(agg.clone(), 64),
    );
    // Register once per cell: iterations measure ingest, not
    // producer registration/teardown.
    let mut handles: Vec<_> = parts
        .iter()
        .map(|_| collector.register_producer())
        .collect();
    let id = if variant.is_empty() {
        BenchmarkId::new(format!("p{producers}"), format!("s{shards}"))
    } else {
        BenchmarkId::new(variant, format!("p{producers}s{shards}"))
    };
    g.bench_with_input(id, &shards, |b, _| {
        b.iter(|| {
            std::thread::scope(|s| {
                for (part, handle) in parts.iter().zip(handles.iter_mut()) {
                    s.spawn(move || {
                        for r in part {
                            handle.push(r.clone()).expect("collector alive");
                        }
                        handle.flush().expect("flush");
                    });
                }
            });
            collector.barrier().expect("barrier");
            black_box(())
        })
    });
    drop(handles);
    let stats = collector.shutdown();
    if filtered {
        // The filter diverts off-watch digests before the ring; they
        // are accounted, not lost.
        assert!(stats.digests_prefiltered > 0, "prefilter never engaged");
        assert!(stats.ingested > 0, "watch-listed flows must land");
    } else {
        assert!(stats.ingested >= reports.len() as u64, "workload applied");
    }
    assert_eq!(stats.digests_dropped, 0, "no digest lost");
}

fn bench_ingest(c: &mut Criterion) {
    let agg = DynamicAggregator::new(17, 8, 100.0, 1.0e7);
    let reports = workload(&agg);
    let mut g = c.benchmark_group("collector_ingest");
    g.throughput(Throughput::Elements(reports.len() as u64));
    for producers in [1u64, 2, 4] {
        for shards in [1usize, 2, 4, 8] {
            run_cell(
                &mut g, &agg, &reports, producers, shards, None, None, None, "",
            );
        }
    }
    g.finish();

    // One cell with an externally shared registry: the snapshot taken
    // after the run rides into BENCH_ingest.json next to the
    // throughput it was recorded under.
    let registry = MetricsRegistry::new();
    let mut g = c.benchmark_group("collector_ingest_observed");
    g.throughput(Throughput::Elements(reports.len() as u64));
    run_cell(
        &mut g,
        &agg,
        &reports,
        2,
        4,
        Some(registry.clone()),
        None,
        None,
        "",
    );
    g.finish();
    c.note(snapshot_note(&registry));

    // Prefilter on/off pair on the same cell and stream: `on` watches
    // 1/8th of the flows, so the `off`→`on` mean_ns gap is the price of
    // full ingest versus two hashes per uninteresting digest.
    let watch: Vec<u64> = (0..FLOWS).filter(|f| f % 8 == 0).collect();
    let mut g = c.benchmark_group("collector_ingest_prefilter");
    g.throughput(Throughput::Elements(reports.len() as u64));
    run_cell(&mut g, &agg, &reports, 2, 4, None, None, None, "off");
    run_cell(
        &mut g,
        &agg,
        &reports,
        2,
        4,
        None,
        Some(PrefilterConfig::new(watch)),
        None,
        "on",
    );
    g.finish();

    // Tracing on/off pair on the same cell and stream: `on` shares one
    // flight recorder across the shard workers, recording one
    // `CollectorBatch` event per applied batch. The `off`→`on` mean_ns
    // gap is the flight recorder's hot-path price, budgeted ≤5%
    // (`ingest_traced_overhead` note; median-of-N record in
    // `BENCH_ingest.json`).
    let mut g = c.benchmark_group("collector_ingest_traced");
    g.throughput(Throughput::Elements(reports.len() as u64));
    run_cell(&mut g, &agg, &reports, 2, 4, None, None, None, "off");
    let recorder = FlightRecorder::new(4, 4_096);
    run_cell(
        &mut g,
        &agg,
        &reports,
        2,
        4,
        None,
        None,
        Some(recorder.clone()),
        "on",
    );
    assert!(
        !recorder.snapshot().is_empty(),
        "tracing never engaged: no CollectorBatch events recorded"
    );
    g.finish();

    if let Some(note) = traced_overhead_note(c) {
        c.note(note);
    }
    if let Some(note) = scaling_note(c) {
        c.note(note);
    }
    if let Some(note) = overhead_note(c) {
        c.note(note);
    }
}

/// Digests/s-per-core across the matrix: each cell's throughput divided
/// by the cores it can actually use — `min(available_parallelism,
/// producers + shards)` threads run concurrently at most — normalized
/// to the serial `p1/s1` cell. On a 1-core host every cell shares one
/// core, so efficiency reads as "how much does coordination cost when
/// it cannot buy parallelism"; on a many-core host it reads as true
/// scaling efficiency.
fn scaling_note(c: &Criterion) -> Option<String> {
    let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64;
    let mut cells = Vec::new();
    let mut base_per_core = None;
    for r in c.results() {
        let Some(cell) = r.id.strip_prefix("collector_ingest/p") else {
            continue;
        };
        let (p, s) = cell.split_once("/s")?;
        let (p, s): (u64, u64) = (p.parse().ok()?, s.parse().ok()?);
        let cores = avail.min(p + s);
        let rate = (FLOWS * DIGESTS_PER_FLOW) as f64 * 1e9 / r.mean_ns;
        let per_core = rate / cores as f64;
        if p == 1 && s == 1 {
            base_per_core = Some(per_core);
        }
        let eff = base_per_core.map_or(1.0, |b| per_core / b);
        cells.push(format!(
            "{{\"id\": \"p{p}/s{s}\", \"cores\": {cores}, \
             \"digests_per_sec\": {rate:.0}, \"digests_per_sec_per_core\": {per_core:.0}, \
             \"efficiency_vs_p1s1\": {eff:.3}}}"
        ));
    }
    if cells.is_empty() {
        return None;
    }
    Some(format!(
        "{{\"id\": \"ingest_scaling_efficiency\", \"available_parallelism\": {avail}, \
         \"cores_model\": \"min(available_parallelism, producers + shards)\", \
         \"entries\": [{}]}}",
        cells.join(", ")
    ))
}

/// Tuning sweep behind the `CollectorConfig` defaults: ring capacity ×
/// batch size on a mid-matrix cell, plus a spin-limit sweep at the
/// chosen geometry. Run with a generous `PINT_BENCH_MS` when retuning;
/// the committed defaults cite this sweep's output in
/// `BENCH_ingest.json`.
fn bench_sweep(c: &mut Criterion) {
    let agg = DynamicAggregator::new(17, 8, 100.0, 1.0e7);
    let reports = workload(&agg);
    let parts = partition(&reports, 2);
    let mut g = c.benchmark_group("collector_ingest_sweep");
    g.throughput(Throughput::Elements(reports.len() as u64));
    let sweep = |g: &mut criterion::BenchmarkGroup<'_>,
                 ring_capacity: usize,
                 batch_size: usize,
                 spin_limit: u32| {
        let collector = Collector::spawn(
            CollectorConfig {
                shards: 2,
                batch_size,
                ring_capacity,
                spin_limit,
                max_flows_per_shard: 2_048,
                ..CollectorConfig::default()
            },
            sketched_latency_factory(agg.clone(), 64),
        );
        let mut handles: Vec<_> = parts
            .iter()
            .map(|_| collector.register_producer())
            .collect();
        g.bench_with_input(
            BenchmarkId::new(
                format!("r{ring_capacity}_b{batch_size}"),
                format!("spin{spin_limit}"),
            ),
            &ring_capacity,
            |b, _| {
                b.iter(|| {
                    std::thread::scope(|s| {
                        for (part, handle) in parts.iter().zip(handles.iter_mut()) {
                            s.spawn(move || {
                                for r in part {
                                    handle.push(r.clone()).expect("collector alive");
                                }
                                handle.flush().expect("flush");
                            });
                        }
                    });
                    collector.barrier().expect("barrier");
                    black_box(())
                })
            },
        );
        drop(handles);
        let stats = collector.shutdown();
        assert_eq!(stats.digests_dropped, 0, "no digest lost");
    };
    for ring_capacity in [16usize, 64, 256] {
        for batch_size in [64usize, 256, 1_024] {
            sweep(&mut g, ring_capacity, batch_size, 64);
        }
    }
    for spin_limit in [16u32, 256] {
        sweep(&mut g, 64, 1_024, spin_limit);
    }
    g.finish();
}

/// Summarizes the observed cell's registry as one JSON note.
fn snapshot_note(registry: &MetricsRegistry) -> String {
    let snap = registry.snapshot();
    let stage = |name: &str| {
        let (mut count, mut sum) = (0u64, 0u64);
        for shard in 0..8u32 {
            if let Some(h) = snap.histogram(name, Some(shard)) {
                count += h.count();
                sum += (h.mean().unwrap_or(0.0) * h.count() as f64) as u64;
            }
        }
        let mean = if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        };
        format!("{{\"samples\": {count}, \"mean_ns\": {mean:.1}}}")
    };
    let enqueue = snap
        .histogram("collector_stage_enqueue_ns", None)
        .map(|h| {
            format!(
                "{{\"samples\": {}, \"mean_ns\": {:.1}}}",
                h.count(),
                h.mean().unwrap_or(0.0)
            )
        })
        .unwrap_or_else(|| "{\"samples\": 0, \"mean_ns\": 0.0}".into());
    format!(
        "{{\"id\": \"ingest_metrics_snapshot\", \"ingested_total\": {}, \"batches_total\": {}, \
         \"active_flows\": {}, \"state_bytes\": {}, \"evicted_lru\": {}, \
         \"stage_enqueue\": {enqueue}, \"stage_drain\": {}, \"stage_touch\": {}, \
         \"stage_kll\": {}}}",
        snap.counter_total("collector_ingested_total"),
        snap.counter_total("collector_batches_total"),
        snap.gauge_total("collector_active_flows"),
        snap.gauge_total("collector_state_bytes"),
        snap.counter_total("collector_evicted_lru"),
        stage("collector_stage_drain_ns"),
        stage("collector_stage_touch_ns"),
        stage("collector_stage_kll_ns"),
    )
}

/// Self-reported tracing price: the fresh `off`→`on` gap from this
/// run's traced pair, with the ≤5% budget verdict. Single runs on a
/// noisy host swing well past the budget either way; the committed
/// median-of-N record in `BENCH_ingest.json` is the honest number.
fn traced_overhead_note(c: &Criterion) -> Option<String> {
    let mean = |needle: &str| {
        c.results()
            .iter()
            .find(|r| r.id == needle)
            .map(|r| r.mean_ns)
    };
    let off = mean("collector_ingest_traced/off/p2s4")?;
    let on = mean("collector_ingest_traced/on/p2s4")?;
    let pct = (on / off - 1.0) * 100.0;
    Some(format!(
        "{{\"id\": \"ingest_traced_overhead\", \"off_ns\": {off:.0}, \"on_ns\": {on:.0}, \
         \"overhead_pct\": {pct:.2}, \"budget_pct\": 5.0}}"
    ))
}

/// Compares this run's matrix against a recorded baseline's mean_ns —
/// the before/after record for the instrumentation-overhead budget.
/// `PINT_BENCH_BASELINE` selects the baseline file (e.g. a run of the
/// pre-instrumentation commit on the *same* machine); it defaults to
/// the committed `BENCH_ingest.json`, whose numbers may come from
/// different hardware.
fn overhead_note(c: &Criterion) -> Option<String> {
    let path = std::env::var("PINT_BENCH_BASELINE").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json").to_string()
    });
    let baseline = std::fs::read_to_string(&path).ok()?;
    let mut cells = Vec::new();
    let mut ratios = Vec::new();
    for r in c.results() {
        if !r.id.starts_with("collector_ingest/") {
            continue;
        }
        let Some(before) = baseline_mean_ns(&baseline, &r.id) else {
            continue;
        };
        let pct = (r.mean_ns / before - 1.0) * 100.0;
        ratios.push(pct);
        cells.push(format!(
            "{{\"id\": \"{}\", \"before_ns\": {before:.0}, \"after_ns\": {:.0}, \
             \"overhead_pct\": {pct:.2}}}",
            r.id, r.mean_ns
        ));
    }
    if cells.is_empty() {
        return None;
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let base_name = path.rsplit('/').next().unwrap_or(&path);
    Some(format!(
        "{{\"id\": \"ingest_overhead_vs_baseline\", \"baseline\": \"{base_name}\", \
         \"cells\": {}, \"mean_overhead_pct\": {mean:.2}, \"entries\": [{}]}}",
        cells.len(),
        cells.join(", ")
    ))
}

/// Pulls `"mean_ns"` for `id` out of a recorded baseline without a JSON
/// parser: entries are one object per line in the shim's own format.
fn baseline_mean_ns(baseline: &str, id: &str) -> Option<f64> {
    let needle = format!("\"id\": \"{id}\"");
    let line = baseline.lines().find(|l| l.contains(&needle))?;
    let rest = line.split("\"mean_ns\": ").nth(1)?;
    rest.split([',', '}']).next()?.trim().parse().ok()
}

criterion_group!(benches, bench_ingest, bench_sweep);
criterion_main!(benches);
