//! The per-layer table of a traced run: figures the benchmark timed
//! around its own calls into each layer, plus the stage histograms and
//! counters `pint-obs` already publishes.

use crate::report::{median, quantile, RunReport};
use std::collections::BTreeMap;

/// Which end-to-end metric each layer metric should move, on which
/// workload (first matching prefix; the same map `README.md` documents).
const MOVES: [(&str, &str); 12] = [
    (
        "forwarder.",
        "ingest_digests_per_s, fresh_p50_ms @ edge_firehose",
    ),
    (
        "ingest.",
        "ingest_digests_per_s, fresh_p50_ms @ edge_firehose",
    ),
    (
        "collector.evicted",
        "ingest_digests_per_s, peak_heap_mb @ local_churn",
    ),
    (
        "collector.state",
        "ingest_digests_per_s, peak_heap_mb @ local_churn",
    ),
    (
        "collector.touch",
        "ingest_digests_per_s, peak_heap_mb @ local_churn",
    ),
    (
        "collector.kll",
        "ingest_digests_per_s, peak_heap_mb @ local_churn",
    ),
    (
        "collector.",
        "ingest_digests_per_s @ local_churn, edge_firehose",
    ),
    (
        "query.",
        "query_scan_p50_ms, query_point_p50_ms @ local_churn, edge_firehose",
    ),
    (
        "fleet.",
        "fleet_sync_p50_ms @ edge_firehose, local_churn (fleet.query_ms and its split: ungated)",
    ),
    ("store.checkpoint", "restore_s @ local_churn"),
    ("store.", "ingest_digests_per_s, restore_s @ edge_firehose"),
    ("gen.", "validity of fresh_p50_ms (paced phases)"),
];

fn pool_median(rep: &RunReport, name: &str) -> f64 {
    median(rep.samples_of(name)).unwrap_or(0.0)
}

/// Builds the per-layer table from a traced run, using the untraced
/// half for the tracing overhead.
pub fn derive(plain: &RunReport, t: &RunReport) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let mb = 1024.0 * 1024.0;
    m.insert(
        "forwarder.push_ns_per_digest",
        t.ratio("push_ns", "push_digests"),
    );
    m.insert("forwarder.window_wait_share", t.ratio("wait_ns", "wall_ns"));
    m.insert("forwarder.ack_p50_ms", pool_median(t, "ack_ms"));
    m.insert("forwarder.retransmits", t.acc_of("forwarder.retransmits"));
    m.insert("forwarder.shed", t.acc_of("forwarder.shed"));
    m.insert(
        "ingest.sink_ns_per_digest",
        t.ratio("sink_ns", "sink_digests"),
    );
    m.insert(
        "ingest.digests_per_batch",
        t.ratio("ingest_digests", "ingest_applied"),
    );
    m.insert(
        "ingest.acks_per_batch",
        t.ratio("ingest_acks", "ingest_batches"),
    );
    m.insert(
        "ingest.useful_share",
        t.ratio("ingest_applied", "ingest_batches"),
    );
    // The collector's producer is the server's sink on the remote
    // workloads and the benchmark's own handle on the local one.
    let push = if t.acc_of("cpush_digests") > 0.0 {
        t.ratio("cpush_ns", "cpush_digests")
    } else {
        t.ratio("sink_ns", "sink_digests")
    };
    m.insert("collector.push_ns_per_digest", push);
    m.insert(
        "collector.producer_parks",
        t.acc_of("collector.producer_parks"),
    );
    let batches = t.acc_of("recycled") + t.acc_of("allocs");
    m.insert(
        "collector.recycle_share",
        if batches > 0.0 {
            t.acc_of("recycled") / batches
        } else {
            0.0
        },
    );
    m.insert(
        "collector.enqueue_ns_per_batch",
        t.ratio("enqueue_ns", "enqueue_n"),
    );
    m.insert(
        "collector.drain_ns_per_batch",
        t.ratio("drain_ns", "drain_n"),
    );
    m.insert("collector.barrier_ms", pool_median(t, "barrier_ms"));
    m.insert(
        "collector.touch_ns_per_digest",
        t.ratio("touch_ns", "touch_n"),
    );
    m.insert("collector.kll_ns_per_digest", t.ratio("kll_ns", "kll_n"));
    m.insert(
        "collector.evicted_per_kdigest",
        1e3 * t.ratio("evicted", "applied"),
    );
    m.insert(
        "collector.state_mb",
        t.ratio("state_bytes", "state_samples") / mb,
    );
    m.insert("query.scan_us_per_flow", pool_median(t, "scan_us_per_flow"));
    m.insert("query.point_exec_ms", pool_median(t, "query_point_p50_ms"));
    for name in [
        "fleet.export_ms",
        "fleet.frame_kb",
        "fleet.send_ms",
        "fleet.apply_confirm_ms",
        "fleet.query_ms",
        "fleet.lock_hold_ms",
        "fleet.view_merge_ms",
        "fleet.view_exec_ms",
        "store.checkpoint_ms",
    ] {
        m.insert(name, pool_median(t, name));
    }
    m.insert(
        "store.bytes_per_digest",
        t.ratio("store_bytes", "store_digests"),
    );
    m.insert("store.flush_ms", t.ratio("store_flush_ms", "store_flushes"));
    m.insert("store.journal_dropped", t.acc_of("store.journal_dropped"));
    m.insert(
        "store.reader_open_ms",
        t.ratio("store_open_ms", "store_restores"),
    );
    m.insert(
        "store.restore_digests_per_s",
        t.ratio("store_restore_digests", "store_restore_s"),
    );
    m.insert(
        "gen.late_p99_ms",
        quantile(t.samples_of("late_ms"), 0.99).unwrap_or(0.0),
    );
    m.insert(
        "paced.fresh_p99_ms",
        quantile(t.samples_of("fresh_ms"), 0.99).unwrap_or(0.0),
    );
    // Overhead on the workload's headline figure, the ingest rate.
    let overhead = plain
        .end_to_end("ingest_digests_per_s")
        .zip(t.end_to_end("ingest_digests_per_s"))
        .map(|(p, q)| (p - q) / p);
    m.insert("trace.overhead_share", overhead.unwrap_or(0.0));
    let wall = t.acc_of("budget_wall_ms");
    let layers = t.acc_of("budget_layers_ms");
    m.insert("budget.wall_ms", wall);
    m.insert("budget.layers_ms", layers);
    m.insert("budget.gap_ms", wall - layers);
    m.insert(
        "budget.layers_share",
        if wall > 0.0 { layers / wall } else { 0.0 },
    );
    m
}

/// What the budget's gap is, per workload.
fn gap_name(workload: &str) -> &'static str {
    if workload == "local_churn" {
        "producer thread outside handle push/flush and barrier (corpus clone, loop)"
    } else {
        "generator thread outside forwarder push and window wait (corpus clone, loop)"
    }
}

/// Prints the table, the layer budget and the concurrent layers' busy
/// shares (human-readable lines ahead of the JSON result).
pub fn print(workload: &str, table: &BTreeMap<&'static str, f64>, t: &RunReport) {
    println!("per-layer table ({workload}, traced half):");
    for (name, v) in table {
        let moves = MOVES
            .iter()
            .find(|(prefix, _)| name.starts_with(prefix))
            .map_or("- (ungated)", |(_, m)| *m);
        println!("  {name:<32} {v:>14.4}   moves: {moves}");
    }
    let wall = t.acc_of("budget_wall_ms");
    println!(
        "budget: wall {wall:.1} ms = layers {:.1} ms + gap {:.1} ms; gap = {}",
        t.acc_of("budget_layers_ms"),
        wall - t.acc_of("budget_layers_ms"),
        gap_name(workload)
    );
    if wall > 0.0 {
        println!(
            "concurrent layers, busy ms per wall ms: digest-server sink {:.3}, shard drain {:.3}",
            t.acc_of("sink_ns") / 1e6 / wall,
            t.acc_of("drain_ns") / 1e6 / wall,
        );
    }
}
