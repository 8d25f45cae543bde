//! Figure 9 — per-hop latency-quantile estimation error.
//!
//! Phase 1 runs the network simulator (the paper's Clos topology, scaled)
//! and records ground-truth per-(flow, hop) switch latencies. Phase 2
//! replays long flows through PINT's dynamic per-flow aggregation exactly
//! as the switches would (distributed reservoir sampling + multiplicative
//! compression), for bit budgets b ∈ {8, 4}, with and without KLL sketches
//! at the Recording Module (`PINT_S`).
//!
//! Panels, as in the paper: (web-search tail, Hadoop tail, Hadoop median)
//! as a function of the per-flow sample size, and as a function of the
//! sketch byte budget.
//!
//! Usage: `fig09_latency_quantiles [--duration-ms 3] [--drain-ms 40]
//!         [--flows 30] [--seed 1]`

use pint_bench::hooks::{LatencyCollectorHook, LatencySample};
use pint_bench::{stats, Args};
use pint_core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint_core::value::Digest;
use pint_netsim::sim::{SimConfig, Simulator};
use pint_netsim::topology::Topology;
use pint_netsim::transport::reno::Reno;
use pint_netsim::workload::{FlowSizeCdf, WorkloadConfig};
use pint_sketches::ExactQuantiles;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One flow's ground truth: packets in arrival order with per-hop latency.
struct FlowTrace {
    /// (pid, per-hop latency indexed by hop-1).
    packets: Vec<(u64, Vec<u32>)>,
    k: usize,
}

fn collect_traces(cdf: FlowSizeCdf, duration: u64, drain: u64, seed: u64) -> Vec<FlowTrace> {
    let out = Arc::new(Mutex::new(Vec::<LatencySample>::new()));
    let topo = Topology::paper_clos(10_000_000_000, 40_000_000_000);
    let mut sim = Simulator::new(
        topo,
        SimConfig {
            mss: 1000,
            buffer_bytes: 32_000_000,
            end_time_ns: duration + drain,
            seed,
            ..SimConfig::default()
        },
        Box::new(|meta| Box::new(Reno::new(meta))),
        Box::new(LatencyCollectorHook::new(out.clone(), 6_000_000)),
    );
    sim.add_workload(&WorkloadConfig {
        cdf,
        load: 0.5,
        nic_bps: 10_000_000_000,
        duration_ns: duration,
        seed: seed ^ 0x909,
    });
    let _ = sim.run();
    // Group by flow, then by pid (samples arrive hop-by-hop in order).
    let samples = Arc::try_unwrap(out)
        .expect("sole owner")
        .into_inner()
        .expect("lock");
    let mut flows: BTreeMap<u64, BTreeMap<u64, Vec<(u8, u32)>>> = BTreeMap::new();
    for s in samples {
        flows
            .entry(s.flow)
            .or_default()
            .entry(s.pid)
            .or_default()
            .push((s.hop, s.latency_ns));
    }
    let mut traces = Vec::new();
    for (_, pkts) in flows {
        let k = pkts.values().map(|v| v.len()).max().unwrap_or(0);
        if k == 0 {
            continue;
        }
        let packets: Vec<(u64, Vec<u32>)> = pkts
            .into_iter()
            .filter(|(_, hops)| hops.len() == k)
            .map(|(pid, mut hops)| {
                hops.sort_unstable_by_key(|&(h, _)| h);
                (pid, hops.into_iter().map(|(_, l)| l).collect())
            })
            .collect();
        if packets.len() >= 1000 {
            traces.push(FlowTrace { packets, k });
        }
    }
    traces
}

/// Replays `n` packets of a flow through the PINT pipeline; returns the
/// mean relative error (%) of the ϕ-quantile across hops.
fn replay_error(
    trace: &FlowTrace,
    bits: u32,
    sketch_bytes: Option<usize>,
    n: usize,
    phi: f64,
) -> f64 {
    let agg = DynamicAggregator::new(0xF19, bits, 100.0, 1.0e5);
    let mut rec = match sketch_bytes {
        None => DynamicRecorder::new_exact(agg.clone(), trace.k),
        Some(b) => DynamicRecorder::new_sketched(agg.clone(), trace.k, b),
    };
    let mut truth: Vec<ExactQuantiles> = (0..=trace.k).map(|_| ExactQuantiles::new()).collect();
    for (pid, hops) in trace.packets.iter().take(n) {
        let mut digest = Digest::new(1);
        for (i, &lat) in hops.iter().enumerate() {
            truth[i + 1].update(u64::from(lat.max(1)));
            agg.encode_hop(*pid, i + 1, f64::from(lat.max(1)), &mut digest, 0);
        }
        rec.record(*pid, &digest, 0);
    }
    let mut errs = Vec::new();
    for hop in 1..=trace.k {
        if let (Some(est), Some(tru)) = (rec.quantile(hop, phi), truth[hop].quantile(phi)) {
            errs.push(stats::rel_err_pct(est, tru as f64));
        }
    }
    stats::mean(&errs)
}

fn panel(traces: &[FlowTrace], flows: usize, phi: f64, label: &str) {
    println!(
        "\n## {label} (ϕ = {phi}), {} usable flows",
        traces.len().min(flows)
    );
    println!(
        "{:>8} {:>11} {:>11} {:>12} {:>12}",
        "packets", "PINT(b=8)", "PINT(b=4)", "PINTs(b=8)", "PINTs(b=4)"
    );
    for &n in &[200usize, 400, 600, 800, 1000] {
        let used: Vec<&FlowTrace> = traces.iter().take(flows).collect();
        // Median across flows: the p99-of-few-samples estimator
        // occasionally catches a single extreme queueing event, which
        // would dominate a mean.
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for t in &used {
            cols[0].push(replay_error(t, 8, None, n, phi));
            cols[1].push(replay_error(t, 4, None, n, phi));
            cols[2].push(replay_error(t, 8, Some(100), n, phi));
            cols[3].push(replay_error(t, 4, Some(100), n, phi));
        }
        println!(
            "{n:>8} {:>10.1}% {:>10.1}% {:>11.1}% {:>11.1}%",
            stats::percentile(&cols[0], 0.5),
            stats::percentile(&cols[1], 0.5),
            stats::percentile(&cols[2], 0.5),
            stats::percentile(&cols[3], 0.5)
        );
    }
    println!(
        "{:>8} {:>11} {:>11} {:>12} {:>12}",
        "sk-bytes", "PINTs(b=8)", "PINTs(b=4)", "", ""
    );
    for &bytes in &[100usize, 150, 200, 250, 300] {
        let used: Vec<&FlowTrace> = traces.iter().take(flows).collect();
        let c8: Vec<f64> = used
            .iter()
            .map(|t| replay_error(t, 8, Some(bytes), 500, phi))
            .collect();
        let c4: Vec<f64> = used
            .iter()
            .map(|t| replay_error(t, 4, Some(bytes), 500, phi))
            .collect();
        println!(
            "{bytes:>8} {:>10.1}% {:>10.1}%",
            stats::percentile(&c8, 0.5),
            stats::percentile(&c4, 0.5)
        );
    }
}

fn main() {
    let args = Args::parse(&["duration-ms", "drain-ms", "flows", "seed"]);
    let duration = args.get_u64("duration-ms", 3) * 1_000_000;
    let drain = args.get_u64("drain-ms", 40) * 1_000_000;
    let flows = args.get_u64("flows", 30) as usize;
    let seed = args.get_u64("seed", 1);

    println!("# Fig 9: relative error of per-hop latency quantiles");
    println!("# (paper: errors stabilize with enough packets; 100B sketches cost little)");

    let ws = collect_traces(FlowSizeCdf::web_search(), duration, drain, seed);
    panel(&ws, flows, 0.99, "Web Search Tail");

    let hd = collect_traces(FlowSizeCdf::hadoop(), duration, drain, seed + 1);
    panel(&hd, flows, 0.99, "Hadoop Tail");
    panel(&hd, flows, 0.5, "Hadoop Median");
}
