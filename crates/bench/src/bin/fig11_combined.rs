//! Figure 11 — three concurrent queries under one 16-bit budget (§6.4).
//!
//! Execution plan: path tracing (8 bits, as 2×(b=4)) on every packet;
//! latency quantiles (8 bits) on 15/16 of packets; HPCC (8 bits) on 1/16 —
//! so each packet carries exactly two query digests. Each panel compares
//! against the query running alone with the full 16-bit budget:
//!
//! * HPCC slowdown: combined (plan-gated, 2B digest) vs alone (p = 1/16);
//! * path tracing: packets to decode vs the dedicated 2×(b=8) tracer;
//! * tail latency: error at 15/16 frequency vs every packet.
//!
//! Usage: `fig11_combined [--duration-ms 4] [--drain-ms 60] [--runs 100]
//!         [--seed 1]`

use pint_bench::hooks::{
    fig11_plan, CombinedPintHook, LatencyCollectorHook, LatencySample, Q_HPCC, Q_LATENCY,
};
use pint_bench::{stats, Args};
use pint_core::dynamic::{DynamicAggregator, DynamicRecorder};
use pint_core::statictrace::{PathTracer, TracerConfig};
use pint_core::value::Digest;
use pint_hpcc::{FeedbackMode, HpccConfig, HpccPintHook, HpccTransport};
use pint_netsim::sim::{SimConfig, Simulator};
use pint_netsim::topology::Topology;
use pint_netsim::transport::TransportFactory;
use pint_netsim::workload::{FlowSizeCdf, WorkloadConfig};
use pint_netsim::{Nanos, Report};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

const T_NS: Nanos = 60_000;

fn run_hpcc(combined: bool, duration: Nanos, drain: Nanos, seed: u64) -> Report {
    let topo = Topology::overhead_study(); // FatTree-like fabric (§6.4 uses a fat tree)
    let telem: Box<dyn pint_netsim::telemetry::TelemetryHook> = if combined {
        Box::new(CombinedPintHook::new(seed, T_NS, 5))
    } else {
        // Alone with the full 16-bit budget: 2-byte digest, p = 1/16.
        Box::new(HpccPintHook::new(seed ^ 0x33CC, 1.0 / 16.0, T_NS, 2, 0, 1))
    };
    let factory: TransportFactory = if combined {
        let hook = Arc::new(CombinedPintHook::new(seed, T_NS, 5));
        let plan = hook.plan.clone();
        let decoder = Arc::new(HpccPintHook::new(seed ^ 0x33CC, 1.0, T_NS, 0, 2, 3));
        Box::new(move |meta| {
            let cfg = HpccConfig {
                base_rtt_ns: T_NS,
                ..HpccConfig::default()
            };
            Box::new(HpccTransport::new(
                meta,
                cfg,
                FeedbackMode::Pint {
                    lane: 2,
                    decoder: decoder.clone(),
                    plan: Some((plan.clone(), Q_HPCC)),
                },
            ))
        })
    } else {
        let decoder = Arc::new(HpccPintHook::new(seed ^ 0x33CC, 1.0 / 16.0, T_NS, 2, 0, 1));
        Box::new(move |meta| {
            let cfg = HpccConfig {
                base_rtt_ns: T_NS,
                ..HpccConfig::default()
            };
            Box::new(HpccTransport::new(
                meta,
                cfg,
                FeedbackMode::Pint {
                    lane: 0,
                    decoder: decoder.clone(),
                    plan: None,
                },
            ))
        })
    };
    let mut sim = Simulator::new(
        topo,
        SimConfig {
            mss: 1000,
            buffer_bytes: 16_000_000,
            end_time_ns: duration + drain,
            seed,
            ..SimConfig::default()
        },
        factory,
        telem,
    );
    sim.add_workload(&WorkloadConfig {
        cdf: FlowSizeCdf::hadoop(),
        load: 0.5,
        nic_bps: 10_000_000_000,
        duration_ns: duration,
        seed: seed ^ 0xBEE,
    });
    sim.run()
}

/// Path tracing: packets to decode a 5-hop fat-tree path, combined
/// (2×(b=4), topology-aware) vs dedicated 2×(b=8).
fn path_panel(runs: u64) -> (f64, f64) {
    let topo = Topology::overhead_study();
    let universe: Vec<u64> = topo.switches().iter().map(|&s| s as u64).collect();
    let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
    for l in topo.links() {
        use pint_netsim::topology::NodeKind;
        if topo.kind(l.from) == NodeKind::Switch && topo.kind(l.to) == NodeKind::Switch {
            adj.entry(l.from as u64).or_default().push(l.to as u64);
        }
    }
    let path_nodes = topo.find_path_of_length(5, 7).expect("5-hop path");
    let path: Vec<u64> = path_nodes.iter().map(|&n| n as u64).collect();
    let avg = |bits: u32, instances: usize| -> f64 {
        let mut total = 0u64;
        for r in 0..runs {
            let tracer = PathTracer::new(TracerConfig::paper(bits, instances, 5));
            let mut dec = tracer.decoder_with_topology(universe.clone(), path.len(), adj.clone());
            let mut pid = r.wrapping_mul(7_777_777) + 1;
            loop {
                pid += 1;
                if dec.absorb(pid, &tracer.encode_path(pid, &path)) {
                    total += dec.packets();
                    break;
                }
            }
        }
        total as f64 / runs as f64
    };
    (avg(4, 2), avg(8, 2))
}

/// Latency: replay collected traces with the 15/16 plan gating vs all
/// packets; returns (combined err %, baseline err %) for the tail.
fn latency_panel(duration: Nanos, drain: Nanos, seed: u64) -> (f64, f64) {
    let out = Arc::new(Mutex::new(Vec::<LatencySample>::new()));
    let topo = Topology::overhead_study();
    let mut sim = Simulator::new(
        topo,
        SimConfig {
            mss: 1000,
            buffer_bytes: 16_000_000,
            end_time_ns: duration + drain,
            seed,
            ..SimConfig::default()
        },
        Box::new(|meta| Box::new(pint_netsim::transport::reno::Reno::new(meta))),
        Box::new(LatencyCollectorHook::new(out.clone(), 4_000_000)),
    );
    sim.add_workload(&WorkloadConfig {
        cdf: FlowSizeCdf::hadoop(),
        load: 0.5,
        nic_bps: 10_000_000_000,
        duration_ns: duration,
        seed: seed ^ 0xBEE,
    });
    let _ = sim.run();
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
    let plan = fig11_plan(seed);
    let mut comb_errs = Vec::new();
    let mut base_errs = Vec::new();
    let mut used = 0;
    for (_, pkts) in flows {
        let k = pkts.values().map(|v| v.len()).max().unwrap_or(0);
        if k == 0 {
            continue;
        }
        let packets: Vec<(u64, Vec<u32>)> = pkts
            .into_iter()
            .filter(|(_, h)| h.len() == k)
            .map(|(pid, mut h)| {
                h.sort_unstable_by_key(|&(x, _)| x);
                (pid, h.into_iter().map(|(_, l)| l).collect())
            })
            .collect();
        if packets.len() < 500 || used >= 20 {
            continue;
        }
        used += 1;
        for (gated, errs) in [(true, &mut comb_errs), (false, &mut base_errs)] {
            let agg = DynamicAggregator::new(0x22BB ^ seed, 8, 100.0, 1.0e5);
            let mut rec = DynamicRecorder::new_exact(agg.clone(), k);
            let mut truth: Vec<pint_sketches::ExactQuantiles> = (0..=k)
                .map(|_| pint_sketches::ExactQuantiles::new())
                .collect();
            for (pid, hops) in packets.iter().take(500) {
                for (i, &lat) in hops.iter().enumerate() {
                    truth[i + 1].update(u64::from(lat.max(1)));
                }
                if gated && !plan.select(*pid).contains(&Q_LATENCY) {
                    continue; // this packet carried the HPCC digest instead
                }
                let mut digest = Digest::new(1);
                for (i, &lat) in hops.iter().enumerate() {
                    agg.encode_hop(*pid, i + 1, f64::from(lat.max(1)), &mut digest, 0);
                }
                rec.record(*pid, &digest, 0);
            }
            for hop in 1..=k {
                if let (Some(est), Some(tru)) = (rec.quantile(hop, 0.99), truth[hop].quantile(0.99))
                {
                    errs.push(stats::rel_err_pct(est, tru as f64));
                }
            }
        }
    }
    (stats::mean(&comb_errs), stats::mean(&base_errs))
}

fn main() {
    let args = Args::parse(&["duration-ms", "drain-ms", "runs", "seed"]);
    let duration = args.get_u64("duration-ms", 4) * 1_000_000;
    let drain = args.get_u64("drain-ms", 60) * 1_000_000;
    let runs = args.get_u64("runs", 100);
    let seed = args.get_u64("seed", 1);

    println!("# Fig 11: three concurrent queries on a 16-bit budget vs each alone");

    // Panel 1: HPCC slowdown.
    let alone = run_hpcc(false, duration, drain, seed);
    let combined = run_hpcc(true, duration, drain, seed);
    let short = |r: &Report| r.slowdown_percentile(0, 10_000, 0.95).unwrap_or(f64::NAN);
    let long = |r: &Report| {
        r.slowdown_percentile(100_000, u64::MAX, 0.95)
            .unwrap_or(f64::NAN)
    };
    println!("\n## HPCC(PINT) 95p slowdown (Hadoop, 50% load)");
    println!("{:<10} {:>12} {:>12}", "", "short <10KB", "long >100KB");
    println!(
        "{:<10} {:>12.2} {:>12.2}",
        "baseline",
        short(&alone),
        long(&alone)
    );
    println!(
        "{:<10} {:>12.2} {:>12.2}",
        "combined",
        short(&combined),
        long(&combined)
    );

    // Panel 2: path tracing.
    let (comb_pkts, base_pkts) = path_panel(runs);
    println!("\n## Path tracing: avg packets to decode a 5-hop path ({runs} runs)");
    println!("{:<10} {:>10}", "", "packets");
    println!(
        "{:<10} {:>10.1}   (dedicated 2x(b=8))",
        "baseline", base_pkts
    );
    println!(
        "{:<10} {:>10.1}   (combined 2x(b=4), +{:.1}%)",
        "combined",
        comb_pkts,
        (comb_pkts / base_pkts - 1.0) * 100.0
    );

    // Panel 3: tail latency error.
    let (comb_err, base_err) = latency_panel(duration, drain, seed);
    println!("\n## Tail (p99) latency estimation error");
    println!("{:<10} {:>10}", "", "rel err");
    println!("{:<10} {:>9.1}%   (every packet)", "baseline", base_err);
    println!(
        "{:<10} {:>9.1}%   (15/16 of packets, +{:.1} pp)",
        "combined",
        comb_err,
        comb_err - base_err
    );
}
