//! Figure 8 — running the PINT-based HPCC query on only a `p`-fraction of
//! packets (p = 1, 1/16, 1/256).
//!
//! The paper's finding: p = 1/16 performs like p = 1 (the BDP is ~150
//! packets, so ~9 digests still arrive per RTT), while p = 1/256 hurts
//! short flows (feedback arrives slower than an RTT) and very long flows
//! (slow reconvergence after competing flows finish).
//!
//! Usage: `fig08_sampling_fraction [--duration-ms 3] [--drain-ms 60]
//!         [--full] [--seed 1]`

use pint_bench::Args;
use pint_hpcc::{FeedbackMode, HpccConfig, HpccPintHook, HpccTransport};
use pint_netsim::sim::{SimConfig, Simulator};
use pint_netsim::topology::Topology;
use pint_netsim::transport::TransportFactory;
use pint_netsim::workload::{FlowSizeCdf, WorkloadConfig};
use pint_netsim::{Nanos, Report};
use std::sync::Arc;

#[allow(clippy::too_many_arguments)]
fn run(
    nic: u64,
    fabric: u64,
    t_ns: Nanos,
    duration: Nanos,
    drain: Nanos,
    seed: u64,
    cdf: FlowSizeCdf,
    p: f64,
) -> Report {
    let topo = Topology::paper_clos(nic, fabric);
    let hook = Arc::new(HpccPintHook::new(42, p, t_ns, 1, 0, 1));
    let factory: TransportFactory = {
        let hook = hook.clone();
        Box::new(move |meta| {
            let cfg = HpccConfig {
                base_rtt_ns: t_ns,
                ..HpccConfig::default()
            };
            Box::new(HpccTransport::new(
                meta,
                cfg,
                FeedbackMode::Pint {
                    lane: 0,
                    decoder: hook.clone(),
                    plan: None,
                },
            ))
        })
    };
    let mut sim = Simulator::new(
        topo,
        SimConfig {
            mss: 1000,
            buffer_bytes: 32_000_000,
            end_time_ns: duration + drain,
            seed,
            ..SimConfig::default()
        },
        factory,
        Box::new(HpccPintHook::new(42, p, t_ns, 1, 0, 1)),
    );
    sim.add_workload(&WorkloadConfig {
        cdf,
        load: 0.5,
        nic_bps: nic,
        duration_ns: duration,
        seed: seed ^ 0x808,
    });
    sim.run()
}

fn print_deciles(rep: &Report, cdf: &FlowSizeCdf, label: &str) {
    let deciles = cdf.deciles();
    let mut lo = 0u64;
    print!("{label:<10}");
    for &hi in &deciles {
        let s = rep
            .slowdown_percentile(lo, hi + 1, 0.95)
            .unwrap_or(f64::NAN);
        print!(" {s:>8.2}");
        lo = hi + 1;
    }
    println!();
}

fn main() {
    let args = Args::parse(&["full", "t-us", "duration-ms", "drain-ms", "seed"]);
    let full = args.get_bool("full");
    let nic = if full {
        100_000_000_000
    } else {
        10_000_000_000
    };
    let fabric = if full {
        400_000_000_000
    } else {
        40_000_000_000
    };
    let t_ns = args.get_u64("t-us", if full { 13 } else { 60 }) * 1_000;
    let duration = args.get_u64("duration-ms", 3) * 1_000_000;
    let drain = args.get_u64("drain-ms", 60) * 1_000_000;
    let seed = args.get_u64("seed", 1);

    for (name, cdf) in [
        ("web search", FlowSizeCdf::web_search()),
        ("Hadoop", FlowSizeCdf::hadoop()),
    ] {
        println!("# Fig 8: 95p slowdown per flow-size decile, HPCC(PINT) at digest frequency p ({name}, 50% load)");
        print!("{:<10}", "decile");
        for d in cdf.deciles() {
            print!(" {d:>8}");
        }
        println!();
        for (label, p) in [
            ("p=1", 1.0),
            ("p=1/16", 1.0 / 16.0),
            ("p=1/256", 1.0 / 256.0),
        ] {
            let rep = run(nic, fabric, t_ns, duration, drain, seed, cdf.clone(), p);
            print_deciles(&rep, &cdf, label);
        }
        println!();
    }
}
