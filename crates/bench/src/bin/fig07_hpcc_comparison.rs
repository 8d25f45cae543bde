//! Figure 7 — HPCC with INT feedback vs HPCC with PINT feedback.
//!
//! (a) relative goodput gain of PINT over INT for flows > 10 MB as the
//!     network load grows (web search);
//! (b) 95th-percentile slowdown per flow-size decile, web search, 50%;
//! (c) same for the Hadoop workload.
//!
//! Topology: the paper's Clos (16 core / 20 agg / 20 ToR / 320 servers).
//! Default link rates are scaled to 10/40 Gbps to keep the default run
//! minutes-fast; `--full` restores 100/400 Gbps (longer!). The shape —
//! PINT ≈ INT for short flows, PINT ahead on long flows, growing with
//! load — is rate-scale invariant because HPCC is parameterized by BDP.
//!
//! Usage: `fig07_hpcc_comparison [--duration-ms 3] [--drain-ms 60]
//!         [--full] [--t-us 13] [--seed 1]`

use pint_bench::Args;
use pint_hpcc::{FeedbackMode, HpccConfig, HpccPintHook, HpccTransport};
use pint_netsim::sim::{SimConfig, Simulator};
use pint_netsim::telemetry::IntTelemetry;
use pint_netsim::topology::Topology;
use pint_netsim::transport::TransportFactory;
use pint_netsim::workload::{FlowSizeCdf, WorkloadConfig};
use pint_netsim::{Nanos, Report};
use std::sync::Arc;

struct Setup {
    nic: u64,
    fabric: u64,
    t_ns: Nanos,
    duration: Nanos,
    drain: Nanos,
    seed: u64,
}

fn run(setup: &Setup, cdf: FlowSizeCdf, load: f64, pint: bool) -> Report {
    let topo = Topology::paper_clos(setup.nic, setup.fabric);
    let t_ns = setup.t_ns;
    let telem: Box<dyn pint_netsim::telemetry::TelemetryHook> = if pint {
        Box::new(HpccPintHook::new(42, 1.0, t_ns, 1, 0, 1))
    } else {
        Box::new(IntTelemetry::hpcc())
    };
    let factory: TransportFactory = if pint {
        let hook = Arc::new(HpccPintHook::new(42, 1.0, t_ns, 1, 0, 1));
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
    } else {
        Box::new(move |meta| {
            let cfg = HpccConfig {
                base_rtt_ns: t_ns,
                ..HpccConfig::default()
            };
            Box::new(HpccTransport::new(meta, cfg, FeedbackMode::Int))
        })
    };
    let mut sim = Simulator::new(
        topo,
        SimConfig {
            mss: 1000,                // 1 KB RDMA-style MTU (§2, §6.1)
            buffer_bytes: 32_000_000, // 32 MB switch buffer (§6.1)
            end_time_ns: setup.duration + setup.drain,
            seed: setup.seed,
            ..SimConfig::default()
        },
        factory,
        telem,
    );
    sim.add_workload(&WorkloadConfig {
        cdf,
        load,
        nic_bps: setup.nic,
        duration_ns: setup.duration,
        seed: setup.seed ^ 0x707,
    });
    sim.run()
}

fn print_slowdown_deciles(rep: &Report, cdf: &FlowSizeCdf, label: &str) {
    let deciles = cdf.deciles();
    let mut lo = 0u64;
    print!("{label:<12}");
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
    let setup = Setup {
        nic: if full {
            100_000_000_000
        } else {
            10_000_000_000
        },
        fabric: if full {
            400_000_000_000
        } else {
            40_000_000_000
        },
        t_ns: args.get_u64("t-us", if full { 13 } else { 60 }) * 1_000,
        duration: args.get_u64("duration-ms", 3) * 1_000_000,
        drain: args.get_u64("drain-ms", 60) * 1_000_000,
        seed: args.get_u64("seed", 1),
    };

    // ---- Fig 7a: goodput gain of PINT over INT vs load (web search). ----
    println!("# Fig 7a: goodput of >10MB flows, HPCC(PINT) vs HPCC(INT), web search");
    println!(
        "{:>5} {:>12} {:>12} {:>9}",
        "load", "INT [Gbps]", "PINT [Gbps]", "gain %"
    );
    for &load in &[0.3, 0.5, 0.7] {
        let int = run(&setup, FlowSizeCdf::web_search(), load, false);
        let pint = run(&setup, FlowSizeCdf::web_search(), load, true);
        let gi = int
            .mean_goodput_bps(10_000_000)
            .or(int.mean_goodput_bps(1_000_000))
            .unwrap_or(f64::NAN);
        let gp = pint
            .mean_goodput_bps(10_000_000)
            .or(pint.mean_goodput_bps(1_000_000))
            .unwrap_or(f64::NAN);
        println!(
            "{load:>5.1} {:>12.3} {:>12.3} {:>9.1}",
            gi / 1e9,
            gp / 1e9,
            (gp / gi - 1.0) * 100.0
        );
        if load == 0.5 {
            // ---- Fig 7b: slowdown per decile at 50%, web search. ----
            println!("\n# Fig 7b: 95p slowdown per flow-size decile (web search, 50% load)");
            print!("{:<12}", "decile up to");
            for d in FlowSizeCdf::web_search().deciles() {
                print!(" {d:>8}");
            }
            println!();
            print_slowdown_deciles(&int, &FlowSizeCdf::web_search(), "HPCC(INT)");
            print_slowdown_deciles(&pint, &FlowSizeCdf::web_search(), "HPCC(PINT)");
            println!();
        }
    }

    // ---- Fig 7c: slowdown per decile at 50%, Hadoop. ----
    println!("# Fig 7c: 95p slowdown per flow-size decile (Hadoop, 50% load)");
    let int = run(&setup, FlowSizeCdf::hadoop(), 0.5, false);
    let pint = run(&setup, FlowSizeCdf::hadoop(), 0.5, true);
    print!("{:<12}", "decile up to");
    for d in FlowSizeCdf::hadoop().deciles() {
        print!(" {d:>8}");
    }
    println!();
    print_slowdown_deciles(&int, &FlowSizeCdf::hadoop(), "HPCC(INT)");
    print_slowdown_deciles(&pint, &FlowSizeCdf::hadoop(), "HPCC(PINT)");
}
