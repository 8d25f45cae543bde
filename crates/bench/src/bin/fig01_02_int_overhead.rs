//! Figures 1 & 2 — the cost of INT's per-packet byte overhead (§2).
//!
//! A 5-switch-hop three-tier fabric with 64 hosts on 10 Gbps links runs a
//! web-search workload over TCP Reno with ECMP. The per-packet telemetry
//! overhead is swept from 0 to 108 bytes (matching 1–5 INT values per hop
//! over 5 hops); the output is the average FCT (Fig. 1) and the goodput of
//! long flows (Fig. 2), both normalized to the zero-overhead run.
//!
//! Paper reference points: at 70% load, 48B of overhead costs ~10% FCT,
//! 108B costs ~25% FCT and ~20% goodput.
//!
//! Usage: `fig01_02_int_overhead [--duration-ms 5] [--drain-ms 300]
//!         [--long-flow-mb 10] [--seed 1]`

use pint_bench::Args;
use pint_netsim::sim::{SimConfig, Simulator};
use pint_netsim::telemetry::FixedOverhead;
use pint_netsim::topology::Topology;
use pint_netsim::transport::reno::Reno;
use pint_netsim::workload::{FlowSizeCdf, WorkloadConfig};

fn run(
    load: f64,
    overhead: u32,
    duration_ns: u64,
    drain_ns: u64,
    seed: u64,
    long_b: u64,
) -> (f64, f64, f64) {
    let topo = Topology::overhead_study();
    let mut sim = Simulator::new(
        topo,
        SimConfig {
            mss: 1460, // 1500B Ethernet MTU (§2)
            end_time_ns: duration_ns + drain_ns,
            buffer_bytes: 4_000_000,
            seed,
            ..SimConfig::default()
        },
        Box::new(|meta| Box::new(Reno::new(meta))),
        Box::new(FixedOverhead(overhead)),
    );
    sim.add_workload(&WorkloadConfig {
        cdf: FlowSizeCdf::web_search(),
        load,
        nic_bps: 10_000_000_000,
        duration_ns,
        seed: seed ^ 0xF1,
    });
    let rep = sim.run();
    let fct = rep.mean_fct_ns().unwrap_or(f64::NAN);
    let goodput = rep
        .mean_goodput_bps(long_b)
        .or_else(|| rep.mean_goodput_bps(1_000_000))
        .unwrap_or(f64::NAN);
    (fct, goodput, rep.completion_rate())
}

fn main() {
    let args = Args::parse(&["duration-ms", "drain-ms", "seeds", "long-flow-mb"]);
    let duration = args.get_u64("duration-ms", 30) * 1_000_000;
    let drain = args.get_u64("drain-ms", 400) * 1_000_000;
    let seeds = args.get_u64("seeds", 1);
    let long_b = args.get_u64("long-flow-mb", 10) * 1_000_000;

    println!("# Figs 1-2: normalized FCT / long-flow goodput vs per-packet overhead");
    println!("# (web search, TCP Reno, 64 hosts x 10G, 5-hop three-tier; paper Figs 1-2)");
    println!(
        "{:>5} {:>9} {:>13} {:>12} {:>17} {:>10}",
        "load", "overhead", "mean FCT [us]", "norm. FCT", "goodput [Gbps]", "norm. gput"
    );
    for &load in &[0.3, 0.7] {
        let mut base: Option<(f64, f64)> = None;
        for &ov in &[0u32, 28, 48, 68, 88, 108] {
            // Average over seeds: single-seed Reno runs are jumpy (RTO
            // timing on a handful of elephants dominates the mean FCT).
            let mut fct = 0.0;
            let mut gput = 0.0;
            let mut done = 0.0;
            for s in 0..seeds {
                let (f, g, d) = run(load, ov, duration, drain, s * 71 + 1, long_b);
                fct += f / seeds as f64;
                gput += g / seeds as f64;
                done += d / seeds as f64;
            }
            let (bf, bg) = *base.get_or_insert((fct, gput));
            println!(
                "{load:>5.1} {ov:>8}B {:>13.1} {:>12.3} {:>17.3} {:>10.3}   ({:.0}% flows done)",
                fct / 1e3,
                fct / bf,
                gput / 1e9,
                gput / bg,
                done * 100.0
            );
        }
        println!();
    }
}
