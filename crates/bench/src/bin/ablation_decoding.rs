//! Ablation study — the design choices behind PINT's decoder performance.
//!
//! Four ablations, each isolating one §4 technique:
//!
//! 1. **Multiple instantiations** (§4.2): a 16-bit budget spent as
//!    1×(b=16) vs 2×(b=8) vs 4×(b=4).
//! 2. **Topology-aware inference**: candidate pruning by graph adjacency
//!    on a chain-like ISP path, vs a graph-blind decoder.
//! 3. **Hashing vs fragmentation** (§4.2): the two ways to fit 32-bit
//!    switch IDs into an 8-bit budget.
//! 4. **Reservoir-improved vs classic marking** (the \[63\] improvement the
//!    paper applies to the PPM/AMS baselines).
//!
//! Usage: `ablation_decoding [--runs 100]`

use pint_bench::Args;
use pint_core::coding::fragment::FragmentedAggregation;
use pint_core::coding::{FragmentCodec, SchemeConfig};
use pint_core::statictrace::{PathTracer, TracerConfig};
use pint_netsim::topology::{NodeKind, Topology};
use pint_traceback::Ppm;
use std::collections::HashMap;

fn pint_mean(
    cfg: TracerConfig,
    path: &[u64],
    universe: &[u64],
    adj: Option<&HashMap<u64, Vec<u64>>>,
    runs: u64,
) -> f64 {
    let mut total = 0u64;
    for r in 0..runs {
        let tracer = PathTracer::new(cfg.clone());
        let mut dec = match adj {
            Some(a) => tracer.decoder_with_topology(universe.to_vec(), path.len(), a.clone()),
            None => tracer.decoder(universe.to_vec(), path.len()),
        };
        let mut pid = r.wrapping_mul(2_000_003) + 1;
        loop {
            pid += 1;
            if dec.absorb(pid, &tracer.encode_path(pid, path)) {
                total += dec.packets();
                break;
            }
        }
    }
    total as f64 / runs as f64
}

fn main() {
    let args = Args::parse(&["runs"]);
    let runs = args.get_u64("runs", 100);

    // Shared setting: 753-switch ISP proxy, 25-hop path, d = 10.
    let topo = Topology::isp_chain(753, 59, 10_000_000_000, 1);
    let universe: Vec<u64> = topo.switches().iter().map(|&s| s as u64).collect();
    let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
    for l in topo.links() {
        if topo.kind(l.from) == NodeKind::Switch && topo.kind(l.to) == NodeKind::Switch {
            adj.entry(l.from as u64).or_default().push(l.to as u64);
        }
    }
    let path: Vec<u64> = topo
        .find_path_of_length(25, 42)
        .expect("path")
        .iter()
        .map(|&n| n as u64)
        .collect();

    println!("# Ablation 1: how to spend 16 bits (k=25, ISP, topology-aware, {runs} runs)");
    for (label, bits, inst) in [
        ("1x(b=16)", 16u32, 1usize),
        ("2x(b=8)", 8, 2),
        ("4x(b=4)", 4, 4),
    ] {
        let mean = pint_mean(
            TracerConfig::paper(bits, inst, 10),
            &path,
            &universe,
            Some(&adj),
            runs,
        );
        println!("  {label:<10} {mean:>8.1} packets");
    }

    println!("\n# Ablation 2: topology knowledge at the Inference Module (2x(b=8), k=25)");
    for (label, with_adj) in [("graph-blind", false), ("topology-aware", true)] {
        let mean = pint_mean(
            TracerConfig::paper(8, 2, 10),
            &path,
            &universe,
            with_adj.then_some(&adj),
            runs,
        );
        println!("  {label:<15} {mean:>8.1} packets");
    }

    println!("\n# Ablation 3: hashing vs fragmentation for 32-bit IDs in 8 bits (k=10)");
    let short_path: Vec<u64> = path.iter().take(10).copied().collect();
    let hash_mean = pint_mean(
        TracerConfig::paper(8, 1, 10),
        &short_path,
        &universe,
        None,
        runs,
    );
    let mut frag_total = 0u64;
    for r in 0..runs {
        let codec = FragmentCodec::new(32, 8, r + 9);
        let mut agg = FragmentedAggregation::new(codec, SchemeConfig::multilayer(10), r + 3, 10);
        let mut pid = r * 900_001;
        while !agg.simulate_packet(pid, &short_path) {
            pid += 1;
        }
        frag_total += pid - r * 900_001;
    }
    println!("  hashing        {hash_mean:>8.1} packets (restricted value set, §4.2)");
    println!(
        "  fragmentation  {:>8.1} packets (k·F = 40 virtual hops)",
        frag_total as f64 / runs as f64
    );

    println!("\n# Ablation 4: reservoir-improved vs classic PPM marking (k=25)");
    for (label, classic) in [
        ("reservoir (as evaluated)", false),
        ("classic p=1/25", true),
    ] {
        let mut total = 0u64;
        for r in 0..runs.min(30) {
            let ppm = Ppm::new(r + 1);
            let mut dec = ppm.decoder(universe.clone(), path.len());
            let mut pid = r * 700_001;
            let mut n = 0u64;
            loop {
                pid += 1;
                n += 1;
                let mark = if classic {
                    ppm.mark_path_classic(pid, &path, 1.0 / 25.0)
                } else {
                    ppm.mark_path(pid, &path)
                };
                if dec.absorb(&mark) || n > 3_000_000 {
                    break;
                }
            }
            total += n;
        }
        println!(
            "  {label:<26} {:>10.0} packets",
            total as f64 / runs.min(30) as f64
        );
    }
}
