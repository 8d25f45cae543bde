//! Figure 10 — packets required to trace a flow's path (average and 99th
//! percentile) versus path length, on three topologies:
//!
//! * Kentucky Datalink proxy (753 switches, D = 59), PINT `d = 10`;
//! * US Carrier proxy (157 switches, D = 36), PINT `d = 10`;
//! * Fat tree K = 8 (D = 5), PINT `d = 5`.
//!
//! Algorithms: PINT 2×(b=8), PINT b=4, PINT b=1 versus PPM and AMS2
//! (m = 5, 6), both reservoir-improved, 16-bit marks.
//!
//! Paper reference points (Kentucky, k = 59): PINT 2×(b=8) ≈ 42 avg /
//! 94 p99; competitors ≥ 1–1.5K avg / 3.3–5K p99.
//!
//! Usage: `fig10_path_tracing [--runs 100] [--quick]`

use pint_bench::Args;
use pint_core::statictrace::{PathTracer, TracerConfig};
use pint_netsim::topology::Topology;
use pint_traceback::{Ams, Ppm};
use std::collections::HashMap;

struct Row {
    algo: &'static str,
    avg: f64,
    p99: u64,
}

type Adjacency = HashMap<u64, Vec<u64>>;

fn adjacency_of(topo: &Topology) -> Adjacency {
    let mut adj: Adjacency = HashMap::new();
    for l in topo.links() {
        if topo.kind(l.from) == pint_netsim::topology::NodeKind::Switch
            && topo.kind(l.to) == pint_netsim::topology::NodeKind::Switch
        {
            adj.entry(l.from as u64).or_default().push(l.to as u64);
        }
    }
    adj
}

fn pint_run(cfg: TracerConfig, path: &[u64], universe: &[u64], adj: &Adjacency, seed: u64) -> u64 {
    let tracer = PathTracer::new(cfg);
    let mut dec = tracer.decoder_with_topology(universe.to_vec(), path.len(), adj.clone());
    let mut pid = seed.wrapping_mul(0x9E37_79B9).wrapping_add(1);
    loop {
        pid = pid.wrapping_add(1);
        let digest = tracer.encode_path(pid, path);
        if dec.absorb(pid, &digest) {
            return dec.packets();
        }
        if dec.packets() > 5_000_000 {
            return dec.packets(); // safety valve
        }
    }
}

fn ppm_run(path: &[u64], universe: &[u64], seed: u64) -> u64 {
    let ppm = Ppm::new(seed);
    let mut dec = ppm.decoder(universe.to_vec(), path.len());
    let mut pid = seed.wrapping_mul(104_729).wrapping_add(1);
    loop {
        pid = pid.wrapping_add(1);
        if dec.absorb(&ppm.mark_path(pid, path)) {
            return dec.packets();
        }
    }
}

fn ams_run(path: &[u64], universe: &[u64], m: u32, seed: u64) -> u64 {
    let ams = Ams::new(seed, m);
    let mut dec = ams.decoder(universe.to_vec(), path.len());
    let mut pid = seed.wrapping_mul(104_729).wrapping_add(1);
    loop {
        pid = pid.wrapping_add(1);
        if dec.absorb(pid, &ams.mark_path(pid, path)) {
            return dec.packets();
        }
    }
}

fn stats(counts: &mut [u64]) -> (f64, u64) {
    counts.sort_unstable();
    let avg = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    (avg, counts[(counts.len() * 99) / 100])
}

fn evaluate(topo: &Topology, lengths: &[usize], d: usize, runs: u64) {
    let universe: Vec<u64> = topo.switches().iter().map(|&s| s as u64).collect();
    let adj = adjacency_of(topo);
    println!(
        "## {} — {} switches, diameter {}",
        topo.name(),
        universe.len(),
        topo.switch_diameter()
    );
    println!(
        "{:>5} {:>18} {:>10} {:>10}",
        "hops", "algorithm", "avg", "p99"
    );
    for &len in lengths {
        let Some(path_nodes) = topo.find_path_of_length(len, 42) else {
            continue;
        };
        let path: Vec<u64> = path_nodes.iter().map(|&n| n as u64).collect();
        let algos: Vec<(&'static str, Box<dyn Fn(u64) -> u64>)> = vec![
            ("PINT 2x(b=8)", {
                let (p, u, a) = (path.clone(), universe.clone(), adj.clone());
                Box::new(move |s| pint_run(TracerConfig::paper(8, 2, d), &p, &u, &a, s))
            }),
            ("PINT (b=4)", {
                let (p, u, a) = (path.clone(), universe.clone(), adj.clone());
                Box::new(move |s| pint_run(TracerConfig::paper(4, 1, d), &p, &u, &a, s))
            }),
            ("PINT (b=1)", {
                let (p, u, a) = (path.clone(), universe.clone(), adj.clone());
                Box::new(move |s| pint_run(TracerConfig::paper(1, 1, d), &p, &u, &a, s))
            }),
            ("AMS2 (m=5)", {
                let (p, u) = (path.clone(), universe.clone());
                Box::new(move |s| ams_run(&p, &u, 5, s))
            }),
            ("AMS2 (m=6)", {
                let (p, u) = (path.clone(), universe.clone());
                Box::new(move |s| ams_run(&p, &u, 6, s))
            }),
            ("PPM", {
                let (p, u) = (path.clone(), universe.clone());
                Box::new(move |s| ppm_run(&p, &u, s))
            }),
        ];
        for (name, run) in &algos {
            let mut counts: Vec<u64> = (0..runs).map(|r| run(r + 1)).collect();
            let (avg, p99) = stats(&mut counts);
            let row = Row {
                algo: name,
                avg,
                p99,
            };
            println!(
                "{len:>5} {:>18} {:>10.1} {:>10}",
                row.algo, row.avg, row.p99
            );
        }
    }
    println!();
}

fn main() {
    let args = Args::parse(&["quick", "runs"]);
    let quick = args.get_bool("quick");
    let runs = args.get_u64("runs", if quick { 30 } else { 100 });

    println!("# Fig 10: packets to decode a flow's path ({runs} runs per point)\n");

    let kentucky = Topology::isp_chain(753, 59, 10_000_000_000, 1);
    let lengths: Vec<usize> = if quick {
        vec![12, 36, 59]
    } else {
        vec![6, 12, 18, 24, 30, 36, 42, 48, 54, 59]
    };
    evaluate(&kentucky, &lengths, 10, runs);

    let uscarrier = Topology::isp_chain(157, 36, 10_000_000_000, 2);
    let lengths: Vec<usize> = if quick {
        vec![12, 24, 36]
    } else {
        vec![4, 8, 12, 16, 20, 24, 28, 32, 36]
    };
    evaluate(&uscarrier, &lengths, 10, runs);

    let fat = Topology::fat_tree(8, 100_000_000_000, 1_000);
    evaluate(&fat, &[2, 3, 4, 5], 5, runs);
}
