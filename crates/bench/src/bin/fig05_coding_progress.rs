//! Figure 5 — progress of the distributed coding schemes (k = d = 25).
//!
//! (a) expected number of missing blocks vs packets received, and
//! (b) probability that the entire message is decoded, for the Baseline
//! (reservoir), XOR (p = 1/d) and Hybrid (interleaved) schemes.
//!
//! Paper reference points: Baseline median 89 / p99 189 packets; Hybrid
//! median 41 / p99 68 packets; XOR decodes few hops at first but finishes
//! with a similar count to Baseline.
//!
//! Usage: `fig05_coding_progress [--runs 1000] [--k 25]`

use pint_bench::Args;
use pint_core::coding::perfect::BlockDecoder;
use pint_core::coding::SchemeConfig;
use pint_core::hash::HashFamily;

fn main() {
    let args = Args::parse(&["runs", "k"]);
    let runs = args.get_u64("runs", 1000);
    let k = args.get_u64("k", 25) as usize;
    let d = k;
    let max_packets = 200usize;
    let step = 10usize;

    let schemes: Vec<(&str, SchemeConfig)> = vec![
        ("Baseline", SchemeConfig::baseline()),
        ("XOR", SchemeConfig::pure_xor(1.0 / d as f64)),
        ("Hybrid", SchemeConfig::hybrid(d)),
    ];

    println!("# Fig 5a: E[missing hops] and Fig 5b: decode probability, k=d={k}, {runs} runs");
    println!(
        "{:<8} {:>8} {:>14} {:>12}",
        "scheme", "packets", "E[missing]", "P[decoded]"
    );
    let mut decode_counts: Vec<(String, Vec<u64>)> = Vec::new();
    for (name, scheme) in &schemes {
        // missing[i] = sum over runs of missing blocks after i packets.
        let mut missing = vec![0u64; max_packets / step + 1];
        let mut decoded = vec![0u64; max_packets / step + 1];
        let mut completions = Vec::with_capacity(runs as usize);
        for r in 0..runs {
            let fam = HashFamily::new(0xF165 + r * 7919, 0);
            let mut dec = BlockDecoder::new(scheme.clone(), fam, k);
            let mut pid = r * 1_000_003;
            let mut completed_at = None;
            for i in 1..=max_packets {
                pid += 1;
                dec.absorb(pid);
                if dec.is_complete() && completed_at.is_none() {
                    completed_at = Some(i as u64);
                }
                if i % step == 0 {
                    missing[i / step] += dec.missing() as u64;
                    decoded[i / step] += u64::from(dec.is_complete());
                }
            }
            // Run to completion for the percentile stats.
            while !dec.is_complete() {
                pid += 1;
                dec.absorb(pid);
            }
            completions.push(completed_at.unwrap_or(dec.packets()));
        }
        for i in 1..missing.len() {
            println!(
                "{:<8} {:>8} {:>14.2} {:>12.3}",
                name,
                i * step,
                missing[i] as f64 / runs as f64,
                decoded[i] as f64 / runs as f64
            );
        }
        completions.sort_unstable();
        decode_counts.push((name.to_string(), completions));
    }
    println!("\n# Packets to full decode (paper: Baseline median 89/p99 189; Hybrid 41/68)");
    println!("{:<8} {:>8} {:>8} {:>8}", "scheme", "mean", "median", "p99");
    for (name, c) in &decode_counts {
        let mean = c.iter().sum::<u64>() as f64 / c.len() as f64;
        println!(
            "{:<8} {:>8.1} {:>8} {:>8}",
            name,
            mean,
            c[c.len() / 2],
            c[(c.len() * 99) / 100]
        );
    }
}
