//! Theorem 3 — the multi-layer scheme decodes a k-block message in
//! `k·log log* k·(1 + o(1))` packets, versus the Baseline's `k·ln k`.
//!
//! Sweeps k and prints measured means next to the two asymptotics, plus
//! an LNC column (`≈ k + log₂ k`, §4.2's comparison point).
//!
//! Usage: `thm3_scaling [--runs 200]`

use pint_bench::Args;
use pint_core::coding::perfect::BlockDecoder;
use pint_core::coding::{ln_star, LncDecoder, SchemeConfig};
use pint_core::hash::HashFamily;

fn mean_packets(scheme: &SchemeConfig, k: usize, runs: u64) -> f64 {
    let mut total = 0u64;
    for r in 0..runs {
        let fam = HashFamily::new(r * 31 + 1, 0);
        let mut dec = BlockDecoder::new(scheme.clone(), fam, k);
        let mut pid = r * 1_000_003;
        while !dec.is_complete() {
            pid += 1;
            dec.absorb(pid);
        }
        total += dec.packets();
    }
    total as f64 / runs as f64
}

fn mean_lnc(k: usize, runs: u64) -> f64 {
    let mut total = 0u64;
    for r in 0..runs {
        let mut dec = LncDecoder::new(HashFamily::new(r * 17 + 3, 0), k);
        let mut pid = r * 999_983;
        while !dec.is_complete() {
            pid += 1;
            dec.absorb(pid);
        }
        total += dec.packets();
    }
    total as f64 / runs as f64
}

fn main() {
    let args = Args::parse(&["runs"]);
    let runs = args.get_u64("runs", 200);
    println!("# Theorem 3: packets to decode vs k ({runs} runs)");
    println!(
        "{:>4} {:>10} {:>12} {:>8} {:>10} {:>14} {:>12}",
        "k", "baseline", "multilayer", "LNC", "k·ln k", "k·lnln*k+2k", "ML/k"
    );
    for &k in &[8usize, 16, 25, 32, 48, 59, 80, 100, 128] {
        let base = mean_packets(&SchemeConfig::baseline(), k, runs);
        let ml = mean_packets(&SchemeConfig::multilayer(10.min(k)), k, runs);
        let lnc = mean_lnc(k, runs);
        let kf = k as f64;
        let klnk = kf * kf.ln();
        let thm = kf * ((ln_star(kf) as f64).ln().max(0.1)) + 2.0 * kf;
        println!(
            "{k:>4} {base:>10.1} {ml:>12.1} {lnc:>8.1} {klnk:>10.1} {thm:>14.1} {:>12.2}",
            ml / kf
        );
    }
    println!("\n# Expect: multilayer/k stays near-constant while baseline/k grows like ln k.");
}
