//! Appendix A.4 — on-the-fly routing-loop detection.
//!
//! Measures (a) the false-positive rate on loop-free paths for the paper's
//! configurations (T=1/b=15 → < 5·10⁻⁷ per packet; T=3/b=14 → ≈ 5·10⁻¹³)
//! plus coarser digests for contrast, and (b) detection latency (packets
//! until a loop is reported) for a real forwarding loop.
//!
//! Usage: `appa4_loop_detection [--packets 2000000]`

use pint_bench::Args;
use pint_core::loopdetect::{LoopDetector, LoopState, LoopVerdict};

fn walk(det: &LoopDetector, pid: u64, path: &[u64]) -> Option<usize> {
    let mut st = LoopState::default();
    for (i, &sw) in path.iter().enumerate() {
        if det.process(sw, pid, i + 1, &mut st) == LoopVerdict::Loop {
            return Some(i + 1);
        }
    }
    None
}

fn main() {
    let args = Args::parse(&["packets"]);
    let packets = args.get_u64("packets", 2_000_000);

    println!("# App A.4: loop detection — false positives on a 32-hop loop-free path");
    println!(
        "{:>4} {:>3} {:>10} {:>12} {:>14}",
        "b", "T", "overhead", "FPs", "rate/packet"
    );
    for &(b, t) in &[(15u32, 1u8), (14, 3), (8, 1), (8, 3), (4, 1), (4, 3)] {
        let det = LoopDetector::new(7, b, t);
        let path: Vec<u64> = (0..32).map(|i| 5000 + i).collect();
        let fp = (0..packets)
            .filter(|&pid| walk(&det, pid, &path).is_some())
            .count();
        println!(
            "{b:>4} {t:>3} {:>9}b {fp:>12} {:>14.2e}",
            det.overhead_bits(),
            fp as f64 / packets as f64
        );
    }

    println!("\n# Detection latency on a 3-switch forwarding loop (hops until report)");
    println!(
        "{:>4} {:>3} {:>12} {:>12}",
        "b", "T", "mean hops", "detected %"
    );
    for &(b, t) in &[(15u32, 1u8), (14, 3)] {
        let det = LoopDetector::new(11, b, t);
        let cycle = [9u64, 8, 7];
        let trials = 2_000u64;
        let mut hops = Vec::new();
        for pid in 0..trials {
            // 60 hops of looping = 20 cycles.
            let path: Vec<u64> = (0..60).map(|i| cycle[i % 3]).collect();
            if let Some(h) = walk(&det, pid, &path) {
                hops.push(h as f64);
            }
        }
        let detected = hops.len() as f64 / trials as f64 * 100.0;
        let mean = hops.iter().sum::<f64>() / hops.len().max(1) as f64;
        println!("{b:>4} {t:>3} {mean:>12.1} {detected:>11.1}%");
    }
}
