//! Appendix C — accuracy of the data-plane arithmetic approximations.
//!
//! Prints the empirical error of `log₂`, `2^x`, multiply and divide as a
//! function of the lookup-table precision `q`, against the paper's bound
//! `log₂(1+2^−q) ≈ 1.44·2^−q`. Rounding to nearest does not halve it: the
//! rounded mantissa lies in `[2^(q−1), 2^q)`. Exits 1 if the maximum at
//! any `q` exceeds the bound by more than one table quantum, `2^−20`.
//!
//! Usage: `appc_fixedpoint [--samples 20000]`

use pint_bench::Args;
use pint_dataplane::{ApproxAlu, Fx, LogExpTables};

fn main() {
    let args = Args::parse(&["samples"]);
    let n = args.get_u64("samples", 20_000);
    let mut over_bound = Vec::new();

    println!("# App C: data-plane approximate arithmetic error vs table precision q");
    println!(
        "{:>3} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "q", "log2 max", "paper bound", "exp2 rel", "mul rel", "div rel"
    );
    for &q in &[4u32, 6, 8, 10, 12] {
        let t = LogExpTables::new(q, 20);
        let alu = ApproxAlu::new(q);
        let mut log_max = 0.0f64;
        let mut exp_sum = 0.0f64;
        let mut mul_sum = 0.0f64;
        let mut div_sum = 0.0f64;
        let mut x = 0x1234_5678u64;
        for i in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 20) % (1 << 30) + 256;
            let b = (x >> 5) % 100_000 + 1;
            // log2
            let err = (t.log2_int(a).to_f64() - (a as f64).log2()).abs();
            log_max = log_max.max(err);
            // exp2 over [-8, 8)
            let e = (i as f64 / n as f64) * 16.0 - 8.0;
            let got = t.exp2_fx(Fx::from_f64(e, 16), 16).to_f64();
            exp_sum += (got - e.exp2()).abs() / e.exp2();
            // mul / div
            mul_sum += (alu.mul_int(a, b) as f64 - (a * b) as f64).abs() / (a * b) as f64;
            div_sum += (alu.div_int(a, b, 20).to_f64() - a as f64 / b as f64).abs()
                / (a as f64 / b as f64);
        }
        let bound = (1.0 + 2.0f64.powi(-(q as i32))).log2();
        if log_max > bound + 2.0f64.powi(-20) {
            over_bound.push(q);
        }
        println!(
            "{q:>3} {log_max:>12.2e} {bound:>12.2e} {:>12.2e} {:>12.2e} {:>12.2e}",
            exp_sum / n as f64,
            mul_sum / n as f64,
            div_sum / n as f64
        );
    }
    println!("\n# Memory: two 2^q-entry tables; q=8 → 512 entries (fits trivially in SRAM).");
    if !over_bound.is_empty() {
        eprintln!("log2 error exceeds log2(1+2^-q) + 2^-20 at q = {over_bound:?}");
        std::process::exit(1);
    }
}
