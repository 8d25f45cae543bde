//! Logarithm and exponentiation via lookup tables (paper Appendix C).
//!
//! "Computing logarithms and exponentiating: … we can use the switch's
//! TCAM to find the most significant set bit in `x`, denoted ℓ. … consider
//! the next `q` bits of `x` … then `log₂(x) = (ℓ−q) + log₂(x_q) +
//! log₂(1+ε)` with `ε < 2^−q`."
//!
//! [`LogExpTables`] holds the two `2^q`-entry tables a P4 program would
//! install (`log₂` of a `q`-bit mantissa, and `2^f` for a `q`-bit
//! fraction) and evaluates both functions using only operations a switch
//! supports: TCAM priority match (modeled by `leading_zeros`), shifts,
//! adds, and table lookups.

use crate::fixedpoint::Fx;

/// Lookup tables for `log₂` / `2^x` with `q`-bit precision.
#[derive(Debug, Clone)]
pub struct LogExpTables {
    q: u32,
    /// `log_table[i] = log₂(i)` in `frac_bits` fixed point, for
    /// `i ∈ [2^(q−1), 2^q)` (normalized mantissas; index by `i`).
    log_table: Vec<Fx>,
    /// `exp_table[f] = 2^(f / 2^q)` in `frac_bits` fixed point.
    exp_table: Vec<Fx>,
    frac_bits: u32,
}

impl LogExpTables {
    /// Builds tables with `q` mantissa bits (the paper suggests `q = 8`,
    /// i.e. 256-entry tables) and `frac_bits` of fixed-point precision.
    pub fn new(q: u32, frac_bits: u32) -> Self {
        assert!((2..=16).contains(&q), "q must be in 2..=16");
        let size = 1usize << q;
        let log_table = (0..size)
            .map(|i| {
                let v = if i == 0 { 0.0 } else { (i as f64).log2() };
                Fx::from_f64(v, frac_bits)
            })
            .collect();
        let exp_table = (0..size)
            .map(|f| Fx::from_f64((f as f64 / size as f64).exp2(), frac_bits))
            .collect();
        Self {
            q,
            log_table,
            exp_table,
            frac_bits,
        }
    }

    /// Mantissa bits `q`.
    pub fn q(&self) -> u32 {
        self.q
    }

    /// Fixed-point format of the outputs.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Total table memory in entries (what the switch SRAM would hold).
    pub fn entries(&self) -> usize {
        self.log_table.len() + self.exp_table.len()
    }

    /// The TCAM step: index of the most significant set bit of `x`
    /// (`x ≥ 1`).
    pub fn msb(x: u64) -> u32 {
        debug_assert!(x > 0);
        63 - x.leading_zeros()
    }

    /// Approximates `log₂(x)` for an integer `x ≥ 1`.
    ///
    /// The mantissa is rounded to the nearest `q`-bit value; the error
    /// stays within the paper's `log₂(1+2^−q) ≈ 1.44·2^−q` plus the table
    /// quantum. Rounding does not halve it: the rounded mantissa lies in
    /// `[2^(q−1), 2^q)`, so its relative error reaches `2^−q`.
    pub fn log2_int(&self, x: u64) -> Fx {
        assert!(x >= 1, "log of non-positive value");
        if x < (1 << self.q) {
            return self.log_table[x as usize];
        }
        let l = Self::msb(x);
        // Take the top q bits (the mantissa), i.e. x ≈ x_q · 2^(l+1−q),
        // rounding rather than truncating the dropped bits.
        let mut shift = l + 1 - self.q;
        let mut xq = ((x >> (shift - 1)) + 1) >> 1;
        if xq == (1 << self.q) {
            // Rounding overflowed the mantissa: renormalize.
            xq >>= 1;
            shift += 1;
        }
        let exponent = Fx::from_f64(f64::from(shift), self.frac_bits);
        exponent.add(self.log_table[xq as usize])
    }

    /// Approximates `log₂(v)` for a fixed-point `v > 0` by computing the
    /// integer logarithm of the raw value and subtracting the format bias.
    pub fn log2_fx(&self, v: Fx) -> Fx {
        assert!(v.raw() > 0, "log of non-positive value");
        let raw_log = self.log2_int(v.raw() as u64);
        raw_log.sub(Fx::from_f64(f64::from(v.frac_bits()), self.frac_bits))
    }

    /// [`Self::log2_fx`] with *stochastic* mantissa rounding driven by the
    /// uniform draw `u ∈ [0,1)`.
    ///
    /// Deterministic rounding makes iterated computations (like the HPCC
    /// EWMA of Appendix B) lock into spurious fixed points when the true
    /// per-step change is below the table resolution; stochastic rounding
    /// — the same `[·]_R` idea the paper uses for digest compression —
    /// makes the expectation track the true value.
    pub fn log2_fx_stochastic(&self, v: Fx, u: f64) -> Fx {
        assert!(v.raw() > 0, "log of non-positive value");
        let x = v.raw() as u64;
        let raw_log = if x < (1 << self.q) {
            self.log_table[x as usize]
        } else {
            let l = Self::msb(x);
            let mut shift = l + 1 - self.q;
            let rem = x & ((1u64 << shift) - 1);
            let frac = rem as f64 / (1u64 << shift) as f64;
            let mut xq = (x >> shift) + u64::from(u < frac);
            if xq == (1 << self.q) {
                xq >>= 1;
                shift += 1;
            }
            Fx::from_f64(f64::from(shift), self.frac_bits).add(self.log_table[xq as usize])
        };
        raw_log.sub(Fx::from_f64(f64::from(v.frac_bits()), self.frac_bits))
    }

    /// Approximates `2^x` for a fixed-point exponent `x` (positive or
    /// negative), returning a value in `out_frac_bits` format.
    ///
    /// Decomposes `x = n + f` with integer `n` and fraction `f ∈ [0,1)`;
    /// `2^f` comes from the table, `2^n` is a shift.
    pub fn exp2_fx(&self, x: Fx, out_frac_bits: u32) -> Fx {
        let fb = x.frac_bits();
        let raw = x.raw();
        let mut n = raw >> fb; // floor division: works for negatives too
        let frac = raw - (n << fb); // in [0, 2^fb)
                                    // Reduce the fraction to q bits of index, round to nearest.
        let mut idx = if fb >= self.q {
            let drop = fb - self.q;
            if drop == 0 {
                frac as usize
            } else {
                (((frac >> (drop - 1)) + 1) >> 1) as usize
            }
        } else {
            (frac << (self.q - fb)) as usize
        };
        if idx == self.exp_table.len() {
            idx = 0;
            n += 1;
        }
        let base = self.exp_table[idx]; // 2^f, in self.frac_bits format
        Self::scale_exp(base, n, self.frac_bits, out_frac_bits)
    }

    /// [`Self::exp2_fx`] with stochastic index rounding (see
    /// [`Self::log2_fx_stochastic`] for the rationale).
    pub fn exp2_fx_stochastic(&self, x: Fx, out_frac_bits: u32, u: f64) -> Fx {
        let fb = x.frac_bits();
        let raw = x.raw();
        let mut n = raw >> fb;
        let frac = raw - (n << fb);
        let mut idx = if fb >= self.q {
            let drop = fb - self.q;
            let base = (frac >> drop) as usize;
            let rem = frac & ((1i64 << drop) - 1);
            let f = rem as f64 / (1i64 << drop) as f64;
            base + usize::from(u < f)
        } else {
            (frac << (self.q - fb)) as usize
        };
        if idx == self.exp_table.len() {
            idx = 0;
            n += 1;
        }
        Self::scale_exp(self.exp_table[idx], n, self.frac_bits, out_frac_bits)
    }

    /// Result = base · 2^n, rescaled from `frac_bits` to `out_frac_bits`.
    fn scale_exp(base: Fx, n: i64, frac_bits: u32, out_frac_bits: u32) -> Fx {
        let shift = n as i32 + out_frac_bits as i32 - frac_bits as i32;
        let raw_out = if shift >= 0 {
            if shift >= 62 {
                i64::MAX
            } else {
                base.raw() << shift
            }
        } else if -shift >= 63 {
            0
        } else {
            // Round to nearest on the downshift.
            (base.raw() + (1 << (-shift - 1))) >> (-shift)
        };
        Fx::from_raw(raw_out, out_frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msb_positions() {
        assert_eq!(LogExpTables::msb(1), 0);
        assert_eq!(LogExpTables::msb(2), 1);
        assert_eq!(LogExpTables::msb(255), 7);
        assert_eq!(LogExpTables::msb(256), 8);
        assert_eq!(LogExpTables::msb(u64::MAX), 63);
    }

    #[test]
    fn log2_small_values_exact_lookup() {
        let t = LogExpTables::new(8, 16);
        for x in [1u64, 2, 3, 100, 255] {
            let got = t.log2_int(x).to_f64();
            let want = (x as f64).log2();
            assert!((got - want).abs() < 1e-3, "x={x}: {got} vs {want}");
        }
    }

    #[test]
    fn log2_large_values_bounded_error() {
        // Paper: error ≤ 1.44·2^-q ≈ 0.0056 for q=8.
        let t = LogExpTables::new(8, 16);
        for x in [300u64, 1_000, 65_535, 1 << 20, (1 << 40) + 12345] {
            let got = t.log2_int(x).to_f64();
            let want = (x as f64).log2();
            assert!((got - want).abs() < 0.006, "x={x}: {got} vs {want}");
        }
    }

    #[test]
    fn higher_q_is_more_accurate() {
        // Average the error over many inputs: one specific x can happen to
        // land near a table point even for coarse tables.
        let coarse = LogExpTables::new(4, 16);
        let fine = LogExpTables::new(12, 16);
        let mut e_coarse = 0.0;
        let mut e_fine = 0.0;
        let mut x = 1u64 << 30;
        for i in 0..1000u64 {
            x = x.wrapping_add(1_000_003 * (i + 1));
            let want = (x as f64).log2();
            e_coarse += (coarse.log2_int(x).to_f64() - want).abs();
            e_fine += (fine.log2_int(x).to_f64() - want).abs();
        }
        assert!(e_fine < e_coarse / 10.0, "fine {e_fine} coarse {e_coarse}");
    }

    #[test]
    fn exp2_positive_and_negative() {
        let t = LogExpTables::new(8, 16);
        for &x in &[0.0, 0.5, 1.0, 3.25, -1.0, -2.75, 10.1] {
            let got = t.exp2_fx(Fx::from_f64(x, 16), 16).to_f64();
            let want = x.exp2();
            let rel = (got - want).abs() / want.max(1e-9);
            assert!(rel < 0.01, "2^{x}: {got} vs {want} (rel {rel})");
        }
    }

    #[test]
    fn log_then_exp_roundtrip() {
        // Paper: "the errors of the different approximations compound".
        // With q = 8 the roundtrip must stay within ~1%.
        let t = LogExpTables::new(8, 16);
        for x in [7u64, 1000, 123_456, 10_000_000] {
            let log = t.log2_int(x);
            let back = t.exp2_fx(log, 8).to_f64();
            let rel = (back - x as f64).abs() / x as f64;
            assert!(rel < 0.012, "x={x}: roundtrip {back} (rel {rel})");
        }
    }

    #[test]
    fn log2_fx_handles_fractions() {
        let t = LogExpTables::new(8, 16);
        let v = Fx::from_f64(0.125, 16); // log2 = -3
        let got = t.log2_fx(v).to_f64();
        assert!((got + 3.0).abs() < 0.01, "{got}");
    }

    #[test]
    fn table_memory_is_small() {
        // q=8 → two 256-entry tables: trivially fits switch SRAM.
        let t = LogExpTables::new(8, 16);
        assert_eq!(t.entries(), 512);
    }
}
