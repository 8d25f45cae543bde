//! Dynamic per-flow aggregation (paper §4.1, Example 1).
//!
//! Collects statistics of values that vary across packets — e.g. the median
//! or tail latency of a (flow, switch) pair. The Encoding Module runs a
//! distributed reservoir-sampling process driven by the global hash
//! `g(pid, i) ≤ 1/i`, so each packet carries the value of one uniformly
//! chosen hop. The Recording Module recomputes the winning hop offline and
//! feeds the (decompressed) value into a per-hop store: either every sample
//! (plain `PINT`) or a KLL sketch (`PINT_S`, bounding per-flow space per
//! Theorem 1).
//!
//! Values are compressed to the query's bit budget with the multiplicative
//! codec of §4.3 before being written onto the digest.

use crate::approx::MultiplicativeCodec;
use crate::hash::HashFamily;
use crate::value::Digest;
use pint_sketches::{ExactQuantiles, KllSketch, SlidingKll};
use std::borrow::Cow;

/// Switch-side encoder for dynamic per-flow aggregation.
///
/// In P4 this is four pipeline stages: compute the value (e.g. hop
/// latency), compress it, compute `g`, and conditionally overwrite (§5).
#[derive(Debug, Clone)]
pub struct DynamicAggregator {
    family: HashFamily,
    codec: MultiplicativeCodec,
    bits: u32,
}

impl DynamicAggregator {
    /// Creates an aggregator with bit budget `bits`, compressing values in
    /// `[v_min, v_max]` multiplicatively.
    ///
    /// The codec's ε is derived from the budget: with `bits` bits we can
    /// distinguish `2^bits − 1` levels over the value range, i.e.
    /// `ε = (v_max/v_min)^(1/(2·(2^bits−2))) − 1`.
    pub fn new(seed: u64, bits: u32, v_min: f64, v_max: f64) -> Self {
        assert!((1..=32).contains(&bits));
        let levels = (1u64 << bits) - 2; // code 0 reserved for zero
        let eps = ((v_max / v_min).ln() / (2.0 * levels as f64)).exp_m1();
        Self {
            family: HashFamily::new(seed, 0),
            codec: MultiplicativeCodec::new(eps.max(1e-9), v_min, v_max),
            bits,
        }
    }

    /// The value codec in use.
    pub fn codec(&self) -> &MultiplicativeCodec {
        &self.codec
    }

    /// The per-packet bit budget.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Encoding Module at hop `hop` (1-based): overwrite the digest lane
    /// `lane` with the compressed value iff the reservoir test fires.
    pub fn encode_hop(&self, pid: u64, hop: usize, value: f64, digest: &mut Digest, lane: usize) {
        if self.family.reservoir_writes(pid, hop) {
            // Randomized rounding driven by a hash of (pid, hop) so the
            // expectation is unbiased but fully reproducible.
            let u = self.family.h.unit2(pid, hop as u64);
            digest.set(lane, u64::from(self.codec.encode_randomized(value, u)));
        }
    }

    /// The hop whose value packet `pid` carries over a `k`-hop path.
    pub fn winner(&self, pid: u64, k: usize) -> usize {
        self.family.reservoir_winner(pid, k)
    }

    /// Decompresses a digest lane back to an approximate value.
    pub fn decode(&self, lane_value: u64) -> f64 {
        self.codec.decode(lane_value as u32)
    }
}

/// Per-hop storage backend for recorded samples.
#[derive(Debug, Clone)]
pub enum HopStore {
    /// Keep every sample (plain `PINT` in Fig. 9).
    Exact(ExactQuantiles),
    /// Keep a KLL sketch (`PINT_S` in Fig. 9).
    Sketch(KllSketch),
    /// Keep a sliding-window sketch reflecting only the most recent
    /// samples (§4.1: "we can use a sliding-window sketch … to reflect
    /// only the most recent measurements").
    Sliding(SlidingKll),
}

impl HopStore {
    fn update(&mut self, v: u64) {
        match self {
            HopStore::Exact(e) => e.update(v),
            HopStore::Sketch(s) => s.update(v),
            HopStore::Sliding(s) => s.update(v),
        }
    }

    fn quantile(&mut self, phi: f64) -> Option<u64> {
        match self {
            HopStore::Exact(e) => e.quantile(phi),
            HopStore::Sketch(s) => s.quantile(phi),
            HopStore::Sliding(s) => s.quantile(phi),
        }
    }

    fn count(&self) -> u64 {
        match self {
            HopStore::Exact(e) => e.count() as u64,
            HopStore::Sketch(s) => s.count(),
            HopStore::Sliding(s) => s.covered_items(),
        }
    }

    fn stored(&self) -> usize {
        match self {
            HopStore::Exact(e) => e.count(),
            HopStore::Sketch(s) => s.stored_items(),
            HopStore::Sliding(s) => s.stored_items(),
        }
    }

    /// The store's contents as a mergeable KLL sketch (code space).
    ///
    /// `Exact` stores replay their samples into a fresh sketch. `Sliding`
    /// stores are approximated by a quantile grid over the window (the
    /// window summary does not retain raw items); each grid point is
    /// inserted with weight `covered/m`, so the store contributes its
    /// true item count to cross-flow merges. `Sketch` stores are lent
    /// as they are, so reading them copies nothing.
    fn to_kll(&self) -> Cow<'_, KllSketch> {
        match self {
            HopStore::Exact(e) => {
                let mut sk = KllSketch::with_seed(200, 0x51AB_0001);
                for &v in e.values() {
                    sk.update(v);
                }
                Cow::Owned(sk)
            }
            HopStore::Sketch(s) => Cow::Borrowed(s),
            HopStore::Sliding(s) => {
                let mut sk = KllSketch::with_seed(200, 0x51AB_0002);
                let covered = s.covered_items();
                let m = (covered as usize).min(256);
                for i in 0..m {
                    let phi = (i as f64 + 0.5) / m as f64;
                    if let Some(v) = s.quantile(phi) {
                        // Spread the remainder over the first points so
                        // total weight equals `covered` exactly.
                        let w = covered / m as u64 + u64::from((i as u64) < covered % m as u64);
                        sk.update_weighted(v, w);
                    }
                }
                Cow::Owned(sk)
            }
        }
    }
}

/// Recording + Inference module for one flow: splits arriving digests by
/// winning hop and answers per-hop quantile queries.
#[derive(Debug, Clone)]
pub struct DynamicRecorder {
    agg: DynamicAggregator,
    pub(crate) k: usize,
    pub(crate) hops: Vec<HopStore>,
    pub(crate) packets: u64,
}

impl DynamicRecorder {
    /// Creates a recorder storing every sample per hop.
    pub fn new_exact(agg: DynamicAggregator, k: usize) -> Self {
        let hops = (0..=k)
            .map(|_| HopStore::Exact(ExactQuantiles::new()))
            .collect();
        Self {
            agg,
            k,
            hops,
            packets: 0,
        }
    }

    /// Creates a recorder with a per-hop KLL sketch of roughly
    /// `bytes_per_hop` bytes (the paper splits the per-flow space budget
    /// evenly between the k sketches, §4.1). A `b`-bit digest occupies
    /// `b/8` bytes, so e.g. 100 bytes hold 100 digests at `b = 8` and 200
    /// at `b = 4`.
    pub fn new_sketched(agg: DynamicAggregator, k: usize, bytes_per_hop: usize) -> Self {
        let items = (bytes_per_hop * 8) / (agg.bits() as usize).max(1);
        let hops = (0..=k)
            .map(|_| HopStore::Sketch(KllSketch::with_item_budget(items.max(6))))
            .collect();
        Self {
            agg,
            k,
            hops,
            packets: 0,
        }
    }

    /// Creates a recorder whose per-hop state covers only the most recent
    /// `window` samples (chunked KLL; §4.1's sliding-window variant).
    pub fn new_sliding(agg: DynamicAggregator, k: usize, window: u64) -> Self {
        let hops = (0..=k)
            .map(|_| HopStore::Sliding(SlidingKll::new(window.max(16), 8, 64)))
            .collect();
        Self {
            agg,
            k,
            hops,
            packets: 0,
        }
    }

    /// Absorbs an extracted digest lane for packet `pid`.
    pub fn record(&mut self, pid: u64, digest: &Digest, lane: usize) {
        self.packets += 1;
        let hop = self.agg.winner(pid, self.k);
        self.hops[hop].update(digest.get(lane));
    }

    /// Estimated ϕ-quantile of the value stream observed at `hop`
    /// (1-based), decompressed to value space.
    pub fn quantile(&mut self, hop: usize, phi: f64) -> Option<f64> {
        assert!((1..=self.k).contains(&hop));
        let code = self.hops[hop].quantile(phi)?;
        Some(self.agg.decode(code))
    }

    /// Number of samples recorded for `hop`.
    pub fn samples_at(&self, hop: usize) -> u64 {
        self.hops[hop].count()
    }

    /// Total packets recorded.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Path length this recorder was built for.
    pub fn path_len(&self) -> usize {
        self.k
    }

    /// The aggregator (and therefore codec) this recorder decodes with.
    pub fn aggregator(&self) -> &DynamicAggregator {
        &self.agg
    }

    /// Total samples currently retained across all hop stores.
    pub fn stored_items(&self) -> usize {
        self.hops.iter().map(|h| h.stored()).sum()
    }

    /// Hop `hop`'s store as a mergeable *code-space* KLL sketch (decode
    /// merged quantiles with [`DynamicAggregator::decode`]). Borrowed
    /// for sketched recorders; built for exact and sliding ones.
    pub fn hop_sketch(&self, hop: usize) -> Cow<'_, KllSketch> {
        self.hops[hop].to_kll()
    }
}

/// Recording + Inference for the *frequent values* dynamic aggregation
/// (Theorem 2 / Appendix A.1): for each hop, report every value appearing
/// in at least a θ-fraction of that hop's stream, using one Space-Saving
/// summary per hop.
///
/// Values are carried verbatim on the digest (no codec) — the use case is
/// small categorical values such as egress port IDs or DSCP marks, which
/// fit the bit budget directly.
#[derive(Debug, Clone)]
pub struct FrequentValuesRecorder {
    family: HashFamily,
    pub(crate) k: usize,
    pub(crate) hops: Vec<pint_sketches::SpaceSaving>,
    pub(crate) packets: u64,
}

impl FrequentValuesRecorder {
    /// Creates a recorder with `counters` Space-Saving entries per hop
    /// (`counters = ⌈1/ε⌉` gives the Theorem 2 guarantee).
    pub fn new(seed: u64, k: usize, counters: usize) -> Self {
        Self {
            family: HashFamily::new(seed, 0),
            k,
            hops: (0..=k)
                .map(|_| pint_sketches::SpaceSaving::new(counters))
                .collect(),
            packets: 0,
        }
    }

    /// Switch-side rule (identical to the quantile query): hop `hop`
    /// overwrites lane `lane` with its raw value iff the reservoir fires.
    pub fn encode_hop(&self, pid: u64, hop: usize, value: u64, digest: &mut Digest, lane: usize) {
        if self.family.reservoir_writes(pid, hop) {
            digest.set(lane, value);
        }
    }

    /// Sink side: attribute the digest to the winning hop.
    pub fn record(&mut self, pid: u64, digest: &Digest, lane: usize) {
        self.packets += 1;
        let hop = self.family.reservoir_winner(pid, self.k);
        self.hops[hop].update(digest.get(lane));
    }

    /// Values estimated to appear in ≥ `theta` of hop `hop`'s stream,
    /// with their estimated fractions, sorted by decreasing frequency.
    pub fn frequent(&self, hop: usize, theta: f64) -> Vec<(u64, f64)> {
        assert!((1..=self.k).contains(&hop));
        let n = self.hops[hop].count().max(1) as f64;
        self.hops[hop]
            .heavy_hitters(theta)
            .into_iter()
            .map(|(v, c)| (v, c as f64 / n))
            .collect()
    }

    /// Samples recorded at `hop`.
    pub fn samples_at(&self, hop: usize) -> u64 {
        self.hops[hop].count()
    }

    /// Total packets recorded.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Path length this recorder was built for.
    pub fn path_len(&self) -> usize {
        self.k
    }

    /// Space-Saving counters currently allocated across all hops.
    pub fn stored_counters(&self) -> usize {
        self.hops.iter().map(|h| h.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Simulates a flow of `n` packets over a `k`-hop path where hop `i`'s
    /// latency is drawn from a per-hop distribution; returns (recorder,
    /// ground truth per hop).
    fn simulate(
        n: u64,
        k: usize,
        bits: u32,
        sketch_bytes: Option<usize>,
        seed: u64,
    ) -> (DynamicRecorder, Vec<ExactQuantiles>) {
        let agg = DynamicAggregator::new(seed, bits, 100.0, 1.0e7);
        let mut rec = match sketch_bytes {
            None => DynamicRecorder::new_exact(agg.clone(), k),
            Some(b) => DynamicRecorder::new_sketched(agg.clone(), k, b),
        };
        let mut truth: Vec<ExactQuantiles> = (0..=k).map(|_| ExactQuantiles::new()).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for pid in 0..n {
            let mut digest = Digest::new(1);
            for hop in 1..=k {
                // Lognormal-ish hop latency: base per hop + occasional spike.
                let base = 500.0 * hop as f64;
                let v = if rng.gen_bool(0.05) {
                    base * rng.gen_range(10.0..50.0)
                } else {
                    base * rng.gen_range(0.8..1.2)
                };
                truth[hop].update(v as u64);
                agg.encode_hop(pid, hop, v, &mut digest, 0);
            }
            rec.record(pid, &digest, 0);
        }
        (rec, truth)
    }

    fn rel_err(est: f64, truth: f64) -> f64 {
        (est - truth).abs() / truth
    }

    #[test]
    fn samples_spread_evenly_over_hops() {
        let k = 5;
        let (rec, _) = simulate(10_000, k, 8, None, 1);
        for hop in 1..=k {
            let s = rec.samples_at(hop) as f64;
            let expect = 10_000.0 / k as f64;
            assert!(
                (s - expect).abs() < expect * 0.15,
                "hop {hop} got {s} samples"
            );
        }
    }

    #[test]
    fn median_estimation_accuracy() {
        let k = 5;
        let (mut rec, mut truth) = simulate(20_000, k, 8, None, 2);
        for hop in 1..=k {
            let est = rec.quantile(hop, 0.5).unwrap();
            let tru = truth[hop].quantile(0.5).unwrap() as f64;
            assert!(
                rel_err(est, tru) < 0.15,
                "hop {hop}: est {est} vs true {tru}"
            );
        }
    }

    #[test]
    fn tail_estimation_accuracy() {
        let k = 3;
        let (mut rec, mut truth) = simulate(50_000, k, 8, None, 3);
        for hop in 1..=k {
            let est = rec.quantile(hop, 0.99).unwrap();
            let tru = truth[hop].quantile(0.99).unwrap() as f64;
            assert!(
                rel_err(est, tru) < 0.35,
                "hop {hop}: p99 est {est} vs true {tru}"
            );
        }
    }

    #[test]
    fn coarser_budget_increases_error() {
        let k = 3;
        let (mut rec8, mut truth) = simulate(30_000, k, 8, None, 4);
        let (mut rec4, _) = simulate(30_000, k, 4, None, 4);
        let mut err8 = 0.0;
        let mut err4 = 0.0;
        for hop in 1..=k {
            let tru = truth[hop].quantile(0.5).unwrap() as f64;
            err8 += rel_err(rec8.quantile(hop, 0.5).unwrap(), tru);
            err4 += rel_err(rec4.quantile(hop, 0.5).unwrap(), tru);
        }
        assert!(
            err4 > err8,
            "4-bit error ({err4}) should exceed 8-bit error ({err8})"
        );
    }

    #[test]
    fn sketched_recorder_close_to_exact() {
        // Fig. 9 second row: a small sketch degrades accuracy only a little.
        let k = 3;
        let (mut exact, mut truth) = simulate(30_000, k, 8, None, 5);
        let (mut sk, _) = simulate(30_000, k, 8, Some(100), 5);
        for hop in 1..=k {
            let tru = truth[hop].quantile(0.5).unwrap() as f64;
            let ee = rel_err(exact.quantile(hop, 0.5).unwrap(), tru);
            let es = rel_err(sk.quantile(hop, 0.5).unwrap(), tru);
            assert!(es < ee + 0.25, "sketched err {es} vs exact err {ee}");
        }
    }

    #[test]
    fn empty_recorder() {
        let agg = DynamicAggregator::new(9, 8, 1.0, 1.0e6);
        let mut rec = DynamicRecorder::new_exact(agg, 4);
        assert!(rec.quantile(1, 0.5).is_none());
        assert_eq!(rec.packets(), 0);
    }

    #[test]
    fn sliding_recorder_tracks_recent_regime() {
        // A hop's latency regime shifts mid-flow: the sliding recorder
        // reports the new regime, the cumulative one blends both.
        let agg = DynamicAggregator::new(13, 8, 100.0, 1.0e7);
        let k = 3;
        let mut sliding = DynamicRecorder::new_sliding(agg.clone(), k, 2_000);
        let mut cumulative = DynamicRecorder::new_exact(agg.clone(), k);
        for pid in 0..60_000u64 {
            let mut digest = Digest::new(1);
            for hop in 1..=k {
                // First half: ~1µs; second half: ~10µs.
                let v = if pid < 30_000 { 1_000.0 } else { 10_000.0 };
                agg.encode_hop(pid, hop, v, &mut digest, 0);
            }
            sliding.record(pid, &digest, 0);
            cumulative.record(pid, &digest, 0);
        }
        let s = sliding.quantile(1, 0.5).unwrap();
        let c = cumulative.quantile(1, 0.5).unwrap();
        assert!(
            (s / 10_000.0 - 1.0).abs() < 0.1,
            "sliding median {s} should reflect the new regime"
        );
        // The cumulative store has both halves: median sits at the
        // boundary (either regime qualifies); tail p25 stays low.
        let c25 = cumulative.quantile(1, 0.25).unwrap();
        assert!(c25 < 2_000.0, "cumulative p25 {c25} must remember the past");
        let _ = c;
    }

    #[test]
    fn frequent_values_found_per_hop() {
        // Theorem 2: values appearing in ≥ θ of a hop's stream are
        // reported; values far below θ are not.
        let k = 4;
        let mut rec = FrequentValuesRecorder::new(11, k, 64);
        let mut rng = SmallRng::seed_from_u64(6);
        for pid in 0..40_000u64 {
            let mut digest = Digest::new(1);
            for hop in 1..=k {
                // Hop 2 sends value 99 in 60% of packets; others uniform.
                let v = if hop == 2 && rng.gen_bool(0.6) {
                    99
                } else {
                    rng.gen_range(0..50)
                };
                rec.encode_hop(pid, hop, v, &mut digest, 0);
            }
            rec.record(pid, &digest, 0);
        }
        let hh = rec.frequent(2, 0.4);
        assert_eq!(hh.first().map(|&(v, _)| v), Some(99), "hop 2's hot value");
        assert!(
            (hh[0].1 - 0.6).abs() < 0.08,
            "frequency estimate {}",
            hh[0].1
        );
        // Other hops must not report 99 as frequent.
        for hop in [1usize, 3, 4] {
            assert!(
                !rec.frequent(hop, 0.4).iter().any(|&(v, _)| v == 99),
                "hop {hop} wrongly reports 99"
            );
        }
    }

    #[test]
    fn frequent_values_sample_split() {
        let k = 5;
        let mut rec = FrequentValuesRecorder::new(3, k, 16);
        for pid in 0..10_000u64 {
            let mut digest = Digest::new(1);
            for hop in 1..=k {
                rec.encode_hop(pid, hop, hop as u64, &mut digest, 0);
            }
            rec.record(pid, &digest, 0);
        }
        for hop in 1..=k {
            let s = rec.samples_at(hop) as f64;
            assert!((s - 2_000.0).abs() < 300.0, "hop {hop}: {s} samples");
            // Static per-hop value: it is THE heavy hitter of its hop.
            assert_eq!(rec.frequent(hop, 0.9)[0].0, hop as u64);
        }
    }
}
