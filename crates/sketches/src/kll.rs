//! The KLL streaming quantile sketch (Karnin, Lang, Liberty — FOCS 2016).
//!
//! PINT's Recording Module uses a KLL sketch per (flow, hop) pair to bound
//! the per-flow storage while answering quantile queries over the sampled
//! latency substream (paper §4.1, §6.2, Theorem 1). The sketch answers any
//! ϕ-quantile to within ε·n rank error using `O(ε⁻¹)` stored items.
//!
//! This is a self-contained implementation of the standard compactor-based
//! design: a tower of buffers ("compactors") where level `h` holds items of
//! weight `2^h`. When the sketch exceeds its capacity the lowest over-full
//! level is sorted and every other element (random offset) is promoted one
//! level up, halving the stored item count at that level.

/// Capacity decay rate between compactor levels (the `c` parameter of the
/// KLL paper; 2/3 is the value used in the authors' reference code).
const DECAY: f64 = 2.0 / 3.0;
/// Minimum capacity of any compactor.
const MIN_CAP: usize = 2;
/// Upper bound on compactor levels: level `h` items weigh `2^h`, so 64
/// levels already exhaust a `u64` weight. Also caps what
/// [`KllSketch::from_parts`] accepts from untrusted input.
const MAX_LEVELS: usize = 64;

/// A KLL quantile sketch over `u64` values.
///
/// ```
/// use pint_sketches::KllSketch;
/// let mut sk = KllSketch::new(200);
/// for v in 0..10_000u64 {
///     sk.update(v);
/// }
/// let med = sk.quantile(0.5).unwrap();
/// assert!((med as i64 - 5_000).unsigned_abs() < 500);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KllSketch {
    /// Accuracy parameter: the top compactor holds up to `k` items.
    k: usize,
    /// `compactors[h]` holds items of weight `2^h`.
    compactors: Vec<Vec<u64>>,
    /// Total items currently stored across all compactors.
    size: usize,
    /// Total capacity across all compactors; exceeded ⇒ compress.
    max_size: usize,
    /// Stream length observed so far.
    n: u64,
    /// Compaction coin state: a splitmix64 counter advanced once per
    /// coin flip. Explicit (not an opaque RNG) so the sketch is fully
    /// serializable — `pint-wire` round-trips it and a decoded sketch
    /// behaves *identically* to the original, coin flips included.
    coin: u64,
}

impl KllSketch {
    /// Creates a sketch with accuracy parameter `k` (rank error ≈ O(1/k))
    /// and a fixed default seed.
    pub fn new(k: usize) -> Self {
        Self::with_seed(k, 0x9e37_79b9_7f4a_7c15)
    }

    /// Creates a sketch with an explicit RNG seed (compaction coin flips).
    /// The first compactor is allocated by the first update, so a
    /// sketch that never sees an item holds no heap memory.
    pub fn with_seed(k: usize, seed: u64) -> Self {
        assert!(k >= MIN_CAP, "KLL k must be at least {MIN_CAP}");
        Self {
            k,
            compactors: Vec::new(),
            size: 0,
            max_size: 0,
            n: 0,
            coin: seed,
        }
    }

    /// One compaction coin flip: advance the splitmix64 counter and take
    /// the mixed output's low bit.
    #[inline]
    fn flip(&mut self) -> bool {
        self.coin = self.coin.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.coin;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & 1 == 1
    }

    /// Creates a sketch whose in-memory footprint is approximately
    /// `bytes` when each stored item occupies `item_bytes` bytes.
    ///
    /// This mirrors the paper's Fig. 9 x-axis ("Sketch Size \[Bytes\]"): a
    /// `b`-bit PINT digest occupies `b/8` bytes, so a 100-byte sketch with
    /// `b = 8` keeps roughly 100 digests.
    pub fn with_byte_budget(bytes: usize, item_bytes: usize) -> Self {
        Self::with_item_budget((bytes / item_bytes.max(1)).max(MIN_CAP * 3))
    }

    /// Creates a sketch retaining at most ≈ `items` stored values (for
    /// sub-byte digests: a 100-byte budget at `b = 4` bits holds 200).
    pub fn with_item_budget(items: usize) -> Self {
        // Total capacity of a KLL tower with top-capacity k is ~ k / (1 - c)
        // = 3k, so pick k ≈ items / 3.
        Self::new((items / 3).max(MIN_CAP))
    }

    fn capacity_of(&self, h: usize) -> usize {
        let depth = self.compactors.len() - h - 1;
        let cap = (self.k as f64) * DECAY.powi(depth as i32);
        (cap.ceil() as usize).max(MIN_CAP)
    }

    fn grow(&mut self) {
        self.compactors.push(Vec::new());
        self.max_size = (0..self.compactors.len())
            .map(|h| self.capacity_of(h))
            .sum();
    }

    /// Inserts a value into the sketch.
    pub fn update(&mut self, v: u64) {
        if self.compactors.is_empty() {
            self.grow();
        }
        self.compactors[0].push(v);
        self.size += 1;
        self.n += 1;
        if self.size >= self.max_size {
            self.compress();
        }
    }

    /// Inserts a value with multiplicity `weight`, in O(log weight):
    /// `weight` is decomposed into powers of two and one copy of `v` is
    /// placed in the compactor of each matching level (level `h` items
    /// carry weight `2^h`). Equivalent in expectation to calling
    /// [`update`](Self::update) `weight` times.
    pub fn update_weighted(&mut self, v: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        let mut remaining = weight;
        while remaining > 0 {
            let h = 63 - remaining.leading_zeros() as usize;
            while self.compactors.len() <= h {
                self.grow();
            }
            self.compactors[h].push(v);
            self.size += 1;
            remaining -= 1u64 << h;
        }
        self.n += weight;
        self.compress_to_fit();
    }

    /// Compacts until the tower fits its capacity (or compaction stops
    /// making progress).
    fn compress_to_fit(&mut self) {
        while self.size >= self.max_size {
            let before = self.size;
            self.compress();
            if self.size == before {
                break;
            }
        }
    }

    fn compress(&mut self) {
        for h in 0..self.compactors.len() {
            if self.compactors[h].len() >= self.capacity_of(h) {
                if h + 1 >= self.compactors.len() {
                    self.grow();
                }
                // In place: sort, promote every other item upward, keep
                // the level's buffer (small sketches compact every few
                // updates — a scratch allocation here would dominate the
                // ingest hot path).
                let offset = usize::from(self.flip());
                let (lower, upper) = self.compactors.split_at_mut(h + 1);
                let items = &mut lower[h];
                items.sort_unstable();
                let len = items.len();
                let next = &mut upper[0];
                let mut i = offset;
                while i < len {
                    next.push(items[i]);
                    i += 2;
                }
                let promoted = (len - offset).div_ceil(2);
                self.size -= len;
                self.size += promoted;
                items.clear();
                // Compacting one level suffices to fall under max_size;
                // matching the reference implementation we stop here.
                break;
            }
        }
    }

    /// Number of items observed (the stream length `n`).
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Returns `true` if no item was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of items currently retained.
    pub fn stored_items(&self) -> usize {
        self.size
    }

    /// Returns all (value, weight) pairs currently held.
    fn weighted_items(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.size);
        for (h, c) in self.compactors.iter().enumerate() {
            let w = 1u64 << h;
            out.extend(c.iter().map(|&v| (v, w)));
        }
        out
    }

    /// Estimates the rank (number of stream items `< v`).
    pub fn rank(&self, v: u64) -> u64 {
        self.weighted_items()
            .iter()
            .filter(|&&(x, _)| x < v)
            .map(|&(_, w)| w)
            .sum()
    }

    /// Estimates the ϕ-quantile (ϕ ∈ \[0, 1\]) of the stream.
    ///
    /// Returns `None` on an empty sketch.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        let mut items = self.weighted_items();
        items.sort_unstable_by_key(|&(v, _)| v);
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        let target = (phi * total as f64).ceil() as u64;
        let mut cum = 0u64;
        for &(v, w) in &items {
            cum += w;
            if cum >= target {
                return Some(v);
            }
        }
        items.last().map(|&(v, _)| v)
    }

    /// Merges another sketch into this one (levelwise concatenation
    /// followed by compaction).
    pub fn merge(&mut self, other: &KllSketch) {
        while self.compactors.len() < other.compactors.len() {
            self.grow();
        }
        for (h, c) in other.compactors.iter().enumerate() {
            self.compactors[h].extend_from_slice(c);
            self.size += c.len();
        }
        self.n += other.n;
        self.compress_to_fit();
    }

    // ---- serialization hooks (used by `pint-wire`) ----------------------

    /// The accuracy parameter `k` the sketch was built with.
    pub fn accuracy_k(&self) -> usize {
        self.k
    }

    /// The compaction coin state (see [`from_parts`](Self::from_parts)).
    pub fn coin_state(&self) -> u64 {
        self.coin
    }

    /// The compactor levels, bottom (weight 1) first. Level `h` holds
    /// items of weight `2^h`; items within a level are in insertion
    /// order. Together with [`accuracy_k`](Self::accuracy_k),
    /// [`coin_state`](Self::coin_state), and [`count`](Self::count) this
    /// is the sketch's complete state.
    pub fn levels(&self) -> impl ExactSizeIterator<Item = &[u64]> {
        self.compactors.iter().map(Vec::as_slice)
    }

    /// Rebuilds a sketch from serialized state — the exact inverse of
    /// reading [`levels`](Self::levels)/[`coin_state`](Self::coin_state):
    /// the result is `==` to the original and makes the same compaction
    /// decisions from here on.
    ///
    /// Validates untrusted input instead of panicking: `k` below the
    /// implementation minimum, more than 64 levels (a `u64` cannot weight
    /// level 64), a stored-item weight total overflowing `u64` (which
    /// would make [`quantile`](Self::quantile) panic in debug builds), or
    /// stored items without a stream (`n == 0` yet items present, and
    /// vice versa) are rejected with a static description.
    pub fn from_parts(
        k: usize,
        coin: u64,
        n: u64,
        levels: Vec<Vec<u64>>,
    ) -> Result<Self, &'static str> {
        let size = Self::check_parts(k, n, levels.iter().map(Vec::len))?;
        let mut s = Self {
            k,
            compactors: levels,
            size,
            max_size: 0,
            n,
            coin,
        };
        // Recompute the capacity sum for the level count as-is; do NOT
        // compact here — decode must preserve state exactly.
        s.max_size = (0..s.compactors.len()).map(|h| s.capacity_of(h)).sum();
        Ok(s)
    }

    /// The checks [`from_parts`](Self::from_parts) makes, from the item
    /// count of each level alone, so a wire walk can vet an encoded
    /// sketch without building it. Returns the stored-item total.
    pub fn check_parts(
        k: usize,
        n: u64,
        level_lens: impl ExactSizeIterator<Item = usize>,
    ) -> Result<usize, &'static str> {
        if k < MIN_CAP {
            return Err("KLL accuracy parameter below minimum");
        }
        if level_lens.len() > MAX_LEVELS {
            return Err("too many KLL compactor levels");
        }
        let mut total_weight = 0u64;
        let mut size = 0usize;
        for (h, len) in level_lens.enumerate() {
            let per_item = 1u64 << h;
            let level_weight = per_item
                .checked_mul(len as u64)
                .ok_or("KLL level weight overflows u64")?;
            total_weight = total_weight
                .checked_add(level_weight)
                .ok_or("KLL total weight overflows u64")?;
            size += len;
        }
        if (n == 0) != (size == 0) {
            return Err("KLL stream length inconsistent with stored items");
        }
        Ok(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn rank_error(sk: &KllSketch, sorted: &[u64], phi: f64) -> f64 {
        let est = sk.quantile(phi).unwrap();
        // True rank of the estimate within the sorted data.
        let rank = sorted.partition_point(|&x| x <= est);
        (rank as f64 / sorted.len() as f64 - phi).abs()
    }

    #[test]
    fn empty_sketch_has_no_quantile() {
        let sk = KllSketch::new(64);
        assert!(sk.quantile(0.5).is_none());
        assert!(sk.is_empty());
    }

    #[test]
    fn single_item() {
        let mut sk = KllSketch::new(64);
        sk.update(42);
        assert_eq!(sk.quantile(0.0), Some(42));
        assert_eq!(sk.quantile(0.5), Some(42));
        assert_eq!(sk.quantile(1.0), Some(42));
    }

    #[test]
    fn exact_below_capacity() {
        // While the stream fits in the bottom compactor the answer is exact.
        let mut sk = KllSketch::new(512);
        for v in 0..100u64 {
            sk.update(v);
        }
        // Nearest-rank: the ⌈0.5·100⌉ = 50th smallest item is 49.
        assert_eq!(sk.quantile(0.5), Some(49));
    }

    #[test]
    fn uniform_stream_accuracy() {
        let mut sk = KllSketch::with_seed(200, 7);
        let mut data: Vec<u64> = (0..100_000).collect();
        data.shuffle(&mut SmallRng::seed_from_u64(3));
        for &v in &data {
            sk.update(v);
        }
        let mut sorted = data.clone();
        sorted.sort_unstable();
        for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            assert!(
                rank_error(&sk, &sorted, phi) < 0.03,
                "phi={phi} error too large"
            );
        }
    }

    #[test]
    fn skewed_stream_accuracy() {
        // Heavy-tailed stream: mostly small with rare huge values — the
        // regime of switch hop latencies.
        let mut rng = SmallRng::seed_from_u64(11);
        let mut sk = KllSketch::with_seed(200, 5);
        let mut data = Vec::new();
        for _ in 0..50_000 {
            let v = if rng.gen_bool(0.01) {
                rng.gen_range(100_000..1_000_000u64)
            } else {
                rng.gen_range(0..1_000u64)
            };
            sk.update(v);
            data.push(v);
        }
        data.sort_unstable();
        for phi in [0.5, 0.9, 0.99] {
            assert!(rank_error(&sk, &data, phi) < 0.03, "phi={phi}");
        }
    }

    #[test]
    fn space_is_bounded() {
        let mut sk = KllSketch::new(100);
        for v in 0..1_000_000u64 {
            sk.update(v);
        }
        // Capacity of the tower is ~3k; allow slack for the transient.
        assert!(sk.stored_items() < 400, "stored {}", sk.stored_items());
    }

    #[test]
    fn merge_matches_combined_stream() {
        let mut a = KllSketch::with_seed(200, 1);
        let mut b = KllSketch::with_seed(200, 2);
        let mut all = Vec::new();
        for v in 0..20_000u64 {
            a.update(v);
            all.push(v);
        }
        for v in 20_000..60_000u64 {
            b.update(v * 3);
            all.push(v * 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), 60_000);
        all.sort_unstable();
        for phi in [0.25, 0.5, 0.9] {
            assert!(rank_error(&a, &all, phi) < 0.04, "phi={phi}");
        }
    }

    #[test]
    fn byte_budget_controls_size() {
        let mut small = KllSketch::with_byte_budget(100, 1);
        let mut big = KllSketch::with_byte_budget(300, 1);
        for v in 0..100_000u64 {
            small.update(v);
            big.update(v);
        }
        assert!(small.stored_items() <= 150);
        assert!(big.stored_items() <= 450);
        assert!(small.stored_items() < big.stored_items());
    }

    #[test]
    fn weighted_update_matches_repetition() {
        let mut rep = KllSketch::with_seed(200, 21);
        let mut wtd = KllSketch::with_seed(200, 21);
        let mut rng = SmallRng::seed_from_u64(8);
        for _ in 0..500 {
            let v = rng.gen_range(0..1_000_000u64);
            let w = rng.gen_range(1..400u64);
            for _ in 0..w {
                rep.update(v);
            }
            wtd.update_weighted(v, w);
        }
        assert_eq!(rep.count(), wtd.count());
        for phi in [0.1, 0.5, 0.9] {
            let a = rep.quantile(phi).unwrap() as f64;
            let b = wtd.quantile(phi).unwrap() as f64;
            let spread = 1_000_000.0;
            assert!(
                (a - b).abs() / spread < 0.05,
                "phi={phi}: repeated {a} vs weighted {b}"
            );
        }
        // Weighted inserts stay within the usual space bound.
        assert!(wtd.stored_items() < 900, "stored {}", wtd.stored_items());
    }

    #[test]
    fn weighted_update_zero_is_noop() {
        let mut sk = KllSketch::new(64);
        sk.update_weighted(5, 0);
        assert!(sk.is_empty());
        sk.update_weighted(5, 1);
        assert_eq!(sk.count(), 1);
        assert_eq!(sk.quantile(0.5), Some(5));
    }

    #[test]
    fn parts_round_trip_is_exact_including_future_updates() {
        let mut sk = KllSketch::with_seed(64, 42);
        for v in 0..10_000u64 {
            sk.update(v * 17 % 4_096);
        }
        let levels: Vec<Vec<u64>> = sk.levels().map(<[u64]>::to_vec).collect();
        let mut rebuilt =
            KllSketch::from_parts(sk.accuracy_k(), sk.coin_state(), sk.count(), levels).unwrap();
        assert_eq!(sk, rebuilt, "reconstruction is bit-exact");
        // Same future behavior: identical coin flips ⇒ identical state
        // after identical updates.
        for v in 0..5_000u64 {
            sk.update(v);
            rebuilt.update(v);
        }
        assert_eq!(sk, rebuilt, "future compactions identical");
    }

    #[test]
    fn from_parts_rejects_malformed_state() {
        assert!(KllSketch::from_parts(1, 0, 0, Vec::new()).is_err(), "k");
        assert!(
            KllSketch::from_parts(8, 0, 0, vec![Vec::new(); 65]).is_err(),
            "level count"
        );
        assert!(
            KllSketch::from_parts(8, 0, 0, vec![vec![1, 2, 3]]).is_err(),
            "items without stream length"
        );
        assert!(
            KllSketch::from_parts(8, 0, 9, vec![Vec::new()]).is_err(),
            "stream length without items"
        );
        // 2^63-weighted items overflowing the total weight.
        let mut levels = vec![Vec::new(); 64];
        levels[63] = vec![0; 3];
        assert!(
            KllSketch::from_parts(8, 0, u64::MAX, levels).is_err(),
            "weight overflow"
        );
        // An empty, never-updated sketch round-trips too.
        let empty = KllSketch::from_parts(8, 7, 0, Vec::new()).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn monotone_quantiles() {
        let mut sk = KllSketch::with_seed(64, 9);
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..10_000 {
            sk.update(rng.gen_range(0..1_000_000));
        }
        let mut prev = 0;
        for i in 0..=20 {
            let q = sk.quantile(i as f64 / 20.0).unwrap();
            assert!(q >= prev, "quantiles must be monotone");
            prev = q;
        }
    }
}
