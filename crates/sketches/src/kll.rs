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
//!
//! # Layout
//!
//! As in Apache DataSketches' KLL, the whole tower lives in one buffer,
//! so a sketch costs one heap block however many levels it holds. For a
//! tower of `L` levels the buffer is
//!
//! ```text
//! [ start(0) … start(L-1) | level L-1 | … | level 1 | level 0 ]
//! ```
//!
//! The first `L` words are the level boundaries: `start(h)` is the index
//! where level `h`'s items begin, and level `h` ends where level `h - 1`
//! begins (level 0 ends at the buffer's end). The top level starts right
//! after the boundaries, at index `L`. The bottom level comes last, so
//! an update is a `push`. A compaction sorts level `h`, packs the items
//! it promotes to the front of the level (that is, onto the end of level
//! `h + 1`), and closes the gap it leaves.

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
/// The levels and their items share one `Vec<u64>` (see the
/// [module docs](self) for the layout): one heap block per sketch, none
/// before the first update. `k`, the level count and the cached tower
/// capacity are `u32`s, so the sketch itself is 56 bytes.
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
    /// The level boundaries, then the items, top level first.
    buf: Vec<u64>,
    /// Stream length observed so far.
    n: u64,
    /// Compaction coin state: a splitmix64 counter advanced once per
    /// coin flip. Explicit (not an opaque RNG) so the sketch is fully
    /// serializable — `pint-wire` round-trips it and a decoded sketch
    /// behaves *identically* to the original, coin flips included.
    coin: u64,
    /// Accuracy parameter: the top compactor holds up to `k` items.
    k: u32,
    /// Number of compactor levels (the boundaries opening `buf`).
    levels: u32,
    /// Total capacity across all levels, saturating at `u32::MAX`;
    /// reached ⇒ compress.
    max_size: u32,
}

impl KllSketch {
    /// Creates a sketch with accuracy parameter `k` (rank error ≈ O(1/k))
    /// and a fixed default seed.
    pub fn new(k: usize) -> Self {
        Self::with_seed(k, 0x9e37_79b9_7f4a_7c15)
    }

    /// Creates a sketch with an explicit RNG seed (compaction coin flips).
    /// The buffer is allocated by the first update, so a sketch that
    /// never sees an item holds no heap memory. Panics if `k` is below
    /// 2 or above `u32::MAX`.
    pub fn with_seed(k: usize, seed: u64) -> Self {
        assert!(k >= MIN_CAP, "KLL k must be at least {MIN_CAP}");
        let k = u32::try_from(k).expect("KLL k must fit in a u32");
        Self {
            buf: Vec::new(),
            n: 0,
            coin: seed,
            k,
            levels: 0,
            max_size: 0,
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
        let depth = self.levels as usize - h - 1;
        let cap = f64::from(self.k) * DECAY.powi(depth as i32);
        (cap.ceil() as usize).max(MIN_CAP)
    }

    /// Recomputes the cached tower capacity for the current level count.
    fn refresh_max_size(&mut self) {
        let total: usize = (0..self.levels as usize).map(|h| self.capacity_of(h)).sum();
        self.max_size = u32::try_from(total).unwrap_or(u32::MAX);
    }

    /// Level `h`'s items occupy `buf[start..end]`.
    #[inline]
    fn bounds(&self, h: usize) -> (usize, usize) {
        let end = match h {
            0 => self.buf.len(),
            _ => self.buf[h - 1] as usize,
        };
        (self.buf[h] as usize, end)
    }

    /// Adds an empty top level: one more boundary word, which shifts
    /// every level one slot to the right.
    fn grow(&mut self) {
        let top = self.levels as usize;
        for start in &mut self.buf[..top] {
            *start += 1;
        }
        self.buf.insert(top, top as u64 + 1);
        self.levels += 1;
        self.refresh_max_size();
    }

    /// Inserts a value into the sketch.
    pub fn update(&mut self, v: u64) {
        if self.levels == 0 {
            self.grow();
        }
        self.buf.push(v);
        self.n += 1;
        if self.stored_items() >= self.max_size as usize {
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
            while self.levels as usize <= h {
                self.grow();
            }
            // Append to level `h`: every level below it moves one slot on.
            let (_, end) = self.bounds(h);
            self.buf.insert(end, v);
            for start in &mut self.buf[..h] {
                *start += 1;
            }
            remaining -= 1u64 << h;
        }
        self.n += weight;
        self.compress_to_fit();
    }

    /// Compacts until the tower fits its capacity (or compaction stops
    /// making progress).
    fn compress_to_fit(&mut self) {
        while self.stored_items() >= self.max_size as usize {
            let before = self.stored_items();
            self.compress();
            if self.stored_items() == before {
                break;
            }
        }
    }

    /// Compacts the lowest level at or over its capacity; compacting one
    /// level suffices to fall under `max_size` (as in the reference
    /// implementation).
    fn compress(&mut self) {
        let levels = self.levels as usize;
        let Some(h) = (0..levels).find(|&h| {
            let (start, end) = self.bounds(h);
            end - start >= self.capacity_of(h)
        }) else {
            return;
        };
        if h + 1 == levels {
            self.grow();
        }
        // In place: sort, pack every other item (from a random offset)
        // to the front of the level, where it joins the end of level
        // h + 1, then close the gap behind it.
        let (start, end) = self.bounds(h);
        let offset = usize::from(self.flip());
        let items = &mut self.buf[start..end];
        items.sort_unstable();
        let len = items.len();
        let promoted = (len - offset).div_ceil(2);
        for j in 0..promoted {
            items[j] = items[offset + 2 * j];
        }
        let level_h = start + promoted;
        self.buf.drain(level_h..end);
        self.buf[h] = level_h as u64;
        let gap = (len - promoted) as u64;
        for below in &mut self.buf[..h] {
            *below -= gap;
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
        self.buf.len() - self.levels as usize
    }

    /// Returns all (value, weight) pairs currently held.
    fn weighted_items(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.stored_items());
        for (h, c) in self.levels().enumerate() {
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
        let added = other.stored_items();
        let new_levels = other.levels.saturating_sub(self.levels) as usize;
        self.buf.reserve(new_levels + added);
        while self.levels < other.levels {
            self.grow();
        }
        // Widen each of `other`'s levels in place, bottom level (the
        // buffer's end) first: no level starts left of where it started
        // before, so a moved level never lands on one still to move.
        // Levels above `other`'s top stay where they are.
        let old_len = self.buf.len();
        self.buf.resize(old_len + added, 0);
        let (mut old_end, mut new_end) = (old_len, old_len + added);
        for (h, theirs) in other.levels().enumerate() {
            let old_start = self.buf[h] as usize;
            let mine = old_end - old_start;
            let new_start = new_end - mine - theirs.len();
            if new_start != old_start {
                self.buf.copy_within(old_start..old_end, new_start);
            }
            self.buf[new_start + mine..new_end].copy_from_slice(theirs);
            self.buf[h] = new_start as u64;
            (old_end, new_end) = (old_start, new_start);
        }
        self.n += other.n;
        self.compress_to_fit();
    }

    // ---- serialization hooks (used by `pint-wire`) ----------------------

    /// The accuracy parameter `k` the sketch was built with.
    pub fn accuracy_k(&self) -> usize {
        self.k as usize
    }

    /// The compaction coin state (see [`from_parts`](Self::from_parts)).
    pub fn coin_state(&self) -> u64 {
        self.coin
    }

    /// Level `h`'s items.
    fn level(&self, h: usize) -> &[u64] {
        let (start, end) = self.bounds(h);
        &self.buf[start..end]
    }

    /// The compactor levels, bottom (weight 1) first. Level `h` holds
    /// items of weight `2^h`; items within a level are in insertion
    /// order. Together with [`accuracy_k`](Self::accuracy_k),
    /// [`coin_state`](Self::coin_state), and [`count`](Self::count) this
    /// is the sketch's complete state.
    pub fn levels(&self) -> impl ExactSizeIterator<Item = &[u64]> {
        (0..self.levels as usize).map(move |h| self.level(h))
    }

    /// Rebuilds a sketch from serialized state — the exact inverse of
    /// reading [`levels`](Self::levels)/[`coin_state`](Self::coin_state):
    /// the result is `==` to the original and makes the same compaction
    /// decisions from here on.
    ///
    /// `buf` is the flat form described in the [module docs](self): for
    /// `levels` levels, `levels` boundary words (where each level's
    /// items start), then the items, top level first. A decoder that
    /// knows every level's length fills it in place, so rebuilding a
    /// sketch takes exactly one allocation.
    ///
    /// Validates untrusted input instead of panicking: boundaries that
    /// do not tile the buffer, `k` below the implementation minimum or
    /// above `u32::MAX`, more than 64 levels (a `u64` cannot weight
    /// level 64), a stored-item weight total overflowing `u64` (which
    /// would make [`quantile`](Self::quantile) panic in debug builds), or
    /// stored items without a stream (`n == 0` yet items present, and
    /// vice versa) are rejected with a static description.
    pub fn from_parts(
        k: usize,
        coin: u64,
        n: u64,
        levels: usize,
        buf: Vec<u64>,
    ) -> Result<Self, &'static str> {
        if levels > MAX_LEVELS {
            return Err("too many KLL compactor levels");
        }
        let starts = buf
            .get(..levels)
            .ok_or("KLL level boundaries do not tile the buffer")?;
        // Walking up from the buffer's end, each level must start at or
        // before the one below it, and the top one right after the
        // boundaries.
        let mut lens = [0usize; MAX_LEVELS];
        let mut end = buf.len();
        for (len, &start) in lens.iter_mut().zip(starts) {
            if start > end as u64 {
                return Err("KLL level boundaries out of order");
            }
            *len = end - start as usize;
            end = start as usize;
        }
        if end != levels {
            return Err("KLL level boundaries do not tile the buffer");
        }
        Self::check_parts(k, n, lens[..levels].iter().copied())?;
        let mut s = Self {
            buf,
            n,
            coin,
            k: k as u32,
            levels: levels as u32,
            max_size: 0,
        };
        // Recompute the capacity sum for the level count as-is; do NOT
        // compact here — decode must preserve state exactly.
        s.refresh_max_size();
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
        if k > u32::MAX as usize {
            return Err("KLL accuracy parameter implausibly large");
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
        assert!(levels.len() > 2, "the stream compacts several levels");
        let (num_levels, buf) = flat(&levels);
        let mut rebuilt = KllSketch::from_parts(
            sk.accuracy_k(),
            sk.coin_state(),
            sk.count(),
            num_levels,
            buf,
        )
        .unwrap();
        assert_eq!(sk, rebuilt, "reconstruction is bit-exact");
        // Same future behavior: identical coin flips ⇒ identical state
        // after identical updates.
        for v in 0..5_000u64 {
            sk.update(v);
            rebuilt.update(v);
        }
        assert_eq!(sk, rebuilt, "future compactions identical");
    }

    /// Levels given bottom first, in the flat form `from_parts` takes.
    fn flat(levels: &[Vec<u64>]) -> (usize, Vec<u64>) {
        let mut buf = vec![0; levels.len()];
        for (h, level) in levels.iter().enumerate().rev() {
            buf[h] = buf.len() as u64;
            buf.extend_from_slice(level);
        }
        (levels.len(), buf)
    }

    fn from_levels(k: usize, n: u64, levels: &[Vec<u64>]) -> Result<KllSketch, &'static str> {
        let (num_levels, buf) = flat(levels);
        KllSketch::from_parts(k, 0, n, num_levels, buf)
    }

    #[test]
    fn from_parts_rejects_malformed_state() {
        assert!(from_levels(1, 0, &[]).is_err(), "k");
        assert!(from_levels(1 << 32, 0, &[]).is_err(), "k beyond u32");
        assert!(
            from_levels(8, 0, &vec![Vec::new(); 65]).is_err(),
            "level count"
        );
        assert!(
            from_levels(8, 0, &[vec![1, 2, 3]]).is_err(),
            "items without stream length"
        );
        assert!(
            from_levels(8, 9, &[Vec::new()]).is_err(),
            "stream length without items"
        );
        // 2^63-weighted items overflowing the total weight.
        let mut levels = vec![Vec::new(); 64];
        levels[63] = vec![0; 3];
        assert!(
            from_levels(8, u64::MAX, &levels).is_err(),
            "weight overflow"
        );
        // Boundaries that do not tile the buffer.
        let parts = |levels: usize, buf: Vec<u64>| KllSketch::from_parts(8, 0, 3, levels, buf);
        assert!(parts(2, vec![2]).is_err(), "fewer words than levels");
        assert!(parts(0, vec![5]).is_err(), "items outside any level");
        assert!(parts(2, vec![2, 3, 7, 8]).is_err(), "level 1 after level 0");
        assert!(parts(2, vec![9, 2, 7, 8]).is_err(), "level 0 past the end");
        assert!(
            parts(2, vec![3, 3, 7, 8]).is_err(),
            "a gap after the boundaries"
        );
        assert!(
            parts(2, vec![u64::MAX, 2, 7]).is_err(),
            "a boundary past usize"
        );
        assert_eq!(
            parts(2, vec![3, 2, 7, 8]).map_err(drop),
            from_levels(8, 3, &[vec![8], vec![7]]).map_err(drop),
        );
        // An empty, never-updated sketch round-trips too.
        let empty = KllSketch::from_parts(8, 7, 0, 0, Vec::new()).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(0.5), None);
    }

    #[test]
    fn one_buffer_holds_every_level() {
        let mut sk = KllSketch::with_seed(8, 3);
        for v in 0..1_000u64 {
            sk.update(v % 97);
        }
        sk.update_weighted(5, 0b1011);
        let mut other = KllSketch::with_seed(8, 4);
        for v in 0..300u64 {
            other.update(v);
        }
        sk.merge(&other);
        let levels: Vec<Vec<u64>> = sk.levels().map(<[u64]>::to_vec).collect();
        assert!(levels.len() > 4, "{} levels", levels.len());
        assert_eq!(flat(&levels), (levels.len(), sk.buf.clone()));
        assert_eq!(
            sk.stored_items(),
            levels.iter().map(Vec::len).sum::<usize>()
        );
        assert_eq!(std::mem::size_of::<KllSketch>(), 56);
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
