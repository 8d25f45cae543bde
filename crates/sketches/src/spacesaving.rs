//! The Space-Saving heavy-hitters algorithm (Metwally, Agrawal, El Abbadi —
//! ICDT 2005).
//!
//! PINT's frequent-values dynamic aggregation (Theorem 2, Appendix A.1) uses
//! Space-Saving to estimate the frequency of each value in the sampled
//! per-hop substream to within an additive `ε·n` using `O(ε⁻¹)` counters.

use std::collections::HashMap;

/// A Space-Saving summary with a fixed number of counters.
///
/// Every estimate overshoots the true count by at most `n / capacity`,
/// where `n` is the stream length.
///
/// ```
/// use pint_sketches::SpaceSaving;
/// let mut ss = SpaceSaving::new(8);
/// for _ in 0..90 { ss.update(7); }
/// for v in 0..10u64 { ss.update(v); }
/// // 7 is a 90% heavy hitter.
/// let hh = ss.heavy_hitters(0.5);
/// assert_eq!(hh[0].0, 7);
/// ```
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    /// value → (count, overestimation error at insertion time)
    counters: HashMap<u64, (u64, u64)>,
    capacity: usize,
    n: u64,
}

impl SpaceSaving {
    /// Creates a summary holding at most `capacity` counters
    /// (use `capacity = ceil(1/ε)` for an additive ε·n error guarantee).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            counters: HashMap::with_capacity(capacity + 1),
            capacity,
            n: 0,
        }
    }

    /// Observes one occurrence of `v`.
    pub fn update(&mut self, v: u64) {
        self.update_by(v, 1);
    }

    /// Observes `w` occurrences of `v`.
    pub fn update_by(&mut self, v: u64, w: u64) {
        self.n += w;
        if let Some(e) = self.counters.get_mut(&v) {
            e.0 += w;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(v, (w, 0));
            return;
        }
        // Evict the minimum-count entry, ties to the smallest value so
        // the choice never depends on the map's iteration order; the
        // newcomer inherits its count as overestimation error.
        let (&min_v, &(min_c, _)) = self
            .counters
            .iter()
            .min_by_key(|&(&v, &(c, _))| (c, v))
            .expect("capacity > 0");
        self.counters.remove(&min_v);
        self.counters.insert(v, (min_c + w, min_c));
    }

    /// Stream length observed so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Upper-bound estimate of the number of occurrences of `v`.
    pub fn estimate(&self, v: u64) -> u64 {
        self.counters.get(&v).map_or(0, |&(c, _)| c)
    }

    /// Guaranteed lower bound on the number of occurrences of `v`.
    pub fn lower_bound(&self, v: u64) -> u64 {
        self.counters.get(&v).map_or(0, |&(c, e)| c - e)
    }

    /// Returns the values whose estimated frequency is at least
    /// `theta`-fraction of the stream, sorted by decreasing estimate.
    pub fn heavy_hitters(&self, theta: f64) -> Vec<(u64, u64)> {
        let thresh = (theta * self.n as f64).ceil() as u64;
        let mut out: Vec<(u64, u64)> = self
            .counters
            .iter()
            .filter(|(_, &(c, _))| c >= thresh.max(1))
            .map(|(&v, &(c, _))| (v, c))
            .collect();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The counters as `(value, count, error)`, ascending by value.
    pub fn counters(&self) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<_> = self
            .counters
            .iter()
            .map(|(&v, &(c, e))| (v, c, e))
            .collect();
        out.sort_unstable();
        out
    }

    /// Replaces the summary's state with a stream length and the
    /// [`counters`](Self::counters) of a summary of the same capacity.
    /// Rejects counters that summary could not hold: more than the
    /// capacity, repeated values, an error above its count, or counts
    /// not summing to `n`.
    pub fn load(&mut self, n: u64, counters: Vec<(u64, u64, u64)>) -> Result<(), &'static str> {
        let sum = counters.iter().try_fold(0u64, |acc, &(_, c, e)| {
            acc.checked_add(c).filter(|_| e <= c)
        });
        if counters.len() > self.capacity
            || sum != Some(n)
            || counters.windows(2).any(|w| w[0].0 >= w[1].0)
        {
            return Err("Space-Saving counters do not fit this summary");
        }
        self.n = n;
        self.counters = counters.into_iter().map(|(v, c, e)| (v, (c, e))).collect();
        Ok(())
    }

    /// Number of counters currently used.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` if no element was observed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn exact_when_under_capacity() {
        let mut ss = SpaceSaving::new(16);
        for v in 0..10u64 {
            for _ in 0..=v {
                ss.update(v);
            }
        }
        for v in 0..10u64 {
            assert_eq!(ss.estimate(v), v + 1);
            assert_eq!(ss.lower_bound(v), v + 1);
        }
    }

    #[test]
    fn error_bounded_by_n_over_capacity() {
        let cap = 50;
        let mut ss = SpaceSaving::new(cap);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..100_000 {
            // Zipf-ish: value v with probability ∝ 1/(v+1)
            let v = loop {
                let v = rng.gen_range(0..1000u64);
                if rng.gen::<f64>() < 1.0 / (v + 1) as f64 {
                    break v;
                }
            };
            ss.update(v);
            *truth.entry(v).or_insert(0u64) += 1;
        }
        let bound = ss.count() / cap as u64;
        for (&v, &c) in &truth {
            let est = ss.estimate(v);
            if est > 0 {
                assert!(est >= c, "estimate is an upper bound");
                assert!(est - c <= bound, "error above n/capacity");
            } else {
                // Missed values must be infrequent.
                assert!(c <= bound, "a heavy value was evicted");
            }
        }
    }

    #[test]
    fn heavy_hitters_found() {
        let mut ss = SpaceSaving::new(20);
        for _ in 0..600 {
            ss.update(1);
        }
        for _ in 0..300 {
            ss.update(2);
        }
        for v in 100..200u64 {
            ss.update(v);
        }
        let hh = ss.heavy_hitters(0.25);
        assert_eq!(hh[0].0, 1);
        assert_eq!(hh[1].0, 2);
        assert_eq!(hh.len(), 2);
    }

    #[test]
    fn weighted_updates() {
        let mut ss = SpaceSaving::new(4);
        ss.update_by(9, 100);
        ss.update(9);
        assert_eq!(ss.estimate(9), 101);
        assert_eq!(ss.count(), 101);
    }

    #[test]
    fn tied_evictions_do_not_depend_on_map_order() {
        // 203 distinct values through 8 counters: every eviction is a
        // tie among the minimum counts. Each instance hashes with its
        // own random keys, so any order-dependent pick shows up here.
        let feed = |ss: &mut SpaceSaving| {
            for v in 0..203u64 {
                ss.update(v * 7_919 % 1_009);
            }
        };
        let mut first = SpaceSaving::new(8);
        feed(&mut first);
        for _ in 0..20 {
            let mut other = SpaceSaving::new(8);
            feed(&mut other);
            assert_eq!(other.heavy_hitters(0.0), first.heavy_hitters(0.0));
            assert_eq!(other.counters(), first.counters());
        }
    }

    #[test]
    fn load_round_trips_and_rejects_impossible_counters() {
        let mut ss = SpaceSaving::new(4);
        for v in [5u64, 5, 9, 1, 7, 7, 7, 3] {
            ss.update(v);
        }
        let mut copy = SpaceSaving::new(4);
        copy.load(ss.count(), ss.counters()).unwrap();
        for v in [2u64, 7, 11] {
            ss.update(v);
            copy.update(v);
        }
        assert_eq!(copy.counters(), ss.counters());
        let mut bad = SpaceSaving::new(4);
        assert!(
            bad.load(3, vec![(1, 2, 0)]).is_err(),
            "counts must sum to n"
        );
        assert!(bad.load(2, vec![(1, 2, 3)]).is_err(), "error above count");
        assert!(bad.load(2, vec![(1, 1, 0), (1, 1, 0)]).is_err(), "repeats");
        assert!(bad.load(5, (0..5).map(|v| (v, 1, 0)).collect()).is_err());
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut ss = SpaceSaving::new(8);
        for v in 0..1000u64 {
            ss.update(v);
        }
        assert_eq!(ss.len(), 8);
    }
}
