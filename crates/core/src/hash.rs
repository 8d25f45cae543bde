//! Global hash functions — the coordination backbone of PINT (§4.1).
//!
//! PINT avoids any switch-to-switch or switch-to-collector communication by
//! having every party evaluate the *same* keyed hash functions:
//!
//! * a **query-selection / layer-selection hash** `H(packet id)` mapping into
//!   `[0, 1)`, so all switches agree which query set (and which coding
//!   layer) a packet serves;
//! * a **decision hash** `g(packet id, hop)` mapping into `[0, 1)`, which
//!   drives the distributed reservoir sampling (`g(p, i) < 1/i`) and the
//!   XOR-layer participation (`g(p, i) < pℓ`);
//! * a **value hash** `h(value, packet id)` mapping into `q`-bit digests,
//!   which compresses wide values (e.g. 32-bit switch IDs) below the
//!   per-packet bit budget (§4.2 "Reducing the Bit-overhead using Hashing").
//!
//! The Recording/Inference modules recompute these hashes offline to learn
//! which switches acted on each packet — "implicit coordination".
//!
//! The implementation is a keyed SplitMix64-style finalizer. We implement it
//! locally (rather than using `std`'s `DefaultHasher`) because the paper's
//! protocol requires every party — switches, sink, inference server, and this
//! reproduction's tests — to compute *identical* values forever; `std`'s
//! hasher is explicitly unstable across releases.

/// The 64-bit finalizer from SplitMix64 / MurmurHash3's `fmix64`.
///
/// A bijective mixer with full avalanche: every input bit flips every output
/// bit with probability ≈ 1/2.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Golden-ratio increment used to derive independent sub-keys.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A keyed global hash function.
///
/// All parties constructing a `GlobalHash` from the same key compute the
/// same outputs — this is what lets PINT coordinate without communication.
/// Different keys behave as independent hash functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalHash {
    k0: u64,
    k1: u64,
}

impl GlobalHash {
    /// Creates the hash function identified by `key`.
    pub fn new(key: u64) -> Self {
        // Expand the key into two independent sub-keys so that multi-word
        // inputs cannot cancel the key by XOR.
        Self {
            k0: mix64(key ^ GAMMA),
            k1: mix64(key.wrapping_add(GAMMA)),
        }
    }

    /// Derives an independent hash function (e.g. one per query, per coding
    /// instance, or per fragment) from this one.
    pub fn derive(&self, salt: u64) -> Self {
        Self::new(self.k0 ^ mix64(salt.wrapping_mul(GAMMA) ^ self.k1))
    }

    /// Hashes a single 64-bit word.
    #[inline]
    pub fn hash1(&self, a: u64) -> u64 {
        mix64(a ^ self.k0).wrapping_add(self.k1)
    }

    /// Hashes a pair of 64-bit words.
    #[inline]
    pub fn hash2(&self, a: u64, b: u64) -> u64 {
        mix64(mix64(a ^ self.k0).wrapping_add(b ^ self.k1))
    }

    /// Hashes a triple of 64-bit words.
    #[inline]
    pub fn hash3(&self, a: u64, b: u64, c: u64) -> u64 {
        mix64(self.hash2(a, b) ^ mix64(c ^ self.k1))
    }

    /// Maps one word to the unit interval `[0, 1)`.
    ///
    /// Footnote 5 of the paper: hashing to `M`-bit integers and comparing
    /// against `⌊(2^M − 1)·p⌋` is equivalent to a real-valued hash; we use
    /// the 53 high bits so the value is exactly representable in an `f64`.
    #[inline]
    pub fn unit1(&self, a: u64) -> f64 {
        (self.hash1(a) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Maps a pair to the unit interval `[0, 1)`.
    #[inline]
    pub fn unit2(&self, a: u64, b: u64) -> f64 {
        (self.hash2(a, b) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Hashes a pair into a `bits`-wide digest (`1 ≤ bits ≤ 64`).
    #[inline]
    pub fn digest2(&self, a: u64, b: u64, bits: u32) -> u64 {
        debug_assert!((1..=64).contains(&bits));
        // Take the high bits: the multiply-based mixer has its best
        // avalanche there.
        self.hash2(a, b) >> (64 - bits)
    }
}

/// The named hash family used by one PINT query instance.
///
/// Bundles the three global hash roles of §4.1 plus a per-instance salt so
/// that "multiple instantiations" (§4.2) are independent.
#[derive(Debug, Clone, Copy)]
pub struct HashFamily {
    /// Layer / scheme selection hash `H(pid)`.
    pub layer: GlobalHash,
    /// Per-hop decision hash `g(pid, hop)`.
    pub g: GlobalHash,
    /// Value hash `h(value, pid)`.
    pub h: GlobalHash,
}

impl HashFamily {
    /// Creates the family for query `query_seed`, instance `instance`.
    pub fn new(query_seed: u64, instance: u64) -> Self {
        let root = GlobalHash::new(query_seed).derive(instance);
        Self {
            layer: root.derive(1),
            g: root.derive(2),
            h: root.derive(3),
        }
    }

    /// The reservoir-sampling test: does hop `i` (1-based) overwrite the
    /// digest of packet `pid`? (`g(p, i) ≤ r_i` with `r_i = 1/i`; §4.1.)
    #[inline]
    pub fn reservoir_writes(&self, pid: u64, hop: usize) -> bool {
        debug_assert!(hop >= 1, "hops are 1-based");
        self.g.unit2(pid, hop as u64) < 1.0 / hop as f64
    }

    /// The hop that ends up owning packet `pid`'s digest under reservoir
    /// sampling over a `k`-hop path: the *last* hop that writes.
    ///
    /// Always exists because hop 1 writes unconditionally.
    ///
    /// Scans from the last hop down: the winner is the *highest* hop
    /// that writes, so the first writer found from the top is it. Same
    /// answer as the forward scan, with half the hash evaluations in
    /// expectation (the winner is uniform over the path).
    pub fn reservoir_winner(&self, pid: u64, k: usize) -> usize {
        for hop in (2..=k).rev() {
            if self.reservoir_writes(pid, hop) {
                return hop;
            }
        }
        1
    }

    /// The XOR-layer participation test with probability `p` (§4.2).
    #[inline]
    pub fn xor_participates(&self, pid: u64, hop: usize, p: f64) -> bool {
        self.g.unit2(pid, hop as u64) < p
    }

    /// The value digest `h(value, pid)` truncated to `bits` bits.
    #[inline]
    pub fn value_digest(&self, value: u64, pid: u64, bits: u32) -> u64 {
        self.h.digest2(value, pid, bits)
    }
}

/// Computes the set of hops (1-based, `hop ≤ k`) that XOR onto packet
/// `pid` at probability `p`, using the near-linear "pseudo-random bit
/// vector" construction of §4.2 ("Reducing the Decoding Complexity").
///
/// `p` is rounded down to the nearest power of two `2^-t`; the acting set is
/// the bitwise-AND of `t` pseudo-random `k`-bit vectors, so membership of
/// all `k` hops is computed in `O(t)` word operations instead of `O(k)` hash
/// evaluations. Supports `k ≤ 128`.
pub fn acting_bitvec(family: &HashFamily, pid: u64, k: usize, p: f64) -> u128 {
    assert!(k <= 128, "bit-vector fast path supports k ≤ 128");
    let t = (-p.log2()).round().max(0.0) as u32;
    let mask = if k == 128 { !0u128 } else { (1u128 << k) - 1 };
    let mut acc = mask;
    for round in 0..t {
        let lo = family.g.hash3(pid, round as u64, 0);
        let hi = family.g.hash3(pid, round as u64, 1);
        acc &= (lo as u128) | ((hi as u128) << 64);
    }
    acc & mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = GlobalHash::new(42);
        let b = GlobalHash::new(42);
        assert_eq!(a.hash2(1, 2), b.hash2(1, 2));
        assert_eq!(a.unit1(99), b.unit1(99));
    }

    #[test]
    fn different_keys_differ() {
        let a = GlobalHash::new(1);
        let b = GlobalHash::new(2);
        let collisions = (0..1000u64).filter(|&x| a.hash1(x) == b.hash1(x)).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn unit_interval_is_uniform() {
        let h = GlobalHash::new(7);
        let n = 100_000u64;
        let mut buckets = [0u32; 10];
        for x in 0..n {
            let u = h.unit1(x);
            assert!((0.0..1.0).contains(&u));
            buckets[(u * 10.0) as usize] += 1;
        }
        for &b in &buckets {
            assert!((9_300..=10_700).contains(&b), "{buckets:?}");
        }
    }

    #[test]
    fn digest_bits_bounded_and_uniform() {
        let h = GlobalHash::new(3);
        let mut counts = [0u32; 16];
        for x in 0..160_000u64 {
            let d = h.digest2(x, 55, 4);
            assert!(d < 16);
            counts[d as usize] += 1;
        }
        for &c in &counts {
            assert!((9_300..=10_700).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn one_bit_digest_works() {
        let h = GlobalHash::new(11);
        let ones: u64 = (0..10_000u64).map(|x| h.digest2(x, x, 1)).sum();
        assert!((4_500..=5_500).contains(&ones));
    }

    #[test]
    fn derive_produces_independent_functions() {
        let root = GlobalHash::new(5);
        let a = root.derive(1);
        let b = root.derive(2);
        // Outputs should be uncorrelated: matching low bits ~50%.
        let matches = (0..10_000u64)
            .filter(|&x| (a.hash1(x) & 1) == (b.hash1(x) & 1))
            .count();
        assert!((4_600..=5_400).contains(&matches), "{matches}");
    }

    #[test]
    fn reservoir_winner_is_uniform_over_path() {
        let fam = HashFamily::new(123, 0);
        let k = 25;
        let mut counts = vec![0u32; k + 1];
        let trials = 100_000;
        for pid in 0..trials {
            counts[fam.reservoir_winner(pid, k)] += 1;
        }
        let expect = trials as f64 / k as f64;
        for hop in 1..=k {
            let c = counts[hop] as f64;
            assert!(
                (c - expect).abs() < expect * 0.12,
                "hop {hop}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn reservoir_winner_first_hop_for_k1() {
        let fam = HashFamily::new(9, 0);
        for pid in 0..100 {
            assert_eq!(fam.reservoir_winner(pid, 1), 1);
        }
    }

    #[test]
    fn xor_participation_rate_matches_p() {
        let fam = HashFamily::new(77, 1);
        let p = 0.1;
        let mut acting = 0u64;
        let total = 200_000;
        for pid in 0..total {
            if fam.xor_participates(pid, 5, p) {
                acting += 1;
            }
        }
        let rate = acting as f64 / total as f64;
        assert!((rate - p).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn instances_are_independent() {
        let f0 = HashFamily::new(42, 0);
        let f1 = HashFamily::new(42, 1);
        let k = 20;
        let same = (0..10_000u64)
            .filter(|&pid| f0.reservoir_winner(pid, k) == f1.reservoir_winner(pid, k))
            .count();
        // If independent: collision probability ≈ Σ 1/k² · ... ≈ 1/k = 5%.
        assert!(same < 800, "winners too correlated: {same}");
    }

    #[test]
    fn bitvec_matches_power_of_two_probability() {
        let fam = HashFamily::new(31, 0);
        let k = 64;
        let p = 1.0 / 8.0;
        let mut total_bits = 0u32;
        let trials = 20_000;
        for pid in 0..trials {
            total_bits += acting_bitvec(&fam, pid, k, p).count_ones();
        }
        let rate = total_bits as f64 / (trials * k as u64) as f64;
        assert!((rate - p).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn value_digest_distinguishes_values() {
        let fam = HashFamily::new(1, 0);
        // With 16-bit digests, two fixed distinct values should collide on
        // only ~1/65536 of packets.
        let collisions = (0..100_000u64)
            .filter(|&pid| fam.value_digest(10, pid, 16) == fam.value_digest(11, pid, 16))
            .count();
        assert!(collisions < 12, "collisions {collisions}");
    }
}
