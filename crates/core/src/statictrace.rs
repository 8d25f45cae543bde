//! Static per-flow aggregation: path tracing (paper §3.2, §4.2 Example 2).
//!
//! For values that are fixed per (flow, switch) pair — switch IDs being the
//! canonical case — PINT spreads the path over many packets using the
//! distributed coding schemes of [`crate::coding`] plus the hashing
//! technique: each acting switch writes/XORs `h(switch id, packet id)`
//! truncated to the query's bit budget.
//!
//! [`PathTracer`] is the switch-side Encoding Module: stateless, four
//! pipeline stages in the P4 realization (choose layer, compute `g`, hash
//! the switch ID, write the digest — §5). [`PathDecoder`] is the
//! Recording + Inference side: it reclassifies each packet from its ID and
//! eliminates candidate switch IDs until the path is unique.

use crate::coding::decoder::HashedDecoder;
use crate::coding::schemes::{HopAction, SchemeConfig};
use crate::hash::HashFamily;
use crate::value::Digest;

/// Configuration of a path-tracing query.
#[derive(Debug, Clone)]
pub struct TracerConfig {
    /// Per-instance digest width in bits (`b`); the paper evaluates
    /// `b ∈ {1, 4, 8}`.
    pub bits: u32,
    /// Number of independent instances (§4.2 "Multiple Instantiations");
    /// e.g. `2` with `bits = 8` is the paper's `2×(b=8)` configuration.
    pub instances: usize,
    /// The coding scheme; [`SchemeConfig::multilayer`] of the network
    /// diameter reproduces the paper's evaluation setting.
    pub scheme: SchemeConfig,
    /// Seed identifying the query's global hash family.
    pub seed: u64,
}

impl TracerConfig {
    /// The paper's Fig. 10 configurations: `b`-bit digests, `instances`
    /// independent hashes, multilayer scheme for typical path length `d`.
    pub fn paper(bits: u32, instances: usize, d: usize) -> Self {
        Self {
            bits,
            instances,
            scheme: SchemeConfig::multilayer(d),
            seed: 0x9172_0001,
        }
    }

    /// Total per-packet overhead in bits.
    pub fn total_bits(&self) -> u32 {
        self.bits * self.instances as u32
    }
}

/// Switch-side encoder for path tracing. Stateless; shared by all switches.
#[derive(Debug, Clone)]
pub struct PathTracer {
    config: TracerConfig,
    families: Vec<HashFamily>,
}

impl PathTracer {
    /// Builds the encoder (and the hash families all parties share).
    pub fn new(config: TracerConfig) -> Self {
        assert!(config.instances >= 1);
        assert!((1..=64).contains(&config.bits));
        let families = (0..config.instances)
            .map(|t| HashFamily::new(config.seed, t as u64))
            .collect();
        Self { config, families }
    }

    /// The configuration.
    pub fn config(&self) -> &TracerConfig {
        &self.config
    }

    /// The per-instance hash families (used by the decoder).
    pub fn families(&self) -> &[HashFamily] {
        &self.families
    }

    /// Creates a digest sized for this query (one lane per instance).
    pub fn new_digest(&self) -> Digest {
        Digest::new(self.config.instances)
    }

    /// Executes the Encoding Module at hop `hop` (1-based) for packet
    /// `pid`: the switch with ID `switch_id` updates `digest` in place
    /// (Algorithm 1).
    pub fn encode_hop(&self, pid: u64, hop: usize, switch_id: u64, digest: &mut Digest) {
        for (t, fam) in self.families.iter().enumerate() {
            match self.config.scheme.hop_action(fam, pid, hop) {
                HopAction::Keep => {}
                HopAction::Overwrite => {
                    digest.set(t, fam.value_digest(switch_id, pid, self.config.bits));
                }
                HopAction::Xor => {
                    digest.xor(t, fam.value_digest(switch_id, pid, self.config.bits));
                }
            }
        }
    }

    /// Convenience: encodes a whole path traversal of packet `pid`,
    /// returning the digest the PINT sink would extract.
    pub fn encode_path(&self, pid: u64, path: &[u64]) -> Digest {
        let mut d = self.new_digest();
        for (idx, &sw) in path.iter().enumerate() {
            self.encode_hop(pid, idx + 1, sw, &mut d);
        }
        d
    }

    /// Builds a decoder for one flow routed over a `k`-hop path, given the
    /// network's switch-ID universe `value_set`.
    pub fn decoder(&self, value_set: Vec<u64>, k: usize) -> PathDecoder {
        PathDecoder {
            inner: HashedDecoder::new(
                self.config.scheme.clone(),
                self.families.clone(),
                self.config.bits,
                value_set,
                k,
            ),
        }
    }

    /// Like [`Self::decoder`], additionally giving the Inference Module
    /// the network graph: consecutive path hops must be adjacent, so
    /// resolving one hop prunes its neighbors' candidates. This is how a
    /// real deployment decodes (the operator knows the topology) and what
    /// the paper's ISP evaluations imply.
    pub fn decoder_with_topology(
        &self,
        value_set: Vec<u64>,
        k: usize,
        adjacency: std::collections::HashMap<u64, Vec<u64>>,
    ) -> PathDecoder {
        let mut dec = self.decoder(value_set, k);
        dec.inner.set_adjacency(adjacency);
        dec
    }
}

/// Recording + Inference module for one flow's path.
///
/// Wraps [`HashedDecoder`] with the path-tracing vocabulary.
#[derive(Debug, Clone)]
pub struct PathDecoder {
    pub(crate) inner: HashedDecoder,
}

impl PathDecoder {
    /// Absorbs an extracted digest; `true` once the path is decoded.
    pub fn absorb(&mut self, pid: u64, digest: &Digest) -> bool {
        self.inner.absorb(pid, digest)
    }

    /// `true` once the full path is known.
    pub fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    /// The inferred path (switch IDs, hop 1..k), if complete.
    pub fn path(&self) -> Option<Vec<u64>> {
        self.inner.decoded_path()
    }

    /// Hops resolved so far.
    pub fn resolved(&self) -> usize {
        self.inner.resolved()
    }

    /// Packets absorbed so far.
    pub fn packets(&self) -> u64 {
        self.inner.packets()
    }

    /// Digests inconsistent with the inferred path — signal of a routing
    /// change or multipath flow (§7).
    pub fn inconsistencies(&self) -> u64 {
        self.inner.inconsistencies()
    }

    /// Path length (`k`) this decoder was built for.
    pub fn path_len(&self) -> usize {
        self.inner.path_len()
    }

    /// Remaining candidate switch IDs for `hop` (1-based).
    pub fn candidates_left(&self, hop: usize) -> usize {
        self.inner.candidates_left(hop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn trace_run(cfg: TracerConfig, path: &[u64], universe: Vec<u64>, pid0: u64) -> u64 {
        let tracer = PathTracer::new(cfg);
        let mut dec = tracer.decoder(universe, path.len());
        let mut pid = pid0;
        loop {
            pid = pid.wrapping_add(1);
            let digest = tracer.encode_path(pid, path);
            if dec.absorb(pid, &digest) {
                assert_eq!(dec.path().unwrap(), path);
                return dec.packets();
            }
            assert!(dec.packets() < 500_000, "no convergence");
        }
    }

    fn random_path(rng: &mut SmallRng, universe: &[u64], k: usize) -> Vec<u64> {
        let mut p: Vec<u64> = universe.to_vec();
        p.shuffle(rng);
        p.truncate(k);
        p
    }

    #[test]
    fn two_by_eight_bits_decodes_five_hops_quickly() {
        // FatTree-like: 80 switches, 5 hops, 2×(b=8). Paper Fig. 10c shows
        // ~10 packets on average at k=5.
        let universe: Vec<u64> = (0..80).collect();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut total = 0;
        let runs = 50;
        for r in 0..runs {
            let path = random_path(&mut rng, &universe, 5);
            total += trace_run(
                TracerConfig::paper(8, 2, 5),
                &path,
                universe.clone(),
                r * 7919,
            );
        }
        let avg = total as f64 / runs as f64;
        assert!(avg < 25.0, "avg packets {avg} too high for 2×(b=8), k=5");
        assert!(avg >= 5.0, "cannot decode 5 hops in fewer than 5 packets");
    }

    #[test]
    fn one_bit_budget_still_decodes() {
        let universe: Vec<u64> = (0..64).collect();
        let mut rng = SmallRng::seed_from_u64(2);
        let path = random_path(&mut rng, &universe, 5);
        let packets = trace_run(TracerConfig::paper(1, 1, 5), &path, universe, 17);
        // b=1 needs ~log2(64)=6 constraints per hop → noticeably more
        // packets, but bounded.
        assert!(packets > 20, "{packets}");
        assert!(packets < 5_000, "{packets}");
    }

    #[test]
    fn larger_budget_needs_fewer_packets() {
        let universe: Vec<u64> = (0..157).collect();
        let mut rng = SmallRng::seed_from_u64(3);
        let path = random_path(&mut rng, &universe, 12);
        let avg = |bits: u32, instances: usize| -> f64 {
            let runs = 20;
            (0..runs)
                .map(|r| {
                    trace_run(
                        TracerConfig::paper(bits, instances, 10),
                        &path,
                        universe.clone(),
                        r * 104_729,
                    ) as f64
                })
                .sum::<f64>()
                / runs as f64
        };
        let b1 = avg(1, 1);
        let b4 = avg(4, 1);
        let b8x2 = avg(8, 2);
        assert!(b4 < b1, "b=4 ({b4}) should beat b=1 ({b1})");
        assert!(b8x2 < b4, "2×(b=8) ({b8x2}) should beat b=4 ({b4})");
    }

    #[test]
    fn total_bits_accounting() {
        assert_eq!(TracerConfig::paper(8, 2, 10).total_bits(), 16);
        assert_eq!(TracerConfig::paper(4, 1, 10).total_bits(), 4);
        assert_eq!(TracerConfig::paper(1, 1, 10).total_bits(), 1);
    }

    #[test]
    fn encode_path_equals_manual_hops() {
        let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
        let path = [3u64, 9, 27];
        for pid in 0..200u64 {
            let d1 = tracer.encode_path(pid, &path);
            let mut d2 = tracer.new_digest();
            for (i, &sw) in path.iter().enumerate() {
                tracer.encode_hop(pid, i + 1, sw, &mut d2);
            }
            assert_eq!(d1, d2);
        }
    }
}
