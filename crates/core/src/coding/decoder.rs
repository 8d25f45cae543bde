//! Sink-side decoder for hashed static per-flow aggregation (§4.2).
//!
//! When a value (e.g. a 32-bit switch ID) does not fit the bit budget,
//! encoders write `h(M_i, p_j)` — a per-packet `b`-bit hash of their value —
//! instead of the value itself. The Inference Module knows the possible
//! value set `V` (e.g. all switch IDs in the network) and, for each hop,
//! eliminates candidates inconsistent with the observed digests:
//!
//! * a **Baseline** packet from hop `i` requires `h(M_i, p) = p.dig`;
//! * an **XOR** packet whose acting set has exactly one unknown hop `i`
//!   requires `h(M_i, p) = p.dig ⊕ (XOR of known-hop hashes)`.
//!
//! Once a hop's candidate set shrinks to one value, every stored XOR
//! constraint mentioning it is simplified; constraints that become "unit"
//! trigger further eliminations (a worklist fixpoint — this is the
//! propagation the paper describes with the `M₅ = p.dig ⊕ M₁ ⊕ M₆`
//! example).

use super::schemes::{PacketRole, SchemeConfig};
use crate::hash::HashFamily;
use crate::image::{ImageError, PathImage};
use crate::value::Digest;

/// A stored XOR constraint (≥ 2 unresolved hops when stored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorConstraint {
    /// Which query instance (hash family / digest lane) produced it.
    pub instance: usize,
    /// Packet ID, needed to re-evaluate `h(v, pid)`.
    pub pid: u64,
    /// Digest XOR the hashes of all already-resolved acting hops.
    pub residual: u64,
    /// Acting hops not yet resolved.
    pub unresolved: Vec<usize>,
}

/// Decoder state for one flow's path: absorbs `(packet id, digest)` pairs
/// and converges on the unique value per hop.
#[derive(Debug, Clone)]
pub struct HashedDecoder {
    scheme: SchemeConfig,
    families: Vec<HashFamily>,
    bits: u32,
    value_set: Vec<u64>,
    k: usize,
    /// Per hop: the remaining possible values, `None` while no
    /// constraint has been observed (any value in `V` is possible).
    cand: Vec<Option<Vec<u64>>>,
    resolved_value: Vec<Option<u64>>,
    resolved_count: usize,
    constraints: Vec<XorConstraint>,
    /// hop → indices of constraints watching it.
    watching: Vec<Vec<usize>>,
    packets: u64,
    inconsistencies: u64,
    /// Optional topology knowledge: value → possible neighbor values.
    /// When hop `h` resolves, hops `h±1` are restricted to the neighbors —
    /// the Inference Module knows the network graph, so consecutive path
    /// switches must be adjacent. Purely decoder-side; no protocol change.
    adjacency: Option<std::collections::HashMap<u64, Vec<u64>>>,
}

impl HashedDecoder {
    /// Creates a decoder for a `k`-hop path whose per-hop values come from
    /// `value_set`, with one [`HashFamily`] per query instance and `bits`
    /// digest bits per instance.
    pub fn new(
        scheme: SchemeConfig,
        families: Vec<HashFamily>,
        bits: u32,
        value_set: Vec<u64>,
        k: usize,
    ) -> Self {
        assert!(k >= 1, "path must have at least one hop");
        assert!(!families.is_empty(), "need at least one instance");
        assert!((1..=64).contains(&bits));
        Self {
            scheme,
            families,
            bits,
            value_set,
            k,
            cand: vec![None; k + 1],
            resolved_value: vec![None; k + 1],
            resolved_count: 0,
            constraints: Vec::new(),
            watching: vec![Vec::new(); k + 1],
            packets: 0,
            inconsistencies: 0,
            adjacency: None,
        }
    }

    /// Supplies the network graph: `neighbors[v]` lists the switch IDs
    /// adjacent to `v`. Enables adjacency propagation (resolving one hop
    /// prunes its neighbors' candidate sets), which is how an Inference
    /// Module with topology knowledge decodes chain-like ISP paths with
    /// far fewer packets.
    pub fn set_adjacency(&mut self, neighbors: std::collections::HashMap<u64, Vec<u64>>) {
        self.adjacency = Some(neighbors);
    }

    /// Hops resolved so far.
    pub fn resolved(&self) -> usize {
        self.resolved_count
    }

    /// Path length (`k`) this decoder was built for.
    pub fn path_len(&self) -> usize {
        self.k
    }

    /// `true` once every hop has a unique value.
    pub fn is_complete(&self) -> bool {
        self.resolved_count == self.k
    }

    /// Packets absorbed.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Number of digests that contradicted the inferred path so far.
    ///
    /// Nonzero values indicate a routing change / multipath flow (§7): a
    /// Baseline packet disagrees with an already-resolved hop with
    /// probability `1 − 2^−b` after a path change.
    pub fn inconsistencies(&self) -> u64 {
        self.inconsistencies
    }

    /// The decoded path (hop 1..k), if complete.
    pub fn decoded_path(&self) -> Option<Vec<u64>> {
        if !self.is_complete() {
            return None;
        }
        Some(
            (1..=self.k)
                .map(|h| self.resolved_value[h].expect("complete"))
                .collect(),
        )
    }

    /// The value decoded for `hop` (1-based), if resolved.
    pub fn hop_value(&self, hop: usize) -> Option<u64> {
        self.resolved_value[hop]
    }

    /// Number of remaining candidates for `hop` (1-based).
    pub fn candidates_left(&self, hop: usize) -> usize {
        self.cand[hop]
            .as_ref()
            .map_or(self.value_set.len(), Vec::len)
    }

    /// The decoder's per-flow state (see [`PathImage`]).
    pub fn image(&self) -> PathImage {
        let hops = self
            .cand
            .iter()
            .cloned()
            .zip(self.resolved_value.iter().copied());
        PathImage {
            packets: self.packets,
            inconsistencies: self.inconsistencies,
            hops: hops.collect(),
            constraints: self.constraints.clone(),
        }
    }

    /// Replaces the per-flow state with `image` and rebuilds the watch
    /// lists: hop `h` watches every constraint still naming it, in
    /// arrival order — exactly the lists absorbing built.
    pub fn load_image(&mut self, image: PathImage) -> Result<(), ImageError> {
        ImageError::check_len(self.k, image.hops.len())?;
        let k = self.k;
        let bad_hop = |h: &usize| !(1..=k).contains(h);
        if image.hops[0].1.is_some()
            || image
                .constraints
                .iter()
                .any(|c| c.instance >= self.families.len() || c.unresolved.iter().any(bad_hop))
        {
            return Err(ImageError::Invalid("path image names an impossible hop"));
        }
        self.watching = vec![Vec::new(); k + 1];
        for (i, c) in image.constraints.iter().enumerate() {
            for &h in &c.unresolved {
                self.watching[h].push(i);
            }
        }
        (self.cand, self.resolved_value) = image.hops.into_iter().unzip();
        self.resolved_count = self.resolved_value.iter().flatten().count();
        self.constraints = image.constraints;
        self.packets = image.packets;
        self.inconsistencies = image.inconsistencies;
        Ok(())
    }

    #[inline]
    fn digest_of(&self, instance: usize, value: u64, pid: u64) -> u64 {
        self.families[instance].value_digest(value, pid, self.bits)
    }

    /// Absorbs one packet; returns `true` if the path is now fully decoded.
    pub fn absorb(&mut self, pid: u64, digest: &Digest) -> bool {
        assert_eq!(
            digest.lanes(),
            self.families.len(),
            "lane/instance mismatch"
        );
        self.packets += 1;
        for t in 0..self.families.len() {
            let lane = digest.get(t);
            match self.scheme.classify(&self.families[t], pid, self.k) {
                PacketRole::Baseline { writer } => {
                    self.apply_filter(writer, t, pid, lane);
                }
                PacketRole::Xor { acting } => {
                    let mut residual = lane;
                    let mut unresolved = Vec::new();
                    for hop in acting {
                        match self.resolved_value[hop] {
                            Some(v) => residual ^= self.digest_of(t, v, pid),
                            None => unresolved.push(hop),
                        }
                    }
                    match unresolved.len() {
                        0 => {
                            if residual != 0 {
                                self.inconsistencies += 1;
                            }
                        }
                        1 => self.apply_filter(unresolved[0], t, pid, residual),
                        _ => {
                            let idx = self.constraints.len();
                            for &h in &unresolved {
                                self.watching[h].push(idx);
                            }
                            self.constraints.push(XorConstraint {
                                instance: t,
                                pid,
                                residual,
                                unresolved,
                            });
                        }
                    }
                }
            }
        }
        self.is_complete()
    }

    /// Restricts `hop` to values whose per-packet hash equals `target`.
    fn apply_filter(&mut self, hop: usize, instance: usize, pid: u64, target: u64) {
        if let Some(v) = self.resolved_value[hop] {
            if self.digest_of(instance, v, pid) != target {
                self.inconsistencies += 1;
            }
            return;
        }
        let set = match self.cand[hop].take() {
            None => self
                .value_set
                .iter()
                .copied()
                .filter(|&v| self.digest_of(instance, v, pid) == target)
                .collect::<Vec<u64>>(),
            Some(mut s) => {
                s.retain(|&v| self.digest_of(instance, v, pid) == target);
                s
            }
        };
        match set.len() {
            0 => {
                // All candidates eliminated: contradictory evidence.
                self.inconsistencies += 1;
                self.cand[hop] = None;
            }
            1 => {
                let v = set[0];
                self.cand[hop] = Some(set);
                self.resolve(hop, v);
            }
            _ => self.cand[hop] = Some(set),
        }
    }

    /// Marks `hop = v` and simplifies all constraints watching it.
    fn resolve(&mut self, hop: usize, v: u64) {
        debug_assert!(self.resolved_value[hop].is_none());
        self.resolved_value[hop] = Some(v);
        self.resolved_count += 1;
        // Topology propagation: the neighbors of hop h on the path must be
        // adjacent to v in the graph.
        if self.adjacency.is_some() {
            for adj in [hop.wrapping_sub(1), hop + 1] {
                if (1..=self.k).contains(&adj) && self.resolved_value[adj].is_none() {
                    self.restrict_to_neighbors(adj, v);
                }
            }
        }
        let watchers = std::mem::take(&mut self.watching[hop]);
        let mut unit = Vec::new();
        for ci in watchers {
            let c = &mut self.constraints[ci];
            let before = c.unresolved.len();
            c.unresolved.retain(|&x| x != hop);
            if c.unresolved.len() < before {
                let d = self.families[c.instance].value_digest(v, c.pid, self.bits);
                c.residual ^= d;
                if c.unresolved.len() == 1 {
                    unit.push(ci);
                }
            }
        }
        for ci in unit {
            let (h2, t2, pid2, res2) = {
                let c = &self.constraints[ci];
                if c.unresolved.len() != 1 {
                    continue; // already discharged by a deeper resolve
                }
                (c.unresolved[0], c.instance, c.pid, c.residual)
            };
            self.apply_filter(h2, t2, pid2, res2);
        }
    }

    /// Intersects hop `hop`'s candidates with the neighbors of `v`.
    fn restrict_to_neighbors(&mut self, hop: usize, v: u64) {
        let Some(adj) = &self.adjacency else { return };
        let Some(neigh) = adj.get(&v) else { return };
        let set = match self.cand[hop].take() {
            None => neigh.clone(),
            Some(mut s) => {
                s.retain(|x| neigh.contains(x));
                s
            }
        };
        match set.len() {
            0 => {
                self.inconsistencies += 1;
                self.cand[hop] = None;
            }
            1 => {
                let w = set[0];
                self.cand[hop] = Some(set);
                self.resolve(hop, w);
            }
            _ => self.cand[hop] = Some(set),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::schemes::HopAction;

    /// Encode one packet exactly as the switches would (Algorithm 1).
    fn encode(
        scheme: &SchemeConfig,
        families: &[HashFamily],
        bits: u32,
        pid: u64,
        path: &[u64],
    ) -> Digest {
        let mut d = Digest::new(families.len());
        for (idx, &sw) in path.iter().enumerate() {
            let hop = idx + 1;
            for (t, fam) in families.iter().enumerate() {
                match scheme.hop_action(fam, pid, hop) {
                    HopAction::Keep => {}
                    HopAction::Overwrite => d.set(t, fam.value_digest(sw, pid, bits)),
                    HopAction::Xor => d.xor(t, fam.value_digest(sw, pid, bits)),
                }
            }
        }
        d
    }

    fn families(n: usize, seed: u64) -> Vec<HashFamily> {
        (0..n).map(|t| HashFamily::new(seed, t as u64)).collect()
    }

    fn decode_path(
        scheme: SchemeConfig,
        bits: u32,
        instances: usize,
        path: &[u64],
        value_set: Vec<u64>,
        seed: u64,
        max_packets: u64,
    ) -> (u64, Vec<u64>) {
        let fams = families(instances, seed);
        let mut dec = HashedDecoder::new(scheme.clone(), fams.clone(), bits, value_set, path.len());
        let mut pid = seed.wrapping_mul(0x1234_5677).wrapping_add(1);
        loop {
            pid = pid.wrapping_add(1);
            let d = encode(&scheme, &fams, bits, pid, path);
            if dec.absorb(pid, &d) {
                return (dec.packets(), dec.decoded_path().unwrap());
            }
            assert!(
                dec.packets() < max_packets,
                "no convergence after {max_packets} packets (resolved {}/{})",
                dec.resolved(),
                path.len()
            );
        }
    }

    #[test]
    fn decodes_small_path_single_instance() {
        let value_set: Vec<u64> = (0..100).map(|i| 1000 + i).collect();
        let path = vec![1003, 1042, 1077, 1001, 1099];
        let (packets, decoded) = decode_path(
            SchemeConfig::multilayer(5),
            8,
            1,
            &path,
            value_set,
            7,
            20_000,
        );
        assert_eq!(decoded, path);
        assert!(packets < 500, "took {packets} packets");
    }

    #[test]
    fn decodes_with_two_instances_faster() {
        let value_set: Vec<u64> = (0..753).collect();
        let path: Vec<u64> = (0..20).map(|i| (i * 37) % 753).collect();
        let mut tot1 = 0;
        let mut tot2 = 0;
        for seed in 1..=10u64 {
            let (p1, d1) = decode_path(
                SchemeConfig::multilayer(10),
                8,
                1,
                &path,
                value_set.clone(),
                seed,
                100_000,
            );
            let (p2, d2) = decode_path(
                SchemeConfig::multilayer(10),
                8,
                2,
                &path,
                value_set.clone(),
                seed,
                100_000,
            );
            assert_eq!(d1, path);
            assert_eq!(d2, path);
            tot1 += p1;
            tot2 += p2;
        }
        assert!(
            tot2 < tot1,
            "2 instances ({tot2}) not faster than 1 ({tot1})"
        );
    }

    #[test]
    fn decodes_with_one_bit_budget() {
        // b = 1: every constraint halves the candidate set; still decodes.
        let value_set: Vec<u64> = (0..64).collect();
        let path = vec![5, 9, 33];
        let (packets, decoded) = decode_path(
            SchemeConfig::multilayer(3),
            1,
            1,
            &path,
            value_set,
            11,
            200_000,
        );
        assert_eq!(decoded, path);
        assert!(packets > 10, "b=1 cannot decode this fast ({packets})");
    }

    #[test]
    fn repeated_switch_ids_on_path() {
        // The same switch may appear... it should still decode (values are
        // per-hop, not per-identity).
        let value_set: Vec<u64> = (0..50).collect();
        let path = vec![7, 7, 13, 7];
        let (_, decoded) = decode_path(
            SchemeConfig::multilayer(4),
            8,
            1,
            &path,
            value_set,
            3,
            50_000,
        );
        assert_eq!(decoded, path);
    }

    #[test]
    fn pure_baseline_decodes() {
        let value_set: Vec<u64> = (0..256).collect();
        let path: Vec<u64> = vec![10, 20, 30, 40, 50, 60, 70, 80];
        let (_, decoded) = decode_path(SchemeConfig::baseline(), 8, 1, &path, value_set, 5, 50_000);
        assert_eq!(decoded, path);
    }

    #[test]
    fn inconsistency_detected_after_path_change() {
        // Decode path A fully, then feed packets encoded on path B: the
        // decoder must flag inconsistencies (§7, routing changes).
        let scheme = SchemeConfig::multilayer(5);
        let fams = families(2, 21);
        let value_set: Vec<u64> = (0..100).collect();
        let path_a = vec![1, 2, 3, 4, 5];
        let path_b = vec![1, 2, 93, 94, 5];
        let mut dec = HashedDecoder::new(scheme.clone(), fams.clone(), 8, value_set, 5);
        let mut pid = 1u64;
        while !dec.absorb(pid, &encode(&scheme, &fams, 8, pid, &path_a)) {
            pid += 1;
            assert!(pid < 50_000);
        }
        assert_eq!(dec.inconsistencies(), 0);
        for extra in 0..200u64 {
            let p = pid + 1 + extra;
            dec.absorb(p, &encode(&scheme, &fams, 8, p, &path_b));
        }
        assert!(
            dec.inconsistencies() > 20,
            "path change not flagged: {}",
            dec.inconsistencies()
        );
    }

    #[test]
    fn candidate_counts_shrink() {
        let scheme = SchemeConfig::baseline();
        let fams = families(1, 9);
        let value_set: Vec<u64> = (0..1000).collect();
        let path = vec![17, 450, 999];
        let mut dec = HashedDecoder::new(scheme.clone(), fams.clone(), 4, value_set, 3);
        let mut shrunk = false;
        for pid in 0..200u64 {
            dec.absorb(pid, &encode(&scheme, &fams, 4, pid, &path));
            for hop in 1..=3 {
                if dec.candidates_left(hop) < 1000 {
                    shrunk = true;
                }
            }
            if dec.is_complete() {
                break;
            }
        }
        assert!(shrunk);
        assert!(dec.is_complete());
        assert_eq!(dec.decoded_path().unwrap(), path);
    }

    #[test]
    fn hop_value_resolution_order_is_valid() {
        let scheme = SchemeConfig::multilayer(10);
        let fams = families(1, 2);
        let value_set: Vec<u64> = (0..200).collect();
        let path: Vec<u64> = (0..10).map(|i| i * 13 % 200).collect();
        let mut dec = HashedDecoder::new(scheme.clone(), fams.clone(), 8, value_set, 10);
        for pid in 0..100_000u64 {
            if dec.absorb(pid, &encode(&scheme, &fams, 8, pid, &path)) {
                break;
            }
        }
        for hop in 1..=10 {
            assert_eq!(dec.hop_value(hop), Some(path[hop - 1]));
        }
    }
}
