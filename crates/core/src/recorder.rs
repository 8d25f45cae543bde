//! An object-safe facade over the per-flow Recording + Inference modules.
//!
//! The concrete recorders ([`DynamicRecorder`], [`PathDecoder`],
//! [`FrequentValuesRecorder`]) expose query-specific APIs. A collector
//! that multiplexes millions of flows across worker shards needs one
//! uniform, boxable interface: absorb a digest, account for memory, and
//! answer whichever inference queries the underlying recorder supports.
//! Unsupported queries return empty/`None` rather than panicking, so a
//! heterogeneous flow table (latency flows next to path-tracing flows) is
//! a `HashMap<FlowId, Box<dyn FlowRecorder>>` away.
//!
//! [`DynamicRecorder`]: crate::dynamic::DynamicRecorder
//! [`PathDecoder`]: crate::statictrace::PathDecoder
//! [`FrequentValuesRecorder`]: crate::dynamic::FrequentValuesRecorder

use crate::dynamic::{DynamicRecorder, FrequentValuesRecorder, HopStore};
use crate::image::{HopImage, ImageError, RecorderImage};
use crate::statictrace::PathDecoder;
use crate::value::Digest;
use pint_sketches::{ExactQuantiles, KllSketch};
use std::borrow::Cow;

/// Which aggregation a [`FlowRecorder`] implements (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecorderKind {
    /// Dynamic per-flow values → per-hop quantiles (§4.1, Example 1).
    LatencyQuantiles,
    /// Static per-flow values → path reconstruction (§3.2, Example 2).
    PathTracing,
    /// Dynamic per-flow values → per-hop heavy hitters (Theorem 2).
    FrequentValues,
}

/// Progress of a path-tracing flow, as reported by
/// [`FlowRecorder::path_progress`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathProgress {
    /// Hops resolved to a unique switch so far.
    pub resolved: usize,
    /// Total hops on the flow's path.
    pub k: usize,
    /// The reconstructed path (hop 1..k) once complete.
    pub path: Option<Vec<u64>>,
    /// Digests inconsistent with the inferred path (routing change
    /// signal, §7).
    pub inconsistencies: u64,
}

impl PathProgress {
    /// `true` once every hop is uniquely resolved.
    pub fn is_complete(&self) -> bool {
        self.resolved == self.k
    }
}

/// The uniform per-flow Recording + Inference interface.
///
/// Object-safe: collectors hold `Box<dyn FlowRecorder>` per flow. All
/// query methods have defaults returning "not supported", so each
/// concrete recorder only overrides what it can answer.
pub trait FlowRecorder: Send {
    /// Absorbs one extracted digest for packet `pid`.
    fn absorb(&mut self, pid: u64, digest: &Digest);

    /// Packets absorbed so far.
    fn packets(&self) -> u64;

    /// Which aggregation this recorder implements.
    fn kind(&self) -> RecorderKind;

    /// Approximate bytes of recorder state held in memory — the quantity
    /// a collector's per-shard memory bound meters. Estimates are fine;
    /// they only need to scale with actual usage.
    fn state_bytes(&self) -> usize;

    /// ϕ-quantile of hop `hop`'s value stream, decompressed to value
    /// space. `None` when unsupported or no samples yet.
    fn quantile(&mut self, hop: usize, phi: f64) -> Option<f64> {
        let _ = (hop, phi);
        None
    }

    /// Per-hop sketches in *code space* (hop 1-based at index `hop`;
    /// index 0 unused), for cross-flow/cross-shard merging. Empty when
    /// unsupported. Borrowed where the recorder already keeps a KLL
    /// sketch per hop, so a reader that only encodes or merges them
    /// clones nothing; owned where one has to be built (exact and
    /// sliding stores).
    fn hop_sketches(&self) -> Vec<Cow<'_, KllSketch>> {
        Vec::new()
    }

    /// Path-reconstruction progress, for path-tracing recorders.
    fn path_progress(&self) -> Option<PathProgress> {
        None
    }

    /// Values appearing in ≥ `theta` of hop `hop`'s stream, with
    /// estimated fractions. Empty when unsupported.
    fn frequent(&self, hop: usize, theta: f64) -> Vec<(u64, f64)> {
        let _ = (hop, theta);
        Vec::new()
    }

    /// Digests contradicting the recorder's inference so far.
    fn inconsistencies(&self) -> u64 {
        0
    }

    /// The per-flow state as plain data: everything except the
    /// configuration the recorder factory supplies.
    fn image(&self) -> RecorderImage;

    /// Replaces the per-flow state with `image`, taken from a recorder
    /// the same factory built. A kind, path-length or configuration
    /// mismatch is an error that may leave the recorder partly loaded.
    fn load_image(&mut self, image: RecorderImage) -> Result<(), ImageError>;
}

/// Digest lane the single-query recorders read (the workspace convention:
/// single-query digests put the value in lane 0).
const LANE: usize = 0;

impl FlowRecorder for DynamicRecorder {
    fn absorb(&mut self, pid: u64, digest: &Digest) {
        self.record(pid, digest, LANE);
    }

    fn packets(&self) -> u64 {
        DynamicRecorder::packets(self)
    }

    fn kind(&self) -> RecorderKind {
        RecorderKind::LatencyQuantiles
    }

    fn state_bytes(&self) -> usize {
        // 8 bytes per retained sample, plus per hop the store's slot in
        // the hop list and the one level boundary that opens a young
        // sketch's buffer.
        self.stored_items() * 8 + (self.path_len() + 1) * (std::mem::size_of::<HopStore>() + 8)
    }

    fn quantile(&mut self, hop: usize, phi: f64) -> Option<f64> {
        // The inherent method asserts the hop range; the trait contract
        // is no-panic (rules may probe hops this flow's path lacks).
        if !(1..=self.path_len()).contains(&hop) {
            return None;
        }
        DynamicRecorder::quantile(self, hop, phi)
    }

    fn hop_sketches(&self) -> Vec<Cow<'_, KllSketch>> {
        (0..=self.path_len()).map(|h| self.hop_sketch(h)).collect()
    }

    fn image(&self) -> RecorderImage {
        let hop = |store: &HopStore| match store {
            HopStore::Exact(e) => HopImage::Exact(e.values().to_vec()),
            HopStore::Sketch(s) => HopImage::Sketch(s.clone()),
            HopStore::Sliding(s) => {
                let (chunks, head, head_count) = s.parts();
                HopImage::Sliding(chunks.to_vec(), head, head_count)
            }
        };
        RecorderImage::Latency(self.packets, self.hops.iter().map(hop).collect())
    }

    fn load_image(&mut self, image: RecorderImage) -> Result<(), ImageError> {
        let RecorderImage::Latency(packets, hops) = image else {
            return Err(image.mismatch(RecorderKind::LatencyQuantiles));
        };
        ImageError::check_len(self.k, hops.len())?;
        for (store, hop) in self.hops.iter_mut().zip(hops) {
            match (store, hop) {
                (HopStore::Exact(e), HopImage::Exact(values)) => {
                    *e = ExactQuantiles::new();
                    values.into_iter().for_each(|v| e.update(v));
                }
                (HopStore::Sketch(s), HopImage::Sketch(i)) if i.accuracy_k() == s.accuracy_k() => {
                    *s = i;
                }
                (HopStore::Sliding(s), HopImage::Sliding(chunks, head, n)) => {
                    s.load_parts(chunks, head, n).map_err(ImageError::Invalid)?;
                }
                _ => return Err(ImageError::Invalid("hop store differs from the factory's")),
            }
        }
        self.packets = packets;
        Ok(())
    }
}

impl FlowRecorder for PathDecoder {
    fn absorb(&mut self, pid: u64, digest: &Digest) {
        PathDecoder::absorb(self, pid, digest);
    }

    fn packets(&self) -> u64 {
        PathDecoder::packets(self)
    }

    fn kind(&self) -> RecorderKind {
        RecorderKind::PathTracing
    }

    fn state_bytes(&self) -> usize {
        // Candidate sets dominate until the path resolves: ~8 bytes per
        // live candidate per hop, plus fixed per-hop bookkeeping.
        let k = self.path_len();
        let cands: usize = (1..=k).map(|h| self.candidates_left(h)).sum();
        cands * 8 + (k + 1) * 64
    }

    fn path_progress(&self) -> Option<PathProgress> {
        Some(PathProgress {
            resolved: self.resolved(),
            k: self.path_len(),
            path: self.path(),
            inconsistencies: PathDecoder::inconsistencies(self),
        })
    }

    fn inconsistencies(&self) -> u64 {
        PathDecoder::inconsistencies(self)
    }

    fn image(&self) -> RecorderImage {
        RecorderImage::Path(self.inner.image())
    }

    fn load_image(&mut self, image: RecorderImage) -> Result<(), ImageError> {
        let RecorderImage::Path(path) = image else {
            return Err(image.mismatch(RecorderKind::PathTracing));
        };
        self.inner.load_image(path)
    }
}

impl FlowRecorder for FrequentValuesRecorder {
    fn absorb(&mut self, pid: u64, digest: &Digest) {
        self.record(pid, digest, LANE);
    }

    fn packets(&self) -> u64 {
        FrequentValuesRecorder::packets(self)
    }

    fn kind(&self) -> RecorderKind {
        RecorderKind::FrequentValues
    }

    fn state_bytes(&self) -> usize {
        // Space-Saving: (value, count) pairs per hop.
        self.stored_counters() * 16 + (self.path_len() + 1) * 32
    }

    fn frequent(&self, hop: usize, theta: f64) -> Vec<(u64, f64)> {
        // The inherent method asserts the hop range; the trait contract
        // is no-panic (rules may probe hops this flow's path lacks).
        if !(1..=self.path_len()).contains(&hop) {
            return Vec::new();
        }
        FrequentValuesRecorder::frequent(self, hop, theta)
    }

    fn image(&self) -> RecorderImage {
        let hops = self.hops.iter().map(|h| (h.count(), h.counters()));
        RecorderImage::Frequent(self.packets, hops.collect())
    }

    fn load_image(&mut self, image: RecorderImage) -> Result<(), ImageError> {
        let RecorderImage::Frequent(packets, hops) = image else {
            return Err(image.mismatch(RecorderKind::FrequentValues));
        };
        ImageError::check_len(self.k, hops.len())?;
        for (summary, (n, counters)) in self.hops.iter_mut().zip(hops) {
            summary.load(n, counters).map_err(ImageError::Invalid)?;
        }
        self.packets = packets;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::DynamicAggregator;
    use crate::statictrace::{PathTracer, TracerConfig};

    fn latency_recorder() -> DynamicRecorder {
        let agg = DynamicAggregator::new(7, 8, 100.0, 1.0e7);
        DynamicRecorder::new_sketched(agg, 3, 256)
    }

    #[test]
    fn boxed_latency_recorder_round_trip() {
        let agg = DynamicAggregator::new(7, 8, 100.0, 1.0e7);
        let mut boxed: Box<dyn FlowRecorder> = Box::new(latency_recorder());
        for pid in 0..20_000u64 {
            let mut d = Digest::new(1);
            for hop in 1..=3 {
                agg.encode_hop(pid, hop, 1_000.0 * hop as f64, &mut d, 0);
            }
            boxed.absorb(pid, &d);
        }
        assert_eq!(boxed.kind(), RecorderKind::LatencyQuantiles);
        assert_eq!(boxed.packets(), 20_000);
        assert!(boxed.state_bytes() > 0);
        let q = boxed.quantile(2, 0.5).expect("has samples");
        assert!((q / 2_000.0 - 1.0).abs() < 0.2, "median {q}");
        assert_eq!(boxed.hop_sketches().len(), 4);
        assert!(boxed.path_progress().is_none());
    }

    #[test]
    fn boxed_path_decoder_reports_progress() {
        let tracer = PathTracer::new(TracerConfig::paper(8, 2, 5));
        let universe: Vec<u64> = (0..40).collect();
        let path = [3u64, 17, 29];
        let mut boxed: Box<dyn FlowRecorder> = Box::new(tracer.decoder(universe, path.len()));
        let before = boxed.state_bytes();
        let mut pid = 0u64;
        while boxed
            .path_progress()
            .map(|p| !p.is_complete())
            .unwrap_or(false)
        {
            pid += 1;
            boxed.absorb(pid, &tracer.encode_path(pid, &path));
            assert!(pid < 100_000, "no convergence");
        }
        let progress = boxed.path_progress().unwrap();
        assert!(progress.is_complete());
        assert_eq!(progress.path.as_deref(), Some(&path[..]));
        assert_eq!(boxed.kind(), RecorderKind::PathTracing);
        // Candidate elimination shrinks the footprint estimate.
        assert!(boxed.state_bytes() < before);
        assert!(boxed.quantile(1, 0.5).is_none());
    }

    #[test]
    fn boxed_frequent_values_recorder() {
        let rec = FrequentValuesRecorder::new(11, 2, 16);
        let mut digests = Vec::new();
        for pid in 0..5_000u64 {
            let mut d = Digest::new(1);
            for hop in 1..=2 {
                rec.encode_hop(pid, hop, 7, &mut d, 0);
            }
            digests.push((pid, d));
        }
        let mut boxed: Box<dyn FlowRecorder> = Box::new(rec);
        for (pid, d) in &digests {
            boxed.absorb(*pid, d);
        }
        assert_eq!(boxed.kind(), RecorderKind::FrequentValues);
        let hh = boxed.frequent(1, 0.5);
        assert_eq!(hh.first().map(|&(v, _)| v), Some(7));
        assert!(boxed.frequent(2, 0.5).iter().any(|&(v, _)| v == 7));
        assert!(boxed.state_bytes() > 0);
    }
}
