//! Recorder images: one flow recorder's state as plain data.
//!
//! A collector checkpoint stores each flow's image. Restore takes a
//! fresh recorder from the factory, which supplies the configuration
//! (aggregator, value universe, adjacency, capacities), and loads the
//! image into it; the result answers and evolves exactly like the
//! imaged recorder. `pint-wire` owns the byte codec.

use crate::coding::decoder::XorConstraint;
use crate::recorder::RecorderKind;
use pint_sketches::KllSketch;
use std::fmt;

/// One flow recorder's state without its configuration. Per-hop
/// vectors include hop 0, so their length is the path length `k` + 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecorderImage {
    /// A [`DynamicRecorder`](crate::DynamicRecorder): packets absorbed
    /// and each hop's sample store.
    Latency(u64, Vec<HopImage>),
    /// A [`PathDecoder`](crate::PathDecoder).
    Path(PathImage),
    /// A [`FrequentValuesRecorder`](crate::FrequentValuesRecorder):
    /// packets absorbed and, per hop, the Space-Saving stream length and
    /// `(value, count, error)` counters ascending by value.
    Frequent(u64, Vec<(u64, Vec<(u64, u64, u64)>)>),
}

/// One hop's sample store in a latency image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HopImage {
    /// Every sample, in stored order.
    Exact(Vec<u64>),
    /// The KLL sketch, coin state included.
    Sketch(KllSketch),
    /// A sliding window: chunk sketches, the head chunk's index and the
    /// items in it.
    Sliding(Vec<KllSketch>, usize, u64),
}

/// A path decoder's state; watch lists and the resolved count are
/// derived on load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathImage {
    /// Packets absorbed.
    pub packets: u64,
    /// Digests that contradicted the inference.
    pub inconsistencies: u64,
    /// Per hop: the remaining candidates (`None` while any value of the
    /// universe is possible) and the resolved value.
    pub hops: Vec<(Option<Vec<u64>>, Option<u64>)>,
    /// Stored XOR constraints, in arrival order.
    pub constraints: Vec<XorConstraint>,
}

impl RecorderImage {
    /// Which recorder kind produced the image.
    pub fn kind(&self) -> RecorderKind {
        match self {
            RecorderImage::Latency(..) => RecorderKind::LatencyQuantiles,
            RecorderImage::Path(_) => RecorderKind::PathTracing,
            RecorderImage::Frequent(..) => RecorderKind::FrequentValues,
        }
    }

    /// The imaged recorder's path length `k`.
    pub fn path_len(&self) -> usize {
        let hops = match self {
            RecorderImage::Latency(_, hops) => hops.len(),
            RecorderImage::Path(p) => p.hops.len(),
            RecorderImage::Frequent(_, hops) => hops.len(),
        };
        hops.saturating_sub(1)
    }

    /// The error for loading this image into a recorder of `expected`.
    pub(crate) fn mismatch(&self, expected: RecorderKind) -> ImageError {
        let found = self.kind();
        ImageError::KindMismatch { expected, found }
    }
}

/// Why a recorder refused an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The image comes from another recorder kind.
    KindMismatch {
        /// The loading recorder's kind.
        expected: RecorderKind,
        /// The image's kind.
        found: RecorderKind,
    },
    /// The image's path length `k` differs from the recorder's.
    PathLenMismatch {
        /// The loading recorder's `k`.
        expected: usize,
        /// The image's `k`.
        found: usize,
    },
    /// The image contradicts the recorder's configuration or its own
    /// invariants.
    Invalid(&'static str),
}

impl ImageError {
    /// Errors unless `hops` per-hop entries fit path length `expected`.
    pub(crate) fn check_len(expected: usize, hops: usize) -> Result<(), ImageError> {
        let found = hops.saturating_sub(1);
        if hops == expected + 1 {
            return Ok(());
        }
        Err(ImageError::PathLenMismatch { expected, found })
    }
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::KindMismatch { expected, found } => {
                write!(f, "image of a {found:?} recorder, expected {expected:?}")
            }
            ImageError::PathLenMismatch { expected, found } => {
                write!(f, "image path length {found}, expected {expected}")
            }
            ImageError::Invalid(what) => write!(f, "invalid image: {what}"),
        }
    }
}

impl std::error::Error for ImageError {}
