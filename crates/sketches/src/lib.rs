//! Streaming sketches used by the PINT telemetry framework.
//!
//! The PINT paper (SIGCOMM 2020) relies on a handful of classic streaming
//! data structures for its Recording and Inference modules:
//!
//! * [`KllSketch`] — the KLL quantile sketch of Karnin, Lang and Liberty
//!   (FOCS 2016), used by the Recording Module to summarize sampled per-hop
//!   latency streams with bounded space (`PINT_S` in §6.2 / Fig. 9).
//! * [`SpaceSaving`] — the Space-Saving heavy-hitters algorithm of Metwally
//!   et al. (ICDT 2005), used for the "frequent values" dynamic aggregation
//!   (Theorem 2 / Appendix A.1).
//! * [`MorrisCounter`] — Morris' randomized counter (CACM 1978), the
//!   "randomized counting" value-approximation of §4.3.
//! * [`SlidingKll`] — a sliding-window quantile estimator built from chunked
//!   KLL sketches, reflecting the paper's note that "we can use a
//!   sliding-window sketch to reflect only the most recent measurements".
//! * [`ExactQuantiles`] — an exact (store-everything) baseline used by tests
//!   and by the evaluation harness to compute ground-truth quantiles.
//!
//! PINT's distributed reservoir sampling (§4.1) is a hash rule applied on
//! the switches, not a stored sample, so it lives beside the other global
//! hashes in `pint_core::hash` (`HashFamily::reservoir_winner`).
//!
//! All structures are deterministic given an explicit seed, which the
//! reproduction harness relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod kll;
pub mod morris;
pub mod sliding;
pub mod spacesaving;

pub use exact::ExactQuantiles;
pub use kll::KllSketch;
pub use morris::MorrisCounter;
pub use sliding::SlidingKll;
pub use spacesaving::SpaceSaving;
