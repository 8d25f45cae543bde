//! # PINT — Probabilistic In-band Network Telemetry
//!
//! A from-scratch reproduction of the PINT framework (Ben Basat et al.,
//! SIGCOMM 2020). PINT provides INT-like data-plane visibility while
//! bounding the per-packet overhead to a user-defined bit budget, by
//! probabilistically spreading telemetry information across the packets of
//! a flow.
//!
//! ## Architecture (paper Fig. 3)
//!
//! * The **Query Engine** ([`query`]) compiles user queries into an
//!   *execution plan*: a probability distribution over query sets whose
//!   cumulative bit budgets fit the global budget. All switches select the
//!   same set per packet via a global hash.
//! * The **Encoding Module** runs on switches and modifies a fixed-width
//!   [`value::Digest`] on each packet. Three aggregation types exist
//!   (§3.1): per-packet ([`perpacket`]), static per-flow
//!   ([`statictrace`], built on [`coding`]), and dynamic per-flow
//!   ([`dynamic`]).
//! * The **Recording Module** intercepts digests at the PINT sink and
//!   stores per-flow state off-switch ([`dynamic::DynamicRecorder`],
//!   [`statictrace::PathDecoder`]).
//! * The **Inference Module** answers queries from recorded data.
//!
//! ## Technique map (paper Table 3)
//!
//! | Use case           | Global hashes | Distributed coding | Value approx |
//! |--------------------|---------------|--------------------|--------------|
//! | Congestion control | —             | —                  | ✓ [`approx`] |
//! | Path tracing       | ✓ [`hash`]    | ✓ [`coding`]       | —            |
//! | Latency quantiles  | ✓ [`hash`]    | —                  | ✓ [`approx`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod coding;
pub mod dynamic;
pub mod hash;
pub mod image;
pub mod loopdetect;
pub mod perpacket;
pub mod query;
pub mod recorder;
pub mod report;
pub mod statictrace;
pub mod value;

pub use approx::{AdditiveCodec, MultiplicativeCodec};
pub use coding::{BlockDecoder, FragmentCodec, HashedDecoder, LncDecoder, SchemeConfig};
pub use dynamic::{DynamicAggregator, DynamicRecorder, FrequentValuesRecorder};
pub use hash::{GlobalHash, HashFamily};
pub use image::{HopImage, ImageError, PathImage, RecorderImage};
pub use loopdetect::{LoopDetector, LoopState, LoopVerdict};
pub use perpacket::{EventCounter, PerPacketAggregator, PerPacketOp};
pub use query::{AggregationKind, ExecutionPlan, QueryEngine, QuerySpec};
pub use recorder::{FlowRecorder, PathProgress, RecorderKind};
pub use report::DigestReport;
pub use statictrace::{PathDecoder, PathTracer, TracerConfig};
pub use value::{Digest, MetadataKind, TelemetryValue};

/// A packet identifier — any value unique per packet that all switches can
/// derive from headers (IPID, TCP sequence numbers, etc.; §4.1 and \[21\]).
pub type PacketId = u64;
