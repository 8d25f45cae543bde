//! Fleet-tier errors.

use pint_store::StoreError;
use pint_wire::{FrameType, WireError};
use std::fmt;

/// Errors surfaced by the fleet aggregator and transports.
#[derive(Debug)]
pub enum FleetError {
    /// A frame failed to decode (malformed, truncated, wrong version).
    Wire(WireError),
    /// A transport-level I/O failure.
    Io(std::io::Error),
    /// A well-formed frame of a type this aggregator does not ingest —
    /// e.g. a `Query`, which only the serving transport can answer, or
    /// a `BatchAck`, which only the sending
    /// [`DigestForwarder`](crate::DigestForwarder) consumes. Counted in
    /// [`FleetStats::unsupported_frames`](crate::FleetStats).
    UnsupportedFrame(FrameType),
    /// A journal record could not be read back during
    /// [`FleetAggregator::restore`](crate::FleetAggregator::restore).
    Store(StoreError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Wire(e) => write!(f, "fleet frame decode failed: {e}"),
            FleetError::Io(e) => write!(f, "fleet transport failed: {e}"),
            FleetError::Store(e) => write!(f, "fleet journal read failed: {e}"),
            FleetError::UnsupportedFrame(ty) => {
                write!(
                    f,
                    "frame type {ty:?} is not ingestible by the fleet aggregator"
                )
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl From<WireError> for FleetError {
    fn from(e: WireError) -> Self {
        FleetError::Wire(e)
    }
}

impl From<StoreError> for FleetError {
    fn from(e: StoreError) -> Self {
        FleetError::Store(e)
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e)
    }
}
