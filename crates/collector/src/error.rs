//! Collector error types.

use std::fmt;

/// Errors surfaced by collector handles and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectorError {
    /// The collector's worker threads have shut down; the digest or
    /// request cannot be delivered.
    Disconnected,
    /// A shard did not answer a snapshot request (worker panicked or the
    /// collector is shutting down concurrently).
    SnapshotFailed {
        /// The shard that failed to answer.
        shard: usize,
    },
    /// A persisted checkpoint could not be loaded during
    /// [`Collector::restore`](crate::Collector::restore) — the store
    /// file's CRCs were intact but the payload is not a recorder-image
    /// checkpoint this build understands, or an image does not fit the
    /// recorder the factory builds for its flow.
    RestoreFailed {
        /// What failed to decode.
        reason: &'static str,
    },
}

impl fmt::Display for CollectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectorError::Disconnected => {
                write!(f, "collector is shut down; digest channel disconnected")
            }
            CollectorError::SnapshotFailed { shard } => {
                write!(f, "shard {shard} did not answer the snapshot request")
            }
            CollectorError::RestoreFailed { reason } => {
                write!(f, "restore failed: {reason}")
            }
        }
    }
}

impl std::error::Error for CollectorError {}

impl From<CollectorError> for pint_query::QueryError {
    /// Collector failures surface as backend errors of the unified
    /// query tier (stringified — `pint-query` has no collector
    /// dependency).
    fn from(e: CollectorError) -> Self {
        pint_query::QueryError::Backend(e.to_string())
    }
}
