//! The per-flow row every query tier exchanges.
//!
//! [`FlowSummary`] is the unit of the read path: shard workers export
//! one per tracked flow, collectors and fleet views merge them, and
//! [`QueryResult::Summaries`](crate::QueryResult::Summaries) rows carry
//! them back to callers (locally or over the wire). It lives in this
//! crate so every backend — and the wire codec — shares one definition.

use pint_core::{PathProgress, RecorderKind};
use pint_sketches::KllSketch;
use std::sync::Arc;

/// One flow's recorded state, as exported by a shard snapshot and
/// merged up through collector and fleet views.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSummary {
    /// Which aggregation the flow's recorder implements.
    pub kind: RecorderKind,
    /// Digests absorbed for this flow.
    pub packets: u64,
    /// Approximate recorder state bytes.
    pub state_bytes: usize,
    /// Latest sink timestamp for the flow (drives delta queries).
    pub last_ts: u64,
    /// Per-hop code-space sketches (latency flows; index = hop, 0 unused).
    ///
    /// Shared, not owned: a collector shard hands out the block its
    /// flow last published, so cloning a row (or a whole snapshot)
    /// costs one refcount increment per flow. Writers copy on write —
    /// [`merge`](Self::merge) never changes a block another row holds.
    pub hop_sketches: Arc<[KllSketch]>,
    /// Path-reconstruction progress (path-tracing flows).
    pub path: Option<PathProgress>,
    /// Digests contradicting the flow's inference.
    pub inconsistencies: u64,
}

impl FlowSummary {
    /// Folds `src` (another backend's view of the same flow) into
    /// `self`. This is the one associative flow-level merge every tier
    /// shares: fleet views fold collector rows with it, so a flow seen
    /// by several collectors merges the same way in every view.
    ///
    /// Counters saturate instead of wrapping: summaries come off the
    /// wire, and a hostile `u64::MAX` must not panic (overflow checks)
    /// or corrupt totals while a server holds its aggregator mutex.
    pub fn merge(&mut self, src: FlowSummary) {
        self.packets = self.packets.saturating_add(src.packets);
        self.state_bytes = self.state_bytes.saturating_add(src.state_bytes);
        self.last_ts = self.last_ts.max(src.last_ts);
        self.inconsistencies = self.inconsistencies.saturating_add(src.inconsistencies);
        merge_hops(&mut self.hop_sketches, &src.hop_sketches);
        self.path = match (self.path.take(), src.path) {
            (Some(a), Some(b)) => {
                // Keep the further-along reconstruction; inconsistency
                // counts accumulate across both observers.
                let total = a.inconsistencies.saturating_add(b.inconsistencies);
                let mut keep = if b.resolved > a.resolved { b } else { a };
                keep.inconsistencies = total;
                Some(keep)
            }
            (a, b) => a.or(b),
        };
    }
}

/// Folds `src`'s per-hop sketches into `dst`, hop by hop: a hop `dst`
/// lacks is taken from `src`, an empty one is replaced, and two
/// non-empty ones merge. `dst` is copied before the first write if
/// anything else holds it, and not at all when `src` adds nothing.
fn merge_hops(dst: &mut Arc<[KllSketch]>, src: &Arc<[KllSketch]>) {
    if dst.is_empty() {
        *dst = Arc::clone(src);
        return;
    }
    let shared = dst.len().min(src.len());
    if src.len() > dst.len() {
        let mut grown = dst.to_vec();
        grown.extend_from_slice(&src[shared..]);
        *dst = grown.into();
    }
    if src[..shared].iter().all(KllSketch::is_empty) {
        return;
    }
    for (d, s) in Arc::make_mut(dst).iter_mut().zip(&src[..shared]) {
        if s.is_empty() {
            continue;
        }
        if d.is_empty() {
            d.clone_from(s);
        } else {
            d.merge(s);
        }
    }
}
