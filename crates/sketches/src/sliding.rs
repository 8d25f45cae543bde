//! Sliding-window quantile estimation via chunked KLL sketches.
//!
//! The paper notes (§4.1) that the Recording Module "can use a
//! sliding-window sketch (e.g., \[5, 11, 13\]) to reflect only the most recent
//! measurements". This module implements the standard chunking reduction: the
//! window of the last `W` items is covered by a ring of `B` sub-sketches,
//! each summarizing `W/B` consecutive items; queries merge the live chunks.
//! The window is honoured to within one chunk (`W/B` items).

use crate::kll::KllSketch;

/// A sliding-window quantile sketch over the last `window` items.
#[derive(Debug, Clone)]
pub struct SlidingKll {
    chunks: Vec<KllSketch>,
    /// Index of the chunk currently being filled.
    head: usize,
    /// Items inserted into the head chunk so far.
    head_count: u64,
    /// Items per chunk.
    chunk_size: u64,
    /// Number of full chunks covering the window.
    buckets: usize,
    /// Effective window size (a multiple of the chunk size).
    window: u64,
    k: usize,
}

impl SlidingKll {
    /// Creates a sliding sketch covering the last `window` items using
    /// `buckets` sub-sketches of accuracy `k`.
    pub fn new(window: u64, buckets: usize, k: usize) -> Self {
        assert!(buckets >= 2, "need at least 2 buckets");
        assert!(window >= buckets as u64, "window smaller than bucket count");
        let chunk_size = window / buckets as u64;
        Self {
            chunks: vec![KllSketch::new(k)],
            head: 0,
            head_count: 0,
            chunk_size,
            buckets,
            window: chunk_size * buckets as u64,
            k,
        }
    }

    /// Number of sub-sketches retained: `buckets` full chunks plus the one
    /// being filled, so the merged view always covers ≥ `window` items.
    fn max_chunks(&self) -> usize {
        self.buckets + 1
    }

    /// The effective window size in items.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Inserts a value.
    pub fn update(&mut self, v: u64) {
        if self.head_count >= self.chunk_size {
            // Seal the head chunk and start a new one, evicting the oldest
            // if the ring is full.
            self.head = (self.head + 1) % self.max_chunks();
            if self.head < self.chunks.len() {
                self.chunks[self.head] = KllSketch::new(self.k);
            } else {
                self.chunks.push(KllSketch::new(self.k));
            }
            self.head_count = 0;
        }
        self.chunks[self.head].update(v);
        self.head_count += 1;
    }

    /// Estimated ϕ-quantile over (approximately) the last `window` items.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        let mut merged: Option<KllSketch> = None;
        for c in &self.chunks {
            if c.is_empty() {
                continue;
            }
            match &mut merged {
                None => merged = Some(c.clone()),
                Some(m) => m.merge(c),
            }
        }
        merged.and_then(|m| m.quantile(phi))
    }

    /// Total items currently summarized (≤ window + one chunk).
    pub fn covered_items(&self) -> u64 {
        self.chunks.iter().map(|c| c.count()).sum()
    }

    /// Items physically retained across the chunk sketches — the memory
    /// footprint, as opposed to [`covered_items`](Self::covered_items)
    /// which counts the (much larger) summarized stream span.
    pub fn stored_items(&self) -> usize {
        self.chunks.iter().map(|c| c.stored_items()).sum()
    }

    /// The window state apart from the configuration: the chunk
    /// sketches, the head chunk's index and the items in it.
    pub fn parts(&self) -> (&[KllSketch], usize, u64) {
        (&self.chunks, self.head, self.head_count)
    }

    /// Replaces the window state with [`parts`](Self::parts) taken from
    /// a sketch of the same configuration; rejects parts it cannot hold.
    pub fn load_parts(
        &mut self,
        chunks: Vec<KllSketch>,
        head: usize,
        head_count: u64,
    ) -> Result<(), &'static str> {
        if head >= chunks.len()
            || chunks.len() > self.max_chunks()
            || head_count > self.chunk_size
            || chunks.iter().any(|c| c.accuracy_k() != self.k)
        {
            return Err("sliding-window state does not fit this configuration");
        }
        (self.chunks, self.head, self.head_count) = (chunks, head, head_count);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_recent_distribution() {
        // First 50k items are small, last 50k are large: a window covering
        // only the recent items must report a large median.
        let mut s = SlidingKll::new(10_000, 10, 128);
        for _ in 0..50_000 {
            s.update(10);
        }
        for _ in 0..50_000 {
            s.update(1_000_000);
        }
        let med = s.quantile(0.5).unwrap();
        assert_eq!(med, 1_000_000, "old items leaked into the window");
    }

    #[test]
    fn window_coverage_bounded() {
        let mut s = SlidingKll::new(10_000, 10, 64);
        for v in 0..100_000u64 {
            s.update(v);
        }
        let covered = s.covered_items();
        assert!(covered >= 9_000, "covers too little: {covered}");
        assert!(covered <= 12_000, "covers too much: {covered}");
    }

    #[test]
    fn quantile_accuracy_within_window() {
        let mut s = SlidingKll::new(20_000, 10, 256);
        // Uniform 0..20000 repeated; the window always holds ~uniform data.
        for round in 0..5 {
            for v in 0..20_000u64 {
                s.update((v * 7919 + round) % 20_000);
            }
        }
        let med = s.quantile(0.5).unwrap();
        assert!((med as i64 - 10_000).unsigned_abs() < 1_500, "median {med}");
    }

    #[test]
    fn empty_window() {
        let s = SlidingKll::new(1000, 4, 32);
        assert!(s.quantile(0.5).is_none());
    }
}
