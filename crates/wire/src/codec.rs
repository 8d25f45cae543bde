//! [`WireEncode`]/[`WireDecode`] impls for the leaf types shared by
//! every tier: digests, digest reports, KLL sketches, path progress,
//! recorder kinds and recorder images. Snapshot-level types live with
//! their owning crate (`pint-collector`), which composes these
//! primitives.

use crate::error::WireError;
use crate::rw::{WireReader, WireWriter};
use crate::{WireDecode, WireEncode, WireWalk};
use pint_core::coding::decoder::XorConstraint;
use pint_core::{
    Digest, DigestReport, HopImage, PathImage, PathProgress, RecorderImage, RecorderKind,
};
use pint_sketches::KllSketch;

impl WireEncode for Digest {
    /// Lane count (varint), then each lane as a fixed 8-byte
    /// little-endian word — lanes hold hash/XOR accumulators that use
    /// the full width, so varints would pessimize them.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.lanes() as u64);
        for i in 0..self.lanes() {
            w.put_u64(self.get(i));
        }
    }
}

impl WireDecode for Digest {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let lanes = r.get_count(8)?;
        let mut d = Digest::new(lanes);
        for i in 0..lanes {
            d.set(i, r.get_u64()?);
        }
        Ok(d)
    }
}

impl WireEncode for DigestReport {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.flow);
        w.put_varint(self.pid);
        w.put_varint(u64::from(self.path_len));
        w.put_varint(self.ts);
        self.digest.encode_into(out);
    }
}

impl WireDecode for DigestReport {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let [flow, pid, path_len, ts] = report_head(r)?;
        let digest = Digest::decode_from(r)?;
        Ok(DigestReport::new(flow, pid, digest, path_len as u16, ts))
    }
}

impl WireWalk for DigestReport {
    fn walk_from(r: &mut WireReader<'_>) -> Result<(), WireError> {
        report_head(r)?;
        // The lane count is all `Digest::decode_from` checks.
        let lanes = r.get_count(8)?;
        r.get_bytes(lanes * 8).map(drop)
    }
}

/// A report's `[flow, pid, path_len, ts]`, read by decode and walk.
fn report_head(r: &mut WireReader<'_>) -> Result<[u64; 4], WireError> {
    let flow = r.get_varint()?;
    let pid = r.get_varint()?;
    let path_len = r.get_varint()?;
    if path_len > u64::from(u16::MAX) {
        return Err(WireError::Invalid("path length exceeds u16"));
    }
    Ok([flow, pid, path_len, r.get_varint()?])
}

impl WireEncode for KllSketch {
    /// `k` (varint), coin state (8 bytes LE), stream length `n`
    /// (varint), level count (varint), then per level an item count
    /// (varint) and the items as varints — code-space values are small
    /// (paper: 8-bit budgets), so varints shrink them to 1 byte.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.accuracy_k() as u64);
        w.put_u64(self.coin_state());
        w.put_varint(self.count());
        let levels = self.levels();
        w.put_varint(levels.len() as u64);
        for level in levels {
            w.put_varint(level.len() as u64);
            for &v in level {
                w.put_varint(v);
            }
        }
    }
}

impl WireDecode for KllSketch {
    /// Two passes over the levels. The first is the walk: it reads each
    /// level's length, skips its items and vets the lengths, so the
    /// sketch's one buffer is allocated once, at its exact size, and
    /// only for a sketch whose items the payload holds. The second
    /// decodes each level's items straight into their place.
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (k, coin, n, num_levels) = kll_head(r)?;
        let mut items = r.clone();
        let mut lens = [0usize; 64];
        let lens = &mut lens[..num_levels];
        let size = kll_level_lens(r, k, n, lens)?;
        // The flat form `from_parts` takes: where each level starts,
        // then the items, top level first.
        let mut buf = vec![0u64; num_levels + size];
        let mut end = buf.len();
        for (h, &len) in lens.iter().enumerate() {
            let start = end - len;
            buf[h] = start as u64;
            // The count was read and checked by the first pass.
            items.get_varint()?;
            for slot in &mut buf[start..end] {
                *slot = items.get_varint()?;
            }
            end = start;
        }
        KllSketch::from_parts(k as usize, coin, n, num_levels, buf).map_err(WireError::Invalid)
    }
}

impl WireWalk for KllSketch {
    fn walk_from(r: &mut WireReader<'_>) -> Result<(), WireError> {
        let (k, _, n, num_levels) = kll_head(r)?;
        kll_level_lens(r, k, n, &mut [0; 64][..num_levels]).map(drop)
    }
}

/// A sketch's `(k, coin, n, level count)`, read by decode and walk.
fn kll_head(r: &mut WireReader<'_>) -> Result<(u64, u64, u64, usize), WireError> {
    let k = r.get_varint()?;
    if k > u32::MAX as u64 {
        return Err(WireError::Invalid(
            "KLL accuracy parameter implausibly large",
        ));
    }
    let coin = r.get_u64()?;
    let n = r.get_varint()?;
    let num_levels = r.get_count(1)?;
    // `from_parts` caps levels at 64 (a u64 cannot weight level 64).
    if num_levels > 64 {
        return Err(WireError::Invalid("too many KLL compactor levels"));
    }
    Ok((k, coin, n, num_levels))
}

/// Reads each level's item count into `lens`, skips its items, and
/// makes [`KllSketch::check_parts`]'s checks. Returns the item total.
fn kll_level_lens(
    r: &mut WireReader<'_>,
    k: u64,
    n: u64,
    lens: &mut [usize],
) -> Result<usize, WireError> {
    for len in lens.iter_mut() {
        *len = r.get_count(1)?;
        r.skip_varints(*len)?;
    }
    KllSketch::check_parts(k as usize, n, lens.iter().copied()).map_err(WireError::Invalid)
}

impl WireEncode for PathProgress {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = WireWriter::new(out);
        w.put_varint(self.resolved as u64);
        w.put_varint(self.k as u64);
        match &self.path {
            Some(path) => {
                w.put_u8(1);
                for &hop in path {
                    w.put_varint(hop);
                }
            }
            None => w.put_u8(0),
        }
        w.put_varint(self.inconsistencies);
    }
}

impl WireDecode for PathProgress {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let resolved = r.get_varint()?;
        let k = r.get_varint()?;
        if k > u64::from(u16::MAX) {
            return Err(WireError::Invalid("path length exceeds u16"));
        }
        if resolved > k {
            return Err(WireError::Invalid("resolved hops exceed path length"));
        }
        let (resolved, k) = (resolved as usize, k as usize);
        let path = match r.get_u8()? {
            0 => None,
            1 => {
                // A present path is complete by construction: k hops.
                r.check_count(k as u64, 1)?;
                let mut path = Vec::with_capacity(k);
                for _ in 0..k {
                    path.push(r.get_varint()?);
                }
                Some(path)
            }
            _ => return Err(WireError::Invalid("path presence tag must be 0 or 1")),
        };
        if path.is_some() && resolved != k {
            return Err(WireError::Invalid("complete path with unresolved hops"));
        }
        let inconsistencies = r.get_varint()?;
        Ok(PathProgress {
            resolved,
            k,
            path,
            inconsistencies,
        })
    }
}

impl WireWalk for PathProgress {
    fn walk_from(r: &mut WireReader<'_>) -> Result<(), WireError> {
        let resolved = r.get_varint()?;
        let k = r.get_varint()?;
        if k > u64::from(u16::MAX) {
            return Err(WireError::Invalid("path length exceeds u16"));
        }
        if resolved > k {
            return Err(WireError::Invalid("resolved hops exceed path length"));
        }
        let present = match r.get_u8()? {
            0 => false,
            1 => {
                r.check_count(k, 1)?;
                r.skip_varints(k as usize)?;
                true
            }
            _ => return Err(WireError::Invalid("path presence tag must be 0 or 1")),
        };
        if present && resolved != k {
            return Err(WireError::Invalid("complete path with unresolved hops"));
        }
        r.skip_varints(1)
    }
}

impl WireEncode for RecorderKind {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            RecorderKind::LatencyQuantiles => 0,
            RecorderKind::PathTracing => 1,
            RecorderKind::FrequentValues => 2,
        };
        WireWriter::new(out).put_u8(tag);
    }
}

impl WireDecode for RecorderKind {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(RecorderKind::LatencyQuantiles),
            1 => Ok(RecorderKind::PathTracing),
            2 => Ok(RecorderKind::FrequentValues),
            _ => Err(WireError::Invalid("unknown recorder kind")),
        }
    }
}

/// Appends `values` as varints.
fn put(out: &mut Vec<u8>, values: impl IntoIterator<Item = u64>) {
    let mut w = WireWriter::new(out);
    values.into_iter().for_each(|v| w.put_varint(v));
}

/// Appends a varint count, then the values as varints.
fn put_list(out: &mut Vec<u8>, values: impl ExactSizeIterator<Item = u64>) {
    put(out, [values.len() as u64]);
    put(out, values);
}

/// Reads a varint count, checked against the remaining input at
/// `min_bytes` per item, then that many items with `get`. At most 4 096
/// items are reserved up front; a larger list grows only as its items
/// decode, so a hostile count cannot drive a large allocation.
fn get_n<T>(
    r: &mut WireReader<'_>,
    min_bytes: usize,
    mut get: impl FnMut(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.get_count(min_bytes)?;
    let mut out = Vec::with_capacity(n.min(4_096));
    for _ in 0..n {
        out.push(get(r)?);
    }
    Ok(out)
}

fn varint(r: &mut WireReader<'_>) -> Result<u64, WireError> {
    r.get_varint()
}

fn get_usize(r: &mut WireReader<'_>) -> Result<usize, WireError> {
    usize::try_from(r.get_varint()?).map_err(|_| WireError::Invalid("index exceeds usize"))
}

/// Reads a presence tag (0 or 1) and, when present, the value.
fn get_opt<T>(
    r: &mut WireReader<'_>,
    get: impl FnOnce(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    match r.get_varint()? {
        0 => Ok(None),
        1 => get(r).map(Some),
        _ => Err(WireError::Invalid("presence tag must be 0 or 1")),
    }
}

impl WireEncode for RecorderImage {
    /// The [`RecorderKind`] tag, packets, then per-kind state; every
    /// integer outside the embedded [`KllSketch`] encodings is a varint.
    /// Latency: per hop a store tag (0 exact, 1 sketch, 2 sliding) and
    /// its samples, sketch, or head index, head count and chunk
    /// sketches. Path: inconsistencies, per hop the candidates and the
    /// resolved value behind presence tags, then the XOR constraints.
    /// Frequent values: per hop the stream length and `(value, count,
    /// error)` counters.
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.kind().encode_into(out);
        match self {
            RecorderImage::Latency(packets, hops) => {
                put(out, [*packets, hops.len() as u64]);
                for hop in hops {
                    match hop {
                        HopImage::Exact(values) => {
                            put(out, [0]);
                            put_list(out, values.iter().copied());
                        }
                        HopImage::Sketch(sketch) => {
                            put(out, [1]);
                            sketch.encode_into(out);
                        }
                        HopImage::Sliding(chunks, head, n) => {
                            put(out, [2, *head as u64, *n, chunks.len() as u64]);
                            chunks.iter().for_each(|c| c.encode_into(out));
                        }
                    }
                }
            }
            RecorderImage::Path(p) => {
                put(out, [p.packets, p.inconsistencies, p.hops.len() as u64]);
                for (cand, resolved) in &p.hops {
                    put(out, [u64::from(cand.is_some())]);
                    cand.iter()
                        .for_each(|set| put_list(out, set.iter().copied()));
                    let tag = u64::from(resolved.is_some());
                    put(out, [tag].into_iter().chain(*resolved));
                }
                put(out, [p.constraints.len() as u64]);
                for c in &p.constraints {
                    put(out, [c.instance as u64, c.pid, c.residual]);
                    put_list(out, c.unresolved.iter().map(|&h| h as u64));
                }
            }
            RecorderImage::Frequent(packets, hops) => {
                put(out, [*packets, hops.len() as u64]);
                for (n, counters) in hops {
                    put(out, [*n, counters.len() as u64]);
                    put(out, counters.iter().flat_map(|&(v, c, e)| [v, c, e]));
                }
            }
        }
    }
}

impl WireDecode for RecorderImage {
    fn decode_from(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let kind = RecorderKind::decode_from(r)?;
        let packets = r.get_varint()?;
        Ok(match kind {
            RecorderKind::LatencyQuantiles => {
                let hops = get_n(r, 2, |r| match r.get_varint()? {
                    0 => get_n(r, 1, varint).map(HopImage::Exact),
                    1 => KllSketch::decode_from(r).map(HopImage::Sketch),
                    2 => {
                        let (head, n) = (get_usize(r)?, r.get_varint()?);
                        // A KLL encoding takes at least 11 bytes.
                        let chunks = get_n(r, 11, KllSketch::decode_from)?;
                        Ok(HopImage::Sliding(chunks, head, n))
                    }
                    _ => Err(WireError::Invalid("unknown hop store tag")),
                })?;
                RecorderImage::Latency(packets, hops)
            }
            RecorderKind::PathTracing => {
                let inconsistencies = r.get_varint()?;
                let hops = get_n(r, 2, |r| {
                    Ok((get_opt(r, |r| get_n(r, 1, varint))?, get_opt(r, varint)?))
                })?;
                let constraints = get_n(r, 4, |r| {
                    let (instance, pid, residual) = (get_usize(r)?, varint(r)?, varint(r)?);
                    let unresolved = get_n(r, 1, get_usize)?;
                    Ok(XorConstraint {
                        instance,
                        pid,
                        residual,
                        unresolved,
                    })
                })?;
                RecorderImage::Path(PathImage {
                    packets,
                    inconsistencies,
                    hops,
                    constraints,
                })
            }
            RecorderKind::FrequentValues => {
                let hops = get_n(r, 2, |r| {
                    let n = r.get_varint()?;
                    Ok((
                        n,
                        get_n(r, 3, |r| Ok((varint(r)?, varint(r)?, varint(r)?)))?,
                    ))
                })?;
                RecorderImage::Frequent(packets, hops)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_and_report_round_trip() {
        for lanes in [0usize, 1, 2, 5] {
            let mut d = Digest::new(lanes);
            for i in 0..lanes {
                d.set(i, u64::MAX - i as u64);
            }
            assert_eq!(Digest::decode(&d.encode()).unwrap(), d, "{lanes} lanes");
            let report = DigestReport::new(u64::MAX, 12_345, d, 9, 1 << 40);
            assert_eq!(DigestReport::decode(&report.encode()).unwrap(), report);
        }
    }

    #[test]
    fn kll_round_trip_is_structural() {
        let mut sk = KllSketch::with_seed(48, 99);
        for v in 0..30_000u64 {
            sk.update(v % 257);
        }
        let decoded = KllSketch::decode(&sk.encode()).unwrap();
        assert_eq!(decoded, sk, "decode(encode(A)) == A, coin state included");
    }

    #[test]
    fn kll_decode_rejects_corruption_without_panicking() {
        let mut sk = KllSketch::with_seed(16, 3);
        for v in 0..1_000u64 {
            sk.update(v);
        }
        let good = sk.encode();
        // Truncate at every length: must error, never panic.
        for cut in 0..good.len() {
            assert!(
                KllSketch::decode(&good[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn path_progress_round_trip_and_validation() {
        let complete = PathProgress {
            resolved: 3,
            k: 3,
            path: Some(vec![7, 8, 9]),
            inconsistencies: 2,
        };
        assert_eq!(PathProgress::decode(&complete.encode()).unwrap(), complete);
        let partial = PathProgress {
            resolved: 1,
            k: 5,
            path: None,
            inconsistencies: 0,
        };
        assert_eq!(PathProgress::decode(&partial.encode()).unwrap(), partial);

        // resolved > k is rejected.
        let mut bad = Vec::new();
        let mut w = WireWriter::new(&mut bad);
        w.put_varint(9);
        w.put_varint(3);
        w.put_u8(0);
        w.put_varint(0);
        assert!(matches!(
            PathProgress::decode(&bad),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn recorder_kind_tags() {
        for kind in [
            RecorderKind::LatencyQuantiles,
            RecorderKind::PathTracing,
            RecorderKind::FrequentValues,
        ] {
            assert_eq!(RecorderKind::decode(&kind.encode()).unwrap(), kind);
        }
        assert!(RecorderKind::decode(&[9]).is_err());
    }
}
