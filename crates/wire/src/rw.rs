//! The byte-level writer/reader primitives: explicit little-endian
//! fixed-width integers and LEB128 varints over a borrowed buffer.

use crate::error::WireError;

/// Appends wire primitives to a caller-owned `Vec<u8>`.
///
/// The writer borrows the output buffer so encoders compose without
/// intermediate allocations: a snapshot encoder reuses one `Vec` across
/// thousands of flows and millions of sketch items.
pub struct WireWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> WireWriter<'a> {
    /// Wraps an output buffer (existing contents are kept).
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Self { out }
    }

    /// Appends one raw byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.out.push(v);
    }

    /// Appends a fixed-width `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a fixed-width `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a LEB128 varint (1–10 bytes; small values are 1 byte).
    #[inline]
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.out.push(byte);
                return;
            }
            self.out.push(byte | 0x80);
        }
    }

    /// Appends raw bytes verbatim.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }
}

/// A bounds-checked cursor over untrusted input bytes.
///
/// Every accessor returns a typed [`WireError`] instead of panicking;
/// element counts can be validated against the remaining input *before*
/// any allocation via [`check_count`](Self::check_count). A clone is a
/// second cursor over the same bytes, for decoders that read twice.
#[derive(Clone)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps an input buffer, cursor at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the cursor consumed the buffer exactly.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one raw byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a fixed-width little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a fixed-width little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` IEEE-754 bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a LEB128 varint; rejects encodings past 10 bytes or
    /// overflowing `u64`.
    #[inline]
    pub fn get_varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        for i in 0..10 {
            let byte = self.get_u8()?;
            let part = u64::from(byte & 0x7F);
            // Byte 9 may only contribute the single remaining bit.
            if i == 9 && part > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= part << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// Skips `n` varints without assembling their values, rejecting
    /// exactly what [`get_varint`](Self::get_varint) rejects — the
    /// inner loop of a [`WireWalk`](crate::WireWalk).
    #[inline]
    pub fn skip_varints(&mut self, n: usize) -> Result<(), WireError> {
        if n == 0 {
            return Ok(());
        }
        // Counts terminating bytes (no continuation bit) without a
        // branch on each byte's value: varints of mixed 1- and 2-byte
        // lengths would mispredict it.
        let (mut left, mut continued) = (n, 0u32);
        for (i, &b) in self.buf[self.pos..].iter().enumerate() {
            let ends = b < 0x80;
            // Byte 9 must end the varint and carry at most one bit.
            if continued == 9 && (!ends || b > 1) {
                return Err(WireError::VarintOverflow);
            }
            continued = if ends { 0 } else { continued + 1 };
            left -= usize::from(ends);
            if left == 0 {
                self.pos += i + 1;
                return Ok(());
            }
        }
        Err(WireError::Truncated { needed: 1, have: 0 })
    }

    /// Reads raw bytes verbatim.
    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Validates a declared element count against the remaining input
    /// (each element occupies at least `min_bytes_each` bytes) and
    /// converts it to `usize`. Call this before reserving any memory for
    /// the elements: a hostile length prefix must not drive allocation.
    #[inline]
    pub fn check_count(&self, count: u64, min_bytes_each: usize) -> Result<usize, WireError> {
        let max = self.remaining() as u64 / min_bytes_each.max(1) as u64;
        if count > max {
            return Err(WireError::CountTooLarge { count, max });
        }
        Ok(count as usize)
    }

    /// Reads a varint count and validates it via
    /// [`check_count`](Self::check_count).
    #[inline]
    pub fn get_count(&mut self, min_bytes_each: usize) -> Result<usize, WireError> {
        let count = self.get_varint()?;
        self.check_count(count, min_bytes_each)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            WireWriter::new(&mut buf).put_varint(v);
            assert!(buf.len() <= 10);
            let mut r = WireReader::new(&buf);
            assert_eq!(r.get_varint().unwrap(), v);
            r.expect_end().unwrap();
        }
    }

    #[test]
    fn varint_rejects_overlong_and_overflow() {
        // 10 continuation bytes: too long.
        let mut r = WireReader::new(&[0x80; 11]);
        assert_eq!(r.get_varint(), Err(WireError::VarintOverflow));
        // 10th byte contributes more than the one remaining bit.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let mut r = WireReader::new(&overflow);
        assert_eq!(r.get_varint(), Err(WireError::VarintOverflow));
    }

    #[test]
    fn truncation_is_typed() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert_eq!(
            r.get_u64(),
            Err(WireError::Truncated { needed: 8, have: 3 })
        );
        let mut r = WireReader::new(&[0x80]);
        assert_eq!(
            r.get_varint(),
            Err(WireError::Truncated { needed: 1, have: 0 })
        );
    }

    #[test]
    fn fixed_width_is_little_endian() {
        let mut buf = Vec::new();
        let mut w = WireWriter::new(&mut buf);
        w.put_u32(0x0403_0201);
        w.put_u64(0x0807_0605_0403_0201);
        w.put_f64(1.5);
        assert_eq!(&buf[..4], &[1, 2, 3, 4]);
        assert_eq!(&buf[4..12], &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.get_u32().unwrap(), 0x0403_0201);
        assert_eq!(r.get_u64().unwrap(), 0x0807_0605_0403_0201);
        assert_eq!(r.get_f64().unwrap(), 1.5);
    }

    #[test]
    fn count_guard_rejects_hostile_lengths() {
        // Claims u64::MAX elements with 2 bytes of backing input.
        let r = WireReader::new(&[0, 0]);
        assert!(matches!(
            r.check_count(u64::MAX, 8),
            Err(WireError::CountTooLarge { .. })
        ));
        assert_eq!(r.check_count(0, 8).unwrap(), 0);
    }
}
