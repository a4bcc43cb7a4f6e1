//! Minimal binary codec: little-endian primitives over a growable
//! byte buffer, no serde, no unsafe.
//!
//! [`Encoder`] appends primitives; [`Decoder`] reads them back in the
//! same order, failing with a positioned [`DecodeError`] instead of
//! panicking when the buffer is short or a tag is malformed — decoded
//! bytes may come from a torn or corrupted file, so every read is
//! checked.
//!
//! Floats round-trip through [`f64::to_bits`], so encode→decode is
//! bitwise lossless (NaN payloads included) — the property the
//! crash-resume determinism contract rests on.

use std::fmt;

/// A decode failure: offset into the payload plus what was expected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which the read failed.
    pub offset: usize,
    /// What the decoder was trying to read.
    pub expected: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error at byte {}: expected {}", self.offset, self.expected)
    }
}

impl std::error::Error for DecodeError {}

/// Append-only encoder over an owned byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty encoder with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder { buf: Vec::with_capacity(cap) }
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (platform-independent width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` by bit pattern (lossless, NaN-preserving).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Appends a length-prefixed `usize` slice (each as `u64`).
    pub fn put_usizes(&mut self, vs: &[usize]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_usize(v);
        }
    }

    /// Appends length-prefixed raw bytes.
    pub fn put_bytes(&mut self, vs: &[u8]) {
        self.put_usize(vs.len());
        self.buf.extend_from_slice(vs);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends an option tag (1 byte) followed by the value via `f`.
    pub fn put_option<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            Some(inner) => {
                self.put_u8(1);
                f(self, inner);
            }
            None => self.put_u8(0),
        }
    }
}

/// Sequential reader over an encoded payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte has been consumed — catches payloads
    /// with trailing garbage (a symptom of a format mismatch).
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(DecodeError { offset: self.pos, expected: "end of payload" })
        }
    }

    fn take(&mut self, n: usize, expected: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError { offset: self.pos, expected });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` stored as `u64`, rejecting values that do not
    /// fit the host width.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        let offset = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| DecodeError { offset, expected: "usize-range u64" })
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        let offset = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError { offset, expected: "bool (0 or 1)" }),
        }
    }

    /// Checks that a length prefix is plausibly backed by remaining
    /// bytes (`len * elem_size` must not exceed what is left), so a
    /// corrupted length cannot trigger a huge allocation.
    fn checked_len(&mut self, elem_size: usize, expected: &'static str) -> Result<usize, DecodeError> {
        let offset = self.pos;
        let len = self.usize()?;
        if len.checked_mul(elem_size).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(DecodeError { offset, expected });
        }
        Ok(len)
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        let len = self.checked_len(8, "f64 slice length")?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `usize` vector.
    pub fn usizes(&mut self) -> Result<Vec<usize>, DecodeError> {
        let len = self.checked_len(8, "usize slice length")?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.usize()?);
        }
        Ok(out)
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.checked_len(1, "byte slice length")?;
        Ok(self.take(len, "byte slice")?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let offset = self.pos;
        String::from_utf8(self.bytes()?)
            .map_err(|_| DecodeError { offset, expected: "UTF-8 string" })
    }

    /// Reads an option tag and, when set, the value via `f`.
    pub fn option<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        let offset = self.pos;
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(DecodeError { offset, expected: "option tag (0 or 1)" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip_bitwise() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u16(0xBEEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 1);
        e.put_usize(42);
        e.put_f64(-0.0);
        e.put_f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN with payload
        e.put_bool(true);
        e.put_f64s(&[1.5, f64::INFINITY, f64::MIN_POSITIVE]);
        e.put_usizes(&[0, 3, usize::MAX]);
        e.put_bytes(b"abc");
        e.put_str("añb");
        e.put_option(Some(&9.25f64), |e, v| e.put_f64(*v));
        e.put_option::<f64>(None, |e, v| e.put_f64(*v));
        let bytes = e.into_bytes();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.usize().unwrap(), 42);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert!(d.bool().unwrap());
        let v = d.f64s().unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], 1.5);
        assert!(v[1].is_infinite());
        assert_eq!(v[2], f64::MIN_POSITIVE);
        assert_eq!(d.usizes().unwrap(), vec![0, 3, usize::MAX]);
        assert_eq!(d.bytes().unwrap(), b"abc");
        assert_eq!(d.str().unwrap(), "añb");
        assert_eq!(d.option(|d| d.f64()).unwrap(), Some(9.25));
        assert_eq!(d.option(|d| d.f64()).unwrap(), None);
        d.finish().unwrap();
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let mut e = Encoder::new();
        e.put_f64s(&[1.0, 2.0, 3.0]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(d.f64s().is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn corrupted_length_prefix_is_rejected_not_allocated() {
        let mut e = Encoder::new();
        e.put_f64s(&[1.0]);
        let mut bytes = e.into_bytes();
        // Forge an absurd length prefix.
        bytes[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut d = Decoder::new(&bytes);
        assert!(d.f64s().is_err());
    }

    #[test]
    fn trailing_garbage_fails_finish() {
        let mut e = Encoder::new();
        e.put_u8(1);
        let mut bytes = e.into_bytes();
        bytes.push(0xAA);
        let mut d = Decoder::new(&bytes);
        d.u8().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn bad_tags_are_rejected() {
        let bytes = [2u8];
        assert!(Decoder::new(&bytes).bool().is_err());
        assert!(Decoder::new(&bytes).option(|d| d.u8()).is_err());
        let mut e = Encoder::new();
        e.put_bytes(&[0xFF, 0xFE]);
        assert!(Decoder::new(&e.into_bytes()).str().is_err());
    }
}
