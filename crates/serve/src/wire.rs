//! The little-endian binary encoding shared by the snapshot and
//! journal formats.
//!
//! Both formats are sequences of fixed-width integers (no padding, no
//! alignment): `u8`/`u16`/`u32`/`u64` plus two's-complement `i64`.
//! [`Writer`] appends them to a growable buffer; [`Reader`] consumes
//! them back, reporting the byte offset of the first malformed field
//! instead of panicking — a truncated or corrupted snapshot must
//! surface as a [`WireError`], never as an index-out-of-bounds.

use std::error::Error;
use std::fmt;

/// A malformed or truncated byte stream, with the offset at which
/// decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset of the first field that failed to decode.
    pub offset: usize,
    /// What was expected there.
    pub reason: String,
}

impl WireError {
    pub(crate) fn new(offset: usize, reason: impl Into<String>) -> WireError {
        WireError {
            offset,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wire decode failed at byte {}: {}",
            self.offset, self.reason
        )
    }
}

impl Error for WireError {}

/// Append-only encoder.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty buffer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian two's-complement `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string (`u32` byte length).
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.raw(s.as_bytes());
    }

    /// Empties the buffer, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }

    /// Replaces the bytes in `range` with `with`, in place; the buffer
    /// grows only when `with` is longer than the range.
    pub(crate) fn splice(&mut self, range: std::ops::Range<usize>, with: &[u8]) {
        self.buf.splice(range, with.iter().copied());
    }

    /// Overwrites the little-endian `u64` at byte offset `at`.
    pub(crate) fn set_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// Continues appending after existing encoded bytes.
impl From<Vec<u8>> for Writer {
    fn from(buf: Vec<u8>) -> Writer {
        Writer { buf }
    }
}

/// Cursor-based decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader starting at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Consumes exactly `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if fewer than `n` bytes remain.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        match self.buf[self.pos..].split_at_checked(n) {
            Some((head, _)) => {
                self.pos += n;
                Ok(head)
            }
            None => Err(WireError::new(
                self.pos,
                format!("wanted {n} bytes, {} remain", self.remaining()),
            )),
        }
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a truncated buffer.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.raw(1)?[0])
    }

    /// Consumes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a truncated buffer.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let at = self.pos;
        let b = self.raw(2)?;
        <[u8; 2]>::try_from(b)
            .map(u16::from_le_bytes)
            .map_err(|_| WireError::new(at, "u16"))
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a truncated buffer.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let at = self.pos;
        let b = self.raw(4)?;
        <[u8; 4]>::try_from(b)
            .map(u32::from_le_bytes)
            .map_err(|_| WireError::new(at, "u32"))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a truncated buffer.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let at = self.pos;
        let b = self.raw(8)?;
        <[u8; 8]>::try_from(b)
            .map(u64::from_le_bytes)
            .map_err(|_| WireError::new(at, "u64"))
    }

    /// Consumes a little-endian two's-complement `i64`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on a truncated buffer.
    pub fn i64(&mut self) -> Result<i64, WireError> {
        let at = self.pos;
        let b = self.raw(8)?;
        <[u8; 8]>::try_from(b)
            .map(i64::from_le_bytes)
            .map_err(|_| WireError::new(at, "i64"))
    }

    /// Consumes a `u64` and narrows it to `usize`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or if the value does not
    /// fit a `usize`.
    pub fn len64(&mut self) -> Result<usize, WireError> {
        let at = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::new(at, format!("length {v} overflows usize")))
    }

    /// Consumes a running counter: a `u64` no larger than `i64::MAX`.
    /// No run reaches 2⁶³ of anything, so the bound costs nothing, and
    /// a decoded counter can be incremented without overflowing.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or a larger value.
    pub fn counter(&mut self) -> Result<u64, WireError> {
        let at = self.pos;
        let v = self.u64()?;
        if i64::try_from(v).is_err() {
            return Err(WireError::new(at, format!("counter {v} exceeds i64::MAX")));
        }
        Ok(v)
    }

    /// Consumes a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        let at = self.pos;
        let bytes = self.raw(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::new(at, "invalid UTF-8"))
    }

    /// Consumes and verifies an 8-byte magic tag.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the bytes do not match `expected`.
    pub fn magic(&mut self, expected: &[u8; 8]) -> Result<(), WireError> {
        let at = self.pos;
        let got = self.raw(8)?;
        if got != expected {
            return Err(WireError::new(
                at,
                format!("bad magic {got:?}, expected {expected:?}"),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_every_width() {
        let mut w = Writer::new();
        w.magic_test();
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.magic(b"DLBTEST1").unwrap();
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.str().unwrap(), "hello");
        assert!(r.is_done());
    }

    impl Writer {
        fn magic_test(&mut self) {
            self.raw(b"DLBTEST1");
            self.u8(0xAB);
            self.u16(0xBEEF);
            self.u32(0xDEAD_BEEF);
            self.u64(u64::MAX - 1);
            self.i64(i64::MIN);
            self.str("hello");
        }
    }

    #[test]
    fn truncation_reports_the_offset() {
        let mut w = Writer::new();
        w.u32(7);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        r.u16().unwrap();
        let err = r.u32().unwrap_err();
        assert_eq!(err.offset, 2);
        assert!(err.reason.contains("2 remain"), "{}", err.reason);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut r = Reader::new(b"DLBWRONGrest");
        assert!(r.magic(b"DLBSNAP1").is_err());
    }
}
