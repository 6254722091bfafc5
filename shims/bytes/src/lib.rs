//! Offline stand-in for `bytes 1` — see `shims/README.md`.
//!
//! [`Bytes`] is a cursor over owned bytes rather than a refcounted slice
//! view: `clone` copies, and the little-endian `get_*` readers advance an
//! internal position. That matches every in-tree use (encode with
//! [`BytesMut`], `freeze`, decode front-to-back with [`Buf`]).

#![forbid(unsafe_code)]

/// Read cursor (subset of `bytes::Buf`).
pub trait Buf {
    fn remaining(&self) -> usize;
    /// Advances the cursor past `count` bytes without reading them.
    /// Panics when fewer than `count` bytes remain (as real `bytes` does).
    fn advance(&mut self, count: usize);
    fn get_u8(&mut self) -> u8;
    fn get_u16_le(&mut self) -> u16;
    fn get_u32_le(&mut self) -> u32;
    fn get_u64_le(&mut self) -> u64;
}

/// Append-only writer (subset of `bytes::BufMut`).
pub trait BufMut {
    fn put_u8(&mut self, value: u8);
    fn put_u16_le(&mut self, value: u16);
    fn put_u32_le(&mut self, value: u32);
    fn put_u64_le(&mut self, value: u64);
}

/// Immutable byte buffer with a read position. Two buffers are equal
/// when their unread bytes are, as real `Bytes` compares contents.
#[derive(Clone, Debug)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes { data: Vec::new(), pos: 0 }
    }

    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes { data: data.to_vec(), pos: 0 }
    }

    /// Unread length (shrinks as the cursor advances, like real `Bytes`).
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies the given sub-range of the *unread* bytes (real `Bytes`
    /// returns a zero-copy view; the observable contents are identical).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        let unread = &self.data[self.pos..];
        Bytes { data: unread[range].to_vec(), pos: 0 }
    }

    fn take(&mut self, count: usize) -> &[u8] {
        assert!(self.len() >= count, "Bytes: read past end");
        let slice = &self.data[self.pos..self.pos + count];
        self.pos += count;
        slice
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data, pos: 0 }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes { data: data.to_vec(), pos: 0 }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, count: usize) {
        self.take(count);
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take(2).try_into().expect("2 bytes"))
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }
}

/// Growable write buffer; `freeze` converts into [`Bytes`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut { data: Vec::with_capacity(capacity) }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data, pos: 0 }
    }

    pub fn extend_from_slice(&mut self, slice: &[u8]) {
        self.data.extend_from_slice(slice);
    }
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, value: u8) {
        self.data.push(value);
    }

    fn put_u16_le(&mut self, value: u16) {
        self.data.extend_from_slice(&value.to_le_bytes());
    }

    fn put_u32_le(&mut self, value: u32) {
        self.data.extend_from_slice(&value.to_le_bytes());
    }

    fn put_u64_le(&mut self, value: u64) {
        self.data.extend_from_slice(&value.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_le() {
        let mut buf = BytesMut::with_capacity(15);
        buf.put_u8(7);
        buf.put_u16_le(0xBEEF);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(42);
        let mut bytes = buf.freeze();
        assert_eq!(bytes.len(), 15);
        assert_eq!(bytes.get_u8(), 7);
        assert_eq!(bytes.get_u16_le(), 0xBEEF);
        assert_eq!(bytes.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(bytes.remaining(), 8);
        assert_eq!(bytes.get_u64_le(), 42);
        assert!(bytes.is_empty());
    }

    #[test]
    fn equality_compares_the_unread_bytes() {
        let mut read = Bytes::from(vec![7, 1, 2]);
        read.advance(1);
        assert_eq!(read, Bytes::from(vec![1, 2]));
        let whole = Bytes::from_static(b"abcdef");
        assert_eq!(whole.slice(2..4), Bytes::from_static(b"cd"));
        assert_ne!(whole, Bytes::from_static(b"abcde"));
    }

    #[test]
    fn advance_skips_without_reading() {
        let mut bytes = Bytes::from_static(b"abcdef");
        bytes.advance(4);
        assert_eq!(bytes.remaining(), 2);
        assert_eq!(bytes.get_u8(), b'e');
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn read_past_end_panics() {
        let mut bytes = Bytes::from_static(b"xy");
        bytes.get_u32_le();
    }
}
