//! The one byte cursor for everything that leaves the enclave.
//!
//! Wire payloads, snapshot files, log records, the freshness pin, the
//! replication hello and batch, the session hello and quotes all come
//! back from memory, storage or a network the host controls (paper
//! §3.3), so every length in them is a claim, not a fact. [`Reader`] is
//! the bounds-checked cursor they are all read through: each read yields
//! the bytes it names or [`Malformed`], never a panic, and
//! [`Reader::finish`] refuses trailing bytes. [`Writer`] writes the same
//! vocabulary. Each format maps `Malformed` to the error it fails closed
//! with.
//!
//! The cursor is called across crates on the wire's hot path, so every
//! small method is `#[inline]` and the one error constructor is
//! `#[cold]`: formatting stays out of the inlined read path.

use std::io::{self, Write};

/// Why a cursor refused its bytes. Displays as `"{why} {what}"`, e.g.
/// `"truncated request"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed {
    /// The format being read.
    pub what: &'static str,
    /// What was wrong with it.
    pub why: &'static str,
}

impl std::fmt::Display for Malformed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.why, self.what)
    }
}

/// What a read through the cursor yields.
pub type Parsed<T> = Result<T, Malformed>;

/// A bounds-checked cursor over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Names the format in errors.
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `bytes`; `what` names the format in
    /// errors.
    #[inline]
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Reader { bytes, pos: 0, what }
    }

    /// Reads all of `bytes` with `read`, refusing what it leaves over.
    #[inline]
    pub fn whole<T, E: From<Malformed>>(
        bytes: &'a [u8],
        what: &'static str,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut r = Reader::new(bytes, what);
        let out = read(&mut r)?;
        r.finish()?;
        Ok(out)
    }

    /// The error for these bytes: `why` they are refused.
    #[cold]
    pub fn fail(&self, why: &'static str) -> Malformed {
        Malformed { what: self.what, why }
    }

    /// Refuses trailing bytes.
    #[inline]
    pub fn finish(self) -> Parsed<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.fail("trailing bytes after"))
        }
    }

    /// How many bytes are left.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Parsed<&'a [u8]> {
        let taken = self.pos.checked_add(n).and_then(|end| self.bytes.get(self.pos..end));
        let taken = taken.ok_or_else(|| self.fail("truncated"))?;
        self.pos += n;
        Ok(taken)
    }

    /// Everything left.
    #[inline]
    pub fn rest(&mut self) -> Parsed<&'a [u8]> {
        self.bytes(self.remaining())
    }

    /// The next `tag.len()` bytes, which must be `tag` (a magic or a
    /// version).
    #[inline]
    pub fn tag(&mut self, tag: &[u8]) -> Parsed<()> {
        if self.bytes(tag.len())? == tag {
            Ok(())
        } else {
            Err(self.fail("unknown tag in"))
        }
    }

    /// The next `N` bytes, as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Parsed<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// A byte.
    #[inline]
    pub fn u8(&mut self) -> Parsed<u8> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Parsed<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Parsed<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32` length.
    #[inline]
    pub fn length(&mut self) -> Parsed<usize> {
        Ok(self.u32()? as usize)
    }

    /// A `u32`-length-prefixed slice.
    #[inline]
    pub fn slice(&mut self) -> Parsed<&'a [u8]> {
        self.length().and_then(|len| self.bytes(len))
    }

    /// A `[klen u32 | vlen u32 | key | value]` pair.
    #[inline]
    pub fn pair(&mut self) -> Parsed<(&'a [u8], &'a [u8])> {
        let (key_len, value_len) = (self.length()?, self.length()?);
        Ok((self.bytes(key_len)?, self.bytes(value_len)?))
    }

    /// A `u32` count of `entry`s. Each entry carries at least `min_entry`
    /// bytes, so a count the remaining bytes cannot hold is refused
    /// before anything is allocated from it.
    #[inline]
    pub fn batch<T, E: From<Malformed>>(
        &mut self,
        min_entry: usize,
        mut entry: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let count = self.length()?;
        if count > self.remaining() / min_entry {
            return Err(self.fail("count exceeds the bytes of").into());
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(entry(self)?);
        }
        Ok(out)
    }
}

/// What [`Reader`] reads, written in the same vocabulary. Its methods
/// take `&mut self`: a by-value chain measured slower per encode.
#[derive(Debug, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// A writer whose buffer holds `capacity` bytes before it grows.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        Writer(Vec::with_capacity(capacity))
    }

    /// `bytes`, as they are.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.extend_from_slice(bytes);
        self
    }

    /// A byte.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes(&[v])
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// A `u32` length.
    #[inline]
    pub fn length(&mut self, len: usize) -> &mut Self {
        self.u32(len as u32)
    }

    /// A `u32`-length-prefixed slice.
    #[inline]
    pub fn slice(&mut self, bytes: &[u8]) -> &mut Self {
        self.length(bytes.len()).bytes(bytes)
    }

    /// A `[klen u32 | vlen u32 | key | value]` pair.
    #[inline]
    pub fn pair(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.length(key.len()).length(value.len()).bytes(key).bytes(value)
    }

    /// The bytes written.
    #[inline]
    pub fn done(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.0)
    }

    /// Writes the bytes written so far to `out` and starts over: a
    /// streamed format's fixed-size prefixes, between the bodies it
    /// writes to `out` directly.
    pub fn drain_into(&mut self, out: &mut impl Write) -> io::Result<()> {
        out.write_all(&self.0)?;
        self.0.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_the_writer_wrote() {
        let bytes = Writer::default()
            .bytes(b"MAGIC")
            .u8(7)
            .u32(0x0102_0304)
            .u64(u64::MAX - 1)
            .slice(b"key")
            .pair(b"k", b"value")
            .length(2)
            .u8(9)
            .u8(10)
            .done();
        let read = Reader::whole(&bytes, "sample", |r| -> Parsed<_> {
            r.tag(b"MAGIC")?;
            let fixed = (r.u8()?, r.u32()?, r.u64()?);
            let (slice, pair) = (r.slice()?, r.pair()?);
            Ok((fixed, slice, pair, r.batch(1, Reader::u8)?))
        });
        let want = ((7, 0x0102_0304, u64::MAX - 1), &b"key"[..], (&b"k"[..], &b"value"[..]));
        assert_eq!(read, Ok((want.0, want.1, want.2, vec![9, 10])));
    }

    #[test]
    fn every_refusal_names_its_format() {
        let fail = |why| Some(Malformed { what: "sample", why });
        assert_eq!(Reader::whole(&[1, 2], "sample", Reader::u32).err(), fail("truncated"));
        let trailing = Reader::whole(&[1, 2], "sample", Reader::u8);
        assert_eq!(trailing.err(), fail("trailing bytes after"));
        let tag = Reader::whole(b"NOPE", "sample", |r| r.tag(b"MAGI"));
        assert_eq!(tag.err(), fail("unknown tag in"));
        let huge_count = 5u32.to_le_bytes();
        let batch = Reader::whole(&huge_count, "sample", |r| r.batch(1, Reader::u8));
        assert_eq!(batch.err(), fail("count exceeds the bytes of"));
        assert_eq!(fail("truncated").unwrap().to_string(), "truncated sample");
        // A length past the end of the address space is refused, not wrapped.
        let mut r = Reader::new(&[0; 4], "sample");
        assert_eq!(r.bytes(usize::MAX).err(), fail("truncated"));
        assert_eq!(r.remaining(), 4, "a refused read consumes nothing");
    }

    #[test]
    fn drain_into_streams_prefixes_between_bodies() {
        let (mut out, mut prefix) = (Vec::new(), Writer::default());
        for body in [&b"ab"[..], b"cde"] {
            prefix.length(body.len()).drain_into(&mut out).unwrap();
            out.extend_from_slice(body);
        }
        assert_eq!(out, Writer::default().slice(b"ab").slice(b"cde").done());
    }
}
