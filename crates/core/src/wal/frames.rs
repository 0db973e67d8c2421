//! The one way sealed-log bytes are read.
//!
//! Log bytes come off untrusted storage (or out of a replication batch
//! cut from it), so a length prefix is a claim, not a fact. [`Frames`]
//! is the only code that turns one into a slice; [`ChainCursor`] is the
//! only caller of [`WalCodec::open_record`]. Recovery, promotion and the
//! repair check ([`super::reader`]), log shipping, the scrubber, a
//! replica applying a batch and a journaling replica serving frames
//! back ([`crate::repl`]) are each a `for` over the first, and — where
//! they verify — step the second. What a torn frame or a failed MAC
//! *means* is theirs to say; what counts as one is decided here.

use super::codec::{WalCodec, MAX_RECORD_LEN, MIN_RECORD_LEN};
use super::WalOp;
use crate::error::Result;
use sgx_sim::bytes::Reader;

/// One length-prefixed record, still sealed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame<'a> {
    /// Byte offset of the length prefix.
    pub(crate) start: usize,
    /// The frame as stored: prefix and body.
    pub(crate) whole: &'a [u8],
    /// The bytes after the prefix — what [`ChainCursor::open`] takes.
    pub(crate) body: &'a [u8],
}

impl Frame<'_> {
    /// Byte offset just past the frame.
    pub(crate) fn end(&self) -> usize {
        self.start + self.whole.len()
    }
}

/// Where the bytes stopped being frames: a header cut short, a length
/// no record can have, or a frame that runs past the end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Torn {
    /// Byte offset of the prefix that could not be honoured.
    pub(crate) at: usize,
}

/// Iterates the frames of `data` from a byte offset. Yields every frame
/// whose length is one a record can have and which lies wholly inside
/// `data`, then ends: cleanly when the offset reaches `data.len()`,
/// otherwise after one `Err(Torn)`. Never panics, whatever the bytes.
pub(crate) struct Frames<'a> {
    data: &'a [u8],
    /// Offset of the next prefix; `None` once the iterator has ended.
    next: Option<usize>,
}

impl<'a> Frames<'a> {
    /// The frames of `data` starting at byte `offset`.
    pub(crate) fn new(data: &'a [u8], offset: usize) -> Self {
        Frames { data, next: Some(offset) }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = std::result::Result<Frame<'a>, Torn>;

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.next.take()?;
        if start == self.data.len() {
            return None;
        }
        let frame = self.data.get(start..).and_then(|rest| {
            let mut r = Reader::new(rest, "log frame");
            let len =
                r.length().ok().filter(|len| (MIN_RECORD_LEN..=MAX_RECORD_LEN).contains(len))?;
            let body = r.bytes(len).ok()?;
            Some(Frame { start, whole: &rest[..4 + len], body })
        });
        match frame {
            Some(frame) => {
                self.next = Some(frame.end());
                Some(Ok(frame))
            }
            None => Some(Err(Torn { at: start })),
        }
    }
}

/// A position in one generation's MAC chain: the last verified sequence
/// number and the MAC it ended on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainCursor {
    /// Sequence number of the last record that verified (0 = none yet).
    pub(crate) seq: u64,
    /// That record's MAC, or the generation's genesis tag.
    pub(crate) chain: [u8; 16],
}

impl ChainCursor {
    /// The position before generation `gen`'s first record.
    pub(crate) fn genesis(codec: &WalCodec, gen: u64) -> Self {
        ChainCursor { seq: 0, chain: codec.genesis(gen) }
    }

    /// Verifies `body` as the record after this position and decrypts
    /// it. The cursor advances only when the record verified; a failure
    /// ([`crate::Error::LogIntegrity`] naming the expected sequence
    /// number) leaves it where it was.
    pub(crate) fn open(&mut self, codec: &WalCodec, body: &[u8]) -> Result<Vec<WalOp>> {
        let (ops, mac) = codec.open_record(self.seq + 1, &self.chain, body)?;
        self.seq += 1;
        self.chain = mac;
        Ok(ops)
    }
}
