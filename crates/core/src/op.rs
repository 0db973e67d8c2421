//! The one operation type every layer executes.
//!
//! A client operation is decoded once — from a wire frame, a benchmark
//! step, or a convenience method — into a borrowed [`Op`], and flows
//! unchanged through `KvBackend::execute`, [`crate::ShieldStore::execute`]
//! and [`crate::Shard::execute`], each of which answers with an owned
//! [`Reply`]. The classification the layers route and gate on
//! ([`Op::routing_key`], [`Op::is_write`]) lives here, next to the
//! variants it classifies, so a new operation is one new variant and the
//! compiler names every `match` that must learn about it. The requests
//! that are not key-value ops (stats, flush, replication, promotion) are
//! one [`Control`] type beside it, answered with a [`Controlled`].

use crate::repl::{ReplBatch, ReplHello, Watermark};
use crate::stats::StatsSnapshot;

/// One key-value operation, borrowing its keys and values from the
/// caller (building one allocates nothing).
///
/// Deadlines are absolute [`crate::ttl`] readings in ns; `0` means "no
/// expiry" — the same convention [`crate::WalOp::Set`] logs, so an `Op`
/// and its log record never disagree about what a zero means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op<'a> {
    /// Read `key`; a clean miss is [`Reply::Value`]`(None)`.
    Get(&'a [u8]),
    /// Verified presence test (an expired entry reads as absent).
    Exists(&'a [u8]),
    /// Bind `key` to `value`, *replacing* any previous deadline.
    Set {
        /// The key.
        key: &'a [u8],
        /// The new value.
        value: &'a [u8],
        /// Absolute expiry deadline (`0` = none).
        expires_at: u64,
    },
    /// Remove `key`; a clean miss is [`Reply::Deleted`]`(false)`.
    Delete(&'a [u8]),
    /// Append `suffix` to `key`'s value, creating it when absent. Clears
    /// any deadline: the produced value is logged as a plain set, which
    /// must replay deadline-free to stay idempotent.
    Append {
        /// The key.
        key: &'a [u8],
        /// Bytes to append.
        suffix: &'a [u8],
    },
    /// Add `delta` to `key`'s decimal value (absent reads as 0). Clears
    /// any deadline, like [`Op::Append`].
    Increment {
        /// The key.
        key: &'a [u8],
        /// Signed amount to add.
        delta: i64,
    },
    /// Batched read: one entry per key, in input order.
    MultiGet(&'a [&'a [u8]]),
    /// Batched write; duplicate keys keep submission order (last wins).
    MultiSet {
        /// `(key, value)` pairs.
        items: &'a [(&'a [u8], &'a [u8])],
        /// Absolute expiry deadline shared by every item (`0` = none).
        expires_at: u64,
    },
    /// Ordered scan of `[start, end)`, at most `limit` entries (needs
    /// the ordered index).
    ScanRange {
        /// Inclusive lower bound.
        start: &'a [u8],
        /// Exclusive upper bound.
        end: &'a [u8],
        /// Most entries to return.
        limit: usize,
    },
    /// Ordered scan of every key starting with `prefix`, at most `limit`
    /// entries (needs the ordered index).
    ScanPrefix {
        /// The key prefix.
        prefix: &'a [u8],
        /// Most entries to return.
        limit: usize,
    },
}

impl<'a> Op<'a> {
    /// A [`Op::Set`] with no expiry.
    pub fn set(key: &'a [u8], value: &'a [u8]) -> Self {
        Op::Set { key, value, expires_at: 0 }
    }

    /// The key whose hash partition serves this op, when it has exactly
    /// one: what a store routes on, an event loop aligns with, and a
    /// shard checks quarantine for. Batches and scans span partitions.
    pub fn routing_key(&self) -> Option<&'a [u8]> {
        match *self {
            Op::Get(key)
            | Op::Exists(key)
            | Op::Delete(key)
            | Op::Set { key, .. }
            | Op::Append { key, .. }
            | Op::Increment { key, .. } => Some(key),
            Op::MultiGet(_)
            | Op::MultiSet { .. }
            | Op::ScanRange { .. }
            | Op::ScanPrefix { .. } => None,
        }
    }

    /// True when the op can change stored state — what a read-only
    /// replica refuses and a write-ahead log records.
    pub fn is_write(&self) -> bool {
        match self {
            Op::Set { .. }
            | Op::Delete(_)
            | Op::Append { .. }
            | Op::Increment { .. }
            | Op::MultiSet { .. } => true,
            Op::Get(_)
            | Op::Exists(_)
            | Op::MultiGet(_)
            | Op::ScanRange { .. }
            | Op::ScanPrefix { .. } => false,
        }
    }

    /// The deadline entries written by this op carry (`0` = none).
    pub fn expires_at(&self) -> u64 {
        match *self {
            Op::Set { expires_at, .. } | Op::MultiSet { expires_at, .. } => expires_at,
            _ => 0,
        }
    }
}

/// What an [`Op`] answered. Owned: it outlives the locks and buffers the
/// op ran under. A miss is a reply, not an error — errors mean the op
/// failed closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// [`Op::Get`]: the value, or `None` for a clean miss.
    Value(Option<Vec<u8>>),
    /// [`Op::Exists`].
    Exists(bool),
    /// [`Op::Set`] / [`Op::MultiSet`]: every item is stored.
    Stored,
    /// [`Op::Delete`]: whether the key was present.
    Deleted(bool),
    /// [`Op::Append`]: the full value the append produced.
    Appended(Vec<u8>),
    /// [`Op::Increment`]: the new value.
    Counter(i64),
    /// [`Op::MultiGet`]: one slot per requested key (`None` = miss).
    Values(Vec<Option<Vec<u8>>>),
    /// [`Op::ScanRange`] / [`Op::ScanPrefix`]: pairs in key order.
    Entries(Vec<(Vec<u8>, Vec<u8>)>),
}

/// One control request: what an operator or a replica asks of a serving
/// store besides a key-value [`Op`]. Decoded once from the wire, like an
/// op, and answered with a [`Controlled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// The observability snapshot.
    Stats,
    /// Durability barrier: commit everything the write-ahead log buffers.
    Flush,
    /// Register a replication subscriber.
    ReplSubscribe,
    /// The next sealed log batch after `(generation, after_seq)`, bounded
    /// by `max_bytes`.
    ReplSegment {
        /// The subscriber's generation.
        generation: u64,
        /// The last sequence number it applied.
        after_seq: u64,
        /// Byte budget of the batch.
        max_bytes: u32,
    },
    /// Record a subscriber's verified-and-applied watermark.
    ReplAck {
        /// The subscriber.
        subscriber: u64,
        /// Its applied generation.
        generation: u64,
        /// Its applied sequence number.
        seq: u64,
    },
    /// Promote a read-only replica to primary.
    Promote,
}

impl Control {
    /// True for the controls that carry log keys or fencing authority,
    /// which only ever ride an attested session.
    pub fn needs_attested_session(&self) -> bool {
        !matches!(self, Control::Stats | Control::Flush)
    }
}

/// What a [`Control`] answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Controlled {
    /// [`Control::Stats`].
    Stats(Box<StatsSnapshot>),
    /// [`Control::Flush`] (`None`: the store has no log) and
    /// [`Control::Promote`]: the durable watermark.
    Watermark(Option<Watermark>),
    /// [`Control::ReplSubscribe`].
    Hello(ReplHello),
    /// [`Control::ReplSegment`].
    Batch(ReplBatch),
    /// [`Control::ReplAck`].
    Done,
}

/// Generates the payload accessors: each unwraps the one variant its
/// request answers with. Asking an answer for another request's payload
/// is a caller bug, not an input the program can receive, hence the
/// panic.
macro_rules! payloads {
    ($answer:ident { $($(#[$doc:meta])* $name:ident: $variant:ident -> $ty:ty;)* }) => {
        impl $answer {
            $(
                $(#[$doc])*
                pub fn $name(self) -> $ty {
                    match self {
                        $answer::$variant(payload) => payload,
                        other => panic!(
                            concat!(
                                "expected ", stringify!($answer), "::", stringify!($variant),
                                ", got {:?}"
                            ),
                            other
                        ),
                    }
                }
            )*
        }
    };
}

payloads!(Reply {
    /// The [`Op::Get`] payload.
    value: Value -> Option<Vec<u8>>;
    /// The [`Op::Exists`] payload.
    exists: Exists -> bool;
    /// The [`Op::Delete`] payload.
    deleted: Deleted -> bool;
    /// The [`Op::Append`] payload.
    appended: Appended -> Vec<u8>;
    /// The [`Op::Increment`] payload.
    counter: Counter -> i64;
    /// The [`Op::MultiGet`] payload.
    values: Values -> Vec<Option<Vec<u8>>>;
    /// The scan payload.
    entries: Entries -> Vec<(Vec<u8>, Vec<u8>)>;
});

payloads!(Controlled {
    /// The [`Control::Stats`] payload.
    stats: Stats -> Box<StatsSnapshot>;
    /// The [`Control::Flush`] / [`Control::Promote`] payload.
    watermark: Watermark -> Option<Watermark>;
    /// The [`Control::ReplSubscribe`] payload.
    hello: Hello -> ReplHello;
    /// The [`Control::ReplSegment`] payload.
    batch: Batch -> ReplBatch;
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_every_variant() {
        let keys: [&[u8]; 1] = [b"k"];
        let items: [(&[u8], &[u8]); 1] = [(b"k", b"v")];
        // (op, has a routing key, is a write, deadline)
        let table = [
            (Op::Get(b"k"), true, false, 0),
            (Op::Exists(b"k"), true, false, 0),
            (Op::Set { key: b"k", value: b"v", expires_at: 9 }, true, true, 9),
            (Op::set(b"k", b"v"), true, true, 0),
            (Op::Delete(b"k"), true, true, 0),
            (Op::Append { key: b"k", suffix: b"s" }, true, true, 0),
            (Op::Increment { key: b"k", delta: 1 }, true, true, 0),
            (Op::MultiGet(&keys), false, false, 0),
            (Op::MultiSet { items: &items, expires_at: 7 }, false, true, 7),
            (Op::ScanRange { start: b"a", end: b"z", limit: 1 }, false, false, 0),
            (Op::ScanPrefix { prefix: b"a", limit: 1 }, false, false, 0),
        ];
        for (op, routed, write, deadline) in table {
            assert_eq!(op.routing_key(), routed.then_some(b"k".as_slice()), "{op:?}");
            assert_eq!(op.is_write(), write, "{op:?}");
            assert_eq!(op.expires_at(), deadline, "{op:?}");
        }
    }

    #[test]
    fn payload_accessors_unwrap_their_variant() {
        assert_eq!(Reply::Value(Some(b"v".to_vec())).value(), Some(b"v".to_vec()));
        assert!(Reply::Exists(true).exists());
        assert!(!Reply::Deleted(false).deleted());
        assert_eq!(Reply::Counter(-3).counter(), -3);
    }

    #[test]
    #[should_panic(expected = "expected Reply::Value")]
    fn mismatched_payload_is_a_bug() {
        Reply::Stored.value();
    }
}
