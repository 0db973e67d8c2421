//! The binary wire protocol.
//!
//! Frames are length-prefixed (`u32` LE, body follows). Requests and
//! responses serialize to simple tagged byte layouts:
//!
//! ```text
//! Request:  [ op (1) | key_len (4) | val_len (4) | key | value ]
//! Response: [ status (1) | val_len (4) | value ]
//! ```
//!
//! Batched operations ride inside the ordinary request/response `value`
//! field with count-prefixed framing, so one frame (and one
//! enclave-worker dispatch) carries a whole batch:
//!
//! ```text
//! MultiGet  request value:  [ count (4) ] ( [ klen (4) | key ] )*
//! MultiGet  response value: [ count (4) ] ( [ status (1) | vlen (4) | value ] )*
//! MultiSet  request value:  [ count (4) ] ( [ klen (4) | vlen (4) | key | value ] )*
//! MultiSet  response:       empty Ok, or Error when any item was rejected
//! ```
//!
//! Per-key statuses inside a `MultiGet` response are `Ok`/`NotFound`;
//! a batch-level failure (e.g. an integrity violation) is returned as a
//! frame-level `Error` response instead, failing the batch closed.
//!
//! When the secure channel is active, the *body* of each frame is the
//! sealed form produced by [`crate::session::SessionCrypto`].

use crate::{NetError, Result};
use std::io::{Read, Write};

/// Maximum accepted frame body (defensive bound).
pub const MAX_FRAME: usize = 64 << 20;

/// Operation codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpCode {
    /// Read a key.
    Get = 1,
    /// Write a key.
    Set = 2,
    /// Delete a key.
    Delete = 3,
    /// Append to a key's value.
    Append = 4,
    /// Add a delta to a decimal value (delta is the request value, LE i64).
    Increment = 5,
    /// Liveness probe.
    Ping = 6,
    /// Ordered prefix scan: `key` is the prefix, `value` is an
    /// [`encode_scan_limit`] payload carrying the explicit result
    /// limit. The response value is a [`encode_scan`] payload.
    ScanPrefix = 7,
    /// Batched read: `key` is empty, `value` is an
    /// [`encode_multi_get`] payload. The response value is an
    /// [`encode_multi_get_response`] payload.
    MultiGet = 8,
    /// Batched write: `key` is empty, `value` is an
    /// [`encode_multi_set`] payload. The response carries no value.
    MultiSet = 9,
    /// Observability snapshot: `key` and `value` are empty. The response
    /// value is an [`encode_stats`] payload.
    Stats = 10,
    /// Durability barrier: `key` and `value` are empty. Commits every
    /// operation buffered in the server's write-ahead log before the Ok
    /// response; a server without a WAL acknowledges immediately.
    Flush = 11,
    /// Write a key with an expiry deadline: `value` is an
    /// [`encode_set_ttl`] payload carrying the relative TTL and the
    /// actual value. Stores without expiry support answer `Error`.
    SetTtl = 12,
    /// Start a replication subscription (secure channel only): `key`
    /// and `value` are empty. The response value is a
    /// [`shieldstore::ReplHello`] payload carrying the log keys — the
    /// reason this opcode is refused outside an attested session.
    ReplSubscribe = 13,
    /// Poll one batch of the sealed replication stream: `value` is an
    /// [`encode_repl_poll`] payload naming the subscriber's position.
    /// The response value is a [`shieldstore::ReplBatch`] payload.
    ReplSegment = 14,
    /// Report a replica's applied watermark: `value` is an
    /// [`encode_repl_ack`] payload. The response carries no value.
    ReplAck = 15,
    /// Promote the serving replica to primary (secure channel only):
    /// `key` and `value` are empty. The response value is the promoted
    /// [`encode_watermark`] position. Non-replica servers answer
    /// `Error`.
    Promote = 16,
}

impl OpCode {
    /// Parses an opcode byte.
    pub fn from_u8(v: u8) -> Result<OpCode> {
        Ok(match v {
            1 => OpCode::Get,
            2 => OpCode::Set,
            3 => OpCode::Delete,
            4 => OpCode::Append,
            5 => OpCode::Increment,
            6 => OpCode::Ping,
            7 => OpCode::ScanPrefix,
            8 => OpCode::MultiGet,
            9 => OpCode::MultiSet,
            10 => OpCode::Stats,
            11 => OpCode::Flush,
            12 => OpCode::SetTtl,
            13 => OpCode::ReplSubscribe,
            14 => OpCode::ReplSegment,
            15 => OpCode::ReplAck,
            16 => OpCode::Promote,
            other => return Err(NetError::Protocol(format!("unknown opcode {other}"))),
        })
    }
}

/// Response status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Success; value carries the result.
    Ok = 0,
    /// Key not found.
    NotFound = 1,
    /// Server-side failure (capacity, non-numeric increment, ...).
    Error = 2,
    /// The server shed this request under overload (admission control
    /// or a missed per-request deadline). The operation was **not**
    /// executed; retry after backoff.
    Busy = 3,
    /// The key's hash partition is quarantined after an integrity
    /// violation. The server keeps serving other partitions; retrying
    /// is pointless until the operator restores the store.
    Quarantined = 4,
    /// The write would exceed the requesting tenant's quota. The
    /// operation was **not** executed; the tenant must delete data (or
    /// get its quota raised) before retrying.
    QuotaExceeded = 5,
    /// The server is a replica serving reads only; the mutation was
    /// **not** executed. Retry against the primary (or after this
    /// replica is promoted).
    ReadOnly = 6,
    /// Durable storage failed under the server's write-ahead log and
    /// the writer is poisoned: this mutation — and every further one on
    /// this node — fails closed. Reads keep serving. Clients should
    /// fail over to a replica rather than retry here.
    StorageFailed = 7,
}

impl Status {
    /// Parses a status byte.
    pub fn from_u8(v: u8) -> Result<Status> {
        Ok(match v {
            0 => Status::Ok,
            1 => Status::NotFound,
            2 => Status::Error,
            3 => Status::Busy,
            4 => Status::Quarantined,
            5 => Status::QuotaExceeded,
            6 => Status::ReadOnly,
            7 => Status::StorageFailed,
            other => return Err(NetError::Protocol(format!("unknown status {other}"))),
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The operation.
    pub op: OpCode,
    /// The key.
    pub key: Vec<u8>,
    /// The value (empty for `Get`/`Delete`/`Ping`).
    pub value: Vec<u8>,
}

impl Request {
    /// Serializes the request body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9 + self.key.len() + self.value.len());
        out.push(self.op as u8);
        out.extend_from_slice(&(self.key.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.key);
        out.extend_from_slice(&self.value);
        out
    }

    /// Parses a request body.
    pub fn decode(bytes: &[u8]) -> Result<Request> {
        if bytes.len() < 9 {
            return Err(NetError::Protocol("short request".into()));
        }
        let op = OpCode::from_u8(bytes[0])?;
        let key_len = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")) as usize;
        let val_len = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes")) as usize;
        if bytes.len() != 9 + key_len + val_len {
            return Err(NetError::Protocol("request length mismatch".into()));
        }
        Ok(Request {
            op,
            key: bytes[9..9 + key_len].to_vec(),
            value: bytes[9 + key_len..].to_vec(),
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outcome.
    pub status: Status,
    /// Result payload (value for `Get`, new value for `Increment`, ...).
    pub value: Vec<u8>,
}

impl Response {
    /// Shorthand for an OK response with a payload.
    pub fn ok(value: Vec<u8>) -> Self {
        Self { status: Status::Ok, value }
    }

    /// Shorthand for an empty OK response.
    pub fn ok_empty() -> Self {
        Self { status: Status::Ok, value: Vec::new() }
    }

    /// Shorthand for NotFound.
    pub fn not_found() -> Self {
        Self { status: Status::NotFound, value: Vec::new() }
    }

    /// Shorthand for Error.
    pub fn error() -> Self {
        Self { status: Status::Error, value: Vec::new() }
    }

    /// Shorthand for Busy (request shed, not executed).
    pub fn busy() -> Self {
        Self { status: Status::Busy, value: Vec::new() }
    }

    /// Shorthand for Quarantined.
    pub fn quarantined() -> Self {
        Self { status: Status::Quarantined, value: Vec::new() }
    }

    /// Shorthand for QuotaExceeded.
    pub fn quota_exceeded() -> Self {
        Self { status: Status::QuotaExceeded, value: Vec::new() }
    }

    /// Shorthand for ReadOnly (replica refused a mutation).
    pub fn read_only() -> Self {
        Self { status: Status::ReadOnly, value: Vec::new() }
    }

    /// Shorthand for StorageFailed (poisoned log writer refused a
    /// mutation).
    pub fn storage_failed() -> Self {
        Self { status: Status::StorageFailed, value: Vec::new() }
    }

    /// Serializes the response body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(5 + self.value.len());
        out.push(self.status as u8);
        out.extend_from_slice(&(self.value.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.value);
        out
    }

    /// Parses a response body.
    pub fn decode(bytes: &[u8]) -> Result<Response> {
        if bytes.len() < 5 {
            return Err(NetError::Protocol("short response".into()));
        }
        let status = Status::from_u8(bytes[0])?;
        let val_len = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")) as usize;
        if bytes.len() != 5 + val_len {
            return Err(NetError::Protocol("response length mismatch".into()));
        }
        Ok(Response { status, value: bytes[5..].to_vec() })
    }
}

/// Encodes scan results: repeated `[klen u32 | vlen u32 | key | value]`.
pub fn encode_scan(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (k, v) in entries {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(v);
    }
    out
}

/// Decodes a scan payload produced by [`encode_scan`].
pub fn decode_scan(mut bytes: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        if bytes.len() < 8 {
            return Err(NetError::Protocol("truncated scan entry header".into()));
        }
        let klen = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
        let vlen = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
        let need = 8usize
            .checked_add(klen)
            .and_then(|n| n.checked_add(vlen))
            .ok_or_else(|| NetError::Protocol("scan entry length overflow".into()))?;
        if bytes.len() < need {
            return Err(NetError::Protocol("truncated scan entry body".into()));
        }
        out.push((bytes[8..8 + klen].to_vec(), bytes[8 + klen..need].to_vec()));
        bytes = &bytes[need..];
    }
    Ok(out)
}

/// Version tag of the [`encode_scan_limit`] layout.
pub const SCAN_LIMIT_VERSION: u8 = 1;

/// Encodes a `ScanPrefix` request value: `[version u8 | limit u32 LE]`.
///
/// Earlier protocol revisions smuggled the limit as a bare 4-byte
/// `value`, indistinguishable from an (unsupported) value payload. The
/// explicit version byte makes the field self-describing;
/// [`decode_scan_limit`] rejects the old bare form by length.
pub fn encode_scan_limit(limit: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(5);
    out.push(SCAN_LIMIT_VERSION);
    out.extend_from_slice(&limit.to_le_bytes());
    out
}

/// Decodes a payload produced by [`encode_scan_limit`], rejecting any
/// other length (including the legacy bare 4-byte limit) or version.
pub fn decode_scan_limit(bytes: &[u8]) -> Result<u32> {
    if bytes.len() != 5 {
        return Err(NetError::Protocol(format!(
            "scan limit payload must be 5 bytes, got {}",
            bytes.len()
        )));
    }
    if bytes[0] != SCAN_LIMIT_VERSION {
        return Err(NetError::Protocol(format!("unknown scan limit version {}", bytes[0])));
    }
    Ok(u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes")))
}

/// Encodes a `SetTtl` request value: `[ttl_ns u64 LE | value]`. The
/// TTL is relative (nanoseconds from arrival); the server converts it
/// to an absolute deadline. `ttl_ns` must be nonzero — a zero TTL is a
/// plain `Set`.
pub fn encode_set_ttl(ttl_ns: u64, value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + value.len());
    out.extend_from_slice(&ttl_ns.to_le_bytes());
    out.extend_from_slice(value);
    out
}

/// Decodes a payload produced by [`encode_set_ttl`], rejecting short
/// payloads and a zero TTL.
pub fn decode_set_ttl(bytes: &[u8]) -> Result<(u64, &[u8])> {
    if bytes.len() < 8 {
        return Err(NetError::Protocol("short set-ttl payload".into()));
    }
    let ttl = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
    if ttl == 0 {
        return Err(NetError::Protocol("set-ttl with zero TTL".into()));
    }
    Ok((ttl, &bytes[8..]))
}

/// Encodes a `(generation, seq)` watermark: `[gen u64 | seq u64]`.
/// Used by the `Flush` response (empty value = the server has no WAL)
/// and the `Promote` response.
pub fn encode_watermark(generation: u64, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out
}

/// Decodes a payload produced by [`encode_watermark`]; rejects any
/// other length.
pub fn decode_watermark(bytes: &[u8]) -> Result<(u64, u64)> {
    if bytes.len() != 16 {
        return Err(NetError::Protocol(format!(
            "watermark payload must be 16 bytes, got {}",
            bytes.len()
        )));
    }
    Ok((
        u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
        u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
    ))
}

/// Encodes a `ReplSegment` request value: the subscriber's stream
/// position and byte budget, `[generation u64 | after_seq u64 |
/// max_bytes u32]`.
pub fn encode_repl_poll(generation: u64, after_seq: u64, max_bytes: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(20);
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&after_seq.to_le_bytes());
    out.extend_from_slice(&max_bytes.to_le_bytes());
    out
}

/// Decodes a payload produced by [`encode_repl_poll`].
pub fn decode_repl_poll(bytes: &[u8]) -> Result<(u64, u64, u32)> {
    if bytes.len() != 20 {
        return Err(NetError::Protocol(format!(
            "repl poll payload must be 20 bytes, got {}",
            bytes.len()
        )));
    }
    Ok((
        u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
        u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
        u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")),
    ))
}

/// Encodes a `ReplAck` request value: `[subscriber u64 | generation
/// u64 | seq u64]`.
pub fn encode_repl_ack(subscriber: u64, generation: u64, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    out.extend_from_slice(&subscriber.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out
}

/// Decodes a payload produced by [`encode_repl_ack`].
pub fn decode_repl_ack(bytes: &[u8]) -> Result<(u64, u64, u64)> {
    if bytes.len() != 24 {
        return Err(NetError::Protocol(format!(
            "repl ack payload must be 24 bytes, got {}",
            bytes.len()
        )));
    }
    Ok((
        u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
        u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
        u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")),
    ))
}

/// Reads the `u32` LE count prefix shared by all batch payloads and
/// sanity-checks it against the bytes that remain: each entry carries at
/// least `min_entry_bytes` of header, so a count larger than
/// `remaining / min_entry_bytes` cannot be satisfied and is rejected
/// before any allocation sized from it.
fn read_batch_count(bytes: &[u8], min_entry_bytes: usize) -> Result<(usize, &[u8])> {
    if bytes.len() < 4 {
        return Err(NetError::Protocol("truncated batch count".into()));
    }
    let count = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    let rest = &bytes[4..];
    if count > rest.len() / min_entry_bytes.max(1) {
        return Err(NetError::Protocol("batch count exceeds payload".into()));
    }
    Ok((count, rest))
}

/// Encodes a `MultiGet` request value: `[count u32] ([klen u32 | key])*`.
pub fn encode_multi_get(keys: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + keys.iter().map(|k| 4 + k.len()).sum::<usize>());
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for k in keys {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
    }
    out
}

/// Decodes a payload produced by [`encode_multi_get`].
pub fn decode_multi_get(bytes: &[u8]) -> Result<Vec<Vec<u8>>> {
    Ok(multi_get_keys(bytes)?.into_iter().map(<[u8]>::to_vec).collect())
}

/// [`decode_multi_get`] without copying: the keys borrow from `bytes`,
/// which is how the server hands a batch to the store.
pub fn multi_get_keys(bytes: &[u8]) -> Result<Vec<&[u8]>> {
    let (count, mut rest) = read_batch_count(bytes, 4)?;
    let mut keys = Vec::with_capacity(count);
    for _ in 0..count {
        if rest.len() < 4 {
            return Err(NetError::Protocol("truncated multi-get key header".into()));
        }
        let klen = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if rest.len() < 4 + klen {
            return Err(NetError::Protocol("truncated multi-get key".into()));
        }
        keys.push(&rest[4..4 + klen]);
        rest = &rest[4 + klen..];
    }
    if !rest.is_empty() {
        return Err(NetError::Protocol("trailing bytes after multi-get batch".into()));
    }
    Ok(keys)
}

/// Encodes a `MultiGet` response value:
/// `[count u32] ([status u8 | vlen u32 | value])*`, one entry per
/// requested key in request order. `None` encodes as `NotFound` with an
/// empty value.
pub fn encode_multi_get_response(results: &[Option<Vec<u8>>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        4 + results.iter().map(|r| 5 + r.as_ref().map_or(0, |v| v.len())).sum::<usize>(),
    );
    out.extend_from_slice(&(results.len() as u32).to_le_bytes());
    for r in results {
        match r {
            Some(v) => {
                out.push(Status::Ok as u8);
                out.extend_from_slice(&(v.len() as u32).to_le_bytes());
                out.extend_from_slice(v);
            }
            None => {
                out.push(Status::NotFound as u8);
                out.extend_from_slice(&0u32.to_le_bytes());
            }
        }
    }
    out
}

/// Decodes a payload produced by [`encode_multi_get_response`].
pub fn decode_multi_get_response(bytes: &[u8]) -> Result<Vec<Option<Vec<u8>>>> {
    let (count, mut rest) = read_batch_count(bytes, 5)?;
    let mut results = Vec::with_capacity(count);
    for _ in 0..count {
        if rest.len() < 5 {
            return Err(NetError::Protocol("truncated multi-get result header".into()));
        }
        let status = Status::from_u8(rest[0])?;
        let vlen = u32::from_le_bytes(rest[1..5].try_into().expect("4 bytes")) as usize;
        if rest.len() < 5 + vlen {
            return Err(NetError::Protocol("truncated multi-get result value".into()));
        }
        match status {
            Status::Ok => results.push(Some(rest[5..5 + vlen].to_vec())),
            Status::NotFound => {
                if vlen != 0 {
                    return Err(NetError::Protocol("multi-get miss carries a value".into()));
                }
                results.push(None);
            }
            Status::Error
            | Status::Busy
            | Status::Quarantined
            | Status::QuotaExceeded
            | Status::ReadOnly
            | Status::StorageFailed => {
                return Err(NetError::Protocol(format!(
                    "per-key {status:?} status in multi-get response",
                )));
            }
        }
        rest = &rest[5 + vlen..];
    }
    if !rest.is_empty() {
        return Err(NetError::Protocol("trailing bytes after multi-get results".into()));
    }
    Ok(results)
}

/// Encodes a `MultiSet` request value:
/// `[count u32] ([klen u32 | vlen u32 | key | value])*`.
pub fn encode_multi_set(items: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(4 + items.iter().map(|(k, v)| 8 + k.len() + v.len()).sum::<usize>());
    out.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for (k, v) in items {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(v);
    }
    out
}

/// Decodes a payload produced by [`encode_multi_set`].
pub fn decode_multi_set(bytes: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    Ok(multi_set_items(bytes)?.into_iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect())
}

/// [`decode_multi_set`] without copying: the items borrow from `bytes`.
pub fn multi_set_items(bytes: &[u8]) -> Result<Vec<(&[u8], &[u8])>> {
    let (count, mut rest) = read_batch_count(bytes, 8)?;
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        if rest.len() < 8 {
            return Err(NetError::Protocol("truncated multi-set item header".into()));
        }
        let klen = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let vlen = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
        let need = 8usize
            .checked_add(klen)
            .and_then(|n| n.checked_add(vlen))
            .ok_or_else(|| NetError::Protocol("multi-set item length overflow".into()))?;
        if rest.len() < need {
            return Err(NetError::Protocol("truncated multi-set item body".into()));
        }
        items.push((&rest[8..8 + klen], &rest[8 + klen..need]));
        rest = &rest[need..];
    }
    if !rest.is_empty() {
        return Err(NetError::Protocol("trailing bytes after multi-set batch".into()));
    }
    Ok(items)
}

/// Encodes a `Stats` response value: [`shieldstore::StatsSnapshot::to_words`]
/// as u64 LE. The first word is the layout fingerprint derived from the
/// stat tables, so a peer built from different tables fails closed
/// instead of misreading counters, and a stat added to a table is
/// serialized automatically.
pub fn encode_stats(snap: &shieldstore::StatsSnapshot) -> Vec<u8> {
    snap.to_words().into_iter().flat_map(u64::to_le_bytes).collect()
}

/// Decodes a payload produced by [`encode_stats`], failing closed on a
/// layout mismatch, truncation, trailing bytes, or internally
/// inconsistent histograms.
pub fn decode_stats(bytes: &[u8]) -> Result<shieldstore::StatsSnapshot> {
    let words = bytes.chunks_exact(8);
    if !words.remainder().is_empty() {
        return Err(NetError::Protocol("stats payload is not whole u64 words".into()));
    }
    let words = words.map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
    shieldstore::StatsSnapshot::from_words(words)
        .map_err(|why| NetError::Protocol(format!("stats payload: {why}")))
}

/// Appends a length-prefixed frame around `body` to `out`.
pub fn push_frame(out: &mut Vec<u8>, body: &[u8]) -> Result<()> {
    if body.len() > MAX_FRAME {
        return Err(NetError::Protocol("frame too large".into()));
    }
    out.reserve(4 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    Ok(())
}

/// Writes a length-prefixed frame in one `write_all`: on a `TCP_NODELAY`
/// socket a separate header write is a syscall and a segment of its own.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> Result<()> {
    let mut frame = Vec::new();
    push_frame(&mut frame, body)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads a length-prefixed frame; `Ok(None)` on clean EOF.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(NetError::Protocol("frame too large".into()));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        for op in [OpCode::Get, OpCode::Set, OpCode::Delete, OpCode::Append, OpCode::Increment] {
            let req = Request { op, key: b"key".to_vec(), value: b"value".to_vec() };
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
        let empty = Request { op: OpCode::Ping, key: Vec::new(), value: Vec::new() };
        assert_eq!(Request::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn response_roundtrip() {
        let r = Response::ok(b"payload".to_vec());
        assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        for r in
            [Response::not_found(), Response::error(), Response::busy(), Response::quarantined()]
        {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn scan_limit_roundtrip() {
        for limit in [0u32, 1, 100, u32::MAX] {
            assert_eq!(decode_scan_limit(&encode_scan_limit(limit)).unwrap(), limit);
        }
    }

    #[test]
    fn malformed_scan_limit_rejected() {
        // The legacy bare 4-byte limit is rejected by length.
        assert!(decode_scan_limit(&100u32.to_le_bytes()).is_err());
        assert!(decode_scan_limit(&[]).is_err());
        assert!(decode_scan_limit(&encode_scan_limit(7)[..4]).is_err());
        let mut long = encode_scan_limit(7);
        long.push(0);
        assert!(decode_scan_limit(&long).is_err());
        let mut bad_version = encode_scan_limit(7);
        bad_version[0] = SCAN_LIMIT_VERSION + 1;
        assert!(decode_scan_limit(&bad_version).is_err());
    }

    #[test]
    fn per_key_shed_statuses_rejected_in_multi_get() {
        // Busy/Quarantined are frame-level outcomes; a per-key occurrence
        // is malformed and must fail the whole batch decode.
        for status in [Status::Error, Status::Busy, Status::Quarantined] {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.push(status as u8);
            bytes.extend_from_slice(&0u32.to_le_bytes());
            assert!(decode_multi_get_response(&bytes).is_err(), "{status:?}");
        }
    }

    #[test]
    fn malformed_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Length mismatch.
        let mut bytes = Request { op: OpCode::Get, key: b"k".to_vec(), value: vec![] }.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        assert!(Response::decode(&[0, 5, 0, 0, 0, 1]).is_err());
    }

    #[test]
    fn frame_roundtrip_over_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// Header and body leave in one write (one syscall, one segment),
    /// and a reader that buffers sees the same frames, a clean end as
    /// `None` and a torn body as an error.
    #[test]
    fn frame_is_one_write_and_reads_back_through_a_buffer() {
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = Writes(Vec::new());
        write_frame(&mut sink, b"hello").unwrap();
        write_frame(&mut sink, b"world!").unwrap();
        assert_eq!(sink.0.len(), 2, "one write per frame");

        let wire = sink.0.concat();
        let mut whole = std::io::BufReader::new(&wire[..]);
        assert_eq!(read_frame(&mut whole).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut whole).unwrap().unwrap(), b"world!");
        assert!(read_frame(&mut whole).unwrap().is_none());

        let mut torn = std::io::BufReader::new(&wire[..wire.len() - 1]);
        assert_eq!(read_frame(&mut torn).unwrap().unwrap(), b"hello");
        assert!(read_frame(&mut torn).is_err());
    }

    #[test]
    fn multi_get_roundtrip() {
        let keys = vec![b"alpha".to_vec(), Vec::new(), b"gamma".to_vec()];
        assert_eq!(decode_multi_get(&encode_multi_get(&keys)).unwrap(), keys);
        assert_eq!(decode_multi_get(&encode_multi_get(&[])).unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn multi_get_response_roundtrip() {
        let results = vec![Some(b"v1".to_vec()), None, Some(Vec::new())];
        assert_eq!(
            decode_multi_get_response(&encode_multi_get_response(&results)).unwrap(),
            results
        );
    }

    #[test]
    fn multi_set_roundtrip() {
        let items = vec![(b"k1".to_vec(), b"v1".to_vec()), (b"k2".to_vec(), Vec::new())];
        assert_eq!(decode_multi_set(&encode_multi_set(&items)).unwrap(), items);
    }

    #[test]
    fn malformed_batches_rejected() {
        // Count prefix missing or truncated.
        assert!(decode_multi_get(&[1, 0]).is_err());
        // Count claims more entries than the payload can hold.
        assert!(decode_multi_get(&[200, 0, 0, 0]).is_err());
        assert!(decode_multi_set(&[5, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(decode_multi_get_response(&[9, 0, 0, 0, 0]).is_err());
        // Truncated entry body.
        let mut bytes = encode_multi_get(&[b"key".to_vec()]);
        bytes.pop();
        assert!(decode_multi_get(&bytes).is_err());
        // Trailing garbage after the declared batch.
        let mut bytes = encode_multi_set(&[(b"k".to_vec(), b"v".to_vec())]);
        bytes.push(0);
        assert!(decode_multi_set(&bytes).is_err());
        // A miss entry must not carry a value.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(Status::NotFound as u8);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(b'x');
        assert!(decode_multi_get_response(&bytes).is_err());
    }

    /// Every scalar row of every table set to a distinct value, plus a
    /// few recorded samples.
    fn sample_snapshot() -> shieldstore::StatsSnapshot {
        let mut snap = shieldstore::StatsSnapshot::default();
        let mut next = 0u64;
        snap.for_each_scalar(|_, _, v| {
            next += 17;
            *v = next;
        });
        snap.hists.get.record(150);
        snap.hists.get.record(9_000);
        snap.hists.set.record(3);
        snap.hists.batch.record(1 << 40);
        snap.hists.wal_group.record(16);
        snap
    }

    #[test]
    fn stats_roundtrip() {
        let snap = sample_snapshot();
        let decoded = decode_stats(&encode_stats(&snap)).unwrap();
        assert_eq!(decoded, snap);
        let empty = shieldstore::StatsSnapshot::default();
        assert_eq!(decode_stats(&encode_stats(&empty)).unwrap(), empty);
    }

    #[test]
    fn malformed_stats_rejected() {
        let good = encode_stats(&sample_snapshot());
        assert!(decode_stats(&[]).is_err());
        // A peer built from different tables: any fingerprint byte off.
        for i in 0..8 {
            let mut bad = good.clone();
            bad[i] ^= 1;
            assert!(decode_stats(&bad).is_err(), "fingerprint byte {i}");
        }
        // Truncation anywhere must fail, never panic.
        for cut in 0..good.len() {
            assert!(decode_stats(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing bytes, whole word or not.
        for extra in [1, 8] {
            let mut bad = good.clone();
            bad.resize(bad.len() + extra, 0);
            assert!(decode_stats(&bad).is_err(), "{extra} trailing bytes");
        }
        // A histogram whose max lies outside its top bucket fails closed
        // (histograms close the payload; `max` is each one's last word).
        let mut bad = good.clone();
        let max_off = bad.len() - 8;
        bad[max_off..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_stats(&bad).is_err());
    }

    #[test]
    fn repl_payloads_roundtrip() {
        assert_eq!(decode_watermark(&encode_watermark(7, 1234)).unwrap(), (7, 1234));
        assert_eq!(decode_repl_poll(&encode_repl_poll(3, 99, 1 << 20)).unwrap(), (3, 99, 1 << 20));
        assert_eq!(decode_repl_ack(&encode_repl_ack(5, 2, 777)).unwrap(), (5, 2, 777));
    }

    #[test]
    fn repl_payloads_reject_bad_lengths() {
        for len in [0usize, 8, 15, 17, 32] {
            assert!(decode_watermark(&vec![0u8; len]).is_err(), "watermark len {len}");
        }
        for len in [0usize, 16, 19, 21, 24] {
            assert!(decode_repl_poll(&vec![0u8; len]).is_err(), "poll len {len}");
        }
        for len in [0usize, 16, 20, 23, 25] {
            assert!(decode_repl_ack(&vec![0u8; len]).is_err(), "ack len {len}");
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
