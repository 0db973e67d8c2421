//! The binary wire protocol, and the one codec between it and [`Op`].
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
//! An op's wire form lives here and nowhere else, both directions side
//! by side:
//!
//! ```text
//! client  Op ──Request::from_op──► Request ══ wire ══► Request ──Request::with_call──► Op    server
//! client  Reply ◄──Response::into_reply── Response ◄══ wire ══ Response ◄──Response::from_reply── Reply
//! ```
//!
//! A control request travels the same way, as a [`Control`] in and a
//! [`Controlled`] out (`Request::from_control`, `Request::with_call`,
//! `Response::from_controlled`, `Response::into_controlled`), and a
//! refusal as a [`Refusal`], one status byte each way. The server decodes
//! a frame once, into a `Call`: an op, a control request, or a ping.
//!
//! `Response::into_reply` is the one place a reply's status is judged
//! (through `Response::into_ok`, which the control calls share).
//! Payload bytes are untrusted and are read one way: through the
//! bounds-checked cursor every format that leaves the enclave shares,
//! [`sgx_sim::bytes::Reader`], whose `finish` refuses trailing bytes.
//! The encoders write through its mirror, `Writer`.
//!
//! When the secure channel is active, the *body* of each frame is the
//! sealed form produced by [`crate::session::SessionCrypto`].

use crate::{NetError, Result};
use sgx_sim::bytes::{Reader, Writer};
use shieldstore::{Control, Controlled, Op, Refusal, ReplBatch, ReplHello, Reply, Watermark};
use std::io::{Read, Write};

/// Maximum accepted frame body (defensive bound).
pub const MAX_FRAME: usize = 64 << 20;

/// Declares a one-byte wire table once: each variant beside its byte,
/// and `from_u8` derived from the same list.
macro_rules! wire_table {
    ($(#[$doc:meta])* $name:ident($what:literal) {
        $($(#[$variant_doc:meta])* $variant:ident = $byte:literal,)*
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u8)]
        pub enum $name {
            $($(#[$variant_doc])* $variant = $byte,)*
        }

        impl $name {
            #[doc = concat!("Parses ", $what, " byte.")]
            pub fn from_u8(v: u8) -> Result<$name> {
                match v {
                    $($byte => Ok($name::$variant),)*
                    other => {
                        Err(NetError::Protocol(format!(concat!("unknown ", $what, " {}"), other)))
                    }
                }
            }
        }
    };
}

wire_table! {
    /// Operation codes.
    OpCode("opcode") {
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
}

wire_table! {
    /// Response status codes.
    Status("status") {
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
        /// the writer is poisoned: every further mutation on this node is
        /// refused without executing. The mutation whose own commit
        /// poisoned the writer is the exception: it is already in memory,
        /// so it **may** have executed. Reads keep serving. Clients should
        /// fail over to a replica rather than retry here.
        StorageFailed = 7,
    }
}

/// The status a refusal answers; `Status::refusal` reads it back.
impl From<Refusal> for Status {
    fn from(refusal: Refusal) -> Status {
        match refusal {
            Refusal::Busy => Status::Busy,
            Refusal::Quarantined => Status::Quarantined,
            Refusal::QuotaExceeded => Status::QuotaExceeded,
            Refusal::ReadOnly => Status::ReadOnly,
            Refusal::StorageFailed => Status::StorageFailed,
            Refusal::Failed => Status::Error,
        }
    }
}

impl Status {
    /// The refusal this status answers; `None` for the two answers,
    /// `Ok` and `NotFound`.
    pub(crate) fn refusal(self) -> Option<Refusal> {
        Some(match self {
            Status::Ok | Status::NotFound => return None,
            Status::Error => Refusal::Failed,
            Status::Busy => Refusal::Busy,
            Status::Quarantined => Refusal::Quarantined,
            Status::QuotaExceeded => Refusal::QuotaExceeded,
            Status::ReadOnly => Refusal::ReadOnly,
            Status::StorageFailed => Refusal::StorageFailed,
        })
    }
}

/// What a request asks of the server, decoded once: a key-value op, a
/// control request, or a liveness probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Call<'a> {
    /// A key-value op.
    Op(Op<'a>),
    /// A control request.
    Control(Control),
    /// `Ping`.
    Ping,
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
        let (key, value) = (&self.key, &self.value);
        let w = &mut Writer::with_capacity(9 + key.len() + value.len());
        w.u8(self.op as u8).length(key.len()).length(value.len()).bytes(key).bytes(value).done()
    }

    /// Parses a request body.
    pub fn decode(bytes: &[u8]) -> Result<Request> {
        // Nothing is copied until the whole body has checked out.
        let (op, key, value) = whole(bytes, "request", |r| {
            let op = OpCode::from_u8(r.u8()?)?;
            let (key_len, val_len) = (r.length()?, r.length()?);
            Ok((op, r.bytes(key_len)?, r.bytes(val_len)?))
        })?;
        Ok(Request { op, key: key.to_vec(), value: value.to_vec() })
    }

    /// `Op → Request`: the frame a client sends for `op`. Refuses the ops
    /// the wire has no form for: `Exists`, `ScanRange`, and a `Set` or
    /// `MultiSet` with a deadline (the wire carries a relative TTL
    /// instead, see [`Request::set_ttl`]).
    pub fn from_op(op: Op<'_>) -> Result<Request> {
        let request = |op, key: &[u8], value| Ok(Request { op, key: key.to_vec(), value });
        match op {
            Op::Get(key) => request(OpCode::Get, key, Vec::new()),
            Op::Set { key, value, expires_at: 0 } => request(OpCode::Set, key, value.to_vec()),
            Op::Delete(key) => request(OpCode::Delete, key, Vec::new()),
            Op::Append { key, suffix } => request(OpCode::Append, key, suffix.to_vec()),
            Op::Increment { key, delta } => {
                request(OpCode::Increment, key, delta.to_le_bytes().to_vec())
            }
            Op::MultiGet(keys) => request(OpCode::MultiGet, &[], encode_multi_get(keys)),
            Op::MultiSet { items, expires_at: 0 } => {
                request(OpCode::MultiSet, &[], encode_multi_set(items))
            }
            // A limit past the wire's `u32` asks for everything anyway.
            Op::ScanPrefix { prefix, limit } => {
                let limit = encode_scan_limit(u32::try_from(limit).unwrap_or(u32::MAX));
                request(OpCode::ScanPrefix, prefix, limit)
            }
            Op::Exists(_) | Op::ScanRange { .. } | Op::Set { .. } | Op::MultiSet { .. } => {
                Err(NetError::Protocol(format!("{} has no wire form", op_name(op))))
            }
        }
    }

    /// `Control → Request`: the frame a client sends for `control`.
    pub(crate) fn from_control(control: Control) -> Request {
        let request = |op, value| Request { op, key: Vec::new(), value };
        match control {
            Control::Stats => request(OpCode::Stats, Vec::new()),
            Control::Flush => request(OpCode::Flush, Vec::new()),
            Control::ReplSubscribe => request(OpCode::ReplSubscribe, Vec::new()),
            Control::ReplSegment { generation, after_seq, max_bytes } => {
                request(OpCode::ReplSegment, encode_repl_poll(generation, after_seq, max_bytes))
            }
            Control::ReplAck { subscriber, generation, seq } => {
                request(OpCode::ReplAck, encode_repl_ack(subscriber, generation, seq))
            }
            Control::Promote => request(OpCode::Promote, Vec::new()),
        }
    }

    /// The liveness probe.
    pub(crate) fn ping() -> Request {
        Request { op: OpCode::Ping, key: Vec::new(), value: Vec::new() }
    }

    /// A write that expires `ttl_ns` nanoseconds after the server applies
    /// it: the wire form of a deadline, which only the server can make
    /// absolute (see `Request::with_call`).
    pub fn set_ttl(key: &[u8], value: &[u8], ttl_ns: u64) -> Request {
        Request { op: OpCode::SetTtl, key: key.to_vec(), value: encode_set_ttl(ttl_ns, value) }
    }

    /// `Request → Call`: validates the payload for its opcode and hands
    /// the decoded [`Call`] to `run` (a continuation, so a batch's key
    /// table can live on this frame while the op borrows it). `Err` means
    /// the request is malformed, and the store never sees it. The
    /// controls with nothing to say must say nothing: a payload on
    /// `Stats`, `Flush`, `ReplSubscribe` or `Promote` is malformed.
    pub(crate) fn with_call<R>(&self, run: impl FnOnce(Call<'_>) -> R) -> Result<R> {
        let (key, value) = (self.key.as_slice(), self.value.as_slice());
        // A batch's key table lives here, on this frame, while its op
        // borrows it; `run` is then called once, which lets it inline.
        let (keys, items);
        let call = match self.op {
            OpCode::Get
            | OpCode::Set
            | OpCode::SetTtl
            | OpCode::Delete
            | OpCode::Append
            | OpCode::Increment => Call::Op(self.keyed_op()?.expect("a single-key opcode")),
            // A whole batch is one op: one crossing charge and one shard-lock
            // acquisition per touched shard, however many keys ride in the
            // frame.
            OpCode::MultiGet => {
                keys = multi_get_keys(value)?;
                Call::Op(Op::MultiGet(&keys))
            }
            OpCode::MultiSet => {
                items = multi_set_items(value)?;
                Call::Op(Op::MultiSet { items: &items, expires_at: 0 })
            }
            // The limit rides in a versioned payload; the legacy bare 4-byte
            // form is rejected by the decoder.
            OpCode::ScanPrefix => {
                let limit = decode_scan_limit(value)? as usize;
                Call::Op(Op::ScanPrefix { prefix: key, limit })
            }
            OpCode::Ping => Call::Ping,
            OpCode::Stats | OpCode::Flush | OpCode::ReplSubscribe | OpCode::Promote
                if !key.is_empty() || !value.is_empty() =>
            {
                return Err(NetError::Protocol(format!("{:?} carries a payload", self.op)));
            }
            OpCode::Stats => Call::Control(Control::Stats),
            OpCode::Flush => Call::Control(Control::Flush),
            OpCode::ReplSubscribe => Call::Control(Control::ReplSubscribe),
            OpCode::Promote => Call::Control(Control::Promote),
            OpCode::ReplSegment => {
                let (generation, after_seq, max_bytes) = decode_repl_poll(value)?;
                Call::Control(Control::ReplSegment { generation, after_seq, max_bytes })
            }
            OpCode::ReplAck => {
                let (subscriber, generation, seq) = decode_repl_ack(value)?;
                Call::Control(Control::ReplAck { subscriber, generation, seq })
            }
        };
        Ok(run(call))
    }

    /// The request's op when it names one key — the ops a burst hands the
    /// store together (`KvBackend::execute_burst`) — borrowing the
    /// request; `None` for a batch, scan, control or ping. `Err` means the
    /// request is malformed, and the store never sees it.
    pub(crate) fn keyed_op(&self) -> Result<Option<Op<'_>>> {
        let (key, value) = (self.key.as_slice(), self.value.as_slice());
        Ok(Some(match self.op {
            OpCode::Get => Op::Get(key),
            OpCode::Set => Op::set(key, value),
            // The wire carries a relative, nonzero TTL (the decoder rejects
            // zero: that is a plain `Set`); the store wants an absolute
            // deadline, where zero means "no expiry".
            OpCode::SetTtl => {
                let (ttl_ns, value) = decode_set_ttl(value)?;
                let expires_at = shieldstore::ttl::deadline_after(ttl_ns);
                Op::Set { key, value, expires_at }
            }
            OpCode::Delete => Op::Delete(key),
            OpCode::Append => Op::Append { key, suffix: value },
            OpCode::Increment => {
                let delta = Reader::whole(value, "increment delta", Reader::u64)? as i64;
                Op::Increment { key, delta }
            }
            _ => return Ok(None),
        }))
    }
}

/// Names `control` in a refusal.
fn control_name(control: Control) -> &'static str {
    match control {
        Control::Stats => "stats (uninstrumented store?)",
        Control::Flush => "flush of the write-ahead log",
        Control::ReplSubscribe => "replication subscribe (no WAL, or truncated log?)",
        Control::ReplSegment { .. } => "replication segment poll",
        Control::ReplAck { .. } => "replication ack (ran ahead of durable?)",
        Control::Promote => "promotion (not a replica, or fenced?)",
    }
}

/// Names `op` in a refusal.
fn op_name(op: Op<'_>) -> &'static str {
    match op {
        Op::Get(_) => "get",
        Op::Exists(_) => "exists",
        Op::Set { .. } => "set",
        Op::Delete(_) => "delete",
        Op::Append { .. } => "append",
        Op::Increment { .. } => "increment",
        Op::MultiGet(_) => "multi-get",
        Op::MultiSet { .. } => "multi-set",
        Op::ScanRange { .. } | Op::ScanPrefix { .. } => "scan (index enabled?)",
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

    /// A response that is its status alone.
    pub fn empty(status: Status) -> Self {
        Self { status, value: Vec::new() }
    }

    /// Serializes the response body.
    pub fn encode(&self) -> Vec<u8> {
        Writer::with_capacity(5 + self.value.len()).u8(self.status as u8).slice(&self.value).done()
    }

    /// Parses a response body.
    pub fn decode(bytes: &[u8]) -> Result<Response> {
        whole(bytes, "response", |r| {
            let status = Status::from_u8(r.u8()?)?;
            Ok(Response { status, value: r.slice()?.to_vec() })
        })
    }

    /// `Reply → Response`. A miss answers `NotFound`; a reply whose
    /// content the client already knows answers an empty `Ok`.
    pub(crate) fn from_reply(reply: Reply) -> Response {
        match reply {
            Reply::Value(Some(value)) => Response::ok(value),
            Reply::Value(None) | Reply::Deleted(false) | Reply::Exists(false) => {
                Response::empty(Status::NotFound)
            }
            Reply::Stored | Reply::Deleted(true) | Reply::Exists(true) | Reply::Appended(_) => {
                Response::empty(Status::Ok)
            }
            Reply::Counter(next) => Response::ok(next.to_le_bytes().to_vec()),
            Reply::Values(results) => Response::ok(encode_multi_get_response(&results)),
            Reply::Entries(entries) => Response::ok(encode_scan(&entries)),
        }
    }

    /// `Controlled → Response`. A flush of a store without a log, and an
    /// ack, answer an empty `Ok`.
    pub(crate) fn from_controlled(answer: Controlled) -> Response {
        match answer {
            Controlled::Stats(snap) => Response::ok(encode_stats(&snap)),
            Controlled::Watermark(Some(wm)) => {
                Response::ok(encode_watermark(wm.generation, wm.seq))
            }
            Controlled::Watermark(None) | Controlled::Done => Response::empty(Status::Ok),
            Controlled::Hello(hello) => Response::ok(hello.encode()),
            Controlled::Batch(batch) => Response::ok(batch.encode()),
        }
    }

    /// `(Control, Response) → Controlled`: what the server's answer to
    /// `control` means; any status but `Ok` is judged by
    /// `Response::into_ok`.
    pub(crate) fn into_controlled(self, control: Control) -> Result<Controlled> {
        let value = self.into_ok(control_name(control))?;
        let malformed = |what: &str| NetError::Protocol(format!("malformed replication {what}"));
        Ok(match control {
            Control::Stats => Controlled::Stats(Box::new(decode_stats(&value)?)),
            Control::Flush if value.is_empty() => Controlled::Watermark(None),
            Control::Flush | Control::Promote => {
                let (generation, seq) = decode_watermark(&value)?;
                Controlled::Watermark(Some(Watermark::new(generation, seq)))
            }
            Control::ReplSubscribe => {
                Controlled::Hello(ReplHello::decode(&value).ok_or_else(|| malformed("hello"))?)
            }
            Control::ReplSegment { .. } => {
                Controlled::Batch(ReplBatch::decode(&value).ok_or_else(|| malformed("batch"))?)
            }
            Control::ReplAck { .. } => Controlled::Done,
        })
    }

    /// `(Op, Response) → Reply`: what the server's answer to `op` means.
    /// `NotFound` is a reply for the ops that can miss; any other status
    /// but `Ok` is judged by `Response::into_ok`.
    ///
    /// The wire carries no value for an append: an `Append` answers
    /// [`Reply::Appended`] with an **empty** value, not the value the
    /// append produced (read the key for that).
    pub fn into_reply(self, op: Op<'_>) -> Result<Reply> {
        match (self.status, op) {
            (Status::NotFound, Op::Get(_)) => return Ok(Reply::Value(None)),
            (Status::NotFound, Op::Delete(_)) => return Ok(Reply::Deleted(false)),
            (Status::NotFound, Op::Exists(_)) => return Ok(Reply::Exists(false)),
            _ => {}
        }
        let value = self.into_ok(op_name(op))?;
        Ok(match op {
            Op::Get(_) => Reply::Value(Some(value)),
            Op::Exists(_) => Reply::Exists(true),
            Op::Set { .. } | Op::MultiSet { .. } => Reply::Stored,
            Op::Delete(_) => Reply::Deleted(true),
            Op::Append { .. } => Reply::Appended(value),
            Op::Increment { .. } => {
                Reply::Counter(Reader::whole(&value, "increment reply", Reader::u64)? as i64)
            }
            Op::MultiGet(keys) => {
                let results = decode_multi_get_response(&value)?;
                if results.len() != keys.len() {
                    return Err(NetError::Protocol("multi-get result count mismatch".into()));
                }
                Reply::Values(results)
            }
            Op::ScanRange { .. } | Op::ScanPrefix { .. } => Reply::Entries(decode_scan(&value)?),
        })
    }

    /// The `Ok` payload, or the error any other status means — the one
    /// judgement of a status, shared by [`Response::into_reply`] and
    /// [`Response::into_controlled`]. A refusal a caller can act on
    /// arrives as [`NetError::Refused`], so it (and the retry layer) can
    /// tell "retry later" from "do not bother"; a bare `Error`, or a
    /// `NotFound` where nothing can miss, is a protocol error naming the
    /// refused request, `what`.
    pub(crate) fn into_ok(self, what: &str) -> Result<Vec<u8>> {
        match (self.status, self.status.refusal()) {
            (Status::Ok, _) => Ok(self.value),
            (_, Some(refusal)) if refusal != Refusal::Failed => Err(NetError::Refused(refusal)),
            _ => Err(NetError::Protocol(format!("server rejected {what}"))),
        }
    }
}

/// Reads all of a payload through the shared cursor; a refusal is a
/// protocol error naming the payload.
fn whole<'a, T>(
    bytes: &'a [u8],
    what: &'static str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T>,
) -> Result<T> {
    Reader::whole(bytes, what, read)
}

/// Encodes scan results: repeated `[klen u32 | vlen u32 | key | value]`.
pub fn encode_scan(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    entries.iter().fold(&mut Writer::default(), |w, (k, v)| w.pair(k, v)).done()
}

/// Decodes a scan payload produced by [`encode_scan`].
pub fn decode_scan(bytes: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
    whole(bytes, "scan entry", |r| {
        let mut out = Vec::new();
        while r.remaining() > 0 {
            let (k, v) = r.pair()?;
            out.push((k.to_vec(), v.to_vec()));
        }
        Ok(out)
    })
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
    Writer::with_capacity(5).u8(SCAN_LIMIT_VERSION).u32(limit).done()
}

/// Decodes a payload produced by [`encode_scan_limit`], rejecting any
/// other length (including the legacy bare 4-byte limit) or version.
pub fn decode_scan_limit(bytes: &[u8]) -> Result<u32> {
    let (version, limit) = whole(bytes, "scan limit", |r| Ok((r.u8()?, r.u32()?)))?;
    if version != SCAN_LIMIT_VERSION {
        return Err(NetError::Protocol(format!("unknown scan limit version {version}")));
    }
    Ok(limit)
}

/// Encodes a `SetTtl` request value: `[ttl_ns u64 LE | value]`. The
/// TTL is relative (nanoseconds from arrival); the server converts it
/// to an absolute deadline. `ttl_ns` must be nonzero — a zero TTL is a
/// plain `Set`.
pub fn encode_set_ttl(ttl_ns: u64, value: &[u8]) -> Vec<u8> {
    Writer::with_capacity(8 + value.len()).u64(ttl_ns).bytes(value).done()
}

/// Decodes a payload produced by [`encode_set_ttl`], rejecting short
/// payloads and a zero TTL.
pub fn decode_set_ttl(bytes: &[u8]) -> Result<(u64, &[u8])> {
    let (ttl, value) = whole(bytes, "set-ttl payload", |r| Ok((r.u64()?, r.rest()?)))?;
    if ttl == 0 {
        return Err(NetError::Protocol("set-ttl with zero TTL".into()));
    }
    Ok((ttl, value))
}

/// Encodes a `(generation, seq)` watermark: `[gen u64 | seq u64]`.
/// Used by the `Flush` response (empty value = the server has no WAL)
/// and the `Promote` response.
pub fn encode_watermark(generation: u64, seq: u64) -> Vec<u8> {
    Writer::with_capacity(16).u64(generation).u64(seq).done()
}

/// Decodes a payload produced by [`encode_watermark`]; rejects any
/// other length.
pub fn decode_watermark(bytes: &[u8]) -> Result<(u64, u64)> {
    whole(bytes, "watermark", |r| Ok((r.u64()?, r.u64()?)))
}

/// Encodes a `ReplSegment` request value: the subscriber's stream
/// position and byte budget, `[generation u64 | after_seq u64 |
/// max_bytes u32]`.
pub fn encode_repl_poll(generation: u64, after_seq: u64, max_bytes: u32) -> Vec<u8> {
    Writer::with_capacity(20).u64(generation).u64(after_seq).u32(max_bytes).done()
}

/// Decodes a payload produced by [`encode_repl_poll`].
pub fn decode_repl_poll(bytes: &[u8]) -> Result<(u64, u64, u32)> {
    whole(bytes, "repl poll", |r| Ok((r.u64()?, r.u64()?, r.u32()?)))
}

/// Encodes a `ReplAck` request value: `[subscriber u64 | generation
/// u64 | seq u64]`.
pub fn encode_repl_ack(subscriber: u64, generation: u64, seq: u64) -> Vec<u8> {
    Writer::with_capacity(24).u64(subscriber).u64(generation).u64(seq).done()
}

/// Decodes a payload produced by [`encode_repl_ack`].
pub fn decode_repl_ack(bytes: &[u8]) -> Result<(u64, u64, u64)> {
    whole(bytes, "repl ack", |r| Ok((r.u64()?, r.u64()?, r.u64()?)))
}

/// Encodes a `MultiGet` request value: `[count u32] ([klen u32 | key])*`.
pub fn encode_multi_get(keys: &[impl AsRef<[u8]>]) -> Vec<u8> {
    let size = 4 + keys.iter().map(|k| 4 + k.as_ref().len()).sum::<usize>();
    let w = &mut Writer::with_capacity(size);
    w.length(keys.len());
    keys.iter().fold(w, |w, k| w.slice(k.as_ref())).done()
}

/// Decodes a payload produced by [`encode_multi_get`]. The keys borrow
/// from `bytes`, which is how the server hands a batch to the store.
pub fn multi_get_keys(bytes: &[u8]) -> Result<Vec<&[u8]>> {
    whole(bytes, "multi-get batch", |r| Ok(r.batch(4, Reader::slice)?))
}

/// Encodes a `MultiGet` response value:
/// `[count u32] ([status u8 | vlen u32 | value])*`, one entry per
/// requested key in request order. `None` encodes as `NotFound` with an
/// empty value.
pub fn encode_multi_get_response(results: &[Option<Vec<u8>>]) -> Vec<u8> {
    let size = 4 + results.iter().map(|r| 5 + r.as_ref().map_or(0, Vec::len)).sum::<usize>();
    let w = &mut Writer::with_capacity(size);
    w.length(results.len());
    results
        .iter()
        .fold(w, |w, r| match r {
            Some(v) => w.u8(Status::Ok as u8).slice(v),
            None => w.u8(Status::NotFound as u8).slice(&[]),
        })
        .done()
}

/// Decodes a payload produced by [`encode_multi_get_response`]. A miss
/// carries no value, and per-key statuses other than `Ok`/`NotFound` are
/// refused: those are frame-level outcomes.
pub fn decode_multi_get_response(bytes: &[u8]) -> Result<Vec<Option<Vec<u8>>>> {
    whole(bytes, "multi-get results", |r| {
        r.batch(5, |r| match (Status::from_u8(r.u8()?)?, r.slice()?) {
            (Status::Ok, value) => Ok(Some(value.to_vec())),
            (Status::NotFound, []) => Ok(None),
            (Status::NotFound, _) => {
                Err(NetError::Protocol("multi-get miss carries a value".into()))
            }
            (status, _) => {
                Err(NetError::Protocol(format!("per-key {status:?} status in multi-get response")))
            }
        })
    })
}

/// Encodes a `MultiSet` request value:
/// `[count u32] ([klen u32 | vlen u32 | key | value])*`.
pub fn encode_multi_set(items: &[(impl AsRef<[u8]>, impl AsRef<[u8]>)]) -> Vec<u8> {
    let size =
        4 + items.iter().map(|(k, v)| 8 + k.as_ref().len() + v.as_ref().len()).sum::<usize>();
    let w = &mut Writer::with_capacity(size);
    w.length(items.len());
    items.iter().fold(w, |w, (k, v)| w.pair(k.as_ref(), v.as_ref())).done()
}

/// Decodes a payload produced by [`encode_multi_set`]. The items borrow
/// from `bytes`.
pub fn multi_set_items(bytes: &[u8]) -> Result<Vec<(&[u8], &[u8])>> {
    whole(bytes, "multi-set batch", |r| Ok(r.batch(8, Reader::pair)?))
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
    let words = whole(bytes, "stats payload", |r| {
        Ok((0..r.remaining() / 8).map(|_| r.u64()).collect::<std::result::Result<Vec<u64>, _>>()?)
    })?;
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
        for status in [Status::NotFound, Status::Error, Status::Busy, Status::Quarantined] {
            let r = Response::empty(status);
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

    /// The four codec functions are two inverse pairs: every op the wire
    /// carries comes back from its request unchanged, and every reply
    /// from its response (an append's value excepted: the wire has none).
    #[test]
    fn codec_functions_invert_each_other() {
        let keys: [&[u8]; 3] = [b"a", b"", b"c"];
        let items: [(&[u8], &[u8]); 2] = [(b"a", b"1"), (b"b", b"")];
        let ops = [
            Op::Get(b"k"),
            Op::set(b"k", b"v"),
            Op::Delete(b"k"),
            Op::Append { key: b"k", suffix: b"s" },
            Op::Increment { key: b"k", delta: -7 },
            Op::MultiGet(&keys),
            Op::MultiSet { items: &items, expires_at: 0 },
            Op::ScanPrefix { prefix: b"p", limit: 9 },
        ];
        for op in ops {
            let request = Request::decode(&Request::from_op(op).unwrap().encode()).unwrap();
            let back = request.with_call(|back| assert_eq!(back, Call::Op(op)));
            assert_eq!(back.ok(), Some(()), "{op:?}");
        }
        let no_wire_form = [
            Op::Exists(b"k"),
            Op::ScanRange { start: b"a", end: b"b", limit: 1 },
            Op::Set { key: b"k", value: b"v", expires_at: 5 },
            Op::MultiSet { items: &items, expires_at: 5 },
        ];
        for op in no_wire_form {
            assert!(Request::from_op(op).is_err(), "{op:?}");
        }

        let replies = [
            (Op::Get(b"k"), Reply::Value(Some(b"v".to_vec()))),
            (Op::Get(b"k"), Reply::Value(None)),
            (Op::Exists(b"k"), Reply::Exists(true)),
            (Op::Exists(b"k"), Reply::Exists(false)),
            (Op::set(b"k", b"v"), Reply::Stored),
            (Op::Delete(b"k"), Reply::Deleted(true)),
            (Op::Delete(b"k"), Reply::Deleted(false)),
            (Op::Append { key: b"k", suffix: b"s" }, Reply::Appended(Vec::new())),
            (Op::Increment { key: b"k", delta: 1 }, Reply::Counter(-3)),
            (Op::MultiGet(&keys), Reply::Values(vec![Some(b"1".to_vec()), None, Some(vec![])])),
            (Op::MultiSet { items: &items, expires_at: 0 }, Reply::Stored),
            (
                Op::ScanPrefix { prefix: b"p", limit: 9 },
                Reply::Entries(vec![(b"p1".to_vec(), b"x".to_vec())]),
            ),
        ];
        for (op, reply) in replies {
            let response = Response::decode(&Response::from_reply(reply.clone()).encode()).unwrap();
            assert_eq!(response.into_reply(op).unwrap(), reply, "{op:?}");
        }
        let appended = Response::from_reply(Reply::Appended(b"produced".to_vec()));
        assert_eq!(
            appended.into_reply(Op::Append { key: b"k", suffix: b"s" }).unwrap(),
            Reply::Appended(Vec::new())
        );
        // A miss is a reply only for the ops that can miss.
        assert!(Response::empty(Status::NotFound).into_reply(Op::set(b"k", b"v")).is_err());
        // A batch answered with the wrong number of slots is refused.
        let short = Response::from_reply(Reply::Values(vec![None]));
        assert!(short.into_reply(Op::MultiGet(&keys)).is_err());
    }

    /// The refusal statuses and [`Refusal`] map onto each other exactly;
    /// the two answers map onto none.
    #[test]
    fn refusal_statuses_map_both_ways() {
        for byte in 0..=7u8 {
            let status = Status::from_u8(byte).unwrap();
            match status.refusal() {
                Some(refusal) => assert_eq!(Status::from(refusal), status),
                None => assert!(matches!(status, Status::Ok | Status::NotFound)),
            }
        }
        use Refusal::*;
        for refusal in [Busy, Quarantined, QuotaExceeded, ReadOnly, StorageFailed, Failed] {
            assert_eq!(Status::from(refusal).refusal(), Some(refusal));
        }
    }

    /// The control codec is two inverse pairs too, and a refusal reaches
    /// the caller as itself.
    #[test]
    fn control_codec_functions_invert_each_other() {
        let controls = [
            Control::Stats,
            Control::Flush,
            Control::ReplSubscribe,
            Control::ReplSegment { generation: 3, after_seq: 99, max_bytes: 1 << 20 },
            Control::ReplAck { subscriber: 5, generation: 2, seq: 777 },
            Control::Promote,
        ];
        for control in controls {
            let request = Request::decode(&Request::from_control(control).encode()).unwrap();
            let back = request.with_call(|call| assert_eq!(call, Call::Control(control)));
            assert_eq!(back.ok(), Some(()), "{control:?}");
        }
        assert_eq!(Request::ping().with_call(|call| call == Call::Ping).ok(), Some(true));
        let junk = Request { op: OpCode::Stats, key: b"junk".to_vec(), value: Vec::new() };
        assert!(junk.with_call(|_| ()).is_err(), "a bare control carried a payload");

        let answers = [
            (Control::Stats, Controlled::Stats(Box::default())),
            (Control::Flush, Controlled::Watermark(None)),
            (Control::Flush, Controlled::Watermark(Some(Watermark::new(7, 1234)))),
            (Control::Promote, Controlled::Watermark(Some(Watermark::new(2, 9)))),
            (controls[4], Controlled::Done),
        ];
        for (control, answer) in answers {
            let response = Response::from_controlled(answer.clone());
            let response = Response::decode(&response.encode()).unwrap();
            assert_eq!(response.into_controlled(control).unwrap(), answer, "{control:?}");
        }
        let busy = Response::empty(Status::Busy).into_controlled(Control::Flush);
        assert!(matches!(busy, Err(NetError::Refused(Refusal::Busy))));
        let error = Response::empty(Status::Error).into_controlled(Control::Promote);
        assert!(matches!(error, Err(NetError::Protocol(_))));
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
        assert_eq!(multi_get_keys(&encode_multi_get(&keys)).unwrap(), keys);
        let none: [&[u8]; 0] = [];
        assert!(multi_get_keys(&encode_multi_get(&none)).unwrap().is_empty());
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
        let borrowed: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        assert_eq!(multi_set_items(&encode_multi_set(&items)).unwrap(), borrowed);
    }

    #[test]
    fn malformed_batches_rejected() {
        // Count prefix missing or truncated.
        assert!(multi_get_keys(&[1, 0]).is_err());
        // Count claims more entries than the payload can hold.
        assert!(multi_get_keys(&[200, 0, 0, 0]).is_err());
        assert!(multi_set_items(&[5, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(decode_multi_get_response(&[9, 0, 0, 0, 0]).is_err());
        // Truncated entry body.
        let mut bytes = encode_multi_get(&[b"key".to_vec()]);
        bytes.pop();
        assert!(multi_get_keys(&bytes).is_err());
        // Trailing garbage after the declared batch.
        let mut bytes = encode_multi_set(&[(b"k".to_vec(), b"v".to_vec())]);
        bytes.push(0);
        assert!(multi_set_items(&bytes).is_err());
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
