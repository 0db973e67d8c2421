//! The client side: a request handle and a concurrent load driver.
//!
//! The paper's networked evaluation drives the server from a client
//! machine simulating 256 concurrent users (§6.1). [`KvClient`] is one
//! user's connection; [`run_load`] spawns many of them and reports
//! aggregate throughput.

use crate::protocol::{self, Request, Response};
use crate::session::{self, SessionCrypto};
use crate::{NetError, Result};
use sgx_sim::attest::AttestationVerifier;
use shield_baseline::{Control, Controlled, Op, Refusal, Reply};
use shield_workload::rng::SplitMix64;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A connected client (one simulated user).
pub struct KvClient {
    /// Replies are read through the buffer, so a burst of pipelined
    /// replies costs one `read`; requests are written straight to the
    /// socket underneath it.
    stream: BufReader<TcpStream>,
    crypto: Option<SessionCrypto>,
    /// Set when a frame fails to go out whole, or a response fails to
    /// arrive, authenticate or decode. From that point the
    /// request/response pairing on this connection can no longer be
    /// trusted (a torn, dropped or injected frame could shift every later
    /// response onto the wrong request), so the session refuses further
    /// use; callers must reconnect.
    poisoned: bool,
}

impl std::fmt::Debug for KvClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvClient").field("secure", &self.crypto.is_some()).finish()
    }
}

impl KvClient {
    /// Connects and runs the attested handshake (paper §3.2) under the
    /// default tenant namespace.
    pub fn connect_secure(
        addr: SocketAddr,
        verifier: &AttestationVerifier,
        seed: u64,
    ) -> Result<KvClient> {
        Self::connect_secure_tenant(addr, verifier, seed, 0)
    }

    /// [`connect_secure`](Self::connect_secure) bound to a tenant
    /// namespace. The tenant id travels in the handshake hello, so every
    /// operation on the session is scoped to that tenant's keyspace —
    /// there is no per-op tenant switch.
    pub fn connect_secure_tenant(
        addr: SocketAddr,
        verifier: &AttestationVerifier,
        seed: u64,
        tenant: u32,
    ) -> Result<KvClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let crypto = session::client_handshake_tenant(&mut stream, verifier, seed, tenant)?;
        Ok(KvClient { stream: BufReader::new(stream), crypto: Some(crypto), poisoned: false })
    }

    /// Connects without attestation or traffic crypto (insecure runs).
    pub fn connect_insecure(addr: SocketAddr) -> Result<KvClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(KvClient { stream: BufReader::new(stream), crypto: None, poisoned: false })
    }

    /// Bounds how long [`recv`](Self::recv) blocks waiting for a frame.
    /// `None` restores blocking reads. Adversarial harnesses use this to
    /// survive an attacker who silently drops frames.
    pub fn set_read_timeout(&mut self, timeout: Option<std::time::Duration>) -> Result<()> {
        self.stream.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Issues one request and awaits its response.
    pub fn call(&mut self, request: &Request) -> Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// Writes one request frame without waiting for the reply. Pair
    /// with [`recv`](Self::recv); the server handles each connection's
    /// frames sequentially, so replies arrive in send order.
    pub fn send(&mut self, request: &Request) -> Result<()> {
        self.send_all(std::slice::from_ref(request))
    }

    /// Seals and frames `requests` in order and hands them to the socket
    /// in one write.
    fn send_all(&mut self, requests: &[Request]) -> Result<()> {
        if self.poisoned {
            return Err(NetError::Security("session poisoned by an earlier bad frame".into()));
        }
        let mut wire = Vec::new();
        for request in requests {
            let body = request.encode();
            let sealed = match &mut self.crypto {
                Some(c) => c.seal(&body),
                None => body,
            };
            protocol::push_frame(&mut wire, &sealed)?;
        }
        // A failed write may have left a torn frame on the socket.
        let sent = self.stream.get_mut().write_all(&wire);
        self.poisoned = sent.is_err();
        Ok(sent?)
    }

    /// Reads the next response frame (for a request previously written
    /// with [`send`](Self::send)).
    pub fn recv(&mut self) -> Result<Response> {
        if self.poisoned {
            return Err(NetError::Security("session poisoned by an earlier bad frame".into()));
        }
        // Any failure here — timeout, disconnect, authentication, decode —
        // poisons the session: a response may still be in flight, and
        // reading it later would attribute it to the wrong request.
        let response = self.recv_inner();
        self.poisoned = response.is_err();
        response
    }

    fn recv_inner(&mut self) -> Result<Response> {
        let reply = protocol::read_frame(&mut self.stream)?
            .ok_or_else(|| NetError::Protocol("server disconnected".into()))?;
        let plain = match &mut self.crypto {
            Some(c) => c.open(&reply)?,
            None => reply,
        };
        Response::decode(&plain)
    }

    /// Pipelines several requests: writes every frame (in one write)
    /// before reading any reply, instead of paying one full round-trip
    /// per request. Responses are returned in request order (the server
    /// releases one connection's replies in request order, which also
    /// keeps the session-crypto sequence numbers aligned).
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>> {
        self.send_all(requests)?;
        requests.iter().map(|_| self.recv()).collect()
    }

    /// Runs `op` on the server: its frame is built by
    /// [`Request::from_op`] and its answer read by
    /// [`Response::into_reply`]. An op the wire has no form for is
    /// refused before anything is sent.
    pub fn execute(&mut self, op: Op<'_>) -> Result<Reply> {
        let request = Request::from_op(op)?;
        self.call(&request)?.into_reply(op)
    }

    /// Reads a key; `Ok(None)` when absent.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.execute(Op::Get(key)).map(Reply::value)
    }

    /// Writes a key.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.execute(Op::set(key, value)).map(drop)
    }

    /// Writes a key with a time-to-live: the entry expires `ttl_ns`
    /// nanoseconds after the server applies it (reads then miss, and the
    /// background sweeper reclaims it). `ttl_ns` must be non-zero; use
    /// [`set`](Self::set) for non-expiring writes. A relative TTL has no
    /// [`Op`] form (an op carries an absolute deadline), hence its own
    /// request.
    pub fn set_ttl(&mut self, key: &[u8], value: &[u8], ttl_ns: u64) -> Result<()> {
        self.call(&Request::set_ttl(key, value, ttl_ns))?.into_ok("set-ttl").map(drop)
    }

    /// Deletes a key; `Ok(false)` when it did not exist.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        self.execute(Op::Delete(key)).map(Reply::deleted)
    }

    /// Appends to a key's value.
    pub fn append(&mut self, key: &[u8], suffix: &[u8]) -> Result<()> {
        self.execute(Op::Append { key, suffix }).map(drop)
    }

    /// Adds `delta` to a decimal value, returning the new value.
    pub fn increment(&mut self, key: &[u8], delta: i64) -> Result<i64> {
        self.execute(Op::Increment { key, delta }).map(Reply::counter)
    }

    /// Ordered prefix scan (requires a server store with the ordered
    /// index enabled): up to `limit` key-value pairs in key order.
    pub fn scan_prefix(&mut self, prefix: &[u8], limit: u32) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.execute(Op::ScanPrefix { prefix, limit: limit as usize }).map(Reply::entries)
    }

    /// Batched read: one wire round-trip (and one enclave dispatch) for
    /// the whole batch. Returns one entry per key in input order,
    /// `None` for misses.
    pub fn multi_get(&mut self, keys: &[Vec<u8>]) -> Result<Vec<Option<Vec<u8>>>> {
        let keys: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        self.execute(Op::MultiGet(&keys)).map(Reply::values)
    }

    /// Batched write: one wire round-trip for the whole batch. Fails as
    /// a unit if the server rejected any item.
    pub fn multi_set(&mut self, items: &[(Vec<u8>, Vec<u8>)]) -> Result<()> {
        let items: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        self.execute(Op::MultiSet { items: &items, expires_at: 0 }).map(drop)
    }

    /// Runs `control` on the server: its frame is built by
    /// `Request::from_control` and its answer read by
    /// `Response::into_controlled`.
    fn control(&mut self, control: Control) -> Result<Controlled> {
        self.call(&Request::from_control(control))?.into_controlled(control)
    }

    /// Fetches the server's observability snapshot: aggregated counters,
    /// per-op latency histograms, occupancy gauges, and SGX transition
    /// counters. Errors when the server's store is not instrumented.
    pub fn stats(&mut self) -> Result<shieldstore::StatsSnapshot> {
        self.control(Control::Stats).map(|answer| *answer.stats())
    }

    /// Durability barrier: asks the server to commit every operation
    /// buffered in its write-ahead log before returning. Returns the
    /// durable `(generation, seq)` watermark — every earlier write
    /// survives a crash — or `Ok(None)` on a server without a WAL
    /// (there is nothing to flush).
    pub fn flush(&mut self) -> Result<Option<(u64, u64)>> {
        let durable = self.control(Control::Flush)?.watermark();
        Ok(durable.map(|wm| (wm.generation, wm.seq)))
    }

    /// Registers this connection's owner as a replication subscriber on
    /// a primary, returning the decoded hello (log keys + start
    /// position). Secure sessions only — the hello carries key material.
    pub fn repl_subscribe(&mut self) -> Result<shieldstore::ReplHello> {
        self.control(Control::ReplSubscribe).map(Controlled::hello)
    }

    /// Polls the primary for the next sealed log batch after
    /// `(generation, after_seq)`, bounded by `max_bytes`.
    pub fn repl_segment(
        &mut self,
        generation: u64,
        after_seq: u64,
        max_bytes: u32,
    ) -> Result<shieldstore::ReplBatch> {
        let poll = Control::ReplSegment { generation, after_seq, max_bytes };
        self.control(poll).map(Controlled::batch)
    }

    /// Reports `subscriber`'s verified-and-applied watermark to the
    /// primary.
    pub fn repl_ack(&mut self, subscriber: u64, generation: u64, seq: u64) -> Result<()> {
        self.control(Control::ReplAck { subscriber, generation, seq }).map(drop)
    }

    /// Asks a replica server to promote itself to primary, returning
    /// the promoted `(generation, seq)` watermark. Non-replica servers
    /// answer an error.
    pub fn promote(&mut self) -> Result<(u64, u64)> {
        let promoted = self.control(Control::Promote)?.watermark();
        let promoted = promoted.expect("into_controlled answers a promotion with its watermark");
        Ok((promoted.generation, promoted.seq))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        self.call(&Request::ping())?.into_ok("ping").map(drop)
    }
}

/// How a [`RetryClient`] (re)establishes its underlying session.
#[derive(Debug, Clone)]
pub enum Connector {
    /// Attested, encrypted sessions. Each reconnect derives a fresh
    /// handshake seed from `seed` plus the attempt number.
    Secure {
        /// Server address.
        addr: SocketAddr,
        /// Attestation policy for the handshake.
        verifier: AttestationVerifier,
        /// Base handshake seed.
        seed: u64,
    },
    /// Plain TCP (insecure runs).
    Insecure {
        /// Server address.
        addr: SocketAddr,
    },
}

impl Connector {
    fn connect(&self, attempt: u64) -> Result<KvClient> {
        match self {
            Connector::Secure { addr, verifier, seed } => {
                KvClient::connect_secure(*addr, verifier, seed.wrapping_add(attempt))
            }
            Connector::Insecure { addr } => KvClient::connect_insecure(*addr),
        }
    }
}

/// Retry behavior of a [`RetryClient`]: bounded exponential backoff with
/// deterministic jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries per operation beyond the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Seed for the jitter RNG (deterministic across runs).
    pub seed: u64,
    /// Per-session read timeout, so a response frame an attacker (or a
    /// dead network) swallows surfaces as a retryable error instead of
    /// blocking forever. `None` leaves reads unbounded.
    pub read_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            seed: 0,
            read_timeout: None,
        }
    }
}

/// A self-healing client: wraps [`KvClient`], transparently reconnecting
/// a poisoned or dropped session and replaying the op where that is
/// safe.
///
/// One rule decides, by the state of the session the failure left:
///
/// * **Poisoned** — any transport failure (a torn write, a timeout, a
///   frame that fails to authenticate or decode). The session is dropped
///   and the op's fate is unknown, so it is replayed on a fresh session
///   if its op allows: every op does except `Append` and `Increment`,
///   which are read-modify-write (a duplicate is observable). A `Set`,
///   `Delete` or `MultiSet` replays safely because the server logs them
///   as post-image records, so the same after-value twice converges (see
///   DESIGN.md). A failed connect executed nothing and is always retried.
/// * **Healthy, `Busy`** — the server shed the op *without executing
///   it*; it is retried in place after backoff.
/// * **Healthy, anything else** — the server answered: a quota,
///   quarantine, read-only or storage refusal, an `Error`, a malformed
///   payload. Retrying cannot change that answer, so it is surfaced at
///   once on the session it arrived on.
pub struct RetryClient {
    connector: Connector,
    policy: RetryPolicy,
    rng: SplitMix64,
    session: Option<KvClient>,
    connects: u64,
    retries: u64,
    busy_retries: u64,
}

impl std::fmt::Debug for RetryClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryClient")
            .field("connected", &self.session.is_some())
            .field("reconnects", &self.reconnects())
            .field("retries", &self.retries)
            .finish()
    }
}

impl RetryClient {
    /// Creates a client; the first connection is established lazily on
    /// the first operation.
    pub fn new(connector: Connector, policy: RetryPolicy) -> Self {
        let rng = SplitMix64::new(policy.seed ^ 0x9e37_79b9_7f4a_7c15);
        Self { connector, policy, rng, session: None, connects: 0, retries: 0, busy_retries: 0 }
    }

    /// Times the underlying session was re-established after the first
    /// connect.
    pub fn reconnects(&self) -> u64 {
        self.connects.saturating_sub(1)
    }

    /// Total operation retries (all causes).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Retries caused by `Busy` shedding specifically.
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Drops the current session; the next operation transparently
    /// reconnects (counted in [`RetryClient::reconnects`]).
    pub fn disconnect(&mut self) {
        self.session = None;
    }

    fn backoff(&mut self, attempt: u32) {
        let exp =
            self.policy.base_backoff.saturating_mul(1u32 << attempt.min(16).saturating_sub(1));
        let capped = exp.min(self.policy.max_backoff);
        // Deterministic jitter in [50%, 100%] of the capped delay keeps
        // synchronized clients from retrying in lockstep.
        let jittered = capped.mul_f64(0.5 + 0.5 * self.rng.next_f64());
        std::thread::sleep(jittered);
    }

    /// The live session, connecting one if the last was dropped.
    fn session(&mut self) -> Result<&mut KvClient> {
        let client = match self.session.take() {
            Some(client) => client,
            None => {
                let mut client = self.connector.connect(self.connects)?;
                client.set_read_timeout(self.policy.read_timeout)?;
                self.connects += 1;
                client
            }
        };
        Ok(self.session.insert(client))
    }

    /// [`KvClient::execute`] under the retry rule above.
    pub fn execute(&mut self, op: Op<'_>) -> Result<Reply> {
        let replayable = !matches!(op, Op::Append { .. } | Op::Increment { .. });
        let mut attempt = 0u32;
        loop {
            let (error, busy) = match self.session() {
                Err(connect) => (connect, false),
                Ok(client) => match client.execute(op) {
                    Ok(reply) => return Ok(reply),
                    Err(e) if client.poisoned => {
                        self.session = None;
                        if !replayable {
                            return Err(e);
                        }
                        (e, false)
                    }
                    Err(busy @ NetError::Refused(Refusal::Busy)) => (busy, true),
                    Err(answered) => return Err(answered),
                },
            };
            if attempt >= self.policy.max_retries {
                return Err(error);
            }
            attempt += 1;
            self.retries += 1;
            self.busy_retries += u64::from(busy);
            self.backoff(attempt);
        }
    }
}

/// Load-driver configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Number of concurrent simulated users (paper: 256).
    pub users: usize,
    /// Requests each user issues.
    pub requests_per_user: usize,
    /// Encrypt traffic (secure sessions). Requires a verifier.
    pub secure: bool,
    /// Workload name (any of Table 2 / Fig. 12, see `shield-workload`).
    pub workload: String,
    /// Key-space size.
    pub num_keys: u64,
    /// Value size in bytes.
    pub val_len: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// Aggregate load results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadReport {
    /// Total successful operations.
    pub ops: u64,
    /// Wall-clock duration of the measurement.
    pub wall: std::time::Duration,
    /// Failed operations.
    pub errors: u64,
}

impl LoadReport {
    /// Throughput in Kop/s over wall time plus `extra_penalty`.
    pub fn kops(&self, extra_penalty: std::time::Duration) -> f64 {
        let secs = (self.wall + extra_penalty).as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs / 1e3
        }
    }
}

/// Runs a concurrent load against `addr` and reports throughput.
///
/// Each user runs its own deterministic workload stream (seeded from
/// `config.seed` + user index) over its own connection.
pub fn run_load(
    addr: SocketAddr,
    verifier: Option<&AttestationVerifier>,
    config: &LoadConfig,
) -> Result<LoadReport> {
    use shield_workload::{Generator, Op, Spec};

    let spec = Spec::by_name(&config.workload)
        .ok_or_else(|| NetError::Protocol(format!("unknown workload {}", config.workload)))?;
    assert!(!config.secure || verifier.is_some(), "secure load needs a verifier");

    let start = std::time::Instant::now();
    let mut handles = Vec::with_capacity(config.users);
    for user in 0..config.users {
        let verifier = verifier.cloned();
        let config = config.clone();
        handles.push(std::thread::spawn(move || -> Result<(u64, u64)> {
            let mut client = if config.secure {
                KvClient::connect_secure(
                    addr,
                    verifier.as_ref().expect("verifier for secure load"),
                    config.seed + user as u64,
                )?
            } else {
                KvClient::connect_insecure(addr)?
            };
            let mut generator =
                Generator::new(spec, config.num_keys, config.seed ^ (user as u64) << 20);
            let mut ops = 0u64;
            let mut errors = 0u64;
            for _ in 0..config.requests_per_user {
                let op = generator.next_op();
                let id = op.key_id();
                let key = shield_workload::make_key(id, 16);
                let outcome = match op {
                    Op::Get(_) => client.get(&key).map(|_| ()),
                    Op::Set(_) => client.set(
                        &key,
                        &shield_workload::make_value(id, generator.round(), config.val_len),
                    ),
                    Op::Append(_) => client.append(&key, b"-app"),
                    Op::ReadModifyWrite(_) => client.get(&key).and_then(|v| {
                        let mut v = v.unwrap_or_default();
                        if v.is_empty() {
                            v = shield_workload::make_value(id, 0, config.val_len);
                        } else {
                            let n = v.len();
                            v[n - 1] = v[n - 1].wrapping_add(1);
                        }
                        client.set(&key, &v)
                    }),
                };
                match outcome {
                    Ok(()) => ops += 1,
                    Err(_) => errors += 1,
                }
            }
            Ok((ops, errors))
        }));
    }

    let mut ops = 0u64;
    let mut errors = 0u64;
    for h in handles {
        let (o, e) = h.join().map_err(|_| NetError::Protocol("load worker panicked".into()))??;
        ops += o;
        errors += e;
    }
    Ok(LoadReport { ops, wall: start.elapsed(), errors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CrossingMode, Server, ServerConfig};
    use sgx_sim::enclave::EnclaveBuilder;
    use std::sync::Arc;

    #[test]
    fn pipelined_requests_reply_in_order() {
        let enclave = EnclaveBuilder::new("pipeline-test").epc_bytes(8 << 20).build();
        let store = Arc::new(
            shieldstore::ShieldStore::new(
                Arc::clone(&enclave),
                shieldstore::Config::shield_opt().buckets(128).mac_hashes(32),
            )
            .unwrap(),
        );
        let server = Server::start(
            store,
            Some(Arc::clone(&enclave)),
            ServerConfig {
                event_loops: 2,
                crossing: CrossingMode::HotCalls,
                secure: true,
                ..Default::default()
            },
        )
        .unwrap();
        let verifier = AttestationVerifier::for_enclave(&enclave);
        let mut client = KvClient::connect_secure(server.addr(), &verifier, 21).unwrap();

        let mut requests = Vec::new();
        for i in 0..20u32 {
            requests.push(Request {
                op: crate::protocol::OpCode::Set,
                key: format!("p{i:02}").into_bytes(),
                value: format!("v{i}").into_bytes(),
            });
        }
        for i in 0..20u32 {
            requests.push(Request {
                op: crate::protocol::OpCode::Get,
                key: format!("p{i:02}").into_bytes(),
                value: Vec::new(),
            });
        }
        let responses = client.pipeline(&requests).unwrap();
        assert_eq!(responses.len(), 40);
        for r in &responses[..20] {
            assert_eq!(r.status, crate::protocol::Status::Ok);
        }
        for (i, r) in responses[20..].iter().enumerate() {
            assert_eq!(r.status, crate::protocol::Status::Ok);
            assert_eq!(r.value, format!("v{i}").into_bytes());
        }
        drop(client);
        server.shutdown();
    }

    #[test]
    fn load_driver_end_to_end() {
        let enclave = EnclaveBuilder::new("load-test").epc_bytes(8 << 20).build();
        let store = Arc::new(
            shieldstore::ShieldStore::new(
                Arc::clone(&enclave),
                shieldstore::Config::shield_opt().buckets(256).mac_hashes(64),
            )
            .unwrap(),
        );
        // Preload so gets mostly hit.
        for i in 0..500u64 {
            store.set(&shield_workload::make_key(i, 16), b"preloaded-value!").unwrap();
        }
        let server = Server::start(
            store,
            Some(Arc::clone(&enclave)),
            ServerConfig {
                event_loops: 2,
                crossing: CrossingMode::HotCalls,
                secure: true,
                ..Default::default()
            },
        )
        .unwrap();
        let verifier = AttestationVerifier::for_enclave(&enclave);

        let report = run_load(
            server.addr(),
            Some(&verifier),
            &LoadConfig {
                users: 4,
                requests_per_user: 100,
                secure: true,
                workload: "RD50_Z".into(),
                num_keys: 500,
                val_len: 16,
                seed: 11,
            },
        )
        .unwrap();
        assert_eq!(report.ops + report.errors, 400);
        assert_eq!(report.errors, 0, "no request should fail");
        assert!(report.kops(std::time::Duration::ZERO) > 0.0);
        server.shutdown();
    }
}
