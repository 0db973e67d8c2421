//! The networked store server: a core-per-shard readiness-loop engine.
//!
//! Earlier revisions ran thread-per-connection I/O feeding a shared
//! work ring; that topology caps realistic client counts at a few
//! thousand (a thread per socket) and sends every request across cores.
//! Following the paper's §5.3 worker/partition alignment, the server now
//! runs [`ServerConfig::event_loops`] nonblocking event loops (epoll via
//! [`crate::poller`], no runtime dependency):
//!
//! * each loop owns an **accept share** of the listener (EPOLLEXCLUSIVE)
//!   and the connections it accepted — sockets never migrate;
//! * frames are reassembled **incrementally** ([`crate::frame`]), so a
//!   slow client holds a buffer, never a thread;
//! * a decoded request executes on the loop that owns its **key's
//!   shard**; the residual cross-loop handoff rides a mask-indexed
//!   array of cache-aligned inboxes ([`crate::engine`]);
//! * connections are **frame-pipelined**: many requests in flight per
//!   socket, responses released strictly in request order
//!   ([`crate::machine`]).
//!
//! The SGX cost model: each burst a loop executes — the requests of one
//! read burst, or one drain of its handoff inbox — charges the configured
//! crossing once to that loop's virtual clock — [`CrossingMode::Ecall`]
//! (~8,000 cycles) or [`CrossingMode::HotCalls`] (~620 cycles, Weisse et
//! al.) — standing in for the enclave entry of the in-enclave worker the
//! loop models; every request of the burst runs inside it. A connection
//! with one request in flight still pays one crossing per request. Frame
//! I/O and reassembly stay on the untrusted side of that line.
//!
//! Insecure configurations skip the handshake, traffic crypto, and
//! crossing charges entirely (the paper's `Insecure` rows in Fig. 18).
//!
//! All of PR 5's overload/fault semantics are preserved over the new
//! transport, now driven by poll deadlines instead of blocking-read
//! timeouts: frame timeouts (armed at a frame's first byte, idle
//! boundaries unbounded), admission-control `Busy` sheds, accept-time
//! connection-cap refusal, graceful drain with a hard deadline, and
//! quarantined-partition answers.

use crate::admission::FairAdmission;
use crate::protocol::{Call, Request, Response, Status};
use crate::{engine, Result};
use sgx_sim::enclave::Enclave;
use shield_baseline::{Control, Controlled, KvBackend, Refusal};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How an event loop crosses into the enclave, once per burst of
/// requests it executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossingMode {
    /// A hardware ECALL per burst.
    Ecall,
    /// A HotCalls shared-memory call per burst.
    HotCalls,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of event-loop threads. Each owns an accept share and its
    /// connections; requests execute on the loop owning the key's
    /// shard. Match this to the store's shard count (and the core
    /// count) for the paper's §5.3 alignment.
    pub event_loops: usize,
    /// Crossing mechanism (ignored when `secure` is false).
    pub crossing: CrossingMode,
    /// Attest, exchange keys, and encrypt traffic.
    pub secure: bool,
    /// Once the first byte of a frame (or of the handshake) arrives, the
    /// rest must follow within this window or the connection is dropped.
    /// Idle connections parked *between* frames are not affected. Kills
    /// slow-loris senders and unsticks writes to stalled clients.
    pub frame_timeout: Duration,
    /// Connections beyond this cap are refused at accept (counted in
    /// [`StatsSnapshot::refused_connections`]).
    pub max_connections: usize,
    /// Requests admitted past this many already in flight are shed with
    /// a [`Status::Busy`] reply instead of being queued.
    pub max_in_flight: usize,
    /// A request that waited longer than this between decode and
    /// execution is answered [`Status::Busy`] without executing: under
    /// overload, stale work is dropped instead of serving an
    /// ever-growing queue.
    pub request_deadline: Duration,
    /// How long [`Server::shutdown`] waits for in-flight frames before
    /// hard-closing the remaining sockets.
    pub drain_deadline: Duration,
    /// Pipelining depth: decoded-but-unanswered requests allowed per
    /// connection before the loop stops reading that socket
    /// (backpressure through TCP flow control).
    pub max_pipeline: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            event_loops: 1,
            crossing: CrossingMode::HotCalls,
            secure: true,
            frame_timeout: Duration::from_secs(10),
            max_connections: 1024,
            max_in_flight: 1024,
            request_deadline: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(5),
            max_pipeline: 32,
        }
    }
}

/// Server-side overload and engine counters, overlaid onto `Stats`
/// responses (the store itself cannot see connection-level decisions).
#[derive(Debug, Default)]
pub struct NetGauges {
    /// Requests answered `Busy` (admission control or missed deadline).
    pub shed_requests: AtomicU64,
    /// Connections refused at the [`ServerConfig::max_connections`] cap.
    pub refused_connections: AtomicU64,
    /// Requests routed to a different event loop than the one that
    /// decoded them (shard-affinity misses; monotone).
    pub cross_loop_handoffs: AtomicU64,
    /// Eventfd writes made to deliver those handoffs and their
    /// responses: one per batch that found the destination inbox empty
    /// (monotone).
    pub cross_loop_wakes: AtomicU64,
    /// Number of event loops serving (gauge, constant per server).
    pub event_loops: AtomicU64,
    /// Decoded requests admitted but not yet answered, across all
    /// loops (gauge; also the admission-control counter).
    pub pending_frames: AtomicU64,
}

/// State shared between the event loops and `shutdown`.
pub(crate) struct NetState {
    /// Set once `shutdown` starts: stop accepting, close idle
    /// connections at their next frame boundary.
    pub(crate) draining: AtomicBool,
    /// Live connection count (for the accept-time cap).
    pub(crate) active: AtomicUsize,
    /// Overload counters reported through the `Stats` opcode.
    pub(crate) gauges: NetGauges,
    /// Weighted per-tenant in-flight admission (replaces the old flat
    /// `pending_frames >= max_in_flight` check).
    pub(crate) admission: FairAdmission,
    /// Allocator for connection poll tokens (unique server-wide).
    pub(crate) next_conn_token: AtomicU64,
}

impl NetState {
    fn new(max_in_flight: usize) -> Self {
        Self {
            draining: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            gauges: NetGauges::default(),
            admission: FairAdmission::new(max_in_flight),
            // Tokens 0 and 1 are the per-loop listener and waker.
            next_conn_token: AtomicU64::new(engine::FIRST_CONN_TOKEN),
        }
    }
}

/// A running store server.
pub struct Server {
    addr: SocketAddr,
    state: Arc<NetState>,
    loops: Arc<Vec<engine::LoopShared>>,
    loop_handles: Vec<std::thread::JoinHandle<()>>,
    worker_penalties: Arc<Vec<AtomicU64>>,
    requests_served: Arc<AtomicU64>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Starts a server for `store` on a fresh loopback port.
    ///
    /// `enclave` supplies attestation identity, session randomness, and
    /// crossing meters; pass the enclave the store runs in. It may be
    /// `None` only for insecure configurations.
    pub fn start(
        store: Arc<dyn KvBackend>,
        enclave: Option<Arc<Enclave>>,
        config: ServerConfig,
    ) -> Result<Server> {
        Self::start_on(("127.0.0.1", 0), store, enclave, config)
    }

    /// Starts a server bound to an explicit address.
    pub fn start_on(
        addr: impl std::net::ToSocketAddrs,
        store: Arc<dyn KvBackend>,
        enclave: Option<Arc<Enclave>>,
        config: ServerConfig,
    ) -> Result<Server> {
        assert!(!config.secure || enclave.is_some(), "secure serving requires an enclave identity");
        assert!(config.event_loops > 0, "at least one event loop");
        // Best-effort: every admitted connection is an fd, so lift the
        // soft fd limit toward the configured cap (clamped to the hard
        // limit; admission still refuses honestly past either bound).
        let _ = crate::poller::raise_nofile_limit(config.max_connections as u64 + 128);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(NetState::new(config.max_in_flight));
        state.gauges.event_loops.store(config.event_loops as u64, Ordering::Relaxed);
        let worker_penalties =
            Arc::new((0..config.event_loops).map(|_| AtomicU64::new(0)).collect::<Vec<_>>());
        let requests_served = Arc::new(AtomicU64::new(0));

        let (loops, loop_handles) = engine::spawn(
            listener,
            store,
            enclave,
            config,
            Arc::clone(&state),
            Arc::clone(&worker_penalties),
            Arc::clone(&requests_served),
        )?;

        Ok(Server { addr, state, loops, loop_handles, worker_penalties, requests_served })
    }

    /// The server's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total requests served so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }

    /// Per-loop accumulated virtual penalty (nanoseconds); the harness
    /// adds the maximum to the measured wall time.
    pub fn worker_penalties_ns(&self) -> Vec<u64> {
        self.worker_penalties.iter().map(|p| p.load(Ordering::Relaxed)).collect()
    }

    /// Resets served-request and penalty accounting (between phases).
    pub fn reset_accounting(&self) {
        self.requests_served.store(0, Ordering::Relaxed);
        for p in self.worker_penalties.iter() {
            p.store(0, Ordering::Relaxed);
        }
    }

    /// Requests shed with a `Busy` reply so far.
    pub fn shed_requests(&self) -> u64 {
        self.state.gauges.shed_requests.load(Ordering::Relaxed)
    }

    /// Connections refused at the connection cap so far.
    pub fn refused_connections(&self) -> u64 {
        self.state.gauges.refused_connections.load(Ordering::Relaxed)
    }

    /// Requests that executed on a different event loop than the one
    /// that decoded them (shard-affinity handoffs) so far.
    pub fn cross_loop_handoffs(&self) -> u64 {
        self.state.gauges.cross_loop_handoffs.load(Ordering::Relaxed)
    }

    /// Eventfd wakes spent on those handoffs and their responses so far
    /// (a burst that crosses together shares one).
    pub fn cross_loop_wakes(&self) -> u64 {
        self.state.gauges.cross_loop_wakes.load(Ordering::Relaxed)
    }

    /// Live connections right now (gauge).
    pub fn active_connections(&self) -> usize {
        self.state.active.load(Ordering::Relaxed)
    }

    /// Stops the server gracefully: stop accepting, let in-flight frames
    /// finish for up to [`ServerConfig::drain_deadline`], then hard-close
    /// whatever is left (including mid-frame slow-loris connections) and
    /// join all loops.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.state.draining.store(true, Ordering::SeqCst);
        // Each loop sees the flag on its next wake-up, closes idle
        // connections at their frame boundary, gives pipelined work
        // until the drain deadline, then hard-closes and exits.
        for l in self.loops.iter() {
            l.wake.wake();
        }
        for h in self.loop_handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.loop_handles.is_empty() {
            self.stop();
        }
    }
}

/// Executes one request against the store in the default namespace.
pub fn execute(store: &dyn KvBackend, request: &Request) -> Response {
    execute_with(store, request, 0, None)
}

/// Executes one request against the store under `tenant`'s namespace,
/// overlaying server-side overload counters onto `Stats` responses when
/// the serving state is provided: decode, then `execute` or `control`,
/// then encode. A malformed request answers `Error` before the store
/// sees it, and a batch-level failure (integrity violation, quarantined
/// partition) fails the whole frame closed rather than fabricate misses.
pub(crate) fn execute_with(
    store: &dyn KvBackend,
    request: &Request,
    tenant: u32,
    net: Option<&NetState>,
) -> Response {
    let answer = request.with_call(|call| match call {
        Call::Op(op) => store.execute(tenant, op).map(Response::from_reply),
        Call::Control(control) => answer_control(store, control, net),
        Call::Ping => Ok(Response::empty(Status::Ok)),
    });
    match answer {
        Ok(answer) => answer.unwrap_or_else(|refusal| Response::empty(refusal.into())),
        Err(_) => Response::empty(Status::Error),
    }
}

/// Executes a burst of requests — each `(tenant, request)` of `burst`,
/// one response each, in input order — as [`execute_with`] executes one:
/// the single-key ops between two other requests go to the store together,
/// in one [`KvBackend::execute_burst`] call, and any other request (a
/// batch, scan, control or ping) runs alone at its turn, so it sees every
/// op that came before it and none that came after. A malformed request
/// answers `Error` at its turn, and the store never sees it.
pub(crate) fn execute_burst(
    store: &dyn KvBackend,
    burst: &[(u32, &Request)],
    net: Option<&NetState>,
) -> Vec<Response> {
    let mut out = Vec::with_capacity(burst.len());
    let mut ops = Vec::with_capacity(burst.len());
    let flush = |ops: &mut Vec<_>, out: &mut Vec<Response>| {
        let answers = store.execute_burst(ops);
        out.extend(answers.into_iter().map(|answer| {
            answer.map_or_else(|refusal| Response::empty(refusal.into()), Response::from_reply)
        }));
        ops.clear();
    };
    for &(tenant, request) in burst {
        match request.keyed_op() {
            Ok(Some(op)) => ops.push((tenant, op)),
            Ok(None) => {
                flush(&mut ops, &mut out);
                out.push(execute_with(store, request, tenant, net));
            }
            Err(_) => {
                flush(&mut ops, &mut out);
                out.push(Response::empty(Status::Error));
            }
        }
    }
    flush(&mut ops, &mut out);
    out
}

/// Answers `control`, overlaying the server's own gauges onto a stats
/// answer when the serving state is provided (the store cannot see
/// connection-level decisions). Cold: a control is rare beside an op, and
/// inlined its body would bloat the op path's decode continuation.
#[cold]
fn answer_control(
    store: &dyn KvBackend,
    control: Control,
    net: Option<&NetState>,
) -> std::result::Result<Response, Refusal> {
    let mut answer = store.control(control)?;
    if let (Controlled::Stats(snap), Some(state)) = (&mut answer, net) {
        let net = &state.gauges;
        snap.shed_requests = net.shed_requests.load(Ordering::Relaxed);
        snap.refused_connections = net.refused_connections.load(Ordering::Relaxed);
        snap.cross_loop_handoffs = net.cross_loop_handoffs.load(Ordering::Relaxed);
        snap.cross_loop_wakes = net.cross_loop_wakes.load(Ordering::Relaxed);
        snap.event_loops = net.event_loops.load(Ordering::Relaxed);
        snap.pending_frames = net.pending_frames.load(Ordering::Relaxed);
        // Per-tenant sheds live in the admission gate (the store cannot
        // see them).
        for row in snap.tenants.iter_mut().take(snap.tenant_count as usize) {
            // Rows carry ids widened from `TenantId`.
            row.shed = state.admission.shed_for(row.tenant as u32);
        }
    }
    Ok(Response::from_controlled(answer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::KvClient;
    use sgx_sim::attest::AttestationVerifier;
    use sgx_sim::enclave::EnclaveBuilder;
    use shield_baseline::{Control, Op};

    fn shield_store_on(enclave: &Arc<Enclave>) -> Arc<shieldstore::ShieldStore> {
        Arc::new(
            shieldstore::ShieldStore::new(
                Arc::clone(enclave),
                shieldstore::Config::shield_opt().buckets(128).mac_hashes(32),
            )
            .unwrap(),
        )
    }

    #[test]
    fn stats_opcode_end_to_end() {
        let enclave = EnclaveBuilder::new("stats-op-test").epc_bytes(8 << 20).build();
        let store = shield_store_on(&enclave);
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
        let verifier =
            AttestationVerifier::for_enclave(&enclave).expect_measurement(*enclave.measurement());
        let mut client = KvClient::connect_secure(server.addr(), &verifier, 7).unwrap();

        for i in 0..20u32 {
            client.set(format!("sk{i}").as_bytes(), b"v").unwrap();
        }
        for i in 0..20u32 {
            client.get(format!("sk{i}").as_bytes()).unwrap();
        }
        let _ = client.get(b"absent");
        let snap = client.stats().unwrap();
        snap.check_consistent().expect("live snapshot is self-consistent");
        assert_eq!(snap.ops.sets, 20);
        assert_eq!(snap.ops.gets, 21);
        assert_eq!(snap.ops.hits, 20);
        assert_eq!(snap.ops.misses, 1);
        assert_eq!(snap.entries, 20);
        assert_eq!(snap.hists.get.count(), 21);
        assert!(snap.hists.get.p99() >= snap.hists.get.p50());
        assert_eq!(snap.event_loops, 2, "engine reports its loop count");

        // A Stats request carrying payload bytes is rejected.
        let bad = Request { key: b"junk".to_vec(), ..Request::from_control(Control::Stats) };
        let r = client.call(&bad).unwrap();
        assert_eq!(r.status, crate::protocol::Status::Error);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn flush_opcode_end_to_end() {
        let dir = std::env::temp_dir().join(format!("ss-net-flush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let enclave = EnclaveBuilder::new("flush-op-test").epc_bytes(8 << 20).build();
        let store = Arc::new(
            shieldstore::ShieldStore::new(
                Arc::clone(&enclave),
                shieldstore::Config::shield_opt().buckets(128).mac_hashes(32),
            )
            .unwrap(),
        );
        // Policy None: nothing commits until an explicit flush.
        store.attach_wal(&dir).unwrap();
        let server = Server::start(
            Arc::clone(&store) as Arc<dyn shield_baseline::KvBackend>,
            Some(Arc::clone(&enclave)),
            ServerConfig {
                event_loops: 2,
                crossing: CrossingMode::HotCalls,
                secure: true,
                ..Default::default()
            },
        )
        .unwrap();
        let verifier =
            AttestationVerifier::for_enclave(&enclave).expect_measurement(*enclave.measurement());
        let mut client = KvClient::connect_secure(server.addr(), &verifier, 9).unwrap();

        client.set(b"durable", b"yes").unwrap();
        let before = client.stats().unwrap();
        assert_eq!(before.wal_records, 0, "policy None buffers until flush");
        client.flush().unwrap();
        let after = client.stats().unwrap();
        assert_eq!(after.wal_records, 1);
        assert_eq!(after.wal_fsyncs, 1);
        assert!(after.wal_bytes > 0);
        after.check_consistent().expect("wal gauges are self-consistent");

        // A Flush request carrying payload bytes is rejected.
        let bad = Request { value: b"junk".to_vec(), ..Request::from_control(Control::Flush) };
        let r = client.call(&bad).unwrap();
        assert_eq!(r.status, crate::protocol::Status::Error);
        drop(client);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The replication controls carry log keys and fencing authority:
    /// an insecure server refuses them, and serves stats and flush.
    #[test]
    fn replication_controls_need_an_attested_session() {
        let dir = std::env::temp_dir().join(format!("ss-net-unattested-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let enclave = EnclaveBuilder::new("unattested-test").epc_bytes(8 << 20).build();
        let store = shield_store_on(&enclave);
        store.attach_wal(&dir).unwrap();
        let config = ServerConfig { secure: false, ..Default::default() };
        let server = Server::start(store, None, config).unwrap();
        let mut client = KvClient::connect_insecure(server.addr()).unwrap();
        client.set(b"k", b"v").unwrap();
        assert!(client.flush().unwrap().is_some());
        assert_eq!(client.stats().unwrap().ops.sets, 1);
        assert!(client.repl_subscribe().is_err(), "log keys left over an unattested session");
        assert!(client.repl_segment(0, 0, 1 << 10).is_err());
        assert!(client.repl_ack(0, 0, 0).is_err());
        assert!(client.promote().is_err());
        drop(client);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn secure_end_to_end() {
        let enclave = EnclaveBuilder::new("net-test").epc_bytes(8 << 20).build();
        let store = shield_store_on(&enclave);
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

        let verifier =
            AttestationVerifier::for_enclave(&enclave).expect_measurement(*enclave.measurement());
        let mut client = KvClient::connect_secure(server.addr(), &verifier, 1).unwrap();

        client.set(b"k", b"v").unwrap();
        assert_eq!(client.get(b"k").unwrap().unwrap(), b"v");
        assert!(client.get(b"missing").unwrap().is_none());
        client.append(b"k", b"2").unwrap();
        assert_eq!(client.get(b"k").unwrap().unwrap(), b"v2");
        assert_eq!(client.increment(b"n", 5).unwrap(), 5);
        assert_eq!(client.increment(b"n", -1).unwrap(), 4);
        assert!(client.delete(b"k").unwrap());
        assert!(!client.delete(b"k").unwrap());

        assert!(server.requests_served() >= 8);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn insecure_end_to_end() {
        let store = Arc::new(shield_baseline::NaiveEnclaveStore::insecure(64));
        let server = Server::start(
            store,
            None,
            ServerConfig {
                event_loops: 1,
                crossing: CrossingMode::Ecall,
                secure: false,
                ..Default::default()
            },
        )
        .unwrap();
        let mut client = KvClient::connect_insecure(server.addr()).unwrap();
        client.set(b"a", b"1").unwrap();
        assert_eq!(client.get(b"a").unwrap().unwrap(), b"1");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn crossing_modes_charge_differently() {
        let enclave = EnclaveBuilder::new("net-cost").epc_bytes(8 << 20).build();
        let store = shield_store_on(&enclave);
        let verifier = AttestationVerifier::for_enclave(&enclave);

        let mut penalties = Vec::new();
        for crossing in [CrossingMode::Ecall, CrossingMode::HotCalls] {
            let server = Server::start(
                Arc::clone(&store) as Arc<dyn KvBackend>,
                Some(Arc::clone(&enclave)),
                ServerConfig { event_loops: 1, crossing, secure: true, ..Default::default() },
            )
            .unwrap();
            let mut client = KvClient::connect_secure(server.addr(), &verifier, 2).unwrap();
            for i in 0..50u32 {
                client.set(format!("x{i}").as_bytes(), b"v").unwrap();
            }
            drop(client);
            let p = server.worker_penalties_ns().iter().sum::<u64>();
            penalties.push(p);
            server.shutdown();
        }
        assert!(penalties[0] > penalties[1], "ECALLs must cost more than HotCalls: {penalties:?}");
    }

    #[test]
    fn networked_prefix_scan() {
        let enclave = EnclaveBuilder::new("net-scan").epc_bytes(8 << 20).build();
        let store = Arc::new(
            shieldstore::ShieldStore::new(
                Arc::clone(&enclave),
                shieldstore::Config::shield_opt().buckets(128).mac_hashes(32).with_ordered_index(),
            )
            .unwrap(),
        );
        let server = Server::start(
            store,
            Some(Arc::clone(&enclave)),
            ServerConfig {
                event_loops: 1,
                crossing: CrossingMode::HotCalls,
                secure: true,
                ..Default::default()
            },
        )
        .unwrap();
        let verifier = AttestationVerifier::for_enclave(&enclave);
        let mut client = KvClient::connect_secure(server.addr(), &verifier, 3).unwrap();
        for i in 0..10u32 {
            client.set(format!("scan:{i:02}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        client.set(b"other:1", b"x").unwrap();
        let got = client.scan_prefix(b"scan:", 100).unwrap();
        assert_eq!(got.len(), 10);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(got[0].0, b"scan:00");
        assert_eq!(got[0].1, b"v0");
        let limited = client.scan_prefix(b"scan:", 3).unwrap();
        assert_eq!(limited.len(), 3);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn scan_rejected_without_index() {
        let enclave = EnclaveBuilder::new("net-noscan").epc_bytes(4 << 20).build();
        let store = shield_store_on(&enclave);
        let server = Server::start(
            store,
            Some(Arc::clone(&enclave)),
            ServerConfig {
                event_loops: 1,
                crossing: CrossingMode::HotCalls,
                secure: true,
                ..Default::default()
            },
        )
        .unwrap();
        let verifier = AttestationVerifier::for_enclave(&enclave);
        let mut client = KvClient::connect_secure(server.addr(), &verifier, 4).unwrap();
        assert!(client.scan_prefix(b"x", 10).is_err());
        drop(client);
        server.shutdown();
    }

    #[test]
    fn batched_ops_one_dispatch_per_frame() {
        let enclave = EnclaveBuilder::new("net-batch").epc_bytes(8 << 20).build();
        let store = shield_store_on(&enclave);
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
        let mut client = KvClient::connect_secure(server.addr(), &verifier, 9).unwrap();

        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..32u32)
            .map(|i| (format!("batch-{i:02}").into_bytes(), format!("val-{i}").into_bytes()))
            .collect();
        client.multi_set(&items).unwrap();

        // Mixed hits and misses come back in request order.
        let keys: Vec<Vec<u8>> =
            vec![b"batch-00".to_vec(), b"no-such-key".to_vec(), b"batch-31".to_vec()];
        let got = client.multi_get(&keys).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].as_deref().unwrap(), b"val-0");
        assert!(got[1].is_none());
        assert_eq!(got[2].as_deref().unwrap(), b"val-31");

        // 35 operations rode in exactly two frames: the batch is the
        // unit of enclave dispatch, not the key.
        assert_eq!(server.requests_served(), 2);
        drop(client);
        server.shutdown();
    }

    #[test]
    fn malformed_batch_payload_is_an_error() {
        let enclave = EnclaveBuilder::new("net-badbatch").epc_bytes(4 << 20).build();
        let store = shield_store_on(&enclave);
        let server = Server::start(
            store,
            Some(Arc::clone(&enclave)),
            ServerConfig {
                event_loops: 1,
                crossing: CrossingMode::HotCalls,
                secure: true,
                ..Default::default()
            },
        )
        .unwrap();
        let verifier = AttestationVerifier::for_enclave(&enclave);
        let mut client = KvClient::connect_secure(server.addr(), &verifier, 10).unwrap();
        // A count claiming more entries than the payload holds.
        let batch = Request::from_op(Op::MultiGet(&[])).unwrap();
        let r = client.call(&Request { value: 1000u32.to_le_bytes().to_vec(), ..batch }).unwrap();
        assert_eq!(r.status, crate::protocol::Status::Error);
        // The connection stays usable afterwards.
        client.set(b"still", b"alive").unwrap();
        assert_eq!(client.get(b"still").unwrap().unwrap(), b"alive");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn concurrent_clients() {
        let enclave = EnclaveBuilder::new("net-multi").epc_bytes(8 << 20).build();
        let store = shield_store_on(&enclave);
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

        let addr = server.addr();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let verifier = verifier.clone();
            handles.push(std::thread::spawn(move || {
                let mut client = KvClient::connect_secure(addr, &verifier, t).unwrap();
                for i in 0..50u32 {
                    let key = format!("t{t}-{i}");
                    client.set(key.as_bytes(), b"val").unwrap();
                    assert_eq!(client.get(key.as_bytes()).unwrap().unwrap(), b"val");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.requests_served(), 400);
        server.shutdown();
    }

    #[test]
    fn shard_affinity_routes_across_loops() {
        // Four loops over a sharded store: single-key requests spread
        // over enough distinct keys must exercise the cross-loop
        // handoff path (the decoding loop rarely owns every shard).
        let enclave = EnclaveBuilder::new("net-affinity").epc_bytes(8 << 20).build();
        let store = Arc::new(
            shieldstore::ShieldStore::new(
                Arc::clone(&enclave),
                shieldstore::Config::shield_opt().buckets(256).mac_hashes(32).with_shards(4),
            )
            .unwrap(),
        );
        let server = Server::start(
            store,
            Some(Arc::clone(&enclave)),
            ServerConfig {
                event_loops: 4,
                crossing: CrossingMode::HotCalls,
                secure: true,
                ..Default::default()
            },
        )
        .unwrap();
        let verifier = AttestationVerifier::for_enclave(&enclave);
        let mut client = KvClient::connect_secure(server.addr(), &verifier, 11).unwrap();
        for i in 0..64u32 {
            let key = format!("affinity-{i}");
            client.set(key.as_bytes(), b"v").unwrap();
            assert_eq!(client.get(key.as_bytes()).unwrap().unwrap(), b"v");
        }
        assert_eq!(server.requests_served(), 128);
        assert!(
            server.cross_loop_handoffs() > 0,
            "64 distinct keys over 4 loops must cross at least once"
        );
        drop(client);
        server.shutdown();
    }
}
