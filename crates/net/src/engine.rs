//! The readiness-loop engine behind [`crate::server::Server`].
//!
//! ## Topology
//!
//! ```text
//!                 listener (EPOLLEXCLUSIVE in every loop)
//!                /        |        \
//!        loop 0         loop 1        loop N-1        (threads)
//!        epoll fd       epoll fd      epoll fd
//!        conns A,B      conns C       conns D,E       (socket owners)
//!          |               |             |
//!          +---- route[shard & mask] ----+            (execution owners)
//!                |  cache-aligned inboxes |
//!                +---- eventfd wakes -----+
//! ```
//!
//! Each loop owns the sockets it accepted: reads, frame reassembly,
//! session crypto, and writes for a connection all happen on its owning
//! loop (the session cipher is sequential, so this is a correctness
//! requirement, not just locality). Execution is shard-aligned: a
//! single-key request runs on `route[shard_hint(key) & mask]` — the
//! loop standing in for the in-enclave worker that owns that hash
//! partition (paper §5.3). When that is a different loop, the request
//! crosses once through the owner's cache-aligned inbox and its
//! response crosses back through the origin's; everything else
//! (batches, stats, scans — multi-shard by nature) executes on the
//! decoding loop.
//!
//! ## What replaced the work ring
//!
//! The former global crossbeam channel (every request through one
//! MPMC point, any worker) is gone. Its FIFO role is preserved where
//! it matters: one connection's requests execute in arrival order
//! (per-conn slots), and with one event loop the engine is strictly
//! globally FIFO, which the adversary harness relies on.
//!
//! What crosses loops crosses per burst, not per request. A decoding loop
//! collects the handoffs of one `read()` chunk in a per-destination
//! outbox and hands each over whole — one inbox lock, one eventfd write —
//! before it reads again; the owner takes its whole inbox per wake, runs
//! every request, returns the responses as one batch per origin, and the
//! origin attaches them all before it seals and writes once per
//! connection. There is no batch size and no timer: the batch is what
//! arrived together. A push writes the eventfd only when it finds the
//! inbox empty (decided under the inbox lock): the owner drains the
//! eventfd *before* it takes the queue, so whoever made the queue
//! non-empty has a wake the owner has not consumed yet. Three orders
//! survive the batching: requests on one key execute in arrival order
//! (one owner loop per shard, outboxes and inboxes are FIFO, and a
//! request the decoding loop runs inline without a routing key flushes
//! the outboxes first); replies leave a connection in request order
//! (`ConnMachine` slots); and the enclave is entered once per burst: a
//! loop charges one crossing per `read_burst` or inbox drain that
//! executes at least one request (`EventLoop::enter`), and every request
//! of that burst runs inside it. No outbox is ever non-empty while its
//! loop blocks in `epoll_wait` — a parked `Execute` would hold its
//! admission slot with no wake behind it.
//!
//! ## Deadlines
//!
//! All timeouts are poll-driven: each loop's `epoll_wait` timeout is
//! the nearest deadline over its connections (frame timeouts, stalled
//! writes, handshake bounds, the drain deadline). No blocking read
//! timeouts, no polling ticks.

use crate::machine::{CloseReason, ConnMachine};
use crate::poller::{Interest, Poller, WakeHandle, Waker};
use crate::protocol::{Call, Request, Response, Status};
use crate::server::{execute_with, CrossingMode, NetGauges, NetState, ServerConfig};
use crate::session::{self, SessionCrypto};
use crate::Result;
use parking_lot::Mutex;
use sgx_sim::enclave::Enclave;
use sgx_sim::vclock;
use shield_baseline::KvBackend;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll token of the shared listener in every loop.
const LISTENER_TOKEN: u64 = 0;
/// Poll token of each loop's wake eventfd.
const WAKE_TOKEN: u64 = 1;
/// First token handed to connections (see [`NetState::next_conn_token`]).
pub(crate) const FIRST_CONN_TOKEN: u64 = 2;

/// Read budget per readiness event, so one firehose connection cannot
/// starve its loop; level-triggered epoll redelivers the remainder.
const READ_BURSTS: usize = 8;

/// Most connections a loop accepts per listener wake-up before returning
/// to its connections — bounds accept-burst latency impact on
/// established traffic.
const ACCEPT_BURST: usize = 64;

/// Cache-line padding for the per-loop inboxes (the `CacheAligned`
/// sharded-lock idiom): one loop's queue traffic must not false-share
/// with its neighbours'.
#[repr(align(64))]
struct CacheAligned<T>(T);

/// Cross-loop messages.
enum Msg {
    /// Run `request` here (this loop owns the key's shard) under
    /// `tenant`'s namespace and send the response back to `origin`.
    Execute { origin: usize, conn: u64, req: u64, tenant: u32, request: Request, enqueued: Instant },
    /// A response for a request this loop handed off earlier (the
    /// tenant rides along so the origin can release its admission
    /// slot).
    Complete { conn: u64, req: u64, tenant: u32, resp: Vec<u8> },
}

/// The shareable face of one event loop: its handoff inbox and waker.
pub(crate) struct LoopShared {
    pub(crate) wake: WakeHandle,
    inbox: CacheAligned<Mutex<Vec<Msg>>>,
}

impl LoopShared {
    /// Moves `batch` (left empty, capacity kept) to the back of the
    /// inbox under one lock, and writes the eventfd only when that made
    /// the inbox non-empty. The owner drains the eventfd and *then*
    /// takes the whole queue, so a queue found non-empty here still has
    /// its first pusher's wake ahead of it; a wake written after the
    /// owner already took the messages is a spurious empty pass.
    fn push_batch(&self, batch: &mut Vec<Msg>, gauges: &NetGauges) {
        if batch.is_empty() {
            return;
        }
        let was_empty = {
            let mut inbox = self.inbox.0.lock();
            let was_empty = inbox.is_empty();
            inbox.append(batch);
            was_empty
        };
        if was_empty {
            gauges.cross_loop_wakes.fetch_add(1, Ordering::Relaxed);
            self.wake.wake();
        }
    }
}

/// Engine-wide immutable context.
struct EngineShared {
    store: Arc<dyn KvBackend>,
    enclave: Option<Arc<Enclave>>,
    config: ServerConfig,
    state: Arc<NetState>,
    loops: Arc<Vec<LoopShared>>,
    /// Power-of-two routing table: `route[shard & (len-1)]` is the loop
    /// that owns the shard (mask-indexed, so the hot path is a single
    /// AND plus a load).
    route: Vec<u32>,
    penalties: Arc<Vec<AtomicU64>>,
    served: Arc<AtomicU64>,
}

/// One connection, owned by exactly one loop.
struct Conn {
    stream: TcpStream,
    machine: ConnMachine,
    crypto: Option<SessionCrypto>,
    /// The namespace every request on this connection executes in.
    /// Bound once, by the hello's tenant claim (0 until established,
    /// and always 0 for insecure connections).
    tenant: u32,
    /// False while a secure connection still owes its hello.
    established: bool,
    /// Secure connections must complete the handshake within the frame
    /// timeout of connecting (as the blocking engine enforced via its
    /// handshake read timeout).
    handshake_deadline: Option<Instant>,
    /// Sealed, framed bytes awaiting the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Registered for writable readiness (pending `out` bytes).
    want_write: bool,
    /// Armed when a write first stalls; a client that cannot absorb its
    /// responses within the frame timeout is dropped.
    write_deadline: Option<Instant>,
    /// Reads suspended: `max_pipeline` requests outstanding
    /// (backpressure propagates to the client via TCP flow control).
    paused: bool,
}

impl Conn {
    fn deadline(&self) -> Option<Instant> {
        [self.machine.deadline(), self.write_deadline, self.handshake_deadline]
            .into_iter()
            .flatten()
            .min()
    }

    fn out_done(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    fn interest(&self) -> Interest {
        Interest { readable: !self.paused, writable: self.want_write, exclusive: false }
    }
}

/// What [`spawn`] hands back to the server: the loops' shared faces
/// (for wakes and inbox pushes) and their join handles.
pub(crate) type SpawnedLoops = (Arc<Vec<LoopShared>>, Vec<std::thread::JoinHandle<()>>);

/// Spawns the event loops. Returns their shared faces (for wakes) and
/// join handles.
pub(crate) fn spawn(
    listener: TcpListener,
    store: Arc<dyn KvBackend>,
    enclave: Option<Arc<Enclave>>,
    config: ServerConfig,
    state: Arc<NetState>,
    penalties: Arc<Vec<AtomicU64>>,
    served: Arc<AtomicU64>,
) -> Result<SpawnedLoops> {
    let n = config.event_loops;
    let listener = Arc::new(listener);

    // Pollers and wakers are created up front so every loop's wake
    // handle exists before any loop runs.
    let mut pollers = Vec::with_capacity(n);
    let mut shares = Vec::with_capacity(n);
    for _ in 0..n {
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, WAKE_TOKEN)?;
        // Every loop watches the shared listener; EPOLLEXCLUSIVE wakes
        // one of them per pending connection (the accept share).
        poller.register(
            listener.as_raw_fd(),
            LISTENER_TOKEN,
            Interest { readable: true, writable: false, exclusive: true },
        )?;
        shares.push(LoopShared {
            wake: waker.handle()?,
            inbox: CacheAligned(Mutex::new(Vec::new())),
        });
        pollers.push((poller, waker));
    }
    let loops = Arc::new(shares);

    // Mask-indexed shard→loop routing (next power of two, filled
    // round-robin; with loops == shards this is the identity map the
    // paper's §5.3 alignment wants).
    let route_len = n.next_power_of_two();
    let route = (0..route_len).map(|slot| (slot % n) as u32).collect();

    let shared = Arc::new(EngineShared {
        store,
        enclave,
        config,
        state,
        loops: Arc::clone(&loops),
        route,
        penalties,
        served,
    });

    let mut handles = Vec::with_capacity(n);
    for (idx, (poller, waker)) in pollers.into_iter().enumerate() {
        let shared = Arc::clone(&shared);
        let listener = Arc::clone(&listener);
        let handle = std::thread::Builder::new()
            .name(format!("ss-net-loop-{idx}"))
            .spawn(move || {
                EventLoop {
                    idx,
                    poller,
                    waker,
                    listener,
                    shared,
                    conns: HashMap::new(),
                    timed: HashMap::new(),
                    drain_until: None,
                    scratch: vec![0u8; 64 << 10],
                    outbox: (0..n).map(|_| Vec::new()).collect(),
                    inbox_buf: Vec::new(),
                    touched: Vec::new(),
                    entered: false,
                }
                .run()
            })
            .expect("spawn event loop");
        handles.push(handle);
    }
    Ok((loops, handles))
}

struct EventLoop {
    idx: usize,
    poller: Poller,
    waker: Waker,
    listener: Arc<TcpListener>,
    shared: Arc<EngineShared>,
    conns: HashMap<u64, Conn>,
    /// Connections with an armed deadline and when it fires — the
    /// source of the poll timeout. Kept tiny: only mid-frame, stalled
    /// -write, or mid-handshake connections appear.
    timed: HashMap<u64, Instant>,
    drain_until: Option<Instant>,
    scratch: Vec<u8>,
    /// Messages bound for each other loop's inbox, in the order this
    /// loop produced them. Filled while a `read()` chunk or an inbox
    /// drain is processed and handed over whole by
    /// [`flush_outboxes`](Self::flush_outboxes); empty whenever the
    /// loop blocks.
    outbox: Vec<Vec<Msg>>,
    /// The vector `process_inbox` swaps with the shared inbox (the two
    /// trade places each wake, so neither reallocates in steady state).
    inbox_buf: Vec<Msg>,
    /// Connections that received a `Complete` in the current drain.
    touched: Vec<u64>,
    /// This burst has already paid its enclave crossing. Cleared when a
    /// `read_burst` or an inbox drain starts.
    entered: bool,
}

impl EventLoop {
    fn run(mut self) {
        // The loop models an in-enclave worker: its virtual clock must
        // grow monotonically for the life of the thread (the EPC fault
        // channel compares absolute clock values), so penalties are
        // reported as deltas.
        vclock::reset();
        let mut last_clock = 0u64;
        let mut events = Vec::with_capacity(256);
        loop {
            let now = Instant::now();
            if self.shared.state.draining.load(Ordering::SeqCst) && self.drain_until.is_none() {
                self.begin_drain(now);
            }
            if let Some(until) = self.drain_until {
                // Leave only once this loop's sockets are gone AND no
                // other loop can still hand us shard work (a loop that
                // exited early would strand cross-loop requests).
                if self.conns.is_empty() && self.shared.state.active.load(Ordering::SeqCst) == 0 {
                    break;
                }
                if now >= until {
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for t in tokens {
                        self.close_token(t);
                    }
                    break;
                }
            }

            let timeout = self.next_timeout(now);
            events.clear();
            // A message left in an outbox has no wake behind it: its
            // request would hold its admission slot until some later
            // burst happened to flush it.
            debug_assert!(
                self.outbox.iter().all(Vec::is_empty),
                "blocking with an unflushed outbox"
            );
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_burst(),
                    WAKE_TOKEN => {
                        self.waker.drain();
                        self.process_inbox();
                    }
                    token => self.conn_event(token, ev.readable, ev.writable, ev.closed),
                }
            }
            self.expire_timers(Instant::now());

            let clock = vclock::now();
            self.shared.penalties[self.idx].fetch_add(clock - last_clock, Ordering::Relaxed);
            last_clock = clock;
        }
    }

    /// Smallest armed deadline across connections and the drain clock.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let mut next: Option<Instant> = self.drain_until;
        for d in self.timed.values() {
            next = Some(next.map_or(*d, |n| n.min(*d)));
        }
        next.map(|d| d.saturating_duration_since(now))
    }

    /// Re-derives `token`'s entry in the deadline map from its
    /// connection state (or clears it for gone/deadline-free conns).
    fn refresh_timer(&mut self, token: u64) {
        match self.conns.get(&token).and_then(Conn::deadline) {
            Some(d) => {
                self.timed.insert(token, d);
            }
            None => {
                self.timed.remove(&token);
            }
        }
    }

    fn expire_timers(&mut self, now: Instant) {
        let due: Vec<u64> =
            self.timed.iter().filter(|(_, d)| now >= **d).map(|(t, _)| *t).collect();
        for token in due {
            let Some(conn) = self.conns.get_mut(&token) else {
                self.timed.remove(&token);
                continue;
            };
            // Any expired deadline — partial frame, stalled write, or
            // overdue handshake — kills the connection.
            let frame_timed_out = conn.machine.on_deadline(now);
            let write_stalled = conn.write_deadline.is_some_and(|d| now >= d);
            let handshake_overdue = conn.handshake_deadline.is_some_and(|d| now >= d);
            if frame_timed_out || write_stalled || handshake_overdue {
                conn.machine.close(CloseReason::TimedOut);
                self.close_token(token);
            } else {
                self.refresh_timer(token);
            }
        }
    }

    fn begin_drain(&mut self, now: Instant) {
        self.drain_until = Some(now + self.shared.config.drain_deadline);
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let conn = self.conns.get_mut(&token).expect("listed");
            // Idle connections close at their frame boundary right
            // away; pipelined and mid-frame ones get until the drain
            // deadline to finish.
            if conn.machine.start_drain() && conn.out_done() {
                self.close_token(token);
            }
        }
    }

    fn accept_burst(&mut self) {
        if self.drain_until.is_some() {
            return;
        }
        let shared = Arc::clone(&self.shared);
        for _ in 0..ACCEPT_BURST {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            };
            // Accept-time cap, checked atomically: under a racing burst
            // across loops the count never exceeds the cap.
            let admitted = shared
                .state
                .active
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |a| {
                    (a < shared.config.max_connections).then_some(a + 1)
                })
                .is_ok();
            if !admitted {
                // Refuse by closing immediately: the client sees a
                // clean EOF, never a hung connection.
                shared.state.gauges.refused_connections.fetch_add(1, Ordering::Relaxed);
                drop(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                shared.state.active.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let token = shared.state.next_conn_token.fetch_add(1, Ordering::Relaxed);
            let now = Instant::now();
            let secure = shared.config.secure;
            let conn = Conn {
                stream,
                machine: ConnMachine::new(shared.config.frame_timeout),
                crypto: None,
                tenant: 0,
                established: !secure,
                handshake_deadline: secure.then(|| now + shared.config.frame_timeout),
                out: Vec::new(),
                out_pos: 0,
                want_write: false,
                write_deadline: None,
                paused: false,
            };
            if self.poller.register(conn.stream.as_raw_fd(), token, conn.interest()).is_err() {
                shared.state.active.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            self.conns.insert(token, conn);
            self.refresh_timer(token);
        }
    }

    /// Hands every outbox to its loop: one lock and at most one wake
    /// per destination, however many messages ride along.
    fn flush_outboxes(&mut self) {
        let shared = &self.shared;
        for (peer, batch) in shared.loops.iter().zip(self.outbox.iter_mut()) {
            peer.push_batch(batch, &shared.state.gauges);
        }
    }

    /// Takes everything the other loops have handed over since the last
    /// wake: runs the `Execute`s and sends their responses back as one
    /// batch per origin, attaches the `Complete`s and then seals and
    /// writes once per connection they touched.
    fn process_inbox(&mut self) {
        self.entered = false;
        let mut msgs = std::mem::take(&mut self.inbox_buf);
        std::mem::swap(&mut *self.shared.loops[self.idx].inbox.0.lock(), &mut msgs);
        for msg in msgs.drain(..) {
            match msg {
                Msg::Execute { origin, conn, req, tenant, request, enqueued } => {
                    let resp = self.execute_request(&request, tenant, enqueued);
                    self.outbox[origin].push(Msg::Complete { conn, req, tenant, resp });
                }
                Msg::Complete { conn, req, tenant, resp } => {
                    // Response attached (or discarded, if the
                    // connection died while the request executed):
                    // either way the admitted request is no longer
                    // pending.
                    self.shared.state.gauges.pending_frames.fetch_sub(1, Ordering::Relaxed);
                    self.shared.state.admission.release(tenant);
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.machine.complete(req, resp);
                        self.touched.push(conn);
                    }
                }
            }
        }
        self.inbox_buf = msgs;
        self.flush_outboxes();
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        for token in touched.drain(..) {
            self.after_progress(token);
        }
        self.touched = touched;
    }

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool, closed: bool) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if writable && conn.want_write {
            self.write_out(token);
        }
        if readable {
            self.read_burst(token);
        } else if closed {
            // Error/hangup with nothing left to read.
            if let Some(c) = self.conns.get_mut(&token) {
                c.machine.close(CloseReason::PeerClosed);
            }
            self.close_token(token);
        }
    }

    /// Reads until the socket drains (or the burst budget is spent),
    /// feeding the machine and executing surfaced frames.
    fn read_burst(&mut self, token: u64) {
        self.entered = false;
        for _ in 0..READ_BURSTS {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.paused || conn.machine.is_closed() {
                return;
            }
            let n = match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.machine.close(CloseReason::PeerClosed);
                    self.close_token(token);
                    return;
                }
                Ok(n) => n,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.machine.close(CloseReason::PeerClosed);
                    self.close_token(token);
                    return;
                }
            };
            let now = Instant::now();
            let chunk = &self.scratch[..n];
            let frames =
                match self.conns.get_mut(&token).expect("checked").machine.on_bytes(chunk, now) {
                    Ok(frames) => frames,
                    Err(_) => {
                        // Framing violation: fail closed, no resync.
                        self.close_token(token);
                        return;
                    }
                };
            let accepted = frames.into_iter().all(|frame| self.process_frame(token, frame, now));
            // What arrived together crosses together — including the
            // requests admitted ahead of a frame that kills the
            // connection: they hold admission slots only their
            // `Complete` releases.
            self.flush_outboxes();
            if !accepted {
                self.close_token(token);
                return;
            }
        }
        self.after_progress(token);
    }

    /// Handles one completed frame. Returns false when the connection
    /// must be dropped (auth/decode failure — see the fail-closed
    /// rationale below).
    fn process_frame(&mut self, token: u64, frame: Vec<u8>, now: Instant) -> bool {
        let shared = Arc::clone(&self.shared);
        let Some(conn) = self.conns.get_mut(&token) else { return false };

        if !conn.established {
            // First frame of a secure connection: the attested key
            // exchange. The quote goes out as a plain frame.
            let enclave = match shared.enclave.as_deref() {
                Some(e) => e,
                None => return false,
            };
            match session::server_key_exchange(&frame, enclave) {
                Ok((crypto, quote, tenant)) => {
                    conn.crypto = Some(crypto);
                    conn.tenant = tenant;
                    conn.established = true;
                    conn.handshake_deadline = None;
                    queue_frame_bytes(conn, &quote);
                    return true;
                }
                Err(_) => return false,
            }
        }

        // Authenticate and decrypt on the owning loop (the session
        // cipher is sequential; frames open in arrival order). A frame
        // that fails authentication is attacker-generated: replying
        // (even with a sealed Error) would desynchronize the
        // request/response pairing, letting a later response be
        // attributed to the wrong request. Fail closed: drop the
        // connection instead.
        let plain = match conn.crypto.as_mut() {
            Some(crypto) => match crypto.open(&frame) {
                Ok(p) => p,
                Err(_) => return false,
            },
            None => frame,
        };
        let Ok(request) = Request::decode(&plain) else { return false };
        let tenant = conn.tenant;

        // Admission control: weighted per-tenant in-flight shares
        // (see [`crate::admission`]). A tenant past its share — or a
        // full house — is answered Busy without executing. The frame
        // was still authenticated above, so the session sequence stays
        // aligned.
        let gauges = &shared.state.gauges;
        let weight = shared.store.tenant_weight(tenant);
        if !shared.state.admission.try_admit(tenant, weight) {
            gauges.shed_requests.fetch_add(1, Ordering::Relaxed);
            let req = conn.machine.begin_request();
            conn.machine.complete(req, Response::empty(Status::Busy).encode());
            return true;
        }
        gauges.pending_frames.fetch_add(1, Ordering::Relaxed);
        let req = conn.machine.begin_request();

        match self.route_for(&request) {
            Some(owner) if owner != self.idx => {
                // Shard-affinity handoff: the owning loop executes and
                // sends the response back through our inbox. It leaves
                // with the rest of this chunk's handoffs.
                gauges.cross_loop_handoffs.fetch_add(1, Ordering::Relaxed);
                self.outbox[owner].push(Msg::Execute {
                    origin: self.idx,
                    conn: token,
                    req,
                    tenant,
                    request,
                    enqueued: now,
                });
            }
            owner => {
                // This loop owns the shard (or the request is
                // multi-shard by nature): execute inline. A request
                // with no routing key may touch keys whose earlier
                // requests still sit in an outbox; let those go first.
                if owner.is_none() {
                    self.flush_outboxes();
                }
                let resp = self.execute_request(&request, tenant, now);
                gauges.pending_frames.fetch_sub(1, Ordering::Relaxed);
                shared.state.admission.release(tenant);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.machine.complete(req, resp);
                }
            }
        }
        true
    }

    /// The event loop that owns `request`'s shard, or `None` for
    /// multi-shard / shardless requests (executed on the decoding loop).
    fn route_for(&self, request: &Request) -> Option<usize> {
        let shared = &self.shared;
        let shard = request.with_call(|call| match call {
            Call::Op(op) => op.routing_key().and_then(|k| shared.store.shard_hint(k)),
            Call::Control(_) | Call::Ping => None,
        });
        // A malformed request routes nowhere: the decoding loop answers
        // its `Error`.
        shard.ok().flatten().map(|shard| shared.route[shard & (shared.route.len() - 1)] as usize)
    }

    /// Enters the enclave for the current burst: the first request a
    /// `read_burst` or an inbox drain executes pays the configured
    /// crossing, the rest of that burst runs inside it. The one place a
    /// crossing is charged.
    fn enter(&mut self) {
        let shared = &self.shared;
        if self.entered || !shared.config.secure {
            return;
        }
        self.entered = true;
        let enclave = shared.enclave.as_ref().expect("secure => enclave");
        match shared.config.crossing {
            CrossingMode::Ecall => enclave.ecall(),
            CrossingMode::HotCalls => enclave.hotcall(),
        }
    }

    /// Checks the execution deadline and runs the store op under
    /// `tenant`'s namespace, inside the burst's enclave entry. Runs on
    /// whichever loop owns the request's shard.
    fn execute_request(&mut self, request: &Request, tenant: u32, enqueued: Instant) -> Vec<u8> {
        self.enter();
        let shared = &self.shared;
        let resp = if enqueued.elapsed() > shared.config.request_deadline {
            // Stale request: the queue outran the deadline. Answering
            // Busy (instead of serving ancient work) keeps overload
            // latency bounded.
            shared.state.gauges.shed_requests.fetch_add(1, Ordering::Relaxed);
            Response::empty(Status::Busy)
        } else if !shared.config.secure
            && request
                .with_call(|call| matches!(call, Call::Control(c) if c.needs_attested_session()))
                .unwrap_or(false)
        {
            // Replication frames carry log keys and fencing authority;
            // they only ever ride the attested channel.
            Response::empty(Status::Error)
        } else {
            execute_with(&*shared.store, request, tenant, Some(&shared.state))
        };
        // Account before replying: a client that saw the response must
        // also see the request counted.
        shared.served.fetch_add(1, Ordering::Relaxed);
        resp.encode()
    }

    /// Seals and flushes released responses, updates pause state and
    /// timers, closes drained connections. Call after any progress on
    /// a connection.
    fn after_progress(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        let ready = conn.machine.take_ready();
        if !ready.is_empty() {
            for resp in ready {
                let framed = match conn.crypto.as_mut() {
                    Some(crypto) => crypto.seal(&resp),
                    None => resp,
                };
                queue_frame_bytes(conn, &framed);
            }
        }
        self.write_out(token);
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.machine.draining() && conn.machine.drain_complete() && conn.out_done() {
            conn.machine.close(CloseReason::Drained);
            self.close_token(token);
            return;
        }
        // Backpressure: suspend reads past the pipelining cap, resume
        // beneath it.
        let should_pause = conn.machine.outstanding() >= self.shared.config.max_pipeline;
        if should_pause != conn.paused {
            conn.paused = should_pause;
            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, conn.interest());
        }
        self.refresh_timer(token);
    }

    /// Drives the pending output buffer into the socket; registers for
    /// writable readiness (and arms the stalled-write deadline) when
    /// the socket cannot take more.
    fn write_out(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    conn.machine.close(CloseReason::PeerClosed);
                    self.close_token(token);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = true;
                        let interest = conn.interest();
                        let _ = self.poller.modify(conn.stream.as_raw_fd(), token, interest);
                    }
                    // The clock starts at the first stall; a client
                    // that cannot drain its responses within the frame
                    // timeout is holding buffer space hostage.
                    let deadline = Instant::now() + self.shared.config.frame_timeout;
                    conn.write_deadline.get_or_insert(deadline);
                    self.refresh_timer(token);
                    return;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.machine.close(CloseReason::PeerClosed);
                    self.close_token(token);
                    return;
                }
            }
        }
        // Fully flushed.
        conn.out.clear();
        conn.out_pos = 0;
        conn.write_deadline = None;
        if conn.want_write {
            conn.want_write = false;
            let interest = conn.interest();
            let _ = self.poller.modify(conn.stream.as_raw_fd(), token, interest);
        }
        self.refresh_timer(token);
    }

    /// Tears a connection down: deregisters, closes the socket, drops
    /// all connection state. Responses for requests still executing on
    /// other loops will be discarded by the `Complete` handler.
    fn close_token(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            let was = self.shared.state.active.fetch_sub(1, Ordering::SeqCst);
            // The last close of a drain is what every already-empty loop
            // is waiting for; nothing else would wake them before the
            // deadline.
            if was == 1 && self.shared.state.draining.load(Ordering::SeqCst) {
                for peer in self.shared.loops.iter() {
                    peer.wake.wake();
                }
            }
        }
        self.timed.remove(&token);
    }
}

/// Appends a length-prefixed frame around `body` to the output buffer.
fn queue_frame_bytes(conn: &mut Conn, body: &[u8]) {
    conn.out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    conn.out.extend_from_slice(body);
}
