//! The wire pass and its traced replay.
//!
//! The generator is the benchmark's own lean connection built from the
//! net crate's public pieces — `session::client_handshake`,
//! `Request::encode`, `SessionCrypto`, `FrameDecoder` — with one
//! `write_all` per window refill and 64 KiB reads. `KvClient` spends
//! two writes and two reads per frame and saturates below the server,
//! so it is measured as a diagnostic (`layers::kvclient`), not used to
//! drive load.

use crate::pass::{thread_cpu_ns, Pass, Segments};
use crate::rig::{key_of, Model, Rig, Step};
use crate::spec::WINDOW;
use crate::trace::Tracer;
use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::Enclave;
use shield_net::protocol::{OpCode, Request, Response, Status};
use shield_net::server::{Server, ServerConfig};
use shield_net::session::{self, SessionCrypto};
use shield_net::{FrameDecoder, NetError};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const READ_CHUNK: usize = 64 << 10;

pub fn verifier(enclave: &Enclave) -> AttestationVerifier {
    AttestationVerifier::for_enclave(enclave).expect_measurement(*enclave.measurement())
}

/// A running server and the benchmark's connection to it.
pub struct Serving {
    /// `Some` until drop.
    conn: Option<WireConn>,
    pub server: Server,
}

impl Serving {
    pub fn start(
        store: std::sync::Arc<shieldstore::ShieldStore>,
        enclave: &std::sync::Arc<Enclave>,
        event_loops: usize,
        seed: u64,
    ) -> Serving {
        let server = Server::start(
            store as std::sync::Arc<dyn shield_baseline::KvBackend>,
            Some(std::sync::Arc::clone(enclave)),
            ServerConfig { event_loops, ..ServerConfig::default() },
        )
        .expect("start server");
        let conn = WireConn::connect(server.addr(), enclave, seed).expect("handshake");
        Serving { conn: Some(conn), server }
    }
}

impl Drop for Serving {
    /// Hang up and wait for the server to notice before it is told to
    /// stop: with several loops, one that starts draining while another
    /// still owns a connection goes back to sleep for the whole drain
    /// deadline (5 s).
    fn drop(&mut self) {
        self.conn.take();
        let deadline = Instant::now() + Duration::from_secs(1);
        while self.server.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// An attested session to the server, framed and sealed by hand.
pub struct WireConn {
    stream: TcpStream,
    crypto: SessionCrypto,
    decoder: FrameDecoder,
    read_buf: Vec<u8>,
    frames: Vec<Vec<u8>>,
    out: Vec<u8>,
}

impl WireConn {
    pub fn connect(addr: SocketAddr, enclave: &Enclave, seed: u64) -> Result<WireConn, NetError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let crypto = session::client_handshake(&mut stream, &verifier(enclave), seed)?;
        Ok(WireConn {
            stream,
            crypto,
            decoder: FrameDecoder::new(),
            read_buf: vec![0; READ_CHUNK],
            frames: Vec::new(),
            out: Vec::new(),
        })
    }
}

pub fn request_for(model: &Model, step: Step) -> Request {
    match step {
        Step::Get { id, .. } => Request { op: OpCode::Get, key: key_of(id), value: Vec::new() },
        Step::Set { id, round } => {
            Request { op: OpCode::Set, key: key_of(id), value: model.value(id, round) }
        }
    }
}

fn push_frame(out: &mut Vec<u8>, body: &[u8]) {
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
}

/// Checks one reply against the step that asked for it.
fn check_reply(model: &mut Model, step: Step, reply: Result<Response, NetError>) {
    match step {
        Step::Get { id, round } => {
            let value = reply.ok().filter(|r| r.status == Status::Ok).map(|r| r.value);
            model.check_get(id, round, value.as_deref());
        }
        Step::Set { .. } => model.ack_set(reply.is_ok_and(|r| r.status == Status::Ok)),
    }
}

/// Closed loop over one connection with a sliding window of `WINDOW`
/// requests in flight: every reply read frees a slot that the next
/// write refills. Latency runs from that write to the arrival of the
/// chunk carrying the reply.
pub fn run(rig: &mut Rig, seconds: f64) -> Pass {
    let Serving { conn, server } = rig.net.as_mut().expect("wire workload has a server");
    let conn = conn.as_mut().expect("connection lives as long as the server");
    let model = &mut rig.model;
    let penalties = || server.worker_penalties_ns().iter().sum::<u64>();
    let mut in_flight: VecDeque<(Step, Instant)> = VecDeque::with_capacity(WINDOW);

    let penalty_before = penalties();
    let cpu_before = thread_cpu_ns();
    let started = Instant::now();
    let mut segments = Segments::new(Duration::from_secs_f64(seconds), started);
    let mut sending = true;
    while sending || !in_flight.is_empty() {
        if sending && in_flight.len() < WINDOW {
            conn.out.clear();
            let sent_at = Instant::now();
            while in_flight.len() < WINDOW {
                let step = model.next_step();
                let sealed = conn.crypto.seal(&request_for(model, step).encode());
                push_frame(&mut conn.out, &sealed);
                in_flight.push_back((step, sent_at));
            }
            conn.stream.write_all(&conn.out).expect("write requests");
        }
        let n = conn.stream.read(&mut conn.read_buf).expect("read replies");
        assert!(n > 0, "server closed the connection mid-run");
        let arrived = Instant::now();
        conn.decoder.feed(&conn.read_buf[..n], &mut conn.frames).expect("reply framing");
        for frame in conn.frames.drain(..) {
            let (step, sent_at) = in_flight.pop_front().expect("a reply per request");
            let reply = conn.crypto.open(&frame).and_then(|plain| Response::decode(&plain));
            check_reply(model, step, reply);
            // Replies that drain after the last segment closed are
            // checked but belong to no segment.
            if sending && segments.record(arrived, arrived - sent_at) {
                sending = false;
            }
        }
    }
    let ended = Instant::now();
    // The loops publish their virtual clocks at the end of an iteration;
    // the last reply can overtake that store by a few microseconds.
    std::thread::sleep(Duration::from_millis(2));
    segments.finish(ended, penalties() - penalty_before, thread_cpu_ns() - cpu_before)
}

/// A client/server `SessionCrypto` pair from a real handshake over a
/// loopback socket, for the replay and the session micro-spans.
pub fn session_pair(enclave: &Enclave, seed: u64) -> (SessionCrypto, SessionCrypto) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let (mut stream, _) = listener.accept().expect("accept");
            session::server_handshake(&mut stream, enclave).expect("server handshake").0
        });
        let mut stream = TcpStream::connect(addr).expect("connect loopback");
        let client =
            session::client_handshake(&mut stream, &verifier(enclave), seed).expect("handshake");
        (client, server.join().expect("handshake thread"))
    })
}

/// Replays `ops` requests through the calls the server makes for each —
/// `FrameDecoder::feed` on a window-sized chunk, then per frame
/// `SessionCrypto::open`, `Request::decode`, `server::execute`,
/// `Response::encode`, `SessionCrypto::seal` — on this thread, with no
/// socket. Each request is a root `request` span over its five calls;
/// `frame.feed`, `client.prepare` and `client.check` are per-window
/// roots carrying the window's first request id. Returns the wall time.
pub fn replay(
    rig: &mut Rig,
    pair: &mut (SessionCrypto, SessionCrypto),
    tracer: &mut Tracer,
    ops: u64,
) -> Duration {
    let (client, server) = pair;
    let store: &dyn shield_baseline::KvBackend = &*rig.store;
    let model = &mut rig.model;
    let mut decoder = FrameDecoder::new();
    let mut chunk = Vec::new();
    let mut frames = Vec::new();
    let mut steps = Vec::with_capacity(WINDOW);
    let mut replies = Vec::with_capacity(WINDOW);

    let started = Instant::now();
    let mut req = 0u32;
    while u64::from(req) < ops {
        let window_req = req;
        let p0 = tracer.stamp();
        chunk.clear();
        steps.clear();
        for _ in 0..WINDOW {
            let step = model.next_step();
            push_frame(&mut chunk, &client.seal(&request_for(model, step).encode()));
            steps.push(step);
        }
        let f0 = tracer.stamp();
        tracer.record("client.prepare", window_req, 0, p0, f0);
        decoder.feed(&chunk, &mut frames).expect("request framing");
        let mut at = tracer.stamp();
        tracer.record("frame.feed", window_req, 0, f0, at);

        for frame in frames.drain(..) {
            let root = tracer.open("request", req, 0, at);
            let mut child = |tracer: &mut Tracer, name: &'static str| {
                let now = tracer.stamp();
                tracer.record(name, req, root, at, now);
                at = now;
            };
            let plain = server.open(&frame).expect("request authenticates");
            child(tracer, "session.open");
            let request = Request::decode(&plain).expect("request decodes");
            child(tracer, "protocol.decode_request");
            let response = shield_net::server::execute(store, &request);
            child(tracer, "server.execute");
            let body = response.encode();
            child(tracer, "protocol.encode_response");
            replies.push(server.seal(&body));
            child(tracer, "session.seal");
            tracer.close(root, at);
            req += 1;
        }

        for (step, sealed) in steps.drain(..).zip(replies.drain(..)) {
            let reply = client.open(&sealed).and_then(|plain| Response::decode(&plain));
            check_reply(model, step, reply);
        }
        tracer.record("client.check", window_req, 0, at, tracer.stamp());
    }
    started.elapsed()
}
