//! The live server's hardening contract, on the readiness-loop engine.
//!
//! Slow-loris connections die at the frame timeout, expired deadlines
//! shed as `Busy` without desyncing the sealed channel, excess
//! connections are refused at accept, shutdown drains within its
//! deadline even against stalled peers, quarantined partitions fail
//! closed over the wire, and the retry client neither invents answers
//! nor burns retries on refusals. A behaviour the engine's shape could
//! change runs on one event loop and on four sharing the accept socket
//! ([`LOOPS`]), where requests hand off across loops; the rest pin what
//! only a multi-loop engine does: per-connection pipelining with read
//! backpressure, batched cross-loop wakes, and drain across loops.

use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use shield_net::client::{Connector, RetryClient, RetryPolicy};
use shield_net::protocol::{OpCode, Request, Status};
use shield_net::server::{CrossingMode, Server, ServerConfig};
use shield_net::{KvClient, NetError};
use shieldstore::{Op, Refusal, Reply, ShieldStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One event loop, and four sharing the accept socket.
const LOOPS: [usize; 2] = [1, 4];

/// A server over a fresh four-shard store (with partition quarantine when
/// `quarantine`), its enclave and its store.
fn start(
    name: &str,
    cfg: ServerConfig,
    quarantine: bool,
) -> (Arc<Enclave>, Arc<ShieldStore>, Server) {
    let enclave = EnclaveBuilder::new(name).epc_bytes(16 << 20).build();
    let mut store_cfg =
        shieldstore::Config::shield_opt().buckets(256).mac_hashes(64).with_shards(4);
    if quarantine {
        store_cfg = store_cfg.with_quarantine();
    }
    let store = Arc::new(ShieldStore::new(Arc::clone(&enclave), store_cfg).unwrap());
    let backend: Arc<dyn shield_baseline::KvBackend> = Arc::clone(&store) as _;
    let server = Server::start(backend, Some(Arc::clone(&enclave)), cfg).unwrap();
    (enclave, store, server)
}

fn verifier(enclave: &Arc<Enclave>) -> AttestationVerifier {
    AttestationVerifier::for_enclave(enclave).expect_measurement(*enclave.measurement())
}

fn secure_client(enclave: &Arc<Enclave>, server: &Server, seed: u64) -> KvClient {
    KvClient::connect_secure(server.addr(), &verifier(enclave), seed).unwrap()
}

/// Keys spanning every shard, so a multi-loop server must hand requests
/// across loops no matter which loop accepted the connection.
fn spanning_keys(store: &shieldstore::ShieldStore, per_shard: usize) -> Vec<String> {
    let shards = store.num_shards();
    let mut buckets = vec![0usize; shards];
    let mut keys = Vec::new();
    let mut i = 0u64;
    while buckets.iter().any(|&b| b < per_shard) {
        let key = format!("span-{i}");
        let shard = store.shard_of(key.as_bytes());
        if buckets[shard] < per_shard {
            buckets[shard] += 1;
            keys.push(key);
        }
        i += 1;
    }
    keys
}

/// Slow loris: the loop that owns the stalled connection kills it at the
/// frame timeout while every loop keeps serving. The victim sees EOF,
/// not a hang.
#[test]
fn slow_loris_dies_at_frame_timeout() {
    for loops in LOOPS {
        slow_loris_on(loops);
    }
}

fn slow_loris_on(loops: usize) {
    let (_enclave, _store, server) = start(
        "engine-loris",
        ServerConfig {
            event_loops: loops,
            frame_timeout: Duration::from_millis(200),
            secure: false,
            ..Default::default()
        },
        false,
    );

    let mut healthy = KvClient::connect_insecure(server.addr()).unwrap();
    healthy.set(b"alive", b"yes").unwrap();

    // Half a length header, then silence: the classic loris shape.
    let mut loris = std::net::TcpStream::connect(server.addr()).unwrap();
    std::io::Write::write_all(&mut loris, &[0x10, 0x00]).unwrap();
    loris.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // The owning loop must notice the deadline without any new I/O on
    // the connection and hard-close it.
    let mut buf = [0u8; 8];
    let started = Instant::now();
    let n = std::io::Read::read(&mut loris, &mut buf).unwrap();
    assert_eq!(n, 0, "expected EOF from the frame-timeout kill");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "kill took {:?}, frame timeout is 200ms",
        started.elapsed()
    );

    // Other loops were never wedged.
    assert_eq!(healthy.get(b"alive").unwrap().as_deref(), Some(b"yes".as_ref()));
    drop(healthy);
    server.shutdown();
}

/// A zero request deadline sheds every admitted request as `Busy` —
/// including requests that crossed loops — and the sealed channel's
/// sequence numbers stay aligned across the sheds.
#[test]
fn zero_deadline_sheds_busy_without_desync() {
    for loops in LOOPS {
        zero_deadline_sheds_on(loops);
    }
}

fn zero_deadline_sheds_on(loops: usize) {
    let (enclave, store, server) = start(
        "engine-shed",
        ServerConfig { event_loops: loops, request_deadline: Duration::ZERO, ..Default::default() },
        false,
    );
    let mut client = secure_client(&enclave, &server, 97);
    for key in spanning_keys(&store, 2) {
        match client.get(key.as_bytes()) {
            Err(NetError::Refused(Refusal::Busy)) => {}
            other => panic!("{loops} loops, {key}: expected Busy, got {other:?}"),
        }
    }
    // The channel survived eight sheds: the next frame still opens and
    // seals correctly (and is itself shed, not rejected as garbage).
    match client.ping() {
        Err(NetError::Refused(Refusal::Busy)) => {}
        other => panic!("{loops} loops: expected Busy ping, got {other:?}"),
    }
    assert!(server.shed_requests() >= 9);
    drop(client);
    server.shutdown();
}

/// Connections past `max_connections` are refused at accept and counted.
/// Across loops the accept share is EPOLLEXCLUSIVE but the cap is
/// global: whichever loop wins the accept race must honor it.
#[test]
fn connection_cap_refuses_excess_clients() {
    for loops in LOOPS {
        connection_cap_on(loops);
    }
}

fn connection_cap_on(loops: usize) {
    let (enclave, _store, server) = start(
        "engine-cap",
        ServerConfig { event_loops: loops, max_connections: 2, ..Default::default() },
        false,
    );
    let mut a = secure_client(&enclave, &server, 1);
    let mut b = secure_client(&enclave, &server, 2);
    a.ping().unwrap();
    b.ping().unwrap();

    // The third connection is dropped before any handshake byte, so the
    // client-side handshake fails.
    let verifier = verifier(&enclave);
    assert!(
        KvClient::connect_secure(server.addr(), &verifier, 3).is_err(),
        "{loops} loops: third connection must be refused at the cap"
    );
    assert!(server.refused_connections() >= 1);

    // The admitted sessions are unaffected.
    b.set(b"still", b"serving").unwrap();
    assert_eq!(b.get(b"still").unwrap().as_deref(), Some(b"serving".as_ref()));

    // Freeing a slot re-admits: the cap is a gauge, not a ratchet.
    drop(a);
    let mut c = loop {
        // The server decrements `active` when the loop reaps the closed
        // socket; retry briefly until the slot is visible.
        match KvClient::connect_secure(server.addr(), &verifier, 4) {
            Ok(c) => break c,
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    c.ping().unwrap();
    drop((b, c));
    server.shutdown();
}

/// Pipelined requests hit every shard from one connection: responses
/// come back exactly in request order (the sealed channel demands it),
/// values are correct, and the engine recorded cross-loop handoffs.
#[test]
fn pipelined_cross_shard_burst_preserves_order_and_hands_off() {
    let (enclave, store, server) = start(
        "engine-pipeline",
        ServerConfig { event_loops: 2, max_pipeline: 4, ..Default::default() },
        false,
    );
    let mut client = secure_client(&enclave, &server, 55);
    let keys = spanning_keys(&store, 8);

    let sets: Vec<Request> = keys
        .iter()
        .map(|k| Request {
            op: OpCode::Set,
            key: k.clone().into_bytes(),
            value: k.clone().into_bytes(),
        })
        .collect();
    // Depth 32 against max_pipeline 4: the engine must pause reads at
    // the cap and resume as responses release, never dropping or
    // reordering a frame.
    for resp in client.pipeline(&sets).unwrap() {
        assert_eq!(resp.status, Status::Ok, "pipelined set failed");
    }
    let gets: Vec<Request> = keys
        .iter()
        .map(|k| Request { op: OpCode::Get, key: k.clone().into_bytes(), value: Vec::new() })
        .collect();
    let responses = client.pipeline(&gets).unwrap();
    assert_eq!(responses.len(), keys.len());
    for (key, resp) in keys.iter().zip(&responses) {
        assert_eq!(resp.status, Status::Ok, "{key}: unexpected status");
        assert_eq!(resp.value, key.as_bytes(), "response out of order");
    }

    assert!(server.cross_loop_handoffs() >= 1, "keys span all shards but no request crossed loops");
    assert_eq!(server.requests_served(), 2 * keys.len() as u64);
    drop(client);
    server.shutdown();
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn request(op: OpCode, key: &str, value: &str) -> Request {
    Request { op, key: key.as_bytes().to_vec(), value: value.as_bytes().to_vec() }
}

/// A burst that arrives together crosses together: 64 requests written
/// in one go hand about half of themselves to the other loop, and the
/// whole exchange — requests over, responses back — costs a handful of
/// eventfd wakes. A per-message push spends two wakes per handoff.
#[test]
fn one_burst_crosses_loops_in_a_handful_of_wakes() {
    let (enclave, store, server) =
        start("engine-burst", ServerConfig { event_loops: 2, ..Default::default() }, false);
    let mut client = secure_client(&enclave, &server, 31);
    let keys = spanning_keys(&store, 16);
    assert_eq!(keys.len(), 64);

    let sets: Vec<Request> = keys.iter().map(|k| request(OpCode::Set, k, k)).collect();
    for resp in client.pipeline(&sets).unwrap() {
        assert_eq!(resp.status, Status::Ok);
    }
    let gets: Vec<Request> = keys.iter().map(|k| request(OpCode::Get, k, "")).collect();
    for (key, resp) in keys.iter().zip(client.pipeline(&gets).unwrap()) {
        assert_eq!(resp.status, Status::Ok, "{key}");
        assert_eq!(resp.value, key.as_bytes(), "response out of order");
    }

    let (handoffs, wakes) = (server.cross_loop_handoffs(), server.cross_loop_wakes());
    assert!(handoffs >= 16, "keys span all shards, yet only {handoffs} requests crossed");
    assert!(wakes >= 2, "a handoff and its response each need a wake, saw {wakes}");
    assert!(wakes <= handoffs / 4, "{wakes} wakes for {handoffs} handoffs: not batched");
    assert_eq!(client.stats().unwrap().cross_loop_wakes, wakes);
    drop(client);
    server.shutdown();
}

/// Enclave crossings charged so far, whichever mode charged them.
fn crossings(enclave: &Enclave) -> u64 {
    let sim = enclave.stats().snapshot();
    sim.ecalls + sim.hotcalls
}

/// A pipelined burst enters the enclave once per read burst or inbox
/// drain, not once per request: 64 sets and 64 gets written in two goes
/// pay a handful of crossings, on one loop and on two, in either mode.
/// Measured: 2 entries on one loop and 4 on two, on one CPU and on two;
/// the bound leaves room for TCP splitting a burst into several reads.
#[test]
fn pipelined_burst_enters_the_enclave_once_per_burst() {
    for loops in [1, 2] {
        for crossing in [CrossingMode::Ecall, CrossingMode::HotCalls] {
            let (enclave, store, server) = start(
                "engine-entry-burst",
                ServerConfig { event_loops: loops, crossing, ..Default::default() },
                false,
            );
            let mut client = secure_client(&enclave, &server, 33);
            let keys = spanning_keys(&store, 16);
            let before = crossings(&enclave);
            let sets: Vec<Request> = keys.iter().map(|k| request(OpCode::Set, k, k)).collect();
            for resp in client.pipeline(&sets).unwrap() {
                assert_eq!(resp.status, Status::Ok);
            }
            let gets: Vec<Request> = keys.iter().map(|k| request(OpCode::Get, k, "")).collect();
            for (key, resp) in keys.iter().zip(client.pipeline(&gets).unwrap()) {
                assert_eq!(resp.value, key.as_bytes(), "{key}");
            }
            let n = (sets.len() + gets.len()) as u64;
            let entered = crossings(&enclave) - before;
            let sim = enclave.stats().snapshot();
            let other = match crossing {
                CrossingMode::Ecall => sim.hotcalls,
                CrossingMode::HotCalls => sim.ecalls,
            };
            let case = format!("{loops} loop(s), {crossing:?}");
            assert_eq!(other, 0, "{case}: the other crossing mode was charged");
            assert!(entered >= 2, "{case}: {entered} entries for two bursts");
            assert!(
                entered <= n / 4,
                "{case}: {entered} enclave entries for {n} pipelined requests"
            );
            drop(client);
            server.shutdown();
        }
    }
}

/// With one request in flight a burst holds one request, so each pays
/// exactly one crossing, on one loop and on two (where half of them
/// execute on the other loop's inbox drain).
#[test]
fn sequential_requests_pay_one_crossing_each() {
    for loops in [1, 2] {
        let (enclave, store, server) = start(
            "engine-entry-single",
            ServerConfig { event_loops: loops, ..Default::default() },
            false,
        );
        let mut client = secure_client(&enclave, &server, 34);
        let keys = spanning_keys(&store, 4);
        let before = crossings(&enclave);
        for key in &keys {
            client.set(key.as_bytes(), b"v").unwrap();
            assert_eq!(client.get(key.as_bytes()).unwrap().as_deref(), Some(&b"v"[..]));
        }
        let n = 2 * keys.len() as u64;
        assert_eq!(crossings(&enclave) - before, n, "{loops} loop(s)");
        drop(client);
        server.shutdown();
    }
}

/// Same-key requests keep their arrival order through the outbox, the
/// owner's inbox and back. Two keys on shards owned by different loops:
/// whichever loop accepted the connection, one key's five requests all
/// cross.
#[test]
fn same_key_pipeline_executes_in_arrival_order_on_the_other_loop() {
    let (enclave, store, server) =
        start("engine-key-fifo", ServerConfig { event_loops: 2, ..Default::default() }, false);
    let mut client = secure_client(&enclave, &server, 32);
    let keys = spanning_keys(&store, 1);
    let on_shard = |shard| keys.iter().find(|k| store.shard_of(k.as_bytes()) == shard).unwrap();
    for key in [on_shard(0), on_shard(1)] {
        let replies = client
            .pipeline(&[
                request(OpCode::Set, key, "a"),
                request(OpCode::Set, key, "b"),
                request(OpCode::Get, key, ""),
                request(OpCode::Delete, key, ""),
                request(OpCode::Get, key, ""),
            ])
            .unwrap();
        let statuses: Vec<Status> = replies.iter().map(|r| r.status).collect();
        assert_eq!(
            statuses,
            [Status::Ok, Status::Ok, Status::Ok, Status::Ok, Status::NotFound],
            "{key}"
        );
        assert_eq!(replies[2].value, b"b", "{key}: the get ran ahead of the second set");
    }
    assert_eq!(
        server.cross_loop_handoffs(),
        5,
        "exactly one of the two keys lives on the other loop"
    );
    drop(client);
    server.shutdown();
}

/// A connection that pipelines cross-loop requests and dies mid-burst,
/// from either end and without a reply read, leaks nothing: every admitted request still crosses, comes
/// back and releases its slot, so the in-flight gauge returns to rest
/// and a later client is never shed.
#[test]
fn hangup_mid_burst_releases_every_admission_slot() {
    let (_enclave, store, server) = start(
        "engine-hangup",
        ServerConfig { event_loops: 2, max_in_flight: 4, secure: false, ..Default::default() },
        false,
    );
    let keys = spanning_keys(&store, 8);

    for _ in 0..8 {
        let mut wire = Vec::new();
        for key in &keys {
            let body = request(OpCode::Set, key, "abandoned").encode();
            shield_net::protocol::push_frame(&mut wire, &body).unwrap();
        }
        // An undecodable last frame makes the server hang up too, in the
        // middle of the chunk it is handing off.
        shield_net::protocol::push_frame(&mut wire, &[0xff]).unwrap();
        let mut rude = std::net::TcpStream::connect(server.addr()).unwrap();
        std::io::Write::write_all(&mut rude, &wire).unwrap();
        drop(rude);
    }
    // With four slots most of each burst is shed; every frame ends up
    // one or the other.
    let frames = 8 * keys.len() as u64;
    wait_until("every abandoned frame is executed or shed", || {
        server.requests_served() + server.shed_requests() == frames
    });
    assert!(server.cross_loop_handoffs() >= 1, "nothing crossed loops, so nothing was tested");

    // The stats request that reads the gauge is itself the one pending
    // frame.
    let mut client = KvClient::connect_insecure(server.addr()).unwrap();
    wait_until("abandoned requests release their in-flight slots", || {
        client.stats().unwrap().pending_frames == 1
    });

    let shed = server.shed_requests();
    for key in keys.iter().cycle().take(100) {
        client.set(key.as_bytes(), b"served").unwrap();
    }
    assert_eq!(server.shed_requests(), shed, "a leaked slot shed a well-behaved client");
    drop(client);
    server.shutdown();
}

/// Shutdown with live traffic (crossing loops, on several) *and* a
/// connection that sent part of a frame header and stalled: the stalled
/// peer is hard-closed and the whole drain lands within the deadline
/// (plus scheduling slack), not at the frame timeout.
#[test]
fn drain_completes_within_deadline_despite_a_stall() {
    for loops in LOOPS {
        drain_under_stall_on(loops);
    }
}

fn drain_under_stall_on(loops: usize) {
    let (enclave, store, server) = start(
        "engine-drain",
        ServerConfig {
            event_loops: loops,
            frame_timeout: Duration::from_secs(60),
            drain_deadline: Duration::from_millis(400),
            ..Default::default()
        },
        false,
    );

    // Traffic right up to the drain.
    let mut client = secure_client(&enclave, &server, 21);
    for key in spanning_keys(&store, 4) {
        client.set(key.as_bytes(), b"persisted").unwrap();
    }

    // A stalled peer that only the drain hard-close can evict (the
    // frame timeout is a minute out).
    let mut stalled = std::net::TcpStream::connect(server.addr()).unwrap();
    std::io::Write::write_all(&mut stalled, &[0x02]).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let a loop adopt it

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "{loops} loops: drain took {elapsed:?} against a 400ms deadline"
    );
    drop((client, stalled));
}

/// A loop whose own connections are gone must not sit out the drain
/// deadline waiting for its peers: the loop that closes the last
/// connection wakes everyone. With idle clients only, shutdown is
/// immediate even under the default 5 s deadline.
#[test]
fn multi_loop_shutdown_with_idle_clients_does_not_wait_for_the_deadline() {
    let cfg = ServerConfig { event_loops: 2, secure: false, ..Default::default() };
    assert_eq!(cfg.drain_deadline, Duration::from_secs(5));
    let (_enclave, _store, server) = start("engine-idle-drain", cfg, false);
    // Enough idle connections that both loops hold some; a ping each
    // proves a loop has adopted it.
    let mut idle: Vec<KvClient> =
        (0..6).map(|_| KvClient::connect_insecure(server.addr()).unwrap()).collect();
    for client in idle.iter_mut() {
        client.ping().unwrap();
    }
    assert_eq!(server.active_connections(), idle.len());

    let started = Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "idle drain took {elapsed:?}");
    drop(idle);
}

/// The smallest case of the above, the one the ROADMAP carried as a known
/// defect ("a loop that begins draining while another still owns a
/// connection goes back to sleep" for the whole 5 s deadline): two loops,
/// one idle connection, so one loop starts its drain empty-handed while
/// its peer still owns a socket. Whichever loop accepted it — repeated so
/// that both get their turn — the owner's close wakes the other.
#[test]
fn two_loop_shutdown_with_one_idle_connection_returns_at_once() {
    for round in 0..8 {
        let cfg = ServerConfig { event_loops: 2, secure: false, ..Default::default() };
        assert_eq!(cfg.drain_deadline, Duration::from_secs(5));
        let (_enclave, _store, server) = start("engine-one-idle", cfg, false);
        let mut idle = KvClient::connect_insecure(server.addr()).unwrap();
        idle.ping().unwrap();
        assert_eq!(server.active_connections(), 1);

        let started = Instant::now();
        server.shutdown();
        let elapsed = started.elapsed();
        assert!(elapsed < Duration::from_millis(500), "round {round}: drain took {elapsed:?}");
        drop(idle);
    }
}

/// An integrity violation quarantines one partition: its keys answer
/// `Quarantined` over the wire from whichever loop owns them, every
/// other key keeps serving correct values, and the stats frame carries
/// the gauges — including the engine's own.
#[test]
fn quarantined_partition_answers_quarantined_over_the_wire() {
    for loops in LOOPS {
        quarantine_on(loops);
    }
}

fn quarantine_on(loops: usize) {
    let (enclave, store, server) =
        start("engine-quarantine", ServerConfig { event_loops: loops, ..Default::default() }, true);
    let mut client = secure_client(&enclave, &server, 77);
    let keys = spanning_keys(&store, 8);
    for k in &keys {
        client.set(k.as_bytes(), b"value").unwrap();
    }
    assert!(store.tamper_any_entry_byte(5));

    // First sweep trips the violation; afterwards the store names the
    // poisoned partition.
    for k in &keys {
        let _ = client.get(k.as_bytes());
    }
    let report = store.quarantine_report();
    assert!(!report.is_clean());
    assert_eq!(report.quarantined_sets(), 1);

    // Second sweep: the quarantined partition fails closed with the
    // dedicated wire status; every other key still serves correctly.

    let mut quarantined = 0;
    for k in &keys {
        let (shard, set) = store.key_partition(k.as_bytes());
        let poisoned = report.shards[shard].quarantined_sets.contains(&set);
        match client.get(k.as_bytes()) {
            Ok(v) => {
                assert!(!poisoned, "{k}: quarantined key served");
                assert_eq!(v.as_deref(), Some(b"value".as_ref()));
            }
            Err(NetError::Refused(Refusal::Quarantined)) => {
                assert!(poisoned, "{k}: healthy key reported quarantined");
                quarantined += 1;
            }
            other => panic!("{k}: unexpected outcome {other:?}"),
        }
    }
    assert!(quarantined >= 1);

    let snap = client.stats().unwrap();
    assert_eq!((snap.quarantined_sets, snap.quarantined_shards), (1, 0));
    assert!(snap.ops.quarantine_rejections >= 1);
    assert_eq!(snap.event_loops, loops as u64);
    assert_eq!(snap.cross_loop_handoffs >= 1, loops > 1);
    drop(client);
    server.shutdown();
}

/// The retry client backs off on `Busy` and gives up after the policy's
/// retry budget — it never invents an answer.
#[test]
fn retry_client_exhausts_busy_retries() {
    let (enclave, _store, server) = start(
        "retry-busy",
        ServerConfig { request_deadline: Duration::ZERO, ..Default::default() },
        false,
    );
    let policy = RetryPolicy {
        max_retries: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        ..Default::default()
    };
    let connector =
        Connector::Secure { addr: server.addr(), verifier: verifier(&enclave), seed: 21 };
    let mut client = RetryClient::new(connector, policy);
    match client.execute(Op::Get(b"k")) {
        Err(NetError::Refused(Refusal::Busy)) => {}
        other => panic!("expected Busy after exhausted retries, got {other:?}"),
    }
    assert_eq!(client.busy_retries(), 3);
    assert_eq!(client.reconnects(), 0, "Busy must not tear down the session");
    server.shutdown();
}

/// A refusal the server answers is not a network failure: the retry
/// client surfaces it at once — no retry, no backoff, no reconnect — and
/// the session it arrived on keeps serving.
#[test]
fn retry_client_surfaces_refusals_at_once() {
    let (enclave, store, server) = start("retry-refusal", ServerConfig::default(), false);
    store.tenants().configure(0, shieldstore::TenantQuota { max_keys: 1, ..Default::default() });
    store.set(b"first", b"v").unwrap();
    // The first backoff sleeps at least half the base.
    let policy = RetryPolicy {
        max_retries: 4,
        base_backoff: Duration::from_millis(400),
        ..Default::default()
    };
    let hit = Reply::Value(Some(b"v".to_vec()));
    let cases = [
        ("set past the default tenant's key quota", Op::set(b"second", b"v")),
        ("scan on a store without the ordered index", Op::ScanPrefix { prefix: b"k", limit: 10 }),
    ];
    for (seed, (case, refused)) in cases.into_iter().enumerate() {
        let connector = Connector::Secure {
            addr: server.addr(),
            verifier: verifier(&enclave),
            seed: seed as u64,
        };
        let mut client = RetryClient::new(connector, policy.clone());
        assert_eq!(client.execute(Op::Get(b"first")).unwrap(), hit, "{case}");
        let started = Instant::now();
        let outcome = client.execute(refused);
        let elapsed = started.elapsed();
        assert!(outcome.is_err(), "{case}: refused");
        assert_eq!(client.retries(), 0, "{case}: a refusal burns no retry");
        assert!(elapsed < Duration::from_millis(200), "{case}: returned after {elapsed:?}");
        assert_eq!(client.execute(Op::Get(b"first")).unwrap(), hit, "{case}");
        assert_eq!(client.reconnects(), 0, "{case}: the session survives the refusal");
    }
    server.shutdown();
}

/// The retry client re-establishes a torn-down session and replays an
/// idempotent request against a healthy server.
#[test]
fn retry_client_reconnects_after_session_loss() {
    let (enclave, _store, server) = start("retry-reconnect", ServerConfig::default(), false);
    let policy = RetryPolicy {
        max_retries: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        read_timeout: Some(Duration::from_millis(500)),
        ..Default::default()
    };
    let connector =
        Connector::Secure { addr: server.addr(), verifier: verifier(&enclave), seed: 33 };
    let mut client = RetryClient::new(connector, policy);
    client.execute(Op::set(b"k", b"v1")).unwrap();

    // Tear down the session out from under the client: the next
    // operation must transparently reconnect and replay.
    client.disconnect();
    assert_eq!(client.execute(Op::Get(b"k")).unwrap(), Reply::Value(Some(b"v1".to_vec())));
    assert!(client.reconnects() >= 1);
    server.shutdown();
}
