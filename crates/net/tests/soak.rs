//! Many-connection soak: the readiness engine at scale.
//!
//! Ignored by default (`cargo test -- --ignored` or the dedicated CI
//! soak job runs it): ramps thousands of concurrent connections —
//! mostly idle, a slice actively issuing requests — against a
//! multi-loop server in one process, then checks the things that only
//! go wrong at scale:
//!
//! * every connection is admitted and tracked (`active_connections`
//!   reaches the ramp target);
//! * stats counters stay monotone while traffic flows;
//! * shutdown drains the full herd within its deadline;
//! * no file descriptor leaks: the process fd count returns to (about)
//!   its pre-soak level once clients and server are gone.
//!
//! `SHIELDSTORE_SOAK_CONNS` scales the herd (default 1000; CI uses
//! 9000 — both ends of every socket live in this process and the
//! environment caps fds at 20000, so the full 10k-client figure comes
//! from the two-process scale row of `fig18_networked` instead).

use shield_net::poller::raise_nofile_limit;
use shield_net::server::{Server, ServerConfig};
use shield_net::KvClient;
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").map(|d| d.count()).unwrap_or(0)
}

fn soak_conns() -> usize {
    std::env::var("SHIELDSTORE_SOAK_CONNS").ok().and_then(|v| v.parse().ok()).unwrap_or(1000)
}

#[test]
#[ignore = "scale soak; run explicitly or via the CI soak job"]
fn soak_thousands_of_connections_no_leaks_clean_drain() {
    let target = soak_conns();
    // Both socket ends plus epoll/eventfd/store overhead live here.
    let _ = raise_nofile_limit((target * 2 + 256) as u64);
    let fds_before = open_fds();

    let enclave = sgx_sim::enclave::EnclaveBuilder::new("soak").epc_bytes(32 << 20).build();
    let store = std::sync::Arc::new(
        shieldstore::ShieldStore::new(
            std::sync::Arc::clone(&enclave),
            shieldstore::Config::shield_opt().buckets(512).mac_hashes(64).with_shards(4),
        )
        .unwrap(),
    );
    let backend: std::sync::Arc<dyn shield_baseline::KvBackend> = store as _;
    let server = Server::start(
        backend,
        Some(enclave),
        ServerConfig {
            event_loops: 2,
            secure: false,
            max_connections: target + 64,
            // Idle herd members never send a byte; only drain may evict
            // them.
            frame_timeout: Duration::from_secs(600),
            drain_deadline: Duration::from_secs(10),
            ..Default::default()
        },
    )
    .unwrap();

    // Ramp the idle herd, pacing against the server's accept rate so
    // the listen backlog never overflows into SYN retransmit stalls.
    let mut herd: Vec<TcpStream> = Vec::with_capacity(target);
    let ramp_started = Instant::now();
    while herd.len() < target {
        herd.push(TcpStream::connect(server.addr()).expect("ramp connect"));
        if herd.len().is_multiple_of(128) {
            while server.active_connections() + 64 < herd.len() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.active_connections() < target {
        assert!(Instant::now() < deadline, "server never admitted the full herd");
        std::thread::sleep(Duration::from_millis(5));
    }
    eprintln!(
        "ramped {} connections in {:?} ({} admitted)",
        herd.len(),
        ramp_started.elapsed(),
        server.active_connections()
    );

    // Active slice: real traffic through the loops while the idle herd
    // sits on the pollers, with monotone-stats checks along the way.
    let mut active: Vec<KvClient> =
        (0..8).map(|_| KvClient::connect_insecure(server.addr()).unwrap()).collect();
    let mut last = active[0].stats().unwrap();
    for round in 0..5u64 {
        for (c, client) in active.iter_mut().enumerate() {
            for i in 0..20u64 {
                let key = format!("soak-{c}-{i}");
                client.set(key.as_bytes(), &round.to_le_bytes()).unwrap();
                let got = client.get(key.as_bytes()).unwrap();
                assert_eq!(got.as_deref(), Some(round.to_le_bytes().as_ref()));
            }
        }
        let snap = active[0].stats().unwrap();
        for ((name, prev), (_, cur)) in
            last.monotone_counters().iter().zip(snap.monotone_counters().iter())
        {
            assert!(cur >= prev, "{name} went backwards under load: {prev} -> {cur}");
        }
        // The stats request observes itself in flight; anything beyond
        // that single frame would be a stuck request.
        assert!(snap.pending_frames <= 1, "requests stuck in flight between rounds");
        last = snap;
    }
    assert!(server.requests_served() >= 5 * 8 * 40);

    // Clean drain of the whole herd: idle connections are closed at the
    // drain boundary, so this must finish in far less than the herd
    // count times anything.
    drop(active);
    let shutdown_started = Instant::now();
    server.shutdown();
    let elapsed = shutdown_started.elapsed();
    eprintln!("drained in {elapsed:?}");
    assert!(elapsed < Duration::from_secs(15), "drain of idle herd took {elapsed:?}");

    // Our ends are now one-sided; release them and verify the process
    // returns to its baseline fd budget (small slack for test-harness
    // internals and lazily-closed handles).
    drop(herd);
    let fds_after = open_fds();
    assert!(
        fds_after <= fds_before + 16,
        "fd leak: {fds_before} before the soak, {fds_after} after"
    );
}
