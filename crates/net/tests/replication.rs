//! Replication end-to-end: read scale-out, replica lag visibility, and
//! verifiable failover with fencing of the stale primary. The `#[ignore]`d
//! `two_replicas_add_read_capacity_and_failover_loses_nothing` is the
//! wall-clock gate CI's `replication-suite` runs in release.

use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use shield_net::repl::{ReplicaConfig, ReplicaNode};
use shield_net::{CrossingMode, KvClient, NetError, Server, ServerConfig};
use shield_workload::rng::SplitMix64;
use shieldstore::{Config, DurabilityPolicy, ShieldStore, Watermark};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Primary and replica run the same enclave binary on the same
/// platform: identical name + seed gives identical MRENCLAVE sealing
/// keys, which promotion needs to read the primary's sealed pin.
fn enclave() -> Arc<Enclave> {
    EnclaveBuilder::new("repl-e2e").seed(7).epc_bytes(8 << 20).build()
}

fn store_config() -> Config {
    Config::shield_opt()
        .buckets(128)
        .mac_hashes(32)
        .with_shards(2)
        .with_durability(DurabilityPolicy::Strict)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        event_loops: 2,
        crossing: CrossingMode::HotCalls,
        secure: true,
        ..Default::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ss-net-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wait_caught_up(handle: &shield_net::ReplicaHandle, target: Watermark) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.watermark() < target {
        assert!(
            Instant::now() < deadline,
            "replica stuck at {} chasing {}",
            handle.watermark(),
            target
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn failover_preserves_every_acked_write_and_fences_the_old_primary() {
    let primary_wal = scratch("failover-p");
    let replica_wal = scratch("failover-r");

    let primary_enclave = enclave();
    let primary = Arc::new(ShieldStore::new(Arc::clone(&primary_enclave), store_config()).unwrap());
    primary.attach_wal(&primary_wal).unwrap();
    let primary_server = Server::start(
        Arc::clone(&primary) as Arc<dyn shield_baseline::KvBackend>,
        Some(Arc::clone(&primary_enclave)),
        server_config(),
    )
    .unwrap();
    let verifier = AttestationVerifier::for_enclave(&primary_enclave)
        .expect_measurement(*primary_enclave.measurement());

    let replica_enclave = enclave();
    let replica_store =
        Arc::new(ShieldStore::new(Arc::clone(&replica_enclave), store_config()).unwrap());
    let node = ReplicaNode::start(
        primary_server.addr(),
        &verifier,
        Arc::clone(&replica_store),
        Arc::clone(&replica_enclave),
        server_config(),
        ReplicaConfig {
            primary_wal_dir: primary_wal.clone(),
            wal_dir: replica_wal.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let handle = node.handle();

    // Load the primary, then take the durable watermark: everything at
    // or below it is acked to clients and must survive failover.
    let mut client = KvClient::connect_secure(primary_server.addr(), &verifier, 100).unwrap();
    for i in 0..200u32 {
        client.set(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    let (gen, seq) = client.flush().unwrap().expect("primary has a WAL");
    let acked = Watermark::new(gen, seq);
    drop(client);

    // The replica streams to the acked watermark before the primary dies.
    wait_caught_up(&handle, acked);

    // Pre-promotion: reads serve, writes answer ReadOnly.
    let mut rc = KvClient::connect_secure(node.addr(), &verifier, 101).unwrap();
    assert_eq!(rc.get(b"k000").unwrap().unwrap(), b"v0");
    match rc.set(b"nope", b"x") {
        Err(NetError::ReadOnly) => {}
        other => panic!("replica write must answer ReadOnly, got {other:?}"),
    }

    // Kill the primary (server gone; the store object lingers, like a
    // hung process that later resumes).
    primary_server.shutdown();

    // Promote over the wire. The returned watermark covers every acked
    // write.
    let promoted = rc.promote().unwrap();
    assert!(Watermark::new(promoted.0, promoted.1) >= acked, "promotion lost acked writes");
    assert!(handle.promoted());

    // Zero acked-write loss: every write at the durable watermark reads
    // back on the promoted replica.
    for i in 0..200u32 {
        let got = rc.get(format!("k{i:03}").as_bytes()).unwrap();
        assert_eq!(got.as_deref(), Some(format!("v{i}").as_bytes()), "k{i:03} lost in failover");
    }

    // The promoted node accepts writes and they are durable in its own
    // WAL.
    rc.set(b"post-failover", b"new-primary").unwrap();
    assert_eq!(rc.get(b"post-failover").unwrap().unwrap(), b"new-primary");
    assert!(rc.flush().unwrap().is_some(), "promoted node runs its own WAL");

    // The resurrected stale primary is fenced: its monotonic counter
    // moved behind its back, so its next commit fails closed.
    assert!(primary.set(b"split-brain", b"stale").is_err(), "fenced stale primary must not commit");

    drop(rc);
    node.shutdown();
    let _ = std::fs::remove_dir_all(&primary_wal);
    let _ = std::fs::remove_dir_all(&replica_wal);
}

#[test]
fn replica_lag_gauges_and_read_scale_out() {
    let primary_wal = scratch("lag-p");
    let replica_wal = scratch("lag-r");

    let primary_enclave = enclave();
    let primary = Arc::new(ShieldStore::new(Arc::clone(&primary_enclave), store_config()).unwrap());
    primary.attach_wal(&primary_wal).unwrap();
    let primary_server = Server::start(
        Arc::clone(&primary) as Arc<dyn shield_baseline::KvBackend>,
        Some(Arc::clone(&primary_enclave)),
        server_config(),
    )
    .unwrap();
    let verifier = AttestationVerifier::for_enclave(&primary_enclave)
        .expect_measurement(*primary_enclave.measurement());

    let replica_enclave = enclave();
    let replica_store =
        Arc::new(ShieldStore::new(Arc::clone(&replica_enclave), store_config()).unwrap());
    let node = ReplicaNode::start(
        primary_server.addr(),
        &verifier,
        Arc::clone(&replica_store),
        Arc::clone(&replica_enclave),
        server_config(),
        ReplicaConfig {
            primary_wal_dir: primary_wal.clone(),
            wal_dir: replica_wal.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let handle = node.handle();

    let mut client = KvClient::connect_secure(primary_server.addr(), &verifier, 200).unwrap();
    for i in 0..50u32 {
        client.set(format!("lag{i}").as_bytes(), b"value").unwrap();
    }
    let (gen, seq) = client.flush().unwrap().expect("primary has a WAL");
    wait_caught_up(&handle, Watermark::new(gen, seq));

    // Primary-side gauges: role 1, one subscriber, bytes shipped, and
    // the replica's ack visible once it catches up.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = client.stats().unwrap();
        assert_eq!(snap.repl_role, 1, "a primary with subscribers reports role 1");
        assert_eq!(snap.repl_subscribers, 1);
        assert!(snap.repl_segments_shipped > 0);
        assert!(snap.repl_bytes_shipped > 0);
        // The ack arrives on the round after the apply; poll briefly.
        if snap.repl_acked_seq >= seq && snap.repl_lag_records == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "primary never saw the replica's ack");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Replica-side gauges: role 2, applied watermark, zero lag.
    let mut rc = KvClient::connect_secure(node.addr(), &verifier, 201).unwrap();
    let rsnap = rc.stats().unwrap();
    assert_eq!(rsnap.repl_role, 2, "a streaming replica reports role 2");
    assert_eq!(rsnap.repl_acked_generation, gen);
    assert!(rsnap.repl_acked_seq >= seq);
    assert_eq!(rsnap.repl_lag_records, 0, "caught-up replica has no lag");

    // Read scale-out: the same data serves from both nodes.
    for i in 0..50u32 {
        let key = format!("lag{i}");
        assert_eq!(rc.get(key.as_bytes()).unwrap().unwrap(), b"value");
        assert_eq!(client.get(key.as_bytes()).unwrap().unwrap(), b"value");
    }

    drop(client);
    drop(rc);
    node.shutdown();
    primary_server.shutdown();
    let _ = std::fs::remove_dir_all(&primary_wal);
    let _ = std::fs::remove_dir_all(&replica_wal);
}

// The read scale-out and failover gate.

const SCALE_SEED: u64 = 42;
const SCALE_KEYS: u64 = 4_000;
const SCALE_READERS: u64 = 4;
const SCALE_READS: u64 = 3_000;
/// Two replicas must add at least 0.8x the primary's read capacity.
const SCALE_OUT_GATE: f64 = 1.8;
const ACKED_WRITES: u64 = 500;

fn scale_value(id: u64) -> Vec<u8> {
    let mut v = format!("repl-val-{id}-").into_bytes();
    v.resize(128, b'x');
    v
}

/// Closed-loop random reads of preloaded keys from `SCALE_READERS`
/// threads against one node: Kop/s over the slowest thread's wall time.
fn read_kops(addr: SocketAddr, verifier: &AttestationVerifier) -> f64 {
    let readers: Vec<_> = (0..SCALE_READERS)
        .map(|r| {
            let verifier = verifier.clone();
            std::thread::spawn(move || {
                let mut client = KvClient::connect_secure(addr, &verifier, 1000 + r).unwrap();
                let mut rng = SplitMix64::new(SCALE_SEED ^ (r << 8));
                let started = Instant::now();
                for _ in 0..SCALE_READS {
                    let key = format!("user{:08}", rng.next_below(SCALE_KEYS));
                    assert!(client.get(key.as_bytes()).unwrap().is_some(), "{key} missing");
                }
                started.elapsed()
            })
        })
        .collect();
    let wall = readers.into_iter().map(|h| h.join().unwrap()).max().unwrap_or_default();
    (SCALE_READERS * SCALE_READS) as f64 / wall.as_secs_f64() / 1e3
}

/// Each node's read capacity is measured in isolation and the three
/// summed: a deployment puts each node on its own machine, and the test
/// host usually has fewer cores than nodes, where driving all three at
/// once would measure CPU contention instead of scale-out.
#[test]
#[ignore = "wall-clock; CI's replication-suite runs it in release"]
fn two_replicas_add_read_capacity_and_failover_loses_nothing() {
    let enclave = || EnclaveBuilder::new("bench-repl").seed(SCALE_SEED).epc_bytes(64 << 20).build();
    let config = || {
        let config = Config::shield_opt().buckets(1024).mac_hashes(64).with_shards(2);
        config.with_durability(DurabilityPolicy::EveryN(32))
    };
    let one_loop = || ServerConfig { event_loops: 1, secure: true, ..Default::default() };

    let primary_wal = scratch("scale-p");
    let primary_enclave = enclave();
    let primary = Arc::new(ShieldStore::new(Arc::clone(&primary_enclave), config()).unwrap());
    primary.attach_wal(&primary_wal).unwrap();
    let primary_server = Server::start(
        Arc::clone(&primary) as Arc<dyn shield_baseline::KvBackend>,
        Some(Arc::clone(&primary_enclave)),
        one_loop(),
    )
    .unwrap();
    let verifier = AttestationVerifier::for_enclave(&primary_enclave)
        .expect_measurement(*primary_enclave.measurement());

    let mut loader = KvClient::connect_secure(primary_server.addr(), &verifier, 999).unwrap();
    for id in 0..SCALE_KEYS {
        loader.set(format!("user{id:08}").as_bytes(), &scale_value(id)).unwrap();
    }
    loader.flush().unwrap().expect("primary has a WAL");
    drop(loader);
    let durable = primary.flush_wal().unwrap().expect("watermark");

    let replica_wals: Vec<PathBuf> = (0..2).map(|i| scratch(&format!("scale-r{i}"))).collect();
    let nodes: Vec<ReplicaNode> = (replica_wals.iter().enumerate())
        .map(|(i, wal_dir)| {
            let replica_enclave = enclave();
            let store = ShieldStore::new(Arc::clone(&replica_enclave), config()).unwrap();
            let replica = ReplicaConfig {
                primary_wal_dir: primary_wal.clone(),
                wal_dir: wal_dir.clone(),
                session_seed: 7000 + i as u64 * 100,
                ..Default::default()
            };
            let node = ReplicaNode::start(
                primary_server.addr(),
                &verifier,
                Arc::new(store),
                replica_enclave,
                one_loop(),
                replica,
            )
            .unwrap();
            wait_caught_up(&node.handle(), durable);
            node
        })
        .collect();

    let solo = read_kops(primary_server.addr(), &verifier);
    let replicated = solo + nodes.iter().map(|n| read_kops(n.addr(), &verifier)).sum::<f64>();

    // Acked writes, then the primary dies and the first replica takes over.
    let mut writer = KvClient::connect_secure(primary_server.addr(), &verifier, 2000).unwrap();
    for i in 0..ACKED_WRITES {
        writer.set(format!("f{i:05}").as_bytes(), &scale_value(i)).unwrap();
    }
    let (gen, seq) = writer.flush().unwrap().expect("watermark");
    let acked = Watermark::new(gen, seq);
    drop(writer);
    wait_caught_up(&nodes[0].handle(), acked);

    let mut rc = KvClient::connect_secure(nodes[0].addr(), &verifier, 2001).unwrap();
    primary_server.shutdown();
    let (gen, seq) = rc.promote().unwrap();
    rc.set(b"failover-probe", b"new-primary").unwrap();
    assert!(Watermark::new(gen, seq) >= acked, "promotion lost acked writes");
    let lost = (0..ACKED_WRITES)
        .filter(|&i| rc.get(format!("f{i:05}").as_bytes()).ok().flatten() != Some(scale_value(i)))
        .count();

    drop(rc);
    for node in nodes {
        node.shutdown();
    }
    for dir in replica_wals.iter().chain([&primary_wal]) {
        let _ = std::fs::remove_dir_all(dir);
    }
    assert_eq!(lost, 0, "failover lost {lost} of {ACKED_WRITES} acked writes");
    let scale_out = replicated / solo;
    assert!(
        scale_out >= SCALE_OUT_GATE,
        "primary + 2 replicas read {replicated:.1} Kop/s against the primary's {solo:.1}: \
         {scale_out:.2}x < {SCALE_OUT_GATE}x"
    );
}
