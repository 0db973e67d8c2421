//! Scrub-and-repair end to end over the network: a primary whose disk
//! rots a sealed WAL segment detects it with the background scrubber,
//! fails writes closed (`StorageFailed` on the wire) while reads keep
//! serving, re-fetches the damaged generation's verified frames from a
//! journaling replica over the attested replication session, and
//! resumes service after the chain-checked swap-in.

use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use shield_net::client::{Connector, RetryClient, RetryPolicy};
use shield_net::repl::{repair_segment_from_peer, ReplicaConfig, ReplicaNode};
use shield_net::{CrossingMode, KvClient, NetError, Server, ServerConfig};
use shieldstore::{Config, DurabilityPolicy, Op, Refusal, Reply, ShieldStore, Watermark};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn enclave() -> Arc<Enclave> {
    EnclaveBuilder::new("scrub-e2e").seed(9).epc_bytes(8 << 20).build()
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
    let dir = std::env::temp_dir().join(format!("ss-net-scrub-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn segment_rot_detected_quarantined_and_repaired_from_replica() {
    let primary_wal = scratch("repair-p");
    let replica_wal = scratch("repair-r");
    let journal_dir = scratch("repair-j");

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

    // A journaling replica: every verified frame is cached for repair.
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
            journal_dir: Some(journal_dir.clone()),
            ..Default::default()
        },
    )
    .unwrap();
    let handle = node.handle();

    let mut client = KvClient::connect_secure(primary_server.addr(), &verifier, 300).unwrap();
    for i in 0..150u32 {
        client.set(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    let (gen, seq) = client.flush().unwrap().expect("primary has a WAL");
    let acked = Watermark::new(gen, seq);

    // Wait until the replica journaled everything acked.
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.watermark() < acked {
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Rot one byte of the sealed segment on the primary's disk.
    let log = primary_wal.join(format!("wal-{gen}.log"));
    let mut bytes = std::fs::read(&log).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&log, &bytes).unwrap();

    // The scrubber finds it within one pass.
    let mut corrupt_gen = None;
    for _ in 0..10_000 {
        let tick = primary.scrub_tick(1 << 16).unwrap();
        if let Some(g) = tick.corrupt_generation {
            corrupt_gen = Some(g);
            break;
        }
        if tick.pass_completed {
            break;
        }
    }
    assert_eq!(corrupt_gen, Some(gen), "scrub missed the rotted segment");

    // Quarantined: writes answer StorageFailed on the wire, reads serve.
    match client.set(b"while-bad", b"x") {
        Err(NetError::Refused(Refusal::StorageFailed)) => {}
        other => panic!("expected StorageFailed over the wire, got {other:?}"),
    }
    assert_eq!(client.get(b"k000").unwrap().unwrap(), b"v0");

    // The retry layer surfaces the refusal immediately: no backoff
    // retries, no session teardown.
    let mut rc = RetryClient::new(
        Connector::Secure { addr: primary_server.addr(), verifier: verifier.clone(), seed: 301 },
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(50),
            ..Default::default()
        },
    );
    let started = Instant::now();
    match rc.execute(Op::set(b"retry-me", b"x")) {
        Err(NetError::Refused(Refusal::StorageFailed)) => {}
        other => panic!("retry layer must surface StorageFailed, got {other:?}"),
    }
    assert_eq!(rc.retries(), 0, "StorageFailed must not burn retries");
    assert!(started.elapsed() < Duration::from_millis(40), "StorageFailed must not back off");
    let read = rc.execute(Op::Get(b"k001")).unwrap();
    assert_eq!(read, Reply::Value(Some(b"v1".to_vec())), "session must survive the refusal");
    assert_eq!(rc.reconnects(), 0, "StorageFailed must not drop the session");

    // Repair: pull the generation's verified frames from the replica's
    // journal over the attested session and swap them in.
    let mut peer = KvClient::connect_secure(node.addr(), &verifier, 302).unwrap();
    let fetched = repair_segment_from_peer(&mut peer, &primary, gen, 1 << 14).unwrap();
    assert!(fetched >= 150, "repair fetched only {fetched} frames");
    assert!(primary.snapshot().scrub_repaired >= 1);

    // Service resumes; the repaired node still replicates downstream.
    client.set(b"after-repair", b"back").unwrap();
    let (g2, s2) = client.flush().unwrap().expect("primary has a WAL");
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.watermark() < Watermark::new(g2, s2) {
        assert!(Instant::now() < deadline, "replica stalled after the repair");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(
        replica_store.get(b"after-repair").unwrap(),
        b"back",
        "post-repair write must reach the replica"
    );

    node.shutdown();
    primary_server.shutdown();
    for d in [primary_wal, replica_wal, journal_dir] {
        std::fs::remove_dir_all(&d).ok();
    }
}
