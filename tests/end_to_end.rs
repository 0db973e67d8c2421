//! Cross-crate integration tests: the full stack from workload generation
//! through the store, the network layer, and persistence.

use sgx_sim::attest::AttestationVerifier;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::EnclaveBuilder;
use shield_baseline::KvBackend;
use shield_net::client::KvClient;
use shield_net::server::{CrossingMode, Server, ServerConfig};
use shield_workload::{make_key, make_value, Generator, Op, Spec};
use shieldstore::model::Model;
use shieldstore::{Config, ShieldStore};
use std::sync::Arc;

fn store(buckets: usize, shards: usize, seed: u64) -> Arc<ShieldStore> {
    let enclave = EnclaveBuilder::new("e2e").epc_bytes(8 << 20).seed(seed).build();
    Arc::new(
        ShieldStore::new(
            enclave,
            Config::shield_opt().buckets(buckets).mac_hashes(buckets / 4).with_shards(shards),
        )
        .unwrap(),
    )
}

/// The store must agree with the reference model across a long, mixed,
/// workload-generated operation sequence.
#[test]
fn store_matches_reference_model_under_workload() {
    let store = store(512, 2, 1);
    let mut model = Model::default();
    let mut check = |op: shieldstore::Op<'_>, step: u64| {
        let got = store.execute(0, op).unwrap_or_else(|e| panic!("step {step}: {e}"));
        assert_eq!(Some(got), model.apply(0, op), "step {step}");
    };
    let mut generator = Generator::new(Spec::by_name("RD50_Z").unwrap(), 500, 7);

    for step in 0..5_000u64 {
        let op = generator.next_op();
        let (key, value) = (make_key(op.key_id(), 16), make_value(op.key_id(), step, 64));
        match op {
            Op::Get(_) => check(shieldstore::Op::Get(&key), step),
            _ => check(shieldstore::Op::set(&key, &value), step),
        }
        // Interleave deletes to exercise unlink paths.
        if step % 37 == 0 {
            check(shieldstore::Op::Delete(&make_key(generator.next_key(), 16)), step);
        }
    }
    model.check_store(&store).unwrap();
}

/// Snapshot mid-workload, keep mutating, restore, and verify the
/// snapshot reflects exactly the freeze point.
#[test]
fn snapshot_captures_consistent_point_in_time() {
    let dir = std::env::temp_dir().join(format!("ss-e2e-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("consistent.db");
    let ctr_path = dir.join("ctr");
    let _ = std::fs::remove_file(&ctr_path);
    let counter = PersistentCounter::open(&ctr_path).unwrap();

    let s = store(256, 2, 11);
    let mut frozen_state = Model::default();
    for i in 0..400u64 {
        let (key, value) = (make_key(i, 16), make_value(i, 0, 32));
        s.set(&key, &value).unwrap();
        frozen_state.apply(0, shieldstore::Op::set(&key, &value));
    }

    let job = s.snapshot_background(&snap, &counter).unwrap();
    // Mutations after the freeze must not appear in the snapshot.
    for i in 0..200u64 {
        s.set(&make_key(i, 16), b"post-freeze").unwrap();
    }
    for i in 400..450u64 {
        s.set(&make_key(i, 16), b"new-post-freeze").unwrap();
    }
    job.finish().unwrap();

    let enclave = EnclaveBuilder::new("e2e").epc_bytes(8 << 20).seed(11).build();
    let restored = ShieldStore::restore(
        enclave,
        Config::shield_opt().buckets(256).mac_hashes(64).with_shards(2),
        &snap,
        &counter,
    )
    .unwrap();
    frozen_state.check_store(&restored).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Networked end-to-end: attest, run a workload through TCP, verify
/// against the reference model.
#[test]
fn networked_workload_round_trip() {
    let enclave = EnclaveBuilder::new("e2e-net").epc_bytes(8 << 20).seed(2).build();
    let s = Arc::new(
        ShieldStore::new(
            Arc::clone(&enclave),
            Config::shield_opt().buckets(256).mac_hashes(64).with_shards(2),
        )
        .unwrap(),
    );
    let server = Server::start(
        Arc::clone(&s) as Arc<dyn KvBackend>,
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

    let mut client = KvClient::connect_secure(server.addr(), &verifier, 5).unwrap();
    let mut model = Model::default();
    let mut generator = Generator::new(Spec::by_name("RD50_U").unwrap(), 100, 3);
    for step in 0..1_000u64 {
        let op = generator.next_op();
        let (key, value) = (make_key(op.key_id(), 16), make_value(op.key_id(), step, 48));
        let op = match op {
            Op::Get(_) => shieldstore::Op::Get(&key),
            _ => shieldstore::Op::set(&key, &value),
        };
        assert_eq!(Some(client.execute(op).unwrap()), model.apply(0, op), "step {step}");
    }
    // The server-side store agrees with what the client built.
    model.check_store(&s).unwrap();
    drop(client);
    server.shutdown();
}

/// Batched operations spanning every shard agree with per-op results:
/// one multi_set, then a multi_get mixing hits and misses across shards.
#[test]
fn batched_ops_round_trip_across_shards() {
    let s = store(256, 4, 31);
    let items: Vec<(Vec<u8>, Vec<u8>)> =
        (0..200u64).map(|i| (make_key(i, 16), make_value(i, 3, 40))).collect();
    let item_refs: Vec<(&[u8], &[u8])> =
        items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    s.multi_set(&item_refs).unwrap();

    // Every shard served part of the batch.
    assert_eq!(s.len(), 200);
    let stats = s.stats();
    assert!(stats.batches >= 4, "4 shards must each see a sub-batch");

    // Interleave present and absent keys in one read batch.
    let mut query: Vec<Vec<u8>> = Vec::new();
    for i in 0..200u64 {
        query.push(make_key(i, 16));
        if i % 5 == 0 {
            query.push(make_key(10_000 + i, 16)); // never written
        }
    }
    let query_refs: Vec<&[u8]> = query.iter().map(|k| k.as_slice()).collect();
    let got = s.multi_get(&query_refs).unwrap();
    assert_eq!(got.len(), query.len());
    let mut expect_iter = 0u64;
    for (key, result) in query.iter().zip(&got) {
        if key == &make_key(expect_iter, 16) {
            assert_eq!(result.as_ref().unwrap(), &make_value(expect_iter, 3, 40));
            expect_iter += 1;
        } else {
            assert!(result.is_none(), "absent key must miss");
        }
    }
}

/// MultiGet/MultiSet over TCP: one frame per batch, mixed hits and
/// misses, agreeing with per-op reads of the same store.
#[test]
fn networked_batched_round_trip() {
    let enclave = EnclaveBuilder::new("e2e-batch").epc_bytes(8 << 20).seed(8).build();
    let s = Arc::new(
        ShieldStore::new(
            Arc::clone(&enclave),
            Config::shield_opt().buckets(256).mac_hashes(64).with_shards(4),
        )
        .unwrap(),
    );
    let server = Server::start(
        Arc::clone(&s) as Arc<dyn KvBackend>,
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
    let mut client = KvClient::connect_secure(server.addr(), &verifier, 13).unwrap();

    let items: Vec<(Vec<u8>, Vec<u8>)> =
        (0..100u64).map(|i| (make_key(i, 16), make_value(i, 7, 32))).collect();
    client.multi_set(&items).unwrap();

    let keys: Vec<Vec<u8>> = vec![
        make_key(0, 16),
        make_key(9_999, 16), // miss
        make_key(50, 16),
        make_key(99, 16),
        make_key(8_888, 16), // miss
    ];
    let got = client.multi_get(&keys).unwrap();
    assert_eq!(got.len(), 5);
    assert_eq!(got[0].as_ref().unwrap(), &make_value(0, 7, 32));
    assert!(got[1].is_none());
    assert_eq!(got[2].as_ref().unwrap(), &make_value(50, 7, 32));
    assert_eq!(got[3].as_ref().unwrap(), &make_value(99, 7, 32));
    assert!(got[4].is_none());

    // 105 operations crossed the wire in exactly two frames.
    assert_eq!(server.requests_served(), 2);

    // Per-op reads of the server-side store agree.
    for (key, value) in &items {
        assert_eq!(&ShieldStore::get(&s, key).unwrap(), value);
    }
    drop(client);
    server.shutdown();
}

/// Server-side increments are atomic relative to concurrent clients.
#[test]
fn concurrent_clients_increment_once_each() {
    let enclave = EnclaveBuilder::new("e2e-incr").epc_bytes(4 << 20).seed(4).build();
    let s = Arc::new(
        ShieldStore::new(Arc::clone(&enclave), Config::shield_opt().buckets(64).mac_hashes(16))
            .unwrap(),
    );
    let server = Server::start(
        s,
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
    for user in 0..8u64 {
        let verifier = verifier.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = KvClient::connect_secure(addr, &verifier, user).unwrap();
            for _ in 0..50 {
                client.increment(b"shared-counter", 1).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut client = KvClient::connect_secure(addr, &verifier, 999).unwrap();
    assert_eq!(client.increment(b"shared-counter", 0).unwrap(), 400);
    drop(client);
    server.shutdown();
}

/// The full lifecycle: load, snapshot, crash, restore, keep serving, all
/// with the simulated SGX cost model active.
#[test]
fn full_lifecycle_load_snapshot_restore_serve() {
    let dir = std::env::temp_dir().join(format!("ss-e2e-life-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("life.db");
    let ctr_path = dir.join("ctr");
    let _ = std::fs::remove_file(&ctr_path);
    let counter = PersistentCounter::open(&ctr_path).unwrap();

    {
        let s = store(512, 4, 21);
        for i in 0..2_000u64 {
            s.set(&make_key(i, 16), &make_value(i, 0, 128)).unwrap();
        }
        s.append(&make_key(0, 16), b"-tail").unwrap();
        s.snapshot_blocking(&snap, &counter).unwrap();
    }

    let enclave = EnclaveBuilder::new("e2e").epc_bytes(8 << 20).seed(21).build();
    let restored = ShieldStore::restore(
        enclave,
        Config::shield_opt().buckets(512).mac_hashes(128).with_shards(4),
        &snap,
        &counter,
    )
    .unwrap();
    assert_eq!(restored.len(), 2_000);

    let mut expect = make_value(0, 0, 128);
    expect.extend_from_slice(b"-tail");
    assert_eq!(restored.get(&make_key(0, 16)).unwrap(), expect);

    // The restored store keeps serving normally.
    restored.set(b"after-restore", b"works").unwrap();
    assert_eq!(restored.get(b"after-restore").unwrap(), b"works");
    restored.delete(&make_key(1, 16)).unwrap();
    assert_eq!(restored.len(), 2_000);
    std::fs::remove_dir_all(&dir).ok();
}
