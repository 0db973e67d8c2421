//! Live-server stats tests: server-side counters must agree exactly with
//! a client-side shadow count over a mixed workload (every reply checked
//! against the reference model, `shieldstore::model`), and snapshots taken
//! while other clients hammer the store must stay monotone and
//! self-consistent.
//!
//! The workload size scales with `STATS_SMOKE_OPS` (default 10,000); CI's
//! stats-smoke job runs the release build with 100,000.

use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use shield_net::client::KvClient;
use shield_net::server::{CrossingMode, Server, ServerConfig};
use shieldstore::model::Model;
use shieldstore::Op;
use std::sync::Arc;

fn start_server(name: &str, workers: usize) -> (Arc<Enclave>, Server) {
    let enclave = EnclaveBuilder::new(name).epc_bytes(16 << 20).build();
    let store = Arc::new(
        shieldstore::ShieldStore::new(
            Arc::clone(&enclave),
            shieldstore::Config::shield_opt().buckets(512).mac_hashes(64).with_shards(4),
        )
        .unwrap(),
    );
    let server = Server::start(
        store,
        Some(Arc::clone(&enclave)),
        ServerConfig {
            event_loops: workers,
            crossing: CrossingMode::HotCalls,
            secure: true,
            ..Default::default()
        },
    )
    .unwrap();
    (enclave, server)
}

fn connect(enclave: &Arc<Enclave>, server: &Server, session: u64) -> KvClient {
    let verifier =
        AttestationVerifier::for_enclave(enclave).expect_measurement(*enclave.measurement());
    KvClient::connect_secure(server.addr(), &verifier, session).unwrap()
}

fn smoke_ops() -> u64 {
    std::env::var("STATS_SMOKE_OPS").ok().and_then(|v| v.parse().ok()).unwrap_or(10_000)
}

/// Deterministic splitmix64 stream, so the workload is reproducible.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Client-side shadow of every counter the client can predict exactly.
#[derive(Default)]
struct Shadow {
    gets: u64,
    sets: u64,
    deletes: u64,
    hits: u64,
    misses: u64,
    batch_ops: u64,
    batch_calls: u64,
    single_gets: u64,
    single_sets: u64,
}

#[test]
fn stats_totals_match_shadow_count() {
    let total_ops = smoke_ops();
    let (enclave, server) = start_server("stats-shadow", 2);
    let mut client = connect(&enclave, &server, 11);
    let mut rng = Rng(0x5eed);
    let mut shadow = Shadow::default();
    let mut model = Model::default();
    let mut exec = |client: &mut KvClient, op: Op<'_>| {
        let reply = client.execute(op).unwrap();
        assert_eq!(Some(&reply), model.apply(0, op).as_ref(), "model diverged on {op:?}");
        reply
    };

    let mut issued = 0u64;
    while issued < total_ops {
        let roll = rng.next() % 100;
        let key = format!("k{}", rng.next() % 512).into_bytes();
        if roll < 40 {
            // Single set.
            let value = format!("v{issued}").into_bytes();
            exec(&mut client, Op::set(&key, &value));
            shadow.sets += 1;
            shadow.single_sets += 1;
            issued += 1;
        } else if roll < 80 {
            // Single get: a hit or a miss, as the model says.
            let hit = exec(&mut client, Op::Get(&key)).value().is_some();
            shadow.gets += 1;
            shadow.single_gets += 1;
            if hit {
                shadow.hits += 1;
            } else {
                shadow.misses += 1;
            }
            issued += 1;
        } else if roll < 90 {
            // Single delete.
            let deleted = exec(&mut client, Op::Delete(&key)).deleted();
            shadow.deletes += 1;
            if deleted {
                shadow.hits += 1;
            } else {
                shadow.misses += 1;
            }
            issued += 1;
        } else if roll < 95 {
            // Batched get of 8 keys (some present, some absent).
            let keys: Vec<Vec<u8>> =
                (0..8).map(|_| format!("k{}", rng.next() % 768).into_bytes()).collect();
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            for got in exec(&mut client, Op::MultiGet(&refs)).values() {
                shadow.gets += 1;
                shadow.batch_ops += 1;
                if got.is_some() {
                    shadow.hits += 1;
                } else {
                    shadow.misses += 1;
                }
            }
            shadow.batch_calls += 1;
            issued += keys.len() as u64;
        } else {
            // Batched set of 8 items.
            let items: Vec<(Vec<u8>, Vec<u8>)> = (0..8)
                .map(|j| {
                    (
                        format!("k{}", rng.next() % 512).into_bytes(),
                        format!("b{issued}.{j}").into_bytes(),
                    )
                })
                .collect();
            let pairs: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
            exec(&mut client, Op::MultiSet { items: &pairs, expires_at: 0 });
            shadow.sets += 8;
            shadow.batch_ops += 8;
            shadow.batch_calls += 1;
            issued += items.len() as u64;
        }
    }

    let snap = client.stats().unwrap();
    snap.check_consistent().expect("live snapshot is self-consistent");

    // Exact agreement between server counters and the shadow count.
    assert_eq!(snap.ops.gets, shadow.gets, "gets");
    assert_eq!(snap.ops.sets, shadow.sets, "sets");
    assert_eq!(snap.ops.deletes, shadow.deletes, "deletes");
    assert_eq!(snap.ops.hits, shadow.hits, "hits");
    assert_eq!(snap.ops.misses, shadow.misses, "misses");
    assert_eq!(snap.ops.batch_ops, shadow.batch_ops, "batch_ops");

    // Histogram sample counts line up with the per-call breakdown. A
    // client batch fans out to one shard-level batch per shard touched.
    assert_eq!(snap.hists.get.count(), shadow.single_gets, "get samples");
    assert_eq!(snap.hists.set.count(), shadow.single_sets, "set samples");
    assert_eq!(snap.hists.delete.count(), shadow.deletes, "delete samples");
    assert!(snap.hists.batch.count() >= shadow.batch_calls, "batch samples");
    assert!(snap.hists.batch.count() <= shadow.batch_ops, "batch fan-out bound");

    // Latency quantiles are populated and ordered.
    for (name, h) in snap.hists.iter() {
        if h.count() > 0 {
            assert!(h.p50() <= h.p95(), "{name}: p50 <= p95");
            assert!(h.p95() <= h.p99(), "{name}: p95 <= p99");
            assert!(h.p99() <= h.max_ns(), "{name}: p99 <= max");
            assert!(h.max_ns() > 0, "{name}: nonzero max");
        }
    }

    // The server holds exactly the model, `snap.entries` of them (read
    // back after the counters were compared, since the reads count too).
    model.check_reads(snap.entries as usize, |_, op| client.execute(op)).unwrap();

    drop(client);
    server.shutdown();
}

#[test]
fn stats_poller_sees_monotone_consistent_snapshots() {
    let (enclave, server) = start_server("stats-poll", 3);
    let hammer_threads = 4usize;
    let ops_per_thread = (smoke_ops() / hammer_threads as u64 / 4).max(200);

    let mut handles = Vec::new();
    for t in 0..hammer_threads {
        let enclave = Arc::clone(&enclave);
        let addr_client = connect(&enclave, &server, 100 + t as u64);
        handles.push(std::thread::spawn(move || {
            let mut client = addr_client;
            let mut rng = Rng(t as u64);
            for i in 0..ops_per_thread {
                let key = format!("t{t}.k{}", rng.next() % 64).into_bytes();
                match rng.next() % 4 {
                    0 => client.set(&key, format!("v{i}").as_bytes()).unwrap(),
                    1 => {
                        let _ = client.get(&key).unwrap();
                    }
                    2 => {
                        let _ = client.delete(&key).unwrap();
                    }
                    _ => {
                        let keys: Vec<Vec<u8>> =
                            (0..4).map(|j| format!("t{t}.k{j}").into_bytes()).collect();
                        let _ = client.multi_get(&keys).unwrap();
                    }
                }
            }
        }));
    }

    // Poll stats while the hammer threads run: every snapshot must be
    // internally consistent, and every monotone counter must be
    // non-decreasing across successive snapshots.
    let mut poller = connect(&enclave, &server, 999);
    let mut prev: Option<Vec<(&'static str, u64)>> = None;
    for round in 0..40 {
        let snap = poller.stats().unwrap();
        snap.check_consistent().unwrap_or_else(|e| panic!("round {round}: {e}"));
        let counters = snap.monotone_counters();
        if let Some(prev) = &prev {
            for ((name, before), (name2, after)) in prev.iter().zip(&counters) {
                assert_eq!(name, name2, "counter order is stable");
                assert!(
                    after >= before,
                    "round {round}: counter {name} went backwards ({before} -> {after})"
                );
            }
        }
        prev = Some(counters);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    for h in handles {
        h.join().expect("hammer thread");
    }

    // After all writers stop, the final snapshot accounts for every op.
    let snap = poller.stats().unwrap();
    snap.check_consistent().expect("final snapshot");
    let expected_min = hammer_threads as u64 * ops_per_thread;
    assert!(
        snap.ops.total_ops() >= expected_min,
        "total_ops {} < issued {expected_min}",
        snap.ops.total_ops()
    );

    drop(poller);
    server.shutdown();
}
