//! Wire-layer attacks: a deterministic byte-level fault proxy sits
//! between a real client and a real server, garbling, truncating,
//! duplicating, and dropping frames. The client survives by failing
//! closed — any receive failure poisons the session and forces a
//! reconnect — and the reference model checks that no fault ever turns
//! into silently wrong data.

use crate::{Rig, Violation};
use sgx_sim::attest::AttestationVerifier;
use shield_net::client::KvClient;
use shield_net::proxy::{FaultPlan, FaultProxy};
use shield_net::server::{CrossingMode, Server, ServerConfig};
use shield_net::NetError;
use shieldstore::model::Model;
use shieldstore::{Op, Refusal, ShieldStore};
use std::sync::Arc;
use std::time::Duration;

/// The wire phase's seed salt.
pub const SALT: u64 = 0x3131_c0de_fa17_0000;
const NUM_KEYS: u64 = 24;
const OPS: u64 = 14;
const READ_TIMEOUT: Duration = Duration::from_millis(150);

fn key_bytes(id: u64) -> Vec<u8> {
    shield_workload::make_key(id, 12)
}

fn value_bytes(id: u64, step: u64) -> Vec<u8> {
    shield_workload::make_value(id, step, 20)
}

/// Runs the proxy-mediated wire phase. The proxy's injected frame
/// faults count as `attacks`; an op that fails closed forces a reconnect.
pub fn run(rig: &mut Rig) -> Result<(), Violation> {
    let (seed, enclave) = (rig.seed, rig.enclave());
    let config = crate::rig::config().with_shards(1);
    let store =
        Arc::new(ShieldStore::new(Arc::clone(&enclave), config).expect("store construction"));
    // One event loop: the engine then executes an old connection's
    // in-flight request before a new connection's (strict global FIFO),
    // so the model's sequential view stays valid across reconnects.
    // Short frame/drain deadlines keep seeds fast when the proxy's
    // `Stall` fault leaves a half-written frame on the server.
    let backend: Arc<dyn shield_baseline::KvBackend> = store.clone();
    let server = Server::start(
        backend,
        Some(Arc::clone(&enclave)),
        ServerConfig {
            event_loops: 1,
            crossing: CrossingMode::HotCalls,
            secure: true,
            frame_timeout: Duration::from_millis(500),
            drain_deadline: Duration::from_millis(500),
            ..Default::default()
        },
    )
    .expect("server start");
    let verifier = AttestationVerifier::for_enclave(&enclave);
    // skip_frames=1 keeps the one-frame-each-way handshake clean; every
    // frame after that is fair game, one fault per `period` frames.
    let proxy = FaultProxy::start(server.addr(), FaultPlan { seed, skip_frames: 1, period: 3 })
        .expect("proxy start");

    let mut model = Model::default();
    let (rng, tally) = (&mut rig.rng, &mut rig.tally);
    let mut conn_seq = 0u64;
    let mut client = connect(&proxy, &verifier, seed, &mut conn_seq);

    // Sends `op` and judges the answer. A failure fails closed: the
    // session is poisoned, so reconnect — and unless the server refused
    // it, the op may or may not have reached the store before the fault
    // hit.
    let mut exchange = |client: &mut KvClient, op: Op<'_>| -> Result<(), Violation> {
        tally.add("ops", 1);
        let reply = client.execute(op).map_err(|e| match e {
            NetError::Refused(refusal) => refusal,
            _ => Refusal::Failed,
        });
        model
            .observe(0, op, reply.as_ref().map_err(|r| *r))
            .map_err(|detail| Violation { context: format!("wire {op:?}"), detail })?;
        if reply.is_err() {
            tally.add("failed_closed", 1);
            tally.add("reconnects", 1);
            *client = connect(&proxy, &verifier, seed, &mut conn_seq);
        }
        Ok(())
    };
    let result = (|| {
        for step in 0..OPS {
            let id = rng.next_u64() % NUM_KEYS;
            let (key, value) = (key_bytes(id), value_bytes(id, step));
            let op = match rng.next_below(3) {
                0 => Op::Get(&key),
                1 => Op::set(&key, &value),
                _ => Op::Delete(&key),
            };
            exchange(&mut client, op)?;
        }

        // Batched ops through the same faulty link.
        for round in 0..3u64 {
            let n = 2 + rng.next_below(4);
            let reads = rng.next_below(2) == 0;
            let items: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
                .map(|i| {
                    let id = rng.next_u64() % NUM_KEYS;
                    (key_bytes(id), value_bytes(id, 1000 + round * 10 + i))
                })
                .collect();
            let keys: Vec<&[u8]> = items.iter().map(|(key, _)| key.as_slice()).collect();
            let pairs: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
            let op = match reads {
                true => Op::MultiGet(&keys),
                false => Op::MultiSet { items: &pairs, expires_at: 0 },
            };
            exchange(&mut client, op)?;
        }
        Ok(())
    })();

    rig.tally.add("attacks", proxy.faults_injected());
    drop(client);
    proxy.shutdown();
    server.shutdown();
    // With every worker joined, the store is quiescent: its counters must
    // be self-consistent no matter where the injected faults cut frames.
    result.and_then(|()| crate::engine::check_stats(&store, "wire phase stats"))
}

fn connect(
    proxy: &FaultProxy,
    verifier: &AttestationVerifier,
    seed: u64,
    conn_seq: &mut u64,
) -> KvClient {
    *conn_seq += 1;
    // The handshake itself crosses the proxy but is protected by
    // skip_frames; retry a few times anyway in case a previous
    // connection's teardown races the accept loop.
    for attempt in 0..8u64 {
        match KvClient::connect_secure(proxy.addr(), verifier, seed ^ (*conn_seq << 32) ^ attempt) {
            Ok(mut c) => {
                c.set_read_timeout(Some(READ_TIMEOUT)).expect("set timeout");
                return c;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    panic!("could not reconnect through the fault proxy");
}

// ---------------------------------------------------------------------
// Overload-and-tamper phase: saturate a small-capacity server past its
// connection cap while corrupting one partition, and check graceful
// degradation — untampered partitions keep answering correctly,
// tampered partitions answer `Quarantined`, shed requests answer `Busy`
// (never a wrong value), and shutdown drains within its deadline even
// with a stalled half-frame connection.
// ---------------------------------------------------------------------

const OVERLOAD_CLIENTS: usize = 3;
const OVERLOAD_ROUNDS: u64 = 6;

fn violation(context: &str, detail: String) -> Violation {
    Violation { context: context.into(), detail }
}

/// Connects through the real listener with a few retries, so a prior
/// connection's asynchronous teardown cannot race the accept cap.
fn connect_direct(
    addr: std::net::SocketAddr,
    verifier: &AttestationVerifier,
    seed: u64,
) -> Result<KvClient, shield_net::NetError> {
    let mut last = None;
    for attempt in 0..100u64 {
        match KvClient::connect_secure(addr, verifier, seed ^ (attempt << 40)) {
            Ok(mut c) => {
                c.set_read_timeout(Some(Duration::from_secs(2))).expect("set timeout");
                return Ok(c);
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    Err(last.expect("at least one attempt"))
}

/// Runs the overload-and-tamper phase. It counts `ops` attempted, `busy`
/// sheds, `quarantined` answers, connections `refused` at the cap, the
/// self-healing client's `reconnects`, and `drain_ms`, the wall-clock
/// milliseconds `shutdown()` took with a stalled half-frame connection.
pub fn overload(rig: &mut Rig) -> Result<(), Violation> {
    let (seed, enclave, tally) = (rig.seed, rig.enclave(), &mut rig.tally);
    let config = crate::rig::config().with_quarantine();
    let store =
        Arc::new(ShieldStore::new(Arc::clone(&enclave), config).expect("store construction"));
    let backend: Arc<dyn shield_baseline::KvBackend> = store.clone();
    let server = Server::start(
        Arc::clone(&backend),
        Some(Arc::clone(&enclave)),
        ServerConfig {
            event_loops: 2,
            crossing: CrossingMode::HotCalls,
            secure: true,
            max_connections: OVERLOAD_CLIENTS + 1,
            max_in_flight: 2,
            frame_timeout: Duration::from_secs(30),
            drain_deadline: Duration::from_millis(500),
            ..Default::default()
        },
    )
    .expect("server start");
    let verifier = AttestationVerifier::for_enclave(&enclave);

    // Populate, then corrupt one entry in untrusted memory.
    let keys: Vec<Vec<u8>> = (0..NUM_KEYS).map(key_bytes).collect();
    let mut client = connect_direct(server.addr(), &verifier, seed).expect("populate connect");
    for (i, key) in keys.iter().enumerate() {
        client.set(key, &value_bytes(i as u64, 0)).expect("populate set");
        tally.add("ops", 1);
    }
    assert!(store.tamper_any_entry_byte(seed), "tamper must land");

    // First sweep trips the violation; afterwards the store must name
    // exactly one quarantined bucket set.
    for key in &keys {
        tally.add("ops", 1);
        match client.get(key) {
            Ok(Some(_)) | Err(_) => {}
            Ok(None) => {
                return Err(violation(
                    "overload first sweep",
                    "a populated key vanished without an error".into(),
                ));
            }
        }
    }
    let q = store.quarantine_report();
    if q.is_clean() || q.quarantined_sets() != 1 {
        return Err(violation(
            "overload quarantine report",
            format!("expected exactly one quarantined set, got {q:?}"),
        ));
    }
    let poisoned = |key: &[u8]| -> bool {
        let (shard, set) = store.key_partition(key);
        q.shards[shard].whole || q.shards[shard].quarantined_sets.contains(&set)
    };

    // Second sweep: tampered partition answers `Quarantined`, every
    // other key still serves its exact value.
    for (i, key) in keys.iter().enumerate() {
        tally.add("ops", 1);
        match client.get(key) {
            Ok(Some(v)) if !poisoned(key) && v == value_bytes(i as u64, 0) => {}
            Err(NetError::Refused(Refusal::Quarantined)) if poisoned(key) => {
                tally.add("quarantined", 1)
            }
            other => {
                return Err(violation(
                    "overload partition sweep",
                    format!("key {i}: poisoned={} but outcome {other:?}", poisoned(key)),
                ));
            }
        }
    }
    if tally.get("quarantined") == 0 {
        return Err(violation(
            "overload partition sweep",
            "no key mapped to the quarantined partition".into(),
        ));
    }
    drop(client);

    // Concurrency rounds: barrier-synchronized clients hammer the
    // healthy keys past the in-flight cap. Every reply is either the
    // exact stored value or an honest `Busy` — never a wrong value.
    let healthy: Arc<Vec<(Vec<u8>, Vec<u8>)>> = Arc::new(
        keys.iter()
            .enumerate()
            .filter(|(_, k)| !poisoned(k))
            .map(|(i, k)| (k.clone(), value_bytes(i as u64, 0)))
            .collect(),
    );
    let barrier = Arc::new(std::sync::Barrier::new(OVERLOAD_CLIENTS));
    let mut handles = Vec::new();
    for t in 0..OVERLOAD_CLIENTS {
        let healthy = Arc::clone(&healthy);
        let barrier = Arc::clone(&barrier);
        let verifier = verifier.clone();
        let addr = server.addr();
        handles.push(std::thread::spawn(move || -> Result<(u64, u64), Violation> {
            let mut client = connect_direct(addr, &verifier, seed ^ ((t as u64 + 2) << 48))
                .expect("overload connect");
            let (mut ops, mut busy) = (0u64, 0u64);
            for round in 0..OVERLOAD_ROUNDS {
                barrier.wait();
                for (i, (key, want)) in healthy.iter().enumerate() {
                    if !(i as u64 + round + t as u64).is_multiple_of(3) {
                        continue;
                    }
                    ops += 1;
                    match client.get(key) {
                        Ok(Some(v)) if &v == want => {}
                        Err(NetError::Refused(Refusal::Busy)) => busy += 1,
                        other => {
                            return Err(violation(
                                "overload concurrency",
                                format!("client {t} round {round}: {other:?}"),
                            ));
                        }
                    }
                }
            }
            Ok((ops, busy))
        }));
    }
    for handle in handles {
        let (ops, busy) = handle.join().expect("overload client thread")?;
        tally.add("ops", ops);
        tally.add("busy", busy);
    }

    // Connection cap: hold the cap's worth of sessions, then one more
    // connect must be refused at accept.
    let mut held = Vec::new();
    for c in 0..OVERLOAD_CLIENTS + 1 {
        let mut client = connect_direct(server.addr(), &verifier, seed ^ ((c as u64 + 9) << 44))
            .expect("cap-fill connect");
        client.ping().expect("cap-fill ping");
        held.push(client);
    }
    if KvClient::connect_secure(server.addr(), &verifier, seed ^ (0xcab << 44)).is_ok() {
        return Err(violation(
            "overload connection cap",
            "a connection past the cap was admitted".into(),
        ));
    }
    tally.add("refused", server.refused_connections());
    if tally.get("refused") == 0 {
        return Err(violation(
            "overload connection cap",
            "refused connection was not counted".into(),
        ));
    }
    // The held sessions are unaffected by the refusal.
    for client in &mut held {
        tally.add("ops", 1);
        client.ping().expect("held session ping");
    }
    drop(held);

    // Deterministic worker-side shedding: a second door onto the same
    // store with a zero request deadline sheds everything it admits.
    let shed_door = Server::start(
        backend,
        Some(Arc::clone(&enclave)),
        ServerConfig {
            event_loops: 1,
            crossing: CrossingMode::HotCalls,
            secure: true,
            request_deadline: Duration::ZERO,
            ..Default::default()
        },
    )
    .expect("shed door start");
    let mut shed_client =
        connect_direct(shed_door.addr(), &verifier, seed ^ (0x5ed << 44)).expect("shed connect");
    for _ in 0..4 {
        tally.add("ops", 1);
        match shed_client.get(&keys[0]) {
            Err(NetError::Refused(Refusal::Busy)) => tally.add("busy", 1),
            other => {
                return Err(violation(
                    "overload shed door",
                    format!("expected Busy from the zero-deadline door, got {other:?}"),
                ));
            }
        }
    }
    drop(shed_client);
    shed_door.shutdown();

    // Self-healing client through the byte-fault proxy: authenticated
    // replies are correct by construction; the RetryClient must also
    // stay *live*, transparently reconnecting poisoned sessions.
    let proxy = FaultProxy::start(server.addr(), FaultPlan { seed, skip_frames: 1, period: 3 })
        .expect("proxy start");
    let mut healer = shield_net::client::RetryClient::new(
        shield_net::client::Connector::Secure {
            addr: proxy.addr(),
            verifier: verifier.clone(),
            seed: seed ^ (0x4ea1 << 40),
        },
        shield_net::client::RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(10),
            seed,
            read_timeout: Some(READ_TIMEOUT),
        },
    );
    let mut correct_gets = 0u64;
    for attempt in 0..200u64 {
        let (key, want) = &healthy[(attempt % healthy.len() as u64) as usize];
        tally.add("ops", 1);
        match healer.execute(shieldstore::Op::Get(key)).map(shieldstore::Reply::value) {
            Ok(Some(v)) if &v == want => correct_gets += 1,
            Ok(other) => {
                return Err(violation(
                    "overload self-healing client",
                    format!("authenticated reply with a wrong value: {other:?}"),
                ));
            }
            // The retry budget can run dry under a dense fault schedule;
            // the next operation starts a fresh session.
            Err(_) => {}
        }
        if correct_gets >= 10 && healer.reconnects() >= 1 {
            break;
        }
    }
    let reconnects = healer.reconnects();
    tally.add("reconnects", reconnects);
    if correct_gets < 10 || reconnects == 0 {
        return Err(violation(
            "overload self-healing client",
            format!("wanted 10 correct gets and ≥1 reconnect, got {correct_gets} and {reconnects}"),
        ));
    }
    drop(healer);
    proxy.shutdown();

    // Drain: a half-frame slow-loris connection must not stall
    // `shutdown()` past the drain deadline.
    let mut stalled = std::net::TcpStream::connect(server.addr()).expect("slow-loris connect");
    std::io::Write::write_all(&mut stalled, &[0x07, 0x00]).expect("half frame");
    let started = std::time::Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    tally.add("drain_ms", elapsed.as_millis() as u64);
    drop(stalled);
    if elapsed > Duration::from_secs(5) {
        return Err(violation(
            "overload drain",
            format!("shutdown took {elapsed:?} with a stalled connection"),
        ));
    }

    // Quiescent store: counters self-consistent, quarantine gauges live.
    crate::engine::check_stats(&store, "overload phase stats")?;
    let snap = store.snapshot();
    if snap.quarantined_sets != 1 || snap.ops.quarantine_rejections == 0 {
        return Err(violation(
            "overload gauges",
            format!(
                "expected quarantine gauges in the snapshot, got sets={} rejections={}",
                snap.quarantined_sets, snap.ops.quarantine_rejections
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overload_phase_runs_clean_on_a_couple_seeds() {
        for seed in 0..2 {
            let tally = crate::run_phase("overload", seed, 0, overload).unwrap_or_else(|v| {
                panic!("seed {seed}: overload-phase violation: {v}");
            });
            assert!(tally.get("busy") >= 4, "seed {seed}: shed door must shed");
            assert!(tally.get("quarantined") >= 1, "seed {seed}: quarantine must land");
            assert!(tally.get("refused") >= 1, "seed {seed}: cap must refuse");
            assert!(tally.get("reconnects") >= 1, "seed {seed}: healer must reconnect");
        }
    }

    #[test]
    fn wire_phase_runs_clean_on_a_few_seeds() {
        let mut total_faults = 0;
        for seed in 0..4 {
            let tally = crate::run_phase("wire", seed, SALT, run).unwrap_or_else(|v| {
                panic!("seed {seed}: wire-phase violation: {v}");
            });
            total_faults += tally.get("attacks");
        }
        assert!(total_faults > 0, "the proxy never injected a fault");
    }
}
