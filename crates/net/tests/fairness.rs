//! Deterministic two-tenant fairness regression.
//!
//! A discrete-event simulation drives [`FairAdmission`] on a *virtual*
//! timeline (`try_admit_at` with a caller-supplied clock), so the test
//! is a pure function of its parameters — no sleeps, no wall-clock
//! sensitivity, no flakiness on loaded CI machines.
//!
//! Model: closed-loop clients per tenant. An admitted request holds a
//! slot for `SERVICE_TICKS`; a shed request retries after
//! `RETRY_TICKS`. Aggressor clients are always polled *before* victim
//! clients in a tick — the worst ordering for the victim. Request
//! latency is measured from the first attempt to completion, so shed
//! retries accumulate into the latency distribution exactly as a real
//! client would experience them.
//!
//! The regression bounds (victim shed rate, victim p99 vs its solo
//! baseline, victim throughput) are the deterministic counterpart of
//! `victim_p99_holds_through_the_attested_stack`, the `#[ignore]`d
//! wall-clock test at the end of this file: the same 2x p99 bound,
//! measured through a real secure server (CI's `tenant-suite` runs it).

use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::EnclaveBuilder;
use shield_net::{
    FairAdmission, KvClient, NetError, OpCode, Request, Server, ServerConfig, Status,
};
use shield_workload::{Generator, Spec};
use shieldstore::{Config, Refusal, ShieldStore, TenantQuota};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAP: usize = 8;
const SERVICE_TICKS: u64 = 5;
const RETRY_TICKS: u64 = 1;
const AGGRESSOR: u32 = 1;
const VICTIM: u32 = 2;

struct Client {
    tenant: u32,
    weight: u32,
    /// First-attempt tick of the current request.
    started: u64,
    /// Next tick this client will call the gate.
    next_attempt: u64,
    /// Completion tick of the in-service request, if admitted.
    in_service_until: Option<u64>,
}

#[derive(Default, Debug, PartialEq)]
struct Outcome {
    latencies: Vec<u64>,
    attempts: u64,
    sheds: u64,
}

impl Outcome {
    fn completions(&self) -> u64 {
        self.latencies.len() as u64
    }

    fn shed_rate(&self) -> f64 {
        if self.attempts == 0 {
            return 0.0;
        }
        self.sheds as f64 / self.attempts as f64
    }

    fn p99(&self) -> u64 {
        assert!(!self.latencies.is_empty(), "no completions to rank");
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        sorted[(sorted.len() * 99 / 100).min(sorted.len() - 1)]
    }
}

/// Runs `ticks` virtual milliseconds of closed-loop load and returns
/// (aggressor outcome, victim outcome).
fn simulate(
    aggressor_clients: usize,
    aggressor_weight: u32,
    victim_clients: usize,
    victim_weight: u32,
    ticks: u64,
) -> (Outcome, Outcome) {
    let gate = FairAdmission::new(CAP);
    let base = Instant::now();
    let mut clients: Vec<Client> = std::iter::repeat_with(|| (AGGRESSOR, aggressor_weight))
        .take(aggressor_clients)
        .chain(std::iter::repeat_with(|| (VICTIM, victim_weight)).take(victim_clients))
        .map(|(tenant, weight)| Client {
            tenant,
            weight,
            started: 0,
            next_attempt: 0,
            in_service_until: None,
        })
        .collect();
    let mut aggressor = Outcome::default();
    let mut victim = Outcome::default();

    for tick in 0..ticks {
        let now = base + Duration::from_millis(tick);
        // Phase 1: completions release their slots and the closed loop
        // immediately starts each client's next request.
        for c in clients.iter_mut() {
            if c.in_service_until == Some(tick) {
                gate.release_at(c.tenant, now);
                let out = if c.tenant == AGGRESSOR { &mut aggressor } else { &mut victim };
                out.latencies.push(tick - c.started);
                c.in_service_until = None;
                c.started = tick;
                c.next_attempt = tick;
            }
        }
        // Phase 2: idle clients knock on the gate, aggressors first.
        for c in clients.iter_mut() {
            if c.in_service_until.is_some() || c.next_attempt > tick {
                continue;
            }
            let out = if c.tenant == AGGRESSOR { &mut aggressor } else { &mut victim };
            out.attempts += 1;
            if gate.try_admit_at(c.tenant, c.weight, now) {
                c.in_service_until = Some(tick + SERVICE_TICKS);
            } else {
                out.sheds += 1;
                c.next_attempt = tick + RETRY_TICKS;
            }
        }
    }
    (aggressor, victim)
}

#[test]
fn victim_p99_and_shed_rate_hold_under_flood() {
    // Solo baseline: the victim's two clients with the server to
    // themselves. Never sheds; every request takes one service time.
    let (_, solo) = simulate(0, 1, 2, 1, 2_000);
    assert_eq!(solo.sheds, 0, "solo victim must never shed");
    assert_eq!(solo.p99(), SERVICE_TICKS);

    // Contended: an aggressor floods with 8x the victim's client count
    // at equal weight. The victim's half-share (4 slots) exceeds its
    // own demand (2 clients), so after the startup transient it runs
    // as if alone.
    let (aggressor, victim) = simulate(16, 1, 2, 1, 2_000);
    assert!(
        victim.shed_rate() < 0.05,
        "victim shed rate {:.3} exceeds 5% under flood",
        victim.shed_rate()
    );
    assert!(
        victim.p99() <= 2 * solo.p99(),
        "victim p99 {} ticks vs solo {} — more than 2x degradation",
        victim.p99(),
        solo.p99()
    );
    // The gate is a limiter, not a lockout: the flood is still served
    // up to its share.
    assert!(aggressor.completions() > 0);
    // And the victim's throughput stays within 10% of its solo run.
    assert!(
        victim.completions() * 10 >= solo.completions() * 9,
        "victim completed {} contended vs {} solo",
        victim.completions(),
        solo.completions()
    );
}

#[test]
fn weights_protect_the_heavier_tenant() {
    // Victim paid for 3x the aggressor's weight: its share (6 of 8)
    // covers four closed-loop clients outright.
    let (_, solo) = simulate(0, 1, 4, 3, 2_000);
    let (_, victim) = simulate(16, 1, 4, 3, 2_000);
    assert!(
        victim.shed_rate() < 0.05,
        "weighted victim shed rate {:.3} exceeds 5%",
        victim.shed_rate()
    );
    assert!(victim.p99() <= 2 * solo.p99());
}

#[test]
fn unthrottled_gate_would_starve_the_victim() {
    // Regression sentinel for the scenario that motivated weighted
    // admission: with the victim modeled at negligible weight, the
    // flood owns nearly everything and the victim's latency collapses.
    // (Weight 0 is clamped to 1, so the victim keeps its minimum share
    // of one slot — still an 8:1 disadvantage.)
    let (_, victim) = simulate(16, u32::MAX / CAP as u32, 2, 0, 2_000);
    assert!(
        victim.shed_rate() > 0.5,
        "a negligible-weight victim should shed heavily (got {:.3})",
        victim.shed_rate()
    );
}

#[test]
fn fairness_simulation_is_deterministic() {
    let (a1, v1) = simulate(16, 1, 2, 1, 1_000);
    let (a2, v2) = simulate(16, 1, 2, 1, 1_000);
    assert_eq!(a1, a2, "aggressor outcome must be a pure function of parameters");
    assert_eq!(v1, v2, "victim outcome must be a pure function of parameters");
}

// The wall-clock gate: the 2x bound above, through a secure server.

const WALL_SEED: u64 = 42;
const WALL_KEYS: u64 = 10_000;
const WALL_VAL_LEN: usize = 128;
/// The aggressor drives this many times the victim's two connections.
const AGGRESSOR_FACTOR: usize = 4;
/// `(tenant, Table 2 spec, connections)`: tenant 1 is a well-behaved
/// read-mostly victim (RD95_Z, YCSB-B), tenant 2 an update-flooding
/// aggressor (RD50_Z, YCSB-A), both zipfian 0.99 over the same key
/// names. Equal weights: fairness must come from the admission gate,
/// not from starving the aggressor by configuration.
const WALL_TENANTS: [(u32, &str, usize); 2] =
    [(1, "RD95_Z", 2), (2, "RD50_Z", 2 * AGGRESSOR_FACTOR)];
const VICTIM_OPS_PER_CONN: u64 = 8_000;
/// Per-connection ops excluded from the victim's latencies in both
/// phases: the first ops pay for page faults, allocator growth and
/// branch warm-up, not for the scenario under test.
const WARMUP_OPS: u64 = 2_000;
/// The victim is paced open-loop, one op per gap per connection. An
/// unpaced victim would itself saturate the server, and then *any* fair
/// split of capacity doubles its latency: the gate would measure
/// arithmetic, not isolation.
const VICTIM_GAP: Duration = Duration::from_micros(500);
const P99_FACTOR: f64 = 2.0;

/// The same names in both namespaces: the namespace, not the key text,
/// must keep them apart.
fn wall_key(id: u64) -> Vec<u8> {
    format!("user{id:08}").into_bytes()
}

fn wall_value(id: u64) -> Vec<u8> {
    let mut v = format!("tenant-val-{id}-").into_bytes();
    v.resize(WALL_VAL_LEN, b'x');
    v
}

/// One paced victim connection. `Busy` is retried after 200 µs, as a
/// real client backs off, and the retries count in the op's latency.
/// Latency runs from the actual send: from the scheduled time it would
/// mostly record the client thread's sleep-wakeup jitter.
fn drive_victim(mut client: KvClient, mut generator: Generator) -> Vec<u64> {
    let mut samples = Vec::new();
    let mut scheduled = Instant::now();
    for i in 0..VICTIM_OPS_PER_CONN {
        let op = generator.next_op();
        let now = Instant::now();
        if scheduled > now {
            std::thread::sleep(scheduled - now);
        }
        scheduled += VICTIM_GAP;
        let (started, id) = (Instant::now(), op.key_id());
        loop {
            let result = if op.is_write() {
                client.set(&wall_key(id), &wall_value(id))
            } else {
                client.get(&wall_key(id)).map(|_| ())
            };
            match result {
                Ok(()) => break,
                Err(NetError::Refused(Refusal::Busy)) => {
                    std::thread::sleep(Duration::from_micros(200))
                }
                Err(e) => panic!("victim op failed: {e}"),
            }
        }
        if i >= WARMUP_OPS {
            samples.push(started.elapsed().as_nanos() as u64);
        }
    }
    samples
}

/// The whole flood from ONE thread, in staggered groups of four: one
/// request on each connection of a group, then every reply. A thread
/// per flood connection would starve the victim's client of CPU on a
/// small host, and one synchronised volley would hand the victim a queue
/// spike. Returns the aggressor's completed ops.
fn drive_flood(mut conns: Vec<(KvClient, Generator)>, stop: &AtomicBool) -> u64 {
    let mut ops = 0;
    while !stop.load(Ordering::Relaxed) {
        for group in conns.chunks_mut(4) {
            for (client, generator) in group.iter_mut() {
                let op = generator.next_op();
                let id = op.key_id();
                let (code, value) = if op.is_write() {
                    (OpCode::Set, wall_value(id))
                } else {
                    (OpCode::Get, vec![])
                };
                client.send(&Request { op: code, key: wall_key(id), value }).expect("flood send");
            }
            let mut sheds = 0;
            for (client, _) in group.iter_mut() {
                match client.recv().expect("flood recv").status {
                    Status::Busy => sheds += 1,
                    _ => ops += 1,
                }
            }
            // Mostly shed: the gate has clamped this tenant. A
            // millisecond per group is still ten times hotter than
            // `RetryClient`'s first 10 ms backoff.
            if sheds * 2 >= group.len() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    ops
}

/// A generator per (tenant, connection), seeded from `WALL_SEED`, the
/// tenant and the connection index, so every run of the scenario replays
/// the same per-connection op streams.
fn wall_generators() -> impl Iterator<Item = (u32, Generator)> {
    WALL_TENANTS.into_iter().flat_map(|(tenant, spec, connections)| {
        let spec = Spec::by_name(spec).expect("a Table 2 spec");
        (0..connections).map(move |conn| {
            let seed = WALL_SEED ^ ((tenant as u64) << 32) ^ ((conn as u64) << 16);
            (tenant, Generator::new(spec, WALL_KEYS, seed))
        })
    })
}

/// One phase: the victim's paced connections, a thread each, and with
/// `flood` the aggressor's connections against them until the victim is
/// done. Returns the victim's samples and the aggressor's ops.
fn run_phase(addr: SocketAddr, verifier: &AttestationVerifier, flood: bool) -> (Vec<u64>, u64) {
    let victim = WALL_TENANTS[0].0;
    let mut victims = Vec::new();
    let mut flooders = Vec::new();
    for (i, (tenant, generator)) in wall_generators().enumerate() {
        if tenant != victim && !flood {
            continue;
        }
        let client = KvClient::connect_secure_tenant(addr, verifier, WALL_SEED + i as u64, tenant)
            .expect("tenant connect");
        if tenant == victim {
            victims.push(std::thread::spawn(move || drive_victim(client, generator)));
        } else {
            flooders.push((client, generator));
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let flood = (!flooders.is_empty()).then(|| {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || drive_flood(flooders, &stop))
    });
    let samples = victims.into_iter().flat_map(|h| h.join().expect("victim thread")).collect();
    stop.store(true, Ordering::Relaxed);
    (samples, flood.map_or(0, |h| h.join().expect("flood thread")))
}

#[test]
#[ignore = "wall-clock; CI's tenant-suite runs it in release"]
fn victim_p99_holds_through_the_attested_stack() {
    let enclave = EnclaveBuilder::new("tenant-fairness").epc_bytes(64 << 20).build();
    let config = Config::shield_opt().buckets(1024).mac_hashes(64).with_shards(4);
    let store = Arc::new(ShieldStore::new(Arc::clone(&enclave), config).unwrap());
    for (tenant, _, _) in WALL_TENANTS {
        let quota = TenantQuota { max_bytes: u64::MAX, max_keys: u64::MAX, weight: 1 };
        store.tenants().configure(tenant, quota);
    }
    // Two loops over four shards, so cross-loop handoffs give the gate
    // real in-flight pressure, and a cap of four against the flood's
    // eight connections: admission pressure is the experiment.
    let server = Server::start(
        store as Arc<dyn shield_baseline::KvBackend>,
        Some(Arc::clone(&enclave)),
        ServerConfig { event_loops: 2, secure: true, max_in_flight: 4, ..Default::default() },
    )
    .unwrap();
    let verifier =
        AttestationVerifier::for_enclave(&enclave).expect_measurement(*enclave.measurement());

    // Preload both namespaces so reads hit.
    let mut loaders: Vec<KvClient> = (WALL_TENANTS.iter().zip([999, 998]))
        .map(|((tenant, _, _), seed)| {
            KvClient::connect_secure_tenant(server.addr(), &verifier, seed, *tenant).unwrap()
        })
        .collect();
    for id in 0..WALL_KEYS {
        for loader in &mut loaders {
            loader.set(&wall_key(id), &wall_value(id)).expect("preload");
        }
    }
    drop(loaders);

    let (solo, _) = run_phase(server.addr(), &verifier, false);
    let (contended, aggressor_ops) = run_phase(server.addr(), &verifier, true);
    server.shutdown();
    // Exact p99s over raw samples, as in the simulation: the histogram's
    // power-of-two buckets would quantise the ratio to 2x jumps.
    let p99 = |latencies| Outcome { latencies, ..Default::default() }.p99();
    let (solo, contended) = (p99(solo), p99(contended));
    let ratio = contended as f64 / solo.max(1) as f64;
    assert!(aggressor_ops > 0, "the aggressor must actually run");
    assert!(
        ratio <= P99_FACTOR,
        "victim p99 {contended} ns under the flood vs {solo} ns alone: {ratio:.2}x > {P99_FACTOR}x"
    );
}
