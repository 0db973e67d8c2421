//! One op-conformance table, one model.
//!
//! A single script — every [`Op`] variant × {default tenant, two named
//! tenants sharing key names} × {no TTL, TTL crossing expiry on the
//! frozen [`ttl`] clock} — is driven through every entry point an
//! operation can take:
//!
//! * `Shard::execute`
//! * `ShieldStore::execute`
//! * `KvBackend::execute` on `ShieldStore`, on a `ReplicaBackend`
//!   (read-only, then promoted) and on `NaiveEnclaveStore` (the default
//!   impl)
//! * `server::execute` on the encoded `Request`, and the same frames
//!   over live tenant-bound sessions
//! * `KvClient::execute` over live tenant-bound sessions, and
//!   `RetryClient::execute` (default tenant): the client end of the same
//!   codec, so a client-side decode bug fails this script too
//!
//! and every `Reply`/`Response` is checked against the one reference
//! model, [`shieldstore::model::Model`]: what a correct store answers,
//! with `Caps::FLAT` for the default impl's single table. Where the entry
//! point logs (everything above the shard), recovering the run's WAL must
//! reproduce the model too.
//!
//! Folded into this table (every behaviour they checked is a row here):
//! `shield_baseline::tests::shieldstore_satisfies_backend` and
//! `shield_baseline::naive::tests::append_via_trait_default`.

use sgx_sim::attest::AttestationVerifier;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use sgx_sim::storage::FaultFs;
use shield_baseline::{KvBackend, NaiveEnclaveStore, Op, Refusal, Reply};
use shield_net::client::{Connector, RetryClient, RetryPolicy};
use shield_net::protocol::{Request, Response, Status};
use shield_net::repl::{ReplicaConfig, ReplicaNode};
use shield_net::{CrossingMode, KvClient, NetError, Server, ServerConfig};
use shieldstore::model::{Caps, Model};
use shieldstore::{ttl, Config, DurabilityPolicy, Error, ShieldStore, Watermark};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The TTL clock is process-wide: tests that freeze it take turns.
static CLOCK: Mutex<()> = Mutex::new(());

const T0: u64 = 1_700_000_000_000_000_000;
const LEASE_NS: u64 = 1_000_000;
const TENANTS: [u32; 3] = [0, 7, 9];

// ---------------------------------------------------------------------
// The script
// ---------------------------------------------------------------------

/// Runs `step(tenant, op)` for the whole table. Values carry the tenant
/// id, so a namespace leak shows up as a wrong value, not just a hit.
fn script(mut step: impl FnMut(u32, Op<'_>)) {
    ttl::freeze(T0);
    let lease = T0 + LEASE_NS;
    for tenant in TENANTS {
        let tag = |text: &str| format!("{text}@{tenant}").into_bytes();
        let (v1, leased, batch_a, batch_b, batch_c) =
            (tag("v1"), tag("leased"), tag("a"), tag("b"), tag("c"));
        step(tenant, Op::Get(b"k1"));
        step(tenant, Op::Exists(b"k1"));
        step(tenant, Op::set(b"k1", &v1));
        step(tenant, Op::Get(b"k1"));
        step(tenant, Op::Exists(b"k1"));
        step(tenant, Op::Set { key: b"lease", value: &leased, expires_at: lease });
        step(tenant, Op::Get(b"lease"));
        step(tenant, Op::Append { key: b"k1", suffix: b"+a" });
        step(tenant, Op::Append { key: b"log", suffix: b"a" });
        step(tenant, Op::Append { key: b"log", suffix: b"b" });
        step(tenant, Op::Get(b"log"));
        step(tenant, Op::Increment { key: b"n", delta: 41 });
        step(tenant, Op::Increment { key: b"n", delta: 1 });
        step(tenant, Op::Increment { key: b"n", delta: -50 });
        step(tenant, Op::Increment { key: b"k1", delta: 1 }); // not numeric
        step(tenant, Op::Set { key: b"nl", value: b"10", expires_at: lease });
        step(tenant, Op::Increment { key: b"nl", delta: 5 }); // clears the lease
        let items: [(&[u8], &[u8]); 3] = [(b"m1", &batch_a), (b"m2", &batch_b), (b"m1", &batch_c)];
        step(tenant, Op::MultiSet { items: &items, expires_at: 0 });
        let leased_items: [(&[u8], &[u8]); 2] = [(b"ml1", &batch_a), (b"ml2", &batch_b)];
        step(tenant, Op::MultiSet { items: &leased_items, expires_at: lease });
        let keys: [&[u8]; 6] = [b"m1", b"m2", b"absent", b"k1", b"ml1", b"m1"];
        step(tenant, Op::MultiGet(&keys));
        step(tenant, Op::MultiGet(&[]));
        step(tenant, Op::ScanPrefix { prefix: b"m", limit: 10 });
        step(tenant, Op::ScanPrefix { prefix: b"m", limit: 1 });
        step(tenant, Op::ScanPrefix { prefix: b"zz", limit: 10 });
        step(tenant, Op::ScanRange { start: b"m1", end: b"ml2", limit: 10 });
        step(tenant, Op::ScanRange { start: b"a", end: b"zz", limit: 3 });
        step(tenant, Op::Delete(b"m2"));
        step(tenant, Op::Delete(b"m2"));
        step(tenant, Op::Delete(b"absent"));
        step(tenant, Op::Exists(b"m2"));
    }
    // Cross the deadline (it is inclusive): every lease is now dead.
    ttl::advance(LEASE_NS);
    for tenant in TENANTS {
        let again = format!("again@{tenant}").into_bytes();
        step(tenant, Op::Get(b"lease"));
        step(tenant, Op::Exists(b"lease"));
        step(tenant, Op::Get(b"nl")); // the increment made it immortal
        let keys: [&[u8]; 3] = [b"ml1", b"m1", b"ml2"];
        step(tenant, Op::MultiGet(&keys));
        step(tenant, Op::ScanPrefix { prefix: b"m", limit: 10 });
        step(tenant, Op::ScanRange { start: b"a", end: b"zz", limit: 10 });
        step(tenant, Op::Delete(b"lease")); // expired reads as absent
        step(tenant, Op::Append { key: b"ml1", suffix: b"fresh" }); // starts over
        step(tenant, Op::Increment { key: b"ml2", delta: 3 }); // starts from 0
        step(tenant, Op::set(b"lease", &again)); // a set revives
        step(tenant, Op::Get(b"lease"));
        step(tenant, Op::Set { key: b"k1", value: b"due", expires_at: T0 }); // already due
        step(tenant, Op::Get(b"k1"));
    }
}

/// Drives the script through `exec`, checking every answer against a
/// fresh model, and returns the model's final state.
fn run_script(
    layer: &str,
    caps: Caps,
    mut exec: impl FnMut(u32, Op<'_>) -> Option<Reply>,
) -> Model {
    let mut model = Model::new(caps);
    let mut steps = 0;
    script(|tenant, op| {
        steps += 1;
        let want = model.apply(tenant, op);
        let got = exec(tenant, op);
        assert_eq!(got, want, "{layer}: step {steps}, tenant {tenant}, {op:?}");
    });
    assert!(steps > 100, "the table ran");
    model
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// A store's answer as the model states it: a refusal a correct store
/// gives is `None`, and any other error fails the test.
fn store_reply(result: shieldstore::Result<Reply>) -> Option<Reply> {
    match result {
        Ok(reply) => Some(reply),
        Err(Error::ValueNotNumeric | Error::NumericOverflow | Error::IndexDisabled) => None,
        Err(other) => panic!("unexpected store error {other:?}"),
    }
}

/// [`store_reply`] for a `KvBackend`.
fn backend_reply(result: Result<Reply, Refusal>) -> Option<Reply> {
    match result {
        Ok(reply) => Some(reply),
        Err(Refusal::Failed) => None,
        Err(other) => panic!("unexpected backend error {other:?}"),
    }
}

fn store_config(shards: usize) -> Config {
    Config { ordered_index: true, ..Config::shield_opt() }
        .buckets(128)
        .mac_hashes(32)
        .with_shards(shards)
        .with_durability(DurabilityPolicy::Strict)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ss-op-conf-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A store with a WAL in a fresh directory, plus what recovery needs.
struct Durable {
    store: Arc<ShieldStore>,
    fs: Arc<FaultFs>,
    enclave: Arc<Enclave>,
    config: Config,
    dir: PathBuf,
}

impl Durable {
    fn new(tag: &str, shards: usize) -> Durable {
        // One name + seed everywhere: identical sealing keys, which
        // recovery and replica promotion both need.
        let enclave = EnclaveBuilder::new("op-conformance").seed(11).epc_bytes(16 << 20).build();
        let (config, dir) = (store_config(shards), scratch(tag));
        let fs = Arc::new(FaultFs::new());
        let store = ShieldStore::new_with_storage(Arc::clone(&enclave), config.clone(), fs.clone());
        let store = Arc::new(store.unwrap());
        store.attach_wal(dir.join("wal")).unwrap();
        Durable { store, fs, enclave, config, dir }
    }

    /// Crashes the store, recovers it from its log alone, and checks the
    /// recovered state against the model.
    fn assert_replay(self, layer: &str, model: &Model) {
        let Durable { store, fs, enclave, config, dir } = self;
        fs.crash();
        drop(store);
        let counter = PersistentCounter::open(dir.join("snapctr")).unwrap();
        let recovered =
            ShieldStore::recover(enclave, config, None, &counter, dir.join("wal")).unwrap();
        model.check_store(&recovered).unwrap_or_else(|e| panic!("{layer} (WAL replay): {e}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The frame a client sends for `op`, through the shared codec; `None`
/// where the wire has no form for it (`Exists`, `ScanRange`, a leased
/// `MultiSet`). The frame survives its own codec before it is served.
fn frame(op: Op<'_>) -> Option<Request> {
    let request = match op {
        Op::Set { key, value, expires_at } if expires_at != 0 => {
            Request::set_ttl(key, value, lease(expires_at)?)
        }
        op => Request::from_op(op).ok()?,
    };
    Some(Request::decode(&request.encode()).unwrap())
}

/// A leased `Set`'s deadline as the relative TTL the wire carries: on the
/// frozen clock the server lands on exactly the deadline it was cut
/// from. An already-due deadline has no relative form (a zero TTL is
/// rejected).
fn lease(expires_at: u64) -> Option<u64> {
    expires_at.checked_sub(ttl::now_ns()).filter(|&ttl_ns| ttl_ns > 0)
}

/// Reads a wire answer as an entry point's outcome. The wire carries no
/// value for an append (the shared codec answers an empty one), so the
/// expected value is echoed; `run_wire` reads the key back instead.
fn outcome(op: Op<'_>, answer: shield_net::Result<Reply>, want: &Option<Reply>) -> Option<Reply> {
    match answer {
        Ok(Reply::Appended(value)) => {
            assert!(value.is_empty(), "an append's value rode the wire");
            want.clone()
        }
        Ok(reply) => Some(reply),
        Err(NetError::Protocol(_)) => None,
        Err(e) => panic!("{op:?} failed: {e}"),
    }
}

/// Drives the script over the wire: `wire` answers an op, or `None`
/// where it cannot (no wire form, or a tenant it cannot serve) — then the
/// op goes straight to `direct`, so the state stays on script.
fn run_wire(
    layer: &str,
    mut wire: impl FnMut(u32, Op<'_>) -> Option<shield_net::Result<Reply>>,
    direct: impl Fn(u32, Op<'_>) -> Option<Reply>,
) -> Model {
    let mut model = Model::default();
    let mut framed = 0;
    script(|tenant, op| {
        let want = model.apply(tenant, op);
        let got = match wire(tenant, op) {
            Some(answer) => {
                framed += 1;
                outcome(op, answer, &want)
            }
            None => direct(tenant, op),
        };
        assert_eq!(got, want, "{layer}: tenant {tenant}, {op:?}");
        if let (Op::Append { key, .. }, Some(Reply::Appended(value))) = (op, &want) {
            if let Some(read) = wire(tenant, Op::Get(key)) {
                let read = read.unwrap();
                assert_eq!(read, Reply::Value(Some(value.clone())), "{layer}: append landed");
            }
        }
    });
    assert!(framed > 25, "the table rode the wire");
    model
}

/// Serves `op` as a frame through `call`, answering through the shared
/// codec.
fn framed(
    op: Op<'_>,
    call: impl FnOnce(&Request) -> shield_net::Result<Response>,
) -> Option<shield_net::Result<Reply>> {
    let request = frame(op)?;
    Some(call(&request).and_then(|response| response.into_reply(op)))
}

fn server_config() -> ServerConfig {
    ServerConfig {
        event_loops: 2,
        crossing: CrossingMode::HotCalls,
        secure: true,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// The tests: one per entry point
// ---------------------------------------------------------------------

#[test]
fn shard_execute_conforms() {
    let _clock = CLOCK.lock().unwrap_or_else(|e| e.into_inner());
    let enclave = EnclaveBuilder::new("op-conformance").seed(11).epc_bytes(16 << 20).build();
    let store = ShieldStore::new(enclave, store_config(1)).unwrap();
    let exec = |tenant: u32, op: Op<'_>| {
        let state = store.tenants().state(tenant);
        store_reply(store.with_shard(0, |shard| shard.execute(tenant, Some(&state), op)))
    };
    let model = run_script("Shard::execute", Caps::SHIELD, exec);
    model.check_reads(store.len(), |t, op| exec(t, op).ok_or(())).expect("Shard::execute");
    ttl::thaw();
}

#[test]
fn store_execute_conforms_and_replays() {
    let _clock = CLOCK.lock().unwrap_or_else(|e| e.into_inner());
    let durable = Durable::new("store", 4);
    let store = Arc::clone(&durable.store);
    let model =
        run_script("ShieldStore::execute", Caps::SHIELD, |t, op| store_reply(store.execute(t, op)));
    model.check_store(&store).expect("ShieldStore::execute");
    drop(store);
    durable.assert_replay("ShieldStore::execute", &model);
    ttl::thaw();
}

#[test]
fn backend_execute_conforms_and_replays() {
    let _clock = CLOCK.lock().unwrap_or_else(|e| e.into_inner());
    let durable = Durable::new("backend", 4);
    let backend: Arc<dyn KvBackend> = Arc::clone(&durable.store) as _;
    assert_eq!(backend.name(), "ShieldStore");
    assert!(backend.is_empty());
    let exec = |tenant: u32, op: Op<'_>| backend.execute(tenant, op);
    let mut model = run_script("KvBackend::execute(ShieldStore)", Caps::SHIELD, |t, op| {
        backend_reply(exec(t, op))
    });
    model.check_reads(backend.len(), exec).expect("KvBackend::execute(ShieldStore)");
    // The three primitives are the default tenant's view of the same table.
    assert_eq!(Some(Reply::Value(backend.get(b"log"))), model.apply(0, Op::Get(b"log")));
    assert!(backend.delete(b"log") && !backend.delete(b"log") && !backend.is_empty());
    assert!(backend.set(b"log", b"ab"));
    drop(backend);
    durable.assert_replay("KvBackend::execute(ShieldStore)", &model);
    ttl::thaw();
}

#[test]
fn default_backend_execute_conforms() {
    let _clock = CLOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The default impl: three primitives, one flat table, and everything
    // they cannot express — deadlines, ordered scans — fails closed.
    let naive = NaiveEnclaveStore::insecure(64);
    let exec = |tenant: u32, op: Op<'_>| KvBackend::execute(&naive, tenant, op);
    let model =
        run_script("KvBackend::execute(default)", Caps::FLAT, |t, op| backend_reply(exec(t, op)));
    model.check_reads(naive.len(), exec).expect("KvBackend::execute(default)");
    ttl::thaw();
}

#[test]
fn server_execute_conforms_and_replays() {
    let _clock = CLOCK.lock().unwrap_or_else(|e| e.into_inner());

    // `server::execute` serves the default namespace: the table's other
    // tenants ride live tenant-bound sessions below.
    let durable = Durable::new("server-fn", 4);
    let backend: Arc<dyn KvBackend> = Arc::clone(&durable.store) as _;
    let model = run_wire(
        "server::execute",
        |tenant, op| {
            let serve = |request: &Request| Ok(shield_net::server::execute(&*backend, request));
            (tenant == 0).then(|| framed(op, serve)).flatten()
        },
        |tenant, op| backend_reply(backend.execute(tenant, op)),
    );
    drop(backend);
    durable.assert_replay("server::execute", &model);
    ttl::thaw();
}

#[test]
fn live_tenant_sessions_conform_and_replay() {
    let _clock = CLOCK.lock().unwrap_or_else(|e| e.into_inner());
    let durable = Durable::new("server-live", 4);
    let backend: Arc<dyn KvBackend> = Arc::clone(&durable.store) as _;
    let server =
        Server::start(Arc::clone(&backend), Some(Arc::clone(&durable.enclave)), server_config())
            .unwrap();
    let verifier = AttestationVerifier::for_enclave(&durable.enclave)
        .expect_measurement(*durable.enclave.measurement());
    let mut sessions: BTreeMap<u32, KvClient> = TENANTS
        .iter()
        .map(|&tenant| {
            let client = KvClient::connect_secure_tenant(
                server.addr(),
                &verifier,
                40 + tenant as u64,
                tenant,
            );
            (tenant, client.unwrap())
        })
        .collect();
    let mut model = run_wire(
        "live session",
        |tenant, op| framed(op, |request| sessions.get_mut(&tenant).unwrap().call(request)),
        |tenant, op| backend_reply(backend.execute(tenant, op)),
    );

    // The wire's two TTL conventions stay as they were: a relative TTL
    // of zero is not "already due" but malformed (a plain `Set` is the
    // no-expiry form), and is refused before the store sees it.
    let session = sessions.get_mut(&0).unwrap();
    let zero_ttl = Request::set_ttl(b"zero-ttl", b"v", 0);
    assert_eq!(session.call(&zero_ttl).unwrap().status, Status::Error);
    assert_eq!(session.get(b"zero-ttl").unwrap(), None);
    // ...and a plain `Set` never expires.
    session.set(b"zero-ttl", b"forever").unwrap();
    ttl::advance(1 << 60);
    assert_eq!(session.get(b"zero-ttl").unwrap().as_deref(), Some(b"forever".as_slice()));

    drop(sessions);
    server.shutdown();
    drop(backend);
    model.apply(0, Op::set(b"zero-ttl", b"forever"));
    durable.assert_replay("live session", &model);
    ttl::thaw();
}

/// A live server over a fresh durable store, and what a client needs to
/// attest it.
fn live(tag: &str) -> (Durable, Arc<dyn KvBackend>, Server, AttestationVerifier) {
    let durable = Durable::new(tag, 4);
    let backend: Arc<dyn KvBackend> = Arc::clone(&durable.store) as _;
    let server =
        Server::start(Arc::clone(&backend), Some(Arc::clone(&durable.enclave)), server_config())
            .unwrap();
    let verifier = AttestationVerifier::for_enclave(&durable.enclave)
        .expect_measurement(*durable.enclave.measurement());
    (durable, backend, server, verifier)
}

#[test]
fn client_execute_conforms_and_replays() {
    let _clock = CLOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (durable, backend, server, verifier) = live("client-execute");
    let mut sessions: BTreeMap<u32, KvClient> = TENANTS
        .iter()
        .map(|&tenant| {
            let seed = 60 + tenant as u64;
            let client = KvClient::connect_secure_tenant(server.addr(), &verifier, seed, tenant);
            (tenant, client.unwrap())
        })
        .collect();
    let model = run_wire(
        "KvClient::execute",
        |tenant, op| {
            let session = sessions.get_mut(&tenant).unwrap();
            match op {
                // A relative TTL has no `Op` form: `set_ttl` is its call.
                Op::Set { key, value, expires_at } if expires_at != 0 => {
                    let ttl_ns = lease(expires_at)?;
                    Some(session.set_ttl(key, value, ttl_ns).map(|()| Reply::Stored))
                }
                op => Request::from_op(op).is_ok().then(|| session.execute(op)),
            }
        },
        |tenant, op| backend_reply(backend.execute(tenant, op)),
    );
    drop(sessions);
    server.shutdown();
    drop(backend);
    durable.assert_replay("KvClient::execute", &model);
    ttl::thaw();
}

#[test]
fn retry_client_execute_conforms() {
    let _clock = CLOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (durable, backend, server, verifier) = live("retry-execute");
    let connector = Connector::Secure { addr: server.addr(), verifier, seed: 70 };
    let mut client = RetryClient::new(connector, RetryPolicy::default());
    let model = run_wire(
        "RetryClient::execute",
        |tenant, op| (tenant == 0 && Request::from_op(op).is_ok()).then(|| client.execute(op)),
        |tenant, op| backend_reply(backend.execute(tenant, op)),
    );
    // Every refusal in the script was an answer on a healthy session.
    assert_eq!((client.retries(), client.reconnects()), (0, 0));
    drop(client);
    server.shutdown();
    drop(backend);
    durable.assert_replay("RetryClient::execute", &model);
    ttl::thaw();
}

fn wait_caught_up(handle: &shield_net::ReplicaHandle, target: Watermark) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.watermark() < target {
        assert!(Instant::now() < deadline, "replica stuck at {}", handle.watermark());
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn replica_backend_is_read_only_then_conforms() {
    let _clock = CLOCK.lock().unwrap_or_else(|e| e.into_inner());
    ttl::freeze(T0);

    let primary = Durable::new("replica-p", 2);
    let primary_server = Server::start(
        Arc::clone(&primary.store) as Arc<dyn KvBackend>,
        Some(Arc::clone(&primary.enclave)),
        server_config(),
    )
    .unwrap();
    let verifier = AttestationVerifier::for_enclave(&primary.enclave)
        .expect_measurement(*primary.enclave.measurement());
    let replica_enclave =
        EnclaveBuilder::new("op-conformance").seed(11).epc_bytes(16 << 20).build();
    let replica_store =
        Arc::new(ShieldStore::new(Arc::clone(&replica_enclave), store_config(2)).unwrap());
    let replica_wal = scratch("replica-r");
    let node = ReplicaNode::start(
        primary_server.addr(),
        &verifier,
        replica_store,
        replica_enclave,
        server_config(),
        ReplicaConfig {
            primary_wal_dir: primary.dir.join("wal"),
            wal_dir: replica_wal.clone(),
            ..Default::default()
        },
    )
    .unwrap();
    let replica = node.backend();
    let exec = |tenant: u32, op: Op<'_>| replica.execute(tenant, op);

    // Seed the primary in every namespace and let the replica stream it.
    let mut seeded = Model::default();
    for tenant in TENANTS {
        let value = format!("seed@{tenant}").into_bytes();
        for op in [Op::set(b"seeded", &value), Op::set(b"n", b"7")] {
            seeded.apply(tenant, op).unwrap();
            primary.store.execute(tenant, op).unwrap();
        }
    }
    wait_caught_up(&node.handle(), primary.store.flush_wal().unwrap().unwrap());

    // Read-only: every write variant is refused and changes nothing;
    // every read variant serves the replicated state.
    let keys: [&[u8]; 2] = [b"seeded", b"absent"];
    let items: [(&[u8], &[u8]); 1] = [(b"seeded", b"clobbered")];
    let probes = [
        Op::Get(b"seeded"),
        Op::Exists(b"seeded"),
        Op::set(b"seeded", b"clobbered"),
        Op::Set { key: b"seeded", value: b"clobbered", expires_at: T0 + LEASE_NS },
        Op::Delete(b"seeded"),
        Op::Append { key: b"seeded", suffix: b"!" },
        Op::Increment { key: b"n", delta: 1 },
        Op::MultiGet(&keys),
        Op::MultiSet { items: &items, expires_at: 0 },
        Op::ScanRange { start: b"a", end: b"z", limit: 10 },
        Op::ScanPrefix { prefix: b"s", limit: 10 },
    ];
    for tenant in TENANTS {
        for op in probes {
            let got = exec(tenant, op);
            match op.is_write() {
                true => assert_eq!(got, Err(Refusal::ReadOnly), "read-only replica: {op:?}"),
                false => assert_eq!(
                    backend_reply(got),
                    seeded.apply(tenant, op),
                    "read-only replica: {op:?}"
                ),
            }
        }
    }
    assert!(!replica.set(b"seeded", b"clobbered") && !replica.delete(b"seeded"));
    seeded.check_reads(replica.len(), exec).expect("read-only replica");

    // Promoted: the full table, like any primary. The seeds are in the
    // way of the script's first reads, so clear them first.
    primary_server.shutdown();
    replica.promote().expect("promotion");
    for tenant in TENANTS {
        for key in [b"seeded".as_slice(), b"n"] {
            assert_eq!(exec(tenant, Op::Delete(key)), Ok(Reply::Deleted(true)));
        }
    }
    let model = run_script("KvBackend::execute(promoted replica)", Caps::SHIELD, |t, op| {
        backend_reply(exec(t, op))
    });
    model.check_reads(replica.len(), exec).expect("KvBackend::execute(promoted replica)");

    drop(replica);
    node.shutdown();
    let _ = std::fs::remove_dir_all(&primary.dir);
    let _ = std::fs::remove_dir_all(&replica_wal);
    ttl::thaw();
}

/// Satellite of the table: a read of a tampered, quarantined partition
/// through `&dyn KvBackend` — the store itself, and a replica before
/// promotion — is an answer, never an unwind. (The primitive `get`
/// used to panic on any error but a miss.)
#[test]
fn quarantined_read_through_dyn_backend_fails_instead_of_unwinding() {
    let names: Vec<Vec<u8>> = (0..64).map(|i| format!("q{i:02}").into_bytes()).collect();

    // Tampers one entry of `store`, then reads every key through
    // `backend` both ways. Returns how many reads were refused.
    let sweep = |store: &ShieldStore, backend: &dyn KvBackend| {
        assert!(store.tamper_any_entry_byte(7));
        let mut refused = 0;
        for _pass in 0..2 {
            for name in &names {
                let plain = backend.get(name);
                match backend.execute(0, Op::Get(name)) {
                    Ok(reply) => assert_eq!(reply.value(), plain),
                    Err(e) => {
                        assert!(matches!(e, Refusal::Failed | Refusal::Quarantined), "{e:?}");
                        assert_eq!(plain, None, "a refused read serves nothing");
                        refused += 1;
                    }
                }
            }
        }
        assert!(!store.quarantine_report().is_clean());
        refused
    };

    let enclave = EnclaveBuilder::new("op-conformance").seed(11).epc_bytes(16 << 20).build();
    let (config, dir) = (store_config(2).with_quarantine(), scratch("quarantine"));
    let primary_store = Arc::new(ShieldStore::new(Arc::clone(&enclave), config.clone()).unwrap());
    primary_store.attach_wal(dir.join("primary")).unwrap();
    for name in &names {
        primary_store.set(name, b"value").unwrap();
    }

    // A replica of the healthy primary, tampered on its own.
    let primary_server = Server::start(
        Arc::clone(&primary_store) as Arc<dyn KvBackend>,
        Some(Arc::clone(&enclave)),
        server_config(),
    )
    .unwrap();
    let verifier =
        AttestationVerifier::for_enclave(&enclave).expect_measurement(*enclave.measurement());
    let replica_enclave =
        EnclaveBuilder::new("op-conformance").seed(11).epc_bytes(16 << 20).build();
    let replica_store = Arc::new(ShieldStore::new(Arc::clone(&replica_enclave), config).unwrap());
    let node = ReplicaNode::start(
        primary_server.addr(),
        &verifier,
        Arc::clone(&replica_store),
        replica_enclave,
        server_config(),
        ReplicaConfig {
            primary_wal_dir: dir.join("primary"),
            wal_dir: dir.join("replica"),
            ..Default::default()
        },
    )
    .unwrap();
    wait_caught_up(&node.handle(), primary_store.flush_wal().unwrap().unwrap());
    assert!(sweep(&replica_store, &*node.backend()) > 0, "the replica refused the tampered set");

    assert!(sweep(&primary_store, &*primary_store) > 0, "the store refused the tampered set");

    node.shutdown();
    primary_server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
