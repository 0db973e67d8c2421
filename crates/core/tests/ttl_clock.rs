//! The TTL clock is the host's (paper §3.3's attacker owns the OS that
//! answers it), so the store acts only on a floor over it that never goes
//! back: a rewound clock must not bring back an entry the store has
//! already answered as expired. One test per file: the clock is
//! process-wide.

use sgx_sim::enclave::EnclaveBuilder;
use shieldstore::{ttl, Config, Op, Reply, ShieldStore, DEFAULT_TENANT};

const SECOND: u64 = 1_000_000_000;

#[test]
fn a_clock_rewind_does_not_resurrect_an_expired_entry() {
    let t0 = ttl::now_ns();
    ttl::freeze(t0);
    let enclave = EnclaveBuilder::new("ttl-rewind").epc_bytes(8 << 20).build();
    let store =
        ShieldStore::new(enclave, Config::shield_opt().buckets(64).mac_hashes(16).with_shards(1))
            .unwrap();
    let lease = Op::Set { key: b"lease", value: b"v", expires_at: t0 + SECOND };
    store.execute(DEFAULT_TENANT, lease).unwrap();
    store.set(b"plain", b"p").unwrap();
    let read = |key: &[u8]| store.execute(DEFAULT_TENANT, Op::Get(key)).unwrap();
    assert_eq!(read(b"lease"), Reply::Value(Some(b"v".to_vec())), "served inside its lease");

    ttl::freeze(t0 + 2 * SECOND);
    assert_eq!(read(b"lease"), Reply::Value(None), "answered as expired");

    // The host sets the clock back to before the deadline.
    ttl::freeze(t0);
    assert_eq!(read(b"lease"), Reply::Value(None), "a rewind resurrected an expired entry");
    assert_eq!(store.execute(DEFAULT_TENANT, Op::Exists(b"lease")).unwrap(), Reply::Exists(false));
    let burst = store.execute_burst(&[(DEFAULT_TENANT, Op::Get(b"lease"))]);
    assert_eq!(burst, [Ok(Reply::Value(None))], "a burst reads the same floor");
    // The sweep judges the same floor: it reaps the lease, and only it.
    assert_eq!(store.sweep_expired().unwrap(), 1);
    assert_eq!(read(b"plain"), Reply::Value(Some(b"p".to_vec())));
    ttl::thaw();
}
