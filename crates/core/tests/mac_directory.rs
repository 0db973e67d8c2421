//! The MAC-bucket directory from outside: that the entry handles a
//! bucket's nodes list stay the bucket's chain through every path that
//! writes either — nothing else would notice them drift apart, a listed
//! handle being only ever hinted — that each entry's tag lives once, in
//! its slot, through every path that writes it, and that small nodes keep
//! what the untrusted heap holds per byte of user data where the size
//! classes put it.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::EnclaveBuilder;
use sgx_sim::vclock;
use shieldstore::{mac_bucket, ttl, Config, Op, ShieldStore};

fn enclave() -> std::sync::Arc<sgx_sim::enclave::Enclave> {
    EnclaveBuilder::new("mac-directory").seed(11).epc_bytes(8 << 20).build()
}

/// A seeded stream of sets of new keys, updates in place, updates that
/// outgrow their class, deletes and batched sets over `keys` keys; the
/// directories are checked every few ops and at the end.
fn churn(store: &ShieldStore, seed: u64, ops: usize, keys: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let key = |id: u64| format!("key-{id:04}").into_bytes();
    for step in 0..ops {
        let id = next() % keys;
        match next() % 8 {
            // One class (an in-place update when the key is there) ...
            0..=2 => store.set(&key(id), &[step as u8; 20]).unwrap(),
            // ... and another (a reallocation when it is).
            3 | 4 => store.set(&key(id), &vec![step as u8; 200 + (next() % 400) as usize]).unwrap(),
            5 | 6 => {
                let _ = store.delete(&key(id));
            }
            _ => {
                let batch: Vec<(Vec<u8>, Vec<u8>)> = (0..6)
                    .map(|i| (key((id + i * 7) % keys), vec![i as u8; 20 + 90 * i as usize]))
                    .collect();
                let refs: Vec<(&[u8], &[u8])> =
                    batch.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
                store.multi_set(&refs).unwrap();
            }
        }
        if step % 16 == 0 {
            store.assert_directories_in_sync();
        }
    }
    store.assert_directories_in_sync();
}

#[test]
fn listed_handles_are_the_chain_through_every_write_path() {
    vclock::reset();
    let dir = std::env::temp_dir().join(format!("ss-macdir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Enough keys that buckets chain several nodes of the paper's 30 slots.
    const BUCKETS: usize = 24;
    const KEYS: u64 = 1600;
    let config = Config::shield_opt().buckets(BUCKETS).mac_hashes(6).with_shards(2);
    let store = ShieldStore::new(enclave(), config.clone()).unwrap();
    churn(&store, 31, 1500, KEYS);
    assert!(
        store.len() > BUCKETS * mac_bucket::CAPACITY,
        "{} entries in {BUCKETS} buckets: no bucket needs a second node",
        store.len()
    );

    // Snapshot → restore: every entry re-linked and re-listed at the tail.
    let snap = dir.join("snap.db");
    let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
    store.snapshot_blocking(&snap, &counter).unwrap();
    let restored = ShieldStore::restore(enclave(), config, &snap, &counter).unwrap();
    assert_eq!(restored.len(), store.len());
    restored.assert_directories_in_sync();
    // A restored node was only ever appended to, so it is no larger
    // than the live one, which grew and never shrinks.
    assert!(restored.snapshot().mac_node_bytes <= store.snapshot().mac_node_bytes);
    churn(&restored, 77, 300, KEYS);

    // Freeze → writes → unfreeze: the temporary tables while frozen,
    // the merge into the main ones after.
    let job = store.snapshot_background(dir.join("bg.db"), &counter).unwrap();
    churn(&store, 5, 400, KEYS);
    job.finish().unwrap();
    store.assert_directories_in_sync();
    churn(&store, 6, 200, KEYS);
    std::fs::remove_dir_all(&dir).ok();
    vclock::reset();
}

/// An update that shrinks a value to a smaller class reallocates: were it
/// written in place, the block would later be freed by its new length, to
/// the smaller class, and the difference never counted back.
#[test]
fn shrinking_updates_give_back_every_byte() {
    vclock::reset();
    let store = ShieldStore::new(enclave(), Config::shield_opt().with_shards(1)).unwrap();
    let start = store.snapshot().heap_live_bytes;
    for _ in 0..1000 {
        store.set(b"key", &[1; 512]).unwrap();
        store.set(b"key", &[2; 16]).unwrap();
        store.delete(b"key").unwrap();
    }
    assert_eq!(store.snapshot().heap_live_bytes, start);
    vclock::reset();
}

/// Loads `keys` keys of `value_len`-byte values and returns what the
/// benchmark calls `space_amp`: live untrusted heap over user bytes.
fn space_amp(buckets: usize, mac_hashes: usize, keys: u64, value_len: usize) -> f64 {
    let config = Config::shield_opt().buckets(buckets).mac_hashes(mac_hashes).with_shards(1);
    let store = ShieldStore::new(enclave(), config).unwrap();
    let value = vec![0x5a; value_len];
    let ids: Vec<[u8; 16]> = (0..keys)
        .map(|id| {
            let mut key = *b"key-000000000000";
            key[8..].copy_from_slice(&id.to_be_bytes());
            key
        })
        .collect();
    for batch in ids.chunks(256) {
        let items: Vec<(&[u8], &[u8])> =
            batch.iter().map(|k| (k.as_slice(), value.as_slice())).collect();
        store.multi_set(&items).unwrap();
    }
    let snap = store.snapshot();
    assert_eq!(snap.entries, keys);
    assert!(snap.mac_node_bytes < snap.heap_live_bytes);
    snap.heap_live_bytes as f64 / (keys * (16 + value_len as u64)) as f64
}

/// Three table shapes of the benchmark, whose `space_amp` the size
/// classes and the MAC node decide: a class or node-size regression fails
/// here, not only there. Each bound is the measured value plus the
/// benchmark's 2 %.
#[test]
fn small_nodes_keep_the_heap_within_its_space_budget() {
    vclock::reset();
    // 4.018: a 77 B entry in a 96 B class, and its share of a node.
    let small = space_amp(1 << 16, 1 << 14, 200_000, 16);
    assert!(small <= 4.10, "200k x 16 B values hold {small:.3} heap bytes per user byte");
    // 1.560: a 189 B entry in a 192 B class — its tag only in its slot.
    let mid = space_amp(1 << 16, 1 << 14, 200_000, 128);
    assert!(mid <= 1.59, "200k x 128 B values hold {mid:.3} heap bytes per user byte");
    // 1.267: a 573 B entry in a 640 B class.
    let large = space_amp(1 << 14, 1 << 12, 100_000, 512);
    assert!(large <= 1.29, "100k x 512 B values hold {large:.3} heap bytes per user byte");
    vclock::reset();
}

/// One step of a two-tenant history.
#[derive(Debug, Clone)]
enum Step {
    Set { tenant: u32, key: u8, len: usize, ttl: bool },
    Delete { tenant: u32, key: u8 },
    Sweep,
}

fn step() -> impl Strategy<Value = Step> {
    ((0..7u8, 1..3u32), (0..24u8, 0..300usize, any::<bool>())).prop_map(
        |((kind, tenant), (key, len, ttl))| match kind {
            0..=3 => Step::Set { tenant, key, len, ttl },
            4 | 5 => Step::Delete { tenant, key },
            _ => Step::Sweep,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// An entry's tag exists once: after any history of inserts, updates
    /// in place and by reallocation, deletes and TTL sweeps by two
    /// tenants, and again after a snapshot and a restore, every tag —
    /// each MAC-node slot with MAC bucketing, each suffix without — is the
    /// CMAC of the entry at its chain position, and every bucket holds
    /// exactly as many tags as its chain holds entries.
    #[test]
    fn every_tag_is_its_entrys_only_copy(
        mac_bucket in any::<bool>(),
        steps in pvec(step(), 1..80),
    ) {
        vclock::reset();
        let dir = std::env::temp_dir().join(format!("ss-onetag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let config = || Config { mac_bucket, ..Config::shield_opt() }.buckets(8).mac_hashes(4);
        let store = ShieldStore::new(enclave(), config().with_shards(1)).unwrap();
        for step in &steps {
            match *step {
                Step::Set { tenant, key, len, ttl: with_ttl } => {
                    let expires_at = if with_ttl { ttl::deadline_after(1_000) } else { 0 };
                    let op = Op::Set { key: &[key], value: &vec![key; len], expires_at };
                    store.execute(tenant, op).unwrap();
                }
                Step::Delete { tenant, key } => drop(store.execute(tenant, Op::Delete(&[key]))),
                Step::Sweep => {
                    ttl::advance(2_000);
                    store.sweep_expired().unwrap();
                }
            }
        }
        store.assert_tags_single_copy();
        let (snap, counter) = (dir.join("snap.db"), dir.join("ctr"));
        let _ = std::fs::remove_file(&counter);
        let counter = PersistentCounter::open(&counter).unwrap();
        store.snapshot_blocking(&snap, &counter).unwrap();
        let restored = ShieldStore::restore(enclave(), config().with_shards(1), &snap, &counter)
            .unwrap();
        prop_assert_eq!(restored.len(), store.len());
        restored.assert_tags_single_copy();
        std::fs::remove_dir_all(&dir).ok();
        vclock::reset();
    }
}
