//! Property tests for the enclave cache (LRU model equivalence) and
//! fuzz-shaped robustness tests for the snapshot parser.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::EnclaveBuilder;
use shieldstore::cache::EnclaveCache;
use shieldstore::{Config, ShieldStore};
use std::collections::HashMap;

/// A reference LRU with the same byte-budget semantics as
/// [`EnclaveCache`].
struct ModelLru {
    capacity: usize,
    used: usize,
    /// Most-recent last.
    order: Vec<Vec<u8>>,
    map: HashMap<Vec<u8>, Vec<u8>>,
}

impl ModelLru {
    fn new(capacity: usize) -> Self {
        Self { capacity, used: 0, order: Vec::new(), map: HashMap::new() }
    }

    fn touch(&mut self, key: &[u8]) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }

    fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let v = self.map.get(key).cloned();
        if v.is_some() {
            self.touch(key);
        }
        v
    }

    fn put(&mut self, key: &[u8], value: &[u8]) {
        if value.len() > self.capacity {
            self.remove(key);
            return;
        }
        if let Some(old) = self.map.insert(key.to_vec(), value.to_vec()) {
            self.used = self.used - old.len() + value.len();
            self.touch(key);
        } else {
            self.order.push(key.to_vec());
            self.used += value.len();
        }
        while self.used > self.capacity {
            let victim = self.order.remove(0);
            let gone = self.map.remove(&victim).expect("victim present");
            self.used -= gone.len();
        }
    }

    fn remove(&mut self, key: &[u8]) {
        if let Some(old) = self.map.remove(key) {
            self.used -= old.len();
            let pos = self.order.iter().position(|k| k == key).expect("ordered");
            self.order.remove(pos);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// The enclave cache behaves exactly like the reference LRU under
    /// arbitrary get/put/remove sequences.
    #[test]
    fn cache_matches_model_lru(
        capacity in 8usize..128,
        ops in pvec((0u8..3, 0u8..6, pvec(any::<u8>(), 0..40)), 1..150),
    ) {
        let enclave = EnclaveBuilder::new("cache-prop").epc_bytes(1 << 20).build();
        let mut cache = EnclaveCache::new(enclave, capacity);
        let mut model = ModelLru::new(capacity);
        for (op, key_id, value) in ops {
            let key = vec![b'k', key_id];
            match op {
                0 => {
                    prop_assert_eq!(cache.get(&key), model.get(&key));
                }
                1 => {
                    cache.put(&key, &value);
                    model.put(&key, &value);
                }
                _ => {
                    cache.remove(&key);
                    model.remove(&key);
                }
            }
            prop_assert_eq!(cache.used_bytes(), model.used, "byte accounting diverged");
            prop_assert_eq!(cache.len(), model.map.len());
        }
    }

    /// Arbitrary bytes fed to the snapshot parser produce errors, never
    /// panics or bogus stores.
    #[test]
    fn restore_rejects_arbitrary_bytes(bytes in pvec(any::<u8>(), 0..400)) {
        let dir = std::env::temp_dir().join(format!("ss-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fuzz.db");
        std::fs::write(&path, &bytes).unwrap();
        let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
        let enclave = EnclaveBuilder::new("fuzz").epc_bytes(1 << 20).build();
        let result = ShieldStore::restore(
            enclave,
            Config::shield_opt().buckets(16).mac_hashes(4),
            &path,
            &counter,
        );
        prop_assert!(result.is_err(), "random bytes must never restore");
    }

    /// Truncating a genuine snapshot anywhere produces an error, never a
    /// partial store.
    #[test]
    fn restore_rejects_truncation(cut_frac in 0.0f64..1.0) {
        let dir = std::env::temp_dir().join(format!("ss-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("t.db");
        let ctr_path = dir.join("ctr");
        let _ = std::fs::remove_file(&ctr_path);
        let counter = PersistentCounter::open(&ctr_path).unwrap();
        let cfg = || Config::shield_opt().buckets(16).mac_hashes(4);

        let enclave = EnclaveBuilder::new("trunc").epc_bytes(1 << 20).seed(3).build();
        let store = ShieldStore::new(enclave, cfg()).unwrap();
        for i in 0..20u32 {
            store.set(format!("k{i}").as_bytes(), b"some value").unwrap();
        }
        store.snapshot_blocking(&snap, &counter).unwrap();

        let full = std::fs::read(&snap).unwrap();
        let cut = ((full.len() - 1) as f64 * cut_frac) as usize;
        std::fs::write(&snap, &full[..cut]).unwrap();

        let enclave = EnclaveBuilder::new("trunc").epc_bytes(1 << 20).seed(3).build();
        let result = ShieldStore::restore(enclave, cfg(), &snap, &counter);
        prop_assert!(result.is_err(), "truncated snapshot must never restore (cut {cut})");
    }
}

/// The enclave cache's side of a shrinking update: the cached copy is
/// reallocated too, so enclave memory comes back to where it started.
#[test]
fn shrinking_updates_give_back_every_cached_byte() {
    let enclave = EnclaveBuilder::new("cache-shrink").build();
    let config = Config::shield_opt().with_shards(1).with_cache(1 << 16);
    let store = ShieldStore::new(std::sync::Arc::clone(&enclave), config).unwrap();
    let start = enclave.memory().live_bytes();
    for _ in 0..1000 {
        store.set(b"key", &[1; 512]).unwrap();
        store.set(b"key", &[2; 16]).unwrap();
        store.delete(b"key").unwrap();
    }
    assert_eq!(enclave.memory().live_bytes(), start);
}
