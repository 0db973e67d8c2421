//! Property-based tests over the full stack: the store against the
//! reference model (`shieldstore::model`),
//! codec roundtrips under arbitrary inputs, and crypto invariants at the
//! integration level.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::enclave::EnclaveBuilder;
use shieldstore::model::Model;
use shieldstore::{Config, Error, Op, ShieldStore};
use std::sync::Arc;

fn tiny_store(seed: u64, key_hint: bool, mac_bucket: bool) -> Arc<ShieldStore> {
    let enclave = EnclaveBuilder::new("prop").epc_bytes(2 << 20).seed(seed).build();
    Arc::new(
        ShieldStore::new(
            enclave,
            Config { key_hint, mac_bucket, ..Config::shield_opt() }
                // Few buckets: collisions and long chains on purpose.
                .buckets(8)
                .mac_hashes(4)
                .with_shards(2),
        )
        .unwrap(),
    )
}

/// An operation in the model-based test (owned, as proptest needs).
#[derive(Debug, Clone)]
enum ModelOp {
    Set(Vec<u8>, Vec<u8>),
    Get(Vec<u8>),
    Delete(Vec<u8>),
    Append(Vec<u8>, Vec<u8>),
}

/// One step of the batch-equivalence test: a whole batch per step.
#[derive(Debug, Clone)]
enum BatchOp {
    MultiSet(Vec<(Vec<u8>, Vec<u8>)>),
    MultiGet(Vec<Vec<u8>>),
}

fn batch_strategy() -> impl Strategy<Value = BatchOp> {
    // Tiny key space: batches collide with each other *and* internally
    // (duplicate keys inside one batch are the interesting case).
    let key = pvec(0u8..4, 1..4);
    let value = pvec(any::<u8>(), 0..32);
    prop_oneof![
        pvec((key.clone(), value), 1..10).prop_map(BatchOp::MultiSet),
        pvec(key, 1..10).prop_map(BatchOp::MultiGet),
    ]
}

fn op_strategy() -> impl Strategy<Value = ModelOp> {
    // Small key space so operations collide heavily.
    let key = pvec(0u8..4, 1..4);
    let value = pvec(any::<u8>(), 0..64);
    prop_oneof![
        (key.clone(), value.clone()).prop_map(|(k, v)| ModelOp::Set(k, v)),
        key.clone().prop_map(ModelOp::Get),
        key.clone().prop_map(ModelOp::Delete),
        (key, pvec(any::<u8>(), 1..16)).prop_map(|(k, s)| ModelOp::Append(k, s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Under any operation sequence, every optimization configuration of
    /// the store behaves exactly like the model.
    #[test]
    fn store_equals_model(ops in pvec(op_strategy(), 1..120), key_hint: bool, mac_bucket: bool) {
        let store = tiny_store(1, key_hint, mac_bucket);
        let mut model = Model::default();
        for op in &ops {
            let op = match op {
                ModelOp::Set(k, v) => Op::set(k, v),
                ModelOp::Get(k) => Op::Get(k),
                ModelOp::Delete(k) => Op::Delete(k),
                ModelOp::Append(k, s) => Op::Append { key: k, suffix: s },
            };
            let got = store.execute(0, op).map_err(|e| TestCaseError::fail(format!("{op:?}: {e}")))?;
            prop_assert_eq!(Some(got), model.apply(0, op));
            prop_assert!(model.entries().contains(&store.len()));
        }
        // Final sweep: everything matches.
        model.check_store(&store).map_err(TestCaseError::fail)?;
    }

    /// Snapshot + restore is lossless for any contents, and exercises
    /// arbitrary binary keys and values through the full seal pipeline.
    #[test]
    fn snapshot_restore_roundtrip(
        entries in pvec((pvec(any::<u8>(), 1..24), pvec(any::<u8>(), 0..100)), 0..40),
        seed in 0u64..1000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "ss-prop-{}-{seed}", std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("prop.db");
        let ctr = sgx_sim::counter::PersistentCounter::open(dir.join("ctr")).unwrap();

        let cfg = || Config::shield_opt().buckets(16).mac_hashes(8).with_shards(2);
        let enclave = EnclaveBuilder::new("prop-snap").epc_bytes(2 << 20).seed(seed).build();
        let store = ShieldStore::new(enclave, cfg()).unwrap();
        let mut model = Model::default();
        for (k, v) in &entries {
            store.set(k, v).unwrap();
            model.apply(0, Op::set(k, v));
        }
        store.snapshot_blocking(&snap, &ctr).unwrap();

        let enclave = EnclaveBuilder::new("prop-snap").epc_bytes(2 << 20).seed(seed).build();
        let restored = ShieldStore::restore(enclave, cfg(), &snap, &ctr).unwrap();
        model.check_store(&restored).map_err(TestCaseError::fail)?;
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Batched operations are observably equivalent to per-op loops for
    /// any sequence of batches, including batches that repeat a key:
    /// `multi_set` applies items in order (last write wins) and
    /// `multi_get` answers every position, duplicates included.
    #[test]
    fn batched_ops_equal_per_op_loops(script in pvec(batch_strategy(), 1..16)) {
        let batched = tiny_store(3, true, true);
        let looped = tiny_store(3, true, true);
        for op in script {
            match op {
                BatchOp::MultiSet(items) => {
                    let refs: Vec<(&[u8], &[u8])> =
                        items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
                    batched.multi_set(&refs).unwrap();
                    for (k, v) in &items {
                        looped.set(k, v).unwrap();
                    }
                }
                BatchOp::MultiGet(keys) => {
                    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                    let got = batched.multi_get(&refs).unwrap();
                    prop_assert_eq!(got.len(), keys.len());
                    for (k, g) in keys.iter().zip(got) {
                        let expected = match looped.get(k) {
                            Ok(v) => Some(v),
                            Err(Error::KeyNotFound) => None,
                            Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                        };
                        prop_assert_eq!(g, expected);
                    }
                }
            }
            prop_assert_eq!(batched.len(), looped.len());
        }
    }

    /// Flipping any single byte of any entry in untrusted memory is
    /// detected: either the key's own lookup or a full verification pass
    /// reports an integrity violation (never silently wrong data).
    #[test]
    fn any_single_byte_tamper_detected(
        flip_seed in any::<u64>(),
    ) {
        let store = tiny_store(2, true, true);
        let keys: Vec<Vec<u8>> = (0..20u8).map(|i| vec![b'k', i]).collect();
        for (i, k) in keys.iter().enumerate() {
            store.set(k, format!("value-{i}").as_bytes()).unwrap();
        }
        // Tamper one byte of one entry, chosen pseudo-randomly, via the
        // test-only untrusted memory hook.
        let tampered = store.tamper_any_entry_byte(flip_seed);
        prop_assume!(tampered); // some seeds map to shards without entries

        // Every key is now either still correct or reports tampering;
        // at least one must report it.
        let mut violations = 0;
        for (i, k) in keys.iter().enumerate() {
            match store.get(k) {
                Ok(v) => prop_assert_eq!(v, format!("value-{i}").into_bytes()),
                Err(Error::IntegrityViolation { .. }) => violations += 1,
                Err(Error::KeyNotFound) =>
                    return Err(TestCaseError::fail("tamper hid a key silently")),
                Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
            }
        }
        prop_assert!(violations > 0, "the flipped byte must surface somewhere");
    }
}
