//! Unit tests of the shard: op semantics, snapshots, batches, quarantine,
//! tenancy, TTL and quota. The tamper suites are in `tamper_tests`.

use super::*;
use crate::alloc::Handle;
use crate::config::Config;
use crate::entry;
use sgx_sim::enclave::EnclaveBuilder;
use sgx_sim::vclock;

pub(super) fn shard_with(cfg: Config) -> Shard {
    let enclave = EnclaveBuilder::new("shard-test").epc_bytes(4 << 20).build();
    let keys = Arc::new(StoreKeys::generate(&enclave));
    Shard::new(enclave, keys, cfg, Arc::default()).unwrap()
}

/// Runs `op` under the default tenant, unmetered: how these tests drive a
/// shard.
pub(super) fn run(s: &mut Shard, op: Op<'_>) -> Result<Reply> {
    s.execute(crate::tenant::DEFAULT_TENANT, None, op)
}

pub(super) fn small_cfg() -> Config {
    Config::shield_opt().buckets(64).mac_hashes(16).with_shards(1)
}

/// The last entry a walk of the main table reaches.
pub(super) fn last_entry(s: &Shard) -> Handle {
    s.main_table().unwrap().entries().last().unwrap().1.unwrap().handle
}

#[test]
fn set_get_roundtrip() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    run(&mut s, Op::set(b"alpha", b"one")).unwrap();
    run(&mut s, Op::set(b"beta", b"two")).unwrap();
    assert_eq!(run(&mut s, Op::Get(b"alpha")).unwrap().value().unwrap(), b"one");
    assert_eq!(run(&mut s, Op::Get(b"beta")).unwrap().value().unwrap(), b"two");
    assert_eq!(run(&mut s, Op::Get(b"gamma")), Ok(Reply::Value(None)));
    assert_eq!(s.len(), 2);
    vclock::reset();
}

#[test]
fn update_overwrites_and_bumps_counter() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    run(&mut s, Op::set(b"k", b"v1")).unwrap();
    run(&mut s, Op::set(b"k", b"v2-longer-than-before")).unwrap();
    assert_eq!(run(&mut s, Op::Get(b"k")).unwrap().value().unwrap(), b"v2-longer-than-before");
    assert_eq!(s.len(), 1);
    assert_eq!(s.stats().inserts, 1);
    assert_eq!(s.stats().inplace_updates + s.stats().realloc_updates, 1);
    vclock::reset();
}

#[test]
fn in_place_vs_realloc_updates() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    run(&mut s, Op::set(b"k", &[0u8; 10])).unwrap();
    run(&mut s, Op::set(b"k", &[1u8; 11])).unwrap(); // same size class
    assert_eq!(s.stats().inplace_updates, 1);
    run(&mut s, Op::set(b"k", &[2u8; 500])).unwrap(); // outgrows class
    assert_eq!(s.stats().realloc_updates, 1);
    assert_eq!(run(&mut s, Op::Get(b"k")).unwrap().value().unwrap(), vec![2u8; 500]);
    vclock::reset();
}

#[test]
fn delete_removes() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    run(&mut s, Op::set(b"k", b"v")).unwrap();
    assert!(run(&mut s, Op::Delete(b"k")).unwrap().deleted());
    assert_eq!(run(&mut s, Op::Get(b"k")), Ok(Reply::Value(None)));
    assert_eq!(run(&mut s, Op::Delete(b"k")), Ok(Reply::Deleted(false)));
    assert_eq!(s.len(), 0);
    vclock::reset();
}

#[test]
fn chains_survive_many_colliding_keys() {
    // A single bucket forces every key into one chain.
    let cfg = Config::shield_opt().buckets(1).mac_hashes(1);
    let mut s = shard_with(cfg);
    vclock::reset();
    for i in 0..50u32 {
        run(&mut s, Op::set(format!("key-{i}").as_bytes(), format!("val-{i}").as_bytes())).unwrap();
    }
    for i in 0..50u32 {
        assert_eq!(
            run(&mut s, Op::Get(format!("key-{i}").as_bytes())).unwrap().value().unwrap(),
            format!("val-{i}").as_bytes()
        );
    }
    // Delete odd keys and re-check.
    for i in (1..50u32).step_by(2) {
        assert!(run(&mut s, Op::Delete(format!("key-{i}").as_bytes())).unwrap().deleted());
    }
    for i in 0..50u32 {
        let found = run(&mut s, Op::Get(format!("key-{i}").as_bytes())).unwrap().value();
        assert_eq!(found.is_some(), i % 2 == 0);
    }
    vclock::reset();
}

#[test]
fn append_and_increment() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    assert_eq!(
        run(&mut s, Op::Append { key: b"log", suffix: b"hello " }).unwrap().appended().len(),
        6
    );
    assert_eq!(
        run(&mut s, Op::Append { key: b"log", suffix: b"world" }).unwrap().appended().len(),
        11
    );
    assert_eq!(run(&mut s, Op::Get(b"log")).unwrap().value().unwrap(), b"hello world");

    assert_eq!(run(&mut s, Op::Increment { key: b"ctr", delta: 5 }).unwrap().counter(), 5);
    assert_eq!(run(&mut s, Op::Increment { key: b"ctr", delta: -2 }).unwrap().counter(), 3);
    assert_eq!(run(&mut s, Op::Get(b"ctr")).unwrap().value().unwrap(), b"3");

    run(&mut s, Op::set(b"text", b"not a number")).unwrap();
    assert_eq!(run(&mut s, Op::Increment { key: b"text", delta: 1 }), Err(Error::ValueNotNumeric));
    vclock::reset();
}

#[test]
fn increment_overflow_detected() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    run(&mut s, Op::set(b"c", i64::MAX.to_string().as_bytes())).unwrap();
    assert_eq!(run(&mut s, Op::Increment { key: b"c", delta: 1 }), Err(Error::NumericOverflow));
    vclock::reset();
}

#[test]
fn key_hint_reduces_decryptions() {
    // One bucket, many keys: without hints, every search decrypts the
    // whole chain; with hints it decrypts ~1/256 of it (Fig. 9).
    let n = 64u32;
    let mut with_hint = shard_with(Config::shield_opt().buckets(1).mac_hashes(1));
    let mut without =
        shard_with(Config { key_hint: false, ..Config::shield_opt() }.buckets(1).mac_hashes(1));
    vclock::reset();
    for s in [&mut with_hint, &mut without] {
        for i in 0..n {
            run(s, Op::set(format!("key-{i}").as_bytes(), b"v")).unwrap();
        }
        s.reset_stats();
        for i in 0..n {
            run(s, Op::Get(format!("key-{i}").as_bytes())).unwrap().value().unwrap();
        }
    }
    assert!(
        with_hint.stats().key_decryptions * 4 < without.stats().key_decryptions,
        "hints: {} vs no hints: {}",
        with_hint.stats().key_decryptions,
        without.stats().key_decryptions
    );
    vclock::reset();
}

#[test]
fn integrity_violation_detected_on_value_tamper() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    run(&mut s, Op::set(b"victim", b"original-value")).unwrap();
    // Corrupt the entry ciphertext in untrusted memory.
    let handle = last_entry(&s);
    let main = s.main_table_mut().unwrap();
    main.heap.bytes_at_mut(handle, entry::HEADER_LEN, 1)[0] ^= 0xff;
    assert!(matches!(run(&mut s, Op::Get(b"victim")), Err(Error::IntegrityViolation { .. })));
    vclock::reset();
}

#[test]
fn integrity_violation_detected_on_entry_removal() {
    // Unlinking an entry from the chain (availability attack on the
    // index) must be caught when the victim key is looked up: the
    // miss-path consistency check compares chain length against the
    // MAC chain. Other keys keep working (they prove themselves).
    let cfg = Config::shield_opt().buckets(1).mac_hashes(1);
    let mut s = shard_with(cfg);
    vclock::reset();
    run(&mut s, Op::set(b"a", b"1")).unwrap();
    run(&mut s, Op::set(b"b", b"2")).unwrap(); // chain head: b -> a
                                               // Drop the chain head ("b") behind the store's back.
    let main = s.main_table_mut().unwrap();
    main.heads[0] = main.chain(0).next().unwrap().unwrap().header.next;
    // The surviving key still reads correctly.
    assert_eq!(run(&mut s, Op::Get(b"a")).unwrap().value().unwrap(), b"1");
    // The unlinked key surfaces as tampering, not a silent miss.
    assert!(matches!(run(&mut s, Op::Get(b"b")), Err(Error::IntegrityViolation { .. })));
    // Inserting into the corrupted bucket is refused too.
    assert!(matches!(run(&mut s, Op::set(b"c", b"3")), Err(Error::IntegrityViolation { .. })));
    vclock::reset();
}

#[test]
fn entry_removal_without_mac_bucket_detected_by_set_hash() {
    // Without MAC bucketing the gather walks the chain itself, so an
    // unlink changes the recomputed set hash for ANY access.
    let cfg = Config { mac_bucket: false, ..Config::shield_opt() }.buckets(1).mac_hashes(1);
    let mut s = shard_with(cfg);
    vclock::reset();
    run(&mut s, Op::set(b"a", b"1")).unwrap();
    run(&mut s, Op::set(b"b", b"2")).unwrap();
    let main = s.main_table_mut().unwrap();
    main.heads[0] = main.chain(0).next().unwrap().unwrap().header.next;
    assert!(matches!(run(&mut s, Op::Get(b"a")), Err(Error::IntegrityViolation { .. })));
    vclock::reset();
}

#[test]
fn snapshot_freeze_serves_reads_and_absorbs_writes() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    run(&mut s, Op::set(b"stable", b"before")).unwrap();
    run(&mut s, Op::set(b"mutated", b"before")).unwrap();
    let frozen = s.freeze();
    assert!(s.is_snapshotting());

    // Reads hit the frozen table.
    assert_eq!(run(&mut s, Op::Get(b"stable")).unwrap().value().unwrap(), b"before");
    // Writes land in the temp table and shadow the frozen value.
    run(&mut s, Op::set(b"mutated", b"after")).unwrap();
    run(&mut s, Op::set(b"fresh", b"new")).unwrap();
    assert_eq!(run(&mut s, Op::Get(b"mutated")).unwrap().value().unwrap(), b"after");
    assert_eq!(run(&mut s, Op::Get(b"fresh")).unwrap().value().unwrap(), b"new");
    // Deletes are tombstoned.
    assert!(run(&mut s, Op::Delete(b"stable")).unwrap().deleted());
    assert_eq!(run(&mut s, Op::Get(b"stable")), Ok(Reply::Value(None)));

    // The frozen table is unchanged throughout.
    assert_eq!(frozen.count, 2);

    drop(frozen);
    s.unfreeze().unwrap();
    assert!(!s.is_snapshotting());
    assert_eq!(run(&mut s, Op::Get(b"mutated")).unwrap().value().unwrap(), b"after");
    assert_eq!(run(&mut s, Op::Get(b"fresh")).unwrap().value().unwrap(), b"new");
    assert_eq!(run(&mut s, Op::Get(b"stable")), Ok(Reply::Value(None)));
    assert_eq!(s.len(), 2);
    vclock::reset();
}

#[test]
fn unfreeze_fails_while_writer_active() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    run(&mut s, Op::set(b"k", b"v")).unwrap();
    let frozen = s.freeze();
    assert!(matches!(s.unfreeze(), Err(Error::Persistence(_))));
    drop(frozen);
    s.unfreeze().unwrap();
    assert_eq!(run(&mut s, Op::Get(b"k")).unwrap().value().unwrap(), b"v");
    vclock::reset();
}

#[test]
fn snapshot_set_then_delete_then_set_roundtrips() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    run(&mut s, Op::set(b"k", b"v0")).unwrap();
    let frozen = s.freeze();
    assert!(run(&mut s, Op::Delete(b"k")).unwrap().deleted());
    run(&mut s, Op::set(b"k", b"v1")).unwrap();
    assert_eq!(run(&mut s, Op::Get(b"k")).unwrap().value().unwrap(), b"v1");
    drop(frozen);
    s.unfreeze().unwrap();
    assert_eq!(run(&mut s, Op::Get(b"k")).unwrap().value().unwrap(), b"v1");
    assert_eq!(s.len(), 1);
    vclock::reset();
}

#[test]
fn cache_serves_hot_reads() {
    let mut s = shard_with(small_cfg().with_cache(1 << 16));
    s.enable_cache(1 << 16);
    vclock::reset();
    run(&mut s, Op::set(b"hot", b"value")).unwrap();
    for _ in 0..10 {
        assert_eq!(run(&mut s, Op::Get(b"hot")).unwrap().value().unwrap(), b"value");
    }
    assert!(s.stats().cache_hits >= 9, "cache hits: {}", s.stats().cache_hits);
    // Updates keep the cache coherent.
    run(&mut s, Op::set(b"hot", b"value2")).unwrap();
    assert_eq!(run(&mut s, Op::Get(b"hot")).unwrap().value().unwrap(), b"value2");
    assert!(run(&mut s, Op::Delete(b"hot")).unwrap().deleted());
    assert_eq!(run(&mut s, Op::Get(b"hot")), Ok(Reply::Value(None)));
    vclock::reset();
}

#[test]
fn empty_key_rejected() {
    let mut s = shard_with(small_cfg());
    assert!(matches!(run(&mut s, Op::set(b"", b"v")), Err(Error::OversizeItem { .. })));
}

#[test]
fn multi_set_multi_get_roundtrip_with_misses() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    let items: Vec<(Vec<u8>, Vec<u8>)> = (0..20u32)
        .map(|i| (format!("key-{i}").into_bytes(), format!("val-{i}").into_bytes()))
        .collect();
    let refs: Vec<(&[u8], &[u8])> =
        items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    run(&mut s, Op::MultiSet { items: &refs, expires_at: 0 }).unwrap();

    let mut lookups: Vec<&[u8]> = items.iter().map(|(k, _)| k.as_slice()).collect();
    lookups.push(b"absent-key");
    let got = run(&mut s, Op::MultiGet(&lookups)).unwrap().values();
    assert_eq!(got.len(), 21);
    for (i, (_, v)) in items.iter().enumerate() {
        assert_eq!(got[i].as_deref(), Some(v.as_slice()));
    }
    assert_eq!(got[20], None);
    assert_eq!(s.stats().batches, 2);
    assert_eq!(s.stats().batch_ops, 41);
    vclock::reset();
}

#[test]
fn multi_set_duplicate_keys_last_write_wins() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    run(
        &mut s,
        Op::MultiSet {
            items: &[
                (b"dup".as_slice(), b"first".as_slice()),
                (b"other", b"x"),
                (b"dup", b"second"),
                (b"dup", b"third"),
            ],
            expires_at: 0,
        },
    )
    .unwrap();
    assert_eq!(run(&mut s, Op::Get(b"dup")).unwrap().value().unwrap(), b"third");
    assert_eq!(s.len(), 2);
    vclock::reset();
}

#[test]
fn batch_on_one_bucket_set_verifies_once() {
    // One bucket => one bucket set: the whole batch shares a single
    // set hash, so the batched path derives it exactly once.
    let mut s = shard_with(Config::shield_opt().buckets(1).mac_hashes(1));
    vclock::reset();
    let items: Vec<(Vec<u8>, Vec<u8>)> =
        (0..16u32).map(|i| (format!("k{i}").into_bytes(), b"v".to_vec())).collect();
    let refs: Vec<(&[u8], &[u8])> =
        items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();

    s.reset_stats();
    run(&mut s, Op::MultiSet { items: &refs, expires_at: 0 }).unwrap();
    assert_eq!(s.stats().integrity_verifications, 1);
    assert_eq!(s.stats().batch_verifications_saved, 15);
    assert_eq!(s.stats().batch_hash_updates_saved, 15);

    let lookups: Vec<&[u8]> = items.iter().map(|(k, _)| k.as_slice()).collect();
    s.reset_stats();
    let got = run(&mut s, Op::MultiGet(&lookups)).unwrap().values();
    assert!(got.iter().all(|r| r.is_some()));
    assert_eq!(s.stats().integrity_verifications, 1);
    assert_eq!(s.stats().batch_verifications_saved, 15);
    vclock::reset();
}

#[test]
fn batched_and_per_op_paths_agree() {
    let mut batched = shard_with(small_cfg());
    let mut per_op = shard_with(small_cfg());
    vclock::reset();
    let items: Vec<(Vec<u8>, Vec<u8>)> = (0..64u32)
        .map(|i| (format!("key-{i}").into_bytes(), format!("v{}", i * 7).into_bytes()))
        .collect();
    let refs: Vec<(&[u8], &[u8])> =
        items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
    run(&mut batched, Op::MultiSet { items: &refs, expires_at: 0 }).unwrap();
    for (k, v) in &items {
        run(&mut per_op, Op::set(k, v)).unwrap();
    }
    for (k, v) in &items {
        assert_eq!(run(&mut batched, Op::Get(k)).unwrap().value().unwrap(), *v);
        assert_eq!(run(&mut per_op, Op::Get(k)).unwrap().value().unwrap(), *v);
    }
    assert_eq!(batched.len(), per_op.len());
    vclock::reset();
}

#[test]
fn multi_get_detects_tampering() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    for i in 0..8u32 {
        run(&mut s, Op::set(format!("k{i}").as_bytes(), b"value")).unwrap();
    }
    use crate::testing::{EntryField, TamperOp};
    assert!(s.tamper(TamperOp::Field(EntryField::Any), 12345));
    let lookups: Vec<Vec<u8>> = (0..8u32).map(|i| format!("k{i}").into_bytes()).collect();
    let refs: Vec<&[u8]> = lookups.iter().map(|k| k.as_slice()).collect();
    assert!(matches!(run(&mut s, Op::MultiGet(&refs)), Err(Error::IntegrityViolation { .. })));
    vclock::reset();
}

#[test]
fn batched_ops_during_snapshot_fall_back() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    run(&mut s, Op::set(b"old", b"frozen-value")).unwrap();
    let frozen = s.freeze();
    run(
        &mut s,
        Op::MultiSet { items: &[(b"new".as_slice(), b"temp-value".as_slice())], expires_at: 0 },
    )
    .unwrap();
    let got = run(&mut s, Op::MultiGet(&[b"old".as_slice(), b"new", b"none"])).unwrap().values();
    assert_eq!(got[0].as_deref(), Some(b"frozen-value".as_slice()));
    assert_eq!(got[1].as_deref(), Some(b"temp-value".as_slice()));
    assert_eq!(got[2], None);
    drop(frozen);
    s.unfreeze().unwrap();
    assert_eq!(run(&mut s, Op::Get(b"new")).unwrap().value().unwrap(), b"temp-value");
    vclock::reset();
}

#[test]
fn multi_set_rejects_invalid_item_before_mutating() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    let r = run(
        &mut s,
        Op::MultiSet {
            items: &[(b"good".as_slice(), b"v".as_slice()), (b"", b"v")],
            expires_at: 0,
        },
    );
    assert!(matches!(r, Err(Error::OversizeItem { .. })));
    // Validation happens before any write: nothing landed.
    assert_eq!(s.len(), 0);
    vclock::reset();
}

#[test]
fn quarantine_isolates_bucket_set_after_violation() {
    let mut s = shard_with(small_cfg().with_ordered_index().with_quarantine());
    vclock::reset();
    for i in 0..32u32 {
        run(&mut s, Op::set(format!("k{i}").as_bytes(), format!("v{i}").as_bytes())).unwrap();
    }
    use crate::testing::{EntryField, TamperOp};
    assert!(s.tamper(TamperOp::Field(EntryField::Any), 7));
    // First sweep: exactly one key (the corrupted entry) surfaces
    // the violation; later keys in its bucket set fail closed as
    // quarantined, every other partition keeps serving.
    let mut victim_set = None;
    for i in 0..32u32 {
        let k = format!("k{i}");
        match run(&mut s, Op::Get(k.as_bytes())) {
            Ok(v) => assert_eq!(v.value(), Some(format!("v{i}").into_bytes())),
            Err(Error::IntegrityViolation { .. }) => {
                assert!(victim_set.is_none(), "only the tampered entry itself fails open");
                victim_set = Some(s.set_of_key(k.as_bytes()));
            }
            Err(Error::Quarantined { .. }) => {
                assert_eq!(Some(s.set_of_key(k.as_bytes())), victim_set);
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    let victim_set = victim_set.expect("the sweep visits the tampered entry");
    let (whole, sets, violations) = s.quarantine_state();
    assert!(!whole);
    assert_eq!(sets, vec![victim_set]);
    assert_eq!(violations, 1);
    // Second sweep: Quarantined on the poisoned partition only, and
    // never a wrong value anywhere.
    for i in 0..32u32 {
        let k = format!("k{i}");
        let in_set = s.set_of_key(k.as_bytes()) == victim_set;
        match run(&mut s, Op::Get(k.as_bytes())) {
            Ok(v) => {
                assert!(!in_set);
                assert_eq!(v.value(), Some(format!("v{i}").into_bytes()));
            }
            Err(Error::Quarantined { .. }) => assert!(in_set),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    // Every op class fails closed on the quarantined partition.
    let qk = (0..32u32)
        .map(|i| format!("k{i}"))
        .find(|k| s.set_of_key(k.as_bytes()) == victim_set)
        .unwrap();
    assert!(matches!(run(&mut s, Op::set(qk.as_bytes(), b"x")), Err(Error::Quarantined { .. })));
    assert!(matches!(run(&mut s, Op::Delete(qk.as_bytes())), Err(Error::Quarantined { .. })));
    assert!(matches!(
        run(&mut s, Op::Append { key: qk.as_bytes(), suffix: b"x" }),
        Err(Error::Quarantined { .. })
    ));
    assert!(matches!(
        run(&mut s, Op::Increment { key: qk.as_bytes(), delta: 1 }),
        Err(Error::Quarantined { .. })
    ));
    assert!(matches!(
        s.execute(0, None, Op::Exists(qk.as_bytes())),
        Err(Error::Quarantined { .. })
    ));
    assert!(matches!(run(&mut s, Op::MultiGet(&[qk.as_bytes()])), Err(Error::Quarantined { .. })));
    assert!(matches!(
        run(&mut s, Op::MultiSet { items: &[(qk.as_bytes(), b"x".as_slice())], expires_at: 0 }),
        Err(Error::Quarantined { .. })
    ));
    // Scans span partitions, so any quarantined set fails them.
    assert!(matches!(
        s.execute(0, None, Op::ScanPrefix { prefix: b"k", limit: 100 }),
        Err(Error::Quarantined { .. })
    ));
    assert!(s.stats().quarantine_rejections > 0);
    vclock::reset();
}

#[test]
fn quarantine_escalates_to_whole_shard_on_repeat_violation() {
    let mut s = shard_with(small_cfg().with_quarantine());
    vclock::reset();
    let keys: Vec<String> = (0..32).map(|i| format!("k{i}")).collect();
    for k in &keys {
        run(&mut s, Op::set(k.as_bytes(), b"value")).unwrap();
    }
    use crate::testing::{EntryField, TamperOp};
    // First violation: one bucket set quarantined.
    assert!(s.tamper(TamperOp::Field(EntryField::Any), 1));
    for k in &keys {
        let _ = run(&mut s, Op::Get(k.as_bytes()));
    }
    let (whole, sets, violations) = s.quarantine_state();
    assert!(!whole);
    assert_eq!((sets.len(), violations), (1, 1));
    // Keep corrupting entries until one lands outside the
    // quarantined partition; that second observed violation must
    // escalate the quarantine to the whole shard.
    for seed in 2..200u64 {
        assert!(s.tamper(TamperOp::Field(EntryField::Any), seed));
        for k in &keys {
            let _ = run(&mut s, Op::Get(k.as_bytes()));
        }
        if s.quarantine_state().0 {
            break;
        }
    }
    let (whole, _, violations) = s.quarantine_state();
    assert!(whole, "a violation outside the first set must escalate to the shard");
    assert_eq!(violations, 2);
    // Now every key fails closed, whatever its partition.
    for k in &keys {
        assert!(matches!(run(&mut s, Op::Get(k.as_bytes())), Err(Error::Quarantined { .. })));
    }
    vclock::reset();
}

#[test]
fn quarantine_escalates_during_snapshot_freeze() {
    let mut s = shard_with(small_cfg().with_quarantine());
    vclock::reset();
    for i in 0..8u32 {
        run(&mut s, Op::set(format!("k{i}").as_bytes(), b"value")).unwrap();
    }
    use crate::testing::{EntryField, TamperOp};
    assert!(s.tamper(TamperOp::Field(EntryField::Any), 99));
    // With a snapshot overlay live, writes span the temp table, so
    // per-set isolation cannot be trusted: the first violation
    // quarantines the whole shard.
    let frozen = s.freeze();
    for i in 0..8u32 {
        let _ = run(&mut s, Op::Get(format!("k{i}").as_bytes()));
    }
    assert!(s.quarantine_state().0, "freeze-time violation must quarantine the shard");
    drop(frozen);
    vclock::reset();
}

#[test]
fn quarantine_requires_opt_in() {
    // Without Config::quarantine the shard keeps reporting the raw
    // verification outcome on every access (differential harnesses
    // depend on that), and records no quarantine state.
    let mut s = shard_with(small_cfg());
    vclock::reset();
    for i in 0..8u32 {
        run(&mut s, Op::set(format!("k{i}").as_bytes(), b"value")).unwrap();
    }
    use crate::testing::{EntryField, TamperOp};
    assert!(s.tamper(TamperOp::Field(EntryField::Any), 3));
    let mut violations = 0;
    for _ in 0..2 {
        for i in 0..8u32 {
            match run(&mut s, Op::Get(format!("k{i}").as_bytes())) {
                Ok(_) => {}
                Err(Error::IntegrityViolation { .. }) => violations += 1,
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
    }
    assert_eq!(violations, 2, "same violation reported on every access");
    assert_eq!(s.quarantine_state(), (false, Vec::new(), 0));
    assert_eq!(s.stats().quarantine_rejections, 0);
    vclock::reset();
}

#[test]
fn mac_bucket_and_chain_gathers_agree() {
    // The same workload with and without MAC bucketing must behave
    // identically (the MAC bucket is an optimization, not semantics).
    let mut with = shard_with(small_cfg());
    let mut without = shard_with(Config { mac_bucket: false, ..small_cfg() });
    vclock::reset();
    for i in 0..100u32 {
        let k = format!("k{i}");
        run(&mut with, Op::set(k.as_bytes(), k.as_bytes())).unwrap();
        run(&mut without, Op::set(k.as_bytes(), k.as_bytes())).unwrap();
    }
    for i in (0..100u32).step_by(3) {
        let k = format!("k{i}");
        assert!(run(&mut with, Op::Delete(k.as_bytes())).unwrap().deleted());
        assert!(run(&mut without, Op::Delete(k.as_bytes())).unwrap().deleted());
    }
    for i in 0..100u32 {
        let k = format!("k{i}");
        assert_eq!(run(&mut with, Op::Get(k.as_bytes())), run(&mut without, Op::Get(k.as_bytes())));
    }
    vclock::reset();
}

// -- tenancy, TTL, quota ------------------------------------------

use crate::tenant::{TenantQuota, TenantState, TenantUsage};

#[test]
fn tenants_are_isolated_namespaces() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    s.execute(1, None, Op::set(b"k", b"one")).unwrap();
    s.execute(2, None, Op::set(b"k", b"two")).unwrap();
    run(&mut s, Op::set(b"k", b"zero")).unwrap(); // tenant 0 sugar
    assert_eq!(s.execute(1, None, Op::Get(b"k")).unwrap().value().unwrap(), b"one");
    assert_eq!(s.execute(2, None, Op::Get(b"k")).unwrap().value().unwrap(), b"two");
    assert_eq!(run(&mut s, Op::Get(b"k")).unwrap().value().unwrap(), b"zero");
    assert_eq!(s.len(), 3, "same key in three namespaces = three entries");
    assert_eq!(s.execute(3, None, Op::Get(b"k")), Ok(Reply::Value(None)));
    assert_eq!(s.execute(1, None, Op::Delete(b"k")), Ok(Reply::Deleted(true)));
    assert_eq!(s.execute(1, None, Op::Get(b"k")), Ok(Reply::Value(None)));
    assert_eq!(
        s.execute(2, None, Op::Get(b"k")).unwrap().value().unwrap(),
        b"two",
        "delete stays in its namespace"
    );
    vclock::reset();
}

#[test]
fn cache_respects_tenant_namespaces() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    s.enable_cache(64 << 10);
    s.execute(1, None, Op::set(b"k", b"secret")).unwrap();
    assert_eq!(s.execute(1, None, Op::Get(b"k")).unwrap().value().unwrap(), b"secret");
    assert_eq!(s.execute(1, None, Op::Get(b"k")).unwrap().value().unwrap(), b"secret"); // cache hit
    assert!(s.stats().cache_hits >= 1);
    // Tenant 2's view of the same byte key must not touch tenant 1's
    // cached plaintext.
    assert_eq!(s.execute(2, None, Op::Get(b"k")), Ok(Reply::Value(None)));
    vclock::reset();
}

#[test]
fn ttl_lazy_expiry_and_sweep() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    let live = ttl::now_ns() + 3_600_000_000_000; // +1h
    s.execute(0, None, Op::set(b"eternal", b"e")).unwrap();
    s.execute(0, None, Op::Set { key: b"live", value: b"l", expires_at: live }).unwrap();
    s.execute(0, None, Op::Set { key: b"dead", value: b"d", expires_at: 1 }).unwrap(); // long expired
    assert_eq!(s.len(), 3);

    // Lazy expiry: reads hide the dead entry without mutating.
    assert_eq!(run(&mut s, Op::Get(b"dead")), Ok(Reply::Value(None)));
    assert_eq!(s.stats().expired_lazy, 1);
    assert_eq!(s.len(), 3, "lazy expiry does not remove");
    assert_eq!(s.execute(0, None, Op::Exists(b"dead")), Ok(Reply::Exists(false)));

    // Delete of an expired entry is KeyNotFound *without* removal:
    // physical reap is the sweep's job (it gets WAL-logged there).
    assert_eq!(run(&mut s, Op::Delete(b"dead")), Ok(Reply::Deleted(false)));
    assert_eq!(s.len(), 3);

    let reg = TenantRegistry::new();
    let reaped = s.sweep_expired(ttl::now_ns(), &reg);
    assert_eq!(reaped, vec![(0, b"dead".to_vec())]);
    assert_eq!(s.len(), 2);
    assert_eq!(s.stats().expired_swept, 1);
    assert_eq!(run(&mut s, Op::Get(b"eternal")).unwrap().value().unwrap(), b"e");
    assert_eq!(run(&mut s, Op::Get(b"live")).unwrap().value().unwrap(), b"l");
    vclock::reset();
}

#[test]
fn ttl_reset_on_set_and_cleared_by_merge_ops() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    let reg = TenantRegistry::new();

    // SET replaces the deadline wholesale (Redis semantics).
    s.execute(0, None, Op::Set { key: b"k", value: b"v1", expires_at: 1 }).unwrap();
    assert_eq!(run(&mut s, Op::Get(b"k")), Ok(Reply::Value(None)));
    run(&mut s, Op::set(b"k", b"v2")).unwrap();
    assert_eq!(
        run(&mut s, Op::Get(b"k")).unwrap().value().unwrap(),
        b"v2",
        "overwrite revives: deadline replaced"
    );

    // Append/increment clear any deadline: their WAL form is a plain
    // set of the produced value, which must replay deadline-free.
    let horizon = ttl::now_ns() + 3_600_000_000_000;
    s.execute(0, None, Op::Set { key: b"n", value: b"5", expires_at: horizon }).unwrap();
    assert_eq!(run(&mut s, Op::Increment { key: b"n", delta: 2 }).unwrap().counter(), 7);
    let far = ttl::now_ns() + 7_200_000_000_000; // past the old deadline
    assert!(s.sweep_expired(far, &reg).is_empty(), "increment cleared the deadline");
    assert_eq!(run(&mut s, Op::Get(b"n")).unwrap().value().unwrap(), b"7");
    vclock::reset();
}

#[test]
fn quota_rejects_inserts_but_allows_updates() {
    let mut s = shard_with(small_cfg());
    vclock::reset();
    let entry_cost = (entry::HEADER_LEN + 1 + 3) as u64; // 1-byte key, 3-byte value
    let state = TenantState {
        quota: TenantQuota { max_bytes: 2 * entry_cost + 8, max_keys: 2, weight: 1 },
        usage: Arc::new(TenantUsage::default()),
    };

    s.execute(7, Some(&state), Op::set(b"a", b"aaa")).unwrap();
    s.execute(7, Some(&state), Op::set(b"b", b"bbb")).unwrap();
    assert_eq!(
        s.execute(7, Some(&state), Op::set(b"c", b"ccc")),
        Err(Error::QuotaExceeded { tenant: 7 }),
        "third insert exceeds max_keys"
    );
    assert_eq!(s.stats().quota_rejections, 1);
    assert_eq!(s.len(), 2, "rejected insert left no residue");

    // Same-size update is free; growth must fit the byte budget.
    s.execute(7, Some(&state), Op::set(b"a", b"AAA")).unwrap();
    assert_eq!(
        s.execute(7, Some(&state), Op::set(b"a", vec![0u8; 64].as_slice())),
        Err(Error::QuotaExceeded { tenant: 7 })
    );
    assert_eq!(
        s.execute(7, Some(&state), Op::Get(b"a")).unwrap().value().unwrap(),
        b"AAA",
        "failed grow left old value"
    );

    // Deleting frees budget for a new insert.
    assert_eq!(s.execute(7, Some(&state), Op::Delete(b"b")), Ok(Reply::Deleted(true)));
    s.execute(7, Some(&state), Op::set(b"c", b"ccc")).unwrap();
    assert_eq!(state.usage.used_keys.load(AtomicOrdering::SeqCst), 2);
    assert_eq!(state.usage.used_bytes.load(AtomicOrdering::SeqCst), 2 * entry_cost);
    vclock::reset();
}

#[test]
fn tenant_field_rewrite_fails_closed() {
    // An attacker re-stitching an entry into another namespace by
    // editing the plaintext tenant field must trip verification under
    // *both* the claimed and the true owner's keys.
    let mut cfg = small_cfg();
    cfg = cfg.buckets(1);
    let mut s = shard_with(cfg);
    vclock::reset();
    s.execute(1, None, Op::set(b"k", b"owned")).unwrap();

    let handle = last_entry(&s);
    let main = s.main_table_mut().unwrap();
    main.heap.bytes_at_mut(handle, entry::OFF_TENANT, 4)[0] ^= 0x03;

    assert!(matches!(s.execute(2, None, Op::Get(b"k")), Err(Error::IntegrityViolation { .. })));
    assert!(matches!(s.execute(1, None, Op::Get(b"k")), Err(Error::IntegrityViolation { .. })));
    vclock::reset();
}
