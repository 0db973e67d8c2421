//! Storage-fault matrix: every durable-I/O call site must fail closed.
//!
//! The store's durability story ends at the disk, and disks fail in
//! more ways than "the bytes arrived": writes go short, fsync lies,
//! renames tear, directories forget. These tests drive a deterministic
//! [`FaultFs`] through the commit, rotation, and recovery paths and
//! check the two invariants the write-ahead log promises:
//!
//! * **Fail-closed**: the first failed durable operation poisons the
//!   writer — every later mutation answers
//!   [`shieldstore::Error::StorageFailed`] without changing anything, no
//!   silent retry, no re-acknowledgement of data the kernel may have
//!   dropped (the fsyncgate rule) — while reads keep serving the acked
//!   state.
//! * **Verified prefix ⊇ acked**: after a power cut, recovery replays a
//!   chain-verified prefix that contains every acknowledged write. The
//!   un-acked suffix may or may not survive (an fsync that lied leaves
//!   readable pages until power loss); it must never be wrong data.

use proptest::prelude::*;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use sgx_sim::storage::{FaultFs, FaultKind, FaultOp, FaultSpec, StorageFs};
use shieldstore::{Config, DurabilityPolicy, Error, ShieldStore};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ss-stfault-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn enclave(seed: u64) -> Arc<Enclave> {
    EnclaveBuilder::new("storage-faults").seed(seed).epc_bytes(8 << 20).build()
}

fn config() -> Config {
    Config::shield_opt()
        .buckets(64)
        .mac_hashes(16)
        .with_shards(2)
        .with_durability(DurabilityPolicy::Strict)
}

fn fault_store(seed: u64, wal_dir: &PathBuf) -> (Arc<FaultFs>, ShieldStore) {
    let ffs = Arc::new(FaultFs::new());
    let fs: Arc<dyn StorageFs> = Arc::clone(&ffs) as Arc<dyn StorageFs>;
    let store = ShieldStore::new_with_storage(enclave(seed), config(), fs).unwrap();
    store.attach_wal(wal_dir).unwrap();
    (ffs, store)
}

/// Faults a commit can hit: the log append and its group fsync.
const COMMIT_SITES: &[(FaultOp, &str, FaultKind)] = &[
    (FaultOp::Write, "wal-", FaultKind::Eio),
    (FaultOp::Write, "wal-", FaultKind::Enospc),
    (FaultOp::Write, "wal-", FaultKind::ShortWrite),
    (FaultOp::SyncData, "wal-", FaultKind::SyncFail),
    (FaultOp::SyncData, "wal-", FaultKind::Eio),
];

/// Faults rotation (snapshot + pin replacement) can hit on top.
const ROTATE_SITES: &[(FaultOp, &str, FaultKind)] = &[
    (FaultOp::Open, "wal-", FaultKind::Eio),
    (FaultOp::Write, "wal.pin", FaultKind::Eio),
    (FaultOp::SyncAll, "wal.pin", FaultKind::SyncFail),
    (FaultOp::Rename, "wal.pin", FaultKind::Eio),
    (FaultOp::Rename, "wal.pin", FaultKind::TornRename),
    (FaultOp::SyncDir, "", FaultKind::Eio),
    (FaultOp::Write, "snap", FaultKind::Enospc),
    (FaultOp::SyncAll, "snap", FaultKind::SyncFail),
    (FaultOp::Rename, "snap", FaultKind::TornRename),
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A fault at any commit call site poisons the writer: the faulted
    /// set and every later mutation answer `StorageFailed`, reads keep
    /// serving every acked key, and after a power cut recovery yields
    /// exactly the acked state (strict policy: every `Ok` was synced).
    #[test]
    fn commit_fault_poisons_writer_and_acked_survives_power_cut(
        site in 0..COMMIT_SITES.len(),
        pre in 1u64..8,
        fault_at in 1u64..4,
        post in 1u64..5,
        seed in 0u64..1000,
    ) {
        let dir = scratch("commit");
        let wal_dir = dir.join("wal");
        let (ffs, store) = fault_store(seed, &wal_dir);
        let mut acked: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for i in 0..pre {
            let (k, v) = (format!("pre-{i}").into_bytes(), format!("pv-{seed}-{i}").into_bytes());
            store.set(&k, &v).unwrap();
            acked.insert(k, v);
        }

        let (op, path, kind) = COMMIT_SITES[site];
        // Fire within the post-fault op window (each strict set makes
        // exactly one matching append and one matching sync).
        let fault_at = (fault_at - 1) % post + 1;
        ffs.inject(FaultSpec { op, path_substr: path.into(), nth: fault_at, kind });

        let mut poisoned = false;
        for i in 0..post {
            let (k, v) = (format!("post-{i}").into_bytes(), format!("qv-{seed}-{i}").into_bytes());
            match store.set(&k, &v) {
                Ok(()) if !poisoned => { acked.insert(k, v); }
                Ok(()) => prop_assert!(false, "write accepted after the writer poisoned"),
                Err(Error::StorageFailed) => poisoned = true,
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }
        prop_assert!(poisoned, "armed fault never fired (nth={fault_at}, post={post})");
        prop_assert_eq!(store.snapshot().storage_failed, 1);

        // Reads degrade gracefully: every acked key still serves.
        for (k, v) in &acked {
            prop_assert_eq!(&store.get(k).unwrap(), v);
        }

        // Power loss drops everything unsynced; recovery replays the
        // verified prefix, which under strict policy is exactly acked.
        ffs.power_cut().unwrap();
        drop(store);
        let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
        let recovered = ShieldStore::recover_with_storage(
            enclave(seed),
            Arc::new(FaultFs::new()) as Arc<dyn StorageFs>,
            config(),
            None,
            &counter,
            &wal_dir,
        )
        .unwrap();
        prop_assert_eq!(recovered.len(), acked.len());
        for (k, v) in &acked {
            prop_assert_eq!(&recovered.get(k).unwrap(), v);
        }
        // The recovered writer is healthy again.
        recovered.set(b"after", b"ok").unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A fault anywhere in the rotation protocol (snapshot write, pin
    /// replacement, directory syncs) leaves recovery able to reproduce
    /// every acked write — from the new snapshot if it became durable,
    /// from the old snapshot plus retained log segments otherwise.
    #[test]
    fn rotation_fault_never_loses_acked_writes(
        site in 0..ROTATE_SITES.len(),
        pre in 2u64..8,
        post in 0u64..4,
        seed in 0u64..1000,
    ) {
        let dir = scratch("rotate");
        let wal_dir = dir.join("wal");
        let (ffs, store) = fault_store(seed, &wal_dir);
        let counter = PersistentCounter::open_with(
            Arc::new(FaultFs::new()) as Arc<dyn StorageFs>,
            dir.join("snapctr"),
        )
        .unwrap();
        let mut acked: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

        for i in 0..pre {
            let (k, v) = (format!("pre-{i}").into_bytes(), format!("pv-{seed}-{i}").into_bytes());
            store.set(&k, &v).unwrap();
            acked.insert(k, v);
        }

        let (op, path, kind) = ROTATE_SITES[site];
        ffs.inject(FaultSpec::first(op, path, kind));
        let snap = dir.join("snap.db");
        let snap_ok = store.snapshot_blocking(&snap, &counter).is_ok();

        // Whatever the snapshot's fate, acked writes still read back,
        // and — unless the writer poisoned — new writes still land.
        for (k, v) in &acked {
            prop_assert_eq!(&store.get(k).unwrap(), v);
        }
        for i in 0..post {
            let (k, v) = (format!("post-{i}").into_bytes(), format!("qv-{seed}-{i}").into_bytes());
            match store.set(&k, &v) {
                Ok(()) => { acked.insert(k, v); }
                Err(Error::StorageFailed) => break,
                Err(e) => prop_assert!(false, "unexpected error {e:?}"),
            }
        }

        ffs.power_cut().unwrap();
        drop(store);
        // Recover from the snapshot when a durable one survived the cut
        // (a torn rename rolls back), else from the WAL alone.
        let real = Arc::new(FaultFs::new()) as Arc<dyn StorageFs>;
        let snapshot = snap.exists().then_some(snap);
        let recovered = ShieldStore::recover_with_storage(
            enclave(seed),
            real,
            config(),
            snapshot.as_deref(),
            &counter,
            &wal_dir,
        );
        let recovered = recovered.or_else(|_| {
            // A half-written snapshot file can be unusable; the WAL
            // alone must then carry every acked write.
            ShieldStore::recover_with_storage(
                enclave(seed),
                Arc::new(FaultFs::new()) as Arc<dyn StorageFs>,
                config(),
                None,
                &counter,
                &wal_dir,
            )
        });
        match recovered {
            Ok(recovered) => {
                for (k, v) in &acked {
                    prop_assert_eq!(&recovered.get(k).unwrap(), v, "lost acked key {:?}", k);
                }
            }
            // A torn rename is a disk that *lied*: the rename reported
            // durable (rotation then pruned the other copy) but rolled
            // back at power loss. No protocol survives that with data;
            // the guarantee is detection — recovery fails closed rather
            // than serving a partial or stale state.
            Err(_) if kind == FaultKind::TornRename => {}
            Err(e) => {
                prop_assert!(false, "recovery failed (snapshot ok: {snap_ok}): {e:?}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// ENOSPC halfway through a group commit leaves a torn tail on disk;
/// recovery replays only the verified genuine prefix and the store keeps
/// serving reads while refusing writes.
#[test]
fn enospc_mid_group_commit_recovers_verified_prefix() {
    let dir = scratch("enospc-group");
    let wal_dir = dir.join("wal");
    let ffs = Arc::new(FaultFs::new());
    let fs: Arc<dyn StorageFs> = Arc::clone(&ffs) as Arc<dyn StorageFs>;
    let store = ShieldStore::new_with_storage(
        enclave(3),
        Config::shield_opt()
            .buckets(64)
            .mac_hashes(16)
            .with_shards(2)
            .with_durability(DurabilityPolicy::EveryN(4)),
        fs,
    )
    .unwrap();
    store.attach_wal(&wal_dir).unwrap();

    // One full durable group.
    for i in 0..4u32 {
        store.set(format!("g0-{i}").as_bytes(), b"first").unwrap();
    }
    // Second group dies on a disk-full mid-write: the buffered ops were
    // never acked as durable, the writer poisons.
    ffs.inject(FaultSpec::first(FaultOp::Write, "wal-", FaultKind::Enospc));
    let mut failed = false;
    for i in 0..4u32 {
        if store.set(format!("g1-{i}").as_bytes(), b"second").is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "group commit swallowed the injected ENOSPC");
    assert!(matches!(store.set(b"later", b"x"), Err(Error::StorageFailed)));
    assert_eq!(store.snapshot().storage_failed, 1);
    assert_eq!(store.get(b"g0-0").unwrap(), b"first");

    ffs.power_cut().unwrap();
    drop(store);
    let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
    let recovered = ShieldStore::recover(
        enclave(3),
        Config::shield_opt()
            .buckets(64)
            .mac_hashes(16)
            .with_shards(2)
            .with_durability(DurabilityPolicy::EveryN(4)),
        None,
        &counter,
        &wal_dir,
    )
    .unwrap();
    // Exactly the durable group survives: the torn second group was
    // never acked and its bytes never synced.
    assert_eq!(recovered.len(), 4);
    for i in 0..4u32 {
        assert_eq!(recovered.get(format!("g0-{i}").as_bytes()).unwrap(), b"first");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A write the poisoned writer refuses changes nothing: not a value, not
/// the key set, not the tenant's usage. Only the write whose own commit
/// poisoned the writer is in memory (it may have executed).
#[test]
fn refused_write_changes_nothing() {
    let dir = scratch("refused");
    let (ffs, store) = fault_store(5, &dir.join("wal"));
    store.set(b"k", b"old").unwrap();
    ffs.inject(FaultSpec::first(FaultOp::SyncData, "wal-", FaultKind::SyncFail));
    assert_eq!(store.set(b"poisoning", b"p"), Err(Error::StorageFailed));
    let usage = || {
        let usage = &store.tenants().state(0).usage;
        (usage.used_bytes.load(Ordering::Relaxed), usage.used_keys.load(Ordering::Relaxed))
    };
    let (len, used) = (store.len(), usage());

    assert_eq!(store.set(b"k", b"new"), Err(Error::StorageFailed));
    assert_eq!(store.set(b"later", b"x"), Err(Error::StorageFailed));
    assert_eq!(store.delete(b"k"), Err(Error::StorageFailed));
    let items: Vec<(Vec<u8>, Vec<u8>)> =
        (0..8).map(|i| (format!("m{i}").into_bytes(), b"v".to_vec())).collect();
    let items: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
    assert_eq!(store.multi_set(&items), Err(Error::StorageFailed));

    assert_eq!(store.get(b"k").unwrap(), b"old", "a refused set or delete landed");
    assert_eq!(store.get(b"later"), Err(Error::KeyNotFound), "a refused set landed");
    for (key, _) in &items {
        assert_eq!(store.get(key), Err(Error::KeyNotFound), "a refused batch landed");
    }
    assert_eq!((store.len(), usage()), (len, used), "a refused write moved the accounting");
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery re-pins before it deletes. Restoring the newer snapshot
/// supersedes the older log generation, but until the pruned pin is
/// durable the pin on disk still names that generation: a storage fault
/// (or a crash) between the two must leave its file where it is, so the
/// older pinned snapshot stays a recovery root and a promoting replica
/// can still verify every pinned segment.
#[test]
fn failed_recovery_deletes_no_log_the_durable_pin_still_names() {
    let dir = scratch("recover-gc");
    let wal_dir = dir.join("wal");
    let crashing = Arc::new(FaultFs::new());
    let store = ShieldStore::new_with_storage(enclave(51), config(), crashing.clone()).unwrap();
    store.attach_wal(&wal_dir).unwrap();
    let mut acked: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for i in 0..6u32 {
        let (k, v) = (format!("old-{i}").into_bytes(), format!("ov-{i}").into_bytes());
        store.set(&k, &v).unwrap();
        acked.insert(k, v);
    }
    // The snapshot becomes durable, more writes are acknowledged into
    // the new generation, and the process dies before `rotate_commit`.
    let counter = PersistentCounter::open(dir.join("snapctr")).unwrap();
    let snap = dir.join("snap.db");
    let job = store.snapshot_background(&snap, &counter).unwrap();
    while !job.is_done() {
        std::thread::yield_now();
    }
    for i in 0..4u32 {
        let (k, v) = (format!("new-{i}").into_bytes(), format!("nv-{i}").into_bytes());
        store.set(&k, &v).unwrap();
        acked.insert(k, v);
    }
    crashing.crash();
    assert!(job.finish().is_err(), "rotate_commit must not be reached");
    drop(store);
    assert!(snap.exists() && wal_dir.join("wal-0.log").exists());

    // Recovery from the new snapshot dies on its own re-pin.
    let ffs = Arc::new(FaultFs::new());
    ffs.inject(FaultSpec::first(FaultOp::Write, "wal.pin.tmp", FaultKind::Eio));
    let failed = ShieldStore::recover_with_storage(
        enclave(51),
        Arc::clone(&ffs) as Arc<dyn StorageFs>,
        config(),
        Some(&snap),
        &counter,
        &wal_dir,
    );
    assert!(matches!(failed, Err(Error::StorageFailed)));
    assert_eq!(ffs.injected(), 1);
    ffs.clear_faults();

    // The durable pin still lists both generations, so the older root
    // (no snapshot: generation 0) must still replay every acked write.
    let recovered = ShieldStore::recover_with_storage(
        enclave(51),
        ffs as Arc<dyn StorageFs>,
        config(),
        None,
        &counter,
        &wal_dir,
    )
    .expect("the older pinned generation lost nothing and must recover");
    assert_eq!(recovered.len(), acked.len());
    for (k, v) in &acked {
        assert_eq!(&recovered.get(k).unwrap(), v);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot is written once its rename is durable, and the rename is
/// durable once its directory is synced. The snapshot sits in a
/// directory of its own, `snaps/`, so the injected fault hits only that
/// sync: the snapshot must answer `Err`, rotation must keep the old log
/// generation, and after a power cut (which takes the undurable rename
/// back) recovery must return every acked write, from the log alone.
fn snapshot_dir_sync_fault(background: bool) {
    let dir = scratch("dirsync");
    let (wal_dir, snaps) = (dir.join("wal"), dir.join("snaps"));
    std::fs::create_dir_all(&snaps).unwrap();
    let (ffs, store) = fault_store(61, &wal_dir);
    let counter = PersistentCounter::open(dir.join("snapctr")).unwrap();
    let mut acked: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut set = |store: &ShieldStore, tag: &str, i: u32| {
        let (k, v) = (format!("{tag}-{i}").into_bytes(), format!("{tag}v-{i}").into_bytes());
        store.set(&k, &v).unwrap();
        acked.insert(k, v);
    };
    for i in 0..6 {
        set(&store, "old", i);
    }
    ffs.inject(FaultSpec::first(FaultOp::SyncDir, "snaps", FaultKind::Eio));
    let snap = snaps.join("snap.db");
    let written = if background {
        store.snapshot_background(&snap, &counter).and_then(|job| job.finish().map(drop))
    } else {
        store.snapshot_blocking(&snap, &counter)
    };
    assert_eq!(ffs.injected(), 1, "the snapshot directory was never synced");
    for i in 0..3 {
        set(&store, "new", i);
    }

    ffs.power_cut().unwrap();
    drop(store);
    assert!(!snap.exists(), "the rename was never made durable");
    let recovered = ShieldStore::recover_with_storage(
        enclave(61),
        Arc::new(FaultFs::new()) as Arc<dyn StorageFs>,
        config(),
        None,
        &counter,
        &wal_dir,
    );
    assert!(
        written.is_err(),
        "the snapshot answered {written:?}; recovery then answered {:?}",
        recovered.as_ref().map(ShieldStore::len)
    );
    let recovered = recovered.expect("the old generation was kept and must recover");
    assert_eq!(recovered.len(), acked.len());
    for (k, v) in &acked {
        assert_eq!(&recovered.get(k).unwrap(), v);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn blocking_snapshot_whose_directory_sync_fails_loses_nothing() {
    snapshot_dir_sync_fault(false);
}

#[test]
fn background_snapshot_whose_directory_sync_fails_loses_nothing() {
    snapshot_dir_sync_fault(true);
}

// ---------------------------------------------------------------------
// Scrub and repair
// ---------------------------------------------------------------------

/// Drives scrub ticks until one full pass completes, returning the
/// accumulated tick findings.
fn scrub_full_pass(store: &ShieldStore, budget: usize) -> (u64, Vec<u64>, bool, bool) {
    let mut bytes = 0;
    let mut corrupt = Vec::new();
    let (mut pin_bad, mut snap_bad) = (false, false);
    for _ in 0..10_000 {
        let tick = store.scrub_tick(budget).unwrap();
        bytes += tick.verified_bytes;
        if let Some(g) = tick.corrupt_generation {
            corrupt.push(g);
        }
        pin_bad |= tick.pin_corrupt;
        snap_bad |= tick.snapshot_corrupt;
        if tick.pass_completed {
            return (bytes, corrupt, pin_bad, snap_bad);
        }
    }
    panic!("scrub never completed a pass");
}

/// A clean store scrubs clean: bytes verified, nothing flagged, gauges
/// advance monotonically.
#[test]
fn scrub_pass_over_clean_state_finds_nothing() {
    sgx_sim::vclock::reset();
    let dir = scratch("scrub-clean");
    let store = ShieldStore::new(enclave(11), config()).unwrap();
    store.attach_wal(dir.join("wal")).unwrap();
    for i in 0..32u32 {
        store.set(format!("k{i}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
    store.snapshot_blocking(dir.join("snap.db"), &counter).unwrap();

    // A tiny budget forces many resumable segment chunks.
    let (bytes, corrupt, pin_bad, snap_bad) = scrub_full_pass(&store, 256);
    assert!(bytes > 0, "scrub verified nothing");
    assert!(corrupt.is_empty() && !pin_bad && !snap_bad);

    let snap = store.snapshot();
    assert_eq!(snap.scrub_passes, 1);
    assert_eq!(snap.scrub_corrupt, 0);
    assert_eq!(snap.scrub_repaired, 0);
    assert!(snap.scrub_bytes >= bytes);

    // Further passes keep accumulating.
    scrub_full_pass(&store, 1 << 20);
    assert_eq!(store.snapshot().scrub_passes, 2);
    std::fs::remove_dir_all(&dir).ok();
    sgx_sim::vclock::reset();
}

/// Segment rot is detected, quarantines writes (reads keep serving),
/// and a verified repair from a journaling replica restores service.
/// A tampered repair is refused without lifting the quarantine.
#[test]
fn scrub_detects_segment_rot_and_peer_repair_restores_service() {
    let dir = scratch("scrub-repair");
    let store = Arc::new(ShieldStore::new(enclave(21), config()).unwrap());
    store.attach_wal(dir.join("wal")).unwrap();

    // A journaling replica caches every verified frame.
    let hello = store.repl_subscribe().unwrap();
    let rstore = Arc::new(ShieldStore::new(enclave(22), config()).unwrap());
    let mut replica =
        shieldstore::Replica::with_journal(Arc::clone(&rstore), &hello, &dir.join("journal"))
            .unwrap();
    for i in 0..24u32 {
        store.set(format!("k{i}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
    }
    loop {
        let wm = replica.watermark();
        let batch = store.repl_batch(wm.generation, wm.seq, 1 << 20).unwrap();
        if batch.count == 0 && batch.advance_to.is_none() {
            break;
        }
        replica.apply_batch(&batch).unwrap();
    }

    // Rot one sealed byte mid-log on the primary's disk.
    let log = dir.join("wal").join("wal-0.log");
    let mut bytes = std::fs::read(&log).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&log, &bytes).unwrap();

    let (_, corrupt, _, _) = scrub_full_pass(&store, 1 << 20);
    assert_eq!(corrupt, vec![0], "scrub missed the rotted generation");
    assert!(matches!(store.set(b"while-bad", b"x"), Err(Error::StorageFailed)));
    assert_eq!(store.get(b"k0").unwrap(), b"v0", "reads must keep serving under quarantine");

    // A lying peer: flip a bit in the served frames. The chain check
    // refuses it and the quarantine holds.
    let genuine = {
        let mut frames = Vec::new();
        let mut after = 0u64;
        loop {
            let b = replica.serve_frames(0, after, 1 << 14).unwrap();
            if b.count == 0 {
                break;
            }
            after += u64::from(b.count);
            frames.extend_from_slice(&b.frames);
        }
        frames
    };
    let mut forged = genuine.clone();
    let flip = forged.len() / 3;
    forged[flip] ^= 0x01;
    assert!(store.repair_wal_segment(0, &forged).is_err(), "forged frames must be refused");
    assert!(matches!(store.set(b"still-bad", b"x"), Err(Error::StorageFailed)));

    // The genuine frames verify, swap in, and lift the quarantine.
    store.repair_wal_segment(0, &genuine).unwrap();
    assert!(store.snapshot().scrub_repaired >= 1);
    for refused in [b"while-bad".as_slice(), b"still-bad"] {
        assert_eq!(store.get(refused), Err(Error::KeyNotFound), "a refused write landed");
    }
    store.set(b"after-repair", b"back").unwrap();

    // The repaired log replays end to end.
    drop(replica);
    drop(store);
    let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
    let recovered =
        ShieldStore::recover(enclave(21), config(), None, &counter, dir.join("wal")).unwrap();
    assert_eq!(recovered.get(b"k7").unwrap(), b"v7");
    assert_eq!(recovered.get(b"after-repair").unwrap(), b"back");
    std::fs::remove_dir_all(&dir).ok();
}

/// A rotted sealed pin self-repairs from in-enclave state: the scrubber
/// flags it, rewrites it, and recovery still works afterwards.
#[test]
fn scrub_self_repairs_a_rotted_pin() {
    let dir = scratch("scrub-pin");
    let store = ShieldStore::new(enclave(31), config()).unwrap();
    store.attach_wal(dir.join("wal")).unwrap();
    for i in 0..8u32 {
        store.set(format!("p{i}").as_bytes(), b"pinned").unwrap();
    }

    let pin = dir.join("wal").join("wal.pin");
    let mut bytes = std::fs::read(&pin).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&pin, &bytes).unwrap();

    let (_, _, pin_bad, _) = scrub_full_pass(&store, 1 << 20);
    assert!(pin_bad, "scrub missed the rotted pin");
    let snap = store.snapshot();
    assert_eq!(snap.scrub_corrupt, 1);
    assert_eq!(snap.scrub_repaired, 1);

    // The rewrite healed it: writes continue and recovery verifies.
    store.set(b"post-pin", b"ok").unwrap();
    drop(store);
    let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
    let recovered =
        ShieldStore::recover(enclave(31), config(), None, &counter, dir.join("wal")).unwrap();
    assert_eq!(recovered.get(b"post-pin").unwrap(), b"ok");
    std::fs::remove_dir_all(&dir).ok();
}

/// Snapshot rot is reported (and counted) without quarantining the WAL:
/// the log, not the snapshot, is the durability root.
#[test]
fn scrub_reports_snapshot_rot_without_quarantining_writes() {
    sgx_sim::vclock::reset();
    let dir = scratch("scrub-snap");
    let store = ShieldStore::new(enclave(41), config()).unwrap();
    store.attach_wal(dir.join("wal")).unwrap();
    for i in 0..16u32 {
        store.set(format!("s{i}").as_bytes(), b"snapped").unwrap();
    }
    let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
    let snap_path = dir.join("snap.db");
    store.snapshot_blocking(&snap_path, &counter).unwrap();

    let mut bytes = std::fs::read(&snap_path).unwrap();
    let off = bytes.len() * 2 / 3;
    bytes[off] ^= 0x80;
    std::fs::write(&snap_path, &bytes).unwrap();

    let (_, corrupt, pin_bad, snap_bad) = scrub_full_pass(&store, 1 << 20);
    assert!(snap_bad, "scrub missed the rotted snapshot");
    assert!(corrupt.is_empty() && !pin_bad);
    assert_eq!(store.snapshot().scrub_corrupt, 1);
    // The WAL is intact: writes keep flowing.
    store.set(b"post-snap-rot", b"ok").unwrap();
    std::fs::remove_dir_all(&dir).ok();
    sgx_sim::vclock::reset();
}
