//! Snapshot-file robustness: a snapshot lives on untrusted storage, so
//! `restore` must treat every byte of it as attacker-controlled. Any
//! truncation, bit flip, or length-field corruption must produce an
//! error — never a panic, a hang, or a store loaded with partial state.

use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::EnclaveBuilder;
use sgx_sim::vclock;
use shieldstore::{Config, Error, ShieldStore};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ss-snaprob-{}-{}", name, std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> Config {
    Config::shield_opt().buckets(128).mac_hashes(32).with_shards(2)
}

fn enclave(seed: u64) -> Arc<sgx_sim::enclave::Enclave> {
    EnclaveBuilder::new("snaprob").seed(seed).epc_bytes(8 << 20).build()
}

/// Builds a populated store, snapshots it, and returns the snapshot path
/// plus the counter needed to restore it.
fn write_snapshot(dir: &Path, seed: u64) -> (PathBuf, PersistentCounter) {
    let snap = dir.join("snap.db");
    let ctr_path = dir.join("ctr");
    let _ = std::fs::remove_file(&ctr_path);
    let counter = PersistentCounter::open(&ctr_path).unwrap();
    let store = ShieldStore::new(enclave(seed), config()).unwrap();
    for i in 0..64u32 {
        store.set(format!("key-{i:03}").as_bytes(), format!("value-{i}").as_bytes()).unwrap();
    }
    store.snapshot_blocking(&snap, &counter).unwrap();
    (snap, counter)
}

/// Asserts that restoring `snap` fails with an error (no panic, and no
/// `Ok` store carrying partial state).
fn assert_restore_fails(snap: &Path, counter: &PersistentCounter, seed: u64, what: &str) {
    match ShieldStore::restore(enclave(seed), config(), snap, counter) {
        Err(_) => {}
        Ok(store) => panic!("{what}: restore succeeded with {} entries", store.len()),
    }
}

#[test]
fn zero_length_snapshot_rejected() {
    vclock::reset();
    let dir = tmpdir("zero");
    let (snap, counter) = write_snapshot(&dir, 1);
    std::fs::write(&snap, b"").unwrap();
    assert_restore_fails(&snap, &counter, 1, "zero-length file");
    std::fs::remove_dir_all(&dir).ok();
    vclock::reset();
}

#[test]
fn truncation_at_every_fraction_rejected() {
    vclock::reset();
    let dir = tmpdir("trunc");
    let (snap, counter) = write_snapshot(&dir, 2);
    let full = std::fs::read(&snap).unwrap();
    // Cut the file at a spread of lengths: inside the magic, the header,
    // the sealed blob, and the entry stream.
    for cut in [1, 4, 7, 9, 17, 21, 25, full.len() / 4, full.len() / 2, full.len() - 1] {
        let cut = cut.min(full.len() - 1);
        std::fs::write(&snap, &full[..cut]).unwrap();
        assert_restore_fails(&snap, &counter, 2, &format!("truncated to {cut} bytes"));
    }
    std::fs::remove_dir_all(&dir).ok();
    vclock::reset();
}

#[test]
fn single_bit_flips_never_yield_wrong_data() {
    vclock::reset();
    let dir = tmpdir("flip");
    let (snap, counter) = write_snapshot(&dir, 3);
    let full = std::fs::read(&snap).unwrap();
    // Flip one bit at a spread of positions across the whole file. A flip
    // must either be rejected or (if it lands in slack the codec ignores)
    // still restore exactly the original data — never wrong data.
    let step = (full.len() / 97).max(1);
    for pos in (0..full.len()).step_by(step) {
        let mut bytes = full.clone();
        bytes[pos] ^= 1 << (pos % 8);
        std::fs::write(&snap, &bytes).unwrap();
        match ShieldStore::restore(enclave(3), config(), &snap, &counter) {
            Err(_) => {}
            Ok(store) => {
                assert_eq!(store.len(), 64, "flip at {pos}: partial state loaded");
                for i in 0..64u32 {
                    assert_eq!(
                        store.get(format!("key-{i:03}").as_bytes()).unwrap(),
                        format!("value-{i}").as_bytes(),
                        "flip at {pos}: wrong data for key-{i:03}"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    vclock::reset();
}

#[test]
fn inflated_length_fields_rejected_without_allocation() {
    vclock::reset();
    let dir = tmpdir("lenfield");
    let (snap, counter) = write_snapshot(&dir, 4);
    let full = std::fs::read(&snap).unwrap();

    // Sealed-blob length lives at offset 20 (magic 8 + counter 8 + shards 4).
    let mut bytes = full.clone();
    bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&snap, &bytes).unwrap();
    assert_restore_fails(&snap, &counter, 4, "sealed length = u32::MAX");

    // Per-shard entry count (first u64 after the sealed blob).
    let sealed_len = u32::from_le_bytes(full[20..24].try_into().unwrap()) as usize;
    let count_off = 24 + sealed_len;
    let mut bytes = full.clone();
    bytes[count_off..count_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    std::fs::write(&snap, &bytes).unwrap();
    assert_restore_fails(&snap, &counter, 4, "entry count = u64::MAX");

    // First entry's length field (bucket u32, then len u32).
    let len_off = count_off + 8 + 4;
    let mut bytes = full.clone();
    bytes[len_off..len_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&snap, &bytes).unwrap();
    assert_restore_fails(&snap, &counter, 4, "entry length = u32::MAX");

    std::fs::remove_dir_all(&dir).ok();
    vclock::reset();
}

#[test]
fn entry_relocation_rejected() {
    // Regression: the per-entry bucket index in the snapshot is *not*
    // covered by the entry MAC (the Fig. 5 MAC covers ciphertext, lengths,
    // hint and IV). Before restore re-derived placement from the decrypted
    // key, relocating a chain-tail entry into an empty neighbouring bucket
    // of the same bucket set preserved the set's MAC concatenation, so
    // every hash verified and the key became a silent miss (found by the
    // adversary harness, seeds 567 and 787).
    vclock::reset();
    let dir = tmpdir("reloc");
    let (snap, counter) = write_snapshot(&dir, 6);
    let full = std::fs::read(&snap).unwrap();
    let num_shards = u32::from_le_bytes(full[16..20].try_into().unwrap()) as usize;
    let sealed_len = u32::from_le_bytes(full[20..24].try_into().unwrap()) as usize;
    let mut off = 24 + sealed_len;
    let mut relocations = 0;
    for _ in 0..num_shards {
        let count = u64::from_le_bytes(full[off..off + 8].try_into().unwrap()) as usize;
        off += 8;
        for _ in 0..count {
            let bucket_off = off;
            let len = u32::from_le_bytes(full[off + 4..off + 8].try_into().unwrap()) as usize;
            // Bucket and length, the entry, then its 16-byte tag.
            off += 8 + len + 16;
            // Move the entry to the adjacent bucket — always in bounds for
            // a power-of-two bucket count, and within the same bucket set,
            // so only the placement check can catch it.
            let mut bytes = full.clone();
            bytes[bucket_off] ^= 1;
            std::fs::write(&snap, &bytes).unwrap();
            relocations += 1;
            assert_restore_fails(
                &snap,
                &counter,
                6,
                &format!("entry relocated at offset {bucket_off}"),
            );
        }
    }
    assert_eq!(off, full.len(), "walked the whole entry stream");
    assert!(relocations >= 64, "every entry exercised");
    std::fs::remove_dir_all(&dir).ok();
    vclock::reset();
}

#[test]
fn shard_count_mismatch_rejected() {
    vclock::reset();
    let dir = tmpdir("shards");
    let (snap, counter) = write_snapshot(&dir, 5);
    let wrong = Config::shield_opt().buckets(128).mac_hashes(32).with_shards(4);
    let r = ShieldStore::restore(enclave(5), wrong, &snap, &counter);
    assert!(matches!(r, Err(Error::Persistence(_))), "got {r:?}");
    std::fs::remove_dir_all(&dir).ok();
    vclock::reset();
}
