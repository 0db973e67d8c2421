//! Persistence-layer attacks: the adversary owns the snapshot file on
//! disk. Truncations, bit flips, and replays of stale-but-valid files
//! must all make `restore` fail — or, when a flip lands in bytes the
//! format legitimately ignores (the zeroed chain-pointer slack), restore
//! may succeed but every value must come back exact.

use crate::Violation;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::EnclaveBuilder;
use shield_workload::rng::SplitMix64;
use shieldstore::model::Model;
use shieldstore::{Config, Error, Op, ShieldStore};
use std::path::{Path, PathBuf};

const KEYS: u64 = 32;

/// Outcome accounting for one snapshot-phase run.
#[derive(Debug, Default, Clone)]
pub struct SnapshotReport {
    /// Corrupted files offered to `restore`.
    pub corruptions: u64,
    /// Restores that failed (detections).
    pub detected: u64,
    /// Restores that survived because the flip hit ignored bytes.
    pub benign: u64,
}

fn config() -> Config {
    Config::shield_opt().buckets(64).mac_hashes(16).with_shards(2)
}

fn build_store(seed: u64) -> ShieldStore {
    let enclave = EnclaveBuilder::new("adversary-snap").seed(seed).epc_bytes(8 << 20).build();
    ShieldStore::new(enclave, config()).expect("store construction")
}

fn restore(seed: u64, path: &Path, counter: &PersistentCounter) -> Result<ShieldStore, Error> {
    let enclave = EnclaveBuilder::new("adversary-snap").seed(seed).epc_bytes(8 << 20).build();
    ShieldStore::restore(enclave, config(), path, counter)
}

fn key_bytes(id: u64) -> Vec<u8> {
    format!("snap-key-{id:03}").into_bytes()
}

fn value_bytes(id: u64, round: u64) -> Vec<u8> {
    format!("snap-value-{id}-round-{round}").into_bytes()
}

/// A scratch directory unique to this process and seed.
fn scratch_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("ss-adversary-{}-{seed}", std::process::id()))
}

/// Runs the snapshot corruption phase for one seed.
pub fn run_snapshot_phase(seed: u64) -> Result<SnapshotReport, Violation> {
    sgx_sim::vclock::reset();
    let dir = scratch_dir(seed);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let result = run_in_dir(seed, &dir);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn run_in_dir(seed: u64, dir: &Path) -> Result<SnapshotReport, Violation> {
    let mut report = SnapshotReport::default();
    let mut rng = SplitMix64::new(seed ^ 0x5eed_f11e_c0ff_ee00);
    let counter = PersistentCounter::open(dir.join("ctr")).expect("counter");

    // A clean store — never snapshot a tampered table; the attacks here
    // are on the *file*, not on live memory.
    let (store, mut model) = (build_store(seed), Model::default());
    for id in 0..KEYS {
        let (key, value) = (key_bytes(id), value_bytes(id, 0));
        crate::answered(&store, &mut model, "clean set", 0, Op::set(&key, &value))?;
    }
    let snap_a = dir.join("a.db");
    store.snapshot_blocking(&snap_a, &counter).expect("snapshot a");

    // Sanity: the untouched file restores, with every value exact.
    check_exact_restore(seed, &snap_a, &counter, &model, "clean restore")?;

    // Corruption sweep: deterministic truncations and bit flips.
    let bytes = std::fs::read(&snap_a).expect("read snapshot");
    let corrupt = dir.join("corrupt.db");
    for round in 0..6u64 {
        let mutated = match round {
            0 => Vec::new(), // zero-length file
            1..=2 => {
                let cut = 1 + rng.next_below(bytes.len() as u64 - 1) as usize;
                bytes[..cut].to_vec()
            }
            _ => {
                let mut m = bytes.clone();
                let pos = rng.next_below(m.len() as u64) as usize;
                m[pos] ^= 1 << rng.next_below(8);
                m
            }
        };
        std::fs::write(&corrupt, &mutated).expect("write corrupted snapshot");
        report.corruptions += 1;
        match restore(seed, &corrupt, &counter) {
            Err(_) => report.detected += 1,
            Ok(restored) => {
                // Permitted only when the damage hit ignored bytes: the
                // restored contents must then be byte-exact.
                crate::check_state(&restored, &model, "restore of corrupted file succeeded")?;
                report.benign += 1;
            }
        }
    }

    // Rollback: a second snapshot supersedes the first; replaying the
    // stale-but-internally-valid file must fail with `Rollback`.
    for id in 0..KEYS {
        let (key, value) = (key_bytes(id), value_bytes(id, 1));
        crate::answered(&store, &mut model, "clean overwrite", 0, Op::set(&key, &value))?;
    }
    let snap_b = dir.join("b.db");
    store.snapshot_blocking(&snap_b, &counter).expect("snapshot b");
    check_exact_restore(seed, &snap_b, &counter, &model, "restore of latest snapshot")?;
    report.corruptions += 1;
    match restore(seed, &snap_a, &counter) {
        Err(Error::Rollback) => report.detected += 1,
        other => {
            return Err(Violation {
                context: "snapshot rollback".into(),
                detail: format!(
                    "replaying a stale snapshot returned {:?} instead of Err(Rollback)",
                    other.map(|_| "a working store"),
                ),
            });
        }
    }
    // The live store went through two freeze/snapshot/unfreeze cycles;
    // its counters must still satisfy every stats invariant.
    crate::engine::check_stats(&store, "snapshot phase stats")?;
    Ok(report)
}

fn check_exact_restore(
    seed: u64,
    path: &Path,
    counter: &PersistentCounter,
    model: &Model,
    context: &str,
) -> Result<(), Violation> {
    match restore(seed, path, counter) {
        Ok(restored) => crate::check_state(&restored, model, context),
        Err(e) => Err(Violation {
            context: context.into(),
            detail: format!("a valid snapshot failed to restore: {e:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_phase_runs_clean_on_a_few_seeds() {
        for seed in 0..3 {
            let report = run_snapshot_phase(seed).unwrap_or_else(|v| {
                panic!("seed {seed}: snapshot-phase violation: {v}");
            });
            assert_eq!(report.corruptions, 7);
            assert!(report.detected >= 5, "too few detections: {report:?}");
        }
    }
}
