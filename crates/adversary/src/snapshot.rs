//! Persistence-layer attacks: the adversary owns the snapshot file on
//! disk. Truncations, bit flips, and replays of stale-but-valid files
//! must all make `restore` fail — or, when a flip lands in bytes the
//! format legitimately ignores (the zeroed chain-pointer slack), restore
//! may succeed but every value must come back exact.

use crate::rig::config;
use crate::{Rig, Violation};
use sgx_sim::counter::PersistentCounter;
use shieldstore::model::Model;
use shieldstore::{Error, Op, ShieldStore};
use std::path::Path;

/// The snapshot phase's seed salt.
pub const SALT: u64 = 0x5eed_f11e_c0ff_ee00;
const KEYS: u64 = 32;

fn restore(rig: &Rig, path: &Path, counter: &PersistentCounter) -> Result<ShieldStore, Error> {
    ShieldStore::restore(rig.enclave(), config(), path, counter)
}

fn key_bytes(id: u64) -> Vec<u8> {
    format!("snap-key-{id:03}").into_bytes()
}

fn value_bytes(id: u64, round: u64) -> Vec<u8> {
    format!("snap-value-{id}-round-{round}").into_bytes()
}

/// Runs the snapshot corruption phase.
pub fn run(rig: &mut Rig) -> Result<(), Violation> {
    let counter = PersistentCounter::open(rig.path("ctr")).expect("counter");

    // A clean store — never snapshot a tampered table; the attacks here
    // are on the *file*, not on live memory.
    let store = ShieldStore::new(rig.enclave(), config()).expect("store construction");
    let mut model = Model::default();
    for id in 0..KEYS {
        let (key, value) = (key_bytes(id), value_bytes(id, 0));
        crate::answered(&store, &mut model, "clean set", 0, Op::set(&key, &value))?;
    }
    let snap_a = rig.path("a.db");
    store.snapshot_blocking(&snap_a, &counter).expect("snapshot a");

    // Sanity: the untouched file restores, with every value exact.
    check_exact_restore(rig, &snap_a, &counter, &model, "clean restore")?;

    // Corruption sweep: deterministic truncations and bit flips.
    let bytes = std::fs::read(&snap_a).expect("read snapshot");
    let corrupt = rig.path("corrupt.db");
    for round in 0..6u64 {
        let mutated = match round {
            0 => Vec::new(), // zero-length file
            1..=2 => {
                let cut = 1 + rig.rng.next_below(bytes.len() as u64 - 1) as usize;
                bytes[..cut].to_vec()
            }
            _ => {
                let mut m = bytes.clone();
                let pos = rig.rng.next_below(m.len() as u64) as usize;
                m[pos] ^= 1 << rig.rng.next_below(8);
                m
            }
        };
        std::fs::write(&corrupt, &mutated).expect("write corrupted snapshot");
        rig.tally.add("attacks", 1);
        match restore(rig, &corrupt, &counter) {
            Err(_) => rig.tally.add("detected", 1),
            Ok(restored) => {
                // Permitted only when the damage hit ignored bytes: the
                // restored contents must then be byte-exact.
                crate::check_state(&restored, &model, "restore of corrupted file succeeded")?;
                rig.tally.add("benign", 1);
            }
        }
    }

    // Rollback: a second snapshot supersedes the first; replaying the
    // stale-but-internally-valid file must fail with `Rollback`.
    for id in 0..KEYS {
        let (key, value) = (key_bytes(id), value_bytes(id, 1));
        crate::answered(&store, &mut model, "clean overwrite", 0, Op::set(&key, &value))?;
    }
    let snap_b = rig.path("b.db");
    store.snapshot_blocking(&snap_b, &counter).expect("snapshot b");
    check_exact_restore(rig, &snap_b, &counter, &model, "restore of latest snapshot")?;
    let replayed = restore(rig, &snap_a, &counter);
    let what = "replaying a stale snapshot";
    crate::refused_as_rollback(&mut rig.tally, replayed, "snapshot rollback", what)?;
    // The live store went through two freeze/snapshot/unfreeze cycles;
    // its counters must still satisfy every stats invariant.
    crate::engine::check_stats(&store, "snapshot phase stats")
}

fn check_exact_restore(
    rig: &Rig,
    path: &Path,
    counter: &PersistentCounter,
    model: &Model,
    context: &str,
) -> Result<(), Violation> {
    match restore(rig, path, counter) {
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
            let tally = crate::run_phase("snap", seed, SALT, run).unwrap_or_else(|v| {
                panic!("seed {seed}: snapshot-phase violation: {v}");
            });
            assert_eq!(tally.get("attacks"), 7);
            assert!(tally.get("detected") >= 5, "too few detections: {tally}");
        }
    }
}
