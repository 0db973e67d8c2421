//! Write-ahead-log attacks: the adversary owns the log file, the sealed
//! pin, and the process lifetime. Torn tails past the pinned point must
//! recover to the exact acknowledged state; everything else — truncation
//! into pinned records, bit flips, record splices, stale pin+log replays,
//! a hidden pin, or a pre-snapshot log offered after rotation — must make
//! [`ShieldStore::recover`] fail closed. Kill-point crash/recover cycles
//! are checked against the reference model, with the loss window bounded
//! exactly by the configured [`DurabilityPolicy`].

use crate::{Rig, Violation};
use sgx_sim::counter::PersistentCounter;
use sgx_sim::storage::FaultFs;
use shield_workload::rng::SplitMix64;
use shieldstore::model::Model;
use shieldstore::{Config, DurabilityPolicy, Error, Op, ShieldStore};
use std::path::Path;
use std::sync::Arc;

/// The WAL phase's seed salt.
pub const SALT: u64 = 0x0a1c_5ea1_ed10_6f11;
/// Keys per namespace; small so deletes and overwrites collide often.
const KEY_SPACE: u64 = 16;

fn config(policy: DurabilityPolicy) -> Config {
    crate::rig::config().with_durability(policy)
}

/// A fresh store in the phase's enclave, its log in `wal_dir`, on a
/// [`FaultFs`] of its own: the handle that crashes it.
fn crashable(rig: &Rig, policy: DurabilityPolicy, wal_dir: &Path) -> (ShieldStore, Arc<FaultFs>) {
    let ffs = Arc::new(FaultFs::new());
    let store = ShieldStore::new_with_storage(rig.enclave(), config(policy), ffs.clone());
    let store = store.expect("store");
    store.attach_wal(wal_dir).expect("attach wal");
    (store, ffs)
}

/// Recovers a strict store from `snapshot` (if any) and `wal_dir` onto
/// a [`FaultFs`] of its own, returned to crash it with.
fn recover(
    rig: &Rig,
    snapshot: Option<&Path>,
    counter: &PersistentCounter,
    wal_dir: &Path,
) -> Result<(ShieldStore, Arc<FaultFs>), Error> {
    let (ffs, config) = (Arc::new(FaultFs::new()), config(DurabilityPolicy::Strict));
    let store = ShieldStore::recover_with_storage(
        rig.enclave(),
        ffs.clone(),
        config,
        snapshot,
        counter,
        wal_dir,
    )?;
    Ok((store, ffs))
}

/// Runs the WAL attack phase. Tampered or stale logs count as `attacks`
/// and their refusals as `detected`; a torn un-pinned tail, which the
/// format absorbs by design, as `benign`; every recovery checked exact
/// within its policy's loss window as a `crash_recover_cycles`.
pub fn run(rig: &mut Rig) -> Result<(), Violation> {
    crash_cycles_strict(rig)?;
    group_commit_loss_window(rig)?;
    log_tamper_attacks(rig)?;
    stale_log_after_snapshot(rig)?;
    snapshot_crash_window(rig)
}

/// Writes `{key}{id}` = `{value}-{id}` for each id, checked against
/// `model`.
fn load(
    store: &ShieldStore,
    model: &mut Model,
    key: &str,
    value: &str,
    ids: std::ops::Range<u64>,
) -> Result<(), Violation> {
    for id in ids {
        let (key, value) = (format!("{key}{id}"), format!("{value}-{id}"));
        crate::answered(
            store,
            model,
            "wal phase load",
            0,
            Op::set(key.as_bytes(), value.as_bytes()),
        )?;
    }
    Ok(())
}

/// Applies one random mutation to `store`, checked against `model`.
fn apply_random_op(
    store: &ShieldStore,
    model: &mut Model,
    rng: &mut SplitMix64,
    step: u64,
) -> Result<(), Violation> {
    let (key, value);
    let op = match rng.next_below(10) {
        0..=4 => {
            (key, value) = (format!("k{}", rng.next_below(KEY_SPACE)), format!("wal-val-{step}"));
            Op::set(key.as_bytes(), value.as_bytes())
        }
        5..=6 => {
            key = format!("k{}", rng.next_below(KEY_SPACE));
            Op::Delete(key.as_bytes())
        }
        7 => {
            (key, value) = (format!("a{}", rng.next_below(4)), format!("+{step}"));
            Op::Append { key: key.as_bytes(), suffix: value.as_bytes() }
        }
        _ => {
            key = format!("n{}", rng.next_below(4));
            Op::Increment { key: key.as_bytes(), delta: rng.next_below(100) as i64 - 50 }
        }
    };
    crate::answered(store, model, "wal phase op", 0, op)
}

// ---------------------------------------------------------------------
// Part A: kill-point crash/recover cycles under Strict
// ---------------------------------------------------------------------

/// Strict commits every acknowledged op before returning, so each
/// recovery must reproduce the model exactly — across repeated
/// crash/recover cycles that chain one log generation's pin into the
/// next process life.
fn crash_cycles_strict(rig: &mut Rig) -> Result<(), Violation> {
    let wal_dir = rig.path("strict-wal");
    let counter = PersistentCounter::open(rig.path("strict-ctr")).expect("counter");
    let mut model = Model::default();
    let (mut store, mut fs) = crashable(rig, DurabilityPolicy::Strict, &wal_dir);
    for cycle in 0..3u64 {
        for step in 0..20 {
            apply_random_op(&store, &mut model, &mut rig.rng, cycle * 100 + step)?;
        }
        fs.crash();
        drop(store);
        (store, fs) = recover(rig, None, &counter, &wal_dir).map_err(|e| Violation {
            context: "strict crash cycle".into(),
            detail: format!("recovery after clean crash failed: {e:?}"),
        })?;
        crate::check_state(&store, &model, "strict crash cycle")?;
        rig.tally.add("crash_recover_cycles", 1);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Part B: group-commit loss window under EveryN
// ---------------------------------------------------------------------

/// With `EveryN(4)` a crash may only lose the buffered suffix — fewer
/// than 4 acknowledged writes. The recovered store must equal the model
/// after the last group-commit boundary, exactly.
fn group_commit_loss_window(rig: &mut Rig) -> Result<(), Violation> {
    let wal_dir = rig.path("group-wal");
    let counter = PersistentCounter::open(rig.path("group-ctr")).expect("counter");
    let policy = DurabilityPolicy::EveryN(4);
    let (store, fs) = crashable(rig, policy, &wal_dir);

    let mut model = Model::default();
    let total = 10 + rig.rng.next_below(8) as usize;
    let mut step = 0u64;
    while model.writes() < total {
        apply_random_op(&store, &mut model, &mut rig.rng, 1000 + step)?;
        step += 1;
    }
    fs.crash();
    drop(store);

    // Only whole groups of 4 reached the log; the buffered remainder is
    // legitimately lost. Anything else — more, fewer, or reordered — is
    // a durability violation.
    let committed = model.after(model.writes() / 4 * 4);
    let recovered = ShieldStore::recover(rig.enclave(), config(policy), None, &counter, &wal_dir)
        .map_err(|e| Violation {
        context: "group-commit crash".into(),
        detail: format!("recovery after group-commit crash failed: {e:?}"),
    })?;
    crate::check_state(&recovered, &committed, "group-commit loss window")?;
    rig.tally.add("crash_recover_cycles", 1);
    Ok(())
}

// ---------------------------------------------------------------------
// Part C: attacks on the log file and pin
// ---------------------------------------------------------------------

/// Splits a raw log image into its length-prefixed frames. Only used to
/// aim the splice attack; the store's own parser is the thing under test.
fn frame_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut off = 0;
    while off + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        let end = off + 4 + len;
        if end > bytes.len() {
            break;
        }
        spans.push(off..end);
        off = end;
    }
    spans
}

/// Writes 8 strictly-committed records, crashes, then replays tampered
/// images of the pin and log. Every mutation of pinned bytes must fail
/// closed; garbage appended past the pin must be cleanly dropped.
fn log_tamper_attacks(rig: &mut Rig) -> Result<(), Violation> {
    let wal_dir = rig.path("tamper-wal");
    let counter = PersistentCounter::open(rig.path("tamper-ctr")).expect("counter");
    let (store, fs) = crashable(rig, DurabilityPolicy::Strict, &wal_dir);
    let mut model = Model::default();
    load(&store, &mut model, "c", "tamper-val", 0..8)?;
    fs.crash();
    drop(store);

    let pin_path = wal_dir.join("wal.pin");
    let log_path = wal_dir.join("wal-0.log");
    let pin_bytes = std::fs::read(&pin_path).expect("read pin");
    let log_bytes = std::fs::read(&log_path).expect("read log");
    let restore_files = || {
        std::fs::write(&pin_path, &pin_bytes).expect("restore pin");
        std::fs::write(&log_path, &log_bytes).expect("restore log");
    };
    let expect_err = |rig: &mut Rig, mutate: &dyn Fn(), what: &str| -> Result<(), Violation> {
        restore_files();
        mutate();
        rig.tally.add("attacks", 1);
        match recover(rig, None, &counter, &wal_dir) {
            Err(_) => {
                rig.tally.add("detected", 1);
                Ok(())
            }
            Ok((store, _)) => Err(Violation {
                context: format!("wal tamper: {what}"),
                detail: format!(
                    "recovery accepted a tampered log and produced a {}-entry store",
                    store.len()
                ),
            }),
        }
    };

    // Truncation into pinned records: the pin remembers sequence 8, so a
    // log that ends early is a rollback, not a torn tail.
    let cut = 1 + rig.rng.next_below(log_bytes.len() as u64 - 1) as usize;
    let truncate = || std::fs::write(&log_path, &log_bytes[..cut]).expect("truncate");
    expect_err(rig, &truncate, "truncation")?;

    // Bit flips anywhere in the image: length fields, sequence numbers,
    // IVs, ciphertext, and MACs are all covered by the record MACs.
    for _ in 0..3 {
        let pos = rig.rng.next_below(log_bytes.len() as u64) as usize;
        let bit = 1u8 << rig.rng.next_below(8);
        expect_err(
            rig,
            &|| {
                let mut m = log_bytes.clone();
                m[pos] ^= bit;
                std::fs::write(&log_path, &m).expect("flip");
            },
            "bit flip",
        )?;
    }

    // Record splice: swap two internally-valid frames. Each MAC chains
    // over its predecessor's, so reordering breaks the chain.
    let spans = frame_spans(&log_bytes);
    assert!(spans.len() >= 2, "strict log should hold one frame per op");
    expect_err(
        rig,
        &|| {
            let mut m = Vec::with_capacity(log_bytes.len());
            m.extend_from_slice(&log_bytes[spans[1].clone()]);
            m.extend_from_slice(&log_bytes[spans[0].clone()]);
            m.extend_from_slice(&log_bytes[spans[1].end..]);
            std::fs::write(&log_path, &m).expect("splice");
        },
        "record splice",
    )?;

    // The sealed pin itself: every byte is CMAC-authenticated.
    let pin_pos = rig.rng.next_below(pin_bytes.len() as u64) as usize;
    let pin_bit = 1u8 << rig.rng.next_below(8);
    expect_err(
        rig,
        &|| {
            let mut m = pin_bytes.clone();
            m[pin_pos] ^= pin_bit;
            std::fs::write(&pin_path, &m).expect("flip pin");
        },
        "pin bit flip",
    )?;

    // Torn tail past the pin: a crashed half-written frame is the one
    // kind of damage the format absorbs. Recovery must drop it and
    // reproduce the acknowledged state byte-exactly. (This recovery
    // succeeds, advancing the monotonic counter past the saved pin.)
    restore_files();
    let garbage = 1 + rig.rng.next_below(32);
    {
        let mut m = log_bytes.clone();
        for _ in 0..garbage {
            m.push(rig.rng.next_below(256) as u8);
        }
        std::fs::write(&log_path, &m).expect("torn tail");
    }
    match recover(rig, None, &counter, &wal_dir) {
        Ok((recovered, _)) => {
            crate::check_state(&recovered, &model, "torn un-pinned tail")?;
            rig.tally.add("benign", 1);
        }
        Err(e) => {
            return Err(Violation {
                context: "torn un-pinned tail".into(),
                detail: format!("recovery should drop trailing garbage, got {e:?}"),
            });
        }
    }

    // Stale pin+log replay: the files are internally valid but the
    // monotonic counter has moved on. Must be a rollback, specifically.
    restore_files();
    let replayed = recover(rig, None, &counter, &wal_dir);
    let what = "replaying a superseded pin+log";
    crate::refused_as_rollback(&mut rig.tally, replayed, "stale wal replay", what)?;

    // Hidden pin: deleting the pin and log while the counter says a
    // generation exists must also be a rollback, not a fresh start.
    std::fs::remove_file(&pin_path).expect("hide pin");
    std::fs::remove_file(wal_dir.join("wal-0.log")).ok();
    let hidden = recover(rig, None, &counter, &wal_dir);
    crate::refused_as_rollback(&mut rig.tally, hidden, "hidden wal pin", "a hidden pin")
}

// ---------------------------------------------------------------------
// Part D: rotation and the pre-snapshot log
// ---------------------------------------------------------------------

/// A snapshot rotates the log to a new generation. Normal recovery
/// (snapshot + rotated tail) must be exact; offering the pre-snapshot
/// pin and log afterwards must fail closed.
fn stale_log_after_snapshot(rig: &mut Rig) -> Result<(), Violation> {
    let wal_dir = rig.path("rotate-wal");
    let counter = PersistentCounter::open(rig.path("rotate-ctr")).expect("counter");
    let (store, fs) = crashable(rig, DurabilityPolicy::Strict, &wal_dir);
    let mut model = Model::default();
    load(&store, &mut model, "r", "rot-val", 0..6)?;

    // Capture the generation-0 pin and log before rotation deletes them.
    let stale_pin = std::fs::read(wal_dir.join("wal.pin")).expect("read pin");
    let stale_log = std::fs::read(wal_dir.join("wal-0.log")).expect("read log");

    let snap = rig.path("rotate.db");
    store.snapshot_blocking(&snap, &counter).expect("snapshot");
    load(&store, &mut model, "t", "tail-val", 0..2)?;
    fs.crash();
    drop(store);

    // Honest recovery: snapshot plus the rotated generation-1 tail.
    let recovered = recover(rig, Some(&snap), &counter, &wal_dir);
    let (recovered, fs) = recovered.map_err(|e| Violation {
        context: "post-snapshot recovery".into(),
        detail: format!("recovery from snapshot + rotated tail failed: {e:?}"),
    })?;
    crate::check_state(&recovered, &model, "post-snapshot recovery")?;
    fs.crash();
    drop(recovered);

    // Replay the pre-snapshot generation against the post-snapshot
    // store: the pin names generation 0, the snapshot says 1, and the
    // counter has moved past the stale pin's claim.
    std::fs::write(wal_dir.join("wal.pin"), &stale_pin).expect("plant stale pin");
    std::fs::write(wal_dir.join("wal-0.log"), &stale_log).expect("plant stale log");
    let replayed = recover(rig, Some(&snap), &counter, &wal_dir);
    let (context, what) = ("pre-snapshot log replay", "a pre-rotation pin+log");
    crate::refused_as_rollback(&mut rig.tally, replayed, context, what)?;
    rig.tally.add("crash_recover_cycles", 1);
    Ok(())
}

// ---------------------------------------------------------------------
// Part E: crash inside the snapshot/rotation window
// ---------------------------------------------------------------------

/// The most dangerous durability window: a snapshot has *begun* (the log
/// rotated to the upcoming generation) but never lands on disk. The old
/// log generation must survive until the snapshot is durably renamed, so
/// a writer failure followed by a crash recovers every acknowledged
/// write from the last good snapshot plus both retained log generations.
fn snapshot_crash_window(rig: &mut Rig) -> Result<(), Violation> {
    let wal_dir = rig.path("window-wal");
    let counter = PersistentCounter::open(rig.path("window-ctr")).expect("counter");
    let (store, fs) = crashable(rig, DurabilityPolicy::Strict, &wal_dir);
    let mut model = Model::default();
    load(&store, &mut model, "b", "base-val", 0..6)?;
    let snap = rig.path("window.db");
    store.snapshot_blocking(&snap, &counter).expect("good snapshot");
    load(&store, &mut model, "w", "mid-val", 0..4)?;

    // A background snapshot whose writer dies (target directory missing):
    // rotation began, the snapshot never lands.
    let job = store
        .snapshot_background(rig.path("no-such-dir").join("s.db"), &counter)
        .expect("start background snapshot");
    if job.finish().is_ok() {
        return Err(Violation {
            context: "snapshot crash window".into(),
            detail: "background snapshot into a missing directory reported success".into(),
        });
    }
    // The store keeps acknowledging writes into the newest generation.
    load(&store, &mut model, "x", "tail-val", 0..4)?;
    fs.crash();
    drop(store);

    // Recovery from the last *successful* snapshot must replay both
    // retained generations: Strict means not one acknowledged write may
    // be missing.
    let (recovered, _) = recover(rig, Some(&snap), &counter, &wal_dir).map_err(|e| Violation {
        context: "snapshot crash window".into(),
        detail: format!("recovery after a failed snapshot attempt failed: {e:?}"),
    })?;
    crate::check_state(&recovered, &model, "snapshot crash window")?;
    rig.tally.add("crash_recover_cycles", 1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_phase_runs_clean_on_a_few_seeds() {
        for seed in 0..3 {
            let tally = crate::run_phase("wal", seed, SALT, run).unwrap_or_else(|v| {
                panic!("seed {seed}: wal-phase violation: {v}");
            });
            assert_eq!(tally.get("attacks"), 9, "attack count drifted: {tally}");
            assert_eq!(tally.get("detected"), 9, "undetected attack: {tally}");
            assert_eq!(tally.get("benign"), 1, "torn-tail case missing: {tally}");
            assert_eq!(tally.get("crash_recover_cycles"), 6, "cycle count drifted: {tally}");
        }
    }
}
