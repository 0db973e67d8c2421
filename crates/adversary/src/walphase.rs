//! Write-ahead-log attacks: the adversary owns the log file, the sealed
//! pin, and the process lifetime. Torn tails past the pinned point must
//! recover to the exact acknowledged state; everything else — truncation
//! into pinned records, bit flips, record splices, stale pin+log replays,
//! a hidden pin, or a pre-snapshot log offered after rotation — must make
//! [`ShieldStore::recover`] fail closed. Kill-point crash/recover cycles
//! are checked against the reference model, with the loss window bounded
//! exactly by the configured [`DurabilityPolicy`].

use crate::Violation;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use shield_workload::rng::SplitMix64;
use shieldstore::model::Model;
use shieldstore::{Config, DurabilityPolicy, Error, Op, ShieldStore};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Keys per namespace; small so deletes and overwrites collide often.
const KEY_SPACE: u64 = 16;

/// Outcome accounting for one WAL-phase run.
#[derive(Debug, Default, Clone)]
pub struct WalReport {
    /// Tampered or stale logs offered to `recover` that must fail.
    pub attacks: u64,
    /// Recoveries that failed closed (detections).
    pub detected: u64,
    /// Host-side damage the format tolerates by design (torn un-pinned
    /// tail): recovery must succeed with byte-exact acknowledged state.
    pub benign: u64,
    /// Crash/recover cycles whose replayed state matched the model
    /// within the policy-permitted loss window.
    pub cycles: u64,
}

fn config(policy: DurabilityPolicy) -> Config {
    Config::shield_opt().buckets(64).mac_hashes(16).with_shards(2).with_durability(policy)
}

fn enclave(seed: u64) -> Arc<Enclave> {
    EnclaveBuilder::new("adversary-wal").seed(seed).epc_bytes(8 << 20).build()
}

/// A scratch directory unique to this process and seed.
fn scratch_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("ss-adversary-wal-{}-{seed}", std::process::id()))
}

/// Runs the WAL attack phase for one seed.
pub fn run_wal_phase(seed: u64) -> Result<WalReport, Violation> {
    sgx_sim::vclock::reset();
    let dir = scratch_dir(seed);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let result = run_in_dir(seed, &dir);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn run_in_dir(seed: u64, dir: &Path) -> Result<WalReport, Violation> {
    let mut report = WalReport::default();
    let mut rng = SplitMix64::new(seed ^ 0x0a1c_5ea1_ed10_6f11);
    crash_cycles_strict(seed, dir, &mut rng, &mut report)?;
    group_commit_loss_window(seed, dir, &mut rng, &mut report)?;
    log_tamper_attacks(seed, dir, &mut rng, &mut report)?;
    stale_log_after_snapshot(seed, dir, &mut report)?;
    snapshot_crash_window(seed, dir, &mut report)?;
    Ok(report)
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
fn crash_cycles_strict(
    seed: u64,
    dir: &Path,
    rng: &mut SplitMix64,
    report: &mut WalReport,
) -> Result<(), Violation> {
    let wal_dir = dir.join("strict-wal");
    let counter = PersistentCounter::open(dir.join("strict-ctr")).expect("counter");
    let mut model = Model::default();
    let mut store =
        ShieldStore::new(enclave(seed), config(DurabilityPolicy::Strict)).expect("store");
    store.attach_wal(&wal_dir).expect("attach wal");
    for cycle in 0..3u64 {
        for step in 0..20 {
            apply_random_op(&store, &mut model, rng, cycle * 100 + step)?;
        }
        store.wal_handle().expect("wal attached").simulate_crash();
        drop(store);
        store = ShieldStore::recover(
            enclave(seed),
            config(DurabilityPolicy::Strict),
            None,
            &counter,
            &wal_dir,
        )
        .map_err(|e| Violation {
            context: "strict crash cycle".into(),
            detail: format!("recovery after clean crash failed: {e:?}"),
        })?;
        crate::check_state(&store, &model, "strict crash cycle")?;
        report.cycles += 1;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Part B: group-commit loss window under EveryN
// ---------------------------------------------------------------------

/// With `EveryN(4)` a crash may only lose the buffered suffix — fewer
/// than 4 acknowledged writes. The recovered store must equal the model
/// after the last group-commit boundary, exactly.
fn group_commit_loss_window(
    seed: u64,
    dir: &Path,
    rng: &mut SplitMix64,
    report: &mut WalReport,
) -> Result<(), Violation> {
    let wal_dir = dir.join("group-wal");
    let counter = PersistentCounter::open(dir.join("group-ctr")).expect("counter");
    let policy = DurabilityPolicy::EveryN(4);
    let store = ShieldStore::new(enclave(seed), config(policy)).expect("store");
    store.attach_wal(&wal_dir).expect("attach wal");

    let mut model = Model::default();
    let total = 10 + rng.next_below(8) as usize;
    let mut step = 0u64;
    while model.writes() < total {
        apply_random_op(&store, &mut model, rng, 1000 + step)?;
        step += 1;
    }
    store.wal_handle().expect("wal attached").simulate_crash();
    drop(store);

    // Only whole groups of 4 reached the log; the buffered remainder is
    // legitimately lost. Anything else — more, fewer, or reordered — is
    // a durability violation.
    let committed = model.after(model.writes() / 4 * 4);
    let recovered = ShieldStore::recover(enclave(seed), config(policy), None, &counter, &wal_dir)
        .map_err(|e| Violation {
        context: "group-commit crash".into(),
        detail: format!("recovery after group-commit crash failed: {e:?}"),
    })?;
    crate::check_state(&recovered, &committed, "group-commit loss window")?;
    report.cycles += 1;
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
fn log_tamper_attacks(
    seed: u64,
    dir: &Path,
    rng: &mut SplitMix64,
    report: &mut WalReport,
) -> Result<(), Violation> {
    let wal_dir = dir.join("tamper-wal");
    let counter = PersistentCounter::open(dir.join("tamper-ctr")).expect("counter");
    let store = ShieldStore::new(enclave(seed), config(DurabilityPolicy::Strict)).expect("store");
    store.attach_wal(&wal_dir).expect("attach wal");
    let mut model = Model::default();
    load(&store, &mut model, "c", "tamper-val", 0..8)?;
    store.wal_handle().expect("wal attached").simulate_crash();
    drop(store);

    let pin_path = wal_dir.join("wal.pin");
    let log_path = wal_dir.join("wal-0.log");
    let pin_bytes = std::fs::read(&pin_path).expect("read pin");
    let log_bytes = std::fs::read(&log_path).expect("read log");
    let restore_files = || {
        std::fs::write(&pin_path, &pin_bytes).expect("restore pin");
        std::fs::write(&log_path, &log_bytes).expect("restore log");
    };
    let recover = || {
        ShieldStore::recover(
            enclave(seed),
            config(DurabilityPolicy::Strict),
            None,
            &counter,
            &wal_dir,
        )
    };
    let mut expect_err = |mutate: &dyn Fn(), what: &str| -> Result<(), Violation> {
        restore_files();
        mutate();
        report.attacks += 1;
        match recover() {
            Err(_) => {
                report.detected += 1;
                Ok(())
            }
            Ok(store) => Err(Violation {
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
    let cut = 1 + rng.next_below(log_bytes.len() as u64 - 1) as usize;
    expect_err(&|| std::fs::write(&log_path, &log_bytes[..cut]).expect("truncate"), "truncation")?;

    // Bit flips anywhere in the image: length fields, sequence numbers,
    // IVs, ciphertext, and MACs are all covered by the record MACs.
    for _ in 0..3 {
        let pos = rng.next_below(log_bytes.len() as u64) as usize;
        let bit = 1u8 << rng.next_below(8);
        expect_err(
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
    let pin_pos = rng.next_below(pin_bytes.len() as u64) as usize;
    let pin_bit = 1u8 << rng.next_below(8);
    expect_err(
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
    let garbage = 1 + rng.next_below(32);
    {
        let mut m = log_bytes.clone();
        for _ in 0..garbage {
            m.push(rng.next_below(256) as u8);
        }
        std::fs::write(&log_path, &m).expect("torn tail");
    }
    match recover() {
        Ok(recovered) => {
            crate::check_state(&recovered, &model, "torn un-pinned tail")?;
            report.benign += 1;
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
    report.attacks += 1;
    match recover() {
        Err(Error::Rollback) => report.detected += 1,
        other => {
            return Err(Violation {
                context: "stale wal replay".into(),
                detail: format!(
                    "replaying a superseded pin+log returned {:?} instead of Err(Rollback)",
                    other.map(|_| "a working store"),
                ),
            });
        }
    }

    // Hidden pin: deleting the pin and log while the counter says a
    // generation exists must also be a rollback, not a fresh start.
    std::fs::remove_file(&pin_path).expect("hide pin");
    std::fs::remove_file(wal_dir.join("wal-0.log")).ok();
    report.attacks += 1;
    match recover() {
        Err(Error::Rollback) => report.detected += 1,
        other => {
            return Err(Violation {
                context: "hidden wal pin".into(),
                detail: format!(
                    "a hidden pin returned {:?} instead of Err(Rollback)",
                    other.map(|_| "a working store"),
                ),
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Part D: rotation and the pre-snapshot log
// ---------------------------------------------------------------------

/// A snapshot rotates the log to a new generation. Normal recovery
/// (snapshot + rotated tail) must be exact; offering the pre-snapshot
/// pin and log afterwards must fail closed.
fn stale_log_after_snapshot(
    seed: u64,
    dir: &Path,
    report: &mut WalReport,
) -> Result<(), Violation> {
    let wal_dir = dir.join("rotate-wal");
    let counter = PersistentCounter::open(dir.join("rotate-ctr")).expect("counter");
    let store = ShieldStore::new(enclave(seed), config(DurabilityPolicy::Strict)).expect("store");
    store.attach_wal(&wal_dir).expect("attach wal");
    let mut model = Model::default();
    load(&store, &mut model, "r", "rot-val", 0..6)?;

    // Capture the generation-0 pin and log before rotation deletes them.
    let stale_pin = std::fs::read(wal_dir.join("wal.pin")).expect("read pin");
    let stale_log = std::fs::read(wal_dir.join("wal-0.log")).expect("read log");

    let snap = dir.join("rotate.db");
    store.snapshot_blocking(&snap, &counter).expect("snapshot");
    load(&store, &mut model, "t", "tail-val", 0..2)?;
    store.wal_handle().expect("wal attached").simulate_crash();
    drop(store);

    // Honest recovery: snapshot plus the rotated generation-1 tail.
    let recovered = ShieldStore::recover(
        enclave(seed),
        config(DurabilityPolicy::Strict),
        Some(&snap),
        &counter,
        &wal_dir,
    )
    .map_err(|e| Violation {
        context: "post-snapshot recovery".into(),
        detail: format!("recovery from snapshot + rotated tail failed: {e:?}"),
    })?;
    crate::check_state(&recovered, &model, "post-snapshot recovery")?;
    recovered.wal_handle().expect("wal attached").simulate_crash();
    drop(recovered);

    // Replay the pre-snapshot generation against the post-snapshot
    // store: the pin names generation 0, the snapshot says 1, and the
    // counter has moved past the stale pin's claim.
    std::fs::write(wal_dir.join("wal.pin"), &stale_pin).expect("plant stale pin");
    std::fs::write(wal_dir.join("wal-0.log"), &stale_log).expect("plant stale log");
    report.attacks += 1;
    match ShieldStore::recover(
        enclave(seed),
        config(DurabilityPolicy::Strict),
        Some(&snap),
        &counter,
        &wal_dir,
    ) {
        Err(Error::Rollback) => report.detected += 1,
        other => {
            return Err(Violation {
                context: "pre-snapshot log replay".into(),
                detail: format!(
                    "a pre-rotation pin+log returned {:?} instead of Err(Rollback)",
                    other.map(|_| "a working store"),
                ),
            });
        }
    }
    report.cycles += 1;
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
fn snapshot_crash_window(seed: u64, dir: &Path, report: &mut WalReport) -> Result<(), Violation> {
    let wal_dir = dir.join("window-wal");
    let counter = PersistentCounter::open(dir.join("window-ctr")).expect("counter");
    let store = ShieldStore::new(enclave(seed), config(DurabilityPolicy::Strict)).expect("store");
    store.attach_wal(&wal_dir).expect("attach wal");
    let mut model = Model::default();
    load(&store, &mut model, "b", "base-val", 0..6)?;
    let snap = dir.join("window.db");
    store.snapshot_blocking(&snap, &counter).expect("good snapshot");
    load(&store, &mut model, "w", "mid-val", 0..4)?;

    // A background snapshot whose writer dies (target directory missing):
    // rotation began, the snapshot never lands.
    let job = store
        .snapshot_background(dir.join("no-such-dir").join("s.db"), &counter)
        .expect("start background snapshot");
    if job.finish().is_ok() {
        return Err(Violation {
            context: "snapshot crash window".into(),
            detail: "background snapshot into a missing directory reported success".into(),
        });
    }
    // The store keeps acknowledging writes into the newest generation.
    load(&store, &mut model, "x", "tail-val", 0..4)?;
    store.wal_handle().expect("wal attached").simulate_crash();
    drop(store);

    // Recovery from the last *successful* snapshot must replay both
    // retained generations: Strict means not one acknowledged write may
    // be missing.
    let recovered = ShieldStore::recover(
        enclave(seed),
        config(DurabilityPolicy::Strict),
        Some(&snap),
        &counter,
        &wal_dir,
    )
    .map_err(|e| Violation {
        context: "snapshot crash window".into(),
        detail: format!("recovery after a failed snapshot attempt failed: {e:?}"),
    })?;
    crate::check_state(&recovered, &model, "snapshot crash window")?;
    report.cycles += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_phase_runs_clean_on_a_few_seeds() {
        for seed in 0..3 {
            let report = run_wal_phase(seed).unwrap_or_else(|v| {
                panic!("seed {seed}: wal-phase violation: {v}");
            });
            assert_eq!(report.attacks, 9, "attack count drifted: {report:?}");
            assert_eq!(report.detected, 9, "undetected attack: {report:?}");
            assert_eq!(report.benign, 1, "torn-tail case missing: {report:?}");
            assert_eq!(report.cycles, 6, "crash cycle count drifted: {report:?}");
        }
    }
}
