//! The `crash` phase: the process dies at a storage call, and recovery
//! must bring back every acknowledged write or fail closed.
//!
//! Each seed runs one cell per mode. A cell writes through a store on a
//! [`FaultFs`] armed to crash at the seed's kill point, the n-th mutating
//! storage call ([`FaultFs::crash_at`]), so a kill lands anywhere in a
//! commit: the frame append and its fsync, or midway through the pin's or
//! the counter's durable replace. The cell stops at the first refused
//! write (the process is dead), recovers its directory through the real
//! filesystem and checks that the store is the model after `k` of its
//! writes, for some `k` in the mode's window around `P`, the writes
//! acknowledged before the kill:
//!
//! * `strict` — `P` or `P + 1`: the in-flight write may or may not have
//!   reached the log.
//! * `group4` — `EveryN(4)`: a multiple of 4 in `P - 3 ..= P + 1`, whole
//!   groups only.
//! * `snapshot` — strict writes, with the kill point counted from a
//!   mid-run snapshot (blocking on even seeds, background on odd ones), so
//!   it lands in the snapshot counter's bump, the two-phase log rotation or
//!   the snapshot's own replace. Recovery uses the snapshot when its rename
//!   landed and the bare log otherwise; the strict window applies.
//! * `expiry` — strict writes whose even steps expire late (live) and odd
//!   steps early (doomed), written on a frozen clock and recovered on a
//!   later one between the two deadlines: no doomed entry may come back,
//!   no live one expire early, and the sweep reaps exactly the doomed
//!   writes.
//! * `storage` — strict writes where the kill point picks the n-th call at
//!   the seed's entry of the storage phase's `COMMIT_SITES`, which fails
//!   instead (EIO, ENOSPC, a short write or a lying fsync). The writer
//!   must poison fail-closed; a power cut follows, and `k` is exactly `P`.
//!
//! Every recovered store must also take a new write and keep its
//! counters consistent. The kill point is a function of the seed alone,
//! and any 120 consecutive seeds (CI runs 200) reach every point in
//! every mode, each snapshot flavour and storage site included.

use crate::rig::ThawGuard;
use crate::storagephase::COMMIT_SITES;
use crate::{Rig, Violation};
use sgx_sim::counter::PersistentCounter;
use sgx_sim::storage::{FaultFs, FaultSpec};
use shieldstore::model::Model;
use shieldstore::{ttl, DurabilityPolicy, Error, Op, ShieldStore};
use std::path::Path;
use std::sync::Arc;

/// The crash phase's seed salt (its kill points come from the seed).
pub const SALT: u64 = 0xc4a5_4c4a_54c4_a54c;
/// The modes every seed runs, one cell each.
const MODES: [&str; 5] = ["strict", "group4", "snapshot", "expiry", "storage"];
/// Crash kill points: a strict commit makes twelve mutating calls (frame
/// write and fsync, then five for each durable replace of the pin and
/// its counter), after the twelve that attach the log, so point 60 ends
/// the fourth commit.
const KILL_POINTS: u64 = 60;
/// Storage-mode kill points: the n-th call at the seed's fault site.
const STORAGE_KILL_POINTS: u64 = 20;
/// Writes per cell; the snapshot mode snapshots after half of them.
const OPS: u64 = 48;

/// The frozen clock the expiry mode writes under.
const EXPIRY_BASE_NS: u64 = 1_800_000_000_000_000_000;
/// Live entries expire two hours after it.
const LIVE_DEADLINE_NS: u64 = EXPIRY_BASE_NS + 7_200_000_000_000;
/// Doomed entries expire one hour after it.
const DOOMED_DEADLINE_NS: u64 = EXPIRY_BASE_NS + 3_600_000_000_000;
/// Recovery runs ninety minutes in: doomed are past due, live have half
/// an hour left.
const RECOVERY_CLOCK_NS: u64 = EXPIRY_BASE_NS + 5_400_000_000_000;

/// The kill point of `seed`'s cell in `mode`. The crash modes step
/// through `1..=KILL_POINTS` every second seed, so even and odd seeds
/// (the two snapshot flavours) each reach every point.
fn kill_point(seed: u64, mode: &str) -> u64 {
    match mode {
        "storage" => 1 + seed / COMMIT_SITES.len() as u64 % STORAGE_KILL_POINTS,
        _ => 1 + seed / 2 % KILL_POINTS,
    }
}

/// Runs one cell per mode. Counts acknowledged writes as `ops`, kills
/// as `crashes`, storage-mode writers `poisoned`, and every recovery
/// checked inside its window as a `crash_recover_cycles`.
pub fn run(rig: &mut Rig) -> Result<(), Violation> {
    MODES.iter().try_for_each(|mode| cell(rig, mode))
}

/// The `step`-th write of a cell: key, value and deadline. In expiry
/// mode even steps are live and odd steps doomed; elsewhere nothing
/// expires.
fn write(seed: u64, step: u64, expiry: bool) -> (Vec<u8>, Vec<u8>, u64) {
    let deadline = match (expiry, step % 2) {
        (false, _) => 0,
        (true, 0) => LIVE_DEADLINE_NS,
        (true, _) => DOOMED_DEADLINE_NS,
    };
    (
        format!("crash-key-{step:03}").into_bytes(),
        format!("crash-val-{seed}-{step}").into_bytes(),
        deadline,
    )
}

fn cell(rig: &mut Rig, mode: &'static str) -> Result<(), Violation> {
    let (seed, kill, dir) = (rig.seed, kill_point(rig.seed, mode), rig.path(mode));
    let fail = |detail: String| Violation {
        context: format!("crash phase: seed={seed} mode={mode} kill={kill}"),
        detail,
    };
    let expiry = mode == "expiry";
    let _clock = expiry.then(|| ThawGuard::freeze(EXPIRY_BASE_NS));
    let policy = match mode {
        "group4" => DurabilityPolicy::EveryN(4),
        _ => DurabilityPolicy::Strict,
    };
    let config = crate::rig::config().with_durability(policy);
    let ffs = Arc::new(FaultFs::new());
    match mode {
        "storage" => {
            let (op, path, kind) = COMMIT_SITES[seed as usize % COMMIT_SITES.len()];
            ffs.inject(FaultSpec { op, path_substr: path.into(), nth: kill, kind });
        }
        "snapshot" => {}
        _ => ffs.crash_at(kill),
    }
    let store = ShieldStore::new_with_storage(rig.enclave(), config.clone(), ffs.clone())
        .map_err(|e| fail(format!("store: {e}")))?;
    let (acked, refused) = write_until_refused(&store, &ffs, mode, seed, &dir);
    let Some(refusal) = refused else {
        return Err(fail(format!("the kill point was never reached in {OPS} writes")));
    };
    rig.tally.add("ops", acked);
    if mode == "storage" {
        rig.tally.add("poisoned", 1);
        check_poisoned(&store, seed, acked, &refusal).map_err(fail)?;
        ffs.power_cut().map_err(|e| fail(format!("power cut: {e}")))?;
    } else {
        rig.tally.add("crashes", 1);
    }
    drop(store);

    let window: Vec<u64> = match policy {
        _ if mode == "storage" => vec![acked],
        DurabilityPolicy::EveryN(n) => {
            let n = n as u64;
            (acked.saturating_sub(n - 1)..=acked + 1).filter(|k| k % n == 0).collect()
        }
        _ => vec![acked, acked + 1],
    };
    if expiry {
        ttl::freeze(RECOVERY_CLOCK_NS);
    }
    let counter = PersistentCounter::open(dir.join("snapctr"))
        .map_err(|e| fail(format!("snapshot counter: {e}")))?;
    let snap = dir.join("snap.db");
    let snapshot = snap.exists().then_some(snap.as_path());
    let store = ShieldStore::recover(rig.enclave(), config, snapshot, &counter, dir.join("wal"))
        .map_err(|e| fail(format!("recovery failed: {e:?} (acked={acked}, {refusal:?})")))?;
    let mut model = Model::default();
    for step in 0..OPS {
        let (key, value, expires_at) = write(seed, step, expiry);
        model.apply(0, Op::Set { key: &key, value: &value, expires_at });
    }
    let misses: Vec<String> = window
        .iter()
        .map_while(|&k| {
            model.after(k as usize).check_store(&store).err().map(|e| format!("k={k}: {e}"))
        })
        .collect();
    if misses.len() == window.len() {
        return Err(fail(format!(
            "recovered {} entries after {acked} acked ({refusal:?}): outside the window \
             {window:?} [{}]",
            store.len(),
            misses.join("; ")
        )));
    }
    if expiry {
        check_sweep(&store, seed, acked).map_err(fail)?;
    }
    // The recovered store (a new process, a healthy disk) takes new
    // writes in the same generation.
    store.set(b"post-recovery", b"ok").map_err(|e| fail(format!("post-recovery write: {e:?}")))?;
    store.snapshot().check_consistent().map_err(|e| fail(format!("stats after recovery: {e}")))?;
    rig.tally.add("crash_recover_cycles", 1);
    Ok(())
}

/// Attaches a log in `dir` and writes until the first refusal: how many
/// writes were acknowledged, and the refusal (`None` when all were). The
/// snapshot mode arms the crash just before its mid-run snapshot, whose
/// counter lives on the same filesystem.
fn write_until_refused(
    store: &ShieldStore,
    ffs: &Arc<FaultFs>,
    mode: &str,
    seed: u64,
    dir: &Path,
) -> (u64, Option<Error>) {
    if let Err(e) = store.attach_wal(dir.join("wal")) {
        return (0, Some(e));
    }
    for step in 0..OPS {
        if mode == "snapshot" && step == OPS / 2 {
            ffs.crash_at(kill_point(seed, mode));
            if let Err(e) = snapshot(store, ffs, seed, dir) {
                return (step, Some(e));
            }
        }
        let (key, value, expires_at) = write(seed, step, mode == "expiry");
        if let Err(e) = store.execute(0, Op::Set { key: &key, value: &value, expires_at }) {
            return (step, Some(e));
        }
    }
    (OPS, None)
}

/// A blocking snapshot on even seeds, a background one on odd seeds.
fn snapshot(store: &ShieldStore, ffs: &Arc<FaultFs>, seed: u64, dir: &Path) -> Result<(), Error> {
    let counter = PersistentCounter::open_with(ffs.clone(), dir.join("snapctr"))?;
    let snap = dir.join("snap.db");
    match seed % 2 {
        0 => store.snapshot_blocking(&snap, &counter),
        _ => store.snapshot_background(&snap, &counter)?.finish().map(drop),
    }
}

/// A storage fault poisons the writer fail-closed: the failed write was
/// refused `StorageFailed`, every later one is too, and reads keep
/// serving the acknowledged prefix.
fn check_poisoned(
    store: &ShieldStore,
    seed: u64,
    acked: u64,
    refusal: &Error,
) -> Result<(), String> {
    if *refusal != Error::StorageFailed {
        return Err(format!("a storage fault answered {refusal:?}, not StorageFailed"));
    }
    if store.set(b"poisoned-probe", b"x") != Err(Error::StorageFailed) {
        return Err("the writer took a write after poisoning".into());
    }
    if let Some(last) = acked.checked_sub(1) {
        let (key, value, _) = write(seed, last, false);
        if store.get(&key).as_ref() != Ok(&value) {
            return Err("the last acknowledged write stopped reading under poison".into());
        }
    }
    Ok(())
}

/// On the recovery clock the sweep reaps exactly the doomed writes
/// replayed: every acknowledged one, plus at most the one in flight,
/// and leaves every live one as written.
fn check_sweep(store: &ShieldStore, seed: u64, acked: u64) -> Result<(), String> {
    let (recovered, acked_doomed) = (store.len() as u64, acked / 2);
    let swept = store.sweep_expired().map_err(|e| format!("sweep: {e}"))? as u64;
    if swept < acked_doomed || swept > acked_doomed + 1 {
        return Err(format!("the sweep reaped {swept}, acknowledged doomed {acked_doomed}"));
    }
    if store.len() as u64 != recovered - swept {
        return Err(format!("{} entries after reaping {swept} of {recovered}", store.len()));
    }
    for step in (0..acked).step_by(2) {
        let (key, value, _) = write(seed, step, true);
        if store.get(&key).as_ref() != Ok(&value) {
            return Err(format!("live key {step} damaged by the sweep"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Any 120 consecutive seeds reach every kill point of every mode,
    /// both snapshot flavours and every storage site included.
    #[test]
    fn consecutive_seeds_reach_every_kill_point() {
        for start in [0, 7, 80] {
            let seeds = start..start + 120;
            for mode in MODES {
                let cells: BTreeSet<(u64, u64)> = seeds
                    .clone()
                    .map(|seed| match mode {
                        "snapshot" => (seed % 2, kill_point(seed, mode)),
                        "storage" => (seed % 5, kill_point(seed, mode)),
                        _ => (0, kill_point(seed, mode)),
                    })
                    .collect();
                let (flavours, points) = match mode {
                    "snapshot" => (2, KILL_POINTS),
                    "storage" => (5, STORAGE_KILL_POINTS),
                    _ => (1, KILL_POINTS),
                };
                let every: BTreeSet<(u64, u64)> =
                    (0..flavours).flat_map(|f| (1..=points).map(move |k| (f, k))).collect();
                assert_eq!(cells, every, "{mode} from seed {start}");
            }
        }
    }

    #[test]
    fn crash_phase_runs_clean_and_replays_exactly() {
        for seed in [0, 1, 23, 118, 119] {
            let tally =
                crate::run_phase("crash", seed, SALT, run).unwrap_or_else(|v| panic!("{v}"));
            assert_eq!(tally.get("crashes"), 4, "seed {seed}: {tally}");
            assert_eq!(tally.get("poisoned"), 1, "seed {seed}: {tally}");
            assert_eq!(tally.get("crash_recover_cycles"), 5, "seed {seed}: {tally}");
            let again = crate::run_phase("crash", seed, SALT, run).expect("clean");
            assert_eq!(tally, again, "seed {seed}");
        }
    }
}
