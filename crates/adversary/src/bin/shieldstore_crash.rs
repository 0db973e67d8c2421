//! `shieldstore_crash`: kill-point crash-recovery matrix.
//!
//! For every (seed, kill-point, policy) cell the harness re-spawns
//! itself as a child process that writes keys through a WAL-attached
//! store with the crash fuse armed: the n-th durability-critical I/O
//! boundary reached — torn frame write, post-write, post-fsync,
//! post-pin, post-counter — calls `abort(2)`, killing the process for
//! real mid-commit. The child appends one line to an `O_APPEND`
//! progress file after each *acknowledged* write, so the parent knows
//! exactly how many operations the store confirmed before dying.
//!
//! The parent then recovers from the on-disk WAL and checks that the
//! store is exactly the reference model after `k` of the child's writes
//! (`shieldstore::model::Model::after`), for some `k` in the policy's
//! window around the progress count `P`:
//!
//! * `Strict` — every acknowledged op was committed first: `k` is `P` or
//!   `P + 1` (the in-flight op may or may not have reached the log
//!   before the abort).
//! * `EveryN(4)` — only whole groups are durable: `k` is a multiple of 4
//!   within `[P - 3, P + 1]`.
//! * `snapshot` — strict writes, but the fuse is armed right before a
//!   mid-run snapshot (blocking or background by seed parity), so the
//!   kill points land inside the two-phase log-rotation protocol
//!   instead of the plain write path. Recovery uses the snapshot when
//!   its rename became durable and the bare WAL otherwise; the strict
//!   window applies either way.
//! * `expiry` — strict writes where every op carries an absolute TTL
//!   deadline: even steps get a far-future deadline (live), odd steps
//!   a near one (doomed). The child runs on a frozen clock and the
//!   parent recovers on a later frozen clock positioned *between* the
//!   two deadlines, so the crash always lands with expiries in flight.
//!   Recovery must neither resurrect a doomed entry (the model reads
//!   every doomed key as absent, and the sweep reaps exactly the
//!   replayed doomed population) nor early-expire a live one. Absolute
//!   deadlines keep the cell immune to wall-clock skew between the two
//!   processes.
//! * `storage` — strict writes through a fault-injecting filesystem:
//!   instead of an abort fuse, the kill-point picks the n-th durable
//!   I/O call that *fails* (EIO, ENOSPC, short write, or a lying
//!   fsync, by seed). The child checks the writer poisons — the first
//!   `StorageFailed` makes every later write answer the same — then
//!   simulates power loss and exits. `k` is exactly `P`: a record whose
//!   sync failed or never ran cannot survive the cut.
//!
//! The model reads back every key the child could have written, so a
//! lost, stale, phantom or unacknowledged-but-surviving entry all fail.
//!
//! ```text
//! shieldstore_crash [--seeds N] [--start S0] [--kill-points K] [--ops M]
//! ```
//!
//! Exit status is non-zero iff any cell recovered outside its policy
//! window.

use adversary::rig::{self, ScratchDir};
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::Enclave;
use sgx_sim::storage::{FaultFs, FaultKind, FaultOp, FaultSpec, StorageFs};
use shieldstore::model::Model;
use shieldstore::{ttl, Config, DurabilityPolicy, Error, Op, ShieldStore};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Storage-mode fault sites, cycled by seed: the commit path's log
/// append and its fsync, failing every way a disk can.
const STORAGE_SITES: &[(FaultOp, &str, FaultKind)] = &[
    (FaultOp::Write, "wal-", FaultKind::Enospc),
    (FaultOp::Write, "wal-", FaultKind::ShortWrite),
    (FaultOp::Write, "wal-", FaultKind::Eio),
    (FaultOp::SyncData, "wal-", FaultKind::SyncFail),
    (FaultOp::SyncData, "wal-", FaultKind::Eio),
];

/// Frozen "wall clock" the expiry-mode child writes under. An absolute
/// anchor (not `now`) so child and parent agree without sharing state.
const EXPIRY_BASE_NS: u64 = 1_800_000_000_000_000_000;
/// Live entries expire two hours after the anchor.
const LIVE_DEADLINE_NS: u64 = EXPIRY_BASE_NS + 7_200_000_000_000;
/// Doomed entries expire one hour after the anchor.
const DOOMED_DEADLINE_NS: u64 = EXPIRY_BASE_NS + 3_600_000_000_000;
/// The parent recovers ninety minutes in: doomed are past due, live
/// have half an hour left.
const RECOVERY_CLOCK_NS: u64 = EXPIRY_BASE_NS + 5_400_000_000_000;

const ROLE_ENV: &str = "SHIELDSTORE_CRASH_ROLE";
const DIR_ENV: &str = "SHIELDSTORE_CRASH_DIR";
const SEED_ENV: &str = "SHIELDSTORE_CRASH_SEED";
const FUSE_ENV: &str = "SHIELDSTORE_CRASH_FUSE";
const POLICY_ENV: &str = "SHIELDSTORE_CRASH_POLICY";
const OPS_ENV: &str = "SHIELDSTORE_CRASH_OPS";

fn enclave(seed: u64) -> Arc<Enclave> {
    rig::enclave("crash-matrix", seed).build()
}

fn config(policy: DurabilityPolicy) -> Config {
    rig::config().with_durability(policy)
}

fn policy_from_tag(tag: &str) -> DurabilityPolicy {
    match tag {
        // `snapshot` writes strictly and cuts a mid-run snapshot with the
        // fuse armed, so kill points land inside the log-rotation
        // protocol (rotate_begin pin, rotate_commit pin, and the commits
        // that follow) instead of the plain write path.
        // `expiry` writes strictly too, but every op carries an
        // absolute deadline so the kill points land with expiries in
        // flight on the WAL.
        // `storage` writes strictly through a fault-injecting
        // filesystem; the kill point is the n-th durable I/O call that
        // fails instead of the n-th crash-fuse boundary.
        "strict" | "snapshot" | "expiry" | "storage" => DurabilityPolicy::Strict,
        "group4" => DurabilityPolicy::EveryN(4),
        other => panic!("unknown policy tag {other:?}"),
    }
}

/// The `step`-th write every child makes: key, value and deadline. In
/// expiry mode even steps are live and odd steps doomed; elsewhere
/// nothing expires.
fn write(seed: u64, step: u64, expiry: bool) -> (Vec<u8>, Vec<u8>, u64) {
    let deadline = match (expiry, step.is_multiple_of(2)) {
        (false, _) => 0,
        (true, true) => LIVE_DEADLINE_NS,
        (true, false) => DOOMED_DEADLINE_NS,
    };
    (
        format!("crash-key-{step:03}").into_bytes(),
        format!("crash-val-{seed}-{step}").into_bytes(),
        deadline,
    )
}

fn main() {
    if std::env::var(ROLE_ENV).as_deref() == Ok("child") {
        run_child();
        return;
    }
    run_parent();
}

// ---------------------------------------------------------------------
// Child: write until the armed fuse aborts the process
// ---------------------------------------------------------------------

fn env_u64(name: &str) -> u64 {
    std::env::var(name)
        .unwrap_or_else(|_| panic!("{name} not set"))
        .parse()
        .unwrap_or_else(|_| panic!("{name} not numeric"))
}

fn run_child() {
    let dir = PathBuf::from(std::env::var(DIR_ENV).expect("crash dir"));
    let seed = env_u64(SEED_ENV);
    let fuse = env_u64(FUSE_ENV) as i64;
    let ops = env_u64(OPS_ENV);
    let tag = std::env::var(POLICY_ENV).expect("policy tag");
    let snapshot_mode = tag == "snapshot";
    let expiry_mode = tag == "expiry";
    if tag == "storage" {
        run_storage_child(&dir, seed, fuse as u64, ops);
        return;
    }
    let policy = policy_from_tag(&tag);

    let mut progress = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(dir.join("progress"))
        .expect("progress file");

    // In snapshot mode the fuse is armed right before the mid-run
    // snapshot, so every kill point exercises the rotation protocol;
    // otherwise arm before attaching so kill points inside WAL creation
    // (the first pin write) are part of the matrix too.
    if expiry_mode {
        // Write under a frozen clock anchored at an absolute time the
        // parent also knows, so deadlines mean the same thing in both
        // processes regardless of the real wall clock.
        ttl::freeze(EXPIRY_BASE_NS);
    }
    if !snapshot_mode {
        shieldstore::wal::crash::arm(fuse);
    }
    let store = ShieldStore::new(enclave(seed), config(policy)).expect("store");
    store.attach_wal(dir.join("wal")).expect("attach wal");
    let snap_at = ops / 2;
    for step in 0..ops {
        if snapshot_mode && step == snap_at {
            shieldstore::wal::crash::arm(fuse);
            let counter = PersistentCounter::open(dir.join("snapctr")).expect("snapshot counter");
            let snap = dir.join("snap.db");
            if seed.is_multiple_of(2) {
                store.snapshot_blocking(&snap, &counter).expect("blocking snapshot");
            } else {
                let job = store.snapshot_background(&snap, &counter).expect("start snapshot");
                job.finish().expect("finish snapshot");
            }
        }
        // The ack line goes to disk only after the set returned:
        // anything recorded was confirmed to the (hypothetical) client.
        // A doomed write is marked `D`, so the parent knows how many the
        // sweep must reap.
        let (key, value, expires_at) = write(seed, step, expiry_mode);
        store
            .execute(0, Op::Set { key: &key, value: &value, expires_at })
            .expect("acknowledged set");
        let marker = if expires_at == DOOMED_DEADLINE_NS { b"D\n" } else { b"+\n" };
        progress.write_all(marker).expect("progress write");
    }
    // Fuse outlasted the run: finish cleanly so the parent can check
    // full recovery instead.
    shieldstore::wal::crash::disarm();
    store.flush_wal().expect("final flush");
}

/// Storage-mode child: the `kill`-th matching durable I/O call fails
/// (site by seed), the writer must poison fail-closed, and the run ends
/// in a simulated power cut. Exits non-zero iff the fault fired.
fn run_storage_child(dir: &Path, seed: u64, kill: u64, ops: u64) {
    let ffs = Arc::new(FaultFs::new());
    let store = ShieldStore::new_with_storage(
        enclave(seed),
        config(DurabilityPolicy::Strict),
        Arc::clone(&ffs) as Arc<dyn StorageFs>,
    )
    .expect("store");
    store.attach_wal(dir.join("wal")).expect("attach wal");

    let mut progress = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(dir.join("progress"))
        .expect("progress file");

    let (op, path, kind) = STORAGE_SITES[(seed as usize) % STORAGE_SITES.len()];
    ffs.inject(FaultSpec { op, path_substr: path.into(), nth: kill, kind });

    for step in 0..ops {
        let (key, value, _) = write(seed, step, false);
        match store.set(&key, &value) {
            Ok(()) => progress.write_all(b"+\n").expect("progress write"),
            Err(Error::StorageFailed) => {
                // Fail-closed: the poisoned writer refuses every later
                // mutation while reads keep serving the acked prefix.
                assert!(
                    matches!(store.set(b"poisoned-probe", b"x"), Err(Error::StorageFailed)),
                    "writer accepted a mutation after poisoning"
                );
                if step > 0 {
                    store.get(&write(seed, step - 1, false).0).expect("acked read under poison");
                }
                ffs.power_cut().expect("power cut");
                std::process::exit(3);
            }
            Err(e) => panic!("unexpected set error: {e:?}"),
        }
    }
    // The fault never fired (kill point past the run): finish cleanly.
    ffs.clear_faults();
    store.flush_wal().expect("final flush");
}

// ---------------------------------------------------------------------
// Parent: spawn the matrix, recover each cell, check the window
// ---------------------------------------------------------------------

struct Args {
    start: u64,
    seeds: u64,
    kill_points: u64,
    ops: u64,
}

fn parse_args() -> Args {
    let mut args = Args { start: 0, seeds: 4, kill_points: 12, ops: 48 };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> u64 {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds"),
            "--start" => args.start = value("--start"),
            "--kill-points" => args.kill_points = value("--kill-points"),
            "--ops" => args.ops = value("--ops"),
            "--help" | "-h" => {
                println!(
                    "usage: shieldstore_crash [--seeds N] [--start S0] [--kill-points K] [--ops M]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other:?}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

fn run_parent() {
    let args = parse_args();
    let exe = std::env::current_exe().expect("own executable path");
    let mut cells = 0u64;
    let mut crashes = 0u64;
    let mut clean_runs = 0u64;
    let mut failures: Vec<String> = Vec::new();

    for seed in args.start..args.start + args.seeds {
        for kill in 1..=args.kill_points {
            for tag in ["strict", "group4", "snapshot", "expiry", "storage"] {
                cells += 1;
                let scratch = ScratchDir::new(&format!("crash-{seed}-{kill}-{tag}"));
                let dir = scratch.path();
                let status = std::process::Command::new(&exe)
                    .env(ROLE_ENV, "child")
                    .env(DIR_ENV, dir)
                    .env(SEED_ENV, seed.to_string())
                    .env(FUSE_ENV, kill.to_string())
                    .env(POLICY_ENV, tag)
                    .env(OPS_ENV, args.ops.to_string())
                    .status()
                    .expect("spawn child");
                if status.success() {
                    clean_runs += 1;
                } else {
                    crashes += 1;
                }
                if let Err(why) = check_cell(seed, tag, dir, args.ops, status.success()) {
                    failures.push(format!("seed={seed} kill={kill} policy={tag}: {why}"));
                    println!("FAIL seed={seed} kill={kill} policy={tag}");
                    println!("  {why}");
                }
            }
        }
    }

    println!(
        "crash-matrix: {cells} cells ({} seeds x {} kill-points x 5 modes), \
         {crashes} aborted mid-commit, {clean_runs} ran to completion, {}",
        args.seeds,
        args.kill_points,
        if failures.is_empty() {
            "every recovery inside its policy window".to_string()
        } else {
            format!("{} WINDOW VIOLATIONS", failures.len())
        },
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// Recovers one cell's WAL (and its snapshot, when the child durably
/// renamed one) and checks that the store is the model after `k` of the
/// child's writes, for some `k` in the cell's window: all of them after a
/// clean exit; otherwise, with `P` writes acknowledged,
///
/// * `strict`, `snapshot`, `expiry` — `P` or `P + 1` (the in-flight write
///   may or may not have reached the log before the abort);
/// * `group4` — a multiple of 4 in `P - 3 ..= P + 1`: whole groups only;
/// * `storage` — exactly `P`: a write whose sync failed or never ran
///   cannot survive the power cut.
///
/// Expiry cells recover on a frozen clock between the two deadline
/// classes, so the model reads every doomed key as absent and every live
/// one as written.
fn check_cell(seed: u64, tag: &str, dir: &Path, ops: u64, clean_exit: bool) -> Result<(), String> {
    if tag == "expiry" {
        ttl::freeze(RECOVERY_CLOCK_NS);
    }
    let verdict = recover_cell(seed, tag, dir, ops, clean_exit);
    ttl::thaw();
    verdict
}

fn recover_cell(
    seed: u64,
    tag: &str,
    dir: &Path,
    ops: u64,
    clean_exit: bool,
) -> Result<(), String> {
    let markers = std::fs::read(dir.join("progress")).unwrap_or_default();
    let acked = markers.iter().filter(|&&c| c == b'\n').count() as u64;
    let policy = policy_from_tag(tag);
    let window: Vec<u64> = match policy {
        _ if clean_exit => (acked == ops).then_some(ops).into_iter().collect(),
        _ if tag == "storage" => vec![acked],
        DurabilityPolicy::EveryN(n) => {
            let n = n as u64;
            (acked.saturating_sub(n - 1)..=acked + 1).filter(|k| k.is_multiple_of(n)).collect()
        }
        _ => vec![acked, acked + 1],
    };
    let counter = PersistentCounter::open(dir.join("snapctr"))
        .map_err(|e| format!("snapshot counter: {e}"))?;
    let snap_path = dir.join("snap.db");
    let snapshot = snap_path.exists().then_some(snap_path);
    let store = ShieldStore::recover(
        enclave(seed),
        config(policy),
        snapshot.as_deref(),
        &counter,
        dir.join("wal"),
    )
    .map_err(|e| format!("recovery failed: {e:?} (acked={acked})"))?;

    let mut model = Model::default();
    for step in 0..ops {
        let (key, value, expires_at) = write(seed, step, tag == "expiry");
        model.apply(0, Op::Set { key: &key, value: &value, expires_at });
    }
    let misses: Vec<String> = window
        .iter()
        .map_while(|&k| {
            model.after(k as usize).check_store(&store).err().map(|e| format!("k={k}: {e}"))
        })
        .collect();
    if misses.len() == window.len() {
        return Err(format!(
            "recovered {} entries, acknowledged {acked} (clean_exit={clean_exit}): outside the \
             {tag} durability window {window:?} [{}]",
            store.len(),
            misses.join("; ")
        ));
    }

    if tag == "expiry" {
        // The sweep reaps exactly the replayed doomed population: every
        // acknowledged doomed write plus at most the one in flight.
        let acked_doomed = markers.iter().filter(|&&c| c == b'D').count() as u64;
        let recovered = store.len() as u64;
        let swept = store.sweep_expired().map_err(|e| format!("sweep: {e}"))? as u64;
        if swept < acked_doomed || swept > acked_doomed + 1 {
            return Err(format!(
                "sweep reaped {swept} entries, acknowledged doomed {acked_doomed}: \
                 outside the strict window"
            ));
        }
        if store.len() as u64 != recovered - swept {
            return Err(format!(
                "sweep bookkeeping: len {} after reaping {swept} of {recovered}",
                store.len()
            ));
        }
        // Live keys survive the sweep untouched.
        for step in (0..acked.min(ops)).step_by(2) {
            let (key, value, _) = write(seed, step, true);
            if store.get(&key).as_ref() != Ok(&value) {
                return Err(format!("live key {step} damaged by the sweep"));
            }
        }
    }

    // The recovered store (a new process, a healthy disk) accepts new
    // writes in the same generation.
    store.set(b"post-recovery", b"ok").map_err(|e| format!("post-recovery write: {e:?}"))?;
    store
        .snapshot()
        .check_consistent()
        .map_err(|detail| format!("stats invariant after recovery: {detail}"))?;
    Ok(())
}
