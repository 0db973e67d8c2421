//! Storage-fault attacks: the adversary owns the disk's failure modes.
//!
//! Three scripted scenarios per seed, all deterministic:
//!
//! 1. **Fault under load** — a random commit-path I/O call fails (EIO,
//!    ENOSPC, short write, or a lying fsync, by seed). The writer must
//!    poison fail-closed (every later mutation answers
//!    [`shieldstore::Error::StorageFailed`], reads keep serving), and
//!    after a simulated power cut recovery must replay *exactly* the
//!    acknowledged prefix of the model's writes.
//! 2. **Segment rot, forged repair, genuine repair** — a sealed WAL
//!    byte flips on disk. The scrubber must find it and quarantine
//!    writes; a bit-flipped repair payload from a "lying peer" must be
//!    refused with the quarantine held; the genuine frames (from a
//!    journaling replica) must verify, swap in, and restore service.
//! 3. **Pin rot** — the sealed freshness pin flips a byte. The scrubber
//!    must detect it and self-repair from in-enclave state, leaving the
//!    store writable and recoverable.

use crate::{Rig, Violation};
use sgx_sim::counter::PersistentCounter;
use sgx_sim::storage::{FaultFs, FaultKind, FaultOp, FaultSpec, StorageFs};
use shieldstore::model::Model;
use shieldstore::{Config, DurabilityPolicy, Error, Op, Refusal, Replica, ShieldStore};
use std::sync::Arc;

/// The storage phase's seed salt.
pub const SALT: u64 = 0xd15c_fa11_0bad_d15c;

/// Commit-path fault sites: the log append and its fsync, failing every
/// way a disk can.
pub(crate) const COMMIT_SITES: &[(FaultOp, &str, FaultKind)] = &[
    (FaultOp::Write, "wal-", FaultKind::Eio),
    (FaultOp::Write, "wal-", FaultKind::Enospc),
    (FaultOp::Write, "wal-", FaultKind::ShortWrite),
    (FaultOp::SyncData, "wal-", FaultKind::SyncFail),
    (FaultOp::SyncData, "wal-", FaultKind::Eio),
];

fn config() -> Config {
    crate::rig::config().with_durability(DurabilityPolicy::Strict)
}

/// Runs the storage-fault phase. Besides `ops` (acknowledged), `attacks`
/// (faults and corruptions injected) and `detected`, it counts writers
/// `poisoned`, power cuts recovered exactly (`crash_recover_cycles`) and
/// verified `repairs` that restored service.
pub fn run(rig: &mut Rig) -> Result<(), Violation> {
    fault_under_load(rig)?;
    segment_rot_and_repair(rig)?;
    pin_rot_self_repair(rig)
}

fn fail(context: &str, detail: String) -> Violation {
    Violation { context: format!("storage phase: {context}"), detail }
}

// ---------------------------------------------------------------------
// Scenario 1: commit-path fault, poison, power cut, exact recovery
// ---------------------------------------------------------------------

fn fault_under_load(rig: &mut Rig) -> Result<(), Violation> {
    let (seed, wal_dir) = (rig.seed, rig.path("fault-wal"));
    let ffs = Arc::new(FaultFs::new());
    let fs = Arc::clone(&ffs) as Arc<dyn StorageFs>;
    let store = ShieldStore::new_with_storage(rig.enclave(), config(), fs).expect("store");
    store.attach_wal(&wal_dir).expect("attach wal");

    let total = 16 + rig.rng.next_below(16);
    let fault_at = 2 + rig.rng.next_below(total - 2);
    let (op, path, kind) = COMMIT_SITES[rig.rng.next_below(COMMIT_SITES.len() as u64) as usize];
    ffs.inject(FaultSpec { op, path_substr: path.into(), nth: fault_at, kind });
    rig.tally.add("attacks", 1);

    let mut model = Model::default();
    let mut poisoned = false;
    for step in 0..total {
        let (key, value) = (format!("sf-{step}"), format!("sv-{seed}-{step}"));
        let write = Op::set(key.as_bytes(), value.as_bytes());
        match store.execute(0, write) {
            Ok(_) if poisoned => {
                return Err(fail(
                    "fault under load",
                    format!("write acked after the writer poisoned ({op:?}/{kind:?})"),
                ));
            }
            Ok(reply) => {
                model.observe(0, write, Ok(&reply)).map_err(|e| fail("fault under load", e))?;
                rig.tally.add("ops", 1);
            }
            // The write whose commit failed landed in memory first: the
            // key holds either state until the power cut settles it.
            Err(Error::StorageFailed) => {
                poisoned = true;
                model
                    .observe(0, write, Err(Refusal::StorageFailed))
                    .map_err(|e| fail("fault under load", e))?;
            }
            Err(e) => {
                return Err(fail("fault under load", format!("unexpected error {e:?}")));
            }
        }
    }
    if !poisoned {
        return Err(fail(
            "fault under load",
            format!("armed fault {op:?}/{kind:?} at nth={fault_at} never fired in {total} ops"),
        ));
    }
    rig.tally.add("detected", 1);
    rig.tally.add("poisoned", 1);

    // Reads keep serving the acked state under poison.
    crate::check_state(&store, &model, "storage phase: reads under poison")?;

    ffs.power_cut().expect("power cut");
    drop(store);
    rig.tally.add("crash_recover_cycles", 1);
    let counter = PersistentCounter::open(rig.path("fault-ctr")).expect("counter");
    let recovered = ShieldStore::recover(rig.enclave(), config(), None, &counter, &wal_dir)
        .map_err(|e| fail("fault under load", format!("recovery failed: {e:?}")))?;
    let acked = model.after(model.writes());
    crate::check_state(&recovered, &acked, "storage phase: power-cut recovery")?;
    Ok(())
}

// ---------------------------------------------------------------------
// Scenario 2: segment rot → quarantine → forged repair refused →
// genuine repair restores service
// ---------------------------------------------------------------------

fn segment_rot_and_repair(rig: &mut Rig) -> Result<(), Violation> {
    let (seed, wal_dir) = (rig.seed, rig.path("rot-wal"));
    let store = Arc::new(ShieldStore::new(rig.enclave_at(seed ^ 1), config()).expect("store"));
    store.attach_wal(&wal_dir).expect("attach wal");

    let hello = store.repl_subscribe().expect("subscribe");
    let rstore = ShieldStore::new(rig.enclave_at(seed ^ 2), config()).expect("replica store");
    let mut replica = Replica::with_journal(Arc::new(rstore), &hello, &rig.path("rot-journal"))
        .expect("journaling replica");
    for step in 0..16u64 {
        store.set(format!("rot-{step}").as_bytes(), format!("rv-{step}").as_bytes()).unwrap();
        rig.tally.add("ops", 1);
    }
    loop {
        let wm = replica.watermark();
        let batch = store.repl_batch(wm.generation, wm.seq, 1 << 20).expect("batch");
        if batch.count == 0 && batch.advance_to.is_none() {
            break;
        }
        replica.apply_batch(&batch).expect("apply");
    }

    // Rot a sealed byte at a seed-dependent offset past the header.
    let log = wal_dir.join("wal-0.log");
    let mut bytes = std::fs::read(&log).expect("read log");
    let off = 8 + (seed as usize % (bytes.len() - 8));
    bytes[off] ^= 1u8 << (seed % 8);
    std::fs::write(&log, &bytes).expect("write rot");
    rig.tally.add("attacks", 1);

    let mut found = false;
    for _ in 0..10_000 {
        let tick = store.scrub_tick(1 << 12).expect("scrub tick");
        if tick.corrupt_generation == Some(0) {
            found = true;
            break;
        }
        if tick.pass_completed {
            break;
        }
    }
    if !found {
        return Err(fail("segment rot", format!("scrub missed a flipped bit at offset {off}")));
    }
    rig.tally.add("detected", 1);
    if !matches!(store.set(b"rot-probe", b"x"), Err(Error::StorageFailed)) {
        return Err(fail("segment rot", "quarantined writer accepted a write".into()));
    }
    if store.get(b"rot-0").map_or(true, |v| v != b"rv-0") {
        return Err(fail("segment rot", "reads stopped serving under quarantine".into()));
    }

    // Collect the genuine frames from the journal.
    let mut genuine = Vec::new();
    let mut after = 0u64;
    loop {
        let b = replica.serve_frames(0, after, 1 << 14).expect("serve frames");
        if b.count == 0 {
            break;
        }
        after += u64::from(b.count);
        genuine.extend_from_slice(&b.frames);
    }

    // A lying peer: one flipped bit anywhere must be refused whole.
    let mut forged = genuine.clone();
    let flip = (seed as usize).wrapping_mul(31) % forged.len();
    forged[flip] ^= 0x10;
    rig.tally.add("attacks", 1);
    if store.repair_wal_segment(0, &forged).is_ok() {
        return Err(fail("segment rot", format!("forged repair accepted (flip at {flip})")));
    }
    rig.tally.add("detected", 1);
    if !matches!(store.set(b"rot-probe-2", b"x"), Err(Error::StorageFailed)) {
        return Err(fail("segment rot", "refused repair lifted the quarantine".into()));
    }

    store
        .repair_wal_segment(0, &genuine)
        .map_err(|e| fail("segment rot", format!("genuine repair refused: {e:?}")))?;
    rig.tally.add("repairs", 1);
    store
        .set(b"rot-after", b"back")
        .map_err(|e| fail("segment rot", format!("write after repair failed: {e:?}")))?;
    rig.tally.add("ops", 1);
    Ok(())
}

// ---------------------------------------------------------------------
// Scenario 3: pin rot self-repairs from in-enclave state
// ---------------------------------------------------------------------

fn pin_rot_self_repair(rig: &mut Rig) -> Result<(), Violation> {
    let (seed, wal_dir) = (rig.seed, rig.path("pin-wal"));
    let store = ShieldStore::new(rig.enclave_at(seed ^ 3), config()).expect("store");
    store.attach_wal(&wal_dir).expect("attach wal");
    for step in 0..8u64 {
        store.set(format!("pin-{step}").as_bytes(), b"pinned").unwrap();
        rig.tally.add("ops", 1);
    }

    let pin = wal_dir.join("wal.pin");
    let mut bytes = std::fs::read(&pin).expect("read pin");
    let off = seed as usize % bytes.len();
    bytes[off] ^= 0x04;
    std::fs::write(&pin, &bytes).expect("write pin rot");
    rig.tally.add("attacks", 1);

    let mut flagged = false;
    for _ in 0..10_000 {
        let tick = store.scrub_tick(1 << 16).expect("scrub tick");
        flagged |= tick.pin_corrupt;
        if tick.pass_completed {
            break;
        }
    }
    if !flagged {
        return Err(fail("pin rot", format!("scrub missed a flipped pin byte at {off}")));
    }
    rig.tally.add("detected", 1);
    if store.snapshot().scrub_repaired == 0 {
        return Err(fail("pin rot", "pin was not rewritten in place".into()));
    }
    rig.tally.add("repairs", 1);

    store
        .set(b"pin-after", b"ok")
        .map_err(|e| fail("pin rot", format!("write after pin repair failed: {e:?}")))?;
    rig.tally.add("ops", 1);
    drop(store);
    let counter = PersistentCounter::open(rig.path("pin-ctr")).expect("counter");
    let recovered =
        ShieldStore::recover(rig.enclave_at(seed ^ 3), config(), None, &counter, &wal_dir)
            .map_err(|e| fail("pin rot", format!("recovery after pin repair failed: {e:?}")))?;
    if recovered.get(b"pin-after").map_or(true, |v| v != b"ok") {
        return Err(fail("pin rot", "post-repair write lost across recovery".into()));
    }
    Ok(())
}
