//! The log's writer: the state behind the store-wide WAL lock, and
//! everything that appends to the log or moves the pin — group commit
//! under the [`DurabilityPolicy`], the two-phase rotation, and the
//! fail-closed rule that freezes the durable watermark at the first
//! storage fault. There is one way to open a writer
//! ([`WalInner::open`]) and two guards every entry point starts with
//! ([`WalInner::alive`], [`WalInner::writable`]).

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::Enclave;
use sgx_sim::seal;
use sgx_sim::storage::{replace_durably, OpenMode, StorageFile, StorageFs};

use super::codec::WalCodec;
use super::pin::{Pin, Segment, MAX_SEGMENTS, PIN_FILE};
use super::{log_path, WalOp};
use crate::config::DurabilityPolicy;
use crate::error::{Error, Result};
use crate::hist::LatencyHist;

/// Ops buffered before a commit is forced regardless of policy, bounding
/// enclave memory spent on the buffer.
const BUFFER_CAP: usize = 4096;

/// Why a WAL writer stopped accepting commits. Distinct from `fenced`
/// (another instance claimed the log, which also stops *reads* of it):
/// a poisoned writer keeps serving its durable prefix to readers and
/// replicas — only the durable watermark is frozen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Poison {
    /// Healthy.
    None,
    /// A scrub pass found a pinned segment damaged on disk. Cleared
    /// when a verified repair swaps the segment back in.
    Corrupt,
    /// A durable write, fsync, rename, or counter bump failed.
    /// Permanent for this writer's lifetime: after a failed fsync the
    /// kernel may have silently dropped the dirty pages, so retrying
    /// and acknowledging would lose data (the "fsyncgate" lesson).
    Storage,
}

/// Routes a durable-I/O result through the fail-closed rule: the first
/// failure storage-poisons the writer and every caller sees
/// [`Error::StorageFailed`] from then on.
pub(super) fn fail_closed<T>(poison: &mut Poison, r: std::io::Result<T>) -> Result<T> {
    match r {
        Ok(v) => Ok(v),
        Err(_) => {
            *poison = Poison::Storage;
            Err(Error::StorageFailed)
        }
    }
}

/// The writer's state; every field sits behind [`super::Wal`]'s lock.
pub(super) struct WalInner {
    pub(super) dir: PathBuf,
    pub(super) fs: Arc<dyn StorageFs>,
    pub(super) enclave: Arc<Enclave>,
    pub(super) codec: WalCodec,
    pub(super) enc_key: [u8; 16],
    pub(super) mac_key: [u8; 16],
    pub(super) policy: DurabilityPolicy,
    /// Snapshot generation this log extends (the persistent snapshot
    /// counter value at the last rotation; 0 = no snapshot yet).
    pub(super) snap: u64,
    /// Sequence number of the last committed record.
    pub(super) seq: u64,
    /// MAC of the last committed record (or the genesis tag).
    pub(super) last_mac: [u8; 16],
    /// Completed older generations still awaiting [`WalInner::rotate_commit`]
    /// (their snapshot has not been confirmed durable), oldest first.
    pub(super) prev: Vec<Segment>,
    /// Oldest generation replication still needs ([`u64::MAX`] = no
    /// subscribers): [`WalInner::rotate_commit`] keeps segments at or
    /// above this floor alive even after their snapshot lands, so the
    /// shipped stream stays gapless across rotations.
    pub(super) retain_floor: u64,
    pub(super) file: Option<Box<dyn StorageFile>>,
    pub(super) buffer: Vec<WalOp>,
    pub(super) pin_counter: PersistentCounter,
    pub(super) bytes: u64,
    pub(super) records: u64,
    pub(super) fsyncs: u64,
    pub(super) group_hist: LatencyHist,
    /// Set when a fencing check finds another instance moved the pin
    /// counter: all further WAL traffic errors out, and `Drop` skips its
    /// best-effort flush.
    pub(super) fenced: bool,
    /// Fail-closed writer state — see [`Poison`].
    pub(super) poison: Poison,
}

impl WalInner {
    /// The one way to open a writer: over the generations `from` lists
    /// (oldest first, the last one the appendable current generation)
    /// under `from`'s keys, with the current generation's file opened in
    /// `mode` — truncated for a fresh log, appended to for a recovered
    /// or adopted one. Seals a pin over exactly that state before
    /// returning (`from.pin_ctr` is not carried over: the new pin claims
    /// `pin_counter`'s next value), so what is on disk never lags what
    /// the writer believes.
    pub(super) fn open(
        enclave: Arc<Enclave>,
        fs: Arc<dyn StorageFs>,
        dir: &Path,
        policy: DurabilityPolicy,
        pin_counter: PersistentCounter,
        mut from: Pin,
        mode: OpenMode,
    ) -> Result<WalInner> {
        let cur = from.segments.pop().ok_or_else(|| {
            Error::Persistence("a write-ahead log needs at least one segment".into())
        })?;
        let file = fs.open(&log_path(dir, cur.snap), mode)?;
        let mut inner = WalInner {
            dir: dir.to_path_buf(),
            fs,
            enclave,
            codec: WalCodec::new(&from.enc_key, &from.mac_key),
            enc_key: from.enc_key,
            mac_key: from.mac_key,
            policy,
            snap: cur.snap,
            seq: cur.last_seq,
            last_mac: cur.last_mac,
            prev: from.segments,
            retain_floor: u64::MAX,
            file: Some(file),
            buffer: Vec::new(),
            pin_counter,
            bytes: 0,
            records: 0,
            fsyncs: 0,
            group_hist: LatencyHist::default(),
            fenced: false,
            poison: Poison::None,
        };
        inner.write_pin()?;
        Ok(inner)
    }

    /// Fails once the writer was fenced: from then on the log serves
    /// nothing, reads included.
    pub(super) fn alive(&self) -> Result<()> {
        if self.fenced {
            return Err(Error::Persistence("write-ahead log lost to a crash".into()));
        }
        Ok(())
    }

    /// [`WalInner::alive`], and not poisoned: a poisoned writer can
    /// never make an op durable, so it refuses up front — the store
    /// degrades writes while reads (and shipping, and repair) go on.
    pub(super) fn writable(&self) -> Result<()> {
        self.alive()?;
        if self.poison != Poison::None {
            return Err(Error::StorageFailed);
        }
        Ok(())
    }

    /// The appendable current generation as the pin records it.
    fn current(&self) -> Segment {
        Segment { snap: self.snap, last_seq: self.seq, last_mac: self.last_mac }
    }

    /// The pinned segment list, oldest first, the current generation
    /// last.
    pub(super) fn pinned(&self) -> Vec<Segment> {
        let mut segments = self.prev.clone();
        segments.push(self.current());
        segments
    }

    /// Pinned generation `gen`, if it is (still) pinned.
    pub(super) fn segment(&self, gen: u64) -> Option<Segment> {
        self.prev.iter().copied().chain([self.current()]).find(|s| s.snap == gen)
    }

    /// Writes and fsyncs the freshness pin claiming counter value
    /// `current + 1`, then increments the counter. The pin file, the
    /// directory rename, and the counter are all fsynced, so even under
    /// power loss the durable pin and counter differ by at most the one
    /// accepted `c`/`c+1` step. See the module docs for why this order is
    /// crash-safe.
    pub(super) fn write_pin(&mut self) -> Result<()> {
        // Fencing check: a promoting replica claims this directory by
        // bumping the pin counter from outside (see [`crate::repl`]).
        // The counter caches its value in memory, so only a fresh read
        // of the file sees the bump — and once seen, this instance is a
        // fenced stale primary: poison the WAL so every later commit
        // fails closed too, and surface the canonical rollback error.
        if self.pin_counter.verify_persisted().is_err() {
            self.fenced = true;
            return Err(Error::Rollback);
        }
        let pin = Pin {
            pin_ctr: self.pin_counter.read() + 1,
            enc_key: self.enc_key,
            mac_key: self.mac_key,
            segments: self.pinned(),
        };
        let sealed = seal::seal(&self.enclave, &pin.encode());
        let path = self.dir.join(PIN_FILE);
        let replaced = replace_durably(self.fs.as_ref(), &path, |f| f.write_all(&sealed));
        fail_closed(&mut self.poison, replaced)?;
        if self.pin_counter.increment().is_err() {
            // A failed bump is ambiguous: it may be the fencing signal
            // (another instance moved the shared counter between the
            // check above and now) or a storage fault on the counter
            // file itself. Re-read to tell them apart.
            if self.pin_counter.verify_persisted().is_err() {
                self.fenced = true;
                return Err(Error::Rollback);
            }
            self.poison = Poison::Storage;
            return Err(Error::StorageFailed);
        }
        Ok(())
    }

    /// Seals the whole buffer into one record, appends + fsyncs it, and
    /// advances the pin. One commit = one record = one fsync.
    pub(super) fn commit(&mut self) -> Result<()> {
        self.writable()?;
        if self.buffer.is_empty() {
            return Ok(());
        }
        let seq = self.seq + 1;
        let iv = self.enclave.read_rand_block();
        let (frame, mac) = self.codec.seal_record(seq, &self.last_mac, &self.buffer, &iv);
        let file = self
            .file
            .as_mut()
            .ok_or_else(|| Error::Persistence("write-ahead log file not open".into()))?;
        fail_closed(&mut self.poison, file.write_all(&frame))?;
        fail_closed(&mut self.poison, file.sync_data())?;
        self.fsyncs += 1;
        self.seq = seq;
        self.last_mac = mac;
        self.bytes += frame.len() as u64;
        self.records += 1;
        self.group_hist.record(self.buffer.len() as u64);
        self.buffer.clear();
        self.write_pin()
    }

    /// Whether the policy demands a commit right now.
    pub(super) fn should_commit(&self) -> bool {
        if self.buffer.len() >= BUFFER_CAP {
            return true;
        }
        match self.policy {
            DurabilityPolicy::None => false,
            DurabilityPolicy::Strict => true,
            DurabilityPolicy::EveryN(n) => self.buffer.len() >= n,
        }
    }

    /// Phase one of rotation: commits the buffer into the current
    /// generation (making it complete), then opens a fresh, empty log for
    /// the *upcoming* snapshot generation `snap`. The old generation's
    /// log file and pin segment are **retained** — until the snapshot is
    /// durably on disk they are the only durable copy of those
    /// operations — and are pruned by [`WalInner::rotate_commit`] once
    /// the caller has confirmed the snapshot rename.
    pub(super) fn rotate_begin(&mut self, snap: u64) -> Result<()> {
        self.writable()?;
        if self.prev.len() + 1 >= MAX_SEGMENTS {
            return Err(Error::Persistence(format!(
                "{} snapshot generations already pending; a snapshot must \
                 succeed before the log can rotate again",
                self.prev.len() + 1
            )));
        }
        self.commit()?;
        self.prev.push(self.current());
        self.snap = snap;
        self.seq = 0;
        self.last_mac = self.codec.genesis(snap);
        let file = fail_closed(
            &mut self.poison,
            self.fs.open(&log_path(&self.dir, snap), OpenMode::Create),
        )?;
        self.file = Some(file);
        self.write_pin()
    }

    /// Phase two of rotation, called once the snapshot of generation
    /// `snap` is durably renamed: drops every pinned segment older than
    /// `snap` (the snapshot supersedes them) and only then deletes their
    /// log files — pin first, so a crash in between leaves orphan files
    /// (garbage-collected on recovery), never a pin referencing missing
    /// logs. Idempotent: a no-op when nothing is pending.
    pub(super) fn rotate_commit(&mut self, snap: u64) -> Result<()> {
        self.writable()?;
        // Prune only below both the confirmed snapshot and the
        // replication retention floor: a subscriber still mid-stream in
        // an old generation must be able to keep reading it.
        let cut = snap.min(self.retain_floor);
        let obsolete: Vec<Segment> = self.prev.iter().filter(|s| s.snap < cut).copied().collect();
        if obsolete.is_empty() {
            return Ok(());
        }
        self.prev.retain(|s| s.snap >= cut);
        self.write_pin()?;
        for seg in obsolete {
            let _ = self.fs.remove_file(&log_path(&self.dir, seg.snap));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;

    #[test]
    fn strict_policy_commits_each_op() {
        let dir = tmpdir("strict");
        let enc = enclave(8);
        let (wal, ffs) = faulty_wal(&enc, &dir, DurabilityPolicy::Strict);
        wal.log([set("a", "1")]).unwrap();
        wal.log([set("b", "2")]).unwrap();
        let (bytes, records, fsyncs, hist) = wal.gauges();
        assert!(bytes > 0);
        assert_eq!(records, 2);
        assert_eq!(fsyncs, 2);
        assert_eq!(hist.count(), 2);
        // A crash loses nothing under Strict.
        ffs.crash();
        drop(wal);
        assert_eq!(replay_all(&enc, &dir, 0).unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_n_groups_commits() {
        let dir = tmpdir("everyn");
        let enc = enclave(9);
        let (wal, ffs) = faulty_wal(&enc, &dir, DurabilityPolicy::EveryN(3));
        for i in 0..7 {
            wal.log([set(&format!("k{i}"), "v")]).unwrap();
        }
        let (_, records, fsyncs, hist) = wal.gauges();
        assert_eq!(records, 2); // two full groups of 3; one op buffered
        assert_eq!(fsyncs, 2);
        assert_eq!(hist.count(), 2);
        ffs.crash(); // the 7th op was never fsynced
        drop(wal);
        assert_eq!(replay_all(&enc, &dir, 0).unwrap().len(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_truncates_and_rebases_chain() {
        let dir = tmpdir("rotate");
        let enc = enclave(13);
        let wal =
            Wal::create(enc.clone(), RealFs::shared(), &dir, DurabilityPolicy::Strict, 0).unwrap();
        wal.log([set("a", "1")]).unwrap();
        wal.rotate_begin(5).unwrap();
        // Old generation survives until the snapshot is confirmed.
        assert!(log_path(&dir, 0).exists());
        wal.rotate_commit(5).unwrap();
        assert!(!log_path(&dir, 0).exists());
        wal.log([set("b", "2")]).unwrap();
        drop(wal);
        // The old generation is gone; recovery against the new snapshot id
        // replays only post-rotation ops.
        let ops = replay_all(&enc, &dir, 5).unwrap();
        assert_eq!(ops, vec![set("b", "2")]);
        // Recovering against the wrong generation is a rollback.
        assert_eq!(replay_all(&enc, &dir, 0), Err(Error::Rollback));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_rotate_begin_and_commit_loses_nothing() {
        let dir = tmpdir("rotate-window");
        let enc = enclave(16);
        let (wal, ffs) = faulty_wal(&enc, &dir, DurabilityPolicy::Strict);
        wal.log([set("a", "1")]).unwrap();
        wal.rotate_begin(5).unwrap();
        // Ops after rotate_begin land in the new generation's log.
        wal.log([set("b", "2")]).unwrap();
        ffs.crash();
        drop(wal);
        // The snapshot never materialized: recovery from the *old*
        // generation must replay both segments, in order.
        let ops = replay_all(&enc, &dir, 0).unwrap();
        assert_eq!(ops, vec![set("a", "1"), set("b", "2")]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_after_snapshot_durable_before_rotate_commit() {
        let dir = tmpdir("rotate-commit-window");
        let enc = enclave(17);
        let (wal, ffs) = faulty_wal(&enc, &dir, DurabilityPolicy::Strict);
        wal.log([set("a", "1")]).unwrap();
        wal.rotate_begin(5).unwrap();
        wal.log([set("b", "2")]).unwrap();
        ffs.crash();
        drop(wal);
        // The snapshot (generation 5) made it to disk but rotate_commit
        // never ran: recovery against generation 5 replays only the new
        // tail, drops the stale segment, and garbage-collects its log.
        let ops = replay_all(&enc, &dir, 5).unwrap();
        assert_eq!(ops, vec![set("b", "2")]);
        assert!(!log_path(&dir, 0).exists(), "superseded log not collected");
        // The dropped segment is no longer a valid recovery root.
        assert_eq!(replay_all(&enc, &dir, 0), Err(Error::Rollback));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_failed_snapshots_stack_segments() {
        let dir = tmpdir("rotate-stack");
        let enc = enclave(18);
        let (wal, ffs) = faulty_wal(&enc, &dir, DurabilityPolicy::Strict);
        wal.log([set("a", "1")]).unwrap();
        wal.rotate_begin(3).unwrap(); // snapshot 3 fails
        wal.log([set("b", "2")]).unwrap();
        wal.rotate_begin(4).unwrap(); // snapshot 4 fails too
        wal.log([set("c", "3")]).unwrap();
        ffs.crash();
        drop(wal);
        // All three generations chain into one recovery from the root.
        let ops = replay_all(&enc, &dir, 0).unwrap();
        assert_eq!(ops, vec![set("a", "1"), set("b", "2"), set("c", "3")]);
        // A mid-chain generation is also a valid root (its snapshot may
        // have been the one that landed): replay from there forward.
        let ops = replay_all(&enc, &dir, 3).unwrap();
        assert_eq!(ops, vec![set("b", "2"), set("c", "3")]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_fsync_poisons_writer_permanently() {
        let dir = tmpdir("fsync-poison");
        let enc = enclave(20);
        let (wal, ffs) = faulty_wal(&enc, &dir, DurabilityPolicy::Strict);
        wal.log([set("a", "1")]).unwrap();
        assert_eq!(wal.durable_watermark(), (0, 1));

        // The next fsync on the log file lies.
        ffs.inject(FaultSpec::first(FaultOp::SyncData, "wal-0.log", FaultKind::SyncFail));
        assert_eq!(wal.log([set("b", "2")]), Err(Error::StorageFailed));
        assert_eq!(ffs.injected(), 1);
        assert!(wal.storage_failed());
        assert_eq!(wal.durable_watermark(), (0, 1), "watermark frozen at the failure");

        // The fault fired once and is disarmed, but the writer must NOT
        // retry the fsync: every later commit fails closed too.
        assert_eq!(wal.log([set("c", "3")]), Err(Error::StorageFailed));
        assert!(wal.flush().is_err());
        assert_eq!(wal.rotate_begin(5), Err(Error::StorageFailed));
        let (_, records, fsyncs, _) = wal.gauges();
        assert_eq!((records, fsyncs), (1, 1), "no durable progress after the poison");

        // Replication still serves the verified durable prefix.
        let batch = wal.ship_from(0, 0, 1 << 20).unwrap();
        assert_eq!(batch.count, 1);
        drop(wal); // Drop must not attempt a commit on a poisoned writer

        // Recovery sees a verified prefix that covers everything acked.
        // The un-acked record rides along here because only the fsync
        // lied, not the write — it is gone under power loss (see
        // power_cut_after_lost_sync_recovers_acked_prefix), and the
        // watermark never promised it either way.
        assert_eq!(replay_all(&enc, &dir, 0).unwrap(), vec![set("a", "1"), set("b", "2")]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_mid_commit_leaves_verified_prefix() {
        let dir = tmpdir("enospc");
        let enc = enclave(21);
        let (wal, ffs) = faulty_wal(&enc, &dir, DurabilityPolicy::EveryN(2));
        wal.log([set("a", "1"), set("b", "2")]).unwrap(); // group 1 commits
        ffs.inject(FaultSpec::first(FaultOp::Write, "wal-0.log", FaultKind::Enospc));
        // Group 2 hits a full disk mid-append: a half-written frame is
        // on disk, so the writer must poison (appending more would
        // corrupt the chain).
        assert_eq!(wal.log([set("c", "3"), set("d", "4")]), Err(Error::StorageFailed));
        assert_eq!(wal.durable_watermark(), (0, 1));
        drop(wal);
        // Recovery truncates the torn half-frame and lands on the
        // genuine prefix: exactly the two acked ops.
        assert_eq!(replay_all(&enc, &dir, 0).unwrap(), vec![set("a", "1"), set("b", "2")]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_pin_rename_poisons_writer() {
        let dir = tmpdir("pin-rename");
        let enc = enclave(22);
        let (wal, ffs) = faulty_wal(&enc, &dir, DurabilityPolicy::Strict);
        wal.log([set("a", "1")]).unwrap();
        ffs.inject(FaultSpec::first(FaultOp::Rename, "wal.pin", FaultKind::Eio));
        assert_eq!(wal.log([set("b", "2")]), Err(Error::StorageFailed));
        assert!(wal.storage_failed());
        drop(wal);
        // Record 2 hit the log but its pin never landed; replay accepts
        // the committed-but-unpinned record (same as a crash there).
        let ops = replay_all(&enc, &dir, 0).unwrap();
        assert!(!ops.is_empty() && ops[0] == set("a", "1"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn power_cut_after_lost_sync_recovers_acked_prefix() {
        let dir = tmpdir("power-cut");
        let enc = enclave(25);
        let (wal, ffs) = faulty_wal(&enc, &dir, DurabilityPolicy::Strict);
        wal.log([set("a", "1")]).unwrap();
        // The second commit's log fsync silently lies, poisoning the
        // writer; then the machine loses power, dropping every page the
        // lying fsync claimed to persist.
        ffs.inject(FaultSpec::first(FaultOp::SyncData, "wal-0.log", FaultKind::SyncFail));
        assert_eq!(wal.log([set("b", "2")]), Err(Error::StorageFailed));
        drop(wal);
        ffs.power_cut().unwrap();
        // Only the acked write survives — and recovery agrees.
        assert_eq!(replay_all(&enc, &dir, 0).unwrap(), vec![set("a", "1")]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
