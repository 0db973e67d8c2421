//! Sealed write-ahead operation log (WAL).
//!
//! Snapshots (§4.4, [`crate::persist`]) bound durability only to the last
//! snapshot cut — every acknowledged write since then dies with the
//! process. This module closes that window with an append-only operation
//! log whose records are sealed *inside* the simulated enclave, so the
//! untrusted disk (and the host controlling it) learns nothing about keys
//! or values and cannot tamper with, reorder, splice, truncate, or roll
//! back the log without detection.
//!
//! # Record format
//!
//! ```text
//! [ len u32 | seq u64 | iv 16B | ciphertext | mac 16B ]
//!   `len` counts everything after itself (min 40 bytes).
//!   mac = CMAC(mac_key, prev_mac || seq_le || len_le || iv || ct)
//!   record 1 chains from a genesis tag:
//!   prev_mac(1) = CMAC(mac_key, "shieldstore-wal-genesis-v1" || snap_le)
//! ```
//!
//! Each record's CMAC covers the *previous* record's MAC and a monotone
//! sequence number, so the log forms a hash chain rooted in the snapshot
//! generation it extends. The plaintext payload is a batch of idempotent
//! operations (`set` / `delete`); non-idempotent writes (`append`,
//! `increment`) are logged as the resulting full value so replay after a
//! snapshot/log overlap cannot double-apply them.
//!
//! # Freshness pin
//!
//! A chain alone cannot stop the host from serving a *stale prefix* of the
//! log (every prefix is internally consistent). The WAL therefore keeps a
//! sealed pin file recording the log's encryption/MAC keys plus a list of
//! live *segments* — `(snapshot id, last seq, last MAC)` per log
//! generation — and binds the pin to an
//! [`sgx_sim::counter::PersistentCounter`] — the same §4.4 monotonic
//! counter defense snapshots use. Commit order is: write + fsync the
//! record, write + fsync the pin claiming counter value `c+1`, then
//! increment the counter to `c+1` (the counter file is fsynced too, so
//! under power loss the durable pin and counter cannot drift apart by
//! more than this one step). Recovery accepts a pin claiming `c` or `c+1`
//! (a crash between pin write and counter bump is legitimate); any stale
//! pin claims `< c` and is rejected as a rollback.
//!
//! # Rotation
//!
//! Cutting a snapshot rotates the log in two phases so that no crash
//! point strands acknowledged writes. [`Wal::rotate_begin`] opens a fresh
//! log for the *upcoming* snapshot generation while **retaining** the old
//! generation's log and its pin segment — until the snapshot is durably
//! renamed, the old log is still the only durable copy of those
//! operations. Once the snapshot is on disk, [`Wal::rotate_commit`]
//! prunes the superseded segments from the pin and only then deletes
//! their log files. A crash (or a failed snapshot writer) anywhere in
//! between leaves a pin listing both generations, and recovery replays
//! whichever pinned generation matches the restored snapshot *plus every
//! later segment* — repeated snapshot failures simply stack more
//! segments, never losing the logged tail.
//!
//! # Group commit
//!
//! Operations buffer in enclave memory and a *commit* turns the whole
//! buffer into one record — one seal, one fsync, one pin update — under a
//! [`DurabilityPolicy`]: every op (`Strict`), every N ops, or only on
//! explicit flush.
//!
//! # Recovery
//!
//! [`crate::ShieldStore::recover`] restores the latest snapshot, finds
//! its generation among the pinned segments, then replays each segment's
//! log record-by-record, verifying the chain as it goes. Records at or
//! below a segment's pinned sequence must all be present and valid (else
//! [`Error::Rollback`] / [`Error::LogIntegrity`]); past the pin, a torn
//! final record (crash mid-write) is truncated and replay stops cleanly,
//! while a *complete* record with a bad MAC still fails closed. The
//! sealed pin — not the snapshot's own counter — is the freshness root
//! here: any pinned generation's snapshot plus its later segments replays
//! to the same complete state, and a snapshot generation absent from the
//! pin is a rollback.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::Enclave;
use sgx_sim::storage::{OpenMode, StorageFs};

pub use crate::config::DurabilityPolicy;
use crate::error::{Error, Result};
use crate::hist::LatencyHist;
use crate::op::{Op, Reply};
use crate::tenant::TenantId;

mod codec;
mod frames;
mod pin;
mod reader;
mod writer;

pub use codec::{WalCodec, MAX_RECORD_LEN};
pub(crate) use frames::{ChainCursor, Frames};
pub(crate) use pin::{fence, read_pin, Pin, Segment};
#[cfg(any(test, feature = "testing"))]
pub use reader::probe;
pub(crate) use reader::{verify_segment, ScrubChunk, ScrubPos};

use pin::{gc_unreferenced_logs, load_pin, PIN_CTR, PIN_FILE};
use reader::replay_segment;
use writer::{Poison, WalInner};

pub(crate) fn log_path(dir: &Path, snap: u64) -> PathBuf {
    dir.join(format!("wal-{snap}.log"))
}

/// The generation whose log `path` is — the inverse of [`log_path`] —
/// or `None` for any other file.
fn log_generation(path: &Path) -> Option<u64> {
    path.file_name()?.to_str()?.strip_prefix("wal-")?.strip_suffix(".log")?.parse().ok()
}

/// One logical operation in a WAL record. Only idempotent forms exist:
/// read-modify-write store operations are logged as the value they
/// produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Bind `key` to `value` in `tenant`'s namespace.
    Set {
        /// Owning tenant.
        tenant: u32,
        /// Plaintext key.
        key: Vec<u8>,
        /// Plaintext value.
        value: Vec<u8>,
        /// Absolute expiry deadline in ns (0 = no TTL). Logged so
        /// recovery reconstructs deadlines exactly — absolute time needs
        /// no rebasing across a restart.
        expires_at: u64,
    },
    /// Remove `key` from `tenant`'s namespace (replayed as a no-op if
    /// the key is absent). Sweep reaps are logged with this op too.
    Delete {
        /// Owning tenant.
        tenant: u32,
        /// Plaintext key.
        key: Vec<u8>,
    },
}

/// The sealed write-ahead log. One per store; all methods are
/// internally locked. See the module docs for the format and the
/// freshness argument.
pub struct Wal {
    inner: Mutex<WalInner>,
}

/// What [`Wal::repl_hello_parts`] hands the subscription path: the
/// `(enc, mac)` log keys, the oldest retained generation, and the
/// durable `(generation, seq)` watermark.
pub(crate) type HelloParts = (([u8; 16], [u8; 16]), u64, (u64, u64));

impl Wal {
    /// Creates a fresh WAL in `dir` for snapshot generation `snap`,
    /// discarding any log files a previous store life left there. Fresh
    /// encryption/MAC keys are drawn from the enclave DRBG and carried in
    /// the sealed pin.
    pub(crate) fn create(
        enclave: Arc<Enclave>,
        fs: Arc<dyn StorageFs>,
        dir: &Path,
        policy: DurabilityPolicy,
        snap: u64,
    ) -> Result<Wal> {
        fs.create_dir_all(dir)?;
        gc_unreferenced_logs(fs.as_ref(), dir, &[]);
        let pin_counter = PersistentCounter::open_with(fs.clone(), dir.join(PIN_CTR))?;
        let mut enc_key = [0u8; 16];
        let mut mac_key = [0u8; 16];
        enclave.read_rand(&mut enc_key);
        enclave.read_rand(&mut mac_key);
        let last_mac = WalCodec::new(&enc_key, &mac_key).genesis(snap);
        let segments = vec![Segment { snap, last_seq: 0, last_mac }];
        let from = Pin { pin_ctr: 0, enc_key, mac_key, segments };
        let inner = WalInner::open(enclave, fs, dir, policy, pin_counter, from, OpenMode::Create)?;
        Ok(Wal { inner: Mutex::new(inner) })
    }

    /// Whether `dir` holds any WAL state — a pin file, or a pin counter
    /// that has ever moved. When it does, the sealed pin (not the
    /// snapshot's own counter) is the freshness root for recovery.
    pub(crate) fn state_exists(fs: &Arc<dyn StorageFs>, dir: &Path) -> bool {
        if fs.exists(&dir.join(PIN_FILE)) {
            return true;
        }
        match PersistentCounter::open_with(fs.clone(), dir.join(PIN_CTR)) {
            Ok(ctr) => ctr.read() > 0,
            // Unreadable counter: claim state so recovery surfaces the
            // real I/O error instead of silently starting fresh.
            Err(_) => true,
        }
    }

    /// Opens an existing WAL in `dir`, verifies the pin against the
    /// monotonic counter, locates `expected_snap` (the snapshot
    /// generation just restored) among the pinned segments, and replays
    /// that segment's log plus every later segment's through `apply`,
    /// verifying record-by-record. A torn record past a pinned sequence
    /// is truncated and replay stops cleanly; everything else fails
    /// closed. Segments older than the restored generation (their
    /// snapshot superseded them mid-rotation) are dropped and their log
    /// files garbage-collected. Returns the WAL ready for new appends.
    pub(crate) fn recover(
        enclave: Arc<Enclave>,
        fs: Arc<dyn StorageFs>,
        dir: &Path,
        policy: DurabilityPolicy,
        expected_snap: u64,
        apply: &mut dyn FnMut(WalOp) -> Result<()>,
    ) -> Result<Wal> {
        let pin_counter = PersistentCounter::open_with(fs.clone(), dir.join(PIN_CTR))?;
        let pcv = pin_counter.read();
        let Some((_, pin)) = load_pin(&enclave, fs.as_ref(), dir, Some(pcv))? else {
            if pcv == 0 {
                // Never had a WAL here: start one.
                return Self::create(enclave, fs, dir, policy, expected_snap);
            }
            // The counter moved, so a pin existed once — hiding it is a
            // rollback.
            return Err(Error::Rollback);
        };
        let mut pin = pin?;
        // The restored snapshot must be one the pin vouches for; replay
        // starts at its segment and runs through every later one, so any
        // pinned generation reconstructs the same complete state.
        let idx =
            pin.segments.iter().position(|s| s.snap == expected_snap).ok_or(Error::Rollback)?;
        let codec = WalCodec::new(&pin.enc_key, &pin.mac_key);
        let mut apply_all = |_seq: u64, ops: Vec<WalOp>| ops.into_iter().try_for_each(&mut *apply);
        let mut replayed = Vec::with_capacity(pin.segments.len() - idx);
        for seg in &pin.segments[idx..] {
            let at = replay_segment(&codec, fs.as_ref(), dir, seg, &mut apply_all)?;
            replayed.push(Segment { snap: seg.snap, last_seq: at.seq, last_mac: at.chain });
        }
        pin.segments = replayed;
        // Opening re-pins: drops superseded segments, covers records
        // replayed past a stale-but-acceptable pin, and restores the
        // `pin_ctr == counter` steady state. Only once that pin is
        // durable are the superseded generations' files deleted — pin
        // first, as in rotation, so a crash or storage fault in between
        // leaves orphan files, never a pin naming a log that is gone.
        let inner = WalInner::open(enclave, fs, dir, policy, pin_counter, pin, OpenMode::Append)?;
        gc_unreferenced_logs(inner.fs.as_ref(), dir, &inner.pinned());
        Ok(Wal { inner: Mutex::new(inner) })
    }

    /// Builds a WAL over an existing, fully verified set of segment log
    /// files in `dir` — the promotion path: a replica that has verified
    /// and copied the primary's sealed log adopts it as its own,
    /// continuing `from`'s keys and MAC chain under a pin bound to its
    /// *own* monotonic counter. The last segment becomes the appendable
    /// current generation; the first post-promotion commit chains off
    /// its final MAC, so the log stays verifiable end-to-end across the
    /// handover.
    pub(crate) fn adopt(
        enclave: Arc<Enclave>,
        fs: Arc<dyn StorageFs>,
        dir: &Path,
        policy: DurabilityPolicy,
        from: Pin,
    ) -> Result<Wal> {
        fs.create_dir_all(dir)?;
        let pin_counter = PersistentCounter::open_with(fs.clone(), dir.join(PIN_CTR))?;
        let inner = WalInner::open(enclave, fs, dir, policy, pin_counter, from, OpenMode::Append)?;
        Ok(Wal { inner: Mutex::new(inner) })
    }

    /// Buffers `ops` and commits if the policy demands it. Called with the
    /// owning shard's lock held, so log order matches apply order per key.
    pub(crate) fn log(&self, ops: impl IntoIterator<Item = WalOp>) -> Result<()> {
        let mut inner = self.inner.lock();
        // A poisoned writer can never make these ops durable;
        // buffering them would let the caller believe they were
        // logged. Refuse up front so the store degrades writes
        // while reads keep serving.
        inner.writable()?;
        inner.buffer.extend(ops);
        if inner.should_commit() {
            inner.commit()?;
        }
        Ok(())
    }

    /// Logs what `op` changed, given its `reply`: the one place a client op
    /// becomes log records. Called with the serving shard's lock held.
    /// Appends and increments log the value they produced, so replay is
    /// idempotent; reads and clean misses log nothing, and build nothing.
    pub(crate) fn log_op(&self, tenant: TenantId, op: &Op<'_>, reply: &Reply) -> Result<()> {
        let set = |key: &[u8], value: Vec<u8>, expires_at| WalOp::Set {
            tenant,
            key: key.to_vec(),
            value,
            expires_at,
        };
        match (*op, reply) {
            (Op::Set { key, value, expires_at }, _) => {
                self.log([set(key, value.to_vec(), expires_at)])
            }
            (Op::MultiSet { items, expires_at }, _) => {
                self.log(items.iter().map(|&(key, value)| set(key, value.to_vec(), expires_at)))
            }
            (Op::Append { key, .. }, Reply::Appended(value)) => {
                self.log([set(key, value.clone(), 0)])
            }
            (Op::Increment { key, .. }, Reply::Counter(next)) => {
                self.log([set(key, next.to_string().into_bytes(), 0)])
            }
            (Op::Delete(key), Reply::Deleted(true)) => {
                self.log([WalOp::Delete { tenant, key: key.to_vec() }])
            }
            _ => Ok(()),
        }
    }

    /// Fails when the log can take no more writes (poisoned or fenced):
    /// checked before a write reaches its shard, so a refused write
    /// changes nothing in memory either.
    pub(crate) fn writable(&self) -> Result<()> {
        self.inner.lock().writable()
    }

    /// Commits everything buffered, whatever the policy, and returns
    /// the durable `(generation, seq)` watermark — the commit point a
    /// client or replica can wait on.
    pub(crate) fn flush(&self) -> Result<(u64, u64)> {
        let mut inner = self.inner.lock();
        inner.commit()?;
        Ok((inner.snap, inner.seq))
    }

    /// The durable `(generation, seq)` watermark: everything at or
    /// below it is fsynced and pinned; buffered-but-uncommitted ops are
    /// *not* covered (the `EveryN`/`None` window).
    pub(crate) fn durable_watermark(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.snap, inner.seq)
    }

    /// The log keys, the oldest retained generation (where a new
    /// subscriber must start), and the durable watermark — everything a
    /// replica needs to begin verifying the stream. Keys leave the
    /// enclave only over the attested session layer.
    pub(crate) fn repl_hello_parts(&self) -> HelloParts {
        let inner = self.inner.lock();
        let oldest = inner.prev.first().map(|s| s.snap).unwrap_or(inner.snap);
        ((inner.enc_key, inner.mac_key), oldest, (inner.snap, inner.seq))
    }

    /// Sets the oldest generation replication still needs;
    /// [`Wal::rotate_commit`] will not prune at or above it. Pass
    /// `u64::MAX` when no subscribers remain.
    pub(crate) fn set_retain_floor(&self, gen: u64) {
        self.inner.lock().retain_floor = gen;
    }

    /// Phase one of rotation: commits the buffer and starts a fresh log
    /// for the upcoming snapshot generation `snap`, retaining the old
    /// generation until [`Wal::rotate_commit`] confirms the snapshot is
    /// durable.
    pub(crate) fn rotate_begin(&self, snap: u64) -> Result<()> {
        self.inner.lock().rotate_begin(snap)
    }

    /// Phase two of rotation: the snapshot of generation `snap` is
    /// durably on disk, so generations older than it are pruned from the
    /// pin and their log files deleted. Idempotent.
    pub(crate) fn rotate_commit(&self, snap: u64) -> Result<()> {
        self.inner.lock().rotate_commit(snap)
    }

    /// Returns `(bytes, records, fsyncs, group-size histogram)` from one
    /// lock acquisition, so `group_hist.count() == records` holds
    /// atomically for [`crate::StatsSnapshot::check_consistent`].
    pub(crate) fn gauges(&self) -> (u64, u64, u64, LatencyHist) {
        let inner = self.inner.lock();
        (inner.bytes, inner.records, inner.fsyncs, inner.group_hist)
    }

    /// True once the writer is poisoned — a storage fault or
    /// scrub-detected corruption froze the durable watermark. Reads and
    /// replication keep serving the verified durable prefix.
    pub(crate) fn storage_failed(&self) -> bool {
        self.inner.lock().poison != Poison::None
    }

    /// Corrupt-poisons the writer after a scrub pass found a pinned
    /// segment damaged on disk: commits fail closed until a verified
    /// repair swaps the segment back in. Storage poisoning (permanent)
    /// is never downgraded.
    pub(crate) fn quarantine_corrupt(&self) {
        let mut inner = self.inner.lock();
        if inner.poison == Poison::None {
            inner.poison = Poison::Corrupt;
        }
    }

    /// Re-reads, unseals, and freshness-checks the sealed pin from disk
    /// — the scrubber's check that the freshness root itself has not
    /// rotted. Returns `(ok, bytes_read)`; never mutates anything.
    pub(crate) fn scrub_pin(&self) -> (bool, u64) {
        let inner = self.inner.lock();
        let pcv = inner.pin_counter.read();
        match load_pin(&inner.enclave, inner.fs.as_ref(), &inner.dir, Some(pcv)) {
            Ok(Some((bytes, pin))) => (pin.is_ok(), bytes as u64),
            _ => (false, 0),
        }
    }

    /// Rewrites the sealed pin from in-enclave state — the scrubber's
    /// self-repair for a rotted pin file. No peer is needed: unlike log
    /// frames, the pin's full content lives in enclave memory, so a
    /// fresh seal + atomic replace restores it (and advances the
    /// counter by the normal commit protocol).
    pub(crate) fn rewrite_pin(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.alive()?;
        if inner.poison == Poison::Storage {
            return Err(Error::StorageFailed);
        }
        inner.write_pin()
    }

    /// The pinned segment list, oldest first, the appendable current
    /// generation last — the scrubber's work list.
    pub(crate) fn segments(&self) -> Vec<Segment> {
        self.inner.lock().pinned()
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        let inner = self.inner.get_mut();
        if inner.writable().is_ok() {
            let _ = inner.commit(); // best-effort durability on clean exit
        }
    }
}

/// What the unit tests of every file in this module share.
#[cfg(test)]
mod testutil {
    pub(super) use super::*;
    pub(super) use sgx_sim::enclave::EnclaveBuilder;
    pub(super) use sgx_sim::storage::{FaultFs, FaultKind, FaultOp, FaultSpec, RealFs};
    pub(super) use std::fs;

    pub(super) fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ss-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    pub(super) fn enclave(seed: u64) -> Arc<Enclave> {
        EnclaveBuilder::new("wal-test").seed(seed).epc_bytes(8 << 20).build()
    }

    pub(super) fn set(k: &str, v: &str) -> WalOp {
        WalOp::Set {
            tenant: 0,
            key: k.as_bytes().to_vec(),
            value: v.as_bytes().to_vec(),
            expires_at: 0,
        }
    }

    /// A fresh WAL in `dir` on a [`FaultFs`], and that filesystem, to
    /// fault or crash it with.
    pub(super) fn faulty_wal(
        enclave: &Arc<Enclave>,
        dir: &Path,
        policy: DurabilityPolicy,
    ) -> (Wal, Arc<FaultFs>) {
        let ffs = Arc::new(FaultFs::new());
        (Wal::create(enclave.clone(), ffs.clone(), dir, policy, 0).unwrap(), ffs)
    }

    pub(super) fn replay_all(enclave: &Arc<Enclave>, dir: &Path, snap: u64) -> Result<Vec<WalOp>> {
        let mut ops = Vec::new();
        let wal = Wal::recover(
            enclave.clone(),
            RealFs::shared(),
            dir,
            DurabilityPolicy::None,
            snap,
            &mut |op| {
                ops.push(op);
                Ok(())
            },
        )?;
        drop(wal);
        Ok(ops)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;

    #[test]
    fn log_flush_recover_roundtrip() {
        let dir = tmpdir("roundtrip");
        let enc = enclave(7);
        let wal =
            Wal::create(enc.clone(), RealFs::shared(), &dir, DurabilityPolicy::None, 0).unwrap();
        wal.log([set("k1", "v1"), set("k2", "v2")]).unwrap();
        wal.flush().unwrap();
        wal.log([WalOp::Delete { tenant: 0, key: b"k1".to_vec() }]).unwrap();
        drop(wal); // Drop commits the tail

        let ops = replay_all(&enc, &dir, 0).unwrap();
        assert_eq!(
            ops,
            vec![
                set("k1", "v1"),
                set("k2", "v2"),
                WalOp::Delete { tenant: 0, key: b"k1".to_vec() }
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
