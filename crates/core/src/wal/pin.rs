//! The freshness pin: the sealed file that names the live log
//! generations and binds them to a monotonic counter (see the
//! [module docs](super) for the argument). This file owns the pin's
//! layout, the one function that loads a pin from disk, the counter
//! fence a promoting replica raises, and the one function that replaces
//! a file durably — the pin on every commit, a log segment on repair.

use std::io::{ErrorKind, Write as _};
use std::path::Path;
use std::sync::Arc;

use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::Enclave;
use sgx_sim::seal;
use sgx_sim::storage::{OpenMode, StorageFs};

use super::log_generation;
use super::writer::{fail_closed, Poison};
use crate::error::{Error, Result};

pub(super) const PIN_FILE: &str = "wal.pin";
pub(super) const PIN_TMP: &str = "wal.pin.tmp";
pub(super) const PIN_CTR: &str = "wal.pin.ctr";

/// Sealed pin plaintext header: pin_ctr (u64), enc_key + mac_key
/// (16 bytes each), segment count (u32).
const PIN_HEADER_LEN: usize = 8 + 16 * 2 + 4;
/// One pinned segment: snap + last_seq (u64 each) + last_mac (16 bytes).
const PIN_SEG_LEN: usize = 8 * 2 + 16;
/// Most log generations a pin may reference at once. Reached only after
/// this many *consecutive failed snapshots*; further rotations fail
/// rather than dropping a segment that still holds the only durable copy
/// of acknowledged writes.
pub(super) const MAX_SEGMENTS: usize = 32;

/// One live log generation as recorded in the pin: the snapshot
/// generation it extends, the last committed sequence number, and the
/// MAC the chain ends on. Crate-visible so [`crate::repl`] can read a
/// primary's pin during promotion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    pub(crate) snap: u64,
    pub(crate) last_seq: u64,
    pub(crate) last_mac: [u8; 16],
}

pub(crate) struct Pin {
    pub(crate) pin_ctr: u64,
    pub(crate) enc_key: [u8; 16],
    pub(crate) mac_key: [u8; 16],
    /// Live generations, oldest first; the last one is being appended to.
    pub(crate) segments: Vec<Segment>,
}

impl Pin {
    pub(super) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(PIN_HEADER_LEN + self.segments.len() * PIN_SEG_LEN);
        out.extend_from_slice(&self.pin_ctr.to_le_bytes());
        out.extend_from_slice(&self.enc_key);
        out.extend_from_slice(&self.mac_key);
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for seg in &self.segments {
            out.extend_from_slice(&seg.snap.to_le_bytes());
            out.extend_from_slice(&seg.last_seq.to_le_bytes());
            out.extend_from_slice(&seg.last_mac);
        }
        out
    }

    fn decode(bytes: &[u8]) -> Option<Pin> {
        if bytes.len() < PIN_HEADER_LEN {
            return None;
        }
        let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let arr_at = |i: usize| -> [u8; 16] { bytes[i..i + 16].try_into().unwrap() };
        let nseg = u32::from_le_bytes(bytes[40..44].try_into().unwrap()) as usize;
        if !(1..=MAX_SEGMENTS).contains(&nseg) || bytes.len() != PIN_HEADER_LEN + nseg * PIN_SEG_LEN
        {
            return None;
        }
        let mut segments = Vec::with_capacity(nseg);
        for i in 0..nseg {
            let off = PIN_HEADER_LEN + i * PIN_SEG_LEN;
            segments.push(Segment {
                snap: u64_at(off),
                last_seq: u64_at(off + 8),
                last_mac: arr_at(off + 16),
            });
        }
        Some(Pin { pin_ctr: u64_at(0), enc_key: arr_at(8), mac_key: arr_at(24), segments })
    }
}

/// Loads the pin in `dir`: read, unseal, decode and — when `counter` is
/// the monotonic counter's value — the freshness window. A pin claiming
/// anything other than `c` or `c + 1` (the legitimate crash window
/// between pin write and counter bump) is stale: the directory was
/// rolled back, or a promotion already fenced it. `Ok(None)` when there
/// is no pin file; otherwise the sealed size travels with the verdict,
/// so the scrubber can count what it read either way.
pub(super) fn load_pin(
    enclave: &Enclave,
    fs: &dyn StorageFs,
    dir: &Path,
    counter: Option<u64>,
) -> Result<Option<(usize, Result<Pin>)>> {
    let sealed = match fs.read(&dir.join(PIN_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let pin = seal::unseal(enclave, &sealed).map_err(Error::from).and_then(|plain| {
        let pin = Pin::decode(&plain)
            .ok_or_else(|| Error::Persistence("write-ahead log pin malformed".into()))?;
        match counter {
            Some(c) if pin.pin_ctr != c && pin.pin_ctr != c + 1 => Err(Error::Rollback),
            _ => Ok(pin),
        }
    });
    Ok(Some((sealed.len(), pin)))
}

/// Loads the pin in `dir` alongside a *fresh* view of its monotonic
/// counter, returning the decoded pin and the counter value observed.
/// `fresh` applies the normal `c`/`c + 1` window; without it callers
/// apply their own (a promoting replica reads once before fencing with
/// the normal window, and once after, when the counter has deliberately
/// moved two past the pin's claim). A hidden pin is a rollback.
pub(crate) fn read_pin(
    enclave: &Arc<Enclave>,
    fs: &Arc<dyn StorageFs>,
    dir: &Path,
    fresh: bool,
) -> Result<(Pin, u64)> {
    let pcv = PersistentCounter::open_with(fs.clone(), dir.join(PIN_CTR))?.read();
    let (_, pin) =
        load_pin(enclave, fs.as_ref(), dir, fresh.then_some(pcv))?.ok_or(Error::Rollback)?;
    Ok((pin?, pcv))
}

/// Bumps the monotonic counter in `dir` past any value the pin there
/// can legitimately claim, fencing whatever instance currently owns
/// the directory: its next pin write (hence its next commit) fails
/// closed, and recovery from the directory reports a rollback. Two
/// bumps cover the `c + 1` crash window a live pin may already claim.
pub(crate) fn fence(fs: &Arc<dyn StorageFs>, dir: &Path) -> Result<()> {
    let counter = PersistentCounter::open_with(fs.clone(), dir.join(PIN_CTR))?;
    counter.increment().map_err(|e| Error::Persistence(format!("fencing counter bump: {e}")))?;
    counter.increment().map_err(|e| Error::Persistence(format!("fencing counter bump: {e}")))?;
    Ok(())
}

/// Replaces `path` with `bytes` so that a crash at any point leaves the
/// old file or the new one, never a mixture: write `tmp`, `sync_all`,
/// rename over `path`, `sync_dir`. Every step goes through
/// [`fail_closed`] — the first failure storage-poisons the writer.
pub(super) fn replace_durably(
    fs: &dyn StorageFs,
    poison: &mut Poison,
    dir: &Path,
    tmp: &Path,
    path: &Path,
    bytes: &[u8],
) -> Result<()> {
    {
        let mut f = fail_closed(poison, fs.open(tmp, OpenMode::Create))?;
        fail_closed(poison, f.write_all(bytes))?;
        fail_closed(poison, f.sync_all())?;
    }
    fail_closed(poison, fs.rename(tmp, path))?;
    fail_closed(poison, fs.sync_dir(dir))
}

/// Deletes `wal-*.log` files in `dir` that belong to no segment of
/// `live` — leftovers from segments superseded by the restored
/// snapshot, from a previous store life, or from a crash between a pin
/// prune and its file deletions. Best-effort.
pub(super) fn gc_unreferenced_logs(fs: &dyn StorageFs, dir: &Path, live: &[Segment]) {
    for path in fs.list_dir(dir).unwrap_or_default() {
        if log_generation(&path).is_some_and(|gen| !live.iter().any(|s| s.snap == gen)) {
            let _ = fs.remove_file(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::*;

    #[test]
    fn stale_log_and_pin_rejected() {
        let dir = tmpdir("stale");
        let enc = enclave(12);
        let wal =
            Wal::create(enc.clone(), RealFs::shared(), &dir, DurabilityPolicy::Strict, 0).unwrap();
        wal.log([set("a", "1")]).unwrap();
        // Capture a stale pin+log pair...
        let old_pin = fs::read(dir.join(PIN_FILE)).unwrap();
        let old_log = fs::read(log_path(&dir, 0)).unwrap();
        wal.log([set("b", "2")]).unwrap();
        wal.simulate_crash();
        drop(wal);
        // ...and replay them after the counter moved on.
        fs::write(dir.join(PIN_FILE), &old_pin).unwrap();
        fs::write(log_path(&dir, 0), &old_log).unwrap();
        assert_eq!(replay_all(&enc, &dir, 0), Err(Error::Rollback));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hidden_pin_rejected_once_counter_moved() {
        let dir = tmpdir("hidden");
        let enc = enclave(14);
        let wal =
            Wal::create(enc.clone(), RealFs::shared(), &dir, DurabilityPolicy::Strict, 0).unwrap();
        wal.log([set("a", "1")]).unwrap();
        wal.simulate_crash();
        drop(wal);
        fs::remove_file(dir.join(PIN_FILE)).unwrap();
        fs::remove_file(log_path(&dir, 0)).unwrap();
        assert_eq!(replay_all(&enc, &dir, 0), Err(Error::Rollback));
        fs::remove_dir_all(&dir).unwrap();
    }
}
