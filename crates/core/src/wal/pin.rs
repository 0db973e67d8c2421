//! The freshness pin: the sealed file that names the live log
//! generations and binds them to a monotonic counter (see the
//! [module docs](super) for the argument). This file owns the pin's
//! layout, the one function that loads a pin from disk, and the counter
//! fence a promoting replica raises. The pin on every commit and a log
//! segment on repair are replaced through
//! [`sgx_sim::storage::replace_durably`].

use std::io::ErrorKind;
use std::path::Path;
use std::sync::Arc;

use sgx_sim::bytes::{Parsed, Reader, Writer};
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::Enclave;
use sgx_sim::seal;
use sgx_sim::storage::StorageFs;

use super::log_generation;
use crate::error::{Error, Result};

pub(super) const PIN_FILE: &str = "wal.pin";
pub(super) const PIN_CTR: &str = "wal.pin.ctr";

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

/// Sealed pin plaintext: `[pin_ctr u64 | enc_key (16) | mac_key (16) |
/// count u32]`, then per segment `[snap u64 | last_seq u64 | last_mac (16)]`.
impl Pin {
    pub(super) fn encode(&self) -> Vec<u8> {
        let w = &mut Writer::with_capacity(44 + self.segments.len() * 32);
        w.u64(self.pin_ctr).bytes(&self.enc_key).bytes(&self.mac_key).length(self.segments.len());
        self.segments.iter().fold(w, |w, s| w.u64(s.snap).u64(s.last_seq).bytes(&s.last_mac)).done()
    }

    fn decode(bytes: &[u8]) -> Option<Pin> {
        let pin = Reader::whole(bytes, "log pin", |r| -> Parsed<_> {
            let (pin_ctr, enc_key, mac_key) = (r.u64()?, r.array()?, r.array()?);
            let segments = r.batch(32, |r| {
                Parsed::Ok(Segment { snap: r.u64()?, last_seq: r.u64()?, last_mac: r.array()? })
            })?;
            Ok(Pin { pin_ctr, enc_key, mac_key, segments })
        });
        pin.ok().filter(|pin| (1..=MAX_SEGMENTS).contains(&pin.segments.len()))
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
    use super::{Pin, Writer};
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

    /// Pin plaintexts as `Pin::encode` lays them out, except that the
    /// count may be one too many or a byte left over; up to 34 segments,
    /// past the most a pin may hold.
    fn pin_bytes() -> impl Strategy<Value = Vec<u8>> {
        let segment = (any::<u64>(), any::<u64>(), any::<[u8; 16]>());
        let head = (any::<u64>(), any::<[u8; 16]>(), any::<[u8; 16]>());
        (head, pvec(segment, 0..35), 0u8..3).prop_map(|((ctr, enc, mac), segments, skew)| {
            let w = &mut Writer::default();
            w.u64(ctr).bytes(&enc).bytes(&mac).length(segments.len() + (skew == 1) as usize);
            for (snap, last_seq, last_mac) in &segments {
                w.u64(*snap).u64(*last_seq).bytes(last_mac);
            }
            if skew == 2 {
                w.u8(0);
            }
            w.done()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        /// Whatever `Pin::decode` accepts, `Pin::encode` rebuilds byte for
        /// byte.
        #[test]
        fn accepted_pins_reencode_exactly(bytes in pin_bytes()) {
            if let Some(pin) = Pin::decode(&bytes) {
                prop_assert_eq!(pin.encode(), bytes);
            }
        }
    }

    #[test]
    fn stale_log_and_pin_rejected() {
        let dir = tmpdir("stale");
        let enc = enclave(12);
        let (wal, ffs) = faulty_wal(&enc, &dir, DurabilityPolicy::Strict);
        wal.log([set("a", "1")]).unwrap();
        // Capture a stale pin+log pair...
        let old_pin = fs::read(dir.join(PIN_FILE)).unwrap();
        let old_log = fs::read(log_path(&dir, 0)).unwrap();
        wal.log([set("b", "2")]).unwrap();
        ffs.crash();
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
        let (wal, ffs) = faulty_wal(&enc, &dir, DurabilityPolicy::Strict);
        wal.log([set("a", "1")]).unwrap();
        ffs.crash();
        drop(wal);
        fs::remove_file(dir.join(PIN_FILE)).unwrap();
        fs::remove_file(log_path(&dir, 0)).unwrap();
        assert_eq!(replay_all(&enc, &dir, 0), Err(Error::Rollback));
        fs::remove_dir_all(&dir).unwrap();
    }
}
