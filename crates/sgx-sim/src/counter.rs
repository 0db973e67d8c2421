//! Monotonic counters.
//!
//! ShieldStore tags each snapshot with a hardware monotonic counter so that
//! a malicious host cannot roll the store back to an older snapshot (paper
//! §4.4). Real SGX exposes these through the Platform Services Enclave and
//! they are slow (which is why the paper snapshots coarsely instead of
//! logging per operation). This model is a file-backed counter whose
//! persistence survives process restarts.

use crate::storage::{replace_durably, RealFs, StorageFs};
use crate::SimError;
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::Arc;

/// A file-backed monotonic counter surviving process restarts.
///
/// The value is stored as decimal text and replaced through
/// [`replace_durably`], so a crash cannot leave a torn value.
#[derive(Debug)]
pub struct PersistentCounter {
    fs: Arc<dyn StorageFs>,
    path: PathBuf,
    cached: Mutex<u64>,
}

impl PersistentCounter {
    /// Opens (or creates) the counter at `path` on the real filesystem.
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::open_with(Arc::new(RealFs), path)
    }

    /// Opens (or creates) the counter at `path`, routing all I/O
    /// through `fs` — the storage seam fault-injection tests use.
    pub fn open_with(fs: Arc<dyn StorageFs>, path: impl Into<PathBuf>) -> std::io::Result<Self> {
        let path = path.into();
        let value = Self::persisted(fs.as_ref(), &path)?;
        Ok(Self { fs, path, cached: Mutex::new(value) })
    }

    /// Reads the value currently persisted on disk, bypassing the cache.
    /// A missing file is a counter never bumped, 0. A file that does not
    /// parse is `InvalidData`: read as 0 it would pass every stale
    /// snapshot's freshness check and let the next increment rewind the
    /// counter.
    fn persisted(fs: &dyn StorageFs, path: &std::path::Path) -> std::io::Result<u64> {
        match fs.read(path) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).trim().parse::<u64>().map_err(|e| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, format!("counter file: {e}"))
            }),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Atomically increments, persists, and returns the new value.
    ///
    /// The value file and its directory are fsynced: a hardware counter
    /// never forgets an increment, so the file model must not let a
    /// power cut roll the persisted value back behind what callers
    /// observed (sealed state is validated against the *returned*
    /// value).
    ///
    /// A hardware monotonic counter is a shared platform service: two
    /// enclave instances bound to the same counter observe each other's
    /// bumps atomically. The file model approximates that by refusing to
    /// increment when the persisted value no longer matches this
    /// instance's view — another instance moved the counter (or the host
    /// tampered with it), and blindly writing `cached + 1` would roll it
    /// back.
    pub fn increment(&self) -> std::io::Result<u64> {
        let mut guard = self.cached.lock();
        if Self::persisted(self.fs.as_ref(), &self.path)? != *guard {
            return Err(std::io::Error::other(
                "monotonic counter moved behind this instance's back",
            ));
        }
        let next = *guard + 1;
        replace_durably(self.fs.as_ref(), &self.path, |f| {
            f.write_all(next.to_string().as_bytes())
        })?;
        *guard = next;
        Ok(next)
    }

    /// Reads the current value.
    pub fn read(&self) -> u64 {
        *self.cached.lock()
    }

    /// Validates that `observed` matches the current persisted value.
    pub fn check_fresh(&self, observed: u64) -> Result<(), SimError> {
        if observed < self.read() {
            Err(SimError::CounterRollback)
        } else {
            Ok(())
        }
    }

    /// Re-reads the persisted value and verifies it still matches this
    /// instance's cached view. A mismatch in either direction fails
    /// closed: a lower value is a host rollback of the counter file, a
    /// higher one means another instance bound to the same counter
    /// moved it (the fencing signal replication promotion relies on).
    pub fn verify_persisted(&self) -> Result<(), SimError> {
        let guard = self.cached.lock();
        match Self::persisted(self.fs.as_ref(), &self.path) {
            Ok(disk) if disk == *guard => Ok(()),
            _ => Err(SimError::CounterRollback),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistent_counter_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("sgx-sim-ctr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ctr");
        let _ = std::fs::remove_file(&path);

        let c = PersistentCounter::open(&path).unwrap();
        assert_eq!(c.read(), 0);
        assert_eq!(c.increment().unwrap(), 1);
        assert_eq!(c.increment().unwrap(), 2);
        drop(c);

        let c2 = PersistentCounter::open(&path).unwrap();
        assert_eq!(c2.read(), 2);
        assert_eq!(c2.check_fresh(1), Err(SimError::CounterRollback));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn external_bump_fences_the_stale_instance() {
        let dir = std::env::temp_dir().join(format!("sgx-sim-fence-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ctr");
        let _ = std::fs::remove_file(&path);

        let a = PersistentCounter::open(&path).unwrap();
        a.increment().unwrap();
        assert!(a.verify_persisted().is_ok());

        // A second instance (a promoting replica) bumps the shared
        // counter; the first instance is now fenced.
        let b = PersistentCounter::open(&path).unwrap();
        b.increment().unwrap();
        assert_eq!(a.verify_persisted(), Err(SimError::CounterRollback));
        assert!(a.increment().is_err(), "a fenced instance must not clobber the counter");
        assert_eq!(PersistentCounter::open(&path).unwrap().read(), 2);
        std::fs::remove_file(&path).ok();
    }
}
