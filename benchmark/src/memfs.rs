//! A file system in memory, for the durable workload's log.

use sgx_sim::storage::{OpenMode, StorageFile, StorageFs};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A file system in memory behind the store's storage seam.
///
/// The gated durable workload logs into this, not onto the sandbox's
/// disk, because the disk is the noisiest thing here. A commit is one
/// append, two file creations, two renames and five syncs; on the real
/// file system the syncs wait 1 to 4 ms by the hour (55 to 179 kop/s
/// over ten runs of one commit), and with the syncs elided the creations
/// and renames still stall on the ext4 journal and on the discards of
/// earlier runs' logs (172 to 224 kop/s over six runs, drifting down).
/// In memory the workload measures what a code change can move — seal,
/// encode, chain MAC, pin and counter upkeep — and recovery still has
/// to read every byte back. What the real disk adds is
/// `wal.commit_p50_us` / `wal.commit_share`, taken on the real file
/// system and not gated.
#[derive(Debug, Default)]
pub struct MemFs {
    files: Mutex<HashMap<PathBuf, Arc<Mutex<Vec<u8>>>>>,
}

struct MemFile(Arc<Mutex<Vec<u8>>>);

fn not_found(path: &Path) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::NotFound, format!("{} not in MemFs", path.display()))
}

/// No code panics while holding a `MemFs` lock, so none is poisoned.
fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("MemFs lock poisoned")
}

impl MemFs {
    /// Bytes held by all files.
    pub fn bytes(&self) -> u64 {
        locked(&self.files).values().map(|f| locked(f).len() as u64).sum()
    }
}

impl std::io::Write for MemFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        locked(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl StorageFile for MemFile {
    fn sync_data(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn sync_all(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn set_len(&mut self, len: u64) -> std::io::Result<()> {
        locked(&self.0).resize(len as usize, 0);
        Ok(())
    }
}

impl StorageFs for MemFs {
    fn open(&self, path: &Path, mode: OpenMode) -> std::io::Result<Box<dyn StorageFile>> {
        let mut files = locked(&self.files);
        let file = match mode {
            OpenMode::Create => {
                let fresh = Arc::new(Mutex::new(Vec::new()));
                files.insert(path.to_path_buf(), Arc::clone(&fresh));
                fresh
            }
            OpenMode::Append => Arc::clone(files.entry(path.to_path_buf()).or_default()),
            OpenMode::ReadWrite => Arc::clone(files.get(path).ok_or_else(|| not_found(path))?),
        };
        Ok(Box::new(MemFile(file)))
    }
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let file = Arc::clone(locked(&self.files).get(path).ok_or_else(|| not_found(path))?);
        let bytes = locked(&file).clone();
        Ok(bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let mut files = locked(&self.files);
        let file = files.remove(from).ok_or_else(|| not_found(from))?;
        files.insert(to.to_path_buf(), file);
        Ok(())
    }
    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        locked(&self.files).remove(path).map(drop).ok_or_else(|| not_found(path))
    }
    fn sync_dir(&self, _dir: &Path) -> std::io::Result<()> {
        Ok(())
    }
    fn create_dir_all(&self, _dir: &Path) -> std::io::Result<()> {
        Ok(())
    }
    fn exists(&self, path: &Path) -> bool {
        locked(&self.files).contains_key(path)
    }
    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        Ok(locked(&self.files).keys().filter(|p| p.parent() == Some(dir)).cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn behaves_like_the_file_operations_the_log_uses() {
        let fs = MemFs::default();
        let (log, tmp, pin) =
            (Path::new("/wal/log"), Path::new("/wal/pin.tmp"), Path::new("/wal/pin"));
        assert!(fs.read(log).is_err() && !fs.exists(log));
        assert!(fs.open(log, OpenMode::ReadWrite).is_err());

        fs.open(log, OpenMode::Append).unwrap().write_all(b"abc").unwrap();
        fs.open(log, OpenMode::Append).unwrap().write_all(b"def").unwrap();
        assert_eq!(fs.read(log).unwrap(), b"abcdef");
        fs.open(log, OpenMode::ReadWrite).unwrap().set_len(4).unwrap();
        assert_eq!(fs.read(log).unwrap(), b"abcd");

        fs.open(tmp, OpenMode::Create).unwrap().write_all(b"v1").unwrap();
        fs.rename(tmp, pin).unwrap();
        fs.open(tmp, OpenMode::Create).unwrap().write_all(b"v2").unwrap();
        fs.rename(tmp, pin).unwrap();
        assert_eq!(fs.read(pin).unwrap(), b"v2");
        assert!(!fs.exists(tmp) && fs.rename(tmp, pin).is_err());

        let mut listed = fs.list_dir(Path::new("/wal")).unwrap();
        listed.sort();
        assert_eq!(listed, [log.to_path_buf(), pin.to_path_buf()]);
        assert_eq!(fs.bytes(), 6);
        fs.remove_file(log).unwrap();
        assert!(fs.remove_file(log).is_err());
        assert_eq!(fs.bytes(), 2);
    }
}
