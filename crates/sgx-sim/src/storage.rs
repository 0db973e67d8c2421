//! The untrusted storage seam and its deterministic fault injector.
//!
//! The paper's threat model (§3) hands *all* persistent storage to the
//! untrusted host. Byte-level tampering is already covered by sealing
//! and MAC chains; this module models the other half of that threat:
//! the host's I/O *failing* — EIO, ENOSPC, short writes, fsyncs that
//! lie, renames that never reach the journal, and power cuts that drop
//! every unsynced page.
//!
//! [`StorageFs`] is the seam every durability-critical byte crosses
//! (the WAL, snapshot persistence, and the monotonic counter files all
//! route through it), and [`replace_durably`] the one way a file on it
//! is replaced. [`RealFs`] is the production passthrough to
//! `std::fs`. [`FaultFs`] is a deterministic, seed-free fault
//! injector: callers arm explicit per-call-site failpoints
//! ([`FaultSpec`]) and the injector fires them on the exact matching
//! operation, while independently tracking which bytes a real disk
//! would have retained across a power cut ([`FaultFs::power_cut`]).
//!
//! A crash is a `FaultFs` event too, and nothing else in the tree
//! crashes anything: the process dies at a chosen mutating call
//! ([`FaultFs::crash_at`]) or right now ([`FaultFs::crash`]), and
//! nothing after that call reaches the disk.
//!
//! Determinism: `FaultFs` draws no randomness and keeps no clocks —
//! the same operation sequence with the same armed specs produces the
//! same faults, so property tests and the adversary harness replay
//! byte-identically from a seed.

use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How a [`StorageFs::open`] call intends to use the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Create (or truncate) for writing — `File::create` semantics.
    Create,
    /// Create if absent, append to the end.
    Append,
    /// Open an existing file for in-place writes (`set_len` + sync).
    ReadWrite,
}

/// A writable handle obtained from [`StorageFs::open`]. Reads go
/// through [`StorageFs::read`] instead — the durability-critical call
/// sites never interleave reads and writes on one descriptor.
pub trait StorageFile: Write + Send {
    /// Flushes file *data* to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flushes data and metadata to stable storage (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
}

/// The untrusted storage interface. Every durable byte the enclave
/// writes — WAL frames, freshness pins, monotonic counter files,
/// snapshots — crosses this seam, so a single injected implementation
/// can fault any call site deterministically.
pub trait StorageFs: Send + Sync + std::fmt::Debug {
    /// Opens `path` for writing in the given mode.
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn StorageFile>>;
    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically renames `from` to `to` (same directory at all call
    /// sites; durable only after [`StorageFs::sync_dir`] on the parent).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Unlinks `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// fsyncs the directory itself so renames/creates inside it
    /// survive power loss.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Creates `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
    /// Lists the entries directly inside `dir`.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
}

/// Replaces `path` so that a crash at any point leaves the old file or
/// the new one, never a mixture: `write` fills `<file name>.tmp` beside
/// `path`, which is then synced, renamed over `path`, and made durable
/// by a sync of the parent directory (`.` for a bare name). Every
/// failure is returned; only an `Ok` means the new content is on disk.
/// This is the one place that renames or syncs a directory, so every
/// sealed or counted artefact is replaced the same way.
pub fn replace_durably(
    fs: &dyn StorageFs,
    path: &Path,
    write: impl FnOnce(&mut dyn StorageFile) -> io::Result<()>,
) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = fs.open(&tmp, OpenMode::Create)?;
        write(file.as_mut())?;
        file.sync_all()?;
    }
    fs.rename(&tmp, path)?;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    fs.sync_dir(dir)
}

// ---------------------------------------------------------------------------
// RealFs: the production passthrough
// ---------------------------------------------------------------------------

/// The production [`StorageFs`]: a direct passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl RealFs {
    /// A shared handle, for call sites that take `Arc<dyn StorageFs>`.
    pub fn shared() -> Arc<dyn StorageFs> {
        Arc::new(RealFs)
    }
}

struct RealFile(std::fs::File);

impl Write for RealFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl StorageFile for RealFile {
    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
}

fn std_open(path: &Path, mode: OpenMode) -> io::Result<std::fs::File> {
    use std::fs::OpenOptions;
    match mode {
        OpenMode::Create => OpenOptions::new().create(true).write(true).truncate(true).open(path),
        OpenMode::Append => OpenOptions::new().create(true).append(true).open(path),
        OpenMode::ReadWrite => OpenOptions::new().write(true).open(path),
    }
}

impl StorageFs for RealFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn StorageFile>> {
        Ok(Box::new(RealFile(std_open(path, mode)?)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::File::open(dir)?.sync_all()
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// FaultFs: deterministic failpoints + power-loss model
// ---------------------------------------------------------------------------

/// The storage operation a [`FaultSpec`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// [`StorageFs::open`].
    Open,
    /// [`StorageFs::read`].
    Read,
    /// [`StorageFile`] writes (via `write`/`write_all`).
    Write,
    /// [`StorageFile::sync_data`].
    SyncData,
    /// [`StorageFile::sync_all`].
    SyncAll,
    /// [`StorageFile::set_len`].
    SetLen,
    /// [`StorageFs::rename`].
    Rename,
    /// [`StorageFs::remove_file`].
    RemoveFile,
    /// [`StorageFs::sync_dir`].
    SyncDir,
    /// [`StorageFs::create_dir_all`].
    CreateDir,
}

/// How the targeted operation fails. Kinds are interpreted per
/// operation: `Enospc`/`ShortWrite` only differ from `Eio` on
/// [`FaultOp::Write`] (half the buffer lands before the error), and
/// `TornRename` only differs on [`FaultOp::Rename`] (the rename
/// appears to succeed but is never made durable, so a later
/// [`FaultFs::power_cut`] undoes it). Everywhere else a fired spec is
/// a hard EIO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Hard I/O error; no bytes transferred.
    Eio,
    /// Disk full mid-write: half the buffer lands, then ENOSPC.
    Enospc,
    /// Short write: half the buffer lands, then the write errors.
    ShortWrite,
    /// The sync call fails; nothing written since the last successful
    /// sync is considered durable.
    SyncFail,
    /// The rename appears to succeed but never becomes durable.
    TornRename,
}

/// One armed failpoint: fires on the `nth` (1-based) call of `op`
/// whose path contains `path_substr`, then disarms.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Operation to intercept.
    pub op: FaultOp,
    /// Substring the operation's path must contain (empty = any path).
    pub path_substr: String,
    /// 1-based match count at which the fault fires.
    pub nth: u64,
    /// Failure behaviour.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// A spec firing on the first matching call.
    pub fn first(op: FaultOp, path_substr: impl Into<String>, kind: FaultKind) -> Self {
        FaultSpec { op, path_substr: path_substr.into(), nth: 1, kind }
    }
}

#[derive(Debug)]
struct ArmedSpec {
    spec: FaultSpec,
    hits: u64,
    fired: bool,
}

#[derive(Debug, Default)]
struct FaultState {
    specs: Vec<ArmedSpec>,
    /// Last *durable* content per touched path (`None` = durably
    /// absent). Seeded lazily with the on-disk state at first touch;
    /// advanced by successful syncs. [`FaultFs::power_cut`] resets the
    /// disk to exactly these images.
    durable: HashMap<PathBuf, Option<Vec<u8>>>,
    /// Paths whose latest rename was injected as torn: directory syncs
    /// do not advance their durable image.
    torn: HashSet<PathBuf>,
    injected: u64,
    /// Mutating calls left until the process dies; `Some(0)` once it
    /// has ([`FaultFs::crash_at`]).
    crash_in: Option<u64>,
}

impl FaultState {
    fn check(&mut self, op: FaultOp, paths: &[&Path]) -> Option<FaultKind> {
        // The dying mutating call tears like a short write (a write lands
        // half its buffer, any other call nothing); every call after it
        // fails.
        match self.crash_in.as_mut() {
            Some(0) => return Some(FaultKind::Eio),
            Some(left) if op != FaultOp::Read => {
                *left -= 1;
                if *left == 0 {
                    return Some(FaultKind::ShortWrite);
                }
            }
            _ => {}
        }
        for armed in &mut self.specs {
            if armed.fired || armed.spec.op != op {
                continue;
            }
            let matched = armed.spec.path_substr.is_empty()
                || paths.iter().any(|p| p.to_string_lossy().contains(&armed.spec.path_substr));
            if !matched {
                continue;
            }
            armed.hits += 1;
            if armed.hits == armed.spec.nth {
                armed.fired = true;
                self.injected += 1;
                return Some(armed.spec.kind);
            }
        }
        None
    }

    /// Records the current on-disk state as `path`'s durable baseline
    /// if it has never been tracked.
    fn track(&mut self, path: &Path) {
        if !self.durable.contains_key(path) {
            let image = std::fs::read(path).ok();
            self.durable.insert(path.to_path_buf(), image);
        }
    }

    /// Advances `path`'s durable image to the current on-disk state.
    fn mark_durable(&mut self, path: &Path) {
        let image = std::fs::read(path).ok();
        self.durable.insert(path.to_path_buf(), image);
    }
}

fn injected_err(kind: FaultKind) -> io::Error {
    match kind {
        FaultKind::Enospc => io::Error::other("injected fault: no space left on device"),
        FaultKind::ShortWrite => {
            io::Error::new(io::ErrorKind::WriteZero, "injected fault: short write")
        }
        _ => io::Error::other("injected fault: input/output error"),
    }
}

/// A deterministic fault-injecting [`StorageFs`] wrapping the real
/// filesystem. See the module docs for the model; the important
/// properties:
///
/// * **Explicit failpoints**: nothing fails unless a [`FaultSpec`] was
///   armed with [`FaultFs::inject`], and each spec fires exactly once.
/// * **Power-loss tracking**: independent of failpoints, every path
///   written through this handle keeps a shadow image of what a real
///   disk would have retained — content as of the last successful
///   `sync_data`/`sync_all`/`sync_dir` covering it. [`FaultFs::power_cut`]
///   resets the real filesystem to those images, so a test can kill
///   "the machine" at any point and recover against honest remains.
#[derive(Debug)]
pub struct FaultFs {
    state: Arc<Mutex<FaultState>>,
}

impl Default for FaultFs {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultFs {
    /// A fresh injector with no armed faults.
    pub fn new() -> Self {
        FaultFs { state: Arc::new(Mutex::new(FaultState::default())) }
    }

    /// Arms one failpoint. Specs are independent; each fires once.
    pub fn inject(&self, spec: FaultSpec) {
        self.state.lock().specs.push(ArmedSpec { spec, hits: 0, fired: false });
    }

    /// How many armed faults have fired so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().injected
    }

    /// Disarms every pending failpoint (fired ones stay counted).
    pub fn clear_faults(&self) {
        self.state.lock().specs.clear();
    }

    /// Kills the process now: every later call through this handle, and
    /// through files opened from it, fails and lands nothing. That is
    /// what a killed process leaves — every byte it already wrote stays
    /// in the page cache; [`FaultFs::power_cut`] is what drops the
    /// unsynced ones.
    pub fn crash(&self) {
        self.crash_at(0);
    }

    /// The process dies at the `n`-th *mutating* call from now: `open`,
    /// `write`, `sync_data`, `sync_all`, `set_len`, `rename`,
    /// `remove_file`, `sync_dir` or `create_dir_all`. A dying write
    /// lands the first half of its buffer, any other dying call nothing,
    /// and from then on the handle behaves as after [`FaultFs::crash`]
    /// (`crash_at(0)`).
    pub fn crash_at(&self, n: u64) {
        self.state.lock().crash_in = Some(n);
    }

    fn dead(&self) -> bool {
        self.state.lock().crash_in == Some(0)
    }

    /// Simulates a power cut: every tracked path is reset to its last
    /// durable image — unsynced writes vanish, un-dir-synced renames
    /// and removals roll back, torn renames revert. Untracked paths
    /// (never written through this handle) are untouched; they were
    /// durable before the injector existed. A crash ends with it: the
    /// next life runs on what the disk kept.
    pub fn power_cut(&self) -> io::Result<()> {
        let mut state = self.state.lock();
        for (path, image) in &state.durable {
            match image {
                Some(bytes) => std::fs::write(path, bytes)?,
                None => {
                    if path.exists() {
                        std::fs::remove_file(path)?;
                    }
                }
            }
        }
        state.torn.clear();
        state.specs.clear();
        state.crash_in = None;
        Ok(())
    }
}

struct FaultFile {
    file: std::fs::File,
    path: PathBuf,
    state: Arc<Mutex<FaultState>>,
}

impl Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(kind) = self.state.lock().check(FaultOp::Write, &[&self.path]) {
            if matches!(kind, FaultKind::Enospc | FaultKind::ShortWrite) {
                // Half the buffer reaches the file before the failure —
                // the torn-frame case recovery must truncate away.
                self.file.write_all(&buf[..buf.len() / 2])?;
            }
            return Err(injected_err(kind));
        }
        self.file.write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl StorageFile for FaultFile {
    fn sync_data(&mut self) -> io::Result<()> {
        if let Some(kind) = self.state.lock().check(FaultOp::SyncData, &[&self.path]) {
            return Err(injected_err(kind));
        }
        self.file.sync_data()?;
        self.state.lock().mark_durable(&self.path);
        Ok(())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        if let Some(kind) = self.state.lock().check(FaultOp::SyncAll, &[&self.path]) {
            return Err(injected_err(kind));
        }
        self.file.sync_all()?;
        self.state.lock().mark_durable(&self.path);
        Ok(())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if let Some(kind) = self.state.lock().check(FaultOp::SetLen, &[&self.path]) {
            return Err(injected_err(kind));
        }
        self.file.set_len(len)
    }
}

impl StorageFs for FaultFs {
    fn open(&self, path: &Path, mode: OpenMode) -> io::Result<Box<dyn StorageFile>> {
        {
            let mut state = self.state.lock();
            // Track before a truncating open destroys the old content:
            // if nothing is synced afterwards, a power cut restores it.
            state.track(path);
            if let Some(kind) = state.check(FaultOp::Open, &[path]) {
                return Err(injected_err(kind));
            }
        }
        let file = std_open(path, mode)?;
        Ok(Box::new(FaultFile { file, path: path.to_path_buf(), state: Arc::clone(&self.state) }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if let Some(kind) = self.state.lock().check(FaultOp::Read, &[path]) {
            return Err(injected_err(kind));
        }
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut state = self.state.lock();
        state.track(from);
        state.track(to);
        match state.check(FaultOp::Rename, &[from, to]) {
            Some(FaultKind::TornRename) => {
                // The rename "succeeds" but is never journaled: later
                // directory syncs skip these paths, so a power cut
                // reverts both ends to their pre-rename images.
                std::fs::rename(from, to)?;
                state.torn.insert(from.to_path_buf());
                state.torn.insert(to.to_path_buf());
                Ok(())
            }
            Some(kind) => Err(injected_err(kind)),
            None => std::fs::rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut state = self.state.lock();
        state.track(path);
        if let Some(kind) = state.check(FaultOp::RemoveFile, &[path]) {
            return Err(injected_err(kind));
        }
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        {
            let mut state = self.state.lock();
            if let Some(kind) = state.check(FaultOp::SyncDir, &[dir]) {
                return Err(injected_err(kind));
            }
        }
        std::fs::File::open(dir)?.sync_all()?;
        // A directory sync persists the name→inode table: every
        // tracked path directly inside it (except torn renames) is now
        // durable at its current content-or-absent state.
        let mut state = self.state.lock();
        let inside: Vec<PathBuf> = state
            .durable
            .keys()
            .filter(|p| p.parent() == Some(dir) && !state.torn.contains(*p))
            .cloned()
            .collect();
        for path in inside {
            state.mark_durable(&path);
        }
        Ok(())
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        if let Some(kind) = self.state.lock().check(FaultOp::CreateDir, &[dir]) {
            return Err(injected_err(kind));
        }
        std::fs::create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        !self.dead() && path.exists()
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        if self.dead() {
            return Err(injected_err(FaultKind::Eio));
        }
        RealFs.list_dir(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sgx-sim-storage-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_file(fs: &dyn StorageFs, path: &Path, bytes: &[u8], sync: bool) -> io::Result<()> {
        let mut f = fs.open(path, OpenMode::Create)?;
        f.write_all(bytes)?;
        if sync {
            f.sync_all()?;
        }
        Ok(())
    }

    #[test]
    fn realfs_roundtrip() {
        let dir = tmpdir("real");
        let path = dir.join("a");
        write_file(&RealFs, &path, b"hello", true).unwrap();
        assert_eq!(RealFs.read(&path).unwrap(), b"hello");
        assert!(RealFs.exists(&path));
        RealFs.rename(&path, &dir.join("b")).unwrap();
        RealFs.sync_dir(&dir).unwrap();
        assert_eq!(RealFs.list_dir(&dir).unwrap(), vec![dir.join("b")]);
        RealFs.remove_file(&dir.join("b")).unwrap();
        assert!(!RealFs.exists(&dir.join("b")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failpoints_fire_once_on_the_nth_match() {
        let dir = tmpdir("nth");
        let fs = FaultFs::new();
        fs.inject(FaultSpec {
            op: FaultOp::SyncAll,
            path_substr: "log".into(),
            nth: 2,
            kind: FaultKind::SyncFail,
        });
        let path = dir.join("log");
        let mut f = fs.open(&path, OpenMode::Create).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_all().unwrap(); // first match passes
        f.write_all(b"y").unwrap();
        assert!(f.sync_all().is_err(), "second match fires");
        f.write_all(b"z").unwrap();
        f.sync_all().unwrap(); // spec disarmed after firing
        assert_eq!(fs.injected(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_and_short_write_leave_half_the_buffer() {
        for kind in [FaultKind::Enospc, FaultKind::ShortWrite] {
            let dir = tmpdir("half");
            let fs = FaultFs::new();
            fs.inject(FaultSpec::first(FaultOp::Write, "", kind));
            let path = dir.join("f");
            let mut f = fs.open(&path, OpenMode::Create).unwrap();
            assert!(f.write_all(b"12345678").is_err());
            drop(f);
            assert_eq!(fs.read(&path).unwrap(), b"1234", "half the buffer landed");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn power_cut_drops_unsynced_writes() {
        let dir = tmpdir("cut");
        let fs = FaultFs::new();
        let path = dir.join("f");
        write_file(&fs, &path, b"durable", true).unwrap();
        // Overwrite without syncing: the new content is volatile.
        write_file(&fs, &path, b"volatile-volatile", false).unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"volatile-volatile");
        fs.power_cut().unwrap();
        assert_eq!(fs.read(&path).unwrap(), b"durable");
        // A file created and never synced vanishes entirely.
        let ghost = dir.join("ghost");
        write_file(&fs, &ghost, b"gone", false).unwrap();
        fs.power_cut().unwrap();
        assert!(!ghost.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rename_durable_only_after_dir_sync() {
        let dir = tmpdir("rename");
        let fs = FaultFs::new();
        let tmp = dir.join("pin.tmp");
        let pin = dir.join("pin");
        write_file(&fs, &pin, b"old", true).unwrap();
        fs.sync_dir(&dir).unwrap();
        write_file(&fs, &tmp, b"new", true).unwrap();
        fs.rename(&tmp, &pin).unwrap();
        // Power cut before the directory sync: the rename rolls back.
        fs.power_cut().unwrap();
        assert_eq!(fs.read(&pin).unwrap(), b"old");
        assert_eq!(fs.read(&tmp).unwrap(), b"new", "the synced tmp survives");
        // Redo with the directory sync: the rename sticks.
        fs.rename(&tmp, &pin).unwrap();
        fs.sync_dir(&dir).unwrap();
        fs.power_cut().unwrap();
        assert_eq!(fs.read(&pin).unwrap(), b"new");
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_rename_never_becomes_durable() {
        let dir = tmpdir("torn");
        let fs = FaultFs::new();
        let tmp = dir.join("pin.tmp");
        let pin = dir.join("pin");
        write_file(&fs, &pin, b"old", true).unwrap();
        fs.sync_dir(&dir).unwrap();
        write_file(&fs, &tmp, b"new", true).unwrap();
        fs.inject(FaultSpec::first(FaultOp::Rename, "pin", FaultKind::TornRename));
        fs.rename(&tmp, &pin).unwrap(); // appears to succeed
        assert_eq!(fs.read(&pin).unwrap(), b"new");
        fs.sync_dir(&dir).unwrap(); // ...but the dir sync cannot save it
        fs.power_cut().unwrap();
        assert_eq!(fs.read(&pin).unwrap(), b"old");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Whatever step of a replace fails, the failure is returned, and a
    /// power cut afterwards leaves the old content; a replace that
    /// answered `Ok` survives one with the new. Never a mixture.
    #[test]
    fn replace_durably_returns_every_failure_and_never_mixes() {
        let steps = [
            (FaultOp::Write, FaultKind::ShortWrite),
            (FaultOp::SyncAll, FaultKind::SyncFail),
            (FaultOp::Rename, FaultKind::Eio),
            (FaultOp::SyncDir, FaultKind::Eio),
        ];
        for (op, kind) in steps {
            let dir = tmpdir("replace");
            let (fs, path) = (FaultFs::new(), dir.join("pin"));
            replace_durably(&fs, &path, |f| f.write_all(b"old")).unwrap();
            fs.inject(FaultSpec::first(op, "", kind));
            let replaced = replace_durably(&fs, &path, |f| f.write_all(b"new content"));
            assert!(replaced.is_err(), "a failed {op:?} was reported as a replace");
            assert_eq!(fs.injected(), 1);
            fs.power_cut().unwrap();
            assert_eq!(fs.read(&path).unwrap(), b"old", "after a failed {op:?}");
            replace_durably(&fs, &path, |f| f.write_all(b"new content")).unwrap();
            fs.power_cut().unwrap();
            assert_eq!(fs.read(&path).unwrap(), b"new content", "after {op:?} was retried");
            assert_eq!(fs.list_dir(&dir).unwrap(), vec![path], "no temp file is left");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A counter bumped while a pin in the same directory is being
    /// written (a fence racing a live primary) stages through a temp
    /// file of its own: both replaces land whole.
    #[test]
    fn a_counter_and_a_pin_stage_through_different_temp_files() {
        let dir = tmpdir("stage");
        let (pin, ctr) = (dir.join("wal.pin"), dir.join("wal.pin.ctr"));
        let counter = crate::counter::PersistentCounter::open_with(RealFs::shared(), &ctr).unwrap();
        replace_durably(&RealFs, &pin, |f| {
            f.write_all(b"sealed ")?;
            counter.increment()?;
            f.write_all(b"pin")
        })
        .unwrap();
        assert_eq!(RealFs.read(&pin).unwrap(), b"sealed pin");
        assert_eq!(RealFs.read(&ctr).unwrap(), b"1");
        let mut left = RealFs.list_dir(&dir).unwrap();
        left.sort();
        assert_eq!(left, [pin, ctr]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file under `dir`, with its bytes, as the kernel holds them.
    fn image(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), std::fs::read(p).unwrap()))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn crash_lands_nothing_and_every_later_call_fails() {
        let dir = tmpdir("crash");
        let fs = FaultFs::new();
        let (path, other) = (dir.join("f"), dir.join("g"));
        write_file(&fs, &path, b"synced", true).unwrap();
        let mut open = fs.open(&other, OpenMode::Append).unwrap();
        open.write_all(b"in the page cache").unwrap();
        let before = image(&dir);
        fs.crash();
        assert!(fs.open(&path, OpenMode::Create).is_err());
        assert!(fs.read(&path).is_err());
        assert!(open.write_all(b"lost").is_err());
        assert!(open.sync_data().is_err() && open.sync_all().is_err() && open.set_len(0).is_err());
        assert!(fs.rename(&path, &dir.join("h")).is_err());
        assert!(fs.remove_file(&path).is_err());
        assert!(fs.sync_dir(&dir).is_err());
        assert!(fs.create_dir_all(&dir.join("sub")).is_err());
        assert!(fs.list_dir(&dir).is_err());
        assert!(!fs.exists(&path));
        assert_eq!(image(&dir), before, "a killed process lands nothing, and loses nothing");
        assert_eq!(fs.injected(), 0, "a crash is not an armed fault");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The nine mutating calls, in an order each can run in, each
    /// answering whether it ran; `read`s in between count for nothing.
    fn mutating_calls(fs: &FaultFs, dir: &Path) -> Vec<bool> {
        let (path, moved) = (dir.join("f"), dir.join("g"));
        let Ok(mut f) = fs.open(&path, OpenMode::Create) else { return vec![false; 9] };
        let mut ran = vec![true, f.write_all(b"abcd").is_ok()];
        let _ = fs.read(&path);
        ran.extend([f.sync_data().is_ok(), f.sync_all().is_ok(), f.set_len(2).is_ok()]);
        let _ = fs.read(&path);
        ran.push(fs.rename(&path, &moved).is_ok());
        ran.push(fs.remove_file(&moved).is_ok());
        ran.push(fs.sync_dir(dir).is_ok());
        ran.push(fs.create_dir_all(&dir.join("sub")).is_ok());
        ran
    }

    #[test]
    fn crash_at_dies_on_exactly_the_nth_mutating_call() {
        for n in 1..=10 {
            let dir = tmpdir("crash-at");
            let fs = FaultFs::new();
            fs.crash_at(n);
            let ran = mutating_calls(&fs, &dir);
            let expected: Vec<bool> = (1..=9).map(|call| call < n).collect();
            assert_eq!(ran, expected, "crash_at({n})");
            std::fs::write(dir.join("probe"), b"p").unwrap();
            assert_eq!(fs.read(&dir.join("probe")).is_ok(), n > 9, "crash_at({n}): a read after");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_dying_write_lands_exactly_half_its_buffer() {
        let dir = tmpdir("crash-write");
        let fs = FaultFs::new();
        let path = dir.join("f");
        fs.crash_at(2); // the open lives, the write dies
        let mut f = fs.open(&path, OpenMode::Create).unwrap();
        assert!(f.write_all(b"12345678").is_err());
        assert!(f.write_all(b"more").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"1234");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn power_cut_after_a_crash_restores_the_last_synced_images() {
        let dir = tmpdir("crash-cut");
        let fs = FaultFs::new();
        let (path, ghost) = (dir.join("f"), dir.join("ghost"));
        write_file(&fs, &path, b"synced", true).unwrap();
        fs.sync_dir(&dir).unwrap();
        write_file(&fs, &ghost, b"never synced", false).unwrap();
        let mut f = fs.open(&path, OpenMode::Append).unwrap();
        fs.crash_at(1); // the append dies torn; its sync never runs
        assert!(f.write_all(b"-torn").is_err());
        assert!(f.sync_data().is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"synced-t");
        fs.power_cut().unwrap();
        assert_eq!(fs.list_dir(&dir).unwrap(), vec![path.clone()], "the cut ends the crash");
        assert_eq!(fs.read(&path).unwrap(), b"synced");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eio_faults_cover_every_op() {
        let dir = tmpdir("eio");
        let fs = FaultFs::new();
        let path = dir.join("f");
        write_file(&fs, &path, b"x", true).unwrap();
        for op in
            [FaultOp::Open, FaultOp::Read, FaultOp::Rename, FaultOp::RemoveFile, FaultOp::SyncDir]
        {
            fs.inject(FaultSpec::first(op, "", FaultKind::Eio));
        }
        assert!(fs.open(&path, OpenMode::Append).is_err());
        assert!(fs.read(&path).is_err());
        assert!(fs.rename(&path, &dir.join("g")).is_err());
        assert!(fs.remove_file(&path).is_err());
        assert!(fs.sync_dir(&dir).is_err());
        assert_eq!(fs.injected(), 5);
        assert!(fs.exists(&path), "failed ops must not mutate");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
