//! Snapshot persistency (paper §4.4, Algorithm 1).
//!
//! ShieldStore persists by periodic snapshots. The key observation: the
//! bulk of the data — the entries in untrusted memory — is *already*
//! encrypted and integrity-protected, so a snapshot writes those bytes to
//! storage verbatim; only the small in-enclave metadata (secret keys, MAC
//! hash arrays, counters) must be sealed.
//!
//! Two modes are provided, matching Fig. 19:
//!
//! * **Naive**: request processing stops while the whole store is written.
//! * **Optimized**: each shard's main table is frozen behind an `Arc` and
//!   handed to a background writer thread; incoming writes land in a
//!   temporary table that is merged back once the writer finishes — the
//!   observable behaviour of the paper's `fork()`-based copy-on-write
//!   design without `fork()` (unsound with threads, non-portable).
//!
//! Rollback protection: every snapshot increments a monotonic counter and
//! seals its value into the metadata; restore rejects snapshots older than
//! the counter (paper's defense via SGX monotonic counters).

use crate::config::Config;
use crate::entry::{self, EntryHeader, TagHome, TAG_LEN};
use crate::error::{Error, Result};
use crate::shard::StoreKeys;
use crate::store::ShieldStore;
use crate::table::TableCtx;
use sgx_sim::bytes::{Reader, Writer};
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::Enclave;
use sgx_sim::seal;
use sgx_sim::storage::{replace_durably, RealFs, StorageFs};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

// Format v3 ("SSSNAP03"): five sealed raw keys (the fifth is the
// tenant-KDF master), tenant/expiry-bearing entry headers, and each
// entry's tag recorded after it — an entry holds no tag of its own. An
// older snapshot fails the magic check and must be discarded.
const MAGIC: &[u8; 8] = b"SSSNAP03";

// Upper bounds on length fields read from the (untrusted) snapshot file:
// a claim past them is refused before anything is unsealed or opened.
/// Sealed metadata blob: keys + per-shard MAC hash arrays.
const MAX_SEALED_LEN: usize = 1 << 24;
/// One serialized entry (header + key + value ciphertext, its tag apart).
const MAX_ENTRY_LEN: usize = 1 << 26;

/// Sealed per-snapshot metadata (serialized, then sealed as one blob).
struct Metadata {
    counter: u64,
    raw_keys: [[u8; 16]; 5],
    /// Exported MAC hash arrays, one per shard.
    mac_arrays: Vec<Vec<u8>>,
}

impl Metadata {
    fn serialize(&self) -> Vec<u8> {
        let w = &mut Writer::default();
        w.u64(self.counter).bytes(self.raw_keys.as_flattened()).length(self.mac_arrays.len());
        self.mac_arrays.iter().fold(w, |w, macs| w.slice(macs)).done()
    }

    fn deserialize(bytes: &[u8]) -> Result<Self> {
        Reader::whole(bytes, "snapshot metadata", |r| {
            let counter = r.u64()?;
            let mut raw_keys = [[0u8; 16]; 5];
            for key in &mut raw_keys {
                *key = r.array()?;
            }
            let mac_arrays = r.batch(4, |r| r.slice().map(<[u8]>::to_vec))?;
            Ok(Self { counter, raw_keys, mac_arrays })
        })
    }
}

/// Serializes one frozen table's entries: `(bucket, entry bytes, tag)`
/// records, the entry as header and ciphertext with the chain pointer
/// zeroed (it is rebuilt on restore) and its tag read where the table
/// keeps it ([`TableCtx::tagged_chain`]). A chain or tags that cannot be
/// read, or an entry whose length field leaves its chunk, fails the
/// snapshot: a file that silently lacks entries must not be published.
pub(crate) fn write_table(w: &mut impl Write, table: &TableCtx) -> Result<()> {
    let mut prefix = Writer::default();
    prefix.u64(table.count as u64).drain_into(w)?;
    let mut tagged = Vec::new();
    for bucket in 0..table.buckets() {
        let violation = || Error::IntegrityViolation { bucket };
        tagged.clear();
        table.tagged_chain(bucket, &mut tagged).map_err(|_| violation())?;
        for (link, tag) in &tagged {
            let bytes = table.heap.try_bytes_at(link.handle, 0, link.header.sealed_len());
            let bytes = bytes.ok_or_else(violation)?;
            // The entry's first eight bytes, its chain pointer, go out as zero.
            prefix.u32(bucket as u32).length(bytes.len()).u64(0).drain_into(w)?;
            w.write_all(&bytes[8..])?;
            w.write_all(tag)?;
        }
    }
    Ok(())
}

/// Writes `tables` (one per shard) and their `sealed` metadata through
/// [`replace_durably`]: whatever fails on the way — a table that cannot
/// be walked or the directory sync included — nothing is reported
/// published. The WAL deletes the only other durable copy of these
/// operations once the snapshot is declared written, so it must actually
/// be on disk, not in the page cache.
fn publish_snapshot(
    fs: &dyn StorageFs,
    path: &Path,
    count: u64,
    sealed: &[u8],
    tables: &[&TableCtx],
) -> Result<()> {
    let mut walked = Ok(());
    let written = replace_durably(fs, path, |file| {
        let mut w = BufWriter::new(file);
        let preamble = &mut Writer::default();
        preamble.bytes(MAGIC).u64(count).length(tables.len()).slice(sealed).drain_into(&mut w)?;
        walked = tables.iter().try_for_each(|table| write_table(&mut w, table));
        match walked {
            Ok(()) => w.flush(),
            Err(_) => Err(std::io::ErrorKind::InvalidData.into()),
        }
    });
    walked.and(written.map_err(Error::from))
}

/// Reads the calling thread's consumed CPU time from procfs (Linux).
/// Returns 0 where unavailable; resolution is one scheduler tick (10 ms).
fn thread_cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return 0;
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the full line (1-indexed).
    let Some(after_comm) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0;
    };
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // after_comm starts at field 3 (state), so utime/stime are at indices
    // 11 and 12 here.
    let ticks: u64 = fields.get(11).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0)
        + fields.get(12).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    // USER_HZ is 100 on every mainstream Linux configuration.
    ticks * 10_000_000
}

/// A handle to an in-progress optimized snapshot.
///
/// Dropping the handle without calling [`SnapshotJob::finish`] leaves the
/// store serving from its temporary tables; `finish` must be called to
/// merge them back.
pub struct SnapshotJob<'a> {
    store: &'a ShieldStore,
    writer: Option<std::thread::JoinHandle<Result<()>>>,
    writer_cpu_ns: Arc<std::sync::atomic::AtomicU64>,
    /// Snapshot generation being written; WAL rotation commits against it
    /// once the writer's rename is confirmed durable.
    generation: u64,
    /// Destination path, recorded for the scrubber once durable.
    path: PathBuf,
}

impl<'a> SnapshotJob<'a> {
    /// True once the background writer has finished writing the snapshot
    /// file (the merge still requires [`SnapshotJob::finish`]).
    pub fn is_done(&self) -> bool {
        self.writer.as_ref().map(|w| w.is_finished()).unwrap_or(true)
    }

    /// CPU time the background writer consumed (valid once it finished).
    ///
    /// Single-core benchmark hosts cannot physically overlap the writer
    /// with request processing the way the paper's spare core does;
    /// harnesses subtract this from measured wall time to model the
    /// writer running on its own core.
    pub fn writer_cpu(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(
            self.writer_cpu_ns.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// Waits for the writer, then merges the temporary tables back into
    /// the main tables. Returns the writer's consumed CPU time.
    ///
    /// Only after the writer confirms the snapshot's durable rename does
    /// the WAL retire the pre-snapshot log generation
    /// ([`crate::wal::Wal::rotate_commit`]); a writer error leaves the
    /// old generation pinned, so every acknowledged write stays
    /// recoverable from the previous snapshot plus the retained logs.
    pub fn finish(mut self) -> Result<std::time::Duration> {
        let written = match self.writer.take() {
            Some(writer) => writer
                .join()
                .unwrap_or_else(|_| Err(Error::Persistence("snapshot writer panicked".into()))),
            None => Ok(()),
        };
        // Whatever the writer reports, it has let go of the frozen tables:
        // every shard merges back and keeps serving. A failed snapshot must
        // not leave them frozen.
        let merged = (0..self.store.num_shards())
            .map(|i| self.store.with_shard(i, |shard| shard.unfreeze()))
            .fold(Ok(()), Result::and);
        // Temp-table merges bypass quota metering; re-derive per-tenant
        // usage from the merged tables.
        self.store.recount_usage();
        written.and(merged)?;
        if let Some(wal) = self.store.wal_ref() {
            wal.rotate_commit(self.generation)?;
        }
        self.store.note_snapshot(&self.path);
        Ok(self.writer_cpu())
    }
}

impl ShieldStore {
    /// Seals what a snapshot of `tables` (one per shard) keeps inside the
    /// enclave: the counter value, the raw keys and each MAC hash array.
    fn seal_metadata<'t>(
        &self,
        counter: u64,
        tables: impl Iterator<Item = &'t TableCtx>,
    ) -> Vec<u8> {
        let mac_arrays = tables.map(|t| t.macs.export()).collect();
        let metadata = Metadata { counter, raw_keys: self.keys().raw, mac_arrays };
        seal::seal(self.enclave(), &metadata.serialize())
    }

    /// Writes a snapshot, blocking all request processing until it is on
    /// disk — the *naive* persistency of Fig. 19.
    pub fn snapshot_blocking(
        &self,
        path: impl AsRef<Path>,
        counter: &PersistentCounter,
    ) -> Result<()> {
        // Hold every shard lock for the duration: requests stall.
        let guards: Vec<_> = self.shards().iter().map(|s| s.lock()).collect();
        let tables = guards
            .iter()
            .map(|g| {
                g.main_table().ok_or(Error::Persistence("snapshot already in progress".into()))
            })
            .collect::<Result<Vec<_>>>()?;
        let count = counter.increment().map_err(Error::from)?;
        // Begin rotation before the snapshot is written: the old
        // generation's log and pin segment are retained until the rename
        // below is durable, so a crash or write failure at any point in
        // between recovers from the old snapshot plus both log segments.
        if let Some(wal) = self.wal_ref() {
            wal.rotate_begin(count)?;
        }

        let sealed = self.seal_metadata(count, tables.iter().copied());
        publish_snapshot(self.storage_ref().as_ref(), path.as_ref(), count, &sealed, &tables)?;
        // The snapshot is durable and captures everything ever logged
        // (shard locks are still held, so no write can race): retire the
        // superseded log generations.
        if let Some(wal) = self.wal_ref() {
            wal.rotate_commit(count)?;
        }
        self.note_snapshot(path.as_ref());
        Ok(())
    }

    /// Starts an *optimized* snapshot (Algorithm 1): freezes every shard,
    /// spawns a background writer, and returns immediately. Requests keep
    /// flowing (writes go to temporary tables) until
    /// [`SnapshotJob::finish`] merges them back.
    pub fn snapshot_background(
        &self,
        path: impl AsRef<Path>,
        counter: &PersistentCounter,
    ) -> Result<SnapshotJob<'_>> {
        let count = counter.increment().map_err(Error::from)?;
        // Begin rotation *before* freezing: every op logged so far is in
        // the tables about to be frozen, so the snapshot will cover the
        // old generation. Ops that land between rotation and freeze go to
        // both the new log and the snapshot — harmless, because WAL
        // records are idempotent (set/delete of final values) so replay
        // over the snapshot converges. Rotating after the freeze would
        // lose the inverse race: ops logged to the old log but missing
        // from the frozen tables would be dropped with it. The old
        // generation's log and pin segment survive until
        // [`SnapshotJob::finish`] confirms the background writer's rename
        // — a crash or writer failure before that recovers from the old
        // snapshot plus both log segments.
        if let Some(wal) = self.wal_ref() {
            wal.rotate_begin(count)?;
        }
        let mut frozen: Vec<Arc<TableCtx>> = Vec::with_capacity(self.num_shards());
        for i in 0..self.num_shards() {
            frozen.push(self.with_shard(i, |shard| shard.freeze()));
        }
        let sealed = self.seal_metadata(count, frozen.iter().map(|t| &**t));
        let path = path.as_ref().to_path_buf();
        let dest = path.clone();
        let writer_cpu_ns = Arc::new(std::sync::atomic::AtomicU64::new(0));

        let cpu_slot = Arc::clone(&writer_cpu_ns);
        let fs = Arc::clone(self.storage_ref());
        let writer = std::thread::spawn(move || -> Result<()> {
            let cpu_start = thread_cpu_ns();
            let tables: Vec<&TableCtx> = frozen.iter().map(|t| &**t).collect();
            publish_snapshot(fs.as_ref(), &path, count, &sealed, &tables)?;
            // Drop the frozen Arcs so unfreeze() can reclaim the tables.
            drop(frozen);
            cpu_slot.store(
                thread_cpu_ns().saturating_sub(cpu_start),
                std::sync::atomic::Ordering::Relaxed,
            );
            Ok(())
        });

        Ok(SnapshotJob {
            store: self,
            writer: Some(writer),
            writer_cpu_ns,
            generation: count,
            path: dest,
        })
    }

    /// Restores a store from a snapshot written by this enclave identity.
    ///
    /// Verifies: the seal (enclave identity), the monotonic counter (no
    /// rollback), every entry MAC, every entry's shard/bucket placement
    /// (re-derived from the decrypted key — the file's claim is untrusted),
    /// and every bucket-set hash against the sealed MAC hash arrays.
    pub fn restore(
        enclave: Arc<Enclave>,
        config: Config,
        path: impl AsRef<Path>,
        counter: &PersistentCounter,
    ) -> Result<ShieldStore> {
        let data = RealFs.read(path.as_ref())?;
        let restored = Self::restore_inner(enclave, config, &data, Some(counter), RealFs::shared());
        restored.map(|(store, _)| store)
    }

    /// [`ShieldStore::restore`] from the bytes of a snapshot file, with
    /// the monotonic-counter freshness check optional; returns the store
    /// and the snapshot's generation. [`ShieldStore::recover`] passes
    /// `None` when a sealed WAL pin exists: the snapshot generation may
    /// then legitimately lag the counter (a crash mid-snapshot leaves the
    /// counter ahead of the last durable snapshot), and freshness is
    /// instead enforced by [`crate::wal::Wal::recover`], which rejects
    /// any generation the pin does not vouch for.
    pub(crate) fn restore_inner(
        enclave: Arc<Enclave>,
        config: Config,
        data: &[u8],
        counter: Option<&PersistentCounter>,
        storage: Arc<dyn StorageFs>,
    ) -> Result<(ShieldStore, u64)> {
        let file = SnapshotFile::open(data, &enclave)?;
        let (shards, generation) = (file.metadata.mac_arrays.len(), file.metadata.counter);
        if shards != config.shards {
            return Err(Error::Persistence(format!(
                "snapshot has {shards} shards, config expects {}",
                config.shards
            )));
        }
        // Rollback protection: unless a WAL pin is rooting freshness
        // instead, the sealed counter must be current with respect to the
        // monotonic counter.
        if let Some(counter) = counter {
            counter.check_fresh(generation)?;
        }

        let keys = Arc::new(StoreKeys::from_raw(file.metadata.raw_keys));
        let store = ShieldStore::with_keys(enclave, config, Arc::clone(&keys), storage)?;
        let fresh = || Error::Persistence("store not fresh".into());
        file.walk(
            |idx, bucket, bytes, tag| {
                store.with_shard(idx, |shard| {
                    let ctx = shard.main_table_mut().ok_or_else(fresh)?;
                    restore_entry(ctx, &keys, bucket, bytes, tag, idx, shards)
                })
            },
            |idx, mac_array| {
                store.with_shard(idx, |shard| {
                    shard.main_table_mut().ok_or_else(fresh)?.macs.import(mac_array)?;
                    // Verify every bucket set against the sealed hashes.
                    shard.verify_all_sets()?;
                    shard.rebuild_index()
                })
            },
        )?;
        // Quota accounting restarts from the physical truth of the
        // restored tables.
        store.recount_usage();
        Ok((store, generation))
    }
}

/// Re-verifies a snapshot file end-to-end without materializing a store:
/// everything [`ShieldStore::restore`] reads, through the same walker, and
/// every entry's MAC under its owner tenant's derived keys. Used by the
/// background scrubber to catch bitrot while the snapshot is cold, long
/// before a recovery would trip over it. Returns the number of bytes
/// verified.
pub(crate) fn verify_snapshot(
    fs: &dyn StorageFs,
    enclave: &Arc<Enclave>,
    path: &Path,
) -> Result<u64> {
    let data = fs.read(path)?;
    let file = SnapshotFile::open(&data, enclave)?;
    let keys = StoreKeys::from_raw(file.metadata.raw_keys);
    file.walk(|_, _, bytes, tag| open_entry(&keys, 0, bytes, tag).map(drop), |_, _| Ok(()))?;
    Ok(data.len() as u64)
}

/// A snapshot file whose preamble checked out, positioned at its tables.
/// The one reader of snapshot bytes: restore and the scrubber both walk a
/// file through it, so they refuse exactly the same files.
///
/// ```text
/// [ "SSSNAP02" | counter u64 | shards u32 | sealed_len u32 | sealed metadata ]
/// per shard: [ count u64 ] then count × [ bucket u32 | len u32 | entry (len) | tag (16) ]
/// ```
struct SnapshotFile<'a> {
    metadata: Metadata,
    tables: Reader<'a>,
}

impl<'a> SnapshotFile<'a> {
    /// Checks the preamble of `data`: the magic, then the sealed
    /// metadata, which must unseal under `enclave`, carry the counter the
    /// header claims and hold one MAC hash array per shard it counts.
    fn open(data: &'a [u8], enclave: &Enclave) -> Result<Self> {
        let mut r = Reader::new(data, "snapshot");
        r.tag(MAGIC)?;
        let (claimed, shards, sealed) = (r.u64()?, r.length()?, r.slice()?);
        if sealed.len() > MAX_SEALED_LEN {
            return Err(Error::Persistence("snapshot metadata exceeds its limit".into()));
        }
        let metadata = Metadata::deserialize(&seal::unseal(enclave, sealed)?)?;
        if metadata.counter != claimed {
            return Err(Error::Persistence("snapshot counter mismatch".into()));
        }
        if metadata.mac_arrays.len() != shards {
            return Err(Error::Persistence("snapshot shard count mismatch".into()));
        }
        Ok(SnapshotFile { metadata, tables: r })
    }

    /// Walks the tables in file order: `entry(shard, bucket, bytes, tag)`
    /// for each entry as the file claims it, then `shard_end(shard, macs)`
    /// with the shard's sealed MAC hash array; then refuses whatever
    /// follows the last table.
    fn walk(
        self,
        mut entry: impl FnMut(usize, usize, &[u8], &[u8; TAG_LEN]) -> Result<()>,
        mut shard_end: impl FnMut(usize, &[u8]) -> Result<()>,
    ) -> Result<()> {
        let SnapshotFile { metadata, mut tables } = self;
        for (idx, mac_array) in metadata.mac_arrays.iter().enumerate() {
            for _ in 0..tables.u64()? {
                let (bucket, len) = (tables.length()?, tables.length()?);
                if !(entry::HEADER_LEN..=MAX_ENTRY_LEN).contains(&len) {
                    return Err(Error::Persistence("corrupt snapshot entry".into()));
                }
                let bytes = tables.bytes(len)?;
                entry(idx, bucket, bytes, &tables.array()?)?;
            }
            shard_end(idx, mac_array)?;
        }
        Ok(tables.finish()?)
    }
}

/// Authenticates one serialized entry against the tag recorded with it
/// and returns its header and plaintext. Each entry is sealed under its
/// owner tenant's derived keys; the header's tenant claim routes
/// verification, and a forged claim lands on a key under which the tag
/// cannot verify. The fused open verifies the MAC and decrypts in one
/// ciphertext pass.
fn open_entry(
    keys: &StoreKeys,
    bucket: usize,
    bytes: &[u8],
    tag: &[u8; TAG_LEN],
) -> Result<(EntryHeader, Vec<u8>)> {
    let header = entry::parse_header(bytes);
    if header.sealed_len() != bytes.len() {
        return Err(Error::Persistence("entry length mismatch".into()));
    }
    let tkeys = keys.tenant_keys(header.tenant);
    let mut plain = Vec::new();
    let ct = &bytes[entry::HEADER_LEN..];
    if !entry::open_entry(&tkeys.enc, &tkeys.mac, &header, ct, tag, &mut plain) {
        return Err(Error::IntegrityViolation { bucket });
    }
    Ok((header, plain))
}

/// Re-links one serialized entry into a table during restore, verifying
/// it against its recorded tag before trusting it; the tag goes where the
/// table keeps tags.
fn restore_entry(
    ctx: &mut TableCtx,
    keys: &StoreKeys,
    bucket: usize,
    bytes: &[u8],
    tag: &[u8; TAG_LEN],
    shard_idx: usize,
    num_shards: usize,
) -> Result<()> {
    if bucket >= ctx.buckets() {
        return Err(Error::Persistence("corrupt snapshot entry".into()));
    }
    // The per-entry shard/bucket placement in the file is untrusted and —
    // unlike ciphertext, lengths, hint and IV — not covered by the entry
    // MAC (Fig. 5). Trusting the file's claim lets an attacker relocate an
    // entry within its bucket set: when the set's MAC concatenation order
    // happens to be preserved (tail of one chain moved to an empty later
    // bucket), every set hash still verifies and the key becomes a silent
    // miss. Derive the true placement from the decrypted key instead.
    let (header, plain) = open_entry(keys, bucket, bytes, tag)?;
    let key = &plain[..header.key_len as usize];
    let hash = keys.index_hash(key);
    let true_shard = (((hash >> 32) * num_shards as u64) >> 32) as usize;
    let true_bucket = (hash % ctx.buckets() as u64) as usize;
    if true_shard != shard_idx || true_bucket != bucket {
        return Err(Error::IntegrityViolation { bucket });
    }
    let handle = ctx.heap.alloc(ctx.entry_len(&header));
    ctx.place(handle, bytes, tag);
    // Set hashes are verified against the *sealed* arrays, so the chain
    // must come back in its original order: the file lists a bucket's
    // entries head first, so each is appended at the tail.
    ctx.heap.write_u64_at(handle, entry::OFF_NEXT, crate::alloc::NULL_HANDLE);
    // Walk to the tail. Restore is a one-time cost; chains are short.
    match ctx.chain(bucket).last() {
        None => ctx.heads[bucket] = handle,
        Some(Ok(tail)) => ctx.heap.write_u64_at(tail.handle, entry::OFF_NEXT, handle),
        Some(Err(_)) => return Err(Error::IntegrityViolation { bucket }),
    }
    if ctx.home == TagHome::Slot {
        // The MAC chain mirrors the entry chain's order.
        ctx.directory(bucket)
            .insert_back(tag, handle)
            .map_err(|_| Error::IntegrityViolation { bucket })?;
    }
    ctx.count += 1;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use sgx_sim::enclave::EnclaveBuilder;
    use sgx_sim::storage::{FaultFs, OpenMode};
    use sgx_sim::vclock;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("shieldstore-{}-{}", name, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn new_store(seed: u64) -> ShieldStore {
        let enclave = EnclaveBuilder::new("persist-test").seed(seed).epc_bytes(8 << 20).build();
        ShieldStore::new(enclave, Config::shield_opt().buckets(128).mac_hashes(32).with_shards(2))
            .unwrap()
    }

    #[test]
    fn blocking_snapshot_and_restore() {
        vclock::reset();
        let dir = tmpdir("naive");
        let snap = dir.join("snap.db");
        let ctr_path = dir.join("ctr");
        let _ = std::fs::remove_file(&ctr_path);
        let counter = PersistentCounter::open(&ctr_path).unwrap();

        let store = new_store(7);
        for i in 0..100u32 {
            store.set(format!("k{i}").as_bytes(), format!("value-{i}").as_bytes()).unwrap();
        }
        store.snapshot_blocking(&snap, &counter).unwrap();

        let enclave = EnclaveBuilder::new("persist-test").seed(7).epc_bytes(8 << 20).build();
        let restored = ShieldStore::restore(
            enclave,
            Config::shield_opt().buckets(128).mac_hashes(32).with_shards(2),
            &snap,
            &counter,
        )
        .unwrap();
        assert_eq!(restored.len(), 100);
        for i in 0..100u32 {
            assert_eq!(
                restored.get(format!("k{i}").as_bytes()).unwrap(),
                format!("value-{i}").as_bytes()
            );
        }
        vclock::reset();
    }

    #[test]
    fn background_snapshot_serves_during_write() {
        vclock::reset();
        let dir = tmpdir("opt");
        let snap = dir.join("snap.db");
        let ctr_path = dir.join("ctr");
        let _ = std::fs::remove_file(&ctr_path);
        let counter = PersistentCounter::open(&ctr_path).unwrap();

        let store = new_store(8);
        for i in 0..50u32 {
            store.set(format!("k{i}").as_bytes(), b"before").unwrap();
        }
        let job = store.snapshot_background(&snap, &counter).unwrap();
        // The store keeps serving while the snapshot is written.
        store.set(b"k0", b"after").unwrap();
        store.set(b"new-key", b"new").unwrap();
        assert_eq!(store.get(b"k0").unwrap(), b"after");
        assert_eq!(store.get(b"k1").unwrap(), b"before");
        job.finish().unwrap();
        assert_eq!(store.get(b"k0").unwrap(), b"after");
        assert_eq!(store.get(b"new-key").unwrap(), b"new");

        // The snapshot captured the pre-snapshot state.
        let enclave = EnclaveBuilder::new("persist-test").seed(8).epc_bytes(8 << 20).build();
        let restored = ShieldStore::restore(
            enclave,
            Config::shield_opt().buckets(128).mac_hashes(32).with_shards(2),
            &snap,
            &counter,
        );
        // Restore fails the freshness check only if the counter moved on;
        // here it has not.
        let restored = restored.unwrap();
        assert_eq!(restored.get(b"k0").unwrap(), b"before");
        assert_eq!(restored.get(b"new-key"), Err(Error::KeyNotFound));
        vclock::reset();
    }

    #[test]
    fn failed_background_snapshot_keeps_every_write_recoverable() {
        use crate::config::DurabilityPolicy;
        vclock::reset();
        let dir = tmpdir("wal-failed-bg");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("snap.db");
        let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
        let cfg = || {
            Config::shield_opt()
                .buckets(128)
                .mac_hashes(32)
                .with_shards(2)
                .with_durability(DurabilityPolicy::Strict)
        };

        let enclave = EnclaveBuilder::new("persist-test").seed(12).epc_bytes(8 << 20).build();
        let ffs = Arc::new(FaultFs::new());
        let store = ShieldStore::new_with_storage(enclave, cfg(), ffs.clone()).unwrap();
        store.attach_wal(dir.join("wal")).unwrap();
        for i in 0..20u32 {
            store.set(format!("k{i}").as_bytes(), b"base").unwrap();
        }
        store.snapshot_blocking(&snap, &counter).unwrap();
        for i in 0..10u32 {
            store.set(format!("m{i}").as_bytes(), b"mid").unwrap();
        }
        // A background snapshot whose writer fails (target directory does
        // not exist): rotation began, but the old generation must survive
        // because the snapshot never landed.
        let job =
            store.snapshot_background(dir.join("no-such-dir").join("s.db"), &counter).unwrap();
        assert!(job.finish().is_err(), "writer into a missing directory must fail");
        // The store keeps serving and logging into the new generation.
        for i in 0..10u32 {
            store.set(format!("t{i}").as_bytes(), b"tail").unwrap();
        }
        ffs.crash();
        drop(store);

        // Recovery from the last *successful* snapshot replays both
        // retained log generations: nothing acknowledged is lost.
        let enclave = EnclaveBuilder::new("persist-test").seed(12).epc_bytes(8 << 20).build();
        let r = ShieldStore::recover(enclave, cfg(), Some(&snap), &counter, dir.join("wal"))
            .expect("recovery after a failed background snapshot");
        assert_eq!(r.len(), 40);
        for i in 0..20u32 {
            assert_eq!(r.get(format!("k{i}").as_bytes()).unwrap(), b"base");
        }
        for i in 0..10u32 {
            assert_eq!(r.get(format!("m{i}").as_bytes()).unwrap(), b"mid");
            assert_eq!(r.get(format!("t{i}").as_bytes()).unwrap(), b"tail");
        }
        vclock::reset();
    }

    #[test]
    fn snapshot_of_a_forged_chain_fails_and_publishes_nothing() {
        vclock::reset();
        let dir = tmpdir("forged-chain");
        let _ = std::fs::remove_file(dir.join("ctr"));
        let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
        let store = new_store(13);
        let keys: Vec<Vec<u8>> = (0..100u32).map(|i| format!("k{i}").into_bytes()).collect();
        for key in &keys {
            store.set(key, b"value").unwrap();
        }
        // One `next` in shard 0 is overwritten with a pointer into nowhere.
        store.with_shard(0, |shard| {
            let main = shard.main_table_mut().unwrap();
            let head = *main.heads.iter().find(|&&h| h != crate::alloc::NULL_HANDLE).unwrap();
            let wild = main.heap.wild_handles()[0];
            main.heap.write_u64_at(head, entry::OFF_NEXT, wild);
        });
        let elsewhere = || keys.iter().filter(|key| store.shard_of(key) == 1);
        assert!(elsewhere().count() > 10);

        // The blocking snapshot fails with nothing at the target path.
        let snap = dir.join("blocking.db");
        let r = store.snapshot_blocking(&snap, &counter);
        assert!(matches!(r, Err(Error::IntegrityViolation { .. })), "got {r:?}");
        assert!(!snap.exists());

        // So does the background one — and every shard unfreezes, with what
        // it absorbed meanwhile merged in, and keeps serving.
        let snap = dir.join("background.db");
        let job = store.snapshot_background(&snap, &counter).unwrap();
        let during = elsewhere().next().unwrap();
        store.set(during, b"written during the snapshot").unwrap();
        let r = job.finish();
        assert!(matches!(r, Err(Error::IntegrityViolation { .. })), "got {r:?}");
        assert!(!snap.exists());
        for i in 0..store.num_shards() {
            assert!(!store.with_shard(i, |shard| shard.is_snapshotting()));
        }
        for key in elsewhere() {
            let want: &[u8] = if key == during { b"written during the snapshot" } else { b"value" };
            assert_eq!(store.get(key).unwrap(), want);
        }
        vclock::reset();
    }

    #[test]
    fn rollback_detected() {
        vclock::reset();
        let dir = tmpdir("rollback");
        let ctr_path = dir.join("ctr");
        let _ = std::fs::remove_file(&ctr_path);
        let counter = PersistentCounter::open(&ctr_path).unwrap();

        let store = new_store(9);
        store.set(b"k", b"v1").unwrap();
        let old_snap = dir.join("old.db");
        store.snapshot_blocking(&old_snap, &counter).unwrap();
        store.set(b"k", b"v2").unwrap();
        let new_snap = dir.join("new.db");
        store.snapshot_blocking(&new_snap, &counter).unwrap();

        // Restoring the *old* snapshot must be rejected: counter is ahead.
        let enclave = EnclaveBuilder::new("persist-test").seed(9).epc_bytes(8 << 20).build();
        let r = ShieldStore::restore(
            enclave,
            Config::shield_opt().buckets(128).mac_hashes(32).with_shards(2),
            &old_snap,
            &counter,
        );
        assert!(matches!(r, Err(Error::Rollback)), "got {r:?}");
        vclock::reset();
    }

    #[test]
    fn tampered_snapshot_rejected() {
        vclock::reset();
        let dir = tmpdir("tamper");
        let snap = dir.join("snap.db");
        let ctr_path = dir.join("ctr");
        let _ = std::fs::remove_file(&ctr_path);
        let counter = PersistentCounter::open(&ctr_path).unwrap();

        let store = new_store(10);
        for i in 0..20u32 {
            store.set(format!("k{i}").as_bytes(), b"value").unwrap();
        }
        store.snapshot_blocking(&snap, &counter).unwrap();

        // Flip one byte near the end (an entry's ciphertext).
        let mut bytes = std::fs::read(&snap).unwrap();
        let n = bytes.len();
        bytes[n - 10] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();

        let enclave = EnclaveBuilder::new("persist-test").seed(10).epc_bytes(8 << 20).build();
        let r = ShieldStore::restore(
            enclave,
            Config::shield_opt().buckets(128).mac_hashes(32).with_shards(2),
            &snap,
            &counter,
        );
        assert!(
            matches!(r, Err(Error::IntegrityViolation { .. }) | Err(Error::Persistence(_))),
            "got {r:?}"
        );
        vclock::reset();
    }

    #[test]
    fn wrong_enclave_cannot_restore() {
        vclock::reset();
        let dir = tmpdir("identity");
        let snap = dir.join("snap.db");
        let ctr_path = dir.join("ctr");
        let _ = std::fs::remove_file(&ctr_path);
        let counter = PersistentCounter::open(&ctr_path).unwrap();

        let store = new_store(11);
        store.set(b"k", b"v").unwrap();
        store.snapshot_blocking(&snap, &counter).unwrap();

        let other = EnclaveBuilder::new("malicious-enclave").seed(11).epc_bytes(8 << 20).build();
        let r = ShieldStore::restore(
            other,
            Config::shield_opt().buckets(128).mac_hashes(32).with_shards(2),
            &snap,
            &counter,
        );
        assert!(matches!(r, Err(Error::Sim(sgx_sim::SimError::SealVerify))), "got {r:?}");
        vclock::reset();
    }

    /// Metadata plaintexts as `Metadata::serialize` lays them out, except
    /// that the array count may be one too many or a byte left over.
    fn metadata_bytes() -> impl proptest::strategy::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        let arrays = proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..4);
        (any::<u64>(), any::<[u8; 16]>(), arrays, 0u8..3).prop_map(
            |(counter, key, arrays, skew)| {
                let w = &mut Writer::default();
                w.u64(counter)
                    .bytes(&[key; 5].concat())
                    .length(arrays.len() + (skew == 1) as usize);
                for macs in &arrays {
                    w.slice(macs);
                }
                if skew == 2 {
                    w.u8(0);
                }
                w.done()
            },
        )
    }

    proptest::proptest! {
        /// Whatever `Metadata::deserialize` accepts, `serialize` rebuilds
        /// byte for byte.
        #[test]
        fn accepted_metadata_reencodes_exactly(bytes in metadata_bytes()) {
            if let Ok(metadata) = Metadata::deserialize(&bytes) {
                proptest::prop_assert_eq!(metadata.serialize(), bytes);
            }
        }
    }

    /// Restore and the scrubber walk a snapshot file one way, so they
    /// refuse the same files: bytes after the last table fail both.
    #[test]
    fn trailing_bytes_fail_restore_and_scrub_alike() {
        vclock::reset();
        let dir = tmpdir("trailing");
        let snap = dir.join("snap.db");
        let _ = std::fs::remove_file(dir.join("ctr"));
        let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
        let store = new_store(15);
        for i in 0..20u32 {
            store.set(format!("k{i}").as_bytes(), b"value").unwrap();
        }
        store.snapshot_blocking(&snap, &counter).unwrap();
        assert!(verify_snapshot(&RealFs, store.enclave(), &snap).is_ok());

        let mut bytes = std::fs::read(&snap).unwrap();
        bytes.push(0);
        std::fs::write(&snap, &bytes).unwrap();
        let scrubbed = verify_snapshot(&RealFs, store.enclave(), &snap);
        assert!(matches!(scrubbed, Err(Error::Persistence(_))), "got {scrubbed:?}");
        let enclave = EnclaveBuilder::new("persist-test").seed(15).epc_bytes(8 << 20).build();
        let config = Config::shield_opt().buckets(128).mac_hashes(32).with_shards(2);
        let restored = ShieldStore::restore(enclave, config, &snap, &counter);
        assert!(matches!(restored, Err(Error::Persistence(_))), "got {restored:?}");
        vclock::reset();
    }

    /// Serves every path out of a real directory: `/a/b` is `root/a/b`.
    #[derive(Debug)]
    struct Rerooted(PathBuf);

    impl Rerooted {
        fn real(&self, path: &Path) -> PathBuf {
            self.0.join(path.strip_prefix("/").unwrap_or(path))
        }
    }

    impl StorageFs for Rerooted {
        fn open(
            &self,
            path: &Path,
            mode: OpenMode,
        ) -> std::io::Result<Box<dyn sgx_sim::storage::StorageFile>> {
            RealFs.open(&self.real(path), mode)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            RealFs.read(&self.real(path))
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealFs.rename(&self.real(from), &self.real(to))
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            RealFs.remove_file(&self.real(path))
        }
        fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
            RealFs.sync_dir(&self.real(dir))
        }
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            RealFs.create_dir_all(&self.real(dir))
        }
        fn exists(&self, path: &Path) -> bool {
            RealFs.exists(&self.real(path))
        }
        fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
            let real = RealFs.list_dir(&self.real(dir))?;
            Ok(real.iter().filter_map(|p| p.file_name()).map(|name| dir.join(name)).collect())
        }
    }

    /// Recovery reads the snapshot through the storage it is handed, and
    /// only through it: paths that name nothing on the real filesystem
    /// recover a snapshot plus its log.
    #[test]
    fn recovery_reads_the_snapshot_through_its_storage() {
        use crate::config::DurabilityPolicy;
        vclock::reset();
        let dir = tmpdir("rerooted");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
        let cfg = || {
            Config::shield_opt()
                .buckets(128)
                .mac_hashes(32)
                .with_shards(2)
                .with_durability(DurabilityPolicy::Strict)
        };
        let enclave = || EnclaveBuilder::new("persist-test").seed(14).epc_bytes(8 << 20).build();
        let ffs = Arc::new(FaultFs::new());
        let store = ShieldStore::new_with_storage(enclave(), cfg(), ffs.clone()).unwrap();
        store.attach_wal(dir.join("wal")).unwrap();
        for i in 0..20u32 {
            store.set(format!("k{i}").as_bytes(), b"base").unwrap();
        }
        store.snapshot_blocking(dir.join("snap.db"), &counter).unwrap();
        for i in 0..10u32 {
            store.set(format!("t{i}").as_bytes(), b"tail").unwrap();
        }
        ffs.crash();
        drop(store);

        let fs: Arc<dyn StorageFs> = Arc::new(Rerooted(dir.clone()));
        let snap = Path::new("/snap.db");
        let r =
            ShieldStore::recover_with_storage(enclave(), fs, cfg(), Some(snap), &counter, "/wal")
                .expect("recovery through the storage seam");
        assert_eq!(r.len(), 30);
        assert_eq!(r.get(b"k3").unwrap(), b"base");
        assert_eq!(r.get(b"t3").unwrap(), b"tail");
        vclock::reset();
    }

    /// A counter file that does not parse is refused rather than read as
    /// zero: zero would pass every stale snapshot's freshness check and
    /// let the next increment rewind the counter.
    #[test]
    fn rotted_counter_file_refuses_to_open() {
        vclock::reset();
        let dir = tmpdir("rotted-counter");
        let ctr_path = dir.join("ctr");
        let _ = std::fs::remove_file(&ctr_path);
        let counter = PersistentCounter::open(&ctr_path).unwrap();
        let store = new_store(16);
        store.set(b"k", b"v1").unwrap();
        let (snap, stale) = (dir.join("snap.db"), dir.join("stale.db"));
        store.snapshot_blocking(&snap, &counter).unwrap();
        std::fs::copy(&snap, &stale).unwrap();
        store.set(b"k", b"v2").unwrap();
        store.snapshot_blocking(&snap, &counter).unwrap();

        std::fs::write(&ctr_path, b"garbage").unwrap();
        match PersistentCounter::open(&ctr_path) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
            Ok(rotted) => {
                let enclave =
                    EnclaveBuilder::new("persist-test").seed(16).epc_bytes(8 << 20).build();
                let config = Config::shield_opt().buckets(128).mac_hashes(32).with_shards(2);
                let replayed = ShieldStore::restore(enclave, config, &stale, &rotted);
                panic!(
                    "read as {}; the stale copy restores: {:?}",
                    rotted.read(),
                    replayed.is_ok()
                );
            }
        }
        assert!(counter.increment().is_err(), "a rotted counter is not rewound to 1");
        vclock::reset();
    }
}
