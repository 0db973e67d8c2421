//! The top-level sharded store.
//!
//! [`ShieldStore`] partitions the key space across [`Shard`]s by the keyed
//! index hash (paper §5.3): a request's serving shard is a pure function of
//! its key, so concurrent workers never touch the same buckets and need no
//! synchronization. For convenience the store wraps each shard in a mutex;
//! benchmark workers instead pin themselves to one shard each with
//! [`ShieldStore::with_shard`], paying the lock once per batch.

use crate::config::Config;
use crate::error::{Error, Refusal, Result};
use crate::op::{Control, Controlled, Op, Reply};
use crate::repl::Watermark;
use crate::shard::{Shard, StoreKeys};
use crate::stats::{OpStats, StatsSnapshot, TenantStat, MAX_TENANT_STATS};
use crate::tenant::{TenantId, TenantRegistry, TenantState, DEFAULT_TENANT};
use crate::ttl;
use crate::wal::{Wal, WalOp};
use parking_lot::Mutex;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::Enclave;
use sgx_sim::storage::{RealFs, StorageFs};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// A shielded in-memory key-value store.
///
/// # Examples
///
/// ```
/// use sgx_sim::enclave::EnclaveBuilder;
/// use shieldstore::{Config, ShieldStore};
///
/// let enclave = EnclaveBuilder::new("kv").epc_bytes(8 << 20).build();
/// let store = ShieldStore::new(enclave, Config::shield_opt().buckets(1024)).unwrap();
/// store.set(b"user:1", b"alice").unwrap();
/// assert_eq!(store.get(b"user:1").unwrap(), b"alice");
/// ```
pub struct ShieldStore {
    enclave: Arc<Enclave>,
    keys: Arc<StoreKeys>,
    config: Config,
    shards: Vec<Mutex<Shard>>,
    /// Optional write-ahead log; set once by [`ShieldStore::attach_wal`]
    /// or [`ShieldStore::recover`]. Writes log into it while holding the
    /// owning shard's lock (lock order: shard, then WAL), so per-key log
    /// order matches apply order.
    wal: OnceLock<Wal>,
    /// Tenant quotas, weights, and usage accounting. Tenant 0 exists
    /// implicitly (unlimited by default); the untenanted API is sugar
    /// for it.
    registry: TenantRegistry,
    /// Primary-side replication state (subscriber watermarks, shipping
    /// counters). Inert until the first [`ShieldStore::repl_subscribe`].
    repl: crate::repl::PrimaryState,
    /// The storage seam all durable I/O goes through — [`RealFs`] in
    /// production, a fault injector in tests and the adversary harness.
    storage: Arc<dyn StorageFs>,
    /// Incremental scrubber cursor and counters
    /// ([`ShieldStore::scrub_tick`]).
    scrub: Mutex<crate::scrub::ScrubState>,
    /// The last snapshot this store wrote or restored — what the
    /// scrubber's snapshot phase re-verifies.
    last_snapshot: Mutex<Option<PathBuf>>,
}

impl std::fmt::Debug for ShieldStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShieldStore")
            .field("shards", &self.shards.len())
            .field("buckets", &self.config.num_buckets)
            .finish()
    }
}

impl ShieldStore {
    /// Creates a store inside `enclave` with the given configuration.
    pub fn new(enclave: Arc<Enclave>, config: Config) -> Result<Self> {
        Self::new_with_storage(enclave, config, RealFs::shared())
    }

    /// [`ShieldStore::new`] with an explicit storage backend: all durable
    /// I/O (WAL, pin, counters, snapshots) routes through `storage`.
    /// Tests and the adversary harness pass a
    /// [`sgx_sim::storage::FaultFs`] to inject storage faults at every
    /// call site.
    pub fn new_with_storage(
        enclave: Arc<Enclave>,
        config: Config,
        storage: Arc<dyn StorageFs>,
    ) -> Result<Self> {
        config.validate();
        let keys = Arc::new(StoreKeys::generate(&enclave));
        Self::with_keys(enclave, config, keys, storage)
    }

    pub(crate) fn with_keys(
        enclave: Arc<Enclave>,
        config: Config,
        keys: Arc<StoreKeys>,
        storage: Arc<dyn StorageFs>,
    ) -> Result<Self> {
        let mut shards = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let mut shard = Shard::new(Arc::clone(&enclave), Arc::clone(&keys), config.clone())?;
            if config.cache_bytes > 0 {
                shard.enable_cache(config.cache_bytes / config.shards);
            }
            shards.push(Mutex::new(shard));
        }
        Ok(Self {
            enclave,
            keys,
            config,
            shards,
            wal: OnceLock::new(),
            registry: TenantRegistry::new(),
            repl: crate::repl::PrimaryState::default(),
            storage,
            scrub: Mutex::new(crate::scrub::ScrubState::default()),
            last_snapshot: Mutex::new(None),
        })
    }

    /// Attaches a fresh write-ahead log in `dir` to this (fresh) store,
    /// using the [`Config::durability`] group-commit policy. Any log a
    /// previous store life left in `dir` is discarded — use
    /// [`ShieldStore::recover`] to replay one instead. Fails if a WAL is
    /// already attached.
    pub fn attach_wal(&self, dir: impl AsRef<Path>) -> Result<()> {
        let wal = Wal::create(
            Arc::clone(&self.enclave),
            Arc::clone(&self.storage),
            dir.as_ref(),
            self.config.durability,
            0,
        )?;
        self.wal.set(wal).map_err(|_| Error::Persistence("write-ahead log already attached".into()))
    }

    /// Commits any operations buffered in the write-ahead log, whatever
    /// the [`crate::DurabilityPolicy`], and returns the durable
    /// `(generation, seq)` watermark — the exact commit point a client
    /// can wait for a replica to reach. `None` without an attached WAL
    /// (a no-op).
    pub fn flush_wal(&self) -> Result<Option<Watermark>> {
        match self.wal.get() {
            Some(wal) => wal.flush().map(|wm| Some(wm.into())),
            None => Ok(None),
        }
    }

    /// Rebuilds a store after a crash: restores `snapshot` (when given),
    /// then verifies and replays the write-ahead log in `wal_dir`
    /// record-by-record, stopping cleanly at a torn final record. The
    /// snapshot generation must be one the sealed WAL pin vouches for —
    /// replay covers it and every later pinned log generation, so a crash
    /// anywhere in a snapshot/rotation sequence recovers completely. A
    /// stale or tampered log tail, a hidden pin, or an unpinned snapshot
    /// generation all fail closed ([`Error::Rollback`] /
    /// [`Error::LogIntegrity`]). When `wal_dir` holds no WAL state at
    /// all, freshness falls back to the snapshot's monotonic `counter`.
    /// Returns the store with the WAL re-attached and ready for new
    /// writes.
    pub fn recover(
        enclave: Arc<Enclave>,
        config: Config,
        snapshot: Option<&Path>,
        counter: &PersistentCounter,
        wal_dir: impl AsRef<Path>,
    ) -> Result<ShieldStore> {
        Self::recover_with_storage(enclave, RealFs::shared(), config, snapshot, counter, wal_dir)
    }

    /// [`ShieldStore::recover`] with an explicit storage backend — the
    /// fault-injection entry point for crash-recovery tests.
    pub fn recover_with_storage(
        enclave: Arc<Enclave>,
        storage: Arc<dyn StorageFs>,
        config: Config,
        snapshot: Option<&Path>,
        counter: &PersistentCounter,
        wal_dir: impl AsRef<Path>,
    ) -> Result<ShieldStore> {
        let policy = config.durability;
        // With WAL state present, the sealed pin (bound to its own
        // monotonic counter) is the freshness root: the snapshot may
        // legitimately lag the snapshot counter after a mid-snapshot
        // crash, and `Wal::recover` rejects any generation the pin does
        // not list. Without any WAL state the snapshot counter is the
        // only defense, so it is enforced here — including against a
        // wiped WAL dir presented alongside no snapshot at all.
        let pin_is_freshness_root = Wal::state_exists(&storage, wal_dir.as_ref());
        let (store, expected_snap) = match snapshot {
            Some(path) => {
                let data = storage.read(path)?;
                let freshness = if pin_is_freshness_root { None } else { Some(counter) };
                let (store, generation) = Self::restore_inner(
                    enclave.clone(),
                    config,
                    &data,
                    freshness,
                    Arc::clone(&storage),
                )?;
                *store.last_snapshot.lock() = Some(path.to_path_buf());
                (store, generation)
            }
            None => {
                if !pin_is_freshness_root {
                    counter.check_fresh(0).map_err(Error::from)?;
                }
                (Self::new_with_storage(enclave.clone(), config, Arc::clone(&storage))?, 0)
            }
        };
        // The WAL is not attached yet, so replayed ops are not re-logged.
        // Replay is unmetered (no quota state): every logged op was
        // admitted when it first ran; usage is recounted below.
        let wal =
            Wal::recover(enclave, storage, wal_dir.as_ref(), policy, expected_snap, &mut |op| {
                store.apply_replicated(op)
            })?;
        store
            .wal
            .set(wal)
            .map_err(|_| Error::Persistence("write-ahead log already attached".into()))?;
        store.recount_usage();
        Ok(store)
    }

    /// Applies one verified WAL record op to the in-memory tables — the
    /// shared apply path for crash recovery and replica replay. Bypasses
    /// quota admission and the WAL (every op was admitted when it first
    /// ran on the primary; callers recount usage when done).
    pub(crate) fn apply_replicated(&self, op: WalOp) -> Result<()> {
        match op {
            WalOp::Set { tenant, key, value, expires_at } => {
                self.with_shard(self.shard_of(&key), |s| {
                    s.execute(tenant, None, Op::Set { key: &key, value: &value, expires_at })
                        .map(|_| ())
                })
            }
            // A delete can replay against a store that never held the
            // key (or already lost it): that is the idempotent outcome,
            // not an error. Replay purges even expired entries — the
            // logged delete may itself be a sweep reap.
            WalOp::Delete { tenant, key } => {
                self.with_shard(self.shard_of(&key), |s| s.purge(tenant, &key).map(|_| ()))
            }
        }
    }

    /// Attaches an already-built WAL (the promotion path: a replica
    /// adopting the verified log it copied). Fails if one is attached.
    pub(crate) fn install_wal(&self, wal: Wal) -> Result<()> {
        self.wal.set(wal).map_err(|_| Error::Persistence("write-ahead log already attached".into()))
    }

    pub(crate) fn wal_ref(&self) -> Option<&Wal> {
        self.wal.get()
    }

    pub(crate) fn repl_state(&self) -> &crate::repl::PrimaryState {
        &self.repl
    }

    /// The storage seam this store's durable I/O goes through.
    pub(crate) fn storage_ref(&self) -> &Arc<dyn StorageFs> {
        &self.storage
    }

    pub(crate) fn scrub_state(&self) -> &Mutex<crate::scrub::ScrubState> {
        &self.scrub
    }

    /// Records the snapshot file the scrubber should re-verify.
    pub(crate) fn note_snapshot(&self, path: &Path) {
        *self.last_snapshot.lock() = Some(path.to_path_buf());
    }

    pub(crate) fn last_snapshot_path(&self) -> Option<PathBuf> {
        self.last_snapshot.lock().clone()
    }

    /// The shard index serving `key`: the high hash bits pick the shard,
    /// leaving the low bits for bucket selection inside the shard.
    #[inline]
    pub fn shard_of(&self, key: &[u8]) -> usize {
        let hash = self.keys.index_hash(key);
        (((hash >> 32) * self.shards.len() as u64) >> 32) as usize
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The store's configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The enclave this store runs in.
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// Runs `f` with exclusive access to shard `idx`. Benchmark workers
    /// use this to own their partition for a whole run.
    pub fn with_shard<T>(&self, idx: usize, f: impl FnOnce(&mut Shard) -> T) -> T {
        f(&mut self.shards[idx].lock())
    }

    /// The tenant registry: quotas, weights, and per-tenant usage.
    pub fn tenants(&self) -> &TenantRegistry {
        &self.registry
    }

    /// Executes one operation in `tenant`'s namespace — the store's only
    /// routed entry point, and the only place that names the registry the
    /// tenant's quota state comes from, picks the serving shard by
    /// [`ShieldStore::shard_of`],
    /// splits a batch by shard, merges a scan across shards, and logs the
    /// outcome (`ShieldStore::log_wal`). Everything below it is
    /// [`Shard::execute`]; everything above it (the convenience methods
    /// here, `KvBackend`, the wire server) is a caller.
    pub fn execute(&self, tenant: TenantId, op: Op<'_>) -> Result<Reply> {
        // One shard's share of the op: run it, then log it, under that
        // shard's lock. A write the log can no longer take is refused
        // before it touches the shard, so a refusal changed nothing.
        let on_shard = |idx: usize, op: Op<'_>| {
            self.with_shard(idx, |s| {
                if let (true, Some(wal)) = (op.is_write(), self.wal.get()) {
                    wal.writable()?;
                }
                let reply = s.execute_metered(&self.registry, tenant, op)?;
                self.log_wal(tenant, &op, &reply)?;
                Ok(reply)
            })
        };
        match op {
            // Batches group by owning shard and take each shard's lock
            // once per batch (not once per key); within a shard every
            // touched bucket-set hash is verified (and re-stored) once.
            // Grouping preserves input order per shard, so duplicate keys
            // keep last-write-wins semantics. A failure in any shard
            // fails the whole call.
            Op::MultiGet(keys) => {
                let mut results: Vec<Option<Vec<u8>>> = vec![None; keys.len()];
                for (idx, group) in self.group_by_shard(keys.iter().copied()) {
                    let batch: Vec<&[u8]> = group.iter().map(|&i| keys[i]).collect();
                    let values = on_shard(idx, Op::MultiGet(&batch))?.values();
                    for (slot, value) in group.into_iter().zip(values) {
                        results[slot] = value;
                    }
                }
                Ok(Reply::Values(results))
            }
            Op::MultiSet { items, expires_at } => {
                for (idx, group) in self.group_by_shard(items.iter().map(|(key, _)| *key)) {
                    let batch: Vec<(&[u8], &[u8])> = group.iter().map(|&i| items[i]).collect();
                    on_shard(idx, Op::MultiSet { items: &batch, expires_at })?;
                }
                Ok(Reply::Stored)
            }
            Op::ScanRange { limit, .. } | Op::ScanPrefix { limit, .. } => {
                let mut all = Vec::new();
                // Exclusive upper bound, narrowed once `limit` items are
                // in hand: a key at or past the current limit-th smallest
                // can never make the final cut, so later shards skip
                // fetching (and verifying, decrypting) everything beyond
                // it instead of materializing their full result.
                let mut bound: Option<Vec<u8>> = None;
                for idx in 0..self.shards.len() {
                    let narrowed = bound.as_deref().map_or(op, |b| narrow_scan(op, b));
                    all.extend(on_shard(idx, narrowed)?.entries());
                    if limit > 0 && all.len() >= limit {
                        all.sort_by(|a, b| a.0.cmp(&b.0));
                        all.truncate(limit);
                        bound = Some(all[limit - 1].0.clone());
                    }
                }
                all.sort_by(|a, b| a.0.cmp(&b.0));
                all.truncate(limit);
                Ok(Reply::Entries(all))
            }
            Op::Get(key)
            | Op::Exists(key)
            | Op::Delete(key)
            | Op::Set { key, .. }
            | Op::Append { key, .. }
            | Op::Increment { key, .. } => on_shard(self.shard_of(key), op),
        }
    }

    /// Answers one control request — with [`ShieldStore::execute`], all a
    /// serving layer asks of the store. Only a replica promotes, so
    /// [`Control::Promote`] is refused here.
    pub fn control(&self, control: Control) -> core::result::Result<Controlled, Refusal> {
        let answer = match control {
            Control::Stats => Ok(Controlled::Stats(Box::new(self.snapshot()))),
            Control::Flush => self.flush_wal().map(Controlled::Watermark),
            Control::ReplSubscribe => self.repl_subscribe().map(Controlled::Hello),
            Control::ReplSegment { generation, after_seq, max_bytes } => {
                self.repl_batch(generation, after_seq, max_bytes as usize).map(Controlled::Batch)
            }
            Control::ReplAck { subscriber, generation, seq } => self
                .repl_ack(subscriber, Watermark::new(generation, seq))
                .map(|()| Controlled::Done),
            Control::Promote => return Err(Refusal::Failed),
        };
        answer.map_err(|e| Refusal::from(&e))
    }

    /// Input positions grouped by owning shard, skipping shards the
    /// batch does not touch.
    fn group_by_shard<'k>(
        &self,
        keys: impl Iterator<Item = &'k [u8]>,
    ) -> impl Iterator<Item = (usize, Vec<usize>)> {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, key) in keys.enumerate() {
            groups[self.shard_of(key)].push(i);
        }
        groups.into_iter().enumerate().filter(|(_, group)| !group.is_empty())
    }

    /// Logs what `op` changed to the attached WAL, if any: the one place
    /// a client op becomes log records. Called with the serving shard's
    /// lock held, so the log observes the shard's apply order. Appends
    /// and increments are logged as the value they produced, so replay is
    /// idempotent; reads and clean misses changed nothing and log
    /// nothing. A commit failure surfaces as the operation's error even
    /// though the in-memory write already landed: durability fails
    /// closed, and that one op may have executed. Records are built only
    /// when a WAL is attached, so stores without one pay no per-op
    /// allocation for them.
    fn log_wal(&self, tenant: TenantId, op: &Op<'_>, reply: &Reply) -> Result<()> {
        let Some(wal) = self.wal.get() else { return Ok(()) };
        let set = |key: &[u8], value: Vec<u8>, expires_at| WalOp::Set {
            tenant,
            key: key.to_vec(),
            value,
            expires_at,
        };
        match (*op, reply) {
            (Op::Set { key, value, expires_at }, _) => {
                wal.log([set(key, value.to_vec(), expires_at)])
            }
            (Op::MultiSet { items, expires_at }, _) => {
                wal.log(items.iter().map(|&(key, value)| set(key, value.to_vec(), expires_at)))
            }
            (Op::Append { key, .. }, Reply::Appended(value)) => {
                wal.log([set(key, value.clone(), 0)])
            }
            (Op::Increment { key, .. }, Reply::Counter(next)) => {
                wal.log([set(key, next.to_string().into_bytes(), 0)])
            }
            (Op::Delete(key), Reply::Deleted(true)) => {
                wal.log([WalOp::Delete { tenant, key: key.to_vec() }])
            }
            _ => Ok(()),
        }
    }

    // -- default-namespace sugar: one method per op ----------------------
    //
    // Each is `execute` under `DEFAULT_TENANT`, with a miss turned back
    // into `Error::KeyNotFound` where the signature has no room for one.

    /// Retrieves the value stored under `key`.
    pub fn get(&self, key: &[u8]) -> Result<Vec<u8>> {
        self.execute(DEFAULT_TENANT, Op::Get(key))?.value().ok_or(Error::KeyNotFound)
    }

    /// Stores `value` under `key`, with no expiry.
    pub fn set(&self, key: &[u8], value: &[u8]) -> Result<()> {
        self.execute(DEFAULT_TENANT, Op::set(key, value)).map(|_| ())
    }

    /// Removes `key`.
    pub fn delete(&self, key: &[u8]) -> Result<()> {
        match self.execute(DEFAULT_TENANT, Op::Delete(key))?.deleted() {
            true => Ok(()),
            false => Err(Error::KeyNotFound),
        }
    }

    /// Appends `suffix` to `key`'s value, returning the new length.
    pub fn append(&self, key: &[u8], suffix: &[u8]) -> Result<usize> {
        Ok(self.execute(DEFAULT_TENANT, Op::Append { key, suffix })?.appended().len())
    }

    /// Adds `delta` to `key`'s decimal value, returning the new value.
    pub fn increment(&self, key: &[u8], delta: i64) -> Result<i64> {
        Ok(self.execute(DEFAULT_TENANT, Op::Increment { key, delta })?.counter())
    }

    /// True when `key` exists (an expired entry reads as absent).
    pub fn exists(&self, key: &[u8]) -> Result<bool> {
        Ok(self.execute(DEFAULT_TENANT, Op::Exists(key))?.exists())
    }

    /// Batched lookup across shards. Results come back in input order; a
    /// clean miss is `None`.
    pub fn multi_get(&self, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        Ok(self.execute(DEFAULT_TENANT, Op::MultiGet(keys))?.values())
    }

    /// Batched write across shards (no expiry).
    pub fn multi_set(&self, items: &[(&[u8], &[u8])]) -> Result<()> {
        self.execute(DEFAULT_TENANT, Op::MultiSet { items, expires_at: 0 }).map(|_| ())
    }

    /// Ordered range scan over `[start, end)`, merged across shards:
    /// up to `limit` key-value pairs in key order. Requires
    /// [`Config::ordered_index`] (the paper's future-work extension; see
    /// [`crate::ordered`] for the EPC trade-off).
    pub fn scan_range(
        &self,
        start: &[u8],
        end: &[u8],
        limit: usize,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(self.execute(DEFAULT_TENANT, Op::ScanRange { start, end, limit })?.entries())
    }

    /// Ordered prefix scan, merged across shards.
    pub fn scan_prefix(&self, prefix: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(self.execute(DEFAULT_TENANT, Op::ScanPrefix { prefix, limit })?.entries())
    }

    /// Physically removes expired entries across all shards, logging
    /// each reap to the WAL so recovery cannot resurrect them. Returns
    /// the number of entries reaped. Shards mid-snapshot are skipped
    /// (lazy expiry keeps hiding their dead entries until the next
    /// sweep).
    pub fn sweep_expired(&self) -> Result<usize> {
        let now = ttl::now_ns();
        let mut total = 0;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let reaped = shard.sweep_expired(now, &self.registry);
            if reaped.is_empty() {
                continue;
            }
            total += reaped.len();
            if let Some(wal) = self.wal.get() {
                wal.log(reaped.into_iter().map(|(tenant, key)| WalOp::Delete { tenant, key }))?;
            }
        }
        Ok(total)
    }

    /// Rebaselines per-tenant quota accounting from the tables
    /// themselves. Needed after flows that mutate tables without quota
    /// state (recovery replay, snapshot restore, temp-table merges).
    pub(crate) fn recount_usage(&self) {
        let mut usage = std::collections::HashMap::new();
        for shard in &self.shards {
            for (tenant, (bytes, keys)) in shard.lock().usage_by_tenant() {
                let slot = usage.entry(tenant).or_insert((0, 0));
                slot.0 += bytes;
                slot.1 += keys;
            }
        }
        self.registry.set_usage(&usage);
    }

    /// Approximate enclave bytes held by the ordered index across shards.
    pub fn index_bytes(&self) -> usize {
        self.shards().iter().map(|s| s.lock().index_bytes()).sum()
    }

    /// Total live entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregated operation counters across shards.
    pub fn stats(&self) -> OpStats {
        let mut total = OpStats::default();
        for shard in &self.shards {
            total.merge(shard.lock().stats());
        }
        total
    }

    /// A full observability snapshot: counters and latency histograms
    /// aggregated across shards, occupancy gauges, and the enclave's SGX
    /// transition/paging counters. Each shard's contribution is taken
    /// under its lock, so per-shard state is consistent; cross-shard skew
    /// is bounded by ops that land between lock acquisitions.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot { shards: self.shards.len() as u64, ..Default::default() };
        for shard in &self.shards {
            shard.lock().contribute_snapshot(&mut snap);
        }
        if let Some(wal) = self.wal.get() {
            // One lock acquisition, so `wal_group.count() == wal_records`
            // holds atomically for `check_consistent`.
            let (bytes, records, fsyncs, hist) = wal.gauges();
            snap.wal_bytes = bytes;
            snap.wal_records = records;
            snap.wal_fsyncs = fsyncs;
            snap.hists.wal_group.merge(&hist);
        }
        self.repl.fill_gauges(&mut snap, self.wal.get().map(|w| w.durable_watermark()));
        {
            let scrub = self.scrub.lock();
            snap.scrub_passes = scrub.passes;
            snap.scrub_bytes = scrub.bytes;
            snap.scrub_corrupt = scrub.corrupt;
            snap.scrub_repaired = scrub.repaired;
        }
        snap.storage_failed = self.wal.get().is_some_and(|w| w.storage_failed()) as u64;
        snap.crypto_bytes = shield_crypto::stats::crypto_bytes();
        snap.crypto_ops = shield_crypto::stats::crypto_ops();
        snap.crypto_backend = shield_crypto::stats::backend_code();
        self.fill_tenant_stats(&mut snap);
        snap.sim = self.enclave.stats().snapshot();
        snap
    }

    /// Fills the snapshot's fixed-width per-tenant block. When more
    /// tenants exist than rows, the busiest (by op count) win and
    /// `tenant_count` still reports the true total.
    fn fill_tenant_stats(&self, snap: &mut StatsSnapshot) {
        let all = self.registry.all();
        snap.tenant_count = all.len() as u64;
        let mut rows: Vec<TenantStat> =
            all.iter().map(|(tenant, state)| tenant_stat_row(*tenant, state)).collect();
        if rows.len() > MAX_TENANT_STATS {
            rows.sort_by_key(|r| std::cmp::Reverse(r.gets + r.sets));
        }
        for (slot, row) in snap.tenants.iter_mut().zip(rows) {
            *slot = row;
        }
    }

    /// Resets all shards' operation counters.
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.lock().reset_stats();
        }
    }

    /// Which partitions are currently quarantined (all empty unless
    /// [`Config::quarantine`] is enabled and violations occurred).
    pub fn quarantine_report(&self) -> QuarantineReport {
        QuarantineReport {
            shards: self
                .shards
                .iter()
                .map(|shard| {
                    let (whole, sets, violations) = shard.lock().quarantine_state();
                    ShardQuarantine { whole, quarantined_sets: sets, violations }
                })
                .collect(),
        }
    }

    /// The `(shard, bucket set)` partition serving `key` — the
    /// granularity at which quarantine isolates integrity violations.
    pub fn key_partition(&self, key: &[u8]) -> (usize, usize) {
        let shard = self.shard_of(key);
        let set = self.with_shard(shard, |s| s.set_of_key(key));
        (shard, set)
    }

    pub(crate) fn keys(&self) -> &Arc<StoreKeys> {
        &self.keys
    }

    pub(crate) fn shards(&self) -> &[Mutex<Shard>] {
        &self.shards
    }
}

/// `scan` with its window cut off at `bound`. Every prefixed key below
/// `bound` lies in `[prefix, bound)`, and conversely everything in that
/// range shares the prefix: `bound` itself starts with it, so a key with
/// a mismatching byte would sort at or past `bound`. A range scan with
/// the narrowed end is therefore an exact substitute for a prefix scan.
fn narrow_scan<'a>(scan: Op<'a>, bound: &'a [u8]) -> Op<'a> {
    match scan {
        Op::ScanRange { start, limit, .. } | Op::ScanPrefix { prefix: start, limit } => {
            Op::ScanRange { start, end: bound, limit }
        }
        other => other,
    }
}

/// Materializes one [`TenantStat`] row from a tenant's live state.
fn tenant_stat_row(tenant: TenantId, state: &TenantState) -> TenantStat {
    use std::sync::atomic::Ordering::SeqCst;
    let u = &state.usage;
    TenantStat {
        tenant: tenant.into(),
        weight: state.quota.weight.max(1).into(),
        used_bytes: u.used_bytes.load(SeqCst),
        used_keys: u.used_keys.load(SeqCst),
        gets: u.gets.load(SeqCst),
        sets: u.sets.load(SeqCst),
        hits: u.hits.load(SeqCst),
        misses: u.misses.load(SeqCst),
        quota_rejections: u.quota_rejections.load(SeqCst),
        expired_lazy: u.expired_lazy.load(SeqCst),
        expired_swept: u.expired_swept.load(SeqCst),
        shed: 0,
    }
}

/// One shard's quarantine status within a [`QuarantineReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardQuarantine {
    /// The whole shard is quarantined (repeat violation, or a violation
    /// during a snapshot window).
    pub whole: bool,
    /// Quarantined bucket-set indices (empty when `whole` — the flag
    /// supersedes per-set tracking).
    pub quarantined_sets: Vec<usize>,
    /// Integrity violations this shard has observed.
    pub violations: u64,
}

/// Store-wide quarantine status from [`ShieldStore::quarantine_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Per-shard status, indexed by shard.
    pub shards: Vec<ShardQuarantine>,
}

impl QuarantineReport {
    /// True when nothing is quarantined.
    pub fn is_clean(&self) -> bool {
        self.shards.iter().all(|s| !s.whole && s.quarantined_sets.is_empty())
    }

    /// Bucket sets quarantined in partially quarantined shards (the
    /// `quarantined_sets` stats gauge).
    pub fn quarantined_sets(&self) -> u64 {
        self.shards.iter().filter(|s| !s.whole).map(|s| s.quarantined_sets.len() as u64).sum()
    }

    /// Shards quarantined wholesale (the `quarantined_shards` gauge).
    pub fn quarantined_shards(&self) -> u64 {
        self.shards.iter().filter(|s| s.whole).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use sgx_sim::enclave::EnclaveBuilder;
    use sgx_sim::storage::FaultFs;
    use sgx_sim::vclock;

    fn store(shards: usize) -> ShieldStore {
        let enclave = EnclaveBuilder::new("store-test").epc_bytes(8 << 20).build();
        ShieldStore::new(
            enclave,
            Config::shield_opt().buckets(256).mac_hashes(64).with_shards(shards),
        )
        .unwrap()
    }

    #[test]
    fn routes_across_shards() {
        let s = store(4);
        vclock::reset();
        for i in 0..200u32 {
            s.set(format!("key-{i}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        assert_eq!(s.len(), 200);
        for i in 0..200u32 {
            assert_eq!(s.get(format!("key-{i}").as_bytes()).unwrap(), format!("v{i}").as_bytes());
        }
        // Keys actually spread over shards.
        let mut nonempty = 0;
        for i in 0..s.num_shards() {
            if s.with_shard(i, |sh| sh.len()) > 0 {
                nonempty += 1;
            }
        }
        assert!(nonempty >= 3, "200 keys should hit at least 3 of 4 shards");
        vclock::reset();
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let s = store(3);
        for i in 0..100u32 {
            let key = format!("stable-{i}");
            let a = s.shard_of(key.as_bytes());
            let b = s.shard_of(key.as_bytes());
            assert_eq!(a, b);
            assert!(a < 3);
        }
    }

    #[test]
    fn concurrent_disjoint_workers() {
        let s = Arc::new(store(4));
        vclock::reset();
        // Pre-partition keys by shard, then hammer each shard from its own
        // thread — the paper's synchronization-free pattern.
        let mut partitions: Vec<Vec<String>> = vec![Vec::new(); 4];
        for i in 0..400u32 {
            let key = format!("k{i}");
            partitions[s.shard_of(key.as_bytes())].push(key);
        }
        let mut handles = Vec::new();
        for (idx, keys) in partitions.into_iter().enumerate() {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                s.with_shard(idx, |shard| {
                    let mut run = |op| shard.execute(DEFAULT_TENANT, None, op).unwrap();
                    for k in &keys {
                        run(Op::set(k.as_bytes(), b"v"));
                    }
                    for k in &keys {
                        assert!(run(Op::Get(k.as_bytes())).value().is_some());
                    }
                });
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 400);
        vclock::reset();
    }

    #[test]
    fn stats_aggregate() {
        let s = store(2);
        vclock::reset();
        s.set(b"a", b"1").unwrap();
        s.set(b"b", b"2").unwrap();
        let _ = s.get(b"a");
        let _ = s.get(b"missing");
        let stats = s.stats();
        assert_eq!(stats.sets, 2);
        assert_eq!(stats.gets, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        s.reset_stats();
        assert_eq!(s.stats().total_ops(), 0);
        vclock::reset();
    }

    #[test]
    fn snapshot_aggregates_and_is_consistent() {
        let s = store(2);
        vclock::reset();
        for i in 0..50u32 {
            s.set(format!("snap-{i}").as_bytes(), b"v").unwrap();
        }
        for i in 0..50u32 {
            s.get(format!("snap-{i}").as_bytes()).unwrap();
        }
        let _ = s.get(b"absent");
        let _ = s.delete(b"also-absent");
        s.multi_get(&[b"snap-0".as_slice(), b"snap-1"]).unwrap();
        let snap = s.snapshot();
        snap.check_consistent().expect("clean run must be self-consistent");
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.entries, 50);
        assert_eq!(snap.ops.sets, 50);
        assert_eq!(snap.ops.gets, 53);
        assert_eq!(snap.hists.set.count(), 50);
        assert_eq!(snap.hists.get.count(), 51, "batched gets are not sampled per key");
        assert_eq!(snap.hists.delete.count(), 1);
        assert!(snap.hists.batch.count() >= 1);
        assert!(snap.hists.get.p50() > 0, "timed ops take nonzero effective time");
        assert!(snap.heap_live_bytes > 0);
        assert!(snap.sim.ecalls + snap.sim.hotcalls + snap.sim.epc_hits > 0);
        // Clean runs resolve every searching op.
        assert_eq!(snap.ops.hits + snap.ops.misses, snap.ops.gets + snap.ops.deletes);
        vclock::reset();
    }

    #[test]
    fn single_shard_store_works() {
        let s = store(1);
        vclock::reset();
        s.set(b"x", b"y").unwrap();
        assert_eq!(s.get(b"x").unwrap(), b"y");
        assert_eq!(s.delete(b"z"), Err(Error::KeyNotFound));
        vclock::reset();
    }

    #[test]
    fn server_side_ops_route() {
        let s = store(4);
        vclock::reset();
        s.append(b"log", b"a").unwrap();
        s.append(b"log", b"b").unwrap();
        assert_eq!(s.get(b"log").unwrap(), b"ab");
        assert_eq!(s.increment(b"n", 41).unwrap(), 41);
        assert_eq!(s.increment(b"n", 1).unwrap(), 42);
        assert!(s.exists(b"n").unwrap());
        assert!(!s.exists(b"absent").unwrap());
        vclock::reset();
    }

    #[test]
    fn multi_ops_route_across_shards() {
        let s = store(4);
        vclock::reset();
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..100u32)
            .map(|i| (format!("mk-{i}").into_bytes(), format!("mv-{i}").into_bytes()))
            .collect();
        let refs: Vec<(&[u8], &[u8])> =
            items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        s.multi_set(&refs).unwrap();
        assert_eq!(s.len(), 100);

        let mut lookups: Vec<&[u8]> = items.iter().map(|(k, _)| k.as_slice()).collect();
        lookups.push(b"mk-absent");
        let got = s.multi_get(&lookups).unwrap();
        for (i, (_, v)) in items.iter().enumerate() {
            assert_eq!(got[i].as_deref(), Some(v.as_slice()), "key {i}");
        }
        assert_eq!(got[100], None);

        // Each non-empty shard was visited exactly once per batched call.
        let stats = s.stats();
        assert!(stats.batches <= 2 * s.num_shards() as u64);
        assert_eq!(stats.batch_ops, 201);
        vclock::reset();
    }

    #[test]
    fn multi_get_duplicate_keys_in_one_batch() {
        let s = store(2);
        vclock::reset();
        s.set(b"dup", b"v").unwrap();
        let got = s.multi_get(&[b"dup".as_slice(), b"dup", b"missing"]).unwrap();
        assert_eq!(got[0].as_deref(), Some(b"v".as_slice()));
        assert_eq!(got[1].as_deref(), Some(b"v".as_slice()));
        assert_eq!(got[2], None);
        vclock::reset();
    }

    #[test]
    fn wal_recovery_replays_acknowledged_writes() {
        vclock::reset();
        let dir = std::env::temp_dir().join(format!("ss-store-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let enclave = EnclaveBuilder::new("store-wal").seed(21).epc_bytes(8 << 20).build();
        let cfg = Config::shield_opt()
            .buckets(128)
            .mac_hashes(32)
            .with_shards(2)
            .with_durability(crate::DurabilityPolicy::Strict);
        let ffs = Arc::new(FaultFs::new());
        let s = ShieldStore::new_with_storage(enclave.clone(), cfg.clone(), ffs.clone()).unwrap();
        s.attach_wal(&dir).unwrap();
        s.set(b"a", b"1").unwrap();
        s.append(b"a", b"2").unwrap();
        s.increment(b"n", 41).unwrap();
        s.increment(b"n", 1).unwrap();
        s.set(b"gone", b"x").unwrap();
        s.delete(b"gone").unwrap();
        s.multi_set(&[(b"m1".as_slice(), b"v1".as_slice()), (b"m2", b"v2")]).unwrap();
        ffs.crash();
        drop(s);

        let counter = PersistentCounter::open(dir.join("snapctr")).unwrap();
        let r = ShieldStore::recover(enclave, cfg, None, &counter, &dir).unwrap();
        assert_eq!(r.get(b"a").unwrap(), b"12");
        assert_eq!(r.get(b"n").unwrap(), b"42");
        assert_eq!(r.get(b"gone"), Err(Error::KeyNotFound));
        assert_eq!(r.get(b"m1").unwrap(), b"v1");
        assert_eq!(r.get(b"m2").unwrap(), b"v2");
        assert_eq!(r.len(), 4);
        // The recovered store keeps logging.
        r.set(b"post", b"recovery").unwrap();
        let snap = r.snapshot();
        snap.check_consistent().unwrap();
        assert!(snap.wal_records >= 1);
        assert!(snap.wal_bytes > 0);
        assert_eq!(snap.hists.wal_group.count(), snap.wal_records);
        std::fs::remove_dir_all(&dir).unwrap();
        vclock::reset();
    }

    #[test]
    fn wal_rotates_with_snapshot_and_recovers_tail() {
        vclock::reset();
        let dir = std::env::temp_dir().join(format!("ss-store-rot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let snap_path = dir.join("snap.db");
        let counter = PersistentCounter::open(dir.join("snapctr")).unwrap();

        let enclave = EnclaveBuilder::new("store-rot").seed(22).epc_bytes(8 << 20).build();
        let cfg = Config::shield_opt()
            .buckets(128)
            .mac_hashes(32)
            .with_shards(2)
            .with_durability(crate::DurabilityPolicy::Strict);
        let ffs = Arc::new(FaultFs::new());
        let s = ShieldStore::new_with_storage(enclave.clone(), cfg.clone(), ffs.clone()).unwrap();
        s.attach_wal(dir.join("wal")).unwrap();
        for i in 0..20u32 {
            s.set(format!("pre-{i}").as_bytes(), b"v").unwrap();
        }
        s.snapshot_blocking(&snap_path, &counter).unwrap();
        s.set(b"tail-1", b"t1").unwrap();
        s.delete(b"pre-0").unwrap();
        ffs.crash();
        drop(s);

        let r = ShieldStore::recover(enclave, cfg, Some(&snap_path), &counter, dir.join("wal"))
            .unwrap();
        assert_eq!(r.len(), 20); // 20 pre - 1 delete + 1 tail
        assert_eq!(r.get(b"tail-1").unwrap(), b"t1");
        assert_eq!(r.get(b"pre-0"), Err(Error::KeyNotFound));
        assert_eq!(r.get(b"pre-1").unwrap(), b"v");
        std::fs::remove_dir_all(&dir).unwrap();
        vclock::reset();
    }

    #[test]
    fn quarantine_report_names_the_poisoned_partition() {
        let enclave = EnclaveBuilder::new("store-quarantine").epc_bytes(8 << 20).build();
        let s = ShieldStore::new(
            enclave,
            Config::shield_opt().buckets(256).mac_hashes(64).with_shards(2).with_quarantine(),
        )
        .unwrap();
        vclock::reset();
        let keys: Vec<String> = (0..64).map(|i| format!("q{i}")).collect();
        for k in &keys {
            s.set(k.as_bytes(), b"value").unwrap();
        }
        assert!(s.quarantine_report().is_clean());
        assert!(s.tamper_any_entry_byte(7));
        // First sweep surfaces the violation and pins down the poisoned
        // (shard, set) partition.
        let mut victim = None;
        for k in &keys {
            match s.get(k.as_bytes()) {
                Ok(_) => {}
                Err(Error::IntegrityViolation { .. }) => {
                    assert!(victim.is_none());
                    victim = Some(s.key_partition(k.as_bytes()));
                }
                Err(Error::Quarantined { .. }) => {
                    assert_eq!(Some(s.key_partition(k.as_bytes())), victim);
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        let victim = victim.expect("the sweep visits the tampered entry");
        // Second sweep: the quarantined partition fails closed, every
        // other partition — including the other shard — keeps serving.
        for k in &keys {
            let part = s.key_partition(k.as_bytes());
            match s.get(k.as_bytes()) {
                Ok(v) => {
                    assert_ne!(part, victim);
                    assert_eq!(v, b"value");
                }
                Err(Error::Quarantined { .. }) => assert_eq!(part, victim),
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        let report = s.quarantine_report();
        assert!(!report.is_clean());
        assert_eq!(report.quarantined_sets(), 1);
        assert_eq!(report.quarantined_shards(), 0);
        let shard = &report.shards[victim.0];
        assert!(!shard.whole);
        assert_eq!(shard.quarantined_sets, vec![victim.1]);
        assert_eq!(shard.violations, 1);
        assert_eq!(report.shards[1 - victim.0].violations, 0);
        let snap = s.snapshot();
        snap.check_consistent().unwrap();
        assert_eq!(snap.quarantined_sets, 1);
        assert_eq!(snap.quarantined_shards, 0);
        assert!(snap.ops.quarantine_rejections >= 1);
        vclock::reset();
    }

    #[test]
    fn scan_short_circuit_matches_full_merge() {
        let enclave = EnclaveBuilder::new("scan-test").epc_bytes(8 << 20).build();
        let s = ShieldStore::new(
            enclave,
            Config { ordered_index: true, ..Config::shield_opt() }
                .buckets(256)
                .mac_hashes(64)
                .with_shards(4),
        )
        .unwrap();
        vclock::reset();
        for i in 0..200u32 {
            s.set(format!("scan-{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        for limit in [0usize, 1, 7, 50, 200, 500] {
            let ranged = s.scan_range(b"scan-", b"scan-9999", limit).unwrap();
            let prefixed = s.scan_prefix(b"scan-", limit).unwrap();
            let expect: Vec<Vec<u8>> =
                (0..200u32).map(|i| format!("scan-{i:04}").into_bytes()).take(limit).collect();
            assert_eq!(
                ranged.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
                expect,
                "range limit {limit}"
            );
            assert_eq!(ranged, prefixed, "prefix/range agree at limit {limit}");
        }
        vclock::reset();
    }
}
