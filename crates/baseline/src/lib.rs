//! Baseline key-value stores for the ShieldStore reproduction.
//!
//! The paper compares ShieldStore against four systems; all are
//! implemented here on top of the same [`sgx_sim`] substrate:
//!
//! * [`naive::NaiveEnclaveStore`] — the paper's **Baseline**: a chained
//!   hash table placed entirely in enclave memory, so every access beyond
//!   the EPC budget demand-pages (§3.1, Figs. 3, 10-13).
//! * [`naive::NaiveEnclaveStore::insecure`] — the same store without SGX
//!   (the paper's **NoSGX** / *Insecure Baseline*).
//! * [`memcached::MemcachedLike`] — a memcached-flavoured store (slab
//!   classes, striped locks, a maintainer thread that holds locks) run
//!   under a Graphene-style libOS inside the enclave (Table 1, Fig. 13).
//! * [`eleos::EleosStore`] — Eleos-style **user-space paging**: an
//!   in-enclave secure page cache backed by page-granularity encrypted
//!   untrusted memory, with a memsys5-like 2 GB pool limit (Figs. 16-17).
//!
//! The [`KvBackend`] trait gives the benchmark harness one interface over
//! every store, including ShieldStore itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eleos;
pub mod memcached;
pub mod naive;

pub use eleos::EleosStore;
pub use memcached::MemcachedLike;
pub use naive::NaiveEnclaveStore;

pub use shieldstore::{Op, Reply};

/// Why a backend operation failed, at the granularity the wire protocol
/// can express: a serving layer must distinguish a quarantined partition
/// (degraded but deliberate, the client should not retry) from any other
/// failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// The key's hash partition is quarantined after an integrity
    /// violation; other partitions keep serving.
    Quarantined,
    /// The write would exceed the requesting tenant's byte or key
    /// quota; the store was left untouched. Distinct from `Failed` so a
    /// serving layer can tell the tenant to shed load (not retry).
    QuotaExceeded,
    /// The store is a replica serving reads only; the mutation was not
    /// executed. The client should retry against the primary (or wait
    /// for this node's promotion).
    ReadOnly,
    /// Durable storage failed under the store's write-ahead log and the
    /// writer is poisoned: this mutation — and every further one on this
    /// node — fails closed, while reads keep serving. Distinct from
    /// `Failed` so a serving layer can tell clients to fail over rather
    /// than retry.
    StorageFailed,
    /// Any other failure (capacity, integrity violation, malformed
    /// value, …).
    Failed,
}

/// Result alias for [`KvBackend`] methods that can fail.
pub type OpResult<T> = core::result::Result<T, OpError>;

/// A uniform interface over every store under evaluation.
///
/// Methods take `&self`; implementations synchronize internally. A store
/// implements the three primitives — [`get`](KvBackend::get),
/// [`set`](KvBackend::set), [`delete`](KvBackend::delete) — and gets
/// every [`Op`] through the default [`execute`](KvBackend::execute);
/// ShieldStore overrides `execute` alone to add what the primitives
/// cannot express (namespaces, expiry, batching, scans, and *why* an op
/// failed).
pub trait KvBackend: Send + Sync {
    /// Store name for report rows.
    fn name(&self) -> &str;
    /// Reads a key.
    fn get(&self, key: &[u8]) -> Option<Vec<u8>>;
    /// Writes a key. Returns `false` when the store cannot accept the
    /// item (e.g. Eleos exhausting its memory pool), letting harnesses
    /// record capacity limits instead of panicking.
    fn set(&self, key: &[u8], value: &[u8]) -> bool;
    /// Deletes a key; `true` if it existed.
    fn delete(&self, key: &[u8]) -> bool;
    /// Executes `op` under `tenant`'s namespace — what the wire server
    /// and the benchmark harness drive.
    ///
    /// The default serves every op from the three primitives: append and
    /// increment as read-modify-write, batches key by key. The paper's
    /// comparison systems know nothing of namespaces, so every tenant is
    /// served from the one flat table; and what the primitives cannot do
    /// fails closed rather than half-succeed — a nonzero deadline (the
    /// value would be silently immortal) and ordered scans (no index).
    fn execute(&self, _tenant: u32, op: Op<'_>) -> OpResult<Reply> {
        let stored = |ok: bool| ok.then_some(Reply::Stored).ok_or(OpError::Failed);
        match op {
            Op::Get(key) => Ok(Reply::Value(self.get(key))),
            Op::Exists(key) => Ok(Reply::Exists(self.get(key).is_some())),
            Op::Set { key, value, expires_at: 0 } => stored(self.set(key, value)),
            Op::Delete(key) => Ok(Reply::Deleted(self.delete(key))),
            Op::Append { key, suffix } => {
                let mut value = self.get(key).unwrap_or_default();
                value.extend_from_slice(suffix);
                stored(self.set(key, &value)).map(|_| Reply::Appended(value))
            }
            Op::Increment { key, delta } => {
                let current = match self.get(key) {
                    Some(v) => core::str::from_utf8(&v)
                        .ok()
                        .and_then(|text| text.trim().parse::<i64>().ok())
                        .ok_or(OpError::Failed)?,
                    None => 0,
                };
                let next = current.checked_add(delta).ok_or(OpError::Failed)?;
                stored(self.set(key, next.to_string().as_bytes())).map(|_| Reply::Counter(next))
            }
            Op::MultiGet(keys) => Ok(Reply::Values(keys.iter().map(|key| self.get(key)).collect())),
            Op::MultiSet { items, expires_at: 0 } => {
                stored(items.iter().all(|(key, value)| self.set(key, value)))
            }
            Op::Set { .. } | Op::MultiSet { .. } | Op::ScanRange { .. } | Op::ScanPrefix { .. } => {
                Err(OpError::Failed)
            }
        }
    }
    /// Number of live entries.
    fn len(&self) -> usize;
    /// True when empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The index of the hash partition serving `key`, where the store
    /// is partitioned. A networked front-end uses this to run each
    /// request on the event loop aligned with the key's partition
    /// (paper §5.3); `None` (the default) means the store has no stable
    /// partitioning and any loop may execute the request.
    fn shard_hint(&self, _key: &[u8]) -> Option<usize> {
        None
    }
    /// Resets phase-relative simulator timing (the EPC fault channel).
    /// Harnesses call this when they reset per-thread virtual clocks at
    /// the start of a measured run; stores without a simulated enclave
    /// have nothing to do.
    fn reset_timing(&self) {}
    /// Informs the store of the modeled worker concurrency for the
    /// upcoming run. Used by stores whose contention cannot manifest as
    /// real lock waits under the harness's modeled parallelism —
    /// memcached's maintainer-thread interference (Fig. 13) is charged as
    /// virtual time scaled by this count. Default: ignored.
    fn set_concurrency(&self, _workers: usize) {}
    /// A full observability snapshot (counters, latency histograms,
    /// occupancy, SGX transition counters), where the store keeps one.
    /// `None` means the backend is not instrumented; the wire server maps
    /// that to an error status on the `Stats` opcode.
    fn stats_snapshot(&self) -> Option<shieldstore::StatsSnapshot> {
        None
    }
    /// Admission weight for `tenant` (default 1: unweighted fair share).
    fn tenant_weight(&self, _tenant: u32) -> u32 {
        1
    }
    /// Durability barrier: commit everything buffered in the store's
    /// write-ahead log and return the durable `(generation, seq)`
    /// watermark. Every write at or below it survives a crash and is
    /// what a replication subscriber may acknowledge. `Ok(None)` (the
    /// default) means the store has no log: there is nothing to make
    /// durable, so the barrier trivially succeeds.
    fn flush_durable(&self) -> OpResult<Option<(u64, u64)>> {
        Ok(None)
    }

    // --- replication (primary side) ------------------------------------
    //
    // Only stores with a sealed WAL can serve as replication primaries;
    // the defaults fail closed so a baseline store answers `Error` to
    // replication opcodes instead of pretending to stream a log. The
    // byte payloads are the core codecs' (`shieldstore::ReplHello` /
    // `shieldstore::ReplBatch`) encodings — the serving layer relays
    // them opaquely.

    /// Registers a replication subscriber. Returns the encoded
    /// [`shieldstore::ReplHello`] (log keys + start position) to relay
    /// over the attested channel.
    fn repl_subscribe(&self) -> OpResult<Vec<u8>> {
        Err(OpError::Failed)
    }
    /// Ships the next sealed log batch after `(generation, after_seq)`,
    /// bounded by `max_bytes`. Returns the encoded
    /// [`shieldstore::ReplBatch`]; `Err(OpError::Failed)` when the
    /// subscriber's position is invalid or there is nothing to ship yet.
    fn repl_batch(&self, _generation: u64, _after_seq: u64, _max_bytes: u32) -> OpResult<Vec<u8>> {
        Err(OpError::Failed)
    }
    /// Records `subscriber`'s verified-and-applied watermark. Fails
    /// closed when the ack runs ahead of the primary's durable position.
    fn repl_ack(&self, _subscriber: u64, _generation: u64, _seq: u64) -> OpResult<()> {
        Err(OpError::Failed)
    }
    /// Promotes a read-only replica backend to primary, returning the
    /// promoted `(generation, seq)` watermark. Non-replica stores fail
    /// closed.
    fn promote(&self) -> OpResult<(u64, u64)> {
        Err(OpError::Failed)
    }
}

impl KvBackend for shieldstore::ShieldStore {
    fn name(&self) -> &str {
        "ShieldStore"
    }

    // The primitives collapse every failure into `None`/`false` — all a
    // preload loop needs. Callers that must tell a miss from a refusal
    // use `execute`.

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        shieldstore::ShieldStore::get(self, key).ok()
    }

    fn set(&self, key: &[u8], value: &[u8]) -> bool {
        shieldstore::ShieldStore::set(self, key, value).is_ok()
    }

    fn delete(&self, key: &[u8]) -> bool {
        shieldstore::ShieldStore::delete(self, key).is_ok()
    }

    fn execute(&self, tenant: u32, op: Op<'_>) -> OpResult<Reply> {
        shieldstore::ShieldStore::execute(self, tenant, op).map_err(op_error)
    }

    fn len(&self) -> usize {
        shieldstore::ShieldStore::len(self)
    }

    fn shard_hint(&self, key: &[u8]) -> Option<usize> {
        Some(self.shard_of(key))
    }

    fn reset_timing(&self) {
        self.enclave().reset_timing();
    }

    fn stats_snapshot(&self) -> Option<shieldstore::StatsSnapshot> {
        Some(self.snapshot())
    }

    fn tenant_weight(&self, tenant: u32) -> u32 {
        self.tenants().weight(tenant)
    }

    fn flush_durable(&self) -> OpResult<Option<(u64, u64)>> {
        match self.flush_wal() {
            Ok(Some(wm)) => Ok(Some((wm.generation, wm.seq))),
            Ok(None) => Ok(None),
            Err(e) => Err(op_error(e)),
        }
    }

    fn repl_subscribe(&self) -> OpResult<Vec<u8>> {
        shieldstore::ShieldStore::repl_subscribe(self).map(|h| h.encode()).map_err(op_error)
    }

    fn repl_batch(&self, generation: u64, after_seq: u64, max_bytes: u32) -> OpResult<Vec<u8>> {
        shieldstore::ShieldStore::repl_batch(self, generation, after_seq, max_bytes as usize)
            .map(|b| b.encode())
            .map_err(op_error)
    }

    fn repl_ack(&self, subscriber: u64, generation: u64, seq: u64) -> OpResult<()> {
        shieldstore::ShieldStore::repl_ack(
            self,
            subscriber,
            shieldstore::Watermark::new(generation, seq),
        )
        .map_err(op_error)
    }
}

/// Maps a ShieldStore error to the wire-expressible failure class.
fn op_error(e: shieldstore::Error) -> OpError {
    match e {
        shieldstore::Error::Quarantined { .. } => OpError::Quarantined,
        shieldstore::Error::QuotaExceeded { .. } => OpError::QuotaExceeded,
        shieldstore::Error::StorageFailed => OpError::StorageFailed,
        _ => OpError::Failed,
    }
}
