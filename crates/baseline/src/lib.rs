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

pub use shieldstore::{Control, Controlled, Op, Refusal, Reply};

/// A uniform interface over every store under evaluation.
///
/// Methods take `&self`; implementations synchronize internally. A store
/// implements the three primitives — [`get`](KvBackend::get),
/// [`set`](KvBackend::set), [`delete`](KvBackend::delete) — and gets
/// every [`Op`] through the default [`execute`](KvBackend::execute);
/// ShieldStore overrides `execute` to add what the primitives cannot
/// express (namespaces, expiry, batching, scans, and *why* an op was
/// refused), and [`control`](KvBackend::control) to serve what a serving
/// layer asks besides ops (stats, durability, replication).
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
    fn execute(&self, _tenant: u32, op: Op<'_>) -> Result<Reply, Refusal> {
        let stored = |ok: bool| ok.then_some(Reply::Stored).ok_or(Refusal::Failed);
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
                        .ok_or(Refusal::Failed)?,
                    None => 0,
                };
                let next = current.checked_add(delta).ok_or(Refusal::Failed)?;
                stored(self.set(key, next.to_string().as_bytes())).map(|_| Reply::Counter(next))
            }
            Op::MultiGet(keys) => Ok(Reply::Values(keys.iter().map(|key| self.get(key)).collect())),
            Op::MultiSet { items, expires_at: 0 } => {
                stored(items.iter().all(|(key, value)| self.set(key, value)))
            }
            Op::Set { .. } | Op::MultiSet { .. } | Op::ScanRange { .. } | Op::ScanPrefix { .. } => {
                Err(Refusal::Failed)
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
    /// Admission weight for `tenant` (default 1: unweighted fair share).
    fn tenant_weight(&self, _tenant: u32) -> u32 {
        1
    }
    /// Answers a control request: the observability snapshot, the
    /// durability barrier, the replication stream, promotion. The default
    /// is a store with no counters and no log: its flush barrier
    /// trivially succeeds (there is nothing to make durable) and the rest
    /// is refused, so a baseline never pretends to stream a log.
    fn control(&self, control: Control) -> Result<Controlled, Refusal> {
        match control {
            Control::Flush => Ok(Controlled::Watermark(None)),
            _ => Err(Refusal::Failed),
        }
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

    fn execute(&self, tenant: u32, op: Op<'_>) -> Result<Reply, Refusal> {
        shieldstore::ShieldStore::execute(self, tenant, op).map_err(|e| Refusal::from(&e))
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

    fn tenant_weight(&self, tenant: u32) -> u32 {
        self.tenants().weight(tenant)
    }

    fn control(&self, control: Control) -> Result<Controlled, Refusal> {
        shieldstore::ShieldStore::control(self, control)
    }
}
