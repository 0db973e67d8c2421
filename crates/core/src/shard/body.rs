//! The op bodies: what each [`Op`] does once [`Shard::execute`] has
//! counted and admitted it. A body consults the in-enclave cache, routes
//! to the tables the shard's state names ([`super::state`]), runs the
//! table operation, and keeps the cache and the ordered index in step.

use super::burst::Mode;
use super::{check_item, OpCtx, Shard};
use crate::cache::EnclaveCache;
use crate::error::{Error, Result};
use crate::op::{Op, Reply};
use crate::ordered::OrderedIndex;
use crate::stats::OpStats;
use crate::tenant::{nskey, split_nskey, TenantId};

/// The cached value of `key`, counting the probe. Only deadline-free
/// entries are ever cached.
pub(super) fn probe_cache(
    cache: &mut Option<EnclaveCache>,
    stats: &mut OpStats,
    tenant: TenantId,
    key: &[u8],
) -> Option<Vec<u8>> {
    let hit = cache.as_mut()?.get(&nskey(tenant, key));
    match hit {
        Some(_) => stats.cache_hits += 1,
        None => stats.cache_misses += 1,
    }
    hit
}

/// Makes `value` resident after a verified read — unless it carries a
/// deadline: the cache has no deadline awareness, so a cached TTL'd value
/// would keep serving after expiry.
pub(super) fn warm(
    cache: &mut Option<EnclaveCache>,
    op: &OpCtx<'_>,
    key: &[u8],
    value: &[u8],
    expires: u64,
) {
    if let (Some(cache), 0) = (cache, expires) {
        cache.put(&nskey(op.tenant, key), value);
    }
}

/// What a completed write leaves in the enclave-side structures: the new
/// value resident (or, with a deadline, nothing of the key — see [`warm`])
/// and the key indexed.
pub(super) fn note_write(
    cache: &mut Option<EnclaveCache>,
    index: &mut Option<OrderedIndex>,
    op: &OpCtx<'_>,
    key: &[u8],
    value: &[u8],
) {
    if let Some(cache) = cache {
        let ns = nskey(op.tenant, key);
        if op.expires_at == 0 {
            cache.put(&ns, value);
        } else {
            cache.remove(&ns);
        }
    }
    if let Some(index) = index {
        index.insert(&nskey(op.tenant, key));
    }
}

impl Shard {
    /// The op bodies: what each variant does once counted and admitted.
    pub(super) fn run(&mut self, ctx: &OpCtx<'_>, op: Op<'_>) -> Result<Reply> {
        match op {
            Op::Get(key) => self.read(ctx, key).map(Reply::Value),
            Op::Exists(key) => self.read(ctx, key).map(|v| Reply::Exists(v.is_some())),
            Op::Set { key, value, .. } => self.apply_write(ctx, key, value).map(|()| Reply::Stored),
            Op::Delete(key) => {
                let removed = self.remove(ctx, key, false)?;
                self.access.tally_hits(ctx.state, removed as u64, !removed as u64);
                Ok(Reply::Deleted(removed))
            }
            Op::Append { key, suffix } => {
                let mut value = self.lookup(ctx, key)?.unwrap_or_default();
                value.extend_from_slice(suffix);
                self.apply_write(ctx, key, &value)?;
                Ok(Reply::Appended(value))
            }
            Op::Increment { key, delta } => {
                let current = match self.lookup(ctx, key)? {
                    Some(v) => {
                        let text = core::str::from_utf8(&v).map_err(|_| Error::ValueNotNumeric)?;
                        text.trim().parse::<i64>().map_err(|_| Error::ValueNotNumeric)?
                    }
                    None => 0,
                };
                let next = current.checked_add(delta).ok_or(Error::NumericOverflow)?;
                self.apply_write(ctx, key, next.to_string().as_bytes())?;
                Ok(Reply::Counter(next))
            }
            Op::MultiGet(keys) => self.read_batch(ctx, keys).map(Reply::Values),
            Op::MultiSet { items, .. } => self.write_batch(ctx, items).map(|()| Reply::Stored),
            // The index stores namespaced keys, so a scan window is
            // confined to the tenant by construction — it cannot leak
            // even the *existence* of another tenant's keys.
            Op::ScanRange { start, end, limit } => {
                let nskeys = self.index.as_ref().ok_or(Error::IndexDisabled)?.range(
                    &nskey(ctx.tenant, start),
                    &nskey(ctx.tenant, end),
                    limit,
                );
                self.collect_keys(ctx, nskeys).map(Reply::Entries)
            }
            Op::ScanPrefix { prefix, limit } => {
                let nskeys = self
                    .index
                    .as_ref()
                    .ok_or(Error::IndexDisabled)?
                    .prefix(&nskey(ctx.tenant, prefix), limit);
                self.collect_keys(ctx, nskeys).map(Reply::Entries)
            }
        }
    }

    /// Internal verified lookup across the shard's tables, without
    /// touching the per-op counters (callers classify the op).
    fn lookup(&mut self, op: &OpCtx<'_>, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.lookup_traced(op, key)?.map(|(v, _, _)| v))
    }

    /// Like [`Shard::lookup`], also reporting the entry's expiry deadline
    /// and whether the value was served from the in-enclave cache (so
    /// callers neither re-insert cache hits — a redundant metered enclave
    /// write per hit — nor cache TTL'd values, which the cache cannot
    /// expire).
    fn lookup_traced(
        &mut self,
        op: &OpCtx<'_>,
        key: &[u8],
    ) -> Result<Option<(Vec<u8>, u64, bool)>> {
        if let Some(v) = probe_cache(&mut self.cache, &mut self.access.stats, op.tenant, key) {
            return Ok(Some((v, 0, true)));
        }
        if self.tables.tombstoned(op.tenant, key) {
            return Ok(None);
        }
        for table in self.tables.reads() {
            if let Some((v, exp)) = self.access.get_in(op, table, key)? {
                return Ok(Some((v, exp, false)));
            }
        }
        Ok(None)
    }

    /// Internal verified write to the table the shard's state names.
    fn apply_write(&mut self, op: &OpCtx<'_>, key: &[u8], value: &[u8]) -> Result<()> {
        check_item(key, value)?;
        let (table, absorbed) = self.tables.for_write(op.tenant, key);
        self.access.stats.temp_table_ops += absorbed as u64;
        self.access.set_in(op, table, key, value)?;
        note_write(&mut self.cache, &mut self.index, op, key, value);
        Ok(())
    }

    /// Verified read of one key: resolves hit or miss and warms the
    /// cache.
    fn read(&mut self, ctx: &OpCtx<'_>, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let found = self.lookup_traced(ctx, key)?;
        self.access.tally_hits(ctx.state, found.is_some() as u64, found.is_none() as u64);
        Ok(found.map(|(v, expires_at, from_cache)| {
            // A cache hit is already resident.
            if !from_cache {
                warm(&mut self.cache, ctx, key, &v, expires_at);
            }
            v
        }))
    }

    /// Batched lookup: the keys as one grouped run ([`Shard::grouped`]), so
    /// each touched bucket-set hash is derived once per batch instead of
    /// once per key (the flattened-Merkle check of paper §4.3/§5.2 is the
    /// dominant per-op cost this amortizes).
    ///
    /// Results come back in input order; a clean miss is `None`, so one
    /// absent key does not fail the batch. Any integrity violation
    /// aborts the whole batch fail-closed.
    fn read_batch(&mut self, ctx: &OpCtx<'_>, keys: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        let items: Vec<_> = keys.iter().map(|&key| (*ctx, Op::Get(key))).collect();
        let mut out: Vec<_> = items.iter().map(|_| None).collect();
        self.grouped(Mode::Batch, &items, &mut out);
        out.into_iter().flatten().map(|r| r.map(Reply::value)).collect()
    }

    /// Batched write: the items as one grouped run, so each touched
    /// bucket-set hash is verified once before the set's first write and
    /// re-stored once after its last, instead of both per key.
    ///
    /// Items are validated up front, so a malformed item rejects the
    /// batch before any mutation. Writes to the same key replay in
    /// submission order (last write wins). An integrity violation
    /// mid-batch aborts fail-closed; a quota rejection aborts with
    /// earlier items of the batch already applied (and their sets'
    /// hashes re-stored).
    fn write_batch(&mut self, ctx: &OpCtx<'_>, items: &[(&[u8], &[u8])]) -> Result<()> {
        for (key, value) in items {
            check_item(key, value)?;
        }
        let expires_at = ctx.expires_at;
        let sets: Vec<_> =
            items.iter().map(|&(key, value)| (*ctx, Op::Set { key, value, expires_at })).collect();
        let mut out: Vec<_> = sets.iter().map(|_| None).collect();
        self.grouped(Mode::Batch, &sets, &mut out);
        out.into_iter().flatten().try_for_each(|r| r.map(drop))
    }

    /// Removes `key`; `false` when absent. With `reap_expired` off (a
    /// client delete) an entry already past its deadline also answers
    /// `false` and stays: physical removal is left to the sweep, which
    /// WAL-logs it — an unlogged removal here would diverge from
    /// recovery replay.
    pub(super) fn remove(
        &mut self,
        op: &OpCtx<'_>,
        key: &[u8],
        reap_expired: bool,
    ) -> Result<bool> {
        let ns = nskey(op.tenant, key);
        if let Some(cache) = self.cache.as_mut() {
            cache.remove(&ns);
        }
        let removed = self.tables.delete(&mut self.access, op, key, &ns, reap_expired)?;
        if removed {
            if let Some(index) = self.index.as_mut() {
                index.remove(&ns);
            }
        }
        Ok(removed)
    }

    /// Recovery replay of a logged delete: removes `key` regardless of
    /// expiry state (the logged delete may itself be a sweep reap), with
    /// no stats or quota accounting — usage is recounted after replay.
    pub(crate) fn purge(&mut self, tenant: TenantId, key: &[u8]) -> Result<bool> {
        self.quarantine_guard(&Op::Delete(key))?;
        let tkeys = self.access.keys.tenant_keys(tenant);
        let now = self.access.clock.read();
        let op = OpCtx { tenant, tkeys: &tkeys, now, expires_at: 0, state: None };
        self.remove(&op, key, true)
    }

    /// Fetches each indexed key through the fully verified read path.
    fn collect_keys(
        &mut self,
        op: &OpCtx<'_>,
        nskeys: Vec<Vec<u8>>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::with_capacity(nskeys.len());
        for ns in &nskeys {
            let (_, key) = split_nskey(ns);
            // The index can briefly lead the table during a snapshot
            // merge, and expired entries linger until swept; skip
            // keys that verified-miss rather than failing.
            if let Some(value) = self.lookup(op, key)? {
                out.push((key.to_vec(), value));
            }
        }
        Ok(out)
    }
}
