//! The op bodies: what each [`Op`] does once [`Shard::execute`] has
//! counted and admitted it. A body consults the in-enclave cache, routes
//! to the tables the shard's state names ([`super::state`]), runs the
//! table operation, and keeps the cache and the ordered index in step.

use super::{Access, OpCtx, Shard};
use crate::cache::EnclaveCache;
use crate::error::{Error, Result};
use crate::op::{Op, Reply};
use crate::ordered::OrderedIndex;
use crate::stats::OpStats;
use crate::table::TableCtx;
use crate::tenant::{nskey, split_nskey, TenantId};
use crate::ttl;

/// The cached value of `key`, counting the probe. Only deadline-free
/// entries are ever cached.
fn probe_cache(
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
fn warm(cache: &mut Option<EnclaveCache>, op: &OpCtx<'_>, key: &[u8], value: &[u8], expires: u64) {
    if let (Some(cache), 0) = (cache, expires) {
        cache.put(&nskey(op.tenant, key), value);
    }
}

/// What a completed write leaves in the enclave-side structures: the new
/// value resident (or, with a deadline, nothing of the key — see [`warm`])
/// and the key indexed.
fn note_write(
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

impl Access {
    /// Places a batch's keys in `main`: `(set, bucket, input position)`,
    /// sorted — grouped by bucket set so each set hash is derived exactly
    /// once, while duplicate keys (same bucket) keep their submission
    /// order. Placing a key also hints its set and chain, so the whole
    /// batch's first misses are in flight before the first key is
    /// verified.
    fn place<'k>(
        &self,
        main: &TableCtx,
        keys: impl Iterator<Item = (usize, &'k [u8])>,
    ) -> Vec<(usize, usize, usize)> {
        let mut order: Vec<_> = keys
            .map(|(i, key)| {
                let bucket = self.bucket_of(main, key);
                self.hint_access(main, bucket);
                (main.sets.set_of(bucket), bucket, i)
            })
            .collect();
        order.sort_unstable();
        order
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
                self.tally_hits(ctx.state, removed as u64, !removed as u64);
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
        self.check_item(key, value)?;
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
        self.tally_hits(ctx.state, found.is_some() as u64, found.is_none() as u64);
        Ok(found.map(|(v, expires_at, from_cache)| {
            // A cache hit is already resident.
            if !from_cache {
                warm(&mut self.cache, ctx, key, &v, expires_at);
            }
            v
        }))
    }

    /// Batched lookup: re-derives each touched bucket-set hash once per
    /// batch instead of once per key (the flattened-Merkle check of
    /// paper §4.3/§5.2 is the dominant per-op cost this amortizes).
    ///
    /// Results come back in input order; a clean miss is `None`, so one
    /// absent key does not fail the batch. Any integrity violation
    /// aborts the whole batch fail-closed.
    fn read_batch(&mut self, op: &OpCtx<'_>, batch: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        let Some(main) = self.tables.live() else {
            // Snapshot in progress: lookups span the temp and frozen
            // tables, whose bucket sets do not line up — per-op path.
            return batch.iter().map(|key| self.read(op, key)).collect();
        };
        let access = &mut self.access;

        let mut results: Vec<Option<Vec<u8>>> = vec![None; batch.len()];
        // Cache pass first: resident values need no untrusted access.
        let mut pending = Vec::with_capacity(batch.len());
        for (i, key) in batch.iter().enumerate() {
            match probe_cache(&mut self.cache, &mut access.stats, op.tenant, key) {
                Some(v) => results[i] = Some(v),
                None => pending.push(i),
            }
        }

        let order = access.place(main, pending.into_iter().map(|i| (i, batch[i])));

        let mut verified: Option<usize> = None;
        for (set, bucket, i) in order {
            access.hint_chain(main, bucket);
            // A set is verified with its first key, beside that key's
            // entry when it hits.
            let pending = if verified == Some(set) {
                access.stats.batch_verifications_saved += 1;
                None
            } else {
                verified = Some(set);
                Some(access.begin_verify(main, set)?)
            };
            if let Some((v, exp)) = access.get_in_bucket(op, main, bucket, batch[i], pending)? {
                warm(&mut self.cache, op, batch[i], &v, exp);
                results[i] = Some(v);
            }
        }
        let hits = results.iter().filter(|r| r.is_some()).count() as u64;
        self.tally_hits(op.state, hits, results.len() as u64 - hits);
        Ok(results)
    }

    /// Batched write: verifies each touched bucket-set hash once before
    /// the set's first write and re-stores it once after the set's last
    /// write, instead of doing both per key.
    ///
    /// Items are validated up front, so a malformed item rejects the
    /// batch before any mutation. Writes to the same key replay in
    /// submission order (last write wins). An integrity violation
    /// mid-batch aborts fail-closed; a quota rejection aborts with
    /// earlier items of the batch already applied.
    fn write_batch(&mut self, op: &OpCtx<'_>, items: &[(&[u8], &[u8])]) -> Result<()> {
        for (key, value) in items {
            self.check_item(key, value)?;
        }
        let Some(main) = self.tables.live_mut() else {
            // Snapshot in progress: writes land in the small temp table,
            // where batching the set-hash work is not worth the
            // bookkeeping — the temp table is merged away shortly.
            return items.iter().try_for_each(|(key, value)| self.apply_write(op, key, value));
        };
        let access = &mut self.access;

        let order = access.place(main, items.iter().enumerate().map(|(i, (key, _))| (i, *key)));

        let mut current: Option<usize> = None;
        for (set, bucket, i) in order {
            access.hint_chain(main, bucket);
            let pending = if current == Some(set) {
                access.stats.batch_verifications_saved += 1;
                access.stats.batch_hash_updates_saved += 1;
                None
            } else {
                if let Some(prev) = current {
                    access.update_set_hash(main, prev)?;
                }
                current = Some(set);
                Some(access.begin_verify(main, set)?)
            };
            let (key, value) = items[i];
            access.set_in_bucket(op, main, bucket, key, value, pending).map_err(|e| {
                // The set hash for the current group must be re-stored
                // even on a quota rejection mid-batch: earlier items in
                // this set already mutated their buckets.
                if matches!(e, Error::QuotaExceeded { .. }) {
                    let _ = access.update_set_hash(main, set);
                }
                e
            })?;
            note_write(&mut self.cache, &mut self.index, op, key, value);
        }
        if let Some(prev) = current {
            access.update_set_hash(main, prev)?;
        }
        Ok(())
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
        let op = OpCtx { tenant, tkeys: &tkeys, now: ttl::now_ns(), expires_at: 0, state: None };
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
