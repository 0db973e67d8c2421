//! Operations on one hash table — search, get, set, delete — as methods
//! of the shard's [`Access`] context, so the main table and the
//! snapshot-time temporary and frozen tables share them and a call names
//! only the table, the key and what differs.

use super::verify::{beside_entry, endorses, set_violation, PendingSet};
use super::{Access, OpCtx, Scratch};
use crate::alloc::NULL_HANDLE;
use crate::config::MAX_ITEM_LEN;
use crate::entry;
use crate::error::{Error, Result};
use crate::mac_bucket;
use crate::stats::OpStats;
use crate::table::{Broken, Link, TableCtx};
use sgx_sim::classes::same_class;
use shield_crypto::fused::Opened;
use std::sync::atomic::Ordering as AtomicOrdering;

/// Charges a quota rejection to the op's tenant and fails the write.
fn quota_reject(op: &OpCtx<'_>, stats: &mut OpStats) -> Error {
    stats.quota_rejections += 1;
    if let Some(st) = op.state {
        st.usage.quota_rejections.fetch_add(1, AtomicOrdering::SeqCst);
    }
    Error::QuotaExceeded { tenant: op.tenant }
}

/// Counts an entry hidden by lazy expiry, for the shard and the tenant.
fn count_expired_lazy(op: &OpCtx<'_>, stats: &mut OpStats) {
    stats.expired_lazy += 1;
    if let Some(st) = op.state {
        st.usage.expired_lazy.fetch_add(1, AtomicOrdering::SeqCst);
    }
}

impl Access {
    /// The bucket of `table` that `key` hashes to.
    pub(super) fn bucket_of(&self, table: &TableCtx, key: &[u8]) -> usize {
        (self.keys.index_hash(key) % table.buckets() as u64) as usize
    }

    /// Hints the loads a verified access to `bucket` opens with, before the
    /// first of them is issued: for every bucket of `bucket`'s set, what the
    /// set-hash gather reads first, and the head of `bucket`'s own chain for
    /// the search. With MAC bucketing the gather reads MAC nodes, and a node
    /// is hinted as far as the table's mean bucket occupancy fills one —
    /// `bucket`'s own to its end, where the entry handles
    /// [`Access::hint_chain`] reads next are; without it the MACs sit in the
    /// chained entries' headers. Left alone, these are one cache miss queued
    /// behind the other — each on a line of its own — and they dominate a
    /// lookup.
    ///
    /// The handles come straight from untrusted memory and are only hinted,
    /// never trusted: see [`crate::alloc::UntrustedHeap::prefetch`].
    pub(super) fn hint_access(&self, table: &TableCtx, bucket: usize) {
        let set_buckets = table.sets.buckets_of(table.sets.set_of(bucket));
        if self.cfg.mac_bucket {
            let filled = table.count.div_ceil(table.buckets());
            for (node, of) in table.mac_heads[set_buckets.clone()].iter().zip(set_buckets) {
                mac_bucket::hint_node(&table.heap, *node, filled, of == bucket);
            }
            table.hint_header(table.heads[bucket]);
        } else {
            for &head in &table.heads[set_buckets] {
                table.hint_header(head);
            }
        }
    }

    /// Hints the header of every entry of `bucket`'s chain at once, from the
    /// handles its MAC nodes list, so the search's walk — which still
    /// follows each `next`, and believes nothing else — meets lines that are
    /// already on their way instead of one miss per hop. It is the first
    /// thing to read a node, so it is called once the nodes
    /// [`Access::hint_access`] hinted have had time to arrive: an op calls
    /// it from [`Access::open`], a batch — whose nodes were all hinted when
    /// it was placed — as each key's turn comes. Without MAC bucketing
    /// there is no list, and the walk waits on itself as before.
    pub(super) fn hint_chain(&self, table: &TableCtx, bucket: usize) {
        if self.cfg.mac_bucket {
            let lim = table.mac_limits();
            mac_bucket::hint_entries(&table.heap, table.mac_heads[bucket], lim);
        }
    }

    /// What a single op on `bucket` opens with: the hints, and the first
    /// half of verifying the bucket's set ([`Access::begin_verify`]) with
    /// the chain hinted in the middle of it — after the stored hash's
    /// enclave read, in which `bucket`'s node arrives, and before the
    /// gather, which then finds that node cached and runs while the chain's
    /// headers are on their way.
    fn open(&mut self, table: &TableCtx, bucket: usize) -> Result<PendingSet> {
        let set = table.sets.set_of(bucket);
        self.hint_access(table, bucket);
        let stored = self.stored_hash(table, set);
        self.hint_chain(table, bucket);
        self.gather_pending(table, set, stored)
    }

    /// Searches `bucket` for `key` *within `op`'s tenant namespace*,
    /// counting decryptions as the paper's Fig. 9 does, and returns the
    /// entry with its ciphertext. First pass honours the key hint and
    /// silently steps over foreign tenants' entries; if nothing matched,
    /// [`Access::scan_bucket`] follows, in which **every** entry — whoever
    /// owns it — is verified against its tag under its owner's derived MAC
    /// key, so content tampering (including a rewritten tenant field or key
    /// ciphertext) cannot masquerade as a clean miss. With the hint on it
    /// is §5.4's two-step fallback and also looks for the key; with it off
    /// the first pass has already decrypted every candidate, so it only
    /// verifies. `Err` is tampering: a chain the walker cannot follow,
    /// length fields that leave the chunk, or a tag the scan refutes.
    fn search<'t>(
        &mut self,
        op: &OpCtx<'_>,
        table: &'t TableCtx,
        bucket: usize,
        hint_byte: u8,
        key: &[u8],
    ) -> std::result::Result<Option<(Link, &'t [u8])>, Broken> {
        // First step: hint-guided, same-tenant entries only.
        for link in table.chain(bucket) {
            let link = link?;
            let Link { handle, header, .. } = link;
            // The walk's next miss is known now; start it before deciding
            // anything about this entry.
            table.hint_header(header.next);
            if header.tenant != op.tenant {
                // Foreign namespace: skip without decrypting anything.
            } else if self.cfg.key_hint && header.hint != hint_byte {
                self.stats.hint_skips += 1;
            } else if header.key_len as usize == key.len() {
                // A candidate: its ciphertext is read next (key compare) and,
                // on a match, in full. An honest entry of this key length is
                // no longer than the largest item; a forged size field gets
                // no more than that hinted.
                table.hint_body(
                    handle,
                    header.sealed_len().min(entry::HEADER_LEN + key.len() + MAX_ITEM_LEN),
                );
                self.stats.key_decryptions += 1;
                let ct = table.try_ciphertext(handle, &header).ok_or(Broken)?;
                if entry::key_matches(&op.tkeys.enc, &header, ct, key, &mut self.scratch.key) {
                    return Ok(Some((link, ct)));
                }
            }
        }

        // Second step: full scan, defending against hint (and tenant-field)
        // corruption, and proving the bucket's tags account for every entry
        // its chain holds.
        if !self.cfg.key_hint {
            return self.scan_bucket(table, bucket, None);
        }
        self.stats.full_scans += 1;
        self.scan_bucket(table, bucket, Some((op, key)))
    }

    /// [`Access::search`], with a search that comes back without an entry
    /// settled on the spot: the set's verdict first (`pending`, if it is
    /// still owed), then the search's own. A found entry leaves `pending`
    /// for the caller to settle beside opening or proving it.
    fn locate<'t>(
        &mut self,
        op: &OpCtx<'_>,
        table: &'t TableCtx,
        bucket: usize,
        hint_byte: u8,
        key: &[u8],
        pending: Option<PendingSet>,
    ) -> Result<Option<(Link, &'t [u8])>> {
        let outcome = self.search(op, table, bucket, hint_byte, key);
        if let Ok(Some(found)) = outcome {
            return Ok(Some(found));
        }
        if let Some(pending) = pending {
            self.finish_verify(table, pending)?;
        }
        if outcome.is_err() {
            return Err(Error::IntegrityViolation { bucket });
        }
        Ok(None)
    }

    /// Looks `key` up in `table` under `op`'s namespace, fully verifying
    /// integrity. Returns the plaintext value and its (authenticated)
    /// expiry deadline, or `None` for a clean miss — including the lazy-
    /// expiry case, where an entry past its deadline is hidden without
    /// mutation (safe against frozen snapshot tables; the sweep removes it).
    pub(super) fn get_in(
        &mut self,
        op: &OpCtx<'_>,
        table: &TableCtx,
        key: &[u8],
    ) -> Result<Option<(Vec<u8>, u64)>> {
        let bucket = self.bucket_of(table, key);
        let pending = self.open(table, bucket)?;
        self.get_in_bucket(op, table, bucket, key, Some(pending))
    }

    /// Lookup within `bucket`, whose set is either already verified
    /// (`pending` is `None` — the batched path, after the set's first key)
    /// or gathered by [`Access::begin_verify`] and still to be settled. A
    /// hit settles it in the pass that opens the entry: the set's CMAC, the
    /// entry's CMAC and the keystream are three chains on one AES unit, so
    /// they cost what the longest does. The entry's computed tag must be
    /// one its bucket endorses ([`Access::endorses`]), read from the same
    /// gather. Anything else settles the set alone. Either way the set's
    /// verdict is reported before any other.
    pub(super) fn get_in_bucket(
        &mut self,
        op: &OpCtx<'_>,
        table: &TableCtx,
        bucket: usize,
        key: &[u8],
        pending: Option<PendingSet>,
    ) -> Result<Option<(Vec<u8>, u64)>> {
        let hint = self.keys.hint_byte(key);
        let Some((found, ct)) = self.locate(op, table, bucket, hint, key, pending)? else {
            return Ok(None);
        };
        let beside = beside_entry(&self.keys, table, &pending, &self.scratch.set)?;
        // Fused verify+decrypt under the tenant's derived keys. The plaintext
        // is staged in the enclave-resident scratch buffer and only released
        // after the set hash has passed and the computed tag is one the
        // bucket endorses, read from the same gather.
        let mut plain = std::mem::take(&mut self.scratch.entry);
        let (scratch, stats) = (&self.scratch, &mut self.stats);
        let opened = entry::open_entry_beside(
            beside,
            &op.tkeys.enc,
            &op.tkeys.mac,
            &found.header,
            ct,
            |computed| endorses(scratch, stats, bucket, found.pos, computed),
            &mut plain,
        );
        let wipe = |mut plain: Vec<u8>, scratch: &mut Scratch| {
            plain.iter_mut().for_each(|b| *b = 0);
            plain.clear();
            scratch.entry = plain;
        };
        match (opened, pending) {
            (Opened::Verified, _) => {}
            (Opened::BesideMismatch, Some(pending)) => {
                self.scratch.entry = plain;
                return Err(set_violation(table, pending.set));
            }
            (Opened::BesideMismatch | Opened::TagMismatch, _) => {
                self.scratch.entry = plain;
                return Err(Error::IntegrityViolation { bucket });
            }
        }
        // Lazy expiry: the fused open just authenticated the header,
        // `expires_at` included, so the deadline can be honoured. The value
        // is wiped and the entry reads as a miss; physical removal is the
        // sweep's job (this path must not mutate — it also serves frozen
        // snapshot tables).
        if found.header.expired_at(op.now) {
            wipe(plain, &mut self.scratch);
            count_expired_lazy(op, &mut self.stats);
            return Ok(None);
        }
        let value = plain.split_off(found.header.key_len as usize);
        self.scratch.entry = plain;
        Ok(Some((value, found.header.expires_at)))
    }

    /// Inserts or updates `key` in `table`. Returns `true` for an insert.
    pub(super) fn set_in(
        &mut self,
        op: &OpCtx<'_>,
        table: &mut TableCtx,
        key: &[u8],
        value: &[u8],
    ) -> Result<bool> {
        let bucket = self.bucket_of(table, key);
        let set = table.sets.set_of(bucket);
        let pending = self.open(table, bucket)?;
        let inserted = self.set_in_bucket(op, table, bucket, key, value, Some(pending))?;
        self.update_set_hash(table, set)?;
        Ok(inserted)
    }

    /// Insert/update within `bucket`, *without* re-storing the set hash.
    /// The bucket's set is either already verified (`pending` is `None` —
    /// the batched path, after the set's first item) or gathered by
    /// [`Access::begin_verify`] and settled here: beside the proof of the
    /// entry an update replaces ([`Access::prove_found`]), alone otherwise,
    /// and always before any other verdict and any mutation. The caller
    /// must call [`Access::update_set_hash`] after the last write to the
    /// set — per-op wrappers do so per call, the batched path once per
    /// touched set per batch.
    ///
    /// An update is sealed into the enclave scratch and copied out only once
    /// every check has passed, so a refused write leaves untrusted memory as
    /// it was.
    ///
    /// Quota enforcement happens here, after the integrity checks and
    /// before any mutation: an insert charges `(entry bytes, 1 key)`, an
    /// update charges only byte *growth* (shrink refunds immediately), and
    /// a rejection leaves both table and accounting untouched.
    pub(super) fn set_in_bucket(
        &mut self,
        op: &OpCtx<'_>,
        table: &mut TableCtx,
        bucket: usize,
        key: &[u8],
        value: &[u8],
        pending: Option<PendingSet>,
    ) -> Result<bool> {
        let hint = self.keys.hint_byte(key);
        let sealed_len = entry::HEADER_LEN + key.len() + value.len();
        let new_len = sealed_len + table.home.suffix_len();

        let Some((found, ct)) = self.locate(op, table, bucket, hint, key, pending)? else {
            if let Some(st) = op.state {
                if !st.usage.try_charge(&st.quota, new_len as u64, 1) {
                    return Err(quota_reject(op, &mut self.stats));
                }
            }
            // Insert at the chain head with a fresh random IV/counter.
            let iv = table.heap.enclave().read_rand_block();
            let fresh = table.heap.alloc(new_len);
            let buf = &mut self.scratch.entry;
            buf.clear();
            buf.resize(sealed_len, 0);
            let mac = entry::encode_into(
                buf,
                table.heads[bucket],
                hint,
                op.tenant,
                op.expires_at,
                &iv,
                key,
                value,
                &op.tkeys.enc,
                &op.tkeys.mac,
            );
            // Listed before it is linked: a directory that cannot take it
            // refuses while the chain is still as it was.
            if self.cfg.mac_bucket {
                let mut dir = table.directory(bucket);
                if dir.insert_front(&mac, fresh).is_err() {
                    table.heap.free(fresh, new_len);
                    if let Some(st) = op.state {
                        st.usage.discharge(new_len as u64, 1);
                    }
                    return Err(Error::IntegrityViolation { bucket });
                }
            }
            table.place(fresh, &self.scratch.entry, &mac);
            self.scratch.insert_tag(bucket, &mac);
            table.heads[bucket] = fresh;
            table.count += 1;
            self.stats.inserts += 1;
            return Ok(true);
        };

        // Update: prove the entry being replaced, then bump the combined
        // IV/counter for the re-encryption. The search only matches
        // same-tenant entries, so the bumped counter stays within one
        // derived keystream, and the proof refuses a stale replay — whose
        // IV+1 is an already-spent counter — before anything is sealed.
        self.prove_found(op, table, bucket, &found, ct, pending)?;
        let mut iv = found.header.iv;
        shield_crypto::ctr::increment_be(&mut iv);
        let sealed = &mut self.scratch.entry;
        sealed.clear();
        sealed.resize(sealed_len, 0);
        let mac = entry::encode_into(
            sealed,
            found.header.next,
            hint,
            op.tenant,
            op.expires_at,
            &iv,
            key,
            value,
            &op.tkeys.enc,
            &op.tkeys.mac,
        );
        let old_len = table.entry_len(&found.header);
        let growth = new_len.saturating_sub(old_len) as u64;
        if let Some(st) = op.state {
            if growth > 0 && !st.usage.try_charge_bytes(&st.quota, growth) {
                return Err(quota_reject(op, &mut self.stats));
            }
        }
        // The MAC node first — the slot is the one `prove_found` has just
        // read, so this cannot fail unless memory moved under the op — and
        // with it the handle the slot lists, which a reallocation changes.
        let inplace = same_class(old_len, new_len);
        let at = if inplace { found.handle } else { table.heap.alloc(new_len) };
        if self.cfg.mac_bucket {
            let mut dir = table.directory(bucket);
            if dir.set_at(found.pos, &mac, at).is_err() {
                if !inplace {
                    table.heap.free(at, new_len);
                }
                if let Some(st) = op.state {
                    st.usage.discharge(growth, 0);
                }
                return Err(Error::IntegrityViolation { bucket });
            }
        }
        // Nothing can refuse the write any more: a shrink is refunded.
        if let Some(st) = op.state {
            st.usage.discharge(old_len.saturating_sub(new_len) as u64, 0);
        }
        table.place(at, &self.scratch.entry, &mac);
        self.scratch.replace_tag(bucket, found.pos, &mac);
        if inplace {
            self.stats.inplace_updates += 1;
        } else {
            // Relink in place of the old entry.
            if found.prev == NULL_HANDLE {
                table.heads[bucket] = at;
            } else {
                table.heap.write_u64_at(found.prev, entry::OFF_NEXT, at);
            }
            table.heap.free(found.handle, old_len);
            self.stats.realloc_updates += 1;
        }
        Ok(false)
    }

    /// Removes `key` from `table` within `op`'s namespace. Returns `true`
    /// if a physical removal happened. The entry is proven against its tag
    /// ([`Access::prove_found`]) before anything else is decided about it.
    ///
    /// With `reap_expired = false` (normal deletes), an entry past its
    /// deadline answers "not present" *without* being removed: the caller's
    /// delete is not WAL-logged as having removed anything, so physical
    /// removal must wait for the sweep (which is logged) — otherwise
    /// recovery replay and the live table would diverge. The deadline it
    /// honours is the proven one: a flipped `expires_at` fails the proof
    /// instead of masquerading as a clean miss.
    ///
    /// With `reap_expired = true` (the sweep, snapshot tombstone replay),
    /// expired entries are removed like any other.
    pub(super) fn delete_in(
        &mut self,
        op: &OpCtx<'_>,
        table: &mut TableCtx,
        key: &[u8],
        reap_expired: bool,
    ) -> Result<bool> {
        let bucket = self.bucket_of(table, key);
        let set = table.sets.set_of(bucket);
        let pending = self.open(table, bucket)?;
        let hint = self.keys.hint_byte(key);
        let Some((found, ct)) = self.locate(op, table, bucket, hint, key, Some(pending))? else {
            return Ok(false);
        };
        self.prove_found(op, table, bucket, &found, ct, Some(pending))?;
        if !reap_expired && found.header.expired_at(op.now) {
            count_expired_lazy(op, &mut self.stats);
            return Ok(false);
        }

        // The MAC node first: it checks its nodes before it writes.
        if self.cfg.mac_bucket {
            table
                .directory(bucket)
                .remove_at(found.pos)
                .map_err(|_| Error::IntegrityViolation { bucket })?;
        }
        self.scratch.remove_tag(bucket, found.pos);
        if found.prev == NULL_HANDLE {
            table.heads[bucket] = found.header.next;
        } else {
            table.heap.write_u64_at(found.prev, entry::OFF_NEXT, found.header.next);
        }
        let len = table.entry_len(&found.header);
        table.heap.free(found.handle, len);
        table.count -= 1;
        if let Some(st) = op.state {
            st.usage.discharge(len as u64, 1);
        }
        self.update_set_hash(table, set)?;
        Ok(true)
    }
}
