//! Whole-table maintenance: the expiry sweep, usage accounting, the index
//! rebuild and the full verification a restore ends with. Each walks every
//! chain through [`TableCtx::chain`], so a forged one fails closed here as
//! it does on the op path.

use super::{OpCtx, Shard};
use crate::entry::{self, TAG_LEN};
use crate::error::{Error, Result};
use crate::ordered::OrderedIndex;
use crate::table::Link;
use crate::tenant::{nskey, TenantId, TenantRegistry};
use std::collections::HashMap;
use std::sync::atomic::Ordering as AtomicOrdering;

impl Shard {
    /// Physically removes entries whose deadline is at or before `now`,
    /// returning the `(tenant, key)` pairs reaped so the store can
    /// WAL-log each removal (recovery must not resurrect them).
    ///
    /// Only entries whose MAC verifies against their tag under their
    /// owner's keys are reaped — a tampered `expires_at` cannot be
    /// laundered into a silent delete; it either fails the guarding
    /// verification here or trips [`Error::IntegrityViolation`] on the next
    /// read — and the reap itself proves the entry again
    /// ([`super::Access::prove_found`]). A bucket whose chain cannot be
    /// walked, or whose tags cannot be read where an expired entry needs
    /// one, is observed as a violation and nothing in it is reaped.
    /// Skipped while a snapshot freeze is active (the frozen table is
    /// immutable; lazy expiry keeps hiding dead entries until the next
    /// sweep).
    pub fn sweep_expired(
        &mut self,
        now: u64,
        registry: &TenantRegistry,
    ) -> Vec<(TenantId, Vec<u8>)> {
        let mut reaped = Vec::new();
        let Some(main) = self.tables.live() else {
            return reaped;
        };
        if self.quarantine.whole {
            return reaped;
        }
        // Pass 1 (read-only): collect authenticated expired candidates.
        let mut candidates: Vec<(TenantId, Vec<u8>)> = Vec::new();
        let (mut forged, mut tags) = (Vec::new(), Vec::new());
        for bucket in 0..main.buckets() {
            // Quarantined sets are out of bounds — membership is checked
            // directly so the sweep does not inflate the
            // `quarantine_rejections` client-op counter.
            if self.quarantine.sets.contains(&main.sets.set_of(bucket)) {
                continue;
            }
            tags.clear();
            let tagged = main.tags(bucket, &mut tags).is_ok();
            let first = candidates.len();
            for link in main.chain(bucket) {
                let Ok(Link { pos, handle, header, .. }) = link else {
                    candidates.truncate(first);
                    forged.push(bucket);
                    break;
                };
                if !header.expired_at(now) {
                    continue;
                }
                if !tagged {
                    // Tags that cannot be read prove no candidate.
                    candidates.truncate(first);
                    forged.push(bucket);
                    break;
                }
                let Some(ct) = main.try_ciphertext(handle, &header) else { continue };
                let owner = self.access.keys.tenant_keys(header.tenant);
                let Some(tag) = tags.get(pos * TAG_LEN..(pos + 1) * TAG_LEN) else { continue };
                if !entry::verify_mac(&owner.mac, &header, ct, tag) {
                    continue;
                }
                candidates.push((header.tenant, entry::decrypt_key(&owner.enc, &header, ct)));
            }
        }
        for bucket in forged {
            let _ = self.observe::<()>(Err(Error::IntegrityViolation { bucket }));
        }
        // Pass 2: reap through the normal verified delete path, so the
        // set hashes and MAC chains are maintained like any other write.
        for (tenant, key) in candidates {
            if self.quarantine.whole {
                break;
            }
            let state = registry.state(tenant);
            let tkeys = self.access.keys.tenant_keys(tenant);
            let op =
                OpCtx { tenant, tkeys: &tkeys, now, expires_at: 0, state: Some(state.as_ref()) };
            let r = self.remove(&op, &key, true);
            if let Ok(true) = self.observe(r) {
                self.access.stats.expired_swept += 1;
                state.usage.expired_swept.fetch_add(1, AtomicOrdering::SeqCst);
                reaped.push((tenant, key));
            }
        }
        reaped
    }

    /// Tallies live per-tenant occupancy — `(bytes, keys)` per tenant —
    /// straight from the table headers. Used by the store to re-baseline
    /// quota accounting after restore/recovery (expired-but-unswept
    /// entries still count: they still occupy untrusted memory). Header
    /// fields are read unauthenticated — this feeds resource accounting,
    /// where tampering only skews the tamperer's own quota; data-path
    /// integrity is enforced at access time. For the same reason a forged
    /// chain is not an error here: its readable prefix counts.
    pub(crate) fn usage_by_tenant(&self) -> HashMap<TenantId, (u64, u64)> {
        let mut out = HashMap::new();
        let readable = self.tables.reads().flat_map(|table| {
            table.entries().filter_map(move |(_, link)| Some((table, link.ok()?)))
        });
        for (table, Link { header, .. }) in readable {
            let slot = out.entry(header.tenant).or_insert((0, 0));
            slot.0 += table.entry_len(&header) as u64;
            slot.1 += 1;
        }
        out
    }

    /// Rebuilds the ordered index from the tables (snapshot restore).
    pub(crate) fn rebuild_index(&mut self) -> Result<()> {
        if !self.access.cfg.ordered_index {
            return Ok(());
        }
        let mut index = OrderedIndex::new();
        for table in self.tables.reads() {
            for (bucket, link) in table.entries() {
                let Ok(Link { handle, header, .. }) = link else {
                    return Err(Error::IntegrityViolation { bucket });
                };
                let Some(ct) = table.try_ciphertext(handle, &header) else {
                    return Err(Error::IntegrityViolation { bucket });
                };
                let tkeys = self.access.keys.tenant_keys(header.tenant);
                let key = entry::decrypt_key(&tkeys.enc, &header, ct);
                index.insert(&nskey(header.tenant, &key));
            }
        }
        self.index = Some(index);
        Ok(())
    }

    /// Verifies every bucket set of every table — used after a snapshot
    /// restore to authenticate the reconstructed table against the sealed
    /// MAC hash array.
    pub fn verify_all_sets(&mut self) -> Result<()> {
        for table in self.tables.reads() {
            for set in 0..table.sets.num_sets() {
                self.access.verify_set(table, set)?;
                // And every entry against its tag in the verified gather,
                // every chain as long as its bucket's tags, so an unlinked
                // entry cannot hide.
                for bucket in table.sets.buckets_of(set) {
                    if self.access.scan_bucket(table, bucket, None).is_err() {
                        return Err(Error::IntegrityViolation { bucket });
                    }
                }
            }
        }
        Ok(())
    }
}
