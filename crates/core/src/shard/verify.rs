//! Set-hash and side-array verification (paper §4.3, §5.2): what proves
//! that a bucket's untrusted contents are the ones the enclave last
//! endorsed, before and after a table operation touches them.

use super::{Access, StoreKeys};
use crate::error::{Error, Result};
use crate::integrity;
use crate::mac_bucket;
use crate::table::{Link, TableCtx};
use shield_crypto::fused::Beside;

/// The stored hash for an empty bucket set.
const EMPTY_SET_HASH: [u8; 16] = [0u8; 16];

/// The bucket-set hash of gathered `macs`: their CMAC under the *master*
/// MAC key — entry MACs are per-tenant, but the set hash binds them all
/// under a key no tenant (or tenant-key thief) holds.
fn set_hash(keys: &StoreKeys, macs: &[u8]) -> [u8; 16] {
    if macs.is_empty() {
        EMPTY_SET_HASH
    } else {
        integrity::set_hash(&keys.mac, macs)
    }
}

/// What every verdict on `set`'s hash reports.
pub(super) fn set_violation(table: &TableCtx, set: usize) -> Error {
    Error::IntegrityViolation { bucket: table.sets.buckets_of(set).start }
}

/// A bucket set whose MACs are gathered (in `Scratch::set`) and whose
/// stored hash is fetched, but whose CMAC has yet to run.
#[derive(Clone, Copy)]
pub(super) struct PendingSet {
    pub set: usize,
    stored: [u8; 16],
}

/// `pending` as the message to verify beside the opening or sealing of an
/// entry of its set: the gathered `macs` and the hash they must have. A
/// gather without MACs has no CMAC to run — its hash is a constant — and
/// is settled here. (An entry found in such a set is tampering that the
/// side-array checks report.) A free function over the two fields it
/// reads, so the caller can stage the entry in `Scratch::entry` meanwhile.
pub(super) fn beside_entry<'a>(
    keys: &'a StoreKeys,
    table: &TableCtx,
    pending: &'a Option<PendingSet>,
    macs: &'a [u8],
) -> Result<Option<Beside<'a>>> {
    match pending {
        Some(pending) if macs.is_empty() => settle(keys, table, *pending, macs).map(|()| None),
        Some(pending) => Ok(Some(Beside { mac: &keys.mac, msg: macs, tag: &pending.stored })),
        None => Ok(None),
    }
}

/// Recomputes the set hash from the gathered `macs` and compares.
fn settle(keys: &StoreKeys, table: &TableCtx, pending: PendingSet, macs: &[u8]) -> Result<()> {
    if integrity::verify_set_hash(&pending.stored, &set_hash(keys, macs)) {
        Ok(())
    } else {
        Err(set_violation(table, pending.set))
    }
}

impl Access {
    /// Gathers the entry MACs of every bucket of `set`, in traversal
    /// order, into `Scratch::set` — the bucket-set hash is the CMAC of
    /// exactly these bytes. With MAC bucketing they are a few contiguous
    /// reads of the side arrays; without it they are copied out of the
    /// chained entries' headers. `None` means the untrusted structure
    /// itself is corrupt (unreadable pointer, cycle, a count or capacity
    /// field no honest node holds)
    /// — callers surface it as an integrity violation.
    fn gather_set(&mut self, table: &TableCtx, set: usize) -> Option<()> {
        let lim = table.mac_limits();
        let macs = &mut self.scratch.set;
        macs.clear();
        for bucket in table.sets.buckets_of(set) {
            if self.cfg.mac_bucket {
                mac_bucket::try_gather(&table.heap, table.mac_heads[bucket], macs, lim).ok()?;
            } else {
                for link in table.chain(bucket) {
                    macs.extend_from_slice(&link.ok()?.header.mac);
                }
            }
        }
        self.stats.macs_gathered += (macs.len() / 16) as u64;
        Some(())
    }

    /// Fetches `set`'s stored hash, the first step of verifying it. It is
    /// enclave memory and needs none of the untrusted lines a caller has
    /// just hinted, so they land meanwhile.
    pub(super) fn stored_hash(&mut self, table: &TableCtx, set: usize) -> [u8; 16] {
        self.stats.integrity_verifications += 1;
        table.macs.get(set)
    }

    /// Gathers `set`'s MACs to go with its `stored` hash.
    pub(super) fn gather_pending(
        &mut self,
        table: &TableCtx,
        set: usize,
        stored: [u8; 16],
    ) -> Result<PendingSet> {
        self.gather_set(table, set).ok_or_else(|| set_violation(table, set))?;
        Ok(PendingSet { set, stored })
    }

    /// The first half of verifying `set` against untrusted state: fetches
    /// the stored hash and gathers the set's MACs. The second half — one
    /// CMAC and a compare — is [`Access::finish_verify`], or rides beside
    /// the opening of an entry ([`Access::get_in_bucket`]).
    pub(super) fn begin_verify(&mut self, table: &TableCtx, set: usize) -> Result<PendingSet> {
        let stored = self.stored_hash(table, set);
        self.gather_pending(table, set, stored)
    }

    /// Settles `pending` on its own, against the MACs gathered for it.
    pub(super) fn finish_verify(&self, table: &TableCtx, pending: PendingSet) -> Result<()> {
        settle(&self.keys, table, pending, &self.scratch.set)
    }

    /// Verifies the bucket-set MAC hash for `set` against untrusted state.
    pub(super) fn verify_set(&mut self, table: &TableCtx, set: usize) -> Result<()> {
        let pending = self.begin_verify(table, set)?;
        self.finish_verify(table, pending)
    }

    /// Recomputes and stores the bucket-set hash after a mutation. Fails —
    /// leaving the stored hash untouched, so later verification fails
    /// closed — when the untrusted structure cannot be walked.
    pub(super) fn update_set_hash(&mut self, table: &mut TableCtx, set: usize) -> Result<()> {
        self.gather_set(table, set).ok_or_else(|| set_violation(table, set))?;
        table.macs.set(set, &set_hash(&self.keys, &self.scratch.set));
        Ok(())
    }

    /// Miss-path consistency check for MAC bucketing. The gather reads the
    /// MAC side arrays, so an attacker who unlinks a *data entry* (leaving
    /// the MAC bucket intact) would pass the set-hash check and turn the
    /// key into a silent miss. A *found* key proves its own membership (its
    /// MAC is verified against content and covered by the set hash), so
    /// the chain walk is only paid when a search comes back empty —
    /// keeping the very pointer-chasing MAC bucketing exists to avoid off
    /// the hit path.
    pub(super) fn verify_absence_consistency(
        &mut self,
        table: &TableCtx,
        bucket: usize,
    ) -> Result<()> {
        if !self.cfg.mac_bucket {
            return Ok(());
        }
        let violation = || Error::IntegrityViolation { bucket };
        let side = self.gather_side(table, bucket)?;
        // Element-wise walk: every chained entry's header MAC must sit at
        // its chain position in the side array, and the two must have equal
        // length. This catches unlinking, splicing-in, reordering, and an
        // entry's bytes being overwritten with another (individually valid)
        // entry — all of which would otherwise read as a clean miss here.
        let mut chained = 0usize;
        for link in table.chain(bucket) {
            let Link { pos, header, .. } = link.map_err(|_| violation())?;
            if side.get(pos * 16..(pos + 1) * 16) != Some(header.mac.as_slice()) {
                return Err(violation());
            }
            chained = pos + 1;
        }
        if chained * 16 != side.len() {
            return Err(violation());
        }
        Ok(())
    }

    /// `bucket`'s MAC side array, gathered into `Scratch::side`.
    fn gather_side(&mut self, table: &TableCtx, bucket: usize) -> Result<&[u8]> {
        let side = &mut self.scratch.side;
        side.clear();
        let lim = table.mac_limits();
        mac_bucket::try_gather(&table.heap, table.mac_heads[bucket], side, lim)
            .map_err(|_| Error::IntegrityViolation { bucket })?;
        Ok(side)
    }

    /// Hit-path replay defense for MAC bucketing. With `mac_bucket` on, the
    /// set hash covers the *side array*, not the entry bytes — so replaying
    /// a stale copy of an in-place-updated entry (old ciphertext + its then-
    /// valid MAC, written back over the same allocation) passes both the
    /// entry's own MAC check and the set-hash check. The side array only
    /// ever holds the MACs of the *current* entry versions: requiring the
    /// found entry's header MAC to appear there pins every hit to a live
    /// version. The fast path compares positionally; after a structural
    /// attack elsewhere in the chain (an unlink shifting positions) an
    /// innocent entry falls back to a membership scan and keeps working —
    /// hits prove themselves. Without MAC bucketing the set hash is derived
    /// from the entry chain itself, so a replayed MAC already breaks it and
    /// no extra check is needed.
    pub(super) fn verify_side_mac_read(
        &mut self,
        table: &TableCtx,
        bucket: usize,
        found: &Link,
    ) -> Result<()> {
        if self.verify_side_mac_write(table, bucket, found).is_ok() {
            return Ok(());
        }
        // Positional mismatch: either an attack on this entry (replay) or a
        // structural attack elsewhere in the chain. Membership decides.
        self.stats.side_mac_fallbacks += 1;
        let side = self.gather_side(table, bucket)?;
        if side.chunks_exact(16).any(|m| m == found.header.mac) {
            Ok(())
        } else {
            Err(Error::IntegrityViolation { bucket })
        }
    }

    /// Write-path variant of [`Access::verify_side_mac_read`]: strictly
    /// positional. `set_at`/`remove_at` mutate the side array *by chain
    /// position*, so a write through a desynchronized position would
    /// endorse the wrong slot (and could launder a stale MAC back into the
    /// endorsed set). A bucket whose chain and side array have drifted
    /// apart refuses all mutations.
    pub(super) fn verify_side_mac_write(
        &self,
        table: &TableCtx,
        bucket: usize,
        found: &Link,
    ) -> Result<()> {
        if !self.cfg.mac_bucket {
            return Ok(());
        }
        let lim = table.mac_limits();
        match mac_bucket::try_get_at(&table.heap, table.mac_heads[bucket], found.pos, lim) {
            Some(side) if side == found.header.mac => Ok(()),
            _ => Err(Error::IntegrityViolation { bucket }),
        }
    }
}
