//! Set-hash and tag verification (paper §4.3, §5.2): what proves that a
//! bucket's untrusted contents are the ones the enclave last endorsed,
//! before and after a table operation touches them.
//!
//! An entry's tag exists once — in its MAC-node slot with MAC bucketing,
//! after its ciphertext without — and [`TableCtx::tags`] is the one
//! reader. The set hash covers every bucket's tags, and each check of an
//! entry compares what its content computes to with its tag: a hit in the
//! pass that opens it ([`Access::get_in_bucket`]), a write or delete before
//! it mutates anything ([`Access::prove_found`]), a miss by scanning the
//! whole bucket ([`Access::scan_bucket`]).

use super::{Access, OpCtx, Scratch, StoreKeys};
use crate::entry::{self, TAG_LEN};
use crate::error::{Error, Result};
use crate::integrity;
use crate::stats::OpStats;
use crate::table::{Broken, Link, TableCtx};
use shield_crypto::constant_time::ct_eq;
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
/// tag check reports.) A free function over the two fields it
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

/// Whether a hit's `computed` tag is one `bucket` endorses (its tags
/// gathered in `scratch`): at the found entry's chain position `pos`, or —
/// after a structural attack elsewhere in the chain (an unlink shifting
/// positions), counted in `side_mac_fallbacks` — at any position of the
/// bucket. Hits prove themselves: a stale version replayed over the entry,
/// or a key rewritten into another's, computes to a tag the bucket does
/// not hold. A free function over the two fields it touches, so the open
/// can ask it while the set's MACs ride beside.
pub(super) fn endorses(
    scratch: &Scratch,
    stats: &mut OpStats,
    bucket: usize,
    pos: usize,
    computed: &[u8; 16],
) -> bool {
    if scratch.tag_at_is(bucket, pos, computed) {
        return true;
    }
    stats.side_mac_fallbacks += 1;
    scratch.tags(bucket).chunks_exact(TAG_LEN).any(|tag| ct_eq(tag, computed))
}

impl Access {
    /// Gathers the tags of every bucket of `set`, in traversal order, into
    /// `Scratch::set` — the bucket-set hash is the CMAC of exactly these
    /// bytes — and records where each bucket's tags start. With MAC bucketing
    /// they are a few contiguous reads of the MAC nodes; without it they
    /// are read after each chained entry's ciphertext. `None` means the
    /// untrusted structure itself is corrupt (unreadable pointer, cycle, a
    /// count or capacity field no honest node holds) — callers surface it
    /// as an integrity violation.
    fn gather_set(&mut self, table: &TableCtx, set: usize) -> Option<()> {
        let buckets = table.sets.buckets_of(set);
        let scratch = &mut self.scratch;
        scratch.set.clear();
        scratch.set_starts.clear();
        scratch.set_first = buckets.start;
        for bucket in buckets {
            scratch.set_starts.push(scratch.set.len());
            if table.tags(bucket, &mut scratch.set).is_err() {
                scratch.set_starts.clear();
                return None;
            }
        }
        scratch.set_starts.push(scratch.set.len());
        self.stats.macs_gathered += (scratch.set.len() / TAG_LEN) as u64;
        Some(())
    }

    /// Fetches `set`'s stored hash, the first step of verifying it. It is
    /// enclave memory and needs none of the untrusted lines a caller has
    /// just hinted, so they land meanwhile.
    fn stored_hash(&mut self, table: &TableCtx, set: usize) -> [u8; 16] {
        self.stats.integrity_verifications += 1;
        table.macs.get(set)
    }

    /// Gathers `set`'s MACs to go with its `stored` hash.
    fn gather_pending(
        &mut self,
        table: &TableCtx,
        set: usize,
        stored: [u8; 16],
    ) -> Result<PendingSet> {
        self.gather_set(table, set).ok_or_else(|| set_violation(table, set))?;
        Ok(PendingSet { set, stored })
    }

    /// The first half of verifying the set of `bucket` against untrusted
    /// state, for an op on `bucket`: fetches the stored hash, hints the
    /// bucket's chain — after the hash's enclave read, in which the
    /// bucket's node arrives, and before the gather, which then finds that
    /// node cached and runs while the chain's headers are on their way —
    /// and gathers the set's MACs. The second half — one CMAC and a
    /// compare — is [`Access::finish_verify`], or rides beside the opening
    /// of an entry ([`Access::get_in_bucket`]).
    pub(super) fn begin_verify(&mut self, table: &TableCtx, bucket: usize) -> Result<PendingSet> {
        let set = table.sets.set_of(bucket);
        let stored = self.stored_hash(table, set);
        self.hint_chain(table, bucket);
        self.gather_pending(table, set, stored)
    }

    /// Settles `pending` on its own, against the MACs gathered for it.
    pub(super) fn finish_verify(&self, table: &TableCtx, pending: PendingSet) -> Result<()> {
        settle(&self.keys, table, pending, &self.scratch.set)
    }

    /// Verifies the bucket-set MAC hash for `set` against untrusted state.
    pub(super) fn verify_set(&mut self, table: &TableCtx, set: usize) -> Result<()> {
        let stored = self.stored_hash(table, set);
        let pending = self.gather_pending(table, set, stored)?;
        self.finish_verify(table, pending)
    }

    /// Stores `set`'s hash after a mutation, computed from the enclave's
    /// copy of the set: the gather that was verified before the write,
    /// patched by each write where it wrote a tag. Nothing is read from
    /// untrusted memory here (`tests/structure.rs` rule 18), so whatever
    /// the host changed in the set since the verify is never endorsed —
    /// the next op that verifies the set fails closed on it. Fails,
    /// leaving the stored hash untouched, when the copy is not `set`'s.
    pub(super) fn update_set_hash(&mut self, table: &mut TableCtx, set: usize) -> Result<()> {
        #[cfg(test)]
        tests::in_write_window(table);
        if !self.scratch.holds(table.sets.buckets_of(set)) {
            return Err(set_violation(table, set));
        }
        table.macs.set(set, &set_hash(&self.keys, &self.scratch.set));
        Ok(())
    }

    /// Proves the entry a write is about to replace or remove, before
    /// anything is mutated: its CMAC — beside the set's, while that is
    /// still owed (`pending`), in one two-lane pass — must equal its tag at
    /// its chain position. The search matched the entry by a key it
    /// *decrypted*, and AES-CTR is malleable: without this, a host that
    /// knows one plaintext key could point a write or delete at another
    /// key's entry. Strictly positional, for the reason
    /// [`Scratch::tag_at_is`] gives: a bucket whose chain and tags have
    /// drifted apart refuses all mutations. The set's verdict comes first.
    pub(super) fn prove_found(
        &mut self,
        op: &OpCtx<'_>,
        table: &TableCtx,
        bucket: usize,
        found: &Link,
        ct: &[u8],
        pending: Option<PendingSet>,
    ) -> Result<()> {
        let beside = beside_entry(&self.keys, table, &pending, &self.scratch.set)?;
        let (computed, set_ok) =
            entry::compute_mac_beside(beside, &op.tkeys.mac, &found.header, ct);
        if let (false, Some(pending)) = (set_ok, pending) {
            return Err(set_violation(table, pending.set));
        }
        if self.scratch.tag_at_is(bucket, found.pos, &computed) {
            Ok(())
        } else {
            Err(Error::IntegrityViolation { bucket })
        }
    }

    /// The miss path's scan of `bucket` — §5.4's full scan, and what a
    /// restored table is checked with. Every chained entry's CMAC, under
    /// its *owner's* derived key, must equal its tag at its chain position,
    /// and the chain must be exactly as long as the bucket's tags: an entry
    /// unlinked, spliced in, reordered or overwritten, and a hint, tenant
    /// field or key ciphertext forged, all fail it (`Err`). With `find`,
    /// the scan also looks for that key in that op's namespace among the
    /// entries it has proven, counting decryptions, and returns its entry
    /// where it meets it.
    pub(super) fn scan_bucket<'t>(
        &mut self,
        table: &'t TableCtx,
        bucket: usize,
        find: Option<(&OpCtx<'_>, &[u8])>,
    ) -> std::result::Result<Option<(Link, &'t [u8])>, Broken> {
        let mut chained = 0;
        for link in table.chain(bucket) {
            let link = link?;
            let Link { pos, handle, header, .. } = link;
            let ct = table.try_ciphertext(handle, &header).ok_or(Broken)?;
            let computed = match find {
                Some((op, _)) if header.tenant == op.tenant => {
                    entry::compute_mac(&op.tkeys.mac, &header, ct)
                }
                // Foreign entry: its owner's derived key decides. A forged
                // tenant id routes here and fails closed (the tag cannot
                // verify under the re-routed key).
                _ => entry::compute_mac(&self.keys.tenant_keys(header.tenant).mac, &header, ct),
            };
            if !self.scratch.tag_at_is(bucket, pos, &computed) {
                return Err(Broken);
            }
            chained = pos + 1;
            if let Some((op, key)) = find {
                if header.tenant == op.tenant && header.key_len as usize == key.len() {
                    self.stats.key_decryptions += 1;
                    if entry::key_matches(&op.tkeys.enc, &header, ct, key, &mut self.scratch.key) {
                        return Ok(Some((link, ct)));
                    }
                }
            }
        }
        if chained * TAG_LEN != self.scratch.tags(bucket).len() {
            return Err(Broken);
        }
        Ok(None)
    }
}

#[cfg(test)]
pub(super) mod tests {
    use crate::table::TableCtx;
    use std::cell::RefCell;

    /// What the host does to untrusted memory inside a write's window:
    /// after the write, before its set hash is re-stored.
    type Attack = Box<dyn FnOnce(&mut TableCtx)>;

    thread_local! {
        static IN_WRITE_WINDOW: RefCell<Option<Attack>> = const { RefCell::new(None) };
    }

    /// Runs `attack` inside this thread's next write window, once.
    pub(in crate::shard) fn attack_next_write(attack: impl FnOnce(&mut TableCtx) + 'static) {
        IN_WRITE_WINDOW.with(|slot| *slot.borrow_mut() = Some(Box::new(attack)));
    }

    pub(super) fn in_write_window(table: &mut TableCtx) {
        if let Some(attack) = IN_WRITE_WINDOW.with(|slot| slot.borrow_mut().take()) {
            attack(table);
        }
    }
}
