//! Which tables a shard holds, and which of them an operation touches.
//!
//! A shard is in one of two states. *Live*: one table serves everything.
//! *Frozen* (a snapshot is being written, Algorithm 1): the main table is
//! shared read-only with the snapshot writer, a small temporary table
//! absorbs writes, and a delete of a key the frozen table still holds
//! leaves a tombstone. The table that takes writes exists in both states
//! and is the same field; what only the frozen state has lives in
//! [`Phase::Frozen`], so "frozen accompanies temp" is the type's business.
//! Freezing swaps a fresh temporary table into the write slot and
//! unfreezing swaps the merged main table back — neither needs a state in
//! which a table is missing.

use super::{Access, OpCtx, Shard};
use crate::alloc::UntrustedHeap;
use crate::entry::{self, TagHome};
use crate::error::{Error, Result};
use crate::integrity::MacStore;
use crate::table::{Link, TableCtx};
use crate::tenant::{nskey, split_nskey, TenantId};
use std::collections::HashSet;
use std::sync::Arc;

/// A shard's tables.
pub(super) struct Tables {
    /// The table that takes writes: the main table while live, the
    /// temporary table while frozen.
    writer: TableCtx,
    phase: Phase,
}

enum Phase {
    Live,
    Frozen {
        /// The main table, shared with the snapshot writer until it is done.
        main: Arc<TableCtx>,
        /// [`nskey`]s deleted since the freeze that `main` still holds —
        /// deletes during a snapshot are per-namespace.
        tombstones: HashSet<Vec<u8>>,
    },
}

impl Tables {
    pub fn new(main: TableCtx) -> Self {
        Self { writer: main, phase: Phase::Live }
    }

    /// True while a snapshot is in progress.
    pub fn is_frozen(&self) -> bool {
        matches!(self.phase, Phase::Frozen { .. })
    }

    /// The main table, when no snapshot is in progress.
    pub fn live(&self) -> Option<&TableCtx> {
        (!self.is_frozen()).then_some(&self.writer)
    }

    /// Mutable [`Tables::live`].
    pub fn live_mut(&mut self) -> Option<&mut TableCtx> {
        (!self.is_frozen()).then_some(&mut self.writer)
    }

    /// Every table that holds entries, in the order a read consults them:
    /// what was written last shadows what is frozen.
    pub fn reads(&self) -> impl Iterator<Item = &TableCtx> {
        let frozen = match &self.phase {
            Phase::Live => None,
            Phase::Frozen { main, .. } => Some(&**main),
        };
        std::iter::once(&self.writer).chain(frozen)
    }

    /// True when a delete since the freeze hides `key` from every table.
    pub fn tombstoned(&self, tenant: TenantId, key: &[u8]) -> bool {
        match &self.phase {
            Phase::Live => false,
            Phase::Frozen { tombstones, .. } => tombstones.contains(&nskey(tenant, key)),
        }
    }

    /// The table that takes a write of `key`, and whether that is a
    /// snapshot's temporary table — in which case the write also lifts any
    /// tombstone over the key.
    pub fn for_write(&mut self, tenant: TenantId, key: &[u8]) -> (&mut TableCtx, bool) {
        let absorbed = match &mut self.phase {
            Phase::Live => false,
            Phase::Frozen { tombstones, .. } => {
                tombstones.remove(&nskey(tenant, key));
                true
            }
        };
        (&mut self.writer, absorbed)
    }

    /// Removes `key` (namespaced: `ns`) from wherever a read would find it:
    /// physically from the table that takes writes, and by tombstone from
    /// a frozen table that still holds it (a verified search decides).
    pub fn delete(
        &mut self,
        access: &mut Access,
        op: &OpCtx<'_>,
        key: &[u8],
        ns: &[u8],
        reap_expired: bool,
    ) -> Result<bool> {
        match &mut self.phase {
            Phase::Live => access.delete_in(op, &mut self.writer, key, reap_expired),
            Phase::Frozen { main, tombstones } => {
                access.stats.temp_table_ops += 1;
                let in_temp = access.delete_in(op, &mut self.writer, key, reap_expired)?;
                let in_frozen = access.get_in(op, main, key)?.is_some();
                if in_frozen {
                    tombstones.insert(ns.to_vec());
                }
                Ok(in_temp || in_frozen)
            }
        }
    }
}

impl Access {
    /// Replays what a snapshot's temporary table absorbed into `main`:
    /// deletions first, then every write, each opened and verified under
    /// its owner's keys before it is re-sealed into the merged table.
    /// Unmetered — quota accounting is re-baselined by the store afterwards
    /// (via [`Shard::usage_by_tenant`]), so the merge cannot leave usage
    /// drifted. Only `main` is mutated, and by idempotent steps: after an
    /// error the frozen state still answers every read as before, and the
    /// merge can be run again.
    fn merge(
        &mut self,
        main: &mut TableCtx,
        temp: &TableCtx,
        tombstones: &HashSet<Vec<u8>>,
    ) -> Result<()> {
        let now = self.clock.read();
        for ns in tombstones {
            let (tenant, key) = split_nskey(ns);
            let tkeys = self.keys.tenant_keys(tenant);
            let op = OpCtx { tenant, tkeys: &tkeys, now, expires_at: 0, state: None };
            self.delete_in(&op, main, key, true)?;
        }
        let (mut plain, mut tagged) = (Vec::new(), Vec::new());
        for bucket in 0..temp.buckets() {
            tagged.clear();
            let violation = || Error::IntegrityViolation { bucket };
            temp.tagged_chain(bucket, &mut tagged).map_err(|_| violation())?;
            for (Link { handle, header, .. }, tag) in &tagged {
                let tkeys = self.keys.tenant_keys(header.tenant);
                // Fused verify+decrypt of the temp-table entry before it is
                // re-sealed into the merged main table.
                let ct = temp.try_ciphertext(*handle, header).ok_or_else(violation)?;
                if !entry::open_entry(&tkeys.enc, &tkeys.mac, header, ct, tag, &mut plain) {
                    return Err(violation());
                }
                let (key, value) = plain.split_at(header.key_len as usize);
                let op = OpCtx {
                    tenant: header.tenant,
                    tkeys: &tkeys,
                    now,
                    expires_at: header.expires_at,
                    state: None,
                };
                self.set_in(&op, main, key, value)?;
            }
        }
        Ok(())
    }
}

impl Shard {
    /// Freezes the main table for a snapshot: the returned `Arc` is handed
    /// to the snapshot writer; subsequent writes go to a fresh temporary
    /// table (Algorithm 1).
    pub(crate) fn freeze(&mut self) -> Arc<TableCtx> {
        assert!(!self.tables.is_frozen(), "snapshot already in progress");
        // The temporary table is small: writes during a snapshot window are
        // bounded, and it is merged away afterwards.
        let temp_buckets = (self.access.buckets / 16).max(64);
        let heap = UntrustedHeap::new(Arc::clone(&self.enclave), self.access.cfg.alloc);
        let home = TagHome::of(self.access.cfg.mac_bucket);
        let temp = TableCtx::new(heap, temp_buckets, MacStore::plain(temp_buckets), home);
        let main = Arc::new(std::mem::replace(&mut self.tables.writer, temp));
        self.tables.phase = Phase::Frozen { main: Arc::clone(&main), tombstones: HashSet::new() };
        main
    }

    /// Unfreezes after the snapshot writer has dropped its `Arc`, merging
    /// the temporary table back into the main one. On any error — the
    /// writer still holds the table, or the merge met tampering — the
    /// shard stays frozen and keeps serving as it did.
    pub(crate) fn unfreeze(&mut self) -> Result<()> {
        let tables = &mut self.tables;
        let Phase::Frozen { main, tombstones } = std::mem::replace(&mut tables.phase, Phase::Live)
        else {
            return Err(Error::Persistence("unfreeze without a freeze".into()));
        };
        // Whatever fails below, the shard goes back to the state it was in.
        let (main, error) = match Arc::try_unwrap(main) {
            Err(main) => {
                (main, Error::Persistence("snapshot writer still holds the frozen table".into()))
            }
            Ok(mut main) => match self.access.merge(&mut main, &tables.writer, &tombstones) {
                Ok(()) => {
                    tables.writer = main;
                    return Ok(());
                }
                Err(e) => (Arc::new(main), e),
            },
        };
        tables.phase = Phase::Frozen { main, tombstones };
        Err(error)
    }
}
