//! A shard: one hash-partitioned slice of the store, owned by one worker.
//!
//! ShieldStore avoids cross-thread synchronization by giving each worker
//! thread an exclusive partition of the hash key space (paper §5.3,
//! Fig. 8). A [`Shard`] is that partition: its own hash table, untrusted
//! heap, MAC chains, and in-enclave MAC hash array. All operations take
//! `&mut self` — exclusive ownership is the concurrency model.
//!
//! During a snapshot the shard's main table is frozen behind an `Arc`
//! (read-only, shared with the snapshot writer thread) and writes are
//! absorbed by a temporary table, reproducing Algorithm 1's fork-based
//! copy-on-write behaviour without `fork()`.
//!
//! ## Tenancy
//!
//! Every operation runs in a tenant namespace ([`crate::tenant`]). The
//! untenanted methods are sugar for tenant 0. Entries carry their owner
//! tenant in the (MAC-covered) header and are sealed under the owner's
//! *derived* keys, so a leaked tenant key opens exactly one namespace and
//! a re-stitched tenant field fails verification. Flat byte-keyed side
//! structures — the plaintext cache, the ordered index, snapshot
//! tombstones — are keyed by [`crate::tenant::nskey`] (tenant-prefixed) for *every*
//! tenant including 0, so no namespace can collide into another.
//!
//! The module is laid out along the op path; DESIGN.md § "Inside a shard"
//! has the map.

mod body;
mod burst;
mod maint;
mod state;
mod table_ops;
mod verify;

use crate::alloc::UntrustedHeap;
use crate::cache::EnclaveCache;
use crate::config::{Config, MAX_ITEM_LEN};
use crate::entry::{TagHome, TAG_LEN};
use crate::error::{Error, Result};
use crate::hist::{OpHists, OpTimer};
use crate::integrity::{BucketSets, MacStore};
use crate::op::{Op, Reply};
use crate::ordered::OrderedIndex;
use crate::stats::{OpStats, StatsSnapshot};
use crate::table::TableCtx;
use crate::tenant::{TenantId, TenantKeys, TenantRegistry, TenantState};
use crate::ttl;
use crate::wal::Wal;
use burst::Mode;
use sgx_sim::enclave::Enclave;
use shield_crypto::cmac::Cmac;
use shield_crypto::siphash::SipHash24;
use state::Tables;
use std::collections::HashMap;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::{Arc, Mutex};

/// The store's secret keys. Generated inside the enclave at store creation
/// and never exposed in plaintext outside it (they are sealed into
/// snapshot metadata).
///
/// Entry data keys are *per tenant*, derived on demand from the KDF
/// master (`raw[4]`) and memoized in an in-enclave keyring. The master
/// CMAC key keys the bucket-set hashes only — it is never involved in
/// entry sealing, so no tenant-key compromise can forge set hashes.
pub(crate) struct StoreKeys {
    /// CMAC for bucket-set hashes (master; never derivable by tenants).
    pub mac: Cmac,
    /// Keyed hash for bucket indexing (hides key distribution, §4.2).
    pub index: SipHash24,
    /// Keyed hash for the 1-byte key hint (§5.4).
    pub hint: SipHash24,
    /// Raw key material, kept for sealing. `raw[0]` is the legacy entry
    /// encryption key slot (still sealed for format stability), `raw[4]`
    /// the tenant-KDF master.
    pub raw: [[u8; 16]; 5],
    /// Memoized per-tenant derived keys (enclave-resident).
    tenants: Mutex<HashMap<TenantId, Arc<TenantKeys>>>,
}

impl StoreKeys {
    /// Generates fresh keys from enclave randomness.
    pub fn generate(enclave: &Enclave) -> Self {
        let mut raw = [[0u8; 16]; 5];
        for key in raw.iter_mut() {
            enclave.read_rand(key);
        }
        Self::from_raw(raw)
    }

    /// Reconstructs keys from raw material (snapshot restore).
    pub fn from_raw(raw: [[u8; 16]; 5]) -> Self {
        Self {
            mac: Cmac::new(&raw[1]),
            index: SipHash24::new(&raw[2]),
            hint: SipHash24::new(&raw[3]),
            raw,
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// The derived data keys for `tenant`, deriving and memoizing on
    /// first use. Derivation is deterministic, so the keyring is a pure
    /// cache — it never needs sealing.
    pub fn tenant_keys(&self, tenant: TenantId) -> Arc<TenantKeys> {
        let mut map = self.tenants.lock().expect("tenant keyring poisoned");
        Arc::clone(
            map.entry(tenant).or_insert_with(|| Arc::new(TenantKeys::derive(&self.raw[4], tenant))),
        )
    }

    /// The 64-bit keyed index hash of `key`.
    #[inline]
    pub fn index_hash(&self, key: &[u8]) -> u64 {
        self.index.hash(key)
    }

    /// The 1-byte key hint of `key`.
    #[inline]
    pub fn hint_byte(&self, key: &[u8]) -> u8 {
        (self.hint.hash(key) & 0xff) as u8
    }
}

/// The per-operation tenant context threaded through the table-level
/// operations: who is operating, under which derived keys, at what
/// TTL-clock reading (the store's [`ttl::Floor`], read once per burst),
/// with what deadline for writes, against which quota/usage accounting
/// (`None` = unmetered, e.g. internal merges).
#[derive(Clone, Copy)]
pub(crate) struct OpCtx<'a> {
    pub tenant: TenantId,
    pub tkeys: &'a TenantKeys,
    pub now: u64,
    pub expires_at: u64,
    pub state: Option<&'a TenantState>,
}

/// Refuses an item no entry can hold: an empty or oversize key, or an
/// oversize value.
fn check_item(key: &[u8], value: &[u8]) -> Result<()> {
    let max = MAX_ITEM_LEN;
    if key.len() > max {
        return Err(Error::OversizeItem { len: key.len(), max });
    }
    if value.len() > max {
        return Err(Error::OversizeItem { len: value.len(), max });
    }
    if key.is_empty() {
        return Err(Error::OversizeItem { len: 0, max });
    }
    Ok(())
}

/// Which parts of a shard are quarantined after integrity violations.
///
/// The first violation quarantines the bucket set (§4.3 MAC-hash
/// granule) it was detected in; any further violation — evidence the
/// attack is not confined to one granule — or a violation raised while
/// a snapshot makes bucket attribution ambiguous escalates to the whole
/// shard. Quarantine never clears at runtime: recovery is a restore
/// from sealed snapshot + WAL, which rebuilds and re-verifies the
/// partition from scratch.
#[derive(Debug, Clone, Default)]
pub(crate) struct QuarantineState {
    /// Quarantined bucket-set indices (meaningful while `whole` is off).
    pub sets: std::collections::BTreeSet<usize>,
    /// The entire shard is quarantined.
    pub whole: bool,
    /// Integrity violations observed by this shard.
    pub violations: u64,
}

/// Reusable scratch buffers threaded through the table operations so the
/// steady-state seal/unseal path performs no per-op heap allocation: the
/// buffers grow to the working-set item size once and are reused for
/// every subsequent operation. All of them stage *plaintext or MAC* bytes
/// and live inside the enclave; nothing here is ever handed to untrusted
/// memory.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Entry staging: fused-open plaintext on reads, encode buffer on
    /// realloc/insert writes.
    entry: Vec<u8>,
    /// Candidate-key decryption during chain searches.
    key: Vec<u8>,
    /// The enclave's copy of a bucket set's tags: gathered for the set hash
    /// by [`Access::begin_verify`] — the set CMAC's whole input — and, once
    /// verified, patched by each write where it writes a tag, so the hash a
    /// write re-stores is of what the enclave verified and wrote.
    set: Vec<u8>,
    /// Where each bucket's tags start in `set`, one offset per bucket of
    /// the gathered set and then its end; emptied when a gather fails.
    set_starts: Vec<usize>,
    /// The first bucket of the gathered set.
    set_first: usize,
}

impl Scratch {
    /// The index of `bucket` in `set_starts`, while the gather holds it.
    fn slot(&self, bucket: usize) -> Option<usize> {
        let i = bucket.checked_sub(self.set_first)?;
        (i + 1 < self.set_starts.len()).then_some(i)
    }

    /// `bucket`'s tags, in chain order: a slice of the set gather, and
    /// none when the gather does not hold `bucket` — every check then
    /// fails closed.
    fn tags(&self, bucket: usize) -> &[u8] {
        match self.slot(bucket) {
            Some(i) => &self.set[self.set_starts[i]..self.set_starts[i + 1]],
            None => &[],
        }
    }

    /// Whether the gather is of exactly the buckets `set_buckets`.
    fn holds(&self, set_buckets: std::ops::Range<usize>) -> bool {
        self.set_first == set_buckets.start && self.set_starts.len() == set_buckets.len() + 1
    }

    /// Whether the tag at chain position `pos` among `bucket`'s tags is
    /// `computed`: the positional check every write relies on, since
    /// `set_at`/`remove_at` act on the MAC nodes *by chain position*.
    fn tag_at_is(&self, bucket: usize, pos: usize, computed: &[u8; 16]) -> bool {
        let tags = self.tags(bucket).get(pos * TAG_LEN..(pos + 1) * TAG_LEN);
        tags.is_some_and(|tag| shield_crypto::constant_time::ct_eq(tag, computed))
    }

    /// Patches the copy where a write has just put `tag` at the head of
    /// `bucket`'s chain.
    fn insert_tag(&mut self, bucket: usize, tag: &[u8; 16]) {
        self.splice(bucket, 0, 0, tag);
    }

    /// Patches the copy where a write has just replaced the tag at chain
    /// position `pos` of `bucket`.
    fn replace_tag(&mut self, bucket: usize, pos: usize, tag: &[u8; 16]) {
        self.splice(bucket, pos, TAG_LEN, tag);
    }

    /// Patches the copy where a write has just removed the tag at chain
    /// position `pos` of `bucket`.
    fn remove_tag(&mut self, bucket: usize, pos: usize) {
        self.splice(bucket, pos, TAG_LEN, &[]);
    }

    /// Replaces the `removed` bytes at chain position `pos` of `bucket`
    /// with `with`. A write only edits a position its checks have just
    /// read from this copy, so one outside it is a bug: the copy is then
    /// dropped, which leaves the stored hash unwritten and the set failing
    /// closed.
    fn splice(&mut self, bucket: usize, pos: usize, removed: usize, with: &[u8]) {
        let at = self.slot(bucket).map(|i| (i, self.set_starts[i] + pos * TAG_LEN));
        let Some((i, at)) = at.filter(|&(i, at)| at + removed <= self.set_starts[i + 1]) else {
            debug_assert!(false, "bucket {bucket}, position {pos}: not in the gathered set");
            self.set_starts.clear();
            return;
        };
        self.set.splice(at..at + removed, with.iter().copied());
        for start in &mut self.set_starts[i + 1..] {
            *start = *start + with.len() - removed;
        }
    }
}

/// What a table operation works with besides the table itself, and what
/// never varies within an op: the store's configuration with this shard's
/// share of its buckets and MAC hashes, the keys, the shard's counters,
/// and its scratch buffers. The table-level operations
/// (`table_ops`, `verify`) are methods of this one borrow, so a call names
/// only the table, the key and what differs — and the shard can lend it
/// beside a table, the cache and the index without splitting itself up.
pub(crate) struct Access {
    cfg: Config,
    /// This shard's buckets ([`Config::buckets_per_shard`]).
    buckets: usize,
    /// This shard's MAC hashes ([`Config::mac_hashes_per_shard`]).
    mac_hashes: usize,
    keys: Arc<StoreKeys>,
    /// The store's TTL floor: every deadline this shard judges is judged
    /// against a reading of it.
    clock: Arc<ttl::Floor>,
    pub(crate) stats: OpStats,
    scratch: Scratch,
}

impl Access {
    /// Classifies a search as hit or miss, for the shard and the tenant.
    fn tally_hits(&mut self, state: Option<&TenantState>, hits: u64, misses: u64) {
        self.stats.hits += hits;
        self.stats.misses += misses;
        if let Some(st) = state {
            if hits > 0 {
                st.usage.hits.fetch_add(hits, AtomicOrdering::SeqCst);
            }
            if misses > 0 {
                st.usage.misses.fetch_add(misses, AtomicOrdering::SeqCst);
            }
        }
    }
}

/// One hash partition of the store.
pub struct Shard {
    access: Access,
    enclave: Arc<Enclave>,
    tables: Tables,
    cache: Option<EnclaveCache>,
    index: Option<OrderedIndex>,
    quarantine: QuarantineState,
    /// The derived keys of the tenant served last, parked here between
    /// ops: a repeat tenant takes them back without touching the shared
    /// keyring's mutex or the `Arc`'s shared count.
    last_keys: Option<(TenantId, Arc<TenantKeys>)>,
    /// Likewise the registry state of the tenant metered last, with the
    /// registry epoch it was resolved under.
    last_state: Option<(TenantId, u64, Arc<TenantState>)>,
    /// A grouped run's `(set, bucket, input position)` placements, kept
    /// between runs so a one-op burst allocates nothing.
    order: Vec<(usize, usize, usize)>,
    pub(crate) hists: OpHists,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("buckets", &self.access.buckets)
            .field("len", &self.len())
            .field("snapshotting", &self.is_snapshotting())
            .finish()
    }
}

impl Shard {
    /// Creates an empty shard: one of `cfg.shards`, judging deadlines
    /// against the store's `clock`.
    pub(crate) fn new(
        enclave: Arc<Enclave>,
        keys: Arc<StoreKeys>,
        cfg: Config,
        clock: Arc<ttl::Floor>,
    ) -> Result<Self> {
        let (buckets, mac_hashes) = (cfg.buckets_per_shard(), cfg.mac_hashes_per_shard());
        let heap = UntrustedHeap::new(Arc::clone(&enclave), cfg.alloc);
        let macs = MacStore::in_enclave(Arc::clone(&enclave), mac_hashes)?;
        let main = TableCtx::new(heap, buckets, macs, TagHome::of(cfg.mac_bucket));
        let index = cfg.ordered_index.then(OrderedIndex::new);
        let (stats, scratch) = (OpStats::default(), Scratch::default());
        Ok(Self {
            access: Access { cfg, buckets, mac_hashes, keys, clock, stats, scratch },
            enclave,
            tables: Tables::new(main),
            cache: None,
            index,
            quarantine: QuarantineState::default(),
            last_keys: None,
            last_state: None,
            order: Vec::new(),
            hists: OpHists::default(),
        })
    }

    /// Enables the in-enclave cache with a byte budget.
    pub(crate) fn enable_cache(&mut self, bytes: usize) {
        if bytes > 0 {
            self.cache = Some(EnclaveCache::new(Arc::clone(&self.enclave), bytes));
        }
    }

    /// The bucket `key` maps to in the main-table geometry (stable
    /// across snapshots — the temp table has its own smaller geometry).
    fn bucket_index(&self, key: &[u8]) -> usize {
        (self.access.keys.index_hash(key) % self.access.buckets as u64) as usize
    }

    /// The bucket-set mapping of the main-table geometry, available even
    /// while the main table is frozen out for a snapshot.
    fn sets_map(&self) -> BucketSets {
        BucketSets::new(self.access.buckets, self.access.mac_hashes)
    }

    /// Fails closed with [`Error::Quarantined`] when `op` would touch a
    /// quarantined partition. A rejection never touches untrusted
    /// memory. Any quarantined key rejects a whole batch before any of it
    /// is dispatched; scans have no single key, so they are rejected
    /// whenever any part of this shard is quarantined (the verified read
    /// path would walk arbitrary buckets).
    fn quarantine_guard(&mut self, op: &Op<'_>) -> Result<()> {
        if !self.access.cfg.quarantine
            || (!self.quarantine.whole && self.quarantine.sets.is_empty())
        {
            return Ok(());
        }
        let sets = self.sets_map();
        let quarantined = |key: &[u8]| {
            let bucket = self.bucket_index(key);
            (self.quarantine.whole || self.quarantine.sets.contains(&sets.set_of(bucket)))
                .then_some(bucket)
        };
        let rejected = match (op.routing_key(), *op) {
            (Some(key), _) => quarantined(key),
            (None, Op::MultiGet(keys)) => keys.iter().find_map(|key| quarantined(key)),
            (None, Op::MultiSet { items, .. }) => {
                items.iter().find_map(|(key, _)| quarantined(key))
            }
            // Scans — and any keyless op added later: fail closed.
            (None, _) => Some(
                self.quarantine.sets.iter().next().map_or(0, |&set| sets.buckets_of(set).start),
            ),
        };
        match rejected {
            Some(bucket) => {
                self.access.stats.quarantine_rejections += 1;
                Err(Error::Quarantined { bucket })
            }
            None => Ok(()),
        }
    }

    /// Observes an operation result: an [`Error::IntegrityViolation`]
    /// quarantines the affected bucket set; a repeat violation, or one
    /// raised while a snapshot makes bucket attribution ambiguous,
    /// escalates to the whole shard. No-op unless
    /// [`Config::quarantine`] is enabled.
    fn observe<T>(&mut self, result: Result<T>) -> Result<T> {
        if self.access.cfg.quarantine {
            if let Err(Error::IntegrityViolation { bucket }) = &result {
                self.quarantine.violations += 1;
                if self.quarantine.violations > 1 || self.tables.is_frozen() {
                    self.quarantine.whole = true;
                } else {
                    let bucket = (*bucket).min(self.access.buckets - 1);
                    self.quarantine.sets.insert(self.sets_map().set_of(bucket));
                }
            }
        }
        result
    }

    /// The bucket set `key` maps to (main-table geometry).
    pub(crate) fn set_of_key(&self, key: &[u8]) -> usize {
        self.sets_map().set_of(self.bucket_index(key))
    }

    /// This shard's quarantine state: (whole-shard flag, quarantined
    /// set indices, violations observed).
    pub(crate) fn quarantine_state(&self) -> (bool, Vec<usize>, u64) {
        (
            self.quarantine.whole,
            self.quarantine.sets.iter().copied().collect(),
            self.quarantine.violations,
        )
    }

    // -- the op path ---------------------------------------------------

    /// Executes one operation in `tenant`'s namespace at a fresh reading of
    /// the store's TTL floor: a burst of one ([`Shard::execute_burst`]).
    /// `state` (when given) enforces the tenant's quota and receives its
    /// share of the accounting; `None` runs unmetered (recovery replay,
    /// internal merges).
    pub fn execute(
        &mut self,
        tenant: TenantId,
        state: Option<&TenantState>,
        op: Op<'_>,
    ) -> Result<Reply> {
        let tkeys = self.tenant_keys(tenant);
        let now = self.access.clock.read();
        let ctx = OpCtx { tenant, tkeys: &tkeys, now, expires_at: op.expires_at(), state };
        let mut out = [None];
        self.run_ops(&[(ctx, op)], None, &mut out);
        self.last_keys = Some((tenant, tkeys));
        out[0].take().expect("a burst answers every op")
    }

    /// Executes a burst: each of `ops` in its tenant's namespace, metered
    /// against that tenant's state in `registry`, at the one TTL reading
    /// `now`, with each write checked against and logged to `wal` under
    /// this shard's lock, in the order the writes land. One answer per op
    /// lands in `out`. A burst of one tenant — the common case — resolves
    /// its keys and state once, from the ones parked by the last op while
    /// the tenant repeats and no quota has been reconfigured since.
    pub(crate) fn execute_burst(
        &mut self,
        registry: &TenantRegistry,
        now: u64,
        wal: Option<&Wal>,
        ops: &[(TenantId, Op<'_>)],
        out: &mut [Option<Result<Reply>>],
    ) {
        let Some(&(tenant, _)) = ops.first() else { return };
        if ops.iter().all(|&(t, _)| t == tenant) {
            // Epoch first: a `configure` racing with the lookup then leaves
            // a stale epoch beside a fresh state (re-resolved next time),
            // never the reverse.
            let epoch = registry.epoch();
            let state = match self.last_state.take() {
                Some((last, at, state)) if last == tenant && at == epoch => state,
                _ => registry.state(tenant),
            };
            let tkeys = self.tenant_keys(tenant);
            let ctx = |op: Op<'_>| OpCtx {
                tenant,
                tkeys: &tkeys,
                now,
                expires_at: op.expires_at(),
                state: Some(&state),
            };
            match *ops {
                [(_, op)] => self.run_ops(&[(ctx(op), op)], wal, out),
                _ => {
                    let items: Vec<_> = ops.iter().map(|&(_, op)| (ctx(op), op)).collect();
                    self.run_ops(&items, wal, out);
                }
            }
            self.last_keys = Some((tenant, tkeys));
            self.last_state = Some((tenant, epoch, state));
            return;
        }
        let resolved: Vec<_> = ops
            .iter()
            .map(|&(tenant, _)| (self.access.keys.tenant_keys(tenant), registry.state(tenant)))
            .collect();
        let items: Vec<_> = ops
            .iter()
            .zip(&resolved)
            .map(|(&(tenant, op), (tkeys, state))| {
                let expires_at = op.expires_at();
                (OpCtx { tenant, tkeys, now, expires_at, state: Some(state) }, op)
            })
            .collect();
        self.run_ops(&items, wal, out);
    }

    /// `tenant`'s derived keys: the parked ones while the tenant repeats.
    fn tenant_keys(&mut self, tenant: TenantId) -> Arc<TenantKeys> {
        match self.last_keys.take() {
            Some((last, tkeys)) if last == tenant => tkeys,
            _ => self.access.keys.tenant_keys(tenant),
        }
    }

    /// Runs a burst's ops, each answer into its slot of `out`: each stretch
    /// of reads and writes as one grouped run ([`Shard::grouped`]), any
    /// other op alone, at its turn, between two stretches.
    fn run_ops(
        &mut self,
        items: &[(OpCtx<'_>, Op<'_>)],
        wal: Option<&Wal>,
        out: &mut [Option<Result<Reply>>],
    ) {
        let mut start = 0;
        while start < items.len() {
            let end = start + items[start..].iter().take_while(|(_, op)| burst::groups(op)).count();
            self.grouped(Mode::Burst(wal), &items[start..end], &mut out[start..end]);
            if let Some((ctx, op)) = items.get(end) {
                out[end] = Some(self.station(ctx, *op, wal, |s| s.run(ctx, *op)));
            }
            start = end + 1;
        }
    }

    /// The four stations every op of a burst passes, in this order: the
    /// counters of its class bump (`Shard::count`), the quarantine guard
    /// may refuse it, `body` runs and its result is observed for integrity
    /// violations, and its class histogram (if any) takes one sample. So a
    /// refused or failed op is still counted and sampled exactly once, at
    /// shard and tenant level alike — the identities
    /// [`StatsSnapshot::check_consistent`] checks hold under attack. Around
    /// them, a write the log `wal` can no longer take is refused before it
    /// is counted (it changed nothing), and what a served op changed is
    /// logged.
    fn station(
        &mut self,
        ctx: &OpCtx<'_>,
        op: Op<'_>,
        wal: Option<&Wal>,
        body: impl FnOnce(&mut Self) -> Result<Reply>,
    ) -> Result<Reply> {
        if let (true, Some(wal)) = (op.is_write(), wal) {
            wal.writable()?;
        }
        let timer = OpTimer::start();
        self.count(&op, ctx.state);
        let result = match self.quarantine_guard(&op) {
            Ok(()) => {
                let r = body(self);
                self.observe(r)
            }
            Err(e) => Err(e),
        };
        let elapsed = timer.elapsed_ns();
        match op {
            Op::Get(_) | Op::Exists(_) => self.hists.get.record(elapsed),
            Op::Set { .. } => self.hists.set.record(elapsed),
            Op::Delete(_) => self.hists.delete.record(elapsed),
            Op::MultiGet(_) | Op::MultiSet { .. } => self.hists.batch.record(elapsed),
            Op::Append { .. }
            | Op::Increment { .. }
            | Op::ScanRange { .. }
            | Op::ScanPrefix { .. } => {}
        }
        let reply = result?;
        if let Some(wal) = wal {
            wal.log_op(ctx.tenant, &op, &reply)?;
        }
        Ok(reply)
    }

    /// Bumps the counters of `op`'s class, before anything can refuse
    /// it. Reads (`Get`, `Exists`, each `MultiGet` key) count as `gets`,
    /// writes (`Set`, each `MultiSet` item) as `sets`, for the shard and
    /// the tenant together; a batch also counts itself and its length.
    fn count(&mut self, op: &Op<'_>, state: Option<&TenantState>) {
        let (gets, sets) = match *op {
            Op::Get(_) | Op::Exists(_) => (1, 0),
            Op::Set { .. } => (0, 1),
            Op::MultiGet(keys) => (keys.len() as u64, 0),
            Op::MultiSet { items, .. } => (0, items.len() as u64),
            Op::Delete(_) => {
                self.access.stats.deletes += 1;
                return;
            }
            Op::Append { .. } => {
                self.access.stats.appends += 1;
                return;
            }
            Op::Increment { .. } => {
                self.access.stats.increments += 1;
                return;
            }
            Op::ScanRange { .. } | Op::ScanPrefix { .. } => return,
        };
        if matches!(op, Op::MultiGet(_) | Op::MultiSet { .. }) {
            self.access.stats.batches += 1;
            self.access.stats.batch_ops += gets + sets;
        }
        self.access.stats.gets += gets;
        self.access.stats.sets += sets;
        if let Some(st) = state {
            if gets > 0 {
                st.usage.gets.fetch_add(gets, AtomicOrdering::SeqCst);
            }
            if sets > 0 {
                st.usage.sets.fetch_add(sets, AtomicOrdering::SeqCst);
            }
        }
    }

    /// The number of live entries (over every table). Entries past
    /// their deadline but not yet swept still count.
    pub fn len(&self) -> usize {
        self.tables.reads().map(|table| table.count).sum()
    }

    /// True when the shard holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This shard's operation counters.
    pub fn stats(&self) -> &OpStats {
        &self.access.stats
    }

    /// This shard's latency histograms.
    pub fn hists(&self) -> &OpHists {
        &self.hists
    }

    /// Resets the operation counters and latency histograms.
    pub fn reset_stats(&mut self) {
        self.access.stats = OpStats::default();
        self.hists = OpHists::default();
    }

    /// Folds this shard's counters, histograms, and occupancy gauges into
    /// a store-wide snapshot. Called under the shard lock, so the
    /// contribution is internally consistent.
    pub(crate) fn contribute_snapshot(&self, snap: &mut StatsSnapshot) {
        snap.ops.merge(&self.access.stats);
        snap.hists.merge(&self.hists);
        snap.entries += self.len() as u64;
        for table in self.tables.reads() {
            snap.heap_live_bytes += table.heap.live_bytes() as u64;
            snap.mac_node_bytes += table.mac_node_bytes as u64;
            snap.heap_chunks += table.heap.chunk_count() as u64;
        }
        if let Some(cache) = self.cache.as_ref() {
            snap.cache_used_bytes += cache.used_bytes() as u64;
            snap.cache_entries += cache.len() as u64;
        }
        if self.quarantine.whole {
            snap.quarantined_shards += 1;
        } else {
            snap.quarantined_sets += self.quarantine.sets.len() as u64;
        }
    }

    /// The store's configuration.
    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn config(&self) -> &Config {
        &self.access.cfg
    }

    /// Read access to the main table (diagnostics / persistence).
    pub(crate) fn main_table(&self) -> Option<&TableCtx> {
        self.tables.live()
    }

    /// Every table that holds entries (the testing API's invariants).
    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn tables(&self) -> impl Iterator<Item = &TableCtx> {
        self.tables.reads()
    }

    /// The store's keys (the testing API's invariants).
    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn keys(&self) -> &StoreKeys {
        &self.access.keys
    }

    /// Mutable access to the main table (persistence restore).
    pub(crate) fn main_table_mut(&mut self) -> Option<&mut TableCtx> {
        self.tables.live_mut()
    }

    /// Approximate enclave bytes consumed by the ordered index (0 when
    /// disabled) — check this against the EPC budget before enabling the
    /// index on large key counts.
    pub fn index_bytes(&self) -> usize {
        self.index.as_ref().map(|i| i.approx_bytes()).unwrap_or(0)
    }

    /// Bytes carved from the untrusted heaps of this shard's tables
    /// ([`crate::alloc::UntrustedHeap::carved_bytes`]).
    pub fn heap_carved_bytes(&self) -> usize {
        self.tables.reads().map(|table| table.heap.carved_bytes()).sum()
    }

    /// True when a snapshot is in progress (temp table active).
    pub fn is_snapshotting(&self) -> bool {
        self.tables.is_frozen()
    }
}

#[cfg(test)]
mod tamper_tests;
#[cfg(test)]
mod tests;
