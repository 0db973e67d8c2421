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
//! tombstones — are keyed by [`nskey`] (tenant-prefixed) for *every*
//! tenant including 0, so no namespace can collide into another.

use crate::alloc::{Handle, UntrustedHeap, NULL_HANDLE};
use crate::cache::EnclaveCache;
use crate::config::{AllocMode, Config};
use crate::entry::{self, EntryHeader};
use crate::error::{Error, Result};
use crate::hist::{OpHists, OpTimer};
use crate::integrity::{self, MacStore};
use crate::mac_bucket;
use crate::op::{Op, Reply};
use crate::ordered::OrderedIndex;
use crate::stats::{OpStats, StatsSnapshot};
use crate::table::TableCtx;
use crate::tenant::DEFAULT_TENANT;
use crate::tenant::{nskey, split_nskey, TenantId, TenantKeys, TenantRegistry, TenantState};
use crate::ttl;
use sgx_sim::enclave::Enclave;
use shield_crypto::cmac::Cmac;
use shield_crypto::fused::{Beside, Opened};
use shield_crypto::hint::LINE;
use shield_crypto::siphash::SipHash24;
use std::collections::{HashMap, HashSet};
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
/// free functions: who is operating, under which derived keys, at what
/// TTL-clock reading, with what deadline for writes, against which
/// quota/usage accounting (`None` = unmetered, e.g. internal merges).
pub(crate) struct OpCtx<'a> {
    pub tenant: TenantId,
    pub tkeys: &'a TenantKeys,
    pub now: u64,
    pub expires_at: u64,
    pub state: Option<&'a TenantState>,
}

/// Per-shard configuration derived from [`Config`].
#[derive(Debug, Clone)]
pub(crate) struct ShardConfig {
    pub buckets: usize,
    pub mac_hashes: usize,
    pub key_hint: bool,
    pub two_step: bool,
    pub mac_bucket: bool,
    pub mac_cap: usize,
    pub alloc: AllocMode,
    pub max_item_len: usize,
    pub ordered_index: bool,
    pub quarantine: bool,
}

impl ShardConfig {
    pub fn from_config(cfg: &Config) -> Self {
        Self {
            buckets: cfg.buckets_per_shard(),
            mac_hashes: cfg.mac_hashes_per_shard(),
            key_hint: cfg.key_hint,
            two_step: cfg.two_step_search,
            mac_bucket: cfg.mac_bucket,
            mac_cap: cfg.mac_bucket_capacity,
            alloc: cfg.alloc,
            max_item_len: cfg.max_item_len,
            ordered_index: cfg.ordered_index,
            quarantine: cfg.quarantine,
        }
    }
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

/// A located entry within a chain.
#[derive(Debug, Clone, Copy)]
struct Found {
    handle: Handle,
    prev: Handle,
    pos: usize,
    header: EntryHeader,
}

/// What a chain search discovered.
#[derive(Debug, Clone, Copy)]
enum SearchOutcome {
    /// The key was located.
    Found(Found),
    /// The full-scan fallback hit an entry whose MAC does not match its
    /// contents: untrusted memory was tampered with.
    Tampered,
}

/// The temporary table absorbing writes during a snapshot. Tombstones
/// are [`nskey`]s — deletes during a snapshot are per-namespace.
struct TempTable {
    ctx: TableCtx,
    tombstones: HashSet<Vec<u8>>,
}

/// Reusable scratch buffers threaded through the table operations so the
/// steady-state seal/unseal path performs no per-op heap allocation: the
/// buffers grow to the working-set item size once and are reused for
/// every subsequent operation. All three stage *plaintext or MAC* bytes
/// and live inside the enclave; nothing here is ever handed to untrusted
/// memory.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Entry staging: fused-open plaintext on reads, encode buffer on
    /// realloc/insert writes.
    entry: Vec<u8>,
    /// Candidate-key decryption during chain searches.
    key: Vec<u8>,
    /// MAC side-array gathers for the absence/membership checks.
    side: Vec<u8>,
    /// A bucket set's MACs, gathered for the set hash: between
    /// [`begin_verify`] and the verdict, the set CMAC's whole input.
    set: Vec<u8>,
}

/// One hash partition of the store.
pub struct Shard {
    cfg: ShardConfig,
    keys: Arc<StoreKeys>,
    enclave: Arc<Enclave>,
    main: Option<TableCtx>,
    frozen: Option<Arc<TableCtx>>,
    temp: Option<TempTable>,
    cache: Option<EnclaveCache>,
    index: Option<OrderedIndex>,
    quarantine: QuarantineState,
    scratch: Scratch,
    /// The derived keys of the tenant served last, parked here between
    /// ops: a repeat tenant takes them back without touching the shared
    /// keyring's mutex or the `Arc`'s shared count.
    last_keys: Option<(TenantId, Arc<TenantKeys>)>,
    /// Likewise the registry state of the tenant metered last, with the
    /// registry epoch it was resolved under.
    last_state: Option<(TenantId, u64, Arc<TenantState>)>,
    pub(crate) stats: OpStats,
    pub(crate) hists: OpHists,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("buckets", &self.cfg.buckets)
            .field("len", &self.len())
            .field("snapshotting", &self.temp.is_some())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Table-level operations: free functions so main and temp tables share them.
// ---------------------------------------------------------------------------

fn bucket_of(keys: &StoreKeys, ctx: &TableCtx, key: &[u8]) -> usize {
    (keys.index_hash(key) % ctx.buckets() as u64) as usize
}

/// Hints the loads a verified access to `bucket` opens with, before the
/// first of them is issued: for every bucket of `bucket`'s set, what the
/// set-hash gather reads first, and the head of `bucket`'s own chain for
/// the search. With MAC bucketing the gather reads MAC nodes, and a node
/// is hinted as far as the table's mean bucket occupancy fills one;
/// without it the MACs sit in the chained entries' headers. Left alone,
/// these are one cache miss queued behind the other — each on a line of
/// its own — and they dominate a lookup.
///
/// The handles come straight from untrusted memory and are only hinted,
/// never trusted: see [`UntrustedHeap::prefetch`].
fn hint_access(cfg: &ShardConfig, ctx: &TableCtx, bucket: usize) {
    let set_buckets = ctx.sets.buckets_of(ctx.sets.set_of(bucket));
    if cfg.mac_bucket {
        let filled = ctx.count.div_ceil(ctx.buckets()).min(cfg.mac_cap);
        let lines = mac_bucket::node_len(filled).div_ceil(LINE);
        for &node in &ctx.mac_heads[set_buckets] {
            ctx.heap.prefetch(node, 0, lines);
        }
        ctx.hint_header(ctx.heads[bucket]);
    } else {
        for &head in &ctx.heads[set_buckets] {
            ctx.hint_header(head);
        }
    }
}

/// Searches `bucket` for `key` *within `op`'s tenant namespace*, counting
/// decryptions as the paper's Fig. 9 does. First pass honours the key
/// hint and silently steps over foreign tenants' entries; if nothing
/// matched and the two-step fallback is enabled, a full scan follows
/// (§5.4) in which **every** entry — whoever owns it — is verified under
/// its owner's derived MAC key, so content tampering (including a
/// rewritten tenant field) cannot masquerade as a clean miss.
#[allow(clippy::too_many_arguments)]
fn search(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    op: &OpCtx<'_>,
    ctx: &TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    bucket: usize,
    hint_byte: u8,
    key: &[u8],
) -> Option<SearchOutcome> {
    // Chains are untrusted: a corrupted `next` pointer can form a cycle
    // or escape the heap. No honest chain is longer than the whole table,
    // so walks past `count` steps (or into unreadable memory) report
    // tampering instead of panicking or spinning.
    let max_steps = ctx.count.saturating_add(1);

    // First step: hint-guided, same-tenant entries only.
    let mut prev = NULL_HANDLE;
    let mut pos = 0usize;
    let mut h = ctx.heads[bucket];
    while h != NULL_HANDLE {
        if pos >= max_steps {
            return Some(SearchOutcome::Tampered);
        }
        let Some(header) = ctx.try_header(h) else {
            return Some(SearchOutcome::Tampered);
        };
        // The walk's next miss is known now; start it before deciding
        // anything about this entry.
        ctx.hint_header(header.next);
        if header.tenant != op.tenant {
            // Foreign namespace: skip without decrypting anything.
        } else if cfg.key_hint && header.hint != hint_byte {
            stats.hint_skips += 1;
        } else if header.key_len as usize == key.len() {
            // A candidate: its ciphertext is read next (key compare) and,
            // on a match, in full. An honest entry of this key length is
            // no longer than the largest item; a forged size field gets
            // no more than that hinted.
            ctx.hint_body(
                h,
                header.entry_len().min(entry::HEADER_LEN + key.len() + cfg.max_item_len),
            );
            stats.key_decryptions += 1;
            let Some(ct) = ctx.try_ciphertext(h, &header) else {
                // Corrupted length fields in untrusted memory.
                return Some(SearchOutcome::Tampered);
            };
            if entry::key_matches(&op.tkeys.enc, &header, ct, key, &mut scratch.key) {
                return Some(SearchOutcome::Found(Found { handle: h, prev, pos, header }));
            }
        }
        prev = h;
        pos += 1;
        h = header.next;
    }

    // Second step: full scan, defending against hint (and tenant-field)
    // corruption. Every entry's MAC is verified under its *owner's*
    // derived key: a corrupted ciphertext or a re-stitched tenant id
    // would make a key silently unfindable otherwise.
    if cfg.key_hint && cfg.two_step {
        stats.full_scans += 1;
        let mut prev = NULL_HANDLE;
        let mut pos = 0usize;
        let mut h = ctx.heads[bucket];
        while h != NULL_HANDLE {
            if pos >= max_steps {
                return Some(SearchOutcome::Tampered);
            }
            let Some(header) = ctx.try_header(h) else {
                return Some(SearchOutcome::Tampered);
            };
            let Some(ct) = ctx.try_ciphertext(h, &header) else {
                return Some(SearchOutcome::Tampered);
            };
            let verified = if header.tenant == op.tenant {
                entry::verify_mac(&op.tkeys.mac, &header, ct)
            } else {
                // Foreign entry: its owner's derived key decides. A forged
                // tenant id routes here and fails closed (the stored tag
                // cannot verify under the re-routed key).
                let owner = keys.tenant_keys(header.tenant);
                entry::verify_mac(&owner.mac, &header, ct)
            };
            if !verified {
                return Some(SearchOutcome::Tampered);
            }
            if header.tenant == op.tenant && header.key_len as usize == key.len() {
                stats.key_decryptions += 1;
                if entry::key_matches(&op.tkeys.enc, &header, ct, key, &mut scratch.key) {
                    return Some(SearchOutcome::Found(Found { handle: h, prev, pos, header }));
                }
            }
            prev = h;
            pos += 1;
            h = header.next;
        }
    }
    None
}

/// Gathers the entry MACs of every bucket of `set`, in traversal order,
/// into `macs` — the bucket-set hash is the CMAC of exactly these bytes.
/// With MAC bucketing they are a few contiguous reads of the side
/// arrays; without it they are copied out of the chained entries'
/// headers. `None` means the untrusted structure itself is corrupt
/// (unreadable pointer, cycle, inflated count field) — callers surface it
/// as an integrity violation.
fn gather_set(
    cfg: &ShardConfig,
    ctx: &TableCtx,
    stats: &mut OpStats,
    set: usize,
    macs: &mut Vec<u8>,
) -> Option<()> {
    let max_macs = ctx.count.saturating_add(1);
    macs.clear();
    for bucket in ctx.sets.buckets_of(set) {
        if cfg.mac_bucket {
            mac_bucket::try_gather(&ctx.heap, ctx.mac_heads[bucket], macs, max_macs)?;
        } else {
            let mut steps = 0usize;
            let mut h = ctx.heads[bucket];
            while h != NULL_HANDLE {
                steps += 1;
                if steps > max_macs {
                    return None;
                }
                let header = ctx.try_header(h)?;
                macs.extend_from_slice(&header.mac);
                h = header.next;
            }
        }
    }
    stats.macs_gathered += (macs.len() / 16) as u64;
    Some(())
}

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

/// The stored hash for an empty bucket set.
const EMPTY_SET_HASH: [u8; 16] = [0u8; 16];

/// What every verdict on `set`'s hash reports.
fn set_violation(ctx: &TableCtx, set: usize) -> Error {
    Error::IntegrityViolation { bucket: ctx.sets.buckets_of(set).start }
}

/// A bucket set whose MACs are gathered (in [`Scratch::set`]) and whose
/// stored hash is fetched, but whose CMAC has yet to run.
#[derive(Clone, Copy)]
struct PendingSet {
    set: usize,
    stored: [u8; 16],
}

/// The first half of verifying `set` against untrusted state: fetches the
/// stored hash and gathers the set's MACs into `macs`. The second half —
/// one CMAC and a compare — is [`finish_verify`], or rides beside the
/// opening of an entry ([`get_in_bucket`]).
fn begin_verify(
    cfg: &ShardConfig,
    ctx: &TableCtx,
    stats: &mut OpStats,
    set: usize,
    macs: &mut Vec<u8>,
) -> Result<PendingSet> {
    stats.integrity_verifications += 1;
    // The stored hash is enclave memory and needs none of the untrusted
    // lines the caller has just hinted: fetching it first lets them land
    // meanwhile.
    let stored = ctx.macs.get(set);
    gather_set(cfg, ctx, stats, set, macs).ok_or_else(|| set_violation(ctx, set))?;
    Ok(PendingSet { set, stored })
}

/// Settles `pending` on its own: recomputes the set hash from the
/// gathered `macs` and compares.
fn finish_verify(keys: &StoreKeys, ctx: &TableCtx, pending: PendingSet, macs: &[u8]) -> Result<()> {
    if integrity::verify_set_hash(&pending.stored, &set_hash(keys, macs)) {
        Ok(())
    } else {
        Err(set_violation(ctx, pending.set))
    }
}

/// `pending` as the message to verify beside the opening or sealing of an
/// entry of its set: the gathered `macs` and the hash they must have. A
/// gather without MACs has no CMAC to run — its hash is a constant — and
/// is settled here. (An entry found in such a set is tampering that the
/// side-array checks report.)
fn beside_entry<'a>(
    keys: &'a StoreKeys,
    ctx: &TableCtx,
    pending: &'a Option<PendingSet>,
    macs: &'a [u8],
) -> Result<Option<Beside<'a>>> {
    match pending {
        Some(pending) if macs.is_empty() => finish_verify(keys, ctx, *pending, macs).map(|()| None),
        Some(pending) => Ok(Some(Beside { mac: &keys.mac, msg: macs, tag: &pending.stored })),
        None => Ok(None),
    }
}

/// Verifies the bucket-set MAC hash for `set` against untrusted state.
fn verify_set(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    ctx: &TableCtx,
    stats: &mut OpStats,
    set: usize,
    macs: &mut Vec<u8>,
) -> Result<()> {
    let pending = begin_verify(cfg, ctx, stats, set, macs)?;
    finish_verify(keys, ctx, pending, macs)
}

/// Miss-path consistency check for MAC bucketing. The gather reads the
/// MAC side arrays, so an attacker who unlinks a *data entry* (leaving
/// the MAC bucket intact) would pass the set-hash check and turn the key
/// into a silent miss. A *found* key proves its own membership (its MAC
/// is verified against content and covered by the set hash), so the
/// chain walk is only paid when a search comes back empty — keeping the
/// very pointer-chasing MAC bucketing exists to avoid off the hit path.
fn verify_absence_consistency(
    cfg: &ShardConfig,
    ctx: &TableCtx,
    scratch: &mut Scratch,
    bucket: usize,
) -> Result<()> {
    if !cfg.mac_bucket {
        return Ok(());
    }
    let max_macs = ctx.count.saturating_add(1);
    let side = &mut scratch.side;
    side.clear();
    if mac_bucket::try_gather(&ctx.heap, ctx.mac_heads[bucket], side, max_macs).is_none() {
        return Err(Error::IntegrityViolation { bucket });
    }
    // Element-wise walk: every chained entry's header MAC must sit at its
    // chain position in the side array, and the two must have equal
    // length. This catches unlinking, splicing-in, reordering, and an
    // entry's bytes being overwritten with another (individually valid)
    // entry — all of which would otherwise read as a clean miss here.
    let mut pos = 0usize;
    let mut h = ctx.heads[bucket];
    while h != NULL_HANDLE {
        if pos >= max_macs {
            return Err(Error::IntegrityViolation { bucket });
        }
        let Some(header) = ctx.try_header(h) else {
            return Err(Error::IntegrityViolation { bucket });
        };
        if side.get(pos * 16..(pos + 1) * 16) != Some(header.mac.as_slice()) {
            return Err(Error::IntegrityViolation { bucket });
        }
        pos += 1;
        h = header.next;
    }
    if pos * 16 != side.len() {
        return Err(Error::IntegrityViolation { bucket });
    }
    Ok(())
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
fn verify_side_mac_read(
    cfg: &ShardConfig,
    ctx: &TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    bucket: usize,
    found: &Found,
) -> Result<()> {
    if !cfg.mac_bucket {
        return Ok(());
    }
    let max_macs = ctx.count.saturating_add(1);
    if mac_bucket::try_get_at(&ctx.heap, ctx.mac_heads[bucket], found.pos, max_macs)
        == Some(found.header.mac)
    {
        return Ok(());
    }
    // Positional mismatch: either an attack on this entry (replay) or a
    // structural attack elsewhere in the chain. Membership decides.
    stats.side_mac_fallbacks += 1;
    let side = &mut scratch.side;
    side.clear();
    if mac_bucket::try_gather(&ctx.heap, ctx.mac_heads[bucket], side, max_macs).is_none() {
        return Err(Error::IntegrityViolation { bucket });
    }
    if side.chunks_exact(16).any(|m| m == found.header.mac) {
        Ok(())
    } else {
        Err(Error::IntegrityViolation { bucket })
    }
}

/// Write-path variant of [`verify_side_mac_read`]: strictly positional.
/// `set_at`/`remove_at` mutate the side array *by chain position*, so a
/// write through a desynchronized position would endorse the wrong slot
/// (and could launder a stale MAC back into the endorsed set). A bucket
/// whose chain and side array have drifted apart refuses all mutations.
fn verify_side_mac_write(
    cfg: &ShardConfig,
    ctx: &TableCtx,
    bucket: usize,
    found: &Found,
) -> Result<()> {
    if !cfg.mac_bucket {
        return Ok(());
    }
    let max_macs = ctx.count.saturating_add(1);
    match mac_bucket::try_get_at(&ctx.heap, ctx.mac_heads[bucket], found.pos, max_macs) {
        Some(side) if side == found.header.mac => Ok(()),
        _ => Err(Error::IntegrityViolation { bucket }),
    }
}

/// Recomputes and stores the bucket-set hash after a mutation. Fails —
/// leaving the stored hash untouched, so later verification fails closed
/// — when the untrusted structure cannot be walked.
fn update_set_hash(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    ctx: &mut TableCtx,
    stats: &mut OpStats,
    set: usize,
    macs: &mut Vec<u8>,
) -> Result<()> {
    gather_set(cfg, ctx, stats, set, macs).ok_or_else(|| set_violation(ctx, set))?;
    ctx.macs.set(set, &set_hash(keys, macs));
    Ok(())
}

/// Looks `key` up in `ctx` under `op`'s namespace, fully verifying
/// integrity. Returns the plaintext value and its (authenticated)
/// expiry deadline, or `None` for a clean miss — including the lazy-
/// expiry case, where an entry past its deadline is hidden without
/// mutation (safe against frozen snapshot tables; the sweep removes it).
fn get_in(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    op: &OpCtx<'_>,
    ctx: &TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    key: &[u8],
) -> Result<Option<(Vec<u8>, u64)>> {
    let bucket = bucket_of(keys, ctx, key);
    let set = ctx.sets.set_of(bucket);
    hint_access(cfg, ctx, bucket);
    let pending = begin_verify(cfg, ctx, stats, set, &mut scratch.set)?;
    get_in_bucket(cfg, keys, op, ctx, stats, scratch, bucket, key, Some(pending))
}

/// Lookup within `bucket`, whose set is either already verified
/// (`pending` is `None` — the batched path, after the set's first key) or
/// gathered by [`begin_verify`] and still to be settled. A hit settles it
/// in the pass that opens the entry: the set's CMAC, the entry's CMAC and
/// the keystream are three chains on one AES unit, so they cost what the
/// longest does. Anything else settles it alone. Either way the set's
/// verdict is reported before any other.
#[allow(clippy::too_many_arguments)]
fn get_in_bucket(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    op: &OpCtx<'_>,
    ctx: &TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    bucket: usize,
    key: &[u8],
    pending: Option<PendingSet>,
) -> Result<Option<(Vec<u8>, u64)>> {
    let hint = keys.hint_byte(key);
    let outcome = search(cfg, keys, op, ctx, stats, scratch, bucket, hint, key);
    let hit = match outcome {
        Some(SearchOutcome::Found(found)) => {
            ctx.try_ciphertext(found.handle, &found.header).map(|ct| (found, ct))
        }
        _ => None,
    };
    let Some((found, ct)) = hit else {
        if let Some(pending) = pending {
            finish_verify(keys, ctx, pending, &scratch.set)?;
        }
        return match outcome {
            // Tampered, or found behind corrupted length fields.
            Some(_) => Err(Error::IntegrityViolation { bucket }),
            None => {
                verify_absence_consistency(cfg, ctx, scratch, bucket)?;
                Ok(None)
            }
        };
    };
    let beside = beside_entry(keys, ctx, &pending, &scratch.set)?;
    // Fused verify+decrypt under the tenant's derived keys. The plaintext
    // is staged in the enclave-resident scratch buffer and only released
    // after the set hash, the tag and the side-array liveness check have
    // all passed.
    let mut plain = std::mem::take(&mut scratch.entry);
    let opened = entry::open_entry_beside(
        beside,
        &op.tkeys.enc,
        &op.tkeys.mac,
        &found.header,
        ct,
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
            scratch.entry = plain;
            return Err(set_violation(ctx, pending.set));
        }
        (Opened::BesideMismatch | Opened::TagMismatch, _) => {
            scratch.entry = plain;
            return Err(Error::IntegrityViolation { bucket });
        }
    }
    if let Err(e) = verify_side_mac_read(cfg, ctx, stats, scratch, bucket, &found) {
        wipe(plain, scratch);
        return Err(e);
    }
    // Lazy expiry: the fused open just authenticated the header,
    // `expires_at` included, so the deadline can be honoured. The value
    // is wiped and the entry reads as a miss; physical removal is the
    // sweep's job (this path must not mutate — it also serves frozen
    // snapshot tables).
    if found.header.expired_at(op.now) {
        wipe(plain, scratch);
        stats.expired_lazy += 1;
        if let Some(st) = op.state {
            st.usage.expired_lazy.fetch_add(1, AtomicOrdering::SeqCst);
        }
        return Ok(None);
    }
    let value = plain.split_off(found.header.key_len as usize);
    scratch.entry = plain;
    Ok(Some((value, found.header.expires_at)))
}

/// Inserts or updates `key` in `ctx`. Returns `true` for an insert.
#[allow(clippy::too_many_arguments)]
fn set_in(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    op: &OpCtx<'_>,
    ctx: &mut TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    key: &[u8],
    value: &[u8],
) -> Result<bool> {
    let bucket = bucket_of(keys, ctx, key);
    let set = ctx.sets.set_of(bucket);
    hint_access(cfg, ctx, bucket);
    let pending = begin_verify(cfg, ctx, stats, set, &mut scratch.set)?;
    let inserted =
        set_in_bucket(cfg, keys, op, ctx, stats, scratch, bucket, key, value, Some(pending))?;
    update_set_hash(cfg, keys, ctx, stats, set, &mut scratch.set)?;
    Ok(inserted)
}

/// Charges a quota rejection to the op's tenant and fails the write.
fn quota_reject(op: &OpCtx<'_>, stats: &mut OpStats) -> Error {
    stats.quota_rejections += 1;
    if let Some(st) = op.state {
        st.usage.quota_rejections.fetch_add(1, AtomicOrdering::SeqCst);
    }
    Error::QuotaExceeded { tenant: op.tenant }
}

/// Insert/update within `bucket`, *without* re-storing the set hash. The
/// bucket's set is either already verified (`pending` is `None` — the
/// batched path, after the set's first item) or gathered by
/// [`begin_verify`] and settled here: beside the sealing of the new
/// version on an update, alone otherwise, and always before any other
/// verdict and any mutation. The caller must call [`update_set_hash`]
/// after the last write to the set — per-op wrappers do so per call, the
/// batched path once per touched set per batch.
///
/// An update is sealed into the enclave scratch and copied out only once
/// every check has passed, so a refused write leaves untrusted memory as
/// it was.
///
/// Quota enforcement happens here, after the integrity checks and
/// before any mutation: an insert charges `(entry bytes, 1 key)`, an
/// update charges only byte *growth* (shrink refunds immediately), and
/// a rejection leaves both table and accounting untouched.
#[allow(clippy::too_many_arguments)]
fn set_in_bucket(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    op: &OpCtx<'_>,
    ctx: &mut TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    bucket: usize,
    key: &[u8],
    value: &[u8],
    pending: Option<PendingSet>,
) -> Result<bool> {
    let hint = keys.hint_byte(key);
    let new_len = entry::HEADER_LEN + key.len() + value.len();

    let outcome = search(cfg, keys, op, ctx, stats, scratch, bucket, hint, key);
    let Some(SearchOutcome::Found(found)) = outcome else {
        if let Some(pending) = pending {
            finish_verify(keys, ctx, pending, &scratch.set)?;
        }
        if outcome.is_some() {
            return Err(Error::IntegrityViolation { bucket });
        }
        verify_absence_consistency(cfg, ctx, scratch, bucket)?;
        if let Some(st) = op.state {
            if !st.usage.try_charge(&st.quota, new_len as u64, 1) {
                return Err(quota_reject(op, stats));
            }
        }
        // Insert at the chain head with a fresh random IV/counter.
        let iv = ctx.heap.enclave().read_rand_block();
        let fresh = ctx.heap.alloc(new_len);
        let buf = &mut scratch.entry;
        buf.clear();
        buf.resize(new_len, 0);
        let mac = entry::encode_into(
            buf,
            ctx.heads[bucket],
            hint,
            op.tenant,
            op.expires_at,
            &iv,
            key,
            value,
            &op.tkeys.enc,
            &op.tkeys.mac,
        );
        ctx.heap.bytes_mut(fresh, new_len).copy_from_slice(buf);
        ctx.heads[bucket] = fresh;
        if cfg.mac_bucket {
            let mut head = ctx.mac_heads[bucket];
            mac_bucket::insert_front(&mut ctx.heap, &mut head, &mac, cfg.mac_cap);
            ctx.mac_heads[bucket] = head;
        }
        ctx.count += 1;
        stats.inserts += 1;
        return Ok(true);
    };

    // Update: bump the combined IV/counter for the re-encryption. The
    // search only matches same-tenant entries, so the bumped counter
    // stays within one derived keystream. (Should the entry turn out to
    // be a stale replay, whose IV+1 is an already-spent counter, the
    // side-array check below refuses it and what was sealed never leaves
    // the scratch.)
    let mut iv = found.header.iv;
    shield_crypto::ctr::increment_be(&mut iv);
    let beside = beside_entry(keys, ctx, &pending, &scratch.set)?;
    let sealed = &mut scratch.entry;
    sealed.clear();
    sealed.resize(new_len, 0);
    let (mac, set_ok) = entry::encode_into_beside(
        beside,
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
    if let (false, Some(pending)) = (set_ok, pending) {
        return Err(set_violation(ctx, pending.set));
    }
    verify_side_mac_write(cfg, ctx, bucket, &found)?;
    let old_len = found.header.entry_len();
    if let Some(st) = op.state {
        if new_len > old_len {
            if !st.usage.try_charge_bytes(&st.quota, (new_len - old_len) as u64) {
                return Err(quota_reject(op, stats));
            }
        } else {
            st.usage.discharge((old_len - new_len) as u64, 0);
        }
    }
    if UntrustedHeap::fits_in_class(old_len, new_len) {
        ctx.heap.bytes_mut(found.handle, new_len).copy_from_slice(sealed);
        stats.inplace_updates += 1;
    } else {
        let fresh = ctx.heap.alloc(new_len);
        ctx.heap.bytes_mut(fresh, new_len).copy_from_slice(sealed);
        // Relink in place of the old entry.
        if found.prev == NULL_HANDLE {
            ctx.heads[bucket] = fresh;
        } else {
            ctx.heap.write_u64_at(found.prev, entry::OFF_NEXT, fresh);
        }
        ctx.heap.free(found.handle, old_len);
        stats.realloc_updates += 1;
    }
    if cfg.mac_bucket {
        mac_bucket::set_at(&mut ctx.heap, ctx.mac_heads[bucket], found.pos, &mac);
    }
    Ok(false)
}

/// Removes `key` from `ctx` within `op`'s namespace. Returns `true` if
/// a physical removal happened.
///
/// With `reap_expired = false` (normal deletes), an entry past its
/// deadline answers "not present" *without* being removed: the caller's
/// delete is not WAL-logged as having removed anything, so physical
/// removal must wait for the sweep (which is logged) — otherwise
/// recovery replay and the live table would diverge. Honouring the
/// deadline requires authenticating it first: the hint-guided search
/// does not verify MACs, and the set hash covers only the stored tag
/// bytes, so a flipped `expires_at` would otherwise let tampering
/// masquerade as a clean miss.
///
/// With `reap_expired = true` (the sweep, snapshot tombstone replay),
/// expired entries are removed like any other.
#[allow(clippy::too_many_arguments)]
fn delete_in(
    cfg: &ShardConfig,
    keys: &StoreKeys,
    op: &OpCtx<'_>,
    ctx: &mut TableCtx,
    stats: &mut OpStats,
    scratch: &mut Scratch,
    key: &[u8],
    reap_expired: bool,
) -> Result<bool> {
    let bucket = bucket_of(keys, ctx, key);
    let set = ctx.sets.set_of(bucket);
    hint_access(cfg, ctx, bucket);
    verify_set(cfg, keys, ctx, stats, set, &mut scratch.set)?;
    let hint = keys.hint_byte(key);
    let found = match search(cfg, keys, op, ctx, stats, scratch, bucket, hint, key) {
        Some(SearchOutcome::Found(found)) => found,
        Some(SearchOutcome::Tampered) => {
            return Err(Error::IntegrityViolation { bucket });
        }
        None => {
            verify_absence_consistency(cfg, ctx, scratch, bucket)?;
            return Ok(false);
        }
    };
    verify_side_mac_write(cfg, ctx, bucket, &found)?;

    if !reap_expired && found.header.expired_at(op.now) {
        // Fail-closed deadline trust: verify the entry MAC before
        // honouring the plaintext expiry field.
        let Some(ct) = ctx.try_ciphertext(found.handle, &found.header) else {
            return Err(Error::IntegrityViolation { bucket });
        };
        if !entry::verify_mac(&op.tkeys.mac, &found.header, ct) {
            return Err(Error::IntegrityViolation { bucket });
        }
        stats.expired_lazy += 1;
        if let Some(st) = op.state {
            st.usage.expired_lazy.fetch_add(1, AtomicOrdering::SeqCst);
        }
        return Ok(false);
    }

    if found.prev == NULL_HANDLE {
        ctx.heads[bucket] = found.header.next;
    } else {
        ctx.heap.write_u64_at(found.prev, entry::OFF_NEXT, found.header.next);
    }
    ctx.heap.free(found.handle, found.header.entry_len());
    if cfg.mac_bucket {
        let mut head = ctx.mac_heads[bucket];
        mac_bucket::remove_at(&mut ctx.heap, &mut head, found.pos, cfg.mac_cap);
        ctx.mac_heads[bucket] = head;
    }
    ctx.count -= 1;
    if let Some(st) = op.state {
        st.usage.discharge(found.header.entry_len() as u64, 1);
    }
    update_set_hash(cfg, keys, ctx, stats, set, &mut scratch.set)?;
    Ok(true)
}

/// Accumulates per-tenant physical usage (`tenant → (bytes, keys)`) from
/// one table. Header fields are read unauthenticated — this feeds
/// resource accounting, where tampering only skews the tamperer's own
/// quota; data-path integrity is enforced at access time.
fn tally_usage(ctx: &TableCtx, out: &mut HashMap<TenantId, (u64, u64)>) {
    let mut handles = Vec::new();
    ctx.for_each_entry(|_, h| handles.push(h));
    for h in handles {
        if let Some(header) = ctx.try_header(h) {
            let slot = out.entry(header.tenant).or_insert((0, 0));
            slot.0 += header.entry_len() as u64;
            slot.1 += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Shard: public operations with snapshot-aware routing.
// ---------------------------------------------------------------------------

impl Shard {
    /// Creates an empty shard.
    pub(crate) fn new(
        enclave: Arc<Enclave>,
        keys: Arc<StoreKeys>,
        cfg: ShardConfig,
    ) -> Result<Self> {
        let heap = UntrustedHeap::new(Arc::clone(&enclave), cfg.alloc);
        let macs = MacStore::in_enclave(Arc::clone(&enclave), cfg.mac_hashes)?;
        let main = TableCtx::new(heap, cfg.buckets, macs);
        let index = cfg.ordered_index.then(OrderedIndex::new);
        Ok(Self {
            cfg,
            keys,
            enclave,
            main: Some(main),
            frozen: None,
            temp: None,
            cache: None,
            index,
            quarantine: QuarantineState::default(),
            scratch: Scratch::default(),
            last_keys: None,
            last_state: None,
            stats: OpStats::default(),
            hists: OpHists::default(),
        })
    }

    /// Enables the in-enclave cache with a byte budget.
    pub(crate) fn enable_cache(&mut self, bytes: usize) {
        if bytes > 0 {
            self.cache = Some(EnclaveCache::new(Arc::clone(&self.enclave), bytes));
        }
    }

    fn check_item(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let max = self.cfg.max_item_len;
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

    /// Internal verified lookup across temp/frozen/main state, without
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
        if let Some(cache) = self.cache.as_mut() {
            if let Some(v) = cache.get(&nskey(op.tenant, key)) {
                self.stats.cache_hits += 1;
                // Only deadline-free entries are ever cached.
                return Ok(Some((v, 0, true)));
            }
            self.stats.cache_misses += 1;
        }
        if let Some(temp) = self.temp.as_ref() {
            if temp.tombstones.contains(&nskey(op.tenant, key)) {
                return Ok(None);
            }
            // Split borrows: temp ctx read + stats/scratch write.
            let (cfg, keys) = (&self.cfg, &self.keys);
            let temp = self.temp.as_ref().expect("checked above");
            if let Some((v, exp)) =
                get_in(cfg, keys, op, &temp.ctx, &mut self.stats, &mut self.scratch, key)?
            {
                return Ok(Some((v, exp, false)));
            }
            let frozen = self.frozen.as_ref().expect("frozen accompanies temp");
            return Ok(get_in(cfg, keys, op, frozen, &mut self.stats, &mut self.scratch, key)?
                .map(|(v, exp)| (v, exp, false)));
        }
        let main = self.main.as_ref().expect("main table present");
        Ok(get_in(&self.cfg, &self.keys, op, main, &mut self.stats, &mut self.scratch, key)?
            .map(|(v, exp)| (v, exp, false)))
    }

    /// Internal verified write across temp/main state.
    fn apply_write(&mut self, op: &OpCtx<'_>, key: &[u8], value: &[u8]) -> Result<()> {
        self.check_item(key, value)?;
        let table = match self.temp.as_mut() {
            Some(temp) => {
                self.stats.temp_table_ops += 1;
                temp.tombstones.remove(&nskey(op.tenant, key));
                &mut temp.ctx
            }
            None => self.main.as_mut().expect("main table present"),
        };
        set_in(&self.cfg, &self.keys, op, table, &mut self.stats, &mut self.scratch, key, value)?;
        if let Some(cache) = self.cache.as_mut() {
            let ns = nskey(op.tenant, key);
            if op.expires_at == 0 {
                cache.put(&ns, value);
            } else {
                // The cache has no deadline awareness: a cached TTL'd value
                // would keep serving after expiry. Never cache them.
                cache.remove(&ns);
            }
        }
        if let Some(index) = self.index.as_mut() {
            index.insert(&nskey(op.tenant, key));
        }
        Ok(())
    }

    /// The bucket `key` maps to in the main-table geometry (stable
    /// across snapshots — the temp table has its own smaller geometry).
    fn bucket_index(&self, key: &[u8]) -> usize {
        (self.keys.index_hash(key) % self.cfg.buckets as u64) as usize
    }

    /// The bucket-set mapping of the main-table geometry, available even
    /// while the main table is frozen out for a snapshot.
    fn sets_map(&self) -> crate::integrity::BucketSets {
        crate::integrity::BucketSets::new(self.cfg.buckets, self.cfg.mac_hashes)
    }

    /// Fails closed with [`Error::Quarantined`] when `op` would touch a
    /// quarantined partition. A rejection never touches untrusted
    /// memory. Any quarantined key rejects a whole batch before any of it
    /// is dispatched; scans have no single key, so they are rejected
    /// whenever any part of this shard is quarantined (the verified read
    /// path would walk arbitrary buckets).
    fn quarantine_guard(&mut self, op: &Op<'_>) -> Result<()> {
        if !self.cfg.quarantine || (!self.quarantine.whole && self.quarantine.sets.is_empty()) {
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
                self.stats.quarantine_rejections += 1;
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
        if self.cfg.quarantine {
            if let Err(Error::IntegrityViolation { bucket }) = &result {
                self.quarantine.violations += 1;
                if self.quarantine.violations > 1 || self.temp.is_some() {
                    self.quarantine.whole = true;
                } else {
                    let bucket = (*bucket).min(self.cfg.buckets - 1);
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

    /// Executes one operation in `tenant`'s namespace — the shard's only
    /// routed entry point. `state` (when given) enforces the tenant's
    /// quota and receives its share of the accounting; `None` runs
    /// unmetered (recovery replay, internal merges).
    ///
    /// Every op passes the same four stations, in this order: the
    /// counters of its class bump (`Shard::count`), the quarantine
    /// guard may refuse it, the body runs and its result is observed for
    /// integrity violations, and its class histogram (if any) takes one
    /// sample. So a refused or failed op is still counted and sampled
    /// exactly once, at shard and tenant level alike — the identities
    /// [`StatsSnapshot::check_consistent`] checks hold under attack.
    pub fn execute(
        &mut self,
        tenant: TenantId,
        state: Option<&TenantState>,
        op: Op<'_>,
    ) -> Result<Reply> {
        let timer = OpTimer::start();
        self.count(&op, state);
        let result = match self.quarantine_guard(&op) {
            Ok(()) => {
                let tkeys = match self.last_keys.take() {
                    Some((last, tkeys)) if last == tenant => tkeys,
                    _ => self.keys.tenant_keys(tenant),
                };
                let ctx = OpCtx {
                    tenant,
                    tkeys: &tkeys,
                    now: ttl::now_ns(),
                    expires_at: op.expires_at(),
                    state,
                };
                let r = self.run(&ctx, op);
                self.last_keys = Some((tenant, tkeys));
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
        result
    }

    /// [`Shard::execute`] metered against `tenant`'s state in `registry`.
    /// The shard is exclusively held, so the state resolved for the last
    /// op is reused — no registry lock — while the tenant repeats and no
    /// quota has been reconfigured since.
    pub(crate) fn execute_metered(
        &mut self,
        registry: &TenantRegistry,
        tenant: TenantId,
        op: Op<'_>,
    ) -> Result<Reply> {
        // Epoch first: a `configure` racing with the lookup then leaves a
        // stale epoch beside a fresh state (re-resolved next time), never
        // the reverse.
        let epoch = registry.epoch();
        let state = match self.last_state.take() {
            Some((last, resolved_at, state)) if last == tenant && resolved_at == epoch => state,
            _ => registry.state(tenant),
        };
        let result = self.execute(tenant, Some(&state), op);
        self.last_state = Some((tenant, epoch, state));
        result
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
                self.stats.deletes += 1;
                return;
            }
            Op::Append { .. } => {
                self.stats.appends += 1;
                return;
            }
            Op::Increment { .. } => {
                self.stats.increments += 1;
                return;
            }
            Op::ScanRange { .. } | Op::ScanPrefix { .. } => return,
        };
        if matches!(op, Op::MultiGet(_) | Op::MultiSet { .. }) {
            self.stats.batches += 1;
            self.stats.batch_ops += gets + sets;
        }
        self.stats.gets += gets;
        self.stats.sets += sets;
        if let Some(st) = state {
            if gets > 0 {
                st.usage.gets.fetch_add(gets, AtomicOrdering::SeqCst);
            }
            if sets > 0 {
                st.usage.sets.fetch_add(sets, AtomicOrdering::SeqCst);
            }
        }
    }

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

    /// The op bodies: what each variant does once counted and admitted.
    fn run(&mut self, ctx: &OpCtx<'_>, op: Op<'_>) -> Result<Reply> {
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

    /// Verified read of one key: resolves hit or miss and warms the
    /// cache.
    fn read(&mut self, ctx: &OpCtx<'_>, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.lookup_traced(ctx, key)? {
            Some((v, expires_at, from_cache)) => {
                self.tally_hits(ctx.state, 1, 0);
                // Populate the cache on an untrusted-path hit (a cache hit
                // is already resident) — but never with a TTL'd value.
                if !from_cache && expires_at == 0 {
                    if let Some(cache) = self.cache.as_mut() {
                        cache.put(&nskey(ctx.tenant, key), &v);
                    }
                }
                Ok(Some(v))
            }
            None => {
                self.tally_hits(ctx.state, 0, 1);
                Ok(None)
            }
        }
    }

    /// Batched lookup: re-derives each touched bucket-set hash once per
    /// batch instead of once per key (the flattened-Merkle check of
    /// paper §4.3/§5.2 is the dominant per-op cost this amortizes).
    ///
    /// Results come back in input order; a clean miss is `None`, so one
    /// absent key does not fail the batch. Any integrity violation
    /// aborts the whole batch fail-closed.
    fn read_batch(&mut self, op: &OpCtx<'_>, batch: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        if self.temp.is_some() {
            // Snapshot in progress: lookups span the temp and frozen
            // tables, whose bucket sets do not line up — per-op path.
            return batch.iter().map(|key| self.read(op, key)).collect();
        }

        let mut results: Vec<Option<Vec<u8>>> = vec![None; batch.len()];
        // Cache pass first: resident values need no untrusted access.
        let mut pending = Vec::with_capacity(batch.len());
        for (i, key) in batch.iter().enumerate() {
            if let Some(cache) = self.cache.as_mut() {
                if let Some(v) = cache.get(&nskey(op.tenant, key)) {
                    self.stats.cache_hits += 1;
                    results[i] = Some(v);
                    continue;
                }
                self.stats.cache_misses += 1;
            }
            pending.push(i);
        }

        let Shard { cfg, keys, main, cache, stats, scratch, .. } = self;
        let main = main.as_ref().expect("main table present");

        // Group by bucket set so each set hash is derived exactly once —
        // and hint every key's set and chain while placing it, so the
        // whole batch's first misses are in flight before the first key
        // is verified.
        let mut order: Vec<(usize, usize, usize)> = pending
            .into_iter()
            .map(|i| {
                let bucket = bucket_of(keys, main, batch[i]);
                hint_access(cfg, main, bucket);
                (main.sets.set_of(bucket), bucket, i)
            })
            .collect();
        order.sort_unstable();

        let mut verified: Option<usize> = None;
        for (set, bucket, i) in order {
            // A set is verified with its first key, beside that key's
            // entry when it hits.
            let pending = if verified == Some(set) {
                stats.batch_verifications_saved += 1;
                None
            } else {
                verified = Some(set);
                Some(begin_verify(cfg, main, stats, set, &mut scratch.set)?)
            };
            if let Some((v, exp)) =
                get_in_bucket(cfg, keys, op, main, stats, scratch, bucket, batch[i], pending)?
            {
                if exp == 0 {
                    if let Some(cache) = cache.as_mut() {
                        cache.put(&nskey(op.tenant, batch[i]), &v);
                    }
                }
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

        if self.temp.is_some() {
            // Snapshot in progress: writes land in the small temp table,
            // where batching the set-hash work is not worth the
            // bookkeeping — the temp table is merged away shortly.
            for (key, value) in items {
                self.apply_write(op, key, value)?;
            }
            return Ok(());
        }

        let Shard { cfg, keys, main, cache, index, stats, scratch, .. } = self;
        let main = main.as_mut().expect("main table present");

        // Sort by (set, bucket, input position): grouped per set for the
        // hash amortization, while duplicate keys (same bucket) keep
        // their submission order. Placing a key also hints its set and
        // chain, as in `read_batch`.
        let mut order: Vec<(usize, usize, usize)> = items
            .iter()
            .enumerate()
            .map(|(i, (key, _))| {
                let bucket = bucket_of(keys, main, key);
                hint_access(cfg, main, bucket);
                (main.sets.set_of(bucket), bucket, i)
            })
            .collect();
        order.sort_unstable();

        let mut current: Option<usize> = None;
        for (set, bucket, i) in order {
            let pending = if current == Some(set) {
                stats.batch_verifications_saved += 1;
                stats.batch_hash_updates_saved += 1;
                None
            } else {
                if let Some(prev) = current {
                    update_set_hash(cfg, keys, main, stats, prev, &mut scratch.set)?;
                }
                current = Some(set);
                Some(begin_verify(cfg, main, stats, set, &mut scratch.set)?)
            };
            let (key, value) = items[i];
            set_in_bucket(cfg, keys, op, main, stats, scratch, bucket, key, value, pending)
                .map_err(|e| {
                    // The set hash for the current group must be re-stored
                    // even on a quota rejection mid-batch: earlier items in
                    // this set already mutated their buckets.
                    if matches!(e, Error::QuotaExceeded { .. }) {
                        let _ = update_set_hash(cfg, keys, main, stats, set, &mut scratch.set);
                    }
                    e
                })?;
            if let Some(cache) = cache.as_mut() {
                let ns = nskey(op.tenant, key);
                if op.expires_at == 0 {
                    cache.put(&ns, value);
                } else {
                    cache.remove(&ns);
                }
            }
            if let Some(index) = index.as_mut() {
                index.insert(&nskey(op.tenant, key));
            }
        }
        if let Some(prev) = current {
            update_set_hash(cfg, keys, main, stats, prev, &mut scratch.set)?;
        }
        Ok(())
    }

    /// Removes `key`; `false` when absent. With `reap_expired` off (a
    /// client delete) an entry already past its deadline also answers
    /// `false` and stays: physical removal is left to the sweep, which
    /// WAL-logs it — an unlogged removal here would diverge from
    /// recovery replay.
    fn remove(&mut self, op: &OpCtx<'_>, key: &[u8], reap_expired: bool) -> Result<bool> {
        let ns = nskey(op.tenant, key);
        if let Some(cache) = self.cache.as_mut() {
            cache.remove(&ns);
        }
        let removed = if let Some(temp) = self.temp.as_mut() {
            self.stats.temp_table_ops += 1;
            // Remove any temp-table copy.
            let removed_temp = delete_in(
                &self.cfg,
                &self.keys,
                op,
                &mut temp.ctx,
                &mut self.stats,
                &mut self.scratch,
                key,
                reap_expired,
            )?;
            // Check the frozen main for presence (verified search).
            let frozen = Arc::clone(self.frozen.as_ref().expect("frozen accompanies temp"));
            let in_frozen = get_in(
                &self.cfg,
                &self.keys,
                op,
                &frozen,
                &mut self.stats,
                &mut self.scratch,
                key,
            )?
            .is_some();
            if in_frozen {
                let temp = self.temp.as_mut().expect("checked above");
                temp.tombstones.insert(ns.clone());
            }
            removed_temp || in_frozen
        } else {
            let main = self.main.as_mut().expect("main table present");
            delete_in(
                &self.cfg,
                &self.keys,
                op,
                main,
                &mut self.stats,
                &mut self.scratch,
                key,
                reap_expired,
            )?
        };
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
        let tkeys = self.keys.tenant_keys(tenant);
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
            if let Some((value, _, _)) = self.lookup_traced(op, key)? {
                out.push((key.to_vec(), value));
            }
        }
        Ok(out)
    }

    // -- default-namespace sugar ---------------------------------------
    //
    // For the partition-pinned workers and tests that drive a shard
    // directly: `execute` under `DEFAULT_TENANT`, unmetered, with a miss
    // turned back into `Error::KeyNotFound` where the signature has no
    // room for one.

    /// Retrieves the value for `key`.
    pub fn get(&mut self, key: &[u8]) -> Result<Vec<u8>> {
        self.execute(DEFAULT_TENANT, None, Op::Get(key))?.value().ok_or(Error::KeyNotFound)
    }

    /// Stores `value` under `key` (insert or update), with no expiry.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.execute(DEFAULT_TENANT, None, Op::set(key, value)).map(|_| ())
    }

    /// Removes `key`.
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        match self.execute(DEFAULT_TENANT, None, Op::Delete(key))?.deleted() {
            true => Ok(()),
            false => Err(Error::KeyNotFound),
        }
    }

    /// Appends `suffix` to the value of `key`, creating it when absent —
    /// one of the server-side operations motivating server-side
    /// encryption (paper §3.2, Fig. 12). Returns the new length.
    pub fn append(&mut self, key: &[u8], suffix: &[u8]) -> Result<usize> {
        Ok(self.execute(DEFAULT_TENANT, None, Op::Append { key, suffix })?.appended().len())
    }

    /// Adds `delta` to the decimal-integer value of `key` (creating it
    /// as `delta` when absent) and returns the new value.
    pub fn increment(&mut self, key: &[u8], delta: i64) -> Result<i64> {
        Ok(self.execute(DEFAULT_TENANT, None, Op::Increment { key, delta })?.counter())
    }

    /// Batched lookup; results in input order, `None` for a miss.
    pub fn multi_get(&mut self, batch: &[&[u8]]) -> Result<Vec<Option<Vec<u8>>>> {
        Ok(self.execute(DEFAULT_TENANT, None, Op::MultiGet(batch))?.values())
    }

    /// Batched write (no expiry).
    pub fn multi_set(&mut self, items: &[(&[u8], &[u8])]) -> Result<()> {
        self.execute(DEFAULT_TENANT, None, Op::MultiSet { items, expires_at: 0 }).map(|_| ())
    }

    /// Physically removes entries whose deadline is at or before `now`,
    /// returning the `(tenant, key)` pairs reaped so the store can
    /// WAL-log each removal (recovery must not resurrect them).
    ///
    /// Only entries whose MAC verifies under their owner's keys are
    /// reaped — a tampered `expires_at` cannot be laundered into a
    /// silent delete; it either fails the guarding verification here or
    /// trips [`Error::IntegrityViolation`] on the next read. Skipped
    /// while a snapshot freeze is active (the frozen table is immutable;
    /// lazy expiry keeps hiding dead entries until the next sweep).
    pub fn sweep_expired(
        &mut self,
        now: u64,
        registry: &TenantRegistry,
    ) -> Vec<(TenantId, Vec<u8>)> {
        let mut reaped = Vec::new();
        if self.temp.is_some() || self.quarantine.whole {
            return reaped;
        }
        // Pass 1 (read-only): collect authenticated expired candidates.
        let mut candidates: Vec<(TenantId, Vec<u8>)> = Vec::new();
        {
            let main = self.main.as_ref().expect("main table present");
            let mut handles = Vec::new();
            main.for_each_entry(|bucket, handle| handles.push((bucket, handle)));
            for (bucket, handle) in handles {
                // Quarantined sets are out of bounds — membership is
                // checked directly so the sweep does not inflate the
                // `quarantine_rejections` client-op counter.
                if self.quarantine.sets.contains(&main.sets.set_of(bucket)) {
                    continue;
                }
                let Some(header) = main.try_header(handle) else { continue };
                if !header.expired_at(now) {
                    continue;
                }
                let Some(ct) = main.try_ciphertext(handle, &header) else { continue };
                let owner = self.keys.tenant_keys(header.tenant);
                if !entry::verify_mac(&owner.mac, &header, ct) {
                    continue;
                }
                candidates.push((header.tenant, entry::decrypt_key(&owner.enc, &header, ct)));
            }
        }
        // Pass 2: reap through the normal verified delete path, so the
        // set hashes and MAC chains are maintained like any other write.
        for (tenant, key) in candidates {
            let state = registry.state(tenant);
            let tkeys = self.keys.tenant_keys(tenant);
            let op =
                OpCtx { tenant, tkeys: &tkeys, now, expires_at: 0, state: Some(state.as_ref()) };
            let r = self.remove(&op, &key, true);
            if let Ok(true) = self.observe(r) {
                self.stats.expired_swept += 1;
                state.usage.expired_swept.fetch_add(1, AtomicOrdering::SeqCst);
                reaped.push((tenant, key));
            }
            if self.quarantine.whole {
                break;
            }
        }
        reaped
    }

    /// Tallies live per-tenant occupancy — `(bytes, keys)` per tenant —
    /// straight from the table headers. Used by the store to re-baseline
    /// quota accounting after restore/recovery (expired-but-unswept
    /// entries still count: they still occupy untrusted memory).
    pub(crate) fn usage_by_tenant(&self) -> HashMap<TenantId, (u64, u64)> {
        let mut out = HashMap::new();
        if let Some(main) = self.main.as_ref() {
            tally_usage(main, &mut out);
        } else if let Some(frozen) = self.frozen.as_ref() {
            tally_usage(frozen, &mut out);
        }
        if let Some(temp) = self.temp.as_ref() {
            tally_usage(&temp.ctx, &mut out);
        }
        out
    }

    /// The number of live entries (main + temp tables). Entries past
    /// their deadline but not yet swept still count.
    pub fn len(&self) -> usize {
        let base = self
            .main
            .as_ref()
            .map(|m| m.count)
            .or_else(|| self.frozen.as_ref().map(|f| f.count))
            .unwrap_or(0);
        let temp = self.temp.as_ref().map(|t| t.ctx.count).unwrap_or(0);
        base + temp
    }

    /// True when the shard holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This shard's operation counters.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// This shard's latency histograms.
    pub fn hists(&self) -> &OpHists {
        &self.hists
    }

    /// Resets the operation counters and latency histograms.
    pub fn reset_stats(&mut self) {
        self.stats = OpStats::default();
        self.hists = OpHists::default();
    }

    /// Folds this shard's counters, histograms, and occupancy gauges into
    /// a store-wide snapshot. Called under the shard lock, so the
    /// contribution is internally consistent.
    pub(crate) fn contribute_snapshot(&self, snap: &mut StatsSnapshot) {
        snap.ops.merge(&self.stats);
        snap.hists.merge(&self.hists);
        snap.entries += self.len() as u64;
        let mut add_table = |ctx: &TableCtx| {
            snap.heap_live_bytes += ctx.heap.live_bytes() as u64;
            snap.heap_chunks += ctx.heap.chunk_count() as u64;
        };
        if let Some(main) = self.main.as_ref() {
            add_table(main);
        }
        if let Some(frozen) = self.frozen.as_ref() {
            add_table(frozen);
        }
        if let Some(temp) = self.temp.as_ref() {
            add_table(&temp.ctx);
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

    /// The shard's configuration.
    pub(crate) fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Read access to the main table (diagnostics / persistence).
    pub(crate) fn main_table(&self) -> Option<&TableCtx> {
        self.main.as_ref()
    }

    /// Mutable access to the main table (persistence restore).
    pub(crate) fn main_table_mut(&mut self) -> Option<&mut TableCtx> {
        self.main.as_mut()
    }

    /// Approximate enclave bytes consumed by the ordered index (0 when
    /// disabled) — check this against the EPC budget before enabling the
    /// index on large key counts.
    pub fn index_bytes(&self) -> usize {
        self.index.as_ref().map(|i| i.approx_bytes()).unwrap_or(0)
    }

    /// Rebuilds the ordered index from the main table (snapshot restore).
    pub(crate) fn rebuild_index(&mut self) -> Result<()> {
        if !self.cfg.ordered_index {
            return Ok(());
        }
        let mut index = OrderedIndex::new();
        let main = self.main.as_ref().expect("main table present");
        let mut bad = false;
        main.for_each_entry(|_, handle| {
            let header = main.header(handle);
            match main.try_ciphertext(handle, &header) {
                Some(ct) => {
                    let tkeys = self.keys.tenant_keys(header.tenant);
                    let key = entry::decrypt_key(&tkeys.enc, &header, ct);
                    index.insert(&nskey(header.tenant, &key));
                }
                None => bad = true,
            }
        });
        if bad {
            return Err(Error::IntegrityViolation { bucket: 0 });
        }
        self.index = Some(index);
        Ok(())
    }

    /// True when a snapshot is in progress (temp table active).
    pub fn is_snapshotting(&self) -> bool {
        self.temp.is_some()
    }

    /// Verifies every bucket set of the main table — used after a
    /// snapshot restore to authenticate the reconstructed table against
    /// the sealed MAC hash array.
    pub fn verify_all_sets(&mut self) -> Result<()> {
        let main = self.main.as_ref().expect("main table present");
        for set in 0..main.sets.num_sets() {
            verify_set(&self.cfg, &self.keys, main, &mut self.stats, set, &mut self.scratch.set)?;
        }
        // With MAC bucketing, also cross-check every chain length so an
        // unlinked entry in the restored table cannot hide.
        for bucket in 0..main.buckets() {
            verify_absence_consistency(&self.cfg, main, &mut self.scratch, bucket)?;
        }
        Ok(())
    }

    /// Freezes the main table for a snapshot: the returned `Arc` is handed
    /// to the snapshot writer; subsequent writes go to a fresh temporary
    /// table (Algorithm 1).
    pub(crate) fn freeze(&mut self) -> Arc<TableCtx> {
        assert!(self.temp.is_none(), "snapshot already in progress");
        let main = self.main.take().expect("main table present");
        let arc = Arc::new(main);
        self.frozen = Some(Arc::clone(&arc));
        // The temporary table is small: writes during a snapshot window are
        // bounded, and it is merged away afterwards.
        let temp_buckets = (self.cfg.buckets / 16).max(64);
        let heap = UntrustedHeap::new(Arc::clone(&self.enclave), self.cfg.alloc);
        let ctx = TableCtx::new(heap, temp_buckets, MacStore::plain(temp_buckets));
        self.temp = Some(TempTable { ctx, tombstones: HashSet::new() });
        arc
    }

    /// Unfreezes after the snapshot writer has dropped its `Arc`,
    /// merging the temporary table back into the main one. Quota
    /// accounting is re-baselined by the store afterwards (via
    /// [`Shard::usage_by_tenant`]), so the unmetered merge here cannot
    /// leave usage drifted.
    pub(crate) fn unfreeze(&mut self) -> Result<()> {
        let arc = self.frozen.take().expect("freeze() must precede unfreeze()");
        let mut main = Arc::try_unwrap(arc).map_err(|arc| {
            self.frozen = Some(arc);
            Error::Persistence("snapshot writer still holds the frozen table".into())
        })?;
        let temp = self.temp.take().expect("temp accompanies frozen");
        let now = ttl::now_ns();

        // Apply deletions first, then replay temp-table writes.
        for ns in &temp.tombstones {
            let (tenant, key) = split_nskey(ns);
            let tkeys = self.keys.tenant_keys(tenant);
            let op = OpCtx { tenant, tkeys: &tkeys, now, expires_at: 0, state: None };
            let _ = delete_in(
                &self.cfg,
                &self.keys,
                &op,
                &mut main,
                &mut self.stats,
                &mut self.scratch,
                key,
                true,
            )?;
        }
        let mut handles = Vec::new();
        temp.ctx.for_each_entry(|_, h| handles.push(h));
        let mut plain = Vec::new();
        for h in handles {
            let header = temp.ctx.header(h);
            let ct = temp.ctx.ciphertext(h, &header);
            let tkeys = self.keys.tenant_keys(header.tenant);
            // Fused verify+decrypt of the temp-table entry before it is
            // re-sealed into the merged main table.
            if !entry::open_entry(&tkeys.enc, &tkeys.mac, &header, ct, &mut plain) {
                return Err(Error::IntegrityViolation { bucket: 0 });
            }
            let (key, value) = plain.split_at(header.key_len as usize);
            let op = OpCtx {
                tenant: header.tenant,
                tkeys: &tkeys,
                now,
                expires_at: header.expires_at,
                state: None,
            };
            set_in(
                &self.cfg,
                &self.keys,
                &op,
                &mut main,
                &mut self.stats,
                &mut self.scratch,
                key,
                value,
            )?;
        }
        self.main = Some(main);
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::enclave::EnclaveBuilder;
    use sgx_sim::vclock;

    fn shard_with(cfg: Config) -> Shard {
        let enclave = EnclaveBuilder::new("shard-test").epc_bytes(4 << 20).build();
        let keys = Arc::new(StoreKeys::generate(&enclave));
        Shard::new(enclave, keys, ShardConfig::from_config(&cfg)).unwrap()
    }

    fn small_cfg() -> Config {
        Config::shield_opt().buckets(64).mac_hashes(16).with_shards(1)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"alpha", b"one").unwrap();
        s.set(b"beta", b"two").unwrap();
        assert_eq!(s.get(b"alpha").unwrap(), b"one");
        assert_eq!(s.get(b"beta").unwrap(), b"two");
        assert_eq!(s.get(b"gamma"), Err(Error::KeyNotFound));
        assert_eq!(s.len(), 2);
        vclock::reset();
    }

    #[test]
    fn update_overwrites_and_bumps_counter() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"k", b"v1").unwrap();
        s.set(b"k", b"v2-longer-than-before").unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v2-longer-than-before");
        assert_eq!(s.len(), 1);
        assert_eq!(s.stats().inserts, 1);
        assert_eq!(s.stats().inplace_updates + s.stats().realloc_updates, 1);
        vclock::reset();
    }

    #[test]
    fn in_place_vs_realloc_updates() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"k", &[0u8; 10]).unwrap();
        s.set(b"k", &[1u8; 11]).unwrap(); // same size class
        assert_eq!(s.stats().inplace_updates, 1);
        s.set(b"k", &[2u8; 500]).unwrap(); // outgrows class
        assert_eq!(s.stats().realloc_updates, 1);
        assert_eq!(s.get(b"k").unwrap(), vec![2u8; 500]);
        vclock::reset();
    }

    #[test]
    fn delete_removes() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"k", b"v").unwrap();
        s.delete(b"k").unwrap();
        assert_eq!(s.get(b"k"), Err(Error::KeyNotFound));
        assert_eq!(s.delete(b"k"), Err(Error::KeyNotFound));
        assert_eq!(s.len(), 0);
        vclock::reset();
    }

    #[test]
    fn chains_survive_many_colliding_keys() {
        // A single bucket forces every key into one chain.
        let cfg = Config::shield_opt().buckets(1).mac_hashes(1);
        let mut s = shard_with(cfg);
        vclock::reset();
        for i in 0..50u32 {
            s.set(format!("key-{i}").as_bytes(), format!("val-{i}").as_bytes()).unwrap();
        }
        for i in 0..50u32 {
            assert_eq!(
                s.get(format!("key-{i}").as_bytes()).unwrap(),
                format!("val-{i}").as_bytes()
            );
        }
        // Delete odd keys and re-check.
        for i in (1..50u32).step_by(2) {
            s.delete(format!("key-{i}").as_bytes()).unwrap();
        }
        for i in 0..50u32 {
            let r = s.get(format!("key-{i}").as_bytes());
            if i % 2 == 0 {
                assert!(r.is_ok());
            } else {
                assert_eq!(r, Err(Error::KeyNotFound));
            }
        }
        vclock::reset();
    }

    #[test]
    fn append_and_increment() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        assert_eq!(s.append(b"log", b"hello ").unwrap(), 6);
        assert_eq!(s.append(b"log", b"world").unwrap(), 11);
        assert_eq!(s.get(b"log").unwrap(), b"hello world");

        assert_eq!(s.increment(b"ctr", 5).unwrap(), 5);
        assert_eq!(s.increment(b"ctr", -2).unwrap(), 3);
        assert_eq!(s.get(b"ctr").unwrap(), b"3");

        s.set(b"text", b"not a number").unwrap();
        assert_eq!(s.increment(b"text", 1), Err(Error::ValueNotNumeric));
        vclock::reset();
    }

    #[test]
    fn increment_overflow_detected() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"c", i64::MAX.to_string().as_bytes()).unwrap();
        assert_eq!(s.increment(b"c", 1), Err(Error::NumericOverflow));
        vclock::reset();
    }

    #[test]
    fn key_hint_reduces_decryptions() {
        // One bucket, many keys: without hints, every search decrypts the
        // whole chain; with hints it decrypts ~1/256 of it (Fig. 9).
        let n = 64u32;
        let mut with_hint = shard_with(Config::shield_opt().buckets(1).mac_hashes(1));
        let mut without = shard_with(
            Config { key_hint: false, two_step_search: false, ..Config::shield_opt() }
                .buckets(1)
                .mac_hashes(1),
        );
        vclock::reset();
        for s in [&mut with_hint, &mut without] {
            for i in 0..n {
                s.set(format!("key-{i}").as_bytes(), b"v").unwrap();
            }
            s.reset_stats();
            for i in 0..n {
                s.get(format!("key-{i}").as_bytes()).unwrap();
            }
        }
        assert!(
            with_hint.stats().key_decryptions * 4 < without.stats().key_decryptions,
            "hints: {} vs no hints: {}",
            with_hint.stats().key_decryptions,
            without.stats().key_decryptions
        );
        vclock::reset();
    }

    #[test]
    fn integrity_violation_detected_on_value_tamper() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"victim", b"original-value").unwrap();
        // Corrupt the entry ciphertext in untrusted memory.
        let (handle, _) = {
            let main = s.main_table().unwrap();
            let mut found = None;
            main.for_each_entry(|b, h| found = Some((h, b)));
            found.unwrap()
        };
        let main = s.main.as_mut().unwrap();
        main.heap.bytes_at_mut(handle, entry::HEADER_LEN, 1)[0] ^= 0xff;
        assert!(matches!(s.get(b"victim"), Err(Error::IntegrityViolation { .. })));
        vclock::reset();
    }

    #[test]
    fn integrity_violation_detected_on_entry_removal() {
        // Unlinking an entry from the chain (availability attack on the
        // index) must be caught when the victim key is looked up: the
        // miss-path consistency check compares chain length against the
        // MAC chain. Other keys keep working (they prove themselves).
        let cfg = Config::shield_opt().buckets(1).mac_hashes(1);
        let mut s = shard_with(cfg);
        vclock::reset();
        s.set(b"a", b"1").unwrap();
        s.set(b"b", b"2").unwrap(); // chain head: b -> a
                                    // Drop the chain head ("b") behind the store's back.
        let main = s.main.as_mut().unwrap();
        let head = main.heads[0];
        let next = main.heap.read_u64_at(head, entry::OFF_NEXT);
        main.heads[0] = next;
        // The surviving key still reads correctly.
        assert_eq!(s.get(b"a").unwrap(), b"1");
        // The unlinked key surfaces as tampering, not a silent miss.
        assert!(matches!(s.get(b"b"), Err(Error::IntegrityViolation { .. })));
        // Inserting into the corrupted bucket is refused too.
        assert!(matches!(s.set(b"c", b"3"), Err(Error::IntegrityViolation { .. })));
        vclock::reset();
    }

    #[test]
    fn entry_removal_without_mac_bucket_detected_by_set_hash() {
        // Without MAC bucketing the gather walks the chain itself, so an
        // unlink changes the recomputed set hash for ANY access.
        let cfg = Config { mac_bucket: false, ..Config::shield_opt() }.buckets(1).mac_hashes(1);
        let mut s = shard_with(cfg);
        vclock::reset();
        s.set(b"a", b"1").unwrap();
        s.set(b"b", b"2").unwrap();
        let main = s.main.as_mut().unwrap();
        let head = main.heads[0];
        let next = main.heap.read_u64_at(head, entry::OFF_NEXT);
        main.heads[0] = next;
        assert!(matches!(s.get(b"a"), Err(Error::IntegrityViolation { .. })));
        vclock::reset();
    }

    #[test]
    fn hint_corruption_defeated_by_two_step_search() {
        let cfg = Config::shield_opt().buckets(1).mac_hashes(1);
        let mut s = shard_with(cfg);
        vclock::reset();
        s.set(b"target", b"payload").unwrap();
        // Attacker flips the key hint in untrusted memory. The MAC covers
        // the hint, so verification would fail on the *found* entry — but
        // first the search must still find it via the two-step fallback.
        let mut handle = None;
        s.main_table().unwrap().for_each_entry(|_, h| handle = Some(h));
        let main = s.main.as_mut().unwrap();
        main.heap.bytes_at_mut(handle.unwrap(), entry::OFF_HINT, 1)[0] ^= 0xff;
        // The hint is MAC-covered, so the get reports tampering rather
        // than silently missing the key (availability attack detected).
        let r = s.get(b"target");
        assert!(
            matches!(r, Err(Error::IntegrityViolation { .. })),
            "two-step search must find the entry and expose the tamper: {r:?}"
        );
        vclock::reset();
    }

    /// Hints are not reads. Every pointer the lookup hints — an entry's
    /// `next`, a bucket's `mac_heads` slot, a MAC node's `next` — is
    /// planted with each wild value in turn; every op either serves what
    /// it can prove or fails closed, exactly as before there were hints.
    #[test]
    fn wild_pointers_are_hinted_harmlessly_and_fail_closed() {
        #[derive(Debug, Clone, Copy)]
        enum Site {
            EntryNext,
            MacHead,
            MacNodeNext,
        }
        let violation = |r: Result<Vec<u8>>| matches!(r, Err(Error::IntegrityViolation { .. }));
        for mac_bucket in [true, false] {
            for site in [Site::EntryNext, Site::MacHead, Site::MacNodeNext] {
                for wild in 0..4 {
                    let cfg =
                        Config { mac_bucket, ..Config::shield_opt() }.buckets(1).mac_hashes(1);
                    let mut s = shard_with(cfg);
                    vclock::reset();
                    for key in [b"a", b"b", b"c"] {
                        s.set(key, &[key[0]; 600]).unwrap(); // chain: c -> b -> a
                    }
                    let main = s.main.as_mut().unwrap();
                    let wild = main.heap.wild_handles()[wild];
                    match site {
                        Site::EntryNext => {
                            main.heap.write_u64_at(main.heads[0], entry::OFF_NEXT, wild)
                        }
                        Site::MacHead => main.mac_heads[0] = wild,
                        Site::MacNodeNext if mac_bucket => {
                            main.heap.write_u64_at(main.mac_heads[0], 0, wild)
                        }
                        // No MAC nodes to corrupt without MAC bucketing.
                        Site::MacNodeNext => continue,
                    }
                    let case = format!("{site:?} = {wild:#x}, mac_bucket {mac_bucket}");

                    // The chain head is found before its `next` is ever
                    // followed, so only a broken set hash can refuse it:
                    // the MAC side chain when there is one, else the
                    // entry chain itself. `mac_heads` is dead weight
                    // without MAC bucketing.
                    let head = s.get(b"c");
                    match (site, mac_bucket) {
                        (Site::EntryNext, true) | (Site::MacHead, false) => {
                            assert_eq!(head.as_deref(), Ok([b'c'; 600].as_slice()), "{case}")
                        }
                        _ => assert!(violation(head), "{case}"),
                    }
                    if matches!((site, mac_bucket), (Site::MacHead, false)) {
                        assert_eq!(s.get(b"a").as_deref(), Ok([b'a'; 600].as_slice()), "{case}");
                        continue;
                    }
                    // Everything that has to walk past the planted
                    // pointer fails closed, reads and writes, single and
                    // batched — and nothing has panicked on the way.
                    assert!(violation(s.get(b"b")), "{case}");
                    assert!(violation(s.get(b"absent")), "{case}");
                    assert!(violation(s.set(b"d", b"new").map(|()| vec![])), "{case}");
                    assert!(violation(s.delete(b"a").map(|()| vec![])), "{case}");
                    assert!(
                        matches!(
                            s.multi_get(&[b"c".as_slice(), b"a".as_slice()]),
                            Err(Error::IntegrityViolation { .. })
                        ),
                        "{case}"
                    );
                    assert!(
                        matches!(
                            s.multi_set(&[(b"e".as_slice(), b"v".as_slice())]),
                            Err(Error::IntegrityViolation { .. })
                        ),
                        "{case}"
                    );
                    vclock::reset();
                }
            }
        }
    }

    #[test]
    fn snapshot_freeze_serves_reads_and_absorbs_writes() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"stable", b"before").unwrap();
        s.set(b"mutated", b"before").unwrap();
        let frozen = s.freeze();
        assert!(s.is_snapshotting());

        // Reads hit the frozen table.
        assert_eq!(s.get(b"stable").unwrap(), b"before");
        // Writes land in the temp table and shadow the frozen value.
        s.set(b"mutated", b"after").unwrap();
        s.set(b"fresh", b"new").unwrap();
        assert_eq!(s.get(b"mutated").unwrap(), b"after");
        assert_eq!(s.get(b"fresh").unwrap(), b"new");
        // Deletes are tombstoned.
        s.delete(b"stable").unwrap();
        assert_eq!(s.get(b"stable"), Err(Error::KeyNotFound));

        // The frozen table is unchanged throughout.
        assert_eq!(frozen.count, 2);

        drop(frozen);
        s.unfreeze().unwrap();
        assert!(!s.is_snapshotting());
        assert_eq!(s.get(b"mutated").unwrap(), b"after");
        assert_eq!(s.get(b"fresh").unwrap(), b"new");
        assert_eq!(s.get(b"stable"), Err(Error::KeyNotFound));
        assert_eq!(s.len(), 2);
        vclock::reset();
    }

    #[test]
    fn unfreeze_fails_while_writer_active() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"k", b"v").unwrap();
        let frozen = s.freeze();
        assert!(matches!(s.unfreeze(), Err(Error::Persistence(_))));
        drop(frozen);
        s.unfreeze().unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v");
        vclock::reset();
    }

    #[test]
    fn snapshot_set_then_delete_then_set_roundtrips() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"k", b"v0").unwrap();
        let frozen = s.freeze();
        s.delete(b"k").unwrap();
        s.set(b"k", b"v1").unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v1");
        drop(frozen);
        s.unfreeze().unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v1");
        assert_eq!(s.len(), 1);
        vclock::reset();
    }

    #[test]
    fn cache_serves_hot_reads() {
        let mut s = shard_with(small_cfg().with_cache(1 << 16));
        s.enable_cache(1 << 16);
        vclock::reset();
        s.set(b"hot", b"value").unwrap();
        for _ in 0..10 {
            assert_eq!(s.get(b"hot").unwrap(), b"value");
        }
        assert!(s.stats().cache_hits >= 9, "cache hits: {}", s.stats().cache_hits);
        // Updates keep the cache coherent.
        s.set(b"hot", b"value2").unwrap();
        assert_eq!(s.get(b"hot").unwrap(), b"value2");
        s.delete(b"hot").unwrap();
        assert_eq!(s.get(b"hot"), Err(Error::KeyNotFound));
        vclock::reset();
    }

    #[test]
    fn empty_key_rejected() {
        let mut s = shard_with(small_cfg());
        assert!(matches!(s.set(b"", b"v"), Err(Error::OversizeItem { .. })));
    }

    #[test]
    fn multi_set_multi_get_roundtrip_with_misses() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..20u32)
            .map(|i| (format!("key-{i}").into_bytes(), format!("val-{i}").into_bytes()))
            .collect();
        let refs: Vec<(&[u8], &[u8])> =
            items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        s.multi_set(&refs).unwrap();

        let mut lookups: Vec<&[u8]> = items.iter().map(|(k, _)| k.as_slice()).collect();
        lookups.push(b"absent-key");
        let got = s.multi_get(&lookups).unwrap();
        assert_eq!(got.len(), 21);
        for (i, (_, v)) in items.iter().enumerate() {
            assert_eq!(got[i].as_deref(), Some(v.as_slice()));
        }
        assert_eq!(got[20], None);
        assert_eq!(s.stats().batches, 2);
        assert_eq!(s.stats().batch_ops, 41);
        vclock::reset();
    }

    #[test]
    fn multi_set_duplicate_keys_last_write_wins() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.multi_set(&[
            (b"dup".as_slice(), b"first".as_slice()),
            (b"other", b"x"),
            (b"dup", b"second"),
            (b"dup", b"third"),
        ])
        .unwrap();
        assert_eq!(s.get(b"dup").unwrap(), b"third");
        assert_eq!(s.len(), 2);
        vclock::reset();
    }

    #[test]
    fn batch_on_one_bucket_set_verifies_once() {
        // One bucket => one bucket set: the whole batch shares a single
        // set hash, so the batched path derives it exactly once.
        let mut s = shard_with(Config::shield_opt().buckets(1).mac_hashes(1));
        vclock::reset();
        let items: Vec<(Vec<u8>, Vec<u8>)> =
            (0..16u32).map(|i| (format!("k{i}").into_bytes(), b"v".to_vec())).collect();
        let refs: Vec<(&[u8], &[u8])> =
            items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();

        s.reset_stats();
        s.multi_set(&refs).unwrap();
        assert_eq!(s.stats().integrity_verifications, 1);
        assert_eq!(s.stats().batch_verifications_saved, 15);
        assert_eq!(s.stats().batch_hash_updates_saved, 15);

        let lookups: Vec<&[u8]> = items.iter().map(|(k, _)| k.as_slice()).collect();
        s.reset_stats();
        let got = s.multi_get(&lookups).unwrap();
        assert!(got.iter().all(|r| r.is_some()));
        assert_eq!(s.stats().integrity_verifications, 1);
        assert_eq!(s.stats().batch_verifications_saved, 15);
        vclock::reset();
    }

    #[test]
    fn batched_and_per_op_paths_agree() {
        let mut batched = shard_with(small_cfg());
        let mut per_op = shard_with(small_cfg());
        vclock::reset();
        let items: Vec<(Vec<u8>, Vec<u8>)> = (0..64u32)
            .map(|i| (format!("key-{i}").into_bytes(), format!("v{}", i * 7).into_bytes()))
            .collect();
        let refs: Vec<(&[u8], &[u8])> =
            items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
        batched.multi_set(&refs).unwrap();
        for (k, v) in &items {
            per_op.set(k, v).unwrap();
        }
        for (k, v) in &items {
            assert_eq!(batched.get(k).unwrap(), *v);
            assert_eq!(per_op.get(k).unwrap(), *v);
        }
        assert_eq!(batched.len(), per_op.len());
        vclock::reset();
    }

    #[test]
    fn multi_get_detects_tampering() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        for i in 0..8u32 {
            s.set(format!("k{i}").as_bytes(), b"value").unwrap();
        }
        use crate::testing::{EntryField, TamperOp};
        assert!(s.tamper(TamperOp::Field(EntryField::Any), 12345));
        let lookups: Vec<Vec<u8>> = (0..8u32).map(|i| format!("k{i}").into_bytes()).collect();
        let refs: Vec<&[u8]> = lookups.iter().map(|k| k.as_slice()).collect();
        assert!(matches!(s.multi_get(&refs), Err(Error::IntegrityViolation { .. })));
        vclock::reset();
    }

    #[test]
    fn batched_ops_during_snapshot_fall_back() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.set(b"old", b"frozen-value").unwrap();
        let frozen = s.freeze();
        s.multi_set(&[(b"new".as_slice(), b"temp-value".as_slice())]).unwrap();
        let got = s.multi_get(&[b"old".as_slice(), b"new", b"none"]).unwrap();
        assert_eq!(got[0].as_deref(), Some(b"frozen-value".as_slice()));
        assert_eq!(got[1].as_deref(), Some(b"temp-value".as_slice()));
        assert_eq!(got[2], None);
        drop(frozen);
        s.unfreeze().unwrap();
        assert_eq!(s.get(b"new").unwrap(), b"temp-value");
        vclock::reset();
    }

    #[test]
    fn multi_set_rejects_invalid_item_before_mutating() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        let r = s.multi_set(&[(b"good".as_slice(), b"v".as_slice()), (b"", b"v")]);
        assert!(matches!(r, Err(Error::OversizeItem { .. })));
        // Validation happens before any write: nothing landed.
        assert_eq!(s.len(), 0);
        vclock::reset();
    }

    #[test]
    fn quarantine_isolates_bucket_set_after_violation() {
        let mut s = shard_with(small_cfg().with_ordered_index().with_quarantine());
        vclock::reset();
        for i in 0..32u32 {
            s.set(format!("k{i}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        use crate::testing::{EntryField, TamperOp};
        assert!(s.tamper(TamperOp::Field(EntryField::Any), 7));
        // First sweep: exactly one key (the corrupted entry) surfaces
        // the violation; later keys in its bucket set fail closed as
        // quarantined, every other partition keeps serving.
        let mut victim_set = None;
        for i in 0..32u32 {
            let k = format!("k{i}");
            match s.get(k.as_bytes()) {
                Ok(v) => assert_eq!(v, format!("v{i}").into_bytes()),
                Err(Error::IntegrityViolation { .. }) => {
                    assert!(victim_set.is_none(), "only the tampered entry itself fails open");
                    victim_set = Some(s.set_of_key(k.as_bytes()));
                }
                Err(Error::Quarantined { .. }) => {
                    assert_eq!(Some(s.set_of_key(k.as_bytes())), victim_set);
                }
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        let victim_set = victim_set.expect("the sweep visits the tampered entry");
        let (whole, sets, violations) = s.quarantine_state();
        assert!(!whole);
        assert_eq!(sets, vec![victim_set]);
        assert_eq!(violations, 1);
        // Second sweep: Quarantined on the poisoned partition only, and
        // never a wrong value anywhere.
        for i in 0..32u32 {
            let k = format!("k{i}");
            let in_set = s.set_of_key(k.as_bytes()) == victim_set;
            match s.get(k.as_bytes()) {
                Ok(v) => {
                    assert!(!in_set);
                    assert_eq!(v, format!("v{i}").into_bytes());
                }
                Err(Error::Quarantined { .. }) => assert!(in_set),
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        // Every op class fails closed on the quarantined partition.
        let qk = (0..32u32)
            .map(|i| format!("k{i}"))
            .find(|k| s.set_of_key(k.as_bytes()) == victim_set)
            .unwrap();
        assert!(matches!(s.set(qk.as_bytes(), b"x"), Err(Error::Quarantined { .. })));
        assert!(matches!(s.delete(qk.as_bytes()), Err(Error::Quarantined { .. })));
        assert!(matches!(s.append(qk.as_bytes(), b"x"), Err(Error::Quarantined { .. })));
        assert!(matches!(s.increment(qk.as_bytes(), 1), Err(Error::Quarantined { .. })));
        assert!(matches!(
            s.execute(0, None, Op::Exists(qk.as_bytes())),
            Err(Error::Quarantined { .. })
        ));
        assert!(matches!(s.multi_get(&[qk.as_bytes()]), Err(Error::Quarantined { .. })));
        assert!(matches!(
            s.multi_set(&[(qk.as_bytes(), b"x".as_slice())]),
            Err(Error::Quarantined { .. })
        ));
        // Scans span partitions, so any quarantined set fails them.
        assert!(matches!(
            s.execute(0, None, Op::ScanPrefix { prefix: b"k", limit: 100 }),
            Err(Error::Quarantined { .. })
        ));
        assert!(s.stats().quarantine_rejections > 0);
        vclock::reset();
    }

    #[test]
    fn quarantine_escalates_to_whole_shard_on_repeat_violation() {
        let mut s = shard_with(small_cfg().with_quarantine());
        vclock::reset();
        let keys: Vec<String> = (0..32).map(|i| format!("k{i}")).collect();
        for k in &keys {
            s.set(k.as_bytes(), b"value").unwrap();
        }
        use crate::testing::{EntryField, TamperOp};
        // First violation: one bucket set quarantined.
        assert!(s.tamper(TamperOp::Field(EntryField::Any), 1));
        for k in &keys {
            let _ = s.get(k.as_bytes());
        }
        let (whole, sets, violations) = s.quarantine_state();
        assert!(!whole);
        assert_eq!((sets.len(), violations), (1, 1));
        // Keep corrupting entries until one lands outside the
        // quarantined partition; that second observed violation must
        // escalate the quarantine to the whole shard.
        for seed in 2..200u64 {
            assert!(s.tamper(TamperOp::Field(EntryField::Any), seed));
            for k in &keys {
                let _ = s.get(k.as_bytes());
            }
            if s.quarantine_state().0 {
                break;
            }
        }
        let (whole, _, violations) = s.quarantine_state();
        assert!(whole, "a violation outside the first set must escalate to the shard");
        assert_eq!(violations, 2);
        // Now every key fails closed, whatever its partition.
        for k in &keys {
            assert!(matches!(s.get(k.as_bytes()), Err(Error::Quarantined { .. })));
        }
        vclock::reset();
    }

    #[test]
    fn quarantine_escalates_during_snapshot_freeze() {
        let mut s = shard_with(small_cfg().with_quarantine());
        vclock::reset();
        for i in 0..8u32 {
            s.set(format!("k{i}").as_bytes(), b"value").unwrap();
        }
        use crate::testing::{EntryField, TamperOp};
        assert!(s.tamper(TamperOp::Field(EntryField::Any), 99));
        // With a snapshot overlay live, writes span the temp table, so
        // per-set isolation cannot be trusted: the first violation
        // quarantines the whole shard.
        let frozen = s.freeze();
        for i in 0..8u32 {
            let _ = s.get(format!("k{i}").as_bytes());
        }
        assert!(s.quarantine_state().0, "freeze-time violation must quarantine the shard");
        drop(frozen);
        vclock::reset();
    }

    #[test]
    fn quarantine_requires_opt_in() {
        // Without Config::quarantine the shard keeps reporting the raw
        // verification outcome on every access (differential harnesses
        // depend on that), and records no quarantine state.
        let mut s = shard_with(small_cfg());
        vclock::reset();
        for i in 0..8u32 {
            s.set(format!("k{i}").as_bytes(), b"value").unwrap();
        }
        use crate::testing::{EntryField, TamperOp};
        assert!(s.tamper(TamperOp::Field(EntryField::Any), 3));
        let mut violations = 0;
        for _ in 0..2 {
            for i in 0..8u32 {
                match s.get(format!("k{i}").as_bytes()) {
                    Ok(_) => {}
                    Err(Error::IntegrityViolation { .. }) => violations += 1,
                    other => panic!("unexpected outcome: {other:?}"),
                }
            }
        }
        assert_eq!(violations, 2, "same violation reported on every access");
        assert_eq!(s.quarantine_state(), (false, Vec::new(), 0));
        assert_eq!(s.stats().quarantine_rejections, 0);
        vclock::reset();
    }

    #[test]
    fn mac_bucket_and_chain_gathers_agree() {
        // The same workload with and without MAC bucketing must behave
        // identically (the MAC bucket is an optimization, not semantics).
        let mut with = shard_with(small_cfg());
        let mut without = shard_with(Config { mac_bucket: false, ..small_cfg() });
        vclock::reset();
        for i in 0..100u32 {
            let k = format!("k{i}");
            with.set(k.as_bytes(), k.as_bytes()).unwrap();
            without.set(k.as_bytes(), k.as_bytes()).unwrap();
        }
        for i in (0..100u32).step_by(3) {
            let k = format!("k{i}");
            with.delete(k.as_bytes()).unwrap();
            without.delete(k.as_bytes()).unwrap();
        }
        for i in 0..100u32 {
            let k = format!("k{i}");
            assert_eq!(with.get(k.as_bytes()).is_ok(), without.get(k.as_bytes()).is_ok());
        }
        vclock::reset();
    }

    // -- tenancy, TTL, quota ------------------------------------------

    use crate::tenant::{TenantQuota, TenantState, TenantUsage};

    #[test]
    fn tenants_are_isolated_namespaces() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.execute(1, None, Op::set(b"k", b"one")).unwrap();
        s.execute(2, None, Op::set(b"k", b"two")).unwrap();
        s.set(b"k", b"zero").unwrap(); // tenant 0 sugar
        assert_eq!(s.execute(1, None, Op::Get(b"k")).unwrap().value().unwrap(), b"one");
        assert_eq!(s.execute(2, None, Op::Get(b"k")).unwrap().value().unwrap(), b"two");
        assert_eq!(s.get(b"k").unwrap(), b"zero");
        assert_eq!(s.len(), 3, "same key in three namespaces = three entries");
        assert_eq!(s.execute(3, None, Op::Get(b"k")), Ok(Reply::Value(None)));
        assert_eq!(s.execute(1, None, Op::Delete(b"k")), Ok(Reply::Deleted(true)));
        assert_eq!(s.execute(1, None, Op::Get(b"k")), Ok(Reply::Value(None)));
        assert_eq!(
            s.execute(2, None, Op::Get(b"k")).unwrap().value().unwrap(),
            b"two",
            "delete stays in its namespace"
        );
        vclock::reset();
    }

    #[test]
    fn cache_respects_tenant_namespaces() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        s.enable_cache(64 << 10);
        s.execute(1, None, Op::set(b"k", b"secret")).unwrap();
        assert_eq!(s.execute(1, None, Op::Get(b"k")).unwrap().value().unwrap(), b"secret");
        assert_eq!(s.execute(1, None, Op::Get(b"k")).unwrap().value().unwrap(), b"secret"); // cache hit
        assert!(s.stats().cache_hits >= 1);
        // Tenant 2's view of the same byte key must not touch tenant 1's
        // cached plaintext.
        assert_eq!(s.execute(2, None, Op::Get(b"k")), Ok(Reply::Value(None)));
        vclock::reset();
    }

    #[test]
    fn ttl_lazy_expiry_and_sweep() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        let live = ttl::now_ns() + 3_600_000_000_000; // +1h
        s.execute(0, None, Op::set(b"eternal", b"e")).unwrap();
        s.execute(0, None, Op::Set { key: b"live", value: b"l", expires_at: live }).unwrap();
        s.execute(0, None, Op::Set { key: b"dead", value: b"d", expires_at: 1 }).unwrap(); // long expired
        assert_eq!(s.len(), 3);

        // Lazy expiry: reads hide the dead entry without mutating.
        assert_eq!(s.get(b"dead"), Err(Error::KeyNotFound));
        assert_eq!(s.stats().expired_lazy, 1);
        assert_eq!(s.len(), 3, "lazy expiry does not remove");
        assert_eq!(s.execute(0, None, Op::Exists(b"dead")), Ok(Reply::Exists(false)));

        // Delete of an expired entry is KeyNotFound *without* removal:
        // physical reap is the sweep's job (it gets WAL-logged there).
        assert_eq!(s.delete(b"dead"), Err(Error::KeyNotFound));
        assert_eq!(s.len(), 3);

        let reg = TenantRegistry::new();
        let reaped = s.sweep_expired(ttl::now_ns(), &reg);
        assert_eq!(reaped, vec![(0, b"dead".to_vec())]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.stats().expired_swept, 1);
        assert_eq!(s.get(b"eternal").unwrap(), b"e");
        assert_eq!(s.get(b"live").unwrap(), b"l");
        vclock::reset();
    }

    #[test]
    fn ttl_reset_on_set_and_cleared_by_merge_ops() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        let reg = TenantRegistry::new();

        // SET replaces the deadline wholesale (Redis semantics).
        s.execute(0, None, Op::Set { key: b"k", value: b"v1", expires_at: 1 }).unwrap();
        assert_eq!(s.get(b"k"), Err(Error::KeyNotFound));
        s.set(b"k", b"v2").unwrap();
        assert_eq!(s.get(b"k").unwrap(), b"v2", "overwrite revives: deadline replaced");

        // Append/increment clear any deadline: their WAL form is a plain
        // set of the produced value, which must replay deadline-free.
        let horizon = ttl::now_ns() + 3_600_000_000_000;
        s.execute(0, None, Op::Set { key: b"n", value: b"5", expires_at: horizon }).unwrap();
        assert_eq!(s.increment(b"n", 2).unwrap(), 7);
        let far = ttl::now_ns() + 7_200_000_000_000; // past the old deadline
        assert!(s.sweep_expired(far, &reg).is_empty(), "increment cleared the deadline");
        assert_eq!(s.get(b"n").unwrap(), b"7");
        vclock::reset();
    }

    #[test]
    fn quota_rejects_inserts_but_allows_updates() {
        let mut s = shard_with(small_cfg());
        vclock::reset();
        let entry_cost = (entry::HEADER_LEN + 1 + 3) as u64; // 1-byte key, 3-byte value
        let state = TenantState {
            quota: TenantQuota { max_bytes: 2 * entry_cost + 8, max_keys: 2, weight: 1 },
            usage: Arc::new(TenantUsage::default()),
        };

        s.execute(7, Some(&state), Op::set(b"a", b"aaa")).unwrap();
        s.execute(7, Some(&state), Op::set(b"b", b"bbb")).unwrap();
        assert_eq!(
            s.execute(7, Some(&state), Op::set(b"c", b"ccc")),
            Err(Error::QuotaExceeded { tenant: 7 }),
            "third insert exceeds max_keys"
        );
        assert_eq!(s.stats().quota_rejections, 1);
        assert_eq!(s.len(), 2, "rejected insert left no residue");

        // Same-size update is free; growth must fit the byte budget.
        s.execute(7, Some(&state), Op::set(b"a", b"AAA")).unwrap();
        assert_eq!(
            s.execute(7, Some(&state), Op::set(b"a", vec![0u8; 64].as_slice())),
            Err(Error::QuotaExceeded { tenant: 7 })
        );
        assert_eq!(
            s.execute(7, Some(&state), Op::Get(b"a")).unwrap().value().unwrap(),
            b"AAA",
            "failed grow left old value"
        );

        // Deleting frees budget for a new insert.
        assert_eq!(s.execute(7, Some(&state), Op::Delete(b"b")), Ok(Reply::Deleted(true)));
        s.execute(7, Some(&state), Op::set(b"c", b"ccc")).unwrap();
        assert_eq!(state.usage.used_keys.load(AtomicOrdering::SeqCst), 2);
        assert_eq!(state.usage.used_bytes.load(AtomicOrdering::SeqCst), 2 * entry_cost);
        vclock::reset();
    }

    #[test]
    fn tenant_field_rewrite_fails_closed() {
        // An attacker re-stitching an entry into another namespace by
        // editing the plaintext tenant field must trip verification under
        // *both* the claimed and the true owner's keys.
        let mut cfg = small_cfg();
        cfg = cfg.buckets(1);
        let mut s = shard_with(cfg);
        vclock::reset();
        s.execute(1, None, Op::set(b"k", b"owned")).unwrap();

        let main = s.main.as_mut().unwrap();
        let mut handle = None;
        main.for_each_entry(|_, h| handle = Some(h));
        main.heap.bytes_at_mut(handle.unwrap(), entry::OFF_TENANT, 4)[0] ^= 0x03;

        assert!(matches!(s.execute(2, None, Op::Get(b"k")), Err(Error::IntegrityViolation { .. })));
        assert!(matches!(s.execute(1, None, Op::Get(b"k")), Err(Error::IntegrityViolation { .. })));
        vclock::reset();
    }

    /// Where the tamper matrix flips one bit.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Flip {
        /// The victim's MAC in its bucket's side array (MAC bucketing).
        MacNode,
        /// A MAC the set hash gathers from another bucket of the victim's
        /// set: in the side array with MAC bucketing, else the head
        /// entry's stored tag.
        NeighbourMac,
        /// `NeighbourMac` and `CiphertextValue`: set hash and entry MAC
        /// both fail, the set's verdict must come first.
        NeighbourMacAndValue,
        /// `NeighbourMac` and `CiphertextKey`: set hash and search both
        /// fail.
        NeighbourMacAndKey,
        CiphertextKey,
        CiphertextValue,
        Hint,
        KeyLen,
        ValLen,
        Tenant,
        ExpiresAt,
        Iv,
        StoredTag,
        /// The victim's own `next` (it is the chain tail).
        Next,
        /// The `next` of the entry before the victim.
        NextOfPredecessor,
    }

    /// What an op on the victim key reported.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Seen {
        Served,
        Miss,
        /// `IntegrityViolation` at the first bucket of the victim's set:
        /// the set-hash verdict.
        AtSetStart,
        /// `IntegrityViolation` at the victim's own bucket: the search's,
        /// the entry MAC's or a side-array check's verdict.
        AtBucket,
    }

    const FLIPS: [Flip; 15] = [
        Flip::MacNode,
        Flip::NeighbourMac,
        Flip::NeighbourMacAndValue,
        Flip::NeighbourMacAndKey,
        Flip::CiphertextKey,
        Flip::CiphertextValue,
        Flip::Hint,
        Flip::KeyLen,
        Flip::ValLen,
        Flip::Tenant,
        Flip::ExpiresAt,
        Flip::Iv,
        Flip::StoredTag,
        Flip::Next,
        Flip::NextOfPredecessor,
    ];

    /// What get, set and delete of the victim reported at the commit before
    /// the lockstep kernel (a `multi_get` reported what the get did). A set or delete never opens the old value, so
    /// a flipped value byte or length goes unseen by them (the set
    /// overwrites it); a delete authenticates only a deadline it is about
    /// to honour. Without MAC bucketing the set hash is derived from the
    /// chain itself, so a stored tag or a `next` is the set's to catch.
    fn recorded_verdicts(mac_bucket: bool, flip: Flip) -> [Seen; 3] {
        use Seen::{AtBucket, AtSetStart, Served};
        match flip {
            Flip::MacNode
            | Flip::NeighbourMac
            | Flip::NeighbourMacAndValue
            | Flip::NeighbourMacAndKey => [AtSetStart; 3],
            Flip::StoredTag | Flip::Next | Flip::NextOfPredecessor if !mac_bucket => {
                [AtSetStart; 3]
            }
            Flip::CiphertextValue | Flip::ValLen => [AtBucket, Served, Served],
            Flip::ExpiresAt => [AtBucket, Served, AtBucket],
            Flip::Next => [Served; 3],
            _ => [AtBucket; 3],
        }
    }

    /// One bit flipped in each authenticated or structural field, then a
    /// get, a set, a delete and a batched get of the victim key, each on a
    /// fresh shard.
    /// The verdicts were recorded before the lockstep kernel reordered the
    /// work inside an op; the same `Error`, variant and bucket, must come
    /// back after. No failed op leaves plaintext staged in the scratch.
    #[test]
    fn tamper_matrix_reports_the_recorded_verdicts() {
        for mac_bucket in [true, false] {
            for flip in FLIPS {
                let mut row = Vec::new();
                for op in ["get", "set", "delete", "multi_get"] {
                    let cfg =
                        Config { mac_bucket, ..Config::shield_opt() }.buckets(16).mac_hashes(4);
                    let mut s = shard_with(cfg);
                    vclock::reset();
                    let keys: Vec<String> = (0..48).map(|i| format!("key-{i}")).collect();
                    for key in &keys {
                        s.set(key.as_bytes(), format!("value-of-{key}").as_bytes()).unwrap();
                    }
                    // The victim: the first key inserted into a bucket
                    // that is not its set's first and took a second key
                    // later — so it is the chain's tail, behind a
                    // predecessor, and the two verdict buckets differ.
                    let sets = s.sets_map();
                    let (victim, bucket) = keys
                        .iter()
                        .map(|k| (k, s.bucket_index(k.as_bytes())))
                        .find(|&(k, b)| {
                            sets.buckets_of(sets.set_of(b)).start != b
                                && keys.iter().filter(|o| s.bucket_index(o.as_bytes()) == b).count()
                                    >= 2
                                && keys.iter().find(|o| s.bucket_index(o.as_bytes()) == b)
                                    == Some(k)
                        })
                        .expect("a bucket with a chain");
                    let set_buckets = sets.buckets_of(sets.set_of(bucket));
                    let main = s.main.as_mut().unwrap();
                    let mut chain = vec![main.heads[bucket]];
                    loop {
                        let next = main.heap.read_u64_at(*chain.last().unwrap(), entry::OFF_NEXT);
                        if next == NULL_HANDLE {
                            break;
                        }
                        chain.push(next);
                    }
                    let (tail, pos) = (*chain.last().unwrap(), chain.len() - 1);
                    let header = main.header(tail);
                    assert_eq!(header.key_len as usize, victim.len());
                    let mut flip_at = |handle: Handle, offset: usize| {
                        main.heap.bytes_at_mut(handle, offset, 1)[0] ^= 1;
                    };
                    if matches!(
                        flip,
                        Flip::NeighbourMac | Flip::NeighbourMacAndValue | Flip::NeighbourMacAndKey
                    ) {
                        let other = set_buckets
                            .clone()
                            .find(|&b| b != bucket && main.heads[b] != NULL_HANDLE)
                            .expect("a second occupied bucket in the set");
                        if mac_bucket {
                            flip_at(main.mac_heads[other], 12)
                        } else {
                            flip_at(main.heads[other], entry::OFF_MAC)
                        }
                    }
                    match flip {
                        Flip::MacNode if !mac_bucket => continue,
                        Flip::MacNode => flip_at(main.mac_heads[bucket], 12 + 16 * pos),
                        Flip::NeighbourMac => {}
                        Flip::CiphertextKey | Flip::NeighbourMacAndKey => {
                            flip_at(tail, entry::HEADER_LEN)
                        }
                        Flip::CiphertextValue | Flip::NeighbourMacAndValue => {
                            flip_at(tail, header.entry_len() - 1)
                        }
                        Flip::Hint => flip_at(tail, entry::OFF_HINT),
                        Flip::KeyLen => flip_at(tail, entry::OFF_KEY_LEN),
                        Flip::ValLen => flip_at(tail, entry::OFF_VAL_LEN),
                        Flip::Tenant => flip_at(tail, entry::OFF_TENANT),
                        Flip::ExpiresAt => flip_at(tail, entry::OFF_EXPIRY),
                        Flip::Iv => flip_at(tail, entry::OFF_IV + 15),
                        Flip::StoredTag => flip_at(tail, entry::OFF_MAC),
                        Flip::Next => flip_at(tail, entry::OFF_NEXT),
                        Flip::NextOfPredecessor => flip_at(chain[pos - 1], entry::OFF_NEXT),
                    }
                    let key = victim.as_bytes();
                    let result = match op {
                        "get" => s.get(key).map(|v| {
                            assert_eq!(v, format!("value-of-{victim}").as_bytes());
                        }),
                        "set" => s.set(key, b"a new value of another length"),
                        "delete" => s.delete(key),
                        // Behind a healthy key of the same set, so the
                        // victim is not the batch's first hit in it.
                        _ => {
                            let healthy = keys
                                .iter()
                                .find(|k| {
                                    let b = s.bucket_index(k.as_bytes());
                                    b != bucket && set_buckets.contains(&b)
                                })
                                .expect("a key elsewhere in the set");
                            s.multi_get(&[healthy.as_bytes(), key]).map(|values| {
                                let expect = |k: &str| Some(format!("value-of-{k}").into_bytes());
                                assert_eq!(values, [expect(healthy), expect(victim)]);
                            })
                        }
                    };
                    let seen = match result {
                        Ok(()) => Seen::Served,
                        Err(Error::KeyNotFound) => Seen::Miss,
                        Err(Error::IntegrityViolation { bucket: b }) if b == bucket => {
                            Seen::AtBucket
                        }
                        Err(Error::IntegrityViolation { bucket: b }) if b == set_buckets.start => {
                            Seen::AtSetStart
                        }
                        Err(other) => panic!("{flip:?} {op}: unexpected {other:?}"),
                    };
                    if seen != Seen::Served {
                        let value = format!("value-of-{victim}");
                        assert!(
                            !s.scratch.entry.windows(value.len()).any(|w| w == value.as_bytes()),
                            "{flip:?} {op}: the victim's plaintext is still staged"
                        );
                    }
                    row.push(seen);
                    vclock::reset();
                }
                if !row.is_empty() {
                    let [get, set, delete] = recorded_verdicts(mac_bucket, flip);
                    assert_eq!(row, [get, set, delete, get], "{flip:?}, {mac_bucket}");
                }
            }
        }
    }
}
