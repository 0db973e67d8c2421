//! Fault-injection API for adversarial testing (feature `testing`).
//!
//! ShieldStore's threat model gives the attacker full read/write control
//! of untrusted memory (paper §3.1). This module *is* that attacker: it
//! mutates entry fields of the Fig. 5 layout, chain structure, MAC side
//! arrays, and raw heap chunks, deterministically from a caller-supplied
//! seed. Every mutation is recorded in the enclave's simulation counters
//! (`attack_steps`), so harnesses can assert how many attacks a run
//! actually landed.
//!
//! Nothing here is compiled into production builds: the module only
//! exists under `cfg(test)` or the `testing` cargo feature, and the store
//! itself never calls it.

use crate::alloc::{Handle, UntrustedHeap};
use crate::entry::{self, TagHome};
use crate::mac_bucket::{class_cap, CAPACITY};
use crate::shard::Shard;
use crate::store::ShieldStore;
use crate::table::{Link, TableCtx};
use crate::tenant::{TenantId, TenantKeys};
use shield_crypto::Tag128;

/// One field of the Fig. 5 entry layout to corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryField {
    /// The 1-byte key hint (§5.4).
    Hint,
    /// The 4-byte key size.
    KeySize,
    /// The 4-byte value size.
    ValueSize,
    /// The 4-byte plaintext (but MAC-covered) tenant id.
    Tenant,
    /// The 8-byte plaintext (but MAC-covered) expiry deadline.
    Expiry,
    /// The 16-byte IV/counter.
    Iv,
    /// The encrypted key‖value payload.
    Ciphertext,
    /// The entry's 16-byte tag, wherever its table keeps it: the entry's
    /// MAC-node slot with MAC bucketing, the bytes after its ciphertext
    /// without.
    Mac,
    /// The 8-byte chain pointer (deliberately not MAC-covered).
    ChainNext,
    /// Any byte past the chain pointer — the behaviour of the old
    /// single-hook tamper API, kept for unbiased single-byte sweeps.
    Any,
}

/// One attack from the catalog, applied to a shard's untrusted state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TamperOp {
    /// Bit-flip within one field of a pseudo-randomly chosen entry.
    Field(EntryField),
    /// Unlink a chosen entry from its bucket chain, leaving the MAC side
    /// array untouched (the silent-miss attack of README "Beyond the
    /// paper").
    Unlink,
    /// Move a chosen entry's link into a different bucket's chain.
    Splice,
    /// Bit-flip a byte of a MAC side-array node (§5.2 desync).
    MacSideArray,
    /// Bit-flip a byte of raw allocator chunk memory — may hit entries,
    /// MAC nodes, chain pointers, or dead space.
    HeapChunk,
    /// Overwrite one of the pointers the lookup path hints ahead of its
    /// reads — an entry's `next`, a bucket's `mac_heads` slot or a MAC
    /// node's `next` — with a wild handle
    /// ([`crate::alloc::UntrustedHeap::wild_handles`]): a hint must
    /// shrug it off and the read behind it must still fail closed.
    WildPointer,
    /// Overwrite an entry handle a MAC node lists — with a wild handle,
    /// another entry's, or the node's own. Listed handles are only ever
    /// hinted, so no op may answer differently for it.
    NodeHandle,
    /// Overwrite a MAC node's `cap` with one no honest node of its count
    /// holds: 0, below its count, past the largest node, between two
    /// classes, or a larger class — one with room for the count, whether
    /// or not it runs off the node's chunk. Every op on the node's bucket
    /// set must fail closed.
    NodeCap,
}

/// A stale byte-level copy of one entry, for replay/rollback attacks.
#[derive(Debug, Clone)]
pub struct StaleEntry {
    /// The untrusted-heap handle the bytes were captured from.
    pub handle: Handle,
    /// The raw entry bytes (header + ciphertext) at capture time.
    pub bytes: Vec<u8>,
    /// The entry's tag at capture time, from wherever its table keeps it.
    pub tag: Tag128,
}

/// Cheap deterministic mixer so one seed drives several choices.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The entries a chain walk reaches, each with its bucket: chains already
/// corrupted by earlier attack steps contribute what comes before the
/// break.
fn reachable_entries(ctx: &TableCtx) -> Vec<(usize, Link)> {
    ctx.entries().filter_map(|(bucket, link)| Some((bucket, link.ok()?))).collect()
}

// A MAC node as raw memory has it (`[next u64 | count u32 | cap u32 | cap ×
// MAC | cap × handle]`): the attacker's view, kept apart from the layout
// constants `mac_bucket` reads it with.
const NODE_COUNT: usize = 8;
/// Offset of a node's `cap` field.
pub const NODE_CAP: usize = 12;
/// Offset of a node's first MAC slot.
pub const NODE_MACS: usize = 16;

fn node_word(heap: &UntrustedHeap, node: Handle, at: usize) -> Option<usize> {
    let bytes = heap.try_bytes_at(node, at, 4)?;
    Some(u32::from_le_bytes(bytes.try_into().expect("4 bytes")) as usize)
}

/// Where `node` keeps the handle of slot `slot`, going by its `cap` field.
pub fn node_handle_at(heap: &UntrustedHeap, node: Handle, slot: usize) -> Option<usize> {
    Some(NODE_MACS + node_word(heap, node, NODE_CAP)? * 16 + slot * 8)
}

/// The entry handles the MAC nodes chained from `head` list, in slot
/// order, read straight from memory (a bounded walk; it stops at the
/// first node it cannot read).
pub fn listed_handles(heap: &UntrustedHeap, head: Handle) -> Vec<Handle> {
    let mut out = Vec::new();
    let mut node = head;
    for _ in 0..1 << 16 {
        let Some(window) = node_word(heap, node, NODE_COUNT)
            .and_then(|count| heap.try_bytes_at(node, node_handle_at(heap, node, 0)?, count * 8))
        else {
            break;
        };
        out.extend(window.chunks_exact(8).map(|h| u64::from_le_bytes(h.try_into().unwrap())));
        node = heap.try_read_u64_at(node, 0).unwrap_or(0);
    }
    out
}

/// Where the tag of `link`, an entry of `bucket`, sits in memory:
/// `(object, offset)` — a MAC node and the slot at the entry's chain
/// position with MAC bucketing, the entry itself (after its ciphertext)
/// without.
/// Read straight from memory by a bounded walk; `None` past what it can
/// read.
fn tag_site(ctx: &TableCtx, bucket: usize, link: &Link) -> Option<(Handle, usize)> {
    if ctx.home == TagHome::Suffix {
        return Some((link.handle, link.header.sealed_len()));
    }
    let (mut node, mut pos) = (ctx.mac_heads[bucket], link.pos);
    for _ in 0..=ctx.count {
        let count = node_word(&ctx.heap, node, NODE_COUNT)?;
        if pos < count {
            return Some((node, NODE_MACS + pos * 16));
        }
        pos -= count;
        node = ctx.heap.try_read_u64_at(node, 0)?;
    }
    None
}

/// Bounded enumeration of MAC side-array node handles.
fn checked_mac_nodes(ctx: &TableCtx) -> Vec<Handle> {
    let max = ctx.count.saturating_add(1);
    let mut out = Vec::new();
    for &head in &ctx.mac_heads {
        let mut node = head;
        let mut steps = 0usize;
        while node != 0 && steps < max {
            out.push(node);
            steps += 1;
            match ctx.heap.try_read_u64_at(node, 0) {
                Some(next) => node = next,
                None => break,
            }
        }
    }
    out
}

/// Replays a stale entry copy over its original allocation in `main`: the
/// bytes (including IV) and the tag are a genuine previous version. The tag
/// goes where the entry at that allocation keeps its tag now: after the
/// bytes without MAC bucketing, its slot with it (when the allocation is
/// still chained). Returns `false` when the allocation no longer covers
/// the copy.
pub(crate) fn replay_into(main: &mut TableCtx, stale: &StaleEntry) -> bool {
    let (at, len) = (stale.handle, stale.bytes.len());
    if main.heap.try_bytes_at(at, 0, len + main.home.suffix_len()).is_none() {
        return false;
    }
    main.heap.bytes_at_mut(at, 0, len).copy_from_slice(&stale.bytes);
    let site = match main.home {
        TagHome::Suffix => Some((at, len)),
        TagHome::Slot => reachable_entries(main)
            .into_iter()
            .find(|(_, link)| link.handle == at)
            .and_then(|(bucket, link)| tag_site(main, bucket, &link)),
    };
    if let Some((object, offset)) = site {
        if main.heap.try_bytes_at(object, offset, 16).is_some() {
            main.heap.bytes_at_mut(object, offset, 16).copy_from_slice(&stale.tag);
        }
    }
    true
}

impl Shard {
    /// Applies `op` to this shard's untrusted state, with every random
    /// choice derived from `seed`. Returns `false` when the attack had no
    /// target (empty shard, single bucket for a splice, ...); `true`
    /// means untrusted memory was mutated and the attack step was
    /// recorded in the enclave counters.
    pub fn tamper(&mut self, op: TamperOp, seed: u64) -> bool {
        let Some(main) = self.main_table_mut() else {
            return false;
        };
        let mutated = match op {
            TamperOp::Field(field) => tamper_field(main, field, seed),
            TamperOp::Unlink => unlink_entry(main, seed),
            TamperOp::Splice => splice_entry(main, seed),
            TamperOp::MacSideArray => tamper_mac_node(main, seed),
            TamperOp::WildPointer => plant_wild_pointer(main, seed),
            TamperOp::NodeHandle => plant_node_handle(main, seed),
            TamperOp::NodeCap => plant_node_cap(main, seed),
            TamperOp::HeapChunk => {
                let chunks = main.heap.chunk_count();
                if chunks == 0 {
                    false
                } else {
                    let chunk = (mix(seed) as usize) % chunks;
                    let len = main.heap.chunk_len(chunk);
                    let offset = (mix(seed ^ 0xc4a7) as usize) % len;
                    main.heap.corrupt_raw(chunk, offset, 1 << (seed % 8))
                }
            }
        };
        if mutated {
            self.record_attack_step();
        }
        mutated
    }

    /// Captures byte-level copies of every entry, each with its tag, for
    /// later replay. Buckets whose chain or tags cannot be read are left
    /// out.
    pub fn stale_entry_copies(&self) -> Vec<StaleEntry> {
        let Some(main) = self.main_table() else {
            return Vec::new();
        };
        let mut copies = Vec::new();
        for bucket in 0..main.buckets() {
            let mut tagged = Vec::new();
            if main.tagged_chain(bucket, &mut tagged).is_err() {
                continue;
            }
            for (Link { handle, header, .. }, tag) in tagged {
                if let Some(bytes) = main.heap.try_bytes_at(handle, 0, header.sealed_len()) {
                    copies.push(StaleEntry { handle, bytes: bytes.to_vec(), tag });
                }
            }
        }
        copies
    }

    /// Replays a stale entry copy over its original allocation — the
    /// rollback attack: see [`replay_into`]. Returns `false` when the
    /// allocation no longer covers the copy.
    pub fn replay_entry(&mut self, stale: &StaleEntry) -> bool {
        let Some(main) = self.main_table_mut() else {
            return false;
        };
        let replayed = replay_into(main, stale);
        if replayed {
            self.record_attack_step();
        }
        replayed
    }

    /// Panics unless, in every bucket of every table, each tag is the one
    /// its entry computes to — the tag at chain position *i* is the CMAC of
    /// the entry at *i*, under its owner's key — and there are exactly as
    /// many tags as chained entries: an entry's tag exists once, where its
    /// table keeps it, and nothing else stands in for it.
    pub fn assert_tags_single_copy(&self) {
        for table in self.tables() {
            for bucket in 0..table.buckets() {
                let mut tagged = Vec::new();
                table.tagged_chain(bucket, &mut tagged).unwrap_or_else(|_| {
                    panic!("bucket {bucket}: as many tags as chained entries, all readable")
                });
                for (Link { pos, handle, header, .. }, tag) in tagged {
                    let ct = table.try_ciphertext(handle, &header).expect("a readable entry");
                    let owner = self.keys().tenant_keys(header.tenant);
                    let computed = entry::compute_mac(&owner.mac, &header, ct);
                    assert_eq!(computed, tag, "bucket {bucket}, position {pos}: a stale tag");
                }
            }
        }
    }

    /// Panics unless, in every bucket of every table, the handles the MAC
    /// nodes list are the chain's entries, in chain order. Nothing depends
    /// on it but the speed of the walk — a listed handle is only hinted —
    /// which is why nothing else would notice the two drifting apart.
    pub fn assert_directory_in_sync(&self) {
        if !self.config().mac_bucket {
            return;
        }
        for table in self.tables() {
            for bucket in 0..table.buckets() {
                let chain: Vec<Handle> =
                    table.chain(bucket).map(|link| link.expect("an honest chain").handle).collect();
                let listed = listed_handles(&table.heap, table.mac_heads[bucket]);
                assert_eq!(listed, chain, "bucket {bucket} lists other entries than it chains");
            }
        }
    }

    fn record_attack_step(&self) {
        if let Some(main) = self.main_table() {
            main.heap.enclave().stats().record_attack_step();
        }
    }
}

fn tamper_field(ctx: &mut TableCtx, field: EntryField, seed: u64) -> bool {
    let entries = reachable_entries(ctx);
    if entries.is_empty() {
        return false;
    }
    let (bucket, link) = entries[(mix(seed) as usize) % entries.len()];
    let Link { handle: h, header, .. } = link;
    let (start, len) = match field {
        EntryField::Hint => (entry::OFF_HINT, 1),
        EntryField::KeySize => (entry::OFF_KEY_LEN, 4),
        EntryField::ValueSize => (entry::OFF_VAL_LEN, 4),
        EntryField::Tenant => (entry::OFF_TENANT, 4),
        EntryField::Expiry => (entry::OFF_EXPIRY, 8),
        EntryField::Iv => (entry::OFF_IV, 16),
        EntryField::Mac => {
            let Some((object, offset)) = tag_site(ctx, bucket, &link) else { return false };
            let offset = offset + (mix(seed ^ 0x51ce) as usize) % 16;
            if ctx.heap.try_bytes_at(object, offset, 1).is_none() {
                return false;
            }
            ctx.heap.bytes_at_mut(object, offset, 1)[0] ^= 1 << (seed % 8);
            return true;
        }
        EntryField::ChainNext => (entry::OFF_NEXT, 8),
        EntryField::Ciphertext => {
            let ct = header.ct_len();
            if ct == 0 {
                return false;
            }
            (entry::HEADER_LEN, ct)
        }
        EntryField::Any => {
            let total = ctx.entry_len(&header);
            if total <= 8 {
                return false;
            }
            (8, total - 8)
        }
    };
    let offset = start + (mix(seed ^ 0x51ce) as usize) % len;
    if ctx.heap.try_bytes_at(h, offset, 1).is_none() {
        return false;
    }
    ctx.heap.bytes_at_mut(h, offset, 1)[0] ^= 1 << (seed % 8);
    true
}

/// Detaches a seed-chosen entry from its chain; returns `(bucket, handle)`.
fn detach_entry(ctx: &mut TableCtx, seed: u64) -> Option<(usize, Handle)> {
    let entries = reachable_entries(ctx);
    if entries.is_empty() {
        return None;
    }
    let (bucket, link) = entries[(mix(seed) as usize) % entries.len()];
    if link.prev == 0 {
        ctx.heads[bucket] = link.header.next;
    } else {
        ctx.heap.write_u64_at(link.prev, entry::OFF_NEXT, link.header.next);
    }
    Some((bucket, link.handle))
}

fn unlink_entry(ctx: &mut TableCtx, seed: u64) -> bool {
    detach_entry(ctx, seed).is_some()
}

fn splice_entry(ctx: &mut TableCtx, seed: u64) -> bool {
    if ctx.buckets() < 2 {
        return false;
    }
    let Some((bucket, h)) = detach_entry(ctx, seed) else {
        return false;
    };
    let mut target = (mix(seed ^ 0x3a1d) as usize) % ctx.buckets();
    if target == bucket {
        target = (target + 1) % ctx.buckets();
    }
    ctx.heap.write_u64_at(h, entry::OFF_NEXT, ctx.heads[target]);
    ctx.heads[target] = h;
    true
}

fn tamper_mac_node(ctx: &mut TableCtx, seed: u64) -> bool {
    let nodes = checked_mac_nodes(ctx);
    if nodes.is_empty() {
        return false;
    }
    let node = nodes[(mix(seed) as usize) % nodes.len()];
    // Aim at the count and cap fields and the filled MAC slots; reading
    // the node's own count keeps the offset inside the allocation without
    // knowing capacity.
    let Some(count) = node_word(&ctx.heap, node, NODE_COUNT) else { return false };
    let span = NODE_MACS + count.clamp(1, 1 << 10) * 16;
    let offset = NODE_COUNT + (mix(seed ^ 0x77aa) as usize) % (span - NODE_COUNT);
    if ctx.heap.try_bytes_at(node, offset, 1).is_none() {
        return false;
    }
    ctx.heap.bytes_at_mut(node, offset, 1)[0] ^= 1 << (seed % 8);
    true
}

fn plant_wild_pointer(ctx: &mut TableCtx, seed: u64) -> bool {
    if ctx.heap.chunk_count() == 0 {
        return false;
    }
    let wild = ctx.heap.wild_handles()[(mix(seed ^ 0x71d) % 4) as usize];
    let pick = mix(seed) as usize;
    match mix(seed ^ 0x9e1) % 3 {
        0 => {
            let entries = reachable_entries(ctx);
            let Some((_, link)) = entries.get(pick % entries.len().max(1)) else { return false };
            ctx.heap.write_u64_at(link.handle, entry::OFF_NEXT, wild);
        }
        1 => {
            let occupied: Vec<usize> =
                (0..ctx.buckets()).filter(|&b| ctx.mac_heads[b] != 0).collect();
            let Some(&bucket) = occupied.get(pick % occupied.len().max(1)) else { return false };
            ctx.mac_heads[bucket] = wild;
        }
        _ => {
            let nodes = checked_mac_nodes(ctx);
            let Some(&node) = nodes.get(pick % nodes.len().max(1)) else { return false };
            if ctx.heap.try_bytes_at(node, 0, 8).is_none() {
                return false;
            }
            ctx.heap.write_u64_at(node, 0, wild);
        }
    }
    true
}

/// A seed-chosen MAC node with its `count`, when there is one to read.
fn pick_mac_node(ctx: &TableCtx, seed: u64) -> Option<(Handle, usize)> {
    let nodes = checked_mac_nodes(ctx);
    let node = *nodes.get((mix(seed) as usize) % nodes.len().max(1))?;
    Some((node, node_word(&ctx.heap, node, NODE_COUNT)?))
}

fn plant_node_handle(ctx: &mut TableCtx, seed: u64) -> bool {
    let Some((node, count)) = pick_mac_node(ctx, seed) else { return false };
    let slot = (mix(seed ^ 0x5107) as usize) % count.max(1);
    let Some(at) = node_handle_at(&ctx.heap, node, slot) else { return false };
    if count == 0 || ctx.heap.try_bytes_at(node, at, 8).is_none() {
        return false;
    }
    let entries = reachable_entries(ctx);
    let planted = match mix(seed ^ 0x71d) % 6 {
        wild @ 0..=3 => ctx.heap.wild_handles()[wild as usize],
        4 => entries
            .get((mix(seed ^ 0xe7) as usize) % entries.len().max(1))
            .map_or(node, |e| e.1.handle),
        _ => node,
    };
    ctx.heap.write_u64_at(node, at, planted);
    true
}

fn plant_node_cap(ctx: &mut TableCtx, seed: u64) -> bool {
    let Some((node, count)) = pick_mac_node(ctx, seed) else { return false };
    let Some(cap) = node_word(&ctx.heap, node, NODE_CAP) else { return false };
    let planted = match mix(seed ^ 0xca9) % 6 {
        0 => 0,
        1 => count.saturating_sub(1),
        2 => CAPACITY + 1,
        // Larger classes: they hold the count, so only what the count
        // makes of them refuses them.
        3 if cap < CAPACITY => CAPACITY,
        4 if cap < CAPACITY => class_cap(cap + 1, CAPACITY),
        // One more than a class holds is never a class.
        _ => cap + 1,
    };
    ctx.heap.bytes_at_mut(node, NODE_CAP, 4).copy_from_slice(&(planted as u32).to_le_bytes());
    true
}

impl ShieldStore {
    /// Applies `op` to the shard chosen by `seed`. See [`Shard::tamper`].
    pub fn tamper(&self, op: TamperOp, seed: u64) -> bool {
        let shard = (seed as usize) % self.num_shards();
        self.with_shard(shard, |s| s.tamper(op, seed))
    }

    /// Captures stale copies of every entry in `shard` for replay.
    pub fn stale_entry_copies(&self, shard: usize) -> Vec<StaleEntry> {
        self.with_shard(shard, |s| s.stale_entry_copies())
    }

    /// Replays a stale entry copy into `shard`. See
    /// [`Shard::replay_entry`].
    pub fn replay_entry(&self, shard: usize, stale: &StaleEntry) -> bool {
        self.with_shard(shard, |s| s.replay_entry(stale))
    }

    /// [`Shard::assert_directory_in_sync`] over every shard.
    pub fn assert_directories_in_sync(&self) {
        for shard in 0..self.num_shards() {
            self.with_shard(shard, |s| s.assert_directory_in_sync());
        }
    }

    /// Rewrites the entry of tenant 0's key `from` so that its key decrypts
    /// to `to` — AES-CTR is malleable, and the attacker knows both
    /// plaintexts — and copies the hint byte of `to`'s own entry into it.
    /// The entry's tag is left as it was. Returns `false` unless the two
    /// keys differ, are of one length and both have an entry in one
    /// bucket. Which entry holds which key is read here by decrypting, a
    /// stand-in for what such an attacker learns by watching the writes.
    pub fn malleate_key(&self, from: &[u8], to: &[u8]) -> bool {
        let shard = self.shard_of(from);
        if from == to || from.len() != to.len() || shard != self.shard_of(to) {
            return false;
        }
        let keys = self.keys();
        let tkeys = keys.tenant_keys(0);
        let (from_hash, to_hash) = (keys.index_hash(from), keys.index_hash(to));
        self.with_shard(shard, |s| {
            let Some(main) = s.main_table_mut() else { return false };
            let buckets = main.buckets() as u64;
            let bucket = (from_hash % buckets) as usize;
            if bucket != (to_hash % buckets) as usize {
                return false;
            }
            let (mut victim, mut hint) = (None, None);
            for link in main.chain(bucket) {
                let Ok(Link { handle, header, .. }) = link else { return false };
                let Some(ct) = main.try_ciphertext(handle, &header) else { return false };
                if header.tenant != 0 || header.key_len as usize != from.len() {
                    continue;
                }
                let key = entry::decrypt_key(&tkeys.enc, &header, ct);
                if key == from {
                    victim = Some(handle);
                } else if key == to {
                    hint = Some(header.hint);
                }
            }
            let (Some(victim), Some(hint)) = (victim, hint) else { return false };
            let ct = main.heap.bytes_at_mut(victim, entry::HEADER_LEN, from.len());
            for (byte, (a, b)) in ct.iter_mut().zip(from.iter().zip(to)) {
                *byte ^= a ^ b;
            }
            main.heap.bytes_at_mut(victim, entry::OFF_HINT, 1)[0] = hint;
            s.record_attack_step();
            true
        })
    }

    /// [`Shard::assert_tags_single_copy`] over every shard.
    pub fn assert_tags_single_copy(&self) {
        for shard in 0..self.num_shards() {
            self.with_shard(shard, |s| s.assert_tags_single_copy());
        }
    }

    /// Old single-hook behaviour: flips one pseudo-random non-pointer
    /// byte of one pseudo-random entry somewhere in the store. Returns
    /// `false` when the chosen shard holds no entries.
    pub fn tamper_any_entry_byte(&self, seed: u64) -> bool {
        self.tamper(TamperOp::Field(EntryField::Any), seed)
    }

    /// Leaks `tenant`'s derived raw `(enc, mac)` key bytes, modelling a
    /// tenant whose own data keys were compromised. The isolation suite
    /// uses these to prove the leak opens exactly one namespace: with
    /// tenant A's keys an attacker can decrypt A's ciphertext at will,
    /// but cannot verify, decrypt, or forge an entry belonging to any
    /// other tenant.
    pub fn leak_tenant_keys(&self, tenant: TenantId) -> ([u8; 16], [u8; 16]) {
        TenantKeys::derive_raw(&self.keys().raw[4], tenant)
    }

    /// Leaks the store's raw key material, so export-path tests can
    /// assert none of it ever appears in what crosses the boundary.
    pub fn leak_store_keys(&self) -> [[u8; 16]; 5] {
        self.keys().raw
    }
}
