//! The hash table structure: bucket heads, entry chains, MAC chains.
//!
//! A [`TableCtx`] bundles everything one hash table needs: the untrusted
//! heap its entries live in, the bucket-head array, the per-bucket MAC
//! chains (when MAC bucketing is on), and the in-enclave MAC hash array.
//! It is also the one reader of entry tags ([`TableCtx::tags`]): each tag
//! exists once, in a MAC-node slot or after its entry's ciphertext, and
//! whatever checks an entry takes the tag it must have from there.
//! The main table and the snapshot-time temporary table are both
//! `TableCtx`s; during a snapshot the main one is frozen behind an `Arc`
//! and only read.

use crate::alloc::{Handle, UntrustedHeap, NULL_HANDLE};
use crate::entry::{self, EntryHeader, TagHome, TAG_LEN};
use crate::integrity::{BucketSets, MacStore};
use crate::mac_bucket::{self, Directory, Limits};
use shield_crypto::hint::LINE;
use shield_crypto::Tag128;

/// One hash table: structure + storage + integrity metadata.
pub struct TableCtx {
    /// The untrusted heap holding entries and MAC buckets.
    pub heap: UntrustedHeap,
    /// Bucket chain heads (`NULL_HANDLE` = empty). Conceptually untrusted
    /// memory; only the *pointer to* the table lives in the enclave
    /// (paper Fig. 4).
    pub heads: Vec<Handle>,
    /// Per-bucket MAC chain heads (used only when MAC bucketing is on).
    pub mac_heads: Vec<Handle>,
    /// Bytes of `heap` held by MAC nodes, rounded to their size classes.
    pub mac_node_bytes: usize,
    /// The in-enclave MAC hash array.
    pub macs: MacStore,
    /// Bucket -> MAC hash mapping.
    pub sets: BucketSets,
    /// Live entry count.
    pub count: usize,
    /// Where this table's entries keep their tags.
    pub home: TagHome,
}

/// One entry met on a chain walk.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Position in the chain, 0 at the head: also where the entry's tag is
    /// among its bucket's [`TableCtx::tags`].
    pub pos: usize,
    /// The entry before this one, `NULL_HANDLE` at the head — what a
    /// relink or unlink rewrites.
    pub prev: Handle,
    /// The entry itself.
    pub handle: Handle,
    /// Its header as read — unauthenticated until the caller verifies it.
    pub header: EntryHeader,
}

/// The last item of a walk over a chain no honest table holds: a pointer
/// that does not address a readable header, or more entries in one bucket
/// than the whole table counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Broken;

/// The one way an entry's `next` is followed. Chains live in untrusted
/// memory, so a `next` may point anywhere or back into the chain: the walk
/// reads each header through the checked accessor and yields at most
/// `count + 1` entries — no honest chain is longer than the table — then
/// one [`Broken`], then nothing. It allocates nothing and hints nothing;
/// a caller that wants the next header in flight hints
/// `link.header.next` itself.
#[derive(Debug, Clone)]
pub struct Chain<'a> {
    table: &'a TableCtx,
    at: Handle,
    prev: Handle,
    pos: usize,
}

impl Iterator for Chain<'_> {
    type Item = Result<Link, Broken>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.at == NULL_HANDLE {
            return None;
        }
        let header = match self.table.try_header(self.at) {
            Some(header) if self.pos <= self.table.count => header,
            _ => {
                self.at = NULL_HANDLE;
                return Some(Err(Broken));
            }
        };
        let link = Link { pos: self.pos, prev: self.prev, handle: self.at, header };
        self.prev = self.at;
        self.pos += 1;
        self.at = header.next;
        Some(Ok(link))
    }
}

impl std::fmt::Debug for TableCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCtx")
            .field("buckets", &self.heads.len())
            .field("count", &self.count)
            .finish()
    }
}

impl TableCtx {
    /// Creates an empty table with `buckets` buckets whose entries keep
    /// their tags at `home`.
    pub fn new(heap: UntrustedHeap, buckets: usize, macs: MacStore, home: TagHome) -> Self {
        let sets = BucketSets::new(buckets, macs.len());
        Self {
            heap,
            heads: vec![NULL_HANDLE; buckets],
            mac_heads: vec![NULL_HANDLE; buckets],
            mac_node_bytes: 0,
            macs,
            sets,
            count: 0,
            home,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.heads.len()
    }

    /// Checked header read: `None` when `handle` — an untrusted chain
    /// pointer an attacker may have overwritten — does not address
    /// `HEADER_LEN` readable bytes. Operation code treats that as an
    /// integrity violation rather than a panic.
    pub fn try_header(&self, handle: Handle) -> Option<EntryHeader> {
        self.heap.try_bytes_at(handle, 0, entry::HEADER_LEN).map(entry::parse_header)
    }

    /// Checked ciphertext access: `None` when the header's (untrusted,
    /// possibly attacker-written) length fields point past the backing
    /// chunk. Operation code treats that as an integrity violation.
    pub fn try_ciphertext(&self, handle: Handle, header: &EntryHeader) -> Option<&[u8]> {
        self.heap.try_bytes_at(handle, entry::HEADER_LEN, header.ct_len())
    }

    /// The bytes an entry with `header` takes in this table's heap.
    #[inline]
    pub fn entry_len(&self, header: &EntryHeader) -> usize {
        header.entry_len(self.home)
    }

    /// The one reader of entry tags: appends the tag each entry of
    /// `bucket`'s chain must have to `out`, in chain order, and returns how
    /// many — the bucket's MAC-node slots with [`TagHome::Slot`], the
    /// [`TAG_LEN`] bytes after each chained entry's ciphertext with
    /// [`TagHome::Suffix`]. The set hash, a hit's open, a write's proof of
    /// the entry it replaces, a miss's scan, the sweep and a snapshot all
    /// take their tags from here. [`Broken`] when the nodes or the chain
    /// are not ones an honest table holds.
    #[inline]
    pub fn tags(&self, bucket: usize, out: &mut Vec<u8>) -> Result<usize, Broken> {
        match self.home {
            TagHome::Slot => {
                mac_bucket::try_gather(&self.heap, self.mac_heads[bucket], out, self.mac_limits())
            }
            TagHome::Suffix => {
                let mut n = 0;
                for link in self.chain(bucket) {
                    let Link { handle, header, .. } = link?;
                    let tag = self.heap.try_bytes_at(handle, header.sealed_len(), TAG_LEN);
                    out.extend_from_slice(tag.ok_or(Broken)?);
                    n += 1;
                }
                Ok(n)
            }
        }
    }

    /// `bucket`'s chain with each entry's tag ([`TableCtx::tags`]) beside
    /// it, in chain order, into `out` — for the walks that check every
    /// entry of a bucket (a snapshot, the merge after one, the testing
    /// hooks). [`Broken`] when either cannot be read or they differ in
    /// number.
    pub fn tagged_chain(&self, bucket: usize, out: &mut Vec<(Link, Tag128)>) -> Result<(), Broken> {
        let mut tags = Vec::new();
        self.tags(bucket, &mut tags)?;
        let mut tags = tags.chunks_exact(TAG_LEN);
        for link in self.chain(bucket) {
            let tag = tags.next().ok_or(Broken)?;
            out.push((link?, tag.try_into().expect("a whole tag")));
        }
        match tags.next() {
            None => Ok(()),
            Some(_) => Err(Broken),
        }
    }

    /// Writes an entry's `sealed` bytes — header and ciphertext — at `at`
    /// and, with [`TagHome::Suffix`], its `tag` right after them. With
    /// [`TagHome::Slot`] the tag is the directory's, which the caller
    /// updates.
    pub fn place(&mut self, at: Handle, sealed: &[u8], tag: &Tag128) {
        let len = sealed.len() + self.home.suffix_len();
        let bytes = self.heap.bytes_mut(at, len);
        bytes[..sealed.len()].copy_from_slice(sealed);
        bytes[sealed.len()..].copy_from_slice(&tag[..self.home.suffix_len()]);
    }

    /// Hints the header of the entry at `handle` — one line, since
    /// entries start line-aligned.
    #[inline]
    pub fn hint_header(&self, handle: Handle) {
        self.heap.prefetch(handle, 0, 1);
    }

    /// Hints what lies past the header's line in an entry of `entry_len`
    /// bytes at `handle`: the ciphertext the caller is about to decrypt.
    #[inline]
    pub fn hint_body(&self, handle: Handle, entry_len: usize) {
        self.heap.prefetch(handle, LINE, entry_len.div_ceil(LINE).saturating_sub(1));
    }

    /// The bounds on a walk over any bucket's MAC nodes, the largest of
    /// which holds [`mac_bucket::CAPACITY`] slots.
    #[inline]
    pub fn mac_limits(&self) -> Limits {
        Limits { mac_cap: mac_bucket::CAPACITY, max_macs: self.count.saturating_add(1) }
    }

    /// `bucket`'s MAC directory, borrowed for a mutation.
    pub fn directory(&mut self, bucket: usize) -> Directory<'_> {
        Directory {
            lim: self.mac_limits(),
            heap: &mut self.heap,
            head: &mut self.mac_heads[bucket],
            node_bytes: &mut self.mac_node_bytes,
        }
    }

    /// Walks `bucket`'s chain from its head. See [`Chain`].
    #[inline]
    pub fn chain(&self, bucket: usize) -> Chain<'_> {
        Chain { table: self, at: self.heads[bucket], prev: NULL_HANDLE, pos: 0 }
    }

    /// Walks every bucket's chain in turn, each item tagged with its
    /// bucket. A bucket whose chain is [`Broken`] ends with that item and
    /// the walk moves on to the next bucket.
    pub fn entries(&self) -> impl Iterator<Item = (usize, Result<Link, Broken>)> + '_ {
        (0..self.buckets())
            .flat_map(move |bucket| self.chain(bucket).map(move |link| (bucket, link)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AllocMode;
    use sgx_sim::enclave::EnclaveBuilder;

    fn ctx(buckets: usize) -> TableCtx {
        let enclave = EnclaveBuilder::new("table-test").build();
        let heap = UntrustedHeap::new(enclave, AllocMode::Pooled { granularity: 1 << 20 });
        TableCtx::new(heap, buckets, MacStore::plain(buckets), TagHome::Suffix)
    }

    #[test]
    fn new_table_is_empty() {
        let t = ctx(8);
        assert_eq!(t.buckets(), 8);
        assert_eq!(t.count, 0);
        assert!(t.heads.iter().all(|&h| h == NULL_HANDLE));
        assert_eq!(t.entries().count(), 0);
    }

    /// Links `n` raw entries into `bucket`, head last; returns them head first.
    fn build_chain(t: &mut TableCtx, bucket: usize, n: u8) -> Vec<Handle> {
        let enc = shield_crypto::ctr::AesCtr::new(&[0u8; 16]);
        let cmac = shield_crypto::cmac::Cmac::new(&[0u8; 16]);
        let len = entry::HEADER_LEN + 1 + 1;
        let mut handles = Vec::new();
        for i in 0..n {
            let h = t.heap.alloc(len + TAG_LEN);
            let mut buf = vec![0u8; len];
            let tag = entry::encode_into(
                &mut buf,
                t.heads[bucket],
                0,
                0,
                0,
                &[i; 16],
                &[i],
                &[i],
                &enc,
                &cmac,
            );
            t.place(h, &buf, &tag);
            t.heads[bucket] = h;
            t.count += 1;
            handles.insert(0, h);
        }
        handles
    }

    #[test]
    fn walk_yields_every_entry_once_with_position_and_predecessor() {
        let mut t = ctx(2);
        let handles = build_chain(&mut t, 1, 3);
        let links: Vec<Link> = t.chain(1).map(|link| link.unwrap()).collect();
        assert_eq!(links.iter().map(|l| l.handle).collect::<Vec<_>>(), handles);
        assert_eq!(links.iter().map(|l| l.pos).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(
            links.iter().map(|l| l.prev).collect::<Vec<_>>(),
            [NULL_HANDLE, handles[0], handles[1]]
        );
        assert_eq!(t.chain(0).count(), 0);
        assert!(t.entries().all(|(bucket, link)| bucket == 1 && link.is_ok()));
        assert_eq!(t.entries().count(), 3);
        // An inflated count only raises the bound.
        t.count = 1000;
        assert_eq!(t.chain(1).filter(|link| link.is_ok()).count(), 3);
    }

    #[test]
    fn forged_chains_end_in_one_broken_item_within_the_bound() {
        // A wild pointer, at the head and mid-chain.
        for at in 0..3 {
            let mut t = ctx(1);
            let handles = build_chain(&mut t, 0, 3);
            for wild in t.heap.wild_handles() {
                t.heap.write_u64_at(handles[at], entry::OFF_NEXT, wild);
                let walk: Vec<_> = t.chain(0).collect();
                assert_eq!(walk.len(), at + 2, "entries up to the forged one, then Broken");
                assert!(walk[..=at].iter().all(|link| link.is_ok()));
                assert_eq!(walk[at + 1].map(|l| l.handle), Err(Broken));
            }
        }
        // A cycle: the tail points back at itself or any earlier entry.
        for target in 0..3 {
            let mut t = ctx(1);
            let handles = build_chain(&mut t, 0, 3);
            t.heap.write_u64_at(handles[2], entry::OFF_NEXT, handles[target]);
            let walk: Vec<_> = t.chain(0).collect();
            assert_eq!(walk.len(), t.count + 2, "count + 1 entries, then Broken, then nothing");
            assert!(walk[..=t.count].iter().all(|link| link.is_ok()));
            assert!(walk[t.count + 1].is_err());
        }
        // A count deflated below the chain's length.
        let mut t = ctx(1);
        build_chain(&mut t, 0, 3);
        t.count = 1;
        let walk: Vec<_> = t.chain(0).collect();
        assert_eq!(walk.len(), 3);
        assert!(walk[2].is_err());
        // A forged head breaks its own bucket only.
        let mut t = ctx(2);
        build_chain(&mut t, 0, 2);
        build_chain(&mut t, 1, 2);
        t.heads[0] = u64::MAX;
        let walk: Vec<_> = t.entries().map(|(bucket, link)| (bucket, link.is_ok())).collect();
        assert_eq!(walk, [(0, false), (1, true), (1, true)]);
    }

    #[test]
    fn suffix_tags_are_each_entrys_own_in_chain_order() {
        let mut t = ctx(2);
        let handles = build_chain(&mut t, 1, 3);
        let cmac = shield_crypto::cmac::Cmac::new(&[0u8; 16]);
        let mut tags = Vec::new();
        assert_eq!(t.tags(1, &mut tags), Ok(3));
        for (link, tag) in t.chain(1).zip(tags.chunks_exact(TAG_LEN)) {
            let Link { handle, header, .. } = link.unwrap();
            let ct = t.try_ciphertext(handle, &header).unwrap();
            assert_eq!(entry::compute_mac(&cmac, &header, ct), tag);
            assert_eq!(t.entry_len(&header), header.sealed_len() + TAG_LEN);
        }
        assert_eq!(t.tags(0, &mut tags), Ok(0));
        let wild = t.heap.wild_handles()[0];
        t.heap.write_u64_at(handles[1], entry::OFF_NEXT, wild);
        assert_eq!(t.tags(1, &mut Vec::new()), Err(Broken));
    }
}
