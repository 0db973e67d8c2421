//! The hash table structure: bucket heads, entry chains, MAC chains.
//!
//! A [`TableCtx`] bundles everything one hash table needs: the untrusted
//! heap its entries live in, the bucket-head array, the per-bucket MAC
//! chains (when MAC bucketing is on), and the in-enclave MAC hash array.
//! The main table and the snapshot-time temporary table are both
//! `TableCtx`s; during a snapshot the main one is frozen behind an `Arc`
//! and only read.

use crate::alloc::{Handle, UntrustedHeap, NULL_HANDLE};
use crate::entry::{self, EntryHeader};
use crate::integrity::{BucketSets, MacStore};
use shield_crypto::hint::LINE;

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
    /// The in-enclave MAC hash array.
    pub macs: MacStore,
    /// Bucket -> MAC hash mapping.
    pub sets: BucketSets,
    /// Live entry count.
    pub count: usize,
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
    /// Creates an empty table with `buckets` buckets.
    pub fn new(heap: UntrustedHeap, buckets: usize, macs: MacStore) -> Self {
        let sets = BucketSets::new(buckets, macs.len());
        Self {
            heap,
            heads: vec![NULL_HANDLE; buckets],
            mac_heads: vec![NULL_HANDLE; buckets],
            macs,
            sets,
            count: 0,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.heads.len()
    }

    /// Reads the header of the entry at `handle`.
    pub fn header(&self, handle: Handle) -> EntryHeader {
        entry::read_header(&self.heap, handle)
    }

    /// Checked header read: `None` when `handle` — an untrusted chain
    /// pointer an attacker may have overwritten — does not address
    /// `HEADER_LEN` readable bytes. Operation code treats that as an
    /// integrity violation rather than a panic.
    pub fn try_header(&self, handle: Handle) -> Option<EntryHeader> {
        self.heap.try_bytes_at(handle, 0, entry::HEADER_LEN).map(entry::parse_header)
    }

    /// Returns the full bytes of the entry at `handle`.
    pub fn entry_bytes(&self, handle: Handle) -> &[u8] {
        let header = self.header(handle);
        self.heap.bytes(handle, header.entry_len())
    }

    /// Returns the ciphertext slice of the entry at `handle`.
    pub fn ciphertext(&self, handle: Handle, header: &EntryHeader) -> &[u8] {
        self.heap.bytes_at(handle, entry::HEADER_LEN, header.ct_len())
    }

    /// Checked ciphertext access: `None` when the header's (untrusted,
    /// possibly attacker-written) length fields point past the backing
    /// chunk. Operation code treats that as an integrity violation.
    pub fn try_ciphertext(&self, handle: Handle, header: &EntryHeader) -> Option<&[u8]> {
        self.heap.try_bytes_at(handle, entry::HEADER_LEN, header.ct_len())
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

    /// Visits every `(bucket, handle)` pair in the table.
    pub fn for_each_entry(&self, mut f: impl FnMut(usize, Handle)) {
        for (bucket, &head) in self.heads.iter().enumerate() {
            let mut h = head;
            while h != NULL_HANDLE {
                let next = self.heap.read_u64_at(h, entry::OFF_NEXT);
                f(bucket, h);
                h = next;
            }
        }
    }

    /// Average chain length over non-empty buckets (diagnostics).
    pub fn average_chain_length(&self) -> f64 {
        if self.heads.is_empty() {
            return 0.0;
        }
        self.count as f64 / self.heads.len() as f64
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
        TableCtx::new(heap, buckets, MacStore::plain(buckets))
    }

    #[test]
    fn new_table_is_empty() {
        let t = ctx(8);
        assert_eq!(t.buckets(), 8);
        assert_eq!(t.count, 0);
        assert!(t.heads.iter().all(|&h| h == NULL_HANDLE));
        let mut visited = 0;
        t.for_each_entry(|_, _| visited += 1);
        assert_eq!(visited, 0);
    }

    #[test]
    fn for_each_walks_chains() {
        let mut t = ctx(2);
        // Hand-build a chain of three raw entries in bucket 1.
        let enc = shield_crypto::ctr::AesCtr::new(&[0u8; 16]);
        let cmac = shield_crypto::cmac::Cmac::new(&[0u8; 16]);
        let mut prev = NULL_HANDLE;
        for i in 0..3u8 {
            let len = entry::HEADER_LEN + 1 + 1;
            let h = t.heap.alloc(len);
            let mut buf = vec![0u8; len];
            entry::encode_into(&mut buf, prev, 0, 0, 0, &[i; 16], &[i], &[i], &enc, &cmac);
            t.heap.bytes_mut(h, len).copy_from_slice(&buf);
            prev = h;
        }
        t.heads[1] = prev;
        t.count = 3;

        let mut seen = Vec::new();
        t.for_each_entry(|bucket, h| {
            assert_eq!(bucket, 1);
            seen.push(h);
        });
        assert_eq!(seen.len(), 3);
        assert!((t.average_chain_length() - 1.5).abs() < 1e-12);
    }
}
