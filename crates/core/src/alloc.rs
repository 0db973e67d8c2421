//! The custom untrusted-memory heap allocator (paper §5.1).
//!
//! ShieldStore's data entries live in *untrusted* memory, but the code that
//! allocates them runs *inside* the enclave. The stock SGX SDK offers two
//! heaps: the trusted one (allocates enclave memory — useless here) and the
//! conventional untrusted one (every call OCALLs out of the enclave —
//! ~8,000 cycles each). The paper adds a third: an allocator that runs in
//! the enclave, carves allocations from a pool of untrusted chunks, and
//! OCALLs (`sbrk`/`mmap`) only when the pool runs dry. Fig. 6 sweeps the
//! chunk granularity from 1 to 32 MiB and settles on 16 MiB.
//!
//! [`UntrustedHeap`] implements both modes behind [`AllocMode`]. Handles
//! are opaque non-zero `u64`s packing `(chunk index + 1, byte offset)`, so
//! `0` serves as the null chain terminator. Each shard owns its heap
//! exclusively (`&mut self` for writes), matching the paper's
//! synchronization-free partitioning.
//!
//! Blocks are carved by the shared size-class core,
//! [`sgx_sim::classes`]: its class rule, free lists and bump cursor are the
//! enclave heap's and Eleos's too. Every chunk's usable bytes start on a
//! cache-line boundary, so a block of a line-multiple class (128, 192,
//! 256, 320, …) starts on a line and its 45-byte entry header never
//! straddles two lines; a 96, 160 or 224 B block starts on a half line,
//! and its header may cross into the next one.
//! [`UntrustedHeap::prefetch`] counts its window from the handle, not from
//! a line boundary, so a one-line hint at a header names both.

use crate::config::AllocMode;
use sgx_sim::classes::{class_align, size_class, Classes};
use sgx_sim::enclave::Enclave;
use shield_crypto::hint::{self, LINE};
use std::sync::Arc;

/// An opaque handle to an untrusted-memory allocation. `NULL_HANDLE` (0)
/// never denotes a live allocation.
pub type Handle = u64;

/// The null handle: terminates entry chains.
pub const NULL_HANDLE: Handle = 0;

#[inline]
fn pack(chunk: usize, offset: usize) -> Handle {
    (((chunk + 1) as u64) << 32) | offset as u64
}

#[inline]
fn unpack(h: Handle) -> (usize, usize) {
    debug_assert_ne!(h, NULL_HANDLE, "dereferencing the null handle");
    (((h >> 32) as usize) - 1, (h & 0xffff_ffff) as usize)
}

/// One backing chunk. The host's allocator hands out memory at whatever
/// alignment it likes (glibc: 16 bytes past a page for large blocks), so
/// the block is over-allocated by less than a line and the usable window
/// skewed forward to the next line boundary.
struct Chunk {
    block: Box<[u8]>,
    skew: usize,
}

impl Chunk {
    /// Wraps a zeroed block of the usable length.
    fn new(mut block: Vec<u8>) -> Self {
        block.reserve_exact(LINE - 1);
        block.resize(block.len() + LINE - 1, 0);
        // Measured on the final allocation: shrinking to fit may move it.
        let block = block.into_boxed_slice();
        let skew = (LINE - block.as_ptr() as usize % LINE) % LINE;
        Self { block, skew }
    }

    /// The usable window: everything but the alignment slack.
    #[inline]
    fn window(&self) -> core::ops::Range<usize> {
        self.skew..self.skew + self.block.len() - (LINE - 1)
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        &self.block[self.window()]
    }

    #[inline]
    fn bytes_mut(&mut self) -> &mut [u8] {
        let window = self.window();
        &mut self.block[window]
    }
}

/// An in-enclave allocator for untrusted memory.
pub struct UntrustedHeap {
    enclave: Arc<Enclave>,
    /// [`AllocMode::Pooled`]: the chunk size is the core's.
    pooled: bool,
    chunks: Vec<Chunk>,
    classes: Classes,
}

impl std::fmt::Debug for UntrustedHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UntrustedHeap")
            .field("pooled", &self.pooled)
            .field("chunks", &self.chunks.len())
            .field("live_bytes", &self.classes.live_bytes())
            .finish()
    }
}

impl UntrustedHeap {
    /// Creates a heap that obtains untrusted chunks from `enclave`.
    pub fn new(enclave: Arc<Enclave>, mode: AllocMode) -> Self {
        let (pooled, granularity) = match mode {
            AllocMode::Pooled { granularity } => (true, granularity),
            AllocMode::OcallPerAlloc => (false, 16 << 20),
        };
        Self { enclave, pooled, chunks: Vec::new(), classes: Classes::new(granularity) }
    }

    /// Allocates `len` bytes of untrusted memory, zero-initialized.
    pub fn alloc(&mut self, len: usize) -> Handle {
        let pooled = self.pooled;
        if !pooled {
            // The conventional untrusted allocator: one OCALL per call.
            // Memory is still pooled internally (the host heap), but the
            // crossing cost and count are charged faithfully.
            self.enclave.ocall();
        }
        let (enclave, chunks) = (&self.enclave, &mut self.chunks);
        let ((chunk, offset), recycled) = self
            .classes
            .alloc(len, |_, len| {
                // Pooled, every chunk, jumbo or not, is one OCALL.
                let block =
                    if pooled { enclave.ocall_alloc_untrusted_chunk(len) } else { vec![0u8; len] };
                chunks.push(Chunk::new(block));
                true
            })
            .expect("the host always has another chunk");
        if recycled {
            // Zero recycled memory: entries assume fresh buffers.
            chunks[chunk].bytes_mut()[offset..offset + size_class(len)].fill(0);
        }
        pack(chunk, offset)
    }

    /// Frees an allocation of `len` bytes (the length passed to `alloc`).
    ///
    /// Both usually come out of a chain in untrusted memory — where an
    /// entry or a MAC node was found, and the size its fields give it — so
    /// together they may name a block no `alloc` handed out. One that its
    /// chunk does not hold whole, or that starts where no block of its
    /// class can, is not recycled: `alloc` zeroes what it recycles, and
    /// would do so past the end of the chunk. It is left unused instead.
    pub fn free(&mut self, handle: Handle, len: usize) {
        debug_assert_ne!(handle, NULL_HANDLE);
        if !self.pooled {
            self.enclave.ocall();
        }
        let class = size_class(len);
        let whole = self.try_tail(handle, 0).is_some_and(|tail| tail.len() >= class);
        if !whole || !unpack(handle).1.is_multiple_of(class_align(class)) {
            return self.classes.forget(len);
        }
        self.classes.free(unpack(handle), len);
    }

    /// Returns the bytes of an allocation.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is null or the range exceeds its chunk — which
    /// would be a store bug, not an input error.
    #[inline]
    pub fn bytes(&self, handle: Handle, len: usize) -> &[u8] {
        let (chunk, offset) = unpack(handle);
        &self.chunks[chunk].bytes()[offset..offset + len]
    }

    /// Returns the bytes of an allocation at `offset_in_alloc`.
    #[inline]
    pub fn bytes_at(&self, handle: Handle, offset_in_alloc: usize, len: usize) -> &[u8] {
        let (chunk, offset) = unpack(handle);
        &self.chunks[chunk].bytes()[offset + offset_in_alloc..offset + offset_in_alloc + len]
    }

    /// Every byte of `handle`'s chunk from `offset_in_alloc` bytes into the
    /// allocation on: what a checked read may address. `None` when `handle`
    /// — usually a pointer just read from untrusted memory, so any u64 —
    /// does not address the heap.
    #[inline]
    pub fn try_tail(&self, handle: Handle, offset_in_alloc: usize) -> Option<&[u8]> {
        // A zero chunk field would underflow `unpack`. Reject before
        // unpacking.
        if handle >> 32 == 0 {
            return None;
        }
        let (chunk, offset) = unpack(handle);
        self.chunks.get(chunk)?.bytes().get(offset.checked_add(offset_in_alloc)?..)
    }

    /// Checked variant of [`UntrustedHeap::bytes_at`]: `None` when the
    /// range leaves the backing chunk. Untrusted memory holds
    /// attacker-controlled length fields; store code validating a parsed
    /// length against memory must use this rather than panicking.
    #[inline]
    pub fn try_bytes_at(
        &self,
        handle: Handle,
        offset_in_alloc: usize,
        len: usize,
    ) -> Option<&[u8]> {
        self.try_tail(handle, offset_in_alloc)?.get(..len)
    }

    /// Hints that up to `lines` cache lines starting `offset_in_alloc`
    /// bytes into the allocation at `handle` are about to be read.
    ///
    /// `handle` is usually a pointer just read from untrusted memory, so
    /// it is checked exactly like [`UntrustedHeap::try_bytes_at`] checks
    /// one — a null, wild or out-of-chunk handle is silently ignored, and
    /// a window running off the end of the chunk is cut short there. A
    /// hint is never a read: nothing is returned and no check downstream
    /// may rely on it having happened.
    #[inline]
    pub fn prefetch(&self, handle: Handle, offset_in_alloc: usize, lines: usize) {
        if let Some(window) = self.try_tail(handle, offset_in_alloc) {
            hint::prefetch_read(&window[..window.len().min(lines.saturating_mul(LINE))]);
        }
    }

    /// Checked variant of [`UntrustedHeap::bytes_at_mut`]: `None` where
    /// [`UntrustedHeap::try_bytes_at`] would be — for writes into a
    /// structure whose handle and size were themselves read from untrusted
    /// memory (a MAC node).
    #[inline]
    pub fn try_bytes_at_mut(
        &mut self,
        handle: Handle,
        offset_in_alloc: usize,
        len: usize,
    ) -> Option<&mut [u8]> {
        if handle >> 32 == 0 {
            return None;
        }
        let (chunk, offset) = unpack(handle);
        let data = self.chunks.get_mut(chunk)?.bytes_mut();
        let start = offset.checked_add(offset_in_alloc)?;
        let end = start.checked_add(len)?;
        data.get_mut(start..end)
    }

    /// Mutable access to an allocation's bytes.
    #[inline]
    pub fn bytes_mut(&mut self, handle: Handle, len: usize) -> &mut [u8] {
        let (chunk, offset) = unpack(handle);
        &mut self.chunks[chunk].bytes_mut()[offset..offset + len]
    }

    /// Mutable access at an offset within an allocation.
    #[inline]
    pub fn bytes_at_mut(
        &mut self,
        handle: Handle,
        offset_in_alloc: usize,
        len: usize,
    ) -> &mut [u8] {
        let (chunk, offset) = unpack(handle);
        &mut self.chunks[chunk].bytes_mut()
            [offset + offset_in_alloc..offset + offset_in_alloc + len]
    }

    /// Reads a little-endian u64 at an offset within an allocation.
    #[inline]
    pub fn read_u64_at(&self, handle: Handle, offset: usize) -> u64 {
        u64::from_le_bytes(self.bytes_at(handle, offset, 8).try_into().expect("8 bytes"))
    }

    /// Writes a little-endian u64 at an offset within an allocation.
    #[inline]
    pub fn write_u64_at(&mut self, handle: Handle, offset: usize, value: u64) {
        self.bytes_at_mut(handle, offset, 8).copy_from_slice(&value.to_le_bytes());
    }

    /// Bytes handed out and not yet freed (rounded to size classes).
    pub fn live_bytes(&self) -> usize {
        self.classes.live_bytes()
    }

    /// Bytes carved from this heap's chunks so far, alignment padding
    /// included and a recycled block counted once.
    pub fn carved_bytes(&self) -> usize {
        self.classes.carved_bytes()
    }

    /// Checked variant of [`UntrustedHeap::read_u64_at`]: `None` when the
    /// handle is corrupt or the read leaves the backing chunk.
    #[inline]
    pub fn try_read_u64_at(&self, handle: Handle, offset: usize) -> Option<u64> {
        let bytes = self.try_bytes_at(handle, offset, 8)?;
        Some(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// The enclave this heap OCALLs through.
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// Number of backing chunks currently held.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Length in bytes of chunk `index` (testing only).
    #[cfg(any(test, feature = "testing"))]
    pub fn chunk_len(&self, index: usize) -> usize {
        self.chunks[index].bytes().len()
    }

    /// The pointers an attacker might plant where the store expects a
    /// handle, none of which addresses a whole entry or MAC node: all
    /// ones, a chunk index past the heap, an offset past its chunk, and
    /// the last byte of the last chunk — in bounds itself, but anything
    /// read or hinted *from* it runs off the end (testing only; the heap
    /// must hold at least one chunk).
    #[cfg(any(test, feature = "testing"))]
    pub fn wild_handles(&self) -> [Handle; 4] {
        let last = self.chunks.len() - 1;
        let len = self.chunk_len(last);
        [u64::MAX, pack(self.chunks.len() + 7, 0), pack(last, len + LINE), pack(last, len - 1)]
    }

    /// XORs `mask` into one byte of raw chunk memory, simulating an
    /// attacker with write access to the untrusted address space
    /// (testing only). Returns `false` when the location is out of range.
    #[cfg(any(test, feature = "testing"))]
    pub fn corrupt_raw(&mut self, chunk: usize, offset: usize, mask: u8) -> bool {
        match self.chunks.get_mut(chunk).and_then(|c| c.bytes_mut().get_mut(offset)) {
            Some(byte) => {
                *byte ^= mask;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::enclave::EnclaveBuilder;
    use sgx_sim::vclock;

    fn heap(mode: AllocMode) -> UntrustedHeap {
        UntrustedHeap::new(EnclaveBuilder::new("alloc-test").build(), mode)
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let mut h = heap(AllocMode::Pooled { granularity: 1 << 20 });
        vclock::reset();
        let a = h.alloc(100);
        h.bytes_mut(a, 100).copy_from_slice(&[7u8; 100]);
        assert_eq!(h.bytes(a, 100), &[7u8; 100]);
        vclock::reset();
    }

    #[test]
    fn handles_are_nonzero_and_distinct() {
        let mut h = heap(AllocMode::pooled_default());
        vclock::reset();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let a = h.alloc(64);
            assert_ne!(a, NULL_HANDLE);
            assert!(seen.insert(a), "handle reused while live");
        }
        vclock::reset();
    }

    #[test]
    fn free_recycles_and_zeroes() {
        let mut h = heap(AllocMode::Pooled { granularity: 1 << 20 });
        vclock::reset();
        let a = h.alloc(64);
        h.bytes_mut(a, 64).fill(0xff);
        h.free(a, 64);
        let b = h.alloc(64);
        assert_eq!(a, b);
        assert_eq!(h.bytes(b, 64), &[0u8; 64], "recycled memory must be zeroed");
        vclock::reset();
    }

    #[test]
    fn a_block_no_alloc_handed_out_is_not_recycled() {
        let mut h = heap(AllocMode::Pooled { granularity: 4096 });
        vclock::reset();
        let a = h.alloc(64);
        h.bytes_mut(a, 64).fill(0xff);
        // Forged sizes and places: a KiB block 960 bytes before the end of
        // its chunk, a line-sized block that starts mid-line, a 128-byte
        // block in the chunk's last 64.
        let near_end = pack(0, 4096 - 960);
        for (forged, len) in [(near_end, 1024), (pack(0, 24), 64), (pack(0, 4096 - 64), 100)] {
            h.free(forged, len);
        }
        // Nor one outside the heap altogether.
        for wild in h.wild_handles() {
            h.free(wild, 64);
        }
        for len in [64, 100, 1024] {
            let fresh = h.alloc(len);
            assert!(![near_end, pack(0, 24), pack(0, 4096 - 64)].contains(&fresh));
            assert_eq!(h.bytes(fresh, len), vec![0u8; len]);
        }
        assert_eq!(h.bytes(a, 64), &[0xff; 64], "nothing live was zeroed");
        vclock::reset();
    }

    #[test]
    fn pooled_mode_ocalls_once_per_chunk() {
        let enclave = EnclaveBuilder::new("pool").build();
        let mut h =
            UntrustedHeap::new(Arc::clone(&enclave), AllocMode::Pooled { granularity: 4096 });
        vclock::reset();
        // 8 allocations of 1 KiB: 2 KiB used per... 1024-byte class, 4 per
        // 4 KiB chunk -> 2 chunk OCALLs.
        for _ in 0..8 {
            h.alloc(1000);
        }
        assert_eq!(enclave.stats().snapshot().ocalls, 2);
        vclock::reset();
    }

    #[test]
    fn ocall_per_alloc_mode_charges_every_call() {
        let enclave = EnclaveBuilder::new("naive").build();
        let mut h = UntrustedHeap::new(Arc::clone(&enclave), AllocMode::OcallPerAlloc);
        vclock::reset();
        let a = h.alloc(64);
        let b = h.alloc(64);
        h.free(a, 64);
        h.free(b, 64);
        assert_eq!(enclave.stats().snapshot().ocalls, 4);
        vclock::reset();
    }

    #[test]
    fn jumbo_allocation() {
        let mut h = heap(AllocMode::Pooled { granularity: 1 << 16 });
        vclock::reset();
        let a = h.alloc(1 << 20);
        h.bytes_mut(a, 1 << 20)[1 << 19] = 42;
        assert_eq!(h.bytes(a, 1 << 20)[1 << 19], 42);
        vclock::reset();
    }

    #[test]
    fn a_freed_jumbo_block_is_reused_and_zeroed() {
        let mut h = heap(AllocMode::Pooled { granularity: 1 << 16 });
        vclock::reset();
        let a = h.alloc(1 << 20);
        h.bytes_mut(a, 1 << 20).fill(0xee);
        h.free(a, 1 << 20);
        assert_eq!(h.alloc(1 << 20), a);
        assert_eq!(h.chunk_count(), 1, "the freed chunk, not a second one");
        assert!(h.bytes(a, 1 << 20).iter().all(|&b| b == 0));
        vclock::reset();
    }

    #[test]
    fn live_bytes_accounting() {
        let mut h = heap(AllocMode::pooled_default());
        vclock::reset();
        assert_eq!(h.live_bytes(), 0);
        let a = h.alloc(100); // class 128
        assert_eq!(h.live_bytes(), 128);
        h.free(a, 100);
        assert_eq!(h.live_bytes(), 0);
        vclock::reset();
    }

    #[test]
    fn every_block_starts_at_its_class_alignment() {
        for mode in [AllocMode::Pooled { granularity: 4096 }, AllocMode::OcallPerAlloc] {
            let mut h = heap(mode);
            vclock::reset();
            // Mixed classes, small ones first, across several chunks and
            // through the free list; a jumbo allocation at the end.
            let mut sizes: Vec<usize> =
                vec![1, 16, 17, 40, 61, 64, 65, 93, 100, 128, 160, 224, 492, 589, 600, 1000];
            sizes.extend((0..40).map(|i| 61 + i * 7));
            sizes.push(1 << 17);
            let mut live = Vec::new();
            for (i, &len) in sizes.iter().enumerate() {
                let a = h.alloc(len);
                live.push((a, len));
                if i % 5 == 4 {
                    let (freed, len) = live.swap_remove(i % live.len());
                    h.free(freed, len);
                }
            }
            for &(a, len) in &live {
                let (class, at) = (size_class(len), h.bytes(a, len).as_ptr() as usize);
                assert_eq!(at % class_align(class), 0, "{len} B at {a:#x}");
                // A line-multiple class keeps an entry header in one line.
                if class.is_multiple_of(LINE) {
                    assert_eq!(at % LINE, 0, "{len} B at {a:#x}");
                }
            }
            vclock::reset();
        }
    }

    #[test]
    fn alignment_leaves_handles_and_accounting_alone() {
        // Line-multiple classes only: the n-th allocation still sits at
        // the sum of the classes before it.
        let mut h = heap(AllocMode::Pooled { granularity: 1 << 16 });
        vclock::reset();
        let mut offset = 0;
        for len in [61usize, 100, 492, 64, 700, 128] {
            assert_eq!(h.alloc(len), pack(0, offset));
            offset += size_class(len);
        }
        assert_eq!(h.live_bytes(), offset);
        assert_eq!(h.chunk_len(0), 1 << 16);
        vclock::reset();
    }

    #[test]
    fn prefetch_ignores_what_try_bytes_at_rejects() {
        let mut h = heap(AllocMode::Pooled { granularity: 4096 });
        vclock::reset();
        let a = h.alloc(100);
        h.bytes_mut(a, 100).fill(0x5a);
        let last = h.alloc(64); // hints from here reach the chunk's end
        for handle in h.wild_handles().into_iter().chain([NULL_HANDLE, 1, a, last]) {
            for offset in [0, 1, LINE, 4095, 4096, usize::MAX] {
                for lines in [0, 1, 2, 64, 65, usize::MAX] {
                    h.prefetch(handle, offset, lines);
                }
            }
        }
        // The last byte of a chunk is addressable, the line after it is not.
        let [.., edge] = h.wild_handles();
        assert!(h.try_bytes_at(edge, 0, 1).is_some());
        assert!(h.try_bytes_at(edge, 0, 2).is_none());
        assert_eq!(h.bytes(a, 100), &[0x5a; 100], "a hint writes nothing");
        vclock::reset();
    }

    #[test]
    fn u64_helpers() {
        let mut h = heap(AllocMode::pooled_default());
        vclock::reset();
        let a = h.alloc(32);
        h.write_u64_at(a, 8, 0xfeed_f00d);
        assert_eq!(h.read_u64_at(a, 8), 0xfeed_f00d);
        assert_eq!(h.read_u64_at(a, 0), 0);
        vclock::reset();
    }
}
