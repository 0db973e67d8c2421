//! Enclave virtual memory: a real heap arena with metered access.
//!
//! [`EnclaveMemory`] stands in for the enclave's heap. Data written here is
//! physically stored (simulated stores hold real bytes), and every read or
//! write is metered through the [`crate::epc::Epc`] model: pages spanned by
//! the access are touched (possibly faulting) and the MEE per-cacheline
//! overhead is charged.
//!
//! Addresses are opaque `u64` handles packing a chunk index in the high 32
//! bits and a byte offset in the low 32 bits. An allocation never crosses a
//! chunk boundary, so it is always contiguous in its backing chunk, and
//! chunk indices keep the simulated page numbers of distinct chunks
//! disjoint. Blocks are carved by the shared [`crate::classes`] core, under
//! the same class rule as ShieldStore's untrusted heap.

use crate::classes::Classes;
use crate::epc::Epc;
use crate::SimError;
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// Default chunk size: 4 MiB.
pub const DEFAULT_CHUNK_SIZE: usize = 4 << 20;

type Chunk = Mutex<Box<[u8]>>;

#[derive(Debug)]
struct AllocState {
    classes: Classes,
    /// Bytes reserved from the chunk allocator.
    reserved_bytes: usize,
}

/// The simulated enclave heap.
pub struct EnclaveMemory {
    epc: Arc<Epc>,
    chunks: RwLock<Vec<Chunk>>,
    alloc: Mutex<AllocState>,
    chunk_size: usize,
}

impl std::fmt::Debug for EnclaveMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnclaveMemory")
            .field("chunks", &self.chunks.read().len())
            .field("chunk_size", &self.chunk_size)
            .finish()
    }
}

fn pack(chunk: usize, offset: usize) -> u64 {
    ((chunk as u64) << 32) | offset as u64
}

fn unpack(addr: u64) -> (usize, usize) {
    ((addr >> 32) as usize, (addr & 0xffff_ffff) as usize)
}

impl EnclaveMemory {
    /// Creates an arena metered through `epc`, with the default chunk size.
    pub fn new(epc: Arc<Epc>) -> Self {
        Self::with_chunk_size(epc, DEFAULT_CHUNK_SIZE)
    }

    /// Creates an arena with an explicit chunk size (power of two).
    pub fn with_chunk_size(epc: Arc<Epc>, chunk_size: usize) -> Self {
        assert!(chunk_size.is_power_of_two(), "chunk size must be a power of two");
        assert!(chunk_size <= u32::MAX as usize + 1, "chunk size exceeds address space");
        Self {
            epc,
            chunks: RwLock::new(Vec::new()),
            alloc: Mutex::new(AllocState { classes: Classes::new(chunk_size), reserved_bytes: 0 }),
            chunk_size,
        }
    }

    /// The EPC model metering this arena.
    pub fn epc(&self) -> &Arc<Epc> {
        &self.epc
    }

    /// Allocates `len` bytes and returns an address handle.
    ///
    /// Allocation itself is not metered (real enclaves allocate from an
    /// in-enclave heap without kernel involvement); only data access is.
    pub fn alloc(&self, len: usize) -> Result<u64, SimError> {
        let mut st = self.alloc.lock();
        let st = &mut *st;
        let ((chunk, offset), _) = st
            .classes
            .alloc(len, |_, len| {
                self.chunks.write().push(Mutex::new(vec![0u8; len].into_boxed_slice()));
                st.reserved_bytes += len;
                true
            })
            .ok_or(SimError::OutOfEnclaveMemory)?;
        Ok(pack(chunk, offset))
    }

    /// Returns an allocation of `len` bytes to the free pool.
    ///
    /// `len` must be the length passed to [`EnclaveMemory::alloc`].
    pub fn free(&self, addr: u64, len: usize) {
        self.alloc.lock().classes.free(unpack(addr), len);
    }

    /// Runs `f` on the `len` bytes at `addr`, metering the access first.
    ///
    /// One pass: the chunk table's read lock and the chunk's own lock are
    /// each taken once, the range is checked under them, and only a valid
    /// access is charged — a bad address costs nothing, as before.
    fn access<R>(
        &self,
        addr: u64,
        len: usize,
        write: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, SimError> {
        let (chunk_idx, offset) = unpack(addr);
        let chunks = self.chunks.read();
        let mut data = chunks.get(chunk_idx).ok_or(SimError::BadAddress { addr, len })?.lock();
        let range = offset
            .checked_add(len)
            .and_then(|end| data.get_mut(offset..end))
            .ok_or(SimError::BadAddress { addr, len })?;
        self.epc.touch_range(addr, len, write);
        self.epc.charge_mee(addr, len);
        Ok(f(range))
    }

    /// Reads `buf.len()` bytes from `addr`, metering the access.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds address; use [`EnclaveMemory::try_read`]
    /// for a fallible variant.
    pub fn read(&self, addr: u64, buf: &mut [u8]) {
        self.try_read(addr, buf).expect("enclave read out of bounds");
    }

    /// Fallible read.
    pub fn try_read(&self, addr: u64, buf: &mut [u8]) -> Result<(), SimError> {
        self.access(addr, buf.len(), false, |src| buf.copy_from_slice(src))
    }

    /// Writes `data` at `addr`, metering the access.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-bounds address; use [`EnclaveMemory::try_write`]
    /// for a fallible variant.
    pub fn write(&self, addr: u64, data: &[u8]) {
        self.try_write(addr, data).expect("enclave write out of bounds");
    }

    /// Fallible write.
    pub fn try_write(&self, addr: u64, data: &[u8]) -> Result<(), SimError> {
        self.access(addr, data.len(), true, |dst| dst.copy_from_slice(data))
    }

    /// Reads `len` bytes into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v);
        v
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&self, addr: u64, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Bytes currently handed out to callers (rounded to size classes).
    pub fn live_bytes(&self) -> usize {
        self.alloc.lock().classes.live_bytes()
    }

    /// Bytes reserved from the backing allocator.
    pub fn reserved_bytes(&self) -> usize {
        self.alloc.lock().reserved_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::tests::{live_blocks_hold, Heap};
    use crate::classes::{self, Place};
    use crate::cost::CostModel;
    use crate::stats::SimStats;
    use crate::vclock;
    use proptest::prelude::*;

    fn memory(epc_pages: usize) -> EnclaveMemory {
        let stats = Arc::new(SimStats::new());
        EnclaveMemory::new(Arc::new(Epc::new(epc_pages, CostModel::I7_7700, stats)))
    }

    #[test]
    fn write_then_read_roundtrip() {
        let m = memory(64);
        vclock::reset();
        let addr = m.alloc(100).unwrap();
        m.write(addr, b"hello enclave memory");
        let mut buf = [0u8; 20];
        m.read(addr, &mut buf);
        assert_eq!(&buf, b"hello enclave memory");
        vclock::reset();
    }

    #[test]
    fn distinct_allocations_do_not_alias() {
        let m = memory(64);
        vclock::reset();
        let a = m.alloc(32).unwrap();
        let b = m.alloc(32).unwrap();
        assert_ne!(a, b);
        m.write(a, &[1u8; 32]);
        m.write(b, &[2u8; 32]);
        assert_eq!(m.read_vec(a, 32), vec![1u8; 32]);
        assert_eq!(m.read_vec(b, 32), vec![2u8; 32]);
        vclock::reset();
    }

    #[test]
    fn free_recycles_same_class() {
        let m = memory(64);
        vclock::reset();
        let a = m.alloc(48).unwrap(); // class 64
        m.free(a, 48);
        let b = m.alloc(60).unwrap(); // class 64 again
        assert_eq!(a, b, "freed block should be reused for the same class");
        vclock::reset();
    }

    #[test]
    fn jumbo_allocation_gets_dedicated_chunk() {
        let stats = Arc::new(SimStats::new());
        let epc = Arc::new(Epc::new(1 << 20, CostModel::NO_SGX, stats));
        let m = EnclaveMemory::with_chunk_size(epc, 1 << 16);
        let addr = m.alloc(1 << 20).unwrap(); // 1 MiB > 64 KiB chunk
        let data = vec![0xabu8; 1 << 20];
        m.write(addr, &data);
        assert_eq!(m.read_vec(addr, 1 << 20), data);
    }

    #[test]
    fn a_freed_jumbo_block_is_reused() {
        let stats = Arc::new(SimStats::new());
        let epc = Arc::new(Epc::new(1 << 20, CostModel::NO_SGX, stats));
        let m = EnclaveMemory::with_chunk_size(epc, 1 << 16);
        let addr = m.alloc(1 << 20).unwrap();
        m.free(addr, 1 << 20);
        assert_eq!(m.alloc(1 << 20).unwrap(), addr);
        assert_eq!(m.reserved_bytes(), 1 << 20, "the freed chunk, not a second one");
    }

    impl Heap for EnclaveMemory {
        fn alloc(&mut self, len: usize) -> Place {
            unpack(EnclaveMemory::alloc(self, len).unwrap())
        }
        fn free(&mut self, (chunk, offset): Place, len: usize) {
            EnclaveMemory::free(self, pack(chunk, offset), len);
        }
        fn holds(&self, (chunk, offset): Place, class: usize) -> bool {
            self.chunks.read()[chunk].lock().get(offset..offset + class).is_some()
        }
        fn live_bytes(&self) -> usize {
            EnclaveMemory::live_bytes(self)
        }
    }

    proptest! {
        #[test]
        fn live_blocks_are_whole_aligned_and_disjoint(ops in classes::tests::ops()) {
            let stats = Arc::new(SimStats::new());
            let epc = Arc::new(Epc::new(16, CostModel::NO_SGX, stats));
            live_blocks_hold(&mut EnclaveMemory::with_chunk_size(epc, 1 << 16), ops)?;
        }
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let m = memory(64);
        vclock::reset();
        let addr = m.alloc(16).unwrap();
        // Beyond the chunk end.
        let far = addr + (DEFAULT_CHUNK_SIZE as u64);
        let mut buf = [0u8; 1];
        assert!(matches!(m.try_read(far, &mut buf), Err(SimError::BadAddress { .. })));
        let bogus_chunk = pack(999, 0);
        assert!(matches!(m.try_read(bogus_chunk, &mut buf), Err(SimError::BadAddress { .. })));
        vclock::reset();
    }

    #[test]
    fn accesses_fault_when_working_set_exceeds_epc() {
        let stats = Arc::new(SimStats::new());
        let epc = Arc::new(Epc::new(4, CostModel::I7_7700, Arc::clone(&stats)));
        let m = EnclaveMemory::new(epc);
        vclock::reset();
        // Touch 16 distinct pages with a 4-page EPC: mostly faults.
        let addr = m.alloc(16 * 4096).unwrap();
        for p in 0..16u64 {
            m.write_u64(addr + p * 4096, p);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.epc_faults, 16);
        assert_eq!(snap.epc_evictions, 12);
        // Second pass over pages evicted earlier faults again.
        for p in 0..16u64 {
            assert_eq!(m.read_u64(addr + p * 4096), p);
        }
        assert!(stats.snapshot().epc_faults > 16);
        assert!(vclock::now() > 0, "paging must charge virtual time");
        vclock::reset();
    }

    #[test]
    fn u64_helpers_roundtrip() {
        let m = memory(64);
        vclock::reset();
        let addr = m.alloc(8).unwrap();
        m.write_u64(addr, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(addr), 0xdead_beef_cafe_f00d);
        vclock::reset();
    }

    #[test]
    fn live_and_reserved_accounting() {
        let m = memory(64);
        assert_eq!(m.live_bytes(), 0);
        let a = m.alloc(100).unwrap(); // class 128
        assert_eq!(m.live_bytes(), 128);
        m.free(a, 100);
        assert_eq!(m.live_bytes(), 0);
        assert!(m.reserved_bytes() >= DEFAULT_CHUNK_SIZE);
    }
}
