//! The paper's Baseline: a hash-based key-value store whose entire table
//! lives in *enclave* memory (§3.1).
//!
//! With the working set beyond the EPC budget, nearly every chain access
//! demand-pages — the 134x collapse of Fig. 3 and the flat scalability of
//! Fig. 13. The identical code built with [`NaiveEnclaveStore::insecure`]
//! runs on an unmetered (`NoSGX`) enclave and serves as the paper's
//! insecure reference.
//!
//! Entries live in metered [`sgx_sim::memory::EnclaveMemory`]:
//!
//! ```text
//! [ next (8) | key_len (4) | val_len (4) | key | value ]
//! ```
//!
//! Locking is striped per bucket group, so lock contention does not mask
//! the paging serialization the experiment is about.

use crate::KvBackend;
use parking_lot::Mutex;
use sgx_sim::cost::CostModel;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use shield_crypto::siphash::SipHash24;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const HEADER: usize = 16;
const NULL: u64 = u64::MAX;
const STRIPES: usize = 64;

/// A chained hash table stored wholly in (simulated) enclave memory.
pub struct NaiveEnclaveStore {
    name: String,
    enclave: Arc<Enclave>,
    buckets_addr: u64,
    num_buckets: usize,
    stripes: Vec<Mutex<()>>,
    hash: SipHash24,
    count: AtomicUsize,
}

impl std::fmt::Debug for NaiveEnclaveStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NaiveEnclaveStore")
            .field("name", &self.name)
            .field("buckets", &self.num_buckets)
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish()
    }
}

impl NaiveEnclaveStore {
    /// Creates the Baseline inside an enclave with `epc_bytes` of EPC.
    pub fn new(num_buckets: usize, epc_bytes: usize) -> Self {
        let enclave = EnclaveBuilder::new("naive-baseline").epc_bytes(epc_bytes).build();
        Self::with_enclave("Baseline", enclave, num_buckets)
    }

    /// Creates the NoSGX variant: identical code, zero-cost memory model.
    pub fn insecure(num_buckets: usize) -> Self {
        let enclave = EnclaveBuilder::new("insecure-baseline")
            .epc_bytes(0)
            .cost_model(CostModel::NO_SGX)
            .build();
        Self::with_enclave("Insecure Baseline", enclave, num_buckets)
    }

    /// Creates the store over an existing enclave (used by
    /// [`crate::memcached::MemcachedLike`]).
    pub fn with_enclave(name: &str, enclave: Arc<Enclave>, num_buckets: usize) -> Self {
        let buckets_addr =
            enclave.memory().alloc(num_buckets * 8).expect("bucket array allocation");
        // Initialize heads to NULL.
        let empty = vec![0xffu8; num_buckets * 8];
        enclave.memory().write(buckets_addr, &empty);
        Self {
            name: name.to_string(),
            enclave,
            buckets_addr,
            num_buckets,
            stripes: (0..STRIPES).map(|_| Mutex::new(())).collect(),
            hash: SipHash24::from_parts(0x5d5d_5d5d, 0xa7a7_a7a7),
            count: AtomicUsize::new(0),
        }
    }

    /// The enclave this store runs in (for stats).
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    #[inline]
    fn bucket_of(&self, key: &[u8]) -> usize {
        (self.hash.hash(key) % self.num_buckets as u64) as usize
    }

    fn head(&self, bucket: usize) -> u64 {
        self.enclave.memory().read_u64(self.buckets_addr + (bucket * 8) as u64)
    }

    fn set_head(&self, bucket: usize, head: u64) {
        self.enclave.memory().write_u64(self.buckets_addr + (bucket * 8) as u64, head);
    }

    fn read_header(&self, addr: u64) -> (u64, usize, usize) {
        let mut buf = [0u8; HEADER];
        self.enclave.memory().read(addr, &mut buf);
        let next = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
        let klen = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) as usize;
        let vlen = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as usize;
        (next, klen, vlen)
    }

    /// Finds `(addr, prev_addr, klen, vlen)` of `key` in its chain.
    fn find(&self, bucket: usize, key: &[u8]) -> Option<(u64, u64, usize, usize)> {
        let mut prev = NULL;
        let mut cur = self.head(bucket);
        while cur != NULL {
            let (next, klen, vlen) = self.read_header(cur);
            if klen == key.len() {
                let stored = self.enclave.memory().read_vec(cur + HEADER as u64, klen);
                if stored == key {
                    return Some((cur, prev, klen, vlen));
                }
            }
            prev = cur;
            cur = next;
        }
        None
    }

    /// One maintainer sweep: grab every lock stripe in turn and hold it
    /// for `hold` (memcached's hash-table adjustment holding locks — the
    /// behaviour behind the paper's Fig. 13 degradation at 4 threads).
    pub fn maintainer_sweep(&self, hold: std::time::Duration) {
        for stripe in &self.stripes {
            let _guard = stripe.lock();
            let deadline = std::time::Instant::now() + hold;
            while std::time::Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }
    }

    fn write_entry(&self, addr: u64, next: u64, key: &[u8], value: &[u8]) {
        let mut buf = Vec::with_capacity(HEADER + key.len() + value.len());
        buf.extend_from_slice(&next.to_le_bytes());
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(value);
        self.enclave.memory().write(addr, &buf);
    }
}

impl KvBackend for NaiveEnclaveStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let bucket = self.bucket_of(key);
        let _guard = self.stripes[bucket % STRIPES].lock();
        let (addr, _, klen, vlen) = self.find(bucket, key)?;
        Some(self.enclave.memory().read_vec(addr + (HEADER + klen) as u64, vlen))
    }

    fn set(&self, key: &[u8], value: &[u8]) -> bool {
        let bucket = self.bucket_of(key);
        let _guard = self.stripes[bucket % STRIPES].lock();
        match self.find(bucket, key) {
            Some((addr, prev, klen, vlen)) => {
                if vlen == value.len() {
                    // Overwrite the value bytes in place.
                    self.enclave.memory().write(addr + (HEADER + klen) as u64, value);
                } else {
                    // Reallocate, preserving the chain position.
                    let (next, _, _) = self.read_header(addr);
                    let new_len = HEADER + key.len() + value.len();
                    let Ok(fresh) = self.enclave.memory().alloc(new_len) else {
                        return false;
                    };
                    self.write_entry(fresh, next, key, value);
                    if prev == NULL {
                        self.set_head(bucket, fresh);
                    } else {
                        self.enclave.memory().write_u64(prev, fresh);
                    }
                    self.enclave.memory().free(addr, HEADER + klen + vlen);
                }
                true
            }
            None => {
                let new_len = HEADER + key.len() + value.len();
                let Ok(fresh) = self.enclave.memory().alloc(new_len) else {
                    return false;
                };
                self.write_entry(fresh, self.head(bucket), key, value);
                self.set_head(bucket, fresh);
                self.count.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    fn delete(&self, key: &[u8]) -> bool {
        let bucket = self.bucket_of(key);
        let _guard = self.stripes[bucket % STRIPES].lock();
        let Some((addr, prev, klen, vlen)) = self.find(bucket, key) else {
            return false;
        };
        let (next, _, _) = self.read_header(addr);
        if prev == NULL {
            self.set_head(bucket, next);
        } else {
            self.enclave.memory().write_u64(prev, next);
        }
        self.enclave.memory().free(addr, HEADER + klen + vlen);
        self.count.fetch_sub(1, Ordering::Relaxed);
        true
    }

    fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    fn reset_timing(&self) {
        self.enclave.reset_timing();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::vclock;

    #[test]
    fn set_get_delete_roundtrip() {
        let s = NaiveEnclaveStore::insecure(64);
        vclock::reset();
        assert!(s.get(b"missing").is_none());
        assert!(s.set(b"k1", b"v1"));
        assert!(s.set(b"k2", b"v2"));
        assert_eq!(s.get(b"k1").unwrap(), b"v1");
        assert_eq!(s.get(b"k2").unwrap(), b"v2");
        assert_eq!(s.len(), 2);
        assert!(s.delete(b"k1"));
        assert!(!s.delete(b"k1"));
        assert!(s.get(b"k1").is_none());
        assert_eq!(s.len(), 1);
        vclock::reset();
    }

    #[test]
    fn update_same_and_different_size() {
        let s = NaiveEnclaveStore::insecure(64);
        vclock::reset();
        s.set(b"k", b"aaaa");
        s.set(b"k", b"bbbb"); // same size: in-place
        assert_eq!(s.get(b"k").unwrap(), b"bbbb");
        s.set(b"k", b"a much longer value than before");
        assert_eq!(s.get(b"k").unwrap(), b"a much longer value than before");
        s.set(b"k", b"s");
        assert_eq!(s.get(b"k").unwrap(), b"s");
        assert_eq!(s.len(), 1);
        vclock::reset();
    }

    #[test]
    fn chains_handle_collisions() {
        let s = NaiveEnclaveStore::insecure(1); // everything collides
        vclock::reset();
        for i in 0..64u32 {
            s.set(format!("key{i}").as_bytes(), format!("val{i}").as_bytes());
        }
        for i in 0..64u32 {
            assert_eq!(s.get(format!("key{i}").as_bytes()).unwrap(), format!("val{i}").as_bytes());
        }
        // Delete middle elements.
        for i in (0..64u32).step_by(2) {
            assert!(s.delete(format!("key{i}").as_bytes()));
        }
        for i in 0..64u32 {
            assert_eq!(s.get(format!("key{i}").as_bytes()).is_some(), i % 2 == 1);
        }
        vclock::reset();
    }

    #[test]
    fn enclave_version_faults_when_oversubscribed() {
        // 64 KiB EPC, then insert far beyond it: faults must dominate.
        let s = NaiveEnclaveStore::new(256, 64 << 10);
        vclock::reset();
        for i in 0..500u32 {
            s.set(format!("key-{i:08}").as_bytes(), &[0u8; 256]);
        }
        for i in 0..500u32 {
            assert!(s.get(format!("key-{i:08}").as_bytes()).is_some());
        }
        let faults = s.enclave().stats().snapshot().epc_faults;
        // 500 entries in 320 B blocks span 40 pages, 2.5x the 16-page EPC:
        // the 1,000 ops take 450 faults.
        assert!(faults > 400, "expected heavy paging, got {faults} faults");
        assert!(vclock::now() > 0);
        vclock::reset();
    }

    #[test]
    fn insecure_version_never_faults() {
        let s = NaiveEnclaveStore::insecure(256);
        vclock::reset();
        for i in 0..500u32 {
            s.set(format!("key-{i:08}").as_bytes(), &[0u8; 256]);
        }
        assert_eq!(s.enclave().stats().snapshot().epc_faults, 0);
        assert_eq!(vclock::now(), 0);
    }
}
