//! In-enclave entry cache (`ShieldOpt+cache`, paper Fig. 17).
//!
//! When the working set is small, the EPC has headroom beyond the MAC hash
//! array; ShieldStore can use it as a plaintext cache of hot entries so
//! that repeated `get`s skip untrusted-memory decryption and integrity
//! verification entirely. Cached values are stored in metered enclave
//! memory — size the cache beyond the spare EPC and it starts faulting,
//! which is exactly the paper's trade-off.
//!
//! Eviction is exact LRU via an intrusive doubly-linked list over a slab.

use sgx_sim::classes::same_class;
use sgx_sim::enclave::Enclave;
use std::collections::HashMap;
use std::sync::Arc;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    key: Vec<u8>,
    addr: u64,
    len: usize,
    prev: usize,
    next: usize,
}

/// A byte-budgeted LRU cache of plaintext values in enclave memory.
pub struct EnclaveCache {
    enclave: Arc<Enclave>,
    capacity_bytes: usize,
    used_bytes: usize,
    map: HashMap<Vec<u8>, usize>,
    slab: Vec<Node>,
    free_slots: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    hits: u64,
    misses: u64,
}

impl std::fmt::Debug for EnclaveCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnclaveCache")
            .field("capacity_bytes", &self.capacity_bytes)
            .field("used_bytes", &self.used_bytes)
            .field("entries", &self.map.len())
            .finish()
    }
}

impl EnclaveCache {
    /// Creates a cache with a `capacity_bytes` value-byte budget.
    pub fn new(enclave: Arc<Enclave>, capacity_bytes: usize) -> Self {
        Self {
            enclave,
            capacity_bytes,
            used_bytes: 0,
            map: HashMap::new(),
            slab: Vec::new(),
            free_slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, returning the cached plaintext value and bumping
    /// its recency. Reading the value is metered enclave-memory access.
    pub fn get(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let Some(&idx) = self.map.get(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.detach(idx);
        self.attach_front(idx);
        let node = &self.slab[idx];
        Some(self.enclave.memory().read_vec(node.addr, node.len))
    }

    /// Inserts or updates `key` with `value`, evicting LRU entries to stay
    /// within budget. Values larger than the whole budget are not cached.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        if value.len() > self.capacity_bytes {
            self.remove(key);
            return;
        }
        if let Some(&idx) = self.map.get(key) {
            // Update in place when the new value has the old allocation's
            // class; otherwise reallocate.
            let old_len = self.slab[idx].len;
            if same_class(old_len, value.len()) {
                let addr = self.slab[idx].addr;
                self.enclave.memory().write(addr, value);
                self.used_bytes = self.used_bytes - old_len + value.len();
                self.slab[idx].len = value.len();
            } else {
                let addr = self.slab[idx].addr;
                self.enclave.memory().free(addr, old_len);
                let new_addr = match self.enclave.memory().alloc(value.len().max(1)) {
                    Ok(a) => a,
                    Err(_) => {
                        self.remove(key);
                        return;
                    }
                };
                self.enclave.memory().write(new_addr, value);
                self.used_bytes = self.used_bytes - old_len + value.len();
                self.slab[idx].addr = new_addr;
                self.slab[idx].len = value.len();
            }
            self.detach(idx);
            self.attach_front(idx);
            self.evict_to_budget();
            return;
        }

        let Ok(addr) = self.enclave.memory().alloc(value.len().max(1)) else {
            return;
        };
        self.enclave.memory().write(addr, value);
        let node = Node { key: key.to_vec(), addr, len: value.len(), prev: NIL, next: NIL };
        let idx = if let Some(slot) = self.free_slots.pop() {
            self.slab[slot] = node;
            slot
        } else {
            self.slab.push(node);
            self.slab.len() - 1
        };
        self.map.insert(key.to_vec(), idx);
        self.attach_front(idx);
        self.used_bytes += value.len();
        self.evict_to_budget();
    }

    /// Removes `key` from the cache (e.g. on delete).
    pub fn remove(&mut self, key: &[u8]) {
        if let Some(idx) = self.map.remove(key) {
            self.detach(idx);
            let node = &self.slab[idx];
            self.enclave.memory().free(node.addr, node.len);
            self.used_bytes -= node.len;
            self.free_slots.push(idx);
        }
    }

    fn evict_to_budget(&mut self) {
        while self.used_bytes > self.capacity_bytes && self.tail != NIL {
            let victim = self.tail;
            let key = std::mem::take(&mut self.slab[victim].key);
            self.detach(victim);
            self.map.remove(&key);
            let node = &self.slab[victim];
            self.enclave.memory().free(node.addr, node.len);
            self.used_bytes -= node.len;
            self.free_slots.push(victim);
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Value bytes currently cached.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// `(hits, misses)` so far.
    pub fn hit_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::enclave::EnclaveBuilder;
    use sgx_sim::vclock;

    fn cache(capacity: usize) -> EnclaveCache {
        EnclaveCache::new(EnclaveBuilder::new("cache-test").build(), capacity)
    }

    #[test]
    fn put_get_roundtrip() {
        let mut c = cache(1024);
        vclock::reset();
        assert!(c.get(b"k").is_none());
        c.put(b"k", b"value");
        assert_eq!(c.get(b"k").unwrap(), b"value");
        assert_eq!(c.hit_stats(), (1, 1));
        vclock::reset();
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(30);
        vclock::reset();
        c.put(b"a", &[0u8; 10]);
        c.put(b"b", &[1u8; 10]);
        c.put(b"c", &[2u8; 10]);
        // Touch `a` so `b` is the LRU victim.
        assert!(c.get(b"a").is_some());
        c.put(b"d", &[3u8; 10]);
        assert!(c.get(b"b").is_none(), "b should have been evicted");
        assert!(c.get(b"a").is_some());
        assert!(c.get(b"c").is_some());
        assert!(c.get(b"d").is_some());
        vclock::reset();
    }

    #[test]
    fn update_changes_value_and_budget() {
        let mut c = cache(100);
        vclock::reset();
        c.put(b"k", &[1u8; 40]);
        assert_eq!(c.used_bytes(), 40);
        c.put(b"k", &[2u8; 10]);
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.get(b"k").unwrap(), vec![2u8; 10]);
        // Growing beyond the allocation class reallocates.
        c.put(b"k", &[3u8; 90]);
        assert_eq!(c.get(b"k").unwrap(), vec![3u8; 90]);
        vclock::reset();
    }

    #[test]
    fn oversize_value_not_cached() {
        let mut c = cache(10);
        vclock::reset();
        c.put(b"k", &[0u8; 11]);
        assert!(c.get(b"k").is_none());
        assert_eq!(c.used_bytes(), 0);
        // An oversize update of an existing key removes the stale copy.
        c.put(b"j", &[1u8; 5]);
        c.put(b"j", &[2u8; 11]);
        assert!(c.get(b"j").is_none());
        vclock::reset();
    }

    #[test]
    fn remove_frees_budget() {
        let mut c = cache(100);
        vclock::reset();
        c.put(b"k", &[0u8; 60]);
        c.remove(b"k");
        assert_eq!(c.used_bytes(), 0);
        assert!(c.is_empty());
        c.put(b"l", &[0u8; 100]);
        assert_eq!(c.len(), 1);
        vclock::reset();
    }

    #[test]
    fn many_entries_survive_slab_recycling() {
        let mut c = cache(64);
        vclock::reset();
        for round in 0..10u8 {
            for i in 0..16u8 {
                c.put(&[round, i], &[i; 4]);
            }
        }
        assert!(c.used_bytes() <= 64);
        assert_eq!(c.len(), 16);
        for i in 0..16u8 {
            assert_eq!(c.get(&[9, i]).unwrap(), vec![i; 4]);
        }
        vclock::reset();
    }
}
