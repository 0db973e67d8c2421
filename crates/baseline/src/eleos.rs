//! An Eleos-style user-space paging store (paper §6.3).
//!
//! Eleos (Orenbach et al., EuroSys '17) extends enclave memory without
//! kernel involvement: a *secure page cache* (SPC) of decrypted frames
//! lives inside the EPC, and evicted pages are encrypted at page
//! granularity into an untrusted backing store. Faults are handled in user
//! space — no enclave exits — but every miss still pays page-sized
//! en/decryption, which is exactly why it loses to ShieldStore's
//! entry-granularity crypto on small values (Fig. 16).
//!
//! Matching the paper's observations:
//!
//! * page size is configurable (4 KiB default, 1 KiB "sub-pages");
//! * the pool allocator manages at most **2 GiB**; beyond that,
//!   allocations fail (Fig. 17 stops Eleos at 2 GB). Eleos's memsys5
//!   rounds to powers of two; the pool here is one chunk of the shared
//!   size-class core ([`sgx_sim::classes`]), which pads less;
//! * evicted pages are MAC-protected and verified on reload.

use crate::KvBackend;
use parking_lot::Mutex;
use sgx_sim::classes::Classes;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shield_crypto::siphash::SipHash24;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const HEADER: usize = 16;
const NULL: u64 = u64::MAX;

/// One evicted page in the untrusted backing store.
struct BackingPage {
    ciphertext: Vec<u8>,
    iv: [u8; 16],
    mac: [u8; 16],
}

/// One SPC frame's metadata.
#[derive(Clone, Copy)]
struct Frame {
    vpage: u64,
    referenced: bool,
    dirty: bool,
    valid: bool,
}

struct EleosState {
    /// vpage -> SPC frame index.
    resident: HashMap<u64, usize>,
    frames: Vec<Frame>,
    clock_hand: usize,
    /// vpage -> encrypted page (untrusted memory).
    backing: HashMap<u64, BackingPage>,
    /// The virtual pool: one chunk, never refilled; a block's offset in
    /// it is its virtual address.
    pool: Classes,
    /// Hash bucket heads (virtual addresses).
    heads: Vec<u64>,
    /// Page-cache statistics.
    spc_misses: u64,
    spc_hits: u64,
    /// Monotonic IV source for page encryption.
    iv_counter: u64,
}

/// The Eleos-style store.
pub struct EleosStore {
    enclave: Arc<Enclave>,
    page_size: usize,
    pool_limit: u64,
    spc_base: u64,
    spc_frames: usize,
    enc: AesCtr,
    mac: Cmac,
    hash: SipHash24,
    state: Mutex<EleosState>,
    count: AtomicUsize,
    name: String,
}

impl std::fmt::Debug for EleosStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EleosStore")
            .field("page_size", &self.page_size)
            .field("spc_frames", &self.spc_frames)
            .finish()
    }
}

impl EleosStore {
    /// Creates a store with a `spc_bytes` secure page cache, `page_size`
    /// paging granularity, and the default 2 GiB pool limit.
    pub fn new(num_buckets: usize, spc_bytes: usize, page_size: usize, epc_bytes: usize) -> Self {
        Self::with_pool_limit(num_buckets, spc_bytes, page_size, epc_bytes, 2 << 30)
    }

    /// Creates a store with an explicit pool limit.
    pub fn with_pool_limit(
        num_buckets: usize,
        spc_bytes: usize,
        page_size: usize,
        epc_bytes: usize,
        pool_limit: u64,
    ) -> Self {
        assert!(page_size.is_power_of_two(), "page size must be a power of two");
        let enclave = EnclaveBuilder::new("eleos").epc_bytes(epc_bytes).build();
        let spc_frames = (spc_bytes / page_size).max(4);
        let spc_base =
            enclave.memory().alloc(spc_frames * page_size).expect("secure page cache allocation");
        let mut key_enc = [0u8; 16];
        let mut key_mac = [0u8; 16];
        enclave.read_rand(&mut key_enc);
        enclave.read_rand(&mut key_mac);
        Self {
            enclave,
            page_size,
            pool_limit,
            spc_base,
            spc_frames,
            enc: AesCtr::new(&key_enc),
            mac: Cmac::new(&key_mac),
            hash: SipHash24::from_parts(0x1111, 0x2222),
            state: Mutex::new(EleosState {
                resident: HashMap::new(),
                frames: vec![
                    Frame { vpage: 0, referenced: false, dirty: false, valid: false };
                    spc_frames
                ],
                clock_hand: 0,
                backing: HashMap::new(),
                pool: Classes::new(pool_limit as usize),
                heads: vec![NULL; num_buckets],
                spc_misses: 0,
                spc_hits: 0,
                iv_counter: 1,
            }),
            count: AtomicUsize::new(0),
            name: "Eleos".to_string(),
        }
    }

    /// The enclave this store runs in.
    pub fn enclave(&self) -> &Arc<Enclave> {
        &self.enclave
    }

    /// `(hits, misses)` of the secure page cache.
    pub fn spc_stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.spc_hits, st.spc_misses)
    }

    fn frame_addr(&self, frame: usize) -> u64 {
        self.spc_base + (frame * self.page_size) as u64
    }

    /// Ensures `vpage` is resident in the SPC; returns its frame index.
    fn ensure_resident(&self, st: &mut EleosState, vpage: u64) -> usize {
        if let Some(&frame) = st.resident.get(&vpage) {
            st.frames[frame].referenced = true;
            st.spc_hits += 1;
            return frame;
        }
        st.spc_misses += 1;

        // Pick a victim with CLOCK.
        let victim = loop {
            let hand = st.clock_hand;
            st.clock_hand = (hand + 1) % self.spc_frames;
            if !st.frames[hand].valid {
                break hand;
            }
            if st.frames[hand].referenced {
                st.frames[hand].referenced = false;
                continue;
            }
            break hand;
        };

        // Write back a dirty victim at page granularity: the cost Eleos
        // pays that ShieldStore avoids.
        if st.frames[victim].valid {
            let old_vpage = st.frames[victim].vpage;
            if st.frames[victim].dirty {
                let mut plain = vec![0u8; self.page_size];
                self.enclave.memory().read(self.frame_addr(victim), &mut plain);
                let mut iv = [0u8; 16];
                iv[..8].copy_from_slice(&st.iv_counter.to_le_bytes());
                st.iv_counter += 1;
                let mut ciphertext = plain;
                self.enc.apply_keystream(&iv, &mut ciphertext);
                let mac = self.mac.compute_parts(&[&ciphertext, &iv]);
                st.backing.insert(old_vpage, BackingPage { ciphertext, iv, mac });
            }
            st.resident.remove(&old_vpage);
        }

        // Load (decrypt + verify) or zero-fill the target page.
        match st.backing.get(&vpage) {
            Some(page) => {
                let expect = self.mac.compute_parts(&[&page.ciphertext, &page.iv]);
                assert!(
                    shield_crypto::constant_time::ct_eq(&expect, &page.mac),
                    "Eleos backing page failed integrity verification"
                );
                let mut plain = page.ciphertext.clone();
                self.enc.apply_keystream(&page.iv, &mut plain);
                self.enclave.memory().write(self.frame_addr(victim), &plain);
            }
            None => {
                self.enclave.memory().write(self.frame_addr(victim), &vec![0u8; self.page_size]);
            }
        }
        st.frames[victim] = Frame { vpage, referenced: true, dirty: false, valid: true };
        st.resident.insert(vpage, victim);
        victim
    }

    /// Reads `buf.len()` bytes at virtual address `vaddr`.
    fn vread(&self, st: &mut EleosState, vaddr: u64, buf: &mut [u8]) {
        let mut off = 0usize;
        while off < buf.len() {
            let addr = vaddr + off as u64;
            let vpage = addr / self.page_size as u64;
            let in_page = (addr % self.page_size as u64) as usize;
            let take = (self.page_size - in_page).min(buf.len() - off);
            let frame = self.ensure_resident(st, vpage);
            self.enclave
                .memory()
                .read(self.frame_addr(frame) + in_page as u64, &mut buf[off..off + take]);
            off += take;
        }
    }

    /// Writes `data` at virtual address `vaddr`.
    fn vwrite(&self, st: &mut EleosState, vaddr: u64, data: &[u8]) {
        let mut off = 0usize;
        while off < data.len() {
            let addr = vaddr + off as u64;
            let vpage = addr / self.page_size as u64;
            let in_page = (addr % self.page_size as u64) as usize;
            let take = (self.page_size - in_page).min(data.len() - off);
            let frame = self.ensure_resident(st, vpage);
            st.frames[frame].dirty = true;
            self.enclave
                .memory()
                .write(self.frame_addr(frame) + in_page as u64, &data[off..off + take]);
            off += take;
        }
    }

    /// A block of the pool, `None` once it is exhausted.
    fn valloc(&self, st: &mut EleosState, len: usize) -> Option<u64> {
        let limit = self.pool_limit as usize;
        let ((_, offset), _) = st.pool.alloc(len, |chunk, len| chunk == 0 && len <= limit)?;
        Some(offset as u64)
    }

    fn vfree(&self, st: &mut EleosState, addr: u64, len: usize) {
        st.pool.free((0, addr as usize), len);
    }

    fn read_header(&self, st: &mut EleosState, vaddr: u64) -> (u64, usize, usize) {
        let mut buf = [0u8; HEADER];
        self.vread(st, vaddr, &mut buf);
        let next = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
        let klen = u32::from_le_bytes(buf[8..12].try_into().expect("4 bytes")) as usize;
        let vlen = u32::from_le_bytes(buf[12..16].try_into().expect("4 bytes")) as usize;
        (next, klen, vlen)
    }

    fn find(
        &self,
        st: &mut EleosState,
        bucket: usize,
        key: &[u8],
    ) -> Option<(u64, u64, usize, usize)> {
        let mut prev = NULL;
        let mut cur = st.heads[bucket];
        while cur != NULL {
            let (next, klen, vlen) = self.read_header(st, cur);
            if klen == key.len() {
                let mut stored = vec![0u8; klen];
                self.vread(st, cur + HEADER as u64, &mut stored);
                if stored == key {
                    return Some((cur, prev, klen, vlen));
                }
            }
            prev = cur;
            cur = next;
        }
        None
    }

    fn write_entry(&self, st: &mut EleosState, vaddr: u64, next: u64, key: &[u8], value: &[u8]) {
        let mut buf = Vec::with_capacity(HEADER + key.len() + value.len());
        buf.extend_from_slice(&next.to_le_bytes());
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(value.len() as u32).to_le_bytes());
        buf.extend_from_slice(key);
        buf.extend_from_slice(value);
        self.vwrite(st, vaddr, &buf);
    }

    fn bucket_of(&self, st: &EleosState, key: &[u8]) -> usize {
        (self.hash.hash(key) % st.heads.len() as u64) as usize
    }
}

impl KvBackend for EleosStore {
    fn name(&self) -> &str {
        &self.name
    }

    fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let mut st = self.state.lock();
        let bucket = self.bucket_of(&st, key);
        let (addr, _, klen, vlen) = self.find(&mut st, bucket, key)?;
        let mut value = vec![0u8; vlen];
        self.vread(&mut st, addr + (HEADER + klen) as u64, &mut value);
        Some(value)
    }

    fn set(&self, key: &[u8], value: &[u8]) -> bool {
        let mut st = self.state.lock();
        let bucket = self.bucket_of(&st, key);
        match self.find(&mut st, bucket, key) {
            Some((addr, prev, klen, vlen)) => {
                if vlen == value.len() {
                    self.vwrite(&mut st, addr + (HEADER + klen) as u64, value);
                } else {
                    let (next, _, _) = self.read_header(&mut st, addr);
                    let new_len = HEADER + key.len() + value.len();
                    let Some(fresh) = self.valloc(&mut st, new_len) else {
                        return false;
                    };
                    self.write_entry(&mut st, fresh, next, key, value);
                    if prev == NULL {
                        st.heads[bucket] = fresh;
                    } else {
                        let mut next_bytes = fresh.to_le_bytes();
                        self.vwrite(&mut st, prev, &next_bytes);
                        next_bytes.fill(0);
                    }
                    self.vfree(&mut st, addr, HEADER + klen + vlen);
                }
                true
            }
            None => {
                let new_len = HEADER + key.len() + value.len();
                let Some(fresh) = self.valloc(&mut st, new_len) else {
                    return false;
                };
                let head = st.heads[bucket];
                self.write_entry(&mut st, fresh, head, key, value);
                st.heads[bucket] = fresh;
                self.count.fetch_add(1, Ordering::Relaxed);
                true
            }
        }
    }

    fn delete(&self, key: &[u8]) -> bool {
        let mut st = self.state.lock();
        let bucket = self.bucket_of(&st, key);
        let Some((addr, prev, klen, vlen)) = self.find(&mut st, bucket, key) else {
            return false;
        };
        let (next, _, _) = self.read_header(&mut st, addr);
        if prev == NULL {
            st.heads[bucket] = next;
        } else {
            self.vwrite(&mut st, prev, &next.to_le_bytes());
        }
        self.vfree(&mut st, addr, HEADER + klen + vlen);
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

    fn small_store() -> EleosStore {
        // 16 KiB SPC, 1 KiB pages, tiny EPC-enough budget.
        EleosStore::new(64, 16 << 10, 1024, 1 << 20)
    }

    #[test]
    fn set_get_delete_roundtrip() {
        let s = small_store();
        vclock::reset();
        assert!(s.set(b"alpha", b"one"));
        assert!(s.set(b"beta", b"two"));
        assert_eq!(s.get(b"alpha").unwrap(), b"one");
        assert_eq!(s.get(b"beta").unwrap(), b"two");
        assert!(s.delete(b"alpha"));
        assert!(s.get(b"alpha").is_none());
        assert_eq!(s.len(), 1);
        vclock::reset();
    }

    #[test]
    fn paging_roundtrips_through_encrypted_backing() {
        let s = small_store(); // 16 frames of 1 KiB
        vclock::reset();
        // Write far more than the SPC can hold, forcing evict + reload.
        for i in 0..200u32 {
            assert!(s.set(format!("key-{i:04}").as_bytes(), &[i as u8; 100]));
        }
        for i in 0..200u32 {
            assert_eq!(s.get(format!("key-{i:04}").as_bytes()).unwrap(), vec![i as u8; 100]);
        }
        let (hits, misses) = s.spc_stats();
        assert!(misses > 16, "expected SPC misses, got {misses} (hits {hits})");
        assert!(!s.state.lock().backing.is_empty(), "evictions must hit the backing store");
        vclock::reset();
    }

    #[test]
    fn entries_span_page_boundaries() {
        let s = EleosStore::new(4, 8 << 10, 1024, 1 << 20);
        vclock::reset();
        // 900-byte values straddle 1 KiB pages regularly.
        for i in 0..20u32 {
            assert!(s.set(format!("span-{i}").as_bytes(), &[0xcd; 900]));
        }
        for i in 0..20u32 {
            assert_eq!(s.get(format!("span-{i}").as_bytes()).unwrap(), vec![0xcd; 900]);
        }
        vclock::reset();
    }

    #[test]
    fn pool_limit_fails_allocations() {
        // 4 KiB pool: a handful of entries exhausts it.
        let s = EleosStore::with_pool_limit(16, 4 << 10, 1024, 1 << 20, 4 << 10);
        vclock::reset();
        let mut accepted = 0;
        for i in 0..100u32 {
            if s.set(format!("k{i}").as_bytes(), &[0u8; 200]) {
                accepted += 1;
            }
        }
        assert!(accepted < 100, "pool limit must reject some inserts");
        assert!(accepted > 0);
        // Existing keys still readable.
        assert!(s.get(b"k0").is_some());
        vclock::reset();
    }

    #[test]
    fn update_in_place_and_realloc() {
        let s = small_store();
        vclock::reset();
        assert!(s.set(b"k", b"aaaa"));
        assert!(s.set(b"k", b"bbbb"));
        assert_eq!(s.get(b"k").unwrap(), b"bbbb");
        assert!(s.set(b"k", &[1u8; 300]));
        assert_eq!(s.get(b"k").unwrap(), vec![1u8; 300]);
        assert_eq!(s.len(), 1);
        vclock::reset();
    }

    #[test]
    fn collisions_in_single_bucket() {
        let s = EleosStore::new(1, 8 << 10, 1024, 1 << 20);
        vclock::reset();
        for i in 0..32u32 {
            assert!(s.set(format!("c{i}").as_bytes(), format!("v{i}").as_bytes()));
        }
        for i in (0..32u32).step_by(2) {
            assert!(s.delete(format!("c{i}").as_bytes()));
        }
        for i in 0..32u32 {
            assert_eq!(s.get(format!("c{i}").as_bytes()).is_some(), i % 2 == 1);
        }
        vclock::reset();
    }
}
