//! The Enclave Page Cache model.
//!
//! Real SGX backs enclave pages with a reserved, encrypted region of
//! physical memory (128 MB on the paper's hardware, ~90 MB effective after
//! integrity metadata). When an enclave touches a page that is not resident,
//! the kernel driver evicts a victim (EWB: encrypt + writeback), loads and
//! decrypts the target (ELDU), and re-enters the enclave — a demand-paging
//! fault costing tens of microseconds. Crucially, fault handling is
//! serialized in the driver, which is why the paper's baseline stops scaling
//! past two threads (Fig. 13).
//!
//! This model keeps a bounded resident set of page numbers with CLOCK
//! (second-chance) eviction. A miss charges the fault penalty to the calling
//! thread's [`crate::vclock`] and occupies a global *fault channel* so that
//! concurrent faults queue behind each other in virtual time.

use crate::cost::CostModel;
use crate::stats::SimStats;
use crate::vclock;
use parking_lot::Mutex;
use std::sync::Arc;

/// One resident-set slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: u64,
    referenced: bool,
    dirty: bool,
}

/// Page number -> resident slot, as a table indexed by the page number
/// itself. [`crate::memory::EnclaveMemory`] numbers pages
/// `chunk << 20 | page-in-chunk`, so the table has one lazily grown leaf
/// per chunk and a lookup is two indexings — `touch` runs on every
/// metered access, where hashing the page number cost more wall time than
/// the access being modeled.
#[derive(Debug, Default)]
struct ResidentTable {
    /// `leaves[page >> 20][page & 0xf_ffff]` is the slot index plus one;
    /// zero (or a leaf too short to hold the entry) means not resident.
    leaves: Vec<Vec<u32>>,
    len: usize,
}

/// Page numbers a leaf covers: one chunk's worth (`chunk << 32 >> 12`).
const LEAF_BITS: u32 = 20;

impl ResidentTable {
    fn split(page: u64) -> (usize, usize) {
        ((page >> LEAF_BITS) as usize, (page & ((1 << LEAF_BITS) - 1)) as usize)
    }

    fn get(&self, page: u64) -> Option<usize> {
        let (leaf, idx) = Self::split(page);
        match *self.leaves.get(leaf)?.get(idx)? {
            0 => None,
            slot => Some(slot as usize - 1),
        }
    }

    fn insert(&mut self, page: u64, slot: usize) {
        let (leaf, idx) = Self::split(page);
        // A leaf index is a chunk index — a count of live allocations,
        // never an arbitrary 44-bit number the table would have to span.
        assert!(leaf < 1 << 24, "page {page:#x} is outside the simulated address space");
        if self.leaves.len() <= leaf {
            self.leaves.resize_with(leaf + 1, Vec::new);
        }
        let leaf = &mut self.leaves[leaf];
        if leaf.len() <= idx {
            leaf.resize(idx + 1, 0);
        }
        debug_assert_eq!(leaf[idx], 0, "page inserted twice");
        leaf[idx] = u32::try_from(slot + 1).expect("EPC budgets are far below 2^32 pages");
        self.len += 1;
    }

    fn remove(&mut self, page: u64) {
        let (leaf, idx) = Self::split(page);
        self.leaves[leaf][idx] = 0;
        self.len -= 1;
    }

    fn clear(&mut self) {
        *self = Self::default();
    }
}

#[derive(Debug)]
struct EpcState {
    resident: ResidentTable,
    slots: Vec<Slot>,
    clock_hand: usize,
    /// Virtual-time end of the last fault service; faults queue behind it.
    fault_channel_busy_until: u64,
}

/// The EPC resident-set model shared by all threads of one enclave.
#[derive(Debug)]
pub struct Epc {
    budget_pages: usize,
    cost: CostModel,
    state: Mutex<EpcState>,
    stats: Arc<SimStats>,
}

impl Epc {
    /// Creates an EPC with room for `budget_pages` resident pages.
    ///
    /// A budget of zero disables paging entirely (every access is treated
    /// as a hit), which models the `NoSGX` configuration.
    pub fn new(budget_pages: usize, cost: CostModel, stats: Arc<SimStats>) -> Self {
        Self {
            budget_pages,
            cost,
            state: Mutex::new(EpcState {
                resident: ResidentTable::default(),
                slots: Vec::new(),
                clock_hand: 0,
                fault_channel_busy_until: 0,
            }),
            stats,
        }
    }

    /// Returns the resident-set budget in pages.
    pub fn budget_pages(&self) -> usize {
        self.budget_pages
    }

    /// Touches `page` (a virtual page number), faulting it in if needed.
    ///
    /// `write` marks the page dirty, making its later eviction charge the
    /// EWB writeback surcharge.
    pub fn touch(&self, page: u64, write: bool) {
        if self.budget_pages == 0 {
            return;
        }
        let mut st = self.state.lock();
        if let Some(slot) = st.resident.get(page) {
            st.slots[slot].referenced = true;
            st.slots[slot].dirty |= write;
            SimStats::bump(&self.stats.epc_hits);
            return;
        }

        // Fault path: queue on the serialized fault channel in virtual time.
        SimStats::bump(&self.stats.epc_faults);
        let mut service_ns = self.cost.fault_ns();

        // Evict a victim with CLOCK if the resident set is full.
        if st.slots.len() >= self.budget_pages {
            loop {
                let hand = st.clock_hand;
                st.clock_hand = (hand + 1) % st.slots.len();
                if st.slots[hand].referenced {
                    st.slots[hand].referenced = false;
                    continue;
                }
                let victim = st.slots[hand];
                st.resident.remove(victim.page);
                SimStats::bump(&self.stats.epc_evictions);
                if victim.dirty {
                    SimStats::bump(&self.stats.epc_writebacks);
                    service_ns += self.cost.writeback_ns();
                }
                st.slots[hand] = Slot { page, referenced: true, dirty: write };
                st.resident.insert(page, hand);
                break;
            }
        } else {
            let slot = st.slots.len();
            st.slots.push(Slot { page, referenced: true, dirty: write });
            st.resident.insert(page, slot);
        }

        let now = vclock::now();
        let start = now.max(st.fault_channel_busy_until);
        let end = start + service_ns;
        st.fault_channel_busy_until = end;
        drop(st);
        vclock::advance_to(end);
    }

    /// Touches every page overlapping `[addr, addr + len)`.
    pub fn touch_range(&self, addr: u64, len: usize, write: bool) {
        if self.budget_pages == 0 || len == 0 {
            return;
        }
        let first = addr >> 12;
        let last = (addr + len as u64 - 1) >> 12;
        for page in first..=last {
            self.touch(page, write);
        }
    }

    /// Charges the MEE per-cacheline overhead for an access of `len` bytes
    /// starting at `addr`.
    #[inline]
    pub fn charge_mee(&self, addr: u64, len: usize) {
        if self.cost.mee_cacheline_ns == 0 || len == 0 {
            return;
        }
        let first = addr / crate::CACHELINE as u64;
        let last = (addr + len as u64 - 1) / crate::CACHELINE as u64;
        let lines = last - first + 1;
        vclock::charge(lines * self.cost.mee_cacheline_ns);
    }

    /// Number of currently resident pages.
    pub fn resident_pages(&self) -> usize {
        self.state.lock().resident.len
    }

    /// Returns true if `page` is resident (test/diagnostic helper).
    pub fn is_resident(&self, page: u64) -> bool {
        self.state.lock().resident.get(page).is_some()
    }

    /// Resets the fault-serialization channel's virtual timestamp.
    ///
    /// Per-thread virtual clocks restart from zero at each measurement
    /// phase (see [`crate::vclock::reset`]); the channel's `busy_until`
    /// must restart with them or the first fault of a new phase would
    /// queue behind the *previous* phase's entire backlog. Harnesses call
    /// this at the start of every measured run. The resident set is
    /// deliberately left warm.
    pub fn reset_fault_channel(&self) {
        self.state.lock().fault_channel_busy_until = 0;
    }

    /// Drops every resident page (e.g. simulated enclave teardown).
    pub fn flush(&self) {
        let mut st = self.state.lock();
        st.resident.clear();
        st.slots.clear();
        st.clock_hand = 0;
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epc(pages: usize) -> Epc {
        Epc::new(pages, CostModel::I7_7700, Arc::new(SimStats::new()))
    }

    #[test]
    fn hit_after_fault() {
        let e = epc(4);
        vclock::reset();
        e.touch(7, false);
        assert_eq!(e.stats.snapshot().epc_faults, 1);
        e.touch(7, false);
        let snap = e.stats.snapshot();
        assert_eq!(snap.epc_faults, 1);
        assert_eq!(snap.epc_hits, 1);
        assert!(e.is_resident(7));
        vclock::reset();
    }

    #[test]
    fn eviction_when_full() {
        let e = epc(2);
        vclock::reset();
        e.touch(1, false);
        e.touch(2, false);
        e.touch(3, false); // must evict
        let snap = e.stats.snapshot();
        assert_eq!(snap.epc_faults, 3);
        assert_eq!(snap.epc_evictions, 1);
        assert_eq!(e.resident_pages(), 2);
        vclock::reset();
    }

    #[test]
    fn dirty_eviction_charges_writeback() {
        let e = epc(1);
        vclock::reset();
        e.touch(1, true); // dirty
        let after_first = vclock::now();
        e.touch(2, false); // evicts dirty page 1
        let snap = e.stats.snapshot();
        assert_eq!(snap.epc_writebacks, 1);
        let delta = vclock::now() - after_first;
        assert_eq!(delta, e.cost.fault_ns() + e.cost.writeback_ns());
        vclock::reset();
    }

    #[test]
    fn clock_gives_second_chance() {
        let e = epc(3);
        vclock::reset();
        e.touch(1, false);
        e.touch(2, false);
        e.touch(3, false);
        // First fault sweeps all reference bits clear and evicts page 1.
        e.touch(4, false);
        assert!(!e.is_resident(1));
        // Re-reference page 2: the next fault must skip it and evict the
        // unreferenced page 3 instead.
        e.touch(2, false);
        e.touch(5, false);
        assert!(e.is_resident(2), "recently referenced page should survive");
        assert!(!e.is_resident(3));
        assert!(e.is_resident(4) && e.is_resident(5));
        vclock::reset();
    }

    #[test]
    fn zero_budget_disables_model() {
        let e = epc(0);
        vclock::reset();
        e.touch(1, true);
        e.touch_range(0, 1 << 20, true);
        assert_eq!(e.stats.snapshot().epc_faults, 0);
        assert_eq!(vclock::now(), 0);
    }

    #[test]
    fn touch_range_spans_pages() {
        let e = epc(16);
        vclock::reset();
        // 3 pages: [4096, 4096*4).
        e.touch_range(4096, 3 * 4096, false);
        assert_eq!(e.stats.snapshot().epc_faults, 3);
        // One byte crossing a boundary touches both pages.
        e.touch_range(4 * 4096 - 1, 2, false);
        assert_eq!(e.stats.snapshot().epc_faults, 4); // pages 3 and 4; 3 was resident
        vclock::reset();
    }

    #[test]
    fn faults_serialize_in_virtual_time() {
        let e = Arc::new(epc(1));
        vclock::reset();
        // Two threads each fault once starting from virtual time zero; the
        // channel must make their end times cumulative, so the later one
        // exceeds a single service time.
        let fault_ns = e.cost.fault_ns();
        let mut ends = Vec::new();
        let mut handles = Vec::new();
        for t in 0..2u64 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                vclock::reset();
                e.touch(100 + t, false);
                vclock::now()
            }));
        }
        for h in handles {
            ends.push(h.join().unwrap());
        }
        ends.sort_unstable();
        assert!(ends[0] >= fault_ns);
        assert!(ends[1] >= 2 * fault_ns, "second fault must queue behind the first: {ends:?}");
        vclock::reset();
    }

    #[test]
    fn mee_charge_per_cacheline() {
        let e = epc(4);
        vclock::reset();
        e.charge_mee(0, 64);
        assert_eq!(vclock::now(), e.cost.mee_cacheline_ns);
        // Bytes [63, 128) span cachelines 0 and 1.
        vclock::reset();
        e.charge_mee(63, 65);
        assert_eq!(vclock::now(), 2 * e.cost.mee_cacheline_ns);
        // Bytes [63, 129) span cachelines 0, 1 and 2.
        vclock::reset();
        e.charge_mee(63, 66);
        assert_eq!(vclock::now(), 3 * e.cost.mee_cacheline_ns);
        vclock::reset();
    }
}
