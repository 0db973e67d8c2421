//! The enclave facade.
//!
//! An [`Enclave`] bundles everything the trusted side of the reproduction
//! needs: metered enclave memory, an identity (measurement), a randomness
//! source standing in for `sgx_read_rand`, boundary-crossing meters, and
//! untrusted chunk allocation through OCALLs.

use crate::cost::CostModel;
use crate::epc::Epc;
use crate::memory::EnclaveMemory;
use crate::seal::SealKeys;
use crate::stats::SimStats;
use crate::vclock;
use parking_lot::Mutex;
use shield_crypto::drbg::Drbg;
use shield_crypto::sha256::Sha256;
use std::sync::Arc;

/// Builder for [`Enclave`].
///
/// # Examples
///
/// ```
/// use sgx_sim::enclave::EnclaveBuilder;
///
/// let enclave = EnclaveBuilder::new("shieldstore")
///     .epc_bytes(8 << 20)
///     .seed(42)
///     .build();
/// assert_eq!(enclave.measurement().len(), 32);
/// ```
pub struct EnclaveBuilder {
    name: String,
    epc_bytes: usize,
    cost: CostModel,
    seed: u64,
}

impl EnclaveBuilder {
    /// Starts building an enclave named `name` (part of its measurement).
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            // Paper: 128 MB reserved, ~90 MB effective after metadata.
            epc_bytes: 90 << 20,
            cost: CostModel::I7_7700,
            seed: 0,
        }
    }

    /// Sets the effective EPC budget in bytes.
    pub fn epc_bytes(mut self, bytes: usize) -> Self {
        self.epc_bytes = bytes;
        self
    }

    /// Sets the cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Seeds the enclave's deterministic randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the enclave.
    pub fn build(self) -> Arc<Enclave> {
        let stats = Arc::new(SimStats::new());
        let epc =
            Arc::new(Epc::new(self.epc_bytes / crate::PAGE_SIZE, self.cost, Arc::clone(&stats)));
        let memory = EnclaveMemory::new(Arc::clone(&epc));
        let measurement = {
            let mut h = Sha256::new();
            h.update(b"sgx-sim enclave measurement v1:");
            h.update(self.name.as_bytes());
            h.finalize()
        };
        let mut seed_material = Vec::new();
        seed_material.extend_from_slice(&measurement);
        seed_material.extend_from_slice(&self.seed.to_le_bytes());
        // The simulated platform fuse key: identical across enclaves on the
        // same "machine", distinct per seed so experiments are independent.
        let fuse_key = {
            let mut h = Sha256::new();
            h.update(b"sgx-sim platform fuse key v1:");
            h.update(&self.seed.to_le_bytes());
            h.finalize()
        };
        Arc::new(Enclave {
            name: self.name,
            seal_keys: SealKeys::derive(&measurement, &fuse_key),
            measurement,
            fuse_key,
            cost: self.cost,
            memory,
            stats,
            drbg: Mutex::new(Drbg::from_seed(&seed_material)),
        })
    }
}

/// A simulated SGX enclave.
pub struct Enclave {
    name: String,
    measurement: [u8; 32],
    fuse_key: [u8; 32],
    cost: CostModel,
    memory: EnclaveMemory,
    stats: Arc<SimStats>,
    drbg: Mutex<Drbg>,
    seal_keys: SealKeys,
}

impl std::fmt::Debug for Enclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enclave").field("name", &self.name).finish()
    }
}

impl Enclave {
    /// The enclave's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The enclave measurement (MRENCLAVE analogue).
    pub fn measurement(&self) -> &[u8; 32] {
        &self.measurement
    }

    /// The platform fuse key (used by attestation; not exposed by real
    /// SGX, `pub(crate)` in spirit but needed by [`crate::attest`]).
    pub(crate) fn fuse_key(&self) -> &[u8; 32] {
        &self.fuse_key
    }

    /// The keys [`crate::seal`] seals and unseals under.
    pub(crate) fn seal_keys(&self) -> &SealKeys {
        &self.seal_keys
    }

    /// The metered enclave heap.
    pub fn memory(&self) -> &EnclaveMemory {
        &self.memory
    }

    /// Event counters.
    pub fn stats(&self) -> &Arc<SimStats> {
        &self.stats
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Fills `out` with enclave randomness (`sgx_read_rand` analogue).
    pub fn read_rand(&self, out: &mut [u8]) {
        self.drbg.lock().fill_bytes(out);
    }

    /// Returns a random 16-byte block (entry IV seeds).
    pub fn read_rand_block(&self) -> [u8; 16] {
        self.drbg.lock().next_block()
    }

    /// Resets phase-relative timing state (the EPC fault channel).
    /// Benchmark harnesses call this when per-thread virtual clocks are
    /// reset at the start of a measured run.
    pub fn reset_timing(&self) {
        self.memory.epc().reset_fault_channel();
    }

    /// Meters one ECALL round trip (enter + exit the enclave).
    pub fn ecall(&self) {
        SimStats::bump(&self.stats.ecalls);
        vclock::charge(self.cost.crossing_ns());
    }

    /// Meters one OCALL round trip (exit + re-enter the enclave).
    pub fn ocall(&self) {
        SimStats::bump(&self.stats.ocalls);
        vclock::charge(self.cost.crossing_ns());
    }

    /// Meters one HotCalls shared-memory call (no hardware crossing).
    pub fn hotcall(&self) {
        SimStats::bump(&self.stats.hotcalls);
        vclock::charge(self.cost.hotcall_ns());
    }

    /// Obtains a chunk of *untrusted* memory via an OCALL (`mmap`/`sbrk`),
    /// as ShieldStore's custom heap allocator does when its free pool runs
    /// dry (paper §5.1).
    pub fn ocall_alloc_untrusted_chunk(&self, bytes: usize) -> Vec<u8> {
        self.ocall();
        self.stats
            .untrusted_bytes_allocated
            .fetch_add(bytes as u64, std::sync::atomic::Ordering::Relaxed);
        vec![0u8; bytes]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_depends_on_name_only() {
        let a = EnclaveBuilder::new("a").seed(1).build();
        let a2 = EnclaveBuilder::new("a").seed(2).build();
        let b = EnclaveBuilder::new("b").seed(1).build();
        assert_eq!(a.measurement(), a2.measurement());
        assert_ne!(a.measurement(), b.measurement());
    }

    #[test]
    fn randomness_is_seed_deterministic() {
        let a = EnclaveBuilder::new("x").seed(7).build();
        let b = EnclaveBuilder::new("x").seed(7).build();
        let c = EnclaveBuilder::new("x").seed(8).build();
        assert_eq!(a.read_rand_block(), b.read_rand_block());
        assert_ne!(a.read_rand_block(), c.read_rand_block());
    }

    #[test]
    fn crossings_charge_and_count() {
        let e = EnclaveBuilder::new("m").build();
        vclock::reset();
        e.ecall();
        e.ocall();
        e.hotcall();
        let snap = e.stats().snapshot();
        assert_eq!(snap.ecalls, 1);
        assert_eq!(snap.ocalls, 1);
        assert_eq!(snap.hotcalls, 1);
        let expected = 2 * e.cost().crossing_ns() + e.cost().hotcall_ns();
        assert_eq!(vclock::now(), expected);
        vclock::reset();
    }

    #[test]
    fn untrusted_chunk_counts_ocall_and_bytes() {
        let e = EnclaveBuilder::new("m").build();
        vclock::reset();
        let chunk = e.ocall_alloc_untrusted_chunk(1 << 20);
        assert_eq!(chunk.len(), 1 << 20);
        let snap = e.stats().snapshot();
        assert_eq!(snap.ocalls, 1);
        assert_eq!(snap.untrusted_bytes_allocated, 1 << 20);
        vclock::reset();
    }

    #[test]
    fn epc_budget_in_pages() {
        let e = EnclaveBuilder::new("m").epc_bytes(16 << 12).build();
        assert_eq!(e.memory().epc().budget_pages(), 16);
    }
}
