//! A software model of Intel SGX for the ShieldStore reproduction.
//!
//! The original paper runs on an i7-7700 with real SGX. This crate replaces
//! the hardware with a deterministic cost model that exercises the same code
//! paths and reproduces the cost *structure* that drives every experiment in
//! the paper:
//!
//! * [`epc`] — the Enclave Page Cache: a bounded resident set of 4 KiB
//!   pages with CLOCK eviction. Accesses to enclave memory are metered;
//!   misses charge a demand-paging penalty and are serialized through a
//!   global channel, as the SGX kernel driver serializes paging (the root
//!   cause of the paper's Fig. 13 scalability collapse).
//! * [`memory`] — [`memory::EnclaveMemory`], a heap arena standing in for
//!   enclave virtual memory. All reads and writes go through the EPC model;
//!   data is physically stored and really copied, so simulated stores hold
//!   real data.
//! * [`classes`] — the one size-class allocator core every heap carves
//!   its blocks with: the class rule, free lists and bump cursor.
//! * [`cost`] — the cycle/nanosecond cost model (EPC fault, MEE cacheline
//!   overhead, ECALL/OCALL, HotCalls) with paper-calibrated defaults.
//! * [`vclock`] — per-thread virtual clocks that accumulate modeled
//!   penalties; harnesses report `ops / (wall time + virtual time)`.
//! * [`enclave`] — the [`enclave::Enclave`] facade: measurement, randomness
//!   (`read_rand`), boundary-crossing meters, untrusted chunk allocation
//!   via OCALL.
//! * [`seal`] — SGX-style sealing keyed by a fused platform secret and the
//!   enclave measurement.
//! * [`counter`] — monotonic counters for snapshot rollback protection.
//! * [`storage`] — the untrusted storage seam ([`storage::StorageFs`])
//!   plus a deterministic fault injector ([`storage::FaultFs`]) modeling
//!   EIO/ENOSPC/short writes, lying fsyncs, torn renames, and power
//!   cuts.
//! * [`attest`] — simulated local attestation quotes.
//! * [`bytes`] — the one bounds-checked cursor every byte format that
//!   leaves the enclave is read and written through.
//!
//! # Examples
//!
//! ```
//! use sgx_sim::enclave::EnclaveBuilder;
//!
//! // An enclave with a 1 MiB EPC budget.
//! let enclave = EnclaveBuilder::new("demo").epc_bytes(1 << 20).build();
//! let addr = enclave.memory().alloc(4096).unwrap();
//! enclave.memory().write(addr, b"secret page contents");
//! let mut buf = [0u8; 20];
//! enclave.memory().read(addr, &mut buf);
//! assert_eq!(&buf, b"secret page contents");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod bytes;
pub mod classes;
pub mod cost;
pub mod counter;
pub mod enclave;
pub mod epc;
pub mod memory;
pub mod seal;
pub mod stats;
pub mod storage;
pub mod vclock;

pub use enclave::{Enclave, EnclaveBuilder};
pub use stats::SimStats;

/// The SGX page size: 4 KiB.
pub const PAGE_SIZE: usize = 4096;

/// Cacheline granularity used by the Memory Encryption Engine.
pub const CACHELINE: usize = 64;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The enclave heap arena is exhausted (allocation failed).
    OutOfEnclaveMemory,
    /// An address was out of the arena's bounds.
    BadAddress {
        /// The offending address.
        addr: u64,
        /// The access length.
        len: usize,
    },
    /// Unsealing failed: MAC mismatch or truncated blob.
    SealVerify,
    /// A monotonic counter regressed or the counter file was tampered with.
    CounterRollback,
    /// Attestation quote verification failed.
    QuoteVerify,
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::OutOfEnclaveMemory => write!(f, "enclave heap exhausted"),
            SimError::BadAddress { addr, len } => {
                write!(f, "enclave address {addr:#x} (+{len}) out of bounds")
            }
            SimError::SealVerify => write!(f, "sealed blob failed verification"),
            SimError::CounterRollback => write!(f, "monotonic counter rollback detected"),
            SimError::QuoteVerify => write!(f, "attestation quote verification failed"),
        }
    }
}

impl std::error::Error for SimError {}
