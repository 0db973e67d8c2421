//! ShieldStore error types.

use crate::op::Op;

/// Errors returned by ShieldStore operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The requested key does not exist.
    KeyNotFound,
    /// An entry or bucket-set failed integrity verification: the untrusted
    /// memory was tampered with (or rolled back).
    IntegrityViolation {
        /// The logical bucket (within its shard) where the violation was
        /// detected.
        bucket: usize,
    },
    /// `increment` was called on a value that is not a decimal integer.
    ValueNotNumeric,
    /// An integer overflow occurred applying `increment`.
    NumericOverflow,
    /// Key or value exceeds the configured maximum size.
    OversizeItem {
        /// Offending length in bytes.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// A snapshot/restore operation failed.
    Persistence(String),
    /// The underlying enclave simulator reported an error.
    Sim(sgx_sim::SimError),
    /// Rollback detected during restore: the snapshot is older than the
    /// monotonic counter allows.
    Rollback,
    /// A write-ahead-log record failed chain verification during
    /// recovery: its CMAC (covering the previous record's MAC and the
    /// monotone sequence number) did not verify, so the log was tampered
    /// with, spliced, or reordered.
    LogIntegrity {
        /// Sequence number of the offending record.
        seq: u64,
    },
    /// A range/prefix scan was attempted without
    /// [`crate::Config::ordered_index`] enabled.
    IndexDisabled,
    /// The hash partition holding this key was quarantined after an
    /// earlier [`Error::IntegrityViolation`] (requires
    /// [`crate::Config::quarantine`]). The operation was rejected
    /// without touching untrusted memory; other partitions keep
    /// serving.
    Quarantined {
        /// The logical bucket (within its shard) the rejected key maps
        /// to (0 for keyless operations such as scans).
        bucket: usize,
    },
    /// The write would exceed the tenant's byte or key quota
    /// ([`crate::TenantQuota`]). A single-key write left the store
    /// untouched; a batch keeps the items placed before the one that hit
    /// the quota.
    QuotaExceeded {
        /// The tenant whose quota was hit.
        tenant: u32,
    },
    /// Durable storage failed underneath the write-ahead log and the
    /// writer is poisoned: a write, fsync, or pin update did not reach
    /// disk, so the durable watermark is frozen at the last verified
    /// commit and every further commit fails closed (retrying an fsync
    /// after failure can silently lose the unflushed pages — the
    /// "fsyncgate" semantics). The write whose commit failed is already
    /// in memory; every later write is refused before it changes
    /// anything. Reads keep serving; recover from the on-disk genuine
    /// prefix or fail over to a replica.
    StorageFailed,
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::KeyNotFound => write!(f, "key not found"),
            Error::IntegrityViolation { bucket } => {
                write!(f, "integrity violation detected in bucket {bucket}")
            }
            Error::ValueNotNumeric => write!(f, "value is not a decimal integer"),
            Error::NumericOverflow => write!(f, "numeric overflow in increment"),
            Error::OversizeItem { len, max } => {
                write!(f, "item of {len} bytes exceeds maximum {max}")
            }
            Error::Persistence(msg) => write!(f, "persistence failure: {msg}"),
            Error::Sim(e) => write!(f, "simulator error: {e}"),
            Error::Rollback => write!(f, "snapshot rollback detected"),
            Error::LogIntegrity { seq } => {
                write!(f, "write-ahead log record {seq} failed chain verification")
            }
            Error::IndexDisabled => {
                write!(f, "range scans require Config::ordered_index")
            }
            Error::Quarantined { bucket } => {
                write!(
                    f,
                    "partition holding bucket {bucket} is quarantined after an integrity violation"
                )
            }
            Error::QuotaExceeded { tenant } => {
                write!(f, "write exceeds tenant {tenant}'s quota")
            }
            Error::StorageFailed => {
                write!(f, "durable storage failed; the log writer is poisoned")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sgx_sim::SimError> for Error {
    fn from(e: sgx_sim::SimError) -> Self {
        match e {
            sgx_sim::SimError::CounterRollback => Error::Rollback,
            other => Error::Sim(other),
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Persistence(e.to_string())
    }
}

/// A snapshot file the byte cursor refused fails its restore. The log's
/// formats map a refusal to their own verdicts instead.
impl From<sgx_sim::bytes::Malformed> for Error {
    #[cold]
    fn from(m: sgx_sim::bytes::Malformed) -> Self {
        Error::Persistence(m.to_string())
    }
}

/// Convenience result alias.
pub type Result<T> = core::result::Result<T, Error>;

/// Why a serving layer refused an op or a control request: the one
/// failure type the backend trait, the wire status and the client
/// share, at the granularity a client acts on. [`Error`] says what went
/// wrong inside the store; a refusal says what the caller may assume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Shed under overload (admission control or a missed deadline).
    Busy,
    /// The key's partition is quarantined after an integrity violation.
    Quarantined,
    /// The write would exceed the tenant's byte or key quota.
    QuotaExceeded,
    /// A replica serving reads only; writes go to the primary.
    ReadOnly,
    /// The write-ahead log's writer is poisoned: fail over, do not retry.
    StorageFailed,
    /// Anything else: capacity, an integrity violation, a malformed value.
    Failed,
}

impl Refusal {
    /// Whether `op`, refused this way, may have changed the store: what
    /// a history checker must assume of it. `Busy` and `ReadOnly` are
    /// decided before the store sees the op. A single-key op is also
    /// checked for quarantine and quota before anything is touched, but a
    /// batch is checked, applied and logged one shard (and one item) at a
    /// time, so one refused part-way has applied what came before.
    /// `StorageFailed` is ambiguous for the op whose own commit poisoned
    /// the writer: it is already in memory (every later write is refused
    /// before it reaches a shard). `Failed` is ambiguous because a batch
    /// that fails on its second shard has applied its first.
    pub fn may_have_executed(self, op: &Op<'_>) -> bool {
        match self {
            Refusal::Busy | Refusal::ReadOnly => false,
            Refusal::Quarantined | Refusal::QuotaExceeded => matches!(op, Op::MultiSet { .. }),
            Refusal::StorageFailed | Refusal::Failed => true,
        }
    }
}

impl From<&Error> for Refusal {
    fn from(e: &Error) -> Refusal {
        match e {
            Error::Quarantined { .. } => Refusal::Quarantined,
            Error::QuotaExceeded { .. } => Refusal::QuotaExceeded,
            Error::StorageFailed => Refusal::StorageFailed,
            _ => Refusal::Failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings() {
        assert_eq!(Error::KeyNotFound.to_string(), "key not found");
        assert!(Error::IntegrityViolation { bucket: 3 }.to_string().contains("bucket 3"));
        assert!(Error::OversizeItem { len: 10, max: 5 }.to_string().contains("10"));
        assert!(Error::Quarantined { bucket: 7 }.to_string().contains("quarantined"));
    }

    /// A batch refused part-way has applied what came before the refusal,
    /// which is why a refused batch may have executed.
    #[test]
    fn a_batch_refused_part_way_has_applied_its_first_items() {
        let enclave = sgx_sim::enclave::EnclaveBuilder::new("refusal").epc_bytes(8 << 20).build();
        let config = crate::Config::shield_opt().buckets(64).mac_hashes(16);
        let store = crate::ShieldStore::new(enclave, config).unwrap();
        store.tenants().configure(1, crate::TenantQuota { max_keys: 1, ..Default::default() });
        let items: [(&[u8], &[u8]); 2] = [(b"a", b"1"), (b"b", b"2")];
        let batch = Op::MultiSet { items: &items, expires_at: 0 };
        let refused = Refusal::from(&store.execute(1, batch).unwrap_err());
        assert_eq!(refused, Refusal::QuotaExceeded);
        assert_eq!(store.len(), 1, "the item placed first landed");
        assert!(refused.may_have_executed(&batch));
        assert!(!refused.may_have_executed(&Op::set(b"a", b"1")));
    }

    #[test]
    fn sim_error_conversion() {
        let e: Error = sgx_sim::SimError::CounterRollback.into();
        assert_eq!(e, Error::Rollback);
        let e: Error = sgx_sim::SimError::SealVerify.into();
        assert_eq!(e, Error::Sim(sgx_sim::SimError::SealVerify));
    }
}
