//! ShieldStore error types.

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
    /// ([`crate::TenantQuota`]). The store was left untouched.
    QuotaExceeded {
        /// The tenant whose quota was hit.
        tenant: u32,
    },
    /// Durable storage failed underneath the write-ahead log and the
    /// writer is poisoned: a write, fsync, or pin update did not reach
    /// disk, so the durable watermark is frozen at the last verified
    /// commit and every further commit fails closed (retrying an fsync
    /// after failure can silently lose the unflushed pages — the
    /// "fsyncgate" semantics). Reads keep serving; recover from the
    /// on-disk genuine prefix or fail over to a replica.
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

    #[test]
    fn sim_error_conversion() {
        let e: Error = sgx_sim::SimError::CounterRollback.into();
        assert_eq!(e, Error::Rollback);
        let e: Error = sgx_sim::SimError::SealVerify.into();
        assert_eq!(e, Error::Sim(sgx_sim::SimError::SealVerify));
    }
}
