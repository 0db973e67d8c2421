//! # ShieldStore: shielded in-memory key-value storage
//!
//! A Rust reproduction of *ShieldStore: Shielded In-memory Key-value
//! Storage with SGX* (Kim, Park, Woo, Jeon, Huh — EuroSys 2019), built on
//! the [`sgx_sim`] software model of SGX.
//!
//! ## The problem
//!
//! SGX protects enclave memory with hardware encryption and integrity
//! verification, but the protected region (EPC) is only ~90 MB effective.
//! A key-value store holding gigabytes inside an enclave spends almost all
//! of its time in demand paging — the paper measures a 134x slowdown at a
//! 4 GB working set.
//!
//! ## The design
//!
//! ShieldStore inverts the layout: the main hash table lives in
//! *untrusted* memory, and enclave code encrypts (AES-CTR, per-entry
//! IV/counter) and MACs (AES-CMAC) every key-value pair individually.
//! Only the secret keys and a flattened Merkle array of bucket-set MAC
//! hashes stay inside the enclave. Four optimizations from the paper's
//! section 5 — a custom untrusted heap allocator, MAC bucketing,
//! hash-partitioned multi-threading, and a 1-byte key hint — are all
//! implemented and individually toggleable via [`Config`].
//!
//! ## Quick start
//!
//! ```
//! use sgx_sim::enclave::EnclaveBuilder;
//! use shieldstore::{Config, ShieldStore};
//!
//! let enclave = EnclaveBuilder::new("quickstart").epc_bytes(8 << 20).build();
//! let store = ShieldStore::new(enclave, Config::shield_opt().buckets(1024)).unwrap();
//!
//! store.set(b"session:42", b"{\"user\": \"alice\"}").unwrap();
//! assert_eq!(store.get(b"session:42").unwrap(), b"{\"user\": \"alice\"}");
//!
//! // Server-side operations on encrypted data (paper section 3.2):
//! store.increment(b"visits", 1).unwrap();
//! store.append(b"audit", b"login;").unwrap();
//! ```
//!
//! ## Module map
//!
//! | Module | Paper section | Contents |
//! |---|---|---|
//! | [`entry`] | 4.2, Fig. 5 | encrypted data-entry codec |
//! | [`integrity`] | 4.3 | flattened-Merkle bucket-set hashes |
//! | [`alloc`] | 5.1, Fig. 6 | custom untrusted heap allocator |
//! | [`mac_bucket`] | 5.2, Fig. 7 | per-bucket MAC side arrays |
//! | [`shard`] | 5.3, Fig. 8 | partition-per-thread operations |
//! | [`op`] | 3.2 | the one `Op`/`Reply` every layer executes, and the one `Control`/`Controlled` beside it |
//! | [`cache`] | Fig. 17 | spare-EPC plaintext cache |
//! | [`persist`] | 4.4, Alg. 1 | snapshots, sealing, rollback defense |
//! | [`wal`] | beyond 4.4 | sealed write-ahead log: codec, the one frame reader and chain cursor, pin, writer (group commit, rotation), readers (replay, ship, scrub, repair) |
//! | [`repl`] | beyond 4.4 | sealed-log replication, fenced failover |
//! | [`scrub`] | beyond 4.4 | background re-verification and repair |
//! | [`store`] | — | the sharded top-level API |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod cache;
pub mod config;
pub mod entry;
pub mod error;
pub mod hist;
pub mod integrity;
pub mod mac_bucket;
#[cfg(any(test, feature = "testing"))]
pub mod model;
pub mod op;
pub mod ordered;
pub mod persist;
pub mod repl;
pub mod scrub;
pub mod shard;
pub mod stats;
pub mod store;
pub mod table;
pub mod tenant;
#[cfg(any(test, feature = "testing"))]
pub mod testing;
pub mod ttl;
pub mod wal;

pub use config::{AllocMode, Config, DurabilityPolicy};
pub use error::{Error, Refusal, Result};
pub use hist::{LatencyHist, OpHists};
pub use op::{Control, Controlled, Op, Reply};
pub use persist::SnapshotJob;
pub use repl::{ReplBatch, ReplHello, Replica, Watermark};
pub use scrub::ScrubTick;
pub use shard::Shard;
pub use stats::{OpStats, StatsSnapshot, TenantStat, MAX_TENANT_STATS};
pub use store::{QuarantineReport, ShardQuarantine, ShieldStore};
pub use tenant::{TenantId, TenantKeys, TenantQuota, TenantRegistry, TenantUsage, DEFAULT_TENANT};
pub use wal::{Wal, WalCodec, WalOp};
