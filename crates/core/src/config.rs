//! ShieldStore configuration.
//!
//! Every optimization in the paper's §5 has a toggle here so that the
//! ablation of Fig. 14 (`ShieldBase`, `+KeyOPT`, `+HeapAlloc`,
//! `+MACBucket`) can be reproduced by flipping switches on one code base.

/// How data entries are allocated in untrusted memory (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocMode {
    /// Every allocation and free calls out of the enclave, as with the
    /// stock SGX SDK's untrusted heap allocator. This is the unoptimized
    /// configuration of Fig. 6.
    OcallPerAlloc,
    /// ShieldStore's custom in-enclave allocator for untrusted memory: a
    /// pooled allocator that OCALLs only to obtain `granularity`-sized
    /// chunks (`sbrk`/`mmap`) when the free pool runs dry.
    Pooled {
        /// Chunk size requested per OCALL. The paper sweeps 1–32 MiB and
        /// settles on 16 MiB.
        granularity: usize,
    },
}

impl AllocMode {
    /// The paper's default: pooled with 16 MiB chunks.
    pub const fn pooled_default() -> Self {
        AllocMode::Pooled { granularity: 16 << 20 }
    }
}

/// When the write-ahead log commits (seals, writes, and fsyncs) its
/// buffered operations — the knob trading durability for write latency.
///
/// A *commit* turns every buffered operation into one sealed, MAC-chained
/// log record, fsyncs it, and advances the freshness pin, so the whole
/// group costs one seal + one fsync however many operations ride in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityPolicy {
    /// Never commit implicitly: operations buffer in enclave memory until
    /// an explicit [`crate::ShieldStore::flush_wal`] (or the buffer cap).
    /// A crash loses everything since the last flush or snapshot.
    None,
    /// Commit once `n` operations have buffered. A crash loses at most
    /// `n - 1` acknowledged operations.
    EveryN(
        /// Operations per group commit (must be positive).
        usize,
    ),
    /// Commit every operation before acknowledging it. Recovery is exact:
    /// no acknowledged write is ever lost.
    Strict,
}

/// The largest key or value a store accepts, in bytes.
pub const MAX_ITEM_LEN: usize = 64 << 20;

/// ShieldStore configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Total number of hash buckets across all shards.
    pub num_buckets: usize,
    /// Total number of in-enclave MAC hashes (flattened Merkle nodes)
    /// across all shards. Each MAC hash covers
    /// `ceil(num_buckets / num_mac_hashes)` buckets (paper §4.3).
    pub num_mac_hashes: usize,
    /// Number of hash-partitioned shards (worker threads, paper §5.3).
    pub shards: usize,
    /// Store a 1-byte keyed hash of the plaintext key in each entry to
    /// prune decryptions during search (paper §5.4, `+KeyOPT`). A
    /// hint-guided miss then falls back to a full verifying scan (the
    /// two-step search), so a hint-corruption attack cannot hide an entry.
    pub key_hint: bool,
    /// Keep a per-bucket side array of entry MACs so integrity
    /// verification does not pointer-chase the chain (paper §5.2,
    /// `+MACBucket`).
    pub mac_bucket: bool,
    /// Untrusted-memory allocation strategy (paper §5.1, `+HeapAlloc`).
    pub alloc: AllocMode,
    /// Bytes of spare EPC used as a plaintext entry cache
    /// (`ShieldOpt+cache` in Fig. 17); 0 disables the cache.
    pub cache_bytes: usize,
    /// Maintain an enclave-resident ordered key index enabling range and
    /// prefix scans — the paper's stated future work, at the cost of EPC
    /// proportional to the key count (see [`crate::ordered`]).
    pub ordered_index: bool,
    /// On an [`crate::Error::IntegrityViolation`], quarantine the
    /// affected bucket set (and, on a repeat violation, the whole
    /// shard): subsequent operations touching the quarantined partition
    /// fail closed with [`crate::Error::Quarantined`] instead of
    /// re-probing tampered memory, while every other hash partition
    /// keeps serving. Off by default so differential harnesses observe
    /// raw per-operation verification outcomes.
    pub quarantine: bool,
    /// Group-commit policy for the write-ahead log, once one is attached
    /// with [`crate::ShieldStore::attach_wal`]. Stores without a WAL
    /// ignore this.
    pub durability: DurabilityPolicy,
}

impl Config {
    /// `ShieldBase`: the paper's unoptimized design — fine-grained
    /// encryption and integrity only, with multi-threading but without
    /// the §5 optimizations.
    pub fn shield_base() -> Self {
        Self {
            num_buckets: 1 << 16,
            num_mac_hashes: 1 << 16,
            shards: 1,
            key_hint: false,
            mac_bucket: false,
            alloc: AllocMode::OcallPerAlloc,
            cache_bytes: 0,
            ordered_index: false,
            quarantine: false,
            durability: DurabilityPolicy::None,
        }
    }

    /// `ShieldOpt`: all optimizations enabled (the paper's final design).
    pub fn shield_opt() -> Self {
        Self {
            key_hint: true,
            mac_bucket: true,
            alloc: AllocMode::pooled_default(),
            ..Self::shield_base()
        }
    }

    /// Sets the bucket count.
    pub fn buckets(mut self, n: usize) -> Self {
        self.num_buckets = n;
        self
    }

    /// Sets the MAC hash count.
    pub fn mac_hashes(mut self, n: usize) -> Self {
        self.num_mac_hashes = n;
        self
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Enables the in-enclave cache with a byte budget.
    pub fn with_cache(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Enables the ordered key index for range/prefix scans.
    pub fn with_ordered_index(mut self) -> Self {
        self.ordered_index = true;
        self
    }

    /// Sets the write-ahead-log group-commit policy.
    pub fn with_durability(mut self, policy: DurabilityPolicy) -> Self {
        self.durability = policy;
        self
    }

    /// Enables partition quarantine on integrity violations.
    pub fn with_quarantine(mut self) -> Self {
        self.quarantine = true;
        self
    }

    /// Per-shard bucket count (at least 1).
    pub fn buckets_per_shard(&self) -> usize {
        (self.num_buckets / self.shards.max(1)).max(1)
    }

    /// Per-shard MAC hash count, capped at the per-shard bucket count
    /// (more hashes than buckets buys nothing).
    pub fn mac_hashes_per_shard(&self) -> usize {
        (self.num_mac_hashes / self.shards.max(1)).max(1).min(self.buckets_per_shard())
    }

    /// Validates invariants, panicking with a clear message on misuse.
    pub(crate) fn validate(&self) {
        assert!(self.num_buckets > 0, "num_buckets must be positive");
        assert!(self.num_mac_hashes > 0, "num_mac_hashes must be positive");
        assert!(self.shards > 0, "shards must be positive");
        if let DurabilityPolicy::EveryN(n) = self.durability {
            assert!(n > 0, "DurabilityPolicy::EveryN needs a positive group size");
        }
        if let AllocMode::Pooled { granularity } = self.alloc {
            assert!(granularity >= 4096, "allocation granularity below one page");
        }
    }
}

impl Default for Config {
    fn default() -> Self {
        Self::shield_opt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_optimizations() {
        let base = Config::shield_base();
        let opt = Config::shield_opt();
        assert!(!base.key_hint && !base.mac_bucket);
        assert!(opt.key_hint && opt.mac_bucket);
        assert_eq!(base.num_buckets, opt.num_buckets);
        assert_eq!(opt.alloc, AllocMode::Pooled { granularity: 16 << 20 });
    }

    #[test]
    fn per_shard_derivation() {
        let cfg = Config::shield_opt().buckets(1024).mac_hashes(64).with_shards(4);
        assert_eq!(cfg.buckets_per_shard(), 256);
        assert_eq!(cfg.mac_hashes_per_shard(), 16);
    }

    #[test]
    fn mac_hashes_capped_by_buckets() {
        let cfg = Config::shield_opt().buckets(64).mac_hashes(1 << 20).with_shards(2);
        assert_eq!(cfg.buckets_per_shard(), 32);
        assert_eq!(cfg.mac_hashes_per_shard(), 32);
    }

    #[test]
    #[should_panic(expected = "num_buckets")]
    fn zero_buckets_rejected() {
        Config::shield_opt().buckets(0).validate();
    }
}
