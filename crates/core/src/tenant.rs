//! Multi-tenant namespaces: per-tenant key derivation, quotas, weights.
//!
//! One enclave store serves many tenants. Isolation rests on three
//! mechanisms, layered:
//!
//! 1. **Key derivation.** Each tenant's data keys are derived from a
//!    dedicated KDF master key (generated inside the enclave alongside
//!    the store keys) with AES-CMAC as the PRF:
//!    `k_enc(T) = CMAC(k_kdf, "shieldstore-tenant-enc-v1" ‖ T_le)` and
//!    `k_mac(T) = CMAC(k_kdf, "shieldstore-tenant-mac-v1" ‖ T_le)`.
//!    CMAC is a PRF under standard assumptions, so compromising one
//!    derived pair reveals nothing about any other tenant's pair or the
//!    master. Every entry is encrypted and MAC'd under its owner's
//!    derived keys; the tenant id rides plaintext-but-MAC-covered in the
//!    entry header, so rewriting it re-routes verification to a key
//!    under which the stored tag cannot verify — cross-tenant
//!    re-stitching fails closed.
//! 2. **Quotas.** Per-tenant byte and key budgets, enforced atomically
//!    before any mutation lands ([`TenantUsage::try_charge`]).
//! 3. **Weights.** A scheduling weight consumed by the network layer's
//!    fair admission control, so one tenant saturating its share answers
//!    `Busy` without starving the others.
//!
//! Tenant `0` is the default namespace; the untenanted store API is
//! sugar for tenant 0, which keeps single-tenant deployments (and the
//! pre-tenancy test corpus) working unchanged.

use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A tenant identifier. Tenant 0 is the default namespace.
pub type TenantId = u32;

/// The default tenant, used by the untenanted API surface.
pub const DEFAULT_TENANT: TenantId = 0;

/// Domain-separation label for tenant encryption keys.
const KDF_ENC_LABEL: &[u8] = b"shieldstore-tenant-enc-v1";
/// Domain-separation label for tenant MAC keys.
const KDF_MAC_LABEL: &[u8] = b"shieldstore-tenant-mac-v1";

/// A tenant's derived data keys.
pub struct TenantKeys {
    /// AES-CTR cipher for this tenant's entry key/value encryption.
    pub enc: AesCtr,
    /// CMAC for this tenant's entry MACs.
    pub mac: Cmac,
}

impl TenantKeys {
    /// Derives tenant `id`'s keys from the KDF master key.
    pub fn derive(kdf_key: &[u8; 16], id: TenantId) -> Self {
        let (enc, mac) = Self::derive_raw(kdf_key, id);
        Self { enc: AesCtr::new(&enc), mac: Cmac::new(&mac) }
    }

    /// Derives tenant `id`'s raw `(enc, mac)` key bytes. Exposed so the
    /// adversarial harness can model a *leaked tenant key*: an attacker
    /// holding one tenant's derived keys must still be unable to open or
    /// forge another tenant's entries.
    pub fn derive_raw(kdf_key: &[u8; 16], id: TenantId) -> ([u8; 16], [u8; 16]) {
        let kdf = Cmac::new(kdf_key);
        let enc = kdf.compute_parts(&[KDF_ENC_LABEL, &id.to_le_bytes()]);
        let mac = kdf.compute_parts(&[KDF_MAC_LABEL, &id.to_le_bytes()]);
        (enc, mac)
    }
}

impl std::fmt::Debug for TenantKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantKeys").finish_non_exhaustive()
    }
}

/// Namespace-prefixed key: `tenant (4 bytes BE) ‖ key`. Used wherever a
/// flat byte-keyed structure (ordered index, plaintext cache, snapshot
/// tombstones) must keep tenants apart; big-endian keeps one tenant's
/// keys contiguous in ordered iteration.
pub fn nskey(tenant: TenantId, key: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + key.len());
    out.extend_from_slice(&tenant.to_be_bytes());
    out.extend_from_slice(key);
    out
}

/// Splits a [`nskey`] back into `(tenant, key)`.
pub fn split_nskey(ns: &[u8]) -> (TenantId, &[u8]) {
    let tenant = u32::from_be_bytes(ns[..4].try_into().expect("4-byte tenant prefix"));
    (tenant, &ns[4..])
}

/// Per-tenant resource limits and scheduling weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Stored-bytes budget (entry bytes incl. header); `u64::MAX` = unlimited.
    pub max_bytes: u64,
    /// Live-key budget; `u64::MAX` = unlimited.
    pub max_keys: u64,
    /// Admission weight (≥ 1): this tenant's share of server capacity
    /// relative to the other registered tenants.
    pub weight: u32,
}

impl Default for TenantQuota {
    fn default() -> Self {
        Self { max_bytes: u64::MAX, max_keys: u64::MAX, weight: 1 }
    }
}

/// Live resource accounting and op counters for one tenant. Counters are
/// atomics so shards can account without taking the registry lock.
#[derive(Debug, Default)]
pub struct TenantUsage {
    /// Stored bytes (physical entries, including expired-not-yet-swept).
    pub used_bytes: AtomicU64,
    /// Live keys (physical entries, including expired-not-yet-swept).
    pub used_keys: AtomicU64,
    /// Reads served for this tenant.
    pub gets: AtomicU64,
    /// Writes served for this tenant.
    pub sets: AtomicU64,
    /// Read hits.
    pub hits: AtomicU64,
    /// Read misses (including lazily-expired reads).
    pub misses: AtomicU64,
    /// Writes rejected by quota.
    pub quota_rejections: AtomicU64,
    /// Reads that found an expired entry and hid it.
    pub expired_lazy: AtomicU64,
    /// Entries physically removed by the expiry sweep.
    pub expired_swept: AtomicU64,
}

/// One registered tenant: quota plus usage.
#[derive(Debug)]
pub struct TenantState {
    /// The tenant's configured quota and weight.
    pub quota: TenantQuota,
    /// The tenant's live accounting.
    pub usage: Arc<TenantUsage>,
}

impl TenantUsage {
    /// Atomically charges an insert of `bytes` and `keys` against
    /// `quota`, or returns `false` leaving usage untouched when either
    /// budget would be exceeded.
    pub fn try_charge(&self, quota: &TenantQuota, bytes: u64, keys: u64) -> bool {
        if self
            .used_keys
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |k| {
                (k.saturating_add(keys) <= quota.max_keys).then(|| k + keys)
            })
            .is_err()
        {
            return false;
        }
        if self
            .used_bytes
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                (b.saturating_add(bytes) <= quota.max_bytes).then(|| b + bytes)
            })
            .is_err()
        {
            self.used_keys.fetch_sub(keys, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Atomically charges a value-growth of `delta` bytes (update path),
    /// or returns `false` when the byte budget would be exceeded.
    pub fn try_charge_bytes(&self, quota: &TenantQuota, delta: u64) -> bool {
        self.used_bytes
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                (b.saturating_add(delta) <= quota.max_bytes).then(|| b + delta)
            })
            .is_ok()
    }

    /// Releases `bytes` and `keys` (delete / shrink / sweep).
    pub fn discharge(&self, bytes: u64, keys: u64) {
        // Saturating: recounts can race with in-flight ops; usage must
        // never wrap to a huge value and wedge the tenant.
        let _ = self
            .used_bytes
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| Some(b.saturating_sub(bytes)));
        let _ = self
            .used_keys
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |k| Some(k.saturating_sub(keys)));
    }
}

/// The store-wide tenant registry: quota/weight configuration and live
/// usage, shared (via `Arc`) between the store's shards and the network
/// layer's admission control.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: Mutex<HashMap<TenantId, Arc<TenantState>>>,
    /// Bumped (under the lock) whenever a tenant's `Arc<TenantState>` is
    /// replaced, so a shard holding on to the state it resolved last can
    /// tell — without the lock — that it is still the current one.
    epoch: AtomicU64,
}

impl TenantRegistry {
    /// Creates an empty registry. Tenants materialize on first use with
    /// the default (unlimited, weight-1) quota unless
    /// [`TenantRegistry::configure`] set one earlier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets (or replaces) `tenant`'s quota and weight. Existing usage is
    /// preserved, so tightening a quota mid-flight takes effect on the
    /// next charge.
    pub fn configure(&self, tenant: TenantId, quota: TenantQuota) {
        let mut map = self.tenants.lock().expect("tenant registry poisoned");
        match map.get(&tenant) {
            Some(state) => {
                let usage = Arc::clone(&state.usage);
                map.insert(tenant, Arc::new(TenantState { quota, usage }));
            }
            None => {
                map.insert(
                    tenant,
                    Arc::new(TenantState { quota, usage: Arc::new(TenantUsage::default()) }),
                );
            }
        }
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// How many times a tenant's state has been replaced. A state
    /// resolved through [`TenantRegistry::state`] *after* reading an
    /// epoch stays current for as long as the epoch reads the same.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The state for `tenant`, materializing a default entry on first use.
    pub fn state(&self, tenant: TenantId) -> Arc<TenantState> {
        let mut map = self.tenants.lock().expect("tenant registry poisoned");
        Arc::clone(map.entry(tenant).or_insert_with(|| {
            Arc::new(TenantState {
                quota: TenantQuota::default(),
                usage: Arc::new(TenantUsage::default()),
            })
        }))
    }

    /// The admission weight of `tenant` (default 1 when unregistered).
    pub fn weight(&self, tenant: TenantId) -> u32 {
        self.tenants
            .lock()
            .expect("tenant registry poisoned")
            .get(&tenant)
            .map(|s| s.quota.weight.max(1))
            .unwrap_or(1)
    }

    /// Snapshot of all registered tenants, sorted by id.
    pub fn all(&self) -> Vec<(TenantId, Arc<TenantState>)> {
        let map = self.tenants.lock().expect("tenant registry poisoned");
        let mut out: Vec<_> = map.iter().map(|(id, s)| (*id, Arc::clone(s))).collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Overwrites every tenant's physical usage with `counts`
    /// (`tenant → (bytes, keys)`), zeroing tenants absent from the map.
    /// Called after snapshot restore / temp-table merges, when
    /// incremental accounting may have drifted from the physical truth.
    pub fn set_usage(&self, counts: &HashMap<TenantId, (u64, u64)>) {
        let mut map = self.tenants.lock().expect("tenant registry poisoned");
        for (id, (bytes, keys)) in counts {
            let state = map.entry(*id).or_insert_with(|| {
                Arc::new(TenantState {
                    quota: TenantQuota::default(),
                    usage: Arc::new(TenantUsage::default()),
                })
            });
            state.usage.used_bytes.store(*bytes, Ordering::SeqCst);
            state.usage.used_keys.store(*keys, Ordering::SeqCst);
        }
        for (id, state) in map.iter() {
            if !counts.contains_key(id) {
                state.usage.used_bytes.store(0, Ordering::SeqCst);
                state.usage.used_keys.store(0, Ordering::SeqCst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_keys_differ_per_tenant_and_purpose() {
        let kdf = [7u8; 16];
        let a = TenantKeys::derive(&kdf, 1);
        let b = TenantKeys::derive(&kdf, 2);
        let msg = b"same message";
        // Distinct tenants produce distinct MACs for the same message.
        assert_ne!(a.mac.compute_parts(&[msg]), b.mac.compute_parts(&[msg]));
        // Distinct ciphertexts too.
        let mut ca = msg.to_vec();
        let mut cb = msg.to_vec();
        a.enc.apply_keystream(&[0u8; 16], &mut ca);
        b.enc.apply_keystream(&[0u8; 16], &mut cb);
        assert_ne!(ca, cb);
        // Derivation is deterministic.
        let a2 = TenantKeys::derive(&kdf, 1);
        assert_eq!(a.mac.compute_parts(&[msg]), a2.mac.compute_parts(&[msg]));
        // A different master yields unrelated keys.
        let other = TenantKeys::derive(&[8u8; 16], 1);
        assert_ne!(a.mac.compute_parts(&[msg]), other.mac.compute_parts(&[msg]));
    }

    #[test]
    fn nskey_roundtrip_and_ordering() {
        let ns = nskey(0x01020304, b"user:1");
        assert_eq!(&ns[..4], &[1, 2, 3, 4]);
        let (t, k) = split_nskey(&ns);
        assert_eq!(t, 0x01020304);
        assert_eq!(k, b"user:1");
        // Big-endian prefix: tenant 1's keys all sort before tenant 2's.
        assert!(nskey(1, b"zzz") < nskey(2, b"aaa"));
    }

    #[test]
    fn quota_charges_and_rejections() {
        let usage = TenantUsage::default();
        let quota = TenantQuota { max_bytes: 100, max_keys: 2, weight: 1 };
        assert!(usage.try_charge(&quota, 40, 1));
        assert!(usage.try_charge(&quota, 40, 1));
        // Third key exceeds the key budget; usage is untouched.
        assert!(!usage.try_charge(&quota, 1, 1));
        assert_eq!(usage.used_keys.load(Ordering::SeqCst), 2);
        assert_eq!(usage.used_bytes.load(Ordering::SeqCst), 80);
        // Growth beyond the byte budget is rejected.
        assert!(usage.try_charge_bytes(&quota, 20));
        assert!(!usage.try_charge_bytes(&quota, 1));
        // Discharge frees budget again.
        usage.discharge(50, 1);
        assert!(usage.try_charge(&quota, 10, 1));
    }

    #[test]
    fn byte_quota_failure_rolls_back_key_charge() {
        let usage = TenantUsage::default();
        let quota = TenantQuota { max_bytes: 10, max_keys: 10, weight: 1 };
        assert!(!usage.try_charge(&quota, 11, 1));
        assert_eq!(usage.used_keys.load(Ordering::SeqCst), 0);
        assert_eq!(usage.used_bytes.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn registry_configure_preserves_usage() {
        let reg = TenantRegistry::new();
        let state = reg.state(5);
        state.usage.used_bytes.store(42, Ordering::SeqCst);
        reg.configure(5, TenantQuota { max_bytes: 1000, max_keys: 10, weight: 3 });
        let state = reg.state(5);
        assert_eq!(state.usage.used_bytes.load(Ordering::SeqCst), 42);
        assert_eq!(state.quota.weight, 3);
        assert_eq!(reg.weight(5), 3);
        assert_eq!(reg.weight(99), 1, "unknown tenants default to weight 1");
    }

    #[test]
    fn set_usage_overwrites_and_zeroes() {
        let reg = TenantRegistry::new();
        reg.state(1).usage.used_bytes.store(7, Ordering::SeqCst);
        reg.state(2).usage.used_keys.store(9, Ordering::SeqCst);
        let mut counts = HashMap::new();
        counts.insert(1u32, (100u64, 3u64));
        reg.set_usage(&counts);
        assert_eq!(reg.state(1).usage.used_bytes.load(Ordering::SeqCst), 100);
        assert_eq!(reg.state(1).usage.used_keys.load(Ordering::SeqCst), 3);
        assert_eq!(reg.state(2).usage.used_keys.load(Ordering::SeqCst), 0);
    }
}
