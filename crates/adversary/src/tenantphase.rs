//! The `tenant` phase: cross-tenant attacks, checked differentially.
//!
//! Four attack kinds run per seed, each against the same two-tenant
//! store (victim tenant 2, attacker tenant 1, quota-bounded tenant 3):
//!
//! * **cross-read** — the attacker reads the victim's key names through
//!   its own namespace and sweeps raw untrusted memory with its *own
//!   leaked derived keys*. Nothing of the victim's may decrypt or
//!   verify.
//! * **forge** — the attacker re-MACs victim-tagged entries under its
//!   leaked key and plants them back. The victim's reads must fail
//!   closed, never serve the forgery.
//! * **quota-exhaustion** — a flood from the quota-bounded tenant must
//!   hit `QuotaExceeded` without ever overshooting its configured
//!   budget, and must not block the victim's writes.
//! * **TTL-resurrection** — expired entries are "revived" by rewriting
//!   the plaintext expiry field and by replaying stale pre-expiry entry
//!   bytes. An expired value must never be served again.
//!
//! Everything is a pure function of the seed, like the other phases.

use crate::rig::ThawGuard;
use crate::{answered, checked, Rig, Tally, Violation};
use shieldstore::model::Model;
use shieldstore::testing::StaleEntry;
use shieldstore::{entry, ttl, Error, Op, ShieldStore, TenantQuota};

/// The tenant phase's seed salt.
pub const SALT: u64 = 0x7e4a_917e_4a91_7e4a;
const ATTACKER: u32 = 1;
const VICTIM: u32 = 2;
const BOUNDED: u32 = 3;
const NUM_KEYS: u64 = 16;

fn key_bytes(id: u64) -> Vec<u8> {
    format!("tenant-key-{id:04}").into_bytes()
}

fn value_bytes(tenant: u32, id: u64, seed: u64) -> Vec<u8> {
    format!("t{tenant}-v{id}-{:08x}", seed & 0xffff_ffff).into_bytes()
}

fn violation(context: &str, detail: String) -> Violation {
    Violation { context: context.into(), detail }
}

/// Runs the tenant phase. Besides `ops`, `attacks` and `detected`, it
/// counts each kind: `cross_reads` (API and leaked-key sweeps),
/// `forgeries` planted, `quota_rejections`, and `ttl_resurrections`.
pub fn run(rig: &mut Rig) -> Result<(), Violation> {
    let seed = rig.seed;
    // One enclave identity (seed 0) for every seed, with 16 MiB of EPC.
    let enclave = crate::rig::enclave("adversary-tenant", 0).epc_bytes(16 << 20).build();
    let store = ShieldStore::new(enclave, crate::rig::config().with_shards(1))
        .map_err(|e| violation("tenant setup", format!("store: {e}")))?;

    // Freeze the TTL clock so expiry is deterministic per seed.
    let base_ns = 1_700_000_000_000_000_000u64 + (seed & 0xffff) * 1_000_000;
    let _clock = ThawGuard::freeze(base_ns);

    // Populate attacker and victim namespaces over the SAME key names.
    let mut model = Model::default();
    for id in 0..NUM_KEYS {
        for tenant in [ATTACKER, VICTIM] {
            let (key, value) = (key_bytes(id), value_bytes(tenant, id, seed));
            answered(&store, &mut model, "tenant warm-up", tenant, Op::set(&key, &value))?;
        }
        rig.tally.add("ops", 2);
    }

    cross_read_attacks(&store, &mut model, &mut rig.tally)?;
    forge_attacks(&store, &mut model, rig)?;
    quota_exhaustion(&store, &mut model, rig)?;
    ttl_resurrection(&store, &mut model, rig)
}

/// Attack 1: cross-tenant reads via the API and via leaked keys over
/// raw memory.
fn cross_read_attacks(
    store: &ShieldStore,
    model: &mut Model,
    tally: &mut Tally,
) -> Result<(), Violation> {
    // API level: the attacker's namespace resolves to its own values.
    for id in 0..NUM_KEYS {
        tally.add("ops", 1);
        tally.add("cross_reads", 1);
        answered(store, model, "cross-read", ATTACKER, Op::Get(&key_bytes(id)))?;
    }

    // Raw level: leaked attacker keys over every victim entry.
    let (enc_raw, mac_raw) = store.leak_tenant_keys(ATTACKER);
    let enc = shield_crypto::ctr::AesCtr::new(&enc_raw);
    let mac = shield_crypto::cmac::Cmac::new(&mac_raw);
    let mut victim_entries = 0u64;
    for stale in store.stale_entry_copies(0) {
        let header = entry::parse_header(&stale.bytes);
        if header.tenant != VICTIM {
            continue;
        }
        victim_entries += 1;
        tally.add("cross_reads", 1);
        tally.add("attacks", 1);
        let ct = &stale.bytes[entry::HEADER_LEN..];
        if entry::verify_mac(&mac, &header, ct, &stale.tag) {
            return Err(violation(
                "cross-read",
                "victim entry verified under the attacker's leaked MAC key".into(),
            ));
        }
        tally.add("detected", 1);
        let (k, _v) = entry::decrypt_entry(&enc, &header, ct);
        if (0..NUM_KEYS).any(|id| k == key_bytes(id)) {
            return Err(violation(
                "cross-read",
                "attacker's leaked data key decrypted a victim key".into(),
            ));
        }
    }
    if victim_entries == 0 {
        return Err(violation("cross-read", "no victim entries found in raw memory".into()));
    }
    Ok(())
}

/// Attack 2: plant victim-tagged entries re-MACed under the attacker's
/// leaked key.
fn forge_attacks(store: &ShieldStore, model: &mut Model, rig: &mut Rig) -> Result<(), Violation> {
    let (_, mac_raw) = store.leak_tenant_keys(ATTACKER);
    let mac = shield_crypto::cmac::Cmac::new(&mac_raw);
    let stales = store.stale_entry_copies(0);
    let victims: Vec<&StaleEntry> =
        stales.iter().filter(|s| entry::parse_header(&s.bytes).tenant == VICTIM).collect();
    // Forge a pseudo-random subset (at least one).
    let picks = 1 + rig.rng.next_below(victims.len() as u64 / 2 + 1) as usize;
    for stale in victims.iter().take(picks) {
        let header = entry::parse_header(&stale.bytes);
        let ct = &stale.bytes[entry::HEADER_LEN..];
        let tag = entry::compute_mac(&mac, &header, ct);
        if store.replay_entry(0, &StaleEntry { tag, ..(*stale).clone() }) {
            rig.tally.add("forgeries", 1);
            rig.tally.add("attacks", 1);
        }
    }

    // The victim's reads now either fail closed or return its own
    // values (for untouched entries) — never anything else.
    for id in 0..NUM_KEYS {
        rig.tally.add("ops", 1);
        if !checked(store, model, "forge", VICTIM, Op::Get(&key_bytes(id)))? {
            rig.tally.add("detected", 1);
        }
    }
    // Undo the attack (restore the captured honest bytes) so later
    // attacks start from a verifying store; the store itself rightly
    // refuses to write through a tampered chain.
    for stale in victims.iter().take(picks) {
        store.replay_entry(0, stale);
    }
    for id in 0..NUM_KEYS {
        rig.tally.add("ops", 1);
        answered(store, model, "forge repair", VICTIM, Op::Get(&key_bytes(id)))?;
    }
    Ok(())
}

/// Attack 3: a bounded tenant floods past its quota.
fn quota_exhaustion(
    store: &ShieldStore,
    model: &mut Model,
    rig: &mut Rig,
) -> Result<(), Violation> {
    let max_keys = 8u64;
    store.tenants().configure(BOUNDED, TenantQuota { max_bytes: u64::MAX, max_keys, weight: 1 });
    let mut rejected = 0u64;
    for id in 0..max_keys * 3 {
        rig.tally.add("ops", 1);
        match store.execute(BOUNDED, Op::set(&key_bytes(id), &value_bytes(BOUNDED, id, rig.seed))) {
            Ok(_) => {}
            Err(Error::QuotaExceeded { tenant }) if tenant == BOUNDED => rejected += 1,
            Err(e) => return Err(violation("quota", format!("unexpected error {e:?}"))),
        }
    }
    rig.tally.add("attacks", 1);
    rig.tally.add("quota_rejections", rejected);
    if rejected == 0 {
        return Err(violation("quota", "flood past max_keys was never rejected".into()));
    }
    rig.tally.add("detected", 1);
    let used =
        store.tenants().state(BOUNDED).usage.used_keys.load(std::sync::atomic::Ordering::Relaxed);
    if used > max_keys {
        return Err(violation(
            "quota",
            format!("bounded tenant holds {used} keys over its {max_keys} budget"),
        ));
    }
    // The victim is unaffected by the bounded tenant's exhaustion.
    rig.tally.add("ops", 1);
    let probe = Op::set(b"quota-victim-probe", b"still-writable");
    answered(store, model, "quota: victim write", VICTIM, probe)
}

/// Attack 4: revive expired entries by expiry-field rewrite and by
/// stale-bytes replay.
fn ttl_resurrection(
    store: &ShieldStore,
    model: &mut Model,
    rig: &mut Rig,
) -> Result<(), Violation> {
    let ttl_ns = 1_000_000_000u64; // 1s on the frozen clock
    let doomed: Vec<u64> = (0..4).map(|i| NUM_KEYS + 100 + i).collect();
    for &id in &doomed {
        rig.tally.add("ops", 1);
        let (key, value) = (key_bytes(id), value_bytes(VICTIM, id, rig.seed));
        let expires_at = ttl::deadline_after(ttl_ns);
        answered(
            store,
            model,
            "ttl: leased set",
            VICTIM,
            Op::Set { key: &key, value: &value, expires_at },
        )?;
    }
    // Stale pre-expiry copies for the replay attack.
    let stales: Vec<StaleEntry> = store
        .stale_entry_copies(0)
        .into_iter()
        .filter(|s| {
            let h = entry::parse_header(&s.bytes);
            h.tenant == VICTIM && h.expires_at != 0
        })
        .collect();
    if stales.is_empty() {
        return Err(violation("ttl", "no TTL'd victim entries captured".into()));
    }

    ttl::advance(ttl_ns + 1);

    // Expired: every read misses (lazy expiry).
    for &id in &doomed {
        rig.tally.add("ops", 1);
        answered(store, model, "ttl: expired read", VICTIM, Op::Get(&key_bytes(id)))?;
    }

    // Revival 1: rewrite the plaintext expiry field to the far future.
    for stale in &stales {
        let mut revived = stale.bytes.clone();
        revived[entry::OFF_EXPIRY..entry::OFF_EXPIRY + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        if store.replay_entry(0, &StaleEntry { bytes: revived, ..stale.clone() }) {
            rig.tally.add("ttl_resurrections", 1);
            rig.tally.add("attacks", 1);
        }
    }
    for &id in &doomed {
        rig.tally.add("ops", 1);
        if !checked(store, model, "ttl: expiry-field rewrite", VICTIM, Op::Get(&key_bytes(id)))? {
            rig.tally.add("detected", 1);
        }
    }

    // Restore honest bytes, sweep the expired entries out, then replay
    // the (authentically MACed!) stale pre-expiry bytes at a survivor's
    // slot — rollback to a live-looking expired entry.
    for stale in &stales {
        store.replay_entry(0, stale);
    }
    let swept = store.sweep_expired().map_err(|e| violation("ttl", format!("sweep: {e}")))?;
    if swept == 0 {
        return Err(violation("ttl", "sweep reclaimed nothing despite expired entries".into()));
    }
    rig.tally.add("ops", 1);

    let survivors = store.stale_entry_copies(0);
    if let Some(target) = survivors.get(rig.rng.next_below(survivors.len() as u64) as usize) {
        if let Some(stale) = stales.first() {
            if store.replay_entry(0, &StaleEntry { handle: target.handle, ..stale.clone() }) {
                rig.tally.add("ttl_resurrections", 1);
                rig.tally.add("attacks", 1);
            }
        }
    }
    for &id in &doomed {
        rig.tally.add("ops", 1);
        if !checked(store, model, "ttl: stale replay", VICTIM, Op::Get(&key_bytes(id)))? {
            rig.tally.add("detected", 1);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_phase_runs_clean_over_seeds() {
        for seed in 0..8 {
            let tally = crate::run_phase("tenant", seed, SALT, run).expect("no violations");
            for kind in ["cross_reads", "forgeries", "quota_rejections", "ttl_resurrections"] {
                assert!(tally.get(kind) > 0, "seed {seed}: no {kind}");
            }
            assert!(tally.get("detected") > 0);
        }
    }

    #[test]
    fn tenant_phase_is_deterministic() {
        let a = crate::run_phase("tenant", 77, SALT, run).expect("clean");
        let b = crate::run_phase("tenant", 77, SALT, run).expect("clean");
        assert_eq!(a, b);
    }
}
