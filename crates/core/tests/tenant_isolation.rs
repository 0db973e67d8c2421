//! Cross-tenant isolation properties.
//!
//! Three layers of the tenancy design are proven here:
//!
//! 1. **Namespace isolation** — for arbitrary op interleavings over N
//!    tenants sharing one store (and deliberately sharing key *names*),
//!    the store equals the reference model (`shieldstore::model`), whose
//!    tenants are separate namespaces. No write, delete, or append in one
//!    namespace is ever visible in another.
//! 2. **Cryptographic isolation** — a leaked tenant-A derived key pair
//!    plus raw access to the untrusted entry bytes must neither decrypt
//!    nor forge tenant-B entries: B's MACs fail under A's key, A's
//!    cipher produces garbage on B's ciphertext, and an entry re-MACed
//!    under A's keys is rejected by B's reads (fail closed).
//! 3. **Re-stitch resistance** — flipping the plaintext tenant field of
//!    a stored entry (moving a ciphertext into another namespace) is
//!    always detected, because the tenant id is inside the MAC domain
//!    and the MAC key itself is tenant-derived.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::enclave::EnclaveBuilder;
use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shieldstore::entry;
use shieldstore::model::Model;
use shieldstore::testing::{EntryField, TamperOp};
use shieldstore::{Config, Error, Op, Reply, ShieldStore};

fn store() -> ShieldStore {
    let enclave = EnclaveBuilder::new("tenant-isolation").epc_bytes(16 << 20).build();
    ShieldStore::new(enclave, Config::shield_opt().buckets(64).mac_hashes(16).with_shards(1))
        .unwrap()
}

/// One step of a multi-tenant interleaving.
#[derive(Debug, Clone)]
enum Step {
    Set { tenant: u32, key: u8, val: Vec<u8> },
    Get { tenant: u32, key: u8 },
    Delete { tenant: u32, key: u8 },
    Append { tenant: u32, key: u8, suffix: Vec<u8> },
}

fn step_strategy(tenants: u32, keys: u8) -> impl Strategy<Value = Step> {
    let t = 1..tenants + 1;
    let k = 0..keys;
    prop_oneof![
        (t.clone(), k.clone(), pvec(any::<u8>(), 1..24)).prop_map(|(tenant, key, val)| Step::Set {
            tenant,
            key,
            val
        }),
        (t.clone(), k.clone()).prop_map(|(tenant, key)| Step::Get { tenant, key }),
        (t.clone(), k.clone()).prop_map(|(tenant, key)| Step::Delete { tenant, key }),
        (t, k, pvec(any::<u8>(), 1..8)).prop_map(|(tenant, key, suffix)| Step::Append {
            tenant,
            key,
            suffix
        }),
    ]
}

fn key_name(key: u8) -> Vec<u8> {
    // The SAME name in every namespace — isolation must come from the
    // tenant id, not from the key bytes.
    format!("shared-key-{key:02}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Every tenant's view is its own namespace of the model under
    /// arbitrary interleavings over shared key names.
    #[test]
    fn tenant_views_match_independent_shadows(
        steps in pvec(step_strategy(3, 6), 1..120),
    ) {
        let s = store();
        let mut model = Model::default();
        for step in &steps {
            let (Step::Set { tenant, key, .. }
            | Step::Get { tenant, key }
            | Step::Delete { tenant, key }
            | Step::Append { tenant, key, .. }) = step;
            let key = key_name(*key);
            let op = match step {
                Step::Set { val, .. } => Op::set(&key, val),
                Step::Get { .. } => Op::Get(&key),
                Step::Delete { .. } => Op::Delete(&key),
                Step::Append { suffix, .. } => Op::Append { key: &key, suffix },
            };
            let got = s.execute(*tenant, op).map_err(|e| TestCaseError::fail(format!("{op:?}: {e}")))?;
            prop_assert_eq!(Some(got), model.apply(*tenant, op));
        }
        // Final sweep: every tenant reads every shared name, and the
        // store holds exactly the model.
        for tenant in 1..=3u32 {
            for key in 0..6u8 {
                model.apply(tenant, Op::Get(&key_name(key)));
            }
        }
        model.check_store(&s).map_err(TestCaseError::fail)?;
    }

    /// A leaked tenant-A key pair plus raw entry access cannot decrypt
    /// or forge tenant-B entries.
    #[test]
    fn leaked_key_cannot_open_or_forge_other_tenant(
        key in pvec(any::<u8>(), 1..24),
        val_b in pvec(any::<u8>(), 1..64),
        seed in any::<u64>(),
    ) {
        let s = store();
        s.execute(1, Op::set(&key, b"tenant-a-value")).unwrap();
        s.execute(2, Op::set(&key, &val_b)).unwrap();

        // The attacker: tenant A's full derived key pair and raw
        // read/write access to every entry's bytes in untrusted memory.
        let (enc_a, mac_a) = s.leak_tenant_keys(1);
        let enc = AesCtr::new(&enc_a);
        let mac = Cmac::new(&mac_a);

        let mut saw_b = false;
        let honest = s.stale_entry_copies(0);
        for stale in honest.clone() {
            let header = entry::parse_header(&stale.bytes);
            if header.tenant != 2 {
                continue;
            }
            saw_b = true;
            let ct = &stale.bytes[entry::HEADER_LEN..];
            // B's MAC never verifies under A's key...
            prop_assert!(
                !entry::verify_mac(&mac, &header, ct, &stale.tag),
                "tenant-B entry authenticated under tenant-A's MAC key"
            );
            // ...and A's cipher cannot recover B's plaintext.
            let (k, v) = entry::decrypt_entry(&enc, &header, ct);
            prop_assert!(
                k != key || v != val_b,
                "tenant-A's data key decrypted tenant-B's entry"
            );

            // Forgery: re-MAC the B-tagged entry under A's key (the
            // strongest thing the attacker can compute) and plant it.
            let tag = entry::compute_mac(&mac, &header, ct);
            let forged = shieldstore::testing::StaleEntry { tag, ..stale.clone() };
            let planted = s.replay_entry(0, &forged);
            prop_assert!(planted, "replay hook must land");
        }
        prop_assert!(saw_b, "tenant-B entry must exist in raw memory");

        // B's reads reject the forgery outright (fail closed) — and
        // mix in an unrelated seed-derived read to vary timing.
        let _ = seed;
        match s.execute(2, Op::Get(&key)).map(Reply::value) {
            Ok(v) => prop_assert_eq!(v, Some(val_b.clone()),
                "forged entry must never be served as tenant-B data"),
            Err(Error::IntegrityViolation { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
        }
        // A integrity failure above must have been the outcome, since
        // the forged MAC cannot verify under B's derived key.
        prop_assert!(
            s.execute(2, Op::Get(&key)).is_err(),
            "tenant-B read of a forged entry must fail closed"
        );
        // Tenant A's namespace is never served another's data: its key
        // shares the forged tag's bucket set, whose hash now fails closed
        // for every key in it, and with the honest tags put back it reads
        // its own value again — as does B.
        match s.execute(1, Op::Get(&key)).map(Reply::value) {
            Ok(v) => prop_assert_eq!(v, Some(b"tenant-a-value".to_vec())),
            Err(Error::IntegrityViolation { .. }) => {}
            Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
        }
        for stale in &honest {
            s.replay_entry(0, stale);
        }
        prop_assert_eq!(
            s.execute(1, Op::Get(&key)).unwrap().value(),
            Some(b"tenant-a-value".to_vec())
        );
        prop_assert_eq!(s.execute(2, Op::Get(&key)).unwrap().value(), Some(val_b.clone()));
    }

    /// Re-stitching a ciphertext into another namespace by flipping the
    /// plaintext tenant field is always detected: no tenant ever reads
    /// a value that is not its own.
    #[test]
    fn tenant_field_tamper_never_crosses_namespaces(
        val_a in pvec(any::<u8>(), 1..32),
        val_b in pvec(any::<u8>(), 1..32),
        seed in any::<u64>(),
    ) {
        prop_assume!(val_a != val_b);
        let s = store();
        s.execute(1, Op::set(b"the-key", &val_a)).unwrap();
        s.execute(2, Op::set(b"the-key", &val_b)).unwrap();
        prop_assert!(s.tamper(TamperOp::Field(EntryField::Tenant), seed));

        for (tenant, own) in [(1u32, &val_a), (2u32, &val_b)] {
            match s.execute(tenant, Op::Get(b"the-key")).map(Reply::value) {
                // Untampered entry: the value must be the tenant's own.
                Ok(Some(v)) => prop_assert_eq!(&v, own),
                // Tampered entry: detected, never misattributed.
                Err(Error::IntegrityViolation { .. }) | Ok(None) => {}
                Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
            }
        }
    }
}
