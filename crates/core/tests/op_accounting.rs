//! The accounting rule of `Shard::execute`, checked over every `Op`
//! variant, admitted and guard-rejected alike.
//!
//! The rule: an op counts once in its op class — at shard level and, for
//! the classes a tenant tracks, at tenant level — *before* anything can
//! refuse it, and records one latency sample where its class has a
//! histogram. A quarantine rejection therefore moves exactly the same
//! class counters as a served op (plus `quarantine_rejections`), which is
//! what keeps `StatsSnapshot::check_consistent` true under attack.

//!
//! And the work behind an op, pinned: a fixed stream must cost exactly
//! the decryptions, verifications, gathers and crypto calls recorded
//! when the lookup path was last changed on purpose.

use sgx_sim::enclave::EnclaveBuilder;
use shieldstore::{Config, Error, Op, ShieldStore};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::Mutex;

const TENANT: u32 = 7;

/// The crypto counters are process-wide; the tests of this file take
/// turns so the pinned stream counts only its own calls.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Every counter the rule talks about: shard op classes, class
/// histograms, the tenant's mirror of `gets`/`sets`, and rejections.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    gets: u64,
    sets: u64,
    deletes: u64,
    appends: u64,
    increments: u64,
    batches: u64,
    batch_ops: u64,
    hist_get: u64,
    hist_set: u64,
    hist_delete: u64,
    hist_batch: u64,
    tenant_gets: u64,
    tenant_sets: u64,
    rejections: u64,
}

impl Counts {
    fn read(store: &ShieldStore) -> Counts {
        let usage = &store.tenants().state(TENANT).usage;
        store.with_shard(0, |shard| {
            let (s, h) = (shard.stats(), shard.hists());
            Counts {
                gets: s.gets,
                sets: s.sets,
                deletes: s.deletes,
                appends: s.appends,
                increments: s.increments,
                batches: s.batches,
                batch_ops: s.batch_ops,
                hist_get: h.get.count(),
                hist_set: h.set.count(),
                hist_delete: h.delete.count(),
                hist_batch: h.batch.count(),
                tenant_gets: usage.gets.load(SeqCst),
                tenant_sets: usage.sets.load(SeqCst),
                rejections: s.quarantine_rejections,
            }
        })
    }

    fn minus(self, earlier: Counts) -> Counts {
        Counts {
            gets: self.gets - earlier.gets,
            sets: self.sets - earlier.sets,
            deletes: self.deletes - earlier.deletes,
            appends: self.appends - earlier.appends,
            increments: self.increments - earlier.increments,
            batches: self.batches - earlier.batches,
            batch_ops: self.batch_ops - earlier.batch_ops,
            hist_get: self.hist_get - earlier.hist_get,
            hist_set: self.hist_set - earlier.hist_set,
            hist_delete: self.hist_delete - earlier.hist_delete,
            hist_batch: self.hist_batch - earlier.hist_batch,
            tenant_gets: self.tenant_gets - earlier.tenant_gets,
            tenant_sets: self.tenant_sets - earlier.tenant_sets,
            rejections: self.rejections - earlier.rejections,
        }
    }
}

/// The rule itself, as a table: what one `op` must add, served or not.
fn class_counts(op: &Op<'_>) -> Counts {
    let zero = Counts::default();
    match *op {
        Op::Get(_) | Op::Exists(_) => Counts { gets: 1, hist_get: 1, tenant_gets: 1, ..zero },
        Op::Set { .. } => Counts { sets: 1, hist_set: 1, tenant_sets: 1, ..zero },
        Op::Delete(_) => Counts { deletes: 1, hist_delete: 1, ..zero },
        Op::Append { .. } => Counts { appends: 1, ..zero },
        Op::Increment { .. } => Counts { increments: 1, ..zero },
        Op::MultiGet(keys) => {
            let n = keys.len() as u64;
            Counts { batches: 1, batch_ops: n, gets: n, hist_batch: 1, tenant_gets: n, ..zero }
        }
        Op::MultiSet { items, .. } => {
            let n = items.len() as u64;
            Counts { batches: 1, batch_ops: n, sets: n, hist_batch: 1, tenant_sets: n, ..zero }
        }
        Op::ScanRange { .. } | Op::ScanPrefix { .. } => zero,
    }
}

/// One of each `Op` variant aimed at `key` (batches carry `key` plus a
/// second entry, so a single quarantined key rejects them).
fn every_op<'a>(
    key: &'a [u8],
    keys: &'a [&'a [u8]],
    items: &'a [(&'a [u8], &'a [u8])],
) -> Vec<Op<'a>> {
    vec![
        Op::Get(key),
        Op::Exists(key),
        Op::set(key, b"value"),
        Op::Set { key, value: b"leased", expires_at: u64::MAX },
        Op::Delete(key),
        Op::Append { key, suffix: b"+" },
        Op::Increment { key: b"counter", delta: 1 },
        Op::Increment { key, delta: 1 },
        Op::MultiGet(keys),
        Op::MultiSet { items, expires_at: 0 },
        Op::ScanRange { start: b"a", end: b"z", limit: 8 },
        Op::ScanPrefix { prefix: b"q", limit: 8 },
    ]
}

#[test]
fn every_op_counts_once_in_its_class_served_or_rejected() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let enclave = EnclaveBuilder::new("op-accounting").epc_bytes(8 << 20).build();
    let store = ShieldStore::new(
        enclave,
        Config { ordered_index: true, ..Config::shield_opt() }
            .buckets(256)
            .mac_hashes(64)
            .with_shards(1)
            .with_quarantine(),
    )
    .unwrap();
    let state = store.tenants().state(TENANT);
    let run = |op: Op<'_>| store.with_shard(0, |shard| shard.execute(TENANT, Some(&state), op));

    let names: Vec<Vec<u8>> = (0..64).map(|i| format!("q{i:02}").into_bytes()).collect();
    for name in &names {
        run(Op::set(name, b"value")).unwrap();
    }

    // Served: every variant on a healthy store moves exactly its class.
    let key = names[0].as_slice();
    let keys = [key, names[1].as_slice()];
    let items = [(key, b"v".as_slice()), (names[1].as_slice(), b"w".as_slice())];
    for op in every_op(key, &keys, &items) {
        let before = Counts::read(&store);
        let _ = run(op); // a non-numeric increment fails; it still counts
        let moved = Counts::read(&store).minus(before);
        assert_eq!(moved, class_counts(&op), "served {op:?}");
    }

    // Poison one bucket set and let a read sweep find it.
    assert!(store.tamper_any_entry_byte(7));
    for name in &names {
        let _ = run(Op::Get(name));
    }
    let report = store.quarantine_report();
    assert_eq!(report.quarantined_sets(), 1, "one set is quarantined: {report:?}");
    let poisoned = report.shards[0].quarantined_sets[0];
    let victim = names
        .iter()
        .find(|name| store.key_partition(name).1 == poisoned)
        .expect("some key maps to the quarantined set")
        .as_slice();
    let healthy = names
        .iter()
        .find(|name| store.key_partition(name).1 != poisoned)
        .expect("some key maps elsewhere")
        .as_slice();

    // Rejected: the same class counters move, plus one rejection. Scans
    // are refused while any set of the shard is quarantined.
    let keys = [healthy, victim];
    let items = [(healthy, b"v".as_slice()), (victim, b"w".as_slice())];
    for op in every_op(victim, &keys, &items) {
        if op.routing_key() == Some(b"counter".as_slice()) {
            continue; // aimed at a fixed key, not at the victim
        }
        let before = Counts::read(&store);
        let result = run(op);
        assert!(matches!(result, Err(Error::Quarantined { .. })), "{op:?} answered {result:?}");
        let moved = Counts::read(&store).minus(before);
        assert_eq!(moved, Counts { rejections: 1, ..class_counts(&op) }, "rejected {op:?}");
    }

    // The other partitions keep serving, and the books still balance.
    assert_eq!(run(Op::Get(healthy)).unwrap().value().as_deref(), Some(b"v".as_slice()));
    store.snapshot().check_consistent().expect("identities hold under attack");
}

/// The work counters of the verified lookup path: what a get, set,
/// delete or batch *does*, as opposed to how long it waits.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    key_decryptions: u64,
    hint_skips: u64,
    full_scans: u64,
    integrity_verifications: u64,
    macs_gathered: u64,
    side_mac_fallbacks: u64,
    crypto_bytes: u64,
    crypto_ops: u64,
}

/// Same work, less waiting. A seeded get/set/delete/multi_get/multi_set
/// stream over chains several entries long must perform exactly the work
/// recorded before the lookup's memory loads were overlapped — so a later
/// "optimisation" that skips a decryption, a set verification or a MAC
/// gather cannot hide behind a throughput gain. A change that alters
/// these on purpose re-records them and says why.
#[test]
fn a_fixed_stream_costs_exactly_the_recorded_work() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let enclave = EnclaveBuilder::new("op-accounting-work").seed(16).epc_bytes(8 << 20).build();
    let store =
        ShieldStore::new(enclave, Config::shield_opt().buckets(64).mac_hashes(16).with_shards(1))
            .unwrap();
    let key = |id: u64| format!("work-key-{id:04}").into_bytes();
    let value = |id: u64, round: u64| vec![(id ^ round) as u8; 24 + (id % 200) as usize];
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = |below: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % below
    };

    const KEYS: u64 = 320;
    for id in 0..KEYS {
        store.set(&key(id), &value(id, 0)).unwrap();
    }
    let (ops0, bytes0, calls0) =
        (store.stats(), shield_crypto::stats::crypto_bytes(), shield_crypto::stats::crypto_ops());
    for round in 1..=1500u64 {
        // Ids past KEYS were never stored: verified misses.
        let id = next(KEYS + 40);
        match next(10) {
            0..=4 => drop(store.execute(TENANT, Op::Get(&key(id))).unwrap()),
            5..=6 => store.set(&key(id), &value(id, round)).unwrap(),
            7 => drop(store.execute(0, Op::Delete(&key(id))).unwrap()),
            8 => {
                let keys: Vec<Vec<u8>> = (0..16).map(|_| key(next(KEYS + 40))).collect();
                let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
                store.multi_get(&refs).unwrap();
            }
            _ => {
                let items: Vec<(Vec<u8>, Vec<u8>)> = (0..8)
                    .map(|_| {
                        let id = next(KEYS);
                        (key(id), value(id, round))
                    })
                    .collect();
                let refs: Vec<(&[u8], &[u8])> =
                    items.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect();
                store.multi_set(&refs).unwrap();
            }
        }
    }
    let ops = store.stats();
    let work = Work {
        key_decryptions: ops.key_decryptions - ops0.key_decryptions,
        hint_skips: ops.hint_skips - ops0.hint_skips,
        full_scans: ops.full_scans - ops0.full_scans,
        integrity_verifications: ops.integrity_verifications - ops0.integrity_verifications,
        macs_gathered: ops.macs_gathered - ops0.macs_gathered,
        side_mac_fallbacks: ops.side_mac_fallbacks - ops0.side_mac_fallbacks,
        crypto_bytes: shield_crypto::stats::crypto_bytes() - bytes0,
        crypto_ops: shield_crypto::stats::crypto_ops() - calls0,
    };
    // Recorded at the parent of the change that overlapped the lookup's
    // untrusted-memory loads; the crypto columns re-recorded when
    // every write began proving the entry it replaces — one CMAC of the
    // old entry per update and per delete that finds its key, +1,568 calls
    // and +248,373 bytes, and nothing else. `macs_gathered` re-recorded
    // (107,028 → 77,428) when a write began storing its set hash from
    // the verified gather it patched instead of gathering the set again,
    // and a batch's later writes to a set stopped re-gathering a bucket.
    let recorded = Work {
        key_decryptions: 6292,
        hint_skips: 12061,
        full_scans: 1175,
        integrity_verifications: 3836,
        macs_gathered: 77428,
        side_mac_fallbacks: 0,
        crypto_bytes: 4157339,
        crypto_ops: 27333,
    };
    assert_eq!(work, recorded);
}
