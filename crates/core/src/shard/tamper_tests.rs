//! What a shard reports when untrusted memory is forged under it: hint
//! corruption, wild and cyclic pointers, and the one-bit tamper matrix.

use super::tests::{last_entry, shard_with};
use super::*;
use crate::alloc::{Handle, NULL_HANDLE};
use crate::config::Config;
use crate::entry;
use crate::table::Link;
use crate::ttl;
use sgx_sim::vclock;

#[test]
fn hint_corruption_defeated_by_two_step_search() {
    let cfg = Config::shield_opt().buckets(1).mac_hashes(1);
    let mut s = shard_with(cfg);
    vclock::reset();
    s.set(b"target", b"payload").unwrap();
    // Attacker flips the key hint in untrusted memory. The MAC covers
    // the hint, so verification would fail on the *found* entry — but
    // first the search must still find it via the two-step fallback.
    let handle = last_entry(&s);
    let main = s.main_table_mut().unwrap();
    main.heap.bytes_at_mut(handle, entry::OFF_HINT, 1)[0] ^= 0xff;
    // The hint is MAC-covered, so the get reports tampering rather
    // than silently missing the key (availability attack detected).
    let r = s.get(b"target");
    assert!(
        matches!(r, Err(Error::IntegrityViolation { .. })),
        "two-step search must find the entry and expose the tamper: {r:?}"
    );
    vclock::reset();
}

/// A pointer the op and maintenance paths follow.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Site {
    /// The chain head's `next`.
    EntryNext,
    /// The bucket's `mac_heads` slot.
    MacHead,
    /// The first MAC node's `next`.
    MacNodeNext,
}

/// What is written there: a wild handle, or the handle of the very object
/// the pointer sits in.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plant {
    Wild(usize),
    SelfCycle,
}

/// A one-bucket shard holding `a`, `b`, `c` — chain `c → b → a`, `c` long
/// expired when `expire_head` — with `plant` written at `site`. `None`
/// where the configuration has no such site.
fn forged_shard(cfg: Config, site: Site, plant: Plant, expire_head: bool) -> Option<Shard> {
    let mac_bucket = cfg.mac_bucket;
    let mut s = shard_with(cfg.buckets(1).mac_hashes(1));
    for key in [b"a", b"b", b"c"] {
        let expires_at = (expire_head && key == b"c") as u64;
        s.execute(0, None, Op::Set { key, value: &[key[0]; 600], expires_at }).unwrap();
    }
    let main = s.main_table_mut().unwrap();
    let (object, offset) = match site {
        Site::EntryNext => (main.heads[0], entry::OFF_NEXT),
        // No MAC nodes to corrupt without MAC bucketing.
        Site::MacNodeNext if !mac_bucket => return None,
        Site::MacHead | Site::MacNodeNext => (main.mac_heads[0], 0),
    };
    let value = match plant {
        Plant::Wild(i) => main.heap.wild_handles()[i],
        Plant::SelfCycle => object,
    };
    match site {
        Site::MacHead if plant == Plant::SelfCycle => return None,
        Site::MacHead => main.mac_heads[0] = value,
        _ => main.heap.write_u64_at(object, offset, value),
    }
    Some(s)
}

/// Runs `f` on a thread of its own and fails if it has not come back
/// within `deadline`: a walk that spins is a failure, not a hang.
fn within(deadline: std::time::Duration, f: impl FnOnce() + Send + 'static) {
    let (done, finished) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = done.send(());
    });
    match finished.recv_timeout(deadline) {
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("still running after {deadline:?}")
        }
        // Finished, or panicked: the join tells which.
        _ => worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
    }
}

/// Hints are not reads, and maintenance is not exempt. Every pointer the
/// lookup hints — an entry's `next`, a bucket's `mac_heads` slot, a MAC
/// node's `next` — is planted with each wild value and with a cycle in
/// turn; every op either serves what it can prove or fails closed, exactly
/// as before there were hints, and so does everything that walks the whole
/// table: the sweep, the usage tally, the index rebuild, the full
/// verification and a snapshot's freeze → write → unfreeze. Nothing
/// panics, and nothing spins.
#[test]
fn wild_pointers_are_hinted_harmlessly_and_fail_closed() {
    within(std::time::Duration::from_secs(120), || {
        let plants = (0..4).map(Plant::Wild).chain([Plant::SelfCycle]);
        for (mac_bucket, plant) in
            [true, false].into_iter().flat_map(|m| plants.clone().map(move |p| (m, p)))
        {
            for site in [Site::EntryNext, Site::MacHead, Site::MacNodeNext] {
                let cfg = || Config { mac_bucket, ..Config::shield_opt() };
                let case = format!("{site:?} = {plant:?}, mac_bucket {mac_bucket}");
                vclock::reset();
                let Some(mut s) = forged_shard(cfg(), site, plant, false) else { continue };
                ops_fail_closed(&mut s, site, mac_bucket, &case);
                // `mac_heads` is dead weight without MAC bucketing.
                if (site, mac_bucket) != (Site::MacHead, false) {
                    maintenance_fails_closed(cfg(), site, plant, &case);
                }
                vclock::reset();
            }
        }
    });
}

fn ops_fail_closed(s: &mut Shard, site: Site, mac_bucket: bool, case: &str) {
    let violation = |r: Result<Vec<u8>>| matches!(r, Err(Error::IntegrityViolation { .. }));
    // The chain head is found before its `next` is ever followed, so only
    // a broken set hash can refuse it: the MAC side chain when there is
    // one, else the entry chain itself.
    let head = s.get(b"c");
    match (site, mac_bucket) {
        (Site::EntryNext, true) | (Site::MacHead, false) => {
            assert_eq!(head.as_deref(), Ok([b'c'; 600].as_slice()), "{case}")
        }
        _ => assert!(violation(head), "{case}"),
    }
    if (site, mac_bucket) == (Site::MacHead, false) {
        assert_eq!(s.get(b"a").as_deref(), Ok([b'a'; 600].as_slice()), "{case}");
        return;
    }
    // Everything that has to walk past the planted pointer fails closed,
    // reads and writes, single and batched — and nothing has panicked on
    // the way.
    assert!(violation(s.get(b"b")), "{case}");
    assert!(violation(s.get(b"absent")), "{case}");
    assert!(violation(s.set(b"d", b"new").map(|()| vec![])), "{case}");
    assert!(violation(s.delete(b"a").map(|()| vec![])), "{case}");
    assert!(
        matches!(
            s.multi_get(&[b"c".as_slice(), b"a".as_slice()]),
            Err(Error::IntegrityViolation { .. })
        ),
        "{case}"
    );
    assert!(
        matches!(
            s.multi_set(&[(b"e".as_slice(), b"v".as_slice())]),
            Err(Error::IntegrityViolation { .. })
        ),
        "{case}"
    );
}

fn maintenance_fails_closed(cfg: Config, site: Site, plant: Plant, case: &str) {
    let violation = |r: Result<()>| matches!(r, Err(Error::IntegrityViolation { .. }));
    // The entry chain is what the whole-table walks follow; the MAC side
    // chain is only met where a set is verified.
    let chain_forged = site == Site::EntryNext;

    // The sweep: `c` is expired and authentic, yet its bucket cannot be
    // walked (or its set not verified), so it stays and the violation is
    // observed.
    let mut s = forged_shard(cfg.clone().with_ordered_index().with_quarantine(), site, plant, true)
        .unwrap();
    let reaped = s.sweep_expired(ttl::now_ns(), &TenantRegistry::new());
    assert!(reaped.is_empty(), "{case}: reaped {reaped:?}");
    assert_eq!((s.len(), s.quarantine_state().2), (3, 1), "{case}");
    // Accounting counts what it can read: the whole chain, or the prefix
    // before the forged pointer (a cycle repeats it up to the bound).
    let (_, keys) = s.usage_by_tenant()[&0];
    assert!(if chain_forged { (1..=4).contains(&keys) } else { keys == 3 }, "{case}: {keys}");
    assert_eq!(violation(s.rebuild_index()), chain_forged, "{case}");
    assert!(violation(s.verify_all_sets()), "{case}");

    // A snapshot: the writer refuses a chain it cannot walk, and the merge
    // refuses to write into the forged bucket — leaving the shard frozen
    // and serving, as it was.
    let mut s = forged_shard(cfg, site, plant, false).unwrap();
    let frozen = s.freeze();
    s.set(b"d", b"during").unwrap();
    assert_eq!(violation(crate::persist::write_table(&mut Vec::new(), &frozen)), chain_forged);
    drop(frozen);
    assert!(violation(s.unfreeze()), "{case}");
    assert!(s.is_snapshotting(), "{case}");
    assert_eq!(s.get(b"d").as_deref(), Ok(b"during".as_slice()), "{case}");
}

/// Where the tamper matrix flips one bit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Flip {
    /// The victim's MAC in its bucket's side array (MAC bucketing).
    MacNode,
    /// A MAC the set hash gathers from another bucket of the victim's
    /// set: in the side array with MAC bucketing, else the head
    /// entry's stored tag.
    NeighbourMac,
    /// `NeighbourMac` and `CiphertextValue`: set hash and entry MAC
    /// both fail, the set's verdict must come first.
    NeighbourMacAndValue,
    /// `NeighbourMac` and `CiphertextKey`: set hash and search both
    /// fail.
    NeighbourMacAndKey,
    CiphertextKey,
    CiphertextValue,
    Hint,
    KeyLen,
    ValLen,
    Tenant,
    ExpiresAt,
    Iv,
    StoredTag,
    /// The victim's own `next` (it is the chain tail).
    Next,
    /// The `next` of the entry before the victim.
    NextOfPredecessor,
}

/// What an op on the victim key reported.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Seen {
    Served,
    Miss,
    /// `IntegrityViolation` at the first bucket of the victim's set:
    /// the set-hash verdict.
    AtSetStart,
    /// `IntegrityViolation` at the victim's own bucket: the search's,
    /// the entry MAC's or a side-array check's verdict.
    AtBucket,
}

const FLIPS: [Flip; 15] = [
    Flip::MacNode,
    Flip::NeighbourMac,
    Flip::NeighbourMacAndValue,
    Flip::NeighbourMacAndKey,
    Flip::CiphertextKey,
    Flip::CiphertextValue,
    Flip::Hint,
    Flip::KeyLen,
    Flip::ValLen,
    Flip::Tenant,
    Flip::ExpiresAt,
    Flip::Iv,
    Flip::StoredTag,
    Flip::Next,
    Flip::NextOfPredecessor,
];

/// What get, set and delete of the victim reported at the commit before
/// the lockstep kernel (a `multi_get` reported what the get did). A set or delete never opens the old value, so
/// a flipped value byte or length goes unseen by them (the set
/// overwrites it); a delete authenticates only a deadline it is about
/// to honour. Without MAC bucketing the set hash is derived from the
/// chain itself, so a stored tag or a `next` is the set's to catch.
fn recorded_verdicts(mac_bucket: bool, flip: Flip) -> [Seen; 3] {
    use Seen::{AtBucket, AtSetStart, Served};
    match flip {
        Flip::MacNode
        | Flip::NeighbourMac
        | Flip::NeighbourMacAndValue
        | Flip::NeighbourMacAndKey => [AtSetStart; 3],
        Flip::StoredTag | Flip::Next | Flip::NextOfPredecessor if !mac_bucket => [AtSetStart; 3],
        Flip::CiphertextValue | Flip::ValLen => [AtBucket, Served, Served],
        Flip::ExpiresAt => [AtBucket, Served, AtBucket],
        Flip::Next => [Served; 3],
        _ => [AtBucket; 3],
    }
}

/// One bit flipped in each authenticated or structural field, then a
/// get, a set, a delete and a batched get of the victim key, each on a
/// fresh shard.
/// The verdicts were recorded before the lockstep kernel reordered the
/// work inside an op; the same `Error`, variant and bucket, must come
/// back after. No failed op leaves plaintext staged in the scratch.
#[test]
fn tamper_matrix_reports_the_recorded_verdicts() {
    for mac_bucket in [true, false] {
        for flip in FLIPS {
            let mut row = Vec::new();
            for op in ["get", "set", "delete", "multi_get"] {
                let cfg = Config { mac_bucket, ..Config::shield_opt() }.buckets(16).mac_hashes(4);
                let mut s = shard_with(cfg);
                vclock::reset();
                let keys: Vec<String> = (0..48).map(|i| format!("key-{i}")).collect();
                for key in &keys {
                    s.set(key.as_bytes(), format!("value-of-{key}").as_bytes()).unwrap();
                }
                // The victim: the first key inserted into a bucket
                // that is not its set's first and took a second key
                // later — so it is the chain's tail, behind a
                // predecessor, and the two verdict buckets differ.
                let sets = s.sets_map();
                let (victim, bucket) = keys
                    .iter()
                    .map(|k| (k, s.bucket_index(k.as_bytes())))
                    .find(|&(k, b)| {
                        sets.buckets_of(sets.set_of(b)).start != b
                            && keys.iter().filter(|o| s.bucket_index(o.as_bytes()) == b).count()
                                >= 2
                            && keys.iter().find(|o| s.bucket_index(o.as_bytes()) == b) == Some(k)
                    })
                    .expect("a bucket with a chain");
                let set_buckets = sets.buckets_of(sets.set_of(bucket));
                let main = s.main_table_mut().unwrap();
                let chain: Vec<Link> = main.chain(bucket).map(|link| link.unwrap()).collect();
                let (tail, header) = (chain[chain.len() - 1].handle, chain[chain.len() - 1].header);
                let pos = chain.len() - 1;
                assert_eq!(header.key_len as usize, victim.len());
                let mut flip_at = |handle: Handle, offset: usize| {
                    main.heap.bytes_at_mut(handle, offset, 1)[0] ^= 1;
                };
                if matches!(
                    flip,
                    Flip::NeighbourMac | Flip::NeighbourMacAndValue | Flip::NeighbourMacAndKey
                ) {
                    let other = set_buckets
                        .clone()
                        .find(|&b| b != bucket && main.heads[b] != NULL_HANDLE)
                        .expect("a second occupied bucket in the set");
                    if mac_bucket {
                        flip_at(main.mac_heads[other], 12)
                    } else {
                        flip_at(main.heads[other], entry::OFF_MAC)
                    }
                }
                match flip {
                    Flip::MacNode if !mac_bucket => continue,
                    Flip::MacNode => flip_at(main.mac_heads[bucket], 12 + 16 * pos),
                    Flip::NeighbourMac => {}
                    Flip::CiphertextKey | Flip::NeighbourMacAndKey => {
                        flip_at(tail, entry::HEADER_LEN)
                    }
                    Flip::CiphertextValue | Flip::NeighbourMacAndValue => {
                        flip_at(tail, header.entry_len() - 1)
                    }
                    Flip::Hint => flip_at(tail, entry::OFF_HINT),
                    Flip::KeyLen => flip_at(tail, entry::OFF_KEY_LEN),
                    Flip::ValLen => flip_at(tail, entry::OFF_VAL_LEN),
                    Flip::Tenant => flip_at(tail, entry::OFF_TENANT),
                    Flip::ExpiresAt => flip_at(tail, entry::OFF_EXPIRY),
                    Flip::Iv => flip_at(tail, entry::OFF_IV + 15),
                    Flip::StoredTag => flip_at(tail, entry::OFF_MAC),
                    Flip::Next => flip_at(tail, entry::OFF_NEXT),
                    Flip::NextOfPredecessor => flip_at(chain[pos - 1].handle, entry::OFF_NEXT),
                }
                let key = victim.as_bytes();
                let result = match op {
                    "get" => s.get(key).map(|v| {
                        assert_eq!(v, format!("value-of-{victim}").as_bytes());
                    }),
                    "set" => s.set(key, b"a new value of another length"),
                    "delete" => s.delete(key),
                    // Behind a healthy key of the same set, so the
                    // victim is not the batch's first hit in it.
                    _ => {
                        let healthy = keys
                            .iter()
                            .find(|k| {
                                let b = s.bucket_index(k.as_bytes());
                                b != bucket && set_buckets.contains(&b)
                            })
                            .expect("a key elsewhere in the set");
                        s.multi_get(&[healthy.as_bytes(), key]).map(|values| {
                            let expect = |k: &str| Some(format!("value-of-{k}").into_bytes());
                            assert_eq!(values, [expect(healthy), expect(victim)]);
                        })
                    }
                };
                let seen = match result {
                    Ok(()) => Seen::Served,
                    Err(Error::KeyNotFound) => Seen::Miss,
                    Err(Error::IntegrityViolation { bucket: b }) if b == bucket => Seen::AtBucket,
                    Err(Error::IntegrityViolation { bucket: b }) if b == set_buckets.start => {
                        Seen::AtSetStart
                    }
                    Err(other) => panic!("{flip:?} {op}: unexpected {other:?}"),
                };
                if seen != Seen::Served {
                    let value = format!("value-of-{victim}");
                    assert!(
                        !s.access.scratch.entry.windows(value.len()).any(|w| w == value.as_bytes()),
                        "{flip:?} {op}: the victim's plaintext is still staged"
                    );
                }
                row.push(seen);
                vclock::reset();
            }
            if !row.is_empty() {
                let [get, set, delete] = recorded_verdicts(mac_bucket, flip);
                assert_eq!(row, [get, set, delete, get], "{flip:?}, {mac_bucket}");
            }
        }
    }
}
