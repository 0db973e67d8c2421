//! What a shard reports when untrusted memory is forged under it: hint
//! corruption, wild and cyclic pointers, and the one-bit tamper matrix.

use super::tests::{last_entry, run, shard_with};
use super::*;
use crate::alloc::{Handle, NULL_HANDLE};
use crate::config::{AllocMode, Config};
use crate::entry;
use crate::mac_bucket;
use crate::table::Link;
use crate::testing::{node_handle_at, NODE_CAP, NODE_MACS};
use crate::ttl;
use sgx_sim::vclock;

#[test]
fn hint_corruption_defeated_by_two_step_search() {
    let cfg = Config::shield_opt().buckets(1).mac_hashes(1);
    let mut s = shard_with(cfg);
    vclock::reset();
    run(&mut s, Op::set(b"target", b"payload")).unwrap();
    // Attacker flips the key hint in untrusted memory. The MAC covers
    // the hint, so verification would fail on the *found* entry — but
    // first the search must still find it via the two-step fallback.
    let handle = last_entry(&s);
    let main = s.main_table_mut().unwrap();
    main.heap.bytes_at_mut(handle, entry::OFF_HINT, 1)[0] ^= 0xff;
    // The hint is MAC-covered, so the get reports tampering rather
    // than silently missing the key (availability attack detected).
    let r = run(&mut s, Op::Get(b"target"));
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
    /// The entry handle the first MAC node lists for the chain head: only
    /// ever hinted, so whatever it holds, nothing may come of it.
    NodeHandle,
    /// The first MAC node's `cap` field.
    NodeCap,
}

/// What is written there: a wild handle, the handle of the very object
/// the pointer sits in, the chain's last entry (where the head belongs)
/// or, in a `cap` field, a number.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plant {
    Wild(usize),
    SelfCycle,
    OtherEntry,
    Cap(u32),
}

/// The `cap`s no honest node of the fixture holds (its 3 slots are
/// filled, 704 bytes before the end of its chunk): none, fewer than its
/// count, more than the largest node, one between two classes, and two
/// larger classes — one the chunk has room for, one that would run off it.
const FORGED_CAPS: [u32; 6] = [0, 2, 31, 5, 10, 30];

/// A one-bucket shard holding `a`, `b`, `c` — chain `c → b → a`, `c` long
/// expired when `expire_head` — with `plant` written at `site`. `None`
/// where the configuration has no such site.
fn forged_shard(cfg: Config, site: Site, plant: Plant, expire_head: bool) -> Option<Shard> {
    let mac_bucket = cfg.mac_bucket;
    // Chunks of 48 lines: the three 768-byte entries and the node leave
    // less than the largest node's length behind the node.
    let cfg = Config { alloc: AllocMode::Pooled { granularity: 3072 }, ..cfg };
    let mut s = shard_with(cfg.buckets(1).mac_hashes(1));
    for key in [b"a", b"b", b"c"] {
        let expires_at = (expire_head && key == b"c") as u64;
        s.execute(0, None, Op::Set { key, value: &[key[0]; 600], expires_at }).unwrap();
    }
    let main = s.main_table_mut().unwrap();
    let node = main.mac_heads[0];
    let (object, offset) = match site {
        Site::EntryNext => (main.heads[0], entry::OFF_NEXT),
        // No MAC nodes to corrupt without MAC bucketing.
        Site::MacNodeNext | Site::NodeHandle | Site::NodeCap if !mac_bucket => return None,
        Site::MacHead | Site::MacNodeNext => (node, 0),
        Site::NodeHandle => (node, node_handle_at(&main.heap, node, 0).unwrap()),
        Site::NodeCap => (node, NODE_CAP),
    };
    let value = match plant {
        Plant::Wild(i) => main.heap.wild_handles()[i],
        Plant::SelfCycle => object,
        Plant::OtherEntry => main.chain(0).last().unwrap().unwrap().handle,
        Plant::Cap(cap) => {
            assert!(main.heap.try_bytes_at(node, 0, 16 + 10 * 24).is_some(), "room for 10 slots");
            assert!(main.heap.try_bytes_at(node, 0, 16 + 30 * 24).is_none(), "and not for 30");
            main.heap.bytes_at_mut(node, NODE_CAP, 4).copy_from_slice(&cap.to_le_bytes());
            return Some(s);
        }
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
/// verification and a snapshot's freeze → write → unfreeze. A MAC node's
/// `cap` is such a pointer in all but name — it places the node's second
/// array — and fails closed the same way. The entry handles a node lists
/// are the opposite case: they are *only* hinted, so with anything at all
/// planted there every op and every maintenance pass answers as it does
/// on honest memory. Nothing panics, and nothing spins.
#[test]
fn wild_pointers_are_hinted_harmlessly_and_fail_closed() {
    within(std::time::Duration::from_secs(120), || {
        let pointers = (0..4).map(Plant::Wild).chain([Plant::SelfCycle]);
        let cases = [Site::EntryNext, Site::MacHead, Site::MacNodeNext, Site::NodeHandle]
            .into_iter()
            .flat_map(|site| pointers.clone().map(move |plant| (site, plant)))
            .chain([(Site::NodeHandle, Plant::OtherEntry)])
            .chain(FORGED_CAPS.map(|cap| (Site::NodeCap, Plant::Cap(cap))));
        for (mac_bucket, (site, plant)) in
            [true, false].into_iter().flat_map(|m| cases.clone().map(move |case| (m, case)))
        {
            let cfg = || Config { mac_bucket, ..Config::shield_opt() };
            let case = format!("{site:?} = {plant:?}, mac_bucket {mac_bucket}");
            vclock::reset();
            let Some(mut s) = forged_shard(cfg(), site, plant, false) else { continue };
            if site == Site::NodeHandle {
                everything_answers_as_on_honest_memory(s, cfg(), plant, &case);
                continue;
            }
            ops_fail_closed(&mut s, site, mac_bucket, &case);
            // `mac_heads` is dead weight without MAC bucketing.
            if (site, mac_bucket) != (Site::MacHead, false) {
                maintenance_fails_closed(cfg(), site, plant, &case);
            }
            vclock::reset();
        }
    });
}

/// Every op and maintenance pass of the other two helpers, on a shard
/// whose MAC node lists `plant` for the chain head: the answers of an
/// honest shard, to the byte.
fn everything_answers_as_on_honest_memory(mut s: Shard, cfg: Config, plant: Plant, case: &str) {
    let value = |k: u8| Ok(Some([k; 600].to_vec()));
    let get = |s: &mut Shard, key: &[u8]| run(s, Op::Get(key)).map(Reply::value);
    assert_eq!(get(&mut s, b"c"), value(b'c'), "{case}");
    assert_eq!(get(&mut s, b"a"), value(b'a'), "{case}");
    assert_eq!(get(&mut s, b"absent"), Ok(None), "{case}");
    assert_eq!(
        run(&mut s, Op::MultiGet(&[b"c".as_slice(), b"a", b"nope"])).map(Reply::values),
        Ok(vec![Some(vec![b'c'; 600]), Some(vec![b'a'; 600]), None]),
        "{case}"
    );
    // An update in place, one that reallocates, an insert, a delete.
    assert_eq!(run(&mut s, Op::set(b"b", &[7; 600])), Ok(Reply::Stored), "{case}");
    assert_eq!(run(&mut s, Op::set(b"b", &[8; 2000])), Ok(Reply::Stored), "{case}");
    assert_eq!(run(&mut s, Op::set(b"d", b"new")), Ok(Reply::Stored), "{case}");
    assert_eq!(run(&mut s, Op::Delete(b"a")), Ok(Reply::Deleted(true)), "{case}");
    let items: [(&[u8], &[u8]); 2] = [(b"e", b"v"), (b"c", b"w")];
    assert_eq!(run(&mut s, Op::MultiSet { items: &items, expires_at: 0 }), Ok(Reply::Stored));
    assert_eq!(get(&mut s, b"b"), Ok(Some(vec![8; 2000])), "{case}");
    assert_eq!(get(&mut s, b"c"), Ok(Some(b"w".to_vec())), "{case}");
    assert_eq!((s.len(), s.quarantine_state().2), (4, 0), "{case}");

    let mut s = forged_shard(
        cfg.clone().with_ordered_index().with_quarantine(),
        Site::NodeHandle,
        plant,
        true,
    )
    .unwrap();
    let reaped = s.sweep_expired(ttl::now_ns(), &TenantRegistry::new());
    assert_eq!(reaped, [(0, b"c".to_vec())], "{case}");
    assert_eq!((s.len(), s.quarantine_state().2, s.usage_by_tenant()[&0].1), (2, 0, 2), "{case}");
    assert_eq!((s.rebuild_index(), s.verify_all_sets()), (Ok(()), Ok(())), "{case}");

    let mut s = forged_shard(cfg, Site::NodeHandle, plant, false).unwrap();
    let frozen = s.freeze();
    run(&mut s, Op::set(b"d", b"during")).unwrap();
    assert!(crate::persist::write_table(&mut Vec::new(), &frozen).is_ok(), "{case}");
    drop(frozen);
    assert_eq!(s.unfreeze(), Ok(()), "{case}");
    assert_eq!(get(&mut s, b"d"), Ok(Some(b"during".to_vec())), "{case}");
    // Every write above went through the directory, which lists what it
    // chains again wherever it was written.
    assert_eq!(s.verify_all_sets(), Ok(()), "{case}");
}

fn ops_fail_closed(s: &mut Shard, site: Site, mac_bucket: bool, case: &str) {
    let violation = |r: Result<Reply>| matches!(r, Err(Error::IntegrityViolation { .. }));
    // The chain head is found before its `next` is ever followed, so only
    // a broken set hash can refuse it: the MAC side chain when there is
    // one, else the entry chain itself.
    let head = run(s, Op::Get(b"c"));
    match (site, mac_bucket) {
        (Site::EntryNext, true) | (Site::MacHead, false) => {
            assert_eq!(head, Ok(Reply::Value(Some(vec![b'c'; 600]))), "{case}")
        }
        _ => assert!(violation(head), "{case}"),
    }
    if (site, mac_bucket) == (Site::MacHead, false) {
        assert_eq!(run(s, Op::Get(b"a")), Ok(Reply::Value(Some(vec![b'a'; 600]))), "{case}");
        return;
    }
    // Everything that has to walk past the planted pointer fails closed,
    // reads and writes, single and batched — and nothing has panicked on
    // the way.
    assert!(violation(run(s, Op::Get(b"b"))), "{case}");
    assert!(violation(run(s, Op::Get(b"absent"))), "{case}");
    assert!(violation(run(s, Op::set(b"d", b"new"))), "{case}");
    assert!(violation(run(s, Op::Delete(b"a"))), "{case}");
    assert!(violation(run(s, Op::MultiGet(&[b"c".as_slice(), b"a".as_slice()]))), "{case}");
    let items = [(b"e".as_slice(), b"v".as_slice())];
    assert!(violation(run(s, Op::MultiSet { items: &items, expires_at: 0 })), "{case}");
}

fn maintenance_fails_closed(cfg: Config, site: Site, plant: Plant, case: &str) {
    let violation = |r: Result<()>| matches!(r, Err(Error::IntegrityViolation { .. }));
    // The entry chain is what the whole-table walks follow; the MAC side
    // chain is only met where a set is verified, or where tags are read —
    // and a snapshot records every entry's tag.
    let chain_forged = site == Site::EntryNext;
    let tags_forged = chain_forged || cfg.mac_bucket;

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

    // A snapshot: the writer refuses a chain or tags it cannot read, and
    // the merge refuses to write into the forged bucket — leaving the shard
    // frozen and serving, as it was.
    let mut s = forged_shard(cfg, site, plant, false).unwrap();
    let frozen = s.freeze();
    run(&mut s, Op::set(b"d", b"during")).unwrap();
    assert_eq!(violation(crate::persist::write_table(&mut Vec::new(), &frozen)), tags_forged);
    drop(frozen);
    assert!(violation(s.unfreeze()), "{case}");
    assert!(s.is_snapshotting(), "{case}");
    assert_eq!(run(&mut s, Op::Get(b"d")), Ok(Reply::Value(Some(b"during".to_vec()))), "{case}");
}

/// A one-bucket shard over 1,504-byte chunks holding `a` and `b`, each an
/// entry of the 768-byte class: the first chunk is `a`, the bucket's
/// 64-byte MAC node 736 bytes before its end — so the largest node's 736
/// bytes are readable there and a 768-byte block's are not — and 672 bytes
/// never handed out; `b` heads the chain from a second chunk.
fn shard_with_a_node_near_the_end_of_its_chunk() -> Shard {
    let cfg = Config { alloc: AllocMode::Pooled { granularity: 1504 }, ..Config::shield_opt() };
    let mut s = shard_with(cfg.buckets(1).mac_hashes(1));
    for key in [b"a", b"b"] {
        run(&mut s, Op::set(key, &[key[0]; 600])).unwrap();
    }
    let main = s.main_table().unwrap();
    let node = main.mac_heads[0];
    assert_eq!(main.heap.bytes_at(node, NODE_CAP, 4), [2, 0, 0, 0], "the smallest class");
    assert!(main.heap.try_bytes_at(node, 0, mac_bucket::node_len(30)).is_some());
    assert!(main.heap.try_bytes_at(node, 0, 768).is_none());
    s
}

/// What `free` is given comes out of untrusted memory twice over: the size
/// from a node's or an entry's fields, the place from whatever pointed at
/// it. Neither may put on a free list a block the next `alloc` of its
/// class would zero past the end of a chunk. A node's `cap` raised to a
/// class with room for its count — the MACs have not moved, so the set
/// hash still matches — never sizes a `free`: the op fails closed at the
/// set. An entry moved to where its bytes fit and its class does not is
/// served, and deleted, and the block it leaves is dropped rather than
/// recycled. Either way the next write of its class goes through.
#[test]
fn forged_sizes_and_places_never_reach_the_free_lists() {
    vclock::reset();
    let violation = |r: Result<Reply>| matches!(r, Err(Error::IntegrityViolation { bucket: 0 }));
    let mut s = shard_with_a_node_near_the_end_of_its_chunk();
    let main = s.main_table_mut().unwrap();
    let node = main.mac_heads[0];
    main.heap.bytes_at_mut(node, NODE_CAP, 4).copy_from_slice(&30u32.to_le_bytes());
    assert!(violation(run(&mut s, Op::Delete(b"b"))));
    assert!(violation(run(&mut s, Op::Delete(b"a"))));
    assert!(violation(run(&mut s, Op::set(b"c", &[b'c'; 600]))));
    // Put right, the bucket is what it was: nothing was freed or moved.
    let main = s.main_table_mut().unwrap();
    main.heap.bytes_at_mut(node, NODE_CAP, 4).copy_from_slice(&2u32.to_le_bytes());
    assert_eq!(run(&mut s, Op::Get(b"b")), Ok(Reply::Value(Some(vec![b'b'; 600]))));
    assert_eq!(s.verify_all_sets(), Ok(()));

    // `b`, the chain's head, moved into the first chunk's unused end, on
    // a line as its class is: its 662 bytes fit 672 bytes before the end,
    // its 768-byte class does not.
    let main = s.main_table_mut().unwrap();
    let (a, b) = (main.chain(0).last().unwrap().unwrap().handle, main.heads[0]);
    let moved = a + (1504 - 672);
    let bytes = main.heap.bytes(b, 662).to_vec();
    main.heap.bytes_mut(moved, 662).copy_from_slice(&bytes);
    main.heads[0] = moved;
    assert_eq!(run(&mut s, Op::Get(b"b")), Ok(Reply::Value(Some(vec![b'b'; 600]))));
    assert_eq!(run(&mut s, Op::Delete(b"b")), Ok(Reply::Deleted(true)));
    for key in [b"c", b"d", b"e"] {
        assert_eq!(run(&mut s, Op::set(key, &[key[0]; 600])), Ok(Reply::Stored));
    }
    let main = s.main_table().unwrap();
    assert!(main.chain(0).all(|link| link.unwrap().handle != moved), "recycled where it never was");
    for key in [b"a", b"c", b"d", b"e"] {
        assert_eq!(run(&mut s, Op::Get(key)), Ok(Reply::Value(Some(vec![key[0]; 600]))));
    }
    assert_eq!(s.verify_all_sets(), Ok(()));
    vclock::reset();
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
    /// The handle the victim's MAC node lists for it, overwritten with
    /// each wild handle, another bucket's entry, and the node's own.
    NodeHandle(usize),
    /// The `cap` of the victim's MAC node, overwritten with 0, one less
    /// than its count, one more than the largest node, one more than its
    /// class holds, and the next class up.
    NodeCap(usize),
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

const FLIPS: [Flip; 26] = [
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
    Flip::NodeHandle(0),
    Flip::NodeHandle(1),
    Flip::NodeHandle(2),
    Flip::NodeHandle(3),
    Flip::NodeHandle(4),
    Flip::NodeHandle(5),
    Flip::NodeCap(0),
    Flip::NodeCap(1),
    Flip::NodeCap(2),
    Flip::NodeCap(3),
    Flip::NodeCap(4),
];

/// What get, set and delete of the victim report (a `multi_get` reports
/// what the get does). A set or delete proves the entry it replaces
/// before touching it, so a flipped value byte, length or deadline is
/// refused by all three alike. Without MAC bucketing the set hash is derived
/// from the chain itself, so a stored tag or a `next` is the set's to
/// catch, and so are the lengths, which place the tag after the
/// ciphertext. The last two rows came with the fields they forge: a
/// listed handle is only hinted, so nothing sees it; a `cap` places the
/// node's arrays and sizes what is freed of it, so the set's gather
/// refuses any but the one its count makes it.
fn recorded_verdicts(mac_bucket: bool, flip: Flip) -> [Seen; 3] {
    use Seen::{AtBucket, AtSetStart, Served};
    match flip {
        Flip::NodeHandle(_) => [Served; 3],
        Flip::NodeCap(_) => [AtSetStart; 3],
        Flip::MacNode
        | Flip::NeighbourMac
        | Flip::NeighbourMacAndValue
        | Flip::NeighbourMacAndKey => [AtSetStart; 3],
        Flip::StoredTag | Flip::Next | Flip::NextOfPredecessor if !mac_bucket => [AtSetStart; 3],
        Flip::KeyLen | Flip::ValLen if !mac_bucket => [AtSetStart; 3],
        Flip::Next => [Served; 3],
        _ => [AtBucket; 3],
    }
}

/// One bit flipped in each authenticated or structural field, then a
/// get, a set, a delete and a batched get of the victim key, each on a
/// fresh shard.
/// Each must come back as recorded: the same `Error`, variant and bucket.
/// With MAC bucketing the stored tag is the node's slot, the `MacNode`
/// row. No failed op leaves plaintext staged in the scratch.
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
                    run(&mut s, Op::set(key.as_bytes(), format!("value-of-{key}").as_bytes()))
                        .unwrap();
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
                let other = set_buckets
                    .clone()
                    .find(|&b| b != bucket && main.heads[b] != NULL_HANDLE)
                    .expect("a second occupied bucket in the set");
                let other_tag_at = main.try_header(main.heads[other]).unwrap().sealed_len();
                let mut flip_at = |handle: Handle, offset: usize| {
                    main.heap.bytes_at_mut(handle, offset, 1)[0] ^= 1;
                };
                if matches!(
                    flip,
                    Flip::NeighbourMac | Flip::NeighbourMacAndValue | Flip::NeighbourMacAndKey
                ) {
                    if mac_bucket {
                        flip_at(main.mac_heads[other], NODE_MACS)
                    } else {
                        flip_at(main.heads[other], other_tag_at)
                    }
                }
                match flip {
                    Flip::MacNode | Flip::NodeHandle(_) | Flip::NodeCap(_) if !mac_bucket => {
                        continue
                    }
                    // With MAC bucketing the stored tag is the node's slot.
                    Flip::StoredTag if mac_bucket => continue,
                    Flip::NodeHandle(plant) => {
                        let node = main.mac_heads[bucket];
                        let other = set_buckets.clone().find(|&b| b != bucket).unwrap();
                        let planted = match plant {
                            0..=3 => main.heap.wild_handles()[plant],
                            4 => main.heads[other],
                            _ => node,
                        };
                        let at = node_handle_at(&main.heap, node, pos).unwrap();
                        main.heap.write_u64_at(node, at, planted);
                    }
                    Flip::NodeCap(plant) => {
                        let node = main.mac_heads[bucket];
                        let cap = main.heap.bytes_at_mut(node, NODE_CAP, 4);
                        let honest = u32::from_le_bytes((&*cap).try_into().unwrap());
                        let next_class = mac_bucket::class_cap(honest as usize + 1, 30) as u32;
                        let planted = [0, pos as u32, 31, honest + 1, next_class][plant];
                        cap.copy_from_slice(&planted.to_le_bytes());
                    }
                    Flip::MacNode => flip_at(main.mac_heads[bucket], NODE_MACS + 16 * pos),
                    Flip::NeighbourMac => {}
                    Flip::CiphertextKey | Flip::NeighbourMacAndKey => {
                        flip_at(tail, entry::HEADER_LEN)
                    }
                    Flip::CiphertextValue | Flip::NeighbourMacAndValue => {
                        flip_at(tail, header.sealed_len() - 1)
                    }
                    Flip::Hint => flip_at(tail, entry::OFF_HINT),
                    Flip::KeyLen => flip_at(tail, entry::OFF_KEY_LEN),
                    Flip::ValLen => flip_at(tail, entry::OFF_VAL_LEN),
                    Flip::Tenant => flip_at(tail, entry::OFF_TENANT),
                    Flip::ExpiresAt => flip_at(tail, entry::OFF_EXPIRY),
                    Flip::Iv => flip_at(tail, entry::OFF_IV + 15),
                    Flip::StoredTag => flip_at(tail, header.sealed_len()),
                    Flip::Next => flip_at(tail, entry::OFF_NEXT),
                    Flip::NextOfPredecessor => flip_at(chain[pos - 1].handle, entry::OFF_NEXT),
                }
                let key = victim.as_bytes();
                // The batched get asks behind a healthy key of the same
                // set, so the victim is not the batch's first hit in it.
                let healthy = keys
                    .iter()
                    .find(|k| {
                        let b = s.bucket_index(k.as_bytes());
                        b != bucket && set_buckets.contains(&b)
                    })
                    .expect("a key elsewhere in the set");
                let value = |k: &str| Some(format!("value-of-{k}").into_bytes());
                let result = match op {
                    "get" => run(&mut s, Op::Get(key)),
                    "set" => run(&mut s, Op::set(key, b"a new value of another length")),
                    "delete" => run(&mut s, Op::Delete(key)),
                    _ => run(&mut s, Op::MultiGet(&[healthy.as_bytes(), key])),
                };
                let seen = match result {
                    Ok(Reply::Value(None) | Reply::Deleted(false)) => Seen::Miss,
                    Ok(reply) => {
                        match reply {
                            Reply::Value(found) => assert_eq!(found, value(victim)),
                            Reply::Values(found) => {
                                assert_eq!(found, [value(healthy), value(victim)])
                            }
                            _ => {}
                        }
                        Seen::Served
                    }
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

/// A one-bucket shard holding `kx` and then `ky` (chain `ky → kx`), `kx`
/// long expired when `expire_kx`, with `ky`'s entry rewritten to claim
/// `kx`: `kx`'s hint byte copied into its header and its encrypted key
/// XORed with `ky ⊕ kx` — AES-CTR is malleable, so the key now decrypts
/// to `kx`. Its tag is left as it was.
fn malleated_shard(cfg: Config, expire_kx: bool) -> Shard {
    let mut s = shard_with(cfg.buckets(1).mac_hashes(1));
    let expires_at = expire_kx as u64;
    s.execute(0, None, Op::Set { key: b"kx", value: b"vx1", expires_at }).unwrap();
    run(&mut s, Op::set(b"ky", b"vy1")).unwrap();
    let main = s.main_table_mut().unwrap();
    let (ky, kx) = (main.heads[0], main.try_header(main.heads[0]).unwrap().next);
    let hint = main.try_header(kx).unwrap().hint;
    main.heap.bytes_at_mut(ky, entry::OFF_HINT, 1)[0] = hint;
    let key = main.heap.bytes_at_mut(ky, entry::HEADER_LEN, 2);
    for (byte, (x, y)) in key.iter_mut().zip(b"kx".iter().zip(b"ky")) {
        *byte ^= x ^ y;
    }
    s
}

/// The two store designs the paper compares, with and without MAC
/// bucketing and the key hint.
fn both_designs() -> [(&'static str, Config); 2] {
    [("shield_opt", Config::shield_opt()), ("shield_base", Config::shield_base())]
}

/// A write lands on the entry its search decrypts to the target key, so
/// it must prove that entry first: `set(kx)` must not overwrite `ky`'s
/// entry — an acknowledged write of `ky` silently lost, and the next
/// `get(ky)` a clean miss.
#[test]
fn a_write_refuses_an_entry_whose_key_was_rewritten_into_its_own() {
    for (name, cfg) in both_designs() {
        vclock::reset();
        let mut s = malleated_shard(cfg, false);
        let r = run(&mut s, Op::set(b"kx", b"vx2"));
        assert!(matches!(r, Err(Error::IntegrityViolation { bucket: 0 })), "{name}: {r:?}");
        assert_ne!(run(&mut s, Op::Get(b"ky")), Ok(Reply::Value(None)), "{name}: ky lost");
        vclock::reset();
    }
}

/// Likewise a delete: `delete(kx)` must not remove `ky`'s entry and
/// report `kx` gone — leaving `kx` to read back and `ky` a clean miss.
/// Refused, it leaves both as they were: each read fails closed.
#[test]
fn a_delete_refuses_an_entry_whose_key_was_rewritten_into_its_own() {
    for (name, cfg) in both_designs() {
        vclock::reset();
        let mut s = malleated_shard(cfg, false);
        let r = run(&mut s, Op::Delete(b"kx"));
        assert!(matches!(r, Err(Error::IntegrityViolation { bucket: 0 })), "{name}: {r:?}");
        for key in [b"kx", b"ky"] {
            let r = run(&mut s, Op::Get(key));
            assert!(matches!(r, Err(Error::IntegrityViolation { bucket: 0 })), "{name}: {r:?}");
        }
        vclock::reset();
    }
}

/// The sweep reaps through the same verified delete: with `kx` expired
/// and `ky`'s entry claiming `kx`, the reap must not take `ky`'s entry in
/// its place. Nothing is reaped, and the violation is observed.
#[test]
fn the_sweep_refuses_an_entry_whose_key_was_rewritten_into_an_expired_one() {
    for (name, cfg) in both_designs() {
        vclock::reset();
        let mut s = malleated_shard(cfg.with_quarantine(), true);
        let reaped = s.sweep_expired(ttl::now_ns(), &TenantRegistry::new());
        assert!(reaped.is_empty(), "{name}: reaped {reaped:?}");
        assert_eq!((s.len(), s.quarantine_state().2), (2, 1), "{name}");
        vclock::reset();
    }
}

/// Every write opens a window: after it verified its set and wrote, before
/// it stores the set's new hash. A host that replays a captured stale
/// version of another key's entry in that window — another host thread, or
/// an interrupt that stops the enclave there — must not have it endorsed:
/// the write re-stores the hash from the copy it verified and patched, so
/// the next read of the rolled-back key fails closed instead of serving the
/// old value as verified. One MAC hash over four buckets, so every key
/// shares the victim's set; each kind of write opens the window once.
#[test]
fn a_replay_inside_a_writes_window_is_not_endorsed() {
    for (name, cfg) in both_designs() {
        for window in ["insert", "update", "delete", "batch"] {
            vclock::reset();
            let mut s = shard_with(cfg.clone().buckets(4).mac_hashes(1));
            run(&mut s, Op::set(b"victim", b"old")).unwrap();
            let [stale] = s.stale_entry_copies().try_into().unwrap();
            run(&mut s, Op::set(b"victim", b"new")).unwrap();
            if matches!(window, "update" | "delete") {
                run(&mut s, Op::set(b"other", b"o1")).unwrap();
            }
            verify::tests::attack_next_write(move |table| {
                assert!(crate::testing::replay_into(table, &stale), "the update was in place");
            });
            let items: &[(&[u8], &[u8])] = &[(b"other", b"o2"), (b"third", b"t")];
            let acked = match window {
                "insert" | "update" => run(&mut s, Op::set(b"other", b"o2")),
                "delete" => run(&mut s, Op::Delete(b"other")),
                _ => run(&mut s, Op::MultiSet { items, expires_at: 0 }),
            };
            assert!(acked.is_ok(), "{name}, {window}: the write itself is refused: {acked:?}");
            let r = run(&mut s, Op::Get(b"victim"));
            assert!(
                matches!(r, Err(Error::IntegrityViolation { .. })),
                "{name}, {window}: the replayed entry was endorsed: {r:?}"
            );
            vclock::reset();
        }
    }
}
