//! Property-based tests for ShieldStore's internal data structures: the
//! untrusted heap, MAC chains, the entry codec, and bucket-set mapping.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::classes::size_class;
use sgx_sim::enclave::EnclaveBuilder;
use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shieldstore::alloc::{UntrustedHeap, NULL_HANDLE};
use shieldstore::config::AllocMode;
use shieldstore::entry;
use shieldstore::integrity::{BucketSets, MacStore};
use shieldstore::mac_bucket::{self, Directory, Limits};
use shieldstore::table::{Link, TableCtx};
use shieldstore::testing::listed_handles;

fn heap() -> UntrustedHeap {
    UntrustedHeap::new(
        EnclaveBuilder::new("core-prop").build(),
        AllocMode::Pooled { granularity: 1 << 20 },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// Live heap allocations never alias: each keeps its own contents
    /// across arbitrary alloc/free interleavings.
    #[test]
    fn heap_no_aliasing(ops in pvec((any::<u8>(), 1usize..300), 1..80)) {
        let mut h = heap();
        let mut live: Vec<(u64, Vec<u8>)> = Vec::new();
        for (i, &(tag, len)) in ops.iter().enumerate() {
            if tag % 3 != 0 || live.is_empty() {
                let handle = h.alloc(len);
                prop_assert_ne!(handle, NULL_HANDLE);
                let fill = vec![tag ^ (i as u8); len];
                h.bytes_mut(handle, len).copy_from_slice(&fill);
                live.push((handle, fill));
            } else {
                let idx = (tag as usize) % live.len();
                let (handle, data) = live.swap_remove(idx);
                prop_assert_eq!(h.bytes(handle, data.len()), &data[..]);
                h.free(handle, data.len());
            }
            for (handle, data) in &live {
                prop_assert_eq!(h.bytes(*handle, data.len()), &data[..]);
            }
        }
    }

    /// Freshly allocated memory is always zeroed, even after recycling.
    #[test]
    fn heap_alloc_zeroed(len in 1usize..500, rounds in 1usize..8) {
        let mut h = heap();
        for _ in 0..rounds {
            let a = h.alloc(len);
            prop_assert!(h.bytes(a, len).iter().all(|&b| b == 0));
            h.bytes_mut(a, len).fill(0xff);
            h.free(a, len);
        }
    }

    /// The MAC directory mirrors a reference vector of `(MAC, entry
    /// handle)` slots under arbitrary insert-front / insert-back / set /
    /// remove sequences — long enough, at the paper's capacity of 30, to
    /// take a node through every size class and chain a second one; at 1
    /// and 2, every insert and remove cascades — and holds exactly the heap
    /// bytes its length implies: full nodes of the largest class and a last
    /// one of the class its slots need, whatever the history.
    #[test]
    fn mac_chain_mirrors_vec(
        capacity in (0usize..5).prop_map(|i| [1, 2, 3, 4, 30][i]),
        ops in pvec((0u8..6, any::<u8>(), any::<prop::sample::Index>()), 80..200),
    ) {
        let mut h = heap();
        let (mut head, mut node_bytes) = (NULL_HANDLE, 0usize);
        let mut reference: Vec<([u8; 16], u64)> = Vec::new();
        for (step, &(op, fill, ref idx)) in ops.iter().enumerate() {
            let slot = ([fill; 16], (step as u64) << 8 | fill as u64);
            let lim = Limits { mac_cap: capacity, max_macs: reference.len() + 1 };
            let mut dir =
                Directory { heap: &mut h, head: &mut head, node_bytes: &mut node_bytes, lim };
            match op {
                0..=3 => {
                    if op == 3 {
                        dir.insert_back(&slot.0, slot.1).unwrap();
                        reference.push(slot);
                    } else {
                        dir.insert_front(&slot.0, slot.1).unwrap();
                        reference.insert(0, slot);
                    }
                }
                4 if !reference.is_empty() => {
                    let at = idx.index(reference.len());
                    dir.set_at(at, &slot.0, slot.1).unwrap();
                    reference[at] = slot;
                }
                5 if !reference.is_empty() => {
                    let at = idx.index(reference.len());
                    dir.remove_at(at).unwrap();
                    reference.remove(at);
                }
                _ => continue,
            }
            let max_macs = reference.len();
            let lim = Limits { mac_cap: capacity, max_macs };
            let mut out = Vec::new();
            prop_assert_eq!(mac_bucket::try_gather(&h, head, &mut out, lim), Ok(max_macs));
            let got: Vec<[u8; 16]> = out.chunks(16).map(|c| c.try_into().unwrap()).collect();
            prop_assert_eq!(got, reference.iter().map(|slot| slot.0).collect::<Vec<_>>());
            prop_assert_eq!(
                listed_handles(&h, head),
                reference.iter().map(|slot| slot.1).collect::<Vec<_>>()
            );
            let node = |slots| {
                size_class(mac_bucket::node_len(mac_bucket::class_cap(slots, capacity)))
            };
            let last = match max_macs % capacity {
                0 => 0,
                slots => node(slots),
            };
            let held = max_macs / capacity * node(capacity) + last;
            prop_assert_eq!((h.live_bytes(), node_bytes), (held, held), "{} slots", max_macs);
        }
    }

    /// The chain walker on random chains. Honest — an inflated `count`
    /// included, it only raises the bound — it yields every entry once
    /// with its position and predecessor. With a wild pointer at any
    /// position, a cycle of any length back to any earlier entry, or a
    /// `count` deflated below what the chain holds, it ends in exactly one
    /// `Broken`, after at most `count + 1` entries.
    #[test]
    fn chain_walk_is_bounded_and_checked(
        n in 1usize..12,
        forge in 0u8..4,
        at in any::<prop::sample::Index>(),
        to in any::<prop::sample::Index>(),
        wild in 0usize..4,
        slack in 0usize..5,
    ) {
        let mut t = TableCtx::new(heap(), 1, MacStore::plain(1), entry::TagHome::Slot);
        let (enc, cmac) = (AesCtr::new(&[1u8; 16]), Cmac::new(&[2u8; 16]));
        let len = entry::HEADER_LEN + 2;
        let mut chain = Vec::new();
        for i in 0..n as u8 {
            let h = t.heap.alloc(len);
            let mut buf = vec![0u8; len];
            entry::encode_into(&mut buf, t.heads[0], 0, 0, 0, &[i; 16], &[i], &[i], &enc, &cmac);
            t.heap.bytes_mut(h, len).copy_from_slice(&buf);
            t.heads[0] = h;
            chain.insert(0, h);
        }
        t.count = n;
        // How many entries an unbounded honest reader would get through
        // before the forged pointer, if there is one.
        let readable = match forge {
            0 => {
                t.count = n + slack;
                n
            }
            1 => {
                let at = at.index(n);
                t.heap.write_u64_at(chain[at], entry::OFF_NEXT, t.heap.wild_handles()[wild]);
                at + 1
            }
            2 => {
                let at = at.index(n);
                t.heap.write_u64_at(chain[at], entry::OFF_NEXT, chain[to.index(at + 1)]);
                usize::MAX
            }
            _ if n >= 2 => {
                t.count = at.index(n - 1);
                n
            }
            _ => n,
        };
        let walk: Vec<_> = t.chain(0).collect();
        let entries: Vec<Link> = walk.iter().filter_map(|link| link.ok()).collect();
        let broken = walk.len() - entries.len();
        prop_assert_eq!(entries.len(), readable.min(t.count + 1));
        prop_assert_eq!(broken, (forge == 1 || readable > t.count + 1) as usize);
        prop_assert!(walk[..entries.len()].iter().all(|link| link.is_ok()), "Broken comes last");
        for (pos, link) in entries.iter().enumerate() {
            prop_assert_eq!(link.pos, pos);
            prop_assert_eq!(link.prev, entries.get(pos.wrapping_sub(1)).map_or(NULL_HANDLE, |p| p.handle));
        }
        if forge != 2 {
            let handles: Vec<_> = entries.iter().map(|link| link.handle).collect();
            prop_assert_eq!(&handles[..], &chain[..entries.len()]);
        }
        prop_assert_eq!(t.entries().count(), walk.len());
    }

    /// Entry encode/parse/decrypt/verify roundtrips for arbitrary keys,
    /// values, hints and IVs.
    #[test]
    fn entry_codec_roundtrip(
        key in pvec(any::<u8>(), 1..64),
        value in pvec(any::<u8>(), 0..256),
        hint in any::<u8>(),
        tenant in any::<u32>(),
        expires_at in any::<u64>(),
        iv in any::<[u8; 16]>(),
        next in any::<u64>(),
        enc_key in any::<[u8; 16]>(),
        mac_key in any::<[u8; 16]>(),
    ) {
        let enc = AesCtr::new(&enc_key);
        let mac = Cmac::new(&mac_key);
        let mut buf = vec![0u8; entry::HEADER_LEN + key.len() + value.len()];
        let tag =
            entry::encode_into(&mut buf, next, hint, tenant, expires_at, &iv, &key, &value, &enc, &mac);

        let header = entry::parse_header(&buf);
        prop_assert_eq!(header.next, next);
        prop_assert_eq!(header.hint, hint);
        prop_assert_eq!(header.tenant, tenant);
        prop_assert_eq!(header.expires_at, expires_at);
        prop_assert_eq!(header.sealed_len(), buf.len());
        let ct = &buf[entry::HEADER_LEN..];
        prop_assert!(entry::verify_mac(&mac, &header, ct, &tag));
        let (k, v) = entry::decrypt_entry(&enc, &header, ct);
        prop_assert_eq!(k.clone(), key.clone());
        prop_assert_eq!(v, value);
        prop_assert_eq!(entry::decrypt_key(&enc, &header, ct), key);
    }

    /// Bucket sets partition the bucket range: every bucket belongs to
    /// exactly one set, and the set ranges tile [0, buckets) in order.
    #[test]
    fn bucket_sets_partition(buckets in 1usize..5000, hashes in 1usize..5000) {
        let bs = BucketSets::new(buckets, hashes);
        let mut covered = 0usize;
        for set in 0..bs.num_sets() {
            let range = bs.buckets_of(set);
            prop_assert_eq!(range.start, covered);
            prop_assert!(range.end > range.start);
            for b in range.clone() {
                prop_assert_eq!(bs.set_of(b), set);
            }
            covered = range.end;
        }
        prop_assert_eq!(covered, buckets);
        prop_assert!(bs.num_sets() <= hashes.min(buckets).max(1));
    }
}
