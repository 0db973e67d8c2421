//! Property-based tests for ShieldStore's internal data structures: the
//! untrusted heap, MAC chains, the entry codec, and bucket-set mapping.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::enclave::EnclaveBuilder;
use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shieldstore::alloc::{UntrustedHeap, NULL_HANDLE};
use shieldstore::config::AllocMode;
use shieldstore::entry;
use shieldstore::integrity::{BucketSets, MacStore};
use shieldstore::mac_bucket;
use shieldstore::table::{Link, TableCtx};

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

    /// The MAC chain mirrors a reference vector under arbitrary
    /// insert-front / insert-back / set / remove sequences, for any
    /// node capacity.
    #[test]
    fn mac_chain_mirrors_vec(
        capacity in 1usize..8,
        ops in pvec((0u8..4, any::<u8>(), any::<prop::sample::Index>()), 1..120),
    ) {
        let mut h = heap();
        let mut head = NULL_HANDLE;
        let mut reference: Vec<[u8; 16]> = Vec::new();
        for &(op, fill, ref idx) in &ops {
            let mac = [fill; 16];
            match op {
                0 => {
                    mac_bucket::insert_front(&mut h, &mut head, &mac, capacity);
                    reference.insert(0, mac);
                }
                1 => {
                    mac_bucket::insert_back(&mut h, &mut head, &mac, capacity);
                    reference.push(mac);
                }
                2 if !reference.is_empty() => {
                    let at = idx.index(reference.len());
                    mac_bucket::set_at(&mut h, head, at, &mac);
                    reference[at] = mac;
                }
                3 if !reference.is_empty() => {
                    let at = idx.index(reference.len());
                    mac_bucket::remove_at(&mut h, &mut head, at, capacity);
                    reference.remove(at);
                }
                _ => continue,
            }
            let mut out = Vec::new();
            let max_macs = reference.len();
            prop_assert_eq!(mac_bucket::try_gather(&h, head, &mut out, max_macs), Some(max_macs));
            let got: Vec<[u8; 16]> = out.chunks(16).map(|c| c.try_into().unwrap()).collect();
            prop_assert_eq!(&got, &reference);
            for (i, want) in reference.iter().enumerate() {
                prop_assert_eq!(mac_bucket::try_get_at(&h, head, i, max_macs), Some(*want));
            }
            prop_assert_eq!(mac_bucket::try_get_at(&h, head, max_macs, max_macs), None);
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
        let mut t = TableCtx::new(heap(), 1, MacStore::plain(1));
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
        entry::encode_into(&mut buf, next, hint, tenant, expires_at, &iv, &key, &value, &enc, &mac);

        let header = entry::parse_header(&buf);
        prop_assert_eq!(header.next, next);
        prop_assert_eq!(header.hint, hint);
        prop_assert_eq!(header.tenant, tenant);
        prop_assert_eq!(header.expires_at, expires_at);
        prop_assert_eq!(header.entry_len(), buf.len());
        let ct = &buf[entry::HEADER_LEN..];
        prop_assert!(entry::verify_mac(&mac, &header, ct));
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
