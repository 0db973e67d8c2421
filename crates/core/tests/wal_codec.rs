//! Property-based tests for the write-ahead-log record codec: sealed
//! frames must round-trip exactly, chain across arbitrary batches, and
//! fail closed under *every* single-byte corruption, every truncation
//! offset, wrong sequence numbers, wrong chain predecessors, and wrong
//! keys. The log lives on untrusted storage, so the codec is the only
//! thing standing between the host and a fabricated history.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use shieldstore::wal::probe;
use shieldstore::{Error, WalCodec, WalOp};

fn codec(enc_seed: u8, mac_seed: u8) -> WalCodec {
    WalCodec::new(&[enc_seed; 16], &[mac_seed; 16])
}

/// Arbitrary operation batches: sets with arbitrary keys/values and
/// deletes with arbitrary keys, including empty keys and values.
fn op_strategy() -> impl Strategy<Value = WalOp> {
    prop_oneof![
        (any::<u32>(), pvec(any::<u8>(), 0..40), pvec(any::<u8>(), 0..120), any::<u64>()).prop_map(
            |(tenant, key, value, expires_at)| WalOp::Set { tenant, key, value, expires_at }
        ),
        (any::<u32>(), pvec(any::<u8>(), 0..40))
            .prop_map(|(tenant, key)| WalOp::Delete { tenant, key }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// Seal → open round-trips any batch exactly, and consecutive
    /// records chain: each opens only with its predecessor's MAC.
    #[test]
    fn roundtrip_and_chaining(
        snap in any::<u64>(),
        batches in pvec(pvec(op_strategy(), 0..6), 1..8),
        iv_fill in any::<u8>(),
    ) {
        let c = codec(0x11, 0x22);
        let mut prev = c.genesis(snap);
        for (i, ops) in batches.iter().enumerate() {
            let seq = i as u64 + 1;
            let iv = [iv_fill.wrapping_add(i as u8); 16];
            let (frame, mac) = c.seal_record(seq, &prev, ops, &iv);
            let (opened, opened_mac) = c.open_record(seq, &prev, &frame[4..]).unwrap();
            prop_assert_eq!(&opened, ops);
            prop_assert_eq!(opened_mac, mac);
            // The frame refuses to verify out of sequence or off-chain.
            prop_assert!(c.open_record(seq + 1, &prev, &frame[4..]).is_err());
            prop_assert!(c.open_record(seq, &c.genesis(snap ^ 1), &frame[4..]).is_err());
            prev = mac;
        }
    }

    /// Every single-byte corruption of a sealed record body — length
    /// bytes, sequence, IV, ciphertext, MAC — fails closed with
    /// `LogIntegrity`, never wrong ops and never a panic.
    #[test]
    fn every_single_byte_corruption_rejected(
        ops in pvec(op_strategy(), 0..5),
        xor in 1u8..255,
    ) {
        let c = codec(0x33, 0x44);
        let prev = c.genesis(7);
        let (frame, _) = c.seal_record(1, &prev, &ops, &[0xab; 16]);
        let body = &frame[4..];
        for pos in 0..body.len() {
            let mut bad = body.to_vec();
            bad[pos] ^= xor;
            match c.open_record(1, &prev, &bad) {
                Err(Error::LogIntegrity { seq: 1 }) => {}
                other => prop_assert!(
                    false,
                    "corruption at byte {} returned {:?}",
                    pos,
                    other.map(|(ops, _)| ops)
                ),
            }
        }
    }

    /// Every truncation of a record body is rejected: a prefix of a
    /// sealed record never verifies as a shorter record.
    #[test]
    fn every_truncation_rejected(ops in pvec(op_strategy(), 0..5)) {
        let c = codec(0x55, 0x66);
        let prev = c.genesis(3);
        let (frame, _) = c.seal_record(1, &prev, &ops, &[0x5c; 16]);
        let body = &frame[4..];
        for cut in 0..body.len() {
            prop_assert!(
                c.open_record(1, &prev, &body[..cut]).is_err(),
                "truncation to {} bytes verified",
                cut
            );
        }
    }

    /// A record sealed under one key pair never opens under another:
    /// a different MAC key fails verification, and a different
    /// encryption key (same MAC key) would decrypt to garbage, which
    /// the op decoder must reject rather than fabricate operations.
    #[test]
    fn wrong_keys_rejected(
        ops in pvec(op_strategy(), 1..5),
        enc in any::<u8>(),
        mac in any::<u8>(),
    ) {
        prop_assume!(enc != 0x77 || mac != 0x88);
        let c = codec(0x77, 0x88);
        let prev = c.genesis(0);
        let (frame, _) = c.seal_record(1, &prev, &ops, &[0x01; 16]);
        let other = codec(enc, mac);
        // `prev` was derived from our MAC key; give the impostor its own
        // genesis too, so only the record keys differ.
        for genesis in [prev, other.genesis(0)] {
            prop_assert!(other.open_record(1, &genesis, &frame[4..]).is_err());
        }
    }

    /// The genesis tag separates snapshot generations: the same ops
    /// sealed as record 1 of generation A never verify in generation B.
    #[test]
    fn generations_do_not_cross(ops in pvec(op_strategy(), 0..5), a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let c = codec(0x99, 0xaa);
        let (frame, _) = c.seal_record(1, &c.genesis(a), &ops, &[0x3d; 16]);
        prop_assert!(c.open_record(1, &c.genesis(b), &frame[4..]).is_err());
    }
}

// ---------------------------------------------------------------------
// The frame reader and the chain cursor
// ---------------------------------------------------------------------

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A sealed chain built from `seed` alone: the image, each frame's end
/// offset, and the chain MAC after each frame (index 0 = genesis).
fn sealed_chain(c: &WalCodec, generation: u64, seed: u64) -> (Vec<u8>, Vec<usize>, Vec<[u8; 16]>) {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let (mut image, mut ends, mut macs) = (Vec::new(), Vec::new(), vec![c.genesis(generation)]);
    for seq in 1..=(3 + seed) {
        let ops: Vec<WalOp> = (0..next() % 4)
            .map(|_| {
                let key = next().to_le_bytes()[..1 + (next() % 7) as usize].to_vec();
                if next() % 3 == 0 {
                    WalOp::Delete { tenant: next() as u32, key }
                } else {
                    let value = vec![next() as u8; (next() % 90) as usize];
                    WalOp::Set {
                        tenant: next() as u32,
                        key,
                        value,
                        expires_at: next() % 2 * next(),
                    }
                }
            })
            .collect();
        let iv = [next() as u8; 16];
        let (frame, mac) = c.seal_record(seq, macs.last().unwrap(), &ops, &iv);
        image.extend_from_slice(&frame);
        ends.push(image.len());
        macs.push(mac);
    }
    (image, ends, macs)
}

/// Bytes that sometimes are frames: runs of well-formed frames (a
/// plausible length prefix and that many bytes) between runs of noise.
fn framed_noise() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        pvec(any::<u8>(), 40..120).prop_map(|body| {
            let mut frame = (body.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&body);
            frame
        }),
        pvec(any::<u8>(), 0..12),
        // A length no record can have, or one that may run past the end.
        (0u32..40).prop_map(|len| len.to_le_bytes().to_vec()),
        (40u32..400).prop_map(|len| len.to_le_bytes().to_vec()),
    ];
    pvec(piece, 0..8).prop_map(|pieces| pieces.concat())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Over arbitrary bytes from an arbitrary offset the frame reader
    /// never panics; every frame it yields lies inside the slice with a
    /// length a record can have; frames are contiguous from the offset;
    /// and frames plus the torn remainder are the input again — no byte
    /// is skipped, none is served twice.
    #[test]
    fn frame_reader_partitions_any_bytes(data in framed_noise(), offset in 0usize..600) {
        let (frames, torn) = probe::frames(&data, offset);
        let mut at = offset;
        for (start, whole, body) in &frames {
            prop_assert_eq!(*start, at);
            prop_assert!((40..=1 << 30).contains(&body.len()));
            prop_assert_eq!(&whole[..4], &(body.len() as u32).to_le_bytes()[..]);
            prop_assert_eq!(&whole[4..], &body[..]);
            prop_assert_eq!(data.get(at..at + whole.len()), Some(&whole[..]));
            at += whole.len();
        }
        match torn {
            Some(torn_at) => {
                prop_assert_eq!(torn_at, at);
                prop_assert!(at != data.len(), "a clean end is not torn");
            }
            None => prop_assert_eq!(at, data.len(), "only a clean end ends without a verdict"),
        }
    }
}

/// A valid sealed chain cut at every byte: the reader and the cursor
/// stop where the frames say they must — and where the hand-written walk
/// they replaced stopped (the digests are of its `(seq, chain,
/// valid_end, torn)` at every cut, recorded before it was removed).
#[test]
fn a_chain_cut_at_every_byte_walks_to_the_recorded_positions() {
    const RECORDED: [(u64, &str); 3] = [
        (1, "70210c4719ef7383dff605728232d3cc850cac12a821126e860132e811ca03a9"),
        (2, "01821155a44a8a0abf3eb3f68d5bbc0f94a494476bb30470fb32aa78aa2a2886"),
        (3, "3bb0c0e58509462b257839609db4c4617473f0f90efaaf6bfb0b81326deb1094"),
    ];
    for (seed, recorded) in RECORDED {
        let c = codec(0x10 + seed as u8, 0x20 + seed as u8);
        let generation = seed * 7;
        let (image, ends, macs) = sealed_chain(&c, generation, seed);
        let mut digest = shield_crypto::sha256::Sha256::new();
        for cut in 0..=image.len() {
            let (seq, chain, valid_end, torn) = probe::walk(&c, generation, &image[..cut])
                .expect("nothing is pinned: a cut is a torn tail");
            let whole = ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(seq, whole as u64, "cut {cut}");
            assert_eq!(chain, macs[whole], "cut {cut}");
            assert_eq!(valid_end, if whole == 0 { 0 } else { ends[whole - 1] }, "cut {cut}");
            assert_eq!(torn, cut != valid_end, "cut {cut}");
            digest.update(&seq.to_le_bytes());
            digest.update(&chain);
            digest.update(&(valid_end as u64).to_le_bytes());
            digest.update(&[torn as u8]);
        }
        assert_eq!(hex(&digest.finalize()), recorded, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Formats on disk
// ---------------------------------------------------------------------

/// A seeded enclave, fixed operations, `Strict`, one rotation: the log
/// files and the pin (unsealed — the seal draws a fresh nonce) are the
/// bytes recorded before the log module was split, and the directory
/// recovers. A log an older build wrote opens under this one, and a
/// replica on either build verifies the other's stream.
#[test]
fn log_and_pin_bytes_are_the_recorded_ones() {
    use sgx_sim::counter::PersistentCounter;
    use sgx_sim::enclave::EnclaveBuilder;
    use sgx_sim::storage::FaultFs;
    use shieldstore::{Config, DurabilityPolicy, ShieldStore};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("ss-wal-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let enclave = || EnclaveBuilder::new("wal-golden").seed(77).epc_bytes(8 << 20).build();
    let config = || {
        Config::shield_opt()
            .buckets(64)
            .mac_hashes(16)
            .with_shards(2)
            .with_durability(DurabilityPolicy::Strict)
    };
    let ffs = Arc::new(FaultFs::new());
    let store = ShieldStore::new_with_storage(enclave(), config(), ffs.clone()).unwrap();
    store.attach_wal(dir.join("wal")).unwrap();
    store.set(b"alpha", b"first value").unwrap();
    store.set(b"beta", &[0xb7; 200]).unwrap();
    store.append(b"alpha", b", appended").unwrap();
    store.increment(b"counter", 41).unwrap();
    store.delete(b"beta").unwrap();
    // A snapshot whose writer fails rotates the log and retires
    // nothing: both generations stay on disk and in the pin.
    let counter = PersistentCounter::open(dir.join("snapctr")).unwrap();
    let job = store.snapshot_background(dir.join("missing").join("s.db"), &counter).unwrap();
    assert!(job.finish().is_err());
    store.set(b"gamma", b"after the rotation").unwrap();
    store.increment(b"counter", 1).unwrap();
    ffs.crash();
    drop(store);

    let digest = |bytes: &[u8]| hex(&shield_crypto::sha256::Sha256::digest(bytes));
    let wal = dir.join("wal");
    let pin = sgx_sim::seal::unseal(&enclave(), &std::fs::read(wal.join("wal.pin")).unwrap())
        .expect("the pin unseals under the same enclave identity");
    assert_eq!(
        digest(&std::fs::read(wal.join("wal-0.log")).unwrap()),
        "0293989e0ef1ad4310a747b5a4db533ade5de359b12e019ff7142f3d83159747"
    );
    assert_eq!(
        digest(&std::fs::read(wal.join("wal-1.log")).unwrap()),
        "265a0ca66ecd200c76b740cbe9782341c0c28a6436328de2012046ed5934e43e"
    );
    assert_eq!(digest(&pin), "564d08759dfa5050e4098540ddd798939ff50c6f6ed99f3f6f0a6f483dd351b2");

    let recovered = ShieldStore::recover(enclave(), config(), None, &counter, &wal).unwrap();
    assert_eq!(recovered.get(b"alpha").unwrap(), b"first value, appended");
    assert_eq!(recovered.get(b"counter").unwrap(), b"42");
    assert_eq!(recovered.get(b"gamma").unwrap(), b"after the rotation");
    assert!(recovered.get(b"beta").is_err());
    assert_eq!(recovered.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}
