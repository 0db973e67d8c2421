//! Backend equivalence: the table-based software AES and the AES-NI
//! hardware path must produce byte-identical output for every input.
//!
//! The hard correctness bar of the runtime-dispatch design is that
//! backend choice is *unobservable* except through speed: ciphertexts,
//! keystreams, and tags must match bit-for-bit, or sealed data written
//! on one machine would fail verification on another. These tests cover
//! every message length 0..=257 deterministically and random keys/IVs
//! via proptest; on machines without AES-NI they degenerate to
//! exercising the software path alone (CI runs the forced-soft matrix
//! leg for the same reason).

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use shield_crypto::aes::Aes128;
use shield_crypto::backend::{
    aesni_available, sequential_lockstep, Aes128Backend, AesBackend, BackendKind, CtrLane, MacLane,
    MacPart,
};
use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shield_crypto::fused;

/// A small deterministic byte generator (splitmix-style) so the
/// exhaustive-length sweep uses different keys/IVs at every length.
struct Gen(u64);

impl Gen {
    fn byte(&mut self) -> u8 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) as u8
    }

    fn block(&mut self) -> [u8; 16] {
        core::array::from_fn(|_| self.byte())
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.byte()).collect()
    }
}

/// Every message length 0..=257, fresh random key/IV per length:
/// CTR keystreams, CMAC tags, and fused opens must agree between the
/// two backends.
#[test]
fn all_lengths_0_to_257_byte_identical() {
    if !aesni_available() {
        return;
    }
    let mut gen = Gen(0x00d1_ce0f_da7a);
    for len in 0..=257usize {
        let key = gen.block();
        let mac_key = gen.block();
        let mut iv = gen.block();
        // Exercise counter carries at some lengths.
        if len % 3 == 0 {
            iv[15] = 0xff;
            iv[14] = 0xff;
        }
        let msg = gen.bytes(len);

        let soft_ctr = AesCtr::with_backend(BackendKind::Soft, &key);
        let ni_ctr = AesCtr::with_backend(BackendKind::AesNi, &key);
        let mut a = msg.clone();
        let mut b = msg.clone();
        soft_ctr.apply_keystream(&iv, &mut a);
        ni_ctr.apply_keystream(&iv, &mut b);
        assert_eq!(a, b, "CTR mismatch at len {len}");

        let soft_mac = Cmac::with_backend(BackendKind::Soft, &mac_key);
        let ni_mac = Cmac::with_backend(BackendKind::AesNi, &mac_key);
        assert_eq!(soft_mac.compute(&msg), ni_mac.compute(&msg), "CMAC mismatch at len {len}");

        // Fused open on each backend must invert the other's seal.
        let tag = soft_mac.compute_parts(&[&a, &iv]);
        let mut out = Vec::new();
        assert!(
            fused::open_verify(&ni_ctr, &ni_mac, &iv, &[], &a, &[&iv], &tag, &mut out),
            "NI fused open rejected soft seal at len {len}"
        );
        assert_eq!(out, msg, "fused plaintext mismatch at len {len}");
    }
}

/// Raw block encryption equivalence across many random keys.
#[test]
fn block_ops_byte_identical() {
    if !aesni_available() {
        return;
    }
    let mut gen = Gen(0xb10c);
    for _ in 0..512 {
        let key = gen.block();
        let plain = gen.block();
        let soft = AesBackend::with_kind(BackendKind::Soft, &key);
        let ni = AesBackend::with_kind(BackendKind::AesNi, &key);
        let ct_soft = soft.encrypt_to(&plain);
        let ct_ni = ni.encrypt_to(&plain);
        assert_eq!(ct_soft, ct_ni);
    }
}

/// The widened entry points must agree across backends too — they are
/// what the hot paths actually call.
#[test]
fn wide_entry_points_byte_identical() {
    if !aesni_available() {
        return;
    }
    let mut gen = Gen(0x81de);
    for _ in 0..64 {
        let key = gen.block();
        let soft = AesBackend::with_kind(BackendKind::Soft, &key);
        let ni = AesBackend::with_kind(BackendKind::AesNi, &key);

        let counter = u128::from_be_bytes(gen.block()) | (u128::MAX << 3);
        let mut da = gen.bytes(16 * 19 + 5);
        let mut db = da.clone();
        soft.ctr_xor(counter, &mut da);
        ni.ctr_xor(counter, &mut db);
        assert_eq!(da, db, "ctr_xor");

        let mut sa = gen.block();
        let mut sb = sa;
        let stream = gen.bytes(16 * 9);
        soft.cmac_absorb(&mut sa, &stream);
        ni.cmac_absorb(&mut sb, &stream);
        assert_eq!(sa, sb, "cmac_absorb");
    }
}

/// A lockstep implementation: the kernel's dispatcher or the definition.
type Lockstep = fn(
    Option<MacLane<'_, AesBackend>>,
    Option<MacLane<'_, AesBackend>>,
    Option<CtrLane<'_, AesBackend>>,
);

/// One lockstep call's inputs: block counts of the two MAC lanes' own
/// parts, whether lane `b` follows the stream (a seal) or reads a slice
/// (an open), and the stream's block count.
struct Lanes {
    keys: [[u8; 16]; 3],
    states: [[u8; 16]; 2],
    counter: u128,
    a: [Vec<u8>; 3],
    b: [Vec<u8>; 2],
    b_follows: bool,
    data: Vec<u8>,
}

impl Lanes {
    fn random(gen: &mut Gen, (na, nb, nc): (usize, usize, usize), b_follows: bool) -> Lanes {
        // Split each MAC lane's blocks raggedly over its parts.
        let a0 = na / 3;
        let b0 = nb.min(2);
        Lanes {
            keys: [gen.block(), gen.block(), gen.block()],
            states: [gen.block(), gen.block()],
            // Start a few blocks short of a carry out of the low half.
            counter: u128::from_be_bytes(gen.block()) | (u128::from(u64::MAX) << 3),
            a: [gen.bytes(16 * a0), gen.bytes(0), gen.bytes(16 * (na - a0))],
            b: [gen.bytes(16 * b0), gen.bytes(16 * (nb - b0))],
            b_follows,
            data: gen.bytes(16 * nc),
        }
    }

    /// Runs the lanes through `run` on `kind`; returns both final states
    /// and the stream's output.
    fn run(&self, kind: BackendKind, run: Lockstep) -> ([[u8; 16]; 2], Vec<u8>) {
        let aes = self.keys.map(|key| AesBackend::with_kind(kind, &key));
        let [mut state_a, mut state_b] = self.states;
        let mut data = self.data.clone();
        let middle = if self.b_follows {
            MacPart::CtrOutput
        } else {
            // An open: the MAC reads the stream's input from elsewhere.
            MacPart::Blocks(&self.data)
        };
        let a = MacLane {
            aes: &aes[0],
            state: &mut state_a,
            parts: self.a.each_ref().map(|part| MacPart::Blocks(part)),
        };
        let b = MacLane {
            aes: &aes[1],
            state: &mut state_b,
            parts: [MacPart::Blocks(&self.b[0]), middle, MacPart::Blocks(&self.b[1])],
        };
        let c = CtrLane { aes: &aes[2], counter: self.counter, data: &mut data };
        // A lane with nothing to do is also tried absent.
        let a = (!self.a.iter().all(Vec::is_empty)).then_some(a);
        let c = (!self.data.is_empty()).then_some(c);
        run(a, Some(b), c);
        ([state_a, state_b], data)
    }
}

/// The lockstep kernel against its sequential definition for every
/// `(a, b, c)` block count up to 40 — opening (lane `b` reads the input)
/// and sealing (lane `b` follows the stream's output), lanes present and
/// absent. On AES-NI the definition runs over the hardware primitives
/// (each equal to the table one, above) and every seventh case also over
/// the table cipher, which is what the soft backend's lockstep is.
#[test]
fn lockstep_matches_sequential_definition_for_all_lane_lengths() {
    let kind = if aesni_available() { BackendKind::AesNi } else { BackendKind::Soft };
    let mut gen = Gen(0x10c4_57e9);
    for (na, nb, nc) in
        (0..=40).flat_map(|a| (0..=40).flat_map(move |b| (0..=40).map(move |c| (a, b, c))))
    {
        for b_follows in [false, true] {
            let lanes = Lanes::random(&mut gen, (na, nb, nc), b_follows);
            let case = format!("({na}, {nb}, {nc}) follows {b_follows}");
            let expect = lanes.run(kind, sequential_lockstep);
            assert_eq!(lanes.run(kind, AesBackend::lockstep), expect, "{case} on {}", kind.name());
            if (na + nb + nc) % 7 == 0 {
                assert_eq!(lanes.run(BackendKind::Soft, AesBackend::lockstep), expect, "{case}");
            }
        }
    }
}

/// The fused open and seal against the separate primitives, for every
/// `(beside, stream)` block count up to 40 with ragged ciphertext
/// lengths, on both backends.
#[test]
fn fused_passes_match_separate_primitives_for_all_lengths() {
    let mut kinds = vec![BackendKind::Soft];
    if aesni_available() {
        kinds.push(BackendKind::AesNi);
    }
    let mut gen = Gen(0xf05e_d0be);
    for kind in kinds {
        for macs in 0..=40usize {
            for blocks in 0..=40usize {
                let ragged = [0, 1, 7, 15][(macs + blocks) % 4];
                let (enc_key, mac_key, side_key) = (gen.block(), gen.block(), gen.block());
                let iv = gen.block();
                let enc = AesCtr::with_backend(kind, &enc_key);
                let mac = Cmac::with_backend(kind, &mac_key);
                let side = Cmac::with_backend(kind, &side_key);
                let plain = gen.bytes(16 * blocks + ragged);
                let trailer = gen.bytes(37);
                let msg = gen.bytes(16 * macs);
                let side_tag = side.compute(&msg);
                let case = format!("{macs} beside {} B on {}", plain.len(), kind.name());

                let mut ct = plain.clone();
                enc.apply_keystream(&iv, &mut ct);
                let tag = mac.compute_parts(&[&ct, &trailer]);

                let beside = || Some(fused::Beside { mac: &side, msg: &msg, tag: &side_tag });
                let mut sealed = plain.clone();
                let sealed_tag =
                    fused::seal_beside(beside(), &enc, &mac, &iv, &[], &mut sealed, &[&trailer]);
                assert_eq!((&sealed, sealed_tag), (&ct, (tag, true)), "seal {case}");

                let mut out = Vec::new();
                let opened = fused::open_verify_beside(
                    beside(),
                    &enc,
                    &mac,
                    &iv,
                    &[],
                    &ct,
                    &[&trailer],
                    |computed| *computed == tag,
                    &mut out,
                );
                assert_eq!((opened, &out), (fused::Opened::Verified, &plain), "open {case}");
                let macced = fused::mac_beside(beside(), &mac, &ct, &[&trailer]);
                assert_eq!(macced, (tag, true), "mac {case}");
            }
        }
    }
}

/// The Aes128 table cipher and the AesNi cipher both satisfy FIPS 197
/// Appendix C.1 through the trait entry points.
#[test]
fn fips197_c1_through_trait() {
    let key: [u8; 16] = core::array::from_fn(|i| i as u8);
    let plain = [
        0x00u8, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ];
    let expect = [
        0x69u8, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5,
        0x5a,
    ];
    let mut block = plain;
    Aes128Backend::encrypt_block(&Aes128::new(&key), &mut block);
    assert_eq!(block, expect);
    if aesni_available() {
        let mut block = plain;
        Aes128Backend::encrypt_block(&AesBackend::with_kind(BackendKind::AesNi, &key), &mut block);
        assert_eq!(block, expect);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// Random keys/IVs/messages: CTR output identical across backends.
    #[test]
    fn prop_ctr_equivalent(
        key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        data in pvec(any::<u8>(), 0..600),
    ) {
        if !aesni_available() {
            return Ok(());
        }
        let mut a = data.clone();
        let mut b = data.clone();
        AesCtr::with_backend(BackendKind::Soft, &key).apply_keystream(&iv, &mut a);
        AesCtr::with_backend(BackendKind::AesNi, &key).apply_keystream(&iv, &mut b);
        prop_assert_eq!(a, b);
    }

    /// Random keys/messages/splits: CMAC tags identical across backends,
    /// including through the streaming context.
    #[test]
    fn prop_cmac_equivalent(
        key in any::<[u8; 16]>(),
        data in pvec(any::<u8>(), 0..400),
        cut in 0usize..401,
    ) {
        if !aesni_available() {
            return Ok(());
        }
        let cut = cut.min(data.len());
        let soft = Cmac::with_backend(BackendKind::Soft, &key);
        let ni = Cmac::with_backend(BackendKind::AesNi, &key);
        prop_assert_eq!(soft.compute(&data), ni.compute(&data));
        let mut ctx = ni.ctx();
        ctx.update(&data[..cut]);
        ctx.update(&data[cut..]);
        prop_assert_eq!(ctx.finalize(), soft.compute(&data));
    }

    /// Random keys, states, counters and lane lengths: the kernel equals
    /// its sequential definition on both backends.
    #[test]
    fn prop_lockstep_equivalent(
        seed in any::<u64>(),
        na in 0usize..48,
        nb in 0usize..48,
        nc in 0usize..48,
        b_follows in any::<bool>(),
    ) {
        let lanes = Lanes::random(&mut Gen(seed), (na, nb, nc), b_follows);
        let expect = lanes.run(BackendKind::Soft, sequential_lockstep);
        prop_assert_eq!(&lanes.run(BackendKind::Soft, AesBackend::lockstep), &expect);
        if aesni_available() {
            prop_assert_eq!(&lanes.run(BackendKind::AesNi, AesBackend::lockstep), &expect);
        }
    }

    /// Cross-backend seal/open: data sealed by either backend opens
    /// (fused) under the other, and tampering is rejected by both.
    #[test]
    fn prop_fused_open_cross_backend(
        key in any::<[u8; 16]>(),
        mac_key in any::<[u8; 16]>(),
        iv in any::<[u8; 16]>(),
        data in pvec(any::<u8>(), 0..300),
        flip in any::<prop::sample::Index>(),
    ) {
        if !aesni_available() {
            return Ok(());
        }
        for (seal_kind, open_kind) in
            [(BackendKind::Soft, BackendKind::AesNi), (BackendKind::AesNi, BackendKind::Soft)]
        {
            let seal_ctr = AesCtr::with_backend(seal_kind, &key);
            let seal_mac = Cmac::with_backend(seal_kind, &mac_key);
            let open_ctr = AesCtr::with_backend(open_kind, &key);
            let open_mac = Cmac::with_backend(open_kind, &mac_key);

            let mut ct = data.clone();
            seal_ctr.apply_keystream(&iv, &mut ct);
            let tag = seal_mac.compute_parts(&[&ct, &iv]);

            let mut out = Vec::new();
            prop_assert!(fused::open_verify(
                &open_ctr, &open_mac, &iv, &[], &ct, &[&iv], &tag, &mut out
            ));
            prop_assert_eq!(&out, &data);

            if !ct.is_empty() {
                let mut bad = ct.clone();
                let at = flip.index(bad.len());
                bad[at] ^= 1;
                prop_assert!(!fused::open_verify(
                    &open_ctr, &open_mac, &iv, &[], &bad, &[&iv], &tag, &mut out
                ));
                prop_assert!(out.is_empty());
            }
        }
    }
}
