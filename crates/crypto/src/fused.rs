//! Fused CTR + CMAC: open (verify and decrypt) and seal (encrypt and MAC)
//! as one lockstep pass, with room for a second CMAC beside it.
//!
//! ShieldStore opens an entry by CMAC-verifying the ciphertext and
//! CTR-decrypting it, and a verified access also CMACs the bucket set's
//! MACs (paper §4.2–4.3): two CBC-MAC chains and a CTR stream, each under
//! its own key. A chain's next block cannot start before its last one
//! left the cipher, so run one after another they leave the AES unit
//! mostly idle. This module lays the three out as the lanes of one
//! [`Aes128Backend::lockstep`] call: the stream's ciphertext is the body
//! of its MAC lane (read from the input on an open, from the stream's own
//! output on a seal), the unaligned end of the message is staged with the
//! trailer in a small buffer, and the chains finish in about the time of
//! the longer one.
//!
//! # Verification ordering
//!
//! An open stages the plaintext in a caller-owned buffer *during* the
//! pass, but **releases it only after** every computed tag matches its
//! stored one (constant-time compares, the beside tag's first). On a
//! mismatch the staging buffer is wiped and cleared before returning, so
//! no caller observes unauthenticated plaintext — the fused path fails
//! exactly as closed as verify-then-decrypt.

use crate::backend::{Aes128Backend, AesBackend, CtrLane, MacLane, MacPart};
use crate::cmac::Cmac;
use crate::constant_time::ct_eq;
use crate::ctr::AesCtr;
use crate::Tag128;

/// The most trailer bytes a fused open or seal stages.
pub const MAX_TRAILER: usize = 64;

/// A second message whose CMAC is computed beside an open or a seal and
/// compared with `tag` — for the store, the bucket set's MACs under the
/// master key beside the entry under the tenant's.
pub struct Beside<'a> {
    /// The key of the second MAC.
    pub mac: &'a Cmac,
    /// The whole second message.
    pub msg: &'a [u8],
    /// The tag `msg` must have.
    pub tag: &'a Tag128,
}

/// How [`open_verify_beside`] ended. Only `Verified` leaves plaintext.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opened {
    /// Both tags matched; the plaintext is in `out`.
    Verified,
    /// The message beside the open does not have its tag (whatever the
    /// opened stream's own tag did).
    BesideMismatch,
    /// The stream's tag does not match.
    TagMismatch,
}

/// The lockstep body of every open and seal. Runs the CTR stream keyed by
/// `iv` over `stream` and returns the CMAC of `prefix ‖ ciphertext ‖
/// trailer`, where the ciphertext is `ciphertext` when given (an open:
/// `stream` holds a copy of it) and otherwise what the stream leaves in
/// `stream` (a seal); with it, whether the `beside` message has its tag.
///
/// Without a `stream` the pass only MACs: `ciphertext` must be given, and
/// no lane runs a keystream.
fn lockstep(
    beside: Option<Beside<'_>>,
    mac: &Cmac,
    prefix: &[[u8; 16]],
    ciphertext: Option<&[u8]>,
    trailer: &[&[u8]],
    stream: Option<(&AesCtr, &[u8; 16], &mut [u8])>,
) -> (Tag128, bool) {
    let trailer_len: usize = trailer.iter().map(|part| part.len()).sum();
    assert!(trailer_len <= MAX_TRAILER, "trailer longer than a fused pass stages");
    let len = match (ciphertext, &stream) {
        (Some(ciphertext), _) => ciphertext.len(),
        (None, Some((_, _, data))) => data.len(),
        (None, None) => 0,
    };
    crate::stats::note(16 * prefix.len() + len + trailer_len);

    // The MAC lane's body is the ciphertext's whole blocks — all but the
    // last when the message ends with it, since the final block of a CMAC
    // is treated. What is past the body is under a block and joins the
    // trailer in `tail`; its keystream does not wait for the lanes.
    let mut body = len / 16 * 16;
    if body == len && trailer_len == 0 && body > 0 {
        body -= 16;
    }
    let mut stream_rest: &[u8] = &[];
    let stream = stream.map(|(enc, iv, data)| {
        let counter = u128::from_be_bytes(*iv);
        let (data, rest) = data.split_at_mut(body);
        enc.aes().ctr_xor(counter.wrapping_add(body as u128 / 16), rest);
        stream_rest = rest;
        CtrLane { aes: enc.aes(), counter, data }
    });
    let (body_part, rest) = match ciphertext {
        Some(ciphertext) => (MacPart::Blocks(&ciphertext[..body]), &ciphertext[body..]),
        None => (MacPart::CtrOutput, stream_rest),
    };

    let mut tail = [0u8; 16 + MAX_TRAILER + 16];
    let mut staged = rest.len();
    tail[..staged].copy_from_slice(rest);
    for part in trailer {
        tail[staged..staged + part.len()].copy_from_slice(part);
        staged += part.len();
    }
    let mut head = prefix;
    if let (0, Some((last, before))) = (staged, prefix.split_last()) {
        // Nothing follows the prefix: its last block is the final one.
        tail[..16].copy_from_slice(last);
        (head, staged) = (before, 16);
    }
    let tail_len = mac.finish_tail(&mut tail, staged);

    let mut tag = [0u8; 16];
    let stream_mac = MacLane {
        aes: mac.aes(),
        state: &mut tag,
        parts: [
            MacPart::Blocks(head.as_flattened()),
            body_part,
            MacPart::Blocks(&tail[..tail_len]),
        ],
    };
    let Some(beside) = beside else {
        AesBackend::lockstep(None, Some(stream_mac), stream);
        return (tag, true);
    };
    crate::stats::note(beside.msg.len());
    let (interior, last) = beside.mac.split_last(beside.msg);
    let mut beside_tag = [0u8; 16];
    let beside_mac = MacLane {
        aes: beside.mac.aes(),
        state: &mut beside_tag,
        parts: [MacPart::Blocks(interior), MacPart::Blocks(&last), MacPart::Blocks(&[])],
    };
    AesBackend::lockstep(Some(beside_mac), Some(stream_mac), stream);
    (tag, ct_eq(&beside_tag, beside.tag))
}

/// Verifies `tag` over `prefix ‖ ciphertext ‖ trailer` and, if it
/// matches, leaves the decryption of `ciphertext` (under `iv`) in `out`.
///
/// Returns `true` on success. On failure `out` is wiped and emptied; its
/// capacity is reused across calls, so a caller-held scratch vector makes
/// the whole open allocation-free once warm.
///
/// `prefix`/`trailer` are the authenticated-but-unencrypted parts around
/// the ciphertext in MAC order — e.g. an entry MAC covers
/// `(ciphertext, key_len, val_len, hint, iv)`, so `prefix` is empty and
/// those four fields form the trailer; a session frame's MAC starts with
/// its nonce, one prefix block. The prefix is whole blocks so that the
/// ciphertext's blocks are the MAC's.
///
/// # Panics
///
/// Panics if the trailer parts total more than [`MAX_TRAILER`] bytes.
#[allow(clippy::too_many_arguments)]
pub fn open_verify(
    enc: &AesCtr,
    mac: &Cmac,
    iv: &[u8; 16],
    prefix: &[[u8; 16]],
    ciphertext: &[u8],
    trailer: &[&[u8]],
    tag: &Tag128,
    out: &mut Vec<u8>,
) -> bool {
    let accept = |computed: &Tag128| ct_eq(computed, tag);
    open_verify_beside(None, enc, mac, iv, prefix, ciphertext, trailer, accept, out)
        == Opened::Verified
}

/// [`open_verify`] with the CMAC of a second message computed and checked
/// in the same pass, and the stream's computed tag judged by `accept`
/// rather than compared with one stored tag — a caller whose tag may sit
/// in one of several places looks there. The second message's verdict
/// comes first: when it does not have its tag the answer is
/// [`Opened::BesideMismatch`] and `accept` is not asked.
#[allow(clippy::too_many_arguments)]
pub fn open_verify_beside(
    beside: Option<Beside<'_>>,
    enc: &AesCtr,
    mac: &Cmac,
    iv: &[u8; 16],
    prefix: &[[u8; 16]],
    ciphertext: &[u8],
    trailer: &[&[u8]],
    accept: impl FnOnce(&Tag128) -> bool,
    out: &mut Vec<u8>,
) -> Opened {
    crate::stats::note(ciphertext.len());
    out.clear();
    out.extend_from_slice(ciphertext);
    let (computed, beside_ok) =
        lockstep(beside, mac, prefix, Some(ciphertext), trailer, Some((enc, iv, out)));
    let opened = match beside_ok {
        false => Opened::BesideMismatch,
        true if accept(&computed) => return Opened::Verified,
        true => Opened::TagMismatch,
    };
    // Never release unauthenticated plaintext.
    out.iter_mut().for_each(|b| *b = 0);
    out.clear();
    opened
}

/// Encrypts `data` in place under `iv` and returns the CMAC of `prefix ‖
/// ciphertext ‖ trailer`: the inverse of [`open_verify`], the MAC lane
/// absorbing each ciphertext block one step after the stream wrote it.
///
/// # Panics
///
/// Panics if the trailer parts total more than [`MAX_TRAILER`] bytes.
pub fn seal(
    enc: &AesCtr,
    mac: &Cmac,
    iv: &[u8; 16],
    prefix: &[[u8; 16]],
    data: &mut [u8],
    trailer: &[&[u8]],
) -> Tag128 {
    seal_beside(None, enc, mac, iv, prefix, data, trailer).0
}

/// [`seal`] with the CMAC of a second message computed in the same pass;
/// also returns whether that message has its tag (`true` without one).
pub fn seal_beside(
    beside: Option<Beside<'_>>,
    enc: &AesCtr,
    mac: &Cmac,
    iv: &[u8; 16],
    prefix: &[[u8; 16]],
    data: &mut [u8],
    trailer: &[&[u8]],
) -> (Tag128, bool) {
    crate::stats::note(data.len());
    lockstep(beside, mac, prefix, None, trailer, Some((enc, iv, data)))
}

/// The CMAC of `ciphertext ‖ trailer` — no keystream, nothing decrypted —
/// with a second message's CMAC computed in the same pass; also returns
/// whether that message has its tag (`true` without one). For proving
/// what is about to be overwritten: two MAC lanes, no stream.
pub fn mac_beside(
    beside: Option<Beside<'_>>,
    mac: &Cmac,
    ciphertext: &[u8],
    trailer: &[&[u8]],
) -> (Tag128, bool) {
    lockstep(beside, mac, &[], Some(ciphertext), trailer, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{aesni_available, BackendKind};

    fn backends() -> Vec<BackendKind> {
        let mut kinds = vec![BackendKind::Soft];
        if aesni_available() {
            kinds.push(BackendKind::AesNi);
        }
        kinds
    }

    /// The two sequential passes the fused seal replaces.
    fn seal_in_two_passes(
        enc: &AesCtr,
        mac: &Cmac,
        iv: &[u8; 16],
        plain: &[u8],
    ) -> (Vec<u8>, Tag128) {
        let mut ct = plain.to_vec();
        enc.apply_keystream(iv, &mut ct);
        let tag = mac.compute_parts(&[&ct, b"trail", iv]);
        (ct, tag)
    }

    #[test]
    fn roundtrip_all_lengths() {
        for kind in backends() {
            let enc = AesCtr::with_backend(kind, &[1u8; 16]);
            let mac = Cmac::with_backend(kind, &[2u8; 16]);
            let iv = [9u8; 16];
            for len in (0..=130).chain([511, 512, 513, 1200]) {
                let plain: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
                let (ct, tag) = seal_in_two_passes(&enc, &mac, &iv, &plain);
                let mut out = Vec::new();
                assert!(
                    open_verify(&enc, &mac, &iv, &[], &ct, &[b"trail", &iv], &tag, &mut out),
                    "len {len} on {}",
                    kind.name()
                );
                assert_eq!(out, plain, "len {len} on {}", kind.name());
                let mut sealed = plain.clone();
                let fused_tag = seal(&enc, &mac, &iv, &[], &mut sealed, &[b"trail", &iv]);
                assert_eq!((sealed, fused_tag), (ct, tag), "len {len} on {}", kind.name());
            }
        }
    }

    /// Every shape of message end: with and without a prefix and a
    /// trailer, the ciphertext empty, ragged and block-aligned — the tag
    /// is the plain CMAC of the concatenation, opening and sealing.
    #[test]
    fn message_ends_match_plain_cmac() {
        for kind in backends() {
            let enc = AesCtr::with_backend(kind, &[5u8; 16]);
            let mac = Cmac::with_backend(kind, &[6u8; 16]);
            let iv = [0xfeu8; 16];
            let prefixes: [&[[u8; 16]]; 3] = [&[], &[[0x11; 16]], &[[0x11; 16], [0x22; 16]]];
            let trailers: [&[&[u8]]; 4] =
                [&[], &[&[0x33; 16]], &[&[0x44; 5], &[0x55; 32]], &[&[0x66; MAX_TRAILER]]];
            for prefix in prefixes {
                for trailer in trailers {
                    for len in [0usize, 1, 15, 16, 17, 32, 47, 48] {
                        let plain: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5a).collect();
                        let mut ct = plain.clone();
                        let tag = seal(&enc, &mac, &iv, prefix, &mut ct, trailer);
                        let mut whole = prefix.concat();
                        whole.extend_from_slice(&ct);
                        whole.extend(trailer.iter().flat_map(|part| part.iter()));
                        let case = format!("{} + {len} + {}", prefix.len(), trailer.len());
                        assert_eq!(tag, mac.compute(&whole), "{case} on {}", kind.name());
                        let mut reference = plain.clone();
                        enc.apply_keystream(&iv, &mut reference);
                        assert_eq!(ct, reference, "{case} on {}", kind.name());
                        let mut out = Vec::new();
                        assert!(open_verify(&enc, &mac, &iv, prefix, &ct, trailer, &tag, &mut out));
                        assert_eq!(out, plain, "{case} on {}", kind.name());
                    }
                }
            }
        }
    }

    #[test]
    fn fails_closed_on_tamper() {
        let enc = AesCtr::new(&[1u8; 16]);
        let mac = Cmac::new(&[2u8; 16]);
        let iv = [7u8; 16];
        let plain = vec![0x5au8; 777];
        let (ct, tag) = seal_in_two_passes(&enc, &mac, &iv, &plain);
        let mut out = Vec::new();

        // Flip one ciphertext bit.
        let mut bad_ct = ct.clone();
        bad_ct[400] ^= 1;
        assert!(!open_verify(&enc, &mac, &iv, &[], &bad_ct, &[b"trail", &iv], &tag, &mut out));
        assert!(out.is_empty(), "no plaintext may escape a failed open");

        // Flip one tag bit.
        let mut bad_tag = tag;
        bad_tag[15] ^= 0x80;
        assert!(!open_verify(&enc, &mac, &iv, &[], &ct, &[b"trail", &iv], &bad_tag, &mut out));
        assert!(out.is_empty());

        // Tamper with the authenticated trailer.
        assert!(!open_verify(&enc, &mac, &iv, &[], &ct, &[b"trai1", &iv], &tag, &mut out));
        assert!(out.is_empty());

        // The honest open still succeeds with the same scratch buffer.
        assert!(open_verify(&enc, &mac, &iv, &[], &ct, &[b"trail", &iv], &tag, &mut out));
        assert_eq!(out, plain);
    }

    #[test]
    fn prefix_is_authenticated_in_order() {
        let enc = AesCtr::new(&[3u8; 16]);
        let mac = Cmac::new(&[4u8; 16]);
        let iv = [1u8; 16];
        let plain = b"session frame payload".to_vec();
        let mut ct = plain.clone();
        enc.apply_keystream(&iv, &mut ct);
        // MAC order: iv first, then ciphertext (the session-frame layout).
        let tag = mac.compute_parts(&[&iv, &ct]);
        let mut out = Vec::new();
        assert!(open_verify(&enc, &mac, &iv, &[iv], &ct, &[], &tag, &mut out));
        assert_eq!(out, plain);
        let wrong_iv = [2u8; 16];
        assert!(!open_verify(&enc, &mac, &iv, &[wrong_iv], &ct, &[], &tag, &mut out));
        assert!(out.is_empty());
    }

    /// The beside message is verified in the same pass, reports first,
    /// and either mismatch wipes the plaintext.
    #[test]
    fn beside_verdict_comes_first_and_wipes() {
        for kind in backends() {
            let enc = AesCtr::with_backend(kind, &[1u8; 16]);
            let mac = Cmac::with_backend(kind, &[2u8; 16]);
            let side = Cmac::with_backend(kind, &[3u8; 16]);
            let iv = [7u8; 16];
            for (macs, len) in [(1usize, 300usize), (14, 32), (27, 528), (40, 0)] {
                let msg: Vec<u8> = (0..16 * macs).map(|i| (i * 5) as u8).collect();
                let side_tag = side.compute(&msg);
                let plain = vec![0xc3u8; len];
                let (ct, tag) = seal_in_two_passes(&enc, &mac, &iv, &plain);
                let mut out = Vec::new();
                let open = |msg_tag: &Tag128, tag: &Tag128, out: &mut Vec<u8>| {
                    let beside = Beside { mac: &side, msg: &msg, tag: msg_tag };
                    let trailer: [&[u8]; 2] = [b"trail", &iv];
                    let accept = |computed: &Tag128| ct_eq(computed, tag);
                    open_verify_beside(
                        Some(beside),
                        &enc,
                        &mac,
                        &iv,
                        &[],
                        &ct,
                        &trailer,
                        accept,
                        out,
                    )
                };
                assert_eq!(open(&side_tag, &tag, &mut out), Opened::Verified);
                assert_eq!(out, plain);
                let (mut bad_side, mut bad_tag) = (side_tag, tag);
                bad_side[0] ^= 1;
                bad_tag[0] ^= 1;
                assert_eq!(open(&bad_side, &tag, &mut out), Opened::BesideMismatch);
                assert!(out.is_empty());
                assert_eq!(open(&bad_side, &bad_tag, &mut out), Opened::BesideMismatch);
                assert!(out.is_empty());
                assert_eq!(open(&side_tag, &bad_tag, &mut out), Opened::TagMismatch);
                assert!(out.is_empty());
            }
        }
    }

    /// A MAC-only pass is the plain CMAC of its message, with the beside
    /// message judged as on an open, for every end of the message.
    #[test]
    fn mac_beside_is_the_plain_cmac() {
        for kind in backends() {
            let mac = Cmac::with_backend(kind, &[2u8; 16]);
            let side = Cmac::with_backend(kind, &[3u8; 16]);
            let msg: Vec<u8> = (0..16 * 5).map(|i| (i * 7) as u8).collect();
            let side_tag = side.compute(&msg);
            let mut bad_side = side_tag;
            bad_side[3] ^= 1;
            for len in [0usize, 1, 15, 16, 17, 144, 145] {
                let ct: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x3c).collect();
                let want = mac.compute_parts(&[&ct, b"trail"]);
                assert_eq!(mac_beside(None, &mac, &ct, &[b"trail"]), (want, true));
                let beside = Beside { mac: &side, msg: &msg, tag: &side_tag };
                assert_eq!(mac_beside(Some(beside), &mac, &ct, &[b"trail"]), (want, true));
                let beside = Beside { mac: &side, msg: &msg, tag: &bad_side };
                assert_eq!(mac_beside(Some(beside), &mac, &ct, &[b"trail"]), (want, false));
            }
        }
    }
}
