//! AES-128 counter mode.
//!
//! The reproduction's stand-in for `sgx_aes_ctr_encrypt`: the IV and counter
//! are managed as one combined 128-bit block, incremented big-endian for
//! each keystream block, exactly as the SGX SDK does (the paper stores the
//! combined IV/counter field in each data entry for this reason, §4.2).
//!
//! The keystream is generated eight blocks at a time through the
//! runtime-dispatched [`AesBackend`], so on AES-NI hardware all eight
//! `AESENC` pipelines stay full and neither the counter nor the
//! keystream round-trips through memory.

use crate::backend::{Aes128Backend, AesBackend, BackendKind};

/// AES-128 in counter mode.
///
/// Counter mode turns the block cipher into a stream cipher, so encryption
/// and decryption are the same operation ([`AesCtr::apply_keystream`]).
#[derive(Clone)]
pub struct AesCtr {
    aes: AesBackend,
}

impl AesCtr {
    /// Creates a counter-mode cipher from a 128-bit key on the
    /// process-wide selected backend.
    pub fn new(key: &[u8; 16]) -> Self {
        Self { aes: AesBackend::new(key) }
    }

    /// Creates a counter-mode cipher on an explicitly chosen backend
    /// (equivalence tests and benchmarks; production uses [`AesCtr::new`]).
    pub fn with_backend(kind: BackendKind, key: &[u8; 16]) -> Self {
        Self { aes: AesBackend::with_kind(kind, key) }
    }

    /// Which backend implementation this cipher dispatches to.
    pub fn backend_kind(&self) -> BackendKind {
        self.aes.kind()
    }

    /// XORs the keystream for `iv_ctr` into `data`, encrypting or
    /// decrypting it in place.
    ///
    /// The 16-byte `iv_ctr` is the initial counter block; successive blocks
    /// increment it as a 128-bit big-endian integer. The caller's copy is
    /// not modified, matching `sgx_aes_ctr_encrypt` semantics with
    /// `ctr_inc_bits = 128`.
    ///
    /// # Examples
    ///
    /// ```
    /// let c = shield_crypto::ctr::AesCtr::new(&[9u8; 16]);
    /// let mut msg = *b"hello shieldstore";
    /// c.apply_keystream(&[1u8; 16], &mut msg);
    /// c.apply_keystream(&[1u8; 16], &mut msg);
    /// assert_eq!(&msg, b"hello shieldstore");
    /// ```
    pub fn apply_keystream(&self, iv_ctr: &[u8; 16], data: &mut [u8]) {
        crate::stats::note(data.len());
        self.aes.ctr_xor(u128::from_be_bytes(*iv_ctr), data);
    }

    /// The key schedule, for [`crate::fused`] to run the stream as one
    /// lane of a lockstep call.
    pub(crate) fn aes(&self) -> &AesBackend {
        &self.aes
    }

    /// Encrypts `src` into `dst` (which must be the same length) without
    /// modifying the source.
    pub fn apply_keystream_to(&self, iv_ctr: &[u8; 16], src: &[u8], dst: &mut [u8]) {
        debug_assert_eq!(src.len(), dst.len());
        dst.copy_from_slice(src);
        self.apply_keystream(iv_ctr, dst);
    }
}

/// Increments a 128-bit big-endian counter in place, wrapping on overflow.
#[inline]
pub fn increment_be(counter: &mut [u8; 16]) {
    for byte in counter.iter_mut().rev() {
        *byte = byte.wrapping_add(1);
        if *byte != 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn backends() -> Vec<BackendKind> {
        let mut kinds = vec![BackendKind::Soft];
        if crate::backend::aesni_available() {
            kinds.push(BackendKind::AesNi);
        }
        kinds
    }

    /// NIST SP 800-38A, F.5.1 (CTR-AES128.Encrypt), on every backend.
    #[test]
    fn nist_sp800_38a_f51() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let iv: [u8; 16] = hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff").try_into().unwrap();
        let plaintext = hex("6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710");
        let expected = hex("874d6191b620e3261bef6864990db6ce\
             9806f66b7970fdff8617187bb9fffdff\
             5ae4df3edbd5d35e5b4f09020db03eab\
             1e031dda2fbe03d1792170a0f3009cee");
        for kind in backends() {
            let ctr = AesCtr::with_backend(kind, &key);
            let mut data = plaintext.clone();
            ctr.apply_keystream(&iv, &mut data);
            assert_eq!(data, expected, "{}", kind.name());
            // Decryption is the same operation.
            ctr.apply_keystream(&iv, &mut data);
            assert_eq!(data, plaintext, "{}", kind.name());
        }
    }

    #[test]
    fn counter_increment_wraps() {
        let mut c = [0xffu8; 16];
        increment_be(&mut c);
        assert_eq!(c, [0u8; 16]);

        let mut c = [0u8; 16];
        c[15] = 0xff;
        increment_be(&mut c);
        assert_eq!(c[14], 1);
        assert_eq!(c[15], 0);
    }

    #[test]
    fn partial_block_tail() {
        for kind in backends() {
            let ctr = AesCtr::with_backend(kind, &[3u8; 16]);
            let iv = [0u8; 16];
            let mut data = vec![0xaau8; 37]; // 2 full blocks + 5-byte tail
            ctr.apply_keystream(&iv, &mut data);
            let mut copy = data.clone();
            ctr.apply_keystream(&iv, &mut copy);
            assert_eq!(copy, vec![0xaau8; 37]);
        }
    }

    /// The widened 8-block path must match a one-block-at-a-time
    /// reference at every length across the wide/tail seam.
    #[test]
    fn wide_path_matches_single_block_reference() {
        for kind in backends() {
            let ctr = AesCtr::with_backend(kind, &[0x5cu8; 16]);
            let mut iv = [0u8; 16];
            // Start near a carry boundary so block increments ripple bytes.
            iv[14] = 0xff;
            iv[15] = 0xfe;
            for len in 0..=260usize {
                let src: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let mut wide = src.clone();
                ctr.apply_keystream(&iv, &mut wide);
                // Reference: one block per iteration via encrypt_to.
                let mut reference = src.clone();
                let mut counter = iv;
                for chunk in reference.chunks_mut(16) {
                    let ks = ctr.aes.encrypt_to(&counter);
                    for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                        *b ^= k;
                    }
                    increment_be(&mut counter);
                }
                assert_eq!(wide, reference, "mismatch at len {len} on {}", kind.name());
            }
        }
    }

    /// Resuming a stream at a 16-byte-aligned split, from the counter
    /// advanced by the blocks already consumed, must match one
    /// continuous application.
    #[test]
    fn resumed_stream_matches_whole() {
        for kind in backends() {
            let ctr = AesCtr::with_backend(kind, &[0x11u8; 16]);
            let iv = [0xabu8; 16];
            let src: Vec<u8> = (0..300).map(|i| (i * 7) as u8).collect();
            let mut whole = src.clone();
            ctr.apply_keystream(&iv, &mut whole);
            for split in [0usize, 16, 128, 144, 288] {
                let mut parts = src.clone();
                let mut counter = iv;
                let (a, b) = parts.split_at_mut(split);
                ctr.apply_keystream(&counter, a);
                for _ in 0..split / 16 {
                    increment_be(&mut counter);
                }
                ctr.apply_keystream(&counter, b);
                assert_eq!(parts, whole, "split {split} on {}", kind.name());
            }
        }
    }

    #[test]
    fn different_ivs_give_different_streams() {
        let ctr = AesCtr::new(&[5u8; 16]);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        ctr.apply_keystream(&[0u8; 16], &mut a);
        ctr.apply_keystream(&[1u8; 16], &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn apply_keystream_to_matches_in_place() {
        let ctr = AesCtr::new(&[7u8; 16]);
        let iv = [0x42u8; 16];
        let src = vec![0x11u8; 50];
        let mut dst = vec![0u8; 50];
        ctr.apply_keystream_to(&iv, &src, &mut dst);
        let mut in_place = src.clone();
        ctr.apply_keystream(&iv, &mut in_place);
        assert_eq!(dst, in_place);
    }
}
