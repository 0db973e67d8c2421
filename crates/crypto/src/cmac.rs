//! AES-CMAC (RFC 4493 / NIST SP 800-38B).
//!
//! The reproduction's stand-in for `sgx_rijndael128_cmac`, used for every
//! entry MAC and every in-enclave bucket-set MAC hash (paper §4.2–4.3).
//!
//! The workhorse is the streaming [`CmacCtx`]: it buffers at most one
//! block and hands every full run of interior blocks to the backend's
//! `cmac_absorb`, which keeps the chaining state in a register on AES-NI
//! hardware. A bucket-set's worth of entry MACs is absorbed in one pass
//! with no intermediate concatenation; `compute`/`compute_parts` are thin
//! wrappers over the same context.

use crate::backend::{Aes128Backend, AesBackend, BackendKind};
use crate::Tag128;

/// AES-CMAC keyed message authentication.
#[derive(Clone)]
pub struct Cmac {
    aes: AesBackend,
    k1: [u8; 16],
    k2: [u8; 16],
}

/// Doubles a value in GF(2^128) with the CMAC polynomial (left shift,
/// conditional XOR of 0x87 into the last byte).
fn dbl(block: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    let mut carry = 0u8;
    for i in (0..16).rev() {
        out[i] = (block[i] << 1) | carry;
        carry = block[i] >> 7;
    }
    if carry != 0 {
        out[15] ^= 0x87;
    }
    out
}

impl Cmac {
    /// Creates a CMAC instance on the process-wide selected backend,
    /// deriving the two subkeys K1 and K2.
    pub fn new(key: &[u8; 16]) -> Self {
        Self::from_backend(AesBackend::new(key))
    }

    /// Creates a CMAC instance on an explicitly chosen backend
    /// (equivalence tests and benchmarks; production uses [`Cmac::new`]).
    pub fn with_backend(kind: BackendKind, key: &[u8; 16]) -> Self {
        Self::from_backend(AesBackend::with_kind(kind, key))
    }

    fn from_backend(aes: AesBackend) -> Self {
        let l = aes.encrypt_to(&[0u8; 16]);
        let k1 = dbl(&l);
        let k2 = dbl(&k1);
        Self { aes, k1, k2 }
    }

    /// Which backend implementation this MAC dispatches to.
    pub fn backend_kind(&self) -> BackendKind {
        self.aes.kind()
    }

    /// The key schedule, for [`crate::fused`] to run the chain as one
    /// lane of a lockstep call.
    pub(crate) fn aes(&self) -> &AesBackend {
        &self.aes
    }

    /// Gives a message's tail the RFC 4493 last-block treatment in place,
    /// so that the tag is the plain CBC-MAC state after the blocks before
    /// the tail and then the treated tail (whose length in bytes is
    /// returned) are absorbed.
    ///
    /// `tail[..len]` is the end of the message, from a block boundary on,
    /// and empty only if the message is. A tail that ends on a block
    /// boundary has K1 XORed into its last block; any other is padded
    /// with `10*` first and takes K2. `tail` must have room for the pad.
    pub(crate) fn finish_tail(&self, tail: &mut [u8], len: usize) -> usize {
        let end = len.div_ceil(16).max(1) * 16;
        let subkey = if len == end {
            &self.k1
        } else {
            tail[len] = 0x80;
            tail[len + 1..end].fill(0);
            &self.k2
        };
        for (b, k) in tail[end - 16..end].iter_mut().zip(subkey) {
            *b ^= k;
        }
        end
    }

    /// Splits a whole message for [`Cmac::finish_tail`]: the blocks
    /// before its last (possibly partial, possibly only) block, and that
    /// block treated.
    pub(crate) fn split_last<'m>(&self, msg: &'m [u8]) -> (&'m [u8], [u8; 16]) {
        let (interior, tail) = msg.split_at(msg.len().saturating_sub(1) / 16 * 16);
        let mut last = [0u8; 16];
        last[..tail.len()].copy_from_slice(tail);
        self.finish_tail(&mut last, tail.len());
        (interior, last)
    }

    /// Starts a streaming MAC computation.
    ///
    /// Feed data with [`CmacCtx::update`] and close with
    /// [`CmacCtx::finalize`]; the tag equals `compute` over the
    /// concatenation of everything fed in, with no intermediate copy.
    pub fn ctx(&self) -> CmacCtx<'_> {
        CmacCtx { cmac: self, x: [0u8; 16], buf: [0u8; 16], buffered: 0, total: 0 }
    }

    /// Computes the 128-bit CMAC tag of `msg`.
    ///
    /// # Examples
    ///
    /// ```
    /// let mac = shield_crypto::cmac::Cmac::new(&[0u8; 16]);
    /// let t1 = mac.compute(b"hello");
    /// let t2 = mac.compute(b"hellp");
    /// assert_ne!(t1, t2);
    /// ```
    pub fn compute(&self, msg: &[u8]) -> Tag128 {
        let mut ctx = self.ctx();
        ctx.update(msg);
        ctx.finalize()
    }

    /// Computes the CMAC tag over the concatenation of `parts` without
    /// materializing the concatenated message.
    ///
    /// ShieldStore MAC-hashes are CMACs over many concatenated entry MACs
    /// (paper §4.3); this entry point avoids the copy.
    pub fn compute_parts(&self, parts: &[&[u8]]) -> Tag128 {
        let mut ctx = self.ctx();
        for part in parts {
            ctx.update(part);
        }
        ctx.finalize()
    }

    /// Verifies `tag` against the CMAC of `msg` in constant time.
    pub fn verify(&self, msg: &[u8], tag: &Tag128) -> bool {
        crate::constant_time::ct_eq(&self.compute(msg), tag)
    }
}

/// An in-progress streaming CMAC computation (see [`Cmac::ctx`]).
///
/// Invariant: between calls, `buf[..buffered]` holds the undigested tail
/// of the message. The final block of the message must receive the
/// K1/K2 subkey treatment, so the context never absorbs its last
/// buffered block until [`CmacCtx::finalize`] — after any `update` with
/// nonzero total input, `1 <= buffered <= 16`.
pub struct CmacCtx<'a> {
    cmac: &'a Cmac,
    x: [u8; 16],
    buf: [u8; 16],
    buffered: usize,
    total: u64,
}

impl CmacCtx<'_> {
    /// Absorbs `data` into the MAC state.
    pub fn update(&mut self, mut data: &[u8]) {
        if data.is_empty() {
            return;
        }
        self.total += data.len() as u64;
        if self.buffered > 0 {
            let take = (16 - self.buffered).min(data.len());
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if data.is_empty() {
                // The buffer may now be full, but nothing follows yet —
                // it could be the final block, so leave it for finalize.
                return;
            }
            // More input follows, so the buffered block is interior.
            let block = self.buf;
            self.cmac.aes.cmac_absorb(&mut self.x, &block);
            self.buffered = 0;
        }
        // Absorb every full block except a possible final one: keep at
        // least one byte back so finalize always has the last block.
        let full = (data.len() - 1) / 16 * 16;
        if full > 0 {
            self.cmac.aes.cmac_absorb(&mut self.x, &data[..full]);
        }
        let rest = &data[full..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Applies the RFC 4493 final-block treatment and returns the tag.
    pub fn finalize(self) -> Tag128 {
        crate::stats::note(self.total as usize);
        let mut x = self.x;
        let mut last = self.buf;
        self.cmac.finish_tail(&mut last, self.buffered);
        self.cmac.aes.cmac_absorb(&mut x, &last);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn rfc_key() -> [u8; 16] {
        hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap()
    }

    fn rfc_msg() -> Vec<u8> {
        hex("6bc1bee22e409f96e93d7e117393172a\
             ae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52ef\
             f69f2445df4f9b17ad2b417be66c3710")
    }

    fn backends() -> Vec<BackendKind> {
        let mut kinds = vec![BackendKind::Soft];
        if crate::backend::aesni_available() {
            kinds.push(BackendKind::AesNi);
        }
        kinds
    }

    /// RFC 4493 test vectors 1-4, on every backend.
    #[test]
    fn rfc4493_vectors() {
        for kind in backends() {
            let cmac = Cmac::with_backend(kind, &rfc_key());
            let msg = rfc_msg();

            assert_eq!(cmac.compute(b"").to_vec(), hex("bb1d6929e95937287fa37d129b756746"));
            assert_eq!(cmac.compute(&msg[..16]).to_vec(), hex("070a16b46b4d4144f79bdd9dd04a287c"));
            assert_eq!(cmac.compute(&msg[..40]).to_vec(), hex("dfa66747de9ae63030ca32611497c827"));
            assert_eq!(cmac.compute(&msg).to_vec(), hex("51f0bebf7e3b9d92fc49741779363cfe"));
        }
    }

    /// Subkey derivation from RFC 4493 section 4.
    #[test]
    fn rfc4493_subkeys() {
        let cmac = Cmac::new(&rfc_key());
        assert_eq!(cmac.k1.to_vec(), hex("fbeed618357133667c85e08f7236a8de"));
        assert_eq!(cmac.k2.to_vec(), hex("f7ddac306ae266ccf90bc11ee46d513b"));
    }

    #[test]
    fn parts_equal_concatenation() {
        let cmac = Cmac::new(&[0x42u8; 16]);
        let msg = rfc_msg();
        for split1 in [0usize, 1, 15, 16, 17, 31, 32, 40] {
            for split2 in [split1, split1 + 3, msg.len().min(split1 + 16)] {
                let split2 = split2.min(msg.len());
                let whole = cmac.compute(&msg);
                let parts =
                    cmac.compute_parts(&[&msg[..split1], &msg[split1..split2], &msg[split2..]]);
                assert_eq!(whole, parts, "split at {split1}/{split2}");
            }
        }
    }

    /// Streaming updates must match one-shot computation at every split
    /// of every length around the block boundary.
    #[test]
    fn ctx_streaming_matches_oneshot() {
        for kind in backends() {
            let cmac = Cmac::with_backend(kind, &[0x37u8; 16]);
            let msg: Vec<u8> = (0..80u8).collect();
            for len in 0..=msg.len() {
                let whole = cmac.compute(&msg[..len]);
                for split in 0..=len {
                    let mut ctx = cmac.ctx();
                    ctx.update(&msg[..split]);
                    ctx.update(&msg[split..len]);
                    assert_eq!(ctx.finalize(), whole, "len {len} split {split}");
                }
            }
        }
    }

    #[test]
    fn verify_rejects_tampering() {
        let cmac = Cmac::new(&[1u8; 16]);
        let mut tag = cmac.compute(b"shieldstore entry");
        assert!(cmac.verify(b"shieldstore entry", &tag));
        tag[0] ^= 1;
        assert!(!cmac.verify(b"shieldstore entry", &tag));
    }

    #[test]
    fn empty_parts_equal_empty_message() {
        let cmac = Cmac::new(&[9u8; 16]);
        assert_eq!(cmac.compute(b""), cmac.compute_parts(&[]));
        assert_eq!(cmac.compute(b""), cmac.compute_parts(&[b"", b""]));
    }
}
