//! SGX-style data sealing.
//!
//! Sealing encrypts enclave data so it can survive outside the enclave
//! (e.g. ShieldStore's snapshot metadata, paper §4.4). The sealing key is
//! derived from the platform fuse key and the enclave measurement
//! (`MRENCLAVE` policy): only the same enclave on the same platform can
//! unseal. Blobs are AES-CTR encrypted and CMAC authenticated.

use crate::enclave::Enclave;
use crate::SimError;
use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shield_crypto::hmac::derive_key128;

/// Sealed blob layout: `[iv (16) | ciphertext | mac (16)]`.
const IV_LEN: usize = 16;
const MAC_LEN: usize = 16;

/// The sealing keys of one enclave identity, expanded: derived once, when
/// the enclave is built ([`crate::enclave::EnclaveBuilder::build`]), since
/// every group commit of the log seals a pin.
pub(crate) struct SealKeys {
    ctr: AesCtr,
    cmac: Cmac,
}

impl SealKeys {
    pub(crate) fn derive(measurement: &[u8; 32], fuse_key: &[u8; 32]) -> Self {
        let enc = derive_key128(measurement, fuse_key, b"seal-enc-v1");
        let mac = derive_key128(measurement, fuse_key, b"seal-mac-v1");
        Self { ctr: AesCtr::new(&enc), cmac: Cmac::new(&mac) }
    }
}

/// Seals `plaintext` under the enclave's identity.
///
/// # Examples
///
/// ```
/// use sgx_sim::enclave::EnclaveBuilder;
/// use sgx_sim::seal::{seal, unseal};
///
/// let e = EnclaveBuilder::new("sealer").build();
/// let blob = seal(&e, b"snapshot metadata");
/// assert_eq!(unseal(&e, &blob).unwrap(), b"snapshot metadata");
/// ```
pub fn seal(enclave: &Enclave, plaintext: &[u8]) -> Vec<u8> {
    let SealKeys { ctr, cmac } = enclave.seal_keys();
    let iv = enclave.read_rand_block();
    let mut out = Vec::with_capacity(IV_LEN + plaintext.len() + MAC_LEN);
    out.extend_from_slice(&iv);
    out.extend_from_slice(plaintext);
    ctr.apply_keystream(&iv, &mut out[IV_LEN..]);
    let mac = cmac.compute(&out);
    out.extend_from_slice(&mac);
    out
}

/// Unseals a blob produced by [`seal`] in the same enclave identity.
///
/// Returns [`SimError::SealVerify`] on truncation or tampering.
pub fn unseal(enclave: &Enclave, blob: &[u8]) -> Result<Vec<u8>, SimError> {
    if blob.len() < IV_LEN + MAC_LEN {
        return Err(SimError::SealVerify);
    }
    let (body, mac) = blob.split_at(blob.len() - MAC_LEN);
    let SealKeys { ctr, cmac } = enclave.seal_keys();
    let expected = cmac.compute(body);
    if !shield_crypto::constant_time::ct_eq(&expected, mac) {
        return Err(SimError::SealVerify);
    }
    let iv: [u8; 16] = body[..IV_LEN].try_into().expect("checked length");
    let mut plain = body[IV_LEN..].to_vec();
    ctr.apply_keystream(&iv, &mut plain);
    Ok(plain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveBuilder;

    #[test]
    fn roundtrip() {
        let e = EnclaveBuilder::new("s").build();
        let blob = seal(&e, b"hello");
        assert_eq!(unseal(&e, &blob).unwrap(), b"hello");
    }

    #[test]
    fn empty_plaintext() {
        let e = EnclaveBuilder::new("s").build();
        let blob = seal(&e, b"");
        assert_eq!(unseal(&e, &blob).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn tampering_detected() {
        let e = EnclaveBuilder::new("s").build();
        let mut blob = seal(&e, b"integrity matters");
        blob[IV_LEN + 2] ^= 0x80;
        assert_eq!(unseal(&e, &blob), Err(SimError::SealVerify));
    }

    #[test]
    fn truncation_detected() {
        let e = EnclaveBuilder::new("s").build();
        let blob = seal(&e, b"x");
        assert_eq!(unseal(&e, &blob[..10]), Err(SimError::SealVerify));
    }

    #[test]
    fn different_enclave_cannot_unseal() {
        let a = EnclaveBuilder::new("alpha").build();
        let b = EnclaveBuilder::new("beta").build();
        let blob = seal(&a, b"secret");
        assert_eq!(unseal(&b, &blob), Err(SimError::SealVerify));
    }

    #[test]
    fn same_identity_fresh_instance_can_unseal() {
        // Same name + same platform seed => same sealing keys, as with
        // MRENCLAVE-policy sealing across enclave restarts.
        let a = EnclaveBuilder::new("kv").seed(5).build();
        let blob = seal(&a, b"persisted");
        let a2 = EnclaveBuilder::new("kv").seed(5).build();
        assert_eq!(unseal(&a2, &blob).unwrap(), b"persisted");
    }

    #[test]
    fn seal_is_randomized() {
        let e = EnclaveBuilder::new("s").build();
        assert_ne!(seal(&e, b"same"), seal(&e, b"same"));
    }
}
