//! Self-contained cryptographic primitives for the ShieldStore reproduction.
//!
//! The original ShieldStore (EuroSys 2019) uses the Intel SGX SDK crypto
//! library: `sgx_aes_ctr_encrypt` for counter-mode encryption of key-value
//! entries, `sgx_rijndael128_cmac` for integrity MACs, and `sgx_read_rand`
//! for IV generation. This crate provides equivalents implemented from
//! scratch so that the "enclave" code of the reproduction has no external
//! crypto dependencies:
//!
//! * [`aes`] — AES-128 block cipher (FIPS 197), table-based.
//! * [`aesni`] — AES-128 via x86-64 AES-NI instructions (hardware path).
//! * [`backend`] — runtime dispatch between the two implementations,
//!   detected once per process and overridable with the
//!   `SHIELDSTORE_CRYPTO_BACKEND` environment variable; also the
//!   definition of the lockstep operation (two CBC-MAC chains and a CTR
//!   stream advanced together) that [`aesni`] has a kernel for.
//! * [`ctr`] — AES-128 counter mode ([`ctr::AesCtr`]), the entry cipher.
//! * [`cmac`] — AES-CMAC (RFC 4493), the entry/bucket MAC.
//! * [`fused`] — fused open (MAC-verify + CTR-decrypt) and seal
//!   (CTR-encrypt + MAC) as one lockstep pass, with a second MAC beside.
//! * [`hint`] — cache-line prefetch hints over a slice (x86-64
//!   `PREFETCHT0`, a no-op elsewhere), for lookups that know their next
//!   untrusted-memory address before they need its bytes.
//! * [`sha256`] — SHA-256 (FIPS 180-4), used for enclave measurements.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104) and an HKDF-style KDF.
//! * [`siphash`] — SipHash-2-4, the keyed hash for bucket indices and the
//!   1-byte key hint (paper §5.4).
//! * [`x25519`] — Curve25519 Diffie-Hellman (RFC 7748) for the
//!   client/server session-key exchange (paper §3.2).
//! * [`drbg`] — a ChaCha20-based deterministic random bit generator that
//!   stands in for `sgx_read_rand`.
//!
//! All primitives carry their published test vectors in unit tests.
//!
//! # Examples
//!
//! ```
//! use shield_crypto::ctr::AesCtr;
//! use shield_crypto::cmac::Cmac;
//!
//! let key = [0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
//!            0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c];
//! let cipher = AesCtr::new(&key);
//! let mut data = *b"attack at dawn!!";
//! let iv = [7u8; 16];
//! cipher.apply_keystream(&iv, &mut data);
//! assert_ne!(&data, b"attack at dawn!!");
//! cipher.apply_keystream(&iv, &mut data);
//! assert_eq!(&data, b"attack at dawn!!");
//!
//! let mac = Cmac::new(&key).compute(&data);
//! assert_eq!(mac.len(), 16);
//! ```

// `unsafe` is denied crate-wide and allowed back in exactly two places:
// the [`aesni`] module and the one prefetch intrinsic in [`hint`]. Each
// intrinsic call carries a documented safety contract (and
// `unsafe_op_in_unsafe_fn` keeps every one explicit).
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod aes;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod aesni;
pub mod backend;
pub mod cmac;
pub mod constant_time;
pub mod ctr;
pub mod drbg;
pub mod fused;
#[allow(unsafe_code)]
pub mod hint;
pub mod hmac;
pub mod sha256;
pub mod siphash;
pub mod stats;
pub mod x25519;

/// Length in bytes of an AES-128 key, block, IV/counter, and CMAC tag.
pub const BLOCK_LEN: usize = 16;

/// A 128-bit key used by AES-CTR and AES-CMAC.
pub type Key128 = [u8; 16];

/// A 128-bit MAC tag.
pub type Tag128 = [u8; 16];
