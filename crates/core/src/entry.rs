//! The data-entry format (paper Fig. 5, extended with tenancy).
//!
//! Each key-value pair is stored in untrusted memory as one entry:
//!
//! ```text
//! offset  size  field
//! 0       8     next       chain pointer (handle; 0 terminates)
//! 8       1     key hint   1-byte keyed hash of the plaintext key (§5.4)
//! 9       4     key size   u32 LE
//! 13      4     value size u32 LE
//! 17      4     tenant     u32 LE owning-tenant id (0 = default tenant)
//! 21      8     expires_at u64 LE absolute deadline in ns (0 = no TTL)
//! 29      16    IV/counter combined field, incremented per re-encryption
//! 45      k+v   Enc(key ‖ value)  AES-CTR under the TENANT's derived key
//! 45+k+v  16    MAC        CMAC over (enc key/value, sizes, hint, tenant,
//!                          expiry, IV/ctr) under the TENANT's derived key —
//!                          here only without MAC bucketing
//! ```
//!
//! An entry's tag exists once. Without MAC bucketing it follows the
//! ciphertext, in Fig. 5's order; with it (§5.2) it lives only in the
//! entry's slot of its bucket's MAC nodes ([`crate::mac_bucket`]), and the
//! entry ends with its ciphertext. [`TagHome`] says which, and
//! [`crate::table::TableCtx::tags`] is the one reader of either.
//!
//! The `next` pointer is *not* covered by the MAC: the paper deliberately
//! leaves index structure unprotected (confidentiality and integrity of
//! keys and values are what matter; chain tampering can at worst harm
//! availability, and the bucket-set hash detects entry removal/replay).
//!
//! The tenant id and expiry deadline are plaintext so a chain walk can
//! skip foreign-tenant entries and spot dead ones without decrypting,
//! but both are MAC-covered — and, crucially, the MAC key itself is the
//! per-tenant derived key, so rewriting the tenant field re-routes
//! verification to a key under which the tag cannot match. A ciphertext
//! re-stitched into another tenant's namespace fails closed twice over:
//! the entry MAC verifies under the wrong key, and the bucket-set hash
//! (keyed under the master key the attacker never sees) no longer
//! matches.

use crate::alloc::Handle;
use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shield_crypto::fused::{Beside, Opened};
use shield_crypto::Tag128;

/// Byte offset of the `next` handle.
pub const OFF_NEXT: usize = 0;
/// Byte offset of the key hint.
pub const OFF_HINT: usize = 8;
/// Byte offset of the key size.
pub const OFF_KEY_LEN: usize = 9;
/// Byte offset of the value size.
pub const OFF_VAL_LEN: usize = 13;
/// Byte offset of the owning tenant id.
pub const OFF_TENANT: usize = 17;
/// Byte offset of the expiry deadline (ns; 0 = none).
pub const OFF_EXPIRY: usize = 21;
/// Byte offset of the IV/counter.
pub const OFF_IV: usize = 29;
/// Total header length; the encrypted key/value follows.
pub const HEADER_LEN: usize = 45;
/// Length of an entry's tag.
pub const TAG_LEN: usize = 16;

/// Where a table keeps its entries' tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagHome {
    /// In the entry's MAC-node slot (MAC bucketing, §5.2): the entry ends
    /// with its ciphertext.
    Slot,
    /// After the entry's ciphertext (Fig. 5).
    Suffix,
}

impl TagHome {
    /// Where a store configured with or without MAC bucketing keeps them.
    pub fn of(mac_bucket: bool) -> Self {
        if mac_bucket {
            TagHome::Slot
        } else {
            TagHome::Suffix
        }
    }

    /// What the tag adds to an entry in memory.
    pub fn suffix_len(self) -> usize {
        match self {
            TagHome::Slot => 0,
            TagHome::Suffix => TAG_LEN,
        }
    }
}

/// Parsed entry header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryHeader {
    /// Next entry in the bucket chain (0 = end).
    pub next: Handle,
    /// 1-byte key hint.
    pub hint: u8,
    /// Plaintext key length.
    pub key_len: u32,
    /// Plaintext value length.
    pub val_len: u32,
    /// Owning tenant.
    pub tenant: u32,
    /// Absolute expiry deadline in nanoseconds (0 = no TTL).
    pub expires_at: u64,
    /// Combined IV/counter.
    pub iv: [u8; 16],
}

impl EntryHeader {
    /// Header and ciphertext: what the tag covers besides the `next`
    /// pointer, and where a suffix tag starts.
    pub fn sealed_len(&self) -> usize {
        HEADER_LEN + self.ct_len()
    }

    /// Total entry size in memory when its tags live at `home`.
    pub fn entry_len(&self, home: TagHome) -> usize {
        self.sealed_len() + home.suffix_len()
    }

    /// Ciphertext length (key + value).
    pub fn ct_len(&self) -> usize {
        self.key_len as usize + self.val_len as usize
    }

    /// True when the entry's TTL deadline has passed at `now_ns`.
    /// Entries without a TTL (`expires_at == 0`) never expire.
    pub fn expired_at(&self, now_ns: u64) -> bool {
        self.expires_at != 0 && now_ns >= self.expires_at
    }
}

/// Parses the fixed header from an entry's first [`HEADER_LEN`] bytes.
pub fn parse_header(bytes: &[u8]) -> EntryHeader {
    EntryHeader {
        next: u64::from_le_bytes(bytes[OFF_NEXT..OFF_NEXT + 8].try_into().expect("8 bytes")),
        hint: bytes[OFF_HINT],
        key_len: u32::from_le_bytes(
            bytes[OFF_KEY_LEN..OFF_KEY_LEN + 4].try_into().expect("4 bytes"),
        ),
        val_len: u32::from_le_bytes(
            bytes[OFF_VAL_LEN..OFF_VAL_LEN + 4].try_into().expect("4 bytes"),
        ),
        tenant: u32::from_le_bytes(bytes[OFF_TENANT..OFF_TENANT + 4].try_into().expect("4 bytes")),
        expires_at: u64::from_le_bytes(
            bytes[OFF_EXPIRY..OFF_EXPIRY + 8].try_into().expect("8 bytes"),
        ),
        iv: bytes[OFF_IV..OFF_IV + 16].try_into().expect("16 bytes"),
    }
}

/// Length of [`mac_trailer`]: the six authenticated header fields.
pub const TRAILER_LEN: usize = HEADER_LEN - OFF_HINT;

/// The authenticated header fields in MAC order —
/// `key_len ‖ val_len ‖ hint ‖ tenant ‖ expires_at ‖ iv`, Fig. 5 extended
/// with the tenancy fields. An entry's MAC is the CMAC of its ciphertext
/// followed by this trailer; sealing, opening and verifying all take the
/// field list from here.
pub fn mac_trailer(header: &EntryHeader) -> [u8; TRAILER_LEN] {
    let mut trailer = [0u8; TRAILER_LEN];
    trailer[..4].copy_from_slice(&header.key_len.to_le_bytes());
    trailer[4..8].copy_from_slice(&header.val_len.to_le_bytes());
    trailer[8] = header.hint;
    trailer[9..13].copy_from_slice(&header.tenant.to_le_bytes());
    trailer[13..21].copy_from_slice(&header.expires_at.to_le_bytes());
    trailer[21..].copy_from_slice(&header.iv);
    trailer
}

/// Computes the MAC `header` and `ciphertext` should carry: CMAC over
/// `ciphertext ‖ mac_trailer(header)`. The `cmac` must be the owning
/// tenant's derived MAC key.
pub fn compute_mac(cmac: &Cmac, header: &EntryHeader, ciphertext: &[u8]) -> Tag128 {
    cmac.compute_parts(&[ciphertext, &mac_trailer(header)])
}

/// [`compute_mac`] with a second CMAC — the bucket set's — verified in the
/// same pass (two MAC lanes, no keystream); also returns whether it matched
/// (`true` without one). A write proves the entry it replaces this way.
pub fn compute_mac_beside(
    beside: Option<Beside<'_>>,
    cmac: &Cmac,
    header: &EntryHeader,
    ciphertext: &[u8],
) -> (Tag128, bool) {
    shield_crypto::fused::mac_beside(beside, cmac, ciphertext, &[&mac_trailer(header)])
}

/// Encrypts `key ‖ value` and writes the entry's header and ciphertext
/// into `buf` (`buf.len()` must equal `HEADER_LEN + key.len() +
/// value.len()`), the MAC following the keystream through the ciphertext
/// in one pass. Returns the MAC, for the caller to put where the table
/// keeps its tags.
///
/// `enc`/`cmac` must be the owning tenant's derived keys.
#[allow(clippy::too_many_arguments)]
pub fn encode_into(
    buf: &mut [u8],
    next: Handle,
    hint: u8,
    tenant: u32,
    expires_at: u64,
    iv: &[u8; 16],
    key: &[u8],
    value: &[u8],
    enc: &AesCtr,
    cmac: &Cmac,
) -> Tag128 {
    let (key_len, val_len) = (key.len() as u32, value.len() as u32);
    debug_assert_eq!(buf.len(), HEADER_LEN + key.len() + value.len());
    let header = EntryHeader { next, hint, key_len, val_len, tenant, expires_at, iv: *iv };

    buf[OFF_NEXT..OFF_NEXT + 8].copy_from_slice(&next.to_le_bytes());
    buf[OFF_HINT] = hint;
    buf[OFF_KEY_LEN..OFF_KEY_LEN + 4].copy_from_slice(&key_len.to_le_bytes());
    buf[OFF_VAL_LEN..OFF_VAL_LEN + 4].copy_from_slice(&val_len.to_le_bytes());
    buf[OFF_TENANT..OFF_TENANT + 4].copy_from_slice(&tenant.to_le_bytes());
    buf[OFF_EXPIRY..OFF_EXPIRY + 8].copy_from_slice(&expires_at.to_le_bytes());
    buf[OFF_IV..OFF_IV + 16].copy_from_slice(iv);

    let ct = &mut buf[HEADER_LEN..];
    ct[..key.len()].copy_from_slice(key);
    ct[key.len()..].copy_from_slice(value);
    shield_crypto::fused::seal(enc, cmac, iv, &[], ct, &[&mac_trailer(&header)])
}

/// Decrypts only the key prefix of an entry's ciphertext.
///
/// Searching a chain only needs key comparisons; decrypting the value too
/// would waste exactly the work the key-hint optimization is trying to
/// save (§5.4).
pub fn decrypt_key(enc: &AesCtr, header: &EntryHeader, ciphertext: &[u8]) -> Vec<u8> {
    let mut key = ciphertext[..header.key_len as usize].to_vec();
    enc.apply_keystream(&header.iv, &mut key);
    key
}

/// Allocation-free [`decrypt_key`] comparison: decrypts the key prefix
/// into `scratch` (reusing its capacity) and compares against `key`.
///
/// The chain search runs this once per candidate entry, so the hot path
/// borrows the shard's scratch buffer instead of allocating a `Vec` per
/// probe.
pub fn key_matches(
    enc: &AesCtr,
    header: &EntryHeader,
    ciphertext: &[u8],
    key: &[u8],
    scratch: &mut Vec<u8>,
) -> bool {
    let key_len = header.key_len as usize;
    if key_len != key.len() || ciphertext.len() < key_len {
        return false;
    }
    scratch.clear();
    scratch.extend_from_slice(&ciphertext[..key_len]);
    enc.apply_keystream(&header.iv, scratch);
    scratch == key
}

/// Fused verify + decrypt of one entry against the `tag` it must have:
/// the MAC chain and the keystream advance through the ciphertext
/// together, then the tag is checked (constant time) *before* any
/// plaintext is released.
///
/// On success `out` holds `key ‖ value`; on tamper `out` is wiped and
/// emptied and `false` is returned — the exact fail-closed behavior of
/// [`verify_mac`] followed by [`decrypt_entry`], in the time of one.
pub fn open_entry(
    enc: &AesCtr,
    cmac: &Cmac,
    header: &EntryHeader,
    ciphertext: &[u8],
    tag: &[u8],
    out: &mut Vec<u8>,
) -> bool {
    let accept = |computed: &Tag128| shield_crypto::constant_time::ct_eq(computed, tag);
    open_entry_beside(None, enc, cmac, header, ciphertext, accept, out) == Opened::Verified
}

/// [`open_entry`] with a second CMAC — the bucket set's — verified in the
/// same pass and reported first, and the computed tag judged by `accept`:
/// a hit looks for it in its slot first and among its bucket's second.
pub fn open_entry_beside(
    beside: Option<Beside<'_>>,
    enc: &AesCtr,
    cmac: &Cmac,
    header: &EntryHeader,
    ciphertext: &[u8],
    accept: impl FnOnce(&Tag128) -> bool,
    out: &mut Vec<u8>,
) -> Opened {
    shield_crypto::fused::open_verify_beside(
        beside,
        enc,
        cmac,
        &header.iv,
        &[],
        ciphertext,
        &[&mac_trailer(header)],
        accept,
        out,
    )
}

/// Decrypts an entry's full plaintext, returning `(key, value)`.
pub fn decrypt_entry(enc: &AesCtr, header: &EntryHeader, ciphertext: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut plain = ciphertext.to_vec();
    enc.apply_keystream(&header.iv, &mut plain);
    let value = plain.split_off(header.key_len as usize);
    (plain, value)
}

/// Verifies an entry's contents against the `tag` it must have.
pub fn verify_mac(cmac: &Cmac, header: &EntryHeader, ciphertext: &[u8], tag: &[u8]) -> bool {
    shield_crypto::constant_time::ct_eq(&compute_mac(cmac, header, ciphertext), tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ciphers() -> (AesCtr, Cmac) {
        (AesCtr::new(&[1u8; 16]), Cmac::new(&[2u8; 16]))
    }

    #[test]
    fn encode_parse_decrypt_roundtrip() {
        let (enc, cmac) = ciphers();
        let key = b"user:1234";
        let value = b"some value payload";
        let mut buf = vec![0u8; HEADER_LEN + key.len() + value.len()];
        let iv = [9u8; 16];
        let mac = encode_into(&mut buf, 0xdeadbeef, 0x5a, 7, 12345, &iv, key, value, &enc, &cmac);

        let header = parse_header(&buf);
        assert_eq!(header.next, 0xdeadbeef);
        assert_eq!(header.hint, 0x5a);
        assert_eq!(header.key_len, key.len() as u32);
        assert_eq!(header.val_len, value.len() as u32);
        assert_eq!(header.tenant, 7);
        assert_eq!(header.expires_at, 12345);
        assert_eq!(header.iv, iv);
        assert_eq!(header.sealed_len(), buf.len());
        assert_eq!(header.entry_len(TagHome::Slot), buf.len());
        assert_eq!(header.entry_len(TagHome::Suffix), buf.len() + TAG_LEN);

        let ct = &buf[HEADER_LEN..];
        assert_ne!(&ct[..key.len()], key, "key must be encrypted");
        let (k, v) = decrypt_entry(&enc, &header, ct);
        assert_eq!(k, key);
        assert_eq!(v, value);
        assert_eq!(decrypt_key(&enc, &header, ct), key);
        assert!(verify_mac(&cmac, &header, ct, &mac));
    }

    #[test]
    fn mac_binds_every_field() {
        let (enc, cmac) = ciphers();
        let mut buf = vec![0u8; HEADER_LEN + 4 + 4];
        let mac = encode_into(&mut buf, 0, 7, 3, 99, &[3u8; 16], b"abcd", b"wxyz", &enc, &cmac);
        let pristine = buf.clone();

        // Tamper with each MAC-covered region and expect rejection.
        for &offset in &[
            OFF_HINT,
            OFF_KEY_LEN,
            OFF_VAL_LEN,
            OFF_TENANT,
            OFF_EXPIRY,
            OFF_IV,
            HEADER_LEN,
            buf.len() - 1,
        ] {
            let mut t = pristine.clone();
            t[offset] ^= 1;
            let header = parse_header(&t);
            assert!(
                !verify_mac(&cmac, &header, &t[HEADER_LEN..], &mac),
                "tampering at offset {offset} must be detected"
            );
        }

        // The chain pointer is intentionally NOT covered.
        let mut t = pristine;
        t[OFF_NEXT] ^= 1;
        let header = parse_header(&t);
        assert!(verify_mac(&cmac, &header, &t[HEADER_LEN..], &mac));
    }

    /// The tag of one fixed entry, recorded before the six authenticated
    /// fields moved into [`mac_trailer`]: the MAC input is bit-identical.
    #[test]
    fn golden_tag() {
        let (enc, cmac) = ciphers();
        let (key, value) = (b"golden-key", [0xa5u8; 45]);
        let mut buf = vec![0u8; HEADER_LEN + key.len() + value.len()];
        let iv: [u8; 16] = core::array::from_fn(|i| 0xf0 + i as u8);
        let mac = encode_into(
            &mut buf,
            0x1122_3344,
            0x5a,
            0x0708_090a,
            0x0102_0304_0506_0708,
            &iv,
            key,
            &value,
            &enc,
            &cmac,
        );
        assert_eq!(
            mac,
            [
                0x6f, 0xb6, 0x46, 0xb3, 0xbd, 0x3d, 0x45, 0xfd, 0xfe, 0x6e, 0x27, 0x5b, 0x7c, 0xff,
                0xbb, 0xde
            ]
        );
        let header = parse_header(&buf);
        assert!(verify_mac(&cmac, &header, &buf[HEADER_LEN..], &mac));
        let mut plain = Vec::new();
        assert!(open_entry(&enc, &cmac, &header, &buf[HEADER_LEN..], &mac, &mut plain));
        assert_eq!(compute_mac_beside(None, &cmac, &header, &buf[HEADER_LEN..]), (mac, true));
        assert_eq!(plain, [key.as_slice(), &value].concat());
    }

    #[test]
    fn expiry_deadline_semantics() {
        let h = EntryHeader {
            next: 0,
            hint: 0,
            key_len: 1,
            val_len: 1,
            tenant: 0,
            expires_at: 0,
            iv: [0; 16],
        };
        assert!(!h.expired_at(u64::MAX), "no TTL never expires");
        let h = EntryHeader { expires_at: 100, ..h };
        assert!(!h.expired_at(99));
        assert!(h.expired_at(100), "deadline is inclusive");
        assert!(h.expired_at(101));
    }

    #[test]
    fn empty_value_supported() {
        let (enc, cmac) = ciphers();
        let mut buf = vec![0u8; HEADER_LEN + 3];
        encode_into(&mut buf, 0, 0, 0, 0, &[0u8; 16], b"abc", b"", &enc, &cmac);
        let header = parse_header(&buf);
        let (k, v) = decrypt_entry(&enc, &header, &buf[HEADER_LEN..]);
        assert_eq!(k, b"abc");
        assert!(v.is_empty());
    }

    #[test]
    fn distinct_ivs_distinct_ciphertexts() {
        let (enc, cmac) = ciphers();
        let mut b1 = vec![0u8; HEADER_LEN + 8];
        let mut b2 = vec![0u8; HEADER_LEN + 8];
        encode_into(&mut b1, 0, 0, 0, 0, &[1u8; 16], b"key1", b"val1", &enc, &cmac);
        encode_into(&mut b2, 0, 0, 0, 0, &[2u8; 16], b"key1", b"val1", &enc, &cmac);
        assert_ne!(&b1[HEADER_LEN..], &b2[HEADER_LEN..]);
    }

    #[test]
    fn header_offsets_are_packed() {
        assert_eq!(OFF_NEXT, 0);
        assert_eq!(OFF_HINT, 8);
        assert_eq!(OFF_KEY_LEN, 9);
        assert_eq!(OFF_VAL_LEN, 13);
        assert_eq!(OFF_TENANT, 17);
        assert_eq!(OFF_EXPIRY, 21);
        assert_eq!(OFF_IV, 29);
        assert_eq!(HEADER_LEN, 45);
        assert_eq!(TRAILER_LEN, 37);
    }
}
