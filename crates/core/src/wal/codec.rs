//! The record codec: how a batch of [`WalOp`]s becomes one sealed,
//! length-prefixed frame and back. The frame layout, the two bounds on a
//! record's length, the genesis and rotation tags and the op payload
//! encoding live here and nowhere else; [`super::frames`] is the one
//! reader of the length prefix and the one caller of
//! [`WalCodec::open_record`].

use shield_crypto::cmac::Cmac;
use shield_crypto::constant_time::ct_eq;
use shield_crypto::ctr::AesCtr;

use super::WalOp;
use crate::error::{Error, Result};

/// Largest accepted record body (`len` field value). Anything bigger is
/// treated as garbage rather than attempted as an allocation.
pub const MAX_RECORD_LEN: usize = 1 << 30;

/// Smallest possible record body: seq (8) + iv (16) + empty ct + mac (16).
pub(crate) const MIN_RECORD_LEN: usize = 8 + 16 + 16;

/// Domain-separation prefix for the chain's genesis tag.
const GENESIS_DOMAIN: &[u8] = b"shieldstore-wal-genesis-v1";

/// Domain-separation prefix for the rotation authenticator shipped to
/// replicas (see [`crate::repl`]): it binds "generation `g` ends at
/// `(last_seq, last_mac)` and continues as generation `g'`" under the
/// log MAC key, so a tampered replication stream cannot rebase a
/// replica onto a new generation early (silently dropping the old
/// generation's tail).
const ROTATE_DOMAIN: &[u8] = b"shieldstore-wal-rotate-v1";

/// Seals and opens WAL records. Public so integration tests can fuzz the
/// codec directly (see `tests/wal_codec.rs`); the store constructs one
/// from keys drawn from the enclave DRBG and carried in the sealed pin.
pub struct WalCodec {
    enc: AesCtr,
    mac: Cmac,
}

impl WalCodec {
    /// Builds a codec over raw encryption and MAC keys.
    pub fn new(enc_key: &[u8; 16], mac_key: &[u8; 16]) -> Self {
        WalCodec { enc: AesCtr::new(enc_key), mac: Cmac::new(mac_key) }
    }

    /// The chain's genesis tag for snapshot generation `snap` — what the
    /// first record's MAC chains from.
    pub fn genesis(&self, snap: u64) -> [u8; 16] {
        self.mac.compute_parts(&[GENESIS_DOMAIN, &snap.to_le_bytes()])
    }

    /// Authenticator for a generation handover in the replication
    /// stream: binds generation `gen` ending at `(last_seq, last_mac)`
    /// to its successor `next_gen` under the log MAC key. A replica
    /// recomputes this from its *own* verified chain position, so a
    /// tampered stream cannot rebase it early or onto a stale
    /// generation.
    pub fn rotation_tag(
        &self,
        gen: u64,
        last_seq: u64,
        last_mac: &[u8; 16],
        next_gen: u64,
    ) -> [u8; 16] {
        self.mac.compute_parts(&[
            ROTATE_DOMAIN,
            &gen.to_le_bytes(),
            &last_seq.to_le_bytes(),
            last_mac,
            &next_gen.to_le_bytes(),
        ])
    }

    /// Seals `ops` into a framed record (including the `len` prefix).
    /// Returns the frame and the record's MAC, which the next record
    /// chains from.
    pub fn seal_record(
        &self,
        seq: u64,
        prev_mac: &[u8; 16],
        ops: &[WalOp],
        iv: &[u8; 16],
    ) -> (Vec<u8>, [u8; 16]) {
        let mut ct = encode_ops(ops);
        self.enc.apply_keystream(iv, &mut ct);
        let len = (MIN_RECORD_LEN + ct.len()) as u32;
        let mac =
            self.mac.compute_parts(&[prev_mac, &seq.to_le_bytes(), &len.to_le_bytes(), iv, &ct]);
        let mut frame = Vec::with_capacity(4 + len as usize);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(iv);
        frame.extend_from_slice(&ct);
        frame.extend_from_slice(&mac);
        (frame, mac)
    }

    /// Verifies and decrypts one record body (the bytes *after* the `len`
    /// prefix). `expect_seq` is the next sequence number in the chain and
    /// `prev_mac` the previous record's MAC (or the genesis tag). Returns
    /// the decoded ops and this record's MAC. Fails closed with
    /// [`Error::LogIntegrity`] on any mismatch.
    pub fn open_record(
        &self,
        expect_seq: u64,
        prev_mac: &[u8; 16],
        body: &[u8],
    ) -> Result<(Vec<WalOp>, [u8; 16])> {
        let fail = Error::LogIntegrity { seq: expect_seq };
        if body.len() < MIN_RECORD_LEN || body.len() > MAX_RECORD_LEN {
            return Err(fail);
        }
        let len = body.len() as u32;
        let seq = u64::from_le_bytes(body[..8].try_into().unwrap());
        if seq != expect_seq {
            return Err(fail);
        }
        let mut iv = [0u8; 16];
        iv.copy_from_slice(&body[8..24]);
        let ct = &body[24..body.len() - 16];
        let mac: [u8; 16] = body[body.len() - 16..].try_into().unwrap();
        let expect =
            self.mac.compute_parts(&[prev_mac, &seq.to_le_bytes(), &len.to_le_bytes(), &iv, ct]);
        if !ct_eq(&expect, &mac) {
            return Err(fail);
        }
        let mut plain = ct.to_vec();
        self.enc.apply_keystream(&iv, &mut plain);
        let ops = decode_ops(&plain).ok_or(fail)?;
        Ok((ops, mac))
    }
}

/// Payload plaintext: op count (u32) then per op a tag byte (0 = set,
/// 1 = delete), tenant (u32), key length (u32), key bytes, and for sets
/// a value length (u32) plus value bytes and the expiry deadline (u64).
fn encode_ops(ops: &[WalOp]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + ops.len() * 24);
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        match op {
            WalOp::Set { tenant, key, value, expires_at } => {
                out.push(0);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key);
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
                out.extend_from_slice(&expires_at.to_le_bytes());
            }
            WalOp::Delete { tenant, key } => {
                out.push(1);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key);
            }
        }
    }
    out
}

fn decode_ops(bytes: &[u8]) -> Option<Vec<WalOp>> {
    fn take<'a>(bytes: &'a [u8], off: &mut usize, n: usize) -> Option<&'a [u8]> {
        let s = bytes.get(*off..off.checked_add(n)?)?;
        *off += n;
        Some(s)
    }
    fn take_u32(bytes: &[u8], off: &mut usize) -> Option<usize> {
        let raw = take(bytes, off, 4)?;
        Some(u32::from_le_bytes(raw.try_into().unwrap()) as usize)
    }
    let mut off = 0;
    let count = take_u32(bytes, &mut off)?;
    if count > bytes.len() {
        return None; // every op costs at least one byte
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let tag = *take(bytes, &mut off, 1)?.first()?;
        let tenant = u32::from_le_bytes(take(bytes, &mut off, 4)?.try_into().unwrap());
        let klen = take_u32(bytes, &mut off)?;
        let key = take(bytes, &mut off, klen)?.to_vec();
        match tag {
            0 => {
                let vlen = take_u32(bytes, &mut off)?;
                let value = take(bytes, &mut off, vlen)?.to_vec();
                let expires_at = u64::from_le_bytes(take(bytes, &mut off, 8)?.try_into().unwrap());
                ops.push(WalOp::Set { tenant, key, value, expires_at });
            }
            1 => ops.push(WalOp::Delete { tenant, key }),
            _ => return None,
        }
    }
    if off != bytes.len() {
        return None; // trailing garbage fails closed
    }
    Some(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(k: &str, v: &str) -> WalOp {
        WalOp::Set {
            tenant: 0,
            key: k.as_bytes().to_vec(),
            value: v.as_bytes().to_vec(),
            expires_at: 0,
        }
    }

    #[test]
    fn codec_roundtrip_and_chaining() {
        let codec = WalCodec::new(&[1; 16], &[2; 16]);
        let g = codec.genesis(0);
        let ops1 = vec![set("a", "1"), WalOp::Delete { tenant: 0, key: b"b".to_vec() }];
        let (f1, m1) = codec.seal_record(1, &g, &ops1, &[3; 16]);
        let (got, m1b) = codec.open_record(1, &g, &f1[4..]).unwrap();
        assert_eq!(got, ops1);
        assert_eq!(m1, m1b);
        // Record 2 chains off record 1's MAC; opening it against genesis
        // (splice to front) fails.
        let (f2, _) = codec.seal_record(2, &m1, &[set("c", "3")], &[4; 16]);
        assert!(codec.open_record(2, &m1, &f2[4..]).is_ok());
        assert_eq!(codec.open_record(2, &g, &f2[4..]), Err(Error::LogIntegrity { seq: 2 }));
        // Wrong sequence number fails even with the right chain.
        assert_eq!(codec.open_record(3, &m1, &f2[4..]), Err(Error::LogIntegrity { seq: 3 }));
    }

    #[test]
    fn decode_ops_rejects_malformed() {
        assert_eq!(decode_ops(&[]), None);
        assert_eq!(decode_ops(&1u32.to_le_bytes()), None); // count without body
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_ops(&huge), None);
        let empty = encode_ops(&[]);
        assert_eq!(decode_ops(&empty), Some(Vec::new()));
        let mut trailing = encode_ops(&[]);
        trailing.push(0);
        assert_eq!(decode_ops(&trailing), None);
    }
}
