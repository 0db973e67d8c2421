//! The record codec: how a batch of [`WalOp`]s becomes one sealed,
//! length-prefixed frame and back. The frame layout, the two bounds on a
//! record's length, the genesis and rotation tags and the op payload
//! encoding live here and nowhere else; [`super::frames`] is the one
//! reader of the length prefix and the one caller of
//! [`WalCodec::open_record`].

use sgx_sim::bytes::{Parsed, Reader, Writer};
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
        let frame = &mut Writer::with_capacity(4 + len as usize);
        (frame.u32(len).u64(seq).bytes(iv).bytes(&ct).bytes(&mac).done(), mac)
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
        // [seq u64 | iv (16) | ciphertext | mac (16)]
        let record = Reader::whole(body, "log record", |r| -> Parsed<_> {
            let (seq, iv) = (r.u64()?, r.array::<16>()?);
            let ct = r.bytes(r.remaining().saturating_sub(16))?;
            Ok((seq, iv, ct, r.array::<16>()?))
        });
        let Ok((seq, iv, ct, mac)) = record else { return Err(fail) };
        if seq != expect_seq || body.len() > MAX_RECORD_LEN {
            return Err(fail);
        }
        let len = (body.len() as u32).to_le_bytes();
        let expect = self.mac.compute_parts(&[prev_mac, &seq.to_le_bytes(), &len, &iv, ct]);
        if !ct_eq(&expect, &mac) {
            return Err(fail);
        }
        let mut plain = ct.to_vec();
        self.enc.apply_keystream(&iv, &mut plain);
        let ops = decode_ops(&plain).map_err(|_| fail)?;
        Ok((ops, mac))
    }
}

/// Payload plaintext: op count (u32) then per op a tag byte (0 = set,
/// 1 = delete), tenant (u32), key length (u32), key bytes, and for sets
/// a value length (u32) plus value bytes and the expiry deadline (u64).
fn encode_ops(ops: &[WalOp]) -> Vec<u8> {
    let w = &mut Writer::with_capacity(4 + ops.len() * 24);
    w.length(ops.len());
    for op in ops {
        match op {
            WalOp::Set { tenant, key, value, expires_at } => {
                w.u8(0).u32(*tenant).slice(key).slice(value).u64(*expires_at)
            }
            WalOp::Delete { tenant, key } => w.u8(1).u32(*tenant).slice(key),
        };
    }
    w.done()
}

fn decode_ops(bytes: &[u8]) -> Parsed<Vec<WalOp>> {
    Reader::whole(bytes, "log ops", |r| {
        // Every op carries at least its tag, tenant and key length.
        r.batch(9, |r| {
            let (tag, tenant, key) = (r.u8()?, r.u32()?, r.slice()?.to_vec());
            Ok(match tag {
                0 => WalOp::Set { tenant, key, value: r.slice()?.to_vec(), expires_at: r.u64()? },
                1 => WalOp::Delete { tenant, key },
                _ => return Err(r.fail("unknown op in")),
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;

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
        let decode = |bytes: &[u8]| decode_ops(bytes).ok();
        assert_eq!(decode(&[]), None);
        assert_eq!(decode(&1u32.to_le_bytes()), None); // count without body
        assert_eq!(decode(&u32::MAX.to_le_bytes()), None);
        let empty = encode_ops(&[]);
        assert_eq!(decode(&empty), Some(Vec::new()));
        let mut trailing = encode_ops(&[]);
        trailing.push(0);
        assert_eq!(decode(&trailing), None);
    }

    /// Op payloads as `encode_ops` lays them out, except that a tag may
    /// be unknown (2), the count one too many, or a byte left over.
    fn ops_bytes() -> impl Strategy<Value = Vec<u8>> {
        let op = (0u8..3, any::<u32>(), pvec(any::<u8>(), 0..4), pvec(any::<u8>(), 0..4));
        (pvec((op, any::<u64>()), 0..4), 0u8..3).prop_map(|(ops, skew)| {
            let w = &mut Writer::default();
            w.length(ops.len() + (skew == 1) as usize);
            for ((tag, tenant, key, value), expires_at) in &ops {
                w.u8(*tag).u32(*tenant).slice(key);
                if *tag == 0 {
                    w.slice(value).u64(*expires_at);
                }
            }
            if skew == 2 {
                w.u8(0);
            }
            w.done()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

        /// Whatever `decode_ops` accepts, `encode_ops` rebuilds byte for
        /// byte.
        #[test]
        fn accepted_ops_reencode_exactly(bytes in ops_bytes()) {
            if let Ok(ops) = decode_ops(&bytes) {
                prop_assert_eq!(encode_ops(&ops), bytes);
            }
        }
    }
}
