//! Bytes that leave the enclave for storage or a replica, pinned: a
//! seeded snapshot file and its unsealed metadata, a `ReplHello`, and
//! `ReplBatch`es carrying frames and a generation handover. The log and
//! pin bytes are pinned in `wal_codec.rs`, the wire in `shield-net`'s
//! `wire_golden.rs`.
//!
//! A moved byte here is a format change: a snapshot an older build wrote
//! no longer restores, or a replica and its primary stop understanding
//! each other. The proptests pin the decoders from the other side: any
//! bytes a decoder accepts re-encode to exactly those bytes.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::EnclaveBuilder;
use shield_crypto::sha256::Sha256;
use shieldstore::{Config, Op, ReplBatch, ReplHello, ShieldStore, WalCodec, WalOp, Watermark};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn digest(bytes: &[u8]) -> String {
    hex(&Sha256::digest(bytes))
}

/// A seeded store (two shards, three tenants, one entry with a
/// deadline) snapshotted once: the metadata sealed in it is the bytes
/// recorded before the snapshot codec moved onto the shared byte cursor,
/// the file the bytes recorded when each entry's tag left its header for
/// a field of its own after the entry (format v3), and the file restores.
#[test]
fn snapshot_bytes_are_the_recorded_ones() {
    let dir = std::env::temp_dir().join(format!("ss-snap-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let enclave = || EnclaveBuilder::new("snapshot-golden").seed(41).epc_bytes(8 << 20).build();
    let config = || Config::shield_opt().buckets(64).mac_hashes(16).with_shards(2);
    let store = ShieldStore::new(enclave(), config()).unwrap();
    for i in 0..24u32 {
        let tenant = i % 3;
        let (key, value) = (format!("key-{i:02}"), format!("value-{i}"));
        let op = Op::Set { key: key.as_bytes(), value: value.as_bytes(), expires_at: 0 };
        store.execute(tenant, op).unwrap();
    }
    let deadline = Op::Set { key: b"expiring", value: b"later", expires_at: 1 << 62 };
    store.execute(0, deadline).unwrap();
    let counter = PersistentCounter::open(dir.join("ctr")).unwrap();
    let snap = dir.join("snap.db");
    store.snapshot_blocking(&snap, &counter).unwrap();

    let file = std::fs::read(&snap).unwrap();
    // [magic 8 | counter 8 | shards 4 | sealed_len 4 | sealed | tables]
    let sealed_len = u32::from_le_bytes(file[20..24].try_into().unwrap()) as usize;
    let metadata = sgx_sim::seal::unseal(&enclave(), &file[24..24 + sealed_len]).unwrap();
    assert_eq!(digest(&file), "9e9cd26e690f6659f6d36f5b214ad3cd07368fac493dcf3175a2371fdec46b25");
    assert_eq!(
        digest(&metadata),
        "3a31c54379d184f3a28bedb303efb1feff714c1eeee8feee0793d11426a2d26a"
    );

    let restored = ShieldStore::restore(enclave(), config(), &snap, &counter).unwrap();
    assert_eq!(restored.len(), 25);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repl_hello_bytes_are_the_recorded_ones() {
    let hello = ReplHello {
        subscriber: 7,
        enc_key: [0x11; 16],
        mac_key: [0x22; 16],
        start_generation: 3,
        durable: Watermark::new(4, 1234),
    };
    assert_eq!(
        hex(&hello.encode()),
        "010700000000000000111111111111111111111111111111112222222222222222222222222222222203000000000000000400000000000000d204000000000000"
    );
    assert_eq!(ReplHello::decode(&hello.encode()), Some(hello));
}

/// Two sealed records under fixed keys, shipped as one batch, and the
/// authenticated handover that ends their generation.
#[test]
fn repl_batch_bytes_are_the_recorded_ones() {
    let codec = WalCodec::new(&[0x33; 16], &[0x44; 16]);
    let ops = [
        vec![WalOp::Set { tenant: 2, key: b"k".to_vec(), value: b"v1".to_vec(), expires_at: 9 }],
        vec![WalOp::Delete { tenant: 0, key: b"gone".to_vec() }],
    ];
    let (first, mac1) = codec.seal_record(1, &codec.genesis(5), &ops[0], &[0x55; 16]);
    let (second, mac2) = codec.seal_record(2, &mac1, &ops[1], &[0x66; 16]);
    let frames = ReplBatch {
        generation: 5,
        start_seq: 1,
        count: 2,
        frames: [first, second].concat(),
        advance_to: None,
        advance_tag: [0; 16],
        durable: Watermark::new(5, 2),
    };
    let handover = ReplBatch {
        generation: 5,
        start_seq: 3,
        count: 0,
        frames: Vec::new(),
        advance_to: Some(8),
        advance_tag: codec.rotation_tag(5, 2, &mac2, 8),
        durable: Watermark::new(8, 0),
    };
    assert_eq!(
        digest(&frames.encode()),
        "05b2abdbe79017cf089f50cefccf7d3e753caa34dc8ae5cf6f3faffe9a09efdd"
    );
    assert_eq!(
        hex(&handover.encode()),
        "010500000000000000030000000000000000000000080000000000000000000000000000000108000000000000005baae0f6b323f0cbc5c84899f7497f4a00000000"
    );
    for batch in [frames, handover] {
        assert_eq!(ReplBatch::decode(&batch.encode()), Some(batch));
    }
}

/// Bytes shaped like a `ReplHello`: a version byte that is usually right
/// and a body around the right length.
fn hello_bytes() -> impl Strategy<Value = Vec<u8>> {
    ((0u8..3), pvec(any::<u8>(), 54..60)).prop_map(|(version, body)| [vec![version], body].concat())
}

/// Bytes shaped like a `ReplBatch`: version, the fixed fields, a flag
/// byte, a successor that is sometimes zero, a small frame-byte count
/// and a few frame bytes.
fn batch_bytes() -> impl Strategy<Value = Vec<u8>> {
    let successor = (any::<u64>(), any::<bool>()).prop_map(|(v, zero)| if zero { 0 } else { v });
    (
        (0u8..3, pvec(any::<u8>(), 36..37), 0u8..3),
        (successor, pvec(any::<u8>(), 16..17), 0u32..6, pvec(any::<u8>(), 0..8)),
    )
        .prop_map(|((version, fixed, flag), (successor, tag, nbytes, frames))| {
            [
                vec![version],
                fixed,
                vec![flag],
                successor.to_le_bytes().to_vec(),
                tag,
                nbytes.to_le_bytes().to_vec(),
                frames,
            ]
            .concat()
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// Whatever `ReplHello::decode` accepts, `encode` rebuilds byte for byte.
    #[test]
    fn accepted_hellos_reencode_exactly(bytes in hello_bytes()) {
        if let Some(hello) = ReplHello::decode(&bytes) {
            prop_assert_eq!(hello.encode(), bytes);
        }
    }

    /// Whatever `ReplBatch::decode` accepts, `encode` rebuilds byte for byte.
    #[test]
    fn accepted_batches_reencode_exactly(bytes in batch_bytes()) {
        if let Some(batch) = ReplBatch::decode(&bytes) {
            prop_assert_eq!(batch.encode(), bytes);
        }
    }
}
