//! Robustness tests for the wire protocol and session layer: malformed,
//! truncated, and fuzz-shaped inputs must produce errors, never panics.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::EnclaveBuilder;
use shield_net::protocol::{self, read_frame, write_frame, OpCode, Request, Response};
use shield_net::session;
use std::io::Cursor;

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Arbitrary bytes never panic the request decoder.
    #[test]
    fn request_decode_never_panics(bytes in pvec(any::<u8>(), 0..128)) {
        let _ = Request::decode(&bytes);
    }

    /// Arbitrary bytes never panic the response decoder.
    #[test]
    fn response_decode_never_panics(bytes in pvec(any::<u8>(), 0..128)) {
        let _ = Response::decode(&bytes);
    }

    /// Any request under any opcode must decode back to itself.
    #[test]
    fn request_roundtrip(
        op in 1u8..11,
        key in pvec(any::<u8>(), 0..64),
        value in pvec(any::<u8>(), 0..128),
    ) {
        let request = Request { op: OpCode::from_u8(op).unwrap(), key, value };
        prop_assert_eq!(Request::decode(&request.encode()).unwrap(), request);
    }

    /// Arbitrary bytes never panic any batch or scan decoder.
    #[test]
    fn batch_decoders_never_panic(bytes in pvec(any::<u8>(), 0..256)) {
        let _ = protocol::multi_get_keys(&bytes);
        let _ = protocol::decode_multi_get_response(&bytes);
        let _ = protocol::multi_set_items(&bytes);
        let _ = protocol::decode_scan(&bytes);
        let _ = protocol::decode_stats(&bytes);
    }

    /// Arbitrary bytes never panic the stats decoder, even when they
    /// start with the genuine layout fingerprint (so the fixed-width
    /// body parser itself gets exercised, not just the header check).
    #[test]
    fn stats_decode_never_panics(bytes in pvec(any::<u8>(), 0..4096)) {
        let _ = protocol::decode_stats(&bytes);
        let mut prefixed = shieldstore::StatsSnapshot::layout_fingerprint().to_le_bytes().to_vec();
        prefixed.extend_from_slice(&bytes);
        let _ = protocol::decode_stats(&prefixed);
    }

    /// A stats snapshot with arbitrary counters and recorded samples
    /// roundtrips exactly; a flipped fingerprint byte, a truncation at
    /// any offset and trailing bytes are each rejected.
    #[test]
    fn stats_roundtrip_and_truncation(
        counters in pvec(any::<u64>(), 0..64),
        samples in pvec(any::<u64>(), 0..32),
        cut_at in any::<prop::sample::Index>(),
        flip in 0usize..64,
        trailing in 1usize..17,
    ) {
        let mut snap = shieldstore::StatsSnapshot::default();
        // Cycle the drawn values over every row of every table (op
        // counters, gauges, tenant rows, sim counters), so each gets
        // exercised regardless of how many were drawn.
        let mut i = 0;
        snap.for_each_scalar(|_, _, v| {
            *v = counters.get(i % counters.len().max(1)).copied().unwrap_or(0);
            i += 1;
        });
        for (i, s) in samples.iter().enumerate() {
            let hists = shieldstore::OpHists::FIELDS;
            (hists[i % hists.len()].get_mut)(&mut snap.hists).record(*s);
        }
        let encoded = protocol::encode_stats(&snap);
        prop_assert_eq!(protocol::decode_stats(&encoded).unwrap(), snap);
        let cut = cut_at.index(encoded.len()); // strictly shorter
        prop_assert!(protocol::decode_stats(&encoded[..cut]).is_err());
        let mut stale = encoded.clone();
        stale[flip / 8] ^= 1 << (flip % 8);
        prop_assert!(protocol::decode_stats(&stale).is_err());
        let mut long = encoded;
        long.resize(long.len() + trailing, 0);
        prop_assert!(protocol::decode_stats(&long).is_err());
    }

    /// Batch payloads roundtrip for arbitrary key/value shapes,
    /// including empty keys and duplicate keys.
    #[test]
    fn batch_payload_roundtrip(
        keys in pvec(pvec(any::<u8>(), 0..16), 0..8),
        vals in pvec(pvec(any::<u8>(), 0..16), 0..8),
    ) {
        let encoded = protocol::encode_multi_get(&keys);
        prop_assert_eq!(&protocol::multi_get_keys(&encoded).unwrap(), &keys);
        let items: Vec<(Vec<u8>, Vec<u8>)> =
            keys.iter().cloned().zip(vals.iter().cloned()).collect();
        let borrowed: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        let encoded = protocol::encode_multi_set(&items);
        prop_assert_eq!(protocol::multi_set_items(&encoded).unwrap(), borrowed);
        prop_assert_eq!(&protocol::decode_scan(&protocol::encode_scan(&items)).unwrap(), &items);
        let results: Vec<Option<Vec<u8>>> =
            vals.iter().enumerate().map(|(i, v)| (i % 2 == 0).then(|| v.clone())).collect();
        prop_assert_eq!(
            &protocol::decode_multi_get_response(&protocol::encode_multi_get_response(&results)).unwrap(),
            &results
        );
    }

    /// Truncating an encoded request at any point is rejected (never
    /// mis-decoded to something shorter).
    #[test]
    fn truncated_request_rejected(
        key in pvec(any::<u8>(), 1..32),
        value in pvec(any::<u8>(), 1..32),
        cut_at in any::<prop::sample::Index>(),
    ) {
        let full = Request { op: OpCode::Set, key, value }.encode();
        let cut = cut_at.index(full.len() - 1); // strictly shorter
        prop_assert!(Request::decode(&full[..cut]).is_err());
    }

    /// Frames roundtrip through a buffer for any body.
    #[test]
    fn frame_roundtrip(bodies in pvec(pvec(any::<u8>(), 0..200), 1..5)) {
        let mut wire = Vec::new();
        for body in &bodies {
            write_frame(&mut wire, body).unwrap();
        }
        let mut cursor = Cursor::new(wire);
        for body in &bodies {
            prop_assert_eq!(&read_frame(&mut cursor).unwrap().unwrap(), body);
        }
        prop_assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    /// A truncated frame body surfaces as an error, not a hang or panic.
    #[test]
    fn truncated_frame_rejected(body in pvec(any::<u8>(), 1..100), cut_at in any::<prop::sample::Index>()) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let cut = 4 + cut_at.index(body.len()); // keep the header, cut the body
        let mut cursor = Cursor::new(&wire[..cut]);
        prop_assert!(read_frame(&mut cursor).is_err());
    }

    /// Responses roundtrip under every status, including the overload
    /// statuses Busy and Quarantined.
    #[test]
    fn response_roundtrip_all_statuses(
        status in 0u8..5,
        value in pvec(any::<u8>(), 0..128),
    ) {
        let response = Response {
            status: protocol::Status::from_u8(status).unwrap(),
            value,
        };
        prop_assert_eq!(Response::decode(&response.encode()).unwrap(), response);
    }

    /// Unknown status bytes are rejected, never mapped to a valid status.
    #[test]
    fn unknown_status_bytes_rejected(raw in any::<u8>(), value in pvec(any::<u8>(), 0..32)) {
        let status = 8u8.wrapping_add(raw % 248); // any byte in 8..=255
        let mut bytes = vec![status];
        bytes.extend_from_slice(&(value.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&value);
        prop_assert!(Response::decode(&bytes).is_err());
        prop_assert!(protocol::Status::from_u8(status).is_err());
    }

    /// The versioned scan-limit codec: corrupting the version byte is
    /// rejected; corrupting a limit byte yields a *different* limit
    /// (payload integrity is the session MAC's job, not the codec's);
    /// truncating or extending the encoding anywhere is rejected.
    #[test]
    fn scan_limit_corruption_and_truncation(
        limit in any::<u32>(),
        idx in 0usize..5,
        raw_flip in any::<u8>(),
        extra in 1usize..4,
    ) {
        let flip = raw_flip.max(1); // nonzero, so the byte really changes
        let encoded = protocol::encode_scan_limit(limit);
        prop_assert_eq!(encoded.len(), 5);
        prop_assert_eq!(protocol::decode_scan_limit(&encoded).unwrap(), limit);

        let mut corrupted = encoded.clone();
        corrupted[idx] ^= flip;
        if idx == 0 {
            prop_assert!(protocol::decode_scan_limit(&corrupted).is_err());
        } else {
            prop_assert_ne!(protocol::decode_scan_limit(&corrupted).unwrap(), limit);
        }

        for cut in 0..encoded.len() {
            prop_assert!(protocol::decode_scan_limit(&encoded[..cut]).is_err());
        }
        let mut extended = encoded;
        extended.extend(std::iter::repeat_n(0, extra));
        prop_assert!(protocol::decode_scan_limit(&extended).is_err());
    }

    /// Arbitrary bytes never panic the scan-limit decoder.
    #[test]
    fn scan_limit_decode_never_panics(bytes in pvec(any::<u8>(), 0..16)) {
        let _ = protocol::decode_scan_limit(&bytes);
    }

    /// Feeding arbitrary bytes to the sealed-channel opener never panics
    /// and (with overwhelming probability) never authenticates.
    #[test]
    fn garbage_never_authenticates(bytes in pvec(any::<u8>(), 0..256)) {
        // Establish a real session over an in-memory exchange.
        let enclave = EnclaveBuilder::new("robust-net").build();
        let verifier = AttestationVerifier::for_enclave(&enclave);
        let (mut client, mut server) = handshake_pair(&enclave, &verifier);
        prop_assert!(server.open(&bytes).is_err());
        // The session still works after rejecting garbage.
        let ok = client.seal(b"still works");
        prop_assert_eq!(server.open(&ok).unwrap(), b"still works");
    }
}

/// Runs the real handshake over an in-memory duplex pipe.
fn handshake_pair(
    enclave: &std::sync::Arc<sgx_sim::enclave::Enclave>,
    verifier: &AttestationVerifier,
) -> (session::SessionCrypto, session::SessionCrypto) {
    use std::io::{Read, Write};

    struct Pipe {
        rx: std::sync::mpsc::Receiver<u8>,
        tx: std::sync::mpsc::Sender<u8>,
    }
    impl Read for Pipe {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            for (i, slot) in buf.iter_mut().enumerate() {
                match self.rx.recv() {
                    Ok(b) => *slot = b,
                    Err(_) if i == 0 => {
                        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof))
                    }
                    Err(_) => return Ok(i),
                }
            }
            Ok(buf.len())
        }
    }
    impl Write for Pipe {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            for &b in buf {
                self.tx
                    .send(b)
                    .map_err(|_| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let (tx_a, rx_b) = std::sync::mpsc::channel();
    let (tx_b, rx_a) = std::sync::mpsc::channel();
    let mut client_side = Pipe { rx: rx_a, tx: tx_a };
    let mut server_side = Pipe { rx: rx_b, tx: tx_b };

    let enclave2 = std::sync::Arc::clone(enclave);
    let server_thread =
        std::thread::spawn(move || session::server_handshake(&mut server_side, &enclave2));
    let client = session::client_handshake(&mut client_side, verifier, 1).expect("client side");
    let (server, _tenant) = server_thread.join().expect("join").expect("server side");
    (client, server)
}
