//! Attested session establishment and channel crypto (paper §3.2).
//!
//! The client/server interaction follows the paper's three steps:
//!
//! 1. The client remote-attests the server: the server sends a quote
//!    whose report data binds its ephemeral X25519 public key, proving
//!    the key belongs to the genuine ShieldStore enclave.
//! 2. Both sides derive session keys from the X25519 shared secret with
//!    HKDF (separate encryption and MAC keys).
//! 3. Every request and response travels sealed: AES-CTR encryption plus
//!    a CMAC tag, with direction- and sequence-separated nonces so frames
//!    cannot be replayed or reflected.

use crate::{NetError, Result};
use sgx_sim::attest::{self, AttestationVerifier, Quote, REPORT_DATA_LEN};
use sgx_sim::bytes::{Parsed, Reader, Writer};
use sgx_sim::enclave::Enclave;
use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shield_crypto::fused;
use shield_crypto::hmac;
use shield_crypto::x25519;
use std::io::{Read, Write};

/// Direction discriminators baked into nonces.
const DIR_CLIENT_TO_SERVER: u8 = 1;
const DIR_SERVER_TO_CLIENT: u8 = 2;

/// Channel crypto for one established session.
pub struct SessionCrypto {
    enc: AesCtr,
    mac: Cmac,
    send_dir: u8,
    recv_dir: u8,
    send_seq: u64,
    recv_seq: u64,
}

impl std::fmt::Debug for SessionCrypto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCrypto")
            .field("send_seq", &self.send_seq)
            .field("recv_seq", &self.recv_seq)
            .finish()
    }
}

fn nonce(dir: u8, seq: u64) -> [u8; 16] {
    let mut iv = [0u8; 16];
    iv[0] = dir;
    iv[1..9].copy_from_slice(&seq.to_le_bytes());
    iv
}

impl SessionCrypto {
    fn new(shared: &[u8; 32], is_client: bool) -> Self {
        let enc_key = hmac::derive_key128(b"shieldstore-session", shared, b"enc-v1");
        let mac_key = hmac::derive_key128(b"shieldstore-session", shared, b"mac-v1");
        let (send_dir, recv_dir) = if is_client {
            (DIR_CLIENT_TO_SERVER, DIR_SERVER_TO_CLIENT)
        } else {
            (DIR_SERVER_TO_CLIENT, DIR_CLIENT_TO_SERVER)
        };
        Self {
            enc: AesCtr::new(&enc_key),
            mac: Cmac::new(&mac_key),
            send_dir,
            recv_dir,
            send_seq: 0,
            recv_seq: 0,
        }
    }

    /// Seals a plaintext body for sending: `ciphertext ‖ tag(16)`, the tag
    /// over `nonce ‖ ciphertext`. One allocation, sized for both, and one
    /// pass: the MAC follows the keystream through the buffer.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let iv = nonce(self.send_dir, self.send_seq);
        self.send_seq += 1;
        let mut out = Vec::with_capacity(plaintext.len() + 16);
        out.extend_from_slice(plaintext);
        let tag = fused::seal(&self.enc, &self.mac, &iv, &[iv], &mut out, &[]);
        out.extend_from_slice(&tag);
        out
    }

    /// Opens a sealed body, verifying tag and sequence: the plaintext is
    /// staged in the buffer that is returned, in the pass that
    /// authenticates it, and wiped there if it does not.
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>> {
        let Some((ct, tag)) = sealed.split_last_chunk::<16>() else {
            return Err(NetError::Security("sealed frame too short".into()));
        };
        let iv = nonce(self.recv_dir, self.recv_seq);
        let mut plain = Vec::new();
        if !fused::open_verify(&self.enc, &self.mac, &iv, &[iv], ct, &[], tag, &mut plain) {
            return Err(NetError::Security("frame authentication failed".into()));
        }
        self.recv_seq += 1;
        Ok(plain)
    }
}

/// Hello message `[ "SSHELLO2" | public key (32) | tenant u32 ]`: the
/// client's ephemeral X25519 key plus the tenant namespace this
/// connection operates in (v2; a v1 hello without the tenant field is
/// rejected by length — stale clients fail closed instead of silently
/// landing in the default namespace).
const HELLO_MAGIC: &[u8; 8] = b"SSHELLO2";

fn encode_hello(pubkey: &[u8; 32], tenant: u32) -> Vec<u8> {
    Writer::with_capacity(44).bytes(HELLO_MAGIC).bytes(pubkey).u32(tenant).done()
}

fn decode_hello(bytes: &[u8]) -> Result<([u8; 32], u32)> {
    Reader::whole(bytes, "hello", |r| -> Parsed<_> {
        r.tag(HELLO_MAGIC)?;
        Ok((r.array()?, r.u32()?))
    })
    .map_err(|_| NetError::Protocol("bad hello".into()))
}

/// The server side of the key exchange as a pure step: consumes the
/// client's hello frame body, returns the established channel crypto,
/// the quote frame body to send back, and the tenant the connection
/// claimed. Every subsequent request on the session executes in that
/// tenant's namespace — the binding happens once, at key exchange, so
/// a request cannot name an arbitrary tenant per-op.
///
/// The readiness-loop engine calls this directly (the hello arrives
/// through the incremental frame decoder like any other frame);
/// [`server_handshake`] wraps it for blocking streams.
pub fn server_key_exchange(
    hello: &[u8],
    enclave: &Enclave,
) -> Result<(SessionCrypto, Vec<u8>, u32)> {
    let (client_pub, tenant) = decode_hello(hello)?;

    let mut server_priv = [0u8; 32];
    enclave.read_rand(&mut server_priv);
    let server_pub = x25519::public_key(&server_priv);

    // Bind the DH key into the quote's report data.
    let mut report_data = [0u8; REPORT_DATA_LEN];
    report_data[..32].copy_from_slice(&server_pub);
    let quote = attest::generate_quote(enclave, &report_data);

    let shared = x25519::shared_secret(&server_priv, &client_pub)
        .ok_or_else(|| NetError::Security("degenerate client key".into()))?;
    Ok((SessionCrypto::new(&shared, false), quote.to_bytes(), tenant))
}

/// Runs the server side of the handshake over `stream`.
///
/// Generates an ephemeral X25519 key, quotes it with the enclave's
/// attestation identity, and derives the session keys.
pub fn server_handshake(
    stream: &mut (impl Read + Write),
    enclave: &Enclave,
) -> Result<(SessionCrypto, u32)> {
    let hello = crate::protocol::read_frame(stream)?
        .ok_or_else(|| NetError::Protocol("client hung up before hello".into()))?;
    let (crypto, quote_bytes, tenant) = server_key_exchange(&hello, enclave)?;
    crate::protocol::write_frame(stream, &quote_bytes)?;
    Ok((crypto, tenant))
}

/// Runs the client side of the handshake over `stream`.
///
/// `verifier` authenticates the server's quote (and optionally pins the
/// expected enclave measurement); `seed` makes the ephemeral key
/// deterministic for reproducible experiments.
pub fn client_handshake(
    stream: &mut (impl Read + Write),
    verifier: &AttestationVerifier,
    seed: u64,
) -> Result<SessionCrypto> {
    client_handshake_tenant(stream, verifier, seed, 0)
}

/// [`client_handshake`] under an explicit tenant namespace.
pub fn client_handshake_tenant(
    stream: &mut (impl Read + Write),
    verifier: &AttestationVerifier,
    seed: u64,
    tenant: u32,
) -> Result<SessionCrypto> {
    let mut drbg = shield_crypto::drbg::Drbg::from_seed(
        &[b"client-ephemeral".as_slice(), &seed.to_le_bytes()].concat(),
    );
    let mut client_priv = [0u8; 32];
    drbg.fill_bytes(&mut client_priv);
    let client_pub = x25519::public_key(&client_priv);
    crate::protocol::write_frame(stream, &encode_hello(&client_pub, tenant))?;

    let quote_bytes = crate::protocol::read_frame(stream)?
        .ok_or_else(|| NetError::Protocol("server hung up before quote".into()))?;
    let quote = Quote::from_bytes(&quote_bytes).map_err(|e| NetError::Security(e.to_string()))?;
    let report_data = verifier.verify(&quote).map_err(|e| NetError::Security(e.to_string()))?;

    let server_pub: [u8; 32] = report_data[..32].try_into().expect("32 bytes");
    let shared = x25519::shared_secret(&client_priv, &server_pub)
        .ok_or_else(|| NetError::Security("degenerate server key".into()))?;
    Ok(SessionCrypto::new(&shared, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::enclave::EnclaveBuilder;

    /// An in-memory duplex pipe for handshake tests.
    struct Pipe {
        rx: std::sync::mpsc::Receiver<u8>,
        tx: std::sync::mpsc::Sender<u8>,
        buf: Vec<u8>,
    }

    fn pipe_pair() -> (Pipe, Pipe) {
        let (tx_a, rx_b) = std::sync::mpsc::channel();
        let (tx_b, rx_a) = std::sync::mpsc::channel();
        (Pipe { rx: rx_a, tx: tx_a, buf: Vec::new() }, Pipe { rx: rx_b, tx: tx_b, buf: Vec::new() })
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
            self.buf.clear();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn handshake_derives_matching_keys() {
        let enclave = EnclaveBuilder::new("kv-server").build();
        let verifier =
            AttestationVerifier::for_enclave(&enclave).expect_measurement(*enclave.measurement());
        let (mut client_side, mut server_side) = pipe_pair();

        let server = std::thread::spawn(move || server_handshake(&mut server_side, &enclave));
        let mut client = client_handshake_tenant(&mut client_side, &verifier, 1, 7).unwrap();
        let (mut server, tenant) = server.join().unwrap().unwrap();
        assert_eq!(tenant, 7, "the hello binds the connection's tenant");

        let sealed = client.seal(b"attack at dawn");
        assert_ne!(&sealed[..14], b"attack at dawn");
        assert_eq!(server.open(&sealed).unwrap(), b"attack at dawn");
        let reply = server.seal(b"ack");
        assert_eq!(client.open(&reply).unwrap(), b"ack");
    }

    #[test]
    fn impostor_enclave_rejected() {
        let real = EnclaveBuilder::new("kv-server").build();
        let impostor = EnclaveBuilder::new("evil-server").build();
        let verifier =
            AttestationVerifier::for_enclave(&real).expect_measurement(*real.measurement());
        let (mut client_side, mut server_side) = pipe_pair();

        let server = std::thread::spawn(move || server_handshake(&mut server_side, &impostor));
        let result = client_handshake(&mut client_side, &verifier, 1);
        let _ = server.join().unwrap();
        assert!(matches!(result, Err(NetError::Security(_))));
    }

    #[test]
    fn tampered_frame_rejected() {
        let shared = [7u8; 32];
        let mut a = SessionCrypto::new(&shared, true);
        let mut b = SessionCrypto::new(&shared, false);
        let mut sealed = a.seal(b"payload");
        sealed[0] ^= 1;
        assert!(matches!(b.open(&sealed), Err(NetError::Security(_))));
    }

    /// Two sealed frames under fixed keys, recorded before seal and open
    /// moved onto the fused bodies: the wire bytes are the same.
    #[test]
    fn golden_frames() {
        let mut a = SessionCrypto::new(&[7u8; 32], true);
        let mut b = SessionCrypto::new(&[7u8; 32], false);
        let ragged = a.seal(b"twenty-one byte body!");
        let whole: Vec<u8> = (0..32).collect();
        let aligned = a.seal(&whole);
        assert_eq!(
            ragged,
            [
                0xa4, 0x58, 0xac, 0xf5, 0xff, 0x3f, 0x2f, 0x30, 0x99, 0x31, 0xf1, 0x7b, 0xaa, 0x60,
                0x18, 0x92, 0x1c, 0xf6, 0x99, 0xd3, 0x0b, 0x3f, 0xb1, 0x5a, 0xc7, 0x86, 0x7e, 0x71,
                0x24, 0x35, 0xbe, 0x22, 0xfd, 0x01, 0x6e, 0x4a, 0x83
            ]
        );
        assert_eq!(
            aligned,
            [
                0x5a, 0x09, 0x07, 0x53, 0x59, 0x32, 0x1c, 0x59, 0x9d, 0xb3, 0xdf, 0x0d, 0x0a, 0xbb,
                0x6b, 0xd5, 0x69, 0xad, 0xc5, 0x27, 0xf8, 0xe1, 0x40, 0x8e, 0x4f, 0x77, 0x97, 0xa2,
                0xbf, 0xfa, 0x61, 0x84, 0xfb, 0x5a, 0x53, 0xb4, 0xc6, 0x82, 0x17, 0xa9, 0x13, 0x67,
                0xb0, 0xcf, 0x4d, 0x19, 0x05, 0xa3
            ]
        );
        assert_eq!(b.open(&ragged).unwrap(), b"twenty-one byte body!");
        assert_eq!(b.open(&aligned).unwrap(), whole);
    }

    proptest::proptest! {
        /// Whatever `decode_hello` accepts, `encode_hello` rebuilds byte
        /// for byte.
        #[test]
        fn accepted_hellos_reencode_exactly(
            stale in proptest::prelude::any::<bool>(),
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 34..40),
        ) {
            let magic: &[u8] = if stale { b"SSHELLO1" } else { HELLO_MAGIC };
            let bytes = [magic, &tail].concat();
            if let Ok((pubkey, tenant)) = decode_hello(&bytes) {
                proptest::prop_assert_eq!(encode_hello(&pubkey, tenant), bytes);
            }
        }
    }

    #[test]
    fn replayed_frame_rejected() {
        let shared = [8u8; 32];
        let mut a = SessionCrypto::new(&shared, true);
        let mut b = SessionCrypto::new(&shared, false);
        let sealed = a.seal(b"once");
        assert_eq!(b.open(&sealed).unwrap(), b"once");
        // Same bytes again: the receive sequence has advanced.
        assert!(matches!(b.open(&sealed), Err(NetError::Security(_))));
    }

    #[test]
    fn reflected_frame_rejected() {
        let shared = [9u8; 32];
        let mut a = SessionCrypto::new(&shared, true);
        let sealed = a.seal(b"to server");
        // A client must not accept its own traffic bounced back.
        let mut a2 = SessionCrypto::new(&shared, true);
        assert!(matches!(a2.open(&sealed), Err(NetError::Security(_))));
    }

    #[test]
    fn sequence_ordering_enforced() {
        let shared = [10u8; 32];
        let mut a = SessionCrypto::new(&shared, true);
        let mut b = SessionCrypto::new(&shared, false);
        let first = a.seal(b"1");
        let second = a.seal(b"2");
        // Delivering out of order fails.
        assert!(b.open(&second).is_err());
        // In-order delivery still works afterwards (seq not consumed).
        assert_eq!(b.open(&first).unwrap(), b"1");
    }
}
