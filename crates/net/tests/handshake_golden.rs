//! Handshake bytes, pinned: the hello a `KvClient` opens a secure
//! session with and the quote a seeded server answers it with. Both leave
//! the enclave in the clear, before any session key exists, so a moved
//! byte is a handshake a peer on the other build refuses.
//!
//! The proptest pins the quote decoder from the other side: any bytes
//! `Quote::from_bytes` accepts re-encode to exactly those bytes.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::attest::{AttestationVerifier, Quote};
use sgx_sim::enclave::EnclaveBuilder;
use shield_net::protocol::read_frame;
use shield_net::{session, KvClient};
use std::net::TcpListener;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The first frame a secure `KvClient` (ephemeral key from `seed`,
/// tenant `tenant`) sends, recorded by a stub server that then hangs up.
fn client_hello(seed: u64, tenant: u32) -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        read_frame(&mut socket).unwrap().expect("a hello frame")
    });
    let verifier = AttestationVerifier::new(&[0; 32]);
    let refused = KvClient::connect_secure_tenant(addr, &verifier, seed, tenant);
    assert!(refused.is_err(), "the stub never answers the hello");
    stub.join().unwrap()
}

#[test]
fn hello_and_quote_bytes_are_the_recorded_ones() {
    let hello = client_hello(11, 3);
    assert_eq!(
        hex(&hello),
        "535348454c4c4f32bd5c30be387a2e1b2d52f98f89a525e5ce8c8b738bccf3bd7d0abfbde2445c7b03000000"
    );

    let enclave = EnclaveBuilder::new("handshake-golden").seed(5).epc_bytes(8 << 20).build();
    let (_, quote, tenant) = session::server_key_exchange(&hello, &enclave).unwrap();
    assert_eq!(tenant, 3);
    assert_eq!(
        hex(&quote),
        "f2c83e1784794c1b3ebf029b9f7f3532e3168c50e06e671c7530c9118817c4c03ee7e8e2e014fb237be46b16489dff8873d01aaa510db8da5e32f274ad7bff3e00000000000000000000000000000000000000000000000000000000000000007658d3cf7aeacf67fcf536e5ddfbb277"
    );
    let parsed = Quote::from_bytes(&quote).unwrap();
    AttestationVerifier::for_enclave(&enclave).verify(&parsed).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// Whatever `Quote::from_bytes` accepts, `to_bytes` rebuilds byte
    /// for byte.
    #[test]
    fn accepted_quotes_reencode_exactly(bytes in pvec(any::<u8>(), 108..116)) {
        if let Ok(quote) = Quote::from_bytes(&bytes) {
            prop_assert_eq!(quote.to_bytes(), bytes);
        }
    }
}
