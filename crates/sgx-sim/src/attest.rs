//! Simulated remote attestation.
//!
//! Before a ShieldStore client trusts the server, it remote-attests the
//! enclave: the processor signs a *quote* binding the enclave measurement
//! and caller-chosen report data (paper §3.2 step 1). The real flow goes
//! through the Intel Attestation Service; this model replaces the EPID
//! signature with a CMAC under a per-platform attestation key that the
//! verifier shares — faithful enough to exercise the full handshake state
//! machine, including the binding of the server's ephemeral Diffie-Hellman
//! public key into `report_data`.

use crate::bytes::{Parsed, Reader, Writer};
use crate::enclave::Enclave;
use crate::SimError;
use shield_crypto::cmac::Cmac;
use shield_crypto::hmac::derive_key128;

/// Report data bound into a quote (like SGX's 64-byte REPORTDATA field).
pub const REPORT_DATA_LEN: usize = 64;

/// An attestation quote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The attested enclave measurement.
    pub measurement: [u8; 32],
    /// Caller-chosen data bound into the quote (e.g. a DH public key).
    pub report_data: [u8; REPORT_DATA_LEN],
    /// Authentication tag over measurement + report data.
    pub mac: [u8; 16],
}

impl Quote {
    /// Serializes to bytes (measurement | report_data | mac).
    pub fn to_bytes(&self) -> Vec<u8> {
        Writer::default().bytes(&self.measurement).bytes(&self.report_data).bytes(&self.mac).done()
    }

    /// Parses a serialized quote.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SimError> {
        Reader::whole(bytes, "quote", |r| -> Parsed<_> {
            Ok(Self { measurement: r.array()?, report_data: r.array()?, mac: r.array()? })
        })
        .map_err(|_| SimError::QuoteVerify)
    }
}

fn attestation_key(fuse_key: &[u8; 32]) -> [u8; 16] {
    derive_key128(b"attestation", fuse_key, b"quote-mac-v1")
}

/// Generates a quote for `enclave` binding `report_data`.
pub fn generate_quote(enclave: &Enclave, report_data: &[u8; REPORT_DATA_LEN]) -> Quote {
    let key = attestation_key(enclave.fuse_key());
    let cmac = Cmac::new(&key);
    let mac = cmac.compute_parts(&[enclave.measurement(), report_data]);
    Quote { measurement: *enclave.measurement(), report_data: *report_data, mac }
}

/// The verifier's view of the platform (stands in for IAS).
#[derive(Debug, Clone)]
pub struct AttestationVerifier {
    key: [u8; 16],
    expected_measurement: Option<[u8; 32]>,
}

impl AttestationVerifier {
    /// Creates a verifier trusting the platform identified by `fuse_key`.
    pub fn new(fuse_key: &[u8; 32]) -> Self {
        Self { key: attestation_key(fuse_key), expected_measurement: None }
    }

    /// Creates a verifier for the platform an `enclave` runs on — the
    /// test/simulation shortcut for provisioning the verifier key.
    pub fn for_enclave(enclave: &Enclave) -> Self {
        Self::new(enclave.fuse_key())
    }

    /// Additionally pins the expected enclave measurement.
    pub fn expect_measurement(mut self, measurement: [u8; 32]) -> Self {
        self.expected_measurement = Some(measurement);
        self
    }

    /// Verifies a quote. Returns the bound report data on success.
    pub fn verify(&self, quote: &Quote) -> Result<[u8; REPORT_DATA_LEN], SimError> {
        let cmac = Cmac::new(&self.key);
        let expected = cmac.compute_parts(&[&quote.measurement, &quote.report_data]);
        if !shield_crypto::constant_time::ct_eq(&expected, &quote.mac) {
            return Err(SimError::QuoteVerify);
        }
        if let Some(m) = self.expected_measurement {
            if m != quote.measurement {
                return Err(SimError::QuoteVerify);
            }
        }
        Ok(quote.report_data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave::EnclaveBuilder;

    #[test]
    fn quote_verifies() {
        let e = EnclaveBuilder::new("kv").build();
        let mut rd = [0u8; REPORT_DATA_LEN];
        rd[..5].copy_from_slice(b"hello");
        let quote = generate_quote(&e, &rd);
        let verifier = AttestationVerifier::for_enclave(&e);
        assert_eq!(verifier.verify(&quote).unwrap(), rd);
    }

    #[test]
    fn tampered_report_data_rejected() {
        let e = EnclaveBuilder::new("kv").build();
        let rd = [7u8; REPORT_DATA_LEN];
        let mut quote = generate_quote(&e, &rd);
        quote.report_data[0] ^= 1;
        let verifier = AttestationVerifier::for_enclave(&e);
        assert_eq!(verifier.verify(&quote), Err(SimError::QuoteVerify));
    }

    #[test]
    fn wrong_measurement_rejected_when_pinned() {
        let e = EnclaveBuilder::new("kv").build();
        let impostor = EnclaveBuilder::new("malicious-kv").build();
        let rd = [0u8; REPORT_DATA_LEN];
        let quote = generate_quote(&impostor, &rd);
        let verifier = AttestationVerifier::for_enclave(&e).expect_measurement(*e.measurement());
        assert_eq!(verifier.verify(&quote), Err(SimError::QuoteVerify));
    }

    #[test]
    fn wrong_platform_rejected() {
        let e1 = EnclaveBuilder::new("kv").seed(1).build();
        let e2 = EnclaveBuilder::new("kv").seed(2).build(); // different platform
        let rd = [0u8; REPORT_DATA_LEN];
        let quote = generate_quote(&e1, &rd);
        let verifier = AttestationVerifier::for_enclave(&e2);
        assert_eq!(verifier.verify(&quote), Err(SimError::QuoteVerify));
    }

    #[test]
    fn serialization_roundtrip() {
        let e = EnclaveBuilder::new("kv").build();
        let quote = generate_quote(&e, &[9u8; REPORT_DATA_LEN]);
        let parsed = Quote::from_bytes(&quote.to_bytes()).unwrap();
        assert_eq!(parsed, quote);
        assert_eq!(Quote::from_bytes(&[0u8; 10]), Err(SimError::QuoteVerify));
    }
}
