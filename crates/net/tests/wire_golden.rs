//! Wire bytes, pinned.
//!
//! Every request a `KvClient` sends, every response `server::execute`
//! answers and every control payload, recorded as bytes (the stats
//! payload as a sha256). A change to how any of them is built — a
//! reordered field, a new length prefix, a second encoder that drifts
//! from the first — fails here before it reaches a peer.
//!
//! The proptest at the end pins the decoders from the other side: any
//! bytes a payload decoder accepts re-encode to exactly those bytes, so
//! no decoder accepts a second byte form of the same message.
//!
//! A deliberate format change re-records the tables below (each failure
//! prints the whole table as it is now).

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use sgx_sim::enclave::EnclaveBuilder;
use shield_crypto::sha256::Sha256;
use shield_net::protocol::{self, read_frame, write_frame, Request, Response, Status};
use shield_net::{server, KvClient};
use std::net::TcpListener;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Checks `got` against a recorded `(name, hex)` table, printing the whole
/// table as it is now when any row moved.
fn check_table(what: &str, got: &[(&str, Vec<u8>)], want: &[(&str, &str)]) {
    let now: Vec<(&str, String)> = got.iter().map(|(name, bytes)| (*name, hex(bytes))).collect();
    let same = now.len() == want.len()
        && now.iter().zip(want).all(|((n, h), (wn, wh))| n == wn && h == wh);
    if !same {
        for (name, h) in &now {
            eprintln!("    (\"{name}\", \"{h}\"),");
        }
        panic!("{what}: wire bytes moved (the table as it is now is printed above)");
    }
}

/// Drives `calls` through an insecure `KvClient` against a stub server
/// that records every request body and answers each with a bare `Error`.
/// That is a well-formed refusal, so the session stays usable and every
/// call goes out.
fn client_requests(calls: impl FnOnce(&mut KvClient)) -> Vec<Vec<u8>> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stub = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let refusal = Response { status: Status::Error, value: Vec::new() }.encode();
        let mut bodies = Vec::new();
        while let Some(body) = read_frame(&mut socket).unwrap() {
            bodies.push(body);
            write_frame(&mut socket, &refusal).unwrap();
        }
        bodies
    });
    let mut client = KvClient::connect_insecure(addr).unwrap();
    calls(&mut client);
    drop(client);
    stub.join().unwrap()
}

/// The script both tables follow: one call per client method, in an
/// order whose replies (run against a fresh store) reach every `Reply`
/// variant the wire carries.
const CALLS: [&str; 19] = [
    "get miss",
    "set",
    "get hit",
    "set_ttl",
    "delete hit",
    "delete miss",
    "append",
    "increment",
    "increment non-numeric",
    "scan_prefix",
    "multi_get",
    "multi_set",
    "stats",
    "flush",
    "repl_subscribe",
    "repl_segment",
    "repl_ack",
    "promote",
    "ping",
];

const HOUR_NS: u64 = 3_600_000_000_000;

fn script(c: &mut KvClient) {
    let _ = c.get(b"k1");
    let _ = c.set(b"k1", b"v1");
    let _ = c.get(b"k1");
    let _ = c.set_ttl(b"k2", b"v2", HOUR_NS);
    let _ = c.delete(b"k1");
    let _ = c.delete(b"k1");
    let _ = c.append(b"k1", b"+a");
    let _ = c.increment(b"n", -2);
    let _ = c.increment(b"k1", 1);
    let _ = c.scan_prefix(b"k", 10);
    let _ = c.multi_get(&[b"k1".to_vec(), Vec::new(), b"k2".to_vec()]);
    let _ = c.multi_set(&[(b"m1".to_vec(), b"a".to_vec()), (b"m2".to_vec(), Vec::new())]);
    let _ = c.stats();
    let _ = c.flush();
    let _ = c.repl_subscribe();
    let _ = c.repl_segment(3, 99, 1 << 20);
    let _ = c.repl_ack(5, 2, 777);
    let _ = c.promote();
    let _ = c.ping();
}

const REQUESTS: [(&str, &str); 19] = [
    ("get miss", "0102000000000000006b31"),
    ("set", "0202000000020000006b317631"),
    ("get hit", "0102000000000000006b31"),
    ("set_ttl", "0c020000000a0000006b3200a0b830460300007632"),
    ("delete hit", "0302000000000000006b31"),
    ("delete miss", "0302000000000000006b31"),
    ("append", "0402000000020000006b312b61"),
    ("increment", "0501000000080000006efeffffffffffffff"),
    ("increment non-numeric", "0502000000080000006b310100000000000000"),
    ("scan_prefix", "0701000000050000006b010a000000"),
    ("multi_get", "08000000001400000003000000020000006b3100000000020000006b32"),
    ("multi_set", "0900000000190000000200000002000000010000006d316102000000000000006d32"),
    ("stats", "0a0000000000000000"),
    ("flush", "0b0000000000000000"),
    ("repl_subscribe", "0d0000000000000000"),
    ("repl_segment", "0e00000000140000000300000000000000630000000000000000001000"),
    ("repl_ack", "0f0000000018000000050000000000000002000000000000000903000000000000"),
    ("promote", "100000000000000000"),
    ("ping", "060000000000000000"),
];

/// The stats reply carries live latency histograms; only its status is
/// pinned here (the payload's layout is pinned through `encode_stats`).
const RESPONSES: [(&str, &str); 19] = [
    ("get miss", "0100000000"),
    ("set", "0000000000"),
    ("get hit", "00020000007631"),
    ("set_ttl", "0000000000"),
    ("delete hit", "0000000000"),
    ("delete miss", "0100000000"),
    ("append", "0000000000"),
    ("increment", "0008000000feffffffffffffff"),
    ("increment non-numeric", "0200000000"),
    ("scan_prefix", "001800000002000000020000006b312b6102000000020000006b327632"),
    ("multi_get", "00170000000300000000020000002b61010000000000020000007632"),
    ("multi_set", "0000000000"),
    ("stats", "00"),
    ("flush", "0000000000"),
    ("repl_subscribe", "0200000000"),
    ("repl_segment", "0200000000"),
    ("repl_ack", "0200000000"),
    ("promote", "0200000000"),
    ("ping", "0000000000"),
];

#[test]
fn client_requests_are_pinned() {
    let bodies = client_requests(script);
    assert_eq!(bodies.len(), CALLS.len(), "one frame per call");
    for body in &bodies {
        assert_eq!(&Request::decode(body).unwrap().encode(), body, "Request::encode rebuilds it");
    }
    let got: Vec<(&str, Vec<u8>)> = CALLS.iter().copied().zip(bodies).collect();
    check_table("KvClient requests", &got, &REQUESTS);
}

#[test]
fn server_responses_are_pinned() {
    let enclave = EnclaveBuilder::new("wire-golden").seed(3).epc_bytes(8 << 20).build();
    let store = shieldstore::ShieldStore::new(
        enclave,
        shieldstore::Config::shield_opt().buckets(64).mac_hashes(16).with_ordered_index(),
    )
    .unwrap();
    let got: Vec<(&str, Vec<u8>)> = CALLS
        .iter()
        .copied()
        .zip(client_requests(script))
        .map(|(name, body)| {
            let response = server::execute(&store, &Request::decode(&body).unwrap());
            let bytes = response.encode();
            assert_eq!(Response::decode(&bytes).unwrap(), response);
            match name {
                "stats" => (name, vec![response.status as u8]),
                _ => (name, bytes),
            }
        })
        .collect();
    check_table("server::execute responses", &got, &RESPONSES);
}

#[test]
fn every_status_and_control_payload_is_pinned() {
    let mut got: Vec<(&str, Vec<u8>)> = Vec::new();
    for (name, byte) in [
        ("Ok", 0u8),
        ("NotFound", 1),
        ("Error", 2),
        ("Busy", 3),
        ("Quarantined", 4),
        ("QuotaExceeded", 5),
        ("ReadOnly", 6),
        ("StorageFailed", 7),
    ] {
        let status = Status::from_u8(byte).unwrap();
        assert_eq!(format!("{status:?}"), name);
        got.push((name, Response { status, value: Vec::new() }.encode()));
    }
    got.push(("Response::ok", Response::ok(b"value".to_vec()).encode()));
    got.push(("scan limit", protocol::encode_scan_limit(100)));
    got.push(("set-ttl", protocol::encode_set_ttl(HOUR_NS, b"v")));
    got.push(("watermark", protocol::encode_watermark(7, 1234)));
    got.push(("repl poll", protocol::encode_repl_poll(3, 99, 1 << 20)));
    got.push(("repl ack", protocol::encode_repl_ack(5, 2, 777)));
    got.push((
        "stats sha256",
        Sha256::digest(&protocol::encode_stats(&sample_snapshot())).to_vec(),
    ));
    check_table("statuses and control payloads", &got, &PAYLOADS);
}

const PAYLOADS: [(&str, &str); 15] = [
    ("Ok", "0000000000"),
    ("NotFound", "0100000000"),
    ("Error", "0200000000"),
    ("Busy", "0300000000"),
    ("Quarantined", "0400000000"),
    ("QuotaExceeded", "0500000000"),
    ("ReadOnly", "0600000000"),
    ("StorageFailed", "0700000000"),
    ("Response::ok", "000500000076616c7565"),
    ("scan limit", "0164000000"),
    ("set-ttl", "00a0b8304603000076"),
    ("watermark", "0700000000000000d204000000000000"),
    ("repl poll", "0300000000000000630000000000000000001000"),
    ("repl ack", "050000000000000002000000000000000903000000000000"),
    ("stats sha256", "57f324698edc389b66a0b964ef7248dd625ab5ee4f162f78ca45213d65d071ce"),
];

/// Every scalar row of every stat table set to a distinct value, plus a
/// few recorded samples. A stat row added to a table re-records the
/// stats hash above: that is a layout change a peer must agree on.
fn sample_snapshot() -> shieldstore::StatsSnapshot {
    let mut snap = shieldstore::StatsSnapshot::default();
    let mut next = 0u64;
    snap.for_each_scalar(|_, _, v| {
        next += 17;
        *v = next;
    });
    snap.hists.get.record(150);
    snap.hists.get.record(9_000);
    snap.hists.set.record(3);
    snap.hists.wal_group.record(16);
    snap
}

/// Bytes that look like payloads: small length/count words, status and
/// version bytes, and noise, so the batch decoders accept a fair share.
fn payload_bytes() -> impl Strategy<Value = Vec<u8>> {
    let token = prop_oneof![
        (0u32..4).prop_map(|n| n.to_le_bytes().to_vec()),
        (0u8..3).prop_map(|b| vec![b]),
        any::<u8>().prop_map(|b| vec![b]),
        any::<u64>().prop_map(|w| w.to_le_bytes().to_vec()),
    ];
    pvec(token, 0..16).prop_map(|tokens| tokens.concat())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    /// Whatever a decoder accepts, its encoder rebuilds byte for byte.
    #[test]
    fn accepted_payloads_reencode_exactly(bytes in payload_bytes()) {
        if let Ok(request) = Request::decode(&bytes) {
            prop_assert_eq!(request.encode(), bytes.clone());
        }
        if let Ok(response) = Response::decode(&bytes) {
            prop_assert_eq!(response.encode(), bytes.clone());
        }
        if let Ok(entries) = protocol::decode_scan(&bytes) {
            prop_assert_eq!(protocol::encode_scan(&entries), bytes.clone());
        }
        if let Ok(limit) = protocol::decode_scan_limit(&bytes) {
            prop_assert_eq!(protocol::encode_scan_limit(limit), bytes.clone());
        }
        if let Ok((ttl_ns, value)) = protocol::decode_set_ttl(&bytes) {
            prop_assert_eq!(protocol::encode_set_ttl(ttl_ns, value), bytes.clone());
        }
        if let Ok((generation, seq)) = protocol::decode_watermark(&bytes) {
            prop_assert_eq!(protocol::encode_watermark(generation, seq), bytes.clone());
        }
        if let Ok((generation, after, max)) = protocol::decode_repl_poll(&bytes) {
            prop_assert_eq!(protocol::encode_repl_poll(generation, after, max), bytes.clone());
        }
        if let Ok((subscriber, generation, seq)) = protocol::decode_repl_ack(&bytes) {
            prop_assert_eq!(protocol::encode_repl_ack(subscriber, generation, seq), bytes.clone());
        }
        if let Ok(keys) = protocol::multi_get_keys(&bytes) {
            let keys: Vec<Vec<u8>> = keys.iter().map(|k| k.to_vec()).collect();
            prop_assert_eq!(protocol::encode_multi_get(&keys), bytes.clone());
        }
        if let Ok(items) = protocol::multi_set_items(&bytes) {
            let items: Vec<(Vec<u8>, Vec<u8>)> =
                items.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
            prop_assert_eq!(protocol::encode_multi_set(&items), bytes.clone());
        }
        if let Ok(results) = protocol::decode_multi_get_response(&bytes) {
            prop_assert_eq!(protocol::encode_multi_get_response(&results), bytes.clone());
        }
        if let Ok(snap) = protocol::decode_stats(&bytes) {
            prop_assert_eq!(protocol::encode_stats(&snap), bytes);
        }
    }
}
