//! Spans around single public functions of each layer, at the
//! workload's sizes. A call of a few hundred nanoseconds is too short
//! for one clock pair, so each span covers a batch of calls and the
//! figure is the median batch time over the batch size.

use crate::rig::{key_of, Rig, Step};
use crate::spec::{KEY_LEN, WINDOW};
use crate::stats::{median, percentile};
use crate::wire;
use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shield_net::protocol::{OpCode, Request, Response, Status};
use shield_net::session::SessionCrypto;
use shield_net::{FrameDecoder, KvClient};
use std::hint::black_box;
use std::time::Instant;

const BATCH: usize = 64;
const BATCHES: usize = 200;

/// Median nanoseconds per call of `f`, over `BATCHES` spans of `BATCH`
/// calls each.
fn span_ns(mut f: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let started = Instant::now();
        for _ in 0..BATCH {
            f();
        }
        per_call.push(started.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    median(&per_call)
}

pub type Metrics = Vec<(&'static str, f64)>;

/// `protocol.*`, `session.*` and `frame.*`: the workload's set request
/// (key + value) and get reply (value) through the codecs, the session
/// cipher and the frame decoder.
pub fn net_spans(val_len: usize, pair: &mut (SessionCrypto, SessionCrypto)) -> Metrics {
    let request = Request { op: OpCode::Set, key: vec![b'k'; KEY_LEN], value: vec![7; val_len] };
    let response = Response::ok(vec![7; val_len]);
    let request_bytes = request.encode();
    let response_bytes = response.encode();
    let mut out = vec![
        ("protocol.encode_request_ns", span_ns(|| drop(black_box(black_box(&request).encode())))),
        (
            "protocol.decode_request_ns",
            span_ns(|| drop(black_box(Request::decode(black_box(&request_bytes))))),
        ),
        ("protocol.encode_response_ns", span_ns(|| drop(black_box(black_box(&response).encode())))),
        (
            "protocol.decode_response_ns",
            span_ns(|| drop(black_box(Response::decode(black_box(&response_bytes))))),
        ),
    ];

    // Seal on one side and open on the other in lockstep (the cipher is
    // sequenced), timing the two halves of each batch apart.
    let (client, server) = pair;
    let (mut seal, mut open) = (Vec::new(), Vec::new());
    let mut sealed = Vec::with_capacity(BATCH);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            sealed.push(server.seal(black_box(&response_bytes)));
        }
        let t1 = Instant::now();
        for body in sealed.drain(..) {
            black_box(client.open(&body).expect("reply authenticates"));
        }
        let t2 = Instant::now();
        seal.push((t1 - t0).as_nanos() as f64 / BATCH as f64);
        open.push((t2 - t1).as_nanos() as f64 / BATCH as f64);
    }
    out.push(("session.seal_ns", median(&seal)));
    out.push(("session.open_ns", median(&open)));

    // One window of sealed request frames in one chunk, as the event
    // loop reads it off a pipelined connection.
    let mut chunk = Vec::new();
    for _ in 0..WINDOW {
        chunk.extend_from_slice(&((request_bytes.len() + 16) as u32).to_le_bytes());
        chunk.extend_from_slice(&request_bytes);
        chunk.extend_from_slice(&[0; 16]);
    }
    let mut decoder = FrameDecoder::new();
    let mut frames = Vec::with_capacity(WINDOW);
    let mut per_frame = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let started = Instant::now();
        decoder.feed(black_box(&chunk), &mut frames).expect("well-formed chunk");
        per_frame.push(started.elapsed().as_nanos() as f64 / WINDOW as f64);
        assert_eq!(frames.len(), WINDOW);
        frames.clear();
    }
    out.push(("frame.feed_ns_per_frame", median(&per_frame)));
    out
}

/// `crypto.*` spans over one entry's bytes (key + value).
pub fn crypto_spans(val_len: usize) -> Metrics {
    let len = KEY_LEN + val_len;
    let enc = AesCtr::new(&[1; 16]);
    let mac = Cmac::new(&[2; 16]);
    let iv = [3u8; 16];
    let mut ciphertext: Vec<u8> = (0..len).map(|i| i as u8).collect();
    enc.apply_keystream(&iv, &mut ciphertext);
    let tag = mac.compute_parts(&[&ciphertext, &iv]);
    let mut plain = Vec::with_capacity(len);
    let mut buf = ciphertext.clone();
    vec![
        (
            "crypto.open_verify_ns",
            span_ns(|| {
                let ok = shield_crypto::fused::open_verify(
                    &enc,
                    &mac,
                    &iv,
                    &[],
                    black_box(&ciphertext),
                    &[&iv],
                    &tag,
                    &mut plain,
                );
                assert!(black_box(ok));
            }),
        ),
        ("crypto.ctr_ns", span_ns(|| enc.apply_keystream(&iv, black_box(&mut buf)))),
        (
            "crypto.cmac_ns",
            span_ns(|| {
                black_box(mac.compute(black_box(&ciphertext)));
            }),
        ),
        ("crypto.backend", shield_crypto::stats::backend_code() as f64),
    ]
}

/// `server.execute_*` and `shard.{get,set}_p50_ns`: the op stream
/// alternates between `server::execute` and the direct `ShieldStore`
/// call, so both sides see the same mix of keys, each op applied once.
/// Gets and sets are kept apart (their medians differ severalfold) and
/// recombined by the stream's own read share.
pub fn execute_spans(rig: &mut Rig, ops: usize) -> Metrics {
    let store = std::sync::Arc::clone(&rig.store);
    let backend: &dyn shield_baseline::KvBackend = &*store;
    let model = &mut rig.model;
    // [via execute, direct] x [get, set]
    let mut samples: [[Vec<u32>; 2]; 2] = Default::default();
    for i in 0..ops {
        let step = model.next_step();
        let request = wire::request_for(model, step);
        let (via_execute, is_set) = (i % 2 == 0, request.op == OpCode::Set);
        let started = Instant::now();
        let reply: Option<Vec<u8>> = if via_execute {
            let response = shield_net::server::execute(backend, &request);
            (response.status == Status::Ok).then_some(response.value)
        } else if is_set {
            store.set(&request.key, &request.value).ok().map(|()| Vec::new())
        } else {
            store.get(&request.key).ok()
        };
        let took = started.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        samples[usize::from(!via_execute)][usize::from(is_set)].push(took);
        match step {
            Step::Get { id, round } => model.check_get(id, round, reply.as_deref()),
            Step::Set { .. } => model.ack_set(reply.is_some()),
        }
    }
    let p50 = |v: &mut Vec<u32>| {
        v.sort_unstable();
        percentile(v, 50.0) as f64
    };
    let [[exec_get, exec_set], [direct_get, direct_set]] = &mut samples;
    let write_share = (exec_set.len() + direct_set.len()) as f64 / ops.max(1) as f64;
    let mix = |get: f64, set: f64| (1.0 - write_share) * get + write_share * set;
    let (exec_get, exec_set, direct_get, direct_set) =
        (p50(exec_get), p50(exec_set), p50(direct_get), p50(direct_set));
    vec![
        ("server.execute_ns", mix(exec_get, exec_set)),
        ("server.execute_overhead_ns", mix(exec_get - direct_get, exec_set - direct_set)),
        ("shard.get_p50_ns", direct_get),
        ("shard.set_p50_ns", direct_set),
    ]
}

/// `shard.multi_get64_ns_per_key`: spans around `multi_get` of 64 keys
/// drawn from the workload's key distribution, every value checked.
pub fn multi_get_span(rig: &mut Rig, batches: usize) -> Metrics {
    let mut per_key = Vec::with_capacity(batches);
    for _ in 0..batches {
        let ids: Vec<u64> = (0..64).map(|_| rig.model.next_key_id()).collect();
        let keys: Vec<Vec<u8>> = ids.iter().map(|&id| key_of(id)).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let started = Instant::now();
        let values = rig.store.multi_get(black_box(&refs));
        per_key.push(started.elapsed().as_nanos() as f64 / 64.0);
        let values = values.unwrap_or_else(|_| vec![None; ids.len()]);
        for (&id, value) in ids.iter().zip(&values) {
            rig.model.check_get(id, rig.model.round_of(id), value.as_deref());
        }
    }
    vec![("shard.multi_get64_ns_per_key", median(&per_key))]
}

/// The stock client library against the running server: depth-1 round
/// trips and `pipeline` bursts of one window, both diagnostics.
pub fn kvclient(rig: &mut Rig, seed: u64, round_trips: usize, bursts: usize) -> Metrics {
    let server = &rig.net.as_ref().expect("wire workload has a server").server;
    let mut client =
        KvClient::connect_secure(server.addr(), &wire::verifier(&rig.enclave), seed ^ 0xc11e)
            .expect("KvClient connects");
    let model = &mut rig.model;

    let mut rtt = Vec::with_capacity(round_trips);
    for _ in 0..round_trips {
        let id = model.next_key_id();
        let started = Instant::now();
        let reply = client.get(&key_of(id));
        rtt.push(started.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        model.check_get(id, model.round_of(id), reply.ok().flatten().as_deref());
    }
    rtt.sort_unstable();

    let mut kops = Vec::with_capacity(bursts);
    for _ in 0..bursts {
        let ids: Vec<u64> = (0..WINDOW).map(|_| model.next_key_id()).collect();
        let requests: Vec<Request> = ids
            .iter()
            .map(|&id| Request { op: OpCode::Get, key: key_of(id), value: Vec::new() })
            .collect();
        let started = Instant::now();
        let replies = client.pipeline(&requests);
        kops.push(WINDOW as f64 / started.elapsed().as_secs_f64() / 1e3);
        let replies = replies.unwrap_or_default();
        for (i, &id) in ids.iter().enumerate() {
            let value =
                replies.get(i).filter(|r| r.status == Status::Ok).map(|r| r.value.as_slice());
            model.check_get(id, model.round_of(id), value);
        }
    }
    vec![
        ("client.kvclient_rtt_p50_us", percentile(&rtt, 50.0) as f64 / 1e3),
        ("client.kvclient_pipeline32_kops", median(&kops)),
    ]
}
