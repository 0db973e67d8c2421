//! Crypto hot-path sweep: soft (table-based) vs AES-NI backends.
//!
//! Measures the four primitives the ShieldStore data path spends its
//! cycles on — raw AES-128 block encryption, CTR keystream application
//! (entry encrypt/decrypt), CMAC (entry and bucket-set MACs), and the
//! fused verify+decrypt used on the get hit path — for every backend the
//! host can run. The soft backend always runs; the AES-NI backend runs
//! when the CPU reports support.
//!
//! Results are also written as JSON to `BENCH_crypto.json` at the repo
//! root for machine consumption.

use shield_crypto::backend::{aesni_available, selected_kind, AesBackend, BackendKind};
use shield_crypto::cmac::Cmac;
use shield_crypto::ctr::AesCtr;
use shield_crypto::fused;
use shieldstore_bench::{report, Args};
use std::time::Instant;

/// Bytes processed per timed iteration (mirrors a large-ish entry batch;
/// a multiple of the wide CTR stride and the AES block size).
const BUF_LEN: usize = 16 << 10;

/// Minimum measured wall time per configuration.
const MIN_MEASURE_NS: u64 = 200_000_000;

struct Row {
    backend: &'static str,
    primitive: &'static str,
    gib_s: f64,
    bytes: u64,
}

/// Runs `body` (which processes `bytes_per_iter` bytes per call) until at
/// least [`MIN_MEASURE_NS`] of wall time has elapsed, and returns the
/// throughput in GiB/s plus the total bytes processed.
fn measure(bytes_per_iter: usize, mut body: impl FnMut()) -> (f64, u64) {
    // Warm-up: fault in buffers and let the first-use key schedule costs
    // fall outside the timed region.
    for _ in 0..4 {
        body();
    }
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..16 {
            body();
        }
        iters += 16;
        if start.elapsed().as_nanos() as u64 >= MIN_MEASURE_NS {
            break;
        }
    }
    let elapsed = start.elapsed().as_nanos() as u64;
    let bytes = iters * bytes_per_iter as u64;
    (bytes as f64 / (elapsed as f64 / 1e9) / (1u64 << 30) as f64, bytes)
}

/// Deterministic test data: no RNG so runs are comparable across seeds.
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64) >> 3) as u8).collect()
}

fn sweep_backend(kind: BackendKind, seed: u64, rows: &mut Vec<Row>) {
    let key = [0x2bu8; 16];
    let iv = [0x07u8; 16];
    let data = pattern(seed, BUF_LEN);

    // Raw block encryption: the primitive both CTR and CMAC reduce to.
    let aes = AesBackend::with_kind(kind, &key);
    let mut block = [0u8; 16];
    block.copy_from_slice(&data[..16]);
    let blocks = BUF_LEN / 16;
    let (gib_s, bytes) = measure(BUF_LEN, || {
        for _ in 0..blocks {
            block = aes.encrypt_to(&block);
        }
    });
    rows.push(Row { backend: kind.name(), primitive: "block", gib_s, bytes });
    std::hint::black_box(block);

    // CTR keystream: the entry encrypt/decrypt path.
    let ctr = AesCtr::with_backend(kind, &key);
    let mut buf = data.clone();
    let (gib_s, bytes) = measure(BUF_LEN, || {
        ctr.apply_keystream(&iv, &mut buf);
    });
    rows.push(Row { backend: kind.name(), primitive: "ctr", gib_s, bytes });
    std::hint::black_box(&buf);

    // CMAC: entry MACs and the streaming bucket-set hash.
    let mac = Cmac::with_backend(kind, &key);
    let mut tag = [0u8; 16];
    let (gib_s, bytes) = measure(BUF_LEN, || {
        tag = mac.compute(&data);
    });
    rows.push(Row { backend: kind.name(), primitive: "cmac", gib_s, bytes });
    std::hint::black_box(tag);

    // Fused verify+decrypt: the get hit path (one pass over the
    // ciphertext feeds the MAC and the CTR decrypt together).
    let mut ct = data.clone();
    ctr.apply_keystream(&iv, &mut ct);
    let tag = mac.compute(&ct);
    let mut out = Vec::new();
    let (gib_s, bytes) = measure(BUF_LEN, || {
        let ok = fused::open_verify(&ctr, &mac, &iv, &[], &ct, &[], &tag, &mut out);
        assert!(ok, "fused open must verify");
    });
    rows.push(Row { backend: kind.name(), primitive: "fused_open", gib_s, bytes });
    std::hint::black_box(&out);
}

/// Hand-rolled JSON (no serde in the tree).
fn to_json(rows: &[Row], seed: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"crypto_sweep\",\n");
    out.push_str(&format!("  \"buf_len\": {BUF_LEN},\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"aesni_available\": {},\n", aesni_available()));
    out.push_str(&format!("  \"selected_backend\": \"{}\",\n", selected_kind().name()));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"backend\": \"{}\", \"primitive\": \"{}\", \"gib_per_s\": {:.4}, \
             \"bytes\": {}}}{}\n",
            r.backend,
            r.primitive,
            r.gib_s,
            r.bytes,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args = Args::parse();
    report::banner("Crypto sweep", "soft vs AES-NI data-path primitives", &args.scale);

    let mut backends = vec![BackendKind::Soft];
    if aesni_available() {
        backends.push(BackendKind::AesNi);
    } else {
        println!("note: CPU lacks AES-NI; measuring the soft backend only");
    }

    let mut rows = Vec::new();
    for &kind in &backends {
        sweep_backend(kind, args.seed, &mut rows);
    }

    let mut table = report::Table::new(&["backend", "primitive", "GiB/s", "bytes"]);
    for r in &rows {
        table.row(&[
            r.backend.into(),
            r.primitive.into(),
            format!("{:.3}", r.gib_s),
            r.bytes.to_string(),
        ]);
    }
    table.print();
    println!();

    if backends.len() == 2 {
        let soft = |p: &str| rows.iter().find(|r| r.backend == "soft" && r.primitive == p);
        let ni = |p: &str| rows.iter().find(|r| r.backend == "aesni" && r.primitive == p);
        for p in ["block", "ctr", "cmac", "fused_open"] {
            if let (Some(s), Some(n)) = (soft(p), ni(p)) {
                println!("{:<12} aesni/soft = {}", p, report::ratio(n.gib_s / s.gib_s));
            }
        }
        println!();
        println!("expect: aesni >= 2x soft on ctr and cmac (the hot-path primitives).");
    }

    let json = to_json(&rows, args.seed);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crypto.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
