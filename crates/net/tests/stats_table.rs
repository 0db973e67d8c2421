//! The stat tables against every consumer derived from them.
//!
//! Each telemetry struct is declared once with `stat_table!`; the wire
//! codec, `diff`, `monotone_counters` and both `shieldstore_stats`
//! renderings are loops over those tables. These tests walk the tables
//! too, so a row that some consumer dropped — or an export that carried
//! something other than a number — fails here without anyone listing
//! the rows again.

use sgx_sim::enclave::EnclaveBuilder;
use shield_net::protocol::{decode_stats, encode_stats};
use shieldstore::stats::Kind;
use shieldstore::{Config, Op, OpHists, ShieldStore, StatsSnapshot, MAX_TENANT_STATS};
use std::sync::Arc;

/// Every scalar row as `(name, kind, value)`, in wire order.
fn scalars(snap: &StatsSnapshot) -> Vec<(&'static str, Kind, u64)> {
    let (mut copy, mut out) = (*snap, Vec::new());
    copy.for_each_scalar(|name, kind, v| out.push((name, kind, *v)));
    out
}

/// A snapshot whose every scalar row holds a distinct value above
/// `base`, and whose every histogram holds `samples` samples.
fn distinct(base: u64, samples: u64) -> StatsSnapshot {
    let mut snap = StatsSnapshot::default();
    let mut next = base;
    snap.for_each_scalar(|_, _, v| {
        next += 1;
        *v = next;
    });
    for (i, f) in OpHists::FIELDS.iter().enumerate() {
        for s in 0..samples {
            (f.get_mut)(&mut snap.hists).record(100 * (i as u64 + 1) + s);
        }
    }
    snap
}

#[test]
fn every_row_reaches_every_consumer() {
    let earlier = distinct(1_000, 2);
    let later = distinct(50_000, 5);
    assert_eq!(later.tenant_rows().len(), MAX_TENANT_STATS);

    // (a) The wire carries every row.
    assert_eq!(decode_stats(&encode_stats(&later)).unwrap(), later);

    // (b) An interval subtracts counters and keeps gauges.
    let delta = later.diff(&earlier);
    for ((name, kind, got), (_, _, was)) in scalars(&delta).into_iter().zip(scalars(&later)) {
        let want = if kind == Kind::Counter { 49_000 } else { was };
        assert_eq!(got, want, "diff of {kind:?} {name}");
    }
    for (name, h) in delta.hists.iter() {
        assert_eq!(h.count(), 3, "diff of histogram {name}");
    }

    // (c) The monotone set is exactly the counters plus histogram counts.
    let mut want: Vec<(&str, u64)> = scalars(&later)
        .into_iter()
        .filter(|(_, kind, _)| *kind == Kind::Counter)
        .map(|(name, _, v)| (name, v))
        .chain(later.hists.iter().map(|(name, h)| (name, h.count())))
        .collect();
    let mut got = later.monotone_counters();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want);

    // (d) Both renderings show every row, under its declared name.
    let (text, json) = (later.render_text(), later.render_json());
    for (name, _, v) in scalars(&later) {
        let line = format!("{name:<28} {v}\n");
        let cell = format!("{name}={v}");
        assert!(text.contains(&line) || text.contains(&cell), "{name} missing from dashboard");
        assert!(json.contains(&format!("\"{name}\":{v}")), "{name} missing from JSON");
    }
    for (name, h) in later.hists.iter() {
        assert!(text.contains(&format!("\n{name:<10} {:>10}", h.count())), "{name} row");
        assert!(json.contains(&format!("\"{name}\":{{\"count\":{}", h.count())), "{name} JSON");
    }
}

/// A dashboard hides counters that never moved, but never a gauge: a
/// zero there is the healthy reading an operator looks for.
#[test]
fn dashboard_hides_zero_counters_only() {
    let idle = StatsSnapshot::default().render_text();
    assert!(idle.contains(&format!("{:<28} 0\n", "storage_failed")));
    assert!(!idle.contains("wal_bytes"));
    let busy = StatsSnapshot { wal_bytes: 5, ..Default::default() }.render_text();
    assert!(busy.contains(&format!("{:<28} 5\n", "wal_bytes")));
}

// ---------------------------------------------------------------------
// JSON validity
// ---------------------------------------------------------------------

/// The subset of JSON the dump may use: objects with quoted keys,
/// arrays, unsigned integers.
#[derive(Debug)]
enum Json {
    Num,
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn key(&self, key: &str) -> &Json {
        match self {
            Json::Obj(pairs) => &pairs.iter().find(|(k, _)| k == key).expect(key).1,
            other => panic!("{other:?} is not an object"),
        }
    }
}

/// Parses one value off the front of `s`, panicking on anything outside
/// the subset (whitespace included: the dump is one dense line).
fn parse(s: &mut &str) -> Json {
    let eat = |s: &mut &str, c: char| match s.strip_prefix(c) {
        Some(rest) => {
            *s = rest;
            true
        }
        None => false,
    };
    if eat(s, '{') {
        let mut pairs = Vec::new();
        while !eat(s, '}') {
            assert!(pairs.is_empty() || eat(s, ','), "missing comma at {s:.20}");
            assert!(eat(s, '"'), "unquoted key at {s:.20}");
            let (key, rest) = s.split_once('"').expect("unterminated key");
            assert!(key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'), "key {key:?}");
            assert!(pairs.iter().all(|(k, _)| k != key), "duplicate key {key}");
            *s = rest;
            assert!(eat(s, ':'), "missing colon after {key}");
            pairs.push((key.to_string(), parse(s)));
        }
        Json::Obj(pairs)
    } else if eat(s, '[') {
        let mut items = Vec::new();
        while !eat(s, ']') {
            assert!(items.is_empty() || eat(s, ','), "missing comma at {s:.20}");
            items.push(parse(s));
        }
        Json::Arr(items)
    } else {
        let digits = s.len() - s.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        assert!(digits > 0, "expected a number at {s:.20}");
        s[..digits].parse::<u64>().expect("fits u64");
        *s = &s[digits..];
        Json::Num
    }
}

fn parse_dump(snap: &StatsSnapshot) -> Json {
    let dump = snap.render_json();
    let mut rest = dump.as_str();
    let json = parse(&mut rest);
    assert!(rest.is_empty(), "trailing {rest:?}");
    json
}

#[test]
fn json_dump_is_valid_and_tenant_rows_follow_the_count() {
    for tenant_count in [0, 1, 3, MAX_TENANT_STATS as u64, MAX_TENANT_STATS as u64 + 5] {
        let snap = StatsSnapshot { tenant_count, ..distinct(u64::MAX / 2, 1) };
        let json = parse_dump(&snap);
        let Json::Arr(rows) = json.key("tenants") else { panic!("tenants is not an array") };
        assert_eq!(rows.len(), (tenant_count as usize).min(MAX_TENANT_STATS));
        // More tenants than row slots still crosses the wire.
        assert_eq!(decode_stats(&encode_stats(&snap)).unwrap(), snap);
    }
    let json = parse_dump(&StatsSnapshot::default());
    assert!(matches!(json.key("crypto_backend"), Json::Num));
    assert!(matches!(json.key("latency").key("wal_group").key("p99_ns"), Json::Num));
}

// ---------------------------------------------------------------------
// Threat model: what the export path may carry
// ---------------------------------------------------------------------

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Every exported field is a `u64` count, id or duration by type; pin
/// that nothing secret rides along. A store is loaded with marker keys
/// and values under two tenants, then the wire payload and both
/// renderings are searched for the markers and for any 8-byte run of a
/// tenant key or of the store's own key material.
#[test]
fn export_path_carries_no_keys_values_or_key_material() {
    let enclave = EnclaveBuilder::new("stats-export").epc_bytes(16 << 20).build();
    let store =
        ShieldStore::new(Arc::clone(&enclave), Config::shield_opt().with_shards(2)).unwrap();
    const KEY_MARK: &[u8] = b"KEYMARK-7f3a";
    const VAL_MARK: &[u8] = b"VALMARK-c91e";
    for tenant in [3u32, 8] {
        for i in 0..64u32 {
            let key = [KEY_MARK, &i.to_le_bytes()].concat();
            let value = [VAL_MARK, &tenant.to_le_bytes(), &[0xa5; 40]].concat();
            store.execute(tenant, Op::Set { key: &key, value: &value, expires_at: 0 }).unwrap();
            store.execute(tenant, Op::Get(&key)).unwrap();
        }
    }
    let snap = store.snapshot();
    assert_eq!(snap.tenant_rows().iter().filter(|row| row.sets == 64).count(), 2);

    let mut secrets: Vec<Vec<u8>> = vec![KEY_MARK.to_vec(), VAL_MARK.to_vec()];
    let mut keys = store.leak_store_keys().to_vec();
    for tenant in [3, 8] {
        let (enc, mac) = store.leak_tenant_keys(tenant);
        keys.extend([enc, mac]);
    }
    secrets.extend(keys.iter().flat_map(|key| key.windows(8).map(<[u8]>::to_vec)));

    let exports = [
        ("wire payload", encode_stats(&snap)),
        ("dashboard", snap.render_text().into_bytes()),
        ("JSON dump", snap.render_json().into_bytes()),
    ];
    for (what, bytes) in &exports {
        for secret in &secrets {
            assert!(!contains(bytes, secret), "{what} leaks {secret:02x?}");
        }
    }
}
