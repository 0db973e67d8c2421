//! Figure 9: number of key decryptions with and without the key hint.
//!
//! Searching an encrypted chain requires decrypting candidate keys; the
//! 1-byte key hint prunes ~255/256 of the non-matching candidates (§5.4).
//! The paper counts decryptions over the small data set with 1 M and 8 M
//! buckets (average chain lengths 10 and 1.25); the reduction is larger
//! when chains are long.

use shield_workload::Spec;
use shield_workload::{make_key, make_value};
use shieldstore::Config;
use shieldstore_bench::{harness, report, Args};

fn decryptions(buckets: usize, key_hint: bool, args: &Args) -> (u64, f64) {
    let scale = args.scale;
    let config = Config { key_hint, ..Config::shield_opt() }
        .buckets(buckets)
        .mac_hashes(buckets.min(scale.num_mac_hashes));
    let store = harness::build_shieldstore(config, scale.epc_bytes, args.seed);
    for id in 0..scale.num_keys {
        store.set(&make_key(id, 16), &make_value(id, 0, 16)).unwrap();
    }
    store.reset_stats();
    let spec = Spec::by_name("RD100_Z").expect("workload");
    let _ = harness::run_shieldstore_partitioned(
        &store,
        spec,
        scale.num_keys,
        16,
        1,
        scale.ops,
        args.seed,
    );
    let stats = store.stats();
    (stats.key_decryptions, stats.key_decryptions as f64 / stats.gets.max(1) as f64)
}

fn main() {
    let args = Args::parse();
    let scale = args.scale;
    report::banner("Figure 9", "key decryptions w/ and w/o the key hint", &scale);

    // The paper's 1 M and 8 M buckets over 10 M keys give average chains
    // of 10 and 1.25; reproduce the same chain lengths at this key count.
    let long_chain_buckets = (scale.num_keys / 10).next_power_of_two() as usize;
    let short_chain_buckets = (scale.num_keys * 4 / 5).next_power_of_two() as usize;

    let mut table =
        report::Table::new(&["buckets", "avg chain", "hint", "decryptions", "decrypts/op"]);
    for (label, buckets) in [("1M-scaled", long_chain_buckets), ("8M-scaled", short_chain_buckets)]
    {
        let chain = scale.num_keys as f64 / buckets as f64;
        for hint in [false, true] {
            let (total, per_op) = decryptions(buckets, hint, &args);
            table.row(&[
                format!("{label} ({buckets})"),
                format!("{chain:.2}"),
                if hint { "yes" } else { "no" }.into(),
                total.to_string(),
                format!("{per_op:.2}"),
            ]);
        }
    }
    table.print();
    println!();
    println!("expect: hints cut decryptions dramatically for long chains; less so for short.");
}
