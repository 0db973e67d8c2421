//! Figure 14: effect of the §5 optimizations.
//!
//! Cumulative ablation — `ShieldBase`, `+KeyOPT` (key hint), `+HeapAlloc`
//! (pooled untrusted allocator), `+MACBucket` — across two bucket counts
//! and two key counts, i.e. average chain lengths of roughly 1.25, 5, 10
//! and 40 as in the paper. The optimizations matter little at chain
//! length 1.25 and progressively more as chains grow.

use shield_workload::Spec;
use shield_workload::{make_key, make_value};
use shieldstore::{AllocMode, Config};
use shieldstore_bench::{harness, report, Args};

struct Variant {
    name: &'static str,
    key_hint: bool,
    pooled_alloc: bool,
    mac_bucket: bool,
}

const VARIANTS: [Variant; 4] = [
    Variant { name: "ShieldBase", key_hint: false, pooled_alloc: false, mac_bucket: false },
    Variant { name: "+KeyOPT", key_hint: true, pooled_alloc: false, mac_bucket: false },
    Variant { name: "+HeapAlloc", key_hint: true, pooled_alloc: true, mac_bucket: false },
    Variant { name: "+MACBucket", key_hint: true, pooled_alloc: true, mac_bucket: true },
];

fn main() {
    let args = Args::parse();
    let scale = args.scale;
    report::banner("Figure 14", "optimization ablation (large values)", &scale);

    const VAL_LEN: usize = 512;
    let workloads = ["RD50_Z", "RD95_Z", "RD100_Z"];
    // The paper's four (buckets, entries) quadrants give chain lengths
    // 1.25, 5, 10 and 40; reproduce the same chain lengths at this scale
    // (exact bucket counts — no power-of-two rounding).
    let base_keys = scale.num_keys;
    let quadrants = [
        ("8M-scaled buckets, 10M-scaled keys", (base_keys * 4 / 5) as usize, base_keys),
        ("8M-scaled buckets, 40M-scaled keys", (base_keys * 4 / 5) as usize, base_keys * 4),
        ("1M-scaled buckets, 10M-scaled keys", (base_keys / 10) as usize, base_keys),
        ("1M-scaled buckets, 40M-scaled keys", (base_keys / 10) as usize, base_keys * 4),
    ];

    for (label, buckets, keys) in quadrants {
        let mut header: Vec<&str> = vec!["variant"];
        for w in &workloads {
            header.push(w);
        }
        let mut table = report::Table::new(&header);

        for variant in &VARIANTS {
            let config = Config {
                key_hint: variant.key_hint,
                mac_bucket: variant.mac_bucket,
                alloc: if variant.pooled_alloc {
                    AllocMode::pooled_default()
                } else {
                    AllocMode::OcallPerAlloc
                },
                ..Config::shield_opt()
            }
            .buckets(buckets)
            .mac_hashes(scale.num_mac_hashes.min(buckets));
            let store = harness::build_shieldstore(config, scale.epc_bytes, args.seed);
            for id in 0..keys {
                store.set(&make_key(id, 16), &make_value(id, 0, VAL_LEN)).expect("preload");
            }

            let mut cells = vec![variant.name.to_string()];
            for w in &workloads {
                let spec = Spec::by_name(w).expect("workload");
                // Median of three repetitions: the optimization deltas are
                // 5-30%, below single-run noise on a busy host.
                let mut samples: Vec<f64> = (0..3)
                    .map(|rep| {
                        harness::run_shieldstore_partitioned(
                            &store,
                            spec,
                            keys,
                            VAL_LEN,
                            1,
                            scale.ops / 2,
                            args.seed + rep,
                        )
                        .kops()
                    })
                    .collect();
                samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                cells.push(report::kops(samples[1]));
            }
            table.row(&cells);
        }
        println!("[{label}: avg chain {:.2}]", keys as f64 / buckets as f64);
        table.print();
        println!();
    }
    println!("expect: little change at chain ~1.25; +KeyOPT and +MACBucket grow with chain");
    println!("        length; +HeapAlloc helps most on the 50%-set workload.");
}
