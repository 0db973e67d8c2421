//! Figure 17: ShieldStore vs Eleos across working-set sizes.
//!
//! With 4 KB values (Eleos' best case) and a growing data set, three
//! curves: Eleos, ShieldOpt, and ShieldOpt with its spare-EPC cache. In
//! the paper, Eleos wins modestly while the data fits its secure page
//! cache, the cache variant closes that gap, ShieldStore is flat at every
//! size, and Eleos cannot run past 2 GB (its pool limit). The pool takes
//! the shared quarter-step classes, so a 4,128 B entry holds 5,120 B
//! rather than memsys5's 8,192 B, and the limit still falls between the
//! 45.5 MB and 91.0 MB rows at quick scale.

use shield_baseline::{EleosStore, KvBackend};
use shield_workload::Spec;
use shield_workload::{make_key, make_value};
use shieldstore::Config;
use shieldstore_bench::{harness, report, Args};
use std::sync::Arc;

const VAL_LEN: usize = 4096;

fn main() {
    let args = Args::parse();
    let scale = args.scale;
    report::banner("Figure 17", "ShieldStore vs Eleos across working sets", &scale);

    // The paper sweeps 32 MB..8 GB over a 90 MB EPC with a 2 GB Eleos
    // pool; reproduce the same WSS/EPC and pool/EPC ratios.
    let epc = scale.epc_bytes as u64;
    let sizes: Vec<u64> =
        [32u64, 64, 128, 256, 512, 1024, 2048, 4096, 8192].iter().map(|mb| mb * epc / 90).collect();
    let pool_limit = 2048 * epc / 90;
    let spc_bytes = (epc * 3 / 4) as usize;
    let cache_bytes = (epc / 2) as usize;
    let spec = Spec::by_name("RD100_Z").expect("workload");
    let ops = (scale.ops / 2).max(4_000);

    let mut table = report::Table::new(&["WSS", "keys", "Eleos", "ShieldOpt", "ShieldOpt+cache"]);

    for &wss in &sizes {
        let num_keys = (wss / (VAL_LEN as u64 + 64)).max(16);
        let buckets = (num_keys as usize).next_power_of_two().max(64);

        // Eleos, subject to its pool limit.
        let eleos_store =
            EleosStore::with_pool_limit(buckets, spc_bytes, 4096, scale.epc_bytes, pool_limit);
        let eleos: Arc<dyn KvBackend> = Arc::new(eleos_store);
        let loaded = harness::preload(&*eleos, num_keys, VAL_LEN);
        let eleos_cell = if loaded < num_keys {
            "DNF (pool limit)".to_string()
        } else {
            let r = harness::run_backend(&eleos, spec, num_keys, VAL_LEN, 1, ops, args.seed);
            report::kops(r.kops())
        };

        // ShieldOpt with and without the spare-EPC cache.
        let mut cells = vec![format!("{:.1}MB", wss as f64 / (1 << 20) as f64)];
        cells.push(num_keys.to_string());
        cells.push(eleos_cell);
        for cache in [0usize, cache_bytes] {
            let shield = harness::build_shieldstore(
                Config::shield_opt()
                    .buckets(buckets)
                    .mac_hashes(buckets.min(scale.num_mac_hashes))
                    .with_cache(cache),
                scale.epc_bytes,
                args.seed,
            );
            for id in 0..num_keys {
                shield.set(&make_key(id, 16), &make_value(id, 0, VAL_LEN)).expect("preload");
            }
            let r = harness::run_shieldstore_partitioned(
                &shield, spec, num_keys, VAL_LEN, 1, ops, args.seed,
            );
            cells.push(report::kops(r.kops()));
        }
        table.row(&cells);
    }
    table.print();
    println!();
    println!("expect: Eleos ahead at small sets, degrading as the set outgrows its page");
    println!("        cache and DNF past the scaled 2GB pool; ShieldOpt flat throughout;");
    println!("        the cache variant matches Eleos at small sets.");
}
