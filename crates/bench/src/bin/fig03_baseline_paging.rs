//! Figure 3: naive SGX key-value store performance vs working set.
//!
//! The paper's Baseline places the whole hash table inside the enclave.
//! While the database fits the EPC its throughput tracks the insecure
//! store; once it outgrows the EPC, demand paging collapses throughput by
//! two orders of magnitude (134x at the paper's 4 GB point).
//!
//! This binary sweeps the database size by varying the number of
//! preloaded keys (512-byte values, 50:50 get/set uniform, as in §3.1)
//! and prints `NoSGX` vs `Baseline` throughput, their ratio, and the
//! Baseline's EPC faults per op (a count: it repeats exactly). It then
//! checks the knee ([`report::epc_knee`]) and exits non-zero when the
//! faults do not rise where the DB outgrows the EPC.

use shield_baseline::{KvBackend, NaiveEnclaveStore};
use shield_workload::Spec;
use shieldstore_bench::{harness, report, Args};
use std::sync::Arc;

fn main() {
    let args = Args::parse();
    let scale = args.scale;
    report::banner("Figure 3", "baseline KV throughput vs working set", &scale);

    const VAL_LEN: usize = 512;
    const ENTRY: u64 = (16 + VAL_LEN + 16) as u64; // key + value + header
    let spec = Spec::by_name("RD50_U").expect("workload");

    // Database sizes from fitting-in-EPC to ~8x beyond, as the paper's
    // 16 MB .. 4096 MB sweep does around its 90 MB EPC.
    let epc = scale.epc_bytes as u64;
    let sizes: Vec<u64> = [1u64, 2, 4, 6, 8, 16, 32, 64].iter().map(|f| epc * f / 8).collect();
    let ops = scale.ops.min(60_000);

    let mut table = report::Table::new(&[
        "DB size(MB)",
        "keys",
        "NoSGX(Kop/s)",
        "Baseline(Kop/s)",
        "slowdown",
        "faults/op",
    ]);
    let mut knee = Vec::new();

    for &db_bytes in &sizes {
        let num_keys = (db_bytes / ENTRY).max(100);
        let buckets = (num_keys as usize).next_power_of_two();

        let insecure: Arc<dyn KvBackend> = Arc::new(NaiveEnclaveStore::insecure(buckets));
        harness::preload(&*insecure, num_keys, VAL_LEN);
        let r_insecure =
            harness::run_backend(&insecure, spec, num_keys, VAL_LEN, 1, ops, args.seed);

        let store = NaiveEnclaveStore::new(buckets, scale.epc_bytes);
        let enclave = Arc::clone(store.enclave());
        let baseline: Arc<dyn KvBackend> = Arc::new(store);
        harness::preload(&*baseline, num_keys, VAL_LEN);
        let before = enclave.stats().snapshot().epc_faults;
        let r_baseline =
            harness::run_backend(&baseline, spec, num_keys, VAL_LEN, 1, ops, args.seed);
        let faults =
            (enclave.stats().snapshot().epc_faults - before) as f64 / r_baseline.ops as f64;
        knee.push((db_bytes, faults));

        table.row(&[
            format!("{:.1}", db_bytes as f64 / (1 << 20) as f64),
            num_keys.to_string(),
            report::kops(r_insecure.kops()),
            report::kops(r_baseline.kops()),
            report::ratio(r_insecure.kops() / r_baseline.kops()),
            format!("{faults:.3}"),
        ]);
    }
    table.print();
    println!();
    println!(
        "expect: slowdown near 1-2x while the DB fits EPC ({} MB), then growing to 100x+.",
        epc >> 20
    );
    report::verdict(report::EPC_KNEE, report::epc_knee(epc, &knee));
}
