//! Figure 6: OCALL count and throughput vs allocation granularity.
//!
//! ShieldStore's custom heap allocator runs inside the enclave but hands
//! out untrusted memory, OCALLing only for pool chunks (§5.1). Larger
//! chunk granularity means fewer OCALLs. The paper sweeps 1-32 MB on the
//! RD50_Z small-data workload and settles on 16 MB.
//!
//! For reference the first row shows the unoptimized configuration
//! (`per-alloc`): one OCALL per allocation, as with the stock SDK's
//! untrusted heap.
//!
//! The OCALL column is a count, the same on every run: the bin checks
//! that it collapses with granularity ([`report::ocall_collapse`]) and
//! exits 1 when it does not.

use shield_workload::Spec;
use shieldstore::{AllocMode, Config};
use shieldstore_bench::{harness, report, Args};

/// One measure phase under `alloc`: its OCALLs, the bytes it allocated
/// from the heap's chunks, and its throughput.
fn run(alloc: AllocMode, args: &Args) -> (u64, u64, f64) {
    let scale = args.scale;
    let config = Config { alloc, ..Config::shield_opt() }
        .buckets(scale.num_buckets)
        .mac_hashes(scale.num_mac_hashes);
    let store = harness::build_shieldstore(config, scale.epc_bytes, args.seed);
    // Start from an empty table: the 50% set operations of RD50_Z insert
    // fresh keys as the zipfian touches them, exercising the allocator
    // the way the paper's run does.
    let (before, carved) = (store.enclave().stats().snapshot().ocalls, store.heap_carved_bytes());
    let spec = Spec::by_name("RD50_Z").expect("workload");
    let result = harness::run_shieldstore_partitioned(
        &store,
        spec,
        scale.num_keys,
        16,
        1,
        scale.ops,
        args.seed,
    );
    let after = store.enclave().stats().snapshot().ocalls;
    (after - before, (store.heap_carved_bytes() - carved) as u64, result.kops())
}

fn main() {
    let args = Args::parse();
    report::banner(
        "Figure 6",
        "OCALLs and throughput vs allocation granularity (RD50_Z, small)",
        &args.scale,
    );

    let mut table =
        report::Table::new(&["granularity", "OCALLs (measure phase)", "throughput(Kop/s)"]);

    let (per_alloc, _, kops) = run(AllocMode::OcallPerAlloc, &args);
    table.row(&["per-alloc".into(), per_alloc.to_string(), report::kops(kops)]);

    let mut chunked = Vec::new();
    for mb in [1usize, 2, 4, 8, 16, 32] {
        let granularity = mb << 20;
        let (ocalls, allocated, kops) = run(AllocMode::Pooled { granularity }, &args);
        table.row(&[format!("{mb}MB"), ocalls.to_string(), report::kops(kops)]);
        chunked.push(report::ChunkedRow { granularity, allocated, ocalls });
    }
    table.print();
    println!();
    println!("expect: OCALLs drop sharply with granularity; throughput recovers accordingly.");
    report::verdict(report::OCALL_COLLAPSE, report::ocall_collapse(per_alloc, &chunked));
}
