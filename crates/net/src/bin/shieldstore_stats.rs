//! Observability dashboard for a running `shieldstore_server`.
//!
//! Issues one `Stats` request over the (attested, encrypted) channel and
//! renders the server's aggregated snapshot: operation counters, per-op
//! latency quantiles, heap/cache occupancy, and the SGX-model transition
//! and paging counters.
//!
//! ```text
//! cargo run --release -p shield-net --bin shieldstore_stats -- --addr 127.0.0.1:7700
//! ```
//!
//! Flags:
//!
//! ```text
//! --addr HOST:PORT   server address (required)
//! --seed N           the server's platform seed, to derive the
//!                    attestation verifier (default 0)
//! --insecure         skip attestation and traffic crypto
//! --json             emit one machine-readable JSON object instead of
//!                    the text dashboard
//! ```

use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::EnclaveBuilder;
use shield_net::client::KvClient;
use shieldstore::StatsSnapshot;

fn main() {
    let mut addr: Option<String> = None;
    let mut seed = 0u64;
    let mut secure = true;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(args.next().expect("--addr requires a value")),
            "--seed" => {
                seed = args.next().expect("--seed requires a value").parse().expect("number")
            }
            "--insecure" => secure = false,
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("flags: --addr HOST:PORT [--seed N] [--insecure] [--json]");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    let addr: std::net::SocketAddr =
        addr.expect("--addr is required").parse().expect("addr must be HOST:PORT");

    let mut client = if secure {
        let reference = EnclaveBuilder::new("shieldstore-server").seed(seed).build();
        let verifier = AttestationVerifier::for_enclave(&reference)
            .expect_measurement(*reference.measurement());
        KvClient::connect_secure(addr, &verifier, seed ^ 0x57a7).unwrap_or_else(|e| {
            eprintln!("attestation/connect failed: {e}");
            std::process::exit(1);
        })
    } else {
        KvClient::connect_insecure(addr).unwrap_or_else(|e| {
            eprintln!("connect failed: {e}");
            std::process::exit(1);
        })
    };

    let snap = client.stats().unwrap_or_else(|e| {
        eprintln!("stats request failed: {e}");
        std::process::exit(1);
    });

    if json {
        println!("{}", snap.render_json());
    } else {
        print!("{}", snap.render_text());
        print_derived(&snap);
    }
}

/// What the tables cannot say: ratios, names for coded gauges, and what
/// to do about an unhealthy reading.
fn print_derived(snap: &StatsSnapshot) {
    println!("\n-- derived --");
    println!("{:<28} {}", "total_ops", snap.ops.total_ops());
    println!("{:<28} {:.3}", "decryptions_per_op", snap.ops.decryptions_per_op());
    if let Some(ratio) = snap.cache_hit_ratio() {
        println!("{:<28} {:.1}%", "cache_hit_ratio", ratio * 100.0);
    }
    let g = &snap.hists.wal_group;
    if g.count() > 0 {
        println!("{:<28} p50={} p95={} max={}", "group_commit_ops", g.p50(), g.p95(), g.max_ns());
    }
    println!("{:<28} {:.2}%", "epc_fault_rate", snap.sim.fault_rate() * 100.0);
    let role = match snap.repl_role {
        0 => "standalone",
        1 => "primary (streaming to subscribers)",
        2 => "replica (read-only)",
        _ => "unknown",
    };
    println!("{:<28} {role}", "role");
    let backend = match snap.crypto_backend {
        0 => "soft (table-based AES)",
        1 => "aesni (hardware AES)",
        _ => "unknown",
    };
    println!("{:<28} {backend}", "backend");
    let hidden = snap.tenant_count.saturating_sub(snap.tenant_rows().len() as u64);
    if hidden > 0 {
        println!("  ... {hidden} more tenants (busiest shown)");
    }
    if snap.storage_failed != 0 {
        println!("  !! log writer poisoned: writes fail closed; fail over or repair");
    }
    if snap.quarantined_sets > 0 || snap.quarantined_shards > 0 {
        println!("  !! integrity violations froze part of the store; restore from a snapshot");
    }
}
