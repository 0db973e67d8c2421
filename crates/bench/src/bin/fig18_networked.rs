//! Figure 18: networked client-server evaluation.
//!
//! Clients connect over TCP (loopback here; a 10 GbE link in the paper),
//! remote-attest the server, and drive encrypted requests. Six
//! configurations per data size: Memcached+graphene, Baseline, ShieldOpt,
//! ShieldOpt+HotCalls, Insecure Memcached, and Insecure Baseline. The
//! secure configurations charge an enclave crossing (ECALL ~8,000 cycles,
//! or HotCalls ~620) per burst of requests a server loop executes
//! together; each user here has one request in flight, so on one worker a
//! burst is one request, and the `crossings/req` column shows it.
//! Insecure configurations skip attestation, traffic crypto and crossings.
//!
//! Note: on a single-core host the server workers and client threads
//! share one CPU, so the 1-vs-4-worker scaling of the paper cannot
//! manifest; the comparison *between stores* at fixed concurrency is the
//! reproducible part, and the store-side SGX penalties are virtual-time
//! accounted as everywhere else.

use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::Enclave;
use shield_baseline::{KvBackend, MemcachedLike, NaiveEnclaveStore};
use shield_net::client::{run_load, KvClient, LoadConfig};
use shield_net::poller::raise_nofile_limit;
use shield_net::server::{CrossingMode, Server, ServerConfig};
use shieldstore::hist::LatencyHist;
use shieldstore::Config;
use shieldstore_bench::{harness, report, Args};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct NetCase {
    name: &'static str,
    secure: bool,
    crossing: CrossingMode,
}

const CASES: [NetCase; 6] = [
    NetCase { name: "Memcached+graphene", secure: true, crossing: CrossingMode::Ecall },
    NetCase { name: "Baseline", secure: true, crossing: CrossingMode::Ecall },
    NetCase { name: "ShieldOpt", secure: true, crossing: CrossingMode::Ecall },
    NetCase { name: "ShieldOpt+HotCalls", secure: true, crossing: CrossingMode::HotCalls },
    NetCase { name: "Insecure Memcached", secure: false, crossing: CrossingMode::Ecall },
    NetCase { name: "Insecure Baseline", secure: false, crossing: CrossingMode::Ecall },
];

fn build_store(
    case: &NetCase,
    scale: &shieldstore_bench::Scale,
    seed: u64,
) -> (Arc<dyn KvBackend>, Option<Arc<Enclave>>) {
    let buckets = scale.num_buckets;
    match case.name {
        "Memcached+graphene" => {
            let s = Arc::new(MemcachedLike::graphene(buckets, scale.epc_bytes));
            let e = Arc::clone(s.enclave());
            (s, Some(e))
        }
        "Baseline" => {
            let s = Arc::new(NaiveEnclaveStore::new(buckets, scale.epc_bytes));
            let e = Arc::clone(s.enclave());
            (s, Some(e))
        }
        "ShieldOpt" | "ShieldOpt+HotCalls" => {
            let s = harness::build_shieldstore(
                Config::shield_opt()
                    .buckets(buckets)
                    .mac_hashes(scale.num_mac_hashes)
                    .with_shards(4),
                scale.epc_bytes,
                seed,
            );
            let e = Arc::clone(s.enclave());
            (s, Some(e))
        }
        "Insecure Memcached" => (Arc::new(MemcachedLike::insecure(buckets)), None),
        "Insecure Baseline" => (Arc::new(NaiveEnclaveStore::insecure(buckets)), None),
        other => panic!("unknown case {other}"),
    }
}

const ROLE_ENV: &str = "SS_FIG18_ROLE";
const CLIENTS_ENV: &str = "SS_FIG18_CLIENTS";

/// Child role for the scale section: an insecure ShieldOpt server that
/// announces its port and parks until killed (both socket ends of a
/// loopback connection share one process's fd budget otherwise).
fn run_scale_server() -> ! {
    let clients: usize =
        std::env::var(CLIENTS_ENV).ok().and_then(|v| v.parse().ok()).unwrap_or(10_000);
    let _ = raise_nofile_limit((clients + 512) as u64);
    let store = harness::build_shieldstore(
        Config::shield_opt().buckets(1024).mac_hashes(64).with_shards(4),
        64 << 20,
        42,
    );
    let enclave = Arc::clone(store.enclave());
    let server = Server::start(
        store,
        Some(enclave),
        ServerConfig {
            event_loops: 4,
            secure: false,
            max_connections: clients + 128,
            frame_timeout: Duration::from_secs(600),
            ..Default::default()
        },
    )
    .expect("scale server start");
    println!("ADDR={}", server.addr());
    use std::io::Write;
    std::io::stdout().flush().expect("flush addr");
    loop {
        std::thread::park();
    }
}

/// Scale addendum: the readiness engine holding 10k+ live connections,
/// with request p99 measured while the whole herd stays open.
fn scale_section() {
    let clients: usize =
        std::env::var(CLIENTS_ENV).ok().and_then(|v| v.parse().ok()).unwrap_or(10_000);
    let _ = raise_nofile_limit((clients + 512) as u64);

    let exe = std::env::current_exe().expect("own executable path");
    let mut child = std::process::Command::new(&exe)
        .env(ROLE_ENV, "server")
        .env(CLIENTS_ENV, clients.to_string())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn scale server");
    let addr: std::net::SocketAddr = {
        use std::io::BufRead;
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout).read_line(&mut line).expect("child addr");
        line.trim().strip_prefix("ADDR=").expect("ADDR line").parse().expect("addr")
    };

    let ramp_started = Instant::now();
    let mut herd: Vec<KvClient> = Vec::with_capacity(clients);
    for i in 0..clients {
        herd.push(KvClient::connect_insecure(addr).expect("ramp connect"));
        if i.is_multiple_of(512) && i > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let ramp = ramp_started.elapsed();

    let mut hist = LatencyHist::new();
    for (i, client) in herd.iter_mut().enumerate() {
        let key = shield_workload::make_key(i as u64, 16);
        let t = Instant::now();
        client.set(&key, b"fig18-scale").expect("scale set");
        hist.record(t.elapsed().as_nanos() as u64);
    }
    for (i, client) in herd.iter_mut().enumerate() {
        let key = shield_workload::make_key(i as u64, 16);
        let t = Instant::now();
        let got = client.get(&key).expect("scale get");
        hist.record(t.elapsed().as_nanos() as u64);
        assert_eq!(got.as_deref(), Some(b"fig18-scale".as_ref()));
    }

    let mut table = report::Table::new(&["clients", "ramp", "samples", "p50", "p95", "p99", "max"]);
    table.row(&[
        clients.to_string(),
        format!("{:.1}s", ramp.as_secs_f64()),
        hist.count().to_string(),
        format!("{}ns", hist.p50()),
        format!("{}ns", hist.p95()),
        format!("{}ns", hist.p99()),
        format!("{}ns", hist.max_ns()),
    ]);
    println!("[scale: {clients} concurrent clients, 4 event loops, insecure ShieldOpt]");
    table.print();
    println!();

    drop(herd);
    child.kill().ok();
    child.wait().ok();
}

fn main() {
    if std::env::var(ROLE_ENV).as_deref() == Ok("server") {
        run_scale_server();
    }
    let args = Args::parse();
    let scale = args.scale;
    report::banner("Figure 18", "networked evaluation (loopback TCP)", &scale);

    let sizes = [("Small", 16usize), ("Medium", 128), ("Large", 512)];
    let workloads = ["RD50_Z", "RD95_Z", "RD100_Z"];

    for workers in [1usize, 4] {
        let mut table = report::Table::new(&["store", "size", "Kop/s", "crossings/req"]);
        for (size_name, val_len) in sizes {
            for case in &CASES {
                let (store, enclave) = build_store(case, &scale, args.seed);
                harness::preload(&*store, scale.num_keys, val_len);
                store.reset_timing();
                store.set_concurrency(workers);

                let server = Server::start(
                    Arc::clone(&store),
                    enclave.clone(),
                    ServerConfig {
                        event_loops: workers,
                        crossing: case.crossing,
                        secure: case.secure,
                        ..Default::default()
                    },
                )
                .expect("server start");

                let verifier = enclave.as_ref().map(|e| {
                    AttestationVerifier::for_enclave(e).expect_measurement(*e.measurement())
                });

                let crossings = || {
                    enclave.as_ref().map_or(0, |e| {
                        let sim = e.stats().snapshot();
                        sim.ecalls + sim.hotcalls
                    })
                };
                let (entered, mut served) = (crossings(), 0);
                let mut total_kops = 0.0;
                for workload in workloads {
                    server.reset_accounting();
                    let report = run_load(
                        server.addr(),
                        verifier.as_ref(),
                        &LoadConfig {
                            users: scale.users,
                            requests_per_user: scale.requests_per_user,
                            secure: case.secure,
                            workload: workload.into(),
                            num_keys: scale.num_keys,
                            val_len,
                            seed: args.seed,
                        },
                    )
                    .expect("load run");
                    served += server.requests_served();
                    let penalty = server.worker_penalties_ns().into_iter().max().unwrap_or(0);
                    total_kops += report.kops(Duration::from_nanos(penalty));
                }
                server.shutdown();
                table.row(&[
                    case.name.into(),
                    size_name.into(),
                    report::kops(total_kops / workloads.len() as f64),
                    match case.secure {
                        true => format!("{:.2}", (crossings() - entered) as f64 / served as f64),
                        false => "-".into(),
                    },
                ]);
            }
        }
        println!("[{workers} server worker(s), {} users]", scale.users);
        table.print();
        println!();
    }
    scale_section();

    println!("expect: ShieldOpt+HotCalls ~5-6x Baseline; insecure stores fastest;");
    println!("        HotCalls beats plain ECALLs; Baseline far behind everything;");
    println!("        the scale row holds 10k+ live connections with sub-ms p99.");
}
