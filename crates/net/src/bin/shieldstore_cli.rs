//! An interactive ShieldStore client.
//!
//! Connects to a `shieldstore_server`, runs the attested handshake, and
//! offers a small redis-cli-style REPL over the encrypted channel.
//!
//! ```text
//! cargo run --release -p shield-net --bin shieldstore_cli -- --addr 127.0.0.1:7700
//! ```
//!
//! Flags:
//!
//! ```text
//! --addr HOST:PORT   server address (required)
//! --seed N           the server's platform seed, to derive the
//!                    attestation verifier (default 0)
//! --insecure         skip attestation and traffic crypto
//! ```
//!
//! Commands: `get K`, `set K V`, `del K`, `append K V`, `incr K [N]`,
//! `scan PREFIX [N]`, `mget K...`, `mset K V [K V]...`, `ping`, `help`,
//! `quit`. `mget`/`mset` ship the whole batch as one frame, so the
//! server verifies each touched bucket set once for the batch.

use sgx_sim::attest::AttestationVerifier;
use sgx_sim::enclave::EnclaveBuilder;
use shield_baseline::{Op, Reply};
use shield_net::client::KvClient;
use std::io::{BufRead, Write};

fn main() {
    let mut addr: Option<String> = None;
    let mut seed = 0u64;
    let mut secure = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = Some(args.next().expect("--addr requires a value")),
            "--seed" => {
                seed = args.next().expect("--seed requires a value").parse().expect("number")
            }
            "--insecure" => secure = false,
            "--help" | "-h" => {
                eprintln!("flags: --addr HOST:PORT [--seed N] [--insecure]");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    let addr: std::net::SocketAddr =
        addr.expect("--addr is required").parse().expect("addr must be HOST:PORT");

    let (connected, banner, failed) = if secure {
        // The verifier key derivation stands in for Intel's attestation
        // service: anyone knowing the platform seed can verify quotes
        // from that platform. The expected measurement pins the genuine
        // server enclave.
        let reference = EnclaveBuilder::new("shieldstore-server").seed(seed).build();
        let verifier = AttestationVerifier::for_enclave(&reference)
            .expect_measurement(*reference.measurement());
        let client = KvClient::connect_secure(addr, &verifier, seed ^ 0x5eed);
        (client, "; attestation verified", "attestation/connect")
    } else {
        (KvClient::connect_insecure(addr), " (INSECURE)", "connect")
    };
    let mut client = connected.unwrap_or_else(|e| {
        eprintln!("{failed} failed: {e}");
        std::process::exit(1)
    });
    println!("connected to {addr}{banner}");

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("shieldstore> ");
        out.flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        // Batched commands take a variable-length argument list; the
        // rest keep the "value may contain spaces" 3-way split.
        let args: Vec<&[u8]> = line.split_whitespace().skip(1).map(str::as_bytes).collect();
        let pairs: Vec<(&[u8], &[u8])> = args.chunks_exact(2).map(|kv| (kv[0], kv[1])).collect();
        let parts: Vec<&str> = line.trim().splitn(3, ' ').collect();
        let op = match parts.as_slice() {
            [""] => continue,
            ["quit"] | ["exit"] => break,
            ["help"] => {
                println!(
                    "get K | set K V | del K | append K V | incr K [N] | scan P [N] | \
                     mget K... | mset K V [K V]... | ping | quit"
                );
                continue;
            }
            ["ping"] => {
                match client.ping() {
                    Ok(()) => println!("PONG"),
                    Err(e) => println!("ERR {e}"),
                }
                continue;
            }
            ["get", k] => Op::Get(k.as_bytes()),
            ["set", k, v] => Op::set(k.as_bytes(), v.as_bytes()),
            ["del", k] => Op::Delete(k.as_bytes()),
            ["append", k, v] => Op::Append { key: k.as_bytes(), suffix: v.as_bytes() },
            ["incr", k] => Op::Increment { key: k.as_bytes(), delta: 1 },
            ["incr", k, n] => match n.parse() {
                Ok(delta) => Op::Increment { key: k.as_bytes(), delta },
                Err(_) => {
                    println!("ERR delta must be an integer");
                    continue;
                }
            },
            ["scan", p] => Op::ScanPrefix { prefix: p.as_bytes(), limit: 20 },
            ["scan", p, n] => match n.parse::<u32>() {
                Ok(limit) => Op::ScanPrefix { prefix: p.as_bytes(), limit: limit as usize },
                Err(_) => {
                    println!("ERR limit must be a number");
                    continue;
                }
            },
            ["mget", ..] if args.is_empty() => {
                println!("ERR mget needs at least one key");
                continue;
            }
            ["mget", ..] => Op::MultiGet(&args),
            ["mset", ..] if args.is_empty() || !args.len().is_multiple_of(2) => {
                println!("ERR mset needs key/value pairs");
                continue;
            }
            ["mset", ..] => Op::MultiSet { items: &pairs, expires_at: 0 },
            _ => {
                println!("ERR unknown command (try `help`)");
                continue;
            }
        };
        match client.execute(op) {
            Ok(reply) => print_reply(op, reply),
            Err(e) => println!("ERR {e}"),
        }
    }
}

/// Prints what `op` answered.
fn print_reply(op: Op<'_>, reply: Reply) {
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    match (op, reply) {
        (_, Reply::Value(Some(v))) => println!("{}", text(&v)),
        (_, Reply::Value(None)) => println!("(nil)"),
        (Op::MultiSet { items, .. }, Reply::Stored) => println!("OK ({} keys)", items.len()),
        (_, Reply::Stored | Reply::Appended(_)) => println!("OK"),
        (_, Reply::Deleted(existed)) => println!("{}", u8::from(existed)),
        (_, Reply::Counter(n)) => println!("{n}"),
        (Op::MultiGet(keys), Reply::Values(values)) => {
            for (k, v) in keys.iter().zip(values) {
                println!("{} = {}", text(k), v.as_deref().map_or("(nil)".into(), text));
            }
        }
        (_, Reply::Entries(entries)) => {
            for (k, v) in &entries {
                println!("{} = {}", text(k), text(v));
            }
            println!("({} entries)", entries.len());
        }
        (_, reply) => println!("{reply:?}"),
    }
}
