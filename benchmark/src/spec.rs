//! The benchmark's fixed tables: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repo root states the same tables; a unit test keeps the two in
//! step.

/// How requests reach the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Secure session over loopback TCP into the epoll engine.
    Wire { event_loops: usize },
    /// Direct `ShieldStore::get/set` calls from the generator thread.
    InProc,
}

/// One benchmark workload: store shape plus traffic mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists — which layers it stresses.
    pub why: &'static str,
    pub transport: Transport,
    pub shards: usize,
    pub keys: u64,
    pub val_len: usize,
    pub buckets: usize,
    pub mac_hashes: usize,
    /// A `shield_workload::Spec` name (paper Table 2).
    pub mix: &'static str,
    /// WAL attached with `DurabilityPolicy::EveryN(WAL_GROUP)`, its files
    /// in a `rig::MemFs`.
    pub durable: bool,
}

/// Group-commit size of the durable workload.
pub const WAL_GROUP: usize = 64;

/// Requests the wire generator keeps in flight — the server's default
/// `ServerConfig::max_pipeline`, so the event loop, not idle wake-ups,
/// sets the number.
pub const WINDOW: usize = 32;

pub const KEY_LEN: usize = 16;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire-read-small",
        why: "secure loopback session, 1 event loop, 16 B values, 95% zipfian reads: frame/session/protocol/engine and syscalls dominate, shard and crypto do little",
        transport: Transport::Wire { event_loops: 1 },
        shards: 1,
        keys: 200_000,
        val_len: 16,
        buckets: 1 << 16,
        mac_hashes: 1 << 14,
        mix: "RD95_Z",
        durable: false,
    },
    Workload {
        name: "wire-mixed-2loop",
        why: "same transport, 2 event loops over 2 shards, 128 B values, 50% writes: half the requests cross loops, so inbox handoff and the shard mutex show",
        transport: Transport::Wire { event_loops: 2 },
        shards: 2,
        keys: 200_000,
        val_len: 128,
        buckets: 1 << 16,
        mac_hashes: 1 << 14,
        mix: "RD50_Z",
        durable: false,
    },
    Workload {
        name: "inproc-large-uniform",
        why: "no network: 512 B values, uniform keys, long chains and ~24 MACs per set verification, working set beyond the CPU caches: shard search, integrity and crypto do all the work",
        transport: Transport::InProc,
        shards: 1,
        keys: 100_000,
        val_len: 512,
        buckets: 1 << 14,
        mac_hashes: 1 << 12,
        mix: "RD95_U",
        durable: false,
    },
    Workload {
        name: "inproc-durable-write",
        why: "no network: WAL attached (log files in memory, see README) with group commit every 64 writes, 128 B values, 50% writes: seal/append/commit ride on every write, so a core gain that costs the log shows",
        transport: Transport::InProc,
        shards: 1,
        keys: 100_000,
        val_len: 128,
        buckets: 1 << 15,
        mac_hashes: 1 << 13,
        mix: "RD50_Z",
        durable: true,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).copied()
    }

    /// The same shape with `1/div` of the keys; buckets and MAC hashes
    /// shrink alike (to powers of two) so chain lengths stay put.
    pub fn scaled(self, div: u64) -> Workload {
        let shrink = |n: usize| ((n as u64 / div).max(64) as usize).next_power_of_two();
        if div <= 1 {
            return self;
        }
        Workload {
            keys: (self.keys / div).max(256),
            buckets: shrink(self.buckets),
            mac_hashes: shrink(self.mac_hashes),
            ..self
        }
    }

    /// Bytes of user data after preload: keys x (key + value).
    pub fn user_bytes(&self) -> u64 {
        self.keys * (KEY_LEN + self.val_len) as u64
    }

    pub fn is_wire(&self) -> bool {
        matches!(self.transport, Transport::Wire { .. })
    }
}

/// An end-to-end metric and the share of the parent's median by which
/// it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "throughput_kops", unit: "kop/s", higher_is_better: true, bound: 0.15 },
    EndToEnd { name: "latency_p50_us", unit: "us", higher_is_better: false, bound: 0.15 },
    EndToEnd { name: "sgx_penalty_ns_per_op", unit: "ns/op", higher_is_better: false, bound: 0.02 },
    EndToEnd { name: "space_amp", unit: "B/B", higher_is_better: false, bound: 0.02 },
    EndToEnd { name: "effective_ns_per_op", unit: "ns/op", higher_is_better: false, bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", higher_is_better: false, bound: 0.25 },
];

/// A single layer's metric; reported by the traced run, never gated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: false }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, higher_is_better: true }
}

pub const PER_LAYER: [PerLayer; 51] = [
    lower("protocol.encode_request_ns", "ns"),
    lower("protocol.decode_request_ns", "ns"),
    lower("protocol.encode_response_ns", "ns"),
    lower("protocol.decode_response_ns", "ns"),
    lower("session.seal_ns", "ns"),
    lower("session.open_ns", "ns"),
    lower("frame.feed_ns_per_frame", "ns"),
    lower("server.execute_ns", "ns"),
    lower("server.execute_overhead_ns", "ns"),
    lower("net.server_path_ns_per_op", "ns/op"),
    lower("engine.transport_residual_ns_per_op", "ns/op"),
    lower("engine.handoffs_per_op", "1/op"),
    higher("engine.two_loop_speedup", "x"),
    lower("admission.shed_per_kop", "1/kop"),
    lower("client.kvclient_rtt_p50_us", "us"),
    higher("client.kvclient_pipeline32_kops", "kop/s"),
    lower("shard.get_p50_ns", "ns"),
    lower("shard.set_p50_ns", "ns"),
    lower("shard.multi_get64_ns_per_key", "ns"),
    lower("shard.key_decryptions_per_op", "1/op"),
    higher("shard.hint_skips_per_op", "1/op"),
    lower("shard.full_scans_per_kop", "1/kop"),
    lower("integrity.verifications_per_op", "1/op"),
    lower("integrity.macs_gathered_per_op", "1/op"),
    lower("crypto.open_verify_ns", "ns"),
    lower("crypto.ctr_ns", "ns"),
    lower("crypto.cmac_ns", "ns"),
    lower("crypto.bytes_per_op", "B/op"),
    lower("crypto.calls_per_op", "1/op"),
    higher("crypto.backend", "code"),
    lower("alloc.heap_bytes_per_user_byte", "B/B"),
    lower("alloc.chunks", "count"),
    higher("alloc.inplace_updates_per_kop", "1/kop"),
    lower("alloc.realloc_updates_per_kop", "1/kop"),
    higher("store.entries", "count"),
    higher("store.hit_share", "share"),
    lower("wal.bytes_per_write", "B/op"),
    lower("wal.fsyncs_per_write", "1/op"),
    higher("wal.group_p50", "count"),
    lower("wal.commit_p50_us", "us"),
    lower("wal.commit_share", "share"),
    lower("wal.recover_ms_per_kwrite", "ms/kop"),
    lower("sgx-sim.hotcalls_per_op", "1/op"),
    lower("sgx-sim.ocalls_per_kop", "1/kop"),
    lower("sgx-sim.epc_faults_per_kop", "1/kop"),
    lower("sgx-sim.epc_evictions_per_kop", "1/kop"),
    lower("loadgen.latency_p99_us", "us"),
    lower("loadgen.latency_max_us", "us"),
    lower("loadgen.busy_share", "share"),
    lower("loadgen.segment_spread", "share"),
    lower("loadgen.trace_overhead_share", "share"),
];

pub fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn scaled_keeps_chain_length() {
        let w = WORKLOADS[2];
        let q = w.scaled(50);
        assert_eq!(q.keys, 2_000);
        assert!(q.buckets.is_power_of_two() && q.mac_hashes.is_power_of_two());
        let chain = |w: &Workload| w.keys as f64 / w.buckets as f64;
        assert!((chain(&q) / chain(&w) - 1.0).abs() < 0.5, "{} vs {}", chain(&q), chain(&w));
        assert_eq!(w.scaled(1), w);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    /// `BENCHMARK.json` is what later PRs cite; it must state exactly
    /// the tables this program measures.
    #[test]
    fn benchmark_json_matches_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("valid JSON");
        let mut keys: Vec<&str> =
            doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );

        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(j.get("why").unwrap().as_str(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(j.get("better").unwrap().as_str(), Some(better(m.higher_is_better)));
            assert_eq!(j.get("bound").unwrap().as_f64(), Some(m.bound));
        }
        let layers = doc.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").unwrap().as_str(), Some(m.name));
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(j.get("better").unwrap().as_str(), Some(better(m.higher_is_better)));
        }
    }
}
