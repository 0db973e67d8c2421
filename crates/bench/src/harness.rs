//! Workload runners over stores, with modeled parallelism and
//! virtual-time accounting.
//!
//! ## Modeled parallelism
//!
//! The paper measures on a 4-core i7-7700. This reproduction must also
//! run on single-core hosts, where spawning four worker threads measures
//! scheduler interleaving, not scalability. The runners therefore execute
//! each worker's partition *sequentially* and model an N-core machine:
//!
//! * each worker's **busy time** is measured alone (it would own a core);
//! * each worker's **virtual penalty** (EPC faults, crossings, MEE
//!   overhead) accumulates on its own clock, and faults of different
//!   workers still queue through the EPC's serialized fault channel —
//!   which is what denies the Baseline its scaling (paper Fig. 13);
//! * the run's effective duration is `max_i(busy_i + penalty_i)`.
//!
//! This is deterministic, host-independent, and preserves exactly the
//! effects the paper attributes to multi-threading: ShieldStore's
//! partitions share nothing (linear scaling), the Baseline bottlenecks on
//! the paging channel (flat), and memcached's maintainer interference
//! (modeled virtually, see `shield-baseline`) degrades it beyond two
//! workers.

use sgx_sim::vclock;
use shield_baseline::{KvBackend, Op as KvOp, Reply};
use shield_workload::{make_key, make_value, Generator, Op, Spec};
use shieldstore::{ShieldStore, DEFAULT_TENANT};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The outcome of one measured run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Operations completed.
    pub ops: u64,
    /// Modeled run duration: `max_i(busy_i + penalty_i)`.
    pub effective: Duration,
    /// Largest per-worker busy (real CPU) time.
    pub max_busy: Duration,
    /// Largest per-worker virtual penalty.
    pub max_penalty_ns: u64,
    /// Operations refused (e.g. Eleos pool exhaustion).
    pub refused: u64,
}

impl RunResult {
    /// Throughput in Kop/s over effective time.
    pub fn kops(&self) -> f64 {
        let secs = self.effective.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs / 1e3
        }
    }

    /// Effective average latency per operation in nanoseconds.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.effective.as_nanos() as f64 / self.ops as f64
        }
    }
}

/// Combines per-worker `(busy, penalty)` samples into a [`RunResult`].
fn combine(ops: u64, refused: u64, workers: &[(Duration, u64)]) -> RunResult {
    let mut effective = Duration::ZERO;
    let mut max_busy = Duration::ZERO;
    let mut max_penalty = 0u64;
    for &(busy, penalty) in workers {
        effective = effective.max(busy + Duration::from_nanos(penalty));
        max_busy = max_busy.max(busy);
        max_penalty = max_penalty.max(penalty);
    }
    RunResult { ops, effective, max_busy, max_penalty_ns: max_penalty, refused }
}

/// Executes one workload op through `exec` — a backend's or a shard's
/// `execute`. Returns `false` when the store refused it — capacity, a
/// quarantined partition, a poisoned log: whatever `execute` reported,
/// the run counts it and goes on.
fn apply_op(
    mut exec: impl FnMut(KvOp<'_>) -> Option<Reply>,
    op: Op,
    round: u64,
    val_len: usize,
) -> bool {
    let id = op.key_id();
    let key = make_key(id, 16);
    match op {
        Op::Get(_) => exec(KvOp::Get(&key)).is_some(),
        Op::Set(_) => exec(KvOp::set(&key, &make_value(id, round, val_len))).is_some(),
        Op::Append(_) => exec(KvOp::Append { key: &key, suffix: b"-app" }).is_some(),
        Op::ReadModifyWrite(_) => {
            let Some(read) = exec(KvOp::Get(&key)) else { return false };
            let mut v = read.value().unwrap_or_else(|| make_value(id, 0, val_len));
            let n = v.len();
            if n > 0 {
                v[n - 1] = v[n - 1].wrapping_add(1);
            }
            exec(KvOp::set(&key, &v)).is_some()
        }
    }
}

/// Preloads `num_keys` keys with `val_len`-byte values.
pub fn preload(store: &dyn KvBackend, num_keys: u64, val_len: usize) -> u64 {
    let mut loaded = 0;
    for id in 0..num_keys {
        if store.set(&make_key(id, 16), &make_value(id, 0, val_len)) {
            loaded += 1;
        }
    }
    loaded
}

/// Runs `total_ops` workload operations against a backend, modeling
/// `threads` concurrent workers (see the module docs).
pub fn run_backend(
    store: &Arc<dyn KvBackend>,
    spec: Spec,
    num_keys: u64,
    val_len: usize,
    threads: usize,
    total_ops: u64,
    seed: u64,
) -> RunResult {
    let ops_per_thread = total_ops / threads as u64;
    store.reset_timing();
    store.set_concurrency(threads);

    let mut ops = 0u64;
    let mut refused = 0u64;
    let mut workers = Vec::with_capacity(threads);
    for t in 0..threads {
        let mut generator = Generator::new(spec, num_keys, seed ^ ((t as u64) << 32));
        vclock::reset();
        let start = Instant::now();
        for _ in 0..ops_per_thread {
            let exec = |op: KvOp<'_>| store.execute(0, op).ok();
            if apply_op(exec, generator.next_op(), generator.round(), val_len) {
                ops += 1;
            } else {
                refused += 1;
            }
        }
        workers.push((start.elapsed(), vclock::take()));
    }
    store.set_concurrency(1);
    combine(ops, refused, &workers)
}

/// Runs a workload against a [`ShieldStore`] in the paper's partitioned
/// mode (§5.3): operations are routed to their serving shard ahead of
/// time and each modeled worker owns exactly one group of shards, so the
/// run involves no cross-worker synchronization at all.
///
/// `threads` must not exceed the store's shard count.
pub fn run_shieldstore_partitioned(
    store: &Arc<ShieldStore>,
    spec: Spec,
    num_keys: u64,
    val_len: usize,
    threads: usize,
    total_ops: u64,
    seed: u64,
) -> RunResult {
    assert!(threads <= store.num_shards(), "more threads than shards");

    // Pre-generate and route operations (generation excluded from timing).
    let mut queues: Vec<Vec<Op>> = vec![Vec::new(); store.num_shards()];
    let mut generator = Generator::new(spec, num_keys, seed);
    for _ in 0..total_ops {
        let op = generator.next_op();
        let shard = store.shard_of(&make_key(op.key_id(), 16));
        queues[shard].push(op);
    }

    // Assign shards round-robin to modeled workers.
    let mut assignments: Vec<Vec<(usize, Vec<Op>)>> = (0..threads).map(|_| Vec::new()).collect();
    for (shard, queue) in queues.into_iter().enumerate() {
        assignments[shard % threads].push((shard, queue));
    }

    store.enclave().reset_timing();
    let mut ops = 0u64;
    let mut workers = Vec::with_capacity(threads);
    for shard_group in assignments {
        vclock::reset();
        let start = Instant::now();
        for (shard_idx, queue) in shard_group {
            store.with_shard(shard_idx, |shard| {
                let mut round = 0u64;
                for op in queue {
                    round += u64::from(matches!(op, Op::Set(_)));
                    let exec = |op: KvOp<'_>| shard.execute(DEFAULT_TENANT, None, op).ok();
                    assert!(apply_op(exec, op, round, val_len), "shard refused {op:?}");
                    ops += 1;
                }
            });
        }
        workers.push((start.elapsed(), vclock::take()));
    }
    combine(ops, 0, &workers)
}

/// Runs `body` against the store and returns its result together with
/// the observability delta the run produced: operation counters, latency
/// histograms, and SGX transition counts as a snapshot diff. Benchmarks
/// use this to report tail latencies next to throughput without
/// resetting any live counters.
pub fn with_snapshot<T>(
    store: &ShieldStore,
    body: impl FnOnce(&ShieldStore) -> T,
) -> (T, shieldstore::StatsSnapshot) {
    let before = store.snapshot();
    let out = body(store);
    let after = store.snapshot();
    (out, after.diff(&before))
}

/// Builds a ShieldStore with the given preset over a fresh enclave.
pub fn build_shieldstore(
    config: shieldstore::Config,
    epc_bytes: usize,
    seed: u64,
) -> Arc<ShieldStore> {
    let enclave = sgx_sim::enclave::EnclaveBuilder::new("bench-shieldstore")
        .epc_bytes(epc_bytes)
        .seed(seed)
        .build();
    Arc::new(ShieldStore::new(enclave, config).expect("store construction"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shieldstore::Config;

    #[test]
    fn backend_runner_counts_ops() {
        let store: Arc<dyn KvBackend> = Arc::new(shield_baseline::NaiveEnclaveStore::insecure(256));
        preload(&*store, 200, 16);
        let spec = Spec::by_name("RD50_U").unwrap();
        let result = run_backend(&store, spec, 200, 16, 2, 1000, 1);
        assert_eq!(result.ops, 1000);
        assert_eq!(result.refused, 0);
        assert!(result.kops() > 0.0);
    }

    #[test]
    fn partitioned_runner_matches_store_contents() {
        let store = build_shieldstore(
            Config::shield_opt().buckets(512).mac_hashes(128).with_shards(4),
            8 << 20,
            7,
        );
        for id in 0..300u64 {
            store.set(&make_key(id, 16), &make_value(id, 0, 16)).unwrap();
        }
        let spec = Spec::by_name("RD95_Z").unwrap();
        let result = run_shieldstore_partitioned(&store, spec, 300, 16, 4, 2000, 3);
        assert_eq!(result.ops, 2000);
        let stats = store.stats();
        assert!(stats.gets > 0);
    }

    #[test]
    fn modeled_scaling_shrinks_effective_time() {
        // A store with no penalties: N modeled workers each do 1/N of the
        // work, so effective time must drop with N.
        let store = build_shieldstore(
            Config::shield_opt().buckets(4096).mac_hashes(256).with_shards(4),
            64 << 20,
            1,
        );
        for id in 0..2000u64 {
            store.set(&make_key(id, 16), &make_value(id, 0, 16)).unwrap();
        }
        let spec = Spec::by_name("RD100_U").unwrap();
        let r1 = run_shieldstore_partitioned(&store, spec, 2000, 16, 1, 20_000, 3);
        let r4 = run_shieldstore_partitioned(&store, spec, 2000, 16, 4, 20_000, 3);
        assert!(
            r4.effective < r1.effective * 3 / 4,
            "4 modeled workers should beat 1: {:?} vs {:?}",
            r4.effective,
            r1.effective
        );
    }

    #[test]
    fn with_snapshot_isolates_the_run() {
        let store = build_shieldstore(Config::shield_opt().buckets(128).mac_hashes(32), 8 << 20, 5);
        store.set(b"pre", b"x").unwrap();
        let (hit, delta) = with_snapshot(&store, |s| {
            s.set(b"a", b"1").unwrap();
            s.set(b"b", b"2").unwrap();
            s.get(b"a").is_ok()
        });
        assert!(hit);
        // Only the ops inside the closure appear in the delta.
        assert_eq!(delta.ops.sets, 2);
        assert_eq!(delta.ops.gets, 1);
        assert_eq!(delta.hists.set.count(), 2);
        assert_eq!(delta.hists.get.count(), 1);
        assert!(delta.hists.set.p50() > 0);
        delta.check_consistent().expect("delta is self-consistent");
    }

    #[test]
    fn effective_time_includes_penalty() {
        let r = combine(1000, 0, &[(Duration::from_millis(1), 999_000_000)]);
        // 1 ms busy + 999 ms penalty = 1 s effective -> 1 Kop/s.
        assert!((r.kops() - 1.0).abs() < 1e-9);
        assert!((r.ns_per_op() - 1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn combine_takes_worker_maximum() {
        let r = combine(
            100,
            0,
            &[(Duration::from_millis(10), 5_000_000), (Duration::from_millis(2), 20_000_000)],
        );
        // Worker 2: 2 ms + 20 ms = 22 ms > worker 1's 15 ms.
        assert_eq!(r.effective, Duration::from_millis(22));
        assert_eq!(r.max_busy, Duration::from_millis(10));
        assert_eq!(r.max_penalty_ns, 20_000_000);
    }
}
