//! One workload's system under test — enclave, store, optional log,
//! optional server and connection — and the shadow model every reply is
//! checked against.

use crate::memfs::MemFs;
use crate::spec::{Transport, Workload, KEY_LEN, WAL_GROUP};
use crate::wire::Serving;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use sgx_sim::storage::{RealFs, StorageFs};
use shield_workload::{make_key, make_value, Generator, Op, Spec};
use shieldstore::{Config, DurabilityPolicy, ShieldStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The enclave identity is fixed (not derived from `--seed`) so the
/// table layout, and with it `space_amp`, is the same for every seed;
/// the seed drives the op stream only. Recovery needs the same identity
/// to unseal the log.
const ENCLAVE_NAME: &str = "shieldstore-benchmark";
const ENCLAVE_SEED: u64 = 0x5e1d;

fn enclave() -> Arc<Enclave> {
    EnclaveBuilder::new(ENCLAVE_NAME).seed(ENCLAVE_SEED).build()
}

/// Where the durable workload's log lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalMode {
    /// As measured end to end: group commit every `WAL_GROUP` writes
    /// into a [`MemFs`].
    Measured,
    /// For the commit spans: the real file system with real syncs, in a
    /// scratch directory under `out/`, and a policy that never commits
    /// by itself, so that each group commit is an explicit `flush_wal`.
    CommitSpans,
}

fn store_config(w: &Workload, policy: DurabilityPolicy) -> Config {
    Config::shield_opt()
        .buckets(w.buckets)
        .mac_hashes(w.mac_hashes)
        .with_shards(w.shards)
        .with_durability(policy)
}

/// Scratch space inside the checkout (`benchmark/out/`, git-ignored).
pub fn out_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory under `out/`, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn fresh() -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("wal-{}-{n}", std::process::id()));
        // A leftover from a killed run with the same pid must not be replayed.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create WAL scratch directory");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The attached log's directory and the file system it is in.
pub struct WalHome {
    dir: PathBuf,
    /// `Some` in [`WalMode::Measured`].
    mem: Option<Arc<MemFs>>,
    _scratch: Option<ScratchDir>,
}

impl WalHome {
    fn new(mode: WalMode) -> (WalHome, Arc<dyn StorageFs>) {
        match mode {
            WalMode::Measured => {
                let mem = Arc::new(MemFs::default());
                let home =
                    WalHome { dir: "/wal".into(), mem: Some(Arc::clone(&mem)), _scratch: None };
                (home, mem)
            }
            WalMode::CommitSpans => {
                let scratch = ScratchDir::fresh();
                let home = WalHome { dir: scratch.0.clone(), mem: None, _scratch: Some(scratch) };
                (home, RealFs::shared())
            }
        }
    }
}

/// What the generator asks for next, with the round the shadow model
/// holds (get) or will hold (set) for that key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    Get { id: u64, round: u32 },
    Set { id: u64, round: u32 },
}

/// The shadow model: per key, the round of the last value written.
/// Key `id` holds `make_value(id, round, val_len)`. A set moves the
/// model when it is issued; per-key request order is preserved end to
/// end (one connection, one owning loop per key), and a set that is not
/// acknowledged `Ok` is a failed op and fails the run.
pub struct Model {
    generator: Generator,
    rounds: Vec<u32>,
    next_round: u32,
    val_len: usize,
    pub attempted: u64,
    pub failed: u64,
    pub writes: u64,
}

impl Model {
    fn new(w: &Workload, seed: u64) -> Model {
        let spec = Spec::by_name(w.mix).expect("workload mix names a Table 2 spec");
        Model {
            generator: Generator::new(spec, w.keys, seed),
            rounds: vec![0; w.keys as usize],
            next_round: 0,
            val_len: w.val_len,
            attempted: 0,
            failed: 0,
            writes: 0,
        }
    }

    pub fn next_step(&mut self) -> Step {
        match self.generator.next_op() {
            Op::Get(id) => Step::Get { id, round: self.rounds[id as usize] },
            Op::Set(id) => {
                self.next_round += 1;
                self.rounds[id as usize] = self.next_round;
                Step::Set { id, round: self.next_round }
            }
            other => unreachable!("benchmark mixes are get/set only, got {other:?}"),
        }
    }

    pub fn next_key_id(&mut self) -> u64 {
        self.generator.next_key()
    }

    pub fn round_of(&self, id: u64) -> u32 {
        self.rounds[id as usize]
    }

    pub fn value(&self, id: u64, round: u32) -> Vec<u8> {
        make_value(id, round as u64, self.val_len)
    }

    /// Counts one get; it fails unless the reply is exactly the last
    /// value the model saw written.
    pub fn check_get(&mut self, id: u64, round: u32, reply: Option<&[u8]>) {
        self.attempted += 1;
        if reply != Some(self.value(id, round).as_slice()) {
            self.failed += 1;
        }
    }

    pub fn ack_set(&mut self, ok: bool) {
        self.attempted += 1;
        self.writes += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

pub fn key_of(id: u64) -> Vec<u8> {
    make_key(id, KEY_LEN)
}

/// Fields drop in declaration order: the server stops and joins its
/// loops, the store goes, the log's home is removed.
pub struct Rig {
    pub w: Workload,
    pub net: Option<Serving>,
    pub enclave: Arc<Enclave>,
    pub store: Arc<ShieldStore>,
    pub wal: Option<WalHome>,
    pub model: Model,
}

impl Rig {
    /// Builds the workload's system: store construction, WAL attach,
    /// preload of every key at round 0, server start and handshake.
    /// The caller times this call as `setup_s`. `mode` matters to the
    /// durable workload only.
    pub fn build(w: &Workload, seed: u64, mode: WalMode) -> Rig {
        let enclave = enclave();
        let policy = match mode {
            WalMode::Measured if w.durable => DurabilityPolicy::EveryN(WAL_GROUP),
            _ => DurabilityPolicy::None,
        };
        let (wal, storage) = match w.durable {
            true => {
                let (home, storage) = WalHome::new(mode);
                (Some(home), storage)
            }
            false => (None, RealFs::shared()),
        };
        let store = Arc::new(
            ShieldStore::new_with_storage(Arc::clone(&enclave), store_config(w, policy), storage)
                .expect("build store"),
        );
        if let Some(home) = &wal {
            store.attach_wal(&home.dir).expect("attach WAL");
        }
        for id in 0..w.keys {
            store.set(&key_of(id), &make_value(id, 0, w.val_len)).expect("preload");
        }
        store.flush_wal().expect("flush preload");

        let net = match w.transport {
            Transport::InProc => None,
            Transport::Wire { event_loops } => {
                Some(Serving::start(Arc::clone(&store), &enclave, event_loops, seed))
            }
        };
        Rig { w: *w, net, enclave, store, wal, model: Model::new(w, seed) }
    }

    /// Bytes held per byte of user data: live untrusted heap plus the
    /// log's files, over keys x (key + value).
    pub fn space_amp(&self) -> f64 {
        let log = self.wal.as_ref().and_then(|home| home.mem.as_ref()).map_or(0, |mem| mem.bytes());
        (self.store.snapshot().heap_live_bytes + log) as f64 / self.w.user_bytes() as f64
    }

    /// Durability gate: commit the log, drop the store, recover a new
    /// one from the log's files alone and compare every key with the
    /// model (mismatches count as failed ops). Returns the recovery
    /// time and the model with the sweep counted in.
    pub fn recover_and_check(self) -> (Duration, Model) {
        let Rig { w, store, wal, mut model, .. } = self;
        let home = wal.expect("durable workload");
        let fs: Arc<dyn StorageFs> = home.mem.clone().expect("the measured log is in memory");
        store.flush_wal().expect("final flush");
        let config = store.config().clone();
        drop(store);
        let counter = PersistentCounter::open_with(Arc::clone(&fs), "/snapshot.counter")
            .expect("open snapshot counter");
        let started = Instant::now();
        let recovered =
            ShieldStore::recover_with_storage(enclave(), fs, config, None, &counter, &home.dir)
                .expect("recover from log");
        let took = started.elapsed();
        for id in 0..w.keys {
            let reply = recovered.get(&key_of(id)).ok();
            model.check_get(id, model.round_of(id), reply.as_deref());
        }
        (took, model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_last_written_round() {
        let w = crate::spec::WORKLOADS[3].scaled(50);
        let mut m = Model::new(&w, 9);
        let mut sets = 0;
        for _ in 0..1_000 {
            match m.next_step() {
                Step::Set { id, round } => {
                    sets += 1;
                    assert_eq!(m.round_of(id), round);
                    assert_eq!(round, sets);
                }
                Step::Get { id, round } => assert_eq!(m.round_of(id), round),
            }
        }
        assert!(sets > 300);
        m.check_get(5, 0, Some(&make_value(5, 0, w.val_len)));
        m.check_get(5, 0, Some(&make_value(5, 1, w.val_len)));
        m.check_get(5, 0, None);
        assert_eq!((m.attempted, m.failed), (3, 2));
    }
}
