//! The one rig every phase runs in: a reset virtual clock, a scratch
//! directory, the phase's randomness and enclave identity, the shared
//! table shape, the [`Tally`] the phase counts into, and the one way a
//! phase freezes the TTL clock ([`ThawGuard`]).

use crate::{Tally, Violation};
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use shield_workload::rng::SplitMix64;
use shieldstore::{ttl, Config};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// A builder for a harness enclave: `name`, `seed`, 8 MiB of EPC.
pub fn enclave(name: &str, seed: u64) -> EnclaveBuilder {
    EnclaveBuilder::new(name).seed(seed).epc_bytes(8 << 20)
}

/// The table every phase shares unless it says otherwise: all of §5 on,
/// 64 buckets, 16 set hashes, 2 shards.
pub fn config() -> Config {
    Config::shield_opt().buckets(64).mac_hashes(16).with_shards(2)
}

/// A directory under the system's temporary directory, unique to this
/// process and `label`, created empty and removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ss-{label}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The TTL clock, frozen by one phase at a time: the clock is
/// process-wide, and `cargo test` runs phases side by side. Dropping the
/// guard thaws the clock, even when a check fails early.
pub struct ThawGuard {
    _turn: MutexGuard<'static, ()>,
}

impl ThawGuard {
    /// Waits for any other phase's guard, then freezes the clock at
    /// `at_ns`; [`ttl::freeze`] moves it while the guard is held.
    pub fn freeze(at_ns: u64) -> Self {
        static CLOCK: Mutex<()> = Mutex::new(());
        let turn = CLOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        ttl::freeze(at_ns);
        ThawGuard { _turn: turn }
    }
}

impl Drop for ThawGuard {
    fn drop(&mut self) {
        ttl::thaw();
    }
}

/// What a phase is handed by [`run_phase`].
pub struct Rig {
    /// The seed the phase runs under.
    pub seed: u64,
    /// The phase's randomness, seeded `seed ^ salt`.
    pub rng: SplitMix64,
    /// What the phase counts; [`run_phase`] returns it.
    pub tally: Tally,
    name: &'static str,
    dir: ScratchDir,
}

impl Rig {
    /// `file` in the phase's scratch directory.
    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.path().join(file)
    }

    /// The phase's enclave, `adversary-<phase>`, at the phase's seed.
    pub fn enclave(&self) -> Arc<Enclave> {
        self.enclave_at(self.seed)
    }

    /// The phase's enclave identity at another seed.
    pub fn enclave_at(&self, seed: u64) -> Arc<Enclave> {
        enclave(&format!("adversary-{}", self.name), seed).build()
    }
}

/// Runs phase `name` for `seed` in a fresh [`Rig`] and returns what it
/// counted.
pub fn run_phase(
    name: &'static str,
    seed: u64,
    salt: u64,
    phase: impl FnOnce(&mut Rig) -> Result<(), Violation>,
) -> Result<Tally, Violation> {
    sgx_sim::vclock::reset();
    let mut rig = Rig {
        seed,
        rng: SplitMix64::new(seed ^ salt),
        tally: Tally::default(),
        name,
        dir: ScratchDir::new(&format!("adversary-{name}-{seed}")),
    };
    phase(&mut rig)?;
    Ok(rig.tally)
}
