//! The store-layer attack engine: seeded random operations interleaved
//! with attacks on untrusted memory, differentially checked against the
//! reference model after every step.

use crate::{Rig, Violation};
use shield_workload::{Generator, Spec};
use shieldstore::model::Model;
use shieldstore::testing::{EntryField, StaleEntry, TamperOp};
use shieldstore::{Config, Op, ShieldStore};
use std::collections::HashSet;

/// One attack type from the catalog. Each maps to a concrete mutation of
/// untrusted state (entry fields of the Fig. 5 layout, chain structure,
/// MAC side arrays, raw heap bytes, or a stale-entry rollback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// Bit-flip in an entry's encrypted key‖value payload.
    CiphertextFlip,
    /// Bit-flip in an entry's 16-byte tag, wherever its table keeps it:
    /// the MAC-node slot with MAC bucketing, after the ciphertext without.
    MacFlip,
    /// Bit-flip in an entry's IV/counter.
    IvFlip,
    /// Bit-flip in the (MAC-covered) key-size field.
    KeySizeFlip,
    /// Bit-flip in the (MAC-covered) value-size field.
    ValueSizeFlip,
    /// Bit-flip in the 1-byte key hint (MAC-covered per Fig. 5, but read
    /// pre-verification: the flip first forces the §5.4 two-step full
    /// search, which then detects it).
    HintFlip,
    /// Bit-flip in the chain pointer (not MAC-covered).
    ChainNextFlip,
    /// Unlink an entry from its bucket chain.
    Unlink,
    /// Move an entry into a different bucket's chain.
    Splice,
    /// Bit-flip inside a §5.2 MAC side-array node.
    MacSideArrayFlip,
    /// Bit-flip a raw allocator chunk byte (may hit anything).
    HeapChunkFlip,
    /// Replay a previously captured byte-exact entry (rollback).
    StaleReplay,
    /// Plant a wild handle (all ones, past the heap, past its chunk, a
    /// chunk's last byte) in a pointer the lookup hints before it reads:
    /// an entry's `next`, a `mac_heads` slot, a MAC node's `next`.
    WildPointer,
    /// Overwrite an entry handle a MAC node lists (wild, another entry's,
    /// the node's own). The list is only ever hinted: the one acceptable
    /// state is *unchanged*.
    NodeHandlePlant,
    /// Overwrite a MAC node's `cap` with one no honest node of its count
    /// holds (0, below its count, past the largest node, between classes,
    /// a larger class). The one acceptable state is *fails closed*, for
    /// every op on the node's bucket set.
    NodeCapPlant,
    /// Rewrite one entry's encrypted key into another key of the same
    /// bucket — AES-CTR is malleable, and the engine knows every plaintext
    /// key — and copy that key's hint. A search now meets an entry that
    /// decrypts to the other key; ops on either key must fail closed or
    /// agree with the model, writes and deletes included.
    KeyMalleation,
}

/// Every attack the store phase draws from.
pub const CATALOG: [Attack; 16] = [
    Attack::CiphertextFlip,
    Attack::MacFlip,
    Attack::IvFlip,
    Attack::KeySizeFlip,
    Attack::ValueSizeFlip,
    Attack::HintFlip,
    Attack::ChainNextFlip,
    Attack::Unlink,
    Attack::Splice,
    Attack::MacSideArrayFlip,
    Attack::HeapChunkFlip,
    Attack::StaleReplay,
    Attack::WildPointer,
    Attack::NodeHandlePlant,
    Attack::NodeCapPlant,
    Attack::KeyMalleation,
];

impl Attack {
    fn tamper_op(self) -> Option<TamperOp> {
        Some(match self {
            Attack::CiphertextFlip => TamperOp::Field(EntryField::Ciphertext),
            Attack::MacFlip => TamperOp::Field(EntryField::Mac),
            Attack::IvFlip => TamperOp::Field(EntryField::Iv),
            Attack::KeySizeFlip => TamperOp::Field(EntryField::KeySize),
            Attack::ValueSizeFlip => TamperOp::Field(EntryField::ValueSize),
            Attack::HintFlip => TamperOp::Field(EntryField::Hint),
            Attack::ChainNextFlip => TamperOp::Field(EntryField::ChainNext),
            Attack::Unlink => TamperOp::Unlink,
            Attack::Splice => TamperOp::Splice,
            Attack::MacSideArrayFlip => TamperOp::MacSideArray,
            Attack::HeapChunkFlip => TamperOp::HeapChunk,
            Attack::WildPointer => TamperOp::WildPointer,
            Attack::NodeHandlePlant => TamperOp::NodeHandle,
            Attack::NodeCapPlant => TamperOp::NodeCap,
            Attack::StaleReplay | Attack::KeyMalleation => return None,
        })
    }
}

/// The store phase's seed salt.
pub const SALT: u64 = 0xadf0_77aa_11cc_5511;
const NUM_KEYS: u64 = 48;
const VAL_LEN: usize = 24;

fn key_bytes(id: u64) -> Vec<u8> {
    shield_workload::make_key(id, 16)
}

fn value_bytes(id: u64, step: u64) -> Vec<u8> {
    shield_workload::make_value(id, step, VAL_LEN)
}

fn store_config() -> Config {
    // Full protection: key hint + two-step + MAC bucketing all on. The
    // KeySize/Hint attacks are only *survivable-or-detectable* with the
    // two-step fallback in place, so the harness always runs with it.
    crate::rig::config().buckets(96).mac_hashes(24).with_shards(3)
}

fn new_store(name: &str, seed: u64) -> ShieldStore {
    let enclave = crate::rig::enclave(&format!("adversary-{name}"), seed).build();
    ShieldStore::new(enclave, store_config()).expect("store construction")
}

/// A deterministic §5.4 scenario run before the chaotic phase: corrupt
/// one key hint, then read back *every* key. The hint lives in untrusted
/// memory, so the first-pass hint comparison misses the victim entry;
/// the two-step fallback must then run a full decrypting scan and —
/// because the hint is MAC-covered (Fig. 5) — report the corruption as
/// an integrity violation. What must *never* happen is a silent
/// `KeyNotFound` (the attacker hiding a key) or a wrong value.
fn hint_fallback_scenario(seed: u64) -> Result<u64, Violation> {
    let violation =
        |detail: &str| Violation { context: "hint scenario".into(), detail: detail.into() };
    let (store, mut model) = populated("hint", seed)?;
    let before = store.stats().full_scans;
    if !store.tamper(TamperOp::Field(EntryField::Hint), seed) {
        return Err(violation("hint tamper found no entry in a populated store"));
    }
    let mut detections = 0u64;
    for id in 0..NUM_KEYS {
        if !crate::checked(&store, &mut model, "after a hint flip", 0, Op::Get(&key_bytes(id)))? {
            detections += 1;
        }
    }
    if detections == 0 {
        return Err(violation("the flipped (MAC-covered) hint was never detected"));
    }
    let full_scans = store.stats().full_scans - before;
    if full_scans == 0 {
        return Err(violation("no two-step full scan ran despite a corrupted hint"));
    }
    check_stats(&store, "hint scenario stats")?;
    Ok(full_scans)
}

/// A fresh store holding key `id` = value `(id, 0)` for every key, and
/// the model of it.
fn populated(name: &str, seed: u64) -> Result<(ShieldStore, Model), Violation> {
    let (store, mut model) = (new_store(name, seed), Model::default());
    for id in 0..NUM_KEYS {
        let (key, value) = (key_bytes(id), value_bytes(id, 0));
        crate::answered(&store, &mut model, "clean store set", 0, Op::set(&key, &value))?;
    }
    Ok((store, model))
}

/// A deterministic scenario for the two fields of a MAC node that no MAC
/// covers and no pointer check reaches, each with exactly one acceptable
/// state. Listed entry handles are planted first, many of them: every key
/// must still read back its value and take a write — *unchanged*, not one
/// detection. Then one node's `cap` is forged: from then on an op either
/// still answers correctly (another bucket set) or *fails closed*, and at
/// least one does — never a silent miss or a wrong value.
fn node_directory_scenario(seed: u64) -> Result<(), Violation> {
    let violation = |detail: &str| Violation {
        context: "node directory scenario".into(),
        detail: detail.into(),
    };
    let (store, mut model) = populated("directory", seed)?;
    let planted = (0..32).filter(|i| store.tamper(TamperOp::NodeHandle, seed ^ (i << 20))).count();
    if planted == 0 {
        return Err(violation("no MAC node listed a handle to overwrite"));
    }
    let context = "with forged listed handles";
    for id in 0..NUM_KEYS {
        let (key, value) = (key_bytes(id), value_bytes(id, 1));
        crate::answered(&store, &mut model, context, 0, Op::Get(&key))?;
        if id % 3 == 0 {
            crate::answered(&store, &mut model, context, 0, Op::set(&key, &value))?;
            crate::answered(&store, &mut model, context, 0, Op::Get(&key))?;
        } else if id % 3 == 1 {
            crate::answered(&store, &mut model, context, 0, Op::Delete(&key))?;
        }
    }

    if !store.tamper(TamperOp::NodeCap, seed) {
        return Err(violation("no MAC node to forge a cap in"));
    }
    let mut refused = 0u64;
    for id in 0..NUM_KEYS {
        if !crate::checked(&store, &mut model, "with a forged cap", 0, Op::Get(&key_bytes(id)))? {
            refused += 1;
        }
    }
    if refused == 0 {
        return Err(violation("a forged node cap was never refused"));
    }
    check_stats(&store, "node directory scenario stats")
}

/// State for the chaotic interleaved phase.
struct Chaos<'r> {
    rig: &'r mut Rig,
    store: ShieldStore,
    model: Model,
    zipf: Generator,
    /// Stale entry copies captured for later replay: `(shard, entry)`.
    stash: Vec<(usize, StaleEntry)>,
    /// Shards hit by at least one attack (for the liveness check).
    attacked_shards: HashSet<usize>,
}

impl Chaos<'_> {
    /// Applies one store operation and checks the trichotomy. Reads
    /// dominate, as in the paper's workloads; batches take 1–8 keys,
    /// duplicates allowed.
    fn step_op(&mut self, step: u64) -> Result<(), Violation> {
        self.rig.tally.add("ops", 1);
        let kind = self.rig.rng.next_below(10);
        let n = if kind >= 8 { 1 + self.rig.rng.next_below(8) } else { 1 };
        let mut items = Vec::new();
        for i in 0..n {
            let key = key_bytes(self.zipf.next_key());
            let value = match kind {
                4..=6 | 9 => value_bytes(self.rig.rng.next_u64() % NUM_KEYS, step + i),
                _ => Vec::new(),
            };
            items.push((key, value));
        }
        let keys: Vec<&[u8]> = items.iter().map(|(key, _)| key.as_slice()).collect();
        let pairs: Vec<(&[u8], &[u8])> = items.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        let (context, op) = match kind {
            0..=3 => ("get", Op::Get(keys[0])),
            4..=6 => ("set", Op::set(pairs[0].0, pairs[0].1)),
            7 => ("delete", Op::Delete(keys[0])),
            8 => ("multi_get", Op::MultiGet(&keys)),
            // A batch that fails closed stops where verification failed:
            // every prefix is possible, and the model widens to all.
            _ => ("multi_set", Op::MultiSet { items: &pairs, expires_at: 0 }),
        };
        let answered = crate::checked(&self.store, &mut self.model, context, 0, op)?;
        self.rig.tally.add("detected", u64::from(!answered));
        Ok(())
    }
    /// Applies one attack step.
    fn step_attack(&mut self) {
        let attack = CATALOG[self.rig.rng.next_below(CATALOG.len() as u64) as usize];
        let atk_seed = self.rig.rng.next_u64();
        match attack.tamper_op() {
            Some(op) => {
                if self.store.tamper(op, atk_seed) {
                    self.landed(attack, atk_seed as usize % self.store.num_shards());
                }
            }
            None if attack == Attack::KeyMalleation => {
                if let Some(shard) = self.malleate(atk_seed) {
                    self.landed(attack, shard);
                }
            }
            None => {
                // StaleReplay: half the time capture fresh copies, half
                // the time replay one captured earlier (a rollback).
                if !self.stash.is_empty() && atk_seed.is_multiple_of(2) {
                    let idx = (atk_seed >> 8) as usize % self.stash.len();
                    let (shard, stale) = self.stash.swap_remove(idx);
                    if self.store.replay_entry(shard, &stale) {
                        self.landed(attack, shard);
                    }
                } else {
                    let shard = (atk_seed >> 8) as usize % self.store.num_shards();
                    let copies = self.store.stale_entry_copies(shard);
                    if !copies.is_empty() {
                        let pick = (atk_seed >> 16) as usize % copies.len();
                        self.stash.push((shard, copies[pick].clone()));
                    }
                }
            }
        }
    }

    /// Rewrites the key of the first stored key, in a seed-chosen order,
    /// that shares its bucket with another stored key into that key;
    /// returns the shard it landed in.
    fn malleate(&mut self, seed: u64) -> Option<usize> {
        for i in 0..NUM_KEYS {
            let from = key_bytes((seed.wrapping_add(i)) % NUM_KEYS);
            for j in 1..NUM_KEYS {
                let to = key_bytes((seed.wrapping_add(i + j * 7)) % NUM_KEYS);
                if self.store.malleate_key(&from, &to) {
                    return Some(self.store.shard_of(&from));
                }
            }
        }
        None
    }

    /// Counts an attack that mutated untrusted state in `shard`.
    fn landed(&mut self, attack: Attack, shard: usize) {
        self.rig.tally.add("attacks", 1);
        self.rig.tally.add(&format!("{attack:?}"), 1);
        self.attacked_shards.insert(shard);
    }
}

/// Asserts the store's observability snapshot is self-consistent. Under
/// attack the counter invariants must still hold — detections only widen
/// `hits + misses <= gets + deletes`, they never break the histogram or
/// batch accounting — so a failure here means the stats plumbing itself
/// miscounted.
pub(crate) fn check_stats(store: &ShieldStore, context: &str) -> Result<(), Violation> {
    store
        .snapshot()
        .check_consistent()
        .map_err(|detail| Violation { context: context.into(), detail })
}

/// Runs the two §5.4 scenarios, then `steps` of interleaved ops and
/// attacks.
pub fn run(rig: &mut Rig, steps: u64) -> Result<(), Violation> {
    let seed = rig.seed;
    rig.tally.add("hint_full_scans", hint_fallback_scenario(seed)?);
    node_directory_scenario(seed)?;
    // Every kind is listed, landed or not: a stuck attack shows as 0.
    for attack in CATALOG {
        rig.tally.add(&format!("{attack:?}"), 0);
    }

    let spec = Spec::by_name("RD50_Z").expect("workload spec");
    let mut chaos = Chaos {
        rig,
        store: new_store("store", seed),
        model: Model::default(),
        zipf: Generator::new(spec, NUM_KEYS, seed),
        stash: Vec::new(),
        attacked_shards: HashSet::new(),
    };

    // Warm-up: populate so attacks have targets, checking as we go.
    for id in 0..NUM_KEYS / 2 {
        let (key, value) = (key_bytes(id), value_bytes(id, 0));
        crate::answered(&chaos.store, &mut chaos.model, "warm-up", 0, Op::set(&key, &value))?;
    }

    for step in 0..steps {
        if chaos.rig.rng.next_below(100) < 70 {
            chaos.step_op(step)?;
        } else {
            chaos.step_attack();
        }
    }

    // Liveness: a shard no attack ever touched must still serve writes —
    // detection fails closed per bucket set, it does not wedge the store.
    let untouched: Vec<usize> =
        (0..chaos.store.num_shards()).filter(|s| !chaos.attacked_shards.contains(s)).collect();
    if !untouched.is_empty() {
        let mut exercised = false;
        for i in 0..64u64 {
            let key = format!("liveness-{seed}-{i}").into_bytes();
            if untouched.contains(&chaos.store.shard_of(&key)) {
                let value = value_bytes(i, u64::MAX);
                if chaos.store.set(&key, &value).is_err()
                    || chaos.store.get(&key).ok().as_deref() != Some(value.as_slice())
                {
                    return Err(Violation {
                        context: "liveness".into(),
                        detail: format!(
                            "shard {} was never attacked but cannot serve a fresh key",
                            chaos.store.shard_of(&key)
                        ),
                    });
                }
                exercised = true;
            }
        }
        if !exercised {
            // With 64 candidate keys over ≤3 shards this cannot happen;
            // guard anyway so a routing bug is loud.
            return Err(Violation {
                context: "liveness".into(),
                detail: "no probe key routed to an untouched shard".into(),
            });
        }
    }

    // Attack accounting must have reached the enclave counters.
    let (recorded, applied) =
        (chaos.store.enclave().stats().snapshot().attack_steps, chaos.rig.tally.get("attacks"));
    if recorded < applied {
        return Err(Violation {
            context: "accounting".into(),
            detail: format!("applied {applied} attack steps but the enclave recorded {recorded}"),
        });
    }
    check_stats(&chaos.store, "store phase stats")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_phase(seed: u64, steps: u64) -> Result<crate::Tally, Violation> {
        crate::run_phase("store", seed, SALT, |rig| run(rig, steps))
    }

    #[test]
    fn store_phase_runs_clean_on_a_few_seeds() {
        for seed in 0..4 {
            let tally = store_phase(seed, 300).unwrap_or_else(|v| {
                panic!("seed {seed}: trichotomy violation: {v}");
            });
            assert!(tally.get("ops") > 0);
            assert!(tally.get("hint_full_scans") > 0);
        }
    }

    #[test]
    fn catalog_attacks_all_land_over_seeds() {
        // Every catalog entry must actually mutate state on some seed
        // (a stuck attack would silently weaken the whole harness).
        let mut total = crate::Tally::default();
        for seed in 0..12 {
            total.merge(&store_phase(seed, 400).expect("clean run"));
        }
        for kind in CATALOG {
            assert!(
                total.get(&format!("{kind:?}")) > 0,
                "attack {kind:?} never landed in 12 seeds"
            );
        }
    }
}
