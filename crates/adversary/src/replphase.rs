//! Replication attacks: the adversary owns the wire between primary and
//! replica, the shared log directory, and the promotion trigger. Three
//! attack families run per seed, each seed-pure and checked against the
//! reference model:
//!
//! * **split brain** — after a legitimate promotion fences the old
//!   primary, the stale primary's next commit and a second racing
//!   promotion must both fail closed; the new primary stays live.
//! * **stale promotion** — a replica stranded on a pruned generation,
//!   or one holding another primary's log keys, must be refused
//!   *before* anything is fenced: the live primary keeps committing.
//! * **truncation in flight** — batches truncated or bit-flipped on the
//!   wire must be rejected without desyncing the chain; a clean re-poll
//!   from the replica's held position always completes catch-up to the
//!   byte-exact acknowledged state.

use crate::Violation;
use sgx_sim::counter::PersistentCounter;
use sgx_sim::enclave::{Enclave, EnclaveBuilder};
use shield_workload::rng::SplitMix64;
use shieldstore::model::Model;
use shieldstore::{Config, DurabilityPolicy, Op, Replica, ShieldStore, Watermark};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Outcome accounting for one replication-phase run.
#[derive(Debug, Default, Clone)]
pub struct ReplReport {
    /// Acknowledged primary mutations streamed to replicas.
    pub ops: u64,
    /// Attacks injected (sum of the per-kind counters).
    pub attacks: u64,
    /// Attacks that failed closed.
    pub detected: u64,
    /// Split-brain attempts: fenced-primary commits and racing
    /// promotions refused after a legitimate failover.
    pub split_brains: u64,
    /// Stale promotions refused: pruned-generation replicas and
    /// foreign-log key mismatches, with the live primary unfenced.
    pub stale_promotions: u64,
    /// In-flight batch truncations/corruptions rejected without
    /// desyncing the stream.
    pub truncations: u64,
}

fn config() -> Config {
    Config::shield_opt()
        .buckets(64)
        .mac_hashes(16)
        .with_shards(2)
        .with_durability(DurabilityPolicy::Strict)
}

/// Primary and replicas share one enclave identity: promotion reads the
/// primary's sealed pin, which MRENCLAVE sealing only permits for the
/// same measurement on the same platform.
fn enclave(seed: u64) -> Arc<Enclave> {
    EnclaveBuilder::new("adversary-repl").seed(seed).epc_bytes(8 << 20).build()
}

fn scratch_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("ss-adversary-repl-{}-{seed}", std::process::id()))
}

/// Runs the replication attack phase for one seed.
pub fn run_repl_phase(seed: u64) -> Result<ReplReport, Violation> {
    sgx_sim::vclock::reset();
    let dir = scratch_dir(seed);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let result = run_in_dir(seed, &dir);
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn run_in_dir(seed: u64, dir: &Path) -> Result<ReplReport, Violation> {
    let mut report = ReplReport::default();
    let mut rng = SplitMix64::new(seed ^ 0x5e9a_ca7e_d51d_e0a7);
    split_brain(seed, dir, &mut rng, &mut report)?;
    stale_promotion(seed, dir, &mut rng, &mut report)?;
    truncation_in_flight(seed, dir, &mut rng, &mut report)?;
    Ok(report)
}

/// Writes `n` keyed values to the primary, checked against `model`.
fn load(
    store: &ShieldStore,
    model: &mut Model,
    prefix: &str,
    n: u64,
    report: &mut ReplReport,
) -> Result<(), Violation> {
    for i in 0..n {
        let (key, value) = (format!("{prefix}{i}"), format!("{prefix}-val-{i}"));
        crate::answered(
            store,
            model,
            "repl phase load",
            0,
            Op::set(key.as_bytes(), value.as_bytes()),
        )?;
        report.ops += 1;
    }
    Ok(())
}

/// Streams the primary's log into `replica` until it reaches `target`.
fn catch_up(
    primary: &ShieldStore,
    replica: &mut Replica,
    target: Watermark,
    context: &str,
) -> Result<(), Violation> {
    while replica.watermark() < target {
        let at = replica.watermark();
        let batch = primary.repl_batch(at.generation, at.seq, 1 << 20).map_err(|e| Violation {
            context: context.into(),
            detail: format!("poll at {at} chasing {target} failed: {e:?}"),
        })?;
        replica.apply_batch(&batch).map_err(|e| Violation {
            context: context.into(),
            detail: format!("genuine batch at {at} refused: {e:?}"),
        })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Attack A: split brain after a legitimate failover
// ---------------------------------------------------------------------

/// A caught-up replica promotes, fencing the old primary. The stale
/// primary's next commit and a second replica's racing promotion must
/// both fail closed, while the new primary keeps serving and accepting
/// writes — no window in which two nodes commit.
fn split_brain(
    seed: u64,
    dir: &Path,
    rng: &mut SplitMix64,
    report: &mut ReplReport,
) -> Result<(), Violation> {
    let p_wal = dir.join("sb-p-wal");
    let primary = ShieldStore::new(enclave(seed), config()).expect("primary");
    primary.attach_wal(&p_wal).expect("attach wal");
    let mut model = Model::default();
    load(&primary, &mut model, "sb", 8 + rng.next_below(8), report)?;
    let durable =
        primary.flush_wal().expect("flush").expect("strict primary has a durable watermark");

    let fail =
        |what: &str, detail: String| Violation { context: format!("split brain: {what}"), detail };
    let hello = primary.repl_subscribe().map_err(|e| fail("subscribe", format!("{e:?}")))?;
    let winner_store = Arc::new(ShieldStore::new(enclave(seed), config()).expect("winner store"));
    let mut winner = Replica::new(Arc::clone(&winner_store), &hello)
        .map_err(|e| fail("winner replica", format!("{e:?}")))?;
    catch_up(&primary, &mut winner, durable, "split brain: winner catch-up")?;

    // A second replica subscribes but never applies a byte: it will
    // race the promotion from the stream's origin.
    let hello2 = primary.repl_subscribe().map_err(|e| fail("subscribe 2", format!("{e:?}")))?;
    let loser_store = Arc::new(ShieldStore::new(enclave(seed), config()).expect("loser store"));
    let loser = Replica::new(Arc::clone(&loser_store), &hello2)
        .map_err(|e| fail("loser replica", format!("{e:?}")))?;

    // Legitimate failover: the winner's promoted watermark covers every
    // durably acked write, byte-exact.
    let promoted = winner
        .promote(&p_wal, &dir.join("sb-w-wal"))
        .map_err(|e| fail("promotion", format!("caught-up replica refused: {e:?}")))?;
    if promoted < durable {
        return Err(fail("promotion", format!("promoted to {promoted}, acked was {durable}")));
    }
    crate::check_state(&winner_store, &model, "split brain: promoted state")?;

    // The fenced stale primary must not commit another write.
    report.attacks += 1;
    report.split_brains += 1;
    match primary.set(b"split-brain", b"stale") {
        Err(_) => report.detected += 1,
        Ok(()) => {
            return Err(fail("fencing", "fenced stale primary acknowledged a write".into()));
        }
    }

    // The racing promotion must fail closed on the fenced pin.
    report.attacks += 1;
    report.split_brains += 1;
    match loser.promote(&p_wal, &dir.join("sb-l-wal")) {
        Err(_) => report.detected += 1,
        Ok(wm) => {
            return Err(fail("racing promotion", format!("second promotion won at {wm}")));
        }
    }

    // Liveness: the new primary accepts and remembers writes.
    winner_store.set(b"post-failover", b"alive").map_err(|e| {
        fail("new primary liveness", format!("promoted store refused a write: {e:?}"))
    })?;
    match winner_store.get(b"post-failover") {
        Ok(v) if v == b"alive" => Ok(()),
        other => Err(fail("new primary liveness", format!("readback got {other:?}"))),
    }
}

// ---------------------------------------------------------------------
// Attack B: stale promotion against a live primary
// ---------------------------------------------------------------------

/// Two illegitimate promotions against a primary that is alive and
/// rotating: a replica stranded on a generation the log has pruned, and
/// a replica holding a *different* primary's log keys. Both must be
/// refused before the fence — the live primary keeps acknowledging
/// writes afterwards.
fn stale_promotion(
    seed: u64,
    dir: &Path,
    rng: &mut SplitMix64,
    report: &mut ReplReport,
) -> Result<(), Violation> {
    let p_wal = dir.join("sp-p-wal");
    let counter = PersistentCounter::open(dir.join("sp-ctr")).expect("counter");
    let primary = Arc::new(ShieldStore::new(enclave(seed), config()).expect("primary"));
    primary.attach_wal(&p_wal).expect("attach wal");
    let mut model = Model::default();
    load(&primary, &mut model, "sp", 4 + rng.next_below(4), report)?;

    let fail = |what: &str, detail: String| Violation {
        context: format!("stale promotion: {what}"),
        detail,
    };
    // A live subscriber follows the stream across the rotation and acks,
    // releasing the retention floor so generation 0 can be pruned.
    let hello = primary.repl_subscribe().map_err(|e| fail("subscribe", format!("{e:?}")))?;
    let live_store = Arc::new(ShieldStore::new(enclave(seed), config()).expect("live store"));
    let mut live = Replica::new(Arc::clone(&live_store), &hello)
        .map_err(|e| fail("live replica", format!("{e:?}")))?;
    let durable = primary.flush_wal().expect("flush").expect("durable watermark");
    catch_up(&primary, &mut live, durable, "stale promotion: pre-rotation catch-up")?;

    primary.snapshot_blocking(dir.join("sp-1.db"), &counter).expect("first snapshot");
    load(&primary, &mut model, "sp-g1-", 2, report)?;
    let durable = primary.flush_wal().expect("flush").expect("durable watermark");
    catch_up(&primary, &mut live, durable, "stale promotion: post-rotation catch-up")?;
    primary
        .repl_ack(hello.subscriber, live.watermark())
        .map_err(|e| fail("ack", format!("{e:?}")))?;
    primary.snapshot_blocking(dir.join("sp-2.db"), &counter).expect("second snapshot");

    // The stranded replica: same subscription, but positioned at the
    // stream's origin — a generation the second snapshot just pruned.
    let stranded_store = Arc::new(ShieldStore::new(enclave(seed), config()).expect("stranded"));
    let stranded = Replica::new(Arc::clone(&stranded_store), &hello)
        .map_err(|e| fail("stranded replica", format!("{e:?}")))?;
    report.attacks += 1;
    report.stale_promotions += 1;
    match stranded.promote(&p_wal, &dir.join("sp-s-wal")) {
        Err(_) => report.detected += 1,
        Ok(wm) => {
            return Err(fail("pruned generation", format!("stranded replica promoted at {wm}")));
        }
    }

    // The foreign replica: subscribed to a *different* primary, aimed at
    // this one's log. Its session keys cannot match the pin's.
    let f_wal = dir.join("sp-f-wal");
    let foreign_primary = ShieldStore::new(enclave(seed), config()).expect("foreign primary");
    foreign_primary.attach_wal(&f_wal).expect("attach foreign wal");
    foreign_primary.set(b"foreign", b"log").expect("foreign set");
    let f_hello = foreign_primary
        .repl_subscribe()
        .map_err(|e| fail("foreign subscribe", format!("{e:?}")))?;
    let foreign_store = Arc::new(ShieldStore::new(enclave(seed), config()).expect("foreign store"));
    let foreign = Replica::new(Arc::clone(&foreign_store), &f_hello)
        .map_err(|e| fail("foreign replica", format!("{e:?}")))?;
    report.attacks += 1;
    report.stale_promotions += 1;
    match foreign.promote(&p_wal, &dir.join("sp-f2-wal")) {
        Err(_) => report.detected += 1,
        Ok(wm) => {
            return Err(fail("foreign keys", format!("foreign replica promoted at {wm}")));
        }
    }

    // Both refusals happened before the fence: the primary is still the
    // primary.
    primary.set(b"still-primary", b"yes").map_err(|e| {
        fail("collateral fencing", format!("live primary fenced by a refused promotion: {e:?}"))
    })?;
    report.ops += 1;
    Ok(())
}

// ---------------------------------------------------------------------
// Attack C: truncation and corruption in flight
// ---------------------------------------------------------------------

/// Ships the stream one record at a time and mangles the first three
/// batches on the wire — truncating the frame bytes or flipping a bit
/// in them. Every mangled batch must be refused; the replica's position
/// never desyncs, so re-polling from its held watermark completes
/// catch-up to the byte-exact acknowledged state.
fn truncation_in_flight(
    seed: u64,
    dir: &Path,
    rng: &mut SplitMix64,
    report: &mut ReplReport,
) -> Result<(), Violation> {
    let p_wal = dir.join("tr-p-wal");
    let primary = ShieldStore::new(enclave(seed), config()).expect("primary");
    primary.attach_wal(&p_wal).expect("attach wal");
    let mut model = Model::default();
    load(&primary, &mut model, "tr", 8, report)?;
    let durable = primary.flush_wal().expect("flush").expect("durable watermark");

    let fail = |what: &str, detail: String| Violation {
        context: format!("truncation in flight: {what}"),
        detail,
    };
    let hello = primary.repl_subscribe().map_err(|e| fail("subscribe", format!("{e:?}")))?;
    let replica_store = Arc::new(ShieldStore::new(enclave(seed), config()).expect("replica store"));
    let mut replica = Replica::new(Arc::clone(&replica_store), &hello)
        .map_err(|e| fail("replica", format!("{e:?}")))?;

    let mut mangled = 0u64;
    while replica.watermark() < durable {
        let at = replica.watermark();
        // max_bytes=1 exercises the first-frame-always rule: every poll
        // ships exactly one record, so each tamper aims at one frame.
        let batch = primary
            .repl_batch(at.generation, at.seq, 1)
            .map_err(|e| fail("poll", format!("at {at}: {e:?}")))?;
        if mangled < 3 && batch.count > 0 {
            mangled += 1;
            report.attacks += 1;
            report.truncations += 1;
            let mut bad = batch.clone();
            if rng.next_below(2) == 0 {
                let cut = rng.next_below(bad.frames.len() as u64) as usize;
                bad.frames.truncate(cut);
            } else {
                let pos = rng.next_below(bad.frames.len() as u64) as usize;
                bad.frames[pos] ^= 1u8 << rng.next_below(8);
            }
            match replica.apply_batch(&bad) {
                Err(_) => report.detected += 1,
                Ok(wm) => {
                    return Err(fail("tampered batch", format!("applied through to {wm}")));
                }
            }
            // The chain must not have moved: the adversary only touched
            // authenticated frame bytes.
            if replica.watermark() != at {
                return Err(fail(
                    "chain position",
                    format!("moved from {at} to {} on a refused batch", replica.watermark()),
                ));
            }
            continue; // re-poll from the held position
        }
        replica
            .apply_batch(&batch)
            .map_err(|e| fail("genuine batch", format!("refused at {at}: {e:?}")))?;
    }
    crate::check_state(&replica_store, &model, "truncation in flight: caught-up state")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repl_phase_runs_clean_on_a_few_seeds() {
        for seed in 0..3 {
            let report = run_repl_phase(seed).unwrap_or_else(|v| {
                panic!("seed {seed}: repl-phase violation: {v}");
            });
            assert_eq!(report.split_brains, 2, "split-brain count drifted: {report:?}");
            assert_eq!(report.stale_promotions, 2, "stale-promotion count drifted: {report:?}");
            assert_eq!(report.truncations, 3, "truncation count drifted: {report:?}");
            assert_eq!(report.attacks, 7, "attack count drifted: {report:?}");
            assert_eq!(report.detected, 7, "undetected attack: {report:?}");
        }
    }
}
