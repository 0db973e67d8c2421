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

use crate::{Rig, Tally, Violation};
use sgx_sim::counter::PersistentCounter;
use shieldstore::model::Model;
use shieldstore::{DurabilityPolicy, Op, Replica, ShieldStore, Watermark};
use std::sync::Arc;

/// The replication phase's seed salt.
pub const SALT: u64 = 0x5e9a_ca7e_d51d_e0a7;

/// A strict store in the phase's enclave. Primary and replicas share
/// one enclave identity: promotion reads the primary's sealed pin, which
/// MRENCLAVE sealing only permits for the same measurement on the same
/// platform.
fn store(rig: &Rig, what: &str) -> ShieldStore {
    let config = crate::rig::config().with_durability(DurabilityPolicy::Strict);
    ShieldStore::new(rig.enclave(), config).expect(what)
}

/// Runs the replication attack phase. Besides `ops` (acknowledged
/// primary writes), `attacks` and `detected`, it counts each kind:
/// `split_brains` (fenced-primary commits and racing promotions),
/// `stale_promotions` (pruned-generation and foreign-key replicas) and
/// `truncations` (batches mangled in flight).
pub fn run(rig: &mut Rig) -> Result<(), Violation> {
    split_brain(rig)?;
    stale_promotion(rig)?;
    truncation_in_flight(rig)
}

/// Counts an attack of `kind` that failed closed.
fn refused(tally: &mut Tally, kind: &str) {
    for name in ["attacks", kind, "detected"] {
        tally.add(name, 1);
    }
}

/// Writes `n` keyed values to the primary, checked against `model`.
fn load(
    store: &ShieldStore,
    model: &mut Model,
    prefix: &str,
    n: u64,
    tally: &mut Tally,
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
        tally.add("ops", 1);
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
fn split_brain(rig: &mut Rig) -> Result<(), Violation> {
    let p_wal = rig.path("sb-p-wal");
    let primary = store(rig, "primary");
    primary.attach_wal(&p_wal).expect("attach wal");
    let mut model = Model::default();
    load(&primary, &mut model, "sb", 8 + rig.rng.next_below(8), &mut rig.tally)?;
    let durable =
        primary.flush_wal().expect("flush").expect("strict primary has a durable watermark");

    let fail =
        |what: &str, detail: String| Violation { context: format!("split brain: {what}"), detail };
    let hello = primary.repl_subscribe().map_err(|e| fail("subscribe", format!("{e:?}")))?;
    let winner_store = Arc::new(store(rig, "winner store"));
    let mut winner = Replica::new(Arc::clone(&winner_store), &hello)
        .map_err(|e| fail("winner replica", format!("{e:?}")))?;
    catch_up(&primary, &mut winner, durable, "split brain: winner catch-up")?;

    // A second replica subscribes but never applies a byte: it will
    // race the promotion from the stream's origin.
    let hello2 = primary.repl_subscribe().map_err(|e| fail("subscribe 2", format!("{e:?}")))?;
    let loser_store = Arc::new(store(rig, "loser store"));
    let loser = Replica::new(Arc::clone(&loser_store), &hello2)
        .map_err(|e| fail("loser replica", format!("{e:?}")))?;

    // Legitimate failover: the winner's promoted watermark covers every
    // durably acked write, byte-exact.
    let promoted = winner
        .promote(&p_wal, &rig.path("sb-w-wal"))
        .map_err(|e| fail("promotion", format!("caught-up replica refused: {e:?}")))?;
    if promoted < durable {
        return Err(fail("promotion", format!("promoted to {promoted}, acked was {durable}")));
    }
    crate::check_state(&winner_store, &model, "split brain: promoted state")?;

    // The fenced stale primary must not commit another write.
    match primary.set(b"split-brain", b"stale") {
        Err(_) => refused(&mut rig.tally, "split_brains"),
        Ok(()) => {
            return Err(fail("fencing", "fenced stale primary acknowledged a write".into()));
        }
    }

    // The racing promotion must fail closed on the fenced pin.
    match loser.promote(&p_wal, &rig.path("sb-l-wal")) {
        Err(_) => refused(&mut rig.tally, "split_brains"),
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
fn stale_promotion(rig: &mut Rig) -> Result<(), Violation> {
    let p_wal = rig.path("sp-p-wal");
    let counter = PersistentCounter::open(rig.path("sp-ctr")).expect("counter");
    let primary = Arc::new(store(rig, "primary"));
    primary.attach_wal(&p_wal).expect("attach wal");
    let mut model = Model::default();
    load(&primary, &mut model, "sp", 4 + rig.rng.next_below(4), &mut rig.tally)?;

    let fail = |what: &str, detail: String| Violation {
        context: format!("stale promotion: {what}"),
        detail,
    };
    // A live subscriber follows the stream across the rotation and acks,
    // releasing the retention floor so generation 0 can be pruned.
    let hello = primary.repl_subscribe().map_err(|e| fail("subscribe", format!("{e:?}")))?;
    let live_store = Arc::new(store(rig, "live store"));
    let mut live = Replica::new(Arc::clone(&live_store), &hello)
        .map_err(|e| fail("live replica", format!("{e:?}")))?;
    let durable = primary.flush_wal().expect("flush").expect("durable watermark");
    catch_up(&primary, &mut live, durable, "stale promotion: pre-rotation catch-up")?;

    primary.snapshot_blocking(rig.path("sp-1.db"), &counter).expect("first snapshot");
    load(&primary, &mut model, "sp-g1-", 2, &mut rig.tally)?;
    let durable = primary.flush_wal().expect("flush").expect("durable watermark");
    catch_up(&primary, &mut live, durable, "stale promotion: post-rotation catch-up")?;
    primary
        .repl_ack(hello.subscriber, live.watermark())
        .map_err(|e| fail("ack", format!("{e:?}")))?;
    primary.snapshot_blocking(rig.path("sp-2.db"), &counter).expect("second snapshot");

    // The stranded replica: same subscription, but positioned at the
    // stream's origin — a generation the second snapshot just pruned.
    let stranded_store = Arc::new(store(rig, "stranded"));
    let stranded = Replica::new(Arc::clone(&stranded_store), &hello)
        .map_err(|e| fail("stranded replica", format!("{e:?}")))?;
    match stranded.promote(&p_wal, &rig.path("sp-s-wal")) {
        Err(_) => refused(&mut rig.tally, "stale_promotions"),
        Ok(wm) => {
            return Err(fail("pruned generation", format!("stranded replica promoted at {wm}")));
        }
    }

    // The foreign replica: subscribed to a *different* primary, aimed at
    // this one's log. Its session keys cannot match the pin's.
    let f_wal = rig.path("sp-f-wal");
    let foreign_primary = store(rig, "foreign primary");
    foreign_primary.attach_wal(&f_wal).expect("attach foreign wal");
    foreign_primary.set(b"foreign", b"log").expect("foreign set");
    let f_hello = foreign_primary
        .repl_subscribe()
        .map_err(|e| fail("foreign subscribe", format!("{e:?}")))?;
    let foreign_store = Arc::new(store(rig, "foreign store"));
    let foreign = Replica::new(Arc::clone(&foreign_store), &f_hello)
        .map_err(|e| fail("foreign replica", format!("{e:?}")))?;
    match foreign.promote(&p_wal, &rig.path("sp-f2-wal")) {
        Err(_) => refused(&mut rig.tally, "stale_promotions"),
        Ok(wm) => {
            return Err(fail("foreign keys", format!("foreign replica promoted at {wm}")));
        }
    }

    // Both refusals happened before the fence: the primary is still the
    // primary.
    primary.set(b"still-primary", b"yes").map_err(|e| {
        fail("collateral fencing", format!("live primary fenced by a refused promotion: {e:?}"))
    })?;
    rig.tally.add("ops", 1);
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
fn truncation_in_flight(rig: &mut Rig) -> Result<(), Violation> {
    let p_wal = rig.path("tr-p-wal");
    let primary = store(rig, "primary");
    primary.attach_wal(&p_wal).expect("attach wal");
    let mut model = Model::default();
    load(&primary, &mut model, "tr", 8, &mut rig.tally)?;
    let durable = primary.flush_wal().expect("flush").expect("durable watermark");

    let fail = |what: &str, detail: String| Violation {
        context: format!("truncation in flight: {what}"),
        detail,
    };
    let hello = primary.repl_subscribe().map_err(|e| fail("subscribe", format!("{e:?}")))?;
    let replica_store = Arc::new(store(rig, "replica store"));
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
            let mut bad = batch.clone();
            if rig.rng.next_below(2) == 0 {
                let cut = rig.rng.next_below(bad.frames.len() as u64) as usize;
                bad.frames.truncate(cut);
            } else {
                let pos = rig.rng.next_below(bad.frames.len() as u64) as usize;
                bad.frames[pos] ^= 1u8 << rig.rng.next_below(8);
            }
            match replica.apply_batch(&bad) {
                Err(_) => refused(&mut rig.tally, "truncations"),
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
            let tally = crate::run_phase("repl", seed, SALT, run).unwrap_or_else(|v| {
                panic!("seed {seed}: repl-phase violation: {v}");
            });
            assert_eq!(tally.get("split_brains"), 2, "split-brain count drifted: {tally}");
            assert_eq!(tally.get("stale_promotions"), 2, "stale-promotion count drifted: {tally}");
            assert_eq!(tally.get("truncations"), 3, "truncation count drifted: {tally}");
            assert_eq!(tally.get("attacks"), 7, "attack count drifted: {tally}");
            assert_eq!(tally.get("detected"), 7, "undetected attack: {tally}");
        }
    }
}
