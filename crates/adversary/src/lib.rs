//! Deterministic adversary harness for ShieldStore.
//!
//! Everything here is a pure function of a 64-bit seed: the operation
//! stream, the attack schedule, the snapshot corruptions, and the wire
//! faults. A failing seed therefore reproduces the failure exactly —
//! `cargo run -p adversary -- --seed <s>` — with no flakiness to chase.
//!
//! Every phase runs in one [`Rig`] ([`run_phase`]), counts into one
//! [`Tally`], and is checked against the one reference model,
//! [`shieldstore::model::Model`]:
//!
//! * [`engine`] — store-layer attacks on untrusted memory (entry field
//!   flips, chain unlink/splice, MAC side-array corruption, allocator
//!   faults, stale-entry rollback) interleaved with random operations.
//! * [`snapshot`] — persistence-layer attacks on the snapshot file
//!   (truncation, bit flips, zero-length, stale-file replay).
//! * [`wire`] — network-layer attacks via a byte-level fault proxy
//!   (garbled, truncated, duplicated, and dropped frames), plus an
//!   overload-and-tamper phase ([`wire::overload`], run on its own
//!   seed budget) that saturates a small-capacity server past its
//!   connection cap while one partition is corrupted, checking graceful
//!   degradation: correct, `Busy`, or `Quarantined` — never wrong.
//! * [`walphase`] — write-ahead-log attacks (torn tails, bit flips,
//!   record splices, stale pin+log replays, pre-snapshot logs after
//!   rotation) plus crash/recover cycles, each recovery
//!   checked against the model's acknowledged writes within the policy's
//!   loss window ([`shieldstore::model::Model::after`]).
//! * [`tenantphase`] — cross-tenant attacks (cross-namespace reads with
//!   leaked derived keys, re-MAC forgery, quota exhaustion, TTL
//!   resurrection), proving the multi-tenant isolation boundary.
//! * [`replphase`] — replication attacks (split brain after failover,
//!   stale and foreign-key promotions against a live primary, batch
//!   truncation/corruption in flight), proving fencing and the sealed
//!   stream's fail-closed chain.
//! * [`storagephase`] — storage-fault attacks (commit-path I/O errors
//!   that must poison the writer fail-closed, power cuts that must
//!   preserve exactly the acked prefix, sealed-segment and pin rot that
//!   the scrubber must detect, and forged repair payloads that the
//!   chain check must refuse while genuine ones restore service).
//! * [`crashphase`] — the process dies at a storage call: a `FaultFs`
//!   crash at each seed's kill point, anywhere in a commit, a snapshot or
//!   a log rotation, under strict, grouped, snapshot, expiry and
//!   storage-fault modes; recovery must land in the mode's window of
//!   acknowledged writes.
//!
//! The invariant checked after every step is the *trichotomy*: the
//! result matches the model, or the operation failed with an integrity
//! violation (detection, failing closed), and never anything else.

pub use rig::{run_phase, Rig};
use shieldstore::model::Model;
use shieldstore::{Error, Op, Refusal, ShieldStore, TenantId};

pub mod crashphase;
pub mod engine;
pub mod replphase;
pub mod rig;
pub mod snapshot;
pub mod storagephase;
pub mod tenantphase;
pub mod walphase;
pub mod wire;

/// A trichotomy violation: the store returned something the model says
/// is impossible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What the harness was doing.
    pub context: String,
    /// Why the observation is inconsistent.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.context, self.detail)
    }
}

/// Runs `op` as `tenant` on `store` and judges the answer against
/// `model`: it matches, or the op failed closed with an integrity
/// violation (`Ok(false)`), and never anything else.
pub(crate) fn checked(
    store: &ShieldStore,
    model: &mut Model,
    context: &str,
    tenant: TenantId,
    op: Op<'_>,
) -> Result<bool, Violation> {
    let violation = |detail: String| Violation { context: context.into(), detail };
    let reply = match store.execute(tenant, op) {
        Ok(reply) => Ok(reply),
        Err(e @ Error::IntegrityViolation { .. }) => Err(Refusal::from(&e)),
        Err(e) => {
            return Err(violation(format!(
                "unexpected error {e:?} (neither model-consistent nor a detection)"
            )));
        }
    };
    model.observe(tenant, op, reply.as_ref().map_err(|r| *r)).map_err(violation)?;
    Ok(reply.is_ok())
}

/// [`checked`] on a store nothing has tampered with: failing closed is a
/// violation too.
pub(crate) fn answered(
    store: &ShieldStore,
    model: &mut Model,
    context: &str,
    tenant: TenantId,
    op: Op<'_>,
) -> Result<(), Violation> {
    match checked(store, model, context, tenant, op)? {
        true => Ok(()),
        false => {
            Err(Violation { context: context.into(), detail: format!("{op:?} failed closed") })
        }
    }
}

/// Counts a stale-but-valid replay as an attack and `outcome`, what the
/// store made of it, as its detection: it must be `Err(Rollback)`, and
/// nothing else.
pub(crate) fn refused_as_rollback<T>(
    tally: &mut Tally,
    outcome: Result<T, Error>,
    context: &str,
    what: &str,
) -> Result<(), Violation> {
    tally.add("attacks", 1);
    match outcome {
        Err(Error::Rollback) => {
            tally.add("detected", 1);
            Ok(())
        }
        other => Err(Violation {
            context: context.into(),
            detail: format!(
                "{what} returned {:?} instead of Err(Rollback)",
                other.map(|_| "a working store")
            ),
        }),
    }
}

/// Checks that `store` holds exactly `model` and that its counters are
/// self-consistent.
pub(crate) fn check_state(
    store: &ShieldStore,
    model: &Model,
    context: &str,
) -> Result<(), Violation> {
    model.check_store(store).map_err(|detail| Violation { context: context.into(), detail })?;
    engine::check_stats(store, context)
}

/// Named counters, in the order each was first bumped. A phase names a
/// counter where it bumps it; the totals, the text summary and the JSON
/// report are all read off the tallies.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally(Vec<(String, u64)>);

impl Tally {
    /// Adds `n` to counter `name`, listing it (even at 0) if it is new.
    pub fn add(&mut self, name: &str, n: u64) {
        match self.0.iter_mut().find(|(listed, _)| listed == name) {
            Some((_, count)) => *count += n,
            None => self.0.push((name.into(), n)),
        }
    }

    /// Counter `name`, 0 if it was never bumped.
    pub fn get(&self, name: &str) -> u64 {
        self.0.iter().find(|(listed, _)| listed == name).map_or(0, |(_, count)| *count)
    }

    /// Adds every counter of `other` to this one.
    pub fn merge(&mut self, other: &Tally) {
        for (name, n) in &other.0 {
            self.add(name, *n);
        }
    }

    /// The counters as a one-line JSON object.
    pub fn json(&self) -> String {
        let fields: Vec<String> =
            self.0.iter().map(|(name, n)| format!("\"{name}\": {n}")).collect();
        format!("{{{}}}", fields.join(", "))
    }
}

impl std::fmt::Display for Tally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let fields: Vec<String> = self.0.iter().map(|(name, n)| format!("{name}={n}")).collect();
        f.write_str(&fields.join(" "))
    }
}

/// Each phase's tally for one seed, in the order the phases ran.
pub type Tallies = Vec<(&'static str, Tally)>;

/// Every counter that more than one phase names (`ops`, `attacks`,
/// `detected`, …), summed over the phases.
pub fn totals(phases: &Tallies) -> Tally {
    let mut all = Tally::default();
    for (_, tally) in phases {
        all.merge(tally);
    }
    all.0.retain(|(name, _)| {
        phases.iter().filter(|(_, tally)| tally.0.iter().any(|(n, _)| n == name)).count() > 1
    });
    all
}

/// A phase body, run in the [`Rig`] that [`run_phase`] hands it.
type Phase<'a> = &'a dyn Fn(&mut Rig) -> Result<(), Violation>;

/// Runs every phase for one seed, or the store phase alone when
/// `every_phase` is false. `store_steps` sizes the chaotic store phase;
/// the other phases have fixed shapes.
pub fn run_seed(seed: u64, store_steps: u64, every_phase: bool) -> Result<Tallies, Violation> {
    let store = |rig: &mut Rig| engine::run(rig, store_steps);
    let phases: [(&'static str, u64, Phase); 8] = [
        ("store", engine::SALT, &store),
        ("snap", snapshot::SALT, &snapshot::run),
        ("wal", walphase::SALT, &walphase::run),
        ("wire", wire::SALT, &wire::run),
        ("tenant", tenantphase::SALT, &tenantphase::run),
        ("repl", replphase::SALT, &replphase::run),
        ("storage", storagephase::SALT, &storagephase::run),
        ("crash", crashphase::SALT, &crashphase::run),
    ];
    let count = if every_phase { phases.len() } else { 1 };
    phases
        .into_iter()
        .take(count)
        .map(|(name, salt, phase)| Ok((name, run_phase(name, seed, salt, phase)?)))
        .collect()
}

/// Runs the overload-and-tamper phase for one seed. It has its own seed
/// budget: each seed starts servers, a client fleet and a fault proxy.
pub fn run_overload_seed(seed: u64) -> Result<Tallies, Violation> {
    Ok(vec![("overload", run_phase("overload", seed, 0, wire::overload)?)])
}
